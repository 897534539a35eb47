"""Machine-checkable invariant suite, one row per check: unitarity, norm and
energy conservation, the excitation structure, basis equivalence with a
product-basis oracle at small N, cutoff stability, and selectivity ratios at
every preset resonance. Each row can fail on a faulty model or kernel;
closed-form identities are asserted in the unit tests. None of the
thresholds depend on external reference values. A non-Hermitian H has no
row: the kernel refuses it (exit 2) before any row could report it.

The product-basis oracle is private to this module: the full 2^N register x
Fock space, flat index ``s*(n_max+1) + n`` where bit j of s marks qubit j
excited, with H assembled from Kronecker products (``_product_hamiltonian``)
and the symmetric sector embedded by V = W x I (``_product_isometry``). It is
deliberately a second route, sharing no builder or kernel with the model.

The checks that run the spectral kernel call its two routes directly
(``_propagated``, ``_on_grid``), without the ``StateVector`` and
``Trajectory`` norm checks of ``propagate`` and ``evolve``: a kernel that
drifts in norm then yields a failed row with its measured defect instead of
an exception."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import _on_grid, _propagated, _Sector
from .effective import SELECTIVITY_RATIO, pulse_duration, rwa_validity_report, solve_resonance
from .model import (
    NORM_TOL,
    ModelParams,
    build_hamiltonian,
    build_space,
    dicke_state,
)
from .presets import SCAN_PRESETS

UNITARITY_LIMIT = 1e-10
ENERGY_DRIFT_LIMIT = 1e-10
BASIS_EQUIVALENCE_LIMIT = 1e-8
CUTOFF_STABILITY_LIMIT = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    scale: str
    passed: bool
    value: float | None
    threshold: float | None
    detail: str = ""


def _oracle_params(rng) -> ModelParams:
    return ModelParams(
        n_qubits=int(rng.integers(2, 4)),
        omega_r=1.0,
        omega_q=float(rng.uniform(-2.0, 2.0)),
        coupling=float(rng.uniform(0.0, 0.2)),
        stark_u=float(rng.uniform(-2.0, 2.0)),
        n_max=int(rng.integers(2, 5)),
    )


def _popcount(n_qubits: int) -> np.ndarray:
    """Number of excited qubits in each register state s = 0 .. 2^N - 1."""
    s = np.arange(2**n_qubits)
    return sum((s >> j) & 1 for j in range(n_qubits))


def _product_hamiltonian(params: ModelParams) -> np.ndarray:
    """H on the product basis from Kronecker products of the Pauli sums:
    (omega_q/2) Sz + omega_r a'a + (lambda/sqrt(N)) (a + a') Sx + (U/2N) a'a Sz,
    with Sx = sum_j sigma_j^x and Sz = sum_j sigma_j^z."""
    n, levels = params.n_qubits, params.n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, levels)), 1)  # photon annihilator
    nph = a.T @ a
    s = np.arange(2**n)
    sx = np.zeros((s.size, s.size))
    for j in range(n):
        sx[s ^ (1 << j), s] += 1.0
    sz = np.diag(2.0 * _popcount(n) - n)
    return (
        0.5 * params.omega_q * np.kron(sz, np.eye(levels))
        + params.omega_r * np.kron(np.eye(s.size), nph)
        + (params.coupling / math.sqrt(n)) * np.kron(sx, a + a.T)
        + (params.stark_u / (2 * n)) * np.kron(sz, nph)
    )


def _product_isometry(params: ModelParams) -> np.ndarray:
    """V = W x I (product dimension x symmetric dimension): column k of W is
    |D_N^k>, the equal-amplitude sum of the C(N, k) register states with k
    excitations. V'V = I, and V' H_prod V is the symmetric-basis H."""
    n = params.n_qubits
    norms = np.sqrt([math.comb(n, k) for k in range(n + 1)])
    w = (_popcount(n)[:, None] == np.arange(n + 1)) / norms
    return np.kron(w, np.eye(params.n_max + 1))


def check_unitarity(rng) -> CheckResult:
    """U(t) built column by column by the kernel of ``propagate`` on each
    basis vector. A basis vector occupies one parity sector, so every column
    runs the sector kernel that scans and protocols run."""
    worst = 0.0
    for _ in range(5):
        params = _oracle_params(rng)
        space = build_space(params)
        h = build_hamiltonian(params, space)
        t = float(rng.uniform(0.0, 100.0))
        identity = np.eye(space.dimension, dtype=complex)
        u = np.column_stack([_propagated(h, e, t) for e in identity])
        defect = np.max(np.abs(u.conj().T @ u - identity))
        worst = max(worst, float(defect))
    return CheckResult("unitarity", "N<=3", worst <= UNITARITY_LIMIT, worst, UNITARITY_LIMIT)


def check_conservation(rng) -> CheckResult:
    params = ModelParams(
        n_qubits=4, omega_q=0.9, coupling=0.05, stark_u=-0.8, n_max=6
    )
    space = build_space(params)
    h = build_hamiltonian(params, space)
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    # the time grid of ``evolve``, one row per sample; the state occupies both
    # parities, so the kernel keeps the whole space
    sector = _Sector(h, amps)
    blocks = _on_grid(*sector.eigh(h), amps[sector.kept, None] / np.linalg.norm(amps), 300.0, 300)
    states = np.ascontiguousarray(np.concatenate([block for _, block in blocks], axis=1).T)
    norm_drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
    # <psi|H|psi> of every sample at once
    energies = np.einsum("ij,ij->i", states.conj(), states @ h.matrix.T).real
    scale = max(abs(float(energies[0])), 1.0)
    energy_drift = float(np.max(np.abs(energies - energies[0])) / scale)
    worst = max(norm_drift, energy_drift)
    return CheckResult(
        "norm-and-energy-conservation",
        "N=4",
        norm_drift <= NORM_TOL and energy_drift <= ENERGY_DRIFT_LIMIT,
        worst,
        NORM_TOL,
        detail=f"norm drift {norm_drift:.2e}, relative energy drift {energy_drift:.2e}",
    )


def check_excitation_structure() -> CheckResult:
    params = ModelParams(n_qubits=4, omega_q=1.2, coupling=0.1, stark_u=-0.5, n_max=4)
    space = build_space(params)
    h = build_hamiltonian(params, space).matrix
    ks, ns = space.excitation_numbers()
    dk = np.abs(ks[:, None] - ks[None, :])
    dn = np.abs(ns[:, None] - ns[None, :])
    off_ladder = ~((dk == 1) & (dn == 1))
    np.fill_diagonal(off_ladder, False)
    values = np.abs(h[off_ladder])
    worst = float(values.max())
    return CheckResult(
        "excitation-structure", "N=4", not values.any(), worst, 0.0,
        detail="off-ladder elements exactly zero",
    )


def check_basis_equivalence(rng, draws: int = 100) -> CheckResult:
    """The sector kernel's evolution must match the product-basis route,
    exp(-i H_prod t) from one full-space ``eigh`` of the Kronecker-product H,
    projected back through V, for random parameters, states and durations."""
    worst = 0.0
    for _ in range(draws):
        params = _oracle_params(rng)
        space = build_space(params)
        v = _product_isometry(params)
        amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        amps /= np.linalg.norm(amps)
        t = float(rng.uniform(0.0, 50.0))
        evolved = _propagated(build_hamiltonian(params, space), amps, t)
        w, u = np.linalg.eigh(_product_hamiltonian(params))
        projected = v.T @ (u @ (np.exp(-1j * (w * t)) * (u.T @ (v @ amps))))
        worst = max(worst, float(np.linalg.norm(projected - evolved)))
    return CheckResult(
        "basis-equivalence",
        "N in {2,3}, n_max <= 4",
        worst <= BASIS_EQUIVALENCE_LIMIT,
        worst,
        BASIS_EQUIVALENCE_LIMIT,
        detail=f"{draws} random parameter draws",
    )


def check_cutoff_stability() -> CheckResult:
    """Doubling n_max changes the half-period observables at each preset
    resonance by less than 1e-8, and every final state keeps unit norm to
    NORM_TOL."""
    worst = drift = 0.0
    for name, preset in sorted(SCAN_PRESETS.items()):
        params = preset.params
        omega_q = solve_resonance(preset.target, params)
        results = []
        for n_max in (params.n_max, 2 * params.n_max):
            p = replace(params, omega_q=omega_q, n_max=n_max)
            space = build_space(p)
            psi0 = dicke_state(space, preset.initial_k, preset.initial_n)
            duration = pulse_duration(preset.target, p)
            final = _propagated(build_hamiltonian(p, space), psi0.amplitudes, duration)
            drift = max(drift, abs(float(np.linalg.norm(final)) - 1.0))
            ks, ns = space.excitation_numbers()
            pops = np.abs(final) ** 2
            results.append((float(ks @ pops), float(ns @ pops)))
        (nq1, nph1), (nq2, nph2) = results
        worst = max(worst, abs(nq1 - nq2), abs(nph1 - nph2))
    unit_norm = drift <= NORM_TOL
    return CheckResult(
        "cutoff-doubling-stability",
        "all presets",
        worst <= CUTOFF_STABILITY_LIMIT and unit_norm,
        worst,
        CUTOFF_STABILITY_LIMIT,
        detail="" if unit_norm else f"final-state norm drift {drift:.2e} exceeds {NORM_TOL}",
    )


def check_selectivity() -> CheckResult:
    """At every preset resonance, each competing channel coupled to the
    selected pair must satisfy |delta| / Omega > 10. Detached channels are
    tabulated and flagged by the report but do not gate this check (at the
    two-excitation presets, first-order pair terms on empty cells are exactly
    resonant by design)."""
    worst = math.inf
    detail = []
    for name, preset in sorted(SCAN_PRESETS.items()):
        omega_q = solve_resonance(preset.target, preset.params)
        tuned = replace(preset.params, omega_q=omega_q)
        space = build_space(tuned)
        report = rwa_validity_report(preset.target, tuned, space)
        ratio = report.min_ratio(adjacent_only=True)
        if ratio < worst:
            worst = ratio
            detail = [f"minimum adjacent ratio {ratio:.1f} at preset {name}"]
    return CheckResult(
        "rwa-selectivity",
        "all presets",
        worst > SELECTIVITY_RATIO,
        worst,
        SELECTIVITY_RATIO,
        detail="; ".join(detail),
    )


def run_validation(draws: int = 100, seed: int = 0) -> tuple[list[CheckResult], bool]:
    rng = np.random.default_rng(seed)
    checks = [
        check_unitarity(rng),
        check_conservation(rng),
        check_excitation_structure(),
        check_basis_equivalence(rng, draws=draws),
        check_cutoff_stability(),
        check_selectivity(),
    ]
    return checks, all(c.passed for c in checks)
