"""Machine-checkable invariant suite: operator contracts, conservation laws,
basis-equivalence oracles at small N, cutoff stability, and selectivity
ratios at every preset resonance. None of the thresholds depend on external
reference values."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import evolve, observables, propagate
from .effective import (
    SELECTIVITY_RATIO,
    DegenerateDetuningError,
    ResonanceTarget,
    detuned_rabi_probability,
    rwa_validity_report,
    second_order_coeffs,
    solve_resonance,
    tilde_frequency,
    pulse_duration,
)
from .model import (
    HERMITICITY_TOL,
    NORM_TOL,
    BasisKind,
    ModelParams,
    StateVector,
    build_hamiltonian,
    build_space,
    dicke_state,
    ladder_coupling,
    symmetrization_isometry,
)
from .presets import SCAN_PRESETS

UNITARITY_LIMIT = 1e-10
ENERGY_DRIFT_LIMIT = 1e-10
BASIS_EQUIVALENCE_LIMIT = 1e-8
CUTOFF_STABILITY_LIMIT = 1e-8
TILDE_RESIDUAL_LIMIT = 1e-9


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


def check_hermiticity(rng, draws: int = 10) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        params = _oracle_params(rng)
        for kind in BasisKind:
            h = build_hamiltonian(params, build_space(params, kind))
            worst = max(worst, h.hermiticity_defect())
    return CheckResult(
        "hermiticity", "N<=3 both bases", worst <= HERMITICITY_TOL, worst, HERMITICITY_TOL
    )


def check_unitarity(rng, draws: int = 5) -> CheckResult:
    """U(t) built column by column from ``propagate`` on each basis vector.
    A basis vector occupies one parity sector, so every column runs the
    sector kernel that scans and protocols run."""
    worst = 0.0
    for _ in range(draws):
        params = _oracle_params(rng)
        space = build_space(params, BasisKind.SYMMETRIC)
        h = build_hamiltonian(params, space)
        t = float(rng.uniform(0.0, 100.0))
        identity = np.eye(space.dimension)
        columns = [propagate(h, StateVector(space, e), t).amplitudes for e in identity]
        u = np.column_stack(columns)
        defect = np.max(np.abs(u.conj().T @ u - identity))
        worst = max(worst, float(defect))
    return CheckResult("unitarity", "N<=3", worst <= UNITARITY_LIMIT, worst, UNITARITY_LIMIT)


def check_conservation(rng) -> CheckResult:
    params = ModelParams(
        n_qubits=4, omega_q=0.9, coupling=0.05, stark_u=-0.8, n_max=6
    )
    space = build_space(params, BasisKind.SYMMETRIC)
    h = build_hamiltonian(params, space)
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    psi0 = StateVector(space, amps / np.linalg.norm(amps))
    traj = evolve(psi0, h, duration=300.0, samples=300)
    norm_drift = float(np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)))
    # <psi|H|psi> of every sample at once
    energies = np.einsum("ij,ij->i", traj.states.conj(), traj.states @ h.matrix.T).real
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
    space = build_space(params, BasisKind.SYMMETRIC)
    h = build_hamiltonian(params, space).matrix
    ks, ns = space.excitation_numbers()
    dk = np.abs(ks[:, None] - ks[None, :])
    dn = np.abs(ns[:, None] - ns[None, :])
    off_ladder = ~((dk == 1) & (dn == 1))
    np.fill_diagonal(off_ladder, False)
    values = np.abs(h[off_ladder])
    worst = float(values.max())
    ok = not values.any()
    closed = ladder_coupling(params.n_qubits, params.n_qubits) == 0.0
    return CheckResult(
        "excitation-structure",
        "N=4",
        ok and closed,
        worst,
        0.0,
        detail="off-ladder elements exactly zero; f(N) = 0",
    )


def check_basis_equivalence(rng, draws: int = 100) -> CheckResult:
    """Product-basis evolution, projected back to the symmetric sector, must
    match symmetric-basis evolution for random parameters and durations."""
    worst = 0.0
    for _ in range(draws):
        params = _oracle_params(rng)
        sym = build_space(params, BasisKind.SYMMETRIC)
        prod = build_space(params, BasisKind.PRODUCT)
        v = symmetrization_isometry(sym, prod)
        amps = rng.normal(size=sym.dimension) + 1j * rng.normal(size=sym.dimension)
        amps /= np.linalg.norm(amps)
        psi_sym = StateVector(sym, amps)
        psi_prod = StateVector(prod, v @ amps)
        t = float(rng.uniform(0.0, 50.0))
        evolved_sym = propagate(build_hamiltonian(params, sym), psi_sym, t)
        evolved_prod = propagate(build_hamiltonian(params, prod), psi_prod, t)
        projected = v.T @ evolved_prod.amplitudes
        worst = max(worst, float(np.linalg.norm(projected - evolved_sym.amplitudes)))
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
    resonance by less than 1e-8."""
    worst = 0.0
    for name, preset in sorted(SCAN_PRESETS.items()):
        params = preset.params
        omega_q = solve_resonance(preset.target, params)
        results = []
        for n_max in (params.n_max, 2 * params.n_max):
            p = replace(params, omega_q=omega_q, n_max=n_max)
            space = build_space(p, BasisKind.SYMMETRIC)
            psi0 = dicke_state(space, preset.initial_k, preset.initial_n)
            duration = pulse_duration(preset.target, p, preset.duration_fraction)
            final = propagate(build_hamiltonian(p, space), psi0, duration)
            nq, nph = observables(final)
            results.append((nq, nph))
        (nq1, nph1), (nq2, nph2) = results
        worst = max(worst, abs(nq1 - nq2), abs(nph1 - nph2))
    return CheckResult(
        "cutoff-doubling-stability",
        "all presets",
        worst <= CUTOFF_STABILITY_LIMIT,
        worst,
        CUTOFF_STABILITY_LIMIT,
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
        space = build_space(tuned, BasisKind.SYMMETRIC)
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


def check_tilde_consistency() -> CheckResult:
    params = ModelParams(n_qubits=4, coupling=0.1, stark_u=-16.0, n_max=8)
    worst = 0.0
    for target in (ResonanceTarget("atc", 2, 0, 0), ResonanceTarget("tc", 2, 0, 2)):
        omega_q = solve_resonance(target, params)
        residual = abs(tilde_frequency(target, replace(params, omega_q=omega_q)))
        worst = max(worst, residual)
    return CheckResult(
        "second-order-tilde-residual",
        "N=4 two-excitation presets",
        worst < TILDE_RESIDUAL_LIMIT,
        worst,
        TILDE_RESIDUAL_LIMIT,
    )


def check_degeneracy_guard() -> CheckResult:
    params = ModelParams(n_qubits=4, omega_q=1.0, coupling=0.05, stark_u=0.0, n_max=4)
    try:
        second_order_coeffs(0, 0, params)
    except DegenerateDetuningError:
        return CheckResult(
            "degeneracy-guard",
            "U=0 at resonance",
            True,
            None,
            None,
            detail="degenerate parameter point rejected as required",
        )
    return CheckResult(
        "degeneracy-guard",
        "U=0 at resonance",
        False,
        None,
        None,
        detail="expected DegenerateDetuningError was not raised",
    )


def check_rabi_bounds(rng, samples: int = 10_000) -> CheckResult:
    omegas = rng.uniform(0.0, 2.0, samples)
    deltas = rng.uniform(-5.0, 5.0, samples)
    times = rng.uniform(0.0, 100.0, samples)
    worst = 0.0
    ok = True
    for omega, delta, t in zip(omegas, deltas, times):
        p = detuned_rabi_probability(float(omega), float(delta), float(t))
        ok = ok and 0.0 <= p <= 1.0
        worst = max(worst, max(-p, p - 1.0))
    return CheckResult(
        "detuned-rabi-bounds", f"{samples} samples", ok, worst, 0.0
    )


def run_validation(draws: int = 100, seed: int = 0) -> tuple[list[CheckResult], bool]:
    rng = np.random.default_rng(seed)
    checks = [
        check_hermiticity(rng),
        check_unitarity(rng),
        check_conservation(rng),
        check_excitation_structure(),
        check_basis_equivalence(rng, draws=draws),
        check_cutoff_stability(),
        check_selectivity(),
        check_tilde_consistency(),
        check_degeneracy_guard(),
        check_rabi_bounds(rng),
    ]
    return checks, all(c.passed for c in checks)
