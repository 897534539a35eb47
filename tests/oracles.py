"""Test-only oracles: independent constructions of what the package computes
by faster routes.

- ``ladder_f`` is the Dicke-ladder element f(k), written here apart from
  the package's Omega table, for ``dicke_jx`` and ``cell_omega``.
- ``kron_hamiltonian`` assembles the symmetric-basis H from Kronecker
  products of the collective operators, an independent route to the closed
  forms that ``build_hamiltonian`` writes.
- ``full_space_evolution`` propagates with one complex ``eigh`` of the whole
  space, without the parity-sector restriction.
- ``grid_states`` is not an oracle: it is the sector kernel's own amplitude
  grid (the blocks of ``dynamics._on_grid``) over the whole space, which
  ``evolve`` does not keep, for comparing with the oracles and with
  ``evolve``.
- ``build_effective_hamiltonian`` is the selective two-level model of one
  target, compared with the exact dynamics at its resonance.
- ``closed_form_stark_shift`` and ``closed_form_second_order`` are the
  Stark shift and the four second-order families (tc2, atc2, r2, a2) written
  out by hand, term by term, over ``cell_omega``: an independent route to
  the package's single sum over first-order steps. The two must agree bit
  for bit and refuse the same degenerate points.
- ``selectivity_rows`` is the selectivity report's rows, built one channel
  at a time from the definitions of its fields, over ``cell_omega`` and the
  closed forms, apart from the report's grid and its masks.
- ``scalar_second_order_root`` is the second-order resonance solve over
  ``scalar_tilde_frequency``, the closed-form tilde frequency; it must
  return the package's root bit for bit, or refuse alike.
- ``detuned_rabi_probability`` is the closed-form two-level lineshape that
  scan peaks are compared with.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from dickestark.effective import (
    DEGENERACY_FLOOR,
    ROOT_TOLERANCE,
    SELECTIVITY_RATIO,
    DegenerateDetuningError,
    ResonanceBracketError,
    ResonanceTarget,
    _bare_second_order_omega_q,
    _illinois,
    delta_minus,
    delta_plus,
    target_coupling,
)
from dickestark.dynamics import _on_grid, _Sector
from dickestark.model import HilbertSpace, ModelParams, Operator, StateVector


def ladder_f(k: int, n_qubits: int) -> float:
    """Dicke-ladder element f(k) = sqrt((k+1)(N-k)) of the collective flip
    between k and k+1 excitations; zero outside 0 <= k < N."""
    return math.sqrt((k + 1) * (n_qubits - k)) if 0 <= k < n_qubits else 0.0


def dicke_jx(n_qubits: int) -> np.ndarray:
    jx = np.zeros((n_qubits + 1, n_qubits + 1))
    for k in range(n_qubits):
        f = ladder_f(k, n_qubits)
        jx[k + 1, k] = f
        jx[k, k + 1] = f
    return jx


def dicke_jz(n_qubits: int) -> np.ndarray:
    return np.diag([2.0 * k - n_qubits for k in range(n_qubits + 1)])


def collective_ops(space: HilbertSpace) -> tuple[Operator, Operator]:
    """Collective (Jx, Jz) on the symmetric space, acting trivially on the
    Fock factor: Jx couples (k, n) <-> (k+1, n) with element f(k) and Jz is
    diagonal with entries 2k - N."""
    eye_f = np.eye(space.n_max + 1)
    jx = Operator(space, np.kron(dicke_jx(space.n_qubits), eye_f))
    jz = Operator(space, np.kron(dicke_jz(space.n_qubits), eye_f))
    return jx, jz


def kron_hamiltonian(params: ModelParams) -> np.ndarray:
    """The symmetric-basis H as a complex matrix, from Kronecker products:
    (omega_q/2) Jz + omega_r a'a + (lambda/sqrt(N)) (a + a') Jx + (U/2N) a'a Jz."""
    n = params.n_qubits
    a = np.diag(np.sqrt(np.arange(1.0, params.n_max + 1)), 1)
    nph = a.T @ a
    jx, jz = dicke_jx(n), dicke_jz(n)
    h = (
        0.5 * params.omega_q * np.kron(jz, np.eye(params.n_max + 1))
        + params.omega_r * np.kron(np.eye(n + 1), nph)
        + (params.coupling / math.sqrt(n)) * np.kron(jx, a + a.T)
        + (params.stark_u / (2 * n)) * np.kron(jz, nph)
    )
    return h.astype(complex)


def full_space_evolution(h: np.ndarray, amplitudes: np.ndarray, times) -> np.ndarray:
    """exp(-i H t) applied to ``amplitudes`` at each of ``times`` (one row per
    time), from one complex ``eigh`` of the whole matrix."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    coeffs = v.conj().T @ amplitudes
    phases = np.exp(-1j * np.outer(np.atleast_1d(times), w))
    return (phases * coeffs) @ v.T


def grid_states(h: Operator, psi0: StateVector, duration: float, samples: int) -> np.ndarray:
    """The blocks of ``_on_grid`` on H's occupied sector, concatenated over the
    whole space: one row per time of np.linspace(0, duration, samples)."""
    sector = _Sector(h, psi0.amplitudes)
    blocks = _on_grid(*sector.eigh(h), psi0.amplitudes[sector.kept, None], duration, samples)
    states = np.zeros((samples, h.space.dimension), dtype=complex)
    states[:, sector.kept] = np.concatenate([block for _, block in blocks], axis=1).T
    return states


def detuned_rabi_probability(omega, delta, t):
    """Transfer probability of a two-level system with coupling ``omega`` and
    detuning ``delta`` after time ``t``, elementwise over arrays:

        P(t) = 4 omega^2 / (4 omega^2 + delta^2)
               * sin^2( sqrt(4 omega^2 + delta^2) t / 2 )

    zero where omega = 0."""
    omega, delta, t = (np.asarray(v, dtype=float) for v in (omega, delta, t))
    if np.any(omega < 0):
        raise ValueError("omega must be >= 0")
    rate2 = 4 * omega**2
    general2 = rate2 + delta**2
    amplitude = np.divide(rate2, general2, out=np.zeros(general2.shape), where=rate2 > 0)
    return amplitude * np.sin(0.5 * np.sqrt(general2) * t) ** 2


def build_effective_hamiltonian(
    target: ResonanceTarget, params: ModelParams, space: HilbertSpace
) -> Operator:
    """The selective two-level Hamiltonian: nonzero only on the target pair,
    with the (signed) coupling amplitude on the two symmetric off-diagonal
    positions. Meaningful when params are tuned to the target's resonance."""
    target.validate(params)
    i, j = (space.index(*cell) for cell in target.pair())
    omega = target_coupling(target, params)
    h = np.zeros((space.dimension, space.dimension))
    h[i, j] = omega
    h[j, i] = omega
    return Operator(space, h)


def cell_omega(n: int, k: int, params: ModelParams) -> float:
    """Omega(n, k) = lambda f(k) sqrt(n+1) / sqrt(N) for one cell, zero
    outside the physical index range."""
    if n < 0:
        return 0.0
    f = ladder_f(k, params.n_qubits)
    return params.coupling * f * math.sqrt(n + 1) / math.sqrt(params.n_qubits)


def _ratio(num: float, den: float) -> float:
    """num / den, zero for num == 0, refusing |den| < DEGENERACY_FLOOR."""
    if num == 0.0:
        return 0.0
    if abs(den) < DEGENERACY_FLOOR:
        raise DegenerateDetuningError(f"first-order detuning {den:.3e} below the {DEGENERACY_FLOOR} floor")
    return num / den


def closed_form_stark_shift(n: int, k: int, params: ModelParams) -> float:
    """Delta(n, k) of the cell (k, n): the level repulsion from its four
    first-order channels tc(n, k-1), atc(n-1, k-1), tc(n-1, k) and atc(n, k)."""
    a = cell_omega(n, k - 1, params)
    b = cell_omega(n - 1, k - 1, params)
    c = cell_omega(n - 1, k, params)
    d = cell_omega(n, k, params)
    return (
        _ratio(a * a, delta_minus(n, k - 1, params))
        + _ratio(b * b, delta_plus(n - 1, k - 1, params))
        - _ratio(c * c, delta_minus(n - 1, k, params))
        - _ratio(d * d, delta_plus(n, k, params))
    )


def closed_form_second_order(kind: str, n: int, k: int, params: ModelParams) -> tuple[float, float, float]:
    """(coupling, bare frequency, tilde frequency) of the second-order family
    ``kind`` at (n, k): tc2 couples (k, n+2) -> (k+2, n), atc2 (k, n) ->
    (k+2, n+2), r2 (k, n) -> (k+2, n) and a2 (k, n) -> (k, n+2), through
    one intermediate cell (tc2, atc2) or two (r2, a2)."""
    if kind == "tc2":
        g = cell_omega(n, k + 1, params) * cell_omega(n + 1, k, params)
        coupling = 0.5 * (_ratio(g, delta_minus(n, k + 1, params)) - _ratio(g, delta_minus(n + 1, k, params)))
        bare = delta_minus(n + 1, k, params) + delta_minus(n, k + 1, params)
        ends = (n + 2, k), (n, k + 2)
    elif kind == "atc2":
        g = cell_omega(n, k, params) * cell_omega(n + 1, k + 1, params)
        coupling = 0.5 * (_ratio(g, delta_plus(n + 1, k + 1, params)) - _ratio(g, delta_plus(n, k, params)))
        bare = delta_plus(n, k, params) + delta_plus(n + 1, k + 1, params)
        ends = (n, k), (n + 2, k + 2)
    elif kind == "r2":
        lo = cell_omega(n - 1, k, params) * cell_omega(n - 1, k + 1, params)
        hi = cell_omega(n, k, params) * cell_omega(n, k + 1, params)
        coupling = 0.5 * (
            (_ratio(lo, delta_plus(n - 1, k + 1, params)) - _ratio(lo, delta_minus(n - 1, k, params)))
            + (_ratio(hi, delta_minus(n, k + 1, params)) - _ratio(hi, delta_plus(n, k, params)))
        )
        bare = delta_plus(n, k, params) + delta_minus(n, k + 1, params)
        ends = (n, k), (n, k + 2)
    else:
        lo = cell_omega(n, k - 1, params) * cell_omega(n + 1, k - 1, params)
        hi = cell_omega(n, k, params) * cell_omega(n + 1, k, params)
        coupling = 0.5 * (
            (_ratio(lo, delta_plus(n + 1, k - 1, params)) + _ratio(lo, delta_minus(n, k - 1, params)))
            - (_ratio(hi, delta_plus(n, k, params)) + _ratio(hi, delta_minus(n + 1, k, params)))
        )
        bare = delta_plus(n, k, params) - delta_minus(n + 1, k, params)
        ends = (n, k), (n + 2, k)
    (n_from, k_from), (n_to, k_to) = ends
    tilde = bare + closed_form_stark_shift(n_to, k_to, params) - closed_form_stark_shift(n_from, k_from, params)
    return coupling, bare, tilde


def selectivity_rows(target: ResonanceTarget, params: ModelParams) -> list[tuple]:
    """The rows of the selectivity report, built channel by channel from the
    definitions: a channel's two cells, Omega and delta-/+ at first order and
    the closed-form coupling and tilde frequency at second order, zero
    coupling (infinite ratio) when a cell leaves the space, the selected
    family (the target's kind, n - k fixed for tc-like, n + k for atc-like),
    adjacency (a cell shared with the target pair), and risk (not selected,
    ratio below SELECTIVITY_RATIO). Rows run over n, then k, then kind, first
    order before second; a degenerate point of any cell refuses."""
    n_q, n_max, m, n0, k0 = params.n_qubits, params.n_max, target.order, target.n0, target.k0
    couples = {  # the two (k, n) cells of each channel at (n, k)
        "tc": lambda n, k: ((k + 1, n), (k, n + 1)),
        "atc": lambda n, k: ((k, n), (k + 1, n + 1)),
        "tc2": lambda n, k: ((k + 2, n), (k, n + 2)),
        "atc2": lambda n, k: ((k, n), (k + 2, n + 2)),
        "r2": lambda n, k: ((k + 2, n), (k, n)),
        "a2": lambda n, k: ((k, n + 2), (k, n)),
    }
    own = target.kind + ("2" if m == 2 else "")
    pair = set(couples[own](n0, k0))
    rows = []

    def add(kind, n, k, coupling, detuning):
        cells = couples[kind](n, k)
        if not all(0 <= kk <= n_q and 0 <= nn <= n_max for kk, nn in cells):
            coupling = 0.0
        ratio = math.inf if coupling == 0.0 else abs(detuning) / abs(coupling)
        on_line = n - k == n0 - k0 if target.kind == "tc" else n + k == n0 + k0
        selected = kind == own and on_line
        adjacent = bool(pair & set(cells))
        risk = not selected and ratio < SELECTIVITY_RATIO
        rows.append((kind, n, k, coupling, detuning, ratio, coupling == 0.0, selected, adjacent, risk))

    grid = [(n, k) for n in range(n_max + 1) for k in range(n_q + 1)]
    for n, k in grid:
        omega = cell_omega(n, k, params)
        add("tc", n, k, omega, delta_minus(n, k, params))
        add("atc", n, k, omega, delta_plus(n, k, params))
    if m == 2:
        for n, k in grid:
            for kind in ("tc2", "atc2", "r2", "a2"):
                coupling, _, tilde = closed_form_second_order(kind, n, k, params)
                add(kind, n, k, coupling, tilde)
    return rows


def scalar_tilde_frequency(target: ResonanceTarget, params: ModelParams) -> float:
    """The second-order target's closed-form tilde frequency."""
    return closed_form_second_order(target.channel, target.n0, target.k0, params)[2]


def scalar_second_order_root(target: ResonanceTarget, params: ModelParams) -> float:
    """The bare centre widened by max(10 lambda^2 N / |U|, 1e-6), then
    Illinois refinement of ``scalar_tilde_frequency``; ResonanceBracketError
    without a sign change or above ROOT_TOLERANCE at the root, and
    DegenerateDetuningError from any evaluation on a degenerate point."""
    target.validate(params)
    center = _bare_second_order_omega_q(target, params)
    width = max(10.0 * params.coupling**2 * params.n_qubits / abs(params.stark_u), 1e-6)
    lo, hi = center - width, center + width

    def objective(omega_q: float) -> float:
        return scalar_tilde_frequency(target, replace(params, omega_q=omega_q))

    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise ResonanceBracketError("no sign change over the bracket")
    root = _illinois(objective, lo, hi, f_lo, f_hi)
    if not abs(objective(root)) <= ROOT_TOLERANCE:
        raise ResonanceBracketError("residual above ROOT_TOLERANCE")
    return float(root)
