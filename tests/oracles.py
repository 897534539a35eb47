"""Test-only oracles: independent constructions of what the package computes
by faster routes.

- ``ladder_f`` is the Dicke-ladder element f(k), written here apart from
  the package's Omega table, for ``dicke_jx`` and ``cell_omega``.
- ``kron_hamiltonian`` assembles the symmetric-basis H from Kronecker
  products of the collective operators, an independent route to the closed
  forms that ``build_hamiltonian`` writes.
- ``full_space_evolution`` propagates with one complex ``eigh`` of the whole
  space, without the parity-sector restriction.
- ``build_effective_hamiltonian`` is the selective two-level model of one
  target, compared with the exact dynamics at its resonance.
- ``scalar_second_order_root`` is the second-order resonance solve with
  every Omega computed one cell at a time (``cell_omega``), the route the
  package's cached Omega table replaced; the two must agree bit for bit.
- ``detuned_rabi_probability`` is the closed-form two-level lineshape that
  scan peaks are compared with.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from dickestark.effective import (
    ROOT_TOLERANCE,
    ResonanceBracketError,
    ResonanceTarget,
    _bare_second_order_omega_q,
    _illinois,
    _ratio_over,
    _second_order,
    delta_minus,
    delta_plus,
    target_coupling,
)
from dickestark.model import HilbertSpace, ModelParams, Operator


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


def scalar_tilde_frequency(target: ResonanceTarget, params: ModelParams) -> float:
    """The second-order target's tilde frequency, every Omega from
    ``cell_omega``."""
    coeffs = _second_order(
        target.n0,
        target.k0,
        lambda n, k: cell_omega(n, k, params),
        lambda n, k: delta_minus(n, k, params),
        lambda n, k: delta_plus(n, k, params),
        _ratio_over,
    )
    return coeffs.tilde_tc2 if target.kind == "tc" else coeffs.tilde_atc2


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
