"""Test-only oracles: independent constructions of what the package computes
by faster routes.

- ``kron_hamiltonian`` assembles the symmetric-basis H from Kronecker
  products of the collective operators, an independent route to the closed
  forms that ``build_hamiltonian`` writes.
- ``full_space_evolution`` propagates with one complex ``eigh`` of the whole
  space, without the parity-sector restriction.
- ``build_effective_hamiltonian`` is the selective two-level model of one
  target, compared with the exact dynamics at its resonance.
"""

from __future__ import annotations

import math

import numpy as np

from dickestark.effective import ResonanceTarget, target_coupling
from dickestark.model import (
    HilbertSpace,
    ModelParams,
    Operator,
    ladder_coupling,
)


def dicke_jx(n_qubits: int) -> np.ndarray:
    jx = np.zeros((n_qubits + 1, n_qubits + 1))
    for k in range(n_qubits):
        f = ladder_coupling(k, n_qubits)
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


def build_effective_hamiltonian(
    target: ResonanceTarget, params: ModelParams, space: HilbertSpace
) -> Operator:
    """The selective two-level Hamiltonian: nonzero only on the target pair,
    with the (signed) coupling amplitude on the two symmetric off-diagonal
    positions. Meaningful when params are tuned to the target's resonance."""
    target.validate(params)
    i, j = (space.index(*cell) for cell in target.pair())
    omega = target_coupling(target, params)
    h = np.zeros((space.dimension, space.dimension), dtype=complex)
    h[i, j] = omega
    h[j, i] = omega
    return Operator(space, h)
