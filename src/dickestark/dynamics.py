"""Exact time evolution under time-independent Hamiltonians, observable
extraction, frame transforms, and fidelities.

Propagation is spectral: U(t) = V exp(-i w t) V' from the Hermitian
eigendecomposition, exact up to linear-algebra error, so no integrator
tolerances enter the production paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    BasisKind,
    HilbertSpace,
    Operator,
    StateVector,
    HERMITICITY_TOL,
    NORM_TOL,
)

DEFAULT_SAMPLES = 400


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled evolution record over a symmetric-basis space.

    ``states`` holds one row per sample; ``populations[i, j]`` is the
    probability of the basis cell with flat index j (label (k, n)) at
    sample i. ``nq`` and ``nph`` are the mean atomic and photonic
    excitation numbers.
    """

    space: HilbertSpace
    times: np.ndarray
    states: np.ndarray
    populations: np.ndarray
    nq: np.ndarray
    nph: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        norms = np.linalg.norm(self.states, axis=1)
        drift = float(np.max(np.abs(norms - 1.0)))
        if not drift <= NORM_TOL:
            raise ValueError(f"trajectory norm drift {drift:.3e} exceeds {NORM_TOL}")
        for arr in (self.times, self.states, self.populations, self.nq, self.nph):
            arr.flags.writeable = False

    @property
    def final(self) -> StateVector:
        return StateVector(self.space, self.states[-1])

    def state_at(self, i: int) -> StateVector:
        return StateVector(self.space, self.states[i])


class _Spectral:
    """Cached eigendecomposition of a Hermitian operator."""

    def __init__(self, h: Operator):
        h.require_hermitian(HERMITICITY_TOL)
        self.space = h.space
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(h.matrix)

    def apply(self, amplitudes: np.ndarray, t) -> np.ndarray:
        """exp(-i H t) applied to one vector; t may be an array of times, in
        which case one row per time is returned."""
        coeffs = self.eigenvectors.conj().T @ amplitudes
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        phases = np.exp(-1j * np.outer(t_arr, self.eigenvalues))
        out = (phases * coeffs) @ self.eigenvectors.T
        return out if np.ndim(t) else out[0]


def propagator(h: Operator, t: float) -> Operator:
    """Unitary U(t) = exp(-i H t) via Hermitian eigendecomposition."""
    h.require_hermitian(HERMITICITY_TOL)
    w, v = np.linalg.eigh(h.matrix)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return Operator(h.space, u)


def propagate(h: Operator, psi0: StateVector, t: float) -> StateVector:
    """exp(-i H t) |psi0> without building the full propagator matrix."""
    if psi0.space != h.space:
        raise ValueError("state and Hamiltonian live in different spaces")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    spec = _Spectral(h)
    amps = spec.apply(psi0.amplitudes, float(t))
    amps = amps / np.linalg.norm(amps)
    return StateVector(h.space, amps)


def observables(psi: StateVector) -> tuple[float, float]:
    """(mean atomic excitation, mean photon number) of a symmetric-basis state."""
    if psi.space.kind is not BasisKind.SYMMETRIC:
        raise ValueError("observables are defined on the symmetric basis")
    pops = np.abs(psi.amplitudes) ** 2
    ks, ns = psi.space.excitation_numbers()
    return float(ks @ pops), float(ns @ pops)


def evolve(
    psi0: StateVector, h: Operator, duration: float, samples: int = DEFAULT_SAMPLES
) -> Trajectory:
    """Evolve |psi0> under H for ``duration``, sampled uniformly on
    [0, duration]; the final stored state equals propagator(H, duration) psi0."""
    if psi0.space != h.space:
        raise ValueError("state and Hamiltonian live in different spaces")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not (np.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    spec = _Spectral(h)
    times = np.linspace(0.0, duration, samples)
    states = spec.apply(psi0.amplitudes, times)
    norms = np.linalg.norm(states, axis=1)
    states = states / norms[:, None]
    pops = np.abs(states) ** 2
    ks, ns = h.space.excitation_numbers()
    return Trajectory(
        space=h.space,
        times=times,
        states=states,
        populations=pops,
        nq=pops @ ks,
        nph=pops @ ns,
    )


def fidelity(psi: StateVector, target: StateVector) -> float:
    """|<target|psi>|^2."""
    if psi.space != target.space:
        raise ValueError("states live in different spaces")
    return float(abs(np.vdot(target.amplitudes, psi.amplitudes)) ** 2)


def energy_expectation(psi: StateVector, h: Operator) -> float:
    if psi.space != h.space:
        raise ValueError("state and Hamiltonian live in different spaces")
    return float(np.real(np.vdot(psi.amplitudes, h.matrix @ psi.amplitudes)))


def to_rotating_frame(psi: StateVector, h0: Operator, t: float) -> StateVector:
    """Apply R'(t) = exp(+i H0 t) for diagonal H0: the interaction-picture
    image of a lab-frame state. Populations are untouched; only phases
    rotate."""
    if psi.space != h0.space:
        raise ValueError("state and frame generator live in different spaces")
    m = h0.matrix
    diag = np.diag(m)
    if np.max(np.abs(m - np.diag(diag))) > 1e-12:
        raise ValueError("frame generator must be diagonal in the working basis")
    amps = psi.amplitudes * np.exp(1j * diag.real * t)
    return StateVector(psi.space, amps)


def diagonal_part(h: Operator) -> Operator:
    """The diagonal (free) part of a Hamiltonian, usable as a frame generator."""
    return Operator(h.space, np.diag(np.diag(h.matrix)))
