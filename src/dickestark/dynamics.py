"""Exact time evolution under time-independent Hamiltonians, observable
extraction, frame transforms, fidelities, and the photon-cutoff guard.

Propagation is spectral: U(t) = V exp(-i w t) V' from the Hermitian
eigendecomposition, exact up to linear-algebra error, so no integrator
tolerances enter the production paths. ``propagate`` and ``evolve`` share one
kernel that diagonalizes each H once, and only where the state lives: H
conserves the excitation parity (-1)^(k+n) (``HilbertSpace.parities``), so
the kernel keeps the parity sector(s) the initial amplitudes occupy and runs
one ``eigh`` on that block, a real one for the real symmetric model H. If H
couples the kept sectors to the rest, the block is the whole space.
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

CUTOFF_POPULATION = 1e-6


class CutoffExceededError(RuntimeError):
    """More than CUTOFF_POPULATION reached the top photon level, so the Fock
    cutoff truncates the dynamics. ``where`` names the protocol step or scan
    point for the message; ``step_index`` is the step's number, else None."""

    def __init__(self, where: str, population: float, step_index: int | None = None):
        self.population, self.step_index = population, step_index
        super().__init__(
            f"{where}: population {population:.2e} in the top photon level"
            f" exceeds {CUTOFF_POPULATION}; raise n_max"
        )


def require_below_cutoff(
    populations: np.ndarray, space: HilbertSpace, where: str, step_index: int | None = None
) -> None:
    """Raise CutoffExceededError if any row of ``populations`` (one state, or
    one per sample, in the symmetric basis) holds more than CUTOFF_POPULATION
    in the top photon level n = n_max; a NaN population raises too."""
    top_level = slice(space.index(0, space.n_max), None, space.n_max + 1)  # (k, n_max), every k
    top = float(np.max(np.sum(populations[..., top_level], axis=-1)))
    if not top <= CUTOFF_POPULATION:
        raise CutoffExceededError(where, top, step_index)


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
    """exp(-i H t) acting on one vector, from one eigendecomposition of H
    restricted to the parity sector(s) that the vector occupies."""

    def __init__(self, h: Operator, amplitudes: np.ndarray):
        h.require_hermitian(HERMITICITY_TOL)
        parity = h.space.parities()
        occupied = np.zeros(2, dtype=bool)
        occupied[parity[amplitudes != 0]] = True
        keep = occupied[parity]
        if np.any(h.matrix[keep][:, ~keep]):  # the kept sectors are not invariant under H
            keep[:] = True
        self.keep = keep
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(h.matrix[keep][:, keep])
        self.coeffs = self.eigenvectors.conj().T @ amplitudes[keep]

    def apply(self, t) -> np.ndarray:
        """exp(-i H t) applied to the vector; t may be an array of times, in
        which case one row per time is returned."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        phases = np.exp(-1j * np.outer(t_arr, self.eigenvalues))
        out = np.zeros((t_arr.size, self.keep.size), dtype=complex)
        out[:, self.keep] = (phases * self.coeffs) @ self.eigenvectors.T
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
    amps = _Spectral(h, psi0.amplitudes).apply(float(t))
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
    times = np.linspace(0.0, duration, samples)
    states = _Spectral(h, psi0.amplitudes).apply(times)
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
