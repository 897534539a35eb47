"""Exact time evolution under time-independent Hamiltonians, observable
extraction, frame transforms, fidelities, and the photon-cutoff guard.

Propagation is spectral: U(t) = V exp(-i w t) V^T from the eigendecomposition
of the real symmetric H (an ``Operator`` is real), exact up to linear-algebra
error, so no integrator tolerances enter the production paths. Every state
lives in the symmetric (Dicke ladder x Fock) space. ``propagate``,
``evolve`` and the frequency scan share one kernel, the only ``eigh``
outside the validation suite's product-basis oracle, which diagonalizes each
H once, and only where the state lives: H conserves the excitation parity
(-1)^(k+n) (``HilbertSpace.parities``), so the kernel keeps the parity
sector(s) the initial amplitudes occupy and runs one real ``eigh`` on that
block. If H couples the kept sectors to the rest, the block is the whole space.

Its per-scan part, ``_Sector``, checks the symmetry of H (the builder does
not) and that H leaves the kept block invariant. Both read only the
off-diagonal of H, which all the H of a frequency scan share, so a scan runs
them once; ``propagate`` and ``evolve`` once per H. Its per-H part,
``_Spectral``, runs the ``eigh`` on the cached sector index sets; the real
eigenvectors multiply the complex amplitudes in real arithmetic.

``evolve`` evaluates its uniform time grid in the kept sector only. The
phases exp(-i w t_s) are block products of about 2 sqrt(samples) complex
exponentials per eigenvalue (``_phase_grid``), exact to the rounding of w t
itself; the populations are re^2 + im^2 of the sector amplitudes, and the
excitation numbers are read from them. ``Trajectory`` stores the sector: its
full-space ``populations`` are scattered on first access, and ``final``
scatters the last sample only. Nothing is renormalized:
``Trajectory`` checks the norm of every sample, so its drift check measures
the kernel's unitarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import (
    HilbertSpace,
    Operator,
    StateVector,
    NORM_TOL,
    _read_only,
)

DEFAULT_SAMPLES = 400
# A trajectory keeps every sample's sector amplitudes and populations, so its
# memory grows linearly in samples: 5x the largest sampling in use (2000).
MAX_SAMPLES = 10_001

CUTOFF_POPULATION = 1e-6


class CutoffExceededError(RuntimeError):
    """More than CUTOFF_POPULATION reached the top photon level, so the Fock
    cutoff truncates the dynamics. ``where`` names the step or scan point."""

    def __init__(self, where: str, population: float):
        self.population = population
        super().__init__(
            f"{where}: population {population:.2e} in the top photon level"
            f" exceeds {CUTOFF_POPULATION}; raise n_max"
        )


def _top_populations(populations: np.ndarray, space: HilbertSpace, kept: np.ndarray) -> np.ndarray:
    """The population in the top photon level n = n_max of each column of
    ``populations``, whose rows are the flat indices ``kept``."""
    return populations[kept % (space.n_max + 1) == space.n_max].sum(axis=0)


def require_below_cutoff(populations: np.ndarray, space: HilbertSpace, where: str, kept: np.ndarray) -> None:
    """Raise CutoffExceededError if any column of ``populations`` (one column
    per sample, one row per flat index of ``kept``) holds more than
    CUTOFF_POPULATION in the top photon level; a NaN population raises too."""
    top = float(_top_populations(populations, space, kept).max())
    if not top <= CUTOFF_POPULATION:
        raise CutoffExceededError(where, top)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled evolution record over a HilbertSpace, stored in the
    sector the state occupies.

    ``kept`` holds the sector's flat indices; ``sector_states[r, i]`` is the
    amplitude of flat index kept[r] at sample i, and ``sector_populations``
    its probability. Every other amplitude is zero. ``nq`` and ``nph`` are
    the mean atomic and photonic excitation numbers. Construction checks
    that every sample's norm is 1 to within NORM_TOL.
    """

    space: HilbertSpace
    times: np.ndarray
    kept: np.ndarray
    sector_states: np.ndarray
    sector_populations: np.ndarray
    nq: np.ndarray
    nph: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        drift = float(np.max(np.abs(np.sqrt(self.sector_populations.sum(axis=0)) - 1.0)))
        if not drift <= NORM_TOL:
            raise ValueError(f"trajectory norm drift {drift:.3e} exceeds {NORM_TOL}")
        sector = (self.kept, self.sector_states, self.sector_populations)
        for arr in (self.times, *sector, self.nq, self.nph):
            arr.flags.writeable = False

    def scatter(self, sector: np.ndarray) -> np.ndarray:
        """Sector values (one row per kept index, one column per sample, or
        a single column) as a fresh read-only full-space array: one row per
        sample, zeros outside the sector."""
        out = np.zeros(sector.shape[1:] + (self.space.dimension,), dtype=sector.dtype)
        out[..., self.kept] = sector.T
        return _read_only(out)

    @cached_property
    def populations(self) -> np.ndarray:
        """[i, j]: the probability of flat index j at sample i, scattered on first access."""
        return self.scatter(self.sector_populations)

    @property
    def final(self) -> StateVector:
        return StateVector(self.space, self.scatter(self.sector_states[:, -1]))


class _Sector:
    """The parity sector(s) that a vector occupies under H, read through the
    cached index sets of ``_sector``, after H's symmetry check and the check
    that H leaves them invariant: valid for every H with H's off-diagonal."""

    def __init__(self, h: Operator, amplitudes: np.ndarray):
        h.require_hermitian()
        occupied = np.zeros(2, dtype=bool)
        occupied[h.space.parities()[amplitudes != 0]] = True
        self.kept, self.block, coupling = _sector(h.space, *occupied.tolist())
        if coupling is not None and h.matrix.take(coupling).any():
            self.kept, self.block, _ = _sector(h.space, True, True)  # the kept sectors are not invariant under H


class _Spectral:
    """exp(-i H t) acting on one vector, from one eigendecomposition of H
    restricted to the sector of ``_Sector``: the kernel's per-H part and the
    package's one ``eigh``. ``sector`` is checked on this H unless given."""

    def __init__(self, h: Operator, amplitudes: np.ndarray, sector: _Sector | None = None):
        sector = sector or _Sector(h, amplitudes)
        self.kept, self.dimension = sector.kept, h.space.dimension
        sector_h = h.matrix.take(sector.block).reshape(self.kept.size, self.kept.size)
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(sector_h)
        self.coeffs = _times(self.eigenvectors.T, amplitudes[self.kept])

    def apply(self, t: float) -> np.ndarray:
        """exp(-i H t) applied to the vector, over the whole space."""
        sector = _times(self.eigenvectors, np.exp(-1j * (self.eigenvalues * t)) * self.coeffs)
        if self.kept.size == self.dimension:
            return sector
        out = np.zeros(self.dimension, dtype=complex)
        out[self.kept] = sector
        return out

    def on_grid(self, duration: float, samples: int) -> np.ndarray:
        """The kept amplitudes of exp(-i H t) applied to the vector at the
        times of np.linspace(0, duration, samples), one column per time; the
        last column is ``apply(duration)`` restricted to the kept indices, up
        to the rounding of the matrix product."""
        phases = _phase_grid(self.eigenvalues, self.coeffs, duration, samples)
        return _times(self.eigenvectors, phases)


def _phase_grid(w: np.ndarray, coeffs: np.ndarray, duration: float, samples: int) -> np.ndarray:
    """coeffs * exp(-i w t_s) for t_s = s * duration / (samples - 1), the
    times of np.linspace(0, duration, samples): one row per eigenvalue, one
    column per time.

    With b = ceil(sqrt(samples)) and s = a b + r, each entry is the product
    of a row factor exp(-i w (a b) step) and a column factor exp(-i w r step),
    so about 2 sqrt(samples) complex exponentials per eigenvalue replace
    ``samples`` of them. Rounding (a b) step + r step differs from rounding
    s step by a few ulps of w t, so each phase agrees with the direct
    exp(-i w t_s) to within a small multiple of 2^-52 max(1, max|w t|). The
    last column is computed directly, exactly as ``_Spectral.apply`` does at
    t = duration.
    """
    step = duration / (samples - 1)
    b = math.isqrt(samples - 1) + 1  # ceil(sqrt(samples))
    rows = np.exp(-1j * np.multiply.outer(w, np.arange(0, samples, b) * step)) * coeffs[:, None]
    cols = np.exp(-1j * np.multiply.outer(w, np.arange(b) * step))
    grid = (rows[:, :, None] * cols[:, None, :]).reshape(w.size, -1)
    grid[:, samples - 1] = np.exp(-1j * (w * duration)) * coeffs
    return grid[:, :samples]


@lru_cache(maxsize=8)
def _sector(space: HilbertSpace, even: bool, odd: bool):
    """Read-only index sets of the given occupied parities of ``space``,
    computed once per (space, parities): the kept flat indices, the flat
    (C-order) matrix positions of the kept block, and those from kept rows to
    dropped columns (None when nothing is dropped)."""
    keep = np.array([even, odd])[space.parities()]
    kept, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
    rows = kept[:, None] * space.dimension
    block = (rows + kept).ravel()
    coupling = (rows + dropped).ravel() if dropped.size else None
    for a in (kept, block, coupling):
        if a is not None:
            a.flags.writeable = False
    return kept, block, coupling


def _times(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for a real matrix m and a complex vector or matrix z, in real
    arithmetic: z's real and imaginary parts are multiplied as interleaved
    real columns."""
    product = m @ z.view(np.float64).reshape(z.shape[0], -1)
    return product.view(np.complex128).reshape(m.shape[:1] + z.shape[1:])


def propagate(h: Operator, psi0: StateVector, t: float) -> StateVector:
    """exp(-i H t) |psi0>, without building the matrix exp(-i H t)."""
    if psi0.space != h.space:
        raise ValueError("state and Hamiltonian live in different spaces")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return StateVector(h.space, _read_only(_Spectral(h, psi0.amplitudes).apply(float(t))))


def observables(psi: StateVector) -> tuple[float, float]:
    """(mean atomic excitation, mean photon number) of a state."""
    ks, ns = psi.space.excitation_numbers()
    return float(ks @ psi.populations), float(ns @ psi.populations)


def evolve(
    psi0: StateVector, h: Operator, duration: float, samples: int = DEFAULT_SAMPLES
) -> Trajectory:
    """Evolve |psi0> under H for ``duration``, sampled uniformly on
    [0, duration] (np.linspace). The final stored state is
    propagate(H, psi0, duration) up to the rounding of one matrix product.

    Only the occupied parity sector is evaluated per sample: its phases come
    from block products (``_phase_grid``), its populations are re^2 + im^2 of
    its amplitudes, and nq and nph are read from those. The trajectory keeps
    the sector; its full-space populations are scattered only when read.
    No sample is renormalized; ``Trajectory`` checks every norm."""
    if psi0.space != h.space:
        raise ValueError("state and Hamiltonian live in different spaces")
    if not 2 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in 2..{MAX_SAMPLES}, got {samples}")
    if not (np.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    spectral = _Spectral(h, psi0.amplitudes)
    kept = spectral.kept
    sector = spectral.on_grid(duration, samples)  # (kept, samples)
    parts = sector.view(np.float64)
    sector_pops = parts[:, 0::2] ** 2 + parts[:, 1::2] ** 2
    ks, ns = h.space.excitation_numbers()
    return Trajectory(
        space=h.space,
        times=np.linspace(0.0, duration, samples),
        kept=kept,
        sector_states=sector,
        sector_populations=sector_pops,
        nq=ks[kept] @ sector_pops,
        nph=ns[kept] @ sector_pops,
    )


def fidelity(psi: StateVector, target: StateVector) -> float:
    """|<target|psi>|^2."""
    if psi.space != target.space:
        raise ValueError("states live in different spaces")
    return float(abs(np.vdot(target.amplitudes, psi.amplitudes)) ** 2)


def to_rotating_frame(psi: StateVector, h: Operator, t: float) -> StateVector:
    """Apply R'(t) = exp(+i H0 t), where H0 is the diagonal (free) part of H:
    the interaction-picture image of a lab-frame state. Populations are
    untouched; only phases rotate."""
    if psi.space != h.space:
        raise ValueError("state and Hamiltonian live in different spaces")
    diag = np.diagonal(h.matrix)
    amps = psi.amplitudes * np.exp(1j * diag * t)
    return StateVector(psi.space, _read_only(amps))
