"""Exact time evolution under time-independent Hamiltonians, observable
extraction, frame transforms, fidelities, and the photon-cutoff guard.

Propagation is spectral: U(t) = V exp(-i w t) V^T from the eigendecomposition
of the real symmetric H (an ``Operator`` is real), exact up to linear-algebra
error, so no integrator tolerances enter the production paths. Every state
lives in the symmetric (Dicke ladder x Fock) space. Each H is diagonalized
once, and only where the state lives: H conserves the excitation parity
(-1)^(k+n) (``HilbertSpace.parities``), so the kernel keeps the parity
sector(s) the initial amplitudes occupy and runs one real ``eigh`` on that
block. If H couples the kept sectors to the rest, the block is the whole space.

``_Sector`` holds those sectors. It checks the symmetry of H (the builder
does not) and that H leaves the kept block invariant. Both read only the
off-diagonal of H, which all the H of a frequency scan, and all the steps of
a protocol, share, so a scan and a protocol run them once; ``propagate``
runs them once per H, and ``evolve`` unless it is given them.
``_Sector.eigh`` diagonalizes an H's kept block on the cached index sets:
it is the package's one ``eigh`` outside the validation suite's
product-basis oracle, called per H by ``_Spectral`` (``propagate``,
``evolve``, ``validate``) and per grid point by the frequency scan, which
evaluates its points' eigenpairs in chunks (``scan.resonance_scan``). The
real eigenvectors multiply the complex amplitudes in real arithmetic.

``evolve`` walks its uniform time grid in blocks of about EVOLVE_BLOCK
samples. The phases exp(-i w t_s) are block products of about
2 sqrt(samples) complex exponentials per eigenvalue (``_phase_grid``), exact
to the rounding of w t itself; each block's sector amplitudes live only
until its populations (re^2 + im^2) and excitation numbers are written into
the trajectory's preallocated full-space arrays. ``Trajectory`` keeps those
arrays and the final state, the last sample's amplitudes, but no other
sample's. Nothing is renormalized: ``Trajectory`` checks the norm of every
sample, so its drift check measures the kernel's unitarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    HilbertSpace,
    Operator,
    StateVector,
    NORM_TOL,
    _read_only,
)

DEFAULT_SAMPLES = 400
# A trajectory keeps every sample's full-space populations (samples x dimension
# floats), so its memory grows linearly in samples: 5x the largest sampling in
# use (2000).
MAX_SAMPLES = 10_001
# Samples per block of ``evolve``'s time grid, in whole rows of the block
# product: a block's phases and amplitudes stay small enough to be reused
# from the allocator's free memory instead of being mapped afresh.
EVOLVE_BLOCK = 256

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


def require_below_cutoff(populations: np.ndarray, space: HilbertSpace, where: str) -> None:
    """Raise CutoffExceededError if any row of the full-space ``populations``
    (one row per sample, or one state's populations) holds more than
    CUTOFF_POPULATION in the top photon level; a NaN population raises too."""
    top = float(np.max(populations[..., space.excitation_numbers()[1] == space.n_max].sum(axis=-1)))
    if not top <= CUTOFF_POPULATION:
        raise CutoffExceededError(where, top)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled evolution record over a HilbertSpace.

    ``populations[i, j]`` is the probability of flat index j at sample i;
    ``nq`` and ``nph`` are the mean atomic and photonic excitation numbers
    per sample, and ``final`` the state at the last sample. Construction
    checks that every sample's norm is 1 to within NORM_TOL.
    """

    space: HilbertSpace
    times: np.ndarray
    populations: np.ndarray
    nq: np.ndarray
    nph: np.ndarray
    final: StateVector

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        # row sums, as one matrix-vector product: faster than sum(axis=1) on short rows
        norms = np.sqrt(self.populations @ np.ones(self.space.dimension))
        drift = float(np.max(np.abs(norms - 1.0)))
        if not drift <= NORM_TOL:
            raise ValueError(f"trajectory norm drift {drift:.3e} exceeds {NORM_TOL}")
        for arr in (self.times, self.populations, self.nq, self.nph):
            arr.flags.writeable = False


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

    def eigh(self, h: Operator) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of H's kept block, the package's one
        ``eigh``, for an H whose off-diagonal this sector was checked on."""
        return np.linalg.eigh(h.matrix.take(self.block).reshape(self.kept.size, self.kept.size))


class _Spectral:
    """exp(-i H t) acting on one vector, from one eigendecomposition of H
    restricted to the sector of ``_Sector`` (``_Sector.eigh``): the kernel's
    per-H part. ``sector`` is checked on this H unless given."""

    def __init__(self, h: Operator, amplitudes: np.ndarray, sector: _Sector | None = None):
        sector = sector or _Sector(h, amplitudes)
        self.kept, self.dimension = sector.kept, h.space.dimension
        self.eigenvalues, self.eigenvectors = sector.eigh(h)
        self.coeffs = _times(self.eigenvectors.T, amplitudes[self.kept])

    def apply(self, t: float) -> np.ndarray:
        """exp(-i H t) applied to the vector, over the whole space."""
        phases = np.exp(-1j * (self.eigenvalues * t)) * self.coeffs
        return self.whole(_times(self.eigenvectors, phases))

    def whole(self, sector: np.ndarray) -> np.ndarray:
        """The kept amplitudes ``sector`` over the whole space, zero elsewhere."""
        if self.kept.size == self.dimension:
            return sector
        out = np.zeros(self.dimension, dtype=complex)
        out[self.kept] = sector
        return out

    def on_grid(self, duration: float, samples: int) -> np.ndarray:
        """The kept amplitudes of exp(-i H t) applied to the vector at the
        times of np.linspace(0, duration, samples), one column per time, from
        the blocks of ``_phase_grid``; the last column is ``apply(duration)``
        restricted to the kept indices, up to the rounding of the matrix
        product."""
        out = np.empty((self.kept.size, samples), dtype=complex)
        for start, phases in _phase_grid(self.eigenvalues, self.coeffs, duration, samples):
            out[:, start : start + phases.shape[1]] = _times(self.eigenvectors, phases)
        return out


def _phase_grid(w: np.ndarray, coeffs: np.ndarray, duration: float, samples: int):
    """Yield (start, phases) blocks of coeffs * exp(-i w t_s) for
    t_s = s * duration / (samples - 1), the times of
    np.linspace(0, duration, samples): ``phases`` has one row per eigenvalue
    and one column per time from t_start on, and the blocks cover the grid in
    order.

    With b = ceil(sqrt(samples)) and s = a b + r, each entry is the product
    of a row factor exp(-i w (a b) step) and a column factor exp(-i w r step),
    so about 2 sqrt(samples) complex exponentials per eigenvalue replace
    ``samples`` of them. A block holds EVOLVE_BLOCK // b whole rows a (at
    least one), the last block what is left. Rounding (a b) step + r step
    differs from rounding s step by a few ulps of w t, so each phase agrees
    with the direct exp(-i w t_s) to within a small multiple of
    2^-52 max(1, max|w t|). The last column is computed directly, exactly as
    ``_Spectral.apply`` does at t = duration.
    """
    step = duration / (samples - 1)
    b = math.isqrt(samples - 1) + 1  # ceil(sqrt(samples))
    rows = np.exp(-1j * np.multiply.outer(w, np.arange(0, samples, b) * step)) * coeffs[:, None]
    cols = np.exp(-1j * np.multiply.outer(w, np.arange(b) * step))
    per_block = max(1, EVOLVE_BLOCK // b)
    for first in range(0, rows.shape[1], per_block):
        start = first * b
        block = rows[:, first : first + per_block, None] * cols[:, None, :]
        block = block.reshape(w.size, -1)[:, : samples - start]
        if start + block.shape[1] == samples:
            block[:, -1] = np.exp(-1j * (w * duration)) * coeffs
        yield start, block


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
    psi0: StateVector,
    h: Operator,
    duration: float,
    samples: int = DEFAULT_SAMPLES,
    sector: _Sector | None = None,
) -> Trajectory:
    """Evolve |psi0> under H for ``duration``, sampled uniformly on
    [0, duration] (np.linspace). ``sector`` is checked on this H unless
    given, as for ``_Spectral``.

    Only the occupied parity sector is evaluated, about EVOLVE_BLOCK samples
    at a time: a block's phases come from ``_phase_grid``, its populations
    are re^2 + im^2 of its amplitudes and nq and nph are read from those,
    all written straight into the trajectory's arrays. The amplitudes are
    dropped with their block, except the last sample's: the final state,
    whose phases are those of ``propagate(H, psi0, duration)`` and which
    differs from it only by the rounding of the matrix product. No sample is
    renormalized; ``Trajectory`` checks every norm."""
    if psi0.space != h.space:
        raise ValueError("state and Hamiltonian live in different spaces")
    if not 2 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in 2..{MAX_SAMPLES}, got {samples}")
    if not (np.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    spectral = _Spectral(h, psi0.amplitudes, sector)
    kept = spectral.kept
    ks, ns = (numbers[kept] for numbers in h.space.excitation_numbers())
    populations = np.zeros((samples, h.space.dimension))
    nq, nph = np.empty(samples), np.empty(samples)
    for start, phases in _phase_grid(spectral.eigenvalues, spectral.coeffs, duration, samples):
        amplitudes = _times(spectral.eigenvectors, phases)
        last = amplitudes[:, -1].copy()  # the last block's is the final state
        parts = amplitudes.view(np.float64)  # (re, im) per amplitude
        np.square(parts, out=parts)
        block = parts[:, 0::2] + parts[:, 1::2]  # (kept, block samples)
        stop = start + block.shape[1]
        populations[start:stop, kept] = block.T
        np.matmul(ks, block, out=nq[start:stop])
        np.matmul(ns, block, out=nph[start:stop])
    return Trajectory(
        space=h.space,
        times=np.linspace(0.0, duration, samples),
        populations=populations,
        nq=nq,
        nph=nph,
        final=StateVector(h.space, _read_only(spectral.whole(last))),
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
