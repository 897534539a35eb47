"""Core Dicke-Stark model: parameters, Hilbert-space indexing, Dicke
states, and exact Hamiltonian builders.

Conventions
-----------
Frequencies are quoted in units of the resonator frequency, so omega_r = 1
fixes the time unit 1/omega_r. The symmetric basis stores amplitudes k-major
with flat index ``k*(n_max+1) + n`` for k atomic excitations and n photons.
Every state the model prepares is permutation-symmetric, so this (N+1)(n_max+1)
space is the only one built here; the full 2^N product basis is the
validation suite's independent oracle (``validate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

# Dense matrices only: beyond this the desk-scale design assumptions break.
MAX_DIMENSION = 4096

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10


class BasisKind(Enum):
    """The one basis a space indexes: the Dicke ladder (N+1 levels) x Fock.
    Kept only as ``build_space``'s optional argument, which the benchmark's
    workloads still pass."""

    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the Dicke-Stark Hamiltonian.

    Attributes
    ----------
    n_qubits : int
        Number N of identical two-level systems.
    omega_r : float
        Resonator frequency (the unit frequency).
    omega_q : float
        Qubit transition frequency.
    coupling : float
        Qubit-resonator coupling strength lambda (>= 0; sign conventions are
        absorbed into the states).
    stark_u : float
        Strength U of the photon-number-dependent qubit shift
        (U/2N) a'a sum_j sigma_j^z.
    n_max : int
        Photon-number cutoff of the Fock space.
    """

    n_qubits: int
    omega_r: float = 1.0
    omega_q: float = 1.0
    coupling: float = 0.006
    stark_u: float = -0.5
    n_max: int = 8

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        # _retuned repeats only omega_q's finiteness check: a new check that
        # reads omega_q must go there too (test_model.py::TestRetuned).
        for name in ("omega_r", "omega_q", "coupling", "stark_u"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega_r <= 0:
            raise ValueError(f"omega_r must be positive, got {self.omega_r}")
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        # the symmetric-space dimension, checked before any solve or build
        dimension = (self.n_qubits + 1) * (self.n_max + 1)
        if dimension > MAX_DIMENSION:
            raise ValueError(
                f"dimension {dimension} exceeds the supported maximum {MAX_DIMENSION};"
                " reduce n_qubits or n_max"
            )


def _retuned(params: ModelParams, omega_q: float) -> ModelParams:
    """``params`` at qubit frequency ``omega_q``: what
    ``dataclasses.replace(params, omega_q=omega_q)`` returns, every other
    field copied as it stands, without re-running ``__post_init__``. Only
    omega_q's finiteness check can change its verdict, and it runs here with
    the same message; the rest read fields that ``params`` already passed.
    A subclass with its own ``__post_init__`` goes through ``replace``, so
    its checks run. A scan point and a protocol step each retune once."""
    if type(params).__post_init__ is not ModelParams.__post_init__:
        return replace(params, omega_q=omega_q)
    if not math.isfinite(omega_q):
        raise ValueError(f"omega_q must be finite, got {omega_q}")
    tuned = object.__new__(type(params))
    tuned.__dict__.update(params.__dict__, omega_q=omega_q)
    return tuned


def default_n_max(n_initial: int, n_qubits: int) -> int:
    """Default photon cutoff for a run whose largest initial photon number is
    ``n_initial``: n_initial + N + 2. A selective pulse moves at most two
    photons; the constant 2 is the smallest for which the sweep of
    ``tests/test_cutoff_sweep.py::test_default_cutoff_is_stable`` sees no
    guard trip and no observable moving by more than
    validate.CUTOFF_STABILITY_LIMIT (1e-8) when the cutoff is raised by two."""
    return n_initial + n_qubits + 2


@dataclass(frozen=True)
class HilbertSpace:
    """Indexing of the symmetric basis, with bijective (k, n) <-> flat maps.
    Its dimension, (N+1)(n_max+1), is derived from the two fields."""

    n_qubits: int
    n_max: int

    @cached_property
    def dimension(self) -> int:
        return (self.n_qubits + 1) * (self.n_max + 1)

    def index(self, k: int, n: int) -> int:
        """Flat index of |D_N^k> x |n>."""
        if not (0 <= k <= self.n_qubits):
            raise ValueError(f"k={k} outside 0..{self.n_qubits}")
        if not (0 <= n <= self.n_max):
            raise ValueError(f"n={n} outside 0..{self.n_max}")
        return k * (self.n_max + 1) + n

    def labels(self) -> list[tuple[int, int]]:
        """All (k, n) labels in flat-index order."""
        return [divmod(i, self.n_max + 1) for i in range(self.dimension)]

    def excitation_numbers(self) -> tuple[np.ndarray, np.ndarray]:
        """(k, n) of every flat index as two read-only float arrays: the
        diagonals of N_q and a'a. Computed once per space."""
        return self._excitation_numbers

    def parities(self) -> np.ndarray:
        """Excitation parity (k + n) mod 2 of every flat index, as a read-only
        array computed once per space. H conserves (-1)^(k+n): its
        coupling term (a + a') Jx flips both."""
        return self._parities

    @cached_property
    def _excitation_numbers(self) -> tuple[np.ndarray, np.ndarray]:
        k, n = np.divmod(np.arange(self.dimension), self.n_max + 1)
        return _read_only(k.astype(float)), _read_only(n.astype(float))

    @cached_property
    def _parities(self) -> np.ndarray:
        k, n = np.divmod(np.arange(self.dimension), self.n_max + 1)
        return _read_only((k + n) % 2)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _owned(m, dtype) -> np.ndarray:
    """``m`` as a read-only ``dtype`` array. A read-only array that owns its
    data is taken as is (the builder and the kernel hand over fresh arrays);
    any other array is copied, so the caller's array stays the caller's and
    no view of it can change the result."""
    owned = isinstance(m, np.ndarray) and m.base is None and not m.flags.writeable
    return _read_only(m if owned and m.dtype == dtype else np.array(m, dtype=dtype))


@dataclass(frozen=True)
class Operator:
    """Real dense matrix over a HilbertSpace, the model's real symmetric H,
    kept read-only as float64 for the real ``eigh``. A complex matrix is
    refused: a cast would drop its imaginary part."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.matrix):
            raise ValueError("operator matrix must be real; the model's H is real symmetric")
        m = _owned(self.matrix, float)
        if m.shape != (self.space.dimension, self.space.dimension):
            raise ValueError(
                f"matrix shape {m.shape} does not match dimension {self.space.dimension}"
            )
        object.__setattr__(self, "matrix", m)

    def require_hermitian(self) -> None:
        defect = float(np.abs(self.matrix - self.matrix.T).max())
        if not defect <= HERMITICITY_TOL:
            raise ValueError(f"operator is not Hermitian: max|M - M^T| = {defect:.3e}")


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over a HilbertSpace; immutable.
    The amplitudes are copied unless they are a read-only array that owns
    its data."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = _owned(self.amplitudes, complex)
        if a.shape != (self.space.dimension,):
            raise ValueError(
                f"amplitude shape {a.shape} does not match dimension {self.space.dimension}"
            )
        norm = float(np.linalg.norm(a))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", a)

    def population(self, k: int, n: int) -> float:
        return float(abs(self.amplitudes[self.space.index(k, n)]) ** 2)

    @cached_property
    def populations(self) -> np.ndarray:
        """|amplitude|^2 of every flat index, read-only, computed once per
        state."""
        return _read_only(np.abs(self.amplitudes) ** 2)


def build_space(params: ModelParams, kind: BasisKind = BasisKind.SYMMETRIC) -> HilbertSpace:
    """Construct the symmetric-basis Hilbert space for these parameters.
    ``kind`` admits only BasisKind.SYMMETRIC."""
    if kind is not BasisKind.SYMMETRIC:
        raise ValueError(f"unknown basis kind {kind!r}")
    return HilbertSpace(n_qubits=params.n_qubits, n_max=params.n_max)


def build_hamiltonian(params: ModelParams, space: HilbertSpace) -> Operator:
    """Exact Dicke-Stark Hamiltonian on the symmetric space, as a real
    symmetric matrix:

        H = (omega_q/2) Jz + omega_r a'a + (lambda/sqrt(N)) (a + a') Jx
            + (U/2N) a'a Jz

    It is written from its closed form, which is affine in omega_q: H = H(0) +
    omega_q Jz/2. The diagonal entry of H(0) at (k, n) is (nU/N)(k - N/2) +
    n omega_r; its coupling element between (k, n) and (k+1, n+1), and between
    (k, n+1) and (k+1, n), is Omega(n, k) of ``_omega_table``, as in the
    effective layer. H(0) and the diagonal k - N/2 of Jz/2 are cached per
    (N, n_max, lambda, U, omega_r) (``_affine_parts``), so each H, a scan
    point's or a protocol step's, is one copy of H(0) plus omega_q Jz/2 added
    through a strided view of its diagonal. The validation suite checks it
    against the operator sums above assembled with Kronecker products on the
    full product basis, an independent route.

    The matrix is not checked for Hermiticity here: the kernel checks the H
    it is given, once (``dynamics._Sector``), and a scan only its first H.
    ``space`` must be the one of (N, n_max): another space of the same
    dimension would index a different basis.
    """
    if (space.n_qubits, space.n_max) != (params.n_qubits, params.n_max):
        raise ValueError(
            f"space (N = {space.n_qubits}, n_max = {space.n_max}) does not match the model's"
            f" (N = {params.n_qubits}, n_max = {params.n_max})"
        )
    n = params.n_qubits
    h0, jz_half = _affine_parts(n, params.n_max, params.coupling, params.stark_u, params.omega_r)
    h = h0.copy()
    h.ravel()[:: h.shape[0] + 1] += params.omega_q * jz_half  # a view: h is contiguous
    return Operator(space, _read_only(h))


# Models held by _affine_parts and _omega_table: a scan needs one, and a
# process that runs the Dicke ladders of N = 2..6 and ghz_4 in turn needs six.
# The bound keeps memory flat: at most 8 H(0) of dim^2 float64 each, 1.1 GB
# at MAX_DIMENSION, 32 KB at dimension 63.
MODEL_CACHE_SIZE = 8


@lru_cache(maxsize=MODEL_CACHE_SIZE)
def _affine_parts(
    n: int, n_max: int, coupling: float, stark_u: float, omega_r: float
) -> tuple[np.ndarray, np.ndarray]:
    """(H(0), diagonal of Jz/2) of the symmetric-basis H, both read-only."""
    levels = n_max + 1
    k, nph = np.divmod(np.arange((n + 1) * levels), levels)
    jz_half = k - n / 2
    h0 = np.diag(nph * stark_u / n * jz_half + nph * omega_r)
    # (k, n) -> (k+1, n+1) and (k, n+1) -> (k+1, n) for k < N, n < n_max
    lower = np.flatnonzero((k < n) & (nph < n_max))
    g = _omega_table(n, n_max, coupling)[nph[lower] + 1, k[lower] + 1]
    for i, j in ((lower, lower + levels + 1), (lower + 1, lower + levels)):
        h0[i, j] = h0[j, i] = g
    return _read_only(h0), _read_only(jz_half)


@lru_cache(maxsize=MODEL_CACHE_SIZE)
def _omega_table(n_qubits: int, n_max: int, coupling: float) -> np.ndarray:
    """The one source of the first-order coupling, read by H(0) and the
    effective layer: Omega(n, k) = lambda f(k) sqrt(n+1) / sqrt(N), with
    f(k) = sqrt((k+1)(N-k)), read-only at [n + 1, k + 1] for n = -1..n_max+2
    and k = -1..N+2, every index the effective formulas reach from a cell of
    the space; zero off n >= 0 and 0 <= k < N."""
    k = np.arange(-1, n_qubits + 3)
    f = np.sqrt(np.maximum((k + 1) * (n_qubits - k), 0))
    return _read_only(coupling * f * np.sqrt(np.arange(n_max + 4.0))[:, None] / math.sqrt(n_qubits))


def dicke_state(space: HilbertSpace, k: int, n: int) -> StateVector:
    """The state |D_N^k> x |n>, a unit basis vector."""
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index(k, n)] = 1.0
    return StateVector(space, _read_only(amps))

