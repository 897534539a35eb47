"""Effective-theory layer: first- and second-order couplings, detunings,
Stark shifts, resonance conditions, pulse durations, and selectivity
(rotating-wave validity) diagnostics.

All closed forms below refer to the interaction picture of the Dicke-Stark
Hamiltonian with respect to its diagonal part. A coupling term that raises
the atomic excitation k -> k+1 while lowering the photon number n+1 -> n
oscillates at

    delta_minus(n, k) = omega_q - omega_r + U (n - k + N/2) / N

and the pair-creating term (k -> k+1, n -> n+1) oscillates at

    delta_plus(n, k) = omega_r + omega_q + U (n + k + 1 - N/2) / N,

both with amplitude Omega(n, k) = lambda f(k) sqrt(n+1) / sqrt(N).
Zeroing one of these frequencies for a single (n0, k0) while every other
channel stays fast yields a selective two-level interaction.

Second order is one sum over first-order steps, the time-averaged effective
Hamiltonian of D. F. V. James and J. Jerke, Can. J. Phys. 85, 625 (2007). A
step (dk, dn) in {-1, 1}^2 from a cell (k, n) is driven by the channel at
(n + min(dn, 0), k + min(dk, 0)), with G = Omega there, at omega = E(to) -
E(from): dk delta_plus there when dk = dn, else dk delta_minus. The Stark
shift of a cell is -sum G^2 / omega over its four steps. Two cells two steps
apart couple with 1/2 sum over paths of G1 G2 (1/omega2 - 1/omega1), at the
tilde frequency omega1 + omega2 + Delta(to) - Delta(from). The four
second-order families pair, as (dk, dn) offsets, tc2 (0,2) -> (2,0), atc2
(0,0) -> (2,2), r2 (0,0) -> (2,0) and a2 (0,0) -> (0,2). Omega is the cached
table ``model._omega_table`` behind H's coupling elements; delta-/+ are
affine in omega_q, so a step's omega is dk ((omega_q - omega_r) + c) or
dk ((omega_r + omega_q) + c) with a Stark offset c that omega_q does not
move, and every pole of a tilde frequency has a closed form.

A family at one cell is a closure of omega_q in straight-line float
arithmetic over constants taken once: G^2 and c of the four steps of each
of its two cells, and G1 G2 of each path. Nothing in it depends on omega_q,
so it is built once per (kind, n, k, N, n_max, lambda, U, omega_r) and kept
in a per-model cache of ``model.MODEL_CACHE_SIZE`` entries: the solver
iterates on it, and the coupling and duration at the tuned model reuse it.
The solver names a pole, -(base + c) at omega_q = 0, from its steps' (G, c).
``second_order`` evaluates it once. ``rwa_validity_report`` gathers the
numerators of every Stark step of the four offset levels and of both
quotients of the six paths of the four families from the Omega table,
through flat indices taken with each denominator's Stark factor once per
(N, n_max) (``_grid_constants``, a per-space cache of
``model.SPACE_CACHE_SIZE`` entries, as the interned spaces), and divides
them by their omegas in one division, whose flat order is the order
per-cell evaluation refuses in. Its masks that depend only on the channel
table ``_CELLS`` and the target are written straight from that table: the
channels of a kind whose cells lie in the space form one rectangle of the
grid, a channel that shares a cell with the target pair sits at one (n, k)
per own cell and pair cell, and the selected family is one line of the
target's kind. Its rows, built on first read, run over n, then k, then
kind: tc, atc, then tc2, atc2, r2, a2 at second order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .model import MODEL_CACHE_SIZE, SPACE_CACHE_SIZE, HilbertSpace, ModelParams
from .model import _omega_table, _read_only, _require_finite_scales, _retuned

# Denominators closer to zero than this mark a degenerate parameter point.
DEGENERACY_FLOOR = 1e-9

# |delta| / Omega below this flags a competing channel as a selectivity risk:
# the detuned-Rabi amplitude 4 Omega^2 / (4 Omega^2 + delta^2) then allows
# population leakage above the percent level.
SELECTIVITY_RATIO = 10.0

ROOT_TOLERANCE = 1e-10

# Pulse lengths as fractions of the population-oscillation period pi/|Omega|.
HALF_PERIOD = 0.5
QUARTER_PERIOD = 0.25


class DegenerateDetuningError(ValueError):
    """A first-order detuning required by a second-order coefficient is
    numerically zero; the parameter point is rejected rather than regularized."""


class ResonanceBracketError(ValueError):
    """The root bracket for a second-order resonance does not enclose a sign
    change (or the solve failed to converge)."""


def delta_minus(n: int, k: int, params: ModelParams) -> float:
    n_q = params.n_qubits
    return params.omega_q - params.omega_r + params.stark_u * (n - k + n_q / 2) / n_q


def delta_plus(n: int, k: int, params: ModelParams) -> float:
    n_q = params.n_qubits
    return params.omega_r + params.omega_q + params.stark_u * (n + k + 1 - n_q / 2) / n_q


# The two basis cells each channel kind at (n, k) couples, as (dk, dn)
# offsets from the cell (k, n).
_CELLS = {
    "tc": ((1, 0), (0, 1)),
    "atc": ((0, 0), (1, 1)),
    "tc2": ((2, 0), (0, 2)),
    "atc2": ((0, 0), (2, 2)),
    "r2": ((2, 0), (0, 0)),
    "a2": ((0, 2), (0, 0)),
}


@dataclass(frozen=True)
class ResonanceTarget:
    """A selective transition to tune to: order 1 couples (k0+1, n0) with
    (k0, n0+1) ('tc') or (k0, n0) with (k0+1, n0+1) ('atc'); order 2 moves
    two excitations, pairing (k0+2, n0) with (k0, n0+2) or (k0, n0) with
    (k0+2, n0+2)."""

    kind: str  # "tc" | "atc"
    order: int  # 1 | 2
    n0: int
    k0: int

    def __post_init__(self) -> None:
        if self.kind not in ("tc", "atc"):
            raise ValueError(f"kind must be 'tc' or 'atc', got {self.kind!r}")
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        if self.n0 < 0 or self.k0 < 0:
            raise ValueError("n0 and k0 must be non-negative")

    @property
    def channel(self) -> str:
        """The channel kind of the selected interaction: tc, atc, tc2 or atc2."""
        return self.kind if self.order == 1 else self.kind + "2"

    def pair(self) -> tuple[tuple[int, int], ...]:
        """The two (k, n) cells the selected interaction couples."""
        return tuple((self.k0 + dk, self.n0 + dn) for dk, dn in _CELLS[self.channel])

    def validate(self, params: ModelParams) -> None:
        """Refuse a target outside the model's space, or a model whose
        couplings or detunings overflow (``model._require_finite_scales``)."""
        if self.k0 + self.order > params.n_qubits:
            raise ValueError(
                f"k0={self.k0} with order {self.order} exceeds N={params.n_qubits}"
            )
        for _, n in self.pair():
            if n > params.n_max:
                raise ValueError(f"target needs photon number {n} > n_max={params.n_max}")
        _require_finite_scales(params.n_qubits, params.n_max, params.coupling, params.stark_u, params.omega_r)

    def label(self) -> str:
        prefix = {"tc": "TC", "atc": "aTC"}[self.kind]
        sup = "" if self.order == 1 else "(2)"
        return f"{prefix}{sup}({self.n0},{self.k0})"


def solve_first_order_resonance(target: ResonanceTarget, params: ModelParams) -> float:
    """The unique omega_q zeroing delta_minus('tc') or delta_plus('atc') at
    (n0, k0); params.omega_q is ignored."""
    if target.order != 1:
        raise ValueError("target must be first order")
    target.validate(params)
    # each detuning is omega_q plus its value at omega_q = 0
    delta = delta_minus if target.kind == "tc" else delta_plus
    return 0.0 - delta(target.n0, target.k0, _retuned(params, 0.0))


# The four first-order steps (dk, dn) from a cell (k, n), in summation order.
_STEPS = ((-1, 1), (-1, -1), (1, -1), (1, 1))


def _family(kind: str) -> tuple:
    """The cells of a second-order family, from and to, as (dk, dn) offsets:
    the from-cell has fewer atomic excitations (at equal k, fewer photons).
    Its paths (i, j) leave the from-cell by step i and reach the to-cell by
    the reverse of its step j."""
    frm, to = sorted(_CELLS[kind])
    lasts = [(dk - to[0] + frm[0], dn - to[1] + frm[1]) for dk, dn in _STEPS]
    return frm, to, tuple((i, _STEPS.index(last)) for i, last in enumerate(lasts) if last in _STEPS)


_FAMILIES = {kind: _family(kind) for kind in list(_CELLS)[2:]}

# The grid's tables: the four offset cells the families read, in the order
# per-cell evaluation refuses in; each family's from- and to-offset; the six
# paths of the four families, one column each, as rows family, from-offset,
# i, to-offset, j; each family's last path.
_OFFSETS = sorted({cell for frm, to, _ in _FAMILIES.values() for cell in (frm, to)})
_FROM = [_OFFSETS.index(frm) for frm, _, _ in _FAMILIES.values()]
_TO = [_OFFSETS.index(to) for _, to, _ in _FAMILIES.values()]
_PATHS = np.array(
    [(f, _FROM[f], i, _TO[f], j) for f, (_, _, paths) in enumerate(_FAMILIES.values()) for i, j in paths]
).T
_LAST = np.cumsum([len(paths) for _, _, paths in _FAMILIES.values()]) - 1

# Each quotient of the grid sits at an (offset, step) pair, in the order
# ``_over`` refuses in: every Stark step, then each path's back step
# (to-offset, j), then its out step (from-offset, i). A numerator is G at a
# pair of the first list times G at the same place of the second: G^2 for a
# Stark step, G1 G2 for a path. Each list is held as the (dk, dn) shift from
# a cell to the channel its step drives, on a leading pair axis; the
# denominators' pairs also as their steps' dk and delta_plus mask.
_STARK = [(o, s) for o in range(len(_OFFSETS)) for s in range(len(_STEPS))]
_BACK, _OUT = list(zip(_PATHS[3], _PATHS[4])), list(zip(_PATHS[1], _PATHS[2]))


def _channel_shifts(pairs: list) -> np.ndarray:
    shifts = [(_OFFSETS[o][0] + min(_STEPS[s][0], 0), _OFFSETS[o][1] + min(_STEPS[s][1], 0)) for o, s in pairs]
    return np.array(shifts).T[..., None, None]


_FIRST, _SECOND, _DEN = map(_channel_shifts, (_STARK + _OUT + _OUT, _STARK + _BACK + _BACK, _STARK + _BACK + _OUT))
_DEN_DK, _DEN_DN = np.array([_STEPS[s] for _, s in _STARK + _BACK + _OUT]).T[..., None, None]
_DEN_PLUS = _DEN_DK == _DEN_DN


def _degenerate(den: float) -> DegenerateDetuningError:
    return DegenerateDetuningError(f"first-order detuning {den:.3e} below the {DEGENERACY_FLOOR} floor")


def _over(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, zero where num is zero; the first live denominator closer
    to zero than DEGENERACY_FLOOR, in flat order, is refused."""
    live = num != 0.0
    low = live & (np.abs(den) < DEGENERACY_FLOOR)
    if low.any():
        raise _degenerate(den[low][0])
    return np.divide(num, den, out=np.zeros_like(num), where=live)


def _cell_steps(n: int, k: int, n_q: int, n_max: int, coupling: float, stark_u: float) -> list:
    """The four steps from the cell (k, n), in ``_STEPS`` order, as constants
    (G, c): a step (dk, dn) has omega = dk (base + c), with base omega_r +
    omega_q for a plus step (dk = dn, delta_plus) and omega_q - omega_r
    otherwise, and c the Stark offset of its channel at (n + min(dn, 0),
    k + min(dk, 0)). The cell lies in the space or up to two levels above."""
    table = _omega_table(n_q, n_max, coupling)
    steps = []
    for dk, dn in _STEPS:
        nn, kk = n + min(dn, 0), k + min(dk, 0)
        lin = nn + kk + 1 - n_q / 2 if dk == dn else nn - kk + n_q / 2
        steps.append((table.item(nn + 1, kk + 1), stark_u * lin / n_q))
    return steps


def _second_order_closure(kind: str, n: int, k: int, params: ModelParams):
    """omega_q -> (coupling, tilde frequency) of the family ``kind`` at (n, k),
    on floats. The closure depends on the model but not on omega_q, so one
    is built per (kind, n, k, N, n_max, lambda, U, omega_r) and kept in a
    cache of MODEL_CACHE_SIZE entries: the solver's iterates, and the
    coupling and duration at the tuned model, share it."""
    return _closure(kind, n, k, params.n_qubits, params.n_max, params.coupling, params.stark_u, params.omega_r)


@lru_cache(maxsize=MODEL_CACHE_SIZE)
def _closure(kind: str, n: int, k: int, n_q: int, n_max: int, coupling: float, stark_u: float, omega_r: float):
    """The closure of ``_second_order_closure``. Its constants are taken
    once: c and G^2 of the eight steps of the from- and the to-cell, and
    G1 G2 of each path. An evaluation is straight-line float arithmetic in
    the order of the step sums: the eight omegas, each cell's Stark shift
    -sum G^2 / omega, then the path sums. A quotient whose numerator is zero
    is zero and checks no denominator; every other denominator is checked
    against DEGENERACY_FLOOR before any division, and the first low one in
    the sums' order (the Stark steps of the from-cell, of the to-cell, then
    each path's two) is refused."""
    frm, to, paths = _FAMILIES[kind]
    cells = {(dk, dn): _cell_steps(n + dn, k + dk, n_q, n_max, coupling, stark_u) for dk, dn in (frm, to)}
    steps = cells[frm] + cells[to]  # 0-3 leave the from-cell, 4-7 the to-cell, each in _STEPS order
    s0, s1, s2, s3, s4, s5, s6, s7 = squares = [g * g for g, _ in steps]
    c0, c1, c2, c3, c4, c5, c6, c7 = (c for _, c in steps)
    # each path as (G1 G2, back step, out step); a one-path family gets a
    # dead second path. The bare frequency is the last path's.
    products = [(steps[i][0] * steps[4 + j][0], 4 + j, i) for i, j in paths]
    (g1, j1, i1), (g2, j2, i2) = products + [(0.0, 0, 0)] * (2 - len(products))
    last_back, last_out = products[-1][1:]
    # the steps whose denominator some live quotient reads, in refusal order,
    # and each step's floor: a dead step's is 0.0, which no |omega| is below
    guarded = [s for s, square in enumerate(squares) if square != 0.0]
    for g, j, i in products:
        if g != 0.0:
            guarded += [s for s in (j, i) if s not in guarded]
    h0, h1, h2, h3, h4, h5, h6, h7 = (DEGENERACY_FLOOR if s in guarded else 0.0 for s in range(8))

    def evaluate(omega_q: float) -> tuple[float, float]:
        m, p = omega_q - omega_r, omega_r + omega_q
        # dk (base + c) of _STEPS (-1, 1), (-1, -1), (1, -1), (1, 1): minus, plus, minus, plus
        w = w0, w1, w2, w3, w4, w5, w6, w7 = (
            -(m + c0), -(p + c1), m + c2, p + c3, -(m + c4), -(p + c5), m + c6, p + c7
        )
        if (
            abs(w0) < h0 or abs(w1) < h1 or abs(w2) < h2 or abs(w3) < h3
            or abs(w4) < h4 or abs(w5) < h5 or abs(w6) < h6 or abs(w7) < h7
        ):
            raise _degenerate(next(w[s] for s in guarded if abs(w[s]) < DEGENERACY_FLOOR))
        shift_from = (
            0.0 - (s0 / w0 if s0 else 0.0) - (s1 / w1 if s1 else 0.0)
            - (s2 / w2 if s2 else 0.0) - (s3 / w3 if s3 else 0.0)
        )
        shift_to = (
            0.0 - (s4 / w4 if s4 else 0.0) - (s5 / w5 if s5 else 0.0)
            - (s6 / w6 if s6 else 0.0) - (s7 / w7 if s7 else 0.0)
        )
        coupling = 0.0 - ((g1 / w[j1] + g1 / w[i1]) if g1 else 0.0) - ((g2 / w[j2] + g2 / w[i2]) if g2 else 0.0)
        return 0.5 * coupling, w[last_out] - w[last_back] + shift_to - shift_from

    evaluate.cells = cells  # each cell's _cell_steps, by offset: read by _nearest_pole on a refusal only
    return evaluate


def second_order(kind: str, n: int, k: int, params: ModelParams) -> tuple[float, float]:
    """(coupling, tilde frequency) of the family ``kind`` (tc2, atc2, r2, a2)
    at the cell (n, k) of the space, at params.omega_q, from the cell with
    fewer atomic excitations (at equal k, fewer photons) to the other, which
    a path reaches by the reverse of one of its steps (omega = -omega2):
    ``_second_order_closure`` evaluated once. The report evaluates the same
    sums over the whole grid in ``_second_order_grid``."""
    if not (0 <= n <= params.n_max and 0 <= k <= params.n_qubits):
        raise ValueError(f"cell (n={n}, k={k}) outside the space 0..{params.n_max} x 0..{params.n_qubits}")
    return _second_order_closure(kind, n, k, params)(params.omega_q)


@lru_cache(maxsize=SPACE_CACHE_SIZE)
def _grid_constants(n_q: int, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over (pair, n, k) for (N, n_max): the flat ``_omega_table`` indices of
    each numerator's two G, and each denominator's Stark factor lin, its
    omega being dk (base + U lin / N); read-only, as the cache shares them.
    They depend on the space alone, so they are kept for as many (N, n_max)
    as the interned spaces (``model._space``): 3 x 28 x dimension values of
    8 B, 2.75 MB at MAX_DIMENSION."""
    n, k = np.arange(n_max + 1)[:, None], np.arange(n_q + 1)
    first, second = ((n + dn + 1) * (n_q + 4) + k + dk + 1 for dk, dn in (_FIRST, _SECOND))
    nn, kk = n + _DEN[1], k + _DEN[0]
    lin = np.where(_DEN_PLUS, nn + kk + 1 - n_q / 2, nn - kk + n_q / 2)
    return _read_only(first), _read_only(second), _read_only(lin)


def _second_order_grid(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(coupling, tilde frequency) of the four families, stacked in
    ``_FAMILIES`` order, over every cell (n, k) of the space. Every
    numerator is one product of two gathers from ``_omega_table``, and
    every denominator one expression in lin, so the Stark quotients of the
    four offset levels and both quotients of every path take one
    ``_over``."""
    first, second, lin = _grid_constants(params.n_qubits, params.n_max)
    table = _omega_table(params.n_qubits, params.n_max, params.coupling)
    den = params.stark_u * lin
    den /= params.n_qubits
    den += np.where(_DEN_PLUS, params.omega_r + params.omega_q, params.omega_q - params.omega_r)
    den *= _DEN_DK
    quotient = _over(table.take(first) * table.take(second), den)
    steps, cells = len(_STARK), den.shape[1:]
    stark = quotient[:steps].reshape((len(_OFFSETS), len(_STEPS)) + cells)
    shift = 0.0 - stark[:, 0] - stark[:, 1] - stark[:, 2] - stark[:, 3]
    (back_q, out_q), (back, out) = (x[steps:].reshape((2, -1) + cells) for x in (quotient, den))
    coupling = np.zeros((len(_FAMILIES),) + cells)
    np.subtract.at(coupling, _PATHS[0], back_q + out_q)
    return 0.5 * coupling, (out - back)[_LAST] + shift[_TO] - shift[_FROM]


def tilde_frequency(target: ResonanceTarget, params: ModelParams) -> float:
    """Stark-corrected oscillation frequency of a second-order target."""
    return second_order(target.channel, target.n0, target.k0, params)[1]


def _nearest_pole(target: ResonanceTarget, evaluate, omega_r: float, lo: float, hi: float) -> str:
    """The pole of the target's tilde frequency nearest [lo, hi], or the
    point lo = hi, from the steps' (G, c) that its closure ``evaluate``
    holds: a step with G != 0 has omega = 0 at omega_q = -(base + c) with
    base taken at omega_q = 0, where the step's first-order channel is
    resonant. The cells are read in ``_CELLS`` order, which for tc2 is the
    reverse of the closure's (from, to); the first-listed pole wins a tie."""
    base = (0.0 - omega_r, omega_r + 0.0)
    poles = {}
    for dk0, dn0 in _CELLS[target.channel]:
        n, k = target.n0 + dn0, target.k0 + dk0
        for (dk, dn), (g, c) in zip(_STEPS, evaluate.cells[dk0, dn0]):
            plus = dk == dn
            if g != 0.0:
                channel = ResonanceTarget("atc" if plus else "tc", 1, n + min(dn, 0), k + min(dk, 0))
                poles.setdefault(-(base[plus] + c), []).append(channel.label())
    pole = min(poles, key=lambda x: max(lo - x, x - hi, 0.0))
    where = "" if lo == hi else f" {'inside' if lo <= pole <= hi else 'outside'} that range,"
    labels = ", ".join(poles[pole])
    return f"; the nearest pole lies{where} at omega_q = {pole}, the first-order resonance of {labels}"


def _bare_second_order_omega_q(target: ResonanceTarget, params: ModelParams) -> float:
    """Zero of the bare (lambda -> 0) second-order frequency, linear in omega_q."""
    n_q = params.n_qubits
    n0, k0 = target.n0, target.k0
    if target.kind == "tc":
        return params.omega_r - params.stark_u * (2 * n0 - 2 * k0 + n_q) / (2 * n_q)
    return -params.omega_r - params.stark_u * (2 * n0 + 2 * k0 + 4 - n_q) / (2 * n_q)


def solve_second_order_resonance(target: ResonanceTarget, params: ModelParams) -> float:
    """omega_q zeroing the Stark-corrected frequency of a second-order target,
    found by bracketed false-position (Illinois) refinement (the tilde
    frequency depends on omega_q nonlinearly through the Stark shifts).

    The bracket is the bare linear solution widened by
    max(10 lambda^2 N / |U|, 1e-6), since the Stark corrections are
    O(lambda^2 / delta); ResonanceBracketError when it holds no sign change
    or is not finite.
    """
    if target.order != 2:
        raise ValueError("target must be second order")
    target.validate(params)
    if params.stark_u == 0.0:
        raise ValueError("second-order selectivity requires a nonzero Stark coupling")
    center = _bare_second_order_omega_q(target, params)
    try:
        width = max(10.0 * params.coupling**2 * params.n_qubits / abs(params.stark_u), 1e-6)
    except OverflowError:  # lambda^2 itself
        width = math.inf
    lo, hi = center - width, center + width
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ResonanceBracketError(
            f"the bracket omega_q = {center} +- 10 lambda^2 N / |U| overflows at lambda = {params.coupling!r}"
        )
    evaluate = _second_order_closure(target.channel, target.n0, target.k0, params)

    def objective(omega_q: float) -> float:
        try:
            return evaluate(omega_q)[1]
        except DegenerateDetuningError as exc:
            pole = _nearest_pole(target, evaluate, params.omega_r, omega_q, omega_q)
            raise DegenerateDetuningError(f"{exc} at omega_q = {omega_q}{pole}") from None

    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise ResonanceBracketError(
            f"no sign change of the tilde frequency over omega_q in [{lo}, {hi}]"
            f" ({f_lo:.3g} at the low end, {f_hi:.3g} at the high end)"
            + _nearest_pole(target, evaluate, params.omega_r, lo, hi)
        )
    root = _illinois(objective, lo, hi, f_lo, f_hi)
    residual = objective(root)
    if not abs(residual) <= ROOT_TOLERANCE:
        raise ResonanceBracketError(
            f"root refinement left |tilde frequency| = {abs(residual):.3e} > {ROOT_TOLERANCE}"
            f" at omega_q = {root} in the bracket [{lo}, {hi}], lambda = {params.coupling!r}"
        )
    return float(root)


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of ``f`` inside [lo, hi], where f_lo and f_hi differ in sign, by
    false position with the Illinois rule: when the same end survives twice
    in a row its value is halved, so both ends close in. Every iterate stays
    at least ``tol`` (two ulps) inside the bracket, so each step shrinks it.
    A false-position step that overflows bisects instead: clamped, it would
    shrink the bracket by only ``tol``. Stops at an exact zero or once the
    bracket is 2 tol wide."""
    tol = 2 * math.ulp(max(abs(lo), abs(hi)))
    side = 0
    while hi - lo > 2 * tol:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not math.isfinite(x):
            x = 0.5 * lo + 0.5 * hi
        x = min(max(x, lo + tol), hi - tol)
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x > 0) == (f_hi > 0):
            hi, f_hi = x, f_x
            if side == -1:
                f_lo *= 0.5
            side = -1
        else:
            lo, f_lo = x, f_x
            if side == 1:
                f_hi *= 0.5
            side = 1
    return lo if abs(f_lo) < abs(f_hi) else hi


def solve_resonance(target: ResonanceTarget, params: ModelParams) -> float:
    """omega_q putting the target on resonance, at its order."""
    if target.order == 1:
        return solve_first_order_resonance(target, params)
    return solve_second_order_resonance(target, params)


def target_coupling(target: ResonanceTarget, params: ModelParams) -> float:
    """Signed coupling amplitude of the selected transition (first order:
    Omega(n0, k0); second order: the two-excitation amplitude)."""
    target.validate(params)
    if target.order == 1:
        return _omega_table(params.n_qubits, params.n_max, params.coupling).item(target.n0 + 1, target.k0 + 1)
    return second_order(target.channel, target.n0, target.k0, params)[0]


def _require_fraction(fraction: float) -> None:
    """Refuse a pulse fraction that is not positive and finite."""
    if not (math.isfinite(fraction) and fraction > 0):
        raise ValueError(f"fraction must be positive and finite, got {fraction}")


def pulse_duration(
    target: ResonanceTarget, params: ModelParams, fraction: float = HALF_PERIOD
) -> float:
    """Duration of a pulse driving the selected transition: ``fraction`` of
    the population-oscillation period pi/|Omega|. HALF_PERIOD, the default,
    transfers fully; QUARTER_PERIOD prepares the equal superposition."""
    _require_fraction(fraction)
    omega = abs(target_coupling(target, params))
    if omega == 0.0:
        raise ValueError(f"target {target.label()} has zero coupling")
    return fraction * math.pi / omega


# The report's kind column, every kind in ``_CELLS`` order (read-only, as
# each report's column is a view of it), and how far a kind's two cells
# reach above its (n, k), as (dk, dn).
_KINDS = np.array(list(_CELLS), object)[:, None, None]
_KINDS.flags.writeable = False
_REACH = [(max(a[0], b[0]), max(a[1], b[1])) for a, b in _CELLS.values()]


class ChannelReport(NamedTuple):
    """Selectivity data for one interaction channel at fixed parameters, or,
    as ``RwaReport.columns``, for every channel, each field an array."""

    kind: str  # "tc" | "atc" | "tc2" | "atc2" | "r2" | "a2"
    n: int
    k: int
    coupling: float
    detuning: float
    ratio: float  # |detuning| / |coupling|; inf when the channel is uncoupled
    no_coupling: bool  # coupling == 0.0
    selected: bool  # member of the target's resonant family
    adjacent: bool  # shares a basis cell with the target pair
    risk: bool  # competing channel with ratio below SELECTIVITY_RATIO


# A row from a list of its ten fields: what ``ChannelReport._make`` does,
# without its Python frame and length check per row.
_row = partial(tuple.__new__, ChannelReport)


@dataclass(frozen=True, eq=False)
class RwaReport:
    """Ratio table over every channel of the space for one tuned target.

    ``columns`` holds one array per value and mask over (kind, n, k), kinds
    in ``_CELLS`` order (tc and atc alone at first order), labels broadcast
    to that shape. ``min_ratio`` reduces them. ``channels`` rows are built
    on first read, in the module's row order: the columns go into one object
    grid, one ``tolist`` per block of kinds gives each row's ten fields as
    Python str, int, float and bool, and ``tuple.__new__`` bound to
    ``ChannelReport`` makes each row a ``ChannelReport``."""

    target: ResonanceTarget
    omega_q: float
    columns: ChannelReport

    @cached_property
    def channels(self) -> tuple[ChannelReport, ...]:
        grid = np.empty((len(self.columns),) + self.columns.ratio.shape, object)
        for i, column in enumerate(self.columns):
            grid[i] = column
        rows = grid.transpose(2, 3, 1, 0)  # (n, k, kind, field); one tolist per block of kinds
        first, second = (b.reshape(-1, len(grid)).tolist() for b in (rows[:, :, :2], rows[:, :, 2:]))
        return tuple(map(_row, first + second))

    def min_ratio(self, adjacent_only: bool = False) -> float:
        c = self.columns
        pool = ~c.selected & ~c.no_coupling & (c.adjacent | (not adjacent_only))
        return float(c.ratio.min(initial=math.inf, where=pool))


def rwa_validity_report(target: ResonanceTarget, params: ModelParams, space: HilbertSpace) -> RwaReport:
    """Tabulate |detuning| / |coupling| for every channel of the space at the
    given parameters (normally tuned to the target's resonance). Channels
    below SELECTIVITY_RATIO outside the selected family (same kind, n - k
    fixed for tc-like, n + k for atc-like) are risks; a channel with a cell
    outside the space is uncoupled and reports an infinite ratio.

    ``space`` is not read: the space is (N, n_max) of ``params``. It stays
    in the signature for the benchmark's effective op, which passes it,
    until that call changes (ROADMAP item 1c)."""
    target.validate(params)
    n_q, n_max = params.n_qubits, params.n_max
    n, k = np.arange(n_max + 1)[:, None], np.arange(n_q + 1)
    omega = _omega_table(n_q, n_max, params.coupling)[n + 1, k + 1]
    couplings, detunings = [omega] * 2, [delta_minus(n, k, params), delta_plus(n, k, params)]
    if target.order == 2:
        families = _second_order_grid(params)
        couplings += list(families[0])
        detunings += list(families[1])
    kinds = _KINDS[: len(couplings)]

    # A kind's channels lie in the space on one rectangle of the grid, whose
    # stops target.validate keeps >= 1. A channel whose cell (k + dk, n + dn)
    # is a cell of the pair sits at one (n, k): at most four per kind.
    shape = (len(kinds), n_max + 1, n_q + 1)
    coupling, adjacent, selected = np.zeros(shape), np.zeros(shape, bool), np.zeros(shape, bool)
    pair = target.pair()
    for index, cells, (reach_k, reach_n) in zip(range(len(kinds)), _CELLS.values(), _REACH):
        rows, cols = n_max + 1 - reach_n, n_q + 1 - reach_k
        coupling[index, :rows, :cols] = couplings[index][:rows, :cols]
        for dk, dn in cells:
            for pk, pn in pair:
                if 0 <= pn - dn <= n_max and 0 <= pk - dk <= n_q:
                    adjacent[index, pn - dn, pk - dk] = True
    detuning = np.array(detunings)
    no_coupling = coupling == 0.0
    # |delta| / |Omega| overflows at a model the scale check accepts when a
    # huge U meets a small lambda: +inf is then the ratio's true side, far
    # from any risk, and is written as null like an uncoupled channel's
    with np.errstate(over="ignore"):
        ratio = np.divide(abs(detuning), abs(coupling), out=np.full(coupling.shape, math.inf), where=~no_coupling)
    sign = -1 if target.kind == "tc" else 1  # n - k or n + k is fixed along a family
    selected[list(_CELLS).index(target.channel)] = n + sign * k == target.n0 + sign * target.k0
    risk = ~selected & (ratio < SELECTIVITY_RATIO)
    columns = ChannelReport(kinds, n, k, coupling, detuning, ratio, no_coupling, selected, adjacent, risk)
    return RwaReport(target, params.omega_q, columns)


def ratio_from_omega_q(omega_q: float, params: ModelParams) -> float:
    """(omega_r - omega_q) / omega_r, the scan axis used throughout."""
    return (params.omega_r - omega_q) / params.omega_r


def omega_q_from_ratio(ratio: float, params: ModelParams) -> float:
    return params.omega_r * (1.0 - ratio)
