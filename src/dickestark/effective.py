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

A family at one cell is a float closure of omega_q, built once from the
step constants (G, dk, plus or minus, c) of its two cells: the solver
iterates on it, and ``second_order`` evaluates it once.
``rwa_validity_report`` evaluates the four steps once over the (n, k) grid
padded by two levels, stacked on a leading step axis. It slices the four
offset levels out of that stack, takes every Stark shift from them with one
division, and sums the six paths of the four families with two more. Its
rows, built on first read, run over n, then k, then kind: tc, atc, then
tc2, atc2, r2, a2 at second order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import HilbertSpace, ModelParams, _omega_table, _retuned

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
        if self.k0 + self.order > params.n_qubits:
            raise ValueError(
                f"k0={self.k0} with order {self.order} exceeds N={params.n_qubits}"
            )
        for _, n in self.pair():
            if n > params.n_max:
                raise ValueError(f"target needs photon number {n} > n_max={params.n_max}")

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
# i, to-offset, j; each family's last path; the steps' dk and dn on a
# leading axis.
_OFFSETS = sorted({cell for frm, to, _ in _FAMILIES.values() for cell in (frm, to)})
_FROM = [_OFFSETS.index(frm) for frm, _, _ in _FAMILIES.values()]
_TO = [_OFFSETS.index(to) for _, to, _ in _FAMILIES.values()]
_PATHS = np.array(
    [(f, _FROM[f], i, _TO[f], j) for f, (_, _, paths) in enumerate(_FAMILIES.values()) for i, j in paths]
).T
_LAST = np.cumsum([len(paths) for _, _, paths in _FAMILIES.values()]) - 1
_STEP_DK, _STEP_DN = np.array(_STEPS).T[..., None, None]


def _over(num, den):
    """num / den for floats or arrays, zero where num is zero; a live
    denominator closer to zero than DEGENERACY_FLOOR is refused."""
    if not isinstance(num, float):
        live = num != 0.0
        low = live & (np.abs(den) < DEGENERACY_FLOOR)
        if low.any():
            _over(num[low][0], den[low][0])
        return np.divide(num, den, out=np.zeros_like(num), where=live)
    if num == 0.0:
        return 0.0
    if abs(den) < DEGENERACY_FLOOR:
        raise DegenerateDetuningError(
            f"first-order detuning {den:.3e} below the {DEGENERACY_FLOOR} floor"
        )
    return num / den


def _cell_steps(n: int, k: int, params: ModelParams) -> list:
    """The four steps from the cell (k, n), in ``_STEPS`` order, as constants
    (G, dk, plus, c): a step's omega is dk (base + c), with base omega_r +
    omega_q for a plus step (dk = dn, delta_plus) and omega_q - omega_r
    otherwise, and c the Stark offset of its channel at (n + min(dn, 0),
    k + min(dk, 0)). The cell lies in the space or up to two levels above."""
    n_q = params.n_qubits
    table = _omega_table(n_q, params.n_max, params.coupling)
    steps = []
    for dk, dn in _STEPS:
        nn, kk = n + min(dn, 0), k + min(dk, 0)
        lin = nn + kk + 1 - n_q / 2 if dk == dn else nn - kk + n_q / 2
        steps.append((table.item(nn + 1, kk + 1), dk, dk == dn, params.stark_u * lin / n_q))
    return steps


def _stark(steps: list, omega_q: float, omega_r: float) -> tuple[list, float]:
    """The omegas of a cell's ``_cell_steps`` at omega_q, and its Stark
    shift, -sum G^2 / omega."""
    base = (omega_q - omega_r, omega_r + omega_q)
    omegas = [dk * (base[plus] + c) for _, dk, plus, c in steps]
    shift = 0.0
    for (g, *_), omega in zip(steps, omegas):
        shift -= _over(g * g, omega)
    return omegas, shift


def _second_order_closure(kind: str, n: int, k: int, params: ModelParams):
    """omega_q -> (coupling, tilde frequency) of the family ``kind`` at (n, k),
    on floats: the step constants of its two cells and the G1 G2 of its
    paths are taken once, and each evaluation forms only the omegas, the
    Stark shifts and the path sums."""
    frm, to, paths = _FAMILIES[kind]
    cells = [_cell_steps(n + dn, k + dk, params) for dk, dn in (frm, to)]
    products = [(cells[0][i][0] * cells[1][j][0], i, j) for i, j in paths]
    omega_r = params.omega_r

    def evaluate(omega_q: float) -> tuple[float, float]:
        (out, shift_from), (back, shift_to) = (_stark(steps, omega_q, omega_r) for steps in cells)
        coupling = 0.0
        for g, i, j in products:
            bare = out[i] - back[j]
            coupling = coupling - (_over(g, back[j]) + _over(g, out[i]))
        return 0.5 * coupling, bare + shift_to - shift_from

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


def _second_order_grid(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(coupling, tilde frequency) of the four families, stacked in
    ``_FAMILIES`` order, over every cell (n, k) of the space: the steps are
    evaluated once on the grid padded by two levels, n = 0..n_max+2 and
    k = 0..N+2, on a leading step axis, and each offset level is a slice."""
    n_q, n_max = params.n_qubits, params.n_max
    nn = np.arange(n_max + 3)[:, None] + np.minimum(_STEP_DN, 0)
    kk = np.arange(n_q + 3) + np.minimum(_STEP_DK, 0)
    g = _omega_table(n_q, n_max, params.coupling)[nn + 1, kk + 1]
    omega = _STEP_DK * np.where(_STEP_DK == _STEP_DN, delta_plus(nn, kk, params), delta_minus(nn, kk, params))
    # (offset, step, n, k), so the first refusal is the one a cell gives
    g, omega = (np.stack([x[:, dn : dn + n_max + 1, dk : dk + n_q + 1] for dk, dn in _OFFSETS]) for x in (g, omega))
    quotient = _over(g * g, omega)
    shift = 0.0 - quotient[:, 0] - quotient[:, 1] - quotient[:, 2] - quotient[:, 3]
    family, frm, i, to, j = _PATHS
    products, out, back = g[frm, i] * g[to, j], omega[frm, i], omega[to, j]
    coupling = np.zeros((len(_FAMILIES),) + shift.shape[1:])
    np.subtract.at(coupling, family, _over(products, back) + _over(products, out))
    return 0.5 * coupling, (out - back)[_LAST] + shift[_TO] - shift[_FROM]


def tilde_frequency(target: ResonanceTarget, params: ModelParams) -> float:
    """Stark-corrected oscillation frequency of a second-order target."""
    return second_order(target.channel, target.n0, target.k0, params)[1]


def _nearest_pole(target: ResonanceTarget, params: ModelParams, lo: float, hi: float) -> str:
    """The pole of the target's tilde frequency nearest [lo, hi], or the
    point lo = hi: a step it reads, with G != 0, has omega = 0 at
    omega_q = -(base + c) with base taken at omega_q = 0, where the step's
    first-order channel is resonant."""
    base = (0.0 - params.omega_r, params.omega_r + 0.0)
    poles = {}
    for dk0, dn0 in _CELLS[target.channel]:
        n, k = target.n0 + dn0, target.k0 + dk0
        for (dk, dn), (g, _, plus, c) in zip(_STEPS, _cell_steps(n, k, params)):
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
            pole = _nearest_pole(target, params, omega_q, omega_q)
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
            + _nearest_pole(target, params, lo, hi)
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


def pulse_duration(
    target: ResonanceTarget, params: ModelParams, fraction: float = HALF_PERIOD
) -> float:
    """Duration of a pulse driving the selected transition: ``fraction`` of
    the population-oscillation period pi/|Omega|. HALF_PERIOD, the default,
    transfers fully; QUARTER_PERIOD prepares the equal superposition."""
    omega = abs(target_coupling(target, params))
    if omega == 0.0:
        raise ValueError(f"target {target.label()} has zero coupling")
    return fraction * math.pi / omega


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


@dataclass(frozen=True, eq=False)
class RwaReport:
    """Ratio table over every channel of the space for one tuned target.

    ``columns`` holds one array per value and mask over (kind, n, k), kinds
    in ``_CELLS`` order (tc and atc alone at first order), labels broadcast
    to that shape. ``min_ratio`` reduces them; ``channels`` rows are built
    on first read, in the module's row order."""

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
        return tuple(map(ChannelReport._make, first + second))

    def min_ratio(self, adjacent_only: bool = False) -> float:
        c = self.columns
        pool = ~c.selected & ~c.no_coupling & (c.adjacent | (not adjacent_only))
        return float(c.ratio.min(initial=math.inf, where=pool))


def rwa_validity_report(target: ResonanceTarget, params: ModelParams, space: HilbertSpace) -> RwaReport:
    """Tabulate |detuning| / |coupling| for every channel of the space at the
    given parameters (normally tuned to the target's resonance). Channels
    below SELECTIVITY_RATIO outside the selected family (same kind, n - k
    fixed for tc-like, n + k for atc-like) are risks; a channel with a cell
    outside the space is uncoupled and reports an infinite ratio."""
    target.validate(params)
    n_q, n_max = params.n_qubits, params.n_max
    n, k = np.arange(n_max + 1)[:, None], np.arange(n_q + 1)
    omega = _omega_table(n_q, n_max, params.coupling)[n + 1, k + 1]
    couplings, detunings = [omega] * 2, [delta_minus(n, k, params), delta_plus(n, k, params)]
    if target.order == 2:
        families = _second_order_grid(params)
        couplings += list(families[0])
        detunings += list(families[1])
    kinds = np.array(list(_CELLS)[: len(couplings)], object)[:, None, None]

    # each kind's two cells (k + dk, n + dn), over (kind, cell, n, k)
    dk, dn = np.array([_CELLS[kind] for kind in kinds.flat]).transpose(2, 0, 1)[..., None, None]
    exists = ((k + dk <= n_q) & (n + dn <= n_max)).all(axis=1)
    on_pair = [(k + dk == pk) & (n + dn == pn) for pk, pn in target.pair()]
    adjacent = (on_pair[0] | on_pair[1]).any(axis=1)
    coupling, detuning = np.where(exists, couplings, 0.0), np.array(detunings)
    no_coupling = coupling == 0.0
    ratio = np.divide(abs(detuning), abs(coupling), out=np.full(coupling.shape, math.inf), where=~no_coupling)
    sign = -1 if target.kind == "tc" else 1  # n - k or n + k is fixed along a family
    on_line = n + sign * k == target.n0 + sign * target.k0
    selected = on_line & (kinds == target.channel)
    risk = ~selected & (ratio < SELECTIVITY_RATIO)
    columns = ChannelReport(kinds, n, k, coupling, detuning, ratio, no_coupling, selected, adjacent, risk)
    return RwaReport(target, params.omega_q, columns)


def ratio_from_omega_q(omega_q: float, params: ModelParams) -> float:
    """(omega_r - omega_q) / omega_r, the scan axis used throughout."""
    return (params.omega_r - omega_q) / params.omega_r


def omega_q_from_ratio(ratio: float, params: ModelParams) -> float:
    return params.omega_r * (1.0 - ratio)
