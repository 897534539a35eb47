"""Named jobs reproducing the reference scans and protocols.

First-order presets use lambda = 0.006, U = -0.5; the two-excitation presets
use lambda = 0.1, U = -16 (all in units of omega_r = 1). Every preset is
N = 4, and its model follows from its target's order and its starting photon
number (``_params``). Scan windows are chosen to bracket each resonance on the
default grid of DEFAULT_SCAN_POINTS points. A protocol preset is a
protocol.ProtocolSpec read from steps and a target in the [protocol] grammar.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .effective import ResonanceTarget
from .model import ModelParams, default_n_max
from .protocol import ProtocolSpec, parse_steps, parse_target
from .scan import DEFAULT_MIN_HEIGHT, DEFAULT_SCAN_POINTS

FIRST_ORDER_COUPLING = 0.006
FIRST_ORDER_STARK = -0.5
SECOND_ORDER_COUPLING = 0.1
SECOND_ORDER_STARK = -16.0


@dataclass(frozen=True)
class ScanPreset:
    """A scan job: a named preset, or a config's [scan] section, whose
    ``params`` are None because its model comes from [model]. Each point
    evolves for ``duration``, or for pulse_duration's half period of the
    target when it is None."""

    name: str
    params: ModelParams | None
    initial_k: int
    initial_n: int
    target: ResonanceTarget
    window: tuple[float, float]
    points: int = DEFAULT_SCAN_POINTS
    min_height: float = DEFAULT_MIN_HEIGHT
    duration: float | None = None


def _params(order: int, photon: int) -> ModelParams:
    """The N = 4 model for targets of ``order``, cut off at
    default_n_max(photon, 4) as the CLI's rule gives for the same run."""
    coupling, stark_u = {
        1: (FIRST_ORDER_COUPLING, FIRST_ORDER_STARK),
        2: (SECOND_ORDER_COUPLING, SECOND_ORDER_STARK),
    }[order]
    return ModelParams(n_qubits=4, coupling=coupling, stark_u=stark_u, n_max=default_n_max(photon, 4))


def _scan_preset(
    name: str, initial: tuple[int, int], target: ResonanceTarget, window: tuple[float, float]
) -> ScanPreset:
    """A scan of ``window`` from the cell ``initial`` = (k, n), its model
    derived from ``target``."""
    params = _params(target.order, max(initial[1], target.n0))
    return ScanPreset(name, params, *initial, target, window)


# Pair-creating transition from the ground cell: peak at 2.125.
_FIG3 = _scan_preset("fig3", (0, 0), ResonanceTarget("atc", 1, 0, 0), (1.9, 2.3))

SCAN_PRESETS: dict[str, ScanPreset] = {
    preset.name: preset
    for preset in (
        # Photon-absorbing transition from |D^0, 1>: peak at ratio -0.250.
        _scan_preset("fig2a", (0, 1), ResonanceTarget("tc", 1, 0, 0), (-0.45, -0.05)),
        # fig3's scan under the zero-photon panel's name
        replace(_FIG3, name="fig2b"),
        _FIG3,
        _scan_preset("fig4", (1, 1), ResonanceTarget("tc", 1, 0, 1), (-0.325, 0.075)),
        _scan_preset("fig5", (2, 0), ResonanceTarget("atc", 1, 0, 2), (1.675, 2.075)),
        _scan_preset("fig6", (3, 1), ResonanceTarget("tc", 1, 0, 3), (-0.075, 0.325)),
        # Two-excitation resonances: narrow windows resolve peaks whose widths
        # scale with the second-order coupling.
        _scan_preset("fig7", (0, 0), ResonanceTarget("atc", 2, 0, 0), (1.96, 2.04)),
        _scan_preset("fig8", (2, 2), ResonanceTarget("tc", 2, 0, 2), (-0.035, 0.045)),
    )
}


# Protocol presets from the ground cell, each (name, order of its targets,
# steps, target) in the grammar of an INI [protocol] section.
PROTOCOL_PRESETS: dict[str, ProtocolSpec] = {
    name: ProtocolSpec(
        name, _params(order, 0), parse_steps(step.split() for step in steps), (0, 0), *parse_target(target.split())
    )
    for name, order, steps, target in (
        # The Dicke ladder: half-period steps alternating pair creation and
        # photon absorption climb one Dicke level each, up to |D^4, 0>.
        ("dicke_ladder_4", 1, ("atc 1 0 0", "tc 1 0 1", "atc 1 0 2", "tc 1 0 3"), "basis 4 0"),
        # GHZ: a quarter-period two-excitation pair creation splits (0, 0)
        # equally with (2, 2), then a half-period two-photon absorption
        # carries the (2, 2) half to (4, 0).
        ("ghz_4", 2, ("atc 2 0 0 quarter_period", "tc 2 0 2"), "ghz"),
    )
}


def _lookup(kind: str, table: dict, name: str):
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown {kind} preset {name!r}; known presets: {known}") from None


def protocol_preset(name: str) -> ProtocolSpec:
    return _lookup("protocol", PROTOCOL_PRESETS, name)


def scan_preset(name: str) -> ScanPreset:
    return _lookup("scan", SCAN_PRESETS, name)
