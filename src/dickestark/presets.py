"""Named parameter sets reproducing the reference scans and protocols.

First-order presets use lambda = 0.006, U = -0.5; the two-excitation presets
use lambda = 0.1, U = -16 (all in units of omega_r = 1). Scan windows are
chosen to bracket each resonance with an 801-point grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .effective import ResonanceTarget
from .model import ModelParams, default_n_max

FIRST_ORDER_COUPLING = 0.006
FIRST_ORDER_STARK = -0.5
SECOND_ORDER_COUPLING = 0.1
SECOND_ORDER_STARK = -16.0


@dataclass(frozen=True)
class ScanPreset:
    """A scan job: a named preset, or a config's [scan] section, whose
    ``params`` are None because its model comes from [model]."""

    name: str
    params: ModelParams | None
    initial_k: int
    initial_n: int
    target: ResonanceTarget
    window: tuple[float, float]
    points: int = 801
    duration_fraction: float = 0.5
    min_height: float = 0.5
    duration: float | None = None  # None = duration_fraction of the period


def _first_order_params(initial_n: int) -> ModelParams:
    return ModelParams(
        n_qubits=4,
        omega_r=1.0,
        coupling=FIRST_ORDER_COUPLING,
        stark_u=FIRST_ORDER_STARK,
        n_max=default_n_max(initial_n, 4),
    )


def _second_order_params(initial_n: int) -> ModelParams:
    return ModelParams(
        n_qubits=4,
        omega_r=1.0,
        coupling=SECOND_ORDER_COUPLING,
        stark_u=SECOND_ORDER_STARK,
        n_max=default_n_max(initial_n, 4),
    )


SCAN_PRESETS: dict[str, ScanPreset] = {
    preset.name: preset
    for preset in (
        # Photon-absorbing transition from |D^0, 1>: peak at ratio -0.250.
        ScanPreset(
            name="fig2a",
            params=_first_order_params(1),
            initial_k=0,
            initial_n=1,
            target=ResonanceTarget("tc", 1, 0, 0),
            window=(-0.45, -0.05),
        ),
        # Pair-creating transition from the ground cell: peak at 2.125 (same
        # physics as fig3, kept as its own name for the zero-photon panel).
        ScanPreset(
            name="fig2b",
            params=_first_order_params(0),
            initial_k=0,
            initial_n=0,
            target=ResonanceTarget("atc", 1, 0, 0),
            window=(1.9, 2.3),
        ),
        ScanPreset(
            name="fig3",
            params=_first_order_params(0),
            initial_k=0,
            initial_n=0,
            target=ResonanceTarget("atc", 1, 0, 0),
            window=(1.9, 2.3),
        ),
        ScanPreset(
            name="fig4",
            params=_first_order_params(1),
            initial_k=1,
            initial_n=1,
            target=ResonanceTarget("tc", 1, 0, 1),
            window=(-0.325, 0.075),
        ),
        ScanPreset(
            name="fig5",
            params=_first_order_params(0),
            initial_k=2,
            initial_n=0,
            target=ResonanceTarget("atc", 1, 0, 2),
            window=(1.675, 2.075),
        ),
        ScanPreset(
            name="fig6",
            params=_first_order_params(1),
            initial_k=3,
            initial_n=1,
            target=ResonanceTarget("tc", 1, 0, 3),
            window=(-0.075, 0.325),
        ),
        # Two-excitation resonances: narrow windows resolve peaks whose widths
        # scale with the second-order coupling.
        ScanPreset(
            name="fig7",
            params=_second_order_params(0),
            initial_k=0,
            initial_n=0,
            target=ResonanceTarget("atc", 2, 0, 0),
            window=(1.96, 2.04),
        ),
        ScanPreset(
            name="fig8",
            params=_second_order_params(2),
            initial_k=2,
            initial_n=2,
            target=ResonanceTarget("tc", 2, 0, 2),
            window=(-0.035, 0.045),
        ),
    )
}


# Protocol presets: the model each reference sequence is compiled for.
PROTOCOL_PRESETS: dict[str, ModelParams] = {
    "dicke_ladder_4": _first_order_params(0),
    "ghz_4": _second_order_params(0),
}


def protocol_preset(name: str) -> ModelParams:
    try:
        return PROTOCOL_PRESETS[name]
    except KeyError:
        known = ", ".join(PROTOCOL_PRESETS)
        raise ValueError(f"unknown protocol preset {name!r}; known: {known}") from None


def scan_preset(name: str) -> ScanPreset:
    try:
        return SCAN_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(SCAN_PRESETS))
        raise ValueError(f"unknown scan preset {name!r}; known presets: {known}") from None
