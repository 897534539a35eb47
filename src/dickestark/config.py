"""Run configuration: a single INI-style file with typed, strictly validated
sections.

Grammar (all keys shown; unknown sections or keys are rejected):

    [model]
    n_qubits = 4
    omega_r  = 1.0
    lambda   = 0.006
    stark_u  = -0.5
    n_max    = 8          ; optional, see "Photon cutoff" below

    [scan]                ; required by the scan command
    kind       = atc      ; target transition: tc | atc
    order      = 1        ; 1 | 2
    n0         = 0
    k0         = 0
    initial_k  = 0
    initial_n  = 0
    window_min = 1.9      ; in (omega_r - omega_q) / omega_r units
    window_max = 2.3
    points     = 801      ; 2..100001 (scan.MAX_SCAN_POINTS)
    duration   = auto     ; auto = half oscillation of the target, or a time
    min_height = 0.5      ; minimum peak prominence, finite

    [protocol]            ; required by the protocol command
    preset  = ghz_4       ; or file = proto.json, or inline steps:
    ; steps =             ; one step per line: kind order n0 k0 [duration_rule]
    ;     atc 1 0 0 half_period   ; rule: half_period (default), quarter_period
    ;     tc 1 0 1 0.5            ; or a fraction of the Rabi period
    ; initial = 0 0         ; K N (default 0 0)
    ; target  = basis 2 0   ; or: target = ghz
    ;                       ; initial and target go with steps only
    samples = 400         ; >= 2

    [effective]           ; required by the effective command
    kind  = atc
    order = 2
    n0    = 0
    k0    = 0

    [validate]            ; optional for the validate command
    draws = 100
    seed  = 0

    [output]
    directory = out
    format    = csv       ; csv | json, for the scan data file

Every section is read through one schema (SCHEMA below): each key has a
converter and a default, or is required. A malformed value is a ConfigError
naming "[section] key = 'value'". Steps and target follow the same grammar
as a protocol JSON file (protocol.parse_steps, parse_target).

Photon cutoff: an n_max in [model] wins; otherwise a preset's own n_max;
otherwise default_n_max(p, N) = p + N + 4, where p is the highest photon
number the run starts a transition from: max(initial_n, n0) for scan, the
initial n and every step's n0 for protocol, n0 for effective. A [model]
section given with a protocol file must match the file's physics.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .dynamics import DEFAULT_SAMPLES
from .effective import ResonanceTarget
from .model import ModelParams
from .presets import ScanPreset
from .protocol import StepRule, parse_cell, parse_steps, parse_target
from .scan import MAX_SCAN_POINTS


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class InlineProtocolConfig:
    """Inline steps, initial and target: compile_from_rules's other arguments."""

    rules: tuple[StepRule, ...]
    initial: tuple[int, int]
    target_kind: str
    target_cell: tuple[int, int] | None


@dataclass(frozen=True)
class ProtocolConfig:
    preset: str | None
    file: str | None
    inline: InlineProtocolConfig | None
    samples: int


@dataclass(frozen=True)
class ValidateConfig:
    draws: int = 100
    seed: int = 0


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    format: str = "csv"


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration; the defaults are the empty file.

    ``model.n_max`` holds the [model] n_max only if ``model_n_max_explicit``;
    otherwise it is 0 and the command derives the cutoff from its run."""

    model: ModelParams | None = None
    model_n_max_explicit: bool = False
    scan: ScanPreset | None = None
    protocol: ProtocolConfig | None = None
    effective: ResonanceTarget | None = None
    validate: ValidateConfig = ValidateConfig()
    output: OutputConfig = OutputConfig()


def _checked(convert, ok, what: str):
    """``convert``, then reject a value for which ``ok`` is false."""

    def check(raw: str):
        value = convert(raw)
        if not ok(value):
            raise ValueError(f"must be {what}")
        return value

    return check


REQUIRED = object()

_TARGET = {"kind": (str.lower, REQUIRED), **{key: (int, REQUIRED) for key in ("order", "n0", "k0")}}

# section -> key -> (converter of the raw string, default or REQUIRED)
SCHEMA = {
    "model": {
        "n_qubits": (int, REQUIRED),
        "omega_r": (float, 1.0),
        "lambda": (float, REQUIRED),
        "stark_u": (float, REQUIRED),
        "n_max": (int, None),
    },
    "scan": {
        **_TARGET,
        "initial_k": (int, REQUIRED),
        "initial_n": (int, REQUIRED),
        "window_min": (float, REQUIRED),
        "window_max": (float, REQUIRED),
        "points": (
            _checked(int, lambda v: 2 <= v <= MAX_SCAN_POINTS, f"in 2..{MAX_SCAN_POINTS}"),
            801,
        ),
        "duration": (lambda raw: None if raw == "auto" else float(raw), None),
        "min_height": (_checked(float, math.isfinite, "finite"), 0.5),
    },
    "protocol": {
        "preset": (str, None),
        "file": (str, None),
        "steps": (lambda raw: parse_steps(line.split() for line in raw.strip().splitlines()), None),
        "initial": (lambda raw: parse_cell(raw.split()), None),
        "target": (lambda raw: parse_target(raw.split()), None),
        "samples": (_checked(int, lambda v: v >= 2, ">= 2"), DEFAULT_SAMPLES),
    },
    "effective": _TARGET,
    "validate": {"draws": (_checked(int, lambda v: v >= 1, ">= 1"), 100), "seed": (int, 0)},
    "output": {
        "directory": (str, "out"),
        "format": (_checked(str.lower, ("csv", "json").__contains__, "csv or json"), "csv"),
    },
}


def _section(parser: configparser.ConfigParser, name: str) -> dict | None:
    """Section ``name`` converted through its schema, or None if absent."""
    if not parser.has_section(name):
        return None
    schema = SCHEMA[name]
    unknown = set(parser.options(name)) - schema.keys()
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {', '.join(sorted(unknown))}")
    values = {}
    for key, (convert, default) in schema.items():
        raw = parser.get(name, key, fallback=None)
        if raw is None and default is REQUIRED:
            raise ConfigError(f"[{name}] is missing required key '{key}'")
        try:
            values[key] = default if raw is None else convert(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{name}] {key} = {raw!r}: {exc}") from None
    return values


def _target(name: str, values: dict) -> ResonanceTarget:
    try:
        return ResonanceTarget(*(values[key] for key in _TARGET))
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from None


def _model(values: dict) -> ModelParams:
    try:
        return ModelParams(
            n_qubits=values["n_qubits"],
            omega_r=values["omega_r"],
            coupling=values["lambda"],
            stark_u=values["stark_u"],
            n_max=values["n_max"] or 0,
        )
    except ValueError as exc:
        raise ConfigError(f"[model]: {exc}") from None


def _scan(values: dict) -> ScanPreset:
    duration = values["duration"]
    if duration is not None and not (math.isfinite(duration) and duration > 0):
        raise ConfigError(f"[scan] duration must be positive and finite, got {duration}")
    if not values["window_max"] > values["window_min"]:
        raise ConfigError("[scan] window_max must exceed window_min")
    return ScanPreset(
        name="config",
        params=None,
        target=_target("scan", values),
        initial_k=values["initial_k"],
        initial_n=values["initial_n"],
        window=(values["window_min"], values["window_max"]),
        points=values["points"],
        duration=duration,
        min_height=values["min_height"],
    )


def _protocol(values: dict) -> ProtocolConfig:
    if sum(values[key] is not None for key in ("preset", "file", "steps")) != 1:
        raise ConfigError("[protocol] must provide exactly one of: preset, file, steps")
    inline = None
    if values["steps"] is not None:
        if values["target"] is None:
            raise ConfigError("[protocol] is missing required key 'target'")
        inline = InlineProtocolConfig(values["steps"], values["initial"] or (0, 0), *values["target"])
    for key in ("initial", "target"):
        if inline is None and values[key] is not None:
            raise ConfigError(f"[protocol] {key} applies to inline steps only, not to a preset or file")
    return ProtocolConfig(values["preset"], values["file"], inline, values["samples"])


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    unknown = set(parser.sections()) - SCHEMA.keys()
    if unknown:
        raise ConfigError(f"unknown sections: {', '.join(sorted(unknown))}")

    # in SCHEMA order
    model, scan, protocol, effective, validate, output = (_section(parser, name) for name in SCHEMA)
    return RunConfig(
        model=model and _model(model),
        model_n_max_explicit=model is not None and model["n_max"] is not None,
        scan=scan and _scan(scan),
        protocol=protocol and _protocol(protocol),
        effective=effective and _target("effective", effective),
        validate=ValidateConfig(**(validate or {})),
        output=OutputConfig(**(output or {})),
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
