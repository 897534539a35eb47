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
    points     = 801
    duration   = auto     ; auto = half oscillation of the target, or a time
    min_height = 0.5

    [protocol]            ; required by the protocol command
    preset  = ghz_4       ; or file = proto.json, or inline steps:
    ; steps =
    ;     atc 1 0 0 half_period
    ;     tc 1 0 1 half_period
    ; initial = 0 0
    ; target  = basis 2 0   ; or: target = ghz
    samples = 400

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

from .effective import ResonanceTarget
from .model import ModelParams
from .presets import ScanPreset
from .protocol import DURATION_RULES, StepRule


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class InlineProtocolConfig:
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


_KNOWN_SECTIONS = {"model", "scan", "protocol", "effective", "validate", "output"}

_SECTION_KEYS = {
    "model": {"n_qubits", "omega_r", "lambda", "stark_u", "n_max"},
    "scan": {
        "kind",
        "order",
        "n0",
        "k0",
        "initial_k",
        "initial_n",
        "window_min",
        "window_max",
        "points",
        "duration",
        "min_height",
    },
    "protocol": {"preset", "file", "steps", "initial", "target", "samples"},
    "effective": {"kind", "order", "n0", "k0"},
    "validate": {"draws", "seed"},
    "output": {"directory", "format"},
}


def _check_keys(section: str, present) -> None:
    unknown = set(present) - _SECTION_KEYS[section]
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")


def _get(parser, section, key, convert, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] is missing required key '{key}'")
        return default
    raw = parser.get(section, key)
    try:
        return convert(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _parse_target(parser, section) -> ResonanceTarget:
    kind = _get(parser, section, "kind", str, required=True).strip().lower()
    order = _get(parser, section, "order", int, required=True)
    n0 = _get(parser, section, "n0", int, required=True)
    k0 = _get(parser, section, "k0", int, required=True)
    try:
        return ResonanceTarget(kind, order, n0, k0)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def _parse_steps(raw: str) -> tuple[StepRule, ...]:
    rules = []
    for line_no, line in enumerate(raw.strip().splitlines(), start=1):
        fields = line.split()
        if len(fields) not in (4, 5):
            raise ConfigError(
                f"protocol step {line_no}: expected 'kind order n0 k0 [duration_rule]',"
                f" got {line!r}"
            )
        kind, order, n0, k0 = fields[0].lower(), int(fields[1]), int(fields[2]), int(fields[3])
        if len(fields) == 5:
            name = fields[4]
            if name in DURATION_RULES:
                fraction = DURATION_RULES[name]
            else:
                fraction = float(name)
        else:
            fraction = 0.5
        try:
            rules.append(StepRule(ResonanceTarget(kind, order, n0, k0), fraction))
        except ValueError as exc:
            raise ConfigError(f"protocol step {line_no}: {exc}") from None
    if not rules:
        raise ConfigError("protocol steps block is empty")
    return tuple(rules)


def _parse_pair(raw: str, what: str) -> tuple[int, int]:
    fields = raw.split()
    if len(fields) != 2:
        raise ConfigError(f"{what} expects two integers, got {raw!r}")
    return int(fields[0]), int(fields[1])


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None

    unknown = set(parser.sections()) - _KNOWN_SECTIONS
    if unknown:
        raise ConfigError(f"unknown sections: {', '.join(sorted(unknown))}")

    model = None
    n_max_explicit = False
    if parser.has_section("model"):
        _check_keys("model", parser.options("model"))
        n_qubits = _get(parser, "model", "n_qubits", int, required=True)
        n_max = _get(parser, "model", "n_max", int)
        n_max_explicit = n_max is not None
        try:
            model = ModelParams(
                n_qubits=n_qubits,
                omega_r=_get(parser, "model", "omega_r", float, default=1.0),
                omega_q=1.0,
                coupling=_get(parser, "model", "lambda", float, required=True),
                stark_u=_get(parser, "model", "stark_u", float, required=True),
                n_max=n_max if n_max is not None else 0,
            )
        except ValueError as exc:
            raise ConfigError(f"[model]: {exc}") from None

    scan = None
    if parser.has_section("scan"):
        _check_keys("scan", parser.options("scan"))
        duration_raw = _get(parser, "scan", "duration", str, default="auto").strip()
        duration = None if duration_raw == "auto" else float(duration_raw)
        if duration is not None and not (math.isfinite(duration) and duration > 0):
            raise ConfigError(f"[scan] duration must be positive and finite, got {duration}")
        window = (
            _get(parser, "scan", "window_min", float, required=True),
            _get(parser, "scan", "window_max", float, required=True),
        )
        if not window[1] > window[0]:
            raise ConfigError("[scan] window_max must exceed window_min")
        scan = ScanPreset(
            name="config",
            params=None,
            target=_parse_target(parser, "scan"),
            initial_k=_get(parser, "scan", "initial_k", int, required=True),
            initial_n=_get(parser, "scan", "initial_n", int, required=True),
            window=window,
            points=_get(parser, "scan", "points", int, default=801),
            duration=duration,
            min_height=_get(parser, "scan", "min_height", float, default=0.5),
        )
        if scan.points < 2:
            raise ConfigError("[scan] points must be >= 2")

    protocol = None
    if parser.has_section("protocol"):
        _check_keys("protocol", parser.options("protocol"))
        preset = _get(parser, "protocol", "preset", str)
        file = _get(parser, "protocol", "file", str)
        steps_raw = _get(parser, "protocol", "steps", str)
        provided = [x for x in (preset, file, steps_raw) if x is not None]
        if len(provided) != 1:
            raise ConfigError(
                "[protocol] must provide exactly one of: preset, file, steps"
            )
        inline = None
        if steps_raw is not None:
            target_raw = _get(parser, "protocol", "target", str, required=True).split()
            if target_raw[0] == "ghz":
                kind, cell = "ghz", None
            elif target_raw[0] == "basis" and len(target_raw) == 3:
                kind, cell = "basis", (int(target_raw[1]), int(target_raw[2]))
            else:
                raise ConfigError(
                    "[protocol] target must be 'ghz' or 'basis K N'"
                )
            initial = _parse_pair(
                _get(parser, "protocol", "initial", str, default="0 0"), "[protocol] initial"
            )
            inline = InlineProtocolConfig(
                rules=_parse_steps(steps_raw),
                initial=initial,
                target_kind=kind,
                target_cell=cell,
            )
        protocol = ProtocolConfig(
            preset=preset,
            file=file,
            inline=inline,
            samples=_get(parser, "protocol", "samples", int, default=400),
        )
        if protocol.samples < 2:
            raise ConfigError("[protocol] samples must be >= 2")

    effective = None
    if parser.has_section("effective"):
        _check_keys("effective", parser.options("effective"))
        effective = _parse_target(parser, "effective")

    validate = ValidateConfig()
    if parser.has_section("validate"):
        _check_keys("validate", parser.options("validate"))
        validate = ValidateConfig(
            draws=_get(parser, "validate", "draws", int, default=100),
            seed=_get(parser, "validate", "seed", int, default=0),
        )
        if validate.draws < 1:
            raise ConfigError("[validate] draws must be >= 1")

    output = OutputConfig()
    if parser.has_section("output"):
        _check_keys("output", parser.options("output"))
        fmt = _get(parser, "output", "format", str, default="csv").strip().lower()
        if fmt not in ("csv", "json"):
            raise ConfigError(f"[output] format must be csv or json, got {fmt!r}")
        output = OutputConfig(
            directory=_get(parser, "output", "directory", str, default="out"),
            format=fmt,
        )

    return RunConfig(
        model=model,
        model_n_max_explicit=n_max_explicit,
        scan=scan,
        protocol=protocol,
        effective=effective,
        validate=validate,
        output=output,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
