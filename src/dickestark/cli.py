"""Command-line entry point.

Subcommands
-----------
scan       frequency sweep with peak detection (CSV + JSON peak report)
protocol   compile and run a pulse sequence (per-step CSV + JSON summary)
effective  resonance solution, couplings, durations, and the selectivity table
validate   machine-readable invariant report; nonzero exit on any failure

Each command reads either ``--config FILE`` (grammar in config.py) or
``--preset NAME`` and returns its files as {name: text}, rendered by
``_csv`` (repr(float) cells) and ``_json`` (no NaN or infinity). ``main``
then writes them all or none (``_publish``) into ``--out DIR`` if given,
else into the config's [output] directory, and prints the command's summary.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import presets
from .config import ConfigError, RunConfig, load_config
from .dynamics import DEFAULT_SAMPLES, CutoffExceededError, observables
from .effective import (
    ratio_from_omega_q,
    rwa_validity_report,
    solve_resonance,
    target_coupling,
    pulse_duration,
)
from .model import BasisKind, ModelParams, build_space, default_n_max, dicke_state
from .protocol import (
    compile_dicke_ladder,
    compile_ghz4,
    compile_from_rules,
    highest_start_photon,
    protocol_from_json,
    run_protocol,
)
from .scan import peak_report, resonance_scan, scan_grid


def _csv(header: list[str], columns) -> str:
    """A header row, then one row per sample across ``columns`` (equal-length
    sequences of numbers), every cell written as repr(float)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(float(v)) for v in row] for row in zip(*columns))
    return buf.getvalue()


def _json(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _publish(out_dir: Path, files: dict[str, str]) -> None:
    """Write all of ``files`` into ``out_dir`` or none of them: each is
    staged under a temporary name in ``out_dir`` and renamed into place only
    once every write has succeeded. On an OSError the staged files and the
    directories this call created are removed and the error propagates."""
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, text in files.items():
            tmp = out_dir / f".{name}.{os.getpid()}.tmp"
            staged.append((tmp, out_dir / name))
            tmp.write_bytes(text.encode("utf-8"))
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for directory in created:
            directory.rmdir()
        raise


def _resolve_params(config: RunConfig, preset: ModelParams | None, photon: int) -> ModelParams:
    """The [model] section over the preset's parameters. The photon cutoff is
    the [model] n_max if given, else the preset's, else
    default_n_max(photon, N), where ``photon`` is the highest photon number
    the run starts a transition from."""
    model = config.model if config.model is not None else preset
    if model is None:
        raise ConfigError("a [model] section is required (or --preset)")
    if config.model_n_max_explicit:
        return model
    n_max = preset.n_max if preset is not None else default_n_max(photon, model.n_qubits)
    return replace(model, n_max=n_max)


def cmd_scan(config: RunConfig, preset_name: str | None, fmt: str) -> tuple[dict[str, str], str]:
    if preset_name is not None:
        job = presets.scan_preset(preset_name)
    elif config.scan is not None:
        job = config.scan
    else:
        raise ConfigError("scan requires [model] and [scan] sections (or --preset)")
    target = job.target
    params = _resolve_params(config, job.params, max(job.initial_n, target.n0))

    omega_q_star = solve_resonance(target, params)
    predicted = ratio_from_omega_q(omega_q_star, params)
    tuned = replace(params, omega_q=omega_q_star)
    duration = (
        job.duration
        if job.duration is not None
        else pulse_duration(target, tuned, job.duration_fraction)
    )

    space = build_space(params, BasisKind.SYMMETRIC)
    psi0 = dicke_state(space, job.initial_k, job.initial_n)
    grid = scan_grid(job.window, job.points)
    curve = resonance_scan(psi0, grid, duration, params, space)
    report = peak_report(curve, target, predicted, job.min_height)

    columns = {"ratio": curve.ratios, "nq": curve.nq, "nph": curve.nph}
    if fmt == "csv":
        data = {"scan.csv": _csv(list(columns), columns.values())}
    else:
        payload = {name: [float(v) for v in values] for name, values in columns.items()}
        data = {"scan.json": _json({**payload, "duration": curve.duration})}
    summary = (
        f"scan {target.label()}: peak at {report.location:.6f}"
        f" (predicted {report.predicted_location:.6f},"
        f" error {report.abs_error:.2e}), height {report.height:.4f}"
    )
    return {**data, "peaks.json": _json(asdict(report))}, summary


def _compile_protocol(config: RunConfig, preset_name: str | None):
    if preset_name is None and config.protocol is not None and config.protocol.preset:
        preset_name = config.protocol.preset

    if preset_name is not None:
        # both presets start every transition from n = 0
        params = _resolve_params(config, presets.protocol_preset(preset_name), 0)
        if preset_name == "ghz_4":
            return compile_ghz4(params), params
        return compile_dicke_ladder(4, 4, params), params

    if config.protocol is None:
        raise ConfigError("protocol requires a [protocol] section (or --preset)")
    if config.protocol.file is not None:
        try:
            proto = protocol_from_json(Path(config.protocol.file).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"[protocol] file = {config.protocol.file!r}: {exc}") from None
        photon = highest_start_photon(proto.initial, proto.rules)
        return proto, _resolve_params(config, proto.params, photon)
    inline = config.protocol.inline
    params = _resolve_params(config, None, highest_start_photon(inline.initial, inline.rules))
    return compile_from_rules("custom", params, **vars(inline)), params


def cmd_protocol(config: RunConfig, preset_name: str | None) -> tuple[dict[str, str], str]:
    proto, params = _compile_protocol(config, preset_name)
    space = build_space(params, BasisKind.SYMMETRIC)
    samples = config.protocol.samples if config.protocol is not None else DEFAULT_SAMPLES
    result = run_protocol(proto, params, space, samples=samples)

    nq, nph = observables(result.final)
    summary = {
        "protocol": proto.name,
        "steps": [
            {
                "label": step.label,
                "omega_q": step.omega_q,
                "ratio": ratio_from_omega_q(step.omega_q, params),
                "duration": step.duration,
            }
            for step in proto.steps
        ],
        "fidelity": result.fidelity_optimized if proto.target_kind == "ghz" else result.fidelity,
        "fidelity_phase_exact": result.fidelity,
        "fidelity_phase_optimized": result.fidelity_optimized,
        "target_phase": result.target_phase,
        "final_nq": nq,
        "final_nph": nph,
        "step_boundary_populations": [
            {f"k{k}_n{n}": p for (k, n), p in pops.items() if p > 1e-12}
            for pops in result.step_boundary_populations()
        ],
    }

    # per step: t, the drive-phase axis lambda_t = coupling * t, nq, nph, and
    # one population column per basis cell in flat-index order
    files = {
        f"step{index}_trajectory.csv": _csv(
            ["t", "lambda_t", "nq", "nph"] + [f"pop_k{k}_n{n}" for k, n in traj.space.labels()],
            [traj.times, params.coupling * traj.times, traj.nq, traj.nph, *traj.populations.T],
        )
        for index, traj in enumerate(result.per_step, start=1)
    }
    files["protocol.json"] = proto.to_json() + "\n"
    files["summary.json"] = _json(summary)
    return files, (
        f"protocol {proto.name}: fidelity {summary['fidelity']:.4f}"
        f" (phase-exact {result.fidelity:.4f}), final <N_q> = {nq:.3f}"
    )


def cmd_effective(config: RunConfig, preset_name: str | None) -> tuple[dict[str, str], str]:
    if preset_name is not None:
        preset = presets.scan_preset(preset_name)
        base, target = preset.params, preset.target
    elif config.effective is not None:
        base, target = None, config.effective
    else:
        raise ConfigError("effective requires [model] and [effective] sections (or --preset)")
    params = _resolve_params(config, base, target.n0)

    omega_q = solve_resonance(target, params)
    tuned = replace(params, omega_q=omega_q)
    space = build_space(tuned, BasisKind.SYMMETRIC)
    coupling = target_coupling(target, tuned)
    report = rwa_validity_report(target, tuned, space)
    min_adjacent = report.min_ratio(adjacent_only=True)
    payload = {
        "target": {**asdict(target), "label": target.label()},
        "omega_q": omega_q,
        "ratio": ratio_from_omega_q(omega_q, params),
        "coupling": coupling,
        "duration_half_period": pulse_duration(target, tuned, 0.5),
        "duration_quarter_period": pulse_duration(target, tuned, 0.25),
        # infinite when no competing channel is coupled; JSON has no infinity
        "min_competing_ratio_adjacent": _finite_or_none(min_adjacent),
        "min_competing_ratio_all": _finite_or_none(report.min_ratio()),
        "channels": [{**c._asdict(), "ratio": _finite_or_none(c.ratio)} for c in report.channels],
    }
    return {"effective.json": _json(payload)}, (
        f"effective {target.label()}: ratio {payload['ratio']:.6f},"
        f" coupling {coupling:.6g}, min adjacent |delta|/Omega"
        f" {min_adjacent:.1f}"
    )


def cmd_validate(config: RunConfig) -> tuple[dict[str, str], str, int]:
    from .validate import run_validation

    checks, ok = run_validation(draws=config.validate.draws, seed=config.validate.seed)
    lines = [
        f"{'PASS' if check.passed else 'FAIL'} {check.name} [{check.scale}] {check.detail}".rstrip()
        for check in checks
    ]
    lines.append("validation: " + ("all checks passed" if ok else "FAILURES present"))
    files = {"validation.json": _json({"passed": ok, "checks": [asdict(c) for c in checks]})}
    return files, "\n".join(lines), 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickestark",
        description="Selective interactions, resonance scans, and state-preparation"
        " protocols for N qubits coupled to a resonator with a photon-number-"
        "dependent frequency shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("scan", "sweep the qubit frequency and report resonance peaks"),
        ("protocol", "compile and execute a state-preparation sequence"),
        ("effective", "solve a resonance and report couplings and selectivity"),
        ("validate", "run the invariant suite and emit a pass/fail report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="INI run configuration")
        if name != "validate":
            p.add_argument("--preset", help="named preset (fig2a..fig8, dicke_ladder_4, ghz_4)")
        p.add_argument("--out", type=Path, help="output directory (default: [output] directory)")
        if name == "scan":
            p.add_argument("--format", choices=("csv", "json"), help="scan data format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        out_dir = args.out or Path(config.output.directory)
        preset = getattr(args, "preset", None)
        code = 0
        if args.command == "scan":
            files, summary = cmd_scan(config, preset, args.format or config.output.format)
        elif args.command == "protocol":
            files, summary = cmd_protocol(config, preset)
        elif args.command == "effective":
            files, summary = cmd_effective(config, preset)
        else:
            files, summary, code = cmd_validate(config)
        _publish(out_dir, files)
    except (ValueError, CutoffExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
