"""Command-line entry point.

Subcommands
-----------
scan       frequency sweep with peak detection (CSV + JSON peak report)
protocol   compile and run a pulse sequence (per-step CSV + JSON summary)
effective  resonance solution, couplings, durations, and the selectivity table
validate   machine-readable invariant report; nonzero exit on any failure

Each command takes its job from ``--preset NAME`` or from its own section of
``--config FILE`` (grammar in config.py), never both; a [model] section may
go with either. ``main`` alone makes that choice, and without ``--config``
it runs ``parse_config("")``. A command returns its files as {name: text}, rendered by
``_csv`` (repr(float) cells, CRLF lines) and ``_json`` (no NaN or infinity). ``main``
then writes them all or none (``_publish``) into ``--out DIR`` if given,
else into the config's [output] directory, and prints the command's summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import presets
from .config import ConfigError, ProtocolConfig, RunConfig, ValidateConfig, parse_config
from .dynamics import DEFAULT_SAMPLES, CutoffExceededError, observables
from .effective import (
    HALF_PERIOD,
    QUARTER_PERIOD,
    ResonanceTarget,
    ratio_from_omega_q,
    rwa_validity_report,
    solve_resonance,
    target_coupling,
    pulse_duration,
)
from .model import ModelParams, _retuned, build_space, default_n_max, dicke_state
from .protocol import compile_from_rules, protocol_from_json, run_protocol
from .protocol import compile_dicke_ladder, compile_ghz4  # not called here: perfbench/tracer.py wraps these names
from .scan import peak_report, resonance_scan, scan_grid


def _csv(header: list[str], table: np.ndarray) -> str:
    """A header row, then one row per row of the 2-D float ``table``. Every
    cell is repr of a float64, the shortest string that reads back to the
    same float, and every line ends in CRLF. The header cells are bare
    identifiers and no cell holds a comma, a quote or a line break, so
    nothing is quoted."""
    lines = [",".join(header), *(",".join(map(repr, row)) for row in table.tolist())]
    return "\r\n".join(lines) + "\r\n"


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
    the [model] n_max if given, else default_n_max(photon, N) for the model
    run, where ``photon`` is the highest photon number the run starts a
    transition from."""
    model = config.model if config.model is not None else preset
    if model is None:
        raise ConfigError("a [model] section is required (or --preset)")
    if config.model_n_max_explicit:
        return model
    return replace(model, n_max=default_n_max(photon, model.n_qubits))


def cmd_scan(config: RunConfig, job: presets.ScanPreset, fmt: str) -> tuple[dict[str, str], str]:
    target = job.target
    params = _resolve_params(config, job.params, max(job.initial_n, target.n0))

    omega_q_star = solve_resonance(target, params)
    predicted = ratio_from_omega_q(omega_q_star, params)
    tuned = _retuned(params, omega_q_star)
    duration = job.duration if job.duration is not None else pulse_duration(target, tuned)

    space = build_space(params)
    psi0 = dicke_state(space, job.initial_k, job.initial_n)
    grid = scan_grid(job.window, job.points)
    curve = resonance_scan(psi0, grid, duration, params, space)
    report = peak_report(curve, target, predicted, job.min_height)

    columns = {"ratio": curve.ratios, "nq": curve.nq, "nph": curve.nph}
    if fmt == "csv":
        data = {"scan.csv": _csv(list(columns), np.column_stack(list(columns.values())))}
    else:
        payload = {name: values.tolist() for name, values in columns.items()}
        data = {"scan.json": _json({**payload, "duration": curve.duration})}
    summary = (
        f"scan {target.label()}: peak at {report.location:.6f}"
        f" (predicted {report.predicted_location:.6f},"
        f" error {report.abs_error:.2e}), height {report.height:.4f}"
    )
    return {**data, "peaks.json": _json({**asdict(report), "n_max": params.n_max})}, summary


def _compile_protocol(config: RunConfig, job: ProtocolConfig):
    """The job's record, read from its file or held by the job, compiled
    once: a preset's or inline steps' at the run's model (compile_from_rules
    refuses a preset under another N), and a file's at its own physics, so
    that run_protocol refuses a [model] that differs from the file."""
    spec = job.spec
    if job.file is not None:
        try:
            spec = protocol_from_json(Path(job.file).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"[protocol] file = {job.file!r}: {exc}") from None
    params = _resolve_params(config, spec.params, spec.highest_start_photon)
    return compile_from_rules(spec, params if job.file is None else spec.params), params


def cmd_protocol(config: RunConfig, job: ProtocolConfig) -> tuple[dict[str, str], str]:
    proto, params = _compile_protocol(config, job)
    space = build_space(params)
    result = run_protocol(proto, params, space, samples=job.samples)

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
        "fidelity": result.fidelity_optimized,
        "fidelity_phase_exact": result.fidelity,
        "fidelity_phase_optimized": result.fidelity_optimized,
        "target_phase": result.target_phase,
        "final_nq": nq,
        "final_nph": nph,
        "step_boundary_populations": [
            {f"k{k}_n{n}": p for (k, n), p in pops.items() if p > 1e-12}
            for pops in result.step_boundary_populations()
        ],
        "n_max": params.n_max,
    }

    # per step: t, the drive-phase axis lambda_t = coupling * t, nq, nph, and
    # one population column per basis cell in flat-index order
    files = {
        f"step{index}_trajectory.csv": _csv(
            ["t", "lambda_t", "nq", "nph"] + [f"pop_k{k}_n{n}" for k, n in traj.space.labels()],
            np.column_stack([traj.times, params.coupling * traj.times, traj.nq, traj.nph, traj.populations]),
        )
        for index, traj in enumerate(result.per_step, start=1)
    }
    files["protocol.json"] = proto.to_json() + "\n"
    files["summary.json"] = _json(summary)
    return files, (
        f"protocol {proto.name}: fidelity {summary['fidelity']:.4f}"
        f" (phase-exact {result.fidelity:.4f}), final <N_q> = {nq:.3f}"
    )


def cmd_effective(config: RunConfig, job: presets.ScanPreset | ResonanceTarget) -> tuple[dict[str, str], str]:
    if isinstance(job, presets.ScanPreset):
        # as scan: a preset's run starts from its initial cell
        base, target, initial_n = job.params, job.target, job.initial_n
    else:
        base, target, initial_n = None, job, 0
    params = _resolve_params(config, base, max(initial_n, target.n0))

    omega_q = solve_resonance(target, params)
    tuned = _retuned(params, omega_q)
    space = build_space(tuned)
    coupling = target_coupling(target, tuned)
    # a target with zero coupling is refused here, before the report is built
    half, quarter = (pulse_duration(target, tuned, period) for period in (HALF_PERIOD, QUARTER_PERIOD))
    report = rwa_validity_report(target, tuned, space)
    min_adjacent = report.min_ratio(adjacent_only=True)
    payload = {
        "target": {**asdict(target), "label": target.label()},
        "omega_q": omega_q,
        "ratio": ratio_from_omega_q(omega_q, params),
        "coupling": coupling,
        "duration_half_period": half,
        "duration_quarter_period": quarter,
        # infinite when no competing channel is coupled; JSON has no infinity
        "min_competing_ratio_adjacent": _finite_or_none(min_adjacent),
        "min_competing_ratio_all": _finite_or_none(report.min_ratio()),
        "channels": [{**c._asdict(), "ratio": _finite_or_none(c.ratio)} for c in report.channels],
        "n_max": params.n_max,
    }
    return {"effective.json": _json(payload)}, (
        f"effective {target.label()}: ratio {payload['ratio']:.6f},"
        f" coupling {coupling:.6g}, min adjacent |delta|/Omega"
        f" {min_adjacent:.1f}"
    )


def cmd_validate(job: ValidateConfig) -> tuple[dict[str, str], str, int]:
    # imported here, at call time, so that a tracer that wraps
    # validate.run_validation after importing this module still sees the
    # call; a module-level import would bind the unwrapped function
    from .validate import run_validation

    checks, ok = run_validation(draws=job.draws, seed=job.seed)
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
            table = presets.PROTOCOL_PRESETS if name == "protocol" else presets.SCAN_PRESETS
            p.add_argument("--preset", help=f"named preset ({', '.join(table)})")
        p.add_argument("--out", type=Path, help="output directory (default: [output] directory)")
        if name == "scan":
            p.add_argument("--format", choices=("csv", "json"), help="scan data format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config.read_text(encoding="utf-8") if args.config else "")
        out_dir = args.out or Path(config.output.directory)
        # the job: the command's section, or --preset NAME as the record that
        # section parses to ([protocol] preset = NAME for protocol)
        job, preset = getattr(config, args.command), getattr(args, "preset", None)
        if preset is not None:
            if job is not None:
                raise ConfigError(f"--preset {preset} and the [{args.command}] section each name a job; give one")
            if args.command == "protocol":
                job = ProtocolConfig(presets.protocol_preset(preset), None, DEFAULT_SAMPLES)
            else:
                job = presets.scan_preset(preset)
        elif job is None:
            raise ConfigError(f"{args.command} requires --preset NAME or a [{args.command}] section")
        code = 0
        if args.command == "scan":
            files, summary = cmd_scan(config, job, args.format or config.output.format)
        elif args.command == "protocol":
            files, summary = cmd_protocol(config, job)
        elif args.command == "effective":
            files, summary = cmd_effective(config, job)
        else:
            files, summary, code = cmd_validate(job)
        _publish(out_dir, files)
    except (ValueError, CutoffExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
