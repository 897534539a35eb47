"""The command line, through ``cli.main``.

Most checks of a whole run are rows of one table, ``Run``: the argv (without
``--out``), the text passed as ``--config`` (a config, or a function of the
test's directory that also writes a protocol file), the exit code, the
stderr fragments, the files written (none for a refusal, whose ``--out``
must not exist), whether a rerun writes the same bytes, and a check of the
output for what those fields cannot say. ``_check_run`` is the one body that
runs a row and asserts all of it, and that stderr holds no traceback and no
warning. Rows run in-process through ``cli.main``, under pyproject's
``error::RuntimeWarning`` filter. The rows with ``process=True``, the two
overflow repros and one preset per command, run as
``python -W error::RuntimeWarning -m dickestark`` subprocesses. The rows are
collected under four test names: REFUSED_ARGS, REFUSED_CONFIGS and OVERFLOWS
under the names their tests had before they were merged into this table, and
RUNS under ``test_cli_run``.

Tier-1 runs this file on ``src/``. CI's ``runtime`` job runs the same file
against the installed package, with neither scipy nor hypothesis installed:
``python -m pytest -q tests/test_cli.py`` from the checkout root, where the
src layout leaves the installed ``dickestark`` the one importable. So this
module imports neither (``test_imports_neither_scipy_nor_hypothesis``).
"""

import ast
import builtins
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import dickestark

from dickestark.cli import main
from dickestark.config import ConfigError, parse_config
from dickestark.dynamics import MAX_SAMPLES
from dickestark.model import default_n_max
from dickestark.presets import PROTOCOL_PRESETS, SCAN_PRESETS, scan_preset

@dataclass(frozen=True)
class Run:
    """One CLI run of the table and what it must do (module docstring)."""

    name: str
    argv: tuple[str, ...]
    text: str | Callable[[Path], str] | None = None
    code: int = 2
    err: tuple[str, ...] = ()
    files: tuple[str, ...] = ()
    rerun: bool = False
    process: bool = False
    check: Callable[[Path], None] | None = None


def _run_name(run: Run) -> str:
    return run.name


def _check_run(run: Run, tmp_path: Path, capsys) -> None:
    argv = list(run.argv)
    if run.text is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(run.text(tmp_path) if callable(run.text) else run.text)
        argv += ["--config", str(cfg)]
    outs = [tmp_path / "out", tmp_path / "rerun"][: 1 + run.rerun]
    for out in outs:
        if run.process:
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "dickestark", *argv, "--out", str(out)],
                env=_package_env(),
                capture_output=True,
                text=True,
            )
            code, err = proc.returncode, proc.stderr
        else:
            code, err = main(argv + ["--out", str(out)]), capsys.readouterr().err
        assert code == run.code, err
        for fragment in run.err:
            assert fragment in err
        assert "Traceback" not in err and "Warning" not in err
        if run.files:
            assert sorted(path.name for path in out.iterdir()) == sorted(run.files)
        else:
            assert not out.exists()
    if run.rerun:
        first, second = ({path.name: path.read_bytes() for path in out.iterdir()} for out in outs)
        assert first == second
    if run.check is not None:
        run.check(outs[0])


SCAN_INI = """
[model]
n_qubits = 4
omega_r = 1.0
lambda = 0.006
stark_u = -0.5

[scan]
kind = tc
order = 1
n0 = 0
k0 = 1
initial_k = 1
initial_n = 1
window_min = -0.325
window_max = 0.075
points = 161

[output]
format = csv
"""

INLINE_PROTOCOL_INI = """
[model]
n_qubits = 4
lambda = 0.006
stark_u = -0.5

[protocol]
steps =
    atc 1 0 0 half_period
target = basis 1 1
samples = 50
"""


class TestConfigParsing:
    def test_scan_roundtrip(self):
        cfg = parse_config(SCAN_INI)
        assert cfg.model.n_qubits == 4
        assert cfg.model.coupling == 0.006
        assert cfg.scan.target.kind == "tc"
        assert cfg.scan.window == (-0.325, 0.075)
        assert cfg.scan.duration is None

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown sections"):
            parse_config("[nonsense]\na = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config("[model]\nn_qubits = 2\nlambda = 0.1\nstark_u = -1\nwhat = 3\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("[model]\nn_qubits = 2\n")

    def test_bad_window(self):
        bad = SCAN_INI.replace("window_max = 0.075", "window_max = -0.5")
        with pytest.raises(ConfigError, match="window_max"):
            parse_config(bad)

    def test_protocol_exclusive_sources(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(
                "[model]\nn_qubits = 4\nlambda = 0.1\nstark_u = -16\n"
                "[protocol]\npreset = ghz_4\nfile = x.json\n"
            )

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_inline_fraction_named(self, value):
        # used to pass parsing and fail at run time on non-finite step data
        text = INLINE_PROTOCOL_INI.replace("atc 1 0 0 half_period", f"atc 1 0 0 {value}")
        with pytest.raises(ConfigError, match="fraction must be positive and finite"):
            parse_config(text)

    def test_inline_protocol(self):
        cfg = parse_config(INLINE_PROTOCOL_INI)
        spec = cfg.protocol.spec
        # no model of its own: the run's [model] compiles it
        assert spec.name == "custom" and spec.params is None and cfg.protocol.file is None
        assert len(spec.rules) == 1
        assert spec.rules[0].target.kind == "atc"
        assert spec.initial == (0, 0)
        assert spec.target_cell == (1, 1)


class TestScanCommand:
    def test_preset_run(self, tmp_path):
        out = tmp_path / "scan"
        assert main(["scan", "--preset", "fig4", "--out", str(out)]) == 0
        assert (out / "scan.csv").exists()
        report = json.loads((out / "peaks.json").read_text())
        assert abs(report["location"] - (-0.125)) < 0.005
        assert report["abs_error"] < 0.005

    def test_config_run_json_format(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SCAN_INI)
        out = tmp_path / "scanj"
        code = main(["scan", "--config", str(cfg), "--out", str(out), "--format", "json"])
        assert code == 0
        data = json.loads((out / "scan.json").read_text())
        assert len(data["ratio"]) == 161

    def test_malformed_config_no_partial_files(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(SCAN_INI.replace("kind = tc", "kind = zz"))
        out = tmp_path / "never"
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) != 0
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_duration_exits_2_naming_it(self, tmp_path, capsys, value):
        # used to exit 2 with a misleading "no peak" error after RuntimeWarnings
        cfg = tmp_path / "dur.ini"
        cfg.write_text(SCAN_INI.replace("points = 161", f"points = 161\nduration = {value}"))
        out = tmp_path / "never"
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[scan] duration must be positive and finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e16", "1e300"])
    def test_duration_beyond_the_phase_limit_exits_2_naming_it(self, tmp_path, capsys, value):
        # used to exit 0 with nq 0.7086 (1e16) or 0.1194 (1e300) at ratio 2.125
        cfg = tmp_path / "long.ini"
        cfg.write_text(
            "[model]\nn_qubits = 4\nlambda = 0.006\nstark_u = -0.5\n\n"
            "[scan]\nkind = atc\norder = 1\nn0 = 0\nk0 = 0\ninitial_k = 0\ninitial_n = 0\n"
            f"window_min = 2.12\nwindow_max = 2.13\npoints = 11\nduration = {value}\nmin_height = -1\n"
        )
        out = tmp_path / "never"
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"duration {float(value)!r} leaves the phases no precision" in err
        assert not out.exists()

    def test_truncated_fock_space_exits_2_naming_the_ratio(self, tmp_path, capsys):
        # used to exit 0 with the peak at -0.2347 instead of -0.2390
        cfg = tmp_path / "tight.ini"
        cfg.write_text(
            "[model]\nn_qubits = 4\nlambda = 0.2\nstark_u = -0.5\nn_max = 2\n\n"
            "[scan]\nkind = tc\norder = 1\nn0 = 0\nk0 = 0\ninitial_k = 0\ninitial_n = 1\n"
            "window_min = -0.6\nwindow_max = 0.1\npoints = 71\n"
        )
        out = tmp_path / "never"
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scan ratio -0.6: population" in err and "raise n_max" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [["scan", "--config", "{cfg}"], ["scan", "--preset", "fig4"], ["protocol", "--preset", "ghz_4"]],
        ids=["scan-config", "scan-preset", "protocol-preset"],
    )
    def test_reproducible_output(self, tmp_path, args):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = tmp_path / "run.ini"
        cfg.write_text(SCAN_INI)
        args = [arg.format(cfg=cfg) for arg in args]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        names = sorted(path.name for path in out1.iterdir())
        assert names == sorted(path.name for path in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestProtocolCommand:
    def test_ghz_preset(self, tmp_path):
        out = tmp_path / "ghz"
        assert main(["protocol", "--preset", "ghz_4", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["fidelity"] - 0.9952) < 0.002
        assert summary["fidelity_phase_optimized"] == summary["fidelity"]
        assert 0 <= summary["fidelity_phase_exact"] <= 1
        assert (out / "step1_trajectory.csv").exists()
        assert (out / "step2_trajectory.csv").exists()
        assert (out / "protocol.json").exists()

    def test_dicke_ladder_preset(self, tmp_path):
        out = tmp_path / "ladder"
        assert main(["protocol", "--preset", "dicke_ladder_4", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fidelity"] >= 0.99
        assert len(summary["steps"]) == 4
        ratios = [s["ratio"] for s in summary["steps"]]
        assert ratios == pytest.approx([2.125, -0.125, 1.875, 0.125], abs=1e-9)

    def test_inline_protocol(self, tmp_path):
        cfg = tmp_path / "inline.ini"
        cfg.write_text(INLINE_PROTOCOL_INI)
        out = tmp_path / "inline_out"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fidelity"] >= 0.98

    def test_single_step_at_photon_absorbing_resonance(self, tmp_path):
        # inline single step from (1, 1): ends with >= 0.98 in (2, 0)
        cfg = tmp_path / "step.ini"
        cfg.write_text(
            "[model]\nn_qubits = 4\nlambda = 0.006\nstark_u = -0.5\n\n"
            "[protocol]\nsteps =\n    tc 1 0 1 half_period\n"
            "initial = 1 1\ntarget = basis 2 0\nsamples = 50\n"
        )
        out = tmp_path / "step_out"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fidelity"] >= 0.98
        assert summary["step_boundary_populations"][0]["k2_n0"] >= 0.98

    def test_protocol_file_source(self, tmp_path):
        from dickestark.model import ModelParams, default_n_max
        from dickestark.protocol import compile_dicke_ladder

        params = ModelParams(
            n_qubits=4, coupling=0.006, stark_u=-0.5, n_max=default_n_max(0, 4)
        )
        proto_path = tmp_path / "ladder.json"
        proto_path.write_text(compile_dicke_ladder(4, 1, params).to_json())
        cfg = tmp_path / "file.ini"
        cfg.write_text(f"[protocol]\nfile = {proto_path}\nsamples = 50\n")
        out = tmp_path / "file_out"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fidelity"] >= 0.99

    def test_step_beyond_the_phase_limit_exits_2_naming_its_duration(self, tmp_path, capsys):
        # a step of 1e300 Rabi periods used to exit 0 with fidelity 0.6562
        cfg = tmp_path / "long.ini"
        cfg.write_text(INLINE_PROTOCOL_INI.replace("atc 1 0 0 half_period", "atc 1 0 0 1e300"))
        out = tmp_path / "never"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "step 1: duration 5.235987755982988e+302 leaves the phases no precision" in err
        assert not out.exists()

    def test_cutoff_error_surfaces(self, tmp_path, capsys):
        cfg = tmp_path / "tight.ini"
        cfg.write_text("[model]\nn_qubits = 4\nlambda = 0.1\nstark_u = -16\nn_max = 1\n")
        out = tmp_path / "never"
        code = main(["protocol", "--config", str(cfg), "--preset", "ghz_4", "--out", str(out)])
        assert code != 0
        assert "n_max" in capsys.readouterr().err
        assert not out.exists()


class TestTrajectoryCsv:
    def test_columns_and_axis(self, tmp_path):
        from dickestark.model import default_n_max

        cfg = tmp_path / "inline.ini"
        cfg.write_text(INLINE_PROTOCOL_INI)
        out = tmp_path / "out"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "step1_trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["t", "lambda_t", "nq", "nph"]
        assert header[4] == "pop_k0_n0"
        assert len(header) == 4 + (4 + 1) * (default_n_max(0, 4) + 1)
        assert len(lines) == 50 + 1
        for line in lines[1:]:
            row = line.split(",")
            assert float(row[1]) == pytest.approx(0.006 * float(row[0]))


class TestCsvEncoding:
    """Every CSV the CLI writes is a header row, then one row per grid point
    or sample, each cell repr of the float64 the run computed, and every line
    ends in CRLF. The expected cells come from the same run recomputed
    through the library."""

    @staticmethod
    def _rows(path):
        text = path.read_bytes().decode("utf-8")
        assert text.endswith("\r\n")
        lines = text.split("\r\n")[:-1]
        assert not any("\r" in line or "\n" in line for line in lines)
        return [line.split(",") for line in lines]

    @staticmethod
    def _assert_cells(rows, header, columns):
        assert rows[0] == header
        assert len(rows) - 1 == len(columns[0])
        for i, row in enumerate(rows[1:]):
            assert row == [repr(float(column[i])) for column in columns]

    def test_scan_cells_are_repr_of_the_recomputed_curve(self, tmp_path):
        from dataclasses import replace

        from dickestark.effective import pulse_duration, solve_resonance
        from dickestark.model import build_space, dicke_state
        from dickestark.scan import resonance_scan, scan_grid

        out = tmp_path / "scan"
        assert main(["scan", "--preset", "fig3", "--out", str(out)]) == 0
        job = scan_preset("fig3")
        target = job.target
        params = replace(job.params, n_max=default_n_max(max(job.initial_n, target.n0), job.params.n_qubits))
        duration = job.duration
        if duration is None:
            duration = pulse_duration(target, replace(params, omega_q=solve_resonance(target, params)))
        space = build_space(params)
        psi0 = dicke_state(space, job.initial_k, job.initial_n)
        curve = resonance_scan(psi0, scan_grid(job.window, job.points), duration, params, space)
        assert len(curve.ratios) == job.points
        self._assert_cells(self._rows(out / "scan.csv"), ["ratio", "nq", "nph"], [curve.ratios, curve.nq, curve.nph])

    def test_trajectory_cells_are_repr_of_the_recomputed_run(self, tmp_path):
        from dataclasses import replace

        from dickestark.model import build_space
        from dickestark.presets import protocol_preset
        from dickestark.protocol import compile_from_rules, run_protocol

        samples = 12
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[protocol]\npreset = ghz_4\nsamples = {samples}\n")
        out = tmp_path / "ghz"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 0
        spec = protocol_preset("ghz_4")
        params = replace(spec.params, n_max=default_n_max(spec.highest_start_photon, spec.params.n_qubits))
        result = run_protocol(compile_from_rules(spec, params), params, build_space(params), samples=samples)
        assert len(result.per_step) == 2
        for index, traj in enumerate(result.per_step, start=1):
            header = ["t", "lambda_t", "nq", "nph"] + [f"pop_k{k}_n{n}" for k, n in traj.space.labels()]
            columns = [traj.times, params.coupling * traj.times, traj.nq, traj.nph, *traj.populations.T]
            assert len(traj.times) == samples
            self._assert_cells(self._rows(out / f"step{index}_trajectory.csv"), header, columns)


PROTOCOL_FILES = ["step1_trajectory.csv", "step2_trajectory.csv", "protocol.json", "summary.json"]


def _fail_writes_to(monkeypatch, victim):
    """Make every open for writing of a path containing ``victim`` fail with
    ENOSPC after creating the file, as a full disk does."""
    real_open = io.open

    def full_disk(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if "w" in mode and victim in os.fspath(file):
            handle.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), os.fspath(file))
        return handle

    monkeypatch.setattr(io, "open", full_disk)
    monkeypatch.setattr(builtins, "open", full_disk)


class TestPublish:
    @pytest.mark.parametrize("victim", PROTOCOL_FILES)
    def test_disk_full_leaves_no_file_of_the_run(self, tmp_path, monkeypatch, capsys, victim):
        # the files used to be written one at a time, so a failure on one
        # left the files written before it; then the created --out was left
        # behind empty
        _fail_writes_to(monkeypatch, victim)
        out = tmp_path / "out"
        assert main(["protocol", "--preset", "ghz_4", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert os.strerror(errno.ENOSPC) in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_disk_full_removes_created_parents(self, tmp_path, monkeypatch):
        _fail_writes_to(monkeypatch, "summary.json")
        assert main(["protocol", "--preset", "ghz_4", "--out", str(tmp_path / "a" / "b")]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_disk_full_keeps_an_existing_out(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n")
        _fail_writes_to(monkeypatch, "summary.json")
        assert main(["protocol", "--preset", "ghz_4", "--out", str(out)]) == 2
        assert [path.name for path in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "keep me\n"

    def test_unrelated_file_survives(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n")
        assert main(["protocol", "--preset", "ghz_4", "--out", str(out)]) == 0
        assert (out / "notes.txt").read_text() == "keep me\n"
        assert sorted(path.name for path in out.iterdir()) == sorted(PROTOCOL_FILES + ["notes.txt"])


class TestEffectiveCommand:
    def test_preset(self, tmp_path):
        out = tmp_path / "eff"
        assert main(["effective", "--preset", "fig7", "--out", str(out)]) == 0
        data = json.loads((out / "effective.json").read_text())
        assert abs(data["ratio"] - 2.0003) < 1e-4
        assert data["min_competing_ratio_adjacent"] > 10
        kinds = {row["kind"] for row in data["channels"]}
        assert {"tc", "atc", "tc2", "atc2", "r2", "a2"} <= kinds

    # effective.json of every scan preset, byte for byte: every value in it
    # is fixed by IEEE arithmetic and correctly rounded square roots alone
    @pytest.mark.parametrize(
        "preset, digest",
        [
            ("fig2a", "4c8ec97502a355a6be084258cde09680c3c2e25cc45fe373139126e48a4f6f61"),
            ("fig2b", "88be73b61946818e1b5ef3bead5c154e9278a8f2e1bb18c3fb7dbfd4a0299448"),
            ("fig3", "88be73b61946818e1b5ef3bead5c154e9278a8f2e1bb18c3fb7dbfd4a0299448"),
            ("fig4", "b79b72b8ac0d0199cef3733e6bcd183a37a6244fc2d7a1dd767b5eaa1aee147a"),
            ("fig5", "775c8700a597a6bbb63f83408915c22c53bf7ac62a78a436a91c3cf4291bf433"),
            ("fig6", "5db49653691cb08c70ee9899762313a45d203d401042e1033e6023c39916debe"),
            ("fig7", "57ebf9004f6503b9fd43541fb69de95018c8bd742fc971ba4a91deb4fd71857f"),
            ("fig8", "1b2894eebf027f45177af4c6b6b681231bdec3e7fb4f5a88504c5ec0a7c3202e"),
        ],
    )
    def test_preset_output_is_pinned(self, tmp_path, preset, digest):
        out = tmp_path / preset
        assert main(["effective", "--preset", preset, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "effective.json").read_bytes()).hexdigest() == digest

    # rows of channels that leave the derived space, out of 70 to 270 rows
    @pytest.mark.parametrize(
        "preset, leaving",
        [("fig2a", 8), ("fig2b", 8), ("fig3", 8), ("fig4", 8), ("fig5", 8), ("fig6", 8), ("fig7", 28), ("fig8", 28)],
    )
    def test_two_more_levels_change_only_the_rows_that_leave_the_space(self, tmp_path, preset, leaving):
        # the same preset physics under a [model] two photon levels above the
        # derived cutoff
        params = scan_preset(preset).params
        cfg = tmp_path / "higher.ini"
        cfg.write_text(
            f"[model]\nn_qubits = {params.n_qubits}\nlambda = {params.coupling!r}\n"
            f"stark_u = {params.stark_u!r}\nn_max = {params.n_max + 2}\n"
        )
        outs = {name: tmp_path / name for name in ("derived", "higher")}
        assert main(["effective", "--preset", preset, "--out", str(outs["derived"])]) == 0
        assert main(["effective", "--preset", preset, "--config", str(cfg), "--out", str(outs["higher"])]) == 0
        derived, higher = (json.loads((out / "effective.json").read_text()) for out in outs.values())

        assert (derived["n_max"], higher["n_max"]) == (params.n_max, params.n_max + 2)
        for key in derived.keys() - {"channels", "n_max"}:
            assert derived[key] == higher[key], key
        rows = {(row["kind"], row["n"], row["k"]): row for row in higher["channels"]}
        changed = [row for row in derived["channels"] if row != rows[row["kind"], row["n"], row["k"]]]
        assert len(changed) == leaving
        for row in changed:
            # uncoupled in the derived space only: a cell beyond its n_max
            assert row["no_coupling"] and not rows[row["kind"], row["n"], row["k"]]["no_coupling"]
            assert not (row["selected"] or row["adjacent"])

    def test_degenerate_stark_coupling(self, tmp_path, capsys):
        cfg = tmp_path / "degen.ini"
        cfg.write_text(
            "[model]\nn_qubits = 4\nlambda = 0.05\nstark_u = 2.6666666666666665\n\n"
            "[effective]\nkind = atc\norder = 2\nn0 = 0\nk0 = 0\n"
        )
        code = main(["effective", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code != 0
        err = capsys.readouterr().err
        assert "detuning" in err or "degenerate" in err

    def test_zero_coupling_is_refused_before_the_report(self, tmp_path, capsys, monkeypatch):
        # the selectivity report used to be built in full (every ratio
        # infinite) before the zero coupling was refused
        from dickestark import cli

        calls = []
        true_report = cli.rwa_validity_report
        monkeypatch.setattr(cli, "rwa_validity_report", lambda *a: calls.append(a) or true_report(*a))
        cfg = tmp_path / "zero.ini"
        cfg.write_text("[model]\nn_qubits = 4\nlambda = 0\nstark_u = -0.5\n" + EFFECTIVE_ATC + "1\n")
        out = tmp_path / "never"
        assert main(["effective", "--config", str(cfg), "--out", str(out)]) == 2
        assert "target aTC(0,0) has zero coupling" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


class TestInputGuards:
    @pytest.mark.parametrize(
        "command, key, field",
        [("effective", "lambda", "coupling"), ("scan", "stark_u", "stark_u")],
    )
    def test_nan_model_value_exits_2_without_output(self, tmp_path, capsys, command, key, field):
        # NaN used to reach effective.json as a bare NaN token (invalid JSON),
        # or a scan's peak search as a misleading "no peak" error
        text = SCAN_INI + "\n[effective]\nkind = atc\norder = 1\nn0 = 0\nk0 = 0\n"
        text = "\n".join(f"{key} = nan" if line.startswith(key) else line for line in text.splitlines())
        cfg = tmp_path / "nan.ini"
        cfg.write_text(text)
        out = tmp_path / "never"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_uncoupled_competition_is_null_in_json(self, tmp_path):
        # N = 1, n_max = 1: no coupled competing channel touches the aTC(0,0)
        # pair, so the adjacent minimum ratio is infinite
        cfg = tmp_path / "lone.ini"
        cfg.write_text(
            "[model]\nn_qubits = 1\nlambda = 0.006\nstark_u = -0.5\nn_max = 1\n\n"
            "[effective]\nkind = atc\norder = 1\nn0 = 0\nk0 = 0\n"
        )
        out = tmp_path / "eff"
        assert main(["effective", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "effective.json").read_text(), parse_constant=pytest.fail)
        assert data["min_competing_ratio_adjacent"] is None
        assert data["min_competing_ratio_all"] > 0

    @pytest.mark.parametrize(
        "args",
        [["protocol", "--preset", "ghz_4"], ["effective", "--preset", "fig7"], ["validate"]],
    )
    def test_format_flag_is_scan_only(self, tmp_path, args):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main(args + ["--format", "json", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


MODEL_N_MAX_6 = "[model]\nn_qubits = 4\nlambda = 0.006\nstark_u = -0.5\nn_max = 6\n"

TC60_N2_INI = """
[model]
n_qubits = 2
lambda = 0.006
stark_u = -0.5

[effective]
kind = tc
order = 1
n0 = 6
k0 = 0
"""

PRESET_STEPS = {
    "dicke_ladder_4": (
        "[model]\nn_qubits = 4\nlambda = 0.006\nstark_u = -0.5\n\n[protocol]\nsteps =\n"
        "    atc 1 0 0 half_period\n    tc 1 0 1 half_period\n"
        "    atc 1 0 2 half_period\n    tc 1 0 3 half_period\n"
        "target = basis 4 0\n"
    ),
    "ghz_4": (
        "[model]\nn_qubits = 4\nlambda = 0.1\nstark_u = -16\n\n[protocol]\nsteps =\n"
        "    atc 2 0 0 quarter_period\n    tc 2 0 2 half_period\n"
        "target = ghz\n"
    ),
}


@pytest.fixture
def built_n_max(monkeypatch):
    """The n_max of every space a command builds."""
    import dickestark.cli as cli

    seen = []
    original = cli.build_space

    def spy(params):
        seen.append(params.n_max)
        return original(params)

    monkeypatch.setattr(cli, "build_space", spy)
    return seen


class TestInputResolution:
    def test_effective_derives_cutoff_from_target(self, tmp_path, built_n_max):
        # used to exit 2 with "target needs photon number 7 > n_max=6"
        cfg = tmp_path / "tc60.ini"
        cfg.write_text(TC60_N2_INI)
        out = tmp_path / "eff"
        assert main(["effective", "--config", str(cfg), "--out", str(out)]) == 0
        assert built_n_max == [6 + 2 + 2]
        assert json.loads((out / "effective.json").read_text())["target"]["label"] == "TC(6,0)"

    @pytest.mark.parametrize(
        "args, text, n_max",
        [
            (["scan"], SCAN_INI, 1 + 4 + 2),  # max(initial_n, n0) = 1
            (
                ["protocol"],
                "[model]\nn_qubits = 4\nlambda = 0.006\nstark_u = -0.5\n\n"
                "[protocol]\nsteps =\n    tc 1 0 1 half_period\n"
                "initial = 1 1\ntarget = basis 2 0\nsamples = 50\n",
                1 + 4 + 2,  # the initial n
            ),
            (["effective"], TC60_N2_INI, 6 + 2 + 2),  # n0
        ],
        ids=["scan", "protocol", "effective"],
    )
    def test_derived_cutoff(self, tmp_path, built_n_max, args, text, n_max):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert main(args + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert built_n_max == [n_max]

    @pytest.mark.parametrize("name", ["dicke_ladder_4", "ghz_4"])
    def test_preset_file_and_inline_agree(self, tmp_path, name):
        # the file and inline forms used to run at other cutoffs than the
        # preset; [protocol] preset = NAME names the same job as --preset NAME
        outs = {source: tmp_path / source for source in ("preset", "file", "inline", "section")}
        assert main(["protocol", "--preset", name, "--out", str(outs["preset"])]) == 0
        section_ini = tmp_path / "section.ini"
        section_ini.write_text(f"[protocol]\npreset = {name}\nsamples = 400\n")
        assert main(["protocol", "--config", str(section_ini), "--out", str(outs["section"])]) == 0
        file_ini = tmp_path / "file.ini"
        file_ini.write_text(f"[protocol]\nfile = {outs['preset'] / 'protocol.json'}\n")
        assert main(["protocol", "--config", str(file_ini), "--out", str(outs["file"])]) == 0
        inline_ini = tmp_path / "inline.ini"
        inline_ini.write_text(PRESET_STEPS[name])
        assert main(["protocol", "--config", str(inline_ini), "--out", str(outs["inline"])]) == 0

        def summary(source):
            data = json.loads((outs[source] / "summary.json").read_text())
            del data["protocol"]
            return data

        # the file holds the preset's own record, so its job writes the same bytes
        files = {source: {p.name: p.read_bytes() for p in outs[source].iterdir()} for source in ("preset", "file")}
        assert files["file"] == files["preset"]
        csvs = sorted(p.name for p in outs["preset"].glob("step*_trajectory.csv"))
        assert csvs
        for source in ("file", "inline", "section"):
            for csv_name in csvs:
                assert (outs[source] / csv_name).read_bytes() == (outs["preset"] / csv_name).read_bytes()
            assert summary(source) == summary("preset")

    @pytest.mark.parametrize(
        "args, text",
        [
            (["scan"], SCAN_INI.replace("stark_u = -0.5", "stark_u = -0.5\nn_max = 6")),
            (["scan", "--preset", "fig4"], MODEL_N_MAX_6),
            (["protocol"], INLINE_PROTOCOL_INI.replace("stark_u = -0.5", "stark_u = -0.5\nn_max = 6")),
            (["protocol", "--preset", "dicke_ladder_4"], MODEL_N_MAX_6),
            (["protocol"], MODEL_N_MAX_6 + "[protocol]\nfile = {file}\nsamples = 50\n"),
            (["effective"], MODEL_N_MAX_6 + "[effective]\nkind = atc\norder = 1\nn0 = 0\nk0 = 0\n"),
            (["effective", "--preset", "fig2b"], MODEL_N_MAX_6),
        ],
        ids=[
            "scan-config",
            "scan-preset",
            "protocol-inline",
            "protocol-preset",
            "protocol-file",
            "effective-config",
            "effective-preset",
        ],
    )
    def test_explicit_n_max_wins(self, tmp_path, built_n_max, args, text):
        from dickestark.presets import protocol_preset
        from dickestark.protocol import compile_dicke_ladder

        proto_path = tmp_path / "ladder.json"
        proto_path.write_text(compile_dicke_ladder(4, 2, protocol_preset("dicke_ladder_4").params).to_json())
        cfg = tmp_path / "run.ini"
        cfg.write_text(text.format(file=proto_path))
        assert main(args + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert built_n_max == [6]

    def test_protocol_file_with_other_model_exits_2(self, tmp_path, capsys):
        # a differing [model] used to be silently ignored except for its n_max
        from dickestark.presets import protocol_preset
        from dickestark.protocol import compile_dicke_ladder

        proto_path = tmp_path / "ladder.json"
        proto_path.write_text(compile_dicke_ladder(4, 2, protocol_preset("dicke_ladder_4").params).to_json())
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[model]\nn_qubits = 4\nlambda = 0.1\nstark_u = -0.5\n\n"
            f"[protocol]\nfile = {proto_path}\n"
        )
        out = tmp_path / "never"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        assert "coupling = 0.1 does not match" in capsys.readouterr().err
        assert not out.exists()

    def test_protocol_file_with_other_n_exits_2_naming_n_qubits(self, tmp_path, capsys):
        # a file is compiled at its own N, unlike a preset, whose message names the preset
        from dickestark.presets import protocol_preset
        from dickestark.protocol import compile_dicke_ladder

        proto_path = tmp_path / "ladder.json"
        proto_path.write_text(compile_dicke_ladder(4, 2, protocol_preset("dicke_ladder_4").params).to_json())
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"{MODEL_N6}\n[protocol]\nfile = {proto_path}\n")
        out = tmp_path / "never"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: n_qubits = 6 does not match the protocol's compiled 4\n" == capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, section",
        [
            ("scan", SCAN_INI.split("[scan]")[1].split("[output]")[0]),
            ("effective", "\nkind = atc\norder = 1\nn0 = 0\nk0 = 0\n"),
            ("protocol", INLINE_PROTOCOL_INI.split("[protocol]")[1]),
        ],
        ids=["scan", "effective", "protocol"],
    )
    def test_missing_model_section_named(self, tmp_path, capsys, command, section):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{command}]{section}")
        out = tmp_path / "never"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "[model]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scan", "effective"])
    @pytest.mark.parametrize("name", sorted(SCAN_PRESETS))
    def test_scan_preset_cutoff_follows_the_rule(self, tmp_path, built_n_max, command, name):
        # a preset's cutoff is the rule's, p = max(initial_n, n0), for both commands
        preset = scan_preset(name)
        assert main([command, "--preset", name, "--out", str(tmp_path / "out")]) == 0
        assert built_n_max == [default_n_max(max(preset.initial_n, preset.target.n0), 4)]

    @pytest.mark.parametrize("name", ["dicke_ladder_4", "ghz_4"])
    def test_protocol_preset_cutoff_follows_the_rule(self, tmp_path, built_n_max, name):
        # every step of both presets starts from n = 0
        assert main(["protocol", "--preset", name, "--out", str(tmp_path / "out")]) == 0
        assert built_n_max == [default_n_max(0, 4)]

    @pytest.mark.parametrize("explicit", [False, True], ids=["derived", "explicit"])
    @pytest.mark.parametrize(
        "args, name, keys",
        [
            (["scan", "--preset", "fig4"], "peaks.json", "location height predicted_location abs_error"),
            (
                ["effective", "--preset", "fig4"],
                "effective.json",
                "target omega_q ratio coupling duration_half_period duration_quarter_period"
                " min_competing_ratio_adjacent min_competing_ratio_all channels",
            ),
            (
                ["protocol", "--preset", "dicke_ladder_4"],
                "summary.json",
                "protocol steps fidelity fidelity_phase_exact fidelity_phase_optimized target_phase"
                " final_nq final_nph step_boundary_populations",
            ),
        ],
        ids=["scan", "effective", "protocol"],
    )
    def test_outputs_record_the_cutoff(self, tmp_path, args, name, keys, explicit):
        # appended after the keys the file held before, in their order
        out = tmp_path / "out"
        if explicit:
            cfg = tmp_path / "model.ini"
            cfg.write_text(MODEL_N_MAX_6.replace("n_max = 6", "n_max = 9"))
            args = args + ["--config", str(cfg)]
        assert main(args + ["--out", str(out)]) == 0
        data = json.loads((out / name).read_text())
        assert list(data) == keys.split() + ["n_max"]
        # fig4 starts from one photon, the ladder from none
        assert data["n_max"] == (9 if explicit else default_n_max(1 if "fig4" in args else 0, 4))

    def test_preset_with_other_n_derives_its_own_cutoff(self, tmp_path, built_n_max):
        # used to build N = 4's cutoff
        cfg = tmp_path / "n6.ini"
        cfg.write_text("[model]\nn_qubits = 6\nlambda = 0.006\nstark_u = -0.5\n")
        assert main(["scan", "--preset", "fig3", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert built_n_max == [default_n_max(0, 6)] == [8]


class TestPresetWithJobSection:
    @pytest.mark.parametrize(
        "command, name, text",
        [
            ("scan", "fig3", SCAN_INI),
            ("protocol", "ghz_4", INLINE_PROTOCOL_INI),
            ("effective", "fig8", MODEL_N_MAX_6 + "[effective]\nkind = atc\norder = 1\nn0 = 0\nk0 = 0\n"),
        ],
        ids=["scan", "protocol", "effective"],
    )
    def test_exits_2_naming_both(self, tmp_path, capsys, command, name, text):
        # used to run the preset, ignore the section and exit 0
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out = tmp_path / "never"
        assert main([command, "--preset", name, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--preset {name}" in err
        assert f"[{command}] section" in err
        assert not out.exists()


class TestProtocolSamplesCap:
    def test_cap_is_accepted(self):
        cfg = parse_config(INLINE_PROTOCOL_INI.replace("samples = 50", f"samples = {MAX_SAMPLES}"))
        assert cfg.protocol.samples == MAX_SAMPLES

    def test_above_cap_exits_2_naming_the_key(self, tmp_path, capsys):
        # used to be accepted up to any size
        cfg = tmp_path / "big.ini"
        cfg.write_text(INLINE_PROTOCOL_INI.replace("samples = 50", f"samples = {MAX_SAMPLES + 1}"))
        out = tmp_path / "never"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"[protocol] samples = '{MAX_SAMPLES + 1}': must be in 2..{MAX_SAMPLES}" in capsys.readouterr().err
        assert not out.exists()


def _ladder_file(tmp_path, edit) -> str:
    """A [protocol] section reading a dicke_ladder_4 file changed by ``edit``."""
    from dickestark.presets import protocol_preset
    from dickestark.protocol import compile_dicke_ladder

    doc = json.loads(compile_dicke_ladder(4, 2, protocol_preset("dicke_ladder_4").params).to_json())
    edit(doc)
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    return f"[protocol]\nfile = {path}\n"


MODEL_N4 = "[model]\nn_qubits = 4\nlambda = 0.006\nstark_u = -0.5\n\n"
EFFECTIVE_ATC = "\n[effective]\nkind = atc\nn0 = 0\nk0 = 0\norder = "
# a Stark term whose H(0) and detunings overflow
OVERFLOW_MODEL = "[model]\nn_qubits = 2\nlambda = 0.006\nstark_u = 1e308\n\n"
# a step whose misspelt duration_rule used to be dropped, running a half period
MISSPELT_STEP = {"kind": "atc", "order": 1, "n0": 0, "k0": 0, "duraton_rule": "quarter_period"}


REFUSED_CONFIGS = [
    Run(
        "json-target-without-kind",
        ("protocol",),
        lambda tmp: _ladder_file(tmp, lambda doc: doc["target"].pop("kind")),
        err=("missing field or a field of the wrong type: 'kind'",),
    ),
    Run(
        "json-misspelt-step-key",
        ("protocol",),
        lambda tmp: _ladder_file(tmp, lambda doc: doc.update(steps=[MISSPELT_STEP])),
        err=("error: [protocol] file = ", ": unknown keys in protocol step 1: 'duraton_rule'\n"),
    ),
    Run(
        "inline-empty-target",
        ("protocol",),
        INLINE_PROTOCOL_INI.replace("target = basis 1 1", "target ="),
        err=("[protocol] target",),
    ),
    Run(
        "json-unknown-duration-rule",
        ("protocol",),
        lambda tmp: _ladder_file(tmp, lambda doc: doc["steps"][0].update(duration_rule="halfperiod")),
        err=("protocol step 1: duration_rule",),
    ),
    Run(
        "inline-unknown-duration-rule",
        ("protocol",),
        INLINE_PROTOCOL_INI.replace("half_period", "halfperiod"),
        err=("[protocol] steps",),
    ),
    Run(
        "inline-non-integer-order",
        ("protocol",),
        INLINE_PROTOCOL_INI.replace("atc 1 0 0", "atc one 0 0"),
        err=("protocol step 1: order",),
    ),
    Run(
        "inline-non-integer-target-cell",
        ("protocol",),
        INLINE_PROTOCOL_INI.replace("basis 1 1", "basis x 1"),
        err=("[protocol] target",),
    ),
    Run(
        "initial-with-preset",
        ("protocol",),
        "[protocol]\npreset = ghz_4\ninitial = 3 3\n",
        err=("[protocol] initial applies",),
    ),
    Run(
        "initial-with-file",
        ("protocol",),
        lambda tmp: _ladder_file(tmp, lambda doc: None) + "initial = 3 3\n",
        err=("[protocol] initial applies",),
    ),
    Run(
        "target-with-preset",
        ("protocol",),
        "[protocol]\npreset = ghz_4\ntarget = basis 1 1\n",
        err=("[protocol] target applies",),
    ),
    Run(
        "target-with-file",
        ("protocol",),
        lambda tmp: _ladder_file(tmp, lambda doc: None) + "target = basis 1 1\n",
        err=("[protocol] target applies",),
    ),
    Run(
        "scan-non-numeric-duration",
        ("scan",),
        SCAN_INI.replace("points = 161", "points = 161\nduration = abc"),
        err=("[scan] duration",),
    ),
    Run(
        "scan-nan-min-height",
        ("scan",),
        SCAN_INI.replace("points = 161", "points = 161\nmin_height = nan"),
        err=("[scan] min_height",),
    ),
    Run(
        "scan-window-too-narrow-for-its-points",
        ("scan",),
        SCAN_INI.replace("window_min = -0.325", "window_min = 1.9")
        .replace("window_max = 0.075", "window_max = 1.9000000000000001")
        .replace("points = 161", "points = 801"),
        err=("error: window (1.9, 1.9000000000000001) is too narrow for 801 strictly increasing points\n",),
    ),
    Run(
        "scan-points-above-cap",
        ("scan",),
        SCAN_INI.replace("points = 161", "points = 100002"),
        err=("[scan] points = '100002'",),
    ),
    Run(
        "validate-negative-seed",
        ("validate",),
        "[validate]\nseed = -3\n",
        err=("[validate] seed = '-3': must be >= 0",),
    ),
    Run(
        "scan-infinite-window-max",
        ("scan",),
        SCAN_INI.replace("window_max = 0.075", "window_max = inf"),
        err=("[scan] window_max = 'inf': must be finite",),
    ),
    Run(
        "scan-nan-window-min",
        ("scan",),
        SCAN_INI.replace("window_min = -0.325", "window_min = nan"),
        err=("[scan] window_min = 'nan': must be finite",),
    ),
    Run("empty-preset", ("protocol",), "[protocol]\npreset =\n", err=("[protocol] preset = '': must be non-empty",)),
    Run("empty-file", ("protocol",), "[protocol]\nfile =\n", err=("[protocol] file = '': must be non-empty",)),
    Run(
        "empty-output-directory",
        ("validate",),
        "[output]\ndirectory =\n",
        err=("[output] directory = '': must be non-empty",),
    ),
    Run(
        "json-boolean-lambda",
        ("protocol",),
        lambda tmp: _ladder_file(tmp, lambda doc: doc.update({"lambda": True})),
        err=("lambda must be a number, got True",),
    ),
    Run(
        "json-boolean-order",
        ("protocol",),
        lambda tmp: _ladder_file(tmp, lambda doc: doc["steps"][0].update(order=True)),
        err=("protocol step 1: order must be an integer, got True",),
    ),
    Run(
        "json-boolean-initial-k",
        ("protocol",),
        lambda tmp: _ladder_file(tmp, lambda doc: doc["initial"].update(k=False)),
        err=("k must be an integer, got False",),
    ),
    Run(
        "json-boolean-duration-rule",
        ("protocol",),
        lambda tmp: _ladder_file(tmp, lambda doc: doc["steps"][0].update(duration_rule=True)),
        err=("protocol step 1: duration_rule must be half_period, quarter_period or a number, got True",),
    ),
    Run(
        "effective-oversize-space",
        ("effective",),
        "[model]\nn_qubits = 1000000\nlambda = 0.1\nstark_u = -16\n\n"
        "[effective]\nkind = atc\norder = 2\nn0 = 0\nk0 = 0\n",
        err=("dimension",),
    ),
    Run(
        "json-oversize-space",
        ("protocol",),
        lambda tmp: _ladder_file(
            tmp, lambda doc: doc.update(N=1_000_000, steps=[{"kind": "atc", "order": 2, "n0": 0, "k0": 0}])
        ),
        err=("dimension",),
    ),
    Run(
        "unknown-preset-in-section",
        ("protocol",),
        "[protocol]\npreset = nosuch\n",
        err=("unknown protocol preset 'nosuch'; known presets: dicke_ladder_4, ghz_4",),
    ),
    Run(
        "steps-without-target",
        ("protocol",),
        INLINE_PROTOCOL_INI.replace("target = basis 1 1\n", ""),
        err=("[protocol] is missing required key 'target'",),
    ),
    Run("unparsable-config", ("scan",), "[model\nn_qubits = 4\n", err=("cannot parse config",)),
    Run(
        "second-order-at-zero-stark",
        ("effective",),
        "[model]\nn_qubits = 4\nlambda = 0.1\nstark_u = 0\n" + EFFECTIVE_ATC + "2\n",
        err=("second-order selectivity requires a nonzero Stark coupling",),
    ),
    Run(
        "zero-coupling",
        ("effective",),
        "[model]\nn_qubits = 4\nlambda = 0\nstark_u = -0.5\n" + EFFECTIVE_ATC + "1\n",
        err=("target aTC(0,0) has zero coupling",),
    ),
    Run(
        "second-order-bracket-without-root",
        ("effective",),
        "[model]\nn_qubits = 6\nlambda = 0.1\nstark_u = -16\n\n[effective]\nkind = tc\norder = 2\nn0 = 0\nk0 = 2\n",
        err=(
            "no sign change of the tilde frequency",
            "lies outside that range, at omega_q = 4.333333333333333, the first-order resonance of aTC(0,4), aTC(2,2)",
        ),
    ),
    Run(
        "effective-second-order-lambda-overflow",
        ("effective",),
        "[model]\nn_qubits = 4\nlambda = 1e200\nstark_u = -0.5\n" + EFFECTIVE_ATC + "2\n",
        err=("error: ", "overflows at lambda = 1e+200"),
    ),
    Run(
        "protocol-second-order-lambda-overflow",
        ("protocol",),
        "[model]\nn_qubits = 4\nlambda = 1e200\nstark_u = -16\n\n"
        "[protocol]\nsteps = atc 2 0 0\ntarget = basis 2 2\n",
        err=(
            "error: ",
            "protocol step 1 aTC(2)(0,0): the bracket omega_q = -1.0 +- 10 lambda^2 N / |U| overflows at lambda = 1e+200",
        ),
    ),
    Run(
        "effective-second-order-residual",
        ("effective",),
        "[model]\nn_qubits = 4\nlambda = 1e100\nstark_u = -0.5\n" + EFFECTIVE_ATC + "2\n",
        err=("error: root refinement left |tilde frequency| = 3.489e+200 > 1e-10 at omega_q = 0.0 in the bracket"
                    " [-7.999999999999999e+201, 7.999999999999999e+201], lambda = 1e+100\n",),
    ),
    Run(
        "protocol-second-order-residual",
        ("protocol",),
        "[model]\nn_qubits = 4\nlambda = 1e100\nstark_u = -0.5\n\n"
        "[protocol]\nsteps = atc 2 0 0\ntarget = basis 2 2\n",
        err=(
            "error: protocol step 1 aTC(2)(0,0): root refinement left |tilde frequency| = 3.489e+200",
            "lambda = 1e+100",
        ),
    ),
    Run(
        "scan-stark-overflow",
        ("scan",),
        OVERFLOW_MODEL + "[scan]\nkind = atc\norder = 1\nn0 = 0\nk0 = 0\ninitial_k = 0\ninitial_n = 0\n"
        "window_min = 1.9\nwindow_max = 2.1\npoints = 5\nduration = 1.0\n",
        err=("error: stark_u = 1e+308 overflows H(0) and the first-order detunings at N = 2, n_max = 4\n",),
    ),
    Run(
        "protocol-stark-overflow",
        ("protocol",),
        OVERFLOW_MODEL + "[protocol]\nsteps = atc 1 0 0\ntarget = basis 1 1\n",
        err=("error: protocol step 1 aTC(0,0): stark_u = 1e+308 overflows H(0)",),
    ),
    Run(
        "effective-lambda-overflow",
        ("effective",),
        "[model]\nn_qubits = 2\nlambda = 1e308\nstark_u = -0.5\n" + EFFECTIVE_ATC + "1\n",
        err=("error: coupling (lambda) = 1e+308 overflows the coupling table at N = 2, n_max = 4\n",),
    ),
    Run(
        "effective-omega-r-overflow",
        ("effective",),
        "[model]\nn_qubits = 2\nomega_r = 1e308\nlambda = 0.006\nstark_u = -0.5\n" + EFFECTIVE_ATC + "1\n",
        err=("error: omega_r = 1e+308 overflows H(0) and the first-order detunings at N = 2, n_max = 4\n",),
    ),
    Run(
        "second-order-on-a-first-order-pole",
        ("effective",),
        "[model]\nn_qubits = 4\nlambda = 0.1350754965095557\nstark_u = -0.6318053729800619\n\n"
        "[effective]\nkind = tc\norder = 2\nn0 = 1\nk0 = 2\n",
        err=("below the 1e-09 floor", "the first-order resonance of TC(1,3)"),
    ),
    # a cell outside the space used to be refused naming no field, a
    # protocol's target only after every step had been solved and evolved
    Run(
        "protocol-target-k-outside",
        ("protocol",),
        MODEL_N4 + "[protocol]\nsteps = atc 1 0 0\ntarget = basis 9 0\n",
        err=("error: protocol target (9, 0): k=9 outside 0..4\n",),
    ),
    Run(
        "protocol-target-n-outside",
        ("protocol",),
        MODEL_N4 + "[protocol]\nsteps = atc 1 0 0\ntarget = basis 0 9\n",
        err=("error: protocol target (0, 9): n=9 outside 0..6\n",),
    ),
    Run(
        "protocol-initial-k-outside",
        ("protocol",),
        MODEL_N4 + "[protocol]\nsteps = atc 1 0 0\ninitial = 7 0\ntarget = basis 1 1\n",
        err=("error: protocol initial (7, 0): k=7 outside 0..4\n",),
    ),
    Run(
        "scan-initial-k-outside",
        ("scan",),
        MODEL_N4 + "[scan]\nkind = atc\norder = 1\nn0 = 0\nk0 = 0\ninitial_k = 9\ninitial_n = 0\n"
        "window_min = 1.9\nwindow_max = 2.1\n",
        err=("error: scan initial_k = 9, initial_n = 0: k=9 outside 0..4\n",),
    ),
]


class TestMalformedInputs:
    @pytest.mark.parametrize("run", REFUSED_CONFIGS, ids=_run_name)
    def test_exits_2_naming_the_cause(self, tmp_path, capsys, run):
        # each used to raise a traceback (exit 1), name no key or step, run
        # a full scan before failing, run ignoring the key (an empty output
        # directory, a JSON boolean read as 1 or 0), allocate the Omega
        # table of an oversize space in a second-order solve, overflow
        # lambda^2 in a second-order bracket, or refuse an unrefined root
        # without naming lambda; a model whose H(0), coupling table or
        # detunings overflow used to warn, then exit 2 naming a NaN
        # Hermiticity defect or a JSON infinity
        _check_run(run, tmp_path, capsys)

    def test_broken_protocol_file_named(self, tmp_path, capsys):
        # used to exit 2 with the bare decoder message, naming no file
        path = tmp_path / "proto.json"
        path.write_text('{"N": 4,')
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[protocol]\nfile = {path}\n")
        out = tmp_path / "never"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[protocol] file = '{path}': protocol document is not valid JSON: Expecting" in err
        assert not out.exists()

    def test_unreadable_protocol_file_named(self, tmp_path, capsys):
        # used to exit 2 with the bare OSError message, naming no key
        path = tmp_path / "missing.json"
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[protocol]\nfile = {path}\n")
        out = tmp_path / "never"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[protocol] file = '{path}': [Errno 2] No such file or directory" in err
        assert not out.exists()


MODEL_N6 = "[model]\nn_qubits = 6\nlambda = 0.006\nstark_u = -0.5\n"


REFUSED_ARGS = [
    Run(
        "scan-unknown-preset",
        ("scan", "--preset", "nosuch"),
        err=("unknown scan preset 'nosuch'; known presets: fig2a",),
    ),
    Run(
        "effective-unknown-preset",
        ("effective", "--preset", "nosuch"),
        err=("unknown scan preset 'nosuch'; known presets: fig2a",),
    ),
    Run(
        "protocol-unknown-preset",
        ("protocol", "--preset", "nosuch"),
        err=("unknown protocol preset 'nosuch'; known presets: dicke_ladder_4",),
    ),
    Run("scan-no-job", ("scan",), err=("scan requires --preset NAME or a [scan] section",)),
]


class TestRefusals:
    @pytest.mark.parametrize("run", REFUSED_ARGS, ids=_run_name)
    def test_exits_2_naming_the_cause(self, tmp_path, capsys, run):
        _check_run(run, tmp_path, capsys)

    @pytest.mark.parametrize("name", ["dicke_ladder_4", "ghz_4"])
    @pytest.mark.parametrize("via", ["flag", "section"])
    def test_protocol_preset_with_other_n_names_preset_and_key(self, tmp_path, capsys, name, via):
        # compile_from_rules refuses the preset's record under another N
        cfg = tmp_path / "run.ini"
        cfg.write_text(MODEL_N6 + (f"\n[protocol]\npreset = {name}\n" if via == "section" else ""))
        out = tmp_path / "never"
        preset = ["--preset", name] if via == "flag" else []
        assert main(["protocol", *preset, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: protocol '{name}' is compiled for N = 4, got n_qubits = 6\n" == err
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, steps, cause",
        [
            (
                "n_qubits = 6\nlambda = 0.1\nstark_u = -16",
                "atc 1 0 0\n    tc 2 0 2",
                "error: protocol step 2 TC(2)(0,2): no sign change of the tilde frequency",
            ),
            (
                "n_qubits = 4\nlambda = 0.006\nstark_u = -0.5",
                "tc 1 0 4",
                "error: protocol step 1 TC(0,4): k0=4 with order 1 exceeds N=4\n",
            ),
        ],
        ids=["no-root", "k0-beyond-n"],
    )
    def test_protocol_step_refusal_names_the_step(self, tmp_path, capsys, model, steps, cause):
        # used to give the solver's message alone, naming no step
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[model]\n{model}\n\n[protocol]\nsteps =\n    {steps}\ntarget = basis 2 2\n")
        out = tmp_path / "never"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        assert cause in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_qubits, dimension", [(63, 4224), (1000, 1004003), (1_000_000, 1000004000003)])
    def test_model_dimension_checked_at_the_smallest_cutoff(self, tmp_path, capsys, n_qubits, dimension):
        # [model] used to be checked at n_max = 0: N = 1000 passed parsing and
        # failed in the command naming no section, N = 10^6 named 1000001
        text = f"[model]\nn_qubits = {n_qubits}\nlambda = 0.006\nstark_u = -0.5\n"
        with pytest.raises(ConfigError, match=rf"^\[model\]: dimension {dimension} exceeds"):
            parse_config(text)
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        out = tmp_path / "never"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"[model]: dimension {dimension}" in capsys.readouterr().err
        assert not out.exists()

    # N = 62 is the largest N whose smallest derived space fits: 63 x 65 = 4095
    @pytest.mark.parametrize("n_qubits", [6, 62])
    def test_model_without_n_max_holds_the_smallest_derived_cutoff(self, n_qubits):
        cfg = parse_config(MODEL_N6.replace("n_qubits = 6", f"n_qubits = {n_qubits}"))
        assert cfg.model.n_max == default_n_max(0, n_qubits) and not cfg.model_n_max_explicit


class TestOutputDirectory:
    @pytest.mark.parametrize("out_args, expected", [(["--out", "out"], "out"), ([], "elsewhere")])
    def test_explicit_out_wins(self, tmp_path, monkeypatch, out_args, expected):
        # an explicit "--out out" used to lose to [output] directory
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_text(SCAN_INI + "directory = elsewhere\n")
        assert main(["scan", "--config", str(cfg)] + out_args) == 0
        assert (tmp_path / expected / "scan.csv").exists()
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == [expected]

    def test_empty_directory_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # used to exit 0 and write into the working directory
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[output]\ndirectory =\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "[output] directory = '': must be non-empty" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


@pytest.mark.parametrize(
    "command, table, other",
    [("scan", SCAN_PRESETS, "ghz_4"), ("effective", SCAN_PRESETS, "ghz_4"), ("protocol", PROTOCOL_PRESETS, "fig3")],
)
def test_preset_help_lists_the_commands_own_presets(capsys, command, table, other):
    # every command's help used to list the presets of all three
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"--preset PRESET named preset ({', '.join(table)})" in text
    assert other not in text


def _package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(dickestark.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_runtime_needs_no_scipy(tmp_path):
    # With scipy blocked, every scipy import raises ImportError; each command
    # must still run to completion.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from dickestark.cli import main\n"
        "for args in (['scan', '--preset', 'fig3'], ['protocol', '--preset', 'ghz_4'],\n"
        "             ['effective', '--preset', 'fig7'], ['validate']):\n"
        "    code = main(args + ['--out', sys.argv[1] + '/' + args[0]])\n"
        "    assert code == 0, (args, code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=_package_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "validate" / "validation.json").exists()


OVERFLOWING_RATIO_INI = "[model]\nn_qubits = 2\nlambda = 0.006\nstark_u = 5e306\n" + EFFECTIVE_ATC + "1\n"
OVERFLOWING_DIAGONAL_INI = (
    "[model]\nn_qubits = 8\nlambda = 0.006\nstark_u = -0.5\n\n"
    "[scan]\nkind = atc\norder = 1\nn0 = 0\nk0 = 0\ninitial_k = 0\ninitial_n = 0\n"
    "window_min = -5e307\nwindow_max = -4e307\n"
)


def _overflowing_ratio_is_null(out: Path) -> None:
    rows = json.loads((out / "effective.json").read_text())["channels"]
    assert any(row["ratio"] is None and not row["no_coupling"] for row in rows)


OVERFLOWS = [
    Run(
        "effective-ratio",
        ("effective",),
        OVERFLOWING_RATIO_INI,
        code=0,
        files=("effective.json",),
        process=True,
        check=_overflowing_ratio_is_null,
    ),
    Run(
        "scan-diagonal",
        ("scan",),
        OVERFLOWING_DIAGONAL_INI,
        err=("error: scan ratio -5e+307 gives omega_q 5e+307, at which the diagonal",),
        process=True,
    ),
]


@pytest.mark.parametrize("run", OVERFLOWS, ids=_run_name)
def test_overflows_run_clean_under_warnings_as_errors(tmp_path, capsys, run):
    # |delta| / Omega past the float range used to warn from the report, so
    # effective exited 1 with a traceback under -W error; omega_q (k - N/2)
    # past it used to warn twice, then refuse with a NaN Hermiticity defect
    # naming neither omega_q nor the ratio
    _check_run(run, tmp_path, capsys)


LADDER_N6_INI = """
[model]
n_qubits = 6
lambda = 0.006
stark_u = -0.5

[protocol]
samples = 2000
steps =
    atc 1 0 0 half_period
    tc 1 0 1 half_period
    atc 1 0 2 half_period
    tc 1 0 3 half_period
    atc 1 0 4 half_period
    tc 1 0 5 half_period
target = basis 6 0
"""


def _ladder_n6_holds(out: Path) -> None:
    """Fidelity >= 0.98, and every step CSV holds each of its 2000 samples
    once: a sample block skipped or written twice breaks a row's norm or its
    nq. The odd parity (k + n odd) is never occupied, so its 31 columns read
    exactly 0.0, which an unzeroed or shared row of the run's block breaks."""
    assert json.loads((out / "summary.json").read_text())["fidelity"] >= 0.98
    for step in range(1, 7):
        header, *rows = (line.split(",") for line in (out / f"step{step}_trajectory.csv").read_text().splitlines())
        assert len(rows) == 2000, step
        k, n = np.array([[int(x) for x in name[len("pop_k") :].split("_n")] for name in header[4:]]).T
        odd = [4 + i for i in np.flatnonzero((k + n) % 2).tolist()]
        assert len(odd) == 31
        assert all(row[i] == "0.0" for row in rows for i in odd), step
        table = np.array(rows, dtype=float)
        assert np.abs(table[:, 4:].sum(axis=1) - 1.0).max() <= 1e-10, step
        assert np.abs(table[:, 2] - table[:, 4:] @ k).max() <= 1e-12, step


def _model_two_levels_up(name: str) -> str:
    """The preset's physics under a [model] two photon levels above its
    derived cutoff."""
    p = scan_preset(name).params
    return (
        f"[model]\nn_qubits = {p.n_qubits}\nlambda = {p.coupling!r}\n"
        f"stark_u = {p.stark_u!r}\nn_max = {p.n_max + 2}\n"
    )


def _peaks_agree_with_the_derived_cutoff(name: str):
    def check(out: Path) -> None:
        derived_out = out.parent / "derived"
        assert main(["scan", "--preset", name, "--out", str(derived_out)]) == 0
        derived, higher = (json.loads((d / "peaks.json").read_text()) for d in (derived_out, out))
        assert higher["n_max"] == derived["n_max"] + 2 and derived.keys() == higher.keys()
        for key in derived.keys() - {"n_max"}:
            assert abs(derived[key] - higher[key]) <= 1e-8, key

    return check


def _protocol_files(steps: int) -> tuple[str, ...]:
    return (*(f"step{j}_trajectory.csv" for j in range(1, steps + 1)), "protocol.json", "summary.json")


SCAN_FILES = ("scan.csv", "peaks.json")

RUNS = [
    # one preset per command, in a new interpreter with numerical warnings as errors
    Run(
        "scan-fig8-json",
        ("scan", "--preset", "fig8", "--format", "json"),
        code=0,
        files=("scan.json", "peaks.json"),
        process=True,
    ),
    Run("protocol-ghz_4", ("protocol", "--preset", "ghz_4"), code=0, files=_protocol_files(2), process=True),
    Run("effective-fig7", ("effective", "--preset", "fig7"), code=0, files=("effective.json",), process=True),
    Run("validate", ("validate",), code=0, files=("validation.json",), process=True),
    *(
        Run(f"scan-{name}-rerun", ("scan", "--preset", name), code=0, files=SCAN_FILES, rerun=True)
        for name in sorted(SCAN_PRESETS)
    ),
    *(
        Run(
            f"scan-{name}-two-levels-up",
            ("scan", "--preset", name),
            _model_two_levels_up(name),
            code=0,
            files=SCAN_FILES,
            check=_peaks_agree_with_the_derived_cutoff(name),
        )
        for name in ("fig3", "fig8")
    ),
    Run(
        "protocol-dicke_ladder_4-rerun",
        ("protocol", "--preset", "dicke_ladder_4"),
        code=0,
        files=_protocol_files(4),
        rerun=True,
    ),
    Run(
        "protocol-inline-two-steps",
        ("protocol",),
        MODEL_N4 + "[protocol]\nsteps =\n    atc 1 0 0 half_period\n    tc 1 0 1 half_period\ntarget = basis 2 0\n",
        code=0,
        files=_protocol_files(2),
    ),
    Run(
        "protocol-ladder-n6",
        ("protocol",),
        LADDER_N6_INI,
        code=0,
        files=_protocol_files(6),
        rerun=True,
        check=_ladder_n6_holds,
    ),
    Run("validate-seed-7", ("validate",), "[validate]\nseed = 7\ndraws = 300\n", code=0, files=("validation.json",)),
]


@pytest.mark.parametrize("run", RUNS, ids=_run_name)
def test_cli_run(tmp_path, capsys, run):
    _check_run(run, tmp_path, capsys)


def test_effective_presets_write_the_same_bytes_cold_warm_and_in_a_new_process(tmp_path):
    """Every scan preset's effective.json, first and second order, is the
    same byte for byte whether the per-space tables are built afresh, were
    built by the other presets (the presets again in reverse order), or live
    in a new interpreter (fig7 and fig8 under ``python -m dickestark``)."""
    from dickestark import effective, model

    names = sorted(SCAN_PRESETS)
    model._space.cache_clear()
    effective._grid_constants.cache_clear()
    passes = {"cold": names, "warm": names[::-1], "process": ["fig7", "fig8"]}
    written = {}
    for label, order in passes.items():
        for name in order:
            out = tmp_path / label / name
            args = ["effective", "--preset", name, "--out", str(out)]
            if label == "process":
                proc = subprocess.run(
                    [sys.executable, "-m", "dickestark", *args], env=_package_env(), capture_output=True, text=True
                )
                assert proc.returncode == 0, proc.stderr
            else:
                assert main(args) == 0
            written[label, name] = {path.name: path.read_bytes() for path in out.iterdir()}
    for (label, name), files in written.items():
        assert list(files) == ["effective.json"], (label, name)
        assert files == written["cold", name], (label, name)


class TestValidateCommand:
    def test_default_run(self, tmp_path):
        out = tmp_path / "val"
        cfg = tmp_path / "val.ini"
        cfg.write_text("[validate]\ndraws = 10\nseed = 1\n")
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "validation.json").read_text())
        assert report["passed"] is True
        assert [c["name"] for c in report["checks"]] == [
            "unitarity",
            "norm-and-energy-conservation",
            "excitation-structure",
            "basis-equivalence",
            "cutoff-doubling-stability",
            "rwa-selectivity",
        ]

    def test_non_hermitian_hamiltonian_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the kernel refuses an asymmetric H before any row is reported, so
        # the suite needs no Hermiticity row of its own
        from dickestark import validate
        from dickestark.model import Operator

        true_build = validate.build_hamiltonian

        def asymmetric(params, space):
            m = np.array(true_build(params, space).matrix)
            m[0, 1] += 1e-6
            return Operator(space, m)

        monkeypatch.setattr(validate, "build_hamiltonian", asymmetric)
        out = tmp_path / "never"
        assert main(["validate", "--out", str(out)]) == 2
        assert "operator is not Hermitian" in capsys.readouterr().err
        assert not out.exists()

    def test_no_config_is_the_empty_config(self, tmp_path):
        # the run without --config is parse_config(""), as is an empty file
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        assert main(["validate", "--out", str(tmp_path / "none")]) == 0
        assert main(["validate", "--config", str(empty), "--out", str(tmp_path / "empty")]) == 0
        assert (tmp_path / "none" / "validation.json").read_bytes() == (
            tmp_path / "empty" / "validation.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "route, failing",
        [
            ("_evolved", {"unitarity", "basis-equivalence", "cutoff-doubling-stability"}),
            ("_on_grid", {"norm-and-energy-conservation"}),
        ],
    )
    def test_norm_drifting_kernel_yields_failed_rows(self, tmp_path, monkeypatch, route, failing):
        # A kernel route whose amplitudes are 1 + 1e-6 too long: every check
        # that runs it reports a failed row with the measured defect, the
        # others still pass, and the report is written with exit code 1.
        from dickestark import dynamics, validate

        true_evolved, true_grid = dynamics._evolved, validate._on_grid
        if route == "_evolved":  # the final-state route, reached through dynamics._propagated
            monkeypatch.setattr(dynamics, route, lambda *a: true_evolved(*a) * (1 + 1e-6))
        else:  # the time-grid route, which validate imports by name
            monkeypatch.setattr(validate, route, lambda *a: ((s, b * (1 + 1e-6)) for s, b in true_grid(*a)))
        cfg = tmp_path / "val.ini"
        cfg.write_text("[validate]\ndraws = 10\nseed = 1\n")
        out = tmp_path / "val"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
        checks = {c["name"]: c for c in json.loads((out / "validation.json").read_text())["checks"]}
        assert {name for name, c in checks.items() if not c["passed"]} == failing
        for name in failing - {"cutoff-doubling-stability"}:
            assert checks[name]["value"] > 1e-7
        if "cutoff-doubling-stability" in failing:
            assert "norm drift 1.00e-06" in checks["cutoff-doubling-stability"]["detail"]

def test_readme_library_example_runs(capsys):
    # The fenced python blocks of README.md run as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert float(capsys.readouterr().out.split()[-1]) > 0.99


def _readme_ini(tmp_path) -> Path:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```ini\n")[1:]]
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    return path


@pytest.mark.parametrize("command", ["scan", "protocol"])
def test_readme_config_example_runs(tmp_path, command):
    # its inline "; ..." comments used to stay in the values: exit 2
    cfg = _readme_ini(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / ("peaks.json" if command == "scan" else "summary.json")).exists()


def test_config_grammar_block_parses():
    # the grammar in config.py's docstring, with its inline comments
    import textwrap

    import dickestark.config as config

    grammar = config.__doc__.split("rejected):\n", 1)[1].split("\nEvery section", 1)[0]
    cfg = parse_config(textwrap.dedent(grammar))
    assert cfg.model.n_max == 8 and cfg.model_n_max_explicit
    assert cfg.scan.target.label() == "aTC(0,0)"
    assert cfg.protocol.spec == PROTOCOL_PRESETS["ghz_4"] and cfg.protocol.file is None
    assert cfg.protocol.samples == 400
    assert cfg.output.format == "csv"


def test_imports_neither_scipy_nor_hypothesis():
    # CI's runtime job runs this file with neither installed, so an import
    # of either would fail there alone
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    assert not {name.split(".")[0] for name in names} & {"scipy", "hypothesis"}
