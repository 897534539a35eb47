import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dickestark

from dickestark.cli import main
from dickestark.config import ConfigError, parse_config

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

    def test_inline_protocol(self):
        cfg = parse_config(INLINE_PROTOCOL_INI)
        inline = cfg.protocol.inline
        assert len(inline.rules) == 1
        assert inline.rules[0].target.kind == "atc"
        assert inline.target_cell == (1, 1)


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

    def test_reproducible_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = tmp_path / "run.ini"
        cfg.write_text(SCAN_INI)
        main(["scan", "--config", str(cfg), "--out", str(out1)])
        main(["scan", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
        assert (out1 / "peaks.json").read_bytes() == (out2 / "peaks.json").read_bytes()


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

    def test_cutoff_error_surfaces(self, tmp_path, capsys):
        cfg = tmp_path / "tight.ini"
        cfg.write_text("[model]\nn_qubits = 4\nlambda = 0.1\nstark_u = -16\nn_max = 1\n")
        out = tmp_path / "never"
        code = main(["protocol", "--config", str(cfg), "--preset", "ghz_4", "--out", str(out)])
        assert code != 0
        assert "n_max" in capsys.readouterr().err
        assert not out.exists()


class TestEffectiveCommand:
    def test_preset(self, tmp_path):
        out = tmp_path / "eff"
        assert main(["effective", "--preset", "fig7", "--out", str(out)]) == 0
        data = json.loads((out / "effective.json").read_text())
        assert abs(data["ratio"] - 2.0003) < 1e-4
        assert data["min_competing_ratio_adjacent"] > 10
        kinds = {row["kind"] for row in data["channels"]}
        assert {"tc", "atc", "tc2", "atc2", "r2", "a2"} <= kinds

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
    src = str(Path(dickestark.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "validate" / "validation.json").exists()


class TestValidateCommand:
    def test_default_run(self, tmp_path):
        out = tmp_path / "val"
        cfg = tmp_path / "val.ini"
        cfg.write_text("[validate]\ndraws = 10\nseed = 1\n")
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "validation.json").read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "basis-equivalence" in names
        assert "rwa-selectivity" in names
