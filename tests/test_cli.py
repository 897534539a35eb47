import builtins
import errno
import hashlib
import io
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_inline_fraction_named(self, value):
        # used to pass parsing and fail at run time on non-finite step data
        text = INLINE_PROTOCOL_INI.replace("atc 1 0 0 half_period", f"atc 1 0 0 {value}")
        with pytest.raises(ConfigError, match="fraction must be positive and finite"):
            parse_config(text)

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
            ("fig2a", "01784c08813ad756c117cd0148861e85c1a8ebfe78ceca07902a921ee6a6546b"),
            ("fig2b", "e6397d72a32a0325a32640efc0f0b6b54dcee2da440ef670861373cf10920ca9"),
            ("fig3", "e6397d72a32a0325a32640efc0f0b6b54dcee2da440ef670861373cf10920ca9"),
            ("fig4", "270f4bc3118c5734c98892fb417dfe329580ce75bcc5992a4739ceb9db98cefd"),
            ("fig5", "41fc07fcb7722fc33dc8571ab3bd2ef7ef813dcb06ce5b93951a6f6d2b4109cc"),
            ("fig6", "e7a0d93c64076286cba5460dd1b1bdd5ab7b41cca4c94043f5c01f488270159f"),
            ("fig7", "e86d8ce790f7718faf334a62782be6a5bdc194a6e6c44b8a85e5e3dfe4474edf"),
            ("fig8", "264757a523582f94367846da85cfdf883d7151486d56e21b874852ef0fb89b01"),
        ],
    )
    def test_preset_output_is_pinned(self, tmp_path, preset, digest):
        out = tmp_path / preset
        assert main(["effective", "--preset", preset, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "effective.json").read_bytes()).hexdigest() == digest

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

    def spy(params, kind):
        seen.append(params.n_max)
        return original(params, kind)

    monkeypatch.setattr(cli, "build_space", spy)
    return seen


class TestInputResolution:
    def test_effective_derives_cutoff_from_target(self, tmp_path, built_n_max):
        # used to exit 2 with "target needs photon number 7 > n_max=6"
        cfg = tmp_path / "tc60.ini"
        cfg.write_text(TC60_N2_INI)
        out = tmp_path / "eff"
        assert main(["effective", "--config", str(cfg), "--out", str(out)]) == 0
        assert built_n_max == [6 + 2 + 4]
        assert json.loads((out / "effective.json").read_text())["target"]["label"] == "TC(6,0)"

    @pytest.mark.parametrize(
        "args, text, n_max",
        [
            (["scan"], SCAN_INI, 1 + 4 + 4),  # max(initial_n, n0) = 1
            (
                ["protocol"],
                "[model]\nn_qubits = 4\nlambda = 0.006\nstark_u = -0.5\n\n"
                "[protocol]\nsteps =\n    tc 1 0 1 half_period\n"
                "initial = 1 1\ntarget = basis 2 0\nsamples = 50\n",
                1 + 4 + 4,  # the initial n
            ),
            (["effective"], TC60_N2_INI, 6 + 2 + 4),  # n0
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
        # the file and inline forms used to run at other cutoffs than the preset
        outs = {source: tmp_path / source for source in ("preset", "file", "inline")}
        assert main(["protocol", "--preset", name, "--out", str(outs["preset"])]) == 0
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

        csvs = sorted(p.name for p in outs["preset"].glob("step*_trajectory.csv"))
        assert csvs
        for source in ("file", "inline"):
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
        proto_path.write_text(compile_dicke_ladder(4, 2, protocol_preset("dicke_ladder_4")).to_json())
        cfg = tmp_path / "run.ini"
        cfg.write_text(text.format(file=proto_path))
        assert main(args + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert built_n_max == [6]

    def test_protocol_file_with_other_model_exits_2(self, tmp_path, capsys):
        # a differing [model] used to be silently ignored except for its n_max
        from dickestark.presets import protocol_preset
        from dickestark.protocol import compile_dicke_ladder

        proto_path = tmp_path / "ladder.json"
        proto_path.write_text(compile_dicke_ladder(4, 2, protocol_preset("dicke_ladder_4")).to_json())
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[model]\nn_qubits = 4\nlambda = 0.1\nstark_u = -0.5\n\n"
            f"[protocol]\nfile = {proto_path}\n"
        )
        out = tmp_path / "never"
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        assert "coupling = 0.1 does not match" in capsys.readouterr().err
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


def _ladder_file(tmp_path, edit) -> str:
    """A [protocol] section reading a dicke_ladder_4 file changed by ``edit``."""
    from dickestark.presets import protocol_preset
    from dickestark.protocol import compile_dicke_ladder

    doc = json.loads(compile_dicke_ladder(4, 2, protocol_preset("dicke_ladder_4")).to_json())
    edit(doc)
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    return f"[protocol]\nfile = {path}\n"


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "command, text, cause",
        [
            (
                "protocol",
                lambda tmp: _ladder_file(tmp, lambda doc: doc["target"].pop("kind")),
                "missing field or a field of the wrong type: 'kind'",
            ),
            ("protocol", INLINE_PROTOCOL_INI.replace("target = basis 1 1", "target ="), "[protocol] target"),
            (
                "protocol",
                lambda tmp: _ladder_file(
                    tmp, lambda doc: doc["steps"][0].update(duration_rule="halfperiod")
                ),
                "protocol step 1: duration_rule",
            ),
            (
                "protocol",
                INLINE_PROTOCOL_INI.replace("half_period", "halfperiod"),
                "[protocol] steps",
            ),
            ("protocol", INLINE_PROTOCOL_INI.replace("atc 1 0 0", "atc one 0 0"), "protocol step 1: order"),
            ("protocol", INLINE_PROTOCOL_INI.replace("basis 1 1", "basis x 1"), "[protocol] target"),
            ("protocol", "[protocol]\npreset = ghz_4\ninitial = 3 3\n", "[protocol] initial applies"),
            (
                "protocol",
                lambda tmp: _ladder_file(tmp, lambda doc: None) + "initial = 3 3\n",
                "[protocol] initial applies",
            ),
            ("protocol", "[protocol]\npreset = ghz_4\ntarget = basis 1 1\n", "[protocol] target applies"),
            (
                "protocol",
                lambda tmp: _ladder_file(tmp, lambda doc: None) + "target = basis 1 1\n",
                "[protocol] target applies",
            ),
            ("scan", SCAN_INI.replace("points = 161", "points = 161\nduration = abc"), "[scan] duration"),
            ("scan", SCAN_INI.replace("points = 161", "points = 161\nmin_height = nan"), "[scan] min_height"),
            ("scan", SCAN_INI.replace("points = 161", "points = 100002"), "[scan] points = '100002'"),
        ],
        ids=[
            "json-target-without-kind",
            "inline-empty-target",
            "json-unknown-duration-rule",
            "inline-unknown-duration-rule",
            "inline-non-integer-order",
            "inline-non-integer-target-cell",
            "initial-with-preset",
            "initial-with-file",
            "target-with-preset",
            "target-with-file",
            "scan-non-numeric-duration",
            "scan-nan-min-height",
            "scan-points-above-cap",
        ],
    )
    def test_exits_2_naming_the_cause(self, tmp_path, capsys, command, text, cause):
        # each used to raise a traceback (exit 1), name no key or step, run
        # a full scan before failing, or run ignoring the key
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text(tmp_path) if callable(text) else text)
        out = tmp_path / "never"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert cause in err
        assert "Traceback" not in err
        assert not out.exists()

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
