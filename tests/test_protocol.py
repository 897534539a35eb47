import json
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from dickestark.effective import (
    QUARTER_PERIOD,
    ResonanceBracketError,
    ResonanceTarget,
    ratio_from_omega_q,
    second_order,
)
from dickestark.dynamics import MAX_SAMPLES, evolve, to_rotating_frame
from dickestark.model import (
    HilbertSpace,
    ModelParams,
    build_hamiltonian,
    build_space,
    default_n_max,
    dicke_state,
)
from dickestark import protocol as protocol_module
from dickestark.config import parse_config
from dickestark.presets import PROTOCOL_PRESETS
from dickestark.protocol import (
    CutoffExceededError,
    Protocol,
    ProtocolSpec,
    PulseStep,
    StepRule,
    compile_dicke_ladder,
    compile_from_rules,
    compile_ghz4,
    parse_cell,
    parse_steps,
    parse_target,
    protocol_from_json,
    run_protocol,
)
from oracles import cell_omega, grid_states

LADDER = dict(n_qubits=4, omega_r=1.0, omega_q=1.0, coupling=0.006, stark_u=-0.5)
GHZ = dict(n_qubits=4, omega_r=1.0, omega_q=1.0, coupling=0.1, stark_u=-16.0)


def ladder_params(n_max=None):
    return ModelParams(n_max=n_max if n_max is not None else default_n_max(0, 4), **LADDER)


def ghz_params(n_max=None):
    return ModelParams(n_max=n_max if n_max is not None else default_n_max(0, 4), **GHZ)


class TestCompileDickeLadder:
    def test_step_frequencies(self):
        p = ladder_params()
        proto = compile_dicke_ladder(4, 4, p)
        ratios = [ratio_from_omega_q(s.omega_q, p) for s in proto.steps]
        assert ratios == pytest.approx([2.125, -0.125, 1.875, 0.125], abs=1e-12)

    def test_step_durations_follow_couplings(self):
        p = ladder_params()
        proto = compile_dicke_ladder(4, 4, p)
        for j, step in enumerate(proto.steps, start=1):
            expected = math.pi / (2 * cell_omega(0, j - 1, p))
            assert step.duration == pytest.approx(expected)
        assert proto.steps[0].duration == pytest.approx(math.pi / (2 * 0.006))

    def test_single_step_ladder(self):
        p = ladder_params()
        proto = compile_dicke_ladder(4, 1, p)
        assert len(proto.steps) == 1
        assert proto.target_cell == (1, 1)
        assert proto.expected[-1] == ((1, 1),)

    def test_k_target_out_of_range(self):
        with pytest.raises(ValueError):
            compile_dicke_ladder(4, 5, ladder_params())
        with pytest.raises(ValueError):
            compile_dicke_ladder(4, 0, ladder_params())

    def test_ladder_record_holds_its_n(self):
        with pytest.raises(ValueError, match="^protocol 'dicke_ladder_6' is compiled for N = 6, got n_qubits = 4$"):
            compile_dicke_ladder(6, 6, ladder_params())

    def test_labels(self):
        proto = compile_dicke_ladder(4, 2, ladder_params())
        assert proto.steps[0].label == "aTC(0,0)"
        assert proto.steps[1].label == "TC(0,1)"


class TestCompileGhz4:
    def test_step_frequencies(self):
        p = ghz_params()
        proto = compile_ghz4(p)
        ratios = [ratio_from_omega_q(s.omega_q, p) for s in proto.steps]
        assert ratios[0] == pytest.approx(2.0003, abs=1e-4)
        assert ratios[1] == pytest.approx(0.0046, abs=1e-4)

    def test_durations_quarter_then_half(self):
        p = ghz_params()
        proto = compile_ghz4(p)
        from dataclasses import replace

        tuned1 = replace(p, omega_q=proto.steps[0].omega_q)
        omega1 = abs(second_order("atc2", 0, 0, tuned1)[0])
        assert proto.steps[0].duration == pytest.approx(math.pi / (4 * omega1))
        tuned2 = replace(p, omega_q=proto.steps[1].omega_q)
        omega2 = abs(second_order("tc2", 0, 2, tuned2)[0])
        assert proto.steps[1].duration == pytest.approx(math.pi / (2 * omega2))

    def test_requires_four_qubits(self):
        p = ModelParams(n_qubits=3, omega_r=1.0, coupling=0.1, stark_u=-16.0, n_max=8)
        with pytest.raises(ValueError):
            compile_ghz4(p)


class TestRunLadder:
    def test_full_ladder(self):
        p = ladder_params()
        space = build_space(p)
        proto = compile_dicke_ladder(4, 4, p)
        result = run_protocol(proto, p, space)
        assert result.final.population(4, 0) >= 0.98
        assert result.fidelity >= 0.99
        for traj, cells in zip(result.per_step, proto.expected):
            pops = traj.populations[-1]
            (cell,) = cells
            assert pops[space.index(*cell)] >= 0.95
            others = 1.0 - pops[space.index(*cell)]
            assert others < 0.05

    def test_rescaled_coupling_consistency(self):
        # Halving the coupling (durations rescale automatically) must improve
        # selectivity: the fidelity change is bounded by the leakage scale
        # 1 - F and cannot go down.
        space = build_space(ladder_params())
        f_base = run_protocol(compile_dicke_ladder(4, 4, ladder_params()), ladder_params(), space).fidelity
        half = ModelParams(**{**LADDER, "coupling": 0.003}, n_max=default_n_max(0, 4))
        f_half = run_protocol(compile_dicke_ladder(4, 4, half), half, space).fidelity
        assert f_half >= f_base
        assert abs(f_half - f_base) < (1.0 - f_base)
        assert abs(f_half - f_base) < 0.01


class TestRunGhz:
    def test_equal_superposition_after_first_step(self):
        p = ghz_params()
        space = build_space(p)
        result = run_protocol(compile_ghz4(p), p, space)
        boundary = result.step_boundary_populations()[0]
        assert boundary[(0, 0)] == pytest.approx(0.5, abs=0.02)
        assert boundary[(2, 2)] == pytest.approx(0.5, abs=0.02)

    def test_final_fidelity(self):
        p = ghz_params()
        space = build_space(p)
        result = run_protocol(compile_ghz4(p), p, space)
        assert result.fidelity_optimized == pytest.approx(0.9952, abs=0.002)
        # the exact-phase overlap is reported too, together with the realized
        # relative phase between the two components
        assert 0.0 <= result.fidelity <= 1.0
        assert result.target_phase is not None

    def test_mean_excitation_of_ghz(self):
        from dickestark.dynamics import observables

        p = ghz_params()
        space = build_space(p)
        result = run_protocol(compile_ghz4(p), p, space)
        nq, nph = observables(result.final)
        assert nq == pytest.approx(2.0, abs=0.05)
        assert nph == pytest.approx(0.0, abs=0.05)


class TestExpectedCells:
    @staticmethod
    def _listed_share(proto, p):
        result = run_protocol(proto, p, build_space(p))
        return [
            sum(pops[cell] for cell in cells)
            for pops, cells in zip(result.step_boundary_populations(), proto.expected)
        ]

    def test_ghz_keeps_the_untouched_component(self):
        # step 2 leaves the (0, 0) half of the superposition where it is
        p = ghz_params()
        proto = compile_ghz4(p)
        assert proto.expected == (((0, 0), (2, 2)), ((0, 0), (4, 0)))
        assert min(self._listed_share(proto, p)) >= 0.99

    def test_full_period_pulse_returns_to_the_start(self):
        # a whole Rabi period carries the population back to (0, 0)
        p = ladder_params()
        rules = (StepRule(ResonanceTarget("atc", 1, 0, 0), 1.0),)
        proto = compile_from_rules(ProtocolSpec("full_period", None, rules, (0, 0), "basis", (0, 0)), p)
        assert proto.expected == (((0, 0),),)
        assert self._listed_share(proto, p)[0] >= 0.99

    def test_both_cells_occupied_keeps_every_share(self):
        # the second quarter period finds both cells of its pair occupied, and
        # the transfer then depends on an untracked relative phase
        p = ladder_params()
        rules = (StepRule(ResonanceTarget("atc", 1, 0, 0), QUARTER_PERIOD),) * 2
        proto = compile_from_rules(ProtocolSpec("two_quarters", None, rules, (0, 0), "basis", (1, 1)), p)
        assert proto.expected == (((0, 0), (1, 1)),) * 2
        assert min(self._listed_share(proto, p)) >= 0.99


class TestBlockedTrajectory:
    @pytest.mark.parametrize(
        "n_qubits, samples, ghz", [(4, 400, True), (4, 400, False), (6, 2000, False)]
    )
    def test_full_space_arrays_match_the_sector_kernel(self, n_qubits, samples, ghz):
        if ghz:
            params = ghz_params()
            proto = compile_ghz4(params)
        else:
            params = ModelParams(n_max=default_n_max(0, n_qubits), **{**LADDER, "n_qubits": n_qubits})
            proto = compile_dicke_ladder(n_qubits, n_qubits, params)
        space = build_space(params)
        result = run_protocol(proto, params, space, samples=samples)
        boundaries = result.step_boundary_populations()
        psi = dicke_state(space, *proto.initial)
        unoccupied = space.parities() != sum(proto.initial) % 2
        for step, traj, pops in zip(proto.steps, result.per_step, boundaries):
            h = build_hamiltonian(replace(params, omega_q=step.omega_q), space)
            states = grid_states(h, psi, step.duration, samples)
            assert np.max(np.abs(traj.populations - np.abs(states) ** 2)) <= 1e-15
            assert np.array_equal(traj.final.amplitudes, states[-1])
            # the step's row of the run's block holds what evolve alone writes
            alone = evolve(psi, h, step.duration, samples=samples)
            for field in ("populations", "nq", "nph"):
                assert np.array_equal(getattr(traj, field), getattr(alone, field))
            assert np.array_equal(traj.final.amplitudes, alone.final.amplitudes)
            assert np.all(traj.populations[:, unoccupied] == 0.0)
            # a view of the run's read-only block, which cannot be made writeable
            assert not traj.populations.flags.writeable
            with pytest.raises(ValueError):
                traj.populations.flags.writeable = True
            # the boundary dict as read off the full-space array
            assert pops == {cell: float(p) for cell, p in zip(space.labels(), traj.populations[-1])}
            assert list(pops) == space.labels()
            psi = to_rotating_frame(traj.final, h, step.duration)

    def test_a_later_run_never_writes_a_live_block(self, monkeypatch):
        monkeypatch.setattr(protocol_module, "_spare", [])
        params = ladder_params()
        space = build_space(params)
        proto = compile_dicke_ladder(4, 4, params)
        first = run_protocol(proto, params, space, samples=400)
        before = [traj.populations.copy() for traj in first.per_step]
        second = run_protocol(proto, params, space, samples=400)
        for traj, kept, other in zip(first.per_step, before, second.per_step):
            assert not np.shares_memory(traj.populations, other.populations)
            assert np.array_equal(traj.populations, kept)

    @pytest.mark.parametrize("samples", [2, 3, 257, 2000])
    def test_dropped_parity_columns_are_exactly_zero_on_a_stale_buffer(self, monkeypatch, samples):
        # Nothing zeroes a run's block: evolve writes every row whole, so the
        # NaN that an earlier run could leave in the kept buffer never
        # reaches a column of the parity the run does not occupy.
        params = ladder_params()
        space = build_space(params)
        proto = compile_dicke_ladder(4, 4, params)
        stale = protocol_module._Buffer(len(proto.steps) * samples * space.dimension)
        stale.fill(np.nan)
        stale.flags.writeable = False
        monkeypatch.setattr(protocol_module, "_spare", [stale])
        result = run_protocol(proto, params, space, samples=samples)
        dropped = space.parities() != sum(proto.initial) % 2
        for traj in result.per_step:
            assert np.shares_memory(traj.populations, stale)
            assert np.all(traj.populations[:, dropped] == 0.0)
            assert not np.signbit(traj.populations[:, dropped]).any()

    def test_a_dropped_run_lends_its_buffer_zeroed(self, monkeypatch):
        monkeypatch.setattr(protocol_module, "_spare", [])
        params = ghz_params()
        space = build_space(params)
        proto = compile_ghz4(params)
        large = run_protocol(proto, params, space, samples=2000)
        small = run_protocol(proto, params, space, samples=400)
        expected = [traj.populations.copy() for traj in small.per_step]
        del large
        del small  # the smaller buffer does not replace the larger spare
        (buffer,) = protocol_module._spare
        assert buffer.size == len(proto.steps) * 2000 * space.dimension
        buffer.flags.writeable = True
        buffer.fill(np.nan)  # stale data that the next run must clear
        again = run_protocol(proto, params, space, samples=400)
        assert protocol_module._spare == []
        for traj, pops in zip(again.per_step, expected):
            assert np.shares_memory(traj.populations, buffer)
            assert np.array_equal(traj.populations, pops)
        del again, traj  # the last row's trajectory too
        assert len(protocol_module._spare) == 1 and protocol_module._spare[0] is buffer

    def test_concurrent_runs_never_share_a_buffer(self, monkeypatch):
        # each thread runs its own sample count, so a block on another run's
        # buffer is zeroed or overwritten with other values under it
        monkeypatch.setattr(protocol_module, "_spare", [])
        params = ghz_params()
        space = build_space(params)
        proto = compile_ghz4(params)
        workers = min(2 * (os.cpu_count() or 1) + 1, 16)
        expected = {}
        for samples in range(40, 40 + workers):
            result = run_protocol(proto, params, space, samples=samples)
            expected[samples] = [traj.populations.copy() for traj in result.per_step]
        del result
        barrier = threading.Barrier(workers)
        errors = []

        def work(samples):
            try:
                barrier.wait(timeout=10)
                for _ in range(20):
                    result = run_protocol(proto, params, space, samples=samples)
                    for traj, pops in zip(result.per_step, expected[samples]):
                        if not np.array_equal(traj.populations, pops):
                            errors.append(f"samples {samples}: populations changed")
            except Exception as exc:
                errors.append(f"samples {samples}: {exc!r}")

        threads = [threading.Thread(target=work, args=(samples,)) for samples in expected]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_a_ladder_retains_only_its_populations(self):
        # N = 6 at 2000 samples, every step's populations read: the run keeps
        # them and little else, and its peak stays close to that.
        params = ModelParams(n_max=default_n_max(0, 6), **{**LADDER, "n_qubits": 6})
        proto = compile_dicke_ladder(6, 6, params)
        space = build_space(params)
        run_protocol(proto, params, space, samples=20)  # the space's and the model's caches
        tracemalloc.start()
        try:
            result = run_protocol(proto, params, space, samples=2000)
            read = [traj.populations for traj in result.per_step]
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        populations = sum(pops.size * 8 for pops in read)
        assert populations == 6 * 2000 * space.dimension * 8
        assert retained <= 1.1 * populations
        assert peak <= 1.3 * populations


class TestPresetRecords:
    """The protocol presets are records in the step and target grammar; the
    named compilers compile the same records."""

    def test_ghz_4_is_compile_ghz4(self):
        spec = PROTOCOL_PRESETS["ghz_4"]
        assert spec.params == ghz_params()
        assert compile_from_rules(spec, spec.params) == compile_ghz4(ghz_params())

    def test_dicke_ladder_4_is_the_full_ladder(self):
        spec = PROTOCOL_PRESETS["dicke_ladder_4"]
        assert spec.params == ladder_params()
        assert compile_from_rules(spec, spec.params) == compile_dicke_ladder(4, 4, ladder_params())

    @pytest.mark.parametrize("name", sorted(PROTOCOL_PRESETS))
    def test_a_record_compiles_only_at_its_own_n(self, name):
        spec = PROTOCOL_PRESETS[name]
        other = replace(spec.params, n_qubits=5)
        with pytest.raises(ValueError, match=rf"^protocol '{name}' is compiled for N = 4, got n_qubits = 5$"):
            compile_from_rules(spec, other)
        # a record without a model compiles at any N its targets fit
        assert compile_from_rules(replace(spec, params=None), other).params == other

    def test_a_step_refusal_keeps_its_type_and_names_the_step(self):
        second = ModelParams(n_qubits=6, coupling=0.1, stark_u=-16.0, n_max=default_n_max(2, 6))
        rules = (StepRule(ResonanceTarget("atc", 1, 0, 0), 0.5), StepRule(ResonanceTarget("tc", 2, 0, 2), 0.5))
        spec = ProtocolSpec("no-root", None, rules, (0, 0), "basis", (2, 2))
        with pytest.raises(ResonanceBracketError, match=r"^protocol step 2 TC\(2\)\(0,2\): no sign change "):
            compile_from_rules(spec, second)
        spec = ProtocolSpec("k0", None, (StepRule(ResonanceTarget("tc", 1, 0, 4), 0.5),), (0, 0), "basis", (1, 1))
        with pytest.raises(ValueError, match=r"^protocol step 1 TC\(0,4\): k0=4 with order 1 exceeds N=4$") as err:
            compile_from_rules(spec, ladder_params())
        assert type(err.value) is ValueError


class TestGuards:
    def test_zero_step_protocol_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            Protocol(
                name="empty",
                params=ghz_params(),
                steps=(),
                rules=(),
                initial=(0, 0),
                target_kind="basis",
                target_cell=(0, 0),
                expected=(),
            )

    def test_cutoff_guard_fires(self):
        # Compile with a wide cutoff but run in a space whose top photon
        # level is reached by the sequence.
        proto = compile_ghz4(ghz_params())
        tight = ghz_params(n_max=2)
        space = build_space(tight)
        with pytest.raises(CutoffExceededError, match=r"^step 1: population "):
            run_protocol(proto, tight, space)

    def test_compile_rejects_insufficient_cutoff(self):
        with pytest.raises(ValueError, match="n_max"):
            compile_ghz4(ghz_params(n_max=1))

    def test_params_mismatch(self):
        proto = compile_ghz4(ghz_params())
        other = ModelParams(**{**GHZ, "coupling": 0.2}, n_max=8)
        space = build_space(other)
        with pytest.raises(ValueError, match="does not match"):
            run_protocol(proto, other, space)

    def test_space_of_another_model_refused(self):
        # N = 4, n_max = 8 and N = 8, n_max = 4 share dimension 45: the run
        # used to evolve in the other space's basis
        params = ghz_params(n_max=8)
        swapped = HilbertSpace(n_qubits=8, n_max=4)
        assert swapped.dimension == build_space(params).dimension
        with pytest.raises(ValueError, match=r"space \(N = 8, n_max = 4\) does not match the model's \(N = 4, n_max = 8\)"):
            run_protocol(compile_ghz4(params), params, swapped)

    @pytest.mark.parametrize("samples", [1, -3, MAX_SAMPLES + 1])
    def test_bad_samples_refused_before_the_block(self, samples):
        params = ghz_params()
        space = build_space(params)
        proto = compile_ghz4(params)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^samples must lie in 2\.\.{MAX_SAMPLES}, got {samples}$"):
                run_protocol(proto, params, space, samples=samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # less than one step's populations at MAX_SAMPLES: no block was allocated
        assert peak < MAX_SAMPLES * space.dimension * 8

    def test_step_validation(self):
        with pytest.raises(ValueError):
            PulseStep(omega_q=1.0, duration=0.0, label="x")
        with pytest.raises(ValueError):
            StepRule(ResonanceTarget("tc", 1, 0, 0), fraction=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_step_data_named(self, value):
        with pytest.raises(ValueError, match="step duration must be positive and finite"):
            PulseStep(omega_q=1.0, duration=value, label="x")
        with pytest.raises(ValueError, match="step omega_q must be finite"):
            PulseStep(omega_q=value, duration=1.0, label="x")
        with pytest.raises(ValueError, match="fraction must be positive and finite"):
            StepRule(ResonanceTarget("tc", 1, 0, 0), fraction=value)

    def test_nan_top_level_population_trips_cutoff_guard(self, monkeypatch):
        import dickestark.protocol as protocol_module

        params = ghz_params()
        space = build_space(params)
        nan_traj = SimpleNamespace(populations=np.full((2, space.dimension), np.nan))
        monkeypatch.setattr(protocol_module, "evolve", lambda *args, **kwargs: nan_traj)
        with pytest.raises(CutoffExceededError):
            run_protocol(compile_ghz4(params), params, space)


def _recompiled(proto):
    """``proto`` written out, read back and compiled at the file's physics."""
    spec = protocol_from_json(proto.to_json())
    return compile_from_rules(spec, spec.params)


class TestSerialization:
    def test_roundtrip(self):
        proto = compile_ghz4(ghz_params())
        rebuilt = _recompiled(proto)
        assert rebuilt.name == proto.name
        assert rebuilt.target_kind == "ghz"
        assert len(rebuilt.steps) == len(proto.steps)
        for a, b in zip(rebuilt.steps, proto.steps):
            assert a.omega_q == pytest.approx(b.omega_q, abs=1e-12)
            assert a.duration == pytest.approx(b.duration, rel=1e-12)

    def test_roundtrip_ladder(self):
        proto = compile_dicke_ladder(4, 3, ladder_params())
        rebuilt = _recompiled(proto)
        assert rebuilt.target_cell == (3, 1)
        assert [s.label for s in rebuilt.steps] == [s.label for s in proto.steps]

    @pytest.mark.parametrize("name", sorted(PROTOCOL_PRESETS))
    def test_preset_record_roundtrip(self, name):
        spec = PROTOCOL_PRESETS[name]
        assert protocol_from_json(spec.to_json()) == spec

    def test_inline_record_roundtrip(self):
        # an inline record at a model, as a protocol run writes it; the file's
        # cutoff is the default for its highest start photon, here 1
        spec = parse_config(
            "[protocol]\nsteps =\n    tc 1 0 1 quarter_period\n    atc 2 1 0 0.3\ninitial = 1 1\ntarget = basis 2 0\n"
        ).protocol.spec
        assert spec.params is None and spec.highest_start_photon == 1
        at_model = replace(spec, params=ModelParams(n_qubits=5, omega_r=1.1, coupling=0.02, stark_u=3.0, n_max=8))
        assert protocol_from_json(at_model.to_json()) == at_model

    def test_record_without_a_model_is_not_written(self):
        spec = parse_config("[protocol]\nsteps = atc 1 0 0\ntarget = basis 1 1\n").protocol.spec
        with pytest.raises(ValueError, match=r"^protocol 'custom' has no model \(N, omega_r, lambda, U\)"):
            spec.to_json()

    def test_file_record_is_cut_off_at_the_default(self):
        spec = protocol_from_json(compile_dicke_ladder(4, 2, ladder_params(n_max=11)).to_json())
        assert spec.params == ladder_params(n_max=default_n_max(0, 4))

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            protocol_from_json("{}")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["target"].pop("kind"), "missing field.*'kind'"),
            (lambda doc: doc["steps"][1].pop("n0"), "missing field.*'n0'"),
            (lambda doc: doc.update(target="ghz"), "missing field"),
            (lambda doc: doc.update(steps=3), "missing field"),
            (lambda doc: doc["steps"][0].update(duration_rule="halfperiod"), "protocol step 1: duration_rule"),
            (
                lambda doc: doc["steps"][0].update(duration_rule=True),
                "protocol step 1: duration_rule must be half_period, quarter_period or a number, got True",
            ),
            (lambda doc: doc["steps"][1].update(order="two"), "protocol step 2: order must be an integer"),
            (lambda doc: doc["steps"][1].update(k0=1.5), "protocol step 2: k0 must be an integer, got 1.5"),
            (lambda doc: doc["target"].update(k="x"), "k must be an integer, got 'x'"),
            (lambda doc: doc.update(N="four"), "N must be an integer"),
            (lambda doc: doc.update(steps=[]), "no steps"),
        ],
    )
    def test_malformed_document_names_the_field(self, edit, message):
        doc = json.loads(compile_dicke_ladder(4, 2, ladder_params()).to_json())
        edit(doc)
        with pytest.raises(ValueError, match=message):
            protocol_from_json(json.dumps(doc))

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="missing field"):
            protocol_from_json("[]")


class TestGrammar:
    """One step grammar and one target grammar for INI lines and JSON."""

    def test_json_steps_follow_the_inline_grammar(self):
        doc = json.loads(compile_dicke_ladder(4, 2, ladder_params()).to_json())
        doc["steps"][0]["duration_rule"] = 0.5
        del doc["steps"][1]["duration_rule"]
        rebuilt = protocol_from_json(json.dumps(doc))
        inline = parse_steps([["atc", "1", "0", "0", "0.5"], ["TC", "1", "0", "1"]])
        assert rebuilt.rules == inline
        assert inline == parse_steps(
            [["atc", "1", "0", "0", "half_period"], ["tc", "1", "0", "1", "half_period"]]
        )

    def test_quarter_period_rule(self):
        (rule,) = parse_steps([["atc", "2", "0", "0", "quarter_period"]])
        assert rule.fraction == 0.25

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([["atc", "1", "0"]], "protocol step 1: expected 'kind order n0 k0"),
            ([["atc", "1", "0", "0"], ["xx", "1", "0", "1"]], "protocol step 2: kind must be"),
            ([["atc", "1", "0", "0", "halfperiod"]], "protocol step 1: duration_rule must be"),
            ([["atc", "one", "0", "0"]], "protocol step 1: order must be an integer, got 'one'"),
            ([["atc", "1", "0", "0", "-1"]], "protocol step 1: fraction must be positive"),
            ([], "no steps"),
        ],
    )
    def test_step_errors_name_the_step(self, lines, message):
        with pytest.raises(ValueError, match=message):
            parse_steps(lines)

    def test_targets(self):
        assert parse_target(["ghz"]) == ("ghz", None)
        assert parse_target(["basis", "2", "0"]) == ("basis", (2, 0))
        assert parse_cell(["1", "1"]) == (1, 1)

    @pytest.mark.parametrize("values", [[], ["ghz", "1"], ["basis", "1"], ["bell"]])
    def test_malformed_target(self, values):
        with pytest.raises(ValueError, match="target must be 'ghz' or 'basis K N'"):
            parse_target(values)

    def test_malformed_cell_names_the_field(self):
        with pytest.raises(ValueError, match="n must be an integer, got 'x'"):
            parse_cell(["1", "x"])
        with pytest.raises(ValueError, match="expected 'K N'"):
            parse_cell(["1"])
