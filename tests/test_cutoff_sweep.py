"""The measurement behind the default photon cutoff, default_n_max(p, N) =
p + N + 2, where p is the highest photon number a run starts a transition
from.

The sweep covers every selective pulse at N = 1..7 (both orders, tc and atc,
every k0, n0 = 0..2, from either cell of the pair), the 8 scan presets, both
protocol presets and every full and partial Dicke ladder at N = 1..7. A case
passes at a cutoff when the top-Fock guard does not trip, there or two
levels higher, and raising the cutoff by two levels moves each of its
observables (final nq and nph, scan curves and peak locations, ladder and
GHZ fidelities) by at most CUTOFF_STABILITY_LIMIT. Every case passes at the
default cutoff and some case fails one level below it, so the rule's margin
is the smallest constant that passes.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from dickestark.dynamics import CutoffExceededError, observables
from dickestark.effective import (
    HALF_PERIOD,
    ResonanceBracketError,
    ResonanceTarget,
    pulse_duration,
    ratio_from_omega_q,
    solve_resonance,
)
from dickestark.model import ModelParams, build_space, default_n_max, dicke_state
from dickestark.presets import (
    FIRST_ORDER_COUPLING,
    FIRST_ORDER_STARK,
    PROTOCOL_PRESETS,
    SCAN_PRESETS,
    SECOND_ORDER_COUPLING,
    SECOND_ORDER_STARK,
)
from dickestark.protocol import (
    ProtocolSpec,
    StepRule,
    compile_dicke_ladder,
    compile_from_rules,
    compile_ghz4,
    run_protocol,
)
from dickestark.scan import peak_report, resonance_scan, scan_grid
from dickestark.validate import CUTOFF_STABILITY_LIMIT

SWEEP_N = range(1, 8)
SWEEP_N0 = range(3)
MODELS = {1: (FIRST_ORDER_COUPLING, FIRST_ORDER_STARK), 2: (SECOND_ORDER_COUPLING, SECOND_ORDER_STARK)}


def _model(order: int, n_qubits: int) -> ModelParams:
    coupling, stark_u = MODELS[order]
    return ModelParams(n_qubits=n_qubits, coupling=coupling, stark_u=stark_u, n_max=default_n_max(0, n_qubits))


def _protocol_observables(proto, n_max: int) -> np.ndarray:
    params = replace(proto.params, n_max=n_max)
    result = run_protocol(proto, params, build_space(params))
    return np.array([result.fidelity, result.fidelity_optimized, *observables(result.final)])


def _targets():
    for order, n_qubits, n0, kind in product(MODELS, SWEEP_N, SWEEP_N0, ("tc", "atc")):
        for k0 in range(n_qubits - order + 1):
            yield n_qubits, ResonanceTarget(kind, order, n0, k0)


# The targets whose resonance the solver refuses at the sweep's models; they
# have no pulse.
REFUSED = {(6, ResonanceTarget("tc", 2, n0, 2)) for n0 in SWEEP_N0}


def _pulses():
    """A one-step protocol per selective pulse, compiled at the default
    cutoff (the steps do not depend on it), started from each cell of its
    pair and targeting the other."""
    for n_qubits, target in _targets():
        if (n_qubits, target) in REFUSED:
            continue
        rules = (StepRule(target, HALF_PERIOD),)
        for start, end in (target.pair(), target.pair()[::-1]):
            spec = ProtocolSpec(f"{target.label()}-N{n_qubits}-from{start}", None, rules, start, "basis", end)
            params = replace(_model(target.order, n_qubits), n_max=default_n_max(spec.highest_start_photon, n_qubits))
            yield compile_from_rules(spec, params)


def _ladders():
    """Every full and partial Dicke ladder; the full N = 4 ladder is the
    dicke_ladder_4 preset."""
    for n_qubits in SWEEP_N:
        for k in range(1, n_qubits + 1):
            yield compile_dicke_ladder(n_qubits, k, _model(1, n_qubits))


def _protocol_case(proto):
    photon = proto.highest_start_photon
    return pytest.param(proto.params.n_qubits, photon, lambda n_max: _protocol_observables(proto, n_max), id=proto.name)


def _scan_case(name, preset):
    def run(n_max: int) -> np.ndarray:
        params = replace(preset.params, n_max=n_max)
        omega_q = solve_resonance(preset.target, params)
        space = build_space(params)
        duration = pulse_duration(preset.target, replace(params, omega_q=omega_q))
        psi0 = dicke_state(space, preset.initial_k, preset.initial_n)
        curve = resonance_scan(psi0, scan_grid(preset.window, preset.points), duration, params, space)
        peak = peak_report(curve, preset.target, ratio_from_omega_q(omega_q, params), preset.min_height)
        return np.concatenate([curve.nq, curve.nph, [peak.location]])

    photon = max(preset.initial_n, preset.target.n0)
    return pytest.param(preset.params.n_qubits, photon, run, id=f"scan-{name}")


# Ladders first: the smallest of them fail one level below the default.
CASES = [
    *map(_protocol_case, (*_ladders(), compile_ghz4(_model(2, 4)), *_pulses())),
    *(_scan_case(name, preset) for name, preset in sorted(SCAN_PRESETS.items())),
]


def _drift(run, n_max: int) -> float:
    """The largest change of any observable when the cutoff is raised from
    ``n_max`` by two levels."""
    return float(np.max(np.abs(run(n_max) - run(n_max + 2))))


def test_the_sweep_spans_the_stated_cases():
    ids = [case.id for case in CASES]
    assert len(ids) == len(set(ids))
    assert sum(i.startswith("dicke_ladder_") for i in ids) == sum(SWEEP_N)
    assert sum(i.startswith("scan-") for i in ids) == len(SCAN_PRESETS) == 8
    # both protocol presets, at the models of their cases
    assert {"ghz_4", "dicke_ladder_4"} <= set(ids)
    assert {name: spec.params for name, spec in PROTOCOL_PRESETS.items()} == {
        "dicke_ladder_4": _model(1, 4),
        "ghz_4": _model(2, 4),
    }
    assert sum("-from" in i for i in ids) == 2 * (len(list(_targets())) - len(REFUSED))
    # The tilde frequency keeps one sign over each bracket, its root lying
    # just above it; the refusal names the nearest pole, where the two aTC
    # channels that the target's cells step through are resonant.
    for n_qubits, target in REFUSED:
        channels = rf"aTC\({target.n0},4\), aTC\({target.n0 + 2},2\)$"
        with pytest.raises(ResonanceBracketError, match="no sign change .* lies outside that range, .* " + channels):
            solve_resonance(target, _model(2, n_qubits))


@pytest.mark.parametrize("n_qubits, photon, run", CASES)
def test_default_cutoff_is_stable(n_qubits, photon, run):
    # a guard trip at either cutoff raises CutoffExceededError here
    assert _drift(run, default_n_max(photon, n_qubits)) <= CUTOFF_STABILITY_LIMIT


def test_default_margin_is_the_smallest_that_passes():
    """The rule is p + N + a constant, and one level below it some case of
    the sweep trips the guard or moves by more than the limit."""
    margins = {default_n_max(p, n) - p - n for n in SWEEP_N for p in range(5)}
    assert len(margins) == 1
    for n_qubits, photon, run in (case.values for case in CASES):
        try:
            if _drift(run, default_n_max(photon, n_qubits) - 1) > CUTOFF_STABILITY_LIMIT:
                return
        except CutoffExceededError:
            return
    pytest.fail(f"every case passes at p + N + {margins.pop() - 1}: the default cutoff is wider than needed")
