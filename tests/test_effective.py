import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dickestark import effective
from dickestark.effective import (
    SELECTIVITY_RATIO,
    DegenerateDetuningError,
    ResonanceBracketError,
    ResonanceTarget,
    _bare_second_order_omega_q,
    _second_order_closure,
    delta_minus,
    delta_plus,
    pulse_duration,
    ratio_from_omega_q,
    rwa_validity_report,
    second_order,
    solve_first_order_resonance,
    solve_resonance,
    solve_second_order_resonance,
    target_coupling,
)
from dickestark.model import (
    ModelParams,
    _omega_table,
    build_hamiltonian,
    build_space,
    default_n_max,
    dicke_state,
)
from oracles import (
    build_effective_hamiltonian,
    cell_omega,
    closed_form_second_order,
    closed_form_stark_shift,
    detuned_rabi_probability,
    scalar_second_order_root,
    selectivity_rows,
)

FIRST_ORDER = dict(n_qubits=4, omega_r=1.0, coupling=0.006, stark_u=-0.5, n_max=8)
SECOND_ORDER = dict(n_qubits=4, omega_r=1.0, coupling=0.1, stark_u=-16.0, n_max=8)
FAMILIES = ("tc2", "atc2", "r2", "a2")


class TestRabiFrequency:
    # first-order Omega(n, k): the table at [n + 1, k + 1], and target_coupling
    # of either kind at (n0, k0) = (n, k)
    @pytest.mark.parametrize(
        "n, k, expected",
        [(0, 0, 0.006), (1, 0, 0.006 * math.sqrt(2)), (0, 1, 0.006 * math.sqrt(6) / 2)],
    )
    def test_reference_values(self, n, k, expected):
        p = ModelParams(**FIRST_ORDER)
        assert _omega_table(4, 8, 0.006)[n + 1, k + 1] == pytest.approx(expected)
        for kind in ("tc", "atc"):
            assert target_coupling(ResonanceTarget(kind, 1, n, k), p) == pytest.approx(expected)

    def test_positive(self):
        p = ModelParams(**FIRST_ORDER)
        for n in range(4):
            for k in range(4):
                assert _omega_table(4, 8, 0.006)[n + 1, k + 1] > 0
                assert target_coupling(ResonanceTarget("atc", 1, n, k), p) > 0

    def test_top_of_ladder_rejected(self):
        p = ModelParams(**FIRST_ORDER)
        assert _omega_table(4, 8, 0.006)[1, 5] == 0.0  # f(N) = 0
        with pytest.raises(ValueError, match="k0=4 with order 1 exceeds N=4"):
            target_coupling(ResonanceTarget("tc", 1, 0, 4), p)
        with pytest.raises(ValueError, match="n0 and k0 must be non-negative"):
            ResonanceTarget("tc", 1, -1, 0)

    @pytest.mark.parametrize("n_qubits", range(1, 7))
    def test_hamiltonian_element_is_the_target_coupling(self, n_qubits):
        # H(0) couples each first-order pair by the very float the effective
        # layer reports; the two used to differ by rounding
        p = ModelParams(n_qubits=n_qubits, omega_q=0.0, coupling=0.037, stark_u=-0.5, n_max=4)
        space = build_space(p)
        h = build_hamiltonian(p, space).matrix
        for kind in ("tc", "atc"):
            for n0 in range(p.n_max):
                for k0 in range(n_qubits):
                    target = ResonanceTarget(kind, 1, n0, k0)
                    i, j = (space.index(*cell) for cell in target.pair())
                    assert h[i, j] == h[j, i] == target_coupling(target, p)


class TestFirstOrderDetunings:
    def test_closed_forms(self):
        p = ModelParams(omega_q=0.7, **FIRST_ORDER)
        for n in range(3):
            for k in range(5):
                assert delta_plus(n, k, p) == pytest.approx(
                    p.omega_r + p.omega_q + p.stark_u * (n + k + 1 - 2) / 4
                )
                assert delta_minus(n, k, p) == pytest.approx(
                    p.omega_q - p.omega_r + p.stark_u * (n - k + 2) / 4
                )

    def test_tc_resonance_quarter_shift(self):
        # U = -0.5 puts the (0, 0) photon-absorbing resonance at
        # omega_q = omega_r + 0.25, i.e. ratio -0.250.
        p = ModelParams(omega_q=1.25, **FIRST_ORDER)
        assert delta_minus(0, 0, p) == pytest.approx(0.0, abs=1e-15)

    def test_u_zero_is_channel_independent(self):
        p = ModelParams(n_qubits=4, omega_q=0.8, coupling=0.01, stark_u=0.0, n_max=4)
        for n in range(3):
            for k in range(5):
                assert delta_minus(n, k, p) == pytest.approx(delta_minus(0, 0, p))
                assert delta_plus(n, k, p) == pytest.approx(delta_plus(0, 0, p))

    def test_anti_tc_resonance(self):
        # Derived from the closed form: delta_plus(0,0) = 0 at
        # omega_q = -omega_r - U (1 - N/2) / N = -1.125 for U = -0.5.
        p = ModelParams(omega_q=-1.125, **FIRST_ORDER)
        assert delta_plus(0, 0, p) == pytest.approx(0.0, abs=1e-15)


class TestFirstOrderResonances:
    @pytest.mark.parametrize(
        "kind,n0,k0,ratio",
        [
            ("atc", 0, 0, 2.125),
            ("tc", 0, 1, -0.125),
            ("atc", 0, 2, 1.875),
            ("tc", 0, 3, 0.125),
            ("tc", 0, 0, -0.250),
        ],
    )
    def test_ladder_frequencies(self, kind, n0, k0, ratio):
        p = ModelParams(**FIRST_ORDER)
        omega_q = solve_first_order_resonance(ResonanceTarget(kind, 1, n0, k0), p)
        assert ratio_from_omega_q(omega_q, p) == pytest.approx(ratio, abs=1e-12)

    def test_resonance_zeroes_detuning(self):
        p = ModelParams(**FIRST_ORDER)
        for kind in ("tc", "atc"):
            for k0 in range(4):
                t = ResonanceTarget(kind, 1, 0, k0)
                omega_q = solve_first_order_resonance(t, p)
                delta = delta_minus if kind == "tc" else delta_plus
                value = delta(0, k0, ModelParams(**{**FIRST_ORDER, "omega_q": omega_q}))
                assert value == pytest.approx(0.0, abs=1e-14)


class TestSecondOrderCoeffs:
    def test_u_zero_tc_coupling_cancels(self):
        # With U = 0 the two denominators of the two-photon coupling coincide
        # for every (n, k), so the difference vanishes (omega_q is kept off
        # resonance so the shared denominator is nonzero).
        p = ModelParams(n_qubits=4, omega_q=1.3, coupling=0.05, stark_u=0.0, n_max=6)
        for n in range(3):
            for k in range(3):
                assert second_order("tc2", n, k, p)[0] == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("n_max", [4, 6])
    def test_degenerate_point_rejected(self, n_max):
        # At U = 0 and omega_q = omega_r every delta_minus vanishes, which is
        # a degenerate parameter point, not a computable coefficient: every
        # family at (0, 0) reads one of them.
        p = ModelParams(n_qubits=4, omega_q=1.0, coupling=0.05, stark_u=0.0, n_max=n_max)
        for kind in FAMILIES:
            with pytest.raises(DegenerateDetuningError):
                second_order(kind, 0, 0, p)

    def test_the_first_degenerate_denominator_in_summation_order_is_named(self):
        # U = 1e-12 at omega_q = omega_r puts every delta_minus below the floor
        # at once, each at its own U (n - k + N/2) / N. A family refuses the
        # first step of its from-cell, whose channel sits at (n + dn, k - 1):
        # (3, 0) for tc2, (1, 0) for the others. The report's grid refuses the
        # first in (offset, step, n, k) order: the channel (0, 0) that the
        # cell (0, 1) reads.
        p = ModelParams(n_qubits=4, omega_q=1.0, coupling=0.1, stark_u=1e-12, n_max=6)
        first = {"tc2": "-1.250e-12", "atc2": "-7.500e-13", "r2": "-7.500e-13", "a2": "-7.500e-13"}
        for kind, detuning in first.items():
            with pytest.raises(DegenerateDetuningError, match=f"^first-order detuning {detuning} below"):
                second_order(kind, 1, 1, p)
        with pytest.raises(DegenerateDetuningError, match="^first-order detuning -5.000e-13 below"):
            rwa_validity_report(ResonanceTarget("atc", 2, 0, 0), p, build_space(p))

    def test_zero_coupling_gives_zero(self):
        p = ModelParams(n_qubits=4, omega_q=0.4, coupling=0.0, stark_u=-1.0, n_max=6)
        for kind in FAMILIES:
            assert second_order(kind, 1, 1, p)[0] == 0
            # both cells' Stark shifts vanish: the tilde frequency is the bare one
            assert second_order(kind, 1, 1, p)[1] == closed_form_second_order(kind, 1, 1, p)[1]

    def test_tc_coupling_antisymmetry(self):
        # For n - k = -2 the two denominators trade places under U -> -U, so
        # the two-photon coupling flips sign at equal magnitude.
        base = dict(n_qubits=4, omega_q=1.7, coupling=0.05, n_max=6)
        plus, _ = second_order("tc2", 0, 2, ModelParams(stark_u=0.8, **base))
        minus, _ = second_order("tc2", 0, 2, ModelParams(stark_u=-0.8, **base))
        assert plus == pytest.approx(-minus)
        assert abs(plus) > 0

    def test_tilde_composition(self):
        # each family's bare frequency, from the closed forms, plus the Stark
        # shift of the cell moved to minus that of the cell left, as (n, k)
        p = ModelParams(omega_q=-1.0003, **SECOND_ORDER)
        cells = {"atc2": ((0, 0), (2, 2)), "tc2": ((2, 0), (0, 2)), "r2": ((0, 0), (0, 2)), "a2": ((0, 0), (2, 0))}
        for kind, ((n_from, k_from), (n_to, k_to)) in cells.items():
            _, bare, _ = closed_form_second_order(kind, 0, 0, p)
            assert second_order(kind, 0, 0, p)[1] == pytest.approx(
                bare + closed_form_stark_shift(n_to, k_to, p) - closed_form_stark_shift(n_from, k_from, p)
            )


def _outcome(call):
    try:
        return repr(call())
    except DegenerateDetuningError:
        return "refused"


class TestStepSumMatchesClosedForms:
    """The package's second_order sums over first-order steps; the oracle
    writes each family out term by term. At every cell of drawn spaces,
    N = 1..7 with odd N included, each family's coupling and tilde
    frequency (eight quantities) must agree bit for bit, and each call must
    refuse a degenerate point exactly when the oracle's does. The package
    forms a cell's Stark shift only inside a tilde frequency, which carries
    the shifts of both its cells; every cell of the space is the from-cell
    of atc2, r2 and a2 at itself, so each cell's Stark sum and its refusal
    are compared here. Every third draw puts omega_q on a first-order pole,
    where the refusals sit."""

    def test_every_cell_bit_for_bit_or_refused_alike(self):
        rng = np.random.default_rng(2007_625)
        seen = {"value": 0, "refused": 0}
        for draw in range(70):
            n_qubits, n_max = 1 + draw % 7, int(rng.integers(2, 9))
            params = ModelParams(
                n_qubits=n_qubits,
                n_max=n_max,
                coupling=float(rng.uniform(0.0, 0.2)),
                stark_u=float(rng.uniform(-16.0, 16.0)),
                omega_q=float(rng.uniform(-3.0, 3.0)),
            )
            if draw % 3 == 0:
                n, k = int(rng.integers(0, n_max + 1)), int(rng.integers(0, n_qubits))
                delta = (delta_minus, delta_plus)[draw % 2]
                params = replace(params, omega_q=-delta(n, k, replace(params, omega_q=0.0)))
            for n in range(n_max + 1):
                for k in range(n_qubits + 1):
                    got = [_outcome(lambda: second_order(kind, n, k, params)) for kind in FAMILIES]
                    want = [_outcome(lambda: closed_form_second_order(kind, n, k, params)[::2]) for kind in FAMILIES]
                    assert got == want, (params, n, k)
                    for outcome in got:
                        seen["refused" if outcome == "refused" else "value"] += 1
        assert seen["value"] > 0 and seen["refused"] > 0, seen

    def test_closure_at_drawn_omega_q_bit_for_bit_or_refused_alike(self):
        # The solver's closure takes its constants once, at the omega_q of the
        # params it is built from, and is then evaluated at other omega_q. At
        # each drawn omega_q its (coupling, tilde) must equal the closed
        # forms' bit for bit, or refuse with the same message. A refusal
        # names the first degenerate denominator; the closed forms divide by
        # delta where the steps divide by the signed omega dk delta, so the
        # denominator's sign is dropped before the messages are compared.
        def outcome(call):
            try:
                return repr(call())
            except DegenerateDetuningError as exc:
                return str(exc).replace("detuning -", "detuning ")

        rng = np.random.default_rng(2007_625_2)
        seen = {"value": 0, "refused": 0}
        for draw in range(70):
            n_qubits, n_max = 1 + draw % 7, int(rng.integers(2, 9))
            params = ModelParams(
                n_qubits=n_qubits,
                n_max=n_max,
                coupling=float(rng.uniform(0.0, 0.2)),
                stark_u=float(rng.uniform(-16.0, 16.0)),
                omega_q=float(rng.uniform(-3.0, 3.0)),
            )
            omega_q = float(rng.uniform(-3.0, 3.0))
            if draw % 3 == 0:
                n, k = int(rng.integers(0, n_max + 1)), int(rng.integers(0, n_qubits))
                delta = (delta_minus, delta_plus)[draw % 2]
                omega_q = -delta(n, k, replace(params, omega_q=0.0))
            drawn = replace(params, omega_q=omega_q)
            for n in range(n_max + 1):
                for k in range(n_qubits + 1):
                    for kind in FAMILIES:
                        got = outcome(lambda: _second_order_closure(kind, n, k, params)(omega_q))
                        want = outcome(lambda: closed_form_second_order(kind, n, k, drawn)[::2])
                        assert got == want, (params, omega_q, kind, n, k)
                        seen["refused" if got.startswith("first-order") else "value"] += 1
        assert seen["value"] > 0 and seen["refused"] > 0, seen


class TestClosureCache:
    """A family's closure is built once per (kind, n, k, N, n_max, lambda,
    U, omega_r) and shared by every omega_q. A key that dropped a field
    would hand one model another's constants; the closed forms, taken per
    model, would then disagree with it."""

    @pytest.mark.parametrize("field, other", [("coupling", 0.13), ("stark_u", 5.5), ("omega_r", 1.25)])
    def test_models_one_field_apart_keep_their_own_values(self, field, other):
        first = ModelParams(n_qubits=4, omega_q=0.3, coupling=0.1, stark_u=-3.0, n_max=6)
        second = replace(first, **{field: other})
        for kind in FAMILIES:
            values = []
            for params in (first, second, first):
                got = second_order(kind, 1, 1, params)
                assert repr(got) == repr(closed_form_second_order(kind, 1, 1, params)[::2]), (kind, params)
                values.append(got)
            assert values[0] != values[1]

    def test_the_tuned_model_reuses_the_solvers_closure(self):
        params = ModelParams(**SECOND_ORDER)
        target = ResonanceTarget("atc", 2, 0, 0)
        effective._closure.cache_clear()
        tuned = replace(params, omega_q=solve_second_order_resonance(target, params))
        assert _second_order_closure("atc2", 0, 0, tuned) is _second_order_closure("atc2", 0, 0, params)
        pulse_duration(target, tuned)
        target_coupling(target, tuned)
        assert effective._closure.cache_info().misses == 1

    @pytest.mark.parametrize("coupling, stark_u", [(0.07, 0.0), (0.0, 2.5), (0.0, 0.0)])
    def test_keys_equal_but_bitwise_apart_give_the_same_bits(self, coupling, stark_u):
        # 0.0 and -0.0 compare and hash equal, so the cache hands one the
        # other's closure. omega_r > 0 keeps omega_q -+ omega_r off -0.0, so a
        # Stark offset's zero sign never reaches an omega; a zero G enters
        # only through G^2 and G1 G2, both +0.0. omega_q = +-omega_r and +-0.0
        # put a base at zero, and the poles put an omega there.
        def outcome(evaluate, omega_q):
            try:
                return repr(evaluate(omega_q))
            except DegenerateDetuningError as exc:
                return str(exc)

        def signed_zeros(x):
            return (0.0, -0.0) if x == 0.0 else (x,)

        build = effective._closure.__wrapped__
        n_qubits, n_max, omega_r = 3, 4, 1.0
        params = ModelParams(n_qubits=n_qubits, n_max=n_max, coupling=coupling, stark_u=stark_u, omega_q=0.0)
        poles = [-delta(n, k, params) for delta in (delta_minus, delta_plus) for n in range(3) for k in range(3)]
        omega_qs = [0.0, -0.0, omega_r, -omega_r, 0.37, *poles]
        for kind in FAMILIES:
            for n, k in ((0, 0), (1, 1), (2, 3)):
                closures = [
                    build(kind, n, k, n_qubits, n_max, lam, u, omega_r)
                    for lam in signed_zeros(coupling)
                    for u in signed_zeros(stark_u)
                ]
                for omega_q in omega_qs:
                    got = {outcome(evaluate, omega_q) for evaluate in closures}
                    assert len(got) == 1, (kind, n, k, omega_q, got)


class TestSecondOrderResonances:
    def test_ghz_step_frequencies(self):
        p = ModelParams(**SECOND_ORDER)
        w1 = solve_second_order_resonance(ResonanceTarget("atc", 2, 0, 0), p)
        w2 = solve_second_order_resonance(ResonanceTarget("tc", 2, 0, 2), p)
        assert ratio_from_omega_q(w1, p) == pytest.approx(2.0003, abs=1e-4)
        assert ratio_from_omega_q(w2, p) == pytest.approx(0.0046, abs=1e-4)

    def test_tilde_residual_below_tolerance(self):
        from dickestark.effective import tilde_frequency
        from dataclasses import replace

        p = ModelParams(**SECOND_ORDER)
        for target in (ResonanceTarget("atc", 2, 0, 0), ResonanceTarget("tc", 2, 0, 2)):
            omega_q = solve_second_order_resonance(target, p)
            assert abs(tilde_frequency(target, replace(p, omega_q=omega_q))) < 1e-9

    def test_small_coupling_limit_matches_bare_solve(self):
        # The Stark corrections are O(lambda^2), so the root converges to the
        # zero of the bare frequency: -omega_r - U(2n0 + 2k0 + 4 - N)/(2N).
        p = ModelParams(n_qubits=4, omega_r=1.0, coupling=1e-6, stark_u=-16.0, n_max=8)
        t = ResonanceTarget("atc", 2, 0, 0)
        bare = -1.0 - (-16.0) * (0 + 0 + 4 - 4) / 8
        assert solve_second_order_resonance(t, p) == pytest.approx(bare, abs=1e-9)

    def test_bad_bracket_raises(self):
        # a drawn point whose tilde frequency keeps one sign over the bracket;
        # the refusal names the nearest pole, outside it
        p = ModelParams(
            n_qubits=5, coupling=0.10044488984044224, stark_u=-2.1567098707322545, n_max=11
        )
        t = ResonanceTarget("tc", 2, 2, 3)
        outside = r"outside that range, at omega_q = 1\.37238\d*, the first-order resonance of aTC\(4,3\)$"
        with pytest.raises(ResonanceBracketError, match="no sign change .*; the nearest pole lies " + outside):
            solve_second_order_resonance(t, p)

    @pytest.mark.parametrize("stark_u", [-0.5, -16.0])
    @pytest.mark.parametrize("coupling", [1e154, 1e200])
    def test_overflowing_bracket_names_lambda(self, stark_u, coupling):
        # lambda^2 used to raise OverflowError (1e200); at 1e154 the width
        # 10 lambda^2 N / |U| is inf and the solve ended on a NaN residual
        p = ModelParams(n_qubits=4, coupling=coupling, stark_u=stark_u)
        with pytest.raises(ResonanceBracketError, match=re.escape(f"overflows at lambda = {coupling!r}") + "$"):
            solve_second_order_resonance(ResonanceTarget("atc", 2, 0, 0), p)

    @pytest.mark.parametrize("zero_at", [0, 1])
    def test_a_bracket_end_at_an_exact_zero_is_the_root(self, monkeypatch, zero_at):
        # the low end is evaluated first, then the high end
        calls = []

        def closure(kind, n, k, params):
            def evaluate(omega_q):
                calls.append(omega_q)
                return 0.0, 0.0 if len(calls) == zero_at + 1 else 1.0

            return evaluate

        monkeypatch.setattr(effective, "_second_order_closure", closure)
        root = solve_second_order_resonance(ResonanceTarget("atc", 2, 0, 0), ModelParams(**SECOND_ORDER))
        assert len(calls) == 2 and calls[0] < calls[1]
        assert root == calls[zero_at]

    def test_overflowing_false_position_step_bisects(self):
        # At lambda = 1e150 the bracket is finite, about +-8e301, but the
        # false-position step f_hi (hi - lo) overflows; clamped two ulps inside
        # the bracket, each iterate shrank it by two ulps only, about 2^53 times.
        p = ModelParams(n_qubits=4, coupling=1e150, stark_u=-0.5)
        with pytest.raises(ResonanceBracketError, match="^root refinement left"):
            solve_second_order_resonance(ResonanceTarget("atc", 2, 0, 0), p)

    @pytest.mark.parametrize("coupling", [1e77, 1e100, 1e150, 1e153])
    def test_unrefined_root_names_lambda(self, coupling):
        # the bracket +-10 lambda^2 N / |U| is finite but far outside the
        # model's scale; the refusal used to name neither lambda nor the bracket
        p = ModelParams(n_qubits=4, coupling=coupling, stark_u=-0.5)
        message = r"^root refinement left .* at omega_q = \S+ in the bracket \[\S+, \S+\], lambda = "
        with pytest.raises(ResonanceBracketError, match=message + re.escape(repr(coupling)) + "$"):
            solve_second_order_resonance(ResonanceTarget("atc", 2, 0, 0), p)

    def test_bad_bracket_names_a_pole_inside(self):
        # aTC(1,0) is resonant at omega_q = -delta_plus(1, 0) = -1/3 inside the
        # bracket, and the tilde frequency takes one sign at both ends
        p = ModelParams(n_qubits=6, coupling=0.07, stark_u=4.0, n_max=8)
        assert -delta_plus(1, 0, replace(p, omega_q=0.0)) == pytest.approx(-1 / 3)
        inside = r"inside that range, at omega_q = -0\.33333\d*, the first-order resonance of aTC\(1,0\)$"
        with pytest.raises(ResonanceBracketError, match="no sign change .*; the nearest pole lies " + inside):
            solve_second_order_resonance(ResonanceTarget("tc", 2, 0, 1), p)

    def test_degenerate_detuning_names_the_resonant_channel(self):
        # the solve converges onto the pole where TC(1,3) is resonant, at
        # omega_q = omega_r; the refusal used to name neither point nor channel
        p = ModelParams(
            n_qubits=4, coupling=0.1350754965095557, stark_u=-0.6318053729800619, n_max=default_n_max(2, 4)
        )
        message = (
            r"^first-order detuning 6\.895e-11 below the 1e-09 floor at omega_q = 0\.99999\d*;"
            r" the nearest pole lies at omega_q = 1\.0, the first-order resonance of TC\(1,3\)$"
        )
        with pytest.raises(DegenerateDetuningError, match=message):
            solve_second_order_resonance(ResonanceTarget("tc", 2, 1, 2), p)

    def test_named_pole_is_the_nearest_first_order_root(self):
        # Second-order refusals drawn at N = 2..7, both with no sign change
        # over the bracket and with an iterate on a pole. The oracle lists
        # the root -delta(omega_q = 0) of every coupled channel that a step
        # from the target pair drives, cell by cell in the pair's order and
        # step by step in the order below. The named pole must be the root
        # nearest the bracket (or the iterate), the first-listed winning a
        # tie, and its labels every listed channel at that root. The
        # refusals were matched only up to the pole's leading digits.
        steps = ((-1, 1), (-1, -1), (1, -1), (1, 1))  # (dk, dn), in the solver's summation order
        rng = np.random.default_rng(1939_340_2)
        seen = {(n_qubits, case): 0 for n_qubits in range(2, 8) for case in ("no sign change", "on a pole")}
        for draw in range(3000):
            if min(seen.values()) >= 2:
                break
            n_qubits, n0, kind = 2 + draw % 6, int(rng.integers(0, 3)), ("tc", "atc")[draw // 6 % 2]
            target = ResonanceTarget(kind, 2, n0, int(rng.integers(0, n_qubits - 1)))
            params = ModelParams(
                n_qubits=n_qubits,
                coupling=float(rng.uniform(0.01, 0.3)),
                stark_u=float(rng.uniform(-8.0, 8.0)),
                n_max=default_n_max(n0, n_qubits),
            )
            try:
                solve_second_order_resonance(target, params)
                continue
            except DegenerateDetuningError as exc:
                message, case = str(exc), "on a pole"
                lo = hi = float(re.search(r" at omega_q = (\S+);", message)[1])
            except ResonanceBracketError as exc:
                message, case = str(exc), "no sign change"
                lo, hi = map(float, re.search(r"^no sign change .* in \[(\S+), (\S+)\]", message).groups())
            at_zero = replace(params, omega_q=0.0)
            roots = []
            for k, n in target.pair():
                for dk, dn in steps:
                    nn, kk = n + min(dn, 0), k + min(dk, 0)
                    if cell_omega(nn, kk, params) != 0.0:
                        plus = dk == dn
                        root = -(delta_plus if plus else delta_minus)(nn, kk, at_zero)
                        roots.append((root, f"{'aTC' if plus else 'TC'}({nn},{kk})"))
            distances = [max(lo - root, root - hi, 0.0) for root, _ in roots]
            pole = roots[distances.index(min(distances))][0]
            labels = ", ".join(label for root, label in roots if root == pole)
            where = "" if lo == hi else f" {'inside' if lo <= pole <= hi else 'outside'} that range,"
            tail = f"; the nearest pole lies{where} at omega_q = {pole!r}, the first-order resonance of {labels}"
            assert message.endswith(tail), (params, target, message, tail)
            seen[n_qubits, case] += 1
        assert min(seen.values()) >= 2, seen

    def test_matches_brentq_oracle(self):
        # scipy is a test-only oracle. Targets: the fig7 / ghz_4 step-1 and
        # fig8 / ghz_4 step-2 resonances, then seeded draws whose default
        # bracket holds a single sign change on a fine grid and which brentq
        # solves.
        import random
        from dataclasses import replace

        from scipy.optimize import brentq

        from dickestark.effective import tilde_frequency

        def oracle(target, params):
            def objective(omega_q):
                return tilde_frequency(target, replace(params, omega_q=omega_q))

            center = _bare_second_order_omega_q(target, params)
            width = max(10.0 * params.coupling**2 * params.n_qubits / abs(params.stark_u), 1e-6)
            lo, hi = center - width, center + width
            signs = np.sign([objective(w) for w in np.linspace(lo, hi, 201)])
            if np.count_nonzero(np.diff(signs)) != 1:
                return None
            return brentq(objective, lo, hi, xtol=1e-15)

        p = ModelParams(**SECOND_ORDER)
        cases = [
            (target, p, oracle(target, p))
            for target in (ResonanceTarget("atc", 2, 0, 0), ResonanceTarget("tc", 2, 0, 2))
        ]
        rng = random.Random(3)
        while len(cases) < 42:
            n_qubits = rng.randint(2, 6)
            target = ResonanceTarget(
                rng.choice(("tc", "atc")), 2, rng.randrange(3), rng.randrange(n_qubits - 1)
            )
            params = ModelParams(
                n_qubits=n_qubits,
                coupling=rng.uniform(0.01, 0.2),
                stark_u=rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-1.0, 5.0),
                n_max=8,
            )
            try:
                reference = oracle(target, params)
            except DegenerateDetuningError:
                continue
            if reference is not None:
                cases.append((target, params, reference))
        for target, params, reference in cases:
            ours = solve_second_order_resonance(target, params)
            assert ours == pytest.approx(reference, rel=1e-12, abs=0), (target, params)

    def test_dressed_gap_and_sign_oracle(self):
        # Oracle: exact diagonalization at the pair-creation resonance. The
        # two dressed states supported on {(0,0), (2,2)} must be split by
        # 2|coupling|, and the sign of the coupling fixes which combination
        # lies lower (symmetric for negative coupling).
        p = ModelParams(**SECOND_ORDER)
        t = ResonanceTarget("atc", 2, 0, 0)
        omega_q = solve_second_order_resonance(t, p)
        tuned = ModelParams(**{**SECOND_ORDER, "omega_q": omega_q})
        space = build_space(tuned)
        h = build_hamiltonian(tuned, space)
        w, v = np.linalg.eigh(h.matrix)
        ia, ib = space.index(0, 0), space.index(2, 2)
        weight = np.abs(v[ia]) ** 2 + np.abs(v[ib]) ** 2
        two = np.argsort(weight)[-2:]
        lo, hi = sorted(two, key=lambda idx: w[idx])
        gap = w[hi] - w[lo]
        coupling, _ = second_order("atc2", 0, 0, tuned)
        assert coupling < 0
        assert gap == pytest.approx(2 * abs(coupling), rel=0.1)
        # lower dressed state is the symmetric combination when coupling < 0
        prod = (v[ia, lo] * np.conj(v[ib, lo])).real
        assert prod > 0


class TestSecondOrderSideChannels:
    """Oracle checks for the two second-order families no protocol drives:
    the photon-conserving double flip (r2) and the fixed-k photon pair (a2)."""

    def test_double_flip_chain_gaps(self):
        # Engineered r2 resonance (2 omega_q + 2 U n / N = 0 at n = 1): the
        # k-chain (0,1)-(2,1)-(4,1) terminates naturally at k = N, so the
        # exact dressed gaps must match the effective tridiagonal model built
        # from omega_r2 and the Stark shifts.
        from dataclasses import replace

        from scipy.optimize import brentq

        base = ModelParams(n_qubits=4, omega_q=2.0, coupling=0.02, stark_u=-8.0, n_max=6)
        omega_q = brentq(
            lambda wq: second_order("r2", 1, 0, replace(base, omega_q=wq))[1],
            1.9,
            2.1,
            xtol=1e-15,
        )
        tuned = replace(base, omega_q=omega_q)
        space = build_space(tuned)
        h = build_hamiltonian(tuned, space)
        cells = [(0, 1), (2, 1), (4, 1)]
        idx = [space.index(k, n) for k, n in cells]
        diag = [h.matrix[i, i].real + closed_form_stark_shift(n, k, tuned) for (k, n), i in zip(cells, idx)]
        g1, _ = second_order("r2", 1, 0, tuned)
        g2, _ = second_order("r2", 1, 2, tuned)
        h_eff = np.array(
            [[diag[0], g1, 0.0], [g1, diag[1], g2], [0.0, g2, diag[2]]]
        )
        gaps_eff = np.diff(np.linalg.eigvalsh(h_eff))
        w, v = np.linalg.eigh(h.matrix)
        chain_weight = (np.abs(v[idx, :]) ** 2).sum(axis=0)
        three = sorted(np.argsort(chain_weight)[-3:], key=lambda i: w[i])
        assert min(chain_weight[i] for i in three) > 0.99
        gaps_full = np.diff(w[three])
        assert np.max(np.abs(gaps_full - gaps_eff) / np.abs(gaps_eff)) < 0.03

    def test_photon_pair_rate_and_sign(self):
        # Engineered a2 resonance (U = 2 omega_r N / (N - 2k) at k = 0): the
        # n-chain never terminates, so validate in the time domain instead:
        # short-time transfer (0,0) -> (0,2) follows sin^2(|omega_a2| t) and
        # the transfer amplitude's phase carries the coupling's sign
        # (negative coupling -> +i side).
        from dataclasses import replace

        from scipy.optimize import brentq

        from dickestark.dynamics import propagate, to_rotating_frame

        base = ModelParams(n_qubits=4, omega_q=0.25, coupling=0.01, stark_u=2.0, n_max=8)
        u_star = brentq(
            lambda u: second_order("a2", 0, 0, replace(base, stark_u=u))[1],
            1.9,
            2.1,
            xtol=1e-15,
        )
        tuned = replace(base, stark_u=u_star)
        g, _ = second_order("a2", 0, 0, tuned)
        assert g < 0
        space = build_space(tuned)
        h = build_hamiltonian(tuned, space)
        psi0 = dicke_state(space, 0, 0)
        t = 0.2 / abs(g)
        psi = to_rotating_frame(propagate(h, psi0, t), h, t)
        amp = psi.amplitudes[space.index(0, 2)]
        predicted = math.sin(abs(g) * t) ** 2
        assert abs(abs(amp) ** 2 - predicted) / predicted < 0.05
        assert math.sin(np.angle(amp)) > 0.5


class TestEffectiveHamiltonian:
    def test_first_order_tc_block(self):
        p = ModelParams(omega_q=1.25, **FIRST_ORDER)
        space = build_space(p)
        t = ResonanceTarget("tc", 1, 0, 0)
        h = build_effective_hamiltonian(t, p, space)
        i, j = space.index(1, 0), space.index(0, 1)
        assert h.matrix[i, j] == pytest.approx(0.006)
        assert h.matrix[j, i] == pytest.approx(0.006)
        assert np.linalg.matrix_rank(h.matrix) == 2
        mask = np.ones(space.dimension, dtype=bool)
        mask[[i, j]] = False
        assert np.all(h.matrix[mask] == 0)
        assert np.all(h.matrix[:, mask] == 0)

    def test_second_order_pairs(self):
        p = ModelParams(omega_q=-1.0003, **SECOND_ORDER)
        space = build_space(p)
        h = build_effective_hamiltonian(ResonanceTarget("atc", 2, 0, 0), p, space)
        i, j = space.index(0, 0), space.index(2, 2)
        expected, _ = second_order("atc2", 0, 0, p)
        assert h.matrix[i, j] == pytest.approx(expected)
        assert np.count_nonzero(h.matrix) == 2

    def test_out_of_space_target(self):
        p = ModelParams(n_qubits=2, omega_q=1.0, coupling=0.01, stark_u=-0.5, n_max=3)
        space = build_space(p)
        with pytest.raises(ValueError):
            build_effective_hamiltonian(ResonanceTarget("atc", 2, 0, 1), p, space)

    def test_pulse_durations(self):
        p = ModelParams(**FIRST_ORDER)
        t = ResonanceTarget("atc", 1, 0, 0)
        assert pulse_duration(t, p) == pytest.approx(math.pi / (2 * 0.006))
        assert pulse_duration(t, p, fraction=0.25) == pytest.approx(math.pi / (4 * 0.006))


class TestDetunedRabi:
    def test_resonant_half_period(self):
        omega = 0.01
        assert detuned_rabi_probability(omega, 0.0, math.pi / (2 * omega)) == pytest.approx(1.0)

    def test_zero_time(self):
        assert detuned_rabi_probability(0.3, 0.1, 0.0) == 0.0

    def test_two_omega_detuning(self):
        omega = 0.05
        value = detuned_rabi_probability(omega, 2 * omega, math.pi / (2 * omega))
        assert value == pytest.approx(0.5 * math.sin(math.pi / math.sqrt(2)) ** 2)
        assert value == pytest.approx(0.316, abs=1e-3)

    def test_bounds_random_samples(self):
        rng = np.random.default_rng(7)
        samples = 10_000
        p = detuned_rabi_probability(
            rng.uniform(0, 2, samples), rng.uniform(-5, 5, samples), rng.uniform(0, 100, samples)
        )
        assert p.shape == (samples,)
        assert np.all((0.0 <= p) & (p <= 1.0))

    def test_matches_two_level_integration(self):
        # Oracle: RK4 integration of the rotating-frame two-level system
        # i d/dt (a, b) = [[0, W e^{i d t}], [W e^{-i d t}, 0]] (a, b).
        omega, delta, t_final = 0.08, 0.13, 40.0
        steps = 8000
        dt = t_final / steps
        psi = np.array([1.0, 0.0], dtype=complex)

        def rhs(t, y):
            h01 = omega * np.exp(1j * delta * t)
            return -1j * np.array([h01 * y[1], np.conj(h01) * y[0]])

        t = 0.0
        for _ in range(steps):
            k1 = rhs(t, psi)
            k2 = rhs(t + dt / 2, psi + dt / 2 * k1)
            k3 = rhs(t + dt / 2, psi + dt / 2 * k2)
            k4 = rhs(t + dt, psi + dt * k3)
            psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        numeric = abs(psi[1]) ** 2
        assert detuned_rabi_probability(omega, delta, t_final) == pytest.approx(numeric, abs=1e-8)

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            detuned_rabi_probability(-0.1, 0.0, 1.0)


class TestRwaReport:
    def fig_params(self, kind, n0, k0, **overrides):
        base = dict(FIRST_ORDER, **overrides)
        p = ModelParams(**base)
        t = ResonanceTarget(kind, 1, n0, k0)
        omega_q = solve_first_order_resonance(t, p)
        tuned = ModelParams(**{**base, "omega_q": omega_q})
        return t, tuned, build_space(tuned)

    def test_selected_channel_ratio_zero(self):
        t, p, space = self.fig_params("tc", 0, 1)
        report = rwa_validity_report(t, p, space)
        own = [c for c in report.channels if c.kind == "tc" and (c.n, c.k) == (0, 1)]
        assert own[0].selected
        assert own[0].ratio == pytest.approx(0.0, abs=1e-10)

    def test_fig4_adjacent_channels_selective(self):
        t, p, space = self.fig_params("tc", 0, 1)
        report = rwa_validity_report(t, p, space)
        assert report.min_ratio(adjacent_only=True) > 10

    def test_fig4_full_table_flags_borderline_channel(self):
        # The full table is honest: the detached channel tc(2, 2) sits at
        # |delta|/Omega = 0.125 / (0.006 sqrt(18)/2) = 9.82, just under the
        # threshold, and must be flagged even though it never touches the
        # selected pair.
        t, p, space = self.fig_params("tc", 0, 1)
        report = rwa_validity_report(t, p, space)
        risky = {(c.kind, c.n, c.k) for c in report.channels if c.risk}
        assert ("tc", 2, 2) in risky
        row = [c for c in report.channels if (c.kind, c.n, c.k) == ("tc", 2, 2)][0]
        assert 9.5 < row.ratio < 10.0
        assert not row.adjacent

    def test_fig3_all_channels_selective(self):
        t, p, space = self.fig_params("atc", 0, 0)
        report = rwa_validity_report(t, p, space)
        assert report.min_ratio() > 10
        assert report.min_ratio() == pytest.approx(0.125 / (0.006 * math.sqrt(2)), rel=1e-9)

    def test_zero_coupling_sentinel(self):
        t, p, space = self.fig_params("tc", 0, 1, coupling=0.0)
        report = rwa_validity_report(t, p, space)
        assert all(c.no_coupling for c in report.channels)
        assert all(math.isinf(c.ratio) for c in report.channels)
        assert not any(c.risk for c in report.channels)

    def test_second_order_report_includes_two_photon_channels(self):
        p = ModelParams(**SECOND_ORDER)
        t = ResonanceTarget("atc", 2, 0, 0)
        omega_q = solve_second_order_resonance(t, p)
        tuned = ModelParams(**{**SECOND_ORDER, "omega_q": omega_q})
        space = build_space(tuned)
        report = rwa_validity_report(t, tuned, space)
        kinds = {c.kind for c in report.channels}
        assert {"tc", "atc", "tc2", "atc2", "r2", "a2"} <= kinds
        assert report.min_ratio(adjacent_only=True) > 10
        own = [c for c in report.channels if c.kind == "atc2" and (c.n, c.k) == (0, 0)]
        assert own[0].selected and own[0].ratio < 1e-6
        # the first-order pair-creation channels with n + k = 1 are exactly
        # resonant here but disconnected from the selected pair
        detached = [c for c in report.channels if c.kind == "atc" and c.n + c.k == 1]
        assert all(c.risk and not c.adjacent for c in detached)

    def test_kind_column_is_shared_and_read_only(self):
        # every report's kind column is a view of one module table, so a
        # write through one report must not reach the next
        t, p, space = self.fig_params("tc", 0, 1)
        first, second = (rwa_validity_report(t, p, space).columns.kind for _ in range(2))
        assert np.shares_memory(first, second)
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0, 0] = "atc"
        assert second[:, 0, 0].tolist() == ["tc", "atc"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_ratio_is_inf_without_a_warning(self):
        # U = 5e306 puts |delta| near 2.5e306 over Omega ~ 0.006: |delta| /
        # Omega leaves the float range, and np.divide used to warn
        p = ModelParams(n_qubits=2, coupling=0.006, stark_u=5e306, n_max=default_n_max(1, 2))
        t = ResonanceTarget("atc", 1, 0, 0)
        tuned = replace(p, omega_q=solve_first_order_resonance(t, p))
        rows = [c for c in rwa_validity_report(t, tuned, build_space(tuned)).channels if not c.no_coupling]
        ratios = [abs(c.detuning) / abs(c.coupling) for c in rows]  # Python floats overflow to inf silently
        assert [c.ratio for c in rows] == ratios
        assert math.inf in ratios and any(map(math.isfinite, ratios))
        assert not any(c.risk for c, ratio in zip(rows, ratios) if ratio == math.inf)


class TestReportGridMatchesCells:
    """rwa_validity_report evaluates every channel over its whole (n, k)
    grid at once. Each row must equal, bit for bit, the row that
    ``selectivity_rows`` builds channel by channel, risk flags included,
    and the report must raise exactly when some cell's closed form does. Its minima, reduced
    over the columns, must equal the same reductions over the rows. omega_q
    is taken at the solved root and at the bare second-order centre, where
    first-order detunings of whole families vanish and the degenerate cases
    sit. N runs to 7, an odd N beyond the presets."""

    def test_rows_equal_the_per_cell_functions(self):
        rng = np.random.default_rng(2012_08104)
        compared = {1: 0, 2: 0}
        refused = 0
        for n_qubits in range(2, 8):
            for order in (1, 2):
                for kind in ("tc", "atc"):
                    for _ in range(3):
                        n0 = int(rng.integers(0, 3))
                        k0 = int(rng.integers(0, n_qubits - order + 1))
                        target = ResonanceTarget(kind, order, n0, k0)
                        params = ModelParams(
                            n_qubits=n_qubits,
                            coupling=float(rng.uniform(0.01, 0.2)),
                            stark_u=float(rng.choice([-1.0, 1.0]) * 2.0 ** rng.uniform(-1.0, 5.0)),
                            n_max=default_n_max(n0 + order, n_qubits),
                        )
                        points = [_bare_second_order_omega_q(target, params)]
                        try:
                            points.append(solve_resonance(target, params))
                        except (DegenerateDetuningError, ResonanceBracketError):
                            pass
                        for omega_q in points:
                            tuned = replace(params, omega_q=omega_q)
                            space = build_space(tuned)
                            try:
                                expected = selectivity_rows(target, tuned)
                            except DegenerateDetuningError:
                                with pytest.raises(DegenerateDetuningError):
                                    rwa_validity_report(target, tuned, space)
                                refused += 1
                                continue
                            report = rwa_validity_report(target, tuned, space)
                            rows = report.channels
                            got = [tuple(map(repr, row)) for row in rows]
                            assert got == [tuple(map(repr, row)) for row in expected]
                            competing = [c for c in rows if not c.selected and not c.no_coupling]
                            assert repr(report.min_ratio()) == repr(
                                min((c.ratio for c in competing), default=math.inf)
                            )
                            assert repr(report.min_ratio(adjacent_only=True)) == repr(
                                min((c.ratio for c in competing if c.adjacent), default=math.inf)
                            )
                            compared[order] += 1
        assert compared[1] > 0 and compared[2] > 0 and refused > 0

    @pytest.mark.parametrize("n_qubits", [2, 5])
    @pytest.mark.parametrize("pole", ["row n_max+1", "row n_max+2", "column N+1"])
    def test_padded_steps_refuse_as_the_cells_do(self, n_qubits, pole):
        # The report evaluates the steps on the grid padded by two levels.
        # omega_q sits on the pole of one tc channel, and so of every channel
        # with its n - k. In the row cases only a padded cell (n = n_max+1 or
        # n_max+2) reads a live one; in the column case none is live, as
        # f(k) = 0 for k >= N, so the padded columns k = N+1, N+2 read none.
        params = ModelParams(n_qubits=n_qubits, coupling=0.05, stark_u=-3.7, n_max=default_n_max(2, n_qubits))
        channel = {
            "row n_max+1": (params.n_max + 1, 0),
            "row n_max+2": (params.n_max + 2, 0),
            "column N+1": (0, n_qubits),
        }[pole]
        tuned = replace(params, omega_q=-delta_minus(*channel, replace(params, omega_q=0.0)))
        for n in range(params.n_max + 1):
            for k in range(n_qubits + 1):
                # the channels the four steps from the cell (k, n) read
                for n1, k1, plus in ((n, k - 1, 0), (n - 1, k - 1, 1), (n - 1, k, 0), (n, k, 1)):
                    detuning = (delta_minus, delta_plus)[plus](n1, k1, tuned)
                    assert cell_omega(n1, k1, tuned) == 0.0 or abs(detuning) > 1e-6
        target = ResonanceTarget("atc", 2, 0, 0)
        space = build_space(tuned)
        got = _outcome(lambda: [tuple(map(repr, row)) for row in rwa_validity_report(target, tuned, space).channels])
        want = _outcome(lambda: [tuple(map(repr, row)) for row in selectivity_rows(target, tuned)])
        assert got == want
        assert (got == "refused") == pole.startswith("row")


# The types of a report row's fields, in ChannelReport order.
ROW_TYPES = (str, int, int, float, float, float, bool, bool, bool, bool)


class TestReportMatchesChannelOracle:
    """The report writes its masks from the channel table and the target,
    not channel by channel. At every target of N = 1..7 (both orders, both
    kinds, every k0, n0 = 0..2, n_max drawn from the least the target needs
    to the default), each row's ratio, no_coupling, selected, adjacent and
    risk must be those of ``selectivity_rows``, the rows built channel by
    channel from the definitions, and its fields must be the Python types
    ChannelReport declares. omega_q is the solved root, or the bare
    second-order centre where the solve refuses; there the report must
    refuse exactly when the oracle does."""

    def test_every_target_up_to_n_7(self):
        rng = np.random.default_rng(2020_10_20)
        seen = {field: set() for field in ("no_coupling", "selected", "adjacent", "risk")}
        checked = refused = 0
        for n_qubits in range(1, 8):
            for order in (1, 2):
                for kind in ("tc", "atc"):
                    for k0 in range(n_qubits - order + 1):
                        for n0 in range(3):
                            target = ResonanceTarget(kind, order, n0, k0)
                            params = ModelParams(
                                n_qubits=n_qubits,
                                coupling=float(rng.uniform(0.01, 0.2)),
                                stark_u=float(rng.choice([-1.0, 1.0]) * 2.0 ** rng.uniform(-1.0, 5.0)),
                                n_max=int(rng.integers(n0 + order, default_n_max(n0 + order, n_qubits) + 1)),
                            )
                            try:
                                omega_q = solve_resonance(target, params)
                            except (DegenerateDetuningError, ResonanceBracketError):
                                omega_q = _bare_second_order_omega_q(target, params)
                            tuned = replace(params, omega_q=omega_q)
                            space = build_space(tuned)
                            try:
                                want = selectivity_rows(target, tuned)
                            except DegenerateDetuningError:
                                with pytest.raises(DegenerateDetuningError):
                                    rwa_validity_report(target, tuned, space)
                                refused += 1
                                continue
                            rows = rwa_validity_report(target, tuned, space).channels
                            assert [row[:3] for row in rows] == [row[:3] for row in want]
                            for row, expected in zip(rows, want):
                                assert tuple(map(type, row)) == ROW_TYPES, row
                                assert repr(row[5:]) == repr(expected[5:]), (target, tuned, row, expected)
                                for field in seen:
                                    seen[field].add(getattr(row, field))
                            checked += 1
        assert checked > 250 and refused > 0, (checked, refused)
        assert all(values == {False, True} for values in seen.values()), seen


class TestSolverMatchesScalarOracle:
    """The second-order solve reads Omega from one cached table; the oracle
    computes every Omega one cell at a time. Over seeded draws the solver
    must return the same float, or refuse with the same error type, and the
    table must equal the cell values bit for bit."""

    def test_same_root_or_same_refusal(self):
        rng = np.random.default_rng(2012_08104_2)
        outcomes = {"root": 0, "DegenerateDetuningError": 0, "ResonanceBracketError": 0}
        for n_qubits in range(2, 7):
            for kind in ("tc", "atc"):
                for n0 in range(3):
                    for _ in range(3):
                        target = ResonanceTarget(kind, 2, n0, int(rng.integers(0, n_qubits - 1)))
                        params = ModelParams(
                            n_qubits=n_qubits,
                            coupling=float(rng.uniform(0.01, 0.2)),
                            stark_u=float(rng.choice([-1.0, 1.0]) * 2.0 ** rng.uniform(-1.0, 5.0)),
                            n_max=default_n_max(n0 + 2, n_qubits),
                        )
                        try:
                            expected = scalar_second_order_root(target, params)
                        except (DegenerateDetuningError, ResonanceBracketError) as exc:
                            # a degenerate refusal names the channel resonant there
                            named = "the first-order resonance of" if isinstance(exc, DegenerateDetuningError) else None
                            with pytest.raises(type(exc), match=named):
                                solve_resonance(target, params)
                            outcomes[type(exc).__name__] += 1
                            continue
                        assert solve_resonance(target, params) == expected
                        outcomes["root"] += 1
        assert all(count > 0 for count in outcomes.values()), outcomes

    @pytest.mark.parametrize("n_qubits, n_max, coupling", [(1, 0, 0.3), (4, 6, 0.1), (7, 3, 0.017)])
    def test_omega_table_equals_the_cell_values(self, n_qubits, n_max, coupling):
        params = ModelParams(n_qubits=n_qubits, coupling=coupling, n_max=n_max)
        table = _omega_table(n_qubits, n_max, coupling)
        cells = [
            [cell_omega(n, k, params) for k in range(-1, n_qubits + 3)] for n in range(-1, n_max + 3)
        ]
        assert table.tolist() == cells
        assert not table.flags.writeable
        # the table covers the reach of every cell of the space, and no other
        for n, k in [(n_max + 1, 0), (-1, 0), (0, n_qubits + 1), (0, -1)]:
            with pytest.raises(ValueError, match=rf"cell \(n={n}, k={k}\) outside the space"):
                second_order("tc2", n, k, params)


class TestSolveResonanceDispatch:
    def test_first_and_second(self):
        p = ModelParams(**FIRST_ORDER)
        assert solve_resonance(ResonanceTarget("atc", 1, 0, 0), p) == pytest.approx(-1.125)
        p2 = ModelParams(**SECOND_ORDER)
        w = solve_resonance(ResonanceTarget("atc", 2, 0, 0), p2)
        assert ratio_from_omega_q(w, p2) == pytest.approx(2.0003, abs=1e-4)

    def test_target_validation(self):
        p = ModelParams(**FIRST_ORDER)
        with pytest.raises(ValueError):
            solve_resonance(ResonanceTarget("tc", 1, 0, 4), p)
        with pytest.raises(ValueError):
            ResonanceTarget("tc", 3, 0, 0)
        with pytest.raises(ValueError):
            ResonanceTarget("xx", 1, 0, 0)

    @pytest.mark.parametrize("solve", [solve_first_order_resonance, solve_resonance])
    @pytest.mark.parametrize(
        "target, cause",
        [
            (ResonanceTarget("tc", 1, 0, 5), "k0=5 with order 1 exceeds N=4"),
            (ResonanceTarget("atc", 1, 8, 0), "target needs photon number 9 > n_max=8"),
        ],
        ids=["k0-beyond-N", "photon-beyond-n_max"],
    )
    def test_first_order_solver_checks_its_target(self, solve, target, cause):
        # solve_first_order_resonance used to return 0.625 for k0 = 5 at N = 4
        with pytest.raises(ValueError, match=cause):
            solve(target, ModelParams(**FIRST_ORDER))

    @pytest.mark.parametrize(
        "target, cause",
        [
            (ResonanceTarget("atc", 2, 0, 3), "k0=3 with order 2 exceeds N=4"),
            (ResonanceTarget("tc", 2, 7, 0), "target needs photon number 9 > n_max=8"),
        ],
        ids=["k0-beyond-N", "photon-beyond-n_max"],
    )
    def test_second_order_coupling_checks_its_target(self, target, cause):
        # used to raise a degenerate-detuning error for k0 = 3 at N = 4, and
        # to return a number for a pair beyond the cutoff
        with pytest.raises(ValueError, match=cause):
            target_coupling(target, ModelParams(**SECOND_ORDER))
