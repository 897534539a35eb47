import math
from dataclasses import replace

import numpy as np
import pytest

from dickestark.effective import (
    SELECTIVITY_RATIO,
    DegenerateDetuningError,
    ResonanceBracketError,
    ResonanceTarget,
    _bare_second_order_omega_q,
    delta_minus,
    delta_plus,
    detuned_rabi_probability,
    pulse_duration,
    rabi_frequency,
    ratio_from_omega_q,
    rwa_validity_report,
    second_order_coeffs,
    solve_first_order_resonance,
    solve_resonance,
    solve_second_order_resonance,
)
from dickestark.model import (
    BasisKind,
    ModelParams,
    build_hamiltonian,
    build_space,
    default_n_max,
    dicke_state,
)
from oracles import build_effective_hamiltonian

FIRST_ORDER = dict(n_qubits=4, omega_r=1.0, coupling=0.006, stark_u=-0.5, n_max=8)
SECOND_ORDER = dict(n_qubits=4, omega_r=1.0, coupling=0.1, stark_u=-16.0, n_max=8)


class TestRabiFrequency:
    def test_reference_values(self):
        p = ModelParams(**FIRST_ORDER)
        assert rabi_frequency(0, 0, p) == pytest.approx(0.006)
        assert rabi_frequency(1, 0, p) == pytest.approx(0.006 * math.sqrt(2))
        assert rabi_frequency(0, 1, p) == pytest.approx(0.006 * math.sqrt(6) / 2)

    def test_positive(self):
        p = ModelParams(**FIRST_ORDER)
        for n in range(4):
            for k in range(4):
                assert rabi_frequency(n, k, p) > 0

    def test_top_of_ladder_rejected(self):
        p = ModelParams(**FIRST_ORDER)
        with pytest.raises(ValueError, match="no upward coupling"):
            rabi_frequency(0, 4, p)
        with pytest.raises(ValueError):
            rabi_frequency(-1, 0, p)


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
                assert second_order_coeffs(n, k, p).omega_tc2 == pytest.approx(0.0, abs=1e-18)

    def test_degenerate_point_rejected(self):
        # At U = 0 and omega_q = omega_r every delta_minus vanishes, which is
        # a degenerate parameter point, not a computable coefficient.
        p = ModelParams(n_qubits=4, omega_q=1.0, coupling=0.05, stark_u=0.0, n_max=6)
        with pytest.raises(DegenerateDetuningError):
            second_order_coeffs(0, 0, p)

    def test_zero_coupling_gives_zero(self):
        p = ModelParams(n_qubits=4, omega_q=0.4, coupling=0.0, stark_u=-1.0, n_max=6)
        c = second_order_coeffs(1, 1, p)
        assert c.omega_tc2 == 0 and c.omega_atc2 == 0
        assert c.omega_r2 == 0 and c.omega_a2 == 0
        assert c.stark_shift == 0

    def test_tc_coupling_antisymmetry(self):
        # For n - k = -2 the two denominators trade places under U -> -U, so
        # the two-photon coupling flips sign at equal magnitude.
        base = dict(n_qubits=4, omega_q=1.7, coupling=0.05, n_max=6)
        plus = second_order_coeffs(0, 2, ModelParams(stark_u=0.8, **base))
        minus = second_order_coeffs(0, 2, ModelParams(stark_u=-0.8, **base))
        assert plus.omega_tc2 == pytest.approx(-minus.omega_tc2)
        assert abs(plus.omega_tc2) > 0

    def test_tilde_composition(self):
        p = ModelParams(omega_q=-1.0003, **SECOND_ORDER)
        from dickestark.effective import stark_shift

        c = second_order_coeffs(0, 0, p)
        assert c.tilde_atc2 == pytest.approx(
            c.delta_atc2 + stark_shift(2, 2, p) - stark_shift(0, 0, p)
        )
        assert c.tilde_tc2 == pytest.approx(
            c.delta_tc2 + stark_shift(0, 2, p) - stark_shift(2, 0, p)
        )


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
        p = ModelParams(**SECOND_ORDER)
        t = ResonanceTarget("atc", 2, 0, 0)
        with pytest.raises(ResonanceBracketError):
            solve_second_order_resonance(t, p, bracket=(-0.5, -0.4))

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
        space = build_space(tuned, BasisKind.SYMMETRIC)
        h = build_hamiltonian(tuned, space)
        w, v = np.linalg.eigh(h.matrix)
        ia, ib = space.index(0, 0), space.index(2, 2)
        weight = np.abs(v[ia]) ** 2 + np.abs(v[ib]) ** 2
        two = np.argsort(weight)[-2:]
        lo, hi = sorted(two, key=lambda idx: w[idx])
        gap = w[hi] - w[lo]
        coupling = second_order_coeffs(0, 0, tuned).omega_atc2
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

        from dickestark.effective import stark_shift

        base = ModelParams(n_qubits=4, omega_q=2.0, coupling=0.02, stark_u=-8.0, n_max=6)
        omega_q = brentq(
            lambda wq: second_order_coeffs(1, 0, replace(base, omega_q=wq)).tilde_r2,
            1.9,
            2.1,
            xtol=1e-15,
        )
        tuned = replace(base, omega_q=omega_q)
        space = build_space(tuned, BasisKind.SYMMETRIC)
        h = build_hamiltonian(tuned, space)
        cells = [(0, 1), (2, 1), (4, 1)]
        idx = [space.index(k, n) for k, n in cells]
        diag = [h.matrix[i, i].real + stark_shift(n, k, tuned) for (k, n), i in zip(cells, idx)]
        g1 = second_order_coeffs(1, 0, tuned).omega_r2
        g2 = second_order_coeffs(1, 2, tuned).omega_r2
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
            lambda u: second_order_coeffs(0, 0, replace(base, stark_u=u)).tilde_a2,
            1.9,
            2.1,
            xtol=1e-15,
        )
        tuned = replace(base, stark_u=u_star)
        g = second_order_coeffs(0, 0, tuned).omega_a2
        assert g < 0
        space = build_space(tuned, BasisKind.SYMMETRIC)
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
        space = build_space(p, BasisKind.SYMMETRIC)
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
        space = build_space(p, BasisKind.SYMMETRIC)
        h = build_effective_hamiltonian(ResonanceTarget("atc", 2, 0, 0), p, space)
        i, j = space.index(0, 0), space.index(2, 2)
        expected = second_order_coeffs(0, 0, p).omega_atc2
        assert h.matrix[i, j] == pytest.approx(expected)
        assert np.count_nonzero(h.matrix) == 2

    def test_out_of_space_target(self):
        p = ModelParams(n_qubits=2, omega_q=1.0, coupling=0.01, stark_u=-0.5, n_max=3)
        space = build_space(p, BasisKind.SYMMETRIC)
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
        for _ in range(10_000):
            omega = rng.uniform(0, 2)
            delta = rng.uniform(-5, 5)
            t = rng.uniform(0, 100)
            p = detuned_rabi_probability(omega, delta, t)
            assert 0.0 <= p <= 1.0

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
        return t, tuned, build_space(tuned, BasisKind.SYMMETRIC)

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
        risky = {(c.kind, c.n, c.k) for c in report.risks()}
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
        assert not report.risks()

    def test_second_order_report_includes_two_photon_channels(self):
        p = ModelParams(**SECOND_ORDER)
        t = ResonanceTarget("atc", 2, 0, 0)
        omega_q = solve_second_order_resonance(t, p)
        tuned = ModelParams(**{**SECOND_ORDER, "omega_q": omega_q})
        space = build_space(tuned, BasisKind.SYMMETRIC)
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


def _cell_rows(target, params):
    """The selectivity rows built channel by channel from the per-cell
    functions, with the table's rules written out on their own."""
    n_q, n_max, m, n0, k0 = params.n_qubits, params.n_max, target.order, target.n0, target.k0
    couples = {  # the two (k, n) cells of each channel at (n, k)
        "tc": lambda n, k: ((k + 1, n), (k, n + 1)),
        "atc": lambda n, k: ((k, n), (k + 1, n + 1)),
        "tc2": lambda n, k: ((k + 2, n), (k, n + 2)),
        "atc2": lambda n, k: ((k, n), (k + 2, n + 2)),
        "r2": lambda n, k: ((k + 2, n), (k, n)),
        "a2": lambda n, k: ((k, n + 2), (k, n)),
    }
    pair = set(couples[target.kind + ("2" if m == 2 else "")](n0, k0))
    rows = []

    def add(kind, n, k, coupling, detuning):
        cells = couples[kind](n, k)
        if not all(0 <= kk <= n_q and 0 <= nn <= n_max for kk, nn in cells):
            coupling = 0.0
        ratio = math.inf if coupling == 0.0 else abs(detuning) / abs(coupling)
        on_line = n - k == n0 - k0 if target.kind == "tc" else n + k == n0 + k0
        selected = kind == target.kind + ("2" if m == 2 else "") and on_line
        adjacent = bool(pair & set(cells))
        risk = not selected and ratio < SELECTIVITY_RATIO
        rows.append((kind, n, k, coupling, detuning, ratio, coupling == 0.0, selected, adjacent, risk))

    grid = [(n, k) for n in range(n_max + 1) for k in range(n_q + 1)]
    for n, k in grid:
        omega = rabi_frequency(n, k, params) if k < n_q else 0.0
        add("tc", n, k, omega, delta_minus(n, k, params))
        add("atc", n, k, omega, delta_plus(n, k, params))
    if m == 2:
        for n, k in grid:
            c = second_order_coeffs(n, k, params)
            add("tc2", n, k, c.omega_tc2, c.tilde_tc2)
            add("atc2", n, k, c.omega_atc2, c.tilde_atc2)
            add("r2", n, k, c.omega_r2, c.tilde_r2)
            add("a2", n, k, c.omega_a2, c.tilde_a2)
    return rows


class TestReportGridMatchesCells:
    """rwa_validity_report evaluates every channel over its whole (n, k)
    grid at once. Each row must equal, bit for bit, the row the per-cell
    functions give, and the report must raise exactly when some cell's
    second_order_coeffs raises. omega_q is taken at the solved root and at
    the bare second-order centre, where first-order detunings of whole
    families vanish and the degenerate cases sit."""

    def test_rows_equal_the_per_cell_functions(self):
        rng = np.random.default_rng(2012_08104)
        compared = {1: 0, 2: 0}
        refused = 0
        for n_qubits in range(2, 7):
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
                            space = build_space(tuned, BasisKind.SYMMETRIC)
                            try:
                                expected = _cell_rows(target, tuned)
                            except DegenerateDetuningError:
                                with pytest.raises(DegenerateDetuningError):
                                    rwa_validity_report(target, tuned, space)
                                refused += 1
                                continue
                            report = rwa_validity_report(target, tuned, space)
                            got = [tuple(map(repr, row)) for row in report.channels]
                            assert got == [tuple(map(repr, row)) for row in expected]
                            compared[order] += 1
        assert compared[1] > 0 and compared[2] > 0 and refused > 0


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
