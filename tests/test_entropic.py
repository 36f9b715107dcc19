"""Renyi entropies, the constrained minimization and the critical index."""

from __future__ import annotations

import math
import threading
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzduality import (
    LN2,
    MAXIMALLY_MIXED,
    BlochObservable,
    BlochVector,
    ProbPair,
    QubitState,
    brute_force_min,
    classify_regime,
    constrained_min_over_region,
    contour_grid,
    duality_inequality,
    entropy_of_observable,
    entropy_sum,
    find_q_star,
    fringe_scan,
    lp_product_form,
    minimize_entropy_sum,
    predictability,
    probabilities,
    random_mixed_bloch,
    random_pure_bloch,
    renyi_entropy,
    unbiased_saturating_states,
    visibility,
    visibility_op,
)
from mzduality import entropic
from mzduality.entropic import (
    _BLOCK,
    _REGION_BLOCK,
    _RUN,
    _SLACK,
    _arc_bounds,
    _arc_min,
    _arc_sums,
    _ball_bounds,
    _bias_entropy,
    _cell_bounds,
    _linspace_blocks,
    _mixed_blocks,
    _norm_floor,
    _pure_blocks,
    _state_entropy_sum,
    _up,
)
from mzduality.qubit import _row_norms_sq

INV_SQRT2 = 2.0**-0.5
TWO_LN2 = 2.0 * LN2
LN_4_3 = math.log(4.0 / 3.0)
# Shannon and collision entropies of the balanced-superposition distribution
# {(1 + 1/sqrt 2)/2, (1 - 1/sqrt 2)/2}
H1_BALANCED = 0.4164955306996875
H2_BALANCED = LN_4_3
# root of 2 H_q(1/sqrt 2) = ln 2, found independently by bracketed bisection
Q_STAR = 1.4313558811842468


def decimal_bias_entropy(x: float, q: float) -> float:
    """H_q of {(1+x)/2, (1-x)/2} from 60-digit decimal arithmetic.

    Summed as (q ln p + ln(1 + (m/p)^q)) / (1 - q), p >= m, so that p^q
    never has to fit decimal's exponent range (at q = 1e300 it would not).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        xd, qd = Decimal(x), Decimal(q)
        p, m = (1 + xd) / 2, (1 - xd) / 2
        total = qd * p.ln()
        if m > 0:
            total += (1 + (qd * (m / p).ln()).exp()).ln()
        return float(total / (1 - qd))


NEAR_ONE_BIASES = [0.0, 1e-3, 0.1, 0.5, 2.0**-0.5, 0.9, 0.999, 0.999999, 1.0]


def assert_matches_decimal(xs: list[float], q: float) -> None:
    """Float and array paths within 4e-15 of 60-digit decimal at each bias."""
    vec = _bias_entropy(np.array(xs), q)
    for x, h_vec in zip(xs, vec):
        want = decimal_bias_entropy(x, q)
        assert abs(_bias_entropy(x, q) - want) <= 4e-15
        assert abs(h_vec - want) <= 4e-15


UNBIASED_PAIR = ProbPair((1.0 + INV_SQRT2) / 2.0, (1.0 - INV_SQRT2) / 2.0)
UNIFORM_PAIR = ProbPair(0.5, 0.5)
PEAKED_PAIR = ProbPair(1.0, 0.0)

biases = st.floats(1e-4, 0.999)
q_values = st.floats(0.05, 8.0)


class TestRenyiEntropy:
    def test_balanced_superposition_literals(self):
        assert renyi_entropy(UNBIASED_PAIR, 1.0) == pytest.approx(H1_BALANCED, abs=1e-12)
        assert renyi_entropy(UNBIASED_PAIR, 2.0) == pytest.approx(H2_BALANCED, abs=1e-12)

    def test_uniform_pair_gives_ln2_for_every_index(self):
        for q in (0.25, 0.5, 1.0, 1.0 + 5e-8, 2.0, 7.5, math.inf):
            assert renyi_entropy(UNIFORM_PAIR, q) == pytest.approx(LN2, abs=1e-14)

    def test_peaked_pair_gives_zero(self):
        for q in (0.25, 1.0, 2.0, math.inf):
            assert renyi_entropy(PEAKED_PAIR, q) == 0.0

    def test_min_entropy_is_log_max_prob(self):
        pp = ProbPair(0.7, 0.3)
        assert renyi_entropy(pp, math.inf) == pytest.approx(-math.log(0.7), abs=1e-15)

    def test_shannon_limit_only_at_one(self):
        p, m = UNBIASED_PAIR.as_tuple()
        assert renyi_entropy(UNBIASED_PAIR, 1.0) == -(p * math.log(p)) - m * math.log(m)
        # next to 1 the expm1/log1p form, not the limit: the limit is off by
        # about 1.9e-8 at 1 -/+ 5e-8
        assert_matches_decimal(NEAR_ONE_BIASES, 1.0 + 5e-8)
        assert_matches_decimal(NEAR_ONE_BIASES, 1.0 - 5e-8)

    def test_continuity_across_the_window(self):
        h1 = renyi_entropy(UNBIASED_PAIR, 1.0)
        assert abs(renyi_entropy(UNBIASED_PAIR, 1.0 + 1e-6) - h1) < 1e-5
        assert abs(renyi_entropy(UNBIASED_PAIR, 1.0 - 1e-6) - h1) < 1e-5

    @pytest.mark.parametrize("k", range(1, 16))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_accurate_next_to_shannon_window(self, k, sign):
        # ln(sum p^q) / (1-q) is off by about 2.4e-16 / |1-q| here: 2.4e-10
        # at k = 6, and the Shannon limit by up to about 0.4 |1-q|; 4e-15
        # also covers q = 1.1, which lies just outside the band
        assert_matches_decimal(NEAR_ONE_BIASES, 1.0 + sign * 10.0**-k)

    @pytest.mark.parametrize("q", [50.0, 500.0, 1100.0, 2000.0, 1e5, 1e300])
    def test_accurate_at_large_index(self, q):
        # p^q + m^q underflows to 0 once q ln p < -745 (p >= 1/2, so only for
        # q ln 2 > 700); the n = 32 contour axis reaches that from q = 1100
        assert_matches_decimal(np.linspace(0.0, 1.0, 32).tolist(), q)

    def test_large_index_on_probability_pairs(self):
        want = decimal_bias_entropy(0.1, 2000.0) + decimal_bias_entropy(0.2, 2000.0)
        assert abs(entropy_sum(0.1, 0.2, 2000.0) - want) <= 8e-15
        assert renyi_entropy(UNIFORM_PAIR, 1100.0) == pytest.approx(LN2, abs=1e-15)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.05, 1.5, 2000.0, math.inf])
    def test_nan_bias_stays_nan(self, q):
        # the float clamp keeps a NaN, as np.clip does on the array path
        assert math.isnan(_bias_entropy(math.nan, q))
        assert np.isnan(_bias_entropy(np.array([math.nan]), q)).all()

    def test_rejects_bad_index(self):
        for q in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                renyi_entropy(UNIFORM_PAIR, q)

    @given(biases, q_values)
    def test_range_clamped(self, x, q):
        pp = ProbPair((1.0 + x) / 2.0, (1.0 - x) / 2.0)
        h = renyi_entropy(pp, q)
        assert 0.0 <= h <= LN2

    @given(biases, q_values, st.floats(0.01, 5.0))
    @settings(max_examples=120)
    def test_strictly_decreasing_in_q(self, x, q, dq):
        pp = ProbPair((1.0 + x) / 2.0, (1.0 - x) / 2.0)
        assert renyi_entropy(pp, q + dq) < renyi_entropy(pp, q)

    @given(biases, q_values)
    def test_min_entropy_is_infimum(self, x, q):
        pp = ProbPair((1.0 + x) / 2.0, (1.0 - x) / 2.0)
        assert renyi_entropy(pp, math.inf) <= renyi_entropy(pp, q) + 1e-12

    def test_observable_route_is_identical(self):
        obs = BlochObservable(0.0, 1.0, (0.0, 0.0, 1.0))
        state = QubitState.from_bloch(INV_SQRT2, 0.0, INV_SQRT2)
        for q in (0.5, 1.0, 2.0, math.inf):
            direct = renyi_entropy(probabilities(obs, state), q)
            assert entropy_of_observable(obs, state, q) == direct


class TestEntropySum:
    def test_balanced_point_literals(self):
        assert entropy_sum(INV_SQRT2, INV_SQRT2, 1.0) == pytest.approx(
            2.0 * H1_BALANCED, abs=1e-12
        )
        assert entropy_sum(INV_SQRT2, INV_SQRT2, 2.0) == pytest.approx(
            2.0 * LN_4_3, abs=1e-12
        )

    def test_origin_is_two_ln2(self):
        for q in (0.5, 1.0, 2.0):
            assert abs(entropy_sum(0.0, 0.0, q) - TWO_LN2) <= 1e-12

    def test_boundary_points_give_ln2(self):
        for q in (0.25, 1.0, 1.9):
            assert abs(entropy_sum(1.0, 0.0, q) - LN2) <= 1e-12
            assert abs(entropy_sum(0.0, 1.0, q) - LN2) <= 1e-12

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            entropy_sum(1.2, 0.0, 1.0)
        with pytest.raises(ValueError):
            entropy_sum(0.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            entropy_sum(0.5, 0.5, 0.0)


class TestMinimizeEntropySum:
    @pytest.mark.parametrize("q", [0.25, 0.5, 1.0, 1.3])
    def test_boundary_regime(self, q):
        res = minimize_entropy_sum(q)
        assert abs(res.min_value - LN2) <= 1e-9
        assert res.regime == "I"
        assert len(res.minimizers) == 2
        (v0, p0), (v1, p1) = res.minimizers
        assert (v0, p0) == pytest.approx((0.0, 1.0), abs=1e-9)
        assert (v1, p1) == pytest.approx((1.0, 0.0), abs=1e-9)

    def test_balanced_regime(self):
        res = minimize_entropy_sum(2.0)
        assert abs(res.min_value - 2.0 * LN_4_3) <= 1e-9
        assert res.regime == "III"
        assert len(res.minimizers) == 1
        inv = 1.0 / math.sqrt(2.0)
        assert res.minimizers[0] == (inv, inv)

    def test_critical_regime_has_triple_set(self):
        res = minimize_entropy_sum(find_q_star(1e-12))
        assert abs(res.min_value - LN2) <= 1e-9
        assert res.regime == "II"
        assert len(res.minimizers) == 3
        vs = [m[0] for m in res.minimizers]
        assert vs[0] == pytest.approx(0.0, abs=1e-9)
        assert vs[1] == pytest.approx(INV_SQRT2, abs=1e-6)
        assert vs[2] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("q", [0.3, 0.9, 1.2, 1.44, 1.7, 2.0])
    def test_minimizers_sit_on_the_constraint(self, q):
        for v, p in minimize_entropy_sum(q).minimizers:
            assert abs(p * p + v * v - 1.0) <= 1e-12

    def test_rejects_indices_outside_concave_window(self):
        for q in (0.0, -0.5, 2.0 + 1e-9, 10.0, math.inf):
            with pytest.raises(ValueError):
                minimize_entropy_sum(q)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 2.0, exclude_min=True))
    @example(0.9998184675650184)  # ln(sum p^q) / (1-q) undercut ln 2 by 1.2e-12 here
    def test_matches_dense_arc_scan(self, q):
        res = minimize_entropy_sum(q)
        gap = brute_force_min(q, 10_000, False) - res.min_value
        assert -1e-12 <= gap <= 1e-6
        if abs(q - find_q_star(1e-12)) > 1e-4:
            assert res.regime == classify_regime(q)

    def test_min_value_bounded(self):
        for q in (0.1, 0.7, 1.5, 2.0):
            res = minimize_entropy_sum(q)
            assert 0.0 < res.min_value <= TWO_LN2


class TestCriticalIndex:
    def test_location(self):
        assert find_q_star(1e-10) == pytest.approx(Q_STAR, abs=1e-9)

    def test_defining_equation_residual(self):
        q = find_q_star(1e-10)
        assert abs(entropy_sum(INV_SQRT2, INV_SQRT2, q) - LN2) < 1e-9

    def test_deterministic(self):
        assert find_q_star(1e-10) == find_q_star(1e-10)

    def test_tolerance_validation(self):
        message = r"^tolerance must lie in \[1e-14, 1e-3\], got "
        for tol in (0.0, 1e-15, 1e-2, -1.0):
            with pytest.raises(ValueError, match=f"{message}{tol}$"):
                find_q_star(tol)

    def test_tighter_tolerance_stays_consistent(self):
        assert abs(find_q_star(1e-12) - find_q_star(1e-6)) < 2e-6


class TestClassifyRegime:
    def test_fixed_points(self):
        assert classify_regime(0.5) == "I"
        assert classify_regime(1.3) == "I"
        assert classify_regime(1.6) == "III"
        assert classify_regime(2.0) == "III"
        assert classify_regime(find_q_star(1e-12)) == "II"

    def test_band_width(self):
        q_star = find_q_star(1e-12)
        assert classify_regime(q_star + 2e-6) == "III"
        assert classify_regime(q_star - 2e-6) == "I"
        assert classify_regime(q_star + 2e-6, band_eps=1e-5) == "II"

    def test_band_is_closed(self):
        # a q exactly band_eps from q* lies in the band, below q* and above it
        q_star = find_q_star(1e-12)
        for q in (0.5, 1.6):
            assert classify_regime(q, abs(q - q_star)) == "II"

    def test_validation(self):
        for q in (0.0, 2.1, math.inf):
            with pytest.raises(ValueError):
                classify_regime(q)
        for band_eps in (math.nan, -1.0, -5e-324, math.inf):
            with pytest.raises(ValueError, match="band_eps must be finite and nonnegative, got"):
                classify_regime(1.5, band_eps)

    def test_agrees_with_structural_classification(self):
        q_star = find_q_star(1e-12)
        rng = np.random.default_rng(37)
        qs = rng.uniform(0.05, 2.0, size=24)
        qs = [float(q) for q in qs if abs(q - q_star) > 1e-4]
        for q in qs:
            assert classify_regime(q) == minimize_entropy_sum(q).regime


class TestBruteForce:
    def test_matches_refined_minimum_quickly(self):
        for q in (0.5, 1.0, 2.0):
            bf = brute_force_min(q, 10_000, include_mixed=False)
            assert abs(bf - minimize_entropy_sum(q).min_value) <= 1e-6

    def test_mixed_sweep_never_undercuts(self):
        for q in (0.5, 1.7):
            pure_only = brute_force_min(q, 10_000, include_mixed=False)
            with_mixed = brute_force_min(q, 10_000, include_mixed=True, seed=3)
            assert with_mixed >= pure_only - 1e-9

    def test_deterministic_given_seed(self):
        a = brute_force_min(1.0, 10_000, include_mixed=True, seed=5)
        b = brute_force_min(1.0, 10_000, include_mixed=True, seed=5)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_force_min(1.0, 9_999, include_mixed=False)
        with pytest.raises(ValueError):
            brute_force_min(2.5, 10_000, include_mixed=False)

    @pytest.mark.parametrize("include_mixed", [False, True])
    def test_starts_no_thread(self, include_mixed):
        before = threading.active_count()
        brute_force_min(1.7, 10**5, include_mixed, seed=3)
        assert threading.active_count() == before

    def test_up_moves_a_bias_outward(self):
        # a normal bias moves out by 16 to 32 ulps, which clears the few ulps
        # a computed bias may lie below the exact one; subnormals may stay put
        b = np.array([2.2250738585072014e-308, 1e-300, 0.3, 0.5, 0.75, 0.999, 1.0 - 2.0**-47])
        up = _up(b)
        assert np.all(up - b >= 16 * np.spacing(b)) and np.all(up - b <= 32 * np.spacing(b))
        assert float(_up(0.5)) == 0.5 + 16 * math.ulp(0.5)
        # near 1 the move is capped: no bias exceeds 1
        top = np.array([1.0 - 2.0**-48, 1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0])
        assert np.all(_up(top) == 1.0)

    # the bounds must hold for the computed sums, not only for the exact ones
    @pytest.mark.parametrize("n", [10_000, 250_001])
    @pytest.mark.parametrize("q", [0.25, 0.3, 1.0, 1.05, Q_STAR - 1e-7, Q_STAR + 1e-7, 2.0])
    def test_arc_run_bounds_are_sound(self, q, n):
        vals = _arc_sums(np.linspace(0.0, math.pi / 2.0, n), q)
        starts = np.arange(0, n, _RUN)
        bounds = _arc_bounds(q, n, starts.astype(float))
        assert np.all(bounds <= np.minimum.reduceat(vals, starts))

    @pytest.mark.parametrize("n", [10_000, 250_001])
    @pytest.mark.parametrize("q", [0.25, 0.3, 1.0, 1.05, Q_STAR - 1e-7, Q_STAR + 1e-7, 2.0])
    def test_ball_row_bounds_are_sound(self, q, n):
        s = random_mixed_bloch(n, 3)
        bounds = _ball_bounds(_cell_bounds(q), s)
        assert np.all(bounds <= _state_entropy_sum(*s.T, q))

    # the rows the oracle drops by their squared norm alone lie in cells
    # whose bound exceeds its cut, so the cell bounds would drop them too
    @pytest.mark.parametrize("n", [10_000, 250_001])
    @pytest.mark.parametrize("q", [0.25, 0.3, 1.0, 1.05, Q_STAR - 1e-7, Q_STAR + 1e-7, 2.0])
    def test_ball_norm_floor_is_sound(self, q, n):
        s = random_mixed_bloch(n, 3)
        cells = _cell_bounds(q)
        cut = _arc_min(q, n) + _SLACK
        bounds = _ball_bounds(cells, s)
        below = _row_norms_sq(s) < _norm_floor(cells, cut)
        assert below.any() and np.all(bounds[below] > cut)
        assert np.any(bounds <= cut)  # and some rows lie in cells within the cut

    def test_prunes_most_states(self, monkeypatch):
        evaluated = {"arc": 0, "ball": 0}

        def arc_sums(a, q):
            evaluated["arc"] += len(a)
            return arc(a, q)

        def state_sums(x, y, z, q):
            evaluated["ball"] += len(z)
            return ball(x, y, z, q)

        arc, ball = entropic._arc_sums, entropic._state_entropy_sum
        monkeypatch.setattr(entropic, "_arc_sums", arc_sums)
        monkeypatch.setattr(entropic, "_state_entropy_sum", state_sums)
        brute_force_min(1.7, 10**6, True, seed=3)
        # about 4.2 % of the arc's angles and 0.7 % of the ball's rows; the
        # norm floor alone would leave 5.5 % of the ball's rows
        assert evaluated["arc"] < 0.05 * 10**6
        assert evaluated["ball"] < 0.05 * 10**6


class TestContourGrid:
    def test_shape_axis_and_metadata(self):
        grid = contour_grid(1.0, 64)
        assert grid.values.shape == (64, 64)
        assert grid.axis[0] == 0.0 and grid.axis[-1] == 1.0
        assert grid.constraint == "P^2+V^2=1"

    def test_exactly_symmetric(self):
        grid = contour_grid(1.7, 48)
        assert np.array_equal(grid.values, grid.values.T)

    def test_corners(self):
        for q in (1.0, 2.0):
            grid = contour_grid(q, 64)
            assert abs(grid.values[0, 0] - TWO_LN2) <= 1e-12
            assert grid.values[-1, -1] == 0.0
            assert abs(grid.values[0, -1] - LN2) <= 1e-12

    def test_rows_decrease_with_bias(self):
        grid = contour_grid(1.3, 64)
        assert np.all(np.diff(grid.values, axis=1) <= 1e-15)

    def test_nearest_value(self):
        grid = contour_grid(1.0, 64)
        assert grid.nearest_value(0.0, 0.0) == grid.values[0, 0]
        assert grid.nearest_value(1.0, 1.0) == grid.values[-1, -1]
        with pytest.raises(ValueError):
            grid.nearest_value(1.2, 0.0)

    @pytest.mark.parametrize("n", [32, 33, 47, 65, 100, 129, 513, 1025, 4097])
    def test_axis_has_the_bits_of_linspace(self, n):
        axis = contour_grid(1.0, n).axis
        assert axis.tobytes() == np.linspace(0.0, 1.0, n).tobytes()

    @pytest.mark.parametrize(("q", "n"), [(0.3, 47), (1.0, 32), (1.5, 65), (2000.0, 33)])
    def test_cells_have_the_bits_of_entropy_sum(self, q, n):
        grid = contour_grid(q, n)
        axis = grid.axis.tolist()
        want = [[entropy_sum(p, v, q) for p in axis] for v in axis]
        assert grid.values.tobytes() == np.array(want).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            contour_grid(1.0, 31)
        with pytest.raises(ValueError):
            contour_grid(0.0, 64)
        with pytest.raises(ValueError):
            contour_grid(math.inf, 64)


class TestUnbiasedSaturatingStates:
    def test_four_pure_balanced_states(self):
        states = unbiased_saturating_states()
        assert len(states) == 4
        assert len({bv.as_tuple() for bv in states}) == 4
        for bv in states:
            state = QubitState(bv)
            assert state.is_pure
            assert predictability(state) == pytest.approx(INV_SQRT2, abs=1e-12)
            assert visibility(state) == pytest.approx(INV_SQRT2, abs=1e-12)
            assert duality_inequality(state).saturated

    def test_reach_the_balanced_minimum_at_q2(self):
        want = minimize_entropy_sum(2.0).min_value
        for bv in unbiased_saturating_states(theta=0.4):
            state = QubitState(bv)
            got = entropy_sum(predictability(state), visibility(state), 2.0)
            assert got == pytest.approx(want, abs=1e-9)

    def test_saturate_lp_at_their_phase(self):
        from mzduality import predictability_op

        for theta in (0.0, 0.4, 2.0):
            for bv in unbiased_saturating_states(theta):
                state = QubitState(bv)
                v = lp_product_form(predictability_op(), visibility_op(state.theta), state)
                assert v.saturated

    def test_phase_is_respected(self):
        thetas = {QubitState(bv).theta for bv in unbiased_saturating_states(0.7)}
        want = {0.7, (0.7 + math.pi) % (2.0 * math.pi)}
        assert sorted(thetas) == pytest.approx(sorted(want), abs=1e-12)


class TestConstrainedMinOverRegion:
    def test_sphere_region_recovers_constrained_minimum(self):
        def on_sphere(bv):
            return abs(bv.norm - 1.0) <= 1e-9

        for q in (1.0, 2.0):
            res = constrained_min_over_region(q, on_sphere, 30_000, seed=1)
            want = minimize_entropy_sum(q).min_value
            assert res.min_value >= want - 1e-9
            assert res.min_value <= want + 1e-4
            assert on_sphere(res.argmin)

    def test_equatorial_slice(self):
        def equator(bv):
            return abs(bv.sz) <= 1e-3

        res = constrained_min_over_region(1.0, equator, 30_000, seed=2)
        assert res.min_value == pytest.approx(LN2, abs=1e-6)
        assert abs(res.argmin.sz) <= 1e-3

    def test_empty_region_raises(self):
        with pytest.raises(ValueError, match="region"):
            constrained_min_over_region(1.0, lambda bv: False, 1_000, seed=0)

    def test_predicate_sees_real_bloch_vectors(self):
        # the records are built straight from the checked rows, not by BlochVector()
        seen = []

        def half_space(bv):
            assert type(bv) is BlochVector
            seen.append(bv)
            return bv.sx - bv.sz >= 0.2

        res = constrained_min_over_region(1.7, half_space, 3 * _REGION_BLOCK + 1, seed=4)
        assert len(seen) == 3 * _REGION_BLOCK + 1 and type(res.argmin) is BlochVector
        assert all(bv == BlochVector(*bv.as_tuple()) for bv in seen)
        assert res.argmin in seen and half_space(res.argmin)

    def test_counts_accepted_candidates(self):
        res = constrained_min_over_region(1.0, lambda bv: True, 3_000, seed=0)
        assert res.n_accepted >= 2_900

    def test_validation(self):
        with pytest.raises(ValueError):
            constrained_min_over_region(3.0, lambda bv: True, 1_000)
        with pytest.raises(ValueError):
            constrained_min_over_region(1.0, lambda bv: True, 6)


class TestSampling:
    def test_pure_samples_sit_on_sphere(self):
        pts = random_pure_bloch(500, seed=7)
        norms = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_mixed_samples_fill_the_ball(self):
        pts = random_mixed_bloch(500, seed=8)
        norms = np.linalg.norm(pts, axis=1)
        assert np.max(norms) <= 1.0
        assert np.min(norms) < 0.5  # interior actually reached

    def test_deterministic(self):
        assert np.array_equal(random_pure_bloch(50, 3), random_pure_bloch(50, 3))
        assert np.array_equal(random_mixed_bloch(50, 3), random_mixed_bloch(50, 3))
        assert not np.array_equal(random_pure_bloch(50, 3), random_pure_bloch(50, 4))

    def test_zero_requests(self):
        assert random_pure_bloch(0, 1).shape == (0, 3)
        assert random_mixed_bloch(0, 1).shape == (0, 3)

    @pytest.mark.parametrize("sampler", [random_pure_bloch, random_mixed_bloch])
    def test_negative_requests_are_rejected(self, sampler):
        with pytest.raises(ValueError, match=r"^n must be at least 0, got -1$"):
            sampler(-1, 1)


COUNTS = [  # each public count argument, its low bound and a call with it
    ("n_phases", 8, lambda n: fringe_scan(MAXIMALLY_MIXED, n)),
    ("n_states", 10_000, lambda n: brute_force_min(1.7, n, False)),
    ("n", 32, lambda n: contour_grid(1.5, n)),
    ("n_samples", 12, lambda n: constrained_min_over_region(1.7, lambda bv: True, n)),
    ("n", 0, lambda n: random_pure_bloch(n, 1)),
    ("n", 0, lambda n: random_mixed_bloch(n, 1)),
]
COUNT_IDS = ["fringe_scan", "brute_force_min", "contour_grid", "region", "pure", "mixed"]


@pytest.mark.parametrize("bad", [math.nan, 40.5, 1e5, True, "40"], ids=repr)
@pytest.mark.parametrize(("name", "low", "call"), COUNTS, ids=COUNT_IDS)
def test_counts_must_be_integers(name, low, call, bad):
    # range, np.empty or < raised a TypeError that named no argument, and a
    # bool passed as 0 or 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(bad)


@pytest.mark.parametrize(("name", "low", "call"), COUNTS, ids=COUNT_IDS)
def test_counts_take_numpy_integers(name, low, call):
    call(np.int64(low))
    with pytest.raises(ValueError, match=f"^{name} must be at least {low}, got {low - 1}$"):
        call(np.int64(low - 1))


class TestMemoryBound:
    """The oracle and the samplers hold one block of states at a time.

    numpy reports its buffers to tracemalloc, so the peaks are exact. The
    whole-array oracle and ball sampler peaked at 99.5 MB and 83.5 MB.
    """

    @staticmethod
    def traced_peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_brute_force_min(self):
        # one block of cube draws with its norms, its temporaries and one
        # gathered batch of rows, or one block of arc angles or run bounds;
        # no arc grid is held. About 1.3 MB
        assert self.traced_peak(brute_force_min, 1.7, 10**6, True, seed=3) < 4e6

    def test_constrained_min_over_region(self):
        # one block of candidates, their Python floats and their arrays,
        # about 0.4 MB at 3 * 10**4 and 3 * 10**5 samples (1.5 MB while each
        # accepted record lived to the end of its block); the whole candidate
        # array and its one tolist() peaked at 67.2 MB here
        half_space = REGIONS["half_space"]
        assert self.traced_peak(constrained_min_over_region, 1.7, half_space, 3 * 10**5) < 1.6e6

    def test_random_pure_bloch(self):
        # the 24 MB result plus one block of draws; 56 MB as one draw
        assert self.traced_peak(random_pure_bloch, 10**6, 3) < 32e6

    def test_random_mixed_bloch(self):
        # the 24 MB result plus one block of draws
        assert self.traced_peak(random_mixed_bloch, 10**6, 3) < 32e6


# ---- bit-identity references: the expressions the array paths replaced ----


def reference_pure_bloch(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        v[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def reference_mixed_bloch(n, seed):
    rng = np.random.default_rng(seed)
    rows = [np.empty((0, 3))]
    have = 0
    while have < n:
        batch = rng.uniform(-1.0, 1.0, size=(max(n - have, 64) * 2, 3))
        keep = batch[(batch * batch).sum(axis=1) <= 1.0]
        rows.append(keep)
        have += len(keep)
    return np.vstack(rows)[:n]


def reference_brute_force_min(q, n_states, include_mixed, seed):
    """The whole-array sweeps: every arc point, then every ball sample, at once."""
    psi = np.linspace(0.0, math.pi / 2.0, n_states)
    vals = _bias_entropy(np.cos(psi), q)
    vals += _bias_entropy(np.sin(psi), q)
    best = float(vals.min())
    if include_mixed:
        s = reference_mixed_bloch(n_states, seed)
        vals = _bias_entropy(np.abs(s[:, 2]), q)
        vals += _bias_entropy(np.hypot(s[:, 0], s[:, 1]), q)
        best = min(best, float(vals.min()))
    return best


def reference_bias_entropy_vec(x, q):
    p = (1.0 + x) / 2.0
    m = (1.0 - x) / 2.0
    if q == math.inf:
        h = -np.log(np.maximum(p, m))
    elif q == 1.0:
        h = -(p * np.log(p))
        h = h - np.where(m > 0.0, m * np.log(np.where(m > 0.0, m, 1.0)), 0.0)
    else:
        h = np.log(p**q + m**q) / (1.0 - q)
    return np.clip(h, 0.0, LN2) + 0.0


class FloatOps:
    """What ``reference_branch_entropy`` calls on a float, written with math and builtins."""

    log, expm1, log1p = math.log, math.expm1, math.log1p
    where = staticmethod(lambda cond, a, b: a if cond else b)
    clip = staticmethod(lambda h, lo, hi: min(max(h, lo), hi))


def reference_branch_entropy(x, q, ops):
    """H_q of the bias x in the expm1 band or above q ln 2 = 700, one rounding per step.

    ``ops`` is numpy for an array or ``FloatOps`` for a float. The products
    keep the order of the evaluator's former in-place steps, ``expm1(...) * p``,
    which rounds as ``p * expm1(...)`` does.
    """
    p = (1.0 + x) * 0.5
    m = (1.0 - x) * 0.5
    if q * LN2 > 700.0:
        h = (q * ops.log(p) + ops.log1p((m / p) ** q)) / (1.0 - q)
    else:
        assert 0.0 < abs(q - 1.0) < entropic.EXPM1_BAND
        d = q - 1.0
        lm = ops.log(ops.where(m > 0.0, m, 1.0))
        h = ops.log1p(ops.expm1(ops.log(p) * d) * p + ops.expm1(lm * d) * m) / -d
    return ops.clip(h, 0.0, LN2) + 0.0


def reference_region_min(q, region, n_samples, seed):
    """One BlochVector and one scalar evaluation per numpy candidate row."""
    base = n_samples // 3
    sweep_n = max(4, base - base % 4)
    ball_n = max(n_samples - sweep_n - base, 1)
    psi = np.linspace(0.0, 2.0 * math.pi, sweep_n, endpoint=False)
    sweep = np.column_stack([np.sin(psi), np.zeros(sweep_n), np.cos(psi)])
    candidates = np.vstack(
        [sweep, reference_pure_bloch(base, seed), reference_mixed_bloch(ball_n, seed + 1)]
    )
    best_val, best, n_accepted = math.inf, None, 0
    for x, y, z in candidates:
        bv = BlochVector(float(x), float(y), float(z))
        if not region(bv):
            continue
        n_accepted += 1
        val = _bias_entropy(abs(bv.sz), q) + _bias_entropy(math.hypot(bv.sx, bv.sy), q)
        if val < best_val:
            best_val, best = val, bv
    return best_val, best, n_accepted


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Recorded:
    """Region predicate that logs every state it is called with."""

    def __init__(self, accept):
        self.accept = accept
        self.calls = []

    def __call__(self, bv):
        self.calls.append(bv.as_tuple())
        return self.accept(bv)


REGIONS = {
    # the sphere and the whole ball tie exactly at the cardinal sweep states
    "sphere": lambda bv: abs(bv.norm - 1.0) <= 1e-9,
    "equator": lambda bv: abs(bv.sz) <= 1e-3,
    "half_space": lambda bv: 0.48 * bv.sx - 0.6 * bv.sy + 0.64 * bv.sz >= 0.1,
    "everything": lambda bv: True,
}


class TestArrayPathsKeepBits:
    # around _BLOCK = 2**13 the ball sampler's first draw reaches its cap of
    # 2 * _BLOCK rows and the sphere sampler starts its second block; the
    # larger sizes cross several blocks of both
    @pytest.mark.parametrize(
        "n",
        [0, 1, 63, 64, 65, 4_095, 4_096, 4_097, 8_191, 8_192, 8_193, 100_000, 16_383, 16_384,
         16_385, 32_767, 32_768, 32_769, 65_537, 10**6],
    )
    def test_samplers(self, n):
        for seed in range(5):
            want_pure, want_mixed = reference_pure_bloch(n, seed), reference_mixed_bloch(n, seed)
            assert same_bits(random_pure_bloch(n, seed), want_pure)
            assert same_bits(random_mixed_bloch(n, seed), want_mixed)
            pure = list(_pure_blocks(n, seed, _BLOCK))
            mixed = list(_mixed_blocks(n, seed, _BLOCK))
            assert all(len(b) == _BLOCK for b in pure[:-1])
            assert all(len(b) <= 2 * _BLOCK for b in mixed)
            assert same_bits(np.concatenate([np.empty((0, 3)), *pure]), want_pure)
            assert same_bits(np.concatenate([np.empty((0, 3)), *mixed]), want_mixed)

    @pytest.mark.parametrize(
        "q", [0.05, 0.3, 0.5, 0.85, 1.0, 1.1, 1.2, Q_STAR, 1.5, 2.0, 3.0, 7.5, math.inf]
    )
    def test_array_evaluator_outside_the_expm1_band(self, q):
        rng = np.random.default_rng(9)
        x = np.concatenate(
            [rng.uniform(0.0, 1.0, 10_000), [0.0, 5e-324, INV_SQRT2, 1.0 - 2.0**-53, 1.0]]
        )
        before = x.copy()
        assert same_bits(_bias_entropy(x, q), reference_bias_entropy_vec(x, q))
        assert same_bits(x, before)

    # the expm1 band (0 < |q - 1| < 0.1) and the underflow branch (q ln 2 > 700)
    @pytest.mark.parametrize("q", [0.95, 1.0 - 1e-4, 1.0 + 5e-8, 1.05, 1.0999, 1011.0, 1e5])
    def test_evaluator_in_the_expm1_band_and_above_700(self, q):
        rng = np.random.default_rng(9)
        x = np.concatenate(
            [rng.uniform(0.0, 1.0, 10_000), [0.0, 5e-324, INV_SQRT2, 1.0 - 2.0**-53, 1.0]]
        )
        before = x.copy()
        assert same_bits(_bias_entropy(x, q), reference_branch_entropy(x, q, np))
        assert same_bits(x, before)
        floats = [_bias_entropy(f, q) for f in x.tolist()]
        assert all(type(h) is float for h in floats)
        want = [reference_branch_entropy(f, q, FloatOps) for f in x.tolist()]
        assert [h.hex() for h in floats] == [h.hex() for h in want]

    # the last two: the first strict minimum, (0, 0, 1), ranks a few ulps
    # above a later row of the same float value in the array values, so only
    # the 1e-12 screen window sends it to the float comparison
    @pytest.mark.parametrize(
        ("q", "region", "n", "seed"),
        [
            pytest.param(q, region, 3_000, 5, id=f"{q}-{region}")
            for q in (0.3, 1.0 - 1e-4, 1.0, 1.0 + 1e-6, Q_STAR, 2.0)
            for region in sorted(REGIONS)
        ]
        + [
            pytest.param(1.4188845157209462, "everything", 12, 323, id="screen-window-12"),
            pytest.param(1.103920445705629, "everything", 6_145, 557, id="screen-window-6145"),
        ],
    )
    def test_region_minimum(self, q, region, n, seed):
        self.check_region_minimum(region, q, n, seed)

    # 3 * _REGION_BLOCK - 1 to + 1 put the sweep's and the sphere's block
    # edges at and around their ends; 30 000 and 40 001 cross several blocks
    # of each source, the ball's included
    @pytest.mark.parametrize(
        "n", [3 * _REGION_BLOCK - 1, 3 * _REGION_BLOCK, 3 * _REGION_BLOCK + 1, 30_000, 40_001]
    )
    @pytest.mark.parametrize("region", sorted(REGIONS))
    @pytest.mark.parametrize("q", [0.3, 1.0, 1.0 + 1e-6, 2.0])
    def test_region_minimum_across_blocks(self, region, q, n):
        self.check_region_minimum(region, q, n)

    @staticmethod
    def check_region_minimum(region, q, n, seed=5):
        got_calls, want_calls = Recorded(REGIONS[region]), Recorded(REGIONS[region])
        got = constrained_min_over_region(q, got_calls, n, seed=seed)
        want_val, want_argmin, want_n = reference_region_min(q, want_calls, n, seed)
        assert got_calls.calls == want_calls.calls
        assert repr(got.min_value) == repr(want_val)
        assert got.argmin.as_tuple() == want_argmin.as_tuple()
        assert got.n_accepted == want_n

    # sizes around the arc's 2**13-angle blocks and beyond; at 26 and 8 327,
    # (n - 1) * step rounds off pi/2, so the last angle is pinned
    @pytest.mark.parametrize(
        "n",
        [2, 3, 26, 8_192, 8_193, 8_327, 10**4, 32_767, 32_768, 32_769, 65_537, 999_983, 10**6,
         3_000_001],
    )
    def test_arc_grid(self, n):
        blocks = list(_linspace_blocks(math.pi / 2.0, n, True, _BLOCK))
        assert all(len(a) <= _BLOCK for a in blocks)
        assert same_bits(np.concatenate(blocks), np.linspace(0.0, math.pi / 2.0, n))

    # the region's x-z sweep: 4 is the smallest, the rest around its blocks
    @pytest.mark.parametrize("n", [4, 2_044, 2_048, 2_052, 10_000, 13_332])
    def test_sweep_grid(self, n):
        blocks = list(_linspace_blocks(2.0 * math.pi, n, False, _REGION_BLOCK))
        assert all(len(a) <= _REGION_BLOCK for a in blocks)
        want = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        assert same_bits(np.concatenate(blocks), want)

    # at 16 385 and 65 537 the last arc run is the one angle pi/2, whose bound
    # equals its sum: at q = 0.5 that sum is the minimum, so it needs the slack
    @pytest.mark.parametrize("n_states", [10_000, 16_383, 16_384, 16_385, 32_768, 65_537, 250_001])
    @pytest.mark.parametrize(
        "q", [0.25, 0.3, 0.5, 0.95, 1.0, 1.05, Q_STAR - 1e-7, Q_STAR, Q_STAR + 1e-7, 2.0]
    )
    def test_brute_force_min(self, q, n_states):
        for include_mixed in (False, True):
            for seed in range(3):
                got = brute_force_min(q, n_states, include_mixed, seed=seed)
                want = reference_brute_force_min(q, n_states, include_mixed, seed)
                assert repr(got) == repr(want)
