"""Renyi entropies, the constrained minimization and the critical index."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzduality import (
    LN2,
    BlochObservable,
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

INV_SQRT2 = 2.0**-0.5
TWO_LN2 = 2.0 * LN2
LN_4_3 = math.log(4.0 / 3.0)
# Shannon and collision entropies of the balanced-superposition distribution
# {(1 + 1/sqrt 2)/2, (1 - 1/sqrt 2)/2}
H1_BALANCED = 0.4164955306996875
H2_BALANCED = LN_4_3
# root of 2 H_q(1/sqrt 2) = ln 2, found independently by bracketed bisection
Q_STAR = 1.4313558811842468

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

    def test_shannon_window_substitutes_the_limit(self):
        h1 = renyi_entropy(UNBIASED_PAIR, 1.0)
        assert renyi_entropy(UNBIASED_PAIR, 1.0 + 5e-8) == h1
        assert renyi_entropy(UNBIASED_PAIR, 1.0 - 5e-8) == h1

    def test_continuity_across_the_window(self):
        h1 = renyi_entropy(UNBIASED_PAIR, 1.0)
        assert abs(renyi_entropy(UNBIASED_PAIR, 1.0 + 1e-6) - h1) < 1e-5
        assert abs(renyi_entropy(UNBIASED_PAIR, 1.0 - 1e-6) - h1) < 1e-5

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
        for tol in (0.0, 1e-15, 1e-2, -1.0):
            with pytest.raises(ValueError):
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

    def test_validation(self):
        for q in (0.0, 2.1, math.inf):
            with pytest.raises(ValueError):
                classify_regime(q)

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
