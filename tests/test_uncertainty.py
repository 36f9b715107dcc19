"""Variance and maximal-probability uncertainty relations."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings

import matrix_oracle as mo
from conftest import ball_points, phases, sphere_points
from mzduality import (
    MAXIMALLY_MIXED,
    BlochObservable,
    QubitState,
    duality_inequality,
    equivalence_audit,
    hr_relation,
    lp_product_form,
    lp_qubit_form,
    lp_relation,
    max_prob,
    predictability,
    predictability_op,
    probabilities,
    pv_audit,
    random_mixed_bloch,
    random_pure_bloch,
    sr_pv_form,
    sr_relation,
    visibility,
    visibility_op,
)

INV_SQRT2 = 2.0**-0.5
TWO_PI = 2.0 * math.pi
SIGMA_Z = BlochObservable(0.0, 1.0, (0.0, 0.0, 1.0))
SIGMA_X = BlochObservable(0.0, 1.0, (1.0, 0.0, 0.0))
SUPER = QubitState.from_bloch(INV_SQRT2, 0.0, INV_SQRT2)


def _batch_states(n_pure: int, n_mixed: int, seed: int) -> list[QubitState]:
    rows = np.vstack(
        [random_pure_bloch(n_pure, seed), random_mixed_bloch(n_mixed, seed + 1)]
    )
    return [QubitState.from_bloch(*map(float, s)) for s in rows]


class TestSchrodingerRobertson:
    def test_hand_case(self):
        v = sr_relation(SIGMA_Z, SIGMA_X, SUPER)
        assert v.lhs == pytest.approx(0.25, abs=1e-12)
        assert v.rhs == pytest.approx(0.25, abs=1e-12)
        assert v.holds and v.saturated

    @given(sphere_points(), sphere_points(), sphere_points())
    @settings(max_examples=80)
    def test_every_pure_state_saturates(self, ax_a, ax_b, s):
        obs_a = BlochObservable(0.0, 1.0, ax_a)
        obs_b = BlochObservable(0.0, 1.0, ax_b)
        v = sr_relation(obs_a, obs_b, QubitState.from_bloch(*s))
        assert v.holds
        assert v.saturated

    @given(sphere_points(), sphere_points(), ball_points())
    @settings(max_examples=80)
    def test_holds_on_mixed_states(self, ax_a, ax_b, s):
        obs_a = BlochObservable(0.0, 1.0, ax_a)
        obs_b = BlochObservable(0.0, 1.0, ax_b)
        assert sr_relation(obs_a, obs_b, QubitState.from_bloch(*s)).holds

    @given(sphere_points(), sphere_points(), ball_points())
    @settings(max_examples=60)
    def test_sides_match_matrix_moments(self, ax_a, ax_b, s):
        obs_a = BlochObservable(0.0, 1.0, ax_a)
        obs_b = BlochObservable(0.0, 1.0, ax_b)
        state = QubitState.from_bloch(*s)
        v = sr_relation(obs_a, obs_b, state)
        rho = mo.density_matrix(s)
        op_a = mo.axis_sigma(obs_a.axis)
        op_b = mo.axis_sigma(obs_b.axis)
        want_lhs = mo.variance_matrix(op_a, rho) * mo.variance_matrix(op_b, rho)
        want_rhs = mo.covariance_matrix(op_a, op_b, rho) ** 2 + mo.commutator_term(
            op_a, op_b, rho
        )
        assert v.lhs == pytest.approx(want_lhs, abs=1e-10)
        assert v.rhs == pytest.approx(want_rhs, abs=1e-10)

    def test_strictly_mixed_states_do_not_saturate(self):
        for state in _batch_states(0, 40, seed=9):
            shrunk = QubitState.from_bloch(
                0.97 * state.bloch.sx, 0.97 * state.bloch.sy, 0.97 * state.bloch.sz
            )
            v = sr_relation(SIGMA_Z, SIGMA_X, shrunk)
            assert v.holds and not v.saturated


class TestHeisenbergRobertson:
    @given(sphere_points(), sphere_points(), ball_points())
    @settings(max_examples=80)
    def test_weaker_than_sr(self, ax_a, ax_b, s):
        obs_a = BlochObservable(0.0, 1.0, ax_a)
        obs_b = BlochObservable(0.0, 1.0, ax_b)
        state = QubitState.from_bloch(*s)
        hr = hr_relation(obs_a, obs_b, state)
        sr = sr_relation(obs_a, obs_b, state)
        assert hr.rhs <= sr.rhs + 1e-12
        assert hr.lhs == sr.lhs
        assert hr.holds

    def test_not_saturated_where_covariance_lives(self):
        hr = hr_relation(SIGMA_Z, SIGMA_X, SUPER)
        assert hr.rhs == pytest.approx(0.0, abs=1e-12)
        assert hr.lhs == pytest.approx(0.25, abs=1e-12)
        assert not hr.saturated


class TestSrPvForm:
    @given(ball_points(), phases)
    @settings(max_examples=80)
    def test_matches_general_form(self, s, phi):
        state = QubitState.from_bloch(*s)
        special = sr_pv_form(state, phi)
        general = sr_relation(predictability_op(), visibility_op(phi), state)
        assert special.lhs == pytest.approx(general.lhs, abs=1e-12)
        assert special.rhs == pytest.approx(general.rhs, abs=1e-12)

    @given(ball_points())
    def test_at_fringe_phase_reduces_to_duality_identity(self, s):
        state = QubitState.from_bloch(*s)
        p, v = predictability(state), visibility(state)
        verdict = sr_pv_form(state, state.theta)
        gap_product = (1.0 - p * p) * (1.0 - v * v) - (p * v) ** 2
        gap_duality = 1.0 - (p * p + v * v)
        assert abs(gap_product - gap_duality) < 1e-12
        assert verdict.gap == pytest.approx(gap_duality, abs=1e-12)


class TestLandauPollak:
    def test_max_prob_basics(self):
        assert max_prob(SIGMA_Z, QubitState.from_bloch(0.0, 0.0, 1.0)) == 1.0
        assert max_prob(SIGMA_Z, MAXIMALLY_MIXED) == 0.5
        state = QubitState.from_bloch(0.3, -0.2, 0.6)
        assert max_prob(SIGMA_Z, state) == probabilities(SIGMA_Z, state).max_prob

    def test_eigenstate_saturates_angle_form(self):
        v = lp_relation(SIGMA_Z, SIGMA_X, QubitState.from_bloch(0.0, 0.0, 1.0))
        assert v.lhs == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert v.rhs == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert v.saturated

    def test_unbiased_state_saturates_both_forms(self):
        angle = lp_relation(SIGMA_Z, SIGMA_X, SUPER)
        product = lp_product_form(SIGMA_Z, SIGMA_X, SUPER)
        assert angle.saturated and product.saturated
        assert product.lhs == pytest.approx(INV_SQRT2, abs=1e-12)

    @given(sphere_points(), sphere_points(), ball_points())
    @settings(max_examples=100)
    def test_all_three_forms_hold_everywhere(self, ax_a, ax_b, s):
        obs_a = BlochObservable(0.0, 1.0, ax_a)
        obs_b = BlochObservable(0.0, 1.0, ax_b)
        state = QubitState.from_bloch(*s)
        assert lp_relation(obs_a, obs_b, state).holds
        assert lp_product_form(obs_a, obs_b, state).holds
        assert lp_qubit_form(obs_a, obs_b, state).holds

    def test_forms_agree_on_sampled_states(self):
        for state in _batch_states(60, 60, seed=17):
            angle = lp_relation(SIGMA_Z, SIGMA_X, state)
            product = lp_product_form(SIGMA_Z, SIGMA_X, state)
            doubled = lp_qubit_form(SIGMA_Z, SIGMA_X, state)
            assert angle.holds == product.holds == doubled.holds
            assert angle.saturated == product.saturated == doubled.saturated
            assert doubled.lhs == pytest.approx(2.0 * product.lhs, abs=1e-12)
            assert doubled.rhs == pytest.approx(2.0 * product.rhs, abs=1e-12)

    def test_doubled_bound_is_twice_overlap_not_less(self):
        # an eigenstate of either observable forces the lhs to sqrt(2);
        # a bound of 1 + |a.b| = 1 would be violated there
        v = lp_qubit_form(SIGMA_Z, SIGMA_X, QubitState.from_bloch(0.0, 0.0, 1.0))
        assert v.lhs == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert v.rhs == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert v.lhs > 1.0
        assert v.saturated


class TestDualityInequality:
    def test_orientation_and_gap(self):
        v = duality_inequality(QubitState.from_bloch(0.3, 0.0, 0.4))
        assert v.lhs == pytest.approx(0.25, abs=1e-12)
        assert v.rhs == 1.0
        assert v.gap == pytest.approx(0.75, abs=1e-12)
        assert v.holds and not v.saturated

    @given(sphere_points())
    def test_pure_states_saturate(self, s):
        assert duality_inequality(QubitState.from_bloch(*s)).saturated

    @given(ball_points())
    def test_lhs_never_exceeds_one(self, s):
        assert duality_inequality(QubitState.from_bloch(*s)).lhs <= 1.0 + 1e-12


class TestEquivalenceAudit:
    def test_maximally_mixed(self):
        audit = equivalence_audit(MAXIMALLY_MIXED)
        assert audit.all_hold
        assert not audit.duality.saturated
        assert not audit.sr.saturated
        assert not audit.lp.saturated
        assert audit.all_agree_on_saturation

    def test_pure_batch_saturates_all_three(self):
        for state in _batch_states(120, 0, seed=23):
            audit = equivalence_audit(state)
            assert audit.all_hold
            assert audit.duality.saturated
            assert audit.all_agree_on_saturation

    def test_mixed_batch_agrees_without_saturation(self):
        for state in _batch_states(0, 120, seed=29):
            shrunk = QubitState.from_bloch(
                0.97 * state.bloch.sx, 0.97 * state.bloch.sy, 0.97 * state.bloch.sz
            )
            audit = equivalence_audit(shrunk)
            assert audit.all_hold
            assert not audit.duality.saturated
            assert audit.all_agree_on_saturation

    def test_eps_gap_plumbing(self):
        # a huge tolerance declares everything saturated, in every relation
        audit = equivalence_audit(MAXIMALLY_MIXED, eps_gap=10.0)
        assert audit.duality.saturated and audit.sr.saturated and audit.lp.saturated

    @pytest.mark.parametrize("eps_gap", [math.nan, -1.0, -5e-324, math.inf], ids=repr)
    def test_bad_eps_gap_is_refused_by_name(self, eps_gap):
        state = QubitState.from_bloch(0.6, 0.0, 0.8)
        calls = [
            partial(equivalence_audit, state, eps_gap),
            partial(pv_audit, np.array([0.0, 0.6]), np.array([1.0, 0.8]), eps_gap),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="eps_gap must be finite and nonnegative, got"):
                call()
        assert equivalence_audit(state, 0.0).duality.holds

    def test_duality_holds_flags(self):
        audit = equivalence_audit(SUPER)
        assert audit.duality.holds and audit.sr.holds and audit.lp.holds


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    # normalized the way random_pure_bloch normalizes its Gaussian draws
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _pv(rows: np.ndarray):
    return np.abs(rows[:, 2]), np.hypot(rows[:, 0], rows[:, 1])


class TestPvAudit:
    def test_matches_scalar_relations(self):
        rows = np.vstack([random_pure_bloch(5000, 11), random_mixed_bloch(5000, 12)])
        audit = pv_audit(*_pv(rows))
        for i, s in enumerate(rows):
            state = QubitState.from_bloch(*map(float, s))
            want = (
                duality_inequality(state),
                sr_pv_form(state, state.theta),
                lp_product_form(predictability_op(), visibility_op(state.theta), state),
            )
            got = (audit.duality, audit.sr, audit.lp)
            for g, w, tol in zip(got, want, (1e-15, 1e-15, 1e-11)):
                assert (bool(g.holds[i]), bool(g.saturated[i])) == (w.holds, w.saturated)
                assert abs(g.gap[i] - w.gap) <= tol

    def test_scalar_wrapper_returns_plain_values(self):
        state = QubitState.from_bloch(0.3, -0.2, 0.6)
        audit = equivalence_audit(state)
        array = pv_audit(np.array([predictability(state)]), np.array([visibility(state)]))
        for v, a in zip((audit.duality, audit.sr, audit.lp), (array.duality, array.sr, array.lp)):
            assert type(v.lhs) is type(v.rhs) is type(v.gap) is float
            assert type(v.holds) is type(v.saturated) is bool
            assert (v.lhs, v.gap, v.holds, v.saturated) == (a.lhs[0], a.gap[0], a.holds[0], a.saturated[0])

    @pytest.mark.parametrize("p", [0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 2e-8, 3e-8, 1e-7, 3e-7])
    def test_pure_states_near_the_equator_agree(self, p):
        # at P ~ 1e-8 the last-ulp norm error of a stored pure state turns
        # into an LP gap above eps_gap; on the duality scale it stays an ulp
        rng = np.random.default_rng(31)
        a = rng.uniform(0.0, TWO_PI, 5000)
        r = math.sqrt(1.0 - p * p)
        rows = _unit_rows(np.column_stack([r * np.cos(a), r * np.sin(a), np.full(5000, p)]))
        rows[::2, 2] *= -1.0
        audit = pv_audit(*_pv(rows))
        assert audit.all_hold.all() and audit.all_agree_on_saturation.all()
        assert audit.duality.saturated.all()
        for s in rows[:50]:
            assert equivalence_audit(QubitState.from_bloch(*map(float, s))).all_agree_on_saturation

    @pytest.mark.parametrize("v", [0.0, 1e-12, 1e-10, 1e-8, 1e-7])
    def test_pure_states_near_the_poles_agree(self, v):
        rng = np.random.default_rng(37)
        a = rng.uniform(0.0, TWO_PI, 5000)
        z = np.full(5000, math.sqrt(1.0 - v * v))
        z[::2] *= -1.0
        rows = _unit_rows(np.column_stack([v * np.cos(a), v * np.sin(a), z]))
        audit = pv_audit(*_pv(rows))
        assert audit.all_hold.all() and audit.all_agree_on_saturation.all()
        assert audit.duality.saturated.all()

    def test_floats_keep_the_array_bits(self):
        # the float path (math) and the array path (numpy) must round alike,
        # signed zeros included; 1 + 2^-52 drives 1 - P^2 below zero and 1 - M_P to zero
        rows = np.vstack([random_pure_bloch(2000, 43), random_mixed_bloch(2000, 44)])
        edge = [0.0, -0.0, 5e-324, 0.5, 1.0, 0.6, 0.8, INV_SQRT2, 1e-8, 1.0 - 2.0**-53, 1.0 + 2.0**-52]
        p = np.concatenate([_pv(rows)[0], np.repeat(edge, len(edge))])
        v = np.concatenate([_pv(rows)[1], np.tile(edge, len(edge))])
        # M = (1 + X)/2 rounds to at most 1 for every bias X <= 1 + 2**-52, as
        # 2 + 2**-52 ties to 2, so the LP leg's root needs no clamp at zero
        assert not np.signbit((1.0 - (1.0 + p) / 2.0) * (1.0 - (1.0 + v) / 2.0)).any()
        array = pv_audit(p, v)
        for i, (pi, vi) in enumerate(zip(p.tolist(), v.tolist())):
            audit = pv_audit(pi, vi)
            for f, a in zip((audit.duality, audit.sr, audit.lp), (array.duality, array.sr, array.lp)):
                for name in ("lhs", "rhs", "gap"):
                    got, want = getattr(f, name), getattr(a, name)
                    want = want[i] if np.ndim(want) else want
                    assert type(got) is float and got.hex() == float(want).hex(), (pi, vi, name)
                for name in ("holds", "saturated"):
                    got = getattr(f, name)
                    assert type(got) is bool and got == bool(getattr(a, name)[i]), (pi, vi, name)

    @pytest.mark.parametrize(
        "bad",
        [math.nan, -1.0, -5e-324, math.inf, -math.inf, 1.0 + 2.0**-51, 1.5, 1e10, 1e300],
        ids=repr,
    )
    @pytest.mark.parametrize("name", ["P", "V"])
    def test_bad_bias_is_refused_by_name(self, name, bad):
        # pv_audit(-1, 0) held and saturated every relation, and a NaN gave
        # NaN gaps that agreed on saturation. No state has a bias above
        # 1 + 1 ulp, and far above it the legs split: at (1e10, 1e10) SR held
        # and saturated while duality and LP read a violation
        if 1.0 < bad < math.inf:
            want = rf"^{name} must be at most 1 \+ 2\*\*-52, the largest bias of a state, got "
        else:
            want = f"^{name} must be finite and nonnegative, got "
        want += re.escape(repr(bad)) + "$"
        good = 0.6
        calls = [(bad, good), (np.array([good, bad, 2.0]), np.array([good, good, good]))]
        for p, v in calls:
            args = (p, v) if name == "P" else (v, p)
            with pytest.raises(ValueError, match=want):
                pv_audit(*args)

    @pytest.mark.parametrize(
        ("p", "want"),
        [([0.0, -1.0], "finite and nonnegative, got -1.0"),
         ([1.0 + 2.0**-52, 2.0], "at most 1 + 2**-52, the largest bias of a state, got 2.0")],
    )
    def test_an_array_refusal_names_the_first_entry_past_the_edge_biases(self, p, want):
        # 0 and 1 + 2**-52 are biases of states, so the entry named is the next one
        with pytest.raises(ValueError, match="^P must be " + re.escape(want) + "$"):
            pv_audit(np.array(p), np.array([0.5, 0.5]))

    def test_biases_past_one_are_audited_not_refused(self):
        # a unit equatorial vector may give V = 1 + 1 ulp, and it saturates;
        # one ulp more is refused
        over = 1.0 + 2.0**-52
        assert visibility(QubitState.from_bloch(0.7512032581921485, -0.6600709544295223, 0.0)) == over
        for p, v in ((0.0, over), (np.array([-0.0]), np.array([over]))):
            audit = pv_audit(p, v)
            assert bool(np.all(audit.all_hold)) and bool(np.all(audit.duality.saturated))
        with pytest.raises(ValueError, match="^P must be at most 1 "):
            pv_audit(math.nextafter(over, 2.0), 0.0)
        empty = pv_audit(np.array([]), np.array([]))
        assert empty.all_hold.shape == (0,)

    @pytest.mark.parametrize(("p", "v", "gap"), [(0.5, 0.5, 0.5), (1.0, 1.0, -1.0)])
    def test_a_gap_of_exactly_eps_gap_is_inside_it(self, p, v, gap):
        # the duality and SR gaps are exact here: at eps_gap = |gap| each leg
        # saturates and holds; one ulp less, neither saturates, and a
        # negative gap no longer holds
        inside = pv_audit(p, v, abs(gap))
        outside = pv_audit(p, v, math.nextafter(abs(gap), 0.0))
        for leg in (inside.duality, inside.sr):
            assert (leg.gap, leg.holds, leg.saturated) == (gap, True, True)
        for leg in (outside.duality, outside.sr):
            assert (leg.gap, leg.holds, leg.saturated) == (gap, gap > 0.0, False)

    @pytest.mark.parametrize(("p", "v"), [(1.0, 0.0), (0.0, 1.0)])
    def test_every_leg_saturates_at_zero_eps_gap_where_scale_is_zero(self, p, v):
        # there the LP leg judges a scaled gap of exactly 0, as the other
        # two legs judge theirs
        audit = pv_audit(p, v, 0.0)
        for leg in (audit.duality, audit.sr, audit.lp):
            assert leg.holds and leg.saturated

    def test_slightly_mixed_states_stay_unsaturated(self):
        # 1 - |s|^2 = 1e-8 is ten times eps_gap in the duality gap, so no
        # relation may saturate, however small the LP gap's own scale
        rows = np.vstack([
            random_pure_bloch(5000, 41),
            [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.6, 0.0, 0.8]],
        ])
        rows *= math.sqrt(1.0 - 1e-8)
        audit = pv_audit(*_pv(rows))
        assert audit.all_hold.all() and audit.all_agree_on_saturation.all()
        for verdict in (audit.duality, audit.sr, audit.lp):
            assert not verdict.saturated.any()

    @pytest.mark.parametrize("k", [0.3, 0.5, 0.8, 1.2, 1.5, 2.0, 2.5, 2.8, 3.5])
    def test_near_pure_mixed_states_agree(self, k):
        # 1 - |s|^2 = k eps_gap; the LP gap alone is the duality gap over a
        # scale up to 2 sqrt 2, so judged on its own scale it saturated up to
        # k ~ 2.8. Within 4 ulp(1) of eps_gap (k within about 9e-7 of 1) the
        # three gaps round apart (TestExactVerdicts).
        rows = random_pure_bloch(10_000, 47) * math.sqrt(1.0 - k * 1e-9)
        audit = pv_audit(*_pv(rows))
        assert audit.all_hold.all() and audit.all_agree_on_saturation.all()
        assert (audit.duality.saturated == (k < 1.0)).all()


# the widest split of a leg's verdict from the exact one seen in measurement
# was 3.37 ulp(1) from +-eps_gap, over 13 seeds of 228 000 rows like these
SPLIT_WINDOW = 4.0 * math.ulp(1.0)


def near_threshold_pv(eps_gap: float, rng, n: int):
    """n (P, V) per stratum whose gap 1 - P^2 - V^2 lies near 0, eps_gap or -eps_gap.

    The strata are within 1e-13, 1e-15 and 4e-16 of each centre, up to the
    rounding of P and V themselves; the exact gaps are computed afterwards.
    """
    p, v = [], []
    for centre in (0.0, eps_gap, -eps_gap):
        for width in (1e-13, 1e-15, 4e-16):
            r = np.sqrt(1.0 - (centre + rng.uniform(-width, width, n)))
            a = rng.uniform(0.0, math.pi / 2.0, n)
            p.append(r * np.cos(a))
            v.append(r * np.sin(a))
    return np.concatenate(p), np.concatenate(v)


class TestExactVerdicts:
    @pytest.mark.parametrize("eps_gap", [1e-9, 1e-12, 1e-15])
    def test_every_leg_gives_the_exact_verdict_outside_the_window(self, eps_gap):
        # a float is a dyadic rational, so each row's duality gap is an exact
        # Fraction; the SR gap and the LP gap times its scale equal it exactly
        p, v = near_threshold_pv(eps_gap, np.random.default_rng(53), 1000)
        for rows in (random_pure_bloch(4000, 59), random_mixed_bloch(4000, 61)):
            p, v = np.concatenate([p, _pv(rows)[0]]), np.concatenate([v, _pv(rows)[1]])
        eps = Fraction(eps_gap)
        gaps = [1 - Fraction(a) ** 2 - Fraction(b) ** 2 for a, b in zip(p.tolist(), v.tolist())]
        holds = np.array([g >= -eps for g in gaps])
        saturated = np.array([abs(g) <= eps for g in gaps])
        clear = np.array([min(abs(g - eps), abs(g + eps)) > SPLIT_WINDOW for g in gaps])
        assert 0 < np.count_nonzero(~clear) < len(gaps)  # the strata reach into the window
        audit = pv_audit(p, v, eps_gap)
        for leg in (audit.duality, audit.sr, audit.lp):
            assert np.array_equal(leg.holds[clear], holds[clear])
            assert np.array_equal(leg.saturated[clear], saturated[clear])
