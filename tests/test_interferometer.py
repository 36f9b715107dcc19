"""Interferometer elements and fringe extraction against the unitary oracle."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

import matrix_oracle as mo
from conftest import ball_points, phases, sphere_points
from mzduality import (
    MAXIMALLY_MIXED,
    QubitState,
    apply_beam_splitter,
    apply_phase_shifter,
    expectation,
    fringe_scan,
    predictability,
    predictability_op,
    probabilities,
    random_mixed_bloch,
    random_pure_bloch,
    sr_pv_form,
    unbiased_saturating_states,
    visibility,
    visibility_op,
    visibility_perp_op,
)

TWO_PI = 2.0 * math.pi


def _bloch_close(state: QubitState, want, tol=1e-12):
    got = state.bloch.as_tuple()
    assert got == pytest.approx(want, abs=tol), (got, want)


class TestBeamSplitter:
    def test_path_state_goes_to_full_fringe(self):
        out = apply_beam_splitter(QubitState.from_bloch(0.0, 0.0, 1.0))
        assert out.bloch.as_tuple() == (1.0, 0.0, 0.0)

    def test_component_permutation(self):
        out = apply_beam_splitter(QubitState.from_bloch(0.2, -0.4, 0.3))
        _bloch_close(out, (0.3, -0.4, -0.2), tol=0.0)

    @given(ball_points())
    @settings(max_examples=60)
    def test_matches_unitary_conjugation(self, s):
        u = mo.beam_splitter_unitary()
        want = mo.bloch_from_density(mo.conjugate(u, mo.density_matrix(s)))
        out = apply_beam_splitter(QubitState.from_bloch(*s))
        _bloch_close(out, want)

    @given(ball_points())
    def test_is_an_exact_signed_permutation(self, s):
        # components survive bit-for-bit, so the norm is conserved up to
        # the reordering of the squares in the sum
        state = QubitState.from_bloch(*s)
        out = apply_beam_splitter(state).bloch
        assert sorted(map(abs, out.as_tuple())) == sorted(map(abs, state.bloch.as_tuple()))
        assert out.norm_sq == pytest.approx(state.bloch.norm_sq, abs=1e-15)

    def test_unit_vectors_are_permuted_exactly(self):
        # a unit vector's norm summed in the permuted order can round above
        # 1; the splitter stores the permuted fields without the norm rule,
        # so one splitter moves the bits and four give the state back
        rows = np.random.default_rng(0).normal(size=(100_000, 3))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        moved, lost = 0, 0
        for sx, sy, sz in rows.tolist():
            state = QubitState.from_bloch(sx, sy, sz)
            s = state.bloch
            out = apply_beam_splitter(state)
            moved += out.bloch.as_tuple() != (s.sz, s.sy, -s.sx)
            for _ in range(3):
                out = apply_beam_splitter(out)
            lost += out != state
        assert (moved, lost) == (0, 0)

    @given(ball_points())
    def test_fourth_power_is_identity(self, s):
        state = QubitState.from_bloch(*s)
        out = state
        for _ in range(4):
            out = apply_beam_splitter(out)
        _bloch_close(out, state.bloch.as_tuple(), tol=0.0)


class TestPhaseShifter:
    @given(ball_points(), phases)
    @settings(max_examples=60)
    def test_matches_unitary_conjugation(self, s, phi):
        u = mo.phase_unitary(phi)
        want = mo.bloch_from_density(mo.conjugate(u, mo.density_matrix(s)))
        out = apply_phase_shifter(QubitState.from_bloch(*s), phi)
        _bloch_close(out, want, tol=1e-10)

    def test_half_turn_flips_equator(self):
        out = apply_phase_shifter(QubitState.from_bloch(1.0, 0.0, 0.0), math.pi)
        _bloch_close(out, (-1.0, 0.0, 0.0))

    @given(ball_points(), phases)
    def test_advances_coherence_phase(self, s, phi):
        state = QubitState.from_bloch(*s)
        if state.r < 1e-3:
            return
        out = apply_phase_shifter(state, phi)
        want = (state.theta + phi) % TWO_PI
        diff = (out.theta - want) % TWO_PI
        assert min(diff, TWO_PI - diff) < 1e-9
        assert out.bloch.sz == state.bloch.sz
        assert out.r == pytest.approx(state.r, abs=1e-12)

    @given(ball_points(), phases, phases)
    @settings(max_examples=40)
    def test_composition_adds_phases(self, s, a, b):
        state = QubitState.from_bloch(*s)
        two_step = apply_phase_shifter(apply_phase_shifter(state, a), b)
        one_step = apply_phase_shifter(state, a + b)
        _bloch_close(two_step, one_step.bloch.as_tuple(), tol=1e-9)


class TestElements:
    def test_full_interferometer_fringe_law(self):
        # source in the + path; detector-1 probability is (1 - cos phi)/2
        source = QubitState.from_bloch(0.0, 0.0, 1.0)
        for phi in np.linspace(0.0, TWO_PI, 17):
            out = apply_beam_splitter(apply_phase_shifter(apply_beam_splitter(source), phi))
            assert out.w_plus == pytest.approx((1.0 - math.cos(phi)) / 2.0, abs=1e-12)


class TestWhichWayAndFringeMeasures:
    def test_literals(self):
        state = QubitState.from_bloch(0.6, 0.0, 0.8)
        assert predictability(state) == 0.8
        assert visibility(state) == pytest.approx(0.6, abs=1e-15)

    @given(ball_points())
    def test_square_sum_is_norm_squared(self, s):
        state = QubitState.from_bloch(*s)
        p, v = predictability(state), visibility(state)
        assert p * p + v * v == pytest.approx(state.bloch.norm_sq, abs=1e-12)

    def test_observable_family_axes(self):
        assert predictability_op().axis == (0.0, 0.0, 1.0)
        vo = visibility_op(0.3)
        assert vo.axis == pytest.approx((math.cos(0.3), math.sin(0.3), 0.0))
        vp = visibility_perp_op(0.3)
        dot = sum(a * b for a, b in zip(vo.axis, vp.axis))
        assert dot == pytest.approx(0.0, abs=1e-15)

    @given(ball_points(), phases)
    @settings(max_examples=60)
    def test_fringe_quadrature_expectations(self, s, phi):
        state = QubitState.from_bloch(*s)
        want_cos = 2.0 * state.r * math.cos(state.theta - phi)
        want_sin = 2.0 * state.r * math.sin(state.theta - phi)
        assert expectation(visibility_op(phi), state) == pytest.approx(want_cos, abs=1e-9)
        assert expectation(visibility_perp_op(phi), state) == pytest.approx(want_sin, abs=1e-9)

    @given(ball_points())
    def test_visibility_is_max_quadrature(self, s):
        state = QubitState.from_bloch(*s)
        at_theta = expectation(visibility_op(state.theta), state)
        assert at_theta == pytest.approx(visibility(state), abs=1e-12)

    def test_predictability_is_z_expectation_magnitude(self):
        state = QubitState.from_bloch(0.3, 0.1, -0.7)
        assert predictability(state) == abs(expectation(predictability_op(), state))
        pp = probabilities(predictability_op(), state)
        assert predictability(state) == pytest.approx(abs(pp.p_plus - pp.p_minus), abs=1e-15)


class TestFringeScan:
    def test_full_visibility_state(self):
        scan = fringe_scan(QubitState.from_bloch(1.0, 0.0, 0.0), 360)
        assert scan.p_max == pytest.approx(1.0, abs=1e-12)
        assert scan.p_min == pytest.approx(0.0, abs=1e-12)
        assert scan.v_operational == pytest.approx(1.0, abs=1e-12)
        assert len(scan.phases) == len(scan.p_d1) == len(scan.p_d2) == 360

    def test_maximally_mixed_shows_no_fringes(self):
        scan = fringe_scan(MAXIMALLY_MIXED, 16)
        assert scan.v_operational == 0.0
        assert scan.p_max == scan.p_min == 0.5

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="n_phases"):
            fringe_scan(MAXIMALLY_MIXED, 7)

    def test_detector_probabilities_complement(self):
        scan = fringe_scan(QubitState.from_bloch(0.3, 0.2, 0.5), 24)
        for p1, p2 in zip(scan.p_d1, scan.p_d2):
            assert p1 + p2 == pytest.approx(1.0, abs=1e-15)

    def test_even_grid_pairs_antipodally(self):
        # even n puts phi and phi+pi both on the grid, so p_max + p_min = 1
        for s in [(0.3, 0.2, 0.5), (0.1, -0.6, 0.2), (0.0, 0.9, 0.1)]:
            scan = fringe_scan(QubitState.from_bloch(*s), 100)
            assert scan.p_max + scan.p_min == pytest.approx(1.0, abs=1e-12)

    def test_odd_grid_divides_by_the_sum_of_the_extremes(self):
        # an odd grid does not pair phi with phi + pi, so p_max + p_min is
        # not 1 here and the operational visibility must divide by it
        scan = fringe_scan(QubitState.from_bloch(1.0, 0.0, 0.0), 9)
        assert scan.p_min == 0.0 and scan.p_max < 0.97
        assert scan.v_operational == 1.0

    def test_tracks_analytic_visibility(self):
        blochs = np.vstack(
            [random_pure_bloch(4, seed=101), random_mixed_bloch(4, seed=102)]
        )
        for s in blochs:
            state = QubitState.from_bloch(*map(float, s))
            scan = fringe_scan(state, 3600)
            assert abs(scan.v_operational - visibility(state)) < 2e-6

    def test_matches_element_functions(self):
        blochs = np.vstack([random_pure_bloch(20, seed=5), random_mixed_bloch(20, seed=6)])
        for s in blochs:
            state = QubitState.from_bloch(*map(float, s))
            scan = fringe_scan(state, 64)
            for phi, p1 in zip(scan.phases, scan.p_d1):
                want = apply_beam_splitter(apply_phase_shifter(state, phi)).w_plus
                assert abs(p1 - want) <= 1e-15

    @pytest.mark.parametrize("n", [8, 13, 360, 997, 20_000])
    @given(ball_points())
    @settings(max_examples=20, deadline=None)
    def test_keeps_the_bits_of_the_numpy_form(self, n, s):
        # the vectorized expression fringe_scan evaluated before it ran over floats
        state = QubitState.from_bloch(*s)
        sx, sy = state.bloch.sx, state.bloch.sy
        phases = TWO_PI * np.arange(n) / n
        p1 = (1.0 - (sx * np.cos(phases) - sy * np.sin(phases))) / 2.0
        scan = fringe_scan(state, n)
        for got, want in ((scan.phases, phases), (scan.p_d1, p1), (scan.p_d2, 1.0 - p1)):
            assert np.array(got).tobytes() == want.tobytes()
        assert (scan.p_max, scan.p_min) == (float(p1.max()), float(p1.min()))

    def test_grid_resolution_improves_estimate(self):
        state = QubitState.from_bloch(0.5, 0.5, 0.3)
        coarse = abs(fringe_scan(state, 36).v_operational - visibility(state))
        fine = abs(fringe_scan(state, 3600).v_operational - visibility(state))
        assert fine <= coarse + 1e-15


# each public function that takes an angle, with the name it gives it
ANGLE_ENTRY_POINTS = {
    "apply_phase_shifter": ("phi", lambda x: apply_phase_shifter(MAXIMALLY_MIXED, x)),
    "visibility_op": ("phi", visibility_op),
    "visibility_perp_op": ("phi", visibility_perp_op),
    "sr_pv_form": ("phi", lambda x: sr_pv_form(QubitState.from_bloch(0.6, 0.0, 0.8), x)),
    "unbiased_saturating_states": ("theta", unbiased_saturating_states),
}


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("entry", ANGLE_ENTRY_POINTS)
def test_non_finite_angle_is_refused_by_name(entry, angle):
    name, call = ANGLE_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {angle!r}")):
        call(angle)
