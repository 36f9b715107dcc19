"""State and observable algebra against literals and the matrix oracle."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_oracle as mo
from conftest import ball_points, sphere_points
from mzduality import (
    BlochObservable,
    BlochVector,
    ProbPair,
    QubitState,
    expectation,
    overlap,
    probabilities,
    variance,
)
from mzduality.qubit import EPS_NORM, EPS_POS, _checked_blochs, _checked_rows

INV_SQRT2 = 2.0**-0.5
SIGMA_Z = BlochObservable(0.0, 1.0, (0.0, 0.0, 1.0))
SIGMA_X = BlochObservable(0.0, 1.0, (1.0, 0.0, 0.0))
TILTED = BlochObservable(0.0, 1.0, (INV_SQRT2, 0.0, INV_SQRT2))
SUPER = QubitState.from_bloch(INV_SQRT2, 0.0, INV_SQRT2)


class TestBlochVector:
    def test_rejects_norm_above_tolerance(self):
        with pytest.raises(ValueError, match="Bloch norm"):
            BlochVector(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BlochVector(0.0, 0.0, 1.0 + 1e-8)

    @pytest.mark.parametrize(
        "s",
        [
            (math.nan, 0.0, 0.0),
            (0.0, math.nan, 0.5),
            (0.1, 0.2, math.nan),
            (math.inf, math.nan, 0.0),
            (math.nan, math.nan, math.nan),
        ],
    )
    def test_rejects_nan_components(self, s):
        # the first NaN component is named; an eps_pos is not read before it
        name = ("sx", "sy", "sz")[[math.isnan(x) for x in s].index(True)]
        for eps_pos in (EPS_POS, math.nan):
            with pytest.raises(ValueError, match=f"^Bloch component {name} is NaN$"):
                BlochVector(*s, eps_pos=eps_pos)
            with pytest.raises(ValueError, match=f"^Bloch component {name} is NaN$"):
                QubitState.from_bloch(*s, eps_pos=eps_pos)

    def test_checked_rows_name_a_nan_component(self):
        # the array path raises through BlochVector for its first bad row
        rows = np.array([[0.6, 0.0, 0.8], [0.0, 0.0, math.nan], [math.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match="^Bloch component sz is NaN$"):
            _checked_rows(rows)

    def test_renormalizes_marginal_overshoot(self):
        v = BlochVector(0.0, 0.0, 1.0 + 5e-10)
        assert v.sz == 1.0
        assert v.norm == 1.0

    def test_eps_pos_is_adjustable(self):
        with pytest.raises(ValueError):
            BlochVector(0.0, 0.0, 1.001)
        v = BlochVector(0.0, 0.0, 1.001, eps_pos=1e-2)
        assert v.norm == 1.0

    @pytest.mark.parametrize("eps_pos", [math.nan, -1.0, -1e-12, math.inf])
    def test_bad_eps_pos_refused_by_name_where_it_is_read(self, eps_pos):
        # unchecked, an infinite eps_pos lets any norm through as 1, and a NaN
        # or negative one calls a norm of 0.5 too large
        for make in (BlochVector, QubitState.from_bloch):
            with pytest.raises(ValueError, match="eps_pos must be finite and nonnegative"):
                make(2.0, 0.0, 0.0, eps_pos=eps_pos)
            with pytest.raises(ValueError, match="eps_pos"):
                make(0.0, 0.0, 1.0 + 5e-10, eps_pos=eps_pos)
        # a norm within 1 never reads eps_pos, so the hot path pays nothing
        assert BlochVector(0.0, 0.0, 0.5, eps_pos=eps_pos).as_tuple() == (0.0, 0.0, 0.5)

    def test_matches_the_field_by_field_rule(self):
        # BlochVector's norm rule written out on plain floats
        def reference(sx, sy, sz, eps_pos=1e-9):
            n = math.sqrt(sx * sx + sy * sy + sz * sz)
            if not n <= 1.0 + eps_pos:
                return None
            return (sx / n, sy / n, sz / n) if n > 1.0 else (sx, sy, sz)

        rows = np.random.default_rng(3).normal(size=(2000, 3))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        rows[::3] *= 1.0 + 1e-10  # norms in (1, 1 + eps_pos]: rescaled
        rows[1::3] *= 0.5
        rows[2::7] *= 1.001  # beyond eps_pos: rejected
        for sx, sy, sz in rows.tolist():
            want = reference(sx, sy, sz)
            if want is None:
                with pytest.raises(ValueError, match="Bloch norm exceeds 1"):
                    BlochVector(sx, sy, sz)
            else:
                assert BlochVector(np.float64(sx), sy, sz).as_tuple() == want
        with pytest.raises(dataclasses.FrozenInstanceError):
            BlochVector(0.0, 0.0, 1.0).sx = 0.5

    def test_checked_bloch_is_the_record_of_the_raw_row(self):
        # unit rows from np.linalg.norm: about 1 % have a norm that BlochVector's
        # sum rounds above 1, so _checked_rows rescales them (2 064 at seed 3)
        raw = np.random.default_rng(3).normal(size=(200_000, 3))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        checked = _checked_rows(raw.copy())
        rescaled = (checked != raw).any(axis=1)
        assert np.count_nonzero(rescaled) == 2_064
        want = [BlochVector(*row) for row in raw.tolist()]
        got = _checked_blochs(*checked.T.tolist())
        assert all(type(bv) is BlochVector for bv in got)
        fields = np.array([bv.as_tuple() for bv in got])
        assert fields.tobytes() == np.array([bv.as_tuple() for bv in want]).tobytes()
        # hash and repr read the fields: every rescaled row and every 64th row
        picked = np.flatnonzero(rescaled | (np.arange(len(raw)) % 64 == 0)).tolist()
        for i in picked:
            assert hash(got[i]) == hash(want[i]) and repr(got[i]) == repr(want[i])
        with pytest.raises(dataclasses.FrozenInstanceError):
            got[0].sx = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del got[0].sy

    def test_components_coerced_to_float(self):
        v = BlochVector(0, 0, 1)
        assert isinstance(v.sx, float) and isinstance(v.sz, float)

    @given(ball_points())
    def test_interior_points_stored_verbatim(self, s):
        v = BlochVector(*s)
        assert v.as_tuple() == s


class TestQubitState:
    def test_path_weights_and_coherence(self):
        st_ = QubitState.from_bloch(0.6, 0.0, 0.8)
        assert st_.w_plus == pytest.approx(0.9, abs=1e-15)
        assert st_.w_minus == pytest.approx(0.1, abs=1e-15)
        assert st_.r == pytest.approx(0.3, abs=1e-15)

    def test_theta_convention(self):
        assert QubitState.from_bloch(0.0, 0.0, 0.5).theta == 0.0
        assert QubitState.from_bloch(-0.5, 0.0, 0.0).theta == pytest.approx(math.pi)
        assert QubitState.from_bloch(0.0, -0.5, 0.0).theta == pytest.approx(3.0 * math.pi / 2.0)

    @given(ball_points())
    def test_theta_in_range(self, s):
        t = QubitState.from_bloch(*s).theta
        assert 0.0 <= t < 2.0 * math.pi

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    )
    def test_weight_parametrization_roundtrip(self, w, frac, theta):
        r = 0.999 * frac * math.sqrt(w * (1.0 - w))
        st_ = QubitState.from_weights(w, r, theta)
        assert st_.w_plus == pytest.approx(w, abs=1e-12)
        assert st_.r == pytest.approx(r, abs=1e-12)
        if r > 1e-6:
            assert st_.theta == pytest.approx(theta, abs=1e-9)

    def test_from_weights_validation(self):
        with pytest.raises(ValueError):
            QubitState.from_weights(1.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            QubitState.from_weights(0.5, -0.1, 0.0)
        with pytest.raises(ValueError):  # r beyond positivity
            QubitState.from_weights(0.9, 0.5, 0.0)

    def test_purity_endpoints(self):
        assert QubitState.from_bloch(0.0, 0.0, 0.0).purity == 0.5
        assert QubitState.from_bloch(0.0, 0.0, 1.0).purity == 1.0
        assert QubitState.from_bloch(0.0, 0.0, 1.0).is_pure
        assert not QubitState.from_bloch(0.0, 0.0, 0.9).is_pure

    @given(ball_points())
    def test_density_matrix_is_physical(self, s):
        rho = mo.density_matrix(s)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.allclose(rho, rho.conj().T)
        assert float(np.linalg.eigvalsh(rho)[0]) >= -1e-12

    @given(sphere_points())
    def test_pure_density_matrix_is_rank_one(self, s):
        rho = mo.density_matrix(s)
        # explicit 2x2 determinant: np.linalg.det can return nan when a
        # component is subnormal
        assert abs(rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]) < 1e-12


class TestBlochObservable:
    def test_rejects_trivial_and_non_unit(self):
        with pytest.raises(ValueError, match="alpha2"):
            BlochObservable(1.0, 0.0, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="unit"):
            BlochObservable(0.0, 1.0, (0.0, 0.0, 2.0))

    @pytest.mark.parametrize("a1, a2", [(math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0), (0.0, -math.inf)])
    def test_rejects_non_finite_coefficients(self, a1, a2):
        with pytest.raises(ValueError, match="finite"):
            BlochObservable(a1, a2, (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("eps_unit", [math.nan, -1.0, math.inf])
    def test_bad_eps_unit_refused_by_name(self, eps_unit):
        # the axis tolerance is EPS_UNIT alone: no value of a caller's is read
        for axis in ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)):
            with pytest.raises(TypeError, match="unexpected keyword argument 'eps_unit'$"):
                BlochObservable(0.0, 1.0, axis, eps_unit=eps_unit)

    @pytest.mark.parametrize("eps_unit", [1.0, 2.0, 1e300])
    @pytest.mark.parametrize("axis", [(0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (5e-324, 0.0, 0.0)])
    def test_zero_axis_refused_at_any_tolerance(self, axis, eps_unit):
        # a tolerance of 1 or more would let a zero axis through the unit
        # check, so none is taken, and the zero axis fails at EPS_UNIT
        with pytest.raises(ValueError, match=r"axis must be a unit vector: \|\|a\|\| = 0.0"):
            BlochObservable(0.0, 1.0, axis)
        with pytest.raises(TypeError, match="unexpected keyword argument 'eps_unit'$"):
            BlochObservable(0.0, 1.0, axis, eps_unit=eps_unit)

    def test_axis_normalized_within_tolerance(self):
        obs = BlochObservable(0.0, 1.0, (0.0, 0.0, 1.0 + 1e-13))
        assert obs.axis[2] == 1.0

    # each component is divided by the norm: an axis off unit length by
    # 9e-13, within EPS_UNIT, is stored within 2 ulp of unit length, where
    # a component multiplied by the norm instead misses by over 1000 ulp
    @pytest.mark.parametrize("scale", [1.0 + 9e-13, 1.0 - 9e-13])
    @pytest.mark.parametrize("axis", [(0.48, 0.6, 0.64), (0.36, 0.48, 0.8)])
    def test_off_unit_axis_is_stored_at_unit_length(self, axis, scale):
        obs = BlochObservable(0.0, 1.0, tuple(a * scale for a in axis))
        assert abs(math.hypot(*obs.axis) - 1.0) <= 2.0 * 2.0**-52

    def test_eigenvalues(self):
        obs = BlochObservable(2.0, 3.0, (1.0, 0.0, 0.0))
        assert obs.eigenvalues == (5.0, -1.0)


class TestBornRule:
    def test_superposition_against_z(self):
        pp = probabilities(SIGMA_Z, SUPER)
        assert pp.p_plus == pytest.approx(0.8535533905932737, abs=1e-15)
        assert pp.p_minus == pytest.approx(0.14644660940672627, abs=1e-15)
        assert pp.max_prob == pp.p_plus

    @given(sphere_points(), ball_points())
    @settings(max_examples=60)
    def test_matches_spectral_projectors(self, axis, s):
        obs = BlochObservable(0.0, 1.0, axis)
        state = QubitState.from_bloch(*s)
        want = mo.spectral_probabilities(obs.axis, mo.density_matrix(s))
        got = probabilities(obs, state)
        assert got.p_plus == pytest.approx(want[0], abs=1e-12)
        assert got.p_minus == pytest.approx(want[1], abs=1e-12)
        assert got.p_plus + got.p_minus == pytest.approx(1.0, abs=1e-12)

    def test_prob_pair_validation(self):
        with pytest.raises(ValueError):
            ProbPair(0.5, 0.6)
        with pytest.raises(ValueError):
            ProbPair(1.2, -0.2)
        clamped = ProbPair(-5e-16, 1.0 + 5e-16)
        assert clamped.p_plus == 0.0
        assert clamped.p_minus == 1.0

    def test_prob_pair_range_is_closed_at_its_tolerance(self):
        # the range [-EPS_NORM, 1 + EPS_NORM] includes both ends, which are clamped
        pair = ProbPair(-EPS_NORM, 1.0 + EPS_NORM)
        assert pair.as_tuple() == (0.0, 1.0)

    @pytest.mark.parametrize(
        ("pair", "message"),
        [
            ((math.nan, math.nan), "p_plus = nan outside"),
            ((0.5, math.nan), "p_minus = nan outside"),
            ((math.inf, -math.inf), "p_plus = inf outside"),
            ((1.0, -math.inf), "p_minus = -inf outside"),
        ],
    )
    def test_prob_pair_rejects_non_finite_by_name(self, pair, message):
        with pytest.raises(ValueError, match=message):
            ProbPair(*pair)

    def test_prob_pair_stores_floats(self):
        pair = ProbPair(1, 0)
        assert pair.as_tuple() == (1.0, 0.0)
        assert all(type(p) is float for p in pair.as_tuple())


class TestMoments:
    def test_affine_expectation(self):
        obs = BlochObservable(2.0, 3.0, (1.0, 0.0, 0.0))
        state = QubitState.from_bloch(0.5, 0.0, 0.0)
        assert expectation(obs, state) == pytest.approx(3.5, abs=1e-15)

    def test_variance_of_z_on_superposition(self):
        assert variance(SIGMA_Z, SUPER) == pytest.approx(0.5, abs=1e-15)

    @given(sphere_points(), ball_points(), st.floats(-3, 3), st.floats(0.1, 3))
    @settings(max_examples=60)
    def test_moments_match_matrix_route(self, axis, s, a1, a2):
        obs = BlochObservable(a1, a2, axis)
        state = QubitState.from_bloch(*s)
        op = mo.observable_matrix(a1, a2, obs.axis)
        rho = mo.density_matrix(s)
        assert expectation(obs, state) == pytest.approx(mo.expectation_matrix(op, rho), abs=1e-10)
        assert variance(obs, state) == pytest.approx(mo.variance_matrix(op, rho), abs=1e-10)

    @given(sphere_points(), ball_points())
    def test_variance_bounds(self, axis, s):
        obs = BlochObservable(0.0, 1.5, axis)
        v = variance(obs, QubitState.from_bloch(*s))
        assert -1e-12 <= v <= 1.5**2 + 1e-12


class TestOverlap:
    def test_complementary_pair_hits_floor(self):
        assert overlap(SIGMA_Z, SIGMA_X) == pytest.approx(INV_SQRT2, abs=1e-15)

    def test_tilted_pair(self):
        assert overlap(SIGMA_Z, TILTED) == pytest.approx(0.9238795325112867, abs=1e-15)

    def test_identical_axes(self):
        assert overlap(SIGMA_Z, SIGMA_Z) == 1.0

    @given(sphere_points(), sphere_points())
    @settings(max_examples=60)
    def test_overlap_range_symmetry_and_matrix(self, ax_a, ax_b):
        obs_a = BlochObservable(0.0, 1.0, ax_a)
        obs_b = BlochObservable(0.0, 1.0, ax_b)
        c = overlap(obs_a, obs_b)
        assert INV_SQRT2 - 1e-12 <= c <= 1.0 + 1e-12
        assert c == overlap(obs_b, obs_a)
        assert c == pytest.approx(mo.eigenbasis_overlap(obs_a.axis, obs_b.axis), abs=1e-9)
