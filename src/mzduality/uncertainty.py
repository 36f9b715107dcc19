"""Preparation uncertainty relations for qubit observables.

Covers the Schrodinger-Robertson (SR) and Heisenberg-Robertson (HR)
variance relations, the Landau-Pollak (LP) relation in its arccos,
product and qubit-specific forms, and an audit showing that on the
same state the wave-particle duality bound, the SR relation at the
fringe-maximizing phase and the LP product form all hold and saturate
together.

All relations are evaluated in normalized form (alpha1 = 0, alpha2 = 1
effectively), since the affine coefficients scale out of every
inequality here.
"""

from __future__ import annotations

import math

from .interferometer import predictability, visibility
from .qubit import (
    BlochObservable,
    QubitState,
    _check_finite,
    _check_nonnegative,
    _cross,
    _dot,
    _Record,
    _xp,
    overlap,
)

TYPE_CHECKING = False  # PEP 781: typing itself is never imported
if TYPE_CHECKING:
    import numpy as np

EPS_GAP = 1e-9  # |gap| below this counts as saturated
_ACOS_SLACK = 1e-12  # arccos/sqrt arguments may overshoot their domain by this
_LP_RHS = math.sqrt(0.5)  # overlap of sigma_z with any fringe quadrature
_BIAS_MAX = 1.0 + 2.0**-52  # the largest P or V of a state: V = 1 + 1 ulp


class UncertaintyVerdict(_Record):
    """Evaluated inequality: both sides, the slack, and the boolean verdicts.

    ``gap`` is oriented so that the relation holds iff gap >= -eps_gap,
    regardless of whether the underlying inequality reads >= or <=. The LP
    leg of the equivalence audit judges gap * scale instead (see ``pv_audit``).
    """

    lhs: float
    rhs: float
    gap: float
    holds: bool
    saturated: bool


def _verdict(lhs: float, rhs: float, gap: float, eps_gap: float) -> UncertaintyVerdict:
    """The verdict on gap; every relation and pv_audit reach eps_gap's one check here."""
    _check_nonnegative("eps_gap", eps_gap)
    return UncertaintyVerdict(lhs, rhs, gap, gap >= -eps_gap, abs(gap) <= eps_gap)


def _verdict_geq(lhs: float, rhs: float, eps_gap: float) -> UncertaintyVerdict:
    return _verdict(lhs, rhs, lhs - rhs, eps_gap)


def _verdict_leq(lhs: float, rhs: float, eps_gap: float) -> UncertaintyVerdict:
    return _verdict(lhs, rhs, rhs - lhs, eps_gap)


def _clamped_acos(x: float) -> float:
    if x > 1.0 + _ACOS_SLACK or x < -1.0 - _ACOS_SLACK:
        raise ValueError(f"arccos argument {x!r} overshoots [-1, 1] beyond tolerance")
    return math.acos(min(max(x, -1.0), 1.0))


def _safe_sqrt(x: float) -> float:
    if x < -_ACOS_SLACK:
        raise ValueError(f"sqrt argument {x!r} is negative beyond tolerance")
    return math.sqrt(max(x, 0.0))


def sr_relation(
    obs_a: BlochObservable,
    obs_b: BlochObservable,
    state: QubitState,
    eps_gap: float = EPS_GAP,
) -> UncertaintyVerdict:
    """Schrodinger-Robertson in normalized qubit form.

    (1 - (a.s)^2)(1 - (b.s)^2) >= (a.b - (a.s)(b.s))^2 + ((a x b).s)^2.
    The first rhs term is the squared covariance, the second the squared
    commutator expectation; every pure state saturates the relation.
    """
    a, b, s = obs_a.axis, obs_b.axis, state.bloch.as_tuple()
    da, db, ab = _dot(a, s), _dot(b, s), _dot(a, b)
    lhs = (1.0 - da * da) * (1.0 - db * db)
    rhs = (ab - da * db) ** 2 + _dot(_cross(a, b), s) ** 2
    return _verdict_geq(lhs, rhs, eps_gap)


def hr_relation(
    obs_a: BlochObservable,
    obs_b: BlochObservable,
    state: QubitState,
    eps_gap: float = EPS_GAP,
) -> UncertaintyVerdict:
    """Heisenberg-Robertson: SR with the covariance term dropped.

    Weaker than SR and, unlike it, not saturated by generic pure states.
    """
    a, b, s = obs_a.axis, obs_b.axis, state.bloch.as_tuple()
    da, db = _dot(a, s), _dot(b, s)
    lhs = (1.0 - da * da) * (1.0 - db * db)
    rhs = _dot(_cross(a, b), s) ** 2
    return _verdict_geq(lhs, rhs, eps_gap)


def sr_pv_form(state: QubitState, phi: float, eps_gap: float = EPS_GAP) -> UncertaintyVerdict:
    """SR for the which-way and fringe observables, in P, V, theta variables.

    (1 - P^2)(1 - V^2 cos^2(theta - phi)) >=
        P^2 V^2 cos^2(theta - phi) + V^2 sin^2(theta - phi).
    At phi = theta it collapses to (1 - P^2)(1 - V^2) >= (PV)^2, which is
    algebraically the duality bound P^2 + V^2 <= 1.
    """
    _check_finite("phi", phi)
    p = predictability(state)
    v = visibility(state)
    c = math.cos(state.theta - phi)
    sn = math.sin(state.theta - phi)
    lhs = (1.0 - p * p) * (1.0 - v * v * c * c)
    rhs = p * p * v * v * c * c + v * v * sn * sn
    return _verdict_geq(lhs, rhs, eps_gap)


def max_prob(obs: BlochObservable, state: QubitState) -> float:
    """Largest Born probability M(A) = (1 + |a.s|)/2, in [1/2, 1]."""
    return (1.0 + abs(_dot(obs.axis, state.bloch.as_tuple()))) / 2.0


def lp_relation(
    obs_a: BlochObservable,
    obs_b: BlochObservable,
    state: QubitState,
    eps_gap: float = EPS_GAP,
) -> UncertaintyVerdict:
    """Landau-Pollak relation in angle form.

    arccos(sqrt(M(A))) + arccos(sqrt(M(B))) >= arccos(c), where c is the
    maximal eigenbasis overlap of the two observables.
    """
    lhs = _clamped_acos(_safe_sqrt(max_prob(obs_a, state))) + _clamped_acos(
        _safe_sqrt(max_prob(obs_b, state))
    )
    rhs = _clamped_acos(overlap(obs_a, obs_b))
    return _verdict_geq(lhs, rhs, eps_gap)


def lp_product_form(
    obs_a: BlochObservable,
    obs_b: BlochObservable,
    state: QubitState,
    eps_gap: float = EPS_GAP,
) -> UncertaintyVerdict:
    """LP rearranged free of arccos.

    sqrt(M(A) M(B)) - sqrt((1 - M(A))(1 - M(B))) <= c. Equivalent to the
    angle form via cos(x - y); the two must agree on holds/saturated.
    """
    ma, mb = max_prob(obs_a, state), max_prob(obs_b, state)
    lhs = _safe_sqrt(ma * mb) - _safe_sqrt((1.0 - ma) * (1.0 - mb))
    rhs = overlap(obs_a, obs_b)
    return _verdict_leq(lhs, rhs, eps_gap)


def lp_qubit_form(
    obs_a: BlochObservable,
    obs_b: BlochObservable,
    state: QubitState,
    eps_gap: float = EPS_GAP,
) -> UncertaintyVerdict:
    """LP product form doubled into Bloch dot products.

    sqrt((1 + |a.s|)(1 + |b.s|)) - sqrt((1 - |a.s|)(1 - |b.s|)) <=
        sqrt(2 (1 + |a.b|)) = 2c.
    Note the right-hand side is twice the overlap c, not c^2 rescaled;
    with any smaller constant an eigenstate of either observable already
    violates the bound.
    """
    a, b, s = obs_a.axis, obs_b.axis, state.bloch.as_tuple()
    x, y = abs(_dot(a, s)), abs(_dot(b, s))
    lhs = _safe_sqrt((1.0 + x) * (1.0 + y)) - _safe_sqrt((1.0 - x) * (1.0 - y))
    rhs = 2.0 * overlap(obs_a, obs_b)
    return _verdict_leq(lhs, rhs, eps_gap)


def duality_inequality(state: QubitState, eps_gap: float = EPS_GAP) -> UncertaintyVerdict:
    """P^2 + V^2 <= 1, saturated exactly by pure states."""
    p = predictability(state)
    v = visibility(state)
    return _verdict_leq(p * p + v * v, 1.0, eps_gap)


class EquivalenceAudit(_Record):
    """Joint evaluation of the duality, SR and LP bounds on one state.

    SR is taken at phi = theta (the fringe-maximizing phase) and LP in the
    product form for the which-way and fringe observables at that phase;
    the three are then algebraically equivalent, so they must agree both
    on holding and on saturation. The flags also work on ``pv_audit`` arrays.
    """

    duality: UncertaintyVerdict
    sr: UncertaintyVerdict
    lp: UncertaintyVerdict

    @property
    def duality_holds(self) -> bool:
        return self.duality.holds

    @property
    def sr_holds(self) -> bool:
        return self.sr.holds

    @property
    def lp_holds(self) -> bool:
        return self.lp.holds

    @property
    def all_hold(self) -> bool:
        return self.duality.holds & self.sr.holds & self.lp.holds

    @property
    def all_agree_on_saturation(self) -> bool:
        return (self.duality.saturated == self.sr.saturated) & (
            self.sr.saturated == self.lp.saturated
        )


def _check_bias(name: str, x) -> None:
    """Refuse by name a P or V that no state gives: a float, or an array's first such entry.

    A bias lies in [0, _BIAS_MAX]; a unit Bloch vector's V may round to
    1 + 1 ulp. A NaN, negative or infinite bias gets ``_check_nonnegative``'s
    words. An array costs one ``min`` and one ``max``, which ``verify``
    skips through ``_pv_audit``.
    """
    if not isinstance(x, (int, float)):
        if not x.size or (0.0 <= x.min() and x.max() <= _BIAS_MAX):  # a NaN fails both
            return
        x = x[~((x >= 0.0) & (x <= _BIAS_MAX))][0]
    x = float(x)
    _check_nonnegative(name, x)
    if x > _BIAS_MAX:
        raise ValueError(
            f"{name} must be at most 1 + 2**-52, the largest bias of a state, got {x!r}"
        )


def pv_audit(
    p: float | np.ndarray, v: float | np.ndarray, eps_gap: float = EPS_GAP
) -> EquivalenceAudit:
    """Duality, SR and LP-product verdicts at phi = theta, elementwise in P and V.

    The relations are P^2 + V^2 <= 1, (1 - P^2)(1 - V^2) >= (PV)^2 and
    sqrt(M_P M_V) - sqrt((1 - M_P)(1 - M_V)) <= sqrt(1/2), M_X = (1 + X)/2;
    arrays give array fields, rhs stays a constant. The LP gap equals
    (1 - P^2 - V^2)/scale, scale = (S + PV)(sqrt 2 + 2 lhs), S = sqrt(|(1 -
    P^2)(1 - V^2)|), so the LP leg judges gap * scale, the duality gap, with
    eps_gap, as the other two legs do. A bias of 1 + 1 ulp against one below
    1 makes (1 - P^2)(1 - V^2) negative; the absolute value keeps scale
    positive there, so the LP leg reports what the other two do (scale is 0
    only at (P, V) = (0, 1) and (1, 0), where every gap is 0). Judged on its
    own scale, the LP gap would saturate near-pure mixed states (1 - |s|^2
    up to about 2.8 eps_gap) that the other two legs do not, and a pure
    state stored with a last-ulp norm error near the poles or the equator
    would show an LP gap above 1e-9. A leg's
    verdicts differ from those of the exact gap only where 1 - P^2 - V^2
    lies within 4 ulp(1) of +-eps_gap.
    Floats are evaluated by math and give plain floats and bools (see ``_xp``);
    arrays give each element the float verdicts. P and V must be biases of
    states: a NaN, negative or infinite one, or one above 1 + 2**-52, is
    refused by name.
    """
    _check_bias("P", p)
    _check_bias("V", v)
    return _pv_audit(p, v, eps_gap)


def _pv_audit(p, v, eps_gap: float) -> EquivalenceAudit:
    """``pv_audit`` without its P and V check, for biases known to lie in [0, 1 + 2**-52]."""
    pp, vv = p * p, v * v
    duality = _verdict_leq(pp + vv, 1.0, eps_gap)  # first: it checks eps_gap for all three legs
    sr_lhs = (1.0 - pp) * (1.0 - vv)
    xp = _xp(sr_lhs)  # the type P and V broadcast to
    ma, mb = (1.0 + p) / 2.0, (1.0 + v) / 2.0
    lp_lhs = xp.sqrt(ma * mb) - xp.sqrt(xp.maximum((1.0 - ma) * (1.0 - mb), 0.0))
    lp_gap = _LP_RHS - lp_lhs
    scale = (xp.sqrt(xp.abs(sr_lhs)) + p * v) * (math.sqrt(2.0) + 2.0 * lp_lhs)
    scaled = lp_gap * scale  # the duality gap, up to rounding
    return EquivalenceAudit(
        duality=duality,
        sr=_verdict_geq(sr_lhs, pp * v * v, eps_gap),
        lp=UncertaintyVerdict(
            lp_lhs, _LP_RHS, lp_gap, scaled >= -eps_gap, xp.abs(scaled) <= eps_gap
        ),
    )


def equivalence_audit(state: QubitState, eps_gap: float = EPS_GAP) -> EquivalenceAudit:
    """``pv_audit`` on one state's P and V, in plain floats and bools."""
    return pv_audit(predictability(state), visibility(state), eps_gap)
