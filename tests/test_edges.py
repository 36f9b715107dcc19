"""Every float parameter of the exported API at edge values.

Each call either gives its documented result, with no NaN anywhere in it,
or raises a ValueError whose text names the parameter, or the quantity
that fails (``||s||`` for a Bloch component, ``||a||`` for an axis one).
The other arguments stay at ordinary values. Storage-only records (the
result classes) keep what they are given and are not swept; the records
that validate their input are.
"""

from __future__ import annotations

import inspect
import math
import re

import numpy as np
import pytest

import mzduality
from mzduality import (
    BlochObservable,
    BlochVector,
    ProbPair,
    QubitState,
    apply_phase_shifter,
    brute_force_min,
    classify_regime,
    constrained_min_over_region,
    contour_grid,
    duality_inequality,
    entropy_of_observable,
    entropy_sum,
    equivalence_audit,
    find_q_star,
    hr_relation,
    lp_product_form,
    lp_qubit_form,
    lp_relation,
    minimize_entropy_sum,
    pv_audit,
    renyi_entropy,
    sr_pv_form,
    sr_relation,
    unbiased_saturating_states,
    visibility_op,
    visibility_perp_op,
)
from mzduality.qubit import EPS_POS, EPS_UNIT

EDGES = [
    0.0,
    -0.0,
    math.nextafter(1.0, 2.0),
    math.nextafter(1.0, 0.0),
    math.nextafter(2.0, 3.0),
    5e-324,
    -5e-324,
    1e300,
    -1e300,
    math.inf,
    -math.inf,
    math.nan,
    0.5,
    2.0,
]

STATE = QubitState.from_bloch(0.6, 0.0, 0.8)
SIGMA_Z = BlochObservable(0.0, 1.0, (0.0, 0.0, 1.0))
SIGMA_X = BlochObservable(0.0, 1.0, (1.0, 0.0, 0.0))
GRID = contour_grid(1.5, 32)


def observable(alpha1, alpha2, ax, ay, az, eps_unit):
    """BlochObservable with its axis spelled out, so each component is a parameter."""
    return BlochObservable(alpha1, alpha2, (ax, ay, az), eps_unit=eps_unit)


VECTOR = dict(sx=0.0, sy=0.0, sz=0.5, eps_pos=EPS_POS)
OVER = dict(sx=2.0, sy=0.0, sz=0.0)  # a norm above 1, so eps_pos is read
RELATION = dict(obs_a=SIGMA_Z, obs_b=SIGMA_X, state=STATE)

# (callable, its other arguments, the parameter swept, the names its error may give)
SWEEP = [
    *[(f, VECTOR, name, ("||s||", name)) for f in (BlochVector, QubitState.from_bloch)
      for name in ("sx", "sy", "sz")],
    *[(f, OVER, "eps_pos", ("eps_pos", "||s||")) for f in (BlochVector, QubitState.from_bloch)],
    (QubitState.from_weights, dict(w_plus=0.5, r=0.25, theta=0.3), "w_plus", ("w_plus", "||s||")),
    (QubitState.from_weights, dict(w_plus=0.5, r=0.25, theta=0.3), "r", ("r", "||s||")),
    (QubitState.from_weights, dict(w_plus=0.5, r=0.25, theta=0.3), "theta", ("theta",)),
    *[(observable, dict(alpha1=0.0, alpha2=1.0, ax=0.0, ay=0.0, az=1.0, eps_unit=EPS_UNIT), name,
       names) for name, names in (("alpha1", ("alpha1",)), ("alpha2", ("alpha2",)),
                                  ("ax", ("axis", "||a||")), ("ay", ("axis", "||a||")),
                                  ("az", ("axis", "||a||")), ("eps_unit", ("eps_unit",)))],
    (ProbPair, dict(p_plus=0.5, p_minus=0.5), "p_plus", ("p_plus", "sum to 1")),
    (ProbPair, dict(p_plus=0.5, p_minus=0.5), "p_minus", ("p_minus", "sum to 1")),
    (apply_phase_shifter, dict(state=STATE), "phi", ("phi",)),
    (visibility_op, {}, "phi", ("phi",)),
    (visibility_perp_op, {}, "phi", ("phi",)),
    *[(f, RELATION, "eps_gap", ("eps_gap",))
      for f in (sr_relation, hr_relation, lp_relation, lp_product_form, lp_qubit_form)],
    (sr_pv_form, dict(state=STATE, eps_gap=1e-9), "phi", ("phi",)),
    (sr_pv_form, dict(state=STATE, phi=0.3), "eps_gap", ("eps_gap",)),
    (duality_inequality, dict(state=STATE), "eps_gap", ("eps_gap",)),
    (equivalence_audit, dict(state=STATE), "eps_gap", ("eps_gap",)),
    (pv_audit, dict(p=0.6, v=0.8), "p", ("P",)),
    (pv_audit, dict(p=0.6, v=0.8), "v", ("V",)),
    (pv_audit, dict(p=0.6, v=0.8), "eps_gap", ("eps_gap",)),
    (renyi_entropy, dict(probs=ProbPair(0.7, 0.3)), "q", ("q",)),
    (entropy_of_observable, dict(obs=SIGMA_Z, state=STATE), "q", ("q",)),
    (entropy_sum, dict(p_val=0.3, v_val=0.4, q=1.5), "p_val", ("P",)),
    (entropy_sum, dict(p_val=0.3, v_val=0.4, q=1.5), "v_val", ("V",)),
    (entropy_sum, dict(p_val=0.3, v_val=0.4, q=1.5), "q", ("q",)),
    (minimize_entropy_sum, {}, "q", ("q",)),
    (find_q_star, {}, "tolerance", ("tolerance",)),
    (classify_regime, dict(band_eps=1e-6), "q", ("q",)),
    (classify_regime, dict(q=1.5), "band_eps", ("band_eps",)),
    (brute_force_min, dict(n_states=10_000, include_mixed=True), "q", ("q",)),
    (contour_grid, dict(n=32), "q", ("q",)),
    (GRID.nearest_value, dict(p=0.5), "v", ("v",)),
    (GRID.nearest_value, dict(v=0.5), "p", ("p",)),
    (unbiased_saturating_states, {}, "theta", ("theta",)),
    (constrained_min_over_region, dict(region=lambda bv: True, n_samples=12), "q", ("q",)),
]


def has_nan(result) -> bool:
    """Whether a NaN sits anywhere in a result: its floats, arrays, sequences and record fields."""
    if isinstance(result, float):
        return math.isnan(result)
    if isinstance(result, np.ndarray):
        return result.dtype.kind == "f" and bool(np.isnan(result).any())
    if isinstance(result, (tuple, list)):
        return any(has_nan(x) for x in result)
    if hasattr(result, "__dict__"):
        return any(has_nan(x) for x in vars(result).values())
    return False


def names_one_of(message: str, names: tuple[str, ...]) -> bool:
    return any(re.search(rf"(?<!\w){re.escape(n)}(?!\w)", message) for n in names)


@pytest.mark.parametrize("x", EDGES, ids=repr)
@pytest.mark.parametrize(
    ("call", "others", "param", "names"),
    SWEEP,
    ids=[f"{call.__qualname__}-{param}" for call, _, param, _ in SWEEP],
)
def test_edge_float_gives_a_result_or_a_named_error(call, others, param, names, x):
    try:
        result = call(**{**others, param: x})
    except ValueError as exc:
        assert names_one_of(str(exc), names), str(exc)
        return
    assert result is not None
    assert not has_nan(result), result


def float_parameters(f) -> set[str]:
    """The parameters of f, or of a class's own __init__, annotated as taking a float."""
    return {
        name
        for name, p in inspect.signature(f).parameters.items()
        if "float" in str(p.annotation)
    }


def test_sweep_covers_every_exported_float_parameter():
    swept = {(call, param) for call, _, param, _ in SWEEP}
    for name in mzduality.__all__:
        f = getattr(mzduality, name)
        if callable(f):
            owner = observable if f is BlochObservable else f
            for param in float_parameters(f):
                assert (owner, param) in swept, (name, param)


BIAS_MAX = 1.0 + 2.0**-52  # a unit Bloch vector's V may round to 1 + 1 ulp
BIASES = [x for x in EDGES if 0.0 <= x <= BIAS_MAX]  # what pv_audit accepts
ABOVE = [x for x in EDGES if BIAS_MAX < x < math.inf]  # 2 + 1 ulp, 1e300 and 2.0


def audit_fields(audit, i=None):
    """Every field of a pv_audit result as hex strings and bools, element i of an array audit."""
    out = []
    for verdict in (audit.duality, audit.sr, audit.lp):
        for name in ("lhs", "rhs", "gap", "holds", "saturated"):
            x = getattr(verdict, name)
            x = x[i] if i is not None and np.ndim(x) else x
            out.append(bool(x) if name in ("holds", "saturated") else float(x).hex())
    return out


def assert_refused_above_states(pairs):
    """pv_audit refuses, by name, each bias above a state's, on the float and array paths."""
    for p, v in pairs:
        name, x = ("P", p) if p > BIAS_MAX else ("V", v)
        want = rf"^{name} must be at most 1 \+ 2\*\*-52, the largest bias of a state, got "
        want += re.escape(repr(x)) + "$"
        for args in ((p, v), (np.array([p]), np.array([v])), (np.array([0.5, p]), v)):
            with pytest.raises(ValueError, match=want):
                pv_audit(*args)


def test_pv_audit_arrays_give_the_float_verdicts():
    # a bias of 1e300 overflowed its square to inf on both paths, and inf - inf
    # gave NaN gaps; it is refused now, as is every bias no state gives
    assert len(ABOVE) == 3
    assert_refused_above_states([(p, v) for p in ABOVE + BIASES for v in ABOVE])
    assert_refused_above_states([(p, v) for p in ABOVE for v in BIASES])
    pairs = [(p, v) for p in BIASES for v in BIASES]
    want = [audit_fields(pv_audit(p, v)) for p, v in pairs]
    for (p, v), w in zip(pairs, want):
        assert audit_fields(pv_audit(np.array([p]), np.array([v])), 0) == w, (p, v)
    p, v = np.array(pairs).T
    mixed = pv_audit(p, v)
    assert [audit_fields(mixed, i) for i in range(len(pairs))] == want
    for x in BIASES:
        column = pv_audit(np.array(BIASES), x)
        assert [audit_fields(column, i) for i in range(len(BIASES))] == [
            audit_fields(pv_audit(b, x)) for b in BIASES
        ]


ZERO_BIASES = [0.0, -0.0, 5e-324]
BIASES_ABOVE_ONE = [1.0 + 2.0**-51, 1.5, 2.0, math.nextafter(2.0, 3.0), 1e10, 1e300]


def test_a_zero_bias_against_one_above_one_does_not_split_the_legs():
    # against a bias above 1 + 1 ulp, S = sqrt((1 - P^2)(1 - V^2)) and PV were
    # both 0, so the LP leg's scale was 0 and it read holds and saturated
    # where the other legs read a violation; such biases are refused now.
    # At 1 + 1 ulp, (1 - P^2)(1 - V^2) is -2^-51, and |...| keeps S positive
    pairs = [(z, x) for z in ZERO_BIASES for x in BIASES_ABOVE_ONE]
    pairs += [(x, z) for z, x in pairs]
    assert_refused_above_states(pairs)
    pairs = [(z, BIAS_MAX) for z in ZERO_BIASES]
    pairs += [(x, z) for z, x in pairs]
    p, v = np.array(pairs).T
    array = pv_audit(p, v)
    for i, (pi, vi) in enumerate(pairs):
        for audit in (pv_audit(pi, vi), pv_audit(np.array([pi]), np.array([vi]))):
            legs = (audit.duality, audit.sr, audit.lp)
            assert len({bool(np.all(leg.holds)) for leg in legs}) == 1, (pi, vi)
            assert len({bool(np.all(leg.saturated)) for leg in legs}) == 1, (pi, vi)
            # a gap of -2^-51 holds and saturates on every leg
            assert bool(np.all(audit.all_hold)) and bool(np.all(audit.duality.saturated))
        assert audit_fields(array, i) == audit_fields(pv_audit(pi, vi)), (pi, vi)
