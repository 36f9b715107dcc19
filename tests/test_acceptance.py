"""Acceptance gate: one pass/fail line per criterion.

Each test prints ``ACCEPTANCE <id>: PASS|FAIL - <summary>`` regardless of
pytest's capture mode, then asserts, so a plain ``pytest tests/test_acceptance.py``
run doubles as a checklist. Criteria with runtime budgets time only the
calls under test.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from mzduality import (
    LN2,
    QubitState,
    brute_force_min,
    contour_grid,
    duality_inequality,
    entropy_sum,
    equivalence_audit,
    find_q_star,
    fringe_scan,
    lp_product_form,
    lp_relation,
    minimize_entropy_sum,
    predictability,
    predictability_op,
    random_mixed_bloch,
    random_pure_bloch,
    renyi_entropy,
    sr_pv_form,
    visibility,
    visibility_op,
)
from mzduality.cli import main
from mzduality.qubit import ProbPair

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _report(capsys, cid: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid} failed: {detail}"


def _states(batches: tuple[tuple[str, int, int], ...]) -> list[QubitState]:
    out: list[QubitState] = []
    for kind, n, seed in batches:
        sampler = random_pure_bloch if kind == "pure" else random_mixed_bloch
        out.extend(QubitState.from_bloch(*row) for row in sampler(n, seed))
    return out


@functools.lru_cache(maxsize=1)
def _equivalence_batch() -> tuple[QubitState, ...]:
    # shared by criteria 5 and 6: "the same 10^4 states"
    return tuple(_states((("pure", 5_000, 11), ("mixed", 5_000, 12))))


def test_c1_critical_index(capsys):
    find_q_star.cache_clear()
    start = time.perf_counter()
    q_star = find_q_star()
    elapsed = time.perf_counter() - start
    err = abs(q_star - 1.4316)
    ok = err < 5e-4 and elapsed < 1.0
    _report(
        capsys, "C1",
        ok,
        f"q*={q_star:.10f} within 5e-4 of 1.4316 (err={err:.2e}) in {elapsed:.3f}s",
    )


def test_c2_regime_minima(capsys):
    q_star = find_q_star()
    start = time.perf_counter()
    results = {q: minimize_entropy_sum(q) for q in (0.25, 0.5, 1.0, 1.3, 2.0, q_star)}
    elapsed = time.perf_counter() - start

    problems: list[str] = []
    boundary = {(0.0, 1.0), (1.0, 0.0)}
    for q in (0.25, 0.5, 1.0, 1.3):
        res = results[q]
        if abs(res.min_value - LN2) >= 1e-9:
            problems.append(f"q={q} min {res.min_value!r}")
        found = {(round(v, 9), round(p, 9)) for v, p in res.minimizers}
        if found != boundary:
            problems.append(f"q={q} minimizers {res.minimizers}")
    res2 = results[2.0]
    if abs(res2.min_value - 2.0 * math.log(4.0 / 3.0)) >= 1e-9:
        problems.append(f"q=2 min {res2.min_value!r}")
    if len(res2.minimizers) != 1 or abs(res2.minimizers[0][0] - INV_SQRT2) > 1e-6:
        problems.append(f"q=2 minimizers {res2.minimizers}")
    if len(results[q_star].minimizers) != 3:
        problems.append(f"q* minimizers {results[q_star].minimizers}")
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s")

    _report(
        capsys, "C2",
        not problems,
        "; ".join(problems) if problems
        else f"ln2 plateau, 2ln(4/3) at q=2, triple set at q* in {elapsed:.2f}s",
    )


def test_c3_contour_anchors(capsys):
    anchors = {1.0: 0.8331, 2.0: 0.5754}
    errs = {}
    for q, target in anchors.items():
        grid = contour_grid(q, 1025)
        errs[q] = abs(grid.nearest_value(INV_SQRT2, INV_SQRT2) - target)
    origin_err = abs(contour_grid(1.0, 1025).nearest_value(0.0, 0.0) - 2.0 * LN2)
    ok = all(e < 5e-4 for e in errs.values()) and origin_err <= 1e-12
    _report(
        capsys, "C3",
        ok,
        f"balanced-cell errors q=1:{errs[1.0]:.1e} q=2:{errs[2.0]:.1e} (tol 5e-4), "
        f"origin err {origin_err:.1e} (tol 1e-12)",
    )


def test_c4_duality_saturation(capsys):
    worst_pure = 0.0
    for state in _states((("pure", 10_000, 21),)):
        lhs = predictability(state) ** 2 + visibility(state) ** 2
        worst_pure = max(worst_pure, abs(lhs - 1.0))
    worst_mixed = 0.0
    for state in _states((("mixed", 10_000, 22),)):
        lhs = predictability(state) ** 2 + visibility(state) ** 2
        worst_mixed = max(worst_mixed, lhs - 1.0)
    ok = worst_pure < 1e-12 and worst_mixed <= 1e-12
    _report(
        capsys, "C4",
        ok,
        f"pure |P^2+V^2-1| max {worst_pure:.1e} (tol 1e-12), "
        f"mixed overshoot max {worst_mixed:.1e} (tol 1e-12)",
    )


def test_c5_sr_equivalence(capsys):
    worst_identity = 0.0
    pure_unsaturated = 0
    for state in _equivalence_batch():
        p = predictability(state)
        v = visibility(state)
        sr_gap = (1.0 - p * p) * (1.0 - v * v) - (p * v) ** 2
        duality_gap = 1.0 - (p * p + v * v)
        worst_identity = max(worst_identity, abs(sr_gap - duality_gap))
        if state.is_pure and not sr_pv_form(state, state.theta).saturated:
            pure_unsaturated += 1
    shrunk_saturated = 0
    for row in random_mixed_bloch(2_000, 13) * 0.97:
        if sr_pv_form(QubitState.from_bloch(*row), 0.3).saturated:
            shrunk_saturated += 1
    ok = worst_identity < 1e-12 and pure_unsaturated == 0 and shrunk_saturated == 0
    _report(
        capsys, "C5",
        ok,
        f"|SR gap - duality gap| max {worst_identity:.1e} (tol 1e-12), "
        f"{pure_unsaturated} pure unsaturated, {shrunk_saturated} mixed saturated",
    )


def test_c6_lp_equivalence(capsys):
    a_op = predictability_op()
    mismatched = 0
    forms_disagree = 0
    for state in _equivalence_batch():
        b_op = visibility_op(state.theta)
        product = lp_product_form(a_op, b_op, state)
        angle = lp_relation(a_op, b_op, state)
        dual = duality_inequality(state)
        if (product.holds, product.saturated) != (dual.holds, dual.saturated):
            mismatched += 1
        if (angle.holds, angle.saturated) != (product.holds, product.saturated):
            forms_disagree += 1
    ok = mismatched == 0 and forms_disagree == 0
    _report(
        capsys, "C6",
        ok,
        f"{mismatched}/{len(_equivalence_batch())} product-vs-duality verdict mismatches, "
        f"{forms_disagree} arccos-vs-product disagreements",
    )


def test_c7_brute_force_oracle(capsys):
    q_star = find_q_star()
    start = time.perf_counter()
    problems: list[str] = []
    for q in (0.5, 1.0, q_star, 2.0):
        analytic = minimize_entropy_sum(q).min_value
        pure = brute_force_min(q, 1_000_000, False)
        if abs(pure - analytic) > 1e-6:
            problems.append(f"q={q:.4f} |brute-analytic|={abs(pure - analytic):.2e}")
        mixed = brute_force_min(q, 1_000_000, True, seed=7)
        if mixed < pure - 1e-9:
            problems.append(f"q={q:.4f} mixed undercut {pure - mixed:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s")
    _report(
        capsys, "C7",
        not problems,
        "; ".join(problems) if problems
        else f"10^6-sample sweeps match analytic minima within 1e-6, "
             f"mixed never undercut, in {elapsed:.1f}s",
    )


def test_c8_operational_visibility(capsys):
    worst = 0.0
    for state in _states((("pure", 50, 31), ("mixed", 50, 32))):
        scan = fringe_scan(state, 3600)
        worst = max(worst, abs(scan.v_operational - visibility(state)))
    ok = worst < 2e-6
    _report(
        capsys, "C8",
        ok,
        f"3600-phase scan |v_op - 2r| max {worst:.2e} over 100 states (tol 2e-6)",
    )


def test_c9_entropy_properties(capsys):
    rng = np.random.default_rng(41)
    biases = rng.uniform(0.0, 1.0, 1_000)
    q_ladder = (0.3, 0.7, 2.0, 5.0, math.inf)
    inversions = 0
    out_of_range = 0
    worst_jump = 0.0
    for p in biases:
        pair = ProbPair(float(p), float(1.0 - p))
        values = [renyi_entropy(pair, q) for q in q_ladder]
        inversions += sum(lo < hi - 1e-12 for lo, hi in zip(values, values[1:]))
        out_of_range += sum(not 0.0 <= h <= LN2 for h in values)
        h1 = renyi_entropy(pair, 1.0)
        worst_jump = max(
            worst_jump,
            abs(renyi_entropy(pair, 1.0 + 1e-6) - h1),
            abs(renyi_entropy(pair, 1.0 - 1e-6) - h1),
        )
    ok = inversions == 0 and out_of_range == 0 and worst_jump < 1e-5
    _report(
        capsys, "C9",
        ok,
        f"{inversions} monotonicity inversions, {out_of_range} out-of-range values, "
        f"q->1 jump max {worst_jump:.2e} (tol 1e-5) on 10^3 distributions",
    )


def test_c10_verify_determinism(capsys):
    argv = ["verify", "--seed", "42", "--n", "1000"]
    code_a = main(list(argv))
    out_a = capsys.readouterr().out
    code_b = main(list(argv))
    out_b = capsys.readouterr().out
    ok = code_a == 0 and code_b == 0 and out_a == out_b and len(out_a) > 0
    _report(
        capsys, "C10",
        ok,
        f"verify --seed 42 --n 1000 exit codes ({code_a},{code_b}), "
        f"outputs byte-identical: {out_a == out_b}",
    )
