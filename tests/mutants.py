"""Mutants of the package that the test suite must kill, and a runner for them.

Each entry names a module under ``src/mzduality``, a snippet that must occur
in it exactly once, the snippet's replacement and the pytest arguments that
must fail on the mutant. For each entry the runner copies ``src/`` to a
temporary directory, applies that one edit and runs the selection against
the copy through ``PYTHONPATH``. It reports every mutant that survives.

    python tests/mutants.py          # every entry
    python tests/mutants.py 0 3      # entries by index

Exit status: 0 if every mutant is killed, 1 if one survives, 2 if a snippet
does not occur exactly once or a selection runs no test. pytest does not
collect this file: its name does not match ``test_*.py``.

An edit that no input can tell apart from the original (an equivalent
mutant) does not belong here. A change to the code that edits a listed
snippet updates its entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, snippet, replacement, pytest arguments)
MUTANTS = [
    # the region minimizer settles only rows at the running array minimum,
    # so a first strict minimum that numpy ranks a few ulps high is missed
    (
        "entropic.py",
        "vals <= low + 1e-12",
        "vals <= low",
        ["tests/test_entropic.py", "-k", "region_minimum"],
    ),
    # the region minimizer's blocks skip the norm rule, so the predicate and
    # the ranking see raw rows whose norm rounds above 1
    (
        "entropic.py",
        "s = _checked_rows(block)",
        "s = block",
        ["tests/test_entropic.py", "-k", "region_minimum"],
    ),
    # the region's records are built without their sy field, so the
    # predicate's first read of it fails
    (
        "qubit.py",
        "(_set_sx, sx), (_set_sy, sy), (_set_sz, sz)",
        "(_set_sx, sx), (_set_sz, sz)",
        ["tests/test_entropic.py", "-k", "region_minimum"],
    ),
    # the half-scale draws are tested against the full-scale ball, so rows
    # of norm up to 2 are taken as samples
    (
        "entropic.py",
        "inside = r2 <= 0.25",
        "inside = r2 <= 1.0",
        ["tests/test_entropic.py", "-k", "samplers or half_scale"],
    ),
    # the oracle compares half-scale squared norms with the full-scale floor,
    # so it drops ball rows that lie in cells within its cut
    (
        "entropic.py",
        "floor *= 0.25",
        "floor *= 1.0",
        ["tests/test_entropic.py", "-k", "rows_within_the_cut"],
    ),
    # a gap of exactly -eps_gap no longer holds
    (
        "uncertainty.py",
        "gap, gap >= -eps_gap,",
        "gap, gap > -eps_gap,",
        ["tests/test_uncertainty.py"],
    ),
    # a gap of exactly +-eps_gap no longer saturates
    (
        "uncertainty.py",
        "abs(gap) <= eps_gap)",
        "abs(gap) < eps_gap)",
        ["tests/test_uncertainty.py"],
    ),
    # rows whose norm rounds to 1 + 2^-52 are no longer rescaled to 1
    (
        "qubit.py",
        "over = norm > 1.0",
        "over = norm > 1.0 + 2.0**-52",
        ["tests/test_cli.py", "-k", "verify"],
    ),
    # a NaN component is refused as a norm above 1, not by its name
    (
        "qubit.py",
        "if math.isnan(x):",
        "if False:",
        ["tests/test_qubit.py", "-k", "nan"],
    ),
    # a row of norm exactly 1 + eps_pos is refused, where BlochVector takes it
    (
        "qubit.py",
        "~(norm <= 1.0 + eps_pos)",
        "~(norm < 1.0 + eps_pos)",
        ["tests/test_cli.py", "-k", "verify"],
    ),
    # the last angle of the arc is left as (n - 1) * step, which can round off pi/2
    (
        "entropic.py",
        "a[k == n - 1] = stop",
        "a[k == n - 1] = a[k == n - 1]",
        ["tests/test_entropic.py", "-k", "arc_grid or brute_force"],
    ),
    # the oracle's running minimum starts below every entropy sum: at the
    # arc's first block, then at the ball's first block
    (
        "entropic.py",
        "best = math.inf\n    for first in",
        "best = 0.0\n    for first in",
        ["tests/test_entropic.py", "-k", "brute_force or BruteForce"],
    ),
    (
        "entropic.py",
        "best = _arc_min(q, n_states)",
        "best = 0.0",
        ["tests/test_entropic.py", "-k", "brute_force or BruteForce"],
    ),
    # states whose bound lies just below the threshold are skipped: at
    # n = 16 385 the last arc run is the one angle pi/2, the minimum at q = 0.5
    (
        "entropic.py",
        "_SLACK = 1e-12",
        "_SLACK = -1e-12",
        ["tests/test_entropic.py", "-k", "brute_force_min"],
    ),
    # the ball's bound takes x^2 + y^2 for the bias hypot(x, y): too high
    (
        "entropic.py",
        "_up(np.sqrt(top))",
        "_up(top)",
        ["tests/test_entropic.py", "-k", "bounds_are_sound"],
    ),
    # an arc run's bound takes sin at its first angle, where sin is smallest
    (
        "entropic.py",
        "_up(np.sin(a_hi))",
        "_up(np.sin(a_lo))",
        ["tests/test_entropic.py", "-k", "bounds_are_sound"],
    ),
    # no pruning: every arc run, or every ball row, is evaluated
    (
        "entropic.py",
        "lo[_arc_bounds(q, n, lo) <= cut]",
        "lo[_arc_bounds(q, n, lo) <= math.inf]",
        ["tests/test_entropic.py", "-k", "prunes_most"],
    ),
    (
        "entropic.py",
        "s[_ball_bounds(cells, s) <= cut]",
        "s[_ball_bounds(cells, s) <= math.inf]",
        ["tests/test_entropic.py", "-k", "prunes_most"],
    ),
    # the ball's norm floor is taken over the cells within the cut at their
    # largest corner, or at the top of each cell's |z| range: rows of cells
    # within the cut fall below it and are dropped
    (
        "entropic.py",
        "(i / _CELLS) ** 2 + j / _CELLS).min(initial=math.inf)",
        "(i / _CELLS) ** 2 + j / _CELLS).max(initial=0.0)",
        ["tests/test_entropic.py", "-k", "norm_floor"],
    ),
    (
        "entropic.py",
        "(i / _CELLS) ** 2 + j / _CELLS).min(",
        "((i + 1) / _CELLS) ** 2 + j / _CELLS).min(",
        ["tests/test_entropic.py", "-k", "norm_floor"],
    ),
    # biases are not moved out, so a bound can exceed a sum at a rounded bias
    (
        "entropic.py",
        "return np.minimum(b * (1.0 + 2.0**-48), 1.0)",
        "return b",
        ["tests/test_entropic.py", "-k", "up_moves"],
    ),
    # a q exactly band_eps from q* falls out of regime II
    (
        "entropic.py",
        "abs(q - q_star) <= band_eps",
        "abs(q - q_star) < band_eps",
        ["tests/test_entropic.py", "-k", "band_is_closed"],
    ),
    # round-off past [0, ln 2], and -0.0, reach the caller unclamped
    (
        "entropic.py",
        "return xp.clip(h, 0.0, LN2) + 0.0",
        "return h + 0.0",
        ["tests/test_entropic.py", "-k", "expm1_band"],
    ),
    # q = 1 takes the expm1 branch, which divides by q - 1 = 0
    (
        "entropic.py",
        "elif q == 1.0:",
        "elif False:",
        ["tests/test_entropic.py", "-k", "TestRenyiEntropy"],
    ),
    # the fringe at detector 1 turns the Bloch vector the wrong way
    (
        "interferometer.py",
        "(1.0 - (sx * c - sy * sn))",
        "(1.0 - (sx * c + sy * sn))",
        ["tests/test_interferometer.py", "-k", "matches_element_functions"],
    ),
    # candidates a round-off above the minimum are dropped from the minimizers
    (
        "entropic.py",
        "val <= min_value + MINIMIZER_VALUE_TOL",
        "val <= min_value",
        ["tests/test_entropic.py", "-k", "triple_set"],
    ),
    # a bool passes as the count 0 or 1
    (
        "qubit.py",
        'isinstance(n, bool) or not hasattr(n, "__index__")',
        'not hasattr(n, "__index__")',
        ["tests/test_entropic.py", "-k", "counts_must_be_integers"],
    ),
    # a block of the table takes one row too many
    (
        "cli.py",
        "islice(rows, _ROW_BLOCK - 1)",
        "islice(rows, _ROW_BLOCK)",
        ["tests/test_cli.py", "-k", "rows_in_blocks"],
    ),
    # a refusal that starts with the parameter name, or any other, reaches
    # the user in the library's words, naming no flag
    (
        "cli.py",
        "raise ValueError(flag + text[len(name) :]) from None",
        "raise",
        ["tests/test_cli_edges.py"],
    ),
    (
        "cli.py",
        'raise ValueError(f"{flag}: {text}") from None',
        "raise",
        ["tests/test_cli_edges.py"],
    ),
    # the contour cells below the diagonal are never filled
    (
        "cli.py",
        "        cells[k + i :: n] = upper\n",
        "",
        ["tests/test_cli.py", "-k", "golden and contour"],
    ),
    # the contour CSV rows put each p_j where v_i goes and v_i after it
    (
        "cli.py",
        '    parts[1::4] = ["," + p + "," for p in axis]\n'
        '    parts[3::4] = ["\\n"] * n\n'
        "    for v, row in zip(axis, rows):\n"
        "        parts[0::4] = [v] * n\n",
        '    parts[0::4] = ["," + p + "," for p in axis]\n'
        '    parts[3::4] = ["\\n"] * n\n'
        "    for v, row in zip(axis, rows):\n"
        "        parts[1::4] = [v] * n\n",
        ["tests/test_cli.py", "-k", "contour and bytes_match"],
    ),
    # a written contour row keeps its strings, so every cell string stays
    # alive to the end
    (
        "cli.py",
        "        cells[k : k + n] = [None] * n\n",
        "",
        ["tests/test_cli.py", "-k", "memory_holds_a_quarter"],
    ),
    # a JSON field that is a list or a dict, not only an iterator, is
    # streamed as an array of its items
    (
        "cli.py",
        'hasattr(value, "__next__")',
        'hasattr(value, "__iter__")',
        ["tests/test_cli.py", "-k", "golden and json"],
    ),
    # the JSON state field lists the Bloch components in the wrong order
    (
        "cli.py",
        '{"s": list(state.bloch.as_tuple())}',
        '{"s": list(state.bloch.as_tuple())[::-1]}',
        ["tests/test_cli.py", "-k", "golden and json"],
    ),
    # an observable's axis component is multiplied by the norm, not divided,
    # so an axis off unit length within EPS_UNIT is stored off it too
    (
        "qubit.py",
        "(ax / n, ay / n, az / n)",
        "(ax * n, ay / n, az / n)",
        ["tests/test_qubit.py", "-k", "off_unit_axis"],
    ),
    (
        "qubit.py",
        "(ax / n, ay / n, az / n)",
        "(ax / n, ay * n, az / n)",
        ["tests/test_qubit.py", "-k", "off_unit_axis"],
    ),
    (
        "qubit.py",
        "(ax / n, ay / n, az / n)",
        "(ax / n, ay / n, az * n)",
        ["tests/test_qubit.py", "-k", "off_unit_axis"],
    ),
    # the operational visibility multiplies by p_max + p_min, which an
    # even grid makes about 1
    (
        "interferometer.py",
        "(p_max - p_min) / (p_max + p_min)",
        "(p_max - p_min) * (p_max + p_min)",
        ["tests/test_interferometer.py", "-k", "TestFringeScan"],
    ),
    # an array of biases takes 0, or 1 + 2**-52, as the entry to refuse,
    # and then refuses none
    (
        "uncertainty.py",
        "(x >= 0.0) & (x <= _BIAS_MAX)",
        "(x > 0.0) & (x <= _BIAS_MAX)",
        ["tests/test_uncertainty.py", "-k", "first_entry_past"],
    ),
    (
        "uncertainty.py",
        "(x >= 0.0) & (x <= _BIAS_MAX)",
        "(x >= 0.0) & (x < _BIAS_MAX)",
        ["tests/test_uncertainty.py", "-k", "first_entry_past"],
    ),
    # the LP leg's scaled gap of exactly 0 no longer holds, or no longer
    # saturates, at eps_gap = 0
    (
        "uncertainty.py",
        "scaled >= -eps_gap,",
        "scaled > -eps_gap,",
        ["tests/test_uncertainty.py", "-k", "scale_is_zero"],
    ),
    (
        "uncertainty.py",
        "xp.abs(scaled) <= eps_gap",
        "xp.abs(scaled) < eps_gap",
        ["tests/test_uncertainty.py", "-k", "scale_is_zero"],
    ),
    # a probability of exactly -EPS_NORM, or of exactly 1 + EPS_NORM, is refused
    (
        "qubit.py",
        "-EPS_NORM <= p <= 1.0 + EPS_NORM",
        "-EPS_NORM < p <= 1.0 + EPS_NORM",
        ["tests/test_qubit.py", "-k", "range_is_closed"],
    ),
    (
        "qubit.py",
        "-EPS_NORM <= p <= 1.0 + EPS_NORM",
        "-EPS_NORM <= p < 1.0 + EPS_NORM",
        ["tests/test_qubit.py", "-k", "range_is_closed"],
    ),
    # the q* bisection keeps the wrong half of its bracket
    (
        "entropic.py",
        "g(mid) > 0.0",
        "g(mid) < 0.0",
        ["tests/test_entropic.py", "-k", "TestCriticalIndex"],
    ),
    # the bisection passes the double where g is exactly 0 and ends 4 ulp
    # higher, at another double where g <= 0 (g is not monotone within a
    # few ulp of the root): the qstar golden bytes pin the path
    (
        "entropic.py",
        "g(mid) > 0.0",
        "g(mid) >= 0.0",
        ["tests/test_cli.py", "-k", "golden_bytes and qstar"],
    ),
    # q* is the last double where the objective is still positive
    (
        "entropic.py",
        "return hi",
        "return lo",
        ["tests/test_entropic.py", "-k", "TestCriticalIndex"],
    ),
    # the beam splitter puts its permuted fields through the norm rule again,
    # which rescales a unit vector whose norm, summed in the new order,
    # rounds above 1
    (
        "interferometer.py",
        "QubitState(*_checked_blochs([s.sz], [s.sy], [-s.sx]))",
        "QubitState(BlochVector(s.sz, s.sy, -s.sx))",
        ["tests/test_interferometer.py", "-k", "unit_vectors_are_permuted_exactly"],
    ),
    # a record field gets a default again
    (
        "entropic.py",
        'constraint = "P^2+V^2=1"',
        'constraint: str = "P^2+V^2=1"',
        ["tests/test_records.py", "-k", "no_field_defaults"],
    ),
]


def mutated_source(module: str, snippet: str, replacement: str) -> tuple[Path, str]:
    path = ROOT / "src" / "mzduality" / module
    text = path.read_text(encoding="utf-8")
    count = text.count(snippet)
    if count != 1:
        raise LookupError(f"{module}: {snippet!r} occurs {count} times, not once")
    return path.relative_to(ROOT), text.replace(snippet, replacement)


def killed(rel: Path, text: str, selection: list[str]) -> bool:
    """Whether the selection fails on a copy of src/ whose file rel holds text."""
    with tempfile.TemporaryDirectory(prefix="mzduality-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (Path(tmp) / rel).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src))
        # pyproject.toml puts the checkout's src first on the path; the empty
        # override leaves PYTHONPATH's mutated copy to be imported
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        argv += ["-o", "pythonpath=", *selection]
        result = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):  # 5: no test collected; 2-4: an error
        raise RuntimeError(f"pytest exited {result.returncode}\n{result.stdout}")
    return result.returncode == 1


def main(argv: list[str]) -> int:
    indices = [int(a) for a in argv] or list(range(len(MUTANTS)))
    try:  # every snippet is checked before anything runs
        edits = [mutated_source(*MUTANTS[i][:3]) for i in indices]
    except LookupError as exc:
        print(f"mutants: {exc}", file=sys.stderr)
        return 2
    survivors = 0
    start = time.perf_counter()
    for i, (rel, text) in zip(indices, edits):
        module, snippet, replacement, selection = MUTANTS[i]
        t = time.perf_counter()
        try:
            dead = killed(rel, text, selection)
        except RuntimeError as exc:
            print(f"mutants: mutant {i}: {exc}", file=sys.stderr)
            return 2
        survivors += not dead
        took = time.perf_counter() - t
        verdict = "killed" if dead else "SURVIVED"
        print(f"{i}: {verdict} in {took:.1f} s: {module}: {snippet!r} -> {replacement!r}")
    took = time.perf_counter() - start
    print(f"{len(indices) - survivors} of {len(indices)} killed in {took:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
