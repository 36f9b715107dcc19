"""Every value-taking command-line flag at edge spellings.

Each run either exits 0 with nothing on stderr, or exits 1 with exactly
one stderr line that names the flag, nothing on stdout and no ``--out``
file. A bad ``--tolerance`` item may name the tolerance instead of the
flag. The other options stay at small, valid values, so every run is
quick and in-process; huge counts of ``verify --n``, ``qscan --steps``
and ``mz --phases`` would run, and stay in the subprocess tests of
``test_cli.py``.
"""

from __future__ import annotations

import re

import pytest

from mzduality.cli import _COMMANDS, _COMMON, TOLERANCE_DEFAULTS

from test_cli import run

HUGE = str(2**64)
SPELLINGS = ["nan", "inf", "-inf", "0", "-0", "5e-324", "-1", "1e308", "1e400", HUGE, "", "x"]


def triples(base: list[str]) -> list[str]:
    """Each spelling as each component of base, all-NaN and all-huge triples, and each alone."""
    spelled = [
        ",".join(base[:i] + [s] + base[i + 1 :]) for s in SPELLINGS + ["1e300"] for i in range(3)
    ]
    return spelled + SPELLINGS + ["nan,nan,nan", "1e308,1e308,1e308"]


COUNTS = [s for s in SPELLINGS if s != HUGE]  # a count that large would run
TOLERANCES = SPELLINGS + [f"{name}={s}" for name in TOLERANCE_DEFAULTS for s in SPELLINGS]

# each command's other options: small, valid values
BASE = {
    "state": ["--bloch", "0.6,0,0.8"],
    "mz": ["--bloch", "0.6,0,0.8", "--phases", "8"],
    "verify": ["--n", "4"],
    "qscan": ["--steps", "2"],
    "qstar": [],
    "contour": ["--n", "32"],
}
OWN = {
    ("state", "--bloch"): triples(["0", "0", "0.5"]),
    ("state", "--wrt"): triples(["0.5", "0.25", "0.3"]),
    ("mz", "--bloch"): triples(["0", "0", "0.5"]),
    ("mz", "--phases"): COUNTS,
    ("verify", "--n"): COUNTS,
    ("qscan", "--qmin"): SPELLINGS,
    ("qscan", "--qmax"): SPELLINGS,
    ("qscan", "--steps"): COUNTS,
    ("contour", "--q"): SPELLINGS,
    ("contour", "--n"): SPELLINGS,
}
COMMON = {
    "--seed": SPELLINGS,
    "--format": SPELLINGS,
    "--out": SPELLINGS,
    "--tolerance": TOLERANCES,
}
GATE = {**OWN, **{(command, flag): v for command in _COMMANDS for flag, v in COMMON.items()}}


def argv_for(command: str, flag: str, value: str) -> list[str]:
    """The command with its base options, flag's own base value replaced by value."""
    base = BASE[command]
    pairs = dict(zip(base[::2], base[1::2]))
    pairs.pop(flag, None)
    if flag == "--wrt":
        pairs.pop("--bloch")  # state takes exactly one of the two
    return [command, *(t for pair in pairs.items() for t in pair), flag, value]


def names(line: str, flag: str) -> bool:
    words = [flag, *TOLERANCE_DEFAULTS] if flag == "--tolerance" else [flag]
    return any(re.search(rf"(?<![\w-]){re.escape(w)}(?![\w-])", line) for w in words)


@pytest.mark.parametrize(("command", "flag"), list(GATE), ids=[f"{c} {f}" for c, f in GATE])
def test_each_edge_spelling_runs_or_is_refused_by_flag(
    capsys, monkeypatch, tmp_path, command, flag
):
    monkeypatch.chdir(tmp_path)  # an --out value lands here
    bad = []
    for value in GATE[command, flag]:
        argv = argv_for(command, flag, value)
        code, out, err = run(capsys, *argv)
        if code == 0:
            if err:
                bad.append((argv, code, err))
            continue
        lines = err.splitlines()
        if code != 1 or out or len(lines) != 1 or not names(lines[0], flag):
            bad.append((argv, code, out[:80], err))
            continue
        if flag != "--out":  # refused before an --out file is opened
            target = tmp_path / "refused.out"
            again = run(capsys, "--out", str(target), *argv)
            if again != (1, "", err) or target.exists():
                bad.append((["--out", str(target), *argv], again))
    assert bad == []


def test_the_gate_covers_every_value_taking_flag():
    table = {(c, f) for c, spec in _COMMANDS.items() for f, opt in spec[2].items() if opt[0]}
    table |= {(c, f) for c in _COMMANDS for f, opt in _COMMON.items() if opt[0]}
    assert set(GATE) == table


# exact texts: every refusal names its flag, in words that stay put
REFUSALS = [
    (["mz", "--bloch", "0,0,1", "--phases", "3"], "--phases must be at least 8, got 3"),
    (["contour", "--n", "3"], "--n must be at least 32, got 3"),
    # qstar takes no options, so --tol abbreviates --tolerance there too
    (["qstar", "--tol", "1"], "--tolerance expects NAME=VALUE, got '1'"),
    (["contour", "--q", "0"], "--q: Renyi index q must be positive, got 0.0"),
    (["state", "--wrt", "2,0,0"], "--wrt: w_plus must lie in [0, 1], got 2.0"),
    (["state", "--bloch", "nan,0,0"], "--bloch: Bloch component sx is NaN"),
    (
        # the --bloch 0.02,0,1 state: refused without an eps_pos that admits it
        ["state", "--wrt", "1,0.01,0"],
        "--wrt: Bloch norm exceeds 1: ||s|| = 1.000199980003999 violates the"
        " positivity invariant ||s|| <= 1",
    ),
    (
        # a row of norm 1 + 2**-52, which rounding gives, is refused only by this eps_pos
        ["--tolerance", "eps_pos=1e-300", "verify", "--n", "2000"],
        "--tolerance: Bloch norm exceeds 1: ||s|| = 1.0000000000000002 violates the"
        " positivity invariant ||s|| <= 1",
    ),
    (
        ["qscan", "--qmin", "0"],
        "need 0 < --qmin <= --qmax <= 2 (pure-state reduction is concavity-limited"
        " to q <= 2), got --qmin 0.0 --qmax 2.0",
    ),
    (
        ["--out", "missing/x", "state", "--bloch", "0,0,1"],
        "--out: [Errno 2] No such file or directory: 'missing/x'",
    ),
]


@pytest.mark.parametrize(("argv", "message"), REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_refusal_text(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (1, "", f"mzduality: error: {message}\n")
