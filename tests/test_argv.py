"""Command-line parsing: the option table, its help, and an argv sweep.

The sweep compares the table parser with the argparse parser the CLI used
before, kept below as the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mzduality import cli
from mzduality.cli import _COMMANDS, _COMMON, _ROOT, TOLERANCE_DEFAULTS, _parse, main

from test_cli import csv_values, run

# -- the reference: the argparse parser as the CLI built it --------------------


class _RefParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise ValueError(message)


class _Accumulate(argparse.Action):
    """--tolerance with the items of both sides of the command in one list.

    argparse gave the command's own --tolerance list precedence over the
    root's whole list; the table parser accumulates them in argv order.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        self.default.append(values)  # the one list that both parsers share


def _add_common(parser: argparse.ArgumentParser, *, suppress: bool, tolerances: list) -> None:
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int, default=(d if suppress else 0))
    parser.add_argument("--format", choices=("csv", "json"), default=(d if suppress else "csv"))
    parser.add_argument("--out", type=str, default=(d if suppress else None))
    parser.add_argument("--tolerance", action=_Accumulate, default=tolerances)


def reference_parser(tolerances: list) -> _RefParser:
    parser = _RefParser(prog="mzduality")
    parser.add_argument("--version", action="version", version="mzduality")
    _add_common(parser, suppress=False, tolerances=tolerances)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    p_state = sub.add_parser("state")
    p_state.add_argument("--bloch")
    p_state.add_argument("--wrt")
    p_mz = sub.add_parser("mz")
    p_mz.add_argument("--bloch", required=True)
    p_mz.add_argument("--phases", type=int, default=360)
    p_verify = sub.add_parser("verify")
    p_verify.add_argument("--n", type=int, default=1000)
    p_qscan = sub.add_parser("qscan")
    p_qscan.add_argument("--qmin", type=float, default=0.25)
    p_qscan.add_argument("--qmax", type=float, default=2.0)
    p_qscan.add_argument("--steps", type=int, default=8)
    p_qstar = sub.add_parser("qstar")
    p_contour = sub.add_parser("contour")
    p_contour.add_argument("--q", type=float, default=1.0)
    p_contour.add_argument("--n", type=int, default=129)
    for p in (p_state, p_mz, p_verify, p_qscan, p_qstar, p_contour):
        _add_common(p, suppress=True, tolerances=tolerances)
    return parser


VALUED = sorted({name for _, _, own in _COMMANDS.values() for name in own} | set(_COMMON) - {"--help"})


def reference_parse(argv: list[str]) -> str | None:
    """What the argparse parser made of argv, or None where it refused it.

    "--opt VALUE" is first spelled "--opt=VALUE" wherever --opt, or a prefix
    of it, takes a value and VALUE does not start with "--": the table
    parser's rule. argparse took "-1,0,0" or "-1e-3" for an option, and the
    CLI glued such values for --bloch and --wrt only.
    """
    args: list[str] = []
    for arg in argv:
        opt = args[-1] if args else ""
        if len(opt) > 2 and any(name.startswith(opt) for name in VALUED) and not arg.startswith("--"):
            args[-1] += "=" + arg
        else:
            args.append(arg)
    tolerances: list[str] = []
    try:
        ns = vars(reference_parser(tolerances).parse_args(args))
        # the CLI's checks after parsing, as they were
        if not 0 <= ns["seed"] <= cli.MAX_SEED:
            raise ValueError("seed")
        resolved = dict(TOLERANCE_DEFAULTS)
        for item in tolerances:
            name, sep, value = item.partition("=")
            if not sep or name not in TOLERANCE_DEFAULTS or not 0.0 < float(value) < math.inf:
                raise ValueError(item)
            if name == "eps_gap" and float(value) < 1e-14:  # the CLI's floor
                raise ValueError(item)
            resolved[name] = float(value)
    except ValueError:
        return None
    common = [ns.pop(key) for key in ("command", "seed", "format", "out", "tolerance")]
    return repr((*common[:4], sorted(ns.items()), sorted(resolved.items())))


def table_parse(argv: list[str]) -> str | None:
    """The table parser's result in reference_parse's form, or None where it refused argv."""
    try:
        run_command, ns = _parse(argv)
    except ValueError:
        return None
    own = dict(vars(ns))
    common = [own.pop(key) for key in ("seed", "format", "out", "tolerance")]
    command = run_command.__name__.removeprefix("cmd_")
    return repr((command, *common[:3], sorted(own.items()), sorted(common[3].items())))


# -- the argv sweep ------------------------------------------------------------

def _values(valid: list[str], edge: list[str]) -> tuple[st.SearchStrategy[str], ...]:
    """Valid values, and those together with edge and malformed ones."""
    return st.sampled_from(valid), st.sampled_from(valid + edge)


SIZES = ["8", "33", "64", "360", "1_0", " 9", "+16"]
BAD_INTS = ["0", "1", "2", "7", "-1", "0x10", "1e3", "7.0", "x", ""]
EDGE_FLOATS = [
    "0.0", "-0.0", "5e-324", "1e-320", "1e300", "-1e300", "inf", "-inf", "nan",
    "1.0000000000000002", "1.0000001", "2.0000000000000004", "-1e-3", "1_0.5", "x", "",
]
INDICES = ["0.25", "0.5", "1", "1.4313558811842468", "1.5", "2"]
COMPONENTS = ["0", "-0.0", "0.6", "-0.6", "0.8", "1", "-1", "5e-324", "1e-320", "1.0000000000000002", "nan"]
VALUES = {
    "--seed": _values(["0", "7", "1_0", "18446744073709551615"], ["-1", "18446744073709551616", "x", ""]),
    "--format": _values(["csv", "json"], ["xml", "JSON", ""]),
    "--out": _values(["OUT_DIR/a.txt"], ["OUT_DIR/missing/b.txt", ""]),
    "--tolerance": _values(
        ["eps_gap=0.3", "eps_pos=1e-3", "band_eps=1e-3", "eps_gap=1e-14", "eps_pos=1e300"],
        ["eps_pos=inf", "eps_gap=nan", "band_eps=-1", "bogus=1", "eps_gap", "eps_gap=", "eps_gap=x", "=1",
         "eps_gap=5e-324"],
    ),
    "--bloch": (
        st.lists(st.sampled_from(COMPONENTS), min_size=3, max_size=3).map(",".join),
        st.lists(st.sampled_from(COMPONENTS + EDGE_FLOATS), min_size=2, max_size=4).map(",".join),
    ),
    "--phases": _values(SIZES, BAD_INTS),
    "--n": _values(SIZES, BAD_INTS),
    "--qmin": _values(INDICES, EDGE_FLOATS),
    "--qmax": _values(INDICES, EDGE_FLOATS),
    "--steps": _values(SIZES, BAD_INTS),
    "--q": _values(INDICES + ["50", "1e300"], EDGE_FLOATS),
}
VALUES["--wrt"] = VALUES["--bloch"]
# no token here is -h, --help, --version or a prefix of either: those print
# and exit wherever they stand, which the help tests cover
JUNK = ["x", "-x", "-", "--", "--x", "-1", "-0.5", "--seed5", "--=1", "-h=x", "--verbose", "state", "1", ""]


@st.composite
def options(draw, names: list[str], clean: bool) -> list[str]:
    """A few options from names, each exact or abbreviated, with "=VALUE" or
    with the value as the next token; unless clean, also edge values,
    options without a value and junk tokens."""
    tokens: list[str] = []
    if not names:  # qstar's own options
        return tokens
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(names))
        spelled = name[: draw(st.sampled_from([len(name), len(name), 3, 4]))]
        value = draw(VALUES[name][not clean])
        how = draw(st.sampled_from(["=", " "] if clean else ["=", " ", " ", "bare", "junk"]))
        if how == "=":
            tokens.append(f"{spelled}={value}")
        elif how == " ":
            tokens += [spelled, value]
        else:
            tokens.append(spelled if how == "bare" else draw(st.sampled_from(JUNK)))
    return tokens


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(list(_COMMANDS)))
    own = list(_COMMANDS[command][2])
    everywhere = [name for name, spec in _COMMON.items() if spec[0]]
    anywhere = sorted(VALUED)
    if draw(st.booleans()):  # options where they belong, with valid values
        before = draw(options(everywhere, clean=True))
        after = draw(options(own + everywhere, clean=True))
        head = [command]
    else:
        before = draw(options(draw(st.sampled_from([everywhere, anywhere])), clean=False))
        after = draw(options(draw(st.sampled_from([own + everywhere, own, anywhere])), clean=False))
        head = draw(st.sampled_from([[command]] * 4 + [[], ["frobnicate"], [command, command]]))
    if command == "mz" and draw(st.integers(0, 3)):
        after = ["--bloch", draw(VALUES["--bloch"][0])] + after
    return before + head + after


_NUMBER_TOKENS = re.compile(r"[^\w.+-]+")


def non_finite_numbers(text: str) -> list[str]:
    """The printed numbers in a CSV or JSON output that are not finite,
    leaving out the echoed command line."""
    if text.startswith("{"):
        payload = json.loads(text)
        del payload["meta"]["command"]
        text = json.dumps(payload)  # NaN, Infinity and -Infinity stay tokens
    else:
        text = "\n".join(line for line in text.splitlines() if not line.startswith("# command:"))
    bad = []
    for token in _NUMBER_TOKENS.split(text):
        try:
            x = float(token)
        except ValueError:
            continue
        if not math.isfinite(x):
            bad.append(token)
    return bad


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("argv")


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=argvs())
def test_argv_sweep(sweep_dir, argv):
    # every run either prints a result or exits 1 with one error line; the
    # table parser accepts and reads argv as the reference does
    argv = [arg.replace("OUT_DIR", str(sweep_dir)) for arg in argv]
    parsed = table_parse(argv)
    assert parsed == reference_parse(argv)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(sweep_dir)  # an --out taken from a junk token lands here
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    finally:
        os.chdir(cwd)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if parsed is None or code == 1:
        assert code == 1 and out == ""
        assert re.fullmatch("mzduality: error: [^\n]*\n", err), err
        return
    assert err == ""
    if code == 0:
        path = _parse(argv)[1].out
        if path is not None:
            out = (sweep_dir / path).read_text(encoding="utf-8")
        assert non_finite_numbers(out) == []


# -- spelling rules --------------------------------------------------------------


@pytest.mark.parametrize(
    ("argv", "want"),
    [
        (["state", "--bloch", "0,0,1"], ("state", "bloch", "0,0,1")),
        (["state", "--bloch=0,0,1"], ("state", "bloch", "0,0,1")),
        (["state", "--blo", "-0.6,0,0.8"], ("state", "bloch", "-0.6,0,0.8")),
        (["state", "--b=-0.6,0,0.8"], ("state", "bloch", "-0.6,0,0.8")),
        (["state", "--wr", "-0,0,-1"], ("state", "wrt", "-0,0,-1")),
        (["contour", "--q", "2"], ("contour", "q", 2.0)),
        (["qscan", "--qmi", "-1e-3"], ("qscan", "qmin", -1e-3)),
        (["qscan", "--st", "3"], ("qscan", "steps", 3)),
        (["verify", "--n", "1_0"], ("verify", "n", 10)),
        (["verify", "--n", " 7 "], ("verify", "n", 7)),
    ],
)
def test_options_by_name_prefix_and_value_spelling(argv, want):
    run_command, ns = _parse(argv)
    command, key, value = want
    assert run_command is _COMMANDS[command][0]
    assert getattr(ns, key) == value


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--tol", "eps_gap=0.3"],
        ["--tol", "eps_gap=0.3", "qstar"],
        ["--t=eps_gap=0.3", "qstar"],
        ["qstar", "--tole", "eps_gap=0.3"],
    ],
)
def test_tol_abbreviates_tolerance_where_no_option_is_named_tol(argv):
    _, ns = _parse(argv)
    assert ns.tolerance["eps_gap"] == 0.3
    assert not hasattr(ns, "tol")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["qscan", "--q", "1"], "ambiguous option: --q could match --qmin, --qmax"),
        (["qscan", "--s", "1"], "ambiguous option: --s could match --steps, --seed"),
        # qstar has no --tol, so --to abbreviates --tolerance there
        (["qstar", "--to", "1e-3"], "--tolerance expects NAME=VALUE, got '1e-3'"),
        (["qscan", "--qmin"], "argument --qmin: expected one argument"),
        (["qscan", "--qmin", "--qmax", "1"], "argument --qmin: expected one argument"),
        (["qscan", "--qmin", "x"], "argument --qmin: invalid float value: 'x'"),
        (["verify", "--n", "1e3"], "argument --n: invalid int value: '1e3'"),
        (["--format", "xml", "qstar"], "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
        (["--help=x"], "argument --help: ignored explicit argument 'x'"),
        (["state", "--version"], "unrecognized arguments: --version"),
        (["--bloch", "0,0,1", "state"], "unrecognized arguments: --bloch"),
        (["state", "--bloch", "0,0,1", "extra"], "unrecognized arguments: extra"),
        (["state", "--", "--bloch", "0,0,1"], "unrecognized arguments: --"),
        (["mz", "--phases", "16"], "the following arguments are required: --bloch"),
        (["--seed", "3"], "the following arguments are required: COMMAND"),
        (["--seed", "-1", "verify"], "--seed must lie in [0, 2^64), got -1"),
        (["--seed=18446744073709551616", "verify"], "--seed must lie in [0, 2^64), got 18446744073709551616"),
        (
            ["-1", "state"],
            "unrecognized arguments: -1",
        ),
        (
            ["frobnicate"],
            "argument COMMAND: invalid choice: 'frobnicate' (choose from 'state', 'mz',"
            " 'verify', 'qscan', 'qstar', 'contour')",
        ),
    ],
)
def test_usage_errors_name_the_argument(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"mzduality: error: {message}\n")


def test_tolerances_from_both_sides_of_the_command_accumulate(capsys):
    # argparse let the command's --tolerance list replace the root's, so
    # eps_gap fell back to its default here
    argv = ["--tolerance", "eps_gap=0.3", "verify", "--n", "20", "--tolerance", "eps_pos=1e-3"]
    _, out, _ = run(capsys, *argv)
    assert out.splitlines()[3] == (
        "# tolerances: band_eps=9.9999999999999995e-07 eps_gap=0.29999999999999999 eps_pos=0.001"
    )
    argv = ["--tolerance", "eps_gap=0.3", "verify", "--tolerance=eps_gap=1e-6", "--n", "20"]
    _, out, _ = run(capsys, *argv)
    assert "eps_gap=9.9999999999999995e-07 " in out.splitlines()[3]


def test_each_parse_resolves_a_fresh_tolerance_dict(monkeypatch):
    defaults = dict(TOLERANCE_DEFAULTS)
    first = _parse(["--tolerance", "eps_gap=0.3", "verify", "--tolerance=eps_gap=0.4"])[1].tolerance
    second = _parse(["verify"])[1].tolerance
    assert first == {**defaults, "eps_gap": 0.4} and second == defaults
    assert first is not second and second is not TOLERANCE_DEFAULTS
    second["eps_pos"] = 0.5  # a run's dict is its own
    assert TOLERANCE_DEFAULTS == defaults
    # the defaults are read at each parse, not when the module is imported
    monkeypatch.setitem(TOLERANCE_DEFAULTS, "eps_gap", 1e-18)
    assert _parse(["verify"])[1].tolerance["eps_gap"] == 1e-18


@pytest.mark.parametrize(
    ("before", "after", "field", "want"),
    [
        (["--seed", "1"], ["--seed", "2"], "seed", 2),
        (["--seed", "2"], ["--se=3"], "seed", 3),
        (["--format", "json"], ["--format", "csv"], "format", "csv"),
        (["--format=csv"], ["--f", "json"], "format", "json"),
        (["--out", "a"], ["--out", "b"], "out", "b"),
    ],
)
def test_root_options_given_on_both_sides_keep_the_last(before, after, field, want):
    _, ns = _parse([*before, "verify", *after])
    assert getattr(ns, field) == want


def test_help_and_version_come_before_later_errors(capsys):
    assert run(capsys, "--help", "--seed", "x")[0] == 0
    assert run(capsys, "--version", "frobnicate")[:2] == (0, "mzduality %s\n" % cli.__version__)


# -- help from the table ---------------------------------------------------------

POSITIONS = {"": _ROOT, **{name: {**own, **_COMMON} for name, (_, _, own) in _COMMANDS.items()}}


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
@pytest.mark.parametrize("command", list(POSITIONS))
def test_help_lists_every_option_of_its_position(capsys, command, flag):
    code, out, err = run(capsys, *([command] if command else []), flag)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: mzduality [options] {command or 'COMMAND'} [options]\n")
    lines = {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}
    for name, (convert, default, metavar, text) in POSITIONS[command].items():
        line = lines["-h," if name == "--help" else name]
        flag = f"{name} {metavar}" if convert else name
        assert f" {flag} " in line
        assert text in line
        if default is ...:
            assert line.endswith(" (required)")
        elif default not in (None, []):
            assert line.endswith(f" (default {default})")
    if not command:
        for name, (_, text, _) in _COMMANDS.items():
            assert lines[name] == f"  {name:<9} {text}"
    else:
        assert _COMMANDS[command][1] in out.splitlines()


# one non-default value per table entry and how its effect shows; the
# command's base argv comes first
BASE = {
    "state": ["state", "--bloch", "0,0,1"],
    "mz": ["mz", "--bloch", "0,0,1"],
    "verify": ["verify", "--n", "20"],
    "qscan": ["qscan"],
    "qstar": ["qstar"],
    "contour": ["contour", "--n", "32"],
}


def _data_rows(out: str) -> list[list[str]]:
    """The CSV rows under the column header."""
    return [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]


APPLIED = {
    ("state", "--bloch"): ("0,0.6,0.8", lambda out: csv_values(out)["sy"] == "0.59999999999999998"),
    ("state", "--wrt"): ("0.25,0.1,1", lambda out: csv_values(out)["w_plus"] == "0.25"),
    ("mz", "--bloch"): ("1,0,0", lambda out: _data_rows(out)[0][1:] == ["0.5", "0.5"]),
    ("mz", "--phases"): ("16", lambda out: len(_data_rows(out)) == 16),
    ("verify", "--n"): ("33", lambda out: csv_values(out)["checked"] == "33"),
    ("qscan", "--qmin"): ("0.5", lambda out: _data_rows(out)[0][0] == "0.5"),
    ("qscan", "--qmax"): ("1.5", lambda out: _data_rows(out)[-1][0] == "1.5"),
    ("qscan", "--steps"): ("3", lambda out: len(_data_rows(out)) == 3),
    ("contour", "--q"): ("2", lambda out: "# q: 2" in out.splitlines()),
    ("contour", "--n"): ("40", lambda out: len(_data_rows(out)) == 40 * 40),
    ("", "--seed"): ("9", lambda out: "# seed: 9" in out.splitlines()),
    ("", "--format"): ("json", lambda out: json.loads(out)["meta"]["tool"] == "mzduality"),
    ("", "--tolerance"): ("band_eps=0.5", lambda out: " band_eps=0.5 " in out.splitlines()[3]),
}


def test_every_table_entry_has_an_applied_value():
    entries = {(cmd, name) for cmd, (_, _, own) in _COMMANDS.items() for name in own}
    entries |= {("", name) for name, spec in _COMMON.items() if spec[0]} - {("", "--out")}
    assert set(APPLIED) == entries  # --out: test_out_is_applied


@pytest.mark.parametrize(
    ("command", "where", "name"),
    [(command, where, name) for where, name in APPLIED for command in ([where] if where else BASE)],
)
def test_a_non_default_value_is_applied(capsys, command, where, name):
    value, applied = APPLIED[where, name]
    argv = [*BASE[command], name, value]
    if (command, name) in (("state", "--wrt"), ("mz", "--bloch")):
        argv = [command, name, value]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert applied(out)
    _, default_out, _ = run(capsys, *BASE[command])
    assert out.replace(" ".join(argv), " ".join(BASE[command]), 1) != default_out


@pytest.mark.parametrize("command", list(BASE))
def test_out_is_applied(tmp_path, capsys, command):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, *BASE[command], "--out", str(target))
    assert (code, out) == (0, "")
    assert target.read_text(encoding="utf-8").startswith("# tool: mzduality")
