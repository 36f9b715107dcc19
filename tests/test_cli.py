"""Command-line interface: formats, determinism, exit codes."""

from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mzduality
from mzduality import (
    LN2,
    BlochVector,
    QubitState,
    apply_beam_splitter,
    classify_regime,
    contour_grid,
    entropy_sum,
    find_q_star,
    fringe_scan,
    minimize_entropy_sum,
    pv_audit,
    random_mixed_bloch,
    random_pure_bloch,
    visibility,
)
from mzduality import cli, qubit
from mzduality.cli import (
    _JSON_ITEM_SEP,
    _ROW_BLOCK,
    _json_chunks,
    _JsonArray,
    _meta_dict,
    _meta_lines,
    _spelled,
    _symmetric_rows,
    _table,
    main,
)
from mzduality.entropic import _BLOCK
from mzduality.qubit import EPS_POS, _checked_rows

Q_STAR = 1.4313558811842468


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_env() -> dict[str, str]:
    """The environment of a child Python that imports this checkout's package."""
    src_root = str(Path(mzduality.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src_root, os.environ.get("PYTHONPATH", "")]))


def csv_values(out: str) -> dict[str, str]:
    rows = {}
    for line in out.splitlines():
        if line.startswith("#") or "," not in line:
            continue
        key, _, rest = line.partition(",")
        rows[key] = rest
    return rows


def test_state_csv_report(capsys):
    code, out, _ = run(capsys, "state", "--bloch", "0.6,0,0.8")
    assert code == 0
    assert out.startswith("# tool: mzduality")
    assert "# seed: 0" in out
    vals = csv_values(out)
    assert float(vals["predictability"]) == 0.8
    assert float(vals["visibility"]) == pytest.approx(0.6, abs=1e-15)
    assert float(vals["duality_lhs"]) == pytest.approx(1.0, abs=1e-12)
    assert vals["duality_saturated"] == "true"
    assert vals["all_agree_on_saturation"] == "true"
    assert vals["is_pure"] == "true"


def test_state_json_report(capsys):
    code, out, _ = run(capsys, "--format", "json", "state", "--bloch", "0,0,0")
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[0] == "meta"
    assert payload["meta"]["tool"] == "mzduality"
    assert payload["meta"]["seed"] == 0
    assert payload["state"] == {"s": [0.0, 0.0, 0.0]}
    assert payload["report"]["duality_saturated"] == "false"


def test_state_weight_parametrization(capsys):
    code, out, _ = run(capsys, "state", "--wrt", "0.5,0.5,0")
    assert code == 0
    vals = csv_values(out)
    assert float(vals["visibility"]) == pytest.approx(1.0, abs=1e-12)
    assert float(vals["predictability"]) == 0.0


def test_state_needs_exactly_one_source(capsys):
    code, _, err = run(capsys, "state")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "state", "--bloch", "0,0,1", "--wrt", "1,0,0")
    assert code == 1


def test_state_rejects_unphysical_vector(capsys):
    code, _, err = run(capsys, "state", "--bloch", "1,1,1")
    assert code == 1
    assert "Bloch norm" in err


@pytest.mark.parametrize(
    ("wrt", "message"),
    [
        ("0.5,0.1,inf", "theta must be finite, got inf"),
        ("0.5,0.1,nan", "theta must be finite, got nan"),
        ("0.5,inf,0", "r must be finite and nonnegative, got inf"),
        ("0.5,nan,0", "r must be finite and nonnegative, got nan"),
    ],
)
def test_state_rejects_non_finite_wrt_by_name(capsys, wrt, message):
    code, out, err = run(capsys, "state", "--wrt", wrt)
    assert code == 1
    assert out == ""
    assert err == f"mzduality: error: --wrt: {message}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    ("argv", "spelled"),
    [
        (["state", "--bloch", "-0.6,0,0.8"], ["state", "--bloch=-0.6,0,0.8"]),
        (["mz", "--bloch", "-1,0,0", "--phases", "16"], ["mz", "--bloch=-1,0,0", "--phases", "16"]),
        (["state", "--wrt", "-0,0,-1"], ["state", "--wrt=-0,0,-1"]),
        (["state", "--blo", "-0.6,0,0.8"], ["state", "--bloch=-0.6,0,0.8"]),
        (["state", "--b", "-0.6,0,0.8"], ["state", "--bloch=-0.6,0,0.8"]),
        (["mz", "--bl", "-1,0,0", "--phases", "16"], ["mz", "--bloch=-1,0,0", "--phases", "16"]),
        (["state", "--wr", "-0,0,-1"], ["state", "--wrt=-0,0,-1"]),
    ],
    ids=["state", "mz", "wrt", "prefix-blo", "prefix-b", "mz-prefix-bl", "prefix-wr"],
)
def test_state_values_may_start_with_minus(capsys, fmt, argv, spelled):
    code, out, err = run(capsys, "--format", fmt, *argv)
    want_code, want, _ = run(capsys, "--format", fmt, *spelled)
    assert code == want_code == 0 and err == ""
    # the echoed command line, the user's own spelling, is the only difference
    assert " ".join(argv) in out
    assert out.replace(" ".join(argv), " ".join(spelled), 1) == want


@pytest.mark.parametrize("option", ["--bloch", "--wrt"])
def test_option_after_bloch_is_not_taken_as_its_value(capsys, option):
    code, out, err = run(capsys, "state", option, "--format", "json")
    assert code == 1
    assert out == ""
    assert f"argument {option}: expected one argument" in err


def test_stdout_closed_before_the_first_write_ends_the_run_quietly():
    # qstar's few lines stay in the stdout buffer until main flushes it, so
    # the child must buffer stdout as it does by default
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "mzduality.cli", "qstar"],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == b""


def test_closed_stdout_ends_the_run_quietly():
    # the default contour writes about 1 MB, far more than a pipe buffers
    # leaving the with block closes both pipes and waits for the child
    with subprocess.Popen(
        [sys.executable, "-m", "mzduality.cli", "contour"],
        env=package_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        first = b"# tool: mzduality %s\n" % mzduality.__version__.encode()
        try:
            assert proc.stdout.readline() == first
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
    assert err == b""


def test_state_bad_triple_syntax(capsys):
    code, _, err = run(capsys, "state", "--bloch", "1,2")
    assert code == 1
    assert "three" in err


def test_eps_pos_tolerance_is_plumbed(capsys):
    code, _, _ = run(capsys, "state", "--bloch", "0,0,1.000001")
    assert code == 1
    code, out, _ = run(
        capsys, "--tolerance", "eps_pos=1e-3", "state", "--bloch", "0,0,1.000001"
    )
    assert code == 0
    assert float(csv_values(out)["sz"]) == 1.0


def test_unknown_tolerance_name(capsys):
    code, _, err = run(capsys, "--tolerance", "eps_bogus=1", "state", "--bloch", "0,0,0")
    assert code == 1
    assert "eps_bogus" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "infinity", "1e400", "nan", "0", "-1e-9"])
@pytest.mark.parametrize("name", ["eps_pos", "eps_gap", "band_eps"])
def test_tolerance_must_be_finite_and_positive(capsys, name, value):
    # an infinite eps_pos accepted any Bloch vector and an infinite eps_gap any verdict
    for argv in (["state", "--bloch", "3,0,0"], ["verify", "--n", "20"]):
        code, out, err = run(capsys, "--tolerance", f"{name}={value}", *argv)
        assert (code, out) == (1, "")
        assert err == f"mzduality: error: tolerance {name} must be finite and positive, got '{value}'\n"


def test_valid_tolerances_are_echoed(capsys):
    override = ["eps_pos=1e-3", "eps_gap=1e300", "band_eps=5e-324"]
    code, out, _ = run(capsys, *(f"--tolerance={t}" for t in override), "state", "--bloch", "0,0,1")
    assert code == 0
    assert out.splitlines()[3] == (
        "# tolerances: band_eps=4.9406564584124654e-324"
        " eps_gap=1.0000000000000001e+300 eps_pos=0.001"
    )


@pytest.mark.parametrize("where", ["before", "after"])
def test_reused_parser_starts_each_run_from_the_defaults(capsys, where):
    override = ["--tolerance", "eps_gap=0.3", "--seed", "7", "--format", "json"]
    argv = ["verify", "--n", "20"]
    first = override + argv if where == "before" else argv + override
    code, out, _ = run(capsys, *first)
    assert code == 0
    meta = json.loads(out)["meta"]
    assert (meta["seed"], meta["tolerances"]["eps_gap"]) == (7, 0.3)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[2:4] == _meta_lines(cli._parse(argv)[1], argv)[2:4]


def test_mz_fringe_csv(capsys):
    code, out, _ = run(capsys, "mz", "--bloch", "0,0,1", "--phases", "16")
    assert code == 0
    data_rows = [
        line for line in out.splitlines() if line and not line.startswith("#") and
        not line.startswith("phi,")
    ]
    assert len(data_rows) == 16
    first = data_rows[0].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) + float(first[2]) == pytest.approx(1.0, abs=1e-15)
    footer = {k: v for k, v in (
        line[2:].split(": ") for line in out.splitlines() if line.startswith("# ")
        and ":" in line and line[2:].split(":")[0] in
        ("p_max", "p_min", "v_operational", "visibility_analytic")
    )}
    assert float(footer["v_operational"]) == pytest.approx(1.0, abs=1e-12)
    assert float(footer["visibility_analytic"]) == pytest.approx(1.0, abs=1e-12)


def test_mz_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "mz", "--bloch", "0.6,0,0.8", "--phases", "8")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 8
    assert payload["v_operational"] <= payload["visibility_analytic"] + 1e-9


def test_mz_rejects_tiny_grid(capsys):
    code, _, err = run(capsys, "mz", "--bloch", "0,0,1", "--phases", "7")
    assert code == 1
    assert err == "mzduality: error: --phases must be at least 8, got 7\n"


@pytest.mark.parametrize("phases", ["-1", "0", "3"])
def test_mz_names_its_flag_for_a_small_phase_count(capsys, phases):
    # as verify names --n and qscan --steps, not the library's n_phases
    assert run(capsys, "mz", "--bloch", "0,0,1", "--phases", phases) == (
        1, "", f"mzduality: error: --phases must be at least 8, got {phases}\n"
    )


def test_verify_all_agree(capsys):
    code, out, _ = run(capsys, "verify", "--n", "60", "--seed", "3")
    assert code == 0
    vals = csv_values(out)
    assert vals["checked"] == "60"
    assert vals["agreed"] == "60"
    assert vals["all_hold"] == "true"


def test_verify_byte_identical_repeats(capsys):
    _, first, _ = run(capsys, "verify", "--seed", "42", "--n", "200")
    _, second, _ = run(capsys, "verify", "--seed", "42", "--n", "200")
    assert first == second


def test_verify_seed_changes_sample(capsys):
    _, a, _ = run(capsys, "verify", "--seed", "1", "--n", "50")
    _, b, _ = run(capsys, "verify", "--seed", "2", "--n", "50")
    assert a != b  # the meta echo and, in general, violations differ


def test_global_flags_accepted_before_or_after_subcommand(capsys):
    _, before, _ = run(capsys, "--seed", "5", "verify", "--n", "20")
    _, after, _ = run(capsys, "verify", "--seed", "5", "--n", "20")
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("# command")]
    assert strip(before) == strip(after)


def test_verify_agrees_on_saturation_at_a_coarse_eps_gap(capsys):
    # every leg of the audit compares a gap on the duality scale with
    # eps_gap, so even a coarse eps_gap saturates all three together
    code, out, _ = run(
        capsys, "verify", "--n", "40", "--seed", "0", "--tolerance", "eps_gap=0.3"
    )
    assert code == 0
    vals = csv_values(out)
    assert vals["all_hold"] == "true"
    assert vals["agreed"] == "40"
    assert "# violation index=" not in out


def test_verify_near_pure_mixed_states_agree(capsys):
    # row 15152 has 1 - |s|^2 = 2.1e-9: the duality and SR gaps lie above
    # eps_gap, and so must the LP gap once it is on the duality scale
    code, out, _ = run(capsys, "--seed", "2499591296", "verify", "--n", "20000")
    assert code == 0
    assert csv_values(out)["agreed"] == "20000"


@pytest.mark.parametrize("seed", ["3316931508", "3291212083"])
def test_verify_pure_states_near_the_equator_agree(capsys, seed):
    # each sample holds a pure state with P below 1e-7, where the last-ulp
    # norm error of the stored state alone pushes the LP gap past eps_gap
    code, out, _ = run(capsys, "--seed", seed, "verify", "--n", "20000")
    assert code == 0
    assert csv_values(out)["agreed"] == "20000"


def test_verify_applies_eps_pos(capsys):
    # some sampled pure rows round to norm 1 + 2^-52, which only a
    # positive slack lets through
    code, _, err = run(capsys, "--tolerance", "eps_pos=1e-300", "verify", "--n", "2000")
    assert code == 1
    assert err.startswith("mzduality: error: --tolerance: Bloch norm exceeds 1")
    assert len(err.splitlines()) == 1


def test_verify_rows_follow_bloch_vector_rule():
    # with the samples, a norm of 1 + 2^-52, which rounding often gives, and
    # one of exactly 1 + EPS_POS, the largest that BlochVector takes
    edges = [[1.0 + 2.0**-52, 0.0, 0.0], [0.0, 0.0, 1.0 + EPS_POS]]
    rows = np.vstack([random_pure_bloch(50, 3) * (1.0 + 1e-10), random_mixed_bloch(50, 4), edges])
    want = [BlochVector(*map(float, r)).as_tuple() for r in rows]
    got = [tuple(r) for r in _checked_rows(rows.copy(), EPS_POS).tolist()]
    assert got == want


def test_verify_rejects_zero_states(capsys):
    code, _, err = run(capsys, "verify", "--n", "0")
    assert code == 1


def reference_verify(ns):
    """The whole-array `verify`: every state sampled, checked and audited at once.

    Its samplers are held to one whole draw by test_entropic's
    TestArrayPathsKeepBits::test_samplers.
    """
    if ns.n < 1:
        raise ValueError(f"--n must be at least 1, got {ns.n}")
    n_pure = ns.n // 2
    rows = [random_pure_bloch(n_pure, ns.seed), random_mixed_bloch(ns.n - n_pure, ns.seed + 1)]
    # the norm rule's refusal names --tolerance, as the command's does
    s = cli._flagged("--tolerance", _checked_rows, np.vstack(rows), ns.tolerance["eps_pos"])
    audit = pv_audit(np.abs(s[:, 2]), np.hypot(s[:, 0], s[:, 1]), ns.tolerance["eps_gap"])
    bad = np.flatnonzero(~(audit.all_hold & audit.all_agree_on_saturation)).tolist()
    violations = [
        (
            i,
            f"duality_gap={cli._fmt(audit.duality.gap[i])}"
            f" sr_gap={cli._fmt(audit.sr.gap[i])} lp_gap={cli._fmt(audit.lp.gap[i])}",
        )
        for i in bad
    ]
    agreed = ns.n - len(bad)
    ok = not bad
    fields = {
        "checked": ns.n,
        "agreed": agreed,
        "violations": [{"index": i, "detail": d} for i, d in violations],
        "all_hold": ok,
    }
    lines = ["quantity,value", f"checked,{ns.n}", f"agreed,{agreed}", f"all_hold,{cli._fmt_bool(ok)}"]
    lines += [f"# violation index={i} {d}" for i, d in violations]
    return 0 if ok else 2, fields, [_reference_csv(lines)]


def run_naming_bad_rows(capsys, monkeypatch, argv):
    """run(), plus the components of each BlochVector that the norm rule refused."""
    refused = []
    real = qubit.BlochVector

    def spy(*components, **kwargs):
        try:
            return real(*components, **kwargs)
        except ValueError:
            refused.append(components)
            raise

    with monkeypatch.context() as patched:
        patched.setattr(qubit, "BlochVector", spy)
        return (*run(capsys, *argv), refused)


# around the edges of verify's blocks; at 20 000 both halves take two blocks
VERIFY_SIZES = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1,
                20_000]


@pytest.mark.parametrize("tolerance", [None, "eps_gap=1e-18", "eps_pos=1e-300"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", VERIFY_SIZES)
def test_blocked_verify_keeps_the_whole_array_bytes(capsys, monkeypatch, n, fmt, tolerance):
    # eps_gap=1e-18 forces violations across blocks; --tolerance refuses an
    # eps_gap that small, so it is set as the default, which is not checked.
    # eps_pos=1e-300 refuses the first pure row that rounds to norm 1 + 2^-52,
    # which must be the same row in both
    argv = ["--format", fmt, "--seed", "11", "verify", "--n", str(n)]
    if tolerance == "eps_gap=1e-18":
        monkeypatch.setitem(cli.TOLERANCE_DEFAULTS, "eps_gap", 1e-18)
    elif tolerance:
        argv += ["--tolerance", tolerance]
    got = run_naming_bad_rows(capsys, monkeypatch, argv)
    spec = cli._COMMANDS["verify"]
    monkeypatch.setitem(cli._COMMANDS, "verify", (reference_verify, *spec[1:]))
    want = run_naming_bad_rows(capsys, monkeypatch, argv)
    assert got == want
    if n == 20_000:  # a size where each tolerance shows
        assert got[0] == {None: 0, "eps_gap=1e-18": 2, "eps_pos=1e-300": 1}[tolerance]
        assert len(got[3]) == (tolerance == "eps_pos=1e-300")


def test_verify_memory_is_constant_in_n(capsys):
    # one block of rows and audit arrays, about 2 MB, whatever --n; the
    # whole-array audit peaked at 189 MB
    tracemalloc.start()
    try:
        code = main(["verify", "--n", str(10**6)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, csv_values(capsys.readouterr().out)["agreed"]) == (0, str(10**6))
    assert peak < 8e6


def test_qstar_command(capsys):
    code, out, _ = run(capsys, "qstar", "--tol", "1e-10")
    assert code == 0
    vals = csv_values(out)
    assert float(vals["q_star"]) == pytest.approx(Q_STAR, abs=1e-8)
    assert abs(float(vals["residual"])) < 1e-9


def test_qstar_bad_tolerance(capsys):
    code, _, _ = run(capsys, "qstar", "--tol", "1e-20")
    assert code == 1


def test_qscan_regimes(capsys):
    code, out, _ = run(capsys, "qscan", "--qmin", "0.5", "--qmax", "2.0", "--steps", "4")
    assert code == 0
    rows = [
        line.split(",")
        for line in out.splitlines()
        if line and not line.startswith("#") and not line.startswith("q,")
    ]
    assert [r[0] for r in rows] == ["0.5", "1", "1.5", "2"]
    assert [r[1] for r in rows] == ["I", "I", "III", "III"]
    assert float(rows[0][2]) == pytest.approx(LN2, abs=1e-9)
    assert rows[0][3].count(":") == 2  # two boundary minimizers


def test_qscan_json_structure(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "qscan", "--qmin", "2", "--qmax", "2", "--steps", "1"
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["regime"] == "III"
    assert len(row["minimizers"]) == 1
    v, p = row["minimizers"][0]
    assert (v, p) == pytest.approx((2**-0.5, 2**-0.5), abs=1e-6)


def test_qscan_validation(capsys):
    code, _, err = run(capsys, "qscan", "--qmin", "0.5", "--qmax", "2.5")
    assert code == 1
    assert "concavity" in err
    code, _, _ = run(capsys, "qscan", "--qmin", "0", "--qmax", "1")
    assert code == 1


def reference_qscan(ns):
    """The whole-table qscan: every row computed, then returned as one list or text."""
    if ns.steps == 1:
        qs = [ns.qmin]
    else:
        step = (ns.qmax - ns.qmin) / (ns.steps - 1)
        qs = [ns.qmin + i * step for i in range(ns.steps)]
        qs[-1] = ns.qmax
    rows = [(q, classify_regime(q, ns.tolerance["band_eps"]), minimize_entropy_sum(q)) for q in qs]
    table = [
        {
            "q": q,
            "regime": regime,
            "min_value": res.min_value,
            "minimizers": [[v, p] for v, p in res.minimizers],
        }
        for q, regime, res in rows
    ]
    lines = ["q,regime,min_value,minimizers"]
    for q, regime, res in rows:
        mins = ";".join(f"{cli._fmt(v)}:{cli._fmt(p)}" for v, p in res.minimizers)
        lines.append(f"{cli._fmt(q)},{regime},{cli._fmt(res.min_value)},{mins}")
    return 0, {"rows": table}, [_reference_csv(lines)]


# one row, and row counts around the written blocks of _ROW_BLOCK rows
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "args",
    [
        ["--qmin", "2", "--qmax", "2", "--steps", "1"],
        ["--qmin", "0.3", "--qmax", "1.9", "--steps", "2"],
        ["--steps", str(_ROW_BLOCK - 1)],
        ["--steps", str(_ROW_BLOCK)],
        ["--qmin", "1.4", "--qmax", "1.5", "--steps", str(_ROW_BLOCK + 1)],
        ["--tolerance", "band_eps=0.01", "--steps", str(2 * _ROW_BLOCK + 1)],
        ["--qmin", repr(Q_STAR), "--qmax", repr(Q_STAR), "--steps", "1"],
        ["--qmin", "1.9", "--qmax", "2", "--steps", "3"],
    ],
    ids=["one", "two", "block-1", "block", "block+1", "2block+1", "regime-II", "regime-III"],
)
def test_streamed_qscan_keeps_the_whole_table_bytes(capsys, monkeypatch, args, fmt):
    argv = ["--format", fmt, "qscan", *args]
    got = run(capsys, *argv)
    monkeypatch.setitem(cli._COMMANDS, "qscan", (reference_qscan, *cli._COMMANDS["qscan"][1:]))
    want = run(capsys, *argv)
    assert got == want
    assert got[1].count("regime") == (1 if fmt == "csv" else int(argv[-1]))


@pytest.mark.parametrize(("fmt", "bound"), [("csv", 1.5e6), ("json", 3e6)])
def test_qscan_memory_is_constant_in_steps(tmp_path, fmt, bound):
    # one block of rows and their text: about 0.6 MB (CSV) and 1.5 MB
    # (JSON); the whole table peaked at 7.4 MB and 23.3 MB
    out = tmp_path / f"qscan.{fmt}"
    tracemalloc.start()
    try:
        code = main(["--format", fmt, "--out", str(out), "qscan", "--steps", str(10**4)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.read_text().count("regime") == (1 if fmt == "csv" else 10**4)
    assert peak < bound


def test_mz_json_memory_holds_no_column_strings(tmp_path):
    # the rows are spelled a block at a time from the scan's floats: about
    # 10 MB, nearly all the scan's three tuples; the three columns of N
    # strings peaked at 34 MB
    out = tmp_path / "mz.json"
    tracemalloc.start()
    try:
        code = main(["--format", "json", "--out", str(out), "mz", "--bloch", "0.6,0,0.8",
                     "--phases", str(10**5)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.read_text().count('"phi"') == 10**5
    assert peak < 16e6


def test_contour_csv(capsys):
    code, out, _ = run(capsys, "contour", "--q", "1", "--n", "32")
    assert code == 0
    assert "# q: 1" in out
    assert "# n: 32" in out
    assert "# constraint: P^2+V^2=1" in out
    rows = [
        line.split(",")
        for line in out.splitlines()
        if line and not line.startswith("#") and not line.startswith("v,")
    ]
    assert len(rows) == 32 * 32
    assert float(rows[0][2]) == pytest.approx(2.0 * LN2, abs=1e-12)
    assert float(rows[-1][2]) == 0.0


def test_contour_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "contour", "--q", "2", "--n", "32")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 32
    assert payload["constraint"] == "P^2+V^2=1"
    assert len(payload["values"]) == 32
    assert payload["values"][5][9] == payload["values"][9][5]


def test_contour_at_large_index(capsys):
    # p^q + m^q underflows to 0 here; the value at (v, p) = (0, 1/31) is
    # ln 2 + H_2000(1/31), from 60-digit decimal arithmetic
    code, out, err = run(capsys, "contour", "--q", "2000", "--n", "32")
    assert code == 0
    assert err == ""
    rows = [line.split(",") for line in out.splitlines() if line[0] not in "#v"]
    cells = {(v, p): value for v, p, value in rows}
    assert len(cells) == 32 * 32
    assert all(math.isfinite(float(v)) for v in cells.values())
    assert abs(float(cells["0", "0.032258064516129031"]) - 1.3548765274787697) <= 4e-15


def test_contour_validation(capsys):
    code, _, _ = run(capsys, "contour", "--q", "1", "--n", "16")
    assert code == 1


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "--out", str(target), "mz", "--bloch", "0,0,1", "--phases", "8")
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("# tool: mzduality")
    assert text.endswith("\n")


def test_out_to_missing_directory_is_a_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    for argv in (
        ["qstar"],
        ["contour", "--n", "40"],
        ["--format", "json", "contour", "--n", "40"],
        ["mz", "--bloch", "0,0,1"],
    ):
        code, out, err = run(capsys, "--out", str(target), *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("mzduality: error:")
        assert len(err.splitlines()) == 1
        assert not target.exists()
        assert not target.parent.exists()


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; the package and CLI must not need it
    probe = "import sys, mzduality, mzduality.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


NUMPY_PROBE = """
import contextlib, io, json, sys
import mzduality, mzduality.cli as cli
seen = {"import": [0, "numpy" in sys.modules]}
scalar = (["state", "--bloch", "0.6,0,0.8"], ["mz", "--bloch", "0.6,0,0.8"], ["qscan"], ["qstar"])
for argv in [*scalar, ["contour"], ["verify"]]:
    for fmt in ("csv", "json"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--format", fmt, *argv])
        seen[fmt + " " + argv[0]] = [code, "numpy" in sys.modules]
print(json.dumps(seen))
"""


def test_scalar_commands_load_no_numpy():
    # state, mz, qscan, qstar and contour are closed forms over floats;
    # verify, run last, is the command that needs arrays
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        env=package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    seen = json.loads(result.stdout)
    want = {"import": [0, False]}
    for command in ("state", "mz", "qscan", "qstar", "contour", "verify"):
        for fmt in ("csv", "json"):
            want[f"{fmt} {command}"] = [0, command == "verify"]
    assert seen == want


STARTUP_PROBE = """
import contextlib, io, sys
import mzduality, mzduality.cli as cli
def loaded():
    return tuple(m in sys.modules for m in ("dataclasses", "json", "argparse", "gettext", "locale"))
seen = {"import": (0, *loaded())}
commands = (["state", "--bloch", "0.6,0,0.8"], ["mz", "--bloch", "0.6,0,0.8"], ["verify"],
            ["qscan"], ["qstar"], ["contour"])
for fmt in ("csv", "json"):  # every CSV run comes before the first JSON run
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--format", fmt, *argv])
        seen[fmt + " " + argv[0]] = (code, *loaded())
print(repr(seen))
"""


def test_commands_load_no_dataclasses_and_csv_loads_no_json():
    # each costs start-up on every call: dataclasses pulls in inspect and
    # ast, json is needed only to write JSON, and argparse brings gettext,
    # whose first message lookup imports locale; the probe reports by repr
    # so that it loads no json itself
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE],
        env=package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    seen = ast.literal_eval(result.stdout)
    want = {"import": (0, False, False, False, False, False)}
    for fmt in ("csv", "json"):
        for command in ("state", "mz", "verify", "qscan", "qstar", "contour"):
            want[f"{fmt} {command}"] = (0, False, fmt == "json", False, False, False)
    assert seen == want


BARE_PROBE = """
import io, sys
import mzduality.cli as cli
def loaded():
    names = ("typing", "collections.abc", "inspect", "numpy", "pathlib", "re", "contextlib", "os")
    return [m for m in names if m in sys.modules]
seen = {"import": (0, loaded())}
commands = (["state", "--bloch", "0.6,0,0.8"], ["mz", "--bloch", "0.6,0,0.8"], ["qscan"], ["qstar"],
            ["contour"])
for fmt in ("csv", "json"):  # every CSV run comes before the first JSON run
    for argv in commands:
        sys.stdout = io.StringIO()  # contextlib.redirect_stdout would load contextlib
        try:
            code = cli.main(["--format", fmt, *argv])
        finally:
            sys.stdout = sys.__stdout__
        seen[fmt + " " + argv[0]] = (code, loaded())
print(repr(seen))
"""


def test_scalar_commands_on_a_bare_interpreter_load_no_typing():
    # -S skips the site hook, which may preload typing, pathlib, re,
    # contextlib or os and hide an import, and leaves site-packages off
    # sys.path, so numpy cannot load either; json imports re, so only the
    # CSV runs can show it absent
    src_root = str(Path(mzduality.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-S", "-c", BARE_PROBE],
        env=dict(os.environ, PYTHONPATH=src_root),
        capture_output=True,
        text=True,
        check=True,
    )
    seen = ast.literal_eval(result.stdout)
    want = {"import": (0, [])}
    for fmt in ("csv", "json"):
        for command in ("state", "mz", "qscan", "qstar", "contour"):
            want[f"{fmt} {command}"] = (0, ["re"] if fmt == "json" else [])
    assert seen == want


def test_bad_seed_rejected(capsys):
    code, _, _ = run(capsys, "--seed", "-1", "verify", "--n", "5")
    assert code == 1


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1


def test_version_flag(capsys):
    for flag in ("--version", "--vers"):
        assert run(capsys, flag) == (0, f"mzduality {mzduality.__version__}\n", "")


def test_meta_block_lists_tolerances(capsys):
    _, out, _ = run(capsys, "state", "--bloch", "0,0,0")
    tol_line = next(l for l in out.splitlines() if l.startswith("# tolerances:"))
    names = [item.partition("=")[0] for item in tol_line.split(": ", 1)[1].split()]
    assert names == ["band_eps", "eps_gap", "eps_pos"]


def test_unapplied_tolerance_names_are_rejected(capsys):
    # eps_pure, eps_unit and eps_norm were recorded but never applied
    code, out, err = run(capsys, "--tolerance", "eps_pure=0.5", "state", "--bloch", "0,0,0")
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("mzduality: error:")]
    assert errors == [
        "mzduality: error: unknown tolerance 'eps_pure'; known names: band_eps, eps_gap, eps_pos"
    ]


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ARGV = {
    "state": ["state", "--bloch", "0.6,0,0.8"],
    "mz": ["mz", "--bloch", "0.6,0,0.8"],
    "verify": ["verify", "--n", "2000"],
    "qscan": ["qscan"],
    "qstar": ["qstar"],
    "contour": ["contour", "--n", "33"],
    "contour_q15": ["contour", "--q", "1.5", "--n", "65"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_output_matches_golden_bytes(capsys, name, fmt):
    # regenerate a file with
    #   mzduality --format FMT <GOLDEN_ARGV[name]> > tests/golden/NAME.FMT
    # only when a change to the output is deliberate
    code, out, _ = run(capsys, "--format", fmt, *GOLDEN_ARGV[name])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_output_bytes_do_not_depend_on_numpy_cpu_features(name, fmt):
    # NPY_DISABLE_CPU_FEATURES=X86_V4 makes numpy take the loops that a CPU
    # without AVX-512 takes; on a host without X86_V4 the two runs are alike.
    # Only stdout is compared: numpy may warn about the setting on stderr.
    argv = [sys.executable, "-m", "mzduality.cli", "--format", fmt, *GOLDEN_ARGV[name]]
    outs = [
        subprocess.run(argv, env=env, capture_output=True, check=True).stdout
        for env in (package_env(), dict(package_env(), NPY_DISABLE_CPU_FEATURES="X86_V4"))
    ]
    assert outs[0] == outs[1]


@pytest.mark.parametrize(("q", "n"), [("0.3", 47), ("1.5", 33), ("2000", 32)])
def test_contour_cells_have_the_bits_of_entropy_sum(capsys, q, n):
    code, out, _ = run(capsys, "contour", "--q", q, "--n", str(n))
    assert code == 0
    rows = out.split("v,p,value\n", 1)[1].splitlines()
    assert len(rows) == n * n
    for row in rows:
        v, p, value = map(float, row.split(","))
        assert value == entropy_sum(p, v, float(q))


HUGE_CONTOUR_PROBE = """
import contextlib, io, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import mzduality.cli as cli
seen = []
for n in (2**31, 2**32, 2**63 - 1, 10**30):
    for fmt in ("csv", "json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--format", fmt, "contour", "--n", str(n)])
        seen.append((n, code, out.getvalue(), err.getvalue()))
print(repr(seen))
"""


def huge_contour_error(n: int) -> str:
    return f"mzduality: error: --n {n}: no memory for the {n} x {n} = {n * n} cells\n"


def test_huge_contour_side_is_a_one_line_error():
    # the n * n cells are taken before any O(n) work, so each size fails at
    # once; the 1 GiB address-space limit bounds the child should that order
    # ever break (the next test checks the order itself)
    result = subprocess.run(
        [sys.executable, "-c", HUGE_CONTOUR_PROBE],
        env=package_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    sizes = (2**31, 2**32, 2**63 - 1, 10**30)
    want = [(n, 1, "", huge_contour_error(n)) for n in sizes for _ in ("csv", "json")]
    assert ast.literal_eval(result.stdout) == want


HUGE_MZ_PROBE = """
import contextlib, io, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import mzduality.cli as cli
from mzduality import QubitState, fringe_scan
seen = []
for n in (10**22, 2**62):
    try:
        fringe_scan(QubitState.from_bloch(0.0, 0.0, 1.0), n)
    except MemoryError as exc:
        seen.append(str(exc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["mz", "--bloch", "0,0,1", "--phases", str(n)])
    seen.append((code, out.getvalue(), err.getvalue()))
print(repr(seen))
"""


def test_huge_phase_count_is_a_one_line_error():
    # fringe_scan takes its n_phases slots before any O(n) work, so both
    # counts fail at once: 10**22 past a list's index range, 2**62 past its
    # byte size. A scan that filled memory first would end in a bare
    # MemoryError under the 1 GiB address-space limit, not in this message
    result = subprocess.run(
        [sys.executable, "-c", HUGE_MZ_PROBE],
        env=package_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    want = []
    for n in (10**22, 2**62):
        want.append(f"n_phases {n}: no memory for {n} phases")
        want.append((1, "", f"mzduality: error: --phases {n}: no memory for {n} phases\n"))
    assert ast.literal_eval(result.stdout) == want


@pytest.mark.parametrize("n", [2**31, 2**32])
def test_contour_takes_its_cells_before_the_entropies(capsys, monkeypatch, n):
    # 2**31 squared passes the size check of a list and fails its allocation
    # at once (MemoryError), 2**32 squared fails the check (OverflowError)
    def never(*args):
        raise AssertionError("entropies computed before the cells were taken")

    monkeypatch.setattr(cli, "_grid_entropies", never)
    code, out, err = run(capsys, "contour", "--n", str(n))
    assert (code, out) == (1, "")
    assert err == huge_contour_error(n)


@pytest.mark.parametrize(
    ("target", "argv"),
    [
        ("_grid_cells", ["contour", "--n", "3000000"]),
        ("_grid_cells", ["--format", "json", "contour", "--n", "3000000"]),
        ("_pure_blocks", ["verify", "--n", "100000000000"]),
    ],
)
@pytest.mark.parametrize(
    ("exc", "message"),
    [
        (MemoryError("Unable to allocate 65.5 TiB"), "Unable to allocate 65.5 TiB"),
        (MemoryError(), "MemoryError"),
    ],
    ids=["with-message", "bare"],
)
def test_out_of_memory_is_a_one_line_error(capsys, monkeypatch, target, argv, exc, message):
    # the kernel is replaced, so nothing huge is ever allocated; should a
    # command stop calling it, the row check fails the test at once instead
    # of letting verify stream its 10^11 states
    def refuse(*args):
        raise exc

    def unpatched(*args):
        raise AssertionError(f"the command ran without calling {target}")

    monkeypatch.setattr(cli, target, refuse)
    monkeypatch.setattr(cli, "_checked_rows", unpatched)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    # the contour cells are taken for --n, so their refusal names it
    flag = "--n: " if target == "_grid_cells" else ""
    assert err == f"mzduality: error: {flag}{message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--tolerance", "eps_pure=0.5", "state", "--bloch", "0,0,0"],
        ["frobnicate"],
        [],
        ["mz", "--bloch", "0,0,1", "--phases", "many"],
    ],
    ids=["unknown-tolerance", "unknown-command", "no-arguments", "bad-int"],
)
def test_usage_error_is_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("mzduality: error: ")


# each command's default argv, with the one source option state and mz need
COMMAND_ARGV = {
    name: [name, *(["--bloch", "0.6,0,0.8"] if name in ("state", "mz") else [])]
    for name in cli._COMMANDS
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_command_returns_its_output_and_only_main_writes(capsys, command, fmt):
    argv = ["--format", fmt, *COMMAND_ARGV[command]]
    run_command, ns = cli._parse(argv)
    code, fields, csv = run_command(ns)
    assert type(code) is int and type(fields) is dict and "meta" not in fields
    # the two bodies may read one row generator, so only the format's own is taken
    if fmt == "json":
        want = "".join(_json_chunks({"meta": _meta_dict(ns, argv), **fields}))
    else:
        want = cli._lines(_meta_lines(ns, argv)) + "".join(csv)
    assert capsys.readouterr() == ("", "")  # taking the body writes nothing either
    assert run(capsys, *argv) == (code, want, "")


# one refused value per command; each is found before anything is written
REFUSED = {
    "state": ["state", "--bloch", "2,0,0"],
    "mz": ["mz", "--bloch", "0,0,1", "--phases", "7"],
    "verify": ["verify", "--n", "0"],
    "qscan": ["qscan", "--qmax", "2.5"],
    "qstar": ["qstar", "--tol", "1e-20"],
    "contour": ["contour", "--n", "16"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_refused_value_opens_no_out_file(tmp_path, capsys, command, fmt):
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, "--format", fmt, "--out", str(target), *REFUSED[command])
    assert (code, out) == (1, "")
    assert err.startswith("mzduality: error: ") and len(err.splitlines()) == 1
    assert not target.exists()


@pytest.mark.parametrize("value", ["5e-324", "1e-18", "1e-16", "1e-15", "9.9999999999999e-15"])
def test_eps_gap_below_the_floor_is_refused(tmp_path, capsys, value):
    # there a pure state's rounding noise falls on both sides of eps_gap:
    # verify --n 200000 exited 2 at 1e-16 on every seed and at 1e-15 on some
    target = tmp_path / "out.txt"
    argv = ["--tolerance", f"eps_gap={value}", "--out", str(target), "verify", "--n", "20"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"mzduality: error: tolerance eps_gap must be at least 1e-14, got '{value}'\n"
    assert not target.exists()


@pytest.mark.parametrize("seed", range(8))
def test_verify_agrees_at_the_eps_gap_floor(capsys, seed):
    argv = ["--seed", str(seed), "--tolerance", f"eps_gap={cli.EPS_GAP_FLOOR!r}", "verify"]
    code, out, _ = run(capsys, *argv, "--n", "200000")
    assert code == 0
    assert csv_values(out)["agreed"] == "200000"


# Reference serializers: the per-cell formulas the CLI used before it
# streamed its tables, applied to the same computed quantities.

def _reference_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _reference_csv(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _reference_contour(argv: list[str], fmt: str, q: float, n: int) -> str:
    grid = contour_grid(q, n)
    if fmt == "json":
        return _reference_json({
            "meta": _meta_dict(cli._parse(argv)[1], argv),
            "q": grid.q,
            "n": grid.n,
            "constraint": grid.constraint,
            "axis": [float(a) for a in grid.axis],
            "values": [[float(x) for x in row] for row in grid.values],
        })
    lines = _meta_lines(cli._parse(argv)[1], argv) + [
        f"# q: {_fmt17(grid.q)}",
        f"# n: {grid.n}",
        f"# constraint: {grid.constraint}",
        "v,p,value",
    ]
    axis = [_fmt17(a) for a in grid.axis]
    for vi, row in zip(axis, grid.values):
        lines += [f"{vi},{aj},{_fmt17(x)}" for aj, x in zip(axis, row)]
    return _reference_csv(lines)


def _reference_mz(argv: list[str], fmt: str, bloch: str, phases: int) -> str:
    inside = apply_beam_splitter(QubitState.from_bloch(*map(float, bloch.split(","))))
    scan = fringe_scan(inside, phases)
    rows = list(zip(scan.phases, scan.p_d1, scan.p_d2))
    if fmt == "json":
        return _reference_json({
            "meta": _meta_dict(cli._parse(argv)[1], argv),
            "rows": [{"phi": phi, "p_d1": p1, "p_d2": p2} for phi, p1, p2 in rows],
            "p_max": scan.p_max,
            "p_min": scan.p_min,
            "v_operational": scan.v_operational,
            "visibility_analytic": visibility(inside),
        })
    lines = _meta_lines(cli._parse(argv)[1], argv) + ["phi,p_d1,p_d2"]
    lines += [f"{_fmt17(phi)},{_fmt17(p1)},{_fmt17(p2)}" for phi, p1, p2 in rows]
    lines += [
        f"# p_max: {_fmt17(scan.p_max)}",
        f"# p_min: {_fmt17(scan.p_min)}",
        f"# v_operational: {_fmt17(scan.v_operational)}",
        f"# visibility_analytic: {_fmt17(visibility(inside))}",
    ]
    return _reference_csv(lines)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("q", ["0.3", "1", "2"])
@pytest.mark.parametrize("n", [32, 47, 100])
def test_contour_bytes_match_reference_serializer(capsys, fmt, q, n):
    argv = ["--format", fmt, "contour", "--q", q, "--n", str(n)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    # bytes, so that a failure reports the first differing offset, not a text diff
    assert out.encode("utf-8") == _reference_contour(argv, fmt, float(q), n).encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bloch", ["0,0,1", "0.6,0,0.8", "-0.3,0.2,-0.1"])
@pytest.mark.parametrize("phases", [8, 13, 997, 1023, 1024, 1025, 2049])
def test_mz_bytes_match_reference_serializer(capsys, fmt, bloch, phases):
    argv = ["--format", fmt, "mz", f"--bloch={bloch}", "--phases", str(phases)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == _reference_mz(argv, fmt, bloch, phases).encode("utf-8")


EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-7, 0.1]


def test_csv_row_emitter_matches_format():
    xs = EDGE_FLOATS + [-1e-300, 1.0, 2.0 / 3.0, math.inf, -math.inf, math.nan]
    assert _spelled("%.17g", xs) == [format(x, ".17g") for x in xs]
    assert _spelled("%.17g", EDGE_FLOATS) == [
        "-0", "4.9406564584124654e-324", "10000000000000000", "9.9999999999999995e-08",
        "0.10000000000000001",
    ]
    assert _spelled("%.17g", []) == []


def random_finite_doubles(n: int, seed: int) -> list[float]:
    """Doubles from uniform random bit patterns, so every exponent and subnormals show."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)
    xs = bits.view(np.float64)
    return xs[np.isfinite(xs)].tolist()


def test_json_row_emitter_matches_json_dumps():
    xs = EDGE_FLOATS + [-1e-300, 1.0, 2.0 / 3.0] + random_finite_doubles(10**5, 23)
    assert len(xs) > 99_000
    assert _spelled("%r", xs) == [json.dumps(x) for x in xs]
    assert _spelled("%r", EDGE_FLOATS) == ["-0.0", "5e-324", "1e+16", "1e-07", "0.1"]
    assert _spelled("%r", []) == []


def _refuse_constant(name: str):
    raise AssertionError(f"a JSON table holds {name}")


# the extreme inputs of each JSON table: contour at tiny, huge and near-1
# indices, mz on a state renormalized to norm 1, qscan down to 1e-300 and at q*
JSON_TABLES = [
    *(["contour", "--q", q, "--n", "33"]
      for q in ("1", "1.5", "0.3", "2", "1e-300", "1e300", "1.0000001")),
    ["mz", "--bloch", "0.7512032581921485,-0.6600709544295223,0", "--phases", "1025"],
    ["qscan", "--qmin", "1e-300", "--qmax", "2", "--steps", "300"],
    ["qscan", "--qmin", repr(Q_STAR), "--qmax", repr(Q_STAR), "--steps", "1"],
]


def test_json_tables_hold_only_finite_floats(capsys):
    # "%r" is json's spelling only for a finite float: it writes inf and
    # nan, which json writes as Infinity and NaN
    non_finite = [math.inf, -math.inf, math.nan]
    assert _spelled("%r", non_finite) == ["inf", "-inf", "nan"]
    assert [json.dumps(x) for x in non_finite] == ["Infinity", "-Infinity", "NaN"]
    for argv in JSON_TABLES:
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == 0
        payload = json.loads(out, parse_constant=_refuse_constant)
        assert json.dumps(payload, indent=2) + "\n" == out
        if argv[0] == "qscan" and argv[2] == repr(Q_STAR):
            assert [(r["regime"], len(r["minimizers"])) for r in payload["rows"]] == [("II", 3)]


def test_symmetric_rows_match_per_cell_formatting():
    h = list(EDGE_FLOATS)
    values = np.add.outer(h, h)
    assert np.array_equal(values, values.T)
    for fmt, fmt_cell in (("%.17g", lambda x: format(x, ".17g")), ("%r", json.dumps)):
        rows = list(_symmetric_rows(h, fmt, [None] * len(h) ** 2))
        assert rows == [[fmt_cell(x) for x in row] for row in values.tolist()]


def test_json_chunks_match_json_dumps():
    payload = {
        "meta": {"a": [1, "x"], "b": {}, "c": []},
        "empty": _JsonArray([]),
        "floats": _JsonArray(_spelled("%r", EDGE_FLOATS)),
        "n": 3,
    }
    plain = dict(payload, empty=[], floats=EDGE_FLOATS)
    assert "".join(_json_chunks(payload)) == _reference_json(plain)


@pytest.mark.parametrize("sep", ["", _JSON_ITEM_SEP], ids=["csv", "json"])
@pytest.mark.parametrize(
    "template, row",
    [("%s", lambda i: (f"[{i}]",)), ("%.17g,%s,%.17g\n", lambda i: (i / 7, f"r{i}", -i))],
    ids=["one-field", "three-field"],
)
@pytest.mark.parametrize(
    "n", [0, 1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1]
)
def test_table_formats_the_rows_in_blocks(template, row, sep, n):
    rows = [row(i) for i in range(n)]
    chunks = list(_table(template, sep, iter(rows)))
    # the caller puts sep between the chunks, as _json_chunks does between array items
    assert sep.join(chunks) == sep.join(template % r for r in rows)
    assert len(chunks) == -(-n // _ROW_BLOCK)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [["contour", "--n", "47", "--q", "0.3"], ["mz", "--bloch", "0.6,0,0.8", "--phases", "13"]],
    ids=["contour", "mz"],
)
def test_out_bytes_equal_stdout_bytes(tmp_path, capsys, fmt, argv):
    argv = ["--format", fmt, *argv]
    target = tmp_path / f"out.{fmt}"
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    # the echoed command line is the only difference
    echoed = " ".join(argv)
    want = stdout.replace(echoed, f"{echoed} --out {target}", 1)
    assert target.read_bytes() == want.encode("utf-8")
