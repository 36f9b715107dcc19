"""Command-line interface: formats, determinism, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mzduality
from mzduality import (
    LN2,
    BlochVector,
    QubitState,
    apply_beam_splitter,
    contour_grid,
    find_q_star,
    fringe_scan,
    random_mixed_bloch,
    random_pure_bloch,
    visibility,
)
from mzduality import cli
from mzduality.cli import (
    RunConfig,
    _g17,
    _json_chunks,
    _json_floats,
    _JsonArray,
    _meta_dict,
    _meta_lines,
    _symmetric_rows,
    build_parser,
    main,
)
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


def test_state_rejects_nan_component(capsys):
    code, out, err = run(capsys, "state", "--bloch", "nan,0,0")
    assert code == 1
    assert out == ""
    assert err.startswith("mzduality: error:")
    assert len(err.splitlines()) == 1


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
    assert err == f"mzduality: error: {message}\n"


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
    proc = subprocess.Popen(
        [sys.executable, "-m", "mzduality.cli", "contour"],
        env=package_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"# tool: mzduality %s\n" % mzduality.__version__.encode()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
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


@pytest.mark.parametrize("where", ["before", "after"])
def test_reused_parser_starts_each_run_from_the_defaults(capsys, where):
    assert build_parser() is build_parser()
    override = ["--tolerance", "eps_gap=0.3", "--seed", "7", "--format", "json"]
    argv = ["verify", "--n", "20"]
    first = override + argv if where == "before" else argv + override
    _, out, _ = run(capsys, *first)  # exit 2: eps_gap = 0.3 splits the saturation verdicts
    meta = json.loads(out)["meta"]
    assert (meta["seed"], meta["tolerances"]["eps_gap"]) == (7, 0.3)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[2:4] == _meta_lines(RunConfig(), argv)[2:4]


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
    assert "n_phases" in err


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


def test_verify_flags_saturation_scale_mismatch(capsys):
    # a coarse eps_gap saturates the product-form bound before the duality
    # bound on strongly mixed states, so the audit must report disagreement
    code, out, _ = run(
        capsys, "verify", "--n", "40", "--seed", "0", "--tolerance", "eps_gap=0.3"
    )
    assert code == 2
    vals = csv_values(out)
    assert vals["all_hold"] == "false"
    assert int(vals["agreed"]) < 40
    assert "# violation index=" in out


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
    assert err.startswith("mzduality: error: Bloch norm exceeds 1")
    assert len(err.splitlines()) == 1


def test_verify_rows_follow_bloch_vector_rule():
    rows = np.vstack([random_pure_bloch(50, 3) * (1.0 + 1e-10), random_mixed_bloch(50, 4)])
    want = [BlochVector(*map(float, r)).as_tuple() for r in rows]
    got = [tuple(r) for r in _checked_rows(rows.copy(), EPS_POS).tolist()]
    assert got == want


def test_verify_rejects_zero_states(capsys):
    code, _, err = run(capsys, "verify", "--n", "0")
    assert code == 1


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
for argv in [*scalar, ["verify"], ["contour"]]:
    for fmt in ("csv", "json"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--format", fmt, *argv])
        seen[fmt + " " + argv[0]] = [code, "numpy" in sys.modules]
print(json.dumps(seen))
"""


def test_scalar_commands_load_no_numpy():
    # state, mz, qscan and qstar are closed forms over floats; verify and
    # contour, run last, are the commands that need arrays
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        env=package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    seen = json.loads(result.stdout)
    want = {"import": [0, False]}
    for command in ("state", "mz", "qscan", "qstar", "verify", "contour"):
        for fmt in ("csv", "json"):
            want[f"{fmt} {command}"] = [0, command in ("verify", "contour")]
    assert seen == want


def test_bad_seed_rejected(capsys):
    code, _, _ = run(capsys, "--seed", "-1", "verify", "--n", "5")
    assert code == 1


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("mzduality ")


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


@pytest.mark.parametrize(
    ("target", "argv"),
    [
        ("contour_grid", ["contour", "--n", "3000000"]),
        ("contour_grid", ["--format", "json", "contour", "--n", "3000000"]),
        ("random_pure_bloch", ["verify", "--n", "100000000000"]),
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
    # the kernel is replaced, so nothing huge is ever allocated
    def refuse(*args):
        raise exc

    monkeypatch.setattr(cli, target, refuse)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"mzduality: error: {message}\n"


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
            "meta": _meta_dict(RunConfig(), argv),
            "q": grid.q,
            "n": grid.n,
            "constraint": grid.constraint,
            "axis": [float(a) for a in grid.axis],
            "values": [[float(x) for x in row] for row in grid.values],
        })
    lines = _meta_lines(RunConfig(), argv) + [
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
            "meta": _meta_dict(RunConfig(), argv),
            "rows": [{"phi": phi, "p_d1": p1, "p_d2": p2} for phi, p1, p2 in rows],
            "p_max": scan.p_max,
            "p_min": scan.p_min,
            "v_operational": scan.v_operational,
            "visibility_analytic": visibility(inside),
        })
    lines = _meta_lines(RunConfig(), argv) + ["phi,p_d1,p_d2"]
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
    assert _g17(xs) == [format(x, ".17g") for x in xs]
    assert _g17(EDGE_FLOATS) == [
        "-0", "4.9406564584124654e-324", "10000000000000000", "9.9999999999999995e-08",
        "0.10000000000000001",
    ]
    assert _g17([]) == []


def test_json_row_emitter_matches_json_dumps():
    xs = EDGE_FLOATS + [-1e-300, 1.0, 2.0 / 3.0, math.inf, -math.inf, math.nan]
    assert _json_floats(xs) == [json.dumps(x) for x in xs]
    assert _json_floats(EDGE_FLOATS) == ["-0.0", "5e-324", "1e+16", "1e-07", "0.1"]
    assert _json_floats([]) == []


def test_symmetric_rows_match_per_cell_formatting():
    h = np.array(EDGE_FLOATS)
    values = h[:, None] + h[None, :]
    assert np.array_equal(values, values.T)
    for fmt_row, fmt_cell in ((_g17, lambda x: format(x, ".17g")), (_json_floats, json.dumps)):
        rows = list(_symmetric_rows(values, fmt_row))
        assert rows == [[fmt_cell(x) for x in row] for row in values.tolist()]


def test_json_chunks_match_json_dumps():
    payload = {
        "meta": {"a": [1, "x"], "b": {}, "c": []},
        "empty": _JsonArray([]),
        "floats": _JsonArray(_json_floats(EDGE_FLOATS)),
        "n": 3,
    }
    plain = dict(payload, empty=[], floats=EDGE_FLOATS)
    assert "".join(_json_chunks(payload)) == _reference_json(plain)


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
