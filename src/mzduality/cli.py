"""Command-line front end.

Subcommands: state (single-state duality and uncertainty report), mz
(fringe scan through the interferometer), verify (batch audit of the
equivalent bounds on random states), qscan (constrained minima across a
range of Renyi indices), qstar (critical index), contour (entropy-sum
grid over the (V, P) square).

Output is CSV (default) or JSON, to stdout or --out, always preceded by a
metadata block recording tool version, the exact command line, the seed
and the active tolerances. Identical invocations produce byte-identical
output on the same Python, numpy and C library, on CPUs that take the
same libm variant (glibc picks its ``log``, ``pow`` or ``cos`` by CPU
features). The JSON text is exactly ``json.dumps(payload, indent=2)`` plus
a newline. Every table float is spelled as "%.17g" in CSV and as its repr
in JSON ("%r" in a template), which is json's spelling of a finite float,
the only kind a table holds. The mz and qscan tables are formatted and
written in blocks of rows, one "%" per block; contour writes one grid row
at a time.
Each command ``cmd_x(ns)`` takes the namespace of every parsed option,
checks the ones it reads and returns ``(code, fields, csv)``: its exit
code, its JSON fields after "meta", and its CSV chunks after the metadata
lines. Only ``main`` writes: the metadata, then the body of the chosen
format, whose rows are computed as it is written. So a usage error is
raised before any output is written or any --out file exists.
The command line is read from one option table (``_COMMON`` and
``_COMMANDS``) by one loop, ``_parse``, rather than by argparse, which
would load gettext and locale at every start; ``json`` is imported only
by ``_json_chunks``, so a CSV run never loads it.
Angles are radians; floats are printed with 17 significant digits. Exit
codes: 0 success, 1 usage or validation error, or stdout closed by its
reader (nothing more is written and stderr stays empty), 2 property
violation detected by verify.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, islice
from types import SimpleNamespace

from . import __version__
from .entropic import (
    _BLOCK,
    _INV_SQRT2,
    BAND_EPS,
    LN2,
    ContourGrid,
    _check_grid_n,
    _check_grid_q,
    _grid_entropies,
    _mixed_blocks,
    _pure_blocks,
    classify_regime,
    entropy_sum,
    find_q_star,
    minimize_entropy_sum,
)
from .interferometer import apply_beam_splitter, fringe_scan, predictability, visibility
from .qubit import EPS_POS, QubitState, _check_count, _checked_rows, _slots
from .uncertainty import EPS_GAP, _pv_audit, equivalence_audit

TYPE_CHECKING = False  # PEP 781: typing itself is never imported
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator, Sequence

TOLERANCE_DEFAULTS = {
    "eps_pos": EPS_POS,
    "eps_gap": EPS_GAP,
    "band_eps": BAND_EPS,
}
_TOLERANCE_NAMES = ", ".join(sorted(TOLERANCE_DEFAULTS))
EPS_GAP_FLOOR = 1e-14  # least --tolerance eps_gap: pure-state gaps are noise of a few 1e-16

MAX_SEED = 2**64 - 1
_ROW_BLOCK = 1024  # table rows per written chunk, formatted with one "%"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _flagged(flag: str, check: Callable, *args, name: str = "", **kwargs):
    """check(*args, **kwargs), a refusal of it re-raised as a ValueError that names flag.

    name is the parameter that takes the flag's value, by default the flag
    without its dashes. A ValueError, MemoryError or OSError message that
    starts with name and a space has name replaced by flag; any other gets
    "flag: " in front.
    """
    try:
        return check(*args, **kwargs)
    except (ValueError, MemoryError, OSError) as exc:
        text, name = str(exc) or type(exc).__name__, name or flag[2:]
        if text.startswith(name + " "):
            raise ValueError(flag + text[len(name) :]) from None
        raise ValueError(f"{flag}: {text}") from None


def _from_triple(make: Callable, text: str, **kwargs):
    """make(a, b, c, **kwargs) of the three comma-separated floats a, b, c of text."""
    try:
        a, b, c = map(float, text.split(","))
    except ValueError:  # not a float, or not three of them
        raise ValueError(f"expected three comma-separated floats, got {text!r}") from None
    return make(a, b, c, **kwargs)


def _meta_lines(ns: SimpleNamespace, argv: list[str]) -> list[str]:
    tol = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(ns.tolerance.items()))
    return [
        f"# tool: mzduality {__version__}",
        f"# command: {' '.join(argv)}",
        f"# seed: {ns.seed}",
        f"# tolerances: {tol}",
    ]


def _meta_dict(ns: SimpleNamespace, argv: list[str]) -> dict:
    return {
        "tool": "mzduality",
        "version": __version__,
        "command": " ".join(argv),
        "seed": ns.seed,
        "tolerances": {k: ns.tolerance[k] for k in sorted(ns.tolerance)},
    }


def _lines(lines: Iterable[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """Write the output chunks in order to the file at path, or to stdout if it is None."""
    out = sys.stdout
    if path is not None:
        out = _flagged("--out", open, path, "w", encoding="utf-8", newline="\n")
    try:
        for chunk in chunks:
            out.write(chunk)
    finally:
        if path is not None:
            out.close()


def _table(template: str, sep: str, rows: Iterable[tuple]) -> Iterator[str]:
    """sep.join(template % row for row in rows), in blocks of _ROW_BLOCK rows.

    One "%" and one chunk per block, not per row. A block's fields go straight
    into one flat tuple, so no list of row tuples is built.
    """
    rows = iter(rows)
    for first in rows:
        fields = (*first, *chain.from_iterable(islice(rows, _ROW_BLOCK - 1)))
        yield sep.join([template] * (len(fields) // len(first))) % fields


def _spelled(xs: Sequence[float]) -> list[str]:
    """format(x, ".17g") for each float x, with one "%" for the whole list.

    For CSV. A JSON table spells a finite Python float with ``repr``, which
    is json's own spelling; only such floats reach a JSON table (its ``inf``
    and ``nan`` are not JSON).
    """
    return (("%.17g\n" * len(xs)) % tuple(xs)).split("\n")[:-1]


def _reprs(xs: Iterable[float]) -> list[str]:
    """repr(x) for each float x: a JSON table's spelling of its cells."""
    return list(map(repr, xs))


def _grid_cells(n: int) -> list[None]:
    """n * n slots for the contour strings: after checking n, before any O(n) work."""
    _check_grid_n(n)
    return _slots(n * n, f"n {n}: no memory for the {n} x {n} = {n * n} cells")


def _symmetric_rows(
    h: Sequence[float], spell: Callable[[list[float]], list[str]], cells: list
) -> Iterator[list[str]]:
    """Row by row, the strings of the exactly symmetric matrix h_i + h_j.

    Only the cells on and above the diagonal are spelled, by spell (a list
    of floats to a list of strings); each string is mirrored into the cell
    below the diagonal that equals it. ``cells`` has n * n slots: row i from
    i * n, column i every n-th from i. Once row i is handed out its slots
    are emptied, so only the strings that later rows still need stay alive:
    at most about n * n / 4 of them, halfway down.
    """
    n = len(h)
    for i, hi in enumerate(h):
        k = i * n
        upper = spell([hi + hj for hj in h[i:]])
        cells[k + i : k + n] = upper
        cells[k + i :: n] = upper
        yield cells[k : k + n]
        cells[k : k + n] = [None] * n


def _csv_grid_rows(axis: list[str], rows: Iterable[list[str]]) -> Iterator[str]:
    """For each row i of value strings, the CSV lines "v_i,p_j,value_ij" over j.

    axis holds the spelled v_i (= p_i). One parts list of 4 * n slots serves
    every row: its ",p_j," and newline slots are filled once, and each row
    refills only its v and value slots.
    """
    n = len(axis)
    parts = [""] * (4 * n)
    parts[1::4] = ["," + p + "," for p in axis]
    parts[3::4] = ["\n"] * n
    for v, row in zip(axis, rows):
        parts[0::4] = [v] * n
        parts[2::4] = row
        yield "".join(parts)


_JSON_ITEM_SEP = ",\n    "  # between the items of a top-level array under indent=2


def _json_chunks(payload: dict) -> Iterator[str]:
    """json.dumps(payload, indent=2) + "\n", one field or array item at a time.

    A field whose value is an iterator (it has ``__next__``) is a JSON array
    streamed item by item. Each item it yields is already encoded the way
    json.dumps(payload, indent=2) writes an item of a top-level array:
    inner lines indented by six spaces, a closing bracket by four. An item
    may also be a run of items joined by ``_JSON_ITEM_SEP``.
    """
    import json

    sep = "{\n  "
    for key, value in payload.items():
        yield sep + json.dumps(key) + ": "
        sep = ",\n  "
        if hasattr(value, "__next__"):
            item_sep = "[\n    "
            for item in value:
                yield item_sep + item
                item_sep = _JSON_ITEM_SEP
            yield "[]" if item_sep == "[\n    " else "\n  ]"
        else:
            # json escapes newlines inside strings, so every "\n" here starts a line
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


def _state_from_args(ns: SimpleNamespace) -> QubitState:
    given = [opt for opt in ("bloch", "wrt") if getattr(ns, opt, None) is not None]
    if len(given) != 1:
        raise ValueError("exactly one of --bloch or --wrt is required")
    eps_pos = ns.tolerance["eps_pos"]
    if given[0] == "bloch":
        return _flagged("--bloch", _from_triple, QubitState.from_bloch, ns.bloch, eps_pos=eps_pos)
    return _flagged("--wrt", _from_triple, QubitState.from_weights, ns.wrt, eps_pos=eps_pos)


def cmd_state(ns: SimpleNamespace) -> tuple[int, dict, Iterable[str]]:
    state = _state_from_args(ns)
    audit = equivalence_audit(state, ns.tolerance["eps_gap"])
    scalars: list[tuple[str, str]] = [
        ("sx", _fmt(state.bloch.sx)),
        ("sy", _fmt(state.bloch.sy)),
        ("sz", _fmt(state.bloch.sz)),
        ("w_plus", _fmt(state.w_plus)),
        ("w_minus", _fmt(state.w_minus)),
        ("r", _fmt(state.r)),
        ("theta", _fmt(state.theta)),
        ("purity", _fmt(state.purity)),
        ("is_pure", _fmt_bool(state.is_pure)),
        ("predictability", _fmt(predictability(state))),
        ("visibility", _fmt(visibility(state))),
        ("duality_lhs", _fmt(audit.duality.lhs)),
        ("duality_holds", _fmt_bool(audit.duality.holds)),
        ("duality_saturated", _fmt_bool(audit.duality.saturated)),
        ("sr_lhs", _fmt(audit.sr.lhs)),
        ("sr_rhs", _fmt(audit.sr.rhs)),
        ("sr_holds", _fmt_bool(audit.sr.holds)),
        ("sr_saturated", _fmt_bool(audit.sr.saturated)),
        ("lp_lhs", _fmt(audit.lp.lhs)),
        ("lp_rhs", _fmt(audit.lp.rhs)),
        ("lp_holds", _fmt_bool(audit.lp.holds)),
        ("lp_saturated", _fmt_bool(audit.lp.saturated)),
        ("all_agree_on_saturation", _fmt_bool(audit.all_agree_on_saturation)),
    ]
    fields = {"state": {"s": list(state.bloch.as_tuple())}, "report": dict(scalars)}
    return 0, fields, [_lines(["quantity,value", *(f"{k},{v}" for k, v in scalars)])]


def cmd_mz(ns: SimpleNamespace) -> tuple[int, dict, Iterable[str]]:
    inside = apply_beam_splitter(_state_from_args(ns))
    scan = _flagged("--phases", fringe_scan, inside, ns.phases, name="n_phases")
    v_analytic = visibility(inside)
    rows = zip(scan.phases, scan.p_d1, scan.p_d2)
    row = '{\n      "phi": %r,\n      "p_d1": %r,\n      "p_d2": %r\n    }'
    fields = {
        "rows": _table(row, _JSON_ITEM_SEP, rows),
        "p_max": scan.p_max,
        "p_min": scan.p_min,
        "v_operational": scan.v_operational,
        "visibility_analytic": v_analytic,
    }
    tail = _lines(f"# {k}: {_fmt(v)}" for k, v in fields.items() if k != "rows")
    csv = chain(["phi,p_d1,p_d2\n"], _table("%.17g,%.17g,%.17g\n", "", rows), [tail])
    return 0, fields, csv


def cmd_verify(ns: SimpleNamespace) -> tuple[int, dict, Iterable[str]]:
    _flagged("--n", _check_count, "n", ns.n, 1)
    import numpy as np

    eps_pos, eps_gap = ns.tolerance["eps_pos"], ns.tolerance["eps_gap"]
    n_pure = ns.n // 2
    blocks = chain(
        _pure_blocks(n_pure, ns.seed, _BLOCK),
        _mixed_blocks(ns.n - n_pure, ns.seed + 1, _BLOCK),
    )
    # each block is checked and audited on its own, and only its violations
    # are kept: the working set stays one block of arrays at any --n
    violations = []
    start = 0
    for rows in blocks:
        s = _flagged("--tolerance", _checked_rows, rows, eps_pos)
        # checked rows give P and V in [0, 1 + 2**-52], so pv_audit's check is skipped
        audit = _pv_audit(np.abs(s[:, 2]), np.hypot(s[:, 0], s[:, 1]), eps_gap)
        bad = np.flatnonzero(~(audit.all_hold & audit.all_agree_on_saturation)).tolist()
        gaps = audit.duality.gap, audit.sr.gap, audit.lp.gap
        detail = "duality_gap=%s sr_gap=%s lp_gap=%s"
        violations += [(start + i, detail % tuple(_fmt(g[i]) for g in gaps)) for i in bad]
        start += len(s)
    agreed = ns.n - len(violations)
    ok = not violations
    # a detail holds no character that json escapes, so '"%s"' is its json.dumps
    item = '{\n      "index": %d,\n      "detail": "%s"\n    }'
    fields = {
        "checked": ns.n,
        "agreed": agreed,
        "violations": _table(item, _JSON_ITEM_SEP, violations),
        "all_hold": ok,
    }
    head = f"quantity,value\nchecked,{ns.n}\nagreed,{agreed}\nall_hold,{_fmt_bool(ok)}\n"
    csv = chain([head], _table("# violation index=%d %s\n", "", violations))
    return 0 if ok else 2, fields, csv


def cmd_qscan(ns: SimpleNamespace) -> tuple[int, dict, Iterable[str]]:
    if not 0.0 < ns.qmin <= ns.qmax <= 2.0:
        raise ValueError(
            f"need 0 < --qmin <= --qmax <= 2 (pure-state reduction is concavity-"
            f"limited to q <= 2), got --qmin {ns.qmin!r} --qmax {ns.qmax!r}"
        )
    _flagged("--steps", _check_count, "steps", ns.steps, 1)
    # the rows are computed as they are written, so only a block is held
    n = ns.steps - 1
    step = (ns.qmax - ns.qmin) / max(n, 1)
    qs = chain((ns.qmin + i * step for i in range(n)), [ns.qmax if n else ns.qmin])
    band = ns.tolerance["band_eps"]
    rows = ((q, classify_regime(q, band), minimize_entropy_sum(q)) for q in qs)
    # a JSON row is json.dumps(row, indent=2) as an item of the top-level "rows" array
    row = (
        '{\n      "q": %r,\n      "regime": "%s",\n      "min_value": %r,'
        '\n      "minimizers": [\n        %s\n      ]\n    }'
    )
    pair = "[\n          %r,\n          %r\n        ]"
    fields = {"rows": _table(row, _JSON_ITEM_SEP, (
        (q, regime, res.min_value, ",\n        ".join([pair % vp for vp in res.minimizers]))
        for q, regime, res in rows
    ))}
    csv = _table("%.17g,%s,%.17g,%s\n", "", (
        (q, regime, res.min_value, ";".join(["%.17g:%.17g" % vp for vp in res.minimizers]))
        for q, regime, res in rows
    ))
    return 0, fields, chain(["q,regime,min_value,minimizers\n"], csv)


def cmd_qstar(ns: SimpleNamespace) -> tuple[int, dict, Iterable[str]]:
    q_star = find_q_star()
    residual = entropy_sum(_INV_SQRT2, _INV_SQRT2, q_star) - LN2
    lines = ["quantity,value", f"q_star,{_fmt(q_star)}", f"residual,{_fmt(residual)}"]
    return 0, {"q_star": q_star, "residual": residual}, [_lines(lines)]


def cmd_contour(ns: SimpleNamespace) -> tuple[int, dict, Iterable[str]]:
    _flagged("--q", _check_grid_q, ns.q)
    cells = _flagged("--n", _grid_cells, ns.n)
    axis, h = _grid_entropies(ns.q, ns.n)
    inner = "\n      "
    fields = {
        "q": ns.q,
        "n": ns.n,
        "constraint": ContourGrid.constraint,
        "axis": _table("%r", _JSON_ITEM_SEP, zip(axis)),
        "values": (
            "[" + inner + ("," + inner).join(row) + "\n    ]"
            for row in _symmetric_rows(h, _reprs, cells)
        ),
    }
    head = _lines([
        f"# q: {_fmt(ns.q)}",
        f"# n: {ns.n}",
        f"# constraint: {ContourGrid.constraint}",
        "v,p,value",
    ])
    rows = _csv_grid_rows(_spelled(axis), _symmetric_rows(h, _spelled, cells))
    return 0, fields, chain([head], rows)


# The option table. Each option maps to (convert, default, metavar, help).
# convert is int, float or str; a tuple of the allowed values; list for
# a repeatable option whose values accumulate in argv order; or None for a
# flag that prints and exits. A default of ... marks a required option.
_COMMON = {  # valid before and after the command
    "--seed": (int, 0, "SEED", "RNG seed for sampled states"),
    "--format": (("csv", "json"), "csv", "{csv,json}", "output format"),
    "--out": (str, None, "OUT", "write output to this path instead of stdout"),
    "--tolerance": (
        list, [], "NAME=VALUE", "override a named tolerance (repeatable): " + _TOLERANCE_NAMES
    ),
    "--help": (None, None, "", "show this help and exit"),
}
_ROOT = {**_COMMON, "--version": (None, None, "", "print the version and exit")}
_COMMANDS = {  # name -> (function, help, the command's own options)
    "state": (cmd_state, "duality and uncertainty report for one state", {
        "--bloch": (str, None, "SX,SY,SZ", "Bloch components"),
        "--wrt": (str, None, "W,R,THETA", "(w_plus, r, theta) parametrization"),
    }),
    "mz": (cmd_mz, "fringe scan of a state sent through the interferometer", {
        "--bloch": (str, ..., "SX,SY,SZ", "source state"),
        "--phases": (int, 360, "PHASES", "phase grid size"),
    }),
    "verify": (cmd_verify, "audit the equivalent bounds on random states", {
        "--n": (int, 1000, "N", "number of states"),
    }),
    "qscan": (cmd_qscan, "constrained entropy-sum minima over a q range", {
        "--qmin": (float, 0.25, "QMIN", "smallest Renyi index"),
        "--qmax": (float, 2.0, "QMAX", "largest Renyi index"),
        "--steps": (int, 8, "STEPS", "number of indices"),
    }),
    "qstar": (cmd_qstar, "critical Renyi index q*", {}),
    "contour": (cmd_contour, "entropy-sum grid over the (V, P) square", {
        "--q": (float, 1.0, "Q", "Renyi index"),
        "--n": (int, 129, "N", "grid side"),
    }),
}


def _help(command: str, table: dict[str, tuple]) -> str:
    """The --help text of one position, from its option table."""
    if command:
        lines = [f"usage: mzduality [options] {command} [options]", "", _COMMANDS[command][1]]
    else:
        lines = ["usage: mzduality [options] COMMAND [options]", "", __doc__.splitlines()[0]]
        lines += ["", "commands:"] + [f"  {k:<9} {v[1]}" for k, v in _COMMANDS.items()]
    lines += ["", "options:"]
    for name, (convert, default, metavar, text) in table.items():
        flag = "-h, --help" if name == "--help" else f"{name} {metavar}".rstrip()
        if default is ...:
            text += " (required)"
        elif default not in (None, []):
            text += f" (default {default})"
        lines.append(f"  {flag:<23} {text}")
    return _lines(lines)


def _check_choice(what: str, value: str, choices: Iterable[str]) -> None:
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise ValueError(f"argument {what}: invalid choice: {value!r} (choose from {listed})")


def _parse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], tuple] | None, object]:
    """The command to run and the namespace of every option it reads, from argv.

    An option is matched by its exact name, else by a unique prefix among
    the options valid at its position; it takes its value from "=VALUE" or
    else from the next token, unless that starts with "--". Each option is
    an attribute named after its flag; ``tolerance`` holds every tolerance,
    the defaults with the --tolerance items applied in argv order.
    -h/--help and --version return None and the text to print. Usage
    errors raise ValueError.
    """
    command, table = "", _ROOT
    values: dict[str, object] = {}
    args = iter(argv)
    for arg in args:
        if not arg.startswith("-"):
            if command:
                raise ValueError(f"unrecognized arguments: {arg}")
            _check_choice("COMMAND", arg, _COMMANDS)
            command, table = arg, {**_COMMANDS[arg][2], **_COMMON}
            continue
        name, eq, value = ("--help", "", "") if arg == "-h" else arg.partition("=")
        prefixed = [n for n in table if len(name) > 2 and n.startswith(name)]
        found = [name] if name in table else prefixed
        if len(found) != 1:
            if found:
                raise ValueError(f"ambiguous option: {name} could match {', '.join(found)}")
            raise ValueError(f"unrecognized arguments: {arg}")
        name = found[0]
        convert = table[name][0]
        if convert is None:
            if eq:
                raise ValueError(f"argument {name}: ignored explicit argument {value!r}")
            text = _help(command, table) if name == "--help" else f"mzduality {__version__}\n"
            return None, text
        if not eq:
            value = next(args, "--")
            if value.startswith("--"):
                raise ValueError(f"argument {name}: expected one argument")
        if convert is list:
            value = [*values.get(name, ()), value]
        elif isinstance(convert, tuple):
            _check_choice(name, value, convert)
        else:
            try:
                value = convert(value)
            except ValueError:
                kind = convert.__name__
                raise ValueError(f"argument {name}: invalid {kind} value: {value!r}") from None
        values[name] = value
    if not command:
        raise ValueError("the following arguments are required: COMMAND")
    ns = {name[2:]: values.get(name, spec[1]) for name, spec in table.items() if spec[0]}
    missing = [f"--{key}" for key, value in ns.items() if value is ...]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if not 0 <= ns["seed"] <= MAX_SEED:
        raise ValueError(f"--seed must lie in [0, 2^64), got {ns['seed']}")
    ns["tolerance"] = _tolerances(ns["tolerance"])
    return _COMMANDS[command][0], SimpleNamespace(**ns)


def _tolerances(items: list[str]) -> dict[str, float]:
    """A fresh copy of TOLERANCE_DEFAULTS with the --tolerance items applied."""
    tolerance = dict(TOLERANCE_DEFAULTS)
    for item in items:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--tolerance expects NAME=VALUE, got {item!r}")
        if name not in TOLERANCE_DEFAULTS:
            raise ValueError(f"unknown tolerance {name!r}; known names: {_TOLERANCE_NAMES}")
        try:
            v = float(value)
        except ValueError:
            raise ValueError(f"tolerance {name} needs a float value, got {value!r}") from None
        if not 0.0 < v < math.inf:  # also rejects NaN
            raise ValueError(f"tolerance {name} must be finite and positive, got {value!r}")
        if name == "eps_gap" and v < EPS_GAP_FLOOR:
            raise ValueError(f"tolerance {name} must be at least {EPS_GAP_FLOOR}, got {value!r}")
        tolerance[name] = v  # in argv order, so the last value of a name wins
    return tolerance


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        run, ns = _parse(argv)
        if run is None:  # -h/--help or --version: ns is the text
            code = 0
            sys.stdout.write(ns)
        else:
            code, fields, csv = run(ns)
            if ns.format == "json":
                _write(ns.out, _json_chunks({"meta": _meta_dict(ns, argv), **fields}))
            else:
                _write(ns.out, chain([_lines(_meta_lines(ns, argv))], csv))
        sys.stdout.flush()  # a pipe closed before the last write breaks here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: per the signal module docs' SIGPIPE note, point
        # stdout at devnull so that the flush at exit cannot fail again
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message; numpy's names the array it refused
        print(f"mzduality: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
