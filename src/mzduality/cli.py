"""Command-line front end.

Subcommands: state (single-state duality and uncertainty report), mz
(fringe scan through the interferometer), verify (batch audit of the
equivalent bounds on random states), qscan (constrained minima across a
range of Renyi indices), qstar (critical index), contour (entropy-sum
grid over the (V, P) square).

Output is CSV (default) or JSON, to stdout or --out, always preceded by a
metadata block recording tool version, the exact command line, the seed
and the active tolerances. Identical invocations produce byte-identical
output; the JSON text is exactly ``json.dumps(payload, indent=2)`` plus a
newline. Large tables are formatted and written a row or a block of rows
at a time, after all computation and validation are done. Angles are
radians; floats are printed with 17 significant digits. Exit codes: 0
success, 1 usage or validation error, or stdout closed by its reader
(nothing more is written and stderr stays empty), 2 property violation
detected by verify.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .entropic import (
    BAND_EPS,
    LN2,
    classify_regime,
    contour_grid,
    entropy_sum,
    find_q_star,
    minimize_entropy_sum,
    random_mixed_bloch,
    random_pure_bloch,
)
from .interferometer import apply_beam_splitter, fringe_scan, predictability, visibility
from .qubit import EPS_POS, QubitState, _checked_rows
from .uncertainty import EPS_GAP, equivalence_audit, pv_audit

if TYPE_CHECKING:
    import numpy as np

TOLERANCE_DEFAULTS = {
    "eps_pos": EPS_POS,
    "eps_gap": EPS_GAP,
    "band_eps": BAND_EPS,
}

MAX_SEED = 2**64 - 1
_MZ_BLOCK = 1024  # mz rows formatted by one "%", CSV or JSON


@dataclass
class RunConfig:
    """Resolved global options for one CLI invocation."""

    seed: int = 0
    output_format: str = "csv"
    output_path: Path | None = None
    tolerances: dict[str, float] = field(default_factory=lambda: dict(TOLERANCE_DEFAULTS))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # property violations here, so remap usage errors to 1. A subcommand's
    # parser reports under the tool's name too, so every error is one
    # "mzduality: error: ..." line.
    def error(self, message: str) -> None:
        self.exit(1, f"mzduality: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    # the same flags hang off the root parser and every subparser; the
    # subparser copies default to SUPPRESS so they don't clobber values
    # already parsed from before the subcommand name
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--seed",
        type=int,
        default=(d if suppress else 0),
        help="RNG seed for sampled states (default 0)",
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default=(d if suppress else "csv"),
        help="output format (default csv)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=(d if suppress else None),
        help="write output to this path instead of stdout",
    )
    parser.add_argument(
        "--tolerance",
        action="append",
        metavar="NAME=VALUE",
        default=(d if suppress else []),
        help="override a named tolerance (repeatable); known names: "
        + ", ".join(sorted(TOLERANCE_DEFAULTS)),
    )


@functools.cache
def build_parser() -> _Parser:
    # built once per process: parsing leaves the parser and its defaults
    # unchanged (append actions copy their default list before appending)
    parser = _Parser(prog="mzduality", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"mzduality {__version__}")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_state = sub.add_parser("state", help="duality and uncertainty report for one state")
    p_state.add_argument("--bloch", metavar="SX,SY,SZ", help="Bloch components")
    p_state.add_argument("--wrt", metavar="W,R,THETA", help="(w_plus, r, theta) parametrization")
    _add_common(p_state, suppress=True)

    p_mz = sub.add_parser("mz", help="fringe scan of a state sent through the interferometer")
    p_mz.add_argument("--bloch", metavar="SX,SY,SZ", required=True, help="source state")
    p_mz.add_argument("--phases", type=int, default=360, help="phase grid size (default 360)")
    _add_common(p_mz, suppress=True)

    p_verify = sub.add_parser("verify", help="audit the equivalent bounds on random states")
    p_verify.add_argument("--n", type=int, default=1000, help="number of states (default 1000)")
    _add_common(p_verify, suppress=True)

    p_qscan = sub.add_parser("qscan", help="constrained entropy-sum minima over a q range")
    p_qscan.add_argument("--qmin", type=float, default=0.25)
    p_qscan.add_argument("--qmax", type=float, default=2.0)
    p_qscan.add_argument("--steps", type=int, default=8)
    _add_common(p_qscan, suppress=True)

    p_qstar = sub.add_parser("qstar", help="critical Renyi index q*")
    p_qstar.add_argument("--tol", type=float, default=1e-10, help="root tolerance (default 1e-10)")
    _add_common(p_qstar, suppress=True)

    p_contour = sub.add_parser("contour", help="entropy-sum grid over the (V, P) square")
    p_contour.add_argument("--q", type=float, default=1.0)
    p_contour.add_argument("--n", type=int, default=129, help="grid side (default 129)")
    _add_common(p_contour, suppress=True)

    return parser


def _resolve_config(ns: argparse.Namespace, parser: _Parser) -> RunConfig:
    cfg = RunConfig()
    cfg.seed = int(ns.seed)
    if not 0 <= cfg.seed <= MAX_SEED:
        parser.error(f"--seed must lie in [0, 2^64), got {cfg.seed}")
    cfg.output_format = ns.format
    cfg.output_path = ns.out
    for item in ns.tolerance:
        name, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--tolerance expects NAME=VALUE, got {item!r}")
        if name not in TOLERANCE_DEFAULTS:
            parser.error(
                f"unknown tolerance {name!r}; known names: "
                + ", ".join(sorted(TOLERANCE_DEFAULTS))
            )
        try:
            v = float(value)
        except ValueError:
            parser.error(f"tolerance {name} needs a float value, got {value!r}")
        if not v > 0.0 or math.isnan(v):
            parser.error(f"tolerance {name} must be positive, got {value!r}")
        cfg.tolerances[name] = v
    return cfg


def _parse_triple(text: str, what: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{what} expects three comma-separated floats, got {text!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"{what} expects three floats, got {text!r}") from exc
    return a, b, c


def _meta_lines(cfg: RunConfig, argv: list[str]) -> list[str]:
    tol = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(cfg.tolerances.items()))
    return [
        f"# tool: mzduality {__version__}",
        f"# command: {' '.join(argv)}",
        f"# seed: {cfg.seed}",
        f"# tolerances: {tol}",
    ]


def _meta_dict(cfg: RunConfig, argv: list[str]) -> dict:
    return {
        "tool": "mzduality",
        "version": __version__,
        "command": " ".join(argv),
        "seed": cfg.seed,
        "tolerances": {k: cfg.tolerances[k] for k in sorted(cfg.tolerances)},
    }


def _lines(lines: Iterable[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _write(cfg: RunConfig, chunks: Iterable[str]) -> None:
    """Write the output chunks in order to --out, or to stdout without it."""
    target = (
        open(cfg.output_path, "w", encoding="utf-8", newline="\n")
        if cfg.output_path is not None
        else contextlib.nullcontext(sys.stdout)
    )
    with target as out:
        for chunk in chunks:
            out.write(chunk)


def _g17(xs: Sequence[float]) -> list[str]:
    """format(x, ".17g") of each float; "%.17g" spells every float the same way."""
    return ("%.17g\n" * len(xs) % tuple(xs)).split("\n")[:-1]


_ENCODE_LINES = json.JSONEncoder(separators=("\n", ": ")).encode


def _json_floats(xs: Sequence[float]) -> list[str]:
    """json's own spelling of each float (repr, NaN, Infinity), from its C encoder."""
    return _ENCODE_LINES(xs)[1:-1].split("\n") if xs else []


def _symmetric_rows(
    values: np.ndarray, fmt_row: Callable[[list[float]], list[str]]
) -> Iterator[list[str]]:
    """Row by row, the strings of an exactly symmetric matrix.

    Only the cells on and above the diagonal go through fmt_row; each
    string is mirrored into the cell below the diagonal that equals it.
    """
    import numpy as np

    n = len(values)
    cells = np.empty((n, n), dtype=object)
    for i in range(n):
        upper = fmt_row(values[i, i:].tolist())
        cells[i, i:] = upper
        cells[i:, i] = upper
        yield cells[i].tolist()


def _row_blocks(template: str, sep: str, columns: Sequence[Sequence]) -> Iterator[str]:
    """sep.join(template % row for row in zip(*columns)), in blocks of _MZ_BLOCK rows.

    One "%" and one chunk per block, not per row.
    """
    width = len(columns)
    flat = tuple(chain.from_iterable(zip(*columns)))
    step = width * _MZ_BLOCK
    for i in range(0, len(flat), step):
        block = flat[i : i + step]
        yield sep.join([template] * (len(block) // width)) % block


_JSON_ITEM_SEP = ",\n    "  # between the items of a top-level array under indent=2


@dataclass(frozen=True)
class _JsonArray:
    """The value of a top-level field that is a JSON array, streamed item by item.

    Each item is already encoded the way json.dumps(payload, indent=2)
    writes an item of such an array: inner lines indented by six spaces,
    a closing bracket by four. An item may also be a run of items joined
    by ``_JSON_ITEM_SEP``.
    """

    items: Iterable[str]


def _json_chunks(payload: dict) -> Iterator[str]:
    """json.dumps(payload, indent=2) + "\n", one field or array item at a time."""
    sep = "{\n  "
    for key, value in payload.items():
        yield sep + json.dumps(key) + ": "
        sep = ",\n  "
        if isinstance(value, _JsonArray):
            item_sep = "[\n    "
            for item in value.items:
                yield item_sep + item
                item_sep = _JSON_ITEM_SEP
            yield "[]" if item_sep == "[\n    " else "\n  ]"
        else:
            # json escapes newlines inside strings, so every "\n" here starts a line
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


def _state_from_args(ns: argparse.Namespace, cfg: RunConfig) -> QubitState:
    given = [opt for opt in ("bloch", "wrt") if getattr(ns, opt, None) is not None]
    if len(given) != 1:
        raise ValueError("exactly one of --bloch or --wrt is required")
    if given[0] == "bloch":
        sx, sy, sz = _parse_triple(ns.bloch, "--bloch")
        return QubitState.from_bloch(sx, sy, sz, eps_pos=cfg.tolerances["eps_pos"])
    w, r, theta = _parse_triple(ns.wrt, "--wrt")
    return QubitState.from_weights(w, r, theta)


def cmd_state(ns: argparse.Namespace, cfg: RunConfig, argv: list[str]) -> int:
    state = _state_from_args(ns, cfg)
    audit = equivalence_audit(state, cfg.tolerances["eps_gap"])
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
    if cfg.output_format == "json":
        payload = {
            "meta": _meta_dict(cfg, argv),
            "state": state.to_dict(),
            "report": {k: v for k, v in scalars},
        }
        _write(cfg, _json_chunks(payload))
    else:
        lines = _meta_lines(cfg, argv) + ["quantity,value"]
        lines += [f"{k},{v}" for k, v in scalars]
        _write(cfg, [_lines(lines)])
    return 0


def cmd_mz(ns: argparse.Namespace, cfg: RunConfig, argv: list[str]) -> int:
    inside = apply_beam_splitter(_state_from_args(ns, cfg))
    scan = fringe_scan(inside, ns.phases)
    v_analytic = visibility(inside)
    if cfg.output_format == "json":
        row = '{\n      "phi": %s,\n      "p_d1": %s,\n      "p_d2": %s\n    }'
        columns = [_json_floats(c) for c in (scan.phases, scan.p_d1, scan.p_d2)]
        payload = {
            "meta": _meta_dict(cfg, argv),
            "rows": _JsonArray(_row_blocks(row, _JSON_ITEM_SEP, columns)),
            "p_max": scan.p_max,
            "p_min": scan.p_min,
            "v_operational": scan.v_operational,
            "visibility_analytic": v_analytic,
        }
        _write(cfg, _json_chunks(payload))
    else:
        head = _lines(_meta_lines(cfg, argv) + ["phi,p_d1,p_d2"])
        rows = _row_blocks("%.17g,%.17g,%.17g\n", "", (scan.phases, scan.p_d1, scan.p_d2))
        tail = _lines([
            f"# p_max: {_fmt(scan.p_max)}",
            f"# p_min: {_fmt(scan.p_min)}",
            f"# v_operational: {_fmt(scan.v_operational)}",
            f"# visibility_analytic: {_fmt(v_analytic)}",
        ])
        _write(cfg, chain([head], rows, [tail]))
    return 0


def cmd_verify(ns: argparse.Namespace, cfg: RunConfig, argv: list[str]) -> int:
    if ns.n < 1:
        raise ValueError(f"--n must be at least 1, got {ns.n}")
    import numpy as np

    n_pure = ns.n // 2
    rows = [random_pure_bloch(n_pure, cfg.seed), random_mixed_bloch(ns.n - n_pure, cfg.seed + 1)]
    s = _checked_rows(np.vstack(rows), cfg.tolerances["eps_pos"])
    audit = pv_audit(np.abs(s[:, 2]), np.hypot(s[:, 0], s[:, 1]), cfg.tolerances["eps_gap"])
    bad = np.flatnonzero(~(audit.all_hold & audit.all_agree_on_saturation)).tolist()
    violations = [
        (
            i,
            f"duality_gap={_fmt(audit.duality.gap[i])}"
            f" sr_gap={_fmt(audit.sr.gap[i])} lp_gap={_fmt(audit.lp.gap[i])}",
        )
        for i in bad
    ]
    agreed = ns.n - len(bad)
    ok = not bad
    if cfg.output_format == "json":
        payload = {
            "meta": _meta_dict(cfg, argv),
            "checked": ns.n,
            "agreed": agreed,
            "violations": [{"index": i, "detail": d} for i, d in violations],
            "all_hold": ok,
        }
        _write(cfg, _json_chunks(payload))
    else:
        lines = _meta_lines(cfg, argv) + [
            "quantity,value",
            f"checked,{ns.n}",
            f"agreed,{agreed}",
            f"all_hold,{_fmt_bool(ok)}",
        ]
        lines += [f"# violation index={i} {d}" for i, d in violations]
        _write(cfg, [_lines(lines)])
    return 0 if ok else 2


def cmd_qscan(ns: argparse.Namespace, cfg: RunConfig, argv: list[str]) -> int:
    if not 0.0 < ns.qmin <= ns.qmax <= 2.0:
        raise ValueError(
            f"need 0 < qmin <= qmax <= 2 (pure-state reduction is concavity-"
            f"limited to q <= 2), got qmin={ns.qmin!r} qmax={ns.qmax!r}"
        )
    if ns.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {ns.steps}")
    if ns.steps == 1:
        qs = [ns.qmin]
    else:
        step = (ns.qmax - ns.qmin) / (ns.steps - 1)
        qs = [ns.qmin + i * step for i in range(ns.steps)]
        qs[-1] = ns.qmax
    band = cfg.tolerances["band_eps"]
    rows = []
    for q in qs:
        res = minimize_entropy_sum(q)
        rows.append((q, classify_regime(q, band), res))
    if cfg.output_format == "json":
        payload = {
            "meta": _meta_dict(cfg, argv),
            "rows": [
                {
                    "q": q,
                    "regime": regime,
                    "min_value": res.min_value,
                    "minimizers": [[v, p] for v, p in res.minimizers],
                }
                for q, regime, res in rows
            ],
        }
        _write(cfg, _json_chunks(payload))
    else:
        lines = _meta_lines(cfg, argv) + ["q,regime,min_value,minimizers"]
        for q, regime, res in rows:
            mins = ";".join(f"{_fmt(v)}:{_fmt(p)}" for v, p in res.minimizers)
            lines.append(f"{_fmt(q)},{regime},{_fmt(res.min_value)},{mins}")
        _write(cfg, [_lines(lines)])
    return 0


def cmd_qstar(ns: argparse.Namespace, cfg: RunConfig, argv: list[str]) -> int:
    q_star = find_q_star(ns.tol)
    inv = 1.0 / math.sqrt(2.0)
    residual = entropy_sum(inv, inv, q_star) - LN2
    if cfg.output_format == "json":
        payload = {"meta": _meta_dict(cfg, argv), "q_star": q_star, "residual": residual}
        _write(cfg, _json_chunks(payload))
    else:
        lines = _meta_lines(cfg, argv) + [
            "quantity,value",
            f"q_star,{_fmt(q_star)}",
            f"residual,{_fmt(residual)}",
        ]
        _write(cfg, [_lines(lines)])
    return 0


def cmd_contour(ns: argparse.Namespace, cfg: RunConfig, argv: list[str]) -> int:
    grid = contour_grid(ns.q, ns.n)
    if cfg.output_format == "json":
        inner = "\n      "
        payload = {
            "meta": _meta_dict(cfg, argv),
            "q": grid.q,
            "n": grid.n,
            "constraint": grid.constraint,
            "axis": _JsonArray(_json_floats(grid.axis.tolist())),
            "values": _JsonArray(
                "[" + inner + ("," + inner).join(row) + "\n    ]"
                for row in _symmetric_rows(grid.values, _json_floats)
            ),
        }
        _write(cfg, _json_chunks(payload))
    else:
        head = _lines(_meta_lines(cfg, argv) + [
            f"# q: {_fmt(grid.q)}",
            f"# n: {grid.n}",
            f"# constraint: {grid.constraint}",
            "v,p,value",
        ])
        # row i is "v_i,p_j,value_ij" over j; the numeric axis strings hold no "%"
        axis = _g17(grid.axis.tolist())
        cells = [f",{p},%s\n" for p in axis]
        rows = (
            v + v.join(cells) % tuple(row)
            for v, row in zip(axis, _symmetric_rows(grid.values, _g17))
        )
        _write(cfg, chain([head], rows))
    return 0


_COMMANDS = {
    "state": cmd_state,
    "mz": cmd_mz,
    "verify": cmd_verify,
    "qscan": cmd_qscan,
    "qstar": cmd_qstar,
    "contour": cmd_contour,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args: list[str] = []
    for arg in argv:  # "--bloch V" as "--bloch=V": argparse reads "-1,0,0" as an option
        opt = args[-1] if args else ""  # or a prefix such as --blo, which argparse expands
        glue = len(opt) > 2 and ("--bloch".startswith(opt) or "--wrt".startswith(opt))
        if glue and not arg.startswith("--"):
            args[-1] += "=" + arg
        else:
            args.append(arg)
    try:
        ns = parser.parse_args(args)
        cfg = _resolve_config(ns, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[ns.command](ns, cfg, argv)
        sys.stdout.flush()  # a pipe closed before the last write breaks here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: per the signal module docs' SIGPIPE note, point
        # stdout at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message; numpy's names the array it refused
        print(f"mzduality: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
