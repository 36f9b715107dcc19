"""Benchmark workloads: seeded op generation, op execution and output checks.

Each workload is a fixed rotation (a "cycle") of op kinds. Op ``i`` is built
from ``(seed, i)`` alone, so the same index always carries the same inputs.
Check values come from library calls or the paper's closed forms, never
from stored output bytes.
"""

from __future__ import annotations

import functools
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mzduality.cli as cli
from mzduality import entropic

from tracer import Sink

BENCH_DIR = Path(__file__).resolve().parent
LN2 = math.log(2.0)
C7_SLACK = 1e-6  # acceptance C7: qscan minimum may undercut the oracle by this
C8_BOUND = 2e-6  # acceptance C8: |v_operational - V| at 3600 or more phases
C8_PHASES = 3600

# sizes named in the benchmark definition; TINY keeps the self-test quick
BENCH_SIZES = dict(
    verify_n=20_000,
    contour_n=513,
    mz_phases=20_000,
    qscan_steps=512,
    bf_states=10**6,
    region_samples=30_000,
    oracle_states=10**6,
)
TINY_SIZES = dict(
    verify_n=200,
    contour_n=33,
    mz_phases=400,
    qscan_steps=12,
    bf_states=10_000,
    region_samples=300,
    oracle_states=10_000,
)


class CheckFailed(Exception):
    """An op's output disagrees with its check value."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---- closed forms -----------------------------------------------------------


def bias_entropy(x: float, q: float) -> float:
    """H_q of the pair {(1+x)/2, (1-x)/2}, natural log, Shannon at q = 1."""
    p, m = (1.0 + x) / 2.0, (1.0 - x) / 2.0
    if q == 1.0:
        return -sum(v * math.log(v) for v in (p, m) if v > 0.0)
    return math.log(p**q + m**q) / (1.0 - q)


def arc_minimum(q: float) -> float:
    """Minimum of H_q(P) + H_q(V) over P^2 + V^2 = 1: the boundary value ln 2
    or the balanced value 2 H_q(1/sqrt 2), whichever is lower."""
    return min(LN2, 2.0 * bias_entropy(1.0 / math.sqrt(2.0), q))


def _solve_q_star() -> float:
    # bisection on 2 H_q(1/sqrt 2) = ln 2 over the bracket [1.01, 2]
    lo, hi = 1.01, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * bias_entropy(1.0 / math.sqrt(2.0), mid) > LN2:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


Q_STAR = _solve_q_star()


@functools.lru_cache(maxsize=None)
def oracle_min(q: float, n_states: int) -> float:
    """The C7 oracle: brute-force minimum over pure states."""
    return entropic.brute_force_min(q, n_states, False)


# ---- ops --------------------------------------------------------------------


@dataclass
class Op:
    index: int
    kind: str
    argv: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)


@dataclass
class Raw:
    """What an op produced, before checking."""

    rc: int
    text: str
    extra: tuple = ()
    trace: dict | None = None  # interactive: the traced child's summary
    imports: dict | None = None  # interactive: -X importtime numbers


class HalfSpace:
    """Region predicate a . s >= b on Bloch vectors; counts its calls."""

    def __init__(self, a, b: float) -> None:
        self.a = tuple(float(x) for x in a)
        self.b = float(b)
        self.calls = 0

    def __call__(self, bv) -> bool:
        self.calls += 1
        a = self.a
        return a[0] * bv.sx + a[1] * bv.sy + a[2] * bv.sz >= self.b


def _bloch(rng) -> list[float]:
    # pure half the time, otherwise uniform in the ball
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if rng.random() < 0.5:
        v *= rng.random() ** (1.0 / 3.0)
    return [float(x) for x in v]


def _triple(v) -> str:
    return ",".join(repr(x) for x in v)


def run_cli(argv: list[str], sink: Sink) -> tuple[int, str]:
    """cli.main in this process with stdout captured by sink."""
    saved = sys.stdout
    sys.stdout = sink
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout = saved
    return rc, "".join(sink.parts)


class Workload:
    """Seeded op generator plus the executor and checks for its op kinds."""

    name = ""
    cycle: tuple[str, ...] = ()
    in_process = True

    def __init__(self, seed: int, sizes: dict, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def op(self, i: int) -> Op:
        kind = self.cycle[i % len(self.cycle)]
        rng = np.random.default_rng([self.seed, i])
        op = Op(i, kind)
        getattr(self, "_make_" + kind)(op, rng)
        return op

    def execute(self, op: Op, tracer=None) -> Raw:
        sink = Sink()
        if tracer is not None:
            sink.write = tracer.wrap("cli.emit", sink.write)
        rc, text = run_cli(op.argv, sink)
        return Raw(rc, text)

    def check(self, op: Op, raw: Raw) -> dict:
        """Raise CheckFailed on a wrong output; return the op's exact counts."""
        return getattr(self, "_check_" + op.kind)(op, raw)

    # -- op builders --

    def _make_verify(self, op: Op, rng) -> None:
        s = int(rng.integers(0, 2**32))
        n = self.sizes["verify_n"]
        op.argv = ["--seed", str(s), "verify", "--n", str(n)]
        op.params = dict(n=n)

    def _make_state(self, op: Op, rng) -> None:
        s = _bloch(rng)
        op.argv = ["state", "--bloch=" + _triple(s)]
        op.params = dict(bloch=s)

    def _make_mz(self, op: Op, rng) -> None:
        s = _bloch(rng)
        phases = self.sizes["mz_phases"]
        op.argv = ["mz", "--bloch=" + _triple(s), "--phases", str(phases)]
        op.params = dict(bloch=s, phases=phases)

    def _make_contour_csv(self, op: Op, rng) -> None:
        q, n = float(rng.uniform(0.25, 2.0)), self.sizes["contour_n"]
        path = self.workdir / f"contour-{op.index}.csv"
        op.argv = ["contour", "--n", str(n), "--q", repr(q), "--out", str(path)]
        op.params = dict(q=q, n=n, path=path)

    def _make_contour_json(self, op: Op, rng) -> None:
        n = self.sizes["contour_n"]
        op.argv = ["--format", "json", "contour", "--n", str(n)]
        op.params = dict(q=1.0, n=n)

    def _make_qscan(self, op: Op, rng) -> None:
        # both regimes: qmin below q* ~ 1.43, qmax above it
        qmin, qmax = float(rng.uniform(0.25, 1.2)), float(rng.uniform(1.6, 2.0))
        steps = self.sizes["qscan_steps"]
        op.argv = ["qscan", "--qmin", repr(qmin), "--qmax", repr(qmax), "--steps", str(steps)]
        op.params = dict(qmin=qmin, qmax=qmax, steps=steps, c7_row=int(rng.integers(0, steps)))

    # -- checks --

    def _check_verify(self, op: Op, raw: Raw) -> dict:
        _require(raw.rc == 0, f"verify exit code {raw.rc}")
        kv = _quantities(raw.text)
        n = op.params["n"]
        _require(
            int(kv["checked"]) == int(kv["agreed"]) == n and kv["all_hold"] == "true",
            f"verify: checked={kv['checked']} agreed={kv['agreed']} n={n}",
        )
        return dict(states=n, bytes_out=_nbytes(raw.text))

    def _check_state(self, op: Op, raw: Raw) -> dict:
        _require(raw.rc == 0, f"state exit code {raw.rc}")
        kv = _quantities(raw.text)
        norm_sq = sum(x * x for x in op.params["bloch"])
        lhs = float(kv["duality_lhs"])
        _require(abs(lhs - norm_sq) <= 1e-12, f"state: duality_lhs {lhs!r} vs |s|^2 {norm_sq!r}")
        _require(kv["all_agree_on_saturation"] == "true", "state: relations disagree on saturation")
        return dict(states=1, bytes_out=_nbytes(raw.text))

    def _check_mz(self, op: Op, raw: Raw) -> dict:
        _require(raw.rc == 0, f"mz exit code {raw.rc}")
        n = op.params["phases"]
        rows = _table(raw.text, "phi,p_d1,p_d2\n")
        _require(rows.shape == (n, 3), f"mz: table shape {rows.shape}, want ({n}, 3)")
        phi = 2.0 * math.pi * np.arange(n) / n
        _require(bool(np.all(np.abs(rows[:, 0] - phi) <= 1e-12)), "mz: phase grid")
        _require(bool(np.all(np.abs(rows[:, 1] + rows[:, 2] - 1.0) <= 1e-12)), "mz: p_d1 + p_d2 != 1")
        meta = _comments(raw.text)
        v_op, v_an = float(meta["v_operational"]), float(meta["visibility_analytic"])
        sx, sy, sz = op.params["bloch"]
        v = math.hypot(sz, sy)  # the first beam splitter maps s to (sz, sy, -sx)
        _require(abs(v_an - v) <= 1e-12, f"mz: visibility_analytic {v_an!r} vs {v!r}")
        # C8 holds from 3600 phases; coarser grids add the sampling error V (1 - cos(pi/n))
        bound = C8_BOUND + (0.0 if n >= C8_PHASES else v * (1.0 - math.cos(math.pi / n)))
        _require(abs(v_op - v_an) <= bound, f"mz: |v_op - V| = {abs(v_op - v_an):.3e} > {bound:.3e}")
        return dict(states=n, phases=n, bytes_out=_nbytes(raw.text))

    def _check_contour_csv(self, op: Op, raw: Raw) -> dict:
        _require(raw.rc == 0, f"contour exit code {raw.rc}")
        path = op.params.get("path")
        if path is not None:
            text = path.read_text(encoding="utf-8")
            path.unlink()
            _require(raw.text == "", "contour --out also wrote to stdout")
        else:
            text = raw.text
        q, n = op.params["q"], op.params["n"]
        rows = _table(text, "v,p,value\n")
        _require(rows.shape == (n * n, 3), f"contour: table shape {rows.shape}, want ({n * n}, 3)")
        axis = np.linspace(0.0, 1.0, n)
        _require(bool(np.all(rows[:, 0] == np.repeat(axis, n))), "contour: v column")
        _require(bool(np.all(rows[:, 1] == np.tile(axis, n))), "contour: p column")
        self._check_contour_values(rows[:, 2].reshape(n, n), q, n)
        return dict(cells=n * n, bytes_out=_nbytes(text))

    def _check_contour_json(self, op: Op, raw: Raw) -> dict:
        _require(raw.rc == 0, f"contour exit code {raw.rc}")
        q, n = op.params["q"], op.params["n"]
        payload = json.loads(raw.text)
        _require(payload["n"] == n and payload["q"] == q, "contour: n or q in payload")
        values = np.asarray(payload["values"], dtype=float)
        _require(values.shape == (n, n), f"contour: matrix shape {values.shape}")
        _require(bool(np.array_equal(values, values.T)), "contour: matrix not symmetric")
        self._check_contour_values(values, q, n)
        return dict(cells=n * n, bytes_out=_nbytes(raw.text))

    @staticmethod
    def _check_contour_values(values, q: float, n: int) -> None:
        _require(
            bool(np.all((values >= 0.0) & (values <= 2.0 * LN2))), "contour: value outside [0, 2 ln 2]"
        )
        ref = entropic.contour_grid(q, n).values
        worst = float(np.max(np.abs(values - ref)))
        _require(worst <= 1e-12, f"contour: value off the library grid by {worst:.3e}")
        # closed-form corners: both biases 0 gives 2 ln 2, both 1 gives 0
        _require(abs(values[0, 0] - 2.0 * LN2) <= 1e-12 and values[-1, -1] <= 1e-12, "contour: corners")

    def _check_qstar(self, op: Op, raw: Raw) -> dict:
        _require(raw.rc == 0, f"qstar exit code {raw.rc}")
        kv = _quantities(raw.text)
        q_star, residual = float(kv["q_star"]), float(kv["residual"])
        _require(abs(q_star - Q_STAR) <= 1e-9, f"qstar: {q_star!r} vs {Q_STAR!r}")
        _require(abs(residual) <= 1e-9, f"qstar: residual {residual!r}")
        return dict(bytes_out=_nbytes(raw.text))

    def _check_qscan(self, op: Op, raw: Raw) -> dict:
        _require(raw.rc == 0, f"qscan exit code {raw.rc}")
        p = op.params
        lines = raw.text.split("q,regime,min_value,minimizers\n", 1)[1].splitlines()
        _require(len(lines) == p["steps"], f"qscan: {len(lines)} rows, want {p['steps']}")
        qs = np.linspace(p["qmin"], p["qmax"], p["steps"])
        # the C7 oracle costs 0.1 s per q, so long scans run it on the end
        # rows and one seeded row; every row gets the closed-form bound
        c7_rows = set(range(p["steps"])) if p["steps"] <= 8 else {0, p["steps"] - 1, p["c7_row"]}
        oracle_n = self.sizes["oracle_states"]
        for k, line in enumerate(lines):
            q_txt, regime, value_txt, _ = line.split(",")
            q, value = float(q_txt), float(value_txt)
            _require(abs(q - qs[k]) <= 1e-12, f"qscan: row {k} q {q!r} vs {qs[k]!r}")
            _require(regime == entropic.classify_regime(q), f"qscan: regime {regime} at q={q!r}")
            _require(abs(value - arc_minimum(q)) <= C7_SLACK, f"qscan: min {value!r} at q={q!r}")
            if k in c7_rows:
                _require(value >= oracle_min(q, oracle_n) - C7_SLACK, f"qscan: C7 fails at q={q!r}")
        return dict(bytes_out=_nbytes(raw.text))


class Interactive(Workload):
    """Fresh `python -m mzduality.cli` per op, default sizes."""

    name = "interactive"
    cycle = ("state", "mz", "verify", "qscan", "qstar", "contour_csv")
    in_process = False

    def __init__(self, seed: int, sizes: dict, workdir: Path, env: dict | None = None) -> None:
        super().__init__(seed, sizes, workdir)
        self.env = env

    def _make_mz(self, op: Op, rng) -> None:
        s = _bloch(rng)
        op.argv = ["mz", "--bloch=" + _triple(s)]
        op.params = dict(bloch=s, phases=360)

    def _make_verify(self, op: Op, rng) -> None:
        s = int(rng.integers(0, 2**32))
        op.argv = ["--seed", str(s), "verify"]
        op.params = dict(n=1000)

    def _make_qscan(self, op: Op, rng) -> None:
        op.argv = ["qscan"]
        op.params = dict(qmin=0.25, qmax=2.0, steps=8)

    def _make_qstar(self, op: Op, rng) -> None:
        op.argv = ["qstar"]

    def _make_contour_csv(self, op: Op, rng) -> None:
        q = float(rng.uniform(0.25, 2.0))
        op.argv = ["contour", "--q", repr(q)]
        op.params = dict(q=q, n=129)

    def execute(self, op: Op, tracer=None) -> Raw:
        if tracer is None:
            cmd = [sys.executable, "-m", "mzduality.cli", *op.argv]
        else:
            summary = self.workdir / f"trace-{op.index}.json"
            spans = self.workdir / "spans.csv"
            cmd = [sys.executable, "-X", "importtime", str(BENCH_DIR / "shim.py"),
                   str(summary), str(spans), f"op{op.index}", *op.argv]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=120)
        raw = Raw(proc.returncode, proc.stdout.decode("utf-8"))
        if tracer is not None:
            raw.trace = json.loads(summary.read_text(encoding="utf-8"))
            summary.unlink()
            raw.imports = parse_importtime(proc.stderr.decode("utf-8", "replace"))
        return raw


class BatchAudit(Workload):
    """In-process `verify --n 20000` per op."""

    name = "batch_audit"
    cycle = ("verify",)


class Tabulate(Workload):
    """In-process contour CSV to a file, contour JSON and a long mz scan."""

    name = "tabulate"
    cycle = ("contour_csv", "contour_json", "mz")


class EntropicScan(Workload):
    """In-process qscan plus the brute-force oracle and a region minimum."""

    name = "entropic_scan"
    cycle = ("scan",)

    def _make_scan(self, op: Op, rng) -> None:
        self._make_qscan(op, rng)
        a = rng.normal(size=3)
        op.params.update(
            q=float(rng.uniform(0.3, 2.0)),
            seed=int(rng.integers(0, 2**32)),
            a=a / np.linalg.norm(a),
            b=float(rng.uniform(-0.3, 0.3)),
        )

    def execute(self, op: Op, tracer=None) -> Raw:
        raw = super().execute(op, tracer)
        p = op.params
        best = entropic.brute_force_min(p["q"], self.sizes["bf_states"], True, seed=p["seed"])
        region = HalfSpace(p["a"], p["b"])
        res = entropic.constrained_min_over_region(
            p["q"], region, self.sizes["region_samples"], seed=p["seed"]
        )
        raw.extra = (best, res, region)
        return raw

    def _check_scan(self, op: Op, raw: Raw) -> dict:
        counts = self._check_qscan(op, raw)
        best, res, region = raw.extra
        q = op.params["q"]
        m = arc_minimum(q)
        _require(abs(best - m) <= 1e-9, f"brute_force_min {best!r} vs closed form {m!r} at q={q!r}")
        candidates = region.calls
        _require(1 <= res.n_accepted <= candidates, f"region: n_accepted {res.n_accepted} of {candidates}")
        s = res.argmin
        direct = bias_entropy(abs(s.sz), q) + bias_entropy(math.hypot(s.sx, s.sy), q)
        _require(abs(res.min_value - direct) <= 1e-12, f"region: min {res.min_value!r} vs {direct!r}")
        _require(res.min_value >= m - 1e-9, f"region: min {res.min_value!r} below the arc minimum")
        _require(region(s), "region: argmin outside the region")
        counts.update(n_accepted=res.n_accepted, states=2 * self.sizes["bf_states"] + candidates)
        return counts


WORKLOADS = {w.name: w for w in (Interactive, BatchAudit, Tabulate, EntropicScan)}


# ---- output parsing ---------------------------------------------------------


def _nbytes(text: str) -> int:
    return len(text.encode("utf-8"))


def _quantities(text: str) -> dict[str, str]:
    """The `quantity,value` rows of a CSV report."""
    body = text.split("quantity,value\n", 1)[1]
    return dict(line.split(",", 1) for line in body.splitlines() if not line.startswith("#"))


def _comments(text: str) -> dict[str, str]:
    """`# key: value` metadata lines."""
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            out[key] = value
    return out


def _table(text: str, header: str) -> np.ndarray:
    """The numeric rows after a CSV header line, comment lines skipped."""
    _require(header in text, f"missing header {header.strip()!r}")
    body = text.split(header, 1)[1]
    rows = np.loadtxt(io.StringIO(body), delimiter=",", comments="#", ndmin=2)
    return rows


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds for the package and scipy.optimize from -X importtime."""
    out = {"import.mzduality_s": 0.0, "import.scipy_optimize_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name, cumulative = parts[2].strip(), int(parts[1]) / 1e6
        if name == "mzduality" or name.startswith("mzduality."):
            out["import.mzduality_s"] = max(out["import.mzduality_s"], cumulative)
        elif name == "scipy.optimize":
            out["import.scipy_optimize_s"] = cumulative
    return out
