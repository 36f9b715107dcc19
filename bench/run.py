"""mzduality benchmark: run one workload for a fixed time and report metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: interactive, batch_audit, tabulate, entropic_scan (see
bench/README.md). Every op's output is checked. With --trace 0 the last
stdout line is a JSON object holding the end-to-end metrics; with --trace 1
it holds the per-layer metrics from a traced pass over the same ops. End-to-end
times are divided by the host slowdown measured next to them (see
host_slowdown). Lines before the JSON, each starting with "#", record the
environment, sample counts, the tail percentile used, the tracing overhead
and layer time shares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKDIR = Path(".bench_work")  # relative to ROOT, which is the working directory
WORKLOAD_NAMES = ("interactive", "batch_audit", "tabulate", "entropic_scan")
SETUP_PROBES = 3  # timed set-up probes before the op loop, and again after it
# median kernel times on the host where the bounds in BENCHMARK.json were
# set (2-core Xeon VM, Python 3.11, numpy 2.4); see host_slowdown()
K_COMPUTE = 0.025
K_PROCESS = 0.17
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# counts that must repeat bit for bit for one seed and op index
REPEAT_KEYS = (
    "states",
    "bytes_out",
    "cells",
    "phases",
    "n_accepted",
    "uncertainty.saturated",
    "uncertainty.violations",
    "entropic.minimize_entropy_sum.calls",
)

# per-layer metric -> (unit, key in the traced op summaries); values are
# means per traced op, except the import times (median per process) and
# the accept ratio (over all region calls)
PER_LAYER = {
    "import.mzduality_s": ("s", None),
    "import.scipy_optimize_s": ("s", None),
    "qubit.from_bloch.calls": ("count/op", "qubit.from_bloch.calls"),
    "qubit.from_bloch.busy_s": ("s/op", "qubit.from_bloch.busy_s"),
    "uncertainty.equivalence_audit.calls": ("count/op", "uncertainty.equivalence_audit.calls"),
    "uncertainty.equivalence_audit.busy_s": ("s/op", "uncertainty.equivalence_audit.busy_s"),
    "uncertainty.saturated": ("count/op", "uncertainty.saturated"),
    "uncertainty.violations": ("count/op", "uncertainty.violations"),
    "entropic.sample.calls": ("count/op", "entropic.sample.calls"),
    "entropic.sample.busy_s": ("s/op", "entropic.sample.busy_s"),
    "interferometer.fringe_scan.calls": ("count/op", "interferometer.fringe_scan.calls"),
    "interferometer.fringe_scan.busy_s": ("s/op", "interferometer.fringe_scan.busy_s"),
    "interferometer.fringe_scan.phases": ("count/op", "interferometer.fringe_scan.phases"),
    "entropic.contour_grid.busy_s": ("s/op", "entropic.contour_grid.busy_s"),
    "entropic.contour_grid.cells": ("count/op", "entropic.contour_grid.cells"),
    "entropic.contour_grid.bytes": ("B/op", "entropic.contour_grid.bytes"),
    "cli.self_s": ("s/op", "cli.self_s"),
    "cli.emit_s": ("s/op", "cli.emit.busy_s"),
    "cli.bytes_out": ("B/op", "bytes_out"),
    "entropic.minimize_entropy_sum.calls": ("count/op", "entropic.minimize_entropy_sum.calls"),
    "entropic.minimize_entropy_sum.busy_s": ("s/op", "entropic.minimize_entropy_sum.busy_s"),
    "entropic.find_q_star.calls": ("count/op", "entropic.find_q_star.first_calls"),
    "entropic.find_q_star.hits": ("count/op", "entropic.find_q_star.hits"),
    "entropic.find_q_star.busy_s": ("s/op", "entropic.find_q_star.busy_s"),
    "entropic.classify_regime.busy_s": ("s/op", "entropic.classify_regime.busy_s"),
    "entropic.brute_force_min.busy_s": ("s/op", "entropic.brute_force_min.busy_s"),
    "entropic.constrained_min_over_region.busy_s": ("s/op", "entropic.constrained_min_over_region.busy_s"),
    "entropic.region.accept_ratio": ("ratio", None),
}


@dataclass(frozen=True)
class _Vec:  # a validated frozen dataclass, like the package's BlochVector
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not abs(self.z) <= 1.0:
            raise ValueError(self.z)


def compute_kernel() -> float:
    """Seconds for a fixed mix of the in-process work the package does:
    small frozen dataclasses and math in a Python loop, float formatting
    and joining, and numpy passes over arrays too large for the CPU caches.
    Its arrays add about 15 MB to the peak memory of the in-process
    workloads, the same amount at every commit."""
    import numpy as np

    t0 = perf_counter()
    acc = 0.0
    for i in range(8000):
        v = _Vec(i * 1e-5, 0.5, 0.25)
        acc += math.hypot(v.x, v.y) + math.acos(v.z)
    text = "\n".join(f"{format(i * 0.1, '.17g')},{format(i * acc, '.17g')}" for i in range(6000))
    a = np.linspace(0.0, 1.0, 600_000)
    b = np.log1p(a) + np.sqrt(a)
    if len(text) + b[-1] < 0:  # consume the results
        raise AssertionError
    return perf_counter() - t0


def process_kernel() -> float:
    """Seconds for a fresh interpreter that imports numpy: the start-up and
    import work that interpreter launches and `import mzduality` do."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), check=True)
    return perf_counter() - t0


def host_slowdown(in_process: bool) -> float:
    """How much slower the host runs now than when the bounds were set.

    The host changes speed by up to a third over minutes, so 20 s runs
    spread by about 20%. Timing fixed work next to every measurement and
    dividing by this ratio removes most of that. In-process work and
    process start-up slow down differently, so each has its own kernel.
    Neither kernel touches the package.
    """
    return compute_kernel() / K_COMPUTE if in_process else process_kernel() / K_PROCESS


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINS)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def build_workload(name: str, seed: int, sizes: dict | None = None, workdir: Path | None = None):
    """The workload's set-up: everything done before its first op."""
    from workloads import BENCH_SIZES, WORKLOADS

    cls = WORKLOADS[name]
    kwargs = dict(env=child_env()) if not cls.in_process else {}
    return cls(seed, sizes or BENCH_SIZES, workdir or WORKDIR / name, **kwargs)


# ---- set-up probes ----------------------------------------------------------


def probe_setup(workload: str, seed: int, importtime: bool, warm_up: bool) -> tuple[list[float], list[dict]]:
    """Time fresh interpreters from launch until the workload is ready.

    Runs SETUP_PROBES timed probes, after one untimed probe if warm_up (so
    bytecode is cached), and returns their times divided by the host
    slowdown measured around each: process_kernel() runs before the first
    timed probe and after each one, and a probe uses the mean of the two
    kernel times on either side of it. With importtime, each probe also
    reports -X importtime numbers.
    """
    from workloads import parse_importtime

    WORKDIR.mkdir(exist_ok=True)
    err_path = WORKDIR / "probe-stderr.txt"
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH_DIR / "probe.py"), workload, str(seed)]
    times, imports = [], []
    slowdown = None
    for k in range(SETUP_PROBES + warm_up):
        if slowdown is None and (k or not warm_up):
            slowdown = host_slowdown(in_process=False)
        with open(err_path, "wb") as err:
            t0 = perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env()) as proc:
                line = proc.stdout.readline()
                elapsed = perf_counter() - t0
                proc.stdout.read()
                rc = proc.wait(timeout=120)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if line != b"ready\n" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc}):\n{stderr[-2000:]}")
        if k or not warm_up:
            before, slowdown = slowdown, host_slowdown(in_process=False)
            times.append(elapsed / ((before + slowdown) / 2))
            if importtime:
                imports.append(parse_importtime(stderr))
    err_path.unlink()
    return times, imports


# ---- the op loop ------------------------------------------------------------


@dataclass
class Record:
    index: int
    kind: str
    wall: float
    slowdown: float = 1.0  # host_slowdown() around this op
    ok: bool = True
    error: str = ""
    counts: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    imports: dict | None = None


def run_one(workload, i: int, tracer=None) -> Record:
    """Execute op i (timed), then check its output (untimed)."""
    from tracer import installed
    from workloads import CheckFailed

    op = workload.op(i)
    rec = Record(i, op.kind, 0.0)
    try:
        if tracer is None:
            t0 = perf_counter()
            try:
                raw = workload.execute(op)
            finally:
                rec.wall = perf_counter() - t0
        else:
            mark, before = tracer.mark(), Counter(tracer.counts)
            with installed(tracer):
                t0 = perf_counter()
                try:
                    with tracer.span("op"):
                        raw = workload.execute(op, tracer)
                finally:
                    rec.wall = perf_counter() - t0
            rec.layer = Counter(tracer.summary(mark))
            rec.layer.update(tracer.counts - before)
            if raw.trace:  # a traced child process: its spans nest in this op
                rec.layer.update(raw.trace)
                rec.layer["self.op"] -= raw.trace.get("child.busy_s", 0.0)
            rec.imports = raw.imports
        rec.counts = workload.check(op, raw)
    except CheckFailed as exc:
        rec.ok, rec.error = False, f"check failed: {exc}"
    except Exception:  # an op that raises is a failed op, not a crashed run
        rec.ok, rec.error = False, traceback.format_exc(limit=4)
    return rec


def run_loop(workload, seconds: float, *tracers) -> list[list[Record]]:
    """Run whole cycles from op 0 until seconds pass, one record list per
    tracer (None for untraced). Each op runs once per tracer, back to back,
    so traced and untraced passes see the same machine state."""
    tracers = tracers or (None,)
    passes: list[list[Record]] = [[] for _ in tracers]
    cycle, i = len(workload.cycle), 0
    t_end = perf_counter() + seconds
    slowdown = host_slowdown(workload.in_process)
    while True:
        round_ = [run_one(workload, i, tracer) for tracer in tracers]
        before, slowdown = slowdown, host_slowdown(workload.in_process)
        for records, rec in zip(passes, round_):
            rec.slowdown = (before + slowdown) / 2
            records.append(rec)
        i += 1
        if i % cycle == 0 and perf_counter() >= t_end:
            return passes


def repeat_counts(rec: Record) -> dict:
    merged = {**rec.counts, **rec.layer}
    return {k: merged[k] for k in REPEAT_KEYS if k in merged}


def check_repeats(records: list[Record], store: Path) -> list[str]:
    """Compare exact counts per op index within the run and with earlier
    runs of the same seed (kept in store); return the mismatches."""
    seen = json.loads(store.read_text()) if store.exists() else {}
    problems = []
    for rec in records:
        if not rec.ok:
            continue
        counts = repeat_counts(rec)
        known = seen.setdefault(str(rec.index), {})
        for k, v in counts.items():
            if k in known and known[k] != v:
                problems.append(f"op {rec.index} ({rec.kind}) {k}: {known[k]} then {v}")
            known.setdefault(k, v)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True))
    os.replace(tmp, store)
    return problems


# ---- metrics ----------------------------------------------------------------


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten samples or fewer
    it is the maximum, with none beyond.
    """
    xs = sorted(walls)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def end_to_end(records: list[Record], setup: list[float], workload) -> dict:
    """End-to-end metrics. Times are divided by the host slowdown measured
    around them; throughputs use the median time of a rotation cycle."""
    walls = [r.wall / r.slowdown for r in records]
    cycle = len(workload.cycle)
    cycles = [sum(walls[j:j + cycle]) for j in range(0, len(walls), cycle)]
    cycle_s = statistics.median(cycles) * len(cycles)  # op seconds, robust to outliers
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_p50_s": (statistics.median(walls), "s"),
        "wall_tail_s": (tail(walls)[0], "s"),
        "states_per_s": (sum(r.counts.get("states", 0) for r in records) / cycle_s, "1/s"),
        "out_mb_per_s": (sum(r.counts.get("bytes_out", 0) for r in records) / 1e6 / cycle_s, "MB/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss * 1024 / 1e6, "MB"),
    }


def per_layer(records: list[Record], imports: list[dict]) -> dict:
    total: Counter = Counter()
    for r in records:
        total.update(r.layer)
        total["bytes_out"] += r.counts.get("bytes_out", 0)
    n = len(records)
    out = {}
    for name, (unit, key) in PER_LAYER.items():
        if name.startswith("import."):
            value = statistics.median(d[name] for d in imports) if imports else 0.0
        elif key is None:  # accept ratio
            cand = total["entropic.region.candidates"]
            value = total["entropic.region.n_accepted"] / cand if cand else 0.0
        else:
            value = total[key] / n
        out[name] = (value, unit)
    return out


# ---- environment ------------------------------------------------------------


def environment(seed: int) -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    git = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git = res.stdout.strip() or "unknown"
    def sha256(directory: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted(directory.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()[:16]

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git,
        "src_sha256": sha256(ROOT / "src"),
        "bench_sha256": sha256(BENCH_DIR),
        "seed": seed,
        **THREAD_PINS,
    }


# ---- main -------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def report_walls(label: str, records: list[Record]) -> None:
    walls = [r.wall for r in records]
    value, pct, beyond = tail(walls)
    print(
        f"# {label}: {len(walls)} timed ops, p50 {statistics.median(walls):.6f} s, "
        f"tail p{pct:.1f} {value:.6f} s ({beyond} samples beyond)"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mzduality" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'mzduality'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.update(THREAD_PINS)  # before numpy is imported here
    sys.path.insert(0, str(ROOT / "src"))

    setup, imports = probe_setup(args.workload, args.seed, bool(args.trace), warm_up=True)

    import mzduality
    from tracer import Tracer

    if not Path(mzduality.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: imported mzduality from {mzduality.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = build_workload(args.workload, args.seed)
    env = environment(args.seed)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    # untimed warm-up: op 0, which the loop runs again, so the run also
    # checks that one op repeats its counts exactly
    records = [run_one(workload, 0)]
    if args.trace:
        spans = workload.workdir / "spans.csv"
        spans.unlink(missing_ok=True)
        tracer = Tracer()
        untraced, traced = run_loop(workload, args.seconds, None, tracer)
        tracer.dump(spans, "main")
        records += untraced + traced
        timed = traced
    else:
        (timed,) = run_loop(workload, args.seconds)
        records += timed

    # set-up is probed on both sides of the op loop, so the median spans the run
    more_setup, more_imports = probe_setup(args.workload, args.seed, bool(args.trace), warm_up=False)
    setup += more_setup
    imports += more_imports

    failed = [r for r in records if not r.ok]
    for r in failed[:3]:
        print(f"# FAILED op {r.index} ({r.kind}): {r.error.strip().splitlines()[-1]}", file=sys.stderr)
        print(r.error, file=sys.stderr)
    # keyed by the code's digests, so only runs of the same code are compared
    store = WORKDIR / f"repeat-{args.workload}-seed{args.seed}-{env['src_sha256']}-{env['bench_sha256']}.json"
    mismatches = check_repeats(records, store)
    for m in mismatches:
        print(f"# NON-DETERMINISTIC: {m}")
    print(f"# ops: attempted={len(records)} failed={len(failed)} "
          f"failed_ratio={len(failed) / len(records):.6g} (warm-up op included)")
    print(f"# exact-repeat counts: {'MISMATCH' if mismatches else 'match'} "
          f"(within this run and with earlier runs of seed {args.seed} on the same code, store {store})")
    print(f"# setup_s samples (s, slowdown removed): {' '.join(f'{t:.4f}' for t in setup)}")

    if args.trace:
        report_walls("untraced pass", untraced)
        report_walls("traced pass", traced)
        overhead = statistics.median(b.wall - a.wall for a, b in zip(untraced, traced))
        base = statistics.median(r.wall for r in untraced)
        print(f"# tracing overhead: {overhead:+.6f} s/op ({100 * overhead / base:+.2f}% of untraced p50),"
              f" paired over {len(traced)} ops")
        imports += [r.imports for r in traced if r.imports]
        metrics = per_layer(traced, imports)
        layer_total = Counter()
        for r in traced:
            layer_total.update({k: v for k, v in r.layer.items() if k.startswith("self.")})
        wall_total = sum(r.wall for r in traced)
        shares = ", ".join(f"{k[5:]} {100 * v / wall_total:.1f}%" for k, v in layer_total.most_common())
        print(f"# self-time share of traced op wall: {shares}")
        print("#   (op: time in no traced call; for interactive that is interpreter start, import and exit)")
        if not workload.in_process:
            imp = metrics["import.mzduality_s"][0]
            print(f"# import.mzduality_s is {100 * imp / statistics.median(r.wall for r in traced):.1f}% "
                  f"of the traced p50 op wall")
        print(f"# spans written to {spans}")
    else:
        report_walls("timed (raw)", timed)
        slowdown = statistics.median(r.slowdown for r in timed)
        print(f"# host slowdown: median {slowdown:.3f} around ops; the metrics below are divided by it")
        metrics = end_to_end(timed, setup, workload)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")

    result = {
        "correct": not failed and not mismatches,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
