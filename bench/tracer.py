"""Spans and counters recorded around calls into the mzduality modules.

The benchmark never edits the package: it replaces public functions with
timing wrappers wherever they are looked up (the defining module, the
package namespace and ``mzduality.cli``, which imports its names), and
restores them afterwards. Spans are kept in flat arrays in memory and
summarised or written out when the run ends.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# span name -> (module, attribute); every module of the package is searched
# for other bindings of the same object, so imported aliases are covered
TRACED = {
    "qubit.from_bloch": ("mzduality.qubit", "QubitState.from_bloch"),
    "uncertainty.equivalence_audit": ("mzduality.uncertainty", "equivalence_audit"),
    "interferometer.fringe_scan": ("mzduality.interferometer", "fringe_scan"),
    "entropic.contour_grid": ("mzduality.entropic", "contour_grid"),
    "entropic.minimize_entropy_sum": ("mzduality.entropic", "minimize_entropy_sum"),
    "entropic.find_q_star": ("mzduality.entropic", "find_q_star"),
    "entropic.classify_regime": ("mzduality.entropic", "classify_regime"),
    "entropic.brute_force_min": ("mzduality.entropic", "brute_force_min"),
    "entropic.constrained_min_over_region": ("mzduality.entropic", "constrained_min_over_region"),
    "entropic.sample": ("mzduality.entropic", "random_pure_bloch"),
    "entropic.sample#mixed": ("mzduality.entropic", "random_mixed_bloch"),
    "cli.main": ("mzduality.cli", "main"),
}
PACKAGE_MODULES = (
    "mzduality",
    "mzduality.qubit",
    "mzduality.interferometer",
    "mzduality.uncertainty",
    "mzduality.entropic",
    "mzduality.cli",
)


class Sink:
    """Stand-in for sys.stdout that keeps what the CLI writes."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class Tracer:
    """In-memory span store: one row per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """Return fn wrapped in a span; hook(counts, args, result) runs after it."""
        nid = self._id(name)
        open_, close, counts = self._open, self._close, self.counts

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def mark(self) -> int:
        """Span index to pass to summary() for the spans recorded after now."""
        return len(self.start)

    def summary(self, since: int = 0) -> dict[str, float]:
        """Calls and busy seconds per span name, self seconds per layer.

        A span's self time is its duration minus that of its child spans;
        ``self.<layer>`` sums it over the spans of one module, and
        ``cli.self_s`` is the self time of ``cli.main``.
        """
        out: dict[str, float] = Counter()
        children: Counter = Counter()
        for i in range(since, len(self.start)):
            if self.parent[i] >= since:
                children[self.parent[i]] += self.end[i] - self.start[i]
        for i in range(since, len(self.start)):
            name = self.names[self.name_id[i]]
            base = name.split("#")[0]
            dur = self.end[i] - self.start[i]
            out[base + ".calls"] += 1
            out[base + ".busy_s"] += dur
            out["self." + name.split(".")[0]] += dur - children[i]
            if name == "cli.main":
                out["cli.self_s"] += dur - children[i]
        return out

    def dump(self, path, label: str) -> None:
        """Append every span as a CSV row: label, id, parent, name, start, end."""
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(
                    f"{label},{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )


def _audit_hook(counts, args, audit):
    counts["uncertainty.saturated"] += audit.duality.saturated
    counts["uncertainty.violations"] += not (audit.all_hold and audit.all_agree_on_saturation)


def _fringe_hook(counts, args, scan):
    counts["interferometer.fringe_scan.phases"] += len(scan.phases)


def _contour_hook(counts, args, grid):
    counts["entropic.contour_grid.cells"] += grid.values.size
    counts["entropic.contour_grid.bytes"] += grid.values.nbytes + grid.axis.nbytes


def _region_hook(counts, args, res):
    counts["entropic.region.n_accepted"] += res.n_accepted
    # the predicate is the benchmark's own callable and counts its calls
    counts["entropic.region.candidates"] += getattr(args[1], "calls", 0)


def _q_star_hook(fn):
    last = [fn.cache_info().misses]

    def hook(counts, args, result):
        misses = fn.cache_info().misses
        counts["entropic.find_q_star.first_calls" if misses > last[0] else "entropic.find_q_star.hits"] += 1
        last[0] = misses

    return hook


HOOKS = {
    "uncertainty.equivalence_audit": _audit_hook,
    "interferometer.fringe_scan": _fringe_hook,
    "entropic.contour_grid": _contour_hook,
    "entropic.constrained_min_over_region": _region_hook,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every traced function for its wrapper; restore them on exit."""
    import importlib

    modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
    undo = []
    try:
        for name, (modname, attr) in TRACED.items():
            owner = sys.modules[modname]
            if "." in attr:  # a classmethod: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                descriptor = cls.__dict__[meth]
                wrapped = tracer.wrap(name, getattr(cls, meth))
                setattr(cls, meth, staticmethod(wrapped))
                undo.append((cls, meth, descriptor))
                continue
            orig = getattr(owner, attr)
            hook = _q_star_hook(orig) if attr == "find_q_star" else HOOKS.get(name)
            wrapped = tracer.wrap(name, orig, hook)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, orig))
        yield tracer
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)
