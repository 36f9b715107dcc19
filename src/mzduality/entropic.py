"""Renyi entropy sums for the which-way / fringe observable pair.

For a pure state with predictability P and visibility V the constraint
P^2 + V^2 = 1 parametrizes as (P, V) = (cos a, sin a), a in [0, pi/2].
Minimizing H_q(P) + H_q(V) over that arc exposes three regimes split by
a critical Renyi index q*:

  I   (q < q*):  the minimum ln 2 sits at the boundary points (V, P) in
                 {(0, 1), (1, 0)} - full which-way knowledge or full fringes;
  II  (q = q*):  boundary and balanced minimizers coexist (triple set);
  III (q > q*):  the unique minimizer is the balanced point
                 (1/sqrt 2, 1/sqrt 2).

q* solves 2 H_q(1/sqrt 2) = ln 2 and is found by bisection.
The restriction to pure states when minimizing over all physical states is
justified by concavity of H_q in the state for q <= 2, so the constrained
minimizers lie on the sphere; the q <= 2 precondition below encodes that.

Entropies use natural logarithms throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .qubit import (
    BlochObservable,
    BlochVector,
    ProbPair,
    QubitState,
    _checked_rows,
    _row_norms_sq,
    _xp,
    probabilities,
)

if TYPE_CHECKING:
    import numpy as np

LN2 = math.log(2.0)
SHANNON_WINDOW = 1e-7  # |q - 1| below this evaluates the Shannon limit
EXPM1_BAND = 0.1  # |q - 1| below this (outside the window) takes the expm1/log1p form
BAND_EPS = 1e-6  # half-width of the regime-II band around q*
Q_STAR_BRACKET = (1.01, 2.0)
MINIMIZER_VALUE_TOL = 1e-9  # candidates this close to the minimum all count

_HALF_PI = math.pi / 2.0
_BLOCK = 1 << 15  # rows per block of the ball sampler and sweep: 768 kB of (x, y, z)
_ARC_BLOCK = 1 << 13  # angles per block of the arc sweep; small blocks keep a thread's arena small
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _check_q(q: float) -> None:
    if math.isnan(q) or q <= 0.0:
        raise ValueError(f"Renyi index q must be positive, got {q!r}")


def _check_q_minimization(q: float) -> None:
    _check_q(q)
    if q > 2.0:
        raise ValueError(
            f"q = {q!r} outside (0, 2]: the reduction of the constrained "
            "minimum to pure states relies on concavity of H_q in the "
            "state, which holds only for q <= 2"
        )


def _entropy(p, m, q):
    """H_q of a normalized pair {p, m}, p >= m, for q > 0 or q = inf.

    Floats go through math (see ``_xp``); arrays go through numpy,
    elementwise, and may be overwritten. The in-place steps round exactly
    like the expressions they stand for.
    """
    xp = _xp(p)
    if q == math.inf:
        h = -xp.log(p)
    elif abs(q - 1.0) < SHANNON_WINDOW:
        h = -(p * xp.log(p))  # p >= 1/2, always positive
        h -= m * xp.log(xp.where(m > 0.0, m, 1.0))  # a zero m adds 0 * ln 1 = 0
    elif abs(q - 1.0) < EXPM1_BAND:
        # sum p^q = 1 + sum p expm1((q-1) ln p), whose terms share one sign;
        # ln(sum p^q) / (1-q) would lose about 2.4e-16 / |1-q| to cancellation
        d = q - 1.0
        h = xp.log(p)
        h *= d
        h = xp.expm1(h, out=h)
        h *= p
        t = xp.log(xp.where(m > 0.0, m, 1.0))  # a zero m adds m * expm1(0) = 0
        t *= d
        t = xp.expm1(t, out=t)
        t *= m
        h += t
        h = xp.log1p(h, out=h)
        h /= -d
    elif q * LN2 > 700.0:
        # p >= 1/2, so p^q + m^q can underflow only here: ln p^q + log1p((m/p)^q)
        h = q * xp.log(p)
        h += xp.log1p((m / p) ** q)
        h /= 1.0 - q
    else:
        p **= q
        m **= q
        p += m
        h = xp.log(p, out=p)
        h /= 1.0 - q
    # mathematically h lies in [0, ln 2]; clamp round-off (and kill -0.0)
    h = xp.clip(h, 0.0, LN2, out=h)
    h += 0.0
    return h


def _bias_entropy(x, q):
    """Entropy of the pair {(1+x)/2, (1-x)/2} for biases x in [0, 1], a float or an array."""
    p = 1.0 + x
    p *= 0.5  # the bits of p / 2 for every double, subnormals included
    m = 1.0 - x
    m *= 0.5
    return _entropy(p, m, q)


def renyi_entropy(probs: ProbPair, q: float) -> float:
    """Renyi entropy H_q = ln(p+^q + p-^q)/(1-q) of a two-outcome distribution.

    q = 1 (within a 1e-7 window) evaluates the Shannon limit -sum p ln p
    with the 0 ln 0 = 0 convention; elsewhere within 0.1 of 1 the same
    value is computed as -log1p(sum p expm1((q-1) ln p))/(q-1), which keeps
    full precision as q approaches 1. For q ln 2 > 700, where p^q may
    underflow, the value is (q ln p + log1p((m/p)^q))/(1-q), p the larger
    and m the smaller probability. q = math.inf gives the min-entropy
    -ln(max p). Rejects q <= 0. Values lie in [0, ln 2], monotonically
    nonincreasing in q.
    """
    _check_q(q)
    return _entropy(probs.max_prob, min(probs.as_tuple()), q)


def entropy_of_observable(obs: BlochObservable, state: QubitState, q: float) -> float:
    """H_q of the Born distribution of obs in state."""
    return renyi_entropy(probabilities(obs, state), q)


def entropy_sum(p_val: float, v_val: float, q: float) -> float:
    """H_q(P) + H_q(V) for biases P, V in [0, 1] (not restricted to the disk)."""
    _check_q(q)
    for name, val in (("P", p_val), ("V", v_val)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {val!r}")
    return _bias_entropy(p_val, q) + _bias_entropy(v_val, q)


@dataclass(frozen=True)
class MinimizationResult:
    """Constrained minimum of H_q(P) + H_q(V) on the arc P^2 + V^2 = 1.

    ``minimizers`` lists (V, P) pairs, in increasing arc angle, of every
    candidate among (0, 1), (1/sqrt 2, 1/sqrt 2) and (1, 0) whose value
    lies within ``MINIMIZER_VALUE_TOL`` of the minimum. ``regime`` is "I",
    "II" or "III" according to whether the set holds the boundary points,
    both boundary and balanced points, or the balanced point alone.
    """

    q: float
    min_value: float
    minimizers: tuple[tuple[float, float], ...]
    regime: str


def minimize_entropy_sum(q: float) -> MinimizationResult:
    """Minimize H_q(P) + H_q(V) subject to P^2 + V^2 = 1, P, V >= 0.

    On the arc (P, V) = (cos a, sin a), a in [0, pi/2], the minimizers are
    the boundary points a in {0, pi/2}, the balanced point a = pi/4, or all
    three (the regimes in the module docstring), so only those candidates
    are evaluated: the edge value H_q(1) + H_q(0) and the balanced value
    2 H_q(1/sqrt 2). Requires 0 < q <= 2; see module docstring for why
    larger q is refused.
    """
    _check_q_minimization(q)
    edge = _bias_entropy(1.0, q) + _bias_entropy(0.0, q)
    balanced = 2.0 * _bias_entropy(_INV_SQRT2, q)
    min_value = min(edge, balanced)
    candidates = ((0.0, 1.0, edge), (_INV_SQRT2, _INV_SQRT2, balanced), (1.0, 0.0, edge))
    minimizers = tuple(
        (v, p) for v, p, val in candidates if val <= min_value + MINIMIZER_VALUE_TOL
    )
    # balanced point alone, the two boundary points, or all three
    regime = {1: "III", 2: "I", 3: "II"}[len(minimizers)]
    return MinimizationResult(q=q, min_value=min_value, minimizers=minimizers, regime=regime)


@functools.lru_cache(maxsize=None)
def find_q_star(tolerance: float = 1e-10) -> float:
    """Solve 2 H_q(1/sqrt 2) = ln 2 for the critical index q*.

    Brackets the root in [1.01, 2] (the objective is +0.1398 at the left
    end and -0.1178 at the right), verifies the sign change, then bisects
    until the bracket is at most ``tolerance`` wide and returns its
    midpoint, so the root lies within tolerance / 2. The residual of the
    defining equation there is at most about 0.14 * tolerance (the slope
    of the objective at q* is about -0.27).
    """
    if not 1e-14 <= tolerance <= 1e-3:
        raise ValueError(f"tolerance must lie in [1e-14, 1e-3], got {tolerance!r}")

    def g(q: float) -> float:
        return 2.0 * _bias_entropy(_INV_SQRT2, q) - LN2

    lo, hi = Q_STAR_BRACKET
    glo, ghi = g(lo), g(hi)
    if not glo > 0.0 > ghi:
        raise RuntimeError(
            f"no sign change across [{lo}, {hi}]: g({lo}) = {glo!r}, "
            f"g({hi}) = {ghi!r}; the entropy evaluator is broken"
        )
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def classify_regime(q: float, band_eps: float = BAND_EPS) -> str:
    """Regime label from the position of q relative to q*.

    Returns "II" inside the band |q - q*| <= band_eps, else "I" below and
    "III" above. Independent of minimize_entropy_sum's structural
    classification; the two must agree away from the band.
    """
    _check_q_minimization(q)
    q_star = find_q_star(1e-12)
    if abs(q - q_star) <= band_eps:
        return "II"
    return "I" if q < q_star else "III"


def _arc_blocks(n: int):
    """Yield ``np.linspace(0, pi/2, n)``, n >= 2, bit for bit, in blocks of ``_ARC_BLOCK`` angles.

    Each block takes linspace's own steps: the float positions, times
    ``step = float64(pi/2) / (n - 1)``, plus 0.0, with the last angle set
    to pi/2 exactly.
    """
    import numpy as np

    step = np.float64(_HALF_PI) / (n - 1)
    for start in range(0, n, _ARC_BLOCK):
        stop = min(start + _ARC_BLOCK, n)
        a = np.arange(start, stop, dtype=float)
        a *= step
        a += 0.0
        if stop == n:
            a[-1] = _HALF_PI
        yield a


def _arc_min(q: float, n: int) -> float:
    """Minimum of H_q(cos a) + H_q(sin a) over the n angles of ``_arc_blocks(n)``."""
    import numpy as np

    best = math.inf
    for a in _arc_blocks(n):
        vals = _bias_entropy(np.cos(a), q)
        vals += _bias_entropy(np.sin(a), q)
        best = min(best, float(vals.min()))
    return best


def brute_force_min(
    q: float, n_states: int, include_mixed: bool, *, seed: int = 0
) -> float:
    """Reference minimum of the entropy sum over physical states.

    The pure-state part sweeps the quarter circle (P, V) = (cos a, sin a)
    on a dense equispaced grid with both endpoints included, so the
    boundary minimizers are evaluated exactly; resolution error elsewhere
    is O((pi / 2 / n_states)^2). With include_mixed, the states of
    ``random_mixed_bloch(n_states, seed)``, a uniform sample of the closed
    Bloch ball, are swept as well (they can only confirm, never undercut,
    the pure minimum, because entropies grow toward the center of the ball).

    Both sweeps run over blocks and keep a running minimum, so the
    temporaries stay cache-sized; the minimum is exact, so the result does
    not depend on the block sizes. With include_mixed the arc is swept on
    one helper thread while the calling thread sweeps the ball: the two are
    independent and numpy releases the interpreter lock in its loops. An
    exception on the helper is raised here.
    """
    _check_q_minimization(q)
    if n_states < 10_000:
        raise ValueError(f"n_states must be at least 10000, got {n_states}")
    if not include_mixed:
        return _arc_min(q, n_states)
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    with ThreadPoolExecutor(1) as pool:
        arc = pool.submit(_arc_min, q, n_states)
        best = math.inf
        for s in _mixed_blocks(n_states, seed):
            vals = _bias_entropy(np.abs(s[:, 2]), q)
            vals += _bias_entropy(np.hypot(s[:, 0], s[:, 1]), q)
            best = min(best, float(vals.min()))
        return min(arc.result(), best)


@dataclass(frozen=True, eq=False)
class ContourGrid:
    """Entropy-sum samples on the full unit square of (V, P) pairs.

    ``values[i, j]`` holds H_q(V = axis[i]) + H_q(P = axis[j]); the matrix
    is exactly symmetric. The square deliberately extends beyond the
    physical disk P^2 + V^2 <= 1 so level sets can be drawn against the
    constraint arc, recorded in ``constraint``.
    """

    q: float
    n: int
    axis: np.ndarray
    values: np.ndarray
    constraint: str = "P^2+V^2=1"

    def nearest_value(self, v: float, p: float) -> float:
        """Value at the grid node nearest to (v, p)."""
        for name, val in (("v", v), ("p", p)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val!r}")
        i = int(round(v * (self.n - 1)))
        j = int(round(p * (self.n - 1)))
        return float(self.values[i, j])


def contour_grid(q: float, n: int) -> ContourGrid:
    """Tabulate H_q(P) + H_q(V) on an n x n equispaced grid over [0, 1]^2."""
    _check_q(q)
    if q == math.inf:
        raise ValueError("contour grids require a finite Renyi index")
    if n < 32:
        raise ValueError(f"n must be at least 32, got {n}")
    import numpy as np

    axis = np.linspace(0.0, 1.0, n)
    h = _bias_entropy(axis, q)
    values = h[:, None] + h[None, :]
    return ContourGrid(q=q, n=n, axis=axis, values=values)


def unbiased_saturating_states(theta: float = 0.0) -> list[BlochVector]:
    """The four pure states with P = V = 1/sqrt(2) at off-diagonal phase theta.

    These are +/-(cos(theta)/sqrt 2, sin(theta)/sqrt 2, +/-1/sqrt 2); they
    saturate the duality bound at the balanced point and are the regime-III
    minimizers of the entropy sum.
    """
    cx = math.cos(theta) * _INV_SQRT2
    cy = math.sin(theta) * _INV_SQRT2
    return [
        BlochVector(cx, cy, _INV_SQRT2),
        BlochVector(cx, cy, -_INV_SQRT2),
        BlochVector(-cx, -cy, _INV_SQRT2),
        BlochVector(-cx, -cy, -_INV_SQRT2),
    ]


@dataclass(frozen=True)
class RegionMinimum:
    """Minimum of the entropy sum over a sampled region of the Bloch ball."""

    min_value: float
    argmin: BlochVector
    n_accepted: int


def constrained_min_over_region(
    q: float,
    region,
    n_samples: int,
    *,
    seed: int = 0,
) -> RegionMinimum:
    """Minimize H_q(P) + H_q(V) over states accepted by a region predicate.

    ``region`` is a callable BlochVector -> bool, called once per candidate
    in candidate order. Candidates mix a
    deterministic great-circle sweep in the x-z plane (hitting the cardinal
    states exactly), a seeded uniform sample of the sphere, and a seeded
    uniform sample of the ball, roughly n_samples in total. Raises if the
    predicate rejects every candidate.
    """
    _check_q_minimization(q)
    if n_samples < 12:
        raise ValueError(f"n_samples must be at least 12, got {n_samples}")
    import numpy as np

    base = n_samples // 3
    sweep_n = max(4, base - base % 4)  # multiple of 4 puts poles/equator on the grid
    sphere_n = base
    ball_n = max(n_samples - sweep_n - sphere_n, 1)

    psi = np.linspace(0.0, 2.0 * math.pi, sweep_n, endpoint=False)
    sweep = np.column_stack([np.sin(psi), np.zeros(sweep_n), np.cos(psi)])
    candidates = np.vstack(
        [sweep, random_pure_bloch(sphere_n, seed), random_mixed_bloch(ball_n, seed + 1)]
    )

    rows = candidates.tolist()
    accepted = np.array([bool(region(BlochVector(x, y, z))) for x, y, z in rows])
    index = np.flatnonzero(accepted)
    if not index.size:
        raise ValueError("region predicate rejected every sampled state")

    # The checked rows hold the bits of the BlochVectors the predicate saw.
    # Arrays rank the accepted ones; numpy may differ from math in the last
    # bits, so the float values decide among the states the arrays put
    # within 1e-12 of their minimum, first strict minimum kept.
    s = _checked_rows(candidates)[accepted]
    vals = _bias_entropy(np.abs(s[:, 2]), q)
    vals += _bias_entropy(np.hypot(s[:, 0], s[:, 1]), q)
    best_val = math.inf
    for i in np.flatnonzero(vals <= vals.min() + 1e-12).tolist():
        x, y, z = s[i].tolist()
        val = _bias_entropy(abs(z), q) + _bias_entropy(math.hypot(x, y), q)
        if val < best_val:
            best_val = val
            best = i
    argmin = BlochVector(*rows[index[best]])
    return RegionMinimum(min_value=best_val, argmin=argmin, n_accepted=int(index.size))


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


def random_pure_bloch(n: int, seed: int) -> np.ndarray:
    """n uniform points on the unit sphere: Gaussian draws, normalized."""
    _check_n(n)
    import numpy as np

    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    norms = np.sqrt(_row_norms_sq(v))
    while np.any(norms < 1e-12):  # essentially impossible, but stay total
        bad = norms < 1e-12
        v[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.sqrt(_row_norms_sq(v))
    v /= norms[:, None]
    return v


def _mixed_blocks(n: int, seed: int):
    """Yield the rows of ``random_mixed_bloch(n, seed)`` in order, in blocks.

    The samples are the first n rows of the seeded stream of cube points
    that fall in the ball. A uniform draw takes one double per element, so
    the draw sizes, ``min(2 * max(n - have, 64), _BLOCK)`` rows, change
    only how far past the n-th kept row the generator runs.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    have = 0
    while have < n:
        block = rng.random(size=(min(max(n - have, 64) * 2, _BLOCK), 3))
        block *= 2.0  # exact, so this is uniform(-1, 1)'s -1 + 2u
        block -= 1.0
        block = block.compress(_row_norms_sq(block) <= 1.0, axis=0)[: n - have]
        have += len(block)
        yield block


def random_mixed_bloch(n: int, seed: int) -> np.ndarray:
    """n uniform points in the closed unit ball, by rejection from the cube.

    Rows come from ``_mixed_blocks``, so beyond the (n, 3) result only one
    block of draws is held at a time.
    """
    _check_n(n)
    import numpy as np

    out = np.empty((n, 3))
    have = 0
    for piece in _mixed_blocks(n, seed):
        out[have : have + len(piece)] = piece
        have += len(piece)
    return out
