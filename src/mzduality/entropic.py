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
from itertools import chain, compress, count, starmap

from .qubit import (
    BlochObservable,
    BlochVector,
    ProbPair,
    QubitState,
    _check_count,
    _check_finite,
    _check_nonnegative,
    _checked_blochs,
    _checked_rows,
    _Record,
    _row_norms_sq,
    _xp,
    probabilities,
)

TYPE_CHECKING = False  # PEP 781: typing itself is never imported
if TYPE_CHECKING:
    import numpy as np

LN2 = math.log(2.0)
EXPM1_BAND = 0.1  # 0 < |q - 1| below this takes the expm1/log1p form
BAND_EPS = 1e-6  # half-width of the regime-II band around q*
Q_STAR_BRACKET = (1.01, 2.0)
MINIMIZER_VALUE_TOL = 1e-9  # candidates this close to the minimum all count

_HALF_PI = math.pi / 2.0
# rows (ball: from twice as many draws) or angles per block of the samplers,
# the oracle's sweeps and verify: a float64 column of a block is about 64 kB,
# below glibc's default mmap threshold, so its temporaries reuse heap pages
_BLOCK = 1 << 13
# candidate rows per block of the region minimizer
_REGION_BLOCK = 1 << 11
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# the oracle's pruning: arc angles per run that share one lower bound, cells
# per axis of the ball's bound table, and the margin a bound must clear
_RUN = 1 << 8
_CELLS = 64
_SLACK = 1e-12


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

    Floats go through math (see ``_xp``); arrays go through numpy, elementwise.
    The two can differ in the last bit, as ``math.log`` and ``np.log`` do.
    Floats go through math so that the entropies the CLI prints keep their
    bits whatever SIMD loops numpy picks.
    """
    xp = _xp(p)
    if q == math.inf:
        h = -xp.log(p)
    elif q == 1.0:
        # p >= 1/2, always positive; a zero m adds 0 * ln 1 = 0
        h = -(p * xp.log(p)) - m * xp.log(xp.where(m > 0.0, m, 1.0))
    elif abs(q - 1.0) < EXPM1_BAND:
        # sum p^q = 1 + sum p expm1((q-1) ln p), whose terms share one sign;
        # ln(sum p^q) / (1-q) would lose about 2.4e-16 / |1-q| to cancellation
        d = q - 1.0
        t = m * xp.expm1(xp.log(xp.where(m > 0.0, m, 1.0)) * d)  # a zero m adds 0
        h = xp.log1p(p * xp.expm1(xp.log(p) * d) + t) / -d
    elif q * LN2 > 700.0:
        # p >= 1/2, so p^q + m^q can underflow only here: ln p^q + log1p((m/p)^q)
        h = (q * xp.log(p) + xp.log1p((m / p) ** q)) / (1.0 - q)
    else:
        h = xp.log(p ** q + m ** q) / (1.0 - q)
    # mathematically h lies in [0, ln 2]; clamp round-off (and kill -0.0)
    return xp.clip(h, 0.0, LN2) + 0.0


def _bias_entropy(x, q):
    """Entropy of the pair {(1+x)/2, (1-x)/2} for biases x in [0, 1], a float or an array."""
    # * 0.5 has the bits of / 2 for every double, subnormals included
    return _entropy((1.0 + x) * 0.5, (1.0 - x) * 0.5, q)


def _state_entropy_sum(x, y, z, q):
    """H_q(|z|) + H_q(hypot(x, y)) of Bloch components: floats, or arrays elementwise."""
    xp = _xp(z)
    return _bias_entropy(xp.abs(z), q) + _bias_entropy(xp.hypot(x, y), q)


def renyi_entropy(probs: ProbPair, q: float) -> float:
    """Renyi entropy H_q = ln(p+^q + p-^q)/(1-q) of a two-outcome distribution.

    q = 1 evaluates the Shannon limit -sum p ln p with the 0 ln 0 = 0
    convention; every other q within 0.1 of 1 is computed as
    -log1p(sum p expm1((q-1) ln p))/(q-1), which keeps full precision as q
    approaches 1. For q ln 2 > 700, where p^q may underflow, the value is
    (q ln p + log1p((m/p)^q))/(1-q), p the larger and m the smaller
    probability. q = math.inf gives the min-entropy -ln(max p). Rejects
    q <= 0. Values lie in [0, ln 2], monotonically nonincreasing in q.
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


class MinimizationResult(_Record):
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
def find_q_star() -> float:
    """The critical index q*, the root of g(q) = 2 H_q(1/sqrt 2) - ln 2, to the last bit.

    Checks that g changes sign across [1.01, 2] (+0.1398 to -0.1178), then
    bisects until the bracket holds two adjacent doubles and returns the
    upper one, the least double on the bisection path where g <= 0. Cached,
    so ``qstar`` and ``classify_regime`` share one value.
    """

    def g(q: float) -> float:
        return 2.0 * _bias_entropy(_INV_SQRT2, q) - LN2

    lo, hi = Q_STAR_BRACKET
    glo, ghi = g(lo), g(hi)
    if not glo > 0.0 > ghi:
        raise RuntimeError(
            f"no sign change across [{lo}, {hi}]: g({lo}) = {glo!r}, "
            f"g({hi}) = {ghi!r}; the entropy evaluator is broken"
        )
    while lo < (mid := (lo + hi) / 2.0) < hi:
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def classify_regime(q: float, band_eps: float = BAND_EPS) -> str:
    """Regime label from the position of q relative to q* (``find_q_star()``).

    Returns "II" inside the band |q - q*| <= band_eps, else "I" below and
    "III" above. Independent of minimize_entropy_sum's structural
    classification; the two must agree away from the band.
    """
    _check_q_minimization(q)
    _check_nonnegative("band_eps", band_eps)
    q_star = find_q_star()
    if abs(q - q_star) <= band_eps:
        return "II"
    return "I" if q < q_star else "III"


def _linspace_at(k, stop: float, n: int, endpoint: bool):
    """``np.linspace(0, stop, n, endpoint=endpoint)`` at the float positions k, bit for bit.

    These are linspace's own steps: k times ``step = float64(stop) / (n - 1)``
    (``/ n`` without the endpoint), plus 0.0; with the endpoint, position
    n - 1 is set to stop exactly. Needs n >= 2 with the endpoint, n >= 1
    without.
    """
    import numpy as np

    a = k * (np.float64(stop) / (n - 1 if endpoint else n)) + 0.0
    if endpoint:
        a[k == n - 1] = stop
    return a


def _linspace_blocks(stop: float, n: int, endpoint: bool, rows: int):
    """Yield ``np.linspace(0, stop, n, endpoint=endpoint)`` bit for bit, in blocks of ``rows``."""
    import numpy as np

    for start in range(0, n, rows):
        k = np.arange(start, min(start + rows, n), dtype=float)
        yield _linspace_at(k, stop, n, endpoint)


def _arc_angles(k, n: int):
    """The angles of ``np.linspace(0, pi/2, n)`` at the float positions k."""
    return _linspace_at(k, _HALF_PI, n, True)


def _arc_sums(a, q):
    """H_q(cos a) + H_q(sin a) of an array of angles, elementwise."""
    import numpy as np

    return _bias_entropy(np.cos(a), q) + _bias_entropy(np.sin(a), q)


def _up(b):
    """Normal biases moved out by 16 to 32 ulps, capped at 1.

    They bound from above a bias rounded near b.
    """
    import numpy as np

    return np.minimum(b * (1.0 + 2.0**-48), 1.0)


def _arc_bounds(q: float, n: int, lo):
    """Lower bounds of ``_arc_sums`` on the runs of ``_RUN`` arc angles starting at positions lo.

    On a run cos falls and sin rises, and H_q never increases as the bias
    grows, so H_q(cos a_lo) + H_q(sin a_hi) bounds the run from below.
    """
    import numpy as np

    a_lo = _arc_angles(lo, n)
    a_hi = _arc_angles(np.minimum(lo + (_RUN - 1), n - 1), n)
    return _bias_entropy(_up(np.cos(a_lo)), q) + _bias_entropy(_up(np.sin(a_hi)), q)


def _arc_min(q: float, n: int) -> float:
    """Minimum of ``_arc_sums`` over the n angles of ``np.linspace(0, pi/2, n)``.

    Only runs whose bound is within ``_SLACK`` of the smallest sum at the
    angle positions 0, (n - 1) // 2 and n - 1 are evaluated; that threshold
    only prunes and is never returned.
    """
    import numpy as np

    cut = float(_arc_sums(_arc_angles(np.array([0.0, (n - 1) // 2, n - 1]), n), q).min())
    cut += _SLACK
    runs = -(-n // _RUN)
    best = math.inf
    for first in range(0, runs, _BLOCK):
        lo = np.arange(first, min(first + _BLOCK, runs), dtype=float) * _RUN
        lo = lo[_arc_bounds(q, n, lo) <= cut]
        # the kept runs, _BLOCK angles at a time
        for i in range(0, len(lo), _BLOCK // _RUN):
            k = (lo[i : i + _BLOCK // _RUN, None] + np.arange(_RUN)).ravel()
            best = min(best, float(_arc_sums(_arc_angles(k[k < n], n), q).min()))
    return best


def _cell_bounds(q: float):
    """(_CELLS, _CELLS) lower bounds of the entropy sum over cells of the Bloch ball.

    Cell (i, j) holds the rows with i <= |z| * _CELLS < i + 1 and
    j <= (x*x + y*y) * _CELLS < j + 1 (the last cells up to 1 included);
    the entropy sum there is at least the one at the top of both ranges.
    """
    import numpy as np

    top = np.arange(1, _CELLS + 1) / _CELLS
    return np.add.outer(_bias_entropy(_up(top), q), _bias_entropy(_up(np.sqrt(top)), q))


def _ball_bounds(cells, s):
    """The bound of each row of s: the entry of ``cells`` for the cell the row falls in."""
    import numpy as np

    def index(v):  # v * _CELLS is exact: _CELLS is a power of two
        return np.minimum(v * _CELLS, _CELLS - 1).astype(np.intp)

    x, y, z = s.T
    return cells[index(np.abs(z)), index(x * x + y * y)]


def _norm_floor(cells, cut: float) -> float:
    """A floor on ``_row_norms_sq`` of every ball row whose cell bound is at most cut.

    A row in cell (i, j) has |z| >= i / _CELLS and a computed x*x + y*y >=
    j / _CELLS, and rounding is monotone, so its computed squared norm is at
    least (i / _CELLS)**2 + j / _CELLS, which is exact. A row below the
    smallest such sum over the cells within cut lies in a cell above cut.
    inf if no cell is within cut.
    """
    import numpy as np

    i, j = np.nonzero(cells <= cut)
    return float(((i / _CELLS) ** 2 + j / _CELLS).min(initial=math.inf))


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

    The result is the minimum of every state's entropy sum, as one
    whole-array sweep computes it. States that cannot reach that minimum
    are skipped by lower bounds: H_q never increases as the bias grows,
    cos and sin are monotone on a run of ``_RUN`` consecutive arc angles,
    and a ball row's bound is taken at the top of its |z| and x^2 + y^2
    cell. Bounds move biases a few ulps outward, and a state is skipped
    only if its bound exceeds a fixed cut by more than ``_SLACK``, which
    covers the rounding of the entropy sums. The arc's cut is the smallest
    sum at three arc states, which only prunes and is never returned; the
    ball's is the arc's minimum. Most ball rows are dropped by one
    comparison of the squared norm that the in-ball test computes: a row
    below ``_norm_floor`` lies in a cell above the cut (the draws come at
    half scale, so their squared norms are compared with a quarter of the
    floor). Only the rest are doubled to full scale and looked up in the
    cell table, and the rows it keeps are gathered across draws and
    evaluated about ``_BLOCK`` at a time. The arc runs first,
    then the ball, on the calling thread, so memory is O(_BLOCK) at any
    n_states.
    """
    _check_q_minimization(q)
    _check_count("n_states", n_states, 10_000)
    best = _arc_min(q, n_states)
    if not include_mixed:
        return best
    cells = _cell_bounds(q)
    cut = best + _SLACK
    floor = _norm_floor(cells, cut)
    floor *= 0.25  # exact: the draws' squared norms are a quarter of the full-scale ones
    rows = starmap(
        lambda block, r2, inside: _doubled(block.compress(inside & (r2 >= floor), axis=0)),
        _cube_blocks(n_states, seed, _BLOCK),
    )
    for s in _rebatched(rows, _BLOCK):
        s = s[_ball_bounds(cells, s) <= cut]
        if len(s):
            best = min(best, float(_state_entropy_sum(*s.T, q).min()))
    return best


def _rebatched(pieces, rows: int):
    """Yield the rows of the arrays from ``pieces``, in order, in batches of about ``rows``.

    A batch is yielded once it holds at least ``rows`` rows, and the rest at
    the end, so at most ``rows`` rows plus one piece are held at a time.
    """
    import numpy as np

    batch, have = [], 0
    for piece in pieces:
        batch.append(piece)
        have += len(piece)
        if have >= rows:
            joined, batch, have = np.concatenate(batch), [], 0
            yield joined
    if have:
        yield np.concatenate(batch)


class ContourGrid(_Record):
    """Entropy-sum samples on the full unit square of (V, P) pairs.

    ``values[i, j]`` holds H_q(V = axis[i]) + H_q(P = axis[j]); the matrix
    is exactly symmetric. The square deliberately extends beyond the
    physical disk P^2 + V^2 <= 1 so level sets can be drawn against the
    constraint arc, named by the class constant ``constraint``.
    """

    q: float
    n: int
    axis: np.ndarray
    values: np.ndarray
    constraint = "P^2+V^2=1"  # unannotated, so a class constant and not a field

    # compared by identity: its arrays have no single truth value
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def nearest_value(self, v: float, p: float) -> float:
        """Value at the grid node nearest to (v, p)."""
        for name, val in (("v", v), ("p", p)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val!r}")
        i = int(round(v * (self.n - 1)))
        j = int(round(p * (self.n - 1)))
        return float(self.values[i, j])


def _check_grid_q(q: float) -> None:
    _check_q(q)
    if q == math.inf:
        raise ValueError(f"contour grids require a finite Renyi index q, got {q!r}")


def _check_grid_n(n: int) -> None:
    _check_count("n", n, 32)


def _grid_entropies(q: float, n: int) -> tuple[list[float], list[float]]:
    """The float axis, with ``np.linspace(0, 1, n)``'s bits, and the H_q of each bias on it.

    The contour command prints the sums h_i + h_j of these floats, and
    ``contour_grid`` stores the same sums, so both hold the bits of
    ``entropy_sum`` at each node.
    """
    step = 1.0 / (n - 1)
    axis = [i * step for i in range(n - 1)] + [1.0]
    return axis, [_bias_entropy(x, q) for x in axis]


def contour_grid(q: float, n: int) -> ContourGrid:
    """Tabulate H_q(P) + H_q(V) on an n x n equispaced grid over [0, 1]^2."""
    _check_grid_q(q)
    _check_grid_n(n)
    import numpy as np

    values = np.empty((n, n))  # before any O(n) work, so a huge n fails at once
    axis, h = _grid_entropies(q, n)
    np.add.outer(h, h, out=values)
    return ContourGrid(q=q, n=n, axis=np.array(axis), values=values)


def unbiased_saturating_states(theta: float = 0.0) -> list[BlochVector]:
    """The four pure states with P = V = 1/sqrt(2) at off-diagonal phase theta.

    These are +/-(cos(theta)/sqrt 2, sin(theta)/sqrt 2, +/-1/sqrt 2); they
    saturate the duality bound at the balanced point and are the regime-III
    minimizers of the entropy sum.
    """
    _check_finite("theta", theta)
    cx = math.cos(theta) * _INV_SQRT2
    cy = math.sin(theta) * _INV_SQRT2
    return [
        BlochVector(cx, cy, _INV_SQRT2),
        BlochVector(cx, cy, -_INV_SQRT2),
        BlochVector(-cx, -cy, _INV_SQRT2),
        BlochVector(-cx, -cy, -_INV_SQRT2),
    ]


class RegionMinimum(_Record):
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
    in candidate order; its result is read by truthiness. Candidates mix a
    deterministic great-circle sweep in the x-z plane (hitting the cardinal
    states exactly), a seeded uniform sample of the sphere, and a seeded
    uniform sample of the ball, roughly n_samples in total. Raises if the
    predicate rejects every candidate.

    The candidates are made and ranked in blocks of ``_REGION_BLOCK`` rows
    (ball blocks: the rows kept from ``2 * _REGION_BLOCK`` draws) in one
    pass, so memory is O(_REGION_BLOCK) at any n_samples. Each block takes
    the norm rule, then its records, built together in C-level passes
    (``qubit._checked_blochs``) and held until the predicate has seen each
    one, then the array ranking of the accepted rows. Only the rows within
    1e-12 of the running array minimum are settled by their float values.
    The array and float evaluations agree within about 5e-15 for q in
    (0, 2], so no row further above can win: the result is the first strict
    minimum that a float loop over every accepted state finds, and the
    blocks change no bit of it. One record is built at the end, for the
    argmin.
    """
    _check_q_minimization(q)
    _check_count("n_samples", n_samples, 12)
    import numpy as np

    base = n_samples // 3
    sweep_n = max(4, base - base % 4)  # multiple of 4 puts poles/equator on the grid
    sphere_n = base
    ball_n = max(n_samples - sweep_n - sphere_n, 1)

    sweep = (
        np.column_stack([np.sin(psi), np.zeros(len(psi)), np.cos(psi)])
        for psi in _linspace_blocks(2.0 * math.pi, sweep_n, False, _REGION_BLOCK)
    )
    blocks = chain(
        sweep,
        _pure_blocks(sphere_n, seed, _REGION_BLOCK),
        _mixed_blocks(ball_n, seed + 1, _REGION_BLOCK),
    )

    # Each block takes BlochVector's norm rule in place, so its rows hold the
    # bits of the BlochVectors the predicate sees; a block's records are
    # dropped with it. Arrays rank the accepted rows; numpy may differ
    # from math in the last bits, so each row within 1e-12 of the running
    # array minimum is settled by its float value as its block is ranked,
    # first strict minimum kept.
    n_accepted = 0
    low = best_val = math.inf
    for block in blocks:
        s = _checked_rows(block)
        keep = list(compress(count(), map(region, _checked_blochs(*s.T.tolist()))))
        if not keep:
            continue
        n_accepted += len(keep)
        s = s[keep]
        vals = _state_entropy_sum(*s.T, q)
        low = min(low, float(vals.min()))
        for row in s[vals <= low + 1e-12].tolist():
            val = _state_entropy_sum(*row, q)
            if val < best_val:
                best_val, best = val, row
    if not n_accepted:
        raise ValueError("region predicate rejected every sampled state")
    (argmin,) = _checked_blochs(*[[x] for x in best])
    return RegionMinimum(min_value=best_val, argmin=argmin, n_accepted=n_accepted)


def _pure_blocks(n: int, seed: int, rows: int):
    """Yield the rows of ``random_pure_bloch(n, seed)`` in order, ``rows`` at a time.

    Each block is one ``rng.normal(size=(b, 3))`` draw, normalized. The
    ziggurat draws continue the generator's stream across calls, so the
    blocks hold the bits of one n-row draw. The known exception is the
    near-zero-norm redraw, about 1e-36 per row: it takes its draws right
    after its own block, not after all n rows.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    for start in range(0, n, rows):
        v = rng.normal(size=(min(rows, n - start), 3))
        norms = np.sqrt(_row_norms_sq(v))
        while np.any(norms < 1e-12):  # essentially impossible, but stay total
            bad = norms < 1e-12
            v[bad] = rng.normal(size=(int(bad.sum()), 3))
            norms = np.sqrt(_row_norms_sq(v))
        v /= norms[:, None]
        yield v


def _cube_blocks(n: int, seed: int, rows: int):
    """The cube draws behind ``random_mixed_bloch(n, seed)`` at half scale: (block, r2, inside).

    ``block`` is one draw of at most ``2 * rows`` points of the cube
    [-1/2, 1/2)^3, ``r2`` its ``_row_norms_sq`` and ``inside`` the mask of
    its rows that are among the first n rows of the seeded stream of cube
    points that fall in the ball of radius 1/2 (``r2 <= 0.25``). A uniform
    draw takes one double per element, so the draw sizes,
    ``2 * min(max(n - have, 64), rows)`` rows, change only how far past the
    n-th kept row the draws run.

    Twice a row is ``uniform(-1, 1)``'s -1 + 2u exactly: u is a multiple of
    2**-53 in [0, 1), so u - 0.5 is exact. Its squares and their sums are a
    quarter of the full-scale ones exactly, since a nonzero square is at
    least 2**-106 and never subnormal, so the mask is the one ``r2 <= 1``
    gives at full scale. Halving saves the pass that doubling would take
    over every draw; only the kept rows are doubled (``_doubled``).

    Only the caller holds a draw's arrays. A generator would hold them too
    while the caller works, which raised ``verify``'s heap enough for the C
    allocator to return pages and fault them in again on every call.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    have = 0

    def draw():
        nonlocal have
        if have >= n:
            return None
        block = rng.random(size=(2 * min(max(n - have, 64), rows), 3))
        block -= 0.5  # exact: half of uniform(-1, 1)'s -1 + 2u
        r2 = _row_norms_sq(block)
        inside = r2 <= 0.25
        kept = int(np.count_nonzero(inside))
        if kept > n - have:  # the rows past the n-th in the ball are not samples
            inside[np.flatnonzero(inside)[n - have :]] = False
            kept = n - have
        have += kept
        return block, r2, inside

    return iter(draw, None)


def _doubled(rows):
    """Half-scale rows of ``_cube_blocks`` doubled in place: full scale, exactly."""
    rows *= 2.0
    return rows


def _mixed_blocks(n: int, seed: int, rows: int):
    """The rows of ``random_mixed_bloch(n, seed)`` in order: an iterator of blocks.

    Each block holds the in-ball rows of one half-scale ``_cube_blocks``
    draw, about 1.05 ``rows`` of them, doubled in place: the bits of
    ``uniform(-1, 1)``'s rows. ``starmap``, unlike a loop, keeps no draw
    while the caller works on a block.
    """
    draws = _cube_blocks(n, seed, rows)
    return starmap(lambda block, _, inside: _doubled(block.compress(inside, axis=0)), draws)


def _gathered(n: int, blocks) -> np.ndarray:
    """The (n, 3) array of the rows that ``blocks`` yields, n in all."""
    import numpy as np

    out = np.empty((n, 3))
    have = 0
    for piece in blocks:
        out[have : have + len(piece)] = piece
        have += len(piece)
    return out


def random_pure_bloch(n: int, seed: int) -> np.ndarray:
    """n uniform points on the unit sphere: Gaussian draws, normalized.

    Rows come from ``_pure_blocks`` in blocks of ``_BLOCK``, so beyond the
    (n, 3) result only one block of draws is held at a time.
    """
    _check_count("n", n, 0)
    return _gathered(n, _pure_blocks(n, seed, _BLOCK))


def random_mixed_bloch(n: int, seed: int) -> np.ndarray:
    """n uniform points in the closed unit ball, by rejection from the cube.

    Rows come from ``_mixed_blocks``, so beyond the (n, 3) result only one
    block of draws is held at a time.
    """
    _check_count("n", n, 0)
    return _gathered(n, _mixed_blocks(n, seed, _BLOCK))
