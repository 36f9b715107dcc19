"""Bloch-sphere algebra for qubit states and two-outcome observables.

A qubit density operator is parametrized by a real 3-vector s with
``||s|| <= 1`` (rho = (I + s.sigma)/2); a sharp two-level observable by
an affine combination ``alpha1*I + alpha2*(a.sigma)`` with unit axis a.
Everything downstream (interferometry, uncertainty relations, entropies)
is computed from dot products of these vectors; no complex matrices are
ever materialized here.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

# Construction tolerances (see also the CLI's --tolerance overrides).
EPS_POS = 1e-9   # Bloch-norm slack: norms in (1, 1+EPS_POS] are renormalized
EPS_PURE = 1e-9  # |norm - 1| threshold below which a state counts as pure
EPS_UNIT = 1e-12  # observable axis must be unit length within this
EPS_NORM = 1e-12  # probability pairs must sum to 1 within this

TWO_PI = 2.0 * math.pi

Vec3 = tuple[float, float, float]


class _Floats:
    """The numpy functions the float-or-array kernels call, done by math so floats keep math's bits.

    ``maximum`` returns b on ties and NaN if either is NaN, as ``np.maximum``
    does, so ``maximum(-0.0, 0.0)`` is 0.0; ``out`` is ignored.
    """

    sqrt = staticmethod(math.sqrt)
    abs = staticmethod(abs)
    maximum = staticmethod(lambda a, b: a if a > b or a != a else b)
    log = staticmethod(lambda x, out=None: math.log(x))
    expm1 = staticmethod(lambda x, out=None: math.expm1(x))
    log1p = staticmethod(lambda x, out=None: math.log1p(x))
    clip = staticmethod(lambda x, lo, hi, out=None: max(lo, min(x, hi)))
    where = staticmethod(lambda cond, a, b: a if cond else b)


def _xp(x):
    """``_Floats`` for a float (numpy's float64 included), else numpy, imported only then."""
    if isinstance(x, float):
        return _Floats
    import numpy

    return numpy


def _dot(u: Vec3, v: Vec3) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


@dataclass(frozen=True, init=False)
class BlochVector:
    """Real 3-vector inside the unit ball; the full parametrization of a qubit state.

    Norms in (1, 1 + eps_pos] are renormalized to exactly 1 to absorb
    round-off from rotation compositions; anything larger is rejected
    because it does not describe a positive density operator.
    """

    sx: float
    sy: float
    sz: float

    def __init__(self, sx: float, sy: float, sz: float, eps_pos: float = EPS_POS) -> None:
        sx, sy, sz = float(sx), float(sy), float(sz)
        n = math.sqrt(sx * sx + sy * sy + sz * sz)
        if not n <= 1.0 + eps_pos:  # also rejects NaN components
            raise ValueError(
                f"Bloch norm exceeds 1: ||s|| = {n!r} violates the positivity "
                "invariant ||s|| <= 1"
            )
        if n > 1.0:
            sx, sy, sz = sx / n, sy / n, sz / n
        # frozen, so the fields go straight into the instance dict, once each
        fields = self.__dict__
        fields["sx"] = sx
        fields["sy"] = sy
        fields["sz"] = sz

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    @property
    def norm_sq(self) -> float:
        return self.sx * self.sx + self.sy * self.sy + self.sz * self.sz

    def as_tuple(self) -> Vec3:
        return (self.sx, self.sy, self.sz)

    def to_dict(self) -> dict:
        return {"s": [self.sx, self.sy, self.sz]}

    @classmethod
    def from_dict(cls, data: dict) -> "BlochVector":
        sx, sy, sz = data["s"]
        return cls(float(sx), float(sy), float(sz))


def _row_norms_sq(rows):
    """sx*sx + sy*sy + sz*sz for each row of an (n, 3) array, BlochVector's norm order.

    Bit for bit the row sums of ``rows * rows`` and the squares that
    ``np.linalg.norm(rows, axis=1)`` takes the root of, without the
    (n, 3) temporary or the row-wise reduction.
    """
    x, y, z = rows.T
    return x * x + y * y + z * z


def _checked_rows(rows, eps_pos: float = EPS_POS):
    """BlochVector's norm rule on each row of an (n, 3) array, in place.

    Norms in (1, 1 + eps_pos] are rescaled to 1, giving each row the bits
    of the BlochVector built from it; a larger norm, or a NaN, raises
    BlochVector's own error for the first such row.
    """
    import numpy as np

    norm = np.sqrt(_row_norms_sq(rows))
    bad = np.flatnonzero(~(norm <= 1.0 + eps_pos))
    if bad.size:
        BlochVector(*rows[bad[0]], eps_pos=eps_pos)  # raises: same norm expression
    over = norm > 1.0
    rows[over] /= norm[over, None]
    return rows


@dataclass(frozen=True)
class QubitState:
    """Qubit density operator in Bloch form, with the derived state variables.

    ``w_plus``/``w_minus`` are the populations of the two computational
    (path) modes, ``r`` the off-diagonal magnitude and ``theta`` its phase,
    matching the explicit matrix [[w+, r e^{-i theta}], [r e^{i theta}, w-]].
    """

    bloch: BlochVector

    @classmethod
    def from_bloch(cls, sx: float, sy: float, sz: float, **kw) -> "QubitState":
        return cls(BlochVector(sx, sy, sz, **kw))

    @classmethod
    def from_weights(cls, w_plus: float, r: float, theta: float) -> "QubitState":
        """Build from the (w+, r, theta) parametrization."""
        if not 0.0 <= w_plus <= 1.0:
            raise ValueError(f"w_plus must lie in [0, 1], got {w_plus!r}")
        if not 0.0 <= r < math.inf:
            raise ValueError(f"r must be finite and nonnegative, got {r!r}")
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta!r}")
        return cls.from_bloch(
            2.0 * r * math.cos(theta), 2.0 * r * math.sin(theta), 2.0 * w_plus - 1.0
        )

    @property
    def w_plus(self) -> float:
        return (1.0 + self.bloch.sz) / 2.0

    @property
    def w_minus(self) -> float:
        return (1.0 - self.bloch.sz) / 2.0

    @property
    def r(self) -> float:
        return math.hypot(self.bloch.sx, self.bloch.sy) / 2.0

    @property
    def theta(self) -> float:
        """Off-diagonal phase in [0, 2*pi); 0 by convention when r = 0."""
        if self.r == 0.0:
            return 0.0
        t = math.atan2(self.bloch.sy, self.bloch.sx) % TWO_PI
        # the modulo can round up to 2*pi for tiny negative angles
        return 0.0 if t >= TWO_PI else t

    @property
    def purity(self) -> float:
        """Tr(rho^2) = (1 + ||s||^2)/2, between 1/2 (maximally mixed) and 1."""
        return (1.0 + self.bloch.norm_sq) / 2.0

    @property
    def is_pure(self) -> bool:
        return abs(self.bloch.norm - 1.0) <= EPS_PURE

    def to_dict(self) -> dict:
        return self.bloch.to_dict()

    @classmethod
    def from_dict(cls, data: dict) -> "QubitState":
        return cls(BlochVector.from_dict(data))


MAXIMALLY_MIXED = QubitState(BlochVector(0.0, 0.0, 0.0))


@dataclass(frozen=True)
class BlochObservable:
    """Sharp two-level observable alpha1*I + alpha2*(axis . sigma).

    The axis must be a unit vector (within eps_unit); it is stored exactly
    normalized. Eigenvalues are alpha1 +/- alpha2, so alpha2 = 0 would be a
    multiple of the identity and is rejected.
    """

    alpha1: float
    alpha2: float
    axis: Vec3
    eps_unit: InitVar[float] = EPS_UNIT

    def __post_init__(self, eps_unit: float) -> None:
        object.__setattr__(self, "alpha1", float(self.alpha1))
        object.__setattr__(self, "alpha2", float(self.alpha2))
        if not (math.isfinite(self.alpha1) and math.isfinite(self.alpha2)):
            raise ValueError(f"alpha1, alpha2 must be finite, got {self.alpha1!r}, {self.alpha2!r}")
        if self.alpha2 == 0.0:
            raise ValueError("alpha2 must be nonzero (observable would be trivial)")
        ax, ay, az = (float(c) for c in self.axis)
        n = math.sqrt(ax * ax + ay * ay + az * az)
        if abs(n - 1.0) > eps_unit:
            raise ValueError(f"axis must be a unit vector: ||a|| = {n!r}")
        object.__setattr__(self, "axis", (ax / n, ay / n, az / n))

    @property
    def eigenvalues(self) -> tuple[float, float]:
        return (self.alpha1 + self.alpha2, self.alpha1 - self.alpha2)

    def to_dict(self) -> dict:
        return {"alpha1": self.alpha1, "alpha2": self.alpha2, "axis": list(self.axis)}

    @classmethod
    def from_dict(cls, data: dict) -> "BlochObservable":
        ax, ay, az = data["axis"]
        return cls(float(data["alpha1"]), float(data["alpha2"]), (float(ax), float(ay), float(az)))


@dataclass(frozen=True)
class ProbPair:
    """Two-outcome Born distribution {p+, p-}; must be normalized."""

    p_plus: float
    p_minus: float

    def __post_init__(self) -> None:
        pair = float(self.p_plus), float(self.p_minus)
        for name, p in zip(("p_plus", "p_minus"), pair):
            if not -EPS_NORM <= p <= 1.0 + EPS_NORM:  # also rejects NaN
                raise ValueError(f"{name} = {p!r} outside [0, 1]")
        if abs(pair[0] + pair[1] - 1.0) > EPS_NORM:
            raise ValueError(f"probabilities must sum to 1: {pair[0]!r} + {pair[1]!r}")
        for name, p in zip(("p_plus", "p_minus"), pair):
            # absorb sub-tolerance round-off from |a.s| ~ 1 dot products
            object.__setattr__(self, name, min(max(p, 0.0), 1.0))

    @property
    def max_prob(self) -> float:
        return max(self.p_plus, self.p_minus)

    def as_tuple(self) -> tuple[float, float]:
        return (self.p_plus, self.p_minus)


def probabilities(obs: BlochObservable, state: QubitState) -> ProbPair:
    """Born-rule outcome distribution {(1 + a.s)/2, (1 - a.s)/2}."""
    d = _dot(obs.axis, state.bloch.as_tuple())
    return ProbPair((1.0 + d) / 2.0, (1.0 - d) / 2.0)


def expectation(obs: BlochObservable, state: QubitState) -> float:
    """<A> = alpha1 + alpha2 * (a . s)."""
    return obs.alpha1 + obs.alpha2 * _dot(obs.axis, state.bloch.as_tuple())


def variance(obs: BlochObservable, state: QubitState) -> float:
    """(Delta A)^2 = alpha2^2 * [1 - (a . s)^2], in [0, alpha2^2]."""
    d = _dot(obs.axis, state.bloch.as_tuple())
    return obs.alpha2 * obs.alpha2 * (1.0 - d * d)


def overlap(obs_a: BlochObservable, obs_b: BlochObservable) -> float:
    """Maximal eigenbasis overlap c = max |<a_i|b_j>| = sqrt((1 + |a.b|)/2).

    Lies in [1/sqrt(2), 1]; the lower end is attained exactly for
    complementary observables (orthogonal axes).
    """
    t = abs(_dot(obs_a.axis, obs_b.axis))
    return math.sqrt((1.0 + min(t, 1.0)) / 2.0)
