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
from collections import deque
from itertools import repeat

# Construction tolerances (see also the CLI's --tolerance overrides).
EPS_POS = 1e-9   # Bloch-norm slack: norms in (1, 1+EPS_POS] are renormalized
EPS_PURE = 1e-9  # |norm - 1| threshold below which a state counts as pure
EPS_UNIT = 1e-12  # observable axis must be unit length within this
EPS_NORM = 1e-12  # probability pairs must sum to 1 within this

TWO_PI = 2.0 * math.pi

Vec3 = tuple[float, float, float]


class _Floats:
    """The numpy functions the float-or-array kernels call, done by math so floats keep math's bits."""

    sqrt = staticmethod(math.sqrt)
    abs = staticmethod(abs)
    hypot = staticmethod(math.hypot)
    log = staticmethod(math.log)
    expm1 = staticmethod(math.expm1)
    log1p = staticmethod(math.log1p)
    clip = staticmethod(lambda x, lo, hi: min(max(x, lo), hi))
    where = staticmethod(lambda cond, a, b: a if cond else b)


def _xp(x):
    """``_Floats`` for a float (numpy's float64 included), else numpy, imported only then."""
    if isinstance(x, float):
        return _Floats
    import numpy

    return numpy


class _Signature:
    """A record class's ``inspect.signature``: its fields, if it takes ``_Record.__init__``.

    Gives None for a class with its own ``__init__``, which ``inspect`` then
    reads; ``inspect`` is imported only when asked.
    """

    def __get__(self, record, cls):
        if cls.__init__ is not _Record.__init__:
            return None
        from inspect import Parameter as P, Signature

        return Signature([P(n, P.POSITIONAL_OR_KEYWORD) for n in cls._fields])


class _Record:
    """Base of the package's frozen records, in place of ``@dataclass(frozen=True)``.

    The fields are the names annotated in the class body, in order; none
    has a default, so a class constant goes unannotated. ``__init__`` binds
    arguments to fields by a dataclass's rules and stores them in field
    order; its ``TypeError`` names the class and the argument, worded a
    little apart from Python's own. Records that validate or coerce their
    input keep their own ``__init__``. Equality and hash go over the field
    values, the repr is the one a dataclass prints, and assignment or
    deletion raises ``dataclasses.FrozenInstanceError``; ``dataclasses``
    (and the inspect and ast modules it loads) is imported only then.
    """

    __slots__ = ()  # a subclass keeps its __dict__ unless it names its own slots
    _fields = ()
    __signature__ = _Signature()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(names)} positional arguments"
                f" but {len(args)} were given"
            )
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            kwargs[name] = value
        fields = self.__dict__
        for name in names:
            if name not in kwargs:
                raise TypeError(f"{cls.__qualname__}() missing required argument: {name!r}")
            fields[name] = kwargs.pop(name)
        if kwargs:
            unknown = next(iter(kwargs))
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {unknown!r}")

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


def _dot(u: Vec3, v: Vec3) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _check_finite(name: str, x: float) -> None:
    """Refuse a NaN or infinite angle by name, before cos or sin can take it."""
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


def _check_nonnegative(name: str, x: float) -> None:
    """Refuse a NaN, negative or infinite radius, tolerance or bias by name."""
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {x!r}")


def _check_count(name: str, n: int, low: int) -> None:
    """Refuse by name a count below low or not an integer (numpy's are; a bool is not)."""
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < low:
        raise ValueError(f"{name} must be at least {low}, got {n}")


def _slots(size: int, refusal: str) -> list[None]:
    """[None] * size, taken before any O(size) work so that a huge count fails at once.

    A size past a list's index range or past memory raises MemoryError(refusal).
    """
    try:
        return [None] * size
    except (OverflowError, MemoryError):
        raise MemoryError(refusal) from None


def _cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


class BlochVector(_Record):
    """Real 3-vector inside the unit ball; the full parametrization of a qubit state.

    Norms in (1, 1 + eps_pos] are renormalized to exactly 1 to absorb
    round-off from rotation compositions; anything larger is rejected
    because it does not describe a positive density operator. A NaN
    component is refused by its name. Both checks, and the read of eps_pos,
    which is refused by name if NaN, negative or infinite, run only for a
    norm above 1 or NaN.

    The three fields live in ``__slots__``, so a vector has no ``__dict__``
    and takes no weak reference. They are stored through the slots' own
    setters, which the frozen ``__setattr__`` does not reach. Pickles and
    copies carry the fields as a dict and are rebuilt from it without the
    norm rule, so they keep every bit; pickles of the earlier ``__dict__``
    class load the same way.
    """

    __slots__ = ("sx", "sy", "sz")
    sx: float
    sy: float
    sz: float

    def __init__(self, sx: float, sy: float, sz: float, eps_pos: float = EPS_POS) -> None:
        sx, sy, sz = float(sx), float(sy), float(sz)
        n = math.sqrt(sx * sx + sy * sy + sz * sz)
        if not n <= 1.0:  # NaN components too
            for name, x in (("sx", sx), ("sy", sy), ("sz", sz)):
                if math.isnan(x):
                    raise ValueError(f"Bloch component {name} is NaN")
            _check_nonnegative("eps_pos", eps_pos)
            if not n <= 1.0 + eps_pos:
                raise ValueError(
                    f"Bloch norm exceeds 1: ||s|| = {n!r} violates the positivity "
                    "invariant ||s|| <= 1"
                )
            sx, sy, sz = sx / n, sy / n, sz / n
        _set_sx(self, sx)
        _set_sy(self, sy)
        _set_sz(self, sz)

    def __getstate__(self) -> dict:
        return {"sx": self.sx, "sy": self.sy, "sz": self.sz}

    def __setstate__(self, state: dict) -> None:
        _set_sx(self, state["sx"])
        _set_sy(self, state["sy"])
        _set_sz(self, state["sz"])

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    @property
    def norm_sq(self) -> float:
        return self.sx * self.sx + self.sy * self.sy + self.sz * self.sz

    def as_tuple(self) -> Vec3:
        return (self.sx, self.sy, self.sz)


# the slots' setters, which store a field past the frozen __setattr__
_set_sx, _set_sy, _set_sz = (getattr(BlochVector, name).__set__ for name in BlochVector._fields)


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


def _checked_blochs(sx: list, sy: list, sz: list) -> list[BlochVector]:
    """The BlochVectors of rows known to lie in the unit ball, their floats stored as given.

    A row that ``_checked_rows`` has checked holds the bits that
    ``BlochVector(*raw_row)`` stores; a signed permutation of a vector's
    fields lies in the ball too. So this skips the coercion, the norm and
    the rule. The rows come as three lists of floats. One pass makes the
    records with ``object.__new__`` and one pass per field stores its
    floats through the slot's setter; no Python function runs per row.
    """
    records = list(map(object.__new__, repeat(BlochVector, len(sx))))
    for setter, values in ((_set_sx, sx), (_set_sy, sy), (_set_sz, sz)):
        deque(map(setter, records, values), 0)
    return records


class QubitState(_Record):
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
    def from_weights(cls, w_plus: float, r: float, theta: float, **kw) -> "QubitState":
        """Build from the (w+, r, theta) parametrization.

        ``kw`` (eps_pos) goes to ``from_bloch``.
        """
        if not 0.0 <= w_plus <= 1.0:
            raise ValueError(f"w_plus must lie in [0, 1], got {w_plus!r}")
        _check_nonnegative("r", r)
        _check_finite("theta", theta)
        return cls.from_bloch(
            2.0 * r * math.cos(theta), 2.0 * r * math.sin(theta), 2.0 * w_plus - 1.0, **kw
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


MAXIMALLY_MIXED = QubitState(BlochVector(0.0, 0.0, 0.0))


class BlochObservable(_Record):
    """Sharp two-level observable alpha1*I + alpha2*(axis . sigma).

    The axis must be a unit vector within EPS_UNIT = 1e-12; a zero axis,
    or one with a NaN component, fails that check. The axis is stored
    divided by its norm. Eigenvalues are alpha1 +/- alpha2, so alpha2 = 0
    would be a multiple of the identity and is rejected.
    """

    alpha1: float
    alpha2: float
    axis: Vec3

    def __init__(self, alpha1: float, alpha2: float, axis: Vec3) -> None:
        alpha1, alpha2 = float(alpha1), float(alpha2)
        if not (math.isfinite(alpha1) and math.isfinite(alpha2)):
            raise ValueError(f"alpha1, alpha2 must be finite, got {alpha1!r}, {alpha2!r}")
        if alpha2 == 0.0:
            raise ValueError("alpha2 must be nonzero (observable would be trivial)")
        ax, ay, az = map(float, axis)
        n = math.sqrt(ax * ax + ay * ay + az * az)
        if not abs(n - 1.0) <= EPS_UNIT:  # also rejects NaN components
            raise ValueError(f"axis must be a unit vector: ||a|| = {n!r}")
        fields = self.__dict__
        fields["alpha1"] = alpha1
        fields["alpha2"] = alpha2
        fields["axis"] = (ax / n, ay / n, az / n)

    @property
    def eigenvalues(self) -> tuple[float, float]:
        return (self.alpha1 + self.alpha2, self.alpha1 - self.alpha2)


class ProbPair(_Record):
    """Two-outcome Born distribution {p+, p-}; must be normalized."""

    p_plus: float
    p_minus: float

    def __init__(self, p_plus: float, p_minus: float) -> None:
        pair = float(p_plus), float(p_minus)
        for name, p in zip(("p_plus", "p_minus"), pair):
            if not -EPS_NORM <= p <= 1.0 + EPS_NORM:  # also rejects NaN
                raise ValueError(f"{name} = {p!r} outside [0, 1]")
        if abs(pair[0] + pair[1] - 1.0) > EPS_NORM:
            raise ValueError(f"probabilities must sum to 1: {pair[0]!r} + {pair[1]!r}")
        # absorb sub-tolerance round-off from |a.s| ~ 1 dot products
        fields = self.__dict__
        fields["p_plus"] = min(max(pair[0], 0.0), 1.0)
        fields["p_minus"] = min(max(pair[1], 0.0), 1.0)

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
