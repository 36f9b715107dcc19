"""Shared hypothesis strategies for states, axes and phases, and the fixed hypothesis profile."""

from __future__ import annotations

import math

from hypothesis import settings
from hypothesis import strategies as st

# every run at one commit draws the same examples: a search seeded from a hash
# of each test function, and no example database to replay earlier runs' finds;
# each test keeps its own max_examples
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")

_COMPONENT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def ball_points(draw, max_norm: float = 1.0):
    """Points of the closed Bloch ball, as raw (sx, sy, sz) tuples.

    A cube draw outside the ball is scaled onto its surface rather than
    rejected, so no draw is filtered away. The scaled point sits 1e-15
    inside, so that no summation order rounds its norm above max_norm
    and no later rotation has to renormalize it.
    """
    x, y, z = draw(_COMPONENT), draw(_COMPONENT), draw(_COMPONENT)
    norm_sq = x * x + y * y + z * z
    if norm_sq <= max_norm * max_norm:
        return (x, y, z)
    k = max_norm / math.sqrt(norm_sq) * (1.0 - 1e-15)
    return (x * k, y * k, z * k)


@st.composite
def sphere_points(draw):
    """Unit vectors: ball points pushed out to the sphere, (0, 0, 1) for near-zero draws."""
    x, y, z = draw(ball_points())
    n = math.sqrt(x * x + y * y + z * z)
    if n <= 1e-3:
        return (0.0, 0.0, 1.0)
    return (x / n, y / n, z / n)


phases = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
