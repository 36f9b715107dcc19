"""Mach-Zehnder interferometer elements acting on the path qubit.

The two arms are the computational basis; a symmetric beam splitter is the
spin rotation exp(-i pi sigma_y / 4) and a relative phase shifter is
exp(-i phi sigma_z / 2). Rotation convention: exp(-i theta n.sigma/2)
rotates the Bloch vector by +theta about n (right-hand rule), so the beam
splitter maps s -> (sz, sy, -sx) and in particular (0,0,1) -> (1,0,0).

Predictability P = |sz| and visibility V = 2r are the which-way and fringe
sharpness measures; V is also operationally recoverable from a phase scan
of the output port populations.
"""

from __future__ import annotations

import math

from .qubit import (
    TWO_PI,
    BlochObservable,
    BlochVector,
    QubitState,
    _check_count,
    _check_finite,
    _Record,
    _slots,
)


def apply_beam_splitter(state: QubitState) -> QubitState:
    """Rotate by +pi/2 about y: (sx, sy, sz) -> (sz, sy, -sx)."""
    s = state.bloch
    return QubitState(BlochVector(s.sz, s.sy, -s.sx))


def apply_phase_shifter(state: QubitState, phi: float) -> QubitState:
    """Rotate by +phi about z: the off-diagonal phase theta advances by phi."""
    _check_finite("phi", phi)
    s = state.bloch
    c, sn = math.cos(phi), math.sin(phi)
    return QubitState(BlochVector(s.sx * c - s.sy * sn, s.sx * sn + s.sy * c, s.sz))


def predictability(state: QubitState) -> float:
    """P = |<sigma_z>| = |sz|, the a-priori which-way knowledge."""
    return abs(state.bloch.sz)


def visibility(state: QubitState) -> float:
    """V = 2r = sqrt(sx^2 + sy^2), the analytic fringe visibility."""
    return math.hypot(state.bloch.sx, state.bloch.sy)


def predictability_op() -> BlochObservable:
    """The which-way observable sigma_z."""
    return BlochObservable(0.0, 1.0, (0.0, 0.0, 1.0))


def visibility_op(phi: float) -> BlochObservable:
    """The fringe quadrature cos(phi) sigma_x + sin(phi) sigma_y."""
    _check_finite("phi", phi)
    return BlochObservable(0.0, 1.0, (math.cos(phi), math.sin(phi), 0.0))


def visibility_perp_op(phi: float) -> BlochObservable:
    """The conjugate quadrature -sin(phi) sigma_x + cos(phi) sigma_y."""
    _check_finite("phi", phi)
    return BlochObservable(0.0, 1.0, (-math.sin(phi), math.cos(phi), 0.0))


class FringeScan(_Record):
    """Result of a phase scan of the second beam splitter's output port.

    ``v_operational`` = (p_max - p_min)/(p_max + p_min). On an even phase
    grid the sampled p's pair antipodally, so p_max + p_min = 1 up to
    round-off and the ratio converges to the analytic visibility with the
    grid-resolution error O((pi/n)^2).
    """

    p_max: float
    p_min: float
    v_operational: float
    phases: tuple[float, ...]
    p_d1: tuple[float, ...]
    p_d2: tuple[float, ...]


def fringe_scan(state: QubitState, n_phases: int) -> FringeScan:
    """Scan phi over n_phases equispaced points in [0, 2*pi).

    For each phi the state passes a phase shifter then a beam splitter and
    detector D1 clicks with probability w_plus of the output state. That
    output has sz = -(sx cos phi - sy sin phi), so the whole scan is the
    closed form p_d1 = (1 - (sx cos phi - sy sin phi))/2 over the grid
    2 pi i / n_phases, evaluated on Python floats with ``math.cos`` and
    ``math.sin``; that gives the bits of the same expression in numpy.
    A count whose n_phases list slots cannot be had raises MemoryError at once.
    """
    _check_count("n_phases", n_phases, 8)
    _slots(n_phases, f"n_phases {n_phases}: no memory for {n_phases} phases")
    sx, sy = state.bloch.sx, state.bloch.sy
    phases = tuple([TWO_PI * i / n_phases for i in range(n_phases)])
    p1 = tuple([
        (1.0 - (sx * c - sy * sn)) / 2.0
        for c, sn in zip(map(math.cos, phases), map(math.sin, phases))
    ])
    p_max, p_min = max(p1), min(p1)
    return FringeScan(
        p_max=p_max,
        p_min=p_min,
        v_operational=(p_max - p_min) / (p_max + p_min),
        phases=phases,
        p_d1=p1,
        p_d2=tuple([1.0 - x for x in p1]),
    )
