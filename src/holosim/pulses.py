"""Gate specs, bright/dark bases and loop schedules.

A gate is a rotation by ``gamma`` about the Bloch axis
``n = (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta))``.  Both
schedule families realize it on a three-level Lambda system as a single
cyclic loop of the bright state against the auxiliary level:

* ``tounhqc`` -- time-optimal loop: constant drive amplitude with a linearly
  swept common drive phase, duration ``2 sqrt(pi^2 - (pi - gamma)^2) / omega0``.
* ``nhqc`` -- conventional loop: two pi-area segments of duration
  ``pi / omega0`` each, with a phase jump of ``gamma - pi`` at the midpoint,
  total duration ``2 pi / omega0``.

Drive-phase convention (fixed once, package-wide): the |1>-|e> drive carries
the common swept phase ``phi1(t)``; the |0>-|e> drive carries
``phi1(t) + phi + pi``.  The constant offset keeps the dark state decoupled
at all times, and the extra ``pi`` together with the slope sign
``2 (gamma - pi) / tau`` makes the realized qubit block equal the ideal
rotation matrix, which :mod:`holosim.gates` builds, up to a global phase,
for both schedule families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
DEGENERATE_GAMMA_TOL = 1e-9
#: Sample period of the edge ramps (s): an arbitrary waveform generator at
#: 1 GS/s holds each sample of the drive for 1 ns.
RAMP_SAMPLE_PERIOD = 1e-9

SCHEMES = ("tounhqc", "nhqc")


@dataclass(frozen=True)
class GateSpec:
    """Target rotation: angle ``gamma`` about the axis set by (theta, phi)."""

    theta: float
    phi: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < TWO_PI:
            raise ValueError(f"phi must lie in [0, 2 pi), got {self.phi}")
        if not 0.0 < self.gamma < TWO_PI:
            raise ValueError(
                f"gamma must lie in (0, 2 pi), got {self.gamma}; "
                "the identity gate has no loop"
            )


@dataclass(frozen=True)
class Segment:
    """One piecewise-defined stretch of a schedule.

    ``phi1(t) = phi1_offset + phi1_slope * (t - t_start)`` is the common
    drive phase; ``phi0_offset`` is the constant extra phase on the
    |0>-|e> drive.
    """

    t_start: float
    t_end: float
    omega: float
    phi1_offset: float
    phi1_slope: float
    theta_mix: float
    phi0_offset: float

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("segment must have positive duration")
        if self.omega < 0.0:
            raise ValueError("drive amplitude must be non-negative")


@dataclass(frozen=True)
class PulseSchedule:
    """Contiguous segments covering [0, duration].

    ``omega0`` is the nominal peak amplitude; error injection uses it to
    normalize relative detunings.  ``edge_ramp`` is the length of the sin^2
    edge ramps that synthesis sampled into the segments (0 for none); the
    engine reads only the segments.
    """

    duration: float
    segments: tuple[Segment, ...]
    omega0: float
    edge_ramp: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ValueError(f"schedule duration must be positive and finite, got {self.duration}")
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        if abs(self.segments[0].t_start) > 1e-15 * self.duration:
            raise ValueError("first segment must start at t = 0")
        for a, b in zip(self.segments, self.segments[1:]):
            if not math.isclose(a.t_end, b.t_start, rel_tol=0.0, abs_tol=1e-12 * self.duration):
                raise ValueError("segments must be contiguous")
        last = self.segments[-1]
        if not math.isclose(last.t_end, self.duration, rel_tol=0.0, abs_tol=1e-12 * self.duration):
            raise ValueError("segments must cover the full duration")
        if self.edge_ramp < 0.0 or 2.0 * self.edge_ramp > self.duration:
            raise ValueError("edge ramp must satisfy 0 <= 2*ramp <= duration")


def bright_dark_basis(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Bright/dark superpositions of |0>, |1> embedded in the qutrit.

    bright = sin(theta/2) e^{i phi} |0> + cos(theta/2) |1>
    dark   = cos(theta/2) e^{i phi} |0> - sin(theta/2) |1>
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    s, c = math.sin(0.5 * theta), math.cos(0.5 * theta)
    ph = np.exp(1j * phi)
    bright = np.array([s * ph, c, 0.0], dtype=complex)
    dark = np.array([c * ph, -s, 0.0], dtype=complex)
    return bright, dark


def tounhqc_duration(gamma: float, omega0: float) -> float:
    """Time-optimal loop duration 2 sqrt(pi^2 - (pi - gamma)^2) / omega0."""
    return 2.0 * math.sqrt(math.pi**2 - (math.pi - gamma) ** 2) / omega0


def nhqc_duration(omega0: float) -> float:
    """Conventional two-segment loop duration 2 pi / omega0."""
    return TWO_PI / omega0


def _check_synthesis_args(spec: GateSpec, omega0: float) -> None:
    if omega0 <= 0.0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    if spec.gamma < DEGENERATE_GAMMA_TOL or TWO_PI - spec.gamma < DEGENERATE_GAMMA_TOL:
        raise ValueError(
            f"gamma = {spec.gamma} is degenerate: the loop closes with zero phase"
        )


def _with_edge_ramps(schedule: PulseSchedule, ramp: float) -> PulseSchedule:
    """``schedule`` with sin^2 edge ramps of length ``ramp``, stretched to duration + ramp.

    Time is reparametrized: the ramp-free schedule's time s runs as the
    area s(t) under the envelope env(t), which rises as sin^2 over the first
    ``ramp``, holds 1 and falls as sin^2 over the last ``ramp``.  Both the
    drive and the chirp phi1' are scaled by env, so the frame generator is
    env(t) times the ramp-free one at s(t), and the loop closes exactly.
    Each ramp is sampled as an arbitrary waveform generator outputs it:
    cut into ceil(ramp / RAMP_SAMPLE_PERIOD) equal samples, each an
    ordinary segment whose env is the exact mean of the sin^2 over it.
    phi1 is continuous across the samples; a ramp-free segment boundary
    (the nhqc phase jump at s = duration / 2) keeps its s.
    """
    if not 0.0 <= ramp <= schedule.duration:
        raise ValueError("edge ramp must satisfy 0 <= ramp <= the ramp-free duration")
    if ramp == 0.0:
        return schedule
    tau, total = schedule.duration, schedule.duration + ramp
    edge = np.linspace(0.0, ramp, max(1, math.ceil(ramp / RAMP_SAMPLE_PERIOD * (1.0 - 1e-12))) + 1)
    area = 0.5 * edge - ramp / TWO_PI * np.sin(math.pi * edge / ramp)  # s at the rising samples
    inner = [seg.t_end for seg in schedule.segments[:-1] if 0.5 * ramp < seg.t_end < tau - 0.5 * ramp]
    t = np.concatenate([edge, np.add(inner, 0.5 * ramp), total - edge[::-1]])
    s = np.concatenate([area, inner, tau - area[::-1]])
    keep = np.append(True, np.diff(t) > 0.0)  # a flat top of zero length has no segment
    t, s = t[keep], s[keep]
    flat = (t[:-1] >= ramp) & (t[1:] <= total - ramp)
    env = np.where(flat, 1.0, np.diff(s) / np.diff(t))
    segments = []
    for a, b, s_a, s_b, k in zip(t, t[1:], s, s[1:], env):
        seg = next(x for x in schedule.segments if 0.5 * (s_a + s_b) < x.t_end)
        segments.append(Segment(
            t_start=a,
            t_end=b,
            omega=seg.omega * k,
            phi1_offset=seg.phi1_offset + seg.phi1_slope * (s_a - seg.t_start),
            phi1_slope=seg.phi1_slope * k,
            theta_mix=seg.theta_mix,
            phi0_offset=seg.phi0_offset,
        ))
    return PulseSchedule(total, tuple(segments), schedule.omega0, edge_ramp=ramp)


def synthesize_tounhqc(
    spec: GateSpec, omega0: float, edge_ramp: float = 0.0
) -> PulseSchedule:
    """Time-optimal schedule: one segment, constant amplitude, linear phase.

    The common phase sweeps as ``2 (gamma - pi) t / tau`` (slope magnitude
    ``2 |pi - gamma| / tau``; the sign realizes the ideal gate matrix under
    the package drive convention, and flips automatically for gamma > pi).
    ``edge_ramp`` > 0 adds sampled sin^2 ramps (:func:`_with_edge_ramps`).
    """
    _check_synthesis_args(spec, omega0)
    tau = tounhqc_duration(spec.gamma, omega0)
    segment = Segment(
        t_start=0.0,
        t_end=tau,
        omega=omega0,
        phi1_offset=0.0,
        phi1_slope=2.0 * (spec.gamma - math.pi) / tau,
        theta_mix=spec.theta,
        phi0_offset=spec.phi + math.pi,
    )
    return _with_edge_ramps(PulseSchedule(duration=tau, segments=(segment,), omega0=omega0), edge_ramp)


def synthesize_nhqc(
    spec: GateSpec, omega0: float, edge_ramp: float = 0.0
) -> PulseSchedule:
    """Conventional schedule: two pi-area segments with a midpoint phase jump.

    Each segment holds the common phase constant; the jump of ``gamma - pi``
    at ``tau / 2`` sets the loop phase.  Total duration is ``2 pi / omega0``
    independent of gamma.  ``edge_ramp`` > 0 adds sampled sin^2 ramps
    (:func:`_with_edge_ramps`).
    """
    _check_synthesis_args(spec, omega0)
    tau = nhqc_duration(omega0)
    half = 0.5 * tau
    common = dict(
        omega=omega0,
        phi1_slope=0.0,
        theta_mix=spec.theta,
        phi0_offset=spec.phi + math.pi,
    )
    segments = (
        Segment(t_start=0.0, t_end=half, phi1_offset=0.0, **common),
        Segment(t_start=half, t_end=tau, phi1_offset=spec.gamma - math.pi, **common),
    )
    return _with_edge_ramps(PulseSchedule(duration=tau, segments=segments, omega0=omega0), edge_ramp)


def synthesize(
    spec: GateSpec, omega0: float, scheme: str, edge_ramp: float = 0.0
) -> PulseSchedule:
    """Dispatch to one of the schedule families by name."""
    if scheme == "tounhqc":
        return synthesize_tounhqc(spec, omega0, edge_ramp)
    if scheme == "nhqc":
        return synthesize_nhqc(spec, omega0, edge_ramp)
    raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")


def segment_table(segments) -> np.ndarray:
    """Segment parameters as the rows of a (6, len(segments)) array.

    The rows are t_start, omega, phi1_offset, phi1_slope, theta_mix and
    phi0_offset; column k belongs to ``segments[k]``.
    """
    return np.array([
        [seg.t_start for seg in segments],
        [seg.omega for seg in segments],
        [seg.phi1_offset for seg in segments],
        [seg.phi1_slope for seg in segments],
        [seg.theta_mix for seg in segments],
        [seg.phi0_offset for seg in segments],
    ])


def segment_phase(table: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Common drive phase phi1 at ``times``, each in the segment of its ``table`` column."""
    return table[2] + table[3] * (times - table[0])
