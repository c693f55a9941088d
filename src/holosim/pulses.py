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

A schedule is one parameter array (:class:`PulseSchedule`): synthesis
writes a column per segment of constant drive, edge-ramp samples
included, and the engine reads the columns.  :class:`Segment` is a
read-only view of a column, for code that reads one segment at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
DEGENERATE_GAMMA_TOL = 1e-9
#: Sample period of the edge ramps (s): an arbitrary waveform generator at
#: 1 GS/s holds each sample of the drive for 1 ns.
RAMP_SAMPLE_PERIOD = 1e-9

SCHEMES = ("tounhqc", "nhqc")
# the rows of PulseSchedule.table, by name
_TABLE_ROWS = ("t_start", "omega", "phi1_offset", "phi1_slope", "theta_mix", "phi0_offset")


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


class Segment(NamedTuple):
    """One stretch of a schedule: a column of its table, with the time it ends.

    ``phi1(t) = phi1_offset + phi1_slope * (t - t_start)`` is the common
    drive phase; ``phi0_offset`` is the constant extra phase on the
    |0>-|e> drive.  Only :attr:`PulseSchedule.segments` builds these.
    """

    t_start: float
    t_end: float
    omega: float
    phi1_offset: float
    phi1_slope: float
    theta_mix: float
    phi0_offset: float


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """Piecewise-constant drive parameters over [0, duration], one column per segment.

    ``table`` is a read-only float (6, n) array whose rows are t_start,
    omega, phi1_offset, phi1_slope, theta_mix and phi0_offset, the fields
    of :class:`Segment`.  Segment k ends where segment k + 1 starts and
    the last ends at ``duration``, so the segments cover [0, duration]
    without a gap.  Every entry is finite and every omega non-negative.
    ``omega0``, positive and finite, is the nominal peak amplitude; error
    injection uses it to normalize relative detunings.  ``edge_ramp`` is
    the length of the sin^2 edge ramps that synthesis sampled into the
    table (0 for none); the engine reads only the table.
    """

    duration: float
    table: np.ndarray
    omega0: float
    edge_ramp: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ValueError(f"schedule duration must be positive and finite, got {self.duration}")
        if not 0.0 < self.omega0 < math.inf:
            raise ValueError(f"schedule omega0 must be positive and finite, got {self.omega0}")
        table = np.array(self.table, dtype=float)  # the schedule's own copy
        if table.ndim != 2 or table.shape[0] != 6 or table.shape[1] == 0:
            raise ValueError(f"schedule table must have shape (6, n) with n >= 1, got {table.shape}")
        starts = table[0]
        if starts[0] != 0.0:
            raise ValueError("first segment must start at t = 0")
        # written so that a NaN fails
        if not ((starts[1:] > starts[:-1]).all() and starts[-1] < self.duration):
            raise ValueError("segment starts must increase strictly and lie below the duration")
        if not (table[1] >= 0.0).all():
            raise ValueError("drive amplitude must be non-negative")
        if not np.isfinite(table).all():
            row = _TABLE_ROWS[np.isfinite(table).all(axis=1).argmin()]
            raise ValueError(f"schedule table row {row} must be finite")
        if not 0.0 <= 2.0 * self.edge_ramp <= self.duration:  # a NaN fails
            raise ValueError("edge ramp must satisfy 0 <= 2*ramp <= duration")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def ends(self) -> tuple[float, ...]:
        """The time each segment ends: the next one's start, and ``duration`` for the last."""
        return (*self.table[0, 1:].tolist(), self.duration)

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The table's columns as :class:`Segment` views."""
        starts, *rest = self.table.tolist()
        return tuple(map(Segment, starts, self.ends, *rest))


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
    bounds = schedule.table[0, 1:]  # the ramp-free segment boundaries
    inner = bounds[(0.5 * ramp < bounds) & (bounds < tau - 0.5 * ramp)]
    t = np.concatenate([edge, inner + 0.5 * ramp, total - edge[::-1]])
    s = np.concatenate([area, inner, tau - area[::-1]])
    keep = np.append(True, np.diff(t) > 0.0)  # a flat top of zero length has no segment
    t, s = t[keep], s[keep]
    flat = (t[:-1] >= ramp) & (t[1:] <= total - ramp)
    env = np.where(flat, 1.0, np.diff(s) / np.diff(t))
    # each sample's ramp-free segment: the one that holds its midpoint in s
    source = np.searchsorted(bounds, 0.5 * (s[:-1] + s[1:]), side="right")
    start, omega, offset, slope, theta, phi0 = schedule.table[:, source]
    table = np.array([t[:-1], omega * env, offset + slope * (s[:-1] - start), slope * env, theta, phi0])
    return PulseSchedule(total, table, schedule.omega0, edge_ramp=ramp)


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
    table = np.array([[0.0], [omega0], [0.0], [2.0 * (spec.gamma - math.pi) / tau], [spec.theta],
                      [spec.phi + math.pi]])
    return _with_edge_ramps(PulseSchedule(tau, table, omega0), edge_ramp)


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
    table = np.array([[0.0, 0.5 * tau], [omega0] * 2, [0.0, spec.gamma - math.pi], [0.0] * 2,
                      [spec.theta] * 2, [spec.phi + math.pi] * 2])
    return _with_edge_ramps(PulseSchedule(tau, table, omega0), edge_ramp)


def synthesize(
    spec: GateSpec, omega0: float, scheme: str, edge_ramp: float = 0.0
) -> PulseSchedule:
    """Dispatch to one of the schedule families by name."""
    if scheme == "tounhqc":
        return synthesize_tounhqc(spec, omega0, edge_ramp)
    if scheme == "nhqc":
        return synthesize_nhqc(spec, omega0, edge_ramp)
    raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")


def segment_phase(table: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Common drive phase phi1 at ``times``, each in the segment of its ``table`` column."""
    return table[2] + table[3] * (times - table[0])
