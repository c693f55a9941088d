"""Time-ordered propagation under a pulse schedule, in the co-rotating frame.

Every segment of a schedule has a drive phase phi1(t) that is linear in
time, so in the co-rotating frame psi = D(t) psi~ with
D(t) = exp(-i phi1(t) |e><e|) the generator is
G = D^dag H D - phi1' |e><e|, control errors included, and it is constant
on each segment.  G does not depend on phi1, so the engine writes it
straight from the columns of the schedule's parameter table
(``PulseSchedule.table``, :func:`_frame_generators`) and never forms the
lab Hamiltonian H.  Edge ramps are no exception: synthesis samples them
into ordinary columns (``pulses.RAMP_SAMPLE_PERIOD``).  The frame
multiplies entry (i, j) of a collapse operator c by
exp(i phi1 (delta_ie - delta_je)); the engine takes only collapse
operators whose nonzero entries all share one such phase class, so every
dissipator is the same in the frame as in the lab, and raises ValueError
for any other.  One engine propagates every schedule in that frame.  Each
segment is a piece, from its start in the table to the next start (the
last to the duration), and each piece maps by one exact exponential of
its generator over the time from its start to each time it is wanted at:
its end for a full-schedule map.  A trajectory takes N equal steps and
records the map at the end of each, N + 1 rows at
np.linspace(0, duration, N + 1): each piece takes the rows in (start, end],
and its end, for chaining, when that is not a row.  Without noise each row
takes its own closed-form exponential.  With noise a piece takes the Pade
exponential only to its first row, over one step and to an end that is
not a row, and the rows between are powers of the step's map times the
first row's (:func:`_powers`).

Each piece's frame map is rebased to the lab frame at its ends,
D(t_end) M D(t_start)^dag, and the pieces are chained; piece 0 starts
from the identity, so its rebase only scales columns and rows.  Only the
trajectory views (:func:`evolve_pure`, :func:`evolve_density`) read an
:class:`IntegratorConfig`: :func:`trajectory_steps` turns its step into N
(DEFAULT_STEPS without one, at most MAX_STEPS) and they pass N on.  A
full-schedule map takes no step.

:func:`_frame_maps` is the engine's one entry point.  It alone turns the
noise model into collapse operators and checks their phase class, and
lifts noiseless unitaries to channels U (x) conj(U); every public
function is a view of it.  One call can cover many schedules.
:func:`gate_channels` builds the channels of a list of schedules: the
pieces of all of them share one stack of maps, laid out schedule after
schedule, each bitwise-distinct pair of frame generator and duration among
their pieces is exponentiated once, in one batched call (the two halves of
an nhqc loop are one such pair), and piece k of every schedule is rebased
and chained in one step, onto the end of the piece before it.
:func:`gate_channel` is its one-schedule case, and a channel is bitwise
the same alone or in a batch.

Every frame generator is zero outside the |e> row and column, so its
exponential has a closed form, computed elementwise over the whole stack
(:func:`_step_propagators`).  Liouvillians, which are not normal, go
through :func:`_expm`, a batched [13/13] Pade exponential with
per-matrix scaling and squaring (Higham 2005) on numpy alone.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .pulses import PulseSchedule, segment_phase
from .quantum import unitary_channel

#: Qutrit basis ordering used throughout: (|0>, |1>, |e>).
QUTRIT_LEVELS = (0, 1, 2)
QUTRIT_DIM = 3

#: The equal steps of a trajectory without a step size.
DEFAULT_STEPS = 100
#: The most steps a trajectory takes, 50 times the default: its recorded
#: maps grow as 1/dt.
MAX_STEPS = 5000


@dataclass(frozen=True)
class ErrorInjection:
    """Static control errors of the drive.

    ``amp_fraction`` scales both drive amplitudes by (1 + amp_fraction).
    ``detuning_fraction`` adds a diagonal term on the auxiliary level of
    size detuning_fraction * omega0; a detuning in rad/s enters as its
    fraction of omega0.  This is the one-error case of :func:`error_table`.
    """

    amp_fraction: float = 0.0
    detuning_fraction: float = 0.0


NO_ERROR = ErrorInjection()


def error_table(amp_fraction=0.0, detuning_fraction=0.0) -> np.ndarray:
    """A batch of control errors as the columns of a (2, n) array.

    The rows are amp_fraction and detuning_fraction, as in
    :class:`ErrorInjection`.  The arguments broadcast against each other
    and are flattened in row-major order: column k is error k.
    """
    return np.array(np.broadcast_arrays(amp_fraction, detuning_fraction), dtype=float).reshape(2, -1)


def _one_error(err: ErrorInjection) -> np.ndarray:
    """The one-column :func:`error_table` of ``err``."""
    return error_table(err.amp_fraction, err.detuning_fraction)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Collapse operators with rates for Lindblad evolution.

    An empty operator list means purely unitary evolution.  Rates are in
    1/s; each operator enters the dissipator as sqrt(rate) * op.
    """

    collapse_ops: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self):
        for op, rate in self.collapse_ops:
            # a NaN rate would pass "rate < 0" and then count as no noise
            if not 0.0 <= rate < math.inf:
                raise ValueError(f"collapse rate must be finite and non-negative, got {rate}")
            mat = np.asarray(op)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError("collapse operators must be square matrices")
            if not np.isfinite(mat).all():
                raise ValueError("collapse operator has a non-finite entry")

    @property
    def is_empty(self) -> bool:
        return not any(rate > 0.0 for _, rate in self.collapse_ops)

    def scaled_ops(self, dim: int) -> np.ndarray:
        """Stack of sqrt(rate)-scaled collapse operators, shape (K, dim, dim)."""
        ops = [
            math.sqrt(rate) * np.asarray(op, dtype=complex)
            for op, rate in self.collapse_ops
            if rate > 0.0
        ]
        for op in ops:
            if op.shape != (dim, dim):
                raise ValueError(
                    f"collapse operator shape {op.shape} does not match dim {dim}"
                )
        if not ops:
            return np.zeros((0, dim, dim), dtype=complex)
        return np.stack(ops)

    @classmethod
    def qutrit_relaxation(
        cls,
        t1_e_to_0: Optional[float] = None,
        t1_1_to_e: Optional[float] = None,
        tphi_e: Optional[float] = None,
        tphi_1: Optional[float] = None,
    ) -> "NoiseModel":
        """Transmon-ladder model on the (|0>, |1>, |e>) qutrit.

        Sequential decay |e> -> |0> and |1> -> |e> (the qubit level |1> sits
        above the auxiliary level), plus pure dephasing of |e> and |1>.
        Dephasing operators are sqrt(2/Tphi) |k><k|, so the coherence between
        |k> and a non-dephasing level decays at 1/Tphi.  ``None`` or an
        infinite time disables a channel; any other time must be positive.
        """
        # (name, time, nonzero entry, rate * time), in the order the dissipator sums them
        table = (
            ("t1_e_to_0", t1_e_to_0, (0, 2), 1.0),
            ("t1_1_to_e", t1_1_to_e, (2, 1), 1.0),
            ("tphi_e", tphi_e, (2, 2), 2.0),
            ("tphi_1", tphi_1, (1, 1), 2.0),
        )
        ops = []
        for name, time, entry, scale in table:
            if time is not None:
                if not time > 0.0:  # written so that NaN fails too
                    raise ValueError(f"{name} must be positive, got {time}")
                op = np.zeros((3, 3), dtype=complex)
                op[entry] = 1.0
                ops.append((op, scale / time))
        return cls(collapse_ops=tuple(ops))


NO_NOISE = NoiseModel()


@dataclass(frozen=True)
class IntegratorConfig:
    """The step size of a trajectory; ``dt = None`` takes ``DEFAULT_STEPS`` steps.

    It sets only the times a trajectory records; :func:`trajectory_steps`
    turns it into a number of equal steps.
    """

    dt: Optional[float] = None

    def __post_init__(self):
        # a NaN step would pass "dt <= 0"
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


DEFAULT_CONFIG = IntegratorConfig()


class Trajectory(NamedTuple):
    times: np.ndarray
    states: np.ndarray


def _step_propagators(gens: np.ndarray, taus: np.ndarray, ie: int) -> np.ndarray:
    """Exact exp(-i G_k tau_k) for a stack of Hermitian generators that act through |e> alone.

    Every frame generator is zero outside the |e> row and column.  With
    x = tau G[rest, e] and h = tau G[e, e] / 2, exp(-i G tau) leaves the
    states orthogonal to x and |e> alone and turns the bright state
    x/|x| and |e> by a 2x2 rotation of angle lam = sqrt(|x|^2 + h^2),
    times the phase p = exp(-i h).
    """
    col = taus[:, None] * gens[:, :, ie]
    h = 0.5 * col[:, ie].real
    col[:, ie] = 0.0
    xx = (col.real ** 2 + col.imag ** 2).sum(axis=1)
    lam = np.sqrt(xx + h * h)
    cos, sinc = np.cos(lam), np.sinc(lam / np.pi)
    p = np.exp(-1j * h)
    # the bright state's amplitude minus 1, per |x|^2; 0 where nothing couples to |e>
    bright = np.divide(p * (cos + 1j * h * sinc) - 1.0, xx, out=np.zeros_like(p), where=xx > 0.0)
    out = bright[:, None, None] * col[:, :, None] * col.conj()[:, None, :]
    diag = np.arange(gens.shape[-1])
    out[:, diag, diag] += 1.0
    turn = -1j * p * sinc
    out[:, :, ie] = turn[:, None] * col
    out[:, ie, :] = turn[:, None] * col.conj()
    out[:, ie, ie] = p * (cos - 1j * h * sinc)
    return out


# Scaling and squaring with the [13/13] Pade approximant (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179 (2005)): it is accurate to double precision
# while ||A||_1 <= theta_13.
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
            33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
# rows that combine (1, A^2, A^4, A^6) into the high and low parts of U' and
# V, where A U' = b1 A + b3 A^3 + ... and V = b0 + b2 A^2 + ...: A^6 is
# factored out of the high parts
_PADE_ROWS = np.array([(0.0, *_PADE_13[9::2]), (0.0, *_PADE_13[8::2]), _PADE_13[1:8:2], _PADE_13[0:7:2]])


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponentials of an (n, d, d) stack.

    Each matrix is scaled by 2^-s into the range of theta_13, with its own
    s (0 if its 1-norm is in range already), and the whole stack takes the
    [13/13] approximant exp(A) ~ (V - U)^-1 (V + U), with odd part U = A U'
    and even part V.  Only the matrices with s > k are squared in round k,
    so each matrix is bitwise its own exponential alone.
    """
    a = np.asarray(a, dtype=np.result_type(a, float))
    n, d, _ = a.shape
    norms = np.abs(a).sum(axis=1).max(axis=1)
    squarings = np.zeros(n, dtype=int)
    high = norms > _THETA_13
    squarings[high] = np.ceil(np.log2(norms[high] / _THETA_13))
    a = a * np.exp2(-squarings)[:, None, None]
    powers = np.empty((4, n, d, d), dtype=a.dtype)
    powers[0] = np.eye(d)
    np.matmul(a, a, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    # one small product per matrix: a single product over the flattened
    # stack is large enough for the BLAS library to split across threads,
    # which at these sizes costs far more than it saves
    parts = _PADE_ROWS @ powers.reshape(4, n, d * d).swapaxes(0, 1)
    parts = parts.swapaxes(0, 1).reshape(4, n, d, d)
    u_part, v = powers[3] @ parts[:2] + parts[2:]
    u = a @ u_part
    # (V - U)^-1 (V + U) = 1 + 2 (V - U)^-1 U: the identity is added exactly,
    # so a small exponent keeps its relative accuracy
    out = powers[0] + np.linalg.solve(v - u, 2.0 * u)
    for k in range(squarings.max(initial=0)):
        sel = squarings > k
        out[sel] = out[sel] @ out[sel]
    return out


def _dissipator(c_ops: np.ndarray) -> np.ndarray:
    """Row-major dissipator of ``c_ops`` (K, d, d), which carry sqrt(rate), (d^2, d^2)."""
    d = c_ops.shape[-1]
    eye = np.eye(d)
    cdc = np.einsum("kji,kjl->il", c_ops.conj(), c_ops)
    jump = np.einsum("kij,klm->iljm", c_ops, c_ops.conj()).reshape(d * d, d * d)
    # cdc (x) 1 and 1 (x) cdc^T as broadcast products, bitwise equal to np.kron
    left = (cdc[:, None, :, None] * eye[None, :, None, :]).reshape(d * d, d * d)
    right = (eye[:, None, :, None] * cdc.T[None, :, None, :]).reshape(d * d, d * d)
    return jump - 0.5 * (left + right)


def _liouvillians(gens: np.ndarray, dissipator: np.ndarray) -> np.ndarray:
    """Row-major Liouvillians -i (G (x) 1 - 1 (x) G^T) + dissipator, (..., d^2, d^2).

    ``gens`` is a (..., d, d) stack of Hamiltonian generators; ``dissipator``
    broadcasts against the result.
    """
    d = gens.shape[-1]
    eye = np.eye(d)
    comm = np.einsum("...ik,jl->...ijkl", gens, eye) - np.einsum("ik,...lj->...ijkl", eye, gens)
    return -1j * comm.reshape(*gens.shape[:-2], d * d, d * d) + dissipator


def _exponentials(gens: np.ndarray, taus, dissipator: Optional[np.ndarray], ie: int) -> np.ndarray:
    """Exponentials of a (..., d, d) stack of frame generators over ``taus``.

    exp(-i G tau) in closed form without a ``dissipator`` (the generators
    act through level ``ie`` alone), else exp(L tau) of their Liouvillians;
    ``taus`` broadcasts against the leading axes.
    """
    lead = gens.shape[:-2]
    taus = np.broadcast_to(taus, lead).reshape(-1)
    if dissipator is None:
        d = gens.shape[-1]
        out = _step_propagators(gens.reshape(-1, d, d), taus, ie)
    else:
        liou = _liouvillians(gens, dissipator)
        m = liou.shape[-1]
        out = _expm(taus[:, None, None] * liou.reshape(-1, m, m))
    return out.reshape(*lead, *out.shape[-2:])


# ---------------------------------------------------------------------------
# The frame engine
# ---------------------------------------------------------------------------


def _covariant(c_ops: np.ndarray, ie: int) -> bool:
    """Whether the frame only multiplies each collapse operator by a phase.

    D^dag c D multiplies entry (i, j) of c by exp(i phi1 (delta_ie - delta_je)),
    so an operator whose nonzero entries all share delta_ie - delta_je takes
    one phase, and its dissipator is the same in the frame as in the lab.
    Diagonal operators and single matrix units are such operators.
    """
    for c in c_ops.tolist():
        shifts = {(i == ie) - (j == ie) for i, row in enumerate(c) for j, x in enumerate(row) if x}
        if len(shifts) > 1:
            return False
    return True


def _frame_generators(
    table: np.ndarray,
    errors: np.ndarray,
    omega0,
    dim: int,
    levels: tuple[Optional[int], int, int],
) -> np.ndarray:
    """Frame generators G = D^dag H D - phi1' |e><e| of ``table`` columns, (n_err, n, d, d).

    ``table`` holds columns of schedule tables (:attr:`PulseSchedule.table`),
    one per generator;
    ``errors`` is an :func:`error_table`; ``omega0``, the nominal amplitude
    that detunings scale with, is one number or one per column.  The common
    phase phi1 drops out in the frame: with the amplitude scale
    s = (1 + amp) omega / 2, G couples |e> to |0> by
    s sin(theta/2) e^{i phi0_offset} and to |1> by s cos(theta/2), and
    holds detuning_fraction * omega0 - phi1' on |e>.  ``levels`` maps the
    Lambda-system roles (|0>, |1>, |e>) onto matrix indices; the |0> slot
    may be None when that leg of the drive is unused (then it must carry
    no amplitude).
    """
    i0, i1, ie = levels
    amp, fraction = errors[:, :, None]
    scale = 0.5 * (1.0 + amp)
    omega = table[1]
    gens = np.zeros((errors.shape[1], len(omega), dim, dim), dtype=complex)
    leg0 = omega * np.sin(0.5 * table[4])
    if i0 is None:
        if np.any(leg0):
            raise ValueError("schedule drives the |0> leg but no level is mapped to it")
    else:
        gens[..., i0, ie] = scale * leg0 * np.exp(1j * table[5])
        gens[..., ie, i0] = np.conj(gens[..., i0, ie])
    gens[..., i1, ie] = scale * (omega * np.cos(0.5 * table[4]))
    gens[..., ie, i1] = gens[..., i1, ie]
    gens[..., ie, ie] = fraction * omega0 - table[3]
    return gens


def _frame_phases(phi1: np.ndarray, dim: int, ie: int, noisy: bool) -> np.ndarray:
    """Diagonals of D = exp(-i phi1 |e><e|) at each phase, or of D (x) conj(D) for superoperators."""
    d = np.ones((len(phi1), dim), dtype=complex)
    d[:, ie] = np.exp(-1j * phi1)
    if noisy:
        return (d[:, :, None] * d.conj()[:, None, :]).reshape(len(phi1), dim * dim)
    return d


def trajectory_steps(schedule: PulseSchedule, config: IntegratorConfig = DEFAULT_CONFIG) -> int:
    """The number N of equal steps a trajectory of ``schedule`` takes.

    N is DEFAULT_STEPS without ``config.dt``, else duration / dt rounded
    up, where a ratio up to 1e-12 (relative) above an integer counts as
    that integer, so dt = duration / N gives N.  Raises ValueError for
    more than MAX_STEPS.
    """
    if config.dt is None:
        return DEFAULT_STEPS
    ratio = schedule.duration / config.dt * (1.0 - 1e-12)
    if not ratio <= MAX_STEPS:
        raise ValueError(f"step size too fine: need dt >= duration/{MAX_STEPS}")
    return max(1, math.ceil(ratio))


def _powers(rows: np.ndarray, step: np.ndarray) -> None:
    """Fill rows[:, j] = step^j @ rows[:, 0] of an (n_err, n, m, m) stack in place.

    ``step`` is (n_err, m, m).  Each round doubles the rows known, in one
    stacked product with a power of the step: rows[:, n : n + k] = step^n @ rows[:, :k].
    """
    power, n = step[:, None], 1
    while n < rows.shape[1]:
        k = min(n, rows.shape[1] - n)
        rows[:, n : n + k] = power @ rows[:, :k]
        n += k
        if n < rows.shape[1]:
            power = power @ power


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first of each set of bitwise-equal rows of a 2-D array, and every row's set.

    Returns ``first``, the ascending indices of the first rows of the sets,
    and ``inverse``, such that ``rows[first][inverse]`` equals ``rows``.
    Keyed on the exact bytes (so 0.0 and -0.0 differ).  ``np.unique(rows,
    axis=0)`` finds the same sets, but it views each row as a structured
    scalar with one field per column, which is slow for wide rows: on the
    one-row key of 7,939 floats of a 441-point scan it takes about 100
    times as long as the whole :func:`error_maps` call.
    """
    if len(rows) < 2:
        return np.arange(len(rows)), np.arange(len(rows))
    rows = np.ascontiguousarray(rows)
    raw, width = rows.tobytes(), rows.strides[0]
    slot: dict[bytes, int] = {}
    first, inverse = [], []
    for i in range(len(rows)):
        inverse.append(slot.setdefault(raw[i * width : (i + 1) * width], len(slot)))
        if inverse[-1] == len(first):
            first.append(i)
    return np.array(first), np.array(inverse)


def _frame_maps(
    schedules: Sequence[PulseSchedule],
    errors: np.ndarray,
    noise: NoiseModel,
    dim: int,
    levels: tuple[Optional[int], int, int],
    steps: Optional[int] = None,
    superop: bool = False,
) -> Trajectory:
    """The engine: maps from t = 0 of each schedule, for every error.

    ``errors`` is an :func:`error_table` of n_err columns.  With ``steps``
    None each schedule's map is taken at its end; with N steps, at the ends
    of its N equal steps, np.linspace(0, duration, N + 1)[1:].  Returns one
    Trajectory of every schedule's rows, schedule after schedule: their
    times and the (n_err, len(times), m, m) maps at them, unitaries (m = d)
    when ``noise`` is empty, row-major superoperators (m = d^2) otherwise,
    or U (x) conj(U) for ``superop`` without noise.  Without steps every
    schedule has exactly one row, so map k is schedule k's.

    The pieces of all schedules are laid out in the order their tables
    concatenate, schedule after schedule, and each piece's maps at its rows
    in (start, end], then at its end when that is not a row, fill one
    stack.  The pieces take one batched exponential for each
    bitwise-distinct pair of frame generator and duration, so the two
    halves of an nhqc loop share theirs; with noise a piece fills its rows
    after the first by powers of one step's map.  The pieces of each rank,
    column k of their schedule's table, are then rebased and chained in one
    step onto the end of the piece before them.  Raises ValueError when the
    nonzero entries of a collapse operator do not share one phase class,
    and for a non-finite error.
    """
    if not np.isfinite(errors).all():
        rows = [name for name, row in zip(("amp_fraction", "detuning_fraction"), errors)
                if not np.isfinite(row).all()]
        raise ValueError(f"control errors must be finite, got a non-finite {' and '.join(rows)}")
    c_ops = noise.scaled_ops(dim)
    noisy = not noise.is_empty
    if noisy and not _covariant(c_ops, levels[2]):
        raise ValueError(
            "collapse operators must share one phase class: the nonzero entries (i, j) "
            f"of each must have the same delta_ie - delta_je, with e = {levels[2]}"
        )
    dissipator = _dissipator(c_ops) if noisy else None
    m = dim * dim if noisy else dim
    n_err = errors.shape[1]
    if not schedules:
        size = m * m if superop and not noisy else m
        return Trajectory(np.empty(0), np.empty((n_err, 0, size, size), dtype=complex))

    # piece i is column i of the schedules' tables laid end to end, from its
    # start to its end.  Its rank is its column in its own schedule's table,
    # so piece i - 1 precedes it wherever its rank is above 0
    sizes = [schedule.table.shape[1] for schedule in schedules]
    table = np.concatenate([schedule.table for schedule in schedules], axis=1)
    firsts = table[0]
    # piece i's entries start at bounds[i]: its owned[i] rows, then its end
    # unless that is a row.  picks are the rows' entries, in schedule order,
    # and ranks[k] the entries of the pieces of rank k
    times, bounds, owned, picks = [], [], [], []
    ranks = [[] for _ in range(max(sizes))]
    for schedule in schedules:
        rows = np.linspace(0.0, schedule.duration, steps + 1)[1:].tolist() if steps else [schedule.duration]
        for k, (a, b) in enumerate(zip(schedule.table[0].tolist(), schedule.ends)):
            own = rows[bisect.bisect_right(rows, a) : bisect.bisect_right(rows, b)]
            entries = own if own and own[-1] == b else [*own, b]
            start = len(times)
            bounds.append(start)
            owned.append(len(own))
            picks += range(start, start + len(own))
            ranks[k] += range(start, start + len(entries))
            times += entries
    entry_piece = np.repeat(np.arange(len(bounds)), np.diff([*bounds, len(times)]))
    bounds = np.array(bounds)
    times = np.array(times)
    frames = np.empty((n_err, len(times), m, m), dtype=complex)

    # with noise a piece of two rows or more is exponentiated only to its
    # first row, over one step and to an end that is not a row
    powered = [i for i in range(len(owned)) if noisy and owned[i] > 1]
    exact = np.ones(len(times), dtype=bool)  # the entries exponentiated
    for i in powered:
        exact[bounds[i] + 1 : bounds[i] + owned[i]] = False
    const = slice(None) if exact.all() else np.flatnonzero(exact)  # a slice does not copy
    gens = _frame_generators(table, errors, np.repeat([s.omega0 for s in schedules], sizes), dim, levels)
    of = entry_piece[const]
    taus = times[const] - firsts[of]
    n_exact = len(taus)
    if powered:
        of = np.append(of, powered)
        taus = np.append(taus, np.repeat([s.duration / steps for s in schedules], sizes)[powered])
    # one exponential per distinct (generator, duration): rows of the
    # generator's bytes, for every error, and the duration
    keys = gens.swapaxes(0, 1).reshape(len(owned), -1).view(float)[of]
    distinct, inverse = _distinct_rows(np.column_stack([keys, taus]))
    exps = _exponentials(gens[:, of[distinct]], taus[distinct], dissipator, levels[2])[:, inverse]
    frames[:, const] = exps[:, :n_exact]
    # the rows after the first: powers of the step's map times the first row's
    for i, step in zip(powered, exps[:, n_exact:].swapaxes(0, 1)):
        _powers(frames[:, bounds[i] : bounds[i] + owned[i]], step)

    # rebase the pieces of rank k to the lab frame, D(t) M D(t_start)^dag,
    # and chain each onto the map at the end of the piece before it; maps
    # overwrite their frame maps.  Rank 0 starts from the identity, so its
    # rebase only scales columns
    phases = _frame_phases(segment_phase(table[:, entry_piece], times), dim, levels[2], noisy)
    backs = _frame_phases(segment_phase(table, firsts), dim, levels[2], noisy).conj()
    for k, sel in enumerate(ranks):
        # a rank's entries are contiguous for one schedule, and a slice does not copy
        sel = slice(sel[0], sel[-1] + 1) if sel[-1] - sel[0] == len(sel) - 1 else np.array(sel)
        piece = entry_piece[sel]
        if k == 0:
            frame = frames[:, sel] * backs[piece, None, :]
        else:
            frame = frames[:, sel] @ (backs[piece, :, None] * frames[:, bounds[piece] - 1])
        frames[:, sel] = phases[sel, :, None] * frame

    maps = frames[:, picks]
    if superop and not noisy:
        maps = unitary_channel(maps)
    return Trajectory(times[picks], maps)


# ---------------------------------------------------------------------------
# Public entry points: views of the engine
# ---------------------------------------------------------------------------


def error_maps(
    schedule: PulseSchedule,
    errors: np.ndarray,
    noise: NoiseModel = NO_NOISE,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Full-schedule maps under each column of the :func:`error_table` ``errors``.

    Unitaries (n_err, d, d) when ``noise`` is empty, else row-major
    superoperators (n_err, d^2, d^2).  Every error's exponentials come from
    the same batched calls.
    """
    return _frame_maps([schedule], errors, noise, dim, levels).states[:, 0]


def propagator(
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Full-schedule unitary: one exact exponential per piece.

    A full-schedule map takes no step, so ``config`` is accepted and not
    read: the unitary is the same for every step.
    """
    return error_maps(schedule, _one_error(err), NO_NOISE, dim, levels)[0]


def evolve_pure(
    psi0: np.ndarray,
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> Trajectory:
    """Propagate a pure state over :func:`trajectory_steps` equal steps.

    Records N + 1 states, at np.linspace(0, duration, N + 1); each is the
    closed-form unitary from t = 0 to its time applied to ``psi0``.
    """
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (dim,):
        raise ValueError(f"state shape {psi.shape} does not match dim {dim}")
    norm = np.linalg.norm(psi)
    # a NaN norm would pass "abs(norm - 1) > 1e-9"
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"initial state norm {norm!r} deviates from 1")
    times, maps = _frame_maps([schedule], _one_error(err), NO_NOISE, dim, levels,
                              trajectory_steps(schedule, config))
    return Trajectory(np.append(0.0, times), np.concatenate([psi[None], maps[0] @ psi]))


def evolve_density(
    rho0: np.ndarray,
    schedule: PulseSchedule,
    noise: NoiseModel = NO_NOISE,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> Trajectory:
    """Evolve a density matrix under the Lindblad master equation.

    Records states at the times :func:`evolve_pure` records.  With an
    empty noise model this reproduces the pure-state evolution of the
    corresponding projector.  Raises where :func:`trajectory_steps`
    refuses the step, and for a non-finite entry of ``rho0``.  The trace
    is not checked: the map is linear, so any matrix, a trace-0 matrix unit
    among them, evolves as its part of a density matrix would.
    """
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho.shape} does not match dim {dim}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has a non-finite entry")
    times, maps = _frame_maps([schedule], _one_error(err), noise, dim, levels,
                              trajectory_steps(schedule, config), superop=True)
    states = (maps[0] @ rho.reshape(-1)).reshape(-1, dim, dim)
    return Trajectory(np.append(0.0, times), np.concatenate([rho[None], states]))


def gate_channels(
    schedules: Sequence[PulseSchedule],
    noise: NoiseModel = NO_NOISE,
    err: ErrorInjection = NO_ERROR,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Superoperators of full schedules, built together, (len(schedules), d^2, d^2).

    Row-major vectorization: vec(rho_out) = S vec(rho_in).  Without noise
    each is U (x) conj(U) for the schedule propagator U; with noise, the
    chained frame maps.  One engine call covers every schedule: schedules
    that share a (frame generator, duration) pair on a piece, a
    repeated schedule among them, share its exponential, and each channel
    is bitwise the one its schedule gets alone.  An empty list gives a
    (0, d^2, d^2) stack.
    """
    return _frame_maps(schedules, _one_error(err), noise, dim, levels, superop=True).states[0]


def gate_channel(
    schedule: PulseSchedule,
    noise: NoiseModel = NO_NOISE,
    err: ErrorInjection = NO_ERROR,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Superoperator of one full schedule: :func:`gate_channels` of it alone."""
    return gate_channels([schedule], noise, err, dim, levels)[0]
