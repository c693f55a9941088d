"""Time-ordered propagation under a pulse schedule, in the co-rotating frame.

Every segment of a schedule has a drive phase phi1(t) that is linear in
time, so in the co-rotating frame psi = D(t) psi~ with
D(t) = exp(-i phi1(t) |e><e|) the generator is
G(t) = D^dag H D - phi1' |e><e|, control errors included.  G does not
depend on phi1, so the engine writes it straight from the segment
parameters and the edge-ramp envelope (:func:`_frame_generators`) and
never forms the lab Hamiltonian H.  The frame multiplies entry (i, j) of
a collapse operator c by exp(i phi1 (delta_ie - delta_je)); the engine
takes only collapse operators whose nonzero entries all share one such
phase class, so every dissipator is the same in the frame as in the lab,
and raises ValueError for any other.  One engine propagates every
schedule in that frame.  It cuts the schedule into pieces at segment
boundaries and edge-ramp corners:

* a constant piece, where the frame generator does not vary, maps by one
  exact exponential per recorded time.  These are the ramp-free stretches
  of a schedule;
* a varying piece is an edge-ramp window.  It runs a fourth-order
  commutator-free exponential stepper (CF4) on its own grid nodes: two
  exponentials per step, whose generators mix the frame generator at the
  step's two Gauss-Legendre nodes, plus the dissipator.  The step maps
  between two recorded nodes are multiplied pairwise, in log2 rounds of
  stacked products.

Each piece's frame map is rebased to the lab frame at its ends,
D(t_end) M D(t_start)^dag, and the pieces are chained.  A propagator or
channel takes one exponential per constant piece and builds no grid; a
trajectory records the maps at grid nodes, which the varying pieces step
through.  The step size therefore sets only the steps of the ramp windows
and the nodes a trajectory records, and it is resolved and checked
(dt <= duration / 100, rate * dt < 0.01 for the fastest decay rate) only
there: a full-schedule map of a ramp-free schedule takes no step.

:func:`_frame_maps` is the engine's one entry point.  It alone turns the
noise model into collapse operators and checks their phase class,
applies the step rule, and lifts noiseless unitaries to channels
U (x) conj(U); every public function is a view of it.  One call can
cover many schedules.  :func:`gate_channels` builds the channels of a
list of schedules: the constant pieces of all of them are exponentiated
in one batched call, and piece k of every schedule is rebased and chained
in one step.  :func:`gate_channel` is its one-schedule case, so a channel
is bitwise the same alone or in a batch.

Every frame generator is zero outside the |e> row and column, so its
exponential has a closed form, computed elementwise over the whole stack
(:func:`_step_propagators`).  Liouvillians, which are not normal, go
through :func:`_expm`, a batched scaling-and-squaring Pade exponential
(Higham 2005) on numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .pulses import (
    PulseSchedule,
    Segment,
    interval_nodes,
    segment_phase,
    segment_table,
    stepping_breaks,
    stepping_grid,
)

#: Qutrit basis ordering used throughout: (|0>, |1>, |e>).
QUTRIT_LEVELS = (0, 1, 2)
QUTRIT_DIM = 3

DEFAULT_STEPS = 2000
MIN_STEPS = 100
MAX_RATE_DT = 0.01
#: Matrix elements (errors x steps x m^2) of the step maps of a varying
#: piece that are built in one batched call; bounds the memory of the
#: (errors, steps, 2, m, m) stack of its exponentials.
MAP_CHUNK = 1 << 16
#: Trajectories record every RECORD_STRIDE-th grid node, plus the endpoints.
RECORD_STRIDE = 20


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

    @property
    def is_empty(self) -> bool:
        return not any(rate > 0.0 for _, rate in self.collapse_ops)

    @property
    def max_rate(self) -> float:
        return max((rate for _, rate in self.collapse_ops), default=0.0)

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
        |k> and a non-dephasing level decays at 1/Tphi.  ``None`` disables a
        channel.
        """
        ops = []
        if t1_e_to_0 is not None:
            lower = np.zeros((3, 3), dtype=complex)
            lower[0, 2] = 1.0
            ops.append((lower, 1.0 / t1_e_to_0))
        if t1_1_to_e is not None:
            lower = np.zeros((3, 3), dtype=complex)
            lower[2, 1] = 1.0
            ops.append((lower, 1.0 / t1_1_to_e))
        if tphi_e is not None:
            proj = np.zeros((3, 3), dtype=complex)
            proj[2, 2] = 1.0
            ops.append((proj, 2.0 / tphi_e))
        if tphi_1 is not None:
            proj = np.zeros((3, 3), dtype=complex)
            proj[1, 1] = 1.0
            ops.append((proj, 2.0 / tphi_1))
        return cls(collapse_ops=tuple(ops))


NO_NOISE = NoiseModel()


@dataclass(frozen=True)
class IntegratorConfig:
    """Grid settings; ``dt = None`` resolves to duration / 2000.

    The grid sets the steps of varying pieces and the times a trajectory
    records (every ``RECORD_STRIDE``-th node plus endpoints).
    """

    dt: Optional[float] = None

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")

    def resolve_dt(self, duration: float) -> float:
        dt = self.dt if self.dt is not None else duration / DEFAULT_STEPS
        if dt > duration / MIN_STEPS:
            raise ValueError(
                f"step size {dt} too coarse: need dt <= duration/{MIN_STEPS}"
            )
        return dt


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


# Scaling and squaring with Pade approximants (Higham, SIAM J. Matrix Anal.
# Appl. 26, 1179 (2005)): the [m/m] approximant of exp(A) is accurate to
# double precision while ||A||_1 <= theta_m.
_PADE_THETAS = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                         9.504178996162932e-1, 2.097847961257068e0, 5.371920351148152e0])
_PADE_COEFFS = (
    (120.0, 60.0, 12.0, 1.0),
    (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
     2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
     1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
     33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
)


def _pade_rows(b: tuple) -> np.ndarray:
    """Coefficients that combine (1, A^2, A^4, ...) into the approximant's parts.

    Rows give U' and V of exp(A) ~ (V - A U')^-1 (V + A U'), the odd part
    A U' = b1 A + b3 A^3 + ... and the even part V = b0 + b2 A^2 + ... of
    the numerator.  Degree 13 factors A^6 out of its high powers, so it
    needs only 1, A^2, A^4 and A^6: its first two rows are the high parts,
    its last two the low ones.
    """
    if len(b) == 14:
        return np.array([(0.0, *b[9::2]), (0.0, *b[8::2]), b[1:8:2], b[0:7:2]])
    return np.array([b[1::2], b[0::2]])


_PADE_ROWS = tuple(_pade_rows(b) for b in _PADE_COEFFS)


def _pade(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pade approximant of exp on an (n, d, d) stack, from :func:`_pade_rows`."""
    n, d, _ = a.shape
    powers = np.empty((rows.shape[1], n, d, d), dtype=a.dtype)
    powers[0] = np.eye(d)
    np.matmul(a, a, out=powers[1])
    for j in range(2, len(powers)):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    # one small product per matrix: a single product over the flattened
    # stack is large enough for the BLAS library to split across threads,
    # which at these sizes costs far more than it saves
    parts = rows @ powers.reshape(len(powers), n, d * d).swapaxes(0, 1)
    parts = parts.swapaxes(0, 1).reshape(len(rows), n, d, d)
    if len(rows) == 4:
        parts = powers[3] @ parts[:2] + parts[2:]
    u, v = a @ parts[0], parts[1]
    # (V - U)^-1 (V + U) = 1 + 2 (V - U)^-1 U: the identity is added exactly,
    # so a small exponent keeps its relative accuracy
    return powers[0] + np.linalg.solve(v - u, 2.0 * u)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponentials of an (n, d, d) stack.

    Each matrix gets the lowest Pade degree (3, 5, 7, 9 or 13) whose theta
    bounds its 1-norm.  Above theta_13 it is scaled by 2^-s into range, with
    its own s, and only the matrices with s > k are squared in round k.
    """
    a = np.asarray(a, dtype=np.result_type(a, float))
    norms = np.abs(a).sum(axis=1).max(axis=1)
    degree = np.searchsorted(_PADE_THETAS, norms)
    top = len(_PADE_THETAS) - 1
    squarings = np.zeros(len(a), dtype=int)
    high = degree > top
    if high.any():
        squarings[high] = np.ceil(np.log2(norms[high] / _PADE_THETAS[top]))
        degree[high] = top
        a = a * np.exp2(-squarings)[:, None, None]
    out = np.empty_like(a)
    for k in set(degree.tolist()):
        sel = degree == k
        out[sel] = _pade(a[sel], _PADE_ROWS[k])
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
    return jump - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))


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
    for c in c_ops:
        rows, cols = np.nonzero(c)
        shift = (rows == ie).astype(int) - (cols == ie)
        if np.any(shift != shift[:1]):
            return False
    return True


class _Piece(NamedTuple):
    start: float
    end: float
    seg: Segment
    varying: bool


def _pieces(schedule: PulseSchedule) -> list[_Piece]:
    """The schedule cut at segment boundaries and edge-ramp corners; a piece varies inside a ramp window."""
    rise, fall = schedule.edge_ramp, schedule.duration - schedule.edge_ramp
    breaks = stepping_breaks(schedule)
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        mid = 0.5 * (a + b)
        seg = next(seg for seg in schedule.segments if mid < seg.t_end)
        pieces.append(_Piece(a, b, seg, mid < rise or mid > fall))
    return pieces


def _frame_generators(
    table: np.ndarray,
    env,
    errors: np.ndarray,
    omega0,
    dim: int,
    levels: tuple[Optional[int], int, int],
) -> np.ndarray:
    """Frame generators G = D^dag H D - phi1' |e><e| of ``table`` columns, (n_err, n, d, d).

    ``table`` is a :func:`segment_table` with one column per generator (or
    one for all); ``env`` is the edge-ramp factor of each (or one for all);
    ``errors`` is an :func:`error_table`; ``omega0``, the nominal amplitude
    that detunings scale with, is one number or one per column.  The common
    phase phi1 drops out in the frame: with the amplitude scale
    s = (1 + amp) omega env / 2, G couples |e> to |0> by
    s sin(theta/2) e^{i phi0_offset} and to |1> by s cos(theta/2), and
    holds detuning_fraction * omega0 - phi1' on |e>.  ``levels`` maps the
    Lambda-system roles (|0>, |1>, |e>) onto matrix indices; the |0> slot
    may be None when that leg of the drive is unused (then it must carry
    no amplitude).
    """
    i0, i1, ie = levels
    amp, fraction = errors[:, :, None]
    scale = 0.5 * (1.0 + amp)
    omega = table[1] * env
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


# Fourth-order commutator-free scheme (Alvermann & Fehske, J. Comput. Phys.
# 230, 5930 (2011)): per step, the map is exp(dt A2) exp(dt A1) with
# A1 = a1 L(t1) + a2 L(t2) and A2 = a2 L(t1) + a1 L(t2), L the generator at
# the Gauss-Legendre nodes t1, t2 of the step.
_GL_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_CF_A1 = 0.25 + math.sqrt(3.0) / 6.0
_CF_A2 = 0.25 - math.sqrt(3.0) / 6.0
_CF_WEIGHTS = np.array([[_CF_A1, _CF_A2], [_CF_A2, _CF_A1]])


def _run_products(steps: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Ordered products of the runs of a (n_err, n, m, m) stack of step maps.

    Run r holds steps ends[r-1] to ends[r] - 1 (ends ascending, the last
    one n); its product puts later steps on the left.  Round k multiplies,
    inside every run, each block of 2^k steps onto the block before it in
    one stacked matmul, so a run of n_r steps takes n_r - 1 products in
    ceil(log2 n_r) rounds.  Overwrites ``steps``; returns (n_err, len(ends), m, m).
    """
    starts = np.append(0, ends[:-1])
    lengths = ends - starts
    # position of every step inside its run, and the steps left to the run's end
    local = np.arange(ends[-1]) - np.repeat(starts, lengths)
    room = np.repeat(lengths, lengths) - local
    stride = 1
    while stride < lengths.max():
        left = np.flatnonzero((local % (2 * stride) == 0) & (room > stride))
        steps[:, left] = steps[:, left + stride] @ steps[:, left]
        stride *= 2
    return steps[:, starts]


def _varying_maps(
    schedule: PulseSchedule,
    errors: np.ndarray,
    pieces: list[_Piece],
    spans: list[np.ndarray],
    dt: float,
    dissipator: Optional[np.ndarray],
    dim: int,
    levels: tuple[Optional[int], int, int],
) -> list[np.ndarray]:
    """CF4 frame maps of varying ``pieces``, each from the identity at its start.

    Each piece steps through its own grid nodes at step ``dt``.  ``spans[k]``
    are the ascending nodes of piece k, after its start, at which its map is
    wanted.  Without a ``dissipator`` the maps are unitaries, else row-major
    superoperators.  Returns one (n_err, len(spans[k]), m, m) stack per
    piece, n_err the columns of the :func:`error_table` ``errors``.
    """
    ie = levels[2]
    n_err = errors.shape[1]
    m = dim if dissipator is None else dim * dim
    if dissipator is not None:
        # the frame leaves the dissipator alone, so each exponential takes its weights' sum of it
        dissipator = _CF_WEIGHTS.sum(axis=1)[:, None, None] * dissipator
    out = []
    for piece, at in zip(pieces, spans):
        nodes = interval_nodes(piece.start, piece.end, dt)
        steps = np.diff(nodes)
        wanted = np.rint((at - piece.start) / (piece.end - piece.start) * len(steps)).astype(int)
        gauss = (nodes[:-1, None] + _GL_NODES * steps[:, None]).reshape(-1)
        gens = _frame_generators(segment_table([piece.seg]), schedule.envelope_factor(gauss), errors,
                                 schedule.omega0, dim, levels)
        gens = np.einsum("ab,enbij->enaij", _CF_WEIGHTS, gens.reshape(n_err, -1, 2, dim, dim))

        maps = np.empty((n_err, len(at), m, m), dtype=complex)
        chunk = max(1, MAP_CHUNK // (n_err * m * m))
        cur, k = None, 0
        for lo in range(0, len(steps), chunk):
            part = slice(lo, lo + chunk)
            exps = _exponentials(gens[:, part], steps[part, None], dissipator, ie)
            # runs of steps end at the wanted nodes inside the chunk and at its end
            hi = lo + exps.shape[1]
            inside = wanted[(wanted > lo) & (wanted < hi)]
            ends = np.append(inside[np.diff(inside, append=hi) > 0], hi)
            runs = _run_products(exps[:, :, 1] @ exps[:, :, 0], ends - lo)
            for end, run in zip(ends, runs.swapaxes(0, 1)):
                cur = run if cur is None else run @ cur
                while k < len(at) and wanted[k] == end:
                    maps[:, k] = cur
                    k += 1
        out.append(maps)
    return out


def _checked_dt(schedule: PulseSchedule, noise: NoiseModel, config: IntegratorConfig) -> float:
    """Resolved step size, rejecting steps too coarse for the fastest decay rate."""
    dt = config.resolve_dt(schedule.duration)
    if noise.max_rate * dt >= MAX_RATE_DT:
        raise ValueError(
            f"step size violation: max rate * dt = {noise.max_rate * dt:.3g} "
            f"must stay below {MAX_RATE_DT}"
        )
    return dt


def _recorded_times(schedule: PulseSchedule, dt: float) -> np.ndarray:
    """Grid nodes at which trajectories record: every ``RECORD_STRIDE``-th plus endpoints."""
    nodes = stepping_grid(schedule, dt)
    n = len(nodes) - 1
    return nodes[np.append(np.arange(0, n, RECORD_STRIDE), n)]


def _frame_maps(
    schedules: Sequence[PulseSchedule],
    errors: np.ndarray,
    noise: NoiseModel,
    config: IntegratorConfig,
    dim: int,
    levels: tuple[Optional[int], int, int],
    record: bool = False,
    superop: bool = False,
) -> list[Trajectory]:
    """The engine: maps from t = 0 of each schedule, for every error.

    ``errors`` is an :func:`error_table` of n_err columns.  By default each
    schedule's map is taken at its end; with ``record``, at the recorded
    grid nodes after t = 0 (:func:`_recorded_times`).  Returns one
    Trajectory per schedule, whose states are the (n_err, len(times), m, m)
    maps at its times: unitaries (m = d) when ``noise`` is empty, row-major
    superoperators (m = d^2) otherwise, or U (x) conj(U) for ``superop``
    without noise.  A step is resolved and checked (:func:`_checked_dt`)
    only where the grid is used.  The exponentials of the constant pieces
    of every schedule, error and time come from one batched call, and
    piece k of every schedule is rebased and chained in one step.  Raises
    ValueError when the nonzero entries of a collapse operator do not
    share one phase class.
    """
    c_ops = noise.scaled_ops(dim)
    # a full-schedule map steps only through the edge-ramp windows, so a
    # ramp-free schedule resolves and checks no step
    dts = [
        _checked_dt(schedule, noise, config) if record or schedule.edge_ramp > 0.0 else None
        for schedule in schedules
    ]
    times = [
        _recorded_times(schedule, dt)[1:] if record else np.array([schedule.duration])
        for schedule, dt in zip(schedules, dts)
    ]
    noisy = not noise.is_empty
    if noisy and not _covariant(c_ops, levels[2]):
        raise ValueError(
            "collapse operators must share one phase class: the nonzero entries (i, j) "
            f"of each must have the same delta_ie - delta_je, with e = {levels[2]}"
        )
    dissipator = _dissipator(c_ops) if noisy else None
    m = dim * dim if noisy else dim
    cuts = [_pieces(schedule) for schedule in schedules]
    # each piece's own times, plus its end when another piece follows
    owned, spans = [], []
    for pieces, at in zip(cuts, times):
        owner = np.minimum(np.searchsorted([p.end for p in pieces], at), len(pieces) - 1)
        owned.append([np.count_nonzero(owner == k) for k in range(len(pieces))])
        spans.append([
            np.append(at[owner == k], [p.end] * (k < len(pieces) - 1))
            for k, p in enumerate(pieces)
        ])

    frame = {}
    for s, (schedule, pieces) in enumerate(zip(schedules, cuts)):
        varying = [k for k, p in enumerate(pieces) if p.varying]
        if varying:
            stepped = _varying_maps(schedule, errors, [pieces[k] for k in varying],
                                    [spans[s][k] for k in varying], dts[s], dissipator,
                                    dim, levels)
            frame.update(((s, k), maps) for k, maps in zip(varying, stepped))
    constant = [(s, k) for s, pieces in enumerate(cuts) for k, p in enumerate(pieces) if not p.varying]
    if constant:
        table = segment_table([cuts[s][k].seg for s, k in constant])
        omega0 = np.array([schedules[s].omega0 for s, _ in constant])
        gens = _frame_generators(table, 1.0, errors, omega0, dim, levels)
        counts = [len(spans[s][k]) for s, k in constant]
        taus = np.concatenate([spans[s][k] - cuts[s][k].start for s, k in constant])
        gens = gens[:, np.repeat(np.arange(len(constant)), counts)]
        exps = _exponentials(gens, taus, dissipator, levels[2])
        frame.update(zip(constant, np.split(exps, np.cumsum(counts)[:-1], axis=1)))

    # rebase piece k of every schedule to the lab frame, D(t) M D(t_start)^dag,
    # and chain it onto the map at its start
    out = [[] for _ in schedules]
    start = np.empty((len(schedules), errors.shape[1], m, m), dtype=complex)
    start[:] = np.eye(m)
    for k in range(max(map(len, cuts))):
        live = [s for s, pieces in enumerate(cuts) if len(pieces) > k]
        table = segment_table([cuts[s][k].seg for s in live])
        counts = [len(spans[s][k]) for s in live]
        rows = np.repeat(np.arange(len(live)), counts)
        firsts = np.array([cuts[s][k].start for s in live])
        back = _frame_phases(segment_phase(table, firsts), dim, levels[2], noisy)
        back = back.conj()[:, None, :, None] * start[live]
        phases = _frame_phases(
            segment_phase(table[:, rows], np.concatenate([spans[s][k] for s in live])),
            dim, levels[2], noisy,
        )
        frames = np.concatenate([frame[s, k] for s in live], axis=1)
        maps = phases[:, :, None] * (frames @ back[rows].swapaxes(0, 1))
        lo = 0
        for s, count in zip(live, counts):
            out[s].append(maps[:, lo : lo + owned[s][k]])
            lo += count
            start[s] = maps[:, lo - 1]
    maps = [np.concatenate(parts, axis=1) for parts in out]
    if superop and not noisy:
        # U (x) conj(U) as one broadcast product, bitwise equal to np.kron
        maps = [
            (u[..., :, None, :, None] * u.conj()[..., None, :, None, :]).reshape(*u.shape[:2], m * m, m * m)
            for u in maps
        ]
    return [Trajectory(at, stack) for at, stack in zip(times, maps)]


# ---------------------------------------------------------------------------
# Public entry points: views of the engine
# ---------------------------------------------------------------------------


def error_maps(
    schedule: PulseSchedule,
    errors: np.ndarray,
    noise: NoiseModel = NO_NOISE,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Full-schedule maps under each column of the :func:`error_table` ``errors``.

    Unitaries (n_err, d, d) when ``noise`` is empty, else row-major
    superoperators (n_err, d^2, d^2).  Every error's exponentials come from
    the same batched calls.
    """
    return _frame_maps([schedule], errors, noise, config, dim, levels)[0].states[:, 0]


def propagator(
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Full-schedule unitary: exact on constant pieces, CF4 on ramp windows."""
    return error_maps(schedule, _one_error(err), NO_NOISE, config, dim, levels)[0]


def dt_halving_delta(
    schedule: PulseSchedule,
    config: IntegratorConfig = DEFAULT_CONFIG,
    u: Optional[np.ndarray] = None,
) -> float:
    """Accuracy diagnostic of the error-free propagator, reported alongside results.

    The max-norm change of :func:`propagator` when the step size is halved.
    Only the edge-ramp windows depend on the step, so it is exactly 0.0 on
    a ramp-free schedule, and no propagator is built there.  ``u`` is
    ``propagator(schedule, config=config)`` when the caller already holds it.
    """
    if schedule.edge_ramp == 0.0:
        return 0.0
    dt = config.resolve_dt(schedule.duration)
    if u is None:
        u = propagator(schedule, config=config)
    half = IntegratorConfig(dt=dt / 2.0)
    return float(np.max(np.abs(u - propagator(schedule, config=half))))


def evolve_pure(
    psi0: np.ndarray,
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> Trajectory:
    """Propagate a pure state, recording every ``RECORD_STRIDE``-th grid node."""
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (dim,):
        raise ValueError(f"state shape {psi.shape} does not match dim {dim}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"initial state norm {norm!r} deviates from 1")
    times, maps = _frame_maps([schedule], _one_error(err), NO_NOISE, config, dim, levels, record=True)[0]
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

    Records states at the grid nodes :func:`evolve_pure` records.  With an
    empty noise model this reproduces the pure-state evolution of the
    corresponding projector.  Raises on step-size violations (rate * dt
    must stay below 0.01).
    """
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho.shape} does not match dim {dim}")
    times, maps = _frame_maps([schedule], _one_error(err), noise, config, dim, levels,
                              record=True, superop=True)[0]
    states = (maps[0] @ rho.reshape(-1)).reshape(-1, dim, dim)
    return Trajectory(np.append(0.0, times), np.concatenate([rho[None], states]))


def gate_channels(
    schedules: Sequence[PulseSchedule],
    noise: NoiseModel = NO_NOISE,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Superoperators of full schedules, built together, (len(schedules), d^2, d^2).

    Row-major vectorization: vec(rho_out) = S vec(rho_in).  Without noise
    each is U (x) conj(U) for the schedule propagator U; with noise, the
    chained frame maps.  One engine call covers every schedule, and each
    channel is bitwise the one its schedule gets alone.  Raises, as
    :func:`gate_channel` does, when the step of any schedule with an edge
    ramp is too coarse; a ramp-free schedule takes no step.
    """
    out = _frame_maps(schedules, _one_error(err), noise, config, dim, levels, superop=True)
    return np.array([maps[0, 0] for _, maps in out])


def gate_channel(
    schedule: PulseSchedule,
    noise: NoiseModel = NO_NOISE,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Superoperator of one full schedule: :func:`gate_channels` of it alone."""
    return gate_channels([schedule], noise, err, config, dim, levels)[0]
