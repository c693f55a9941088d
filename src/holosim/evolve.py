"""Time-ordered propagation under a pulse schedule.

Every ramp-free schedule is propagated exactly.  Its segments have a
constant drive amplitude and a common drive phase phi1(t) that is linear
in time, so in the co-rotating frame psi = D(t) psi~ with
D(t) = exp(-i phi1(t) |e><e|) each segment has the constant generator
G = H(phi1 = 0) - phi1' |e><e|, control errors included, and maps by
D(t_end) exp(-i G dt) D(t_start)^dag.  Collapse operators that are
diagonal or a single matrix unit only pick up phases in that frame, so a
noisy segment maps by one exponential of a constant Liouvillian.  A
propagator or channel is one exponential per segment; a trajectory
evaluates the exact map at all recorded grid nodes in one batch.

Edge-ramped schedules and other collapse operators run on a fourth-order
commutator-free exponential stepper (CF4): two exponentials per step,
whose generators mix the Hamiltonian sampled at the step's two
Gauss-Legendre nodes.  Its unitary path multiplies exact Hermitian step
propagators; its open-system path exponentiates the row-major
Liouvillians of the same generators, each carrying half the dissipator.
Grids place a node at every segment boundary and ramp corner, and the
Gauss nodes lie strictly inside a step, so neither phase jumps nor the
ramps' kinks are smeared across a step.  Both paths record states at the
same grid nodes and apply the same step-size checks.

Hermitian generators are exponentiated through their eigendecomposition;
Liouvillians, which are not normal, through :func:`_expm`, a batched
scaling-and-squaring Pade exponential (Higham 2005) on numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .pulses import PulseSchedule, drive_arrays, stepping_grid

#: Qutrit basis ordering used throughout: (|0>, |1>, |e>).
QUTRIT_LEVELS = (0, 1, 2)
QUTRIT_DIM = 3

DEFAULT_STEPS = 2000
MIN_STEPS = 100
MAX_RATE_DT = 0.01
#: Physical steps whose Lindblad step maps are exponentiated in one batched
#: call; bounds the memory of the (2 * MAP_CHUNK, d^2, d^2) map stack.
MAP_CHUNK = 64


@dataclass(frozen=True)
class ErrorInjection:
    """Static control errors applied while assembling the Hamiltonian.

    ``amp_fraction`` scales both drive amplitudes by (1 + amp_fraction).
    ``detuning_fraction`` adds a diagonal term on the auxiliary level of
    size detuning_fraction * omega0 (relative mode); ``detuning_rad_s``
    adds an absolute diagonal detuning on top.
    """

    amp_fraction: float = 0.0
    detuning_fraction: float = 0.0
    detuning_rad_s: float = 0.0

    def detuning(self, omega0: float) -> float:
        return self.detuning_fraction * omega0 + self.detuning_rad_s


NO_ERROR = ErrorInjection()


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Collapse operators with rates for Lindblad evolution.

    An empty operator list means purely unitary evolution.  Rates are in
    1/s; each operator enters the dissipator as sqrt(rate) * op.
    """

    collapse_ops: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self):
        for op, rate in self.collapse_ops:
            if rate < 0.0:
                raise ValueError(f"collapse rate must be non-negative, got {rate}")
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

    The grid sets the stepper's steps and, on both paths, the times a
    trajectory records (every ``record_stride``-th node plus endpoints).
    """

    dt: Optional[float] = None
    record_stride: int = 20

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

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


def hamiltonian_stack(
    schedule: PulseSchedule,
    times: np.ndarray,
    err: ErrorInjection = NO_ERROR,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Rotating-frame Hamiltonians at ``times``, shape (n, dim, dim).

    ``levels`` maps the Lambda-system roles (|0>, |1>, |e>) onto matrix
    indices; the |0> slot may be None when that leg of the drive is unused
    (then the schedule must have zero amplitude on it).
    """
    i0, i1, ie = levels
    om0e, om1e, phi0, phi1 = drive_arrays(schedule, times)
    scale = 0.5 * (1.0 + err.amp_fraction)
    h = np.zeros((len(times), dim, dim), dtype=complex)
    if i0 is None:
        if np.max(np.abs(om0e), initial=0.0) > 0.0:
            raise ValueError("schedule drives the |0> leg but no level is mapped to it")
    else:
        h[:, i0, ie] = scale * om0e * np.exp(1j * phi0)
        h[:, ie, i0] = np.conj(h[:, i0, ie])
    h[:, i1, ie] = scale * om1e * np.exp(1j * phi1)
    h[:, ie, i1] = np.conj(h[:, i1, ie])
    h[:, ie, ie] = err.detuning(schedule.omega0)
    return h


def assemble_hamiltonian(
    schedule: PulseSchedule, t: float, err: ErrorInjection = NO_ERROR
) -> np.ndarray:
    """Instantaneous 3x3 qutrit Hamiltonian at time ``t``.

    H = (omega_0e/2) e^{i phi_0} |0><e| + (omega_1e/2) e^{i phi_1} |1><e|
    + h.c. + delta |e><e|, with drive amplitudes scaled by the injected
    amplitude error.
    """
    if t < 0.0 or t > schedule.duration * (1.0 + 1e-12):
        raise ValueError(f"time {t} outside schedule window [0, {schedule.duration}]")
    return hamiltonian_stack(schedule, np.array([t]), err)[0]


def _recorded_indices(n_steps: int, stride: int) -> np.ndarray:
    idx = [0]
    for k in range(n_steps):
        if (k + 1) % stride == 0 or k == n_steps - 1:
            idx.append(k + 1)
    return np.asarray(idx)


def _recorded_times(grid, stride: int) -> np.ndarray:
    """Grid nodes at which trajectories record: every ``stride``-th plus endpoints."""
    return grid.nodes[_recorded_indices(len(grid.dts), stride)]


def _step_propagators(gens: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """Exact exp(-i G_k dt_k) for a stack of Hermitian generators."""
    w, v = np.linalg.eigh(gens)
    phases = np.exp(-1j * w * dts[:, None])
    return np.einsum("nij,nj,nkj->nik", v, phases, v.conj())


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
    parts = (rows @ powers.reshape(len(powers), -1)).reshape(len(rows), n, d, d)
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


def _liouvillians(gens: np.ndarray, c_ops: np.ndarray, dissipation: float) -> np.ndarray:
    """Row-major Liouvillians -i (G (x) 1 - 1 (x) G^T) + dissipation * D, (n, d^2, d^2).

    D is the dissipator of ``c_ops`` (K, d, d), which carry the decay rates
    as sqrt(rate); ``gens`` is an (n, d, d) stack of Hamiltonian generators.
    """
    d = gens.shape[1]
    eye = np.eye(d)
    cdc = np.einsum("kji,kjl->il", c_ops.conj(), c_ops)
    jump = np.einsum("kij,klm->iljm", c_ops, c_ops.conj()).reshape(d * d, d * d)
    dissipator = jump - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    comm = np.einsum("nik,jl->nijkl", gens, eye) - np.einsum("ik,nlj->nijkl", eye, gens)
    return -1j * comm.reshape(-1, d * d, d * d) + dissipation * dissipator


# ---------------------------------------------------------------------------
# Exact propagation in the co-rotating frame
# ---------------------------------------------------------------------------


def _frame_exact(schedule: PulseSchedule, c_ops) -> bool:
    """Whether the co-rotating frame makes every segment's generator constant.

    Needs a schedule without edge ramps and collapse operators that are
    diagonal or a single matrix unit, which the frame only multiplies by
    phases.
    """
    if schedule.edge_ramp > 0.0:
        return False
    return all(
        np.count_nonzero(c) <= 1 or not np.count_nonzero(c - np.diag(np.diag(c)))
        for c in c_ops
    )


def _frame_generators(
    schedule: PulseSchedule,
    err: ErrorInjection,
    dim: int,
    levels: tuple[Optional[int], int, int],
) -> np.ndarray:
    """Constant frame generators G = D^dag H D - phi1' |e><e| per segment, (S, d, d)."""
    ie = levels[2]
    segs = schedule.segments
    starts = np.array([seg.t_start for seg in segs])
    mids = 0.5 * (starts + np.array([seg.t_end for seg in segs]))
    slopes = np.array([seg.phi1_slope for seg in segs])
    phi1 = np.array([seg.phi1_offset for seg in segs]) + slopes * (mids - starts)
    gens = hamiltonian_stack(schedule, mids, err, dim, levels)
    turn = np.exp(-1j * phi1)[:, None]
    rest = np.arange(dim) != ie
    gens[:, rest, ie] *= turn
    gens[:, ie, rest] *= turn.conj()
    gens[:, ie, ie] -= slopes
    return gens


def _frame_phases(seg, times: np.ndarray, dim: int, ie: int, noisy: bool) -> np.ndarray:
    """Diagonals of D(t) inside ``seg``, or of D (x) conj(D) for superoperators."""
    d = np.ones((len(times), dim), dtype=complex)
    d[:, ie] = np.exp(-1j * (seg.phi1_offset + seg.phi1_slope * (times - seg.t_start)))
    if noisy:
        return (d[:, :, None] * d.conj()[:, None, :]).reshape(len(times), dim * dim)
    return d


def _frame_maps(
    schedule: PulseSchedule,
    errs,
    times,
    c_ops: Optional[np.ndarray],
    dim: int,
    levels: tuple[Optional[int], int, int],
) -> np.ndarray:
    """Exact maps from t = 0 to each of the ascending ``times``, for every error.

    Returns (len(errs), len(times), m, m): unitaries (m = d) when ``c_ops``
    is None, row-major superoperators (m = d^2) otherwise.  The segment
    exponentials of all errors and times come from one batched call: eigh
    for unitaries, :func:`_expm` of the constant Liouvillians with noise.
    """
    segs = schedule.segments
    times = np.asarray(times, dtype=float)
    owner = np.minimum(np.searchsorted([seg.t_end for seg in segs], times), len(segs) - 1)
    # each segment's own times, plus its end when another segment follows
    spans = [
        np.append(times[owner == k], [seg.t_end] * (k < len(segs) - 1))
        for k, seg in enumerate(segs)
    ]
    taus = np.concatenate([at - seg.t_start for at, seg in zip(spans, segs)])
    seg_of = np.repeat(np.arange(len(segs)), [len(at) for at in spans])
    gens = np.stack([_frame_generators(schedule, err, dim, levels) for err in errs])
    gens = gens[:, seg_of].reshape(-1, dim, dim)
    dts = np.tile(taus, len(errs))
    if c_ops is None:
        exps = _step_propagators(gens, dts)
    else:
        exps = _expm(dts[:, None, None] * _liouvillians(gens, c_ops, 1.0))
    m = exps.shape[-1]
    exps = exps.reshape(len(errs), len(taus), m, m)

    noisy = c_ops is not None
    out = np.empty((len(errs), len(times), m, m), dtype=complex)
    start = np.broadcast_to(np.eye(m, dtype=complex), (len(errs), m, m))
    pos = 0
    for k, (seg, at) in enumerate(zip(segs, spans)):
        back = _frame_phases(seg, np.array([seg.t_start]), dim, levels[2], noisy)
        back = back.conj()[0, :, None] * start
        phases = _frame_phases(seg, at, dim, levels[2], noisy)
        maps = phases[None, :, :, None] * (exps[:, pos : pos + len(at)] @ back[:, None])
        out[:, owner == k] = maps[:, : np.count_nonzero(owner == k)]
        if k < len(segs) - 1:
            start = maps[:, -1]
        pos += len(at)
    return out


# ---------------------------------------------------------------------------
# CF4 stepper: edge-ramped schedules and other collapse operators
# ---------------------------------------------------------------------------


# Fourth-order commutator-free scheme: per step, the propagator is
# exp(-i dt G2) exp(-i dt G1) with generators G1 = a1 H(t1) + a2 H(t2),
# G2 = a2 H(t1) + a1 H(t2) sampled at the Gauss-Legendre nodes t1, t2.
_GL_C1 = 0.5 - math.sqrt(3.0) / 6.0
_GL_C2 = 0.5 + math.sqrt(3.0) / 6.0
_CF_A1 = 0.25 + math.sqrt(3.0) / 6.0
_CF_A2 = 0.25 - math.sqrt(3.0) / 6.0


def _cf4_generators(
    schedule: PulseSchedule,
    grid,
    err: ErrorInjection,
    dim: int,
    levels: tuple[Optional[int], int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step generator pairs and matching (duplicated) step sizes."""
    starts = grid.nodes[:-1]
    h1 = hamiltonian_stack(schedule, starts + _GL_C1 * grid.dts, err, dim, levels)
    h2 = hamiltonian_stack(schedule, starts + _GL_C2 * grid.dts, err, dim, levels)
    n = len(grid.dts)
    gens = np.empty((2 * n, dim, dim), dtype=complex)
    gens[0::2] = _CF_A1 * h1 + _CF_A2 * h2
    gens[1::2] = _CF_A2 * h1 + _CF_A1 * h2
    return gens, np.repeat(grid.dts, 2)


def _ordered_product(maps, dim: int) -> np.ndarray:
    """Product of ``maps`` in order of application, the last one leftmost."""
    out = np.eye(dim, dtype=complex)
    for step in maps:
        out = step @ out
    return out


def _recorded(maps, v0: np.ndarray, n: int, stride: int) -> np.ndarray:
    """Apply ``n`` maps to ``v0``, recording every ``stride``-th result plus endpoints."""
    v = v0
    out = [v]
    for k, step in enumerate(maps):
        v = step @ v
        if (k + 1) % stride == 0 or k == n - 1:
            out.append(v)
    return np.array(out)


def propagate_unitary(gens: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """Ordered product of step propagators exp(-i G_k dt_k), last step leftmost.

    ``gens``: (n, d, d) Hermitian generators, ``dts``: (n,) steps.
    """
    return _ordered_product(_step_propagators(gens, dts), gens.shape[1])


def evolve_states(
    gens: np.ndarray, dts: np.ndarray, psi0: np.ndarray, stride: int
) -> np.ndarray:
    """Propagate a state, recording every ``stride``-th step plus endpoints."""
    return _recorded(_step_propagators(gens, dts), psi0.astype(complex), len(dts), stride)


def lindblad_maps(gens: np.ndarray, dts: np.ndarray, c_ops: np.ndarray) -> np.ndarray:
    """Step maps exp(dt_k L_k) on row-major vec(rho), shape (n, d^2, d^2).

    L_k is the Liouvillian of the CF4 generator ``gens[k]`` plus half the
    dissipator of ``c_ops``: each step's two generators weigh the
    Hamiltonian by a1 + a2 = 1/2, so half of the constant dissipator goes
    with each and a step's pair of maps carries all of it.
    """
    return _expm(dts[:, None, None] * _liouvillians(gens, c_ops, 0.5))


def _lindblad_map_stream(gens: np.ndarray, dts: np.ndarray, c_ops: np.ndarray):
    """:func:`lindblad_maps` of the whole stack, built MAP_CHUNK steps at a time."""
    for start in range(0, len(dts), 2 * MAP_CHUNK):
        part = slice(start, start + 2 * MAP_CHUNK)
        yield from lindblad_maps(gens[part], dts[part], c_ops)


def _checked_grid(schedule: PulseSchedule, noise: NoiseModel, config: IntegratorConfig):
    """Stepping grid, rejecting steps too coarse for the fastest decay rate."""
    dt = config.resolve_dt(schedule.duration)
    if noise.max_rate * dt >= MAX_RATE_DT:
        raise ValueError(
            f"step size violation: max rate * dt = {noise.max_rate * dt:.3g} "
            f"must stay below {MAX_RATE_DT}"
        )
    return stepping_grid(schedule, dt)


def _stepped_propagator(
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """CF4 counterpart of :func:`propagator`: ordered product of step propagators."""
    grid = stepping_grid(schedule, config.resolve_dt(schedule.duration))
    return propagate_unitary(*_cf4_generators(schedule, grid, err, dim, levels))


def _stepped_pure(
    psi: np.ndarray,
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> Trajectory:
    """CF4 counterpart of :func:`evolve_pure`."""
    grid = stepping_grid(schedule, config.resolve_dt(schedule.duration))
    gens, dts = _cf4_generators(schedule, grid, err, dim, levels)
    # two exponentials per physical step: double the recording stride so
    # states are only captured at step boundaries
    states = evolve_states(gens, dts, psi, 2 * config.record_stride)
    return Trajectory(times=_recorded_times(grid, config.record_stride), states=states)


def _stepped_density(
    rho: np.ndarray,
    schedule: PulseSchedule,
    noise: NoiseModel = NO_NOISE,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> Trajectory:
    """CF4 counterpart of :func:`evolve_density`: step maps applied to vec(rho)."""
    grid = _checked_grid(schedule, noise, config)
    gens, dts = _cf4_generators(schedule, grid, err, dim, levels)
    maps = _lindblad_map_stream(gens, dts, noise.scaled_ops(dim))
    # two maps per physical step, as in _stepped_pure
    vecs = _recorded(maps, np.asarray(rho, dtype=complex).reshape(-1), len(dts),
                     2 * config.record_stride)
    times = _recorded_times(grid, config.record_stride)
    return Trajectory(times=times, states=vecs.reshape(-1, dim, dim))


def _stepped_channel(
    schedule: PulseSchedule,
    noise: NoiseModel = NO_NOISE,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """CF4 counterpart of :func:`gate_channel`: ordered product of the step maps."""
    grid = _checked_grid(schedule, noise, config)
    gens, dts = _cf4_generators(schedule, grid, err, dim, levels)
    return _ordered_product(_lindblad_map_stream(gens, dts, noise.scaled_ops(dim)), dim * dim)


# ---------------------------------------------------------------------------
# Public entry points: the exact frame where it applies, else the stepper
# ---------------------------------------------------------------------------


def error_maps(
    schedule: PulseSchedule,
    errs,
    noise: NoiseModel = NO_NOISE,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Full-schedule maps under each control error in ``errs``, built together.

    Unitaries (n, d, d) when ``noise`` is empty, else row-major
    superoperators (n, d^2, d^2).  Where the frame applies, every error's
    segment exponentials come from one batched call; otherwise each error
    runs on the CF4 stepper.
    """
    c_ops = noise.scaled_ops(dim)
    if not _frame_exact(schedule, c_ops):
        if noise.is_empty:
            return np.stack([_stepped_propagator(schedule, e, config, dim, levels) for e in errs])
        return np.stack([_stepped_channel(schedule, noise, e, config, dim, levels) for e in errs])
    _checked_grid(schedule, noise, config)
    c_ops = None if noise.is_empty else c_ops
    return _frame_maps(schedule, errs, [schedule.duration], c_ops, dim, levels)[:, 0]


def propagator(
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Full-schedule unitary: one exact exponential per segment when ramp-free."""
    return error_maps(schedule, [err], NO_NOISE, config, dim, levels)[0]


def dt_halving_delta(
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    u: Optional[np.ndarray] = None,
) -> float:
    """Accuracy diagnostic of the propagator, reported alongside results.

    On a ramp-free schedule, the max-norm distance between the exact frame
    propagator and the CF4 stepper at the configured dt; on an edge-ramped
    one, where the stepper is the engine, the max-norm change of its
    propagator when the step size is halved.  ``u`` is
    ``propagator(schedule, err, config)`` when the caller already holds it.
    """
    if u is None:
        u = propagator(schedule, err, config)
    if _frame_exact(schedule, ()):
        reference = _stepped_propagator(schedule, err, config)
    else:
        half = IntegratorConfig(dt=config.resolve_dt(schedule.duration) / 2.0)
        reference = _stepped_propagator(schedule, err, half)
    return float(np.max(np.abs(u - reference)))


def evolve_pure(
    psi0: np.ndarray,
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> Trajectory:
    """Propagate a pure state, recording every ``record_stride`` grid steps."""
    psi = np.asarray(psi0, dtype=complex)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"initial state norm {norm!r} deviates from 1")
    if not _frame_exact(schedule, ()):
        return _stepped_pure(psi, schedule, err, config, dim, levels)
    grid = stepping_grid(schedule, config.resolve_dt(schedule.duration))
    times = _recorded_times(grid, config.record_stride)
    states = _frame_maps(schedule, [err], times[1:], None, dim, levels)[0] @ psi
    return Trajectory(times=times, states=np.concatenate([psi[None], states]))


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
    c_ops = noise.scaled_ops(dim)
    if not _frame_exact(schedule, c_ops):
        return _stepped_density(rho, schedule, noise, err, config, dim, levels)
    times = _recorded_times(_checked_grid(schedule, noise, config), config.record_stride)
    if noise.is_empty:
        u = _frame_maps(schedule, [err], times[1:], None, dim, levels)[0]
        states = u @ rho @ u.conj().transpose(0, 2, 1)
    else:
        maps = _frame_maps(schedule, [err], times[1:], c_ops, dim, levels)[0]
        states = (maps @ rho.reshape(-1)).reshape(-1, dim, dim)
    return Trajectory(times=times, states=np.concatenate([rho[None], states]))


def gate_channel(
    schedule: PulseSchedule,
    noise: NoiseModel = NO_NOISE,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Superoperator of one full schedule, row-major vectorization.

    Satisfies vec(rho_out) = S vec(rho_in).  Without noise this is
    U (x) conj(U) for the schedule propagator U.  With noise it is one
    exponential of the frame Liouvillian per segment, or the ordered
    product of the stepper's maps where the frame does not apply.
    """
    if noise.is_empty:
        u = propagator(schedule, err, config, dim=dim, levels=levels)
        return np.kron(u, u.conj())
    return error_maps(schedule, [err], noise, config, dim, levels)[0]


def apply_superop(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a row-major-vectorized superoperator to a density matrix."""
    d = rho.shape[0]
    return (s @ rho.reshape(-1)).reshape(d, d)
