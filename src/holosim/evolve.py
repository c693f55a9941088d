"""Time-ordered propagation under a pulse schedule.

Both paths step with one fourth-order commutator-free exponential scheme
(CF4): two exponentials per step, whose generators mix the Hamiltonian
sampled at the step's two Gauss-Legendre nodes.  The unitary path
multiplies exact Hermitian step propagators; the open-system path
exponentiates the row-major Liouvillians of the same generators, each
carrying half the (constant) dissipator, and applies the resulting d^2 x
d^2 step maps to vec(rho) or multiplies them into a channel.  On a
constant segment the scheme is exact.  Integration grids place a node at
every segment boundary and the Gauss nodes lie strictly inside a step,
so phase jumps are never smeared across a step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import expm

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
    """Fixed-step integration settings; ``dt = None`` resolves to duration / 2000."""

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


def _step_propagators(gens: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """Exact exp(-i G_k dt_k) for a stack of Hermitian generators."""
    w, v = np.linalg.eigh(gens)
    phases = np.exp(-1j * w * dts[:, None])
    return np.einsum("nij,nj,nkj->nik", v, phases, v.conj())


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


def propagator(
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> np.ndarray:
    """Full-schedule unitary as an ordered product of step propagators."""
    grid = stepping_grid(schedule, config.resolve_dt(schedule.duration))
    gens, dts = _cf4_generators(schedule, grid, err, dim, levels)
    return propagate_unitary(gens, dts)


def dt_halving_delta(
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
) -> float:
    """Max-norm change of the propagator when the step size is halved.

    Reported as a convergence diagnostic alongside simulation results.
    """
    dt = config.resolve_dt(schedule.duration)
    u_coarse = propagator(schedule, err, IntegratorConfig(dt=dt, record_stride=1))
    u_fine = propagator(schedule, err, IntegratorConfig(dt=dt / 2.0, record_stride=1))
    return float(np.max(np.abs(u_coarse - u_fine)))


def evolve_pure(
    psi0: np.ndarray,
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
    dim: int = QUTRIT_DIM,
    levels: tuple[Optional[int], int, int] = QUTRIT_LEVELS,
) -> Trajectory:
    """Propagate a pure state, recording every ``record_stride`` steps."""
    psi = np.asarray(psi0, dtype=complex)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"initial state norm {norm!r} deviates from 1")
    grid = stepping_grid(schedule, config.resolve_dt(schedule.duration))
    gens, dts = _cf4_generators(schedule, grid, err, dim, levels)
    # two exponentials per physical step: double the recording stride so
    # states are only captured at step boundaries
    states = evolve_states(gens, dts, psi, 2 * config.record_stride)
    times = grid.nodes[_recorded_indices(len(grid.dts), config.record_stride)]
    return Trajectory(times=times, states=states)


def lindblad_maps(gens: np.ndarray, dts: np.ndarray, c_ops: np.ndarray) -> np.ndarray:
    """Step maps exp(dt_k L_k) on row-major vec(rho), shape (n, d^2, d^2).

    L_k = -i (G_k (x) 1 - 1 (x) G_k^T) + D / 2 for the CF4 generators
    ``gens`` (n, d, d) and the dissipator D of ``c_ops`` (K, d, d), which
    carry the decay rates as sqrt(rate).  Each step's two generators
    weigh the Hamiltonian by a1 + a2 = 1/2, so half of the constant
    dissipator goes with each and a step's pair of maps carries all of it.
    """
    d = gens.shape[1]
    eye = np.eye(d)
    cdc = np.einsum("kji,kjl->il", c_ops.conj(), c_ops)
    jump = np.einsum("kij,klm->iljm", c_ops, c_ops.conj()).reshape(d * d, d * d)
    dissipator = jump - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    comm = np.einsum("nik,jl->nijkl", gens, eye) - np.einsum("ik,nlj->nijkl", eye, gens)
    liou = -1j * comm.reshape(-1, d * d, d * d) + 0.5 * dissipator
    return expm(dts[:, None, None] * liou)


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

    Applies the CF4 step maps of :func:`lindblad_maps` to vec(rho) and
    records states as :func:`evolve_pure` does.  With an empty noise model
    this reproduces the pure-state evolution of the corresponding
    projector.  Raises on step-size violations (rate * dt must stay below
    0.01).
    """
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho.shape} does not match dim {dim}")
    grid = _checked_grid(schedule, noise, config)
    gens, dts = _cf4_generators(schedule, grid, err, dim, levels)
    maps = _lindblad_map_stream(gens, dts, noise.scaled_ops(dim))
    # two maps per physical step, as in evolve_pure
    vecs = _recorded(maps, rho.reshape(-1), len(dts), 2 * config.record_stride)
    times = grid.nodes[_recorded_indices(len(grid.dts), config.record_stride)]
    return Trajectory(times=times, states=vecs.reshape(-1, dim, dim))


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
    U (x) conj(U) for the schedule propagator U.  With noise it is the
    ordered product of the step maps that :func:`evolve_density` applies,
    so a channel costs the same exponentials as one evolved state.
    """
    if noise.is_empty:
        u = propagator(schedule, err, config, dim=dim, levels=levels)
        return np.kron(u, u.conj())
    grid = _checked_grid(schedule, noise, config)
    gens, dts = _cf4_generators(schedule, grid, err, dim, levels)
    return _ordered_product(_lindblad_map_stream(gens, dts, noise.scaled_ops(dim)), dim * dim)


def apply_superop(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a row-major-vectorized superoperator to a density matrix."""
    d = rho.shape[0]
    return (s @ rho.reshape(-1)).reshape(d, d)
