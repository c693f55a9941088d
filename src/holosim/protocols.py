"""Experiment-level procedures: randomized benchmarking, fits, and scans.

Randomized benchmarking draws one pseudo-random stream per (length,
sequence) slot from the master seed, so results are bitwise identical for
a given configuration.  A simulated run builds the channels of all its
gates in one engine call and applies them to every sequence of a length
at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import evolve as _evolve
from .evolve import (
    DEFAULT_CONFIG,
    NO_ERROR,
    NO_NOISE,
    ErrorInjection,
    IntegratorConfig,
    NoiseModel,
    gate_channels,
)
from .gates import (
    clifford_group,
    clifford_index_of,
    compile_clifford,
    gate_spec_from_unitary,
    ideal_single_qubit,
)
from .pulses import GateSpec, PulseSchedule, synthesize
from .quantum import basis_state, bloch_coordinates, density, unattenuated_fidelity

DEFAULT_OMEGA0 = 2.0 * math.pi * 8.660e6

#: Documented default relaxation times (seconds) for noisy desk-scale runs.
#: Chosen so the conventional-scheme phase-gate error lands near 1e-2 at the
#: default drive amplitude, with a clear survival decay at short sequence
#: lengths.
DEFAULT_T1_E_TO_0 = 5e-6
DEFAULT_T1_1_TO_E = 3e-6
DEFAULT_TPHI_E = 10e-6
DEFAULT_TPHI_1 = 10e-6


def default_noise_model() -> NoiseModel:
    """Ladder decay plus dephasing at the documented default rates."""
    return NoiseModel.qutrit_relaxation(
        t1_e_to_0=DEFAULT_T1_E_TO_0,
        t1_1_to_e=DEFAULT_T1_1_TO_E,
        tphi_e=DEFAULT_TPHI_E,
        tphi_1=DEFAULT_TPHI_1,
    )


def t1_limited_noise_model() -> NoiseModel:
    """Decay-only configuration used for the scheme-comparison report."""
    return NoiseModel.qutrit_relaxation(
        t1_e_to_0=DEFAULT_T1_E_TO_0, t1_1_to_e=DEFAULT_T1_1_TO_E
    )


# ---------------------------------------------------------------------------
# Exponential decay fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Parameters of F = A p^m + B with covariance-derived standard errors."""

    a: float
    p: float
    b: float
    a_err: float
    p_err: float
    b_err: float
    success: bool
    degenerate: bool = False
    message: str = ""


#: Bounds of (A, p, B) in the F = A p^m + B fit and the p it starts from.
_FIT_LOWER = np.array([-0.5, 1e-6, -0.5])
_FIT_UPPER = np.array([1.5, 1.0, 1.5])
_FIT_P0 = 0.99
#: Coarse search grid: p = 1 - q, q from 1 down to 1e-10 at 8 points a decade, and p = 1.
_FIT_GRID = np.append(np.clip(1.0 - np.geomspace(1.0, 1e-10, 81), _FIT_LOWER[1], None), 1.0)


def _profile(ps: np.ndarray, ms: np.ndarray, fs: np.ndarray):
    """Best bounded (A, B) at each p of ``ps`` and the slope of the profiled cost.

    The free optimum is the centred 2x2 least-squares solution, centred on
    u = p^m - 1 from expm1 so that it stays accurate as p -> 1.  Outside the
    box the optimum lies on one of the four edges: one coefficient on a
    bound, the other its clipped 1-D solution.  The slope is d|r|^2/dp at
    that (A, B) (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).
    """
    u = np.expm1(np.log(ps)[:, None] * ms)
    pm = u + 1.0
    du = u - u.mean(axis=1, keepdims=True)
    (a_lo, b_lo), (a_hi, b_hi) = _FIT_LOWER[::2], _FIT_UPPER[::2]
    # rows: the free optimum, A on its two bounds, B on its two bounds
    a, b = np.empty((2, 5, len(ps)))
    a[1:3], b[3:] = [[a_lo], [a_hi]], [[b_lo], [b_hi]]
    # 0/0 where all p^m agree or underflow: at p = 1 only A + B counts, and
    # the free optimum is the minimum-norm A = B; a NaN row is never picked
    with np.errstate(invalid="ignore"):
        a[0] = du @ (fs - fs.mean()) / np.einsum("ij,ij->i", du, du)
        a[3:] = (pm @ fs - b[3:] * pm.sum(axis=1)) / np.einsum("ij,ij->i", pm, pm)
    a[0, ps == 1.0] = fs.mean() / 2.0
    b[:3] = fs.mean() - a[:3] * pm.mean(axis=1)
    inside = (a_lo <= a[0]) & (a[0] <= a_hi) & (b_lo <= b[0]) & (b[0] <= b_hi)
    a, b = np.clip(a, a_lo, a_hi), np.clip(b, b_lo, b_hi)
    r = a[..., None] * pm + b[..., None] - fs
    cost = np.einsum("cpk,cpk->cp", r, r)
    best = np.where(inside, 0, np.nanargmin(cost, axis=0)), np.arange(len(ps))
    a, b, r = a[best], b[best], r[best]
    return a, b, 2.0 * a * ((r * pm) @ ms) / ps


def _fit_p(ms: np.ndarray, fs: np.ndarray) -> float:
    """First minimum of the profiled cost downhill from p = 0.99.

    Walks _FIT_GRID along the slope's sign to its first sign change (or
    returns the bound it reaches), then narrows that bracket on finer grids
    until its ends are adjacent floats.
    """
    slope = _profile(_FIT_GRID, ms, fs)[2]
    i = int(np.argmin(np.abs(_FIT_GRID - _FIT_P0)))
    if slope[i] <= 0.0:  # downhill towards p = 1
        k = i + 1 + np.flatnonzero(slope[i + 1 :] >= 0.0)
    else:
        k = 1 + np.flatnonzero(slope[:i] <= 0.0)[::-1]
    if not k.size:
        return float(_FIT_GRID[-1 if slope[i] <= 0.0 else 0])
    lo, hi = _FIT_GRID[k[0] - 1 : k[0] + 1]
    while np.nextafter(lo, hi) < hi:
        ps = np.linspace(lo, hi, 64)
        k = 1 + np.argmax(_profile(ps, ms, fs)[2][1:] >= 0.0)
        lo, hi = ps[k - 1 : k + 1]
    return float(hi)


def _failed_fit(reason: str) -> FitResult:
    nan = float("nan")
    return FitResult(a=nan, p=nan, b=nan, a_err=nan, p_err=nan, b_err=nan,
                     success=False, message=f"fit did not converge: {reason}")


def fit_decay(m_values: Sequence[int], f_values: Sequence[float]) -> FitResult:
    """Least-squares fit of survival data to F = A p^m + B.

    Fits by variable projection within the bounds [-0.5, 1.5] x [1e-6, 1]
    x [-0.5, 1.5]: A and B take their exact bounded least-squares values
    at every p, and p is the first minimum of the remaining cost in p
    downhill from p = 0.99 (or the bound it runs into), found by slope
    bracketing down to adjacent floats; there is no step cap.  Standard
    errors come from the pseudo-inverse of J^T J at the optimum times the
    residual variance sum(r^2) / (n - 3), and are infinite when n <= 3.
    Constant data is reported as degenerate with p = 1; non-finite data
    yields an explicit non-success result instead of raising.
    """
    ms = np.asarray(m_values, dtype=float)
    fs = np.asarray(f_values, dtype=float)
    if len(set(m_values)) < 3:
        raise ValueError("need at least 3 distinct sequence lengths to fit")
    if not np.all(np.isfinite(fs)):
        return _failed_fit("non-finite survival data")
    if np.ptp(fs) < 1e-9:
        level = float(np.mean(fs))
        return FitResult(
            a=0.0, p=1.0, b=level, a_err=float("nan"), p_err=float("nan"),
            b_err=float("nan"), success=True, degenerate=True,
            message=f"constant survival {level:.6g}; A + B = {level:.6g} with p = 1",
        )
    p = _fit_p(ms, fs)
    (a,), (b,), _ = _profile(np.array([p]), ms, fs)
    r = a * p**ms + b - fs
    jac = np.column_stack([p**ms, a * ms * p ** (ms - 1.0), np.ones_like(ms)])
    # covariance as scipy's curve_fit forms it from the Jacobian in (A, p, B):
    # a pseudo-inverse dropping singular values at roundoff level, scaled by
    # the residual variance
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(jac.shape) * sv[0]
    cov = (vt[keep].T / sv[keep] ** 2) @ vt[keep]
    if len(fs) > 3:
        errs = np.sqrt(np.abs(np.diag(cov)) * (r @ r) / (len(fs) - 3))
    else:
        errs = np.full(3, np.inf)
    return FitResult(
        a=float(a), p=p, b=float(b),
        a_err=float(errs[0]), p_err=float(errs[1]), b_err=float(errs[2]),
        success=True,
    )


@dataclass(frozen=True)
class InterleavedEstimate:
    """Interleaved-benchmarking gate error r = (1 - p_int/p_ref)(d-1)/d."""

    gate_error: float
    gate_fidelity: float
    warning: Optional[str] = None


def interleaved_gate_error(p_ref: float, p_int: float, d: int = 2) -> InterleavedEstimate:
    """Gate error from reference and interleaved decay constants.

    ``p_int > p_ref`` is reported as a warning (statistical fluctuation
    regime) rather than clamped.
    """
    if not 0.0 < p_ref <= 1.0 or not 0.0 < p_int <= 1.0:
        raise ValueError("decay constants must lie in (0, 1]")
    warning = None
    if p_int > p_ref:
        warning = (
            f"p_int = {p_int:.6g} exceeds p_ref = {p_ref:.6g}; "
            "estimate is in the statistical-fluctuation regime"
        )
    r = (1.0 - p_int / p_ref) * (d - 1) / d
    return InterleavedEstimate(gate_error=r, gate_fidelity=1.0 - r, warning=warning)


# ---------------------------------------------------------------------------
# Randomized benchmarking
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RBConfig:
    """Configuration of a randomized-benchmarking run.

    ``interleaved_target`` inserts that gate after every random Clifford;
    ``shots = None`` records exact survival probabilities, an integer
    samples binomially.
    """

    sequence_lengths: tuple[int, ...]
    sequences_per_length: int = 20
    seed: int = 0
    scheme: str = "tounhqc"
    interleaved_target: Optional[GateSpec] = None
    noise: NoiseModel = NO_NOISE
    err: ErrorInjection = NO_ERROR
    omega0: float = DEFAULT_OMEGA0
    integrator: IntegratorConfig = DEFAULT_CONFIG
    shots: Optional[int] = None

    def __post_init__(self):
        lengths = tuple(int(m) for m in self.sequence_lengths)
        if not lengths or any(m <= 0 for m in lengths):
            raise ValueError("sequence lengths must be positive integers")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("sequence lengths must be strictly increasing")
        if self.sequences_per_length < 10:
            raise ValueError("need at least 10 sequences per length for fitting")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be positive when given")
        object.__setattr__(self, "sequence_lengths", lengths)


@dataclass(frozen=True, eq=False)
class RBResult:
    """Survival statistics per sequence length plus the decay fit."""

    lengths: tuple[int, ...]
    survival_mean: dict[int, float]
    survival_std: dict[int, float]
    per_sequence: dict[int, np.ndarray]
    fit: FitResult


class SimulatedSequenceExecutor:
    """Runs gate sequences through pulse synthesis and time evolution.

    Every gate acts on the density matrix through its superoperator.
    :meth:`survivals` runs many sequences together: it builds the channels
    of all gates it has not cached in one :func:`gate_channels` call, then
    applies gate j of every sequence of a length as one stacked product.
    Channels of recurring gates (the Cliffords plus any declared extras)
    stay cached across calls; one-off gates such as per-sequence recovery
    rotations are built for the call and dropped.
    """

    def __init__(
        self,
        scheme: str,
        omega0: float,
        noise: NoiseModel = NO_NOISE,
        err: ErrorInjection = NO_ERROR,
        config: IntegratorConfig = DEFAULT_CONFIG,
        extra_cached: Sequence[Optional[GateSpec]] = (),
    ):
        self.scheme = scheme
        self.omega0 = omega0
        self.noise = noise
        self.err = err
        self.config = config
        self._cache: dict[GateSpec, np.ndarray] = {}
        cacheable = {compile_clifford(i) for i in range(24)}
        cacheable.update(extra_cached)
        cacheable.discard(None)
        self._cacheable: set[GateSpec] = cacheable

    def survivals(
        self, gates: Sequence[Optional[GateSpec]], sequences: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """|0> survival after each sequence of gates, all sequences at once.

        Each (n, L) integer array in ``sequences`` holds n sequences of L
        indices into ``gates``, applied in order to |0><0|; a None gate is
        the identity.  Returns one length-n array per index array.
        """
        missing = list(dict.fromkeys(
            spec for spec in gates if spec is not None and spec not in self._cache
        ))
        built = {}
        if missing:
            schedules = [synthesize(spec, self.omega0, self.scheme) for spec in missing]
            channels = gate_channels(schedules, self.noise, self.err, self.config)
            built = dict(zip(missing, channels))
        built.update(self._cache)
        eye = np.eye(9, dtype=complex)
        stack = np.array([eye if spec is None else built[spec] for spec in gates])
        self._cache.update((spec, built[spec]) for spec in missing if spec in self._cacheable)

        rho0 = density(basis_state(3, 0)).reshape(-1, 1)
        out = []
        for idx in sequences:
            vecs = np.repeat(rho0[None], len(idx), axis=0)
            for column in idx.T:
                vecs = stack[column] @ vecs
            out.append(vecs[:, 0, 0].real)
        return out

    def __call__(self, specs: Sequence[Optional[GateSpec]], rng=None) -> float:
        return float(self.survivals(specs, [np.arange(len(specs))[None]])[0][0])


def depolarizing_executor(lam: float) -> Callable:
    """Analytic test channel: ideal gates, each followed by depolarizing.

    Substituting this executor for simulation makes the survival decay
    exactly F(m) = 1/2 + lam^(m+1) / 2, so the fitted p recovers ``lam``.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("depolarizing parameter must lie in (0, 1]")
    eye = np.eye(2, dtype=complex)

    def run(specs: Sequence[Optional[GateSpec]], rng=None) -> float:
        rho = density(basis_state(2, 0))
        for spec in specs:
            u = ideal_single_qubit(spec) if spec is not None else eye
            rho = u @ rho @ u.conj().T
            rho = lam * rho + (1.0 - lam) * 0.5 * eye
        return float(rho[0, 0].real)

    return run


def _draw_sequences(config: RBConfig):
    """Gate table, sequences and slot streams of a randomized-benchmarking run.

    Slot (i, j), sequence j of length i, draws its Cliffords from its own
    stream, seeded by (seed, (i, j)).  The ideal products of all sequences
    of a length are tracked together.  Returns the gate table (the 24
    compiled Cliffords, then the interleaved target and one recovery per
    sequence when there is a target), one (n, L) array of table indices per
    length, and each length's n slot generators, whose streams continue
    with the shot sampling.
    """
    cliffords = np.array(clifford_group())
    gates: list[Optional[GateSpec]] = [compile_clifford(i) for i in range(len(cliffords))]
    target = config.interleaved_target
    if target is not None:
        target_u = ideal_single_qubit(target)
        gates.append(target)
    n = config.sequences_per_length
    sequences, streams = [], []
    for i_len, m in enumerate(config.sequence_lengths):
        rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(i_len, i_seq)))
            for i_seq in range(n)
        ]
        drawn = np.array([rng.integers(0, len(cliffords), size=m) for rng in rngs])
        u_total = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2))
        for column in drawn.T:
            u_total = cliffords[column] @ u_total
            if target is not None:
                u_total = target_u @ u_total
        inverse = u_total.conj().transpose(0, 2, 1)
        if target is None:
            # the inverse of a Clifford product is a Clifford: look it up
            idx = np.column_stack([drawn, clifford_index_of(inverse)])
        else:
            # the product includes non-Clifford gates; compile the exact
            # inverse as a single loop
            idx = np.full((n, 2 * m + 1), len(cliffords))
            idx[:, : 2 * m : 2] = drawn
            idx[:, -1] = np.arange(len(gates), len(gates) + n)
            gates.extend(gate_spec_from_unitary(w) for w in inverse)
        sequences.append(idx)
        streams.append(rngs)
    return gates, sequences, streams


def rb_run(config: RBConfig, sequence_executor: Optional[Callable] = None) -> RBResult:
    """Clifford randomized benchmarking with ground-state survival readout.

    Each sequence is ``m`` uniformly random Cliffords (optionally with the
    interleaved target after each) closed by the recovery gate inverting
    the ideal product.  Survival is the |0> population of the qutrit, so
    leakage counts as failure.  Deterministic for a given config and seed.
    A :class:`SimulatedSequenceExecutor` (the default) runs all sequences
    at once; any other ``sequence_executor(specs, rng)`` is called once per
    sequence with that slot's generator.
    """
    executor = sequence_executor or SimulatedSequenceExecutor(
        config.scheme,
        config.omega0,
        config.noise,
        config.err,
        config.integrator,
        extra_cached=(config.interleaved_target,),
    )
    gates, sequences, streams = _draw_sequences(config)
    if isinstance(executor, SimulatedSequenceExecutor):
        survivals = executor.survivals(gates, sequences)
    else:
        survivals = [
            [executor([gates[i] for i in row], rng) for row, rng in zip(idx, rngs)]
            for idx, rngs in zip(sequences, streams)
        ]

    per_sequence: dict[int, np.ndarray] = {}
    for m, values, rngs in zip(config.sequence_lengths, survivals, streams):
        if config.shots is not None:
            values = [
                rng.binomial(config.shots, min(max(p, 0.0), 1.0)) / config.shots
                for p, rng in zip(values, rngs)
            ]
        per_sequence[m] = np.asarray(values, dtype=float)
    mean = {m: float(vals.mean()) for m, vals in per_sequence.items()}
    std = {m: float(vals.std(ddof=1)) for m, vals in per_sequence.items()}
    fit = fit_decay(list(config.sequence_lengths), [mean[m] for m in config.sequence_lengths])
    return RBResult(
        lengths=config.sequence_lengths,
        survival_mean=mean,
        survival_std=std,
        per_sequence=per_sequence,
        fit=fit,
    )


# ---------------------------------------------------------------------------
# Robustness scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Unattenuated fidelity over a control-error grid.

    ``fidelity[i, j]`` corresponds to ``(amp_axis[i], detuning_axis[j])``.
    """

    amp_axis: np.ndarray
    detuning_axis: np.ndarray
    fidelity: np.ndarray


#: Ramsey-style scan state pair: start at (|0> - i |1>)/sqrt(2).
SCAN_INITIAL = np.array([1.0, -1.0j, 0.0], dtype=complex) / math.sqrt(2.0)


def robustness_scan(
    scheme: str,
    gamma: float,
    amp_range: tuple[float, float] = (-0.05, 0.05),
    detuning_range: tuple[float, float] = (-0.05, 0.05),
    resolution: int = 21,
    noise: NoiseModel = NO_NOISE,
    config: IntegratorConfig = DEFAULT_CONFIG,
    omega0: float = DEFAULT_OMEGA0,
    detuning_absolute: bool = False,
) -> ScanResult:
    """Phase-gate fidelity versus amplitude and detuning control errors.

    Simulates the gamma phase gate from (|0> - i |1>)/sqrt(2) at every grid
    point and scores the unattenuated fidelity against the ideal output.
    ``detuning_absolute`` switches the detuning axis from fractions of
    omega0 to absolute rad/s.  The gate maps of all grid points are built
    in one batch (:func:`holosim.evolve.error_maps`).
    """
    if resolution < 5:
        raise ValueError("scan resolution must be at least 5 per axis")
    spec = GateSpec(theta=0.0, phi=0.0, gamma=gamma)
    schedule = synthesize(spec, omega0, scheme)
    amp_axis = np.linspace(amp_range[0], amp_range[1], resolution)
    det_axis = np.linspace(detuning_range[0], detuning_range[1], resolution)

    ideal = ideal_single_qubit(spec) @ SCAN_INITIAL[:2]
    rho_th = density(np.append(ideal, 0.0))

    def error(amp, det):
        if detuning_absolute:
            return ErrorInjection(amp_fraction=amp, detuning_rad_s=det)
        return ErrorInjection(amp_fraction=amp, detuning_fraction=det)

    errs = [error(amp, det) for amp in amp_axis for det in det_axis]
    maps = _evolve.error_maps(schedule, errs, noise, config)
    if noise.is_empty:
        psis = maps @ SCAN_INITIAL
        rhos = np.einsum("ni,nj->nij", psis, psis.conj())
    else:
        rhos = (maps @ density(SCAN_INITIAL).reshape(-1)).reshape(-1, 3, 3)
    values = [unattenuated_fidelity(rho_th, rho) for rho in rhos]
    fidelity = np.asarray(values).reshape(resolution, resolution)
    return ScanResult(amp_axis=amp_axis, detuning_axis=det_axis, fidelity=fidelity)


# ---------------------------------------------------------------------------
# Scheme comparison
# ---------------------------------------------------------------------------


def average_channel_fidelity(superop: np.ndarray, u_ideal: np.ndarray) -> float:
    """Average fidelity of a channel against a target unitary.

    Uses F_avg = (d F_pro + 1) / (d + 1) with the process fidelity
    F_pro = Re Tr(S_U^dag S) / d^2 in row-major vectorization.  ``superop``
    must act on the same dimension as ``u_ideal``.
    """
    d = u_ideal.shape[0]
    if superop.shape != (d * d, d * d):
        raise ValueError(f"superoperator shape {superop.shape} does not match d={d}")
    s_u = np.kron(u_ideal, u_ideal.conj())
    f_pro = float(np.trace(s_u.conj().T @ superop).real) / (d * d)
    return (d * f_pro + 1.0) / (d + 1.0)


def _qubit_block_superop(s3: np.ndarray) -> np.ndarray:
    """Restrict a qutrit superoperator to the (|0>, |1>) block."""
    keep = [0, 1, 3, 4]  # row-major pairs (0,0), (0,1), (1,0), (1,1)
    return s3[np.ix_(keep, keep)]


@dataclass(frozen=True)
class SchemeComparison:
    """Durations, fidelities and the relative error reduction of the schemes.

    ``error_reduction`` is (e_nhqc - e_tounhqc) / e_nhqc, or None when both
    errors are below 1e-5 and the ratio is meaningless.
    """

    gamma: float
    tau_tounhqc: float
    tau_nhqc: float
    fidelity_tounhqc: float
    fidelity_nhqc: float
    error_tounhqc: float
    error_nhqc: float
    error_reduction: Optional[float]


def compare_schemes(
    gamma: float,
    omega0: float = DEFAULT_OMEGA0,
    noise: NoiseModel = NO_NOISE,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
) -> SchemeComparison:
    """Head-to-head phase-gate comparison under identical noise and error."""
    spec = GateSpec(theta=0.0, phi=0.0, gamma=gamma)
    ideal = ideal_single_qubit(spec)
    schemes = ("tounhqc", "nhqc")
    schedules = [synthesize(spec, omega0, scheme) for scheme in schemes]
    taus = {scheme: schedule.duration for scheme, schedule in zip(schemes, schedules)}
    errors = {
        scheme: 1.0 - average_channel_fidelity(_qubit_block_superop(channel), ideal)
        for scheme, channel in zip(schemes, gate_channels(schedules, noise, err, config))
    }
    e_t, e_n = errors["tounhqc"], errors["nhqc"]
    if e_t < 1e-5 and e_n < 1e-5:
        reduction = None
    else:
        reduction = (e_n - e_t) / e_n
    return SchemeComparison(
        gamma=gamma,
        tau_tounhqc=taus["tounhqc"],
        tau_nhqc=taus["nhqc"],
        fidelity_tounhqc=1.0 - e_t,
        fidelity_nhqc=1.0 - e_n,
        error_tounhqc=e_t,
        error_nhqc=e_n,
        error_reduction=reduction,
    )


# ---------------------------------------------------------------------------
# Trajectory reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrajectoryReport:
    """Population and Bloch-vector time series of one schedule run.

    ``populations`` rows are (P0, P1, Pe); ``bloch`` rows are
    (x, y, z, subspace population), NaN where the qubit subspace is empty.
    """

    times: np.ndarray
    populations: np.ndarray
    bloch: np.ndarray


def trajectory_report(
    schedule: PulseSchedule,
    initial: np.ndarray,
    noise: NoiseModel = NO_NOISE,
    err: ErrorInjection = NO_ERROR,
    config: IntegratorConfig = DEFAULT_CONFIG,
) -> TrajectoryReport:
    """Populations and qubit-subspace Bloch coordinates along a schedule."""
    initial = np.asarray(initial, dtype=complex)
    if noise.is_empty and initial.ndim == 1:
        traj = _evolve.evolve_pure(initial, schedule, err, config)
        rhos = np.einsum("ni,nj->nij", traj.states, traj.states.conj())
    else:
        rho0 = density(initial) if initial.ndim == 1 else initial
        traj = _evolve.evolve_density(rho0, schedule, noise, err, config)
        rhos = traj.states
    populations = np.einsum("nii->ni", rhos).real
    bloch = np.full((len(rhos), 4), np.nan)
    for k, rho in enumerate(rhos):
        try:
            bloch[k] = bloch_coordinates(rho)
        except ValueError:
            pass  # empty subspace: leave the NaN row
    return TrajectoryReport(times=traj.times, populations=populations, bloch=bloch)
