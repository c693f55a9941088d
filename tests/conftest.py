import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from holosim.pulses import GateSpec

#: Drive amplitude used in the hardware runs this package reproduces.
OMEGA0 = 2.0 * math.pi * 8.660e6


@pytest.fixture
def omega0():
    return OMEGA0


@pytest.fixture
def sqrt_x_spec():
    return GateSpec(theta=0.5 * math.pi, phi=0.0, gamma=0.5 * math.pi)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_state(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_gate_spec(rng, gamma_margin=0.05):
    return GateSpec(
        theta=rng.uniform(0.0, math.pi),
        phi=rng.uniform(0.0, 2.0 * math.pi),
        gamma=rng.uniform(gamma_margin, 2.0 * math.pi - gamma_margin),
    )


def phase_aligned_distance(a, b):
    """Max-norm distance between matrices after optimal global-phase alignment."""
    overlap = np.trace(a.conj().T @ b)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(a - b / phase)))


def segments_at(schedule, times):
    """The segment that holds each of ``times``; an exact boundary takes the later one."""
    return [next((s for s in schedule.segments if t < s.t_end), schedule.segments[-1]) for t in times]


def table_at(schedule, times):
    """The table columns of :func:`segments_at`, one per time."""
    return schedule.table[:, np.searchsorted(schedule.table[0], times, side="right") - 1]


def lab_hamiltonian(seg, t, dim=3, levels=(0, 1, 2)):
    """Lab-frame H(t) inside ``seg``, from its parameters (a ramp sample holds its envelope)."""
    i0, i1, ie = levels
    omega = seg.omega
    phi1 = seg.phi1_offset + seg.phi1_slope * (t - seg.t_start)
    h = np.zeros((dim, dim), dtype=complex)
    if i0 is not None:
        h[i0, ie] = 0.5 * omega * math.sin(0.5 * seg.theta_mix) * np.exp(1j * (phi1 + seg.phi0_offset))
    h[i1, ie] = 0.5 * omega * math.cos(0.5 * seg.theta_mix) * np.exp(1j * phi1)
    return h + h.conj().T


def ivp_evolve(schedule, y0, times, c_ops=None, dim=3, levels=(0, 1, 2)):
    """Independent reference: DOP853 on the lab-frame equations of motion.

    Integrates the Schroedinger equation on the columns of ``y0`` (d rows)
    when ``c_ops`` is None, else the Lindblad equation on row-major vec(rho)
    columns (d^2 rows).  Each integration stops at every segment boundary
    (the samples of an edge ramp included) and requested time, holding the
    segment fixed inside, so no step straddles a phase jump or a jump of
    the drive.  Returns the state at each of the ascending ``times``.
    """
    eye = np.eye(dim)
    diss = 0.0
    for c in () if c_ops is None else c_ops:
        cdc = c.conj().T @ c
        diss = diss + np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))

    def rhs(seg, shape):
        def f(t, y):
            h = lab_hamiltonian(seg, t, dim, levels)
            gen = -1j * h if c_ops is None else -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + diss
            return (gen @ y.reshape(shape)).reshape(-1)

        return f

    stops = sorted({0.0, schedule.duration, *(s.t_end for s in schedule.segments), *times})
    y = np.asarray(y0, dtype=complex)
    states = {0.0: y}
    for a, b in zip(stops, stops[1:]):
        seg = next(s for s in schedule.segments if 0.5 * (a + b) < s.t_end)
        sol = solve_ivp(rhs(seg, y.shape), (a, b), y.reshape(-1), method="DOP853",
                        rtol=1e-13, atol=1e-15)
        assert sol.success, sol.message
        y = sol.y[:, -1].reshape(y.shape)
        states[b] = y
    return np.array([states[t] for t in times])
