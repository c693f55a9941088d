"""Exact reference propagation in the co-rotating frame.

Every holosim schedule without edge ramps is a sequence of segments with a
constant drive amplitude and a common drive phase phi1(t) that is linear in
time.  Write the state as psi = D(t) psi~ with D(t) = exp(-i phi1(t) |e><e|).
In that frame each segment has the constant generator

    G = H(phi1 = 0) - phi1' |e><e|,

so a segment's propagator is D(t_end) exp(-i G dt) D(t_start)^dag: one
matrix exponential per segment, with no time stepping.  The collapse
operators of holosim's noise models are matrix units or diagonal, so the
frame only multiplies them by phases and the dissipator is unchanged; a
noisy segment is one exponential of a constant Liouvillian.

The engine under test is never called here.  Schedules (``synthesize``)
and noise models are inputs and come from holosim.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

QUTRIT_LEVELS = (0, 1, 2)


def _generator(seg, dim, levels, amp, detuning):
    i0, i1, ie = levels
    scale = 0.5 * (1.0 + amp) * seg.omega
    g = np.zeros((dim, dim), dtype=complex)
    leg0 = scale * math.sin(0.5 * seg.theta_mix)
    if i0 is None:
        if leg0 != 0.0:
            raise ValueError("schedule drives the |0> leg but no level is mapped to it")
    else:
        g[i0, ie] = leg0 * np.exp(1j * seg.phi0_offset)
        g[ie, i0] = np.conj(g[i0, ie])
    g[i1, ie] = scale * math.cos(0.5 * seg.theta_mix)
    g[ie, i1] = np.conj(g[i1, ie])
    g[ie, ie] = detuning - seg.phi1_slope
    return g


def _frame(seg, t, dim, ie):
    """Diagonal of D(t) inside ``seg``."""
    d = np.ones(dim, dtype=complex)
    d[ie] = np.exp(-1j * (seg.phi1_offset + seg.phi1_slope * (t - seg.t_start)))
    return d


def _liouvillian(g, c_ops):
    """Row-major vectorized Lindblad generator: vec(A rho B) = (A kron B^T) vec(rho)."""
    d = g.shape[0]
    eye = np.eye(d)
    lv = -1j * (np.kron(g, eye) - np.kron(eye, g.T))
    for c in c_ops:
        cdc = c.conj().T @ c
        lv += np.kron(c, c.conj())
        lv -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return lv


def _check_phase_covariant(c_ops):
    for c in c_ops:
        off_diagonal = np.count_nonzero(c - np.diag(np.diag(c)))
        if off_diagonal and np.count_nonzero(c) > 1:
            raise ValueError("frame oracle needs collapse operators that are matrix units or diagonal")


def maps_at(
    schedule,
    times,
    c_ops=None,
    amp=0.0,
    detuning=0.0,
    dim=3,
    levels=QUTRIT_LEVELS,
):
    """Exact maps from t = 0 to each of the ascending ``times``.

    Returns unitaries of shape (n, dim, dim) when ``c_ops`` is None, and
    row-major superoperators of shape (n, dim^2, dim^2) otherwise.
    ``amp`` scales the drive by (1 + amp); ``detuning`` (rad/s) sits on the
    auxiliary level, as in holosim's error injection.
    """
    if schedule.edge_ramp > 0.0:
        raise ValueError("edge-ramped schedules have no piecewise-constant frame")
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be ascending")
    ie = levels[2]
    noisy = c_ops is not None
    if noisy:
        c_ops = [np.asarray(c, dtype=complex) for c in c_ops]
        _check_phase_covariant(c_ops)
    size = dim * dim if noisy else dim

    def frame(seg, t):
        d = _frame(seg, t, dim, ie)
        return np.kron(d, d.conj()) if noisy else d

    start = np.eye(size, dtype=complex)
    out = np.empty((len(times), size, size), dtype=complex)
    k = 0
    segments = schedule.segments
    for n_seg, seg in enumerate(segments):
        g = _generator(seg, dim, levels, amp, detuning)
        exponent = _liouvillian(g, c_ops) if noisy else -1j * g
        back = frame(seg, seg.t_start).conj()[:, None] * start
        last = n_seg == len(segments) - 1
        while k < len(times) and (times[k] <= seg.t_end or last):
            t = times[k]
            out[k] = frame(seg, t)[:, None] * (expm(exponent * (t - seg.t_start)) @ back)
            k += 1
        start = frame(seg, seg.t_end)[:, None] * (expm(exponent * (seg.t_end - seg.t_start)) @ back)
    return out


def unitary(schedule, amp=0.0, detuning=0.0, dim=3, levels=QUTRIT_LEVELS):
    """Exact full-schedule propagator."""
    return maps_at(schedule, [schedule.duration], None, amp, detuning, dim, levels)[0]


def channel(schedule, c_ops, amp=0.0, detuning=0.0, dim=3, levels=QUTRIT_LEVELS):
    """Exact full-schedule superoperator, vec(rho_out) = S vec(rho_in)."""
    return maps_at(schedule, [schedule.duration], c_ops, amp, detuning, dim, levels)[0]
