"""Composite model for conditioned-phase gates via an ancilla level.

The five-state basis is (|00>, |01>, |10>, |11>, |a>): two computational
qubits plus one ancilla excitation reachable only from |01>.  A drive with
effective coupling ``g_eff`` runs the same loop schedules as the
single-qutrit gates on the |01> <-> |a> pair, with |01> playing the bright
state, so |01> acquires the loop phase while |00>, |10>, |11> are exact
spectators.

The conditioned-phase gate and the Ramsey protocol take full-schedule maps,
which take no step.  Five-level trajectories come from
:func:`holosim.evolve.evolve_pure` and :func:`holosim.evolve.evolve_density`
with ``dim=DIM, levels=LEVELS``: rows at the ends of equal steps, as for
the qutrit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import evolve
from .evolve import NO_ERROR, NO_NOISE, ErrorInjection, NoiseModel
from .gates import _rotation
from .pulses import GateSpec, PulseSchedule, synthesize
from .quantum import basis_state, leakage

DIM = 5
#: Matrix indices of the driven pair: |01> (bright role) and |a| (auxiliary).
BRIGHT_INDEX = 1
ANCILLA_INDEX = 4
#: Lambda-role mapping for the composite system: no |0>-leg drive.
LEVELS = (None, BRIGHT_INDEX, ANCILLA_INDEX)

DEFAULT_G_EFF = 2.0 * math.pi * 5.0e6


@dataclass(frozen=True)
class CompositeModel:
    """Effective coupling strength of the |01> <-> |a> transition (rad/s)."""

    g_eff: float = DEFAULT_G_EFF

    def __post_init__(self):
        # an infinite coupling makes a zero-length loop; a NaN one would pass "<= 0"
        if not 0.0 < self.g_eff < math.inf:
            raise ValueError(f"g_eff must be positive and finite, got {self.g_eff}")


def build_cphase_schedule(gamma: float, g_eff: float, scheme: str) -> PulseSchedule:
    """Loop schedule attaching phase ``gamma`` to |01> via the ancilla.

    Reuses the single-qubit synthesis with the drive entirely on the
    bright leg (mixing angle 0), so the durations are
    2 sqrt(pi^2 - (pi - gamma)^2) / g_eff and 2 pi / g_eff.
    """
    return synthesize(GateSpec(theta=0.0, phi=0.0, gamma=gamma), g_eff, scheme)


def ancilla_decay(t1_a: float) -> NoiseModel:
    """Relaxation of the ancilla level |a> back to |01> at rate 1/t1_a; t1_a = inf turns it off."""
    if not t1_a > 0.0:  # written so that NaN fails too
        raise ValueError(f"t1_a must be positive, got {t1_a}")
    op = np.zeros((DIM, DIM), dtype=complex)
    op[BRIGHT_INDEX, ANCILLA_INDEX] = 1.0
    return NoiseModel(collapse_ops=((op, 1.0 / t1_a),))


def cphase_propagator(
    model: CompositeModel,
    schedule: PulseSchedule,
    err: ErrorInjection = NO_ERROR,
) -> tuple[np.ndarray, float]:
    """Computational-block operator and leakage of the two-qubit gate.

    Returns ``(u4, leakage)`` where ``u4`` is the 4x4 block of the 5x5
    propagator over (|00>, |01>, |10>, |11>) and leakage is one minus the
    smallest computational-basis probability of remaining in the
    computational subspace.  Spectator entries are exactly 1 because the
    drive acts only on the |01> <-> |a> pair.  The propagator is
    noiseless; :func:`ramsey_protocol` takes noise, and
    :func:`holosim.evolve.evolve_density` with ``dim=DIM, levels=LEVELS``
    traces the five populations under it.
    """
    u4 = evolve.propagator(schedule, err, dim=DIM, levels=LEVELS)[:4, :4]
    return u4, leakage(u4)


def _analysis_half_pi(theta_axis: float | np.ndarray) -> np.ndarray:
    """Instantaneous pi/2 rotation of the target qubit about (cos t, sin t, 0).

    The rotation R is the gate (theta, phi, gamma) = (pi/2, t, pi/2); it acts
    on the computational block as identity (x) R and leaves |a> untouched.
    An array of angles gives a (..., 5, 5) stack, one rotation per angle.
    """
    r = _rotation(math.pi / 2.0, np.asarray(theta_axis, dtype=float), math.pi / 2.0)
    u = np.zeros(r.shape[:-2] + (DIM, DIM), dtype=complex)
    u[..., 0:2, 0:2] = u[..., 2:4, 2:4] = r
    u[..., 4, 4] = 1.0
    return u


def ramsey_protocol(
    model: CompositeModel,
    gate_on: bool,
    gamma: float,
    theta_grid: Sequence[float],
    noise: NoiseModel = NO_NOISE,
    scheme: str = "tounhqc",
) -> list[tuple[float, float]]:
    """Ramsey fringe of the target qubit with the conditioned-phase gate on/off.

    Prepares the target in (|0> - i |1>)/sqrt(2) with control and ancilla in
    |0>, optionally applies the gate, then an ideal pi/2 analysis pulse about
    (cos theta, sin theta, 0), and returns the target excited-state
    probability for each analysis angle.
    """
    thetas = list(theta_grid)
    if not thetas:
        raise ValueError("theta_grid must not be empty")
    psi0 = (basis_state(DIM, 0) - 1j * basis_state(DIM, 1)) / math.sqrt(2.0)

    rho = np.outer(psi0, psi0.conj())
    if gate_on:
        schedule = build_cphase_schedule(gamma, model.g_eff, scheme)
        channel = evolve.gate_channel(schedule, noise, dim=DIM, levels=LEVELS)
        rho = (channel @ rho.reshape(-1)).reshape(DIM, DIM)

    excited = np.zeros(DIM)
    excited[1] = excited[3] = 1.0  # target in |1>: states |01> and |11>
    u = _analysis_half_pi(thetas)
    rho_out = u @ rho @ u.conj().transpose(0, 2, 1)
    probs = np.real(np.diagonal(rho_out, axis1=1, axis2=2)) @ excited
    return list(zip(map(float, thetas), probs.tolist()))


def fringe_phase(thetas: Sequence[float], probs: Sequence[float]) -> float:
    """Phase of a fringe P(theta) = B + A cos(theta + phase).

    Least-squares in the quadrature basis (cos theta, sin theta, 1), exact
    for noiseless fringes on any grid of three or more angles distinct
    modulo 2 pi; fewer leave the basis rank-deficient and are refused.
    """
    t = np.asarray(thetas, dtype=float)
    p = np.asarray(probs, dtype=float)
    if len(set((t % (2.0 * math.pi)).tolist())) < 3:
        raise ValueError("need at least 3 fringe angles distinct modulo 2 pi")
    design = np.column_stack([np.cos(t), np.sin(t), np.ones_like(t)])
    coeff, *_ = np.linalg.lstsq(design, p, rcond=None)
    # B + a cos(t) + b sin(t) = B + A cos(t + phase) with a = A cos(phase),
    # b = -A sin(phase)
    return float(np.arctan2(-coeff[1], coeff[0]))


def ramsey_phase_shift(
    fringe_on: Sequence[tuple[float, float]],
    fringe_off: Sequence[tuple[float, float]],
) -> float:
    """Gate-on minus gate-off fringe phase, wrapped to (-pi, pi].

    For the conditioned-phase gate this equals the phase attached to |01>.
    """
    t_on, p_on = zip(*fringe_on)
    t_off, p_off = zip(*fringe_off)
    shift = fringe_phase(t_on, p_on) - fringe_phase(t_off, p_off)
    shift = (shift + math.pi) % (2.0 * math.pi) - math.pi
    if shift == -math.pi:
        shift = math.pi
    return shift
