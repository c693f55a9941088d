"""Ideal target unitaries, the single-loop spec of a unitary, and the Clifford group.

Rotation convention (package-wide): a gate (theta, phi, gamma) rotates by
``gamma`` about ``n = (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta))``
with matrix (built here and nowhere else, by :func:`_rotation`)

    [[cos(g/2) - i sin(g/2) cos(th),   -i sin(g/2) sin(th) e^{+i phi}],
     [-i sin(g/2) sin(th) e^{-i phi},   cos(g/2) + i sin(g/2) cos(th)]]

i.e. ``exp(-i (gamma/2) n . m)`` with ``m = (m_x, m_y, m_z)`` where
``m_x, m_z`` are the usual Pauli matrices and ``m_y`` carries the opposite
sign of the textbook convention.  All gate comparisons in this package are
global-phase invariant, so only internal consistency matters.

Canonical Clifford ordering (index: gate, axis, angle):

    0: I                            12: pi about (0, 1, 1)/sqrt(2)
    1: X      pi about +x           13: pi about (0, 1, -1)/sqrt(2)
    2: Y      pi about +y           14: pi about (1, 1, 0)/sqrt(2)
    3: Z      pi about +z           15: pi about (1, -1, 0)/sqrt(2)
    4: X/2    pi/2 about +x         16: 2pi/3 about (+1, +1, +1)/sqrt(3)
    5: -X/2   pi/2 about -x         17: 2pi/3 about (+1, +1, -1)/sqrt(3)
    6: Y/2    pi/2 about +y         18: 2pi/3 about (+1, -1, +1)/sqrt(3)
    7: -Y/2   pi/2 about -y         19: 2pi/3 about (+1, -1, -1)/sqrt(3)
    8: S      pi/2 about +z         20: 2pi/3 about (-1, +1, +1)/sqrt(3)
    9: -S     pi/2 about -z         21: 2pi/3 about (-1, +1, -1)/sqrt(3)
    10: H     pi about (1, 0, 1)/sqrt(2)   22: 2pi/3 about (-1, -1, +1)/sqrt(3)
    11:       pi about (1, 0, -1)/sqrt(2)  23: 2pi/3 about (-1, -1, -1)/sqrt(3)
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .pulses import DEGENERATE_GAMMA_TOL, TWO_PI, GateSpec
from .quantum import is_unitary


def _rotation(theta: float, phi, gamma: float) -> np.ndarray:
    """The rotation matrix above; an array of ``phi`` gives a (..., 2, 2) stack."""
    c = math.cos(0.5 * gamma)
    s = math.sin(0.5 * gamma)
    ct = math.cos(theta)
    st = math.sin(theta)
    eip = np.exp(1j * phi)
    u = np.empty(np.shape(eip) + (2, 2), dtype=complex)
    u[..., 0, 0] = c - 1j * s * ct
    u[..., 0, 1] = -1j * s * st * eip
    u[..., 1, 0] = -1j * s * st / eip
    u[..., 1, 1] = c + 1j * s * ct
    return u


def ideal_single_qubit(spec: GateSpec) -> np.ndarray:
    """Ideal single-qubit rotation for a GateSpec."""
    return _rotation(spec.theta, spec.phi, spec.gamma)


def ideal_control_rk(k: int) -> np.ndarray:
    """Conditioned-phase gate diag(1, e^{i 2 pi / 2^k}, 1, 1) on two qubits.

    The phase sits on |01>; k = 1 is controlled-Z (up to which qubit is
    labeled control), k = 3 is the controlled-T used in the two-qubit runs.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return np.diag([1.0, np.exp(2j * math.pi / 2**k), 1.0, 1.0]).astype(complex)


def _gate_spec(axis: tuple[float, float, float], angle: float) -> Optional[GateSpec]:
    """GateSpec rotating by ``angle`` in [0, 2 pi) about the unit ``axis``; None for the identity.

    The identity is any angle that synthesis finds a degenerate loop angle.
    """
    if angle < DEGENERATE_GAMMA_TOL or TWO_PI - angle < DEGENERATE_GAMMA_TOL:
        return None
    nx, ny, nz = axis
    # atan2 keeps theta accurate near the poles, where acos(nz) loses half its digits
    theta = math.atan2(math.hypot(nx, ny), nz)
    phi = math.atan2(ny, nx) % TWO_PI
    if phi >= TWO_PI:  # atan2 rounding can fold -0.0-ish angles onto 2 pi
        phi = 0.0
    return GateSpec(theta=theta, phi=phi, gamma=angle)


def gate_spec_from_unitary(u: np.ndarray):
    """Single-loop GateSpec realizing ``u`` up to global phase; None if identity.

    ``u`` must be a 2x2 unitary, or an (n, 2, 2) stack of unitaries, which
    gives a list of n specs.  Dividing out the square root of each
    determinant leaves a rotation, whose angle and axis give the spec.
    """
    mat = np.asarray(u, dtype=complex)
    if mat.shape[-2:] != (2, 2) or mat.ndim not in (2, 3):
        raise ValueError(f"expected a 2x2 matrix or an (n, 2, 2) stack, got shape {mat.shape}")
    if not is_unitary(mat):
        raise ValueError("input must be unitary within 1e-9")
    stack = mat.reshape(-1, 2, 2)
    det = stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]
    delta = 0.5 * np.angle(det)
    v = stack * np.exp(-1j * delta)[:, None, None]
    c = 0.5 * (v[:, 0, 0] + v[:, 1, 1]).real
    s_z = -0.5 * (v[:, 0, 0] - v[:, 1, 1]).imag
    s_xy = 1j * v[:, 0, 1]
    s_norm = np.sqrt(s_z * s_z + np.abs(s_xy) ** 2)
    angles = 2.0 * np.arctan2(s_norm, c) % TWO_PI
    # the identity's axis is 0/0: its spec is None before the axis is read
    with np.errstate(invalid="ignore", divide="ignore"):
        axes = np.column_stack([s_xy.real, s_xy.imag, s_z]) / s_norm[:, None]
    specs = [
        None if norm < DEGENERATE_GAMMA_TOL else _gate_spec(axis, angle)
        for axis, angle, norm in zip(axes.tolist(), angles.tolist(), s_norm.tolist())
    ]
    return specs if mat.ndim == 3 else specs[0]


_R2 = 1.0 / math.sqrt(2.0)
_R3 = 1.0 / math.sqrt(3.0)
_PI = math.pi

#: (name, axis, angle) for the 24 single-qubit Cliffords, canonical order.
CLIFFORD_TABLE: tuple[tuple[str, tuple[float, float, float], float], ...] = (
    ("I", (0.0, 0.0, 1.0), 0.0),
    ("X", (1.0, 0.0, 0.0), _PI),
    ("Y", (0.0, 1.0, 0.0), _PI),
    ("Z", (0.0, 0.0, 1.0), _PI),
    ("X/2", (1.0, 0.0, 0.0), 0.5 * _PI),
    ("-X/2", (-1.0, 0.0, 0.0), 0.5 * _PI),
    ("Y/2", (0.0, 1.0, 0.0), 0.5 * _PI),
    ("-Y/2", (0.0, -1.0, 0.0), 0.5 * _PI),
    ("S", (0.0, 0.0, 1.0), 0.5 * _PI),
    ("-S", (0.0, 0.0, -1.0), 0.5 * _PI),
    ("H", (_R2, 0.0, _R2), _PI),
    ("XZ-", (_R2, 0.0, -_R2), _PI),
    ("YZ+", (0.0, _R2, _R2), _PI),
    ("YZ-", (0.0, _R2, -_R2), _PI),
    ("XY+", (_R2, _R2, 0.0), _PI),
    ("XY-", (_R2, -_R2, 0.0), _PI),
    ("C+++", (_R3, _R3, _R3), 2.0 * _PI / 3.0),
    ("C++-", (_R3, _R3, -_R3), 2.0 * _PI / 3.0),
    ("C+-+", (_R3, -_R3, _R3), 2.0 * _PI / 3.0),
    ("C+--", (_R3, -_R3, -_R3), 2.0 * _PI / 3.0),
    ("C-++", (-_R3, _R3, _R3), 2.0 * _PI / 3.0),
    ("C-+-", (-_R3, _R3, -_R3), 2.0 * _PI / 3.0),
    ("C--+", (-_R3, -_R3, _R3), 2.0 * _PI / 3.0),
    ("C---", (-_R3, -_R3, -_R3), 2.0 * _PI / 3.0),
)


#: The compiled Cliffords, canonical order; the identity is None.
_CLIFFORD_SPECS = tuple(_gate_spec(axis, angle) for _, axis, angle in CLIFFORD_TABLE)
#: Their matrices, shape (24, 2, 2).
_CLIFFORD_UNITARIES = np.array(
    [np.eye(2, dtype=complex) if spec is None else ideal_single_qubit(spec) for spec in _CLIFFORD_SPECS]
)


def clifford_group() -> list[np.ndarray]:
    """The 24 single-qubit Clifford unitaries in canonical order."""
    return [u.copy() for u in _CLIFFORD_UNITARIES]


def compile_clifford(index: int) -> Optional[GateSpec]:
    """GateSpec for a Clifford by canonical index; the identity returns None.

    The returned spec realizes the Clifford in a single holonomic loop.
    """
    if not 0 <= index < len(_CLIFFORD_SPECS):
        raise ValueError(f"Clifford index {index} out of range [0, 24)")
    return _CLIFFORD_SPECS[index]


def clifford_index_of(u: np.ndarray):
    """Canonical index of the Clifford matching ``u`` up to global phase.

    A match needs an average gate fidelity within 1e-9 of 1.  A stack of
    unitaries, shape (..., 2, 2), gives an integer array of its leading
    shape; every matrix must match a Clifford.
    """
    mat = np.asarray(u, dtype=complex)
    # average gate fidelity (|Tr(C^dag U)|^2 + d) / (d (d + 1)) against each C
    traces = np.einsum("kij,...ij->...k", np.conj(_CLIFFORD_UNITARIES), mat)
    fidelities = (np.abs(traces) ** 2 + 2.0) / 6.0
    if np.any(1.0 - fidelities.max(axis=-1) > 1e-9):
        raise ValueError("matrix does not match any Clifford up to global phase")
    best = np.argmax(fidelities, axis=-1)
    return int(best) if best.ndim == 0 else best
