"""Ideal target unitaries, axis-angle compilation, and the Clifford group.

Rotation convention (package-wide): a gate (theta, phi, gamma) rotates by
``gamma`` about ``n = (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta))``
with matrix

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .pulses import TWO_PI, GateSpec
from .quantum import is_unitary

# Rotations this close to the identity compile to a no-op; matches the
# degenerate-loop threshold in pulse synthesis.
IDENTITY_ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class AxisAngle:
    """Rotation axis (unit 3-vector), angle in [0, 2 pi), and global phase."""

    axis: tuple[float, float, float]
    angle: float
    global_phase: float

    def __post_init__(self):
        norm = math.sqrt(sum(c * c for c in self.axis))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"axis norm {norm!r} deviates from 1")

    def to_gate_spec(self) -> Optional[GateSpec]:
        """GateSpec realizing this rotation; None for the identity."""
        if self.angle < IDENTITY_ANGLE_TOL or TWO_PI - self.angle < IDENTITY_ANGLE_TOL:
            return None
        nx, ny, nz = self.axis
        theta = math.acos(min(1.0, max(-1.0, nz)))
        phi = math.atan2(ny, nx) % TWO_PI
        if phi >= TWO_PI:  # atan2 rounding can fold -0.0-ish angles onto 2 pi
            phi = 0.0
        return GateSpec(theta=theta, phi=phi, gamma=self.angle)


def rotation_unitary(axis: tuple[float, float, float], angle: float) -> np.ndarray:
    """2x2 rotation by ``angle`` about ``axis`` in the package convention."""
    nx, ny, nz = axis
    m = np.array([[nz, nx + 1j * ny], [nx - 1j * ny, -nz]], dtype=complex)
    return math.cos(0.5 * angle) * np.eye(2) - 1j * math.sin(0.5 * angle) * m


def ideal_single_qubit(spec: GateSpec) -> np.ndarray:
    """Ideal single-qubit rotation for a GateSpec."""
    c = math.cos(0.5 * spec.gamma)
    s = math.sin(0.5 * spec.gamma)
    ct = math.cos(spec.theta)
    st = math.sin(spec.theta)
    eip = np.exp(1j * spec.phi)
    return np.array(
        [
            [c - 1j * s * ct, -1j * s * st * eip],
            [-1j * s * st / eip, c + 1j * s * ct],
        ],
        dtype=complex,
    )


def ideal_control_rk(k: int) -> np.ndarray:
    """Conditioned-phase gate diag(1, e^{i 2 pi / 2^k}, 1, 1) on two qubits.

    The phase sits on |01>; k = 1 is controlled-Z (up to which qubit is
    labeled control), k = 3 is the controlled-T used in the two-qubit runs.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return np.diag([1.0, np.exp(2j * math.pi / 2**k), 1.0, 1.0]).astype(complex)


def axis_angle_decompose(u: np.ndarray) -> AxisAngle:
    """Axis-angle parameters of a 2x2 unitary, global phase tracked separately.

    Recomposing via :func:`rotation_unitary` and the global phase reproduces
    the input to round-off.  The identity (or a pure phase) maps to angle 0
    with the z-axis as tie-break.
    """
    mat = np.asarray(u, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {mat.shape}")
    if not is_unitary(mat):
        raise ValueError("input must be unitary within 1e-9")
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    delta = 0.5 * np.angle(det)
    v = mat * np.exp(-1j * delta)
    c = 0.5 * (v[0, 0] + v[1, 1]).real
    s_z = -0.5 * (v[0, 0] - v[1, 1]).imag
    s_xy = 1j * v[0, 1]
    s_norm = math.sqrt(s_z * s_z + abs(s_xy) ** 2)
    if s_norm < IDENTITY_ANGLE_TOL:
        phase = float(np.angle(0.5 * (mat[0, 0] + mat[1, 1])))
        return AxisAngle(axis=(0.0, 0.0, 1.0), angle=0.0, global_phase=phase)
    angle = 2.0 * math.atan2(s_norm, c)
    axis = (s_xy.real / s_norm, s_xy.imag / s_norm, s_z / s_norm)
    return AxisAngle(axis=axis, angle=angle % TWO_PI, global_phase=float(delta))


def gate_spec_from_unitary(u: np.ndarray) -> Optional[GateSpec]:
    """Single-loop GateSpec realizing ``u`` up to global phase; None if identity."""
    return axis_angle_decompose(u).to_gate_spec()


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


@lru_cache(maxsize=1)
def _clifford_unitaries() -> tuple[np.ndarray, ...]:
    return tuple(rotation_unitary(axis, angle) for _, axis, angle in CLIFFORD_TABLE)


def clifford_group() -> list[np.ndarray]:
    """The 24 single-qubit Clifford unitaries in canonical order."""
    return [u.copy() for u in _clifford_unitaries()]


def compile_clifford(index: int) -> Optional[GateSpec]:
    """GateSpec for a Clifford by canonical index; the identity returns None.

    The returned spec realizes the Clifford in a single holonomic loop.
    """
    if not 0 <= index < len(CLIFFORD_TABLE):
        raise ValueError(f"Clifford index {index} out of range [0, 24)")
    _, axis, angle = CLIFFORD_TABLE[index]
    return AxisAngle(axis=axis, angle=angle, global_phase=0.0).to_gate_spec()


def clifford_index_of(u: np.ndarray):
    """Canonical index of the Clifford matching ``u`` up to global phase.

    A match needs an average gate fidelity within 1e-9 of 1.  A stack of
    unitaries, shape (..., 2, 2), gives an integer array of its leading
    shape; every matrix must match a Clifford.
    """
    mat = np.asarray(u, dtype=complex)
    # average gate fidelity (|Tr(C^dag U)|^2 + d) / (d (d + 1)) against each C
    traces = np.einsum("kij,...ij->...k", np.conj(_clifford_unitaries()), mat)
    fidelities = (np.abs(traces) ** 2 + 2.0) / 6.0
    if np.any(1.0 - fidelities.max(axis=-1) > 1e-9):
        raise ValueError("matrix does not match any Clifford up to global phase")
    best = np.argmax(fidelities, axis=-1)
    return int(best) if best.ndim == 0 else best
