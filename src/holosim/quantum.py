"""Dense complex linear algebra and quantum-state primitives.

Everything operates on plain ``numpy`` arrays: state vectors are 1-d complex
arrays, density matrices and operators are 2-d complex arrays, and the
functions that say so also take (..., d, d) stacks of them.  All functions
are pure; validated inputs are never mutated.

Conventions
-----------
* The unitarity check uses an absolute elementwise tolerance of 1e-9, far
  below any simulated physical effect and far above double-precision noise.
"""
from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

ATOL = 1e-9
EMPTY_SUBSPACE_TOL = 1e-12


def _integer(name: str, value) -> int:
    """``value`` as an int, numpy's included; ValueError naming ``name`` for a non-integer or a bool."""
    if not isinstance(value, bool):  # True would pass as 1; numpy's bool has no index
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} takes integers, got {value!r}")


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis ket |index> in a ``dim``-dimensional space."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def density(psi: Sequence[complex]) -> np.ndarray:
    """Outer product |psi><psi| as a density matrix."""
    vec = np.asarray(psi, dtype=complex)
    return np.outer(vec, vec.conj())


def unitarity_defect(mat: np.ndarray) -> float:
    """max |U^dag U - 1| over the entries of a square ``mat``, or of every matrix of a stack."""
    return float(np.max(np.abs(mat.conj().swapaxes(-1, -2) @ mat - np.eye(mat.shape[-1]))))


def is_unitary(mat: np.ndarray) -> bool:
    return unitarity_defect(mat) <= ATOL


def leakage(block: np.ndarray) -> float:
    """Worst leakage of a propagator's ``block`` over a subspace: 1 - min of its column norms squared.

    Column j of the block holds the amplitudes that basis state j keeps inside the subspace.
    """
    return 1.0 - float(np.min(np.sum(np.abs(block) ** 2, axis=0)))


def unattenuated_fidelity(rho_th: np.ndarray, rho_out: np.ndarray) -> float | np.ndarray:
    """Normalized state overlap Tr(a b) / sqrt(Tr(a a) Tr(b b)).

    Equals 1 when the two states coincide and is symmetric in its arguments.
    Either argument may be one (d, d) matrix or a (..., d, d) stack; the
    stacks broadcast against each other.  Returns a float for two single
    matrices, else an array of the broadcast stack shape.
    """
    a = np.asarray(rho_th, dtype=complex)
    b = np.asarray(rho_out, dtype=complex)
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # each trace Tr(x y) = sum_ij x_ij y_ji by one contraction, without forming x y
    overlap, purity_a, purity_b = (
        np.einsum("...ij,...ji->...", x, y).real for x, y in ((a, b), (a, a), (b, b))
    )
    # Cauchy-Schwarz bounds the overlap by 1; rounding can exceed it
    fidelity = np.minimum(overlap / np.sqrt(purity_a * purity_b), 1.0)
    return float(fidelity) if fidelity.ndim == 0 else fidelity


def unitary_channel(u: np.ndarray) -> np.ndarray:
    """Row-major superoperator U (x) conj(U) of rho -> U rho U^dag.

    ``u`` is one (d, d) matrix or a (..., d, d) stack.  One broadcast
    product, bitwise equal to ``np.kron(U, U.conj())`` on each matrix.
    """
    d = u.shape[-1]
    return (u[..., :, None, :, None] * u.conj()[..., None, :, None, :]).reshape(*u.shape[:-2], d * d, d * d)


def average_channel_fidelity(superop: np.ndarray, u_ideal: np.ndarray) -> float:
    """Average fidelity of a row-major (D^2, D^2) channel on D >= d levels against a d x d unitary.

    On the channel's block S over the first d levels, F_avg = (d F_pro + 1) / (d + 1) with
    F_pro = Re Tr(S_U^dag S) / d^2 (Pedersen, Moller and Molmer, Phys. Lett. A 367, 47 (2007),
    without leakage).  Cauchy-Schwarz bounds it by 1; rounding above that is clipped.
    """
    u = np.asarray(u_ideal, dtype=complex)
    s = np.asarray(superop, dtype=complex)
    d, levels = u.shape[0], math.isqrt(s.shape[0])
    if s.shape != (levels**2, levels**2) or levels < d:
        raise ValueError(f"superoperator shape {s.shape} does not hold d={d} levels")
    keep = (levels * np.arange(d)[:, None] + np.arange(d)).ravel()  # row-major pairs (i, j < d)
    s_u = unitary_channel(u)
    f_pro = float(np.trace(s_u.conj().T @ s[np.ix_(keep, keep)]).real) / (d * d)
    return min((d * f_pro + 1.0) / (d + 1.0), 1.0)


def average_gate_fidelity(u_ideal: np.ndarray, u_actual: np.ndarray) -> float:
    """:func:`average_channel_fidelity` of the unitary channel of ``u_actual``.

    It equals (|Tr(U' V)|^2 + d) / (d (d + 1)) and ignores a global phase of either argument.
    """
    a = np.asarray(u_ideal, dtype=complex)
    b = np.asarray(u_actual, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return average_channel_fidelity(unitary_channel(b), a)


def bloch_rows(rhos: np.ndarray) -> np.ndarray:
    """Bloch vectors of a (..., d, d) stack of states restricted to the (|0>, |1>) subspace.

    Each subspace block is renormalized by its population, so leakage
    outside the subspace shows up only through the population.  Returns a
    (..., 4) array of rows (x, y, z, population) with x = 2 Re rho01,
    y = 2 Im rho10, z = rho00 - rho11 on the renormalized block; a row is
    NaN throughout where the population is below ``EMPTY_SUBSPACE_TOL``.
    """
    mats = np.asarray(rhos, dtype=complex)
    population = mats[..., 0, 0].real + mats[..., 1, 1].real
    with np.errstate(divide="ignore", invalid="ignore"):
        r00 = mats[..., 0, 0].real / population
        r11 = mats[..., 1, 1].real / population
        r01 = mats[..., 0, 1] / population
        r10 = mats[..., 1, 0] / population
    rows = np.stack([2.0 * r01.real, 2.0 * r10.imag, r00 - r11, population], axis=-1)
    rows[population < EMPTY_SUBSPACE_TOL] = np.nan
    return rows


def bloch_coordinates(rho: np.ndarray) -> tuple[float, float, float, float]:
    """:func:`bloch_rows` of one (d, d) density matrix, as a tuple of floats.

    Returns ``(x, y, z, population)``.  Where :func:`bloch_rows` gives a NaN
    row this raises ``ValueError``: the subspace population is below
    ``EMPTY_SUBSPACE_TOL`` (1e-12) or not a number.
    """
    mat = np.asarray(rho, dtype=complex)
    if mat.ndim != 2:
        raise ValueError(f"expected one density matrix, got shape {mat.shape}")
    x, y, z, population = bloch_rows(mat).tolist()
    if math.isnan(population):
        raise ValueError("subspace population is numerically zero or NaN")
    return (x, y, z, population)

