import math
from fractions import Fraction

import numpy as np
import pytest

from holosim import evolve, gates, pulses
from holosim import quantum as q

from conftest import random_density, random_gate_spec, random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)

#: the eigenstates of the three Pauli matrices, a 2-design on the qubit
PAULI_EIGENSTATES = [
    np.array(v, dtype=complex) / np.linalg.norm(v)
    for v in ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])
]


class TestUnattenuatedFidelity:
    def test_self_overlap(self, rng):
        rho = random_density(rng, 3)
        assert q.unattenuated_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        r0 = q.density(q.basis_state(2, 0))
        r1 = q.density(q.basis_state(2, 1))
        assert q.unattenuated_fidelity(r0, r1) == pytest.approx(0.0, abs=1e-12)

    def test_pure_versus_maximally_mixed(self):
        # Tr(rho_th rho_out) = 1/2, denominators 1 and 1/2
        rho_th = q.density(q.basis_state(2, 0))
        rho_out = 0.5 * np.eye(2)
        expected = 0.5 / math.sqrt(0.5)
        assert q.unattenuated_fidelity(rho_th, rho_out) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.7071, abs=5e-5)

    def test_symmetric_and_bounded(self, rng):
        for _ in range(200):
            a = random_density(rng, 3, rank=int(rng.integers(1, 4)))
            b = random_density(rng, 3, rank=int(rng.integers(1, 4)))
            fab = q.unattenuated_fidelity(a, b)
            fba = q.unattenuated_fidelity(b, a)
            assert fab == pytest.approx(fba, abs=1e-12)
            assert -1e-12 <= fab <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            q.unattenuated_fidelity(np.eye(2) / 2, np.eye(3) / 3)

    def test_stack_equals_per_matrix_loop(self, rng):
        rho_th = random_density(rng, 3, rank=1)
        rhos = np.array([random_density(rng, 3, rank=int(rng.integers(1, 4))) for _ in range(50)])
        stacked = q.unattenuated_fidelity(rho_th, rhos)
        assert stacked.shape == (50,)
        assert stacked.tolist() == [q.unattenuated_fidelity(rho_th, rho) for rho in rhos]
        pairs = q.unattenuated_fidelity(rhos[::-1], rhos)
        assert pairs.tolist() == [q.unattenuated_fidelity(a, b) for a, b in zip(rhos[::-1], rhos)]

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("shapes", [((), ()), ((), (7,)), ((7,), (7,))])
    def test_matches_explicit_trace_sums(self, rng, dim, shapes):
        # each trace Tr(x y) = sum_ij x_ij y_ji summed exactly over the float entries
        def hermitian(lead):
            m = rng.normal(size=(*lead, dim, dim)) + 1j * rng.normal(size=(*lead, dim, dim))
            return m + m.conj().swapaxes(-1, -2)

        def trace(x, y):
            return float(sum(Fraction(x[i, j].real) * Fraction(y[j, i].real)
                             - Fraction(x[i, j].imag) * Fraction(y[j, i].imag)
                             for i in range(dim) for j in range(dim)))

        a, b = hermitian(shapes[0]), hermitian(shapes[1])
        got = np.atleast_1d(q.unattenuated_fidelity(a, b))
        pairs = zip(*(m.reshape(-1, dim, dim) for m in np.broadcast_arrays(a, b)))
        expected = [min(trace(x, y) / math.sqrt(trace(x, x) * trace(y, y)), 1.0) for x, y in pairs]
        assert got.shape == (len(expected),)
        assert np.max(np.abs(got - expected)) <= 1e-15


class TestGateHealth:
    """The leakage and unitarity defect that ``gate`` reports and twoqubit reuses."""

    def test_unitary_block_has_no_leakage(self, rng):
        u = random_unitary(rng, 4)
        assert q.leakage(u) == pytest.approx(0.0, abs=1e-14)
        assert q.unitarity_defect(u) < 1e-14 and q.is_unitary(u)

    def test_leakage_is_the_worst_column(self):
        # |1> keeps 0.64 of its population in the block, |0> all of it
        block = np.array([[1.0, 0.0], [0.0, 0.8j]])
        assert q.leakage(block) == pytest.approx(0.36, abs=1e-15)

    def test_defect_is_the_largest_entry_off_the_identity(self):
        mat = np.diag([1.0, 1.1, 0.9]).astype(complex)
        assert q.unitarity_defect(mat) == pytest.approx(0.21, abs=1e-15)
        assert not q.is_unitary(mat)


class TestUnitaryChannel:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_equals_kron_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        mats = [random_unitary(rng, dim), rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))]
        for mat in mats:
            assert q.unitary_channel(mat).tobytes() == np.kron(mat, mat.conj()).tobytes()
        # a stack lifts matrix by matrix
        stack = q.unitary_channel(np.stack(mats))
        assert stack.shape == (2, dim * dim, dim * dim)
        assert all(np.array_equal(s, np.kron(m, m.conj())) for s, m in zip(stack, mats))


class TestAverageGateFidelity:
    def test_equal_unitaries(self, rng):
        u = np.eye(2)
        assert q.average_gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        u = SX
        assert q.average_gate_fidelity(u, np.exp(1j * math.pi / 7) * u) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_orthogonal_pair_value(self):
        # d = 2, Tr(I sigma_x) = 0: (0 + 2) / 6
        assert q.average_gate_fidelity(np.eye(2), SX) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_clipped_at_one(self, rng):
        # (|Tr(U' V)|^2 + d) / (d (d + 1)) rounds to 1.0000000000000002 on this gate's qubit block
        spec = pulses.GateSpec(2.980270133958384, 1.9573355027911696, 2.705842654941451)
        u = evolve.propagator(pulses.synthesize(spec, 2 * math.pi * 8.66e6, "nhqc"))
        assert q.average_gate_fidelity(gates.ideal_single_qubit(spec), u[:2, :2]) == 1.0
        for _ in range(100):
            spec = random_gate_spec(rng)
            scheme = str(rng.choice(["tounhqc", "nhqc"]))
            u = evolve.propagator(pulses.synthesize(spec, 2 * math.pi * 8.66e6, scheme))
            assert q.average_gate_fidelity(gates.ideal_single_qubit(spec), u[:2, :2]) <= 1.0


class TestAverageChannelFidelity:
    @pytest.mark.parametrize("levels", [2, 3])
    def test_equals_mean_over_pauli_eigenstates(self, rng, levels):
        # over a 2-design the mean of <U psi| E(psi) |U psi> is the average over
        # all pure states; E is a random Kraus channel that keeps the qubit block
        for _ in range(20):
            u = random_unitary(rng, 2)
            rank = int(rng.integers(1, 5))
            a = rng.normal(size=(2 * rank, 2)) + 1j * rng.normal(size=(2 * rank, 2))
            isometry = np.linalg.qr(a)[0]
            kraus = [np.zeros((levels, levels), dtype=complex) for _ in range(rank)]
            for k, op in enumerate(kraus):
                op[:2, :2] = isometry[2 * k : 2 * k + 2]
            superop = sum(np.kron(op, op.conj()) for op in kraus)
            overlaps = []
            for psi in PAULI_EIGENSTATES:
                ket = np.zeros(levels, dtype=complex)
                ket[:2] = psi
                rho = sum(op @ q.density(ket) @ op.conj().T for op in kraus)
                target = u @ psi
                overlaps.append((target.conj() @ rho[:2, :2] @ target).real)
            assert q.average_channel_fidelity(superop, u) == pytest.approx(
                np.mean(overlaps), abs=1e-13
            )

    def test_channel_on_fewer_levels_than_the_target_is_rejected(self):
        with pytest.raises(ValueError, match="does not hold d=3 levels"):
            q.average_channel_fidelity(np.eye(4), np.eye(3))


class TestBlochCoordinates:
    def test_ground_state(self):
        x, y, z, pop = q.bloch_coordinates(q.density(q.basis_state(3, 0)))
        assert (x, y, z) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
        assert pop == pytest.approx(1.0, abs=1e-12)

    def test_plus_state(self):
        psi = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        x, y, z, _ = q.bloch_coordinates(q.density(psi))
        assert (x, y, z) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_minus_i_state(self):
        # explicit outer product of (|0> - i |1>)/sqrt(2)
        psi = np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0)
        x, y, z, _ = q.bloch_coordinates(q.density(psi))
        assert (x, y, z) == pytest.approx((0.0, -1.0, 0.0), abs=1e-12)

    def test_renormalizes_leaky_state(self):
        rho = np.diag([0.25, 0.25, 0.5]).astype(complex)
        x, y, z, pop = q.bloch_coordinates(rho)
        assert pop == pytest.approx(0.5, abs=1e-12)
        assert z == pytest.approx(0.0, abs=1e-12)

    def test_empty_subspace(self):
        with pytest.raises(ValueError, match="population"):
            q.bloch_coordinates(q.density(q.basis_state(3, 2)))

    def test_stack_rejected_by_single_matrix_wrapper(self, rng):
        with pytest.raises(ValueError, match="one density matrix"):
            q.bloch_coordinates(np.array([random_density(rng, 3)] * 2))

