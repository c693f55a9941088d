import math

import numpy as np
import pytest

from holosim import evolve, gates, pulses
from holosim.quantum import average_gate_fidelity, is_unitary

from conftest import OMEGA0, phase_aligned_distance, random_unitary

PI = math.pi
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = (SX + SZ) / math.sqrt(2.0)
S_GATE = np.diag([1.0, 1.0j]).astype(complex)


class TestIdealSingleQubit:
    def test_sqrt_x_matrix(self, sqrt_x_spec):
        expected = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / math.sqrt(2.0)
        assert np.allclose(gates.ideal_single_qubit(sqrt_x_spec), expected, atol=1e-12)

    def test_small_angle_approaches_identity(self):
        u = gates.ideal_single_qubit(pulses.GateSpec(0.7, 1.3, 1e-9))
        assert np.max(np.abs(u - np.eye(2))) < 1e-9

    def test_z_axis_phase_gate(self):
        # (0, 0, pi/4) is diag(e^{-i pi/8}, e^{i pi/8}) = T up to global phase
        u = gates.ideal_single_qubit(pulses.GateSpec(0.0, 0.0, PI / 4))
        t_gate = np.diag([1.0, np.exp(1j * PI / 4)])
        assert phase_aligned_distance(t_gate, u) < 1e-12

    def test_always_unitary(self, rng):
        for _ in range(100):
            spec = pulses.GateSpec(
                rng.uniform(0, PI), rng.uniform(0, 2 * PI), rng.uniform(0.01, 2 * PI - 0.01)
            )
            assert is_unitary(gates.ideal_single_qubit(spec))


class TestControlRk:
    def test_control_t(self):
        u = gates.ideal_control_rk(3)
        assert np.allclose(u, np.diag([1, np.exp(1j * PI / 4), 1, 1]), atol=1e-15)

    def test_k1_is_conditioned_z(self):
        assert np.allclose(gates.ideal_control_rk(1), np.diag([1, -1, 1, 1]), atol=1e-15)

    def test_large_k_approaches_identity(self):
        u = gates.ideal_control_rk(30)
        assert np.max(np.abs(u - np.eye(4))) < 1e-8

    def test_squaring_halves_k(self):
        for k in range(2, 8):
            lhs = gates.ideal_control_rk(k) @ gates.ideal_control_rk(k)
            assert np.allclose(lhs, gates.ideal_control_rk(k - 1), atol=1e-15)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            gates.ideal_control_rk(0)

    @pytest.mark.parametrize("k", [1.5, 3.0, True, np.float64(2.0)])
    def test_rejects_non_integers(self, k):
        # 1.5 would give the phase 2 pi / 2^1.5, and True the controlled-Z
        with pytest.raises(ValueError, match="k takes integers"):
            gates.ideal_control_rk(k)

    @pytest.mark.parametrize("k", [3, 70])
    def test_numpy_integer_is_its_int(self, k):
        # 2**k in numpy's int64 would wrap to 0 at k = 70
        assert np.array_equal(gates.ideal_control_rk(np.int64(k)), gates.ideal_control_rk(k))


class TestAxisAngleDecompose:
    """gate_spec_from_unitary: the axis (theta, phi) and angle gamma of a 2x2 unitary."""

    def test_pauli_x(self):
        spec = gates.gate_spec_from_unitary(SX)
        assert (spec.theta, spec.phi, spec.gamma) == pytest.approx((PI / 2, 0.0, PI), abs=1e-12)

    def test_identity_tie_break(self):
        assert gates.gate_spec_from_unitary(np.eye(2)) is None
        assert gates.gate_spec_from_unitary(np.exp(0.3j) * np.eye(2)) is None

    def test_hadamard(self):
        spec = gates.gate_spec_from_unitary(HADAMARD)
        assert (spec.theta, spec.phi, spec.gamma) == pytest.approx((PI / 4, 0.0, PI), abs=1e-12)

    def test_round_trip_many_random_unitaries(self, rng):
        for _ in range(1000):
            u = random_unitary(rng, 2)
            spec = gates.gate_spec_from_unitary(u)
            assert phase_aligned_distance(u, gates.ideal_single_qubit(spec)) < 1e-10

    def test_gate_spec_round_trip(self, rng):
        # a spec comes back as itself or as its twin: 2 pi - gamma about -n
        for _ in range(200):
            spec = pulses.GateSpec(
                rng.uniform(0.01, PI - 0.01), rng.uniform(0, 2 * PI), rng.uniform(0.01, 2 * PI - 0.01)
            )
            u = gates.ideal_single_qubit(spec)
            back = gates.gate_spec_from_unitary(u)
            assert phase_aligned_distance(u, gates.ideal_single_qubit(back)) < 1e-10
            twin = (PI - spec.theta, (spec.phi + PI) % (2 * PI), 2 * PI - spec.gamma)
            got = (back.theta, back.phi, back.gamma)
            assert got == pytest.approx((spec.theta, spec.phi, spec.gamma), abs=1e-9) or (
                got == pytest.approx(twin, abs=1e-9)
            )

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            gates.gate_spec_from_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="2x2"):
            gates.gate_spec_from_unitary(np.eye(3))
        with pytest.raises(ValueError, match="2x2"):
            gates.gate_spec_from_unitary(np.ones((2, 2, 2, 2)))


class TestStackedSpecFromUnitary:
    """gate_spec_from_unitary over an (n, 2, 2) stack, as RB inverts its recoveries."""

    def test_each_spec_realizes_its_matrix(self):
        # the 24 Cliffords and 5,000 inverses of interleaved Clifford products
        rng = np.random.default_rng(17)
        cliffords = np.array(gates.clifford_group())
        target = gates.ideal_single_qubit(pulses.GateSpec(0.0, 0.0, 0.7854))
        products = np.broadcast_to(np.eye(2, dtype=complex), (5000, 2, 2))
        for column in rng.integers(0, 24, size=(8, 5000)):
            products = target @ cliffords[column] @ products
        stack = np.concatenate([cliffords, products.conj().transpose(0, 2, 1)])
        specs = gates.gate_spec_from_unitary(stack)
        assert isinstance(specs, list) and len(specs) == len(stack)
        for u, spec in zip(stack, specs):
            rebuilt = np.eye(2) if spec is None else gates.ideal_single_qubit(spec)
            assert phase_aligned_distance(u, rebuilt) < 1e-12

    def test_identities_give_none(self):
        near = gates.ideal_single_qubit(pulses.GateSpec(0.4, 1.1, 1e-10))
        stack = np.array([np.eye(2), -np.eye(2), np.exp(0.3j) * np.eye(2), near, -near, SX])
        specs = gates.gate_spec_from_unitary(stack)
        assert specs[:5] == [None] * 5
        assert specs[5] == gates.gate_spec_from_unitary(SX)

    def test_a_non_unitary_entry_raises(self):
        stack = np.array([np.eye(2), SX, np.array([[1.0, 1.0], [0.0, 1.0]])])
        with pytest.raises(ValueError, match="unitary"):
            gates.gate_spec_from_unitary(stack)


class TestCliffordGroup:
    def test_order(self):
        assert len(gates.clifford_group()) == 24

    def test_elements_distinct_up_to_phase(self):
        group = gates.clifford_group()
        for i in range(24):
            for j in range(i + 1, 24):
                assert 1 - average_gate_fidelity(group[i], group[j]) > 1e-6

    def test_closed_under_multiplication(self, rng):
        group = gates.clifford_group()
        for _ in range(200):
            i, j = rng.integers(0, 24, size=2)
            product = group[i] @ group[j]
            index = gates.clifford_index_of(product)  # raises if no match
            assert 1 - average_gate_fidelity(group[index], product) < 1e-10

    def test_contains_standard_gates(self):
        group = gates.clifford_group()
        for mat in (np.eye(2), SX, SZ, HADAMARD, S_GATE):
            gates.clifford_index_of(mat)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2)])
    def test_nan_matrix_matches_no_clifford(self, shape):
        # every fidelity is NaN, and "1 - nan > 1e-9" is false
        with pytest.raises(ValueError, match="does not match any Clifford"):
            gates.clifford_index_of(np.full(shape, np.nan))

    def test_one_nan_matrix_in_a_stack_fails_the_stack(self):
        stack = np.array(gates.clifford_group()[:3])
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="does not match any Clifford"):
            gates.clifford_index_of(stack)

    def test_each_element_recomposes_from_decomposition(self):
        for u in gates.clifford_group():
            spec = gates.gate_spec_from_unitary(u)
            rebuilt = np.eye(2) if spec is None else gates.ideal_single_qubit(spec)
            assert phase_aligned_distance(u, rebuilt) < 1e-10

    def test_gate_spec_from_unitary_realizes_each_clifford(self):
        for index, u in enumerate(gates.clifford_group()):
            spec = gates.gate_spec_from_unitary(u)
            if index == 0:
                assert spec is None
            else:
                assert gates.clifford_index_of(gates.ideal_single_qubit(spec)) == index


class TestCompileClifford:
    def test_identity_is_noop_marker(self):
        assert gates.compile_clifford(0) is None

    def test_x_gate(self):
        spec = gates.compile_clifford(1)
        assert (spec.theta, spec.phi, spec.gamma) == pytest.approx((PI / 2, 0.0, PI))

    def test_z_gate(self):
        spec = gates.compile_clifford(3)
        assert (spec.theta, spec.phi, spec.gamma) == pytest.approx((0.0, 0.0, PI))

    def test_hadamard(self):
        spec = gates.compile_clifford(10)
        assert (spec.theta, spec.phi, spec.gamma) == pytest.approx((PI / 4, 0.0, PI))

    def test_index_range(self):
        with pytest.raises(ValueError):
            gates.compile_clifford(24)

    @pytest.mark.parametrize("index", [1.5, 1.0, True, np.float64(4.0)])
    def test_rejects_non_integer_index(self, index):
        with pytest.raises(ValueError, match="Clifford index takes integers"):
            gates.compile_clifford(index)

    def test_numpy_integer_index(self):
        assert gates.compile_clifford(np.int32(10)) == gates.compile_clifford(10)

    def test_compiled_specs_match_group_matrices(self):
        group = gates.clifford_group()
        for index in range(24):
            spec = gates.compile_clifford(index)
            realized = np.eye(2) if spec is None else gates.ideal_single_qubit(spec)
            assert np.array_equal(group[index], realized)

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_all_cliffords_simulate_to_their_matrices(self, scheme):
        # full loop: compile -> synthesize -> propagate -> compare
        group = gates.clifford_group()
        for index in range(24):
            spec = gates.compile_clifford(index)
            if spec is None:
                continue
            sched = pulses.synthesize(spec, OMEGA0, scheme)
            u = evolve.propagator(sched)
            assert 1 - average_gate_fidelity(group[index], u[:2, :2]) < 1e-6
