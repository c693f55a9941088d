import math

import numpy as np
import pytest

from holosim import evolve
from holosim import twoqubit as tq
from holosim.evolve import ErrorInjection
from holosim.gates import ideal_control_rk, ideal_single_qubit
from holosim.pulses import GateSpec
from holosim.quantum import average_gate_fidelity, basis_state, density

from conftest import ivp_evolve

PI = math.pi
G_EFF = 2 * PI * 5e6


@pytest.fixture
def model():
    return tq.CompositeModel(g_eff=G_EFF)


class TestScheduleDurations:
    def test_time_optimal_quarter_pi(self):
        sched = tq.build_cphase_schedule(PI / 4, G_EFF, "tounhqc")
        assert sched.duration == pytest.approx(math.sqrt(7) * PI / (2 * G_EFF), rel=1e-12)

    def test_conventional_duration(self):
        sched = tq.build_cphase_schedule(PI / 4, G_EFF, "nhqc")
        assert sched.duration == pytest.approx(2 * PI / G_EFF, rel=1e-12)

    def test_time_optimal_half_pi(self):
        sched = tq.build_cphase_schedule(PI / 2, G_EFF, "tounhqc")
        assert sched.duration == pytest.approx(math.sqrt(3) * PI / G_EFF, rel=1e-12)


@pytest.mark.parametrize("g_eff", [math.inf, math.nan, 0.0, -G_EFF])
def test_coupling_must_be_positive_and_finite(g_eff):
    # inf made synthesis divide by zero, and NaN failed only at the schedule duration
    with pytest.raises(ValueError, match=f"g_eff must be positive and finite, got {g_eff}"):
        tq.CompositeModel(g_eff=g_eff)


class TestCphasePropagator:
    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_control_t(self, model, scheme):
        sched = tq.build_cphase_schedule(PI / 4, model.g_eff, scheme)
        u4, leakage = tq.cphase_propagator(model, sched)
        assert 1 - average_gate_fidelity(ideal_control_rk(3), u4) < 1e-6
        assert leakage < 1e-6

    def test_conditioned_z(self, model):
        sched = tq.build_cphase_schedule(PI, model.g_eff, "tounhqc")
        u4, _ = tq.cphase_propagator(model, sched)
        assert 1 - average_gate_fidelity(np.diag([1, -1, 1, 1]), u4) < 1e-6

    def test_spectators_exact(self, model):
        sched = tq.build_cphase_schedule(PI / 4, model.g_eff, "tounhqc")
        err = ErrorInjection(amp_fraction=0.07, detuning_fraction=-0.04)
        u4, _ = tq.cphase_propagator(model, sched, err=err)
        for k in (0, 2, 3):
            assert u4[k, k] == 1.0  # untouched rows stay literally identity
            assert np.sum(np.abs(u4[:, k])) == 1.0

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    @pytest.mark.parametrize("gamma", [PI / 8, PI / 4, PI / 2, PI, 5.0])
    def test_equals_the_embedded_driven_pair_bitwise(self, model, scheme, gamma):
        # reference: the |01>, |a> pair propagated alone and embedded next to
        # exact spectators
        sched = tq.build_cphase_schedule(gamma, model.g_eff, scheme)
        u5 = np.eye(5, dtype=complex)
        u5[np.ix_((1, 4), (1, 4))] = evolve.propagator(sched, dim=2, levels=(None, 0, 1))
        u4, leakage = tq.cphase_propagator(model, sched)
        assert np.array_equal(u4, u5[:4, :4])
        assert leakage == float(1.0 - np.sum(np.abs(u5[:4, :4]) ** 2, axis=0).min())

    def test_leakage_small_across_gammas(self, model):
        for scheme in ("tounhqc", "nhqc"):
            for gamma in np.arange(PI / 8, PI + 1e-9, PI / 8):
                sched = tq.build_cphase_schedule(gamma, model.g_eff, scheme)
                _, leakage = tq.cphase_propagator(model, sched)
                assert leakage < 1e-6


class TestRamsey:
    def test_gate_off_reference_phase(self, model):
        thetas = np.linspace(0, 2 * PI, 24, endpoint=False)
        fringe = tq.ramsey_protocol(model, False, PI / 4, thetas)
        assert abs(tq.fringe_phase(*zip(*fringe))) < 1e-9

    @pytest.mark.parametrize("thetas", [[0.0, 0.0, 0.0], [0.0, 2 * PI, 4 * PI], [0.0, 1.0, 1.0, 2 * PI]])
    def test_fewer_than_three_distinct_angles_rejected(self, thetas):
        # the basis (cos, sin, 1) is rank-deficient on fewer than 3 points of the circle
        probs = np.linspace(1.0, 0.2, len(thetas))
        with pytest.raises(ValueError, match="distinct modulo 2 pi"):
            tq.fringe_phase(thetas, probs)

    def test_three_distinct_angles_fit(self):
        thetas = np.array([0.0, 1.0, 2 * PI + 2.0])
        assert tq.fringe_phase(thetas, 0.5 + 0.4 * np.cos(thetas + 0.3)) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("gamma", [PI / 4, PI / 2])
    def test_extracted_shift_matches_loop_phase(self, model, gamma):
        thetas = np.linspace(0, 2 * PI, 24, endpoint=False)
        on = tq.ramsey_protocol(model, True, gamma, thetas)
        off = tq.ramsey_protocol(model, False, gamma, thetas)
        assert tq.ramsey_phase_shift(on, off) == pytest.approx(gamma, abs=1e-3)

    def test_shift_equals_propagator_phase(self, model, rng):
        # ties the fringe readout to arg(U4[1,1] / U4[0,0]) for random gammas
        thetas = np.linspace(0, 2 * PI, 16, endpoint=False)
        for _ in range(20):
            gamma = rng.uniform(0.1, 2 * PI - 0.1)
            sched = tq.build_cphase_schedule(gamma, model.g_eff, "tounhqc")
            u4, _ = tq.cphase_propagator(model, sched)
            expected = np.angle(u4[1, 1] / u4[0, 0])
            on = tq.ramsey_protocol(model, True, gamma, thetas)
            off = tq.ramsey_protocol(model, False, gamma, thetas)
            shift = tq.ramsey_phase_shift(on, off)
            diff = (shift - expected + PI) % (2 * PI) - PI
            assert abs(diff) < 1e-6

    @pytest.mark.parametrize("gate_on", [False, True])
    @pytest.mark.parametrize("noise", [evolve.NO_NOISE, tq.ancilla_decay(2e-6)])
    def test_stacked_analysis_equals_per_angle_pulses(self, model, rng, gate_on, noise):
        thetas = [*np.linspace(0, 2 * PI, 41, endpoint=False), *rng.uniform(-10, 10, 9)]
        psi0 = (basis_state(5, 0) - 1j * basis_state(5, 1)) / math.sqrt(2.0)
        rho = np.outer(psi0, psi0.conj())
        if gate_on:
            sched = tq.build_cphase_schedule(PI / 4, model.g_eff, "tounhqc")
            channel = evolve.gate_channel(sched, noise, dim=tq.DIM, levels=tq.LEVELS)
            rho = (channel @ rho.reshape(-1)).reshape(tq.DIM, tq.DIM)
        expected = []
        for theta in thetas:
            u = tq._analysis_half_pi(theta)
            rho_out = u @ rho @ u.conj().T
            expected.append((float(theta), float(rho_out[1, 1].real + rho_out[3, 3].real)))
        assert tq.ramsey_protocol(model, gate_on, PI / 4, thetas, noise=noise) == expected

    def test_analysis_pulse_is_the_ideal_rotation_bitwise(self, rng):
        thetas = np.concatenate([np.linspace(0, 2 * PI, 16, endpoint=False), rng.uniform(0, 2 * PI, 16)])
        stack = tq._analysis_half_pi(thetas)
        for theta, u in zip(thetas, stack):
            expected = np.zeros((5, 5), dtype=complex)
            expected[:4, :4] = np.kron(np.eye(2), ideal_single_qubit(GateSpec(PI / 2, float(theta), PI / 2)))
            expected[4, 4] = 1.0
            assert np.array_equal(u, expected)

    def test_empty_grid_rejected(self, model):
        with pytest.raises(ValueError, match="theta_grid"):
            tq.ramsey_protocol(model, True, PI / 4, [])

    def test_noisy_fringe_amplitude_shrinks(self, model):
        thetas = np.linspace(0, 2 * PI, 12, endpoint=False)
        clean = tq.ramsey_protocol(model, True, PI / 4, thetas)
        noisy = tq.ramsey_protocol(
            model, True, PI / 4, thetas, noise=tq.ancilla_decay(2e-6)
        )
        amp = lambda fr: 0.5 * (max(p for _, p in fr) - min(p for _, p in fr))
        assert amp(noisy) < amp(clean)


class TestAncillaDecay:
    @pytest.mark.parametrize("t1_a", [0.0, -0.0, -1e-6, math.nan])
    def test_time_must_be_positive(self, t1_a):
        # 0 would divide by zero, and NaN would pass a "t1_a <= 0" check
        with pytest.raises(ValueError, match="t1_a must be positive"):
            tq.ancilla_decay(t1_a)

    def test_infinite_time_turns_the_channel_off(self):
        assert tq.ancilla_decay(math.inf).is_empty
        assert [rate for _, rate in tq.ancilla_decay(2e-6).collapse_ops] == [5e5]


class TestPopulationTrace:
    """Five-level trajectories straight from the engine, on the composite levels."""

    @staticmethod
    def pure_populations(sched, psi0):
        traj = evolve.evolve_pure(psi0, sched, dim=tq.DIM, levels=tq.LEVELS)
        return traj.times, np.abs(traj.states) ** 2

    def test_spectator_input_is_flat(self, model):
        sched = tq.build_cphase_schedule(PI / 4, model.g_eff, "tounhqc")
        _, pops = self.pure_populations(sched, basis_state(5, 0))
        assert np.allclose(pops[:, 0], 1.0, atol=1e-12)

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_bright_state_excursion_and_return(self, model, scheme):
        sched = tq.build_cphase_schedule(PI / 4, model.g_eff, scheme)
        _, pops = self.pure_populations(sched, basis_state(5, 1))
        # the ancilla level is visited mid-loop and empty again at the end
        assert pops[:, 4].max() > 0.1
        assert pops[-1, 1] == pytest.approx(1.0, abs=1e-4)
        assert pops[-1, 4] < 1e-4
        assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-8

    def test_diagonal_gate_keeps_computational_weights(self, model):
        psi0 = (basis_state(5, 0) + basis_state(5, 1)) / math.sqrt(2)
        sched = tq.build_cphase_schedule(PI / 4, model.g_eff, "tounhqc")
        _, pops = self.pure_populations(sched, psi0)
        assert np.allclose(pops[:, 0], 0.5, atol=1e-12)
        assert pops[-1, 1] == pytest.approx(0.5, abs=1e-4)

    def test_noisy_trace_preserves_total_population(self, model):
        sched = tq.build_cphase_schedule(PI / 4, model.g_eff, "tounhqc")
        rho0 = density(basis_state(5, 1))
        traj = evolve.evolve_density(rho0, sched, tq.ancilla_decay(5e-6), dim=tq.DIM, levels=tq.LEVELS)
        assert np.max(np.abs(np.einsum("nii->n", traj.states).real - 1.0)) < 1e-8

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_noisy_frame_trace_matches_stepper(self, model, scheme):
        # ancilla decay |01><a| is one matrix unit: the five-level run maps
        # by exact frame exponentials, checked here against an adaptive
        # DOP853 stepper on the lab-frame Lindblad equation
        sched = tq.build_cphase_schedule(PI / 4, model.g_eff, scheme)
        psi0 = (basis_state(5, 1) + basis_state(5, 3) - 1j * basis_state(5, 4)) / math.sqrt(3)
        noise = tq.ancilla_decay(20e-6)
        traj = evolve.evolve_density(density(psi0), sched, noise, dim=tq.DIM, levels=tq.LEVELS)
        pops = np.einsum("nii->ni", traj.states).real
        exact = ivp_evolve(sched, density(psi0).reshape(-1), traj.times, noise.scaled_ops(5),
                           dim=5, levels=tq.LEVELS)
        assert np.max(np.abs(pops - np.einsum("nii->ni", exact.reshape(-1, 5, 5)).real)) < 1e-14

    def test_dimension_check(self, model):
        sched = tq.build_cphase_schedule(PI / 4, model.g_eff, "tounhqc")
        with pytest.raises(ValueError, match="does not match dim 5"):
            evolve.evolve_pure(basis_state(3, 0), sched, dim=tq.DIM, levels=tq.LEVELS)
        with pytest.raises(ValueError, match="does not match dim 5"):
            evolve.evolve_density(density(basis_state(3, 0)), sched, dim=tq.DIM, levels=tq.LEVELS)
