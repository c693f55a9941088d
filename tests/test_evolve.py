import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from holosim import evolve, pulses, twoqubit
from holosim import protocols as pr
from holosim.gates import ideal_single_qubit
from holosim.protocols import default_noise_model, t1_limited_noise_model
from holosim.quantum import average_gate_fidelity, basis_state, density

from conftest import (
    OMEGA0,
    ivp_evolve,
    lab_hamiltonian,
    phase_aligned_distance,
    random_gate_spec,
    segments_at,
    table_at,
)

PI = math.pi


def zero_schedule(duration=100e-9):
    return pulses.PulseSchedule(duration, np.zeros((6, 1)), OMEGA0)


def frame_generator(sched, t, err=evolve.NO_ERROR):
    """The engine's qutrit frame generator at time ``t`` of ``sched``."""
    table = table_at(sched, [t])
    errors = evolve.error_table(err.amp_fraction, err.detuning_fraction)
    return evolve._frame_generators(table, errors, sched.omega0, 3, evolve.QUTRIT_LEVELS)[0, 0]


class TestAssembleHamiltonian:
    """The frame Hamiltonian G, written from the segment parameters."""

    def test_zero_drive_gives_zero_matrix(self):
        assert np.array_equal(frame_generator(zero_schedule(), 50e-9), np.zeros((3, 3)))

    def test_sqrt_x_magnitudes(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        g = frame_generator(sched, 0.4 * sched.duration)
        expected = 2 * PI * 6.124e6 / 2
        assert abs(g[0, 2]) == pytest.approx(expected, rel=1e-4)
        assert abs(g[1, 2]) == pytest.approx(expected, rel=1e-4)
        assert np.array_equal(g, g.conj().T)

    def test_amplitude_error_scales_off_diagonals(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        g0 = frame_generator(sched, 10e-9)
        g1 = frame_generator(sched, 10e-9, evolve.ErrorInjection(amp_fraction=0.05))
        assert abs(g1[0, 2]) == pytest.approx(1.05 * abs(g0[0, 2]), rel=1e-14)
        assert abs(g1[1, 2]) == pytest.approx(1.05 * abs(g0[1, 2]), rel=1e-14)

    def test_detuning_lands_on_auxiliary_level(self, sqrt_x_spec):
        # next to the frame's -phi1' on |e>
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        err = evolve.ErrorInjection(detuning_fraction=0.03)
        shift = frame_generator(sched, 10e-9, err) - frame_generator(sched, 10e-9)
        assert shift[2, 2].real == pytest.approx(0.03 * OMEGA0, rel=1e-14)
        assert np.count_nonzero(shift) == 1


class TestPropagator:
    def test_zero_schedule_is_identity(self):
        u = evolve.propagator(zero_schedule())
        assert np.allclose(u, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_sqrt_x_block_matches_ideal(self, sqrt_x_spec, scheme):
        # core correctness oracle: the simulated block is the ideal rotation
        sched = pulses.synthesize(sqrt_x_spec, OMEGA0, scheme)
        u = evolve.propagator(sched)
        ideal = ideal_single_qubit(sqrt_x_spec)
        assert 1 - average_gate_fidelity(ideal, u[:2, :2]) < 1e-6
        assert phase_aligned_distance(ideal, u[:2, :2]) < 1e-6

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_bright_frame_loop_phase(self, rng, scheme):
        # in the schedule's own bright/dark basis the loop is
        # diag(e^{i gamma}, 1) up to global phase, for any gamma
        for _ in range(10):
            spec = random_gate_spec(rng)
            sched = pulses.synthesize(spec, OMEGA0, scheme)
            seg = sched.segments[0]
            bright, dark = pulses.bright_dark_basis(seg.theta_mix, seg.phi0_offset)
            u = evolve.propagator(sched)
            basis = np.column_stack([bright, dark])
            block = basis.conj().T @ u @ basis
            target = np.diag([np.exp(1j * spec.gamma), 1.0])
            assert phase_aligned_distance(target, block) < 1e-9

    @pytest.mark.parametrize("build, row", [
        (lambda s: evolve.propagator(s, evolve.ErrorInjection(math.nan, 0.0)), "amp_fraction"),
        (lambda s: evolve.propagator(s, evolve.ErrorInjection(0.0, math.inf)), "detuning_fraction"),
        (lambda s: evolve.error_maps(s, evolve.error_table([0.0, math.nan], 0.0)), "amp_fraction"),
        (lambda s: evolve.error_maps(s, evolve.error_table(-math.inf, math.nan)),
         "amp_fraction and detuning_fraction"),
        (lambda s: evolve.gate_channel(s, default_noise_model(), evolve.ErrorInjection(0.0, -math.inf)),
         "detuning_fraction"),
        (lambda s: evolve.evolve_pure(basis_state(3, 0), s, evolve.ErrorInjection(math.inf, 0.0)),
         "amp_fraction"),
    ], ids=["propagator-nan", "propagator-inf", "error-maps-column", "error-maps-both",
            "gate-channel", "evolve-pure"])
    def test_non_finite_error_rejected(self, sqrt_x_spec, build, row):
        # each map would otherwise hold NaN; the message names the error's row
        sched = pulses.synthesize(sqrt_x_spec, OMEGA0, "tounhqc")
        with pytest.raises(ValueError, match=f"got a non-finite {row}$"):
            build(sched)

    def test_empty_error_table_passes(self, sqrt_x_spec):
        sched = pulses.synthesize(sqrt_x_spec, OMEGA0, "tounhqc")
        assert evolve.error_maps(sched, evolve.error_table([], [])).shape == (0, 3, 3)

    def test_unitary_for_random_schedules(self, rng):
        for _ in range(100):
            spec = random_gate_spec(rng)
            omega = OMEGA0 * rng.uniform(0.3, 2.0)
            scheme = rng.choice(["tounhqc", "nhqc"])
            u = evolve.propagator(pulses.synthesize(spec, omega, scheme))
            defect = np.max(np.abs(u.conj().T @ u - np.eye(3)))
            assert defect < 1e-9


class TestEvolvePure:
    def test_sqrt_x_endpoint_from_ground(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        traj = evolve.evolve_pure(basis_state(3, 0), sched)
        pops = np.abs(traj.states[-1]) ** 2
        assert pops[0] == pytest.approx(0.5, abs=1e-4)
        assert pops[1] == pytest.approx(0.5, abs=1e-4)
        assert pops[2] < 1e-4

    def test_norm_preserved_at_every_recorded_step(self, rng):
        spec = random_gate_spec(rng)
        sched = pulses.synthesize_nhqc(spec, OMEGA0)
        traj = evolve.evolve_pure(basis_state(3, 0), sched)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_dark_state_is_frozen(self, rng):
        # the schedule's own dark state never moves, even with detuning error
        for _ in range(10):
            spec = random_gate_spec(rng)
            scheme = rng.choice(["tounhqc", "nhqc"])
            sched = pulses.synthesize(spec, OMEGA0, scheme)
            seg = sched.segments[0]
            _, dark = pulses.bright_dark_basis(seg.theta_mix, seg.phi0_offset)
            err = evolve.ErrorInjection(detuning_fraction=rng.uniform(-0.2, 0.2))
            traj = evolve.evolve_pure(dark, sched, err=err)
            overlap = np.abs(traj.states @ dark.conj()) ** 2
            assert np.max(np.abs(overlap - 1.0)) < 1e-9

    def test_auxiliary_start_stays_in_driven_plane(self, sqrt_x_spec):
        # |e> only couples to the bright state: the dark amplitude stays zero
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        seg = sched.segments[0]
        _, dark = pulses.bright_dark_basis(seg.theta_mix, seg.phi0_offset)
        traj = evolve.evolve_pure(basis_state(3, 2), sched)
        dark_pop = np.abs(traj.states @ dark.conj()) ** 2
        assert np.max(dark_pop) < 1e-12
        assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1)) < 1e-9

    def test_rejects_unnormalized_state(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        with pytest.raises(ValueError, match="norm"):
            evolve.evolve_pure(np.array([1.0, 1.0, 0.0]), sched)

    def test_rejects_nan_state(self, sqrt_x_spec):
        # a NaN norm fails every comparison, "> 1 + 1e-9" included
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        with pytest.raises(ValueError, match="nan.* deviates from 1"):
            evolve.evolve_pure(np.array([np.nan, 0.0, 0.0]), sched)

    def test_recorded_times_include_endpoints(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        traj = evolve.evolve_pure(basis_state(3, 0), sched)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(sched.duration, rel=1e-12)
        assert len(traj.times) == len(traj.states)

    def test_rows_are_the_ends_of_equal_steps(self):
        # N equal steps from t = 0 whatever the segment cuts: N + 1 rows at
        # np.linspace(0, duration, N + 1), bitwise, with dt = duration / N as
        # without a step (N = DEFAULT_STEPS).  Unit steps on an n-step
        # schedule cut at n // 3 and 2n // 3 put rows on the cuts
        psi0 = basis_state(3, 0)
        for n in range(1, 41):
            breaks = sorted({0, n // 3, 2 * n // 3, n})
            table = np.zeros((6, len(breaks) - 1))
            table[0] = breaks[:-1]
            sched = pulses.PulseSchedule(float(n), table, 1.0)
            for steps in range(1, n + 3):
                traj = evolve.evolve_pure(psi0, sched, config=evolve.IntegratorConfig(dt=n / steps))
                assert np.array_equal(traj.times, np.linspace(0.0, n, steps + 1)), (n, steps)
            default = np.linspace(0.0, n, evolve.DEFAULT_STEPS + 1)
            assert np.array_equal(evolve.evolve_pure(psi0, sched).times, default)

    def test_trajectory_and_map_end_at_the_schedule_duration(self):
        # a hand-built table: its last segment ends at the duration, where the last row is
        duration = 100e-9
        table = np.array([[0.0, 40e-9], [OMEGA0] * 2, [0.0, 0.3], [2e7, -1e7], [1.1] * 2, [0.4] * 2])
        psi0 = basis_state(3, 0)
        sched = pulses.PulseSchedule(duration, table, OMEGA0)
        assert sched.segments[-1].t_end == sched.duration
        traj = evolve.evolve_pure(psi0, sched)
        assert traj.times[-1] == sched.duration
        u = evolve.propagator(sched)
        assert np.max(np.abs(traj.states[-1] - u @ psi0)) < 1e-14


class TestEvolveDensity:
    def test_matches_pure_evolution_without_noise(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        pure = evolve.evolve_pure(basis_state(3, 0), sched)
        dens = evolve.evolve_density(density(basis_state(3, 0)), sched)
        projector = np.outer(pure.states[-1], pure.states[-1].conj())
        assert np.max(np.abs(dens.states[-1] - projector)) < 1e-7

    def test_pure_exponential_decay_without_drive(self):
        # analytic single-decay solution P_e(t) = exp(-rate t)
        rate = 2.0e6
        lower = np.zeros((3, 3), dtype=complex)
        lower[0, 2] = 1.0
        noise = evolve.NoiseModel(collapse_ops=((lower, rate),))
        duration = 1e-6
        traj = evolve.evolve_density(
            density(basis_state(3, 2)), zero_schedule(duration), noise
        )
        expected = np.exp(-rate * traj.times)
        pe = np.einsum("nii->ni", traj.states)[:, 2].real
        assert np.max(np.abs(pe - expected)) < 1e-4

    def test_dephasing_closed_form(self):
        # L = sqrt(2/Tphi) |1><1| makes the 0-1 coherence decay at 1/Tphi
        tphi = 2e-6
        noise = evolve.NoiseModel.qutrit_relaxation(tphi_1=tphi)
        plus = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)
        duration = 1e-6
        traj = evolve.evolve_density(density(plus), zero_schedule(duration), noise)
        coherence = np.abs(traj.states[:, 0, 1])
        expected = 0.5 * np.exp(-traj.times / tphi)
        assert np.max(np.abs(coherence - expected)) < 1e-6

    def test_trace_and_positivity_under_drive(self, sqrt_x_spec):
        sched = pulses.synthesize_nhqc(sqrt_x_spec, OMEGA0)
        noise = evolve.NoiseModel.qutrit_relaxation(
            t1_e_to_0=5e-6, t1_1_to_e=3e-6, tphi_e=10e-6, tphi_1=10e-6
        )
        traj = evolve.evolve_density(density(basis_state(3, 0)), sched, noise)
        traces = np.einsum("nii->n", traj.states).real
        assert np.max(np.abs(traces - 1.0)) < 1e-8
        for rho in traj.states[:: len(traj.states) // 10 + 1]:
            assert np.linalg.eigvalsh(rho).min() > -1e-7

    def test_step_size_violation_raises(self, sqrt_x_spec):
        # a step finer than duration / MAX_STEPS; no decay rate bounds the
        # step, since every row's map is exact
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        cfg = evolve.IntegratorConfig(dt=sched.duration / (2 * evolve.MAX_STEPS))
        with pytest.raises(ValueError, match="step size"):
            evolve.evolve_density(density(basis_state(3, 0)), sched, config=cfg)
        harsh = evolve.NoiseModel.qutrit_relaxation(t1_e_to_0=1e-12)
        traj = evolve.evolve_density(density(basis_state(3, 2)), sched, harsh)
        assert np.max(np.abs(np.einsum("nii->n", traj.states) - 1.0)) < 1e-10
        assert traj.states[-1][2, 2].real < 1e-8

    def test_step_longer_than_the_loop_takes_one_step(self, sqrt_x_spec):
        # no step is too coarse: every row's map is exact
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        noise = default_noise_model()
        rho0 = density(basis_state(3, 0))
        end = evolve.gate_channel(sched, noise) @ rho0.reshape(-1)
        for dt, rows in ((sched.duration / 10, 11), (2 * sched.duration, 2)):
            traj = evolve.evolve_density(rho0, sched, noise, config=evolve.IntegratorConfig(dt=dt))
            assert len(traj.times) == rows
            assert np.max(np.abs(traj.states[-1].reshape(-1) - end)) < 1e-14

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_state(self, sqrt_x_spec, bad):
        # the map is linear, so the trace is not checked; a non-finite entry
        # would fill every recorded state
        rho = density(basis_state(3, 0))
        rho[1, 0] = bad
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        with pytest.raises(ValueError, match="non-finite"):
            evolve.evolve_density(rho, sched)


class TestGateChannel:
    def test_matches_propagator_without_noise(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        s = evolve.gate_channel(sched)
        u = evolve.propagator(sched)
        rho0 = density(basis_state(3, 0))
        assert np.allclose(
            (s @ rho0.reshape(-1)).reshape(3, 3), u @ rho0 @ u.conj().T, atol=1e-12
        )

    def test_noisy_channel_preserves_trace(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        noise = evolve.NoiseModel.qutrit_relaxation(t1_e_to_0=5e-6, t1_1_to_e=3e-6)
        s = evolve.gate_channel(sched, noise)
        rho = (s @ density(basis_state(3, 1)).reshape(-1)).reshape(3, 3)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.eigvalsh(rho).min() > -1e-7


def frame_oracle(schedule, c_ops=None, until=None):
    """Exact map of a ramp-free schedule from t = 0 to ``until`` (default: the end).

    In the co-rotating frame psi = D(t) psi~, D(t) = exp(-i phi1(t) |e><e|),
    a segment's generator G = H(phi1 = 0) - phi1' |e><e| is constant, so the
    segment maps by D(t_end) exp(-i G dt) D(t_start)^dag.  Matrix-unit and
    diagonal collapse operators only pick up phases in that frame, so the
    noisy map is D(t_end) exp(L dt) D(t_start)^dag on superoperators, with
    L the row-major Liouvillian of G.  Returns the unitary when ``c_ops`` is
    None, else the superoperator.
    """
    return frame_oracle_at(schedule, [schedule.duration if until is None else until], c_ops)[0]


def frame_oracle_at(schedule, times, c_ops=None):
    """:func:`frame_oracle` at each of ``times``, by one scipy exponential per time."""
    noisy = c_ops is not None
    eye = np.eye(3)
    times = np.asarray(times, dtype=float)
    total = np.eye(9 if noisy else 3, dtype=complex)
    maps = np.broadcast_to(total, (len(times), *total.shape)).copy()
    for seg in schedule.segments:
        g = np.zeros((3, 3), dtype=complex)
        g[0, 2] = 0.5 * seg.omega * math.sin(0.5 * seg.theta_mix) * np.exp(1j * seg.phi0_offset)
        g[1, 2] = 0.5 * seg.omega * math.cos(0.5 * seg.theta_mix)
        g[2, 0], g[2, 1] = np.conj(g[0, 2]), np.conj(g[1, 2])
        g[2, 2] = -seg.phi1_slope
        if noisy:
            gen = -1j * (np.kron(g, eye) - np.kron(eye, g.T))
            for c in c_ops:
                cdc = c.conj().T @ c
                gen += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
        else:
            gen = -1j * g

        def frame(t):
            d = np.ones((len(t), 3), dtype=complex)
            d[:, 2] = np.exp(-1j * (seg.phi1_offset + seg.phi1_slope * (t - seg.t_start)))
            return (d[:, :, None] * d.conj()[:, None, :]).reshape(len(t), 9) if noisy else d

        # the times inside the segment, and its end, which carries the map on
        ends = np.append(times, seg.t_end)
        inside = (ends > seg.t_start) & (ends <= seg.t_end)
        inside[-1] = True
        steps = expm(gen * (ends[inside] - seg.t_start)[:, None, None])
        back = frame(np.array([seg.t_start]))[0].conj()[:, None] * total
        mapped = frame(ends[inside])[:, :, None] * (steps @ back)
        maps[inside[:-1]] = mapped[:-1]
        total = mapped[-1]
    return maps


@pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
class TestFrameOracle:
    SPEC = pulses.GateSpec(theta=1.1, phi=0.4, gamma=2.3)
    NOISE = evolve.NoiseModel.qutrit_relaxation(
        t1_e_to_0=5e-6, t1_1_to_e=3e-6, tphi_e=10e-6, tphi_1=10e-6
    )
    RHO0 = density(np.array([0.6, 0.8j, 0.0]))

    # the exact frame path, which serves every ramp-free schedule

    def test_propagator_matches_oracle(self, scheme):
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme)
        assert np.max(np.abs(evolve.propagator(sched) - frame_oracle(sched))) < 1e-12

    def test_noiseless_density_matches_unitary(self, scheme):
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme)
        traj = evolve.evolve_density(self.RHO0, sched)
        for t, rho in zip(traj.times, traj.states):
            u = frame_oracle(sched, until=t)
            assert np.max(np.abs(rho - u @ self.RHO0 @ u.conj().T)) < 1e-12

    def test_noisy_channel_matches_oracle(self, scheme):
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme)
        exact = frame_oracle(sched, self.NOISE.scaled_ops(3))
        assert np.max(np.abs(evolve.gate_channel(sched, self.NOISE) - exact)) < 1e-12

    def test_noisy_density_matches_oracle(self, scheme):
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme)
        traj = evolve.evolve_density(self.RHO0, sched, self.NOISE)
        for t, rho in zip(traj.times, traj.states):
            s = frame_oracle(sched, self.NOISE.scaled_ops(3), until=t)
            assert np.max(np.abs(rho - (s @ self.RHO0.reshape(-1)).reshape(3, 3))) < 1e-12

    def test_channel_columns_match_evolve_density(self, scheme):
        # column j of the channel is the evolution of matrix unit j on its own
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme)
        noise = evolve.NoiseModel.qutrit_relaxation(t1_e_to_0=5e-6, tphi_1=10e-6)
        cfg = evolve.IntegratorConfig(dt=sched.duration / 200)
        channel = evolve.gate_channel(sched, noise)
        for j in range(9):
            unit = np.zeros((3, 3), dtype=complex)
            unit[j // 3, j % 3] = 1.0
            final = evolve.evolve_density(unit, sched, noise, config=cfg).states[-1]
            assert np.max(np.abs(channel[:, j] - final.reshape(-1))) < 1e-13

    # edge-ramped schedules, whose sampled ramps the engine maps piece by
    # piece, against DOP853 on the sampled lab-frame Hamiltonian

    def test_stepped_propagator_matches_oracle(self, scheme):
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme, edge_ramp=10e-9)
        exact = ivp_evolve(sched, np.eye(3), [sched.duration])[0]
        assert np.max(np.abs(evolve.propagator(sched) - exact)) < 2e-12

    def test_stepped_noiseless_density_matches_unitary(self, scheme):
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme, edge_ramp=10e-9)
        traj = evolve.evolve_density(self.RHO0, sched)
        exact = ivp_evolve(sched, np.eye(3), traj.times)
        for u, rho in zip(exact, traj.states):
            assert np.max(np.abs(rho - u @ self.RHO0 @ u.conj().T)) < 2e-12

    def test_stepped_noisy_channel_matches_oracle(self, scheme):
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme, edge_ramp=10e-9)
        exact = ivp_evolve(sched, np.eye(9), [sched.duration], self.NOISE.scaled_ops(3))[0]
        assert np.max(np.abs(evolve.gate_channel(sched, self.NOISE) - exact)) < 2e-12

    def test_stepped_noisy_density_matches_oracle(self, scheme):
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme, edge_ramp=10e-9)
        traj = evolve.evolve_density(self.RHO0, sched, self.NOISE)
        exact = ivp_evolve(sched, self.RHO0.reshape(-1), traj.times, self.NOISE.scaled_ops(3))
        assert np.max(np.abs(traj.states.reshape(len(exact), -1) - exact)) < 2e-12

    def test_stepped_channel_columns_match_stepped_density(self, scheme):
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme, edge_ramp=10e-9)
        noise = evolve.NoiseModel.qutrit_relaxation(t1_e_to_0=5e-6, tphi_1=10e-6)
        cfg = evolve.IntegratorConfig(dt=sched.duration / 200)
        channel = evolve.gate_channel(sched, noise)
        for j in range(9):
            unit = np.zeros((3, 3), dtype=complex)
            unit[j // 3, j % 3] = 1.0
            final = evolve.evolve_density(unit, sched, noise, config=cfg).states[-1]
            assert np.max(np.abs(channel[:, j] - final.reshape(-1))) < 1e-13


def recorded_maps(sched, noise=evolve.NO_NOISE, config=evolve.DEFAULT_CONFIG):
    """The engine's lab-frame maps at every row of a trajectory of ``sched`` after t = 0."""
    return evolve._frame_maps([sched], evolve.error_table(), noise, 3, evolve.QUTRIT_LEVELS,
                              evolve.trajectory_steps(sched, config))


@pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
class TestFrameAtStart:
    """A schedule whose drive phase is nonzero at t = 0, so that D(0) != 1.

    The engine rebases piece 0 by scaling its columns with D(0)^dag; every
    synthesized schedule starts at phi1 = 0, where that scaling is 1.
    """

    NOISE = TestFrameOracle.NOISE

    @staticmethod
    def shifted(scheme, edge_ramp=0.0):
        sched = pulses.synthesize(TestFrameOracle.SPEC, OMEGA0, scheme, edge_ramp=edge_ramp)
        table = sched.table.copy()
        table[2] += 0.9
        assert table[2, 0] == 0.9
        return pulses.PulseSchedule(sched.duration, table, sched.omega0, sched.edge_ramp)

    def test_propagator(self, scheme):
        sched = self.shifted(scheme)
        assert np.max(np.abs(evolve.propagator(sched) - frame_oracle(sched))) < 1e-12

    def test_channel(self, scheme):
        sched = self.shifted(scheme)
        exact = frame_oracle(sched, self.NOISE.scaled_ops(3))
        assert np.max(np.abs(evolve.gate_channel(sched, self.NOISE) - exact)) < 1e-12

    @pytest.mark.parametrize("noisy", [False, True])
    def test_recorded_maps(self, scheme, noisy):
        sched = self.shifted(scheme)
        noise = self.NOISE if noisy else evolve.NO_NOISE
        times, maps = recorded_maps(sched, noise)
        exact = frame_oracle_at(sched, times, noise.scaled_ops(3) if noisy else None)
        assert np.max(np.abs(maps[0] - exact)) < 1e-12

    def test_ramped_propagator(self, scheme):
        # DOP853 on the sampled ramps' lab-frame Hamiltonian
        sched = self.shifted(scheme, edge_ramp=10e-9)
        exact = ivp_evolve(sched, np.eye(3), [sched.duration])[0]
        assert np.max(np.abs(evolve.propagator(sched) - exact)) < 2e-12


class TestEdgeRamps:
    """Sampled, reparametrized edge ramps: every sample is an ordinary constant segment."""

    NOISE = TestFrameOracle.NOISE

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_noiseless_maps_equal_the_ramp_free_ones(self, rng, scheme):
        # each sample maps by exp(-i env G~ dt) with G~ the ramp-free generator,
        # amplitude errors included, and the env dt of all samples add up to the
        # loop.  Rounding grows with the sample count: ramps up to 30 ns
        errors = evolve.error_table(rng.uniform(-0.1, 0.1, 5))
        for _ in range(20):
            spec = random_gate_spec(rng, gamma_margin=0.3)
            free = pulses.synthesize(spec, OMEGA0, scheme)
            for ramp in (10e-9, rng.uniform(0.0, 30e-9)):
                ramped = pulses.synthesize(spec, OMEGA0, scheme, edge_ramp=ramp)
                assert ramped.duration == free.duration + ramp
                got = evolve.error_maps(ramped, errors)
                assert np.max(np.abs(got - evolve.error_maps(free, errors))) < 1e-14

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_noisy_channel_and_trajectory_match_per_segment_expm(self, scheme):
        sched = pulses.synthesize(TestFrameOracle.SPEC, OMEGA0, scheme, edge_ramp=10e-9)
        c_ops = self.NOISE.scaled_ops(3)
        assert np.max(np.abs(evolve.gate_channel(sched, self.NOISE) - frame_oracle(sched, c_ops))) < 1e-12
        rho0 = TestFrameOracle.RHO0
        traj = evolve.evolve_density(rho0, sched, self.NOISE)
        exact = frame_oracle_at(sched, traj.times, c_ops) @ rho0.reshape(-1)
        assert np.max(np.abs(traj.states.reshape(len(exact), -1) - exact)) < 1e-12

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_noisy_map_converges_at_second_order_in_the_sample_period(self, monkeypatch, scheme):
        # under noise the samples differ from the continuous ramp, by O(period^2)
        def channel(period):
            monkeypatch.setattr(pulses, "RAMP_SAMPLE_PERIOD", period)
            sched = pulses.synthesize(TestFrameOracle.SPEC, OMEGA0, scheme, edge_ramp=10e-9)
            return evolve.gate_channel(sched, default_noise_model())

        fine = channel(0.125e-9)
        errs = [np.max(np.abs(channel(period) - fine)) for period in (2e-9, 1e-9, 0.5e-9)]
        assert errs[1] < 1e-6
        # against the 0.125 ns reference the errors go as period^2 - (0.125 ns)^2,
        # so the ratios are near 4.05 and 4.2
        assert 3.5 < errs[0] / errs[1] < 5.0 and 3.5 < errs[1] / errs[2] < 5.0


class TestRows:
    """A trajectory's rows against one scipy exponential per row.

    Without noise each row takes its own closed-form exponential.  With
    noise the rows after a piece's first are powers of one step's map, whose
    rounding grows with the row count: pinned at the default count and the
    most.
    """

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    @pytest.mark.parametrize("steps", [evolve.DEFAULT_STEPS, evolve.MAX_STEPS])
    def test_rows_match_per_row_exponentials(self, scheme, noisy, steps):
        sched = pulses.synthesize(TestFrameOracle.SPEC, OMEGA0, scheme)
        noise = TestFrameOracle.NOISE if noisy else evolve.NO_NOISE
        times, maps = recorded_maps(sched, noise, evolve.IntegratorConfig(dt=sched.duration / steps))
        assert np.array_equal(np.append(0.0, times), np.linspace(0.0, sched.duration, steps + 1))
        exact = frame_oracle_at(sched, times, noise.scaled_ops(3) if noisy else None)
        bound = 1e-12 if noisy and steps == evolve.MAX_STEPS else 1e-14
        assert np.max(np.abs(maps[0] - exact)) <= bound

    @pytest.mark.parametrize("noisy", [False, True])
    def test_a_row_on_the_phase_jump_is_right_in_either_piece(self, noisy):
        # the middle row of 2, 6 and 22 steps rounds onto, after and before the
        # half of the nhqc loop, where its phase jumps: the row falls in the
        # first piece, as its end, or in the second, a rounding after its start
        sched = pulses.synthesize(TestFrameOracle.SPEC, OMEGA0, "nhqc")
        half = sched.segments[0].t_end
        noise = TestFrameOracle.NOISE if noisy else evolve.NO_NOISE
        sides = []
        for steps in (2, 6, 22):
            times, maps = recorded_maps(sched, noise, evolve.IntegratorConfig(dt=sched.duration / steps))
            sides.append(np.sign(times[steps // 2 - 1] - half))
            exact = frame_oracle_at(sched, times, noise.scaled_ops(3) if noisy else None)
            assert np.max(np.abs(maps[0] - exact)) <= 1e-14
        assert sides == [0.0, 1.0, -1.0]


class TestEngineChoice:
    SPEC = TestFrameOracle.SPEC

    def test_non_covariant_collapse_is_rejected(self):
        # |0><e| + |e><0| mixes two phase classes: the frame would turn it
        # into a time-dependent operator, which no piece of the engine steps
        op = np.zeros((3, 3), dtype=complex)
        op[0, 2] = op[2, 0] = 1.0
        noise = evolve.NoiseModel(collapse_ops=(*default_noise_model().collapse_ops, (op, 1e5)))
        sched = pulses.synthesize_tounhqc(self.SPEC, OMEGA0)
        calls = [
            lambda: evolve.error_maps(sched, evolve.error_table(), noise),
            lambda: evolve.evolve_density(TestFrameOracle.RHO0, sched, noise),
            lambda: evolve.gate_channel(sched, noise),
            lambda: evolve.gate_channels([sched, sched], noise),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="one phase class"):
                call()

    def test_covariance_is_one_phase_class(self):
        # D^dag c D multiplies entry (i, j) by exp(i phi (delta_ie - delta_je))
        def op(*entries, dim=3):
            c = np.zeros((dim, dim), dtype=complex)
            for i, j in entries:
                c[i, j] = 1.0
            return c

        assert evolve._covariant(np.array([op(), op((0, 0), (2, 2)), op((0, 2)), op((1, 0))]), 2)
        assert evolve._covariant(np.array([op((0, 2), (1, 2))]), 2)
        assert evolve._covariant(np.array([op((0, 1), (2, 3), dim=5)]), 4)
        assert not evolve._covariant(np.array([op((0, 2), (2, 0))]), 2)
        assert not evolve._covariant(np.array([op((0, 0)), op((0, 2), (1, 1))]), 2)
        # every noise model the package builds
        relaxation = evolve.NoiseModel.qutrit_relaxation(5e-6, 3e-6, 10e-6, 10e-6)
        for noise in (default_noise_model(), t1_limited_noise_model(), relaxation):
            assert len(noise.scaled_ops(3)) == len(noise.collapse_ops) > 0
            assert evolve._covariant(noise.scaled_ops(3), 2)
        assert evolve._covariant(twoqubit.ancilla_decay(20e-6).scaled_ops(5), 4)

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_qubit_decay_on_composite_model_takes_exact_path(self, scheme):
        # a qubit's T1, |00><01| + |10><11|, never touches |a>, so the frame
        # leaves its dissipator alone and every piece maps exactly
        t1 = np.zeros((5, 5), dtype=complex)
        t1[0, 1] = t1[2, 3] = 1.0
        noise = evolve.NoiseModel(
            collapse_ops=((t1, 1.0 / 20e-6), *twoqubit.ancilla_decay(10e-6).collapse_ops)
        )
        sched = twoqubit.build_cphase_schedule(PI / 4, twoqubit.DEFAULT_G_EFF, scheme)
        kwargs = dict(dim=5, levels=twoqubit.LEVELS)
        psi = np.array([0.5, 0.5j, -0.5, 0.5, 0.0])
        rho0 = np.outer(psi, psi.conj())
        traj = evolve.evolve_density(rho0, sched, noise, **kwargs)
        channel = evolve.gate_channel(sched, noise, **kwargs)
        c_ops = noise.scaled_ops(5)
        exact = ivp_evolve(sched, rho0.reshape(-1), traj.times, c_ops, **kwargs)
        assert np.max(np.abs(traj.states.reshape(len(exact), -1) - exact)) < 2e-12
        exact = ivp_evolve(sched, np.eye(25), [sched.duration], c_ops, **kwargs)[0]
        assert np.max(np.abs(channel - exact)) < 2e-12

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_ramped_schedule_runs_on_stepper(self, scheme):
        # a trajectory over the sampled ramps ends where the propagator does
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme, edge_ramp=10e-9)
        cfg = evolve.IntegratorConfig(dt=sched.duration / 200)
        psi0 = basis_state(3, 0)
        traj = evolve.evolve_pure(psi0, sched, config=cfg)
        u = evolve.propagator(sched)
        assert np.max(np.abs(traj.states[-1] - u @ psi0)) < 1e-14

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_trajectory_records_the_ends_of_its_steps(self, scheme):
        # duration / 333.5 rounds up to 334 steps
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme)
        cfg = evolve.IntegratorConfig(dt=sched.duration / 333.5)
        psi0 = basis_state(3, 0)
        traj = evolve.evolve_pure(psi0, sched, config=cfg)
        assert np.array_equal(traj.times, np.linspace(0.0, sched.duration, 335))
        assert np.array_equal(traj.states[0], psi0)
        for t, psi in zip(traj.times, traj.states):
            assert np.max(np.abs(psi - frame_oracle(sched, until=t) @ psi0)) < 1e-14

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_error_maps_match_single_error_calls(self, scheme):
        amps, dets = np.meshgrid((-0.04, 0.0, 0.03), (-0.02, 0.05), indexing="ij")
        errors = evolve.error_table(amps, dets)
        errs = [
            evolve.ErrorInjection(amp_fraction=a, detuning_fraction=d)
            for a in (-0.04, 0.0, 0.03)
            for d in (-0.02, 0.05)
        ]
        # with ramps, the samples of every error are exponentiated together
        for ramp in (0.0, 10e-9):
            sched = pulses.synthesize(self.SPEC, OMEGA0, scheme, edge_ramp=ramp)
            unitaries = evolve.error_maps(sched, errors)
            channels = evolve.error_maps(sched, errors, TestFrameOracle.NOISE)
            for err, u, s in zip(errs, unitaries, channels, strict=True):
                assert np.max(np.abs(u - evolve.propagator(sched, err))) < 1e-14
                single = evolve.gate_channel(sched, TestFrameOracle.NOISE, err)
                assert np.max(np.abs(s - single)) < 1e-14

    @pytest.mark.parametrize("ramp", [0.0, 10e-9])
    def test_error_maps_of_no_errors_are_empty(self, ramp):
        sched = pulses.synthesize(self.SPEC, OMEGA0, "nhqc", edge_ramp=ramp)
        none = evolve.error_table([])
        assert none.shape == (2, 0)
        assert evolve.error_maps(sched, none).shape == (0, 3, 3)
        assert evolve.error_maps(sched, none, TestFrameOracle.NOISE).shape == (0, 9, 9)


#: (dim, levels) of every model the engine propagates: a bare 2-level pair,
#: the qutrit and the five-level composite model
MODELS = [(2, (None, 0, 1)), (3, evolve.QUTRIT_LEVELS), (5, twoqubit.LEVELS)]


def random_frame_generators(rng, n, dim, ie, coupling=1.0, detuning=1.0):
    """n Hermitian generators that are zero outside the |e> row and column."""
    col = coupling * (rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim)))
    col[:, ie] = detuning * rng.normal(size=n)
    gens = np.zeros((n, dim, dim), dtype=complex)
    gens[:, :, ie] = col
    gens[:, ie, :] = col.conj()
    return gens


class TestClosedFormExponential:
    """The closed-form exp(-i G tau) of frame generators against scipy.linalg.expm."""

    @pytest.mark.parametrize("dim, levels", MODELS)
    @pytest.mark.parametrize("case", ["generic", "zero", "detuning_only", "coupling_only", "weak_coupling"])
    def test_matches_scipy_expm(self, rng, dim, levels, case):
        ie = levels[2]
        coupling, detuning = {
            "generic": (1.0, 1.0),
            "zero": (0.0, 0.0),
            "detuning_only": (0.0, 1.0),
            "coupling_only": (1.0, 0.0),
            "weak_coupling": (1e-12, 1.0),
        }[case]
        norms = np.logspace(-9, 3, 25)
        gens = random_frame_generators(rng, len(norms), dim, ie, coupling, detuning)
        scale = np.abs(gens).sum(axis=1).max(axis=1)
        taus = rng.uniform(0.5, 2.0, size=len(norms))
        # G tau has 1-norm norms[k] unless G is zero
        gens *= (norms / taus / np.where(scale > 0.0, scale, 1.0))[:, None, None]
        got = evolve._step_propagators(gens, taus, ie)
        eps = np.finfo(float).eps
        for g, tau, u in zip(gens, taus, got):
            bound = 8.0 * eps * max(1.0, np.abs(g * tau).sum(axis=0).max())
            assert np.max(np.abs(u - expm(-1j * g * tau))) <= bound

    @pytest.mark.parametrize("dim, levels", MODELS)
    def test_frame_generators_act_through_e_alone(self, rng, dim, levels):
        # the closed form's premise, for every drive and control error
        spec = random_gate_spec(rng)
        if levels[0] is None:
            # no |0> leg to drive: the loop runs on the bright leg alone
            spec = pulses.GateSpec(0.0, 0.0, spec.gamma)
        for scheme in pulses.SCHEMES:
            sched = pulses.synthesize(spec, OMEGA0, scheme, edge_ramp=5e-9)
            times = rng.uniform(0.0, sched.duration, size=50)
            table = table_at(sched, times)
            errors = evolve.error_table(rng.uniform(-0.5, 0.5, 7), rng.uniform(-0.5, 0.5, 7))
            gens = evolve._frame_generators(table, errors, sched.omega0, dim, levels)
            rest = np.arange(dim) != levels[2]
            assert np.abs(gens[:, :, levels[1], levels[2]]).max() > 0.0
            assert not np.any(gens[:, :, rest][:, :, :, rest])
            assert np.array_equal(gens, gens.conj().swapaxes(-1, -2))


class TestFrameGenerator:
    """G from the segment parameters against the rotated lab Hamiltonian."""

    @pytest.mark.parametrize("dim, levels", MODELS)
    @pytest.mark.parametrize("edge_ramp", [0.0, 5e-9])
    def test_matches_rotated_lab_hamiltonian(self, rng, dim, levels, edge_ramp):
        # G = D^dag H D - phi1' |e><e| with H = (1 + amp) H_lab + detuning omega0 |e><e|
        ie = levels[2]
        spec = random_gate_spec(rng)
        if levels[0] is None:
            spec = pulses.GateSpec(0.0, 0.0, spec.gamma)
        amps, dets = rng.uniform(-0.3, 0.3, 4), rng.uniform(-0.3, 0.3, 4)
        errors = evolve.error_table(amps, dets)
        for scheme in pulses.SCHEMES:
            sched = pulses.synthesize(spec, OMEGA0, scheme, edge_ramp=edge_ramp)
            times = rng.uniform(0.0, sched.duration, size=40)
            segs = segments_at(sched, times)
            gens = evolve._frame_generators(table_at(sched, times), errors, sched.omega0, dim, levels)
            for k, (t, seg) in enumerate(zip(times, segs)):
                d = np.ones(dim, dtype=complex)
                d[ie] = np.exp(-1j * (seg.phi1_offset + seg.phi1_slope * (t - seg.t_start)))
                for e, (amp, det) in enumerate(zip(amps, dets)):
                    h = (1.0 + amp) * lab_hamiltonian(seg, t, dim, levels)
                    h[ie, ie] += det * OMEGA0
                    expected = d.conj()[:, None] * h * d
                    expected[ie, ie] -= seg.phi1_slope
                    # the reference rounds phases of up to ~5 pi: a few eps of its scale
                    bound = 16.0 * np.finfo(float).eps * np.abs(expected).max()
                    assert np.max(np.abs(gens[e, k] - expected)) <= bound

    @pytest.mark.parametrize("edge_ramp", [0.0, 5e-9])
    def test_driven_unmapped_zero_leg_raises(self, edge_ramp):
        # theta != 0 drives |0>, which the two-level pair model has no level for
        sched = pulses.synthesize(pulses.GateSpec(1.0, 0.0, 2.0), OMEGA0, "tounhqc", edge_ramp=edge_ramp)
        with pytest.raises(ValueError, match="no level is mapped"):
            evolve.propagator(sched, dim=2, levels=(None, 0, 1))


def test_step_propagators_unitary_for_many_random_frame_generators(rng):
    # 1e4 random frame generators with ||G tau||_2 <= pi
    n = 10_000
    h = random_frame_generators(rng, n, 3, 2)
    norms = np.linalg.norm(h, axis=(1, 2))
    h *= (math.pi / np.maximum(norms, 1e-30))[:, None, None]
    u = evolve._step_propagators(h, np.ones(n), 2)
    defect = np.abs(np.einsum("nji,njk->nik", u.conj(), u) - np.eye(3))
    assert defect.max() < 1e-14


def assert_matches_scipy_expm(stack):
    ours = evolve._expm(stack)
    for mat, got in zip(stack, ours):
        ref = expm(mat)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestPadeExpm:
    """The batched Pade exponential against scipy.linalg.expm."""

    NOISE = evolve.NoiseModel.qutrit_relaxation(
        t1_e_to_0=5e-6, t1_1_to_e=3e-6, tphi_e=10e-6, tphi_1=10e-6
    )

    @pytest.mark.parametrize("size", [3, 9, 25])
    def test_random_complex_stacks(self, rng, size):
        a = rng.normal(size=(20, size, size)) + 1j * rng.normal(size=(20, size, size))
        a *= rng.uniform(0.01, 3.0, size=20)[:, None, None] / size
        assert_matches_scipy_expm(a)

    def test_mixed_norms_take_own_scaling(self, rng):
        # 1-norms from 1e-8 to 40: every matrix takes the one approximant,
        # after 0 to 3 squarings of its own
        norms = np.array([1e-8, 1e-2, 0.2, 0.8, 2.0, 5.0, 8.0, 12.0, 40.0])
        a = rng.normal(size=(9, 6, 6)) + 1j * rng.normal(size=(9, 6, 6))
        a *= (norms / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]
        squarings = np.ceil(np.log2(np.maximum(norms / evolve._THETA_13, 1.0)))
        assert set(squarings) == {0, 1, 2, 3}
        assert_matches_scipy_expm(a)
        batch = evolve._expm(a)
        for k in range(len(a)):
            assert np.array_equal(batch[k], evolve._expm(a[k : k + 1])[0])

    def test_zero_matrix_is_identity(self):
        out = evolve._expm(np.zeros((2, 4, 4), dtype=complex))
        assert np.array_equal(out, np.broadcast_to(np.eye(4), (2, 4, 4)))

    def test_small_exponent_rounds_like_its_series(self, rng):
        # the map of a short piece is the identity plus a small correction,
        # which must not pick up roundoff of the identity's size
        a = (rng.normal(size=(4, 9, 9)) + 1j * rng.normal(size=(4, 9, 9))) * 1e-6
        correction, term = np.zeros_like(a), np.broadcast_to(np.eye(9), a.shape)
        for k in range(1, 6):  # the next term is below 1e-35
            term = term @ a / k
            correction += term
        assert np.max(np.abs(evolve._expm(a) - (np.eye(9) + correction))) < 1e-17

    def test_defective_jordan_block(self):
        lam = 2.0
        jordan = lam * np.eye(3) + np.diag([1.0, 1.0], k=1)
        closed = math.exp(lam) * np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(evolve._expm(jordan[None])[0] - closed)) < 1e-13 * closed.max()
        assert_matches_scipy_expm(jordan[None])

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_frame_liouvillians(self, scheme):
        sched = pulses.synthesize(pulses.GateSpec(1.1, 0.4, 2.3), OMEGA0, scheme)
        gens = evolve._frame_generators(sched.table, evolve.error_table(),
                                        OMEGA0, 3, evolve.QUTRIT_LEVELS)[0]
        taus = np.array([seg.t_end - seg.t_start for seg in sched.segments])
        dissipator = evolve._dissipator(self.NOISE.scaled_ops(3))
        assert_matches_scipy_expm(taus[:, None, None] * evolve._liouvillians(gens, dissipator))


class TestNoiseModel:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            evolve.NoiseModel(collapse_ops=((np.eye(3), -1.0),))

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        # NaN would otherwise drop the operator and run noiseless; inf would
        # fill the scaled operators with NaN
        with pytest.raises(ValueError, match=f"finite and non-negative, got {rate}"):
            evolve.NoiseModel(collapse_ops=((np.eye(3), rate),))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_operator_entry_rejected(self, entry):
        # gate_channel would otherwise return NaN
        op = np.zeros((3, 3), dtype=complex)
        op[0, 2] = entry
        with pytest.raises(ValueError, match="non-finite entry"):
            evolve.NoiseModel(collapse_ops=((op, 1.0),))

    def test_relaxation_operators_in_dissipator_order(self):
        # e -> 0 and 1 -> e decay at 1/T1, then |e> and |1> dephase at 2/Tphi
        noise = evolve.NoiseModel.qutrit_relaxation(t1_e_to_0=2.0, t1_1_to_e=4.0, tphi_e=8.0, tphi_1=16.0)
        entries = [tuple(np.argwhere(op)[0]) for op, _ in noise.collapse_ops]
        assert entries == [(0, 2), (2, 1), (2, 2), (1, 1)]
        assert [rate for _, rate in noise.collapse_ops] == [0.5, 0.25, 0.25, 0.125]
        assert all(np.count_nonzero(op) == 1 and op.sum() == 1.0 for op, _ in noise.collapse_ops)
        only = evolve.NoiseModel.qutrit_relaxation(tphi_e=8.0)
        assert [tuple(np.argwhere(op)[0]) for op, _ in only.collapse_ops] == [(2, 2)]

    @pytest.mark.parametrize("time", [0.0, -0.0, -1e-6, math.nan])
    @pytest.mark.parametrize("name", ["t1_e_to_0", "t1_1_to_e", "tphi_e", "tphi_1"])
    def test_relaxation_time_must_be_positive(self, name, time):
        # 0 would divide by zero, and NaN would pass a "time <= 0" check
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            evolve.NoiseModel.qutrit_relaxation(**{name: time})

    def test_infinite_relaxation_time_turns_its_channel_off(self):
        noise = evolve.NoiseModel.qutrit_relaxation(t1_e_to_0=math.inf, tphi_1=8.0)
        assert [rate for _, rate in noise.collapse_ops] == [0.0, 0.25]
        assert noise.scaled_ops(3).shape == (1, 3, 3)
        assert evolve.NoiseModel.qutrit_relaxation(tphi_e=math.inf).is_empty

    def test_empty_means_unitary(self):
        assert evolve.NoiseModel().is_empty
        assert not evolve.NoiseModel.qutrit_relaxation(t1_e_to_0=1e-6).is_empty

    def test_scaled_ops_shape_check(self):
        noise = evolve.NoiseModel(collapse_ops=((np.eye(2), 1.0),))
        with pytest.raises(ValueError, match="match dim"):
            noise.scaled_ops(3)


class TestGateChannels:
    """One engine call for many schedules gives each schedule its own channel."""

    @staticmethod
    def schedules(rng, edge_ramp=0.0):
        # rotation angles whose loops last at least 100 ns in either scheme
        specs = [
            pulses.GateSpec(rng.uniform(0.0, PI), rng.uniform(0.0, 2 * PI), rng.uniform(1.6, 2 * PI - 1.6))
            for _ in range(6)
        ]
        return [
            pulses.synthesize(spec, OMEGA0, scheme, edge_ramp=edge_ramp)
            for spec in specs
            for scheme in ("tounhqc", "nhqc")
        ]

    @pytest.mark.parametrize("case", ["noiseless", "default_noise", "edge_ramp", "nhqc_only", "duplicates",
                                      "mixed_ramps"])
    def test_bitwise_equal_to_single_schedule_calls(self, rng, case):
        default = default_noise_model()
        noise, ramp = {
            "noiseless": (evolve.NO_NOISE, 0.0),
            "default_noise": (default, 0.0),
            "edge_ramp": (default, 10e-9),
            "nhqc_only": (default, 0.0),
            "duplicates": (default, 0.0),
            "mixed_ramps": (default, 0.0),
        }[case]
        scheds = self.schedules(rng, ramp)
        if case == "nhqc_only":
            scheds = scheds[1::2]
        elif case == "duplicates":
            # repeats share their pieces' exponentials with the first copy
            scheds = [scheds[i] for i in (0, 3, 0, 5, 3, 3, 8, 1, 8, 0)]
        elif case == "mixed_ramps":
            # schedules of 1 to 76 pieces, interleaved: each piece chains onto its own predecessor
            scheds += [sched for ramp in (3e-9, 10e-9, 37e-9) for sched in self.schedules(rng, ramp)]
            rng.shuffle(scheds)
            assert {s.table.shape[1] for s in scheds} == {1, 2, 7, 8, 21, 22, 75, 76}
        err = evolve.ErrorInjection(amp_fraction=0.02, detuning_fraction=-0.01)
        together = evolve.gate_channels(scheds, noise, err)
        assert together.shape == (len(scheds), 9, 9)
        for got, sched in zip(together, scheds):
            assert np.array_equal(got, evolve.gate_channel(sched, noise, err))
            if noise.is_empty:
                # the Kronecker product of the propagator, as a single gate builds it
                u = evolve.propagator(sched, err)
                assert np.array_equal(got, np.kron(u, u.conj()))

    @pytest.mark.parametrize("noise", [evolve.NO_NOISE, default_noise_model()], ids=["noiseless", "noisy"])
    def test_empty_batch_is_an_empty_stack(self, noise):
        assert evolve.gate_channels([], noise).shape == (0, 9, 9)
        # the same kind of noise on a bare pair of levels
        pair = noise if noise.is_empty else evolve.NoiseModel(collapse_ops=((np.diag([0.0, 1.0]), 1e5),))
        assert evolve.gate_channels([], pair, dim=2, levels=(None, 0, 1)).shape == (0, 4, 4)

    @staticmethod
    def recorded_expm(monkeypatch):
        """The stacks _expm receives from here on."""
        stacks = []
        pade = evolve._expm
        monkeypatch.setattr(evolve, "_expm", lambda a: stacks.append(a.copy()) or pade(a))
        return stacks

    @staticmethod
    def distinct_pairs(scheds):
        """The number of bitwise-distinct (frame generator, duration) pairs among the pieces.

        Counted from each segment's column and ends, apart from the engine's keys.
        """
        pairs = set()
        for sched in scheds:
            for k, seg in enumerate(sched.segments):
                gen = evolve._frame_generators(sched.table[:, k : k + 1], evolve.error_table(),
                                               sched.omega0, 3, evolve.QUTRIT_LEVELS)
                pairs.add((gen.tobytes(), (seg.t_end - seg.t_start).hex()))
        return len(pairs)

    def test_one_exponential_per_distinct_generator_and_duration(self, monkeypatch):
        # the gates of the noisy interleaved nhqc RB workload: both halves of an nhqc loop are
        # one (generator, tau/2) pair, and gates that differ only in phi at theta = 0 share one
        config = pr.RBConfig(sequence_lengths=(2, 4, 8, 16), sequences_per_length=10, seed=0, scheme="nhqc",
                             interleaved_target=pulses.GateSpec(0.0, 0.0, 0.7854), noise=default_noise_model())
        gates, _, _ = pr._draw_sequences(config)
        scheds = [pulses.synthesize(spec, OMEGA0, "nhqc") for spec in dict.fromkeys(gates) if spec is not None]
        stacks = self.recorded_expm(monkeypatch)
        channels = evolve.gate_channels(scheds, config.noise)
        assert len(stacks) == 1
        pieces = sum(len(sched.segments) for sched in scheds)
        assert pieces == 2 * len(scheds) == 128
        assert len(stacks[0]) == self.distinct_pairs(scheds) == 59
        assert len({mat.tobytes() for mat in stacks[0]}) == len(stacks[0])
        monkeypatch.undo()
        for got, sched in zip(channels, scheds):
            assert np.array_equal(got, evolve.gate_channel(sched, config.noise))

    def test_mixed_batch_with_repeats_exponentiates_each_pair_once(self, rng, monkeypatch):
        noise = default_noise_model()
        # loops of at least 100 ns, as the other tests of the class take
        specs = [pulses.GateSpec(rng.uniform(0.0, PI), rng.uniform(0.0, 2 * PI), rng.uniform(1.6, 2 * PI - 1.6))
                 for _ in range(3)]
        kinds = [(scheme, ramp) for scheme in ("tounhqc", "nhqc") for ramp in (0.0, 10e-9)]
        once = [pulses.synthesize(spec, OMEGA0, scheme, edge_ramp=ramp)
                for spec in specs for scheme, ramp in kinds]
        batch = once + once[::3] + once[5:8]
        stacks = self.recorded_expm(monkeypatch)
        channels = evolve.gate_channels(batch, noise)
        # the ramp samples are pieces like any other, in the one batched call
        assert len(stacks) == 1
        assert len(stacks[0]) == self.distinct_pairs(once)
        monkeypatch.undo()
        for got, sched in zip(channels, batch):
            assert np.array_equal(got, evolve.gate_channel(sched, noise))

    def test_any_bad_schedule_raises_as_gate_channel(self, rng):
        # on a bare pair of levels only loops with theta = 0 leave the unmapped |0> leg undriven
        pair = dict(dim=2, levels=(None, 0, 1))
        scheds = [pulses.synthesize(pulses.GateSpec(0.0, 0.0, rng.uniform(1.6, 2 * PI - 1.6)), OMEGA0, scheme,
                                    edge_ramp=ramp)
                  for scheme in pulses.SCHEMES for ramp in (0.0, 10e-9)]
        assert evolve.gate_channels(scheds, **pair).shape == (4, 4, 4)
        bad = pulses.synthesize(pulses.GateSpec(0.3, 0.2, 2.0), OMEGA0, "nhqc", edge_ramp=10e-9)
        with pytest.raises(ValueError, match="no level is mapped") as single:
            evolve.gate_channel(bad, **pair)
        with pytest.raises(ValueError) as batched:
            evolve.gate_channels([*scheds[:2], bad, *scheds[2:]], **pair)
        assert str(batched.value) == str(single.value)

    def test_ramp_free_schedule_takes_no_step(self):
        # a channel takes no step, with or without a ramp, under fast decay too;
        # a trajectory of a short loop at a step longer than the loop takes one
        # step and ends where its propagator does
        short = pulses.synthesize(pulses.GateSpec(0.3, 0.2, 0.6), OMEGA0, "tounhqc")
        fast = evolve.NoiseModel.qutrit_relaxation(t1_e_to_0=2e-8)
        for ramp in (0.0, 10e-9):
            sched = pulses.synthesize(pulses.GateSpec(0.3, 0.2, 0.6), OMEGA0, "tounhqc", edge_ramp=ramp)
            for noise in (evolve.NO_NOISE, fast):
                assert np.all(np.isfinite(evolve.gate_channel(sched, noise)))
        psi0 = np.eye(3)[0]
        traj = evolve.evolve_pure(psi0, short, config=evolve.IntegratorConfig(dt=2 * short.duration))
        assert np.array_equal(traj.times, [0.0, short.duration])
        assert np.array_equal(traj.states[-1], evolve.propagator(short) @ psi0)


class TestTrajectorySteps:
    """The one step rule: the number of equal steps a trajectory takes."""

    SCHED = pulses.synthesize(pulses.GateSpec(1.1, 0.4, 2.3), OMEGA0, "tounhqc")
    RAMPED = pulses.synthesize(pulses.GateSpec(1.1, 0.4, 2.3), OMEGA0, "tounhqc", edge_ramp=10e-9)

    def test_default_steps(self):
        for sched in (self.SCHED, self.RAMPED):
            assert evolve.trajectory_steps(sched) == evolve.DEFAULT_STEPS
            times = evolve.evolve_pure(basis_state(3, 0), sched).times
            assert np.array_equal(times, np.linspace(0.0, sched.duration, evolve.DEFAULT_STEPS + 1))

    @pytest.mark.parametrize("ramped", [False, True])
    def test_steps_round_up(self, ramped):
        sched = self.RAMPED if ramped else self.SCHED
        for ratio in (0.3, 1.5, 20.000001, 99.9, 777.25, 4999.5):
            config = evolve.IntegratorConfig(dt=sched.duration / ratio)
            assert evolve.trajectory_steps(sched, config) == math.ceil(ratio)
        rho0 = density(basis_state(3, 0))
        traj = evolve.evolve_density(rho0, sched, config=evolve.IntegratorConfig(dt=sched.duration / 7.5))
        assert np.array_equal(traj.times, np.linspace(0.0, sched.duration, 9))

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_dt_of_duration_over_n_gives_n_steps(self, scheme):
        # duration / (duration / N) may round above N, by far less than the
        # 1e-12 tolerance
        sched = pulses.synthesize(pulses.GateSpec(1.1, 0.4, 2.3), OMEGA0, scheme)
        for steps in range(1, evolve.MAX_STEPS + 1):
            assert evolve.trajectory_steps(sched, evolve.IntegratorConfig(dt=sched.duration / steps)) == steps
        for steps in (1, 3, 4999, evolve.MAX_STEPS):
            config = evolve.IntegratorConfig(dt=sched.duration / steps)
            times = evolve.evolve_pure(basis_state(3, 0), sched, config=config).times
            assert np.array_equal(times, np.linspace(0.0, sched.duration, steps + 1))

    @pytest.mark.parametrize("ramped", [False, True])
    def test_fine_limit(self, ramped):
        sched = self.RAMPED if ramped else self.SCHED
        fine = sched.duration / evolve.MAX_STEPS
        assert evolve.trajectory_steps(sched, evolve.IntegratorConfig(dt=fine)) == evolve.MAX_STEPS
        # 5e-324 s, the smallest float, makes duration / dt overflow to inf
        for dt in (fine * 0.99, 5e-324):
            with pytest.raises(ValueError, match=f"too fine: need dt >= duration/{evolve.MAX_STEPS}"):
                evolve.trajectory_steps(sched, evolve.IntegratorConfig(dt=dt))

    def test_no_step_is_too_coarse(self):
        for dt in (self.SCHED.duration, 1e3 * self.SCHED.duration, 1e300):
            assert evolve.trajectory_steps(self.SCHED, evolve.IntegratorConfig(dt=dt)) == 1

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-9])
    def test_step_must_be_positive_and_finite(self, dt):
        # a NaN step fails every comparison, "dt <= 0" included
        with pytest.raises(ValueError, match=re.escape(f"dt must be positive and finite, got {dt}")):
            evolve.IntegratorConfig(dt=dt)

    def test_engine_applies_the_rule(self):
        too_fine = evolve.IntegratorConfig(dt=self.SCHED.duration / (2 * evolve.MAX_STEPS))
        psi0 = basis_state(3, 0)
        for sched in (self.SCHED, self.RAMPED):
            with pytest.raises(ValueError, match="too fine"):
                evolve.evolve_pure(psi0, sched, config=too_fine)
            assert np.array_equal(evolve.propagator(sched, config=too_fine), evolve.propagator(sched))
