import math

import numpy as np
import pytest

from holosim import evolve, pulses

from conftest import OMEGA0, random_gate_spec, segments_at

PI = math.pi


class TestGateSpec:
    def test_rejects_zero_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            pulses.GateSpec(theta=0.0, phi=0.0, gamma=0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pulses.GateSpec(theta=-0.1, phi=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            pulses.GateSpec(theta=0.1, phi=7.0, gamma=1.0)
        with pytest.raises(ValueError):
            pulses.GateSpec(theta=0.1, phi=0.0, gamma=2.0 * PI)


class TestBrightDarkBasis:
    def test_degenerate_mixing_angle(self):
        bright, dark = pulses.bright_dark_basis(0.0, 0.0)
        assert np.allclose(bright, [0, 1, 0])
        assert np.allclose(dark, [1, 0, 0])

    def test_equal_mixing(self):
        bright, dark = pulses.bright_dark_basis(0.5 * PI, 0.0)
        assert np.allclose(bright, np.array([1, 1, 0]) / math.sqrt(2))
        assert np.allclose(dark, np.array([1, -1, 0]) / math.sqrt(2))

    def test_orthonormal_for_random_angles(self, rng):
        for _ in range(100):
            theta = rng.uniform(0, PI)
            phi = rng.uniform(0, 2 * PI)
            b, d = pulses.bright_dark_basis(theta, phi)
            assert abs(np.vdot(b, d)) < 1e-12
            assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
            assert b[2] == 0.0 and d[2] == 0.0


class TestTimeOptimalSynthesis:
    def test_reference_drive_duration(self, sqrt_x_spec):
        # gamma = pi/2 at 8.660 MHz drive: 100 ns loop
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        assert sched.duration * 1e9 == pytest.approx(100.0, abs=0.05)

    def test_gamma_pi_matches_conventional_duration(self):
        spec = pulses.GateSpec(0.3, 0.0, PI)
        sched = pulses.synthesize_tounhqc(spec, OMEGA0)
        assert sched.duration == pytest.approx(2 * PI / OMEGA0, rel=1e-12)

    def test_gamma_quarter_pi_closed_form(self):
        spec = pulses.GateSpec(0.0, 0.0, PI / 4)
        sched = pulses.synthesize_tounhqc(spec, OMEGA0)
        assert sched.duration == pytest.approx(math.sqrt(7) * PI / (2 * OMEGA0), rel=1e-12)

    def test_single_constant_segment(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        assert len(sched.segments) == 1
        seg = sched.segments[0]
        assert seg.omega == OMEGA0
        assert abs(seg.phi1_slope) == pytest.approx(
            2 * (PI - sqrt_x_spec.gamma) / sched.duration, rel=1e-12
        )

    def test_degenerate_gamma_rejected(self):
        spec = pulses.GateSpec(0.0, 0.0, 1e-12 + 1e-13)
        with pytest.raises(ValueError, match="degenerate"):
            pulses.synthesize_tounhqc(spec, OMEGA0)

    def test_requires_positive_omega(self, sqrt_x_spec):
        with pytest.raises(ValueError, match="omega0"):
            pulses.synthesize_tounhqc(sqrt_x_spec, 0.0)


class TestConventionalSynthesis:
    def test_reference_drive_duration(self, sqrt_x_spec):
        sched = pulses.synthesize_nhqc(sqrt_x_spec, OMEGA0)
        assert sched.duration * 1e9 == pytest.approx(115.47, abs=0.05)

    def test_two_pi_area_segments_with_jump(self):
        gamma = PI / 4
        spec = pulses.GateSpec(0.2, 0.1, gamma)
        sched = pulses.synthesize_nhqc(spec, OMEGA0)
        assert len(sched.segments) == 2
        first, second = sched.segments
        for seg in (first, second):
            assert seg.phi1_slope == 0.0
            # pulse area per segment is pi
            assert seg.omega * (seg.t_end - seg.t_start) == pytest.approx(PI, rel=1e-12)
        assert second.phi1_offset - first.phi1_offset == pytest.approx(gamma - PI, rel=1e-12)

    def test_duration_independent_of_gamma(self):
        for gamma in (0.3, 1.0, 2.5, 5.0):
            sched = pulses.synthesize_nhqc(pulses.GateSpec(0.0, 0.0, gamma), OMEGA0)
            assert sched.duration == pytest.approx(2 * PI / OMEGA0, rel=1e-12)


class TestDurationOrdering:
    def test_time_optimal_never_slower(self):
        gammas = np.linspace(0.01, PI, 100)
        tau_n = pulses.nhqc_duration(OMEGA0)
        for gamma in gammas:
            tau_t = pulses.tounhqc_duration(gamma, OMEGA0)
            assert tau_t <= tau_n * (1 + 1e-12)
            if gamma < PI - 1e-9:
                assert tau_t < tau_n

    def test_equality_only_at_pi(self):
        assert pulses.tounhqc_duration(PI, OMEGA0) == pytest.approx(
            pulses.nhqc_duration(OMEGA0), rel=1e-12
        )


def sample(sched, n):
    """Segment columns and error-free frame generators on n + 1 uniform times over the schedule.

    Exact segment boundaries take the later segment.
    """
    times = np.linspace(0.0, sched.duration, n + 1)
    table = pulses.segment_table(segments_at(sched, times))
    gens = evolve._frame_generators(table, evolve.error_table(), sched.omega0, 3, evolve.QUTRIT_LEVELS)[0]
    return times, table, gens


def legs(gens):
    """The drive amplitudes omega_0e and omega_1e of frame generators."""
    return 2.0 * np.abs(gens[:, 0, 2]), 2.0 * np.abs(gens[:, 1, 2])


class TestSampling:
    def test_constant_segment_constant_samples(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        times, _, gens = sample(sched, 50)
        assert np.all(gens == gens[0])
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(sched.duration, rel=1e-15)

    def test_sqrt_x_amplitudes_match_hardware_value(self, sqrt_x_spec):
        # theta = pi/2 splits 8.660 MHz into 6.124 MHz on both legs
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        om0e, om1e = legs(sample(sched, 10)[2])
        mhz = om0e / (2 * PI * 1e6)
        assert np.allclose(mhz, 6.124, atol=5e-4)
        assert np.allclose(om0e, om1e, atol=1e-6)

    def test_conventional_phase_jump_at_midpoint(self):
        # the midpoint node takes the later segment's values
        gamma = PI / 4
        sched = pulses.synthesize_nhqc(pulses.GateSpec(0.0, 0.0, gamma), OMEGA0)
        times, table, _ = sample(sched, 10)
        phi1 = pulses.segment_phase(table, times)
        mid = len(times) // 2
        assert phi1[mid] - phi1[mid - 1] == pytest.approx(gamma - PI, rel=1e-12)
        assert phi1[mid] == phi1[-1]

    def test_amplitude_pythagoras_pointwise(self, rng):
        # omega_0e^2 + omega_1e^2 = omega^2 including the samples of ramped envelopes
        spec = random_gate_spec(rng)
        sched = pulses.synthesize_tounhqc(spec, OMEGA0, edge_ramp=5e-9)
        _, table, gens = sample(sched, 500)
        om0e, om1e = legs(gens)
        assert np.any(table[1] < OMEGA0)
        assert np.allclose(om0e**2 + om1e**2, table[1] ** 2, rtol=1e-12, atol=1e-12)

    def test_phase_difference_fixed_between_legs(self, rng):
        # the legs' relative phase phi_0 - phi_1 is constant: the dark state stays decoupled
        spec = random_gate_spec(rng)
        sched = pulses.synthesize_tounhqc(spec, OMEGA0)
        _, _, gens = sample(sched, 200)
        assert np.ptp(np.angle(gens[:, 0, 2] * gens[:, 1, 2].conj())) < 1e-12


def envelope(sched):
    """Each segment's drive amplitude over omega0: the env it was sampled at."""
    return np.array([seg.omega for seg in sched.segments]) / sched.omega0


class TestEnvelope:
    """Edge ramps sampled into segments, on the reparametrized time s(t)."""

    def test_sin_squared_ramps_and_flat_top(self):
        spec = pulses.GateSpec(1.0, 0.0, 2.0)
        sched = pulses.synthesize_tounhqc(spec, OMEGA0, edge_ramp=10e-9)
        r = sched.edge_ramp
        assert sched.duration == pulses.tounhqc_duration(spec.gamma, OMEGA0) + r
        env = envelope(sched)
        # ten 1 ns samples rise and ten fall, around one flat top at omega0
        assert len(env) == 21 and env[10] == 1.0
        starts = np.array([seg.t_start for seg in sched.segments])
        assert np.allclose(np.diff(starts[:11]), 1e-9, rtol=1e-12, atol=0.0)
        # each sample holds the mean of sin^2(pi t / 2r) over it, by 16-point Gauss-Legendre
        x, w = np.polynomial.legendre.leggauss(16)
        for k in range(10):
            t = (k + 0.5 + 0.5 * x) * 1e-9
            mean = 0.5 * np.sum(w * np.sin(0.5 * PI * t / r) ** 2)
            assert env[k] == pytest.approx(mean, rel=1e-14)
            assert env[20 - k] == pytest.approx(mean, rel=1e-14)
        assert np.all(np.diff(env[:11]) > 0.0) and np.all(np.diff(env[10:]) < 0.0)

    def test_ramp_free_envelope_is_one(self, sqrt_x_spec):
        for scheme in pulses.SCHEMES:
            sched = pulses.synthesize(sqrt_x_spec, OMEGA0, scheme)
            assert sched.edge_ramp == 0.0
            assert np.array_equal(envelope(sched), np.ones(len(sched.segments)))
            assert sched == pulses.synthesize(sqrt_x_spec, OMEGA0, scheme, edge_ramp=0.0)

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_sample_areas_sum_to_the_ramp_free_area(self, rng, scheme):
        # the env-weighted durations add up to the ramp-free loop, so it closes
        for _ in range(10):
            spec = random_gate_spec(rng, gamma_margin=0.3)
            free = pulses.synthesize(spec, OMEGA0, scheme)
            for ramp in (10e-9, 2.5e-9, rng.uniform(0.0, free.duration)):
                sched = pulses.synthesize(spec, OMEGA0, scheme, edge_ramp=ramp)
                area = sum(seg.omega * (seg.t_end - seg.t_start) for seg in sched.segments) / OMEGA0
                assert area == pytest.approx(free.duration, rel=1e-15)
                # ceil(ramp / 1 ns) equal samples per ramp
                widths = [seg.t_end - seg.t_start for seg in sched.segments if seg.omega < OMEGA0]
                assert len(widths) == 2 * math.ceil(ramp / pulses.RAMP_SAMPLE_PERIOD)
                assert np.allclose(widths, widths[0], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_phase_is_continuous_across_samples(self, rng, scheme):
        # phi1 at each segment's end is the next one's offset; only nhqc's
        # jump of gamma - pi breaks it, at s = tau / 2, the middle of the stretched loop
        for _ in range(10):
            spec = random_gate_spec(rng, gamma_margin=0.3)
            free = pulses.synthesize(spec, OMEGA0, scheme)
            sched = pulses.synthesize(spec, OMEGA0, scheme, edge_ramp=rng.uniform(1e-9, free.duration))
            segs = sched.segments
            table = pulses.segment_table(segs)
            ends = pulses.segment_phase(table, np.array([seg.t_end for seg in segs]))
            jumps = table[2][1:] - ends[:-1]
            if scheme == "nhqc":
                mid = [seg.phi1_offset != 0.0 for seg in segs].index(True) - 1  # the last before it
                assert segs[mid].t_end == pytest.approx(0.5 * sched.duration, rel=1e-15)
                assert jumps[mid] == pytest.approx(spec.gamma - PI, rel=1e-14)
                jumps = np.delete(jumps, mid)
            assert np.max(np.abs(jumps)) <= 1e-14
            # the loop's end phase is the ramp-free one
            free_end = pulses.segment_phase(pulses.segment_table(free.segments[-1:]), np.array([free.duration]))
            assert ends[-1] == pytest.approx(free_end[0], rel=1e-14, abs=1e-15)


class TestPieces:
    """The schedule as the engine cuts it (``evolve._pieces``): (segment, start, end)."""

    def test_pieces_meet_at_the_segment_boundary(self):
        sched = pulses.synthesize_nhqc(pulses.GateSpec(0.0, 0.0, 1.0), OMEGA0)
        (seg0, _, end), (seg1, start, _) = evolve._pieces(sched)
        assert (seg0, seg1) == sched.segments
        assert end == start == sched.segments[0].t_end

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_ramp_corners_are_piece_ends(self, sqrt_x_spec, scheme):
        # every ramp sample is a piece
        sched = pulses.synthesize(sqrt_x_spec, OMEGA0, scheme, edge_ramp=13e-9)
        pieces = evolve._pieces(sched)
        assert [seg for seg, _, _ in pieces] == list(sched.segments)
        ends = [end for _, _, end in pieces]
        for corner in (sched.edge_ramp, sched.duration - sched.edge_ramp):
            assert corner in ends

    def test_meeting_ramps_share_one_corner(self, sqrt_x_spec):
        # ramp = the ramp-free duration, so 2 * ramp is the stretched one: both
        # corners and the nhqc boundary coincide, and no flat top is left
        sched = pulses.synthesize_nhqc(sqrt_x_spec, OMEGA0)
        ramped = pulses.synthesize_nhqc(sqrt_x_spec, OMEGA0, edge_ramp=sched.duration)
        assert ramped.duration == 2 * sched.duration
        samples = math.ceil(sched.duration / pulses.RAMP_SAMPLE_PERIOD)
        pieces = evolve._pieces(ramped)
        assert len(pieces) == 2 * samples
        (first, _, end), (second, start, _) = pieces[samples - 1 : samples + 1]
        assert end == start == sched.duration
        assert first.phi1_offset == 0.0 and second.phi1_offset == sched.segments[1].phi1_offset

    @pytest.mark.parametrize("edge_ramp", [0.0, 13e-9])
    def test_pieces_chain_from_zero_to_the_duration(self, sqrt_x_spec, edge_ramp):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0, edge_ramp=edge_ramp)
        pieces = evolve._pieces(sched)
        assert pieces[0][1] == 0.0 and pieces[-1][2] == sched.duration
        for (_, _, end), (_, start, _) in zip(pieces, pieces[1:]):
            assert start == end
        assert all(start < end for _, start, end in pieces)


class TestScheduleValidation:
    def test_gap_between_segments_rejected(self):
        seg1 = pulses.Segment(0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        seg2 = pulses.Segment(1.5, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="contiguous"):
            pulses.PulseSchedule(duration=2.0, segments=(seg1, seg2), omega0=1.0)

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_non_finite_duration_rejected(self, duration):
        seg = pulses.Segment(0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="positive and finite"):
            pulses.PulseSchedule(duration=duration, segments=(seg,), omega0=1.0)

    def test_coverage_enforced(self):
        seg = pulses.Segment(0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="cover"):
            pulses.PulseSchedule(duration=2.0, segments=(seg,), omega0=1.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pulses.Segment(0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0)
