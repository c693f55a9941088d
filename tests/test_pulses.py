import math

import numpy as np
import pytest

from holosim import evolve, pulses

from conftest import OMEGA0, random_gate_spec, table_at

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
    table = table_at(sched, times)
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
            same = pulses.synthesize(sqrt_x_spec, OMEGA0, scheme, edge_ramp=0.0)
            assert (same.duration, same.edge_ramp) == (sched.duration, 0.0)
            assert np.array_equal(same.table, sched.table)

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
            segs, table = sched.segments, sched.table
            ends = pulses.segment_phase(table, np.array([seg.t_end for seg in segs]))
            jumps = table[2][1:] - ends[:-1]
            if scheme == "nhqc":
                mid = [seg.phi1_offset != 0.0 for seg in segs].index(True) - 1  # the last before it
                assert segs[mid].t_end == pytest.approx(0.5 * sched.duration, rel=1e-15)
                assert jumps[mid] == pytest.approx(spec.gamma - PI, rel=1e-14)
                jumps = np.delete(jumps, mid)
            assert np.max(np.abs(jumps)) <= 1e-14
            # the loop's end phase is the ramp-free one
            free_end = pulses.segment_phase(free.table[:, -1:], np.array([free.duration]))
            assert ends[-1] == pytest.approx(free_end[0], rel=1e-14, abs=1e-15)


def per_sample_ramps(schedule, ramp):
    """The edge-ramped segments as they were built one sample at a time, before the table.

    The samples' times t, ramp-free times s and envelopes are computed as
    in ``pulses._with_edge_ramps``; each sample then finds its ramp-free
    segment by a scan for the first that ends after its midpoint in s.
    Returns the segments' fields as an (n, 7) array.
    """
    tau, total = schedule.duration, schedule.duration + ramp
    edge = np.linspace(0.0, ramp, max(1, math.ceil(ramp / pulses.RAMP_SAMPLE_PERIOD * (1.0 - 1e-12))) + 1)
    area = 0.5 * edge - ramp / (2.0 * PI) * np.sin(PI * edge / ramp)
    inner = [seg.t_end for seg in schedule.segments[:-1] if 0.5 * ramp < seg.t_end < tau - 0.5 * ramp]
    t = np.concatenate([edge, np.add(inner, 0.5 * ramp), total - edge[::-1]])
    s = np.concatenate([area, inner, tau - area[::-1]])
    keep = np.append(True, np.diff(t) > 0.0)
    t, s = t[keep], s[keep]
    flat = (t[:-1] >= ramp) & (t[1:] <= total - ramp)
    env = np.where(flat, 1.0, np.diff(s) / np.diff(t))
    rows = []
    for a, b, s_a, s_b, k in zip(t, t[1:], s, s[1:], env):
        seg = next(x for x in schedule.segments if 0.5 * (s_a + s_b) < x.t_end)
        rows.append((a, b, seg.omega * k, seg.phi1_offset + seg.phi1_slope * (s_a - seg.t_start),
                     seg.phi1_slope * k, seg.theta_mix, seg.phi0_offset))
    return np.array(rows)


class TestTable:
    """A schedule is one read-only (6, n) parameter array; ``segments`` is its column view."""

    SPEC = pulses.GateSpec(1.1, 0.4, 2.3)
    #: the fields of each plain schedule's segments at SPEC and OMEGA0, pinned from the
    #: tuple-of-segments schedules that the table replaced
    PLAIN = {
        "tounhqc": [("0x0.0p+0", "0x1.ddd3e06028587p-24", "0x1.9f2230614d6bep+25", "0x0.0p+0",
                     "-0x1.cdb61d99e0199p+23", "0x1.199999999999ap+0", "0x1.c552e8777604bp+1")],
        "nhqc": [("0x0.0p+0", "0x1.eff464258fe6fp-25", "0x1.9f2230614d6bep+25", "0x0.0p+0",
                  "0x0.0p+0", "0x1.199999999999ap+0", "0x1.c552e8777604bp+1"),
                 ("0x1.eff464258fe6fp-25", "0x1.eff464258fe6fp-24", "0x1.9f2230614d6bep+25",
                  "-0x1.aee53b7771ac8p-1", "0x0.0p+0", "0x1.199999999999ap+0", "0x1.c552e8777604bp+1")],
    }

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    @pytest.mark.parametrize("edge_ramp", [0.0, 10e-9, "tau"])
    def test_table_is_read_only_float_6_by_n(self, scheme, edge_ramp):
        free = pulses.synthesize(self.SPEC, OMEGA0, scheme)
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme, free.duration if edge_ramp == "tau" else edge_ramp)
        table = sched.table
        assert table.dtype == np.float64 and table.shape == (6, len(sched.segments))
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[1, 0] = 0.0

    def test_table_is_the_schedules_own_copy(self):
        table = np.array([[0.0, 1.0], [1.0, 2.0], [0.0] * 2, [0.0] * 2, [0.0] * 2, [0.0] * 2])
        sched = pulses.PulseSchedule(2.0, table, 1.0)
        table[1, 0] = 5.0
        assert sched.table[1, 0] == 1.0 and table.flags.writeable

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_plain_segments_are_pinned_bitwise(self, scheme):
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme)
        assert [tuple(float(x).hex() for x in seg) for seg in sched.segments] == self.PLAIN[scheme]
        assert sched.segments[-1].t_end == sched.duration

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    @pytest.mark.parametrize("edge_ramp", [10e-9, "tau"])
    def test_ramped_segments_equal_the_per_sample_build_bitwise(self, scheme, edge_ramp):
        # np.sin's last bit may depend on the CPU's vector path, so the ramps
        # are checked against the sample-by-sample build, not pinned digits
        free = pulses.synthesize(self.SPEC, OMEGA0, scheme)
        ramp = free.duration if edge_ramp == "tau" else edge_ramp
        sched = pulses.synthesize(self.SPEC, OMEGA0, scheme, ramp)
        got = np.array(sched.segments)
        assert got.tobytes() == per_sample_ramps(free, ramp).tobytes()

    def test_segments_meet_at_the_phase_jump(self):
        sched = pulses.synthesize_nhqc(pulses.GateSpec(0.0, 0.0, 1.0), OMEGA0)
        first, second = sched.segments
        assert first.t_end == second.t_start == 0.5 * sched.duration
        assert np.array_equal(sched.ends, [0.5 * sched.duration, sched.duration])

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_ramp_corners_are_segment_ends(self, sqrt_x_spec, scheme):
        # every ramp sample is a segment
        sched = pulses.synthesize(sqrt_x_spec, OMEGA0, scheme, edge_ramp=13e-9)
        for corner in (sched.edge_ramp, sched.duration - sched.edge_ramp):
            assert corner in sched.ends

    def test_meeting_ramps_share_one_corner(self, sqrt_x_spec):
        # ramp = the ramp-free duration, so 2 * ramp is the stretched one: both
        # corners and the nhqc boundary coincide, and no flat top is left
        sched = pulses.synthesize_nhqc(sqrt_x_spec, OMEGA0)
        ramped = pulses.synthesize_nhqc(sqrt_x_spec, OMEGA0, edge_ramp=sched.duration)
        assert ramped.duration == 2 * sched.duration
        samples = math.ceil(sched.duration / pulses.RAMP_SAMPLE_PERIOD)
        segs = ramped.segments
        assert len(segs) == 2 * samples
        first, second = segs[samples - 1 : samples + 1]
        assert first.t_end == second.t_start == sched.duration
        assert first.phi1_offset == 0.0 and second.phi1_offset == sched.segments[1].phi1_offset

    @pytest.mark.parametrize("edge_ramp", [0.0, 13e-9])
    def test_segments_chain_from_zero_to_the_duration(self, sqrt_x_spec, edge_ramp):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0, edge_ramp=edge_ramp)
        segs = sched.segments
        assert segs[0].t_start == 0.0 and segs[-1].t_end == sched.duration
        for a, b in zip(segs, segs[1:]):
            assert b.t_start == a.t_end
        assert all(seg.t_start < seg.t_end for seg in segs)


def plain_table(starts=(0.0, 1.0), omega=1.0):
    """A drive table with the given starts, amplitude ``omega`` and zero phases."""
    n = len(starts)
    return np.array([starts, np.broadcast_to(omega, n), *np.zeros((4, n))])


class TestScheduleValidation:
    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="positive and finite"):
            pulses.PulseSchedule(duration, plain_table(), 1.0)

    @pytest.mark.parametrize("table", [np.zeros((6, 0)), np.zeros((5, 2)), np.zeros(6), np.zeros((1, 6, 1))],
                             ids=["empty", "five-rows", "one-dim", "three-dim"])
    def test_empty_or_wrong_shape_table_rejected(self, table):
        with pytest.raises(ValueError, match=r"shape \(6, n\)"):
            pulses.PulseSchedule(2.0, table, 1.0)

    def test_first_start_must_be_zero(self):
        with pytest.raises(ValueError, match="t = 0"):
            pulses.PulseSchedule(2.0, plain_table((0.5, 1.0)), 1.0)

    @pytest.mark.parametrize("starts", [(0.0, 1.0, 1.0), (0.0, 1.5, 1.0), (0.0, math.nan), (0.0, 2.0), (0.0, 3.0)],
                             ids=["repeated", "decreasing", "nan", "at-the-duration", "past-the-duration"])
    def test_starts_must_increase_below_the_duration(self, starts):
        with pytest.raises(ValueError, match="increase strictly"):
            pulses.PulseSchedule(2.0, plain_table(starts), 1.0)

    @pytest.mark.parametrize("omega", [-1.0, math.nan])
    def test_negative_or_nan_amplitude_rejected(self, omega):
        with pytest.raises(ValueError, match="non-negative"):
            pulses.PulseSchedule(2.0, plain_table(omega=[1.0, omega]), 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", range(6), ids=pulses._TABLE_ROWS)
    def test_non_finite_table_entry_rejected(self, row, value):
        table = plain_table()
        table[row, 1] = value
        if row == 0:
            fault = "increase strictly"
        elif row == 1 and not value > 0.0:
            fault = "non-negative"
        else:
            fault = f"row {pulses._TABLE_ROWS[row]} must be finite"
        with pytest.raises(ValueError, match=fault):
            pulses.PulseSchedule(2.0, table, 1.0)

    @pytest.mark.parametrize("omega0", [math.nan, math.inf, 0.0, -1.0])
    def test_omega0_must_be_positive_and_finite(self, omega0):
        with pytest.raises(ValueError, match="omega0 must be positive and finite"):
            pulses.PulseSchedule(2.0, plain_table(), omega0)

    @pytest.mark.parametrize("edge_ramp", [-1.0, 1.5, math.nan])
    def test_edge_ramp_outside_half_the_duration_rejected(self, edge_ramp):
        with pytest.raises(ValueError, match="edge ramp"):
            pulses.PulseSchedule(2.0, plain_table(), 1.0, edge_ramp)
