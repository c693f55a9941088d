import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning, curve_fit

from holosim import evolve, gates, pulses
from holosim import protocols as pr
from holosim.evolve import ErrorInjection, NoiseModel
from holosim.gates import ideal_single_qubit
from holosim.quantum import basis_state, density, unattenuated_fidelity

from conftest import OMEGA0

PI = math.pi
LENGTHS = (2, 4, 8, 16, 24, 32)


class TestFitDecay:
    def test_noiseless_round_trip(self):
        ms = np.array([1, 2, 5, 10, 20, 40])
        fs = 0.5 * 0.9**ms + 0.5
        fit = pr.fit_decay(ms, fs)
        assert fit.success and not fit.degenerate
        assert fit.a == pytest.approx(0.5, abs=1e-6)
        assert fit.p == pytest.approx(0.9, abs=1e-6)
        assert fit.b == pytest.approx(0.5, abs=1e-6)

    def test_recovery_under_gaussian_noise(self, rng):
        ms = np.arange(1, 60, 3)
        recovered = []
        for _ in range(20):
            fs = 0.5 * 0.95**ms + 0.5 + rng.normal(scale=0.005, size=ms.shape)
            fit = pr.fit_decay(ms, fs)
            assert fit.success
            recovered.append(fit.p)
        assert np.max(np.abs(np.array(recovered) - 0.95)) < 0.01

    def test_constant_data_flagged_degenerate(self):
        fit = pr.fit_decay([1, 5, 10], [1.0, 1.0, 1.0])
        assert fit.success and fit.degenerate
        assert fit.p == 1.0
        assert fit.a + fit.b == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_distinct_lengths(self):
        with pytest.raises(ValueError, match="distinct"):
            pr.fit_decay([3, 3, 3], [0.9, 0.9, 0.9])

    def test_non_finite_data_reported_not_raised(self):
        fit = pr.fit_decay([1, 2, 3, 4], [0.9, 0.8, float("nan"), 0.6])
        assert not fit.success
        assert "converge" in fit.message

    def test_errors_infinite_without_spare_points(self):
        fit = pr.fit_decay([1, 2, 4], [0.9, 0.8, 0.7])
        assert fit.success
        assert np.isinf([fit.a_err, fit.p_err, fit.b_err]).all()

    def test_readme_example_at_its_50_digit_optimum(self):
        # survival means of the README `rb` example (tounhqc, seed 42,
        # interleaved gamma 0.7854, default noise).  The optimum was computed
        # with mpmath at 60 digits: A and B at their free least-squares values
        # (inside the bounds) for each p, and p the root of the slope of the
        # remaining cost, by mpmath.findroot from the double-precision fit.
        ms = [2, 4, 8, 16, 24, 32]
        fs = [0.9374543671628593, 0.8733095012527132, 0.777068869681034,
              0.6355193262433049, 0.5258815406668539, 0.45704097101269525]
        optimum = {
            "a": Decimal("0.69606231317118097435629786923659586145134156125407"),
            "p": Decimal("0.95469565613072555087539874122748617704189208470397"),
            "b": Decimal("0.29918259482332003114610534415524748881154339428382"),
        }
        fit = pr.fit_decay(ms, fs)
        assert fit.success
        for name, value in optimum.items():
            assert abs(Decimal(getattr(fit, name)) - value) <= Decimal("1e-13"), name


#: fit_decay's bounds of (A, p, B)
FIT_LOWER, FIT_UPPER = np.array([-0.5, 1e-6, -0.5]), np.array([1.5, 1.0, 1.5])


def scipy_fit(ms, fs):
    """The reference: scipy's curve_fit with fit_decay's start and bounds."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, pcov = curve_fit(
            lambda m, a, p, b: a * p**m + b, ms, fs,
            p0=[0.5, 0.99, 0.5], bounds=(FIT_LOWER, FIT_UPPER),
            maxfev=20000,
        )
    return popt, np.sqrt(np.abs(np.diag(pcov)))


def sum_squares(x, ms, fs):
    return float(np.sum((x[0] * x[1] ** ms + x[2] - fs) ** 2))


RB_LENGTH_SETS = ((1, 2, 4, 8, 16, 32), (2, 4, 8, 16, 24, 32), (1, 2, 5, 10, 20, 40),
                  tuple(range(1, 60, 3)))


class TestFitDecayAgainstCurveFit:
    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.sampled_from(RB_LENGTH_SETS),
        a=st.floats(0.3, 0.6), p=st.floats(0.85, 0.98), b=st.floats(0.3, 0.6),
        # a noise floor keeps the residual far above roundoff, so that the
        # relative comparison below is meaningful
        noise=st.floats(1e-4, 2e-3), seed=st.integers(0, 2**32 - 1),
    )
    def test_noisy_decay(self, lengths, a, p, b, noise, seed):
        ms = np.array(lengths, dtype=float)
        fs = a * p**ms + b + np.random.default_rng(seed).normal(scale=noise, size=len(ms))
        fit = pr.fit_decay(ms, fs)
        popt, perr = scipy_fit(ms, fs)
        assert fit.success and not fit.degenerate
        assert sum_squares([fit.a, fit.p, fit.b], ms, fs) <= sum_squares(popt, ms, fs) * (1 + 1e-9)
        assert fit.p == pytest.approx(popt[1], abs=1e-4)
        assert fit.p_err == pytest.approx(perr[1], rel=1e-2)

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.sampled_from(RB_LENGTH_SETS),
        a=st.floats(0.3, 0.6), p=st.floats(0.98, 0.999), b=st.floats(0.3, 0.6),
        noise=st.floats(1e-4, 2e-3), seed=st.integers(0, 2**32 - 1),
    )
    def test_paper_regime_decay_is_a_bounded_optimum(self, lengths, a, p, b, noise, seed):
        # near p = 1 the noise can leave the cost so flat in p that curve_fit
        # stops elsewhere, so the fit is held to the cost and to the
        # first-order conditions rather than to curve_fit's p
        ms = np.array(lengths, dtype=float)
        fs = a * p**ms + b + np.random.default_rng(seed).normal(scale=noise, size=len(ms))
        fit = pr.fit_decay(ms, fs)
        popt, _ = scipy_fit(ms, fs)
        assert fit.success and not fit.degenerate
        x = np.array([fit.a, fit.p, fit.b])
        assert sum_squares(x, ms, fs) <= sum_squares(popt, ms, fs) * (1 + 1e-9)
        # J^T r vanishes in every free coordinate and points outward at an
        # active bound, relative to |J_k| |r|
        pm = fit.p**ms
        jac = np.column_stack([pm, fit.a * ms * fit.p ** (ms - 1.0), np.ones_like(ms)])
        r = fit.a * pm + fit.b - fs
        grad = jac.T @ r / (np.linalg.norm(jac, axis=0) * np.linalg.norm(r))
        lower, upper = x <= FIT_LOWER, x >= FIT_UPPER
        assert np.all(np.abs(grad[~(lower | upper)]) <= 1e-8), grad
        assert np.all(grad[lower] >= -1e-8) and np.all(grad[upper] <= 1e-8), grad

    @settings(max_examples=30, deadline=None)
    @given(level=st.floats(1.55, 1.9), slope=st.floats(1e-3, 1e-2),
           noise=st.floats(1e-5, 1e-4), seed=st.integers(0, 2**32 - 1))
    def test_data_driving_p_to_its_bound(self, level, slope, noise, seed):
        # data above the bound of B needs A > 0, and with A > 0 only p = 1
        # does not fall; the rise stays far above the noise
        ms = np.array([1, 2, 4, 8, 16, 32], dtype=float)
        fs = level + slope * ms + np.random.default_rng(seed).normal(scale=noise, size=len(ms))
        fit = pr.fit_decay(ms, fs)
        popt, _ = scipy_fit(ms, fs)
        assert fit.success
        assert fit.p == 1.0
        assert sum_squares([fit.a, fit.p, fit.b], ms, fs) <= sum_squares(popt, ms, fs) * (1 + 1e-9)


class TestInterleavedGateError:
    def test_equal_decays_give_zero_error(self):
        est = pr.interleaved_gate_error(0.95, 0.95)
        assert est.gate_error == pytest.approx(0.0, abs=1e-15)
        assert est.warning is None

    def test_textbook_value(self):
        est = pr.interleaved_gate_error(0.99, 0.98, d=2)
        assert est.gate_error == pytest.approx(0.00505, abs=5e-6)
        assert est.gate_fidelity == pytest.approx(1 - 0.00505, abs=5e-6)

    def test_fluctuation_regime_warned_not_clamped(self):
        est = pr.interleaved_gate_error(0.90, 0.95)
        assert est.warning is not None
        assert est.gate_error < 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pr.interleaved_gate_error(1.2, 0.9)


class TestRBWithAnalyticChannel:
    @pytest.mark.parametrize("lam", [0.90, 0.95, 0.99])
    def test_depolarizing_parameter_recovered(self, lam):
        config = pr.RBConfig(sequence_lengths=LENGTHS, sequences_per_length=20, seed=11)
        result = pr.rb_run(config, sequence_executor=pr.depolarizing_executor(lam))
        assert result.fit.success
        assert abs(result.fit.p - lam) / lam < 0.02

    def test_survival_floor_is_half(self):
        config = pr.RBConfig(sequence_lengths=(2, 50, 200), sequences_per_length=15, seed=3)
        result = pr.rb_run(config, sequence_executor=pr.depolarizing_executor(0.9))
        assert result.survival_mean[200] == pytest.approx(0.5, abs=1e-4)


class TestRBSimulated:
    def test_ideal_gates_give_unit_survival(self):
        config = pr.RBConfig(sequence_lengths=(2, 4, 8), sequences_per_length=10, seed=5)
        result = pr.rb_run(config)
        for m in (2, 4, 8):
            assert result.survival_mean[m] == pytest.approx(1.0, abs=1e-4)
        assert result.fit.degenerate
        assert result.fit.p == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_given_seed(self):
        config = pr.RBConfig(
            sequence_lengths=(2, 4, 8),
            sequences_per_length=10,
            seed=42,
            noise=NoiseModel.qutrit_relaxation(t1_e_to_0=5e-6),
        )
        a = pr.rb_run(config)
        b = pr.rb_run(config)
        for m in a.lengths:
            assert np.array_equal(a.per_sequence[m], b.per_sequence[m])

    def test_batched_run_matches_per_sequence_calls(self):
        # the simulator runs all sequences at once; called as a plain
        # executor it runs the same sequences one by one
        noise = pr.default_noise_model()
        for target in (None, pulses.GateSpec(0.0, 0.0, PI / 4)):
            for shots in (None, 100):
                config = pr.RBConfig(sequence_lengths=(1, 2, 4, 8), sequences_per_length=10, seed=9,
                                     scheme="nhqc", interleaved_target=target, noise=noise, shots=shots)
                executor = pr.SimulatedSequenceExecutor("nhqc", OMEGA0, noise, extra_cached=(target,))
                batched = pr.rb_run(config, sequence_executor=executor)
                single = pr.rb_run(config, sequence_executor=lambda specs, rng: executor(specs, rng))
                for m in config.sequence_lengths:
                    assert np.array_equal(batched.per_sequence[m], single.per_sequence[m])

    def test_shot_sampling_deterministic_and_noisy(self):
        config = pr.RBConfig(
            sequence_lengths=(2, 4, 8), sequences_per_length=10, seed=21, shots=200
        )
        a = pr.rb_run(config, sequence_executor=pr.depolarizing_executor(0.95))
        b = pr.rb_run(config, sequence_executor=pr.depolarizing_executor(0.95))
        for m in a.lengths:
            assert np.array_equal(a.per_sequence[m], b.per_sequence[m])
            # counts are multiples of 1/200
            assert np.allclose(np.round(a.per_sequence[m] * 200), a.per_sequence[m] * 200)

    def test_decay_with_noise_and_scheme_ordering_single_seed(self):
        target = pulses.GateSpec(0.0, 0.0, PI / 4)
        ps = {}
        for scheme in ("tounhqc", "nhqc"):
            config = pr.RBConfig(
                sequence_lengths=(2, 4, 8, 16),
                sequences_per_length=10,
                seed=2,
                scheme=scheme,
                interleaved_target=target,
                noise=pr.default_noise_model(),
            )
            result = pr.rb_run(config)
            assert result.fit.success
            ps[scheme] = result.fit.p
            assert 0.8 < result.fit.p < 1.0
        assert ps["tounhqc"] > ps["nhqc"]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            pr.RBConfig(sequence_lengths=(4, 2), sequences_per_length=10)
        with pytest.raises(ValueError, match="10 sequences"):
            pr.RBConfig(sequence_lengths=(2, 4), sequences_per_length=5)


def lifted_clifford_group():
    """The single-qubit Cliffords lifted to SU(2): element k + 24 s is (-1)^s C_k.

    Returns the (48, 2, 2) elements and their (48, 48) product table.  RB
    tracks the ideal product in SU(2), and an interleaved run compiles its
    recovery from that product, so -C_k and C_k close with different loops.
    """
    group = np.array(gates.clifford_group())
    elements = np.concatenate([group, -group])
    return elements, lifted_index(np.einsum("aij,bjk->abik", elements, elements))


def lifted_index(u):
    """Element of :func:`lifted_clifford_group` equal to each SU(2) matrix in ``u``."""
    k = gates.clifford_index_of(u)
    group = np.array(gates.clifford_group())
    negative = np.einsum("...ij,...ij->...", group[k].conj(), u).real < 0.0
    return k + 24 * negative


def exact_rb_means(channels, recoveries, lengths, target=None):
    """Exact sequence-averaged survival of Clifford RB under gate-dependent noise.

    ``channels[k]`` is the superoperator of Clifford k (the identity for
    k = 0) and ``recoveries[g]`` the one that closes a sequence whose ideal
    product is lifted element g; ``target`` is (lifted element, channel)
    of a Clifford interleaved after every random gate.  The pair (ideal
    product, vec rho) evolves linearly, so one length step is a single map
    on the 48 x 9 dimensional space, averaged over the 24 random Cliffords
    (the gate-dependent-noise analysis of Proctor et al., PRL 119, 130502
    (2017)).  Non-Clifford targets generate an infinite group, so
    interleaved RB with them stays Monte Carlo only.
    """
    _, table = lifted_clifford_group()
    step = np.zeros((48, 9, 48, 9), dtype=complex)
    everyone = np.arange(48)
    for k in range(24):
        dest, gate = table[k], channels[k]
        if target is not None:
            dest, gate = table[target[0], dest], target[1] @ gate
        step[dest, :, everyone, :] += gate / 24.0
    step = step.reshape(48 * 9, 48 * 9)
    state = np.zeros((48, 9), dtype=complex)
    state[0] = density(basis_state(3, 0)).reshape(-1)
    means, done = {}, 0
    for m in lengths:
        for _ in range(m - done):
            state = (step @ state.reshape(-1)).reshape(48, 9)
        done = m
        means[m] = float(np.einsum("gij,gj->gi", recoveries, state)[:, 0].real.sum())
    return means


class TestExactRBOracle:
    """rb_run's Monte Carlo means against the exact average over all sequences."""

    LENGTHS = (1, 2, 4, 8, 16)
    SEQUENCES = 200

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    @pytest.mark.parametrize("target", [None, pulses.GateSpec(0.0, 0.0, PI / 2)], ids=["reference", "clifford_target"])
    def test_means_within_sampling_error_of_exact(self, scheme, target):
        noise = pr.default_noise_model()
        config = pr.RBConfig(sequence_lengths=self.LENGTHS, sequences_per_length=self.SEQUENCES,
                             seed=4, scheme=scheme, interleaved_target=target, noise=noise)
        executor = pr.SimulatedSequenceExecutor(scheme, OMEGA0, noise, extra_cached=(target,))
        result = pr.rb_run(config, sequence_executor=executor)

        # the map is built from the channels the run cached: the 23 non-identity
        # Cliffords, among them the target (the S gate), and no recovery
        specs = [gates.compile_clifford(k) for k in range(24)]
        assert set(executor._cache) == set(specs[1:])
        channels = np.array([np.eye(9)] + [executor._cache[spec] for spec in specs[1:]])
        elements, _ = lifted_clifford_group()
        inverses = elements.conj().transpose(0, 2, 1)
        if target is None:
            recoveries, lifted = channels[gates.clifford_index_of(inverses)], None
        else:
            closing = [gates.gate_spec_from_unitary(u) for u in inverses]
            built = iter(evolve.gate_channels(
                [pulses.synthesize(spec, OMEGA0, scheme) for spec in closing if spec is not None], noise))
            recoveries = np.array([np.eye(9) if spec is None else next(built) for spec in closing])
            lifted = (int(lifted_index(ideal_single_qubit(target))), executor._cache[target])
        exact = exact_rb_means(channels, recoveries, self.LENGTHS, lifted)
        for m in self.LENGTHS:
            error = result.survival_std[m] / math.sqrt(self.SEQUENCES)
            assert abs(result.survival_mean[m] - exact[m]) < 4.0 * error


class TestRobustnessScan:
    def test_origin_is_maximum_of_noiseless_scan(self):
        result = pr.robustness_scan("tounhqc", PI / 4, resolution=5)
        center = result.fidelity[2, 2]
        assert center >= result.fidelity.max() - 1e-6
        assert center > 0.999

    def test_values_bounded(self):
        result = pr.robustness_scan("nhqc", PI / 4, resolution=5)
        assert np.all(result.fidelity >= -1e-12)
        assert np.all(result.fidelity <= 1.0 + 1e-12)

    def test_detuning_ordering_at_scan_edges(self):
        res_t = pr.robustness_scan("tounhqc", PI / 4, resolution=5)
        res_n = pr.robustness_scan("nhqc", PI / 4, resolution=5)
        # amp = 0 row, detuning = +-0.05 columns
        assert res_t.fidelity[2, 0] >= res_n.fidelity[2, 0]
        assert res_t.fidelity[2, -1] >= res_n.fidelity[2, -1]

    def test_resolution_guard(self):
        with pytest.raises(ValueError, match="resolution"):
            pr.robustness_scan("tounhqc", PI / 4, resolution=4)

    def test_absolute_detuning_mode(self):
        span = 0.05 * pr.DEFAULT_OMEGA0
        rel = pr.robustness_scan("tounhqc", PI / 4, resolution=5)
        absolute = pr.robustness_scan(
            "tounhqc",
            PI / 4,
            detuning_range=(-span, span),
            resolution=5,
            detuning_absolute=True,
        )
        assert np.allclose(rel.fidelity, absolute.fidelity, atol=1e-9)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_batched_grid_matches_pointwise_evolution(self, noisy):
        noise = pr.default_noise_model() if noisy else evolve.NO_NOISE
        result = pr.robustness_scan("nhqc", PI / 2, resolution=5, noise=noise)
        spec = pulses.GateSpec(0.0, 0.0, PI / 2)
        sched = pulses.synthesize(spec, pr.DEFAULT_OMEGA0, "nhqc")
        rho_th = density(np.append(ideal_single_qubit(spec) @ pr.SCAN_INITIAL[:2], 0.0))
        rho0 = density(pr.SCAN_INITIAL)
        for i, amp in enumerate(result.amp_axis):
            for j, det in enumerate(result.detuning_axis):
                err = evolve.ErrorInjection(amp_fraction=amp, detuning_fraction=det)
                rho = evolve.evolve_density(rho0, sched, noise, err).states[-1]
                expected = unattenuated_fidelity(rho_th, rho)
                assert result.fidelity[i, j] == pytest.approx(expected, abs=1e-13)


class TestAverageChannelFidelity:
    def test_identity_channel(self):
        u = ideal_single_qubit(pulses.GateSpec(0.3, 0.4, 1.0))
        superop = np.kron(u, u.conj())
        assert pr.average_channel_fidelity(superop, u) == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_closed_form(self):
        # replace-by-identity with weight (1 - lam): F_avg = (1 + lam) / 2
        lam = 0.7
        eye4 = np.eye(4, dtype=complex)
        mix = np.zeros((4, 4), dtype=complex)
        vec_eye = np.eye(2, dtype=complex).reshape(-1)
        for j, unit in enumerate(np.eye(4)):
            rho = unit.reshape(2, 2)
            mix[:, j] = 0.5 * np.trace(rho) * vec_eye
        superop = lam * eye4 + (1 - lam) * mix
        got = pr.average_channel_fidelity(superop, np.eye(2))
        assert got == pytest.approx((1 + lam) / 2, abs=1e-12)


class TestCompareSchemes:
    def test_duration_ratio_quarter_pi(self):
        report = pr.compare_schemes(PI / 4)
        assert report.tau_tounhqc / report.tau_nhqc == pytest.approx(
            math.sqrt(7) / 4, rel=1e-12
        )

    def test_noiseless_reduction_not_applicable(self):
        report = pr.compare_schemes(PI / 4)
        assert report.error_reduction is None
        assert report.error_tounhqc < 1e-5
        assert report.error_nhqc < 1e-5

    def test_t1_limited_reduction_positive(self):
        report = pr.compare_schemes(PI / 4, noise=pr.t1_limited_noise_model())
        assert report.error_nhqc == pytest.approx(1e-2, rel=0.5)
        assert report.error_reduction is not None
        assert report.error_reduction > 0.0


class TestTrajectoryReport:
    def test_sqrt_x_endpoints(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        report = pr.trajectory_report(sched, basis_state(3, 0))
        p_final = report.populations[-1]
        assert p_final[0] == pytest.approx(0.5, abs=1e-4)
        assert p_final[1] == pytest.approx(0.5, abs=1e-4)
        assert p_final[2] < 1e-4
        assert np.allclose(report.bloch[0, :3], (0, 0, 1), atol=1e-9)
        assert np.allclose(report.bloch[-1, :3], (0, -1, 0), atol=1e-4)

    def test_dark_state_bloch_is_constant(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        seg = sched.segments[0]
        _, dark = pulses.bright_dark_basis(seg.theta_mix, seg.phi0_offset)
        report = pr.trajectory_report(sched, dark)
        assert np.max(np.ptp(report.bloch[:, :3], axis=0)) < 1e-9

    def test_auxiliary_start_yields_nan_bloch(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        report = pr.trajectory_report(sched, basis_state(3, 2))
        assert np.isnan(report.bloch[0]).all()
        assert report.populations[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_density_input_with_noise(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        report = pr.trajectory_report(
            sched, density(basis_state(3, 0)), noise=pr.t1_limited_noise_model()
        )
        assert np.max(np.abs(report.populations.sum(axis=1) - 1.0)) < 1e-8
