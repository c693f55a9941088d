import dataclasses
import math
import random
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import OptimizeWarning, curve_fit
from scipy.stats import chisquare

from holosim import evolve, gates, pulses
from holosim import protocols as pr
from holosim.evolve import ErrorInjection, NoiseModel
from holosim.gates import ideal_single_qubit
from holosim.quantum import basis_state, bloch_coordinates, density, unattenuated_fidelity

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
        # interleaved gamma 0.7854, default noise) as drawn by the numpy
        # SeedSequence streams RB used before its random.Random slots; fixed
        # data, so the new streams do not move it.  The optimum was computed
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


def five_row_profile(ps, ms, fs):
    """fit_decay's profile as it was first written: all five (A, B) candidates at every p.

    The free optimum, A on its two bounds and B on its two bounds, each
    clipped into the box, and the cheapest where the free optimum leaves it.
    """
    u = np.expm1(np.log(ps)[:, None] * ms)
    pm = u + 1.0
    du = u - u.mean(axis=1, keepdims=True)
    (a_lo, b_lo), (a_hi, b_hi) = FIT_LOWER[::2], FIT_UPPER[::2]
    a, b = np.empty((2, 5, len(ps)))
    a[1:3], b[3:] = [[a_lo], [a_hi]], [[b_lo], [b_hi]]
    with np.errstate(invalid="ignore"):
        a[0] = du @ (fs - fs.mean()) / np.einsum("ij,ij->i", du, du)
        a[3:] = (pm @ fs - b[3:] * pm.sum(axis=1)) / np.einsum("ij,ij->i", pm, pm)
    a[0, ps == 1.0] = fs.mean() / 2.0
    b[:3] = fs.mean() - a[:3] * pm.mean(axis=1)
    inside = (a_lo <= a[0]) & (a[0] <= a_hi) & (b_lo <= b[0]) & (b[0] <= b_hi)
    a, b = np.clip(a, a_lo, a_hi), np.clip(b, b_lo, b_hi)
    r = a[..., None] * pm + b[..., None] - fs
    cost = np.einsum("cpk,cpk->cp", r, r)
    best = np.where(inside, 0, np.nanargmin(cost, axis=0)), np.arange(len(ps))
    a, b, r = a[best], b[best], r[best]
    return a, b, 2.0 * a * ((r * pm) @ ms) / ps


def fit_datasets(seed, count):
    """``count`` seeded (ms, fs) pairs of every kind fit_decay meets, in equal shares.

    Plain decays; data that puts A or B on a bound; data whose fit runs p
    to 1e-6 or to 1; near-constant survivals; uniform noise.
    """
    rng = np.random.default_rng(seed)
    kinds = ("decay", "a_bound", "b_bound", "p_low", "p_high", "flat", "uniform")
    for i in range(count):
        ms = np.array(RB_LENGTH_SETS[rng.integers(len(RB_LENGTH_SETS))], dtype=float)
        kind = kinds[i % len(kinds)]
        noise = rng.normal(size=len(ms))
        if kind == "decay":
            fs = rng.uniform(0.2, 0.7) * rng.uniform(0.8, 0.999) ** ms + rng.uniform(0.2, 0.6)
            fs += rng.uniform(1e-5, 1e-2) * noise
        elif kind == "a_bound":
            a = rng.choice([-1.0, -0.6, 1.6, 2.5]) * rng.uniform(0.9, 1.1)
            fs = a * rng.uniform(0.7, 0.99) ** ms + rng.uniform(0.0, 1.0) + 1e-3 * noise
        elif kind == "b_bound":
            b = rng.choice([-1.0, -0.6, 1.6, 2.5]) * rng.uniform(0.9, 1.1)
            fs = rng.uniform(0.1, 0.5) * rng.uniform(0.7, 0.99) ** ms + b + 1e-3 * noise
        elif kind == "p_low":
            # everything decayed by the first length: only noise above B
            fs = rng.uniform(0.3, 0.6) + rng.uniform(1e-6, 1e-3) * noise
            fs[0] += rng.uniform(0.0, 0.5)
        elif kind == "p_high":
            fs = rng.uniform(0.3, 1.8) + rng.uniform(1e-4, 1e-2) * ms + 1e-5 * noise
        elif kind == "flat":
            # spreads either side of fit_decay's 1e-9 constant-data threshold
            fs = rng.uniform(0.4, 1.0) + 10.0 ** rng.uniform(-10.5, -6.0) * noise
        else:
            fs = rng.uniform(-0.2, 1.2, size=len(ms))
        yield ms, fs


class TestFitDecayBitwise:
    """The profile builds the edge candidates only where the free optimum leaves the box."""

    @staticmethod
    def bits(fit):
        return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(fit)]

    def test_fits_equal_the_five_row_reference(self, monkeypatch):
        datasets = list(fit_datasets(20261019, 2002))
        fits = [pr.fit_decay(ms, fs) for ms, fs in datasets]
        monkeypatch.setattr(pr, "_profile", five_row_profile)
        for (ms, fs), fit in zip(datasets, fits):
            assert self.bits(fit) == self.bits(pr.fit_decay(ms, fs)), (ms.tolist(), fs.tolist())
        # every kind of data was met: bounds hit and p at both ends
        assert any(f.p == 1.0 and not f.degenerate for f in fits)
        assert any(f.p == FIT_LOWER[1] for f in fits)
        assert any(f.degenerate for f in fits) and any(not f.degenerate and np.ptp(fs) < 1e-6
                                                       for f, (_, fs) in zip(fits, datasets))
        for bound in (*FIT_LOWER[::2], *FIT_UPPER[::2]):
            assert any(bound in (f.a, f.b) for f in fits), bound

    def test_profile_equals_the_five_row_reference(self):
        rng = np.random.default_rng(7)
        for ms, fs in fit_datasets(11, 700):
            ps = np.concatenate([pr._FIT_GRID, np.sort(rng.uniform(0.0, 1.0, 20))])
            for got, want in zip(pr._profile(ps, ms, fs), five_row_profile(ps, ms, fs)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestInterleavedGateError:
    def test_equal_decays_give_zero_error(self):
        est = pr.interleaved_gate_error(0.95, 0.95)
        assert est.gate_error == pytest.approx(0.0, abs=1e-15)
        assert est.warning is None

    def test_textbook_value(self):
        est = pr.interleaved_gate_error(0.99, 0.98)
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


class TestSequenceDraws:
    """_draw_sequences: one random.Random per (seed, length, sequence) slot."""

    @staticmethod
    def drawn(seed, lengths, n):
        """The Clifford indices of each slot (m, j) of a run without a target."""
        config = pr.RBConfig(sequence_lengths=lengths, sequences_per_length=n, seed=seed)
        _, sequences, _ = pr._draw_sequences(config)
        # each row holds the m drawn Cliffords, then the recovery's index
        return {(m, j): row[:m].tolist() for m, idx in zip(lengths, sequences)
                for j, row in enumerate(idx)}

    def test_pinned_slots(self):
        # literal draws, so that every supported Python must agree on the streams
        assert self.drawn(0, (2, 4, 8), 10)[2, 0] == [3, 12]
        assert self.drawn(7, (4, 8, 16), 10)[16, 3] == [
            15, 16, 2, 15, 22, 21, 16, 12, 15, 2, 20, 13, 10, 13, 23, 6,
        ]

    @pytest.mark.parametrize("other", [((4, 8, 16), 10), ((2, 4, 8), 12)], ids=["lengths", "sequences"])
    def test_slot_draws_do_not_depend_on_the_other_slots(self, other):
        base = self.drawn(5, (2, 4, 8), 10)
        moved = self.drawn(5, *other)
        shared = base.keys() & moved.keys()
        assert len(shared) >= 20
        assert all(base[slot] == moved[slot] for slot in shared)

    @pytest.mark.parametrize("lengths, n", [((2, 4, 10**18), 10), ((2, 4, 8), 10**17)],
                             ids=["lengths", "sequences"])
    def test_impossible_size_is_refused_before_any_stream_is_seeded(self, monkeypatch, lengths, n):
        # both totals pass the int64 byte limit, so numpy refuses them without allocating
        seeded = []

        class Counted(random.Random):
            def __init__(self, *args):
                seeded.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", Counted)
        config = pr.RBConfig(sequence_lengths=lengths, sequences_per_length=n)
        with pytest.raises((ValueError, MemoryError)):
            pr._draw_sequences(config)
        assert seeded == []

    def test_cliffords_are_uniform(self):
        draws = self.drawn(11, (1000, 1500), 10)
        counts = np.bincount(np.concatenate(list(draws.values())), minlength=24)
        assert counts.sum() == 25_000
        assert chisquare(counts).pvalue > 1e-3


def per_length_draws(config):
    """_draw_sequences as first written: one length at a time, each with its own column loop."""
    cliffords = np.array(gates.clifford_group())
    table = [gates.compile_clifford(i) for i in range(len(cliffords))]
    target = config.interleaved_target
    if target is not None:
        target_u = ideal_single_qubit(target)
        table.append(target)
    n = config.sequences_per_length
    sequences, streams = [], []
    for m in config.sequence_lengths:
        drawn = np.empty((n, m), dtype=int)
        rngs = []
        for j, row in enumerate(drawn):
            rng = random.Random(f"{config.seed}/{m}/{j}")
            row[:] = rng.choices(range(len(cliffords)), k=m)
            rngs.append(rng)
        u_total = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2))
        for column in drawn.T:
            u_total = cliffords[column] @ u_total
            if target is not None:
                u_total = target_u @ u_total
        inverse = u_total.conj().transpose(0, 2, 1)
        if target is None:
            idx = np.column_stack([drawn, gates.clifford_index_of(inverse)])
        else:
            idx = np.full((n, 2 * m + 1), len(cliffords))
            idx[:, : 2 * m : 2] = drawn
            idx[:, -1] = np.arange(len(table), len(table) + n)
            table.extend(gates.gate_spec_from_unitary(inverse))
        sequences.append(idx)
        streams.append(rngs)
    return table, sequences, streams


def per_length_survivals(stack, sequences):
    """SimulatedSequenceExecutor.survivals as first written: one length at a time."""
    rho0 = density(basis_state(3, 0)).reshape(-1, 1)
    out = []
    for idx in sequences:
        vecs = np.repeat(rho0[None], len(idx), axis=0)
        for column in idx.T:
            vecs = stack[column] @ vecs
        out.append(vecs[:, 0, 0].real)
    return out


class TestPerLengthReference:
    """_draw_sequences and survivals give the per-length references' results bitwise."""

    @staticmethod
    def spec_bits(table):
        return [None if spec is None else tuple(x.hex() for x in dataclasses.astuple(spec)) for spec in table]

    @pytest.mark.parametrize("lengths", [(2, 4, 8, 16), (1, 3, 7, 12, 20), (5, 6, 31)])
    @pytest.mark.parametrize("target", [None, pulses.GateSpec(0.0, 0.0, 0.7854)],
                             ids=["reference", "interleaved"])
    def test_draws_and_survivals_equal_per_length_reference(self, lengths, target):
        noise = pr.default_noise_model()
        config = pr.RBConfig(sequence_lengths=lengths, sequences_per_length=11, seed=3, scheme="nhqc",
                             interleaved_target=target, noise=noise)
        table, sequences, streams = pr._draw_sequences(config)
        ref_table, ref_sequences, ref_streams = per_length_draws(config)
        assert self.spec_bits(table) == self.spec_bits(ref_table)
        assert all(np.array_equal(a, b) for a, b in zip(sequences, ref_sequences, strict=True))
        assert [[rng.getstate() for rng in rngs] for rngs in streams] == \
               [[rng.getstate() for rng in rngs] for rngs in ref_streams]

        channels = {spec: evolve.gate_channel(pulses.synthesize(spec, OMEGA0, "nhqc"), noise)
                    for spec in table if spec is not None}
        stack = np.array([np.eye(9, dtype=complex) if spec is None else channels[spec] for spec in table])
        want = per_length_survivals(stack, sequences)
        executor = pr.SimulatedSequenceExecutor("nhqc", OMEGA0, noise)
        # the lengths may come in any order
        for order in (slice(None), slice(None, None, -1)):
            got = executor.survivals(table, sequences[order])
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want[order], strict=True))

    @pytest.mark.parametrize("scheme", ["nhqc", "tounhqc"])
    @pytest.mark.parametrize("target", [None, pulses.GateSpec(0.0, 0.0, 0.7854)],
                             ids=["reference", "interleaved"])
    @pytest.mark.parametrize("shots", [None, 50], ids=["exact", "shots"])
    def test_a_lengths_survivals_do_not_depend_on_the_other_lengths(self, scheme, target, shots):
        def per_sequence(lengths):
            config = pr.RBConfig(sequence_lengths=lengths, sequences_per_length=10, seed=4, scheme=scheme,
                                 interleaved_target=target, noise=pr.default_noise_model(), shots=shots)
            return pr.rb_run(config).per_sequence

        base, moved = per_sequence((2, 4, 8, 16)), per_sequence((4, 12, 16))
        for m in (4, 16):
            assert base[m].tobytes() == moved[m].tobytes()


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
        # the simulator runs each length's sequences together; called as a plain
        # executor it runs the same sequences one by one
        noise = pr.default_noise_model()
        for target in (None, pulses.GateSpec(0.0, 0.0, PI / 4)):
            for shots in (None, 100):
                config = pr.RBConfig(sequence_lengths=(1, 2, 4, 8), sequences_per_length=10, seed=9,
                                     scheme="nhqc", interleaved_target=target, noise=noise, shots=shots)
                executor = pr.SimulatedSequenceExecutor("nhqc", OMEGA0, noise, extra_cached=(target,))
                batched = pr.rb_run(config, sequence_executor=executor)
                single = pr.rb_run(config, sequence_executor=lambda specs: executor(specs))
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

    @pytest.mark.parametrize("field, value", [
        ("sequence_lengths", (2.5, 4.9, 8)),
        ("sequence_lengths", (2, 4.0)),
        ("sequences_per_length", 12.5),
        ("shots", 2.5),
    ])
    def test_non_integer_sizes_rejected_not_truncated(self, field, value):
        sizes = {"sequence_lengths": (2, 4), "sequences_per_length": 10, field: value}
        with pytest.raises(ValueError, match=f"{field} takes integers"):
            pr.RBConfig(**sizes)

    def test_numpy_integer_sizes_accepted(self):
        config = pr.RBConfig(sequence_lengths=np.array([2, 4]), sequences_per_length=np.int64(12),
                             shots=np.int32(7))
        assert config.sequence_lengths == (2, 4)
        assert all(type(m) is int for m in config.sequence_lengths)


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

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_noiseless_grid_matches_expm_kets(self, scheme):
        # each grid point from explicit matrices: per segment the co-rotating frame
        # generator with both control errors, exponentiated by scipy, rebased by
        # D(t) = exp(-i phi1(t) |e><e|); for pure states the fidelity is |<ideal|psi>|^2
        result = pr.robustness_scan(scheme, PI / 4, resolution=5)
        spec = pulses.GateSpec(0.0, 0.0, PI / 4)
        sched = pulses.synthesize(spec, pr.DEFAULT_OMEGA0, scheme)
        ideal = np.append(ideal_single_qubit(spec) @ pr.SCAN_INITIAL[:2], 0.0)

        def frame(seg, t):
            return np.diag([1.0, 1.0, np.exp(-1j * (seg.phi1_offset + seg.phi1_slope * (t - seg.t_start)))])

        for i, amp in enumerate(result.axis):
            for j, det in enumerate(result.axis):
                psi = pr.SCAN_INITIAL
                for seg in sched.segments:
                    g = np.zeros((3, 3), dtype=complex)
                    drive = 0.5 * (1.0 + amp) * seg.omega
                    g[0, 2] = drive * math.sin(0.5 * seg.theta_mix) * np.exp(1j * seg.phi0_offset)
                    g[1, 2] = drive * math.cos(0.5 * seg.theta_mix)
                    g[2, 0], g[2, 1] = np.conj(g[0, 2]), np.conj(g[1, 2])
                    g[2, 2] = det * sched.omega0 - seg.phi1_slope
                    step = expm(-1j * g * (seg.t_end - seg.t_start))
                    psi = frame(seg, seg.t_end) @ step @ frame(seg, seg.t_start).conj() @ psi
                assert abs(result.fidelity[i, j] - abs(ideal.conj() @ psi) ** 2) <= 1e-13

    @pytest.mark.parametrize("noisy", [False, True])
    def test_batched_grid_matches_pointwise_evolution(self, noisy):
        noise = pr.default_noise_model() if noisy else evolve.NO_NOISE
        result = pr.robustness_scan("nhqc", PI / 2, resolution=5, noise=noise)
        spec = pulses.GateSpec(0.0, 0.0, PI / 2)
        sched = pulses.synthesize(spec, pr.DEFAULT_OMEGA0, "nhqc")
        rho_th = density(np.append(ideal_single_qubit(spec) @ pr.SCAN_INITIAL[:2], 0.0))
        rho0 = density(pr.SCAN_INITIAL)
        for i, amp in enumerate(result.axis):
            for j, det in enumerate(result.axis):
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

    def test_qutrit_channel_scores_as_its_sliced_qubit_block(self):
        # compare passes its 9x9 channels whole; the score reads the same 4x4 block
        spec = pulses.GateSpec(theta=0.0, phi=0.0, gamma=PI / 4)
        ideal = ideal_single_qubit(spec)
        schedules = [pulses.synthesize(spec, OMEGA0, scheme) for scheme in ("tounhqc", "nhqc")]
        keep = [0, 1, 3, 4]  # row-major pairs (0,0), (0,1), (1,0), (1,1)
        for channel in evolve.gate_channels(schedules, pr.default_noise_model()):
            assert channel.shape == (9, 9)
            block = channel[np.ix_(keep, keep)]
            whole = pr.average_channel_fidelity(channel, ideal)
            assert whole == pr.average_channel_fidelity(block, ideal) < 1.0


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

    def test_stacked_bloch_rows_equal_per_row_coordinates(self, sqrt_x_spec):
        # |e> start under decay: rows go from NaN (empty subspace) to finite
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        noise = pr.default_noise_model()
        report = pr.trajectory_report(sched, basis_state(3, 2), noise=noise)
        rhos = evolve.evolve_density(density(basis_state(3, 2)), sched, noise).states
        expected = []
        for rho in rhos:
            try:
                expected.append(bloch_coordinates(rho))
            except ValueError:
                expected.append((np.nan,) * 4)
        empty = np.isnan(report.bloch).all(axis=1)
        assert empty[0] and not empty.all()
        np.testing.assert_array_equal(report.bloch, np.array(expected), strict=True)

    def test_auxiliary_start_yields_nan_bloch(self, sqrt_x_spec):
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        report = pr.trajectory_report(sched, basis_state(3, 2))
        assert np.isnan(report.bloch[0]).all()
        assert report.populations[0, 2] == pytest.approx(1.0, abs=1e-12)
