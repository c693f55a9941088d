import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosim import cli, evolve, protocols, pulses
from holosim.quantum import basis_state, bloch_coordinates, density

from conftest import OMEGA0

PI = math.pi


def run(tmp_path, *argv):
    return cli.main([*argv, "--out-dir", str(tmp_path)])


def read_summary(path):
    values = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, raw = line.split(" = ", 1)
        values[key] = raw
    return values


def read_table(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestGateCommand:
    def test_time_optimal_reference_point(self, tmp_path):
        code = run(
            tmp_path, "gate", "--scheme", "tounhqc",
            "--theta", "1.5707963267948966", "--phi", "0",
            "--gamma", "1.5707963267948966", "--omega0-mhz", "8.660",
        )
        assert code == 0
        summary = read_summary(tmp_path / "gate_summary.txt")
        assert float(summary["tau_ns"]) == pytest.approx(100.0, abs=0.05)
        assert float(summary["gate_infidelity"]) < 1e-6

    def test_conventional_reference_point(self, tmp_path):
        code = run(
            tmp_path, "gate", "--scheme", "nhqc",
            "--gamma", "1.5707963267948966", "--omega0-mhz", "8.660",
        )
        assert code == 0
        summary = read_summary(tmp_path / "gate_summary.txt")
        assert float(summary["tau_ns"]) == pytest.approx(115.47, abs=0.05)

    @pytest.mark.parametrize("ramp", ["0", "10"])
    def test_gate_builds_one_propagator(self, tmp_path, monkeypatch, ramp):
        # no piece is stepped, ramp samples included: dt_halving_delta is exactly 0.0
        seen = []
        frame_maps = evolve._frame_maps
        monkeypatch.setattr(evolve, "_frame_maps", lambda *a, **k: seen.append(a) or frame_maps(*a, **k))
        assert run(tmp_path, "gate", "--edge-ramp-ns", ramp) == 0
        assert len(seen) == 1
        assert read_summary(tmp_path / "gate_summary.txt")["dt_halving_delta"] == "0"

    @pytest.mark.parametrize("scheme", ["tounhqc", "nhqc"])
    def test_ramped_gate_closes_the_loop(self, tmp_path, scheme):
        # the ramps stretch the loop by their length and leak nothing
        assert run(tmp_path / "free", "gate", "--scheme", scheme) == 0
        assert run(tmp_path / "ramped", "gate", "--scheme", scheme, "--edge-ramp-ns", "10") == 0
        free = read_summary(tmp_path / "free" / "gate_summary.txt")
        ramped = read_summary(tmp_path / "ramped" / "gate_summary.txt")
        assert float(ramped["tau_ns"]) == pytest.approx(float(free["tau_ns"]) + 10.0, rel=1e-15)
        assert float(ramped["leakage"]) < 1e-12
        assert float(ramped["gate_infidelity"]) < 1e-14
        assert ramped["dt_halving_delta"] == "0"

    def test_ramp_limit_is_synthesis_own(self, tmp_path, capsys):
        # synthesis takes any ramp up to the ramp-free loop, more than half of it
        assert run(tmp_path / "free", "gate") == 0
        assert run(tmp_path / "long", "gate", "--edge-ramp-ns", "60") == 0
        free = read_summary(tmp_path / "free" / "gate_summary.txt")
        long = read_summary(tmp_path / "long" / "gate_summary.txt")
        assert float(long["tau_ns"]) == pytest.approx(float(free["tau_ns"]) + 60.0, rel=1e-15)
        assert float(long["leakage"]) < 1e-12
        capsys.readouterr()
        assert run(tmp_path / "over", "gate", "--edge-ramp-ns", "101") == 1
        (problem,) = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  - ")]
        assert "--edge-ramp-ns" in problem and "100.003 ns ramp-free loop" in problem

    def test_ramped_nhqc_gate_is_unitary_to_rounding(self, tmp_path):
        # closed-form exponentials of the ramp samples keep the propagator
        # unitary to rounding
        assert run(tmp_path, "gate", "--scheme", "nhqc", "--edge-ramp-ns", "10") == 0
        summary = read_summary(tmp_path / "gate_summary.txt")
        assert float(summary["unitarity_defect"]) < 5e-14

    def test_degenerate_gamma_is_config_error(self, tmp_path, capsys):
        assert run(tmp_path, "gate", "--gamma", "0") == 1
        assert "gamma" in capsys.readouterr().err

    def test_all_problems_reported_in_one_pass(self, tmp_path, capsys):
        code = run(
            tmp_path, "gate", "--gamma", "0", "--theta", "9", "--omega0-mhz", "-1"
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--gamma" in err and "--theta" in err and "--omega0-mhz" in err

    def test_malformed_flag_is_config_error(self, tmp_path, capsys):
        assert run(tmp_path, "gate", "--scheme", "foo") == 1
        assert "--scheme" in capsys.readouterr().err

    def test_every_malformed_flag_in_one_report(self, tmp_path, capsys):
        argv = ["gate", "--out-dir", str(tmp_path),
                "--scheme", "foo", "--phi", "x", "--bogus", "--theta"]
        assert cli.main(argv) == 1
        problems = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  - ")]
        assert len(problems) == 4, problems
        for flag in ("--scheme", "--phi", "--bogus", "--theta"):
            assert sum(flag in line for line in problems) == 1, problems

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # a failure inside the engine, past every configuration check, exits 2
        def fail(*args, **kwargs):
            raise ArithmeticError("overflow")

        monkeypatch.setattr(evolve, "_frame_maps", fail)
        assert run(tmp_path, "gate") == 2
        assert capsys.readouterr().err == "numeric failure: overflow\n"

    def test_fidelity_is_clipped_at_one(self, tmp_path):
        # unclipped, this gate read gate_fidelity = 1.0000000000000002
        argv = ("--theta", "2.980270133958384", "--phi", "1.9573355027911696",
                "--gamma", "2.705842654941451")
        assert run(tmp_path, "gate", "--scheme", "nhqc", *argv) == 0
        summary = read_summary(tmp_path / "gate_summary.txt")
        assert (summary["gate_fidelity"], summary["gate_infidelity"]) == ("1", "0")


class TestTrajectoryCommand:
    def test_sqrt_x_files_and_endpoint(self, tmp_path):
        assert run(tmp_path, "trajectory", "--initial", "0") == 0
        summary = read_summary(tmp_path / "trajectory_summary.txt")
        assert float(summary["final_p0"]) == pytest.approx(0.5, abs=1e-4)
        assert float(summary["final_bloch_y"]) == pytest.approx(-1.0, abs=1e-4)
        _, header, rows = read_table(tmp_path / "trajectory_populations.csv")
        assert header == ["t_ns", "p0", "p1", "pe"]
        assert len(rows) > 50

    @staticmethod
    def tables(tmp_path, *argv):
        """The populations and Bloch columns, time dropped, of a trajectory run."""
        assert run(tmp_path, "trajectory", *argv) == 0
        return [np.array(read_table(tmp_path / name)[2], dtype=float)[:, 1:]
                for name in ("trajectory_populations.csv", "trajectory_bloch.csv")]

    def test_default_gate_is_sqrt_x(self, tmp_path, sqrt_x_spec):
        args = cli._parse_args(["trajectory"])
        assert pulses.GateSpec(args.theta, args.phi, args.gamma) == sqrt_x_spec
        assert 2 * PI * args.omega0_mhz * 1e6 == OMEGA0
        assert args.scheme == "tounhqc" and args.edge_ramp_ns == 0.0
        populations, bloch = self.tables(tmp_path)
        assert populations[-1, 0] == pytest.approx(0.5, abs=1e-4)
        assert populations[-1, 1] == pytest.approx(0.5, abs=1e-4)
        assert populations[-1, 2] < 1e-4
        assert np.allclose(bloch[0, :3], (0, 0, 1), atol=1e-9)
        assert np.allclose(bloch[-1, :3], (0, -1, 0), atol=1e-4)

    def test_dark_state_bloch_is_constant(self, tmp_path, sqrt_x_spec):
        seg = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0).segments[0]
        _, dark = pulses.bright_dark_basis(seg.theta_mix, seg.phi0_offset)
        # --initial plus is the loop's dark state up to a global phase
        assert abs(np.vdot(dark, cli._INITIAL_STATES["plus"])) == pytest.approx(1.0, abs=1e-12)
        _, bloch = self.tables(tmp_path, "--initial", "plus")
        assert np.max(np.ptp(bloch[:, :3], axis=0)) < 1e-9

    def test_stacked_bloch_rows_equal_per_row_coordinates(self, tmp_path, sqrt_x_spec):
        # |e> start under decay: rows go from NaN (empty subspace) to finite
        sched = pulses.synthesize_tounhqc(sqrt_x_spec, OMEGA0)
        noise = protocols.default_noise_model()
        _, bloch = self.tables(tmp_path, "--default-noise", "--initial", "e")
        rhos = evolve.evolve_density(density(basis_state(3, 2)), sched, noise).states
        expected = []
        for rho in rhos:
            try:
                expected.append(bloch_coordinates(rho))
            except ValueError:
                expected.append((np.nan,) * 4)
        empty = np.isnan(bloch).all(axis=1)
        assert empty[0] and not empty.all()
        np.testing.assert_array_equal(bloch, np.array(expected), strict=True)

    def test_auxiliary_start_yields_nan_bloch(self, tmp_path):
        populations, bloch = self.tables(tmp_path, "--initial", "e")
        assert np.isnan(bloch[0]).all()
        assert populations[0, 2] == pytest.approx(1.0, abs=1e-12)


class TestRamseyCommand:
    def test_phase_shift_quarter_pi(self, tmp_path):
        assert run(tmp_path, "ramsey", "--gamma", str(PI / 4)) == 0
        summary = read_summary(tmp_path / "ramsey_summary.txt")
        assert float(summary["phase_shift_rad"]) == pytest.approx(PI / 4, abs=1e-3)
        _, header, rows = read_table(tmp_path / "ramsey_fringes.csv")
        assert header == ["theta_rad", "p_gate_on", "p_gate_off"]
        assert len(rows) == 41


class TestRBCommand:
    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ("rb", "--lengths", "2,4,8", "--sequences", "10", "--seed", "42")
        assert run(tmp_path, *argv) == 0
        first = (tmp_path / "rb_survival.csv").read_bytes()
        first_summary = (tmp_path / "rb_summary.txt").read_bytes()
        assert run(tmp_path, *argv) == 0
        assert (tmp_path / "rb_survival.csv").read_bytes() == first
        assert (tmp_path / "rb_summary.txt").read_bytes() == first_summary

    def test_survival_rows_cover_all_sequences(self, tmp_path):
        assert run(tmp_path, "rb", "--lengths", "2,4,8", "--sequences", "10") == 0
        _, header, rows = read_table(tmp_path / "rb_survival.csv")
        assert header == ["m", "sequence_index", "survival"]
        assert len(rows) == 30

    def test_bad_lengths_rejected(self, tmp_path):
        assert run(tmp_path, "rb", "--lengths", "8,4") == 1
        assert run(tmp_path, "rb", "--lengths", "4,8") == 1

    def test_shot_sampling_rerun_is_byte_identical(self, tmp_path):
        # the one rb path that loads numpy.random: each slot's stream seeds its binomial draw
        argv = ("rb", "--default-noise", "--lengths", "1,2,3", "--sequences", "10", "--shots", "100")
        outputs = []
        for k in range(2):
            assert run(tmp_path / str(k), *argv) == 0
            outputs.append((tmp_path / str(k) / "rb_survival.csv").read_bytes())
        assert outputs[0] == outputs[1]
        _, _, rows = read_table(tmp_path / "0" / "rb_survival.csv")
        survivals = np.array([float(row[2]) for row in rows])
        assert np.array_equal(np.round(survivals * 100), survivals * 100)
        assert np.any(survivals < 1.0)


def data_lines(path):
    """A written file's lines below its ``#`` metadata lines."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("argv, dt_ns, files", [
    # each seed draws a recovery gate whose loop lasts under 100 steps of 0.3 ns
    (("rb", "--scheme", "tounhqc", "--interleaved-gamma", "0.7854", "--seed", "0"), "0.3",
     ("rb_survival.csv", "rb_summary.txt")),
    (("rb", "--scheme", "tounhqc", "--interleaved-gamma", "0.7854", "--seed", "5"), "0.3",
     ("rb_survival.csv", "rb_summary.txt")),
    (("compare", "--gamma", "0.05"), "0.5", ("compare_summary.txt",)),
    (("scan", "--gamma", "0.05", "--resolution", "5"), "0.5", ("scan_grid.csv", "scan_summary.txt")),
], ids=["rb-seed0", "rb-seed5", "compare", "scan"])
def test_explicit_step_leaves_ramp_free_commands_alone(tmp_path, argv, dt_ns, files):
    # ramp-free gates take no step, so --dt-ns changes none of their outputs
    assert run(tmp_path / "default", *argv) == 0
    assert run(tmp_path / "explicit", *argv, "--dt-ns", dt_ns) == 0
    for name in files:
        assert data_lines(tmp_path / "explicit" / name) == data_lines(tmp_path / "default" / name)


@pytest.mark.parametrize("dt_ns, rows", [("5", 22), ("100", 3), ("1000", 2), (None, 101)],
                         ids=["5ns", "100ns", "longer-than-the-loop", "default"])
def test_trajectory_rows_are_the_ends_of_equal_steps(tmp_path, dt_ns, rows):
    # the 100.003 ns loop takes ceil(100.003 / dt_ns) equal steps, or 100 by
    # default, and writes a row at t = 0 and at the end of each
    argv = ("trajectory",) if dt_ns is None else ("trajectory", "--dt-ns", dt_ns)
    assert run(tmp_path, *argv) == 0
    tau_ns = float(read_summary(tmp_path / "trajectory_summary.txt")["tau_ns"])
    for name in ("trajectory_populations.csv", "trajectory_bloch.csv"):
        t_ns = np.array([float(line.split(",")[0]) for line in data_lines(tmp_path / name)[1:]])
        assert len(t_ns) == rows
        assert np.array_equal(t_ns, np.linspace(0.0, tau_ns * 1e-9, rows) * 1e9)


@pytest.mark.parametrize("argv", [
    ("trajectory", "--dt-ns", "0.0005"),
], ids=["trajectory"])
def test_step_too_fine_for_a_stepped_run_is_config_error(tmp_path, capsys, argv):
    # 5,000 steps per loop at most: 0.0005 ns is 40 times as fine as the 100 ns loop allows
    assert run(tmp_path, *argv) == 1
    (problem,) = problem_lines(capsys.readouterr().err)
    assert problem.startswith("  - --dt-ns does not suit the 100.003 ns loop: step size ")
    assert "too fine: need dt >= duration/5000" in problem
    # the flag's own value in ns, as every problem line ends, not the engine's seconds
    assert problem.endswith(", got 0.0005")


def test_step_that_rounds_to_zero_seconds_is_one_problem(tmp_path, capsys):
    # 1e-320 ns is positive, but 1e-329 s underflows to 0: the line names the flag's value once
    assert run(tmp_path, "trajectory", "--dt-ns", "1e-320") == 1
    (problem,) = problem_lines(capsys.readouterr().err)
    assert problem == "  - --dt-ns is too small: it rounds to 0 s, got 1e-320"
    assert problem.count("got") == 1


@pytest.mark.parametrize("argv", [
    ("gate", "--dt-ns", "0.0005"),
    ("rb", "--lengths", "1,2,4", "--sequences", "10", "--dt-ns", "0.0005"),
], ids=["gate", "rb"])
def test_step_too_fine_is_ignored_where_nothing_steps(tmp_path, argv):
    assert run(tmp_path, *argv) == 0


@pytest.mark.parametrize("dt_ns", ["5", "0.0005", "0.0015"], ids=["coarse", "fine", "half-step"])
def test_ramped_gate_takes_no_step(tmp_path, dt_ns):
    # the ramp samples are constant pieces, so a step of any size, one too
    # fine for a trajectory of the loop included, changes nothing below
    # the "#" lines, which hold config_hash and so differ by dt_ns
    assert run(tmp_path / "default", "gate", "--edge-ramp-ns", "10") == 0
    assert run(tmp_path / "explicit", "gate", "--edge-ramp-ns", "10", "--dt-ns", dt_ns) == 0
    name = "gate_summary.txt"
    assert data_lines(tmp_path / "explicit" / name) == data_lines(tmp_path / "default" / name)


def test_fast_decay_needs_no_finer_trajectory_step(tmp_path):
    # every recorded map is exact, so a decay rate of 0.02 per step is no
    # reason to refine the grid: the end matches that of the default grid
    argv = ("trajectory", "--t1-1e-us", "0.05")
    assert run(tmp_path / "coarse", *argv, "--dt-ns", "1") == 0
    assert run(tmp_path / "default", *argv) == 0
    coarse = read_summary(tmp_path / "coarse" / "trajectory_summary.txt")
    default = read_summary(tmp_path / "default" / "trajectory_summary.txt")
    for key in ("final_p0", "final_p1", "final_pe"):
        assert float(coarse[key]) == pytest.approx(float(default[key]), abs=1e-13)


@pytest.mark.parametrize("argv", [
    ("--lengths", "2,4,100000000000000000"),
    ("--sequences", "100000000000000000", "--lengths", "2,4,8"),
    # 16 (6 + 2^60) draws: a 64-bit count of them wraps round to 96
    ("--sequences", "16", "--lengths", "2,4,1152921504606846976"),
], ids=["lengths", "sequences", "count_past_64_bits"])
def test_allocation_failure_is_reported_without_traceback(tmp_path, capsys, argv):
    # numpy refuses an index array of 1e17 rows or columns at once: the draws
    # of every slot share one array, allocated before any slot stream
    assert run(tmp_path, "rb", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("compare", "--detuning-error", "1e300"),
    ("trajectory", "--detuning-error", "1e300"),
    ("trajectory", "--amp-error", "1e300"),
    ("rb", "--lengths", "2,4,8", "--sequences", "10", "--detuning-error", "1e300"),
], ids=["compare", "trajectory-detuning", "trajectory-amp", "rb"])
def test_overflow_is_a_numeric_failure(tmp_path, capsys, argv):
    # the closed-form exponential squares tau G[e, e], which overflows here; left
    # to numpy's default handling, these runs wrote NaN results and exited 0
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


class TestScanCommand:
    def test_default_grid_size(self, tmp_path):
        assert run(tmp_path, "scan", "--threads", "4") == 0
        _, header, rows = read_table(tmp_path / "scan_grid.csv")
        assert header == ["amp_err", "det_err", "fidelity"]
        assert len(rows) == 441
        summary = read_summary(tmp_path / "scan_summary.txt")
        assert float(summary["fidelity_origin"]) >= 0.999

    def test_table_round_trips_at_full_precision(self, tmp_path):
        assert run(tmp_path, "scan", "--resolution", "5") == 0
        _, _, rows = read_table(tmp_path / "scan_grid.csv")
        for row in rows:
            for token in row:
                assert cli._fmt(float(token)) == token

    def test_low_resolution_rejected(self, tmp_path):
        assert run(tmp_path, "scan", "--resolution", "3") == 1

    def test_fidelity_at_zero_error_reads_exactly_one(self, tmp_path):
        # rounding put this scan's origin overlap at 1.0000000000000002, above
        # its Cauchy-Schwarz bound
        assert run(tmp_path, "scan", "--scheme", "tounhqc", "--gamma", "0.7854", "--resolution", "21") == 0
        summary = read_summary(tmp_path / "scan_summary.txt")
        assert summary["fidelity_origin"] == summary["fidelity_max"] == "1"

    def test_absolute_detuning_axis_is_the_relative_one_in_rad_s(self, tmp_path):
        # --error-range is a fraction on both axes in both modes; the
        # absolute scan only writes its detuning column in rad/s
        assert run(tmp_path / "rel", "scan") == 0
        assert run(tmp_path / "abs", "scan", "--detuning-absolute") == 0
        rel = np.array(read_table(tmp_path / "rel" / "scan_grid.csv")[2], dtype=float)
        absolute = np.array(read_table(tmp_path / "abs" / "scan_grid.csv")[2], dtype=float)
        omega0 = 2 * PI * 8.660e6
        assert np.array_equal(absolute[:, 2], rel[:, 2])
        assert np.array_equal(absolute[:, 0], rel[:, 0])
        assert np.max(np.abs(absolute[:, 1] - rel[:, 1] * omega0)) <= 1e-17 * omega0


class TestCompareCommand:
    def test_noiseless_reports_not_applicable(self, tmp_path):
        assert run(tmp_path, "compare") == 0
        summary = read_summary(tmp_path / "compare_summary.txt")
        assert summary["error_reduction"] == "n/a"
        assert float(summary["tau_ratio"]) == pytest.approx(math.sqrt(7) / 4, rel=1e-9)

    def test_default_noise_reduction_in_window(self, tmp_path):
        assert run(tmp_path, "compare", "--default-noise") == 0
        summary = read_summary(tmp_path / "compare_summary.txt")
        assert 0.0 < float(summary["error_reduction"]) < 1.0


class TestConfigFile:
    def test_file_provides_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma": PI / 4, "omega0_mhz": 4.0}))
        code = cli.main(
            ["gate", "--config", str(cfg), "--omega0-mhz", "8.660",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        summary = read_summary(tmp_path / "gate_summary.txt")
        # gamma came from the file, omega0 from the explicit flag
        assert float(summary["gamma_rad"]) == pytest.approx(PI / 4)
        assert float(summary["omega0_mhz"]) == pytest.approx(8.660)

    @pytest.mark.parametrize("argv", [("--config=",), ("--config", "")])
    def test_empty_path_is_config_error(self, tmp_path, capsys, argv):
        assert run(tmp_path, "gate", *argv) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        assert cli.main(["gate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_wrongly_typed_values_listed(self, tmp_path, capsys):
        cfg = tmp_path / "typed.json"
        bad = {"omega0_mhz": [1], "theta": "x", "threads": 1.5, "edge_ramp_ns": True,
               "scheme": "foo", "initial": 0}
        cfg.write_text(json.dumps({**bad, "gamma": 1, "dt_ns": None}))
        code = cli.main(["trajectory", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        problems = [line for line in err.splitlines() if line.startswith("  - ")]
        assert len(problems) == len(bad)
        assert all(any(repr(key) in line for line in problems) for key in bad)

    @pytest.mark.parametrize("key", ["omega0_mhz", "gamma"])
    def test_integer_too_large_for_a_float_is_config_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "big.json"
        cfg.write_text(f'{{"{key}": 1{"0" * 400}}}')
        assert cli.main(["gate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert f"config key {key!r}: expected float" in err

    def test_config_hash_stable_across_out_dirs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["gate", "--out-dir", str(d1)]) == 0
        assert cli.main(["gate", "--out-dir", str(d2)]) == 0
        h1 = read_summary(d1 / "gate_summary.txt")
        h2 = read_summary(d2 / "gate_summary.txt")
        meta1 = (d1 / "gate_summary.txt").read_text().splitlines()[:4]
        meta2 = (d2 / "gate_summary.txt").read_text().splitlines()[:4]
        assert meta1 == meta2
        assert h1 == h2

    @pytest.mark.parametrize(
        "argv, config, expected",
        [
            (("gate",), None, "ecbacbd1b596deba"),
            (("trajectory", "--amp-error=-0.03", "--initial", "e"), None, "6ab3429e220e0392"),
            (("gate", "--omega0", "4.0"), None, "8bc9130ea92f2edd"),
            # an int for a float flag keeps its JSON type and so its own hash
            (("gate",), {"gamma": 1, "omega0-mhz": "4.0", "dt_ns": None}, "21ad2cf09e9f32b5"),
            # the hash sorts its keys, so rb's did not move when --seed and --shots
            # left the flags of the other commands
            (("rb", "--seed", "7", "--shots", "100", "--lengths", "1,2,3", "--sequences", "10"),
             None, "b37f6091295ed16a"),
        ],
    )
    def test_config_hash_values_are_pinned(self, tmp_path, argv, config, expected):
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            argv = (*argv, "--config", str(tmp_path / "run.json"))
        assert run(tmp_path / "out", *argv) == 0
        (summary,) = (tmp_path / "out").glob("*_summary.txt")
        assert summary.read_text().splitlines()[2] == f"# config_hash = {expected}"


@pytest.mark.parametrize("flag", ["--seed", "--shots"])
@pytest.mark.parametrize("command", ["gate", "trajectory", "ramsey", "scan", "compare"])
def test_rb_only_flags_are_unknown_elsewhere(tmp_path, capsys, command, flag):
    # only rb draws sequences, so only rb takes a seed or a shot count
    assert run(tmp_path, command, f"{flag}=1") == 1
    assert problem_lines(capsys.readouterr().err) == [f"  - unknown flag {flag}"]


@pytest.mark.parametrize("argv, problem", [
    (("--seed", "1"), "unknown flag --seed"),
    (("--t", "1"), "ambiguous flag --t could match --theta, --threads"),
    (("--seed", "--theta", "1"), "unknown flag --seed"),
], ids=["unknown", "ambiguous", "unknown-switch"])
def test_unknown_flag_takes_its_value_with_it(tmp_path, capsys, argv, problem):
    # a token after an unknown or ambiguous flag is its value, not a second fault
    assert run(tmp_path, "gate", *argv) == 1
    assert problem_lines(capsys.readouterr().err) == [f"  - {problem}"]


NOISE_FLAGS = ("--t1-e0-us", "--t1-1e-us", "--tphi-e-us", "--tphi-1-us")
ERROR_FLAGS = ("--amp-error", "--detuning-error")

#: flags that take a finite value, per command: --detuning-error any finite
#: one, --amp-error one above -1, --error-range one inside (-1, 1),
#: --edge-ramp-ns a non-negative one and the rest a positive one; rb's
#: --seed takes a non-negative integer
CHECKED_FLAGS = {
    "gate": ("--omega0-mhz", "--edge-ramp-ns", "--dt-ns"),
    "trajectory": ("--omega0-mhz", "--edge-ramp-ns", *NOISE_FLAGS, *ERROR_FLAGS),
    "ramsey": ("--g-eff-mhz", "--t1-a-us"),
    "rb": ("--omega0-mhz", *NOISE_FLAGS, *ERROR_FLAGS, "--seed"),
    "scan": ("--omega0-mhz", *NOISE_FLAGS, "--error-range"),
    "compare": ("--omega0-mhz", *NOISE_FLAGS, *ERROR_FLAGS),
}
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: values that no number flag reads
UNPARSABLE = st.sampled_from(["abc", "", "1,5", "0x1", "1e"])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bad_inputs_exit_1_listing_every_problem(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(CHECKED_FLAGS)))
    flags = data.draw(st.lists(st.sampled_from(CHECKED_FLAGS[command]), min_size=1, unique=True))
    argv = [command]
    for flag in flags:
        if data.draw(st.booleans()):
            value = data.draw(UNPARSABLE)
            argv.append(f"{flag}={value}")
            continue
        if flag == "--amp-error":
            value = data.draw(st.floats(max_value=-1.0) | NON_FINITE)
        elif flag == "--error-range":
            value = data.draw(st.floats(min_value=1.0) | st.floats(max_value=-1.0) | NON_FINITE)
        elif flag == "--detuning-error":
            value = data.draw(NON_FINITE)
        elif flag == "--edge-ramp-ns":
            value = data.draw(st.floats(min_value=-1e6, max_value=-1e-6) | NON_FINITE)
        elif flag == "--seed":
            value = data.draw(st.integers(max_value=-1))
        else:
            value = data.draw(st.floats(min_value=-1e6, max_value=0.0) | NON_FINITE)
        argv.append(f"{flag}={value!r}")
    if data.draw(st.booleans()):
        # an unknown flag is one more fault of the same report
        flags.append("--no-such-flag")
        argv.insert(data.draw(st.integers(1, len(argv))), "--no-such-flag=1")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out-dir", str(tmp_path_factory.getbasetemp())])
    assert code != 2, argv
    assert code == 1, argv
    problems = [line for line in err.getvalue().splitlines() if line.startswith("  - ")]
    assert len(problems) == len(set(problems)), (argv, problems)
    for flag in flags:
        assert sum(flag in line for line in problems) == 1, (argv, problems)


@pytest.mark.parametrize(
    "argv",
    [
        ("trajectory", "--amp-error=-1"),
        ("rb", "--amp-error=-1.5"),
        ("compare", "--amp-error=-1", "--default-noise"),
        ("scan", "--error-range", "1"),
        ("scan", "--error-range=-2"),
    ],
)
def test_amplitude_error_that_stops_the_drive_is_config_error(tmp_path, capsys, argv):
    # an amplitude factor 1 + error at or below 0 turns the drive off or flips it
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert argv[1].partition("=")[0] in err


@pytest.mark.parametrize(
    "argv",
    [
        ("gate", "--omega0-mhz", "1e-320"),
        ("trajectory", "--omega0-mhz", "1e-320"),
        # 2 pi / omega is finite in seconds but overflows in ns
        ("trajectory", "--omega0-mhz", "1e-312"),
        ("scan", "--omega0-mhz", "1e-320"),
        ("rb", "--omega0-mhz", "1e-320"),
        ("compare", "--omega0-mhz", "1e-320"),
        ("ramsey", "--g-eff-mhz", "1e-320"),
    ],
)
def test_drive_too_weak_for_a_finite_loop_is_config_error(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert argv[1] in err


def test_amplitude_error_just_above_minus_one_runs(tmp_path):
    assert run(tmp_path / "traj", "trajectory", "--amp-error=-0.99") == 0
    assert run(tmp_path / "scan", "scan", "--error-range", "0.99", "--resolution", "5") == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("gate", "--gamma", "1e-12"),
        ("gate", "--gamma", repr(2 * PI - 1e-12)),
        ("trajectory", "--gamma", "1e-12"),
        ("ramsey", "--gamma", "1e-12"),
        ("scan", "--gamma", repr(2 * PI - 1e-12)),
        ("compare", "--gamma", "1e-12"),
        ("rb", "--interleaved-gamma", "1e-12"),
        # an even grid has no point at zero error for fidelity_origin
        ("scan", "--resolution", "6"),
    ],
)
def test_degenerate_loop_angle_is_config_error(tmp_path, capsys, argv):
    # within pulses.DEGENERATE_GAMMA_TOL of 0 or 2 pi synthesis would fail
    assert run(tmp_path, *argv) == 1
    assert argv[1] in capsys.readouterr().err


def problem_lines(err):
    return [line for line in err.splitlines() if line.startswith("  - ")]


#: (command, flag name, flag) of every number flag, each of which has an interval
NUMBER_FLAGS = [
    (command, name, flag)
    for command, (_, _, table) in cli._COMMANDS.items()
    for name, flag in table.items()
    if flag.type in (int, float)
]


@pytest.mark.parametrize("command, name, flag", NUMBER_FLAGS, ids=[c + n for c, n, _ in NUMBER_FLAGS])
def test_help_and_problem_line_quote_the_same_interval(tmp_path, capsys, command, name, flag):
    (line,) = [line for line in cli._usage([command]).splitlines() if line.startswith(f"  {name} ")]
    assert f"in {flag.interval}" in line
    lo, hi = flag.interval.lo, flag.interval.hi
    outside = [value for value in (lo - 1, hi + 1) if math.isfinite(value)]
    for value in [*outside, *([math.nan] if flag.type is float else [])]:
        assert value not in flag.interval
        assert run(tmp_path, command, f"{name}={value!r}") == 1
        (problem,) = problem_lines(capsys.readouterr().err)
        assert name in problem and str(flag.interval) in problem


@pytest.mark.parametrize(
    "interval, inside, outside",
    [
        (cli._Interval(), [-1e308, 0.0, 1e308], [math.nan, math.inf, -math.inf]),
        (cli._Interval(-1.0, 1.0), [-0.99, 0.99], [-1.0, 1.0, math.nan]),
        (cli._Interval(0.0, 1.0, True, True), [0.0, -0.0, 1.0], [-5e-324, 1.0000000000000002]),
        (cli._Interval(3, lo_closed=True), [3, 10**30], [2, math.inf]),
    ],
)
def test_interval_ends(interval, inside, outside):
    assert all(value in interval for value in inside)
    assert not any(value in interval for value in outside)


def test_loop_angle_interval_agrees_with_synthesis_to_the_float():
    tol = pulses.DEGENERATE_GAMMA_TOL
    for end in (0.0, tol, 2 * PI - tol, 2 * PI):
        gamma = end
        for _ in range(4):
            gamma = float(np.nextafter(gamma, -math.inf))
        for _ in range(8):
            try:
                pulses.synthesize(pulses.GateSpec(0.0, 0.0, gamma), 2 * PI * 8.66e6, "tounhqc")
            except ValueError:
                synthesizes = False
            else:
                synthesizes = True
            assert (gamma in cli._LOOP_ANGLE) == synthesizes, gamma
            gamma = float(np.nextafter(gamma, math.inf))


@pytest.mark.parametrize(
    "argv",
    [
        ("gate", "--edge-ramp-ns", "inf"),
        ("trajectory", "--edge-ramp-ns", "inf"),
        ("gate", "--gamma", "nan", "--edge-ramp-ns", "10"),
        ("scan", "--resolution", "4"),
        # a value that does not read is kept out of the rules the same way,
        # not replaced by its default
        ("gate", "--scheme", "foo", "--edge-ramp-ns", "101"),
        ("gate", "--gamma", "--edge-ramp-ns", "101"),
        ("trajectory", "--gamma", "abc", "--dt-ns", "0.0005"),
        ("compare", "--t1-e0-us", "abc", "--default-noise"),
    ],
)
def test_value_outside_its_interval_skips_the_rules_that_join_flags(tmp_path, capsys, argv):
    # the ramp, odd-resolution, default-noise and step rules read only
    # values that passed their intervals, so the bad flag is listed once
    assert run(tmp_path, *argv) == 1
    (problem,) = problem_lines(capsys.readouterr().err)
    assert argv[1] in problem


@pytest.mark.parametrize(
    "argv, faults",
    [
        (("gate", "--theta", "abc", "--phi", "100"), ("--theta", "--phi")),
        (("gate", "--config", "/nonexistent/run.json", "--theta", "9"), ("config file", "--theta")),
        (("rb", "--lengths", "2,4,8", "--sequences", "10", "--seeed", "3", "--shots", "0"),
         ("unknown flag --seeed", "--shots")),
        (("gate", "--theta=abc", "--phi", "100", "--gamma", "1e-12", "--edge-ramp-ns", "10"),
         ("--theta", "--phi", "--gamma")),
    ],
)
def test_read_and_interval_faults_share_one_report(tmp_path, capsys, argv, faults):
    # a flag that fails to read hides no fault of the other flags
    assert run(tmp_path / "out", *argv) == 1
    problems = problem_lines(capsys.readouterr().err)
    assert len(problems) == len(faults), problems
    for fault in faults:
        assert sum(fault in problem for problem in problems) == 1, problems
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (("gate", "--edge-ramp-ns", "101"), {"scheme": "foo"}),
        (("rb", "--default-noise"), {"tphi_e_us": "abc"}),
    ],
)
def test_config_value_that_fails_to_read_joins_no_rule(tmp_path, capsys, argv, config):
    # without the file's value, the rule would read the default instead
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert run(tmp_path / "out", *argv, "--config", str(tmp_path / "run.json")) == 1
    (problem,) = problem_lines(capsys.readouterr().err)
    assert repr(next(iter(config))) in problem


@pytest.mark.parametrize(
    "argv, config",
    [
        (("compare", "--default-noise", "--t1-e0-us", "1"), None),
        (("trajectory", "--tphi-1-us", "3"), {"default_noise": True}),
        (("rb", "--default-noise"), {"t1_1e_us": 2.0, "tphi_e_us": 4.0}),
    ],
)
def test_default_noise_with_a_rate_flag_is_config_error(tmp_path, capsys, argv, config):
    # --default-noise sets every rate, so it would drop the explicit ones
    rates = [arg for arg in argv if arg in NOISE_FLAGS]
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = (*argv, "--config", str(tmp_path / "run.json"))
        rates += ["--" + key.replace("_", "-") for key in config if key != "default_noise"]
    assert run(tmp_path / "out", *argv) == 1
    (problem,) = problem_lines(capsys.readouterr().err)
    assert all(flag in problem for flag in ("--default-noise", *rates))


def test_out_dir_naming_a_file_is_config_error(tmp_path, capsys):
    taken = tmp_path / "some_file"
    taken.write_text("")
    assert run(taken, "gate") == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "--out-dir" in err


@pytest.mark.parametrize(
    "argv, files",
    [
        (("scan", "--resolution", "5"), ("scan_grid.csv", "scan_summary.txt")),
        (("rb", "--lengths", "1,2,3", "--sequences", "10"), ("rb_survival.csv", "rb_summary.txt")),
    ],
)
def test_thread_count_leaves_outputs_byte_identical(tmp_path, argv, files):
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        assert cli.main([*argv, "--threads", threads, "--out-dir", str(out_dir)]) == 0
        outputs.append([(out_dir / name).read_bytes() for name in files])
    assert outputs[0] == outputs[1]


#: Commands that between them reach every propagation path: the frame
#: pieces (unitary and noisy), the sampled edge ramps (unitary and noisy),
#: the five-level model, the batched scan, the batched channels of
#: compare and of RB, and the RB fit.
NUMPY_ONLY_COMMANDS = [
    ["gate"],
    ["gate", "--edge-ramp-ns", "10"],
    ["trajectory", "--default-noise"],
    ["trajectory", "--default-noise", "--edge-ramp-ns", "10"],
    ["ramsey", "--t1-a-us", "20"],
    ["scan", "--resolution", "5"],
    ["compare", "--default-noise"],
    ["rb", "--scheme", "nhqc", "--default-noise", "--dt-ns", "1.0",
     "--lengths", "1,2,3", "--sequences", "10"],
]


def _python(*args, timeout=60):
    """Run a fresh interpreter that imports holosim from this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_runs_on_numpy_alone(tmp_path):
    # scipy is only the tests' reference: importing holosim must not load it,
    # nor a thread pool (concurrent.futures), and with every scipy import
    # blocked each command must still succeed.  The commands may load no
    # numpy submodule beyond those of the import, numpy.random included (RB
    # draws its sequences from random.Random): numpy.ma, say, costs every
    # fresh process its import.
    # Neither the import nor a command may load argparse, or the gettext and
    # locale modules it brings: with its parser set-up they took about 45% of
    # a short command's time in cli.main.
    script = textwrap.dedent("""
        import json, sys
        PARSING = ("argparse", "gettext", "locale")
        import holosim.cli
        loaded = [name for name in sys.modules
                  if name.split(".")[0] in ("scipy", "concurrent", *PARSING)]
        imported = set(sys.modules)
        sys.modules["scipy"] = None
        codes = [holosim.cli.main([*argv, "--out-dir", f"{sys.argv[1]}/{k}"])
                 for k, argv in enumerate(json.loads(sys.argv[2]))]
        numpy_extra = sorted(
            name for name in set(sys.modules) - imported
            if name.split(".")[0] == "numpy"
        )
        parsing = [name for name in PARSING if name in sys.modules]
        print(json.dumps({"loaded": loaded, "codes": codes, "numpy_extra": numpy_extra,
                          "parsing": parsing}))
    """)
    proc = _python("-c", script, str(tmp_path), json.dumps(NUMPY_ONLY_COMMANDS), timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert result["numpy_extra"] == []
    assert result["parsing"] == []
    assert dict(zip(map(" ".join, NUMPY_ONLY_COMMANDS), result["codes"])) == {
        " ".join(argv): 0 for argv in NUMPY_ONLY_COMMANDS
    }


def _help_flags(text):
    return {line.split()[0] for line in text.splitlines() if line.startswith("  --")}


def test_help_names_every_flag_of_every_command():
    top = _python("-m", "holosim.cli", "--help")
    assert top.returncode == 0, top.stderr
    for command, (_, _, flags) in cli._COMMANDS.items():
        assert f"holosim {command}:" in top.stdout
        assert set(flags) <= _help_flags(top.stdout)
        sub = _python("-m", "holosim.cli", command, "--help")
        assert sub.returncode == 0, sub.stderr
        assert _help_flags(sub.stdout) == set(flags)


@pytest.mark.parametrize("argv", [(), ("nosuch",), ("trajectory", "--t1", "5")])
def test_command_level_errors_exit_1(argv):
    # --t1 is ambiguous in trajectory: --t1-e0-us or --t1-1e-us
    proc = _python("-m", "holosim.cli", *argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("configuration error:")


def test_rb_builds_every_channel_in_one_exponential_call(tmp_path, monkeypatch):
    # the Cliffords, the interleaved target and every recovery gate of a run
    # are exponentiated together
    calls = []
    exponentials = evolve._exponentials

    def counted(*args, **kwargs):
        calls.append(args)
        return exponentials(*args, **kwargs)

    monkeypatch.setattr(evolve, "_exponentials", counted)
    for argv in (
        ("rb", "--scheme", "nhqc", "--default-noise", "--interleaved-gamma", "0.7854"),
        ("rb", "--default-noise"),
        ("rb", "--interleaved-gamma", "0.7854"),
    ):
        calls.clear()
        assert run(tmp_path, *argv, "--lengths", "1,2,4", "--sequences", "10") == 0
        assert len(calls) == 1


class TestFormatting:
    def test_float_formatting_round_trips(self, rng):
        for _ in range(1000):
            x = float(rng.normal() * 10.0 ** float(rng.integers(-12, 12)))
            assert float(cli._fmt(x)) == x

    def test_complex_formatting_round_trips(self, rng):
        for _ in range(100):
            z = complex(rng.normal(), rng.normal())
            assert complex(cli._fmt(z)) == z

    def test_edge_values(self):
        assert [cli._fmt(v) for v in (math.nan, -0.0, 5e-324, 1.7976931348623157e308)] == [
            "nan", "-0", "4.9406564584124654e-324", "1.7976931348623157e+308"
        ]
        assert [cli._fmt(10**17), cli._fmt(np.int64(10**17)), cli._fmt(1e17)] == [
            "100000000000000000", "100000000000000000", "1e+17"
        ]


EDGE_FLOATS = st.sampled_from([math.nan, -0.0, 0.0, 5e-324, 1.7976931348623157e308, -math.inf, 1e17])
TABLE_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | EDGE_FLOATS


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-2**53, 2**53), TABLE_FLOATS, TABLE_FLOATS), max_size=20))
def test_table_cells_render_as_fmt(rows):
    # float cells print as _fmt prints them, from float arrays (formatted in
    # one call) of 1, 2 and 5 columns, and an array without rows gives the
    # header alone; a float that holds an integer exactly prints as that
    # integer, as the m and sequence_index columns of rb_survival.csv do
    def cells(table, header):
        lines = cli._table_lines(header, table)
        assert lines[0] == ",".join(header)
        return [line.split(",") for line in lines[1:]]

    table = np.array(rows, dtype=float).reshape(-1, 3)
    expected = [[str(m), cli._fmt(x), cli._fmt(y)] for m, x, y in rows]
    assert cells(table, ["m", "x", "y"]) == expected
    values = [x for row in rows for x in row[1:]]
    for width in (1, 2, 5):
        kept = values[: len(values) - len(values) % width]
        floats = np.array(kept, dtype=float).reshape(-1, width)
        header = [f"c{k}" for k in range(width)]
        expected = [list(map(cli._fmt, kept[i : i + width])) for i in range(0, len(kept), width)]
        assert cells(floats, header) == expected
    assert cli._table_lines(["x"], np.empty((0, 1))) == ["x"]
