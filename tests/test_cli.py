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

from holosim import cli, evolve

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

    def test_numeric_failure_exit_code(self, tmp_path):
        # a 50 ns step on a 100 ns schedule violates the step-size contract
        assert run(tmp_path, "gate", "--dt-ns", "50") == 2


class TestTrajectoryCommand:
    def test_sqrt_x_files_and_endpoint(self, tmp_path):
        assert run(tmp_path, "trajectory", "--initial", "0") == 0
        summary = read_summary(tmp_path / "trajectory_summary.txt")
        assert float(summary["final_p0"]) == pytest.approx(0.5, abs=1e-4)
        assert float(summary["final_bloch_y"]) == pytest.approx(-1.0, abs=1e-4)
        _, header, rows = read_table(tmp_path / "trajectory_populations.csv")
        assert header == ["t_ns", "p0", "p1", "pe"]
        assert len(rows) > 50


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

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        assert cli.main(["gate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_wrongly_typed_values_listed(self, tmp_path, capsys):
        cfg = tmp_path / "typed.json"
        bad = {"omega0_mhz": [1], "theta": "x", "seed": 1.5, "threads": True,
               "scheme": "foo", "initial": 0}
        cfg.write_text(json.dumps({**bad, "gamma": 1, "dt_ns": None}))
        code = cli.main(["trajectory", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        problems = [line for line in err.splitlines() if line.startswith("  - ")]
        assert len(problems) == len(bad)
        assert all(any(repr(key) in line for line in problems) for key in bad)

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


NOISE_FLAGS = ("--t1-e0-us", "--t1-1e-us", "--tphi-e-us", "--tphi-1-us")
ERROR_FLAGS = ("--amp-error", "--detuning-error")

#: flags that take a finite value, per command: the errors any finite one,
#: --edge-ramp-ns a non-negative one and the rest a positive one
CHECKED_FLAGS = {
    "gate": ("--omega0-mhz", "--edge-ramp-ns", "--dt-ns"),
    "trajectory": ("--omega0-mhz", "--edge-ramp-ns", *NOISE_FLAGS, *ERROR_FLAGS),
    "ramsey": ("--g-eff-mhz", "--t1-a-us"),
    "rb": ("--omega0-mhz", *NOISE_FLAGS, *ERROR_FLAGS),
    "scan": ("--omega0-mhz", *NOISE_FLAGS, "--error-range"),
    "compare": ("--omega0-mhz", *NOISE_FLAGS, *ERROR_FLAGS),
}
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bad_inputs_exit_1_listing_every_problem(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(CHECKED_FLAGS)))
    flags = data.draw(st.lists(st.sampled_from(CHECKED_FLAGS[command]), min_size=1, unique=True))
    argv = [command]
    for flag in flags:
        if flag in (*ERROR_FLAGS, "--error-range"):
            value = data.draw(NON_FINITE)
        elif flag == "--edge-ramp-ns":
            value = data.draw(st.floats(min_value=-1e6, max_value=-1e-6) | NON_FINITE)
        else:
            value = data.draw(st.floats(min_value=-1e6, max_value=0.0) | NON_FINITE)
        argv.append(f"{flag}={value!r}")
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


#: Commands that between them reach every propagation path: the constant
#: frame pieces (unitary and noisy), the stepped ramp windows (unitary and
#: noisy), the five-level model, the batched scan, the batched channels of
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


def test_runs_on_numpy_alone(tmp_path):
    # scipy is only the tests' reference: importing holosim must not load it,
    # nor a thread pool (concurrent.futures), and with every scipy import
    # blocked each command must still succeed
    script = textwrap.dedent("""
        import json, sys
        import holosim.cli
        loaded = [name for name in sys.modules if name.split(".")[0] in ("scipy", "concurrent")]
        sys.modules["scipy"] = None
        codes = [holosim.cli.main([*argv, "--out-dir", f"{sys.argv[1]}/{k}"])
                 for k, argv in enumerate(json.loads(sys.argv[2]))]
        print(json.dumps({"loaded": loaded, "codes": codes}))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), json.dumps(NUMPY_ONLY_COMMANDS)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert dict(zip(map(" ".join, NUMPY_ONLY_COMMANDS), result["codes"])) == {
        " ".join(argv): 0 for argv in NUMPY_ONLY_COMMANDS
    }


def test_ramped_gate_builds_each_stepper_propagator_once(tmp_path, monkeypatch):
    # a ramped gate steps its windows twice: its own propagator doubles as
    # the coarse half of dt_halving_delta; a ramp-free gate steps nothing
    calls = []
    stepped = evolve._varying_maps

    def counted(*args, **kwargs):
        calls.append(args)
        return stepped(*args, **kwargs)

    monkeypatch.setattr(evolve, "_varying_maps", counted)
    assert run(tmp_path, "gate", "--edge-ramp-ns", "10") == 0
    assert len(calls) == 2
    calls.clear()
    assert run(tmp_path, "gate") == 0
    assert calls == []


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
