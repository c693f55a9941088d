"""Command-line front end.

Subcommands: gate, trajectory, ramsey, rb, scan, compare.  Each writes
comma-separated tables (``#``-prefixed metadata lines, then a header row)
and/or a key-value summary document into ``--out-dir``.  Floats are printed
with 17 significant digits so every table round-trips exactly; outputs are
byte-identical across reruns with the same configuration and seed.

Units at this interface: frequencies in MHz (the f/2pi convention), times
in ns, angles in radians.  Internally everything is rad/s and seconds.

Exit codes: 0 success, 1 configuration error, 2 numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from . import protocols, twoqubit
from .evolve import (
    ErrorInjection,
    IntegratorConfig,
    NoiseModel,
    dt_halving_delta,
    propagator,
)
from .gates import ideal_single_qubit
from .pulses import DEGENERATE_GAMMA_TOL, GateSpec, nhqc_duration, synthesize, tounhqc_duration
from .quantum import average_gate_fidelity

TWO_PI = 2.0 * math.pi


class ConfigError(Exception):
    """Aggregated configuration problems; printed as one report."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class _Parser(argparse.ArgumentParser):
    """Reports malformed flags as configuration errors (exit 1), not exit 2."""

    def error(self, message):
        raise ConfigError([message])


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return str(value)


def _matrix_lines(name: str, mat: np.ndarray) -> list[str]:
    lines = []
    for i, row in enumerate(mat):
        rendered = ", ".join(_fmt(complex(v)) for v in row)
        lines.append(f"{name}.row{i} = [{rendered}]")
    return lines


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _metadata_lines(args: dict, config_hash: str) -> list[str]:
    return [
        f"# tool = holosim {__version__}",
        f"# command = {args['command']}",
        f"# config_hash = {config_hash}",
    ]


def _write_table(
    path: str, meta: list[str], header: list[str], rows: list[Sequence] | np.ndarray
) -> None:
    """Write ``rows`` (row sequences, or a 2-d array) below ``meta`` and ``header``."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    lines = list(meta)
    lines.append(",".join(header))
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    _write_lines(path, lines)


def _write_summary(path: str, meta: list[str], entries: list[tuple[str, object]]) -> None:
    lines = list(meta)
    for key, value in entries:
        if isinstance(value, np.ndarray) and value.ndim == 2:
            lines.extend(_matrix_lines(key, value))
        else:
            lines.append(f"{key} = {_fmt(value)}")
    _write_lines(path, lines)


def _config_hash(params: dict) -> str:
    # out_dir and threads do not affect results; keep them out of the hash
    relevant = {
        k: v for k, v in sorted(params.items()) if k not in ("out_dir", "threads")
    }
    blob = json.dumps(relevant, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Argument parsing and validation
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults (flags override)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="accepted for compatibility; no command runs threads")
    p.add_argument("--dt-ns", type=float, default=None, help="integration step (ns)")
    p.add_argument("--shots", type=int, default=None, help="binomial sampling count")


def _add_noise(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t1-e0-us", type=float, default=None, help="T1 of |e> -> |0> (us)")
    p.add_argument("--t1-1e-us", type=float, default=None, help="T1 of |1> -> |e> (us)")
    p.add_argument("--tphi-e-us", type=float, default=None, help="pure dephasing of |e> (us)")
    p.add_argument("--tphi-1-us", type=float, default=None, help="pure dephasing of |1> (us)")
    p.add_argument(
        "--default-noise",
        action="store_true",
        help="use the documented default relaxation/dephasing rates",
    )


def _add_gate_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=("tounhqc", "nhqc"), default="tounhqc")
    p.add_argument("--theta", type=float, default=0.5 * math.pi)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.5 * math.pi)
    p.add_argument("--omega0-mhz", type=float, default=8.660)
    p.add_argument("--edge-ramp-ns", type=float, default=0.0)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = _Parser(
        prog="holosim",
        description="Pulse-level simulator for time-optimal holonomic gates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gate = sub.add_parser("gate", help="synthesize and verify one gate")
    _add_gate_params(p_gate)
    _add_common(p_gate)

    p_traj = sub.add_parser("trajectory", help="population/Bloch time series")
    _add_gate_params(p_traj)
    p_traj.add_argument(
        "--initial",
        choices=("0", "1", "e", "plus", "minus-i"),
        default="0",
        help="initial qutrit state",
    )
    p_traj.add_argument("--amp-error", type=float, default=0.0)
    p_traj.add_argument("--detuning-error", type=float, default=0.0)
    _add_noise(p_traj)
    _add_common(p_traj)

    p_ram = sub.add_parser("ramsey", help="conditioned-phase Ramsey fringes")
    p_ram.add_argument("--scheme", choices=("tounhqc", "nhqc"), default="tounhqc")
    p_ram.add_argument("--gamma", type=float, default=0.25 * math.pi)
    p_ram.add_argument("--g-eff-mhz", type=float, default=5.0)
    p_ram.add_argument("--points", type=int, default=41)
    p_ram.add_argument(
        "--t1-a-us", type=float, default=None, help="ancilla relaxation |a> -> |01> (us)"
    )
    _add_common(p_ram)

    p_rb = sub.add_parser("rb", help="Clifford randomized benchmarking")
    p_rb.add_argument("--scheme", choices=("tounhqc", "nhqc"), default="tounhqc")
    p_rb.add_argument("--omega0-mhz", type=float, default=8.660)
    p_rb.add_argument("--lengths", default="2,4,8,16,24,32", help="comma-separated m values")
    p_rb.add_argument("--sequences", type=int, default=20)
    p_rb.add_argument(
        "--interleaved-gamma",
        type=float,
        default=None,
        help="interleave a phase gate with this loop angle after every Clifford",
    )
    p_rb.add_argument("--amp-error", type=float, default=0.0)
    p_rb.add_argument("--detuning-error", type=float, default=0.0)
    _add_noise(p_rb)
    _add_common(p_rb)

    p_scan = sub.add_parser("scan", help="control-error robustness scan")
    p_scan.add_argument("--scheme", choices=("tounhqc", "nhqc"), default="tounhqc")
    p_scan.add_argument("--gamma", type=float, default=0.25 * math.pi)
    p_scan.add_argument("--omega0-mhz", type=float, default=8.660)
    p_scan.add_argument("--error-range", type=float, default=0.05)
    p_scan.add_argument("--resolution", type=int, default=21)
    p_scan.add_argument(
        "--detuning-absolute",
        action="store_true",
        help="treat the detuning axis as absolute rad/s instead of fractions of omega0",
    )
    _add_noise(p_scan)
    _add_common(p_scan)

    p_cmp = sub.add_parser("compare", help="scheme comparison report")
    p_cmp.add_argument("--gamma", type=float, default=0.25 * math.pi)
    p_cmp.add_argument("--omega0-mhz", type=float, default=8.660)
    p_cmp.add_argument("--amp-error", type=float, default=0.0)
    p_cmp.add_argument("--detuning-error", type=float, default=0.0)
    _add_noise(p_cmp)
    _add_common(p_cmp)

    subparsers = {
        "gate": p_gate,
        "trajectory": p_traj,
        "ramsey": p_ram,
        "rb": p_rb,
        "scan": p_scan,
        "compare": p_cmp,
    }
    return parser, subparsers


#: JSON types a config value may take, by the argparse type of its flag
#: (argparse converts string values itself).
_CONFIG_TYPES = {float: (int, float, str), int: (int, str), None: (str,)}


def _config_value_problem(action: argparse.Action, value) -> Optional[str]:
    """Why a config-file value cannot stand in for its flag, or None if it can."""
    if value is None:
        return None if action.default is None else "must not be null"
    # store_true switches take JSON true/false, which no other flag takes
    switch = action.nargs == 0
    types = (bool,) if switch else _CONFIG_TYPES[action.type]
    if isinstance(value, bool) != switch or not isinstance(value, types):
        return f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}"
    if isinstance(value, str) and action.type is not None:
        try:
            action.type(value)
        except ValueError:
            return f"expected {action.type.__name__}, got {value!r}"
    if action.choices is not None and value not in action.choices:
        return f"must be one of {', '.join(action.choices)}, got {value!r}"
    return None


def _parse_with_config(
    parser: argparse.ArgumentParser, subparsers: dict, argv
) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError([f"cannot read config file {args.config}: {exc}"])
        if not isinstance(file_values, dict):
            raise ConfigError([f"config file {args.config} must hold a JSON object"])
        defaults = {k.replace("-", "_"): v for k, v in file_values.items()}
        unknown = sorted(k for k in file_values if not hasattr(args, k.replace("-", "_")))
        problems = [f"unknown config keys: {', '.join(unknown)}"] if unknown else []
        subparser = subparsers[args.command]
        actions = {action.dest: action for action in subparser._actions}
        problems += [
            f"config key {key!r}: {problem}"
            for key, value in defaults.items()
            if key in actions and (problem := _config_value_problem(actions[key], value))
        ]
        if problems:
            raise ConfigError(problems)
        # defaults must land on the active subparser: its own defaults would
        # otherwise win over values seeded on the main parser
        subparser.set_defaults(**defaults)
        args = parser.parse_args(argv)  # explicit flags still win
    return args


#: Flags (by argparse destination) that must be positive whenever given.
_POSITIVE_FLAGS = (
    "dt_ns", "omega0_mhz", "g_eff_mhz",
    "t1_e0_us", "t1_1e_us", "tphi_e_us", "tphi_1_us", "t1_a_us",
)


def _validate_common(args, problems: list[str]) -> None:
    # every later check skips a non-finite value, so that it is listed once
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"--{dest.replace('_', '-')} must be finite, got {value}")
    for dest in _POSITIVE_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and math.isfinite(value) and not value > 0.0:
            flag = "--" + dest.replace("_", "-")
            problems.append(f"{flag} must be positive, got {value}")
    if args.shots is not None and args.shots < 1:
        problems.append("--shots must be a positive integer")
    if args.threads < 1:
        problems.append("--threads must be at least 1")


def _check_loop_angle(flag: str, gamma: float, problems: list[str]) -> bool:
    """Reject a loop angle that synthesis would find degenerate; True if usable.

    A non-finite angle is not usable, but _validate_common lists it.
    """
    tol = DEGENERATE_GAMMA_TOL
    if not math.isfinite(gamma):
        return False
    if gamma >= tol and TWO_PI - gamma >= tol:
        return True
    problems.append(f"{flag} must lie {tol:g} or more inside (0, 2 pi), got {gamma}")
    return False


def _validate_gate_spec(args, problems: list[str]) -> None:
    if math.isfinite(args.theta) and not 0.0 <= args.theta <= math.pi:
        problems.append(f"--theta must lie in [0, pi], got {args.theta}")
    if math.isfinite(args.phi) and not 0.0 <= args.phi < TWO_PI:
        problems.append(f"--phi must lie in [0, 2 pi), got {args.phi}")
    gamma_ok = _check_loop_angle("--gamma", args.gamma, problems)
    ramp = args.edge_ramp_ns * 1e-9
    if not math.isfinite(ramp):
        return
    if ramp < 0.0:
        problems.append(f"--edge-ramp-ns must be non-negative, got {args.edge_ramp_ns}")
    elif gamma_ok and math.isfinite(args.omega0_mhz) and args.omega0_mhz > 0.0:
        omega0 = TWO_PI * args.omega0_mhz * 1e6
        if args.scheme == "tounhqc":
            tau = tounhqc_duration(args.gamma, omega0)
        else:
            tau = nhqc_duration(omega0)
        if 2.0 * ramp > tau:
            problems.append(
                f"--edge-ramp-ns must be at most half the {tau * 1e9:.6g} ns loop, "
                f"got {args.edge_ramp_ns}"
            )


def _noise_from_args(args) -> NoiseModel:
    if args.default_noise:
        return protocols.default_noise_model()
    flags = {
        "t1_e_to_0": args.t1_e0_us,
        "t1_1_to_e": args.t1_1e_us,
        "tphi_e": args.tphi_e_us,
        "tphi_1": args.tphi_1_us,
    }
    kwargs = {name: us * 1e-6 for name, us in flags.items() if us is not None}
    if not kwargs:
        return NoiseModel()
    return NoiseModel.qutrit_relaxation(**kwargs)


def _integrator_from_args(args) -> IntegratorConfig:
    dt = args.dt_ns * 1e-9 if args.dt_ns is not None else None
    return IntegratorConfig(dt=dt)


def _err_from_args(args) -> ErrorInjection:
    return ErrorInjection(
        amp_fraction=getattr(args, "amp_error", 0.0),
        detuning_fraction=getattr(args, "detuning_error", 0.0),
    )


_INITIAL_STATES = {
    "0": np.array([1.0, 0.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0, 0.0], dtype=complex),
    "e": np.array([0.0, 0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0),
    "minus-i": np.array([1.0, -1.0j, 0.0], dtype=complex) / math.sqrt(2.0),
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_gate(args, params: dict) -> None:
    spec = GateSpec(theta=args.theta, phi=args.phi, gamma=args.gamma)
    omega0 = TWO_PI * args.omega0_mhz * 1e6
    schedule = synthesize(spec, omega0, args.scheme, edge_ramp=args.edge_ramp_ns * 1e-9)
    config = _integrator_from_args(args)
    u = propagator(schedule, config=config)
    ideal = ideal_single_qubit(spec)
    block = u[:2, :2]
    fidelity = average_gate_fidelity(ideal, block)
    leakage = 1.0 - float(np.min(np.sum(np.abs(block) ** 2, axis=0)))
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(3))))
    delta = dt_halving_delta(schedule, config=config, u=u)

    meta = _metadata_lines(params, _config_hash(params))
    entries = [
        ("scheme", args.scheme),
        ("theta_rad", args.theta),
        ("phi_rad", args.phi),
        ("gamma_rad", args.gamma),
        ("omega0_mhz", args.omega0_mhz),
        ("tau_ns", schedule.duration * 1e9),
        ("gate_fidelity", fidelity),
        ("gate_infidelity", 1.0 - fidelity),
        ("leakage", leakage),
        ("unitarity_defect", defect),
        ("dt_halving_delta", delta),
        ("propagator", u),
        ("ideal_gate", ideal),
    ]
    _write_summary(os.path.join(args.out_dir, "gate_summary.txt"), meta, entries)


def _cmd_trajectory(args, params: dict) -> None:
    spec = GateSpec(theta=args.theta, phi=args.phi, gamma=args.gamma)
    omega0 = TWO_PI * args.omega0_mhz * 1e6
    schedule = synthesize(spec, omega0, args.scheme, edge_ramp=args.edge_ramp_ns * 1e-9)
    report = protocols.trajectory_report(
        schedule,
        _INITIAL_STATES[args.initial],
        noise=_noise_from_args(args),
        err=_err_from_args(args),
        config=_integrator_from_args(args),
    )
    meta = _metadata_lines(params, _config_hash(params))
    t_ns = report.times * 1e9
    _write_table(
        os.path.join(args.out_dir, "trajectory_populations.csv"),
        meta,
        ["t_ns", "p0", "p1", "pe"],
        np.column_stack([t_ns, report.populations]),
    )
    _write_table(
        os.path.join(args.out_dir, "trajectory_bloch.csv"),
        meta,
        ["t_ns", "x", "y", "z", "subspace_population"],
        np.column_stack([t_ns, report.bloch]),
    )
    final_p = report.populations[-1]
    entries = [
        ("scheme", args.scheme),
        ("initial", args.initial),
        ("tau_ns", schedule.duration * 1e9),
        ("final_p0", final_p[0]),
        ("final_p1", final_p[1]),
        ("final_pe", final_p[2]),
        ("final_bloch_x", report.bloch[-1][0]),
        ("final_bloch_y", report.bloch[-1][1]),
        ("final_bloch_z", report.bloch[-1][2]),
    ]
    _write_summary(os.path.join(args.out_dir, "trajectory_summary.txt"), meta, entries)


def _cmd_ramsey(args, params: dict) -> None:
    model = twoqubit.CompositeModel(g_eff=TWO_PI * args.g_eff_mhz * 1e6)
    thetas = np.linspace(0.0, TWO_PI, args.points, endpoint=False)
    kwargs = dict(
        err=ErrorInjection(),
        noise=_noise_from_args_5d(args),
        config=_integrator_from_args(args),
        scheme=args.scheme,
    )
    fringe_on = twoqubit.ramsey_protocol(model, True, args.gamma, thetas, **kwargs)
    fringe_off = twoqubit.ramsey_protocol(model, False, args.gamma, thetas, **kwargs)
    shift = twoqubit.ramsey_phase_shift(fringe_on, fringe_off)

    meta = _metadata_lines(params, _config_hash(params))
    rows = [
        (theta, p_on, p_off)
        for (theta, p_on), (_, p_off) in zip(fringe_on, fringe_off)
    ]
    _write_table(
        os.path.join(args.out_dir, "ramsey_fringes.csv"),
        meta,
        ["theta_rad", "p_gate_on", "p_gate_off"],
        rows,
    )
    entries = [
        ("scheme", args.scheme),
        ("gamma_rad", args.gamma),
        ("g_eff_mhz", args.g_eff_mhz),
        ("phase_shift_rad", shift),
        ("phase_shift_minus_gamma", shift - args.gamma),
    ]
    _write_summary(os.path.join(args.out_dir, "ramsey_summary.txt"), meta, entries)


def _noise_from_args_5d(args) -> NoiseModel:
    """Composite-model noise: ancilla relaxation from the --t1-a-us flag."""
    if args.t1_a_us is not None:
        return twoqubit.ancilla_decay(args.t1_a_us * 1e-6)
    return NoiseModel()


def _cmd_rb(args, params: dict) -> None:
    lengths = tuple(int(tok) for tok in str(args.lengths).split(","))
    target = (
        GateSpec(theta=0.0, phi=0.0, gamma=args.interleaved_gamma)
        if args.interleaved_gamma is not None
        else None
    )
    config = protocols.RBConfig(
        sequence_lengths=lengths,
        sequences_per_length=args.sequences,
        seed=args.seed,
        scheme=args.scheme,
        interleaved_target=target,
        noise=_noise_from_args(args),
        err=_err_from_args(args),
        omega0=TWO_PI * args.omega0_mhz * 1e6,
        integrator=_integrator_from_args(args),
        shots=args.shots,
    )
    result = protocols.rb_run(config)

    meta = _metadata_lines(params, _config_hash(params))
    rows = []
    for m in result.lengths:
        for i_seq, value in enumerate(result.per_sequence[m]):
            rows.append((m, i_seq, value))
    _write_table(
        os.path.join(args.out_dir, "rb_survival.csv"),
        meta,
        ["m", "sequence_index", "survival"],
        rows,
    )
    entries: list[tuple[str, object]] = [
        ("scheme", args.scheme),
        ("seed", args.seed),
        ("interleaved", target is not None),
    ]
    if target is not None:
        entries.append(("interleaved_gamma_rad", args.interleaved_gamma))
    for m in result.lengths:
        entries.append((f"survival_mean.m{m}", result.survival_mean[m]))
        entries.append((f"survival_std.m{m}", result.survival_std[m]))
    fit = result.fit
    entries += [
        ("fit_success", fit.success),
        ("fit_degenerate", fit.degenerate),
        ("fit_a", fit.a),
        ("fit_p", fit.p),
        ("fit_b", fit.b),
        ("fit_a_err", fit.a_err),
        ("fit_p_err", fit.p_err),
        ("fit_b_err", fit.b_err),
    ]
    if fit.message:
        entries.append(("fit_message", fit.message))
    _write_summary(os.path.join(args.out_dir, "rb_summary.txt"), meta, entries)


def _cmd_scan(args, params: dict) -> None:
    span = abs(args.error_range)
    result = protocols.robustness_scan(
        args.scheme,
        args.gamma,
        amp_range=(-span, span),
        detuning_range=(-span, span),
        resolution=args.resolution,
        noise=_noise_from_args(args),
        config=_integrator_from_args(args),
        omega0=TWO_PI * args.omega0_mhz * 1e6,
        detuning_absolute=args.detuning_absolute,
    )
    meta = _metadata_lines(params, _config_hash(params))
    amp, det = np.meshgrid(result.amp_axis, result.detuning_axis, indexing="ij")
    _write_table(
        os.path.join(args.out_dir, "scan_grid.csv"),
        meta,
        ["amp_err", "det_err", "fidelity"],
        np.column_stack([amp.ravel(), det.ravel(), result.fidelity.ravel()]),
    )
    origin = result.fidelity[args.resolution // 2, args.resolution // 2]
    entries = [
        ("scheme", args.scheme),
        ("gamma_rad", args.gamma),
        ("resolution", args.resolution),
        ("detuning_absolute", args.detuning_absolute),
        ("fidelity_origin", origin),
        ("fidelity_min", float(result.fidelity.min())),
        ("fidelity_max", float(result.fidelity.max())),
    ]
    _write_summary(os.path.join(args.out_dir, "scan_summary.txt"), meta, entries)


def _cmd_compare(args, params: dict) -> None:
    noise = _noise_from_args(args)
    report = protocols.compare_schemes(
        args.gamma,
        omega0=TWO_PI * args.omega0_mhz * 1e6,
        noise=noise,
        err=_err_from_args(args),
        config=_integrator_from_args(args),
    )
    meta = _metadata_lines(params, _config_hash(params))
    entries = [
        ("gamma_rad", args.gamma),
        ("tau_tounhqc_ns", report.tau_tounhqc * 1e9),
        ("tau_nhqc_ns", report.tau_nhqc * 1e9),
        ("tau_ratio", report.tau_tounhqc / report.tau_nhqc),
        ("fidelity_tounhqc", report.fidelity_tounhqc),
        ("fidelity_nhqc", report.fidelity_nhqc),
        ("error_tounhqc", report.error_tounhqc),
        ("error_nhqc", report.error_nhqc),
        (
            "error_reduction",
            "n/a" if report.error_reduction is None else report.error_reduction,
        ),
    ]
    _write_summary(os.path.join(args.out_dir, "compare_summary.txt"), meta, entries)


_COMMANDS = {
    "gate": (_cmd_gate, _validate_gate_spec),
    "trajectory": (_cmd_trajectory, _validate_gate_spec),
    "ramsey": (_cmd_ramsey, None),
    "rb": (_cmd_rb, None),
    "scan": (_cmd_scan, None),
    "compare": (_cmd_compare, None),
}


def _validate(args) -> None:
    problems: list[str] = []
    _validate_common(args, problems)
    extra = _COMMANDS[args.command][1]
    if extra is not None:
        extra(args, problems)
    if args.command in ("ramsey", "scan", "compare"):
        _check_loop_angle("--gamma", args.gamma, problems)
    if args.command == "ramsey" and args.points < 3:
        problems.append("--points must be at least 3")
    if args.command == "scan" and (args.resolution < 5 or args.resolution % 2 == 0):
        # the summary's fidelity_origin is the centre point of the grid
        problems.append(f"--resolution must be odd and at least 5, got {args.resolution}")
    if args.command == "rb":
        try:
            lengths = tuple(int(tok) for tok in str(args.lengths).split(","))
        except ValueError:
            problems.append(f"--lengths must be comma-separated integers, got {args.lengths!r}")
        else:
            if any(m <= 0 for m in lengths):
                problems.append("--lengths entries must be positive")
            if any(b <= a for a, b in zip(lengths, lengths[1:])):
                problems.append("--lengths must be strictly increasing")
            if len(lengths) < 3:
                problems.append("--lengths needs at least 3 values to fit a decay")
        if args.sequences < 10:
            problems.append("--sequences must be at least 10 for a stable fit")
        if args.interleaved_gamma is not None:
            _check_loop_angle("--interleaved-gamma", args.interleaved_gamma, problems)
    if problems:
        raise ConfigError(problems)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, subparsers = build_parser()
    try:
        args = _parse_with_config(parser, subparsers, argv)
        _validate(args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1

    params = {k: v for k, v in vars(args).items() if k != "config"}
    os.makedirs(args.out_dir, exist_ok=True)
    command = _COMMANDS[args.command][0]
    try:
        command(args, params)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
