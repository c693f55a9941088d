"""Command-line front end.

Subcommands: gate, trajectory, ramsey, rb, scan, compare.  Each returns its
files by name, a comma-separated table as (header, 2-d float array) and a
key-value summary as its entries; ``main`` writes them into ``--out-dir``
below the same ``#``-prefixed metadata lines.  Floats are printed with 17
significant digits so every table round-trips exactly; outputs are
byte-identical across reruns with the same configuration and seed.

Units at this interface: frequencies in MHz (the f/2pi convention), times
in ns, angles in radians.  Internally everything is rad/s and seconds.

``--dt-ns`` is read by ``trajectory`` alone: its loop takes
ceil(duration / dt) equal steps, 100 without the flag, and each table
has a row at t = 0 and at the end of each step.  The other five commands
accept the flag and ignore it: none of their gates takes a step.

One table, ``_COMMANDS``, lists each command's flags with their types,
defaults, choices, help and, for a number flag, the interval its value must
lie in.  ``main`` reads argv against it (a unique prefix abbreviates a flag),
puts flags over ``--config`` file values over defaults, checks each value
against its flag's interval as it reads it, keeps a value that fails out of
the few rules that join flags, and lists every fault in one report; only a
command without one makes its output directory.  ``--help`` prints the
same intervals.

Exit codes: 0 success, 1 configuration error, 2 numeric failure (a
floating-point overflow, division by zero or invalid operation included) or
an allocation that fails.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from . import evolve, protocols, twoqubit
from .evolve import (
    ErrorInjection,
    IntegratorConfig,
    NoiseModel,
    propagator,
    trajectory_steps,
)
from .gates import ideal_single_qubit
from .pulses import LOOP_ANGLES, GateSpec, nhqc_duration, synthesize
from .quantum import (average_channel_fidelity, bloch_rows, density, leakage, unitarity_defect,
                      unitary_channel)

TWO_PI = 2.0 * math.pi


class ConfigError(Exception):
    """Aggregated configuration problems; printed as one report."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


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


def _metadata_lines(command: str, config_hash: str) -> list[str]:
    return [
        f"# tool = holosim {__version__}",
        f"# command = {command}",
        f"# config_hash = {config_hash}",
    ]


def _table_lines(header: list[str], rows: np.ndarray) -> list[str]:
    """``header`` and ``rows``, a 2-d float array, as comma-separated lines.

    The array is formatted in one call over its flattened values, in the
    format _fmt gives a float.
    """
    lines = [",".join(header)]
    if len(rows):
        line = ",".join(["%.17g"] * rows.shape[1])
        lines.extend(("\n".join([line] * len(rows)) % tuple(rows.ravel().tolist())).split("\n"))
    return lines


def _summary_lines(entries: list[tuple[str, object]]) -> list[str]:
    lines = []
    for key, value in entries:
        if isinstance(value, np.ndarray) and value.ndim == 2:
            lines.extend(_matrix_lines(key, value))
        else:
            lines.append(f"{key} = {_fmt(value)}")
    return lines


def _config_hash(params: dict) -> str:
    # the config path, out_dir and threads do not affect results; keep them out of the hash
    relevant = {
        k: v for k, v in sorted(params.items()) if k not in ("config", "out_dir", "threads")
    }
    blob = json.dumps(relevant, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Argument parsing and validation
# ---------------------------------------------------------------------------


class _Interval(NamedTuple):
    """The numbers a flag accepts: from ``lo`` to ``hi``, each end open unless closed.

    An open end at infinity keeps the end out, so the real line rejects NaN and
    +-inf alike.
    """

    lo: float = -math.inf
    hi: float = math.inf
    lo_closed: bool = False
    hi_closed: bool = False

    def __contains__(self, x) -> bool:
        above = self.lo <= x if self.lo_closed else self.lo < x
        return above and (x <= self.hi if self.hi_closed else x < self.hi)

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo!r}, {self.hi!r}{right}"


class _Flag(NamedTuple):
    """One flag of the table; ``type`` bool marks a switch, which takes no value.

    A number flag's value must lie in ``interval``.
    """

    type: type
    default: object = None
    help: str = ""
    choices: tuple = ()
    interval: _Interval = _Interval()


def _convert(flag: _Flag, value):
    """``value``, a flag string or a config-file JSON value, as the flag holds it.

    A string goes through the flag's type; a JSON number keeps its own type,
    so an int given for a float flag stays an int, if a float can hold it.
    A number must lie in the flag's interval.  ValueError names the fault.
    """
    if value is None and flag.default is None:
        return None
    if isinstance(value, str) and flag.type is not bool:
        try:
            value = flag.type(value)
        except ValueError:
            raise ValueError(f"expected {flag.type.__name__}, got {value!r}") from None
    elif isinstance(value, bool) != (flag.type is bool) or not isinstance(
        value, (int, float) if flag.type is float else flag.type
    ):
        raise ValueError(f"expected {flag.type.__name__}, got {value!r}")
    elif flag.type is float and isinstance(value, int):
        try:
            float(value)  # a JSON int keeps its type, but flag rules do float arithmetic
        except OverflowError:
            raise ValueError("expected float, got an integer too large for one") from None
    if flag.choices and value not in flag.choices:
        raise ValueError(f"must be one of {', '.join(flag.choices)}, got {value!r}")
    if flag.type in (int, float) and value not in flag.interval:
        raise ValueError(f"must lie in {flag.interval}, got {value}")
    return value


def _config_values(path: str, table: dict, problems: list[str]) -> dict:
    """The converted values of a --config file, by flag; its faults go to ``problems``."""
    try:
        with open(path) as fh:
            file_values = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read config file {path!r}: {exc}")
        return {}
    if not isinstance(file_values, dict):
        problems.append(f"config file {path} must hold a JSON object")
        return {}
    values = {}
    for key, value in file_values.items():
        name = "--" + key.replace("_", "-")  # the key is "omega0_mhz" or "omega0-mhz"
        try:
            values[name] = _convert(table[name], value)
        except KeyError:
            problems.append(f"unknown config key {key!r}")
        except ValueError as exc:
            problems.append(f"config key {key!r}: {exc}")
            values[name] = None  # kept out of the rules, as in _parse_args
    return values


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Flags over config-file values over defaults for command ``argv[0]``; every fault in one ConfigError.

    A value that does not read or lies outside its interval is listed and set to None, as if unset.
    """
    table = _COMMANDS[argv[0]][2]
    values = {name: flag.default for name, flag in table.items()}
    given, problems = {}, []
    tokens = list(argv[1:])
    while tokens:
        token = tokens.pop(0)
        name, sep, value = token.partition("=")
        matches = [name] if name in table else [n for n in table if n.startswith(name)]
        if not token.startswith("--"):
            problems.append(f"unexpected value {token!r}")
        elif len(matches) != 1:
            problems.append(f"ambiguous flag {name} could match {', '.join(matches)}"
                            if matches else f"unknown flag {name}")
            if not sep and tokens and not tokens[0].startswith("--"):
                tokens.pop(0)  # its value, so that one fault is listed once
        else:
            name, flag = matches[0], table[matches[0]]
            if not sep and flag.type is not bool and tokens and not tokens[0].startswith("--"):
                sep, value = "=", tokens.pop(0)
            try:
                if bool(sep) == (flag.type is bool):  # a switch takes no value, any other flag one
                    raise ValueError("takes no value" if sep else "expects a value")
                given[name] = _convert(flag, value) if sep else True
            except ValueError as exc:
                problems.append(f"{name} {exc}")
                given[name] = None
    if given.get("--config") is not None:
        values.update(_config_values(given["--config"], table, problems))
    values.update(given)
    args = SimpleNamespace(command=argv[0],
                           **{name[2:].replace("-", "_"): value for name, value in values.items()})
    _validate(args, {name: value for name, value in values.items() if value is not None}, problems)
    if problems:
        raise ConfigError(problems)
    return args


def _usage(commands: Sequence[str]) -> str:
    lines = ["usage: holosim <command> [--flag VALUE | --flag=VALUE | --switch] ...",
             "A unique prefix abbreviates a flag; <command> --help lists its flags."]
    for command in commands:
        summary, table = _COMMANDS[command][1:]
        lines += ["", f"holosim {command}: {summary}"]
        for name, flag in table.items():
            value = "{" + ",".join(flag.choices) + "}" if flag.choices else flag.type.__name__.upper()
            notes = [] if flag.default is None or flag.type is bool else [f"default {flag.default}"]
            if flag.type in (int, float):
                notes.append(f"in {flag.interval}")
            spec = name if flag.type is bool else f"{name} {value}"
            note = f" ({'; '.join(notes)})" if notes else ""
            lines.append(f"  {spec:<29} {flag.help}{note}".rstrip())
    return "\n".join(lines)


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
    return NoiseModel.qutrit_relaxation(**kwargs)


def _synthesize_from_args(args) -> tuple:
    spec = GateSpec(theta=args.theta, phi=args.phi, gamma=args.gamma)
    omega0 = TWO_PI * args.omega0_mhz * 1e6
    return spec, synthesize(spec, omega0, args.scheme, edge_ramp=args.edge_ramp_ns * 1e-9)


def _integrator_from_args(args) -> IntegratorConfig:
    dt = args.dt_ns * 1e-9 if args.dt_ns is not None else None
    return IntegratorConfig(dt=dt)


def _err_from_args(args) -> ErrorInjection:
    return ErrorInjection(
        amp_fraction=args.amp_error,
        detuning_fraction=args.detuning_error,
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


def _cmd_gate(args) -> dict:
    spec, schedule = _synthesize_from_args(args)
    u = propagator(schedule)
    ideal = ideal_single_qubit(spec)
    fidelity = average_channel_fidelity(unitary_channel(u), ideal)

    entries = [
        ("scheme", args.scheme),
        ("theta_rad", args.theta),
        ("phi_rad", args.phi),
        ("gamma_rad", args.gamma),
        ("omega0_mhz", args.omega0_mhz),
        ("tau_ns", schedule.duration * 1e9),
        ("gate_fidelity", fidelity),
        ("gate_infidelity", 1.0 - fidelity),
        ("leakage", leakage(u[:2, :2])),
        ("unitarity_defect", unitarity_defect(u)),
        # no full-schedule map takes a step; the field stays for its readers
        ("dt_halving_delta", 0.0),
        ("propagator", u),
        ("ideal_gate", ideal),
    ]
    return {"gate_summary.txt": entries}


def _cmd_trajectory(args) -> dict:
    _, schedule = _synthesize_from_args(args)
    # called on the module, whose names a tracer may wrap
    traj = evolve.evolve_density(density(_INITIAL_STATES[args.initial]), schedule,
                                 _noise_from_args(args), _err_from_args(args), _integrator_from_args(args))
    populations = np.einsum("nii->ni", traj.states).real
    bloch = bloch_rows(traj.states)
    t_ns = traj.times * 1e9
    entries = [
        ("scheme", args.scheme),
        ("initial", args.initial),
        ("tau_ns", schedule.duration * 1e9),
        ("final_p0", populations[-1][0]),
        ("final_p1", populations[-1][1]),
        ("final_pe", populations[-1][2]),
        ("final_bloch_x", bloch[-1][0]),
        ("final_bloch_y", bloch[-1][1]),
        ("final_bloch_z", bloch[-1][2]),
    ]
    return {
        "trajectory_populations.csv": (["t_ns", "p0", "p1", "pe"], np.column_stack([t_ns, populations])),
        "trajectory_bloch.csv": (["t_ns", "x", "y", "z", "subspace_population"],
                                 np.column_stack([t_ns, bloch])),
        "trajectory_summary.txt": entries,
    }


def _cmd_ramsey(args) -> dict:
    model = twoqubit.CompositeModel(g_eff=TWO_PI * args.g_eff_mhz * 1e6)
    thetas = np.linspace(0.0, TWO_PI, args.points, endpoint=False)
    noise = NoiseModel() if args.t1_a_us is None else twoqubit.ancilla_decay(args.t1_a_us * 1e-6)
    fringe_on = twoqubit.ramsey_protocol(model, True, args.gamma, thetas, noise, args.scheme)
    fringe_off = twoqubit.ramsey_protocol(model, False, args.gamma, thetas, noise, args.scheme)
    shift = twoqubit.ramsey_phase_shift(fringe_on, fringe_off)

    fringes = np.column_stack([np.array(fringe_on), np.array(fringe_off)[:, 1]])
    entries = [
        ("scheme", args.scheme),
        ("gamma_rad", args.gamma),
        ("g_eff_mhz", args.g_eff_mhz),
        ("phase_shift_rad", shift),
        ("phase_shift_minus_gamma", shift - args.gamma),
    ]
    return {
        "ramsey_fringes.csv": (["theta_rad", "p_gate_on", "p_gate_off"], fringes),
        "ramsey_summary.txt": entries,
    }


def _lengths(text: str) -> tuple[int, ...]:
    """The sequence lengths of a --lengths value; ValueError for a token that is no integer."""
    return tuple(int(tok) for tok in text.split(","))


def _cmd_rb(args) -> dict:
    lengths = _lengths(args.lengths)
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
        shots=args.shots,
    )
    result = protocols.rb_run(config)

    # integer-valued floats print as their integers in %.17g
    n = args.sequences
    survival = np.column_stack([
        np.repeat(result.lengths, n),
        np.tile(np.arange(n), len(result.lengths)),
        np.concatenate([result.per_sequence[m] for m in result.lengths]),
    ])
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
    return {
        "rb_survival.csv": (["m", "sequence_index", "survival"], survival),
        "rb_summary.txt": entries,
    }


def _cmd_scan(args) -> dict:
    omega0 = TWO_PI * args.omega0_mhz * 1e6
    result = protocols.robustness_scan(
        args.scheme,
        args.gamma,
        span=abs(args.error_range),
        resolution=args.resolution,
        noise=_noise_from_args(args),
        omega0=omega0,
    )
    # --error-range is a fraction on both axes; --detuning-absolute only
    # reports the detuning axis in rad/s
    det_axis = result.axis * omega0 if args.detuning_absolute else result.axis
    amp, det = np.meshgrid(result.axis, det_axis, indexing="ij")
    grid = np.column_stack([amp.ravel(), det.ravel(), result.fidelity.ravel()])
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
    return {
        "scan_grid.csv": (["amp_err", "det_err", "fidelity"], grid),
        "scan_summary.txt": entries,
    }


def _cmd_compare(args) -> dict:
    noise = _noise_from_args(args)
    report = protocols.compare_schemes(
        args.gamma,
        omega0=TWO_PI * args.omega0_mhz * 1e6,
        noise=noise,
        err=_err_from_args(args),
    )
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
    return {"compare_summary.txt": entries}


_POSITIVE = _Interval(0.0)
_LOOP_ANGLE = _Interval(*LOOP_ANGLES, True, True)
_SCHEME = {"--scheme": _Flag(str, "tounhqc", choices=("tounhqc", "nhqc"))}
_OMEGA0 = {"--omega0-mhz": _Flag(float, 8.660, interval=_POSITIVE)}
_QUARTER_PI_GAMMA = {"--gamma": _Flag(float, 0.25 * math.pi, interval=_LOOP_ANGLE)}
_GATE_PARAMS = {
    **_SCHEME,
    "--theta": _Flag(float, 0.5 * math.pi, interval=_Interval(0.0, math.pi, True, True)),
    "--phi": _Flag(float, 0.0, interval=_Interval(0.0, TWO_PI, True)),
    "--gamma": _Flag(float, 0.5 * math.pi, interval=_LOOP_ANGLE),
    **_OMEGA0,
    "--edge-ramp-ns": _Flag(float, 0.0, interval=_Interval(0.0, lo_closed=True)),
}
# an amplitude factor 1 + error at or below 0 turns the drive off or flips it
_ERRORS = {
    "--amp-error": _Flag(float, 0.0, interval=_Interval(-1.0)),
    "--detuning-error": _Flag(float, 0.0),
}
_NOISE = {
    "--t1-e0-us": _Flag(float, None, "T1 of |e> -> |0> (us)", interval=_POSITIVE),
    "--t1-1e-us": _Flag(float, None, "T1 of |1> -> |e> (us)", interval=_POSITIVE),
    "--tphi-e-us": _Flag(float, None, "pure dephasing of |e> (us)", interval=_POSITIVE),
    "--tphi-1-us": _Flag(float, None, "pure dephasing of |1> (us)", interval=_POSITIVE),
    "--default-noise": _Flag(bool, False, "use the documented default relaxation/dephasing "
                             "rates instead of the four rate flags"),
}
_COMMON = {
    "--config": _Flag(str, None, "JSON file with defaults (flags override)"),
    "--out-dir": _Flag(str, ".", "output directory"),
    "--threads": _Flag(int, os.cpu_count() or 1, "accepted for compatibility; no command runs threads",
                       interval=_Interval(1, lo_closed=True)),
    "--dt-ns": _Flag(float, None, "trajectory step (ns): ceil(duration / dt) equal steps, "
                     "100 by default; the other commands ignore it",
                     interval=_POSITIVE),
}

#: command -> (run, summary, {flag: _Flag}).  Flag ``--a-b``
#: lands in attribute ``a_b`` of a namespace that holds ``command``, then
#: every flag of the command in this order.
_COMMANDS = {
    "gate": (_cmd_gate, "synthesize and verify one gate", {
        **_GATE_PARAMS, **_COMMON,
    }),
    "trajectory": (_cmd_trajectory, "population/Bloch time series", {
        **_GATE_PARAMS,
        "--initial": _Flag(str, "0", "initial qutrit state", ("0", "1", "e", "plus", "minus-i")),
        **_ERRORS, **_NOISE, **_COMMON,
    }),
    "ramsey": (_cmd_ramsey, "conditioned-phase Ramsey fringes", {
        **_SCHEME, **_QUARTER_PI_GAMMA,
        "--g-eff-mhz": _Flag(float, 5.0, interval=_POSITIVE),
        "--points": _Flag(int, 41, interval=_Interval(3, lo_closed=True)),
        "--t1-a-us": _Flag(float, None, "ancilla relaxation |a> -> |01> (us)", interval=_POSITIVE),
        **_COMMON,
    }),
    "rb": (_cmd_rb, "Clifford randomized benchmarking", {
        **_SCHEME, **_OMEGA0,
        "--lengths": _Flag(str, "2,4,8,16,24,32", "comma-separated m values"),
        "--sequences": _Flag(int, 20, interval=_Interval(10, lo_closed=True)),
        "--interleaved-gamma": _Flag(float, None, "interleave a phase gate with this loop "
                                     "angle after every Clifford", interval=_LOOP_ANGLE),
        "--seed": _Flag(int, 0, interval=_Interval(0, lo_closed=True)),
        "--shots": _Flag(int, None, "binomial sampling count", interval=_Interval(1, lo_closed=True)),
        **_ERRORS, **_NOISE, **_COMMON,
    }),
    "scan": (_cmd_scan, "control-error robustness scan", {
        **_SCHEME, **_QUARTER_PI_GAMMA, **_OMEGA0,
        "--error-range": _Flag(float, 0.05, "half-width of both axes, as fractions "
                               "(of the amplitude, and of omega0 for the detuning)",
                               interval=_Interval(-1.0, 1.0)),
        "--resolution": _Flag(int, 21, "grid points per axis; odd, so that one is at zero error",
                              interval=_Interval(5, lo_closed=True)),
        "--detuning-absolute": _Flag(bool, False, "write the detuning axis in rad/s "
                                     "(error-range x omega0) instead of as fractions"),
        **_NOISE, **_COMMON,
    }),
    "compare": (_cmd_compare, "scheme comparison report", {
        **_QUARTER_PI_GAMMA, **_OMEGA0, **_ERRORS, **_NOISE, **_COMMON,
    }),
}


def _validate(args, valid: dict, problems: list[str]) -> None:
    """Append each broken rule that joins flags to ``problems``; a rule reads only flags in ``valid``."""
    # so weak a drive that its longest loop, 2 pi / omega, overflows in ns has no times
    for name in ("--omega0-mhz", "--g-eff-mhz"):
        if name in valid and not math.isfinite(nhqc_duration(TWO_PI * valid[name] * 1e6) * 1e9):
            problems.append(f"{name} is too small: its 2 pi / omega loop "
                            f"overflows in ns, got {valid[name]}")
            del valid[name]  # the rules below read only loops with finite times
    # a positive step that rounds to 0 s is too small for any loop
    if args.command == "trajectory" and valid.get("--dt-ns", 1.0) * 1e-9 == 0.0:
        problems.append(f"--dt-ns is too small: it rounds to 0 s, got {args.dt_ns}")
    if {"--scheme", "--edge-ramp-ns", "--gamma", "--omega0-mhz"} <= valid.keys():
        # synthesis's own ramp rule, on the phase loop; theta and phi do not change its duration
        spec, omega0 = GateSpec(0.0, 0.0, args.gamma), TWO_PI * args.omega0_mhz * 1e6
        try:
            synthesize(spec, omega0, args.scheme, edge_ramp=args.edge_ramp_ns * 1e-9)
        except ValueError as exc:
            free = synthesize(spec, omega0, args.scheme).duration
            problems.append(f"--edge-ramp-ns does not suit the {free * 1e9:.6g} ns ramp-free loop: "
                            f"{exc}, got {args.edge_ramp_ns}")
    if valid.get("--resolution", 1) % 2 == 0:
        # the summary's fidelity_origin is the centre point of the grid
        problems.append(f"--resolution must be odd, got {args.resolution}")
    rates = [name for name, flag in _NOISE.items() if flag.type is float and name in valid]
    if rates and args.default_noise:
        problems.append(f"--default-noise sets every rate, so it excludes {', '.join(rates)}")
    if "--lengths" in valid:
        try:
            lengths = _lengths(args.lengths)
        except ValueError:
            problems.append(f"--lengths must be comma-separated integers, got {args.lengths!r}")
        else:
            if any(m <= 0 for m in lengths):
                problems.append("--lengths entries must be positive")
            if any(b <= a for a, b in zip(lengths, lengths[1:])):
                problems.append("--lengths must be strictly increasing")
            if len(lengths) < 3:
                problems.append("--lengths needs at least 3 values to fit a decay")
    # the engine's limit on a trajectory's steps; it reads the loop's
    # flags, so it runs once all of them pass
    if args.command == "trajectory" and not problems:
        _, schedule = _synthesize_from_args(args)
        try:
            trajectory_steps(schedule, _integrator_from_args(args))
        except ValueError as exc:
            problems.append(f"--dt-ns does not suit the {schedule.duration * 1e9:.6g} ns loop: {exc}, "
                            f"got {args.dt_ns}")


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"--out-dir {path!r} is not a usable directory: {exc.strerror}"]) from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in (*_COMMANDS, "-h", "--help") and ("-h" in argv or "--help" in argv):
        print(_usage([argv[0]] if argv[0] in _COMMANDS else list(_COMMANDS)))
        return 0
    try:
        if not argv or argv[0] not in _COMMANDS:
            fault = f"unknown command {argv[0]!r}" if argv else "no command given"
            raise ConfigError([f"{fault}; choose from {', '.join(_COMMANDS)}"])
        args = _parse_args(argv)
        _make_out_dir(args.out_dir)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1

    command = _COMMANDS[args.command][0]
    try:
        # floating-point overflow, x/0 and invalid operations raise FloatingPointError,
        # an ArithmeticError, instead of writing inf or NaN; underflow stays silent
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            outputs = command(args)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    meta = _metadata_lines(args.command, _config_hash(vars(args)))
    for name, body in outputs.items():
        lines = _table_lines(*body) if name.endswith(".csv") else _summary_lines(body)
        with open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write("\n".join(meta + lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
