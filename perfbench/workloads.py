"""The benchmark's workloads: holosim CLI commands and the checks on their outputs.

Each ``Command`` carries the files it must write and an oracle comparison
that returns the worst absolute deviation between its outputs and the exact
frame propagation (``oracle.py``).  Parameters not given on the command
line are the CLI defaults, repeated here so that the oracle sees the same
inputs.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from holosim import GateSpec, synthesize
from holosim.gates import ideal_single_qubit
from holosim.protocols import (
    SCAN_INITIAL,
    RBConfig,
    average_channel_fidelity,
    default_noise_model,
    rb_run,
)
from holosim.quantum import bloch_coordinates, density, unattenuated_fidelity

import oracle

TWO_PI = 2.0 * math.pi
OMEGA0 = TWO_PI * 8.660 * 1e6  # the CLI default --omega0-mhz, converted as the CLI does
MAX_UNITARITY_DEFECT = 1e-10

DEFAULT_SPEC = GateSpec(theta=0.5 * math.pi, phi=0.0, gamma=0.5 * math.pi)
RAMSEY_GAMMA = 0.25 * math.pi
RAMSEY_G_EFF = TWO_PI * 5.0 * 1e6
COMPARE_GAMMA = 0.25 * math.pi
SCAN_GAMMA = 0.7854
SCAN_RESOLUTION = 21
RB_LENGTHS = (2, 4, 8, 16)
RB_SEQUENCES = 10
RB_INTERLEAVED = GateSpec(theta=0.0, phi=0.0, gamma=0.7854)
# Every nhqc loop lasts 115.5 ns, so a 1 ns step keeps dt <= duration/100
# for every recovery gate, and an RB pass takes about 10 s: two passes fit
# in one run.  compare also builds the 76 ns tounhqc loop and needs 0.5 ns.
RB_DT_NS = "1.0"
COMPARE_DT_NS = "0.5"
RAMP_NS = 10.0


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    files: tuple[str, ...]
    deviation: Callable[[Path], float]
    work: int = 0  # scan points or RB sequences, for the throughput metrics


def read_summary(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text().splitlines():
        if not line.startswith("#") and " = " in line:
            key, raw = line.split(" = ", 1)
            values[key] = raw
    return values


def read_table(path: Path) -> np.ndarray:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])


def _matrix(summary: dict[str, str], name: str) -> np.ndarray:
    rows = []
    i = 0
    while f"{name}.row{i}" in summary:
        raw = summary[f"{name}.row{i}"].strip("[]")
        rows.append([complex(tok) for tok in raw.split(", ")])
        i += 1
    return np.array(rows)


def _nonfinite(path: Path) -> bool:
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        raw = line.split(" = ", 1)[-1].strip("[]")
        for tok in raw.split(","):
            try:
                value = complex(tok.strip())
            except ValueError:
                continue  # labels, headers, booleans
            if not cmath.isfinite(value):
                return True
    return False


def output_problems(cmd: Command, out_dir: Path) -> list[str]:
    """Invariant violations of one command's outputs (separate from accuracy)."""
    problems = []
    for name in cmd.files:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"missing output {name}")
        elif _nonfinite(path):
            problems.append(f"non-finite value in {name}")
    if problems:
        return problems
    if cmd.argv[0] == "gate":
        defect = float(read_summary(out_dir / "gate_summary.txt")["unitarity_defect"])
        if defect > MAX_UNITARITY_DEFECT:
            problems.append(f"unitarity_defect {defect:.3g} > {MAX_UNITARITY_DEFECT:g}")
    if cmd.argv[0] == "rb":
        survival = read_table(out_dir / "rb_survival.csv")[:, 2]
        if np.any((survival < 0.0) | (survival > 1.0)):
            problems.append("survival outside [0, 1]")
        if read_summary(out_dir / "rb_summary.txt")["fit_success"] != "true":
            problems.append("fit_success is false")
    return problems


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------------------
# Oracle comparisons
# ---------------------------------------------------------------------------


def _gate_deviation(spec: GateSpec, scheme: str, ramped: bool):
    def deviation(out_dir: Path) -> float:
        summary = read_summary(out_dir / "gate_summary.txt")
        if ramped:
            # a ramped envelope has no exact frame: the engine's own
            # dt-halving delta is the only accuracy estimate
            return float(summary["dt_halving_delta"])
        exact = oracle.unitary(synthesize(spec, OMEGA0, scheme))
        return _max_abs(_matrix(summary, "propagator"), exact)

    return deviation


def _trajectory_deviation(noisy: bool):
    def deviation(out_dir: Path) -> float:
        pops = read_table(out_dir / "trajectory_populations.csv")
        bloch = read_table(out_dir / "trajectory_bloch.csv")
        schedule = synthesize(DEFAULT_SPEC, OMEGA0, "tounhqc")
        times = pops[:, 0] * 1e-9
        rho0 = density(np.array([1.0, 0.0, 0.0], dtype=complex))
        if noisy:
            maps = oracle.maps_at(schedule, times, default_noise_model().scaled_ops(3))
            rhos = (maps @ rho0.reshape(-1)).reshape(-1, 3, 3)
        else:
            psis = oracle.maps_at(schedule, times)[:, :, 0]
            rhos = np.einsum("ni,nj->nij", psis, psis.conj())
        exact_pops = np.einsum("nii->ni", rhos).real
        exact_bloch = np.array([bloch_coordinates(rho) for rho in rhos])
        return max(_max_abs(pops[:, 1:], exact_pops), _max_abs(bloch[:, 1:], exact_bloch))

    return deviation


def _ramsey_excited(psi: np.ndarray, theta: float) -> float:
    """Target |1> probability after the ideal pi/2 analysis pulse."""
    m = np.array([[0.0, cmath.exp(1j * theta)], [cmath.exp(-1j * theta), 0.0]])
    r = math.cos(math.pi / 4.0) * np.eye(2) - 1j * math.sin(math.pi / 4.0) * m
    out = np.kron(np.eye(2), r) @ psi[:4]
    return float(abs(out[1]) ** 2 + abs(out[3]) ** 2)


def _ramsey_deviation(out_dir: Path) -> float:
    fringes = read_table(out_dir / "ramsey_fringes.csv")
    schedule = synthesize(GateSpec(theta=0.0, phi=0.0, gamma=RAMSEY_GAMMA), RAMSEY_G_EFF, "tounhqc")
    pair = oracle.unitary(schedule, dim=2, levels=(None, 0, 1))
    off = np.zeros(5, dtype=complex)
    off[0], off[1] = 1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0)
    on = off.copy()
    on[[1, 4]] = pair @ off[[1, 4]]  # |01> and the ancilla |a>
    exact = [(_ramsey_excited(on, th), _ramsey_excited(off, th)) for th in fringes[:, 0]]
    return _max_abs(fringes[:, 1:], exact)


def _scan_deviation(out_dir: Path) -> float:
    grid = read_table(out_dir / "scan_grid.csv")
    spec = GateSpec(theta=0.0, phi=0.0, gamma=SCAN_GAMMA)
    schedule = synthesize(spec, OMEGA0, "tounhqc")
    rho_th = density(np.append(ideal_single_qubit(spec) @ SCAN_INITIAL[:2], 0.0))
    exact = [
        unattenuated_fidelity(rho_th, density(oracle.unitary(schedule, amp, det * OMEGA0) @ SCAN_INITIAL))
        for amp, det, _ in grid
    ]
    return _max_abs(grid[:, 2], exact)


class OracleExecutor:
    """RB sequence executor that applies exact frame channels to |0><0|."""

    def __init__(self, scheme: str, c_ops: np.ndarray):
        self.scheme = scheme
        self.c_ops = c_ops
        self._cache: dict[GateSpec, np.ndarray] = {}

    def __call__(self, specs, rng=None) -> float:
        vec = np.zeros(9, dtype=complex)
        vec[0] = 1.0
        for spec in specs:
            if spec is None:
                continue
            if spec not in self._cache:
                schedule = synthesize(spec, OMEGA0, self.scheme)
                self._cache[spec] = oracle.channel(schedule, self.c_ops)
            vec = self._cache[spec] @ vec
        return float(vec[0].real)


def _rb_deviation(seed: int):
    def deviation(out_dir: Path) -> float:
        rows = read_table(out_dir / "rb_survival.csv")
        noise = default_noise_model()
        config = RBConfig(
            sequence_lengths=RB_LENGTHS,
            sequences_per_length=RB_SEQUENCES,
            seed=seed,
            scheme="nhqc",
            interleaved_target=RB_INTERLEAVED,
            noise=noise,
        )
        exact = rb_run(config, sequence_executor=OracleExecutor("nhqc", noise.scaled_ops(3)))
        return max(
            abs(survival - exact.per_sequence[int(m)][int(i)]) for m, i, survival in rows
        )

    return deviation


def _compare_deviation(out_dir: Path) -> float:
    summary = read_summary(out_dir / "compare_summary.txt")
    spec = GateSpec(theta=0.0, phi=0.0, gamma=COMPARE_GAMMA)
    c_ops = default_noise_model().scaled_ops(3)
    keep = [0, 1, 3, 4]  # row-major (0,0), (0,1), (1,0), (1,1): the qubit block
    worst = 0.0
    for scheme in ("tounhqc", "nhqc"):
        s = oracle.channel(synthesize(spec, OMEGA0, scheme), c_ops)
        exact = average_channel_fidelity(s[np.ix_(keep, keep)], ideal_single_qubit(spec))
        worst = max(worst, abs(float(summary[f"fidelity_{scheme}"]) - exact))
    return worst


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _spec_args(spec: GateSpec) -> tuple[str, ...]:
    return ("--theta", repr(spec.theta), "--phi", repr(spec.phi), "--gamma", repr(spec.gamma))


def short_commands(seed: int) -> list[Command]:
    rng = random.Random(seed)

    def draw() -> GateSpec:
        return GateSpec(
            theta=math.pi * rng.random(),
            phi=TWO_PI * rng.random(),
            gamma=0.3 + (TWO_PI - 0.6) * rng.random(),
        )

    a, b = draw(), draw()
    gate = ("gate_summary.txt",)
    trajectory = ("trajectory_populations.csv", "trajectory_bloch.csv", "trajectory_summary.txt")
    return [
        Command(("gate", "--scheme", "tounhqc", *_spec_args(a)), gate,
                _gate_deviation(a, "tounhqc", False)),
        Command(("gate", "--scheme", "nhqc", *_spec_args(b)), gate,
                _gate_deviation(b, "nhqc", False)),
        Command(("gate", "--edge-ramp-ns", repr(RAMP_NS)), gate,
                _gate_deviation(DEFAULT_SPEC, "tounhqc", True)),
        Command(("trajectory",), trajectory, _trajectory_deviation(False)),
        Command(("trajectory", "--default-noise"), trajectory, _trajectory_deviation(True)),
        Command(("ramsey",), ("ramsey_fringes.csv", "ramsey_summary.txt"), _ramsey_deviation),
    ]


def robustness_scan(seed: int) -> list[Command]:
    argv = ("scan", "--scheme", "tounhqc", "--gamma", repr(SCAN_GAMMA),
            "--resolution", str(SCAN_RESOLUTION))
    return [Command(argv, ("scan_grid.csv", "scan_summary.txt"), _scan_deviation,
                    work=SCAN_RESOLUTION**2)]


def noisy_rb(seed: int) -> list[Command]:
    rb = ("rb", "--scheme", "nhqc", "--default-noise", "--dt-ns", RB_DT_NS,
          "--lengths", ",".join(map(str, RB_LENGTHS)), "--sequences", str(RB_SEQUENCES),
          "--interleaved-gamma", repr(RB_INTERLEAVED.gamma), "--seed", str(seed))
    return [
        Command(rb, ("rb_survival.csv", "rb_summary.txt"), _rb_deviation(seed),
                work=len(RB_LENGTHS) * RB_SEQUENCES),
        Command(("compare", "--default-noise", "--dt-ns", COMPARE_DT_NS), ("compare_summary.txt",),
                _compare_deviation),
    ]


#: workload name -> (command builder, commands take --threads)
WORKLOADS = {
    "short-commands": (short_commands, False),
    "robustness-scan": (robustness_scan, True),
    "noisy-rb": (noisy_rb, True),
}
