"""holosim benchmark: CLI workloads timed end to end and checked against an exact oracle.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads in BENCHMARK.json, or ``all`` to run each of
them in turn and print one table per workload.

The load is a closed loop with one client: commands run one after another,
each in a fresh worker process (worker.py) that calls
``holosim.cli.main`` with a temporary ``--out-dir``.  Commands that take
``--threads`` are timed at ``--threads 1``: on a shared 2-vCPU host, slow
spells slowed the two GIL-bound threads of the CLI default pool about
1.8-fold and single-threaded work about 1.2-fold.  The traced run
measures the default pool as well.

``--trace 0`` times ``import holosim.cli`` in fresh interpreters (set-up),
then whole passes over the workload's commands until the next pass would
end after ``--seconds``, and reports the end-to-end metrics.  ``--trace 1``
runs one pass with spans around holosim's public functions, one pass
without, and for threaded workloads one pass at the CLI default
``--threads`` (the number of CPUs); it reports the per-layer metrics and,
in its table, what each one should move (layers.json).

Every command's outputs are checked (exit code, files, invariants), and the
first pass is compared with the exact frame oracle (oracle.py).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import spans  # noqa: E402

try:
    import workloads  # noqa: E402  (imports holosim from SRC)
except ModuleNotFoundError:
    workloads = None  # no holosim sources next to the benchmark: main() refuses to run

SPLIT_REPEATS = 3
COMMAND_TIMEOUT_S = 150
# beyond this an output is wrong, not merely inaccurate; the nhqc RK4
# phase-jump error (RB survivals off by 2e-4 to 5e-4) stays visible in
# accuracy_digits below it
MAX_DEVIATION = 1e-2
DEVIATION_FLOOR = 1e-15
THROUGHPUT = {"scan": "scan_points_per_s", "rb": "rb_sequences_per_s"}
READ_ERRORS = (OSError, ValueError, KeyError, IndexError)


@dataclass
class Outcome:
    """One worker process: one CLI command."""

    command: "workloads.Command"
    out_dir: Path
    wall_s: float
    result: dict
    problems: list[str]

    @property
    def main_s(self) -> float:
        return self.result.get("main_s", 0.0)


class Runner:
    """Starts workers one at a time; all files live under ``tmp``."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self._ids = itertools.count()

    def worker(self, *args: str) -> tuple[int | None, float, dict, str]:
        path = self.tmp / f"worker{next(self._ids)}.json"
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(path), *args],
                capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
            )
            rc, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            rc, err = None, f"timed out after {COMMAND_TIMEOUT_S} s"
        wall = perf_counter() - t0
        result = json.loads(path.read_text()) if path.exists() else {}
        return rc, wall, result, err

    def command(self, cmd, trace: bool = False, threads: int | None = None) -> Outcome:
        out_dir = self.tmp / f"out{next(self._ids)}"
        extra = ("--threads", str(threads)) if threads else ()
        rc, wall, result, err = self.worker(
            "run", "1" if trace else "0", "--", *cmd.argv, *extra, "--out-dir", str(out_dir)
        )
        problems = [] if rc == 0 else [f"exit code {rc}: {err.strip()[-500:]}"]
        try:
            problems += workloads.output_problems(cmd, out_dir)
        except READ_ERRORS as exc:
            problems.append(f"unreadable output: {exc!r}")
        return Outcome(cmd, out_dir, wall, result, problems)

    def iteration(self, commands, **kwargs) -> list[Outcome]:
        return [self.command(cmd, **kwargs) for cmd in commands]

    def imports(self, mode: str, repeats: int) -> list[dict]:
        results = []
        for _ in range(repeats):
            rc, _, result, err = self.worker(mode)
            if rc != 0:
                raise RuntimeError(f"import worker failed: {err.strip()}")
            results.append(result)
        return results


def deviations(outcomes: list[Outcome]) -> list[tuple[str, float]]:
    """Engine-vs-oracle deviation of each command that did not already fail."""
    found = []
    for o in outcomes:
        if o.problems:
            continue  # already counted as failed
        try:
            found.append((" ".join(o.command.argv[:3]), float(o.command.deviation(o.out_dir))))
        except READ_ERRORS as exc:
            o.problems.append(f"oracle comparison failed: {exc!r}")
    return found


def _worst(found: list[tuple[str, float]]) -> float:
    return max((dev for _, dev in found), default=0.0)


def same_outputs(a: Outcome, b: Outcome) -> list[str]:
    return [
        name for name in a.command.files
        if not (b.out_dir / name).is_file()
        or (a.out_dir / name).read_bytes() != (b.out_dir / name).read_bytes()
    ]


def pass_wall(outcomes: list[Outcome]) -> float:
    return sum(o.main_s for o in outcomes)


def timed_run(runner: Runner, commands, seconds: int, threads: int | None):
    runner.imports("import-split", 1)  # fills the bytecode cache; users do not pay that per run
    passes = []
    start = perf_counter()
    while True:
        passes.append(runner.iteration(commands, threads=threads))
        elapsed = perf_counter() - start
        if elapsed / len(passes) * (len(passes) + 1) > seconds:
            break
    outcomes = [o for p in passes for o in p]
    # every worker imports holosim.cli in a fresh interpreter before its command
    setup = [o.result["import_s"] for o in outcomes if "import_s" in o.result]
    found = deviations(passes[0])
    worst = _worst(found)
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(pass_wall(p) for p in passes),
        "command_p50_s": median(o.wall_s for o in outcomes),
        "accuracy_digits": -math.log10(max(worst, DEVIATION_FLOOR)),
        "peak_rss_mb": median(max(o.result.get("peak_rss_mb", 0.0) for o in p) for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports of holosim.cli, one per command",
        "wall_s": f"median of {len(passes)} passes; holosim.cli.main time, imports excluded",
        "command_p50_s": f"median of {len(outcomes)} fresh-process commands, import included",
        "accuracy_digits": "worst of: " + ", ".join(f"{label} {dev:.2g}" for label, dev in found),
        "peak_rss_mb": "largest worker peak per pass, median over passes",
    }
    extra = {}
    for j, cmd in enumerate(commands):
        if cmd.argv[0] in THROUGHPUT:
            rate = cmd.work / median(p[j].main_s for p in passes)
            extra[THROUGHPUT[cmd.argv[0]]] = (rate, "1/s", f"{cmd.work} per {cmd.argv[0]} command")
    return outcomes, worst, metrics, notes, extra


def traced_run(runner: Runner, commands, threads: int | None):
    runner.imports("import-split", 1)  # fills the bytecode cache
    split = runner.imports("import-split", SPLIT_REPEATS)
    traced = runner.iteration(commands, trace=True, threads=threads)
    plain = runner.iteration(commands, threads=threads)
    pooled = runner.iteration(commands) if threads else []  # CLI default --threads: nproc
    for a, b in zip(plain, pooled):
        differing = same_outputs(a, b)
        if differing:
            b.problems.append(f"outputs differ from the --threads 1 run: {differing}")
    worst = _worst(deviations(plain))

    span_lists = [o.result.get("spans", []) for o in traced]
    metrics = spans.layer_metrics(span_lists)
    for step in ("numpy", "scipy_linalg", "scipy_optimize", "holosim"):
        metrics[f"setup.{step}_s"] = median(r[step] for r in split)
    metrics["cli.output_bytes"] = sum(
        (o.out_dir / name).stat().st_size
        for o in traced for name in o.command.files if (o.out_dir / name).is_file()
    )
    metrics["protocols.parallel_speedup"] = pass_wall(plain) / pass_wall(pooled) if pooled else 0.0
    metrics["trace.overhead_s"] = pass_wall(traced) - pass_wall(plain)

    installed = traced[0].result.get("installed", [])
    notes = []
    missing = sorted({name for name, *_ in spans.TARGETS} - set(installed))
    if missing:
        notes.append(f"spans not installed (the program no longer has them): {', '.join(missing)}")
    idle = spans.not_fired(installed, span_lists)
    if idle:
        notes.append(f"spans that did not fire on this workload: {', '.join(idle)}")
    return traced + plain + pooled, worst, metrics, notes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def provenance(seed: int, backend: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend,
        "commit": _git_commit(),
        "seed": seed,
    }


def _row(name: str, value, unit: str, note: str = "") -> None:
    shown = value if isinstance(value, str) else f"{value:.6g}"
    print(f"  {name:36s} {shown:>14s} {unit:7s} {note}")


def run_workload(name: str, seed: int, seconds: int, trace: bool, declared: dict, layer_map: dict):
    build, threaded = workloads.WORKLOADS[name]
    commands = build(seed)
    threads = 1 if threaded else None
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(tmp)
        if trace:
            outcomes, worst, metrics, notes = traced_run(runner, commands, threads)
        else:
            outcomes, worst, metrics, metric_notes, extra = timed_run(runner, commands, seconds, threads)
            notes = []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [o for o in outcomes if o.problems]
    backend = next((o.result["backend"] for o in outcomes if "backend" in o.result), "unknown")
    correct = not failed and worst <= MAX_DEVIATION
    print(f"workload {name}  seed {seed}  trace {int(trace)}  backend {backend}")
    print("provenance " + json.dumps(provenance(seed, backend)))
    for note in notes:
        print(f"  {note}")
    for o in failed:
        print(f"  FAILED {' '.join(o.command.argv)}: {'; '.join(o.problems)}")
    if worst > MAX_DEVIATION:
        print(f"  WRONG: worst oracle deviation {worst:.3g} exceeds {MAX_DEVIATION:g}")
    kind = "per_layer" if trace else "end_to_end"
    if set(metrics) != set(declared[kind]):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: {set(metrics) ^ set(declared[kind])}")
    for metric, unit in declared[kind].items():
        if trace:
            note = f"moves {layer_map[metric]['moves']}; steady: {layer_map[metric]['steady']}"
        else:
            note = metric_notes[metric]
        _row(metric, metrics[metric], unit, note)
    if not trace:
        for metric in THROUGHPUT.values():
            _row(metric, *extra.get(metric, ("n/a", "1/s", "not part of this workload")))
        _row("failed_fraction", len(failed) / len(outcomes), "ratio",
             f"{len(failed)} of {len(outcomes)} commands failed")
    values = {m: {"value": metrics[m], "unit": unit} for m, unit in declared[kind].items()}
    return correct, len(outcomes), len(failed), values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="holosim benchmark")
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if workloads is None:
        print(f"cannot import holosim from {SRC}", file=sys.stderr)
        return 2
    declared = {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }
    layer_map = json.loads((HERE / "layers.json").read_text())
    selected = names if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in selected:
        correct, attempted, failed, values = run_workload(
            name, args.seed, args.seconds, bool(args.trace), declared, layer_map
        )
        summary["correct"] &= correct
        summary["attempted"] += attempted
        summary["failed"] += failed
        prefix = f"{name}." if args.workload == "all" else ""
        summary["metrics"].update({prefix + m: v for m, v in values.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
