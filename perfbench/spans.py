"""Spans around holosim's public functions, installed from outside the package.

A span is ``[id, name, start, end, parent, work]``; ``work`` is the number
of physical integration steps a kernel call makes.  Each wrapper replaces
the name in every namespace where a caller looks it up, since holosim
modules import many functions by name.  Spans stay in memory until the
worker writes them out, and ``layer_metrics`` turns them into per-layer
totals in the benchmark process.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _steps_per_pair(args, kwargs):
    # the CF4 unitary path passes two exponentials per physical step
    return len(args[1] if len(args) > 1 else kwargs["dts"]) // 2


def _steps(args, kwargs):
    return len(args[1] if len(args) > 1 else kwargs["dts"])


# (span name, object that defines the function, function name,
#  namespaces whose callers look the name up, work counter)
TARGETS = (
    ("protocols.rb_run", "holosim.protocols", "rb_run", ("holosim.protocols",), None),
    ("protocols.robustness_scan", "holosim.protocols", "robustness_scan", ("holosim.protocols",), None),
    ("protocols.compare_schemes", "holosim.protocols", "compare_schemes", ("holosim.protocols",), None),
    ("protocols.trajectory_report", "holosim.protocols", "trajectory_report", ("holosim.protocols",), None),
    ("protocols.fit_decay", "holosim.protocols", "fit_decay", ("holosim.protocols",), None),
    ("protocols.apply_superop", "holosim.evolve", "apply_superop", ("holosim.protocols",), None),
    ("gates.gate_spec_from_unitary", "holosim.gates", "gate_spec_from_unitary", ("holosim.protocols",), None),
    ("gates.clifford_index_of", "holosim.gates", "clifford_index_of", ("holosim.protocols",), None),
    ("twoqubit.ramsey_protocol", "holosim.twoqubit", "ramsey_protocol", ("holosim.twoqubit",), None),
    ("pulses.synthesize", "holosim.pulses", "synthesize",
     ("holosim.cli", "holosim.protocols", "holosim.twoqubit"), None),
    ("pulses.drive_arrays", "holosim.pulses", "drive_arrays", ("holosim.evolve",), None),
    ("pulses.stepping_grid", "holosim.pulses", "stepping_grid", ("holosim.evolve",), None),
    ("evolve.propagator", "holosim.evolve", "propagator",
     ("holosim.evolve", "holosim.cli", "holosim.protocols"), None),
    ("evolve.evolve_pure", "holosim.evolve", "evolve_pure", ("holosim.evolve",), None),
    ("evolve.evolve_density", "holosim.evolve", "evolve_density", ("holosim.evolve",), None),
    ("evolve.gate_channel", "holosim.evolve", "gate_channel",
     ("holosim.evolve", "holosim.protocols"), None),
    ("evolve.hamiltonian_stack", "holosim.evolve", "hamiltonian_stack", ("holosim.evolve",), None),
    ("kernels.propagate_unitary", "holosim.backend.kernels", "propagate_unitary",
     ("holosim.backend.kernels",), _steps_per_pair),
    ("kernels.evolve_states", "holosim.backend.kernels", "evolve_states",
     ("holosim.backend.kernels",), _steps_per_pair),
    ("kernels.lindblad_rk4", "holosim.backend.kernels", "lindblad_rk4",
     ("holosim.backend.kernels",), _steps),
)


def _resolve(path: str):
    """Module at ``path``, or an attribute of one (``holosim.backend.kernels``)."""
    try:
        return importlib.import_module(path)
    except ImportError:
        parent, _, attr = path.rpartition(".")
        return getattr(_resolve(parent), attr)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.installed: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, work: int = 0):
        stack = self._stack()
        # a pool thread starts with an empty stack: its spans belong to the
        # span the main thread is waiting in
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([span_id, name, start, end, parent, work])

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, work(args, kwargs) if work else 0):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every target the program still has; skip the ones it lost."""
        for name, owner, attr, callers, work in TARGETS:
            try:
                fn = getattr(_resolve(owner), attr)
            except (ImportError, AttributeError):
                continue
            traced = self._wrap(name, fn, work)
            for caller in callers:
                namespace = _resolve(caller)
                if getattr(namespace, attr, None) is fn:
                    setattr(namespace, attr, traced)
            self.installed.append(name)


def _covered(start: float, end: float, kids: list[list]) -> float:
    """Length of [start, end] covered by the union of the child spans."""
    total, reach = 0.0, start
    for s, e in sorted((max(k[2], start), min(k[3], end)) for k in kids):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def _inside(parent, name: str, by_id: dict) -> bool:
    while parent is not None:
        span = by_id[parent]
        if span[1] == name:
            return True
        parent = span[4]
    return False


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer totals over the spans of several worker processes.

    Durations are summed over threads.  A layer's self time is the time of
    its spans not covered by their child spans.  Counts made "inside RB"
    only take spans below a ``protocols.rb_run`` span.
    """
    total = defaultdict(float)
    calls: Counter = Counter()
    work: Counter = Counter()
    self_time = defaultdict(float)
    in_rb: Counter = Counter()
    for spans in span_lists:
        by_id = {s[0]: s for s in spans}
        kids = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                kids[s[4]].append(s)
        for span_id, name, start, end, parent, steps in spans:
            total[name] += end - start
            calls[name] += 1
            work[name] += steps
            self_time[name.split(".")[0]] += end - start - _covered(start, end, kids[span_id])
            if _inside(parent, "protocols.rb_run", by_id):
                in_rb[name] += 1

    unitary = ("kernels.propagate_unitary", "kernels.evolve_states")
    metrics = {
        "cli.main_s": total["cli.main"],
        "cli.self_s": self_time["cli"],
        "protocols.self_s": self_time["protocols"],
        "protocols.apply_superop_calls": calls["protocols.apply_superop"],
        "protocols.channel_reuse": _ratio(
            in_rb["protocols.apply_superop"], in_rb["evolve.gate_channel"]
        ),
        "protocols.one_off_integrations": in_rb["evolve.evolve_density"],
        "gates.gate_spec_from_unitary_calls": calls["gates.gate_spec_from_unitary"],
        "pulses.synthesize_calls": calls["pulses.synthesize"],
        "evolve.self_s": self_time["evolve"],
        "evolve.steps": sum(work.values()),
        "kernels.unitary_steps_per_s": _ratio(
            sum(work[n] for n in unitary), sum(total[n] for n in unitary)
        ),
        "kernels.lindblad_rk4_calls": calls["kernels.lindblad_rk4"],
        "kernels.rk4_steps_per_s": _ratio(
            work["kernels.lindblad_rk4"], total["kernels.lindblad_rk4"]
        ),
    }
    for name in ("evolve.propagator", "evolve.evolve_pure", "evolve.evolve_density",
                 "evolve.gate_channel"):
        metrics[f"{name}_calls"] = calls[name]
    for name, *_ in TARGETS:
        metrics[f"{name}_s"] = total[name]
    return metrics


def not_fired(installed: list[str], span_lists: list[list[list]]) -> list[str]:
    fired = {s[1] for spans in span_lists for s in spans}
    return [name for name in installed if name not in fired]
