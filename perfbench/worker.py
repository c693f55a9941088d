"""Run one holosim command in this fresh interpreter and record its cost.

Usage:
    python3 worker.py RESULT_JSON run TRACE -- CLI_ARGS...
    python3 worker.py RESULT_JSON import-split

``run`` imports ``holosim.cli``, optionally wraps holosim's public functions
in spans (TRACE = 1), calls ``holosim.cli.main(CLI_ARGS)`` and exits with
its return code.  ``import-split`` times the import chain numpy,
scipy.linalg, scipy.optimize, holosim.cli step by step.  Both modes write
their numbers to RESULT_JSON.
"""
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _timed_import(name: str) -> float:
    t0 = time.perf_counter()
    __import__(name)
    return time.perf_counter() - t0


def main() -> int:
    result_path, mode = sys.argv[1], sys.argv[2]
    if mode == "import-split":
        result = {
            step: _timed_import(name)
            for step, name in (
                ("numpy", "numpy"),
                ("scipy_linalg", "scipy.linalg"),
                ("scipy_optimize", "scipy.optimize"),
                ("holosim", "holosim.cli"),
            )
        }
        rc = 0
    elif mode == "run":
        trace = sys.argv[3] == "1"
        argv = sys.argv[sys.argv.index("--") + 1 :]
        import_s = _timed_import("holosim.cli")
        cli = sys.modules["holosim.cli"]
        if trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            t0 = time.perf_counter()
            with tracer.span("cli.main"):
                rc = cli.main(argv)
        else:
            t0 = time.perf_counter()
            rc = cli.main(argv)
        t1 = time.perf_counter()
        holosim = sys.modules["holosim"]
        backend = getattr(holosim, "backend_name", lambda: "unknown")()
        result = {
            "import_s": import_s,
            "main_s": t1 - t0,
            "backend": backend,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if trace:
            result["spans"] = tracer.spans
            result["installed"] = tracer.installed
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
