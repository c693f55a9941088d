"""Self-check of the frame oracle against holosim's stepping engine.

Usage: python3 perfbench/check_oracle.py

Draws SPECS random gates (seed SEED) with amplitude and detuning errors
for both schemes and prints the largest deviation between
``oracle.unitary`` and ``holosim.propagator``, then compares noisy channels with
``holosim.gate_channel`` (about 4 s each on the numpy backend).  The noisy
``nhqc`` channel shows the RK4 phase-jump error of the engine, not of the
oracle.  Exits 1 when the unitary or noisy ``tounhqc`` agreement is worse
than 1e-10.
"""
from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import holosim  # noqa: E402
from holosim import protocols  # noqa: E402

import oracle  # noqa: E402

OMEGA0 = 2.0 * math.pi * 8.660e6
TOLERANCE = 1e-10
SPECS = 20
SEED = 0


def random_spec(rng: random.Random) -> holosim.GateSpec:
    return holosim.GateSpec(
        theta=math.pi * rng.random(),
        phi=2.0 * math.pi * rng.random(),
        gamma=0.3 + (2.0 * math.pi - 0.6) * rng.random(),
    )


def main() -> int:
    rng = random.Random(SEED)

    worst_u = 0.0
    for _ in range(SPECS):
        spec = random_spec(rng)
        amp = rng.uniform(-0.05, 0.05)
        det = rng.uniform(-0.05, 0.05)
        err = holosim.ErrorInjection(amp_fraction=amp, detuning_fraction=det)
        for scheme in ("tounhqc", "nhqc"):
            schedule = holosim.synthesize(spec, OMEGA0, scheme)
            u = oracle.unitary(schedule, amp, det * OMEGA0)
            worst_u = max(worst_u, float(np.max(np.abs(u - holosim.propagator(schedule, err)))))
    print(f"unitary: {2 * SPECS} gates, max |U_oracle - U_engine| = {worst_u:.3g}")

    c_ops = protocols.default_noise_model().scaled_ops(3)
    spec = holosim.GateSpec(theta=0.0, phi=0.0, gamma=0.7854)
    worst_tounhqc = 0.0
    for scheme in ("tounhqc", "nhqc"):
        schedule = holosim.synthesize(spec, OMEGA0, scheme)
        t0 = time.perf_counter()
        s_oracle = oracle.channel(schedule, c_ops)
        t1 = time.perf_counter()
        s_engine = holosim.gate_channel(schedule, protocols.default_noise_model())
        t2 = time.perf_counter()
        delta = float(np.max(np.abs(s_oracle - s_engine)))
        if scheme == "tounhqc":
            worst_tounhqc = delta
        print(
            f"noisy {scheme} channel: max |S_oracle - S_engine| = {delta:.3g} "
            f"(oracle {1e3 * (t1 - t0):.1f} ms, engine {t2 - t1:.2f} s)"
        )
    ok = worst_u <= TOLERANCE and worst_tounhqc <= TOLERANCE
    print("oracle self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
