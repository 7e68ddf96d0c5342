"""Reference points named in the ROADMAP baseline, measured once each.

    python3 perfbench/baseline.py

Prints the counting kernel's cost per point (`RotationCounter.visits` and
`visit_time`) at n = 1e4, 1e8 and 1e12 on 20 000 points (seed 0) of the
documented switch IET, and one grid KR flow solve at G = 96 (power joining
of T^8 and T^13 against the half mixture of Id and T, 2e4 atoms per strand).
Run from the root of a source checkout.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

POINTS = 20_000
SEED = 0


def main() -> int:
    import numpy as np
    from iet3.joinings import kr_distance_detailed, mix, sample_power_joining
    from iet3.params import documented_switch_iet

    iet = documented_switch_iet()
    rc = iet.rotation_counter(q_min=10**13)
    print(f"Q bits: {rc.Q.bit_length()}, P bits: {rc.P.bit_length()}, "
          f"C bits: {rc.C.bit_length()}")
    rng = np.random.default_rng(SEED)
    u = np.array([int(v * rc.C) for v in rng.random(POINTS)], dtype=object)
    for n in (10**4, 10**8, 10**12):
        ns = np.full(POINTS, n, dtype=object)
        for name, fn in (("visits", rc.visits), ("visit_time", rc.visit_time)):
            t = time.perf_counter()
            fn(u, ns)
            dt = time.perf_counter() - t
            print(f"{name} n=1e{len(str(n)) - 1}: {dt * 1e6 / POINTS:.2f} us/point")
    strands = [sample_power_joining(iet, e, 20_000, seed=SEED + e) for e in (0, 1, 8, 13)]
    t = time.perf_counter()
    res = kr_distance_detailed(mix(*strands[2:]), mix(*strands[:2]), method="grid", grid=96)
    print(f"grid flow G=96: {time.perf_counter() - t:.3f} s (value {res['value']:.6f} "
          f"+- {res['bound']:.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
