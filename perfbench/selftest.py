"""Self-tests of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py

1. Binding completeness: after `Tracer.install()` no original function
   object is reachable as an attribute of an iet3 module or of a class
   defined there, and `uninstall()` restores every binding.
2. `BENCHMARK.json` lists exactly the metrics `run.py` reports.
3. Determinism: two traced runs of seed 1, in separate processes, give
   identical work counts (calls, points, atoms, levels and their ratios).
4. Tracing overhead: the traced operation's wall time minus the untraced
   operation's wall time (not adjusted to the host's speed), per workload.

Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SEED = 1
COUNT_QUANTITIES = ("calls", "points", "atoms", "levels", "spans",
                    "passes_per_point", "kept_frac")


def _run(workload, trace) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"run.py failed on {workload}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith('{"unadjusted"'):
            result["unadjusted"] = json.loads(line)["unadjusted"]
    return result


def check_bindings() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import iet3.construction
    from tracer import Tracer, _library_modules
    before = {(m.__name__, a): v for m in _library_modules() for a, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    try:
        left = tracer.reachable_originals()
        wrapped = iet3.construction.kr_upper_binned is not iet3.joinings.kr_upper_binned.__wrapped__
    finally:
        tracer.uninstall()
    after = {(m.__name__, a): v for m in _library_modules() for a, v in vars(m).items()}
    errors = [f"unwrapped binding {b}" for b in left]
    if not wrapped:
        errors.append("construction.kr_upper_binned was not wrapped")
    errors += [f"binding {m}.{a} not restored" for (m, a), v in before.items()
               if after.get((m, a)) is not v]
    return errors


def check_names(metrics_e2e, metrics_layer) -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for key, got in (("end_to_end", metrics_e2e), ("per_layer", metrics_layer)):
        want = {m["name"]: m["unit"] for m in bench[key]}
        have = {k: v["unit"] for k, v in got.items()}
        if want != have:
            errors.append(f"{key}: BENCHMARK.json {sorted(set(want.items()) ^ set(have.items()))}")
    return errors


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    errors = check_bindings()
    print(f"bindings: {'ok' if not errors else errors}")
    for i, wl in enumerate(WORKLOADS):
        plain = _run(wl, 0)
        first, second = _run(wl, 1), _run(wl, 1)
        if i == 0:
            errors += check_names(plain["metrics"], first["metrics"])
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if k.rsplit(".", 1)[1] in COUNT_QUANTITIES} for r in (first, second)]
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        if diff:
            errors.append(f"{wl}: counts differ between traced runs: {diff}")
        for r in (plain, first, second):
            if not r["correct"]:
                errors.append(f"{wl}: {r['failed']} of {r['attempted']} checks failed")
        traced = first["metrics"]["trace.wall_s"]["value"]
        untraced = plain["unadjusted"]["wall_s"]
        print(f"{wl}: counts {'identical' if not diff else 'DIFFER'}; "
              f"traced {traced:.3f} s - untraced {untraced:.3f} s = "
              f"overhead {traced - untraced:+.3f} s over "
              f"{first['metrics']['trace.spans']['value']} spans")
    for e in errors:
        print(f"FAIL: {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
