"""Benchmark for the iet3 library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from the checkout's `src/`.  Inputs come from
`--seed` only.  With `--trace 0` the workload's operation is repeated on the
same inputs for about `--seconds` seconds (at least once) and the
end-to-end metrics are reported, `wall_s` being the median operation, in
seconds adjusted to the host's speed by `speed.SpeedProbe`; with
`--trace 1` one operation runs under the per-layer tracer (`tracer.py`) and
the per-layer metrics are reported.  Every operation's output is checked.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The witness report digest is compared against earlier runs of the same seed,
library source and benchmark code in `.bench_build/perfbench/state.json`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench" / "state.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5

# per-layer metrics: span name -> quantities (see tracer.py for span names)
LAYERS = (
    ("arith.visits", "calls points self_s us_per_point"),
    ("arith.visit_time", "calls points self_s passes_per_point"),
    ("arith.first_hit", "calls points self_s"),
    ("arith.floor_sum_vec", "calls self_s"),
    ("construction.run_schedule", "calls self_s"),
    ("construction.build_switch", "calls self_s"),
    ("construction.verify_switch", "calls self_s kept_frac"),
    ("construction.non_simplicity_witness", "self_s"),
    ("joinings.kr.grid", "calls self_s"),
    ("joinings.kr.lp", "calls self_s"),
    ("joinings.kr.assignment", "calls self_s"),
    ("joinings.kr_upper_binned", "calls atoms self_s"),
    ("joinings.kr_lower_witness", "calls atoms self_s"),
    ("joinings.sample_power_joining", "calls atoms self_s"),
    ("joinings.empirical_orbit_joining", "calls self_s"),
    ("joinings.approx_by_powers", "self_s"),
    ("joinings.disintegrate", "self_s"),
    ("towers.suggest_towers", "self_s"),
    ("towers.build_tower", "calls levels self_s"),
    ("towers.tower_stats", "calls self_s"),
    ("intervals.normalize", "calls self_s"),
    ("renorm.scan_renorm_times", "calls self_s"),
    ("renorm.section_record_exact", "calls self_s"),
    ("iet_core.apply_pow_many", "calls points self_s"),
    ("iet_core.apply", "calls self_s"),
    ("trace", "wall_s spans"),
)
UNITS = {"calls": "count", "points": "count", "atoms": "count", "levels": "count",
         "spans": "count", "self_s": "s", "wall_s": "s", "us_per_point": "us/point",
         "passes_per_point": "passes/point", "kept_frac": "frac"}


def _layer_value(tracer, span, q, traced_wall):
    if span == "trace":
        return traced_wall if q == "wall_s" else sum(s.calls for s in tracer.stats.values())
    st = tracer.stats.get(span)
    if st is None:
        return 0.0 if q in ("self_s", "us_per_point", "passes_per_point", "kept_frac") else 0
    if q == "us_per_point":          # inclusive time: the kernel call as a whole
        return st.incl_s * 1e6 / st.points if st.points else 0.0
    if q == "passes_per_point":      # visits points per visit_time point
        return st.child_points.get("arith.visits", 0) / st.points if st.points else 0.0
    if q == "kept_frac":             # verifications in each op's last schedule
        return tracer.kept_verify / st.calls
    return getattr(st, q)


# ---------------------------------------------------------------------------
# machine record and cross-run state
# ---------------------------------------------------------------------------

def _code_digest() -> str:
    """Digest of the library sources and of this benchmark's own files."""
    h = hashlib.sha256()
    for base in (SRC, Path(__file__).resolve().parent):
        for p in sorted(base.rglob("*.py")):
            h.update(str(p.relative_to(base)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> dict:
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def machine_record(args, nproc, code_digest) -> dict:
    import numpy
    import scipy
    return {"cpu": _cpu_model(), "nproc": nproc, "cache": _caches(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit(), "code_sha256": code_digest,
            "threads_cap": nproc, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _compare_state(key: str, value: str):
    """True/False against an earlier run's value for `key`; None if this is
    the first run with that key (the value is then recorded)."""
    try:
        state = json.loads(STATE.read_text())
    except (OSError, ValueError):
        state = {}
    if key in state:
        return state[key] == value
    state[key] = value
    STATE.parent.mkdir(parents=True, exist_ok=True)
    tmp = STATE.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, sort_keys=True, indent=1))
    os.replace(tmp, STATE)
    return None


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _setup(wl, seed):
    """Import the workload's iet3 modules afresh and build its inputs."""
    for name in [n for n in sys.modules if n == "iet3" or n.startswith("iet3.")]:
        del sys.modules[name]
    for mod in wl.modules:
        importlib.import_module(mod)
    return wl.setup(seed)


def _timed_setups(probe, wl, seed, k):
    """Time k set-ups.  Returns their (wall, adjusted) seconds and the last
    set-up's inputs."""
    times = []
    for _ in range(k):
        gc.collect()                     # the earlier set-ups' garbage
        st, wall, adjusted = probe.time(_setup, wl, seed)
        times.append((wall, adjusted))
    gc.collect()
    return times, st


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "iet3" / "__init__.py").is_file():
        print(f"error: no iet3 sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))

    from speed import SpeedProbe
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    with SpeedProbe() as probe:
        return _run(args, nproc, wl, probe)


def _run(args, nproc, wl, probe) -> int:
    # set-up: the median of several in-process imports plus builds, taken
    # before and (untraced) after the operations; the first also pays the
    # one-off imports of NumPy and SciPy
    setup_times, st = _timed_setups(probe, wl, args.seed, SETUP_REPEATS)

    code_digest = _code_digest()
    print(json.dumps({"machine": machine_record(args, nproc, code_digest)}))
    checks = []

    def run_op(timed):
        """(result, wall s, adjusted s); the result is None if the op raised."""
        try:
            gc.collect()
            if timed:
                return probe.time(wl.op, st)
            t = time.perf_counter()
            r = wl.op(st)
            return r, time.perf_counter() - t, None
        except Exception:
            traceback.print_exc()
            checks.append(("op.completed", False))
            return None, None, None

    def check_result(r):
        checks.extend(wl.checks(st, r))
        if hasattr(wl, "digest"):
            key = f"result|{wl.name}|{args.seed}|{code_digest}"
            same = _compare_state(key, wl.digest(r))
            if same is not None:
                checks.append(("result.same_as_earlier_run", same))

    if hasattr(wl, "static_checks"):
        checks.extend(wl.static_checks(st))

    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            left = tracer.reachable_originals()
            r, traced_wall, _ = run_op(timed=False)
            tracer.end_op()
        finally:
            tracer.uninstall()
        checks.append(("trace.binding_complete", not left))
        if left:
            print(f"unwrapped bindings: {left}", file=sys.stderr)
        if r is not None:
            check_result(r)
        metrics = {}
        for span, qs in LAYERS:
            for q in qs.split():
                v = _layer_value(tracer, span, q, traced_wall) if r is not None else 0
                metrics[f"{span}.{q}"] = {"value": v, "unit": UNITS[q]}
    else:
        times = []
        t_run = time.perf_counter()
        while True:
            r, wall, adjusted = run_op(timed=True)
            if r is None:
                break
            times.append((wall, adjusted))
            check_result(r)
            # start another operation only if it fits in the measuring window
            if time.perf_counter() - t_run + min(w for w, _ in times) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += _timed_setups(probe, wl, args.seed, SETUP_REPEATS)[0]
        passed = sum(1 for _, ok in checks if ok)

        def median(ts, i):
            return statistics.median(t[i] for t in ts) if ts else 0.0
        metrics = {
            "wall_s": {"value": median(times, 1), "unit": "s"},
            "setup_s": {"value": median(setup_times, 1), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "pass_frac": {"value": passed / max(len(checks), 1), "unit": "frac"},
        }
        print(json.dumps({"unadjusted": {"wall_s": median(times, 0),
                                         "setup_s": median(setup_times, 0)}}))
        print(f"operations timed: {len(times)}; seconds, wall/adjusted: "
              + ", ".join(f"{w:.4f}/{a:.4f}" for w, a in times))

    attempted = max(len(checks), 1)
    failed = sum(1 for _, ok in checks if not ok)
    for name, ok in checks:
        if not ok:
            print(f"check failed: {name}")
    print(f"checks: {attempted - failed}/{attempted} passed; setup seconds, "
          "wall/adjusted: " + ", ".join(f"{w:.4f}/{a:.4f}" for w, a in setup_times))
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(checks), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
