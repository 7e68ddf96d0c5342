"""Command-line front end and reproducible experiment runner.

Every subcommand writes a JSON report (embedding the full configuration,
package version, and per-check margins) plus CSV data files where measures
or interval lists are produced.  Reports are byte-deterministic: one master
seed is split per sub-task with a stable hash, and keys are sorted.  Floats
are exact: JSON writes each as its shortest round-trip repr, the CSVs with
17 significant digits.

Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .arith import cf_to_fraction
from .iet_core import Iet3, RotationRep, from_rotation, orbit, to_rotation
from .params import documented_switch_iet, documented_tower_iet, golden_iet

USAGE_ERROR = 1
VERIFY_ERROR = 2


class UsageError(Exception):
    """Bad command-line input: reported in one line, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _at_least(flag: str, low: int, high: float = math.inf):
    """The argparse type of an integer flag whose values below ``low``, or
    above ``high``, are a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise UsageError(f"{flag} must be at least {low}, got {value}")
        if value > high:
            raise UsageError(f"{flag} must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"            # argparse's name for a non-number
    return parse


def _between(flag: str, low: float, high: float = math.inf):
    """The argparse type of a float flag whose values outside the open
    interval (low, high) are a usage error (NaN among them)."""
    def parse(text: str) -> float:
        value = float(text)
        if not low < value < high:
            raise UsageError(f"{flag} must lie in ({low:g}, {high:g}), got {text}")
        return value
    parse.__name__ = "float"          # argparse's name for a non-number
    return parse


def _dumps(obj, indent=None) -> str:
    """JSON with sorted keys; NumPy scalars and arrays become Python values."""
    return json.dumps(obj, sort_keys=True, indent=indent, default=lambda x: x.tolist())


def _resolve_iet(args) -> Iet3:
    try:
        return _build_iet(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_iet(args) -> Iet3:
    given = [flag for flag, attr in (("--l", "l"), ("--alpha", "alpha"),
                                     ("--alpha-cf", "alpha_cf"), ("--kappa", "kappa"))
             if getattr(args, attr, None) is not None]
    if "--l" in given and len(given) > 1:
        raise UsageError(f"--l gives the whole IET; drop {', '.join(given[1:])}")
    if "--alpha" in given and "--alpha-cf" in given:
        raise UsageError("give the rotation number by --alpha or --alpha-cf, not both")
    if "--kappa" in given and args.alpha_cf in ("doc-switch", "doc-tower"):
        raise UsageError(f"--alpha-cf {args.alpha_cf} fixes kappa; drop --kappa")
    if getattr(args, "l", None):
        try:
            parts = [float(v) for v in args.l.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 3:
            raise UsageError(f"--l needs three comma-separated numbers, got {args.l!r}")
        return Iet3(*parts)
    alpha = None
    if getattr(args, "alpha_cf", None):
        name = args.alpha_cf
        if name == "golden":
            if getattr(args, "kappa", None):
                return golden_iet(float(args.kappa))
            return golden_iet()
        if name == "doc-switch":
            return documented_switch_iet()
        if name == "doc-tower":
            return documented_tower_iet()
        digits = [int(v) for v in name.split(",")]
        if any(d < 1 for d in digits[1:]):
            raise UsageError(f"--alpha-cf digits after the first must be at least 1, got {name!r}")
        alpha = float(cf_to_fraction(digits))
    if getattr(args, "alpha", None) is not None:
        alpha = float(args.alpha)
    if alpha is None:
        raise UsageError("give the IET by --l, --alpha or --alpha-cf")
    if getattr(args, "kappa", None):
        kappa = float(args.kappa)
    else:
        # (1 + alpha) / 2 where it is valid (alpha > 1/3), else the midpoint
        # of (1 - alpha, 1]
        kappa = (1 + alpha) / 2
        if not alpha + kappa > 1:
            kappa = 1 - alpha / 2
    return from_rotation(RotationRep(alpha, kappa))


# flags that several subcommands take; each subcommand declares only those it reads
_FLAGS = {"--l": {"help": "three comma-separated lengths"},
          "--alpha": {"type": float, "help": "rotation number"},
          "--alpha-cf": {"help": "continued fraction digits, or golden|doc-switch|doc-tower"},
          "--kappa": {"help": "induced interval length"},
          "--seed": {"type": _at_least("--seed", 0), "default": 0},
          "--eps": {"type": _between("--eps (the switch epsilon)", 0, 0.2), "default": 0.05},
          "--samples": {"type": _at_least("--samples", 1), "default": 2000}}
_IET = ("--l", "--alpha", "--alpha-cf", "--kappa")


def cmd_iet_info(args):
    iet = _resolve_iet(args)
    rep = to_rotation(iet)
    body = {"lengths": [float(iet.l1), float(iet.l2), float(iet.l3)],
            "alpha": float(rep.alpha), "kappa": float(rep.kappa),
            "iet_json": json.loads(iet.to_json())}
    return body, {}, _dumps(body), True


def cmd_orbit(args):
    if not 0 <= args.x < 1:
        raise UsageError(f"--x must lie in [0, 1), got {args.x}")
    iet = _resolve_iet(args)
    seg = orbit(iet, args.x, args.length)
    csv = "".join(["i,x\n"] + [f"{i},{v:.17g}\n" for i, v in enumerate(seg.points)])
    body = {"start": seg.start, "length": len(seg), "last": float(seg.points[-1])}
    return body, {"orbit.csv": csv}, f"orbit of length {len(seg)} written", True


def cmd_renorm_find(args):
    from .renorm import scan_renorm_times
    iet = _resolve_iet(args)
    scan = scan_renorm_times(iet, delta=args.delta, t_max=args.t_max)
    body = {
        "times": [{"t": rt.t, "n_steps": rt.n_steps, "dist_hat": rt.dist_hat,
                   "rho": rt.rho, "V_len": rt.V_len, "m": rt.m,
                   "m_fractions": list(rt.m_fractions)} for rt in scan.times],
        "n_rejections": len(scan.rejections),
        "rejections_sample": [[t, r] for t, r in scan.rejections[:40]],
    }
    return body, {}, f"{len(scan.times)} accepted times; report written", True


def cmd_tower(args):
    from .towers import build_tower, suggest_towers, tower_stats
    iet = _resolve_iet(args)
    cands = suggest_towers(iet, k_max=args.k_max, t_max=args.t_max)
    towers = [build_tower(iet, I, n) for I, n in cands]
    rows = []
    for tw in towers:
        st = tower_stats(tw, iet)
        rows.append({"base": [float(tw.base[0]), float(tw.base[1])], "height": tw.height,
                     "coverage": st.coverage, "rigidity": st.rigidity,
                     "hat": st.hat_measure, "tilde": st.tilde_measure})
    body = {"candidates": rows}
    if not rows:
        return body, {}, "no tower found", False
    best, tw = rows[-1], towers[-1]
    w = float(tw.width)
    csv = "".join(["a,b\n"] + [f"{float(lo):.17g},{float(lo)+w:.17g}\n"
                                for lo in tw.level_lows])
    return (body, {"tower_levels.csv": csv},
            f"best tower: height {best['height']} coverage {best['coverage']:.6f} "
            f"rigidity {best['rigidity']:.3e}", True)


def cmd_joining_sample(args):
    from .joinings import measure_histogram_csv, measure_to_csv, sample_power_joining
    iet = _resolve_iet(args)
    m = sample_power_joining(iet, args.power, args.atoms, seed=args.seed)
    files = {"joining.csv": measure_to_csv(m)}
    if args.heatmap:
        files["joining_heatmap.csv"] = measure_histogram_csv(m, args.heatmap)
    return {"atoms": len(m), "power": args.power}, files, f"{len(m)} atoms written", True


def _read_measure(path: str):
    from .joinings import measure_from_csv
    try:
        return measure_from_csv(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (ValueError, IndexError) as exc:
        raise UsageError(f"{path} is not an x,y,w measure CSV: {exc}") from None


def cmd_kr(args):
    from .joinings import kr_distance_detailed
    mu, nu = _read_measure(args.mu), _read_measure(args.nu)
    det = kr_distance_detailed(mu, nu, metric=args.metric)
    return det, {}, f"{det['value']:.17g}", True


def cmd_approx_powers(args):
    from .joinings import approx_by_powers, product_sample, sample_power_joining
    from .towers import build_tower, suggest_towers
    iet = _resolve_iet(args)
    cands = suggest_towers(iet, k_max=args.k_max, t_max=args.t_max)
    if not cands:
        return None, {}, "no tower available", False
    tower = build_tower(iet, cands[-1][0], cands[-1][1])
    if args.power is not None:
        m = sample_power_joining(iet, args.power, args.atoms, seed=args.seed)
    else:
        m = product_sample(args.atoms, seed=args.seed)
    try:
        coeff, errs = approx_by_powers(iet, m, tower, bins=args.bins)
    except ValueError as exc:     # too few atoms over too many bins: bad input
        if not str(exc).startswith("no usable base bin"):
            raise
        raise UsageError(f"--atoms {args.atoms} over --bins {args.bins} leaves {exc}") from None
    body = {"tower_height": tower.height, "coeff_total": coeff.total(),
            "errors": {k: v for k, v in errs.items()},
            "top_indices": [int(i) for i in
                            np.argsort(coeff.dense())[-5:][::-1]]}
    return body, {}, f"sum c = {coeff.total():.6f}; coord L2 error {errs['coord']:.4f}", True


def cmd_weak_closure(args):
    from .joinings import weak_closure_check
    iet = _resolve_iet(args)
    n, err, info = weak_closure_check(iet, k=args.k, horizon=args.horizon,
                                      N=args.atoms, seed=args.seed)
    body = {"best_n": n, "kr_error": err, "scan_N": info["scan_N"]}
    return body, {}, f"best n = {n}, kr error = {err:.6f}", True


def cmd_switch(args):
    from .construction import SwitchError, SwitchSpec, build_switch
    iet = _resolve_iet(args)
    try:
        spec = SwitchSpec(a=args.a, b=args.b, epsilon=args.eps)
    except SwitchError as exc:
        raise UsageError(str(exc)) from None
    res = build_switch(iet, spec, verify_samples=args.samples, seed=args.seed)
    checks = (res.verification or {}).get("checks", {})
    body = {"n": res.n, "m": res.m, "r": res.r, "L": res.m, "rho": res.rho,
            "V_len": res.V_len, "n_steps": res.n_steps,
            "J": [float(res.J[0]), float(res.J[1])],
            "lambda_A": res.lambda_A, "lambda_B": res.lambda_B,
            "return_lower_bound": res.return_lo, "status": res.status,
            "checks": checks}
    return (body, {}, f"status: {res.status}; n = {res.n}, r = {res.r}",
            res.status == "verified")


def cmd_schedule(args):
    from .construction import _STRANDS, ksv_check, run_schedule
    from .joinings import measure_to_csv
    iet = _resolve_iet(args)
    sched = run_schedule(iet, _STRANDS, args.eps, args.levels, N_atoms=args.atoms,
                         seed=args.seed, verify_samples=args.samples)
    rep = ksv_check(sched, seed=args.seed)
    body = {
        "aborted": sched.aborted, "abort_reason": sched.abort_reason,
        "levels": [{"k": lv.k, "epsilon": lv.switch.epsilon, "n_steps": lv.n_steps,
                    "m": lv.m, "r": lv.switch.r, "lambda_J": lv.switch.lambda_J,
                    "exponents": [int(e) for e in lv.exponents],
                    "lambda_A": lv.switch.lambda_A, "lambda_B": lv.switch.lambda_B,
                    "U_mass": lv.U_mass, "status": lv.switch.status} for lv in sched.levels],
        "ksv": rep,
    }
    return (body, {"final_average.csv": measure_to_csv(sched.average)},
            f"levels: {len(sched.levels)}; conditions pass: {rep['all_pass']}",
            not sched.aborted and rep["all_pass"])


def cmd_witness(args):
    from .construction import non_simplicity_witness
    from .joinings import measure_to_csv
    iet = _resolve_iet(args)
    rep = non_simplicity_witness(iet, K_levels=args.levels, N=args.atoms,
                                 seed=args.seed)
    body = {k: v for k, v in rep.items() if k != "schedule"}
    files = {}
    sched = rep.get("schedule")
    if sched is not None:
        body["schedule_levels"] = [
            {"k": lv.k, "n_steps": lv.n_steps, "m": lv.m,
             "exponents": [int(e) for e in lv.exponents], "status": lv.switch.status}
            for lv in sched.levels]
        files["final_average.csv"] = measure_to_csv(sched.average)
    return body, files, f"witness passed: {rep['passed']}", rep["passed"]


# The maximum of each flag that sizes the arrays (`--length`, `--atoms`,
# `--heatmap`) is the largest round count whose peak memory, at the bytes per
# point, atom or heatmap cell measured for its command, stays within 4 GiB:
# half of the documented 8 GB host (README, "Limits").
def build_parser() -> _Parser:
    p = _Parser(prog="iet3", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, extra=None, flags=_IET):
        q = sub.add_parser(name)
        for flag in flags:
            q.add_argument(flag, **_FLAGS[flag])
        q.add_argument("--out", default="iet3-out", help="output directory")
        if extra:
            extra(q)
        q.set_defaults(fn=fn)
        return q

    add("iet-info", cmd_iet_info)
    add("orbit", cmd_orbit, lambda q: (q.add_argument("--x", type=float, default=0.1),
                                       q.add_argument("--length",
                                                      type=_at_least("--length", 1, 30_000_000),
                                                      default=100)))
    add("renorm-find", cmd_renorm_find,
        lambda q: (q.add_argument("--delta", type=_between("--delta", 0), default=0.3),
                   q.add_argument("--t-max", type=_between("--t-max", 0), default=11.0)))
    add("tower", cmd_tower,
        lambda q: (q.add_argument("--k-max", type=_at_least("--k-max", 1), default=20),
                   q.add_argument("--t-max", type=_between("--t-max", 0), default=11.0)))
    add("joining-sample", cmd_joining_sample,
        lambda q: (q.add_argument("--power", type=int, default=1),
                   q.add_argument("--atoms", type=_at_least("--atoms", 1, 20_000_000),
                                  default=10000),
                   q.add_argument("--heatmap", type=_at_least("--heatmap", 0, 20_000), default=0,
                                  help="also write a grid histogram CSV")),
        flags=_IET + ("--seed",))
    add("kr", cmd_kr, lambda q: (q.add_argument("--mu", required=True),
                                 q.add_argument("--nu", required=True),
                                 q.add_argument("--metric", default="interval",
                                                choices=["interval", "circle"])),
        flags=())
    add("approx-powers", cmd_approx_powers,
        lambda q: (q.add_argument("--power", type=int, default=None),
                   q.add_argument("--atoms", type=_at_least("--atoms", 1, 60_000_000),
                                  default=100000),
                   q.add_argument("--bins", type=_at_least("--bins", 2), default=128),
                   q.add_argument("--k-max", type=_at_least("--k-max", 1), default=20),
                   q.add_argument("--t-max", type=_between("--t-max", 0), default=11.0)),
        flags=_IET + ("--seed",))
    add("weak-closure", cmd_weak_closure,
        lambda q: (q.add_argument("--k", type=int, default=1),
                   q.add_argument("--horizon", type=_at_least("--horizon", 1), default=200),
                   q.add_argument("--atoms", type=_at_least("--atoms", 1, 8_000_000),
                                  default=20000)),
        flags=_IET + ("--seed",))
    add("switch", cmd_switch,
        lambda q: (q.add_argument("--a", type=int, default=0),
                   q.add_argument("--b", type=int, default=1)),
        flags=_IET + ("--seed", "--eps", "--samples"))
    add("schedule", cmd_schedule,
        lambda q: (q.add_argument("--levels", type=_at_least("--levels", 1), default=2),
                   q.add_argument("--atoms", type=_at_least("--atoms", 1, 10_000_000),
                                  default=20000)),
        flags=_IET + ("--seed", "--eps", "--samples"))
    add("witness", cmd_witness,
        lambda q: (q.add_argument("--levels", type=_at_least("--levels", 2), default=2),
                   q.add_argument("--atoms", type=_at_least("--atoms", 1, 5_000_000),
                                  default=100000)),
        flags=_IET + ("--seed",))
    return p


def run_command(argv) -> int:
    """Run one subcommand.  Its handler returns ``(body, files, message, ok)``
    (no report when body is None); only this writes them, under ``--out``."""
    try:
        args = build_parser().parse_args(argv)
        body, files, message, ok = args.fn(args)
        if body is not None:
            config = {k: v for k, v in vars(args).items()
                      if k not in ("fn", "out")
                      and (v is None or isinstance(v, (str, int, float, bool)))}
            report = {"tool": "iet3", "version": __version__, "command": args.cmd,
                      "config": config, **body}
            files = {f"{args.cmd}.json": _dumps(report, indent=1) + "\n", **files}
        if files:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (out / name).write_text(text, encoding="utf-8")
        print(message)
        return 0 if ok else VERIFY_ERROR
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VERIFY_ERROR


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
