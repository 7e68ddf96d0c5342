"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup` (untimed apart from
the set-up metric), repeats one fixed operation `op` on those inputs, and
checks each operation's output in `checks`.  Why each workload exists:

- witness-fast: the user-facing pipeline, `non_simplicity_witness` at the
  demo's `--fast` size.  It spans every layer, is dominated by the counting
  kernel at 82-bit Q, and runs the pilot schedule whose verifications are
  discarded, so kernel, lazy-verification and grid-LP changes all show.
- kr-certify: the KR layer alone on measures built in set-up (graph joinings
  of small powers, reached by stepwise iteration), with no kernel work in
  the timed region.  A grid-solver or nearest-neighbour change shows; a
  kernel change must not.
- towers-exact: exact Fraction interval transport (`suggest_towers`,
  `build_tower`, `tower_stats`) and `approx_by_powers` on the documented
  tower set, with neither kernel nor LP.
- golden-powers: power and orbit joinings of the golden-mean IET, the only
  workload where the stepwise `iet_core` path does real work, and the
  kernel at 41-bit Q with a long continued fraction (against 82 bits and a
  short one in witness-fast), so a width- or shape-keyed kernel change
  shows as a split between the two.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# declared f64 error of one branch application (iet3.iet_core.Iet3: 4 ulp)
_STEP_ULPS = 4 * np.finfo(float).eps


def _seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def witness_digest(rep: dict) -> str:
    """Digest of the witness report body as the CLI writes it: the report
    without the schedule object, plus each level's scale and exponents."""
    body = {k: v for k, v in rep.items() if k != "schedule"}
    body["schedule_levels"] = [
        {"k": lv.k, "n_steps": lv.n_steps, "m": lv.m,
         "exponents": [int(e) for e in lv.exponents]}
        for lv in rep["schedule"].levels]
    text = json.dumps(body, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()


class WitnessFast:
    name = "witness-fast"
    modules = ("iet3.params", "iet3.construction")
    K_LEVELS, ATOMS = 2, 20_000

    def setup(self, seed):
        from iet3.params import documented_switch_iet
        return {"iet": documented_switch_iet(), "seed": seed}

    def op(self, st):
        from iet3.construction import non_simplicity_witness
        return non_simplicity_witness(st["iet"], K_levels=self.K_LEVELS,
                                      N=self.ATOMS, seed=st["seed"])

    def checks(self, st, rep):
        items = rep.get("items", {})
        out = [("witness.passed", bool(rep["passed"]))]
        out += [(f"witness.{k}", bool(items.get(k, {}).get("pass")))
                for k in ("i_product_separation", "ii_mixture_closeness",
                          "iii_fiber_fraction", "iv_birkhoff_spread")]
        return out

    def digest(self, rep):
        return witness_digest(rep)


class KrCertify:
    name = "kr-certify"
    modules = ("iet3.params", "iet3.joinings")
    STRAND_ATOMS = 20_000         # per strand, the fast witness's size
    STRAND_EXPONENTS = (8, 13)    # stepwise powers: no kernel work
    GRID = 96
    LP_ATOMS = 300                # n * m = 90k transport variables
    ASSIGN_ATOMS = 2000

    def setup(self, seed):
        from iet3.joinings import DiscreteMeasure2D, mix, sample_power_joining
        from iet3.params import documented_switch_iet
        iet = documented_switch_iet()
        s = _seeds(seed, 8)
        base = mix(*(sample_power_joining(iet, e, self.STRAND_ATOMS, seed=s[i])
                     for i, e in enumerate((0, 1))))
        avg = mix(*(sample_power_joining(iet, e, self.STRAND_ATOMS, seed=s[2 + i])
                    for i, e in enumerate(self.STRAND_EXPONENTS)))
        rng = np.random.default_rng(s[4])

        def pair(n, seed_graph):
            mu = DiscreteMeasure2D.equal_weight(rng.random(n), rng.random(n))
            return mu, sample_power_joining(iet, self.STRAND_EXPONENTS[0], n,
                                            seed=seed_graph)
        return {"avg": avg, "base": base, "lp_pair": pair(self.LP_ATOMS, s[5]),
                "assign_pair": pair(self.ASSIGN_ATOMS, s[6])}

    def op(self, st):
        from iet3.joinings import (kr_distance_detailed, kr_lower_witness,
                                   kr_upper_binned)
        avg, base = st["avg"], st["base"]
        mu, nu = st["lp_pair"]
        amu, anu = st["assign_pair"]
        # the largest allocation (the assignment's cost matrix) first: the
        # peak resident memory then does not depend on what the LP left behind
        out = {"assign": kr_distance_detailed(amu, anu),
               "assign_lower": kr_lower_witness(amu, anu)}
        return out | {
            "grid": kr_distance_detailed(avg, base, method="grid", grid=self.GRID),
            "upper": kr_upper_binned(avg, base, bins=1024),
            "lower": kr_lower_witness(avg, base),
            "lp": kr_distance_detailed(mu, nu, method="lp"),
            "lp_assign": kr_distance_detailed(mu, nu, method="assignment"),
        }

    def checks(self, st, r):
        g = r["grid"]
        return [
            ("kr.grid_method", g["method"] == f"grid{self.GRID}"),
            ("kr.lower_le_grid_plus_snap", r["lower"] <= g["value"] + g["bound"]),
            ("kr.grid_minus_snap_le_upper", g["value"] - g["bound"] <= r["upper"]),
            ("kr.lp_eq_assignment", abs(r["lp"]["value"] - r["lp_assign"]["value"]) <= 1e-9),
            ("kr.auto_is_assignment", r["assign"]["method"] == "assignment"),
            ("kr.lower_le_assignment", r["assign_lower"] <= r["assign"]["value"] + 1e-12),
        ]


class TowersExact:
    name = "towers-exact"
    modules = ("iet3.params", "iet3.towers", "iet3.joinings")
    SAMPLE_ATOMS = 100_000
    # the first two candidates (heights 6 and 362); the third (height 32586)
    # alone costs 6-13 s of Fraction transport, one unsteady sample per run
    K_MAX = 2

    def setup(self, seed):
        from iet3.joinings import product_sample
        from iet3.params import documented_tower_iet
        return {"iet": documented_tower_iet(),
                "m": product_sample(self.SAMPLE_ATOMS, seed=_seeds(seed, 1)[0])}

    def op(self, st):
        from iet3.joinings import approx_by_powers
        from iet3.towers import build_tower, suggest_towers, tower_stats
        iet = st["iet"]
        cands = suggest_towers(iet, k_max=self.K_MAX, t_max=11.0)
        towers = [build_tower(iet, I, n) for I, n in cands]
        stats = [tower_stats(t, iet) for t in towers]
        coeff, errs = approx_by_powers(iet, st["m"], towers[-1], bins=128)
        return {"towers": towers, "stats": stats, "coeff_total": coeff.total(),
                "errs": errs}

    def checks(self, st, r):
        from iet3.iet_core import apply
        stats = r["stats"]
        out = []
        for i, (t, s) in enumerate(zip(r["towers"], stats)):
            # T maps the middle of each level to the middle of the next one
            # (one step's declared error plus the rounding of the level ends),
            # and the levels are disjoint: their union has measure n * width
            w = float(t.width)
            mids = t.level_lows + w / 2
            out.append((f"towers.levels_are_images[{i}]",
                        _gap(apply(st["iet"], mids[:-1].copy()), mids[1:]) <= 2 * _STEP_ULPS))
            out.append((f"towers.coverage_is_height_x_width[{i}]",
                        abs(s.coverage - t.height * w) <= t.height * _STEP_ULPS))
        out += [(f"towers.nested_measures[{i}]",
                s.tilde_measure <= s.hat_measure + 1e-12
                and s.hat_measure <= s.coverage + 1e-12)
               for i, s in enumerate(stats)]
        best = max(stats, key=lambda s: s.coverage)
        out += [("towers.best_coverage", best.coverage > 0.9),
                ("towers.best_rigidity", best.rigidity < 0.05),
                ("towers.approx_coord_error", r["errs"]["coord"] <= 0.1),
                ("towers.coefficient_mass", r["coeff_total"] <= 1 + 1e-12)]
        return out


class GoldenPowers:
    name = "golden-powers"
    modules = ("iet3.params", "iet3.joinings", "iet3.iet_core")
    ATOMS = 250
    STEPWISE_EXPONENT = 3000
    COUNTING_EXPONENTS = (10**6, 10**12)
    ORBIT_WINDOW, ORBIT_LAG = 10**10, 7
    SHARED_EXPONENT = 5000        # reachable by both paths

    def setup(self, seed):
        from iet3.params import golden_iet
        s = _seeds(seed, 6)
        rng = np.random.default_rng(s[4])
        return {"iet": golden_iet(), "seeds": s[:4], "x0": float(rng.random()),
                "xs": (np.arange(self.ATOMS) + rng.random(self.ATOMS)) / self.ATOMS}

    def op(self, st):
        from iet3.joinings import empirical_orbit_joining, sample_power_joining
        iet, s = st["iet"], st["seeds"]
        exps = (self.STEPWISE_EXPONENT, -self.STEPWISE_EXPONENT) + self.COUNTING_EXPONENTS
        out = {e: sample_power_joining(iet, e, self.ATOMS, seed=s[i])
               for i, e in enumerate(exps)}
        out["orbit"] = empirical_orbit_joining(iet, st["x0"], self.ORBIT_LAG,
                                               self.ORBIT_WINDOW,
                                               subsample=self.ATOMS, seed=s[3])
        return out

    def checks(self, st, r):
        from iet3.iet_core import apply_pow, apply_pow_many
        iet = st["iet"]
        cell = 1 / iet.rotation_counter().Q     # one cell of the integer circle
        out = []
        # stepwise joinings: the inverse branches map T^a x back to x within
        # the declared per-step bound, a steps each way
        for e in (self.STEPWISE_EXPONENT, -self.STEPWISE_EXPONENT):
            back = apply_pow(iet, -e, r[e].ys.copy())
            out.append((f"golden.stepwise_inverse[{e}]",
                        _gap(back, r[e].xs) <= 2 * abs(e) * _STEP_ULPS))
        # counting joinings: exact on the integer circle, so backward counting
        # returns each atom to its snapped base point
        for e in self.COUNTING_EXPONENTS:
            back = apply_pow_many(iet, -e, r[e].ys, step_limit=0)
            out.append((f"golden.counting_inverse[{e}]", _gap(back, r[e].xs) <= cell))
        # orbit joining: each counted y is T^lag of its x, here stepped
        o = r["orbit"]
        stepped = apply_pow(iet, self.ORBIT_LAG, o.xs.copy())
        out.append(("golden.orbit_lag_stepwise",
                    _gap(stepped, o.ys) <= self.ORBIT_LAG * _STEP_ULPS + cell))
        return out

    def static_checks(self, st):
        """Checks that do not depend on the operation's result: run once."""
        from iet3.iet_core import apply_pow, apply_pow_many
        iet, xs, n = st["iet"], st["xs"], self.SHARED_EXPONENT
        out = []
        for e in (n, -n):
            stepwise = apply_pow(iet, e, xs.copy())
            counting = apply_pow_many(iet, e, xs, step_limit=0)
            out.append((f"golden.paths_agree[{e}]",
                        _gap(stepwise, counting) <= abs(e) * _STEP_ULPS))
        return out


WORKLOADS = {w.name: w for w in (WitnessFast(), KrCertify(), TowersExact(),
                                 GoldenPowers())}
