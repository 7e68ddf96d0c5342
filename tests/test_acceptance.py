"""Acceptance suite: every top-level criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -s or in captured output
on failure) and asserts the same condition.
"""

import itertools
import math
import time

import numpy as np
from iet3.iet_core import Iet3, apply_pow
from iet3.joinings import (DiscreteMeasure2D, kr_distance, product_sample,
                           approx_by_powers, bary_recursion, BaryState,
                           weak_closure_check)


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {name} ({detail})")
    return ok


def test_criterion_1_rotation_correspondence():
    """Rescaled first-return identity over a random ensemble."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    n_cases = 1000
    ls = rng.random((n_cases, 3)) + 0.02
    ls /= ls.sum(axis=1, keepdims=True)
    alphas = (ls[:, 1] + ls[:, 2]) / (1 + ls[:, 1])
    kappas = 1 / (1 + ls[:, 1])
    M = 10_000
    xs = rng.random(n_cases) * kappas      # unrescaled starting points in K
    # orbit the rotations in lockstep, counting slit visits
    pos = xs.copy()
    psi = np.zeros(n_cases, dtype=np.int64)
    for _ in range(M):
        psi += (pos < kappas)
        pos = (pos + alphas) % 1.0
    defined = pos < kappas                 # R^M x back in the slit
    worst = 0.0
    checked = 0
    for i in np.nonzero(defined)[0][:400]:
        iet = Iet3(*[float(v) for v in ls[i]])
        y = apply_pow(iet, int(psi[i]), float(xs[i] / kappas[i])) * kappas[i]
        worst = max(worst, abs(y - pos[i]))
        checked += 1
    dt = time.time() - t0
    ok = worst < 1e-9 and checked >= 200 and dt < 30
    assert _line(1, "rotation correspondence", ok,
                 f"worst={worst:.2e}, checked={checked}, {dt:.1f}s")


def test_criterion_2_tower_rigidity(tower_iet, doc_towers):
    """Documented towers: coverage, rigidity, and the refinement chain."""
    from iet3.towers import build_tower, tower_stats
    t0 = time.time()
    assert len(doc_towers) <= 20
    best = None
    for I, n in doc_towers:
        st = tower_stats(build_tower(tower_iet, I, n), tower_iet)
        assert st.tilde_measure <= st.hat_measure + 1e-12
        assert st.hat_measure <= st.coverage + 1e-12
        if best is None or st.coverage > best.coverage:
            best = st
    dt = time.time() - t0
    ok = best.coverage > 0.9 and best.rigidity < 0.05 and dt < 120
    assert _line(2, "tower rigidity", ok,
                 f"coverage={best.coverage:.6f}, rigidity={best.rigidity:.2e}, {dt:.1f}s")


def test_criterion_3_crossing_dichotomy(switch_iet):
    """Sampled crossing counts take two consecutive values at accepted times."""
    from iet3.renorm import scan_renorm_times, _crossing_samples, _generic_crossing_pair
    scan = scan_renorm_times(switch_iet, delta=0.3, t_max=11.0)
    assert scan.times, "no accepted renormalization times"
    all_ok = True
    details = []
    for rt in scan.times:
        t0 = time.time()
        counts = _crossing_samples(switch_iet, rt.n_steps, samples=10_000)
        m, f_m, f_m1 = _generic_crossing_pair(counts)
        dt = time.time() - t0
        ok = (f_m + f_m1 >= 0.99) and min(f_m, f_m1) >= 0.1 and dt < 60
        all_ok &= ok
        details.append(f"N={rt.n_steps}: {f_m:.3f}/{f_m1:.3f} in {dt:.1f}s")
    assert _line(3, "crossing dichotomy", all_ok, "; ".join(details))


def test_criterion_4_switch_verification(switch_iet):
    """Full switch at (a,b) = (0,1), epsilon = 0.05, 10^4 samples."""
    from iet3.construction import SwitchSpec, build_switch
    t0 = time.time()
    res = build_switch(switch_iet, SwitchSpec(a=0, b=1, epsilon=0.05),
                       verify_samples=10_000, seed=2024)
    dt = time.time() - t0
    checks = res.verification["checks"]
    slack = 4 / math.sqrt(res.m)
    ok = (res.status == "verified"
          and checks["shadow_A_frac_ok"] >= 0.95
          and checks["shadow_B_frac_ok"] >= 0.95
          and res.lambda_A >= 0.5 - 0.05
          and res.lambda_B >= 0.5 - 0.05
          and res.return_lo >= 1.5 * res.r
          and checks["kr_A"] <= 2 * 0.05 + slack
          and checks["kr_B"] <= 2 * 0.05 + slack
          and dt < 300)
    assert _line(4, "switch verification", ok,
                 f"n={res.n}, lamA={res.lambda_A:.4f}, lamB={res.lambda_B:.4f}, "
                 f"krA={checks['kr_A']:.4f}, return margin="
                 f"{res.return_lo - 1.5 * res.r:.2e}, {dt:.1f}s")
    test_criterion_4_switch_verification.result = res


def test_criterion_5_weak_closure(switch_iet):
    """The switch power approximates the half mixture of Id and T."""
    from iet3.construction import SwitchSpec, build_switch
    res = getattr(test_criterion_4_switch_verification, "result", None)
    if res is None:
        res = build_switch(switch_iet, SwitchSpec(a=0, b=1, epsilon=0.05),
                           verify_samples=0, seed=2024)
    t0 = time.time()
    horizon = abs(res.n) + 500
    n_best, err, _ = weak_closure_check(switch_iet, k=1, horizon=horizon,
                                        N=100_000, seed=5)
    dt = time.time() - t0
    ok = err <= 0.1 and dt < 300
    assert _line(5, "weak closure of (Id + T)/2", ok,
                 f"best n={n_best} (switch n={res.n}), kr error={err:.4f}, {dt:.1f}s")


def test_criterion_6_kr_exactness():
    """Solver equals the exhaustive matching oracle; metric axioms hold."""
    t0 = time.time()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        mu = DiscreteMeasure2D.equal_weight(rng.random(n), rng.random(n))
        nu = DiscreteMeasure2D.equal_weight(rng.random(n), rng.random(n))
        got = kr_distance(mu, nu)
        C = (np.abs(mu.xs[:, None] - nu.xs[None, :])
             + np.abs(mu.ys[:, None] - nu.ys[None, :]))
        brute = min(np.mean([C[i, p[i]] for i in range(n)])
                    for p in itertools.permutations(range(n)))
        worst = max(worst, abs(got - brute))
    axiom_worst = 0.0
    for _ in range(1000):
        sizes = rng.integers(2, 12, size=3)
        ms = []
        for s in sizes:
            ws = rng.random(int(s)) + 0.1
            ms.append(DiscreteMeasure2D(rng.random(int(s)), rng.random(int(s)),
                                        ws / ws.sum()))
        a, b, c = ms
        dab, dba = kr_distance(a, b), kr_distance(b, a)
        axiom_worst = max(axiom_worst, abs(dab - dba))
        axiom_worst = max(axiom_worst,
                          dab - (kr_distance(a, c) + kr_distance(c, b)))
    dt = time.time() - t0
    ok = worst < 1e-9 and axiom_worst < 1e-9 and dt < 60
    assert _line(6, "KR solver exactness", ok,
                 f"matching gap={worst:.1e}, axiom gap={axiom_worst:.1e}, {dt:.1f}s")


def test_criterion_7_power_approximation(tower_iet, doc_towers):
    """Operator approximation by powers along a high-coverage tower."""
    from iet3.towers import build_tower, tower_stats
    t0 = time.time()
    I, n = doc_towers[-1]
    tower = build_tower(tower_iet, I, n)
    st = tower_stats(tower, tower_iet)
    assert st.coverage > 0.95
    m = product_sample(100_000, seed=3)
    coeff, errs = approx_by_powers(tower_iet, m, tower, bins=128)
    dt = time.time() - t0
    ok = (errs["coord"] <= 0.1 and coeff.total() <= 1 + 1e-12 and dt < 300)
    assert _line(7, "approximation by powers", ok,
                 f"coverage={st.coverage:.4f}, coord L2={errs['coord']:.4f}, "
                 f"sum c={coeff.total():.6f}, {dt:.1f}s")


def test_criterion_8_hilbert_recursion():
    """Exact contraction ratio of the averaging recursion."""
    t0 = time.time()
    out = bary_recursion(BaryState(d=2, gamma=[1.0, 0.0], a=0.7, b=0.3), 20)
    dt = time.time() - t0
    ok = abs(out["ratio"] - 0.4) < 1e-6 and dt < 1.0
    assert _line(8, "averaging recursion ratio", ok,
                 f"ratio={out['ratio']:.10f}, {dt:.2f}s")


def test_criterion_9_witness(doc_witness):
    """Three-level witness: separation, closeness, fibers, Birkhoff."""
    rep = doc_witness
    items = rep["items"]
    dt = rep["_runtime"]
    ok = (rep["passed"]
          and items["i_product_separation"]["value"] > 4 * rep["budget"]
          and items["ii_mixture_closeness"]["value"] <= rep["budget"]
          and items["iii_fiber_fraction"]["value"] >= 0.7
          and items["iv_birkhoff_spread"]["value"] <= 0.05
          and dt < 900)
    assert _line(9, "non-2-simplicity witness", ok,
                 f"sep={items['i_product_separation']['value']:.4f} vs 4B="
                 f"{4 * rep['budget']:.4f}, mix={items['ii_mixture_closeness']['value']:.5f}"
                 f" vs B={rep['budget']:.5f}, fibers={items['iii_fiber_fraction']['value']:.2f},"
                 f" birkhoff={items['iv_birkhoff_spread']['value']:.4f}, {dt:.0f}s")
