"""Switch construction, schedule, condition checks, and degeneracy paths."""

import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iet3.arith import cf_to_fraction
from iet3.iet_core import Iet3, RotationRep, apply, from_rotation
from iet3.construction import (GeometryTooCoarse, Schedule, ScheduleLevel, SearchFailure,
                               SwitchError, SwitchResult, SwitchSpec, _SwitchEngine,
                               _materialize_B,
                               _mix_seed, build_switch, ksv_check, run_schedule,
                               verify_switch)
from iet3.renorm import _SectionRecord, section_record_exact


def test_n_formula_identity():
    for a in range(-10, 11):
        for b in range(-10, 11):
            if a == b:
                continue
            for m in (0, 1, 7, 100):
                assert b + (m + 1) * (a - b) == a + m * (a - b)


def test_mix_seed_pinned_and_numpy_invariant():
    # pinned values: a change of encoding would move every derived seed
    assert _mix_seed(7, "A") == 2366874878
    assert _mix_seed(7, ("lvl", 1)) == 1134002132
    assert _mix_seed(np.int64(7), "A") == _mix_seed(7, "A")
    assert _mix_seed(7, ("lvl", np.int64(1))) == _mix_seed(7, ("lvl", 1))
    assert _mix_seed(np.float64(0.5), "x") == _mix_seed(0.5, "x")


def test_spec_rejects_equal_pair():
    with pytest.raises(SwitchError):
        SwitchSpec(a=0, b=0, epsilon=0.05)
    with pytest.raises(SwitchError):
        SwitchSpec(a=0, b=1, epsilon=0.5)


def test_switch_exponent_sign_convention():
    # (a, b) = (0, 1) gives n = -m; both closed forms agree
    spec = SwitchSpec(a=0, b=1, epsilon=0.05)
    m = 17
    n = spec.b + (m + 1) * (spec.a - spec.b)
    assert n == -m
    assert n == spec.a + m * (spec.a - spec.b)


def test_documented_switch_verified(doc_switch):
    res = doc_switch
    assert res.status == "verified"
    assert res.n_steps == 32001
    assert res.n == -res.m
    assert res.lambda_A >= 0.5 - 0.05 - 1e-9
    assert res.lambda_B >= 0.5 - 0.05 - 1e-9
    assert res.return_lo >= 1.5 * res.r
    checks = res.verification["checks"]
    assert checks["shadow_A_frac_ok"] >= 0.95
    assert checks["shadow_B_frac_ok"] >= 0.95


def test_kr_window_check_says_when_it_is_vacuous(doc_switch, doc_witness):
    # 2 eps + 4/sqrt(L) reaches 2, the taxicab diameter, on short windows
    checks = doc_switch.verification["checks"]
    assert checks["kr_bound"] < 2 and checks["kr_vacuous"] is False
    sw = doc_witness["schedule"].levels[0].switch
    checks = sw.verification["checks"]
    assert sw.m <= 4 and checks["kr_vacuous"] is True


def test_kr_window_check_reads_the_whole_window(doc_switch, monkeypatch):
    # L = 28,000 steps in 20,000 strata: every sampled orbit joining reaches
    # the last stratum of the window, [L - L/20000, L)
    import iet3.construction as construction
    seen = []
    at = construction._orbit_joining_at
    monkeypatch.setattr(construction, "_orbit_joining_at",
                        lambda eng, u0, n, idx: seen.append(idx) or at(eng, u0, n, idx))
    verify_switch(doc_switch, samples=50, seed=3)
    L = doc_switch.m
    assert L == 28000 and len(seen) == 12
    assert all(int(idx[-1]) >= L - math.ceil(L / 20000) for idx in seen)


@pytest.mark.parametrize("n", [-28000, -3, 0, 5])
def test_orbit_joining_routes_agree(switch_iet, monkeypatch, n):
    # the orbit scanned and the orbit solved give the same exact atoms on
    # contiguous, strided and jittered index sets, for exponents of any sign;
    # each route is forced through the one walk-or-solve rule of `arith`.
    # The joining reads its atoms as floats (`arith._exit`): by each route
    # they are the exact atoms' floats, bit for bit
    import iet3.arith as arith
    import iet3.construction as construction
    eng = _SwitchEngine(switch_iet)
    scans = []
    returns = arith.RotationCounter._returns
    monkeypatch.setattr(arith.RotationCounter, "_returns",
                        lambda rc, *args: scans.append(1) or returns(rc, *args))
    rng = np.random.default_rng(4)
    index_sets = [np.arange(400), np.arange(400) * 7 + 3,
                  construction._index_strata(rng, 400, 5000),
                  construction._index_strata(rng, 300, 900)]
    # three points on the arc, and one off it
    starts = [*eng.slit_samples(3, 8), eng.C + 12345]
    for u0, idx in zip(starts, index_sets):
        exact, atoms = [], []
        for cost in (10**9, 0):           # every index scanned, then solved
            for name in ("_SOLVE_CALL", "_SOLVE_POINT"):
                monkeypatch.setattr(arith, name, cost)
            scans.clear()
            exact.append([list(eng.rc.orbit(int(u0), s, idx)) for s in (0, n)])
            m = construction._orbit_joining_at(eng, int(u0), n, idx)
            atoms.append((m.xs, m.ys))
            assert bool(scans) == (cost > 0)
        assert exact[0] == exact[1]
        want = [eng.to_unit(np.array(e, dtype=object)) for e in exact[0]]
        for xs, ys in atoms:
            assert np.array_equal(xs.view(np.int64), want[0].view(np.int64))
            assert np.array_equal(ys.view(np.int64), want[1].view(np.int64))


def test_verify_corrupted_exponent(doc_switch):
    bad = dataclasses.replace(doc_switch, n=doc_switch.n + 1)
    rep = verify_switch(bad, samples=300, seed=99)
    assert rep["checks"]["shadow_A_frac_ok"] < 0.95
    assert not rep["all_pass"]


def test_verify_zero_samples(doc_switch):
    # with no sample nothing is checked: refused, where it passed vacuously
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            verify_switch(doc_switch, samples=samples)


def test_switch_without_samples_is_unverified(switch_iet):
    res = build_switch(switch_iet, SwitchSpec(a=0, b=1, epsilon=0.05),
                       verify_samples=0, seed=2024)
    assert res.status == "constructed-but-unverified"
    assert res.verification is None


def test_planned_levels_are_verified_only_when_finished(switch_iet, monkeypatch):
    import iet3.construction as construction
    calls = []
    verify = construction.verify_switch
    monkeypatch.setattr(construction, "verify_switch",
                        lambda *a, **kw: calls.append(kw["seed"]) or verify(*a, **kw))
    plan = construction._plan_schedule(switch_iet, (0, 1), 0.025, 1, seed=5)
    assert not calls
    assert [lv.switch.status for lv in plan.levels] == ["constructed-but-unverified"]
    assert plan.levels[0].U_mass is None and plan.average is None
    sched = construction._finish_schedule(plan, 500, seed=5, verify_samples=200)
    assert calls == [_mix_seed(5, ("lvl", 1))]
    lv = sched.levels[0]
    report = lv.switch.verification
    assert lv.switch.status == ("verified" if report["all_pass"]
                                else "constructed-but-unverified")
    assert lv.exponents == plan.levels[0].exponents


def test_witness_reuses_a_pilot_within_budget(switch_iet, monkeypatch):
    # a large displacement median puts the pilot within the accuracy budget:
    # the witness keeps it, planned once, rather than planning a rescaled one
    import iet3.construction as construction
    plans = []
    plan = construction._plan_schedule
    monkeypatch.setattr(construction, "_median_displacement", lambda iet: 10.0)
    monkeypatch.setattr(construction, "_plan_schedule",
                        lambda *a: plans.append(plan(*a)) or plans[-1])
    rep = construction.non_simplicity_witness(switch_iet, K_levels=2, N=3000, seed=7)
    assert len(plans) == 1 and not rep["aborted"]
    assert rep["eps"] == [0.025, 0.0125]
    assert ([lv.exponents for lv in rep["schedule"].levels]
            == [lv.exponents for lv in plans[0].levels])


def test_golden_switch_not_admissible(golden):
    # badly approximable rotation numbers never satisfy the displacement
    # bound: N ||N alpha|| stays above ~0.447
    with pytest.raises(SearchFailure):
        build_switch(golden, SwitchSpec(a=0, b=1, epsilon=0.05),
                     verify_samples=0)


def test_only_an_exact_rotation_offers_its_period_as_a_scale(golden):
    # the last continued-fraction denominator of the lift is its period Q: an
    # exact rotation closes up there, the binary64 golden rotation does not
    exact = _SwitchEngine(Iet3(Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)))
    assert exact.scales[-1] == exact.Q
    with pytest.raises(SearchFailure) as exc:
        build_switch(golden, SwitchSpec(a=0, b=1, epsilon=0.05), verify_samples=0)
    assert str(golden.rotation_counter().Q) not in str(exc.value)


def test_schedule_base_case(switch_iet):
    sched = run_schedule(switch_iet, (0, 1), 0.025, K_levels=0,
                         N_atoms=3000, seed=3)
    assert not sched.levels
    m0, m1 = sched.strand_measures
    assert np.allclose(m0.xs, m0.ys)  # exponent 0 strand is diagonal
    y = apply(switch_iet, m1.xs.copy())
    assert np.max(np.abs(np.asarray(y, dtype=float) - m1.ys)) < 1e-9
    rep = ksv_check(sched)
    assert rep["all_pass"]
    assert all(c.get("note", "").startswith("vacuous")
               for c in rep["conditions"].values())


def test_schedule_one_level(switch_iet):
    sched = run_schedule(switch_iet, (0, 1), 0.025, K_levels=1,
                         N_atoms=4000, seed=5, verify_samples=400)
    assert len(sched.levels) == 1
    lv = sched.levels[0]
    assert lv.exponents == (lv.m + 1, -lv.m)
    assert min(lv.switch.lambda_A, lv.switch.lambda_B) > 0.1
    assert lv.U_mass < lv.switch.epsilon + 1e-9


def test_witness_three_levels(doc_witness):
    rep = doc_witness
    assert not rep.get("aborted")
    assert rep["passed"]
    items = rep["items"]
    assert items["i_product_separation"]["value"] > 4 * rep["budget"]
    assert items["ii_mixture_closeness"]["value"] <= rep["budget"]
    assert items["iii_fiber_fraction"]["value"] >= 0.7
    assert items["iv_birkhoff_spread"]["value"] <= 0.05
    assert rep["keep_away_ok"]
    # separation and fat fibers hold simultaneously on the same report
    assert items["i_product_separation"]["pass"] and items["iii_fiber_fraction"]["pass"]


def test_witness_average_is_the_certified_one(doc_witness, switch_iet):
    # item ii is computed on the schedule's own average, the one the CLI
    # writes to final_average.csv
    from iet3.joinings import kr_upper_binned, mix, sample_power_joining
    sched = doc_witness["schedule"]
    gseed = _mix_seed(7, "sharedgrid")
    base = mix(*(sample_power_joining(switch_iet, e, 100_000, seed=gseed)
                 for e in sched.initial_exponents))
    assert (kr_upper_binned(sched.average, base, bins=1024)
            == doc_witness["items"]["ii_mixture_closeness"]["value"])


def test_witness_schedule_conditions(doc_witness):
    sched = doc_witness["schedule"]
    assert len(sched.levels) == 3
    rep = ksv_check(sched, seed=11)
    assert rep["all_pass"], rep["conditions"]
    # condition (d): the recorded products decrease
    vals = rep["conditions"]["d"]["values"]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_each_switch_fact_is_stored_once(doc_witness):
    names = {cls: [f.name for f in dataclasses.fields(cls)]
             for cls in (ScheduleLevel, SwitchResult, Schedule)}
    assert names[ScheduleLevel] == ["k", "exponents", "U_mass", "switch"]
    assert not {"L", "diagnostics"} & set(names[SwitchResult])
    assert "d" not in names[Schedule]
    lv = doc_witness["schedule"].levels[0]
    assert (lv.n_steps, lv.m) == (lv.switch.n_steps, lv.switch.m)


def test_derived_record_fields_are_properties(doc_witness, doc_switch):
    # a value read from another field is not settable beside it
    sched = doc_witness["schedule"]
    fields = {cls: {f.name for f in dataclasses.fields(cls)} for cls in (SwitchResult, Schedule)}
    assert "iet" in fields[SwitchResult] and "iet" in fields[Schedule]
    assert not {"status", "rho", "V_len", "J", "lambda_J", "lambda_A"} & fields[SwitchResult]
    assert not {"aborted", "average"} & fields[Schedule]
    # the circle-derived values are read from the switch's own IET's circle
    res, circle = doc_switch, doc_switch.iet.rotation_counter()
    rec = section_record_exact(circle.P, circle.Q, circle.C, res.n_steps)
    assert (res.rho, res.V_len) == (rec.rho, rec.V_len)
    assert res.J == tuple(j / circle.C for j in res.J_cells)
    assert sched.average is sched.average and not sched.aborted
    # the schedule plans level k at eps_1 / 2^(k-1), as its switches hold
    assert (list(sched.eps) == [lv.switch.epsilon for lv in sched.levels]
            == [sched.eps[0] / 2 ** k for k in range(3)])


def test_no_function_takes_the_iet_beside_its_record():
    # a switch or a schedule holds the IET it was built on: none is passed
    # beside it, so none can be checked against another IET
    import iet3.construction as construction
    fns = [f for f in vars(construction).values()
           if inspect.isfunction(f) and f.__module__ == construction.__name__]
    both = [f.__name__ for f in fns
            if "iet" in (ps := inspect.signature(f).parameters)
            and any(p.annotation in ("SwitchResult", "Schedule") for p in ps.values())]
    assert len(fns) > 20 and not both


@pytest.mark.parametrize("rec, reason", [
    (_SectionRecord(rho=1e-9, marked_term=0.0, dist_hat=0.5, V_len=0.5), "dist 0.500 >= delta"),
    (_SectionRecord(rho=1e-9, marked_term=0.0, dist_hat=0.1, V_len=0.9), "V 0.900 unbalanced"),
])
def test_scale_rejections_name_their_reason(switch_iet, monkeypatch, rec, reason):
    # every scale far from the half-marked torus, or with an unbalanced
    # closing length: the search fails and says why
    import iet3.construction as construction
    monkeypatch.setattr(construction, "section_record_exact", lambda *a: rec)
    with pytest.raises(SearchFailure, match="no admissible scale") as exc:
        build_switch(switch_iet, SwitchSpec(a=0, b=1, epsilon=0.05), verify_samples=0)
    assert reason in str(exc.value)


def test_a_raising_verification_ends_the_schedule(switch_iet, monkeypatch):
    # level 2's verification raises: the schedule keeps level 1, says why it
    # stopped, and samples its strands at level 1's exponents
    import iet3.construction as construction
    from iet3.joinings import sample_power_joining
    calls = []

    def verify(res, samples, seed):
        calls.append(seed)
        if len(calls) == 2:
            raise SearchFailure("no B-side points found")
        return {"all_pass": True, "checks": {}}

    monkeypatch.setattr(construction, "verify_switch", verify)
    sched = run_schedule(switch_iet, (0, 1), 0.025, K_levels=2, N_atoms=500, seed=5,
                         verify_samples=200)
    assert calls == [_mix_seed(5, ("lvl", k)) for k in (1, 2)]
    assert sched.abort_reason == "level 2: no B-side points found" and sched.aborted
    assert [lv.k for lv in sched.levels] == [1] and sched.levels[0].U_mass is not None
    gseed = _mix_seed(5, "sharedgrid")
    for m, e in zip(sched.strand_measures, sched.levels[0].exponents, strict=True):
        want = sample_power_joining(switch_iet, e, 500, seed=gseed)
        assert np.array_equal(m.xs, want.xs) and np.array_equal(m.ys, want.ys)


@pytest.mark.parametrize("laps", [1, 2, 4])
def test_a_shortened_tower_keeps_its_return_margin(switch_iet, monkeypatch, laps):
    # a return bound read at `laps` times the ladder denominator below the
    # one that resolves the width: far below the tower's 1.5 r, so the tower
    # is shortened to every period that keeps return_lo >= 1.5 r (one at
    # laps = 2, two at laps = 4), or refused when no period fits
    real = _SwitchEngine.next_denominator

    def below(self, width):
        return laps * self.denoms[self.denoms.index(real(self, width)) - 1]

    monkeypatch.setattr(_SwitchEngine, "next_denominator", below)
    spec = SwitchSpec(a=0, b=1, epsilon=0.05)
    if laps == 1:
        with pytest.raises(GeometryTooCoarse):
            build_switch(switch_iet, spec, verify_samples=0)
        return
    res = build_switch(switch_iet, spec, verify_samples=0)
    assert res.r == res.m * ((2 * res.return_lo) // (3 * res.m)) >= res.m
    assert res.return_lo >= 1.5 * res.r


def test_ksv_judges_each_level_by_its_own_epsilon(doc_witness):
    # two levels asked for one epsilon: level 2 keeps its switch's own, here
    # set below its measured fibre gap (about 1e-9), so (A) fails at level 2
    sched = doc_witness["schedule"]
    lv = sched.levels[1]
    tight = dataclasses.replace(lv, switch=dataclasses.replace(lv.switch, epsilon=1e-12))
    two = dataclasses.replace(sched, levels=[sched.levels[0], tight], eps=sched.eps[:1])
    rep = ksv_check(two, seed=11)["conditions"]
    assert rep["A"]["worst_fiber_gaps"][1] > 1e-12 and not rep["A"]["pass"]
    # (c) lists the epsilons the schedule asked for, (B) level 1's d values
    assert rep["c"]["epsilons"] == [sched.eps[0]] and len(rep["B"]["values"]) == 2


def test_witness_degenerate_rational_control():
    # periodic system: the strands collapse onto the diagonal and the fiber
    # criterion flags a non-witness
    iet = Iet3(Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
    x = Fraction(3, 1000)
    cur, p = x, 0
    for i in range(1, 5000):
        cur = apply(iet, cur)
        if cur == x:
            p = i
            break
    from iet3.joinings import mix, sample_power_joining, disintegrate, fiber_diameter_stats
    m = mix(sample_power_joining(iet, 0, 4000, seed=1),
            sample_power_joining(iet, p, 4000, seed=2))
    st = fiber_diameter_stats(disintegrate(m, 64), threshold=0.1)
    assert st["fraction_above"] < 0.1  # fibers collapse: not a witness
    # the schedule itself cannot run: the rotation closes up
    sched = run_schedule(iet, (0, p), 0.025, K_levels=1, N_atoms=500,
                         verify_samples=0)
    assert sched.aborted
    assert "level 1" in sched.abort_reason


def test_switch_engine_uses_the_iets_circle(golden):
    # the switch engine counts on the same integer circle as sampling,
    # renormalization and towers: a float IET is lifted once, one way
    rc, circle = _SwitchEngine(golden).rc, golden.rotation_counter()
    assert (rc.P, rc.Q, rc.C) == (circle.P, circle.Q, circle.C)


@st.composite
def small_exact_engines(draw):
    """Switch engines of exact IETs whose integer circles have at most a few
    hundred cells."""
    d = draw(st.integers(3, 80))
    l1 = draw(st.integers(1, d - 2))
    l2 = draw(st.integers(1, d - 1 - l1))
    return _SwitchEngine(Iet3(Fraction(l1, d), Fraction(l2, d), Fraction(d - l1 - l2, d)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_exact_engines(), st.data())
def test_clear_matches_stepping(eng, data):
    Q = eng.Q
    us = data.draw(st.lists(st.integers(0, Q - 1), min_size=1, max_size=6))
    # arcs [lo, hi) may start below 0 or end past Q: they wrap around the circle
    arcs = data.draw(st.lists(st.tuples(st.integers(-Q, Q - 1), st.integers(1, Q))
                              .map(lambda t: (t[0], t[0] + t[1])), min_size=1, max_size=3))
    back, fwd = data.draw(st.integers(0, 40)), data.draw(st.integers(0, 40))
    got = eng.clear(us, arcs, back, fwd)
    for u, g in zip(us, got):
        orbit = [(u + j * eng.P) % Q for j in range(-back, fwd + 1)]
        assert bool(g) == all((x - lo) % Q >= hi - lo for x in orbit for lo, hi in arcs)


def _crossings_and_clearance(eng, N, W):
    """Per cell u of the slit: its crossing count, and whether its translates
    (u + jP) mod Q miss both zones for every |j| <= (3 + W) N."""
    P, Q, C = eng.P, eng.Q, eng.C
    u = np.arange(C)
    counts = ((u[:, None] + np.arange(1, N + 1) * P) % Q < C).sum(axis=1)
    window = (3 + W) * N
    orbit = (u[:, None] + np.arange(-window, window + 1) * P) % Q
    clear = np.ones(C, dtype=bool)
    for lo, hi in eng.zones(N):
        clear &= ((orbit - lo) % Q >= hi - lo).all(axis=1)
    return counts, clear


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=3), st.integers(24, 60),
       st.integers(1, 3), st.integers(0, 1), st.data())
def test_materialized_B_matches_cells(head, big, last, W, data):
    # circles of a few hundred cells; the large partial quotient leaves
    # cells clear of the zones at the denominator N before it, and the
    # parity of len(head) sets the sign of the residue N P mod Q
    alpha = cf_to_fraction([0, *head, big, last])
    p, q = alpha.numerator, alpha.denominator
    kappa = Fraction(data.draw(st.integers(max(p, q - p) + 1, q - 1)), q)
    eng = _SwitchEngine(from_rotation(RotationRep(alpha, kappa)))
    N = cf_to_fraction([0, *head]).denominator
    counts, clear = _crossings_and_clearance(eng, N, W)
    # the zone arcs [0, w) and [Q - w, Q) are N steps apart, so cell 0 always
    # meets a zone and no clear run wraps past 0
    assert not clear[0]
    m = data.draw(st.sampled_from(sorted(set(counts[clear].tolist()) or {0}))) - 1
    runs = []
    for u in np.flatnonzero(clear & (counts == m + 1)).tolist():
        if runs and runs[-1][1] == u:
            runs[-1][1] = u + 1
        else:
            runs.append([u, u + 1])
    assert _materialize_B(eng, N, m, W) == [tuple(r) for r in runs]
