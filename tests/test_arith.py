"""Exact counting kernels against brute force, and against the classical
floor sums kept here as the counting oracle (`floor_sum`, `floor_sum_vec`)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iet3.arith import (_WIDE, RotationCounter, _first_visit_bound, _to_ints, _to_lanes,
                        _wrap_table, cf_convergents, cf_expansion, cf_to_fraction,
                        float_to_convergent)
from iet3.params import documented_switch_iet, golden_iet

# fixed example sequence: the suite stays deterministic run to run
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
NATIVE_N = 1 << 48        # counts from here on take the object path


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a + b*i) / m) for n >= 0, m >= 1, a, b >= 0."""
    if n <= 0:
        return 0
    ans = 0
    while True:
        if a >= m:
            ans += (a // m) * n
            a %= m
        if b >= m:
            ans += (b // m) * (n * (n - 1) // 2)
            b %= m
        y_max = a + b * n
        if y_max < m:
            return ans
        n, b, m, a = y_max // m, m, b, y_max % m


def floor_sum_vec(n, m: int, a, b: int) -> np.ndarray:
    """Vectorized floor_sum over offset array ``a`` (and matching ``n``).

    Arrays are object-dtype so intermediate products may exceed int64.  The
    Euclidean descent on (b, m) is shared across entries; entries that finish
    early continue with n = 0, contributing nothing.
    """
    a = np.asarray(a, dtype=object).copy()
    n = np.broadcast_to(np.asarray(n, dtype=object), a.shape).copy()
    if a.size == 0:
        return np.zeros(0, dtype=object)
    n[n < 0] = 0
    ans = np.zeros(a.shape, dtype=object)
    m = int(m)
    b = int(b)
    while True:
        if b >= m:
            ans += (b // m) * (n * (n - 1) // 2)
            b %= m
        ans += (a // m) * n
        a %= m
        y_max = a + b * n
        done = y_max < m
        if bool(np.all(done)):
            return ans
        n_new = y_max // m
        a = y_max - n_new * m
        n = n_new
        n[done] = 0
        b, m = m, b


def _floor_sum_visits(rc: RotationCounter, us, ns, forward) -> np.ndarray:
    """`visits` from floor sums: indicator(y mod Q >= C) = floor((y + Q -
    C) / Q) - floor(y / Q), summed over the n positions y = lo + l P from
    lo = u + P, or lo = u - n P backward, counts the steps off the arc."""
    us, ns = np.asarray(us, dtype=object), np.maximum(np.asarray(ns, dtype=object), 0)
    lo = np.where(forward, us + rc.P, us - ns * rc.P) % rc.Q
    return ns - (floor_sum_vec(ns, rc.Q, lo + rc.Q - rc.C, rc.P)
                 - floor_sum_vec(ns, rc.Q, lo, rc.P))


def _object_twin(rc: RotationCounter) -> RotationCounter:
    """The same circle with its native form withheld: every count it makes
    descends the wrap table on Python ints."""
    twin = RotationCounter(rc.P, rc.Q, rc.C)
    twin._native = None
    return twin


_SWITCH = documented_switch_iet().rotation_counter()     # 82 bits, three wide levels
_GOLDEN = golden_iet().rotation_counter()                # 41 bits, every level narrow


def test_floor_sum_brute():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(0, 200))
        m = int(rng.integers(1, 500))
        a = int(rng.integers(0, 2000))
        b = int(rng.integers(0, 2000))
        assert floor_sum(n, m, a, b) == sum((a + b * i) // m for i in range(n))


def test_floor_sum_vec_matches_scalar():
    rng = np.random.default_rng(2)
    ns = rng.integers(0, 500, size=64)
    offs = rng.integers(0, 10**6, size=64)
    m, b = 999_983, 314_159
    out = floor_sum_vec(ns.astype(object), m, offs.astype(object), b)
    for i in range(64):
        assert out[i] == floor_sum(int(ns[i]), m, int(offs[i]), b)


def test_floor_sum_vec_bigint():
    Q = 10**24 + 7
    P = 6180339887498948482045868
    offs = np.array([123, Q - 5, Q // 3], dtype=object)
    n = 10**13
    out = floor_sum_vec(np.full(3, n, dtype=object), Q, offs, P)
    # spot check against the closed form through a smaller equivalent range
    for i, a in enumerate(offs):
        direct = floor_sum(n, Q, int(a), P)
        assert out[i] == direct


def test_cf_round_trip():
    x = Fraction(355, 113)
    digits = cf_expansion(x)
    assert cf_to_fraction(digits) == x
    ps = list(cf_convergents([0, 1, 1, 1, 1, 1, 1]))
    assert ps[-1][0] * 13 == ps[-1][1] * 8  # 8/13 convergent of 1/phi


def test_cf_expansion_of_a_float_is_its_binary_value():
    for x in (0.1, 2.0**-60, (math.sqrt(5) - 1) / 2):
        assert cf_to_fraction(cf_expansion(x)) == Fraction(x)
    assert cf_expansion(2.0**-60) == [0, 2**60]


def test_counter_arguments_are_checked():
    for P, Q, C in ((0, 5, 1), (5, 5, 1), (6, 5, 1), (1, 5, 0), (1, 5, 6)):
        with pytest.raises(ValueError, match="0 < P < Q and 0 < C <= Q"):
            RotationCounter(P, Q, C)
    with pytest.raises(ValueError, match="visit index must be >= 0"):
        RotationCounter(2, 5, 3).visit_time([0, 1], [1, -1])


def test_native_shift_past_the_low_limb():
    # steps of 2^30 and more carry their high part into the next limb of P s
    native = _SWITCH._native
    us = np.array([0, 5, _SWITCH.C // 3, _SWITCH.Q - 1], dtype=object)
    for s in (2**30 + 7, 2**40, 2**47 + 3):
        steps = np.array([s, s, 1, s], dtype=np.int64)
        got = _to_ints(native.shift(_to_lanes(us, native.rows), steps).x)
        assert list(got) == [(u + int(k) * _SWITCH.P) % _SWITCH.Q for u, k in zip(us, steps)]


def test_float_to_convergent_accuracy():
    import math
    g = (math.sqrt(5) - 1) / 2
    fr = float_to_convergent(g, q_min=10**10)
    assert abs(float(fr) - g) < 1e-15
    assert fr.denominator >= 10**10


def _brute_visits(u, P, Q, C, n):
    return sum(1 for l in range(1, n + 1) if (u + l * P) % Q < C)


def test_visits_and_psi_brute():
    rc = RotationCounter(P=314159, Q=1000003, C=875000)
    rng = np.random.default_rng(3)
    us = rng.integers(0, rc.Q, size=20).astype(object)
    ns = rng.integers(0, 3000, size=20).astype(object)
    got = rc.visits(us, ns)
    for u, n, g in zip(us, ns, got):
        assert int(g) == _brute_visits(int(u), rc.P, rc.Q, rc.C, int(n))
    # psi counts l = 0..n-1 including the starting point
    psi = rc.psi(us, ns)
    for u, n, g in zip(us, ns, psi):
        brute = sum(1 for l in range(int(n)) if (int(u) + l * rc.P) % rc.Q < rc.C)
        assert int(g) == brute


def test_visit_time_minimal():
    rc = RotationCounter(P=314159, Q=1000003, C=875000)
    rng = np.random.default_rng(4)
    us = rng.integers(0, rc.Q, size=12).astype(object)
    ns = rng.integers(1, 500, size=12).astype(object)
    ts = rc.visit_time(us, ns)
    for u, n, t in zip(us, ns, ts):
        t, n = int(t), int(n)
        assert _brute_visits(int(u), rc.P, rc.Q, rc.C, t) == n
        assert _brute_visits(int(u), rc.P, rc.Q, rc.C, t - 1) == n - 1


def test_visit_time_sparse_arc():
    # a sparse arc, Q / C about 10^4
    rc = RotationCounter(P=314159, Q=1000003, C=97)
    us = np.array([5, 700000], dtype=object)
    ts = rc.visit_time(us, np.array([1, 2], dtype=object))
    for u, n, t in zip(us, [1, 2], ts):
        assert _brute_visits(int(u), rc.P, rc.Q, rc.C, int(t)) == n
        assert _brute_visits(int(u), rc.P, rc.Q, rc.C, int(t) - 1) == n - 1


def test_first_hit_brute():
    rc = RotationCounter(P=314159, Q=1000003, C=400)
    rng = np.random.default_rng(5)
    us = rng.integers(0, rc.Q, size=10).astype(object)
    horizon = 20000
    got = rc.first_hit(us, np.full(10, horizon, dtype=object))
    for u, g in zip(us, got):
        brute = next((l for l in range(1, horizon + 1)
                      if (int(u) + l * rc.P) % rc.Q < rc.C), horizon + 1)
        assert int(g) == brute


def test_backward_counting():
    rc = RotationCounter(P=314159, Q=1000003, C=875000)
    inverse = RotationCounter(rc.Q - rc.P, rc.Q, rc.C)
    u = np.array([123456], dtype=object)
    got = int(rc.visits(u, 777, forward=False)[0])
    brute = sum(1 for l in range(1, 778) if (123456 - l * rc.P) % rc.Q < rc.C)
    assert got == brute == int(inverse.visits(u, 777)[0])


@PROPERTY
@given(st.integers(2, 120).flatmap(lambda Q: st.tuples(
    st.integers(1, Q - 1), st.just(Q), st.integers(1, Q))))
def test_first_visit_bound_holds(circle):
    # every orbit meets the arc within E steps, and E is None exactly when
    # some orbit never meets it (u mod gcd(P, Q) >= C)
    P, Q, C = circle
    E = _first_visit_bound(P, Q, C)
    if E is None:
        assert math.gcd(P, Q) > C
    else:
        steps = (np.arange(Q)[:, None] + np.arange(1, E + 1) * P) % Q
        assert (steps < C).any(axis=1).all()


# small circles of each kind the count descent meets: level 0 reflected
# (2P > Q) or not, arcs of one cell and of the whole circle, and circles
# sharing a factor g with P, whose points off the arc's cosets (u mod g >= C)
# are never counted
_SMALL_CIRCLES = [RotationCounter(3, 10, 4), RotationCounter(7, 10, 4),
                  RotationCounter(7, 10, 1), RotationCounter(3, 10, 10),
                  RotationCounter(1, 9, 5), RotationCounter(8, 9, 5),
                  RotationCounter(4, 12, 3), RotationCounter(10, 12, 1),
                  RotationCounter(6, 15, 2), RotationCounter(9, 15, 15),
                  RotationCounter(21, 34, 13), RotationCounter(13, 34, 21)]


@pytest.mark.parametrize("rc", _SMALL_CIRCLES, ids=lambda rc: f"P{rc.P}Q{rc.Q}C{rc.C}")
def test_count_descent_matches_stepping(rc):
    # every point and counts from -2 to past two turns, in lanes and on
    # Python ints, one direction for all points or one per point
    us, ns = (np.ravel(v).astype(object) for v in np.meshgrid(
        np.arange(rc.Q), np.arange(-2, 2 * rc.Q + 3), indexing="ij"))
    want = {f: [_brute_visits(u, rc.P if f else rc.Q - rc.P, rc.Q, rc.C, n)
                for u, n in zip(us, ns)] for f in (True, False)}
    mixed = np.array([(u + n) % 2 == 0 for u, n in zip(us, ns)])
    for circle in (rc, _object_twin(rc)):
        for f in (True, False):
            assert list(circle.visits(us, ns, f)) == want[f]
        assert list(circle.visits(us, ns, mixed)) == [want[f][i] for i, f in enumerate(mixed)]
    # a point off the arc's cosets is never counted
    g = math.gcd(rc.P, rc.Q)
    off = [u for u in range(rc.Q) if u % g >= rc.C]
    if off:
        assert not any(_object_twin(rc).visits(off, 10**30)) and not any(rc.visits(off, 10**12))


# limb divisions per point of one `visit_time` batch on the doc-switch
# circle: the first start, then one split per wide level (82, 80, 67 bits)
# the descent passes; later changes may lower this pin but never raise it
VISIT_TIME_DIVMOD_LANES = 4


def test_visit_time_work_guard(monkeypatch):
    # a fixed 2000-point batch at indices below 10^12, both directions: the
    # descent makes no visit count, and its limb divisions stay at the pin
    from iet3 import arith
    rc = documented_switch_iet().rotation_counter()
    rng = np.random.default_rng(2024)
    us = np.array([int(v) for v in rng.integers(0, 1 << 62, 2000)], dtype=object) * rc.Q >> 62
    ns = np.array([int(v) for v in rng.integers(0, 10**12, 2000)], dtype=object)
    forward = rng.random(2000) < 0.5
    lanes, counts = [], []
    divmod_limbs, visits = arith._divmod_limbs, RotationCounter.visits
    monkeypatch.setattr(arith, "_divmod_limbs",
                        lambda x, lv: lanes.append(x.shape[1]) or divmod_limbs(x, lv))
    monkeypatch.setattr(RotationCounter, "visits",
                        lambda self, *a, **k: counts.append(1) or visits(self, *a, **k))
    got = rc.visit_time(us, ns, forward)
    assert not counts
    assert sum(lanes) <= VISIT_TIME_DIVMOD_LANES * len(us)
    # the batch is answered: each time ends on the n-th visit
    monkeypatch.undo()
    assert list(rc.visits(us, got, forward)) == list(ns)
    assert list(rc.visits(us, got - 1, forward)) == list(ns - 1 + (ns == 0))


# limb divisions per point of one `visits` batch: the first start, then on
# each wide level (82, 80 and 67 bits on the doc-switch circle) the last
# position's wrap and one split of the first and last positions; the golden
# circle (41 bits) has no wide level.  Before these pins, the floor sums
# took 17 and 57 lanes per point; later changes may lower the pins but never
# raise them
VISITS_DIVMOD_LANES = {"doc-switch": 10, "golden": 1}


@pytest.mark.parametrize("name", sorted(VISITS_DIVMOD_LANES))
def test_visits_work_guard(monkeypatch, name):
    # a fixed 2000-point batch at counts below 10^12, both directions
    from iet3 import arith
    rc = {"doc-switch": _SWITCH, "golden": _GOLDEN}[name]
    rng = np.random.default_rng(2024)
    us = np.array([int(v) for v in rng.integers(0, 1 << 62, 2000)], dtype=object) * rc.Q >> 62
    ns = np.array([int(v) for v in rng.integers(0, 10**12, 2000)], dtype=object)
    forward = rng.random(2000) < 0.5
    lanes = []
    divmod_limbs = arith._divmod_limbs
    monkeypatch.setattr(arith, "_divmod_limbs",
                        lambda x, lv: lanes.append(x.shape[1]) or divmod_limbs(x, lv))
    got = rc.visits(us, ns, forward)
    assert sum(lanes) <= VISITS_DIVMOD_LANES[name] * len(us)
    # the batch is answered: spot checks against the floor sums
    pick = slice(None, None, 37)
    assert list(got[pick]) == list(_floor_sum_visits(rc, us[pick], ns[pick], forward[pick]))


# tracemalloc peak of one `power` batch of 50,000 doc-switch arc points, in
# bytes per point: at the level-3 exponent 196,004 in native lanes, and at
# 2^52 + 12345 on Python ints.  The descents run `_SOLVE_CHUNK` indices at a
# time, so the batch holds one chunk's working memory.  Traced, the Python
# ints take 8-11 s at 50,000 points, so that route runs with the batch and
# the chunk both cut by 16, which reads within 1% of the full batch
# (BENCH_bounded_memory.json).  Before these pins a batch descended at once,
# at 411 and 1,415 B a point; later changes may lower them but never raise them
POWER_PEAK_BYTES_PER_POINT = {"lanes": 260, "objects": 600}


@pytest.mark.parametrize("route", sorted(POWER_PEAK_BYTES_PER_POINT))
def test_power_memory_guard(monkeypatch, traced_peak, route):
    from iet3 import arith
    n, e = 50000, 196004
    if route == "objects":
        n, e = n // 16, 2**52 + 12345
        monkeypatch.setattr(arith, "_SOLVE_CHUNK", arith._SOLVE_CHUNK // 16)
    assert (_SWITCH._lanes_for(np.array([e]), solve=True) is None) == (route == "objects")
    rng = np.random.default_rng(2024)
    us = np.array([int(v) for v in rng.integers(0, 1 << 62, n)], dtype=object) * _SWITCH.C >> 62
    peak, got = traced_peak(lambda: _SWITCH.power(us, e))
    assert peak <= POWER_PEAK_BYTES_PER_POINT[route] * n
    # the batch is answered: spot checks by the inverse power
    pick = slice(None, None, 97)
    assert list(_SWITCH.power(got[pick], -e)) == list(us[pick])


# limb-division lanes of a pair of 12,000-index orbit windows over 10^12 on
# the doc-switch circle (one Birkhoff window): each window's descents share
# their start, whose way down divides on one column (its start and the three
# wide levels), and each image is the position where its descent ends, so
# the count does not grow with the window.  Before this pin the pair took
# 5.0 lanes per point; later changes may lower it but never raise it
ORBIT_WINDOW_DIVMOD_LANES = 8


def test_orbit_window_work_guard(monkeypatch):
    from iet3 import arith
    from iet3.joinings import _index_strata
    rc = documented_switch_iet().rotation_counter()
    idx = _index_strata(np.random.default_rng(2024), 12000, 10**12)
    u0, lag = rc.C // 3, 987654321
    lanes = []
    divmod_limbs = arith._divmod_limbs
    monkeypatch.setattr(arith, "_divmod_limbs",
                        lambda x, lv: lanes.append(x.shape[1]) or divmod_limbs(x, lv))
    got = [rc.orbit(u0, s, idx) for s in (0, lag)]
    assert sum(lanes) <= ORBIT_WINDOW_DIVMOD_LANES
    # the windows are answered: spot checks against per-point powers
    monkeypatch.undo()
    pick = idx[::997]
    for s, out in zip((0, lag), got):
        want = rc.power(np.full(len(pick), u0, dtype=object), (s + pick).astype(object))
        assert list(out[::997]) == list(want)


# points converted to Python ints on the float route (counted at
# `arith._to_ints` and `arith._INT`): one Birkhoff window pair through
# `_orbit_joining_at` (12,000 indices over 10^12, the solve route) and one
# 20,000-atom counting `sample_power_joining` convert none, and a
# verify_switch window pair (18,372 indices over 28,000, the scan route)
# converts only what seeds `power`: the lagged window's first solve.  Each
# window of that pair scans in one `_NativeCircle.shift` block of at most
# 32,063 positions.  Before these pins every point was converted: 24,000,
# 40,000 and 36,745, and the verify pair converted 3 with its scan batches'
# last visits; later changes may lower the pins but never raise them
FLOAT_ROUTE_INT_POINTS = {"birkhoff": 0, "sample": 0, "verify": 1}
VERIFY_SCAN_BLOCK_LANES = 32063


def test_float_route_work_guard(monkeypatch):
    from iet3 import arith
    from iet3.construction import _SwitchEngine, _orbit_joining_at
    from iet3.joinings import _index_strata, sample_power_joining
    iet = documented_switch_iet()
    eng = _SwitchEngine(iet)
    counted, blocks = [], []
    to_ints, to_int, shift = arith._to_ints, arith._INT, arith._NativeCircle.shift
    monkeypatch.setattr(arith, "_to_ints", lambda x: counted.append(x.shape[-1]) or to_ints(x))
    monkeypatch.setattr(arith, "_INT", lambda v: counted.append(np.size(v)) or to_int(v))
    monkeypatch.setattr(arith._NativeCircle, "shift",
                        lambda self, u, s: blocks.append(len(s)) or shift(self, u, s))
    windows = {"birkhoff": (eng.C // 3, 987654321,
                            _index_strata(np.random.default_rng(2024), 12000, 10**12)),
               "verify": (eng.C // 5, -28000,
                          _index_strata(np.random.default_rng(3), 20000, 28000))}
    got = {}
    for case, pin in FLOAT_ROUTE_INT_POINTS.items():
        counted.clear()
        blocks.clear()
        if case == "sample":
            got[case] = sample_power_joining(iet, 10**12, 20000, seed=5)
        else:
            got[case] = _orbit_joining_at(eng, *windows[case])
        assert sum(counted) <= pin, case
        if case == "verify":
            assert len(blocks) == 2 and max(blocks) <= VERIFY_SCAN_BLOCK_LANES
    # the float atoms are those of the exact points, bit for bit
    monkeypatch.undo()
    for case, (u0, n, idx) in windows.items():
        pick = slice(None, None, 97)
        for s, atoms in ((0, got[case].xs), (n, got[case].ys)):
            want = eng.to_unit(eng.rc.orbit(u0, s, idx)[pick])
            assert np.array_equal(atoms[pick].view(np.int64), want.view(np.int64))
    assert len(got["sample"]) == 20000


def test_orbit_indices_must_increase():
    # indices strictly increasing and >= 0, as the window's contract says:
    # anything else was answered wrongly or failed inside NumPy
    rc = documented_switch_iet().rotation_counter()
    bad = [(rc.C // 3, [5, 3, 10]), (rc.C // 3, [3, 3, 10]), (rc.C + 5, [-2, 0, 4]),
           (rc.C // 3, np.arange(2000)[::-1] * 7)]
    for u0, idx in bad:
        for floats in (False, True):
            with pytest.raises(ValueError, match="strictly increasing"):
                rc.orbit(u0, 0, np.asarray(idx), floats)
        with pytest.raises(ValueError, match="strictly increasing"):
            rc.orbit(u0, 0, np.asarray(idx, dtype=object))
    # the sorted window is still answered
    assert list(rc.orbit(rc.C // 3, 0, [3, 5, 10])) == list(rc.power(rc.C // 3, [3, 5, 10]))


def test_numpy_integer_counts_are_exact():
    from iet3.params import documented_switch_iet
    rc = documented_switch_iet().rotation_counter()
    us = np.array([5, rc.C // 3], dtype=object)
    n = 10**12
    assert list(rc.visits(us, np.int64(n))) == list(rc.visits(us, n))
    assert list(rc.visit_time(us, np.int64(n))) == list(rc.visit_time(us, n))
    assert list(rc.power(us, np.int64(-n))) == list(rc.power(us, -n))
    ns = np.array([n, -n])
    assert list(rc.power(us, ns)) == list(rc.power(us, ns.astype(object)))
    assert list(rc.power(np.array([5, rc.C // 3]), n)) == list(rc.power(us, n))


def test_for_rotation_lifts():
    rc = RotationCounter.for_rotation(Fraction(1, 2), Fraction(1, 3))
    assert (rc.P, rc.Q, rc.C) == (3, 6, 2)
    # a float expansion that ends before q_min refines its grid rather than
    # snapping kappa to 1/q (which gave Q = 4, C = 2 here)
    rc = RotationCounter.for_rotation(0.25, 0.6)
    assert (rc.P, rc.Q, rc.C) == (25 * 10**10, 10**12, 6 * 10**11)
    # past q_min the convergent's own grid is kept
    g = (math.sqrt(5) - 1) / 2
    frac = float_to_convergent(g)
    rc = RotationCounter.for_rotation(g, 0.7)
    assert (rc.P, rc.Q, rc.C) == (frac.numerator, frac.denominator,
                                  round(0.7 * frac.denominator))


@pytest.mark.parametrize("rc", [RotationCounter(2, 4, 1),
                                RotationCounter.for_rotation(Fraction(1, 2), Fraction(1, 3))],
                         ids=["P2Q4C1", "alpha1/2-kappa1/3"])
def test_orbit_missing_the_arc_raises(rc):
    # non-coprime circle: the orbit of u stays in u + gcd(P, Q)Z, which may
    # miss the arc [0, C) entirely
    g = math.gcd(rc.P, rc.Q)
    off = next(u for u in range(rc.Q) if u % g >= rc.C)
    u = np.array([off], dtype=object)
    for query in (lambda: rc.visit_time(u, [1]), lambda: rc.visit_time(u, [20]),
                  lambda: rc.visit_time(u, [1], forward=False),
                  lambda: rc.power(u, 1), lambda: rc.power(u, -1)):
        with pytest.raises(ValueError, match="never returns"):
            query()
    with pytest.raises(ValueError, match="never returns"):
        rc.orbit(off, 0, np.arange(3))
    # orbits that do meet the arc are unaffected
    for v in range(rc.C):
        w = v
        for _ in range(2):
            w = (w + rc.P) % rc.Q
            while w >= rc.C:
                w = (w + rc.P) % rc.Q
        assert int(rc.power(np.array([v], dtype=object), 2)[0]) == w


def test_orbit_past_a_long_return():
    # rotation by 1 on half the circle: returns of one step, then one of
    # Q - C + 1 steps (2^39 + 1), which the orbit must not scan position by
    # position
    Q = 1 << 40
    rc = RotationCounter(1, Q, Q >> 1)
    u0 = rc.C - 3
    got = rc.orbit(u0, 0, np.arange(6))
    assert list(got) == [u0, u0 + 1, u0 + 2, 0, 1, 2]
    # read as floats, the scan hands its last visit, exact, to the solve
    assert list(rc.orbit(u0, 0, np.arange(6), floats=True)) == [float(v) for v in got]
    assert list(got) == list(rc.power(np.full(6, u0, dtype=object), np.arange(6)))
    assert list(rc.orbit(u0, -2, np.arange(6))) == list(rc.power(
        np.full(6, u0, dtype=object), np.arange(-2, 4)))
    # a point given off [0, Q) is its own zeroth power, as `power` leaves it
    assert list(rc.orbit(u0 + Q, 0, np.arange(3))) == [u0 + Q, u0 + 1, u0 + 2]
    assert rc.power(np.array([u0 + Q], dtype=object), 0)[0] == u0 + Q


@pytest.mark.parametrize("bits,shift", [(40, 12), (119, 2), (119, 16)],
                         ids=["native-sparse", "object-dense", "object-sparse"])
def test_orbit_routes_agree_with_power(bits, shift):
    # stepping in lanes or on Python ints, or one batched power where the arc
    # is too sparse for stepping to pay: the same exact points
    Q = (1 << bits) - 1
    rc = RotationCounter(math.isqrt(5 * Q * Q) - Q >> 1, Q, Q >> shift)
    u0, start = rc.C // 3, 10**9 + 7
    want = rc.power(np.full(40, u0, dtype=object), np.arange(start, start + 40).astype(object))
    assert list(rc.orbit(u0, start, np.arange(40))) == list(want)


@st.composite
def wide_counts(draw):
    """Counts on circles of 60 to 118 bits, which keep their native form
    unless a wide level's wraps hold 2^48 positions (a slope P far below
    Q, or Q - P so): points anywhere, directions per point, and one batch
    of counts from 0 to the native bound, so lanes leave the descent at
    different levels."""
    bits = draw(st.integers(60, 118))
    Q = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    P = draw(st.integers(1, Q - 1) | st.integers(1, 1 << 12)
             | st.integers(1, 1 << 12).map(lambda d: Q - d))
    C = draw(st.integers(1, Q) | st.sampled_from([1, Q]))
    k = draw(st.integers(1, 8))
    us = draw(st.lists(st.integers(0, Q - 1), min_size=k, max_size=k))
    ns = draw(st.lists(st.sampled_from([0, 1, 2, NATIVE_N - 1]) | st.integers(0, 1000)
                       | st.integers(1 << 40, NATIVE_N - 1), min_size=k, max_size=k))
    # and a seeded batch of long counts, whose float quotient estimates fall
    # one short often enough to exercise the exact correction
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    us += [int(v) * Q >> 62 for v in rng.integers(0, 2**62, 32)]
    ns += [int(v) for v in rng.integers(1 << 40, NATIVE_N, 32)]
    forward = draw(st.lists(st.booleans(), min_size=len(us), max_size=len(us)))
    return RotationCounter(P, Q, C), us, ns, forward


@PROPERTY
@given(wide_counts())
def test_native_counts_match_floor_sums(inst):
    rc, us, ns, forward = inst
    # lanes on every circle of up to 118 bits whose wide levels' wraps hold
    # fewer than 2^48 positions each
    fits = all(-(-lv.m // lv.S) < NATIVE_N
               for lv in _wrap_table(rc.P, rc.Q, rc.C) if lv.S and lv.m >= _WIDE)
    assert (rc._lanes_for(np.array(ns), solve=False) is not None) == fits
    got = rc.visits(np.array(us, dtype=object), np.array(ns, dtype=object), forward)
    assert list(got) == list(_floor_sum_visits(rc, us, ns, forward))


@settings(PROPERTY, max_examples=30)
@given(st.sampled_from([_SWITCH, _GOLDEN]), st.lists(st.integers(0, 2**82), min_size=1,
                                                     max_size=6),
       st.booleans(), st.data())
def test_visits_at_the_native_bound(rc, us, past, data):
    # the largest native count and the first count past it, which takes the
    # object path, in either direction: both agree with the floor sums and
    # with the Python-int descent of the object twin.  At these counts the
    # narrow levels' x + (n - 1) S passes 2^63 (on the golden circle from
    # level 0, a 41-bit modulus), and int64 wraps it
    us = np.array(us, dtype=object)
    forward = data.draw(st.lists(st.booleans(), min_size=len(us), max_size=len(us)))
    n = np.full(len(us), NATIVE_N if past else NATIVE_N - 1, dtype=object)
    assert (rc._lanes_for(n, solve=False) is None) == past
    got = rc.visits(us, n, forward)
    assert list(got) == list(_floor_sum_visits(rc, us % rc.Q, n, forward))
    assert list(got) == list(_object_twin(rc).visits(us, n, forward))


@PROPERTY
@given(st.integers(1, 50), st.integers(0, 120),
       st.lists(st.tuples(st.integers(0, 200), st.integers(-5, 40)),
                min_size=1, max_size=10),
       st.booleans())
def test_floor_sum_vec_brute(m, b, lanes, numpy_input):
    a = [x for x, _ in lanes]
    n = [k for _, k in lanes]

    def brute(ai, ni):
        return sum((ai + b * i) // m for i in range(max(ni, 0)))

    dtype = np.int64 if numpy_input else object
    got = floor_sum_vec(np.array(n, dtype=dtype), m, np.array(a, dtype=dtype), b)
    assert list(got) == [brute(ai, ni) for ai, ni in zip(a, n)]
    # one NumPy integer count for every offset
    got = floor_sum_vec(np.int64(n[0]), m, np.array(a, dtype=dtype), b)
    assert list(got) == [brute(ai, n[0]) for ai in a]


@st.composite
def circles_with_points(draw):
    Q = draw(st.integers(2, 300))
    rc = RotationCounter(draw(st.integers(1, Q - 1)), Q, draw(st.integers(1, Q)))
    us = draw(st.lists(st.integers(0, Q - 1), min_size=1, max_size=8))
    return rc, us


@PROPERTY
@given(circles_with_points(), st.integers(0, 200), st.data())
def test_first_hit_matches_stepping(inst, horizon, data):
    rc, us = inst
    # one direction for every point, or one per point
    forward = data.draw(st.one_of(
        st.booleans(), st.lists(st.booleans(), min_size=len(us), max_size=len(us))))
    got = rc.first_hit(np.array(us, dtype=object),
                       np.full(len(us), horizon, dtype=object), forward=forward)
    for u, f, g in zip(us, np.broadcast_to(forward, len(us)), got):
        step = rc.P if f else rc.Q - rc.P
        brute = next((l for l in range(1, horizon + 1)
                      if (u + l * step) % rc.Q < rc.C), horizon + 1)
        assert int(g) == brute


@PROPERTY
@given(circles_with_points(), st.integers(-10**6, 10**6))
def test_signed_residue_matches_brute_force(inst, n):
    rc, _ = inst
    # the one integer of (-Q/2, Q/2] congruent to n*P, found by search
    brute = next(r for r in range(-((rc.Q - 1) // 2), rc.Q // 2 + 1)
                 if (r - n * rc.P) % rc.Q == 0)
    assert rc.signed_residue(n) == brute


def test_signed_residue_ties():
    # 2r = Q: the tie goes to +Q/2, the representative in (-Q/2, Q/2]
    rc = RotationCounter(3, 10, 4)
    assert [rc.signed_residue(n) for n in range(10)] == [0, 3, -4, -1, 2, 5, -2, 1, 4, -3]


@PROPERTY
@given(circles_with_points(), st.data())
def test_visits_per_point_direction_matches_stepping(inst, data):
    rc, us = inst
    k = len(us)
    ns = data.draw(st.lists(st.integers(-3, 60), min_size=k, max_size=k))
    forward = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    got = rc.visits(np.array(us, dtype=object), np.array(ns, dtype=object), forward)
    for u, n, f, g in zip(us, ns, forward, got):
        step = rc.P if f else rc.Q - rc.P
        assert int(g) == sum(1 for l in range(1, n + 1) if (u + l * step) % rc.Q < rc.C)
    # one direction for every point is the same as that direction at each
    for f in (True, False):
        assert (list(rc.visits(np.array(us, dtype=object), ns[0], f))
                == list(rc.visits(np.array(us, dtype=object), ns[0], [f] * k)))
