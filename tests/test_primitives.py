"""Property tests of the exact primitives: the signed induced-map power
on the integer circle (`RotationCounter.power`), its orbit walk
(`RotationCounter.orbit`), the visit-time descent behind both, the
crossings of circle points between floats and native lanes (`arith._exit`,
`RotationCounter._enter`), and interval transport (`iet_core.transport`),
each against a brute-force oracle, the fixed-point solve kept here
(`_visit_time_fixed_point`), Python's own int-float conversions or an exact
invariant."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iet3 import intervals as iv
from iet3 import arith
from iet3.arith import _INT, RotationCounter, _exit, _to_lanes
from iet3.iet_core import Iet3, transport
from iet3.params import documented_switch_iet, golden_iet

# fixed example sequence: the suite stays deterministic run to run
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def small_circles(draw):
    Q = draw(st.integers(2, 400))
    return RotationCounter(draw(st.integers(1, Q - 1)), Q, draw(st.integers(1, Q)))


@st.composite
def arc_points(draw, rc, max_n):
    k = draw(st.integers(1, 12))
    us = draw(st.lists(st.integers(0, rc.C - 1), min_size=k, max_size=k))
    ns = draw(st.lists(st.integers(-max_n, max_n), min_size=k, max_size=k))
    return np.array(us, dtype=object), np.array(ns, dtype=object)


def _brute_power(rc: RotationCounter, u: int, n: int) -> int:
    """The n-th return to the arc, one rotation step at a time."""
    step = rc.P if n > 0 else rc.Q - rc.P
    for _ in range(abs(n)):
        u = (u + step) % rc.Q
        while u >= rc.C:
            u = (u + step) % rc.Q
    return u


@PROPERTY
@given(st.data())
def test_power_matches_brute_stepping(data):
    rc = data.draw(small_circles())
    us, ns = data.draw(arc_points(rc, 40))
    # descents in chunks of 1-3 indices or one chunk: a batch of mixed signs
    # and zero exponents, and one start's exponents, cross chunk boundaries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_SOLVE_CHUNK", data.draw(st.sampled_from([1, 2, 3, arith._SOLVE_CHUNK])))
        got, shared = rc.power(us, ns), rc.power(us[0], ns)
    for u, n, g, h in zip(us, ns, got, shared):
        assert int(g) == _brute_power(rc, int(u), int(n))
        assert int(h) == _brute_power(rc, int(us[0]), int(n))
    # a scalar exponent is the same as that exponent at every point
    n0 = int(ns[0])
    assert list(rc.power(us, n0)) == list(rc.power(us, np.full(len(us), n0, dtype=object)))


@PROPERTY
@given(st.data())
def test_power_round_trip_small_circle(data):
    rc = data.draw(small_circles())
    us, ns = data.draw(arc_points(rc, 10**6))
    assert list(rc.power(rc.power(us, ns), -ns)) == list(us)


_DEEP = documented_switch_iet().rotation_counter()


@settings(PROPERTY, max_examples=25)
@given(st.lists(st.integers(0, _DEEP.C - 1), min_size=1, max_size=6),
       st.integers(-10**12, 10**12))
def test_power_round_trip_deep_circle(us, n):
    us = np.array(us, dtype=object)
    assert list(_DEEP.power(_DEEP.power(us, n), -n)) == list(us)


def _visit_time_fixed_point(self, u, n, forward=True) -> np.ndarray:
    """`visit_time` by monotone fixed-point iteration.

    N <- n + gaps(N) from N = n: iterates increase and never overshoot
    the minimal solution, and the deficit shrinks by the gap frequency
    each round.  For sparse arcs (where the contraction is weak) the
    stragglers left after 48 rounds fall back to doubling plus bisection
    on the monotone visit count; 512 doublings that still fall short mean
    that the orbit never meets the arc, and raise ValueError.
    """
    fwd = np.broadcast_to(np.asarray(forward, dtype=bool), (len(u),))
    N = n.copy()
    idx = np.arange(len(u))           # points short of their solution
    for _ in range(48):
        deficit = n[idx] - self.visits(u[idx], N[idx], fwd[idx])
        idx, deficit = idx[deficit != 0], deficit[deficit != 0]
        if not len(idx):
            return N
        N[idx] = N[idx] + deficit
    # stragglers: exponential search then bisection
    idx = idx[n[idx] - self.visits(u[idx], N[idx], fwd[idx]) > 0]
    if not len(idx):
        return N
    uu, nn, ff = u[idx], n[idx], fwd[idx]
    hi = np.maximum(N[idx], 1)
    for _ in range(512):
        short = self.visits(uu, hi, ff) < nn
        if not bool(np.any(short)):
            break
        hi[short] = hi[short] * 2
    else:
        # off the arc of a non-coprime circle an orbit can miss it for good
        raise ValueError(f"the orbit of {uu[short][0]} never returns to the arc")
    N[idx] = _bisect(self, uu, nn, hi, nn, ff)
    return N


def _bisect(self, u, lo, hi, n, fwd) -> np.ndarray:
    """Smallest N in [lo, hi] with visits(u, N, fwd) >= n, per point, by
    bisection on the monotone visit count; the count at hi must reach n."""
    while bool(np.any(lo < hi)):
        mid = (lo + hi) // 2
        ok = self.visits(u, mid, fwd) >= n
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    return lo


def _brute_visit_time(rc: RotationCounter, u: int, n: int, forward: bool) -> int:
    """Rotation steps to the n-th visit of the arc, one step at a time."""
    step = rc.P if forward else rc.Q - rc.P
    t = 0
    while n:
        t += 1
        u = (u + step) % rc.Q
        n -= u < rc.C
    return t


@st.composite
def coprime_circles(draw):
    """Circles whose every orbit visits the arc, from dense arcs to C << Q."""
    Q = draw(st.integers(2, 400))
    P = draw(st.integers(1, Q - 1).filter(lambda p: math.gcd(p, Q) == 1))
    C = draw(st.sampled_from([1, 2, max(1, Q // 50), max(1, Q // 7), Q - 1, Q])
             | st.integers(1, Q))
    return RotationCounter(P, Q, C)


@PROPERTY
@given(st.data())
def test_visit_time_matches_oracle_and_brute(data):
    rc = data.draw(coprime_circles())
    forward = data.draw(st.booleans())
    k = data.draw(st.integers(1, 8))
    us = np.array(data.draw(st.lists(st.integers(0, rc.Q - 1), min_size=k, max_size=k)),
                  dtype=object)
    ns = np.array(data.draw(st.lists(st.integers(0, 60) | st.just(0), min_size=k,
                                     max_size=k)), dtype=object)
    got = rc.visit_time(us, ns, forward=forward)
    # the inverse rotation, built independently of the backward count
    counter = rc if forward else RotationCounter(rc.Q - rc.P, rc.Q, rc.C)
    assert list(got) == list(_visit_time_fixed_point(counter, us, ns))
    for u, n, t in zip(us, ns, got):
        assert int(t) == _brute_visit_time(rc, int(u), int(n), forward)


@settings(PROPERTY, max_examples=40)
@given(st.lists(st.integers(0, _DEEP.Q - 1), min_size=1, max_size=6),
       st.integers(0, 10**15), st.booleans())
def test_visit_time_matches_oracle_deep_circle(us, n, forward):
    us = np.array(us, dtype=object)
    counter = _DEEP if forward else RotationCounter(_DEEP.Q - _DEEP.P, _DEEP.Q, _DEEP.C)
    ns = np.full(len(us), n, dtype=object)
    assert (list(_DEEP.visit_time(us, ns, forward=forward))
            == list(_visit_time_fixed_point(counter, us, ns)))


@settings(PROPERTY, max_examples=30)
@given(st.sampled_from([1, _DEEP.Q // 512, _DEEP.Q // 8, _DEEP.Q - 1, _DEEP.Q]),
       st.lists(st.integers(0, _DEEP.Q - 1), min_size=1, max_size=4), st.data())
def test_visit_time_arcs_of_the_deep_circle(C, us, data):
    # the deep circle's step with arcs from one cell to the whole circle:
    # points on and off the arc, n = 0, both directions in one batch
    rc = RotationCounter(_DEEP.P, _DEEP.Q, C)
    k = len(us)
    ns = data.draw(st.lists(st.just(0) | st.integers(1, 40) | st.integers(0, 10**6),
                            min_size=k, max_size=k))
    forward = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    us, ns = np.array(us, dtype=object), np.array(ns, dtype=object)
    assert (list(rc.visit_time(us, ns, forward))
            == list(_visit_time_fixed_point(rc, us, ns, forward)))


@st.composite
def shared_factor_circles(draw):
    """Circles with g = gcd(P, Q) > 1: the orbit of u keeps u mod g, so it
    misses the arc [0, C) when u mod g >= C."""
    g = draw(st.integers(2, 12))
    q = draw(st.integers(2, 30))
    p = draw(st.integers(1, q - 1))
    return RotationCounter(g * p, g * q, draw(st.integers(1, g * q)))


@PROPERTY
@given(shared_factor_circles(), st.data())
def test_visit_time_on_shared_factor_circles(rc, data):
    # values where the orbit meets the arc, ValueError where it misses it
    g = math.gcd(rc.P, rc.Q)
    us = data.draw(st.lists(st.integers(0, rc.Q - 1), min_size=1, max_size=6))
    ns = data.draw(st.lists(st.integers(0, 30), min_size=len(us), max_size=len(us)))
    forward = data.draw(st.lists(st.booleans(), min_size=len(us), max_size=len(us)))
    meets = [u % g < rc.C or n == 0 for u, n in zip(us, ns)]
    batch = (np.array(us, dtype=object), np.array(ns, dtype=object), np.array(forward))
    if all(meets):
        got = rc.visit_time(*batch)
        for u, n, f, t in zip(us, ns, forward, got):
            assert int(t) == _brute_visit_time(rc, u, n, f)
    else:
        with pytest.raises(ValueError, match="never returns"):
            rc.visit_time(*batch)
    for u, n, f, ok in zip(us, ns, forward, meets):
        if not ok:
            with pytest.raises(ValueError, match="never returns"):
                rc.visit_time(np.array([u], dtype=object), n, f)


@PROPERTY
@given(st.data())
def test_orbit_matches_power(data):
    # empty, contiguous or sparse sorted index sets, spans from one index to
    # far past the count, starts of either sign, points on the circle and off
    # [0, Q): each route of `orbit` gives `power` at every index
    rc = data.draw(coprime_circles())
    u0 = data.draw(st.integers(0, rc.Q - 1) | st.integers(rc.Q, 3 * rc.Q))
    start = data.draw(st.integers(-50, 50) | st.integers(-10**6, 10**6))
    gap = data.draw(st.sampled_from([1, 3, 10**4]))
    steps = data.draw(st.lists(st.integers(1, gap), max_size=41))
    idx = data.draw(st.integers(-1, 40)) + np.cumsum(steps, dtype=np.int64)
    want = rc.power(np.full(len(idx), u0, dtype=object), (start + idx).astype(object))
    assert list(rc.orbit(u0, start, idx)) == list(want)


@settings(PROPERTY, max_examples=10)
@given(st.integers(0, _DEEP.C - 1), st.integers(-10**12, 10**12))
def test_orbit_matches_power_deep_circle(u0, start):
    want = _DEEP.power(np.full(300, u0, dtype=object),
                       np.arange(start, start + 300).astype(object))
    assert list(_DEEP.orbit(u0, start, np.arange(300))) == list(want)
    # indices of a narrower integer type, with a start past its range
    assert list(_DEEP.orbit(u0, start, np.arange(300, dtype=np.int32))) == list(want)


def _orbit_by_each_route(rc, u0, start, idx):
    """`orbit` under both prices, forced through the price constants: in
    lanes, scanned and solved, and on Python ints (`_object_twin`), which
    always solve: a list of four results, or of four ValueErrors."""
    got = []
    with pytest.MonkeyPatch.context() as mp:
        for cost in (10**9, 0):            # every index scanned, then solved
            for name in ("_SOLVE_CALL", "_SOLVE_POINT"):
                mp.setattr(arith, name, cost)
            for circle in (rc, _object_twin(rc)):
                try:
                    got.append(list(circle.orbit(u0, start, idx)))
                except ValueError as exc:
                    got.append(exc)
    return got


@PROPERTY
@given(shared_factor_circles(), st.data())
def test_orbit_on_shared_factor_circles(rc, data):
    # the orbit of u0 keeps u0 mod g: where that coset meets the arc, each
    # route gives `power` at every index, and where it misses, each raises
    # ValueError unless every exponent is 0
    g = math.gcd(rc.P, rc.Q)
    u0 = data.draw(st.integers(0, rc.Q - 1) | st.integers(rc.Q, 3 * rc.Q))
    start = data.draw(st.integers(-50, 50))
    steps = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=30))
    idx = data.draw(st.integers(-1, 40)) + np.cumsum(steps, dtype=np.int64)
    got = _orbit_by_each_route(rc, u0, start, idx)
    if u0 % g < rc.C or not np.any(start + idx):
        want = list(rc.power(np.full(len(idx), u0, dtype=object), (start + idx).astype(object)))
        assert got == [want] * 4
    else:
        assert all(isinstance(e, ValueError) for e in got)


def test_orbit_scan_hands_a_sparse_coset_to_power(monkeypatch):
    # g = 2 and C = 41: the odd coset meets the arc at 20 of its 500 points,
    # against C/Q = 20.5/500, so the scan's positions run out and one `power`
    # of its last visit solves the offsets still missing
    rc = RotationCounter(382, 1000, 41)
    idx = np.arange(0, 300, 3)
    want = list(rc.power(np.full(len(idx), 1, dtype=object), idx.astype(object)))
    solved = []
    power = RotationCounter.power
    monkeypatch.setattr(RotationCounter, "power",
                        lambda self, u, n, floats=False: solved.append(np.size(n))
                        or power(self, u, n, floats))
    # the first index, then the 3 offsets past the 290 visits scanned; on
    # Python ints every index in one solve
    for circle, calls in ((rc, [1, 3]), (_object_twin(rc), [len(idx)])):
        solved.clear()
        assert list(circle.orbit(1, 0, idx)) == want
        assert solved == calls
    monkeypatch.undo()
    assert _orbit_by_each_route(rc, 1, 0, idx) == [want] * 4
    # scans of three blocks of at most 2^16 positions, from the odd coset
    # and from the even one, which meets the arc at 21 points
    idx = np.arange(0, 6000, 7)
    for u0 in (1, 0):
        want = list(rc.power(np.full(len(idx), u0, dtype=object), idx.astype(object)))
        assert _orbit_by_each_route(rc, u0, 0, idx) == [want] * 4
    # on the arc [0, 1) the odd coset is never met past exponent 0
    rc = RotationCounter(382, 1000, 1)
    assert all(isinstance(e, ValueError) for e in _orbit_by_each_route(rc, 7, 0, idx))
    assert _orbit_by_each_route(rc, 7, 0, idx[:1]) == [[7]] * 4


def _object_twin(rc: RotationCounter) -> RotationCounter:
    """The same circle with its native form withheld: every count and
    visit time it makes descends the wrap table on Python ints, and every
    orbit window solves."""
    twin = RotationCounter(rc.P, rc.Q, rc.C)
    twin._native = None
    return twin


def _golden_circle(bits: int, arc) -> RotationCounter:
    Q = (1 << bits) - 1
    return RotationCounter(math.isqrt(5 * Q * Q) - Q >> 1, Q, max(1, int(Q * arc)))


@PROPERTY
@given(st.data())
def test_shared_start_power_matches_per_point_and_brute(data):
    # one point at many exponents, whose descents share their start: both
    # signs and 0, points on the arc, off it and outside [0, Q), exponents
    # as Python ints or int64
    rc = data.draw(coprime_circles())
    u0 = data.draw(st.integers(0, rc.C - 1) | st.integers(0, rc.Q - 1)
                   | st.integers(-3 * rc.Q, 3 * rc.Q))
    ns = np.array(data.draw(st.lists(st.integers(-60, 60) | st.just(0), min_size=1,
                                     max_size=12)), dtype=object)
    got = rc.power(u0, ns)
    assert list(got) == list(rc.power(np.full(len(ns), u0, dtype=object), ns))
    assert list(rc.power(u0, ns.astype(np.int64))) == list(got)
    for n, g in zip(ns, got):
        assert g == (u0 if n == 0 else _brute_power(rc, u0 % rc.Q, n))


@PROPERTY
@given(shared_factor_circles(), st.data())
def test_shared_start_on_shared_factor_circles(rc, data):
    # ValueError only where some exponent needs a visit the orbit never makes
    u0 = data.draw(st.integers(0, rc.Q - 1))
    ns = np.array(data.draw(st.lists(st.integers(-30, 30), min_size=1, max_size=8)),
                  dtype=object)
    if u0 % math.gcd(rc.P, rc.Q) >= rc.C and any(ns != 0):
        with pytest.raises(ValueError, match="never returns"):
            rc.power(u0, ns)
        return
    got = rc.power(u0, ns)
    for n, g in zip(ns, got):
        assert g == (u0 if n == 0 else _brute_power(rc, u0, n))


_GOLDEN = golden_iet().rotation_counter()    # the 41-bit circle of golden-powers


@settings(PROPERTY, max_examples=30)
@given(st.sampled_from([_DEEP, _GOLDEN]), st.data())
def test_shared_start_matches_per_point_on_deep_circles(rc, data):
    # the doc-switch circle (82 bits, wide level 0) and the golden one (41
    # bits, narrow), exponents up to 10^12 either way in one call
    u0 = data.draw(st.integers(0, rc.C - 1) | st.integers(0, rc.Q - 1))
    ns = np.array(data.draw(st.lists(st.integers(-10**12, 10**12) | st.integers(-40, 40),
                                     min_size=1, max_size=40)), dtype=object)
    want = rc.power(np.full(len(ns), u0, dtype=object), ns)
    assert list(rc.power(u0, ns)) == list(want)
    assert list(rc.power(u0, ns.astype(np.int64))) == list(want)


# circles on both sides of the native bounds: 118 bits (native) and 119
# bits (object), the 82-bit IET circle, and a narrow arc on it whose first
# visit bound E keeps its index limit 2^48 // E near 2^15
_BOUNDARY = (_golden_circle(118, Fraction(7, 8)), _golden_circle(119, Fraction(7, 8)),
             _DEEP, RotationCounter(_DEEP.P, _DEEP.Q, _DEEP.Q >> 20))


@st.composite
def boundary_queries(draw):
    """A circle of `_BOUNDARY`, points anywhere on it, and signed indices
    mixed in one batch from either side of the native index limit 2^48 // E,
    of twice it, of 2^48 and of 2^48 C / Q."""
    rc = draw(st.sampled_from(_BOUNDARY))
    limit = rc._native.index_limit if rc._native else 1 << 40
    edges = [limit - 1, limit, 2 * limit - 1, 2 * limit, (1 << 48) - 1, 1 << 48,
             ((1 << 48) * rc.C) // rc.Q]
    k = draw(st.integers(1, 5))
    us = draw(st.lists(st.integers(0, rc.Q - 1), min_size=k, max_size=k))
    ns = draw(st.lists(st.sampled_from(edges) | st.integers(0, 40)
                       | st.integers(0, 2 * limit), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k))
    return rc, np.array(us, dtype=object), np.array(ns, dtype=object), signs


def _twin_power(rc: RotationCounter, us, ns):
    """`power` from the fixed-point solve of the object twin."""
    out = us.copy()
    nz = ns != 0
    N = _visit_time_fixed_point(_object_twin(rc), us[nz], abs(ns[nz]), ns[nz] > 0)
    out[nz] = (us[nz] + np.where(ns[nz] > 0, N, -N) * rc.P) % rc.Q
    return out


@settings(PROPERTY, max_examples=40)
@given(boundary_queries(), st.sampled_from([1, 2, 3, arith._SOLVE_CHUNK]))
def test_native_lanes_match_object_path_at_the_bounds(query, chunk):
    rc, us, ns, signs = query
    # descents in chunks of 1-3 indices (or one chunk) on both paths
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_SOLVE_CHUNK", chunk)
        native = rc._native
        # lanes exactly when the circle has a native form and every index is
        # below its limit; that form exists up to 118 bits
        assert (native is not None) == (rc.Q.bit_length() <= 118)
        lanes = native is not None and max(ns) < native.index_limit
        assert (rc._lanes_for(ns, solve=True) is not None) == lanes
        forward = np.array([s > 0 for s in signs])
        got = rc.visit_time(us, ns, forward=forward)
        assert list(got) == list(_visit_time_fixed_point(_object_twin(rc), us, ns, forward))
        # power at both signs, from points of the arc
        arc = us % rc.C
        signed = ns * np.array(signs, dtype=object)
        assert list(rc.power(arc, signed)) == list(_twin_power(rc, arc, signed))
        # an orbit stretch starting at the first signed index, walking past it
        start, length = int(signed[0]), 6
        want = _twin_power(rc, np.full(length, us[0], dtype=object),
                           np.arange(start, start + length).astype(object))
        assert list(rc.orbit(us[0], start, np.arange(length))) == list(want)


@settings(PROPERTY, max_examples=40)
@given(boundary_queries())
def test_shared_start_past_the_index_limit(query):
    # a shared start on both sides of the native index limit, on the native
    # circle and on its object twin, against the fixed-point oracle
    rc, us, ns, signs = query
    u0 = int(us[0]) % rc.C
    signed = ns * np.array(signs, dtype=object)
    want = _twin_power(rc, np.full(len(ns), u0, dtype=object), signed)
    assert list(rc.power(u0, signed)) == list(want)
    assert list(_object_twin(rc).power(u0, signed)) == list(want)


@pytest.mark.parametrize("rc", [_GOLDEN, _DEEP, *(RotationCounter(_DEEP.P, _DEEP.Q, C)
                                                  for C in (1, 2, _DEEP.Q // 512, _DEEP.Q - 1,
                                                            _DEEP.Q)),
                                _BOUNDARY[0]],
                         ids=["golden41", "doc-switch", "C1", "C2", "C/512", "C=Q-1", "C=Q",
                              "golden118"])
def test_in_arc_at_the_arc_end(rc):
    # y < C read by comparison: C - 1, C and C + 1 are one float apart or
    # less on the wide circles, so the limbs decide them
    native = rc._native
    ys = sorted({y for y in (0, rc.C - 1, rc.C, rc.C + 1, rc.Q - 1) if 0 <= y < rc.Q})
    got = native.in_arc(_to_lanes(np.array(ys, dtype=object), native.rows))
    assert list(got) == [y < rc.C for y in ys]


@st.composite
def rational_iets(draw):
    ls = [Fraction(draw(st.integers(1, 60))) for _ in range(3)]
    return Iet3(*ls)


@st.composite
def interval_unions(draw):
    D = draw(st.integers(2, 97))
    ends = draw(st.lists(st.integers(0, D), min_size=2, max_size=8, unique=True))
    ends.sort()
    pieces = [(Fraction(a, D), Fraction(b, D)) for a, b in zip(ends[::2], ends[1::2])]
    return iv.normalize(pieces)


def _assert_normalized(pieces):
    for a, b in pieces:
        assert 0 <= a < b <= 1
    for (_, b), (a2, _) in zip(pieces, pieces[1:]):
        assert b < a2


@PROPERTY
@given(rational_iets(), interval_unions(), st.integers(1, 40))
def test_transport_preserves_measure_and_disjointness(iet, pieces, steps):
    out = transport(iet, pieces, steps)
    _assert_normalized(out)
    assert iv.measure(out) == iv.measure(pieces)


@PROPERTY
@given(rational_iets(), interval_unions(), st.integers(1, 40))
def test_transport_inverse_round_trip(iet, pieces, steps):
    I = pieces[:1]
    assert transport(iet.inverse(), transport(iet, I, steps), steps) == I
    assert transport(iet.inverse(), transport(iet, pieces, steps), steps) == pieces


# ---------------------------------------------------------------------------
# circle points between floats and lanes
# ---------------------------------------------------------------------------

_FLOAT_CIRCLES = (_GOLDEN, _DEEP, _BOUNDARY[0])     # 41, 82 and 118 bits


def _same_floats(got, want) -> bool:
    """Equal float64 arrays, bit for bit."""
    got, want = np.asarray(got), np.asarray(want, dtype=float)
    return got.dtype == float and np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def circle_ints(draw):
    """A circle of 41, 82 or 118 bits and points of it: anywhere, at its
    ends, and round-half-even ties of float64 (the bits below the 53 kept
    are exactly half of the last kept place, whose bit is even or odd), each
    with its neighbours, of any width and on both sides of 2^83, where the
    exit leaves the lanes' one addition."""
    rc = draw(st.sampled_from(_FLOAT_CIRCLES))
    pts = draw(st.lists(st.integers(0, rc.Q - 1), max_size=12)) + [0, 1, rc.Q - 1]
    top = rc.Q.bit_length() - 1
    ties = [(b, M) for b in (83, 84) if b <= top for M in ((1 << 52) + 2, (1 << 53) - 1)]
    for _ in range(draw(st.integers(0, 6)) if top > 54 else 0):
        ties.append((draw(st.integers(54, top)), draw(st.integers(1 << 52, (1 << 53) - 1))))
    for b, M in ties:
        tie = (M << b - 53) + (1 << b - 54)
        pts += [tie - 1, tie, tie + 1]
    return rc, pts


@PROPERTY
@given(circle_ints())
def test_float_exit_is_float_of_the_int(case):
    # every form of a point leaves as float(int), correctly rounded
    rc, pts = case
    u = np.array(pts, dtype=object)
    want = [float(p) for p in pts]
    lanes = _to_lanes(u, rc._native.rows).x
    assert _same_floats(_exit(lanes, True), want)
    # the exit decides its way per batch: each point alone, too
    for i, w in enumerate(want):
        assert _same_floats(_exit(lanes[:, i:i + 1], True), [w])
    assert _same_floats(_exit(u, True), want)
    assert list(_exit(lanes, False)) == pts
    if rc.Q.bit_length() < 63:
        assert _same_floats(_exit(u.astype(np.int64), True), want)


@PROPERTY
@given(circle_ints(), st.data())
def test_float_entry_is_the_lift(case, data):
    # integer-valued floats in [0, 2Q) enter the lanes as _INT(v) % Q, by
    # one conditional subtraction; `_enter` of unit points is `lift`
    rc, pts = case
    native = rc._native
    v = np.array([float(p) for p in pts] + [float(p + rc.Q) for p in pts], dtype=float)
    v = v[v < 2 * rc.Q]
    assert list(_exit(native.enter(v).x, False)) == list(_INT(v) % rc.Q)
    xs = np.array(data.draw(st.lists(st.floats(0, 1, exclude_max=True), max_size=12))
                  + [0.0, 0.5, np.nextafter(1.0, 0.0)] + [p / rc.Q for p in pts])
    xs = xs[xs < 1]
    got = rc._enter(xs)
    # lanes below 2^83; Python ints, as `lift` gives them, above
    assert isinstance(got, arith._Lanes) == (rc.Q.bit_length() <= 83)
    ints = _exit(got.x, False) if isinstance(got, arith._Lanes) else got
    assert list(ints) == list(rc.lift(xs))
    # points off [0, 1) take the Python-int path as before
    assert list(rc._enter(np.array([-0.25, 1.5]))) == list(rc.lift([-0.25, 1.5]))


@settings(PROPERTY, max_examples=40)
@given(st.sampled_from(_FLOAT_CIRCLES + (_BOUNDARY[1],)), st.data())
def test_float_routes_match_the_exact_ones(rc, data):
    # `orbit` by the scan and by the solve route, and `power` of lanes
    # and of Python ints, with exponents of both signs and 0, from points on
    # the arc, off it and off [0, Q): the floats of the exact points, bit
    # for bit
    u0 = data.draw(st.integers(0, rc.C - 1) | st.integers(0, rc.Q - 1)
                   | st.integers(rc.Q, 3 * rc.Q))
    start = data.draw(st.integers(-30, 30) | st.integers(-10**12, 10**12))
    steps = data.draw(st.lists(st.integers(1, 5), max_size=30))
    idx = data.draw(st.integers(-1, 5)) + np.cumsum(steps, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        for cost in (10**9, 0):            # every index scanned, then solved
            for name in ("_SOLVE_CALL", "_SOLVE_POINT"):
                mp.setattr(arith, name, cost)
            want = [float(p) for p in rc.orbit(u0, start, idx)]
            assert _same_floats(rc.orbit(u0, start, idx, floats=True), want)
    us = np.array(data.draw(st.lists(st.integers(0, rc.Q - 1), min_size=1, max_size=8)),
                  dtype=object)
    ns = np.array(data.draw(st.lists(st.integers(-10**12, 10**12) | st.integers(-3, 3),
                                     min_size=len(us), max_size=len(us))), dtype=object)
    want = [float(p) for p in rc.power(us, ns)]
    assert _same_floats(rc.power(us, ns, floats=True), want)
    assert _same_floats(rc.power(int(us[0]), ns, floats=True),
                        [float(p) for p in rc.power(int(us[0]), ns)])
    xs = (us.astype(float) + 0.25) / rc.Q
    assert _same_floats(rc.power(rc._enter(xs), ns, floats=True),
                        [float(p) for p in rc.power(rc.lift(xs), ns)])

