"""Core exchange map: worked examples, round trips, and invariants."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iet3 import intervals as iv_mod
from iet3.iet_core import (Iet3, OrbitSegment, RotationRep, _step, apply, apply_pow,
                           apply_pow_many, from_rotation, orbit, psi_count,
                           to_rotation)
from iet3.params import documented_switch_iet, documented_tower_iet


IET = Iet3(0.2, 0.3, 0.5)


def test_apply_branches():
    assert apply(IET, 0.1) == pytest.approx(0.9, abs=1e-15)
    assert apply(IET, 0.25) == pytest.approx(0.55, abs=1e-15)
    assert apply(IET, 0.7) == pytest.approx(0.2, abs=1e-15)


def test_apply_domain_error():
    with pytest.raises(ValueError):
        apply(IET, 1.0)
    with pytest.raises(ValueError):
        apply(IET, -0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_outside_the_domain(bad):
    # NaN fails every comparison, so it must be rejected as "not inside",
    # in arrays as well as scalars, on the stepwise and counting paths
    xs = np.array([bad, 0.5])
    for call in (lambda: apply(IET, bad), lambda: apply(IET, xs.copy()),
                 lambda: apply_pow(IET, 3, bad), lambda: apply_pow(IET, 3, xs.copy()),
                 lambda: apply_pow(IET, -3, xs.copy()),
                 lambda: apply_pow_many(IET, 5, xs), lambda: apply_pow_many(IET, -5, xs),
                 lambda: apply_pow_many(IET, 10**6, xs), lambda: apply_pow_many(IET, -10**6, xs)):
        with pytest.raises(ValueError, match="outside"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")],
                         ids=["nan", "inf", "-inf", "numpy-nan"])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_non_finite_lengths_are_rejected(bad, at):
    # NaN passes l < 0 and inf normalizes the others to 0 and itself to NaN:
    # both must stop at the constructor, and from_json reads them the same
    lengths = [0.2, 0.3, 0.5]
    lengths[at] = bad
    with pytest.raises(ValueError, match="finite"):
        Iet3(*lengths)
    text = json.dumps(dict(zip(("l1", "l2", "l3"), map(str, lengths))))
    with pytest.raises(ValueError, match="finite"):
        Iet3.from_json(text)
    # Fractions and ints are finite whatever their size
    assert Iet3(Fraction(1, 3), Fraction(1, 3), Fraction(10**30, 3)).exact
    assert Iet3(1, 2, 3).l3 == 0.5


def test_apply_pow_identity_and_two_steps():
    assert apply_pow(IET, 0, 0.37) == 0.37
    assert apply_pow(IET, 2, 0.1) == pytest.approx(0.4, abs=1e-15)


def test_apply_pow_round_trip_binary64():
    rng = np.random.default_rng(0)
    iet = Iet3(0.31, 0.17, 0.52)
    x = float(rng.random())
    y = apply_pow_many(iet, 10**6, np.array([x]))[0]
    back = apply_pow_many(iet, -10**6, np.array([y]))[0]
    assert abs(back - x) < 1e-9


def test_apply_pow_round_trip_rational():
    iet = Iet3(Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
    x = Fraction(1, 7)
    y = apply_pow(iet, 1000, x)
    assert apply_pow(iet, -1000, y) == x


def test_rotation_correspondence_values():
    rep = to_rotation(IET)
    assert rep.alpha == pytest.approx(0.8 / 1.3, abs=1e-15)
    assert rep.kappa == pytest.approx(1 / 1.3, abs=1e-15)
    back = from_rotation(rep)
    assert back.l1 == pytest.approx(0.2, abs=1e-12)
    assert back.l2 == pytest.approx(0.3, abs=1e-12)
    assert back.l3 == pytest.approx(0.5, abs=1e-12)


def test_rotation_degenerate_two_interval():
    iet = Iet3(0.5, 0.0, 0.5)
    rep = to_rotation(iet)
    assert rep.alpha == pytest.approx(0.5)
    assert rep.kappa == pytest.approx(1.0)


def test_from_rotation_precondition():
    with pytest.raises(ValueError):
        from_rotation(RotationRep(alpha=0.6, kappa=0.5))


def test_from_rotation_first_return_oracle():
    # the exchange must equal the rescaled first return of the rotation
    alpha = (math.sqrt(5) - 1) / 2
    kappa = 0.9
    iet = from_rotation(RotationRep(alpha, kappa))
    rng = np.random.default_rng(1)
    for x in rng.random(200):
        z = x * kappa
        # brute-force first return of the rotation to [0, kappa)
        y = (z + alpha) % 1.0
        while y >= kappa:
            y = (y + alpha) % 1.0
        assert apply(iet, float(x)) == pytest.approx(y / kappa, abs=1e-12)


def test_psi_count_examples():
    rep = RotationRep(alpha=0.25, kappa=0.6)
    assert psi_count(rep, 0.0, 4) == 3
    assert psi_count(rep, 0.3, 0) == 0
    # brute-force oracle on the dyadic and the golden rotation
    g = RotationRep(alpha=(math.sqrt(5) - 1) / 2, kappa=0.7)
    for r, x in ((rep, 0.0), (rep, 0.3), (rep, 0.55), (g, 0.1), (g, 0.65)):
        for M in (0, 1, 4, 7, 1000):
            brute = sum(1 for l in range(M) if (x + l * r.alpha) % 1.0 < r.kappa)
            assert psi_count(r, x, M) == brute, (r, x, M)


@pytest.mark.parametrize("ls", [(0.25, 0.5, 0.25), (1, 1, 1)])
def test_counting_power_on_dyadic_rotation(ls):
    # alpha = 1/2: the continued fraction ends at q = 2, far below q_min, and
    # the counting path must still resolve kappa (2/3 and 3/4 here)
    iet = Iet3(*ls)
    xs = np.random.default_rng(5).random(64)
    for n in (5001, -5001):
        fast = apply_pow_many(iet, n, xs, step_limit=0)
        assert np.max(np.abs(fast - apply_pow(iet, n, xs.copy()))) < 1e-12


def test_orbit_segment_contract():
    seg = orbit(IET, 0.1, 50)
    assert isinstance(seg, OrbitSegment)
    for i in range(49):
        assert seg.points[i + 1] == pytest.approx(apply(IET, float(seg.points[i])),
                                                  abs=1e-14)


def test_measure_preservation_by_branch_inversion():
    # lambda(T^-1 [a,b)) = b - a, preimages computed per branch
    rng = np.random.default_rng(2)
    d1, d2, d3 = IET.branch_displacements()
    branches = [((0.0, IET.b1), d1), ((IET.b1, IET.b2), d2), ((IET.b2, 1.0), d3)]
    for _ in range(1000):
        a, b = np.sort(rng.random(2))
        if b - a < 1e-9:
            continue
        total = 0.0
        for (lo, hi), d in branches:
            ia, ib = max(lo + d, a), min(hi + d, b)
            if ib > ia:
                total += ib - ia
        assert abs(total - (b - a)) < 1e-12


def test_bijectivity_partition():
    d1, d2, d3 = IET.branch_displacements()
    images = [(0.0 + d1, IET.b1 + d1), (IET.b1 + d2, IET.b2 + d2),
              (IET.b2 + d3, 1.0 + d3)]
    merged = iv_mod.normalize(images)
    assert len(merged) == 1
    assert merged[0][0] == pytest.approx(0.0, abs=1e-15)
    assert merged[0][1] == pytest.approx(1.0, abs=1e-15)


def test_rotation_consistency_random_ensemble():
    # rescaled T^(psi_M(x)) x = R^M x whenever both ends visit the slit
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(300):
        ls = rng.random(3) + 0.05
        iet = Iet3(*[float(v) for v in ls])
        rep = to_rotation(iet)
        a, k = float(rep.alpha), float(rep.kappa)
        x = float(rng.random()) * k
        M = int(rng.integers(1, 2000))
        xM = (x + M * a) % 1.0
        if xM >= k:
            continue
        psi = psi_count(rep, x, M)
        y = apply_pow(iet, psi, x / k) * k
        assert abs(y - xM) < 1e-9
        checked += 1
    assert checked > 100


def test_power_composition():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(-300, 300))
        m = int(rng.integers(-300, 300))
        x = float(rng.random())
        one = apply_pow(IET, n + m, x)
        two = apply_pow(IET, n, apply_pow(IET, m, x))
        assert abs(one - two) < 1e-10


def test_json_round_trip():
    s = IET.to_json()
    back = Iet3.from_json(s)
    assert back.l1 == pytest.approx(IET.l1, abs=1e-16)
    assert not back.exact


def test_json_round_trip_exact():
    for iet in (documented_switch_iet(), documented_tower_iet()):
        back = Iet3.from_json(iet.to_json())
        assert back == iet and back.exact
    assert json.loads(Iet3(Fraction(0), Fraction(1), Fraction(0)).to_json()) == \
        {"l1": "0/1", "l2": "1/1", "l3": "0/1"}


def test_exact_only_for_fraction_lengths():
    assert Iet3(Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)).exact
    for ls in [(0.2, 0.3, 0.5), (1, 2, 2), (Fraction(1, 5), Fraction(2, 5), 0.4),
               (Fraction(1, 5), Fraction(2, 5), 2)]:
        iet = Iet3(*ls)
        assert not iet.exact and all(isinstance(l, float) for l in (iet.l1, iet.l2, iet.l3))
    assert from_rotation(RotationRep(Fraction(1, 3), Fraction(3, 4))).exact
    assert not from_rotation(RotationRep(Fraction(1, 3), 0.75)).exact
    assert not Iet3(0.2, 0.3, 0.5).inverse().exact
    assert documented_switch_iet().inverse().exact


@pytest.mark.parametrize("ls", [(0, 0, 1), (1, 0, 0), (Fraction(0), Fraction(0), Fraction(1))])
def test_degenerate_lengths_rejected(ls):
    # l1 + l2 = 0 or l2 + l3 = 0: alpha is 1 or 0 and T is the identity
    with pytest.raises(ValueError, match="degenerate"):
        Iet3(*ls)


def test_two_interval_lengths_accepted():
    for ls in [(0.5, 0, 0.5), (0, 1, 0)]:
        iet = Iet3(*ls)
        rc = iet.rotation_counter()
        assert 0 < rc.P < rc.Q and 0 < rc.C <= rc.Q


# -- the array step against the nested-where formula ---------------------------

def _nested_where_step(iet, x):
    """The array step as three translated copies picked by two nested
    `np.where` calls and clamped by a third: the oracle of `_step`."""
    ((b1, d1), (b2, d2)), d3 = iet._branches
    b1, d1, b2, d2, d3 = (float(v) for v in (b1, d1, b2, d2, d3))
    out = np.where(x < b1, x + d1, np.where(x < b2, x + d2, x + d3))
    return np.where(out >= 1.0, np.nextafter(1.0, 0.0), np.maximum(out, 0.0))


_LENGTH_TRIPLES = st.one_of(
    st.tuples(*[st.floats(0.0, 1.0) for _ in range(3)]),
    st.tuples(*[st.fractions(0, 1, max_denominator=10**6) for _ in range(3)]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_LENGTH_TRIPLES, st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=12))
def test_array_step_matches_nested_where(ls, extra):
    assume(ls[0] + ls[1] > 0 and ls[1] + ls[2] > 0)
    iet = Iet3(*ls)
    top = np.nextafter(1.0, 0.0)
    for e in (iet, iet.inverse()):
        b1, b2, _ = e._float_branches
        marks = [0.0, b1, b2, top]
        near = [np.nextafter(m, t) for m in marks for t in (0.0, 1.0)]
        pts = np.array([p for p in marks + near + extra if 0 <= p < 1])
        for x in (pts, pts[:0], np.array(pts[-1]), np.resize(pts, (3, len(pts)))):
            got, want = _step(e, x), _nested_where_step(e, x)
            assert isinstance(got, np.ndarray) and got.shape == x.shape
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert apply(e, x).tobytes() == want.tobytes()
