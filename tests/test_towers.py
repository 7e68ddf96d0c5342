"""Tower certification, statistics, and the documented tower chain."""

from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from iet3 import intervals as iv
from iet3.iet_core import Iet3, _branch_image, apply, apply_pow, transport
from iet3.params import documented_switch_iet
from iet3.towers import (LevelOverlapError, LevelSplitError, TowerBuildError,
                         build_tower, suggest_towers, tower_stats)

RATIONAL = Iet3(Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))


def _period(iet, x, cap=10000):
    cur = x
    for i in range(1, cap):
        cur = apply(iet, cur)
        if cur == x:
            return i
    raise AssertionError("no period found")


def test_rational_periodic_tower():
    p = _period(RATIONAL, Fraction(1, 50))
    J = (Fraction(0), Fraction(1, 100))
    tower = build_tower(RATIONAL, J, p)
    # exact periodicity: the p-th image is the base again
    assert transport(RATIONAL, [J], p) == [J]
    st = tower_stats(tower, RATIONAL)
    assert st.rigidity == pytest.approx(0.0, abs=1e-12)
    assert st.hat_measure == pytest.approx(st.coverage, abs=1e-12)
    assert st.coverage <= 1 + 1e-12


def test_pigeonhole_error():
    with pytest.raises(TowerBuildError):
        build_tower(Iet3(0.2, 0.3, 0.5), (0.0, 0.5), 3)


def test_split_error_reports_level():
    iet = Iet3(0.2, 0.3, 0.5)
    try:
        build_tower(iet, (0.15, 0.25), 2)
    except LevelSplitError as e:
        assert e.level == 0
    else:
        raise AssertionError("expected a split error")


def test_documented_chain_monotone(doc_towers, tower_iet):
    assert 1 <= len(doc_towers) <= 20
    stats = []
    for I, n in doc_towers:
        tower = build_tower(tower_iet, I, n)
        stats.append(tower_stats(tower, tower_iet))
    covs = [s.coverage for s in stats]
    rigs = [s.rigidity for s in stats]
    assert all(b >= a for a, b in zip(covs, covs[1:]))
    assert any(r < 0.05 for r in rigs)
    for s in stats:
        assert s.tilde_measure <= s.hat_measure + 1e-12
        assert s.hat_measure <= s.coverage + 1e-12


def test_documented_best_tower_quality(doc_towers, tower_iet):
    I, n = doc_towers[-1]
    st = tower_stats(build_tower(tower_iet, I, n), tower_iet)
    assert st.coverage > 0.9
    assert st.rigidity < 0.05


def test_hat_membership_spot_check(doc_towers, tower_iet):
    # points of the refined sub-tower stay in the tower for |i| < height
    I, n = doc_towers[0]
    tower = build_tower(tower_iet, I, n)
    st = tower_stats(tower, tower_iet)
    assert st.hat_measure > 0
    rng = np.random.default_rng(0)
    union = tower.union()

    def in_tower(x):
        return any(a <= x < b for a, b in union)

    hits = 0
    for _ in range(200):
        x = float(rng.random())
        if tower.levels_of(x) < 0:
            continue
        i = int(rng.integers(-(n - 1), n))
        y = apply_pow(tower_iet, i, x)
        # membership can only fail for the hat-complement dust
        if in_tower(float(y)):
            hits += 1
    assert hits >= 150


def test_level_lookup():
    iet = Iet3(0.2, 0.3, 0.5)
    tower = build_tower(iet, (0.0, 0.01), 5)
    for i in range(5):
        lo = float(tower.level_lows[i])
        assert tower.levels_of(lo + 0.005) == i
    assert tower.levels_of(0.999) == -1


def test_array_level_lookup(tower_iet, doc_towers):
    # the lookup, on arrays and on scalars, agrees with a scan of all levels at
    # each level's left end, at left end + width, between levels, at 0 and
    # just below 1, on an exact tower and on a float one
    for tower in (build_tower(tower_iet, *doc_towers[1]),
                  build_tower(Iet3(0.2, 0.3, 0.5), (0.0, 0.01), 5)):
        lows, w = tower.level_lows, float(tower.width)
        srt = np.sort(lows)
        xs = np.concatenate([lows, lows + w, (srt[:-1] + w + srt[1:]) / 2,
                             [0.0, np.nextafter(1.0, 0.0)]])
        found = tower.levels_of(xs)
        for x, level in zip(xs, found):
            hits = np.flatnonzero((lows <= x) & (x < lows + w)).tolist()
            assert (level in hits) if hits else level == -1
            assert tower.levels_of(float(x)) == level
        assert found[:len(lows)].tolist() == list(range(len(lows)))
        assert np.any(found == -1)


def _all_pairs_oracle(iet, I, n):
    """I, T I, ..., T^(n-1) I are intervals, and in sorted order consecutive
    left ends lie at least the width apart: every pair of levels checked."""
    levels = [I]
    while len(levels) < n:
        image = _branch_image(iet, *levels[-1])
        if len(image) > 1:
            return False
        levels.append(image[0])
    lows = sorted(lo for lo, _ in levels)
    return all(b - a >= I[1] - I[0] for a, b in zip(lows, lows[1:]))


def _maximal_height(iet, I, h):
    # suggest_towers walks at most 100_000 levels
    return _all_pairs_oracle(iet, I, h) and (h == 100_000 or not _all_pairs_oracle(iet, I, h + 1))


@st.composite
def small_exact_iets(draw):
    d = draw(st.integers(3, 24))
    l1 = draw(st.integers(1, d - 2))
    l2 = draw(st.integers(1, d - 1 - l1))
    return Iet3(Fraction(l1, d), Fraction(l2, d), Fraction(d - l1 - l2, d))


@st.composite
def fraction_bases(draw):
    D = draw(st.integers(2, 60))
    lo = draw(st.integers(0, D - 1))
    return Fraction(lo, D), Fraction(draw(st.integers(lo + 1, D)), D)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(small_exact_iets(), fraction_bases(), st.integers(1, 30))
def test_build_tower_matches_all_pairs_oracle(iet, I, n):
    try:
        tower = build_tower(iet, I, n)
    except TowerBuildError as exc:
        assert not _all_pairs_oracle(iet, I, n)
        # the error's level fixes the largest height the base carries
        kept = exc.level if isinstance(exc, LevelOverlapError) else exc.level + 1
        assert kept < n and _maximal_height(iet, I, kept)
    else:
        assert _all_pairs_oracle(iet, I, n)
        assert tower.height == n == len(tower.level_lows)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(small_exact_iets())
def test_suggested_heights_are_maximal(iet):
    for I, h in suggest_towers(iet, k_max=3, t_max=6.0):
        assert _maximal_height(iet, I, h)


def test_documented_heights_are_maximal(doc_towers, tower_iet):
    assert all(_maximal_height(tower_iet, I, h) for I, h in doc_towers)


def test_suggested_towers_of_a_binary64_iet_build():
    # a binary64 IET takes its base widths from the scan's floats, not from
    # whole cells of an exact circle
    iet = Iet3(0.31, 0.17, 0.52)
    assert not iet.exact
    cands = suggest_towers(iet, k_max=4)
    assert cands
    for (lo, hi), n in cands:
        assert isinstance(hi - lo, float)
        assert build_tower(iet, (lo, hi), n).height == n


def _fraction_transport(iet, pieces, steps):
    """T^steps of a union of intervals, one Fraction `_branch_image` step at
    a time."""
    for _ in range(steps):
        pieces = iv.normalize([p for a, b in pieces for p in _branch_image(iet, a, b)])
    return pieces


def _fraction_walk(iet, I, cap):
    """Fraction left ends of the levels over I and the error type that
    stops the walk short of ``cap`` (None if it does not)."""
    levels = [I]
    while len(levels) < cap:
        image = _branch_image(iet, *levels[-1])
        if len(image) > 1:
            return [lo for lo, _ in levels], LevelSplitError
        if image[0][0] < I[1] and I[0] < image[0][1]:
            return [lo for lo, _ in levels], LevelOverlapError
        levels.append(image[0])
    return [lo for lo, _ in levels], None


def _fraction_stats(iet, I, n):
    """Coverage, rigidity, hat and tilde of the height-n tower over I, as
    exact rationals from Fraction transport."""
    w = I[1] - I[0]
    fwd = _fraction_transport(iet, [I], n)
    back = _fraction_transport(iet.inverse(), [I], n)
    hat = iv.intersect(iv.intersect([I], fwd), back)
    tilde = iv.intersect(iv.intersect(hat, _fraction_transport(iet, fwd, n)),
                         _fraction_transport(iet.inverse(), back, n))
    return n * w, iv.symdiff_measure(fwd, [I]) / w, n * iv.measure(hat), n * iv.measure(tilde)


def _assert_exact_stats(iet, I, n):
    stats = tower_stats(build_tower(iet, I, n), iet)
    exact = _fraction_stats(iet, I, n)
    assert (stats.coverage, stats.rigidity, stats.hat_measure, stats.tilde_measure) == \
        tuple(float(v) for v in exact)
    return stats


def test_doc_switch_tower_stats_are_exact():
    # the exact maximum of lambda(T^n I symdiff I) / lambda(I) is 2
    iet = documented_switch_iet()
    towers = suggest_towers(iet, k_max=5)
    assert towers
    for I, n in towers:
        assert _assert_exact_stats(iet, I, n).rigidity <= 2


def test_doc_tower_stats_are_exact(doc_towers, tower_iet):
    for I, n in doc_towers:
        _assert_exact_stats(tower_iet, I, n)


@st.composite
def fraction_unions(draw):
    """One or two Fraction intervals on grids of their own, mostly off the
    IET's."""
    return iv.normalize(draw(st.lists(fraction_bases(), min_size=1, max_size=2)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_exact_iets(), fraction_unions(), st.integers(1, 30))
def test_integer_transport_matches_fraction_steps(iet, pieces, steps):
    for T in (iet, iet.inverse()):
        assert transport(T, pieces, steps) == _fraction_transport(T, pieces, steps)
    I = pieces[0]
    lows, stop = _fraction_walk(iet, I, steps)
    try:
        tower = build_tower(iet, I, steps)
    except TowerBuildError as exc:
        assert type(exc) is stop
        kept = exc.level if stop is LevelOverlapError else exc.level + 1
        assert kept == len(lows)
    else:
        assert stop is None
        assert tower.level_lows.tolist() == [float(lo) for lo in lows]
    # the walk stops at the first return to the base: no level before it
    # meets I, and an overlap stop is that return
    hits = [n for n in range(1, steps + 1)
            if iv.intersect(_fraction_transport(iet, [I], n), [I])]
    assert all(n >= len(lows) for n in hits)
    if stop is LevelOverlapError:
        assert hits[0] == len(lows)
