"""Rokhlin towers over intervals for 3-IETs.

A tower is a base interval I and a height n such that I, T I, ..., T^(n-1) I
are pairwise disjoint intervals.  Towers here are certified by exact interval
transport (endpoints tracked through branch itineraries), never by sampling:
one walk from the base stops at the first level that straddles a
discontinuity or meets the base, and `build_tower` raises with that index.

Good towers come from the renormalization geometry: at a section time with
step count N, the slit pullback has width ||N alpha|| and its tower height
is the induced return time, giving coverage 1 - o(1) and rigidity
2 ||N' alpha|| / ||N alpha|| at consecutive scales N, N'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import intervals as iv
from .arith import _check_count
from .iet_core import Iet3, _branch_image, _on_grid, to_rotation, transport
from .renorm import scan_renorm_times

__all__ = ["Tower", "TowerStats", "TowerBuildError", "LevelSplitError",
           "LevelOverlapError", "build_tower", "tower_stats", "suggest_towers"]


class TowerBuildError(ValueError):
    def __init__(self, msg: str, level: int):
        super().__init__(f"{msg} (level {level})")
        self.level = level


class LevelSplitError(TowerBuildError):
    pass


class LevelOverlapError(TowerBuildError):
    pass


@dataclass(frozen=True, eq=False)
class Tower:
    """Base interval, the transported level intervals, and the top level as
    the walk left it; the height is the number of levels."""

    base: tuple
    level_lows: np.ndarray  # left endpoints of T^i I, float view
    top: tuple              # T^(n-1) I in the base's own arithmetic
    height = property(lambda self: len(self.level_lows))

    @property
    def width(self):
        return self.base[1] - self.base[0]

    def levels_of(self, xs) -> np.ndarray:
        """Index of the level containing each x, or -1."""
        xs = np.asarray(xs, dtype=float)
        idx = self._order[np.searchsorted(self._sorted_lows, xs, side="right") - 1]
        lo = self.level_lows[idx]
        return np.where((lo <= xs) & (xs < lo + self._float_width), idx, -1)

    def __post_init__(self):
        order = np.argsort(self.level_lows, kind="stable")
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_sorted_lows", self.level_lows[order])
        object.__setattr__(self, "_float_width", float(self.width))

    def union(self) -> list[tuple]:
        w = self._float_width
        return iv.normalize([(float(lo), float(lo) + w) for lo in self.level_lows])


@dataclass(frozen=True)
class TowerStats:
    coverage: float        # measure of the tower union
    rigidity: float        # lambda(T^n I symdiff I) / lambda(I)
    hat_measure: float     # tower measure over I ∩ T^-n I ∩ T^n I
    tilde_measure: float   # same with the ±2n intersections added


def build_tower(iet: Iet3, I: tuple, n: int) -> Tower:
    """Transport I for n steps, certifying interval levels and disjointness.

    With Fraction endpoints on an exact IET the certification is exact;
    adjacent levels (which arise naturally at resonant scales) pass the
    half-open disjointness test without tolerance.
    """
    lo, hi = I
    if not (0 <= lo < hi <= 1):
        raise ValueError("base must be a nondegenerate subinterval of [0, 1)")
    _check_count("n", n)
    lows, top, D, stop = _walk(iet, I, n)
    if stop is not None:
        raise stop
    return Tower(base=(lo, hi),
                 level_lows=np.array([v / D if D else float(v) for v in lows]),
                 top=tuple(Fraction(v, D) for v in top) if D else top)


def _walk(iet: Iet3, I: tuple, cap: int) -> tuple[list, tuple, int,
                                                   Optional[TowerBuildError]]:
    """Left ends of the levels I, T I, ..., at most ``cap`` of them, and the
    last of these levels, as numerators over D (D = 0: in the base's own
    floats), and the error that stopped the walk short of the cap (None if
    it did not).

    The walk stops at the first level whose image straddles a discontinuity
    or meets the base.  New levels are checked against the base only: by
    invertibility a lag-k collision between any two levels is a collision
    with the base at lag k, caught when the k-th level was produced.  The
    test is strict half-open overlap in the endpoints' own arithmetic:
    integer numerators (`_on_grid`) for Fraction endpoints on an exact IET.
    """
    D, branches, ((lo, hi),) = _on_grid(iet, [I])
    lows, level, stop = [lo], (lo, hi), None
    while len(lows) < cap:
        image = _branch_image(iet, *level, branches)
        if len(image) > 1:
            stop = LevelSplitError("discontinuity inside level", len(lows) - 1)
            break
        if image[0][0] < hi and lo < image[0][1]:
            stop = LevelOverlapError("level meets the base", len(lows))
            break
        level = image[0]
        lows.append(level[0])
    return lows, level, D, stop


def _return_sets(tower: Tower, iet: Iet3) -> tuple[list, list, list, list]:
    """T^n I, T^-n I, the refined base I ∩ T^n I ∩ T^-n I and the top level
    T^(n-1) I of a height-n tower over I, in the base's own arithmetic:
    exact for a Fraction tower on an exact IET."""
    I = [tower.base]
    top = [tower.top]
    # one step past the top level, with its right end at left end + width:
    # the same set in exact arithmetic
    TnI_fwd = transport(iet, [(tower.top[0], tower.top[0] + tower.width)], 1)
    TnI_back = transport(iet.inverse(), I, tower.height)
    return TnI_fwd, TnI_back, iv.intersect(iv.intersect(I, TnI_fwd), TnI_back), top


def tower_stats(tower: Tower, iet: Iet3) -> TowerStats:
    """Coverage, rigidity and the refined sub-tower measures, computed in the
    base's own arithmetic and rounded to floats once: for a Fraction tower
    on an exact IET they are the floats of exact rationals."""
    I = [tower.base]
    n, w = tower.height, tower.width
    # the levels are disjoint, so their union measures n w; a float tower
    # keeps the measure of its float levels' union
    coverage = n * w if isinstance(w, Fraction) else iv.measure(tower.union())
    TnI_fwd, TnI_back, hat_base, top = _return_sets(tower, iet)
    # T^2n I and T^-2n I continue the walks that gave T^n I and T^-n I
    T2nI_fwd = transport(iet, top, n + 1)
    T2nI_back = transport(iet.inverse(), TnI_back, n)
    tilde_base = iv.intersect(iv.intersect(hat_base, T2nI_fwd), T2nI_back)
    hat = min(n * iv.measure(hat_base), coverage)
    tilde = min(n * iv.measure(tilde_base), hat)
    return TowerStats(coverage=float(coverage),
                      rigidity=float(iv.symdiff_measure(TnI_fwd, I) / w),
                      hat_measure=float(hat), tilde_measure=float(tilde))


def suggest_towers(iet: Iet3, k_max: int, t_max: float = 14.0) -> list[tuple[tuple, int]]:
    """Candidate (base, height) pairs from the renormalization geometry.

    Each accepted section time with step count N yields the slit pullback
    base [0, ||N alpha||) and height one below the certified return time,
    the height the tower walk certifies; candidates are returned by
    ascending scale (coverage and rigidity typically improve along the list).
    """
    kappa = to_rotation(iet).kappa
    scan = scan_renorm_times(iet, delta=1.2, t_max=t_max)
    out = []
    seen = set()
    best_cov = 0.0
    for rt in scan.times:
        if len(out) >= k_max:
            break
        N = rt.n_steps
        if iet.exact:
            rc = iet.rotation_counter()  # whole cells of the slit [0, C)
            bw = Fraction(abs(rc.signed_residue(N)), rc.C)
        else:
            bw = (rt.rho / N) / float(kappa)  # ||N alpha|| rescaled
        if bw <= 0 or bw >= 1:
            continue
        key = round(float(bw), 15)
        if key in seen:
            continue
        seen.add(key)
        # the base anchor matters: anchored at a discontinuity (or just
        # below one) the levels follow the dynamical partition and avoid
        # splits for the full return; scan a few anchors and keep the best
        anchors = [x0 for x0 in (iet.b2, iet.b2 - bw, iet.b1, iet.b1 - bw,
                                 type(bw)(0), 1 - bw) if 0 <= x0 and x0 + bw <= 1]
        if not anchors:
            continue
        height, x0 = max(((len(_walk(iet, (x0, x0 + bw), 100_000)[0]), x0)
                          for x0 in anchors), key=lambda hx: hx[0])
        # keep only candidates improving the covered measure: the returned
        # chain is then monotone in coverage (and in rigidity quality)
        cov = height * float(bw)
        if cov <= best_cov:
            continue
        best_cov = cov
        out.append(((x0, x0 + bw), height))
    return out

