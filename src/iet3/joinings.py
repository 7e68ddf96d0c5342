"""Discrete self-joinings on [0,1)^2 and exact Kantorovich-Rubinstein
distances.

Measures are weighted atom lists.  The KR (Wasserstein-1) distance under the
taxicab ground metric is computed exactly by assignment (equal-weight,
equal-count inputs) or by the transportation LP; instances too large for
either go through an exact min-cost flow on a grid quantization (solved as
the transportation LP between excess and deficit cells when that is the
smaller problem), which carries a certified snap-cost error interval.  For
the graph-supported measures this package produces, two cheap certified
bounds are also provided: a coupling upper bound from binned
one-dimensional fiber transport, and a duality lower bound from an explicit
1-Lipschitz witness.

The module also houses the disintegration toolkit (conditional measures on
vertical fibers, the averaging operator they induce on test functions, and
the tower-coefficient approximation of that operator by powers), and the
cyclic averaging recursion whose contraction drives the strand convergence
of the switch schedule.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial import cKDTree

from .iet_core import (Iet3, _power_on_circle, _use_counting, apply, apply_pow,
                       apply_pow_many)
from .towers import Tower, _return_sets

__all__ = [
    "DiscreteMeasure2D",
    "Disintegration",
    "CoefficientVector",
    "BaryState",
    "TEST_FUNCTIONS",
    "TEST_FUNCTIONS_2D",
    "sample_power_joining",
    "empirical_orbit_joining",
    "product_sample",
    "mix",
    "kr_distance",
    "kr_distance_detailed",
    "kr_upper_binned",
    "kr_lower_witness",
    "w1_1d",
    "disintegrate",
    "fiber_diameter_stats",
    "apply_Asigma",
    "approx_by_powers",
    "weak_closure_check",
    "bary_recursion",
    "measure_to_csv",
    "measure_from_csv",
]


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiscreteMeasure2D:
    """Weighted atoms on [0,1)^2 with total weight 1."""

    xs: np.ndarray
    ys: np.ndarray
    ws: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        ws = np.asarray(self.ws, dtype=float)
        if not (len(xs) == len(ys) == len(ws)):
            raise ValueError("atom arrays must have equal length")
        if np.any(ws <= 0):
            raise ValueError("weights must be positive")
        if abs(ws.sum() - 1.0) > 1e-12:
            raise ValueError(f"total weight {ws.sum()} != 1")
        for arr in (xs, ys):
            if np.any(arr < 0) or np.any(arr >= 1):
                raise ValueError("coordinates must lie in [0, 1)")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "ws", ws)

    def __len__(self) -> int:
        return len(self.ws)

    @classmethod
    def equal_weight(cls, xs, ys) -> "DiscreteMeasure2D":
        n = len(xs)
        return cls(xs=np.asarray(xs, dtype=float), ys=np.asarray(ys, dtype=float),
                   ws=np.full(n, 1.0 / n))


def _stratified_points(N: int, seed) -> np.ndarray:
    """Midpoints of N equal cells, jittered by seeded noise within cells."""
    rng = np.random.default_rng(seed)
    jitter = (rng.random(N) - 0.5) * 0.98
    return np.clip((np.arange(N) + 0.5 + jitter) / N, 0.0, np.nextafter(1.0, 0.0))


def sample_power_joining(iet: Iet3, a: int, N: int, seed=0) -> DiscreteMeasure2D:
    """N equal-weight atoms (x, T^a x) with stratified-uniform x.

    When the power goes through the exact counting path, the base points are
    snapped onto the integer circle first so that each atom pair (x, T^a x)
    is dynamically consistent: a large power of an off-grid point can differ
    from the grid dynamics by whole induced steps, which would put atoms on
    wrong fibers.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    xs = _stratified_points(N, seed)
    if _use_counting(a, N):
        base, image, kappa = _power_on_circle(iet, xs, int(a))
        xs, ys = (np.clip(v / kappa, 0.0, np.nextafter(1.0, 0.0)) for v in (base, image))
    else:
        ys = apply_pow_many(iet, a, xs)
    return DiscreteMeasure2D.equal_weight(xs, ys)


def empirical_orbit_joining(iet: Iet3, x: float, n: int, L: int,
                            subsample: Optional[int] = None,
                            seed=0) -> DiscreteMeasure2D:
    """(1/L) sum of point masses at (T^i x, T^(i+n) x), i = 0..L-1.

    For L beyond direct iteration, a stratified subsample of the index range
    is used (set ``subsample``); the result then estimates the orbit measure
    with the usual 1/sqrt(subsample) statistical slack.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if subsample is not None and subsample < L:
        rng = np.random.default_rng(seed)
        strata = (np.arange(subsample) + rng.random(subsample)) * (L / subsample)
        idx = np.unique(np.floor(strata).astype(np.int64))
    else:
        idx = np.arange(L, dtype=np.int64)
    rep_xs = _power_at_indices(iet, float(x), idx)
    rep_ys = _power_at_indices(iet, float(x), idx + int(n))
    return DiscreteMeasure2D.equal_weight(rep_xs, rep_ys)


def _power_at_indices(iet: Iet3, x: float, idx: np.ndarray) -> np.ndarray:
    """T^i x for an array of exponents i (possibly negative or huge)."""
    idx = np.asarray(idx)
    lo, hi = int(idx.min()), int(idx.max())
    if hi - min(lo, 0) + max(-lo, 0) <= 200_000:
        # direct sweep across the exponent range
        out = np.empty(len(idx), dtype=float)
        order = np.argsort(idx, kind="stable")
        cur = apply_pow(iet, lo, x)
        cur_i = lo
        for j in order:
            target = int(idx[j])
            while cur_i < target:
                cur = apply(iet, cur)
                cur_i += 1
            out[j] = cur
        return out
    # counting path: one power batch over the exponent array; index 0 keeps
    # the unsnapped starting point
    _, image, kappa = _power_on_circle(iet, np.full(len(idx), x), idx)
    image[idx == 0] = x * kappa
    return np.clip(image / kappa, 0.0, np.nextafter(1.0, 0.0))


def product_sample(N: int, seed=0) -> DiscreteMeasure2D:
    """Independent uniform pairs (empirical product measure)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((N, 2))
    return DiscreteMeasure2D.equal_weight(pts[:, 0], pts[:, 1])


def mix(*measures: DiscreteMeasure2D) -> DiscreteMeasure2D:
    """Equal mixture of measures (atoms concatenated, weights averaged)."""
    d = len(measures)
    xs = np.concatenate([m.xs for m in measures])
    ys = np.concatenate([m.ys for m in measures])
    ws = np.concatenate([m.ws / d for m in measures])
    return DiscreteMeasure2D(xs, ys, ws)


# ---------------------------------------------------------------------------
# ground metric
# ---------------------------------------------------------------------------

def _coord_dist(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    d = np.abs(a[:, None] - b[None, :])
    if metric == "circle":
        d = np.minimum(d, 1.0 - d)
    return d


def _cost_matrix(mu: DiscreteMeasure2D, nu: DiscreteMeasure2D, metric: str) -> np.ndarray:
    return _coord_dist(mu.xs, nu.xs, metric) + _coord_dist(mu.ys, nu.ys, metric)


# ---------------------------------------------------------------------------
# exact solvers
# ---------------------------------------------------------------------------

def _kr_assignment(mu, nu, metric) -> float:
    C = _cost_matrix(mu, nu, metric)
    r, c = linear_sum_assignment(C)
    return float(C[r, c].mean())


def _transport_lp(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Exact transportation LP: min sum C[i, j] x[i, j] over x >= 0 with row
    sums a and column sums b (variables in row-major order of C)."""
    n, m = C.shape
    rows = np.concatenate([np.repeat(np.arange(n), m), np.repeat(n + np.arange(m), n)])
    cols = np.concatenate([np.arange(n * m), (np.arange(m)[:, None] + m * np.arange(n)).ravel()])
    A = sp.csc_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m))
    res = linprog(C.ravel(), A_eq=A, b_eq=np.concatenate([a, b]), bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _kr_lp(mu, nu, metric) -> float:
    return _transport_lp(_cost_matrix(mu, nu, metric), mu.ws, nu.ws)


def _grid_supply(mu, nu, G: int) -> tuple[np.ndarray, float]:
    """Cell masses of mu - nu on the G x G grid (row-major, x major) and the
    summed taxicab snap cost of both measures to the cell centres."""
    def cells(m):
        ix = np.minimum((m.xs * G).astype(np.int64), G - 1)
        iy = np.minimum((m.ys * G).astype(np.int64), G - 1)
        snap = np.sum(m.ws * (np.abs(m.xs - (ix + 0.5) / G) + np.abs(m.ys - (iy + 0.5) / G)))
        w = np.zeros((G, G))
        np.add.at(w, (ix, iy), m.ws)
        return w, float(snap)

    wmu, smu = cells(mu)
    wnu, snu = cells(nu)
    return (wmu - wnu).ravel(), smu + snu


def _grid_flow(supply: np.ndarray, G: int, metric: str) -> float:
    """Min-cost flow of `supply` over the grid's nearest-neighbour arcs (both
    directions, cost 1/G each; wrapped on both axes for the circle)."""
    u = np.arange(G * G)
    i, j = np.divmod(u, G)
    if metric == "circle":
        jn, in_ = (j + 1) % G, (i + 1) % G
        ok_h = ok_v = np.ones(G * G, dtype=bool)
    else:
        jn, in_ = j + 1, i + 1
        ok_h, ok_v = jn < G, in_ < G
    vh, vv = i * G + jn, in_ * G + j
    # per cell: right arc out and back, then down arc out and back (the
    # column order steers the simplex pivots, and so the last digits)
    keep = np.stack([ok_h, ok_h, ok_v, ok_v], axis=1)
    src = np.stack([u, vh, u, vv], axis=1)[keep]
    dst = np.stack([vh, u, vv, u], axis=1)[keep]
    E = len(src)
    A = sp.csc_matrix((np.tile([1.0, -1.0], E),
                       (np.stack([src, dst], axis=1).ravel(), np.repeat(np.arange(E), 2))),
                      shape=(G * G, E))
    res = linprog(np.full(E, 1.0 / G), A_eq=A, b_eq=supply, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"grid flow failed: {res.message}")
    return float(res.fun)


def _cell_transport(supply: np.ndarray, G: int, metric: str) -> float:
    """The grid flow's optimum as a transportation LP from the excess cells
    to the deficit cells, at the taxicab distance of the cell centres."""
    src, dst = np.flatnonzero(supply > 0), np.flatnonzero(supply < 0)
    if len(src) == 0 or len(dst) == 0:
        return 0.0
    d = [np.abs(a[:, None] - b[None, :]) for a, b in zip(np.divmod(src, G), np.divmod(dst, G))]
    if metric == "circle":
        d = [np.minimum(k, G - k) for k in d]
    return _transport_lp((d[0] + d[1]) / G, supply[src], -supply[dst])


def _kr_grid(mu, nu, metric, G: int) -> tuple[float, float]:
    """Exact min-cost flow on a G x G grid quantization.

    Returns (value, snap_bound): the true KR distance lies within
    value +- snap_bound, where snap_bound sums the measured taxicab snap
    costs of both measures.

    Every grid arc costs 1/G and has no capacity, so the flow's optimum
    equals the transportation LP from the P cells with excess mass to the
    M cells with deficit, at the grid (taxicab, on the circle wrapped)
    distance of cell centres.  Graph joinings occupy a few hundred of the
    G^2 cells, and that LP is then far smaller than the flow; it is solved
    when P * M <= 8 G^2 (at most twice the grid's 4 G^2 arcs), and the flow
    otherwise, e.g. for product samples that fill most cells.
    """
    supply, snap = _grid_supply(mu, nu, G)
    if np.count_nonzero(supply > 0) * np.count_nonzero(supply < 0) <= 8 * G * G:
        return _cell_transport(supply, G, metric), snap
    return _grid_flow(supply, G, metric), snap


def kr_distance_detailed(mu: DiscreteMeasure2D, nu: DiscreteMeasure2D,
                         metric: str = "interval", method: str = "auto",
                         grid: int = 128) -> dict:
    """KR distance with the method used and a certified error bound."""
    if abs(mu.ws.sum() - nu.ws.sum()) > 1e-9:
        raise ValueError("measures must have equal total mass")
    n, m = len(mu), len(nu)
    if method == "auto":
        equal = (n == m and np.allclose(mu.ws, mu.ws[0]) and np.allclose(nu.ws, nu.ws[0])
                 and np.isclose(mu.ws[0], nu.ws[0]))
        if equal and n <= 3000:
            method = "assignment"
        elif n * m <= 360_000:
            method = "lp"
        else:
            method = "grid"
    if method == "assignment":
        return {"value": _kr_assignment(mu, nu, metric), "method": "assignment", "bound": 0.0}
    if method == "lp":
        return {"value": _kr_lp(mu, nu, metric), "method": "lp", "bound": 0.0}
    if method == "grid":
        val, snap = _kr_grid(mu, nu, metric, grid)
        return {"value": val, "method": f"grid{grid}", "bound": snap}
    raise ValueError(f"unknown method {method}")


def kr_distance(mu: DiscreteMeasure2D, nu: DiscreteMeasure2D,
                metric: str = "interval", method: str = "auto",
                grid: int = 128) -> float:
    """Exact Wasserstein-1 under the taxicab ground metric (see module doc)."""
    return kr_distance_detailed(mu, nu, metric=metric, method=method, grid=grid)["value"]


# ---------------------------------------------------------------------------
# certified bounds for large graph-supported instances
# ---------------------------------------------------------------------------

def w1_1d(xs, ws, ys, vs) -> float:
    """Exact 1-D Wasserstein-1 between weighted atom lists (interval metric)."""
    xs = np.asarray(xs, dtype=float); ws = np.asarray(ws, dtype=float)
    ys = np.asarray(ys, dtype=float); vs = np.asarray(vs, dtype=float)
    pts = np.concatenate([xs, ys])
    sgn = np.concatenate([ws, -vs])
    order = np.argsort(pts, kind="stable")
    pts, sgn = pts[order], sgn[order]
    cdf = np.cumsum(sgn)[:-1]
    return float(np.sum(np.abs(cdf) * np.diff(pts)))


def kr_upper_binned(mu: DiscreteMeasure2D, nu: DiscreteMeasure2D,
                    bins: int = 512) -> float:
    """Certified upper bound on the KR distance via an explicit coupling:
    quantile matching of the fiber measures within each x-bin (y-cost exact,
    x-cost at most the bin width), plus 1-D transport of the bin imbalances
    with worst-case y-cost."""
    bx_mu = np.minimum((mu.xs * bins).astype(np.int64), bins - 1)
    bx_nu = np.minimum((nu.xs * bins).astype(np.int64), bins - 1)
    total = 0.0
    matched = 0.0
    excess_mu, excess_nu = [], []
    for b in range(bins):
        mi = np.nonzero(bx_mu == b)[0]
        ni = np.nonzero(bx_nu == b)[0]
        wm = mu.ws[mi].sum() if len(mi) else 0.0
        wn = nu.ws[ni].sum() if len(ni) else 0.0
        mcommon = min(wm, wn)
        if mcommon > 0:
            # quantile coupling of the (normalized) fiber conditionals,
            # truncated to the common mass: y is the only coordinate
            total += _paired_transport(mu.ys[mi], np.zeros(len(mi)), mu.ws[mi],
                                       nu.ys[ni], np.zeros(len(ni)), nu.ws[ni], mcommon)
            total += mcommon / bins  # x displacement within the bin
            matched += mcommon
        if wm > wn:
            excess_mu.append((b, wm - wn))
        elif wn > wm:
            excess_nu.append((b, wn - wm))
    rest = 1.0 - matched
    if rest > 1e-15 and excess_mu and excess_nu:
        # one explicit coupling of the leftover mass: excess atoms taken
        # proportionally within their bins, paired in x-quantile order, both
        # coordinate costs accumulated along the same pairing
        def gather(side_excess, m, bx):
            xs, ys, ws = [], [], []
            for b, wex in side_excess:
                sel = bx == b
                wbin = m.ws[sel]
                scale = wex / wbin.sum()
                xs.append(m.xs[sel]); ys.append(m.ys[sel]); ws.append(wbin * scale)
            return (np.concatenate(xs), np.concatenate(ys), np.concatenate(ws))
        xm, ym, wm = gather(excess_mu, mu, bx_mu)
        xn, yn, wn = gather(excess_nu, nu, bx_nu)
        total += _paired_transport(xm, ym, wm, xn, yn, wn, min(wm.sum(), wn.sum()))
    return float(total)


def _paired_transport(xm, ym, wm, xn, yn, wn, common: float) -> float:
    """Cost of the x-quantile-order coupling of the first `common` mass of
    two weighted atom sets (taxicab cost on both coordinates)."""
    om = np.argsort(xm, kind="stable")
    on = np.argsort(xn, kind="stable")
    xm, ym, wm = xm[om], ym[om], wm[om]
    xn, yn, wn = xn[on], yn[on], wn[on]
    i = j = 0
    cost = 0.0
    left = common
    rm, rn = wm[0], wn[0]
    while left > 1e-18 and i < len(xm) and j < len(xn):
        step = min(rm, rn, left)
        cost += step * (abs(xm[i] - xn[j]) + abs(ym[i] - yn[j]))
        rm -= step; rn -= step; left -= step
        if rm <= 1e-18:
            i += 1
            rm = wm[i] if i < len(xm) else 0.0
        if rn <= 1e-18:
            j += 1
            rn = wn[j] if j < len(xn) else 0.0
    return cost


def kr_lower_witness(mu: DiscreteMeasure2D, nu: DiscreteMeasure2D,
                     cap: float = 0.25) -> float:
    """Certified lower bound: integrate the 1-Lipschitz witness
    f(z) = min(cap, taxicab distance to nu's support) against mu - nu.
    The nu-integral vanishes on nu's own atoms, so the bound is
    sum of mu-weighted witness values."""
    tree = cKDTree(np.column_stack([nu.xs, nu.ys]))
    d, _ = tree.query(np.column_stack([mu.xs, mu.ys]), k=1, p=1)
    return float(np.sum(mu.ws * np.minimum(d, cap)))


# ---------------------------------------------------------------------------
# disintegration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Disintegration:
    """Measure conditioned on vertical fibers over equal x-bins."""

    bins: int
    bin_mass: np.ndarray            # mass of each bin
    fiber_ys: list                  # per-bin y arrays
    fiber_ws: list                  # per-bin normalized weights
    empty: np.ndarray               # flags
    fiber_xs: list = None           # per-bin x arrays (atom positions)

    def conditional(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        return self.fiber_ys[b], self.fiber_ws[b]


def disintegrate(m: DiscreteMeasure2D, bins: int) -> Disintegration:
    """Group atoms by x-bin and normalize the per-bin conditionals."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    bx = np.minimum((m.xs * bins).astype(np.int64), bins - 1)
    fiber_ys, fiber_ws, fiber_xs = [], [], []
    mass = np.zeros(bins)
    empty = np.zeros(bins, dtype=bool)
    order = np.argsort(bx, kind="stable")
    sorted_b = bx[order]
    bounds = np.searchsorted(sorted_b, np.arange(bins + 1))
    for b in range(bins):
        sel = order[bounds[b]:bounds[b + 1]]
        if len(sel) == 0:
            empty[b] = True
            fiber_ys.append(np.empty(0))
            fiber_ws.append(np.empty(0))
            fiber_xs.append(np.empty(0))
            continue
        w = m.ws[sel]
        mass[b] = w.sum()
        fiber_ys.append(m.ys[sel])
        fiber_ws.append(w / w.sum())
        fiber_xs.append(m.xs[sel])
    return Disintegration(bins=bins, bin_mass=mass, fiber_ys=fiber_ys,
                          fiber_ws=fiber_ws, empty=empty, fiber_xs=fiber_xs)


def fiber_diameter_stats(d: Disintegration, mass_floor: float = 0.0,
                         threshold: float = 0.0) -> dict:
    """Support diameters of the conditionals after discarding light atoms."""
    diams = np.full(d.bins, np.nan)
    for b in range(d.bins):
        if d.empty[b]:
            continue
        ys, ws = d.conditional(b)
        keep = ws >= mass_floor
        if not np.any(keep):
            diams[b] = 0.0
            continue
        kept = ys[keep]
        diams[b] = float(kept.max() - kept.min())
    valid = ~np.isnan(diams)
    above = np.count_nonzero(diams[valid] > threshold)
    return {
        "diameters": diams,
        "n_nonempty": int(valid.sum()),
        "fraction_above": float(above / max(1, valid.sum())),
        "threshold": threshold,
    }


# ---------------------------------------------------------------------------
# test functions and the averaging operator
# ---------------------------------------------------------------------------

def _hat(c: float) -> Callable[[np.ndarray], np.ndarray]:
    def f(y):
        return np.maximum(0.0, 0.25 - np.abs(np.asarray(y) - c))
    return f

# versioned family: (callable, Lipschitz norm, sup norm)
TEST_FUNCTIONS = {
    "coord": (lambda y: np.asarray(y, dtype=float), 1.0, 1.0),
    "hat_half": (lambda y: 0.5 - np.abs(np.asarray(y) - 0.5), 1.0, 0.5),
    "hat_quarter": (_hat(0.25), 1.0, 0.25),
    "sin1": (lambda y: np.sin(2 * np.pi * np.asarray(y)) / (2 * np.pi), 1.0, 1 / (2 * np.pi)),
    "cos1": (lambda y: np.cos(2 * np.pi * np.asarray(y)) / (2 * np.pi), 1.0, 1 / (2 * np.pi)),
}

# two-dimensional family for Birkhoff diagnostics on the square
TEST_FUNCTIONS_2D = {
    "x": lambda x, y: x,
    "y": lambda x, y: y,
    "vdist": lambda x, y: np.abs(x - y),
    "sinsum": lambda x, y: np.sin(2 * np.pi * (x + y)) / (4 * np.pi),
    "coscross": lambda x, y: np.cos(2 * np.pi * (x - y)) / (4 * np.pi),
}


def apply_Asigma(d: Disintegration, f: str | Callable) -> np.ndarray:
    """Per-bin conditional expectation of f(y) (NaN on empty bins)."""
    fn = TEST_FUNCTIONS[f][0] if isinstance(f, str) else f
    out = np.full(d.bins, np.nan)
    for b in range(d.bins):
        if not d.empty[b]:
            ys, ws = d.conditional(b)
            out[b] = float(np.sum(ws * fn(ys)))
    return out


# ---------------------------------------------------------------------------
# approximation by powers along a tower
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Non-negative power coefficients along a tower, sum <= 1."""

    n: int
    indices: np.ndarray
    weights: np.ndarray
    base_bin: int

    def total(self) -> float:
        return float(self.weights.sum())

    def dense(self) -> np.ndarray:
        out = np.zeros(self.n)
        np.add.at(out, self.indices, self.weights)
        return out


def _coefficients_from_fiber(tower: Tower, iet: Iet3, xs, ys, ws):
    """Coefficient indices are per atom: the number of levels the atom's y
    sits above its own x (mod height), restricted to the refined sub-tower.
    This is the convention under which pure power joinings recover a single
    coefficient exactly."""
    from . import intervals as iv
    hat = _return_sets(tower, iet)[1]
    n = tower.height
    idx, wts = [], []
    outside = 0.0
    for x, y, w in zip(xs, ys, ws):
        a = tower.level_of_point(float(y))
        j = tower.level_of_point(float(x))
        if a is None or j is None:
            outside += w
            continue
        off = float(y) - float(tower.level_lows[a]) + float(tower.base[0])
        if not iv.contains_point(hat, off):
            outside += w
            continue
        idx.append((a - j) % n)
        wts.append(w)
    if idx:
        indices = np.array(idx, dtype=np.int64)
        weights = np.array(wts, dtype=float)
    else:
        indices = np.empty(0, dtype=np.int64)
        weights = np.empty(0, dtype=float)
    return indices, weights, outside


def _select_base_bin(d: Disintegration, tower: Tower) -> int:
    """Deterministic base-point selection: the nonempty in-tower bin whose
    conditional agrees best with its neighbors (1-D KR)."""
    scores = np.full(d.bins, np.inf)
    centers = (np.arange(d.bins) + 0.5) / d.bins
    for b in range(d.bins):
        if d.empty[b] or tower.level_of_point(centers[b]) is None:
            continue
        s, cnt = 0.0, 0
        for nb in (b - 1, b + 1):
            if 0 <= nb < d.bins and not d.empty[nb]:
                s += w1_1d(d.fiber_ys[b], d.fiber_ws[b], d.fiber_ys[nb], d.fiber_ws[nb])
                cnt += 1
        if cnt:
            scores[b] = s / cnt
    best = int(np.argmin(scores))
    if not np.isfinite(scores[best]):
        raise ValueError("no usable base bin: tower does not meet the sample")
    return best


def approx_by_powers(iet: Iet3, m: DiscreteMeasure2D, tower: Tower,
                     bins: int = 128) -> tuple[CoefficientVector, dict]:
    """Tower-coefficient approximation of the fiber-averaging operator.

    Picks a base bin, reads the coefficients c_i off its conditional measure
    (mass on the level i above the base bin's level, restricted to the
    refined sub-tower), and reports the discrete L2 error of
    A_sigma f vs sum_i c_i f(T^i x) per test function over the bin grid.
    """
    d = disintegrate(m, bins)
    b0 = _select_base_bin(d, tower)
    centers = (np.arange(bins) + 0.5) / bins
    indices, weights, outside = _coefficients_from_fiber(
        tower, iet, d.fiber_xs[b0], d.fiber_ys[b0], d.fiber_ws[b0])
    coeff = CoefficientVector(n=tower.height, indices=indices, weights=weights,
                              base_bin=b0)
    if coeff.total() > 1 + 1e-12:
        raise AssertionError("coefficient mass exceeds 1")

    # evaluate sum_i c_i f(T^i x) at bin centers via tower level arithmetic
    n = tower.height
    lows = tower.level_lows
    errors = {}
    grid_levels = np.array([-1 if (lv := tower.level_of_point(c)) is None else lv
                            for c in centers])
    usable = grid_levels >= 0
    for name, (fn, _, _) in TEST_FUNCTIONS.items():
        a_vals = apply_Asigma(d, name)
        preds = np.full(bins, np.nan)
        for b in range(bins):
            if not usable[b]:
                continue
            j = grid_levels[b]
            off = centers[b] - float(lows[j]) + float(tower.base[0])
            tgt = (j + indices) % n
            pts = lows[tgt] + (off - float(tower.base[0]))
            preds[b] = float(np.sum(weights * fn(pts)))
        ok = usable & ~np.isnan(a_vals) & ~np.isnan(preds)
        if np.any(ok):
            errors[name] = float(np.sqrt(np.mean((a_vals[ok] - preds[ok]) ** 2)))
        else:
            errors[name] = float("nan")
    errors["_outside_mass"] = outside
    errors["_excluded_bins"] = int(np.count_nonzero(~usable))
    return coeff, errors


# ---------------------------------------------------------------------------
# weak closure of powers
# ---------------------------------------------------------------------------

def _mixture_gap_fast(bin_ids: np.ndarray, ys_cand: np.ndarray,
                      nu_sorted: np.ndarray, nu_bin_ids: np.ndarray,
                      bins: int) -> float:
    """Coupling upper bound between the joining (x_i, ys_cand_i) and the
    half mixture built on the same base points: per-bin quantile matching of
    fibers (the candidate fiber is duplicated to align with the two mixture
    branches), plus the in-bin horizontal cost."""
    rep = np.repeat(ys_cand, 2)
    rep_bins = np.repeat(bin_ids, 2)
    order = np.lexsort((rep, rep_bins))
    diffs = np.abs(rep[order] - nu_sorted)
    return float(diffs.mean() + 1.0 / bins)


def weak_closure_check(iet: Iet3, k: int, horizon: int, N: int,
                       seed=0) -> tuple[int, float, dict]:
    """Find the power T^n closest (in KR) to the half mixture of the identity
    and T^k joinings.

    The scan walks n = -horizon..horizon incrementally on a reduced set of
    2000 atoms, then re-evaluates the best candidate at full N.  Reported
    distances are certified upper bounds (binned fiber coupling); the
    mixture and the candidates share the same stratified base points, so bin
    imbalance vanishes and the bound is tight to the bin width.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    scan_N, scan_bins = 2000, 128
    xs_scan = _stratified_points(scan_N, seed)
    yk = apply_pow_many(iet, k, xs_scan)
    bin_ids = np.minimum((xs_scan * scan_bins).astype(np.int64), scan_bins - 1)
    nu_vals = np.concatenate([xs_scan, yk])
    nu_bins = np.concatenate([bin_ids, bin_ids])
    nu_order = np.lexsort((nu_vals, nu_bins))
    nu_sorted = nu_vals[nu_order]
    table = {}
    best_n, best_v = 0, math.inf

    def consider(n, ys):
        nonlocal best_n, best_v
        v = _mixture_gap_fast(bin_ids, ys, nu_sorted, nu_bins, scan_bins)
        table[n] = v
        if v < best_v:
            best_v, best_n = v, n

    consider(0, xs_scan)
    # forward, then backward: T^-1 is the forward exchange of the inverse IET
    for exchange, sign in ((iet, 1), (iet.inverse(), -1)):
        cur = xs_scan.copy()
        for n in range(1, horizon + 1):
            cur = apply(exchange, cur)
            consider(sign * n, cur)
    # final evaluation at full size
    full = sample_power_joining(iet, best_n, N, seed=seed)
    ymix = apply_pow_many(iet, k, full.xs)
    mix_full = DiscreteMeasure2D(
        np.concatenate([full.xs, full.xs]), np.concatenate([full.xs, ymix]),
        np.full(2 * N, 0.5 / N))
    err = kr_upper_binned(full, mix_full, bins=1024)
    return best_n, float(err), {"scan": table, "scan_N": scan_N}


# ---------------------------------------------------------------------------
# cyclic averaging recursion
# ---------------------------------------------------------------------------

@dataclass
class BaryState:
    """State of the cyclic averaging recursion on d strand values."""

    d: int
    gamma: np.ndarray
    a: float
    b: float
    delta: float = 0.0

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.d < 2 or len(self.gamma) != self.d:
            raise ValueError("need d >= 2 strand values")
        if not (self.a > 0 and self.b > 0 and self.a + self.b <= 1 + 1e-12):
            raise ValueError("need a, b > 0 with a + b <= 1")


def bary_recursion(state: BaryState, steps: int, seed=0) -> dict:
    """Iterate gamma_i(l) <- a/(a+b) gamma_{i-1}(l-1) + b/(a+b) gamma_{i-1}(l)
    plus optional bounded noise; report per-step max gaps, the fitted decay
    ratio, and the mean drift."""
    rng = np.random.default_rng(seed)
    g = state.gamma.copy()
    wa = state.a / (state.a + state.b)
    wb = state.b / (state.a + state.b)
    gaps = [float(g.max() - g.min())]
    means = [float(g.mean())]
    traj = [g.copy()]
    for _ in range(steps):
        noise = (rng.random(state.d) * 2 - 1) * state.delta if state.delta else 0.0
        g = wa * np.roll(g, 1) + wb * g + noise
        np.clip(g, 0.0, 1.0, out=g)
        gaps.append(float(g.max() - g.min()))
        means.append(float(g.mean()))
        traj.append(g.copy())
    gaps_arr = np.array(gaps)
    ratios = [gaps_arr[i + 1] / gaps_arr[i]
              for i in range(len(gaps_arr) - 1)
              if gaps_arr[i] > 1e-13 and gaps_arr[i + 1] > 0]
    ratio = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
    return {
        "trajectory": np.array(traj),
        "gaps": gaps_arr,
        "ratio": ratio,
        "means": np.array(means),
        "mean_drift": float(abs(means[-1] - means[0])),
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def measure_to_csv(m: DiscreteMeasure2D) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["x", "y", "w"])
    for x, y, wt in zip(m.xs, m.ys, m.ws):
        w.writerow([f"{x:.17g}", f"{y:.17g}", f"{wt:.17g}"])
    return buf.getvalue()


def measure_histogram_csv(m: DiscreteMeasure2D, grid: int = 64) -> str:
    """Mass on a grid x grid partition of the square, as CSV (heatmap-ready)."""
    ix = np.minimum((m.xs * grid).astype(np.int64), grid - 1)
    iy = np.minimum((m.ys * grid).astype(np.int64), grid - 1)
    h = np.zeros((grid, grid))
    np.add.at(h, (ix, iy), m.ws)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["ix", "iy", "mass"])
    for i in range(grid):
        for j in range(grid):
            if h[i, j] > 0:
                w.writerow([i, j, f"{h[i, j]:.17g}"])
    return buf.getvalue()


def measure_from_csv(text: str) -> DiscreteMeasure2D:
    rows = list(csv.reader(io.StringIO(text)))
    body = rows[1:] if rows and rows[0][:1] == ["x"] else rows
    xs = np.array([float(r[0]) for r in body])
    ys = np.array([float(r[1]) for r in body])
    ws = np.array([float(r[2]) for r in body])
    return DiscreteMeasure2D(xs, ys, ws)
