"""Discrete self-joinings on [0,1)^2 and exact Kantorovich-Rubinstein
distances.

Measures are weighted atom lists.  The KR (Wasserstein-1) distance under the
taxicab ground metric is computed exactly by assignment (equal-count inputs
with exactly equal weights; large ones on costs reduced by the potentials of
a coarse grid flow, which keeps the optimal permutations) or as the
transportation problem between the atoms (large ones started from the arcs
those potentials price low); instances too large for either go
through an exact min-cost flow on a grid quantization (solved as the
transportation problem between excess and deficit cells when that is the
smaller problem), which carries a certified snap-cost error interval.  Every
transportation problem, between atoms or between cells, is solved one way:
on a sparse arc set grown by pricing, held by one HiGHS model that each
round re-optimises from its last basis (`_transport`).  When all atom weights
are whole multiples of one quantum (equal-weight samples and their
mixtures), the grid supplies are integer atom counts, the solution is
checked by an integer optimality certificate, and the grid value is an exact
rational rounded once; otherwise it is the solver's float optimum, and the
result says which.  For the graph-supported measures this package produces,
two cheap certified bounds are also provided, both array sweeps whose cost
does not depend on the geometry: a coupling upper bound (binned fiber
quantile coupling, by sorts, segmented sums and merged breakpoints) and a
duality lower bound (an explicit 1-Lipschitz witness, from exact taxicab
nearest-support distances found by four quadrant dominance sweeps).  Each
carries a stated rounding allowance, derived in its docstring, that moves it
in its conservative direction only: the upper bound up, the lower bound
down.

The module also houses the disintegration toolkit (conditional measures on
vertical fibers, the averaging operator they induce on test functions, and
the tower-coefficient approximation of that operator by powers), and the
cyclic averaging recursion whose contraction drives the strand convergence
of the switch schedule.
"""

from __future__ import annotations

import csv
import ctypes
import importlib.machinery
import importlib.util
import io
import math
import mmap
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .arith import _check_count, _index
from .iet_core import (Iet3, _check_domain, _power_on_circle, _step, _use_counting,
                       apply_pow_many, to_rotation)
from .towers import Tower, _return_sets

try:                                 # glibc only; elsewhere no trim is made
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

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
    "disintegrate",
    "fiber_diameter_stats",
    "apply_Asigma",
    "approx_by_powers",
    "weak_closure_check",
    "bary_recursion",
    "measure_to_csv",
    "measure_from_csv",
    "measure_histogram_csv",
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
        if not all(np.isfinite(arr).all() for arr in (xs, ys, ws)):
            raise ValueError("coordinates and weights must be finite")
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
    _check_count("N", N)
    a, xs = _index(a), _stratified_points(N, seed)
    if _use_counting(a, N):
        base, image, kappa = _power_on_circle(iet, xs, a)
        xs, ys = (np.clip(v / kappa, 0.0, np.nextafter(1.0, 0.0)) for v in (base, image))
    else:
        ys = apply_pow_many(iet, a, xs)
    return DiscreteMeasure2D.equal_weight(xs, ys)


def empirical_orbit_joining(iet: Iet3, x: float, n: int, L: int,
                            subsample: Optional[int] = None,
                            seed=0) -> DiscreteMeasure2D:
    """(1/L) sum of point masses at (T^i x, T^(i+n) x), i = 0..L-1, for x
    in [0, 1) (ValueError otherwise), lifted once onto the IET's integer
    circle, the window read by two `RotationCounter.orbit` evaluations
    whose points cross to floats without Python ints where the circle
    allows (`arith._exit`, bit for bit the floats of the exact points), and
    both snapped and rescaled as `_power_on_circle` does.  With
    ``subsample``, one index is drawn in each of that many strata of
    [0, L) (`_index_strata`, exact at any L): the result then estimates the
    orbit measure with 1/sqrt(subsample) slack; it must be a positive
    integer (ValueError otherwise).
    """
    _check_count("L", L)
    if subsample is not None:
        _check_count("subsample", subsample)
    _check_domain(x)
    idx = _index_strata(np.random.default_rng(seed), L if subsample is None else subsample, L)
    rc, kappa = iet.rotation_counter(), float(to_rotation(iet).kappa)
    u0 = rc.lift(float(x) * kappa)
    xs, ys = (np.clip(rc.orbit(u0, s, idx, floats=True) / rc.Q / kappa,
                      0.0, np.nextafter(1.0, 0.0)) for s in (0, n))
    return DiscreteMeasure2D.equal_weight(xs, ys)


def _index_strata(rng, s: int, L: int) -> np.ndarray:
    """One jittered index floor((i + U_i) L/s) in each of s equal strata of
    the window [0, L), sorted and distinct (every index, with no draw, when
    s >= L): the one rule for sampling a window.  Below 2^53 it is float64,
    as int64, held below L (the product can round up to L); from 2^53 up
    exact on Python ints, where U_i = k_i / 2^53
    (`Generator.random` draws multiples of 2^-53)."""
    if s >= L:
        return np.arange(L)
    u = rng.random(s)
    if L < 1 << 53:
        idx = np.minimum(np.floor((np.arange(s) + u) * (L / s)).astype(np.int64), L - 1)
    else:
        k = (u * 2.0 ** 53).astype(np.int64).astype(object)
        idx = ((np.arange(s, dtype=object) << 53) + k) * L // (s << 53)
    # non-decreasing on both branches: a repeat equals its left neighbour
    keep = np.ones(len(idx), dtype=bool)
    keep[1:] = idx[1:] != idx[:-1]
    return idx[keep]


def product_sample(N: int, seed=0) -> DiscreteMeasure2D:
    """N independent uniform pairs (empirical product measure); N must be a
    positive integer (ValueError otherwise)."""
    _check_count("N", N)
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

def _cost_matrix(mu: DiscreteMeasure2D, nu: DiscreteMeasure2D, metric: str) -> np.ndarray:
    """Taxicab costs, mu's atoms as rows, in an anonymous mapping filled in
    row blocks: the largest array of a KR solve (32 MB at 2000 atoms a side)
    then never enters the C heap, where its release would leave a hole."""
    C = np.frombuffer(mmap.mmap(-1, 8 * len(mu) * len(nu))).reshape(len(mu), len(nu))
    for i in range(0, len(mu), 256):
        r = slice(i, i + 256)
        _taxicab(mu.xs[r, None], mu.ys[r, None], nu.xs[None, :], nu.ys[None, :], metric, out=C[r])
    return C


def _taxicab(ax, ay, bx, by, metric: str, out=None) -> np.ndarray:
    """Taxicab distances of the points (ax, ay) and (bx, by), broadcast,
    each axis wrapped, min(d, 1 - d), on the circle: the one cost formula,
    written into ``out`` where it is given."""
    dx, dy = np.subtract(ax, bx, out=out), ay - by
    for d in (dx, dy):
        np.abs(d, out=d)
        if metric == "circle":
            np.minimum(d, 1.0 - d, out=d)
    return np.add(dx, dy, out=dx)


# ---------------------------------------------------------------------------
# exact solvers
# ---------------------------------------------------------------------------

def _bin(v: np.ndarray, G: int) -> np.ndarray:
    """Index of the cell of each coordinate among G equal cells of [0, 1)."""
    return np.minimum((v * G).astype(np.int64), G - 1)


def _cell_histogram(m: DiscreteMeasure2D, G: int,
                    weights=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masses of m (or of the given per-atom weights) on the G x G grid of
    cells (x major), and each atom's cell indices along x and y."""
    ix, iy = _bin(m.xs, G), _bin(m.ys, G)
    h = np.bincount(ix * G + iy, weights=m.ws if weights is None else weights,
                    minlength=G * G).reshape(G, G)
    return h, ix, iy


def _quantum(mu, nu) -> Optional[float]:
    """The smallest atom weight q of both measures, when every weight is a
    whole multiple of q exactly (checked in rationals) and both measures
    hold the same number of quanta; else None."""
    w = np.unique(np.concatenate([mu.ws, nu.ws]))
    q = Fraction(float(w[0]))
    if any(Fraction(float(u)) != int(k) * q for u, k in zip(w, np.rint(w / w[0]))):
        return None
    counts = [np.rint(m.ws / w[0]).sum() for m in (mu, nu)]
    return float(w[0]) if counts[0] == counts[1] < 2.0 ** 53 else None


def _grid_supply(mu, nu, G: int) -> tuple[np.ndarray, float, Optional[float]]:
    """Cell supplies of mu - nu on the G x G grid (row-major, x major), the
    summed taxicab snap cost of both measures to the cell centres, and the
    quantum q of `_quantum`.  With a quantum the supplies are whole counts of
    q (int64), otherwise masses."""
    q = _quantum(mu, nu)
    cells, snap = [], 0.0
    for m in (mu, nu):
        w, ix, iy = _cell_histogram(m, G, None if q is None else np.rint(m.ws / q))
        cells.append(w.ravel())
        snap += float(np.sum(m.ws * (np.abs(m.xs - (ix + 0.5) / G)
                                     + np.abs(m.ys - (iy + 0.5) / G))))
    supply = cells[0] - cells[1]
    return (supply if q is None else supply.astype(np.int64)), snap, q


def _scipy_solver(name: str):
    """SciPy's compiled module `scipy.optimize.<name>`, loaded alone: found
    in the installed package's directory and run, so that
    `scipy/optimize/__init__.py`, which imports the whole package (about
    45 MB of resident memory and 0.4 s), never runs.  It is registered in
    `sys.modules` under its own name, where a later `import scipy.optimize`
    finds it; one already there is returned.  A missing one raises
    ImportError naming it."""
    full = f"scipy.optimize.{name}"
    if full not in sys.modules:
        import scipy
        where = os.path.join(scipy.__path__[0], "optimize", *name.split(".")[:-1])
        spec = importlib.machinery.PathFinder.find_spec(full, [where])
        if spec is None:
            raise ImportError(f"no module named {full!r}", name=full)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    return sys.modules[full]


class _Network:
    """A min-cost flow LP held by one HiGHS model: min cost.x over flows
    x >= 0 on the arcs added (`add`, each tail -> head at its cost) whose
    outflow minus inflow at each node is its supply.  The model is SciPy's
    own HiGHS binding, the one `linprog(method="highs")` runs, loaded alone
    (`_scipy_solver`: the compiled module `scipy.optimize._highspy._core`,
    never the `scipy.optimize` package) and driven directly: each column's
    two entries go in row order, as `linprog`'s CSC matrix holds them, and
    the optimum is HiGHS's objective value, so a one-shot solve returns
    `linprog`'s flow, duals and optimum bit for bit.

    The first `solve` is HiGHS's dual simplex without presolve, which took
    about half the time of these network LPs.  Every later one re-optimises
    from the last optimal basis by the primal simplex: arcs added since are
    columns at zero flow, which leave that basis primal feasible.  Used as
    a context manager, the model is released on leaving, on the failure
    path too, and the C heap trimmed after it: glibc would keep HiGHS's
    freed working memory (tens of MB here) resident, and the next solves'
    peaks would stack on it."""

    def __init__(self, supply: np.ndarray, what: str):
        # The HiGHS binding that `linprog(method="highs")` runs on from SciPy
        # 1.15, loaded at the first solve and without the `scipy.optimize`
        # package: driven directly, it skips `linprog`'s per-call Python work
        # and keeps a model's basis between solves.
        self.what, self._core = what, _scipy_solver("_highspy._core")
        self._highs = self._core._Highs()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("presolve", "off")
        n = len(supply)
        self._highs.addRows(n, supply, supply, 0, np.zeros(n, dtype=np.int32), [], [])

    def __enter__(self) -> "_Network":
        return self

    def __exit__(self, *exc) -> None:
        self._highs = None                   # drop the model first, then trim
        if _malloc_trim is not None:
            _malloc_trim(0)

    def add(self, tail: np.ndarray, head: np.ndarray, cost: np.ndarray) -> None:
        """Columns for the arcs tail -> head: +1 in the tail's row, -1 in the
        head's, the lower row first."""
        E, rows = len(tail), np.sort(np.stack([tail, head], axis=1), axis=1)
        self._highs.addCols(E, cost, np.zeros(E), np.full(E, np.inf), 2 * E,
                            np.arange(0, 2 * E, 2, dtype=np.int32), rows.ravel().astype(np.int32),
                            np.where(rows == tail[:, None], 1.0, -1.0).ravel())

    def solve(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The flow on every arc added so far, in the order added, the node
        potentials (the equality duals, so that cost - pot[tail] + pot[head]
        is each arc's reduced cost) and the optimum.  A status other than
        optimal raises RuntimeError naming the network and the status."""
        h = self._highs
        h.run()
        status = h.getModelStatus()
        if status != self._core.HighsModelStatus.kOptimal:
            raise RuntimeError(f"{self.what} failed: model status is "
                               f"{h.modelStatusToString(status)}")
        primal = self._core.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal
        h.setOptionValue("simplex_strategy", int(primal))
        sol = h.getSolution()
        return np.array(sol.col_value), np.array(sol.row_dual), h.getInfo().objective_function_value


def _flow_lp(tail: np.ndarray, head: np.ndarray, cost: np.ndarray, supply: np.ndarray,
             what: str) -> tuple[np.ndarray, np.ndarray, float]:
    """The min-cost flow of `supply` over the arcs tail -> head, solved once
    on its own `_Network`: the flow, the node potentials and the optimum."""
    with _Network(supply, what) as net:
        net.add(tail, head, cost)
        return net.solve()


def _settle(tail, head, cost, flow, pot, supply, fun) -> tuple[float, bool]:
    """The cost of a solved min-cost flow with integer arc costs, and whether
    it is certified exact.  The arcs are all the arcs of the problem, also
    those the solve left out.

    With integer supplies the solution is checked in integers: the flow
    rounded to integers must be non-negative and balance every node exactly,
    and the potentials, shifted to make the first one whole and rounded,
    must leave every arc a reduced cost >= 0 and every arc that carries flow
    a reduced cost of 0.  The flow and the potentials are then feasible and
    complementary, so the flow is optimal and its cost, returned as a Python
    int, is the exact optimum.  Otherwise (float supplies, or a failed
    check) HiGHS's float optimum is returned, uncertified."""
    if supply.dtype.kind == "i":
        x = np.rint(flow).astype(np.int64)
        y = np.rint(pot - pot[0]).astype(np.int64)
        reduced = cost - y[tail] + y[head]
        on = x > 0
        n = len(supply)
        net = np.bincount(tail[on], x[on], n) - np.bincount(head[on], x[on], n)
        if x.min(initial=0) >= 0 and np.array_equal(net, supply) \
                and reduced.min(initial=0) >= 0 and not reduced[on].any():
            return int(np.sum(cost[on].astype(object) * x[on])), True
    return fun, False


def _grid_arcs(G: int, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the G x G grid's nearest-neighbour arcs (cells
    row-major, x major), both directions, each one step; wrapped on both
    axes for the circle."""
    u = np.arange(G * G)
    i, j = np.divmod(u, G)
    if metric == "circle":
        jn, in_ = (j + 1) % G, (i + 1) % G
        ok_h = ok_v = np.ones(G * G, dtype=bool)
    else:
        jn, in_ = j + 1, i + 1
        ok_h, ok_v = jn < G, in_ < G
    vh, vv = i * G + jn, in_ * G + j
    # per cell: right arc out and back, then down arc out and back
    keep = np.stack([ok_h, ok_h, ok_v, ok_v], axis=1)
    return np.stack([u, vh, u, vv], axis=1)[keep], np.stack([vh, u, vv, u], axis=1)[keep]


def _grid_flow(supply: np.ndarray, G: int, metric: str) -> tuple[float, bool]:
    """Min-cost flow of `supply` over the grid's arcs (`_grid_arcs`), in
    steps, settled by `_settle`."""
    src, dst = _grid_arcs(G, metric)
    cost = np.ones(len(src), dtype=np.int64)
    x, pot, fun = _flow_lp(src, dst, cost, supply, "grid flow")
    return _settle(src, dst, cost, x, pot, supply, fun)


# from this many atoms a side, on the interval metric, the assignment is
# seeded by the potentials of the grid flow on this many cells a side
# (BENCH_assignment_seed.json: below it, and on the circle, the plain solve
# was as fast or faster)
_SEED_ATOMS = 1000
_SEED_GRID = 32


def _seed_potentials(mu, nu, metric) -> np.ndarray:
    """Row potentials u_i = pot(cell of mu_i) / G, pot the node potentials
    of the grid flow of mu - nu (`_grid_supply`, `_grid_arcs`) at
    G = `_SEED_GRID`, rounded to whole steps and shifted to a least value of
    0.  Optimal potentials are 1-Lipschitz in grid steps, so u_i lies in
    [0, 2(G - 1)/G]; G is a power of two, so u_i is exact.  They seed both
    the assignment (`_kr_assignment`) and the first arc set of the `lp`
    method's transport (`_seed_arcs`); neither reads them past that start."""
    G = _SEED_GRID
    supply, _, _ = _grid_supply(mu, nu, G)
    tail, head = _grid_arcs(G, metric)
    _, pot, _ = _flow_lp(tail, head, np.ones(len(tail)), supply, "grid seed")
    y = np.rint(pot - pot.min())
    return y[_bin(mu.xs, G) * G + _bin(mu.ys, G)] / G


# from this many atom pairs n * m the `lp` method seeds its first arc set by
# the grid potentials, taking every arc within this many grid steps of
# reduced cost (BENCH_lp_seed.json: below it the seed LP costs more than
# it saves)
_LP_SEED_PAIRS = 200 * 200
_LP_SEED_SLACK = 3


def _seed_arcs(D: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The arcs (i, j) of the cost matrix D whose reduced cost
    D[i, j] - u_i - v_j is at most `_LP_SEED_SLACK` steps of the seed grid,
    u the grid potentials of mu's atoms (`_seed_potentials`) and
    v_j = min_i (D[i, j] - u_i) their c-transform, as a P x M mask.  The
    grid potentials are within a few steps of optimal ones, under which the
    optimal plan's arcs have reduced cost 0, so those arcs tend to lie in
    this set and the first sparse LP to be optimal on all arcs."""
    R = D - u[:, None]
    R -= R.min(axis=0)
    return R <= _LP_SEED_SLACK / _SEED_GRID


def _kr_assignment(mu, nu, metric) -> float:
    """The mean cost of an optimal assignment of mu's atoms to nu's (equal
    counts; the weights are not read) by `linear_sum_assignment`, loaded
    alone from its compiled module `scipy.optimize._lsap` (`_scipy_solver`;
    the `scipy.optimize` package is never imported), the mean
    taken over the chosen pairs' costs recomputed from their coordinates
    (`_taxicab`), so that no second n x n array is built.

    From `_SEED_ATOMS` atoms a side on the interval metric, the cost matrix
    is first reduced in place by grid Kantorovich potentials (the coarse
    level of Schmitzer's multiscale scheme): u_i (`_seed_potentials`, solved
    before the matrix is allocated, so that the LP's trimmed working memory
    does not add to the peak) is taken off row i, then each column's least
    entry v_j off column j (a c-transform).  Every permutation's total then
    falls by the same Σu + Σv, so the optimal permutations are those of the
    unreduced matrix, while the reduced one is non-negative, has a zero in
    every column and is small on the optimum, where shortest augmenting
    paths are short (Jonker and Volgenant, Computing 1987).

    Rounding, with U = 2^-53 the unit roundoff: costs lie in [0, 2] and u_i
    in [0, 2), so |C - u| <= 2, v_j lies in [-2, 2] and each reduced entry in
    [0, 4]; its two subtractions round it by at most 2U + 4U = 6U.  Each
    permutation's reduced total is thus its exact total, less Σu + Σv,
    within 6nU, and the permutation chosen has an exact mean cost at most
    12U above the optimum (for a solver exact on the matrix it is given);
    the reported mean adds its own summation rounding, as the unseeded one
    does.  The value moves only where a different permutation is chosen.
    On dyadic coordinates (multiples of 1/64, say) every cost, potential and
    reduced entry is exact, and so is every total: any optimal permutation
    then gives the unseeded value bit for bit."""
    seed = metric == "interval" and len(mu) >= _SEED_ATOMS
    u = _seed_potentials(mu, nu, metric) if seed else None
    C = _cost_matrix(mu, nu, metric)
    if seed:
        C -= u[:, None]
        C -= C.min(axis=0)
    r, c = _scipy_solver("_lsap").linear_sum_assignment(C)
    return float(_taxicab(mu.xs[r], mu.ys[r], nu.xs[c], nu.ys[c], metric).mean())


# the first arc set of `_transport` holds this many nearest partners of
# every node
_NEAR_PARTNERS = 8


def _transport(D: np.ndarray, a: np.ndarray, b: np.ndarray,
               seed: Optional[np.ndarray] = None) -> tuple[float, bool]:
    """The transportation problem min sum D[i, j] x[i, j] over x >= 0 with
    row sums a and column sums b (all positive), solved on a shielded sparse
    arc set and settled by `_settle` against all P x M arcs (integer
    supplies need integer costs).

    The first arc set holds each row's and each column's `_NEAR_PARTNERS`
    nearest partners and the north-west-corner plan (with the arc that
    keeps it connected where both sides break at once), so the first LP is
    feasible, and the arcs of `seed`, a P x M mask, when one is given
    (`_seed_arcs`).  Seed arcs change only the set the loop starts from:
    the pricing below and `_settle` still read all P x M arcs, so the
    optimality certificate and the tolerance are those of the unseeded
    solve.  Each round prices all P x M arcs with the LP's potentials in
    one array pass, adds those of reduced cost below -1e-9 to the one
    `_Network` model of the solve, and re-optimises from the last optimal
    basis by the primal simplex; when none is left the set's optimum is
    optimal on all arcs (the shielding of Schmitzer, "A sparse multiscale
    algorithm for dense optimal transport", J. Math. Imaging Vis. 2016).
    A warm round may end on another optimal basis than a fresh solve of the
    same arcs, so a float optimum can differ from that one's in the last
    bits; an integer one is certified by `_settle` either way.  With integer
    costs a basis's reduced costs are whole numbers and the margin only
    absorbs the solver's rounding.  With float costs it is a tolerance:
    lowering every row potential by 1e-9 makes the potentials feasible on
    all arcs, so the arcs left out move the optimum by at most 1e-9 times
    the total mass."""
    P, M = D.shape
    keep = np.zeros((P, M), dtype=bool) if seed is None else seed.copy()
    near = min(_NEAR_PARTNERS, P, M)
    keep[np.arange(P)[:, None], np.argpartition(D, near - 1, axis=1)[:, :near]] = True
    keep[np.argpartition(D, near - 1, axis=0)[:near], np.arange(M)] = True
    A, B = np.cumsum(a), np.cumsum(b)
    t = np.union1d(A, B)
    jb = np.minimum(np.searchsorted(B, t), M - 1)
    for side in ("left", "right"):
        keep[np.minimum(np.searchsorted(A, t, side), P - 1), jb] = True
    tail, head = np.repeat(np.arange(P), M), P + np.tile(np.arange(M), P)
    cost, nodes, active = D.ravel(), np.concatenate([a, -b]), keep.ravel()
    arcs, new = np.zeros(0, dtype=np.int64), np.flatnonzero(active)
    with _Network(nodes, "transport") as net:
        while len(new):
            net.add(tail[new], head[new], cost[new])
            arcs = np.concatenate([arcs, new])
            x, pot, fun = net.solve()
            new = np.flatnonzero(~active & (cost - pot[tail] + pot[head] < -1e-9))
            active[new] = True
    flow = np.zeros(P * M)
    flow[arcs] = x
    return _settle(tail, head, cost, flow, pot, nodes, fun)


def _cell_transport(supply: np.ndarray, G: int, metric: str) -> tuple[float, bool]:
    """The grid flow's optimum, in steps, as the transportation problem
    (`_transport`) from the excess cells to the deficit cells at the
    cell-step distance of their centres."""
    src, dst = np.flatnonzero(supply > 0), np.flatnonzero(supply < 0)
    if len(src) == 0 or len(dst) == 0:
        return 0, supply.dtype.kind == "i"
    d = [np.abs(a[:, None] - b[None, :]) for a, b in zip(np.divmod(src, G), np.divmod(dst, G))]
    if metric == "circle":
        d = [np.minimum(k, G - k) for k in d]
    return _transport(d[0] + d[1], supply[src], -supply[dst])


def _kr_grid(mu, nu, metric, G: int) -> tuple[float, float, str]:
    """Exact min-cost flow on a G x G grid quantization.

    Returns (value, snap_bound, value_kind): the true KR distance lies within
    value +- snap_bound, where snap_bound sums the measured taxicab snap
    costs of both measures.

    Every grid arc costs one step, 1/G, and has no capacity, so the flow's
    optimum equals the transportation problem from the P cells with excess
    mass to the M cells with deficit, at the grid (taxicab, on the circle
    wrapped) step distance of cell centres.  Graph joinings occupy a few
    hundred of the G^2 cells, and that problem, solved on a sparse arc set
    (`_cell_transport`), is then far smaller than the flow; it is solved when
    P * M <= 32 G^2, and the flow (`_grid_flow`) otherwise, e.g. for product
    samples that fill most cells (BENCH_grid_transport.json times both
    branches on each side of that rule).  Either is one HiGHS model
    (`_Network`): the transport's pricing rounds re-optimise it from the
    last basis, the flow is solved once.

    When every atom weight of both measures is a whole multiple of one
    quantum q (`_quantum`: equal-weight samples and their mixtures), the
    supplies are whole counts of q and the solution carries the integer
    certificate of `_settle`; the value is then the exact rational
    steps * q / G rounded once to binary64, and value_kind is "rational".
    Otherwise, or if the certificate fails, the supplies are masses and the
    value is HiGHS's float optimum over G, and value_kind is "float".
    """
    supply, snap, q = _grid_supply(mu, nu, G)
    dense = np.count_nonzero(supply > 0) * np.count_nonzero(supply < 0) > 32 * G * G
    solve = _grid_flow if dense else _cell_transport
    steps, exact = solve(supply, G, metric)
    if exact:
        return float(Fraction(steps) * Fraction(q) / G), snap, "rational"
    if q is not None:
        steps, _ = solve(supply * q, G, metric)
    return steps / G, snap, "float"


def kr_distance_detailed(mu: DiscreteMeasure2D, nu: DiscreteMeasure2D,
                         metric: str = "interval", method: str = "auto",
                         grid: int = 128) -> dict:
    """KR distance with the method used, a certified error bound, and
    `value_kind`: "rational" for a grid value certified exact (see
    `_kr_grid`), "float" otherwise.

    The assignment method matches atoms one to one and does not read the
    weights, so it needs equal atom counts and exactly equal weights
    (ValueError otherwise), and `auto` takes it only then.  From
    `_SEED_ATOMS` atoms on the interval metric it solves on costs reduced by
    grid potentials, which keeps the optimal permutations: the value moves
    only where rounding makes another permutation optimal, by at most 12
    unit roundoffs (`_kr_assignment`).  From `_LP_SEED_PAIRS` atom pairs, on
    either metric, the `lp` method starts its sparse solve from the arcs of
    small reduced cost under the same grid potentials (`_seed_arcs`); that
    changes only where the solve starts, never its pricing over all arcs or
    its certificate, so the value is the same optimum up to the solver's
    rounding.

    A metric other than "interval" or "circle", or a grid that is not a
    positive integer, raises ValueError."""
    if metric not in ("interval", "circle"):
        raise ValueError(f"metric must be 'interval' or 'circle', not {metric!r}")
    _check_count("grid", grid)
    if abs(mu.ws.sum() - nu.ws.sum()) > 1e-9:
        raise ValueError("measures must have equal total mass")
    n, m = len(mu), len(nu)
    # assignment ignores the weights: only exactly equal ones qualify
    equal = (n == m and np.all(mu.ws == mu.ws[0]) and np.all(nu.ws == nu.ws[0])
             and mu.ws[0] == nu.ws[0])
    if method == "auto":
        if equal and n <= 3000:
            method = "assignment"
        elif n * m <= 1_000_000:      # lp is faster (BENCH_grid_transport.json)
            method = "lp"
        else:
            method = "grid"
    if method == "assignment":
        if not equal:
            raise ValueError("assignment needs equal atom counts and exactly equal "
                             f"weights, not {n} and {m} atoms")
        return {"value": _kr_assignment(mu, nu, metric), "method": "assignment", "bound": 0.0,
                "value_kind": "float"}
    if method == "lp":
        # the seed LP runs before the cost matrix is allocated, as in
        # `_kr_assignment`
        seeded = n * m >= _LP_SEED_PAIRS
        u = _seed_potentials(mu, nu, metric) if seeded else None
        D = _cost_matrix(mu, nu, metric)
        val, _ = _transport(D, mu.ws, nu.ws, _seed_arcs(D, u) if seeded else None)
        return {"value": float(val), "method": "lp", "bound": 0.0, "value_kind": "float"}
    if method == "grid":
        val, snap, kind = _kr_grid(mu, nu, metric, grid)
        return {"value": val, "method": f"grid{grid}", "bound": snap, "value_kind": kind}
    raise ValueError(f"unknown method {method}")


def kr_distance(mu: DiscreteMeasure2D, nu: DiscreteMeasure2D) -> float:
    """Exact Wasserstein-1 under the taxicab ground metric (see module doc), by
    `kr_distance_detailed`'s default solve; a metric, method or grid goes there."""
    return kr_distance_detailed(mu, nu)["value"]


# ---------------------------------------------------------------------------
# certified bounds for large graph-supported instances
# ---------------------------------------------------------------------------

def _stable_order(v: np.ndarray) -> np.ndarray:
    """The permutation of ``np.argsort(v, kind="stable")`` on finite v, from
    NumPy's default sort, which is faster on unordered data.  If no two
    sorted values are equal it is that order; otherwise each run of equal
    values (+0.0 and -0.0 among them) is put back in index order by one sort
    of the distinct keys run * len(v) + index."""
    o = np.argsort(v)
    s = v[o]
    tie = s[1:] == s[:-1]
    if not tie.any():
        return o
    run = np.cumsum(np.r_[0, ~tie])
    return o[np.argsort(run * len(v) + o)]


def _w1_and_ties(xs, ws, ys, vs) -> tuple[float, bool]:
    """The exact 1-D Wasserstein-1 distance between weighted atom lists of
    equal total mass (to 1e-9) at finite points (interval metric), and
    whether two of the points are equal.  Without equal points the value
    of the reversed pair is the same bit for bit: the sorted points are the
    same and the running sums change sign only."""
    xs = np.asarray(xs, dtype=float); ws = np.asarray(ws, dtype=float)
    ys = np.asarray(ys, dtype=float); vs = np.asarray(vs, dtype=float)
    pts = np.concatenate([xs, ys])
    sgn = np.concatenate([ws, -vs])
    if not (np.isfinite(pts).all() and np.isfinite(sgn).all()):
        raise ValueError("1-D W1 needs finite points and weights")
    order = _stable_order(pts)
    cdf = np.cumsum(sgn[order])
    # the last running sum is the difference of the two masses
    if len(cdf) and not abs(cdf[-1]) <= 1e-9:
        raise ValueError(f"1-D W1 needs equal masses, got {ws.sum():.17g} "
                         f"and {vs.sum():.17g}")
    gaps = np.diff(pts[order])
    return float(np.sum(np.abs(cdf[:-1]) * gaps)), not gaps.all()


_U = 2.0 ** -53   # unit roundoff of binary64


def _tree_sum(v: np.ndarray) -> float:
    """Sum by pairwise halving: a tree of depth ceil(log2 len(v)), so the
    relative error on non-negative terms is at most that depth times u."""
    while len(v) > 1:
        if len(v) % 2:
            v = np.append(v, 0.0)
        v = v[0::2] + v[1::2]
    return float(v[0]) if len(v) else 0.0


def _radix_order(g: np.ndarray, top: int) -> np.ndarray:
    """``np.argsort(g, kind="stable")`` for integers 0..top, sorted in the
    smallest unsigned type that holds top, which lets NumPy use its radix
    sort."""
    return np.argsort(g.astype(np.min_scalar_type(top)), kind="stable")


def _grouped_order(key: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Indices ordering by (group, key): the keys, then the groups stably."""
    o = np.argsort(key)
    g = group[o]
    return o[_radix_order(g, int(g.max(initial=0)))]


def _segmented_cumsum(w: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, int]:
    """Running sums of ``w`` within each run of equal ``group``, by doubling
    passes; also returns the number of passes, which bounds the depth of the
    tree of additions behind every sum."""
    idx = np.arange(len(w))
    pos = idx - np.maximum.accumulate(np.where(np.r_[True, group[1:] != group[:-1]], idx, 0))
    c = w.copy()
    d, passes, longest = 1, 0, int(pos.max()) + 1
    while d < longest:
        c[d:] = c[d:] + np.where(pos[d:] >= d, c[:-d], 0.0)
        d *= 2
        passes += 1
    return c, passes


def _quantile_coupling(gm, wm, zm, gn, wn, zn, mass, slack):
    """Quantile coupling, group by group, of two weighted atom lists.

    Both sides come sorted by (group, key); zm and zn hold the coordinates
    that the taxicab cost reads (y alone, or x and y).  Each group's two
    conditionals are normalized and coupled in key order at mass[g]: the
    cost is mass[g] * sum_t dt * cost(zm at t, zn at t) over the merged normalized
    cumulative weights t of both sides, dt being the gap to the previous
    breakpoint and each side's atom at t the first whose cumulative weight
    reaches t (counted as that side's breakpoints before t in the merged
    order).

    Returns (value, allowance).  Each breakpoint, in mass units, is off by
    at most slack[g] (the error of the inputs' masses) plus mass[g] * beta,
    beta = (2 passes + 2) u for the two segmented sums and the division;
    moving a breakpoint changes the cost by at most that error times the
    taxicab step between the two atoms it separates, and moving the end by
    at most the error times the largest cost, len(zm).  The allowance is
    therefore the error times the path lengths of both sides plus len(zm),
    summed over groups.
    The rounding of the returned sum is left to the caller.
    """
    if len(wm) == 0:
        return 0.0, 0.0
    fm, pm = _segmented_cumsum(wm, gm)
    fn, pn = _segmented_cumsum(wn, gn)
    for f, g in ((fm, gm), (fn, gn)):
        last = np.r_[g[1:] != g[:-1], True]
        f /= np.repeat(f[last], np.diff(np.r_[-1, np.flatnonzero(last)]))
    t = np.concatenate([fm, fn])
    g = np.concatenate([gm, gn])
    from_m = np.r_[np.ones(len(fm), dtype=np.int64), np.zeros(len(fn), dtype=np.int64)]
    order = _grouped_order(t, g)
    t, g, from_m = t[order], g[order], from_m[order]
    dt = np.diff(t, prepend=0.0)
    restart = np.r_[True, g[1:] != g[:-1]]
    dt[restart] = t[restart]
    im = np.minimum(np.cumsum(from_m) - from_m, len(fm) - 1)
    jn = np.minimum(np.cumsum(1 - from_m) - (1 - from_m), len(fn) - 1)
    cost = sum(np.abs(a[im] - b[jn]) for a, b in zip(zm, zn))
    value = _tree_sum(mass[g] * dt * cost)

    def path(z, grp):
        step = np.zeros(len(grp))
        same = grp[1:] == grp[:-1]
        step[1:][same] = sum(np.abs(np.diff(c))[same] for c in z)
        return np.bincount(grp, weights=step, minlength=len(mass))

    beta = (2 * max(pm, pn) + 2) * _U
    paths = path(zm, gm) + path(zn, gn) + len(zm)
    return value, float(np.sum((slack + mass * beta) * paths))


def _binned_coupling(mu: DiscreteMeasure2D, nu: DiscreteMeasure2D,
                     bins: int) -> tuple[float, float]:
    """Cost of the binned coupling and its rounding allowance (see
    `kr_upper_binned`)."""
    b_mu, b_nu = _bin(mu.xs, bins), _bin(nu.xs, bins)
    w_mu = np.bincount(b_mu, weights=mu.ws, minlength=bins)
    w_nu = np.bincount(b_nu, weights=nu.ws, minlength=bins)
    common = np.minimum(w_mu, w_nu)
    # a bin mass summed from p atoms is off by at most 1.01 p u of itself
    omega = 1.01 * _U * np.maximum(np.bincount(b_mu, minlength=bins) * w_mu,
                                   np.bincount(b_nu, minlength=bins) * w_nu)
    # matched mass: both fiber conditionals at the bin's common mass, in
    # y-order; the x-cost is at most the bin width
    om = _grouped_order(mu.ys, b_mu)
    on = _grouped_order(nu.ys, b_nu)
    om = om[common[b_mu[om]] > 0]
    on = on[common[b_nu[on]] > 0]
    matched, allowance = _quantile_coupling(
        b_mu[om], mu.ws[om], (mu.ys[om],), b_nu[on], nu.ws[on], (nu.ys[on],),
        common, omega)
    # leftover mass: each bin's remainder, its atoms in proportion, all
    # bins in one x-order at taxicab cost
    left = []
    for m, b, w in ((mu, b_mu, w_mu), (nu, b_nu, w_nu)):
        share = np.where(w > common, (w - common) / np.where(w > 0, w, 1.0), 0.0)[b]
        keep = np.flatnonzero(share > 0)
        keep = keep[np.argsort(m.xs[keep], kind="stable")]
        left.append((m.ws[keep] * share[keep], (m.xs[keep], m.ys[keep])))
    (lw_m, z_m), (lw_n, z_n) = left
    rest = max(_tree_sum(lw_m), _tree_sum(lw_n))
    depth = max(1, len(mu) + len(nu)).bit_length()
    total_omega = float(np.sum(omega))
    slack = 9 * total_omega + (depth + 9) * _U * rest
    if len(lw_m) and len(lw_n):
        zero_m, zero_n = np.zeros(len(lw_m), dtype=np.int64), np.zeros(len(lw_n), dtype=np.int64)
        extra, extra_allowance = _quantile_coupling(
            zero_m, lw_m, z_m, zero_n, lw_n, z_n, np.array([rest]), np.array([slack]))
    else:
        extra, extra_allowance = 2 * rest, 2 * slack
    value = matched + _tree_sum(common) / bins + extra
    allowance += extra_allowance + total_omega + (2 * depth + 10) * _U * value
    return value, 2 * allowance


def kr_upper_binned(mu: DiscreteMeasure2D, nu: DiscreteMeasure2D,
                    bins: int = 512) -> float:
    """Certified upper bound on the KR distance: the cost of one explicit
    coupling of mu and nu, plus an allowance for its floating-point
    evaluation.

    The coupling works in equal x-bins.  In each bin both fiber conditionals
    are normalized and matched in y-quantile order at the bin's common mass
    min(mu(bin), nu(bin)); the y-cost of this matching is exact and its
    x-cost is at most the bin width.  What is left of each bin (its atoms in
    proportion to their weights) is matched across all bins in x-quantile
    order at taxicab cost.  Every atom's mass is used exactly once, so this
    is a coupling of mu and nu and its cost bounds the distance.

    Both matchings run through one array primitive (`_quantile_coupling`):
    a sort by (group, key), segmented cumulative weights and the merged
    breakpoints between them.  The value returned is the computed
    cost V plus an allowance that bounds |V - exact cost|, so the bound can
    only move up (u = 2^-53):

    - a bin mass summed from p atoms is off by at most omega = 1.01 p u of
      itself, and so is the bin's common mass; with Omega the sum of omega
      over the bins and R the leftover mass, the leftover shares, their
      normalization and their total put each leftover breakpoint at most
      9 Omega + (D + 9) u R away, in mass units (D below);
    - a breakpoint is a segmented sum of depth d and a division, off by at
      most (2 d + 2) u of its group's mass, plus the group's mass error.
      Moving a breakpoint changes the cost by at most its error times the
      taxicab step between the two atoms it separates, so every group adds
      its breakpoint error times the path lengths through both sides'
      points (plus the largest cost, for the end), and Omega covers the
      bin-width term;
    - each term of the final sums has at most six roundings and every sum
      is a pairwise tree of depth at most D = bit length of the atom count,
      so (2 D + 10) u V covers the evaluation.

    The allowance is doubled to absorb the rounding of its own terms; on the
    fast witness's calls it is below 6e-12.  `bins` that is not a positive
    integer raises ValueError.
    """
    _check_count("bins", bins)
    value, allowance = _binned_coupling(mu, nu, bins)
    return value + allowance


_LEAF = 3   # the quadrant sweeps stop at blocks of 2^_LEAF points
_LEAF_CHUNK = 1 << 11   # leaves compared at once: 1 MiB of pair distances an axis


def _nearest_taxicab(qx, qy, sx, sy) -> np.ndarray:
    """Taxicab distance from each query point to the nearest support point,
    by four quadrant dominance sweeps.

    Around a query q the support splits into four quadrants; in each the
    distance is a fixed linear key of the support point minus the same key
    of q (in x_j >= x_q, y_j >= y_q it is (x_j + y_j) - (x_q + y_q)), so the
    nearest point there is the one of least key among those the quadrant
    holds, a 2-D dominance minimum.  Ordering all points by descending x and,
    separately, by descending y (support first on ties) turns the quadrants
    into "before/after q in both orders".  A divide and conquer over the x
    order answers all four at once: at level k every block of 2^(k+1)
    positions pairs its halves, and a segmented running minimum of integer
    key ranks along the y order (shifted per block so that it cannot carry
    over a block boundary) gives each query the best support point of the
    other half.  The winners' distances are recomputed as |dx| + |dy|, and
    the pairs left inside blocks of 2^_LEAF positions are compared directly.
    """
    ns, nq = len(sx), len(qx)
    n = ns + nq
    # positions, orders and ranks are below n, so int32 holds them below 2^31
    # points; the shifted running minima take int64
    ix = np.int32 if n < 1 << 31 else np.int64
    # positions along descending x; the support is listed first, so the
    # stable sort puts it first on ties
    pos_x = np.empty(n, dtype=ix)
    pos_x[np.argsort(-np.concatenate([sx, qx]), kind="stable")] = np.arange(n, dtype=ix)
    order = np.argsort(-np.concatenate([sy, qy]), kind="stable").astype(ix)
    none = np.int64(1) << 62
    by = tuple(np.argsort(key).astype(ix) for key in (sx + sy, sx - sy))
    by = by + (by[0][::-1], by[1][::-1])

    def ranks(b):                 # key rank per point, n for queries
        r = np.full(n, n, dtype=ix)
        r[b] = np.arange(ns, dtype=ix)
        return r

    # support in the half before q in x: least x + y before q in y (the
    # quadrant x_j >= x_q, y_j >= y_q), least x - y after it; support in the
    # half after q: greatest x + y after q in y, greatest x - y before it
    halves = ((False, ((0, True), (1, False))), (True, ((2, False), (3, True))))
    rank = [ranks(b) for b in by]
    best = np.full((4, nq), none)
    for k in range((n - 1).bit_length() - 1, _LEAF - 1, -1):
        px = pos_x[order]
        block = px >> (k + 1)
        upper = (px >> k) & 1
        support = order < ns
        for sup_upper, quads in halves:
            pair = support != (upper.astype(bool) != sup_upper)
            items, shift = order[pair], block[pair].astype(np.int64) * n
            reads = items >= ns
            qi, shift_q = items[reads] - ns, shift[reads]
            for q, before in quads:
                # a running minimum that cannot carry over a block boundary:
                # earlier blocks sit higher, so their values read >= n
                if before:
                    run = np.minimum.accumulate(rank[q][items] - shift)[reads] + shift_q
                else:
                    run = np.minimum.accumulate((rank[q][items] + shift)[::-1])[::-1][reads] - shift_q
                best[q, qi] = np.minimum(best[q, qi], run)
        # stable partition of every block by bit k: order by (pos_x >> k, y)
        start = block << (k + 1)
        ups = np.cumsum(upper) - upper
        ups -= ups[start]
        order_next = np.empty_like(order)
        order_next[np.where(upper, start + (1 << k) + ups, np.arange(n) - ups)] = order
        order = order_next
    dist = np.full(nq, np.inf)
    for q in range(4):
        has = best[q] < n
        j = by[q][best[q][has]]
        dist[has] = np.minimum(dist[has], np.abs(sx[j] - qx[has]) + np.abs(sy[j] - qy[has]))
    # the pairs inside each leaf of 2^_LEAF consecutive x positions, directly,
    # _LEAF_CHUNK leaves at a time, each pair's |dx| + |dy| built in place
    leaf = np.full(-(-n >> _LEAF) << _LEAF, n, dtype=ix)
    leaf[pos_x] = np.arange(n, dtype=ix)
    leaf = leaf.reshape(-1, 1 << _LEAF)
    xs, ys = np.r_[sx, qx, np.nan], np.r_[sy, qy, np.nan]
    side = (min(len(leaf), _LEAF_CHUNK), 1 << _LEAF, 1 << _LEAF)
    dx, dy = np.empty(side), np.empty(side)
    for a in range(0, len(leaf), _LEAF_CHUNK):
        lf = leaf[a:a + _LEAF_CHUNK]
        d, e = dx[:len(lf)], dy[:len(lf)]
        for out, v in ((d, xs[lf]), (e, ys[lf])):
            np.abs(np.subtract(v[:, :, None], v[:, None, :], out=out), out=out)
        d += e
        is_q = (lf >= ns) & (lf < n)
        d[~is_q[:, :, None] | (lf >= ns)[:, None, :]] = np.inf
        qi = lf[is_q] - ns
        dist[qi] = np.minimum(dist[qi], d.min(axis=2)[is_q])
    return dist


_WITNESS_CAP = 0.25   # height of the lower-bound witness function


def kr_lower_witness(mu: DiscreteMeasure2D, nu: DiscreteMeasure2D) -> float:
    """Certified lower bound: integrate the 1-Lipschitz witness
    f(z) = min(cap, taxicab distance to nu's support), cap = `_WITNESS_CAP`,
    against mu - nu.
    The nu-integral vanishes on nu's own atoms, so the bound is the
    mu-weighted sum of witness values.

    The distances come from `_nearest_taxicab`.  Each quadrant's winner has
    the least rounded key; keys lie in (-1, 2), where rounding moves them by
    at most 2^-53, so the winner's exact distance exceeds the quadrant's
    least by at most 2^-52, and recomputing it as |dx| + |dy| adds at most
    2^-52 more (a pair compared directly has only the latter error).  With V = min(cap, 2) the largest clipped distance, the
    subtraction below, the product with the weight and the correctly
    rounded sum (math.fsum) add at most 3 u V per unit weight (u = 2^-53).
    Subtracting delta = 2^-51 + 4 u V from every clipped distance therefore
    keeps each term, and the sum, at or below the exact witness integral:
    the bound can only move down.
    """
    d = _nearest_taxicab(mu.xs, mu.ys, nu.xs, nu.ys)
    delta = 2.0 ** -51 + 4 * _U * min(_WITNESS_CAP, 2.0)
    return math.fsum(mu.ws * np.maximum(np.minimum(d, _WITNESS_CAP) - delta, 0.0))


# ---------------------------------------------------------------------------
# disintegration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Disintegration:
    """Measure conditioned on vertical fibers over equal x-bins: the atoms
    sorted stably by bin, fiber b at positions bounds[b]:bounds[b+1], with
    the weights normalized within each fiber."""

    bin_mass: np.ndarray            # mass of each bin
    bounds: np.ndarray              # fiber b is xs, ys, ws[bounds[b]:bounds[b+1]]
    xs: np.ndarray
    ys: np.ndarray
    ws: np.ndarray
    bins = property(lambda self: len(self.bounds) - 1)

    @property
    def empty(self) -> np.ndarray:
        return self.bounds[1:] == self.bounds[:-1]

    def fiber(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = slice(self.bounds[b], self.bounds[b + 1])
        return self.xs[s], self.ys[s], self.ws[s]

    def conditional(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        return self.fiber(b)[1:]


def _fiber_sums(bounds: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum of v over each fiber's positions bounds[b]:bounds[b+1] (NaN on
    empty fibers), one slice sum per fiber."""
    out = np.full(len(bounds) - 1, np.nan)
    full = np.flatnonzero(bounds[1:] > bounds[:-1])
    out[full] = [np.sum(v[bounds[b]:bounds[b + 1]]) for b in full]
    return out


def disintegrate(m: DiscreteMeasure2D, bins: int) -> Disintegration:
    """Group atoms by x-bin and normalize the per-bin conditionals."""
    _check_count("bins", bins)
    order = _radix_order(_bin(m.xs, bins), bins - 1)
    xs = m.xs[order]
    # the fiber bounds before ys and ws are gathered: the binning's
    # temporaries then never coexist with all three sorted arrays
    bounds = np.searchsorted(_bin(xs, bins), np.arange(bins + 1))
    ys, ws = m.ys[order], m.ws[order]
    mass = np.nan_to_num(_fiber_sums(bounds, ws))
    ws /= np.repeat(mass, np.diff(bounds))
    return Disintegration(bin_mass=mass, bounds=bounds, xs=xs, ys=ys, ws=ws)


def fiber_diameter_stats(d: Disintegration, threshold: float = 0.0) -> dict:
    """Support diameters of the conditionals (NaN on empty bins)."""
    diams = np.full(d.bins, np.nan)
    full = np.flatnonzero(~d.empty)
    diams[full] = (np.maximum.reduceat(d.ys, d.bounds[full])
                   - np.minimum.reduceat(d.ys, d.bounds[full]))
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

# versioned family of 1-Lipschitz test functions
TEST_FUNCTIONS = {
    "coord": lambda y: np.asarray(y, dtype=float),
    "hat_half": lambda y: 0.5 - np.abs(np.asarray(y) - 0.5),
    "hat_quarter": _hat(0.25),
    "sin1": lambda y: np.sin(2 * np.pi * np.asarray(y)) / (2 * np.pi),
    "cos1": lambda y: np.cos(2 * np.pi * np.asarray(y)) / (2 * np.pi),
}

# two-dimensional family for Birkhoff averages on the square
TEST_FUNCTIONS_2D = {
    "x": lambda x, y: x,
    "y": lambda x, y: y,
    "vdist": lambda x, y: np.abs(x - y),
    "sinsum": lambda x, y: np.sin(2 * np.pi * (x + y)) / (4 * np.pi),
    "coscross": lambda x, y: np.cos(2 * np.pi * (x - y)) / (4 * np.pi),
}


def apply_Asigma(d: Disintegration, f: str | Callable) -> np.ndarray:
    """Per-bin conditional expectation of f(y) (NaN on empty bins)."""
    fn = TEST_FUNCTIONS[f] if isinstance(f, str) else f
    return _fiber_sums(d.bounds, d.ws * fn(d.ys))


# ---------------------------------------------------------------------------
# approximation by powers along a tower
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Non-negative power coefficients along a tower, sum <= 1."""

    n: int
    indices: np.ndarray
    weights: np.ndarray

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
    hat = np.array(_return_sets(tower, iet)[2], dtype=float).reshape(-1, 2)
    a, j = tower.levels_of(ys), tower.levels_of(xs)
    off = ys - tower.level_lows[a] + float(tower.base[0])
    # the refined base's pieces are sorted and disjoint: off lies in the last
    # piece starting at or before it, if in any (index -1 reads -inf)
    piece = np.searchsorted(hat[:, 0], off, side="right") - 1
    inside = (a >= 0) & (j >= 0) & (off < np.r_[hat[:, 1], -np.inf][piece])
    outside = np.cumsum(ws[~inside])
    return ((a - j)[inside] % tower.height, ws[inside],
            float(outside[-1]) if len(outside) else 0.0)


def _base_bin_scores(d: Disintegration, tower: Tower) -> np.ndarray:
    """Scores of the base-bin choice, whose argmin is the base bin: the mean
    1-D KR distance (`_w1_and_ties`) of each nonempty in-tower bin's
    conditional to those of its nonempty neighbors (left, then right), inf
    on every other bin.  Each neighboring nonempty pair (b, b + 1) with an
    in-tower bin in it is measured once, and once more the other way round
    only if its points tie: W1 is symmetric, and so is its float value
    unless a tie orders the pair's running sums otherwise."""
    full = ~d.empty
    centers = (np.arange(d.bins) + 0.5) / d.bins
    cand = full & (tower.levels_of(centers) >= 0)
    if not cand.any():
        raise ValueError("no usable base bin: no nonempty bin lies in the tower")
    # each bin's distance to its left and right neighbor (NaN if unmeasured)
    left, right = np.full(d.bins, np.nan), np.full(d.bins, np.nan)
    for b in np.flatnonzero(full[:-1] & full[1:] & (cand[:-1] | cand[1:])):
        here, there = d.conditional(b), d.conditional(b + 1)
        right[b], tied = _w1_and_ties(*here, *there)
        left[b + 1] = _w1_and_ties(*there, *here)[0] if tied else right[b]
    sides = np.stack([left, right])
    near = np.count_nonzero(~np.isnan(sides), axis=0)
    usable = cand & (near > 0)
    if not usable.any():
        raise ValueError("no usable base bin: no nonempty in-tower bin has a "
                         "nonempty neighbor")
    scores = np.full(d.bins, np.inf)
    scores[usable] = np.nansum(sides[:, usable], axis=0) / near[usable]
    return scores


def approx_by_powers(iet: Iet3, m: DiscreteMeasure2D, tower: Tower,
                     bins: int = 128) -> tuple[CoefficientVector, dict]:
    """Tower-coefficient approximation of the fiber-averaging operator.

    Picks a base bin (the argmin of `_base_bin_scores`; bins >= 2, since a
    bin is scored against its neighbors), reads the coefficients c_i off its
    conditional measure (mass on the level i above the base bin's level,
    restricted to the refined sub-tower), and reports the discrete L2 error
    of A_sigma f vs sum_i c_i f(T^i x) per test function over the bin grid.
    """
    _check_count("bins", bins, low=2)
    d = disintegrate(m, bins)
    b0 = int(np.argmin(_base_bin_scores(d, tower)))
    indices, weights, outside = _coefficients_from_fiber(tower, iet, *d.fiber(b0))
    coeff = CoefficientVector(n=tower.height, indices=indices, weights=weights)
    if coeff.total() > 1 + 1e-12:
        raise AssertionError("coefficient mass exceeds 1")

    a_vals = {name: apply_Asigma(d, name) for name in TEST_FUNCTIONS}
    del d   # the fibers are done with: free them before the grid below

    # evaluate sum_i c_i f(T^i x) at bin centers via tower level arithmetic:
    # one row of target points per usable bin, one column per coefficient
    centers = (np.arange(bins) + 0.5) / bins
    lows, base = tower.level_lows, float(tower.base[0])
    levels = tower.levels_of(centers)
    usable = levels >= 0
    j = levels[usable]
    off = centers[usable] - lows[j] + base
    pts = lows[(j[:, None] + indices) % tower.height] + (off - base)[:, None]
    errors = {}
    for name, fn in TEST_FUNCTIONS.items():
        preds = np.full(bins, np.nan)
        preds[usable] = np.sum(weights * fn(pts), axis=1)
        ok = usable & ~np.isnan(a_vals[name]) & ~np.isnan(preds)
        if np.any(ok):
            errors[name] = float(np.sqrt(np.mean((a_vals[name][ok] - preds[ok]) ** 2)))
        else:
            errors[name] = float("nan")
    errors["_outside_mass"] = outside
    errors["_excluded_bins"] = int(np.count_nonzero(~usable))
    return coeff, errors


# ---------------------------------------------------------------------------
# weak closure of powers
# ---------------------------------------------------------------------------

_SCAN_BLOCK = 128       # steps of the weak-closure scan stepped and sorted at once


def weak_closure_check(iet: Iet3, k: int, horizon: int, N: int,
                       seed=0) -> tuple[int, float, dict]:
    """Find the power T^n closest (in KR) to the half mixture of the identity
    and T^k joinings.

    The scan walks n = -horizon..horizon incrementally on a reduced set of
    2000 atoms, then re-evaluates the best candidate at full N.  Reported
    distances are certified upper bounds (binned fiber coupling); the
    mixture and the candidates share the same stratified base points, so bin
    imbalance vanishes and the bound is tight to the bin width.

    Each scan value is the per-bin quantile matching of fibers: the
    candidate fiber, duplicated to align with the two mixture branches,
    against the mixture's, plus the in-bin horizontal cost.  The scan steps
    blocks of up to `_SCAN_BLOCK` powers into one array and sorts each
    x-bin's slice of the block in place; the stratified base points are
    sorted, so each x-bin is one slice.  The values equal those of one
    sort of 4000 values per power, bit for bit.
    """
    _check_count("horizon", horizon)
    _check_count("N", N)
    scan_N, scan_bins = 2000, 128
    xs_scan = _stratified_points(scan_N, seed)
    yk = apply_pow_many(iet, k, xs_scan)
    bin_ids = _bin(xs_scan, scan_bins)
    if np.any(np.diff(bin_ids) < 0):
        raise AssertionError("the scan's x-bins must be contiguous slices of "
                             "sorted base points")
    edges = np.searchsorted(bin_ids, np.arange(scan_bins + 1))
    slices = [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b - a > 1]
    nu_vals = np.concatenate([xs_scan, yk])
    nu_bins = np.concatenate([bin_ids, bin_ids])
    # the mixture's values sorted within bins, two per base point, so that
    # repeat(Y, 2) - nu_sorted is Y[:, :, None] - nu_pairs
    nu_pairs = nu_vals[np.lexsort((nu_vals, nu_bins))].reshape(scan_N, 2)
    table = {}
    best_n, best_v = 0, math.inf

    def consider(ns, Y):
        """Scan values of the candidate rows Y, the images at powers ns."""
        nonlocal best_n, best_v
        for s in slices:
            Y[:, s].sort(axis=1)
        diffs = Y[:, :, None] - nu_pairs
        np.abs(diffs, out=diffs)
        vals = diffs.reshape(len(Y), -1).mean(axis=1) + 1.0 / scan_bins
        table.update(zip(ns, vals.tolist()))
        j = int(np.argmin(vals))
        if vals[j] < best_v:
            best_v, best_n = vals[j], ns[j]

    consider([0], xs_scan[None].copy())
    # forward, then backward: T^-1 is the forward exchange of the inverse IET.
    # Every step clamps its image into [0, 1), so one domain check suffices.
    _check_domain(xs_scan)
    for exchange, sign in ((iet, 1), (iet.inverse(), -1)):
        cur = xs_scan
        for n0 in range(1, horizon + 1, _SCAN_BLOCK):
            ns = range(sign * n0, sign * min(n0 + _SCAN_BLOCK, horizon + 1), sign)
            Y = np.empty((len(ns), scan_N))
            for row in Y:
                row[:] = cur = _step(exchange, cur)
            consider(ns, Y)
    # final evaluation at full size
    full = sample_power_joining(iet, best_n, N, seed=seed)
    ymix = apply_pow_many(iet, k, full.xs)
    mix_full = mix(DiscreteMeasure2D.equal_weight(full.xs, full.xs),
                   DiscreteMeasure2D.equal_weight(full.xs, ymix))
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

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.d < 2 or len(self.gamma) != self.d:
            raise ValueError("need d >= 2 strand values")
        if not (self.a > 0 and self.b > 0 and self.a + self.b <= 1 + 1e-12):
            raise ValueError("need a, b > 0 with a + b <= 1")


def bary_recursion(state: BaryState, steps: int) -> dict:
    """Iterate gamma_i(l) <- a/(a+b) gamma_{i-1}(l-1) + b/(a+b) gamma_{i-1}(l);
    report per-step max gaps, the fitted decay ratio, and the mean drift."""
    g = state.gamma.copy()
    wa = state.a / (state.a + state.b)
    wb = state.b / (state.a + state.b)
    gaps = [float(g.max() - g.min())]
    means = [float(g.mean())]
    traj = [g.copy()]
    for _ in range(steps):
        g = wa * np.roll(g, 1) + wb * g
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
    _check_count("grid", grid)
    h = _cell_histogram(m, grid)[0]
    ix, iy = np.nonzero(h > 0)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["ix", "iy", "mass"])
    w.writerows(zip(ix.tolist(), iy.tolist(), map("{:.17g}".format, h[ix, iy].tolist())))
    return buf.getvalue()


def measure_from_csv(text: str) -> DiscreteMeasure2D:
    rows = list(csv.reader(io.StringIO(text)))
    body = rows[1:] if rows and rows[0][:1] == ["x"] else rows
    xs = np.array([float(r[0]) for r in body])
    ys = np.array([float(r[1]) for r in body])
    ws = np.array([float(r[2]) for r in body])
    return DiscreteMeasure2D(xs, ys, ws)
