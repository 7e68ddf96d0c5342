"""Discrete joinings: KR solvers and bounds, disintegration, coefficients,
weak closure, and the averaging recursion."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial import cKDTree

from iet3 import joinings
from iet3.iet_core import Iet3, _power_on_circle, apply, apply_pow_many
from iet3.joinings import (BaryState, DiscreteMeasure2D, _w1_and_ties,
                           apply_Asigma, approx_by_powers, bary_recursion,
                           disintegrate, empirical_orbit_joining,
                           fiber_diameter_stats, kr_distance,
                           kr_distance_detailed, kr_lower_witness,
                           kr_upper_binned, measure_from_csv, measure_to_csv,
                           mix, product_sample, sample_power_joining,
                           weak_closure_check)
from iet3.params import documented_switch_iet

IET = Iet3(0.2, 0.3, 0.5)


def _rand_measure(rng, n, equal=False):
    xs, ys = rng.random(n), rng.random(n)
    if equal:
        return DiscreteMeasure2D.equal_weight(xs, ys)
    ws = rng.random(n) + 0.1
    return DiscreteMeasure2D(xs, ys, ws / ws.sum())


# -- sampling ---------------------------------------------------------------

def test_power_joining_diagonal():
    m = sample_power_joining(IET, 0, 100, seed=1)
    assert np.allclose(m.xs, m.ys)


def test_power_joining_periodic_diagonal():
    iet = Iet3(Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
    # find the period of the rational exchange, then T^p gives the diagonal
    x = Fraction(3, 1000)
    cur, p = x, 0
    for i in range(1, 5000):
        cur = apply(iet, cur)
        if cur == x:
            p = i
            break
    m = sample_power_joining(iet, p, 200, seed=2)
    assert np.max(np.abs(m.xs - m.ys)) < 1e-9


def test_power_joining_marginals_near_uniform():
    for a in (0, 1, 3):
        m = sample_power_joining(IET, a, 400, seed=3)
        uniform = (np.arange(4000) + 0.5) / 4000
        dx = _w1_and_ties(m.xs, m.ws, uniform, np.full(4000, 1 / 4000))[0]
        dy = _w1_and_ties(m.ys, m.ws, uniform, np.full(4000, 1 / 4000))[0]
        assert dx <= 2 / 400
        assert dy <= 2 / 400


def test_empirical_orbit_joining():
    m = empirical_orbit_joining(IET, 0.1, 0, 5)
    assert np.allclose(m.xs, m.ys)
    m1 = empirical_orbit_joining(IET, 0.1, 3, 1)
    assert len(m1) == 1
    from iet3.iet_core import apply_pow
    assert m1.ys[0] == pytest.approx(apply_pow(IET, 3, 0.1), abs=1e-12)


def test_empirical_orbit_joining_past_int64(golden):
    # a window of 1e21 steps: the indices pass 2^63, so they stay exact
    # Python ints (through int64 they would all collapse to one atom)
    m = empirical_orbit_joining(golden, 0.3, 7, 10**21, subsample=50)
    assert len(m) == 50
    assert np.all((0 <= m.xs) & (m.xs < 1))


def test_empirical_orbit_joining_reads_the_circle(golden):
    # the window read by `RotationCounter.orbit` is one batched power solve
    # at the same indices, rescaled as `_power_on_circle` rescales, bit for bit
    x, n, L, s, seed = 0.3, 7, 10**10, 250, 5
    m = empirical_orbit_joining(golden, x, n, L, subsample=s, seed=seed)
    idx = joinings._index_strata(np.random.default_rng(seed), s, L)
    for got, e in ((m.xs, idx), (m.ys, idx + n)):
        _, image, kappa = _power_on_circle(golden, np.full(len(idx), x), e)
        assert np.array_equal(got, np.clip(image / kappa, 0.0, np.nextafter(1.0, 0.0)))


def test_empirical_orbit_joining_checks_its_start(golden):
    # a start off [0, 1) is refused as `apply` refuses it: 1.5 was read as
    # its wrapped point (first x 0.2000000000000703), -0.25 and 1.0 passed
    for x in (1.5, -0.25, 1.0, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            apply(golden, x)
        with pytest.raises(ValueError, match="outside"):
            empirical_orbit_joining(golden, x, 3, 100)
    assert len(empirical_orbit_joining(golden, 0.0, 3, 100)) == 100


@pytest.mark.parametrize("subsample", [0, -3, 2.5, True])
def test_empirical_orbit_joining_checks_its_subsample(golden, subsample):
    # 0 divided by zero in `_index_strata` and -3 asked NumPy for a negative
    # dimension; a count is refused as `grid` and `bins` are
    with pytest.raises(ValueError, match="subsample must be an integer >= 1"):
        empirical_orbit_joining(golden, 0.3, 7, 100, subsample=subsample)


@pytest.mark.parametrize("count", [0, -1, 2.5, True])
def test_sample_counts_are_checked(golden, count):
    # product_sample(0) divided by zero and product_sample(-1) asked NumPy
    # for a negative dimension; a window of 2.5 gave 3 atoms
    with pytest.raises(ValueError, match="N must be an integer >= 1"):
        product_sample(count)
    with pytest.raises(ValueError, match="L must be an integer >= 1"):
        empirical_orbit_joining(golden, 0.3, 7, count)


def test_index_strata_stays_inside_the_window():
    # a draw an ulp below 1 rounds (i + U_i) L/s up to (i + 1) L/s: on the
    # last stratum that is L itself, one past the window
    class TopDraws:
        def random(self, s):
            return np.full(s, 1 - 2.0**-53)

    idx = joinings._index_strata(TopDraws(), 64, 64000)
    assert list(idx[-3:]) == [62000, 63000, 63999]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 64),
       st.one_of(st.integers(1, 10**25), st.integers(2**53 - 64, 2**53 + 64)),
       st.integers(0, 2**32 - 1))
def test_index_strata_against_fractions(s, L, seed):
    idx = joinings._index_strata(np.random.default_rng(seed), s, L)
    got = [int(i) for i in idx]
    assert got == sorted(set(got)) and 0 <= got[0] and got[-1] < L
    if s >= L:
        assert got == list(range(L))
        return
    u = np.random.default_rng(seed).random(s)
    if L < 2**53:
        # the float64 expression, bit for bit
        drawn = np.floor((np.arange(s) + u) * (L / s)).astype(np.int64)
        assert idx.dtype == np.int64 and np.array_equal(idx, np.unique(drawn))
        drawn = [int(j) for j in drawn]
    else:
        # exact: floor((i + U_i) L / s) in Fractions
        drawn = [math.floor((i + Fraction(float(ui))) * L / s) for i, ui in enumerate(u)]
        assert got == sorted(set(drawn))
    # the i-th draw's cell [j, j + 1) meets stratum i, [i L/s, (i+1) L/s)
    assert all(j * s < (i + 1) * L and (j + 1) * s > i * L for i, j in enumerate(drawn))


# -- exact KR ---------------------------------------------------------------

def test_kr_trivial_examples():
    one = DiscreteMeasure2D(np.array([0.1]), np.array([0.2]), np.array([1.0]))
    two = DiscreteMeasure2D(np.array([0.4]), np.array([0.2]), np.array([1.0]))
    assert kr_distance(one, two) == pytest.approx(0.3, abs=1e-12)
    assert kr_distance(one, one) == 0.0
    mu = DiscreteMeasure2D(np.array([0.0, 0.9]), np.array([0.0, 0.9]),
                           np.array([0.5, 0.5]))
    nu = DiscreteMeasure2D(np.array([0.1, 0.8]), np.array([0.0, 0.9]),
                           np.array([0.5, 0.5]))
    # brute force over both matchings
    brute = min(0.5 * (0.1 + 0.1), 0.5 * ((0.8 + 0.9) + (0.9 + 0.8)))
    assert kr_distance(mu, nu) == pytest.approx(brute, abs=1e-12)


def test_kr_matching_oracle_small():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        mu = _rand_measure(rng, n, equal=True)
        nu = _rand_measure(rng, n, equal=True)
        got = kr_distance(mu, nu)
        C = (np.abs(mu.xs[:, None] - nu.xs[None, :])
             + np.abs(mu.ys[:, None] - nu.ys[None, :]))
        brute = min(np.mean([C[i, p[i]] for i in range(n)])
                    for p in itertools.permutations(range(n)))
        assert got == pytest.approx(brute, abs=1e-9)


def _transport_vertices(mu_w, nu_w):
    """All basic feasible solutions of the small transportation polytope."""
    n, m = len(mu_w), len(nu_w)
    edges = [(i, j) for i in range(n) for j in range(m)]
    for tree in itertools.combinations(edges, n + m - 1):
        A = np.zeros((n + m, len(tree)))
        for k, (i, j) in enumerate(tree):
            A[i, k] = 1
            A[n + j, k] = 1
        b = np.concatenate([mu_w, nu_w])
        sol, res, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if rank < len(tree):
            continue
        if np.max(np.abs(A @ sol - b)) > 1e-10:
            continue
        if np.min(sol) < -1e-10:
            continue
        yield tree, np.maximum(sol, 0.0)


def test_kr_vertex_enumeration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(8):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        mu = _rand_measure(rng, n)
        nu = _rand_measure(rng, m)
        C = (np.abs(mu.xs[:, None] - nu.xs[None, :])
             + np.abs(mu.ys[:, None] - nu.ys[None, :]))
        best = math.inf
        for tree, flow in _transport_vertices(mu.ws, nu.ws):
            cost = sum(C[i, j] * f for (i, j), f in zip(tree, flow))
            best = min(best, cost)
        assert kr_distance_detailed(mu, nu, method="lp")["value"] == pytest.approx(best, abs=1e-9)


def _dense_transport(D, a, b):
    """The transportation LP on all P x M arcs, by HiGHS with its defaults."""
    P, M = D.shape
    A = np.zeros((P + M, P * M))
    for i in range(P):
        A[i, i * M:(i + 1) * M] = 1
    for j in range(M):
        A[P + j, j::M] = 1
    res = linprog(D.ravel(), A_eq=A, b_eq=np.concatenate([a, b]), bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("metric", ["interval", "circle"])
def test_transport_equals_dense_lp_on_float_costs(monkeypatch, metric):
    # unequal weights and float costs: the shielded solve, its arc set grown
    # by pricing, reaches the optimum of the LP on all arcs
    solves = []
    real = joinings._Network.solve
    monkeypatch.setattr(joinings._Network, "solve", lambda net: solves.append(1) or real(net))
    rng = np.random.default_rng(12)
    rounds = []
    for _ in range(4):
        mu, nu = _rand_measure(rng, 40), _rand_measure(rng, 60)
        D = joinings._cost_matrix(mu, nu, metric)
        solves.clear()
        value, exact = joinings._transport(D, mu.ws, nu.ws)
        rounds.append(len(solves))
        assert not exact
        assert value == pytest.approx(_dense_transport(D, mu.ws, nu.ws), rel=0, abs=1e-12)
    assert max(rounds) > 1


def test_auto_takes_assignment_only_for_exactly_equal_weights():
    # weights 1/n +- 5e-9 (the first and last exactly 1/n): nearly equal,
    # but assignment would ignore them
    rng = np.random.default_rng(13)
    n = 300
    ws = np.full(n, 1 / n)
    ws[1:-1] += 5e-9 * (-1.0) ** np.arange(n - 2)
    near = DiscreteMeasure2D(rng.random(n), rng.random(n), ws)
    equal = DiscreteMeasure2D.equal_weight(rng.random(n), rng.random(n))
    for mu, nu in ((near, equal), (equal, near)):
        auto = kr_distance_detailed(mu, nu)
        lp = kr_distance_detailed(mu, nu, method="lp")
        assert auto["method"] == "lp" and auto["value"] == lp["value"]
        with pytest.raises(ValueError, match="exactly equal weights"):
            kr_distance_detailed(mu, nu, method="assignment")
    same = DiscreteMeasure2D.equal_weight(near.xs, near.ys)
    assert kr_distance_detailed(same, equal)["method"] == "assignment"


def test_auto_solves_up_to_a_million_pairs_by_lp(monkeypatch):
    # the measured limit (BENCH_grid_transport.json, auto_limit): lp up to
    # n * m = 1e6 atom pairs, the grid above; the solves themselves are stubbed
    monkeypatch.setattr(joinings, "_transport", lambda D, a, b, seed=None: (0.0, False))
    monkeypatch.setattr(joinings, "_kr_grid", lambda mu, nu, metric, G: (0.0, 0.0, "float"))
    rng = np.random.default_rng(2)
    for n, method in ((1000, "lp"), (1001, "grid128")):
        mu = _rand_measure(rng, n)
        nu = _rand_measure(rng, 1000)
        assert kr_distance_detailed(mu, nu)["method"] == method


def test_kr_metric_axioms():
    rng = np.random.default_rng(6)
    for _ in range(60):
        sizes = rng.integers(3, 40, size=3)
        a, b, c = (_rand_measure(rng, int(s)) for s in sizes)
        dab = kr_distance(a, b)
        dba = kr_distance(b, a)
        dac = kr_distance(a, c)
        dcb = kr_distance(c, b)
        assert abs(dab - dba) < 1e-9
        assert dab <= dac + dcb + 1e-9
    same = _rand_measure(rng, 10)
    assert kr_distance(same, same) < 1e-12


def _grid_bound_instance():
    rng = np.random.default_rng(7)
    return _rand_measure(rng, 400, equal=True), _rand_measure(rng, 400, equal=True)


def test_kr_grid_within_bound():
    a, b = _grid_bound_instance()
    exact = kr_distance_detailed(a, b, method="assignment")["value"]
    det = kr_distance_detailed(a, b, method="grid", grid=64)
    assert abs(det["value"] - exact) <= det["bound"] + 1e-9


# -- grid flow against the cell transportation --------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def grid_supplies(draw):
    """Cell supplies of mu - nu on a G x G grid, each measure on a few cells
    or on every cell: whole counts of one quantum (int64), or masses."""
    G = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = draw(st.booleans())
    total = draw(st.integers(1, 400))

    def cells(k):
        k = min(k, G * G)
        w = np.zeros(G * G, dtype=np.int64 if counts else float)
        p = rng.random(k) + 0.1
        w[rng.choice(G * G, size=k, replace=False)] = (rng.multinomial(total, p / p.sum())
                                                      if counts else p / p.sum())
        return w

    sizes = [G * G if draw(st.booleans()) else draw(st.integers(1, 6)) for _ in range(2)]
    return G, cells(sizes[0]) - cells(sizes[1])


def _grid_lps(supply, G, metric):
    return (joinings._cell_transport(supply, G, metric),
            joinings._grid_flow(supply, G, metric))


@PROPERTY
@given(grid_supplies(), st.sampled_from(["interval", "circle"]))
def test_cell_transport_equals_grid_flow(inst, metric):
    # on whole counts both solvers certify the same integer optimum; on
    # masses neither is certified and they agree to rounding
    G, supply = inst
    (cells, cells_exact), (oracle, oracle_exact) = _grid_lps(supply, G, metric)
    if supply.dtype.kind == "i":
        assert cells_exact and oracle_exact
        assert type(cells) is type(oracle) is int and cells == oracle
    else:
        assert not cells_exact and not oracle_exact
        assert cells == pytest.approx(oracle, rel=1e-12, abs=1e-15)


@PROPERTY
@given(st.integers(2, 24), st.data(), st.sampled_from(["interval", "circle"]))
def test_grid_single_atom_move_closed_form(G, data, metric):
    i, j, i2, j2 = (data.draw(st.integers(0, G - 1)) for _ in range(4))
    supply = np.zeros(G * G, dtype=np.int64)
    supply[i * G + j] += 1
    supply[i2 * G + j2] -= 1

    def steps(d):
        return min(d, G - d) if metric == "circle" else d

    expected = steps(abs(i - i2)) + steps(abs(j - j2))
    assert _grid_lps(supply, G, metric) == ((expected, True),) * 2


def test_grid_wraps_on_the_circle_only():
    # one atom from the first to the last cell: across the wrap on the circle
    G = 16
    mu = DiscreteMeasure2D(np.array([0.5 / G]), np.array([0.5]), np.array([1.0]))
    nu = DiscreteMeasure2D(np.array([1 - 0.5 / G]), np.array([0.5]), np.array([1.0]))
    circle = kr_distance_detailed(mu, nu, metric="circle", method="grid", grid=G)
    interval = kr_distance_detailed(mu, nu, metric="interval", method="grid", grid=G)
    assert circle["value"] == 1 / G
    assert interval["value"] == (G - 1) / G
    assert circle["method"] == interval["method"] == f"grid{G}"
    assert circle["value_kind"] == interval["value_kind"] == "rational"


def test_grid_equal_measures_cost_zero():
    rng = np.random.default_rng(11)
    for m in (_rand_measure(rng, 300), _rand_measure(rng, 300, equal=True)):
        supply, _, q = joinings._grid_supply(m, m, 24)
        assert not supply.any()
        exact = q is not None
        assert _grid_lps(supply, 24, "interval") == ((0, exact),) * 2
        det = kr_distance_detailed(m, m, method="grid", grid=24)
        assert det["value"] == 0.0
        assert det["value_kind"] == ("rational" if exact else "float")


def test_grid_value_is_a_pinned_exact_rational():
    # g1 against mix(g0, g1): weights 1/4000 and half of it, so the supplies
    # are whole counts of q = fl(1/4000) / 2 and the value is the certified
    # integer optimum in steps, times q / G, rounded once
    g0, g1 = (sample_power_joining(IET, e, 4000, seed=e) for e in (0, 1))
    nu = mix(g0, g1)
    supply, _, q = joinings._grid_supply(g1, nu, 48)
    assert supply.dtype == np.int64 and q == g1.ws[0] / 2
    assert int(supply[supply > 0].sum()) == 4000
    for metric, steps, value in (("interval", 96003, 0.2500078125),
                                 ("circle", 72999, 0.19010156250000002)):
        det = kr_distance_detailed(g1, nu, metric=metric, method="grid", grid=48)
        assert det["value_kind"] == "rational"
        assert joinings._cell_transport(supply, 48, metric) == (steps, True)
        assert joinings._grid_flow(supply, 48, metric) == (steps, True)
        assert det["value"] == float(Fraction(steps) * Fraction(q) / 48) == value


def test_grid_without_common_quantum_is_float():
    # weights with no common quantum: the supplies stay masses, the value is
    # HiGHS's float optimum, marked float, and agrees with the oracle
    rng = np.random.default_rng(5)
    mu, nu = _rand_measure(rng, 500), _rand_measure(rng, 700)
    for G, metric in ((16, "interval"), (32, "circle")):
        supply, _, q = joinings._grid_supply(mu, nu, G)
        assert q is None and supply.dtype == float
        det = kr_distance_detailed(mu, nu, metric=metric, method="grid", grid=G)
        assert det["value_kind"] == "float"
        oracle, exact = joinings._grid_flow(supply, G, metric)
        assert not exact
        assert det["value"] == pytest.approx(oracle / G, rel=1e-12, abs=1e-15)
    # three atoms of fl(1/3) against one of 1: 3 fl(1/3) rounds to 1 but is not 1
    xs = np.array([0.1, 0.4, 0.7])
    thirds = DiscreteMeasure2D(xs, xs, np.full(3, 1 / 3))
    one = DiscreteMeasure2D(np.array([0.5]), np.array([0.5]), np.array([1.0]))
    assert 3 * (1 / 3) == 1.0 and joinings._quantum(thirds, one) is None
    # whole multiples of q = 2^-40, but one quantum short on one side
    q = 2.0 ** -40
    xs = np.array([0.1, 0.6])
    mu = DiscreteMeasure2D(xs, xs, np.array([q, 1 - 2 * q]))
    nu = DiscreteMeasure2D(np.array([0.3]), np.array([0.3]), np.array([1.0]))
    assert joinings._grid_supply(mu, nu, 8)[2] is None
    det = kr_distance_detailed(mu, nu, method="grid", grid=8)
    assert det["value_kind"] == "float"
    assert det["value"] == pytest.approx(0.5, rel=1e-9)


def test_grid_failed_certificate_falls_back_to_masses(monkeypatch):
    # a certificate that never holds: the counts are solved again as masses
    g0, g1 = (sample_power_joining(IET, e, 4000, seed=e) for e in (0, 1))
    exact = kr_distance_detailed(g1, mix(g0, g1), method="grid", grid=48)
    monkeypatch.setattr(joinings, "_settle", lambda *a: (a[-1], False))
    det = kr_distance_detailed(g1, mix(g0, g1), method="grid", grid=48)
    assert exact["value_kind"] == "rational" and det["value_kind"] == "float"
    assert det["value"] == pytest.approx(exact["value"], rel=1e-12)


def test_settle_rejects_a_wrong_plan_or_potentials():
    # a path 0 -> 1 -> 2 of unit arcs and a direct arc 0 -> 2 of cost 3
    tail, head = np.array([0, 1, 0]), np.array([1, 2, 2])
    cost = np.array([1, 1, 3])
    supply = np.array([2, 0, -2])
    good_flow, good_pot = np.array([2.0, 2.0, 0.0]), np.array([2.0, 1.0, 0.0])
    direct = np.array([0.0, 0.0, 2.0])

    def settle(flow, pot, fun, supply=supply):
        return joinings._settle(tail, head, cost, flow, pot, supply, fun)

    assert settle(good_flow, good_pot + 0.25, 4.0) == (4, True)
    # the costlier arc used: not complementary
    assert settle(direct, good_pot, 6.0) == (6.0, False)
    # unbalanced plan
    assert settle(np.array([2.0, 1.0, 0.0]), good_pot, 3.0) == (3.0, False)
    # complementary to the costlier plan, but pricing the unused 0 -> 1 negative
    assert settle(direct, np.array([3.0, 1.0, 0.0]), 6.0) == (6.0, False)
    # masses are never certified
    assert settle(good_flow, good_pot, 4.0, supply.astype(float)) == (4.0, False)


def _branch_spy(monkeypatch):
    taken = []
    for name in ("_cell_transport", "_grid_flow"):
        real = getattr(joinings, name)
        monkeypatch.setattr(joinings, name,
                            lambda *a, _r=real, _n=name: taken.append(_n) or _r(*a))
    return taken


def test_grid_branch_selection(monkeypatch):
    taken = _branch_spy(monkeypatch)
    # random atoms fill most cells: P * M > 32 G^2, so the grid flow runs
    a, b = _grid_bound_instance()
    kr_distance_detailed(a, b, method="grid", grid=32)
    assert taken == ["_grid_flow"]
    # graph joinings occupy few cells: the cell transportation runs, and
    # certifies the grid-flow oracle's optimum
    taken.clear()
    g0, g1 = (sample_power_joining(IET, e, 4000, seed=e) for e in (0, 1))
    for metric in ("interval", "circle"):
        det = kr_distance_detailed(g1, mix(g0, g1), metric=metric, method="grid", grid=48)
        supply, _, q = joinings._grid_supply(g1, mix(g0, g1), 48)
        steps, exact = joinings._grid_flow(supply, 48, metric)
        assert exact and det["value"] == float(Fraction(steps) * Fraction(q) / 48)
    assert taken == ["_cell_transport", "_grid_flow"] * 2
    # the rule at its edge, P * M = 32 G^2 against one more excess cell
    G, M = 16, 128
    for P, branch in ((64, "_cell_transport"), (65, "_grid_flow")):
        taken.clear()
        xs = (np.arange(P + M) % G + 0.5) / G
        ys = (np.arange(P + M) // G + 0.5) / G
        mu = DiscreteMeasure2D(xs[:P], ys[:P], np.full(P, 1 / P))
        nu = DiscreteMeasure2D(xs[P:], ys[P:], np.full(M, 1 / M))
        kr_distance_detailed(mu, nu, method="grid", grid=G)
        assert taken == [branch]


# -- the seeded assignment --------------------------------------------------

def _plain_assignment(mu, nu, metric):
    """The unseeded assignment: `linear_sum_assignment` on the full cost
    matrix, the mean of the costs it chooses."""
    C = joinings._cost_matrix(mu, nu, metric)
    r, c = linear_sum_assignment(C)
    return float(C[r, c].mean())


@st.composite
def assignment_pairs(draw):
    """Two measures of n equal-weight atoms, on coordinates k/64 (dyadic) or
    on floats: free, on three values (tied costs), drawn from one shared pool
    (coincident atoms), or all in one cell of the seed grid."""
    n = draw(st.integers(1, 40))
    dyadic = draw(st.booleans())
    layout = draw(st.sampled_from(["free", "ties", "coincident", "one cell"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = joinings._SEED_GRID
    cell = rng.integers(0, G, size=2)

    def coords(size, axis):
        if layout == "ties":
            return rng.choice(rng.integers(0, 64, 3) / 64 if dyadic else rng.random(3), size)
        if layout == "one cell":
            return (cell[axis] * 64 // G + rng.integers(0, 64 // G, size)) / 64 if dyadic \
                else (cell[axis] + 0.999 * rng.random(size)) / G
        return rng.integers(0, 64, size) / 64 if dyadic else rng.random(size)

    if layout == "coincident":
        pool = [coords(max(1, n // 2), axis) for axis in (0, 1)]
        pairs = [rng.integers(0, len(pool[0]), n) for _ in range(2)]
        mu, nu = (DiscreteMeasure2D.equal_weight(pool[0][k], pool[1][k]) for k in pairs)
    else:
        mu, nu = (DiscreteMeasure2D.equal_weight(coords(n, 0), coords(n, 1)) for _ in range(2))
    return mu, nu, dyadic


@PROPERTY
@given(assignment_pairs(), st.sampled_from(["interval", "circle"]))
def test_seeded_assignment_against_the_plain_solve(pair, metric):
    # the seed threshold lowered to one atom: the interval metric takes the
    # seeded route (one seed LP) and the circle the plain one.  Dyadic inputs
    # are exact throughout, so the values agree bit for bit; on floats they
    # agree within _kr_assignment's bound, 12 U, plus each mean's own
    # summation rounding, at most (n + 1) U times the value
    mu, nu, dyadic = pair
    n, lps = len(mu), []
    with pytest.MonkeyPatch.context() as mp:
        real = joinings._flow_lp
        mp.setattr(joinings, "_flow_lp", lambda *a: lps.append(1) or real(*a))
        mp.setattr(joinings, "_SEED_ATOMS", 1)
        seeded = kr_distance_detailed(mu, nu, metric=metric, method="assignment")["value"]
    plain = _plain_assignment(mu, nu, metric)
    assert len(lps) == (metric == "interval")
    if dyadic:
        assert seeded == plain
    else:
        U = 2.0 ** -53
        assert abs(seeded - plain) <= 12 * U + (n + 1) * U * (seeded + plain)


def test_assignment_seed_work_guard(monkeypatch):
    # n = 2000 equal weights: one seed LP, then one assignment solve; n = 300,
    # under the seed threshold: the assignment solve alone
    lps, solves = [], []
    real_lp, real_lsa = joinings._flow_lp, joinings.optimize.linear_sum_assignment
    monkeypatch.setattr(joinings, "_flow_lp", lambda *a: lps.append(1) or real_lp(*a))
    monkeypatch.setattr(joinings.optimize, "linear_sum_assignment",
                        lambda C: solves.append(len(lps)) or real_lsa(C))
    rng = np.random.default_rng(16)
    for n, seed_lps in ((2000, 1), (300, 0)):
        lps.clear()
        solves.clear()
        mu, nu = (_rand_measure(rng, n, equal=True) for _ in range(2))
        assert kr_distance_detailed(mu, nu)["method"] == "assignment"
        assert solves == [seed_lps] and len(lps) == seed_lps


def test_assignment_needs_equal_atom_counts():
    rng = np.random.default_rng(17)
    mu, nu = _rand_measure(rng, 3, equal=True), _rand_measure(rng, 5, equal=True)
    with pytest.raises(ValueError, match="3 and 5"):
        kr_distance_detailed(mu, nu, method="assignment")
    assert kr_distance_detailed(mu, nu)["method"] == "lp"


def test_assignment_needs_exactly_equal_weights():
    # matching atoms one to one, assignment read 0.0 with bound 0.0 here,
    # where moving 0.4 of mass by a taxicab distance of 1 costs 0.4
    xs = np.array([0.1, 0.6])
    mu = DiscreteMeasure2D(xs, xs, np.array([0.9, 0.1]))
    nu = DiscreteMeasure2D(xs, xs, np.array([0.5, 0.5]))
    assert kr_distance_detailed(mu, nu, method="lp")["value"] == pytest.approx(0.4)
    with pytest.raises(ValueError, match="exactly equal weights"):
        kr_distance_detailed(mu, nu, method="assignment")


# -- the seeded lp ----------------------------------------------------------

@st.composite
def lp_pairs(draw):
    """Two measures of 1-30 atoms: equal counts with equal weights, or a
    mixture of two equal-weight sets (unequal weights) against an
    equal-weight sample of another count; the atoms free, on three values a
    coordinate (tied costs), drawn from one shared pool (coincident atoms),
    or all in one cell of the seed grid."""
    n = draw(st.integers(1, 30))
    equal = draw(st.booleans())
    m = n if equal else draw(st.integers(1, 30))
    split = n if equal or n == 1 else draw(st.integers(1, n - 1))
    layout = draw(st.sampled_from(["free", "ties", "coincident", "one cell"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = joinings._SEED_GRID
    cell = rng.integers(0, G, size=2)
    values = rng.random((2, 3))
    pool = rng.random((2, max(1, (n + m) // 4)))

    def sample(size):
        if layout == "ties":
            xs, ys = (rng.choice(v, size) for v in values)
        elif layout == "coincident":
            xs, ys = pool[:, rng.integers(0, pool.shape[1], size)]
        elif layout == "one cell":
            xs, ys = (cell[:, None] + 0.999 * rng.random((2, size))) / G
        else:
            xs, ys = rng.random((2, size))
        return DiscreteMeasure2D.equal_weight(xs, ys)

    mu = sample(n) if split == n else mix(sample(split), sample(n - split))
    return mu, sample(m)


@PROPERTY
@given(lp_pairs(), st.sampled_from(["interval", "circle"]))
def test_seeded_lp_against_the_unseeded_transport(pair, metric):
    # the seed threshold lowered to one pair: every instance solves one grid
    # seed LP first, and its value is the unseeded solve's within the
    # shielding tolerance; on equal weights and counts it is also the
    # assignment oracle's
    mu, nu = pair
    labels = []
    with pytest.MonkeyPatch.context() as mp:
        real = joinings._flow_lp
        mp.setattr(joinings, "_flow_lp", lambda *a: labels.append(a[-1]) or real(*a))
        mp.setattr(joinings, "_LP_SEED_PAIRS", 1)
        seeded = kr_distance_detailed(mu, nu, metric=metric, method="lp")["value"]
    assert labels[0] == "grid seed" and labels.count("grid seed") == 1
    unseeded, _ = joinings._transport(joinings._cost_matrix(mu, nu, metric), mu.ws, nu.ws)
    assert abs(seeded - unseeded) <= 1e-9
    if len(mu) == len(nu) and np.all(mu.ws == mu.ws[0]) and np.all(nu.ws == mu.ws[0]):
        assert abs(seeded - _plain_assignment(mu, nu, metric)) <= 1e-9


@pytest.mark.parametrize("integer", [True, False])
def test_transport_seed_changes_only_the_start(monkeypatch, integer):
    # a seed of each row's costliest arc, far from any optimal plan: pricing
    # still reaches the unseeded optimum (in more than one round on some
    # instance), and integer problems still settle with the certificate
    solves = []
    real = joinings._Network.solve
    monkeypatch.setattr(joinings._Network, "solve", lambda net: solves.append(1) or real(net))
    rng = np.random.default_rng(22)
    rounds = []
    for _ in range(4):
        mu, nu = _rand_measure(rng, 40), _rand_measure(rng, 60)
        D = joinings._cost_matrix(mu, nu, "interval")
        a, b = mu.ws, nu.ws
        if integer:       # costs in steps of 1/64, supplies in whole atoms
            D = np.rint(64 * D).astype(np.int64)
            a, b = (rng.multinomial(600 - k, np.ones(k) / k) + 1 for k in (40, 60))
        solves.clear()
        seeded = joinings._transport(D, a, b, D == D.max(axis=1, keepdims=True))
        rounds.append(len(solves))
        unseeded = joinings._transport(D, a, b)
        if integer:
            assert seeded == unseeded and seeded[1]
        else:
            assert abs(seeded[0] - unseeded[0]) <= 1e-9
    assert max(rounds) > 1


def test_lp_seed_work_guard(monkeypatch):
    # 300 x 300 atoms, uniform against a graph joining (kr-certify's lp
    # size): one grid seed LP, then at most the measured number of transport
    # LPs; under the seed threshold no seed LP
    labels = []
    real = joinings._Network.solve
    monkeypatch.setattr(joinings._Network, "solve",
                        lambda net: labels.append(net.what) or real(net))
    below = math.isqrt(joinings._LP_SEED_PAIRS - 1)
    for n, seed_lps, transport_pin in ((300, 1, 1), (below, 0, None)):
        labels.clear()
        rng = np.random.default_rng(18)
        mu = DiscreteMeasure2D.equal_weight(rng.random(n), rng.random(n))
        nu = sample_power_joining(documented_switch_iet(), 8, n, seed=19)
        assert kr_distance_detailed(mu, nu, method="lp")["method"] == "lp"
        assert labels.count("grid seed") == seed_lps
        if transport_pin is not None:
            assert labels.count("transport") <= transport_pin


# -- the network model ------------------------------------------------------

@st.composite
def networks(draw):
    """A min-cost flow instance on 2-12 nodes: a path both ways (so every
    balanced supply is feasible) and random arcs in either direction, with
    integer, float or two-valued (tied) costs and integer or float supplies
    balanced to 0, node 0's supply being 0."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    path = np.arange(n - 1)
    extra = rng.integers(0, n, size=(2, int(rng.integers(0, 3 * n))))
    extra = extra[:, extra[0] != extra[1]]
    tail = np.concatenate([path, path + 1, extra[0]])
    head = np.concatenate([path + 1, path, extra[1]])
    kind = draw(st.sampled_from(["integer", "float", "tied"]))
    if kind == "integer":
        cost = rng.integers(0, 6, len(tail)).astype(float)
    elif kind == "float":
        cost = rng.random(len(tail))
    else:
        cost = rng.choice(rng.random(2), len(tail))
    if draw(st.booleans()):
        supply = rng.integers(-5, 6, n).astype(float)
    else:
        supply = rng.random(n) - rng.random(n)
    supply[0] = 0.0
    supply[-1] -= supply.sum()
    return tail, head, cost, supply


@PROPERTY
@given(networks())
def test_flow_lp_is_linprog_bit_for_bit(net):
    # `linprog` is the oracle of the direct HiGHS model: a one-shot solve
    # returns its flow, equality duals and optimum bit for bit (a SciPy
    # release that changes the binding shows here)
    tail, head, cost, supply = net
    E = len(tail)
    A = sparse.csc_matrix((np.tile([1.0, -1.0], E),
                           (np.stack([tail, head], axis=1).ravel(), np.repeat(np.arange(E), 2))),
                          shape=(len(supply), E))
    res = linprog(cost, A_eq=A, b_eq=supply, bounds=(0, None), method="highs",
                  options={"presolve": False})
    assert res.status == 0
    x, pot, fun = joinings._flow_lp(tail, head, cost, supply, "network")
    assert np.array_equal(x, res.x) and np.array_equal(pot, res.eqlin.marginals)
    assert fun == res.fun


@pytest.mark.parametrize("integer", [True, False])
def test_warm_transport_equals_a_fresh_solve_of_its_arcs(monkeypatch, integer):
    # one nearest partner and a seed of each row's costliest arc make the
    # pricing loop run several rounds on one model, each re-optimised from
    # the last basis; a fresh model solved once on the final arc set reaches
    # the same optimum (equal, the warm one certified, on integers; within
    # the shielding tolerance on floats), and each `_transport` builds
    # exactly one model
    models, added, solves = [], [], []
    real_init, real_add, real_solve = (joinings._Network.__init__, joinings._Network.add,
                                       joinings._Network.solve)
    monkeypatch.setattr(joinings._Network, "__init__",
                        lambda net, *a: models.append(1) or real_init(net, *a))
    monkeypatch.setattr(joinings._Network, "add",
                        lambda net, *arcs: added.append(arcs) or real_add(net, *arcs))
    monkeypatch.setattr(joinings._Network, "solve",
                        lambda net: solves.append(1) or real_solve(net))
    monkeypatch.setattr(joinings, "_NEAR_PARTNERS", 1)
    rng = np.random.default_rng(23)
    rounds = []
    for _ in range(4):
        mu, nu = _rand_measure(rng, 30), _rand_measure(rng, 50)
        D = joinings._cost_matrix(mu, nu, "interval")
        a, b = mu.ws, nu.ws
        if integer:       # costs in steps of 1/64, supplies in whole atoms
            D = np.rint(64 * D).astype(np.int64)
            a, b = (rng.multinomial(400 - k, np.ones(k) / k) + 1 for k in (30, 50))
        models.clear(), added.clear(), solves.clear()
        warm = joinings._transport(D, a, b, D == D.max(axis=1, keepdims=True))
        assert len(models) == 1
        rounds.append(len(solves))
        tail, head, cost = (np.concatenate(c) for c in zip(*added))
        _, _, fresh = joinings._flow_lp(tail, head, cost, np.concatenate([a, -b]), "fresh")
        if integer:
            assert warm == (fresh, True)
        else:
            assert abs(warm[0] - fresh) <= 1e-9
    assert min(rounds) > 1, rounds


def test_network_failure_releases_the_model(monkeypatch):
    # unbalanced supplies: no feasible flow; the error names the network and
    # HiGHS's model status, and the heap is trimmed after the model is dropped
    net = joinings._Network(np.array([2.0, 0.0, -1.0]), "unbalanced")
    trims = []
    monkeypatch.setattr(joinings, "_malloc_trim", lambda pad: trims.append(net._highs is None))
    with pytest.raises(RuntimeError, match="unbalanced failed: model status is Infeasible"):
        with net:
            net.add(np.array([0, 1]), np.array([1, 2]), np.array([1.0, 1.0]))
            net.solve()
    assert trims == [True]
    with pytest.raises(RuntimeError, match="grid flow failed"):
        joinings._flow_lp(np.array([0]), np.array([1]), np.array([1.0]), np.array([1.0, 0.0]),
                          "grid flow")
    assert trims == [True, True]


@pytest.mark.parametrize("kwargs, name", [
    ({"metric": "foo"}, "metric"), ({"metric": "Circle"}, "metric"),
    ({"grid": 0}, "grid"), ({"grid": -3}, "grid"), ({"grid": 2.5}, "grid"),
    ({"grid": 0, "method": "grid"}, "grid"), ({"metric": "foo", "method": "lp"}, "metric"),
])
def test_kr_rejects_bad_arguments(kwargs, name):
    rng = np.random.default_rng(20)
    mu, nu = _rand_measure(rng, 5), _rand_measure(rng, 5)
    with pytest.raises(ValueError, match=name):
        kr_distance_detailed(mu, nu, **kwargs)


@pytest.mark.parametrize("bins", [0, -1, 2.5, True])
def test_kr_upper_binned_rejects_bad_bins(bins):
    rng = np.random.default_rng(21)
    mu, nu = _rand_measure(rng, 5), _rand_measure(rng, 5)
    with pytest.raises(ValueError, match="bins"):
        kr_upper_binned(mu, nu, bins=bins)
    assert kr_upper_binned(mu, nu, bins=np.int64(1)) >= kr_distance(mu, nu) - 1e-9


def test_kr_bounds_bracket():
    rng = np.random.default_rng(8)
    a = _rand_measure(rng, 120, equal=True)
    b = _rand_measure(rng, 120, equal=True)
    exact = kr_distance(a, b)
    assert kr_lower_witness(a, b) <= exact + 1e-9
    assert exact <= kr_upper_binned(a, b, bins=64) + 1e-9


# -- certified bounds: oracles ----------------------------------------------

def _loop_transport(xm, ym, wm, xn, yn, wn, common):
    """Per-atom pairing loop: the cost of the x-quantile-order coupling of
    the first `common` mass of two weighted atom sets (taxicab cost on both
    coordinates)."""
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


def _loop_binned_coupling(mu, nu, bins, normalize=True):
    """Per-bin loop oracle of the binned coupling.  With normalize=False the
    bins' larger fiber is truncated to its lowest common mass instead of
    being scaled to it, while the leftover is still taken in proportion;
    that is not a coupling of mu and nu."""
    bx_mu = np.minimum((mu.xs * bins).astype(np.int64), bins - 1)
    bx_nu = np.minimum((nu.xs * bins).astype(np.int64), bins - 1)
    total = 0.0
    excess_mu, excess_nu = [], []
    for b in range(bins):
        mi = np.nonzero(bx_mu == b)[0]
        ni = np.nonzero(bx_nu == b)[0]
        wm = mu.ws[mi].sum() if len(mi) else 0.0
        wn = nu.ws[ni].sum() if len(ni) else 0.0
        mcommon = min(wm, wn)
        if mcommon > 0:
            sm, sn = (mcommon / wm, mcommon / wn) if normalize else (1.0, 1.0)
            total += _loop_transport(mu.ys[mi], np.zeros(len(mi)), mu.ws[mi] * sm,
                                     nu.ys[ni], np.zeros(len(ni)), nu.ws[ni] * sn, mcommon)
            total += mcommon / bins
        if wm > wn:
            excess_mu.append((b, wm - wn))
        elif wn > wm:
            excess_nu.append((b, wn - wm))
    if excess_mu and excess_nu:
        def gather(side_excess, m, bx):
            xs, ys, ws = [], [], []
            for b, wex in side_excess:
                sel = bx == b
                wbin = m.ws[sel]
                xs.append(m.xs[sel]); ys.append(m.ys[sel]); ws.append(wbin * (wex / wbin.sum()))
            return np.concatenate(xs), np.concatenate(ys), np.concatenate(ws)
        xm, ym, wm = gather(excess_mu, mu, bx_mu)
        xn, yn, wn = gather(excess_nu, nu, bx_nu)
        total += _loop_transport(xm, ym, wm, xn, yn, wn, min(wm.sum(), wn.sum()))
    return total


def _exact_quantile(a, b, cost):
    """Exact quantile coupling of two equal-mass lists of (Fraction weight,
    point, ...), each in coupling order."""
    total, i, j = Fraction(0), 0, 0
    ra, rb = a[0][0], b[0][0]
    while i < len(a) and j < len(b):
        step = min(ra, rb)
        total += step * cost(a[i][1], b[j][1])
        ra, rb = ra - step, rb - step
        if ra == 0:
            i += 1
            ra = a[i][0] if i < len(a) else 0
        if rb == 0:
            j += 1
            rb = b[j][0] if j < len(b) else 0
    assert i == len(a) and j == len(b)
    return total


def _exact_binned_coupling(mu, nu, bins):
    """The binned coupling's cost in exact rational arithmetic on the
    measures' binary64 atoms (the weights must sum to the same rational)."""
    F = Fraction
    atoms = []
    for m in (mu, nu):
        bx = np.minimum((m.xs * bins).astype(np.int64), bins - 1)
        atoms.append([(int(b), F(x), F(y), F(w), i)
                      for i, (b, x, y, w) in enumerate(zip(bx, m.xs, m.ys, m.ws))])
    mass = [[sum((a[3] for a in side if a[0] == b), F(0)) for b in range(bins)] for side in atoms]
    total, left = F(0), ([], [])
    for b in range(bins):
        c = min(mass[0][b], mass[1][b])
        fibers = [sorted((a for a in side if a[0] == b), key=lambda a: a[2]) for side in atoms]
        if c > 0:
            a, bb = ([(w * c / mass[k][b], y) for _, _, y, w, _ in fibers[k]] for k in (0, 1))
            total += _exact_quantile(a, bb, lambda y, z: abs(y - z)) + c / bins
        for k in (0, 1):
            share = (mass[k][b] - c) / mass[k][b] if mass[k][b] else 0
            if share:
                left[k].extend((w * share, (x, y), i) for _, x, y, w, i in fibers[k])
    if left[0]:
        # x-order, ties in the atoms' order
        a, bb = (sorted(side, key=lambda t: (t[1][0], t[2])) for side in left)
        total += _exact_quantile(a, bb, lambda p, q: abs(p[0] - q[0]) + abs(p[1] - q[1]))
    return total


def _tree_distances(mu, nu):
    """The p=1 k-d tree query the sweep replaced: the lower bound's oracle."""
    d, _ = cKDTree(np.column_stack([nu.xs, nu.ys])).query(np.column_stack([mu.xs, mu.ys]), p=1)
    return d


# inputs on a dyadic grid, so that every distance and every cumulative weight
# below is exact in binary64: free points, or points on one slope +1 or -1
# line (exact distance ties); weights k / 2^j of unequal sizes
@st.composite
def dyadic_measures(draw, sizes=st.integers(1, 8), weighted=True):
    grid = 2 ** draw(st.integers(2, 5))
    k = draw(sizes)
    cells = st.integers(0, grid - 1)
    xs = np.array(draw(st.lists(cells, min_size=k, max_size=k)))
    line = draw(st.sampled_from(["free", "slope+1", "slope-1"]))
    if line == "free":
        ys = np.array(draw(st.lists(cells, min_size=k, max_size=k)))
    else:
        c = draw(cells)
        ys = (xs + c) % grid if line == "slope+1" else (c - xs) % grid
    if weighted:
        ks = np.array(draw(st.lists(st.integers(1, 8), min_size=k, max_size=k)))
        ks[-1] += 2 ** int(ks.sum() - 1).bit_length() - ks.sum()
        ws = ks / ks.sum()
    else:
        ws = np.full(k, 1.0 / k)
    return DiscreteMeasure2D(xs / grid, ys / grid, ws)


@st.composite
def bound_pairs(draw):
    """Two weighted measures, or N atoms of weight 1/N against 2N of weight
    1/(2N) at other x (weak_closure_check's shape, with bin imbalance)."""
    if draw(st.booleans()):
        return draw(dyadic_measures()), draw(dyadic_measures())
    n = 2 ** draw(st.integers(0, 3))
    sizes = st.sampled_from([n])
    a = draw(dyadic_measures(sizes, weighted=False))
    halves = [draw(dyadic_measures(sizes, weighted=False)) for _ in range(2)]
    return a, mix(*halves)


@PROPERTY
@given(st.data(), st.sampled_from(["lp", "assignment"]))
def test_kr_metric_axioms_property(data, method):
    if method == "lp":
        a, b, c = (data.draw(dyadic_measures()) for _ in range(3))
    else:
        sizes = st.sampled_from([data.draw(st.integers(1, 8))])
        a, b, c = (data.draw(dyadic_measures(sizes, weighted=False)) for _ in range(3))
    d = lambda m, n: kr_distance_detailed(m, n, method=method)["value"]  # noqa: E731
    assert abs(d(a, b) - d(b, a)) <= 1e-9
    assert d(a, b) <= d(a, c) + d(c, b) + 1e-9
    assert d(a, a) <= 1e-12


# -- certified bounds: the binned coupling ----------------------------------

@PROPERTY
@given(bound_pairs(), st.sampled_from([1, 7, 64]))
def test_kr_bounds_sandwich(pair, bins):
    a, b = pair
    exact = kr_distance_detailed(a, b, method="lp")["value"]
    assert kr_lower_witness(a, b) <= exact + 1e-9
    assert exact <= kr_upper_binned(a, b, bins) + 1e-9


@PROPERTY
@given(bound_pairs(), st.sampled_from([1, 2, 7, 64]))
def test_binned_coupling_exact_and_loop_oracles(pair, bins):
    a, b = pair
    value, allowance = joinings._binned_coupling(a, b, bins)
    exact = _exact_binned_coupling(a, b, bins)
    upper = kr_upper_binned(a, b, bins)
    assert Fraction(upper) >= exact
    assert Fraction(upper) - exact <= 2 * Fraction(allowance)
    assert abs(value - _loop_binned_coupling(a, b, bins)) <= allowance


def test_binned_coupling_matches_loop_on_graph_joinings():
    rng = np.random.default_rng(11)
    shared = sample_power_joining(IET, 0, 3000, seed=4)
    for bins in (16, 128, 1024):
        # shared base points (no bin imbalance), then independent ones
        for a, b in ((sample_power_joining(IET, 3, 3000, seed=4), mix(shared, shared)),
                     (sample_power_joining(IET, 5, 3000, seed=5), _rand_measure(rng, 2000))):
            value, allowance = joinings._binned_coupling(a, b, bins)
            assert 0 < allowance < 1e-9
            assert abs(value - _loop_binned_coupling(a, b, bins)) <= allowance
    # with equal bin masses the truncated and the normalized matchings agree
    a, b = sample_power_joining(IET, 2, 3000, seed=6), sample_power_joining(IET, 7, 3000, seed=6)
    value, allowance = joinings._binned_coupling(a, b, 128)
    assert abs(value - _loop_binned_coupling(a, b, 128, normalize=False)) <= allowance


def test_binned_upper_covers_the_exact_distance_under_imbalance():
    # the truncated matching with proportional leftovers gave 1.08984375 here,
    # below the exact distance 1.109375
    mu = DiscreteMeasure2D(np.array([5, 3]) / 8, np.array([2, 1]) / 8, np.array([1, 7]) / 8)
    nu = DiscreteMeasure2D(np.array([7, 7]) / 8, np.array([1, 7]) / 8, np.array([1, 7]) / 8)
    exact = kr_distance_detailed(mu, nu, method="lp")["value"]
    assert exact == pytest.approx(1.109375, abs=1e-12)
    assert _loop_binned_coupling(mu, nu, 2, normalize=False) < exact - 0.01
    assert _exact_binned_coupling(mu, nu, 2) >= Fraction(exact)
    assert kr_upper_binned(mu, nu, bins=2) >= exact


# -- certified bounds: the quadrant sweep -----------------------------------

@PROPERTY
@given(dyadic_measures(st.integers(1, 40)), dyadic_measures(st.integers(1, 40)),
       st.sampled_from([1, 2, 3, joinings._LEAF_CHUNK]))
def test_nearest_taxicab_equals_brute_force_with_ties(q, s, chunk):
    # up to 10 leaves, compared 1-3 at a time or all at once
    brute = (np.abs(q.xs[:, None] - s.xs[None, :])
             + np.abs(q.ys[:, None] - s.ys[None, :])).min(axis=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(joinings, "_LEAF_CHUNK", chunk)
        assert np.array_equal(joinings._nearest_taxicab(q.xs, q.ys, s.xs, s.ys), brute)


# tracemalloc peak of `_nearest_taxicab` on 50,000 queries against 50,000
# support points, in bytes per point: the quadrant sweeps keep positions
# and ranks in int32 and the leaf pass compares `_LEAF_CHUNK` leaves at a
# time.  Before this pin it took 353 B a point; later changes may lower it
# but never raise it
NEAREST_PEAK_BYTES_PER_POINT = 150


def test_nearest_taxicab_memory_guard(traced_peak):
    rng = np.random.default_rng(2024)
    qx, qy, sx, sy = rng.random((4, 50000))
    peak, got = traced_peak(lambda: joinings._nearest_taxicab(qx, qy, sx, sy))
    assert peak <= NEAREST_PEAK_BYTES_PER_POINT * 100000
    # the queries are answered: spot checks against brute force, within the
    # rounding of the quadrant keys (`kr_lower_witness`)
    pick = slice(None, None, 997)
    brute = (np.abs(qx[pick, None] - sx) + np.abs(qy[pick, None] - sy)).min(axis=1)
    assert np.max(np.abs(got[pick] - brute)) <= 2.0 ** -51


def test_lower_witness_moves_down_from_the_tree_query():
    rng = np.random.default_rng(12)
    graph = mix(*(sample_power_joining(IET, e, 4000, seed=e) for e in (0, 1)))
    for mu, nu in ((product_sample(3000, seed=1), graph),
                   (sample_power_joining(IET, 2, 3000, seed=2), graph),
                   (_rand_measure(rng, 500), _rand_measure(rng, 700))):
        d = joinings._nearest_taxicab(mu.xs, mu.ys, nu.xs, nu.ys)
        assert np.max(np.abs(d - _tree_distances(mu, nu))) <= 2.0 ** -51
        tree = float(np.sum(mu.ws * np.minimum(_tree_distances(mu, nu), 0.25)))
        lower = kr_lower_witness(mu, nu)
        assert tree - 2.0 ** -49 <= lower <= tree


def test_kr_circle_metric():
    one = DiscreteMeasure2D(np.array([0.05]), np.array([0.5]), np.array([1.0]))
    two = DiscreteMeasure2D(np.array([0.95]), np.array([0.5]), np.array([1.0]))
    for metric, value in (("circle", 0.1), ("interval", 0.9)):
        assert (kr_distance_detailed(one, two, metric=metric)["value"]
                == pytest.approx(value, abs=1e-12))


@pytest.mark.parametrize("metric", ["interval", "circle"])
def test_cost_matrix_equals_broadcast_formula(metric):
    # 600 rows cross two row-block boundaries of the mapped cost matrix
    rng = np.random.default_rng(3)
    mu = DiscreteMeasure2D.equal_weight(rng.random(600), rng.random(600))
    nu = DiscreteMeasure2D.equal_weight(rng.random(70), rng.random(70))
    d = [np.abs(a[:, None] - b[None, :]) for a, b in ((mu.xs, nu.xs), (mu.ys, nu.ys))]
    if metric == "circle":
        d = [np.minimum(k, 1.0 - k) for k in d]
    C = joinings._cost_matrix(mu, nu, metric)
    assert C.shape == (600, 70) and np.array_equal(C, d[0] + d[1])


def test_kr_unbalanced_rejected():
    a = DiscreteMeasure2D(np.array([0.1]), np.array([0.1]), np.array([1.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure2D(np.array([0.1]), np.array([0.1]), np.array([0.7]))


@pytest.mark.parametrize("column", range(3))
def test_non_finite_measure_rejected(column):
    # every comparison of the range and sum checks is False on NaN
    atoms = [np.array([0.1, 0.4]), np.array([0.2, 0.3]), np.array([0.5, 0.5])]
    atoms[column][0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure2D(*atoms)


# -- 1-D Wasserstein-1 --------------------------------------------------------

_FLOAT_LISTS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=200),
    # tie-heavy dyadic values
    st.lists(st.integers(-8, 8).map(lambda k: k / 4), max_size=200),
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), max_size=200))


@PROPERTY
@given(_FLOAT_LISTS)
def test_stable_order_is_the_stable_argsort(values):
    v = np.array(values, dtype=float)
    assert np.array_equal(joinings._stable_order(v), np.argsort(v, kind="stable"))


def test_stable_order_on_large_arrays():
    # lengths past the small-array paths of the default sort, at lengths 0
    # and 1 too
    rng = np.random.default_rng(2024)
    for v in (rng.random(100_000), rng.integers(0, 64, 100_000) / 64,
              np.where(rng.random(5000) < 0.5, -0.0, 0.0), np.array([]), np.array([0.5])):
        assert np.array_equal(joinings._stable_order(v), np.argsort(v, kind="stable"))


@st.composite
def _dyadic_atoms(draw):
    """At most six atoms on the points k/8 (ties likely), weights k/16 that
    sum to 1: every sum and product of the 1-D W1 is exact."""
    n = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=n - 1, max_size=n - 1)))
    pts = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    return np.array(pts) / 8, np.diff([0, *cuts, 16]) / 16


def _exact_w1(xs, ws, ys, vs):
    """The integral of |F - G| over the line, F and G the two CDFs, in
    Fractions."""
    def cdf(p, w, t):
        return sum(Fraction(wi) for pi, wi in zip(p, w) if Fraction(pi) <= t)
    cuts = sorted({Fraction(p) for p in [*xs, *ys]})
    return sum(abs(cdf(xs, ws, a) - cdf(ys, vs, a)) * (b - a)
               for a, b in zip(cuts, cuts[1:]))


@PROPERTY
@given(_dyadic_atoms(), _dyadic_atoms())
def test_w1_1d_is_the_exact_cdf_integral(mu, nu):
    exact = _exact_w1(*mu, *nu)
    assert Fraction(_w1_and_ties(*mu, *nu)[0]) == exact
    assert Fraction(_w1_and_ties(*nu, *mu)[0]) == exact


@pytest.mark.parametrize("args", [
    ([0.0], [1.0], [0.5], [0.5]),
    ([0.0], [1.0], [], []),
    ([np.nan], [1.0], [0.5], [1.0]),
    ([np.inf], [1.0], [0.5], [1.0]),
    ([0.0], [np.nan], [0.5], [1.0]),
    ([0.0], [1.0], [0.5], [-np.inf])],
    ids=["unequal-mass", "one-side-empty", "nan-point", "inf-point", "nan-weight",
         "inf-weight"])
def test_w1_1d_rejects_bad_input(args):
    with pytest.raises(ValueError, match="1-D W1 needs"):
        _w1_and_ties(*args)


# -- disintegration ---------------------------------------------------------

def test_disintegrate_diagonal():
    m = sample_power_joining(IET, 0, 1000, seed=9)
    d = disintegrate(m, 10)
    for b in range(10):
        if d.empty[b]:
            continue
        ys, _ = d.conditional(b)
        assert ys.min() >= b / 10 - 1e-9
        assert ys.max() < (b + 1) / 10 + 1e-9


def test_disintegrate_product_conditionals_uniform():
    m = product_sample(40000, seed=10)
    d = disintegrate(m, 20)
    grid = (np.arange(2000) + 0.5) / 2000
    gw = np.full(2000, 1 / 2000)
    for b in range(0, 20, 5):
        ys, ws = d.conditional(b)
        assert _w1_and_ties(ys, ws, grid, gw)[0] < 3 * 20 / math.sqrt(40000)


def test_disintegrate_reassembly():
    m = product_sample(5000, seed=11)
    d = disintegrate(m, 16)
    ys_all, ws_all = [], []
    for b in range(16):
        ys, ws = d.conditional(b)
        ys_all.append(ys)
        ws_all.append(ws * d.bin_mass[b])
    ys_all = np.concatenate(ys_all)
    ws_all = np.concatenate(ws_all)
    assert abs(ws_all.sum() - 1) < 1e-12
    assert _w1_and_ties(ys_all, ws_all, m.ys, m.ws)[0] < 1e-12


def test_fiber_diameter_examples():
    m = sample_power_joining(IET, 0, 2000, seed=12)
    stats = fiber_diameter_stats(disintegrate(m, 50))
    assert np.nanmax(stats["diameters"]) <= 1 / 50 + 0.01
    mixm = mix(sample_power_joining(IET, 0, 4000, seed=13),
               sample_power_joining(IET, 1, 4000, seed=13))
    dist_d = np.abs(apply(IET, np.linspace(0, 1, 1000, endpoint=False)) -
                    np.linspace(0, 1, 1000, endpoint=False))
    med = float(np.median(dist_d))
    st = fiber_diameter_stats(disintegrate(mixm, 64), threshold=med / 2)
    assert st["fraction_above"] >= 0.7


def test_apply_Asigma_cases():
    diag = sample_power_joining(IET, 0, 5000, seed=14)
    d = disintegrate(diag, 25)
    vals = apply_Asigma(d, "coord")
    centers = (np.arange(25) + 0.5) / 25
    ok = ~np.isnan(vals)
    assert np.max(np.abs(vals[ok] - centers[ok])) < 1 / 25
    prod = product_sample(60000, seed=15)
    dp = disintegrate(prod, 25)
    vp = apply_Asigma(dp, "coord")
    assert np.nanstd(vp) < 0.03
    nu2 = sample_power_joining(IET, 2, 5000, seed=16)
    d2 = disintegrate(nu2, 25)
    v2 = apply_Asigma(d2, "coord")
    from iet3.iet_core import apply_pow
    checked = 0
    for b in range(25):
        if d2.empty[b]:
            continue
        ys, _ = d2.conditional(b)
        if ys.max() - ys.min() > 2 / 25:
            continue  # bin straddles a discontinuity of the power
        expect = apply_pow(IET, 2, float(centers[b]))
        assert abs(v2[b] - expect) < 0.05
        checked += 1
    assert checked >= 10


# -- coefficients along a tower ----------------------------------------------

def test_approx_by_powers_cases(tower_iet, doc_towers):
    from iet3.towers import build_tower
    I, n = doc_towers[-1]
    tower = build_tower(tower_iet, I, n)
    nu5 = sample_power_joining(tower_iet, 5, 60000, seed=17)
    c5, _ = approx_by_powers(tower_iet, nu5, tower, bins=128)
    assert c5.dense()[5] >= 0.9
    diag = sample_power_joining(tower_iet, 0, 60000, seed=18)
    c0, e0 = approx_by_powers(tower_iet, diag, tower, bins=128)
    assert c0.dense()[0] >= 0.9
    assert e0["coord"] <= float(tower.width) + 4 / 128 + 0.05
    assert c0.total() <= 1 + 1e-12


def test_approx_by_powers_on_an_empty_refined_base(tower_iet, doc_towers):
    # over the first suggested base at height 2, I ∩ T^2 I ∩ T^-2 I is empty:
    # no atom is in the refined sub-tower, and all the fiber's mass is outside
    from iet3.towers import _return_sets, build_tower
    tower = build_tower(tower_iet, doc_towers[0][0], 2)
    assert _return_sets(tower, tower_iet)[2] == []
    coeff, errs = approx_by_powers(tower_iet, product_sample(20000, seed=1), tower)
    assert coeff.total() == 0
    assert abs(errs["_outside_mass"] - 1) <= 1e-12


def _base_bin_scores_oracle(d, tower):
    """The base-bin scores by the first rule: each nonempty in-tower bin b
    against each nonempty neighbor nb, the 1-D W1 of cond(b) and cond(nb),
    one call per (bin, neighbor)."""
    scores = np.full(d.bins, np.inf)
    centers = (np.arange(d.bins) + 0.5) / d.bins
    for b in np.flatnonzero(~d.empty & (tower.levels_of(centers) >= 0)):
        near = [nb for nb in (b - 1, b + 1) if 0 <= nb < d.bins and not d.empty[nb]]
        if near:
            scores[b] = sum(_w1_and_ties(*d.conditional(b), *d.conditional(nb))[0]
                            for nb in near) / len(near)
    return scores


def _tied_sample(n, seed):
    # y on 16 values: neighboring fibers share y values, and so do atoms
    # within a fiber
    rng = np.random.default_rng(seed)
    ws = rng.random(n) + 0.1
    return DiscreteMeasure2D(rng.random(n), rng.integers(0, 16, n) / 16, ws / ws.sum())


@pytest.mark.parametrize("case", ["product", "sparse-product", "graph", "tied", "tied-large"])
@pytest.mark.parametrize("which", [0, 1], ids=["height-6", "height-362"])
def test_base_bin_scores_against_the_first_rule(tower_iet, doc_towers, case, which):
    # bit for bit, ties included: a tied pair is measured both ways round.
    # The 6-level tower leaves two bins at 128 out of the tower; the sparse
    # sample leaves bins empty and bins with one nonempty neighbor
    from iet3.towers import build_tower
    tower = build_tower(tower_iet, *doc_towers[which])
    m = {"product": lambda: product_sample(20000, seed=41),
         "sparse-product": lambda: product_sample(150, seed=42),
         "graph": lambda: sample_power_joining(tower_iet, 5, 20000, seed=43),
         "tied": lambda: _tied_sample(3000, 44),
         "tied-large": lambda: _tied_sample(20000, 45)}[case]()
    for bins in (16, 128):
        d = disintegrate(m, bins)
        want = _base_bin_scores_oracle(d, tower)
        got = joinings._base_bin_scores(d, tower)
        assert np.array_equal(got, want)
        assert np.isfinite(got).any()


def test_base_bin_errors(tower_iet, doc_towers):
    from iet3.towers import build_tower
    tower = build_tower(tower_iet, *doc_towers[0])
    # the 6-level tower misses the centre of bin 21 of 128
    off = DiscreteMeasure2D.equal_weight(np.array([21.5, 21.2]) / 128, np.array([0.1, 0.7]))
    with pytest.raises(ValueError, match="no nonempty bin lies in the tower"):
        approx_by_powers(tower_iet, off, tower, bins=128)
    lone = DiscreteMeasure2D.equal_weight(np.array([0.3, 0.9]), np.array([0.1, 0.7]))
    with pytest.raises(ValueError, match="has a nonempty neighbor"):
        approx_by_powers(tower_iet, lone, tower, bins=128)
    with pytest.raises(ValueError, match="bins must be an integer >= 2"):
        approx_by_powers(tower_iet, product_sample(1000, seed=1), tower, bins=1)


# W1 evaluations of `approx_by_powers` on a 10^5-atom product sample with the
# doc-tower 362-level tower at 128 bins: one per neighboring pair of fibers,
# as the sample's points do not tie.  Before this pin each pair was measured
# from both sides, 254 evaluations; later changes may lower the pin but never
# raise it
APPROX_POWERS_W1_CALLS = 127


def test_approx_by_powers_work_guard(monkeypatch, tower_iet, doc_towers):
    from iet3.towers import build_tower
    tower = build_tower(tower_iet, *doc_towers[1])
    assert tower.height == 362
    calls = []
    w1 = joinings._w1_and_ties
    monkeypatch.setattr(joinings, "_w1_and_ties",
                        lambda *a: calls.append(1) or w1(*a))
    coeff, errs = approx_by_powers(tower_iet, product_sample(100_000, seed=1), tower, bins=128)
    assert len(calls) <= APPROX_POWERS_W1_CALLS
    assert coeff.total() <= 1 + 1e-12 and errs["coord"] <= 0.1


# -- weak closure -----------------------------------------------------------

def test_weak_closure_rational_periodic():
    iet = Iet3(Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
    x = Fraction(3, 1000)
    cur, p = x, 0
    for i in range(1, 5000):
        cur = apply(iet, cur)
        if cur == x:
            p = i
            break
    n, err, _ = weak_closure_check(iet, k=p, horizon=p, N=2000, seed=19)
    assert n % p == 0
    assert err < 0.05


def _mixture_gap_fast(bin_ids, ys_cand, nu_sorted, bins):
    """One scan value by one lexsort: the candidate fiber duplicated to align
    with the two mixture branches, sorted within x-bins, matched against the
    mixture's sorted values, plus the in-bin horizontal cost."""
    rep = np.repeat(ys_cand, 2)
    rep_bins = np.repeat(bin_ids, 2)
    order = np.lexsort((rep, rep_bins))
    diffs = np.abs(rep[order] - nu_sorted)
    return float(diffs.mean() + 1.0 / bins)


@pytest.mark.parametrize("iet, k, seed", [(IET, 1, 3), (documented_switch_iet(), 2, 8)])
def test_weak_closure_block_scan_matches_per_step(iet, k, seed):
    # the horizon crosses a block boundary both forward and backward
    horizon = joinings._SCAN_BLOCK + 3
    n, _, info = weak_closure_check(iet, k=k, horizon=horizon, N=500, seed=seed)
    xs = joinings._stratified_points(info["scan_N"], seed)
    bin_ids = joinings._bin(xs, 128)
    nu_vals = np.concatenate([xs, apply_pow_many(iet, k, xs)])
    nu_sorted = nu_vals[np.lexsort((nu_vals, np.concatenate([bin_ids, bin_ids])))]
    want = {0: _mixture_gap_fast(bin_ids, xs, nu_sorted, 128)}
    for exchange, sign in ((iet, 1), (iet.inverse(), -1)):
        cur = xs
        for i in range(1, horizon + 1):
            cur = apply(exchange, cur)
            want[sign * i] = _mixture_gap_fast(bin_ids, cur, nu_sorted, 128)
    assert list(info["scan"].items()) == list(want.items())
    # the best power is the first to reach the least value, in scan order
    vals = list(want.values())
    assert n == list(want)[vals.index(min(vals))]


def test_stratified_points_sorted():
    # the block scan sorts each x-bin as one slice of the base points
    for seed in range(20):
        for N in (1, 2, 2000, 4097):
            assert np.all(np.diff(joinings._stratified_points(N, seed)) >= 0)


def test_weak_closure_zero_candidate_value():
    # at n = 0 the distance is about half the mean displacement of T^k
    xs = np.linspace(0, 1, 4000, endpoint=False) + 1 / 8000
    y1 = apply(IET, xs.copy())
    mean_d = float(np.mean(np.abs(y1 - xs)))
    _, _, info = weak_closure_check(IET, k=1, horizon=3, N=4000, seed=20)
    v0 = info["scan"][0]
    assert abs(v0 - mean_d / 2) < 0.08


# -- averaging recursion ------------------------------------------------------

def test_bary_symmetric_step():
    out = bary_recursion(BaryState(d=2, gamma=[1.0, 0.0], a=0.5, b=0.5), 1)
    assert np.allclose(out["trajectory"][1], [0.5, 0.5])


def test_bary_exact_ratio():
    out = bary_recursion(BaryState(d=2, gamma=[1.0, 0.0], a=0.7, b=0.3), 16)
    assert out["gaps"][0] == 1.0
    assert out["gaps"][1] == pytest.approx(0.4, abs=1e-12)
    assert out["gaps"][2] == pytest.approx(0.16, abs=1e-12)
    assert abs(out["ratio"] - 0.4) < 1e-6
    assert out["mean_drift"] < 1e-12


def test_bary_mean_invariance():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        a = float(rng.random() * 0.35 + 0.2)
        b = float(rng.random() * (0.98 - a - 0.2) + 0.2)
        st = BaryState(d=d, gamma=rng.random(d), a=a, b=b)
        out = bary_recursion(st, 30)
        assert out["mean_drift"] < 1e-12
        gaps = out["gaps"]
        if d == 2:
            # exact per-pair-of-strands contraction factor |a-b|/(a+b)
            ratio_bound = 1 - 2 * min(st.a, st.b) / (st.a + st.b)
            for i in range(0, len(gaps) - d, d):
                if gaps[i] > 1e-10:
                    assert gaps[i + d] <= ratio_bound * gaps[i] + 1e-12
        else:
            # cyclic averaging still contracts over d-step windows
            for i in range(0, len(gaps) - d, d):
                if gaps[i] > 1e-10:
                    assert gaps[i + d] <= 0.9 * gaps[i] + 1e-12


# -- serialization ------------------------------------------------------------

def test_csv_round_trip():
    m = product_sample(50, seed=22)
    back = measure_from_csv(measure_to_csv(m))
    assert np.allclose(back.xs, m.xs)
    assert np.allclose(back.ys, m.ys)
    assert np.allclose(back.ws, m.ws)


# -- coefficient stability and the per-level mass surrogate -------------------

def test_coefficient_stability_on_graph_mixture(tower_iet, doc_towers):
    # along the orbit, coefficient vectors of a two-graph mixture move by at
    # most twice the conditional mass outside the doubly-refined sub-tower,
    # plus binning slack
    from iet3.towers import build_tower
    from iet3.joinings import _coefficients_from_fiber
    from iet3.iet_core import apply_pow
    I, n = doc_towers[-1]
    tower = build_tower(tower_iet, I, n)
    bins = 128
    m = mix(sample_power_joining(tower_iet, 0, 60000, seed=30),
            sample_power_joining(tower_iet, 1, 60000, seed=30))
    d = disintegrate(m, bins)
    centers = (np.arange(bins) + 0.5) / bins
    rng = np.random.default_rng(31)
    checked = 0
    for b in rng.permutation(bins)[:16]:
        if d.empty[b]:
            continue
        i = int(rng.integers(1, 50))
        xb = float(centers[b])
        xi = float(apply_pow(tower_iet, i, xb))
        b2 = min(int(xi * bins), bins - 1)
        if d.empty[b2]:
            continue
        idx1, w1, out1 = _coefficients_from_fiber(tower, tower_iet, *d.fiber(b))
        idx2, w2, out2 = _coefficients_from_fiber(tower, tower_iet, *d.fiber(b2))
        c1 = np.zeros(tower.height); np.add.at(c1, idx1, w1)
        c2 = np.zeros(tower.height); np.add.at(c2, idx2, w2)
        l1_gap = float(np.abs(c1 - c2).sum())
        bound = 2 * max(out1, out2) + 4 / bins + 0.12  # finite-sample slack
        assert l1_gap <= bound, (b, i, l1_gap, bound)
        checked += 1
    assert checked >= 8


def test_per_level_outside_mass_surrogate(tower_iet, doc_towers):
    # height * (average conditional mass outside the tower over one level)
    # stays below the mass outside the doubly-refined tower plus slack
    from iet3.towers import build_tower, tower_stats
    I, n = doc_towers[0]   # coarse tower: each level carries enough atoms
    tower = build_tower(tower_iet, I, n)
    st = tower_stats(tower, tower_iet)
    union = tower.union()
    m = sample_power_joining(tower_iet, 3, 100_000, seed=32)
    rng = np.random.default_rng(33)
    outside_tilde = 1 - st.tilde_measure
    for j in rng.permutation(tower.height)[:8]:
        lo = float(tower.level_lows[j]); hi = lo + float(tower.width)
        sel = (m.xs >= lo) & (m.xs < hi)
        if sel.sum() < 30:
            continue
        frac_out = np.mean([0.0 if any(a <= y < b for a, b in union) else 1.0
                            for y in map(float, m.ys[sel])])
        slack = 4 / math.sqrt(sel.sum())
        assert tower.height * frac_out * float(tower.width) <= outside_tilde + slack + 0.05
