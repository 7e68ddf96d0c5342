"""Marked tori, reduction, the section scan, and crossing statistics."""

import math

import numpy as np
import pytest

from iet3.iet_core import Iet3, RotationRep, from_rotation
from iet3.renorm import (MarkedTorus, FlowRangeError, apply_gt, dist_to_hat,
                         reduce, scan_renorm_times, section_record_exact,
                         BASIS_WEIGHT)

IET = Iet3(0.2, 0.3, 0.5)
GOLDEN = (math.sqrt(5) - 1) / 2


def test_torus_of_iet_values():
    from iet3.renorm import torus_of_iet
    t = torus_of_iet(IET)
    assert t.basis[0, 0] == 1.0 and t.basis[1, 0] == 0.0
    assert t.basis[0, 1] == pytest.approx(-0.8 / 1.3)
    assert t.basis[1, 1] == 1.0
    assert t.marked[0] == pytest.approx(1 / 1.3)
    assert abs(np.linalg.det(t.basis) - 1.0) < 1e-12


def test_apply_gt_group_properties():
    from iet3.renorm import torus_of_iet
    t = torus_of_iet(IET)
    same = apply_gt(t, 0.0)
    assert np.allclose(same.basis, t.basis)
    scaled = apply_gt(MarkedTorus(np.eye(2), np.array([0.3, 0.0])), math.log(2))
    assert scaled.marked[0] == pytest.approx(0.6)
    fwd = apply_gt(t, 3.7)
    back = apply_gt(fwd, -3.7)
    assert np.allclose(back.basis, t.basis, atol=1e-12)
    with pytest.raises(FlowRangeError):
        apply_gt(t, 501.0)


def test_reduce_examples():
    r = reduce(MarkedTorus(np.eye(2), np.array([1.5, 0.0])))
    assert abs(r.marked[0]) == pytest.approx(0.5, abs=1e-12)
    r2 = reduce(MarkedTorus(np.array([[1.0, 5.3], [0.0, 1.0]]), np.zeros(2)))
    cols = sorted(np.abs(r2.basis.T).tolist())
    assert cols[0] == pytest.approx([0.3, 1.0], abs=1e-9) or \
        cols[1] == pytest.approx([0.3, 1.0], abs=1e-9)


def test_reduce_shortest_vector_oracle():
    rng = np.random.default_rng(0)
    for _ in range(40):
        # random unimodular composition, small enough that the [-20, 20]^2
        # coefficient box below is exhaustive
        B = np.eye(2)
        for _ in range(3):
            k = int(rng.integers(-2, 3))
            if rng.random() < 0.5:
                B = B @ np.array([[1, k], [0, 1]])
            else:
                B = B @ np.array([[1, 0], [k, 1]])
        t = MarkedTorus(B.astype(float), np.zeros(2))
        red = reduce(t)
        short = min(np.linalg.norm(red.basis[:, 0]), np.linalg.norm(red.basis[:, 1]))
        # exhaustive search over small integer combinations
        best = min(np.linalg.norm(B @ np.array([i, j]))
                   for i in range(-20, 21) for j in range(-20, 21)
                   if (i, j) != (0, 0))
        assert short == pytest.approx(best, rel=1e-9)


def test_reduce_invariance_under_group():
    rng = np.random.default_rng(1)
    from iet3.renorm import torus_of_iet
    base = apply_gt(torus_of_iet(IET), 1.3)
    d0 = dist_to_hat(base)
    for _ in range(200):
        U = np.eye(2)
        for _ in range(4):
            k = int(rng.integers(-3, 4))
            U = U @ (np.array([[1, k], [0, 1]]) if rng.random() < 0.5
                     else np.array([[1, 0], [k, 1]]))
        shift = rng.integers(-3, 4, size=2).astype(float)
        moved = MarkedTorus(base.basis @ U, base.marked + base.basis @ shift)
        assert abs(dist_to_hat(moved) - d0) < 1e-9


def test_dist_to_hat_examples():
    assert dist_to_hat(MarkedTorus(np.eye(2), np.array([0.5, 0.0]))) == 0.0
    d = dist_to_hat(MarkedTorus(np.eye(2), np.array([0.4, 0.0])))
    assert d == pytest.approx(0.1, abs=1e-12)


def _marked_term_on_numpy_scalars(w_red):
    """`renorm._marked_term` as first written, on the NumPy scalars of w_red."""
    from iet3.renorm import VERT_MARK_WEIGHT
    dx = min(abs(w_red[0] - sx - kx) for kx in range(-3, 4) for sx in (0.5, -0.5))
    dy = min(VERT_MARK_WEIGHT * abs(w_red[1] - ky) for ky in range(-3, 4))
    return max(dx, dy)


def test_dist_to_hat_equals_the_numpy_scalar_formula():
    # random reduced tori, offsets on both sides of the half-points and at
    # them: the Python-float offsets give the same binary64 values bit for bit
    from iet3.renorm import _basis_term, _marked_term
    rng = np.random.default_rng(3)
    for _ in range(300):
        s = rng.uniform(-2, 2)
        B = np.diag([np.exp(s), np.exp(-s)]) @ np.array([[1.0, rng.uniform(-4, 4)], [0.0, 1.0]])
        marked = rng.uniform(-6, 6, size=2)
        if rng.random() < 0.2:
            marked = np.round(marked * 2) / 2
        red = reduce(MarkedTorus(B, marked))
        old = _marked_term_on_numpy_scalars(red.marked)
        assert _marked_term(red.marked) == old
        assert dist_to_hat(MarkedTorus(B, marked)) == max(BASIS_WEIGHT * _basis_term(red.basis), old)


def test_dist_to_hat_golden_fibonacci_oracle():
    # at t = ln(q) the flowed lattice has the analytic basis built from the
    # continued-fraction residues; compare against a reconstruction
    from iet3.renorm import _basis_term, torus_of_iet
    iet = from_rotation(RotationRep(GOLDEN, 1 / 1.3))
    q_prev, q = 34, 55
    t = math.log(q)
    flowed = apply_gt(torus_of_iet(iet), t)
    d = dist_to_hat(flowed)
    theta = q * abs(q * GOLDEN - round(q * GOLDEN))
    eta = q * abs(q_prev * GOLDEN - round(q_prev * GOLDEN))
    B = np.array([[theta * np.sign(q * GOLDEN - round(q * GOLDEN)), eta],
                  [1.0, -q_prev / q]])
    assert BASIS_WEIGHT * _basis_term(B) <= d + 0.25
    assert d >= BASIS_WEIGHT * 0.3  # golden never gets close: N||N a|| >= 0.447


def _nearest_lattice_vector(B, target):
    c = np.linalg.solve(B, target)
    best, best_d = None, math.inf
    for di in range(-2, 3):
        for dj in range(-2, 3):
            v = B @ np.array([round(c[0]) + di, round(c[1]) + dj], dtype=float)
            d = float(np.linalg.norm(v - target))
            if d < best_d:
                best_d, best = d, v
    return best


def vertical_return_offset(torus):
    """Offset (v1, v2) of the time-1 vertical flow modulo the lattice, and
    the closed-form section-adjustment time -ln(1 - v2), in binary64: the
    float oracle of the exact section record."""
    v = np.array([0.0, 1.0]) - _nearest_lattice_vector(torus.basis, np.array([0.0, 1.0]))
    v1, v2 = float(v[0]), float(v[1])
    return v1, v2, -math.log1p(-v2)


def test_vertical_return_offset_examples():
    v1, v2, s = vertical_return_offset(MarkedTorus(np.eye(2), np.zeros(2)))
    assert (v1, v2, s) == (0.0, 0.0, 0.0)
    B = np.array([[1.0, -0.3], [0.0, 1.0]])
    v1, v2, s = vertical_return_offset(MarkedTorus(B, np.zeros(2)))
    assert v1 == pytest.approx(0.3, abs=1e-12)
    assert v2 == 0.0
    # closed form for the section adjustment
    B2 = np.column_stack([np.array([1 / 0.9, 0.0]), np.array([0.2, 0.9])])
    v1, v2, s = vertical_return_offset(MarkedTorus(B2, np.zeros(2)))
    assert v2 == pytest.approx(0.1, abs=1e-12)
    assert s == pytest.approx(-math.log(0.9), abs=1e-12)


def test_rho_degenerate_rational():
    from fractions import Fraction
    iet = Iet3(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    # alpha = 3/5: the rotation closes at denominator 5 exactly, where the
    # unit return has no displacement and the scan rejects the scale
    rc = iet.rotation_counter()
    assert section_record_exact(rc.P, rc.Q, rc.C, 5).rho == 0.0
    scan = scan_renorm_times(iet, delta=0.3, t_max=2.0)
    assert "N=5 rotation closes up (rational)" in [r for _, r in scan.rejections]


def test_golden_scan_nonempty_and_selfconsistent():
    iet = from_rotation(RotationRep(GOLDEN, 1 / 1.3))
    times = scan_renorm_times(iet, delta=0.3, t_max=25.0).times
    assert len(times) > 0
    from iet3.renorm import torus_of_iet
    rc = iet.rotation_counter()
    for rt in times:
        # re-verify through the exact evaluator (ground truth at any scale)
        rec = section_record_exact(rc.P, rc.Q, rc.C, rt.n_steps)
        assert rec.dist_hat < 0.3
        assert rec.rho <= 0.5 + 1e-9
        if rt.n_steps <= 10**5:
            # at moderate scales the float flow agrees
            flowed = apply_gt(torus_of_iet(iet), rt.t)
            assert dist_to_hat(flowed) < 0.3 + 0.05
            v1, v2, _ = vertical_return_offset(flowed)
            assert abs(v2) < 1e-6


def test_rational_scan_all_rejected_at_depth():
    iet = Iet3(0.25, 0.25, 0.5)
    scan = scan_renorm_times(iet, delta=0.3, t_max=9.0)
    # rotation is rational: large candidates close up and are rejected
    assert all(rt.rho > 0 for rt in scan.times)
    assert any("closes up" in r or "far from section" in r
               for _, r in scan.rejections)


FIBONACCI_2_TO_832040 = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610,
                         987, 1597, 2584, 4181, 6765, 10946, 17711, 28657,
                         46368, 75025, 121393, 196418, 317811, 514229, 832040]


@pytest.mark.parametrize("name, delta, t_max, steps", [
    ("switch", 0.3, 11.0, [4, 32001]),
    ("switch", 1.2, 14.0, [4, 8, 12, 32001, 64002, 96003]),
    ("tower", 0.3, 11.0, [2]),
    ("tower", 1.2, 14.0, [2, 7, 14, 21, 422, 844, 1266, 37987, 75974, 113961]),
    ("golden", 0.3, 11.0, []),
    ("golden", 1.2, 14.0, FIBONACCI_2_TO_832040),
])
def test_scan_accepts_pinned_steps(name, delta, t_max, steps, switch_iet,
                                   tower_iet, golden):
    iet = {"switch": switch_iet, "tower": tower_iet, "golden": golden}[name]
    scan = scan_renorm_times(iet, delta=delta, t_max=t_max)
    assert [rt.n_steps for rt in scan.times] == steps


def test_candidates_are_the_circle_ladder(switch_iet, golden):
    # candidates are k q, k <= 6, for q on the circle's scale ladder, the
    # ladder the switch engine reads; a binary64 IET's lift period Q is none
    from iet3.construction import _SwitchEngine
    from iet3.renorm import _candidate_steps
    for iet in (switch_iet, golden):
        scales = _SwitchEngine(iet).scales
        assert _candidate_steps(iet, 40.0) == sorted(
            {k * q for q in scales for k in range(1, 7) if 2 <= k * q <= math.exp(40.0)})
    Q = golden.rotation_counter().Q
    assert all(n % Q for n in _candidate_steps(golden, 40.0))


def test_documented_scan_accepts_tuned_scales(switch_iet):
    scan = scan_renorm_times(switch_iet, delta=0.3, t_max=11.0)
    steps = [rt.n_steps for rt in scan.times]
    assert 4 in steps and 32001 in steps
    for rt in scan.times:
        assert 0.2 < rt.V_len < 0.8
        # dichotomy: both crossing values carry definite mass
        assert rt.m_fractions[0] + rt.m_fractions[1] >= 0.99
        assert min(rt.m_fractions) >= 0.1


def test_section_record_exact_consistency(switch_iet):
    rc = switch_iet.rotation_counter()
    rec = section_record_exact(rc.P, rc.Q, rc.C, 32001)
    assert rec.rho == pytest.approx(4.0e-6, rel=1e-3)
    assert rec.V_len == pytest.approx(0.5, abs=1e-3)
    assert rec.dist_hat < 0.3


def _section_record_two_reductions(P, Q, C, N):
    """section_record_exact as it was with the marked lattice reduced on its
    own: a second Lagrange reduction, under its own norm, of the lattice
    {(bP - aQ, -b)}."""
    from iet3.arith import RotationCounter
    from iet3.renorm import _SectionRecord, _basis_term, _lagrange, _marked_term
    sN = RotationCounter(P, Q, C).signed_residue(N)
    rho = abs(-sN * N / Q)
    u, v = _lagrange((1, P % Q), (0, Q),
                     lambda w: math.hypot(w[1] * N / Q, w[0] / N))
    B = np.column_stack([np.array([w[1] * N / Q, w[0] / N]) for w in (u, v)])
    bt = _basis_term(B)
    lu, lv = _lagrange((P % Q, -1), (Q, 0),
                       lambda w: math.hypot(w[0] * N / Q, w[1] / N))
    det = lu[0] * lv[1] - lv[0] * lu[1]
    coef = ((-C) * lv[1] / det, C * lu[1] / det) if det != 0 else (0.0, 0.0)
    mt = math.inf
    for di in range(-3, 4):
        for dj in range(-3, 4):
            ci, cj = round(coef[0]) + di, round(coef[1]) + dj
            s = C + ci * lu[0] + cj * lv[0]
            b = ci * lu[1] + cj * lv[1]
            mt = min(mt, _marked_term(np.array([s * N / Q, b / N])))
    v_len = ((N * (Q - C)) % Q) / Q
    return _SectionRecord(rho=rho, marked_term=mt,
                          dist_hat=max(BASIS_WEIGHT * bt, mt), V_len=v_len)


def _section_cases():
    """(P, Q, C, N): the documented circles at k q for each continued-fraction
    denominator q and k <= 6, and 300 random circles at every eighth of
    their own."""
    from fractions import Fraction
    from iet3.arith import cf_convergents, cf_expansion
    from iet3.params import documented_switch_iet, documented_tower_iet, golden_iet
    from iet3.renorm import _ladder
    cases = []
    for iet in (documented_switch_iet(), documented_tower_iet(), golden_iet()):
        rc = iet.rotation_counter()
        cases += [(rc.P, rc.Q, rc.C, k * q) for q in _ladder(iet)[0] for k in range(1, 7)]
    rng = np.random.default_rng(30)
    for _ in range(300):
        Q = int(rng.integers(2, 2**62)) * int(rng.integers(1, 2**20))
        P, C = int(rng.integers(1, 2**62)) % (Q - 1) + 1, int(rng.integers(1, 2**62)) % Q + 1
        denoms = [q for _, q in cf_convergents(cf_expansion(Fraction(P, Q), max_terms=256))]
        cases += [(P, Q, C, N) for N in denoms[1::8]]
    return cases


def test_section_record_reduces_one_lattice():
    # the marked lattice is the section lattice turned by (b, s) -> (s, -b),
    # a map that keeps the scaled norm float for float: its reduced basis is
    # the turned section basis, and every field matches two reductions
    cases = _section_cases()
    assert len(cases) > 1000
    for P, Q, C, N in cases:
        assert section_record_exact(P, Q, C, N) == _section_record_two_reductions(P, Q, C, N), \
            (P, Q, C, N)


def test_section_reduction_finds_a_shortest_vector():
    # the section lattice {(b, s): s = b P mod Q} under the scaled norm
    # hypot(s N/Q, b/N) has covolume 1, so a shortest vector has norm at
    # most sqrt(2/sqrt(3)) < 1.08 and |b| < 1.08 N: the search over every
    # |b| <= 2N, each with its centred residue s, is exhaustive (b = 0 has
    # the vector (0, Q), of norm N)
    from fractions import Fraction
    from iet3.arith import cf_convergents, cf_expansion
    from iet3.renorm import _lagrange
    rng = np.random.default_rng(32)
    circles = [(int(P), Q) for Q in (2, 3, 5, 13, 89, 610, 2000)
               for P in np.unique(rng.integers(1, Q, size=6))]
    circles += [(int(rng.integers(1, Q)), Q) for Q in rng.integers(2, 2001, size=200).tolist()]
    for P, Q in circles:
        for _, N in cf_convergents(cf_expansion(Fraction(P, Q))):
            def norm(w):
                return math.hypot(w[1] * N / Q, w[0] / N)

            u, _ = _lagrange((1, P % Q), (0, Q), norm)
            b = np.arange(-2 * N, 2 * N + 1)
            r = b * P % Q
            s = np.where(2 * r > Q, r - Q, r)
            best = min([N] + [norm((bi, si)) for bi, si in zip(b.tolist(), s.tolist()) if bi])
            assert norm(u) <= best * (1 + 1e-12), (P, Q, N)


def _count_crossing_samples(monkeypatch):
    import iet3.renorm as renorm
    calls = []
    real = renorm._crossing_samples

    def counted(iet, n_steps, *args, **kwargs):
        calls.append(n_steps)
        return real(iet, n_steps, *args, **kwargs)

    monkeypatch.setattr(renorm, "_crossing_samples", counted)
    return calls


def test_crossing_pair_is_sampled_on_first_read(switch_iet, tower_iet, monkeypatch):
    # the scan and the tower search sample no crossing counts; an accepted
    # time samples them once, on the first read of m or m_fractions
    from iet3.towers import suggest_towers
    calls = _count_crossing_samples(monkeypatch)
    suggest_towers(tower_iet, k_max=2, t_max=11.0)
    times = scan_renorm_times(switch_iet, 0.3, 11.0).times
    assert calls == [] and len(times) == 2
    for rt in times:
        rt.m, rt.m_fractions
    assert calls == [rt.n_steps for rt in times]


def test_derived_scale_tower_measure_fields_are_properties(switch_iet, tower_iet):
    # an accepted time is its step count and its section record; a tower's
    # height, a disintegration's bin count and an orbit's start are read
    # from the arrays they hold
    import dataclasses
    import inspect

    from iet3.iet_core import OrbitSegment, orbit
    from iet3.joinings import Disintegration, disintegrate, product_sample
    from iet3.renorm import RenormTime
    from iet3.towers import Tower, build_tower, suggest_towers
    fields = {cls: {f.name for f in dataclasses.fields(cls)}
              for cls in (RenormTime, Tower, Disintegration, OrbitSegment)}
    assert fields[RenormTime] == {"iet", "n_steps", "record"}
    assert "height" not in fields[Tower] and "bins" not in fields[Disintegration]
    assert "start" not in fields[OrbitSegment]
    assert list(inspect.signature(scan_renorm_times).parameters) == ["iet", "delta", "t_max"]
    rc = switch_iet.rotation_counter()
    for rt in scan_renorm_times(switch_iet, 0.3, 11.0).times:
        rec = section_record_exact(rc.P, rc.Q, rc.C, rt.n_steps)
        assert (rt.t, rt.rho, rt.dist_hat, rt.V_len) == (
            math.log(rt.n_steps), rec.rho, rec.dist_hat, rec.V_len)
    (I, n), = suggest_towers(tower_iet, k_max=1, t_max=11.0)
    tower = build_tower(tower_iet, I, n)
    assert tower.height == len(tower.level_lows) == n
    d = disintegrate(product_sample(50, seed=1), 7)
    assert d.bins == len(d.bounds) - 1 == 7
    seg = orbit(IET, 0.1, 5)
    assert seg.start == float(seg.points[0]) == 0.1
