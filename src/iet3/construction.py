"""The switch construction of self-joinings and its iterative schedule.

At a good renormalization scale N (unit vertical return displacing by a
small rho = N ||N alpha||), the slit splits into points whose length-N
orbit crosses the slit m times and points crossing m+1 times.  On the
m-side, T^m moves points by exactly ||N alpha||; on the (m+1)-side, T^(m+1)
does.  The switch exploits this: the power n = b + (m+1)(a-b) = a + m(a-b)
shadows T^a on a tower A of m-type points and T^b on a set B of (m+1)-type
points, so the graph joining of T^n looks like nu^(a) on half the space and
nu^(b) on the other half.  Iterating the switch cyclically over d strands
drives the strand joinings toward an ergodic limit near the strand average.

All interval data at deep scales is held in exact integer grid coordinates
(the documented rotation numbers are rationals with astronomically large
denominators), on the IET's own circle `Iet3.rotation_counter()`.  Every
question about an arc of the circle is a visit count on that arc, shifted to
start at 0: whether a point and its orbit stay clear of arcs over a window
back and forth (`_SwitchEngine.clear`, one count per arc), or, where the hit
times themselves are needed, the first hit (`_find_J`, both zones and both
directions in one query).  So no
step-by-step orbit iteration ever happens at tower scale.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .arith import _INT, RotationCounter, _check_count, _index
from .iet_core import Iet3, apply, to_rotation
from .joinings import (DiscreteMeasure2D, TEST_FUNCTIONS_2D, disintegrate,
                       fiber_diameter_stats, kr_distance_detailed, kr_lower_witness,
                       kr_upper_binned, mix, product_sample, sample_power_joining,
                       _index_strata, _stratified_points)
from .renorm import _generic_crossing_pair, _ladder, section_record_exact

__all__ = [
    "SwitchSpec",
    "SwitchResult",
    "ScheduleLevel",
    "Schedule",
    "SwitchError",
    "SearchFailure",
    "GeometryTooCoarse",
    "build_switch",
    "verify_switch",
    "run_schedule",
    "ksv_check",
    "non_simplicity_witness",
]


class SwitchError(ValueError):
    pass


class SearchFailure(SwitchError):
    """No admissible renormalization scale found."""


class GeometryTooCoarse(SwitchError):
    """The flow-box length p-hat fell below 1."""


@dataclass(frozen=True)
class SwitchSpec:
    """Parameters of one switch: the exponent pair and the accuracy."""

    a: int
    b: int
    epsilon: float
    require_half: bool = True  # gate scales so lambda(A) reaches V - epsilon

    def __post_init__(self):
        if self.a == self.b:
            raise SwitchError("exponent pair must satisfy a != b")
        if not (0 < self.epsilon < 0.2):
            raise SwitchError("epsilon must lie in (0, c/5) with c = 1")


@dataclass(frozen=True, eq=False)
class SwitchResult:
    """One switch construction on the IET it holds (coordinates rescaled to
    [0,1)); rho, V_len, J, lambda_J and lambda_A are read from its circle."""

    iet: Iet3
    a: int
    b: int
    epsilon: float
    n: int
    m: int
    r: int
    n_steps: int
    window_W: int                     # B stays clear of the zones (3 + W) n_steps
    J_cells: tuple[int, int]          # exact grid endpoints of J in the slit
    lambda_B: float
    lambda_B_exact: bool
    return_lo: int                    # certified lower bound on min return
    verification: Optional[dict] = None  # the `verify_switch` report

    status = property(lambda self: "verified" if (self.verification or {}).get("all_pass")
                      else "constructed-but-unverified")
    _eng = functools.cached_property(lambda self: _SwitchEngine(self.iet))
    # N ||N alpha|| and the closing length, read from the scale's section record
    _record = functools.cached_property(
        lambda self: section_record_exact(self._eng.P, self._eng.Q, self._eng.C, self.n_steps))
    rho = property(lambda self: self._record.rho)
    V_len = property(lambda self: self._record.V_len)
    J = property(lambda self: (self.J_cells[0] / self._eng.C, self.J_cells[1] / self._eng.C))
    lambda_J = property(lambda self: (self.J_cells[1] - self.J_cells[0]) / self._eng.Q)
    # the tower's r levels over J, as a fraction of the IET domain
    lambda_A = property(lambda self: self.r * self.lambda_J / self._eng.kappa)


# ---------------------------------------------------------------------------
# exact engine
# ---------------------------------------------------------------------------

class _SwitchEngine:
    """Integer-exact queries on one IET's own circle, `Iet3.rotation_counter()`;
    the renormalization scale is an argument of each query."""

    def __init__(self, iet: Iet3):
        self.kappa = float(to_rotation(iet).kappa)
        self.rc = iet.rotation_counter()
        self.P, self.Q, self.C = self.rc.P, self.rc.Q, self.rc.C
        self.denoms, self.scales = _ladder(iet)

    # -- scale data ---------------------------------------------------------

    def next_denominator(self, width_cells: int) -> int:
        """First continued-fraction denominator with residue below width."""
        for q in self.denoms:
            if abs(self.rc.signed_residue(q)) < width_cells:
                return q
        raise SearchFailure("rational resolution exhausted at this width")

    # -- zone queries -------------------------------------------------------

    def zones(self, N: int) -> list[tuple[int, int]]:
        """The two boundary arcs (grid cells) where the length-N crossing
        count changes: orbit points there flip chi_K under the N-step shift."""
        s = self.rc.signed_residue(N)
        w = abs(s)
        if s > 0:
            return [((self.Q - w) % self.Q, self.Q), (self.C - w, self.C)]
        return [(0, w), (self.C, self.C + w)]

    def clear(self, us, arcs, back: int, fwd: int) -> np.ndarray:
        """True where a point lies outside every arc [lo, hi) and its orbit
        visits none of them within ``back`` steps backward or ``fwd`` steps
        forward: one count per arc, both directions in one batch."""
        k = len(us)
        steps = np.repeat(np.array([back, fwd], dtype=object), k)
        ok = np.ones(k, dtype=bool)
        for lo, hi in arcs:
            # the arc and the points shifted by -lo: the arc starts at 0
            rc = RotationCounter(self.P, self.Q, int(hi - lo))
            rel = (np.asarray(us, dtype=object) - lo) % self.Q
            hits = rc.visits(np.concatenate([rel, rel]), steps,
                             forward=np.repeat([False, True], k))
            ok &= (rel >= rc.C) & (hits[:k] == 0) & (hits[k:] == 0)
        return ok

    def to_unit(self, us) -> np.ndarray:
        """Grid cells (slit coordinates), as Python ints or as their floats
        (`RotationCounter.orbit`), -> rescaled IET coordinates."""
        arr = np.atleast_1d(np.asarray(us, dtype=float))
        return np.clip(arr / self.C, 0.0, np.nextafter(1.0, 0.0))

    def slit_samples(self, n: int, seed) -> np.ndarray:
        """Stratified-jittered exact grid points in the slit [0, C)."""
        jit = np.random.default_rng(seed).random(n)
        return _INT((np.arange(n) + jit) * self.C / n) % self.C


def _draw_cells(rng, n: int, width: int) -> np.ndarray:
    """n uniform whole cells of [0, width), one draw each, as Python ints:
    widths pass 2^63 (the slit has C ~ 2^81 cells), so no int64 cast."""
    return _INT(rng.random(n) * width)


def _pick_scale(eng: _SwitchEngine, spec: SwitchSpec, S: int,
                width_cap: Optional[float] = None) -> tuple[int, object]:
    """Smallest admissible scale for the exponent scale S: small rho, near
    the half-marked square torus, balanced closing fraction, and
    (optionally) a cap on lambda(J)."""
    rho_max = spec.epsilon / (10 * max(1, S))
    rejections = []
    for N in (q for q in eng.scales if 2 <= q):
        rec = section_record_exact(eng.P, eng.Q, eng.C, N)
        if rec.rho == 0:
            rejections.append((N, "closes up"))
            continue
        if rec.rho > rho_max:
            rejections.append((N, f"rho {rec.rho:.2e} > {rho_max:.2e}"))
            continue
        if rec.dist_hat >= 0.35:
            rejections.append((N, f"dist {rec.dist_hat:.3f} >= delta"))
            continue
        if not (0.2 <= rec.V_len <= 0.8):
            rejections.append((N, f"V {rec.V_len:.3f} unbalanced"))
            continue
        if width_cap is not None and abs(eng.rc.signed_residue(N)) / eng.Q > width_cap:
            rejections.append((N, "lambda(J) above schedule cap"))
            continue
        # the tower measure loses ~V/(kappa N) to crossing-count granularity;
        # keep that below the accuracy target so lambda(A) > V - epsilon holds
        if spec.require_half and N * eng.kappa < 4.0 / spec.epsilon:
            rejections.append((N, f"N={N} too coarse for epsilon={spec.epsilon}"))
            continue
        return N, rec
    raise SearchFailure(f"no admissible scale: {rejections[-6:]}")


def _certify_interval(eng: _SwitchEngine, lo: int, hi: int, zones,
                      back_win: int, fwd_win: int, N: int, m: int) -> bool:
    """Exact certificate: every point of [lo, hi) has crossing count m and
    its orbit avoids the zones over the asymmetric window.  Queried from the
    left endpoint against left-dilated zones, which covers the interval."""
    dil = [(z_lo - (hi - lo), z_hi) for (z_lo, z_hi) in zones]
    if not eng.clear([lo], dil, back_win, fwd_win)[0]:
        return False
    # crossing count at both ends
    return bool(np.all(eng.rc.visits([lo, hi - 1], N) == m))


def _find_J(eng: _SwitchEngine, N: int, m: int, W: int, p_hat: int) -> tuple[int, int]:
    """A base interval of m-type points whose whole tower keeps the crossing
    pattern.

    The crossing pattern is constant along runs of ~(V/rho) N orbit steps
    (between successive visits to the two count-change zones), and the
    tower march needs nearly a full run.  So sample an m-type point, slide
    back along the induced orbit to just past the start of its run, and
    certify the resulting base interval exactly.
    """
    s = abs(eng.rc.signed_residue(N))
    zones = eng.zones(N)
    back_need = (2 + W) * N + 2
    fwd_need = (p_hat + 2 + W) * N + 2
    us_all = eng.slit_samples(64, 303)
    cand = us_all[eng.rc.visits(us_all, N) == m]
    if len(cand) == 0:
        raise SearchFailure("no m-type candidate centers")
    horizon = fwd_need + back_need + 4 * N
    # both zones are arcs of width s: one counter gives the first hit of
    # each zone, backward and forward, in one query
    rel = np.concatenate([(cand - z_lo) % eng.Q for z_lo, _ in zones] * 2)
    hits = RotationCounter(eng.P, eng.Q, s).first_hit(
        rel, horizon, np.repeat([False, True], 2 * len(cand)))
    j_back, j_fwd = hits.reshape(2, 2, len(cand)).min(axis=1)
    for u, jb, jf in zip(cand, j_back, j_fwd):
        run = int(jb) + int(jf)
        if run < back_need + fwd_need + 4:
            continue
        # slide back along the induced orbit to backward clearance ~back_need
        excess = int(jb) - (back_need + 4)
        if excess > 0:
            steps_back = int(eng.rc.visits([u], excess, forward=False)[0])
            y = int(eng.rc.power([u], -steps_back)[0])
        else:
            y = int(u)
        for frac_w in (93, 80, 60, 45):
            width = max(2, (s * frac_w) // 100)
            if _certify_interval(eng, y, y + width, zones,
                                 back_need, fwd_need, N, m):
                return y, y + width
    raise SearchFailure("no tower base certified at this scale")


def _materialize_B(eng: _SwitchEngine, N: int, m: int, W: int) -> Optional[list]:
    """Cell runs [lo, hi) of the slit's (m+1)-type points whose orbit stays
    out of both zones for (3 + W) N steps either way, when affordable.  The
    cells that enter a zone are the arcs (z_lo - jP) mod Q + [0, w), so the
    clear ones are the gaps between arcs; the crossing count changes only at
    cells that enter a zone, so one count per run classifies it.

    No gap wraps past Q.  Whatever the sign of the residue s = NP mod Q,
    one zone is [0, w) or [Q - w, Q) and the other of these two arcs is its
    image N steps away, which the window (at least 3N) reaches: one arc
    starts at 0 and one ends at Q."""
    window = (3 + W) * N
    if 2 * window > 400_000:
        return None
    P, Q, C = eng.P, eng.Q, eng.C
    zones = eng.zones(N)
    w = zones[0][1] - zones[0][0]
    starts = sorted({(z_lo - j * P) % Q for z_lo, _ in zones
                     for j in range(-window, window + 1)})
    gaps = [(s0 + w, s1) for s0, s1 in zip(starts, starts[1:]) if s1 > s0 + w]
    clear = [(lo, min(hi, C)) for lo, hi in gaps if lo < min(hi, C)]
    if not clear:
        return []
    cc = eng.rc.visits([lo for lo, _ in clear], N)
    return [run for run, c in zip(clear, cc) if c == m + 1]


def _sample_B(eng: _SwitchEngine, N: int, m: int, W: int, n_samples: int,
              seed) -> tuple[np.ndarray, float]:
    """Rejection-sample (m+1)-type window-clear points; also return the
    Monte-Carlo estimate of the B fraction within the slit."""
    # the zones padded by one cell on each side
    arcs = [(z_lo - 1, z_hi + 1) for (z_lo, z_hi) in eng.zones(N)]
    window = (3 + W) * N
    got, tried = np.empty(0, dtype=object), 0
    for round_i in range(12):
        if len(got) >= n_samples:
            break
        us = eng.slit_samples(max(2 * n_samples, 1024), _mix_seed(seed, round_i))
        mask = eng.rc.visits(us, N) == m + 1
        ok = np.zeros(len(us), dtype=bool)
        if np.any(mask):
            ok[mask] = eng.clear(us[mask], arcs, window, window)
        tried += len(us)
        got = np.concatenate([got, us[ok]])
    if not len(got):
        raise SearchFailure("no B-side points found")
    return got[:n_samples], len(got) / tried


# ---------------------------------------------------------------------------
# the switch
# ---------------------------------------------------------------------------

def build_switch(iet: Iet3, spec: SwitchSpec,
                 width_cap: Optional[float] = None,
                 verify_samples: int = 2000,
                 pair_scale: Optional[tuple[int, int]] = None,
                 seed=2024) -> SwitchResult:
    """Construct the switch data (n, r, J, A, B) for the exponent pair.

    Follows the flow-box recipe: at an admissible scale the m-type points
    tile a tower over a slit interval J of width ||N alpha||; the power
    n = b + (m+1)(a-b) shadows T^a there and T^b on the complementary
    (m+1)-type set.  All claims are re-verified on ``verify_samples``
    samples and recorded; with fewer than one the switch is returned
    constructed-but-unverified.  ``pair_scale`` = (S, W) overrides the
    admissibility scale and window width when the geometry is shared among
    several strand pairs.
    """
    eng = _SwitchEngine(iet)
    S, W = pair_scale or (abs(spec.a) + abs(spec.b), abs(spec.a - spec.b))
    N, rec = _pick_scale(eng, spec, S, width_cap=width_cap)
    m, _, _ = _generic_crossing_pair(eng.rc.visits(eng.slit_samples(256, 77), N))
    p_hat = int(rec.V_len / rec.rho) - 2 * (2 + W) - 3
    if p_hat < 1:
        raise GeometryTooCoarse(f"p_hat = {p_hat} < 1 at scale N={N}")
    sigma = abs(eng.rc.signed_residue(N))

    # certified return-time bound for width-sigma intervals
    q_next = eng.next_denominator(sigma)
    ret_counts = eng.rc.visits(eng.slit_samples(32, 909), q_next)
    boundary = RotationCounter(eng.P, eng.Q, 2 * sigma + 2)
    var_bound = max(boundary.visits([0, eng.C - sigma - 1], q_next)) + 2
    return_lo = min(ret_counts) - var_bound

    r = m * p_hat
    if 1.5 * r > return_lo:
        # keep the return-time guarantee structural: shorten the tower to the
        # periods p with 1.5 m p <= return_lo, or refuse it when not one fits
        p_hat = (2 * return_lo) // (3 * m)
        if p_hat < 1:
            raise GeometryTooCoarse(f"p_hat = {p_hat} < 1 at return bound {return_lo}, N={N}")
        r = m * p_hat
    n = _exponent(spec.a, spec.b, m)
    J_cells = _find_J(eng, N, m, W, p_hat)
    B_iv = _materialize_B(eng, N, m, W)
    lam_B_exact = B_iv is not None
    if lam_B_exact:
        lam_B = sum(hi - lo for lo, hi in B_iv) / eng.C
    else:
        _, lam_B = _sample_B(eng, N, m, W, 64, (seed, "bfrac"))

    res = SwitchResult(
        iet=iet, a=spec.a, b=spec.b, epsilon=spec.epsilon, n=n, m=m, r=r, n_steps=N,
        window_W=W, J_cells=J_cells, lambda_B=lam_B, lambda_B_exact=lam_B_exact,
        return_lo=return_lo)
    return _verified(res, verify_samples, seed)


def _exponent(a: int, b: int, m: int) -> int:
    """The switch power b + (m+1)(a-b): T^a on the m-type tower, T^b off it."""
    return b + (m + 1) * (a - b)


def _verified(res: SwitchResult, samples: int, seed) -> SwitchResult:
    """The switch with its `verify_switch` report; with fewer than one
    sample it stays constructed-but-unverified."""
    if samples < 1:
        return res
    return replace(res, verification=verify_switch(res, samples, seed=seed))


def _sample_A_points(eng: _SwitchEngine, res: SwitchResult, n_samples: int,
                     seed) -> np.ndarray:
    """Exact grid samples of A = union of the r tower levels over J."""
    rng = np.random.default_rng(_mix_seed(seed, "A"))
    j_lo, j_hi = res.J_cells
    base = j_lo + _draw_cells(rng, n_samples, j_hi - j_lo)
    return eng.rc.power(base, _draw_cells(rng, n_samples, max(res.r, 1)))


def _mix_seed(seed, tag) -> int:
    """32-bit seed derived from ``(seed, tag)`` by SHA-256 of the repr of its
    canonical form, where NumPy scalars become Python ints and floats, so
    the derived seed does not follow NumPy's scalar repr."""
    digest = hashlib.sha256(repr(_canonical((seed, tag))).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _canonical(v):
    if type(v) in (tuple, list):
        return type(v)(_canonical(x) for x in v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


def verify_switch(res: SwitchResult, samples: int, seed=5150) -> dict:
    """Re-check the switch postconditions on fresh samples of its IET.

    The KR window check reads orbit joinings over the whole window [0, L),
    L = m, one index per stratum of `_index_strata` (every index when L <=
    `_ORBIT_ATOMS`), and compares kr_A and kr_B with 2 eps + 4/sqrt(L) (L
    capped at `_ORBIT_ATOMS`).  The slack reads that nominal count, which is
    at least the atoms the strata keep (strata that round to one index
    merge), so it is the smaller slack and the stricter check.  For L <= 4
    the bound is at least 2, the taxicab diameter of the unit square, so the
    check cannot fail there; ``checks["kr_vacuous"]`` says when that is so.
    It needs at least one sample (ValueError otherwise)."""
    _check_count("samples", samples)
    eng = res._eng
    checks = {}
    # shadowing on A: d(T^n x, T^a x) < eps for sampled x in A
    uA = _sample_A_points(eng, res, samples, _mix_seed(seed, 1))
    gap_A = _shadow_gap(eng, uA, res.n, res.a)
    # shadowing on B with exponent b
    uB, _ = _sample_B(eng, res.n_steps, res.m, res.window_W,
                      min(samples, 2000), _mix_seed(seed, 2))
    gap_B = _shadow_gap(eng, uB, res.n, res.b)
    checks["shadow_A_q95"] = float(np.quantile(gap_A, 0.95))
    checks["shadow_B_q95"] = float(np.quantile(gap_B, 0.95))
    checks["shadow_A_frac_ok"] = float(np.mean(gap_A < res.epsilon))
    checks["shadow_B_frac_ok"] = float(np.mean(gap_B < res.epsilon))
    # KR window condition on a few sampled points per side, each orbit
    # joining (one index in each of min(L, _ORBIT_ATOMS) strata of the
    # window) against one reference joining
    atoms = min(res.m, _ORBIT_ATOMS)
    for side, us, expo in (("A", uA[:6], res.a), ("B", uB[:6], res.b)):
        ref = sample_power_joining(res.iet, expo, atoms, seed=_mix_seed(seed, ("ref", side)))
        vals = [kr_upper_binned(_orbit_joining_at(eng, u, res.n, _index_strata(
                    np.random.default_rng(_mix_seed(seed, (side, u % 997))), atoms, res.m)),
                    ref, bins=128)
                for u in us]
        checks[f"kr_{side}"] = float(np.max(vals)) if vals else float("nan")
    checks["return_margin"] = float(res.return_lo - 1.5 * res.r)
    checks["lambda_A"] = res.lambda_A
    checks["lambda_B"] = res.lambda_B
    checks["kr_bound"] = 2 * res.epsilon + 4 / math.sqrt(max(atoms, 1))
    checks["kr_vacuous"] = checks["kr_bound"] >= 2
    ok = (checks["shadow_A_frac_ok"] >= 0.95 and checks["shadow_B_frac_ok"] >= 0.95
          and checks["return_margin"] >= 0
          and checks["kr_A"] <= checks["kr_bound"] and checks["kr_B"] <= checks["kr_bound"])
    return {"all_pass": bool(ok), "checks": checks}


def _shadow_gap(eng: _SwitchEngine, us, n: int, a: int) -> np.ndarray:
    return _gap(eng, eng.rc.power(us, n), eng.rc.power(us, a))


def _gap(eng: _SwitchEngine, pn, pa) -> np.ndarray:
    """Circle distance between grid positions, in IET coordinates."""
    d = np.abs(pn - pa).astype(float)
    d = np.minimum(d, eng.Q - d) / eng.Q
    return d / eng.kappa


# atoms of a grid orbit joining: a longer window is sampled by strata
_ORBIT_ATOMS = 20000


def _orbit_joining_at(eng: _SwitchEngine, u0: int, n: int,
                      idx: np.ndarray) -> DiscreteMeasure2D:
    """Atoms (T^i u0, T^(i+n) u0) at sorted distinct indices i >= 0, n of any
    sign: two `RotationCounter.orbit` evaluations of the window at idx, read
    as floats without Python ints where the circle allows (`arith._exit`)."""
    return DiscreteMeasure2D.equal_weight(*(eng.to_unit(eng.rc.orbit(u0, s, idx, floats=True))
                                            for s in (0, n)))


# ---------------------------------------------------------------------------
# the schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleLevel:
    """Level k of a schedule: its switch and the strand exponents it gives."""

    k: int
    exponents: tuple
    U_mass: Optional[float]          # None while the level is only planned
    switch: SwitchResult

    # the switch's scale and crossing count, which the reports list per level
    n_steps = property(lambda self: self.switch.n_steps)
    m = property(lambda self: self.switch.m)


@dataclass(frozen=True, eq=False)
class Schedule:
    """A schedule on one IET: its levels and its level-K strands.  A planned
    schedule (`_plan_schedule`) holds unverified switches and no measures yet."""

    iet: Iet3
    initial_exponents: tuple
    eps: tuple                       # level k's epsilon eps[0] / 2^(k-1), k = 1..K
    levels: list
    strand_measures: Optional[list]  # DiscreteMeasure2D per strand at level K
    abort_reason: str = ""

    aborted = property(lambda self: bool(self.abort_reason))
    # the strands' equal mixture, None while the schedule is only planned
    average = functools.cached_property(lambda self: None if self.strand_measures is None
                                        else mix(*self.strand_measures))


def run_schedule(iet: Iet3, exponents, eps: float, K_levels: int,
                 N_atoms: int = 20000, seed=7,
                 verify_samples: int = 1500) -> Schedule:
    """Iterate the switch cyclically over d strands for K_levels levels.

    Level k runs at accuracy eps / 2^(k-1) at one renormalization scale (the
    strand pairs share the geometry; the scale must be admissible for the
    largest pair), producing per-strand exponents n_k.  Returns the
    per-level records plus the level-K strand joinings sampled at N_atoms.
    """
    return _finish_schedule(_plan_schedule(iet, exponents, eps, K_levels, seed),
                            N_atoms, seed, verify_samples)


def _plan_schedule(iet: Iet3, exponents, eps: float, K_levels: int, seed) -> Schedule:
    """The levels of `run_schedule`, constructed only: nothing in them reads
    a verification, so `_finish_schedule` can verify the plan it keeps."""
    exps = [_index(e) for e in exponents]
    d = len(exps)
    if d < 2:
        raise SwitchError("need at least two strands")
    plan = Schedule(iet=iet, initial_exponents=tuple(exps), levels=[], strand_measures=None,
                    eps=tuple(float(eps) / 2 ** (k - 1) for k in range(1, K_levels + 1)))
    for k, eps_k in enumerate(plan.eps, start=1):
        pairs = [(exps[(l - 1) % d], exps[l]) for l in range(d)]
        S = max(abs(a) + abs(b) for a, b in pairs)
        W = max(abs(a - b) for a, b in pairs)
        width_cap = eps_k / plan.levels[-1].switch.r if plan.levels else None
        try:
            # admissibility is governed by the largest strand pair; the
            # geometry (scale, m, J, A, B) is shared across strands.  The
            # schedule only needs both sets bounded below in measure, so
            # coarse scales with granular towers are allowed.
            spec = SwitchSpec(a=pairs[0][0], b=pairs[0][1], epsilon=eps_k,
                              require_half=False)
            sw = build_switch(iet, spec, width_cap=width_cap,
                              verify_samples=0, pair_scale=(S, W),
                              seed=_mix_seed(seed, ("lvl", k)))
        except SwitchError as exc:
            return replace(plan, abort_reason=f"level {k}: {exc}")
        exps = [_exponent(a, b, sw.m) for a, b in pairs]
        plan.levels.append(ScheduleLevel(k=k, exponents=tuple(exps), U_mass=None, switch=sw))
    return plan


def _finish_schedule(plan: Schedule, N_atoms: int, seed, verify_samples: int = 1500) -> Schedule:
    """Verify the planned levels in order, measure their exceptional sets
    and sample the strands on the shared grid.  A level whose verification
    raises ends the schedule there, as an aborted construction does."""
    eng = _SwitchEngine(plan.iet)
    exps = plan.initial_exponents
    levels, reason = [], plan.abort_reason
    for lv in plan.levels:
        try:
            sw = _verified(lv.switch, verify_samples, _mix_seed(seed, ("lvl", lv.k)))
        except SwitchError as exc:
            reason = f"level {lv.k}: {exc}"
            break
        # exceptional set, measured: points where neither switching shadow
        # holds (the set-theoretic gap 1 - lambda_A - lambda_B is dominated
        # by tower granularity, so it is not the measure of this set)
        u_mass = _measured_U(eng, lv, exps, seed=_mix_seed(seed, ("U", lv.k)))
        levels.append(replace(lv, U_mass=u_mass, switch=sw))
        exps = lv.exponents
    # every strand on one shared stratified grid (common random numbers),
    # the grid the witness compares the base strands on
    gseed = _mix_seed(seed, "sharedgrid")
    strand_measures = [sample_power_joining(plan.iet, int(e), N_atoms, seed=gseed)
                       for e in exps]
    return replace(plan, levels=levels, strand_measures=strand_measures, abort_reason=reason)


def _measured_U(eng: _SwitchEngine, lv: ScheduleLevel, prev: tuple, seed=0) -> float:
    """Fraction of uniform slit points where no strand's switching shadow
    holds at the level's accuracy: strand l's exponent n shadows T^a or T^b
    of its pair (a, b) = (prev[l - 1], prev[l]) of the previous level's
    exponents, each power solved once over the samples."""
    us = eng.slit_samples(2000, seed)
    at = {e: eng.rc.power(us, e) for e in {*lv.exponents, *prev}}
    bad = np.ones(len(us), dtype=bool)
    for l, n in enumerate(lv.exponents):
        bad &= np.minimum(_gap(eng, at[n], at[prev[l - 1]]),
                          _gap(eng, at[n], at[prev[l]])) >= lv.switch.epsilon
    return float(np.mean(bad))


def ksv_check(s: Schedule, seed=11) -> dict:
    """Margins for the abstract-criterion conditions (a)-(e), (A), (B).  (c),
    (A) and (B) judge each level by its own switch's epsilon; (c) and (e)
    report the schedule's planned epsilons."""
    rep = {"conditions": {}, "all_pass": True}
    if not s.levels:
        rep["conditions"] = {c: {"pass": True, "note": "vacuous (no levels)"}
                             for c in ("a", "b", "c", "d", "e", "A", "B")}
        return rep

    def put(name, ok, **kw):
        rep["conditions"][name] = {"pass": bool(ok), **kw}
        rep["all_pass"] &= bool(ok)

    sws = [lv.switch for lv in s.levels]
    d = len(s.initial_exponents)
    cs = [min(sw.lambda_A, sw.lambda_B) for sw in sws]
    put("a", min(cs) > 0, c_max=float(min(cs)))
    put("b", all(sw.return_lo >= 1.5 * sw.r for sw in sws),
        margins=[float(sw.return_lo - 1.5 * sw.r) for sw in sws])
    put("c", all(lv.U_mass < lv.switch.epsilon + 0.05 for lv in s.levels),
        u_masses=[lv.U_mass for lv in s.levels], epsilons=list(s.eps))
    decay = [sw.r * sum(later.lambda_J for later in sws[i + 1:])
             for i, sw in enumerate(sws)]
    put("d", all(b < a + 1e-18 for a, b in zip(decay, decay[1:])) or len(decay) < 2,
        values=[float(v) for v in decay])
    put("e", all(e2 <= e1 + 1e-15 for e1, e2 in zip(s.eps, s.eps[1:])),
        total=float(sum(s.eps)))

    eng = _SwitchEngine(s.iet)
    # (A): fiber switching on sampled A_k and B_k
    margins_A = []
    for i, lv in enumerate(s.levels):
        prev = (s.levels[i - 1].exponents if i > 0 else s.initial_exponents)
        uA = _sample_A_points(eng, lv.switch, 200, _mix_seed(seed, ("ksvA", lv.k)))
        uB, _ = _sample_B(eng, lv.n_steps, lv.m, lv.switch.window_W, 200,
                          _mix_seed(seed, ("ksvB", lv.k)))
        worst = 0.0
        for l in range(d):
            gapA = _shadow_gap(eng, uA, lv.exponents[l], prev[(l - 1) % d])
            gapB = _shadow_gap(eng, uB, lv.exponents[l], prev[l])
            worst = max(worst, float(np.quantile(gapA, 0.95)),
                        float(np.quantile(gapB, 0.95)))
        margins_A.append(worst)
    put("A", all(w < sw.epsilon + 1e-12 for w, sw in zip(margins_A, sws)),
        worst_fiber_gaps=margins_A)
    # (B): Birkhoff window estimate at L = r_{k+1}/9, one index in each
    # of min(L, _ORBIT_ATOMS) strata of the window.  The estimator noise
    # floor is calibrated against an independent same-law sample with
    # one uniform grid point per atom the strata kept.  The strata split
    # time, not the circle, so the null matches them in atom count and
    # draws each position independently from the law the orbit samples.
    vals_B = []
    calib = 0.0
    for i, lv in enumerate(s.levels[:-1]):
        L = max(1, sws[i + 1].r // 9)
        u0 = int(_sample_A_points(eng, lv.switch, 1, _mix_seed(seed, ("bk", lv.k)))[0])
        for l in range(d):
            rng = np.random.default_rng(_mix_seed(seed, ("B", lv.k, l)))
            emp = _orbit_joining_at(eng, u0, lv.exponents[l],
                                    _index_strata(rng, min(L, _ORBIT_ATOMS), L))
            ref = sample_power_joining(s.iet, lv.exponents[l], len(emp.ws),
                                       seed=_mix_seed(seed, ("Bref", lv.k, l)))
            null = _random_graph_sample(eng, lv.exponents[l], len(emp.ws),
                                        _mix_seed(seed, ("Bnull", lv.k, l)))
            vals_B.append((kr_upper_binned(emp, ref, bins=128), lv.switch.epsilon))
            calib = max(calib, kr_upper_binned(null, ref, bins=128))
    put("B", all(v <= e + calib + 1e-9 for v, e in vals_B),
        values=[float(v) for v, _ in vals_B], noise_floor=float(calib))
    return rep


def _random_graph_sample(eng: _SwitchEngine, expo: int, n: int,
                         seed) -> DiscreteMeasure2D:
    """Graph joining of T^expo sampled at uniformly random grid points."""
    us = _draw_cells(np.random.default_rng(seed), n, eng.C)
    ys = eng.rc.power(us, expo)
    return DiscreteMeasure2D.equal_weight(eng.to_unit(us), eng.to_unit(ys))


# ---------------------------------------------------------------------------
# the witness
# ---------------------------------------------------------------------------

# the strands the witness and the `schedule` command start from: the
# identity and T, whose half mixture the witness approaches
_STRANDS = (0, 1)


def _median_displacement(iet: Iet3) -> float:
    xs = _stratified_points(20001, 13)
    return float(np.median(np.abs(apply(iet, xs.copy()) - xs)))


def non_simplicity_witness(iet: Iet3, K_levels: int = 3, N: int = 100_000,
                           seed=7) -> dict:
    """Run the full pipeline and report the four witness items.

    A pilot schedule fixes the empirical decay constant; the accuracy budget
    is then derived from the displacement median and the final schedule (the
    pilot is reused when already within budget, and verified only then)
    feeds the four checks:
    separation from the product, closeness to the half mixture, fat fibers,
    and Birkhoff agreement across starting atoms.
    """
    _check_count("K_levels", K_levels, low=2)
    med = _median_displacement(iet)
    # the pilot is only planned: it is verified and sampled when it is the
    # schedule the report keeps; a pilot over budget is planned again, by
    # `run_schedule`, at the budget
    pilot = _plan_schedule(iet, _STRANDS, 0.025, K_levels, seed)
    sched = None
    if not pilot.aborted:
        divs, gaps, rho_fit, C_fit = _decay_fit(pilot, N, seed)
        # the halving schedule continues past level K with tail sum eps_K, so
        # the displacement condition is enforced against the full series
        tail_factor = (sum(pilot.eps) + pilot.eps[-1]) / sum(pilot.eps)
        eps_budget_total = med / (40 * C_fit * tail_factor)
        if sum(pilot.eps) > eps_budget_total:
            scale = eps_budget_total / sum(pilot.eps) * 0.95
            sched = run_schedule(iet, _STRANDS, pilot.eps[0] * scale, K_levels,
                                 N_atoms=N, seed=seed)
    if sched is None:
        sched = _finish_schedule(pilot, N, seed)
    if sched.aborted:
        return {"passed": False, "aborted": True, "reason": sched.abort_reason,
                "schedule": sched, "median_displacement": med}

    budget = C_fit * (sum(sched.eps) + rho_fit ** K_levels)
    # the schedule's strands and the base strands on one shared stratified
    # grid (common random numbers): the coupling bound then matches fibers
    # bin-for-bin with no imbalance noise
    avg = sched.average
    gseed = _mix_seed(seed, "sharedgrid")
    base_shared = [sample_power_joining(iet, e, N, seed=gseed)
                   for e in sched.initial_exponents]
    base_mix_shared = mix(*base_shared)
    # (i) separation from the empirical product: duality lower bound with the
    # witness function built on the support of the final average
    prod = product_sample(N, _mix_seed(seed, "prod"))
    d_prod = kr_lower_witness(prod, avg)
    # (ii) closeness to the half mixture of the initial strands
    d_mix = kr_upper_binned(avg, base_mix_shared, bins=1024)
    # (iii) fiber diameters
    thresh = med / 2
    stats = fiber_diameter_stats(disintegrate(avg, 128), threshold=thresh)
    # (iv) Birkhoff agreement across starting atoms (long window, stratified
    # index subsample through the exact power kernel)
    bk = _birkhoff_agreement(sched, n_atoms=10, seed=_mix_seed(seed, "bk"))
    items = {
        "i_product_separation": {"value": float(d_prod), "threshold": 4 * budget,
                                 "pass": bool(d_prod > 4 * budget)},
        "ii_mixture_closeness": {"value": float(d_mix), "budget": float(budget),
                                 "pass": bool(d_mix <= budget)},
        "iii_fiber_fraction": {"value": stats["fraction_above"],
                               "threshold": 0.7, "diam_floor": thresh,
                               "pass": bool(stats["fraction_above"] >= 0.7)},
        "iv_birkhoff_spread": {"value": bk, "threshold": 0.05,
                               "pass": bool(bk <= 0.05)},
    }
    passed = all(v["pass"] for v in items.values())
    return {
        "passed": bool(passed), "aborted": False, "items": items,
        "C_fit": C_fit, "rho_fit": rho_fit, "eps": list(sched.eps),
        "budget": float(budget), "median_displacement": med,
        "divergences": [float(d) for d in divs],
        "strand_gaps": [float(g) for g in gaps],
        "schedule": sched,
        "keep_away_ok": bool(med > 40 * C_fit * (sum(sched.eps) + sched.eps[-1])),
    }


def _decay_fit(pilot: Schedule, N: int, seed):
    """Strand divergences from the base mixture (exact grid solves) and
    functional strand gaps (integrals of the 1-Lipschitz family -- the
    quantities the averaging recursion actually contracts) at each level of
    the pilot, with the fitted contraction rate and decay constant."""
    # the half mixture of the initial strands, thinned for the fit solves:
    # stratified atom lists are ordered by position, so thinning must stride
    # rather than truncate
    fit_N = min(N, 20000)
    stride = max(1, N // fit_N)
    base = [sample_power_joining(pilot.iet, e, N, seed=_mix_seed(seed, f"b{e}"))
            for e in pilot.initial_exponents]
    base_small = mix(*(DiscreteMeasure2D.equal_weight(b.xs[::stride], b.ys[::stride])
                       for b in base))
    divs, gaps = [], []
    for k in range(len(pilot.levels) + 1):
        exps = pilot.initial_exponents if k == 0 else pilot.levels[k - 1].exponents
        ms = [sample_power_joining(pilot.iet, e, fit_N, seed=_mix_seed(seed, ("div", k, i)))
              for i, e in enumerate(exps)]
        divs.append(max(kr_distance_detailed(m_, base_small, method="grid", grid=96)["value"]
                        for m_ in ms))
        gaps.append(_functional_gap(ms[0], ms[1]))
    ratios = [g2 / g1 for g1, g2 in zip(gaps, gaps[1:]) if g1 > 1e-9]
    rho_fit = float(np.clip(np.exp(np.mean(np.log(np.maximum(ratios, 1e-6)))),
                            1e-3, 0.999)) if ratios else 0.5
    # fit the constant on levels below the last, then check the last level
    # against the extrapolated budget
    C_fit = max(d / (sum(pilot.eps[:k]) + rho_fit ** k)
                for k, d in enumerate(divs) if 1 <= k < len(pilot.levels))
    return divs, gaps, rho_fit, float(max(C_fit, 0.05))


def _functional_gap(m1: DiscreteMeasure2D, m2: DiscreteMeasure2D) -> float:
    """Max difference of the 1-Lipschitz test integrals between measures."""
    return max(abs(float(np.sum(m1.ws * fn(m1.xs, m1.ys)))
                   - float(np.sum(m2.ws * fn(m2.xs, m2.ys))))
               for fn in TEST_FUNCTIONS_2D.values())


def _birkhoff_agreement(sched: Schedule, n_atoms: int, seed) -> float:
    """Max spread of long-window orbit averages of the 2-D test family over
    starting atoms of the final strand joinings.

    The window is far beyond stepwise iteration, so averages are estimated
    on a stratified index subsample evaluated through the exact power
    kernel; the subsample noise (~1/sqrt(subsample)) is well below the
    agreement threshold.
    """
    rng = np.random.default_rng(seed)
    exps = sched.levels[-1].exponents if sched.levels else sched.initial_exponents
    eng = _SwitchEngine(sched.iet)
    idx = _index_strata(rng, 12000, 10**12)
    avs = []                          # one row of test averages per atom
    for i, u0 in enumerate(_draw_cells(rng, n_atoms, eng.C)):
        m = _orbit_joining_at(eng, u0, exps[i % len(exps)], idx)
        avs.append([np.mean(fn(m.xs, m.ys)) for fn in TEST_FUNCTIONS_2D.values()])
    return float(np.max(np.ptp(avs, axis=0)))
