"""Marked flat tori and renormalization of 3-IETs.

A 3-IET embeds as a slit on the torus R^2 / [[1,-alpha],[0,1]] Z^2 with two
marked points |K| apart on a horizontal.  The diagonal flow g_t = diag(e^t,
e^-t) renormalizes the vertical dynamics; times where the flowed torus is
nearly the half-marked square torus and lies in the section (the time-1
vertical return lands on the same horizontal, displaced by at most 1/2) are
where the tower/switch constructions operate.

Admissible times turn out to be exactly t = ln N for integers N whose
rotation multiple N*alpha is close to an integer; the scan takes as
candidates the continued-fraction denominators of the circle, times k <= 6,
and evaluates each with exact integer arithmetic (floats cannot resolve the
lattice residuals at deep scales).  The denominators are expanded once, in
`_ladder`, which the switch construction reads too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import RotationCounter, _check_count, cf_convergents, cf_expansion
from .iet_core import Iet3, to_rotation

__all__ = [
    "MarkedTorus",
    "RenormTime",
    "RenormScan",
    "FlowRangeError",
    "torus_of_iet",
    "apply_gt",
    "reduce",
    "dist_to_hat",
    "scan_renorm_times",
    "section_record_exact",
]

# weights of the component terms in the distance to the half-marked square
# torus.  The basis-shape term and the vertical marked offset are weighted
# below the horizontal marked offset: the horizontal offset drives the
# crossing fractions of the construction, while a vertical offset only
# lengthens the vertical closing segment, which vertical trajectories never
# cross.  Any fixed positive weights give a proper gauge on the quotient
# (zero exactly on the half-marked square torus); these are calibrated so
# that usable windows of typical parameters sit at comparable scales.
BASIS_WEIGHT = 0.5
VERT_MARK_WEIGHT = 0.4

SECTION_V2_TOL = 1e-9


class FlowRangeError(ValueError):
    """|t| too large for diag(e^t, e^-t) in binary64."""


@dataclass(frozen=True, eq=False)
class MarkedTorus:
    """Unit-covolume lattice basis (columns) plus marked-point offset."""

    basis: np.ndarray
    marked: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float).reshape(2, 2)
        m = np.asarray(self.marked, dtype=float).reshape(2)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "marked", m)
        if abs(abs(np.linalg.det(b)) - 1.0) > 1e-9:
            raise ValueError("basis must have |det| = 1")


@dataclass(frozen=True)
class RenormScan:
    """Full scan output: accepted times plus per-candidate rejections."""

    times: list[RenormTime]
    rejections: list[tuple[float, str]] = field(default_factory=list)


def torus_of_iet(iet: Iet3) -> MarkedTorus:
    """The marked torus carrying the IET's rotation suspension."""
    rep = to_rotation(iet)
    a, k = float(rep.alpha), float(rep.kappa)
    return MarkedTorus(basis=np.array([[1.0, -a], [0.0, 1.0]]),
                       marked=np.array([k, 0.0]))


def apply_gt(torus: MarkedTorus, t: float) -> MarkedTorus:
    """Apply the diagonal flow diag(e^t, e^-t) to basis and marked point."""
    if abs(t) > 500:
        raise FlowRangeError(f"flow time {t} overflows binary64")
    g = np.array([[math.exp(t), 0.0], [0.0, math.exp(-t)]])
    return MarkedTorus(basis=g @ torus.basis, marked=g @ torus.marked)


def reduce(torus: MarkedTorus) -> MarkedTorus:
    """Lagrange-Gauss reduce the basis (`_lagrange`, Euclidean norm); move
    marked into the centered fundamental parallelogram.  Represents the same
    marked torus."""
    b1, b2 = _lagrange(*torus.basis.T.tolist(), lambda w: math.hypot(*w))
    B = np.column_stack([b1, b2])
    coeffs = np.linalg.solve(B, torus.marked)
    w = torus.marked - B @ np.round(coeffs)
    return MarkedTorus(basis=B, marked=w)


_SQUARE_BASES = [np.array(m, dtype=float) for m in (
    [[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[1, 0], [0, -1]], [[-1, 0], [0, 1]],
    [[0, 1], [1, 0]], [[0, -1], [-1, 0]], [[0, 1], [-1, 0]], [[0, -1], [1, 0]],
)]


def _basis_term(B_red: np.ndarray) -> float:
    return min(float(np.linalg.norm(B_red - S)) for S in _SQUARE_BASES)


def _marked_term(w_red: np.ndarray) -> float:
    """Min over (kx, sx, ky) of max(horizontal, vertical offset): the two
    are chosen independently, so it is the max of the two minima.  The
    offsets are taken on Python floats, the same binary64 arithmetic as on
    NumPy scalars at a fraction of the cost per operation."""
    x, y = float(w_red[0]), float(w_red[1])
    dx = min(abs(x - sx - kx) for kx in range(-3, 4) for sx in (0.5, -0.5))
    dy = min(VERT_MARK_WEIGHT * abs(y - ky) for ky in range(-3, 4))
    return max(dx, dy)


def dist_to_hat(torus: MarkedTorus) -> float:
    """Distance to the square torus with marked points 1/2 apart on a
    horizontal: max of a (weighted) basis-shape term over the 8 square
    symmetries and the marked-offset distance to the nearest half-point."""
    red = reduce(torus)
    return max(BASIS_WEIGHT * _basis_term(red.basis), _marked_term(red.marked))


def _crossing_samples(iet: Iet3, n_steps: int, samples: int = 128) -> np.ndarray:
    """Crossing counts at a jittered stratified grid of slit points, as
    `visits` returns them (Python ints).

    Jitter breaks resonance between the sample grid and the near-rational
    cell structure at section times, which would otherwise alias the counts.
    """
    k = float(to_rotation(iet).kappa)
    jit = np.random.default_rng(1301).random(samples)
    xs = (np.arange(samples) + jit) / samples * k
    rc = iet.rotation_counter()
    return rc.visits(rc.lift(xs), n_steps)


def _generic_crossing_pair(counts: np.ndarray) -> tuple[int, float, float]:
    """The dominant pair (m, m+1) and their sample fractions."""
    vals, freq = np.unique(counts, return_counts=True)
    best_m, best_w = int(vals[0]), -1.0
    for v in vals:
        w = freq[vals == v].sum() + freq[vals == v + 1].sum()
        if w > best_w:
            best_w, best_m = float(w), int(v)
    n = len(counts)
    f_m = float(np.count_nonzero(counts == best_m)) / n
    f_m1 = float(np.count_nonzero(counts == best_m + 1)) / n
    return best_m, f_m, f_m1


# ---------------------------------------------------------------------------
# exact candidate evaluation
# ---------------------------------------------------------------------------

def _lagrange(u, v, norm) -> tuple:
    """Lagrange reduction of a lattice basis (u, v) of pairs under a norm:
    float pairs under the Euclidean norm (`reduce`), or integer pairs under
    a scaled norm (`section_record_exact`).

    Only norms and dot products go through the norm, so integer vectors stay
    exact and deep-scale cancellation costs nothing.
    """
    def sdot(a, b):
        return (norm((a[0] + b[0], a[1] + b[1]))**2 - norm(a)**2 - norm(b)**2) / 2

    if norm(u) > norm(v):
        u, v = v, u
    for _ in range(512):
        nu2 = norm(u)**2
        if nu2 == 0:
            break
        mu = round(sdot(u, v) / nu2)
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        if norm(v)**2 >= nu2:
            break
        u, v = v, u
    return u, v


@dataclass(frozen=True)
class _SectionRecord:
    rho: float            # horizontal displacement of the unit return
    marked_term: float
    dist_hat: float
    V_len: float


@dataclass(frozen=True, eq=False)
class RenormTime:
    """An accepted renormalization time t = ln(n_steps) in the section: its
    step count and its section record.  The dominant crossing pair (m, m+1)
    and its sample fractions are sampled on the first read of either."""

    iet: Iet3
    n_steps: int
    record: _SectionRecord
    t = property(lambda self: math.log(self.n_steps))
    rho = property(lambda self: self.record.rho)
    dist_hat = property(lambda self: self.record.dist_hat)
    V_len = property(lambda self: self.record.V_len)
    _pair = functools.cached_property(
        lambda self: _generic_crossing_pair(_crossing_samples(self.iet, self.n_steps)))
    m = property(lambda self: self._pair[0])
    m_fractions = property(lambda self: self._pair[1:])  # sample fractions of m, m+1


def section_record_exact(P: int, Q: int, C: int, N: int) -> _SectionRecord:
    """Evaluate the flowed torus at t = ln N with integer arithmetic.

    The lattice of g_{ln N} omega_T is {((bP - aQ) N/Q, b/N)}; entries are
    computed from integer residues so that cancellations at deep scales cost
    no precision.
    """
    _check_count("N", N)
    sN = RotationCounter(P, Q, C).signed_residue(N)
    rho = abs(-sN * N / Q)  # displacement = (0,1) - ((N alpha - round) N, 1)

    def norm(w):
        return math.hypot(w[1] * N / Q, w[0] / N)

    # integer coords (b, s) with s = b P - a Q; scaled embedding
    u, v = _lagrange((1, P % Q), (0, Q), norm)

    def embed(w):
        return np.array([w[1] * N / Q, w[0] / N])

    B = np.column_stack([embed(u), embed(v)])
    bt = _basis_term(B)

    # marked offset: w - lattice = ((C + bP - aQ) N/Q, -b/N); CVP for the
    # representative nearest the half-marked targets.  Residual coordinates
    # are (s, b) with s = C + bP - aQ; the lattice part {(bP - aQ, -b)} is
    # the image of the one above under (b, s) -> (s, -b), which keeps the
    # scaled norm, so its reduced basis is the image of (u, v)
    lu, lv = (u[1], -u[0]), (v[1], -v[0])
    # start from (C, 0), reduce by rounding coefficients in the reduced
    # basis; Cramer in exact integers since entries overflow floats.  The
    # basis spans a lattice of index Q, so det = +-Q is never 0
    det = lu[0] * lv[1] - lv[0] * lu[1]
    coef = ((-C) * lv[1] / det, C * lu[1] / det)
    mt = math.inf
    for di in range(-3, 4):
        for dj in range(-3, 4):
            ci, cj = round(coef[0]) + di, round(coef[1]) + dj
            s = C + ci * lu[0] + cj * lv[0]
            b = ci * lu[1] + cj * lv[1]
            mt = min(mt, _marked_term(np.array([s * N / Q, b / N])))
    # operational closing-segment length: the exact sample fraction of the
    # lower crossing count, frac(N (1 - kappa)); equals the geometric length
    # of the closing segment up to O(rho)
    v_len = ((N * (Q - C)) % Q) / Q
    dist = max(BASIS_WEIGHT * bt, mt)
    return _SectionRecord(rho=rho, marked_term=mt, dist_hat=dist, V_len=v_len)


def _ladder(iet: Iet3) -> tuple[list[int], list[int]]:
    """The continued-fraction denominators of the IET's circle P/Q,
    ascending, and the renormalization scales among them.

    The last denominator is the circle's own period Q: only an exact
    rotation closes up there, a binary64 one's finite lift does, so for a
    binary64 IET it is no scale.
    """
    rc = iet.rotation_counter()
    digits = cf_expansion(Fraction(rc.P, rc.Q), max_terms=256)
    denoms = [q for _, q in cf_convergents(digits)]
    return denoms, denoms if iet.exact else denoms[:-1]


def _candidate_steps(iet: Iet3, t_max: float) -> list[int]:
    """Candidate integer step counts up to e^t_max: the continued-fraction
    denominators of the circle, times k <= 6."""
    n_cap = int(math.exp(min(t_max, 80.0)))
    _, scales = _ladder(iet)
    return sorted({k * q for q in scales for k in range(1, 7)
                   if 2 <= k * q <= n_cap})


def scan_renorm_times(iet: Iet3, delta: float, t_max: float) -> RenormScan:
    """Scan for renormalization times: near the half-marked square torus
    (dist < delta) and in the section.  Returns the accepted times, ascending
    as the candidates are, plus the rejected times with their reasons."""
    rc = iet.rotation_counter()
    P, Q, C = rc.P, rc.Q, rc.C
    cands = _candidate_steps(iet, t_max)
    # cheap pre-filter on the exact unit-return displacement (one bigint
    # multiply per candidate); candidates far from the section cannot be
    # adjusted into it, and the full record evaluation is much costlier
    near = [N * abs(rc.signed_residue(N)) <= 0.75 * Q for N in cands]
    rejections = [(math.log(N), f"N={N} far from section") for N, ok in zip(cands, near) if not ok]
    times = []
    for N in [N for N, ok in zip(cands, near) if ok]:
        t = math.log(N)
        if t > t_max:
            rejections.append((t, f"N={N} beyond t_max"))
            continue
        rec = section_record_exact(P, Q, C, N)
        if rec.rho == 0.0:
            rejections.append((t, f"N={N} rotation closes up (rational)"))
            continue
        if rec.rho > 0.5 + SECTION_V2_TOL:
            rejections.append((t, f"N={N} not in section (|v1|={rec.rho:.3g} > 1/2)"))
            continue
        if rec.dist_hat >= delta:
            rejections.append((t, f"N={N} dist_hat={rec.dist_hat:.3g} >= delta"))
            continue
        times.append(RenormTime(iet=iet, n_steps=N, record=rec))
    return RenormScan(times=times, rejections=rejections)
