"""Symmetric 3-interval exchange transformations.

A 3-IET here is the piecewise translation of [0,1) that exchanges three
intervals of lengths (l1, l2, l3) under the order-reversing permutation:
the left block moves to the right end, the right block to the left end.
Equivalently it is the rescaled first-return map of the circle rotation by
alpha = (l2+l3)/(l1+2*l2+l3) to the interval [0, kappa), kappa =
1/(l1+2*l2+l3); both directions of that correspondence live here.

Two arithmetic regimes: plain binary64, and exact rationals (Fraction
lengths) for periodic cases and drift-free oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import intervals as iv
from .arith import MODE_F64, MODE_RATIONAL, ArithmeticMode, RotationCounter

__all__ = [
    "Iet3",
    "RotationRep",
    "OrbitSegment",
    "apply",
    "apply_pow",
    "apply_pow_many",
    "transport",
    "orbit",
    "to_rotation",
    "from_rotation",
    "psi_count",
    "min_return_time",
]

Scalar = Union[float, Fraction]


@dataclass(frozen=True)
class Iet3:
    """Three exchanged lengths, normalized to l1 + l2 + l3 = 1.

    In rational mode the lengths are exact Fractions and every orbit
    computation is exact; in f64 mode they are floats with per-step error
    bounded by 4 ulp.
    """

    l1: Scalar
    l2: Scalar
    l3: Scalar
    mode: ArithmeticMode = MODE_F64

    def __post_init__(self):
        ls = (self.l1, self.l2, self.l3)
        if self.mode.tag == "rational":
            if not all(isinstance(l, Fraction) for l in ls):
                raise TypeError("rational mode requires Fraction lengths")
        if any(l < 0 for l in ls):
            raise ValueError("lengths must be non-negative")
        total = self.l1 + self.l2 + self.l3
        if total <= 0:
            raise ValueError("lengths must have positive sum")
        if self.mode.tag == "rational":
            if total != 1:
                object.__setattr__(self, "l1", self.l1 / total)
                object.__setattr__(self, "l2", self.l2 / total)
                object.__setattr__(self, "l3", self.l3 / total)
        else:
            if abs(float(total) - 1.0) > 1e-12:
                object.__setattr__(self, "l1", float(self.l1) / float(total))
                object.__setattr__(self, "l2", float(self.l2) / float(total))
                object.__setattr__(self, "l3", float(self.l3) / float(total))
            else:
                object.__setattr__(self, "l1", float(self.l1))
                object.__setattr__(self, "l2", float(self.l2))
                object.__setattr__(self, "l3", float(self.l3))

    # break points of T and of its inverse
    @property
    def b1(self) -> Scalar:
        return self.l1

    @property
    def b2(self) -> Scalar:
        return self.l1 + self.l2

    def branch_displacements(self) -> tuple[Scalar, Scalar, Scalar]:
        return (self.l2 + self.l3, self.l3 - self.l1, -(self.l1 + self.l2))

    @cached_property
    def _branches(self) -> tuple:
        """((b1, d1), (b2, d2)), d3: each break point with the displacement of
        the branch left of it, then the last displacement.  Computed once, as
        exact transport would otherwise redo this Fraction arithmetic per step."""
        d1, d2, d3 = self.branch_displacements()
        return ((self.b1, d1), (self.b2, d2)), d3

    def inverse(self) -> "Iet3":
        """The inverse 3-IET: lengths reversed."""
        return Iet3(self.l3, self.l2, self.l1, self.mode)

    def is_rational(self) -> bool:
        return self.mode.tag == "rational"

    def rotation_counter(self, q_min: int = 10**12) -> RotationCounter:
        """Exact rotation counter for this IET's rotation representation."""
        rep = to_rotation(self)
        if self.is_rational():
            return RotationCounter.from_fractions(rep.alpha, rep.kappa)
        return RotationCounter.from_floats(float(rep.alpha), float(rep.kappa), q_min=q_min)

    def to_json(self) -> str:
        return json.dumps(
            {"l1": f"{float(self.l1):.17g}", "l2": f"{float(self.l2):.17g}",
             "l3": f"{float(self.l3):.17g}"})

    @classmethod
    def from_json(cls, s: str) -> "Iet3":
        d = json.loads(s)
        return cls(float(d["l1"]), float(d["l2"]), float(d["l3"]))


@dataclass(frozen=True)
class RotationRep:
    """Rotation number alpha and induced-interval length kappa.

    The 3-IET is the first return of x -> x + alpha (mod 1) to [0, kappa),
    rescaled by 1/kappa.  Valid parameters satisfy kappa > alpha and
    alpha + kappa > 1 (degenerating to 2-IETs on the boundary).
    """

    alpha: Scalar
    kappa: Scalar


@dataclass(frozen=True)
class OrbitSegment:
    """A finite forward orbit x, T x, ..., T^(L-1) x."""

    start: float
    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def _check_domain(x) -> None:
    if isinstance(x, np.ndarray):
        bad = (x < 0) | (x >= 1)
        if bool(np.any(bad)):
            raise ValueError("point outside [0, 1)")
    elif not (0 <= x < 1):
        raise ValueError(f"point {x} outside [0, 1)")


def apply(iet: Iet3, x):
    """One step of the exchange.  Accepts scalars (both modes) or float arrays."""
    _check_domain(x)
    if isinstance(x, np.ndarray):
        d1, d2, d3 = (float(v) for v in iet.branch_displacements())
        out = np.where(x < float(iet.b1), x + d1,
                       np.where(x < float(iet.b2), x + d2, x + d3))
        # guard against float spill at the right edge
        return np.where(out >= 1.0, np.nextafter(1.0, 0.0), np.maximum(out, 0.0))
    d1, d2, d3 = iet.branch_displacements()
    if x < iet.b1:
        y = x + d1
    elif x < iet.b2:
        y = x + d2
    else:
        y = x + d3
    if not iet.is_rational():
        y = min(max(y, 0.0), np.nextafter(1.0, 0.0))
    return y


def apply_pow(iet: Iet3, n: int, x):
    """n-fold composition T^n, by stepwise iteration.  n may be negative:
    T^-1 is the forward exchange of the inverse IET."""
    if n < 0:
        iet = iet.inverse()
    for _ in range(abs(int(n))):
        x = apply(iet, x)
    return x


def _use_counting(n: int, points: int, step_limit: int = 200_000) -> bool:
    """Whether T^n over `points` points goes through exact rotation counting
    rather than stepwise iteration."""
    return abs(int(n)) > 4096 and abs(int(n)) * max(points, 1) > step_limit


def _power_on_circle(iet: Iet3, xs, n) -> tuple[np.ndarray, np.ndarray, float]:
    """T^n of points xs on the integer circle of the rotation representation.

    Points are lifted to rotation coordinates x * kappa on [0, kappa) and
    snapped to the 1/Q grid (exact for rational IETs, a deep-convergent
    approximation otherwise); n is an int or a per-point array of any sign.
    Returns (snapped points, their images, kappa), the points as floats in
    rotation coordinates, so each caller applies its own rescaling.
    """
    kappa = float(to_rotation(iet).kappa)
    rc = iet.rotation_counter()
    u = rc.lift(np.asarray(xs, dtype=float) * kappa)
    base, image = (np.array([int(v) for v in cells], dtype=float) / rc.Q
                   for cells in (u, rc.power(u, n)))
    return base, image, kappa


def apply_pow_many(iet: Iet3, n: int, xs: np.ndarray,
                   step_limit: int = 200_000) -> np.ndarray:
    """T^n over an array of points, switching to exact rotation counting
    when |n| is too large for stepwise iteration.

    The counting path computes the n-th return of the underlying rotation in
    O(log) per point and keeps each point's offset within its grid cell.
    """
    xs = np.asarray(xs, dtype=float)
    if not _use_counting(n, len(xs), step_limit):
        return apply_pow(iet, n, xs.copy())
    base, image, kappa = _power_on_circle(iet, xs, int(n))
    out = (image + (xs * kappa - base)) / kappa
    return np.clip(out, 0.0, np.nextafter(1.0, 0.0))


def _branch_image(iet: Iet3, lo, hi) -> list[tuple]:
    """One step of T on the interval [lo, hi): its image pieces, one per
    branch of T the interval meets, in source order."""
    cuts, d_last = iet._branches
    out = []
    for cut, d in cuts:
        if lo < cut:
            if hi <= cut:
                out.append((lo + d, hi + d))
                return out
            out.append((lo + d, cut + d))
            lo = cut
    out.append((lo + d_last, hi + d_last))
    return out


def transport(iet: Iet3, pieces, steps: int) -> list[tuple]:
    """Image of a union of intervals under T^steps, split at the
    discontinuities of T and normalized after every step.

    Exact with Fraction endpoints on a rational IET.  For T^-steps pass
    ``iet.inverse()``: T^-1 is the forward exchange of the inverse IET.
    """
    pieces = list(pieces)
    for _ in range(steps):
        pieces = iv.normalize([p for a, b in pieces for p in _branch_image(iet, a, b)])
    return pieces


def orbit(iet: Iet3, x: float, L: int) -> OrbitSegment:
    """Forward orbit segment of length L starting at x."""
    pts = np.empty(L, dtype=float)
    cur = x
    for i in range(L):
        pts[i] = float(cur)
        cur = apply(iet, cur)
    return OrbitSegment(start=float(x), points=pts)


def to_rotation(iet: Iet3) -> RotationRep:
    """Rotation number and induced-interval length of the 3-IET."""
    total = iet.l1 + 2 * iet.l2 + iet.l3
    return RotationRep(alpha=(iet.l2 + iet.l3) / total, kappa=(iet.l1 + iet.l2 + iet.l3) / total)


def from_rotation(rep: RotationRep) -> Iet3:
    """Inverse of the rotation correspondence.

    Requires kappa > alpha, alpha + kappa > 1 and kappa <= 1; the raw lengths
    (kappa-alpha, 1-kappa, alpha+kappa-1) are normalized to sum 1.
    """
    a, k = rep.alpha, rep.kappa
    if not (k > a and a + k > 1 and k <= 1 and a > 0):
        raise ValueError(f"invalid rotation parameters alpha={a}, kappa={k}")
    exact = isinstance(a, Fraction) and isinstance(k, Fraction)
    mode = MODE_RATIONAL if exact else MODE_F64
    return Iet3(k - a, 1 - k, a + k - 1, mode)


def psi_count(rep: RotationRep, x: float, M: int) -> int:
    """Number of l in {0..M-1} with R_alpha^l x in [0, kappa)."""
    if M <= 0:
        return 0
    a, k = float(rep.alpha), float(rep.kappa)
    pts = (float(x) + a * np.arange(M)) % 1.0
    return int(np.count_nonzero(pts < k))


def min_return_time(iet: Iet3, J: tuple, n_max: int,
                    max_pieces: int = 4096) -> Optional[int]:
    """Smallest n in [1, n_max] with T^n J meeting J, or None.

    Transports J forward as a set of intervals, splitting at branch
    discontinuities, and checks overlap with J after each step.  Exact in
    rational mode; in f64 the endpoints carry ordinary float error.
    """
    lo, hi = J
    if not (0 <= lo < hi <= 1):
        raise ValueError("J must be a nondegenerate subinterval of [0, 1)")
    pieces = [(lo, hi)]
    for n in range(1, n_max + 1):
        pieces = transport(iet, pieces, 1)
        if len(pieces) > max_pieces:
            raise RuntimeError("interval split budget exceeded; use a return-time certificate")
        if any(a < hi and lo < b for a, b in pieces):
            return n
    return None
