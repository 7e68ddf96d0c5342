"""Symmetric 3-interval exchange transformations.

A 3-IET here is the piecewise translation of [0,1) that exchanges three
intervals of lengths (l1, l2, l3) under the order-reversing permutation:
the left block moves to the right end, the right block to the left end.
Equivalently it is the rescaled first-return map of the circle rotation by
alpha = (l2+l3)/(l1+2*l2+l3) to the interval [0, kappa), kappa =
1/(l1+2*l2+l3); both directions of that correspondence live here.

The arithmetic is decided once, from the lengths: three Fraction lengths
make the IET exact (periodic cases, drift-free oracles, the documented
sets); any other lengths run in plain binary64.  Large powers and visit
counts go through the integer circle of `RotationCounter.for_rotation`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Union

import numpy as np

from . import intervals as iv
from .arith import RotationCounter, _check_count, _index

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
]

Scalar = Union[float, Fraction]

_TOP = np.nextafter(1.0, 0.0)      # 1 - 2**-53, the largest float below 1


@dataclass(frozen=True)
class Iet3:
    """Three exchanged lengths, normalized to l1 + l2 + l3 = 1.

    ``exact`` is set once, from the lengths: three Fractions stay exact and
    make every orbit computation exact; any other lengths (ints, floats,
    mixed) become floats with per-step error bounded by 4 ulp.  A length
    that is not finite (NaN, +-inf) is rejected, and so is l1 + l2 = 0 or
    l2 + l3 = 0: T is then the identity (alpha is 1 or 0) and has no
    rotation counter.
    """

    l1: Scalar
    l2: Scalar
    l3: Scalar
    exact: bool = field(init=False)

    def __post_init__(self):
        ls = (self.l1, self.l2, self.l3)
        object.__setattr__(self, "exact", all(isinstance(l, Fraction) for l in ls))
        if not all(isinstance(l, numbers.Rational) or math.isfinite(l) for l in ls):
            raise ValueError(f"lengths must be finite, got {', '.join(map(str, ls))}")
        if any(l < 0 for l in ls):
            raise ValueError("lengths must be non-negative")
        if self.l1 + self.l2 == 0 or self.l2 + self.l3 == 0:
            raise ValueError("degenerate lengths: l1 + l2 and l2 + l3 must be "
                             "positive, otherwise T is the identity")
        total = self.l1 + self.l2 + self.l3
        if not self.exact:
            ls = [float(l) for l in ls]
            total = float(total) if abs(float(total) - 1.0) > 1e-12 else 1.0
        for name, l in zip(("l1", "l2", "l3"), ls):
            object.__setattr__(self, name, l / total)

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

    @cached_property
    def _float_branches(self) -> tuple:
        """(b1, b2, d) of `_branches` in binary64, for array steps: the two
        break points as floats and the three displacements as one read-only
        float64 array, indexed by branch (0 left of b1, 1 up to b2, 2 after).
        `float` of a Fraction is correctly rounded, so converting once gives
        every step the constants it would convert itself."""
        ((b1, d1), (b2, d2)), d3 = self._branches
        d = np.array([float(d1), float(d2), float(d3)])
        d.flags.writeable = False
        return float(b1), float(b2), d

    def inverse(self) -> "Iet3":
        """The inverse 3-IET: lengths reversed."""
        return Iet3(self.l3, self.l2, self.l1)

    def rotation_counter(self, q_min: int = 10**12) -> RotationCounter:
        """Exact rotation counter for this IET's rotation representation."""
        rep = to_rotation(self)
        return RotationCounter.for_rotation(rep.alpha, rep.kappa, q_min=q_min)

    def to_json(self) -> str:
        """The lengths as strings: "p/q" for an exact IET, so that `from_json`
        gives it back exact, and 17 significant digits otherwise."""
        ls = {"l1": self.l1, "l2": self.l2, "l3": self.l3}
        return json.dumps({k: f"{l.numerator}/{l.denominator}" if self.exact
                           else f"{float(l):.17g}" for k, l in ls.items()})

    @classmethod
    def from_json(cls, s: str) -> "Iet3":
        d = json.loads(s)
        return cls(*(Fraction(d[k]) if "/" in d[k] else float(d[k])
                     for k in ("l1", "l2", "l3")))


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

    points: np.ndarray
    start = property(lambda self: float(self.points[0]))

    def __len__(self) -> int:
        return len(self.points)


def _check_domain(x) -> None:
    if isinstance(x, np.ndarray):
        # written so that NaN, which fails every comparison, is outside too
        bad = ~((x >= 0) & (x < 1))
        if bool(np.any(bad)):
            raise ValueError("point outside [0, 1)")
    elif not (0 <= x < 1):
        raise ValueError(f"point {x} outside [0, 1)")


def apply(iet: Iet3, x):
    """One step of the exchange.  Accepts scalars (exact or not) or float arrays."""
    _check_domain(x)
    return _step(iet, x)


def _step(iet: Iet3, x):
    """`apply` without its domain check."""
    if isinstance(x, np.ndarray):
        if x.ndim == 0:     # ufuncs return scalars for 0-d operands
            return _step(iet, x.reshape(1)).reshape(())
        b1, b2, d = iet._float_branches
        # branch index 0, 1 or 2 from two comparisons (b1 <= b2), then each
        # image is the IEEE sum x + d_i, clamped in place into [0, 1) against
        # float spill at either edge
        i = (x >= b1).view(np.int8)
        i += x >= b2
        out = d.take(i)
        out += x
        np.minimum(out, _TOP, out=out)
        return np.maximum(out, 0.0, out=out)
    ((b1, d1), (b2, d2)), d3 = iet._branches
    y = x + (d1 if x < b1 else d2 if x < b2 else d3)
    if not iet.exact:
        y = min(max(y, 0.0), _TOP)
    return y


def apply_pow(iet: Iet3, n: int, x):
    """n-fold composition T^n, by stepwise iteration.  n may be negative:
    T^-1 is the forward exchange of the inverse IET.  An array's domain is
    checked once, since every step clamps its image into [0, 1); a scalar's
    at every step, since an exact IET does not clamp it."""
    if n < 0:
        iet = iet.inverse()
    step = apply
    if isinstance(x, np.ndarray) and n:
        _check_domain(x)
        step = _step
    for _ in range(abs(_index(n))):
        x = step(iet, x)
    return x


def _use_counting(n: int, points: int, step_limit: int = 200_000) -> bool:
    """Whether T^n over `points` points goes through exact rotation counting
    rather than stepwise iteration."""
    return abs(n) > 4096 and abs(n) * max(points, 1) > step_limit


def _power_on_circle(iet: Iet3, xs, n) -> tuple[np.ndarray, np.ndarray, float]:
    """T^n of points xs on the integer circle of the rotation representation.

    Points are lifted to rotation coordinates x * kappa on [0, kappa) and
    snapped to the 1/Q grid (exact for an exact IET, a deep-convergent
    approximation otherwise); n is an int or a per-point array of any sign.
    Returns (snapped points, their images, kappa), the points as floats in
    rotation coordinates, so each caller applies its own rescaling.  The
    cells cross from floats into the counter's native lanes and back
    without Python ints where the circle allows (`RotationCounter._enter`,
    `arith._exit`): each float is the one of the exact cell, bit for bit.
    """
    kappa = float(to_rotation(iet).kappa)
    rc = iet.rotation_counter()
    u = rc._enter(np.asarray(xs, dtype=float) * kappa)
    base, image = (rc.power(u, e, floats=True) / rc.Q for e in (0, n))
    return base, image, kappa


def apply_pow_many(iet: Iet3, n: int, xs: np.ndarray,
                   step_limit: int = 200_000) -> np.ndarray:
    """T^n over an array of points, switching to exact rotation counting
    when |n| is too large for stepwise iteration.

    The counting path computes the n-th return of the underlying rotation in
    O(log) per point and keeps each point's offset within its grid cell.
    """
    n, xs = _index(n), np.asarray(xs, dtype=float)
    if not _use_counting(n, len(xs), step_limit):
        return apply_pow(iet, n, xs.copy())
    _check_domain(xs)
    base, image, kappa = _power_on_circle(iet, xs, n)
    out = (image + (xs * kappa - base)) / kappa
    return np.clip(out, 0.0, _TOP)


def _branch_image(iet: Iet3, lo, hi, branches=None) -> list[tuple]:
    """One step of T on the interval [lo, hi): its image pieces, one per
    branch of T the interval meets, in source order.  ``branches`` is the
    branch table in the endpoints' units, `Iet3._branches` by default."""
    cuts, d_last = branches or iet._branches
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


def _on_grid(iet: Iet3, pieces) -> tuple[int, tuple, list[tuple]]:
    """(D, branch table, pieces) in integer numerators over D, the lcm of the
    denominators of the lengths and the endpoints, if all are exact (D then
    divides the C of `Iet3.rotation_counter()` for a base on its grid: the
    numerators are whole cells); otherwise (0, the table, the pieces)."""
    pieces = list(pieces)
    ends = [x for p in pieces for x in p]
    if not (iet.exact and all(isinstance(x, (Fraction, int)) for x in ends)):
        return 0, iet._branches, pieces
    D = math.lcm(*(Fraction(x).denominator for x in (iet.l1, iet.l2, iet.l3, *ends)))
    cuts, d_last = iet._branches
    branches = tuple((int(c * D), int(d * D)) for c, d in cuts), int(d_last * D)
    return D, branches, [(int(a * D), int(b * D)) for a, b in pieces]


def transport(iet: Iet3, pieces, steps: int) -> list[tuple]:
    """Image of a union of intervals under T^steps, split at the
    discontinuities of T and normalized after every step.

    Exact with Fraction endpoints on an exact IET, whose steps run on
    integer numerators (`_on_grid`).  For T^-steps pass ``iet.inverse()``:
    T^-1 is the forward exchange of the inverse IET.
    """
    _check_count("steps", steps, low=0)
    D, branches, pieces = _on_grid(iet, pieces)
    for _ in range(steps):
        pieces = iv.normalize([p for a, b in pieces for p in _branch_image(iet, a, b, branches)])
    return [(Fraction(a, D), Fraction(b, D)) for a, b in pieces] if D else pieces


def orbit(iet: Iet3, x: float, L: int) -> OrbitSegment:
    """Forward orbit segment of length L >= 1 starting at x."""
    _check_count("L", L)
    pts = np.empty(L, dtype=float)
    cur = x
    for i in range(L):
        pts[i] = float(cur)
        cur = apply(iet, cur)
    return OrbitSegment(points=pts)


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
    return Iet3(k - a, 1 - k, a + k - 1)


def psi_count(rep: RotationRep, x: float, M: int) -> int:
    """Number of l in {0..M-1} with R_alpha^l x in [0, kappa), counted
    exactly in O(log) on the integer circle of `RotationCounter.for_rotation`
    (x snapped to its grid)."""
    rc = RotationCounter.for_rotation(rep.alpha, rep.kappa)
    return int(rc.psi(rc.lift([x]), M)[0])
