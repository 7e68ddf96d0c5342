"""Exact arithmetic kernels for circle rotations.

Everything downstream (interval exchange iteration at large powers, crossing
counts, return-time certificates) reduces to counting how often a rotation
orbit visits a half-open arc.  This module does that counting with exact
integer arithmetic: the rotation angle is a rational P/Q (floats are lifted
to a deep continued-fraction convergent), points are snapped to the 1/Q grid,
and visit counts come from classical floor sums evaluated in O(log Q).

The floor-sum recursion follows the Euclidean algorithm on (P, Q), which is
shared by every point; only the offsets differ.  That makes the counting
vectorizable over large batches of points even when intermediate products
exceed 64-bit range (object-dtype ndarrays carry Python ints).

The inverse query, the rotation time of the n-th visit, counts once at the
density guess n*Q/C and then solves only the residual window: the visits
still missing after the guess, or the excess counted backward from it.  A
residual is far smaller than n, so its floor sums descend less deep; small
or stubborn residuals go to a monotone fixed-point loop.  Consecutive
induced-map powers of one point (`RotationCounter.orbit`) need one such
solve and then plain exact steps on Z/Q.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "cf_expansion",
    "cf_convergents",
    "cf_to_fraction",
    "float_to_convergent",
    "floor_sum",
    "floor_sum_vec",
    "RotationCounter",
]


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------

def cf_expansion(x, max_terms: int = 64) -> list[int]:
    """Continued fraction digits [a0; a1, a2, ...] of x >= 0.

    Fractions expand exactly (terminating); floats expand their exact binary
    value, truncated at ``max_terms``.
    """
    if isinstance(x, Fraction):
        p, q = x.numerator, x.denominator
    else:
        frac = Fraction(float(x)).limit_denominator(10**17)
        p, q = frac.numerator, frac.denominator
    out = []
    for _ in range(max_terms):
        a, r = divmod(p, q)
        out.append(int(a))
        if r == 0:
            break
        p, q = q, r
    return out

def cf_convergents(digits: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Yield convergents (p_k, q_k) of a continued fraction digit list."""
    p0, q0 = 1, 0
    p1, q1 = digits[0], 1
    yield p1, q1
    for a in digits[1:]:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        yield p1, q1

def cf_to_fraction(digits: Sequence[int]) -> Fraction:
    """Exact value of a finite continued fraction."""
    p, q = list(cf_convergents(digits))[-1]
    return Fraction(p, q)

def float_to_convergent(x: float, q_min: int = 10**12, q_max: int = 10**17) -> Fraction:
    """Best rational approximation of x with denominator in [q_min, q_max].

    Used to lift a float rotation number onto an exact integer circle; the
    approximation error is below 1/q_min^2, invisible at desk-scale horizons.
    """
    digits = cf_expansion(Fraction(x).limit_denominator(q_max))
    best = None
    for p, q in cf_convergents(digits):
        if q > q_max:
            break
        best = Fraction(p, q)
        if q >= q_min:
            break
    if best is None:
        raise ValueError(f"no convergent of {x} with denominator <= {q_max}")
    return best


# ---------------------------------------------------------------------------
# floor sums
# ---------------------------------------------------------------------------

def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a + b*i) / m) for n >= 0, m >= 1, a, b >= 0."""
    if n <= 0:
        return 0
    ans = 0
    while True:
        if a >= m:
            ans += (a // m) * n
            a %= m
        if b >= m:
            ans += (b // m) * (n * (n - 1) // 2)
            b %= m
        y_max = a + b * n
        if y_max < m:
            return ans
        n, b, m, a = y_max // m, m, b, y_max % m

def floor_sum_vec(n, m: int, a, b: int) -> np.ndarray:
    """Vectorized floor_sum over offset array ``a`` (and matching ``n``).

    Arrays are object-dtype so intermediate products may exceed int64.  The
    Euclidean descent on (b, m) is shared across entries; entries that finish
    early continue with n = 0, contributing nothing.
    """
    a = np.asarray(a, dtype=object).copy()
    n = np.broadcast_to(np.asarray(n, dtype=object), a.shape).copy()
    if a.size == 0:
        return np.zeros(0, dtype=object)
    neg = n < 0
    if np.any(neg):
        n = n.copy()
        n[neg] = 0
    ans = np.zeros(a.shape, dtype=object)
    m = int(m)
    b = int(b)
    while True:
        if b >= m:
            ans += (b // m) * (n * (n - 1) // 2)
            b %= m
        ans += (a // m) * n
        a %= m
        y_max = a + b * n
        done = y_max < m
        if bool(np.all(done)):
            return ans
        n_new = y_max // m
        a = y_max - n_new * m
        n = n_new
        n[done] = 0
        b, m = m, b


# ---------------------------------------------------------------------------
# rotation visit counting on the exact circle Z/Q
# ---------------------------------------------------------------------------

class RotationCounter:
    """Visit statistics of the rotation x -> x + P/Q on the arc [0, C/Q).

    Provides exact counts of arc visits along orbits, and the inverse query
    (the rotation time of the n-th visit), both vectorized over points.  All
    positions are integers on the circle Z/Q.
    """

    def __init__(self, P: int, Q: int, C: int):
        if not (0 < P < Q and 0 < C <= Q):
            raise ValueError("need 0 < P < Q and 0 < C <= Q")
        self.P = int(P)
        self.Q = int(Q)
        self.C = int(C)

    @classmethod
    def for_rotation(cls, alpha, kappa, q_min: int = 10**12) -> "RotationCounter":
        """The integer circle of the rotation by alpha with the arc [0, kappa).

        Two Fractions give the exact circle on their common denominator.
        Otherwise alpha is lifted to a continued-fraction convergent p/q with
        q >= q_min; an expansion that ends earlier (a dyadic alpha) has its
        grid refined m = ceil(q_min / q) times, so that kappa is still
        resolved to 1/(m q) and not snapped to the coarse grid 1/q.
        """
        if isinstance(alpha, Fraction) and isinstance(kappa, Fraction):
            Q = math.lcm(alpha.denominator, kappa.denominator)
            return cls(alpha.numerator * (Q // alpha.denominator), Q,
                       kappa.numerator * (Q // kappa.denominator))
        frac = float_to_convergent(float(alpha), q_min=q_min)
        m = -(-q_min // frac.denominator)
        Q = m * frac.denominator
        return cls(m * frac.numerator, Q, max(1, round(float(kappa) * Q)))

    # -- lifting -----------------------------------------------------------

    def lift(self, x) -> np.ndarray:
        """Snap circle points in [0,1) to the integer grid Z/Q (exact ints)."""
        x = np.asarray(x, dtype=float)
        return np.array([int(v) % self.Q for v in np.floor(x * self.Q + 0.5)],
                        dtype=object)

    # -- counting ----------------------------------------------------------

    def backward(self) -> "RotationCounter":
        """Counter for the inverse rotation."""
        return RotationCounter(self.Q - self.P, self.Q, self.C)

    def visits(self, u, n) -> np.ndarray:
        """Number of l in {1..n} with (u + l*P) mod Q < C, exact, vectorized."""
        u, n = _exact_ints(u, n)
        n_eff = np.where(n > 0, n, 0)
        # indicator(y mod Q >= C) = floor((y + Q - C)/Q) - floor(y/Q); summing
        # over y = u + l*P, l = 1..n counts gap steps, visits are the rest.
        shift = self.Q - self.C
        s_hi = floor_sum_vec(n_eff, self.Q, u + shift + self.P, self.P)
        s_lo = floor_sum_vec(n_eff, self.Q, u + self.P, self.P)
        gaps = s_hi - s_lo
        return n_eff - gaps

    def psi(self, u, n) -> np.ndarray:
        """Number of l in {0..n-1} with (u + l*P) mod Q < C (count includes l=0)."""
        u, n = _exact_ints(u, n)
        at_zero = np.where((n > 0) & (u % self.Q < self.C), 1, 0)
        return self.visits(u, n - 1) + at_zero

    # -- inverse query: time of the n-th visit -----------------------------

    def visit_time(self, u, n, forward: bool = True) -> np.ndarray:
        """Smallest N >= 1 with visits(u, N) = n (N = 0 for n = 0), exact,
        vectorized.

        Residual windows: the density guess N0 = n*Q // C is counted once.
        An undershoot leaves the (n - visits)-th visit after N0, counted from
        u + N0*P; an overshoot leaves the (excess + 1)-th visit backward from
        u + (N0 + 1)*P, subtracted from N0 + 1.  That residual query is
        solved the same way while it is at most half of n; indices n <= 8 and
        residuals that do not halve go to `_visit_time_fixed_point`.
        """
        counter = self if forward else self.backward()
        u, n = _exact_ints(u, n)
        if bool(np.any(n < 0)):
            raise ValueError("visit index must be >= 0")
        N = counter._visit_time_residual(u.reshape(-1), n.reshape(-1))
        return N.reshape(u.shape)

    def _visit_time_residual(self, u, n) -> np.ndarray:
        N = np.zeros(len(u), dtype=object)
        base = n <= 8
        i = np.nonzero(~base)[0]
        if len(i):
            ui, ni = u[i], n[i]
            N0 = ni * self.Q // self.C
            v = self.visits(ui, N0)
            under = v < ni
            residual = np.where(under, ni - v, v - ni + 1)
            halves = 2 * residual <= ni
            for mask, counter, start, sign in (
                    (halves & under, self, N0, 1),
                    (halves & ~under, self.backward(), N0 + 1, -1)):
                if np.any(mask):
                    s = start[mask]
                    t = counter._visit_time_residual((ui[mask] + s * self.P) % self.Q,
                                                     residual[mask])
                    N[i[mask]] = s + sign * t
            base[i[~halves]] = True
        if np.any(base):
            N[base] = self._visit_time_fixed_point(u[base], n[base])
        return N

    def _visit_time_fixed_point(self, u, n) -> np.ndarray:
        """`visit_time` by monotone fixed-point iteration, forward only.

        N <- n + gaps(N) from N = n: iterates increase and never overshoot
        the minimal solution, and the deficit shrinks by the gap frequency
        each round.  For sparse arcs (where the contraction is weak) the
        stragglers left after 48 rounds fall back to doubling plus bisection
        on the monotone visit count; 512 doublings that still fall short mean
        that the orbit never meets the arc, and raise ValueError.
        """
        N = n.copy()
        for _ in range(48):
            deficit = n - self.visits(u, N)
            if bool(np.all(deficit == 0)):
                return N
            N = N + deficit
        # stragglers: exponential search then bisection
        left = n - self.visits(u, N) > 0
        idx = np.nonzero(left)[0]
        uu, nn = u[idx], n[idx]
        hi = np.maximum(N[idx], 1)
        for _ in range(512):
            short = self.visits(uu, hi) < nn
            if not bool(np.any(short)):
                break
            hi[short] = hi[short] * 2
        else:
            # off the arc of a non-coprime circle an orbit can miss it for good
            raise ValueError(f"the orbit of {uu[short][0]} never returns to the arc")
        lo = nn.copy()
        while bool(np.any(lo < hi)):
            mid = (lo + hi) // 2
            ok = self.visits(uu, mid) >= nn
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid + 1)
        N[idx] = lo
        return N

    def first_hit(self, u, horizon, forward: bool = True) -> np.ndarray:
        """Smallest N in [1, horizon] with (u +- N P) mod Q in the arc, or
        horizon + 1 if the orbit misses the arc over the whole window."""
        counter = self if forward else self.backward()
        u = np.asarray(u, dtype=object)
        horizon = np.broadcast_to(np.asarray(horizon, dtype=object), u.shape)
        total = counter.visits(u, horizon)
        out = np.asarray(horizon + 1, dtype=object).copy()
        hit = np.array([int(t) > 0 for t in total])
        if not np.any(hit):
            return out
        idx = np.nonzero(hit)[0]
        lo = np.ones(len(idx), dtype=object)
        hi = horizon[idx].copy()
        while bool(np.any(lo < hi)):
            mid = (lo + hi) // 2
            ok = counter.visits(u[idx], mid) >= 1
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid + 1)
        out[idx] = lo
        return out

    def power(self, u, n) -> np.ndarray:
        """Exact positions on Z/Q of the n-th induced-map image of arc points u.

        n is an int or a per-point array of any sign: negative exponents run
        the inverse map, and a zero exponent leaves the point where it is.
        """
        u, n = _exact_ints(u, n)
        out = u.copy()
        for sign, step in ((1, self.P), (-1, self.Q - self.P)):
            mask = sign * n > 0
            if np.any(mask):
                N = self.visit_time(u[mask], sign * n[mask], forward=sign > 0)
                out[mask] = (u[mask] + N * step) % self.Q
        return out

    def orbit(self, u0: int, start: int, length: int) -> np.ndarray:
        """``power(u0, start + i)`` for i = 0..length-1, exact.

        One `power` solve for the first point, then induced-map steps on Z/Q:
        u <- (u + P) mod Q until u < C.  A point off the arc is its own
        zeroth power but no image of its (-1)-th, so a stretch through
        exponent 0 restarts the walk there.  Each step is bounded by Q
        rotation steps: off the arc of a non-coprime circle an orbit can
        miss the arc for good, and that raises ValueError.
        """
        u0, start, length = int(u0), int(start), int(length)
        P, Q, C = self.P, self.Q, self.C
        out = np.empty(max(length, 0), dtype=object)
        cut = -start if start < 0 and not 0 <= u0 < C else length
        for lo, hi in ((0, min(cut, length)), (cut, length)):
            if lo >= hi:
                continue
            u = int(self.power(np.array([u0], dtype=object), start + lo)[0])
            out[lo] = u
            for j in range(lo + 1, hi):
                for _ in range(Q):
                    u = (u + P) % Q
                    if u < C:
                        break
                else:
                    raise ValueError(f"the orbit of {u0} never returns to the arc")
                out[j] = u
        return out


_INDEX = np.frompyfunc(operator.index, 1, 1)


def _exact_ints(u, n) -> tuple[np.ndarray, np.ndarray]:
    """Points u and counts n broadcast to u's shape, as object arrays of
    Python ints: a NumPy integer would run the floor sums in fixed width and
    overflow on deep circles."""
    u = np.asarray(_INDEX(np.asarray(u, dtype=object)), dtype=object)
    n = np.broadcast_to(np.asarray(n, dtype=object), u.shape)
    return u, np.asarray(_INDEX(n), dtype=object)
