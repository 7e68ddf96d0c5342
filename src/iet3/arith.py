"""Exact arithmetic kernels for circle rotations.

Everything downstream (interval exchange iteration at large powers, crossing
counts, return-time certificates) reduces to counting how often a rotation
orbit visits a half-open arc, and to the inverse query, the rotation time
of the n-th visit.  This module answers both with exact integer arithmetic:
the rotation angle is a rational P/Q (floats are lifted to a deep
continued-fraction convergent), points are snapped to the 1/Q grid, and both
queries descend one table built once per circle (`_wrap_table`).

The table groups the rotation's positions by their wraps around the circle:
the rotation grouped so is again a rotation, of Z/P by -Q mod P, whose
points weigh the arc visits of the wrap they start, and so on down the
continued fraction of P/Q (reflected where a step passes half the circle, so
a large partial quotient stays one level).  A visit count (`_count`) splits
the n positions of a level into a partial first wrap, whole wraps, which are
elements of the next level, and a partial last wrap, and weighs the partial
wraps by one comparison per piece of the weight.  A visit time
(`_descend`) stops at the first level whose partial first wrap holds the
visits still wanted and climbs back, locating the visit inside one wrap per
level, with no visit count.  Every query takes a direction per point: a
backward query is a forward one from the reflected point C - 1 - u, since
y -> C - 1 - y maps the arc onto itself and reverses the rotation, so the
inverse rotation needs no table of its own.

Both run at native width where they can: points of Z/Q as 30-bit limbs in
int64 lanes, levels below 2^62 in plain int64, and every quotient estimated
in float64 and made exact from its remainder (`_divmod_limbs`).  That covers
circles of up to 118 bits, counts below 2^48 and visit indices below a bound
from the circle's continued fraction; Python ints (object-dtype arrays) run
the same code for everything else.

The queries keep circle points in the kernel's own form: `visits`,
`visit_time`, `power` and `orbit` turn Python ints into limb lanes once per
call, with counts and times as int64, and back at the end.  Callers that
only read floats skip the Python ints on circles below 2^83: their float
cells enter the lanes exactly, and each point leaves as the float of its
exact int, bit for bit (`_exit`), by the same routes.  Shifts
(u + s*P) mod Q reduce with the kernel's own limb division.  Each call
decides its path once, from its input.

An induced-map power is the position at which the visit-time climb ends,
with no shift after it.  The powers of one point at many exponents
(`RotationCounter.orbit`) share the start of their descents, and the way
down depends on an exponent only through its target, so it runs once per
direction and chunk, on one column.  Every descent batch runs in chunks of
a fixed number of indices, so its working memory does not grow with it.
A window of them is priced once, its span's rotation positions against its
points, and solved so or scanned from one solve: the positions that fall in
the arc, each tested by a comparison with C, with any rest past them solved
from the last visit.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "cf_expansion",
    "cf_convergents",
    "cf_to_fraction",
    "float_to_convergent",
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
    p, q = (x if isinstance(x, Fraction) else Fraction(float(x))).as_integer_ratio()
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

def float_to_convergent(x: float, q_min: int = 10**12) -> Fraction:
    """Best rational approximation of x with denominator in [q_min, 10^17].

    Used to lift a float rotation number onto an exact integer circle; the
    approximation error is below 1/q_min^2, invisible at desk-scale horizons.
    """
    # every convergent of the limited fraction has denominator <= 10^17
    for p, q in cf_convergents(cf_expansion(Fraction(x).limit_denominator(10**17))):
        if q >= q_min:
            break
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# limb division
# ---------------------------------------------------------------------------
#
# Points of Z/Q and the wide levels of the wrap table are held as 30-bit
# limbs in int64 lanes.  Every quotient is estimated in float64 from below,
# within one of the exact quotient while it is under 2^48, and made exact by
# one comparison of the limb remainder with the modulus (`_divmod_limbs`).

_LIMB = 30
_MASK = (1 << _LIMB) - 1
_NATIVE_BITS = 118                 # points below 4Q fit in four limbs
_NATIVE_QUOTIENT = 1 << 48         # counts and quotients stay below
_FLOAT_EXIT_BITS = 83              # points below 2^83 cross to floats in lanes
# a `power` call of one point costs about as much as scanning `_SOLVE_CALL`
# rotation positions in lanes, and each of its exponents as scanning this
# many, whatever the arc and the depth of the descent
# (`RotationCounter.orbit`; BENCH_orbit_window.json, crossover)
_SOLVE_CALL = 1 << 13
_SOLVE_POINT = 10
# visit-time descents take this many indices at a time, so that a batch's
# working memory (about 420 B an index in lanes, 1,350 B on Python ints) is
# that of one chunk (`RotationCounter._solve`; BENCH_bounded_memory.json)
_SOLVE_CHUNK = 1 << 14
# lanes hold at most five limbs: four for Q, one for the carry above them
_F64_WEIGHTS = np.ldexp(1.0, _LIMB * np.arange(5))
_SIGN_WEIGHTS = 3 ** np.arange(5, dtype=np.int64)   # sign of the top differing limb
_WRAP_WEIGHTS = np.array([1, 1 << _LIMB, 1 << 2 * _LIMB, 0, 0], dtype=np.int64)
# quotient estimates are scaled down by 16 unit roundoffs (u = 2^-53): more
# than the rounding of a float sum of at most five limbs, the reciprocal and
# one product (under 9u), so an estimate never exceeds the quotient, and
# with it under 25u, which costs less than 1 below quotients of 2^48
_UNDER = 1.0 - 8 * np.finfo(float).eps


def _limbs(x: int, k: int) -> np.ndarray:
    """The k low 30-bit limbs of x >= 0, as an int64 column."""
    return np.array([(x >> _LIMB * j) & _MASK for j in range(k)],
                    dtype=np.int64).reshape(k, 1)


class _Modulus:
    """A modulus m in the forms `_divmod_limbs` reads: its k limbs, its top
    limb and the scaled reciprocal of its float."""

    __slots__ = ("m", "k", "M", "top", "scale")

    def __init__(self, m: int):
        self.m = m
        self.k = -(-m.bit_length() // _LIMB)
        self.M = _limbs(m, self.k)
        self.top = int(self.M[-1, 0])
        self.scale = _UNDER / m


def _carry(x: np.ndarray, k: int) -> np.ndarray:
    """Propagate carries through the k low limbs of x, in place: they end in
    [0, 2^30) and row k absorbs the carry out."""
    for j in range(k):
        c = x[j] >> _LIMB
        x[j] &= _MASK
        x[j + 1] += c
    return x


def _divmod_limbs(x: np.ndarray, lv: _Modulus) -> np.ndarray:
    """x // m for lanes x >= 0 held in at least k + 1 limbs below 2^62 each,
    for quotients below 2^48.  x is overwritten with x % m in normalized
    limbs, zero from row k up.

    The scaled-down float estimate is the exact quotient or one below it, so
    x - est * m lies in [0, 2m).  Its rows from k up then hold 0 or 1, read
    from their wrapped int64 sum, and the estimate is raised where the
    remainder is not below m: decided by the top limb, and by the lower
    limbs only where the top limbs tie.
    """
    k = lv.k
    q = ((_F64_WEIGHTS[:len(x)] @ x) * lv.scale).astype(np.int64)
    x[:k] -= lv.M * (q & _MASK)
    if q.max() >> _LIMB:
        x[1:k + 1] -= lv.M * (q >> _LIMB)
    _carry(x, k)
    high = x[k] if len(x) == k + 1 else _WRAP_WEIGHTS[:len(x) - k] @ x[k:]
    top = x[k - 1] + (high << _LIMB)
    ge = top > lv.top
    tie = np.flatnonzero(top == lv.top)
    if tie.size:
        # sign of the highest differing lower limb, as a base-3 number
        cmp = _SIGN_WEIGHTS[:k - 1] @ np.sign(x[:k - 1, tie] - lv.M[:k - 1])
        ge[tie] = cmp >= 0
    hit = np.flatnonzero(ge)
    if hit.size:
        fix = x[:k, hit] - lv.M
        fix[k - 1] += high[hit] << _LIMB
        x[:k, hit] = _carry(fix, k - 1)
        q[hit] += 1
    x[k:] = 0
    return q


# ---------------------------------------------------------------------------
# circle points at native width
# ---------------------------------------------------------------------------
#
# The counting queries keep their points in the kernel's own form: limbs of
# Z/Q in int64 lanes, with counts and times as plain int64.  Every shift
# (u + s P) mod Q is a limb product reduced by `_divmod_limbs` modulo Q,
# and each wide level of the wrap descents divides by its step and by its
# modulus with `_divmod_limbs` too, so no second limb arithmetic exists.
# A test y < C against a constant needs no division: `_below`
# compares floats, and limbs only where the floats are within their
# rounding.  The descent of a power hands back the image itself, so a
# solved point pays a division at its start and at each wide level on its
# way down, and the indices of one shared start (`_descend`) pay none.
#
# Points cross between lanes and the caller's numbers at the ends of a call.
# Python ints enter by masks and shifts.  Integer-valued floats, the grid
# cells floor(x Q + 0.5) of unit points, split exactly at 2^60 and come to
# Z/Q with one conditional subtraction of Q (`_NativeCircle.enter`).  Points
# leave as Python ints (`_to_ints`), or for callers that only read floats as
# float(int) of each, which below 2^83 is one IEEE addition of two exact
# float64 operands (`_exit`), with no Python int made: the one rounding of
# IEEE 754 addition is the correctly rounded sum.


class _Lanes:
    """Points of Z/Q at native width: row j holds the j-th 30-bit limb of
    every point, and a last, zero row is spare for carries.  Indexing
    selects points."""

    __slots__ = ("x",)

    def __init__(self, x: np.ndarray):
        self.x = x

    def __getitem__(self, i) -> "_Lanes":
        return _Lanes(self.x[:, i])

    def __len__(self) -> int:
        return self.x.shape[1]


def _to_lanes(u: np.ndarray, rows: int) -> _Lanes:
    """Points 0 <= u < 2^(30 rows), u < 2^120, as lanes of ``rows`` rows:
    Python ints, or integer-valued floats, which split exactly at 2^60 (the
    low part keeps bits of u's 53-bit significand, so it is a float too)."""
    if u.dtype == object:
        lo = (u & ((1 << 2 * _LIMB) - 1)).astype(np.int64)
        hi = (u >> 2 * _LIMB).astype(np.int64)
    else:
        hi = np.floor(u * 2.0 ** (-2 * _LIMB))
        lo = (u - hi * 2.0 ** (2 * _LIMB)).astype(np.int64)
        hi = hi.astype(np.int64)
    limbs = [lo & _MASK, lo >> _LIMB]
    if rows > 2:
        limbs += [hi & _MASK, hi >> _LIMB]
    limbs.append(np.zeros_like(lo))
    return _Lanes(np.vstack(limbs)[:rows])


def _to_ints(x: np.ndarray) -> np.ndarray:
    """Points in normalized limbs (rows) or in int64 as Python ints."""
    if x.ndim == 1:
        return x.astype(object)
    out = (x[0] | x[1] << _LIMB).astype(object)
    if len(x) > 3:
        out += (x[2] | x[3] << _LIMB).astype(object) << 2 * _LIMB
    return out


def _exit(x: np.ndarray, floats: bool) -> np.ndarray:
    """Points in normalized limbs (rows), int64 or Python ints as Python
    ints, or with ``floats`` as float(int) of each, bit for bit.

    Below 2^83 the limbs above the lowest join into hi = x1 + x2 2^30 <
    2^53, a float64 integer, and hi 2^30 + x0 is one IEEE addition of two
    exact operands: its one rounding (to nearest, ties to even) is
    float(int)'s, with no Python int made.  Int64 casts round alike; other
    points go through Python ints."""
    if x.dtype == object:
        return x.astype(float if floats else object)
    if floats and x.ndim == 1:
        return x.astype(float)
    if not floats or x[3:].any() or np.any(x[2:3] >> _FLOAT_EXIT_BITS - 2 * _LIMB):
        out = _to_ints(x)
        return out.astype(float) if floats else out
    hi = x[1] | x[2] << _LIMB if len(x) > 2 else x[1]
    return hi.astype(float) * 2.0 ** _LIMB + x[0]


def _below(x: np.ndarray, fd: np.ndarray, d: np.ndarray, tol: float) -> np.ndarray:
    """x < d_i per constant (rows) and lane (columns), for lanes x in
    normalized limbs and constants d_i given as floats fd (a column) and as
    limbs d (rows, constants, 1): read from the floats where they differ by
    more than ``tol``, their rounding (a few ulps of the larger), and from
    the sign of the highest differing limb elsewhere."""
    diff = _F64_WEIGHTS[:len(x)] @ x - fd
    lt = diff < 0
    close = np.abs(diff) <= tol
    if close.any():
        # the sign of the highest differing limb, as a base-3 number
        j = np.flatnonzero(close.any(axis=0))
        sign = np.sign(x[:, None, j] - d)
        lt[:, j] = np.tensordot(_SIGN_WEIGHTS[:len(x)], sign, 1) < 0
    return lt


def _bound(c: int, rows: int) -> tuple:
    """The constant c as `_below` reads it: a float column, limbs of
    ``rows`` rows, and the float's rounding."""
    return np.array([[float(c)]]), _limbs(c, rows)[:, None], math.ldexp(c, -45)


def _first_visit_bound(P: int, Q: int, C: int) -> Optional[int]:
    """A bound E on the first visit time of the arc [0, C) from any point of
    Z/Q, so that the n-th visit comes within n E steps; None when some orbit
    may miss the arc.

    By the three-distance theorem the points l P mod Q, 0 <= l < q_k +
    q_(k-1), cut the circle into gaps of at most m_k, the k-th remainder of
    Euclid's algorithm on (Q, P) (q_k the continued-fraction denominators of
    P/Q).  At the first k with m_k <= C, any C consecutive cells hold one of
    them, so every orbit meets the arc within q_k + q_(k-1) steps."""
    q2, q1, m, b = 1, 0, Q, P
    while m:
        q, r = divmod(b, m)
        q2, q1 = q1, q * q1 + q2
        if m <= C:
            return q1 + q2
        b, m = m, r
    return None


# ---------------------------------------------------------------------------
# the wrap table: visit counts and visit times in one descent
# ---------------------------------------------------------------------------
#
# Level 0 is the rotation by P on Z/Q with weight 1 on the arc [0, C) and 0
# elsewhere.  The positions x + l S of a level, grouped by wrap
# floor((x + l S) / m), start each wrap after the first at some z in [0, S),
# and the starts of successive wraps form the rotation of Z/S by (-m) mod S:
# the next level, whose weight at z is the weight of the wrap z starts.  A
# level with 2S > m is reflected first (y -> m - 1 - y, step m - S), so a
# large partial quotient stays one level.  Every weight is a step function of
# at most three pieces, and every level weighs C in all.  The visits of n
# positions are one pass down the levels: a partial first wrap, the next
# level's elements for the whole wraps and a partial last wrap at each.  The
# n-th visit is one pass down the levels, to the first whose partial first
# wrap holds the weight still wanted, and one pass back up: element J of a
# level is wrap J + 1 of the level above.

_WIDE = 1 << 62                     # levels with m below this run in int64


class _WrapLevel:
    """One level of the wrap table, in Python ints: the rotation by S on Z/m
    (S = 0 at the last level, which fixes every point), in coordinates
    reflected from the level above's where ``refl``, with weight vals[i] on
    the piece of Z/m that ends at ends[i]."""

    __slots__ = ("m", "S", "refl", "ends", "vals")

    def __init__(self, m: int, S: int, refl: bool, ends: tuple, vals: tuple):
        self.m, self.S, self.refl, self.ends, self.vals = m, S, refl, ends, vals


@functools.lru_cache(maxsize=128)
def _wrap_table(P: int, Q: int, C: int) -> tuple:
    """The levels of the wrap descent of the circle (P, Q, C)."""
    levels, m, S = [], Q, P
    starts, vals = ([0, C], [1, 0]) if C < Q else ([0], [1])
    while True:
        refl = 2 * S > m
        if refl:
            # [a, b) -> [m - b, m - a): the pieces stay half-open
            S, starts, vals = m - S, [m - e for e in (starts[1:] + [m])[::-1]], vals[::-1]
        levels.append(_WrapLevel(m, S, refl, (*starts[1:], m), tuple(vals)))
        if not S:
            return tuple(levels)
        # a wrap from z in [0, S) weighs the level's weight at z, z + S, ... < m
        pieces = list(zip(starts, starts[1:] + [m], vals))
        starts, vals = [], []
        for z in sorted({a % S for a, _, _ in pieces} | {m % S}):
            w = sum(v * (max(0, -((z - e) // S)) - max(0, -((z - a) // S)))
                    for a, e, v in pieces)
            if not vals or vals[-1] != w:
                starts.append(z)
                vals.append(w)
        m, S = S, -m % S


class _WrapForm:
    """One wrap level's constants in the arithmetic of a descent: limbs of
    ``rows`` rows where the level is wide, int64 where it is narrow, Python
    ints where ``rows`` is None.  Each piece end E_i is split as
    (gamma_i, delta_i) = divmod(E_i, S): of the positions x + l S, l >= 0, in
    the wrap of x = alpha S + beta, max(0, gamma_i + (beta < delta_i) - alpha)
    lie below E_i.  In lanes the weights saturate at 2^48, above every
    target, so that no sum of them wraps."""

    def __init__(self, lv: _WrapLevel, rows: Optional[int]):
        S, ints = lv.S, rows is None
        self.S, self.refl, self.rows = S, lv.refl, rows
        self.wide = not ints and lv.m >= _WIDE
        self.flip, self.down_wide = False, self.wide   # the next level's refl and wide
        split = [divmod(e, S) if S else (0, e) for e in lv.ends]
        dtype = object if ints else np.int64
        self.gamma = np.array([g for g, _ in split], dtype=dtype)[:, None]
        deltas = [d for _, d in split]
        self.v = np.array([v if ints else min(v, _NATIVE_QUOTIENT) for v in lv.vals],
                          dtype=dtype)
        self.sat = None if ints else -(-_NATIVE_QUOTIENT // np.maximum(self.v, 1))[:, None]
        if S:
            self.b, self.ceil_q = lv.m % S, -(-lv.m // S)
            self.mod = _Modulus(lv.m)
        if not self.wide:
            self.delta = np.array(deltas, dtype=dtype)[:, None]
            return
        # beta < delta_i is read from floats where they differ by more than
        # their rounding (a few ulps of the larger), and from limbs elsewhere
        self.fdelta = np.array(deltas, dtype=float)[:, None]
        self.tol = math.ldexp(max(S, *deltas), -45)
        self.delta = np.stack([_limbs(d, rows) for d in deltas], axis=1)
        if S:
            self.div = _Modulus(S)
            self.SL, self.bL, self.Sm1L = (_limbs(v, rows) for v in (S, self.b, S - 1))

    def below(self, beta) -> np.ndarray:
        """beta < delta_i per piece end (rows) and lane (columns)."""
        if not self.wide:
            return beta < self.delta
        return _below(beta, self.fdelta, self.delta, self.tol)

    def tally(self, lt, alpha=None) -> tuple:
        """For the comparisons lt of beta with the deltas and the positions
        alpha skipped from the start of beta's wrap: the counts D of the
        wrap's positions below each piece end and the weight summed to each
        end, each with a zero row on top."""
        D = np.zeros((len(lt) + 1, lt.shape[1]), dtype=self.gamma.dtype)
        if alpha is None:
            np.add(self.gamma, lt, out=D[1:])
        else:
            np.maximum(self.gamma + lt - alpha, 0, out=D[1:])
        w = D[1:] - D[:-1]
        if self.sat is not None:
            np.minimum(w, self.sat, out=w)
        w *= self.v[:, None]
        cum = np.zeros_like(D)
        for i, wi in enumerate(w):
            np.add(cum[i], wi, out=cum[i + 1])
        return D, cum

    def weigh(self, lt, skip, top) -> np.ndarray:
        """The weight of the positions skip, ..., skip + top - 1 of beta's
        wrap, per lane (lt: beta < delta_i): D_i = min(max(0, gamma_i +
        lt_i - skip), top) of them lie below each piece end.  In lanes no
        piece they meet saturates, since they weigh less than 2^48 in all."""
        D = np.minimum(np.maximum(self.gamma + lt - skip, 0), top)
        D[1:] -= D[:-1]
        return self.v @ D

    def locate(self, D, cum, t) -> tuple:
        """For a wrap that holds the weight t >= 1: the offset of the first
        position whose weight brings the sum to t, and the weight in [1, v]
        still wanted there."""
        below = cum[1:] < t
        i = below[0].astype(np.intp)
        for row in below[1:]:
            i += row
        flat = i * len(t) + np.arange(len(t))
        before, v = cum.ravel()[flat], self.v[i]
        k = (t - before - 1) // v
        return D.ravel()[flat] + k, t - before - k * v

    def split(self, x) -> tuple:
        """divmod(x, S) per lane."""
        if self.wide:
            return _divmod_limbs(x, self.div), x
        alpha = x // self.S
        return alpha, x - alpha * self.S

    def wraps(self, x, K) -> tuple:
        """divmod(x + K S, m) per lane, for K >= 0 and quotients below 2^48
        in lanes; x is left as it is.  Where the level is narrow, x + K S
        may pass 2^63: the quotient is estimated in float64 from below,
        within one, and raised once where the int64 remainder, which wraps
        to its exact value, is not below m."""
        if self.wide:
            y = self.at(x, K)
            return _divmod_limbs(y, self.mod), y
        m = self.mod.m
        if self.rows is None:
            y = x + K * self.S
            return y // m, y % m
        W = ((x + K.astype(float) * self.S) * self.mod.scale).astype(np.int64)
        p = x + K * self.S - W * m
        over = p >= m
        return W + over, p - over * m

    def at(self, beta, k):
        """beta + k S, in limbs normalized up to the last row, which takes
        the carry out."""
        if not self.wide:
            return beta + k * self.S
        y = beta + self.SL * (k & _MASK)
        y[1:] += self.SL[:-1] * (k >> _LIMB)
        return _carry(y, self.rows - 1)

    def mirror(self, z):
        """S - 1 - z: the next level's reflection."""
        return _carry(self.Sm1L - z, self.rows - 1) if self.wide else self.S - 1 - z

    def start_below(self, beta, lt_b):
        """The start (beta - b) mod S of the next wrap, in the next level's
        coordinates and arithmetic (lt_b: beta < b)."""
        if self.wide:
            z = _carry(beta - self.bL + self.SL * lt_b, self.rows - 1)
        else:
            z = (beta - self.b) % self.S
        if self.flip:
            z = self.mirror(z)
        return _WRAP_WEIGHTS[:self.rows] @ z if self.wide and not self.down_wide else z

    def start_above(self, y):
        """The next level's position y in this level's coordinates and
        arithmetic: the start of a wrap."""
        if self.wide and not self.down_wide:
            y = np.vstack([y & _MASK, y >> _LIMB & _MASK, y >> 2 * _LIMB,
                           np.zeros((self.rows - 3, len(y)), dtype=np.int64)])
        return self.mirror(y) if self.flip else y


def _wrap_forms(table: tuple, rows: Optional[int]) -> tuple:
    forms = tuple(_WrapForm(lv, rows) for lv in table)
    for f, g in zip(forms, forms[1:]):
        f.flip, f.down_wide = g.refl, g.wide
    return forms


def _count(forms: tuple, x, n: np.ndarray) -> np.ndarray:
    """Per lane, the weight of the n >= 0 level-0 positions x + l S,
    0 <= l < n, from x in level 0's arithmetic (int64 in lanes, whose
    counts stay below 2^48, Python ints otherwise).

    At each level the positions end at p = (x + (n - 1) S) mod m, after
    W = floor((x + (n - 1) S) / m) wraps: the rest of x's wrap, W - 1 whole
    wraps, which are the next level's W - 1 elements from the start of wrap
    1, and a last wrap up to p, each partial wrap weighed where it lies
    (`_WrapForm.weigh`).  At the last level, which fixes every point, each
    of the n positions weighs as x does."""
    total = np.zeros(len(n), dtype=n.dtype)
    lanes = np.arange(len(n))
    for f in forms:
        if not n.size or n.min() <= 0:
            go = np.flatnonzero(n > 0)
            if not len(go):
                break
            lanes, x, n = lanes[go], x[..., go], n[go]
        if not f.S:
            total[lanes] += n * f.weigh(f.below(x), 0, 1)
            break
        k = len(n)
        W, p = f.wraps(x, n - 1)
        # x and p split in one batch: x's wrap from x on, p's wrap up to p
        alpha, beta = f.split(np.concatenate((x, p), axis=-1))
        lt = f.below(beta)
        w = f.weigh(lt, np.concatenate((alpha[:k], np.zeros_like(n))),
                    np.concatenate((n, np.where(W > 0, alpha[k:] + 1, 0))))
        total[lanes] += w[:k] + w[k:]
        x, n = f.start_below(beta[..., :k], lt[-1, :k]), W - 1
    return total


def _descend(forms: tuple, x, t: np.ndarray, image: bool = False) -> np.ndarray:
    """Per lane, the index L >= 0 of the level-0 position x + L S at which
    the weight summed from x reaches t >= 1, or with ``image`` that position
    itself, in level 0's arithmetic; every orbit must meet some weight
    (`RotationCounter._solve` rejects those that do not).  x is one
    start per lane, or one start (one column) that every lane shares.

    Down: a level whose partial first wrap from x holds t locates it there;
    otherwise t loses that wrap's weight and the next level starts from the
    next wrap.  Nothing but t depends on the lane there, so a shared start
    goes down on its one column, and its D, cum and beta reach the lanes
    only where they stop.  Up: element J of the next level is wrap J + 1 of
    this one, which begins J ceil(m / S) + c0 - w positions after x (c0: the
    first wrap's length, w: the next level's wraps before J, unreflected),
    and the weight still wanted is located inside it, per lane."""
    shared = np.shape(x)[-1] < len(t)
    stack, need_y = [], image
    for f in forms:
        if not f.S:                      # every point fixed: whole turns
            whole = f.tally(f.below(x))[1][-1]
            L = (t - 1) // whole
            t, omega = t - L * whole, 0
            y = x[..., np.zeros(len(t), dtype=np.intp)] if shared else x
            break
        alpha, beta = f.split(x)
        lt = f.below(beta)
        D, cum = f.tally(lt, alpha)
        down = cum[-1] < t
        if down.all():
            j, here = slice(None), None
        else:
            k = np.flatnonzero(~down)
            c = np.zeros(len(k), dtype=np.intp) if shared else k
            L, r = f.locate(D[:, c], cum[:, c], t[k])
            y = f.at(beta[..., c], L + alpha[c]) if need_y else None
            if len(k) == len(t):
                t, omega = r, 0
                break
            j, here = np.flatnonzero(down), (k, L, r, y)
        c = slice(None) if shared else j
        stack.append((f, j, here, D[-1, c], need_y))
        t = t[j] - cum[-1, c]
        x, need_y = f.start_below(beta[..., c], lt[-1, c]), True
    for f, j, here, c0, need_y in reversed(stack):
        zeta = f.start_above(y)
        omega = L - omega if f.flip else omega
        first = L * f.ceil_q + c0 - omega
        d, t = f.locate(*f.tally(f.below(zeta)), t)
        J, L = L, first + d
        y = f.at(zeta, d) if need_y else None
        omega = J + 1
        if here is not None:
            k, dk, rk, yk = here
            n = len(j) + len(k)
            L, t, omega = (_merge(a, ak, j, k, n) for a, ak in ((L, dk), (t, rk), (omega, 0)))
            if need_y:
                y = _merge(y, yk, j, k, n)
    return y if image else L


def _merge(a, ak, j, k, n):
    """The lanes j of a and k of ak, interleaved into n lanes."""
    out = np.empty(np.shape(a)[:-1] + (n,), dtype=np.result_type(a))
    out[..., j] = a
    out[..., k] = ak
    return out


def _first_start(P: int, Q: int, C: int) -> tuple:
    """(A, B, S): level 0 of the wrap table sees the point u at (u + A) mod
    Q where ``forward`` differs from its reflection and at (B - u) mod Q
    where they agree, and steps by S there; the descent for the visits
    after u starts one step on, and the visit it reaches at y is the image
    y - A, or B - y.  A backward count from u is a forward count from
    C - 1 - u, since y -> C - 1 - y maps the arc onto itself and reverses
    the rotation."""
    if _wrap_table(P, Q, C)[0].refl:
        return Q - C, Q - 1, Q - P
    return 0, C - 1, P


class _NativeCircle:
    """The native form of one circle (P, Q, C): Q as `_divmod_limbs` reads
    it, the limbs of P and Q as columns, C and Q as `_below` reads them, the
    wrap table in lanes (`_count`, `_descend`) with the offsets of its level
    0, and ``index_limit``, the visit indices the lanes solve, the last
    three built at the circle's first query that needs them.

    A count below 2^48 keeps every quotient of its descent below the
    kernel's bound.  An n-th visit comes within n E steps
    (`_first_visit_bound`), so indices n with n E < 2^48 keep every time,
    target and quotient of a visit-time descent below it too."""

    def __init__(self, P: int, Q: int, C: int):
        self.mod = _Modulus(Q)
        self.rows = rows = self.mod.k + 1
        self.P, self.QL = _limbs(P, rows), _limbs(Q, rows)
        # C for `in_arc` and Q for `enter`, as `_below` reads them
        self.arc, self.top = (_bound(v, rows) for v in (C, Q))
        self.circle = P, Q, C

    @functools.cached_property
    def index_limit(self) -> int:
        E = _first_visit_bound(*self.circle)
        return _NATIVE_QUOTIENT // E if E else 0

    @functools.cached_property
    def wrap(self) -> tuple:
        return _wrap_forms(_wrap_table(*self.circle), self.rows)

    @functools.cached_property
    def level0(self) -> tuple:
        """The offsets of `_first_start` as the descent uses them: A + S and
        B + S + Q as limb columns (its start from u is u + A + S or, kept
        non-negative, B + S + Q - u, mod Q), then A and B in the arithmetic
        of level 0 (the visit at the position y is y - A or B - y)."""
        P, Q, C = self.circle
        A, B, S = _first_start(P, Q, C)
        ends = (_limbs(A, self.rows), _limbs(B, self.rows)) if self.wrap[0].wide else (A, B)
        return (_limbs(A + S, self.rows), _limbs(B + S + Q, self.rows)), ends

    def first(self, u: _Lanes, plus) -> np.ndarray:
        """Where the descent for the visits after u starts, in the
        arithmetic of level 0; ``plus`` (`_first_start`) is one bool per
        lane or one for all."""
        AS, BSQ = self.level0[0]
        x = _carry(np.where(plus, u.x + AS, BSQ - u.x), self.rows - 1)
        _divmod_limbs(x, self.mod)
        return x if self.wrap[0].wide else _WRAP_WEIGHTS[:self.rows] @ x

    def image(self, y, plus, floats: bool) -> np.ndarray:
        """The visits whose level-0 positions `_descend` reached at y, as
        Python ints or, with ``floats``, as their floats (`_exit`)."""
        A, B = self.level0[1]
        y = np.where(plus, y - A, B - y)
        return _exit(_carry(y, self.rows - 1) if self.wrap[0].wide else y, floats)

    def enter(self, v: np.ndarray) -> _Lanes:
        """v mod Q for integer-valued floats 0 <= v < 2Q: exact limbs
        (`_to_lanes`), less Q where they are not below it."""
        x = _to_lanes(v, self.rows).x
        over = np.flatnonzero(~_below(x, *self.top)[0])
        if len(over):
            x[:, over] = _carry(x[:, over] - self.QL, self.rows - 1)
        return _Lanes(x)

    def shift(self, u: _Lanes, s: np.ndarray) -> _Lanes:
        """(u + s P) mod Q per lane, for steps 0 <= s < 2^48."""
        x = u.x + self.P * (s & _MASK)
        if s.max() >> _LIMB:
            x[1:] += self.P[:-1] * (s >> _LIMB)
        _divmod_limbs(x, self.mod)
        return _Lanes(x)

    def in_arc(self, y: _Lanes) -> np.ndarray:
        """y < C per lane, for y in [0, Q): a comparison (`_below`)."""
        return _below(y.x, *self.arc)[0]


@functools.lru_cache(maxsize=128)
def _native_circle(P: int, Q: int, C: int) -> Optional[_NativeCircle]:
    """The native form of the circle, or None where the lanes cannot run
    its descents: Q of more than 118 bits, or a wide level of the wrap table
    whose wraps hold 2^48 positions or more."""
    if Q.bit_length() > _NATIVE_BITS or any(
            lv.S and lv.m >= _WIDE and -(-lv.m // lv.S) >= _NATIVE_QUOTIENT
            for lv in _wrap_table(P, Q, C)):
        return None
    return _NativeCircle(P, Q, C)


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
        self.P, self.Q, self.C = P, Q, C = _index(P), _index(Q), _index(C)
        if not (0 < P < Q and 0 < C <= Q):
            raise ValueError("need 0 < P < Q and 0 < C <= Q")

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

    def signed_residue(self, n: int) -> int:
        """The displacement of n rotation steps, n*P mod Q, as the
        representative in (-Q/2, Q/2]."""
        r = (_index(n) * self.P) % self.Q
        return r - self.Q if 2 * r > self.Q else r

    # -- lifting -----------------------------------------------------------

    def lift(self, x) -> np.ndarray:
        """Snap circle points in [0,1) to the integer grid Z/Q (exact ints)."""
        return _INT(self._cells(x)) % self.Q

    def _cells(self, x) -> np.ndarray:
        """floor(x Q + 0.5): the grid cells of the points x, as floats."""
        return np.floor(np.asarray(x, dtype=float) * self.Q + 0.5)

    def _enter(self, x):
        """`lift` of the points x (one axis), in native lanes where the
        float route takes the circle (native, below 2^83, where `_exit`
        reads floats without Python ints) and every cell lies in [0, 2Q),
        whose reduction mod Q is one conditional subtraction
        (`_NativeCircle.enter`); Python ints, as `lift` gives them,
        otherwise."""
        v, native = self._cells(x), self._native
        if (native is not None and not self.Q >> _FLOAT_EXIT_BITS and v.ndim == 1
                and v.size and 0 <= float(v.min()) and float(v.max()) < 2 * self.Q):
            return native.enter(v)
        return _INT(v) % self.Q

    # -- native form ---------------------------------------------------------

    @functools.cached_property
    def _native(self) -> Optional[_NativeCircle]:
        return _native_circle(self.P, self.Q, self.C)

    def _lanes_for(self, n: np.ndarray, solve: bool) -> Optional[_NativeCircle]:
        """The native circle if it takes these counts (below 2^48) or, to
        ``solve`` for visit times, these visit indices (below its
        ``index_limit``); None sends the call to the object path."""
        native = self._native
        if native is None or not n.size:
            return None
        return native if n.max() < (native.index_limit if solve else _NATIVE_QUOTIENT) else None

    # -- counting ----------------------------------------------------------

    def visits(self, u, n, forward=True) -> np.ndarray:
        """Number of l in {1..n} with (u + l*P) mod Q < C, or (u - l*P) mod Q
        < C where not ``forward`` (a bool or one per point); exact,
        vectorized, 0 for n <= 0.

        One `_count` down the circle's wrap table per point, from the
        position after u (after C - 1 - u where not ``forward``,
        `_first_start`), all points and both directions in one batch.  It
        runs in native lanes for counts below 2^48 on a circle the kernel
        takes, and on Python ints otherwise, by the same code.
        """
        u, n = _exact_ints(u, n)
        shape = u.shape
        fwd = np.broadcast_to(np.asarray(forward, dtype=bool), shape).reshape(-1)
        u, n = u.reshape(-1), np.maximum(n.reshape(-1), 0)
        native = self._lanes_for(n, solve=False)
        forms, x, _ = self._descent_start(u, fwd, native)
        count = _count(forms, x, n if native is None else n.astype(np.int64))
        return count.astype(object).reshape(shape)

    def psi(self, u, n) -> np.ndarray:
        """Number of l in {0..n-1} with (u + l*P) mod Q < C (count includes l=0)."""
        u, n = _exact_ints(u, n)
        at_zero = np.where((n > 0) & (u % self.Q < self.C), 1, 0)
        return self.visits(u, n - 1) + at_zero

    # -- inverse query: time of the n-th visit -----------------------------

    def visit_time(self, u, n, forward=True) -> np.ndarray:
        """Smallest N >= 1 with visits(u, N, forward) = n (N = 0 for n = 0),
        exact, vectorized; ``forward`` is a bool or one per point.

        One descent of the circle's wrap table per point (`_solve`), all
        points and both directions in one batch.  An orbit that never meets
        the arc (off the arc of a non-coprime circle) raises ValueError."""
        u, n = _exact_ints(u, n)
        if bool(np.any(n < 0)):
            raise ValueError("visit index must be >= 0")
        shape = u.shape
        fwd = np.broadcast_to(np.asarray(forward, dtype=bool), shape).reshape(-1)
        u, n = u.reshape(-1), n.reshape(-1)
        N = np.zeros(len(n), dtype=object)
        go = np.flatnonzero(n > 0)
        if len(go):
            N[go] = self._solve(u[go], n[go], fwd[go])
        return N.reshape(shape)

    @functools.cached_property
    def _wrap(self) -> tuple:
        return _wrap_forms(_wrap_table(self.P, self.Q, self.C), None)

    def _solve(self, u, n, fwd, image: bool = False, floats: bool = False) -> np.ndarray:
        """The times N >= 1 of the n-th visits, n >= 1, after the points u
        in the directions ``fwd``, or with ``image`` the visits themselves,
        as Python ints (as their floats with ``floats``, `_exit`): one
        `_descend` from the position after u (after C - 1 - u where not
        ``forward``: the reflection y -> C - 1 - y keeps the arc and
        reverses the rotation, `_first_start`).  u holds one point per
        index, or one point (a one-element array) whose descent then shares
        its start, and fwd one direction per index or one bool for all; u is
        Python ints or lanes (`_enter`).  The indices descend in chunks of
        `_SOLVE_CHUNK`, each from its own start, so the working memory of a
        batch is that of one chunk.  Indices below the native circle's
        ``index_limit`` (int64 or Python ints) solve in native lanes, the
        others on Python ints, by the same code.  An orbit that never meets
        the arc (off the arc of a non-coprime circle) raises ValueError."""
        g = math.gcd(self.P, self.Q)
        if g > self.C:
            # the orbit of u stays in u + g Z, which meets [0, C) iff u mod g < C
            ints = _to_ints(u.x) if isinstance(u, _Lanes) else u
            miss = ints % g >= self.C
            if np.any(miss):
                raise ValueError(f"the orbit of {ints[miss][0]} never returns to the arc")
        native = self._lanes_for(n, solve=True)
        A, B, _ = _first_start(self.P, self.Q, self.C)
        shared, each = len(u) < len(n), np.ndim(fwd) > 0
        out = np.empty(len(n), dtype=float if image and floats else object)
        for a in range(0, len(n), _SOLVE_CHUNK):
            c = slice(a, a + _SOLVE_CHUNK)
            forms, x, plus = self._descent_start(u if shared else u[c], fwd[c] if each else fwd,
                                                 native)
            if native is not None:
                y = _descend(forms, x, n[c].astype(np.int64, copy=False), image)
                out[c] = native.image(y, plus, floats) if image else y + 1
            else:
                y = _descend(forms, x, n[c].astype(object), image)
                out[c] = _exit(np.where(plus, y - A, B - y), floats) if image else y + 1
        return out

    def _descent_start(self, u, fwd, native: Optional[_NativeCircle]) -> tuple:
        """The wrap table in the native circle's lanes, or on Python ints
        where ``native`` is None, the start of the descent for the positions
        after each point u in the direction ``fwd`` (u: Python ints or
        lanes), and ``plus`` (`_first_start`)."""
        plus = fwd != _wrap_table(self.P, self.Q, self.C)[0].refl
        if native is not None:
            if not isinstance(u, _Lanes):
                u = _to_lanes(u % self.Q, native.rows)
            return native.wrap, native.first(u, plus), plus
        if isinstance(u, _Lanes):
            u = _to_ints(u.x)
        A, B, S = _first_start(self.P, self.Q, self.C)
        return self._wrap, np.where(plus, u + (A + S), (B + S + self.Q) - u) % self.Q, plus

    def first_hit(self, u, horizon, forward=True) -> np.ndarray:
        """Smallest N in [1, horizon] with (u +- N P) mod Q in the arc, or
        horizon + 1 if the orbit misses the arc over the whole window;
        horizon is a count >= 0 (ValueError otherwise) and ``forward`` a
        bool, each or one per point: `visit_time` of the first visit, capped
        at horizon + 1."""
        for h in np.ravel(horizon).tolist():
            _check_count("horizon", h, low=0)
        u = np.asarray(u, dtype=object)
        out = np.broadcast_to(np.asarray(horizon, dtype=object), u.shape) + 1
        forward = np.broadcast_to(np.asarray(forward, dtype=bool), u.shape)
        # the orbit of u stays in u + g Z, g = gcd(P, Q), which meets [0, C)
        # iff u mod g < C; the other orbits never visit
        idx = np.flatnonzero(u % math.gcd(self.P, self.Q) < self.C)
        if len(idx):
            out[idx] = np.minimum(self.visit_time(u[idx], 1, forward[idx]), out[idx])
        return out

    def power(self, u, n, floats: bool = False) -> np.ndarray:
        """Exact positions on Z/Q of the n-th induced-map image of arc points u.

        n is an int or a per-point array of any sign: negative exponents run
        the inverse map, and a zero exponent leaves the point where it is.
        One point u with an array n gives its images at every exponent.
        Each image is the visit where its `visit_time` descent ends
        (`_solve`), one batch per direction, which descends in chunks of
        `_SOLVE_CHUNK`: distinct points descend once each, and the descents
        of one point start from it once a chunk.  A batch runs in native
        lanes, each chunk crossing to them and back once, when every |n| in
        it is below the native circle's ``index_limit``.  u may be lanes
        from `_enter`; with ``floats`` the images are their floats (`_exit`).
        """
        one = not isinstance(u, _Lanes) and np.ndim(u) == 0
        if isinstance(u, _Lanes):
            n = np.broadcast_to(_exponents(n), u.x.shape[1:])
            out = _exit(u.x, floats)
        elif one:
            u0, n = _index(np.asarray(u, dtype=object).item()), _exponents(n)
            u, out = np.array([u0], dtype=object), _exit(np.full(n.shape, u0, dtype=object), floats)
        else:
            u, n = _exact_ints(u, n)
            out, u = _exit(u, floats), u.reshape(-1)
        flat = n.reshape(-1)
        for ahead in (True, False):
            k = np.flatnonzero(flat > 0 if ahead else flat < 0)
            if len(k):
                out.flat[k] = self._solve(u if one else u[k], flat[k] if ahead else -flat[k],
                                          ahead, image=True, floats=floats)
        return out

    def orbit(self, u0: int, start: int, idx, floats: bool = False) -> np.ndarray:
        """``power(u0, start + i)`` at the strictly increasing indices i >= 0
        of idx (ValueError otherwise), exact: the one evaluation of an orbit
        window; with ``floats`` the points are their floats (`_exit`), by
        the same routes.

        Where the circle has native lanes and the window's span at the arc's
        density C / Q takes fewer rotation positions than solving its points
        costs (priced once), one `power` solve at the first index and its
        returns at the later indices (`_returns`); otherwise one `power` of
        u0 at every index, whose descents start from u0 once.  Indices stay
        int64 where they and start + i fit.  A point off the arc is its own
        zeroth power but no image of its (-1)-th, so a stretch through
        exponent 0 restarts there."""
        u0, start, idx = _index(u0), _index(start), _ints(idx)
        if len(idx) and (idx[0] < 0 or np.any(idx[1:] <= idx[:-1])):
            raise ValueError("orbit indices must be strictly increasing and >= 0")
        if idx.dtype.kind == "i" and len(idx) and abs(start) + int(idx[-1]) < 1 << 62:
            idx = idx.astype(np.int64, copy=False)
        else:
            idx = idx.astype(object)
        density = self.Q / self.C          # rotation positions per arc visit
        if self._native is None or len(idx) < 2 or (
                int(idx[-1] - idx[0]) * density >= (len(idx) - 1) * _SOLVE_POINT + _SOLVE_CALL):
            return self.power(u0, start + idx, floats)
        out = np.empty(len(idx), dtype=float if floats else object)
        cut = (int(np.count_nonzero(idx < -start))
               if start < 0 and not 0 <= u0 < self.C else len(idx))
        for lo, hi in ((0, cut), (cut, len(idx))):
            if lo < hi:
                first = self.power(u0, [start + int(idx[lo])])
                out[lo] = _exit(first, floats)[0]
                offsets = (idx[lo + 1:hi] - idx[lo]).astype(np.int64)
                positions = math.ceil(int(idx[hi - 1] - idx[lo]) * density) + 64
                out[lo + 1:hi] = self._returns(first % self.Q, offsets, positions, floats)
        return out

    def _returns(self, u: np.ndarray, offsets: np.ndarray, positions: int,
                 floats: bool) -> np.ndarray:
        """The arc visits at the sorted, distinct offsets >= 1 after the one
        point u of Z/Q (offset k: the k-th visit), as Python ints or, with
        ``floats``, as their floats (`_exit`).

        Scans the rotation positions u + l P, 1 <= l <= ``positions``, in
        native lanes, in blocks of at most 2^16, up to the block that holds
        the last offset, and converts only the visits asked for.  Where the
        positions run out first (a coset of u sparser than the arc, a long
        return), one `power` of the last visit scanned solves the offsets
        still missing, and raises ValueError where the orbit misses the
        arc."""
        native = self._native
        out = np.empty(len(offsets), dtype=float if floats else object)
        x = last = _to_lanes(u, native.rows)   # the last visit
        seen, done = 0, 0                      # visits met, offsets filled
        for a in range(1, positions + 1, 1 << 16):
            if done == len(offsets):
                break
            y = native.shift(x, np.arange(a, min(a + (1 << 16), positions + 1)))
            hits = np.flatnonzero(native.in_arc(y))
            if len(hits):
                # the offsets this block reaches, and its last visit
                m = int(np.searchsorted(offsets, seen + len(hits), side="right")) - done
                got, last = y[hits[offsets[done:done + m] - seen - 1]], y[hits[-1:]]
                out[done:done + m] = _exit(got.x, floats)
                done, seen = done + m, seen + len(hits)
        if done < len(offsets):
            out[done:] = self.power(_to_ints(last.x)[0], offsets[done:] - seen, floats)
        return out


def _index(v) -> int:
    """v by `operator.index`, a bool refused: the one reading of an integer."""
    if isinstance(v, bool):
        raise TypeError(f"expected an integer, not {v!r}")
    return operator.index(v)


def _ints(v):
    """Integers by `_index`'s rule: a scalar is read once, as a Python int;
    an array is returned as it is if its dtype is an integer one, or an
    object one holding no bool, and refused otherwise (TypeError), bools and
    floats among them (`operator.index` would read True as 1)."""
    a = np.asarray(v)
    if a.ndim and a.dtype.kind not in "iuO":
        raise TypeError(f"expected integers, not {a.dtype}")
    if a.dtype == object and bool in set(map(type, a.ravel())):
        raise TypeError("expected integers, not a bool")
    return a if a.ndim else _index(a.item())


def _check_count(name: str, v, low: int = 1) -> None:
    """ValueError unless v is an integer >= low, not a bool: the one count check."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
        raise ValueError(f"{name} must be an integer >= {low}, not {v!r}")


_INDEX = np.frompyfunc(operator.index, 1, 1)
_INT = np.frompyfunc(int, 1, 1)        # floats to Python ints, past 2^63 too


def _exponents(n) -> np.ndarray:
    """Exponents as NumPy gives them where they are signed ints whose
    negation cannot overflow, as Python ints otherwise."""
    n = np.asarray(_ints(n))
    if n.dtype.kind != "i" or (n.size and n.min() == np.iinfo(n.dtype).min):
        return np.asarray(_INDEX(n.astype(object)), dtype=object)
    return n


def _exact_ints(u, n) -> tuple[np.ndarray, np.ndarray]:
    """Points u and counts n, each read by `_ints` (a scalar once), n broadcast to
    u's shape, as object arrays of Python ints: a NumPy integer would run the
    Python-int descents in fixed width and overflow on deep circles."""
    u, n = np.asarray(_INDEX(np.asarray(_ints(u), dtype=object)), dtype=object), _ints(n)
    return u, (np.full(u.shape, n, dtype=object) if isinstance(n, int)
               else _INDEX(np.broadcast_to(n.astype(object), u.shape)))
