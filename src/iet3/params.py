"""Documented parameter sets.

The switch construction needs rotation numbers whose renormalization orbit
passes close to the half-marked square torus with a small unit-return
displacement.  That forces large partial quotients at the working scales
(badly approximable rotation numbers, the golden mean included, have
N ||N alpha|| bounded below by ~0.447 at every N and never qualify).  The
documented family engineers a continued fraction with a ladder of large
quotients and tunes the induced-interval length so the crossing fractions
sit at 1/2 on each working scale.

The tuning was done by exact integer scan (see demos/derive_parameters.py);
the chosen numbers are frozen here and re-derived in tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import cf_convergents, cf_to_fraction
from .iet_core import Iet3, RotationRep, from_rotation

__all__ = [
    "SWITCH_CF_PLAN",
    "switch_kappa",
    "documented_switch_iet",
    "documented_tower_iet",
    "golden_iet",
]

# continued fraction of the documented rotation number: a short prefix, a
# ladder of three large quotients (one per admissible working scale), and a
# padding tail pushing the exact denominator far below the deepest
# construction scale
SWITCH_CF_PLAN = [0, 4, 8000, 250000, 200_000_000_000] + [1] * 16

# marked-length numerator offset found by the exact tuning scan: the closing
# segments at all three scales have length 1/2 up to ~1e-4
_KAPPA_TUNE_STEPS = -30


def _plan_data():
    alpha = cf_to_fraction(SWITCH_CF_PLAN)
    P, Q = alpha.numerator, alpha.denominator
    qs = [q for _, q in cf_convergents(SWITCH_CF_PLAN)]
    h = Q // (80 * qs[2])  # the working scales qs[1:4] are 4, 32001, 8000250004
    C = (7 * Q) // 8 + _KAPPA_TUNE_STEPS * h
    return P, Q, C


_P, _Q, _C = _plan_data()


def switch_kappa() -> Fraction:
    return Fraction(_C, _Q)


def documented_switch_iet() -> Iet3:
    """The documented 3-IET for tower/switch/witness runs (exact Fraction lengths)."""
    return from_rotation(RotationRep(Fraction(_P, _Q), switch_kappa()))


# tower set: l1 = 1/2 exactly (kappa = 2 alpha), which maps the right break
# point onto the left one so the two discontinuity orbits merge; single
# interval towers then reach the full induced return height, and the two
# large consecutive quotients give coverage ~1 - 1/(60*90) with rigidity
# ~2/150 at the second scale
_TOWER_CF_PLAN = [0, 2, 3, 60, 90, 150] + [1] * 10


def documented_tower_iet() -> Iet3:
    """The documented 3-IET for Rokhlin-tower runs (exact Fraction lengths)."""
    a = cf_to_fraction(_TOWER_CF_PLAN)
    return from_rotation(RotationRep(a, 2 * a))


def golden_iet(kappa: float = 1 / 1.3) -> Iet3:
    """Golden-mean rotation number with the given induced length (binary64).

    Useful for rotation-side checks; the switch construction is not
    admissible here (N ||N alpha|| never drops below ~0.447).
    """
    return from_rotation(RotationRep((math.sqrt(5) - 1) / 2, kappa))
