"""Desk-scale numerics for symmetric 3-interval exchange transformations.

Modules cover the exchange map and its rotation correspondence (`iet_core`),
marked-torus renormalization (`renorm`), Rokhlin towers (`towers`), discrete
joinings with exact Kantorovich-Rubinstein distances (`joinings`), the
iterative switch construction of self-joinings (`construction`), and the
documented parameter sets (`params`).  The `cli` module exposes everything
as subcommands of the `iet3` executable.
"""

__version__ = "0.1.0"

from .arith import RotationCounter
from .iet_core import (Iet3, OrbitSegment, RotationRep, apply, apply_pow,
                       apply_pow_many, from_rotation, orbit, psi_count,
                       to_rotation)
from .params import documented_switch_iet, documented_tower_iet, golden_iet

__all__ = [
    "RotationCounter",
    "Iet3", "OrbitSegment", "RotationRep", "apply", "apply_pow",
    "apply_pow_many", "from_rotation", "orbit", "psi_count", "to_rotation",
    "documented_switch_iet", "documented_tower_iet", "golden_iet",
    "__version__",
]
