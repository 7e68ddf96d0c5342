"""Exact Kantorovich-Rubinstein distances between discrete joinings.

Small instances are solved exactly (assignment or the transportation LP);
large ones go through an exact min-cost flow on a grid quantization with a
certified snap-cost interval, or through explicit coupling/duality bounds
when the measures are graph-supported.
"""

import numpy as np

from iet3 import Iet3
from iet3.joinings import (DiscreteMeasure2D, kr_distance, kr_distance_detailed,
                           kr_lower_witness, kr_upper_binned, mix,
                           product_sample, sample_power_joining)

# the two-atom worked example: optimal matching beats the identity pairing
mu = DiscreteMeasure2D(np.array([0.0, 0.9]), np.array([0.0, 0.9]), np.array([0.5, 0.5]))
nu = DiscreteMeasure2D(np.array([0.1, 0.8]), np.array([0.0, 0.9]), np.array([0.5, 0.5]))
print("two-atom example:", kr_distance(mu, nu), "(brute force: 0.1)")

iet = Iet3(0.2, 0.3, 0.5)
diag = sample_power_joining(iet, 0, 600, seed=1)
graph1 = sample_power_joining(iet, 1, 600, seed=2)
d = kr_distance_detailed(diag, graph1)
print(f"\nd(diagonal, graph of T) at 600 atoms: {d['value']:.4f} via {d['method']}")

big_a = sample_power_joining(iet, 0, 100_000, seed=3)
big_b = sample_power_joining(iet, 1, 100_000, seed=3)
g = kr_distance_detailed(big_a, big_b, method="grid", grid=128)
print(f"same at 1e5 atoms via grid flow: {g['value']:.4f} +- {g['bound']:.4f}")

# certified bracket from the structure-aware bounds
up = kr_upper_binned(big_a, big_b, bins=512)
lo = kr_lower_witness(big_a, big_b)
print(f"certified bracket: [{lo:.4f}, {up:.4f}]")

prod = product_sample(100_000, seed=4)
half = mix(big_a, big_b)
print(f"\nhalf mixture vs product: lower bound "
      f"{kr_lower_witness(prod, half):.4f} (far apart)")
