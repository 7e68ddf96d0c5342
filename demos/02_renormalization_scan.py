"""Finding renormalization times on the marked torus.

The exchange suspends to a flat torus with two marked points; the diagonal
flow g_t = diag(e^t, e^-t) renormalizes it.  Useful times are those where
the flowed torus is near the half-marked square torus and the unit vertical
return lands on the same horizontal with a small displacement rho.  Those
times are exactly t = ln N for integers N with N*alpha nearly integer, so
the documented switch family plants large continued-fraction quotients at
its working scales.
"""

from iet3 import documented_switch_iet, to_rotation
from iet3.renorm import dist_to_hat, torus_of_iet, apply_gt, scan_renorm_times

iet = documented_switch_iet()
rep = to_rotation(iet)
print(f"alpha ~ {float(rep.alpha):.10f}, kappa ~ {float(rep.kappa):.10f}")

torus = torus_of_iet(iet)
print("torus basis:\n", torus.basis, "\nmarked offset:", torus.marked)
print("distance to the half-marked square torus at t=0:",
      f"{dist_to_hat(torus):.4f}")

scan = scan_renorm_times(iet, delta=0.3, t_max=11.0)
print(f"\naccepted times (delta = 0.3, t <= 11): {len(scan.times)}")
for rt in scan.times:
    print(f"  t = ln({rt.n_steps}) = {rt.t:.4f}: dist = {rt.dist_hat:.4f}, "
          f"rho = {rt.rho:.3e}, closing length = {rt.V_len:.4f}, "
          f"crossing counts {rt.m}/{rt.m + 1} with fractions "
          f"{rt.m_fractions[0]:.3f}/{rt.m_fractions[1]:.3f}")
    # the float flow and reduction of the torus agree with the exact record
    # at these moderate scales
    print(f"    float flow: dist = {dist_to_hat(apply_gt(torus, rt.t)):.4f}")

print(f"\n(candidates rejected: {len(scan.rejections)}; first few reasons)")
for t, reason in scan.rejections[:5]:
    print(f"  t = {t:.3f}: {reason}")
