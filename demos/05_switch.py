"""One switch: a power of T that is near the identity on half the space and
near T on the other half.

At a good renormalization scale N, points of the slit split by whether a
length-N orbit window crosses the slit m or m+1 times.  On the m-side T^m
moves every point by exactly ||N alpha||; on the (m+1)-side T^(m+1) does.
The power n = b + (m+1)(a-b) therefore shadows T^a on an m-type tower A and
T^b on the (m+1)-type set B.  All claims are certified or sampled with
recorded margins.
"""

from iet3 import documented_switch_iet
from iet3.construction import SwitchSpec, build_switch

iet = documented_switch_iet()
res = build_switch(iet, SwitchSpec(a=0, b=1, epsilon=0.05),
                   verify_samples=2000, seed=2024)

print(f"status: {res.status}")
print(f"scale N = {res.n_steps}: crossing count m = {res.m}, rho = {res.rho:.3e}")
print(f"switch power n = {res.n} (= b + (m+1)(a-b)), window L = {res.m}")
print(f"tower: r = {res.r} levels over J of width {res.lambda_J:.3e}")
print(f"measures: lambda(A) = {res.lambda_A:.4f}, lambda(B) = {res.lambda_B:.4f} "
      f"(exact: {res.lambda_B_exact})")
print(f"certified minimal return to J: {res.return_lo} >= 1.5 r = {1.5 * res.r:.0f}")

checks = res.verification["checks"]
print("\nfresh-sample verification:")
for key in ("shadow_A_frac_ok", "shadow_B_frac_ok", "shadow_A_q95",
            "kr_A", "kr_B", "kr_bound"):
    print(f"  {key}: {checks[key]}")
