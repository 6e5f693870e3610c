#!/usr/bin/env python3

"""
Numerical cross-check of the corepresentation kernel: the closed
cylinder-function form against a direct tilted-contour quadrature of
the defining integral, one point per quadrant, plus the boost
reflection symmetry.

Run:  python3 demos/kernel_two_routes.py
"""

from mpmath import mp

from fsusy.kernels import KernelParams, QuadrantPoint, kernel_eval, kernel_eval_detailed

params = KernelParams(p=3, s=0, nu="0.3", mu=0, r=1)

print("closed form vs contour integral, nu - mu + s/p = 0.3:")
print(f"  {'point':22s} {'closed':>34s} {'rel gap':>10s}  contour")
for quadrant in (1, 2, 3, 4):
    point = QuadrantPoint.from_polar(quadrant, "1.2", "0.4")
    closed = kernel_eval(params, point, "closed")
    integral, diag = kernel_eval_detailed(params, point, "integral")
    with mp.workprec(64):
        cv, iv = closed.to_mpc(), integral.to_mpc()
        gap = abs(cv - iv) / abs(cv)
    print(
        f"  {str(point):22s} {mp.nstr(cv, 12):>34s} {mp.nstr(gap, 3):>10s}"
        f"  {diag['family']}-contour, cutoff {diag['cutoff']:.4f},"
        f" step {diag['step']:.4f}, {diag['node_pairs']} node pairs"
    )
print()

# reflecting the boost and the exponent while swapping the light-cone
# coordinates lands on the same value
pt = QuadrantPoint.from_polar(2, "1.3", "0.7")
base = kernel_eval(KernelParams(p=3, s=0, nu="0.3", mu=0, r=1), pt)
mirr = kernel_eval(KernelParams(p=3, s=0, nu="-0.3", mu=0, r=1), pt.swapped())
with mp.workprec(64):
    print(f"boost reflection at {pt}:")
    print(f"  direct   {mp.nstr(base.to_mpc(), 16)}")
    print(f"  mirrored {mp.nstr(mirr.to_mpc(), 16)}")
print()

print("the full grid gate (324 points, both routes) runs as:")
print("  fsusy kernel-verify --out grid.csv")
