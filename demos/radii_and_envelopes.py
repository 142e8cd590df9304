#!/usr/bin/env python3
"""Certified starlike/convex radii and the growth and Jacobian envelopes.

The sharp quadratic z + lam z^2 pins down both class radii: starlikeness
fails first at 1/(2 lam) and convexity at 1/(4 lam).  Growth of any member
is squeezed between |z| -/+ lam |z|^2, and the Jacobian never exceeds
(1 + 2 lam |z|)^2; the quadratic attains all of these along the positive
real axis.
"""

import numpy as np

from harmcert import (
    AnalyticSeries,
    ClassParams,
    HarmonicMap,
    RadiusKind,
    default_grid,
    growth_envelope_check,
    harmonic_radius_certify,
    jacobian_bound_check,
    radius_certify,
    random_member,
)

print("certified radii of the sharp quadratic z + lam z^2")
print(f"{'lam':>6} {'starlike':>10} {'1/(2lam)':>10} {'convex':>10} {'1/(4lam)':>10}")
for lam in (0.4, 0.6, 1.0, 2.0):
    F = AnalyticSeries((0, 1, lam))
    s = radius_certify(F, RadiusKind.STARLIKE)
    c = radius_certify(F, RadiusKind.CONVEX)
    print(f"{lam:>6.2f} {s.radius:>10.5f} {min(1, 1/(2*lam)):>10.5f} "
          f"{c.radius:>10.5f} {min(1, 1/(4*lam)):>10.5f}")
print()
print("At lam = 0.4 the starlikeness (hence univalence) radius caps at 1:")
print("every member at levels at or below one half is starlike on the")
print("whole disk.  The certificate carries an inner margin and, when the")
print("radius is below 1, an outer witness ring where the functional dies:")
cert = radius_certify(AnalyticSeries((0, 1, 1.0)), RadiusKind.STARLIKE)
print(f"  radius {cert.radius:.5f}, inner margin {cert.inner_margin:.2e}, "
      f"witness {cert.outer_witness}")

print()
print("stable-family radius of a genuinely harmonic member")
params = ClassParams(lam=1.0)
f = HarmonicMap(h=AnalyticSeries((0, 1, 0.3)), g=AnalyticSeries((0, 0, 0.25)))
for kind in RadiusKind:
    cert = harmonic_radius_certify(f, params, kind)
    print(f"  {kind.value:>8}: {cert.radius:.5f}")

print()
print("envelope audit on a polar grid (8 rings x 128 angles)")
grid = default_grid()
f3 = HarmonicMap(h=AnalyticSeries((0, 1, 1.0)), g=AnalyticSeries((0,)))
env = growth_envelope_check(f3, params, grid)
jac = jacobian_bound_check(f3, params, grid)
print(f"  sharp quadratic: worst violation {env.max_violation:.2e}")
print(f"  upper-growth slack at its tightest: {env.tightness['growth_upper']:.2e}")
print(f"  Jacobian ratio to the bound: {jac.max_ratio:.12f} "
      f"(equality along the positive real axis)")

rng = np.random.default_rng(7)
worst = 0.0
for _ in range(10):
    g = random_member(6, params, rng)
    worst = max(worst,
                growth_envelope_check(g, params, grid).max_violation,
                jacobian_bound_check(g, params, grid).max_violation)
print(f"  10 random members: worst envelope/Jacobian violation {worst:.2e}")
