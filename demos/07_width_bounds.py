"""Sweepout upper bounds for the widths of the length functional.

Sweeping the spheroid by its level circles gives a 1-parameter family whose
maximal mass is the equator length 2 pi.  Summing p time-shifted copies of
that family produces a p-parameter family with maximal mass p * 2 pi, so
omega_p <= p omega_1.  On the round sphere the widths are known exactly
(2 pi floor(sqrt(p))), which anchors the comparison table.
"""

import numpy as np

from geolab import (
    guth_p_sweepout_bound,
    level_circle_sweepout,
    make_mk,
    round_sphere_width,
)

mk = make_mk(100.0, 1.0)
sweep = level_circle_sweepout(mk)
print("== level-circle sweepout of the k=100 spheroid ==")
print(f"  samples: {len(sweep.t_values)}, max mass {sweep.max_mass:.10f} at t = {sweep.argmax_t}")
print(f"  endpoint masses: {sweep.masses[0]:.3f}, {sweep.masses[-1]:.3f} (poles)")

rho = np.sqrt(np.maximum(1.0 - sweep.heights**2 / 100.0, 0.0))
mass_err = np.max(np.abs(sweep.masses - 2 * np.pi * rho))
print(f"  masses vs the analytic 2 pi rho(c), rho(c)^2 = 1 - c^2/k: max error {mass_err:.1e}")

print("\n== summed sweepout bounds ==")
print("   l   upper bound      l * 2 pi         gap")
for l in range(1, 6):
    wb = guth_p_sweepout_bound(sweep, l)
    ref = 2 * np.pi * l
    print(f"   {l}   {wb.upper_bound:.10f}  {ref:.10f}  {wb.upper_bound - ref:+.2e}")
print("  on this family the bound is saturated: the widths really are p * 2 pi")
print("  for large k, achieved only by copies of the equator (demo 08).")

print("\n== round-sphere reference table ==")
print("   p : " + "  ".join(f"{p}" for p in range(1, 17)))
print("  w/pi: " + "  ".join(f"{round_sphere_width(p)/np.pi:.0f}" for p in range(1, 17)))
print("  widths jump at the squares; between them the bound p * omega_1 is")
print("  far from sharp, which is exactly the slack the spheroid family removes.")
