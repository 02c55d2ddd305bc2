"""Morse index and nullity from the periodic Jacobi spectrum.

For a closed geodesic the second variation of length acts on scalar normal
fields as -phi'' - K phi with periodic boundary conditions.  On the
spheroid equator K = 1/k is constant, so the spectrum is the explicit
family n^2 - 1/k; the m-fold cover is degenerate exactly when m / sqrt(k)
is an integer.  The conservative criterion flags 2 m / sqrt(k) integer.
"""

import numpy as np

from geolab import (
    degeneracy_criterion_mk,
    jacobi_spectrum,
    make_mk,
    make_sphere,
    sample_great_circle,
    sample_level_circle,
)

print("== equator spectra across the spheroid family (mu = 1) ==")
for k in (4.0, 16.0, 100.0):
    eq = sample_level_circle(make_mk(k, 1.0), 0.0)
    rep = jacobi_spectrum(eq)
    eigs = ", ".join(f"{v:+.4f}" for v in rep.eigenvalues[:5])
    print(f"  k={k:5.0f}:  [{eigs} ...]  index={rep.index} nullity={rep.nullity}")
print("  one negative direction (squeeze toward a pole) for every k: index 1.")

print("\n== the flat-equator regime mu = 2: degenerate but stable ==")
eq2 = sample_level_circle(make_mk(9.0, 2.0), 0.0)
rep2 = jacobi_spectrum(eq2)
print(f"  index={rep2.index}, nullity={rep2.nullity} (constant Jacobi field)")

print("\n== covers and the degeneracy criterion ==")
eq16 = sample_level_circle(make_mk(16.0, 1.0), 0.0)
for m in (1, 2, 3, 4):
    rep = jacobi_spectrum(eq16, cover_multiplicity=m, grid_size=512 * m)
    crit = degeneracy_criterion_mk(16.0, m)
    print(
        f"  m={m}: index={rep.index} nullity={rep.nullity};  "
        f"2m/sqrt(k) integer: {crit}"
    )
print("  only the m = 4 cover of the k = 16 equator carries Jacobi fields;")
print("  m = 2 is flagged by the conservative criterion without nullity, so")
print("  pair the criterion with the computed nullity.")

print("\n== the round sphere for comparison ==")
gc = sample_great_circle(make_sphere(), [1, 0, 0], [0, 1, 0])
rep = jacobi_spectrum(gc)
print(f"  great circle: index={rep.index}, nullity={rep.nullity} (rotations)")
