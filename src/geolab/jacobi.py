"""Second variation, periodic Jacobi spectra, Morse index and nullity.

For a closed geodesic the second variation of length over normal fields
phi n is the quadratic form

    Q(phi, psi) = integral phi' psi' - K phi psi ds,

whose operator form is -phi'' - K(s) phi with periodic boundary conditions
on [0, m L] for the m-fold cover.  The operator is discretized with the
4th-order five-point stencil plus the diagonal -K, so the lowest eigenvalues
converge well inside the 5 h^2 acceptance tolerance (the plain three-point
stencil misses it at the sixth eigenvalue, whose truncation constant is
81/12 > 5).

The m-fold cover is one period seen m times, so its cyclic matrix is
block-circulant and its spectrum is the union of m one-period Bloch blocks
(Bott, "On the iteration of closed geodesics and the Sturm intersection
theory", CPAM 9, 1956): block j couples across the period boundary with
phase omega = exp(2 pi i j / m) forward and its conjugate backward.  Blocks
j and m - j are complex conjugates with one spectrum, so only
j = 0 .. m // 2 are solved; j = 0 and j = m / 2 (omega = +-1) are real.
Each block is reordered into a Hermitian band of bandwidth 4, so no n x n
matrix is formed, and only its low end is computed, by LAPACK's bisection
?sbevx / ?hbevx (Barth, Martin & Wilkinson, Numer. Math. 9, 1967): the
lowest REPORTED_EIGS eigenvalues, and the whole block when they do not
reach past the band 1.25 zero_tolerance that classification looks at.
``cover_spectra`` solves each distinct phase j / m of a curve once for all
of its covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import GridTooCoarse
from .geodesics import (
    GeodesicCurve,
    periodic_derivative,
    require_geodesic,
)
from .surfaces import SurfaceModel, gauss_curvature

REPORTED_EIGS = 12  # lowest eigenvalues written to a report


def eigvals_banded(*args, **kwargs):
    """``scipy.linalg.eigvals_banded``, imported on the first call so that
    commands without a spectrum never load ``scipy.linalg``."""
    from scipy.linalg import eigvals_banded

    return eigvals_banded(*args, **kwargs)


@dataclass
class SpectrumReport:
    """Eigenvalues of the periodic Jacobi operator with classification."""

    # the lowest eigenvalues, ascending: at least REPORTED_EIGS, and all of
    # them up to 1.25 zero_tolerance
    eigenvalues: np.ndarray
    index: int
    nullity: int
    grid_size: int
    zero_tolerance: float
    cover_multiplicity: int = 1

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues[:REPORTED_EIGS]],
            "index": int(self.index),
            "nullity": int(self.nullity),
            "grid_size": int(self.grid_size),
            "zero_tolerance": float(self.zero_tolerance),
            "cover_multiplicity": int(self.cover_multiplicity),
        }


def curvature_along(curve: GeodesicCurve, surface: Optional[SurfaceModel] = None):
    """Gauss curvature sampled along the curve."""
    surface = surface or curve.surface
    return gauss_curvature(surface, curve.samples)


def second_variation(
    curve: GeodesicCurve,
    phi: np.ndarray,
    psi: np.ndarray,
    surface: Optional[SurfaceModel] = None,
) -> float:
    """Polarized second variation  integral phi' psi' - K phi psi ds.

    ``phi`` and ``psi`` are scalar samples on the curve's own grid.  The
    curve must pass the geodesic test and be closed.
    """
    surface = surface or curve.surface
    require_geodesic(curve, surface)
    if not curve.closed:
        raise ValueError("second variation needs a closed curve")
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape != (curve.n,) or psi.shape != (curve.n,):
        raise ValueError("phi, psi must be sampled on the curve grid")
    ds = curve.length / curve.n
    dphi = periodic_derivative(phi, ds)
    dpsi = periodic_derivative(psi, ds)
    K = curvature_along(curve, surface)
    return float(np.sum(dphi * dpsi - K * phi * psi) * ds)


def _bloch_band(K: np.ndarray, h: float, j: int, m: int) -> np.ndarray:
    """Lower band, shape (5, n), of the one-period five-point block of
    -d^2/ds^2 - K with Bloch phase j of m.

    ``K`` holds the n samples of one period.  Column i + off of the cover
    lands in column (i + off) mod n with weight omega^q, q = (i + off) // n,
    so entries that wrap forward carry omega and those that wrap backward
    its conjugate.  In the folding order 0, n-1, 1, n-2, ... every cyclic
    neighbour i +- 1, i +- 2 lies within four places of i; entry (r, c <= r)
    of the reordered block is stored at [r - c, c].
    """
    omega = np.exp(2j * np.pi * j / m) if 2 * j % m else (-1.0 if j else 1.0)  # +-1: real
    n = K.size
    i = np.arange(n)
    pos = np.where(2 * i < n, 2 * i, 2 * (n - 1 - i) + 1)  # place in folding order
    band = np.zeros((5, n), dtype=np.result_type(omega))
    band[0, pos] = 2.5
    for off, c in ((1, -4.0 / 3.0), (2, 1.0 / 12.0)):
        for col in (i + off, i - off):
            q, pc = col // n, pos[col % n]
            phase = np.where(q < 0, np.conj(omega) ** -q, omega ** q)
            low = pos >= pc  # lower triangle
            # add.at: periods shorter than the stencil fold onto one entry
            np.add.at(band, (pos[low] - pc[low], pc[low]), c * phase[low])
    band /= h**2
    band[0, pos] -= K
    return band


def cover_spectra(
    curve: GeodesicCurve,
    surface: Optional[SurfaceModel] = None,
    covers: Iterable[int] = (1,),
    points_per_period: int = 512,
) -> dict:
    """Spectra of -phi'' - K phi on the m-fold covers of the curve, one
    SpectrumReport per m in ``covers``, each on ``points_per_period`` points
    per period.

    The covers share the curvature samples, the spacing and the zero
    tolerance, and each Bloch phase j / m (in lowest terms) is solved once:
    phases 0 and 1/2 serve every even cover.  Index counts eigenvalues below
    -zero_tolerance and nullity those within it, with zero_tolerance =
    max(1e-8, 10 h^2 max|K|).  Raises GridTooCoarse when the grid term
    10 h^2 max|K| reaches max|K| > 0 (no index is then countable; a finer
    grid would help) or an eigenvalue falls too close to the classification
    boundary to trust.  When max|K| is below the 1e-8 floor every eigenvalue
    lies above -zero_tolerance and the index is 0.  Raises ValueError on an
    open curve, which has no periodic spectrum.
    """
    surface = surface or curve.surface
    n = int(points_per_period)
    covers = [int(m) for m in covers]
    if not curve.closed:
        raise ValueError("periodic spectrum needs a closed curve")
    for m in covers:
        if m < 1:
            raise ValueError("cover_multiplicity must be >= 1")
        if n * m < 256:
            raise ValueError("grid_size must be at least 256")
    require_geodesic(curve, surface)

    h = curve.length / n
    # K sampled on one period
    s_curve = np.arange(curve.n) * (curve.length / curve.n)
    K = np.interp(np.arange(n) * h, s_curve, curvature_along(curve, surface), period=curve.length)
    K_max = float(np.max(np.abs(K)))
    grid_tol = 10.0 * h**2 * K_max
    zero_tol = max(1e-8, grid_tol)
    # every eigenvalue is >= -max|K|: at a grid term this large none can count
    # as index; below the 1e-8 floor the index is 0 on any grid
    if grid_tol >= K_max > 0:
        raise GridTooCoarse("zero tolerance reaches max|K|; refine grid_size")
    classified = 1.25 * zero_tol  # index, nullity and ambiguity look no higher

    solved = {}  # phase j / m in lowest terms -> low end of its block
    reports = {}
    for m in covers:
        blocks = []
        for j in range(m // 2 + 1):
            phase = (j // math.gcd(j, m), m // math.gcd(j, m))
            if phase not in solved:
                band = _bloch_band(K, h, *phase)
                low = (0, min(n, REPORTED_EIGS) - 1)
                solved[phase] = eigvals_banded(band, lower=True, select="i", select_range=low)
                if solved[phase].size < n and solved[phase][-1] <= classified:
                    solved[phase] = eigvals_banded(band, lower=True)
            # blocks j and m - j share a spectrum: count 0 < j < m / 2 twice
            blocks += [solved[phase]] * (1 if 2 * j % m == 0 else 2)
        eig = np.sort(np.concatenate(blocks))
        # an eigenvalue not computed lies above REPORTED_EIGS computed ones of
        # its block and above `classified`: this is exactly the cover's low end
        eig = eig[: max(REPORTED_EIGS, int(np.sum(eig <= classified)))]

        index = int(np.sum(eig < -zero_tol))
        nullity = int(np.sum(np.abs(eig) <= zero_tol))

        # classification is ambiguous when an eigenvalue sits near the boundary
        if np.any(np.abs(np.abs(eig) - zero_tol) < 0.25 * zero_tol):
            raise GridTooCoarse("eigenvalue within 25% of the zero tolerance; refine grid_size")
        reports[m] = SpectrumReport(
            eigenvalues=eig,
            index=index,
            nullity=nullity,
            grid_size=n * m,
            zero_tolerance=zero_tol,
            cover_multiplicity=m,
        )
    return reports


def jacobi_spectrum(
    curve: GeodesicCurve,
    surface: Optional[SurfaceModel] = None,
    cover_multiplicity: int = 1,
    grid_size: int = 512,
) -> SpectrumReport:
    """Periodic spectrum of -phi'' - K phi on [0, m length(curve)]: the
    one-cover case of ``cover_spectra``.

    ``grid_size`` counts the points on the whole m-fold cover and must be a
    multiple of m, so that every period carries the same grid_size / m
    points.  The report holds the low end of the spectrum (SpectrumReport),
    its index and nullity.
    """
    m = int(cover_multiplicity)
    if m < 1:
        raise ValueError("cover_multiplicity must be >= 1")
    if grid_size % m:
        raise ValueError("grid_size must be a multiple of cover_multiplicity")
    return cover_spectra(curve, surface, (m,), grid_size // m)[m]


def network_index(network, grid_size: int = 512):
    """Morse index of a geodesic network: sum of per-curve indices.

    The weighted form Q_V = sum m_gamma Q_gamma has the same negative
    subspace dimension as Q_Gamma since every m_gamma > 0, so the index does
    not depend on the multiplicities.
    Returns (index, descriptor) where the descriptor holds per-curve
    spectra.
    """
    curves = network.curves if hasattr(network, "curves") else list(network)
    reports = [jacobi_spectrum(cur, grid_size=grid_size) for cur in curves]
    total = int(sum(r.index for r in reports))
    descriptor = {
        "per_curve": [r.to_json_dict() for r in reports],
        "index": total,
        "nullity_total": int(sum(r.nullity for r in reports)),
        "weighted_form": "Q_V(X,Y) = sum_gamma m_gamma Q_gamma(X_gamma, Y_gamma)",
    }
    return total, descriptor


def degeneracy_criterion_mk(k: float, m: int) -> bool:
    """Conservative degeneracy test for the m-fold cover of the mk equator.

    Returns True (degeneracy possible) iff k^(-1/2) * 2 pi m is an integer
    multiple of pi, i.e. 2 m / sqrt(k) is an integer.  This is deliberately
    the conservative convention: it can flag cases whose computed nullity is
    zero (e.g. k = 4, m = 1), so reports pair it with the spectrum's
    nullity rather than treating it as ground truth.
    """
    if k <= 0 or m < 1:
        raise ValueError("need k > 0 and m >= 1")
    ratio = 2.0 * m / np.sqrt(k)
    return bool(abs(ratio - round(ratio)) < 1e-9)


def width_consistency_assertions(network, p: int) -> dict:
    """Consistency checks for networks produced at target width level p.

    Asserts index(Gamma) <= p and #Vert(Gamma) <= p (checked, not proven).
    Returns a report dict with pass/fail flags.
    """
    idx, desc = network_index(network)
    n_vert = len(network.vertices)
    return {
        "p": int(p),
        "index": idx,
        "index_le_p": bool(idx <= p),
        "n_vertices": int(n_vert),
        "vertices_le_p": bool(n_vert <= p),
        "per_curve": desc["per_curve"],
    }
