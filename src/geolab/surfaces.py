"""Surfaces and metrics: level sets in R^3 and coordinate charts.

Two representations are supported:

* separable level sets ``F(x) = sum_i c_i (x_i^2)^mu_i - 1 = 0`` (all
  built-ins: the elongated spheroid family, ellipsoids, the unit sphere,
  the unit cylinder), whose Hessian is diagonal.  Gauss curvature uses
  ``K = (g1^2 h2 h3 + g2^2 h1 h3 + g3^2 h1 h2) / |g|^4`` with g = grad F and
  h = diag(Hess F), which has no chart singularities at the poles.
* charts over a parameter rectangle with one vectorized metric function
  ``uv -> g(uv)`` of shape (..., 2, 2).  Christoffel symbols and Brioschi
  curvature each take their finite differences from one metric evaluation
  on a stencil.

Charts can carry a tuple of conformal factors whose sum f gives the effective
metric ``exp(2 f) g``.  Factors are stored procedurally (callables with an
exact support), never as grids, so support containment is exact.  Level sets
carry no factor: vertex splitting works in charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ChartUnavailable, PointOffSurface

ON_SURFACE_TOL = 1e-10
SPD_TOL = 1e-12  # symmetry and smallest-eigenvalue tolerance of MetricTensor.is_spd

# step for finite differences of chart metric coefficients
_FD_H = 1e-5
# stencil offsets in steps of h: centre, +-e_u, +-e_v, then the four diagonals
_STENCIL = np.array(
    [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]]
)


@dataclass(frozen=True)
class MetricTensor:
    """Pointwise 2x2 first fundamental form."""

    components: np.ndarray

    def is_spd(self) -> bool:
        g = self.components
        if abs(g[0, 1] - g[1, 0]) > SPD_TOL:
            return False
        ev = np.linalg.eigvalsh(0.5 * (g + g.T))
        return bool(ev.min() > SPD_TOL)


@dataclass(frozen=True)
class SurfaceModel:
    """A surface, either as an ambient level set or as a chart.

    Level-set surfaces are separable, F(x) = sum_i c_i (x_i^2)^mu_i - 1
    with ``level_coeffs`` c and ``level_powers`` mu (each mu_i >= 1), so
    Hess F is diagonal.  F, grad F and diag(Hess F) all come from the
    common factor (x_i^2)^(mu_i - 1): ``level`` gives F, ``grad`` grad F
    (shape (..., 3)) and ``hess_diag`` the Hessian diagonal (shape (..., 3),
    or the constant (3,) on a quadric, where every mu_i is 1).
    Chart surfaces provide a vectorized metric ``chart_metric_fn(uv)`` of
    shape (..., 2, 2) over the rectangle ``chart_domain``.
    """

    kind: str  # "levelset" | "chart"
    name: str = "custom"
    builtin_params: dict = field(default_factory=dict)
    level_coeffs: tuple = ()
    level_powers: tuple = (1.0, 1.0, 1.0)
    chart_metric_fn: Optional[Callable] = None
    chart_domain: tuple = (0.0, 1.0, 0.0, 1.0)
    conformal_factors: tuple = ()

    def __post_init__(self):
        if self.kind != "levelset":
            return
        c = np.array(self.level_coeffs, dtype=float)
        mu = np.array(self.level_powers, dtype=float)
        # constant factors of grad F and diag(Hess F), and the exponent of
        # their common factor (x^2)^(mu - 1), None on a quadric
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_grad_c", 2.0 * mu * c)
        object.__setattr__(self, "_hess_c", 2.0 * mu * (2.0 * mu - 1.0) * c)
        object.__setattr__(self, "_expo", None if np.all(mu == 1.0) else mu - 1.0)

    # -- basic queries ---------------------------------------------------

    def with_conformal_factor(self, factor) -> "SurfaceModel":
        """Return a copy carrying ``factor`` after its existing factors.

        A factor is any callable taking chart points of shape (..., 2) to
        values of shape (...).  Raises ChartUnavailable for level sets:
        factors live on charts only.
        """
        if self.kind != "chart":
            raise ChartUnavailable("conformal factors need a chart representation")
        return replace(self, conformal_factors=self.conformal_factors + (factor,))

    def factor_value(self, points: np.ndarray) -> np.ndarray:
        """Sum of the conformal factors, in order, at points of shape (..., 2)."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for factor in self.conformal_factors:
            out = out + factor(pts)
        return out[()]

    # -- level-set machinery ----------------------------------------------

    def _power(self, p: np.ndarray):
        """(x_i^2)^(mu_i - 1), the factor F, grad F and diag(Hess F) share;
        None on a quadric.  numpy's 0^0 = 1 covers x_i = 0 where mu_i = 1."""
        return None if self._expo is None else (p * p) ** self._expo

    def level(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        q = self._power(p)
        return np.einsum("...i,i->...", p * p if q is None else p * p * q, self._c) - 1.0

    def grad(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        q = self._power(p)
        return self._grad_c * p if q is None else self._grad_c * p * q

    def hess_diag(self, points: np.ndarray) -> np.ndarray:
        q = self._power(np.asarray(points, dtype=float))
        return self._hess_c if q is None else self._hess_c * q

    def unit_normal(self, points: np.ndarray) -> np.ndarray:
        g = self.grad(points)
        return g / coord_norm(g)[..., None]

    def check_on_surface(self, points: np.ndarray):
        if self.kind != "levelset":
            return
        vals = np.abs(np.atleast_1d(self.level(points)))
        if vals.max() > ON_SURFACE_TOL:
            raise PointOffSurface(
                f"|F(point)| = {vals.max():.3e} exceeds tolerance {ON_SURFACE_TOL:.1e}"
            )

    def project(self, points: np.ndarray, iterations: int = 3) -> np.ndarray:
        """Newton projection onto the level set along grad F.

        Runs at least ``iterations`` sweeps and keeps going (up to 30) while
        the residual is far from roundoff, so distant starting points still
        land on the surface.
        """
        p = np.array(points, dtype=float)
        for it in range(30):
            f = self.level(p)
            if it >= iterations and np.all(np.abs(f) < 1e-13):
                break
            g = self.grad(p)
            gg = coord_sum(g * g)
            p = p - (f / gg)[..., None] * g
        return p

    def tangent_frame(self, point: np.ndarray):
        """Orthonormal tangent frame (e1, e2) and unit normal n at a point."""
        n = self.unit_normal(point)
        ref = np.array([1.0, 0.0, 0.0])
        if abs(n @ ref) > 0.9:
            ref = np.array([0.0, 1.0, 0.0])
        e1 = ref - (ref @ n) * n
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        return e1, e2, n

    def diameter(self) -> float:
        """Cheap ambient diameter estimate for tolerance scaling."""
        if self.kind == "chart":
            u0, u1, v0, v1 = self.chart_domain
            return float(np.hypot(u1 - u0, v1 - v0))
        name = self.name
        p = self.builtin_params
        if name == "mk":
            return 2.0 * max(1.0, mk_height(self))
        if name == "ellipsoid":
            return 2.0 / np.sqrt(min(p["a1"], p["a2"], p["a3"]))
        return 2.0

    # -- chart machinery ---------------------------------------------------

    def chart_metric(self, uv: np.ndarray) -> np.ndarray:
        """Metric components at chart points, shape (...,2,2), including the
        conformal factor."""
        if self.kind != "chart":
            raise ChartUnavailable("surface has no chart representation")
        uv = np.asarray(uv, dtype=float)
        g = self.chart_metric_fn(uv)
        if self.conformal_factors:
            g = g * np.exp(2.0 * self.factor_value(uv))[..., None, None]
        return g

    def in_chart_domain(self, uv: np.ndarray) -> bool:
        u0, u1, v0, v1 = self.chart_domain
        u, v = np.atleast_2d(np.asarray(uv, dtype=float)).T
        return bool(np.all((u >= u0) & (u <= u1) & (v >= v0) & (v <= v1)))


# ---------------------------------------------------------------------------
# built-in surfaces
# ---------------------------------------------------------------------------


def make_mk(k: float, mu: float = 1.0) -> SurfaceModel:
    """Elongated spheroid x1^2 + x2^2 + x3^(2 mu)/k = 1.

    For mu = 1 this is a prolate ellipsoid of revolution; as k grows the
    family converges to the unit cylinder.  The equator {x3 = 0} is a simple
    closed geodesic of length 2 pi for every k.
    """
    if not 0 < k < np.inf:  # also rejects NaN
        raise ValueError(f"k must be finite and positive, got {k!r}")
    if not 1 <= mu < np.inf:
        raise ValueError(f"mu must be finite and >= 1, got {mu!r}")
    return SurfaceModel(
        kind="levelset",
        name="mk",
        builtin_params={"k": float(k), "mu": float(mu)},
        level_coeffs=(1.0, 1.0, 1.0 / k),
        level_powers=(1.0, 1.0, float(mu)),
    )


def mk_height(surface: SurfaceModel) -> float:
    """Pole height k^(1/(2 mu)) of an mk surface: its largest |x3|."""
    p = surface.builtin_params
    return p["k"] ** (1.0 / (2.0 * p["mu"]))


def make_ellipsoid(a1: float, a2: float, a3: float) -> SurfaceModel:
    """Ellipsoid a1 x1^2 + a2 x2^2 + a3 x3^2 = 1 (coefficient convention)."""
    if not all(0 < a < np.inf for a in (a1, a2, a3)):  # also rejects NaN
        raise ValueError(f"coefficients a must be finite and positive, got {(a1, a2, a3)!r}")
    return SurfaceModel(
        kind="levelset",
        name="ellipsoid",
        builtin_params={"a1": float(a1), "a2": float(a2), "a3": float(a3)},
        level_coeffs=(float(a1), float(a2), float(a3)),
    )


def make_sphere() -> SurfaceModel:
    """Round unit sphere."""
    return SurfaceModel(kind="levelset", name="sphere", level_coeffs=(1.0, 1.0, 1.0))


def make_cylinder() -> SurfaceModel:
    """Unit cylinder x1^2 + x2^2 = 1 (flat, K = 0)."""
    return SurfaceModel(kind="levelset", name="cylinder", level_coeffs=(1.0, 1.0, 0.0))


def make_flat_chart(width: float = 2.0, height: float = 2.0) -> SurfaceModel:
    """Flat chart [-w/2, w/2] x [-h/2, h/2] with E = G = 1, F = 0."""
    return SurfaceModel(
        kind="chart",
        name="flat_chart",
        chart_metric_fn=lambda uv: np.zeros(uv.shape + (2,)) + np.eye(2),
        chart_domain=(-width / 2, width / 2, -height / 2, height / 2),
    )


def sphere_exp_chart(radius: float = 1.2) -> SurfaceModel:
    """Normal-coordinate chart of the unit sphere around a point.

    In these coordinates geodesics through the origin are straight lines,
    which is what the vertex-splitting construction needs.  The metric is
    g_ij = x_i x_j / r^2 + (sin r / r)^2 (delta_ij - x_i x_j / r^2).
    """

    def metric(x):
        r2 = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
        r = np.sqrt(r2)
        s = np.where(r > 1e-12, np.sin(r) / np.where(r > 1e-12, r, 1.0), 1.0)
        big = (r2 > 1e-24)[..., None, None]
        xx = x[..., :, None] * x[..., None, :]
        rad = np.where(big, xx / np.where(big, r2[..., None, None], 1.0), 0.0)
        return rad + (s * s)[..., None, None] * (np.eye(2) - rad)

    return SurfaceModel(
        kind="chart",
        name="sphere_exp",
        chart_metric_fn=metric,
        chart_domain=(-radius, radius, -radius, radius),
    )


def surface_from_config(spec: dict) -> SurfaceModel:
    """Build a surface from the JSON configuration convention.

    Recognized forms: {"type": "mk", "k": 4, "mu": 1},
    {"type": "ellipsoid", "a": [a1, a2, a3]}, {"type": "sphere"},
    {"type": "cylinder"}.
    """
    from .errors import ConfigInvalid

    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigInvalid("surface spec must be a dict with a 'type' key")
    t = spec["type"]
    try:
        if t == "mk":
            return make_mk(float(spec["k"]), float(spec.get("mu", 1.0)))
        if t == "ellipsoid":
            a1, a2, a3 = (float(x) for x in spec["a"])
            return make_ellipsoid(a1, a2, a3)
        if t == "sphere":
            return make_sphere()
        if t == "cylinder":
            return make_cylinder()
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad surface spec {spec!r}: {exc}") from exc
    raise ConfigInvalid(f"unknown surface type {t!r}")


# ---------------------------------------------------------------------------
# per-point coordinate sums
# ---------------------------------------------------------------------------


def coord_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, added column by column from left to right.

    numpy's add reduction over a 2- or 3-wide last axis starts from +0.0
    and adds the columns in order, so this gives the bits of
    ``np.sum(x, axis=-1)``, signed zeros included, without the reduction's
    per-row overhead.
    """
    x = np.asarray(x)
    out = 0.0 + x[..., 0]
    for j in range(1, x.shape[-1]):
        out += x[..., j]
    return out


def coord_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: the bits of
    ``np.linalg.norm(x, axis=-1)`` on a 2- or 3-wide axis."""
    x = np.asarray(x)
    return np.sqrt(coord_sum(x * x))


# ---------------------------------------------------------------------------
# metric, curvature, Christoffel symbols
# ---------------------------------------------------------------------------


def metric_at(surface: SurfaceModel, point: np.ndarray) -> MetricTensor:
    """First fundamental form at a point.

    For level-set surfaces the form is expressed in an orthonormal ambient
    tangent frame, so the components are the identity.  Chart surfaces
    return the coefficient matrix [[E, F], [F, G]].

    Raises PointOffSurface when |F(point)| exceeds the on-surface tolerance.
    """
    point = np.asarray(point, dtype=float)
    if surface.kind == "levelset":
        surface.check_on_surface(point)
        return MetricTensor(np.eye(2))
    if not surface.in_chart_domain(point):
        raise PointOffSurface("chart point outside parameter rectangle")
    return MetricTensor(surface.chart_metric(point))


def gauss_curvature(surface: SurfaceModel, points: np.ndarray):
    """Gauss curvature of the (possibly conformally rescaled) metric.

    Level sets use K = (g1^2 h2 h3 + g2^2 h1 h3 + g3^2 h1 h2)/|g|^4 with
    g = grad F and h = diag(Hess F).  Charts use the Brioschi formula with
    finite-difference coefficient derivatives (the conformal factors are
    folded into the metric).
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts2 = np.atleast_2d(pts)
    if surface.kind == "levelset":
        surface.check_on_surface(pts2)
        K = _levelset_curvature(surface, pts2)
    else:
        if not surface.in_chart_domain(pts2):
            raise PointOffSurface("chart point outside parameter rectangle")
        K = _brioschi(surface, pts2)
    return float(K[0]) if single else K


def _levelset_curvature(surface: SurfaceModel, pts: np.ndarray) -> np.ndarray:
    g2 = surface.grad(pts) ** 2
    h = surface.hess_diag(pts)
    # g_i^2 times the product of the other two Hessian entries
    num = np.sum(g2 * np.roll(h, 1, axis=-1) * np.roll(h, -1, axis=-1), axis=-1)
    return num / np.sum(g2, axis=-1) ** 2


def _brioschi(surface: SurfaceModel, pts: np.ndarray):
    """Gauss curvature of a chart metric via the Brioschi formula, at a
    batch of points (n, 2), from one metric evaluation on a 9-point stencil."""
    h = 1e-4  # wider than _FD_H: second differences divide by h^2
    g = surface.chart_metric(pts[:, None, :] + h * _STENCIL)
    E, F, G = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    E0, F0, G0 = E[:, 0], F[:, 0], G[:, 0]
    Eu = (E[:, 1] - E[:, 2]) / (2 * h)
    Ev = (E[:, 3] - E[:, 4]) / (2 * h)
    Gu = (G[:, 1] - G[:, 2]) / (2 * h)
    Gv = (G[:, 3] - G[:, 4]) / (2 * h)
    Fu = (F[:, 1] - F[:, 2]) / (2 * h)
    Fv = (F[:, 3] - F[:, 4]) / (2 * h)
    Evv = (E[:, 3] - 2 * E0 + E[:, 4]) / h**2
    Guu = (G[:, 1] - 2 * G0 + G[:, 2]) / h**2
    Fuv = (F[:, 5] - F[:, 6] - F[:, 7] + F[:, 8]) / (4 * h**2)

    M1 = [
        [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
        [Fv - 0.5 * Gu, E0, F0],
        [0.5 * Gv, F0, G0],
    ]
    M2 = [
        [np.zeros_like(Ev), 0.5 * Ev, 0.5 * Gu],
        [0.5 * Ev, E0, F0],
        [0.5 * Gu, F0, G0],
    ]
    det1, det2 = (np.linalg.det(np.moveaxis(np.array(M), -1, 0)) for M in (M1, M2))
    return (det1 - det2) / (E0 * G0 - F0 * F0) ** 2


def christoffel_batch(surface: SurfaceModel, pts: np.ndarray, h: float = _FD_H):
    """Christoffel symbols at a batch of chart points, shape (n, 2, 2, 2).

    Metric derivatives are central differences from one evaluation of the
    (conformally rescaled) metric on a 5-point stencil.
    """
    if surface.kind != "chart":
        raise ChartUnavailable("Christoffel symbols need a chart representation")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    gs = surface.chart_metric(pts[:, None, :] + h * _STENCIL[:5])
    ginv = np.linalg.inv(gs[:, 0])
    # dg[:, c, a, b] = d g_{ab} / d x_c
    dg = np.stack([gs[:, 1] - gs[:, 2], gs[:, 3] - gs[:, 4]], axis=1) / (2 * h)
    # Gamma^c_{ab} = 1/2 g^{cd} (dg_a[d,b] + dg_b[d,a] - dg_d[a,b])
    bracket = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg
    return 0.5 * np.einsum("ncd,ndab->ncab", ginv, bracket)


def chart_euclidean_deviation(surface: SurfaceModel, pts: np.ndarray) -> float:
    """sup |g - identity| over the sampled chart points.

    Diagnostic only: how close the working chart is to Euclidean.  The
    splitting construction assumes this is small but no quantitative gate
    is imposed.
    """
    g = surface.chart_metric(np.atleast_2d(np.asarray(pts, dtype=float)))
    return float(np.max(np.abs(g - np.eye(2))))


def conformal_geodesic_curvature(
    kappa: float, normal_derivative_f: float, f_value: float
) -> float:
    """Geodesic curvature after the conformal change g -> exp(2 f) g.

    Returns exp(-f) (kappa + df/dn), with the normal derivative taken along
    the same unit normal used to sign kappa.
    """
    return float(np.exp(-f_value) * (kappa + normal_derivative_f))
