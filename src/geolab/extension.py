"""Ambient extension of normal fields over networks with order-2 crossings.

A scalar profile phi along each curve prescribes the normal field
phi(s) n(s).  Away from crossings the field extends into a tube by parallel
transport along the normal geodesics (so the restriction is exact and the
normal derivative vanishes on the curve).  At a transverse crossing the two
prescribed values generally disagree as ambient vectors; adding the right
tangential vector to each strand makes them agree: the two affine lines

    L_k = { X_k + t T_k : t in R },   k = 0, 1

meet in a unique point by transversality, and the cross-extension formula
U(x, y) = u(x, 0) + u(0, y) - u(0, 0) extends the corrected strand values
over the crossing ball.  Radial cutoffs blend the ball fields into the tube
field, so tangential components and normal derivatives are supported only
inside the crossing balls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .bumps import plateau
from .errors import FlowLeftSurface, NotGPlus, OriginMismatch
from .geodesics import (
    GeodesicCurve,
    curve_length,
    dop853_integrate,
    periodic_derivative,
)
from .jacobi import second_variation
from .networks import GeodesicNetwork, is_g_plus, smallest_strand_angle
from .surfaces import SurfaceModel, coord_norm, coord_sum

DRIFT_TOL = 1e-3  # largest |F| at a field-flow step end, times max(1, diameter)
FLOW_SUBSTEPS = 1  # DOP853 steps of each network-length flow
TANGENTIAL_TUBE = 0.2  # tube radius of TangentialField


def cross_extension(u_axis1: Callable, u_axis2: Callable) -> Callable:
    """Extend axis data over the plane: U(x, y) = u1(x) + u2(y) - u1(0).

    The restriction to either axis reproduces the input exactly, and every
    partial derivative of U equals one of the axis derivatives pointwise.
    Raises OriginMismatch when u1(0) differs from u2(0) beyond 1e-12.
    """
    u10 = np.asarray(u_axis1(0.0), dtype=float)
    u20 = np.asarray(u_axis2(0.0), dtype=float)
    if np.max(np.abs(u10 - u20)) > 1e-12:
        raise OriginMismatch(
            f"axis values at the crossing differ by {np.max(np.abs(u10 - u20)):.2e}"
        )

    def U(x, y):
        return np.asarray(u_axis1(x), dtype=float) + np.asarray(
            u_axis2(y), dtype=float
        ) - u10

    return U


def _profile_samples(curves: Sequence[GeodesicCurve], specs: Sequence) -> List[np.ndarray]:
    """Per-sample values of one scalar profile per curve: a constant, an
    array on the curve's sample grid, or a callable of arclength.  Raises
    ValueError unless there is exactly one profile per curve."""
    if len(specs) != len(curves):
        raise ValueError("one normal profile per curve")
    out = []
    for curve, spec in zip(curves, specs):
        if callable(spec):
            s = np.arange(curve.n) * (curve.length / curve.n)
            out.append(np.asarray(spec(s), dtype=float))
        else:
            out.append(np.broadcast_to(np.asarray(spec, dtype=float), (curve.n,)).copy())
    return out


# ---------------------------------------------------------------------------
# per-curve geometry caches
# ---------------------------------------------------------------------------


def _box_rows(pts: np.ndarray, lo, hi) -> np.ndarray:
    """Rows of ``pts`` inside the box lo <= x <= hi, ascending."""
    inside = np.ones(pts.shape[0], dtype=bool)
    for x, a, b in zip(pts.T, lo, hi):
        inside &= (x >= a) & (x <= b)
    return np.flatnonzero(inside)


class _CurveFrame:
    """Nearest-point queries plus tangent/normal frames along one curve."""

    def __init__(self, curve: GeodesicCurve, surface: SurfaceModel):
        from scipy.spatial import cKDTree

        self.curve = curve
        self.surface = surface
        n = curve.n
        self.ds = curve.length / n
        dtheta = 2 * np.pi / n
        d1 = periodic_derivative(curve.samples, dtheta)
        self.T = d1 / coord_norm(d1)[:, None]
        N = surface.unit_normal(curve.samples)
        self.normals = np.cross(N, self.T)
        self.tree = cKDTree(curve.samples)
        self._box = (curve.samples.min(axis=0), curve.samples.max(axis=0))
        # the two segments at each sample i, one coordinate per row:
        # segment 0 runs from sample i - 1 to i, segment 1 from i to i + 1
        P = curve.samples
        seg = np.roll(P, -1, axis=0) - P
        self._starts = np.stack([np.roll(P, 1, axis=0).T, P.T], axis=1)  # (3, 2, n)
        self._segs = np.stack([np.roll(seg, 1, axis=0).T, seg.T], axis=1)
        self._seg_len2 = coord_sum((self._segs * self._segs).T).T  # (2, n)

    def nearest(self, pts: np.ndarray, bound: float = np.inf):
        """Foot data of the points closer than ``bound`` to the curve: their
        rows in ``pts`` (ascending), foot arclengths s, distances d and foot
        points.

        Exact for every point closer than ``bound``; the rows are those whose
        nearest sample lies within ``bound`` plus one sample spacing.  Both
        segments at the nearest sample i are scored together: the one from
        i to i + 1 is taken only when strictly closer than the one from
        i - 1 to i (or when only its distance is finite), and
        s = ((i - 1) + t) * ds wraps only at the end, so s at sample 0 keeps
        its bits.  A row with no finite distance (inputs near overflow) gets
        d = inf or nan.
        """
        pts = np.atleast_2d(pts)
        r = bound + self.ds
        # the tree drops every point r or farther from all samples; most of
        # those lie outside the samples' bounding box grown by 2 r and skip
        # the tree (r is at least one sample spacing, so rounding in the box
        # test cannot drop a point the tree would keep)
        rows = _box_rows(pts, self._box[0] - 2.0 * r, self._box[1] + 2.0 * r)
        dist, idx = self.tree.query(pts[rows], distance_upper_bound=r)
        hit = np.isfinite(dist)
        rows, i = rows[hit], idx[hit]
        q = np.take(pts.T, rows, axis=1)[:, None]  # (3, 1, m)
        a = np.take(self._starts, i, axis=2)  # (3, 2, m)
        ab = np.take(self._segs, i, axis=2)
        t = coord_sum(((q - a) * ab).T).T / np.take(self._seg_len2, i, axis=1)
        t = np.clip(t, 0.0, 1.0)  # (2, m)
        foot = a + t * ab
        d = coord_norm((q - foot).T).T
        later = d[1] < np.where(d[0] < np.inf, d[0], np.inf)
        s = (((i - 1) + later) + np.where(later, t[1], t[0])) * self.ds
        foot = np.where(later, foot[:, 1], foot[:, 0]).T
        return rows, s % self.curve.length, np.where(later, d[1], d[0]), foot

    def tube(self, pts: np.ndarray, radius: float):
        """Points of the tube of ``radius`` around the curve: the live rows
        (indices into ``pts``), their foot arclengths and foot points, and
        their cutoffs plateau(d; radius / 2, radius), all positive."""
        rows, s, d, foot = self.nearest(pts, radius)
        cut = plateau(d, radius / 2.0, radius)
        live = cut > 0
        return rows[live], s[live], foot[live], cut[live]

    def weights(self, s: np.ndarray):
        """Periodic linear interpolation weights at arclength s: the samples
        i0 and i1 = i0 + 1 (mod n) on either side and their weights."""
        x = (np.asarray(s) % self.curve.length) / self.ds
        whole = np.floor(x)
        i0 = whole.astype(int) % self.curve.n
        lam = x - whole
        return i0, (i0 + 1) % self.curve.n, 1 - lam, lam

    @staticmethod
    def lerp(values: np.ndarray, weights) -> np.ndarray:
        """Per-sample data interpolated with ``weights``."""
        i0, i1, w0, w1 = weights
        if values.ndim > 1:
            w0, w1 = w0[..., None], w1[..., None]
        return values[i0] * w0 + values[i1] * w1

    def interp(self, values: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Periodic linear interpolation of per-sample data at arclength s."""
        return self.lerp(values, self.weights(s))


@dataclass
class AmbientField:
    """Evaluable ambient vector field extending per-curve normal fields."""

    network: GeodesicNetwork
    frames: List[_CurveFrame]
    phis: List[np.ndarray]
    eta: float
    tube_radius: float
    crossing_data: list
    support_measure: float  # curve length inside the crossing balls
    delta: float  # the bound on support_measure the field was built for

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.evaluation(pts)

    def evaluation(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        surface = self.network.ambient_surface
        Nx = surface.unit_normal(pts)
        out = np.zeros_like(pts)
        for fr, phi in zip(self.frames, self.phis):
            live, s, foot, cut = fr.tube(pts, self.tube_radius)
            if not live.size:
                continue
            w = fr.weights(s)
            phi_s = fr.lerp(phi, w)
            n_s = fr.lerp(fr.normals, w)
            rel = pts[live] - foot
            side = coord_sum(rel * n_s)
            N = Nx[live]
            tang = rel - coord_sum(rel * N)[:, None] * N
            norm = coord_norm(tang)
            # transported normal: the unit tangential offset on the side of
            # n_s, or n_s itself within 1e-9 of the foot point
            transported = np.divide(
                np.sign(side)[:, None] * tang, norm[:, None],
                out=n_s, where=(norm > 1e-9)[:, None],
            )
            out[live] += (cut * phi_s)[:, None] * transported
        reach = 7.0 * self.eta / 8.0
        for data in self.crossing_data:
            # psi > 0 only within reach of the vertex, so only the points in
            # its box of half-width reach, grown by a margin that rounding in
            # the box test and in r cannot cross, get r and psi
            p = data["position"]
            half = reach + 1e-9 * (reach + np.abs(p).max())
            rows = _box_rows(pts, p - half, p + half)
            psi = plateau(coord_norm(pts[rows] - p), 5.0 * self.eta / 8.0, reach)
            alive = psi > 0
            live, psi = rows[alive], psi[alive]
            if not live.size:
                continue
            Y = self._crossing_field(data, pts[live], Nx[live])
            out[live] = out[live] + psi[:, None] * (Y - out[live])
        # the field is tangent along the curves; keep it tangent everywhere
        out -= coord_sum(out * Nx)[:, None] * Nx
        return out

    def _crossing_field(self, data, pts, Nx):
        w = pts - data["position"]
        w = w - coord_sum(w * data["N_vertex"])[:, None] * data["N_vertex"]
        coords = np.einsum("ij,nj->ni", data["dual"], w)
        U = data["U"]
        return U(coords[:, 0], coords[:, 1])


def _axis_function(fr: _CurveFrame, phi, t_corr, s_vertex, proj_coord_of_ds, v_cross):
    """Y-values along one strand as a function of its axis coordinate.

    A constant shift pins the strand value at the crossing to the common
    line-intersection point ``v_cross`` (it absorbs the lstsq residual left
    by sample-level curvature, a few 1e-10).
    """

    coord_grid, ds_grid = proj_coord_of_ds

    def corrected(c):
        w = fr.weights(s_vertex + np.interp(c, coord_grid, ds_grid))
        phi_s = fr.lerp(phi, w)
        n_s = fr.lerp(fr.normals, w)
        T_s = fr.lerp(fr.T, w)
        return phi_s[:, None] * n_s + t_corr * T_s

    shift = v_cross - corrected(np.zeros(1))[0]

    def u(c):
        vals = corrected(np.atleast_1d(np.asarray(c, dtype=float))) + shift
        return vals if vals.shape[0] > 1 else vals[0]

    return u


def extend_normal_field(
    network: GeodesicNetwork,
    normal_fields: Sequence,
    delta: float,
) -> AmbientField:
    """Ambient field whose normal part along each curve is the given profile.

    ``normal_fields`` holds one scalar profile per curve: a constant, an
    array on the curve's sample grid, or a callable of arclength.  ``delta``
    bounds the total curve length where tangential parts and normal
    derivatives may live.  The crossing-ball radius is eta =
    min(delta / (4 |V|), 0.45 d_min), d_min the minimum inter-vertex
    distance (a quarter of the shortest curve for a single vertex), so it
    meets that bound and stays below d_min / 2; with no vertex it is 0.
    Raises NotGPlus unless the curves are closed on a level-set surface and
    meet only at transverse order-2 crossings, and ValueError unless there
    is one profile per curve.
    """
    if not is_g_plus(network):
        raise NotGPlus("extension requires transverse order-2 crossings only")
    surface = network.ambient_surface
    if surface.kind != "levelset" or not all(c.closed for c in network.curves):
        raise NotGPlus("extension needs closed curves on a level-set surface")
    curves = network.curves
    frames = [_CurveFrame(c, surface) for c in curves]
    phis = _profile_samples(curves, normal_fields)

    verts = network.vertices
    eta = 0.0
    if verts:
        if len(verts) > 1:
            from scipy.spatial.distance import pdist

            dmin = pdist(np.array([v.position for v in verts])).min()
        else:
            dmin = min(c.length for c in curves) / 4.0
        eta = min(delta / (4.0 * len(verts)), 0.45 * dmin)

    tube_radius = 0.2 * min(c.length for c in curves)
    if verts:
        theta_min = min(smallest_strand_angle(v.strand_angles) for v in verts)
        tube_radius = min(tube_radius, 0.45 * (5.0 * eta / 8.0) * np.sin(theta_min))

    crossing_data = []
    for v in verts:
        (c0, s0), (c1, s1) = v.strands
        fr0, fr1 = frames[c0], frames[c1]
        T0 = fr0.interp(fr0.T, np.array([s0]))[0]
        T1 = fr1.interp(fr1.T, np.array([s1]))[0]
        n0 = fr0.interp(fr0.normals, np.array([s0]))[0]
        n1 = fr1.interp(fr1.normals, np.array([s1]))[0]
        X0 = fr0.interp(phis[c0], np.array([s0]))[0] * n0
        X1 = fr1.interp(phis[c1], np.array([s1]))[0] * n1
        # unique intersection of the two affine lines X_k + t T_k
        A = np.stack([T0, -T1], axis=1)
        t01, *_ = np.linalg.lstsq(A, X1 - X0, rcond=None)
        t0, t1 = float(t01[0]), float(t01[1])
        N_vertex = surface.unit_normal(v.position)
        G = np.array([[T0 @ T0, T0 @ T1], [T1 @ T0, T1 @ T1]])
        dual = np.linalg.solve(G, np.stack([T0, T1]))
        # axis-coordinate <-> arclength tables per strand (sorted for interp)
        grids = []
        for axis, (fr, s_v) in enumerate(((fr0, s0), (fr1, s1))):
            ds_grid = np.linspace(-2.0 * eta, 2.0 * eta, 129)
            q = fr.interp(fr.curve.samples, s_v + ds_grid)
            wq = q - v.position
            wq -= coord_sum(wq * N_vertex)[:, None] * N_vertex
            coords = np.einsum("ij,nj->ni", dual, wq)[:, axis]
            order = np.argsort(coords)
            grids.append((coords[order], ds_grid[order]))
        v_cross = X0 + t0 * T0
        U = cross_extension(
            _axis_function(fr0, phis[c0], t0, s0, grids[0], v_cross),
            _axis_function(fr1, phis[c1], t1, s1, grids[1], v_cross),
        )
        crossing_data.append(
            {
                "position": np.asarray(v.position, dtype=float),
                "N_vertex": N_vertex,
                "dual": dual,
                "U": U,
                "t_corrections": (t0, t1),
            }
        )

    support = 0.0
    for v in verts:
        for ci, _ in v.strands:
            c = curves[ci]
            inside = coord_norm(c.samples - v.position) <= 7 * eta / 8
            support += inside.sum() * (c.length / c.n)

    return AmbientField(
        network=network,
        frames=frames,
        phis=phis,
        eta=float(eta),
        tube_radius=float(tube_radius),
        crossing_data=crossing_data,
        support_measure=float(support),
        delta=float(delta),
    )


class SumField:
    """Pointwise sum of ambient fields (for tangential perturbations and
    Gram-matrix polarization)."""

    def __init__(self, *fields):
        self.fields = fields

    def __call__(self, pts):
        return sum(f(pts) for f in self.fields)


class TangentialField:
    """Pure tangential field along a network, for invariance checks."""

    def __init__(self, network: GeodesicNetwork, profiles):
        self.surface = network.ambient_surface
        self.frames = [_CurveFrame(c, self.surface) for c in network.curves]
        self.profiles = _profile_samples(network.curves, profiles)

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros_like(pts)
        Nx = self.surface.unit_normal(pts)
        for fr, prof in zip(self.frames, self.profiles):
            live, s, _, cut = fr.tube(pts, TANGENTIAL_TUBE)
            if not live.size:
                continue
            w = fr.weights(s)
            T_s = fr.lerp(fr.T, w)
            T_s -= coord_sum(T_s * Nx[live])[:, None] * Nx[live]
            out[live] += (cut * fr.lerp(prof, w))[:, None] * T_s
        return out


# ---------------------------------------------------------------------------
# flow verification
# ---------------------------------------------------------------------------


def flow_network_length(
    network: GeodesicNetwork,
    ambient_field,
    t: float,
) -> float:
    """Total network length after flowing every curve by the field for time t.

    Each curve's samples take FLOW_SUBSTEPS fixed DOP853 steps, each
    followed by a projection onto the surface.  Raises FlowLeftSurface when
    a step ends with |F| above DRIFT_TOL * max(1, diameter).
    """
    surface = network.ambient_surface
    max_drift = DRIFT_TOL * max(1.0, surface.diameter())

    def field(y, out):  # the stepper's state holds the points as columns
        out[...] = ambient_field(y.T).T

    def reproject(i, y):
        # points as rows in memory: surface.level sums through einsum, whose
        # order on a transposed view moves the flowed lengths at roundoff
        pts = np.ascontiguousarray(y.T)
        drift = np.max(np.abs(surface.level(pts)))
        if drift > max_drift:
            raise FlowLeftSurface(f"|F| = {drift:.2e} before reprojection")
        return surface.project(pts).T

    total = 0.0
    for c in network.curves:
        pts = c.samples
        if t != 0.0:
            pts = dop853_integrate(field, pts.T, t, FLOW_SUBSTEPS, reproject)[0].T
        total += curve_length(pts, surface, closed=c.closed)
    return total


def _length_second_difference(network, ambient_field, h):
    """Centered second difference of total network length under the flow
    of ``ambient_field`` with step h; returns it with the unflowed length."""
    L0 = flow_network_length(network, ambient_field, 0.0)
    Lp = flow_network_length(network, ambient_field, h)
    Lm = flow_network_length(network, ambient_field, -h)
    return (Lp - 2.0 * L0 + Lm) / h**2, L0


def verify_second_variation_match(
    network: GeodesicNetwork,
    normal_fields: Sequence,
    ambient_field,
    flow_step: float = 0.01,
) -> dict:
    """Quadratic form vs. finite-difference second derivative of length.

    Q_Gamma(X, X) is the per-curve quadrature of the geodesic second
    variation; the flow value is the centered second difference of total
    network length under the ambient flow over +-flow_step
    (``flow_network_length``).  Returns both
    with their relative error.  Raises ValueError unless ``normal_fields``
    holds one profile per curve.
    """
    Q_form = 0.0
    for c, phi in zip(network.curves, _profile_samples(network.curves, normal_fields)):
        Q_form += second_variation(c, phi, phi, network.ambient_surface)

    h = flow_step
    Q_flow, L0 = _length_second_difference(network, ambient_field, h)
    scale = max(abs(Q_form), 1e-12)
    report = {
        "Q_form": float(Q_form),
        "Q_flow": float(Q_flow),
        "rel_error": float(abs(Q_form - Q_flow) / scale),
        "abs_error": float(abs(Q_form - Q_flow)),
        "flow_step": float(h),
        "total_length": float(L0),
    }
    if isinstance(ambient_field, AmbientField):
        report["support_measure"] = float(ambient_field.support_measure)
        report["delta"] = float(ambient_field.delta)
        report["eta"] = float(ambient_field.eta)
    return report


def flow_gram_matrix(
    network: GeodesicNetwork,
    ambient_fields: Sequence,
    flow_step: float = 0.01,
) -> np.ndarray:
    """Finite-difference Gram matrix of the length form on extended fields.

    Each entry is a centered second difference of total network length
    under flows of +-flow_step (``flow_network_length``);
    off-diagonal entries come from the polarization identity
    Q(X, Y) = (Q(X+Y) - Q(X) - Q(Y)) / 2.
    """

    def q(fieldobj):
        return _length_second_difference(network, fieldobj, flow_step)[0]

    k = len(ambient_fields)
    diag = [q(f) for f in ambient_fields]
    G = np.diag(diag)
    for i in range(k):
        for j in range(i + 1, k):
            qij = q(SumField(ambient_fields[i], ambient_fields[j]))
            G[i, j] = G[j, i] = 0.5 * (qij - diag[i] - diag[j])
    return G
