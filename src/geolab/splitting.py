"""Vertex splitting by detour curves and conformal metric deformation.

To reduce the order of a vertex, a strand is replaced by a detour that
misses the vertex: a graphical bridge out of the strand, a geodesic chord
past the vertex, and a bridge back.  A conformal factor

    f(s, t) = -chi(t) * t * kappa(s)

in Fermi coordinates (arclength s along the detour, signed normal distance
t) then makes the detour a geodesic of exp(2 f) g: on the curve f = 0 and
df/dn = -kappa, so the conformally transformed curvature
exp(-f) (kappa + df/dn) vanishes.  The factor is supported in a tube of
half-width d0 around the bridges, which by construction stays clear of the
other strands and of an inner ball around the vertex, so the remaining
strands stay geodesics.  An order-d vertex is split in one working ball:
d - 2 strands get detours with distinct offsets, each factor's tube stays
clear of every other curve as replaced, so the d - 2 factors add, and the
vertex is left with the two straight strands as one transverse crossing.
The chord and the strand outside the window are geodesics, so kappa is
taken as 0 there and the factor vanishes in the tube around the chord.

Vertices are worked on in a chart centered at the vertex in which all
strands are straight lines through the origin (a flat chart, or the unit
sphere's analytic normal-coordinate chart).  On every chart the chord is
one chart flow aimed at the strand; it need not end on the strand, because
the closing bridge starts where the chord ends, matching its offset, slope
and curvature there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .bumps import plateau
from .errors import (
    ChartUnavailable,
    D0TooLarge,
    NotReducible,
    OffsetTooLarge,
    VertexNotOnStrand,
)
from .geodesics import (
    GeodesicCurve,
    chart_curvature,
    curve_from_samples,
    flow_chart,
    metric_right_normals,
)
from .networks import GeodesicNetwork, VertexRecord, detect_vertices, smallest_strand_angle
from .surfaces import (
    SurfaceModel,
    chart_euclidean_deviation,
    coord_norm,
    coord_sum,
    gauss_curvature,
)

# geometry fractions of the working-ball radius R: bridges span
# [P, p] = [-0.8 R, -0.4 R] and [q, Q] = [0.4 R, 0.8 R] along the strand
OUTER_FRAC = 0.8
INNER_FRAC = 0.4
FERMI_NEWTON_ITERS = 4  # Newton steps for the Fermi foot point
BRIDGE_PROBES = 400  # samples per bridge for the clearance and support tube
SUP_NORM_GRID = 160  # tube rows per bridge for the sup norm of the factor
CURVATURE_PROBES = 401  # window points of the curvature checks
OFFSET_FRAC = 0.1  # detour offset of each reduction step, per ball radius


def _piece(coeffs, s0, h):
    """A graph-offset polynomial on [s0, s0 + h] as (s0, h, (c, c', c'')):
    monomial coefficients in x = (s - s0)/h of the polynomial and of its
    first and second x-derivative, built once."""
    d1 = P.polyder(coeffs)
    return s0, h, (coeffs, d1, P.polyder(d1))


def _quintic(s0, s1, y0, dy0, ddy0, y1, dy1, ddy1):
    """Quintic Hermite piece on [s0, s1] matching value, first and second
    derivative at both ends."""
    h = s1 - s0
    A = np.zeros((6, 6))
    b = np.array([y0, dy0 * h, ddy0 * h * h, y1, dy1 * h, ddy1 * h * h])
    A[0, 0] = 1.0
    A[1, 1] = 1.0
    A[2, 2] = 2.0
    A[3] = 1.0
    A[4] = np.arange(6)
    A[5] = np.arange(6) * (np.arange(6) - 1)
    return _piece(np.linalg.solve(A, b), s0, h)


@dataclass
class DetourCurve:
    """Piecewise-analytic detour around a vertex, graphical over a strand.

    The strand is the line {V + s e_hat}; offsets u(s) are measured along
    the left normal n_left = rot90(e_hat).  Curvature is signed against
    the right-of-travel normal, so in a Euclidean chart metric
    kappa(s) = u''(s)/(1 + u'(s)^2)^(3/2).
    """

    surface: SurfaceModel
    vertex_position: np.ndarray
    e_hat: np.ndarray
    n_left: np.ndarray
    curve_index: int
    ball_radius: float
    offset_t: float
    s_window: tuple  # (s_P, s_p, s_q, s_Q)
    bridge_in: tuple  # _piece on [s_P, s_p)
    chord: tuple  # _piece on [s_p, s_q): the chord's graph offsets
    bridge_out: tuple  # _piece on [s_q, s_Q)

    # -- graph offsets ----------------------------------------------------

    def offset(self, s, order=0):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        sP, sp, sq, sQ = self.s_window
        for lo, hi, (s0, h, derivs) in (
            (sP, sp, self.bridge_in),
            (sp, sq, self.chord),
            (sq, sQ, self.bridge_out),
        ):
            m = (s >= lo) & (s < hi)
            if m.any():
                out[m] = P.polyval((s[m] - s0) / h, derivs[order]) / h**order
        return out

    def position(self, s):
        s = np.asarray(s, dtype=float)
        u = self.offset(s)
        return (
            self.vertex_position
            + s[..., None] * self.e_hat
            + u[..., None] * self.n_left
        )

    def jet(self, s):
        """Position and first and second s-derivatives at ``s``, each of
        shape (..., 2)."""
        s = np.asarray(s, dtype=float)
        du, ddu = (self.offset(s, k)[..., None] for k in (1, 2))
        return self.position(s), self.e_hat + du * self.n_left, ddu * self.n_left

    def kappa(self, s):
        """Signed geodesic curvature wrt the right-of-travel normal.

        Zero off the bridges: the chord and the strand are geodesics by
        construction.  On the bridges it is ``chart_curvature`` of the jet.
        """
        s = np.asarray(s, dtype=float)
        sP, sp, sq, sQ = self.s_window
        on = ((s >= sP) & (s < sp)) | ((s >= sq) & (s < sQ))
        k = np.zeros_like(s)
        if on.any():
            k[on] = chart_curvature(self.surface, *self.jet(s[on]))
        return k

    # -- Fermi coordinates --------------------------------------------------

    def fermi(self, points):
        """Exact foot point and signed normal distance (s, t) per point.

        t = (x - c(s)) . n / (w . n), with n a Euclidean right-of-travel
        normal (the side that signs ``kappa``) and w the metric-unit right
        normal at c(s): the derivative of t along w is 1 on the curve, so
        df/dn = -kappa holds in the chart metric.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        s = (pts - self.vertex_position) @ self.e_hat
        for _ in range(FERMI_NEWTON_ITERS):
            c, d1, d2 = self.jet(s)
            r = pts - c
            g1 = -coord_sum(r * d1)
            g2 = coord_sum(d1 * d1) - coord_sum(r * d2)
            s = s - g1 / g2
        c, d1, _ = self.jet(s)
        n = np.stack([d1[:, 1], -d1[:, 0]], axis=1)  # |n| cancels in t
        w = metric_right_normals(self.surface.chart_metric(c), d1)
        return s, coord_sum((pts - c) * n) / coord_sum(w * n)

    def replace_in_samples(self, samples: np.ndarray) -> np.ndarray:
        """Map the strand's samples in the window onto the detour: those in
        the working ball with s in [s_P, s_Q), so that far arcs of a closed
        curve stay put.  Raises NotReducible when the window holds no
        sample, so that the samples cannot carry the detour."""
        rel = samples - self.vertex_position
        s = rel @ self.e_hat
        out = samples.copy()
        sP, _, _, sQ = self.s_window
        m = (s >= sP) & (s < sQ) & (coord_norm(rel) < self.ball_radius)
        if not m.any():
            raise NotReducible(
                f"no sample of curve {self.curve_index} lies in the detour "
                f"window of ball radius {self.ball_radius:.3g}"
            )
        out[m] = self.position(s[m])
        return out

    def bridge_points(self) -> np.ndarray:
        sP, sp, sq, sQ = self.s_window
        s = np.concatenate(
            [np.linspace(sP, sp, BRIDGE_PROBES), np.linspace(sq, sQ, BRIDGE_PROBES)]
        )
        return self.position(s)


@dataclass
class ConformalFactorField:
    """The vertex-splitting factor f in Fermi coordinates of the detour.

    A chart factor: called on points of shape (..., 2) it returns f of
    shape (...), exactly 0 outside the working ball and the support tube.
    """

    base_curve: DetourCurve
    fermi_half_width: float  # d0
    working_ball: tuple  # (center, radius)

    def __post_init__(self):
        # f != 0 needs a Fermi foot point c(s) on a bridge and |t| < d0, so
        # the point is |t| |w . n_right| < d0 |w| from c(s) (t is the
        # Euclidean offset over w . n_right, w the metric-unit normal,
        # |w| <= lambda_min(g)^(-1/2)), and c(s) is within one probe
        # spacing of a bridge probe.  That spacing also covers the change of
        # lambda_min between probes, which moves d0 |w| by far less.
        from scipy.spatial import cKDTree

        det = self.base_curve
        probes = det.bridge_points()
        spacing = coord_norm(np.diff(probes.reshape(2, -1, 2), axis=1))
        lam = np.linalg.eigvalsh(det.surface.chart_metric(probes))
        reach = self.fermi_half_width * np.min(lam) ** -0.5 + spacing.max()
        self._tube = (cKDTree(probes), reach)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1, 2)
        out = np.zeros(flat.shape[0])
        center, radius = self.working_ball
        near = coord_norm(flat - center) < radius
        tree, reach = self._tube  # Fermi runs only where f can be nonzero
        near[near] = np.isfinite(tree.query(flat[near], distance_upper_bound=reach)[0])
        if near.any():
            out[near] = self._tube_value(flat[near])
        return out.reshape(pts.shape[:-1])[()]

    def _tube_value(self, pts):
        """f at points of the support tube, without the pre-tests."""
        s, t = self.base_curve.fermi(pts)
        d0 = self.fermi_half_width
        chi = plateau(t, d0 / 2.0, d0)
        return -chi * t * self.base_curve.kappa(s)

    def sup_norm(self) -> float:
        """max |f| over a grid of the support tube in Fermi coordinates.

        f = -chi(t) t kappa(s) is a product, so its max over the grid is
        max_t |chi(t) t| times max_s |kappa(s)|.
        """
        det = self.base_curve
        sP, sp, sq, sQ = det.s_window
        s = np.concatenate(
            [np.linspace(sP, sp, SUP_NORM_GRID), np.linspace(sq, sQ, SUP_NORM_GRID)]
        )
        d0 = self.fermi_half_width
        t = np.linspace(-d0, d0, 41)
        return float(np.abs(plateau(t, d0 / 2.0, d0) * t).max() * np.abs(det.kappa(s)).max())


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def detour_curvature_in(
    detour: DetourCurve, surface: SurfaceModel, s_values: np.ndarray
) -> np.ndarray:
    """Signed geodesic curvature of the detour in ``surface``'s metric.

    Uses the detour's analytic derivatives (no sampling noise), so this is
    an independent check of the conformal cancellation when ``surface``
    carries the splitting factor.
    """
    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    # FD step scaled to the ball so coefficient differencing resolves the
    # factor's feature scale (d0 shrinks with the ball and the offsets)
    return chart_curvature(surface, *detour.jet(s), fd_h=2e-6 * detour.ball_radius)


def _probe_grid(detour: DetourCurve) -> np.ndarray:
    """Check points across the detour window, offset off the piece joints.

    The factor's s-derivative has the construction's inherent Lipschitz kink
    exactly at the joints (the bridges match the chord to second order
    only), so curvature checks probe generic points.
    """
    sP, _, _, sQ = detour.s_window
    n = CURVATURE_PROBES
    i = np.arange(1, n + 1) + 0.381966
    return sP + (sQ - sP) * i / (n + 2)


def strand_curvature_in(curve: GeodesicCurve, surface: SurfaceModel) -> np.ndarray:
    """Curvature of a straight-strand curve in ``surface``'s metric.

    For the synthetic line strands the base derivatives are exact, so any
    nonzero value measures conformal-factor leakage onto the strand.
    """
    samples = curve.samples
    a = samples[0]
    b = samples[-1]
    d = (b - a) / np.linalg.norm(b - a)
    d1 = np.tile(d, (samples.shape[0], 1))
    d2 = np.zeros_like(d1)
    return chart_curvature(surface, samples, d1, d2)


def default_ball_radius(
    surface: SurfaceModel, network: GeodesicNetwork, vertex: VertexRecord
) -> float:
    """min(0.2 x injectivity estimate, half distance to the nearest other
    vertex, a margin to the chart boundary)."""
    cands = []
    K_max = 0.0
    for cur in network.curves:
        stride = max(1, cur.n // 64)
        K = np.atleast_1d(gauss_curvature(surface, cur.samples[::stride]))
        K_max = max(K_max, float(K.max()))
    if K_max > 0:
        cands.append(0.2 * np.pi / np.sqrt(K_max))
    min_len = min(c.length for c in network.curves)
    cands.append(0.2 * 0.5 * min_len)
    others = [
        v for v in network.vertices if not np.allclose(v.position, vertex.position)
    ]
    if others:
        d = min(np.linalg.norm(v.position - vertex.position) for v in others)
        cands.append(0.5 * d)
    if surface.kind == "chart":
        u0, u1, v0, v1 = surface.chart_domain
        x, y = vertex.position
        cands.append(
            0.8
            * min(x - u0, u1 - x, y - v0, v1 - y)
        )
    return float(min(cands))


def build_detour(
    surface: SurfaceModel,
    network: GeodesicNetwork,
    vertex: VertexRecord,
    strand_id: int,
    offset_t: float,
    ball_radius: Optional[float] = None,
) -> DetourCurve:
    """Detour of one strand around the vertex.

    The curve agrees with the strand outside the working ball and is
    composed of a quintic bridge (C^2-matched to the strand and to the
    chord), the geodesic chord from the offset point (``_chord``, on every
    chart), and a closing bridge from where the chord crosses s_q back to
    the strand, again C^2-matched at both ends.  ``offset_t = 0``
    degenerates to the identity.  Raises OffsetTooLarge when the offset is
    not small relative to the ball, VertexNotOnStrand for a bad strand id,
    and ChartUnavailable when the chord ends before s_q.
    """
    if surface.kind != "chart":
        raise ChartUnavailable(
            "vertex splitting works in a chart centered at the vertex"
        )
    if strand_id < 0 or strand_id >= len(vertex.strands):
        raise VertexNotOnStrand(f"strand {strand_id} not present at this vertex")
    R = float(ball_radius) if ball_radius else default_ball_radius(surface, network, vertex)
    if abs(offset_t) > 0.3 * INNER_FRAC * R:
        raise OffsetTooLarge(
            f"offset {offset_t} too large for ball radius {R} "
            f"(need |t| <= {0.3 * INNER_FRAC * R:.3g})"
        )
    ang = vertex.strand_angles[strand_id]
    e_hat = np.array([np.cos(ang), np.sin(ang)])
    n_left = np.array([-e_hat[1], e_hat[0]])
    curve_index = vertex.strands[strand_id][0]
    sP, sp, sq, sQ = -OUTER_FRAC * R, -INNER_FRAC * R, INNER_FRAC * R, OUTER_FRAC * R
    chord, dv_p, ddv_p, v_q, dv_q, ddv_q = _chord(
        surface, vertex.position, e_hat, n_left, sp, sq, offset_t
    )
    bridge_in = _quintic(sP, sp, 0.0, 0.0, 0.0, offset_t, dv_p, ddv_p)
    bridge_out = _quintic(sq, sQ, v_q, dv_q, ddv_q, 0.0, 0.0, 0.0)
    return DetourCurve(
        surface=surface,
        vertex_position=np.asarray(vertex.position, dtype=float),
        e_hat=e_hat,
        n_left=n_left,
        curve_index=curve_index,
        ball_radius=R,
        offset_t=float(offset_t),
        s_window=(sP, sp, sq, sQ),
        bridge_in=bridge_in,
        chord=chord,
        bridge_out=bridge_out,
    )


def _chord(surface, V, e_hat, n_left, sp, sq, t):
    """Geodesic chord out of p_t, as a graph-offset piece plus the offsets'
    first and second derivative at s_p and the offset and its first and
    second derivative at s_q.

    One chart flow on every chart: the geodesic leaves p_t heading for q at
    unit speed in the metric at p_t and runs 1.02 times the metric length of
    q - p_t, which carries it past s_q.  It need not end on the strand,
    since the closing bridge starts wherever the chord crosses s_q.  The
    offsets are fitted to the path (a straight chord to roundoff).  Raises
    ChartUnavailable when the path ends before s_q.
    """
    p_t = V + sp * e_hat + t * n_left
    d = V + sq * e_hat - p_t
    L = np.sqrt(d @ surface.chart_metric(p_t) @ d)
    _, _, path = flow_chart(surface, p_t, d / L, [1.02 * L], n_steps=256, store_path=True)
    rel = path[0] - V
    if rel[-1] @ e_hat < sq:
        raise ChartUnavailable(
            "the geodesic chord ends before the closing bridge: the chart is "
            "far from Euclidean across the working ball"
        )
    h = sq - sp
    # quintic fit of the graph offsets (geodesic chords are smooth graphs)
    chord = _piece(P.polyfit((rel @ e_hat - sp) / h, rel @ n_left, 5), sp, h)
    v, dv, ddv = chord[2]
    return (
        chord,
        P.polyval(0.0, dv) / h,
        P.polyval(0.0, ddv) / h**2,
        P.polyval(1.0, v),
        P.polyval(1.0, dv) / h,
        P.polyval(1.0, ddv) / h**2,
    )


def conformal_factor_for(
    detour: DetourCurve,
    surface: SurfaceModel,
    d0: Optional[float] = None,
    other_strand_points: Optional[np.ndarray] = None,
) -> ConformalFactorField:
    """Conformal factor making the detour a geodesic of exp(2 f) g.

    ``d0`` defaults to half the minimum distance from the bridges to the
    other strands; an explicit value that would let the support tube touch
    another strand raises D0TooLarge.
    """
    bridges = detour.bridge_points()
    if other_strand_points is not None and other_strand_points.size:
        from scipy.spatial import cKDTree

        dmin = float(cKDTree(other_strand_points).query(bridges)[0].min())
    else:
        dmin = INNER_FRAC * detour.ball_radius
    if d0 is None:
        d0 = 0.5 * dmin
    if d0 > 0.5 * dmin + 1e-15:
        raise D0TooLarge(
            f"d0 = {d0:.3g} exceeds half the bridge clearance {dmin:.3g}"
        )
    return ConformalFactorField(
        base_curve=detour,
        fermi_half_width=float(d0),
        working_ball=(detour.vertex_position.copy(), detour.ball_radius),
    )


def split_vertex(surface: SurfaceModel, network: GeodesicNetwork, vertex: VertexRecord):
    """Split an order-d vertex into C(d, 2) transverse double points in one
    working ball.

    Strands 0..d-3 get detours with offsets t ((d-2-j)/(d-2))^2, where
    t = OFFSET_FRAC R min(1, 2 tan delta) and delta is the smallest angle
    between strand directions (mod pi), so that no bridge crosses a
    neighbouring strand; the last two strands stay straight and cross at
    the vertex.  Each detour's factor is measured against every other curve
    as replaced, so its tube misses them all and the factors add.

    Returns (new_surface, new_network, transcript) with one record per
    detour; an order-2 vertex comes back unchanged with an empty
    transcript.  The metric is unchanged outside the working ball.  Raises
    NotReducible when a detoured curve has no sample in its detour window.
    """
    d = vertex.order
    if d < 3:
        return surface, network, []
    R = default_ball_radius(surface, network, vertex)
    delta = smallest_strand_angle(vertex.strand_angles)
    t = OFFSET_FRAC * R * min(1.0, 2.0 * np.tan(delta))
    detours = [
        build_detour(surface, network, vertex, j, t * ((d - 2 - j) / (d - 2)) ** 2, ball_radius=R)
        for j in range(d - 2)
    ]

    samples = [c.samples for c in network.curves]
    for det in detours:
        samples[det.curve_index] = det.replace_in_samples(samples[det.curve_index])
    owner = np.concatenate([np.full(len(x), k) for k, x in enumerate(samples)])
    points = np.vstack(samples)
    near = coord_norm(points - vertex.position) < 2.0 * R
    fields = [
        conformal_factor_for(
            det, surface, other_strand_points=points[near & (owner != det.curve_index)]
        )
        for det in detours
    ]
    new_surface = surface
    for field in fields:
        new_surface = new_surface.with_conformal_factor(field)

    new_curves = list(network.curves)
    for ci in {det.curve_index for det in detours}:
        new_curves[ci] = curve_from_samples(
            new_surface, samples[ci], closed=network.curves[ci].closed
        )
    radius = min(network.clustering_radius, 0.1 * min(det.offset_t for det in detours))
    verts = detect_vertices(new_curves, radius, surface=new_surface)
    orders = sorted(v.order for v in verts)
    transcript = []
    for j, (det, field) in enumerate(zip(detours, fields)):
        sP, _, _, sQ = det.s_window
        probe = det.position(np.linspace(-0.9 * R, 0.9 * R, 33))
        transcript.append({
            "vertex": [float(x) for x in vertex.position],
            "strand_id": j,
            "offset_t": det.offset_t,
            "ball_radius": float(R),
            "chart_flatness": chart_euclidean_deviation(surface, probe),
            "d0": float(field.fermi_half_width),
            "max_f": field.sup_norm(),
            "curvature_residual_before": float(
                np.max(np.abs(det.kappa(np.linspace(sP, sQ, 801))))
            ),
            "curvature_residual_after": float(
                np.max(np.abs(detour_curvature_in(det, new_surface, _probe_grid(det))))
            ),
            "vertex_orders_after": orders,
        })
    return new_surface, GeodesicNetwork(new_curves, verts, new_surface, radius), transcript


# the benchmark harness and older callers import the full reduction by this name
reduce_vertex_fully = split_vertex
