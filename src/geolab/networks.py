"""Geodesic networks: vertex detection, orders, and graph bound checkers.

A network is a finite set of primitive closed curves with distinct images.
Vertices are points where the union has at least two local strands; the
order of a vertex counts its strands (parameter preimages).  Detection
works on the sample level: segment pairs within a quarter of the clustering
radius are found with a KD-tree (the hits), hit segments of a fifth of the
radius or longer are cut into shorter pieces and searched again, and a
vertex is one connected component of the graph whose nodes are the segments
and whose edges are the hits.  The passes through each component are
grouped into strands by arclength proximity, and two vertices closer than
twice the clustering radius raise AmbiguousCluster.

Tolerances are explicit: the clustering radius is recorded in every vertex
record, and tangential near-crossings are reported as order-2 vertices with
``transverse = False`` rather than silently merged or dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Optional, Sequence

import numpy as np

from .errors import AmbiguousCluster
from .geodesics import GeodesicCurve, hausdorff_distance
from .surfaces import SurfaceModel, coord_norm, coord_sum, gauss_curvature

ANGLE_THRESHOLD = 1e-2  # strand directions closer than this (mod pi): not transverse


@dataclass
class VertexRecord:
    position: np.ndarray
    order: int
    strand_angles: List[float]
    transverse: bool
    strands: List[tuple]  # (curve index, arclength along that curve)
    clustering_radius: float

    def to_json_dict(self) -> dict:
        return {
            "position": [float(x) for x in self.position],
            "order": int(self.order),
            "strand_angles": [float(a) for a in self.strand_angles],
            "transverse": bool(self.transverse),
            "clustering_radius": float(self.clustering_radius),
        }


@dataclass
class GeodesicNetwork:
    curves: List[GeodesicCurve]
    vertices: List[VertexRecord]
    ambient_surface: SurfaceModel
    clustering_radius: float = 0.0

    @classmethod
    def build(
        cls,
        surface: SurfaceModel,
        curves: Sequence[GeodesicCurve],
        clustering_radius: Optional[float] = None,
    ) -> "GeodesicNetwork":
        from scipy.spatial import cKDTree

        curves = list(curves)
        radius = _effective_radius(surface, curves, clustering_radius)
        for i in range(len(curves) - 1):
            # the distance is symmetric: each later curve's probe is queried
            # against one tree of curve i
            tree = cKDTree(curves[i].samples)
            for j in range(i + 1, len(curves)):
                d = hausdorff_distance(curves[j].samples, curves[i].samples, radius, tree_b=tree)
                if d <= radius:
                    raise ValueError(
                        f"curves {i} and {j} share their image "
                        f"(Hausdorff {d:.2e} <= clustering radius); "
                        "networks require distinct primitive images"
                    )
        verts = detect_vertices(curves, radius, surface=surface)
        return cls(curves, verts, surface, radius)

    def to_json_dict(self) -> dict:
        return {
            "curves": [c.to_record() for c in self.curves],
            "vertices": [v.to_json_dict() for v in self.vertices],
            "weighted_vertex_count": weighted_vertex_count(self.vertices),
            "g_plus": is_g_plus(self),
            "clustering_radius": float(self.clustering_radius),
        }


def _effective_radius(surface, curves, clustering_radius):
    if clustering_radius is not None:
        return float(clustering_radius)
    diam = surface.diameter()
    spacing = max(
        c.length / c.n if c.closed else c.length / (c.n - 1) for c in curves
    )
    # default 1e-4 * diameter, bumped to five sample spacings so the
    # radius is one the sampling resolves
    return max(1e-4 * diam, 5.0 * spacing)


# ---------------------------------------------------------------------------
# segment intersection machinery
# ---------------------------------------------------------------------------


def _segment_arrays(curves):
    """Segments of all curves (starts, ends, curve index, chord arclength at
    the start) plus per-curve cumulative chord arclength.

    Sampling may be non-uniform (e.g. along a detour); all downstream
    geometry uses true chord arclength, not sample indices.
    """
    starts, ends, curve_ids, cumlens = [], [], [], []
    for ci, cur in enumerate(curves):
        pts = cur.samples
        if cur.closed:
            a, b = pts, np.roll(pts, -1, axis=0)
        else:
            a, b = pts[:-1], pts[1:]
        starts.append(a)
        ends.append(b)
        curve_ids.append(np.full(a.shape[0], ci))
        seg_len = coord_norm(b - a)
        cumlens.append(np.concatenate([[0.0], np.cumsum(seg_len)]))
    arc = np.concatenate([c[:-1] for c in cumlens])
    return np.vstack(starts), np.vstack(ends), np.concatenate(curve_ids), arc, cumlens


def _segseg_distance(P1, Q1, P2, Q2):
    """Closest points of segment pairs (vectorized, any ambient dim)."""
    d1 = Q1 - P1
    d2 = Q2 - P2
    r = P1 - P2
    a = coord_sum(d1 * d1)
    e = coord_sum(d2 * d2)
    b = coord_sum(d1 * d2)
    c = coord_sum(d1 * r)
    f = coord_sum(d2 * r)
    denom = a * e - b * b
    s = np.where(denom > 1e-30, (b * f - c * e) / np.where(denom > 1e-30, denom, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    t = np.where(e > 1e-30, (b * s + f) / np.where(e > 1e-30, e, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    s = np.where(a > 1e-30, (b * t - c) / np.where(a > 1e-30, a, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    c1 = P1 + s[..., None] * d1
    c2 = P2 + t[..., None] * d2
    dist = coord_norm(c1 - c2)
    return dist, s, t, c1, c2


def _hits(A, B, seg_len, cids, arc, totals, closed, tol):
    """Segment pairs within ``tol`` of each other, as (i, j, s, t, points):
    the two segments, the closest points' segment parameters and their
    midpoints.  Same-curve pairs count only when they are far apart along
    the curve."""
    from scipy.spatial import cKDTree

    mids = 0.5 * (A + B)
    # two segments can only intersect if their midpoints are this close
    search = float(seg_len.max() + tol)
    pairs = cKDTree(mids).query_pairs(search, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    # same-curve passes count as distinct strands only when their arc
    # separation clearly exceeds the acceptance scale; nearby segments of
    # one strand otherwise sit within tolerance of each other and would
    # chain-cluster along the whole curve
    ci = cids[i]
    arc_gap = np.abs(arc[i] - arc[j])
    arc_gap = np.where(closed[ci], np.minimum(arc_gap, totals[ci] - arc_gap), arc_gap)
    strand_window = np.maximum(6.0 * np.maximum(seg_len[i], seg_len[j]), 4.0 * tol)
    keep = ~((ci == cids[j]) & (arc_gap <= strand_window))
    i, j = i[keep], j[keep]
    dist, s, t, c1, c2 = _segseg_distance(A[i], B[i], A[j], B[j])
    hit = dist <= tol
    return i[hit], j[hit], s[hit], t[hit], 0.5 * (c1[hit] + c2[hit])


def detect_vertices(
    curves: Sequence[GeodesicCurve],
    clustering_radius: float,
    *,
    surface: SurfaceModel,
) -> List[VertexRecord]:
    """All pairwise and self intersections, as vertex records.

    A hit is a pair of segments within clustering_radius / 4 of each other
    (same-curve pairs only when they are far apart along the curve).  When
    a hit segment is clustering_radius / 5 or longer, every hit segment is
    cut into floor(length / (clustering_radius / 5)) + 1 equal pieces and
    the hits are found again among those pieces only, so callers pass
    curves as stored.  A vertex is a connected component of segments joined
    by hits, so hits that share a segment belong to one vertex even where
    no chain of their closest points lies within that tolerance.  Two
    crossings of one curve thus merge when its stretches within the
    tolerance of the two other strands share a segment: at crossing angles
    a and b, up to about (1/sin a + 1/sin b) * clustering_radius / 4 apart,
    give or take a segment length.  Raises AmbiguousCluster when two
    vertices come closer than twice the clustering radius.
    """
    curves = list(curves)
    A, B, cids, arc, cumlens = _segment_arrays(curves)
    seg_len = coord_norm(B - A)
    totals = np.array([c[-1] for c in cumlens])
    closed = np.array([c.closed for c in curves])
    tol, piece = clustering_radius / 4.0, clustering_radius / 5.0
    i, j, s, t, points = _hits(A, B, seg_len, cids, arc, totals, closed, tol)
    hit_segs = np.unique(np.concatenate([i, j]))
    if hit_segs.size and seg_len[hit_segs].max() >= piece:
        # a hit segment from a to b becomes n pieces; piece m runs from
        # lam = m / n to (m + 1) / n, at the points a (1 - lam) + b lam
        n = (seg_len[hit_segs] // piece).astype(int) + 1
        seg = np.repeat(hit_segs, n)
        m = np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n)
        n = np.repeat(n, n)
        lo, hi = (m / n)[:, None], ((m + 1) / n)[:, None]
        a, b = A[seg], B[seg]
        A, B = a * (1 - lo) + b * lo, a * (1 - hi) + b * hi
        arc, cids = arc[seg] + lo[:, 0] * seg_len[seg], cids[seg]
        seg_len = coord_norm(B - A)
        i, j, s, t, points = _hits(A, B, seg_len, cids, arc, totals, closed, tol)
    if not i.size:
        return []

    # one graph: segments are nodes and hits are edges, so each component
    # holding hits is one crossing (a tangential near-miss chains along its
    # whole overlap)
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n_seg = A.shape[0]
    graph = coo_matrix((np.ones(i.size), (i, j)), shape=(n_seg, n_seg))
    labels = connected_components(graph, directed=False)[1][i]
    # each hit is a pass of both of its curves, at chord arclength
    pass_curves = np.stack([cids[i], cids[j]])
    pass_arcs = np.stack([arc[i] + s * seg_len[i], arc[j] + t * seg_len[j]])
    records = []
    centroids = []
    for label in np.unique(labels):
        sel = labels == label
        centroid = points[sel].mean(axis=0)
        if surface.kind == "levelset":
            centroid = surface.project(centroid)
        strands = _group_strands(
            pass_curves[:, sel].ravel(), pass_arcs[:, sel].ravel(), curves, cumlens, clustering_radius
        )
        if len(strands) < 2:
            continue
        angles = [
            _strand_angle(curves[ci], s_arc, cumlens[ci], centroid, surface)
            for ci, s_arc in strands
        ]
        transverse = smallest_strand_angle(angles) >= ANGLE_THRESHOLD
        records.append(
            VertexRecord(
                position=centroid,
                order=len(strands),
                strand_angles=angles,
                transverse=transverse,
                strands=strands,
                clustering_radius=clustering_radius,
            )
        )
        centroids.append(centroid)
    if len(centroids) > 1:
        from scipy.spatial import cKDTree

        cd = cKDTree(np.array(centroids))
        close = cd.query_pairs(2.0 * clustering_radius)
        if close:
            raise AmbiguousCluster(
                "two vertex clusters closer than 2x clustering radius; "
                "refine sampling or shrink the radius"
            )
    records.sort(key=lambda r: tuple(r.position))
    return records


def _group_strands(pass_curves, pass_arcs, curves, cumlens, radius):
    """Group passes (curve index, chord arclength) into distinct strands.

    Sorted passes of one curve more than 4 x radius apart start a new
    strand; on a closed curve the last strand wraps into the first.
    """
    strands = []
    window = 4.0 * radius
    for ci in np.unique(pass_curves):
        total = float(cumlens[ci][-1])
        s_vals = np.sort(pass_arcs[pass_curves == ci])
        groups = np.split(s_vals, np.flatnonzero(np.diff(s_vals) > window) + 1)
        if curves[ci].closed and len(groups) > 1:
            if (s_vals[0] + total) - s_vals[-1] <= window:
                groups[0] = np.concatenate([groups.pop(), groups[0]])
        for g in groups:
            # circular mean around a representative (groups can straddle s=0)
            rep = g[0]
            mean = rep + np.mean((g - rep + total / 2.0) % total - total / 2.0)
            strands.append((int(ci), float(mean % total)))
    return strands


def _strand_angle(curve, s_arc, cumlen, centroid, surface):
    """Tangent direction of the curve at chord arclength s, as an angle
    mod pi in a fixed frame of the vertex tangent plane.

    Uses a local chord so non-uniform sampling is fine."""
    n_seg = len(cumlen) - 1
    idx = int(np.clip(np.searchsorted(cumlen, s_arc) - 1, 0, n_seg - 1))
    pts = curve.samples
    lo = max(0, idx - 1)
    hi = min(pts.shape[0] - 1, idx + 2)
    t = pts[hi] - pts[lo]
    t = t / np.linalg.norm(t)
    if surface.kind == "levelset":
        e1, e2, _ = surface.tangent_frame(centroid)
        ang = np.arctan2(t @ e2, t @ e1)
    else:
        ang = np.arctan2(t[1], t[0])
    return float(ang % np.pi)


def smallest_strand_angle(angles) -> float:
    """Smallest angle between two of at least two strand directions, mod pi."""
    ang = np.asarray(angles, dtype=float)
    gaps = np.abs(ang[:, None] - ang[None, :])[np.triu_indices(ang.size, 1)] % np.pi
    return float(np.min(np.minimum(gaps, np.pi - gaps)))


# ---------------------------------------------------------------------------
# counts and bounds
# ---------------------------------------------------------------------------


def weighted_vertex_count(vertices: Sequence[VertexRecord]) -> int:
    """Sum of binomial(order, 2) over the vertex records."""
    return int(sum(comb(v.order, 2) for v in vertices))


def is_g_plus(network: GeodesicNetwork) -> bool:
    """True iff every vertex is a transverse order-2 crossing (vacuous if
    there are no vertices)."""
    return all(v.order == 2 and v.transverse for v in network.vertices)


def edge_count(network: GeodesicNetwork, multiplicities=None) -> int:
    """Edges of the network graph, counted with curve multiplicity.

    Each pass of a closed curve through a vertex splits it once, so a curve
    with q vertex passes contributes q arcs (one closed edge if q = 0).
    """
    curves = network.curves
    if multiplicities is None:
        multiplicities = [1] * len(curves)
    passes = [0] * len(curves)
    for v in network.vertices:
        for ci, _ in v.strands:
            passes[ci] += 1
    total = 0
    for ci, q in enumerate(passes):
        total += multiplicities[ci] * (q if q > 0 else 1)
    return int(total)


def check_appendix_bounds(
    network: GeodesicNetwork,
    p: int,
    K0: float,
    omega1: float,
    multiplicities=None,
) -> dict:
    """Edge-count and length upper bounds for a width-achieving network.

    Edge bound e_G <= p omega_1 / pi needs sampled curvature within
    [c_0, 1] for some c_0 > 0; the length bound length(gamma_i) <= pi p /
    sqrt(K0) needs K >= K0 > 0.  When a hypothesis fails the corresponding
    check is skipped and reported, not raised.
    """
    slack = 1e-9
    K_all = np.concatenate(
        [np.atleast_1d(gauss_curvature(network.ambient_surface, c.samples)) for c in network.curves]
    )
    K_min, K_max = float(K_all.min()), float(K_all.max())

    report = {
        "p": int(p),
        "K0": float(K0),
        "omega1": float(omega1),
        "sampled_K_min": K_min,
        "sampled_K_max": K_max,
        "curve_lengths": [float(c.length) for c in network.curves],
    }

    edge_hypothesis = K_max <= 1.0 + slack and K_min > 0.0
    report["edge_bound_hypothesis_ok"] = bool(edge_hypothesis)
    if edge_hypothesis:
        e_G = edge_count(network, multiplicities)
        bound = p * omega1 / np.pi
        report["edge_count"] = e_G
        report["edge_bound"] = float(bound)
        report["edge_bound_ok"] = bool(e_G <= bound + slack)
    else:
        report["edge_bound_skipped"] = "sampled curvature outside (0, 1]"

    length_hypothesis = K0 > 0.0 and K_min >= K0 - slack
    report["length_bound_hypothesis_ok"] = bool(length_hypothesis)
    if length_hypothesis:
        bound = np.pi * p / np.sqrt(K0)
        report["length_bound"] = float(bound)
        report["length_bound_ok"] = bool(
            all(c.length <= bound + slack for c in network.curves)
        )
    else:
        report["length_bound_skipped"] = "sampled curvature below K0 (or K0 <= 0)"
    return report
