"""Conformal vertex splitting: order d -> binomial(d, 2) order-2 crossings.

All but two strands of a high-order vertex are replaced by detours (bridge,
geodesic chord past the vertex, bridge back) with distinct offsets, in one
working ball, and the metric is rescaled by exp(2 f) with one factor
f = -chi(t) t kappa(s) per detour, in Fermi coordinates of that detour, so
each detour is a geodesic of the new metric.  Each factor is supported in a
thin tube around its bridges that misses every other curve: the strands
never feel another strand's factor, the two straight strands cross at the
vertex, and the count sum binomial(order, 2) is conserved.
"""

import numpy as np

from geolab import GeodesicNetwork, make_flat_chart, weighted_vertex_count
from geolab.geodesics import curve_from_samples
from geolab.splitting import split_vertex, strand_curvature_in

chart = make_flat_chart(2.6, 2.6)
for order, angles in (
    (3, (0.0, np.pi / 2, np.pi / 4)),
    (4, (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)),
    (8, np.pi * np.arange(8) / 8),
):
    lines = []
    for a in angles:
        t = np.linspace(-1, 1, 6000)
        lines.append(
            curve_from_samples(chart, np.outer(t, [np.cos(a), np.sin(a)]), closed=False)
        )
    net = GeodesicNetwork.build(chart, lines, clustering_radius=0.01)
    vertex = net.vertices[0]
    print(f"== splitting an order-{order} vertex ==")
    surf, net2, transcript = split_vertex(chart, net, vertex)
    print(f"  one ball R={transcript[0]['ball_radius']:.4g}, {len(transcript)} detour(s)")
    for step in transcript:
        print(
            f"  detour of strand {step['strand_id']}: offset t={step['offset_t']:.4g}, "
            f"d0={step['d0']:.4g}, max|f| = {step['max_f']:.3g}, curvature "
            f"{step['curvature_residual_before']:.3g} -> "
            f"{step['curvature_residual_after']:.2e} in exp(2f)g"
        )
    print(f"  final orders: {sorted(v.order for v in net2.vertices)}")
    print(
        f"  weighted count binomial({order},2) = "
        f"{weighted_vertex_count(net2.vertices)} (conserved)"
    )
    # the strands that were not detoured stay geodesics of the new metric
    detoured = {vertex.strands[step["strand_id"]][0] for step in transcript}
    worst = max(
        np.abs(strand_curvature_in(c, surf)).max()
        for j, c in enumerate(net2.curves)
        if j not in detoured
    )
    print(f"  straight strands' curvature in the new metric: {worst:.2e}\n")
