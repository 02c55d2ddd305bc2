import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.transform import Rotation

from geolab.errors import AmbiguousCluster
from geolab.geodesics import curve_from_samples, hausdorff_distance, sample_great_circle
from geolab.networks import (
    GeodesicNetwork,
    check_appendix_bounds,
    detect_vertices,
    edge_count,
    is_g_plus,
    smallest_strand_angle,
    weighted_vertex_count,
)
from geolab.surfaces import make_flat_chart


def chart_segment(chart, angle, half=1.0, n=4000, through=(0.0, 0.0)):
    t = np.linspace(-half, half, n)
    d = np.array([np.cos(angle), np.sin(angle)])
    pts = np.outer(t, d) + np.asarray(through, dtype=float)
    return curve_from_samples(chart, pts, closed=False)


class TestDetect:
    def test_two_orthogonal_circles(self, two_circles_network):
        net = two_circles_network
        assert len(net.vertices) == 2
        for v in net.vertices:
            assert v.order == 2 and v.transverse
            d = abs(v.strand_angles[0] - v.strand_angles[1]) % np.pi
            assert min(d, np.pi - d) == pytest.approx(np.pi / 2, abs=1e-3)
        # antipodal pair
        assert np.allclose(net.vertices[0].position, -net.vertices[1].position, atol=1e-6)

    def test_three_coordinate_circles(self, sphere):
        curves = [
            sample_great_circle(sphere, [1, 0, 0], [0, 1, 0]),
            sample_great_circle(sphere, [1, 0, 0], [0, 0, 1]),
            sample_great_circle(sphere, [0, 1, 0], [0, 0, 1]),
        ]
        net = GeodesicNetwork.build(sphere, curves, clustering_radius=0.01)
        assert len(net.vertices) == 6
        assert all(v.order == 2 for v in net.vertices)

    def test_three_concurrent_lines(self):
        chart = make_flat_chart(2.6, 2.6)
        curves = [chart_segment(chart, a) for a in (0.0, np.pi / 2, np.pi / 4)]
        net = GeodesicNetwork.build(chart, curves, clustering_radius=0.01)
        assert len(net.vertices) == 1
        assert net.vertices[0].order == 3
        assert np.allclose(net.vertices[0].position, 0.0, atol=1e-9)

    def test_near_concurrent_triple(self):
        # pairwise crossings 1e-4 apart, a small fraction of radius / 4
        chart = make_flat_chart(2.6, 2.6)
        curves = [
            chart_segment(chart, 0.0),
            chart_segment(chart, np.pi / 3),
            chart_segment(chart, 2 * np.pi / 3, through=(1e-4, 0.0)),
        ]
        crossings = np.array([[0.0, 0.0], [1e-4, 0.0], [5e-5, 5e-5 * np.sqrt(3)]])
        net = GeodesicNetwork.build(chart, curves, clustering_radius=0.01)
        assert len(net.vertices) == 1
        v = net.vertices[0]
        assert v.order == 3 and v.transverse
        assert sorted(ci for ci, _ in v.strands) == [0, 1, 2]
        assert np.linalg.norm(v.position - crossings.mean(axis=0)) <= 1e-4

    @pytest.mark.parametrize("n", [1000, 12000])
    @pytest.mark.parametrize("gap, merged", [(1.2, True), (1.8, True), (3.2, False)])
    def test_near_concurrent_triple_beyond_tolerance(self, gap, merged, n):
        # pairwise crossings gap x radius/4 apart, at 60 degrees: each line's
        # stretches within radius/4 of the two others share segments up to
        # about (2 / sin 60) x radius/4 = 2.31 x radius/4, so one vertex;
        # beyond that, three order-2 vertices closer than 2 x radius
        chart = make_flat_chart(2.6, 2.6)
        curves = [
            chart_segment(chart, 0.0, n=n),
            chart_segment(chart, np.pi / 3, n=n),
            chart_segment(chart, 2 * np.pi / 3, n=n, through=(gap * 0.01 / 4, 0.0)),
        ]
        if not merged:
            with pytest.raises(AmbiguousCluster):
                GeodesicNetwork.build(chart, curves, clustering_radius=0.01)
            return
        net = GeodesicNetwork.build(chart, curves, clustering_radius=0.01)
        assert len(net.vertices) == 1
        v = net.vertices[0]
        assert v.order == 3 and v.transverse
        assert sorted(ci for ci, _ in v.strands) == [0, 1, 2]

    def test_relabeling_and_reversal_invariance(self):
        chart = make_flat_chart(2.6, 2.6)
        base = [chart_segment(chart, a) for a in (0.0, np.pi / 2, np.pi / 4)]
        reversed_mid = curve_from_samples(chart, base[1].samples[::-1], closed=False)
        shuffled = [base[2], reversed_mid, base[0]]
        n1 = GeodesicNetwork.build(chart, base, clustering_radius=0.01)
        n2 = GeodesicNetwork.build(chart, shuffled, clustering_radius=0.01)
        assert [v.order for v in n1.vertices] == [v.order for v in n2.vertices]
        assert np.allclose(n1.vertices[0].position, n2.vertices[0].position, atol=1e-9)

    def test_refinement_stable(self, sphere):
        coarse = [
            sample_great_circle(sphere, [1, 0, 0], [0, 1, 0], 2048),
            sample_great_circle(sphere, [1, 0, 0], [0, 0, 1], 2048),
        ]
        fine = [
            sample_great_circle(sphere, [1, 0, 0], [0, 1, 0], 4096),
            sample_great_circle(sphere, [1, 0, 0], [0, 0, 1], 4096),
        ]
        radius = 0.02
        v_coarse = detect_vertices(coarse, radius, surface=sphere)
        v_fine = detect_vertices(fine, radius, surface=sphere)
        assert len(v_coarse) == len(v_fine) == 2
        for a, b in zip(v_coarse, v_fine):
            assert np.linalg.norm(a.position - b.position) <= radius / 2

    def test_ambiguous_cluster(self):
        chart = make_flat_chart(2.6, 2.6)
        sep = 0.012  # two crossings closer than 2 x radius = 0.02
        lines = [
            chart_segment(chart, np.pi / 2),
            chart_segment(chart, 0.0),
            chart_segment(chart, 0.0, through=(0.0, sep)),
        ]
        with pytest.raises(AmbiguousCluster):
            GeodesicNetwork.build(chart, lines, clustering_radius=0.01)

    def test_duplicate_images_rejected(self, sphere):
        c1 = sample_great_circle(sphere, [1, 0, 0], [0, 1, 0])
        c2 = sample_great_circle(sphere, [0, 1, 0], [-1, 0, 0])  # same image
        with pytest.raises(ValueError):
            GeodesicNetwork.build(sphere, [c1, c2], clustering_radius=0.01)

    @pytest.mark.parametrize("copy_first", [False, True])
    @pytest.mark.parametrize("shift", [1 - 1e-3, 1 + 1e-3, "bump"])
    def test_shared_image_exactly_within_the_radius(self, shift, copy_first):
        chart, radius = make_flat_chart(2.6, 2.6), 0.01
        line = chart_segment(chart, 0.0)
        pts = line.samples.copy()
        if shift == "bump":
            # one sample between the probe samples of hausdorff_distance
            # leaves the radius
            pts[125] += [0.0, 2 * radius]
        else:
            pts += [0.0, shift * radius]
        copy = curve_from_samples(chart, pts, closed=False)
        curves = [copy, line] if copy_first else [line, copy]
        shared = hausdorff_distance(line.samples, copy.samples) <= radius
        assert shared == (shift == 1 - 1e-3)
        if shared:
            with pytest.raises(ValueError, match="share their image"):
                GeodesicNetwork.build(chart, curves, clustering_radius=radius)
        else:
            GeodesicNetwork.build(chart, curves, clustering_radius=radius)

    def test_non_transverse_crossings_flagged(self):
        chart = make_flat_chart(2.6, 2.6)
        lines = [
            chart_segment(chart, 0.0),
            chart_segment(chart, 0.004),  # below the angle threshold
        ]
        # radius below the lines' Hausdorff separation, above 4x spacing
        net = GeodesicNetwork.build(chart, lines, clustering_radius=0.003)
        assert len(net.vertices) >= 1
        assert all(not v.transverse for v in net.vertices)
        assert not is_g_plus(net)


def assert_same_vertices(a, b, tol=1e-9):
    """Records agree up to list order, strand order and rounding."""
    assert len(a) == len(b)
    for va in a:
        vb = min(b, key=lambda v: np.linalg.norm(v.position - va.position))
        assert np.linalg.norm(vb.position - va.position) <= tol
        assert (vb.order, vb.transverse, vb.clustering_radius) == (
            va.order,
            va.transverse,
            va.clustering_radius,
        )
        # strand angles are line directions: compare as sets modulo pi
        for ang in va.strand_angles:
            d = np.abs(np.asarray(vb.strand_angles) - ang) % np.pi
            assert np.min(np.minimum(d, np.pi - d)) <= tol


def relabel_and_reverse(surface, curves, perm, flips):
    return [
        curve_from_samples(
            surface,
            curves[i].samples[::-1] if flip else curves[i].samples,
            closed=curves[i].closed,
        )
        for i, flip in zip(perm, flips)
    ]


class TestDetectInvariance:
    """Vertex records do not depend on how the curves are listed or oriented."""

    relabelings = dict(
        perm=st.permutations(range(3)),
        flips=st.lists(st.booleans(), min_size=3, max_size=3),
    )

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(
        angles=st.tuples(*[st.floats(0.0, 2 * np.pi)] * 3), **relabelings
    )
    def test_great_circles(self, sphere, angles, perm, flips):
        R = Rotation.from_euler("zyz", angles).as_matrix()
        e = R.T  # rows: rotated coordinate axes
        curves = [
            sample_great_circle(sphere, e[0], e[1]),
            sample_great_circle(sphere, e[0], e[2]),
            sample_great_circle(sphere, e[1], e[2]),
        ]
        base = detect_vertices(curves, 0.01, surface=sphere)
        assert len(base) == 6
        other = relabel_and_reverse(sphere, curves, perm, flips)
        assert_same_vertices(base, detect_vertices(other, 0.01, surface=sphere))

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(turn=st.floats(0.0, np.pi), **relabelings)
    def test_concurrent_lines(self, turn, perm, flips):
        chart = make_flat_chart(2.6, 2.6)
        curves = [
            chart_segment(chart, turn + np.pi * j / 3, n=2000) for j in range(3)
        ]
        base = detect_vertices(curves, 0.01, surface=chart)
        assert [v.order for v in base] == [3]
        other = relabel_and_reverse(chart, curves, perm, flips)
        assert_same_vertices(base, detect_vertices(other, 0.01, surface=chart))


def cut_below(samples, piece):
    """Oracle refinement of an open polyline: each segment cut by linear
    interpolation into the fewest equal pieces shorter than ``piece``."""
    out = [samples[:1]]
    for a, b in zip(samples[:-1], samples[1:]):
        n = int(np.floor(np.linalg.norm(b - a) / piece)) + 1
        out.append(a + (b - a) * (np.arange(1, n + 1)[:, None] / n))
    return np.vstack(out)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    center=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    first=st.floats(0.0, np.pi),
    gaps=st.lists(st.floats(0.3, 1.2), min_size=1, max_size=2),
    spacing=st.floats(0.1, 2.0),
    phases=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
@example(center=(0.1, -0.2), first=0.3, gaps=[1.0, 0.9], spacing=0.25, phases=[0.5] * 3)
@example(center=(0.0, 0.0), first=0.0, gaps=[0.3], spacing=2.0, phases=[0.0, 0.7, 0.0])
def test_detect_vertices_cuts_coarse_hit_segments(center, first, gaps, spacing, phases):
    # two or three straight lines through one point at transverse angles
    # (pairwise at least 0.3 rad apart), sampled at spacing x radius; hit
    # segments of radius / 5 or more are cut, so every spacing finds the
    # crossing, as detection on copies refined below radius / 5 does
    r = 0.01
    chart = make_flat_chart(2.6, 2.6)
    angles = first + np.concatenate([[0.0], np.cumsum(gaps)])
    curves = []
    for ang, phase in zip(angles, phases):
        t = np.arange(-0.3, 0.3, spacing * r) + phase * spacing * r
        pts = np.asarray(center) + np.outer(t, [np.cos(ang), np.sin(ang)])
        curves.append(curve_from_samples(chart, pts, closed=False))
    verts = detect_vertices(curves, r, surface=chart)
    assert [v.order for v in verts] == [len(angles)]
    assert np.linalg.norm(verts[0].position - center) <= r / 4
    refined = [
        curve_from_samples(chart, cut_below(c.samples, r / 5), closed=False) for c in curves
    ]
    expected = detect_vertices(refined, r, surface=chart)
    assert [v.order for v in expected] == [len(angles)]
    assert np.max(np.abs(verts[0].position - expected[0].position)) <= 1e-12


class TestCounts:
    def test_weighted_count_values(self, two_circles_network):
        assert weighted_vertex_count(two_circles_network.vertices) == 2

    def test_single_orders(self):
        chart = make_flat_chart(2.6, 2.6)
        three = GeodesicNetwork.build(
            chart,
            [chart_segment(chart, a) for a in (0.0, np.pi / 2, np.pi / 4)],
            clustering_radius=0.01,
        )
        four = GeodesicNetwork.build(
            chart,
            [chart_segment(chart, a) for a in (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)],
            clustering_radius=0.01,
        )
        assert weighted_vertex_count(three.vertices) == 3  # C(3,2)
        assert weighted_vertex_count(four.vertices) == 6  # C(4,2)

    def test_is_g_plus(self, two_circles_network, sphere):
        assert is_g_plus(two_circles_network)
        chart = make_flat_chart(2.6, 2.6)
        three = GeodesicNetwork.build(
            chart,
            [chart_segment(chart, a) for a in (0.0, np.pi / 2, np.pi / 4)],
            clustering_radius=0.01,
        )
        assert not is_g_plus(three)
        lone = GeodesicNetwork.build(
            sphere,
            [sample_great_circle(sphere, [1, 0, 0], [0, 1, 0])],
            clustering_radius=0.01,
        )
        assert is_g_plus(lone)  # vacuous

    def test_edge_count(self, two_circles_network):
        assert edge_count(two_circles_network) == 4
        assert edge_count(two_circles_network, [2, 1]) == 6


class TestAppendixBounds:
    def test_two_circles_pass(self, two_circles_network):
        rep = check_appendix_bounds(two_circles_network, p=2, K0=1.0, omega1=2 * np.pi)
        assert rep["edge_bound_hypothesis_ok"] and rep["edge_bound_ok"]
        assert rep["edge_count"] == 4 and rep["edge_bound"] == pytest.approx(4.0)
        assert rep["length_bound_hypothesis_ok"] and rep["length_bound_ok"]
        assert rep["length_bound"] == pytest.approx(2 * np.pi)

    def test_single_circle_p1_length_bound_fails(self, sphere):
        # one great circle at p = 1: 2 pi <= pi is false; reported, not raised
        net = GeodesicNetwork.build(
            sphere,
            [sample_great_circle(sphere, [1, 0, 0], [0, 1, 0])],
            clustering_radius=0.01,
        )
        rep = check_appendix_bounds(net, p=1, K0=1.0, omega1=2 * np.pi)
        assert rep["length_bound_ok"] is False
        # for p = 2 the same bound passes
        rep2 = check_appendix_bounds(net, p=2, K0=1.0, omega1=2 * np.pi)
        assert rep2["length_bound_ok"] is True

    def test_flat_chart_hypotheses_skipped(self):
        chart = make_flat_chart(2.6, 2.6)
        net = GeodesicNetwork.build(
            chart,
            [chart_segment(chart, 0.0), chart_segment(chart, np.pi / 2)],
            clustering_radius=0.01,
        )
        rep = check_appendix_bounds(net, p=2, K0=1.0, omega1=2 * np.pi)
        assert rep["edge_bound_hypothesis_ok"] is False
        assert "edge_bound_skipped" in rep
        assert rep["length_bound_hypothesis_ok"] is False
        assert "length_bound_skipped" in rep


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=8))
def test_smallest_strand_angle_matches_pairwise_loop(angles):
    # the pairwise loop once written out in detect_vertices, split_vertex and
    # extend_normal_field: same arithmetic, so bit-identical
    loop = np.pi / 2
    for a in range(len(angles)):
        for b in range(a + 1, len(angles)):
            d = abs(angles[a] - angles[b]) % np.pi
            loop = min(loop, d, np.pi - d)
    assert smallest_strand_angle(angles) == loop
