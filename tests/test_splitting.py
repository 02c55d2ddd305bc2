import numpy as np
import pytest

from geolab.errors import (
    ChartUnavailable,
    D0TooLarge,
    NotReducible,
    OffsetTooLarge,
    VertexNotOnStrand,
)
from geolab.geodesics import chart_curvature, curve_from_samples
from geolab import splitting
from geolab.networks import GeodesicNetwork, weighted_vertex_count
from geolab.splitting import (
    build_detour,
    conformal_factor_for,
    detour_curvature_in,
    reduce_vertex_fully,
    split_vertex,
    strand_curvature_in,
    _probe_grid,
)
from geolab.surfaces import SurfaceModel, make_flat_chart, sphere_exp_chart


def concurrent_lines(chart, angles, n=6000, half=1.0):
    curves = []
    for a in angles:
        t = np.linspace(-half, half, n)
        curves.append(
            curve_from_samples(
                chart, np.outer(t, [np.cos(a), np.sin(a)]), closed=False
            )
        )
    return GeodesicNetwork.build(chart, curves, clustering_radius=0.01)


@pytest.fixture()
def chart():
    return make_flat_chart(2.6, 2.6)


@pytest.fixture()
def three_lines(chart):
    return concurrent_lines(chart, (0.0, np.pi / 2, np.pi / 4))


class TestDetour:
    def test_zero_offset_is_identity(self, chart, three_lines):
        det = build_detour(chart, three_lines, three_lines.vertices[0], 0, 0.0, 0.5)
        s = np.linspace(-0.9, 0.9, 200)
        line = np.outer(s, det.e_hat)
        assert np.max(np.abs(det.position(s) - line)) < 1e-15

    def test_detour_misses_vertex(self, chart, three_lines):
        t = 0.05 * 0.4  # offset relative to the ball fractions
        det = build_detour(chart, three_lines, three_lines.vertices[0], 0, t, 0.5)
        d = det.min_distance_to_vertex()
        # the geodesic chord passes the vertex at roughly half the offset
        assert d >= 0.4 * t
        assert d <= 0.6 * t

    def test_window_stays_in_working_ball(self, chart):
        # an ellipse 0.8 x 0.3 through the vertex of two lines: its far arc,
        # 0.6 away, projects into the detour window but must stay put
        th = 2 * np.pi * np.arange(4000) / 4000
        ellipse = np.column_stack([0.8 * np.sin(th), 0.3 - 0.3 * np.cos(th)])
        net = concurrent_lines(chart, (np.pi / 3, 2 * np.pi / 3))
        curves = [curve_from_samples(chart, ellipse), *net.curves]
        net = GeodesicNetwork.build(chart, curves, clustering_radius=0.01)
        (vertex,) = [v for v in net.vertices if v.order == 3]
        R = 0.05
        det = build_detour(chart, net, vertex, 0, 0.1 * R, ball_radius=R)
        assert det.curve_index == 0
        moved = np.any(det.replace_in_samples(ellipse) != ellipse, axis=1)
        far = np.linalg.norm(ellipse - det.vertex_position, axis=1) >= R
        assert moved.any() and not (moved & far).any()

    @pytest.mark.parametrize(
        "make_chart",
        [lambda: make_flat_chart(2.6, 2.6), lambda: sphere_exp_chart(1.2)],
        ids=["flat", "sphere_exp"],
    )
    def test_c2_matching_at_joints(self, make_chart):
        # in the curved chart the chord ends off the strand (v_q != 0), and
        # the closing bridge starts there
        chart = make_chart()
        net = concurrent_lines(chart, (0.0, np.pi / 2, np.pi / 4))
        det = build_detour(chart, net, net.vertices[0], 0, 0.02, 0.5)
        sP, sp, sq, sQ = det.s_window
        eps = 1e-10
        for s_joint in (sP, sp, sq, sQ):
            for order in (0, 1, 2):
                left = det.offset(np.array([s_joint - eps]), order)[0]
                right = det.offset(np.array([s_joint + eps]), order)[0]
                assert abs(left - right) < 1e-5, (s_joint, order)

    def test_curved_chord_is_chart_geodesic(self):
        chart = sphere_exp_chart(1.2)
        net = concurrent_lines(chart, (0.0, np.pi / 2, np.pi / 4))
        det = build_detour(chart, net, net.vertices[0], 0, 0.02, 0.2)
        _, sp, sq, _ = det.s_window
        s = np.linspace(sp, sq, 401)[1:-1]
        assert np.max(np.abs(chart_curvature(chart, *det.jet(s)))) <= 1e-7

    def test_curved_chord_short_of_closing_bridge(self):
        # in the metric exp(2u) (dx^2 + dy^2) the geodesic covers too little
        # chart distance to reach s_q within 1.02 times its metric length
        chart = SurfaceModel(
            kind="chart",
            name="growing",
            chart_metric_fn=lambda uv: np.exp(2.0 * uv[..., 0])[..., None, None] * np.eye(2),
            chart_domain=(-1.3, 1.3, -1.3, 1.3),
        )
        net = concurrent_lines(chart, (0.0, np.pi / 2, np.pi / 4))
        with pytest.raises(ChartUnavailable):
            build_detour(chart, net, net.vertices[0], 0, 0.02, 0.5)

    def test_offset_too_large(self, chart, three_lines):
        with pytest.raises(OffsetTooLarge):
            build_detour(chart, three_lines, three_lines.vertices[0], 0, 0.2, 0.5)

    def test_bad_strand(self, chart, three_lines):
        with pytest.raises(VertexNotOnStrand):
            build_detour(chart, three_lines, three_lines.vertices[0], 7, 0.01, 0.5)

    def test_sphere_exp_chart_crossings(self):
        # synthetic concurrent configuration in the sphere's normal chart:
        # the detour meets each remaining radial line exactly once in the
        # inner half-ball
        chart = sphere_exp_chart(1.2)
        net = concurrent_lines(chart, (0.0, np.pi / 2, np.pi / 4), half=1.0)
        det = build_detour(chart, net, net.vertices[0], 0, 0.01, 0.4)
        sP, sp, sq, sQ = det.s_window
        s = np.linspace(sP, sQ, 20001)
        pts = det.position(s)
        inner = np.linalg.norm(pts, axis=1) <= 0.5 * 0.4
        for ang in (np.pi / 2, np.pi / 4):
            d = np.array([np.cos(ang), np.sin(ang)])
            side = pts[:, 0] * d[1] - pts[:, 1] * d[0]
            crossings = np.sum(np.diff(np.sign(side[inner])) != 0)
            assert crossings == 1, ang


class TestConformalFactor:
    def test_zero_curvature_gives_zero_factor(self, chart, three_lines):
        det = build_detour(chart, three_lines, three_lines.vertices[0], 0, 0.0, 0.5)
        field = conformal_factor_for(det, chart)
        assert field.sup_norm() == 0.0

    def test_detour_becomes_geodesic(self, chart, three_lines):
        net = three_lines
        det = build_detour(chart, net, net.vertices[0], 0, 0.02, 0.5)
        others = np.vstack([net.curves[1].samples, net.curves[2].samples])
        field = conformal_factor_for(det, chart, other_strand_points=others)
        rescaled = chart.with_conformal_factor(field)
        kappa = detour_curvature_in(det, rescaled, _probe_grid(det))
        assert np.max(np.abs(kappa)) < 1e-6
        # before the change the detour is visibly curved
        kappa0 = detour_curvature_in(det, chart, _probe_grid(det))
        assert np.max(np.abs(kappa0)) > 0.1

    def test_factor_vanishes_on_curve_and_outside(self, chart, three_lines):
        net = three_lines
        det = build_detour(chart, net, net.vertices[0], 0, 0.02, 0.5)
        others = np.vstack([net.curves[1].samples, net.curves[2].samples])
        field = conformal_factor_for(det, chart, other_strand_points=others)
        s = np.linspace(-0.9, 0.9, 400)
        on_curve = np.abs(field(det.position(s)))
        assert np.max(on_curve) < 1e-15  # f = -chi * t * kappa * psi, t = 0
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.3, 1.3, size=(800, 2))
        outside = pts[np.linalg.norm(pts, axis=1) > 0.5]
        assert np.max(np.abs(field(outside))) == 0.0

    def test_sup_norm_decreases_with_offset(self, chart, three_lines):
        net = three_lines
        others = np.vstack([net.curves[1].samples, net.curves[2].samples])
        norms = []
        for t in (0.05, 0.025, 0.0125):
            det = build_detour(chart, net, net.vertices[0], 0, t * 0.4, 0.5)
            field = conformal_factor_for(det, chart, other_strand_points=others)
            norms.append(field.sup_norm())
        assert norms[0] > norms[1] > norms[2] > 0

    def test_d0_too_large(self, chart, three_lines):
        net = three_lines
        det = build_detour(chart, net, net.vertices[0], 0, 0.02, 0.5)
        others = np.vstack([net.curves[1].samples, net.curves[2].samples])
        with pytest.raises(D0TooLarge):
            conformal_factor_for(det, chart, d0=0.4, other_strand_points=others)


class TestSplit:
    def test_single_split_orders(self, chart, three_lines):
        _, net2, step = split_vertex(chart, three_lines, three_lines.vertices[0])
        assert step["vertex_orders_after"] == [2, 2, 2]
        assert step["curvature_residual_after"] <= 1e-6

    def test_not_reducible(self, chart, three_lines):
        _, net2, _ = split_vertex(chart, three_lines, three_lines.vertices[0])
        with pytest.raises(NotReducible):
            split_vertex(chart, net2, net2.vertices[0])

    def test_ball_without_samples_not_reducible(self, chart, three_lines):
        # the nearest samples of the detoured line lie 1.7e-4 from the
        # vertex, outside the detour window [-0.8e-4, 0.8e-4)
        with pytest.raises(NotReducible, match="no sample"):
            split_vertex(chart, three_lines, three_lines.vertices[0], ball_radius=1e-4)

    def test_full_reduction_order5_stops(self, chart, monkeypatch):
        # the third nested ball (R about 1.3e-4) holds no sample of the
        # detoured line, so the reduction stops instead of repeating it
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["ball_radius"])
            assert len(calls) <= 3, "the reduction repeats a split"
            return split_vertex(*args, **kwargs)

        monkeypatch.setattr(splitting, "split_vertex", counted)
        net = concurrent_lines(chart, np.pi * np.arange(5) / 5)
        with pytest.raises(NotReducible, match="no sample"):
            reduce_vertex_fully(chart, net, net.vertices[0])
        assert len(calls) == 3 and calls[2] < 2e-4

    def test_full_reduction_order3(self, chart, three_lines):
        surf, net2, transcript = reduce_vertex_fully(chart, three_lines, three_lines.vertices[0])
        orders = sorted(v.order for v in net2.vertices)
        assert orders == [2, 2, 2]
        assert all(v.transverse for v in net2.vertices)
        assert weighted_vertex_count(net2.vertices) == 3  # conserved C(3,2)
        # metric unchanged outside the working ball
        R0 = transcript[0]["ball_radius"]
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.3, 1.3, size=(600, 2))
        outside = pts[np.linalg.norm(pts, axis=1) > R0]
        assert np.max(np.abs(surf.factor_value(outside))) == 0.0
        # other strands keep zero curvature in the rescaled metric
        for j in (1, 2):
            k = strand_curvature_in(net2.curves[j], surf)
            assert np.max(np.abs(k)) <= 1e-8

    def test_full_reduction_order3_curved_chart(self):
        chart = sphere_exp_chart(1.2)
        net = concurrent_lines(chart, np.pi * np.arange(3) / 3)
        _, net2, transcript = reduce_vertex_fully(chart, net, net.vertices[0])
        assert all(s["curvature_residual_after"] <= 1e-6 for s in transcript)
        assert sorted(v.order for v in net2.vertices) == [2, 2, 2]
        assert all(v.transverse for v in net2.vertices)

    def test_full_reduction_order4_curved_chart(self):
        chart = sphere_exp_chart(1.2)
        net = concurrent_lines(chart, np.pi * np.arange(4) / 4)
        _, net2, transcript = reduce_vertex_fully(chart, net, net.vertices[0])
        assert len(transcript) == 2
        assert all(s["curvature_residual_after"] <= 1e-6 for s in transcript)
        assert sorted(v.order for v in net2.vertices) == [2] * 6
        assert all(v.transverse for v in net2.vertices)

    def test_full_reduction_order4(self, chart):
        net = concurrent_lines(chart, (0.0, np.pi / 2, np.pi / 4, -np.pi / 4))
        surf, net2, transcript = reduce_vertex_fully(chart, net, net.vertices[0])
        assert len(transcript) == 2
        orders = sorted(v.order for v in net2.vertices)
        assert orders == [2] * 6
        assert weighted_vertex_count(net2.vertices) == 6  # conserved C(4,2)
        assert all(s["curvature_residual_after"] <= 1e-6 for s in transcript)

    def test_factor_norm_shrinks_dyadically(self, chart, three_lines):
        # ||f|| -> 0 as the detour offset shrinks dyadically
        net = three_lines
        others = np.vstack([net.curves[1].samples, net.curves[2].samples])
        sups = []
        for t in (0.02, 0.01, 0.005, 0.0025):
            det = build_detour(chart, net, net.vertices[0], 0, t, 0.5)
            field = conformal_factor_for(det, chart, other_strand_points=others)
            sups.append(field.sup_norm())
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 0.2 * sups[0]
