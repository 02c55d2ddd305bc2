import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from geolab.errors import FlowLeftSurface, NotGPlus, OriginMismatch
from geolab.extension import (
    SumField,
    _CurveFrame,
    TangentialField,
    cross_extension,
    extend_normal_field,
    flow_gram_matrix,
    flow_network_length,
    verify_second_variation_match,
)
from geolab.geodesics import curve_from_samples, sample_great_circle, sample_level_circle
from geolab.networks import GeodesicNetwork
from geolab.surfaces import make_flat_chart, make_mk


def vec_poly(coeffs):
    """R -> R^2 polynomial from a (2, deg+1) coefficient array."""

    def f(t):
        t = np.asarray(t, dtype=float)
        return np.stack(
            [np.polynomial.polynomial.polyval(t, c) for c in coeffs], axis=-1
        )

    return f


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def two_pass_nearest(frame, pts, bound=np.inf):
    """Oracle for ``_CurveFrame.nearest``: the two-pass foot query it
    replaced, which scores the two candidate segments at the nearest sample
    one per pass, each writing the rows it improves into full arrays (d =
    inf, s = 0 and a zero foot on the other rows)."""
    pts = np.atleast_2d(pts)
    samples, n = frame.curve.samples, frame.curve.n
    dist, idx = frame.tree.query(pts, distance_upper_bound=bound + frame.ds)
    near = np.flatnonzero(np.isfinite(dist))
    q, i = pts[near], idx[near]
    best_d = np.full(pts.shape[0], np.inf)
    best_s = np.zeros(pts.shape[0])
    best_foot = np.zeros_like(pts)
    for off in (-1, 0):
        a = samples[(i + off) % n]
        b = samples[(i + off + 1) % n]
        ab = b - a
        denom = np.sum(ab * ab, axis=1)
        t = np.clip(np.sum((q - a) * ab, axis=1) / denom, 0.0, 1.0)
        foot = a + t[:, None] * ab
        d = np.linalg.norm(q - foot, axis=1)
        better = d < best_d[near]
        rows = near[better]
        best_d[rows] = d[better]
        best_foot[rows] = foot[better]
        best_s[rows] = ((i + off)[better] + t[better]) * frame.ds
    return best_s % frame.curve.length, best_d, best_foot


@pytest.fixture(scope="module")
def circle_frame(sphere):
    return _CurveFrame(sample_great_circle(sphere, [1, 0, 0], [0, 1, 0], n=512), sphere)


class TestCurveFrame:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        pts=arrays(float, (64, 3), elements=st.floats(-1.5, 1.5)),
        bound=st.floats(1e-3, 1.0),
    )
    def test_bounded_nearest_matches_unbounded_inside_bound(
        self, circle_frame, pts, bound
    ):
        rows, s, d, foot = circle_frame.nearest(pts)
        assert np.array_equal(rows, np.arange(len(pts)))
        rows_b, s_b, d_b, foot_b = circle_frame.nearest(pts, bound)
        inside = np.flatnonzero(d < bound)
        assert np.isin(inside, rows_b).all()
        kept = np.searchsorted(rows_b, inside)  # the rows come in ascending order
        assert np.array_equal(s_b[kept], s[inside])
        assert np.array_equal(d_b[kept], d[inside])
        assert np.array_equal(foot_b[kept], foot[inside])
        assert np.array_equal(d_b, d[rows_b])

    @pytest.mark.parametrize("curve_name", ["great-circle", "mk-level-circle"])
    def test_nearest_matches_two_pass_oracle(self, circle_frame, mk4, curve_name):
        frame = circle_frame
        if curve_name == "mk-level-circle":
            frame = _CurveFrame(sample_level_circle(mk4, 0.7, n=300), mk4)
        samples, n = frame.curve.samples, frame.curve.n
        rng = np.random.default_rng(5)
        # around random samples and around samples 0 and n - 1, on both sides
        # of the sample along the curve, and anywhere in a box
        j = np.concatenate([rng.integers(0, n, 400), np.repeat([0, n - 1], 100)])
        offsets = rng.standard_normal((j.size, 3)) * frame.ds * rng.uniform(0.05, 3.0, (j.size, 1))
        # on the rays from the curve's axis through the samples, where both
        # segments at a sample often lie at exactly the same distance
        rays = np.vstack([samples * [f, f, 1.0] for f in (0.5, 0.9, 1.01)])
        pts = np.vstack([samples[j] + offsets, rng.uniform(-1.5, 1.5, (200, 3)), rays])
        nearest_sample = frame.tree.query(pts)[1]
        assert {0, n - 1} <= set(nearest_sample.tolist())
        for bound in (np.inf, 0.5, 2.0 * frame.ds, 1e-3):
            want_s, want_d, want_foot = two_pass_nearest(frame, pts, bound)
            rows = np.flatnonzero(np.isfinite(want_d))
            for layout in (pts, np.asfortranarray(pts)):
                got = frame.nearest(layout, bound)
                want = (rows, want_s[rows], want_d[rows], want_foot[rows])
                assert all(same_bits(g, w) for g, w in zip(got, want)), bound
            if bound < 1.0:  # some points lie beyond the bound
                assert len(pts) - len(rows) >= 100


class TestCrossExtension:
    def test_identity_field(self):
        u1 = vec_poly([[0, 1], [0, 0]])  # u(t,0) = (t, 0)
        u2 = vec_poly([[0, 0], [0, 1]])  # u(0,t) = (0, t)
        U = cross_extension(u1, u2)
        x, y = np.meshgrid(np.linspace(-1, 1, 11), np.linspace(-1, 1, 11))
        vals = U(x.ravel(), y.ravel())
        assert np.allclose(vals, np.stack([x.ravel(), y.ravel()], axis=1))

    def test_constants(self):
        c = np.array([0.3, -0.7])
        u = lambda t: np.broadcast_to(c, np.shape(t) + (2,)) if np.ndim(t) else c
        U = cross_extension(u, u)
        assert np.allclose(U(0.5, -0.8), c)

    def test_polynomial_example(self):
        u1 = vec_poly([[0, 0, 1], [1, 0, 0]])  # (t^2, 1)

        def u2(t):
            t = np.asarray(t, dtype=float)
            return np.stack([np.sin(t), np.ones_like(t)], axis=-1)

        U = cross_extension(u1, u2)
        val = U(2.0, 3.0)
        assert np.allclose(val, [4.0 + np.sin(3.0), 1.0])

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        c1=arrays(float, (2, 4), elements=st.floats(-10.0, 10.0)),
        c2=arrays(float, (2, 4), elements=st.floats(-10.0, 10.0)),
        t=arrays(float, 16, elements=st.floats(-2.0, 2.0)),
    )
    def test_restricts_to_axis_data(self, c1, c2, t):
        c2[:, 0] = c1[:, 0]  # the two strands agree at the crossing
        u1, u2 = vec_poly(c1), vec_poly(c2)
        U = cross_extension(u1, u2)
        zero = np.zeros_like(t)
        # U(x, 0) = (u1(x) + u2(0)) - u1(0): equal to u1(x) up to rounding
        eps = np.finfo(float).eps
        for restricted, axis in ((U(t, zero), u1(t)), (U(zero, t), u2(t))):
            tol = 4 * eps * (np.abs(axis) + np.abs(c1[:, 0]))
            assert np.all(np.abs(restricted - axis) <= tol)

    def test_origin_mismatch(self):
        u1 = vec_poly([[0.0, 1], [0, 0]])
        u2 = vec_poly([[1e-6, 0], [0, 1]])
        with pytest.raises(OriginMismatch):
            cross_extension(u1, u2)

    def test_restriction_and_gradient_bound_random_polys(self):
        # criterion-5 style check: 20 random polynomial pairs
        rng = np.random.default_rng(42)
        grid = np.linspace(-1.0, 1.0, 100)
        X, Y = np.meshgrid(grid, grid)
        for _ in range(20):
            c1 = rng.normal(size=(2, 5))
            c2 = rng.normal(size=(2, 5))
            c2[:, 0] = c1[:, 0]  # shared value at the crossing
            u1, u2 = vec_poly(c1), vec_poly(c2)
            U = cross_extension(u1, u2)
            ts = rng.uniform(-1, 1, size=1000)
            assert np.max(np.abs(U(ts, 0.0) - u1(ts))) <= 1e-12
            assert np.max(np.abs(U(0.0, ts) - u2(ts))) <= 1e-12
            # pointwise gradient bound via finite differences of U
            h = 1e-6
            dUx = (U(X + h, Y) - U(X - h, Y)) / (2 * h)
            dUy = (U(X, Y + h) - U(X, Y - h)) / (2 * h)
            d1 = vec_poly(np.polynomial.polynomial.polyder(c1, axis=1))
            d2 = vec_poly(np.polynomial.polynomial.polyder(c2, axis=1))
            lhs = np.maximum(
                np.linalg.norm(dUx, axis=-1), np.linalg.norm(dUy, axis=-1)
            )
            rhs = np.maximum.reduce(
                [
                    np.linalg.norm(d1(X), axis=-1),
                    np.linalg.norm(d2(Y), axis=-1),
                    np.full(X.shape, np.linalg.norm(d1(0.0))),
                    np.full(X.shape, np.linalg.norm(d2(0.0))),
                ]
            )
            assert np.all(lhs <= rhs + 1e-5)


class TestExtendNormalField:
    def test_embedded_circle_no_tangential_part(self, sphere, great_circle):
        net = GeodesicNetwork.build(sphere, [great_circle], clustering_radius=0.01)
        X = extend_normal_field(net, [1.0], delta=0.5)
        assert X.support_measure == 0.0
        fr = X.frames[0]
        vals = X(great_circle.samples[::16])
        tangential = np.einsum("ni,ni->n", vals, fr.T[::16])
        normal = np.einsum("ni,ni->n", vals, fr.normals[::16])
        assert np.max(np.abs(tangential)) < 1e-12
        assert np.max(np.abs(normal - 1.0)) < 1e-8

    def test_two_circles_restriction(self, two_circles_network):
        net = two_circles_network
        X = extend_normal_field(net, [1.0, 1.0], delta=2.0)
        for k, c in enumerate(net.curves):
            vals = X(c.samples[::8])
            fr = X.frames[k]
            normal = np.einsum("ni,ni->n", vals, fr.normals[::8])
            assert np.max(np.abs(normal - 1.0)) <= 1e-8
        # crossing corrections solve the 2x2 transverse system
        for data in X.crossing_data:
            t0, t1 = data["t_corrections"]
            assert np.isfinite(t0) and np.isfinite(t1)

    def test_linearity(self, two_circles_network):
        net = two_circles_network
        Xa = extend_normal_field(net, [1.0, 0.0], delta=2.0)
        Xb = extend_normal_field(net, [0.0, 1.0], delta=2.0)
        Xsum = extend_normal_field(net, [1.0, 1.0], delta=2.0)
        surface = net.ambient_surface
        pts = surface.project(
            np.vstack([net.curves[0].samples[::500], net.curves[1].samples[::500] + 0.01])
        )
        assert np.max(np.abs(Xa(pts) + Xb(pts) - Xsum(pts))) <= 1e-10

    def test_support_scales_with_delta(self, two_circles_network):
        X2 = extend_normal_field(two_circles_network, [1.0, 1.0], delta=2.0)
        X1 = extend_normal_field(two_circles_network, [1.0, 1.0], delta=1.0)
        ratio = X1.support_measure / X2.support_measure
        assert abs(ratio - 0.5) < 0.05
        assert X2.support_measure <= 2.0

    def test_not_g_plus(self):
        chart = make_flat_chart(2.6, 2.6)
        curves = []
        for a in (0.0, np.pi / 2, np.pi / 4):
            t = np.linspace(-1, 1, 4000)
            curves.append(
                curve_from_samples(chart, np.outer(t, [np.cos(a), np.sin(a)]), closed=False)
            )
        net = GeodesicNetwork.build(chart, curves, clustering_radius=0.01)
        with pytest.raises(NotGPlus):
            extend_normal_field(net, [1.0, 1.0, 1.0], delta=1.0)

    @pytest.mark.parametrize("case", ["crossing segments in a chart", "loop in a chart", "arc on the sphere"])
    def test_needs_closed_curves_on_level_set(self, sphere, case):
        # each network passes is_g_plus: no vertex, or one transverse crossing
        t = np.linspace(-1, 1, 4000)
        if case == "crossing segments in a chart":
            chart = make_flat_chart(2.6, 2.6)
            net = GeodesicNetwork.build(chart, [
                curve_from_samples(chart, np.outer(t, d), closed=False) for d in ([1, 0], [0, 1])
            ], clustering_radius=0.01)
        elif case == "loop in a chart":
            chart = make_flat_chart(2.6, 2.6)
            loop = 0.5 * np.column_stack([np.cos(np.pi * t), np.sin(np.pi * t)])[:-1]
            net = GeodesicNetwork.build(chart, [curve_from_samples(chart, loop)])
        else:
            arc = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
            net = GeodesicNetwork.build(sphere, [curve_from_samples(sphere, arc, closed=False)])
        with pytest.raises(NotGPlus, match="closed curves on a level-set surface"):
            extend_normal_field(net, [1.0] * len(net.curves), delta=0.05)

    @pytest.mark.parametrize("profiles", [[1.0], [1.0, 1.0, 1.0]], ids=["too-few", "too-many"])
    def test_one_profile_per_curve(self, two_circles_network, profiles):
        net = two_circles_network
        with pytest.raises(ValueError, match="one normal profile per curve"):
            extend_normal_field(net, profiles, delta=2.0)
        X = extend_normal_field(net, [1.0, 1.0], delta=2.0)
        with pytest.raises(ValueError, match="one normal profile per curve"):
            verify_second_variation_match(net, profiles, X, flow_step=0.01)


def _three_circles(sphere):
    curves = [
        sample_great_circle(sphere, [1, 0, 0], [0, 1, 0]),
        sample_great_circle(sphere, [1, 0, 0], [0, 0, 1]),
        sample_great_circle(sphere, [0, 1, 0], [0, 0, 1]),
    ]
    return GeodesicNetwork.build(sphere, curves, clustering_radius=0.01)


class TestPointwiseEvaluation:
    @pytest.mark.parametrize("circles", [2, 3])
    def test_batch_equals_points_alone(self, sphere, two_circles_network, circles):
        net = two_circles_network if circles == 2 else _three_circles(sphere)
        profiles = [lambda s, k=k: 1.0 + 0.3 * np.cos((k + 1) * s) for k in range(circles)]
        X = extend_normal_field(net, profiles, delta=2.0)
        rng = np.random.default_rng(9)
        # tube points: off the samples by less than the tube radius
        samples = np.vstack([c.samples[::97] for c in net.curves])
        tube = samples + rng.uniform(-1.0, 1.0, (len(samples), 3)) * X.tube_radius / 2
        # crossing-ball points: within 7 eta / 8 of a vertex
        verts = np.repeat([v.position for v in net.vertices], 12, axis=0)
        ball = verts + rng.uniform(-1.0, 1.0, verts.shape) * 0.5 * X.eta
        # points away from every curve: the octant centres
        signs = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T
        away = signs / np.sqrt(3.0)
        pts = sphere.project(np.vstack([tube, ball, away]))
        batch = X(pts)
        alone = np.vstack([X(p) for p in pts])
        assert same_bits(batch, alone)
        assert same_bits(X(np.asfortranarray(pts)), batch)  # the flows pass columns
        # each kind of point is present: inside a tube, inside a ball, outside both
        in_tube = np.zeros(len(pts), dtype=bool)
        for fr in X.frames:
            in_tube[fr.tube(pts, X.tube_radius)[0]] = True
        position = np.array([v.position for v in net.vertices])
        in_ball = np.linalg.norm(pts[:, None] - position, axis=2).min(axis=1) < 7 * X.eta / 8
        assert in_tube[: len(tube)].all() and in_ball[len(tube) : -len(away)].all()
        assert not (in_tube | in_ball)[-len(away) :].any()
        assert np.all(batch[-len(away) :] == 0.0)


class TestVerify:
    def test_round_great_circle(self, sphere, great_circle):
        net = GeodesicNetwork.build(sphere, [great_circle], clustering_radius=0.01)
        X = extend_normal_field(net, [1.0], delta=0.5)
        rep = verify_second_variation_match(net, [1.0], X, flow_step=0.01)
        assert rep["Q_form"] == pytest.approx(-2 * np.pi, rel=1e-9)
        assert rep["rel_error"] <= 1e-3

    def test_mk_mu2_degenerate_stable(self, mk_mu2):
        eq = sample_level_circle(mk_mu2, 0.0)
        net = GeodesicNetwork.build(mk_mu2, [eq], clustering_radius=0.01)
        X = extend_normal_field(net, [1.0], delta=0.5)
        rep = verify_second_variation_match(net, [1.0], X, flow_step=0.01)
        assert rep["Q_form"] == pytest.approx(0.0, abs=1e-10)
        assert abs(rep["Q_flow"]) <= 1e-4 * eq.length

    def test_tangential_field_changes_nothing(self, sphere, great_circle):
        net = GeodesicNetwork.build(sphere, [great_circle], clustering_radius=0.01)
        X = extend_normal_field(net, [1.0], delta=0.5)
        base = verify_second_variation_match(net, [1.0], X, flow_step=0.01)
        tang = TangentialField(net, [lambda s: 0.3 * np.sin(2 * s)])
        pert = verify_second_variation_match(
            net, [1.0], SumField(X, tang), flow_step=0.01
        )
        assert abs(pert["Q_flow"] - base["Q_flow"]) <= 1e-4 * abs(base["Q_form"])

    def test_negative_definite_gram_transport(self, two_circles_network):
        net = two_circles_network
        Xa = extend_normal_field(net, [1.0, 0.0], delta=2.0)
        Xb = extend_normal_field(net, [0.0, 1.0], delta=2.0)
        G = flow_gram_matrix(net, [Xa, Xb], flow_step=0.005)
        eigs = np.linalg.eigvalsh(G)
        assert np.all(eigs < 0)
        assert eigs == pytest.approx([-2 * np.pi, -2 * np.pi], rel=1e-3)

    def test_flow_left_surface_guard(self, sphere, great_circle):
        net = GeodesicNetwork.build(sphere, [great_circle], clustering_radius=0.01)

        class RunawayField:
            def __call__(self, pts):
                return np.broadcast_to([0.0, 0.0, 50.0], pts.shape)

        with pytest.raises(FlowLeftSurface):
            flow_network_length(net, RunawayField(), 0.5)
