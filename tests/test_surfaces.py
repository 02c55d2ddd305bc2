import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from geolab.errors import ChartUnavailable, PointOffSurface, ConfigInvalid
from geolab.surfaces import (
    ConformalFactor,
    SurfaceModel,
    christoffel_batch,
    conformal_geodesic_curvature,
    coord_norm,
    coord_sum,
    gauss_curvature,
    make_cylinder,
    make_ellipsoid,
    make_flat_chart,
    make_mk,
    make_sphere,
    metric_at,
    sphere_exp_chart,
    surface_from_config,
)


def make_sphere_polar_chart() -> SurfaceModel:
    """Polar chart (phi, theta) of the unit sphere, metric
    dphi^2 + sin^2(phi) dtheta^2: a Brioschi and Christoffel oracle."""

    def metric(uv):
        g = np.zeros(uv.shape + (2,))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.sin(uv[..., 0]) ** 2
        return g

    return SurfaceModel(
        kind="chart",
        name="sphere_polar",
        chart_metric_fn=metric,
        chart_domain=(1e-3, np.pi - 1e-3, 0.0, 2 * np.pi),
        chart_periodic=(False, True),
    )


def monge_curvature_oracle(surface, point, h=1e-4):
    """Independent Gauss curvature estimate by fitting the local height
    function over the tangent plane: K = det(D^2 h) at the base point."""
    e1, e2, n = surface.tangent_frame(point)
    offsets = np.array(
        [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]],
        dtype=float,
    )
    heights = []
    for a, b in offsets:
        q = surface.project(point + h * (a * e1 + b * e2), iterations=6)
        heights.append((q - point) @ n)
    hp0, hm0, h0p, h0m, hpp, hpm, hmp, hmm = heights
    hxx = (hp0 + hm0) / h**2
    hyy = (h0p + h0m) / h**2
    hxy = (hpp - hpm - hmp + hmm) / (4 * h**2)
    return hxx * hyy - hxy**2


# every float, with the edge values drawn often: signed zeros, infinities,
# nan, subnormals and magnitudes whose squares overflow or underflow
_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e200, -1e200]
    ),
)


class TestCoordSums:
    """coord_sum / coord_norm reproduce numpy's last-axis reductions bit for bit."""

    @staticmethod
    def assert_same_bits(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)  # nan matches nan
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        x=st.integers(2, 3).flatmap(
            lambda width: arrays(
                float,
                array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=6).map(
                    lambda lead: lead + (width,)
                ),
                elements=_EDGE_FLOATS,
            )
        ),
        transpose=st.booleans(),
    )
    def test_matches_numpy_reductions(self, x, transpose):
        if transpose:  # the same values, stored with the last axis slowest
            x = np.asfortranarray(x)
        with np.errstate(all="ignore"):
            self.assert_same_bits(coord_sum(x), np.sum(x, axis=-1))
            self.assert_same_bits(coord_norm(x), np.linalg.norm(x, axis=-1))

    def test_signed_zeros(self):
        # numpy's reduction starts from +0.0, so all-negative-zero rows sum to +0.0
        for width in (2, 3):
            x = np.full((4, width), -0.0)
            x[0, 0] = 1.0
            self.assert_same_bits(coord_sum(x), np.sum(x, axis=-1))
            assert not np.signbit(coord_sum(x)).any()

    def test_long_batches(self):
        rng = np.random.default_rng(11)
        x3 = rng.standard_normal((4096, 3)) * 10.0 ** rng.integers(-8, 8, (4096, 3))
        x2 = rng.standard_normal((70000, 2))
        for y in (x3, x3.T.copy().T, x2, x3[::3, 1:]):  # C order, F order, long, strided
            self.assert_same_bits(coord_sum(y), np.sum(y, axis=-1))
            self.assert_same_bits(coord_norm(y), np.linalg.norm(y, axis=-1))


class TestMetricAt:
    def test_flat_chart_identity(self):
        chart = make_flat_chart()
        g = metric_at(chart, np.array([0.1, -0.2]))
        assert np.allclose(g.components, np.eye(2))

    def test_cylinder_identity_in_tangent_frame(self):
        cyl = make_cylinder()
        g = metric_at(cyl, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(g.components, np.eye(2))

    def test_mk_north_pole_spd(self, mk4):
        pole = np.array([0.0, 0.0, 2.0])
        g = metric_at(mk4, pole)
        assert g.is_spd()
        assert np.linalg.det(g.components) > 0
        # the frame really is orthonormal tangent
        e1, e2, n = mk4.tangent_frame(pole)
        grad = mk4.grad(pole)
        assert abs(e1 @ grad) < 1e-12 and abs(e2 @ grad) < 1e-12
        assert abs(e1 @ e2) < 1e-12
        assert abs(np.linalg.norm(e1) - 1) < 1e-12

    def test_off_surface_raises(self, mk4):
        with pytest.raises(PointOffSurface):
            metric_at(mk4, np.array([1.0, 1.0, 1.0]))


class TestGaussCurvature:
    def test_mk_equator_value(self):
        for k in (2.0, 4.0, 10.0):
            mk = make_mk(k, 1.0)
            K = gauss_curvature(mk, np.array([1.0, 0.0, 0.0]))
            assert abs(K - 1.0 / k) < 1e-12

    def test_unit_sphere(self, sphere):
        pts = sphere.project(np.random.default_rng(1).normal(size=(50, 3)))
        assert np.allclose(gauss_curvature(sphere, pts), 1.0, atol=1e-10)

    def test_mu2_equator_flat(self, mk_mu2):
        th = np.linspace(0, 2 * np.pi, 17)
        pts = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
        assert np.max(np.abs(gauss_curvature(mk_mu2, pts))) < 1e-12

    def test_levelset_against_monge_oracle(self, mk4):
        pts = [
            np.array([1.0, 0.0, 0.0]),
            mk4.project(np.array([0.5, 0.5, 1.2])),
            mk4.project(np.array([0.1, -0.7, 1.4])),
        ]
        for p in pts:
            K = gauss_curvature(mk4, p)
            K_fd = monge_curvature_oracle(mk4, p)
            assert abs(K - K_fd) < 5e-6 * max(1.0, abs(K))

    def test_ellipsoid_against_monge_oracle(self):
        ell = make_ellipsoid(0.9, 1.0, 1.1)
        p = ell.project(np.array([0.3, -0.5, 0.8]))
        assert abs(gauss_curvature(ell, p) - monge_curvature_oracle(ell, p)) < 5e-6

    @pytest.mark.parametrize(
        "surface, a",
        [
            (make_ellipsoid(0.94, 1.0, 1.06), (0.94, 1.0, 1.06)),
            (make_ellipsoid(0.5, 1.0, 2.0), (0.5, 1.0, 2.0)),
            (make_ellipsoid(3.0, 0.2, 1.0), (3.0, 0.2, 1.0)),
            (make_mk(4.0, 1.0), (1.0, 1.0, 1.0 / 4.0)),
            (make_mk(100.0, 1.0), (1.0, 1.0, 1.0 / 100.0)),
        ],
        ids=["ell-0.94", "ell-0.5", "ell-3", "mk4", "mk100"],
    )
    def test_quadric_closed_form(self, surface, a):
        # a1 x1^2 + a2 x2^2 + a3 x3^2 = 1 has K = a1 a2 a3 / (sum a_i^2 x_i^2)^2
        a = np.array(a)
        pts = np.random.default_rng(11).normal(size=(200, 3))
        pts /= np.sqrt(np.sum(a * pts**2, axis=1))[:, None]
        expected = np.prod(a) / np.sum(a**2 * pts**2, axis=1) ** 2
        K = gauss_curvature(surface, pts)
        assert np.max(np.abs(K - expected) / expected) < 1e-12

    def test_mk_positive_curvature_property(self):
        rng = np.random.default_rng(7)
        mk = make_mk(4.0, 1.0)
        pts = mk.project(rng.normal(size=(1000, 3)) * [1, 1, 2], iterations=8)
        assert np.all(gauss_curvature(mk, pts) > 0)

    def test_mu_gt1_nonnegative(self):
        rng = np.random.default_rng(8)
        mk = make_mk(9.0, 2.0)
        pts = mk.project(rng.normal(size=(1000, 3)) * [1, 1, 1.5], iterations=8)
        K = gauss_curvature(mk, pts)
        assert K.min() >= -1e-9


class TestChartCurvature:
    def test_unit_sphere_charts(self):
        rng = np.random.default_rng(4)
        exp_pts = rng.uniform(-0.8, 0.8, size=(200, 2))
        polar_pts = np.stack(
            [rng.uniform(0.3, np.pi - 0.3, 200), rng.uniform(0.0, 2 * np.pi, 200)],
            axis=1,
        )
        K_exp = gauss_curvature(sphere_exp_chart(1.2), exp_pts)
        K_polar = gauss_curvature(make_sphere_polar_chart(), polar_pts)
        assert np.max(np.abs(K_exp - 1.0)) < 1e-6
        assert np.max(np.abs(K_polar - 1.0)) < 1e-6

    def test_levelset_conformal_factor_raises(self, mk4):
        factor = ConformalFactor(
            value=lambda pts: np.full(pts.shape[0], 0.1),
            center=np.zeros(3),
            radius=1.0,
        )
        with pytest.raises(ChartUnavailable):
            mk4.with_conformal_factor(factor)


class TestChristoffel:
    def test_flat_chart_zero(self):
        chart = make_flat_chart()
        gam = christoffel_batch(chart, np.array([0.3, 0.4])[None])[0]
        assert np.max(np.abs(gam)) < 1e-9

    def test_sphere_polar_chart_symbol(self):
        # independent symbolic oracle for the polar-chart symbols
        import sympy as sp

        phi, th = sp.symbols("phi theta")
        E, F, G = sp.Integer(1), sp.Integer(0), sp.sin(phi) ** 2
        # Gamma^phi_{theta theta} = -(1/2) g^{phi phi} dG/dphi
        expected = sp.simplify(-(sp.Rational(1, 2)) * sp.diff(G, phi))
        val = float(expected.subs(phi, sp.pi / 4))
        chart = make_sphere_polar_chart()
        gam = christoffel_batch(chart, np.array([np.pi / 4, 0.7])[None])[0]
        assert abs(gam[0, 1, 1] - val) < 1e-8
        assert abs(val - (-0.5)) < 1e-15

    def test_constant_conformal_factor_keeps_flat(self):
        chart = make_flat_chart()
        factor = ConformalFactor(
            value=lambda pts: np.full(pts.shape[0], 0.37),
            center=np.zeros(2),
            radius=1e9,
        )
        rescaled = chart.with_conformal_factor(factor)
        gam = christoffel_batch(rescaled, np.array([0.2, -0.1])[None])[0]
        assert np.max(np.abs(gam)) < 1e-9

    def test_levelset_raises(self, mk4):
        with pytest.raises(ChartUnavailable):
            christoffel_batch(mk4, np.array([0.0, 0.0])[None])[0]


def _ball_factor():
    return ConformalFactor(
        value=lambda pts: np.sin(pts[:, 0]) * pts[:, 1] + 1.0,
        center=np.zeros(2),
        radius=1.0,
    )


def _splitting_factor(rng):
    """The vertex-splitting factor of a detour around three concurrent
    lines in the flat chart, with points inside its support tube."""
    from geolab.geodesics import curve_from_samples
    from geolab.networks import GeodesicNetwork
    from geolab.splitting import build_detour, conformal_factor_for

    chart = make_flat_chart(2.6, 2.6)
    t = np.linspace(-1.0, 1.0, 2000)
    curves = [
        curve_from_samples(chart, np.outer(t, [np.cos(a), np.sin(a)]), closed=False)
        for a in (0.0, np.pi / 2, np.pi / 4)
    ]
    net = GeodesicNetwork.build(chart, curves, clustering_radius=0.01)
    det = build_detour(chart, net, net.vertices[0], 0, 0.02, 0.5)
    others = np.vstack([curves[1].samples, curves[2].samples])
    field = conformal_factor_for(det, chart, other_strand_points=others)
    on_bridges = det.bridge_points()[rng.choice(800, size=12, replace=False)]
    offsets = rng.uniform(-0.5, 0.5, size=(12, 1)) * field.fermi_half_width
    return field, on_bridges + offsets * det.n_left


def _two_factor_chart():
    shifted = ConformalFactor(
        value=lambda pts: np.cos(pts[:, 1]) - pts[:, 0],
        center=np.array([0.3, 0.0]),
        radius=0.8,
    )
    chart = make_flat_chart().with_conformal_factor(_ball_factor())
    return chart.with_conformal_factor(shifted).factor_value


class TestConformalFactorShape:
    @pytest.mark.parametrize("case", ["ball_factor", "splitting_factor", "chart_two_factors"])
    def test_stacked_points_match_flat_call(self, case):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.0, 1.0, size=(4, 3, 2))
        if case == "ball_factor":
            f = _ball_factor()
        elif case == "splitting_factor":
            f, tube_pts = _splitting_factor(rng)
            pts = tube_pts.reshape(4, 3, 2)
        else:
            f = _two_factor_chart()
        vals = f(pts)
        assert vals.shape == (4, 3)
        assert np.any(vals != 0.0)
        assert np.array_equal(vals, f(pts.reshape(-1, 2)).reshape(4, 3))
        assert f(pts[1, 2]) == vals[1, 2]


class TestConformalCurvatureLaw:
    def test_trivial_cases(self):
        assert conformal_geodesic_curvature(2.5, 0.0, 0.0) == pytest.approx(2.5)
        assert conformal_geodesic_curvature(2.5, 0.0, 1.0) == pytest.approx(
            2.5 * np.exp(-1.0)
        )
        assert conformal_geodesic_curvature(1.7, -1.7, 42.0) == pytest.approx(0.0)

    def test_against_direct_recomputation(self):
        # a circle in a flat chart with a smooth bump factor: the law must
        # match the curvature recomputed through the rescaled chart metric
        from geolab.bumps import plateau
        from geolab.geodesics import curve_from_samples, geodesic_curvature_profile

        chart = make_flat_chart(4.0, 4.0)

        def fval(pts):
            r = np.linalg.norm(pts, axis=-1)
            return 0.2 * plateau(r - 0.5, 0.05, 0.4)

        factor = ConformalFactor(value=fval, center=np.zeros(2), radius=1.5)
        rescaled = chart.with_conformal_factor(factor)
        th = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
        pts = 0.5 * np.stack([np.cos(th), np.sin(th)], axis=1)
        base_curve = curve_from_samples(chart, pts)
        kappa_base = geodesic_curvature_profile(base_curve, chart)
        direct = geodesic_curvature_profile(
            curve_from_samples(rescaled, pts), rescaled
        )
        # normal derivative of f along the right-of-travel normal
        d1 = np.stack([-np.sin(th), np.cos(th)], axis=1)
        n_right = np.stack([d1[:, 1], -d1[:, 0]], axis=1)
        h = 1e-6
        dnf = (fval(pts + h * n_right) - fval(pts - h * n_right)) / (2 * h)
        law = np.array(
            [
                conformal_geodesic_curvature(k, d, f)
                for k, d, f in zip(kappa_base, dnf, fval(pts))
            ]
        )
        assert np.max(np.abs(law - direct)) < 1e-5


class TestConfig:
    def test_parse_builtins(self):
        assert surface_from_config({"type": "mk", "k": 4, "mu": 1}).name == "mk"
        assert (
            surface_from_config({"type": "ellipsoid", "a": [0.95, 1.0, 1.05]}).name
            == "ellipsoid"
        )
        assert surface_from_config({"type": "sphere"}).name == "sphere"

    def test_bad_config(self):
        with pytest.raises(ConfigInvalid):
            surface_from_config({"type": "mk"})
        with pytest.raises(ConfigInvalid):
            surface_from_config({"type": "nope"})
        with pytest.raises(ConfigInvalid):
            surface_from_config("mk")
        # non-finite parameters, named in the message
        for spec, message in (
            ({"type": "mk", "k": np.inf}, "k must be finite"),
            ({"type": "mk", "k": np.nan}, "k must be finite"),
            ({"type": "mk", "k": 4.0, "mu": np.inf}, "mu must be finite"),
            ({"type": "ellipsoid", "a": [0.96, np.inf, 1.04]}, "coefficients a must be finite"),
            ({"type": "ellipsoid", "a": [0.96, 1.0, -np.inf]}, "coefficients a must be finite"),
        ):
            with pytest.raises(ConfigInvalid, match=message):
                surface_from_config(spec)
