import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad, simpson, solve_ivp
from scipy.spatial import cKDTree
from scipy.special import ellipe

from geolab.errors import DegenerateJacobian, LeftChartDomain, NoConvergence
from geolab.geodesics import (
    SAMPLES_PER_STEP,
    _DOP_A,
    _DOP_D,
    _length_from_speeds,
    _primitive_loop,
    close_geodesic,
    curve_from_samples,
    curves_from_shots,
    curve_length,
    curve_speeds,
    dop853_integrate,
    flow_chart,
    flow_levelset,
    geodesic_curvature_profile,
    hausdorff_distance,
    low_discrepancy_seeds,
    mk_seed_directions,
    require_geodesic,
    sample_great_circle,
    sample_level_circle,
    shoot_closed_batch,
)
from geolab.surfaces import (
    make_cylinder,
    make_ellipsoid,
    make_flat_chart,
    make_mk,
    make_sphere,
    sphere_exp_chart,
)


# rows of the wide row-identity batches: past numpy's unrolled and SIMD
# inner-loop widths and not a multiple of 8, so a remainder loop runs too
WIDE_ROWS = 37


def _equator_path(surface):
    """The unit-speed geodesic from (1, 0, 0) along (0, 1, 0) over 2 pi."""
    p0, v0 = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    return flow_levelset(surface, p0, v0, np.array([2 * np.pi]), store_path=True)[2][0]


class TestIntegrate:
    def test_great_circle_returns(self, sphere):
        path = _equator_path(sphere)
        assert np.linalg.norm(path[-1] - path[0]) < 1e-8

    def test_mk_equator_is_gamma0(self, mk4):
        path = _equator_path(mk4)
        s = np.linspace(0, 2 * np.pi, path.shape[0])
        expected = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=1)
        assert np.max(np.linalg.norm(path - expected, axis=1)) < 1e-8

    def test_flat_chart_straight_line(self):
        chart = make_flat_chart(4.0, 4.0)
        x0, v0 = np.array([0.0, 0.0]), np.array([0.6, 0.8])
        path = flow_chart(chart, x0, v0, np.array([1.5]), 256, store_path=True)[2][0]
        assert np.allclose(path[-1], [0.9, 1.2], atol=1e-10)

    def test_left_chart_domain(self):
        chart = make_flat_chart(1.0, 1.0)
        with pytest.raises(LeftChartDomain):
            flow_chart(chart, np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([3.0]))

    def test_speed_stays_constant(self, mk4):
        path = _equator_path(mk4)
        cur = curve_from_samples(mk4, path[:-1])
        speeds = curve_speeds(path[:-1], mk4)[0]
        assert np.max(np.abs(speeds - cur.length / (2 * np.pi))) < 1e-8 * cur.length

    def test_reversibility(self, mk4):
        p0 = np.array([[1.0, 0.0, 0.0]])
        v0 = np.array([[0.0, np.sqrt(0.5), np.sqrt(0.5) * 2]])
        v0 /= np.linalg.norm(v0)
        n = mk4.unit_normal(p0)
        v0 -= np.sum(v0 * n, axis=-1, keepdims=True) * n
        v0 /= np.linalg.norm(v0)
        P1, V1 = flow_levelset(mk4, p0, v0, np.array([5.0]), 4096)
        P2, _ = flow_levelset(mk4, P1, -V1, np.array([5.0]), 4096)
        assert np.linalg.norm(P2 - p0) < 1e-8

    def test_great_circle_closes_on_the_circle(self, sphere):
        p0 = np.array([[1.0, 2.0, 2.0]]) / 3.0
        v0 = np.array([[2.0, 1.0, -2.0]]) / 3.0
        P1, V1, path = flow_levelset(
            sphere, p0, v0, np.array([2 * np.pi]), store_path=True
        )
        assert np.linalg.norm(P1 - p0) < 1e-13
        assert np.linalg.norm(V1 - v0) < 1e-13
        # off the circle: distance to its plane and to the unit sphere
        normal = np.cross(p0[0], v0[0])
        assert np.max(np.abs(path[0] @ normal)) < 1e-13
        assert np.max(np.abs(np.linalg.norm(path[0], axis=1) - 1.0)) < 1e-13

    @pytest.mark.parametrize("n_steps", [1008, 4096])
    def test_batch_rows_equal_single_rows(self, mk4, n_steps):
        rng = np.random.default_rng(3)
        p0 = mk4.project(rng.normal(size=(3, 3)))
        n = mk4.unit_normal(p0)
        v0 = rng.normal(size=(3, 3))
        v0 -= np.sum(v0 * n, axis=1, keepdims=True) * n
        v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
        T = np.array([3.0, 9.7, 12.5])
        batch = flow_levelset(mk4, p0, v0, T, n_steps, store_path=True)
        assert batch[2].shape == (3, n_steps + 1, 3)
        for i in range(3):
            alone = flow_levelset(mk4, p0[i], v0[i], T[i : i + 1], n_steps, True)
            for b, a in zip(batch, alone):
                assert np.array_equal(b[i], a[0])

    def test_mirror_symmetry(self, mk4):
        p0 = np.array([[1.0, 0.0, 0.0]])
        v0 = np.array([[0.0, 0.8, 0.6]])
        v0 /= np.linalg.norm(v0)
        _, _, up = flow_levelset(mk4, p0, v0, np.array([3.0]), 1024, store_path=True)
        v0m = v0 * np.array([1.0, 1.0, -1.0])
        _, _, down = flow_levelset(mk4, p0, v0m, np.array([3.0]), 1024, store_path=True)
        mirrored = up[0] * np.array([1.0, 1.0, -1.0])
        assert np.max(np.linalg.norm(mirrored - down[0], axis=1)) < 1e-10

    @pytest.mark.parametrize("name", ["mk-mu2", "ellipsoid"])
    def test_against_solve_ivp(self, name):
        surface, derivatives = _ORACLES[name]
        p0, v0 = _tangent_seeds(surface, 2, seed=5)
        T = np.array([7.0, 4.5])
        P1, V1, path = flow_levelset(surface, p0, v0, T, 4096, store_path=True)
        for i in range(2):
            ref = _solve_ivp_geodesic(derivatives, p0[i], v0[i], T[i], 4097)
            assert np.max(np.abs(path[i] - ref[:, :3])) < 1e-9
            assert np.max(np.abs(np.hstack([P1[i], V1[i]]) - ref[-1])) < 1e-9

    @pytest.mark.parametrize("name", ["mk-mu2", "ellipsoid"])
    def test_batch_rows_equal_single_rows_separable(self, name):
        # a non-constant Hessian (mu = 2) and three unequal coefficients
        surface = _ORACLES[name][0]
        p0, v0 = _tangent_seeds(surface, 3, seed=3)
        T = np.array([3.0, 9.7, 12.5])
        batch = flow_levelset(surface, p0, v0, T, 1008, store_path=True)
        for i in range(3):
            alone = flow_levelset(surface, p0[i], v0[i], T[i : i + 1], 1008, True)
            for b, a in zip(batch, alone):
                assert np.array_equal(b[i], a[0])

    @pytest.mark.parametrize("name", ["mk4", "mk-mu2", "ellipsoid"])
    def test_wide_batch_rows_equal_single_rows(self, mk4, name):
        surface = mk4 if name == "mk4" else _ORACLES[name][0]
        p0, v0 = _tangent_seeds(surface, WIDE_ROWS, seed=11)
        T = np.linspace(3.0, 12.5, WIDE_ROWS)
        batch = flow_levelset(surface, p0, v0, T, 1008, store_path=True)
        assert batch[2].shape == (WIDE_ROWS, 1009, 3)
        for i in range(WIDE_ROWS):
            alone = flow_levelset(surface, p0[i], v0[i], T[i : i + 1], 1008, True)
            for b, a in zip(batch, alone):
                assert np.array_equal(b[i], a[0])

    @pytest.mark.parametrize("n_steps", [8, 1000])
    @pytest.mark.parametrize("flow", ["levelset", "chart"])
    def test_flows_sample_whole_steps(self, sphere, flow, n_steps):
        # a flow takes one DOP853 step per SAMPLES_PER_STEP samples, so any
        # other sample count is refused, with or without a stored path
        if flow == "levelset":
            args = (sphere, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([1.0]))
            run = flow_levelset
        else:
            args = (sphere_exp_chart(1.2), np.zeros(2), np.array([1.0, 0.0]), np.array([0.5]))
            run = flow_chart
        for store_path in (False, True):
            with pytest.raises(ValueError, match="multiple of 16"):
                run(*args, n_steps, store_path)


def _tangent_seeds(surface, n, seed):
    rng = np.random.default_rng(seed)
    p0 = surface.project(rng.normal(size=(n, 3)), iterations=8)
    normal = surface.unit_normal(p0)
    v0 = rng.normal(size=(n, 3))
    v0 -= np.sum(v0 * normal, axis=1, keepdims=True) * normal
    return p0, v0 / np.linalg.norm(v0, axis=1, keepdims=True)


def _mk_mu2_derivatives(p):
    # F = x^2 + y^2 + z^4 / 9 - 1
    return np.array([2 * p[0], 2 * p[1], 4 * p[2] ** 3 / 9]), np.diag([2, 2, 12 * p[2] ** 2 / 9])


def _ellipsoid_derivatives(p):
    # F = 0.94 x^2 + y^2 + 1.06 z^2 - 1
    a = np.array([0.94, 1.0, 1.06])
    return 2 * a * p, np.diag(2 * a)


_ORACLES = {
    "mk-mu2": (make_mk(9.0, 2.0), _mk_mu2_derivatives),
    "ellipsoid": (make_ellipsoid(0.94, 1.0, 1.06), _ellipsoid_derivatives),
}


def _solve_ivp_geodesic(derivatives, p0, v0, T, n):
    """gamma'' = lambda grad F, lambda = -(v^T Hess F v) / |grad F|^2, by
    scipy's adaptive DOP853 at rtol 1e-12, sampled at n uniform times."""

    def f(t, y):
        g, H = derivatives(y[:3])
        return np.concatenate([y[3:], -(y[3:] @ H @ y[3:]) / (g @ g) * g])

    y0 = np.concatenate([p0, v0])
    t = np.linspace(0.0, T, n)
    sol = solve_ivp(f, (0.0, T), y0, "DOP853", t_eval=t, rtol=1e-12, atol=1e-12)
    return sol.y.T


def _harmonic(y):
    """y'' = -y as a first-order system in (y, y'), one column per row."""
    return np.stack([y[1], -y[0]])


def _cos_sin(t):
    return np.stack([np.cos(t), -np.sin(t)], axis=-1)


class TestDop853:
    n_samples = 1008
    n_steps = 1008 // SAMPLES_PER_STEP

    def test_harmonic_oscillator_to_roundoff(self):
        ends = []

        def record(i, y):
            ends.append(y[:, 0].copy())
            return y

        y1, path = dop853_integrate(
            _harmonic, np.array([[1.0], [0.0]]), 2 * np.pi, self.n_steps, record,
            self.n_samples, 2,
        )
        t_end = 2 * np.pi * np.arange(1, self.n_steps + 1) / self.n_steps
        assert np.max(np.abs(np.array(ends) - _cos_sin(t_end))) < 1e-12
        assert np.array_equal(y1[:, 0], ends[-1])
        # 1008 samples on 63 steps: all but every 16th are from the
        # continuous extension
        t = np.linspace(0.0, 2 * np.pi, self.n_samples + 1)
        assert np.max(np.abs(path[0] - _cos_sin(t))) < 1e-12

    def test_batch_rows_equal_single_rows(self):
        phase = np.array([0.0, 0.7, 2.9])
        y0 = _cos_sin(phase).T
        T = np.array([2 * np.pi, 3.0, 5.5])

        def keep(i, y):
            return y

        y1, path = dop853_integrate(_harmonic, y0, T, self.n_steps, keep, self.n_samples, 2)
        assert path.shape == (3, self.n_samples + 1, 2)
        for i in range(3):
            yi, pi = dop853_integrate(
                _harmonic, y0[:, i : i + 1], T[i], self.n_steps, keep, self.n_samples, 2
            )
            assert np.array_equal(yi[:, 0], y1[:, i])
            assert np.array_equal(pi[0], path[i])
        assert dop853_integrate(_harmonic, y0, T, self.n_steps, keep)[1] is None

    def test_wide_batch_rows_equal_single_rows(self):
        y0 = _cos_sin(np.linspace(0.0, 6.0, WIDE_ROWS)).T
        T = np.linspace(1.0, 2 * np.pi, WIDE_ROWS)

        def keep(i, y):
            return y

        y1, path = dop853_integrate(_harmonic, y0, T, self.n_steps, keep, self.n_samples, 2)
        for i in range(WIDE_ROWS):
            yi, pi = dop853_integrate(
                _harmonic, y0[:, i : i + 1], T[i], self.n_steps, keep, self.n_samples, 2
            )
            assert np.array_equal(yi[:, 0], y1[:, i])
            assert np.array_equal(pi[0], path[i])

    def test_samples_must_fill_whole_steps(self):
        with pytest.raises(ValueError, match="multiple of n_steps"):
            dop853_integrate(
                _harmonic, np.array([[1.0], [0.0]]), 1.0, self.n_steps, lambda i, y: y,
                self.n_samples - 8, 2,
            )

    def test_tableau_matches_scipy(self):
        coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert np.array_equal(_DOP_A, coefficients.A)
        assert np.array_equal(_DOP_D, coefficients.D)


class TestCloseGeodesic:
    def test_equator(self, mk4):
        cur = close_geodesic(
            mk4, (np.array([1.0, 0.05, 0.02]), np.array([-0.05, 1.0, 0.01]), 6.2)
        )
        assert cur.closure_residual <= 1e-10
        assert abs(cur.length - 2 * np.pi) < 1e-8

    def test_meridian_against_quadrature(self, mk4):
        cur = close_geodesic(
            mk4, (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), 9.7)
        )
        oracle, _ = quad(
            lambda t: np.sqrt(np.sin(t) ** 2 + 4 * np.cos(t) ** 2),
            0,
            2 * np.pi,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert abs(cur.length - oracle) < 1e-8
        assert cur.extra.get("degenerate_jacobian") is True  # meridian family

    def test_meridian_length_to_roundoff(self, mk4):
        # the k = 4 meridian is the ellipse x^2 + z^2 / 4 = 1
        cur = close_geodesic(
            mk4, (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), 9.7)
        )
        assert abs(cur.length - 8.0 * ellipe(0.75)) < 1e-12

    def test_every_accepted_shot_is_a_geodesic(self, mk4):
        # a seam mismatch r shows as curvature ~ r (n / L)^2 at the seam, so
        # shots must be polished below the 1e-10 acceptance residual
        pts, dirs = mk_seed_directions(mk4, 40, 7)
        out = shoot_closed_batch(mk4, pts, dirs, np.full(40, 0.999 * 4 * np.pi))
        curves = curves_from_shots(mk4, out["shots"])
        assert len(curves) == np.count_nonzero(out["ok"]) > 0
        for cur in curves:
            require_geodesic(cur)

    def test_round_sphere_any_seed(self, sphere):
        cur = close_geodesic(
            sphere, (np.array([0.3, -0.8, 0.52]), np.array([0.7, 0.2, -0.1]), 6.0)
        )
        assert abs(cur.length - 2 * np.pi) < 1e-8

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_cover_detection(self, m):
        # k = 5: no cover of the equator is degenerate (2m/sqrt(k) is never
        # an integer), so the shot lands cleanly on the m-fold cover; m = 3,
        # 5, 6 and 7 do not divide the 4096 samples
        mk5 = make_mk(5.0, 1.0)
        cur = close_geodesic(
            mk5, (np.array([1.0, 0.03, 0.01]), np.array([-0.03, 1.0, 0.005]), 2 * np.pi * m)
        )
        assert cur.cover_multiplicity == m
        assert abs(cur.length - 2 * np.pi) < 1e-8  # primitive representative
        assert require_geodesic(cur) < 1e-10
        assert np.max(np.abs(mk5.level(cur.samples))) < 1e-13

    def test_no_convergence(self, mk4):
        with pytest.raises(NoConvergence):
            close_geodesic(
                mk4,
                (np.array([0.4, 0.5, 1.5]), np.array([0.1, -0.5, 0.6]), 7.0),
                max_iter=1,
            )

    def test_degenerate_jacobian(self, mk4):
        # a meridian seed of the k = 4 rotation family: the differential is singular
        with pytest.raises(DegenerateJacobian, match="singular shooting differential"):
            close_geodesic(mk4, (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), 9.0), max_iter=1)


def _fourier_loop(coeffs, theta):
    """Real loop sum_j Re(coeffs[j] e^{i j theta}), coeffs of shape (B, 3)."""
    waves = np.exp(1j * np.outer(theta, np.arange(coeffs.shape[0])))
    return (waves @ coeffs).real


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 7),
    n=st.integers(90, 700),
    live=st.sets(st.integers(1, 6), min_size=1),
    seed=st.integers(0, 2**32 - 1),
)
def test_primitive_loop_recovers_band_limited_covers(m, n, live, seed):
    # an m-fold cover of a loop whose modes ``live`` (gcd 1, so the loop is
    # primitive, though mode 1 may be absent) lie below n / (2m), sampled at
    # n points that m does not divide: the shift by n / m falls between samples
    assume(math.gcd(*live) == 1 and (m == 1 or n % m))
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((7, 3), dtype=complex)
    for j in [0, *live]:
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        coeffs[j] = c / np.linalg.norm(c)
    theta = 2 * np.pi * np.arange(n) / n
    mult, primitive = _primitive_loop(_fourier_loop(coeffs, m * theta))
    assert mult == m
    assert np.max(np.abs(primitive - _fourier_loop(coeffs, theta))) <= 1e-12


@pytest.mark.parametrize("m, n", [(2, 64), (3, 48), (5, 90)])
def test_primitive_loop_keeps_a_cosine_on_the_nyquist_mode(m, n):
    # m divides n / 2: the cover's Nyquist mode n / 2 is the primitive's
    # mode n / (2m), below the primitive's Nyquist slot
    theta = 2 * np.pi * np.arange(n) / n
    J = n // (2 * m)
    coeffs = np.zeros((J + 1, 3), dtype=complex)
    coeffs[1, :2] = [1.0, -1j]
    coeffs[J, 2] = 0.3
    mult, primitive = _primitive_loop(_fourier_loop(coeffs, m * theta))
    assert mult == m
    assert np.max(np.abs(primitive - _fourier_loop(coeffs, theta))) <= 1e-14


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 4097),
    h=st.floats(1e-4, 10.0),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, h=0.5, scale=1.0, seed=0)
@example(n=4, h=0.5, scale=1.0, seed=0)
@example(n=4096, h=2 * np.pi / 4095, scale=1.0, seed=1)
@example(n=4097, h=2 * np.pi / 4096, scale=1.0, seed=1)
def test_open_curve_simpson_matches_scipy(n, h, scale, seed):
    # bit for bit, so that no reported open-curve length moves off scipy's rule
    y = scale * np.random.default_rng(seed).uniform(0.01, 1.0, n)
    assert _length_from_speeds(y, h, closed=False) == float(simpson(y, dx=h))


class TestLengthAndCurvature:
    def test_equator_length(self, equator_mk4):
        assert abs(equator_mk4.length - 2 * np.pi) < 1e-10

    def test_great_circle_length(self, great_circle):
        assert abs(great_circle.length - 2 * np.pi) < 1e-10

    def test_level_circle_length(self, mk4):
        for c in (0.5, 1.0, -1.3):
            cur = sample_level_circle(mk4, c)
            assert abs(cur.length - 2 * np.pi * np.sqrt(1 - c * c / 4)) < 1e-10

    def test_geodesic_curvature_small_on_geodesics(self, mk4):
        cur = close_geodesic(
            mk4, (np.array([1.0, 0.05, 0.02]), np.array([-0.05, 1.0, 0.01]), 6.2)
        )
        assert require_geodesic(cur) <= 1e-6

    def test_level_circles_lie_on_surfaces_of_revolution(self):
        for surface, c in ((make_cylinder(), 0.5), (make_ellipsoid(0.9, 0.9, 1.1), 0.0)):
            cur = sample_level_circle(surface, c, 256)
            assert np.max(np.abs(surface.level(cur.samples))) < 1e-14

    def test_level_circle_curvature_points_to_equator(self, mk4):
        # curvature vector of the latitude circles points toward x3 = 0
        n = 2048
        th = np.linspace(0, 2 * np.pi, n, endpoint=False)
        for c in (0.8, -0.8):
            cur = sample_level_circle(mk4, c, n)
            kap = geodesic_curvature_profile(cur, mk4)
            assert np.all(np.abs(kap) > 1e-3) and (np.all(kap > 0) or np.all(kap < 0))
            # reconstruct the curvature vector's x3-component sign
            d1 = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=1)
            N = mk4.unit_normal(cur.samples)
            n_right = np.cross(d1, N)
            vec_x3 = kap * n_right[:, 2]
            if c > 0:
                assert np.all(vec_x3 < 0)
            else:
                assert np.all(vec_x3 > 0)

    def test_flat_circle_curvature(self):
        chart = make_flat_chart(4.0, 4.0)
        n = 2048
        th = np.linspace(0, 2 * np.pi, n, endpoint=False)
        r = 0.7
        cur = curve_from_samples(chart, r * np.stack([np.cos(th), np.sin(th)], axis=1))
        kap = geodesic_curvature_profile(cur, chart)
        assert np.max(np.abs(kap - 1.0 / r)) < 1e-4


class TestHelpers:
    def test_low_discrepancy_deterministic(self):
        a = low_discrepancy_seeds(100, 3, seed=5)
        b = low_discrepancy_seeds(100, 3, seed=5)
        c = low_discrepancy_seeds(100, 3, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.min() >= 0 and a.max() < 1

    def test_hausdorff(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 0.1], [1.0, 0.0], [2.0, 0.0]])
        assert hausdorff_distance(a, b) == pytest.approx(1.0)
        # trees built by the caller give the same distance, past the bound too
        for x, y in ((a, b), (b, a)):
            for bound in (np.inf, 1.0, 0.5, 0.05):
                d = hausdorff_distance(x, y, bound, cKDTree(x), cKDTree(y))
                assert d == hausdorff_distance(x, y, bound)

    def test_chart_flow_straight(self):
        chart = make_flat_chart(4.0, 4.0)
        x1, v1 = flow_chart(chart, np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)
        assert np.allclose(x1, [1.0, 0.0], atol=1e-12)

    def test_chart_flow_batch_equals_single_rows(self):
        chart = sphere_exp_chart(1.2)
        x0 = np.array([[0.1, -0.2], [0.0, 0.3], [-0.4, 0.05]])
        ang = np.array([0.3, 2.0, -1.1])
        v0 = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        T = np.array([0.5, 0.7, 0.9])
        x1, v1, path = flow_chart(chart, x0, v0, T, 256, store_path=True)
        assert path.shape == (3, 257, 2)
        for i in range(3):
            xi, vi, pi = flow_chart(chart, x0[i], v0[i], T[i], 256, store_path=True)
            # bit for bit: every row sees the same arithmetic as alone
            assert np.array_equal(xi[0], x1[i])
            assert np.array_equal(vi[0], v1[i])
            assert np.array_equal(pi[0], path[i])

    def test_chart_flow_wide_batch_equals_single_rows(self):
        chart = sphere_exp_chart(1.2)
        rng = np.random.default_rng(5)
        x0 = rng.uniform(-0.4, 0.4, size=(WIDE_ROWS, 2))
        ang = rng.uniform(-np.pi, np.pi, WIDE_ROWS)
        v0 = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        T = rng.uniform(0.2, 0.5, WIDE_ROWS)
        x1, v1, path = flow_chart(chart, x0, v0, T, 256, store_path=True)
        for i in range(WIDE_ROWS):
            xi, vi, pi = flow_chart(chart, x0[i], v0[i], T[i], 256, store_path=True)
            assert np.array_equal(xi[0], x1[i])
            assert np.array_equal(vi[0], v1[i])
            assert np.array_equal(pi[0], path[i])

    @pytest.mark.parametrize("n_steps, bound", [(256, 1e-9), (512, 1e-11)], ids=["256", "512"])
    def test_chart_flow_follows_great_circles(self, n_steps, bound):
        # sphere_exp_chart is the exponential chart at the north pole, so
        # its geodesics are great circles read back through the log map
        def exp_map(x):
            r = np.linalg.norm(x, axis=-1, keepdims=True)
            return np.concatenate([np.sin(r) * x / r, np.cos(r)], axis=-1)

        def log_map(p):
            r = np.arccos(np.clip(p[..., 2:], -1.0, 1.0))
            return r * p[..., :2] / np.linalg.norm(p[..., :2], axis=-1, keepdims=True)

        chart = sphere_exp_chart(1.2)
        x0 = np.array([[0.1, -0.2], [0.0, 0.3], [-0.4, 0.05], [0.8, -0.6]])
        ang = np.array([0.3, 2.0, -1.1, 2.2])
        v0 = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        T = np.array([0.5, 0.7, 0.9, 1.5])
        _, _, path = flow_chart(chart, x0, v0, T, n_steps, store_path=True)
        # the launch point and velocity on the sphere, through d exp
        r = np.linalg.norm(x0, axis=1, keepdims=True)
        u = x0 / r
        dr = np.sum(u * v0, axis=1, keepdims=True)
        du = (v0 - dr * u) / r
        p0 = exp_map(x0)
        w = np.concatenate([np.cos(r) * dr * u + np.sin(r) * du, -np.sin(r) * dr], axis=1)
        speed = np.linalg.norm(w, axis=1)
        t = (np.linspace(0.0, 1.0, n_steps + 1)[None, :] * (T * speed)[:, None])[..., None]
        circles = np.cos(t) * p0[:, None] + np.sin(t) * (w / speed[:, None])[:, None]
        assert np.max(np.abs(path - log_map(circles))) < bound

    def test_chart_flow_path_leaves_between_step_ends(self):
        # the geodesic bends back towards the origin: x1 peaks at 1.20025
        # inside the first of two steps, while both step ends lie inside
        chart = sphere_exp_chart(1.2)
        v0 = np.array([np.sin(0.03), np.cos(0.03)])
        with pytest.raises(LeftChartDomain):
            flow_chart(chart, np.array([1.1995, 0.0]), v0, 0.2, 32, store_path=True)

    def test_chart_flow_batch_one_row_leaves(self):
        chart = sphere_exp_chart(1.2)
        x0 = np.array([[0.0, 0.0], [0.0, 0.0], [0.9, 0.0]])
        v0 = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]])
        T = np.array([0.5, 0.5, 0.5])
        flow_chart(chart, x0[:2], v0[:2], T[:2])
        with pytest.raises(LeftChartDomain):
            flow_chart(chart, x0, v0, T)

    def test_great_circle_sampler_on_surface(self, sphere, great_circle):
        assert np.max(np.abs(sphere.level(great_circle.samples))) < 1e-14
