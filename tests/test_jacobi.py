import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import eigvals_banded

from geolab.errors import GridTooCoarse, NotAGeodesic
from geolab.geodesics import (
    curve_from_samples,
    curves_from_shots,
    sample_great_circle,
    sample_level_circle,
    shoot_closed_batch,
)
import geolab.jacobi as jacobi
from geolab.jacobi import (
    REPORTED_EIGS,
    _bloch_band,
    cover_spectra,
    curvature_along,
    degeneracy_criterion_mk,
    jacobi_spectrum,
    network_index,
    second_variation,
    width_consistency_assertions,
)
from geolab.networks import GeodesicNetwork
from geolab.surfaces import make_cylinder, make_ellipsoid, make_flat_chart, make_mk
from geolab.widths import plane_ellipse_circumference


def analytic_constant_K_spectrum(K, L, m, count):
    """Eigenvalues of -phi'' - K phi, periodic on [0, m L]: (2 pi n/(mL))^2 - K
    with multiplicity 2 for n >= 1."""
    eigs = [-K]
    n = 1
    while len(eigs) < count:
        lam = (2 * np.pi * n / (m * L)) ** 2 - K
        eigs.extend([lam, lam])
        n += 1
    return np.array(sorted(eigs)[:count])


def dense_cover_spectrum(curve, m, grid_size):
    """Reference: the dense cyclic five-point matrix on the whole m-fold
    cover, eigenvalues with index and nullity at jacobi_spectrum's
    zero tolerance."""
    n = grid_size
    h = curve.length * m / n
    s = np.arange(n) * h
    s_curve = np.arange(curve.n) * (curve.length / curve.n)
    K = np.interp(s % curve.length, s_curve, curvature_along(curve), period=curve.length)
    A = np.zeros((n, n))
    i = np.arange(n)
    A[i, i] = 2.5
    for off, c in ((1, -4.0 / 3.0), (2, 1.0 / 12.0)):
        A[i, (i + off) % n] += c
        A[i, (i - off) % n] += c
    eig = np.linalg.eigvalsh(A / h**2 - np.diag(K))
    zero_tol = max(1e-8, 10.0 * h**2 * np.max(np.abs(K)))
    return eig, int(np.sum(eig < -zero_tol)), int(np.sum(np.abs(eig) <= zero_tol))


def whole_block_spectrum(curve, m, n):
    """Reference: the union of the m Bloch blocks of the m-fold cover on n
    points per period, each solved whole, with conjugate phases twice."""
    h = curve.length / n
    s_curve = np.arange(curve.n) * (curve.length / curve.n)
    K = np.interp(np.arange(n) * h, s_curve, curvature_along(curve), period=curve.length)
    blocks = []
    for j in range(m // 2 + 1):
        eig_j = eigvals_banded(_bloch_band(K, h, j, m), lower=True)
        blocks += [eig_j] if 2 * j % m == 0 else [eig_j, eig_j]
    return np.sort(np.concatenate(blocks))


def monodromy(curve):
    """2x2 monodromy of phi'' + K phi = 0 over one period, from solve_ivp
    with K a periodic cubic spline through curvature_along."""
    s = np.arange(curve.n + 1) * (curve.length / curve.n)
    K_samples = curvature_along(curve)
    K = CubicSpline(s, np.append(K_samples, K_samples[0]), bc_type="periodic")

    def rhs(t, y):  # two solutions (phi, phi') side by side
        return np.array([y[1], -K(t) * y[0], y[3], -K(t) * y[2]])

    sol = solve_ivp(
        rhs, (0.0, curve.length), [1.0, 0.0, 0.0, 1.0],
        method="DOP853", rtol=1e-12, atol=1e-14,
    )
    return sol.y[:, -1].reshape(2, 2).T


def unit_eigenvalues(M, m):
    """Number of eigenvalues of M^m equal to 1 within 1e-6."""
    return int(np.sum(np.abs(np.linalg.eigvals(np.linalg.matrix_power(M, m)) - 1.0) <= 1e-6))


@pytest.fixture(scope="module")
def ellipses_094():
    """The three coordinate-plane geodesics of the (0.94, 1, 1.06) ellipsoid,
    ordered x1 = 0, x2 = 0, x3 = 0."""
    a = np.array([0.94, 1.0, 1.06])
    surface = make_ellipsoid(*a)
    semi = 1.0 / np.sqrt(a)
    j, k = np.array([1, 0, 0]), np.array([2, 2, 1])
    periods = [plane_ellipse_circumference(semi[p], semi[q]) for p, q in zip(j, k)]
    out = shoot_closed_batch(
        surface, np.eye(3)[j] * semi[j, None], np.eye(3)[k], np.array(periods)
    )
    assert out["ok"].all()
    return curves_from_shots(surface, out["shots"])


class TestSecondVariation:
    def test_constant_field_on_equator(self, equator_mk4):
        c = 0.7
        phi = np.full(equator_mk4.n, c)
        val = second_variation(equator_mk4, phi, phi)
        assert abs(val - (-2 * np.pi * c * c / 4.0)) < 1e-9

    def test_sine_field_on_equator(self, equator_mk4):
        s = np.arange(equator_mk4.n) * (2 * np.pi / equator_mk4.n)
        for n in (1, 2, 3):
            phi = np.sin(n * s)
            val = second_variation(equator_mk4, phi, phi)
            assert abs(val - np.pi * (n * n - 0.25)) < 1e-8

    def test_flat_cylinder_circle(self):
        cyl = make_cylinder()
        th = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
        circle = curve_from_samples(
            cyl, np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
        )
        phi = np.ones(2048)
        assert abs(second_variation(circle, phi, phi)) < 1e-12

    def test_rejects_non_geodesic(self, mk4):
        latitude = sample_level_circle(mk4, 1.0)
        with pytest.raises(NotAGeodesic):
            second_variation(latitude, np.ones(latitude.n), np.ones(latitude.n))

    def test_polarization_symmetry(self, equator_mk4):
        s = np.arange(equator_mk4.n) * (2 * np.pi / equator_mk4.n)
        a, b = np.sin(s), np.cos(2 * s) + 0.3
        assert second_variation(equator_mk4, a, b) == pytest.approx(
            second_variation(equator_mk4, b, a), abs=1e-12
        )

    def test_tangential_invariance_via_flow(self, sphere, great_circle):
        # FD second derivative of length along an ambient flow vs the form
        # applied to the normal projection phi = <X, n>
        from geolab.extension import TangentialField, SumField, flow_network_length

        net = GeodesicNetwork.build(sphere, [great_circle], clustering_radius=0.01)

        class ConstField:
            def __call__(self, pts):
                out = np.zeros_like(pts)
                out[:, 2] = 1.0
                return out

        X = ConstField()
        phi = np.ones(great_circle.n)  # n = +-z along the equator; <z, n> = 1
        q_form = second_variation(great_circle, phi, phi)
        h = 0.01
        L0 = flow_network_length(net, X, 0.0)
        Lp = flow_network_length(net, X, h)
        Lm = flow_network_length(net, X, -h)
        q_flow = (Lp - 2 * L0 + Lm) / h**2
        tol = max(1e-5, 10 * h**2)
        assert abs(q_flow - q_form) <= tol * abs(q_form)
        # adding a tangential field changes nothing beyond the tolerance
        tang = TangentialField(net, [lambda s: 0.4 * np.cos(s)])
        Lp2 = flow_network_length(net, SumField(X, tang), h)
        Lm2 = flow_network_length(net, SumField(X, tang), -h)
        q_flow2 = (Lp2 - 2 * L0 + Lm2) / h**2
        assert abs(q_flow2 - q_form) <= tol * abs(q_form)


class TestSpectrum:
    def test_equator_k4(self, equator_mk4):
        rep = jacobi_spectrum(equator_mk4, grid_size=512)
        expected = analytic_constant_K_spectrum(0.25, 2 * np.pi, 1, 6)
        h = 2 * np.pi / 512
        assert np.max(np.abs(rep.eigenvalues[:6] - expected)) < 5 * h**2
        assert rep.index == 1 and rep.nullity == 0

    def test_equator_k16_cover4(self, mk16):
        eq = sample_level_circle(mk16, 0.0)
        rep = jacobi_spectrum(eq, cover_multiplicity=4, grid_size=512)
        expected = analytic_constant_K_spectrum(1 / 16, 2 * np.pi, 4, 8)
        assert np.max(np.abs(rep.eigenvalues[:8] - expected)) < 1e-6
        assert rep.nullity == 2  # zero eigenvalue of the 4-fold cover
        assert rep.index == 1

    def test_mu2_equator(self, mk_mu2):
        eq = sample_level_circle(mk_mu2, 0.0)
        rep = jacobi_spectrum(eq, grid_size=512)
        assert rep.index == 0 and rep.nullity == 1
        expected = analytic_constant_K_spectrum(0.0, 2 * np.pi, 1, 5)
        assert np.max(np.abs(rep.eigenvalues[:5] - expected)) < 1e-6

    def test_round_great_circle(self, great_circle):
        rep = jacobi_spectrum(great_circle, grid_size=512)
        assert rep.index == 1 and rep.nullity == 2
        expected = analytic_constant_K_spectrum(1.0, 2 * np.pi, 1, 7)
        assert np.max(np.abs(rep.eigenvalues[:7] - expected)) < 1e-6

    def test_grid_convergence_rate(self, equator_mk4):
        # doubling the grid shrinks each of the lowest-10 changes by >= 4x
        reps = {
            n: jacobi_spectrum(equator_mk4, grid_size=n).eigenvalues[:10]
            for n in (256, 512, 1024)
        }
        change1 = np.abs(reps[512] - reps[256])
        change2 = np.abs(reps[1024] - reps[512])
        # 1e-10 floor: the constant mode is exact, its change is roundoff
        assert np.all(change2 <= change1 / 3.9 + 1e-10)

    def test_grid_size_guard(self, equator_mk4):
        with pytest.raises(ValueError):
            jacobi_spectrum(equator_mk4, grid_size=128)

    @pytest.mark.parametrize("m, grid", [(3, 1000), (5, 512), (2, 257)])
    def test_grid_must_be_multiple_of_cover(self, equator_mk4, m, grid):
        with pytest.raises(ValueError, match="multiple of cover_multiplicity"):
            jacobi_spectrum(equator_mk4, cover_multiplicity=m, grid_size=grid)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["ellipse_x1", "mk16_equator"])
    def test_cover_blocks_match_dense_cover(self, ellipses_094, mk16, case, m):
        # x1 = 0 ellipse: K varies along the curve; k = 16 equator: the
        # 4-fold cover is degenerate
        if case == "ellipse_x1":
            curve = ellipses_094[0]
        else:
            curve = sample_level_circle(mk16, 0.0)
        grid = 512 * m
        eig, index, nullity = dense_cover_spectrum(curve, m, grid)
        assert np.max(np.abs(whole_block_spectrum(curve, m, 512) - eig)) <= 1e-9
        # the report holds the low end: exactly the dense spectrum's prefix
        rep = jacobi_spectrum(curve, cover_multiplicity=m, grid_size=grid)
        low = rep.eigenvalues.size
        assert low >= REPORTED_EIGS
        assert np.max(np.abs(rep.eigenvalues - eig[:low])) <= 1e-9
        assert (rep.index, rep.nullity) == (index, nullity)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [5.0, 16.0])
    def test_cover_spectrum_matches_fourier_symbol(self, k, m):
        # constant K = 1/k: the cyclic five-point matrix on N points has exactly
        # the eigenvalues (5/2 - (8/3) cos theta + (1/6) cos 2 theta) / h^2 - K,
        # theta = 2 pi l / N
        eq = sample_level_circle(make_mk(k, 1.0), 0.0)
        N = 512 * m
        h = m * eq.length / N
        theta = 2 * np.pi * np.arange(N) / N
        exact = np.sort((2.5 - 8 / 3 * np.cos(theta) + np.cos(2 * theta) / 6) / h**2 - 1 / k)
        whole = np.abs(whole_block_spectrum(eq, m, 512) - exact)
        assert whole.max() <= 1e-13 * np.abs(exact).max()
        rep = jacobi_spectrum(eq, cover_multiplicity=m, grid_size=N)
        low = rep.eigenvalues.size
        assert low >= REPORTED_EIGS
        err = np.abs(rep.eigenvalues - exact[:low])
        assert err.max() <= 1e-13 * np.abs(exact).max()
        assert err[:12].max() <= 1e-10

    def test_block_reaching_the_zero_band_is_solved_whole(self, great_circle, monkeypatch):
        # with 2 eigenvalues per block the great circle's low end stops at the
        # first of its two zero modes; the block is then solved whole
        rep = jacobi_spectrum(great_circle, grid_size=512)
        monkeypatch.setattr(jacobi, "REPORTED_EIGS", 2)
        rep2 = jacobi_spectrum(great_circle, grid_size=512)
        assert (rep2.index, rep2.nullity) == (rep.index, rep.nullity) == (1, 2)
        low = rep2.eigenvalues.size
        assert low == 3  # -1 and both zero modes: all of the block up to the band
        assert np.max(np.abs(rep2.eigenvalues - rep.eigenvalues[:low])) <= 1e-9

    def test_covers_share_phases(self, ellipses_094, monkeypatch):
        # phases 0, 1/2, 1/3, 1/4 serve covers 1-4: 4 block solves, not 1+2+2+3
        curve = ellipses_094[0]
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("select", "a"))
            return eigvals_banded(*args, **kwargs)

        monkeypatch.setattr(jacobi, "eigvals_banded", counted)
        reps = cover_spectra(curve, covers=(1, 2, 3, 4))
        assert calls == ["i"] * 4
        del calls[:]
        single = {m: jacobi_spectrum(curve, cover_multiplicity=m, grid_size=512 * m)
                  for m in (1, 2, 3, 4)}
        assert calls == ["i"] * 8
        for m, rep in reps.items():
            assert (rep.index, rep.nullity) == (single[m].index, single[m].nullity)
            assert rep.eigenvalues.size == single[m].eigenvalues.size
            assert np.max(np.abs(rep.eigenvalues - single[m].eigenvalues)) <= 1e-9

    @pytest.mark.parametrize("grid, m", [(256, 64), (256, 128), (256, 256), (300, 100)])
    def test_periods_shorter_than_stencil(self, grid, m):
        # 4, 2, 1 and 3 points per period: wrapped stencil entries fold onto
        # one block entry, and onto the diagonal for a single point; the
        # blocks are solved here, as jacobi_spectrum refuses grids this coarse
        eq = sample_level_circle(make_mk(5.0, 1.0), 0.0)
        eig = dense_cover_spectrum(eq, m, grid)[0]
        assert np.max(np.abs(whole_block_spectrum(eq, m, grid // m) - eig)) <= 1e-12
        # the zero tolerance 10 h^2 max|K| reaches max|K|: no index is countable
        with pytest.raises(GridTooCoarse, match="reaches max"):
            jacobi_spectrum(eq, cover_multiplicity=m, grid_size=grid)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [4.0, 5.0, 9.0, 16.0])
    def test_nullity_matches_monodromy_on_mk_equator(self, k, m):
        # M is rotation by 2 pi / sqrt(k): M^m = I iff m / sqrt(k) is an integer
        eq = sample_level_circle(make_mk(k, 1.0), 0.0)
        ones = unit_eigenvalues(monodromy(eq), m)
        rep = jacobi_spectrum(eq, cover_multiplicity=m, grid_size=512 * m)
        assert rep.nullity == ones
        ratio = m / np.sqrt(k)
        assert ones == (2 if abs(ratio - round(ratio)) < 1e-12 else 0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("plane", [0, 1, 2])
    def test_nullity_matches_monodromy_on_ellipses(self, ellipses_094, plane, m):
        curve = ellipses_094[plane]
        rep = jacobi_spectrum(curve, cover_multiplicity=m, grid_size=512 * m)
        assert rep.nullity == unit_eigenvalues(monodromy(curve), m)

    def test_grid_too_coarse_on_boundary_eigenvalue(self):
        # k tuned so the n = 1 eigenvalue 1 - 1/k lands inside the 25% band
        # around the zero tolerance: classification is ambiguous
        k = 1.0 / (1.0 - 1.55e-3)
        eq = sample_level_circle(make_mk(k, 1.0), 0.0)
        with pytest.raises(GridTooCoarse):
            jacobi_spectrum(eq, grid_size=512)

    def test_curvature_below_tolerance_floor_has_index_zero(self):
        # mu = 2, |x3| = 1e-4: max|K| is about 6.6e-9, below the 1e-8 floor,
        # so every eigenvalue lies above -zero_tolerance on any grid
        curve = sample_level_circle(make_mk(9.0, 2.0), 1e-4)
        rep = jacobi_spectrum(curve)
        assert 0 < np.max(np.abs(curvature_along(curve))) < rep.zero_tolerance == 1e-8
        assert (rep.index, rep.nullity) == (0, 1)

    def test_index_lower_semicontinuity_smoke(self):
        for k in (4.0, 9.0, 25.0):
            eq = sample_level_circle(make_mk(k, 1.0), 0.0)
            assert jacobi_spectrum(eq).index == 1


class TestNetworkIndex:
    def test_equator_multiplicity_invariant(self, mk4, equator_mk4):
        net = GeodesicNetwork.build(mk4, [equator_mk4], clustering_radius=0.01)
        idx3, desc3 = network_index(net, multiplicities=[3])
        idx1, _ = network_index(net, multiplicities=[1])
        assert idx3 == idx1 == 1
        assert desc3["multiplicities"] == [3]

    def test_two_orthogonal_circles(self, two_circles_network):
        idx, desc = network_index(two_circles_network)
        assert idx == 2
        assert [c["index"] for c in desc["per_curve"]] == [1, 1]

    def test_mu2_network_index_zero(self, mk_mu2):
        eq = sample_level_circle(mk_mu2, 0.0)
        net = GeodesicNetwork.build(mk_mu2, [eq], clustering_radius=0.01)
        idx, _ = network_index(net)
        assert idx == 0

    def test_width_consistency(self, two_circles_network):
        rep = width_consistency_assertions(two_circles_network, p=2)
        assert rep["index_le_p"] and rep["vertices_le_p"]
        assert rep["index"] == 2 and rep["n_vertices"] == 2

    def test_bad_multiplicities(self, two_circles_network):
        with pytest.raises(ValueError):
            network_index(two_circles_network, multiplicities=[1])
        with pytest.raises(ValueError):
            network_index(two_circles_network, multiplicities=[1, 0])


@pytest.fixture(scope="module")
def crossing_segments():
    """Two straight segments crossing once in a flat chart."""
    chart = make_flat_chart(2.6, 2.6)
    t = np.linspace(-1.0, 1.0, 6000)
    segments = [curve_from_samples(chart, np.outer(t, d), closed=False) for d in ([1, 0], [0, 1])]
    return GeodesicNetwork.build(chart, segments, clustering_radius=0.01)


@pytest.mark.parametrize(
    "spectrum",
    [
        lambda net: jacobi_spectrum(net.curves[0]),
        lambda net: cover_spectra(net.curves[0], covers=(1, 2)),
        lambda net: second_variation(net.curves[0], *[np.ones(net.curves[0].n)] * 2),
        lambda net: network_index(net),
        lambda net: width_consistency_assertions(net, 2),
    ],
    ids=["jacobi_spectrum", "cover_spectra", "second_variation", "network_index",
         "width_consistency_assertions"],
)
def test_open_curve_has_no_periodic_spectrum(crossing_segments, spectrum):
    # the periodic spectrum of a segment is that of a loop that does not
    # exist: index 0, nullity 1 for a straight segment
    with pytest.raises(ValueError, match="closed curve"):
        spectrum(crossing_segments)


class TestDegeneracyCriterion:
    def test_paper_cases(self):
        assert degeneracy_criterion_mk(16.0, 2) is True
        assert degeneracy_criterion_mk(4.0, 1) is True  # conservative flag
        assert degeneracy_criterion_mk(5.0, 1) is False
        assert degeneracy_criterion_mk(np.pi**2, 1) is False

    def test_flag_vs_computed_nullity(self, equator_mk4):
        # the conservative criterion can flag a case whose nullity is zero
        assert degeneracy_criterion_mk(4.0, 1) is True
        assert jacobi_spectrum(equator_mk4).nullity == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            degeneracy_criterion_mk(-1.0, 1)
        with pytest.raises(ValueError):
            degeneracy_criterion_mk(4.0, 0)
