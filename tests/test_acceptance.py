"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from geolab.extension import (
    SumField,
    TangentialField,
    extend_normal_field,
    verify_second_variation_match,
)
from geolab.extension import cross_extension
from geolab.geodesics import (
    close_geodesic,
    curve_from_samples,
    sample_great_circle,
    sample_level_circle,
)
from geolab.jacobi import jacobi_spectrum
from geolab.networks import (
    GeodesicNetwork,
    check_appendix_bounds,
    weighted_vertex_count,
)
from geolab.splitting import reduce_vertex_fully, strand_curvature_in
from geolab.surfaces import gauss_curvature, make_flat_chart, make_mk, make_sphere
from geolab.widths import (
    guth_p_sweepout_bound,
    level_circle_sweepout,
    mk_multiplicity_experiment,
    round_sphere_width,
)


def report(number: int, ok: bool, detail: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} {detail} [{elapsed:.1f}s]")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def mk_experiment_runs():
    """Criterion 8's experiment, run twice for the determinism criterion."""
    t0 = time.time()
    first = mk_multiplicity_experiment(100.0, 1.0, length_cap=4 * np.pi, n_seeds=200, seed=7)
    first_elapsed = time.time() - t0
    second = mk_multiplicity_experiment(100.0, 1.0, length_cap=4 * np.pi, n_seeds=200, seed=7)
    return first, second, first_elapsed


def test_criterion_01_curvature():
    t0 = time.time()
    th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    pts = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    worst = 0.0
    for k in (2.0, 4.0, 10.0):
        K = gauss_curvature(make_mk(k, 1.0), pts)
        worst = max(worst, float(np.max(np.abs(K - 1.0 / k))))
    elapsed = time.time() - t0
    report(
        1,
        worst <= 1e-8 and elapsed < 1.0,
        f"equator curvature of M_k matches 1/k (worst err {worst:.2e})",
        elapsed,
    )


def test_criterion_02_geodesic_closure():
    t0 = time.time()
    mk = make_mk(4.0, 1.0)
    cur = close_geodesic(
        mk, (np.array([1.0, 0.05, 0.02]), np.array([-0.05, 1.0, 0.01]), 6.2)
    )
    elapsed = time.time() - t0
    ok = cur.closure_residual <= 1e-10 and abs(cur.length - 2 * np.pi) <= 1e-8
    report(
        2,
        ok and elapsed < 5.0,
        f"gamma_0 recovered: length err {abs(cur.length - 2 * np.pi):.2e}, "
        f"residual {cur.closure_residual:.2e}",
        elapsed,
    )


def test_criterion_03_spectra():
    t0 = time.time()
    checks = []
    for k in (4.0, 16.0):
        eq = sample_level_circle(make_mk(k, 1.0), 0.0)
        rep = jacobi_spectrum(eq, grid_size=512)
        h = 2 * np.pi / 512
        analytic = np.sort(
            [-1 / k] + [n * n - 1 / k for n in (1, 2, 3) for _ in (0, 1)]
        )[:6]
        checks.append(np.max(np.abs(rep.eigenvalues[:6] - analytic)) <= 5 * h * h)
    rep_k4 = jacobi_spectrum(sample_level_circle(make_mk(4.0, 1.0), 0.0), grid_size=512)
    checks.append(rep_k4.index == 1 and rep_k4.nullity == 0)
    rep_m4 = jacobi_spectrum(
        sample_level_circle(make_mk(16.0, 1.0), 0.0), cover_multiplicity=4, grid_size=512
    )
    checks.append(rep_m4.nullity == 2)
    rep_mu2 = jacobi_spectrum(sample_level_circle(make_mk(9.0, 2.0), 0.0), grid_size=512)
    checks.append(rep_mu2.index == 0 and rep_mu2.nullity == 1)
    sph = make_sphere()
    rep_gc = jacobi_spectrum(
        sample_great_circle(sph, [1, 0, 0], [0, 1, 0]), grid_size=512
    )
    checks.append(rep_gc.index == 1 and rep_gc.nullity == 2)
    elapsed = time.time() - t0
    report(
        3,
        all(checks) and elapsed < 10.0,
        f"Jacobi spectra match analytic families; classifications "
        f"{[bool(c) for c in checks]}",
        elapsed,
    )


def test_criterion_04_second_variation_consistency():
    t0 = time.time()
    sph = make_sphere()
    gc = sample_great_circle(sph, [1, 0, 0], [0, 1, 0])
    net = GeodesicNetwork.build(sph, [gc], clustering_radius=0.01)
    X = extend_normal_field(net, [1.0], delta=0.5)
    rep1 = verify_second_variation_match(net, [1.0], X, flow_step=0.01)
    mk2 = make_mk(9.0, 2.0)
    eq = sample_level_circle(mk2, 0.0)
    net2 = GeodesicNetwork.build(mk2, [eq], clustering_radius=0.01)
    X2 = extend_normal_field(net2, [1.0], delta=0.5)
    rep2 = verify_second_variation_match(net2, [1.0], X2, flow_step=0.01)
    tang = TangentialField(net, [lambda s: 0.3 * np.sin(2 * s)])
    rep3 = verify_second_variation_match(net, [1.0], SumField(X, tang), flow_step=0.01)
    tangential_change = abs(rep3["Q_flow"] - rep1["Q_flow"]) / abs(rep1["Q_form"])
    elapsed = time.time() - t0
    ok = (
        rep1["rel_error"] <= 1e-3
        and abs(rep2["Q_flow"]) <= 1e-4 * eq.length
        and tangential_change <= 1e-4
    )
    report(
        4,
        ok and elapsed < 10.0,
        f"round rel {rep1['rel_error']:.1e}; mu=2 abs {abs(rep2['Q_flow']):.1e}; "
        f"tangential change {tangential_change:.1e}",
        elapsed,
    )


def test_criterion_05_cross_extension():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    grid = np.linspace(-1.0, 1.0, 100)
    X, Y = np.meshgrid(grid, grid)
    pv = np.polynomial.polynomial.polyval
    worst_res, bound_ok = 0.0, True
    for _ in range(20):
        c1 = rng.normal(size=(2, 5))
        c2 = rng.normal(size=(2, 5))
        c2[:, 0] = c1[:, 0]
        u1 = lambda t, c=c1: np.stack([pv(np.asarray(t, float), ci) for ci in c], axis=-1)
        u2 = lambda t, c=c2: np.stack([pv(np.asarray(t, float), ci) for ci in c], axis=-1)
        U = cross_extension(u1, u2)
        ts = rng.uniform(-1, 1, size=1000)
        worst_res = max(
            worst_res,
            float(np.max(np.abs(U(ts, 0.0) - u1(ts)))),
            float(np.max(np.abs(U(0.0, ts) - u2(ts)))),
        )
        h = 1e-6
        dUx = (U(X + h, Y) - U(X - h, Y)) / (2 * h)
        dUy = (U(X, Y + h) - U(X, Y - h)) / (2 * h)
        d1 = np.polynomial.polynomial.polyder(c1, axis=1)
        d2 = np.polynomial.polynomial.polyder(c2, axis=1)
        n1 = np.linalg.norm(np.stack([pv(X, ci) for ci in d1], axis=-1), axis=-1)
        n2 = np.linalg.norm(np.stack([pv(Y, ci) for ci in d2], axis=-1), axis=-1)
        d1_at0 = np.array([pv(0.0, ci) for ci in d1])
        d2_at0 = np.array([pv(0.0, ci) for ci in d2])
        rhs = np.maximum.reduce(
            [
                n1,
                n2,
                np.full(X.shape, np.linalg.norm(d1_at0)),
                np.full(X.shape, np.linalg.norm(d2_at0)),
            ]
        )
        lhs = np.maximum(
            np.linalg.norm(dUx, axis=-1), np.linalg.norm(dUy, axis=-1)
        )
        bound_ok = bound_ok and bool(np.all(lhs <= rhs + 1e-5))
    elapsed = time.time() - t0
    report(
        5,
        worst_res <= 1e-12 and bound_ok and elapsed < 1.0,
        f"restriction exact ({worst_res:.1e}) and gradient bound holds",
        elapsed,
    )


def _concurrent_network(order):
    chart = make_flat_chart(2.6, 2.6)
    curves = []
    angles = {3: (0.0, np.pi / 2, np.pi / 4), 4: (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)}
    for a in angles[order]:
        t = np.linspace(-1.0, 1.0, 6000)
        curves.append(
            curve_from_samples(chart, np.outer(t, [np.cos(a), np.sin(a)]), closed=False)
        )
    return chart, GeodesicNetwork.build(chart, curves, clustering_radius=0.01)


def test_criterion_06_vertex_splitting():
    t0 = time.time()
    results = {}
    for order in (3, 4):
        chart, net = _concurrent_network(order)
        surf, net2, transcript = reduce_vertex_fully(chart, net, net.vertices[0])
        orders = sorted(v.order for v in net2.vertices)
        curvature_ok = all(s["curvature_residual_after"] <= 1e-6 for s in transcript)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.3, 1.3, size=(500, 2))
        R0 = transcript[0]["ball_radius"]
        outside = pts[np.linalg.norm(pts, axis=1) > R0]
        f_outside = float(np.max(np.abs(surf.factor_value(outside))))
        results[order] = {
            "orders": orders,
            "transverse": all(v.transverse for v in net2.vertices),
            "curvature_ok": curvature_ok,
            "f_outside": f_outside,
            "wvc": weighted_vertex_count(net2.vertices),
        }
    elapsed = time.time() - t0
    r3, r4 = results[3], results[4]
    ok = (
        r3["orders"] == [2, 2, 2]
        and r3["transverse"]
        and r3["curvature_ok"]
        and r3["f_outside"] == 0.0
        and r3["wvc"] == 3
        and r4["orders"] == [2] * 6
        and r4["wvc"] == 6
        and r4["curvature_ok"]
    )
    report(
        6,
        ok and elapsed < 30.0,
        f"order-3 -> {r3['orders']} (wvc {r3['wvc']}), order-4 -> {len(r4['orders'])} "
        f"order-2 vertices (wvc {r4['wvc']}); f==0 outside ball",
        elapsed,
    )


def test_criterion_07_width_bounds():
    t0 = time.time()
    mk = make_mk(100.0, 1.0)
    sweep = level_circle_sweepout(mk)
    # level circle x3 = c of M_k has radius rho(c) = sqrt(1 - c^2 / k)
    rho = np.sqrt(np.maximum(1.0 - sweep.heights**2 / 100.0, 0.0))
    mass_err = float(np.max(np.abs(sweep.masses - 2 * np.pi * rho)))
    guth_ok = mass_err <= 1e-9
    for p in range(1, 6):
        wb = guth_p_sweepout_bound(sweep, p)
        guth_ok = guth_ok and abs(wb.upper_bound - p * 2 * np.pi) <= p * 2 * np.pi * 1e-6
    table_ok = all(
        round_sphere_width(p) == 2 * np.pi * int(np.sqrt(p)) for p in range(1, 17)
    )
    elapsed = time.time() - t0
    report(
        7,
        guth_ok and table_ok and elapsed < 5.0,
        f"Guth bounds p*2pi for p<=5; sweepout masses = 2 pi rho(c) to {mass_err:.1e}; "
        "round table ok",
        elapsed,
    )


def test_criterion_08_multiplicity_experiment(mk_experiment_runs):
    rep, _, elapsed = mk_experiment_runs
    props = rep["properties"]
    ok = (
        props["all_intersect_equator"]
        and props["unique_short_class_is_gamma0"]
        and rep["n_classes"] >= 1
    )
    report(
        8,
        ok and elapsed < 300.0,
        f"{rep['n_converged']} shots -> {rep['n_classes']} classes; all meet the "
        f"equator; unique short class is gamma_0",
        elapsed,
    )


def test_criterion_09_ellipsoid():
    from geolab.widths import ellipsoid_experiment

    t0 = time.time()
    rep = ellipsoid_experiment(0.96, 1.0, 1.04)
    elapsed = time.time() - t0
    lengths_ok = all(d["length_error"] <= 1e-6 for d in rep["geodesics"])
    nullity_ok = all(
        d["spectra_by_cover"][m]["nullity"] == 0
        for d in rep["geodesics"]
        for m in (1, 2, 3)
    )
    ok = len(rep["geodesics"]) == 3 and lengths_ok and nullity_ok
    report(
        9,
        ok and elapsed < 60.0,
        "three coordinate geodesics found; lengths match quadrature to 1e-6; "
        "nullity 0 through cover 3",
        elapsed,
    )


def test_criterion_10_appendix_checkers(two_circles_network):
    t0 = time.time()
    rep = check_appendix_bounds(two_circles_network, p=2, K0=1.0, omega1=2 * np.pi)
    elapsed = time.time() - t0
    ok = (
        rep["edge_bound_ok"]
        and rep["edge_count"] == 4
        and rep["length_bound_ok"]
        and abs(rep["length_bound"] - 2 * np.pi) < 1e-12
    )
    report(
        10,
        ok and elapsed < 1.0,
        f"e_G = {rep['edge_count']} <= {rep['edge_bound']:.3f}; lengths within "
        f"pi p / sqrt(K0)",
        elapsed,
    )


def test_criterion_11_determinism(mk_experiment_runs):
    t0 = time.time()
    first, second, _ = mk_experiment_runs
    blob1 = json.dumps(first, sort_keys=True).encode()
    blob2 = json.dumps(second, sort_keys=True).encode()
    elapsed = time.time() - t0
    report(
        11,
        blob1 == blob2,
        f"two runs byte-identical ({len(blob1)} bytes)",
        elapsed,
    )
