import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.special import ellipe

from geolab import widths
from geolab.errors import SeedBudgetExhausted
from geolab.geodesics import GeodesicCurve, aligned_bound, hausdorff_distance, shoot_closed_batch
from geolab.surfaces import make_mk, make_sphere
from geolab.widths import (
    WidthBound,
    _multiplicity_attribution,
    ellipsoid_experiment,
    guth_p_sweepout_bound,
    image_classes,
    level_circle_sweepout,
    mk_multiplicity_experiment,
    plane_ellipse_circumference,
    round_sphere_width,
)


class TestSweepout:
    def test_mk_level_circles_max_at_equator(self, mk4):
        sw = level_circle_sweepout(mk4, 512)
        assert abs(sw.max_mass - 2 * np.pi) < 1e-6
        assert sw.argmax_t == pytest.approx(0.5)
        # endpoint masses degenerate toward the poles
        assert sw.masses[0] == 0.0 and sw.masses[-1] == 0.0
        # continuity on the grid: jumps are O(grid spacing)
        assert np.max(np.abs(np.diff(sw.masses))) < 0.2

    def test_mu2_sweepout(self):
        mk = make_mk(9.0, 2.0)
        sw = level_circle_sweepout(mk, 257)
        assert abs(sw.max_mass - 2 * np.pi) < 1e-6

    def test_round_sphere_latitudes(self, sphere):
        sw = level_circle_sweepout(sphere, 257)
        assert abs(sw.max_mass - 2 * np.pi) < 1e-6

    def test_guth_bound_linear_in_p(self, mk4):
        sw = level_circle_sweepout(mk4, 257)
        b1 = guth_p_sweepout_bound(sw, 1)
        for p in range(2, 6):
            bp = guth_p_sweepout_bound(sw, p)
            assert bp.upper_bound == pytest.approx(p * b1.upper_bound, abs=1e-12)
        assert b1.upper_bound == pytest.approx(sw.max_mass, abs=1e-12)

    def test_masses_match_level_circle_formula(self, mk4):
        # the circle x3 = c of x1^2 + x2^2 + x3^2 / k = 1 has radius
        # rho(c) = sqrt(1 - c^2 / k)
        sw = level_circle_sweepout(mk4, 257)
        rho = np.sqrt(np.maximum(1.0 - sw.heights**2 / 4.0, 0.0))
        assert np.max(np.abs(sw.masses - 2 * np.pi * rho)) < 1e-9

    def test_round_sphere_width_table(self):
        assert round_sphere_width(1) == pytest.approx(2 * np.pi)
        assert round_sphere_width(3) == pytest.approx(2 * np.pi)
        assert round_sphere_width(9) == pytest.approx(6 * np.pi)
        for p in range(1, 17):
            assert round_sphere_width(p) == pytest.approx(
                2 * np.pi * int(np.sqrt(p))
            )


class TestEllipseOracle:
    @settings(max_examples=100, deadline=None)
    @given(ratio=st.floats(0.1, 1.0), major=st.floats(0.5, 2.0), swap=st.booleans())
    @example(ratio=0.9806, major=1.0, swap=False)
    def test_quadrature_matches_elliptic_integral(self, ratio, major, swap):
        # C = 4 max(b,c) E(m), m = 1 - (min/max)^2; below an axis ratio of
        # 0.1 the 1024-point trapezoid rule loses digits (3e-10 at 0.01)
        b, c = (major, ratio * major)[:: -1 if swap else 1]
        exact = 4 * major * ellipe(1 - (min(b, c) / max(b, c)) ** 2)
        assert plane_ellipse_circumference(b, c) == pytest.approx(exact, rel=1e-13)


class TestEllipsoidExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        return ellipsoid_experiment(0.96, 1.0, 1.04)

    def test_three_geodesics_found(self, report):
        assert len(report["geodesics"]) == 3
        lengths = [d["length"] for d in report["geodesics"]]
        assert len(set(np.round(lengths, 6))) == 3  # distinct

    def test_lengths_match_quadrature(self, report):
        for d in report["geodesics"]:
            assert d["length_error"] <= 1e-6

    def test_nondegenerate_up_to_cover_3(self, report):
        for d in report["geodesics"]:
            for m in (1, 2, 3):
                assert d["spectra_by_cover"][m]["nullity"] == 0

    def test_principal_indices(self, report):
        # classical picture: the three principal ellipses have index 1, 2, 3
        indices = [d["spectra_by_cover"][1]["index"] for d in report["geodesics"]]
        assert sorted(indices) == [1, 2, 3]

    def test_attribution_not_all_ones(self, report):
        att = report["attribution"]
        assert att["all_ones_admissible"] is False
        assert att["admissible"], "some representation must be admissible"

    def test_validation(self):
        with pytest.raises(ValueError):
            ellipsoid_experiment(1.04, 1.0, 0.96)
        with pytest.raises(ValueError):
            ellipsoid_experiment(0.5, 1.0, 1.04)

    def test_seed_budget_exhausted(self, monkeypatch):
        # every attempt shoots, none closes: the first missing ellipse is named
        calls = []

        def closes_nothing(*args, **kwargs):
            out = shoot_closed_batch(*args, **kwargs)
            calls.append(len(out["ok"]))
            return {**out, "ok": np.zeros_like(out["ok"])}

        monkeypatch.setattr(widths, "shoot_closed_batch", closes_nothing)
        with pytest.raises(SeedBudgetExhausted, match="x_1=0 not found in 6 attempts"):
            ellipsoid_experiment(0.96, 1.0, 1.04)
        assert calls == [3] * widths.SEED_BUDGET


class TestAttributionChecker:
    def test_round_lengths_p4(self):
        att = _multiplicity_attribution([2 * np.pi] * 3, 4, window=0.05)
        assert att["all_ones_admissible"] is False
        # (1,1,0)-type sums are admissible, so >= 2 is not forced at p=4
        assert att["some_multiplicity_ge2_forced"] is False

    def test_pigeonhole_forcing_p16(self):
        att = _multiplicity_attribution([2 * np.pi] * 3, 16, window=0.05)
        # floor(sqrt(16)) = 4 copies over at most 3 curves forces some m >= 2
        assert att["some_multiplicity_ge2_forced"] is True


class TestMkExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        return mk_multiplicity_experiment(100.0, 1.0, n_seeds=40, seed=11)

    def test_finds_gamma0(self, report):
        assert report["n_classes"] >= 1
        assert report["properties"]["unique_short_class_is_gamma0"]

    def test_all_intersect_equator(self, report):
        assert report["properties"]["all_intersect_equator"]

    def test_calabi_cao_simplicity(self, report):
        assert report["properties"]["shortest_is_simple"]

    def test_gamma0_spectrum(self, report):
        g0 = [r for r in report["found"] if r["is_gamma0"]][0]
        assert g0["index"] == 1 and g0["nullity"] == 0

    def test_width_table(self, report):
        for row in report["width_bounds"]:
            assert row["upper_bound"] == pytest.approx(
                2 * np.pi * row["p"], abs=1e-6
            )
            assert abs(row["gap"]) < 1e-6

    def test_determinism(self):
        a = mk_multiplicity_experiment(100.0, 1.0, n_seeds=12, seed=3, spectra=False)
        b = mk_multiplicity_experiment(100.0, 1.0, n_seeds=12, seed=3, spectra=False)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_json_serializable(self, report):
        json.dumps(report, sort_keys=True)


def _exact_classes(found, tol):
    """The image classes by the exact distance alone: a KD-tree per found
    curve and ``hausdorff_distance`` for every pair within 0.05 in length."""
    classes, trees = [], []
    for seed_idx, cur in found:
        tree = cKDTree(cur.samples)
        for cls, cls_tree in zip(classes, trees):
            if abs(cls["curve"].length - cur.length) < 0.05 and hausdorff_distance(
                cls["curve"].samples, cur.samples, tol, cls_tree, tree
            ) <= tol:
                cls["members"] += 1
                break
        else:
            classes.append({"curve": cur, "members": 1, "first_seed": seed_idx})
            trees.append(tree)
    return classes


@pytest.mark.parametrize("k, n_seeds, seed", [(4.0, 40, 7), (100.0, 24, 4711)])
def test_image_classes_match_the_exact_loop(monkeypatch, k, n_seeds, seed):
    # the experiment's own found curves, classed both ways
    seen = []

    def both(found, tol):
        classes = image_classes(found, tol)
        seen.append((list(classes), _exact_classes(found, tol)))  # the caller sorts its list
        return classes

    monkeypatch.setattr(widths, "image_classes", both)
    mk_multiplicity_experiment(k, 1.0, n_seeds=n_seeds, seed=seed, spectra=False)
    ((classes, oracle),) = seen
    assert len(classes) == len(oracle) >= (7 if k == 4.0 else 1)
    for cls, ref in zip(classes, oracle):
        assert cls["curve"] is ref["curve"]
        assert (cls["members"], cls["first_seed"]) == (ref["members"], ref["first_seed"])


def _loop(coeffs, theta):
    """Real loop sum_j Re(coeffs[j] e^{i j theta}), coeffs of shape (B, 3)."""
    return (np.exp(1j * np.outer(theta, np.arange(coeffs.shape[0]))) @ coeffs).real


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(16, 400),
    phase=st.floats(0.0, 1.0),
    reverse=st.booleans(),
    noise=st.sampled_from([0.0, 1e-9, 1e-3, 0.2, 3.0]),
    extra=st.sampled_from([0, 0, 0, 1, -1, 9]),
    slack=st.floats(-3e-9, 3e-9),
    seed=st.integers(0, 2**32 - 1),
)
def test_image_classes_decide_as_the_exact_distance(n, phase, reverse, noise, extra, slack, seed):
    # b samples a's loop from another start point, in either orientation,
    # moved by noise (in sample spacings) and on n + extra samples; the
    # tolerances lie within a few 1e-9 of the aligned bound's acceptance
    # limit and of the exact distance, where rounding could decide
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    nb = n + extra
    a = _loop(coeffs, 2 * np.pi * np.arange(n) / n)
    b = _loop(coeffs, (-1.0 if reverse else 1.0) * 2 * np.pi * (np.arange(nb) / nb + phase))
    b += noise * (np.linalg.norm(coeffs) * 2 * np.pi / n) * rng.normal(size=b.shape)
    exact, bound = hausdorff_distance(a, b), aligned_bound(a, b)
    if extra:
        assert bound == np.inf
    else:
        assert bound >= exact * (1.0 - 1e-12)
    pair = [GeodesicCurve(x, 1.0, 0.0, None) for x in (a, b)]
    for limit in (exact, bound / (1.0 - 1e-9)):
        tol = limit * (1.0 + slack)
        if np.isfinite(tol) and tol > 0:
            joined = len(image_classes(list(enumerate(pair)), tol)) == 1
            assert joined == (hausdorff_distance(a, b, tol) <= tol)
