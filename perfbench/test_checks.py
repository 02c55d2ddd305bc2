"""Tests of the benchmark's checks on cases with known answers.

    python3 -m pytest perfbench/test_checks.py
"""

import json

import numpy as np
import pytest

import checks


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_great_circle_cover_index_and_nullity(m):
    # on the round sphere the m-fold great circle has spectrum (n/m)^2 - 1:
    # 2m - 1 negative eigenvalues (n < m) and the double zero at n = m
    for plane in range(3):
        eigs = checks.ellipse_on_ellipsoid_spectrum([1.0, 1.0, 1.0], plane, m)
        assert checks.classify(eigs) == (2 * m - 1, 2)


def test_galerkin_matches_closed_form_on_a_spheroid_equator():
    # a1 = a2 = 1: the x3 = 0 ellipse is the unit equator of
    # x^2 + y^2 + z^2/k = 1, whose spectrum is (n/m)^2 - 1/k
    k = 4.0
    for m in (1, 2, 3):
        eigs = checks.ellipse_on_ellipsoid_spectrum([1.0, 1.0, 1.0 / k], 2, m)
        want, index, nullity = checks.mk_equator_spectrum(int(k), m, 9)
        np.testing.assert_allclose(eigs[:9], want, atol=1e-10)
        assert checks.classify(eigs) == (index, nullity)


def test_ellipe_gives_the_circle_circumference():
    for r in (0.5, 1.0, 2.0):
        assert checks.ellipse_circumference(r, r) == pytest.approx(2 * np.pi * r, rel=1e-15)


def test_ellipse_circumference_is_symmetric_and_between_circles():
    c = checks.ellipse_circumference(1.0, 2.0)
    assert c == checks.ellipse_circumference(2.0, 1.0)
    assert 2 * np.pi < c < 4 * np.pi


@pytest.mark.parametrize("k, m, index, nullity", [(100, 1, 1, 0), (4, 1, 1, 0), (4, 2, 1, 2), (4, 4, 3, 2), (9, 3, 1, 2), (2, 3, 5, 0)])
def test_mk_equator_index_and_nullity(k, m, index, nullity):
    values, got_index, got_nullity = checks.mk_equator_spectrum(k, m, 40)
    assert (got_index, got_nullity) == (index, nullity)
    zero = np.abs(values) <= 1e-12
    assert (int(np.sum((values < 0) & ~zero)), int(np.sum(zero))) == (index, nullity)


def _write_mk_output(out, curves, records):
    out.mkdir()
    for i, (length, pts) in enumerate(curves):
        n = pts.shape[0]
        rows = ["s,x1,x2,x3"] + [
            ",".join(repr(float(v)) for v in [i_ * length / n, *p]) for i_, p in enumerate(pts)
        ]
        (out / f"curve_{i:02d}.csv").write_text("\n".join(rows) + "\n")
    (out / "report.json").write_text(json.dumps({"result": {"found": records}}))
    widths = ["l,upper_bound,reference,gap"] + [f"{p},{2 * np.pi * p!r},{2 * np.pi * p!r},0.0" for p in (1, 2, 3)]
    (out / "width-bounds.csv").write_text("\n".join(widths) + "\n")


def _meridian(k, phi, n=4096):
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return np.stack([np.cos(t) * np.cos(phi), np.cos(t) * np.sin(phi), np.sqrt(k) * np.sin(t)], axis=1)


def _equator(n=4096):
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1)


def test_curve_files_pair_with_records_by_length_not_index(tmp_path):
    k = 4
    circ = checks.ellipse_circumference(1.0, 2.0)
    # files in discovery order, records sorted by length, as geolab writes them
    curves = [(circ, _meridian(k, 0.3)), (2 * np.pi, _equator())]
    records = [
        {"length": 2 * np.pi, "cover_multiplicity": 1, "index": 1, "nullity": 0},
        {"length": circ, "cover_multiplicity": 1, "index": 2, "nullity": 1},
    ]
    _write_mk_output(tmp_path / "out", curves, records)
    results = checks.run_check("mk_experiment", tmp_path / "out", {"k": k, "expect": "meridians"})
    assert all(ok for _, ok, _ in results), results


def test_meridian_of_wrong_length_is_rejected(tmp_path):
    k = 4
    wrong = checks.ellipse_circumference(1.0, 2.0) + 1e-4
    _write_mk_output(tmp_path / "out", [(wrong, _meridian(k, 1.1))],
                     [{"length": wrong, "cover_multiplicity": 1, "index": 2, "nullity": 1}])
    results = dict((name, ok) for name, ok, _ in
                   checks.run_check("mk_experiment", tmp_path / "out", {"k": k, "expect": "meridians"}))
    assert results["meridian lengths equal the ellipe circumference"] is False


def test_curve_off_the_level_set_is_rejected(tmp_path):
    k = 100
    pts = _equator() * 1.001
    _write_mk_output(tmp_path / "out", [(2 * np.pi, pts)],
                     [{"length": 2 * np.pi, "cover_multiplicity": 1, "index": 1, "nullity": 0}])
    results = dict((name, ok) for name, ok, _ in
                   checks.run_check("mk_experiment", tmp_path / "out", {"k": k, "expect": "equator"}))
    assert results["samples on the level set |F| <= 1e-10"] is False


def test_missing_output_fails_the_check(tmp_path):
    results = checks.run_check("extend_field", tmp_path, {})
    assert [ok for _, ok, _ in results] == [False]


def test_strand_angles_compare_modulo_pi(tmp_path):
    verts = [{"order": 3, "transverse": True, "position": [0.0, 0.0],
              "strand_angles": [np.pi - 1e-12, np.pi / 3 + np.pi, 2 * np.pi / 3]}]
    (tmp_path / "report.json").write_text(json.dumps({"result": {"vertices": verts}}))
    assert [ok for _, ok, _ in checks.run_check("concurrent_lines", tmp_path, {"order": 3})] == [True]
    verts[0]["strand_angles"][1] += 1e-3
    (tmp_path / "report.json").write_text(json.dumps({"result": {"vertices": verts}}))
    assert [ok for _, ok, _ in checks.run_check("concurrent_lines", tmp_path, {"order": 3})] == [False]
