import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geolab
from geolab.cli import (
    GRID_PER_PERIOD,
    MAX_GRID,
    MAX_N_SEEDS,
    MAX_ORDER,
    MAX_SPLIT_ORDER,
    _FLOAT_KEYS,
    _INT_KEYS,
    build_parser,
    load_config,
    run,
    write_curve_csv,
)
from geolab.errors import ConfigInvalid
from geolab.geodesics import sample_level_circle
from geolab.surfaces import make_mk


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def read_curve_lengths(out_dir):
    """Length of each curve_XX.csv from its uniform arclength column."""
    lengths = []
    for path in sorted(out_dir.glob("curve_*.csv")):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        lengths.append(data[1, 0] * data.shape[0])
    return lengths


@pytest.mark.parametrize(
    "argv",
    [
        ["find-geodesics", "--n-seeds", "0"],
        ["index", "--cover", "0"],
        ["index", "--grid", "100"],
        ["mk-experiment", "--k", "0.5"],
        ["ellipsoid-experiment", "--a", "1.0,0.96,1.04"],
        ["ellipsoid-experiment", "--a", "0.96,1.0"],
        ["sweepout-bound", "--p", "0"],
        ["sweepout-bound", "--p", "1001"],
        # size caps: rejected before anything is allocated
        ["index", "--grid", str(MAX_GRID + 1)],
        ["index", "--cover", str(MAX_GRID // GRID_PER_PERIOD + 1)],
        ["mk-experiment", "--n-seeds", str(MAX_N_SEEDS + 1)],
        ["network", "--builtin", "concurrent-lines", "--order", str(MAX_ORDER + 1)],
        # 4 points per period: the zero tolerance swallows the whole spectrum
        ["index", "--k", "5", "--cover", "64", "--grid", "256"],
        # non-finite surface parameters: rejected before any handler runs
        ["index", "--k", "inf"],
        ["index", "--mu", "inf"],
        ["sweepout-bound", "--k", "inf"],
        ["mk-experiment", "--k", "inf", "--n-seeds", "2"],
        ["ellipsoid-experiment", "--a", "0.96,inf,1.04"],
        # a vertex needs two strands
        ["split-vertex", "--order", "1"],
        ["network", "--builtin", "concurrent-lines", "--order", "0"],
    ],
)
def test_invalid_input_exit_1_with_error_json(tmp_path, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] and err["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


def test_size_caps_in_load_config():
    # split-vertex has its own order cap (its detours and their factors
    # grow with the order); the caps are checked without running
    def cfg(argv):
        return load_config(build_parser().parse_args(argv))

    with pytest.raises(ConfigInvalid, match="order must be at most"):
        cfg(["split-vertex", "--order", str(MAX_SPLIT_ORDER + 1)])
    for argv in (
        ["split-vertex", "--order", str(MAX_SPLIT_ORDER)],
        ["network", "--builtin", "concurrent-lines", "--order", str(MAX_ORDER)],
        ["index", "--grid", str(MAX_GRID)],
        ["index", "--cover", str(MAX_GRID // GRID_PER_PERIOD)],
        ["index", "--cover", "20", "--grid", "2000"],
        ["mk-experiment", "--n-seeds", str(MAX_N_SEEDS)],
    ):
        cfg(argv)


def test_index_cover_beyond_default_grid_cap(tmp_path):
    # a cover too large for the default grid runs on an explicit coarser one
    out = tmp_path / "o"
    assert run(["index", "--k", "16", "--cover", "20", "--grid", "2000", "--out", str(out)]) == 0
    rep = read_report(out)["result"]
    assert rep["cover_multiplicity"] == 20 and rep["grid_size"] == 2000


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "--cover", "3", "--grid", "1000"],
        ["index", "--cover", "5", "--grid", "512"],
    ],
)
def test_index_grid_not_multiple_of_cover_exit_1(tmp_path, argv):
    # every period of the cover must carry the same grid
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert "multiple of cover_multiplicity" in err["message"]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["index", "--a", "0.96,1.0,1.04"], None),
        (["index"], {"surface": {"type": "flat_torus", "side": 1.0}}),
    ],
)
def test_index_needs_surface_of_revolution(tmp_path, argv, config):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert "surface of revolution" in err["message"]
    assert not (out / "report.json").exists()


def _strict_json(path):
    """Parsed JSON; a NaN or infinity raises ValueError."""
    def reject(name):
        raise ValueError(f"{path}: non-finite {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_open_curves_write_null_closure_residual(tmp_path):
    out = tmp_path / "o"
    argv = ["network", "--builtin", "concurrent-lines", "--order", "4", "--out", str(out)]
    assert run(argv) == 0
    curves = _strict_json(out / "report.json")["result"]["curves"]
    assert [c["closure_residual"] for c in curves] == [None] * 4


class TestCli:
    def test_invalid_config_exit_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"cap": -1}')
        rc = run(["index", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads((tmp_path / "o" / "error.json").read_text())
        assert err["error"] == "ConfigInvalid"

    @pytest.mark.parametrize(
        "command, config",
        [
            (
                "ellipsoid-experiment",
                {"surface": {"type": "ellipsoid", "a": [0.96, 1.0]}},
            ),
            ("find-geodesics", {"n_seeds": "abc"}),
            ("sweepout-bound", {"surface": {"type": "mk", "k": "nan"}}),
            # non-finite floats, written as JSON's NaN and Infinity
            ("mk-experiment", {"cap": np.inf}),
            ("network", {"K0": np.nan, "p": 3}),
            ("mk-experiment", {"cap": np.nan}),
            ("extend-field", {"delta": np.nan}),
            ("network", {"omega1": -np.inf, "p": 3}),
        ],
    )
    def test_bad_config_value_exit_1(self, tmp_path, command, config):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        rc = run([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads((tmp_path / "o" / "error.json").read_text())
        assert err["error"] == "ConfigInvalid"
        assert next(iter(config)) in err["message"]  # names the key
        assert not (tmp_path / "o" / "report.json").exists()

    def test_unreadable_config_exit_1(self, tmp_path):
        rc = run(
            ["index", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]
        )
        assert rc == 1

    def test_index_command(self, tmp_path):
        out = tmp_path / "o"
        rc = run(["index", "--k", "4", "--mu", "1", "--out", str(out)])
        assert rc == 0
        rep = read_report(out)
        assert rep["result"]["index"] == 1
        assert rep["result"]["nullity"] == 0
        assert rep["result"]["degeneracy_criterion"] is True
        assert (out / "eigenvalues.svg").exists()
        assert rep["version"] and rep["config"]["surface"]["k"] == 4.0

    def test_index_default_grid_scales_with_cover(self, tmp_path):
        out = tmp_path / "o"
        assert run(["index", "--k", "16", "--cover", "3", "--out", str(out)]) == 0
        assert read_report(out)["result"]["grid_size"] == 1536

    def test_network_command_with_bounds(self, tmp_path):
        out = tmp_path / "o"
        rc = run(["network", "--builtin", "two-circles", "--p", "2", "--out", str(out)])
        assert rc == 0
        rep = read_report(out)
        assert rep["result"]["g_plus"] is True
        assert rep["result"]["appendix_bounds"]["edge_count"] == 4
        assert (out / "network.svg").exists()

    def test_network_failing_bound_exit_2(self, tmp_path):
        # a single circle at p = 1 fails the length bound: exit code 2
        out = tmp_path / "o"
        rc = run(["network", "--builtin", "two-circles", "--p", "1", "--out", str(out)])
        assert rc == 2

    def test_sweepout_bound_table(self, tmp_path):
        out = tmp_path / "o"
        rc = run(["sweepout-bound", "--k", "100", "--p", "5", "--out", str(out)])
        assert rc == 0
        rep = read_report(out)
        rows = rep["result"]["table"]
        assert len(rows) == 5
        for row in rows:
            assert row["upper_bound"] == pytest.approx(2 * np.pi * row["p"], rel=1e-9)
        csv = (out / "width-bounds.csv").read_text().strip().splitlines()
        assert csv[0] == "l,upper_bound,reference,gap"
        assert len(csv) == 6

    def test_split_vertex_command(self, tmp_path):
        out = tmp_path / "o"
        rc = run(["split-vertex", "--order", "3", "--out", str(out)])
        assert rc == 0
        rep = read_report(out)
        assert rep["checks"]["all_order_two"] is True
        assert rep["checks"]["count_conserved"] is True
        assert rep["result"]["weighted_vertex_count"] == 3

    def test_extend_field_command(self, tmp_path):
        out = tmp_path / "o"
        rc = run(["extend-field", "--builtin", "two-circles", "--out", str(out)])
        assert rc == 0
        rep = read_report(out)
        assert rep["result"]["rel_error"] <= 1e-3

    def test_byte_identical_reports(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run(
                ["sweepout-bound", "--k", "100", "--p", "3", "--seed", "5", "--out", str(out)]
            )
            assert rc == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_find_geodesics_small(self, tmp_path):
        out = tmp_path / "o"
        rc = run(
            [
                "find-geodesics",
                "--k",
                "100",
                "--n-seeds",
                "8",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc in (0, 2)  # property flags depend on what 8 seeds find
        rep = read_report(out)
        assert rep["command"] == "find-geodesics"

    def test_find_geodesics_equator_off_gamma0_phase(self, tmp_path):
        # k = 4, seed 3: the equator class is sampled 0.65 of a sample
        # spacing off the phase of a uniformly sampled gamma_0
        out = tmp_path / "o"
        argv = ["find-geodesics", "--k", "4", "--n-seeds", "40", "--seed", "3"]
        assert run(argv + ["--out", str(out)]) == 0
        found = read_report(out)["result"]["found"]
        assert found[0]["length"] == pytest.approx(2 * np.pi, rel=1e-12)
        assert found[0]["is_gamma0"]

    def test_mk_meridians_meet_equator_and_files_follow_found(self, tmp_path):
        # k = 4: meridians (length 9.69) cross the equator between samples,
        # and the shots find classes out of length order
        out = tmp_path / "o"
        argv = ["find-geodesics", "--k", "4", "--n-seeds", "8", "--seed", "0"]
        assert run(argv + ["--out", str(out)]) in (0, 2)
        result = read_report(out)["result"]
        found = result["found"]
        assert len(found) >= 3
        assert result["properties"]["all_intersect_equator"]
        assert all(r["intersects_equator"] for r in found)
        assert read_curve_lengths(out) == pytest.approx(
            [r["length"] for r in found], rel=1e-12
        )

    def test_mk_length_ties_ordered_by_first_seed(self, tmp_path):
        # k = 4: the meridian classes have lengths equal to ~1e-14, so their
        # order must come from first_seed, not from roundoff
        out = tmp_path / "o"
        argv = ["mk-experiment", "--k", "4", "--n-seeds", "40", "--seed", "7"]
        assert run(argv + ["--out", str(out)]) in (0, 2)
        found = read_report(out)["result"]["found"]
        tied = [
            (a, b)
            for a, b in zip(found, found[1:])
            if abs(b["length"] - a["length"]) <= 1e-9 * b["length"]
        ]
        assert len(tied) >= 2
        assert all(a["first_seed"] <= b["first_seed"] for a, b in tied)
        # lengths ascend up to ties
        assert all(b["length"] >= a["length"] * (1 - 1e-9) for a, b in zip(found, found[1:]))
        # curve_XX.csv follows found: tied classes differ in min |x3|
        files = sorted(out.glob("curve_*.csv"))
        assert len(files) == len(found)
        for path, rec in zip(files, found):
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            assert data[1, 0] * data.shape[0] == pytest.approx(rec["length"], rel=1e-12)
            assert np.min(np.abs(data[:, 3])) == pytest.approx(rec["min_abs_x3"], rel=1e-12)


def test_write_curve_csv_matches_per_element_repr(tmp_path):
    cur = sample_level_circle(make_mk(4.0, 1.0), 0.3, 64)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, cur)
    s = np.arange(cur.n) * (cur.length / cur.n)
    lines = ["s,x1,x2,x3"] + [
        ",".join(repr(float(v)) for v in [si, *pt]) for si, pt in zip(s, cur.samples)
    ]
    assert path.read_text() == "\n".join(lines) + "\n"


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_json_values = _json_scalars | st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# surface specs reach the parameter checks only with a known type
_surface_specs = st.fixed_dictionaries(
    {"type": st.sampled_from(["mk", "ellipsoid", "sphere", "cylinder", "flat_torus"])},
    optional={key: _json_values for key in ("k", "mu", "a", "side")},
)


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(_INT_KEYS + _FLOAT_KEYS + ("surface",)),
    value=_json_values | _surface_specs,
    command=st.sampled_from([["sweepout-bound"], ["index", "--grid", "256"]]),
)
def test_cli_contract_on_fuzzed_config(key, value, command):
    # any JSON value under any config key: exit 0, 2, or 1 with error.json
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "o"
        cfg.write_text(json.dumps({key: value}))
        rc = run(command + ["--config", str(cfg), "--out", str(out)])
        assert rc in (0, 1, 2)
        assert (out / "error.json").exists() == (rc == 1)
        if rc == 1:
            assert [p.name for p in out.iterdir()] == ["error.json"]
        else:
            _strict_json(out / "report.json")


def test_cli_import_leaves_out_scipy_integrate_and_optimize():
    # every command pays for what the package imports, in a fresh process
    src = str(Path(geolab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, geolab.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'])))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
