import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geolab
from geolab import cli
from geolab.cli import (
    COMMANDS,
    DEFAULTS,
    GRID_PER_PERIOD,
    HANDLERS,
    MAX_GRID,
    MAX_N_SEEDS,
    MAX_ORDER,
    MAX_SPLIT_ORDER,
    _KEYS,
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["index", "--k", "abc"], "argument --k: invalid float value: 'abc'"),
        (["index", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["nonsense"], "argument command: invalid choice: 'nonsense'"),
        (["index", "--cover", "1.5"], "argument --cover: invalid int value: '1.5'"),
    ],
    ids=["float", "unknown-flag", "command", "int"],
)
def test_parse_error_exit_1_with_error_json(tmp_path, monkeypatch, argv, message):
    # argparse's own exit 2 would read as a failed property check
    monkeypatch.chdir(tmp_path)
    for args, out in ((argv + ["--out", "o"], tmp_path / "o"), (argv, tmp_path / "geolab-out")):
        assert run(args) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigInvalid" and err["message"].startswith(message)
        assert [p.name for p in out.iterdir()] == ["error.json"]


def test_help_names_the_commands_that_read_each_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    (seed,) = (action for action in build_parser()._actions if action.dest == "seed")
    assert seed.help.split("; read by ")[1].split(", ") == ["find-geodesics", "mk-experiment"]


@pytest.mark.parametrize("builtin", ["concurrent-lines", "nonsense"])
def test_extend_field_names_the_builtins_it_extends(tmp_path, builtin):
    # the open lines of a flat chart can never be extended
    out = tmp_path / "o"
    assert run(["extend-field", "--builtin", builtin, "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err == {
        "error": "ConfigInvalid",
        "message": f"extend-field extends two-circles and three-circles, got {builtin!r}",
    }


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


@pytest.mark.parametrize("cover", ["0", "-2"])
def test_index_cover_below_one_exit_1(tmp_path, cover):
    # the cover is named, not the default grid 512 * cover it would give
    out = tmp_path / "o"
    assert run(["index", "--cover", cover, "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["message"] == "cover must be at least 1"
    assert not (out / "report.json").exists()


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
        (["index"], {"surface": {"type": "ellipsoid", "a": [0.9, 1.0, 1.1]}}),
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


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["mk-experiment", "--a", "0.96,1.0,1.04"], None, "mk-experiment runs on mk surfaces"),
        (["mk-experiment"], {"surface": {"type": "sphere"}}, "mk-experiment runs on mk surfaces"),
        (["ellipsoid-experiment", "--k", "4"], None,
         "ellipsoid-experiment runs on ellipsoid surfaces"),
        (["find-geodesics", "--a", "0.96,1.0,1.04"], None, "find-geodesics runs on mk surfaces"),
    ],
)
def test_command_of_one_surface_type_rejects_others(tmp_path, argv, config, message):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err == {"error": "ConfigInvalid", "message": message}
    assert [p.name for p in out.iterdir()] == ["error.json"]


def test_mu_flag_edits_the_command_default_surface(tmp_path, monkeypatch):
    # mk-experiment's own surface is mk at k = 100: --mu changes mu only
    seen = {}

    def fake(**kwargs):
        seen.update(kwargs)
        return {"width_bounds": [], "properties": {}}

    monkeypatch.setattr(cli, "mk_multiplicity_experiment", fake)
    out = tmp_path / "o"
    assert run(["mk-experiment", "--mu", "2", "--out", str(out)]) == 0
    assert (seen["k"], seen["mu"], seen["n_seeds"]) == (100.0, 2.0, 200)
    assert read_report(out)["config"]["surface"] == {"type": "mk", "k": 100.0, "mu": 2.0}


@pytest.mark.parametrize("surface", ["x", None, [4.0]])
def test_k_flag_on_surface_spec_not_a_dict_exit_1(tmp_path, surface):
    # --k edits a config surface in place only when it is a dict
    (tmp_path / "cfg.json").write_text(json.dumps({"surface": surface}))
    out = tmp_path / "o"
    assert run(["index", "--k", "4", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigInvalid" and "surface spec" in err["message"]


@pytest.mark.parametrize("command", COMMANDS)
def test_load_config_without_flags_runs_on_defaults(command):
    # the defaults pass their own bounds, caps and surface type; the handler
    # runs on DEFAULTS[command], and the report echoes seed where it is read
    cfg = load_config(build_parser().parse_args([command]))
    assert cfg == ({"seed": 0} if "seed" in DEFAULTS[command] else {})


# a value each key accepts, to show that a key is refused for not being read
_VALID = {
    "seed": "3", "grid": "512", "p": "2", "n_seeds": "8", "cap": "10", "cover": "2", "order": "3",
    "delta": "1", "flow_step": "0.01", "builtin": "two-circles", "K0": "1", "omega1": "6",
}


@pytest.mark.parametrize(
    "command, argv, config, key",
    [(c, ["--" + k.replace("_", "-"), _VALID[k]], None, k)
     for c in COMMANDS for k in _KEYS if k not in DEFAULTS[c]]
    + [(c, flag, None, "surface") for c in COMMANDS if "surface" not in DEFAULTS[c]
       for flag in (["--k", "4"], ["--mu", "2"], ["--a", "0.96,1.0,1.04"])]
    + [(c, [], {"n_seed": 5000}, "n_seed") for c in COMMANDS],
)
def test_key_outside_defaults_row_exit_1(tmp_path, command, argv, config, key):
    # a command reads exactly its DEFAULTS row; any other key is refused by name
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "o"
    assert run([command, *argv, "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err == {
        "error": "ConfigInvalid",
        "message": f"{command} does not read {key!r}; its keys: {', '.join(DEFAULTS[command])}",
    }
    assert [p.name for p in out.iterdir()] == ["error.json"]


def _is_cfg(node):
    return isinstance(node, ast.Name) and node.id == "cfg"


def _cfg_keys(fn, functions):
    """Keys ``fn`` reads from its ``cfg``: cfg[key], cfg.get(key), and the keys
    of each module function it hands ``cfg`` to; any other use of cfg fails."""
    keys, uses = set(), 0
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and _is_cfg(node.value):
            keys.add(node.slice.value)
            uses += 1
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if _is_cfg(node.func.value) and node.func.attr == "get":
                keys.add(node.args[0].value)
                uses += 1
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
            node.func.id in functions and any(map(_is_cfg, node.args))
        ):
            keys |= _cfg_keys(functions[node.func.id], functions)
            uses += sum(map(_is_cfg, node.args))
    assert uses == sum(map(_is_cfg, ast.walk(fn))), f"{fn.name} uses cfg other than by key"
    return keys


@pytest.mark.parametrize("command", COMMANDS)
def test_handler_reads_exactly_its_defaults_row(command):
    # the row is the command's whole input contract: no key a handler reads
    # can be refused, and no key in the row goes unread
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _cfg_keys(functions[HANDLERS[command].__name__], functions) == set(DEFAULTS[command])


def test_mu2_equator_below_tolerance_floor_exit_0(tmp_path):
    # the shot equator lies at |x3| <= 1e-4, where max|K| < 1e-8: index 0
    out = tmp_path / "o"
    argv = ["mk-experiment", "--k", "9", "--mu", "2", "--n-seeds", "16", "--seed", "2"]
    assert run(argv + ["--out", str(out)]) == 0
    found = read_report(out)["result"]["found"]
    assert (found[0]["index"], found[0]["nullity"]) == (0, 1)
    assert [(r["index"], r["nullity"]) for r in found[1:]] == [(2, 1)] * 3


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
        rc = run(["find-geodesics", "--config", str(cfg), "--out", str(tmp_path / "o")])
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
                ["sweepout-bound", "--k", "100", "--p", "3", "--out", str(out)]
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
    {"type": st.sampled_from(["mk", "ellipsoid", "sphere", "cylinder"])},
    optional={key: _json_values for key in ("k", "mu", "a")},
)
# commands that take seconds run a stub handler: their config checks are fuzzed
_STUBBED = {c: (lambda cfg, out: ({}, {})) for c in COMMANDS if c not in ("index", "sweepout-bound")}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(COMMANDS), value=_json_values | _surface_specs, data=st.data())
def test_cli_contract_on_fuzzed_config(command, value, data):
    # any JSON value under any key the command reads: exit 0, 2, or 1 with error.json
    key = data.draw(st.sampled_from(list(DEFAULTS[command])), label="key")
    with tempfile.TemporaryDirectory() as tmp, patch.dict(HANDLERS, _STUBBED):
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "o"
        cfg.write_text(json.dumps({key: value}))
        rc = run([command, "--config", str(cfg), "--out", str(out)])
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


def _fresh_process(code, *args):
    """stdout of ``python -c code args`` with this checkout's geolab on the path."""
    src = str(Path(geolab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


_SCIPY_AFTER = (
    "import json, sys, geolab.cli\n"
    "rc = geolab.cli.run(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
)


@pytest.mark.parametrize(
    "argv, subpackages",
    [
        ([], set()),
        (["sweepout-bound"], set()),
        (["index"], {"scipy.linalg"}),
        (["ellipsoid-experiment"], {"scipy.linalg"}),
        (["network"], {"scipy.linalg", "scipy.sparse", "scipy.spatial"}),
    ],
    ids=["import", "sweepout-bound", "index", "ellipsoid-experiment", "network"],
)
def test_cli_loads_scipy_subpackages_a_command_calls(argv, subpackages, tmp_path):
    # one fresh process per case: a command loads a scipy subpackage only when
    # it reaches code that calls it, so start-up is numpy plus geolab
    argv = argv and [*argv, "--out", str(tmp_path)]
    rc, modules = json.loads(_fresh_process(_SCIPY_AFTER, *argv).splitlines()[-1])
    assert rc == 0
    if not subpackages:
        assert modules == []
    loaded = {".".join(m.split(".")[:2]) for m in modules}
    assert loaded & {"scipy.linalg", "scipy.sparse", "scipy.spatial"} == subpackages


def test_cli_import_loads_every_geolab_module():
    # geolab's own modules stay eagerly imported: the perfbench tracer wraps
    # only functions of modules already in sys.modules when it installs, and a
    # lazily imported package read 0 in every per-layer counter of a traced run
    code = "import sys, geolab.cli; print(' '.join(sorted(sys.modules)))"
    loaded = set(_fresh_process(code).split())
    for name in ("surfaces", "geodesics", "jacobi", "networks", "splitting", "extension", "widths"):
        assert f"geolab.{name}" in loaded
