"""Byte-identity check of two geolab checkouts' outputs.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Runs, in each checkout, the README's ten CLI configurations; each of the
eight commands with no flags (its defaults); ten invalid inputs that exit
1 with an ``error.json`` (``index --cover 0``, ``mk-experiment --k 0.5``,
``sweepout-bound --p 1001``, four keys the command does not read:
``extend-field --order 2``, ``sweepout-bound --cover 17``, ``network --k 4``,
``index --n-seeds 0``, two command lines argparse rejects: ``index --k abc``,
``nonsense``, and a network extend-field cannot extend: ``extend-field
--builtin concurrent-lines``); three runs where a flag meets a command's
surface type or its default surface (``mk-experiment --a 0.96,1.0,1.04``,
``ellipsoid-experiment --k 4``, ``mk-experiment --mu 2``); one run whose
equator curvature lies below the spectral zero-tolerance floor
(``mk-experiment --k 9 --mu 2 --n-seeds 16 --seed 2``); one run of the
shape of the benchmark's ``mk-k100`` operation, where every final row of the
shooting stops in the polish (``mk-experiment --k 100 --n-seeds 24 --seed
4711``); the extension on three great circles (``extend-field --builtin
three-circles``, six crossings); and the reductions of order 3, 4 and 8 of concurrent lines in
a curved chart (``sphere_exp_chart(1.2)``) and in the CLI's flat chart
(``make_flat_chart(2.6, 2.6)``), each reduced by ``reduce_vertex_fully``
and written with its final vertex records to ``reduction.json``.
Every run is a fresh process with ``PYTHONPATH`` set to that checkout's
``src`` and ``OPENBLAS_NUM_THREADS=1``, writing into its own output
directory under a temporary directory that is removed afterwards.  The
parent runs first in even configurations and the change first in odd ones,
as ``tools/bench_pairs.py`` alternates its pairs, so neither side always
meets the other's warm caches.  Per configuration it prints ``identical``
or the files that differ or exist on one side only, and each side's wall
time in seconds, import included; it exits 1 on any difference.  A last
line gives the median change/parent wall-time ratio over the configurations
of each exit code (the change's).  For a JSON file that differs it also
prints the largest absolute difference over the numeric leaves found at the
same path on both sides, then each moved numeric leaf with its own largest
change, runs of consecutive integer keys (list indices) under one parent
folded into a range (``/result/eigenvalues/0-11``), and lists the paths
whose values differ otherwise (not both numbers) or exist on one side only.
JSON files that a strict parser rejects (NaN or Infinity) are listed per
side and count as a difference too.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

CLI_CONFIGS = [
    ["mk-experiment", "--k", "100", "--n-seeds", "200", "--seed", "7"],
    ["mk-experiment", "--k", "4", "--n-seeds", "40", "--seed", "7"],
    ["find-geodesics", "--k", "9", "--mu", "2", "--n-seeds", "16", "--seed", "2"],
    ["ellipsoid-experiment", "--a", "0.96,1.0,1.04"],
    ["extend-field", "--builtin", "two-circles"],
    ["split-vertex", "--order", "4"],
    ["network", "--builtin", "concurrent-lines", "--order", "4"],
    ["index", "--k", "16", "--cover", "4", "--grid", "2048"],
    ["index", "--k", "4"],
    ["sweepout-bound", "--k", "100", "--p", "5"],
]
DEFAULT_CONFIGS = [[command] for command in (
    "find-geodesics", "index", "network", "split-vertex", "extend-field",
    "sweepout-bound", "mk-experiment", "ellipsoid-experiment",
)]
ERROR_CONFIGS = [
    ["index", "--cover", "0"],
    ["mk-experiment", "--k", "0.5"],
    ["sweepout-bound", "--p", "1001"],
    ["extend-field", "--order", "2"],
    ["sweepout-bound", "--cover", "17"],
    ["network", "--k", "4"],
    ["index", "--n-seeds", "0"],
    ["index", "--k", "abc"],
    ["nonsense"],
    ["extend-field", "--builtin", "concurrent-lines"],
]
SURFACE_CONFIGS = [
    ["mk-experiment", "--a", "0.96,1.0,1.04"],
    ["ellipsoid-experiment", "--k", "4"],
    ["mk-experiment", "--mu", "2"],
    ["mk-experiment", "--k", "9", "--mu", "2", "--n-seeds", "16", "--seed", "2"],
]
BENCH_CONFIGS = [["mk-experiment", "--k", "100", "--n-seeds", "24", "--seed", "4711"]]
NETWORK_CONFIGS = [["extend-field", "--builtin", "three-circles"]]
CHART_ORDERS = (3, 4, 8)
CHARTS = ("chart", "flat")  # sphere_exp_chart(1.2), make_flat_chart(2.6, 2.6)

# the full reduction of an order-d vertex of concurrent lines at the CLI's
# angles, sampling and clustering radius, through the public library functions
CHART_REDUCTION = """
import json, sys
from pathlib import Path
import numpy as np
from geolab.geodesics import curve_from_samples
from geolab.networks import GeodesicNetwork
from geolab.splitting import reduce_vertex_fully
from geolab.surfaces import make_flat_chart, sphere_exp_chart

chart = sphere_exp_chart(1.2) if sys.argv[1] == "chart" else make_flat_chart(2.6, 2.6)
order, out = int(sys.argv[2]), Path(sys.argv[3])
t = np.linspace(-1.0, 1.0, 6000)
curves = [
    curve_from_samples(chart, np.outer(t, [np.cos(a), np.sin(a)]), closed=False)
    for a in np.pi * np.arange(order) / order
]
net = GeodesicNetwork.build(chart, curves, clustering_radius=0.01)
_, reduced, transcript = reduce_vertex_fully(chart, net, net.vertices[0])
payload = {"vertices": [v.to_json_dict() for v in reduced.vertices], "transcript": transcript}
out.mkdir(parents=True, exist_ok=True)
(out / "reduction.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\\n")
"""


def configurations():
    """(name, interpreter arguments); each run appends its output directory."""
    for argv in (
        CLI_CONFIGS + DEFAULT_CONFIGS + ERROR_CONFIGS + SURFACE_CONFIGS + BENCH_CONFIGS
        + NETWORK_CONFIGS
    ):
        yield " ".join(argv), ["-m", "geolab.cli", *argv, "--out"]
    for chart in CHARTS:
        for order in CHART_ORDERS:
            yield f"{chart}-reduction --order {order}", ["-c", CHART_REDUCTION, chart, str(order)]


def run_one(checkout: Path, argv, out: Path):
    """Exit code and wall seconds of one fresh-process run."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv, str(out)], cwd=checkout, env=env, capture_output=True, text=True
    )
    return proc.returncode, perf_counter() - t0


def differing_files(a: Path, b: Path):
    """Relative paths that differ in content or exist under one root only."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diff = sorted(files_a ^ files_b)
    diff += sorted(
        f for f in files_a & files_b if not filecmp.cmp(a / f, b / f, shallow=False)
    )
    return [str(f) for f in diff]


def _reject_constant(name):
    raise ValueError(f"non-finite {name}")


def non_strict_json(root: Path):
    """Relative paths of the JSON files under ``root`` that a strict parser
    rejects."""
    bad = []
    for path in sorted(root.rglob("*.json")):
        try:
            json.loads(path.read_text(), parse_constant=_reject_constant)
        except ValueError:
            bad.append(str(path.relative_to(root)))
    return bad


def json_leaves(node, path=""):
    """{path: value} of the scalar leaves of a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path or "/": node}
    leaves = {}
    for key, child in items:
        leaves.update(json_leaves(child, f"{path}/{key}"))
    return leaves


def fold_indices(moved):
    """``path (largest change)`` per (path, change) in ``moved``, in order,
    with runs of consecutive integer last components under one parent
    folded into ``parent/first-last``."""
    runs = []  # [parent, first, last, largest], or [path, None, None, change]
    for path, change in moved:
        parent, _, key = path.rpartition("/")
        if not key.isdigit():
            runs.append([path, None, None, change])
        elif runs and runs[-1][0] == parent and runs[-1][2] == int(key) - 1:
            runs[-1][2:] = [int(key), max(runs[-1][3], change)]
        else:
            runs.append([parent, int(key), int(key), change])
    text = []
    for head, first, last, largest in runs:
        if first is not None:
            head += f"/{first}" + (f"-{last}" if last > first else "")
        text.append(f"{head} ({largest:.3g})")
    return text


def json_difference(a: Path, b: Path) -> str:
    """The largest numeric change between two JSON files and the paths that
    differ in any other way."""
    try:
        leaves = [json_leaves(json.loads(p.read_text())) for p in (a, b)]
    except ValueError:
        return "not JSON on both sides"

    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)

    def order(path):  # list indices in numeric order
        return [(0, int(k), "") if k.isdigit() else (1, 0, k) for k in path.split("/")]

    moved, other = [], []
    for path in sorted(leaves[0].keys() | leaves[1].keys(), key=order):
        if path not in leaves[0] or path not in leaves[1]:
            other.append(f"{path} ({'change' if path in leaves[1] else 'parent'} only)")
            continue
        va, vb = leaves[0][path], leaves[1][path]
        if number(va) and number(vb):
            if va != vb:
                moved.append((path, abs(vb - va)))
        elif repr(va) != repr(vb):  # repr: NaN equals NaN, True differs from 1
            other.append(path)
    largest = max((change for _, change in moved), default=0.0)
    text = f"max |numeric difference| {largest:.3g} over {len(moved)} leaves"
    if moved:
        text += f": {', '.join(fold_indices(moved))}"
    return text + (f"; other differences: {', '.join(other)}" if other else "")


def describe(a: Path, b: Path, rel: str) -> str:
    """``rel``, with the numeric summary for a JSON file on both sides."""
    if rel.endswith(".json") and (a / rel).is_file() and (b / rel).is_file():
        return f"{rel} [{json_difference(a / rel, b / rel)}]"
    return rel


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    checkouts = (args.parent.resolve(), args.change.resolve())
    differ = False
    ratios = {}  # the change's exit code -> change/parent wall-time ratios
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp)
        for i, (name, argv_) in enumerate(configurations()):
            outs = [work / side / f"{i:02d}" for side in ("parent", "change")]
            order = (0, 1) if i % 2 == 0 else (1, 0)
            runs = {side: run_one(checkouts[side], argv_, outs[side]) for side in order}
            codes, walls = zip(runs[0], runs[1])
            ratios.setdefault(codes[1], []).append(walls[1] / walls[0])
            files = [describe(*outs, f) for f in differing_files(*outs)]
            if codes[0] != codes[1]:
                files.insert(0, f"exit code {codes[0]} -> {codes[1]}")
            for side, o in zip(("parent", "change"), outs):
                files += [f"not strict JSON in {side}: {f}" for f in non_strict_json(o)]
            differ |= bool(files)
            print(f"{name}: {'identical' if not files else ', '.join(files)}"
                  f" (exit {codes[1]}; parent {walls[0]:.2f} s -> change {walls[1]:.2f} s)",
                  flush=True)
    print("median change/parent wall time: " + ", ".join(
        f"exit {code} {statistics.median(r):.3f} over {len(r)} configurations"
        for code, r in sorted(ratios.items())))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
