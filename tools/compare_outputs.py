"""Byte-identity check of two geolab checkouts' outputs.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Runs the README's ten CLI configurations and the reductions of order 3, 4
and 8 of concurrent lines in a curved chart (``sphere_exp_chart(1.2)``) and
in the CLI's flat chart (``make_flat_chart(2.6, 2.6)``), each reduced by
``reduce_vertex_fully`` and written with its final vertex records to
``reduction.json``, in each checkout.  Order 8 is beyond the nested
one-strand-per-ball reduction, which stops with ``AmbiguousCluster``; a
checkout that still has it reads ``exit code 1`` there.
Every run is a fresh process with ``PYTHONPATH`` set to that checkout's
``src`` and ``OPENBLAS_NUM_THREADS=1``, writing into its own output
directory under a temporary directory that is removed afterwards.  Per
configuration it prints ``identical`` or the files that differ or exist on
one side only, and each side's wall time in seconds, import included; it
exits 1 on any difference.  For a JSON file that differs it also prints the
largest absolute difference over the numeric leaves found at the same path
on both sides, and lists the paths whose values differ otherwise (not both
numbers) or exist on one side only.
JSON files that a strict parser rejects (NaN or Infinity) are listed per
side and count as a difference too.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
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
    for argv in CLI_CONFIGS:
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


def json_difference(a: Path, b: Path) -> str:
    """The largest numeric change between two JSON files and the paths that
    differ in any other way."""
    try:
        leaves = [json_leaves(json.loads(p.read_text())) for p in (a, b)]
    except ValueError:
        return "not JSON on both sides"

    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)

    largest, changed, other = 0.0, 0, []
    for path in sorted(leaves[0].keys() | leaves[1].keys()):
        if path not in leaves[0] or path not in leaves[1]:
            other.append(f"{path} ({'change' if path in leaves[1] else 'parent'} only)")
            continue
        va, vb = leaves[0][path], leaves[1][path]
        if number(va) and number(vb):
            if va != vb:
                largest, changed = max(largest, abs(vb - va)), changed + 1
        elif repr(va) != repr(vb):  # repr: NaN equals NaN, True differs from 1
            other.append(path)
    text = f"max |numeric difference| {largest:.3g} over {changed} leaves"
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
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp)
        for i, (name, argv_) in enumerate(configurations()):
            outs = [work / side / f"{i:02d}" for side in ("parent", "change")]
            codes, walls = zip(*(run_one(c, argv_, o) for c, o in zip(checkouts, outs)))
            files = [describe(*outs, f) for f in differing_files(*outs)]
            if codes[0] != codes[1]:
                files.insert(0, f"exit code {codes[0]} -> {codes[1]}")
            for side, o in zip(("parent", "change"), outs):
                files += [f"not strict JSON in {side}: {f}" for f in non_strict_json(o)]
            differ |= bool(files)
            print(f"{name}: {'identical' if not files else ', '.join(files)}"
                  f" (exit {codes[1]}; parent {walls[0]:.2f} s -> change {walls[1]:.2f} s)",
                  flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
