"""One workload process: runs the planned operations in-process, closed loop.

Usage (started by run.py, which sets PYTHONPATH to the checkout's src and
pins BLAS threads):

    python3 perfbench/worker.py --probe          # import geolab, print "ready"
    python3 perfbench/worker.py PLAN.json        # run the plan, write its result

Each operation starts after the previous one returns.  Passes repeat the
whole operation list until ``seconds`` have elapsed (at least one pass), so
every run attempts whole rounds.  Only the operation calls are timed;
sizing outputs and writing results happen between them.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

SPLIT_CURVATURE_TOL = 1e-6  # the tolerance split-vertex exits 2 on


def chart_reduction(order: int):
    """Full reduction of an order-d vertex of concurrent lines in the
    sphere's normal chart, through the public library functions."""
    import numpy as np
    from geolab.geodesics import curve_from_samples
    from geolab.networks import GeodesicNetwork
    from geolab.splitting import reduce_vertex_fully
    from geolab.surfaces import sphere_exp_chart

    chart = sphere_exp_chart(1.2)
    t = np.linspace(-1.0, 1.0, 6000)
    curves = [
        curve_from_samples(chart, np.outer(t, [np.cos(a), np.sin(a)]), closed=False)
        for a in np.pi * np.arange(order) / order
    ]
    net = GeodesicNetwork.build(chart, curves, clustering_radius=0.01)
    _, reduced, transcript = reduce_vertex_fully(chart, net, net.vertices[0])
    return reduced, transcript


def run_op(op, out: Path, cli):
    """Run one operation; returns (exit code, timed seconds)."""
    out.mkdir(parents=True, exist_ok=True)
    t0 = perf_counter()
    try:
        if op["kind"] == "cli":
            rc = cli.run(op["argv"] + ["--out", str(out)])
            return rc, perf_counter() - t0
        reduced, transcript = chart_reduction(op["order"])
        dt = perf_counter() - t0
    except Exception:  # an escaped exception is a failed operation, not a dead run
        dt = perf_counter() - t0
        traceback.print_exc()
        return 1, dt
    # same rule as the split-vertex command's exit code 2
    rc = 2 if any(s["curvature_residual_after"] > SPLIT_CURVATURE_TOL for s in transcript) else 0
    payload = {
        "vertices": [v.to_json_dict() for v in reduced.vertices],
        "transcript": transcript,
    }
    (out / "reduction.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return rc, dt


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv):
    if argv[0] == "--probe":
        import geolab.cli  # noqa: F401  (the set-up every CLI invocation pays)

        print("ready", flush=True)
        return 0
    plan = json.loads(Path(argv[0]).read_text())
    import geolab
    import geolab.cli as cli

    src = Path(plan["src"]).resolve()
    if src not in Path(geolab.__file__).resolve().parents:
        print(f"geolab imported from {geolab.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    passes = []
    start = perf_counter()
    while True:
        ops = []
        for op_id, op in enumerate(plan["ops"]):
            out = Path(plan["out"]) / f"pass{plan['first_pass'] + len(passes)}" / op["name"]
            if tracer:
                tracer.op = op_id
            rc, dt = run_op(op, out, cli)
            ops.append({"name": op["name"], "rc": rc, "seconds": dt,
                        "output_bytes": _bytes_under(out), "out": str(out),
                        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
        passes.append({"ops": ops, "wall_s": sum(o["seconds"] for o in ops)})
        elapsed = perf_counter() - start
        if (len(passes) >= plan["max_passes"] or elapsed >= plan["seconds"]
                or elapsed + passes[-1]["wall_s"] > plan["budget_s"]):
            break
    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        spans_path = Path(plan["out"]) / "spans.json"
        tracer.dump(spans_path)
        result["spans"] = str(spans_path)
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
