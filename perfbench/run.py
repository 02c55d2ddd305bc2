"""geolab benchmark: runs one workload and prints its metrics as JSON.

    python3 perfbench/run.py --workload mk-search --seed 1 --seconds 10 --trace 0

Run from the root of a geolab checkout; geolab is imported from its ``src``.
The workload runs in its own process (worker.py), closed loop with one
caller, with BLAS pinned to one thread.  Every output is checked (checks.py)
after the process ends.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: end-to-end metrics: ``setup_s`` (median time for a fresh
  process to import geolab, over seven processes started before and after
  the workload process), ``wall_s`` (median wall time of one pass over the
  operations) and ``peak_rss_mb`` (peak resident memory of the workload
  process).
* ``--trace 1``: per-layer metrics from a traced pass (spans.py), plus
  ``trace.overhead_s``, the traced pass's wall time minus that of an
  untraced pass run just before it in a fresh process.

An operation fails if geolab exits non-zero or a check rejects its output.
``correct`` is false if a check rejects the output of an operation geolab
reported as successful.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A fixed glibc mmap threshold turns off its dynamic adjustment, which
# otherwise makes peak RSS flip between two values run to run (observed:
# 350 and 395 MB on network-surgery with identical inputs).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "1048576"}
# set-up probes run before and after the workload process, so their median
# does not rest on a single moment of the machine's load
SETUP_PROBES = (4, 3)
RUN_BUDGET_S = 170.0  # a run must end within 180 s


def _run_worker(args, env, log, timeout):
    """Run a worker to completion; kill and reap it if it overruns."""
    with open(log, "a") as fh:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                stdout=fh, stderr=subprocess.STDOUT, env=env)
        try:
            return proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise


def measure_setup(env, n):
    """Seconds from process start until geolab is imported, per probe."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "--probe"],
                                stdout=subprocess.PIPE, env=env, text=True)
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe could not import geolab")
    return times


def run_passes(ops, out, env, *, trace, seconds, max_passes, first_pass, deadline):
    plan = {
        "ops": ops, "out": str(out), "src": str(Path.cwd() / "src"), "trace": trace,
        "seconds": seconds, "max_passes": max_passes, "first_pass": first_pass,
        "budget_s": deadline - perf_counter() - 10.0,
        "result": str(out / f"result{first_pass}.json"),
    }
    plan_path = out / f"plan{first_pass}.json"
    plan_path.write_text(json.dumps(plan))
    rc = _run_worker([str(plan_path)], env, out / "worker.log", deadline - perf_counter())
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}; see {out / 'worker.log'}")
    return json.loads(Path(plan["result"]).read_text())


def check_passes(ops, passes):
    """Returns (attempted, failed, correct, lines)."""
    attempted = failed = 0
    correct = True
    lines = []
    first_reports = {}
    for p, pas in enumerate(passes):
        for op, res in zip(ops, pas["ops"]):
            out = Path(res["out"])
            found = checks.run_check(op["check"], out, op["params"])
            report = out / "report.json"
            if report.exists():
                data = report.read_bytes()
                if op["name"] in first_reports:
                    found.append(("report byte-identical to the first pass",
                                  data == first_reports[op["name"]], ""))
                else:
                    first_reports[op["name"]] = data
            rejected = [c for c in found if not c[1]]
            attempted += 1
            failed += bool(res["rc"] != 0 or rejected)
            correct &= not (res["rc"] == 0 and rejected)
            lines.append(f"pass {p} {op['name']}: exit {res['rc']}, {res['seconds']:.3f} s, "
                         f"{len(found) - len(rejected)}/{len(found)} checks passed")
            lines += [f"    {'ok  ' if ok else 'FAIL'} {what}: {detail}" for what, ok, detail in found]
    return attempted, failed, correct, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + RUN_BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "geolab" / "cli.py").is_file():
        print(f"no geolab sources under {root / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV, **MALLOC_ENV)
    ops = workloads.operations(args.workload, args.seed)
    print(f"# workload {args.workload}, seed {args.seed}, {len(ops)} operations per pass; "
          + " ".join(f"{k}={v}" for k, v in {**BLAS_ENV, **MALLOC_ENV}.items()), flush=True)

    if args.trace:
        plain = run_passes(ops, out, env, trace=False, seconds=0,
                           max_passes=1, first_pass=0, deadline=deadline)
        traced = run_passes(ops, out, env, trace=True, seconds=0,
                            max_passes=1, first_pass=1, deadline=deadline)
        passes = plain["passes"] + traced["passes"]
    else:
        setup = measure_setup(env, SETUP_PROBES[0])
        run = run_passes(ops, out, env, trace=False, seconds=args.seconds,
                         max_passes=1_000_000, first_pass=0, deadline=deadline)
        setup += measure_setup(env, SETUP_PROBES[1])
        passes = run["passes"]

    attempted, failed, correct, lines = check_passes(ops, passes)
    print("\n".join(lines))
    if args.trace:
        recorded = json.loads(Path(traced["spans"]).read_text())["spans"]
        layer = spans.per_layer(recorded, traced["passes"][0]["wall_s"], plain["passes"][0]["wall_s"],
                                sum(o["output_bytes"] for o in traced["passes"][0]["ops"]))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        walls = [p["wall_s"] for p in passes]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    for k, v in metrics.items():
        print(f"# {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
