"""Paired benchmark runs of two geolab checkouts, written to a dated record.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --slug my-change \
        --first-seed 900 [--pairs 10]

For each workload in ``BENCHMARK.json``, pair p runs ``perfbench/run.py --workload W --seed
FIRST_SEED + p --trace 0`` once in each checkout (its own ``perfbench`` and
``src``), the parent first in even pairs and the change first in odd ones,
with the run length that ``BENCHMARK.json`` fixes.  A claim needs at least
10 pairs, so fewer are refused.  Pick a first seed not used before, so the
record rests on fresh seeds.  The Tier-1 suite then runs
once in each checkout, one after the other.

The record ``BENCH_<date>_<slug>.json`` (in the current directory) holds,
for each workload, the runs of each end-to-end metric on each side with
their median and quartiles, the parent's interquartile range and the number
of pairs the change won (ties count for neither side), plus one Tier-1 row
with each side's wall time and summary line.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")
MIN_PAIRS = 10  # alternating pairs a benchmark claim rests on


def alternating(p: int) -> tuple:
    """The sides in the order pair ``p`` runs them: the parent first when ``p`` is even."""
    return SIDES if p % 2 == 0 else SIDES[::-1]


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1(checkout: Path) -> dict:
    """Wall time and summary line of the Tier-1 suite in one checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(perf_counter() - t0, 2), "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def compare(runs: dict, metrics: dict) -> dict:
    """Per-metric summaries of both sides, the parent's IQR and the wins."""
    out = {side: {"seeds": runs[side]["seeds"], "correct": all(r["correct"] for r in runs[side]["raw"]),
                  "failed_of_attempted": [[r["failed"], r["attempted"]] for r in runs[side]["raw"]]}
           for side in SIDES}
    for name, better in metrics.items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]["raw"]] for side in SIDES}
        for side in SIDES:
            out[side][name] = summary(vals[side])
        sign = 1.0 if better == "lower" else -1.0
        pairs = list(zip(vals["parent"], vals["change"]))
        wins = sum(sign * (c - p) < 0 for p, c in pairs)
        out[f"{name}_pairs_won_by_change"] = f"{wins} of {len(pairs)}"
        out[f"{name}_parent_iqr"] = out["parent"][name]["q3"] - out["parent"][name]["q1"]
        out[f"{name}_median_change_over_parent"] = out["change"][name]["median"] / out["parent"][name]["median"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--slug", required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    record = {
        "change": args.slug,
        "date": datetime.date.today().isoformat(),
        "machine": f"{os.cpu_count()}-core {platform.machine()}, BLAS pinned to one thread by perfbench",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {bench['run_seconds']} --trace 0",
        "method": f"{args.pairs} pairs per workload, seeds {args.first_seed}..{args.first_seed + args.pairs - 1}, "
                  "parent first in even pairs; each side runs its own checkout",
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: {"seeds": [], "raw": []} for side in SIDES}
        for p in range(args.pairs):
            seed = args.first_seed + p
            for side in alternating(p):
                res = bench_run(checkouts[side], workload, seed, bench["run_seconds"])
                runs[side]["seeds"].append(seed)
                runs[side]["raw"].append(res)
                print(f"{workload} pair {p} {side}: "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        record["workloads"][workload] = compare(runs, metrics)
    record["tier1"] = {side: tier1(checkouts[side]) for side in SIDES}
    path = Path(f"BENCH_{record['date']}_{args.slug}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
