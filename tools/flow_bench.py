"""Per-call timings of the geodesic flows in two geolab checkouts.

    python3 tools/flow_bench.py PARENT_DIR CHANGE_DIR

The flow layer of the benchmark, one seed and batched.  The cases are
``flow_levelset`` on mk k = 4 from the seeds of ``mk_seed_directions`` (seed
7), with spans alternating 2 pi and 4 pi near the multiplicity experiment's
two period guesses, on 1, 4, 72, 192 and 320 rows over 512 samples, 1, 4, 72
and 168 rows over 4096 samples (1 row is the shape of ``close_geodesic``'s
final flow) and 41 rows over 4096 samples with the path stored;
``flow_levelset`` on mk k = 9, mu = 2 (whose right-hand side takes the
powers (x_i^2)^(mu_i - 1)) on 64 rows over 512 samples, the coarse flows
of ``find-geodesics --k 9 --mu 2 --n-seeds 16``; ``flow_chart`` in
``sphere_exp_chart(1.2)`` on 1 and 8 rows over 512 samples with the path
stored; and the ambient-field flow of
``extend-field``: ``flow_network_length`` by +0.005 and -0.005 under the
field of constant profile 1 (delta 2) on two great circles of 4096 samples
that cross at (+-1, 0, 0), the network ``extend-field --builtin
two-circles`` builds.

Each of ROUNDS rounds runs every case in one fresh process per checkout,
with ``PYTHONPATH`` set to that checkout's ``src`` and
``OPENBLAS_NUM_THREADS=1``; the sides alternate as in ``bench_pairs``, the
parent first in even rounds.  A process calls each case once untimed, then
REPEATS times timed.  Per case it prints the median seconds of each side
over all timed calls, the change/parent ratio and whether the two sides'
outputs (end states and paths, or the two flowed lengths) are
bit-identical.  Exits 1 when any case's outputs differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import SIDES, alternating

ROUNDS = 7  # fresh processes per side
REPEATS = 5  # timed calls of each case per process
# (name, flow, rows, samples, store_path)
CASES = [
    *((f"levelset {m}x512", "levelset", m, 512, False) for m in (1, 4, 72, 192, 320)),
    *((f"levelset {m}x4096", "levelset", m, 4096, False) for m in (1, 4, 72, 168)),
    ("levelset 41x4096 path", "levelset", 41, 4096, True),
    ("levelset mu=2 64x512", "levelset mu=2", 64, 512, False),
    *((f"chart {m}x512 path", "chart", m, 512, True) for m in (1, 8)),
    ("field 2x4096 +-0.005", "field", 2, 4096, False),
]

# run in each checkout; prints one JSON object {case: [digest, seconds...]}
WORKER = """
import hashlib, json, sys
from time import perf_counter
import numpy as np
from geolab.extension import extend_normal_field, flow_network_length
from geolab.geodesics import flow_chart, flow_levelset, mk_seed_directions, sample_great_circle
from geolab.networks import GeodesicNetwork
from geolab.surfaces import make_mk, make_sphere, sphere_exp_chart

cases, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
levelsets = {"levelset": make_mk(4.0), "levelset mu=2": make_mk(9.0, 2.0)}
chart, sphere = sphere_exp_chart(1.2), make_sphere()

def call(flow, rows, samples, store):  # one case: a function returning its output arrays
    if flow in levelsets:
        surface = levelsets[flow]
        p, v = mk_seed_directions(surface, rows, 7)
        T = np.where(np.arange(rows) % 2, 4 * np.pi, 2 * np.pi)
        return lambda: flow_levelset(surface, p, v, T, samples, store_path=store)
    if flow == "chart":
        a = np.pi * np.arange(rows) / rows
        x0 = 0.3 * np.stack([np.cos(3 * a), np.sin(5 * a)], axis=1)
        v0 = np.stack([np.cos(a), np.sin(a)], axis=1)
        return lambda: flow_chart(chart, x0, v0, np.full(rows, 0.4), samples, store_path=store)
    planes = ([0, 1, 0], [0, 0, 1])[:rows]
    curves = [sample_great_circle(sphere, [1, 0, 0], v, n=samples) for v in planes]
    net = GeodesicNetwork.build(sphere, curves, clustering_radius=0.01)
    field = extend_normal_field(net, [1.0] * rows, delta=2.0)
    return lambda: [np.array([flow_network_length(net, field, h) for h in (0.005, -0.005)])]

out = {}
for name, flow, rows, samples, store in cases:
    f = call(flow, rows, samples, store)
    digest = hashlib.sha256()
    for a in f():
        digest.update(np.ascontiguousarray(a).tobytes())
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        f()
        times.append(perf_counter() - t0)
    out[name] = [digest.hexdigest(), *times]
print(json.dumps(out))
"""


def worker_run(checkout: Path) -> dict:
    """One fresh process in ``checkout``: {case: [digest, seconds...]}."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, json.dumps(CASES), str(REPEATS)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: worker exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {side: {case[0]: [] for case in CASES} for side in SIDES}
    digests = {side: {} for side in SIDES}
    for r in range(ROUNDS):
        for side in alternating(r):
            for name, (digest, *seconds) in worker_run(checkouts[side]).items():
                times[side][name] += seconds
                digests[side][name] = digest
        print(f"round {r + 1} of {ROUNDS} done", file=sys.stderr, flush=True)
    differ = 0
    print(f"{'case':<24}{'parent ms':>11}{'change ms':>11}{'ratio':>8}  outputs")
    for name, *_ in CASES:
        parent, change = (statistics.median(times[side][name]) for side in SIDES)
        same = digests["parent"][name] == digests["change"][name]
        differ += not same
        print(f"{name:<24}{1e3 * parent:>11.3f}{1e3 * change:>11.3f}{change / parent:>8.3f}  "
              + ("identical" if same else "DIFFER"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
