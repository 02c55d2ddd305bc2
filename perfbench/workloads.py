"""The benchmark's workloads: operations generated from the workload seed.

Each operation is one in-process ``geolab.cli.run`` call, except the
curved-chart reduction, which no CLI command reaches.  geolab receives
only what is generated here from the seed: ``--seed``, ellipsoid
coefficients and the list of k values.  Two operations keep fixed inputs on
purpose, because each fails on every run through a known program fault
(see ``README.md``); that keeps the failed share of a run independent of
the seed.
"""

from __future__ import annotations

import random

# k values whose m-fold equator spectra (m <= 4, grid 512 m) stay clear of
# the GridTooCoarse band; the exactly degenerate ones (m / sqrt(k) an
# integer: k = 4, 9, 16) are kept, since nullity 2 is the analytic answer.
INDEX_K = (2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 20, 25, 50, 100)
MK_SEEDS = 24


def _cli(name, argv, check, **params):
    return {"name": name, "kind": "cli", "argv": argv, "check": check, "params": params}


def mk_search(rng: random.Random):
    seed = rng.randrange(1_000_000)
    return [
        _cli("mk-k100", ["mk-experiment", "--k", "100", "--n-seeds", str(MK_SEEDS), "--seed", str(seed)],
             "mk_experiment", k=100, expect="equator"),
        # fixed inputs: exits 2 through the equator-crossing test in
        # widths.mk_multiplicity_experiment
        _cli("mk-k4", ["mk-experiment", "--k", "4", "--n-seeds", "40", "--seed", "7"],
             "mk_experiment", k=4, expect="meridians"),
    ]


def cover_spectra(rng: random.Random):
    a = [round(rng.uniform(lo, hi), 4) for lo, hi in ((0.92, 0.96), (0.99, 1.01), (1.04, 1.08))]
    ops = [_cli("ellipsoid", ["ellipsoid-experiment", "--a", ",".join(map(str, a))], "ellipsoid", a=a)]
    for k in sorted(rng.sample(INDEX_K, 3)):
        for m in range(1, 5):
            ops.append(_cli(f"index-k{k}-m{m}",
                            ["index", "--k", str(k), "--cover", str(m), "--grid", str(512 * m)],
                            "index", k=k, m=m))
    return ops


def network_surgery(rng: random.Random):
    return [
        _cli("network-lines4", ["network", "--builtin", "concurrent-lines", "--order", "4"],
             "concurrent_lines", order=4),
        _cli("network-circles3", ["network", "--builtin", "three-circles"], "three_circles"),
        _cli("split3", ["split-vertex", "--order", "3"], "split_vertex", order=3),
        _cli("split4", ["split-vertex", "--order", "4"], "split_vertex", order=4),
        _cli("extend2", ["extend-field", "--builtin", "two-circles"], "extend_field"),
        # fixed inputs: the detour keeps geodesic curvature 0.068 after the
        # split (Fermi distance taken in the Euclidean chart metric)
        {"name": "chart-reduction3", "kind": "chart_reduction", "order": 3,
         "check": "chart_reduction", "params": {"order": 3}},
    ]


WORKLOADS = {
    "mk-search": mk_search,
    "cover-spectra": cover_spectra,
    "network-surgery": network_surgery,
}


def operations(workload: str, seed: int):
    """The operations of one pass, the same for the same (workload, seed)."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
