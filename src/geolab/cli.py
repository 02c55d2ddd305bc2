"""Command-line entry point: runs experiments and writes reports.

Reports are deterministic: JSON with sorted keys, CSV tables, and small
hand-rolled SVG plots (no timestamps, fixed float formatting), so identical
configurations produce byte-identical outputs.  Exit codes: 0 success, 2 a
property check failed, 1 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigInvalid, GeolabError
from .geodesics import curve_from_samples, sample_great_circle, sample_level_circle
from .jacobi import degeneracy_criterion_mk, jacobi_spectrum
from .networks import GeodesicNetwork, check_appendix_bounds, weighted_vertex_count
from .splitting import split_vertex
from .extension import extend_normal_field, verify_second_variation_match
from .surfaces import make_flat_chart, make_sphere, surface_from_config
from .widths import (
    ellipsoid_experiment,
    level_circle_sweepout,
    mk_multiplicity_experiment,
    round_sphere_width,
    width_table,
)

MK4 = {"type": "mk", "k": 4.0, "mu": 1.0}
# each command's keys and their defaults, what it runs with where neither the
# config nor a flag gives the key; any other key exits 1
DEFAULTS = {
    "find-geodesics": {"surface": MK4, "n_seeds": 40, "cap": None, "seed": 0},
    "index": {"surface": MK4, "cover": 1, "grid": None},  # grid None: 512 points per period
    "network": {"builtin": "two-circles", "order": 3, "p": None, "K0": 1.0, "omega1": 2 * np.pi},
    "split-vertex": {"order": 3},
    "extend-field": {"builtin": "two-circles", "delta": 2.0, "flow_step": 0.005},
    "sweepout-bound": {"surface": MK4, "p": 5},
    "mk-experiment": {
        "surface": {"type": "mk", "k": 100.0, "mu": 1.0}, "n_seeds": 200, "cap": None, "seed": 0,
    },
    "ellipsoid-experiment": {"surface": {"type": "ellipsoid", "a": [0.96, 1.0, 1.04]}},
}
COMMANDS = tuple(DEFAULTS)
# the one surface type a command runs on; the others take any surface
SURFACE_TYPES = {
    "find-geodesics": "mk",
    "mk-experiment": "mk",
    "ellipsoid-experiment": "ellipsoid",
}
# config key -> (type, help); each key is also a flag, --n-seeds for n_seeds
_KEYS = {
    "seed": (int, "seed of the shooting directions"),
    "grid": (int, "grid points on the whole cover"),
    "p": (int, "width level / bound level"),
    "n_seeds": (int, "number of shooting seeds"),
    "cap": (float, "length cap"),
    "cover": (int, "cover multiplicity"),
    "order": (int, "synthetic vertex order"),
    "delta": (float, "length bound of the extended field's support"),
    "flow_step": (float, "step of the second-variation flow"),
    "builtin": (str, "builtin network name"),
    "K0": (float, "curvature lower bound of the appendix bounds"),
    "omega1": (float, "first width of the appendix bounds"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with an error.json; exit 2 means a failed check
        raise ConfigInvalid(message)


# --out alone, read first so that a command line that does not parse has its error.json
_OUT = _Parser(add_help=False)
_OUT.add_argument("--out", type=Path, default=Path("geolab-out"), help="output directory")


def build_parser() -> argparse.ArgumentParser:
    def read_by(key):  # the commands whose DEFAULTS row holds the key
        return "; read by " + ", ".join(c for c in COMMANDS if key in DEFAULTS[c])

    ap = _Parser(
        prog="geolab",
        description="closed geodesics, Jacobi spectra, networks, and width bounds",
        parents=[_OUT],
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", type=Path, help="JSON config file (flags override)")
    for flag, kind, text in (("--k", float, "mk surface k"), ("--mu", float, "mk surface mu"),
                             ("--a", str, "ellipsoid coefficients a1,a2,a3")):
        ap.add_argument(flag, type=kind, help=text + read_by("surface"))
    for key, (kind, text) in _KEYS.items():
        ap.add_argument("--" + key.replace("_", "-"), type=kind, help=text + read_by(key))
    return ap


MAX_TABLE_LEVEL = 1000  # largest p of a sweepout-bound table
GRID_PER_PERIOD = 512  # default index grid points per cover period
# size caps, each keeping its largest run within a few GB (README)
MAX_GRID = 8192  # one banded Bloch block: about 1.5 s, 73 MB peak; bounds 512 * cover too
MAX_N_SEEDS = 5000  # one shooting batch of all seeds
MAX_ORDER = 64  # network --order 64 peaks at 615 MB
MAX_SPLIT_ORDER = 32  # split-vertex --order 32 (30 detours in one ball) peaks at 426 MB


def _cover_grid(cfg) -> int:
    """Grid points on the whole cover: ``grid``, or 512 per period."""
    return GRID_PER_PERIOD * cfg["cover"] if cfg["grid"] is None else cfg["grid"]


def load_config(args) -> dict:
    """The config file's keys with the flags over them, plus ``seed`` where
    the command reads it.  A key outside its DEFAULTS row exits 1.

    Types are checked on these keys; bounds, caps and the surface type on
    what the command runs with, its DEFAULTS with these keys over them.
    """
    cfg, row = {}, DEFAULTS[args.command]
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigInvalid("config file must hold a JSON object")
    for key in _KEYS:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if args.k is not None or args.mu is not None:  # edit the command's own mk surface
        own = row.get("surface", MK4)
        surface = cfg.setdefault("surface", dict(own if own["type"] == "mk" else MK4))
        if isinstance(surface, dict):  # any other spec fails surface_from_config below
            if args.k is not None:
                surface["k"] = args.k
            if args.mu is not None:
                surface["mu"] = args.mu
    if args.a is not None:
        a = [float(x) for x in args.a.split(",")]
        if len(a) != 3:
            raise ConfigInvalid(f"--a needs three coefficients a1,a2,a3, got {len(a)}")
        cfg["surface"] = {"type": "ellipsoid", "a": a}
    unread = sorted(set(cfg) - set(row))  # --k, --mu and --a give surface
    if unread:
        raise ConfigInvalid(f"{args.command} does not read {unread[0]!r}; its keys: {', '.join(row)}")
    for key, (kind, _) in _KEYS.items():
        if kind is str or key not in cfg or (key == "cap" and cfg[key] is None):  # null cap: no cap
            continue
        val = cfg[key]
        number = isinstance(val, (int, float)) and not isinstance(val, bool)
        integral = number and (isinstance(val, int) or val.is_integer())
        if not (integral if kind is int else number and math.isfinite(val)):
            what = "an integer" if kind is int else "a finite number"
            raise ConfigInvalid(f"{key} must be {what}, got {val!r}")
    runs = {**row, **cfg}
    for key in ("cap", "delta", "flow_step"):
        if runs.get(key) is not None and runs[key] <= 0:
            raise ConfigInvalid(f"{key} must be positive")
    for key, low in (("n_seeds", 1), ("p", 1), ("cover", 1), ("order", 2)):
        if runs.get(key) is not None and runs[key] < low:
            raise ConfigInvalid(f"{key} must be at least {low}")
    grid = _cover_grid(runs) if "cover" in runs else None
    order_cap = MAX_SPLIT_ORDER if args.command == "split-vertex" else MAX_ORDER
    for key, val, cap in (("grid" if "grid" in cfg else "512 * cover", grid, MAX_GRID),
                          ("n_seeds", runs.get("n_seeds"), MAX_N_SEEDS),
                          ("order", runs.get("order"), order_cap)):
        if val is not None and val > cap:
            raise ConfigInvalid(f"{key} must be at most {cap}, got {val}")
    if "surface" in cfg:
        surface_from_config(cfg["surface"])
        wanted = SURFACE_TYPES.get(args.command)
        if wanted is not None and cfg["surface"]["type"] != wanted:
            raise ConfigInvalid(f"{args.command} runs on {wanted} surfaces")
    if args.command == "extend-field" and runs["builtin"] not in ("two-circles", "three-circles"):
        raise ConfigInvalid(  # the concurrent lines are open curves in a chart
            f"extend-field extends two-circles and three-circles, got {runs['builtin']!r}")
    if "seed" in row:  # the shooting commands echo the seed they draw from
        cfg["seed"] = int(runs["seed"])
    return cfg


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def write_json(path: Path, payload: dict):
    """Strict JSON: a NaN or infinity raises ValueError before the file is written."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def write_csv(path: Path, header, rows):
    """Rows of Python ints and floats, each written as its repr."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_curve_csv(path: Path, curve):
    n = curve.samples.shape[0]
    s = np.arange(n) * (curve.length / n)
    cols = ["s"] + (["x1", "x2", "x3"] if curve.samples.shape[1] == 3 else ["u", "v"])
    write_csv(path, cols, np.column_stack([s, curve.samples]).tolist())


def write_svg_curves(path: Path, traces, title=""):
    """Plan-view polyline plot (x1, x2 for ambient curves; u, v for charts)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    pts_all = np.vstack([t[1] for t in traces])
    lo = pts_all.min(axis=0)
    hi = pts_all.max(axis=0)
    span = max((hi - lo).max(), 1e-9)
    size = 640.0
    margin = 40.0

    def sx(p):
        return margin + (p[0] - lo[0]) / span * (size - 2 * margin)

    def sy(p):
        return size - margin - (p[1] - lo[1]) / span * (size - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<title>{title}</title>',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for i, (name, pts) in enumerate(traces):
        pl = " ".join(f"{sx(p):.2f},{sy(p):.2f}" for p in pts[:: max(1, len(pts) // 512)])
        parts.append(
            f'<polyline points="{pl}" fill="none" '
            f'stroke="{colors[i % len(colors)]}" stroke-width="1.2"/>'
        )
        parts.append(
            f'<text x="{margin:.0f}" y="{margin + 14 * i:.0f}" font-size="12" '
            f'fill="{colors[i % len(colors)]}">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def write_svg_eigenvalues(path: Path, eigenvalues, zero_tol, title=""):
    path.parent.mkdir(parents=True, exist_ok=True)
    eigs = list(eigenvalues)[:14]
    width, height, margin = 640.0, 360.0, 45.0
    lo = min(eigs + [-zero_tol]) - 0.5
    hi = max(eigs + [zero_tol]) + 0.5

    def y(v):
        return height - margin - (v - lo) / (hi - lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f"<title>{title}</title>",
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{margin}" y1="{y(0):.2f}" x2="{width - margin}" '
        f'y2="{y(0):.2f}" stroke="#999" stroke-dasharray="4"/>',
    ]
    for i, ev in enumerate(eigs):
        x0 = margin + 14 + i * (width - 2 * margin - 28) / max(1, len(eigs) - 1)
        color = "#d62728" if ev < -zero_tol else ("#999999" if abs(ev) <= zero_tol else "#1f77b4")
        parts.append(
            f'<line x1="{x0 - 10:.2f}" y1="{y(ev):.2f}" x2="{x0 + 10:.2f}" '
            f'y2="{y(ev):.2f}" stroke="{color}" stroke-width="3"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------


def _synthetic_network(name: str, order: int):
    if name == "two-circles":
        sph = make_sphere()
        curves = [
            sample_great_circle(sph, [1, 0, 0], [0, 1, 0]),
            sample_great_circle(sph, [1, 0, 0], [0, 0, 1]),
        ]
        return GeodesicNetwork.build(sph, curves, clustering_radius=0.01)
    if name == "three-circles":
        sph = make_sphere()
        curves = [
            sample_great_circle(sph, [1, 0, 0], [0, 1, 0]),
            sample_great_circle(sph, [1, 0, 0], [0, 0, 1]),
            sample_great_circle(sph, [0, 1, 0], [0, 0, 1]),
        ]
        return GeodesicNetwork.build(sph, curves, clustering_radius=0.01)
    if name == "concurrent-lines":
        chart = make_flat_chart(2.6, 2.6)
        n = 6000
        angles = [np.pi * j / order for j in range(order)]
        curves = []
        for ang in angles:
            t = np.linspace(-1.0, 1.0, n)
            d = np.array([np.cos(ang), np.sin(ang)])
            curves.append(curve_from_samples(chart, np.outer(t, d), closed=False))
        return GeodesicNetwork.build(chart, curves, clustering_radius=0.01)
    raise ConfigInvalid(f"unknown builtin network {name!r}")


def _write_found_curves(rep, out: Path):
    curves = rep.pop("_curves", [])
    traces = []
    for i, cur in enumerate(curves):
        write_curve_csv(out / f"curve_{i:02d}.csv", cur)
        traces.append((f"curve {i} (L={cur.length:.4f})", cur.samples[:, :2]))
    if traces:
        write_svg_curves(out / "curves.svg", traces, title="found closed geodesics")


def _write_width_bounds(out: Path, table):
    rows = [[w["p"], w["upper_bound"], w["reference"], w["gap"]] for w in table]
    write_csv(out / "width-bounds.csv", ["l", "upper_bound", "reference", "gap"], rows)


def cmd_find_geodesics(cfg, out: Path):
    rep = mk_multiplicity_experiment(
        **surface_from_config(cfg["surface"]).builtin_params,  # k and mu
        length_cap=cfg["cap"],
        n_seeds=int(cfg["n_seeds"]),
        seed=cfg["seed"],
        spectra=False,
        keep_curves=True,
    )
    _write_found_curves(rep, out)
    return rep, rep["properties"]


def cmd_index(cfg, out: Path):
    spec = cfg["surface"]
    surface = surface_from_config(spec)
    curve = sample_level_circle(surface, 0.0)
    cover = int(cfg["cover"])
    rep = jacobi_spectrum(curve, surface, cover_multiplicity=cover, grid_size=int(_cover_grid(cfg)))
    payload = rep.to_json_dict()
    payload["curve"] = curve.to_record()
    if spec["type"] == "mk":
        payload["degeneracy_criterion"] = degeneracy_criterion_mk(
            float(spec["k"]), cover
        )
    write_svg_eigenvalues(
        out / "eigenvalues.svg", payload["eigenvalues"], rep.zero_tolerance,
        title="periodic Jacobi spectrum",
    )
    return payload, {}


def cmd_network(cfg, out: Path):
    net = _synthetic_network(cfg["builtin"], int(cfg["order"]))
    payload = net.to_json_dict()
    checks = {}
    if cfg["p"] is not None:
        bounds = check_appendix_bounds(net, int(cfg["p"]), float(cfg["K0"]), float(cfg["omega1"]))
        payload["appendix_bounds"] = bounds
        checks = {
            "edge_bound_ok": bounds.get("edge_bound_ok", True),
            "length_bound_ok": bounds.get("length_bound_ok", True),
        }
    write_svg_curves(
        out / "network.svg",
        [(f"curve {i}", c.samples[:, :2]) for i, c in enumerate(net.curves)],
        title="network plan view",
    )
    return payload, checks


def cmd_split_vertex(cfg, out: Path):
    order = int(cfg["order"])
    net = _synthetic_network("concurrent-lines", order)
    surface = net.ambient_surface
    vertex = net.vertices[0]
    surface, net2, transcript = split_vertex(surface, net, vertex)
    payload = {
        "initial_order": order,
        "transcript": transcript,
        "final_vertex_orders": sorted(v.order for v in net2.vertices),
        "weighted_vertex_count": weighted_vertex_count(net2.vertices),
    }
    checks = {
        "all_order_two": all(v.order == 2 for v in net2.vertices),
        "count_conserved": weighted_vertex_count(net2.vertices)
        == order * (order - 1) // 2,
        "curvature_ok": all(
            s["curvature_residual_after"] <= 1e-6 for s in transcript
        ),
    }
    write_svg_curves(
        out / "split-network.svg",
        [(f"curve {i}", c.samples[:, :2]) for i, c in enumerate(net2.curves)],
        title="network after full reduction",
    )
    return payload, checks


def cmd_extend_field(cfg, out: Path):
    net = _synthetic_network(cfg["builtin"], DEFAULTS["network"]["order"])
    phis = [1.0] * len(net.curves)
    X = extend_normal_field(net, phis, delta=float(cfg["delta"]))
    rep = verify_second_variation_match(net, phis, X, flow_step=float(cfg["flow_step"]))
    return rep, {"rel_error_small": rep["rel_error"] <= 1e-3}


def cmd_sweepout_bound(cfg, out: Path):
    p_max = int(cfg["p"])
    if p_max > MAX_TABLE_LEVEL:  # one table row per level
        raise ConfigInvalid(f"p must be at most {MAX_TABLE_LEVEL} here, got {p_max}")
    sweep = level_circle_sweepout(surface_from_config(cfg["surface"]))
    reference = (lambda l: 2 * np.pi * l) if cfg["surface"]["type"] == "mk" else round_sphere_width
    table = width_table(sweep, p_max, reference)
    _write_width_bounds(out, table)
    payload = {"max_mass": sweep.max_mass, "table": table}
    return payload, {}


def cmd_mk_experiment(cfg, out: Path):
    rep = mk_multiplicity_experiment(
        **surface_from_config(cfg["surface"]).builtin_params,  # k and mu
        length_cap=cfg["cap"],
        n_seeds=int(cfg["n_seeds"]),
        seed=cfg["seed"],
        keep_curves=True,
    )
    _write_found_curves(rep, out)
    _write_width_bounds(out, rep["width_bounds"])
    return rep, rep["properties"]


def cmd_ellipsoid_experiment(cfg, out: Path):
    rep = ellipsoid_experiment(**surface_from_config(cfg["surface"]).builtin_params)
    checks = {
        "all_found": len(rep["geodesics"]) == 3,
        "nondegenerate": all(
            d["nondegenerate_all_covers"] for d in rep["geodesics"]
        ),
        "lengths_match_quadrature": all(
            d["length_error"] <= 1e-6 for d in rep["geodesics"]
        ),
        "not_all_ones": not rep["attribution"]["all_ones_admissible"],
    }
    return rep, checks


HANDLERS = {
    "find-geodesics": cmd_find_geodesics,
    "index": cmd_index,
    "network": cmd_network,
    "split-vertex": cmd_split_vertex,
    "extend-field": cmd_extend_field,
    "sweepout-bound": cmd_sweepout_bound,
    "mk-experiment": cmd_mk_experiment,
    "ellipsoid-experiment": cmd_ellipsoid_experiment,
}


def run(argv=None) -> int:
    out = Path("geolab-out")
    try:
        out = _OUT.parse_known_args(argv)[0].out
        args = build_parser().parse_args(argv)
        cfg = load_config(args)
        payload, checks = HANDLERS[args.command]({**DEFAULTS[args.command], **cfg}, out)
        report = {
            "tool": "geolab",
            "version": __version__,
            "command": args.command,
            "config": cfg,
            "checks": checks,
            "result": payload,
        }
        write_json(out / "report.json", report)  # ValueError on a non-finite value
    except (GeolabError, ValueError) as exc:
        write_json(
            out / "error.json",
            {"error": type(exc).__name__, "message": str(exc)},
        )
        print(f"geolab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    failed = [k for k, v in checks.items() if v is False]
    if failed:
        print(f"geolab: property checks failed: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
