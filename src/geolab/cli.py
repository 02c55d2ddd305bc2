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

COMMANDS = (
    "find-geodesics",
    "index",
    "network",
    "split-vertex",
    "extend-field",
    "sweepout-bound",
    "mk-experiment",
    "ellipsoid-experiment",
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="geolab",
        description="closed geodesics, Jacobi spectra, networks, and width bounds",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", type=Path, help="JSON config file (flags override)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=Path("geolab-out"))
    ap.add_argument("--grid", type=int, default=None, help="spectral grid size")
    ap.add_argument("--k", type=float, default=None)
    ap.add_argument("--mu", type=float, default=None)
    ap.add_argument("--a", type=str, default=None, help="ellipsoid coefficients a1,a2,a3")
    ap.add_argument("--p", type=int, default=None, help="width level / bound level")
    ap.add_argument("--n-seeds", type=int, default=None)
    ap.add_argument("--cap", type=float, default=None, help="length cap")
    ap.add_argument("--cover", type=int, default=None, help="cover multiplicity")
    ap.add_argument("--order", type=int, default=None, help="synthetic vertex order")
    ap.add_argument("--delta", type=float, default=None)
    ap.add_argument("--flow-step", type=float, default=None)
    ap.add_argument("--builtin", type=str, default=None, help="builtin network name")
    ap.add_argument("--K0", type=float, default=None)
    ap.add_argument("--omega1", type=float, default=None)
    return ap


MAX_TABLE_LEVEL = 1000  # largest p of a sweepout-bound table
GRID_PER_PERIOD = 512  # default index grid points per cover period
# size caps, each keeping its largest run within a few GB (README)
MAX_GRID = 8192  # one banded Bloch block: about 1.5 s, 73 MB peak; bounds 512 * cover too
MAX_N_SEEDS = 5000  # one shooting batch of all seeds
MAX_ORDER = 64  # network --order 64 peaks at 615 MB
MAX_SPLIT_ORDER = 32  # split-vertex --order 32 (30 detours in one ball) peaks at 426 MB

_INT_KEYS = ("seed", "grid", "p", "n_seeds", "cover", "order")
_FLOAT_KEYS = ("cap", "delta", "flow_step", "K0", "omega1")


def load_config(args) -> dict:
    cfg = {}
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigInvalid("config file must hold a JSON object")
    overrides = {
        "seed": args.seed,
        "grid": args.grid,
        "p": args.p,
        "n_seeds": args.n_seeds,
        "cap": args.cap,
        "cover": args.cover,
        "order": args.order,
        "delta": args.delta,
        "flow_step": args.flow_step,
        "builtin": args.builtin,
        "K0": args.K0,
        "omega1": args.omega1,
    }
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    if args.k is not None or args.mu is not None:
        cfg.setdefault("surface", {"type": "mk", "k": 4.0, "mu": 1.0})
        if args.k is not None:
            cfg["surface"]["k"] = args.k
        if args.mu is not None:
            cfg["surface"]["mu"] = args.mu
    if args.a is not None:
        a = [float(x) for x in args.a.split(",")]
        if len(a) != 3:
            raise ConfigInvalid(f"--a needs three coefficients a1,a2,a3, got {len(a)}")
        cfg["surface"] = {"type": "ellipsoid", "a": a}
    for key in _INT_KEYS + _FLOAT_KEYS:
        if key not in cfg or (key == "cap" and cfg[key] is None):  # null cap: no cap
            continue
        val = cfg[key]
        number = isinstance(val, (int, float)) and not isinstance(val, bool)
        integral = number and (isinstance(val, int) or val.is_integer())
        if not (integral if key in _INT_KEYS else number and math.isfinite(val)):
            kind = "an integer" if key in _INT_KEYS else "a finite number"
            raise ConfigInvalid(f"{key} must be {kind}, got {val!r}")
    for key in ("cap", "delta", "flow_step"):
        if cfg.get(key) is not None and cfg[key] <= 0:
            raise ConfigInvalid(f"{key} must be positive")
    for key, low in (("n_seeds", 1), ("p", 1), ("cover", 1), ("order", 2)):
        if key in cfg and cfg[key] < low:
            raise ConfigInvalid(f"{key} must be at least {low}")
    grid = cfg.get("grid", GRID_PER_PERIOD * cfg.get("cover", 1))  # index's default grid
    order_cap = MAX_SPLIT_ORDER if args.command == "split-vertex" else MAX_ORDER
    for key, val, cap in (("grid" if "grid" in cfg else "512 * cover", grid, MAX_GRID),
                          ("n_seeds", cfg.get("n_seeds", 1), MAX_N_SEEDS),
                          ("order", cfg.get("order", 3), order_cap)):
        if val > cap:
            raise ConfigInvalid(f"{key} must be at most {cap}, got {val}")
    if "surface" in cfg:
        surface_from_config(cfg["surface"])
    cfg["seed"] = int(cfg.get("seed", 0))
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


def _surface_from(cfg, default=None):
    spec = cfg.get("surface", default or {"type": "mk", "k": 4.0, "mu": 1.0})
    return surface_from_config(spec), spec


def _synthetic_network(name: str, order: int = 3):
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
    surf_spec = cfg.get("surface", {"type": "mk", "k": 4.0, "mu": 1.0})
    if surf_spec.get("type") != "mk":
        raise ConfigInvalid("find-geodesics runs on mk surfaces")
    rep = mk_multiplicity_experiment(
        k=float(surf_spec["k"]),
        mu=float(surf_spec.get("mu", 1.0)),
        length_cap=cfg.get("cap"),
        n_seeds=int(cfg.get("n_seeds", 40)),
        seed=int(cfg["seed"]),
        spectra=False,
        keep_curves=True,
    )
    _write_found_curves(rep, out)
    return rep, rep["properties"]


def cmd_index(cfg, out: Path):
    surface, spec = _surface_from(cfg)
    curve = sample_level_circle(surface, 0.0)
    cover = int(cfg.get("cover", 1))
    rep = jacobi_spectrum(
        curve,
        surface,
        cover_multiplicity=cover,
        grid_size=int(cfg.get("grid", GRID_PER_PERIOD * cover)),
    )
    payload = rep.to_json_dict()
    payload["curve"] = curve.to_record()
    if spec.get("type") == "mk":
        payload["degeneracy_criterion"] = degeneracy_criterion_mk(
            float(spec["k"]), cover
        )
    write_svg_eigenvalues(
        out / "eigenvalues.svg", payload["eigenvalues"], rep.zero_tolerance,
        title="periodic Jacobi spectrum",
    )
    return payload, {}


def cmd_network(cfg, out: Path):
    net = _synthetic_network(cfg.get("builtin", "two-circles"), int(cfg.get("order", 3)))
    payload = net.to_json_dict()
    checks = {}
    if cfg.get("p") is not None:
        bounds = check_appendix_bounds(
            net,
            int(cfg["p"]),
            float(cfg.get("K0", 1.0)),
            float(cfg.get("omega1", 2 * np.pi)),
        )
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
    order = int(cfg.get("order", 3))
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
    net = _synthetic_network(cfg.get("builtin", "two-circles"))
    phis = [1.0] * len(net.curves)
    X = extend_normal_field(net, phis, delta=float(cfg.get("delta", 2.0)))
    rep = verify_second_variation_match(
        net, phis, X, flow_step=float(cfg.get("flow_step", 0.005))
    )
    return rep, {"rel_error_small": rep["rel_error"] <= 1e-3}


def cmd_sweepout_bound(cfg, out: Path):
    surface, spec = _surface_from(cfg)
    p_max = int(cfg.get("p", 5))
    if p_max > MAX_TABLE_LEVEL:  # one table row per level
        raise ConfigInvalid(f"p must be at most {MAX_TABLE_LEVEL} here, got {p_max}")
    sweep = level_circle_sweepout(surface)
    reference = (lambda l: 2 * np.pi * l) if spec.get("type") == "mk" else round_sphere_width
    table = width_table(sweep, p_max, reference)
    _write_width_bounds(out, table)
    payload = {"max_mass": sweep.max_mass, "table": table}
    return payload, {}


def cmd_mk_experiment(cfg, out: Path):
    spec = cfg.get("surface", {"type": "mk", "k": 100.0, "mu": 1.0})
    rep = mk_multiplicity_experiment(
        k=float(spec.get("k", 100.0)),
        mu=float(spec.get("mu", 1.0)),
        length_cap=cfg.get("cap"),
        n_seeds=int(cfg.get("n_seeds", 200)),
        seed=int(cfg["seed"]),
        keep_curves=True,
    )
    _write_found_curves(rep, out)
    _write_width_bounds(out, rep["width_bounds"])
    return rep, rep["properties"]


def cmd_ellipsoid_experiment(cfg, out: Path):
    spec = cfg.get("surface", {"type": "ellipsoid", "a": [0.96, 1.0, 1.04]})
    a = spec.get("a", [0.96, 1.0, 1.04])
    rep = ellipsoid_experiment(float(a[0]), float(a[1]), float(a[2]))
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
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        cfg = load_config(args)
        payload, checks = HANDLERS[args.command](cfg, out)
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
