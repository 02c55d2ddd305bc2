"""Span tracing of geolab's layers, installed from outside the program.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, operation id) plus a few
work counts taken from the call's arguments or result.  A function that
other geolab modules brought in with ``from .x import y`` is replaced under
every name that refers to it, so calls from any module are seen.  Spans are
kept in memory and written out once, by ``Tracer.dump``.

Per-point primitives called hundreds of thousands of times per pass
(``SurfaceModel.level``, ``grad``, ``hess``) are deliberately not wrapped:
their wrapper cost would dwarf their own and distort what is measured.

``per_layer`` turns a span file into the per-layer metrics listed in
``BENCHMARK.json``.  A span's self time is its duration minus the durations
of its child spans (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rows(x, dim):
    return int(np.asarray(x).size // dim)


def _count_flow_levelset(args, kwargs, result):
    rows = _rows(_arg(args, kwargs, 1, "P0"), 3)
    steps = int(_arg(args, kwargs, 4, "n_steps", 4096))
    path = _arg(args, kwargs, 5, "store_path", False)
    path_bytes = rows * (steps + 1) * 3 * 8 if path else 0
    return {"row_steps": rows * steps, "path_bytes": path_bytes}


def _count_shoot(args, kwargs, result):
    return {
        "seeds": _rows(_arg(args, kwargs, 1, "seeds_p"), 3),
        "converged": int(np.sum(result["ok"])),
    }


def _count_flow_chart(args, kwargs, result):
    return {"steps": int(_arg(args, kwargs, 4, "n_steps", 512))}


def _count_hausdorff(args, kwargs, result):
    return {"points": len(args[0]) + len(args[1])}


def _count_spectrum(args, kwargs, result):
    n = int(result.grid_size)
    return {"grid_points": n, "dense_n3": n**3, "matrix_bytes": n * n * 8}


def _count_chart_points(args, kwargs, result):
    return {"points": _rows(_arg(args, kwargs, 1, "pts"), 2)}


def _count_curvature(args, kwargs, result):
    return {"points": int(np.size(result))}


def _count_project(args, kwargs, result):
    pts = np.asarray(result)
    return {"points": int(pts.size // pts.shape[-1])}


def _count_vertices(args, kwargs, result):
    curves = _arg(args, kwargs, 0, "curves")
    segs = sum(c.n if c.closed else c.n - 1 for c in curves)
    return {"segments": segs, "vertices": len(result)}


def _count_field(args, kwargs, result):
    return {"points": int(np.asarray(result).shape[0])}


# (module, attribute path, counter).  Writers in geolab.cli are traced so
# that time spent producing report files is separable from computation.
TARGETS = (
    ("geolab.geodesics", "flow_levelset", _count_flow_levelset),
    ("geolab.geodesics", "shoot_closed_batch", _count_shoot),
    ("geolab.geodesics", "close_geodesic", None),
    ("geolab.geodesics", "flow_chart", _count_flow_chart),
    ("geolab.geodesics", "hausdorff_distance", _count_hausdorff),
    ("geolab.jacobi", "jacobi_spectrum", _count_spectrum),
    ("geolab.surfaces", "christoffel_batch", _count_chart_points),
    ("geolab.surfaces", "gauss_curvature", _count_curvature),
    ("geolab.surfaces", "SurfaceModel.project", _count_project),
    ("geolab.networks", "detect_vertices", _count_vertices),
    ("geolab.networks", "GeodesicNetwork.build", None),
    ("geolab.splitting", "split_vertex", None),
    ("geolab.splitting", "conformal_factor_for", None),
    ("geolab.extension", "AmbientField.evaluation", _count_field),
    ("geolab.extension", "flow_network_length", None),
    ("geolab.extension", "extend_normal_field", None),
    ("geolab.widths", "mk_multiplicity_experiment", None),
    ("geolab.widths", "level_circle_sweepout", None),
    ("geolab.widths", "ellipsoid_experiment", None),
    ("geolab.cli", "write_json", None),
    ("geolab.cli", "write_csv", None),
    ("geolab.cli", "write_curve_csv", None),
    ("geolab.cli", "write_svg_curves", None),
    ("geolab.cli", "write_svg_eigenvalues", None),
)

WRITERS = tuple(
    f"cli.{attr}" for mod, attr, _ in TARGETS if mod == "geolab.cli"
)


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        self.spans = []  # [parent, op, name, t0, t1, counts]
        self._stack = []
        self.op = -1

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                counts = None
                if counter is not None and result is not None:
                    counts = counter(args, kwargs, result)
                spans[sid] = [parent, self.op, name, t0, t1, counts]

        return traced

    def install(self):
        """Wrap every target, under every geolab module name bound to it."""
        geolab_mods = [
            m for k, m in sorted(sys.modules.items())
            if (k == "geolab" or k.startswith("geolab.")) and m is not None
        ]
        for modname, path, counter in TARGETS:
            mod = importlib.import_module(modname)
            name = modname.split(".", 1)[1] + "." + path
            if "." in path:
                clsname, meth = path.split(".")
                cls = getattr(mod, clsname)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, counter)))
                else:
                    setattr(cls, meth, self._wrap(name, raw, counter))
                continue
            orig = getattr(mod, path)
            traced = self._wrap(name, orig, counter)
            for m in geolab_mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def per_layer(spans, traced_wall_s, untraced_wall_s, output_bytes):
    """Per-layer metrics from recorded spans, as {name: (value, unit)}."""
    n = len(spans)
    dur = np.array([s[4] - s[3] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for s in spans:
        if s[0] >= 0:
            child[s[0]] += s[4] - s[3]
    self_t = dur - child
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[2], []).append(i)

    def self_s(name):
        return float(sum(self_t[i] for i in by_name.get(name, ())))

    def incl_s(name):
        return float(sum(dur[i] for i in by_name.get(name, ())))

    def total(name, key):
        return int(sum((spans[i][5] or {}).get(key, 0) for i in by_name.get(name, ())))

    def peak(name, key):
        return int(max([(spans[i][5] or {}).get(key, 0) for i in by_name.get(name, ())] or [0]))

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    shoot = set(by_name.get("geodesics.shoot_closed_batch", ()))
    newton = sum(1 for i in by_name.get("geodesics.flow_levelset", ()) if spans[i][0] in shoot)
    writers = set(WRITERS)
    write_s = sum(
        dur[i] for i, s in enumerate(spans)
        if s[2] in writers and (s[0] < 0 or spans[s[0]][2] not in writers)
    )
    mb = 1.0 / 2**20

    fl = "geodesics.flow_levelset"
    dv = "networks.detect_vertices"
    ev = "extension.AmbientField.evaluation"
    js = "jacobi.jacobi_spectrum"
    m = {
        f"{fl}.self_s": (self_s(fl), "s"),
        f"{fl}.row_steps": (total(fl, "row_steps"), "count"),
        f"{fl}.ns_per_row_step": (per(self_s(fl), total(fl, "row_steps"), 1e9), "ns"),
        f"{fl}.path_mb": (peak(fl, "path_bytes") * mb, "MB"),
        "geodesics.shoot_closed_batch.seeds": (total("geodesics.shoot_closed_batch", "seeds"), "count"),
        "geodesics.shoot_closed_batch.converged": (total("geodesics.shoot_closed_batch", "converged"), "count"),
        "geodesics.shoot_closed_batch.newton_iters": (newton, "count"),
        "geodesics.shoot_closed_batch.self_s": (self_s("geodesics.shoot_closed_batch"), "s"),
        "geodesics.close_geodesic.s": (incl_s("geodesics.close_geodesic"), "s"),
        "geodesics.flow_chart.steps": (total("geodesics.flow_chart", "steps"), "count"),
        "geodesics.flow_chart.self_s": (self_s("geodesics.flow_chart"), "s"),
        "geodesics.hausdorff_distance.points": (total("geodesics.hausdorff_distance", "points"), "count"),
        "geodesics.hausdorff_distance.self_s": (self_s("geodesics.hausdorff_distance"), "s"),
        f"{js}.calls": (len(by_name.get(js, ())), "count"),
        f"{js}.grid_points": (total(js, "grid_points"), "count"),
        f"{js}.dense_n3": (total(js, "dense_n3"), "count"),
        f"{js}.self_s": (self_s(js), "s"),
        f"{js}.matrix_mb": (peak(js, "matrix_bytes") * mb, "MB"),
    }
    for name in ("surfaces.christoffel_batch", "surfaces.gauss_curvature", "surfaces.SurfaceModel.project"):
        m[f"{name}.points"] = (total(name, "points"), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m.update({
        f"{dv}.segments": (total(dv, "segments"), "count"),
        f"{dv}.vertices": (total(dv, "vertices"), "count"),
        f"{dv}.self_s": (self_s(dv), "s"),
        f"{dv}.us_per_segment": (per(self_s(dv), total(dv, "segments"), 1e6), "us"),
        "networks.GeodesicNetwork.build.self_s": (self_s("networks.GeodesicNetwork.build"), "s"),
        "splitting.split_vertex.calls": (len(by_name.get("splitting.split_vertex", ())), "count"),
        "splitting.split_vertex.self_s": (self_s("splitting.split_vertex"), "s"),
        "splitting.conformal_factor_for.self_s": (self_s("splitting.conformal_factor_for"), "s"),
        f"{ev}.points": (total(ev, "points"), "count"),
        f"{ev}.self_s": (self_s(ev), "s"),
        f"{ev}.us_per_point": (per(self_s(ev), total(ev, "points"), 1e6), "us"),
        "extension.flow_network_length.self_s": (self_s("extension.flow_network_length"), "s"),
        "extension.extend_normal_field.self_s": (self_s("extension.extend_normal_field"), "s"),
        "widths.mk_multiplicity_experiment.self_s": (self_s("widths.mk_multiplicity_experiment"), "s"),
        "widths.level_circle_sweepout.self_s": (self_s("widths.level_circle_sweepout"), "s"),
        "widths.ellipsoid_experiment.self_s": (self_s("widths.ellipsoid_experiment"), "s"),
        "cli.write_s": (float(write_s), "s"),
        "cli.output_bytes": (int(output_bytes), "bytes"),
        "trace.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
    })
    return m
