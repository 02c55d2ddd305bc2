"""Output checks for the benchmark's operations.

Every check compares what geolab wrote against a value computed here,
apart from the program (closed-form spectra, ``scipy.special.ellipe``
circumferences, an independent Fourier-Galerkin discretization of the
second variation), or against a property the method must have.  The
program's own ``checks`` and ``properties`` flags are never consulted.

Each check function takes the operation's output directory and its
parameters and returns a list of (name, passed, detail) triples.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

import numpy as np
from scipy.linalg import eigh
from scipy.special import ellipe

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def ellipse_circumference(b: float, c: float) -> float:
    """Circumference of the plane ellipse with semi-axes b and c."""
    hi, lo = max(b, c), min(b, c)
    return float(4.0 * hi * ellipe(1.0 - (lo / hi) ** 2))


def mk_equator_spectrum(k: int, m: int, count: int):
    """Lowest periodic eigenvalues of -phi'' - phi/k on the m-fold equator.

    The equator of x1^2 + x2^2 + x3^2/k = 1 has length 2 pi and constant
    curvature 1/k, so the spectrum on [0, 2 pi m] is (n/m)^2 - 1/k, simple
    for n = 0 and double for n >= 1.  Returns (values, index, nullity); for
    integer k the index and nullity are counted exactly, from the sign of
    n^2 k - m^2.
    """
    n = np.concatenate([[0], np.repeat(np.arange(1, count), 2)])[:count]
    values = (n / m) ** 2 - 1.0 / k
    signs = [n * n * k - m * m for n in range(1, m + 1)]
    index = 1 + 2 * sum(1 for d in signs if d < 0)
    nullity = 2 * sum(1 for d in signs if d == 0)
    return values, index, nullity


def ellipse_on_ellipsoid_spectrum(a, plane: int, m: int):
    """Fourier-Galerkin spectrum of the m-fold coordinate ellipse x_plane = 0.

    The ellipse of a1 x^2 + a2 y^2 + a3 z^2 = 1 in that plane is
    gamma(t) = b cos(t) e_j + c sin(t) e_l.  The second variation of its
    m-fold cover is  int_0^{2 pi m} phi_t^2/|gamma'| - K |gamma'| phi^2 dt
    with K = a1 a2 a3 / (a1^2 x^2 + a2^2 y^2 + a3^2 z^2)^2.  It is
    discretized on the trigonometric basis of period 2 pi m and solved
    against the arclength mass form, so the eigenvalues approximate those
    of -phi'' - K phi in arclength.
    """
    a = np.asarray(a, dtype=float)
    j, l = [i for i in range(3) if i != plane]
    b, c = 1.0 / np.sqrt(a[j]), 1.0 / np.sqrt(a[l])
    n_modes = 4 * m + 24  # well past the frequencies (about m) that can go negative
    n_quad = 8 * (2 * n_modes + 1)
    t = np.arange(n_quad) * (TWO_PI * m / n_quad)
    w = TWO_PI * m / n_quad
    x = np.zeros((n_quad, 3))
    x[:, j] = b * np.cos(t)
    x[:, l] = c * np.sin(t)
    speed = np.hypot(b * np.sin(t), c * np.cos(t))
    K = np.prod(a) / np.sum((a * x) ** 2, axis=1) ** 2
    freq = np.arange(1, n_modes + 1) / m
    ft = np.outer(t, freq)
    basis = np.hstack([np.ones((n_quad, 1)), np.cos(ft), np.sin(ft)])
    dbasis = np.hstack([np.zeros((n_quad, 1)), -np.sin(ft) * freq, np.cos(ft) * freq])
    stiff = dbasis.T @ (dbasis * (w / speed)[:, None]) - basis.T @ (basis * (w * K * speed)[:, None])
    mass = basis.T @ (basis * (w * speed)[:, None])
    return eigh(stiff, mass, eigvals_only=True)


def classify(eigs, tol: float = 1e-6):
    """(index, nullity) of a spectrum with spectral (not 2nd-order) accuracy."""
    eigs = np.asarray(eigs)
    return int(np.sum(eigs < -tol)), int(np.sum(np.abs(eigs) <= tol))


# ---------------------------------------------------------------------------
# file readers
# ---------------------------------------------------------------------------


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())["result"]


def _curve_files(out: Path):
    """(length, samples) per curve CSV; the length comes from the file's own
    uniform arclength column, s_i = i L / n."""
    curves = []
    for path in sorted(out.glob("curve_*.csv")):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        curves.append((float(data[1, 0] * data.shape[0]), data[:, 1:]))
    return curves


def _pair_by_length(records, curves, rel=1e-9):
    """Pair report records with curve files by length, not by file index."""
    recs = sorted(records, key=lambda r: r["length"])
    files = sorted(curves, key=lambda c: c[0])
    if len(recs) != len(files):
        return None
    for r, (L, _) in zip(recs, files):
        if abs(r["length"] - L) > rel * L:
            return None
    return list(zip(recs, files))


# ---------------------------------------------------------------------------
# checks per operation kind
# ---------------------------------------------------------------------------


def check_mk_experiment(out: Path, k: int, expect: str):
    """``expect`` is "equator" (k large: the equator is the only short
    class) or "meridians" (k small: meridians fall under the length cap)."""
    rep = _report(out)
    res = []
    pairs = _pair_by_length(rep["found"], _curve_files(out))
    res.append(("curve files pair with records by length", pairs is not None,
                f"{len(rep['found'])} records"))
    if pairs is None:
        return res
    worst_f, bad_cross = 0.0, 0
    for _, (_, x) in pairs:
        F = x[:, 0] ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2 / k - 1.0
        worst_f = max(worst_f, float(np.max(np.abs(F))))
        x3 = x[:, 2]
        in_equator = np.max(np.abs(x3)) <= 1e-10
        if not (in_equator or (x3.min() < 0.0 < x3.max())):
            bad_cross += 1
    res.append(("samples on the level set |F| <= 1e-10", worst_f <= 1e-10, f"max |F| = {worst_f:.2e}"))
    res.append(("every class meets the equator", bad_cross == 0, f"{bad_cross} classes keep one sign of x3"))

    rows = np.loadtxt(out / "width-bounds.csv", delimiter=",", skiprows=1, ndmin=2)
    werr = max(abs(ub - TWO_PI * p) / p for p, ub in zip(rows[:, 0], rows[:, 1]))
    res.append(("width rows equal p * 2 pi", bool(len(rows) >= 1 and werr <= 1e-9), f"max rel error {werr:.1e}"))

    if expect == "equator":
        short = [(r, x) for r, (_, x) in pairs if r["length"] < TWO_PI + 0.1]
        ok = len(short) == 1
        detail = f"{len(short)} classes shorter than 2 pi + 0.1"
        if ok:
            r, x = short[0]
            _, index, nullity = mk_equator_spectrum(k, 1, 1)
            ok = (
                float(np.max(np.abs(x[:, 2]))) <= 1e-10
                and abs(r["length"] - TWO_PI) <= 1e-8
                and (r["index"], r["nullity"]) == (index, nullity)
            )
            detail += f"; length {r['length']:.12f}, index {r['index']} nullity {r['nullity']} (analytic {index}, {nullity})"
        res.append(("the only short class is the equator with the analytic spectrum", ok, detail))
    else:
        circ = ellipse_circumference(1.0, np.sqrt(k))
        errs = []
        for r, (_, x) in pairs:
            # a meridian lies in a plane through the x3 axis: (x1, x2) collinear
            sv = np.linalg.svd(x[:, :2], compute_uv=False)
            if sv[1] <= 1e-9 * sv[0]:
                errs.append(abs(r["length"] - circ))
        ok = bool(errs) and max(errs) <= 1e-6
        res.append(("meridian lengths equal the ellipe circumference", ok,
                    f"{len(errs)} meridians, max error {max(errs, default=float('nan')):.1e}"))
    return res


def check_index(out: Path, k: int, m: int):
    rep = _report(out)
    eigs = np.array(rep["eigenvalues"])
    exact, index, nullity = mk_equator_spectrum(k, m, len(eigs))
    h = rep["curve"]["length"] * m / rep["grid_size"]
    err = float(np.max(np.abs(eigs - exact)))
    return [
        ("eigenvalues within 5 h^2 of (n/m)^2 - 1/k", err <= 5 * h * h, f"max error {err:.2e}, 5h^2 = {5 * h * h:.2e}"),
        ("index and nullity from the analytic spectrum", (rep["index"], rep["nullity"]) == (index, nullity),
         f"reported ({rep['index']}, {rep['nullity']}), analytic ({index}, {nullity})"),
    ]


def check_ellipsoid(out: Path, a):
    rep = _report(out)
    geos = rep["geodesics"]
    res = [("three coordinate geodesics", len(geos) == 3, f"{len(geos)} found")]
    worst, mismatches = 0.0, []
    for g in geos:
        plane = int(g["plane"][1]) - 1  # "x1=0" -> 0
        j, l = [i for i in range(3) if i != plane]
        circ = ellipse_circumference(1.0 / np.sqrt(a[j]), 1.0 / np.sqrt(a[l]))
        worst = max(worst, abs(g["length"] - circ))
        for m_key, spec in g["spectra_by_cover"].items():
            m = int(m_key)
            want = classify(ellipse_on_ellipsoid_spectrum(a, plane, m))
            if (spec["index"], spec["nullity"]) != want:
                mismatches.append(f"x{plane + 1}=0 m={m}: {spec['index']},{spec['nullity']} vs {want}")
    res.append(("lengths within 1e-6 of the ellipe circumference", worst <= 1e-6, f"max error {worst:.1e}"))
    res.append(("cover index and nullity match the Fourier-Galerkin oracle", not mismatches,
                "; ".join(mismatches) or "all covers agree"))
    return res


def check_concurrent_lines(out: Path, order: int):
    verts = _report(out)["vertices"]
    ok = len(verts) == 1
    if ok:
        v = verts[0]
        want = np.pi * np.arange(order) / order
        got = np.asarray(v["strand_angles"])
        # distance between line directions, i.e. between angles modulo pi
        gap = np.abs(np.angle(np.exp(2j * (got[:, None] - want[None, :])))) / 2
        ok = (
            v["order"] == order == len(got)
            and v["transverse"]
            and np.linalg.norm(v["position"]) <= 1e-9
            and gap.min(axis=0).max() <= 1e-6
        )
    return [("one transverse vertex at the origin with strand angles pi j/d", bool(ok), f"{len(verts)} vertices")]


def check_three_circles(out: Path):
    verts = _report(out)["vertices"]
    want = [s * e for e in np.eye(3) for s in (1.0, -1.0)]
    unmatched = list(range(6))
    for v in verts:
        if v["order"] != 2 or not v["transverse"]:
            continue
        for i in unmatched:
            if np.linalg.norm(np.array(v["position"]) - want[i]) <= 1e-9:
                unmatched.remove(i)
                break
    ok = len(verts) == 6 and not unmatched
    return [("six transverse order-2 vertices at +-e_i", ok, f"{len(verts)} vertices, {len(unmatched)} of +-e_i unmatched")]


def _reduction_checks(orders, transcript, order, transverse=None):
    """``transverse`` is None where the output does not record it."""
    want = comb(order, 2)
    kappa = max(s["curvature_residual_after"] for s in transcript) if transcript else float("inf")
    kind = "order-2" if transverse is None else "transverse order-2"
    return [
        (f"C(d,2) = {want} {kind} vertices after full reduction",
         sorted(orders) == [2] * want and all(transverse or ()), f"orders {sorted(orders)}"),
        ("detour curvature after the split <= 1e-6", kappa <= 1e-6, f"max {kappa:.3e}"),
    ]


def check_split_vertex(out: Path, order: int):
    rep = _report(out)
    return _reduction_checks(rep["final_vertex_orders"], rep["transcript"], order)


def check_chart_reduction(out: Path, order: int):
    rep = json.loads((out / "reduction.json").read_text())
    verts = rep["vertices"]
    return _reduction_checks([v["order"] for v in verts], rep["transcript"], order,
                             transverse=[v["transverse"] for v in verts])


def check_extend_field(out: Path):
    q = _report(out)["Q_flow"]
    target = -4.0 * np.pi
    err = abs(q - target) / abs(target)
    return [("Q_flow within 1e-3 relative of -4 pi", err <= 1e-3, f"Q_flow = {q:.8f}, rel error {err:.1e}")]


CHECKS = {
    "mk_experiment": check_mk_experiment,
    "index": check_index,
    "ellipsoid": check_ellipsoid,
    "concurrent_lines": check_concurrent_lines,
    "three_circles": check_three_circles,
    "split_vertex": check_split_vertex,
    "chart_reduction": check_chart_reduction,
    "extend_field": check_extend_field,
}


def run_check(kind: str, out: Path, params: dict):
    """Run one operation's checks; a missing or malformed output fails them."""
    try:
        return CHECKS[kind](Path(out), **params)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [("outputs readable", False, f"{type(exc).__name__}: {exc}")]
