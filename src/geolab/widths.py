"""Sweepout width bounds and the multiplicity experiments.

Widths are never computed as true infima here; every reported figure is
either an upper bound from an explicit sweepout or a reference value, and
reports label which.  The basic construction sweeps a surface of revolution
by its level circles and sums p time-shifted copies of that 1-sweepout,
giving the bound  omega_p <= p * omega_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SeedBudgetExhausted
from .geodesics import (
    DEFAULT_STEPS,
    aligned_bound,
    curves_from_shots,
    hausdorff_distance,
    level_circle_radius2,
    mk_seed_directions,
    sample_level_circle,
    shoot_closed_batch,
)
from .jacobi import cover_spectra, degeneracy_criterion_mk, jacobi_spectrum
from .networks import GeodesicNetwork
from .surfaces import SurfaceModel, make_ellipsoid, make_mk, mk_height

P_TABLE = 5  # levels of the mk width table
SEED_BUDGET = 6  # ellipsoid shooting attempts, each with a 1% longer period
MAX_COVER = 3  # covers whose spectra the ellipsoid experiment checks
P_ATTRIBUTION = 4  # width level of the ellipsoid multiplicity attribution
CIRCLE_POINTS = 2048  # samples of the quadrature level circle of a sweepout


@dataclass
class OneSweepout:
    """Level-circle sweepout of a surface of revolution."""

    t_values: np.ndarray
    heights: np.ndarray
    masses: np.ndarray
    max_mass: float
    argmax_t: float
    surface: SurfaceModel


@dataclass
class WidthBound:
    p: int
    upper_bound: float
    construction: str

    def to_json_dict(self) -> dict:
        return {
            "p": int(self.p),
            "upper_bound": float(self.upper_bound),
            "construction": self.construction,
            "label": "upper bound (constructed sweepout)",
        }


def level_circle_sweepout(surface: SurfaceModel, samples: int = 512) -> OneSweepout:
    """Sweep from pole to pole by the level circles x3 = c(t).

    The sample count is rounded up to an odd number so the equator t = 1/2
    (the mass maximum) lies on the grid.  Heights follow
    c(t) = -zmax cos(pi t), which makes the mass Lipschitz in t all the way
    into the degenerate pole endpoints (linear height would leave a
    square-root kink there).
    """
    if surface.name not in ("mk", "sphere"):
        raise ValueError("level-circle sweepout needs an mk surface or the sphere")
    zmax = mk_height(surface) if surface.name == "mk" else 1.0
    n = samples if samples % 2 == 1 else samples + 1
    t = np.linspace(0.0, 1.0, n)
    heights = -zmax * np.cos(np.pi * t)
    # every level circle is the unit circle scaled by its radius, and so is
    # its quadrature length: one quadrature serves all heights
    unit = sample_level_circle(surface, 0.0, CIRCLE_POINTS).length
    rho = np.sqrt(np.maximum(level_circle_radius2(surface, heights), 0.0))
    masses = np.where(np.abs(heights) < zmax, rho, 0.0) * unit
    imax = int(np.argmax(masses))
    return OneSweepout(
        t_values=t,
        heights=heights,
        masses=masses,
        max_mass=float(masses[imax]),
        argmax_t=float(t[imax]),
        surface=surface,
    )


def guth_p_sweepout_bound(sweepout: OneSweepout, p: int) -> WidthBound:
    """Width upper bound from summing p shifted copies of a 1-sweepout.

    upper_bound = p * max_mass exactly.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    return WidthBound(
        p=int(p),
        upper_bound=float(p * sweepout.max_mass),
        construction=f"{p} shifted copies of the level-circle 1-sweepout",
    )


def width_table(sweepout: OneSweepout, p_max: int, reference: Callable[[int], float]):
    """Rows p = 1 .. p_max of a width table: the bound of
    ``guth_p_sweepout_bound``, the known value ``reference(p)`` and their gap."""
    table = []
    for p in range(1, p_max + 1):
        row = guth_p_sweepout_bound(sweepout, p).to_json_dict()
        ref = float(reference(p))
        row["reference"] = ref
        row["reference_label"] = "reference (known value)"
        row["gap"] = float(row["upper_bound"] - ref)
        table.append(row)
    return table


def round_sphere_width(p: int) -> float:
    """Known p-widths of the round unit sphere: 2 pi floor(sqrt(p))."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return 2.0 * np.pi * int(np.floor(np.sqrt(p)))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def mk_multiplicity_experiment(
    k: float,
    mu: float = 1.0,
    length_cap: Optional[float] = None,
    n_seeds: int = 200,
    seed: int = 0,
    spectra: bool = True,
    keep_curves: bool = False,
) -> dict:
    """Seed-sweep search for closed geodesics on the elongated spheroid.

    Checks the structural facts behind the multiplicity phenomenon: every
    found geodesic of bounded length meets the equator, and for large k the
    only class shorter than 2 pi + 0.1 is the equator itself.  The width
    table pairs the constructed upper bounds p * 2 pi with the reference
    values they are known to saturate at large k.

    The seed sweep is a heuristic sampler: reports list what was found, not
    a claimed enumeration of all closed geodesics.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    surface = make_mk(k, mu)
    cap = float(length_cap) if length_cap else 4.0 * np.pi
    diam = surface.diameter()
    # same-image curves sampled at different phases differ by half the
    # sample spacing in Hausdorff distance; the tolerance must cover that
    dedup_tol = max(1e-5 * diam, 0.75 * cap / DEFAULT_STEPS)
    equator_tol = 1e-4 * diam

    # both period guesses in one batch, rows ordered (guess, seed)
    pts, dirs = mk_seed_directions(surface, n_seeds, seed)
    pts, dirs = np.tile(pts, (2, 1)), np.tile(dirs, (2, 1))
    guesses = np.repeat([2.0 * np.pi, min(cap, 4.0 * np.pi) * 0.999], n_seeds)
    out = shoot_closed_batch(surface, pts, dirs, guesses)
    shots = out.pop("shots")
    keep = shots["period"] <= cap + 1e-6
    rows = np.flatnonzero(out["ok"])[keep]
    # each curve is built on its own row of the shots' one path array and only
    # those under the cap are kept: masking the shots first would copy every
    # kept path (0.1 MB each) while the unmasked ones still live
    curves = [cur for cur, kept in zip(curves_from_shots(surface, shots), keep) if kept]
    found = [(int(row % n_seeds), cur) for row, cur in zip(rows, curves)]

    classes = image_classes(found, dedup_tol)

    # sorted once here so records and kept curves share the length order;
    # lengths within 1e-9 relative tie (the k = 4 meridians agree to 1e-14,
    # so their own order is roundoff) and ties go by first_seed
    classes.sort(key=lambda cls: cls["curve"].length)
    lengths = np.array([cls["curve"].length for cls in classes])
    tie_group = np.cumsum(np.diff(lengths, prepend=lengths[:1]) > 1e-9 * lengths)
    order = np.lexsort(([cls["first_seed"] for cls in classes], tie_group))
    classes = [classes[i] for i in order]
    records = []
    for cls in classes:
        cur = cls["curve"]
        x3 = cur.samples[:, 2]
        min_x3 = float(np.min(np.abs(x3)))
        # a transverse crossing usually falls between samples: x3 changes sign
        crosses = min_x3 <= equator_tol or x3.min() < 0.0 < x3.max()
        # the equator, wherever its samples sit on it
        is_g0 = np.max(np.abs(x3)) <= equator_tol and abs(cur.length - 2 * np.pi) < 0.01
        rec = {
            "length": float(cur.length),
            "closure_residual": float(cur.closure_residual),
            "cover_multiplicity": int(cur.cover_multiplicity),
            "members": int(cls["members"]),
            "first_seed": int(cls["first_seed"]),
            "intersects_equator": bool(crosses),
            "min_abs_x3": min_x3,
            "is_gamma0": bool(is_g0),
            "self_vertices": len(GeodesicNetwork.build(surface, [cur]).vertices),
        }
        if spectra:
            rep = jacobi_spectrum(cur, surface)
            rec["index"] = rep.index
            rec["nullity"] = rep.nullity
            rec["degeneracy_criterion"] = degeneracy_criterion_mk(
                k, cur.cover_multiplicity
            )
        records.append(rec)

    table = width_table(level_circle_sweepout(surface), P_TABLE, lambda l: 2.0 * np.pi * l)
    gamma0_rec = next((r for r in records if r["is_gamma0"]), None)
    if spectra and gamma0_rec is not None:
        for row in table:
            # candidate network at level l: gamma_0 with multiplicity l
            # (multiplicity does not change the negative-direction count)
            row["candidate_index"] = gamma0_rec["index"]
            row["index_le_level"] = bool(gamma0_rec["index"] <= row["p"])
            row["vertices_le_level"] = bool(gamma0_rec["self_vertices"] <= row["p"])

    short = [r for r in records if r["length"] < 2 * np.pi + 0.1]
    shortest = records[0] if records else None
    report = {
        "config": {
            "surface": {"type": "mk", "k": float(k), "mu": float(mu)},
            "length_cap": cap,
            "n_seeds": int(n_seeds),
            "seed": int(seed),
            "n_samples": DEFAULT_STEPS,
            "dedup_tolerance": dedup_tol,
            "equator_tolerance": equator_tol,
        },
        "n_converged": len(found),
        "n_classes": len(records),
        "found": records,
        "width_bounds": table,
        "properties": {
            "all_intersect_equator": bool(
                all(r["intersects_equator"] for r in records)
            ),
            "unique_short_class_is_gamma0": bool(
                len(short) == 1 and short[0]["is_gamma0"]
            ),
            "shortest_is_simple": bool(
                shortest is not None and shortest["self_vertices"] == 0
            ),
            "index_and_vertices_within_level": bool(
                all(t.get("index_le_level", True) and t.get("vertices_le_level", True) for t in table)
            ),
        },
    }
    if keep_curves:
        # side channel for plot/CSV writers; not part of the JSON payload
        report["_curves"] = [cls["curve"] for cls in classes]
    return report


def image_classes(found, tol: float) -> list:
    """Classes of the ``found`` (seed, GeodesicCurve) pairs by image.

    In order, each curve joins the first class whose curve is within 0.05 of
    its length and within Hausdorff distance ``tol`` of its samples, or
    opens a class.  A pair is accepted at once when its ``aligned_bound`` is
    below tol (1 - 1e-9), a margin that keeps rounding from accepting a pair
    the exact distance rejects; every other pair gets the exact
    ``hausdorff_distance``, with each curve's KD-tree built the first time
    such a check needs it.  So every decision is the exact distance's.
    Returns the classes in order of opening, as dicts with the class curve,
    its ``members`` count and the ``first_seed`` that opened it.
    """
    from scipy.spatial import cKDTree

    trees = {}  # id of a curve -> its KD-tree

    def tree(cur):
        if id(cur) not in trees:
            trees[id(cur)] = cKDTree(cur.samples)
        return trees[id(cur)]

    def same_image(a, b):
        if not abs(a.length - b.length) < 0.05:
            return False
        if aligned_bound(a.samples, b.samples) < tol * (1.0 - 1e-9):
            return True
        return hausdorff_distance(a.samples, b.samples, tol, tree(a), tree(b)) <= tol

    classes = []
    for seed_idx, cur in found:
        for cls in classes:
            if same_image(cls["curve"], cur):
                cls["members"] += 1
                break
        else:
            classes.append({"curve": cur, "members": 1, "first_seed": seed_idx})
    return classes


def plane_ellipse_circumference(b: float, c: float) -> float:
    """Circumference of x^2/b^2 + y^2/c^2 = 1 by the periodic trapezoid rule on
    1024 points: the speed is smooth and periodic, so the rule converges
    geometrically, to roundoff for axis ratios down to 0.1."""
    t = np.arange(1024) * (2.0 * np.pi / 1024)
    return float(np.hypot(b * np.sin(t), c * np.cos(t)).sum() * (2.0 * np.pi / 1024))


def ellipsoid_experiment(a1: float, a2: float, a3: float) -> dict:
    """The three coordinate-plane geodesics of a tri-axial ellipsoid.

    Finds each principal ellipse by shooting, compares its length against an
    independent plane-ellipse quadrature, and checks non-degeneracy (zero
    nullity) for the curve and its covers.  The attribution checker lists
    which multiplicity vectors (m1, m2, m3) could represent a p-width near
    the round-sphere value, verifying that they cannot all equal 1 for
    p > 3.
    """
    if not (0 < a1 < a2 < a3):
        raise ValueError("need 0 < a1 < a2 < a3")
    if max(abs(a1 - 1), abs(a2 - 1), abs(a3 - 1)) > 0.1:
        raise ValueError("coefficients must be within 10% of 1")
    surface = make_ellipsoid(a1, a2, a3)

    # the ellipse in x_i = 0 starts on axis j heading along axis k; each
    # attempt shoots the ellipses still missing in one batch
    semi = 1.0 / np.sqrt(np.array([a1, a2, a3]))
    j, k = np.array([1, 0, 0]), np.array([2, 2, 1])
    p0, v0 = np.eye(3)[j] * semi[j, None], np.eye(3)[k]
    oracles = np.array([plane_ellipse_circumference(semi[a], semi[b]) for a, b in zip(j, k)])
    curves, residuals = [None] * 3, np.full(3, np.inf)
    for attempt in range(SEED_BUDGET):
        todo = np.array([i for i in range(3) if curves[i] is None], dtype=int)
        if not todo.size:
            break
        periods = oracles[todo] * (1.0 + 0.01 * attempt)
        out = shoot_closed_batch(surface, p0[todo], v0[todo], periods)
        residuals[todo] = out["residual"]
        for i, cur in zip(todo[out["ok"]], curves_from_shots(surface, out["shots"])):
            curves[i] = cur
    for i in range(3):
        if curves[i] is None:
            raise SeedBudgetExhausted(
                f"coordinate geodesic x_{i+1}=0 not found in {SEED_BUDGET} "
                f"attempts; last shooting residual {residuals[i]:.3e}"
            )

    details = []
    for i, (cur, oracle) in enumerate(zip(curves, oracles)):
        reps = cover_spectra(cur, surface, range(1, MAX_COVER + 1), 512)
        spectra = {m: {"index": r.index, "nullity": r.nullity} for m, r in reps.items()}
        details.append(
            {
                "plane": f"x{i+1}=0",
                "length": float(cur.length),
                "quadrature_length": float(oracle),
                "length_error": float(abs(cur.length - oracle)),
                "closure_residual": float(cur.closure_residual),
                "spectra_by_cover": spectra,
                "nondegenerate_all_covers": bool(
                    all(s["nullity"] == 0 for s in spectra.values())
                ),
            }
        )

    lengths = [d["length"] for d in details]
    attribution = _multiplicity_attribution(lengths, P_ATTRIBUTION)

    return {
        "config": {
            "surface": {"type": "ellipsoid", "a": [a1, a2, a3]},
            "seed_budget": SEED_BUDGET,
            "max_cover": MAX_COVER,
            "n_samples": DEFAULT_STEPS,
        },
        "geodesics": details,
        "attribution": attribution,
    }


def _multiplicity_attribution(lengths: Sequence[float], p: int, window: float = 0.25):
    """Multiplicity vectors that could represent omega_p near the round value.

    Enumerates (m1, m2, m3) with sum m_i <= p (the sweepout competitor
    bound) and |sum m_i l_i - 2 pi floor(sqrt(p))| <= window.  Reports
    whether all-ones is excluded and whether every admissible vector needs
    some m_i >= 2.
    """
    ref = round_sphere_width(p)
    admissible = []
    for m in product(range(p + 1), repeat=3):
        if sum(m) == 0 or sum(m) > p:
            continue
        total = sum(mi * li for mi, li in zip(m, lengths))
        if abs(total - ref) <= window:
            admissible.append({"m": list(m), "total_length": float(total)})
    return {
        "p": int(p),
        "round_reference": float(ref),
        "window": float(window),
        "admissible": admissible,
        "all_ones_admissible": any(a["m"] == [1, 1, 1] for a in admissible),
        "some_multiplicity_ge2_forced": bool(
            admissible and all(max(a["m"]) >= 2 for a in admissible)
        ),
        "note": (
            "the robust conclusion is that m cannot be all ones for p > 3; "
            "forcing max(m) >= 2 at p = 4 is not decidable within the width "
            "uncertainty window"
        ),
    }
