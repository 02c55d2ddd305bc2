"""Geodesic integration, closed-geodesic shooting, lengths and curvature.

On a level set F = 0 the geodesic equation reads gamma'' = lambda grad F
with lambda = -sum_i h_i gamma'_i^2 / |grad F|^2, h the diagonal of the
(diagonal) Hessian of the separable F; in a chart it reads
x''^c = -Gamma^c_{ab} x'^a x'^b.  Both flows, and the ambient-field flow of
``extension``, are a right-hand side plus a step-end hook on one
fixed-step DOP853 stepper (Hairer, Norsett & Wanner, Solving ODEs I,
II.5-II.6), which holds the state column-major, (columns, rows), also in
the right-hand side and the hook: each coordinate of all rows is one
contiguous vector, so every ufunc runs one loop over the rows, not a 3-wide
loop per row.  A right-hand side writes f(y) into its stage slot,
``rhs(y, out)``, so a stage allocates nothing.  Each stage sum, and the
continuous extension, is one einsum over the contiguous stack of stages,
with no stages x state temporary.  The flows take and return points as
rows, transposing once
per call.  A flow samples whole steps: its sample count is a multiple of
SAMPLES_PER_STEP, each step ends on a sample (the hook's state) and the
samples inside a step come from its 7th-order continuous extension.  A flow
keeps only its step-end states while it runs; a path is built from them
afterwards (``dop853_dense``), so the shooting can keep the states of the
flows it accepts and build their paths once, without another flow.  The
level-set hook re-projects the point onto the surface and renormalizes the
tangential speed, which keeps the constraint and energy drift at roundoff
level; the chart hook checks the chart domain.  The flows are batched over
rows with one length per row and fixed steps, so each row is
a smooth function of its own inputs and finite-difference shooting stays in
one flow call.

Closed geodesics are found by Gauss-Newton shooting.  The unknowns are
(transversal base-point offset, initial direction angle, period); the
residual is the position mismatch in the tangent frame at the base point
plus the direction-angle mismatch.  Restricting the base-point motion to a
direction transverse to the seed velocity removes the reparametrization
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy._core.multiarray import c_einsum  # np.einsum at optimize=False; see dop853_integrate

from .errors import (
    DegenerateJacobian,
    LeftChartDomain,
    NoConvergence,
    NotAGeodesic,
)
from .surfaces import _FD_H, SurfaceModel, christoffel_batch, coord_norm, mk_height

DEFAULT_STEPS = 4096
GEODESIC_KAPPA_TOL = 1e-6
SAMPLES_PER_STEP = 16  # path samples per DOP853 step of the geodesic flows
COARSE_STEPS = 512  # flow samples per seed in the coarse Newton phase
COVER_TOL = 1e-7  # Fourier amplitude that counts as a mode, relative to the loop's extent
SEED_BAND = 0.6  # mk seeds lie in |x3| <= SEED_BAND * zmax
PROBE_SAMPLES = 16  # points of a cloud hausdorff_distance tries before all of them
DENSE_CHUNK = 32  # most DOP853 steps per batch when dop853_dense builds a path
DENSE_BATCH = 512  # most batch rows (steps times rows) of such a batch


@dataclass
class GeodesicCurve:
    """Closed constant-speed curve stored as dense samples.

    Samples are uniform in the circle parameter theta in [0, 2 pi); for an
    accepted geodesic the speed |gamma'| equals length / (2 pi) at every
    sample.  Covers are represented by ``cover_multiplicity`` on the
    primitive parametrization rather than by resampled loops.
    """

    samples: np.ndarray
    length: float
    closure_residual: Optional[float]  # None for open curves
    surface: SurfaceModel
    cover_multiplicity: int = 1
    closed: bool = True
    extra: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def to_record(self) -> dict:
        return {
            "length": self.length,
            "closure_residual": self.closure_residual,
            "cover_multiplicity": self.cover_multiplicity,
            "primitive": True,
            "n_samples": int(self.n),
        }


# ---------------------------------------------------------------------------
# derivatives of uniformly sampled curves
# ---------------------------------------------------------------------------


def periodic_derivative(values: np.ndarray, spacing: float, order: int = 1):
    """4th-order central differences of periodic samples along axis 0."""
    v = np.asarray(values, dtype=float)
    if order == 1:
        out = (
            -np.roll(v, -2, axis=0)
            + 8 * np.roll(v, -1, axis=0)
            - 8 * np.roll(v, 1, axis=0)
            + np.roll(v, 2, axis=0)
        ) / (12.0 * spacing)
    elif order == 2:
        out = (
            -np.roll(v, -2, axis=0)
            + 16 * np.roll(v, -1, axis=0)
            - 30 * v
            + 16 * np.roll(v, 1, axis=0)
            - np.roll(v, 2, axis=0)
        ) / (12.0 * spacing**2)
    else:
        raise ValueError("order must be 1 or 2")
    return out


def open_derivative(values: np.ndarray, spacing: float, order: int = 1):
    """Centered differences with one-sided ends for open curves."""
    v = np.asarray(values, dtype=float)
    if order == 1:
        return np.gradient(v, spacing, axis=0, edge_order=2)
    d1 = np.gradient(v, spacing, axis=0, edge_order=2)
    return np.gradient(d1, spacing, axis=0, edge_order=2)


def curve_speeds(samples: np.ndarray, surface: SurfaceModel, closed: bool = True):
    """|gamma'| per sample in the surface metric, parameter spacing 2 pi / n."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    dtheta = 2 * np.pi / n if closed else 2 * np.pi / (n - 1)
    deriv = (periodic_derivative if closed else open_derivative)(samples, dtheta)
    if surface.kind == "levelset":
        sp = coord_norm(deriv)
    else:
        g = surface.chart_metric(samples)
        sp = np.sqrt(np.einsum("ni,nij,nj->n", deriv, g, deriv))
    return sp, dtheta


def curve_length(samples: np.ndarray, surface: SurfaceModel, closed: bool = True) -> float:
    """Length of sampled points by composite quadrature of |gamma'|.

    Periodic curves use the trapezoid rule on the uniformly sampled speed
    (spectrally accurate for smooth closed curves, so better than the
    required 4th order); open curves use Simpson.
    """
    return _length_from_speeds(*curve_speeds(samples, surface, closed), closed)


def _length_from_speeds(sp: np.ndarray, dtheta: float, closed: bool) -> float:
    if closed:
        return float(sp.sum() * dtheta)
    # Simpson as scipy computes it, with Cartwright's last interval on an even count
    n, h = sp.size - 1 + sp.size % 2, dtheta
    r = np.sum(sp[0 : n - 2 : 2] + 4.0 * sp[1 : n - 1 : 2] + sp[2:n:2]) * (h / 3.0)
    if n < sp.size:
        alpha = (2 * h**2 + 3 * h * h) / (6 * (h + h))
        beta = (h**2 + 3.0 * h * h) / (6 * h)
        eta = h**3 / (6 * h * (h + h))
        r = r + (alpha * sp[-1] + beta * sp[-2] - eta * sp[-3])
    return float(r)


# ---------------------------------------------------------------------------
# the geodesic flows: one fixed-step DOP853 stepper, a right-hand side each
# ---------------------------------------------------------------------------


def _tableau(rows, entries):
    """A (rows, 16) array with ``entries`` {(row, column): value}, else 0."""
    out = np.zeros((rows, 16))
    out[tuple(zip(*entries))] = list(entries.values())
    return out


# The DOP853 tableau of Dormand and Prince (Hairer, Norsett & Wanner, Solving
# ODEs I, II.5-II.6), with the digits of Hairer's dop853 code: the weights
# A[s, t] of stages 1-11, of the solution (row 12) and of the three extra
# stages 13-15 of the continuous extension, and the extension's rows D.
_DOP_A = _tableau(16, {
    (1, 0): 5.26001519587677318785587544488e-2,
    (2, 0): 1.97250569845378994544595329183e-2, (2, 1): 5.91751709536136983633785987549e-2,
    (3, 0): 2.95875854768068491816892993775e-2, (3, 2): 8.87627564304205475450678981324e-2,
    (4, 0): 2.41365134159266685502369798665e-1, (4, 2): -8.84549479328286085344864962717e-1,
    (4, 3): 9.24834003261792003115737966543e-1,
    (5, 0): 3.7037037037037037037037037037e-2, (5, 3): 1.70828608729473871279604482173e-1,
    (5, 4): 1.25467687566822425016691814123e-1,
    (6, 0): 3.7109375e-2, (6, 3): 1.70252211019544039314978060272e-1,
    (6, 4): 6.02165389804559606850219397283e-2, (6, 5): -1.7578125e-2,
    (7, 0): 3.70920001185047927108779319836e-2, (7, 3): 1.70383925712239993810214054705e-1,
    (7, 4): 1.07262030446373284651809199168e-1, (7, 5): -1.53194377486244017527936158236e-2,
    (7, 6): 8.27378916381402288758473766002e-3,
    (8, 0): 6.24110958716075717114429577812e-1, (8, 3): -3.36089262944694129406857109825,
    (8, 4): -8.68219346841726006818189891453e-1, (8, 5): 2.75920996994467083049415600797e1,
    (8, 6): 2.01540675504778934086186788979e1, (8, 7): -4.34898841810699588477366255144e1,
    (9, 0): 4.77662536438264365890433908527e-1, (9, 3): -2.48811461997166764192642586468,
    (9, 4): -5.90290826836842996371446475743e-1, (9, 5): 2.12300514481811942347288949897e1,
    (9, 6): 1.52792336328824235832596922938e1, (9, 7): -3.32882109689848629194453265587e1,
    (9, 8): -2.03312017085086261358222928593e-2,
    (10, 0): -9.3714243008598732571704021658e-1, (10, 3): 5.18637242884406370830023853209,
    (10, 4): 1.09143734899672957818500254654, (10, 5): -8.14978701074692612513997267357,
    (10, 6): -1.85200656599969598641566180701e1, (10, 7): 2.27394870993505042818970056734e1,
    (10, 8): 2.49360555267965238987089396762, (10, 9): -3.0467644718982195003823669022,
    (11, 0): 2.27331014751653820792359768449, (11, 3): -1.05344954667372501984066689879e1,
    (11, 4): -2.00087205822486249909675718444, (11, 5): -1.79589318631187989172765950534e1,
    (11, 6): 2.79488845294199600508499808837e1, (11, 7): -2.85899827713502369474065508674,
    (11, 8): -8.87285693353062954433549289258, (11, 9): 1.23605671757943030647266201528e1,
    (11, 10): 6.43392746015763530355970484046e-1,
    (12, 0): 5.42937341165687622380535766363e-2, (12, 5): 4.45031289275240888144113950566,
    (12, 6): 1.89151789931450038304281599044, (12, 7): -5.8012039600105847814672114227,
    (12, 8): 3.1116436695781989440891606237e-1, (12, 9): -1.52160949662516078556178806805e-1,
    (12, 10): 2.01365400804030348374776537501e-1, (12, 11): 4.47106157277725905176885569043e-2,
    (13, 0): 5.61675022830479523392909219681e-2, (13, 6): 2.53500210216624811088794765333e-1,
    (13, 7): -2.46239037470802489917441475441e-1, (13, 8): -1.24191423263816360469010140626e-1,
    (13, 9): 1.5329179827876569731206322685e-1, (13, 10): 8.20105229563468988491666602057e-3,
    (13, 11): 7.56789766054569976138603589584e-3, (13, 12): -8.298e-3,
    (14, 0): 3.18346481635021405060768473261e-2, (14, 5): 2.83009096723667755288322961402e-2,
    (14, 6): 5.35419883074385676223797384372e-2, (14, 7): -5.49237485713909884646569340306e-2,
    (14, 10): -1.08347328697249322858509316994e-4, (14, 11): 3.82571090835658412954920192323e-4,
    (14, 12): -3.40465008687404560802977114492e-4, (14, 13): 1.41312443674632500278074618366e-1,
    (15, 0): -4.28896301583791923408573538692e-1, (15, 5): -4.69762141536116384314449447206,
    (15, 6): 7.68342119606259904184240953878, (15, 7): 4.06898981839711007970213554331,
    (15, 8): 3.56727187455281109270669543021e-1, (15, 12): -1.39902416515901462129418009734e-3,
    (15, 13): 2.9475147891527723389556272149, (15, 14): -9.15095847217987001081870187138,
})
_DOP_D = _tableau(4, {
    (0, 0): -0.84289382761090128651353491142e+1, (0, 5): 0.56671495351937776962531783590,
    (0, 6): -0.30689499459498916912797304727e+1, (0, 7): 0.23846676565120698287728149680e+1,
    (0, 8): 0.21170345824450282767155149946e+1, (0, 9): -0.87139158377797299206789907490,
    (0, 10): 0.22404374302607882758541771650e+1, (0, 11): 0.63157877876946881815570249290,
    (0, 12): -0.88990336451333310820698117400e-1, (0, 13): 0.18148505520854727256656404962e+2,
    (0, 14): -0.91946323924783554000451984436e+1, (0, 15): -0.44360363875948939664310572000e+1,
    (1, 0): 0.10427508642579134603413151009e+2, (1, 5): 0.24228349177525818288430175319e+3,
    (1, 6): 0.16520045171727028198505394887e+3, (1, 7): -0.37454675472269020279518312152e+3,
    (1, 8): -0.22113666853125306036270938578e+2, (1, 9): 0.77334326684722638389603898808e+1,
    (1, 10): -0.30674084731089398182061213626e+2, (1, 11): -0.93321305264302278729567221706e+1,
    (1, 12): 0.15697238121770843886131091075e+2, (1, 13): -0.31139403219565177677282850411e+2,
    (1, 14): -0.93529243588444783865713862664e+1, (1, 15): 0.35816841486394083752465898540e+2,
    (2, 0): 0.19985053242002433820987653617e+2, (2, 5): -0.38703730874935176555105901742e+3,
    (2, 6): -0.18917813819516756882830838328e+3, (2, 7): 0.52780815920542364900561016686e+3,
    (2, 8): -0.11573902539959630126141871134e+2, (2, 9): 0.68812326946963000169666922661e+1,
    (2, 10): -0.10006050966910838403183860980e+1, (2, 11): 0.77771377980534432092869265740,
    (2, 12): -0.27782057523535084065932004339e+1, (2, 13): -0.60196695231264120758267380846e+2,
    (2, 14): 0.84320405506677161018159903784e+2, (2, 15): 0.11992291136182789328035130030e+2,
    (3, 0): -0.25693933462703749003312586129e+2, (3, 5): -0.15418974869023643374053993627e+3,
    (3, 6): -0.23152937917604549567536039109e+3, (3, 7): 0.35763911791061412378285349910e+3,
    (3, 8): 0.93405324183624310003907691704e+2, (3, 9): -0.37458323136451633156875139351e+2,
    (3, 10): 0.10409964950896230045147246184e+3, (3, 11): 0.29840293426660503123344363579e+2,
    (3, 12): -0.43533456590011143754432175058e+2, (3, 13): 0.96324553959188282948394950600e+2,
    (3, 14): -0.39177261675615439165231486172e+2, (3, 15): -0.14972683625798562581422125276e+3,
})
# stage terms of the continuous extension: K_0, -(K_0 + K_12) and the four
# D rows; stages 1-4 carry no weight in any of them
_DENSE_TERMS = np.stack([np.eye(16)[0], -np.eye(16)[0] - np.eye(16)[12], *_DOP_D])
_DENSE_STAGES = np.flatnonzero(np.any(_DENSE_TERMS, axis=0))


def _dense_weights(x):
    """Weights of the 7th-order continuous extension at step fractions x.

    The extension is y0 + a(x) (y1 - y0) + h sum_t b_t(x) K_t: the Hermite
    terms and the D-weighted stages (Hairer, Norsett & Wanner, II.6) with
    their product-basis polynomials x, x(1-x), x^2(1-x), ... summed out.
    Returns a of shape (n,) and b of shape (len(_DENSE_STAGES), n).
    """
    W = [x, x * (1.0 - x)]  # alternately times x and (1 - x)
    for r in range(5):
        W.append(W[-1] * (x if r % 2 == 0 else 1.0 - x))
    terms = _DENSE_TERMS[:, _DENSE_STAGES, None] * np.stack(W[1:])[:, None]
    return W[0] - W[1] + 2.0 * W[2], np.add.reduce(terms, 0)


class _Stages:
    """The workspace of one DOP853 flow: the stage stack hK, one stage-sum
    buffer and the views the stages read, built once for a step h of the
    state's shape (columns, rows).

    ``rhs(y, out)`` writes f(y) into the stage slot ``out``; the slot is then
    scaled by h in place, the bits of f(y) * h.
    """

    def __init__(self, rhs, h):
        self.rhs, self.h = rhs, h
        self.hK = np.empty((16,) + h.shape)  # stage derivatives times the step
        self.state = np.empty(h.shape)  # y + sum_t a_st h K_t of the stage being taken
        self.slots = list(self.hK)
        self.sums = [(_DOP_A[s, :s], self.hK[:s]) for s in range(16)]

    def slope(self, s, y):
        """hK[s] = h f(y)."""
        slot = self.slots[s]
        self.rhs(y, slot)
        np.multiply(slot, self.h, out=slot)

    def stages(self, y, first, stop):
        """Stages first, ..., stop - 1 of the step that starts at y.

        Each stage sum is one ``c_einsum`` of the tableau row with the
        contiguous stack ``hK[:s]``; its state y + sum is formed in the
        stage-sum buffer, which ``rhs`` reads and does not keep.
        """
        state, h, rhs = self.state, self.h, self.rhs
        for s in range(first, stop):
            c_einsum("t,tcr->cr", *self.sums[s], out=state)
            np.add(y, state, out=state)
            slot = self.slots[s]
            rhs(state, slot)
            np.multiply(slot, h, out=slot)

    def step_end(self, y):
        """y + sum_t a_12,t h K_t, the step's end, as a fresh array (the
        bits of y + sum; addition commutes)."""
        end = c_einsum("t,tcr->cr", *self.sums[12])
        end += y
        return end


def dop853_integrate(rhs, y, T, n_steps: int, after_step, n_samples=0, path_cols=0):
    """Fixed-step DOP853 for y' = f(y), y of shape (columns, rows).

    The state is column-major: y[k] is coordinate k of every row, one
    contiguous vector, so the ufuncs of ``rhs`` and ``after_step`` run one
    inner loop over the rows rather than a short loop over the coordinates
    of each row.  ``rhs(y, out)`` writes f(y), of y's (columns, rows) shape,
    into ``out``, a stage slot of the call's workspace, and returns nothing;
    it keeps no reference to ``y`` or ``out``, because both are overwritten
    by later stages.  Takes ``n_steps`` steps of T / n_steps, with ``T`` a
    scalar or one span per row.  ``after_step(i, y)`` runs at the end of
    step i and returns the state to continue from (a projection, a domain
    check); the y it is handed is a fresh array, never the stage-sum buffer,
    so a hook may return its input.  The right-hand side at that state is
    the next step's first stage (FSAL).  The call owns one workspace
    (``_Stages``): the stage stack, scaled by the step in place, and one
    stage-sum buffer.  Each stage sum is one einsum contraction of the
    tableau row with the contiguous stage stack ``hK[:s]``: it iterates the
    stages in an outer loop, in tableau order, and adds one product per
    stage to every (column, row) element, so each row is bit-identical to
    its own 1-row call.  That is numpy's C ``c_einsum``, which ``np.einsum``
    runs at its default optimize=False, called directly to skip about
    1 us of Python dispatch per stage; the optimized path can hand the
    contraction to BLAS ``tensordot``, which sums in its own order.  The
    same holds for ``rhs`` and ``after_step`` only if they sum over the
    columns in a fixed order (``np.add.reduce`` over axis 0, not einsum on
    a transposed view).

    Returns (y, path).  With ``n_samples`` > 0, a multiple of ``n_steps``,
    path holds the leading ``path_cols`` columns at n_samples + 1 uniform
    times, shape (rows, n_samples + 1, path_cols), n_samples / n_steps per
    step: the flow keeps only the state ``after_step`` returned at each step
    end, and ``dop853_dense`` builds the path from those states once the
    last step is taken.  Otherwise path is None.  Raises ValueError when
    n_samples is not a multiple of n_steps.
    """
    if n_samples % n_steps:
        raise ValueError("n_samples must be a multiple of n_steps")
    y = np.asarray(y, dtype=float)
    if n_samples:
        after_step, ends = _recording(after_step, y, n_steps, slice(None))
    # each row's step, spelt out to the state's shape so that scaling a
    # stage multiplies arrays of one shape
    h = np.asarray(T, dtype=float).reshape(-1) / n_steps * np.ones_like(y)
    work = _Stages(rhs, h)
    work.slope(0, y)
    for i in range(n_steps):
        work.stages(y, 1, 12)
        y = after_step(i, work.step_end(y))
        if i + 1 < n_steps:
            work.slope(0, y)
    if not n_samples:
        return y, None
    return y, dop853_dense(rhs, ends, T, n_samples // n_steps, path_cols)


def _recording(after_step, y, n_steps, keep):
    """``after_step`` that also stores the states it returns for the rows
    ``keep``, and the array (columns, kept rows, n_steps + 1) they go into,
    whose first entry is already the start state ``y``."""
    ends = np.empty(y[:, keep].shape + (n_steps + 1,))
    ends[..., 0] = y[:, keep]

    def hook(i, y):
        y = after_step(i, y)
        ends[..., i + 1] = y[:, keep]
        return y

    return hook, ends


def dop853_dense(rhs, ends, T, per: int, cols: int):
    """Path of a ``dop853_integrate`` flow rebuilt from its step-end states.

    ``ends`` has shape (columns, rows, steps + 1): each row's state at the
    start and at every step end, as ``after_step`` returned it, and ``T``
    the flow's span (a scalar or one per row).  Every stage of every step is
    evaluated again, a chunk of steps at a time as the rows of one batch
    (one batch row per step of a row), from the two states around the step.
    Each batch row is bit-identical to its own 1-row call, so the stages are
    the flow's own: stage 0 is the right-hand side at the stored step start
    and the stored step end stands for the projected stage 12.  A chunk has
    at most DENSE_CHUNK steps and DENSE_BATCH batch rows, so its stage stack
    and temporaries, about 270 floats per batch row against 3 x 16 of a
    level-set path, stay below the paths built and near 1 MB at most.

    Returns the leading ``cols`` columns at ``per`` samples per step, shape
    (rows, per * steps + 1, cols).  A step's last sample is its end state;
    the others come from its 7th-order continuous extension.
    """
    n_cols, rows, n_steps = ends.shape[0], ends.shape[1], ends.shape[2] - 1
    spans = np.asarray(T, dtype=float).reshape(-1) * np.ones(rows)
    path = np.empty((rows, per * n_steps + 1, cols))
    path[:, 0] = ends[:cols, :, 0].T
    steps = path[:, 1:].reshape(rows, n_steps, per, cols)
    a, b = _dense_weights(np.arange(1, per) / per)  # a step's inner samples
    chunk = max(1, min(DENSE_CHUNK, DENSE_BATCH // max(rows, 1)))
    work = None
    for i0 in range(0, n_steps, chunk):
        k = min(chunk, n_steps - i0)
        if work is None or work.h.shape[1] != rows * k:  # the first chunk and a short last one
            work = _Stages(rhs, np.repeat(spans, k) / n_steps * np.ones((n_cols, rows * k)))
        # the batch rows are (row, step) pairs, row-major
        y0 = ends[:, :, i0 : i0 + k].reshape(n_cols, rows * k)
        y1 = ends[:, :, i0 + 1 : i0 + k + 1].reshape(n_cols, rows * k)
        work.slope(0, y0)
        work.stages(y0, 1, 12)
        work.slope(12, y1)
        work.stages(y0, 13, 16)
        # h sum_t b_t(x) K_t at the inner samples, as (batch rows, samples, columns)
        dense = np.einsum("tn,tcr->rnc", b, work.hK[_DENSE_STAGES, :cols])
        # the bits of p0 + (p1 - p0) a + dense (addition commutes), formed in the path
        p0, p1 = (z[:cols].T.reshape(rows, k, 1, cols) for z in (y0, y1))
        block = steps[:, i0 : i0 + k]
        np.multiply(p1 - p0, a[:, None], out=block[:, :, :-1])
        block[:, :, :-1] += p0
        block[:, :, :-1] += dense.reshape(rows, k, per - 1, cols)
        block[:, :, -1:] = p1
    return path


def _flow_steps(n_steps: int) -> int:
    """DOP853 steps of a geodesic flow over ``n_steps`` sample intervals."""
    if n_steps <= 0 or n_steps % SAMPLES_PER_STEP:
        raise ValueError(f"n_steps must be a positive multiple of {SAMPLES_PER_STEP}")
    return n_steps // SAMPLES_PER_STEP


def _newton_onto(surface: SurfaceModel, P):
    """One Newton step towards F = 0 from the points P of shape (..., 3)."""
    g = surface.grad(P)
    return P - (surface.level(P) / np.einsum("...i,...i->...", g, g))[..., None] * g


def _levelset_flow(surface: SurfaceModel):
    """The geodesic right-hand side of a level set and its step-end
    projection, both on (columns, rows) states (P, V).

    The right-hand side writes f(y) into the stage slot it is handed.  It
    evaluates, in this order, W = y * y; g = grad F (times q =
    (x_i^2)^(mu_i - 1) off a quadric, and then W times (q^2, q)); W times
    the weights w; |g|^2 and -sum_i h_i v_i^2 as the sums of W's two
    halves; f = (v, g * (-sum_i h_i v_i^2 / |g|^2)).  Each operation is one
    ufunc writing into buffers kept per row count, so a stage allocates
    nothing and concatenates nothing.
    """
    # F, grad F and diag(Hess F) on points as columns, from the constants of
    # the factorization SurfaceModel documents: its methods take points as
    # rows, and each would cost a call per stage
    c, gc = surface._c[:, None], surface._grad_c[:, None]
    expo = None if surface._expo is None else surface._expo[:, None]
    # weights of P_i^2 and V_i^2 in |grad F|^2 and in -sum_i h_i V_i^2
    w = np.concatenate((surface._grad_c**2, -surface._hess_c))[:, None]

    def grad(P, PP):  # grad F and (x_i^2)^(mu_i - 1), None on a quadric
        q = None if expo is None else PP**expo
        return (gc * P if q is None else gc * P * q), q

    by_rows = {}  # row count -> the right-hand side's buffers and their views

    def buffers(rows):
        W, S = np.empty((6, rows)), np.empty((2, rows))
        # the constants spelt out to the rows, so that each ufunc meets
        # operands of one shape: a broadcast operand costs a slower loop setup
        w_rows, gc_rows = np.repeat(w, rows, 1), np.repeat(gc, rows, 1)
        expo_rows = None if expo is None else np.repeat(expo, rows, 1)
        return (W, W[:3], W[3:], W.reshape(2, 3, rows), S, S[0], S[1],
                np.empty((3, rows)), np.empty((3, rows)), w_rows, gc_rows, expo_rows)

    def rhs(y, out):  # gamma'' = lambda grad F, lambda = -sum_i h_i v_i^2 / |g|^2
        rows = y.shape[1]
        try:
            bufs = by_rows[rows]
        except KeyError:
            bufs = by_rows[rows] = buffers(rows)
        W, PP, VV, sums, S, gg, lam, g, q, w_rows, gc_rows, expo_rows = bufs
        np.multiply(y, y, W)
        np.multiply(gc_rows, y[:3], g)
        if expo is not None:  # q = (x_i^2)^(mu_i - 1): g times q, P^2 times q^2, V^2 times q
            np.power(PP, expo_rows, q)
            g *= q
            VV *= q
            q *= q
            PP *= q
        W *= w_rows
        np.add.reduce(sums, 1, None, S)  # |g|^2 and -sum_i h_i v_i^2
        np.divide(lam, gg, lam)
        out[:3] = y[3:]
        np.multiply(g, lam, out[3:])

    def reproject(i, y):
        # one Newton projection onto F = 0 squares the step's |F|; the
        # velocity is made tangent with the same gradient and unit again
        P, V = y[:3], y[3:]
        PP = P * P
        g, q = grad(P, PP)
        F = np.add.reduce(c * PP if q is None else c * PP * q, 0) - 1.0
        gg = np.add.reduce(g * g, 0)
        V = V - np.add.reduce(V * g, 0) / gg * g
        return np.concatenate((P - F / gg * g, V / np.sqrt(np.add.reduce(V * V, 0))))

    return rhs, reproject


def flow_levelset(
    surface: SurfaceModel,
    P0: np.ndarray,
    V0: np.ndarray,
    T: np.ndarray,
    n_steps: int = DEFAULT_STEPS,
    store_path: bool = False,
    ends_of=None,
):
    """Batched geodesic flow for arclength T (per seed).  Unit-speed state.

    ``n_steps`` is the number of sample intervals, a positive multiple of
    SAMPLES_PER_STEP.  The flow takes one fixed DOP853 step per
    SAMPLES_PER_STEP samples and projects the state onto F = 0 after every
    step.  A stored path is built from the step-end states once the flow
    ends (``levelset_path``).

    Returns (P1, V1) or (P1, V1, path) with path of shape (m, n_steps+1, 3).
    With ``ends_of``, an index of rows (an array or a slice) and no path, it
    returns (P1, V1, ends) with ends the (P, V) states of those rows at the
    start and every step end, shape (6, rows, n_steps / SAMPLES_PER_STEP +
    1), from which ``levelset_path`` builds the rows' paths later.  Raises
    ValueError for an ``n_steps`` that is not a positive multiple of
    SAMPLES_PER_STEP.
    """
    y = np.vstack([np.atleast_2d(np.asarray(a, dtype=float)).T for a in (P0, V0)])
    n_int = _flow_steps(n_steps)
    rhs, step_end = _levelset_flow(surface)
    keep = slice(None) if store_path else ends_of
    if keep is not None:
        step_end, ends = _recording(step_end, y, n_int, keep)
    y = dop853_integrate(rhs, y, T, n_int, step_end)[0]
    P1, V1 = y[:3].T, y[3:].T
    if store_path:
        return P1, V1, levelset_path(surface, ends, T)
    return (P1, V1) if keep is None else (P1, V1, ends)


def levelset_path(surface: SurfaceModel, ends: np.ndarray, T) -> np.ndarray:
    """Paths of ``flow_levelset`` rows from their step-end states.

    ``ends`` (6, rows, steps + 1) as ``flow_levelset`` returns it for
    ``ends_of``, ``T`` the rows' spans.  The samples inside each step come
    from its continuous extension (``dop853_dense``) and are projected onto
    F = 0 by one Newton step.  Returns (rows, SAMPLES_PER_STEP * steps + 1,
    3), the bits of the rows' ``store_path`` flow.
    """
    path = dop853_dense(_levelset_flow(surface)[0], ends, T, SAMPLES_PER_STEP, 3)
    # the samples inside the steps, a row at a time so that the temporaries
    # stay one row in size; the path holds points as rows
    steps = path[:, 1:].reshape(path.shape[0], ends.shape[2] - 1, SAMPLES_PER_STEP, 3)
    for row in steps:
        inner = row[:, :-1]
        inner[...] = _newton_onto(surface, inner)
    return path


def flow_chart(
    surface: SurfaceModel,
    x0: np.ndarray,
    v0: np.ndarray,
    T: np.ndarray,
    n_steps: int = 512,
    store_path: bool = False,
):
    """Batched chart geodesic flow x''^c = -Gamma^c_{ab} x'^a x'^b for
    parameter length T (per row).

    ``n_steps`` is the number of sample intervals, a positive multiple of
    SAMPLES_PER_STEP, one DOP853 step per SAMPLES_PER_STEP samples as in
    ``flow_levelset``.  The symbols of all rows come from one
    ``christoffel_batch`` call per stage.

    Returns (x1, v1) or (x1, v1, path) with path of shape (m, n_steps+1, 2).
    Raises LeftChartDomain when any row leaves the chart domain at a step
    end or at a stored path sample, and ValueError for an ``n_steps`` that
    is not a positive multiple of SAMPLES_PER_STEP.
    """
    y = np.vstack([np.atleast_2d(np.asarray(a, dtype=float)).T for a in (x0, v0)])
    n_int = _flow_steps(n_steps)

    def rhs(y, out):
        x, v = y[:2], y[2:]
        gam = christoffel_batch(surface, x.T)
        out[:2] = v
        np.negative(np.einsum("ncab,an,bn->cn", gam, v, v), out=out[2:])

    def in_domain(i, y):
        if not surface.in_chart_domain(y[:2].T):
            raise LeftChartDomain(f"left chart domain at step {i}")
        return y

    y, path = dop853_integrate(rhs, y, T, n_int, in_domain, store_path and n_steps, 2)
    if not store_path:
        return y[:2].T, y[2:].T
    if not surface.in_chart_domain(path.reshape(-1, 2)):
        raise LeftChartDomain("left chart domain between step ends")
    return y[:2].T, y[2:].T, path


# ---------------------------------------------------------------------------
# closed-geodesic shooting
# ---------------------------------------------------------------------------


def _frames_at(surface, P, Vref):
    """Orthonormal tangent frames (e1 along Vref, e2 = n x e1)."""
    n = surface.unit_normal(P)
    e1 = Vref - np.sum(Vref * n, axis=-1, keepdims=True) * n
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(n, e1)
    return e1, e2, n


def shoot_closed_batch(
    surface: SurfaceModel,
    seeds_p: np.ndarray,
    seeds_v: np.ndarray,
    periods: np.ndarray,
    max_iter: int = 30,
):
    """Gauss-Newton closure of a batch of shooting seeds.

    The residual and all three Jacobian columns are evaluated in a single
    batched flow per iteration.  Steps use the pseudo-inverse so
    rank-deficient shooting differentials (continuous families of closed
    geodesics, e.g. meridians of a surface of revolution) still converge to
    a member of the family; such seeds are flagged ``degenerate``.

    Runs a Newton phase on COARSE_STEPS samples first and polishes on
    DEFAULT_STEPS samples until the residual stalls at the finite-difference
    noise floor.  Returns a dict with the per-seed arrays ok, residual and
    degenerate, and ``shots``: the rows where ok, in seed order, as arrays
    p0, v0, period and the shot's final flow on DEFAULT_STEPS samples, its
    end velocity v1 and its path of shape (n_ok, DEFAULT_STEPS + 1, 3).

    A row's final flow is the last one its residual was taken from.  For a
    row the polish stopped, that is the unperturbed row of the polish flow
    that stopped it, whose step-end states the flow keeps; the rows that
    ran out of polish iterations (their unknowns moved after their last
    flow) run one more DEFAULT_STEPS flow.  The paths of all shots are then
    built from those states by ``levelset_path``, the bits of a
    ``store_path`` flow of each shot's p0, v0 and period.
    """
    P_seed = np.atleast_2d(np.asarray(seeds_p, dtype=float))
    V_seed = np.atleast_2d(np.asarray(seeds_v, dtype=float))
    T0 = np.atleast_1d(np.asarray(periods, dtype=float)).copy()
    m = P_seed.shape[0]

    P_seed = surface.project(P_seed)
    n0 = surface.unit_normal(P_seed)
    V_seed = V_seed - np.sum(V_seed * n0, axis=-1, keepdims=True) * n0
    V_seed = V_seed / np.linalg.norm(V_seed, axis=-1, keepdims=True)
    W = np.cross(n0, V_seed)  # transversal base-point direction

    x = np.zeros((m, 3))  # (tau, theta, T - T0)
    degenerate = np.zeros(m, dtype=bool)
    resid = np.full(m, np.inf)
    EPS = 1e-7

    def residual(xv, seed_idx, steps, ends_of=None):
        """xv: (q,3) unknowns for seeds seed_idx (q,)."""
        tau, theta, dT = xv[:, 0], xv[:, 1], xv[:, 2]
        Ps, Vs, Ts = P_seed[seed_idx], V_seed[seed_idx], T0[seed_idx]
        P0 = surface.project(Ps + tau[:, None] * W[seed_idx], iterations=8)
        e1, e2, _ = _frames_at(surface, P0, Vs)
        V0 = np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2
        T = np.maximum(Ts + dT, 0.3 * Ts)
        flow = flow_levelset(surface, P0, V0, T, steps, ends_of=ends_of)
        P1, V1 = flow[:2]
        d = P1 - P0
        a1 = np.arctan2(np.sum(V1 * e2, axis=1), np.sum(V1 * e1, axis=1))
        ang = np.arctan2(np.sin(a1 - theta), np.cos(a1 - theta))
        r = [np.sum(d * e1, axis=1), np.sum(d * e2, axis=1), ang * T / (2 * np.pi)]
        return np.stack(r, axis=1), T, (None if ends_of is None else flow[2])

    final = {}  # seed row -> step-end states and span of its final flow
    active = np.ones(m, dtype=bool)
    for phase_steps, phase_iters, phase_tol in (
        (COARSE_STEPS, max_iter, 1e-9),
        (DEFAULT_STEPS, 8, 1e-13),
    ):
        prev_rn = np.full(m, np.inf)
        # a polish flow keeps the states of its unperturbed rows
        keep = slice(0, None, 4) if phase_steps == DEFAULT_STEPS else None
        for _ in range(phase_iters):
            if not active.any():
                break
            idx = np.where(active)[0]
            q = idx.size
            # stack unknowns with the three FD perturbations: one flow call
            xs = np.repeat(x[idx], 4, axis=0)
            for col in range(3):
                xs[4 * np.arange(q) + 1 + col, col] += EPS
            r_all, T, ends = residual(xs, np.repeat(idx, 4), phase_steps, keep)
            r_all = r_all.reshape(q, 4, 3)
            r0 = r_all[:, 0]
            rn = np.linalg.norm(r0, axis=1)
            resid[idx] = rn
            # done when below tolerance, or stalled at the FD-noise floor
            done = (rn < phase_tol) | ((rn < 1e-9) & (rn > 0.5 * prev_rn[idx]))
            prev_rn[idx] = rn
            active[idx[done]] = False
            if keep is not None:
                for j in np.flatnonzero(done):
                    final[idx[j]] = ends[:, j].copy(), T[4 * j]
            live = ~done
            if not live.any():
                continue
            li = idx[live]
            J = np.transpose((r_all[live, 1:] - r0[live, None]) / EPS, (0, 2, 1))
            sv = np.linalg.svd(J, compute_uv=False)
            degenerate[li] |= sv[:, -1] < 1e-5 * sv[:, 0]
            Jinv = np.linalg.pinv(J, rcond=1e-8)
            dx = -np.einsum("qij,qj->qi", Jinv, r0[live])
            # trust region keeps early iterations stable
            dx[:, 0] = np.clip(dx[:, 0], -0.2, 0.2)
            dx[:, 1] = np.clip(dx[:, 1], -0.5, 0.5)
            dx[:, 2] = np.clip(dx[:, 2], -0.5 * T0[li], 0.5 * T0[li])
            bad = ~np.isfinite(dx).all(axis=1)
            dx[bad] = 0.0
            active[li[bad]] = False
            x[li] += dx
            tau_max = 0.25 * surface.diameter()
            x[li, 0] = np.clip(x[li, 0], -tau_max, tau_max)
        if phase_steps == COARSE_STEPS:
            active = resid < 1e-6  # only polish seeds the coarse phase closed

    # only the seeds that can pass need a final flow, and only those whose
    # unknowns moved after their last one need a new flow
    rows = np.flatnonzero(resid <= 1e-10)
    moved = np.array([r for r in rows if r not in final], dtype=int)
    if moved.size:
        r_final, T, ends = residual(x[moved], moved, DEFAULT_STEPS, slice(None))
        resid[moved] = np.linalg.norm(r_final, axis=1)
        final.update((r, (ends[:, j], T[j])) for j, r in enumerate(moved))
    P0 = np.array([final[r][0][:3, 0] for r in rows]).reshape(-1, 3)
    rows = rows[(resid[rows] <= 1e-10) & (np.abs(surface.level(P0)) < 1e-11)]
    ok = np.zeros(m, dtype=bool)
    ok[rows] = True
    ends = np.empty((6, rows.size, DEFAULT_STEPS // SAMPLES_PER_STEP + 1))
    T = np.empty(rows.size)
    for j, r in enumerate(rows):
        ends[:, j], T[j] = final.pop(r)
    del final  # the states kept for rows that failed, before the paths are built
    shots = {
        "p0": ends[:3, :, 0].T.copy(),
        "v0": ends[3:, :, 0].T.copy(),
        "period": T,
        "v1": ends[3:, :, -1].T.copy(),
        "path": levelset_path(surface, ends, T),
    }
    return {"ok": ok, "residual": resid, "degenerate": degenerate, "shots": shots}


def _primitive_loop(loop: np.ndarray):
    """(m, primitive) for a closed loop of n uniform samples (n, d).

    An m-fold cover carries only the Fourier modes k = j m, so m is the gcd
    of the modes whose amplitude 2 |c_k| / n exceeds COVER_TOL times the
    loop's extent, and its mode j m is the primitive loop's mode j.  The
    primitive is the inverse transform of every m-th mode on the same n
    samples.  The Nyquist mode n / 2 of an even n holds a cosine once,
    while the inverse transform counts every mode below it twice (with its
    conjugate); where m divides n / 2 it moves below, so it is halved
    first.  A loop with m = 1 is returned unchanged.
    """
    n = loop.shape[0]
    modes = np.fft.rfft(loop, axis=0)
    if n % 2 == 0:
        modes[-1] /= 2
    amplitude = 2.0 / n * np.linalg.norm(modes[1:], axis=1)
    live = np.flatnonzero(amplitude > COVER_TOL * np.ptp(loop, axis=0).max()) + 1
    m = int(np.gcd.reduce(live))
    if m == 1:
        return 1, loop
    return m, np.fft.irfft(modes[::m], n, axis=0)


def curves_from_shots(surface, shots) -> list:
    """Primitive GeodesicCurves from converged shots.

    ``shots`` holds rows of a ``shoot_closed_batch`` result.  The samples
    are each shot's own final flow and the closure residual is that flow's
    position plus direction mismatch.  A shot that closes as an m-fold
    cover keeps the primitive loop of its flow (``_primitive_loop``), on the
    same number of samples, with length period / m and ``cover_multiplicity``
    m.
    """
    P0, V0, paths = shots["p0"], shots["v0"], shots["path"]
    residuals = np.linalg.norm(paths[:, -1] - P0, axis=1) + np.linalg.norm(
        shots["v1"] - V0, axis=1
    )
    loops = [_primitive_loop(path[:-1]) for path in paths]
    return [
        GeodesicCurve(
            samples=loop,
            length=float(period / m),
            closure_residual=float(residual),
            surface=surface,
            cover_multiplicity=m,
        )
        for (m, loop), period, residual in zip(loops, shots["period"], residuals)
    ]


def close_geodesic(surface: SurfaceModel, seed, max_iter: int = 30) -> GeodesicCurve:
    """Close a geodesic by Newton shooting from ``seed = (point, direction,
    period_guess)``.

    Returns a constant-speed GeodesicCurve on DEFAULT_STEPS samples with
    closure residual <= 1e-10.
    Raises NoConvergence or DegenerateJacobian on failure.
    """
    p, v, T = seed
    out = shoot_closed_batch(
        surface,
        np.asarray(p, float)[None],
        np.asarray(v, float)[None],
        np.array([float(T)]),
        max_iter=max_iter,
    )
    if not out["ok"][0]:
        if out["degenerate"][0]:
            raise DegenerateJacobian(
                "singular shooting differential (nontrivial Jacobi field?)"
            )
        raise NoConvergence(f"shooting residual {out['residual'][0]:.3e}")
    (curve,) = curves_from_shots(surface, out["shots"])
    curve.extra = {"degenerate_jacobian": bool(out["degenerate"][0])}
    return curve


# ---------------------------------------------------------------------------
# geodesic curvature
# ---------------------------------------------------------------------------


def geodesic_curvature_profile(curve: GeodesicCurve, surface: Optional[SurfaceModel] = None):
    """Signed geodesic curvature kappa(s) per sample of ``curve``.

    Sign convention: kappa = <-grad_T T, n> with n the right-of-travel
    normal (ambient: n = T x N_surface; charts: the metric-unit normal with
    det[T, n] < 0).  A counterclockwise circle of radius r in a flat chart
    has kappa = +1/r.
    """
    samples, closed = curve.samples, curve.closed
    surface = surface or curve.surface
    n_pts = samples.shape[0]
    dtheta = 2 * np.pi / n_pts if closed else 2 * np.pi / (n_pts - 1)
    derivative = periodic_derivative if closed else open_derivative
    d1, d2 = derivative(samples, dtheta), derivative(samples, dtheta, 2)
    if surface.kind == "levelset":
        N = surface.unit_normal(samples)
        sp = coord_norm(d1)
        T = d1 / sp[:, None]
        n_curve = np.cross(T, N)
        return -np.einsum("ni,ni->n", d2, n_curve) / sp**2
    return chart_curvature(surface, samples, d1, d2)


def chart_curvature(surface, samples, d1, d2, fd_h=_FD_H):
    """Signed curvature in a chart metric (vectorized over samples), with
    Christoffel symbols from central differences of step ``fd_h``."""
    g = surface.chart_metric(samples)
    gam = christoffel_batch(surface, samples, h=fd_h)
    acc = d2 + np.einsum("ncab,na,nb->nc", gam, d1, d1)
    sp2 = np.einsum("ni,nij,nj->n", d1, g, d1)
    w = metric_right_normals(g, d1)
    return -np.einsum("ni,nij,nj->n", acc, g, w) / sp2


def metric_right_normals(g, d1):
    """Right-of-travel normals to the chart tangents ``d1`` (n, 2), of unit
    length in the metrics ``g`` (n, 2, 2).

    Gram-Schmidt keeps det[t, w] < 0, the sign of the Euclidean right
    normal it starts from.
    """
    t = d1 / np.sqrt(np.einsum("ni,nij,nj->n", d1, g, d1))[:, None]
    w = np.stack([t[:, 1], -t[:, 0]], axis=1)
    w = w - np.einsum("ni,nij,nj->n", w, g, t)[:, None] * t
    return w / np.sqrt(np.einsum("ni,nij,nj->n", w, g, w))[:, None]


def require_geodesic(curve, surface=None):
    kap = geodesic_curvature_profile(curve, surface)
    worst = float(np.max(np.abs(kap)))
    if worst > GEODESIC_KAPPA_TOL:
        raise NotAGeodesic(f"max |kappa| = {worst:.3e} exceeds {GEODESIC_KAPPA_TOL:.1e}")
    return worst


# ---------------------------------------------------------------------------
# canonical sampled curves, seeds, distances
# ---------------------------------------------------------------------------


def curve_from_samples(surface, samples, closed=True) -> GeodesicCurve:
    samples = np.asarray(samples, dtype=float)
    length = curve_length(samples, surface, closed)
    # a sampled loop is closed by construction; open curves have no closure
    res = 0.0 if closed else None
    return GeodesicCurve(
        samples=samples,
        length=length,
        closure_residual=res,
        surface=surface,
        closed=closed,
    )


def level_circle_radius2(surface: SurfaceModel, c):
    """Squared radius (1 - c3 (c^2)^mu3) / c1 of the level circle {x3 = c}
    on a level set of revolution about the x3-axis, c1 = c2 and
    mu1 = mu2 = 1 (elementwise for an array of heights); <= 0 where it is
    empty.  Raises ValueError for charts and for other level sets."""
    coeffs, powers = surface.level_coeffs, tuple(surface.level_powers)
    if surface.kind != "levelset" or coeffs[0] != coeffs[1] or powers[:2] != (1.0, 1.0):
        raise ValueError("level circles need a surface of revolution about the x3-axis")
    return (1.0 - coeffs[2] * (c * c) ** powers[2]) / coeffs[0]


def sample_level_circle(surface: SurfaceModel, c: float, n: int = DEFAULT_STEPS):
    """Level circle {x3 = c} on a level set of revolution, sampled uniformly."""
    rho2 = level_circle_radius2(surface, c)
    if rho2 <= 0:
        raise ValueError("level circle is empty at this height")
    rho = np.sqrt(rho2)
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = np.stack([rho * np.cos(th), rho * np.sin(th), np.full(n, c)], axis=1)
    return curve_from_samples(surface, pts)


def sample_great_circle(surface: SurfaceModel, u, v, n: int = DEFAULT_STEPS):
    """Great circle cos(t) u + sin(t) v on the unit sphere."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u = u / np.linalg.norm(u)
    v = v - (v @ u) * u
    v = v / np.linalg.norm(v)
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = np.outer(np.cos(th), u) + np.outer(np.sin(th), v)
    return curve_from_samples(surface, pts)


def hausdorff_distance(a, b, bound: float = np.inf, tree_a=None, tree_b=None) -> float:
    """Symmetric Hausdorff distance between two sample clouds.

    Exact up to ``bound``; inf once the distance exceeds it, which lets the
    nearest-neighbour queries stop early: a strided probe of about
    PROBE_SAMPLES points of ``a`` is queried first, and one of them farther
    than the bound from ``b`` ends the check.  ``tree_a`` and ``tree_b``,
    cKDTrees of ``a`` and ``b``, let a caller comparing one cloud often
    build it once.
    """
    from scipy.spatial import cKDTree

    bound = np.nextafter(bound, np.inf)  # cKDTree keeps distances < bound only
    tree_b = cKDTree(b) if tree_b is None else tree_b
    for probe in (a[:: max(1, len(a) // PROBE_SAMPLES)], a):
        d_ab = tree_b.query(probe, distance_upper_bound=bound)[0].max()
        if np.isinf(d_ab):
            return np.inf
    tree_a = cKDTree(a) if tree_a is None else tree_a
    return float(max(d_ab, tree_a.query(b, distance_upper_bound=bound)[0].max()))


def aligned_bound(a, b) -> float:
    """An upper bound on the Hausdorff distance of two loops of equal sample
    count, inf for unequal counts.

    Any bijection sigma of the samples bounds the distance by max_i
    |a_i - b_sigma(i)|.  The bound is the smaller such max over the two
    cyclic alignments that start at b's sample nearest to a[0], one per
    orientation: for two samplings of one image it is about the half sample
    spacing the phases differ by.
    """
    if len(a) != len(b):
        return np.inf
    forward = np.roll(b, -int(np.argmin(coord_norm(b - a[0]))), axis=0)
    backward = np.roll(forward[::-1], 1, axis=0)
    return float(min(coord_norm(a - c).max() for c in (forward, backward)))


_PLASTIC = 1.32471795724474602596  # root of x^3 = x + 1


def low_discrepancy_seeds(n: int, dims: int, seed: int = 0) -> np.ndarray:
    """Deterministic Kronecker low-discrepancy sequence in [0,1)^dims.

    Keyed by ``seed`` through a fixed-offset scramble; identical inputs give
    byte-identical outputs.
    """
    alphas = np.array([1.0 / _PLASTIC ** (j + 1) for j in range(dims)])
    offs = np.modf(np.float64(seed) * 0.6180339887498949 + np.arange(dims) * 0.7548776662466927)[0]
    i = np.arange(1, n + 1)[:, None]
    return np.modf(offs + i * alphas)[0]


def mk_seed_directions(surface: SurfaceModel, n_seeds: int, seed: int):
    """Shooting seeds on an mk surface: points in a latitude band plus
    tangent directions from the low-discrepancy sequence."""
    zmax = mk_height(surface)
    u = low_discrepancy_seeds(n_seeds, 3, seed)
    c = SEED_BAND * zmax * (2.0 * u[:, 0] - 1.0)
    phi = 2 * np.pi * u[:, 1]
    alpha = np.pi * (u[:, 2] - 0.5)
    rho = np.sqrt(np.maximum(level_circle_radius2(surface, c), 1e-9))
    pts = surface.project(np.stack([rho * np.cos(phi), rho * np.sin(phi), c], axis=1))
    east = np.stack([-np.sin(phi), np.cos(phi), np.zeros(n_seeds)], axis=1)
    east, north, _ = _frames_at(surface, pts, east)
    dirs = np.cos(alpha)[:, None] * east + np.sin(alpha)[:, None] * north
    return pts, dirs
