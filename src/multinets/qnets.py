"""Q-nets and Q*-nets: Laplace data, multi-net predicates, Cauchy constructors.

A Q-net is a grid of points of RP^n with planar elementary quadrilaterals;
a multi-Q-net additionally has planar coordinate rectangles for all index
pairs and is exactly a discrete projective translation surface: there exist
homogeneous representatives with x_{ij} = p_i + q_j.  The dual objects are
nets of planes with concurrent quadruples (Q*-nets).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateQuad,
    DimensionMismatch,
    GeometryError,
    InconsistentCorner,
    NonPlanarQuad,
    NotMultiQ,
    PerspectivityViolation,
    PointOffLine,
    SkewLines,
    ZeroSum,
    ZeroVector,
    raise_first_failure,
    raise_unless_finite,
)
from .projective import (
    _ABS_EPS,
    MATCH_TOL,
    RANK_RTOL,
    REPRODUCE_TOL,
    ZERO_RTOL,
    ProjLine,
    _above_rank3,
    _read_only,
    common_point_of_spans,
    corner_minors,
    hpoint,
    index_pairs,
    normalize,
    proj_distance,
    rank_violations,
    rect_indices,
    rect_stacks,
    span_rank,
    span_svd,
)


@dataclass
class PointNet:
    """Finite rectangular grid of points of RP^n, stored as (nu, nv, n+1)."""

    points: np.ndarray
    ambient: str = "RP3"

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 3:
            raise DimensionMismatch("PointNet expects an array of shape (nu, nv, n+1)")
        if np.any(np.linalg.norm(self.points, axis=-1) <= _ABS_EPS):
            raise ZeroVector("net contains a zero coordinate vector")
        raise_unless_finite(self.points, "vertex")

    @property
    def dims(self):
        return self.points.shape[0], self.points.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[2]

    def quad(self, i: int, j: int):
        """Corners (x00, x10, x01, x11) of the elementary quad at (i, j)."""
        p = self.points
        return p[i, j], p[i + 1, j], p[i, j + 1], p[i + 1, j + 1]


@dataclass
class PlaneNet:
    """Grid of oriented planes {x : n . x = d}, stored as covectors (n1,n2,n3,d)."""

    covectors: np.ndarray

    def __post_init__(self):
        self.covectors = np.asarray(self.covectors, dtype=float)
        if self.covectors.ndim != 3 or self.covectors.shape[2] != 4:
            raise DimensionMismatch("PlaneNet expects an array of shape (nu, nv, 4)")
        if np.any(np.linalg.norm(self.covectors, axis=-1) <= _ABS_EPS):
            raise ZeroVector("plane net contains a zero covector")
        raise_unless_finite(self.covectors, "covector")

    @property
    def dims(self):
        return self.covectors.shape[0], self.covectors.shape[1]

    def homogeneous(self) -> np.ndarray:
        """Covectors (n, -d) acting on homogeneous points (x, w)."""
        h = self.covectors.copy()
        h[..., 3] *= -1.0
        return h


@dataclass
class LaplaceData:
    """Coefficients of x11 = a x10 + b x01 - c x00 and the two Laplace points."""

    a: float
    b: float
    c: float
    y1: np.ndarray
    y2: np.ndarray


# corner triples of a quad stack (x00, x10, x01, x11), one per dropped corner,
# in the order of the minors of projective.corner_minors
_CORNER_TRIPLES = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]

# Three unit rows a, b, c have sigma_3 >= |a^b^c| / (sigma_1 sigma_2), and
# sigma_1 sigma_2 <= (sigma_1^2 + sigma_2^2) / 2 <= 3 / 2, so a volume
# |a^b^c| >= _RANK3_VOLUME gives sigma_3 >= 6.6e-9, while sigma_1 <= sqrt(3)
# puts the rank rule's RANK_RTOL sigma_1 at most 1.8e-9: such a triple spans
# rank 3 under span_rank, with a margin far above the rounding of the minors
# (projective._minor_rounding) and of the SVD (a small multiple of 1e-16).
_RANK3_VOLUME = 1e-8

# laplace_gauges solves by Cramer's rule where the unit rows x00, x10, x01
# span a volume of at least _CRAMER_VOLUME.  The minors are off by a few u
# (u = 2^-53), and the solve divides by the squared volume, so its relative
# error grows like u / volume: below 1e-11 here.  Thinner quads keep the
# SVD solve of _unit_lstsq.
_CRAMER_VOLUME = 1e-4


def _collinear_triples(quads, v3):
    """True for each quad (Q, 4, d) with a corner triple of span rank < 3.

    v3 (Q, 4) holds the volumes of the unit corner triples (corner_minors);
    a triple with volume >= _RANK3_VOLUME spans rank 3 by the bound above,
    and only the thinner ones go to span_rank.
    """
    thin = v3 < _RANK3_VOLUME
    low = np.zeros(thin.shape, dtype=bool)
    if np.any(thin):
        q, t = np.nonzero(thin)
        low[q, t] = span_rank(quads[q[:, None], np.take(_CORNER_TRIPLES, t, axis=0)]) < 3
    return np.any(low, axis=-1)


def _unit_lstsq(m, rhs):
    """Batched least squares m c = rhs, m (..., d, k), on unit-normalized columns.

    Solving on unit columns with lstsq's default cutoff keeps the solve
    independent of the scale of each column.  Returns the coefficients c of
    the columns as given, the scale-free coefficients of the unit columns,
    and the residual relative to |rhs|.
    """
    norms = np.linalg.norm(m, axis=-2)
    unit_m = m / norms[..., None, :]
    u, s, vh = np.linalg.svd(unit_m, full_matrices=False)
    keep = s > np.finfo(float).eps * max(m.shape[-2:]) * s[..., :1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    unit = np.einsum("...ji,...j->...i", vh, inv_s * np.einsum("...dj,...d->...j", u, rhs))
    resid = np.linalg.norm(np.einsum("...dj,...j->...d", unit_m, unit) - rhs, axis=-1)
    return unit / norms, unit, resid / np.linalg.norm(rhs, axis=-1)


def laplace_gauges(quads):
    """Batched laplace_gauge over corner stacks (Q, 4, d) in the order
    x00, x10, x01, x11.

    Returns t (Q, 4, d), y (Q, 2, d) and the coefficients (Q, 3) as (a, b, c).
    The first failing quad in stack order raises the first check that fails
    for it, in the order of laplace_gauge.
    """
    t, y, coeffs, checks = _laplace_gauges(quads)
    raise_first_failure(checks)
    return t, y, coeffs


def _laplace_gauges(quads):
    """laplace_gauges without the raise: t, y and the coefficients of every
    quad, and the checks of each quad in the order first_failure takes them
    (rank 4, a collinear corner triple, a vanishing coefficient, coincident
    opposite corners).  The rows of a failing quad are not meaningful.

    One pass of corner_minors decides planarity (with span_rank only where
    its certificate leaves a quad open) and the corner triples, and gives
    the coefficients by Cramer's rule: with W_t the minors of the unit rows
    without corner t and r_t the corner norms, Cauchy-Binet turns the
    wedges of x11 = a x10 + b x01 - c x00 with the other two of x00, x10,
    x01 into a = -(r3/r1) <W1,W3> / |W3|^2, b = (r3/r2) <W2,W3> / |W3|^2 and
    c = -(r3/r0) <W0,W3> / |W3|^2, the least-squares coefficients of
    _unit_lstsq.  Quads whose volume |W3| is below _CRAMER_VOLUME keep
    _unit_lstsq.
    """
    quads = np.asarray(quads, dtype=float)
    w, v3, v4 = corner_minors(quads)
    nonplanar = _above_rank3(quads, v3, v4)
    collinear = _collinear_triples(quads, v3)
    x00, x10, x01, x11 = np.moveaxis(quads, -2, 0)
    norms = np.linalg.norm(quads, axis=-1)
    cramer = v3[:, 3] >= _CRAMER_VOLUME
    dots = np.einsum("qtk,qk->qt", w, w[:, 3])
    scale = norms[:, 3] / np.where(cramer, dots[:, 3], 1.0)
    unit = scale[:, None] * dots[:, [1, 2, 0]] * (-1.0, 1.0, -1.0)
    coeffs = unit / norms[:, [1, 2, 0]]
    rest = np.flatnonzero(~cramer)
    if rest.size:
        m = np.stack([x10[rest], x01[rest], -x00[rest]], axis=-1)
        coeffs[rest], unit[rest], _ = _unit_lstsq(m, x11[rest])
    mags = np.abs(unit)
    vanishing = np.min(mags, axis=-1) <= ZERO_RTOL * np.max(mags, axis=-1)
    a, b, c = coeffs.T
    t = np.stack([c[:, None] * x00, a[:, None] * x10, b[:, None] * x01, x11], axis=1)
    y = t[:, 1:3] - t[:, :1]
    coincident = np.min(np.linalg.norm(y, axis=-1), axis=-1) <= ZERO_RTOL * norms[:, 3]
    checks = [
        (nonplanar, lambda k: NonPlanarQuad("quad spans rank 4")),
        (collinear, lambda k: DegenerateQuad("three corners are collinear or coincident")),
        (vanishing, lambda k: DegenerateQuad("vanishing Laplace coefficient")),
        (coincident, lambda k: DegenerateQuad("coincident opposite corners")),
    ]
    return t, y, coeffs, checks


def laplace_gauge(x00, x10, x01, x11):
    """Renormalized representatives (t00, t10, t01, t11) with
    t11 = t10 + t01 - t00, plus the Laplace vectors (y1, y2)."""
    quad = np.stack([hpoint(p) for p in (x00, x10, x01, x11)])
    raise_unless_finite(quad, "corner")
    t, y, coeffs = laplace_gauges(quad[None])
    return tuple(t[0]), tuple(y[0]), tuple(coeffs[0].tolist())


def laplace_data(x00, x10, x01, x11) -> LaplaceData:
    """Laplace equation coefficients and Laplace points of a planar quad.

    y1 is the meet of the two edge lines of the first direction
    (x00 x10 and x01 x11); y2 the meet for the second direction.
    """
    _, (y1, y2), (a, b, c) = laplace_gauge(x00, x10, x01, x11)
    return LaplaceData(a, b, c, normalize(y1), normalize(y2))


# -- planarity predicates ------------------------------------------------------


def q_violations(net: PointNet):
    """Non-planar elementary quads as ((i0,i1,j0,j1), residual) entries."""
    return rank_violations(*rect_stacks(net.points, elementary=True))


def is_q_net(net: PointNet) -> bool:
    """True iff every elementary quad is planar (span rank <= 3)."""
    return not q_violations(net)


def multi_q_violations(net: PointNet):
    """Non-planar coordinate rectangles, exhaustively over all index pairs."""
    return rank_violations(*rect_stacks(net.points, elementary=False))


def is_multi_q_net(net: PointNet) -> bool:
    """True iff every coordinate rectangle is planar; the verdict of
    multi_q_violations, reached as _rects_planar describes."""
    return _rects_planar(net.points)


# Rectangles decided by the SVD rule before the translation certificate is
# tried; nets with no more rectangles (the 4x5 nets of circular
# classification have 60) are decided by the SVD rule alone.
_FIRST_CHUNK = 64


def _rects_planar(grid) -> bool:
    """True iff every coordinate rectangle of a grid (nu, nv, d) of
    homogeneous points spans rank <= 3: the verdict of
    rank_violations(*rect_stacks(grid, elementary=False)) == [].

    The first _FIRST_CHUNK rectangles in key order go to _above_rank3, the
    mask that rank_violations lists: a violation there gives False, and a
    grid with no more rectangles gives True.  Then _translation_certified
    may pass every rectangle at once.  Failing that, the remaining
    rectangles go to _above_rank3 in one call.  The mask reaches the SVD
    rule's verdict by the proof of projective._rank4_certificate, and the
    translation certificate does by its own.
    """
    rows, cols = rect_indices(*grid.shape[:2], False)

    def violated(lo, hi):
        stacks = grid[rows[lo:hi], cols[lo:hi]]
        return bool(np.any(_above_rank3(stacks, *corner_minors(stacks)[1:])))

    if violated(0, _FIRST_CHUNK):
        return False
    certified = len(rows) <= _FIRST_CHUNK or _translation_certified(grid)
    return certified or not violated(_FIRST_CHUNK, len(rows))


def _translation_certified(grid) -> bool:
    """True only if every coordinate rectangle of a grid (nu, nv, d) of
    homogeneous points passes the SVD rule of rank_violations; False means
    "not certified", not "fails".  O(nu nv d) work after the strip gauge.

    The bound.  A multi-Q-net is a projective translation surface, so its
    strip gauge (_strip_cauchy) gives x00, y1, y2 with [x_ij] = [R_ij] for
    R_ij = x00 + Y1_i + Y2_j, where Y1_i, Y2_j are the partial sums of y1,
    y2.  Let L_ij = lam_ij x_ij with lam_ij = <R_ij, x_ij> / |x_ij|^2 (the
    multiple of x_ij closest to R_ij), eps = max |L - R| and m = min |L|.
    Take a rectangle with corners x_1..x_4 at (i0,j0), (i1,j0), (i0,j1),
    (i1,j1), and its stack A with the unit rows a_k = x_k / |x_k|.  Then
    sigma_1(A) >= |a_1| = 1, and for d >= 4 sigma_4(A) = min |c^T A| / |c|
    over c != 0 in R^4.  With the signs s = (+, -, -, +) take
    c_k = s_k lam_k |x_k|: c^T A = sum_k s_k L_k is the rectangle sum of L,
    and |c| = (sum_k |L_k|^2)^(1/2) >= 2 m.  The rectangle sum of
    x00 + Y1_i + Y2_j vanishes identically, so the rectangle sum of L is at
    most sum_k |L_k - R_k| <= 4 eps, plus the rounding delta below.  Hence
    every rectangle has

        sigma_4 / sigma_1 <= (4 eps + delta) / (2 m).

    For d <= 3 no stack reaches rank 4 and there is nothing to prove.

    The rounding delta.  With u = 2^-53 and the computed floats Y1_i, Y2_j,
    R_ij = fl(fl(x00 + Y1_i) + Y2_j), lam_ij and L_ij = fl(lam_ij x_ij), take
    c from the computed lam.  Then c^T A is the rectangle sum of the exact
    products lam_ij x_ij, and with S = max_ij (|x00| + |Y1_i| + |Y2_j| + |L_ij|):
    (i) each exact product is within u |lam_ij x_ij| <= 2u S of L_ij, 8u S for
    the four corners; (ii) the computed eps underestimates the exact
    max |L - R| by at most (d + 4) u S, as the difference and the norm round,
    4 (d + 4) u S for the four corners; (iii) each R_ij is within
    2u / (1 - 2u) (|x00| + |Y1_i| + |Y2_j|) of the exact x00 + Y1_i + Y2_j,
    whose rectangle sum is zero, at most 9u S for the four corners.  These
    add up to (4d + 33) u S <= 16 d u S, and delta = 16 d eps_mach S with
    eps_mach = 2u is twice that.

    The rule.  The SVD rule flags a stack iff its computed
    sigma_4 > RANK_RTOL * sigma_1.  The certificate asks for the bound to be
    at most RANK_RTOL / 2, i.e. 4 eps + delta <= RANK_RTOL m.  The other half
    of RANK_RTOL absorbs the rounding of the row normalization and of the
    backward-stable SVD, which move each singular value by a small multiple
    of u sigma_1, and the relative rounding of m, about d u: orders of
    magnitude below RANK_RTOL / 2 = 5e-10.  So a certified grid has no rank
    violation, and no vertex is off its gauge by a sine |L - R| / |R| above
    eps / m <= RANK_RTOL / 4, far below the MATCH_TOL of translation_gauge's
    vertex check, which is therefore not repeated.  A strip gauge that
    _strip_cauchy cannot build (any GeometryError) and a non-finite bound
    leave the grid uncertified.  The gauge, eps, m and delta come from the
    memoized record of _strip_gauge.
    """
    gauge = _strip_gauge(grid)
    return gauge.error is None and bool(4 * gauge.eps + gauge.delta <= RANK_RTOL * gauge.min_norm)


# -- translation structure ----------------------------------------------------


def _perspective_gauge(raw0, raw1, y):
    """Representatives r0, r1 of the points raw0, raw1 (..., d) with
    r1 - r0 = y, for y broadcasting against them.

    Each pair must be in perspective from [y], i.e. [raw1] lies on the line
    through [raw0] and [y]; the first sample (in row-major order) whose
    relative residual exceeds MATCH_TOL raises PerspectivityViolation.
    """
    m = np.stack([raw1, -raw0], axis=-1)
    coeffs, _, resid = _unit_lstsq(m, np.broadcast_to(y, m.shape[:-1]))
    bad = np.argwhere(resid > MATCH_TOL)
    if bad.size:
        k = tuple(bad[0])
        raise PerspectivityViolation(
            f"sample {', '.join(map(str, k))} not in perspective (residual {resid[k]:.2e})"
        )
    return coeffs[..., 1:] * raw0, coeffs[..., :1] * raw1


def _strip_cauchy(rows, cols, ambient: str = "RP3"):
    """Cauchy data (x00, y1, y2) of the multi-Q-net through a row strip
    rows (2, nv, d) and a column strip cols (nu, 2, d), and that net.

    Both strips are gauged from the Laplace gauge of the corner quad of rows:
    row i=1 is row 0 translated by its y1, column j=1 is column 0 translated
    by its y2.
    """
    t, y, _ = laplace_gauges(rows[[0, 1, 0, 1], [0, 0, 1, 1]][None])
    row0, _ = _perspective_gauge(rows[0], rows[1], y[0, 0])
    col0, _ = _perspective_gauge(cols[:, 0], cols[:, 1], y[0, 1])
    y1, y2 = np.diff(col0, axis=0), np.diff(row0, axis=0)
    return t[0, 0], y1, y2, from_cauchy_homogeneous(y1, y2, t[0, 0], ambient=ambient)


@dataclass(frozen=True)
class _StripGauge:
    """The strip gauge of one grid (nu, nv, d) and the terms of its bounds.

    Where _strip_cauchy raised a GeometryError, error holds its type and
    message and nothing else is set.  Otherwise x00, y1, y2 and points are
    _strip_cauchy's Cauchy data and reconstruction, acc1 (nu, d) and acc2
    (nv, d) the partial sums Y1_i, Y2_j with Y1_0 = Y2_0 = 0, and eps,
    min_norm and delta the eps, m and delta of _translation_certified.  The
    arrays are read-only.
    """

    error: tuple | None = None
    x00: np.ndarray | None = None
    y1: np.ndarray | None = None
    y2: np.ndarray | None = None
    points: np.ndarray | None = None
    acc1: np.ndarray | None = None
    acc2: np.ndarray | None = None
    eps: float = np.nan
    min_norm: float = np.nan
    delta: float = np.nan


def _strip_gauge(grid) -> _StripGauge:
    """The _StripGauge of a grid (nu, nv, d) with nu, nv >= 2, memoized on
    its shape and bytes: the multi-Q predicates of one net (and of its dual,
    whose homogeneous covectors are the same floats) build it once."""
    grid = np.asarray(grid, dtype=float)
    return _gauge_of(grid.shape, grid.tobytes())


@functools.lru_cache(maxsize=4)
def _gauge_of(shape, data) -> _StripGauge:
    """_strip_gauge of the float64 grid with these shape and C-order bytes."""
    grid = np.frombuffer(data).reshape(shape)
    try:
        x00, y1, y2, rec = _strip_cauchy(grid[0:2], grid[:, 0:2])
    except GeometryError as exc:
        return _StripGauge(error=(type(exc), str(exc)))
    acc1 = np.concatenate([[np.zeros_like(x00)], np.cumsum(y1, axis=0)])
    acc2 = np.concatenate([[np.zeros_like(x00)], np.cumsum(y2, axis=0)])
    r = rec.points
    lam = np.sum(r * grid, axis=-1) / np.sum(grid * grid, axis=-1)
    fitted = lam[..., None] * grid
    l_norms = np.linalg.norm(fitted, axis=-1)
    sizes = (
        np.linalg.norm(x00)
        + np.linalg.norm(acc1, axis=-1)[:, None]
        + np.linalg.norm(acc2, axis=-1)[None, :]
        + l_norms
    )
    return _StripGauge(
        None,
        *_read_only(x00, y1, y2, r, acc1, acc2),
        eps=float(np.max(np.linalg.norm(fitted - r, axis=-1))),
        min_norm=float(np.min(l_norms)),
        delta=float(16 * shape[-1] * np.finfo(float).eps * np.max(sizes)),
    )


def translation_gauge(net: PointNet):
    """Homogeneous representatives realizing x_{ij} = x00 + sum y1 + sum y2.

    Returns (x00, y1, y2) with y1 of shape (nu-1, d) and y2 of (nv-1, d);
    raises NotMultiQ when no consistent translation gauge exists.
    """
    nu, nv = net.dims
    if nu < 2 or nv < 2:
        raise NotMultiQ("net must be at least 2x2")
    p = net.points
    raise_unless_finite(p, "vertex")
    gauge = _strip_gauge(p)
    if gauge.error is not None:
        kind, message = gauge.error
        if issubclass(kind, (ZeroSum, ZeroVector)):
            raise NotMultiQ("translation reconstruction hit a zero vector") from kind(message)
        if issubclass(kind, (PerspectivityViolation, NonPlanarQuad, DegenerateQuad)):
            raise NotMultiQ(message) from kind(message)
        raise kind(message)
    # verify the reconstruction against the whole net
    off = np.argwhere(proj_distance(gauge.points, p) > MATCH_TOL)
    if off.size:
        i, j = off[0]
        raise NotMultiQ(f"vertex ({i},{j}) off the translation reconstruction")
    return gauge.x00.copy(), gauge.y1.copy(), gauge.y2.copy()


def is_translation_net(net: PointNet) -> bool:
    """True iff a consistent translation gauge exists (Cauchy form holds)."""
    try:
        translation_gauge(net)
        return True
    except NotMultiQ:
        return False


def _vanishing_sum(total, *summands):
    """Rows of total (..., d) that vanish next to the summands it adds up,
    which broadcast against it: |total| <= ZERO_RTOL * sum of |summand|."""
    scale = sum(np.linalg.norm(s, axis=-1) for s in summands)
    return np.linalg.norm(total, axis=-1) <= ZERO_RTOL * scale


def from_translation(p_seq, q_seq, ambient: str = "RP3") -> PointNet:
    """Net [p_i + q_j] generated by two polygons of homogeneous coordinates."""
    p = np.atleast_2d(np.asarray(p_seq, dtype=float))
    q = np.atleast_2d(np.asarray(q_seq, dtype=float))
    if p.shape[1] != q.shape[1]:
        raise DimensionMismatch("generator polygons of different dimension")
    pts = p[:, None, :] + q[None, :, :]
    if np.any(_vanishing_sum(pts, p[:, None, :], q[None, :, :])):
        raise ZeroSum("p_i + q_j vanished")
    return PointNet(pts, ambient=ambient)


def from_cauchy_homogeneous(y1, y2, x00, ambient: str = "RP3") -> PointNet:
    """Unique multi-Q-net with prescribed Laplace transform vectors:
    x_{ij} = x00 + sum_{k<i} y1_k + sum_{l<j} y2_l."""
    y1 = np.atleast_2d(np.asarray(y1, dtype=float))
    y2 = np.atleast_2d(np.asarray(y2, dtype=float))
    x00 = hpoint(x00)
    acc1 = np.concatenate([[np.zeros_like(x00)], np.cumsum(y1, axis=0)])
    acc2 = np.concatenate([[np.zeros_like(x00)], np.cumsum(y2, axis=0)])
    pts = x00[None, None, :] + acc1[:, None, :] + acc2[None, :, :]
    if np.any(_vanishing_sum(pts, x00, acc1[:, None], acc2[None, :])):
        raise ZeroSum("a homogeneous partial sum vanished")
    return PointNet(pts, ambient=ambient)


def from_two_strips(strip1: PointNet, strip2: PointNet) -> PointNet:
    """Multi-Q-net extending two coordinate strips.

    strip1 holds rows i in {0,1} (shape 2 x nv), strip2 holds columns
    j in {0,1} (shape nu x 2); they must agree on the shared corner quad
    and satisfy the strip perspectivity property.
    """
    if strip1.dims[0] != 2 or strip2.dims[1] != 2:
        raise DimensionMismatch("strip1 must be 2 x nv and strip2 nu x 2")
    rows, cols = strip1.points, strip2.points
    i, j = np.array([[0, 1, 0, 1], [0, 0, 1, 1]])  # the corners in the order they are named
    off = np.flatnonzero(proj_distance(rows[i, j], cols[i, j]) > MATCH_TOL)
    if off.size:
        raise InconsistentCorner(f"strips disagree at corner ({i[off[0]]},{j[off[0]]})")
    *_, net = _strip_cauchy(rows, cols, ambient=strip1.ambient)
    for name, dist, where in (
        ("row strip", proj_distance(net.points[1], rows[1]), "column"),
        ("column strip", proj_distance(net.points[:, 1], cols[:, 1]), "row"),
    ):
        off = np.flatnonzero(dist > REPRODUCE_TOL)
        if off.size:
            raise PerspectivityViolation(f"{name} not reproduced at {where} {off[0]}")
    return net


def _laplace_vectors(net: PointNet):
    """Laplace vectors y (nu-1, nv-1, 2, d) of the gauges of all elementary
    quads: y[..., 0, :] represents y1_{ij}, y[..., 1, :] y2_{ij}."""
    nu, nv = net.dims
    rows, cols = rect_indices(nu, nv, True)
    _, y, _ = laplace_gauges(net.points[rows, cols])
    return y.reshape(nu - 1, nv - 1, 2, net.ambient_dim)


def laplace_transforms(net: PointNet):
    """Grids of Laplace points y1_{ij}, y2_{ij} of all elementary quads."""
    y = normalize(_laplace_vectors(net))
    return tuple(PointNet(y[:, :, k], ambient=net.ambient) for k in (0, 1))


def laplace_transforms_degenerate(net: PointNet) -> bool:
    """True iff y1 is constant along j and y2 along i, to MATCH_TOL."""
    y = _laplace_vectors(net)
    return not (
        np.any(proj_distance(y[:, :, 0], y[:, :1, 0]) > MATCH_TOL)
        or np.any(proj_distance(y[:, :, 1], y[:1, :, 1]) > MATCH_TOL)
    )


# -- perspectivity predicates ---------------------------------------------------


def _parameter_polygons_perspective(net: PointNet, pairs) -> bool:
    """True iff for every index pair (i0, i1) from pairs(n), of rows and of
    columns, the lines joining corresponding points of the two polygons are
    concurrent by common_point_of_spans.  Joins of coincident points are
    left out, and a pair with fewer than two joins is in perspective.

    The first nu - 1 row pairs go to common_point_of_spans: a residual above
    RANK_RTOL there gives False.  Then _perspectivity_certified may pass
    every pair at once.  Failing that, the remaining row pairs and then the
    column pairs go to common_point_of_spans, one call per direction.
    """
    p = net.points
    (r0, r1), (c0, c1) = pairs(p.shape[0]), pairs(p.shape[1])
    first = p.shape[0] - 1
    if not _joins_concurrent(p, r0[:first], r1[:first]):
        return False
    if _perspectivity_certified(p, (r0, r1), (c0, c1)):
        return True
    return _joins_concurrent(p, r0[first:], r1[first:]) and _joins_concurrent(
        p.swapaxes(0, 1), c0, c1
    )


def _joins_concurrent(grid, i0, i1) -> bool:
    """True iff for every k the joins of grid[i0[k], j] and grid[i1[k], j]
    over j have a common point: a root sum of squared sines at most RANK_RTOL
    by common_point_of_spans, joins of rank 1 left out."""
    if not len(i0):
        return True
    _, resid, _ = common_point_of_spans(np.stack([grid[i0], grid[i1]], axis=2), min_rank=2)
    return not np.any(resid > RANK_RTOL)


def _perspectivity_certified(grid, row_pairs, col_pairs) -> bool:
    """True only if every row pair in row_pairs and every column pair in
    col_pairs of a grid (nu, nv, d) of homogeneous points is in perspective:
    some direction has a root sum of squared sines to the joins of the pair
    of at most RANK_RTOL.  False means "not certified", not "fails".
    O((P + nu nv) d) work for P pairs after the strip gauge.

    The bound.  Take the gauge of _translation_certified: R_ij = x00 + Y1_i
    + Y2_j, L_ij = lam_ij x_ij and eps = max |L - R|.  For rows i < i' let
    c = Y1_i' - Y1_i.  The vector L_i'j - L_ij lies on the join of x_ij and
    x_i'j, whatever lam, and equals R_i'j - R_ij + e = c + e with
    |e| <= 2 eps.  So the sine from c to that join is at most |e| / |c|
    <= 2 eps / |c|, and the root sum over the at most nv joins is at most
    2 eps sqrt(nv) / |c|.  Leaving out the joins of coincident points only
    lowers the sum.  This bounds the least root sum over all directions,
    which is the predicate's residual.  Columns work the same way with
    c = Y2_j' - Y2_j and nu joins.

    The rounding.  With u = 2^-53, S and delta = 16 d eps_mach S as in
    _translation_certified, and c the exact difference of the computed
    partial sums: each exact product lam_ij x_ij is within u S of L_ij; each
    computed R_ij is within 2u / (1 - 2u) S of the exact x00 + Y1_i + Y2_j,
    whose differences along a column are exactly c; and the exact |L - R|
    exceeds the computed eps by at most (d + 4) u S.  So every exact
    |lam_ij x_ij - (x00 + Y1_i + Y2_j)| is at most eps + (d + 8) u S
    <= eps + delta, and |e| <= 2 (eps + delta).

    The rule.  The certificate asks for
    2 (eps + delta) sqrt(max(nu, nv)) <= (RANK_RTOL / 2) min |c|, with the
    minimum over the given pairs of both directions.  The other half of
    RANK_RTOL absorbs the relative rounding of the computed |c|, about d u.
    Two equal rows or columns give c = 0 and no certificate.  A strip gauge
    that _strip_cauchy cannot build and a non-finite bound leave the grid
    uncertified.
    """
    nu, nv = grid.shape[:2]
    if nu < 2 or nv < 2:
        return False
    gauge = _strip_gauge(grid)
    if gauge.error is not None:
        return False
    sep = min(
        np.min(np.linalg.norm(acc[i1] - acc[i0], axis=-1))
        for acc, (i0, i1) in ((gauge.acc1, row_pairs), (gauge.acc2, col_pairs))
    )
    return bool(4 * (gauge.eps + gauge.delta) * np.sqrt(max(nu, nv)) <= RANK_RTOL * sep)


def neighbor_perspectivity(net: PointNet) -> bool:
    """Every two neighboring parameter polygons in perspective w.r.t. a point."""
    return _parameter_polygons_perspective(net, lambda n: (np.arange(n - 1), np.arange(1, n)))


def all_pairs_perspectivity(net: PointNet) -> bool:
    """Every two parameter polygons of the same direction in perspective."""
    return _parameter_polygons_perspective(net, index_pairs)


def has_planar_parameter_polygons(net: PointNet) -> bool:
    """Every row and column point set spans rank <= 3 (planar polygons)."""
    p = net.points
    return not (np.any(span_rank(p) > 3) or np.any(span_rank(p.swapaxes(0, 1)) > 3))


# -- Q*-nets -------------------------------------------------------------------


def qstar_violations(pn: PlaneNet):
    """Elementary plane quadruples that do not meet in a point."""
    return rank_violations(*rect_stacks(pn.homogeneous(), elementary=True))


def is_qstar_net(pn: PlaneNet) -> bool:
    """True iff every elementary plane quadruple is concurrent."""
    return not qstar_violations(pn)


def multi_qstar_violations(pn: PlaneNet):
    """Plane rectangles failing concurrency, exhaustively."""
    return rank_violations(*rect_stacks(pn.homogeneous(), elementary=False))


def is_multi_qstar(pn: PlaneNet) -> bool:
    """True iff every coordinate rectangle of planes is concurrent; the
    verdict of multi_qstar_violations, reached as _rects_planar describes."""
    return _rects_planar(pn.homogeneous())


def qstar_vertices(pn: PlaneNet):
    """Common points of the elementary plane quadruples, as a grid of
    homogeneous points (None where the quad has a whole common line)."""
    nu, nv = pn.dims
    _, quads = rect_stacks(pn.homogeneous(), elementary=True)
    _, vh, kept = span_svd(quads)
    ranks = np.sum(kept, axis=-1)
    bad = np.flatnonzero(ranks > 3)
    if bad.size:
        i, j = divmod(int(bad[0]), nv - 1)
        raise NonPlanarQuad(f"planes of quad ({i},{j}) are not concurrent")
    verts = [v if r == 3 else None for v, r in zip(vh[:, -1], ranks)]
    return [verts[i * (nv - 1) : (i + 1) * (nv - 1)] for i in range(nu - 1)]


def check_planar_parameter_lines(pn: PlaneNet) -> bool:
    """Planarity of the parameter lines of a Q*-net: the polygons formed by
    the elementary intersection points along each direction are coplanar.

    Equivalent to the multi-Q* property on generic data; quads whose planes
    share a whole line contribute no vertex and never spoil planarity.
    """
    try:
        verts = qstar_vertices(pn)
    except NonPlanarQuad:
        return False
    lines = ([v for v in line if v is not None] for line in verts + list(zip(*verts)))
    return not any(len(line) >= 4 and span_rank(line) > 3 for line in lines)


def dualize_point_net(net: PointNet) -> PlaneNet:
    """Apply the identity polarity: point (a,b,c,e) -> plane a x + b y + c z = -e."""
    if net.ambient_dim != 4:
        raise DimensionMismatch("polarity defined for RP^3 nets")
    cov = net.points.copy()
    cov[..., 3] *= -1.0
    return PlaneNet(cov)


# -- (Q + Q*)-nets -------------------------------------------------------------


def build_qqstar_net(
    line1: ProjLine, line2: ProjLine, y1_points, y2_points, x00
) -> PointNet:
    """Multi-Q-net whose Laplace transforms lie on two skew lines.

    The resulting net is simultaneously multi-Q and multi-Q*: all parameter
    polygons are planar, with the row planes through line2 and the column
    planes through line1.
    """
    d = line1.a.shape[0]
    if line2.a.shape != (d,):
        raise DimensionMismatch("carrier lines of different dimension")
    if span_rank(np.concatenate([line1.span, line2.span])) < 4:
        raise SkewLines("carrier lines must be skew")
    samples = []
    for y in (y1_points, y2_points):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if y.ndim != 2 or y.shape[1] != d:
            raise DimensionMismatch(f"expected samples of {d} coordinates, got shape {y.shape}")
        samples.append((y, normalize(y)))
    for k, line, (y, _) in zip((1, 2), (line1, line2), samples):
        if np.any(span_rank(np.stack(np.broadcast_arrays(line.a, line.b, y), axis=1)) > 2):
            raise PointOffLine(f"y{k} sample off line{k}")
    x00 = hpoint(x00)
    if x00.shape != (d,):
        raise DimensionMismatch(f"expected x00 of {d} coordinates, got shape {x00.shape}")
    if line1.contains(x00) or line2.contains(x00):
        raise PointOffLine("x00 must avoid both carrier lines")
    return from_cauchy_homogeneous(*(unit for _, unit in samples), normalize(x00))
