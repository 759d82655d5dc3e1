"""Q-nets and Q*-nets: Laplace data, multi-net predicates, Cauchy constructors.

A Q-net is a grid of points of RP^n with planar elementary quadrilaterals;
a multi-Q-net additionally has planar coordinate rectangles for all index
pairs and is exactly a discrete projective translation surface: there exist
homogeneous representatives with x_{ij} = p_i + q_j.  The dual objects are
nets of planes with concurrent quadruples (Q*-nets).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateQuad,
    DimensionMismatch,
    InconsistentCorner,
    NonPlanarQuad,
    NotMultiQ,
    PerspectivityViolation,
    PointOffLine,
    SkewLines,
    ZeroSum,
    ZeroVector,
)
from .projective import (
    RANK_RTOL,
    ProjLine,
    common_point_of_spans,
    hpoint,
    normalize,
    normalized_rows,
    proj_distance,
    proj_equal,
    rank_violations,
    rect_stacks,
    span_rank,
)

_GAUGE_TOL = 1e-8


@dataclass
class PointNet:
    """Finite rectangular grid of points of RP^n, stored as (nu, nv, n+1)."""

    points: np.ndarray
    ambient: str = "RP3"

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 3:
            raise DimensionMismatch("PointNet expects an array of shape (nu, nv, n+1)")
        if np.any(np.linalg.norm(self.points, axis=-1) <= 1e-13):
            raise ZeroVector("net contains a zero coordinate vector")

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
        if np.any(np.linalg.norm(self.covectors, axis=-1) <= 1e-13):
            raise ZeroVector("plane net contains a zero covector")

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


# corner triples of a quad stack (x00, x10, x01, x11), one per dropped corner
_CORNER_TRIPLES = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]


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
    quads = np.asarray(quads, dtype=float)
    x00, x10, x01, x11 = np.moveaxis(quads, -2, 0)
    nonplanar = span_rank(quads) > 3
    collinear = np.any(span_rank(quads[:, _CORNER_TRIPLES]) < 3, axis=-1)
    coeffs, unit, resid = _unit_lstsq(np.stack([x10, x01, -x00], axis=-1), x11)
    mags = np.abs(unit)
    vanishing = np.min(mags, axis=-1) <= 1e-12 * np.max(mags, axis=-1)
    a, b, c = coeffs.T
    t = np.stack([c[:, None] * x00, a[:, None] * x10, b[:, None] * x01, x11], axis=1)
    y = t[:, 1:3] - t[:, :1]
    coincident = np.min(np.linalg.norm(y, axis=-1), axis=-1) <= 1e-12 * np.linalg.norm(
        x11, axis=-1
    )
    checks = np.stack([nonplanar, collinear, resid > 1e-9, vanishing, coincident], axis=-1)
    bad = np.flatnonzero(np.any(checks, axis=-1))
    if bad.size:
        q = bad[0]
        failures = [
            NonPlanarQuad("quad spans rank 4"),
            DegenerateQuad("three corners are collinear or coincident"),
            NonPlanarQuad(f"Laplace equation inconsistent (residual {resid[q]:.2e})"),
            DegenerateQuad("vanishing Laplace coefficient"),
            DegenerateQuad("coincident opposite corners"),
        ]
        raise failures[int(np.argmax(checks[q]))]
    return t, y, coeffs


def laplace_gauge(x00, x10, x01, x11):
    """Renormalized representatives (t00, t10, t01, t11) with
    t11 = t10 + t01 - t00, plus the Laplace vectors (y1, y2)."""
    quad = np.stack([hpoint(p) for p in (x00, x10, x01, x11)])
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
    return rank_violations(*rect_stacks(net.points, elementary=True), 3)


def is_q_net(net: PointNet) -> bool:
    """True iff every elementary quad is planar (span rank <= 3)."""
    return not q_violations(net)


def multi_q_violations(net: PointNet):
    """Non-planar coordinate rectangles, exhaustively over all index pairs."""
    return rank_violations(*rect_stacks(net.points, elementary=False), 3)


def is_multi_q_net(net: PointNet) -> bool:
    """True iff every coordinate rectangle is planar."""
    return not multi_q_violations(net)


# -- translation structure ----------------------------------------------------


def _perspective_gauge(raw0, raw1, y, tol: float = _GAUGE_TOL):
    """Representatives r0, r1 of the points raw0, raw1 (..., d) with
    r1 - r0 = y, for y broadcasting against them.

    Each pair must be in perspective from [y], i.e. [raw1] lies on the line
    through [raw0] and [y]; the first sample (in row-major order) whose
    relative residual exceeds tol raises PerspectivityViolation.
    """
    m = np.stack([raw1, -raw0], axis=-1)
    coeffs, _, resid = _unit_lstsq(m, np.broadcast_to(y, m.shape[:-1]))
    bad = np.argwhere(resid > tol)
    if bad.size:
        k = tuple(bad[0])
        raise PerspectivityViolation(
            f"sample {', '.join(map(str, k))} not in perspective (residual {resid[k]:.2e})"
        )
    return coeffs[..., 1:] * raw0, coeffs[..., :1] * raw1


def _strip_cauchy(rows, cols, tol: float = _GAUGE_TOL, ambient: str = "RP3"):
    """Cauchy data (x00, y1, y2) of the multi-Q-net through a row strip
    rows (2, nv, d) and a column strip cols (nu, 2, d), and that net.

    Both strips are gauged from the Laplace gauge of the corner quad of rows:
    row i=1 is row 0 translated by its y1, column j=1 is column 0 translated
    by its y2.
    """
    (t00, _, _, _), (y1, y2), _ = laplace_gauge(rows[0, 0], rows[1, 0], rows[0, 1], rows[1, 1])
    row0, _ = _perspective_gauge(rows[0], rows[1], y1, tol)
    col0, _ = _perspective_gauge(cols[:, 0], cols[:, 1], y2, tol)
    y1, y2 = np.diff(col0, axis=0), np.diff(row0, axis=0)
    return t00, y1, y2, from_cauchy_homogeneous(y1, y2, t00, ambient=ambient)


def translation_gauge(net: PointNet, tol: float = _GAUGE_TOL):
    """Homogeneous representatives realizing x_{ij} = x00 + sum y1 + sum y2.

    Returns (x00, y1, y2) with y1 of shape (nu-1, d) and y2 of (nv-1, d);
    raises NotMultiQ when no consistent translation gauge exists.
    """
    nu, nv = net.dims
    if nu < 2 or nv < 2:
        raise NotMultiQ("net must be at least 2x2")
    p = net.points
    try:
        x00, y1, y2, rec = _strip_cauchy(p[0:2], p[:, 0:2], tol)
    except (ZeroSum, ZeroVector) as exc:
        raise NotMultiQ("translation reconstruction hit a zero vector") from exc
    except (PerspectivityViolation, NonPlanarQuad, DegenerateQuad) as exc:
        raise NotMultiQ(str(exc)) from exc
    # verify the reconstruction against the whole net
    off = np.argwhere(proj_distance(rec.points, p) > tol)
    if off.size:
        i, j = off[0]
        raise NotMultiQ(f"vertex ({i},{j}) off the translation reconstruction")
    return x00, y1, y2


def is_translation_net(net: PointNet, tol: float = _GAUGE_TOL) -> bool:
    """True iff a consistent translation gauge exists (Cauchy form holds)."""
    try:
        translation_gauge(net, tol)
        return True
    except NotMultiQ:
        return False


def _vanishing_sum(total, *summands):
    """Rows of total (..., d) that vanish next to the summands it adds up,
    which broadcast against it: |total| <= 1e-12 * sum of |summand|."""
    scale = sum(np.linalg.norm(s, axis=-1) for s in summands)
    return np.linalg.norm(total, axis=-1) <= 1e-12 * scale


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
    for (i, j) in ((0, 0), (1, 0), (0, 1), (1, 1)):
        if not proj_equal(rows[i, j], cols[i, j], 1e-8):
            raise InconsistentCorner(f"strips disagree at corner ({i},{j})")
    *_, net = _strip_cauchy(rows, cols, ambient=strip1.ambient)
    for name, dist, where in (
        ("row strip", proj_distance(net.points[1], rows[1]), "column"),
        ("column strip", proj_distance(net.points[:, 1], cols[:, 1]), "row"),
    ):
        off = np.flatnonzero(dist > 1e-7)
        if off.size:
            raise PerspectivityViolation(f"{name} not reproduced at {where} {off[0]}")
    return net


def laplace_transforms(net: PointNet):
    """Grids of Laplace points y1_{ij}, y2_{ij} of all elementary quads."""
    nu, nv = net.dims
    _, quads = rect_stacks(net.points, elementary=True)
    _, y, _ = laplace_gauges(quads)
    y = normalize(y).reshape(nu - 1, nv - 1, 2, net.ambient_dim)
    return tuple(PointNet(y[:, :, k], ambient=net.ambient) for k in (0, 1))


def laplace_transforms_degenerate(net: PointNet, tol: float = 1e-8) -> bool:
    """True iff y1 is constant along j and y2 constant along i."""
    t1, t2 = laplace_transforms(net)
    return not (
        np.any(proj_distance(t1.points, t1.points[:, :1]) > tol)
        or np.any(proj_distance(t2.points, t2.points[:1]) > tol)
    )


# -- perspectivity predicates ---------------------------------------------------


def _parameter_polygons_perspective(net: PointNet, pairs, tol: float) -> bool:
    """True iff for every index pair (i0, i1) from pairs(n), first of rows
    and then of columns, the lines joining corresponding points of the two
    polygons are concurrent.  Joins of coincident points are left out, and
    a pair with fewer than two joins is in perspective."""
    p = net.points
    for grid in (p, p.swapaxes(0, 1)):
        i0, i1 = pairs(grid.shape[0])
        if len(i0) == 0:
            continue
        _, lam, _ = common_point_of_spans(np.stack([grid[i0], grid[i1]], axis=2), min_rank=2)
        if np.any(lam > tol):
            return False
    return True


def neighbor_perspectivity(net: PointNet, tol: float = 1e-12) -> bool:
    """Every two neighboring parameter polygons in perspective w.r.t. a point."""
    return _parameter_polygons_perspective(
        net, lambda n: (np.arange(n - 1), np.arange(1, n)), tol
    )


def all_pairs_perspectivity(net: PointNet, tol: float = 1e-12) -> bool:
    """Every two parameter polygons of the same direction in perspective."""
    return _parameter_polygons_perspective(net, lambda n: np.triu_indices(n, 1), tol)


def has_planar_parameter_polygons(net: PointNet) -> bool:
    """Every row and column point set spans rank <= 3 (planar polygons)."""
    p = net.points
    return not (np.any(span_rank(p) > 3) or np.any(span_rank(p.swapaxes(0, 1)) > 3))


# -- Q*-nets -------------------------------------------------------------------


def qstar_violations(pn: PlaneNet):
    """Elementary plane quadruples that do not meet in a point."""
    return rank_violations(*rect_stacks(pn.homogeneous(), elementary=True), 3)


def is_qstar_net(pn: PlaneNet) -> bool:
    """True iff every elementary plane quadruple is concurrent."""
    return not qstar_violations(pn)


def multi_qstar_violations(pn: PlaneNet):
    """Plane rectangles failing concurrency, exhaustively."""
    return rank_violations(*rect_stacks(pn.homogeneous(), elementary=False), 3)


def is_multi_qstar(pn: PlaneNet) -> bool:
    """True iff every coordinate rectangle of planes is concurrent."""
    return not multi_qstar_violations(pn)


def qstar_vertices(pn: PlaneNet):
    """Common points of the elementary plane quadruples, as a grid of
    homogeneous points (None where the quad has a whole common line)."""
    nu, nv = pn.dims
    _, quads = rect_stacks(pn.homogeneous(), elementary=True)
    _, s, vh = np.linalg.svd(normalized_rows(quads))
    ranks = np.sum(s > RANK_RTOL * s[:, :1], axis=-1)
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
    nu1 = len(verts)
    nv1 = len(verts[0]) if nu1 else 0
    for i in range(nu1):
        row = [v for v in verts[i] if v is not None]
        if len(row) >= 4 and span_rank(row) > 3:
            return False
    for j in range(nv1):
        col = [verts[i][j] for i in range(nu1) if verts[i][j] is not None]
        if len(col) >= 4 and span_rank(col) > 3:
            return False
    return True


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
    if span_rank(np.concatenate([line1.span, line2.span])) < 4:
        raise SkewLines("carrier lines must be skew")
    y1_points = [hpoint(y) for y in np.atleast_2d(np.asarray(y1_points, dtype=float))]
    y2_points = [hpoint(y) for y in np.atleast_2d(np.asarray(y2_points, dtype=float))]
    for y in y1_points:
        if not line1.contains(y):
            raise PointOffLine("y1 sample off line1")
    for y in y2_points:
        if not line2.contains(y):
            raise PointOffLine("y2 sample off line2")
    x00 = hpoint(x00)
    if line1.contains(x00) or line2.contains(x00):
        raise PointOffLine("x00 must avoid both carrier lines")
    y1 = np.stack([normalize(y) for y in y1_points])
    y2 = np.stack([normalize(y) for y in y2_points])
    return from_cauchy_homogeneous(y1, y2, normalize(x00))
