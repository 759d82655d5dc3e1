"""Structure-preserving interpolatory subdivision.

Q-net faces are filled with adapted multi-Q patches f(u,v) = [p0(u) + q0(v)
- x00] built from boundary polylines in perspective with the face's Laplace
points; circular nets are refined with adapted Dupin cyclide patches built
from two orthogonal circular arcs: lifted to the quadric of R^{4,1}, a
circular net is a Q-net, and a cyclide patch is the adapted multi-Q patch
of its lifted boundary samples.  Both schemes interpolate the input
vertices and keep the defining face property after every round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circular import EuclidNet, _unit_chart, circular_violations, invert_point, is_concyclic
from .errors import (
    ArcsNotOrthogonal,
    DegenerateLaplaceSphere,
    DimensionMismatch,
    DuplicatePoints,
    InconsistentCorner,
    NonFiniteCoordinate,
    NotCircular,
    NotConcyclic,
    PerspectivityViolation,
    PointOffLine,
    SeedArcsNotC1,
    ZeroSum,
    ZeroVector,
    raise_first_failure,
    raise_unless_finite,
)
from .projective import (
    _ABS_EPS,
    MATCH_TOL,
    MOEBIUS,
    QUADRIC_RTOL,
    REPRODUCE_TOL,
    ZERO_RTOL,
    moebius_drop,
    moebius_lift,
    normalize,
    proj_distance,
    rect_stacks,
    row_dot,
    span_rank,
)
from .qnets import (
    PointNet,
    _laplace_gauges,
    _perspective_gauge,
    _unit_lstsq,
    _vanishing_sum,
    laplace_gauge,
    laplace_gauges,
)

C1_ANGLE_TOL = 1e-6  # radians between the tangents of adjacent spline arcs
_ORTHOGONAL_TOL = 1e-8  # |<t1, t2>| of the unit tangents of orthogonal arcs
_ENDPOINT_RTOL = 1e-6  # gap of a gauged polyline end to its gauged corner, relative to the corner
_COLLINEAR_RTOL = 1e-10  # |u x v| / (|u| |v|) of the chords u, v of three collinear points


def _resolve_counts(n):
    if isinstance(n, (tuple, list)):
        n_u, n_v = int(n[0]), int(n[1])
    else:
        n_u = n_v = int(n)
    if n_u < 1 or n_v < 1:
        raise ValueError("subdivision counts must be >= 1")
    return n_u, n_v


# -- adapted multi-Q patch ------------------------------------------------------


def _q_patches(t, y, p0, p1, q0, q1):
    """Adapted multi-Q patches (..., n_u+1, n_v+1, d) of a batch of faces.

    t (..., 4, d) and y (..., 2, d) are the faces' Laplace gauges; p0, p1
    (..., n_u+1, d) and q0, q1 (..., n_v+1, d) are their boundary polylines.
    """
    p_reps, _ = _perspective_gauge(p0, p1, y[..., None, 1, :])
    q_reps, _ = _perspective_gauge(q0, q1, y[..., None, 0, :])
    for reps, ends in ((p_reps, t[..., [0, 1], :]), (q_reps, t[..., [0, 2], :])):
        gap = np.linalg.norm(reps[..., [0, -1], :] - ends, axis=-1)
        if np.any(gap > _ENDPOINT_RTOL * np.linalg.norm(ends, axis=-1)):
            raise PerspectivityViolation("polyline endpoint gauge mismatch")
    p_reps, q_reps, t00 = p_reps[..., :, None, :], q_reps[..., None, :, :], t[..., None, None, 0, :]
    pts = p_reps + q_reps - t00
    if np.any(_vanishing_sum(pts, p_reps, q_reps, t00)):
        raise ZeroSum("patch representative vanished")
    return pts


def adapted_q_patch(x00, x10, x01, x11, p0, p1, q0, q1) -> PointNet:
    """Unique adapted multi-Q patch through four boundary polylines.

    p0, p1 run along the first direction (x00->x10 and x01->x11) and must be
    in perspective w.r.t. the Laplace point y2; q0, q1 run along the second
    direction in perspective w.r.t. y1.  The patch is [p0(k) + q0(l) - x00]
    in the renormalized gauge and reproduces all four polylines on its
    boundary.
    """
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    p1 = np.atleast_2d(np.asarray(p1, dtype=float))
    q0 = np.atleast_2d(np.asarray(q0, dtype=float))
    q1 = np.atleast_2d(np.asarray(q1, dtype=float))
    if p0.shape != p1.shape or q0.shape != q1.shape:
        raise DimensionMismatch("opposite polylines must have equal lengths")
    t, y, _ = laplace_gauge(x00, x10, x01, x11)
    # [[x00, x10], [x01, x11]] are the ends of p0 and p1, its transpose those of q0 and q1
    corners = np.reshape(np.array([x00, x10, x01, x11], dtype=float), (2, 2, -1))
    p_gap = proj_distance(np.stack([p0, p1])[:, [0, -1]], corners)
    q_gap = proj_distance(np.stack([q0, q1])[:, [0, -1]], corners.swapaxes(0, 1))
    if not (np.all(p_gap <= MATCH_TOL) and np.all(q_gap <= MATCH_TOL)):  # a NaN end fails too
        raise InconsistentCorner("polyline endpoints must match the corners")
    return PointNet(_q_patches(np.stack(t), np.stack(y), p0, p1, q0, q1), ambient="RP3")


# -- edge polylines --------------------------------------------------------------


@dataclass
class EdgePolylines:
    """Per-edge polylines of a net: u[i, j] runs from x_{i,j} to x_{i+1,j}
    with n_u+1 samples, v[i, j] from x_{i,j} to x_{i,j+1} with n_v+1."""

    u: np.ndarray
    v: np.ndarray

    @property
    def counts(self):
        return self.u.shape[2] - 1, self.v.shape[2] - 1


def _transport(poly, src, dst):
    """Images of polylines (..., K, d) under the linear maps src -> dst.

    src and dst (..., 2, d) are corresponding representatives on the source
    and target edge lines; each sample is written in the basis src and
    mapped to the same combination of dst, canonicalized as by normalize.
    For a face's Laplace gauge with src (t00, t10) and dst (t01, t11) this
    is the projection from the Laplace point y2 = t01 - t00 = t11 - t10.
    """
    coords, _, _ = _unit_lstsq(np.swapaxes(src, -1, -2)[..., None, :, :], poly)
    return normalize(np.einsum("...kj,...jd->...kd", coords, dst))


def _check_seeds(name, seed, verts):
    """Raise the error of the first bad polyline of one axis seed (E, n+1, d)
    whose edges join the consecutive axis vertices verts (E+1, d).

    The order is that of a seed-by-seed check: seed 0 before seed 1 and,
    within a seed, its start and end (which must be the edge's vertices)
    before its inner samples (which must lie on the edge line); a vanishing
    or non-finite sample fails before its own check.
    """
    e, n, d = seed.shape[0], seed.shape[1] - 1, seed.shape[2]
    order = [0, n, *range(1, n)]
    pts = seed[:, order]
    ends = np.stack([verts[:-1], verts[1:]], axis=1)
    zero = np.linalg.norm(pts, axis=-1) <= _ABS_EPS
    nonfinite = ~np.all(np.isfinite(pts), axis=-1)
    pts = np.where((zero | nonfinite)[..., None], 1.0, pts)
    corner = np.arange(n + 1) < 2
    off = np.empty((e, n + 1), dtype=bool)
    off[:, :2] = (proj_distance(pts[:, :2], ends) > MATCH_TOL) | nonfinite[:, :2]
    lines = np.broadcast_to(ends[:, None], (e, n - 1, 2, d))
    off[:, 2:] = span_rank(np.concatenate([pts[:, 2:, None], lines], axis=2)) > 2

    def error(kind, message):
        return lambda f: kind(message.format(i=f // (n + 1), k=order[f % (n + 1)]))

    raise_first_failure([
        (zero, error(ZeroVector, "homogeneous coordinates must not vanish")),
        (off & corner, error(InconsistentCorner, name + " seed {i} does not interpolate its edge")),
        (nonfinite & ~corner,
         error(NonFiniteCoordinate, name + " seed {i} sample {k} has a non-finite coordinate")),
        (off & ~corner, error(PointOffLine, name + " seed {i} sample {k} is off its edge line")),
    ])


def _edge_polylines(net: PointNet, n_u, n_v, seeds, t) -> EdgePolylines:
    """attach_edge_polylines with the face gauges t (nu-1, nv-1, 4, d) given."""
    nu, nv = net.dims
    d = net.ambient_dim
    p = net.points
    u_edges = np.empty((nu - 1, nv, n_u + 1, d))
    v_edges = np.empty((nu, nv - 1, n_v + 1, d))

    if seeds is None:
        # uniform samples of each axis edge in its face's gauge representatives
        for edges, ends, n in ((u_edges[:, 0], t[:, 0], n_u), (v_edges[0], t[0][:, [0, 2]], n_v)):
            w = np.linspace(0.0, 1.0, n + 1)[:, None]
            edges[...] = (1.0 - w) * ends[:, None, 0] + w * ends[:, None, 1]
    else:
        seed_u = np.asarray(seeds["u"], dtype=float)
        seed_v = np.asarray(seeds["v"], dtype=float)
        if seed_u.shape != (nu - 1, n_u + 1, d) or seed_v.shape != (nv - 1, n_v + 1, d):
            raise DimensionMismatch("seed polyline arrays have wrong shape")
        _check_seeds("u", seed_u, p[:, 0])
        _check_seeds("v", seed_v, p[0])
        u_edges[:, 0], v_edges[0] = seed_u, seed_v

    for j in range(nv - 1):
        u_edges[:, j + 1] = _transport(u_edges[:, j], t[:, j][:, [0, 1]], t[:, j][:, [2, 3]])
    for i in range(nu - 1):
        v_edges[i + 1] = _transport(v_edges[i], t[i][:, [0, 2]], t[i][:, [1, 3]])
    return EdgePolylines(u_edges, v_edges)


def _face_gauges(net: PointNet):
    """Laplace gauges t (nu-1, nv-1, 4, d) and y (nu-1, nv-1, 2, d) of all faces."""
    nu, nv = net.dims
    t, y, _ = laplace_gauges(rect_stacks(net.points, elementary=True)[1])
    return (
        t.reshape(nu - 1, nv - 1, 4, net.ambient_dim),
        y.reshape(nu - 1, nv - 1, 2, net.ambient_dim),
    )


def attach_edge_polylines(net: PointNet, n, seeds=None) -> EdgePolylines:
    """Attach polylines to all edges so that opposite polylines of every
    face are in perspective w.r.t. its Laplace points.

    Seed polylines live on the row-0 u-edges and column-0 v-edges and must
    lie on their edge lines (samples off the line have no projection target
    on the opposite edge); the default seeds sample each axis edge uniformly
    in its face's renormalized-gauge representatives.  Propagation projects
    each known polyline through the face Laplace point onto the opposite
    edge line.
    """
    n_u, n_v = _resolve_counts(n)
    t, _ = _face_gauges(net)
    return _edge_polylines(net, n_u, n_v, seeds, t)


def has_collinear_joins(net: PointNet, ep: EdgePolylines) -> bool:
    """Validation flag for seed freedom: at every interior vertex along a
    parameter line, the adjacent polyline samples and the vertex are
    collinear (the condition that makes the patches conic control meshes)."""
    p, d = net.points, net.ambient_dim
    u_joins = np.stack([ep.u[:-1, :, -2], p[1:-1], ep.u[1:, :, 1]], axis=-2)
    v_joins = np.stack([ep.v[:, :-1, -2], p[:, 1:-1], ep.v[:, 1:, 1]], axis=-2)
    joins = np.concatenate([u_joins.reshape(-1, 3, d), v_joins.reshape(-1, 3, d)])
    return not np.any(span_rank(joins) > 2)


def _assemble(patches, u_samples, v_samples, vertices):
    """Fine grid ((nu-1) n_u + 1, (nv-1) n_v + 1, d) of the face patches
    (nu-1, nv-1, n_u+1, n_v+1, d) of a net with vertices (nu, nv, d).

    The edge samples u (nu-1, nv, n_u+1, d) and v (nu, nv-1, n_v+1, d) are
    written over the patch boundaries and the vertices last, so adjacent
    patches share their boundary data and the vertices reappear
    bit-identically at stride (n_u, n_v).
    """
    nu, nv, d = vertices.shape
    n_u, n_v = u_samples.shape[2] - 1, v_samples.shape[2] - 1
    fine = np.empty(((nu - 1) * n_u + 1, (nv - 1) * n_v + 1, d))
    fine[:-1, :-1] = (
        patches[:, :, :-1, :-1].transpose(0, 2, 1, 3, 4).reshape((nu - 1) * n_u, (nv - 1) * n_v, d)
    )
    fine[:-1, ::n_v] = u_samples[:, :, :-1].transpose(0, 2, 1, 3).reshape((nu - 1) * n_u, nv, d)
    fine[::n_u, :-1] = v_samples[:, :, :-1].reshape(nu, (nv - 1) * n_v, d)
    fine[::n_u, ::n_v] = vertices
    return fine


def subdivide_q(net: PointNet, n, rounds: int = 1, seeds=None) -> PointNet:
    """Interpolatory Q-net subdivision: one adapted multi-Q patch per face.

    Output dims per round are ((nu-1) n_u + 1, (nv-1) n_v + 1); the input
    vertices reappear bit-identically at stride (n_u, n_v) and adjacent
    patches share their boundary polylines, so the result is crack free by
    construction.
    """
    n_u, n_v = _resolve_counts(n)
    out = net
    for r in range(rounds):
        t, y = _face_gauges(out)
        ep = _edge_polylines(out, n_u, n_v, seeds if r == 0 else None, t)
        patches = _q_patches(t, y, ep.u[:, :-1], ep.u[:, 1:], ep.v[:-1], ep.v[1:])
        out = PointNet(_assemble(patches, ep.u, ep.v, out.points), ambient=net.ambient)
    return out


# -- circular arcs -----------------------------------------------------------------

# Arcs are stacked as arrays (..., 3, 3) of rows (start, end, unit tangent);
# CircArc is the one-arc form.  Errors of arc constructions are coded per arc.
_ARC_ERRORS = (
    None,
    (DuplicatePoints, "arc tangent must be nonzero and finite"),
    (DuplicatePoints, "arc endpoints coincide"),
    (DuplicatePoints, "collinear arc points with exterior midpoint"),
    (DegenerateLaplaceSphere, "arc passes through the inversion center"),
    (DegenerateLaplaceSphere, "boundary sample maps to infinity"),
)


def _arc_error(code):
    kind, message = _ARC_ERRORS[code]
    return kind(message)


def _raise_arc_errors(code):
    """Raise the error of the first arc (C order) with a nonzero code."""
    bad = np.flatnonzero(code)
    if bad.size:
        raise _arc_error(np.ravel(code)[bad[0]])


def _dot(x, y):
    return np.sum(x * y, axis=-1)


def _arcs(start, end, tangent):
    """Arcs (..., 3, 3) with normalized tangents, and the error code of each.

    Only a zero or non-finite tangent norm is rejected, and endpoints count
    as coincident when their chord is at most _ABS_EPS times the larger
    endpoint norm, so the tests do not depend on the scale of the arc.
    """
    norm = np.linalg.norm(tangent, axis=-1, keepdims=True)
    bad_tangent = (norm == 0.0) | ~np.isfinite(norm)
    size = np.maximum(np.linalg.norm(start, axis=-1), np.linalg.norm(end, axis=-1))
    code = np.where(bad_tangent[..., 0], 1, 0)
    code = np.where((code == 0) & (np.linalg.norm(end - start, axis=-1) <= _ABS_EPS * size), 2, code)
    tangent = tangent / np.where(bad_tangent, 1.0, norm)
    return np.stack(np.broadcast_arrays(start, end, tangent), axis=-2), code


def _arc_points(arcs, t):
    """Points and unit tangents (E, K, 3) of arcs (E, 3, 3) at parameters t (K,),
    and a flag (E,) for straight arcs whose tangent points away from the chord.

    A tangent parallel to the chord yields a straight segment; otherwise the
    arc turns its tangent T towards the chord's normal part N by twice the
    tangent-chord angle, theta, on a circle of radius rho, and the point at t
    is start + rho (sin(t theta) T + 2 sin^2(t theta / 2) N).  Neither the
    centre nor the angle of the end is formed, so nearly straight arcs keep
    their end.
    """
    start, end, tangent = arcs[:, 0], arcs[:, 1], arcs[:, 2]
    w = end - start
    along = _dot(w, tangent)[..., None]
    w_perp = w - along * tangent
    h = np.linalg.norm(w_perp, axis=-1, keepdims=True)
    segment = h <= ZERO_RTOL * np.linalg.norm(w, axis=-1, keepdims=True)
    away = (segment & (along < 0))[:, 0]
    h = np.where(segment, 1.0, h)
    normal, rho = (w_perp / h)[:, None], (_dot(w, w)[..., None] / (2.0 * h))[:, None]
    a = t[:, None] * (2.0 * np.arctan2(h, along))[:, None]
    sin, tangent, segment = np.sin(a), tangent[:, None], segment[:, None]
    points = start[:, None] + rho * (sin * tangent + 2.0 * np.sin(0.5 * a) ** 2 * normal)
    chord = (1.0 - t)[:, None] * start[:, None] + t[:, None] * end[:, None]
    tangents = np.cos(a) * tangent + sin * normal
    return np.where(segment, chord, points), np.where(segment, tangent, tangents), away


def _away_error(k):
    return DuplicatePoints("segment tangent points away from the chord")


def _arc_at(arcs, t):
    """Points and unit tangents (E, K, 3) of arcs (E, 3, 3) at t (K,); raises
    for the first straight arc whose tangent points away from its chord."""
    points, tangents, away = _arc_points(arcs, t)
    raise_first_failure([(away, _away_error)])
    return points, tangents


def _chart_arcs(arcs, centre, scale):
    """Arcs (E, 3, 3) of CircArcs, ends in the chart x -> (x - centre) / scale."""
    arcs = _arc_array(arcs)
    arcs[:, :2] = (arcs[:, :2] - centre) / scale
    return arcs


def _arcs_through(a, mid, b):
    """Arcs (E, 3, 3) from a to b through mid (E, 3), and the error code of each.

    Inversion about a maps the circle onto the line through
    mid' = (mid - a) / |mid - a|^2 and b' = (b - a) / |b - a|^2, and points
    near a far out along the start tangent; coming in from there the line
    meets mid' before b', so the tangent is mid' - b'.  Collinear points give
    a straight segment when mid lies between a and b.
    """
    u = mid - a
    v = b - a
    uu, uv, vv = _dot(u, u), _dot(u, v), _dot(v, v)
    scale = np.sqrt(uu) * np.sqrt(vv)
    line = (scale <= _ABS_EPS**2) | (np.linalg.norm(np.cross(u, v), axis=-1) <= _COLLINEAR_RTOL * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = uv / vv
        code = np.where(line & ~((0.0 <= s) & (s <= 1.0)), 3, 0)
        tangent = u / uu[:, None] - v / vv[:, None]
    arcs, arc_code = _arcs(a, b, np.where(line[:, None], v, tangent))
    return arcs, np.where(code == 0, arc_code, code)


def _arc_array(arcs):
    return np.array([[arc.start, arc.end, arc.tangent] for arc in arcs], dtype=float).reshape(-1, 3, 3)


@dataclass
class CircArc:
    """Circular arc from start to end with a unit tangent at the start.

    A tangent parallel to the chord yields a straight segment (the arc of a
    circle through oo); otherwise the arc is traced with constant speed as
    _arc_points describes.
    """

    start: np.ndarray
    end: np.ndarray
    tangent: np.ndarray

    def __post_init__(self):
        start, end = np.asarray(self.start, dtype=float), np.asarray(self.end, dtype=float)
        raise_unless_finite(np.stack([start, end]), "arc endpoint")
        arcs, code = _arcs(start, end, np.asarray(self.tangent, dtype=float))
        _raise_arc_errors(code)
        self.start, self.end, self.tangent = arcs

    def _at(self, t):
        return _arc_at(_arc_array([self]), np.atleast_1d(np.asarray(t, dtype=float)))

    def point_at(self, t: float) -> np.ndarray:
        return self._at(t)[0][0, 0]

    def tangent_at(self, t: float) -> np.ndarray:
        return self._at(t)[1][0, 0]

    def sample(self, n: int) -> np.ndarray:
        """n+1 points, uniform in arc length."""
        return self._at(np.arange(n + 1) / n)[0][0]

    def transform(self, mirror) -> "CircArc":
        """Image arc under inversion in a Moebius sphere representative,
        transported through three sample points (circles map to circles)."""
        mirror = np.asarray(mirror, dtype=float)
        _, arcs, code = _invert_edges(_arc_array([self]), np.empty((1, 0, 3)), mirror[None])
        _raise_arc_errors(code)
        return CircArc(*arcs[0])


def _invert_edges(arcs, samples, mirrors):
    """Images of edge arcs (E, 3, 3) and of their samples (E, K, 3) under
    inversion in one mirror (E, 5) per edge.

    Each image arc is transported through the images of its start, middle
    and end (circles map to circles).  Returns the image samples, the image
    arcs and the error code of each edge: first its arc's, then its samples'.
    """
    middle, _ = _arc_at(arcs, np.array([0.5]))
    anchors = np.concatenate([arcs[:, :1], middle, arcs[:, 1:2]], axis=1)
    images, at_inf = invert_point(mirrors[:, None], np.concatenate([samples, anchors], axis=1))
    image_arcs, code = _arcs_through(images[:, -3], images[:, -2], images[:, -1])
    code = np.where(at_inf[:, -3:].any(axis=-1), 4, code)
    code = np.where((code == 0) & at_inf[:, :-3].any(axis=-1), 5, code)
    return images[:, :-3], image_arcs, code


def arc_through_points(a, mid, b) -> CircArc:
    """Arc from a to b passing through mid."""
    points = np.array([a, mid, b], dtype=float)
    raise_unless_finite(points, "arc point")
    arcs, code = _arcs_through(*points[:, None])
    _raise_arc_errors(code)
    return CircArc(*arcs[0])


# -- adapted Dupin cyclide patch ------------------------------------------------------


def _laplace_spheres(quads):
    """Laplace gauges t (F, 4, 5) and y (F, 2, 5) of the lifted corners of
    circular quads (F, 4, 3) in the order (x00, x10, x01, x11), and the
    checks of each quad in the order first_failure takes them.

    The Laplace points y1 = y[:, 0] (swaps x00<->x10) and y2 = y[:, 1]
    (swaps x00<->x01) must be exterior points: spheres orthogonal to the
    circumcircle, centred at the quad's Laplace points.  No projective line
    lies on the quadric, so a lifted quad that the gauge finds degenerate
    has two coincident corners.
    """
    t, y, _, [(rank4, _), *degenerate] = _laplace_gauges(normalize(moebius_lift(quads)))

    def error(message):
        return lambda f: DegenerateLaplaceSphere(message)

    checks = [(rank4, error("lines span rank 4"))]
    checks += [(fails, error("spanning points are projectively equal")) for fails, _ in degenerate]
    # the form is applied unchecked: a zero y fails the gauge's checks above
    interior = MOEBIUS._apply(y, y) <= QUADRIC_RTOL * np.sum(y * y, axis=-1)
    checks += [(interior[:, k], error("Laplace point is not exterior")) for k in (0, 1)]
    return t, y, checks


def _cyclide_patches(t, y, u0, u1, v0, v1):
    """Adapted Dupin cyclide patches (F, n_u+1, n_v+1, 3) of a batch of
    circular quads, and their infinity masks.

    t and y are the Laplace gauges of the lifted quads (_laplace_spheres).
    u0 (F, n_u+1, 3) samples x00 -> x10 and u1 holds its images x01 -> x11
    in the second Laplace sphere; v0 (F, n_v+1, 3) samples x00 -> x01 and v1
    holds its images x10 -> x11 in the first.  In the lift the patch is the
    adapted multi-Q patch of the lifted samples, unique given its four
    boundary polylines; the boundary is the samples as given.
    """
    pts, at_inf = moebius_drop(_q_patches(t, y, *map(moebius_lift, (u0, u1, v0, v1))))
    pts[:, :, 0], pts[:, :, -1], pts[:, 0], pts[:, -1] = u0, u1, v0, v1
    at_inf[:, :, [0, -1]] = False
    at_inf[:, [0, -1]] = False
    return pts, at_inf


def adapted_cyclide_patch(x00, x10, x01, x11, p0: CircArc, q0: CircArc, n) -> EuclidNet:
    """Unique Dupin cyclide patch adapted to a circular quad.

    p0 interpolates x00 -> x10 and q0 interpolates x00 -> x01; the arcs must
    meet orthogonally at x00.  The opposite boundary arcs arise by inversion
    in the quad's Laplace spheres, and the interior is the adapted multi-Q
    patch of the lifted boundary samples; every row and column of the
    result is concyclic.  The patch is built in the unit chart of the
    corners and mapped back, with the corners as given.
    """
    n_u, n_v = _resolve_counts(n)
    given = np.array([x00, x10, x01, x11], dtype=float)
    raise_unless_finite(given, "corner")
    (corners,), centre, size = _unit_chart(given[None])
    if not is_concyclic(corners[0], corners[1], corners[3], corners[2]):
        raise NotConcyclic("quad corners are not concyclic")
    arcs = _chart_arcs([p0, q0], centre, size)
    chords = corners[1:] - corners[0]
    scale = np.max(np.sqrt(row_dot(chords, chords)))
    if np.any(np.linalg.norm(arcs[:, :2] - corners[[[0, 1], [0, 2]]], axis=-1) > MATCH_TOL * scale):
        raise InconsistentCorner("arc endpoints must interpolate the quad corners")
    if abs(float(np.dot(p0.tangent, q0.tangent))) > _ORTHOGONAL_TOL:
        raise ArcsNotOrthogonal("seed arcs must meet orthogonally at the corner")
    t, y, checks = _laplace_spheres(corners[None])
    raise_first_failure(checks)
    (p_samples,), _ = _arc_at(arcs[:1], np.arange(n_u + 1) / n_u)
    (q_samples,), _ = _arc_at(arcs[1:], np.arange(n_v + 1) / n_v)
    p_ref, p_inf = invert_point(y[0, 1], p_samples)
    q_ref, q_inf = invert_point(y[0, 0], q_samples)
    if p_inf.any() or q_inf.any():
        raise DegenerateLaplaceSphere("boundary sample maps to infinity")
    pts, at_inf = _cyclide_patches(t, y, p_samples[None], p_ref[None], q_samples[None], q_ref[None])
    # the patch corners, in the order of the given ones; boundary samples are never at oo
    ends = ([0, n_u, 0, n_u], [0, 0, n_v, n_v])
    drift = pts[0][ends] - corners
    if np.any(np.sqrt(row_dot(drift, drift)) > REPRODUCE_TOL * max(1.0, scale)):
        raise NotConcyclic("patch corner drifted off the quad corner")
    pts = pts[0] * size + centre
    pts[ends] = given
    return EuclidNet(pts, at_inf[0])


# -- circular net subdivision ----------------------------------------------------------


def _check_spline_c1(splines, names):
    """Splines (S, K, 3, 3) of K consecutive arcs each must be tangent
    continuous; raises for the first bent join of the first such spline."""
    k = splines.shape[1]
    if k < 2:
        return
    _, t_out, away = _arc_points(splines[:, :-1].reshape(-1, 3, 3), np.array([1.0]))
    t_in = splines[:, 1:, 2].reshape(-1, 3)
    ang = np.arccos(np.clip(np.sum(t_out[:, 0] * t_in, axis=-1), -1.0, 1.0))

    def bent(j):
        return SeedArcsNotC1(f"{names[j // (k - 1)]} join {j % (k - 1)} bends by {ang[j]:.2e} rad")

    raise_first_failure([(away, _away_error), (ang > C1_ANGLE_TOL, bent)])


def subdivide_circular(
    net: EuclidNet, n, row0_arcs, col0_arcs, rounds: int = 1
) -> EuclidNet:
    """Interpolatory circular-net subdivision by adapted cyclide patches.

    Seed arcs cover the row-0 and column-0 edges, form tangent-continuous
    splines, and meet orthogonally at the origin vertex.  Arcs and their
    samples propagate to all edges by inversion in the face Laplace spheres,
    which preserves the tangent continuity at all interior vertices.  Every
    round runs in the unit chart of the input net, so the result commutes
    with similarities; the input vertices reappear bit-identically.
    """
    n_u, n_v = _resolve_counts(n)
    if not net.is_finite():
        raise NotCircular("subdivision requires a finite circular net")
    points, centre, scale = _unit_chart(net.points)
    out = EuclidNet(points)
    arcs_u, arcs_v = (_chart_arcs(arcs, centre, scale) for arcs in (row0_arcs, col0_arcs))
    for _ in range(rounds):
        out, arcs_u, arcs_v = _subdivide_circular_round(out, n_u, n_v, arcs_u, arcs_v)
    fine = out.points * scale + centre
    fine[:: n_u**rounds, :: n_v**rounds] = net.points
    return EuclidNet(fine)


def _subdivide_circular_round(net: EuclidNet, n_u, n_v, row0, col0):
    """One round from seed arcs row0 (nu-1, 3, 3) and col0 (nv-1, 3, 3);
    returns the fine net and the seed arcs of the next round."""
    if circular_violations(net):
        raise NotCircular("input is not a circular net")
    nu, nv = net.dims
    p = net.points
    if len(row0) != nu - 1 or len(col0) != nv - 1:
        raise DimensionMismatch("need one seed arc per axis edge")
    scale = max(1.0, float(np.max(np.abs(p))))
    for name, arcs, ends in (("row", row0, p[:, 0]), ("column", col0, p[0])):
        gaps = np.maximum(
            np.linalg.norm(arcs[:, 0] - ends[:-1], axis=-1),
            np.linalg.norm(arcs[:, 1] - ends[1:], axis=-1),
        )
        off = np.flatnonzero(gaps > MATCH_TOL * scale)
        if off.size:
            raise InconsistentCorner(f"{name} seed arc {off[0]} does not interpolate its edge")
    _check_spline_c1(row0[None], ["row-0 spline"])
    _check_spline_c1(col0[None], ["column-0 spline"])
    if abs(float(np.dot(row0[0, 2], col0[0, 2]))) > _ORTHOGONAL_TOL:
        raise ArcsNotOrthogonal("axis splines must meet orthogonally at the origin")

    u_arcs = np.empty((nu - 1, nv, 3, 3))
    v_arcs = np.empty((nu, nv - 1, 3, 3))
    u_smp = np.empty((nu - 1, nv, n_u + 1, 3))
    v_smp = np.empty((nu, nv - 1, n_v + 1, 3))
    u_arcs[:, 0], v_arcs[0] = row0, col0
    u_smp[:, 0], u_tangents = _arc_at(row0, np.arange(n_u + 1) / n_u)
    v_smp[0], v_tangents = _arc_at(col0, np.arange(n_v + 1) / n_v)

    # Laplace spheres of all faces, then inversion along the rows (u-arcs,
    # one step per j) and the columns (v-arcs, one step per i); code[...]
    # holds the error code of the transport onto an edge, -1 where its face
    # or its input failed and it was not transported
    t, y, checks = _laplace_spheres(rect_stacks(p, elementary=True)[1])
    r1, r2 = y[:, 0].reshape(nu - 1, nv - 1, 5), y[:, 1].reshape(nu - 1, nv - 1, 5)
    failed = np.any([fails for fails, _ in checks], axis=0).reshape(nu - 1, nv - 1)
    u_code = np.full((nu - 1, nv), -1)
    v_code = np.full((nu, nv - 1), -1)
    u_code[:, 0] = v_code[0] = 0
    for j in range(nv - 1):
        live = np.flatnonzero((u_code[:, j] == 0) & ~failed[:, j])
        u_smp[live, j + 1], u_arcs[live, j + 1], u_code[live, j + 1] = _invert_edges(
            u_arcs[live, j], u_smp[live, j], r2[live, j]
        )
    for i in range(nu - 1):
        live = np.flatnonzero((v_code[i] == 0) & ~failed[i])
        v_smp[i + 1, live], v_arcs[i + 1, live], v_code[i + 1, live] = _invert_edges(
            v_arcs[i, live], v_smp[i, live], r1[i, live]
        )

    # the first error in face order j-major, as face-by-face propagation meets it
    def transported(code):
        code = code.T.ravel()
        return code > 0, lambda k: _arc_error(code[k])

    raise_first_failure(
        [(fails.reshape(nu - 1, nv - 1).T.ravel(), make) for fails, make in checks]
        + [transported(u_code[:, 1:]), transported(v_code[1:])]
    )

    # propagation must keep the splines tangent-continuous
    _check_spline_c1(u_arcs.swapaxes(0, 1), [f"row {j} spline" for j in range(nv)])
    _check_spline_c1(v_arcs, [f"column {i} spline" for i in range(nu)])

    faces = (nu - 1) * (nv - 1)
    patches, at_inf = _cyclide_patches(
        t,
        y,
        u_smp[:, :-1].reshape(faces, n_u + 1, 3),
        u_smp[:, 1:].reshape(faces, n_u + 1, 3),
        v_smp[:-1].reshape(faces, n_v + 1, 3),
        v_smp[1:].reshape(faces, n_v + 1, 3),
    )
    if at_inf.any():
        raise DegenerateLaplaceSphere("patch produced a vertex at infinity")
    fine = _assemble(patches.reshape(nu - 1, nv - 1, n_u + 1, n_v + 1, 3), u_smp, v_smp, p)

    # seed data for a further round: sub-arcs between consecutive samples
    seeds = []
    for smp, tangents in ((u_smp[:, 0], u_tangents), (v_smp[0], v_tangents)):
        sub, code = _arcs(smp[:, :-1], smp[:, 1:], tangents[:, :-1])
        _raise_arc_errors(code)
        seeds.append(sub.reshape(-1, 3, 3))
    return EuclidNet(fine), *seeds
