"""Structure-preserving interpolatory subdivision.

Q-net faces are filled with adapted multi-Q patches f(u,v) = [p0(u) + q0(v)
- x00] built from boundary polylines in perspective with the face's Laplace
points; circular nets are refined with adapted Dupin cyclide patches built
from two orthogonal circular arcs via the reflection engine on the quadric
of R^{4,1}.  Both schemes interpolate the input vertices and keep the
defining face property after every round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circular import EuclidNet, circular_violations, invert_point, is_concyclic
from .errors import (
    ArcsNotOrthogonal,
    DegenerateLaplaceSphere,
    DimensionMismatch,
    DuplicatePoints,
    GeometryError,
    InconsistentCorner,
    NotCircular,
    NotConcyclic,
    PerspectivityViolation,
    PointOffLine,
    SeedArcsNotC1,
    ZeroSum,
)
from .projective import (
    INF,
    MOEBIUS,
    ProjLine,
    intersect_spans,
    meet_lines,
    moebius_drop,
    moebius_lift,
    normalize,
    proj_equal,
    rect_stacks,
    span_rank,
)
from .qnets import PointNet, _perspective_gauge, _unit_lstsq, laplace_gauge, laplace_gauges
from .quadric_nets import generate_by_reflections

C1_ANGLE_TOL = 1e-6  # radians


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
        if np.any(gap > 1e-6 * np.linalg.norm(ends, axis=-1)):
            raise PerspectivityViolation("polyline endpoint gauge mismatch")
    pts = p_reps[..., :, None, :] + q_reps[..., None, :, :] - t[..., None, None, 0, :]
    if np.any(np.linalg.norm(pts, axis=-1) <= 1e-12):
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
    for poly, corner_a, corner_b in (
        (p0, x00, x10),
        (p1, x01, x11),
        (q0, x00, x01),
        (q1, x10, x11),
    ):
        if not proj_equal(poly[0], corner_a, 1e-8) or not proj_equal(
            poly[-1], corner_b, 1e-8
        ):
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


def _uniform_edge_polyline(t_a, t_b, n):
    ts = np.linspace(0.0, 1.0, n + 1)
    return np.stack([(1.0 - t) * t_a + t * t_b for t in ts])


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


def _edge_polylines(net: PointNet, n_u, n_v, seeds, t) -> EdgePolylines:
    """attach_edge_polylines with the face gauges t (nu-1, nv-1, 4, d) given."""
    nu, nv = net.dims
    d = net.ambient_dim
    p = net.points
    u_edges = np.empty((nu - 1, nv, n_u + 1, d))
    v_edges = np.empty((nu, nv - 1, n_v + 1, d))

    if seeds is None:
        for i in range(nu - 1):
            u_edges[i, 0] = _uniform_edge_polyline(t[i, 0, 0], t[i, 0, 1], n_u)
        for j in range(nv - 1):
            v_edges[0, j] = _uniform_edge_polyline(t[0, j, 0], t[0, j, 2], n_v)
    else:
        seed_u = np.asarray(seeds["u"], dtype=float)
        seed_v = np.asarray(seeds["v"], dtype=float)
        if seed_u.shape != (nu - 1, n_u + 1, d) or seed_v.shape != (nv - 1, n_v + 1, d):
            raise DimensionMismatch("seed polyline arrays have wrong shape")
        for i in range(nu - 1):
            if not proj_equal(seed_u[i, 0], p[i, 0], 1e-8) or not proj_equal(
                seed_u[i, -1], p[i + 1, 0], 1e-8
            ):
                raise InconsistentCorner(f"u seed {i} does not interpolate its edge")
            for k in range(1, n_u):
                if span_rank([seed_u[i, k], p[i, 0], p[i + 1, 0]]) > 2:
                    raise PointOffLine(f"u seed {i} sample {k} is off its edge line")
            u_edges[i, 0] = seed_u[i]
        for j in range(nv - 1):
            if not proj_equal(seed_v[j, 0], p[0, j], 1e-8) or not proj_equal(
                seed_v[j, -1], p[0, j + 1], 1e-8
            ):
                raise InconsistentCorner(f"v seed {j} does not interpolate its edge")
            for l in range(1, n_v):
                if span_rank([seed_v[j, l], p[0, j], p[0, j + 1]]) > 2:
                    raise PointOffLine(f"v seed {j} sample {l} is off its edge line")
            v_edges[0, j] = seed_v[j]

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


def has_collinear_joins(net: PointNet, ep: EdgePolylines, tol: float = 1e-9) -> bool:
    """Validation flag for seed freedom: at every interior vertex along a
    parameter line, the adjacent polyline samples and the vertex are
    collinear (the condition that makes the patches conic control meshes)."""
    nu, nv = net.dims
    for j in range(nv):
        for i in range(1, nu - 1):
            triple = [ep.u[i - 1, j, -2], net.points[i, j], ep.u[i, j, 1]]
            if span_rank(triple, rtol=tol) > 2:
                return False
    for i in range(nu):
        for j in range(1, nv - 1):
            triple = [ep.v[i, j - 1, -2], net.points[i, j], ep.v[i, j, 1]]
            if span_rank(triple, rtol=tol) > 2:
                return False
    return True


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
        nu, nv = out.dims
        p = out.points
        t, y = _face_gauges(out)
        ep = _edge_polylines(out, n_u, n_v, seeds if r == 0 else None, t)
        patches = _q_patches(t, y, ep.u[:, :-1], ep.u[:, 1:], ep.v[:-1], ep.v[1:])
        fine = np.empty(((nu - 1) * n_u + 1, (nv - 1) * n_v + 1, out.ambient_dim))
        for i in range(nu - 1):
            for j in range(nv - 1):
                fine[
                    i * n_u : (i + 1) * n_u + 1, j * n_v : (j + 1) * n_v + 1
                ] = patches[i, j]
        # shared boundary data is written once, after the patches
        for i in range(nu - 1):
            for j in range(nv):
                fine[i * n_u : (i + 1) * n_u + 1, j * n_v] = ep.u[i, j]
        for i in range(nu):
            for j in range(nv - 1):
                fine[i * n_u, j * n_v : (j + 1) * n_v + 1] = ep.v[i, j]
        for i in range(nu):
            for j in range(nv):
                fine[i * n_u, j * n_v] = p[i, j]
        out = PointNet(fine, ambient=net.ambient)
    return out


# -- circular arcs -----------------------------------------------------------------


@dataclass
class CircArc:
    """Circular arc from start to end with a unit tangent at the start.

    A tangent parallel to the chord yields a straight segment (the arc of a
    circle through oo); otherwise the arc is traced with constant speed from
    angle 0 to the chord angle in the (e1, e2) frame of its circle.
    """

    start: np.ndarray
    end: np.ndarray
    tangent: np.ndarray

    def __post_init__(self):
        self.start = np.asarray(self.start, dtype=float)
        self.end = np.asarray(self.end, dtype=float)
        t = np.asarray(self.tangent, dtype=float)
        norm = np.linalg.norm(t)
        if norm <= 1e-13:
            raise DuplicatePoints("arc tangent must not vanish")
        self.tangent = t / norm
        if np.linalg.norm(self.end - self.start) <= 1e-13:
            raise DuplicatePoints("arc endpoints coincide")

    def _frame(self):
        w = self.end - self.start
        w_par = float(np.dot(w, self.tangent)) * self.tangent
        w_perp = w - w_par
        h = np.linalg.norm(w_perp)
        if h <= 1e-12 * np.linalg.norm(w):
            if np.dot(w, self.tangent) < 0:
                raise DuplicatePoints("segment tangent points away from the chord")
            return ("segment",)
        n_hat = w_perp / h
        rho = float(np.dot(w, w)) / (2.0 * h)
        center = self.start + rho * n_hat
        e1 = (self.start - center) / rho
        e2 = self.tangent
        rel = (self.end - center) / rho
        theta = float(np.arctan2(np.dot(rel, e2), np.dot(rel, e1)))
        if theta <= 0:
            theta += 2.0 * np.pi
        return ("arc", center, rho, e1, e2, theta)

    def point_at(self, t: float) -> np.ndarray:
        f = self._frame()
        if f[0] == "segment":
            return (1.0 - t) * self.start + t * self.end
        _, c, r, e1, e2, theta = f
        a = t * theta
        return c + r * (np.cos(a) * e1 + np.sin(a) * e2)

    def tangent_at(self, t: float) -> np.ndarray:
        f = self._frame()
        if f[0] == "segment":
            return self.tangent
        _, c, r, e1, e2, theta = f
        a = t * theta
        return -np.sin(a) * e1 + np.cos(a) * e2

    def sample(self, n: int) -> np.ndarray:
        """n+1 points, uniform in arc length."""
        return np.stack([self.point_at(k / n) for k in range(n + 1)])

    def transform(self, mirror) -> "CircArc":
        """Image arc under inversion in a Moebius sphere representative,
        transported through three sample points (circles map to circles)."""
        a = invert_point(mirror, self.start)
        m = invert_point(mirror, self.point_at(0.5))
        b = invert_point(mirror, self.end)
        if a is INF or m is INF or b is INF:
            raise DegenerateLaplaceSphere("arc passes through the inversion center")
        return arc_through_points(a, m, b)


def arc_through_points(a, mid, b) -> CircArc:
    """Arc from a to b passing through mid."""
    a = np.asarray(a, dtype=float)
    mid = np.asarray(mid, dtype=float)
    b = np.asarray(b, dtype=float)
    u = mid - a
    v = b - a
    w = np.cross(u, v)
    scale = np.linalg.norm(u) * np.linalg.norm(v)
    if scale <= 1e-26 or np.linalg.norm(w) <= 1e-10 * scale:
        s = float(np.dot(u, v)) / float(np.dot(v, v))
        if not 0.0 <= s <= 1.0:
            raise DuplicatePoints("collinear arc points with exterior midpoint")
        return CircArc(a, b, v)
    g = np.array([[np.dot(u, u), np.dot(u, v)], [np.dot(u, v), np.dot(v, v)]])
    rhs = 0.5 * np.array([np.dot(u, u), np.dot(v, v)])
    al, be = np.linalg.solve(g, rhs)
    center = a + al * u + be * v
    r = np.linalg.norm(a - center)
    e1 = (a - center) / r
    e2 = np.cross(w / np.linalg.norm(w), e1)
    e2 = e2 / np.linalg.norm(e2)

    def angle(p):
        rel = (p - center) / r
        th = float(np.arctan2(np.dot(rel, e2), np.dot(rel, e1)))
        return th + 2.0 * np.pi if th < 0 else th

    if not angle(mid) < angle(b):
        e2 = -e2
        if not angle(mid) < angle(b):
            raise DuplicatePoints("cannot orient arc through the given points")
    return CircArc(a, b, e2)


# -- adapted Dupin cyclide patch ------------------------------------------------------


def _laplace_sphere_reps(x00, x10, x01, x11):
    """Lifted Laplace points R1 (swaps x00<->x10) and R2 (swaps x00<->x01)
    of a circular quad; both are exterior points (spheres orthogonal to the
    circumcircle centered at the Laplace points)."""
    l00, l10, l01, l11 = (normalize(moebius_lift(x)) for x in (x00, x10, x01, x11))
    try:
        r1 = meet_lines(ProjLine(l00, l10), ProjLine(l01, l11))
        r2 = meet_lines(ProjLine(l00, l01), ProjLine(l10, l11))
    except GeometryError as exc:
        raise DegenerateLaplaceSphere(str(exc)) from exc
    for r in (r1, r2):
        if MOEBIUS.eval(r, r) <= 1e-9:
            raise DegenerateLaplaceSphere("Laplace point is not exterior")
    return r1, r2


def _pencil_mirrors(samples, reflected):
    """Mirror spheres stepping sample k to k+1 within the pencil carried by
    the two corresponding sample rows.

    The mirror lies in the intersection of span(L_k, L_{k+1}) with
    span(L'_k, L'_{k+1}); any non-isotropic point of a span of two quadric
    points swaps them, so the intersection point swaps both pairs at once.
    """
    lifts = [normalize(moebius_lift(p)) for p in samples]
    lifts_r = [normalize(moebius_lift(p)) for p in reflected]
    mirrors = []
    for k in range(len(lifts) - 1):
        basis = intersect_spans(
            np.stack([lifts[k], lifts[k + 1]]),
            np.stack([lifts_r[k], lifts_r[k + 1]]),
        )
        if basis.shape[0] == 0:
            raise NotConcyclic("sample quad has no mirror pencil (not concyclic)")
        if basis.shape[0] > 1:
            raise DegenerateLaplaceSphere("mirror pencil is not unique")
        mirrors.append(basis[0])
    return np.stack(mirrors)


def _cyclide_patch_from_samples(p_samples, q_samples, r1, r2) -> EuclidNet:
    """Fill a circular quad from boundary samples and its Laplace spheres."""
    p_ref = [invert_point(r2, p) for p in p_samples]
    q_ref = [invert_point(r1, q) for q in q_samples]
    for img in p_ref + q_ref:
        if img is INF:
            raise DegenerateLaplaceSphere("boundary sample maps to infinity")
    m1 = _pencil_mirrors(p_samples, p_ref)
    m2 = _pencil_mirrors(q_samples, q_ref)
    seed = normalize(moebius_lift(p_samples[0]))
    lifted = generate_by_reflections(MOEBIUS, m1, m2, seed)
    n_u = len(p_samples) - 1
    n_v = len(q_samples) - 1
    grid = [[None] * (n_v + 1) for _ in range(n_u + 1)]
    for i in range(n_u + 1):
        for j in range(n_v + 1):
            grid[i][j] = moebius_drop(lifted.points[i, j])
    for k in range(n_u + 1):
        grid[k][0] = np.asarray(p_samples[k], dtype=float)
        grid[k][n_v] = np.asarray(p_ref[k], dtype=float)
    for l in range(n_v + 1):
        grid[0][l] = np.asarray(q_samples[l], dtype=float)
        grid[n_u][l] = np.asarray(q_ref[l], dtype=float)
    return EuclidNet.from_grid(grid)


def adapted_cyclide_patch(x00, x10, x01, x11, p0: CircArc, q0: CircArc, n) -> EuclidNet:
    """Unique Dupin cyclide patch adapted to a circular quad.

    p0 interpolates x00 -> x10 and q0 interpolates x00 -> x01; the arcs must
    meet orthogonally at x00.  The opposite boundary arcs arise by inversion
    in the quad's Laplace spheres, and the interior is generated by the two
    pencils of mirror spheres through corresponding arc samples; every row
    and column of the result is concyclic.
    """
    n_u, n_v = _resolve_counts(n)
    corners = [np.asarray(x, dtype=float) for x in (x00, x10, x01, x11)]
    if not is_concyclic(corners[0], corners[1], corners[3], corners[2]):
        raise NotConcyclic("quad corners are not concyclic")
    scale = max(np.linalg.norm(c - corners[0]) for c in corners[1:])
    for arc, a, b in ((p0, corners[0], corners[1]), (q0, corners[0], corners[2])):
        if (
            np.linalg.norm(arc.start - a) > 1e-8 * scale
            or np.linalg.norm(arc.end - b) > 1e-8 * scale
        ):
            raise InconsistentCorner("arc endpoints must interpolate the quad corners")
    if abs(float(np.dot(p0.tangent, q0.tangent))) > 1e-8:
        raise ArcsNotOrthogonal("seed arcs must meet orthogonally at the corner")
    r1, r2 = _laplace_sphere_reps(*corners)
    patch = _cyclide_patch_from_samples(p0.sample(n_u), q0.sample(n_v), r1, r2)
    for (i, j), corner in (
        ((0, 0), corners[0]),
        ((n_u, 0), corners[1]),
        ((0, n_v), corners[2]),
        ((n_u, n_v), corners[3]),
    ):
        if patch.at_infinity[i, j] or np.linalg.norm(
            patch.points[i, j] - corner
        ) > 1e-7 * max(1.0, scale):
            raise NotConcyclic("patch corner drifted off the quad corner")
        patch.points[i, j] = corner
    return patch


# -- circular net subdivision ----------------------------------------------------------


def _check_spline_c1(arcs, where: str):
    for k in range(len(arcs) - 1):
        t_out = arcs[k].tangent_at(1.0)
        t_in = arcs[k + 1].tangent
        ang = float(np.arccos(np.clip(np.dot(t_out, t_in), -1.0, 1.0)))
        if ang > C1_ANGLE_TOL:
            raise SeedArcsNotC1(f"{where} join {k} bends by {ang:.2e} rad")


def subdivide_circular(
    net: EuclidNet, n, row0_arcs, col0_arcs, rounds: int = 1
) -> EuclidNet:
    """Interpolatory circular-net subdivision by adapted cyclide patches.

    Seed arcs cover the row-0 and column-0 edges, form tangent-continuous
    splines, and meet orthogonally at the origin vertex.  Arcs and their
    samples propagate to all edges by inversion in the face Laplace spheres,
    which preserves the tangent continuity at all interior vertices.
    """
    n_u, n_v = _resolve_counts(n)
    out = net
    arcs_u = list(row0_arcs)
    arcs_v = list(col0_arcs)
    for _ in range(rounds):
        out, arcs_u, arcs_v = _subdivide_circular_round(out, n_u, n_v, arcs_u, arcs_v)
    return out


def _subdivide_circular_round(net: EuclidNet, n_u, n_v, row0_arcs, col0_arcs):
    if not net.is_finite():
        raise NotCircular("subdivision requires a finite circular net")
    if circular_violations(net):
        raise NotCircular("input is not a circular net")
    nu, nv = net.dims
    p = net.points
    if len(row0_arcs) != nu - 1 or len(col0_arcs) != nv - 1:
        raise DimensionMismatch("need one seed arc per axis edge")
    scale = max(1.0, float(np.max(np.abs(p))))
    for i, arc in enumerate(row0_arcs):
        if (
            np.linalg.norm(arc.start - p[i, 0]) > 1e-8 * scale
            or np.linalg.norm(arc.end - p[i + 1, 0]) > 1e-8 * scale
        ):
            raise InconsistentCorner(f"row seed arc {i} does not interpolate its edge")
    for j, arc in enumerate(col0_arcs):
        if (
            np.linalg.norm(arc.start - p[0, j]) > 1e-8 * scale
            or np.linalg.norm(arc.end - p[0, j + 1]) > 1e-8 * scale
        ):
            raise InconsistentCorner(f"column seed arc {j} does not interpolate its edge")
    _check_spline_c1(row0_arcs, "row-0 spline")
    _check_spline_c1(col0_arcs, "column-0 spline")
    if abs(float(np.dot(row0_arcs[0].tangent, col0_arcs[0].tangent))) > 1e-8:
        raise ArcsNotOrthogonal("axis splines must meet orthogonally at the origin")

    u_arcs = [[None] * nv for _ in range(nu - 1)]
    v_arcs = [[None] * (nv - 1) for _ in range(nu)]
    u_smp = [[None] * nv for _ in range(nu - 1)]
    v_smp = [[None] * (nv - 1) for _ in range(nu)]
    for i in range(nu - 1):
        u_arcs[i][0] = row0_arcs[i]
        u_smp[i][0] = row0_arcs[i].sample(n_u)
    for j in range(nv - 1):
        v_arcs[0][j] = col0_arcs[j]
        v_smp[0][j] = col0_arcs[j].sample(n_v)

    laplace = {}
    for j in range(nv - 1):
        for i in range(nu - 1):
            r1, r2 = _laplace_sphere_reps(
                p[i, j], p[i + 1, j], p[i, j + 1], p[i + 1, j + 1]
            )
            laplace[i, j] = (r1, r2)
            u_arcs[i][j + 1] = u_arcs[i][j].transform(r2)
            u_smp[i][j + 1] = np.stack([invert_point(r2, q) for q in u_smp[i][j]])
            v_arcs[i + 1][j] = v_arcs[i][j].transform(r1)
            v_smp[i + 1][j] = np.stack([invert_point(r1, q) for q in v_smp[i][j]])

    # propagation must keep the splines tangent-continuous
    for j in range(nv):
        _check_spline_c1([u_arcs[i][j] for i in range(nu - 1)], f"row {j} spline")
    for i in range(nu):
        _check_spline_c1([v_arcs[i][j] for j in range(nv - 1)], f"column {i} spline")

    fine = np.empty(((nu - 1) * n_u + 1, (nv - 1) * n_v + 1, 3))
    for i in range(nu - 1):
        for j in range(nv - 1):
            r1, r2 = laplace[i, j]
            patch = _cyclide_patch_from_samples(u_smp[i][j], v_smp[i][j], r1, r2)
            if not patch.is_finite():
                raise DegenerateLaplaceSphere("patch produced a vertex at infinity")
            fine[
                i * n_u : (i + 1) * n_u + 1, j * n_v : (j + 1) * n_v + 1
            ] = patch.points
    for i in range(nu - 1):
        for j in range(nv):
            fine[i * n_u : (i + 1) * n_u + 1, j * n_v] = u_smp[i][j]
    for i in range(nu):
        for j in range(nv - 1):
            fine[i * n_u, j * n_v : (j + 1) * n_v + 1] = v_smp[i][j]
    for i in range(nu):
        for j in range(nv):
            fine[i * n_u, j * n_v] = p[i, j]

    # seed data for a further round: sub-arcs between consecutive samples
    new_u = [
        CircArc(
            u_smp[i][0][k],
            u_smp[i][0][k + 1],
            u_arcs[i][0].tangent_at(k / n_u),
        )
        for i in range(nu - 1)
        for k in range(n_u)
    ]
    new_v = [
        CircArc(
            v_smp[0][j][l],
            v_smp[0][j][l + 1],
            v_arcs[0][j].tangent_at(l / n_v),
        )
        for j in range(nv - 1)
        for l in range(n_v)
    ]
    return EuclidNet(fine), new_u, new_v
