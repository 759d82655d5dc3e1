"""Circular and multi-circular nets in R^3 u {oo}.

Circular nets are grids with concyclic elementary quads; multi-circular nets
have concyclic coordinate rectangles for all index pairs.  Through the lift
onto the quadric of R^{4,1} these are exactly the (multi-)Q-nets in that
quadric, which yields strip spheres, a reflection-based Cauchy construction,
and the classification into Moebius images of surfaces of revolution, cones
and cylinders by the signature of the Laplace-transform span.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateProfile,
    DegenerateStrip,
    DimensionMismatch,
    DuplicatePoints,
    MirrorsNotOrthogonal,
    NotMultiCircular,
    NotOnQuadric,
    raise_unless_finite,
)
from .projective import (
    _ABS_EPS,
    INF,
    INPUT_ATOL,
    MOEBIUS,
    RANK_RTOL,
    Classification,
    _kept,
    _read_only,
    classify_spans,
    common_point_of_spans,
    moebius_drop,
    moebius_lift,
    normalize,
    polar_reflect,
    rect_stacks,
    repeated_rows,
    span_rank,
    stack_coords,
)
from .qnets import (
    PointNet,
    _rects_planar,
    _strip_laplace_vectors,
    multi_q_violations,
    q_violations,
)
from .quadric_nets import generate_by_reflections


@dataclass(frozen=True)
class EuclidNet:
    """Grid of points of R^3 u {oo}, stored read-only; infinite vertices are flagged in a mask."""

    points: np.ndarray
    at_infinity: np.ndarray = None

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        if points.ndim != 3 or points.shape[2] != 3:
            raise DimensionMismatch("EuclidNet expects an array of shape (nu, nv, 3)")
        if self.at_infinity is None:
            at_infinity = np.zeros(points.shape[:2], dtype=bool)
        else:
            at_infinity = np.array(self.at_infinity, dtype=bool)
            if at_infinity.shape != points.shape[:2]:
                raise DimensionMismatch("infinity mask shape mismatch")
        raise_unless_finite(points, "vertex", skip=at_infinity)
        object.__setattr__(self, "points", *_read_only(points))
        object.__setattr__(self, "at_infinity", *_read_only(at_infinity))

    @property
    def dims(self):
        return self.points.shape[0], self.points.shape[1]

    def point(self, i: int, j: int):
        return INF if self.at_infinity[i, j] else self.points[i, j]

    def is_finite(self) -> bool:
        return not bool(self.at_infinity.any())

    @classmethod
    def from_grid(cls, grid):
        """Build from a nested list of points / INF markers."""
        nu, nv = len(grid), len(grid[0])
        cells = [p for row in grid for p in row]
        mask = np.array([p is INF for p in cells], dtype=bool).reshape(nu, nv)
        pts = np.zeros((nu, nv, 3))
        finite = [p for p in cells if p is not INF]
        if finite:
            pts[~mask] = np.asarray(finite, dtype=float)
        return cls(pts, mask)


def lift_net(net: EuclidNet) -> PointNet:
    """Lift onto the Moebius quadric in R^{4,1} (unit-normalized rows)."""
    return PointNet(normalize(moebius_lift(net.points, net.at_infinity)), ambient="R41")


def drop_net(net: PointNet) -> EuclidNet:
    """Inverse of lift_net."""
    return EuclidNet(*moebius_drop(net.points))


def invert_point(s_rep, p, at_infinity=None):
    """Image of p in R^3 u {oo} under inversion in the sphere with Moebius
    representative s_rep (spheres and planes alike).

    Stacks of points (..., 3), with an optional infinity mask as for
    moebius_lift, and of representatives (..., 5) broadcast against each
    other and give (points, at_infinity) as moebius_drop does.
    """
    return moebius_drop(polar_reflect(MOEBIUS, s_rep, moebius_lift(p, at_infinity)))


def invert_net(s_rep, net: EuclidNet) -> EuclidNet:
    """Apply a sphere inversion vertex-wise."""
    return EuclidNet(*invert_point(s_rep, net.points, net.at_infinity))


# -- predicates ----------------------------------------------------------------


def is_concyclic(p0, p1, p2, p3) -> bool:
    """Four points of R^3 u {oo} lie on one circle (or line through oo)."""
    lifts = np.stack([moebius_lift(p) for p in (p0, p1, p2, p3)])
    raise_unless_finite(lifts, "lifted corner")
    lifts = normalize(lifts)
    if repeated_rows(lifts[None])[0]:
        raise DuplicatePoints("concyclicity needs pairwise distinct points")
    return span_rank(lifts) <= 3


def multi_circular_violations(net: EuclidNet):
    """Non-concyclic coordinate rectangles as ((i0,i1,j0,j1), residual):
    the non-planar rectangles of the lift onto the Moebius quadric."""
    return multi_q_violations(lift_net(net))


def is_multi_circular(net: EuclidNet) -> bool:
    """True iff every coordinate rectangle is concyclic; the verdict of
    multi_circular_violations, reached as qnets._rects_planar describes."""
    return _rects_planar(lift_net(net).points)


def circular_violations(net: EuclidNet):
    """Non-concyclic elementary quads."""
    return q_violations(lift_net(net))


def is_circular_net(net: EuclidNet) -> bool:
    return not circular_violations(net)


def is_discrete_isothermic(net: EuclidNet) -> bool:
    """Every vertex and its four diagonal neighbors lie on a common sphere
    (span rank of the five lifts <= 4)."""
    x = lift_net(net).points
    five = np.stack(
        [x[1:-1, 1:-1], x[:-2, :-2], x[2:, :-2], x[2:, 2:], x[:-2, 2:]], axis=2
    ).reshape(-1, 5, 5)
    return not five.size or not np.any(span_rank(five) > 4)


# -- strip spheres ---------------------------------------------------------------


def strip_sphere(net: EuclidNet, direction: int, index: int) -> np.ndarray:
    """Sphere orthogonal to all circles of a coordinate strip.

    direction 1 selects the strip between rows index and index+1 (the
    inversion maps row index onto row index+1 pointwise); direction 2 the
    strip between two columns.  The representative is the common Laplace
    point of the lifted strip.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    lifted = lift_net(net).points
    if direction == 1:
        rows = lifted[index], lifted[index + 1]
    else:
        rows = lifted[:, index], lifted[:, index + 1]
    a, b = rows
    if span_rank(np.concatenate([a, b])) <= 3:
        raise DegenerateStrip("strip is contained in a single circle")
    s, resid, resid2 = (x[0] for x in common_point_of_spans(np.stack([a, b], axis=1)[None]))
    if resid > RANK_RTOL:
        raise NotMultiCircular(f"strip edges are not concurrent (residual {resid:.2e})")
    if resid2 <= RANK_RTOL:
        raise DegenerateStrip("strip sphere is not unique")
    return normalize(s)


# -- Cauchy construction ----------------------------------------------------------


@dataclass(frozen=True)
class SphereFamilyPair:
    """Two families of Moebius sphere representatives with <s1_i, s2_j> = 0, stored read-only."""

    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        s1 = np.atleast_2d(np.array(self.s1, dtype=float))
        s2 = np.atleast_2d(np.array(self.s2, dtype=float))
        if s1.shape[1] != 5 or s2.shape[1] != 5:
            raise DimensionMismatch("sphere representatives live in R^{4,1}")
        for fam in (s1, s2):
            raise_unless_finite(fam, "sphere representative")
            # a zero vector is no sphere either, and the form would reject it
            zero = np.linalg.norm(fam, axis=-1) <= _ABS_EPS
            if np.any(zero) or np.any(MOEBIUS.eval(fam, fam) <= 0):
                raise NotOnQuadric("family member is not a real sphere")
        if not np.all(MOEBIUS.orthogonal(s1[:, None], s2[None])):
            raise MirrorsNotOrthogonal("sphere families must intersect orthogonally")
        object.__setattr__(self, "s1", *_read_only(s1))
        object.__setattr__(self, "s2", *_read_only(s2))


def generate_multi_circular(x00, fams: SphereFamilyPair) -> EuclidNet:
    """Multi-circular net generated by reflecting a seed point in the two
    orthogonal sphere families."""
    lifted = generate_by_reflections(
        MOEBIUS, fams.s1, fams.s2, normalize(moebius_lift(x00))
    )
    return drop_net(lifted)


# -- classification ----------------------------------------------------------------


class NetClass(enum.Enum):
    ROTATIONAL = "rotational"
    CONE = "cone"
    CYLINDER = "cylinder"
    DEGENERATE = "degenerate"


# codes (n_pos, n_neg, n_zero) of a 2-dimensional Laplace span, in order of
# precedence: a zero eigenvalue or a mixed signature outranks (+ +)
_NET_CLASSES = {
    (1, 0, 1): NetClass.CYLINDER,
    (1, 1, 0): NetClass.CONE,
    (2, 0, 0): NetClass.ROTATIONAL,
}


def _net_class(code1, code2):
    """Class of a pair of Laplace-span codes: both spans need two or more
    dimensions, and then the first entry of _NET_CLASSES among them decides."""
    if min(sum(code1), sum(code2)) > 1:
        for code, kind in _NET_CLASSES.items():
            if code in (code1, code2):
                return kind
    return NetClass.DEGENERATE


def _unit_chart(points):
    """Finite points (nu, nv, 3) in their unit chart, and the chart's centre
    and scale: x -> (x - centre) / scale moves the centroid to 0 and the RMS
    radius to 1, where the Moebius lift is well conditioned.  Points that
    all coincide keep the identity chart (0, 1).
    """
    centre = np.mean(points, axis=(0, 1))
    centered = points - centre
    scale = np.sqrt(np.mean(np.sum(centered * centered, axis=-1)))
    if scale == 0.0:
        return points, 0.0, 1.0
    return centered / scale, centre, scale


def classify_multi_circular(net: EuclidNet) -> Classification:
    """Normal-form class of a multi-circular net (Moebius invariant).

    The spans of the two Laplace-transform families are orthogonal in
    R^{4,1}; the signature of a 2-dimensional span decides: (+ +) pencil
    through a circle -> rotational, (+ -) concentric -> cone, (+ 0)
    parallel planes -> cylinder.
    """
    points = _unit_chart(net.points)[0] if net.is_finite() else net.points
    lifted = normalize(moebius_lift(points, net.at_infinity))
    raise_unless_finite(lifted, "vertex")
    if not _rects_planar(lifted):
        raise NotMultiCircular("classification requires a multi-circular net")
    return classify_spans(MOEBIUS, _strip_laplace_vectors(lifted), _net_class)


# -- canonical samplers -------------------------------------------------------------


def sample_rotational(profile, angles) -> EuclidNet:
    """Net of revolution: profile points (r, z) with r > 0 swept through the
    given angles about the z-axis; dims are (len(angles), len(profile))."""
    prof = np.atleast_2d(np.asarray(profile, dtype=float))
    ang = np.atleast_1d(np.asarray(angles, dtype=float))
    if prof.shape[0] < 2 or ang.shape[0] < 2:
        raise DegenerateProfile("need at least two profile points and two angles")
    if np.any(prof[:, 0] <= INPUT_ATOL):
        raise DegenerateProfile("profile radii must be positive")
    if np.any(np.linalg.norm(np.diff(prof, axis=0), axis=-1) <= INPUT_ATOL):
        raise DegenerateProfile("profile has coincident consecutive points")
    # (r cos t, r sin t, z) as (r, r, z) times (cos t, sin t, 1)
    turns = np.stack([np.cos(ang), np.sin(ang), np.ones_like(ang)], axis=-1)
    return EuclidNet(prof[:, [0, 0, 1]] * turns[:, None])


def sample_cone(directions, radii) -> EuclidNet:
    """Cone net: rays through unit directions u_i scaled by radii rho_j."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    rho = np.atleast_1d(np.asarray(radii, dtype=float))
    if dirs.shape[0] < 2 or rho.shape[0] < 2:
        raise DegenerateProfile("need at least two directions and two radii")
    norms = np.linalg.norm(dirs, axis=-1)
    if np.any(norms <= INPUT_ATOL) or np.any(rho <= INPUT_ATOL):
        raise DegenerateProfile("directions must be nonzero and radii positive")
    dirs = dirs / norms[:, None]
    if np.any(np.linalg.norm(np.diff(dirs, axis=0), axis=-1) <= INPUT_ATOL):
        raise DegenerateProfile("coincident consecutive directions")
    pts = rho[None, :, None] * dirs[:, None, :]
    return EuclidNet(pts)


def sample_cylinder(base, offsets) -> EuclidNet:
    """Cylinder net: planar base polygon (x, y) translated along z."""
    b = np.atleast_2d(np.asarray(base, dtype=float))
    h = np.atleast_1d(np.asarray(offsets, dtype=float))
    if b.shape[0] < 2 or h.shape[0] < 2:
        raise DegenerateProfile("need at least two base points and two offsets")
    if np.any(np.linalg.norm(np.diff(b, axis=0), axis=-1) <= INPUT_ATOL):
        raise DegenerateProfile("base polygon has coincident consecutive points")
    pts = np.empty((b.shape[0], h.shape[0], 3))
    pts[:, :, 0] = b[:, 0:1]
    pts[:, :, 1] = b[:, 1:2]
    pts[:, :, 2] = h[None, :]
    return EuclidNet(pts)


def torus_point(big, small, u, v) -> np.ndarray:
    """Points (..., 3) of the torus of revolution with radii big > small at
    the angles u (about the z-axis) and v (around the tube), which broadcast."""
    w = big + small * np.cos(v)
    return stack_coords(w * np.cos(u), w * np.sin(u), small * np.sin(v))


def torus_u_tangent(u, v) -> np.ndarray:
    """Unit tangents (..., 3) of the u-curvature lines (parallel circles) at (u, v)."""
    return stack_coords(-np.sin(u), np.cos(u), np.zeros(np.shape(v)))


def torus_v_tangent(u, v) -> np.ndarray:
    """Unit tangents (..., 3) of the v-curvature lines (meridian circles) at (u, v)."""
    return stack_coords(-np.sin(v) * np.cos(u), -np.sin(v) * np.sin(u), np.cos(v))


def sample_canonical(kind: NetClass, profile, params) -> EuclidNet:
    """Dispatch to the sampler of the requested normal-form class."""
    if kind == NetClass.ROTATIONAL:
        return sample_rotational(profile, params)
    if kind == NetClass.CONE:
        return sample_cone(profile, params)
    if kind == NetClass.CYLINDER:
        return sample_cylinder(profile, params)
    raise ValueError(f"no sampler for {kind}")


# -- embeddedness --------------------------------------------------------------------


def _circle_order_embedded(quads, at_infinity) -> np.ndarray:
    """Which concyclic quads (R, 4, 3), corners in cyclic order, have their
    vertices in non-crossing order on their circles.

    A finite quad is embedded when its corners, ranked by angle on the
    circumcircle, step through the ranks by +1 or by -1 mod 4; four finite
    collinear corners (second singular value dropped by projective._kept)
    have no circumcentre and are ranked by their line coordinate.  A
    quad with one corner oo (mask (R, 4)) lies on a line, where the order is
    read off the line with oo acting as the wrap point.  Quads with two
    corners at oo give False.
    """
    embedded = np.zeros(len(quads), dtype=bool)
    finite = ~at_infinity.any(axis=1)
    m = quads[finite] - quads[finite].mean(axis=1, keepdims=True)
    # in-plane orthonormal basis from each quad's plane
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    xy = m @ np.swapaxes(vh[:, :2], 1, 2)
    on_line = ~_kept(s)[:, 1:2]
    key = np.where(on_line, xy[..., 0], np.arctan2(xy[..., 1], xy[..., 0]))
    rank = np.argsort(np.argsort(key, axis=1), axis=1)
    step = (np.roll(rank, -1, axis=1) - rank) % 4
    embedded[finite] = np.all(step == 1, axis=1) | np.all(step == 3, axis=1)
    one = at_infinity.sum(axis=1) == 1
    line, k = quads[one], np.argmax(at_infinity[one], axis=1)
    a, b, c = (line[np.arange(len(line)), (k + s) % 4] for s in (1, 2, 3))
    # a -> b -> c, then wrapping through oo, is monotone iff b lies between a and c
    t = np.sum((b - a) * (c - a), axis=-1)
    embedded[one] = (0 < t) & (t < np.sum((c - a) ** 2, axis=-1))
    return embedded


def check_embedded(net: EuclidNet) -> bool:
    """All coordinate rectangles embedded (non-crossing on their circles).

    A rectangle with two corners at oo raises DuplicatePoints unless a
    non-embedded rectangle comes before it in key order.
    """
    if not is_multi_circular(net):
        raise NotMultiCircular("embeddedness is defined for multi-circular nets")
    grid = np.concatenate([net.points, net.at_infinity[..., None]], axis=-1)
    corners = rect_stacks(grid, elementary=False)[1][:, [0, 1, 3, 2]]
    at_infinity = corners[..., 3] > 0
    doubly = at_infinity.sum(axis=1) > 1
    bad = np.flatnonzero(doubly | ~_circle_order_embedded(corners[..., :3], at_infinity))
    if bad.size and doubly[bad[0]]:
        raise DuplicatePoints("two vertices at infinity")
    return not bad.size
