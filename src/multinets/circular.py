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
from dataclasses import dataclass, field

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
    MOEBIUS,
    QuadricForm,
    common_point_of_spans,
    moebius_drop,
    moebius_lift,
    normalize,
    polar_reflect,
    span_rank,
)
from .qnets import (
    PointNet,
    _rects_planar,
    multi_q_violations,
    q_violations,
    translation_gauge,
)
from .quadric_nets import generate_by_reflections

EIG_ZERO_RTOL = 1e-7  # zero-eigenvalue threshold for span classification


@dataclass
class EuclidNet:
    """Grid of points of R^3 u {oo}; infinite vertices are flagged in a mask."""

    points: np.ndarray
    at_infinity: np.ndarray = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 3 or self.points.shape[2] != 3:
            raise DimensionMismatch("EuclidNet expects an array of shape (nu, nv, 3)")
        if self.at_infinity is None:
            self.at_infinity = np.zeros(self.points.shape[:2], dtype=bool)
        else:
            self.at_infinity = np.asarray(self.at_infinity, dtype=bool)
            if self.at_infinity.shape != self.points.shape[:2]:
                raise DimensionMismatch("infinity mask shape mismatch")
        raise_unless_finite(self.points, "vertex", skip=self.at_infinity)

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
    lifts = [normalize(moebius_lift(p)) for p in (p0, p1, p2, p3)]
    for k in range(4):
        for l in range(k + 1, 4):
            if span_rank([lifts[k], lifts[l]]) < 2:
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
    s, lam, lam2 = (x[0] for x in common_point_of_spans(np.stack([a, b], axis=1)[None]))
    if lam > 1e-10:
        raise NotMultiCircular(
            f"strip edges are not concurrent (residual {lam:.2e})"
        )
    if lam2 <= 1e-10:
        raise DegenerateStrip("strip sphere is not unique")
    return normalize(s)


# -- Cauchy construction ----------------------------------------------------------


@dataclass
class SphereFamilyPair:
    """Two families of Moebius sphere representatives with <s1_i, s2_j> = 0."""

    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        self.s1 = np.atleast_2d(np.asarray(self.s1, dtype=float))
        self.s2 = np.atleast_2d(np.asarray(self.s2, dtype=float))
        if self.s1.shape[1] != 5 or self.s2.shape[1] != 5:
            raise DimensionMismatch("sphere representatives live in R^{4,1}")
        for fam in (self.s1, self.s2):
            # a zero vector is no sphere either, and the form would reject it
            zero = np.linalg.norm(fam, axis=-1) <= _ABS_EPS
            if np.any(zero) or np.any(MOEBIUS.eval(fam, fam) <= 0):
                raise NotOnQuadric("family member is not a real sphere")
        cross = MOEBIUS.eval(self.s1[:, None], self.s2[None])
        scale = (
            np.linalg.norm(self.s1, axis=-1)[:, None]
            * np.linalg.norm(self.s2, axis=-1)[None, :]
        )
        if np.any(np.abs(cross) > 1e-9 * scale):
            raise MirrorsNotOrthogonal("sphere families must intersect orthogonally")


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


@dataclass
class Classification:
    """Class verdict plus the restricted-form eigenvalues of both spans."""

    kind: object
    span_dims: tuple
    eigenvalues: tuple = field(default_factory=tuple)

    @property
    def label(self) -> str:
        return getattr(self.kind, "value", self.kind)

    def __str__(self):
        e1 = ", ".join(f"{v:+.3e}" for v in self.eigenvalues[0])
        e2 = ", ".join(f"{v:+.3e}" for v in self.eigenvalues[1])
        return f"{self.label} spans {self.span_dims} eig1 [{e1}] eig2 [{e2}]"


def _span_signature(vectors, form: QuadricForm, rtol: float = 1e-9):
    """Eigenvalues of the form restricted to span(vectors), via an
    orthonormal basis; returns (dim, eigenvalues, n_pos, n_neg, n_zero)."""
    m = np.atleast_2d(np.asarray(vectors, dtype=float))
    m = m / np.linalg.norm(m, axis=-1, keepdims=True)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    r = int(np.sum(s > rtol * s[0]))
    basis = vh[:r]
    gram = form.gram(basis)
    eig = np.linalg.eigvalsh(gram)
    top = np.max(np.abs(eig)) if eig.size else 0.0
    n_zero = int(np.sum(np.abs(eig) <= EIG_ZERO_RTOL * top))
    n_pos = int(np.sum(eig > EIG_ZERO_RTOL * top))
    n_neg = int(np.sum(eig < -EIG_ZERO_RTOL * top))
    return r, eig, n_pos, n_neg, n_zero


def _classify_spans(sig1, sig2, two_dim_classes):
    """Shared decision rule: the 2-dimensional span decides the class."""
    d1, e1, p1, n1, z1 = sig1
    d2, e2, p2, n2, z2 = sig2
    if min(d1, d2) <= 1:
        return None  # caller maps this to its degenerate/strip class
    verdicts = []
    for d, p, n, z in ((d1, p1, n1, z1), (d2, p2, n2, z2)):
        if d != 2:
            continue
        verdicts.append(two_dim_classes.get((p, n, z)))
    verdicts = [v for v in verdicts if v is not None]
    if not verdicts:
        return "ambiguous"
    # a zero eigenvalue or a mixed signature is decisive over (+ +)
    for priority in ("zero", "mixed", "plus"):
        for v in verdicts:
            if v[0] == priority:
                return v[1]
    return verdicts[0][1]


def _recenter_unit_scale(net: EuclidNet) -> EuclidNet:
    """Similarity normalization (centroid to origin, RMS radius 1) to keep
    the Moebius lift well conditioned; Moebius-invariant verdicts are
    unaffected.  Nets with vertices at infinity are left untouched."""
    if not net.is_finite():
        return net
    centered = net.points - np.mean(net.points, axis=(0, 1))
    scale = np.sqrt(np.mean(np.sum(centered * centered, axis=-1)))
    if scale <= 1e-13:
        return net
    return EuclidNet(centered / scale)


def classify_multi_circular(net: EuclidNet) -> Classification:
    """Normal-form class of a multi-circular net (Moebius invariant).

    The spans of the two Laplace-transform families are orthogonal in
    R^{4,1}; the signature of a 2-dimensional span decides: (+ +) pencil
    through a circle -> rotational, (+ -) concentric -> cone, (+ 0)
    parallel planes -> cylinder.
    """
    net = _recenter_unit_scale(net)
    if not is_multi_circular(net):
        raise NotMultiCircular("classification requires a multi-circular net")
    lifted = lift_net(net)
    _, y1, y2 = translation_gauge(lifted)
    sig1 = _span_signature(y1, MOEBIUS)
    sig2 = _span_signature(y2, MOEBIUS)
    eigs = (sig1[1], sig2[1])
    dims = (sig1[0], sig2[0])
    table = {
        (2, 0, 0): ("plus", NetClass.ROTATIONAL),
        (1, 1, 0): ("mixed", NetClass.CONE),
        (1, 0, 1): ("zero", NetClass.CYLINDER),
    }
    verdict = _classify_spans(sig1, sig2, table)
    if verdict is None or verdict == "ambiguous":
        return Classification(NetClass.DEGENERATE, dims, eigs)
    return Classification(verdict, dims, eigs)


# -- canonical samplers -------------------------------------------------------------


def sample_rotational(profile, angles) -> EuclidNet:
    """Net of revolution: profile points (r, z) with r > 0 swept through the
    given angles about the z-axis; dims are (len(angles), len(profile))."""
    prof = np.atleast_2d(np.asarray(profile, dtype=float))
    ang = np.asarray(angles, dtype=float)
    if prof.shape[0] < 2 or ang.shape[0] < 2:
        raise DegenerateProfile("need at least two profile points and two angles")
    if np.any(prof[:, 0] <= 1e-12):
        raise DegenerateProfile("profile radii must be positive")
    if np.any(np.linalg.norm(np.diff(prof, axis=0), axis=-1) <= 1e-12):
        raise DegenerateProfile("profile has coincident consecutive points")
    r, z = prof[:, 0], prof[:, 1]
    pts = np.empty((len(ang), len(prof), 3))
    for i, t in enumerate(ang):
        pts[i, :, 0] = r * np.cos(t)
        pts[i, :, 1] = r * np.sin(t)
        pts[i, :, 2] = z
    return EuclidNet(pts)


def sample_cone(directions, radii) -> EuclidNet:
    """Cone net: rays through unit directions u_i scaled by radii rho_j."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    rho = np.asarray(radii, dtype=float)
    if dirs.shape[0] < 2 or rho.shape[0] < 2:
        raise DegenerateProfile("need at least two directions and two radii")
    norms = np.linalg.norm(dirs, axis=-1)
    if np.any(norms <= 1e-12) or np.any(rho <= 1e-12):
        raise DegenerateProfile("directions must be nonzero and radii positive")
    dirs = dirs / norms[:, None]
    if np.any(np.linalg.norm(np.diff(dirs, axis=0), axis=-1) <= 1e-12):
        raise DegenerateProfile("coincident consecutive directions")
    pts = rho[None, :, None] * dirs[:, None, :]
    return EuclidNet(pts)


def sample_cylinder(base, offsets) -> EuclidNet:
    """Cylinder net: planar base polygon (x, y) translated along z."""
    b = np.atleast_2d(np.asarray(base, dtype=float))
    h = np.asarray(offsets, dtype=float)
    if b.shape[0] < 2 or h.shape[0] < 2:
        raise DegenerateProfile("need at least two base points and two offsets")
    if np.any(np.linalg.norm(np.diff(b, axis=0), axis=-1) <= 1e-12):
        raise DegenerateProfile("base polygon has coincident consecutive points")
    pts = np.empty((b.shape[0], h.shape[0], 3))
    pts[:, :, 0] = b[:, 0:1]
    pts[:, :, 1] = b[:, 1:2]
    pts[:, :, 2] = h[None, :]
    return EuclidNet(pts)


def torus_point(big, small, u, v) -> np.ndarray:
    """Point of the torus of revolution with radii big > small at the
    angles u (about the z-axis) and v (around the tube)."""
    w = big + small * np.cos(v)
    return np.array([w * np.cos(u), w * np.sin(u), small * np.sin(v)])


def torus_u_tangent(u, v) -> np.ndarray:
    """Unit tangent of the u-curvature line (a parallel circle) at (u, v)."""
    return np.array([-np.sin(u), np.cos(u), 0.0])


def torus_v_tangent(u, v) -> np.ndarray:
    """Unit tangent of the v-curvature line (a meridian circle) at (u, v)."""
    return np.array([-np.sin(v) * np.cos(u), -np.sin(v) * np.sin(u), np.cos(v)])


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


def _circle_order_embedded(points) -> bool:
    """Vertices of a concyclic quad occur in non-crossing cyclic order.

    For finite quads this uses angular order on the circumcircle; a quad
    containing oo lies on a line, where the order is read off the line with
    oo acting as the wrap point.
    """
    infinite = [k for k, p in enumerate(points) if p is INF]
    if len(infinite) > 1:
        raise DuplicatePoints("two vertices at infinity")
    if len(infinite) == 1:
        k = infinite[0]
        finite = [np.asarray(points[(k + s) % 4], dtype=float) for s in (1, 2, 3)]
        d = finite[2] - finite[0]
        d = d / np.linalg.norm(d)
        t = [float(np.dot(p - finite[0], d)) for p in finite]
        # going a -> b -> c then wrapping through oo must be monotone
        return (t[0] < t[1] < t[2]) or (t[0] > t[1] > t[2])
    pts = [np.asarray(p, dtype=float) for p in points]
    c = np.mean(pts, axis=0)
    # in-plane orthonormal basis from the quad's plane
    m = np.stack([p - c for p in pts])
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    e1, e2 = vh[0], vh[1]
    ang = [np.arctan2(float(np.dot(p - c, e2)), float(np.dot(p - c, e1))) for p in pts]
    order = np.argsort(ang)
    pos = np.empty(4, dtype=int)
    pos[order] = np.arange(4)
    seq = list(pos)
    for shift in range(4):
        rolled = [(seq[(k + shift) % 4]) for k in range(4)]
        if rolled == [0, 1, 2, 3] or rolled == [3, 2, 1, 0]:
            return True
    return False


def check_embedded(net: EuclidNet) -> bool:
    """All coordinate rectangles embedded (non-crossing on their circles)."""
    if not is_multi_circular(net):
        raise NotMultiCircular("embeddedness is defined for multi-circular nets")
    nu, nv = net.dims
    for i0 in range(nu):
        for i1 in range(i0 + 1, nu):
            for j0 in range(nv):
                for j1 in range(j0 + 1, nv):
                    quad = [
                        net.point(i0, j0),
                        net.point(i1, j0),
                        net.point(i1, j1),
                        net.point(i0, j1),
                    ]
                    if not _circle_order_embedded(quad):
                        return False
    return True
