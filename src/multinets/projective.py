"""Homogeneous-coordinate kernel.

Points of RP^n are represented by plain 1-d numpy arrays of length n+1
(never the zero vector); two arrays represent the same point iff one is a
nonzero multiple of the other.  All incidence predicates reduce to numerical
rank decisions on row matrices of such vectors, with a relative singular
value threshold, so verdicts are invariant under rescaling any input.

The module also provides diagonal quadric forms, polar reflections, and the
lift of R^3 u {oo} onto the quadric of signature (4,1), with spheres and
planes represented by exterior points of that quadric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IdenticalLines,
    IsotropicMirror,
    NotOnQuadric,
    SkewLines,
    ZeroVector,
)

# Singular value sigma_k counts as zero iff sigma_k < RANK_RTOL * sigma_1.
RANK_RTOL = 1e-9
# |<x,x>| < QUADRIC_RTOL * |x|^2 counts as "on the quadric".
QUADRIC_RTOL = 1e-9

_ABS_EPS = 1e-13


class Infinity:
    """Marker for the point at infinity of R^3 u {oo}."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = Infinity()


def hpoint(coords) -> np.ndarray:
    """Validate and return homogeneous coordinates as a float array."""
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a coordinate vector, got shape {v.shape}")
    if np.linalg.norm(v) <= _ABS_EPS:
        raise ZeroVector("homogeneous coordinates must not vanish")
    return v


def _nonzero_rows(v: np.ndarray) -> np.ndarray:
    """hpoint for a stack of points (..., d): no row may vanish."""
    if np.any(np.linalg.norm(v, axis=-1) <= _ABS_EPS):
        raise ZeroVector("homogeneous coordinates must not vanish")
    return v


def normalize(p) -> np.ndarray:
    """Canonical representative: unit norm, first nonzero coordinate positive.

    A stack of points (..., d) is canonicalized row by row.
    """
    v = np.asarray(p, dtype=float)
    if v.ndim > 1:
        v = normalized_rows(v)
        first = np.argmax(np.abs(v) > _ABS_EPS, axis=-1)[..., None]
        return np.where(np.take_along_axis(v, first, axis=-1) < 0, -v, v)
    v = hpoint(v)
    v = v / np.linalg.norm(v)
    for c in v:
        if abs(c) > _ABS_EPS:
            if c < 0:
                v = -v
            break
    return v


def proj_distance(u, v):
    """Sine of the angle between the lines spanned by u and v.

    Stacks of points (..., d) broadcast against each other and give an
    array of sines.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim > 1 or v.ndim > 1:
        if u.shape[-1] != v.shape[-1]:
            raise DimensionMismatch(f"{u.shape} vs {v.shape}")
        uu, vv = normalized_rows(u), normalized_rows(v)
        c = np.sum(uu * vv, axis=-1, keepdims=True)
        return np.linalg.norm(vv - c * uu, axis=-1)
    u = hpoint(u)
    v = hpoint(v)
    if u.shape != v.shape:
        raise DimensionMismatch(f"{u.shape} vs {v.shape}")
    uu = u / np.linalg.norm(u)
    vv = v / np.linalg.norm(v)
    c = float(np.dot(uu, vv))
    resid = vv - c * uu
    return float(np.linalg.norm(resid))


def proj_equal(u, v, tol: float = 1e-9) -> bool:
    """Projective equality up to tolerance on the angle."""
    return proj_distance(u, v) <= tol


def normalized_rows(points) -> np.ndarray:
    """Stack points as rows, each scaled to unit Euclidean norm."""
    m = np.atleast_2d(np.asarray(points, dtype=float))
    norms = np.linalg.norm(m, axis=-1)
    if np.any(norms <= _ABS_EPS):
        raise ZeroVector("zero vector among span points")
    return m / norms[..., None]


def span_rank(points, rtol: float = RANK_RTOL):
    """Numerical rank of the span of the given homogeneous points.

    Rows are normalized first, so the verdict is scaling invariant;
    coplanarity of four points in RP^3 is span_rank <= 3.  A stack of
    point sets (..., k, d) gives an array of ranks.
    """
    s = np.linalg.svd(normalized_rows(points), compute_uv=False)
    ranks = np.sum(s > rtol * s[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def span_ranks(stacks, rtol: float = RANK_RTOL) -> np.ndarray:
    """Batched span_rank over an array of shape (N, k, d)."""
    return span_rank(stacks, rtol)


# -- rectangle kernel ----------------------------------------------------------


def rect_stacks(grid, elementary: bool):
    """Corner stacks of the coordinate rectangles of a grid (nu, nv, ...).

    Returns the keys (i0, i1, j0, j1) in lexicographic order and an array
    (N, 4, ...) of the corners (i0,j0), (i1,j0), (i0,j1), (i1,j1).  With
    elementary=True only the quads with i1 = i0 + 1, j1 = j0 + 1 are taken.
    """
    g = np.asarray(grid)
    nu, nv = g.shape[:2]
    if elementary:
        i0, j0 = np.arange(nu - 1), np.arange(nv - 1)
        i1, j1 = i0 + 1, j0 + 1
    else:
        i0, i1 = np.triu_indices(nu, 1)
        j0, j1 = np.triu_indices(nv, 1)
    a0, a1 = np.repeat(i0, len(j0)), np.repeat(i1, len(j0))
    b0, b1 = np.tile(j0, len(i0)), np.tile(j1, len(i0))
    stacks = np.stack([g[a0, b0], g[a1, b0], g[a0, b1], g[a1, b1]], axis=1)
    keys = list(zip(a0.tolist(), a1.tolist(), b0.tolist(), b1.tolist()))
    return keys, stacks


def rank_violations(keys, stacks, max_rank: int):
    """Stacks whose span rank exceeds max_rank, as (key, residual) pairs.

    One batched SVD of the row-normalized stacks (N, k, d) decides every
    rank; the residual is sigma_min / sigma_max of the violating stack.
    """
    s = np.linalg.svd(normalized_rows(stacks), compute_uv=False)
    ranks = np.sum(s > RANK_RTOL * s[:, :1], axis=-1)
    return [(keys[k], float(s[k, -1] / s[k, 0])) for k in np.flatnonzero(ranks > max_rank)]


def intersect_spans(a, b, rtol: float = RANK_RTOL):
    """Intersection of the spans of row matrices a (..., ka, d) and b (..., kb, d).

    Returns (vector, dim): dim (...) is the dimension of each intersection,
    the null count of [qa, -qb] for orthonormal bases qa, qb of the spans;
    where dim is 1, vector (..., d) is a unit vector spanning it (elsewhere
    the first basis row of a).  A basis row that a rank-deficient span drops
    is zeroed; it adds one zero singular value, which the count discounts.
    """
    _, sa, qa = np.linalg.svd(normalized_rows(a), full_matrices=False)
    _, sb, qb = np.linalg.svd(normalized_rows(b), full_matrices=False)
    keep_a = sa > rtol * sa[..., :1]
    keep_b = sb > rtol * sb[..., :1]
    qa = qa * keep_a[..., None]
    qb = qb * keep_b[..., None]
    m = np.swapaxes(np.concatenate([qa, -qb], axis=-2), -1, -2)
    _, s, vh = np.linalg.svd(m)
    pad = np.zeros(s.shape[:-1] + (m.shape[-1] - s.shape[-1],))
    null = np.concatenate([s, pad], axis=-1) <= rtol * s[..., :1]
    dim = np.sum(null, axis=-1) - np.sum(~keep_a, axis=-1) - np.sum(~keep_b, axis=-1)
    # every null row maps into the intersection (dropped columns map to 0);
    # for dim 1 the longest image spans it
    images = (vh[..., : qa.shape[-2]] * null[..., None]) @ qa
    longest = np.argmax(np.linalg.norm(images, axis=-1), axis=-1)
    vector = np.take_along_axis(images, longest[..., None, None], axis=-2)[..., 0, :]
    vector = np.where((dim == 1)[..., None], vector, qa[..., 0, :])
    return vector / np.linalg.norm(vector, axis=-1, keepdims=True), dim


def common_point_of_spans(spans, rtol: float = RANK_RTOL, min_rank: int = 1):
    """Vector closest to lying in every given span, with residuals.

    spans has shape (..., n, k, d): n row matrices (k, d) per batch entry.
    Returns (vector, lam_min, lam_second) per batch entry: lam_min ~ 0
    certifies a common point, lam_second ~ 0 flags a non-unique (degenerate)
    intersection.  Eigenvalues refer to the sum of complement projectors of
    the spans; spans of rank below min_rank are left out, and an entry left
    with fewer than two spans has lam_min = 0, as every point of its span is
    common to all.
    """
    _, s, vh = np.linalg.svd(normalized_rows(spans), full_matrices=False)
    basis = s > rtol * s[..., :1]
    counted = np.sum(basis, axis=-1) >= min_rank
    count = np.sum(counted, axis=-1)
    weights = basis * counted[..., None]
    acc = count[..., None, None] * np.eye(vh.shape[-1])
    acc -= np.einsum("...nk,...nkd,...nke->...de", weights, vh, vh)
    w, v = np.linalg.eigh(acc)
    return v[..., 0], np.where(count < 2, 0.0, w[..., 0]), w[..., 1]


# -- quadric forms -----------------------------------------------------------


@dataclass(frozen=True)
class QuadricForm:
    """Diagonal symmetric bilinear form given by its signature diagonal."""

    signature: tuple

    def __post_init__(self):
        if not all(s in (-1, 0, 1) for s in self.signature):
            raise ValueError("signature entries must be in {-1, 0, +1}")

    @property
    def dim(self) -> int:
        return len(self.signature)

    @property
    def diagonal(self) -> np.ndarray:
        return np.asarray(self.signature, dtype=float)

    def eval(self, x, y):
        """<x, y> as a float; stacks (..., d) broadcast to an array."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim > 1 or y.ndim > 1:
            if x.shape[-1] != self.dim or y.shape[-1] != self.dim:
                raise DimensionMismatch(
                    f"form of dimension {self.dim} applied to {x.shape}/{y.shape}"
                )
            return np.sum(self.diagonal * _nonzero_rows(x) * _nonzero_rows(y), axis=-1)
        x = hpoint(x)
        y = hpoint(y)
        if x.shape[0] != self.dim or y.shape[0] != self.dim:
            raise DimensionMismatch(
                f"form of dimension {self.dim} applied to {x.shape[0]}/{y.shape[0]}"
            )
        return float(np.sum(self.diagonal * x * y))

    def on_quadric(self, x, rtol: float = QUADRIC_RTOL):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            return np.abs(self.eval(x, x)) <= rtol * np.sum(x * x, axis=-1)
        x = hpoint(x)
        return abs(self.eval(x, x)) <= rtol * float(np.dot(x, x))

    def gram(self, rows) -> np.ndarray:
        m = np.asarray(rows, dtype=float)
        return m @ np.diag(self.diagonal) @ m.T


MOEBIUS = QuadricForm((1, 1, 1, 1, -1))      # R^{4,1}, models R^3 u {oo}
MOEBIUS_S2 = QuadricForm((1, 1, 1, -1))      # R^{3,1}, models S^2
LIE = QuadricForm((1, 1, 1, 1, -1, -1))      # R^{4,2}, oriented spheres
PLUECKER = QuadricForm((1, 1, 1, -1, -1, -1))  # R^{3,3}, lines of RP^3


def euclidean_form(n: int) -> QuadricForm:
    return QuadricForm((1,) * n)


def bilinear_eval(q: QuadricForm, x, y) -> float:
    """Evaluate the diagonal form: sum_k signature_k * x_k * y_k."""
    return q.eval(x, y)


def polar_reflect(q: QuadricForm, n, x) -> np.ndarray:
    """Reflection in the point n and its polar hyperplane:
    x - 2 <x,n>/<n,n> n.  Involutive; preserves <x,x>.

    Stacks of mirrors and points (..., d) broadcast against each other.
    """
    n = np.asarray(n, dtype=float)
    x = np.asarray(x, dtype=float)
    if n.ndim > 1 or x.ndim > 1:
        nn = q.eval(n, n)
        if np.any(np.abs(nn) <= QUADRIC_RTOL * np.sum(n * n, axis=-1)):
            raise IsotropicMirror("mirror lies on the quadric")
        return x - 2.0 * (q.eval(x, n) / nn)[..., None] * n
    n = hpoint(n)
    x = hpoint(x)
    nn = q.eval(n, n)
    if abs(nn) <= QUADRIC_RTOL * float(np.dot(n, n)):
        raise IsotropicMirror("mirror lies on the quadric")
    return x - 2.0 * (q.eval(x, n) / nn) * n


# -- projective lines --------------------------------------------------------


@dataclass
class ProjLine:
    """Projective line spanned by two distinct points."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = hpoint(self.a)
        self.b = hpoint(self.b)
        if self.a.shape != self.b.shape:
            raise DimensionMismatch("spanning points of different dimension")
        if span_rank([self.a, self.b]) != 2:
            raise IdenticalLines("spanning points are projectively equal")

    @property
    def span(self) -> np.ndarray:
        return np.stack([self.a, self.b])

    def contains(self, p, tol: float = 1e-9) -> bool:
        return span_rank([self.a, self.b, hpoint(p)]) <= 2


def meet_lines(l1, l2):
    """Intersection point of two coplanar, distinct projective lines.

    Stacks of lines given by their spanning points (..., 2, d) give
    (point, ranks) instead of raising: ranks (..., 3) holds the span ranks
    of the first line's points, the second line's and all four; where they
    are (2, 2, 3), point (..., d) is the normalized meet (elsewhere the first
    spanning point, normalized).
    """
    if isinstance(l1, ProjLine):
        pts = np.stack([l1.a, l1.b, l2.a, l2.b])
        r = span_rank(pts)
        if r >= 4:
            raise SkewLines("lines span rank 4")
        if r <= 2:
            raise IdenticalLines("lines coincide")
        return normalize(_line_meet(pts)[0])
    pts = np.concatenate(np.broadcast_arrays(l1, l2), axis=-2)
    ranks = np.stack([span_rank(pts[..., :2, :]), span_rank(pts[..., 2:, :]), span_rank(pts)], axis=-1)
    point, rows = _line_meet(pts)
    meets = np.all(ranks == (2, 2, 3), axis=-1)[..., None]
    return normalize(np.where(meets, point, rows[..., 0, :])), ranks


def _line_meet(pts):
    """Unnormalized meet of the lines pts[..., :2, :] and pts[..., 2:, :],
    from the null vector of the normalized points, and those points."""
    rows = normalized_rows(pts)
    m = np.swapaxes(rows, -1, -2) * np.array([1.0, 1.0, -1.0, -1.0])
    coeff = np.linalg.svd(m)[2][..., -1, :]
    return coeff[..., :1] * rows[..., 0, :] + coeff[..., 1:2] * rows[..., 1, :], rows


# -- Moebius lift of R^3 u {oo} ----------------------------------------------


def moebius_lift(p, at_infinity=None) -> np.ndarray:
    """Lift a point of R^3 u {oo} onto the quadric of R^{4,1}.

    Finite p maps to (2p, |p|^2 - 1, |p|^2 + 1); oo maps to (0,0,0,1,1),
    the lift of the north pole of the unit 3-sphere chart.  A stack of
    points (..., 3) lifts row by row; rows flagged in the boolean mask
    at_infinity (...) stand for oo, whatever their coordinates.
    """
    if p is INF:
        return np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    p = np.asarray(p, dtype=float)
    if p.ndim > 1 or at_infinity is not None:
        if p.shape[-1:] != (3,):
            raise DimensionMismatch(f"expected points of R^3, got shape {p.shape}")
        n2 = np.sum(p * p, axis=-1, keepdims=True)
        lifted = np.concatenate([2 * p, n2 - 1.0, n2 + 1.0], axis=-1)
        if at_infinity is not None:
            lifted[np.asarray(at_infinity, dtype=bool)] = (0.0, 0.0, 0.0, 1.0, 1.0)
        return lifted
    if p.shape != (3,):
        raise DimensionMismatch(f"expected a point of R^3, got shape {p.shape}")
    n2 = float(np.dot(p, p))
    return np.array([2 * p[0], 2 * p[1], 2 * p[2], n2 - 1.0, n2 + 1.0])


def moebius_drop(x):
    """Inverse of moebius_lift; returns a point of R^3 or INF.

    A stack (..., 5) gives (points (..., 3), at_infinity (...)): the mask
    flags the rows that drop to oo, whose points are zero.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        if x.shape[-1] != 5:
            raise DimensionMismatch("expected coordinates in R^{4,1}")
        if not np.all(MOEBIUS.on_quadric(x)):
            raise NotOnQuadric("point is not on the Moebius quadric")
        w = x[..., 4] - x[..., 3]
        at_infinity = np.abs(w) <= _ABS_EPS * np.linalg.norm(x, axis=-1)
        pts = x[..., :3] / np.where(at_infinity, 1.0, w)[..., None]
        pts[at_infinity] = 0.0
        return pts, at_infinity
    x = hpoint(x)
    if x.shape != (5,):
        raise DimensionMismatch("expected coordinates in R^{4,1}")
    if not MOEBIUS.on_quadric(x):
        raise NotOnQuadric("point is not on the Moebius quadric")
    w = x[4] - x[3]
    if abs(w) <= _ABS_EPS * np.linalg.norm(x):
        return INF
    return x[:3] / w


def sphere_rep(center, radius: float) -> np.ndarray:
    """Exterior point of the Moebius quadric representing a 2-sphere.

    The polar hyperplane of the result cuts the quadric in the lifts of the
    sphere's points; reflecting in it is Euclidean inversion in the sphere.
    """
    c = np.asarray(center, dtype=float)
    if c.shape != (3,):
        raise DimensionMismatch("sphere center must lie in R^3")
    if radius <= 0:
        raise ValueError("radius must be positive")
    a = float(np.dot(c, c)) - radius * radius
    return np.array([c[0], c[1], c[2], (a - 1.0) / 2.0, (a + 1.0) / 2.0])


def plane_rep(normal, offset: float) -> np.ndarray:
    """Moebius representative of the plane {p : <p, normal> = offset}.

    Planes are the spheres through oo; the representative satisfies
    <rep, moebius_lift(oo)> = 0.
    """
    n = np.asarray(normal, dtype=float)
    if n.shape != (3,):
        raise DimensionMismatch("plane normal must lie in R^3")
    if np.linalg.norm(n) <= _ABS_EPS:
        raise ZeroVector("plane normal must not vanish")
    return np.array([n[0], n[1], n[2], offset, offset])


def sphere_rep_to_euclidean(s):
    """Decode a Moebius sphere representative.

    Returns ("sphere", center, radius) or ("plane", unit_normal, offset).
    """
    s = hpoint(s)
    if s.shape != (5,):
        raise DimensionMismatch("expected coordinates in R^{4,1}")
    ss = MOEBIUS.eval(s, s)
    if ss <= 0:
        raise NotOnQuadric("representative is not exterior to the quadric")
    w = s[4] - s[3]
    if abs(w) <= 1e-12 * np.linalg.norm(s):
        n = s[:3]
        scale = np.linalg.norm(n)
        return "plane", n / scale, float(s[3] / scale)
    c = s[:3] / w
    r = np.sqrt(ss) / abs(w)
    return "sphere", c, float(r)
