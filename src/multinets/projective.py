"""Homogeneous-coordinate kernel.

Points of RP^n are numpy arrays whose last axis holds n+1 homogeneous
coordinates (never the zero vector); two rows represent the same point iff
one is a nonzero multiple of the other.  Every kernel takes stacks of points
(..., d) and works row by row along the leading axes; a single point, of
shape (d,), is a stack of one and takes the same code path.  The point at
infinity of R^3 appears as the INF sentinel only at the public boundary
(moebius_lift(INF) and moebius_drop of one point); stacks carry a boolean
at_infinity mask instead.  All incidence predicates reduce to numerical rank
decisions on row matrices of such vectors, with a relative singular value
threshold, so verdicts are invariant under rescaling any input.

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
    raise_first_failure,
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


def _nonzero_rows(points):
    """A stack of points (..., d) as floats, with its row norms (..., 1).

    A single point is a stack of one.  A 0-d input raises DimensionMismatch
    and a vanishing row ZeroVector.
    """
    v = np.asarray(points, dtype=float)
    if v.ndim == 0:
        raise DimensionMismatch(f"expected coordinate vectors, got shape {v.shape}")
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms <= _ABS_EPS):
        raise ZeroVector("homogeneous coordinates must not vanish")
    return v, norms


def hpoint(coords) -> np.ndarray:
    """Validate and return the homogeneous coordinates of one point as a float array."""
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a coordinate vector, got shape {v.shape}")
    return _nonzero_rows(v)[0]


def normalize(p) -> np.ndarray:
    """Canonical representative: unit norm, first nonzero coordinate positive.

    A stack of points (..., d) is canonicalized row by row.
    """
    v, norms = _nonzero_rows(p)
    v = v / norms
    first = np.argmax(np.abs(v) > _ABS_EPS, axis=-1)[..., None]
    return np.where(np.take_along_axis(v, first, axis=-1) < 0, -v, v)


def proj_distance(u, v):
    """Sine of the angle between the lines spanned by u and v.

    Stacks of points (..., d) broadcast against each other and give an
    array of sines.
    """
    (u, nu), (v, nv) = _nonzero_rows(u), _nonzero_rows(v)
    if u.shape[-1] != v.shape[-1]:
        raise DimensionMismatch(f"{u.shape} vs {v.shape}")
    uu, vv = u / nu, v / nv
    c = np.sum(uu * vv, axis=-1, keepdims=True)
    return np.linalg.norm(vv - c * uu, axis=-1)


def proj_equal(u, v, tol: float = 1e-9) -> bool:
    """Projective equality up to tolerance on the angle."""
    return proj_distance(u, v) <= tol


def normalized_rows(points) -> np.ndarray:
    """Stack points as rows, each scaled to unit Euclidean norm."""
    m, norms = _nonzero_rows(np.atleast_2d(points))
    return m / norms


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
    """Batched span_rank over an array of shape (N, k, d).

    Nothing in the package calls it; it stays while the benchmark's tracer
    (perfbench/tracing.py LAYERS) and its tests look the name up.
    """
    return span_rank(stacks, rtol)


# -- rectangle kernel ----------------------------------------------------------


def rect_indices(nu: int, nv: int, elementary: bool):
    """Grid indices of the corners of the coordinate rectangles of an
    (nu, nv) grid.

    Returns row and column index arrays (N, 4), one row per rectangle with
    its key (i0, i1, j0, j1) in lexicographic order, for the corners
    (i0,j0), (i1,j0), (i0,j1), (i1,j1).  With elementary=True only the quads
    with i1 = i0 + 1, j1 = j0 + 1 are taken.
    """
    if elementary:
        i0, j0 = np.arange(nu - 1), np.arange(nv - 1)
        i1, j1 = i0 + 1, j0 + 1
    else:
        i0, i1 = np.triu_indices(nu, 1)
        j0, j1 = np.triu_indices(nv, 1)
    a0, a1 = np.repeat(i0, len(j0)), np.repeat(i1, len(j0))
    b0, b1 = np.tile(j0, len(i0)), np.tile(j1, len(i0))
    return np.stack([a0, a1, a0, a1], axis=1), np.stack([b0, b0, b1, b1], axis=1)


def rect_stacks(grid, elementary: bool):
    """Corner stacks of the coordinate rectangles of a grid (nu, nv, ...).

    Returns the keys (i0, i1, j0, j1) in the order of rect_indices and an
    array (N, 4, ...) of the corners (i0,j0), (i1,j0), (i0,j1), (i1,j1).
    """
    g = np.asarray(grid)
    rows, cols = rect_indices(*g.shape[:2], elementary)
    keys = list(zip(*(idx.tolist() for idx in (rows[:, 0], rows[:, 1], cols[:, 0], cols[:, 2]))))
    return keys, g[rows, cols]


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
        """<x, y> row by row; stacks (..., d) broadcast against each other."""
        x, y = self._rows(x, y)
        return self._apply(x, y)

    def on_quadric(self, x, rtol: float = QUADRIC_RTOL):
        """|<x, x>| <= rtol |x|^2 row by row."""
        x, _ = self._rows(x)
        return self._on_quadric(x, rtol)

    def _rows(self, x, y=None):
        """x and y (x again if None) as float stacks of nonzero rows of this
        dimension; each input is validated once."""
        x = _nonzero_rows(x)[0]
        y = x if y is None else _nonzero_rows(y)[0]
        if x.shape[-1] != self.dim or y.shape[-1] != self.dim:
            raise DimensionMismatch(f"form of dimension {self.dim} applied to {x.shape}/{y.shape}")
        return x, y

    def _apply(self, x, y):
        """eval on stacks that _rows has validated."""
        return np.sum(self.diagonal * x * y, axis=-1)

    def _on_quadric(self, x, rtol: float = QUADRIC_RTOL):
        """on_quadric on a stack that _rows has validated."""
        return np.abs(self._apply(x, x)) <= rtol * np.sum(x * x, axis=-1)

    def gram(self, rows) -> np.ndarray:
        m = np.asarray(rows, dtype=float)
        return m @ np.diag(self.diagonal) @ m.T


MOEBIUS = QuadricForm((1, 1, 1, 1, -1))      # R^{4,1}, models R^3 u {oo}
MOEBIUS_S2 = QuadricForm((1, 1, 1, -1))      # R^{3,1}, models S^2
LIE = QuadricForm((1, 1, 1, 1, -1, -1))      # R^{4,2}, oriented spheres
PLUECKER = QuadricForm((1, 1, 1, -1, -1, -1))  # R^{3,3}, lines of RP^3


def bilinear_eval(q: QuadricForm, x, y) -> float:
    """Evaluate the diagonal form: sum_k signature_k * x_k * y_k."""
    return q.eval(x, y)


def polar_reflect(q: QuadricForm, n, x) -> np.ndarray:
    """Reflection in the point n and its polar hyperplane:
    x - 2 <x,n>/<n,n> n.  Involutive; preserves <x,x>.

    Stacks of mirrors and points (..., d) broadcast against each other.
    """
    n, x = q._rows(n, x)
    if np.any(q._on_quadric(n)):
        raise IsotropicMirror("mirror lies on the quadric")
    return _reflect(q, n, x)


def _reflect(q: QuadricForm, n, x):
    """polar_reflect on float stacks whose mirrors are known to be nonzero
    and off the quadric, and whose points nonzero, without checking them."""
    return x - 2.0 * (q._apply(n, x) / q._apply(n, n))[..., None] * n


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

    def contains(self, p) -> bool:
        return span_rank([self.a, self.b, hpoint(p)]) <= 2


def meet_lines(l1, l2):
    """Intersection point of two coplanar, distinct projective lines.

    Stacks of lines given by their spanning points (..., 2, d) give
    (point, ranks) instead of raising: ranks (..., 3) holds the span ranks
    of the first line's points, the second line's and all four; where they
    are (2, 2, 3), point (..., d) is the normalized meet (elsewhere the first
    spanning point, normalized).  Two ProjLines give their meet, and raise
    SkewLines or IdenticalLines where their points span rank 4 or 2.
    """
    single = isinstance(l1, ProjLine)
    a, b = (np.asarray(line, dtype=float) for line in ((l1.span, l2.span) if single else (l1, l2)))
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatch(f"lines of different dimension: {a.shape} vs {b.shape}")
    pts = np.concatenate(np.broadcast_arrays(a, b), axis=-2)
    ranks = np.stack([span_rank(pts[..., :2, :]), span_rank(pts[..., 2:, :]), span_rank(pts)], axis=-1)
    point, rows = _line_meet(pts)
    meets = np.all(ranks == (2, 2, 3), axis=-1)[..., None]
    point = normalize(np.where(meets, point, rows[..., 0, :]))
    if not single:
        return point, ranks
    _raise_unless_meet(ranks)
    return point


def _raise_unless_meet(ranks):
    """Raise for the first pair of lines, in C order, of meet_lines ranks
    (..., 3) whose four spanning points do not span rank 3: SkewLines at
    rank 4, IdenticalLines at rank 2 or below."""
    raise_first_failure([
        (ranks[..., 2] >= 4, lambda k: SkewLines("lines span rank 4")),
        (ranks[..., 2] <= 2, lambda k: IdenticalLines("lines coincide")),
    ])


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
    if p.shape[-1:] != (3,):
        raise DimensionMismatch(f"expected points of R^3, got shape {p.shape}")
    n2 = np.sum(p * p, axis=-1, keepdims=True)
    lifted = np.concatenate([2 * p, n2 - 1.0, n2 + 1.0], axis=-1)
    if at_infinity is not None:
        lifted[np.asarray(at_infinity, dtype=bool)] = (0.0, 0.0, 0.0, 1.0, 1.0)
    return lifted


def moebius_drop(x):
    """Inverse of moebius_lift.

    A stack (..., 5) gives (points (..., 3), at_infinity (...)): the mask
    flags the rows that drop to oo, whose points are zero.  A single point
    (5,) gives a point of R^3 or INF.
    """
    x, norms = _nonzero_rows(x)
    if x.shape[-1] != 5:
        raise DimensionMismatch("expected coordinates in R^{4,1}")
    if not np.all(MOEBIUS._on_quadric(x)):
        raise NotOnQuadric("point is not on the Moebius quadric")
    w = x[..., 4] - x[..., 3]
    at_infinity = np.abs(w) <= _ABS_EPS * norms[..., 0]
    pts = x[..., :3] / np.where(at_infinity, 1.0, w)[..., None]
    pts[at_infinity] = 0.0
    if x.ndim == 1:
        return INF if at_infinity else pts
    return pts, at_infinity


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
