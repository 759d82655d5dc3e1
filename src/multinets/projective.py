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

import functools
import itertools
import math
from dataclasses import dataclass, field

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

# The thresholds that more than one module decides by; README *Tolerances* lists every one.
RANK_RTOL = 1e-9  # singular value sigma_k counts iff sigma_k > RANK_RTOL * sigma_1 (_kept)
QUADRIC_RTOL = 1e-9  # on the quadric: |<x,x>| <= it |x|^2; orthogonal: |<x,y>| <= it |x| |y|
EIG_ZERO_RTOL = 1e-7  # eigenvalue of a restricted form is zero at this fraction of the largest
_ABS_EPS = 1e-13  # a coordinate vector of norm at most this is the zero vector
ZERO_RTOL = 1e-12  # a sum, difference or coefficient vanishes at this times the size of its terms
INPUT_ATOL = 1e-12  # a radius, length, sine or offset gap handed to a sampler is zero up to this
MATCH_TOL = 1e-8  # points that must coincide match to a sine, or a relative distance, of this
REPRODUCE_TOL = 1e-7  # a construction reproduces the data it was built from to this
_HUGE = 1e150  # a row with an entry beyond this takes its norm scaled (_row_norms)


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


def _row_norms(v):
    """Row norms (..., 1) of a float stack (..., d).  A finite row with an entry
    beyond _HUGE, whose square would overflow, is scaled by its largest entry
    first; a non-finite row takes that entry (inf, or NaN) unsquared; every
    other row keeps its plain norm bit for bit."""
    # one pass: vdot overflows to inf without a warning, and NaN fails too;
    # the plain norm is np.linalg.norm's own sum, without its argument checks
    if np.vdot(v, v) <= _HUGE * _HUGE:
        return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    big = np.max(abs(v), axis=-1, keepdims=True)
    finite = big < np.inf
    scale = np.where(finite & (big > _HUGE), big, 1.0)
    return np.where(finite, np.linalg.norm(np.where(finite, v / scale, 0.0), axis=-1, keepdims=True) * scale, big)


def _nonzero_rows(points):
    """A stack of points (..., d) as floats, with its row norms (..., 1).

    A single point is a stack of one.  A 0-d input raises DimensionMismatch
    and a vanishing row ZeroVector.
    """
    v = np.asarray(points, dtype=float)
    if v.ndim == 0:
        raise DimensionMismatch(f"expected coordinate vectors, got shape {v.shape}")
    norms = _row_norms(v)
    if (norms <= _ABS_EPS).any():
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
    c = np.add.reduce(uu * vv, axis=-1, keepdims=True)
    w = vv - c * uu
    return np.sqrt(np.add.reduce(w * w, axis=-1))  # the plain norm of _row_norms: w is at most a unit row


def proj_equal(u, v) -> bool:
    """Projective equality: the sine of the angle is at most RANK_RTOL."""
    return proj_distance(u, v) <= RANK_RTOL


def normalized_rows(points) -> np.ndarray:
    """Stack points as rows, each scaled to unit Euclidean norm."""
    m, norms = _nonzero_rows(np.atleast_2d(points))
    return m / norms


def stack_coords(*coords) -> np.ndarray:
    """Stack of points (..., k) from k coordinate arrays that broadcast;
    scalar coordinates give one point (k,)."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1)


def row_dot(x, y):
    """Dot products row by row of stacks (..., d) that broadcast, each summed
    as np.dot sums one pair (np.sum(x * y, axis=-1) differs in the last bit)."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _kept(s):
    """The rank rule: which singular values s (..., k), sorted largest first, count."""
    return s > RANK_RTOL * s[..., :1]


def span_svd(points, compute_uv=True):
    """(s, vh, kept) of the row-normalized stack points (..., k, d): singular
    values, right singular vectors (None without compute_uv) and _kept(s)."""
    out = np.linalg.svd(normalized_rows(points), full_matrices=False, compute_uv=compute_uv)
    s, vh = out[1:] if compute_uv else (out, None)
    return s, vh, _kept(s)


def span_rank(points):
    """Numerical rank of the span of the given homogeneous points.

    Rows are normalized first, so the verdict is scaling invariant;
    coplanarity of four points in RP^3 is span_rank <= 3.  A stack of
    point sets (..., k, d) gives an array of ranks; an empty stack gives an
    empty one at once, without normalizing rows or calling the SVD.
    """
    points = np.asarray(points, dtype=float)
    if 0 in points.shape[:-2]:
        return np.zeros(points.shape[:-2], dtype=int)
    ranks = np.sum(span_svd(points, compute_uv=False)[2], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def span_ranks(stacks) -> np.ndarray:
    """Batched span_rank over an array of shape (N, k, d).

    Nothing in the package calls it; it stays while the benchmark's tracer
    (perfbench/tracing.py LAYERS) and its tests look the name up.
    """
    return span_rank(stacks)


# -- rectangle kernel ----------------------------------------------------------


def _read_only(*arrays):
    """The given arrays, each marked read-only, as a tuple."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=16)
def index_pairs(n: int):
    """Index pairs i0 < i1 of range(n) in lexicographic order, as the two
    read-only arrays of np.triu_indices(n, 1); memoized per n."""
    return _read_only(*np.triu_indices(n, 1))


@functools.lru_cache(maxsize=16)
def rect_indices(nu: int, nv: int, elementary: bool):
    """Grid indices of the corners of the coordinate rectangles of an
    (nu, nv) grid.

    Returns row and column index arrays (N, 4), one row per rectangle with
    its key (i0, i1, j0, j1) in lexicographic order, for the corners
    (i0,j0), (i1,j0), (i0,j1), (i1,j1).  With elementary=True only the quads
    with i1 = i0 + 1, j1 = j0 + 1 are taken.  The arrays are read-only and
    memoized per (nu, nv, elementary).
    """
    if elementary:
        i0, j0 = np.arange(nu - 1), np.arange(nv - 1)
        i1, j1 = i0 + 1, j0 + 1
    else:
        i0, i1 = index_pairs(nu)
        j0, j1 = index_pairs(nv)
    a0, a1 = np.repeat(i0, len(j0)), np.repeat(i1, len(j0))
    b0, b1 = np.tile(j0, len(i0)), np.tile(j1, len(i0))
    return _read_only(np.stack([a0, a1, a0, a1], axis=1), np.stack([b0, b0, b1, b1], axis=1))


def rect_stacks(grid, elementary: bool):
    """Corner stacks of the coordinate rectangles of a grid (nu, nv, ...).

    Returns the keys (i0, i1, j0, j1) in the order of rect_indices and an
    array (N, 4, ...) of the corners (i0,j0), (i1,j0), (i0,j1), (i1,j1).
    """
    g = np.asarray(grid)
    rows, cols = rect_indices(*g.shape[:2], elementary)
    keys = list(zip(*(idx.tolist() for idx in (rows[:, 0], rows[:, 1], cols[:, 0], cols[:, 2]))))
    return keys, g[rows, cols]


def rank_violations(keys, stacks):
    """Four-point stacks (N, 4, d) of span rank above 3, as (key, residual) pairs.

    _above_rank3 decides each stack; the residual sigma_min / sigma_max of
    a violator comes from the SVD it would get in a full batch, so the
    listing is that of the SVD rule.
    """
    stacks = np.asarray(stacks, dtype=float)
    check = np.flatnonzero(_above_rank3(stacks))
    if not check.size:
        return []
    s = span_svd(stacks[check], compute_uv=False)[0]
    return [(keys[k], float(s[n, -1] / s[n, 0])) for n, k in enumerate(check)]


# -- corner minors of four-point stacks ------------------------------------------

# The triple of W_t leaves out corner t of a stack (x00, x10, x01, x11) and
# expands along its first row, _TRIPLE_FIRST[t], against the 2x2 minors of
# its other two rows, the row pair _PAIR_ROWS[_TRIPLE_PAIR[t]].
_PAIR_ROWS = ((2, 3), (1, 3), (1, 2))
_TRIPLE_FIRST = (1, 0, 0, 0)
_TRIPLE_PAIR = (0, 0, 1, 2)


@functools.lru_cache(maxsize=8)
def _minor_tables(d: int):
    """Gather indices of corner_minors for stacks (N, 4, d), memoized per d.

    Each table indexes a flattened operand, so that every factor of every
    expansion is taken in one gather; the columns run over the sorted pairs
    j < k, triples i < j < k and quadruples c1 < c2 < c3 < c4 of range(d).
    pair (4, 3, C(d,2)) indexes the rows (4 d) for the factors s_j, t_k,
    s_k, t_j of the 2x2 minors s_j t_k - s_k t_j of the row pairs
    _PAIR_ROWS.  tri_rows and tri_pairs (3, 4, C(d,3)) index the rows and
    those minors (3 C(d,2)) for the terms a_i P_jk, a_j P_ik, a_k P_ij of
    W_t.  quad_rows and quad_tris (4, C(d,4)) index the rows and the 3x3
    minors (4 C(d,3)) for the terms a_cm W_3(columns without cm) of each
    4x4 minor, expanded along the last row.  The arrays are read-only.
    """
    pairs = list(itertools.combinations(range(d), 2))
    triples = list(itertools.combinations(range(d), 3))
    quads = list(itertools.combinations(range(d), 4))
    pair_at = {cols: n for n, cols in enumerate(pairs)}
    triple_at = {cols: n for n, cols in enumerate(triples)}

    def drop(cols, m):
        return cols[:m] + cols[m + 1:]

    tables = (
        [
            [[rows[side] * d + cols[at] for cols in pairs] for rows in _PAIR_ROWS]
            for side, at in ((0, 0), (1, 1), (0, 1), (1, 0))
        ],
        [[[_TRIPLE_FIRST[t] * d + cols[m] for cols in triples] for t in range(4)] for m in range(3)],
        [
            [[_TRIPLE_PAIR[t] * len(pairs) + pair_at[drop(cols, m)] for cols in triples] for t in range(4)]
            for m in range(3)
        ],
        [[3 * d + cols[m] for cols in quads] for m in range(4)],
        [[3 * len(triples) + triple_at[drop(cols, m)] for cols in quads] for m in range(4)],
    )
    return _read_only(*(np.array(table, dtype=np.intp) for table in tables))


def corner_minors(stacks):
    """Minors of the row-normalized stacks (N, 4, d) of four points.

    Returns w (N, 4, C(d,3)), v3 (N, 4) and v4 (N,).  w[:, t] holds the 3x3
    minors, over the column triples in sorted order, of the three unit rows
    other than row t, in their order; v3[:, t] is their root sum of squares,
    by Cauchy-Binet the volume sigma_1 sigma_2 sigma_3 of that triple.  v4 is
    the root sum of squares of the 4x4 minors, each expanded along the last
    row against w[:, 3]: the volume sigma_1 ... sigma_4 of the stack.  A
    vanishing row raises ZeroVector.  The index tables are built on the
    first call for each d.
    """
    a = normalized_rows(stacks)
    n, d = len(a), a.shape[-1]
    pair, tri_rows, tri_pairs, quad_rows, quad_tris = _minor_tables(d)
    rows = a.reshape(n, 4 * d)
    # summed term by term in place: one term's factors and product are the
    # largest temporaries, which keeps the peak memory of the SVD route
    p = rows[:, pair[0]] * rows[:, pair[1]]
    p -= rows[:, pair[2]] * rows[:, pair[3]]
    p = p.reshape(n, pair[0].size)
    w = rows[:, tri_rows[0]] * p[:, tri_pairs[0]]
    w -= rows[:, tri_rows[1]] * p[:, tri_pairs[1]]
    w += rows[:, tri_rows[2]] * p[:, tri_pairs[2]]
    # in C order each stack's minors sum in one order, whatever else is in the batch
    w = np.ascontiguousarray(w)
    f = rows[:, quad_rows] * w.reshape(n, tri_rows[0].size)[:, quad_tris]
    m4 = f[:, 1] - f[:, 0] + f[:, 3] - f[:, 2]
    return w, np.sqrt(np.einsum("ntk,ntk->nt", w, w)), np.sqrt(np.einsum("nk,nk->n", m4, m4))


def _minor_rounding(d: int) -> float:
    """The bound e on the rounding of v3 and v4 of corner_minors for d columns.

    With u = 2^-53 and unit rows, whose computed entries are at most 1 + u:
    a 2x2 minor is off by at most 2 gamma_2 (gamma_n = n u / (1 - n u)); a
    3x3 minor, three products with those minors, by 6 gamma_2 + 6 gamma_3 +
    O(u^2) < 32 u; a 4x4 minor, four products of the last row (whose entries
    sum to at most 2 in absolute value) with 3x3 minors of size at most 1 (by
    Hadamard), by 2 * 32 u + 2 gamma_4 < 73 u.  A root sum of squares of n
    such minors is off by the norm of their errors, at most n times the
    bound, plus (n + 2) u for its own rounding, as the volumes are at most
    1.  So e = 128 u (C(d,3) + C(d,4)) bounds both; e = 0 for d < 3, where
    no minor exists and both volumes are exactly 0.
    """
    return 128 * 2.0**-53 * (math.comb(d, 3) + math.comb(d, 4))


def _rank4_certificate(v3, v4, d: int):
    """Masks (planar, skew) of the stacks (N, 4, d) whose corner_minors
    volumes v3, v4 prove the SVD rule's verdict: span rank <= 3 and span
    rank 4 under span_rank.

    The bound.  For unit rows, sigma_1 >= 1 (a row) and sigma_1 <= 2 (the
    Frobenius norm), and by interlacing each triple has v3 <= sigma_1
    sigma_2 sigma_3.  So v4 / max v3 >= sigma_4 >= sigma_4 / sigma_1, and
    sigma_4 / sigma_1 = v4 / (sigma_1^2 sigma_2 sigma_3) >= v4 / 16.  With
    the rounding bound e of _minor_rounding, a stack is planar when
    (v4 + e) / (max v3 - e) <= RANK_RTOL / 2 and skew when
    (v4 - e) / 16 > 2 RANK_RTOL (the first written without a division, so
    that max v3 <= e proves nothing).  The factor 2 on either side absorbs
    the rounding of the row normalization and of the backward-stable SVD,
    which move sigma_4 / sigma_1 by a small multiple of u, orders of magnitude
    below RANK_RTOL / 2.  Stacks in neither mask need the SVD.
    """
    e = _minor_rounding(d)
    planar = v4 + e <= 0.5 * RANK_RTOL * (np.max(v3, axis=-1) - e)
    return planar, v4 - e > 32.0 * RANK_RTOL


def _above_rank3(stacks, v3=None, v4=None):
    """span_rank(stacks) > 3 for stacks (N, 4, d) with corner_minors volumes
    v3, v4 (computed here unless given): the verdicts of _rank4_certificate,
    and span_rank for the stacks it leaves open."""
    if v3 is None:
        _, v3, v4 = corner_minors(stacks)
    planar, skew = _rank4_certificate(v3, v4, stacks.shape[-1])
    open_ = ~(planar | skew)
    skew[open_] = span_rank(stacks[open_]) > 3
    return skew


def intersect_spans(a, b):
    """Intersection of the spans of row matrices a (..., ka, d) and b (..., kb, d).

    Returns (vector, dim): dim (...) is the dimension of each intersection,
    the null count of [qa, -qb] for orthonormal bases qa, qb of the spans;
    where dim is 1, vector (..., d) is a unit vector spanning it (elsewhere
    the first basis row of a).  A basis row that a rank-deficient span drops
    is zeroed; it adds one zero singular value, which the count discounts.

    Nothing in the package calls it; like span_ranks, it stays while the
    benchmark's tracer (perfbench/tracing.py LAYERS) and its tests look the
    name up.
    """
    _, qa, keep_a = span_svd(a)
    _, qb, keep_b = span_svd(b)
    qa = qa * keep_a[..., None]
    qb = qb * keep_b[..., None]
    m = np.swapaxes(np.concatenate([qa, -qb], axis=-2), -1, -2)
    _, s, vh = np.linalg.svd(m)
    pad = np.zeros(s.shape[:-1] + (m.shape[-1] - s.shape[-1],))
    null = ~_kept(np.concatenate([s, pad], axis=-1))
    dim = np.sum(null, axis=-1) - np.sum(~keep_a, axis=-1) - np.sum(~keep_b, axis=-1)
    # every null row maps into the intersection (dropped columns map to 0);
    # for dim 1 the longest image spans it
    images = (vh[..., : qa.shape[-2]] * null[..., None]) @ qa
    longest = np.argmax(np.linalg.norm(images, axis=-1), axis=-1)
    vector = np.take_along_axis(images, longest[..., None, None], axis=-2)[..., 0, :]
    vector = np.where((dim == 1)[..., None], vector, qa[..., 0, :])
    return vector / np.linalg.norm(vector, axis=-1, keepdims=True), dim


def _pair_span(a, b):
    """The rank rule on pairs of unit rows a, b (..., d), without an SVD.

    Returns (w, sine, two): w = b - c a is the part of b orthogonal to a
    (c = <a, b>), sine = |w| (..., 1), and two (..., 1) flags the pairs of
    span rank 2.  The Gram matrix of two unit rows has the eigenvalues
    1 +- |c|, so sigma_2 / sigma_1 = sine / (1 + |c|), and two is _kept of
    the pair.
    """
    c = np.add.reduce(a * b, axis=-1, keepdims=True)
    w = b - c * a
    sine = _row_norms(w)
    return w, sine, sine > RANK_RTOL * (1.0 + np.abs(c))


def repeated_rows(stacks):
    """Which stacks (N, k, d) of unit rows hold two rows of span rank 1,
    by _pair_span on every pair: the rank rule without an SVD."""
    i, j = index_pairs(stacks.shape[-2])
    return ~np.all(_pair_span(stacks[:, i], stacks[:, j])[2], axis=(1, 2))


def common_point_of_spans(spans, min_rank: int = 1):
    """Vector closest to lying on every given line, with linear residuals.

    spans (..., n, 2, d) holds n lines per batch entry, each spanned by two
    points (rank 1 where span_rank finds them equal); spans of rank below
    min_rank are left out.  Returns (vector, resid, resid_second): the unit
    vector with the least root sum of squared sines to the counted spans,
    that root sum, which certifies a common point when <= RANK_RTOL, and the
    one of the best orthogonal direction, which flags a non-unique point.
    All three come from one SVD of C, the complement projectors I - B^T B
    of the counted spans stacked as rows (B an orthonormal basis of a span):
    |C v|^2 is the sum of squared sines for a unit v, so the last right
    singular vector is the best direction and the last two singular values
    are the two root sums, each accurate to rounding.
    """
    a, b = np.moveaxis(normalized_rows(spans), -2, 0)
    w, sine, line = _pair_span(a, b)
    counted = (1 + line >= min_rank)[..., None]
    basis = np.stack([a, np.where(line, w, 0.0) / np.where(line, sine, 1.0)], axis=-2)
    comp = (np.eye(a.shape[-1]) - np.swapaxes(basis, -1, -2) @ basis) * counted
    _, s, vt = np.linalg.svd(comp.reshape(*comp.shape[:-3], -1, comp.shape[-1]), full_matrices=False)
    return vt[..., -1, :], s[..., -1], s[..., -2]


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

    def on_quadric(self, x):
        """|<x, x>| <= QUADRIC_RTOL |x|^2 row by row."""
        x, _ = self._rows(x)
        return self._on_quadric(x)

    def orthogonal(self, x, y):
        """|<x, y>| <= QUADRIC_RTOL |x| |y| row by row, the polarized on_quadric."""
        x, y = self._rows(x, y)
        scale = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
        return np.abs(self._apply(x, y)) <= QUADRIC_RTOL * scale

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

    def _on_quadric(self, x):
        """on_quadric on a stack that _rows has validated."""
        return np.abs(self._apply(x, x)) <= QUADRIC_RTOL * np.sum(x * x, axis=-1)


MOEBIUS = QuadricForm((1, 1, 1, 1, -1))      # R^{4,1}, models R^3 u {oo}
MOEBIUS_S2 = QuadricForm((1, 1, 1, -1))      # R^{3,1}, models S^2
LIE = QuadricForm((1, 1, 1, 1, -1, -1))      # R^{4,2}, oriented spheres
PLUECKER = QuadricForm((1, 1, 1, -1, -1, -1))  # R^{3,3}, lines of RP^3


def bilinear_eval(q: QuadricForm, x, y) -> float:
    """Evaluate the diagonal form: sum_k signature_k * x_k * y_k."""
    return q.eval(x, y)


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


def classify_spans(form: QuadricForm, families, decide) -> Classification:
    """Classify two point families by the signature of the form restricted
    to the span of each.

    A family (k, d) is row-normalized; its span has the dimension r given by
    RANK_RTOL and, from the SVD, an orthonormal basis on which the form has r
    eigenvalues, counted as zero by EIG_ZERO_RTOL.  decide maps the two codes
    (n_pos, n_neg, n_zero), each summing to its span's dimension, to the kind.
    """
    dims, eigs, codes = [], [], []
    for vectors in families:
        _, vh, kept = span_svd(vectors)
        basis = vh[: int(np.sum(kept))]
        eig = np.linalg.eigvalsh(basis @ np.diag(form.diagonal) @ basis.T)
        zero = EIG_ZERO_RTOL * np.max(np.abs(eig))
        dims.append(len(basis))
        eigs.append(eig)
        signs = (eig > zero, eig < -zero, np.abs(eig) <= zero)
        codes.append(tuple(int(np.sum(mask)) for mask in signs))
    return Classification(decide(*codes), tuple(dims), tuple(eigs))


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


def _orbit(q: QuadricForm, mirrors, x):
    """Successive _reflect images (..., F+1, K, d) of points x (..., K, d)
    in mirrors (..., F, d): image 0 is x, image f+1 is image f reflected in
    mirror f.  Unchecked, as _reflect."""
    images = [x]
    for f in range(mirrors.shape[-2]):
        images.append(_reflect(q, mirrors[..., f, None, :], images[-1]))
    return np.stack(images, axis=-3)


# -- projective lines --------------------------------------------------------


@dataclass(frozen=True)
class ProjLine:
    """Projective line spanned by two distinct points, stored read-only."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a, b = hpoint(np.array(self.a, dtype=float)), hpoint(np.array(self.b, dtype=float))
        if a.shape != b.shape:
            raise DimensionMismatch("spanning points of different dimension")
        if not _pair_span(*normalized_rows([a, b]))[2][0]:
            raise IdenticalLines("spanning points are projectively equal")
        object.__setattr__(self, "a", *_read_only(a))
        object.__setattr__(self, "b", *_read_only(b))

    @property
    def span(self) -> np.ndarray:
        return np.stack([self.a, self.b])

    def contains(self, p) -> bool:
        return span_rank([self.a, self.b, hpoint(p)]) <= 2


def meet_lines(l1, l2):
    """Intersection point of two coplanar, distinct projective lines.

    Stacks of lines given by their spanning points (..., 2, d) give
    (point, ranks) instead of raising: ranks (..., 3) holds the span ranks
    of the first line's points, the second line's (_pair_span) and all four
    (the meet's SVD); where they are (2, 2, 3), point (..., d) is the
    normalized meet, elsewhere the first spanning point.  Two ProjLines give
    their meet, and raise SkewLines or IdenticalLines at rank 4 or 2.
    """
    single = isinstance(l1, ProjLine)
    a, b = (np.asarray(line, dtype=float) for line in ((l1.span, l2.span) if single else (l1, l2)))
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatch(f"lines of different dimension: {a.shape} vs {b.shape}")
    pts = np.concatenate(np.broadcast_arrays(a, b), axis=-2)
    point, rows, s = _line_meet(pts)
    two = _pair_span(rows[..., ::2, :], rows[..., 1::2, :])[2][..., 0]
    ranks = np.concatenate([1 + two, np.sum(_kept(s), axis=-1, keepdims=True)], axis=-1)
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
    """Unnormalized meet of the lines pts[..., :2, :] and pts[..., 2:, :]
    from the SVD of the normalized points, those points and their singular values."""
    rows = normalized_rows(pts)
    m = np.swapaxes(rows, -1, -2) * np.array([1.0, 1.0, -1.0, -1.0])
    _, s, vh = np.linalg.svd(m)
    return vh[..., -1, :1] * rows[..., 0, :] + vh[..., -1, 1:2] * rows[..., 1, :], rows, s


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
    if abs(w) <= ZERO_RTOL * np.linalg.norm(s):
        n = s[:3]
        scale = np.linalg.norm(n)
        return "plane", n / scale, float(s[3] / scale)
    c = s[:3] / w
    r = np.sqrt(ss) / abs(w)
    return "sphere", c, float(r)
