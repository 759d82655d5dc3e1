"""Conical and multi-conical plane nets.

A plane-net quadruple is conical when its planes touch a common cone or
cylinder of revolution: given pairwise distinct normals, when their Blaschke
points (n, d, |n|) span rank <= 3.  Multi-conical nets are the multi-Q-nets of
Blaschke points, parallel to spherical ones, which are polar to their Gauss maps.
"""

from __future__ import annotations

import numpy as np

from .circular import EuclidNet
from .errors import (
    DegenerateProfile,
    DimensionMismatch,
    DuplicatePoints,
    InconsistentCorner,
    NotConcurrent,
    NotMultiCircular,
    NotOnSphere,
    SingularPropagation,
    ZeroNormal,
    raise_first_failure,
    raise_unless_finite,
)
from .projective import (_ABS_EPS, INPUT_ATOL, MOEBIUS_S2, Classification, _above_rank3,
                         classify_spans, corner_minors, rect_stacks, span_rank,
                         repeated_rows, stack_coords)
from .qnets import PlaneNet, _rects_planar, _strip_laplace_vectors

_UNIT_SPHERE_TOL = 1e-9  # a point whose norm is within this of 1 lies on the unit sphere


class GaussClass:
    """Normal-form classes of multi-circular nets in S^2."""

    SYMMETRIC_STRIP = "symmetric_strip"
    REVOLUTION = "revolution"
    STEREOGRAPHIC_GRID = "stereographic_grid"
    DEGENERATE = "degenerate"


def gauss_map(pn: PlaneNet) -> EuclidNet:
    """Grid of unit normals of the planes, orientation preserved."""
    n = pn.covectors[..., :3]
    norms = np.linalg.norm(n, axis=-1)
    if np.any(norms <= _ABS_EPS):
        raise ZeroNormal("plane covector with vanishing normal part")
    return EuclidNet(n / norms[..., None])


def _blaschke_stacks(cov):
    """Blaschke points (N, 4, 5) of covector stacks (N, 4, 4), and the checks of their normals."""
    norms = np.linalg.norm(cov[..., :3], axis=-1, keepdims=True)
    zero = norms <= _ABS_EPS
    rows = np.concatenate([cov[..., :3], norms], axis=-1) / np.where(zero, 1.0, np.sqrt(2.0) * norms)
    return np.concatenate([cov, norms], axis=-1), [
        (np.any(zero[..., 0], axis=1), lambda k: ZeroNormal("plane covector with vanishing normal part")),
        (repeated_rows(rows), lambda k: DuplicatePoints("concyclicity needs pairwise distinct points")),
    ]


def is_conical_quad(planes) -> bool:
    """Four planes tangent to a common cone or cylinder of revolution, by the
    rule and the errors of _conical_violations (README *Conical nets*)."""
    cov = np.asarray(planes, dtype=float)
    if cov.shape != (4, 4):
        raise DimensionMismatch("expected four plane covectors")
    raise_unless_finite(cov, "plane covector")
    blaschke, normal_checks = _blaschke_stacks(cov[None] * (1.0, 1.0, 1.0, -1.0))  # as PlaneNet.homogeneous
    conical = not any(fails[0] for fails, _ in normal_checks) and span_rank(blaschke[0]) <= 3
    if not conical and span_rank(blaschke[0, :, :4]) > 3:
        raise NotConcurrent("the four planes have no common point")
    raise_first_failure(normal_checks)
    return conical


def _conical_violations(pn: PlaneNet, elementary: bool):
    """Rectangles failing the conical condition as (key, reason) pairs: one
    _above_rank3 mask over the Blaschke stacks, then the covector rank and
    the rank of the rows (n, |n|) on the failing ones alone, and on those
    through a vanishing or a repeated normal (README *Conical nets*)."""
    keys, cov = rect_stacks(pn.homogeneous(), elementary)  # (n, -d): the sign of d leaves every rank alone
    blaschke, normal_checks = _blaschke_stacks(cov)
    check = np.flatnonzero(np.any([_above_rank3(blaschke)] + [fails for fails, _ in normal_checks], axis=0))
    if not check.size:
        return []
    skew = _above_rank3(cov[check])
    raise_first_failure([(fails[check] & ~skew, make) for fails, make in normal_checks])
    why = np.full(check.size, "planes not concurrent", dtype=object)
    why[~skew] = np.where(_above_rank3(blaschke[check[~skew]][..., [0, 1, 2, 4]]),
                          "normals not concyclic", "planes not tangent to a common cylinder")
    return [(keys[k], reason) for k, reason in zip(check.tolist(), why.tolist())]


def conical_violations(pn: PlaneNet):
    """Elementary quads failing the conical condition, as ((i, j), reason)."""
    return [((i, j), why) for (i, _, j, _), why in _conical_violations(pn, True)]


def multi_conical_violations(pn: PlaneNet):
    """Rectangles failing the multi-conical condition, exhaustively, as
    ((i0, i1, j0, j1), reason)."""
    return _conical_violations(pn, elementary=False)


def is_multi_conical(pn: PlaneNet) -> bool:
    """True iff the planes of every coordinate rectangle touch a common cone or cylinder of revolution."""
    return not multi_conical_violations(pn)


def _sphere_rows(points, what: str) -> np.ndarray:
    """Rows (p, 1) of points p (..., 3) on the unit sphere, else NotOnSphere for what."""
    if np.any(np.abs(np.linalg.norm(points, axis=-1) - 1.0) > _UNIT_SPHERE_TOL):
        raise NotOnSphere(f"{what} must lie on the unit sphere")
    return np.concatenate([points, np.ones(points.shape[:-1] + (1,))], axis=-1)


def polarize_spherical(net: EuclidNet) -> PlaneNet:
    """Tangent planes <x, p> = 1 of a multi-circular net on the unit sphere."""
    if not net.is_finite():
        raise NotOnSphere("net has vertices at infinity")
    cov = _sphere_rows(net.points, "net vertices")
    # points of S^2 are concyclic iff their rows (p, 1) are coplanar
    if not _rects_planar(cov):
        raise NotMultiCircular("polarization requires a multi-circular net")
    return PlaneNet(cov)


def parallel_conical_net(spherical: PlaneNet, d_row, d_col) -> PlaneNet:
    """Parallel net of a spherical multi-conical net with prescribed boundary
    offsets: d_row gives column 0 (one offset per row), d_col row 0.

    Interior offsets are propagated by the concurrency condition of each
    elementary quad, which is linear in the unknown offset.
    """
    d_row = np.asarray(d_row, dtype=float)
    d_col = np.asarray(d_col, dtype=float)
    nu, nv = spherical.dims
    if d_row.shape != (nu,) or d_col.shape != (nv,):
        raise DimensionMismatch("offset boundary lengths must match net dims")
    if abs(d_row[0] - d_col[0]) > INPUT_ATOL:
        raise InconsistentCorner("d_row[0] and d_col[0] must agree at the corner")
    if not is_multi_conical(spherical):
        raise NotMultiCircular("base net must be a spherical multi-conical net")
    n = gauss_map(spherical).points
    # the concurrency determinant of a quad's planes (n, -d), expanded along
    # its offset column, is d00 m0 - d10 m1 + d01 m2 - d11 m3 with the 3x3
    # minors m of the unit normals n00, n10, n01, n11
    keys, corners = rect_stacks(n, elementary=True)
    minors = corner_minors(corners)[0][..., 0].tolist()
    d = np.empty((nu, nv))
    d[:, 0] = d_row
    d[0, :] = d_col
    for (i, _, j, _), (m0, m1, m2, m3) in zip(keys, minors):
        num = d[i, j] * m0 - d[i + 1, j] * m1 + d[i, j + 1] * m2
        if abs(m3) <= _ABS_EPS * max(1.0, abs(num)):
            raise SingularPropagation(f"degenerate quad at ({i},{j})")
        d[i + 1, j + 1] = num / m3
    return PlaneNet(np.concatenate([n, d[..., None]], axis=-1))


# -- Gauss map classification -----------------------------------------------------


# the set of the two polar-span codes (n_pos, n_neg, n_zero), in either order
_GAUSS_CLASSES = {
    frozenset({(2, 0, 0), (1, 1, 0)}): GaussClass.REVOLUTION,
    frozenset({(1, 0, 1)}): GaussClass.STEREOGRAPHIC_GRID,
}


def _gauss_class(code1, code2):
    """Class of a pair of polar-span codes: a span of dimension one or less
    marks a strip, else the set of both codes is looked up."""
    if min(sum(code1), sum(code2)) <= 1:
        return GaussClass.SYMMETRIC_STRIP
    return _GAUSS_CLASSES.get(frozenset({code1, code2}), GaussClass.DEGENERATE)


def classify_gauss(net: EuclidNet) -> Classification:
    """Normal-form class of a multi-circular net in S^2.

    Decided by the polar spans in R^{3,1}: a 1-dimensional span marks a
    symmetric strip; a (+ +)/(+ -) pairing a net of revolution; (+ 0) on
    both sides the inverse stereographic image of an orthogonal grid.
    """
    if not net.is_finite():
        raise NotOnSphere("net has vertices at infinity")
    rows = _sphere_rows(net.points, "net vertices")  # the rows polarize_spherical reads
    if not _rects_planar(rows):
        raise NotMultiCircular("classification requires a multi-circular net")
    return classify_spans(MOEBIUS_S2, _strip_laplace_vectors(rows), _gauss_class)


# -- S^2 samplers -------------------------------------------------------------------


def sample_s2_rotational(colatitudes, longitudes) -> EuclidNet:
    """Latitude/longitude grid on the unit sphere; dims (lon, lat)."""
    th = np.atleast_1d(np.asarray(colatitudes, dtype=float))
    ph = np.atleast_1d(np.asarray(longitudes, dtype=float))
    if th.shape[0] < 2 or ph.shape[0] < 2:
        raise DegenerateProfile("need at least a 2x2 grid")
    sin_th = np.sin(th)
    if np.any(sin_th <= INPUT_ATOL):
        raise DegenerateProfile("colatitudes must avoid the poles")
    # (sin th cos ph, sin th sin ph, cos th) as (sin th, sin th, cos th) times (cos ph, sin ph, 1)
    meridian = np.stack([sin_th, sin_th, np.cos(th)], axis=-1)
    turns = np.stack([np.cos(ph), np.sin(ph), np.ones_like(ph)], axis=-1)
    return EuclidNet(meridian * turns[:, None])


def sample_s2_stereographic(us, vs) -> EuclidNet:
    """Inverse stereographic image (from the north pole) of the orthogonal
    grid {u_i} x {v_j} in the plane."""
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    if us.shape[0] < 2 or vs.shape[0] < 2:
        raise DegenerateProfile("need at least a 2x2 grid")
    u, v = us[:, None], vs
    s = u * u + v * v + 1.0
    return EuclidNet(stack_coords(2 * u / s, 2 * v / s, (u * u + v * v - 1.0) / s))


def sample_s2_symmetric_strip(upper_points) -> EuclidNet:
    """Two-row net mirrored in the equator plane z = 0."""
    p = np.atleast_2d(np.asarray(upper_points, dtype=float))
    if p.shape[0] < 2:
        raise DegenerateProfile("need at least two strip points")
    _sphere_rows(p, "strip points")
    if np.any(np.abs(p[:, 2]) <= INPUT_ATOL):
        raise DegenerateProfile("strip points must avoid the equator")
    mirrored = p.copy()
    mirrored[:, 2] *= -1.0
    return EuclidNet(np.stack([p, mirrored], axis=1))
