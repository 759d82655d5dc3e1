"""Conical and multi-conical plane nets.

A plane-net quadruple is conical when its planes are concurrent and tangent
to a common cone of revolution, equivalently when its unit normals are
concyclic on S^2.  Multi-conical nets are exactly the multi-Q*-nets whose
Gauss map is multi-circular in S^2; they are parallel to spherical
multi-conical nets, which are polar to their Gauss maps.
"""

from __future__ import annotations

import numpy as np

from .circular import (
    Classification,
    EuclidNet,
    _span_signature,
    is_concyclic,
    is_multi_circular,
    lift_net,
)
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
)
from .projective import MOEBIUS_S2, rank_violations, rect_stacks, span_rank
from .qnets import PlaneNet, PointNet, translation_gauge


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
    if np.any(norms <= 1e-13):
        raise ZeroNormal("plane covector with vanishing normal part")
    return EuclidNet(n / norms[..., None])


def is_conical_quad(planes) -> bool:
    """Four concurrent planes tangent to a common cone of revolution,
    i.e. their unit normals are concyclic on S^2."""
    cov = np.asarray(planes, dtype=float)
    if cov.shape != (4, 4):
        raise DimensionMismatch("expected four plane covectors")
    h = cov.copy()
    h[:, 3] *= -1.0
    if span_rank(h) > 3:
        raise NotConcurrent("the four planes have no common point")
    n = cov[:, :3]
    norms = np.linalg.norm(n, axis=-1)
    if np.any(norms <= 1e-13):
        raise ZeroNormal("plane covector with vanishing normal part")
    n = n / norms[:, None]
    return is_concyclic(n[0], n[1], n[2], n[3])


# corner pairs of a 4-point stack, for the pairwise-distinct check
_CORNER_PAIRS = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def _conical_violations(pn: PlaneNet, elementary: bool):
    """Rectangles failing the conical condition as (key, reason) pairs.

    Concurrency is span rank <= 3 of the homogeneous covectors; on the
    concurrent rectangles, concyclicity of the unit normals is span rank
    <= 3 of their Moebius lifts.  Like is_conical_quad, the first concurrent
    rectangle with a vanishing or a repeated normal raises.
    """
    keys, planes = rect_stacks(pn.homogeneous(), elementary)
    reasons = {k: "planes not concurrent" for k, _ in rank_violations(keys, planes, 3)}
    concurrent = np.array([k not in reasons for k in keys], dtype=bool)
    normals = pn.covectors[..., :3]
    norms = np.linalg.norm(normals, axis=-1)
    zero = norms <= 1e-13
    unit = normals / np.where(zero, 1.0, norms)[..., None]
    _, lifts = rect_stacks(lift_net(EuclidNet(unit)).points, elementary)
    _, zero_corners = rect_stacks(zero, elementary)
    pairs = lifts[:, _CORNER_PAIRS].reshape(-1, 2, lifts.shape[-1])
    repeated = (span_rank(pairs) < 2).reshape(len(keys), len(_CORNER_PAIRS)).any(axis=1)
    vanishing = zero_corners.any(axis=1)
    degenerate = np.flatnonzero(concurrent & (vanishing | repeated))
    if degenerate.size and vanishing[degenerate[0]]:
        raise ZeroNormal("plane covector with vanishing normal part")
    if degenerate.size:
        raise DuplicatePoints("concyclicity needs pairwise distinct points")
    idx = np.flatnonzero(concurrent)
    for k, _ in rank_violations([keys[i] for i in idx], lifts[idx], 3):
        reasons[k] = "normals not concyclic"
    return [(k, reasons[k]) for k in keys if k in reasons]


def conical_violations(pn: PlaneNet):
    """Elementary quads failing the conical condition, as ((i, j), reason)."""
    return [((i, j), why) for (i, _, j, _), why in _conical_violations(pn, True)]


def multi_conical_violations(pn: PlaneNet):
    """Rectangles failing the multi-conical condition, exhaustively, as
    ((i0, i1, j0, j1), reason)."""
    return _conical_violations(pn, elementary=False)


def is_multi_conical(pn: PlaneNet) -> bool:
    """True iff every coordinate rectangle of planes is concurrent with
    concyclic unit normals (equivalently: multi-Q* with a multi-circular
    Gauss map)."""
    return not multi_conical_violations(pn)


def polarize_spherical(net: EuclidNet) -> PlaneNet:
    """Tangent planes <x, p> = 1 of a multi-circular net on the unit sphere."""
    if not net.is_finite():
        raise NotOnSphere("net has vertices at infinity")
    p = net.points
    if np.any(np.abs(np.linalg.norm(p, axis=-1) - 1.0) > 1e-9):
        raise NotOnSphere("net vertices must lie on the unit sphere")
    if not is_multi_circular(net):
        raise NotMultiCircular("polarization requires a multi-circular net")
    cov = np.concatenate([p, np.ones(p.shape[:2] + (1,))], axis=-1)
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
    if abs(d_row[0] - d_col[0]) > 1e-12:
        raise InconsistentCorner("d_row[0] and d_col[0] must agree at the corner")
    if not is_multi_conical(spherical):
        raise NotMultiCircular("base net must be a spherical multi-conical net")
    n = spherical.covectors[..., :3]
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    d = np.empty((nu, nv))
    d[:, 0] = d_row
    d[0, :] = d_col
    for i in range(nu - 1):
        for j in range(nv - 1):
            rows = np.empty((4, 4))
            rows[0, :3], rows[0, 3] = n[i, j], -d[i, j]
            rows[1, :3], rows[1, 3] = n[i + 1, j], -d[i + 1, j]
            rows[2, :3], rows[2, 3] = n[i, j + 1], -d[i, j + 1]
            rows[3, :3] = n[i + 1, j + 1]
            rows[3, 3] = 0.0
            f0 = np.linalg.det(rows)
            rows[3, 3] = -1.0
            f1 = np.linalg.det(rows)
            coeff = f1 - f0
            if abs(coeff) <= 1e-13 * max(1.0, abs(f0)):
                raise SingularPropagation(f"degenerate quad at ({i},{j})")
            d[i + 1, j + 1] = -f0 / coeff
    cov = np.concatenate([n, d[..., None]], axis=-1)
    return PlaneNet(cov)


# -- Gauss map classification -----------------------------------------------------


def s2_lift_net(net: EuclidNet) -> PointNet:
    """Lift a net on the unit sphere into the quadric of R^{3,1}: p -> (p, 1)."""
    if not net.is_finite():
        raise NotOnSphere("net has vertices at infinity")
    p = net.points
    if np.any(np.abs(np.linalg.norm(p, axis=-1) - 1.0) > 1e-9):
        raise NotOnSphere("net vertices must lie on the unit sphere")
    lifted = np.concatenate([p, np.ones(p.shape[:2] + (1,))], axis=-1)
    return PointNet(lifted / np.linalg.norm(lifted, axis=-1, keepdims=True), ambient="R31")


def classify_gauss(net: EuclidNet) -> Classification:
    """Normal-form class of a multi-circular net in S^2.

    Decided by the polar spans in R^{3,1}: a 1-dimensional span marks a
    symmetric strip; a (+ +)/(+ -) pairing a net of revolution; (+ 0) on
    both sides the inverse stereographic image of an orthogonal grid.
    """
    if not is_multi_circular(net):
        raise NotMultiCircular("classification requires a multi-circular net")
    lifted = s2_lift_net(net)
    _, y1, y2 = translation_gauge(lifted)
    sig1 = _span_signature(y1, MOEBIUS_S2)
    sig2 = _span_signature(y2, MOEBIUS_S2)
    dims = (sig1[0], sig2[0])
    eigs = (sig1[1], sig2[1])
    if min(dims) <= 1:
        return Classification(GaussClass.SYMMETRIC_STRIP, dims, eigs)

    def code(sig):
        _, _, p, n, z = sig
        return (p, n, z)

    codes = {code(sig1), code(sig2)}
    if codes == {(2, 0, 0), (1, 1, 0)}:
        return Classification(GaussClass.REVOLUTION, dims, eigs)
    if codes == {(1, 0, 1)}:
        return Classification(GaussClass.STEREOGRAPHIC_GRID, dims, eigs)
    return Classification(GaussClass.DEGENERATE, dims, eigs)


# -- S^2 samplers -------------------------------------------------------------------


def sample_s2_rotational(colatitudes, longitudes) -> EuclidNet:
    """Latitude/longitude grid on the unit sphere; dims (lon, lat)."""
    th = np.asarray(colatitudes, dtype=float)
    ph = np.asarray(longitudes, dtype=float)
    if th.shape[0] < 2 or ph.shape[0] < 2:
        raise DegenerateProfile("need at least a 2x2 grid")
    if np.any(np.sin(th) <= 1e-12):
        raise DegenerateProfile("colatitudes must avoid the poles")
    pts = np.empty((len(ph), len(th), 3))
    for i, p in enumerate(ph):
        pts[i, :, 0] = np.sin(th) * np.cos(p)
        pts[i, :, 1] = np.sin(th) * np.sin(p)
        pts[i, :, 2] = np.cos(th)
    return EuclidNet(pts)


def sample_s2_stereographic(us, vs) -> EuclidNet:
    """Inverse stereographic image (from the north pole) of the orthogonal
    grid {u_i} x {v_j} in the plane."""
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if us.shape[0] < 2 or vs.shape[0] < 2:
        raise DegenerateProfile("need at least a 2x2 grid")
    pts = np.empty((len(us), len(vs), 3))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            s = u * u + v * v + 1.0
            pts[i, j] = (2 * u / s, 2 * v / s, (u * u + v * v - 1.0) / s)
    return EuclidNet(pts)


def sample_s2_symmetric_strip(upper_points) -> EuclidNet:
    """Two-row net mirrored in the equator plane z = 0."""
    p = np.atleast_2d(np.asarray(upper_points, dtype=float))
    if p.shape[0] < 2:
        raise DegenerateProfile("need at least two strip points")
    if np.any(np.abs(np.linalg.norm(p, axis=-1) - 1.0) > 1e-9):
        raise NotOnSphere("strip points must lie on the unit sphere")
    if np.any(np.abs(p[:, 2]) <= 1e-12):
        raise DegenerateProfile("strip points must avoid the equator")
    mirrored = p.copy()
    mirrored[:, 2] *= -1.0
    return EuclidNet(np.stack([p, mirrored], axis=1))
