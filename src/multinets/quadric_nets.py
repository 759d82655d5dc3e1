"""Projective translation nets constrained to a quadric.

A multi-Q-net all of whose vertices lie on a quadric has Laplace transforms
in polar subspaces: <p_{i+1} - p_i, q_{j+1} - q_j> = 0.  Conversely, two
polygons of mutually orthogonal mirror points generate such a net from a
seed on the quadric by commuting polar reflections.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateOrbit,
    DimensionMismatch,
    IsotropicMirror,
    MirrorsNotOrthogonal,
    NonFiniteCoordinate,
    NotOnQuadric,
    SeedNotOnQuadric,
    ZeroVector,
)
from .projective import _ABS_EPS, MATCH_TOL, ZERO_RTOL, QuadricForm, _nonzero_rows, _reflect, proj_distance
from .qnets import PointNet, translation_gauge

_AMBIENT_BY_FORM = {
    (1, 1, 1, 1, -1): "R41",
    (1, 1, 1, -1): "R31",
    (1, 1, 1, 1, -1, -1): "R42",
    (1, 1, 1, -1, -1, -1): "R33",
}
_COMMUTE_RTOL = 1e-10  # both orders of two reflections agree to this, relative to the image


def verify_polar_laplace(net: PointNet, q: QuadricForm) -> bool:
    """Check that the Laplace transform difference vectors y1_i, y2_j of the
    net's translation gauge are q-orthogonal, to that gauge's MATCH_TOL.

    Requires a multi-Q-net with all vertices on the quadric.
    """
    if not np.all(q.on_quadric(net.points)):
        raise NotOnQuadric("net vertices must lie on the quadric")
    _, y1, y2 = translation_gauge(net)
    n1 = y1 / np.linalg.norm(y1, axis=-1, keepdims=True)
    n2 = y2 / np.linalg.norm(y2, axis=-1, keepdims=True)
    return bool(np.all(np.abs(q.eval(n1[:, None], n2[None])) <= MATCH_TOL))


def generate_by_reflections(q: QuadricForm, n1_seq, n2_seq, x00):
    """Net generated from a seed on the quadric by two commuting mirror
    families: x_{ij} = (prod sigma1_k o prod sigma2_l)(x00).

    All mirrors must be non-isotropic and the families mutually orthogonal;
    the result is a multi-Q-net on the quadric whose Laplace transforms are
    the mirror points themselves.  The families are (k, d) arrays (a single
    mirror may be given as (d,)) and the seed is one point (d,).
    """
    n1 = np.atleast_2d(np.asarray(n1_seq, dtype=float))
    n2 = np.atleast_2d(np.asarray(n2_seq, dtype=float))
    x00 = np.asarray(x00, dtype=float)
    if n1.ndim != 2 or n2.ndim != 2 or x00.ndim != 1:
        raise DimensionMismatch("expected two mirror families (k, d) and one seed (d,)")
    if not (np.all(np.isfinite(x00)) and np.all(np.isfinite(n1)) and np.all(np.isfinite(n2))):
        raise NonFiniteCoordinate("a seed or mirror has a non-finite coordinate")
    if np.linalg.norm(x00) <= _ABS_EPS:
        raise ZeroVector("homogeneous coordinates must not vanish")
    for n in (n1, n2):
        if np.any(np.linalg.norm(n, axis=-1) <= _ABS_EPS) or np.any(q.on_quadric(n)):
            raise IsotropicMirror("a mirror lies on the quadric")
    if not np.all(q.orthogonal(n1[:, None], n2[None])):
        raise MirrorsNotOrthogonal("mirror families are not mutually orthogonal")
    if not q.on_quadric(x00):
        raise SeedNotOnQuadric("seed point must lie on the quadric")

    # the checks above have validated the mirrors and the seed, so the
    # reflections go unchecked; proj_distance validates the orbit points
    (k1, d), k2 = n1.shape, len(n2)
    pts = np.empty((k1 + 1, k2 + 1, d))
    pts[0, 0] = x00
    for j in range(k2):
        pts[0, j + 1] = _reflect(q, n2[j], pts[0, j])
    for i in range(k1):
        pts[i + 1] = _reflect(q, n1[i], pts[i])

    fixed1 = proj_distance(pts[1:], pts[:-1]) <= ZERO_RTOL
    fixed2 = proj_distance(pts[:, 1:], pts[:, :-1]) <= ZERO_RTOL
    # commutation audit on the seed orbit; the seed's images are reflected
    # again, so they must not vanish either
    by2, by1 = _reflect(q, n2[None], x00), _reflect(q, n1[:, None], x00)
    _nonzero_rows(by2)
    _nonzero_rows(by1)
    a = _reflect(q, n1[:, None], by2)
    b = _reflect(q, n2[None], by1)
    skew = np.linalg.norm(a - b, axis=-1) > _COMMUTE_RTOL * np.linalg.norm(a, axis=-1)
    for mask, kind, message in (
        (fixed1, DegenerateOrbit, "mirror 1[{i}] fixes the orbit at ({i},{j})"),
        (fixed2, DegenerateOrbit, "mirror 2[{j}] fixes the orbit at ({i},{j})"),
        (skew, MirrorsNotOrthogonal, "reflections 1[{i}] and 2[{j}] do not commute"),
    ):
        if np.any(mask):
            i, j = np.argwhere(mask)[0]
            raise kind(message.format(i=i, j=j))
    ambient = _AMBIENT_BY_FORM.get(tuple(q.signature), f"Q{q.signature}")
    return PointNet(pts, ambient=ambient)
