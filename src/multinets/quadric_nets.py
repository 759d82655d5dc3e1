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
    IsotropicMirror,
    MirrorsNotOrthogonal,
    NotOnQuadric,
    SeedNotOnQuadric,
    ZeroVector,
    first_failure,
    raise_first_failure,
)
from .projective import _ABS_EPS, QuadricForm, _nonzero_rows, _reflect, proj_distance
from .qnets import PointNet, translation_gauge

_AMBIENT_BY_FORM = {
    (1, 1, 1, 1, -1): "R41",
    (1, 1, 1, -1): "R31",
    (1, 1, 1, 1, -1, -1): "R42",
    (1, 1, 1, -1, -1, -1): "R33",
}


def verify_polar_laplace(net: PointNet, q: QuadricForm, tol: float = 1e-8) -> bool:
    """Check that the Laplace transform difference vectors are q-orthogonal.

    Requires a multi-Q-net with all vertices on the quadric; the y1_i and
    y2_j vectors come from the net's translation gauge.
    """
    if not np.all(q.on_quadric(net.points)):
        raise NotOnQuadric("net vertices must lie on the quadric")
    _, y1, y2 = translation_gauge(net)
    n1 = y1 / np.linalg.norm(y1, axis=-1, keepdims=True)
    n2 = y2 / np.linalg.norm(y2, axis=-1, keepdims=True)
    return bool(np.all(np.abs(q.eval(n1[:, None], n2[None])) <= tol))


def generate_by_reflections(q: QuadricForm, n1_seq, n2_seq, x00):
    """Net generated from a seed on the quadric by two commuting mirror
    families: x_{ij} = (prod sigma1_k o prod sigma2_l)(x00).

    All mirrors must be non-isotropic and the families mutually orthogonal;
    the result is a multi-Q-net on the quadric whose Laplace transforms are
    the mirror points themselves.  Leading batch axes on the families
    (..., k, d) and the seed (..., d) give the array (..., nu, nv, d) of
    all orbits; a failing batch raises the error of its first failing entry.
    """
    n1 = np.asarray(n1_seq, dtype=float)
    n2 = np.asarray(n2_seq, dtype=float)
    x00 = np.asarray(x00, dtype=float)
    n1 = n1[None] if n1.ndim == 1 else n1
    n2 = n2[None] if n2.ndim == 1 else n2
    batch = np.broadcast_shapes(n1.shape[:-2], n2.shape[:-2], x00.shape[:-1])
    (k1, d), (k2, _) = n1.shape[-2:], n2.shape[-2:]
    n1 = np.broadcast_to(n1, batch + (k1, d)).reshape(-1, k1, d)
    n2 = np.broadcast_to(n2, batch + (k2, d)).reshape(-1, k2, d)
    x00 = np.broadcast_to(x00, batch + (d,)).reshape(-1, d)
    # an entry with a zero seed or mirror fails on that first; stand-in rows
    # of ones let the form run over every entry
    zero0, zero1, zero2 = (np.linalg.norm(v, axis=-1) <= _ABS_EPS for v in (x00, n1, n2))
    f0, f1, f2 = (np.where(z[..., None], 1.0, v) for z, v in ((zero0, x00), (zero1, n1), (zero2, n2)))
    scale = np.linalg.norm(f1, axis=-1)[..., :, None] * np.linalg.norm(f2, axis=-1)[..., None, :]
    setup = first_failure([
        (zero0, lambda e: ZeroVector("homogeneous coordinates must not vanish")),
        (np.any(zero1 | q.on_quadric(f1), axis=-1) | np.any(zero2 | q.on_quadric(f2), axis=-1),
         lambda e: IsotropicMirror("a mirror lies on the quadric")),
        (np.any(np.abs(q.eval(f1[:, :, None], f2[:, None, :])) > 1e-9 * scale, axis=(-2, -1)),
         lambda e: MirrorsNotOrthogonal("mirror families are not mutually orthogonal")),
        (~q.on_quadric(f0), lambda e: SeedNotOnQuadric("seed point must lie on the quadric")),
    ])
    # entries before the first failing one are generated and audited, as
    # one call per entry would have done before reaching it
    good = len(x00) if setup is None else setup[0]
    n1, n2, x00 = n1[:good], n2[:good], x00[:good]

    # the setup has validated the mirrors and the seed, so the reflections go
    # unchecked; proj_distance validates the orbit points they produce
    pts = np.empty((good, k1 + 1, k2 + 1, d))
    pts[:, 0, 0] = x00
    for j in range(k2):
        pts[:, 0, j + 1] = _reflect(q, n2[:, j], pts[:, 0, j])
    for i in range(k1):
        pts[:, i + 1] = _reflect(q, n1[:, i, None], pts[:, i])

    fixed1 = proj_distance(pts[:, 1:], pts[:, :-1]) <= 1e-12
    fixed2 = proj_distance(pts[:, :, 1:], pts[:, :, :-1]) <= 1e-12
    # commutation audit on the seed orbit; the seed's images are reflected
    # again, so they must not vanish either
    seed = x00[:, None, None, :]
    by2, by1 = _reflect(q, n2[:, None, :], seed), _reflect(q, n1[:, :, None], seed)
    _nonzero_rows(by2)
    _nonzero_rows(by1)
    a = _reflect(q, n1[:, :, None], by2)
    b = _reflect(q, n2[:, None, :], by1)
    skew = np.linalg.norm(a - b, axis=-1) > 1e-10 * np.linalg.norm(a, axis=-1)

    def at_first(mask, kind, message):
        def make(e):
            i, j = np.argwhere(mask[e])[0]
            return kind(message.format(i=i, j=j))

        return np.any(mask, axis=(-2, -1)), make

    raise_first_failure([
        at_first(fixed1, DegenerateOrbit, "mirror 1[{i}] fixes the orbit at ({i},{j})"),
        at_first(fixed2, DegenerateOrbit, "mirror 2[{j}] fixes the orbit at ({i},{j})"),
        at_first(skew, MirrorsNotOrthogonal, "reflections 1[{i}] and 2[{j}] do not commute"),
    ])
    if setup is not None:
        raise setup[1]
    if batch:
        return pts.reshape(batch + pts.shape[1:])
    ambient = _AMBIENT_BY_FORM.get(tuple(q.signature), f"Q{q.signature}")
    return PointNet(pts[0], ambient=ambient)
