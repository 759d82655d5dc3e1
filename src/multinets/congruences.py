"""Multi line congruences in the Lie and Pluecker quadrics.

Grids of isotropic projective lines (pencils of oriented spheres forming
contact elements, or pencils of lines of RP^3) in which all same-row and
same-column pairs intersect.  Generic such grids factor into two orthogonal
families of quadric points with l_{ij} = span(s1_i, s2_j); the signature
(+ + -) of both factor spans characterizes contact elements of a Dupin
cyclide (Lie) or of a doubly ruled quadric (Pluecker).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circular import Classification, _span_signature
from .errors import (
    CoincidentPoints,
    DimensionMismatch,
    IdenticalLines,
    NotMultiCongruence,
    NotOnQuadric,
    PlanarFamily,
    ZeroVector,
    raise_first_failure,
)
from .projective import (
    _ABS_EPS,
    LIE,
    PLUECKER,
    QUADRIC_RTOL,
    ProjLine,
    QuadricForm,
    _raise_unless_meet,
    meet_lines,
    normalize,
    rank_violations,
    span_rank,
)


class CongruenceClass:
    DUPIN_CYCLIDE = "dupin_cyclide"
    HYPERBOLOID = "hyperboloid"
    DEGENERATE = "degenerate"


@dataclass
class IsoLineGrid:
    """Grid of isotropic lines in a quadric, each stored as a spanning pair."""

    lines: np.ndarray
    form: QuadricForm

    def __post_init__(self):
        self.lines = np.asarray(self.lines, dtype=float)
        if self.lines.ndim != 4 or self.lines.shape[2] != 2:
            raise DimensionMismatch("IsoLineGrid expects shape (nu, nv, 2, d)")
        if self.lines.shape[3] != self.form.dim:
            raise DimensionMismatch("line coordinates do not match the form")
        # zero spanning points are left to multi_congruence_violations
        live = np.linalg.norm(self.lines, axis=-1) > _ABS_EPS
        if not np.all(self.form.on_quadric(self.lines[live])):
            raise NotOnQuadric("spanning point off the quadric")
        pair = np.all(live, axis=-1)
        a, b = self.lines[pair, 0], self.lines[pair, 1]
        scale = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
        if np.any(np.abs(self.form.eval(a, b)) > QUADRIC_RTOL * scale):
            raise NotOnQuadric("spanning pair is not isotropically orthogonal")

    @property
    def dims(self):
        return self.lines.shape[0], self.lines.shape[1]

    def line(self, i: int, j: int) -> ProjLine:
        return ProjLine(self.lines[i, j, 0], self.lines[i, j, 1])


def from_generators(s1, s2, form: QuadricForm) -> IsoLineGrid:
    """Grid l_{ij} = span(s1_i, s2_j) from two orthogonal isotropic families."""
    s1 = np.atleast_2d(np.asarray(s1, dtype=float))
    s2 = np.atleast_2d(np.asarray(s2, dtype=float))
    lines = np.empty((s1.shape[0], s2.shape[0], 2, form.dim))
    lines[:, :, 0, :] = s1[:, None, :]
    lines[:, :, 1, :] = s2[None, :, :]
    return IsoLineGrid(lines, form)


def lines_intersect(l1: ProjLine, l2: ProjLine) -> bool:
    """Two projective lines meet iff their four spanning points span rank <= 3."""
    return span_rank(np.stack([l1.a, l1.b, l2.a, l2.b])) <= 3


def multi_congruence_violations(g: IsoLineGrid):
    """Same-row / same-column line pairs that fail to intersect, as
    (("row", i0, i1, j) or ("col", i, j0, j1), residual) entries.

    A pair is the 4-point stack of both spanning pairs; it fails when the
    stack spans rank 4.  A degenerate spanning pair raises ZeroVector or
    IdenticalLines, like ProjLine; the first such line in column-major order
    raises.
    """
    nu, nv = g.dims
    by_col = g.lines.swapaxes(0, 1)  # (nv, nu, 2, d): lines of column j
    zero = np.linalg.norm(by_col, axis=-1) <= _ABS_EPS
    # a line with a zero point fails on that first; a stand-in row of ones
    # lets span_rank run over every line
    raise_first_failure([
        (np.any(zero, axis=-1), lambda k: ZeroVector("homogeneous coordinates must not vanish")),
        (span_rank(np.where(zero[..., None], 1.0, by_col)) != 2,
         lambda k: IdenticalLines("spanning points are projectively equal")),
    ])
    d = g.form.dim
    i0, i1 = np.triu_indices(nu, 1)
    j0, j1 = np.triu_indices(nv, 1)
    keys = [("row", a, b, j) for j in range(nv) for a, b in zip(i0.tolist(), i1.tolist())]
    keys += [("col", i, a, b) for i in range(nu) for a, b in zip(j0.tolist(), j1.tolist())]
    stacks = np.concatenate(
        [
            np.concatenate([by_col[:, i0], by_col[:, i1]], axis=2).reshape(-1, 4, d),
            np.concatenate([g.lines[:, j0], g.lines[:, j1]], axis=2).reshape(-1, 4, d),
        ]
    )
    return rank_violations(keys, stacks, 3)


def is_multi_congruence(g: IsoLineGrid) -> bool:
    return not multi_congruence_violations(g)


def factor_congruence(g: IsoLineGrid):
    """Generating point families with l_{ij} = span(s1_i, s2_j).

    s1_i is the meet of l_{i,0} and l_{i,1}, s2_j of l_{0,j} and l_{1,j};
    the factorization is verified on every cell and the two families checked
    for mutual orthogonality.  Rows or columns spanning only an isotropic
    plane raise PlanarFamily.
    """
    nu, nv = g.dims
    if nu < 2 or nv < 2:
        raise NotMultiCongruence("need at least a 2x2 grid of lines")
    if not is_multi_congruence(g):
        raise NotMultiCongruence("line grid is not a multi-congruence")
    # two intersecting lines always span a plane; the isotropic-plane
    # degeneracy is only detectable with three or more lines in a family
    d = g.form.dim
    for name, family, others in (("row", g.lines, nv), ("column", g.lines.swapaxes(0, 1), nu)):
        if others >= 3:
            planar = np.flatnonzero(span_rank(family.reshape(len(family), -1, d)) <= 3)
            if planar.size:
                raise PlanarFamily(f"lines of {name} {planar[0]} lie in a plane")
    s1, ranks1 = meet_lines(g.lines[:, 0], g.lines[:, 1])
    _raise_unless_meet(ranks1)
    s2, ranks2 = meet_lines(g.lines[0], g.lines[1])
    _raise_unless_meet(ranks2)
    pairs = np.stack(np.broadcast_arrays(s1[:, None], s2[None]), axis=2)

    def at_cell(message):
        return lambda k: NotMultiCongruence(message.format(*divmod(k, nv)))

    # cells in row-major order, the span checked before the orthogonality
    raise_first_failure([
        (span_rank(np.concatenate([pairs, g.lines], axis=2)) != 2,
         at_cell("cell ({},{}) is not spanned by the factor points")),
        (np.abs(g.form.eval(s1[:, None], s2[None])) > 1e-9,
         at_cell("factor points at ({},{}) are not orthogonal")),
    ])
    return s1, s2


def classify_congruence(g: IsoLineGrid) -> Classification:
    """Classify by the restricted-form signatures of the two factor spans.

    In the Lie quadric (4,2) both polar factor spans of cyclide contact
    elements have signature (+ + -).  In the Pluecker quadric (3,3) the two
    spans are polar complements, so a (+ + -) span is paired with a
    (+ - -) one; both orders count as a hyperboloid.  At least three
    members per family are required; everything else is reported degenerate
    with the computed eigenvalues attached.
    """
    s1, s2 = factor_congruence(g)
    sig1 = _span_signature(s1, g.form)
    sig2 = _span_signature(s2, g.form)
    dims = (sig1[0], sig2[0])
    eigs = (sig1[1], sig2[1])
    enough = s1.shape[0] >= 3 and s2.shape[0] >= 3
    pair = {(sig1[2], sig1[3], sig1[4]), (sig2[2], sig2[3], sig2[4])}
    if enough and g.form.signature == LIE.signature and pair == {(2, 1, 0)}:
        return Classification(CongruenceClass.DUPIN_CYCLIDE, dims, eigs)
    if (
        enough
        and g.form.signature == PLUECKER.signature
        and pair == {(2, 1, 0), (1, 2, 0)}
    ):
        return Classification(CongruenceClass.HYPERBOLOID, dims, eigs)
    return Classification(CongruenceClass.DEGENERATE, dims, eigs)


# -- Pluecker line geometry ---------------------------------------------------------


def pluecker_embed(p, q) -> np.ndarray:
    """Pluecker coordinates of the line through two points of R^3, in the
    diagonalizing basis of the (3,3) form.

    With direction u = q - p and moment v = p x q the image is (u+v, u-v);
    it is isotropic, and two lines of R^3 intersect (or are parallel) iff
    their images are orthogonal under the form.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (3,) or q.shape != (3,):
        raise DimensionMismatch("expected two points of R^3")
    u = q - p
    if np.linalg.norm(u) <= 1e-13:
        raise CoincidentPoints("line needs two distinct points")
    v = np.cross(p, q)
    return np.concatenate([u + v, u - v])


# -- fixtures -------------------------------------------------------------------------


def lie_point_rep(p) -> np.ndarray:
    """Lie coordinates of a point sphere (radius 0)."""
    p = np.asarray(p, dtype=float)
    n2 = float(np.dot(p, p))
    return np.array([p[0], p[1], p[2], (n2 - 1.0) / 2.0, (n2 + 1.0) / 2.0, 0.0])


def lie_sphere_rep(center, radius: float) -> np.ndarray:
    """Lie coordinates of an oriented sphere with signed radius."""
    c = np.asarray(center, dtype=float)
    a = float(np.dot(c, c)) - radius * radius
    return np.array([c[0], c[1], c[2], (a - 1.0) / 2.0, (a + 1.0) / 2.0, radius])


def lie_plane_rep(normal, offset: float) -> np.ndarray:
    """Lie coordinates of the oriented plane {x : <x, n> = offset}, unit n.

    Layout (x1..x6) with form diag(+,+,+,+,-,-): spheres are
    (c, (|c|^2-r^2-1)/2, (|c|^2-r^2+1)/2, r) with signed radius r and
    outward normal (x-c)/r; planes carry -1 in the radius slot so that
    oriented contact <.,.> = 0 means touching with matching normals.
    """
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return np.array([n[0], n[1], n[2], offset, offset, -1.0])


def contact_element(point, unit_normal) -> np.ndarray:
    """Isotropic Lie line of a surface contact element: spanned by the point
    sphere and the oriented tangent plane."""
    p = np.asarray(point, dtype=float)
    n = np.asarray(unit_normal, dtype=float)
    sphere = lie_point_rep(p)
    plane = lie_plane_rep(n, float(np.dot(p, n)))
    return np.stack([normalize(sphere), normalize(plane)])


def torus_contact_grid(big_radius: float, small_radius: float, us, vs) -> IsoLineGrid:
    """Contact elements of a torus of revolution along its curvature-line
    parameters; us are angles around the axis, vs meridian angles."""
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    lines = np.empty((len(us), len(vs), 2, 6))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            w = big_radius + small_radius * np.cos(v)
            p = np.array([w * np.cos(u), w * np.sin(u), small_radius * np.sin(v)])
            n = np.array([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)])
            lines[i, j] = contact_element(p, n)
    return IsoLineGrid(lines, LIE)


def hyperboloid_ruling_grid(a_params, b_params) -> IsoLineGrid:
    """Pluecker images of the two ruling families of z = x y sampled at the
    given parameters; cell (i, j) is the pencil at their meeting point."""
    a_params = np.asarray(a_params, dtype=float)
    b_params = np.asarray(b_params, dtype=float)
    g1 = np.stack(
        [
            normalize(pluecker_embed(np.array([a, 0.0, 0.0]), np.array([a, 1.0, a])))
            for a in a_params
        ]
    )
    g2 = np.stack(
        [
            normalize(pluecker_embed(np.array([0.0, b, 0.0]), np.array([1.0, b, b])))
            for b in b_params
        ]
    )
    return from_generators(g1, g2, PLUECKER)
