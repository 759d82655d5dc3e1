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
from functools import partial

import numpy as np

from .errors import (
    CoincidentPoints,
    DimensionMismatch,
    IdenticalLines,
    NotMultiCongruence,
    NotOnQuadric,
    PlanarFamily,
    ZeroVector,
    raise_first_failure,
    raise_unless_finite,
)
from .projective import (
    _ABS_EPS,
    LIE,
    PLUECKER,
    QUADRIC_RTOL,
    Classification,
    ProjLine,
    QuadricForm,
    _pair_span,
    _raise_unless_meet,
    _read_only,
    _row_norms,
    classify_spans,
    index_pairs,
    meet_lines,
    normalize,
    normalized_rows,
    rank_violations,
    row_dot,
    span_rank,
    stack_coords,
)


class CongruenceClass:
    DUPIN_CYCLIDE = "dupin_cyclide"
    HYPERBOLOID = "hyperboloid"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class IsoLineGrid:
    """Grid of isotropic lines in a quadric, each stored read-only as a spanning pair.

    The form must vanish on the orthonormal basis (a, w / sine) of each line
    (projective._pair_span; a alone at rank 1), whichever of its points are
    given; degenerate pairs go to multi_congruence_violations.
    """

    lines: np.ndarray
    form: QuadricForm

    def __post_init__(self):
        lines = np.array(self.lines, dtype=float)
        if lines.ndim != 4 or lines.shape[2] != 2:
            raise DimensionMismatch("IsoLineGrid expects shape (nu, nv, 2, d)")
        if lines.shape[3] != self.form.dim:
            raise DimensionMismatch("line coordinates do not match the form")
        raise_unless_finite(lines, "spanning point")
        live = _row_norms(lines)[..., 0] > _ABS_EPS
        pairs = np.where(live[..., None], lines, lines[..., ::-1, :])
        a, b = np.moveaxis(normalized_rows(pairs[np.any(live, axis=-1)]), -2, 0)
        w, sine, two = _pair_span(a, b)
        basis = np.stack([a, np.where(two, w, 0.0) / np.where(two, sine, 1.0)], axis=-2)
        restricted = np.einsum("nkd,d,nld->nkl", basis, self.form.diagonal, basis)
        if np.any(np.linalg.norm(restricted, axis=(-2, -1)) > QUADRIC_RTOL):
            raise NotOnQuadric("spanning points off the quadric or their line not isotropic")
        object.__setattr__(self, "lines", *_read_only(lines))

    @property
    def dims(self):
        return self.lines.shape[0], self.lines.shape[1]

    def line(self, i: int, j: int) -> ProjLine:
        return ProjLine(self.lines[i, j, 0], self.lines[i, j, 1])


def from_generators(s1, s2, form: QuadricForm) -> IsoLineGrid:
    """Grid l_{ij} = span(s1_i, s2_j) from two orthogonal isotropic families."""
    s1 = np.atleast_2d(np.asarray(s1, dtype=float))
    s2 = np.atleast_2d(np.asarray(s2, dtype=float))
    if s1.ndim != 2 or s2.ndim != 2 or s1.shape[1] != form.dim or s2.shape[1] != form.dim:
        raise DimensionMismatch(f"expected families of shape (k, {form.dim}), got {s1.shape} and {s2.shape}")
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

    ("row", i0, i1, j) pairs the lines (i0, j) and (i1, j), which share the
    second index j: both lie in what factor_congruence's PlanarFamily
    message calls column j.  ("col", i, j0, j1) pairs (i, j0) and (i, j1),
    which share the first index i, its row i.

    A pair is the 4-point stack of both spanning pairs; it fails when the
    stack spans rank 4.  A degenerate spanning pair raises ZeroVector or
    IdenticalLines, like ProjLine; the first such line in column-major order
    raises.
    """
    nu, nv = g.dims
    by_col = g.lines.swapaxes(0, 1)  # (nv, nu, 2, d): lines of column j
    zero = np.linalg.norm(by_col, axis=-1) <= _ABS_EPS
    # a line with a zero point fails on that first; a stand-in row of ones
    # lets every line's rows be normalized
    unit = normalized_rows(np.where(zero[..., None], 1.0, by_col))
    raise_first_failure([
        (np.any(zero, axis=-1), lambda k: ZeroVector("homogeneous coordinates must not vanish")),
        (~_pair_span(unit[..., 0, :], unit[..., 1, :])[2][..., 0],
         lambda k: IdenticalLines("spanning points are projectively equal")),
    ])
    d = g.form.dim
    (i0, i1), (j0, j1) = index_pairs(nu), index_pairs(nv)
    keys = [("row", a, b, j) for j in range(nv) for a, b in zip(i0.tolist(), i1.tolist())]
    keys += [("col", i, a, b) for i in range(nu) for a, b in zip(j0.tolist(), j1.tolist())]
    stacks = np.concatenate(
        [
            np.concatenate([by_col[:, i0], by_col[:, i1]], axis=2).reshape(-1, 4, d),
            np.concatenate([g.lines[:, j0], g.lines[:, j1]], axis=2).reshape(-1, 4, d),
        ]
    )
    return rank_violations(keys, stacks)


def is_multi_congruence(g: IsoLineGrid) -> bool:
    return not multi_congruence_violations(g)


def factor_congruence(g: IsoLineGrid):
    """Generating point families with l_{ij} = span(s1_i, s2_j).

    s1_i is the meet of l_{i,0} and l_{i,1}, s2_j of l_{0,j} and l_{1,j}.
    Rows or columns spanning only an isotropic plane raise PlanarFamily;
    otherwise every cell line holds both factor points (README, *Line
    congruences*), so the one check per cell is the orthogonality of its
    factor points, raised for the first failing cell in row-major order.
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
    bad = np.flatnonzero(~g.form.orthogonal(s1[:, None], s2[None]))
    if bad.size:
        raise NotMultiCongruence("factor points at ({},{}) are not orthogonal".format(*divmod(bad[0], nv)))
    return s1, s2


# form signature -> the set of the two factor-span codes (n_pos, n_neg, n_zero)
_CONGRUENCE_CLASSES = {
    LIE.signature: {frozenset({(2, 1, 0)}): CongruenceClass.DUPIN_CYCLIDE},
    PLUECKER.signature: {frozenset({(2, 1, 0), (1, 2, 0)}): CongruenceClass.HYPERBOLOID},
}


def _congruence_class(signature, code1, code2):
    """Class of a pair of factor-span codes in the form of the given signature."""
    table = _CONGRUENCE_CLASSES.get(signature, {})
    return table.get(frozenset({code1, code2}), CongruenceClass.DEGENERATE)


def classify_congruence(g: IsoLineGrid) -> Classification:
    """Classify by the restricted-form signatures of the two factor spans.

    In the Lie quadric (4,2) both polar factor spans of cyclide contact
    elements have signature (+ + -).  In the Pluecker quadric (3,3) the two
    spans are polar complements, so a (+ + -) span is paired with a
    (+ - -) one; both orders count as a hyperboloid.  At least three
    members per family are required, as fewer span at most two dimensions;
    everything else is reported degenerate with the computed eigenvalues
    attached.
    """
    s1, s2 = factor_congruence(g)
    return classify_spans(g.form, (s1, s2), partial(_congruence_class, g.form.signature))


# -- Pluecker line geometry ---------------------------------------------------------


def pluecker_embed(p, q) -> np.ndarray:
    """Pluecker coordinates of the lines through points p and q of R^3, in
    the diagonalizing basis of the (3,3) form.

    Stacks of points (..., 3) broadcast against each other and give stacks
    (..., 6).  With direction u = q - p and moment v = p x q the image is
    (u+v, u-v); it is isotropic, and two lines of R^3 intersect (or are
    parallel) iff their images are orthogonal under the form.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1:] != (3,) or q.shape[-1:] != (3,):
        raise DimensionMismatch("expected two points of R^3")
    u = q - p
    if np.any(np.linalg.norm(u, axis=-1) <= _ABS_EPS):
        raise CoincidentPoints("line needs two distinct points")
    v = np.cross(p, q)
    return np.concatenate([u + v, u - v], axis=-1)


# -- fixtures -------------------------------------------------------------------------
# Lie coordinates (..., 6) with form diag(+,+,+,+,-,-): spheres are
# (c, (|c|^2-r^2-1)/2, (|c|^2-r^2+1)/2, r) with signed radius r and outward
# normal (x-c)/r; planes carry -1 in the radius slot so that oriented contact
# <.,.> = 0 means touching with matching normals.


def lie_point_rep(p) -> np.ndarray:
    """Lie coordinates of point spheres (radius 0)."""
    return lie_sphere_rep(p, 0.0)


def lie_sphere_rep(center, radius) -> np.ndarray:
    """Lie coordinates of oriented spheres; centres (..., 3) broadcast
    against signed radii (...)."""
    c = np.asarray(center, dtype=float)
    r = np.asarray(radius, dtype=float)
    a = row_dot(c, c) - r * r
    return stack_coords(c[..., 0], c[..., 1], c[..., 2], (a - 1.0) / 2.0, (a + 1.0) / 2.0, r)


def lie_plane_rep(normal, offset) -> np.ndarray:
    """Lie coordinates of the oriented planes {x : <x, n> = offset} with n
    the normal scaled to unit length; a vanishing normal raises ZeroVector."""
    n = np.asarray(normal, dtype=float)
    norm = np.sqrt(row_dot(n, n))[..., None]
    if np.any(norm <= _ABS_EPS):
        raise ZeroVector("plane normal must not vanish")
    n = n / norm
    return stack_coords(n[..., 0], n[..., 1], n[..., 2], offset, offset, -1.0)


def contact_element(point, unit_normal) -> np.ndarray:
    """Isotropic Lie lines (..., 2, 6) of surface contact elements, each
    spanned by the point sphere and the oriented tangent plane."""
    p = np.asarray(point, dtype=float)
    n = np.asarray(unit_normal, dtype=float)
    pair = np.broadcast_arrays(lie_point_rep(p), lie_plane_rep(n, row_dot(p, n)))
    return normalize(np.stack(pair, axis=-2))


def torus_contact_grid(big_radius: float, small_radius: float, us, vs) -> IsoLineGrid:
    """Contact elements of a torus of revolution along its curvature-line
    parameters; us are angles around the axis, vs meridian angles."""
    u = np.asarray(us, dtype=float)
    v = np.asarray(vs, dtype=float)
    if u.ndim != 1 or v.ndim != 1:
        raise DimensionMismatch("expected 1-d arrays of angles us and vs")
    u = u[:, None]
    w = big_radius + small_radius * np.cos(v)
    p = stack_coords(w * np.cos(u), w * np.sin(u), small_radius * np.sin(v))
    n = stack_coords(np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v))
    return IsoLineGrid(contact_element(p, n), LIE)


def hyperboloid_ruling_grid(a_params, b_params) -> IsoLineGrid:
    """Pluecker images of the two ruling families of z = x y sampled at the
    given parameters; cell (i, j) is the pencil at their meeting point."""
    a = np.asarray(a_params, dtype=float)
    b = np.asarray(b_params, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise DimensionMismatch("expected 1-d arrays of parameters a_params and b_params")
    g1 = pluecker_embed(stack_coords(a, 0.0, 0.0), stack_coords(a, 1.0, a))
    g2 = pluecker_embed(stack_coords(0.0, b, 0.0), stack_coords(1.0, b, b))
    return from_generators(normalize(g1), normalize(g2), PLUECKER)
