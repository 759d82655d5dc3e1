import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinets.congruences import (
    CongruenceClass,
    IsoLineGrid,
    classify_congruence,
    contact_element,
    factor_congruence,
    from_generators,
    hyperboloid_ruling_grid,
    is_multi_congruence,
    lie_plane_rep,
    lie_point_rep,
    lie_sphere_rep,
    lines_intersect,
    multi_congruence_violations,
    pluecker_embed,
    torus_contact_grid,
)
from multinets.errors import (
    CoincidentPoints,
    DimensionMismatch,
    IdenticalLines,
    NonFiniteCoordinate,
    NotMultiCongruence,
    NotOnQuadric,
    PlanarFamily,
    SkewLines,
    ZeroVector,
)
from multinets.projective import (
    LIE,
    PLUECKER,
    QUADRIC_RTOL,
    RANK_RTOL,
    ProjLine,
    bilinear_eval,
    normalize,
    proj_distance,
    span_svd,
)


def lines_intersect_3d(p1, d1, p2, d2, tol=1e-9):
    """Direct Euclidean oracle: coplanar and not parallel, or identical."""
    n = np.cross(d1, d2)
    if np.linalg.norm(n) < tol * np.linalg.norm(d1) * np.linalg.norm(d2):
        # parallel: intersect only if identical
        return np.linalg.norm(np.cross(p2 - p1, d1)) < tol * np.linalg.norm(d1)
    return abs(np.dot(p2 - p1, n)) < tol * np.linalg.norm(n)


# -- lines_intersect ---------------------------------------------------------


def test_lines_sharing_a_point_intersect():
    a = normalize(lie_point_rep([0.0, 0, 0]))
    b = normalize(lie_plane_rep([0, 0, 1.0], 0.0))
    c = normalize(lie_sphere_rep([0, 0, -1.0], 1.0))
    l1 = ProjLine(a, b)
    l2 = ProjLine(a, c)
    assert lines_intersect(l1, l2)


def test_generic_lines_do_not_intersect():
    l1 = ProjLine([1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0])
    l2 = ProjLine([0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0])
    assert not lines_intersect(l1, l2)


def test_generator_grid_lines_intersect(rng):
    g = torus_contact_grid(2.0, 0.5, [0.1, 0.8, 1.9], [-0.5, 0.2, 0.9])
    assert lines_intersect(g.line(0, 0), g.line(1, 0))
    assert lines_intersect(g.line(0, 0), g.line(0, 2))
    assert is_multi_congruence(g)


def test_random_isotropic_lines_not_congruence(rng):
    # pencils at scattered surface points of different spheres
    lines = np.empty((2, 2, 2, 6))
    for i in range(2):
        for j in range(2):
            p = rng.uniform(-1, 1, 3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            lines[i, j] = contact_element(p, n)
    g = IsoLineGrid(lines, LIE)
    assert not is_multi_congruence(g)


def scalar_congruence_keys(g):
    """Reference sweep: lines_intersect on every same-row / same-column pair."""
    nu, nv = g.dims
    keys = [
        ("row", i0, i1, j)
        for j in range(nv)
        for i0 in range(nu)
        for i1 in range(i0 + 1, nu)
        if not lines_intersect(g.line(i0, j), g.line(i1, j))
    ]
    return keys + [
        ("col", i, j0, j1)
        for i in range(nu)
        for j0 in range(nv)
        for j1 in range(j0 + 1, nv)
        if not lines_intersect(g.line(i, j0), g.line(i, j1))
    ]


def _pair_points(lines, key):
    tag, a, b, c = key
    cells = [(a, c), (b, c)] if tag == "row" else [(a, b), (a, c)]
    return np.concatenate([lines[i, j] for i, j in cells])


def test_violation_residual_is_normalized_sigma_ratio(rng):
    g = torus_contact_grid(2.0, 0.5, [0.1, 0.8, 1.9, 2.5], [-0.5, 0.2, 0.9])
    lines = g.lines.copy()
    lines[1, 2] = contact_element(rng.uniform(-1, 1, 3), np.array([0.0, 0.6, 0.8]))
    broken = IsoLineGrid(lines, LIE)
    report = multi_congruence_violations(broken)
    assert [k for k, _ in report] == scalar_congruence_keys(broken)
    assert len(report) == 5
    for key, residual in report:
        assert RANK_RTOL < residual < 1.0
        pts = _pair_points(lines, key)
        s = np.linalg.svd(pts / np.linalg.norm(pts, axis=1, keepdims=True), compute_uv=False)
        assert np.isclose(residual, s[-1] / s[0], rtol=1e-9)


def test_degenerate_spanning_pairs_raise():
    g = torus_contact_grid(2.0, 0.5, [0.1, 0.8, 1.9], [-0.5, 0.2, 0.9])
    lines = g.lines.copy()
    lines[1, 1, 1] = lines[1, 1, 0]
    with pytest.raises(IdenticalLines):
        multi_congruence_violations(IsoLineGrid(lines, LIE))
    lines = g.lines.copy()
    lines[2, 1, 1] = 0.0
    with pytest.raises(ZeroVector):
        multi_congruence_violations(IsoLineGrid(lines, LIE))


@pytest.mark.parametrize(
    "zero, identical, error",
    [((0, 1), (1, 0), IdenticalLines), ((1, 0), (0, 1), ZeroVector)],
)
def test_first_degenerate_line_in_column_major_order_raises(zero, identical, error):
    # row-major order would meet the other broken line first
    g = torus_contact_grid(2.0, 0.5, [0.1, 0.8, 1.9], [-0.5, 0.2, 0.9])
    lines = g.lines.copy()
    lines[zero][0] = 0.0
    lines[identical][1] = 3.0 * lines[identical][0]
    broken = IsoLineGrid(lines, LIE)
    with pytest.raises(error):
        multi_congruence_violations(broken)
    with pytest.raises(error):
        factor_congruence(broken)


# -- factorization ------------------------------------------------------------


def test_factor_recovers_generators(rng):
    us = np.array([0.2, 1.1, 2.0, 3.2])
    vs = np.array([-0.8, -0.1, 0.6, 1.2])
    g = torus_contact_grid(2.0, 0.5, us, vs)
    s1, s2 = factor_congruence(g)
    for i, u in enumerate(us):
        expect = lie_sphere_rep([2 * np.cos(u), 2 * np.sin(u), 0.0], 0.5)
        assert proj_distance(s1[i], expect) <= 1e-8
    for j, v in enumerate(vs):
        expect = lie_sphere_rep(
            [0, 0, -2 * np.tan(v)], (2 + 0.5 * np.cos(v)) / np.cos(v)
        )
        assert proj_distance(s2[j], expect) <= 1e-8


def test_factor_consistency_all_cells(rng):
    g = hyperboloid_ruling_grid([-1.0, 0.3, 1.2, 2.0], [-0.5, 0.5, 1.5, 2.5])
    s1, s2 = factor_congruence(g)
    from multinets.projective import span_rank

    for i in range(4):
        for j in range(4):
            cell = np.stack([s1[i], s2[j], g.lines[i, j, 0], g.lines[i, j, 1]])
            assert span_rank(cell) == 2
            val = bilinear_eval(PLUECKER, s1[i], s2[j])
            assert abs(val) < 1e-9


def test_factor_roundtrip_preserves_verdict(rng):
    g = torus_contact_grid(2.0, 0.5, [0.2, 1.1, 2.0], [-0.8, -0.1, 0.6])
    s1, s2 = factor_congruence(g)
    rebuilt = from_generators(s1, s2, LIE)
    assert is_multi_congruence(rebuilt)
    t1, t2 = factor_congruence(rebuilt)
    for i in range(3):
        assert proj_distance(t1[i], s1[i]) <= 1e-8


def _nudged(p, keep, target, eps=1e-7):
    """p moved within the directions orthogonal to p and to the rows of
    keep, so that it stays isotropic and orthogonal to keep, while
    <p, target> becomes eps."""
    null = np.linalg.svd(np.vstack([p, keep]) * LIE.diagonal)[2][len(keep) + 1 :]
    w = null[np.argmax(np.abs(LIE.eval(null, target)))]
    return p + eps * w / LIE.eval(w, target)


def test_first_failing_cell_in_row_major_order_raises():
    """Factor points s1_3 and s2_3 moved off orthogonality with s2_2 and
    s1_2 spoil cells (2,3), (3,2) and (3,3), and only those; column-major
    order would name cell (3,2).

    Such cells span lines that are not isotropic, which IsoLineGrid rejects
    however their points are given, so the grid takes them after its
    validation to reach the check of factor_congruence itself."""
    us, vs = [0.2, 1.1, 2.0, 3.2], [-0.8, -0.1, 0.6, 1.2]
    g = torus_contact_grid(2.0, 0.5, us, vs)
    s1, s2 = (s.copy() for s in factor_congruence(g))
    s1[3] = _nudged(s1[3], s2[:2], s2[2])
    s2[3] = _nudged(s2[3], s1[:2], s1[2])
    lines = np.stack(np.broadcast_arrays(s1[:, None], s2[None]), axis=2)
    for i, j in [(2, 3), (3, 2), (3, 3)]:
        lines[i, j, 1] = s1[i] + 1e-4 * s2[j]
    with pytest.raises(NotOnQuadric, match="not isotropic"):
        IsoLineGrid(lines, LIE)
    # IsoLineGrid is frozen and validates its lines once, at construction;
    # object.__setattr__ gives g these cells past that check, so that the
    # per-cell check of factor_congruence, which stays, is reached
    object.__setattr__(g, "lines", lines)
    assert is_multi_congruence(g)
    with pytest.raises(NotMultiCongruence, match=r"^factor points at \(2,3\) are not orthogonal$"):
        factor_congruence(g)


def on_cone(x, form, through=None):
    """A point of the quadric next to x: x moved onto the form-orthogonal
    complement of the point through (if given), then along its own polar
    direction by the smaller root of the quadratic, in the stable form."""
    dg = form.diagonal
    unit = np.zeros_like(x) if through is None else normalize(dg * through)
    x = x - (x @ unit) * unit
    r = dg * x - (dg * x @ unit) * unit
    a, b, c = r @ (dg * r), x @ (dg * r), x @ (dg * x)
    return x - c / (b + np.copysign(np.sqrt(b * b - a * c), b)) * r


def factor_grid(kind, nu, nv, seed):
    """A torus contact grid (Lie) or a hyperboloid ruling grid (Pluecker) of
    nu x nv lines at parameters at least 0.2 apart, drawn from
    default_rng(seed)."""
    rng = np.random.default_rng(seed)
    if kind == "lie":
        us = rng.uniform(0, 6.0) + np.cumsum(rng.uniform(0.3, 1.0, nu))
        return torus_contact_grid(2.0, 0.5, us, -1.3 + np.cumsum(rng.uniform(0.2, 0.5, nv)))
    return hyperboloid_ruling_grid(-2 + np.cumsum(rng.uniform(0.3, 0.8, nu)),
                                   -2 + np.cumsum(rng.uniform(0.3, 0.8, nv)))


def moved_cell(g, i, j, mode, delta, seed):
    """The lines of g with cell (i, j) replaced by another isotropic line:
    through s1_i and a point of the quadric about delta away from s2_j
    ("first"), through s2_j and a point about delta away from s1_i
    ("second"), through two points about delta away from both ("neither"),
    or the line l_{i+1,j} ("next i", through s2_j only) or l_{i,j+1}
    ("next j", through s1_i only), indices taken cyclically."""
    nu, nv = g.dims
    lines = g.lines.copy()
    if mode == "next i":
        lines[i, j] = g.lines[(i + 1) % nu, j]
        return lines
    if mode == "next j":
        lines[i, j] = g.lines[i, (j + 1) % nv]
        return lines
    s1, s2 = factor_congruence(g)
    p, q = s1[i], s2[j]
    step = delta * np.random.default_rng(seed).normal(size=(2, g.form.dim))
    if mode == "neither":
        p = on_cone(p + step[0], g.form)
    if mode == "second":
        p = on_cone(p + step[0], g.form, through=q)
    else:
        q = on_cone(q + step[1], g.form, through=p)
    lines[i, j] = normalize(np.stack([p, q]))
    return lines


def cell_residuals(lines, s1, s2):
    """sigma_3 / sigma_1 of each cell's four points s1_i, s2_j and the two
    spanning points: above RANK_RTOL where the cell line misses a factor
    point, the check factor_congruence no longer makes."""
    pairs = np.stack(np.broadcast_arrays(s1[:, None], s2[None]), axis=2)
    s = span_svd(np.concatenate([pairs, lines], axis=2), compute_uv=False)[0]
    return s[..., 2] / s[..., 0]


# the checks factor_congruence makes before the orthogonality of the factor points
EARLIER_CHECKS = {
    NotMultiCongruence: r"line grid is not a multi-congruence",
    PlanarFamily: r"lines of (row|column) \d+ lie in a plane",
    SkewLines: r"lines span rank 4",
    IdenticalLines: r"lines coincide",
}
MOVED_GRIDS = dict(
    kind=st.sampled_from(["lie", "pluecker"]),
    nu=st.integers(2, 5),
    nv=st.integers(2, 5),
    cell=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    seed=st.integers(0, 2**16),
)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(mode=st.sampled_from(["first", "second", "neither", "next i", "next j"]),
       log_delta=st.floats(-6.0, -1.0), **MOVED_GRIDS)
def test_a_cell_line_off_its_factor_points_fails_an_earlier_check(mode, log_delta, kind, nu, nv, cell, seed):
    """A cell line that stays isotropic but misses a factor point, by 1e-6
    or more, fails a check that runs before the orthogonality of the factor
    points, with that check's own type and message: the per-cell span check
    those grids would reach cannot fire."""
    g = factor_grid(kind, nu, nv, seed)
    i, j = cell[0] % nu, cell[1] % nv
    lines = moved_cell(g, i, j, mode, 10.0**log_delta, seed)
    moved = IsoLineGrid(lines, g.form)
    assert cell_residuals(lines, *factor_congruence(g))[i, j] > 1e-3 * 10.0**log_delta
    with pytest.raises(tuple(EARLIER_CHECKS)) as raised:
        factor_congruence(moved)
    assert re.fullmatch(EARLIER_CHECKS[type(raised.value)], str(raised.value))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(mode=st.sampled_from(["first", "second", "neither"]), log_delta=st.floats(-11.0, -7.0), **MOVED_GRIDS)
def test_inside_the_rank_band_factors_lie_on_every_cell_line(mode, log_delta, kind, nu, nv, cell, seed):
    """A cell line moved by 1e-11 to 1e-7, inside the RANK_RTOL band: the
    grid fails one of the kept checks, or its factor points lie on every
    cell line to within 10 RANK_RTOL."""
    g = factor_grid(kind, nu, nv, seed)
    lines = moved_cell(g, cell[0] % nu, cell[1] % nv, mode, 10.0**log_delta, seed)
    moved = IsoLineGrid(lines, g.form)
    try:
        s1, s2 = factor_congruence(moved)
    except NotMultiCongruence as err:
        assert re.fullmatch(r"line grid is not a multi-congruence|factor points at \(\d,\d\) are not orthogonal",
                            str(err))
        return
    assert np.max(cell_residuals(lines, s1, s2)) <= 10 * RANK_RTOL


def svd_restricted_norm(pair, form):
    """Reference for one spanning pair (2, d) of nonzero rows: the Frobenius
    norm of the form restricted to the orthonormal basis from the SVD of the
    normalized rows, its second row dropped at rank 1."""
    _, basis, kept = span_svd(pair)
    basis = basis * kept[:, None]
    return np.linalg.norm(basis * form.diagonal @ basis.T)


def svd_isotropic(pair, form):
    return bool(svd_restricted_norm(pair, form) <= QUADRIC_RTOL)


def accepts(pair, form):
    """IsoLineGrid's verdict on the one-line grid of pair."""
    try:
        IsoLineGrid(np.asarray(pair)[None, None], form)
    except NotOnQuadric:
        return False
    return True


@pytest.mark.parametrize("inner, isotropic", [(1e-6, False), (1e-12, True)])
def test_line_isotropy_does_not_depend_on_its_spanning_pair(inner, isotropic):
    """A torus contact line spanned by unit a, b with <a, b> = inner, given
    as (a, b) and as (a, a + 1e-4 b): both spellings get the same verdict,
    the verdict of the SVD basis."""
    a, b = torus_contact_grid(2.0, 0.5, [0.3], [0.4]).lines[0, 0]
    b = _nudged(b, np.empty((0, 6)), a, eps=inner)
    assert np.isclose(LIE.eval(a, b), inner, rtol=1e-3, atol=0)
    for pair in ([a, b], [a, a + 1e-4 * b]):
        assert svd_isotropic(np.array(pair), LIE) is isotropic
        lines = np.array(pair)[None, None]
        if isotropic:
            IsoLineGrid(lines, LIE)
        else:
            with pytest.raises(NotOnQuadric, match="not isotropic"):
                IsoLineGrid(lines, LIE)


def test_isotropy_near_the_rank_threshold_is_the_svd_verdict():
    """Pairs of points on the quadric whose sine sits within a factor of 3
    of RANK_RTOL (1 + |c|), of isotropic torus contact lines and of secants
    of the quadric, with c of either sign: IsoLineGrid accepts exactly where
    the SVD basis does.  Pairs of rank 2 that close are rejected by both,
    the direction w / sine being rounding there."""
    rng = np.random.default_rng(26)
    us, vs = rng.uniform(0, 6, 60), rng.uniform(-1.2, 1.2, 60)
    ratios, verdicts = [], []
    for k, (u, v) in enumerate(zip(us, vs)):
        a, t = normalize(torus_contact_grid(2.0, 0.5, [u], [v]).lines[0, 0])
        if k % 2:
            t = on_cone(a + rng.normal(size=6), LIE)
        t = t - (t @ a) * a
        t /= np.linalg.norm(t)
        sine = 10 ** rng.uniform(-np.log10(3), np.log10(3)) * RANK_RTOL * 2
        sign = 1.0 if k % 4 < 2 else -1.0
        b = on_cone(sign * np.sqrt(1 - sine**2) * a + sine * t, LIE)
        b /= np.linalg.norm(b)
        c = a @ b
        ratios.append(np.linalg.norm(b - c * a) / (RANK_RTOL * (1 + abs(c))))
        verdicts.append(accepts([a, b], LIE))
        assert verdicts[-1] == svd_isotropic(np.array([a, b]), LIE)
    ratios = np.array(ratios)
    assert np.all((ratios > 1 / 3.5) & (ratios < 3.5))
    assert np.any(ratios < 1) and np.any(ratios > 1)
    assert verdicts == (ratios <= 1).tolist()


def test_isotropy_near_the_quadric_threshold_is_the_svd_verdict():
    """Torus contact lines (a, b) with b moved off the quadric so that the
    restricted form has a Frobenius norm within a factor of 3 of
    QUADRIC_RTOL, given as (a, b) and as (a, a + 1e-4 b): IsoLineGrid
    accepts exactly where the SVD basis does, on both sides of the threshold."""
    rng = np.random.default_rng(27)
    seen = set()
    for u, v in zip(rng.uniform(0, 6, 40), rng.uniform(-1.2, 1.2, 40)):
        a, b = normalize(torus_contact_grid(2.0, 0.5, [u], [v]).lines[0, 0])
        n = rng.normal(size=6)
        # the restricted form is linear in a small move of b
        slope = svd_restricted_norm(np.array([a, b + 1e-6 * n]), LIE) / 1e-6
        b = b + 10 ** rng.uniform(-np.log10(3), np.log10(3)) * QUADRIC_RTOL / slope * n
        for pair in (np.array([a, b]), np.array([a, a + 1e-4 * b])):
            want = svd_isotropic(pair, LIE)
            assert accepts(pair, LIE) == want
            seen.add(want)
    assert seen == {True, False}



def test_planar_family_lines_through_point(rng):
    pt = np.array([0.5, -0.3, 1.0])
    dirs = rng.normal(size=(6, 3))
    embeds = np.stack([normalize(pluecker_embed(pt, pt + d)) for d in dirs])
    grid = from_generators(embeds[:3], embeds[3:], PLUECKER)
    assert is_multi_congruence(grid)
    with pytest.raises(PlanarFamily):
        factor_congruence(grid)


def test_factor_requires_congruence(rng):
    lines = np.empty((2, 2, 2, 6))
    for i in range(2):
        for j in range(2):
            p = rng.uniform(-1, 1, 3)
            n = rng.normal(size=3)
            lines[i, j] = contact_element(p, n / np.linalg.norm(n))
    with pytest.raises(NotMultiCongruence):
        factor_congruence(IsoLineGrid(lines, LIE))


# -- classification ------------------------------------------------------------


def test_torus_contact_elements_classify_dupin_cyclide():
    g = torus_contact_grid(2.0, 0.5, [0.2, 1.1, 2.0, 3.2], [-0.8, -0.1, 0.6, 1.2])
    assert classify_congruence(g).kind == CongruenceClass.DUPIN_CYCLIDE


def test_hyperboloid_rulings_classify():
    g = hyperboloid_ruling_grid(
        [-1.0, 0.3, 1.2, 2.0, 2.7], [-0.5, 0.5, 1.5, 2.5, 3.0]
    )
    assert classify_congruence(g).kind == CongruenceClass.HYPERBOLOID


def test_two_member_family_degenerate():
    g = torus_contact_grid(2.0, 0.5, [0.2, 1.1], [-0.8, -0.1, 0.6, 1.2])
    assert classify_congruence(g).kind == CongruenceClass.DEGENERATE


# -- pluecker embedding ----------------------------------------------------------


def test_axes_meet_at_origin():
    e1 = pluecker_embed([0, 0, 0], [1, 0, 0])
    e2 = pluecker_embed([0, 0, 0], [0, 1, 0])
    assert abs(bilinear_eval(PLUECKER, e1, e2)) < 1e-12


def test_skew_lines_not_orthogonal():
    e1 = pluecker_embed([0, 0, 0], [1, 0, 0])
    e2 = pluecker_embed([0, 1, 0], [0, 1, 1])
    assert abs(bilinear_eval(PLUECKER, e1, e2)) > 0.5


def test_embedding_isotropic(rng):
    for _ in range(50):
        p, q = rng.uniform(-2, 2, (2, 3))
        e = pluecker_embed(p, q)
        assert abs(bilinear_eval(PLUECKER, e, e)) < 1e-10 * np.dot(e, e)


def test_embedding_rejects_coincident_points():
    with pytest.raises(CoincidentPoints):
        pluecker_embed([1, 2, 3], [1, 2, 3])


def test_intersection_predicate_matches_3d_oracle(rng):
    agree = 0
    for trial in range(200):
        if trial % 2 == 0:
            # intersecting pair through a common point
            x = rng.uniform(-2, 2, 3)
            d1, d2 = rng.normal(size=(2, 3))
            p1, p2 = x - 0.7 * d1, x + 1.3 * d2
            q1, q2 = x + 0.9 * d1, x - 0.8 * d2
        else:
            p1, q1, p2, q2 = rng.uniform(-2, 2, (4, 3))
        e1 = pluecker_embed(p1, q1)
        e2 = pluecker_embed(p2, q2)
        val = bilinear_eval(PLUECKER, e1, e2)
        pred = abs(val) < 1e-9 * np.linalg.norm(e1) * np.linalg.norm(e2)
        oracle = lines_intersect_3d(p1, q1 - p1, p2, q2 - p2)
        agree += int(pred == oracle)
    assert agree == 200


def test_grid_validation_rejects_non_isotropic():
    lines = np.zeros((1, 1, 2, 6))
    lines[0, 0, 0] = [1, 0, 0, 0, 0, 0]  # not isotropic
    lines[0, 0, 1] = [0, 0, 1, 0, 0, 1]
    with pytest.raises(NotOnQuadric):
        IsoLineGrid(lines, PLUECKER)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0, 0, 0), (1, 2, 1, 4), (2, 1, 0, 5)])
def test_non_finite_spanning_point_raises_non_finite(bad, entry):
    """A NaN or an infinity is caught before the isotropy test (before: a NaN
    grid was accepted and an infinite one raised numpy's LinAlgError)."""
    lines = hyperboloid_ruling_grid([-1, 0, 1], [-1, 0.5, 2]).lines.copy()
    lines[entry] = bad
    where = ", ".join(map(str, entry[:3]))
    with pytest.raises(NonFiniteCoordinate, match=rf"spanning point \({where}\)"):
        IsoLineGrid(lines, PLUECKER)


@pytest.mark.parametrize("normal", [[0.0, 0.0, 0.0], [[0, 0, 1.0], [0.0, 0.0, 0.0]]])
def test_lie_plane_rep_of_a_zero_normal_raises_zero_vector(normal):
    with pytest.raises(ZeroVector):
        lie_plane_rep(normal, 1.0)


def test_embedding_checks_every_row_of_a_stack():
    p = np.array([[0.0, 0, 0], [1, 2, 3], [0, 1, 0]])
    q = np.array([[1.0, 0, 0], [1, 2, 3], [0, 1, 1]])
    with pytest.raises(CoincidentPoints):
        pluecker_embed(p, q)
    with pytest.raises(DimensionMismatch):
        pluecker_embed(p[:, :2], q[:, :2])
    with pytest.raises(DimensionMismatch):
        pluecker_embed(1.0, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("a, b", [(0.5, [1.0, 2.0]), ([1.0, 2.0], 0.5), ([[1.0, 2.0]], [1.0, 2.0])])
def test_hyperboloid_ruling_grid_needs_lists_of_parameters(a, b):
    with pytest.raises(DimensionMismatch, match="1-d arrays of parameters"):
        hyperboloid_ruling_grid(a, b)


@pytest.mark.parametrize("us, vs", [(0.3, [1.0, 2.0]), ([1.0, 2.0], 0.3), ([[1.0, 2.0]], [1.0, 2.0])])
def test_torus_contact_grid_needs_lists_of_angles(us, vs):
    with pytest.raises(DimensionMismatch, match="1-d arrays of angles"):
        torus_contact_grid(2.0, 0.5, us, vs)


def grid_6x6(kind):
    """A 6x6 torus contact grid (Lie) or hyperboloid ruling grid (Pluecker)
    with the class it has."""
    if kind == "lie":
        return (torus_contact_grid(2.0, 0.5, np.linspace(0.0, 2.5, 6), np.linspace(-1.2, 0.8, 6)),
                CongruenceClass.DUPIN_CYCLIDE)
    return (hyperboloid_ruling_grid(np.linspace(-2.0, 1.0, 6), np.linspace(-1.5, 1.5, 6)),
            CongruenceClass.HYPERBOLOID)


@pytest.mark.parametrize("kind", ["lie", "pluecker"])
def test_classifying_a_6x6_congruence_makes_six_svd_calls(kind, svd_shapes):
    """Each rank question is answered once: the passing multi-congruence
    listing and its identical-lines check (_pair_span) run no SVD; then one
    SVD per family of rows and of columns, one per meet_lines call (its line
    ranks from _pair_span, its four-point rank off the meet's own SVD) and
    one per factor span.  No cell is checked by rank: every cell line holds
    both factor points once the checks before pass."""
    g, want = grid_6x6(kind)
    assert classify_congruence(g).kind == want
    assert svd_shapes == [(6, 12, 6), (6, 12, 6), (6, 6, 4), (6, 6, 4), (6, 6), (6, 6)]


@pytest.mark.parametrize("kind", ["lie", "pluecker"])
def test_building_a_6x6_grid_runs_no_svd(kind, svd_shapes):
    """IsoLineGrid tests isotropy on the closed-form basis of _pair_span."""
    grid_6x6(kind)
    assert svd_shapes == []


@pytest.mark.parametrize(
    "s1, s2",
    [(np.ones((2, 5)), np.ones((2, 5))), (np.ones((2, 5)), np.ones((2, 6))),
     (np.ones((2, 6)), np.ones((3, 5))), (np.ones((2, 3, 6)), np.ones((2, 6)))],
    ids=["both dimension 5", "first dimension 5", "second dimension 5", "first of shape (2, 3, 6)"],
)
def test_from_generators_names_the_expected_family_shape(s1, s2):
    """A family of the wrong dimension or shape raises DimensionMismatch
    (before: numpy's ValueError from the broadcast into the grid)."""
    with pytest.raises(DimensionMismatch, match=r"expected families of shape \(k, 6\)"):
        from_generators(s1, s2, LIE)
