import numpy as np
import pytest

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
    ZeroVector,
)
from multinets.projective import (
    LIE,
    PLUECKER,
    RANK_RTOL,
    ProjLine,
    bilinear_eval,
    normalize,
    proj_distance,
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


@pytest.mark.parametrize("inner, isotropic", [(1e-6, False), (1e-12, True)])
def test_line_isotropy_does_not_depend_on_its_spanning_pair(inner, isotropic):
    """A torus contact line spanned by unit a, b with <a, b> = inner, given
    as (a, b) and as (a, a + 1e-4 b): both spellings get the same verdict."""
    a, b = torus_contact_grid(2.0, 0.5, [0.3], [0.4]).lines[0, 0]
    b = _nudged(b, np.empty((0, 6)), a, eps=inner)
    assert np.isclose(LIE.eval(a, b), inner, rtol=1e-3, atol=0)
    for pair in ([a, b], [a, a + 1e-4 * b]):
        lines = np.array(pair)[None, None]
        if isotropic:
            IsoLineGrid(lines, LIE)
        else:
            with pytest.raises(NotOnQuadric, match="not isotropic"):
                IsoLineGrid(lines, LIE)


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
    """A NaN or an infinity is caught before the isotropy SVD (before: a NaN
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


@pytest.mark.parametrize("kind", ["lie", "pluecker"])
def test_classifying_a_6x6_congruence_makes_seven_svd_calls(kind, monkeypatch):
    """Each rank question is answered once: the passing multi-congruence
    listing and its identical-lines check (_pair_span) run no SVD; then one
    SVD per family of rows and of columns, one per meet_lines call (its line
    ranks from _pair_span, its four-point rank off the meet's own SVD), one
    over the cells and one per factor span."""
    if kind == "lie":
        g = torus_contact_grid(2.0, 0.5, np.linspace(0.0, 2.5, 6), np.linspace(-1.2, 0.8, 6))
        want = CongruenceClass.DUPIN_CYCLIDE
    else:
        g = hyperboloid_ruling_grid(np.linspace(-2.0, 1.0, 6), np.linspace(-1.5, 1.5, 6))
        want = CongruenceClass.HYPERBOLOID
    svd, shapes = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert classify_congruence(g).kind == want
    assert shapes == [(6, 12, 6), (6, 12, 6), (6, 6, 4), (6, 6, 4), (6, 6, 4, 6), (6, 6), (6, 6)]
