import re

import numpy as np
import pytest

from conftest import nets_proj_equal, noisy_translation_nets, random_q_net
from multinets.errors import (
    DegenerateQuad,
    DimensionMismatch,
    GeometryError,
    InconsistentCorner,
    NonFiniteCoordinate,
    NonPlanarQuad,
    PerspectivityViolation,
    PointOffLine,
    SkewLines,
    ZeroSum,
)
from multinets.projective import (
    RANK_RTOL,
    ProjLine,
    corner_minors,
    meet_lines,
    proj_distance,
    proj_equal,
    rect_stacks,
    span_rank,
)
from multinets.subdivision import subdivide_q
from multinets.qnets import (
    _CORNER_TRIPLES,
    _CRAMER_VOLUME,
    PlaneNet,
    _unit_lstsq,
    _perspective_gauge,
    PointNet,
    all_pairs_perspectivity,
    build_qqstar_net,
    check_planar_parameter_lines,
    dualize_point_net,
    from_cauchy_homogeneous,
    from_translation,
    from_two_strips,
    has_planar_parameter_polygons,
    is_multi_q_net,
    is_multi_qstar,
    is_q_net,
    is_qstar_net,
    is_translation_net,
    laplace_data,
    laplace_gauges,
    laplace_transforms,
    laplace_transforms_degenerate,
    multi_q_violations,
    multi_qstar_violations,
    neighbor_perspectivity,
    q_violations,
    qstar_vertices,
    qstar_violations,
    translation_gauge,
)


# -- laplace data -----------------------------------------------------------


def test_laplace_parallelogram():
    ld = laplace_data([0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1])
    assert np.allclose([ld.a, ld.b, ld.c], [1, 1, 1])
    # Laplace points at infinity in the edge directions
    assert proj_equal(ld.y1, [1, 0, 0, 0])
    assert proj_equal(ld.y2, [0, 1, 0, 0])


def test_laplace_coefficients_derived():
    # 4x3 system solved by hand
    ld = laplace_data([0, 0, 0, 1], [2, 0, 0, 1], [0, 1, 0, 1], [3, 2, 0, 1])
    assert np.allclose([ld.a, ld.b, ld.c], [1.5, 2.0, 2.5])


def test_laplace_points_match_edge_meets():
    ld = laplace_data([0, 0, 0, 1], [2, 0, 0, 1], [0, 1, 0, 1], [3, 1, 0, 1])
    assert proj_equal(ld.y1, [1, 0, 0, 0])
    assert proj_equal(ld.y2, [0, -2, 0, 1])


def test_laplace_rejects_nonplanar():
    with pytest.raises(NonPlanarQuad):
        laplace_data([0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1])


def test_laplace_rejects_collinear():
    with pytest.raises(DegenerateQuad):
        laplace_data([0, 0, 0, 1], [1, 0, 0, 1], [2, 0, 0, 1], [1, 1, 0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("corner", range(4))
def test_laplace_data_of_a_non_finite_corner_raises_non_finite(bad, corner):
    quad = [[0.0, 0, 0, 1], [1.0, 0, 0, 1], [0.0, 1, 0, 1], [1.0, 1, 0, 1]]
    quad[corner][2] = bad
    with pytest.raises(NonFiniteCoordinate, match=rf"corner \({corner}\)"):
        laplace_data(*quad)


# -- planarity predicates -----------------------------------------------------


def test_rp2_net_always_q(rng):
    pts = rng.uniform(-1, 1, (4, 4, 3))
    net = PointNet(pts, ambient="RP2")
    assert is_q_net(net) and is_multi_q_net(net)
    assert q_violations(net) == [] and multi_q_violations(net) == []


@pytest.mark.parametrize("shape", [(1, 5, 4), (5, 1, 4)])
def test_single_row_nets_have_empty_reports(rng, shape):
    from multinets.circular import EuclidNet, circular_violations, multi_circular_violations

    net = PointNet(rng.uniform(-1, 1, shape))
    pn = PlaneNet(rng.uniform(-1, 1, shape))
    euclid = EuclidNet(rng.uniform(-1, 1, shape[:2] + (3,)))
    assert q_violations(net) == [] and multi_q_violations(net) == []
    assert qstar_violations(pn) == [] and multi_qstar_violations(pn) == []
    assert circular_violations(euclid) == [] and multi_circular_violations(euclid) == []


def test_translation_net_is_multi_q(rng):
    net = from_translation(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (6, 4)))
    assert is_q_net(net)
    assert is_multi_q_net(net)


def test_perturbed_net_not_q(rng):
    net = from_translation(rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (2, 4)))
    pts = net.points.copy()
    pts[1, 1, 0] += 1.0
    assert not is_q_net(PointNet(pts))


def test_generic_q_net_not_multi(rng):
    net = random_q_net(rng, 6, 6)
    assert is_q_net(net)
    assert not is_multi_q_net(net)


def test_single_planar_quad_multi():
    pts = np.array(
        [[[0, 0, 0, 1], [0, 1, 0, 1]], [[1, 0, 0, 1], [1, 2, 0, 1]]], dtype=float
    )
    assert is_multi_q_net(PointNet(pts))


# -- translation structure -----------------------------------------------------


def test_from_translation_parabola():
    p = np.array([[i, i * i, 0, 0.5] for i in range(1, 5)], dtype=float)
    q = np.array([[0, 0, j, 0.5] for j in range(1, 4)], dtype=float)
    net = from_translation(p, q)
    assert is_multi_q_net(net)


def test_from_translation_constant_q_still_multi(rng):
    p = rng.uniform(-1, 1, (4, 4))
    q = np.tile(rng.uniform(-1, 1, 4), (3, 1))
    assert is_multi_q_net(from_translation(p, q))


def test_from_translation_zero_sum():
    p = np.array([[1.0, 0, 0, 0]])
    q = np.array([[-1.0, 0, 0, 0]])
    with pytest.raises(ZeroSum):
        from_translation(p, q)


def test_from_translation_laplace_transforms_are_differences(rng):
    p = rng.uniform(-1, 1, (5, 4))
    q = rng.uniform(-1, 1, (4, 4))
    net = from_translation(p, q)
    t1, t2 = laplace_transforms(net)
    assert t1.dims == (4, 3) and t2.dims == (4, 3)
    for i in range(4):
        for j in range(3):
            assert proj_distance(t1.points[i, j], p[i + 1] - p[i]) <= 1e-8
            assert proj_distance(t2.points[i, j], q[j + 1] - q[j]) <= 1e-8


def test_from_cauchy_integer_grid():
    e1 = np.array([[1.0, 0, 0, 0]] * 3)
    e2 = np.array([[0.0, 1, 0, 0]] * 3)
    net = from_cauchy_homogeneous(e1, e2, [0, 0, 0, 1])
    for i in range(4):
        for j in range(4):
            assert proj_equal(net.points[i, j], [i, j, 0, 1])


def test_from_cauchy_random_multi_q():
    rng = np.random.default_rng(42)
    y1 = rng.uniform(-1, 1, (5, 4))
    y2 = rng.uniform(-1, 1, (5, 4))
    net = from_cauchy_homogeneous(y1, y2, rng.uniform(-1, 1, 4))
    assert is_multi_q_net(net)


def test_cauchy_roundtrip_via_gauge(rng):
    net = from_translation(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 4)))
    x00, y1, y2 = translation_gauge(net)
    rebuilt = from_cauchy_homogeneous(y1, y2, x00)
    assert nets_proj_equal(net, rebuilt)


@pytest.mark.parametrize("nu, nv", [(2, 2), (2, 7), (8, 3), (16, 16)])
def test_cauchy_roundtrip_via_gauge_sizes(rng, nu, nv):
    net = from_translation(rng.uniform(-1, 1, (nu, 4)), rng.uniform(-1, 1, (nv, 4)))
    x00, y1, y2 = translation_gauge(net)
    assert y1.shape == (nu - 1, 4) and y2.shape == (nv - 1, 4)
    assert nets_proj_equal(net, from_cauchy_homogeneous(y1, y2, x00))


def test_cauchy_roundtrip_via_gauge_integer_grid():
    pts = np.array([[[i, j, 0, 1] for j in range(5)] for i in range(4)], dtype=float)
    x00, y1, y2 = translation_gauge(PointNet(pts))
    assert nets_proj_equal(from_cauchy_homogeneous(y1, y2, x00), PointNet(pts))


# -- two-strip Cauchy problem ----------------------------------------------------


def test_two_strips_reconstruct_translation_net(rng):
    net = from_translation(rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (5, 4)))
    strip1 = PointNet(net.points[0:2])
    strip2 = PointNet(net.points[:, 0:2])
    assert nets_proj_equal(from_two_strips(strip1, strip2), net, 1e-7)


def test_two_strips_integer_grid():
    pts = np.array(
        [[[i, j, 0, 1] for j in range(5)] for i in range(6)], dtype=float
    )
    net = PointNet(pts)
    rebuilt = from_two_strips(PointNet(pts[0:2]), PointNet(pts[:, 0:2]))
    assert nets_proj_equal(rebuilt, net)


def test_two_strips_perspectivity_violation(rng):
    net = from_translation(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 4)))
    bad = net.points[0:2].copy()
    bad[1, 2] += 0.2
    with pytest.raises(PerspectivityViolation):
        from_two_strips(PointNet(bad), PointNet(net.points[:, 0:2]))


def test_two_strips_inconsistent_corner(rng):
    net = from_translation(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 4)))
    other = net.points[:, 0:2].copy()
    other[0, 0] = rng.uniform(-1, 1, 4)
    with pytest.raises(InconsistentCorner):
        from_two_strips(PointNet(net.points[0:2]), PointNet(other))


@pytest.mark.parametrize(
    "broken, named",
    [
        ([(0, 0)], "(0,0)"),
        ([(1, 1), (1, 0)], "(1,0)"),
        ([(1, 1), (0, 1)], "(0,1)"),
        ([(0, 1), (1, 0)], "(1,0)"),
        ([(1, 1)], "(1,1)"),
    ],
)
def test_two_strips_name_the_first_failing_corner(broken, named, rng):
    """Corners are checked in the order (0,0), (1,0), (0,1), (1,1)."""
    net = from_translation(rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (4, 4)))
    other = net.points[:, 0:2].copy()
    for ij in broken:
        other[ij] = rng.uniform(-1, 1, 4)
    with pytest.raises(InconsistentCorner, match=re.escape(f"strips disagree at corner {named}")):
        from_two_strips(PointNet(net.points[0:2]), PointNet(other))


# -- laplace transforms ------------------------------------------------------------


def test_integer_grid_transforms_at_infinity():
    pts = np.array(
        [[[i, j, 0, 1] for j in range(4)] for i in range(4)], dtype=float
    )
    t1, t2 = laplace_transforms(PointNet(pts))
    for i in range(3):
        for j in range(3):
            assert proj_equal(t1.points[i, j], [1, 0, 0, 0])
            assert proj_equal(t2.points[i, j], [0, 1, 0, 0])


def test_generic_net_transforms_vary(rng):
    net = random_q_net(rng, 5, 5)
    assert not laplace_transforms_degenerate(net)


# -- Thm-equivalence cross-checks ----------------------------------------------------


def test_equivalence_on_translation_nets():
    rng = np.random.default_rng(101)
    for _ in range(10):
        net = from_translation(
            rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (6, 4))
        )
        assert is_multi_q_net(net)
        assert neighbor_perspectivity(net)
        assert all_pairs_perspectivity(net)
        assert laplace_transforms_degenerate(net)
        assert is_translation_net(net)


def test_equivalence_on_generic_q_nets():
    rng = np.random.default_rng(102)
    for _ in range(10):
        net = random_q_net(rng, 6, 6)
        assert not is_multi_q_net(net)
        assert not neighbor_perspectivity(net)
        assert not all_pairs_perspectivity(net)
        assert not laplace_transforms_degenerate(net)
        assert not is_translation_net(net)


def test_projective_invariance(rng):
    net = from_translation(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 4)))
    gen = random_q_net(rng, 5, 5)
    for _ in range(5):
        m = rng.normal(size=(4, 4))
        while abs(np.linalg.det(m)) < 0.1:
            m = rng.normal(size=(4, 4))
        assert is_multi_q_net(PointNet(net.points @ m.T))
        timg = PointNet(gen.points @ m.T)
        assert is_q_net(timg) and not is_multi_q_net(timg)


# -- Q*-nets ----------------------------------------------------------------------


def test_duality_translation_net(rng):
    net = from_translation(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 4)))
    dual = dualize_point_net(net)
    assert is_qstar_net(dual)
    assert is_multi_qstar(dual)
    assert check_planar_parameter_lines(dual)


def test_duality_generic_q_net(rng):
    dual = dualize_point_net(random_q_net(rng, 5, 5))
    assert is_qstar_net(dual)
    assert not is_multi_qstar(dual)


def test_random_planes_not_multi_qstar(rng):
    pn = PlaneNet(rng.uniform(-1, 1, (5, 5, 4)))
    assert not is_multi_qstar(pn)
    assert not check_planar_parameter_lines(pn)


def test_planes_through_common_point_multi_qstar(rng):
    cov = rng.uniform(-1, 1, (4, 4, 4))
    x0 = np.array([0.3, 0.5, -0.2])
    cov[..., 3] = cov[..., 0] * x0[0] + cov[..., 1] * x0[1] + cov[..., 2] * x0[2]
    assert is_multi_qstar(PlaneNet(cov))


def _pencil_plane_net():
    """4 x 4 planes of one pencil: every quad has a whole common line."""
    a = np.array([1.0, 0, 0, 0.3])
    b = np.array([0, 1.0, 0, -0.2])
    cov = np.empty((4, 4, 4))
    for i in range(4):
        for j in range(4):
            t = 0.3 * i + 0.7 * j + 0.1
            cov[i, j] = np.cos(t) * a + np.sin(t) * b
    return PlaneNet(cov)


def test_pencil_planes_planar_parameter_lines():
    pn = _pencil_plane_net()
    assert is_multi_qstar(pn)
    assert check_planar_parameter_lines(pn)


def test_multi_qstar_iff_planar_parameter_lines(rng):
    for _ in range(10):
        net = from_translation(rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (6, 4)))
        dual = dualize_point_net(net)
        assert is_multi_qstar(dual) == check_planar_parameter_lines(dual)
    for _ in range(10):
        dual = dualize_point_net(random_q_net(rng, 6, 6))
        assert is_multi_qstar(dual) == check_planar_parameter_lines(dual)


def _qstar_vertex_loop(pn):
    """Reference: one SVD per elementary plane quad, row by row."""
    h = pn.homogeneous()
    nu, nv = pn.dims
    verts = [[None] * (nv - 1) for _ in range(nu - 1)]
    for i in range(nu - 1):
        for j in range(nv - 1):
            quad = np.stack([h[i, j], h[i + 1, j], h[i + 1, j + 1], h[i, j + 1]])
            _, s, vh = np.linalg.svd(quad / np.linalg.norm(quad, axis=1, keepdims=True))
            r = int(np.sum(s > RANK_RTOL * s[0]))
            if r > 3:
                raise NonPlanarQuad(f"planes of quad ({i},{j}) are not concurrent")
            if r == 3:
                verts[i][j] = vh[-1]
    return verts


def test_qstar_vertices_equal_per_quad_svd(rng):
    nets = [
        dualize_point_net(random_q_net(rng, 5, 6)),
        dualize_point_net(from_translation(rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (3, 4)))),
        _pencil_plane_net(),
    ]
    for pn in nets:
        got, want = qstar_vertices(pn), _qstar_vertex_loop(pn)
        assert [[v is None for v in row] for row in got] == [[v is None for v in row] for row in want]
        for g, w in zip(sum(got, []), sum(want, [])):
            assert g is None or proj_distance(g, w) <= 1e-12
    assert all(v is None for v in sum(qstar_vertices(nets[2]), []))


def test_qstar_vertices_name_the_first_nonconcurrent_quad_in_row_major_order(rng):
    # planes (1,4) and (3,1) spoil quads (0..1, 3..4) and (2..3, 0..1);
    # column-major order would name quad (2,0)
    cov = dualize_point_net(random_q_net(rng, 5, 6)).covectors.copy()
    cov[1, 4] += 0.3
    cov[3, 1] += 0.3
    pn = PlaneNet(cov)
    for vertices in (qstar_vertices, _qstar_vertex_loop):
        with pytest.raises(NonPlanarQuad, match=r"^planes of quad \(0,3\) are not concurrent$"):
            vertices(pn)


# -- (Q + Q*)-nets ------------------------------------------------------------------


def test_qqstar_axes_at_infinity():
    line1 = ProjLine([1, 0, 0, 0], [0, 1, 0, 0])
    line2 = ProjLine([0, 0, 1, 0], [0, 0, 0, 1])
    y1 = [[np.cos(t), np.sin(t), 0, 0] for t in (0.1, 0.5, 1.1, 1.7)]
    y2 = [[0, 0, np.cos(t), np.sin(t)] for t in (0.2, 0.8, 1.3)]
    net = build_qqstar_net(line1, line2, y1, y2, [1, 1, 1, 1])
    assert net.dims == (5, 4)
    assert is_multi_q_net(net)
    assert has_planar_parameter_polygons(net)


def test_qqstar_random_skew_lines():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, (4, 4))
    line1 = ProjLine(pts[0], pts[1])
    line2 = ProjLine(pts[2], pts[3])
    assert span_rank(pts) == 4
    y1 = rng.uniform(-1, 1, (6, 2)) @ np.stack([line1.a, line1.b])
    y2 = rng.uniform(-1, 1, (6, 2)) @ np.stack([line2.a, line2.b])
    net = build_qqstar_net(line1, line2, y1, y2, rng.uniform(-1, 1, 4))
    assert is_multi_q_net(net)
    assert has_planar_parameter_polygons(net)
    # all Laplace points land on the carrier lines
    t1, t2 = laplace_transforms(net)
    for i in range(t1.dims[0]):
        for j in range(t1.dims[1]):
            assert line1.contains(t1.points[i, j])
            assert line2.contains(t2.points[i, j])
    # parameter-line planes form pencils: every row plane contains line2,
    # every column plane contains line1
    nu, nv = net.dims
    for i in range(nu):
        assert span_rank(np.concatenate([net.points[i], line2.span])) == 3
    for j in range(nv):
        assert span_rank(np.concatenate([net.points[:, j], line1.span])) == 3


def test_qqstar_point_off_line():
    line1 = ProjLine([1, 0, 0, 0], [0, 1, 0, 0])
    line2 = ProjLine([0, 0, 1, 0], [0, 0, 0, 1])
    with pytest.raises(PointOffLine):
        build_qqstar_net(line1, line2, [[0, 0, 1, 1]], [[0, 0, 1, 0]], [1, 1, 1, 1])


@pytest.mark.parametrize(
    "y1, x00",
    [
        ([[1.0, 2.0, 3.0]], [1, 1, 1, 1]),
        ([[1.0, 2.0, 0.0, 0.0]], [1.0, 1.0, 1.0]),
    ],
    ids=["sample", "x00"],
)
def test_qqstar_coordinate_count_off_the_lines_raises_dimension_mismatch(y1, x00):
    """Before: numpy's ValueError from a broadcast or a ragged stack."""
    line1 = ProjLine([1, 0, 0, 0], [0, 1, 0, 0])
    line2 = ProjLine([0, 0, 1, 0], [0, 0, 0, 1])
    with pytest.raises(DimensionMismatch):
        build_qqstar_net(line1, line2, y1, [[0, 0, 1, 1]], x00)


def test_qqstar_carrier_lines_of_different_dimension_raise_dimension_mismatch():
    line1 = ProjLine([1, 0, 0, 0], [0, 1, 0, 0])
    line2 = ProjLine([0, 0, 1, 0, 0], [0, 0, 0, 1, 0])
    with pytest.raises(DimensionMismatch):
        build_qqstar_net(line1, line2, [[1, 1, 0, 0]], [[0, 0, 1, 1, 0]], [1, 1, 1, 1])


def test_qqstar_requires_skew_lines():
    line1 = ProjLine([1, 0, 0, 0], [0, 1, 0, 0])
    line2 = ProjLine([1, 0, 0, 0], [0, 0, 1, 0])
    with pytest.raises(SkewLines):
        build_qqstar_net(line1, line2, [[1, 0, 0, 0]], [[0, 0, 1, 0]], [0, 0, 0, 1])


def test_from_cauchy_zero_sum():
    y1 = np.array([[1.0, 0, 0, 0]])
    y2 = np.array([[0.0, 1, 0, 0]])
    with pytest.raises(ZeroSum):
        from_cauchy_homogeneous(y1, y2, [-1.0, -1.0, 0, 0])


# -- batched kernels against scalar oracles ------------------------------------------


def _perspective_by_loop(net, pairs):
    """Pair-by-pair perspectivity with plain numpy svd and eigh: the root sum
    of squared sines from the best common point to the joins, formed from
    the off-join components, at most RANK_RTOL for every pair."""
    p = net.points
    d = p.shape[-1]
    for grid in (p, p.swapaxes(0, 1)):
        for i0, i1 in pairs(grid.shape[0]):
            bases = []
            for a, b in zip(grid[i0], grid[i1]):
                m = np.stack([a / np.linalg.norm(a), b / np.linalg.norm(b)])
                _, s, vh = np.linalg.svd(m)
                if s[1] > RANK_RTOL * s[0]:
                    bases.append(vh[:2])
            if len(bases) < 2:
                continue
            v = np.linalg.eigh(sum(np.eye(d) - q.T @ q for q in bases))[1][:, 0]
            if np.sqrt(sum(np.sum((v - q.T @ (q @ v)) ** 2) for q in bases)) > RANK_RTOL:
                return False
    return True


def _neighbor_pairs(n):
    return [(i, i + 1) for i in range(n - 1)]


def _all_pairs(n):
    return [(i0, i1) for i0 in range(n) for i1 in range(i0 + 1, n)]


def _nets_with_repeated_points(rng):
    """Translation and generic Q-nets where some points of two parameter
    polygons coincide projectively, so their joins are rank-1 spans."""
    nets = []
    for _ in range(4):
        net = from_translation(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (6, 4)))
        pts = net.points.copy()
        pts[3] = -2.0 * pts[1]  # a repeated row: no join of rows 1 and 3 counts
        nets.append(PointNet(pts))
        pts = random_q_net(rng, 5, 5).points.copy()
        pts[2, 1] = 3.0 * pts[1, 1]
        pts[4, 3] = 0.5 * pts[0, 3]
        nets.append(PointNet(pts))
        pts = random_q_net(rng, 4, 2).points.copy()
        pts[1, 0] = pts[0, 0]  # rows 0 and 1 keep a single join
        nets.append(PointNet(pts))
    return nets


def test_batched_perspectivity_equals_pair_loop(rng):
    nets = [
        from_translation(rng.uniform(-1, 1, (n, 4)), rng.uniform(-1, 1, (m, 4)))
        for n, m in [(5, 5), (6, 4), (3, 7), (8, 8)]
    ]
    nets += [random_q_net(rng, n, m) for n, m in [(5, 5), (6, 4), (3, 7), (8, 8)]]
    nets += _nets_with_repeated_points(rng)
    # within a sine of about 1e-7 of perspective: past RANK_RTOL
    nets += noisy_translation_nets(3e-8, count=4)
    # near RANK_RTOL: most keep their neighbouring pairs in perspective and
    # lose some farther pair, so the two predicates part
    nets += noisy_translation_nets(1e-10)
    verdicts = []
    for net in nets:
        verdicts.append(tuple(
            predicate(net) for predicate in (neighbor_perspectivity, all_pairs_perspectivity)
        ))
        assert verdicts[-1] == (_perspective_by_loop(net, _neighbor_pairs), _perspective_by_loop(net, _all_pairs))
    assert {(True, True), (True, False), (False, False)} <= set(verdicts)


def test_laplace_transforms_equal_edge_line_meets(rng):
    nets = [from_translation(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (4, 4)))]
    nets += [random_q_net(rng, 5, 6) for _ in range(3)]
    for net in nets:
        t1, t2 = laplace_transforms(net)
        nu, nv = net.dims
        for i in range(nu - 1):
            for j in range(nv - 1):
                x00, x10, x01, x11 = net.quad(i, j)
                y1 = meet_lines(ProjLine(x00, x10), ProjLine(x01, x11))
                y2 = meet_lines(ProjLine(x00, x01), ProjLine(x10, x11))
                assert proj_distance(t1.points[i, j], y1) < 1e-9
                assert proj_distance(t2.points[i, j], y2) < 1e-9


def _broken_quads_net(nonplanar, degenerate):
    """Translation net 6x6 with a non-planar quad whose far corner is moved
    off its plane, and a degenerate quad whose far corner is moved onto the
    line through its neighbours (x11 = x10 + x01 - x00 with c = 0)."""
    rng = np.random.default_rng(31)
    pts = from_translation(rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (6, 4))).points.copy()
    i, j = nonplanar
    pts[i + 1, j + 1] += np.array([0.3, -0.2, 0.1, 0.25])
    i, j = degenerate
    pts[i + 1, j + 1] = pts[i + 1, j] + pts[i, j + 1]
    return PointNet(pts)


@pytest.mark.parametrize(
    "nonplanar, degenerate, first",
    [((2, 3), (4, 1), NonPlanarQuad), ((2, 3), (1, 0), DegenerateQuad)],
)
def test_laplace_transforms_raise_like_quad_by_quad(nonplanar, degenerate, first):
    net = _broken_quads_net(nonplanar, degenerate)
    nu, nv = net.dims
    expected = None
    for i in range(nu - 1):
        for j in range(nv - 1):
            try:
                laplace_data(*net.quad(i, j))
            except (NonPlanarQuad, DegenerateQuad) as exc:
                expected = exc
                break
        if expected is not None:
            break
    assert type(expected) is first
    with pytest.raises(first) as info:
        laplace_transforms(net)
    assert str(info.value) == str(expected)
    with pytest.raises(first) as info:
        laplace_transforms_degenerate(net)
    assert str(info.value) == str(expected)


# -- the translation-form gauge -----------------------------------------------------


def _perspective_gauge_by_loop(raw0, raw1, y, tol=1e-8):
    """Per-sample np.linalg.lstsq of raw1 a - raw0 b = y: the representatives
    b raw0, a raw1, or the index of the first sample past tol."""
    r0, r1 = [], []
    for k, (p0, p1) in enumerate(zip(raw0, raw1)):
        m = np.stack([p1, -p0], axis=1)
        (a, b), *_ = np.linalg.lstsq(m, y, rcond=None)
        if np.linalg.norm(m @ [a, b] - y) / np.linalg.norm(y) > tol:
            return k
        r0.append(b * p0)
        r1.append(a * p1)
    return np.array(r0), np.array(r1)


def test_perspective_gauge_equals_lstsq_loop(rng):
    cases = []
    for n in (2, 5, 9):
        y = rng.uniform(-1, 1, 4)
        r0 = rng.uniform(-1, 1, (n, 4))
        scales = rng.uniform(0.5, 2.0, (2, n, 1)) * rng.choice([-1, 1], (2, n, 1))
        raw0, raw1 = scales[0] * r0, scales[1] * (r0 + y)
        cases.append((raw0, raw1, y))
        bad = raw1.copy()
        bad[n // 2] += 1e-3 * rng.normal(size=4)
        cases.append((raw0, bad, y))
    outcomes = []
    for raw0, raw1, y in cases:
        want = _perspective_gauge_by_loop(raw0, raw1, y)
        if isinstance(want, int):
            with pytest.raises(PerspectivityViolation, match=f"sample {want} "):
                _perspective_gauge(raw0, raw1, y)
        else:
            r0, r1 = _perspective_gauge(raw0, raw1, y)
            assert np.allclose(r0, want[0], rtol=1e-12, atol=1e-12)
            assert np.allclose(r1, want[1], rtol=1e-12, atol=1e-12)
            assert np.allclose(r1 - r0, y, rtol=1e-12, atol=1e-12)
        outcomes.append(isinstance(want, int))
    assert outcomes == [False, True] * 3


# -- the two-column solve ----------------------------------------------------------

U = np.finfo(float).eps / 2


def _svd_lstsq_reference(m, rhs):
    """The SVD solve of _unit_lstsq on every system, as before the closed
    form: lstsq's default cutoff on unit columns."""
    norms = np.linalg.norm(m, axis=-2)
    unit_m = m / norms[..., None, :]
    u, s, vh = np.linalg.svd(unit_m, full_matrices=False)
    keep = s > np.finfo(float).eps * max(m.shape[-2:]) * s[..., :1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    unit = np.einsum("...ji,...j->...i", vh, inv_s * np.einsum("...dj,...d->...j", u, rhs))
    resid = np.linalg.norm(np.einsum("...dj,...j->...d", unit_m, unit) - rhs, axis=-1)
    return unit / norms, unit, resid / np.linalg.norm(rhs, axis=-1)


def column_pairs(rng, shape, d, sine):
    """Column pairs (*shape, d, 2) at the given sines of their angles (a
    scalar or an array broadcasting against (*shape, 1)), each column scaled
    by a random factor in [1e-3, 1e3]."""
    a = rng.normal(size=(*shape, d))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    v = rng.normal(size=(*shape, d))
    v -= np.sum(v * a, axis=-1, keepdims=True) * a
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    b = np.sqrt(1.0 - sine**2) * a + sine * v
    return np.stack([a, b], axis=-1) * 10 ** rng.uniform(-3, 3, (*shape, 1, 2))


def right_hand_sides(rng, m, off):
    """Random combinations of the columns of m, moved off their span by off
    times their norm."""
    rhs = np.einsum("...dk,...k->...d", m, rng.normal(size=m.shape[:-2] + (2,)))
    q, _ = np.linalg.qr(m)
    perp = rng.normal(size=rhs.shape)
    perp -= np.einsum("...dk,...ek,...e->...d", q, q, perp)
    perp *= off * np.linalg.norm(rhs, axis=-1, keepdims=True) / np.linalg.norm(perp, axis=-1, keepdims=True)
    return rhs + perp


def assert_solves_agree(m, got, want, sine):
    """_unit_lstsq's closed form against the SVD: the unit coefficients to
    16 u (1 + rho / sine) / sine of the largest one, rho the relative
    residual (the rho / sine^2 term is the least-squares problem's own
    conditioning, which no method avoids), the coefficients of the columns
    as given to that over the column norms, and the relative residual to
    16 u / sine."""
    (coeffs, unit, resid), (ref_coeffs, ref_unit, ref_resid) = got, want
    rho = ref_resid[..., None]
    bound = 16 * U * (1 + rho / sine) / sine * np.max(np.abs(ref_unit), axis=-1, keepdims=True)
    assert np.all(np.abs(unit - ref_unit) <= bound)
    assert np.all(np.abs(coeffs - ref_coeffs) <= bound / np.linalg.norm(m, axis=-2))
    assert np.all(np.abs(resid - ref_resid) <= 16 * U / sine)


@pytest.mark.parametrize("sine", [1e-3, 1.01e-4, 0.99e-4, 1e-7])
@pytest.mark.parametrize("off", [0.0, 1e-9, 1e-3])
def test_unit_lstsq_closed_form_matches_the_svd_on_both_sides_of_the_threshold(sine, off, svd_shapes):
    """Pairs at a sine of at least _CRAMER_VOLUME are solved without an SVD
    and agree with it to about u / sine; thinner pairs take one SVD over
    all of them and are the SVD's solution."""
    rng = np.random.default_rng(28)
    for d in (3, 4, 5):
        m = column_pairs(rng, (300,), d, sine)
        rhs = right_hand_sides(rng, m, off)
        want = _svd_lstsq_reference(m, rhs)
        svd_shapes.clear()
        got = _unit_lstsq(m, rhs)
        if sine >= _CRAMER_VOLUME:
            assert svd_shapes == []
            assert_solves_agree(m, got, want, sine)
        else:
            assert svd_shapes == [(300, d, 2)]
            for g, w in zip(got, want):
                assert np.all(np.abs(g - w) <= 4 * U * np.abs(w))


@pytest.mark.parametrize("factor", [1.0, -2.5, 1e3])
def test_unit_lstsq_solves_rank_one_pairs_by_the_svd(factor, svd_shapes):
    """Parallel columns (sine 0 up to rounding) keep the SVD's minimum-norm
    solution, for right-hand sides on their line and off it."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(40, 4))
    m = np.stack([a, factor * a], axis=-1)
    for rhs in (rng.uniform(0.5, 2.0, (40, 1)) * a, rng.normal(size=(40, 4))):
        want = _svd_lstsq_reference(m, rhs)
        svd_shapes.clear()
        got = _unit_lstsq(m, rhs)
        assert svd_shapes == [(40, 4, 2)]
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 4 * U * np.abs(w))


def test_unit_lstsq_broadcasts_the_right_hand_side_of_a_transport(svd_shapes):
    """Columns (E, 1, d, 2), one basis per edge as in the transport of
    subdivision._edge_polylines, against samples (E, K, d): the basis is
    taken once per edge, and only the thin edges' samples go to the SVD."""
    rng = np.random.default_rng(6)
    sines = np.array([0.5, 1e-3, 1e-6, 0.2, 1e-8, 0.9])[:, None, None]
    m = column_pairs(rng, (6, 1), 4, sines)
    full = np.broadcast_to(m, (6, 5, 4, 2))
    rhs = right_hand_sides(rng, full, 1e-9)
    want = _svd_lstsq_reference(full, rhs)
    svd_shapes.clear()
    got = _unit_lstsq(m, rhs)
    assert svd_shapes == [(2 * 5, 4, 2)]
    wide = sines[:, 0, 0] >= _CRAMER_VOLUME
    assert_solves_agree(full[wide], [g[wide] for g in got], [w[wide] for w in want], 1e-3)
    for g, w in zip(got, want):
        assert np.all(np.abs(g[~wide] - w[~wide]) <= 4 * U * np.abs(w[~wide]))


def test_unit_lstsq_broadcasts_the_right_hand_side_of_a_patch(svd_shapes):
    """Columns (E, K, d, 2), one pair of samples in perspective each as in
    subdivision._q_patches, against one Laplace vector (E, 1, d) per face."""
    rng = np.random.default_rng(7)
    y = rng.normal(size=(4, 1, 4))
    r0 = rng.normal(size=(4, 6, 4))
    r0[1, 2] = y[1, 0] + 1e-7 * rng.normal(size=4)  # a thin pair: r0 and r0 + y nearly parallel
    scales = rng.uniform(0.5, 2.0, (2, 4, 6, 1)) * rng.choice([-1, 1], (2, 4, 6, 1))
    m = np.stack([scales[0] * (r0 + y), -scales[1] * r0], axis=-1)
    want = _svd_lstsq_reference(m, np.broadcast_to(y, r0.shape))
    svd_shapes.clear()
    got = _unit_lstsq(m, y)
    assert svd_shapes == [(1, 4, 2)]
    assert np.all(got[2] <= 1e-8)
    assert np.allclose(got[0][..., 0], 1 / scales[0, ..., 0], rtol=1e-6)
    assert np.allclose(got[0][..., 1], 1 / scales[1, ..., 0], rtol=1e-6)
    thick = np.ones(r0.shape[:2], dtype=bool)
    thick[1, 2] = False
    sine = np.min(proj_distance(m[..., 0], m[..., 1])[thick])
    assert_solves_agree(m[thick], [g[thick] for g in got], [w[thick] for w in want], sine)


@pytest.mark.parametrize("corner", [(0, 0), (2, 3)])
@pytest.mark.parametrize("scale", [1.0, 1e6, 1e9, 1e12])
def test_rescaled_vertex_keeps_translation_verdicts(corner, scale):
    rng = np.random.default_rng(3)
    base = from_translation(rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (6, 4)))
    pts = base.points.copy()
    pts[corner] *= scale
    net = PointNet(pts)
    assert is_multi_q_net(net)
    assert is_translation_net(net)
    assert laplace_transforms_degenerate(net)
    for got, want in zip(laplace_transforms(net), laplace_transforms(base)):
        assert np.max(proj_distance(got.points, want.points)) < 1e-10
    rebuilt = from_two_strips(PointNet(pts[0:2]), PointNet(pts[:, 0:2]))
    assert nets_proj_equal(rebuilt, base, 1e-9)
    fine = subdivide_q(net, 2)
    assert np.max(proj_distance(fine.points, subdivide_q(base, 2).points)) < 1e-9
    assert np.array_equal(fine.points[::2, ::2], pts)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
def test_uniformly_scaled_net_keeps_translation_verdicts(scale):
    rng = np.random.default_rng(3)
    base = from_translation(rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (6, 4)))
    net = PointNet(scale * base.points)
    assert is_multi_q_net(net)
    assert is_translation_net(net)
    assert laplace_transforms_degenerate(net)
    fine = subdivide_q(net, 2)
    assert np.max(proj_distance(fine.points, subdivide_q(base, 2).points)) < 1e-9
    assert np.array_equal(fine.points[::2, ::2], net.points)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
def test_vanishing_partial_sum_raises_at_every_scale(scale):
    # x00 + y1_0 + y2_0 = 0 exactly at scale 1
    y1 = np.array([[1.0, 2.0, -0.5, 0.25], [0.5, -1.0, 1.0, 2.0]])
    y2 = np.array([[-3.0, 0.5, 1.5, 1.0], [1.0, 1.0, -2.0, 0.5]])
    x00 = -(y1[0] + y2[0])
    with pytest.raises(ZeroSum):
        from_cauchy_homogeneous(scale * y1, scale * y2, scale * x00)
    with pytest.raises(ZeroSum):
        from_translation(scale * np.stack([x00 + y1[0], x00]), scale * y2)
    # with x00 moved off the cancellation nothing vanishes
    assert from_cauchy_homogeneous(scale * y1, scale * y2, scale * (x00 + [0.5, 0, 0, 0])).dims == (3, 3)


def _corner_triple_collinear(quad):
    """Independent oracle for the triple check: some three corners of the
    quad span rank < 3 after row normalization."""
    for drop in range(4):
        m = np.delete(quad, drop, axis=0)
        s = np.linalg.svd(m / np.linalg.norm(m, axis=1, keepdims=True), compute_uv=False)
        if s[2] <= RANK_RTOL * s[0]:
            return True
    return False


def near_threshold_quads(count=400):
    """Quads (4, 4) with c over 1e-16..1e-6 or two nearly coincident corners,
    in turn, each corner rescaled by 1e-3..1e3 (default_rng(4))."""
    rng = np.random.default_rng(4)
    for t in range(count):
        x00, x10, x01, v = rng.uniform(-1, 1, (4, 4))
        a, b, c = rng.uniform(0.3, 1.5, 3)
        eps = 10 ** rng.uniform(-16, -6)
        kind = t % 4
        if kind == 0:
            c = eps * rng.choice([-1, 1])
        elif kind == 1:
            x10 = x00 + eps * v
        elif kind == 2:
            x01 = x10 + eps * v
        x11 = a * x10 + b * x01 - c * x00
        if kind == 3:
            x11 = x00 + eps * (rng.uniform(-1, 1, 3) @ np.stack([x00, x10, x01]))
        yield np.stack([x00, x10, x01, x11]) * 10 ** rng.uniform(-3, 3, (4, 1))


def test_laplace_checks_near_threshold():
    # on the near-threshold quads only the triple check ever fires, exactly
    # where the corner triples are numerically collinear
    fired = {"pass": 0, "collinear": 0}
    for quad in near_threshold_quads():
        try:
            tq, _, _ = laplace_gauges(quad[None])
        except GeometryError as exc:
            assert type(exc) is DegenerateQuad
            assert str(exc) == "three corners are collinear or coincident"
            assert _corner_triple_collinear(quad)
            fired["collinear"] += 1
            continue
        assert not _corner_triple_collinear(quad)
        t00, t10, t01, t11 = tq[0]
        assert np.linalg.norm(t10 + t01 - t00 - t11) <= 1e-6 * np.linalg.norm(t11)
        fired["pass"] += 1
    assert min(fired.values()) >= 50


def lstsq_route_gauges(quads):
    """Reference for laplace_gauges: planarity and corner triples by
    span_rank, the coefficients by _unit_lstsq, for every quad."""
    x00, x10, x01, x11 = np.moveaxis(quads, -2, 0)
    nonplanar = span_rank(quads) > 3
    collinear = np.any(span_rank(quads[:, _CORNER_TRIPLES]) < 3, axis=-1)
    coeffs, unit, _ = _unit_lstsq(np.stack([x10, x01, -x00], axis=-1), x11)
    mags = np.abs(unit)
    vanishing = np.min(mags, axis=-1) <= 1e-12 * np.max(mags, axis=-1)
    a, b, c = coeffs.T
    t = np.stack([c[:, None] * x00, a[:, None] * x10, b[:, None] * x01, x11], axis=1)
    y = t[:, 1:3] - t[:, :1]
    coincident = np.min(np.linalg.norm(y, axis=-1), axis=-1) <= 1e-12 * np.linalg.norm(x11, axis=-1)
    checks = np.stack([nonplanar, collinear, vanishing, coincident], axis=-1)
    bad = np.flatnonzero(np.any(checks, axis=-1))
    if bad.size:
        return None, int(bad[0]), int(np.argmax(checks[bad[0]]))
    return (t, y, coeffs), None, None


LAPLACE_MESSAGES = [
    (NonPlanarQuad, "quad spans rank 4"),
    (DegenerateQuad, "three corners are collinear or coincident"),
    (DegenerateQuad, "vanishing Laplace coefficient"),
    (DegenerateQuad, "coincident opposite corners"),
]


def assert_gauges_match_lstsq_route(quads):
    """laplace_gauges raises the reference's first error, or matches its
    t, y and coefficients to 1e-10 relative, quad by quad."""
    want, bad, check = lstsq_route_gauges(quads)
    if want is None:
        kind, message = LAPLACE_MESSAGES[check]
        with pytest.raises(kind, match=message):
            laplace_gauges(quads)
        if bad:
            laplace_gauges(quads[:bad])
        return
    for got, ref in zip(laplace_gauges(quads), want):
        err = np.linalg.norm((got - ref).reshape(len(quads), -1), axis=-1)
        assert np.all(err <= 1e-10 * np.linalg.norm(ref.reshape(len(quads), -1), axis=-1))


def test_laplace_gauges_match_the_lstsq_route_near_threshold():
    quads = np.stack(list(near_threshold_quads()))
    for quad in quads:
        assert_gauges_match_lstsq_route(quad[None])
    # thin quads (x10 or x01 next to a neighbour) keep _unit_lstsq, the rest
    # take Cramer's rule
    _, v3, _ = corner_minors(quads)
    assert np.sum(v3[:, 3] < _CRAMER_VOLUME) >= 100 and np.sum(v3[:, 3] >= _CRAMER_VOLUME) >= 100


@pytest.mark.parametrize("seed", range(6))
def test_laplace_gauges_match_the_lstsq_route_on_q_nets(seed):
    rng = np.random.default_rng(seed)
    net = random_q_net(rng, 6, 7, dim=int(rng.integers(3, 6)))
    quads = rect_stacks(net.points * 10 ** rng.uniform(-4, 4, (6, 7, 1)), elementary=True)[1]
    assert_gauges_match_lstsq_route(quads)
    # a quad bent out of its plane raises in stack order, as a broken net would
    bent = quads.copy()
    bent[rng.integers(len(quads)), 3, 0] *= 1.1
    assert_gauges_match_lstsq_route(bent)
