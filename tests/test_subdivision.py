import numpy as np
import pytest

from conftest import (
    nets_proj_equal,
    random_q_net,
    torus_point,
    torus_u_tangent,
    torus_v_tangent,
)
from multinets.circular import EuclidNet, _unit_chart, is_circular_net, is_multi_circular
from multinets.errors import (
    ArcsNotOrthogonal,
    DegenerateLaplaceSphere,
    DuplicatePoints,
    GeometryError,
    InconsistentCorner,
    NonFiniteCoordinate,
    NotConcyclic,
    PerspectivityViolation,
    PointOffLine,
    SeedArcsNotC1,
    ZeroVector,
)
from multinets.projective import (
    MOEBIUS,
    ProjLine,
    intersect_spans,
    meet_lines,
    moebius_drop,
    moebius_lift,
    normalize,
    proj_distance,
    proj_equal,
    span_rank,
)
from multinets.qnets import PointNet, from_translation, is_q_net
from multinets.quadric_nets import generate_by_reflections
from multinets.subdivision import (
    CircArc,
    adapted_cyclide_patch,
    adapted_q_patch,
    arc_through_points,
    attach_edge_polylines,
    has_collinear_joins,
    subdivide_circular,
    subdivide_q,
)


def integer_grid(nu, nv):
    pts = np.array(
        [[[i, j, 0, 1] for j in range(nv)] for i in range(nu)], dtype=float
    )
    return PointNet(pts)


def torus_net(us, vs, big=2.0, small=0.5):
    pts = np.array([[torus_point(big, small, u, v) for v in vs] for u in us])
    return EuclidNet(pts)


def torus_seed_arcs(us, vs, big=2.0, small=0.5):
    row = [
        CircArc(
            torus_point(big, small, us[i], vs[0]),
            torus_point(big, small, us[i + 1], vs[0]),
            torus_u_tangent(us[i], vs[0]),
        )
        for i in range(len(us) - 1)
    ]
    col = [
        CircArc(
            torus_point(big, small, us[0], vs[j]),
            torus_point(big, small, us[0], vs[j + 1]),
            torus_v_tangent(us[0], vs[j]),
        )
        for j in range(len(vs) - 1)
    ]
    return row, col


def torus_residual(p, big=2.0, small=0.5):
    return abs((np.sqrt(p[0] ** 2 + p[1] ** 2) - big) ** 2 + p[2] ** 2 - small**2)


# -- adapted multi-Q patches -----------------------------------------------------


def test_parallelogram_patch_is_affine_bilinear():
    x00 = np.array([0, 0, 0, 1.0])
    x10 = np.array([2, 0, 0, 1.0])
    x01 = np.array([0, 1, 0, 1.0])
    x11 = np.array([2, 1, 0, 1.0])
    ts = np.linspace(0, 1, 4)
    p0 = np.stack([(1 - t) * x00 + t * x10 for t in ts])
    p1 = np.stack([(1 - t) * x01 + t * x11 for t in ts])
    q0 = np.stack([(1 - t) * x00 + t * x01 for t in ts])
    q1 = np.stack([(1 - t) * x10 + t * x11 for t in ts])
    patch = adapted_q_patch(x00, x10, x01, x11, p0, p1, q0, q1)
    for k, t in enumerate(ts):
        for l, s in enumerate(ts):
            expect = [2 * t, s, 0, 1]
            assert proj_distance(patch.points[k, l], expect) <= 1e-10


def test_patch_reconstructs_translation_patch(rng):
    base = from_translation(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 4)))
    p = base.points
    patch = adapted_q_patch(
        p[0, 0], p[4, 0], p[0, 4], p[4, 4], p[:, 0], p[:, 4], p[0, :], p[4, :]
    )
    assert nets_proj_equal(patch, base)


def test_patch_seed_11_multi_q():
    rng = np.random.default_rng(11)
    base = from_translation(rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (4, 4)))
    p = base.points
    patch = adapted_q_patch(
        p[0, 0], p[3, 0], p[0, 3], p[3, 3], p[:, 0], p[:, 3], p[0, :], p[3, :]
    )
    from multinets.qnets import is_multi_q_net

    assert is_multi_q_net(patch)


def test_patch_rejects_inconsistent_endpoints(rng):
    base = from_translation(rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (3, 4)))
    p = base.points
    bad_p0 = p[:, 0].copy()
    bad_p0[0] = rng.uniform(-1, 1, 4)
    with pytest.raises(InconsistentCorner):
        adapted_q_patch(
            p[0, 0], p[2, 0], p[0, 2], p[2, 2], bad_p0, p[:, 2], p[0, :], p[2, :]
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("corner", range(4))
def test_patch_of_a_non_finite_corner_raises_non_finite(bad, corner, rng):
    base = from_translation(rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (3, 4)))
    p = base.points
    corners = [p[0, 0].copy(), p[2, 0].copy(), p[0, 2].copy(), p[2, 2].copy()]
    corners[corner][1] = bad
    with pytest.raises(NonFiniteCoordinate, match=rf"corner \({corner}\)"):
        adapted_q_patch(*corners, p[:, 0], p[:, 2], p[0, :], p[2, :])


@pytest.mark.parametrize("bad", ["nan", "off"])
@pytest.mark.parametrize("poly, end", [(k, e) for k in range(4) for e in (0, -1)])
def test_patch_checks_every_polyline_end_against_its_corner(poly, end, bad, rng):
    base = from_translation(rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (3, 4)))
    p = base.points
    polys = [p[:, 0].copy(), p[:, 2].copy(), p[0, :].copy(), p[2, :].copy()]
    polys[poly][end] = np.nan if bad == "nan" else rng.uniform(-1, 1, 4)
    with pytest.raises(InconsistentCorner, match="polyline endpoints must match the corners"):
        adapted_q_patch(p[0, 0], p[2, 0], p[0, 2], p[2, 2], *polys)


def test_patch_rejects_broken_perspectivity(rng):
    base = from_translation(rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (4, 4)))
    p = base.points
    bad_p1 = p[:, 3].copy()
    bad_p1[1] = bad_p1[1] + np.array([0.3, 0, 0, 0])
    with pytest.raises(PerspectivityViolation):
        adapted_q_patch(
            p[0, 0], p[3, 0], p[0, 3], p[3, 3], p[:, 0], bad_p1, p[0, :], p[3, :]
        )


def test_patch_invariant_under_rescaled_inputs(rng):
    base = from_translation(rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (4, 4)))
    p = base.points
    args = (p[0, 0], p[3, 0], p[0, 3], p[3, 3])
    polys = (p[:, 0], p[:, 3], p[0, :], p[3, :])
    ref = adapted_q_patch(*args, *polys)
    scaled = adapted_q_patch(
        2.5 * args[0],
        args[1],
        -0.7 * args[2],
        args[3],
        polys[0] * rng.uniform(0.5, 2.0, (4, 1)),
        polys[1],
        polys[2] * rng.uniform(0.5, 2.0, (4, 1)),
        polys[3] * -3.0,
    )
    assert nets_proj_equal(ref, scaled)


# -- edge polylines ----------------------------------------------------------------


def test_integer_grid_default_seeds_uniform():
    net = integer_grid(3, 3)
    ep = attach_edge_polylines(net, 2)
    # all Laplace points at infinity: projection is parallel transport
    for i in range(2):
        for j in range(3):
            aff = ep.u[i, j][:, :3] / ep.u[i, j][:, 3:]
            assert np.allclose(aff[1], [i + 0.5, j, 0])
    assert has_collinear_joins(net, ep)


def test_seeds_from_global_refinement_reproduced(rng):
    # multi-Q refinement whose parameter polygons are straight within each
    # coarse edge, so its edge polylines lie on the coarse edge lines
    from multinets.qnets import from_cauchy_homogeneous

    d1 = rng.uniform(-1, 1, (2, 4))
    d2 = rng.uniform(-1, 1, (2, 4))
    y1 = np.stack([rng.uniform(0.4, 1.2) * d1[k // 3] for k in range(6)])
    y2 = np.stack([rng.uniform(0.4, 1.2) * d2[k // 3] for k in range(6)])
    fine_base = from_cauchy_homogeneous(y1, y2, rng.uniform(-1, 1, 4))
    coarse = PointNet(fine_base.points[::3, ::3])
    seeds = {
        "u": np.stack([fine_base.points[3 * i : 3 * i + 4, 0] for i in range(2)]),
        "v": np.stack([fine_base.points[0, 3 * j : 3 * j + 4] for j in range(2)]),
    }
    ep = attach_edge_polylines(coarse, 3, seeds)
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert proj_distance(ep.u[i, j][k], fine_base.points[3 * i + k, 3 * j]) <= 1e-7
    for i in range(3):
        for j in range(2):
            for l in range(4):
                assert proj_distance(ep.v[i, j][l], fine_base.points[3 * i, 3 * j + l]) <= 1e-7
    # the full subdivision then reproduces the refinement
    fine = subdivide_q(coarse, 3, seeds=seeds)
    assert nets_proj_equal(fine, fine_base, 1e-7)


def test_attach_validates_on_random_q_net(rng):
    net = random_q_net(rng, 4, 4)
    ep = attach_edge_polylines(net, 3)
    # opposite polylines perspective w.r.t. the face Laplace points
    from multinets.qnets import laplace_data

    for i in range(3):
        for j in range(3):
            ld = laplace_data(*net.quad(i, j))
            for k in range(4):
                assert span_rank([ep.u[i, j][k], ep.u[i, j + 1][k], ld.y2]) == 2
                assert span_rank([ep.v[i, j][k], ep.v[i + 1, j][k], ld.y1]) == 2


@pytest.mark.parametrize("make", ["random", "grid"])
def test_propagated_polylines_equal_laplace_point_projections(rng, make):
    net = random_q_net(rng, 4, 5) if make == "random" else integer_grid(4, 3)
    ep = attach_edge_polylines(net, 3)
    p = net.points
    nu, nv = net.dims
    from multinets.qnets import laplace_data

    for i in range(nu - 1):
        for j in range(nv - 1):
            ld = laplace_data(*net.quad(i, j))
            u_edge = ProjLine(p[i, j + 1], p[i + 1, j + 1])
            v_edge = ProjLine(p[i + 1, j], p[i + 1, j + 1])
            for k in range(4):
                want = meet_lines(ProjLine(ep.u[i, j][k], ld.y2), u_edge)
                assert proj_distance(ep.u[i, j + 1][k], want) < 1e-10
                want = meet_lines(ProjLine(ep.v[i, j][k], ld.y1), v_edge)
                assert proj_distance(ep.v[i + 1, j][k], want) < 1e-10


def line_seeds(net, n_u, n_v):
    """Seed polylines sampling the row-0 u-edges and column-0 v-edges
    uniformly along their edge lines."""
    p = net.points
    w_u = np.linspace(0.0, 1.0, n_u + 1)[:, None]
    w_v = np.linspace(0.0, 1.0, n_v + 1)[:, None]
    return {
        "u": (1 - w_u) * p[:-1, 0, None] + w_u * p[1:, 0, None],
        "v": (1 - w_v) * p[0, :-1, None] + w_v * p[0, 1:, None],
    }


def check_seeds_per_seed(net, seeds):
    """The seed-by-seed check of the loop that the batched check replaced,
    kept as the reference for its errors and their order."""
    p = net.points
    for name, seed, verts in (("u", seeds["u"], p[:, 0]), ("v", seeds["v"], p[0])):
        for i in range(len(seed)):
            if not proj_distance(seed[i, 0], verts[i]) <= 1e-8 or not proj_distance(seed[i, -1], verts[i + 1]) <= 1e-8:
                raise InconsistentCorner(f"{name} seed {i} does not interpolate its edge")
            for k in range(1, seed.shape[1] - 1):
                if span_rank([seed[i, k], verts[i], verts[i + 1]]) > 2:
                    raise PointOffLine(f"{name} seed {i} sample {k} is off its edge line")


@pytest.mark.parametrize(
    "axis, where, error, message",
    [
        ("u", (1, 0), InconsistentCorner, "u seed 1 does not interpolate its edge"),
        ("u", (1, -1), InconsistentCorner, "u seed 1 does not interpolate its edge"),
        ("u", (1, 2), PointOffLine, "u seed 1 sample 2 is off its edge line"),
        ("v", (2, -1), InconsistentCorner, "v seed 2 does not interpolate its edge"),
        ("v", (0, 1), PointOffLine, "v seed 0 sample 1 is off its edge line"),
    ],
)
def test_bad_seed_polyline_raises(axis, where, error, message):
    net = integer_grid(3, 4)
    seeds = line_seeds(net, 3, 2)
    seeds[axis][where] += [0.0, 0.0, 0.5, 0.0]
    with pytest.raises(error) as info:
        attach_edge_polylines(net, (3, 2), seeds)
    assert str(info.value) == message
    with pytest.raises(error) as info:
        subdivide_q(net, (3, 2), seeds=seeds)
    assert str(info.value) == message


def test_seed_errors_follow_the_per_seed_order():
    """Seeds broken at one to three random samples, off their line or zero,
    raise the error the seed-by-seed check meets first."""
    rng = np.random.default_rng(2031)
    net = integer_grid(4, 5)
    for _ in range(200):
        seeds = line_seeds(net, 3, 2)
        for _ in range(rng.integers(1, 4)):
            seed = seeds[rng.choice(["u", "v"])]
            i, k = rng.integers(len(seed)), rng.integers(seed.shape[1])
            seed[i, k] = 0.0 if rng.random() < 0.3 else seed[i, k] + rng.normal(0, 0.1, 4)
        raised = []
        for check in (check_seeds_per_seed, lambda net, seeds: attach_edge_polylines(net, (3, 2), seeds)):
            try:
                check(net, seeds)
                raised.append(None)
            except (InconsistentCorner, PointOffLine, ZeroVector) as exc:
                raised.append((type(exc), str(exc)))
        assert raised[0] == raised[1]


def test_non_finite_seed_sample_raises_a_typed_error():
    net = integer_grid(3, 3)
    seeds = line_seeds(net, 3, 3)
    seeds["u"][1, 2] = np.nan
    with pytest.raises(NonFiniteCoordinate, match="u seed 1 sample 2 has a non-finite coordinate"):
        attach_edge_polylines(net, 3, seeds)
    # an earlier seed's error comes first; a non-finite end misses its vertex
    seeds["u"][0, -1] = np.inf
    with pytest.raises(InconsistentCorner, match="u seed 0 does not interpolate its edge"):
        attach_edge_polylines(net, 3, seeds)


def test_collinear_joins_flag_a_bent_join():
    net = integer_grid(3, 4)
    assert has_collinear_joins(net, attach_edge_polylines(net, 3, line_seeds(net, 3, 3)))
    for axis, where in (("u", (0, 2, -2)), ("v", (1, 1, 1))):
        bent = attach_edge_polylines(net, 3)
        getattr(bent, axis)[where] += [0.0, 0.0, 0.3, 0.0]
        assert not has_collinear_joins(net, bent)


def test_subdivision_gauges_each_face_once(monkeypatch):
    import multinets.projective as projective
    import multinets.subdivision as subdivision

    from test_acceptance import random_non_multi_q_net

    quads, meets = [], []
    gauges = subdivision.laplace_gauges
    line_meet = projective._line_meet

    def counting_gauges(q):
        quads.append(len(q))
        return gauges(q)

    monkeypatch.setattr(subdivision, "laplace_gauges", counting_gauges)
    # the Laplace points come from the gauges, not from meets of edge lines:
    # every meet_lines call, under any name, goes through _line_meet
    monkeypatch.setattr(projective, "_line_meet", lambda pts: meets.append(pts) or line_meet(pts))
    net = random_non_multi_q_net(np.random.default_rng(2030), 4, 4)
    subdivide_q(net, 3, rounds=2)
    assert quads == [9, 81] and meets == []


# -- Q-net subdivision ----------------------------------------------------------------


def test_subdivide_integer_grid():
    fine = subdivide_q(integer_grid(3, 3), 2)
    aff = fine.points[..., :3] / fine.points[..., 3:]
    for i in range(5):
        for j in range(5):
            assert np.allclose(aff[i, j], [i / 2, j / 2, 0], atol=1e-12)


def test_subdivide_two_rounds_structure(rng):
    net = random_q_net(rng, 4, 4)
    f1 = subdivide_q(net, 3, rounds=1)
    assert f1.dims == (10, 10) and is_q_net(f1)
    f2 = subdivide_q(net, 3, rounds=2)
    assert f2.dims == (28, 28) and is_q_net(f2)
    for i in range(4):
        for j in range(4):
            assert np.array_equal(f2.points[9 * i, 9 * j], net.points[i, j])


def test_subdivide_deterministic(rng):
    net = random_q_net(rng, 4, 4)
    a = subdivide_q(net, 3, rounds=2)
    b = subdivide_q(net, 3, rounds=2)
    assert np.array_equal(a.points, b.points)


def affine_q_net(rng, nu, nv):
    """Q-net in the affine chart w = 1: each vertex is an affine combination
    of its three predecessors, so every quad is planar and finite; each
    homogeneous representative is then rescaled by 10^U(-3, 3)."""
    pts = np.ones((nu, nv, 4))
    pts[:, 0, :3] = np.arange(nu)[:, None] * [1.0, 0, 0] + rng.uniform(-0.2, 0.2, (nu, 3))
    pts[0, :, :3] = np.arange(nv)[:, None] * [0, 1.0, 0] + rng.uniform(-0.2, 0.2, (nv, 3))
    for i in range(1, nu):
        for j in range(1, nv):
            x00, x10, x01 = pts[i - 1, j - 1, :3], pts[i, j - 1, :3], pts[i - 1, j, :3]
            al, be = rng.uniform(0.8, 1.2, 2)
            pts[i, j, :3] = x00 + al * (x10 - x00) + be * (x01 - x00)
    return PointNet(pts * 10 ** rng.uniform(-3, 3, (nu, nv, 1)))


@pytest.mark.parametrize("seed", range(8))
def test_subdivide_q_interpolates_and_keeps_faces_planar(seed):
    # every round reproduces its input bit-identically at the stride and has
    # planar faces; two rounds at once equal two single rounds
    rng = np.random.default_rng(seed)
    net = affine_q_net(rng, *rng.integers(3, 6, 2))
    n = tuple(int(k) for k in rng.integers(2, 4, 2))
    coarse = net
    for _ in range(2):
        fine = subdivide_q(coarse, n)
        assert np.array_equal(fine.points[:: n[0], :: n[1]], coarse.points)
        assert is_q_net(fine)
        coarse = fine
    assert np.array_equal(subdivide_q(net, n, rounds=2).points, coarse.points)


def test_subdivide_asymmetric_counts(rng):
    net = random_q_net(rng, 4, 4)
    strips = subdivide_q(net, (1, 8))
    assert strips.dims == (4, 25)
    assert is_q_net(strips)


def test_refinement_closure(rng):
    net = random_q_net(rng, 3, 3)
    twice = subdivide_q(net, 2, rounds=2)
    once = subdivide_q(net, 4, rounds=1)
    assert nets_proj_equal(twice, once, 1e-7)


# -- circular arcs ----------------------------------------------------------------


def test_arc_sampling_uniform_speed():
    arc = CircArc([1, 0, 0], [0, 1, 0], [0, 1, 0])
    samples = arc.sample(4)
    steps = np.linalg.norm(np.diff(samples, axis=0), axis=1)
    assert np.allclose(steps, steps[0])
    assert np.allclose(samples[0], [1, 0, 0]) and np.allclose(samples[-1], [0, 1, 0])
    # quarter circle through the expected midpoint
    assert np.allclose(arc.point_at(0.5), [np.sqrt(0.5), np.sqrt(0.5), 0])


def test_arc_segment_case():
    arc = CircArc([0, 0, 0], [2, 0, 0], [1, 0, 0])
    assert np.allclose(arc.point_at(0.25), [0.5, 0, 0])
    assert np.allclose(arc.tangent_at(0.7), [1, 0, 0])


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14])
def test_arc_checks_are_relative_to_the_arc(scale):
    # a chord far below the absolute zero threshold is still a chord, and a
    # tangent of any positive length is a direction
    arc = CircArc([0.0, 0, 0], [scale, 0, 0], [scale, scale, 0])
    assert np.allclose(arc.tangent, [np.sqrt(0.5), np.sqrt(0.5), 0])
    assert np.allclose(arc.point_at(1.0) / scale, [1.0, 0, 0], atol=1e-15)
    start = scale * np.array([1.0, 2.0, 3.0])
    for end, tangent in (
        (start, [1.0, 0, 0]),
        (start * (1 + 1e-15), [1.0, 0, 0]),
        (start + [0, scale, 0], [0.0, 0, 0]),
        (start + [0, scale, 0], [np.nan, 1.0, 0]),
        (start + [0, scale, 0], [np.inf, 1.0, 0]),
    ):
        with pytest.raises(DuplicatePoints):
            CircArc(start, end, tangent)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("end", [0, 1])
def test_arc_with_a_non_finite_endpoint_raises_non_finite(bad, end):
    ends = [[0.0, 0, 0], [1.0, 0, 0]]
    ends[end][2] = bad
    with pytest.raises(NonFiniteCoordinate, match=rf"arc endpoint \({end}\)"):
        CircArc(*ends, [0, 1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_arc_through_a_non_finite_point_raises_non_finite(bad, which):
    points = [[1.0, 0, 0], [0.0, 1, 0], [-1.0, 0, 0]]
    points[which][1] = bad
    with pytest.raises(NonFiniteCoordinate, match=rf"^arc point \({which}\) has a non-finite coordinate$"):
        arc_through_points(*points)


def test_arc_through_points_orientation():
    a, m, b = [1, 0, 0], [0, 1, 0], [-1, 0, 0]
    arc = arc_through_points(a, m, b)
    assert np.allclose(arc.point_at(0.5), m, atol=1e-12)
    arc2 = arc_through_points(a, [0, -1, 0], b)
    assert np.allclose(arc2.point_at(0.5), [0, -1, 0], atol=1e-12)


def test_arc_transform_matches_pointwise_inversion(rng):
    from multinets.circular import invert_point
    from multinets.projective import sphere_rep

    arc = CircArc([1, 0, 0], [0, 1, 0], [0, 1, 0])
    s = sphere_rep([2.0, -1.0, 0.5], 1.2)
    img = arc.transform(s)
    for t in np.linspace(0, 1, 7):
        p = invert_point(s, arc.point_at(t))
        # the image arc contains the transported points (reparameterized)
        lifted = [
            normalize(moebius_lift(img.point_at(u))) for u in (0.0, 0.5, 1.0)
        ] + [normalize(moebius_lift(p))]
        assert span_rank(lifted) <= 3
    assert np.allclose(img.start, invert_point(s, arc.start))
    assert np.allclose(img.end, invert_point(s, arc.end))


@pytest.mark.parametrize("off", [1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
def test_nearly_straight_arc_keeps_its_end_and_its_circle(off):
    # chord of length 1.3 at angle `off` to the tangent e_x: the circle has
    # unit normal N = (0, w_y, w_z) / h and radius |w|^2 / (2 h), so the
    # power of a sample p over the diameter, h |p - s|^2 / |w|^2 - (p - s).N,
    # and its offset from the plane measure the distance to the circle
    start = np.array([0.3, -0.2, 0.1])
    arc = CircArc(start, start + 1.3 * np.array([np.cos(off), np.sin(off), 0.0]), [1.0, 0, 0])
    w = arc.end - arc.start
    h, size = np.linalg.norm(w[1:]), np.linalg.norm(w)
    normal = np.array([0.0, w[1], w[2]]) / h
    rel = arc.sample(8) - arc.start
    assert np.linalg.norm(rel[-1] - w) <= 1e-12 * size
    radial = h * np.sum(rel * rel, axis=-1) / size**2 - rel @ normal
    plane = rel @ np.cross([1.0, 0, 0], normal)
    assert np.max(np.hypot(radial, plane)) <= 1e-12 * size
    steps = np.linalg.norm(np.diff(rel, axis=0), axis=-1)
    assert np.allclose(steps, size / 8, rtol=1e-9)


def reference_arcs_through(a, mid, b):
    """The arc fit through the circumcentre and an (e1, e2) frame, kept as
    a reference for subdivision._arcs_through."""
    from multinets.subdivision import _arcs

    def dot(x, y):
        return np.sum(x * y, axis=-1)

    u = mid - a
    v = b - a
    w = np.cross(u, v)
    uu, uv, vv = dot(u, u), dot(u, v), dot(v, v)
    scale = np.sqrt(uu) * np.sqrt(vv)
    wn = np.linalg.norm(w, axis=-1)
    line = (scale <= 1e-26) | (wn <= 1e-10 * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = uv / vv
        code = np.where(line & ~((0.0 <= s) & (s <= 1.0)), 3, 0)
        g = np.stack([np.stack([uu, uv], -1), np.stack([uv, vv], -1)], -2)
        g[line] = np.eye(2)
        al, be = np.moveaxis(np.linalg.solve(g, 0.5 * np.stack([uu, vv], -1)[..., None])[..., 0], -1, 0)
        center = a + al[:, None] * u + be[:, None] * v
        r = np.linalg.norm(a - center, axis=-1, keepdims=True)
        e1 = (a - center) / r
        e2 = np.cross(w / wn[:, None], e1)
        e2 = e2 / np.linalg.norm(e2, axis=-1, keepdims=True)

        def angle(p, e):
            rel = (p - center) / r
            th = np.arctan2(dot(rel, e), dot(rel, e1))
            return np.where(th < 0, th + 2.0 * np.pi, th)

        flip = ~(angle(mid, e2) < angle(b, e2))
        e2 = np.where(flip[:, None], -e2, e2)
        code = np.where(~line & flip & ~(angle(mid, e2) < angle(b, e2)), 4, code)
    arcs, arc_code = _arcs(a, b, np.where(line[:, None], v, e2))
    return arcs, np.where(code == 0, arc_code, code)


def test_arcs_through_equals_the_circumcentre_fit_on_random_circles():
    from multinets.subdivision import _arcs_through

    rng = np.random.default_rng(8)
    e = 2000
    centre, radius = rng.normal(size=(e, 3)), rng.uniform(0.1, 3.0, (e, 1))
    e1 = rng.normal(size=(e, 3))
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(e1, rng.normal(size=(e, 3)))
    e2 /= np.linalg.norm(e2, axis=-1, keepdims=True)
    # angles of a, mid, b in order, at least 0.05 rad apart (also from a again)
    gaps = rng.dirichlet(np.ones(3), e) * (2 * np.pi - 0.15) + 0.05
    angles = np.concatenate([np.zeros((e, 1)), np.cumsum(gaps[:, :2], axis=-1)], axis=-1)
    a, mid, b = (centre + radius * (np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2) for t in angles.T)
    want, want_code = reference_arcs_through(a, mid, b)
    got, code = _arcs_through(a, mid, b)
    assert np.array_equal(code, want_code) and not code.any()
    assert np.array_equal(got[:, :2], want[:, :2])
    assert np.max(np.abs(got[:, 2] - want[:, 2])) <= 1e-8
    assert np.max(np.abs(got[:, 2] - e2)) <= 1e-10


def test_arcs_through_equals_the_circumcentre_fit_on_degenerate_triples():
    from multinets.subdivision import _arcs_through

    p, q = np.array([0.3, -0.2, 0.5]), np.array([1.1, 0.4, -0.7])
    triples = {
        "a = b": (p, q, p),
        "a = mid": (p, p, q),
        "mid = b": (p, q, q),
        "a = mid = b": (p, p, p),
        "collinear, midpoint inside": (p, 0.7 * p + 0.3 * q, q),
        "collinear, midpoint outside": (p, 1.4 * q - 0.4 * p, q),
        "collinear, midpoint before a": (p, 1.4 * p - 0.4 * q, q),
    }
    a, mid, b = (np.array(x) for x in zip(*triples.values()))
    want, want_code = reference_arcs_through(a, mid, b)
    got, code = _arcs_through(a, mid, b)
    assert dict(zip(triples, code.tolist())) == dict(zip(triples, want_code.tolist()))
    assert code.tolist() == [3, 0, 0, 3, 0, 3, 3]
    assert np.array_equal(got, want)


# -- adapted cyclide patches ------------------------------------------------------


def test_planar_square_quarter_arcs_patch_stays_planar():
    x00 = np.array([0.0, 0, 0])
    x10 = np.array([1.0, 0, 0])
    x01 = np.array([0.0, 1, 0])
    x11 = np.array([1.0, 1, 0])
    # in-plane arcs, orthogonal at the origin corner
    p0 = arc_through_points(x00, [0.5, -0.2, 0], x10)
    t = p0.tangent
    q0_t = np.array([-t[1], t[0], 0.0])
    # build q0 with tangent orthogonal to p0's start tangent
    q0 = CircArc(x00, x01, q0_t)
    patch = adapted_cyclide_patch(x00, x10, x01, x11, p0, q0, 3)
    assert np.max(np.abs(patch.points[..., 2])) < 1e-9
    assert is_multi_circular(patch)


def test_torus_patch_on_torus():
    us = (0.3, 1.1)
    vs = (-0.4, 0.5)
    corners = (
        torus_point(2.0, 0.5, us[0], vs[0]),
        torus_point(2.0, 0.5, us[1], vs[0]),
        torus_point(2.0, 0.5, us[0], vs[1]),
        torus_point(2.0, 0.5, us[1], vs[1]),
    )
    p0 = CircArc(corners[0], corners[1], torus_u_tangent(us[0], vs[0]))
    q0 = CircArc(corners[0], corners[2], torus_v_tangent(us[0], vs[0]))
    patch = adapted_cyclide_patch(*corners, p0, q0, 4)
    assert patch.dims == (5, 5)
    resid = max(torus_residual(patch.points[i, j]) for i in range(5) for j in range(5))
    assert resid < 1e-8
    # circular parameter curves: every row and column concyclic
    for i in range(5):
        assert span_rank([normalize(moebius_lift(p)) for p in patch.points[i]]) <= 3
        assert span_rank([normalize(moebius_lift(p)) for p in patch.points[:, i]]) <= 3
    # corner interpolation is exact
    assert np.array_equal(patch.points[0, 0], corners[0])
    assert np.array_equal(patch.points[4, 0], corners[1])
    assert np.array_equal(patch.points[0, 4], corners[2])
    assert np.array_equal(patch.points[4, 4], corners[3])


def test_cyclide_patch_rejects_nonorthogonal_arcs():
    us = (0.3, 1.1)
    vs = (-0.4, 0.5)
    corners = (
        torus_point(2.0, 0.5, us[0], vs[0]),
        torus_point(2.0, 0.5, us[1], vs[0]),
        torus_point(2.0, 0.5, us[0], vs[1]),
        torus_point(2.0, 0.5, us[1], vs[1]),
    )
    p0 = CircArc(corners[0], corners[1], torus_u_tangent(us[0], vs[0]))
    skew_t = 0.8 * torus_u_tangent(us[0], vs[0]) + 0.6 * torus_v_tangent(us[0], vs[0])
    q0 = CircArc(corners[0], corners[2], skew_t)
    with pytest.raises(ArcsNotOrthogonal):
        adapted_cyclide_patch(*corners, p0, q0, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("corner", range(4))
def test_cyclide_patch_of_a_non_finite_corner_raises_non_finite(bad, corner):
    c = [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]]
    p0 = CircArc(c[0], c[1], [1, 0, 0])
    q0 = CircArc(c[0], c[2], [0, 1, 0])
    c[corner][0] = bad
    with pytest.raises(NonFiniteCoordinate, match=rf"corner \({corner}\)"):
        adapted_cyclide_patch(*c, p0, q0, 2)


def test_cyclide_patch_rejects_nonconcyclic_quad():
    c = (
        np.array([0.0, 0, 0]),
        np.array([1.0, 0, 0]),
        np.array([0.0, 1, 0]),
        np.array([1.0, 1, 0.3]),
    )
    p0 = CircArc(c[0], c[1], [1, 0, 0])
    q0 = CircArc(c[0], c[2], [0, 1, 0])
    with pytest.raises(NotConcyclic):
        adapted_cyclide_patch(*c, p0, q0, 2)


# -- circular subdivision -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_subdivide_circular_interpolates_and_keeps_faces_circular(seed):
    # random tori: every round reproduces its input bit-identically at the
    # stride and has concyclic faces; the first of two rounds is one round
    rng = np.random.default_rng(seed)
    big, small = rng.uniform(1.5, 3.0), rng.uniform(0.3, 0.9)
    us = np.cumsum(np.r_[0.0, rng.uniform(0.2, 0.6, rng.integers(2, 5))])
    vs = np.cumsum(np.r_[-0.8, rng.uniform(0.2, 0.5, rng.integers(2, 5))])
    net = torus_net(us, vs, big, small)
    arcs = torus_seed_arcs(us, vs, big, small)
    n = tuple(int(k) for k in rng.integers(2, 4, 2))
    once = subdivide_circular(net, n, *arcs)
    twice = subdivide_circular(net, n, *arcs, rounds=2)
    assert np.array_equal(once.points[:: n[0], :: n[1]], net.points)
    assert np.array_equal(twice.points[:: n[0] ** 2, :: n[1] ** 2], net.points)
    assert np.array_equal(twice.points[:: n[0], :: n[1]], once.points)
    assert is_circular_net(once) and is_circular_net(twice)


def test_circular_subdivision_torus():
    us = [0.2, 0.9, 1.7]
    vs = [-0.5, 0.3, 1.0]
    net = torus_net(us, vs)
    row, col = torus_seed_arcs(us, vs)
    fine = subdivide_circular(net, 2, row, col)
    assert fine.dims == (5, 5)
    assert is_circular_net(fine)
    resid = max(torus_residual(fine.points[i, j]) for i in range(5) for j in range(5))
    assert resid < 1e-7
    for i in range(3):
        for j in range(3):
            assert np.array_equal(fine.points[2 * i, 2 * j], net.points[i, j])


def test_circular_subdivision_stays_on_cylinder():
    t = np.linspace(0, 1.5, 3)
    pts = np.array([[[np.cos(a), np.sin(a), h] for h in (0.0, 0.7, 1.3)] for a in t])
    net = EuclidNet(pts)
    row = [
        CircArc(pts[i, 0], pts[i + 1, 0], [-np.sin(t[i]), np.cos(t[i]), 0.0])
        for i in range(2)
    ]
    col = [CircArc(pts[0, j], pts[0, j + 1], [0.0, 0, 1.0]) for j in range(2)]
    fine = subdivide_circular(net, 3, row, col)
    dev = max(
        abs(np.linalg.norm(fine.points[i, j, :2]) - 1.0)
        for i in range(7)
        for j in range(7)
    )
    assert dev < 1e-9
    assert is_circular_net(fine)


def test_circular_subdivision_two_rounds():
    us = [0.2, 0.9, 1.7]
    vs = [-0.5, 0.3, 1.0]
    net = torus_net(us, vs)
    row, col = torus_seed_arcs(us, vs)
    fine = subdivide_circular(net, 2, row, col, rounds=2)
    assert fine.dims == (9, 9)
    assert is_circular_net(fine)
    resid = max(torus_residual(fine.points[i, j]) for i in range(9) for j in range(9))
    assert resid < 1e-7


@pytest.mark.parametrize("n", [2, (3, 1), (2, 4)])
def test_circular_round_patches_equal_per_face_patches(n):
    # on a torus the edge arcs are the curvature-line circles, and inversion
    # in the face Laplace spheres keeps their samples uniform in angle
    us = [0.2, 0.7, 1.3, 1.8]
    vs = [-0.5, 0.1, 0.6]
    net = torus_net(us, vs)
    n_u, n_v = (n, n) if isinstance(n, int) else n
    fine = subdivide_circular(net, n, *torus_seed_arcs(us, vs))
    p = net.points
    scale = np.max(np.abs(p))
    for i in range(len(us) - 1):
        for j in range(len(vs) - 1):
            u_arc = CircArc(p[i, j], p[i + 1, j], torus_u_tangent(us[i], vs[j]))
            v_arc = CircArc(p[i, j], p[i, j + 1], torus_v_tangent(us[i], vs[j]))
            patch = adapted_cyclide_patch(p[i, j], p[i + 1, j], p[i, j + 1], p[i + 1, j + 1], u_arc, v_arc, n)
            block = fine.points[i * n_u : (i + 1) * n_u + 1, j * n_v : (j + 1) * n_v + 1]
            assert np.max(np.abs(block - patch.points)) <= 1e-12 * scale


def test_circular_round_kernel_calls_do_not_grow_with_faces(monkeypatch):
    import multinets.circular as circular
    import multinets.projective as projective
    import multinets.quadric_nets as quadric_nets
    import multinets.subdivision as subdivision

    calls = {}
    for name in ("polar_reflect", "_reflect", "intersect_spans", "meet_lines"):
        original = getattr(projective, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        for module in (projective, circular, quadric_nets, subdivision):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    per_size = {}
    for size in (3, 6):
        calls.clear()
        us, vs = np.linspace(0.2, 2.0, size), np.linspace(-0.6, 1.2, size)
        subdivide_circular(torus_net(us, vs), 2, *torus_seed_arcs(us, vs))
        per_size[size] = dict(calls)
    # 4 faces against 25: checked reflections once per row or column step of
    # the propagation (nu - 1 + nv - 1), each one unchecked reflection; the
    # Laplace spheres and the patches of all faces take no line meet, span
    # intersection or reflection
    for size, got in per_size.items():
        steps = 2 * (size - 1)
        assert got == {"polar_reflect": steps, "_reflect": steps}


def reflection_patch(block):
    """Reference for a cyclide patch, from the boundary of its block
    (n_u+1, n_v+1, 3) of a fine grid, by the reflection engine; returns the
    block and the reference, both in the block's unit chart.

    The mirror stepping sample k to k+1 of the first direction spans the
    intersection of the pencils span(L_k, L_{k+1}) of the two opposite
    lifted boundary rows, and likewise for the second direction; the
    interior is the orbit of the corner under both mirror families.
    """
    chart, _, _ = _unit_chart(block)
    lifts = normalize(moebius_lift(chart))

    def mirrors(row0, row1):
        pencils = [np.stack([row[:-1], row[1:]], axis=1) for row in (row0, row1)]
        vector, dim = intersect_spans(*pencils)
        assert np.all(dim == 1)
        return vector

    m1 = mirrors(lifts[:, 0], lifts[:, -1])
    m2 = mirrors(lifts[0], lifts[-1])
    ref, at_inf = moebius_drop(generate_by_reflections(MOEBIUS, m1, m2, lifts[0, 0]).points)
    assert not at_inf.any()
    return chart, ref


def assert_blocks_match_reflection_patches(fine, n_u, n_v):
    for i in range(0, fine.shape[0] - 1, n_u):
        for j in range(0, fine.shape[1] - 1, n_v):
            chart, ref = reflection_patch(fine[i : i + n_u + 1, j : j + n_v + 1])
            assert np.max(np.abs(chart - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("seed", range(6))
def test_cyclide_patches_equal_the_reflection_orbits_on_random_tori(seed):
    rng = np.random.default_rng(seed)
    big, small = rng.uniform(1.5, 3.0), rng.uniform(0.3, 0.9)
    us = np.cumsum(np.r_[rng.uniform(0.0, 3.0), rng.uniform(0.2, 0.6, rng.integers(2, 4))])
    vs = np.cumsum(np.r_[rng.uniform(-1.0, 0.5), rng.uniform(0.2, 0.5, rng.integers(2, 4))])
    n_u, n_v = (int(k) for k in rng.integers(2, 5, 2))
    net = torus_net(us, vs, big, small)
    row, col = torus_seed_arcs(us, vs, big, small)
    assert_blocks_match_reflection_patches(subdivide_circular(net, (n_u, n_v), row, col).points, n_u, n_v)
    p = net.points
    patch = adapted_cyclide_patch(p[0, 0], p[1, 0], p[0, 1], p[1, 1], row[0], col[0], (n_u, n_v))
    assert_blocks_match_reflection_patches(patch.points, n_u, n_v)


# scales 1e-10 and 1e-14 take edges far below the absolute zero threshold
# _ABS_EPS: every test on the way is relative to the net's own size
SIMILARITIES = [(10.0**k, shift) for k in (-14, -10, *range(-6, 7)) for shift in (0.0, 10.0)]


def similar_torus_net(scale, shift):
    """The 3x3 torus net (radii 2 and 0.5) and its curvature-line seed arcs
    scaled by `scale` and moved by shift * scale along (1, 1, 1)."""
    us, vs = [0.2, 0.9, 1.7], [-0.5, 0.3, 1.0]
    move = shift * scale * np.ones(3)
    p = scale * torus_net(us, vs).points + move
    row = [CircArc(p[i, 0], p[i + 1, 0], torus_u_tangent(us[i], vs[0])) for i in range(2)]
    col = [CircArc(p[0, j], p[0, j + 1], torus_v_tangent(us[0], vs[j])) for j in range(2)]
    return p, row, col, move


def subdivide_similar(p, row, col):
    return subdivide_circular(EuclidNet(p), 2, row, col).points


def patch_similar(p, row, col):
    return adapted_cyclide_patch(p[0, 0], p[1, 0], p[0, 1], p[1, 1], row[0], col[0], 3).points


@pytest.mark.parametrize("scale, shift", SIMILARITIES)
@pytest.mark.parametrize("build, stride", [(subdivide_similar, 2), (patch_similar, 3)])
def test_circular_subdivision_commutes_with_similarities(build, stride, scale, shift):
    ref = build(*similar_torus_net(1.0, 0.0)[:3])
    p, row, col, move = similar_torus_net(scale, shift)
    fine = build(p, row, col)
    # the input vertices (the patch's corners) reappear as given
    vertices = fine[::stride, ::stride]
    assert np.array_equal(vertices, p[: vertices.shape[0], : vertices.shape[1]])
    assert np.max(np.abs((fine - move) / scale - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert_blocks_match_reflection_patches(fine, stride, stride)


def crossing_quad():
    """A 2x2 net on the unit circle whose quad crosses itself, so that its
    first Laplace point lies inside the Moebius quadric."""
    pts = np.array([[[np.cos(a), np.sin(a), 0.0] for a in row] for row in ((0.0, 1.0), (2.0, 3.0))])
    u_arc = arc_through_points(pts[0, 0], [np.cos(0.7), np.sin(0.7), 0.0], pts[1, 0])
    v_arc = CircArc(pts[0, 0], pts[0, 1], [-u_arc.tangent[1], u_arc.tangent[0], 0.0])
    return pts, u_arc, v_arc


def centre_quad(n):
    """A 2x2 circular net whose u-arc passes through the centre of the
    second Laplace sphere at its sample 1/n."""
    phi = 0.5
    x00, c, x10 = (np.array([np.cos(a), np.sin(a), 0.0]) for a in (0.0, phi, n * phi))
    d0, d1 = np.linalg.norm(x00 - c), np.linalg.norm(x10 - c)
    x01 = c + 2 * d1**2 / d0**2 * (x00 - c)
    x11 = c + d0 * np.linalg.norm(x01 - c) / d1**2 * (x10 - c)
    u_arc = arc_through_points(x00, [np.cos(n * phi / 2), np.sin(n * phi / 2), 0.0], x10)
    v_arc = CircArc(x00, x01, np.cross(u_arc.tangent, [0.0, 0.0, 1.0]))
    return np.array([[x00, x01], [x10, x11]]), u_arc, v_arc


@pytest.mark.parametrize(
    "case, n, whole, patch",
    [
        ("crossing", 2, ("DegenerateLaplaceSphere", "Laplace point is not exterior"), None),
        ("centre", 2, ("DegenerateLaplaceSphere", "arc passes through the inversion center"),
         ("DegenerateLaplaceSphere", "boundary sample maps to infinity")),
        ("centre", 3, ("DuplicatePoints", "collinear arc points with exterior midpoint"),
         ("DegenerateLaplaceSphere", "boundary sample maps to infinity")),
    ],
)
def test_circular_subdivision_broken_inputs_raise_typed_errors(case, n, whole, patch):
    pts, u_arc, v_arc = crossing_quad() if case == "crossing" else centre_quad(n)
    with pytest.raises(GeometryError) as info:
        subdivide_circular(EuclidNet(pts), n, [u_arc], [v_arc])
    assert (type(info.value).__name__, str(info.value)) == whole
    with pytest.raises(GeometryError) as info:
        adapted_cyclide_patch(pts[0, 0], pts[1, 0], pts[0, 1], pts[1, 1], u_arc, v_arc, n)
    assert (type(info.value).__name__, str(info.value)) == (patch or whole)


def test_circular_subdivision_rejects_a_collapsed_edge():
    # a 3x3 torus net with p[2, 2] moved onto p[1, 2]: face (1, 1) is still
    # concyclic but its second edge line is a point
    us, vs = [0.2, 0.9, 1.7], [-0.5, 0.3, 1.0]
    pts = torus_net(us, vs).points
    pts[2, 2] = pts[1, 2]
    with pytest.raises(DegenerateLaplaceSphere, match="^spanning points are projectively equal$"):
        subdivide_circular(EuclidNet(pts), 2, *torus_seed_arcs(us, vs))


def test_circular_subdivision_rejects_nonorthogonal_seeds():
    us = [0.2, 0.9, 1.7]
    vs = [-0.5, 0.3, 1.0]
    net = torus_net(us, vs)
    row, col = torus_seed_arcs(us, vs)
    bad = CircArc(
        col[0].start,
        col[0].end,
        0.8 * torus_u_tangent(us[0], vs[0]) + 0.6 * torus_v_tangent(us[0], vs[0]),
    )
    with pytest.raises((ArcsNotOrthogonal, SeedArcsNotC1)):
        subdivide_circular(net, 2, row, [bad, col[1]])


def test_circular_subdivision_rejects_non_c1_seeds():
    us = [0.2, 0.9, 1.7]
    vs = [-0.5, 0.3, 1.0]
    net = torus_net(us, vs)
    row, col = torus_seed_arcs(us, vs)
    # kink the second row arc's start tangent inside the surface plane
    kinked = CircArc(
        row[1].start,
        row[1].end,
        np.cos(0.3) * row[1].tangent + np.sin(0.3) * torus_v_tangent(us[1], vs[0]),
    )
    with pytest.raises(SeedArcsNotC1):
        subdivide_circular(net, 2, [row[0], kinked], col)
