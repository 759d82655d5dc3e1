import itertools

import numpy as np
import pytest

from conftest import torus_point
from multinets.circular import (
    _circle_order_embedded,
    sample_canonical,
    EuclidNet,
    NetClass,
    SphereFamilyPair,
    check_embedded,
    classify_multi_circular,
    generate_multi_circular,
    invert_net,
    invert_point,
    is_circular_net,
    is_concyclic,
    is_discrete_isothermic,
    is_multi_circular,
    lift_net,
    sample_cone,
    sample_cylinder,
    sample_rotational,
    strip_sphere,
)
from multinets.errors import (
    DegenerateProfile,
    DegenerateStrip,
    DuplicatePoints,
    MirrorsNotOrthogonal,
    NonFiniteCoordinate,
    ZeroVector,
)
from multinets.projective import (
    INF,
    MOEBIUS,
    bilinear_eval,
    plane_rep,
    rect_stacks,
    sphere_rep,
    sphere_rep_to_euclidean,
)
from multinets.qnets import is_multi_q_net, is_q_net


def rot_net(rng, n_ang=5, n_prof=5):
    prof = np.stack(
        [rng.uniform(0.5, 1.5, n_prof), np.cumsum(rng.uniform(0.2, 0.5, n_prof))],
        axis=1,
    )
    ang = np.sort(rng.uniform(0, 2 * np.pi, n_ang))
    while np.min(np.diff(ang)) < 0.05:
        ang = np.sort(rng.uniform(0, 2 * np.pi, n_ang))
    return sample_rotational(prof, ang)


# -- concyclicity -------------------------------------------------------------


def test_unit_square_concyclic():
    assert is_concyclic([0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0])


def test_nonplanar_not_concyclic():
    assert not is_concyclic([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1])


def test_collinear_points_with_infinity_concyclic():
    assert is_concyclic([0, 0, 0], [1, 0, 0], [2, 0, 0], INF)


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePoints):
        is_concyclic([0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("corner", range(4))
def test_non_finite_corner_raises_non_finite_before_the_lift_is_decomposed(bad, corner):
    pts = [[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]]
    pts[corner][1] = bad
    with pytest.raises(NonFiniteCoordinate, match=rf"lifted corner \({corner}\)"):
        is_concyclic(*pts)
    # the point at infinity is a marker, not a non-finite corner
    pts[corner - 1] = INF
    with pytest.raises(NonFiniteCoordinate, match=rf"lifted corner \({corner}\)"):
        is_concyclic(*pts)


# -- multi-circular predicates ---------------------------------------------------


def test_rotational_net_multi_circular(rng):
    assert is_multi_circular(rot_net(rng))


def test_moebius_invariance(rng):
    net = rot_net(rng)
    s = sphere_rep([4.0, 4.0, -2.0], 1.5)
    assert is_multi_circular(invert_net(s, net))


def test_glued_circular_net_not_multi(rng):
    # random circular quads glued edge to edge: circular but not multi
    nu, nv = 5, 5
    pts = np.empty((nu, nv, 3))
    pts[0, 0] = [0, 0, 0]
    for i in range(1, nu):
        pts[i, 0] = pts[i - 1, 0] + rng.uniform(0.3, 1.0, 3)
    for j in range(1, nv):
        pts[0, j] = pts[0, j - 1] + rng.uniform(0.3, 1.0, 3)
    for i in range(1, nu):
        for j in range(1, nv):
            a, b, c = pts[i - 1, j - 1], pts[i, j - 1], pts[i - 1, j]
            # fourth point on the circumcircle of (a, b, c)
            u, v = b - a, c - a
            g = np.array([[u @ u, u @ v], [u @ v, v @ v]])
            al, be = np.linalg.solve(g, 0.5 * np.array([u @ u, v @ v]))
            center = a + al * u + be * v
            r = np.linalg.norm(a - center)
            e1 = (a - center) / r
            e2 = np.cross(np.cross(u, v), e1)
            e2 /= np.linalg.norm(e2)
            t = rng.uniform(2.5, 4.0)
            pts[i, j] = center + r * (np.cos(t) * e1 + np.sin(t) * e2)
    net = EuclidNet(pts)
    assert is_circular_net(net)
    assert not is_multi_circular(net)


def test_lift_correspondence(rng):
    net = rot_net(rng)
    lifted = lift_net(net)
    assert is_q_net(lifted)
    assert is_multi_q_net(lifted)


def test_multi_circular_is_isothermic(rng):
    assert is_discrete_isothermic(rot_net(rng))


def isothermic_vertex_loop(net):
    """Per-vertex oracle: the five lifts around each interior vertex."""
    from multinets.projective import span_rank

    x = lift_net(net).points
    nu, nv = net.dims
    return all(
        span_rank([x[i, j], x[i - 1, j - 1], x[i + 1, j - 1], x[i + 1, j + 1], x[i - 1, j + 1]]) <= 4
        for i in range(1, nu - 1)
        for j in range(1, nv - 1)
    )


@pytest.mark.parametrize("shake", [0.0, 1e-12, 1e-9, 1e-6, 1e-2])
def test_isothermic_equals_vertex_loop(rng, shake):
    nets = [
        rot_net(rng),
        rot_net(rng, 3, 7),
        sample_cone(rng.normal(size=(4, 3)), np.cumsum(rng.uniform(0.3, 1.0, 5))),
        sample_cylinder(rng.normal(size=(5, 2)), np.cumsum(rng.uniform(0.3, 1.0, 4))),
        invert_net(sphere_rep([3.0, 1.0, 0.5], 1.5), rot_net(rng)),
        rot_net(rng, 2, 5),
    ]
    verdicts = []
    for net in nets:
        shaken = EuclidNet(net.points + shake * rng.normal(size=net.points.shape))
        verdicts.append(is_discrete_isothermic(shaken))
        assert verdicts[-1] == isothermic_vertex_loop(shaken)
    if shake >= 1e-6:
        assert not all(verdicts)


# -- strip spheres ----------------------------------------------------------------


def test_meridian_strip_sphere_on_axis(rng):
    net = rot_net(rng)
    s = strip_sphere(net, 2, 1)
    kind, c, r = sphere_rep_to_euclidean(s)
    assert kind == "sphere"
    assert np.linalg.norm(c[:2]) < 1e-8  # centered on the rotation axis


def test_strip_sphere_involution(rng):
    net = rot_net(rng)
    for direction, index in ((1, 0), (1, 2), (2, 1)):
        s = strip_sphere(net, direction, index)
        nu, nv = net.dims
        if direction == 1:
            pairs = [(net.points[index, j], net.points[index + 1, j]) for j in range(nv)]
        else:
            pairs = [(net.points[i, index], net.points[i, index + 1]) for i in range(nu)]
        for a, b in pairs:
            img = invert_point(s, a)
            assert np.linalg.norm(img - b) < 1e-8 * max(1.0, np.linalg.norm(b))


def test_strip_spheres_orthogonal(rng):
    net = rot_net(rng)
    s1 = strip_sphere(net, 1, 1)
    s2 = strip_sphere(net, 2, 2)
    assert abs(bilinear_eval(MOEBIUS, s1, s2)) < 1e-8


def test_planar_trapezoid_strip_gives_symmetry_plane():
    # strip mirrored in the plane y = 0: the strip sphere is that plane
    top = np.array([[-2.0, 1, 0], [-1.0, 2, 0], [1.0, 2.5, 0], [2.5, 1.3, 0]])
    bot = top.copy()
    bot[:, 1] *= -1
    strip = EuclidNet(np.stack([top, bot]).transpose(1, 0, 2))  # 4 x 2 net
    assert is_multi_circular(strip)
    s = strip_sphere(strip, 2, 0)
    kind, n, d = sphere_rep_to_euclidean(s)
    assert kind == "plane"
    assert abs(abs(n[1]) - 1.0) < 1e-9 and abs(d) < 1e-9


def test_degenerate_strip_rejected():
    # strip contained in one circle
    t = np.linspace(0, 2, 5)
    row0 = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    row1 = np.stack([np.cos(t + 0.3), np.sin(t + 0.3), np.zeros_like(t)], axis=1)
    with pytest.raises(DegenerateStrip):
        strip_sphere(EuclidNet(np.stack([row0, row1])), 1, 0)


# -- Cauchy generation -------------------------------------------------------------


def test_generate_cone_type_net():
    # planes through the z-axis x concentric spheres: cone-type net
    s1 = np.stack([plane_rep([np.cos(t), np.sin(t), 0], 0.0) for t in (0.2, 0.9, 1.7)])
    s2 = np.stack([sphere_rep([0, 0, 0], r) for r in (1.0, 1.6, 2.4)])
    fams = SphereFamilyPair(s1, s2)
    net = generate_multi_circular(np.array([0.5, 0.5, 0.3]), fams)
    assert is_multi_circular(net)
    assert classify_multi_circular(net).kind == NetClass.CONE


def test_generate_cylinder_type_net():
    s1 = np.stack([plane_rep([0, 0, 1], c) for c in (0.5, 1.3, 2.1)])
    s2 = np.stack([plane_rep([np.cos(t), np.sin(t), 0], 0.0) for t in (0.3, 1.0, 2.0)])
    net = generate_multi_circular(np.array([1.0, 0.2, 0.0]), SphereFamilyPair(s1, s2))
    assert is_multi_circular(net)
    assert classify_multi_circular(net).kind == NetClass.CYLINDER


def test_generate_rejects_non_orthogonal_families():
    s1 = np.stack([plane_rep([np.cos(t), np.sin(t), 0], 0.0) for t in (0.2, 0.9)])
    s2 = np.stack([plane_rep([0, np.cos(t), np.sin(t)], 0.3) for t in (0.4, 1.2)])
    with pytest.raises(MirrorsNotOrthogonal):
        SphereFamilyPair(s1, s2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family", [0, 1])
def test_sphere_families_with_a_non_finite_entry_raise_non_finite(bad, family):
    fams = [
        np.stack([plane_rep([np.cos(t), np.sin(t), 0], 0.0) for t in (0.2, 0.9, 1.7)]),
        np.stack([sphere_rep([0, 0, 0], r) for r in (1.0, 1.6, 2.4)]),
    ]
    fams[family][1, 3] = bad
    with pytest.raises(NonFiniteCoordinate, match=r"sphere representative \(1\)"):
        SphereFamilyPair(*fams)


# -- classification -----------------------------------------------------------------


def test_classify_three_kinds(rng):
    rot = rot_net(rng)
    assert classify_multi_circular(rot).kind == NetClass.ROTATIONAL
    dirs = rng.normal(size=(5, 3))
    cone = sample_cone(dirs, np.cumsum(rng.uniform(0.3, 1.0, 4)))
    assert classify_multi_circular(cone).kind == NetClass.CONE
    cyl = sample_cylinder(rng.uniform(-1, 1, (5, 2)), np.cumsum(rng.uniform(0.3, 1, 4)))
    assert classify_multi_circular(cyl).kind == NetClass.CYLINDER


def test_classification_moebius_invariant(rng):
    nets = [
        rot_net(rng),
        sample_cone(rng.normal(size=(4, 3)), np.cumsum(rng.uniform(0.3, 1.0, 4))),
        sample_cylinder(rng.uniform(-1, 1, (4, 2)), np.cumsum(rng.uniform(0.3, 1, 4))),
    ]
    s = sphere_rep([5.0, -4.0, 3.0], 2.0)
    for net in nets:
        before = classify_multi_circular(net).kind
        after = classify_multi_circular(invert_net(s, net)).kind
        assert before == after


def test_classify_degenerate_single_strip(rng):
    net = rot_net(rng, n_ang=2, n_prof=5)
    assert classify_multi_circular(net).kind == NetClass.DEGENERATE


def test_classify_repeated_angle_raises_zero_vector():
    # the repeated angle makes a Laplace vector vanish; the span kernel
    # rejects it as a zero row instead of decomposing NaN
    net = sample_rotational([[1, 0], [1.2, 0.5], [0.9, 1.1], [1.1, 1.6]], [0, 0.5, 0.5, 1])
    with pytest.raises(ZeroVector):
        classify_multi_circular(net)


def test_samplers_validate_profiles():
    with pytest.raises(DegenerateProfile):
        sample_rotational([[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0])
    with pytest.raises(DegenerateProfile):
        sample_cone([[1, 0, 0]], [1.0, 2.0])
    with pytest.raises(DegenerateProfile):
        sample_cylinder([[0, 0], [0, 0]], [0.0, 1.0])


@pytest.mark.parametrize("sample, args, message", [
    (sample_rotational, ([[1.0, 0.0], [1.2, 1.0]], 0.5), "two profile points and two angles"),
    (sample_cone, ([[1.0, 0, 0], [0, 1.0, 0]], 0.5), "two directions and two radii"),
    (sample_cylinder, ([[0.0, 0.0], [1.0, 0.0]], 0.5), "two base points and two offsets"),
])
def test_samplers_take_a_scalar_as_a_list_of_one(sample, args, message):
    with pytest.raises(DegenerateProfile, match=f"need at least {message}"):
        sample(*args)


# -- embeddedness -------------------------------------------------------------------


def test_rotational_monotone_profile_embedded(rng):
    assert check_embedded(rot_net(rng))


def test_crossing_quad_not_embedded():
    # swap two vertices of a circular quad: crossing order on the circle
    t = [0.0, 1.0, 2.5, 4.5]
    circ = [np.array([np.cos(a), np.sin(a), 0.0]) for a in t]
    quad = np.stack([[circ[0], circ[2]], [circ[1], circ[3]]])
    net = EuclidNet(quad)
    assert is_multi_circular(net)
    assert not check_embedded(net)


def test_torus_net_multi_circular_and_embedded():
    us = np.linspace(0.2, 2.2, 4)
    vs = np.linspace(-0.9, 0.9, 4)
    pts = np.array([[torus_point(2.0, 0.5, u, v) for v in vs] for u in us])
    net = EuclidNet(pts)
    assert is_multi_circular(net)
    assert check_embedded(net)
    assert classify_multi_circular(net).kind == NetClass.ROTATIONAL


def test_sample_canonical_dispatch(rng):
    net = sample_canonical(
        NetClass.ROTATIONAL,
        [[1.0, 0.0], [1.3, 0.6], [1.1, 1.2], [1.4, 1.9]],
        np.linspace(0.2, 5.0, 5),
    )
    assert classify_multi_circular(net).kind == NetClass.ROTATIONAL
    with pytest.raises(ValueError):
        sample_canonical(NetClass.DEGENERATE, [], [])


def test_embedded_elementary_implies_rectangles(rng):
    # monotone samplers: every elementary quad embedded, and indeed every
    # rectangle is embedded as well
    net = rot_net(rng)
    quads = rect_stacks(net.points, elementary=True)[1][:, [0, 1, 3, 2]]
    assert _circle_order_embedded(quads, np.zeros(quads.shape[:2], dtype=bool)).all()
    assert check_embedded(net)


def scalar_circle_order_embedded(points) -> bool:
    """Reference: one quad given as four points or INF in cyclic order,
    angles on the circumcircle from one SVD, oo as the wrap point of a line."""
    infinite = [k for k, p in enumerate(points) if p is INF]
    if len(infinite) > 1:
        raise DuplicatePoints("two vertices at infinity")
    if len(infinite) == 1:
        k = infinite[0]
        finite = [np.asarray(points[(k + s) % 4], dtype=float) for s in (1, 2, 3)]
        d = finite[2] - finite[0]
        d = d / np.linalg.norm(d)
        t = [float(np.dot(p - finite[0], d)) for p in finite]
        return (t[0] < t[1] < t[2]) or (t[0] > t[1] > t[2])
    pts = [np.asarray(p, dtype=float) for p in points]
    c = np.mean(pts, axis=0)
    _, s, vh = np.linalg.svd(np.stack([p - c for p in pts]), full_matrices=False)
    ang = [np.arctan2(float(np.dot(p - c, vh[1])), float(np.dot(p - c, vh[0]))) for p in pts]
    if s[1] <= 1e-9 * s[0]:  # four finite points on a line: rank by the line coordinate
        ang = [float(np.dot(p - c, vh[0])) for p in pts]
    pos = np.empty(4, dtype=int)
    pos[np.argsort(ang)] = np.arange(4)
    seq = list(pos)
    rotations = [[seq[(k + shift) % 4] for k in range(4)] for shift in range(4)]
    return [0, 1, 2, 3] in rotations or [3, 2, 1, 0] in rotations


def scalar_check_embedded(net):
    """Reference: the scalar quad test on every rectangle in key order."""
    nu, nv = net.dims
    for (i0, i1), (j0, j1) in itertools.product(
        itertools.combinations(range(nu), 2), itertools.combinations(range(nv), 2)
    ):
        quad = [net.point(i0, j0), net.point(i1, j0), net.point(i1, j1), net.point(i0, j1)]
        if not scalar_circle_order_embedded(quad):
            return False
    return True


def test_stacked_order_test_equals_scalar_on_random_quads():
    rng = np.random.default_rng(31)
    quads, masks = [], []
    for t in range(1200):
        center, radius = rng.normal(size=3), rng.uniform(0.5, 2.0)
        e1, e2 = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
        ang = rng.uniform(0.0, 2 * np.pi, 4)
        mask = np.zeros(4, dtype=bool)
        if t % 3:
            pts = center + radius * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2)
        else:  # a line through oo, one corner at oo
            pts = center + np.outer(rng.uniform(-2.0, 2.0, 4), e1)
            mask[rng.integers(4)] = True
            pts[mask] = 0.0
        quads.append(pts)
        masks.append(mask)
    quads.append(np.zeros((4, 3)))
    masks.append(np.array([False, True, False, True]))
    got = _circle_order_embedded(np.stack(quads), np.stack(masks))
    want = []
    for pts, mask in zip(quads[:-1], masks[:-1]):
        want.append(scalar_circle_order_embedded([INF if m else p for p, m in zip(pts, mask)]))
    assert got[:-1].tolist() == want
    assert 200 < sum(want) < 1000
    assert sum(w for w, m in zip(want, masks) if m.any()) > 50
    with pytest.raises(DuplicatePoints):
        scalar_circle_order_embedded([np.zeros(3), INF, np.ones(3), INF])
    assert not got[-1]


def circle_net(angles):
    """Net on the unit circle of the xy-plane: every rectangle concyclic."""
    a = np.asarray(angles, dtype=float)
    return EuclidNet(np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=-1))


def test_net_not_embedded_only_on_a_non_elementary_rectangle():
    net = circle_net([[0.0, 5.0], [1.0, 4.0], [0.5, 5.5]])
    assert is_multi_circular(net)
    quads = rect_stacks(net.points, elementary=True)[1][:, [0, 1, 3, 2]]
    assert _circle_order_embedded(quads, np.zeros(quads.shape[:2], dtype=bool)).all()
    assert not check_embedded(net)
    keys, corners = rect_stacks(net.points, elementary=False)
    crossing = [k for k, q in zip(keys, corners) if not scalar_circle_order_embedded(q[[0, 1, 3, 2]])]
    assert crossing == [(0, 2, 0, 1)]


def line_net(rows):
    """Net on the x-axis, None marking a vertex at oo."""
    return EuclidNet.from_grid([[INF if x is None else [x, 0.0, 0.0] for x in row] for row in rows])


def test_two_corners_at_infinity_raise_unless_a_crossing_comes_first():
    # (1, 2, 0, 1) crosses; (0, 1, 0, 1) has two corners at oo and comes first
    net = line_net([[None, 2.0], [None, 1.0], [0.0, 3.0]])
    assert is_multi_circular(net)
    with pytest.raises(DuplicatePoints):
        check_embedded(net)
    # rows reversed: the crossing (0, 1, 0, 1) comes before (1, 2, 0, 1)
    assert not check_embedded(line_net([[0.0, 3.0], [None, 1.0], [None, 2.0]]))


def test_four_finite_collinear_corners_ranked_along_the_line():
    # a circle through oo with no corner there: cyclic order along the line
    # is embedded, swapping two corners crosses
    rng = np.random.default_rng(0)
    for _ in range(200):
        p, d = rng.normal(size=3), rng.normal(size=3)
        pts = p + np.sort(rng.uniform(-2.0, 2.0, 4))[:, None] * d
        embedded, crossing = EuclidNet(pts[[[0, 3], [1, 2]]]), EuclidNet(pts[[[0, 3], [2, 1]]])
        assert check_embedded(embedded) and scalar_check_embedded(embedded)
        assert not check_embedded(crossing) and not scalar_check_embedded(crossing)


@pytest.mark.parametrize("seed", range(8))
def test_embeddedness_invariant_under_inversion(seed):
    # Moebius maps keep the cyclic order on each circle up to reversal.
    # Centres stay in [-1, 1]^3, where invert_point sends a sphere's own
    # centre to oo (farther out it may not; see CHANGES.md).
    rng = np.random.default_rng(seed)
    nets = [rot_net(rng, 4, 4), circle_net(rng.uniform(0.0, 2 * np.pi, (3, 4)))]
    verdicts = set()
    for net in nets:
        want = check_embedded(net)
        assert want == scalar_check_embedded(net)
        verdicts.add(want)
        i, j = rng.integers(net.dims[0]), rng.integers(net.dims[1])
        centre = rng.uniform(-1.0, 1.0, 3)
        moved = EuclidNet(net.points - net.points[i, j] + centre)
        at_vertex = invert_net(sphere_rep(centre, rng.uniform(0.5, 2.0)), moved)
        assert np.argwhere(at_vertex.at_infinity).tolist() == [[i, j]]
        generic = invert_net(sphere_rep(rng.uniform(-1.0, 1.0, 3), rng.uniform(0.5, 2.0)), moved)
        assert check_embedded(at_vertex) == check_embedded(generic) == want
    assert verdicts == {True, False}


def test_strip_spheres_all_pairs_orthogonal(rng):
    # the two families of strip spheres are mutually orthogonal
    net = rot_net(rng, n_ang=5, n_prof=5)
    fam1 = [strip_sphere(net, 1, i) for i in range(4)]
    fam2 = [strip_sphere(net, 2, j) for j in range(4)]
    for s1 in fam1:
        for s2 in fam2:
            assert abs(bilinear_eval(MOEBIUS, s1, s2)) < 1e-8
