import numpy as np
import pytest

from multinets.errors import (
    IdenticalLines,
    IsotropicMirror,
    NotOnQuadric,
    SkewLines,
    ZeroVector,
)
from multinets.projective import (
    INF,
    MOEBIUS,
    ProjLine,
    QuadricForm,
    bilinear_eval,
    intersect_spans,
    meet_lines,
    moebius_drop,
    moebius_lift,
    normalize,
    plane_rep,
    polar_reflect,
    RANK_RTOL,
    proj_distance,
    proj_equal,
    rank_violations,
    rect_stacks,
    span_rank,
    sphere_rep,
    sphere_rep_to_euclidean,
)

SQ2 = np.sqrt(0.5)


def test_normalize_scaling():
    assert np.allclose(normalize([0, 0, 0, 2]), [0, 0, 0, 1])


def test_normalize_sign_convention():
    assert np.allclose(normalize([-3, 0, 0, 0]), [1, 0, 0, 0])


def test_normalize_unit_norm():
    assert np.allclose(normalize([1, 1, 0, 0]), [SQ2, SQ2, 0, 0])


def test_normalize_zero_vector():
    with pytest.raises(ZeroVector):
        normalize([0.0, 0.0, 0.0])


def test_span_rank_planar_square():
    lifts = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]
    assert span_rank(lifts) == 3


def test_span_rank_tetrahedron():
    tet = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert span_rank(tet) == 4


def test_span_rank_projective_equality():
    p = np.array([0.3, -1.0, 2.0, 0.5])
    assert span_rank([p, 2 * p, -p]) == 1


def test_span_rank_scale_invariant(rng):
    pts = rng.uniform(-1, 1, (5, 4))
    r0 = span_rank(pts)
    scales = rng.uniform(0.01, 100.0, 5) * rng.choice([-1.0, 1.0], 5)
    assert span_rank(pts * scales[:, None]) == r0


def test_meet_lines_origin():
    l1 = ProjLine([0, 0, 0, 1], [1, 0, 0, 1])
    l2 = ProjLine([0, 0, 0, 1], [0, 1, 0, 1])
    assert proj_equal(meet_lines(l1, l2), [0, 0, 0, 1])


def test_meet_lines_parallel_at_infinity():
    l1 = ProjLine([0, 0, 0, 1], [1, 0, 0, 1])
    l2 = ProjLine([0, 1, 0, 1], [1, 1, 0, 1])
    assert proj_equal(meet_lines(l1, l2), [1, 0, 0, 0])


def test_meet_lines_derived():
    # intersection of the parametric lines solved by hand: (0, -2, 0)
    l1 = ProjLine([0, 0, 0, 1], [0, 1, 0, 1])
    l2 = ProjLine([2, 0, 0, 1], [3, 1, 0, 1])
    assert proj_equal(meet_lines(l1, l2), [0, -2, 0, 1])


def test_meet_lines_on_both_inputs(rng):
    for _ in range(20):
        a1, b1, a2 = rng.uniform(-1, 1, (3, 4))
        t = rng.uniform(-1, 1, 2)
        b2 = t[0] * a1 + t[1] * b1  # force coplanarity through the pencil
        l1 = ProjLine(a1, b1)
        l2 = ProjLine(a2, b2)
        p = meet_lines(l1, l2)
        assert span_rank([p, a1, b1]) == 2
        assert span_rank([p, a2, b2]) == 2


def test_meet_lines_skew():
    l1 = ProjLine([1, 0, 0, 0], [0, 1, 0, 0])
    l2 = ProjLine([0, 0, 1, 0], [0, 0, 0, 1])
    with pytest.raises(SkewLines):
        meet_lines(l1, l2)


def test_meet_lines_identical():
    l1 = ProjLine([0, 0, 0, 1], [1, 0, 0, 1])
    l2 = ProjLine([2, 0, 0, 1], [-1, 0, 0, 1])
    with pytest.raises(IdenticalLines):
        meet_lines(l1, l2)


def test_bilinear_isotropic_lift():
    x = [1, 0, 0, 0, 1]
    assert bilinear_eval(MOEBIUS, x, x) == 0.0


def test_bilinear_orthogonal_basis():
    assert bilinear_eval(MOEBIUS, [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]) == 0.0


def test_bilinear_euclidean():
    assert bilinear_eval(QuadricForm((1, 1, 1)), [1, 2, 3], [1, 1, 1]) == 6.0


def test_polar_reflect_coordinate():
    out = polar_reflect(QuadricForm((1, 1, 1)), [1, 0, 0], [1, 2, 3])
    assert np.allclose(out, [-1, 2, 3])


def test_polar_reflect_fixed_hyperplane():
    q = QuadricForm((1, 1, 1, 1))
    n = np.array([1.0, 1, 0, 0])
    x = np.array([1.0, -1, 3, 7])  # <x, n> = 0
    assert np.allclose(polar_reflect(q, n, x), x)


def test_polar_reflect_moebius_hand_value():
    # sigma_n formula evaluated by hand at n = e2
    x = np.array([0, SQ2, SQ2, 0, 1.0])
    out = polar_reflect(MOEBIUS, [0, 1, 0, 0, 0], x)
    assert np.allclose(out, [0, -SQ2, SQ2, 0, 1.0])


def test_polar_reflect_involution(rng):
    for _ in range(50):
        n = rng.uniform(-1, 1, 5)
        x = rng.uniform(-1, 1, 5)
        if abs(bilinear_eval(MOEBIUS, n, n)) < 1e-3:
            continue
        twice = polar_reflect(MOEBIUS, n, polar_reflect(MOEBIUS, n, x))
        assert proj_equal(twice, x, 1e-10)


def test_polar_reflect_preserves_form(rng):
    for _ in range(50):
        n = rng.uniform(-1, 1, 5)
        x = rng.uniform(-1, 1, 5)
        if abs(bilinear_eval(MOEBIUS, n, n)) < 1e-3:
            continue
        y = polar_reflect(MOEBIUS, n, x)
        xx = bilinear_eval(MOEBIUS, x, x)
        yy = bilinear_eval(MOEBIUS, y, y)
        assert abs(xx - yy) <= 1e-10 * max(1.0, abs(xx))


def test_polar_reflect_isotropic_mirror():
    with pytest.raises(IsotropicMirror):
        polar_reflect(MOEBIUS, [1, 0, 0, 0, 1], [0, 1, 0, 0, 0])


def test_moebius_lift_origin():
    assert proj_equal(moebius_lift([0, 0, 0]), [0, 0, 0, -1, 1])


def test_moebius_lift_infinity():
    assert np.allclose(moebius_lift(INF), [0, 0, 0, 1, 1])


def test_moebius_lift_isotropy(rng):
    for _ in range(100):
        p = rng.uniform(-5, 5, 3)
        l = moebius_lift(p)
        assert abs(bilinear_eval(MOEBIUS, l, l)) < 1e-12 * np.dot(l, l)


def test_moebius_roundtrip(rng):
    for _ in range(100):
        p = rng.uniform(-1, 1, 3) * rng.uniform(0, 1e3)
        q = moebius_drop(moebius_lift(p))
        assert np.linalg.norm(q - p) <= 1e-10 * max(1.0, np.linalg.norm(p))
    assert moebius_drop(moebius_lift(INF)) is INF


def test_moebius_drop_requires_quadric():
    with pytest.raises(NotOnQuadric):
        moebius_drop([1, 0, 0, 0, 2])


def test_sphere_rep_unit_sphere():
    assert proj_equal(sphere_rep([0, 0, 0], 1.0), [0, 0, 0, 1, 0])


def test_sphere_rep_incidence(rng):
    for _ in range(50):
        c = rng.uniform(-2, 2, 3)
        r = rng.uniform(0.1, 3.0)
        s = sphere_rep(c, r)
        u = rng.normal(size=3)
        p = c + r * u / np.linalg.norm(u)
        val = bilinear_eval(MOEBIUS, s, moebius_lift(p))
        assert abs(val) < 1e-9 * np.linalg.norm(s) * np.linalg.norm(moebius_lift(p))


def test_sphere_rep_inversion():
    s = sphere_rep([0, 0, 0], 1.0)
    img = moebius_drop(polar_reflect(MOEBIUS, s, moebius_lift([2.0, 0, 0])))
    assert np.allclose(img, [0.5, 0, 0])


def test_plane_rep_contains_infinity():
    s = plane_rep([0, 0, 1], 2.0)
    assert abs(bilinear_eval(MOEBIUS, s, moebius_lift(INF))) < 1e-12


def test_sphere_rep_decode(rng):
    for _ in range(20):
        c = rng.uniform(-2, 2, 3)
        r = rng.uniform(0.1, 3.0)
        kind, c2, r2 = sphere_rep_to_euclidean(sphere_rep(c, r) * rng.uniform(0.1, 5))
        assert kind == "sphere"
        assert np.allclose(c2, c) and abs(r2 - r) < 1e-10


def test_quadric_form_validation():
    with pytest.raises(ValueError):
        QuadricForm((1, 2, 1))


# -- rectangle kernel ----------------------------------------------------------


def test_rect_stacks_keys_and_corners(rng):
    grid = rng.uniform(-1, 1, (4, 3, 5))
    keys, stacks = rect_stacks(grid, elementary=False)
    assert keys == [
        (i0, i1, j0, j1)
        for i0 in range(4)
        for i1 in range(i0 + 1, 4)
        for j0 in range(3)
        for j1 in range(j0 + 1, 3)
    ]
    for (i0, i1, j0, j1), st in zip(keys, stacks):
        assert np.array_equal(st, grid[[i0, i1, i0, i1], [j0, j0, j1, j1]])
    keys, stacks = rect_stacks(grid, elementary=True)
    assert keys == [(i, i + 1, j, j + 1) for i in range(3) for j in range(2)]
    assert stacks.shape == (6, 4, 5)


@pytest.mark.parametrize("shape", [(1, 5, 4), (5, 1, 4), (1, 1, 4)])
def test_rect_stacks_without_rectangles(shape):
    for elementary in (True, False):
        keys, stacks = rect_stacks(np.ones(shape), elementary)
        assert keys == [] and stacks.shape == (0, 4, shape[2])
        assert rank_violations(keys, stacks, 3) == []


def _stacks_near_threshold(rng):
    """4 x 5 stacks with sigma_4 / sigma_1 spread around RANK_RTOL."""
    out = []
    for eps in np.geomspace(0.2 * RANK_RTOL, 5 * RANK_RTOL, 200):
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        v = np.linalg.qr(rng.normal(size=(5, 5)))[0][:4]
        out.append(u @ np.diag([1.0, 0.8, 0.6, eps]) @ v)
    return np.stack(out)


def test_rank_violations_agree_with_span_rank_near_threshold(rng):
    stacks = _stacks_near_threshold(rng)
    ratios = []
    for st in stacks:
        s = np.linalg.svd(st / np.linalg.norm(st, axis=1, keepdims=True), compute_uv=False)
        ratios.append(s[-1] / s[0])
    ratios = np.array(ratios) / RANK_RTOL
    # both sides of the threshold are populated within a few percent of it
    assert np.any((ratios > 1.0) & (ratios < 1.05))
    assert np.any((ratios < 1.0) & (ratios > 0.95))
    keys = list(range(len(stacks)))
    report = rank_violations(keys, stacks, 3)
    assert [k for k, _ in report] == [k for k in keys if span_rank(stacks[k]) > 3]
    for k, residual in report:
        assert np.isclose(residual, ratios[k] * RANK_RTOL, rtol=1e-6, atol=0)
        assert residual > RANK_RTOL


def test_rank_violations_zero_row():
    stacks = np.ones((2, 4, 4))
    stacks[1, 2] = 0.0
    with pytest.raises(ZeroVector):
        rank_violations([0, 1], stacks, 3)


def _intersect_pair(a, b, rtol=RANK_RTOL):
    """Reference: basis of span(a) ^ span(b) from orthonormal bases of the
    spans and the null space of [qa, -qb], one pair at a time."""

    def basis(m):
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        _, s, vh = np.linalg.svd(m, full_matrices=False)
        return vh[: int(np.sum(s > rtol * s[0]))]

    qa, qb = basis(a), basis(b)
    m = np.concatenate([qa, -qb]).T
    _, s, vh = np.linalg.svd(m)
    s = np.concatenate([s, np.zeros(m.shape[1] - len(s))])
    return vh[s <= rtol * s[0]][:, : len(qa)] @ qa


def test_intersect_spans_equals_pair_loop(rng):
    a = rng.normal(size=(240, 2, 5))
    b = rng.normal(size=(240, 2, 5))
    kind = np.arange(240) % 6
    eps = 10 ** rng.uniform(-11, -7, 240)
    for k in range(240):
        meet = a[k, 0] + rng.normal() * a[k, 1]
        if kind[k] == 1:  # lines that meet
            b[k, 0] = rng.normal() * meet
        elif kind[k] == 2:  # lines that nearly meet, around the threshold
            b[k, 0] = meet + eps[k] * rng.normal(size=5)
        elif kind[k] == 3:  # one line
            b[k] = rng.normal(size=(2, 2)) @ a[k]
        elif kind[k] == 4:  # a span of rank 1 through a point of b
            a[k] = [b[k, 0] + 0.3 * b[k, 1], -2.0 * (b[k, 0] + 0.3 * b[k, 1])]
        elif kind[k] == 5:  # a span of rank 1 off b
            a[k, 1] = 3.0 * a[k, 0]
    vector, dim = intersect_spans(a, b)
    for k in range(240):
        want = _intersect_pair(a[k], b[k])
        assert dim[k] == len(want)
        if len(want) == 1:
            assert proj_distance(vector[k], want[0]) < 1e-12
    assert set(dim.tolist()) == {0, 1, 2}
    near = dim[kind == 2]
    assert 0 < np.sum(near == 1) < len(near)
