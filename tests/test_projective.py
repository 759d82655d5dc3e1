import itertools

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
    common_point_of_spans,
    index_pairs,
    intersect_spans,
    meet_lines,
    moebius_drop,
    moebius_lift,
    normalize,
    normalized_rows,
    plane_rep,
    polar_reflect,
    RANK_RTOL,
    _above_rank3,
    _orbit,
    _pair_span,
    _reflect,
    _rank4_certificate,
    corner_minors,
    proj_distance,
    proj_equal,
    rank_violations,
    rect_indices,
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


@pytest.mark.parametrize("shape", [(0, 4, 4), (0, 3, 5), (2, 0, 4, 4)])
def test_span_rank_of_an_empty_batch_is_empty_without_an_svd(shape, monkeypatch):
    """_above_rank3 hands span_rank the stacks its certificate leaves open,
    usually none: no row is normalized and no matrix decomposed."""
    from multinets import projective

    def refuse(*args, **kwargs):
        raise AssertionError("called on an empty batch")

    dtype = span_rank(np.eye(4)[None]).dtype
    monkeypatch.setattr(projective, "normalized_rows", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    ranks = span_rank(np.zeros(shape))
    assert ranks.shape == shape[:-2] and ranks.dtype == dtype


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


def test_orthogonal_is_the_polarized_quadric_rule_at_any_scale():
    """|<x,y>| <= QUADRIC_RTOL |x| |y| row by row, whatever the scale of x and y."""
    form = QuadricForm((1, 1, 1))
    x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])[:, None]
    y = np.array([[0.5e-9, 1.0, 0.0], [2e-9, 1.0, 0.0], [1.0, 0.0, 0.0]])[None]
    want = [[True, False, False], [True, True, True]]
    for sx, sy in ((1.0, 1.0), (1e-8, 1e8), (1e8, 3e-6)):
        assert form.orthogonal(sx * x, sy * y).tolist() == want
    assert MOEBIUS.orthogonal(sphere_rep([0, 0, 0], 1.0), sphere_rep([1, 1, 0], 1.0)).item()
    with pytest.raises(ZeroVector):
        form.orthogonal([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


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
        assert proj_distance(twice, x) <= 1e-10


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


@pytest.mark.parametrize("signature", [(1, 1, 1), (1, 1, 1, 1, -1), (1, 1, 1, 1, -1, -1)])
@pytest.mark.parametrize("mirror_shape, point_shape", [
    ((3,), (4,)), ((2, 4), (2, 1)), ((1, 3), (5, 2)), ((2, 3, 2), (2, 3, 3)), ((0,), (3,)),
])
def test_orbit_equals_a_reflect_loop_bit_for_bit(rng, signature, mirror_shape, point_shape):
    """_orbit of mirrors (..., F, d) and points (..., K, d) equals reflecting
    every point, one mirror after the other, as single vectors."""
    q = QuadricForm(signature)
    mirrors = rng.normal(size=(*mirror_shape, q.dim))
    points = rng.normal(size=(*point_shape, q.dim))
    orbit = _orbit(q, mirrors, points)
    batch = np.broadcast_shapes(mirror_shape[:-1], point_shape[:-1])
    assert orbit.shape == (*batch, mirror_shape[-1] + 1, point_shape[-1], q.dim)
    for b in np.ndindex(batch):
        m = np.broadcast_to(mirrors, (*batch, *mirrors.shape[-2:]))[b]
        for k, x in enumerate(np.broadcast_to(points, (*batch, *points.shape[-2:]))[b]):
            for f in range(len(m) + 1):
                assert np.array_equal(orbit[b][f, k], x)
                if f < len(m):
                    x = _reflect(q, m[f], x)


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
        assert rank_violations(keys, stacks) == []


def _stacks_near_threshold(rng, d):
    """4 x d stacks with sigma_4 / sigma_1 spread around RANK_RTOL."""
    out = []
    for eps in np.geomspace(0.2 * RANK_RTOL, 5 * RANK_RTOL, 200):
        u = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        v = np.linalg.qr(rng.normal(size=(d, d)))[0][:4]
        out.append(u @ np.diag([1.0, 0.8, 0.6, eps]) @ v)
    return np.stack(out)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_rank_violations_agree_with_span_rank_near_threshold(rng, d):
    stacks = _stacks_near_threshold(rng, d)
    ratios = []
    for st in stacks:
        s = np.linalg.svd(st / np.linalg.norm(st, axis=1, keepdims=True), compute_uv=False)
        ratios.append(s[-1] / s[0])
    ratios = np.array(ratios) / RANK_RTOL
    # both sides of the threshold are populated within a few percent of it
    assert np.any((ratios > 1.0) & (ratios < 1.05))
    assert np.any((ratios < 1.0) & (ratios > 0.95))
    keys = list(range(len(stacks)))
    report = rank_violations(keys, stacks)
    assert [k for k, _ in report] == [k for k in keys if span_rank(stacks[k]) > 3]
    for k, residual in report:
        assert np.isclose(residual, ratios[k] * RANK_RTOL, rtol=1e-6, atol=0)
        assert residual > RANK_RTOL


def test_rank_violations_zero_row():
    stacks = np.ones((2, 4, 4))
    stacks[1, 2] = 0.0
    with pytest.raises(ZeroVector):
        rank_violations([0, 1], stacks)
    with pytest.raises(ZeroVector):
        corner_minors(stacks)


def _rescaled_stacks(rng, count, d):
    """count stacks (4, d) with sigma_4 / sigma_1 log-uniform in
    [1e-12, 1e-6] before their rows are rescaled by 10^U(-4, 4); for d = 3 the
    third singular value takes that range instead."""
    k = min(4, d)
    s = np.ones((count, k))
    s[:, 1:] = rng.uniform(0.05, 1.0, (count, k - 1))
    s[:, -1] = 10 ** rng.uniform(-12, -6, count)
    u = np.linalg.qr(rng.normal(size=(count, 4, k)))[0]
    v = np.linalg.qr(rng.normal(size=(count, d, k)))[0]
    stacks = np.einsum("nik,nk,njk->nij", u, s, v)
    return stacks * 10 ** rng.uniform(-4, 4, (count, 4, 1))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_corner_minors_are_the_volumes(rng, d):
    stacks = rng.normal(size=(50, 4, d)) * 10 ** rng.uniform(-4, 4, (50, 4, 1))
    rows = stacks / np.linalg.norm(stacks, axis=-1, keepdims=True)
    w, v3, v4 = corner_minors(stacks)
    triples = list(itertools.combinations(range(d), 3))
    assert w.shape == (50, 4, len(triples)) and v3.shape == (50, 4) and v4.shape == (50,)
    for t in range(4):
        triple = rows[:, [r for r in range(4) if r != t]]
        for k, cols in enumerate(triples):
            assert np.allclose(w[:, t, k], np.linalg.det(triple[:, :, cols]), rtol=0, atol=1e-14)
        s = np.linalg.svd(triple, compute_uv=False)
        volume = np.prod(s[:, :3], axis=-1) if d >= 3 else 0.0
        assert np.allclose(v3[:, t], volume, rtol=0, atol=1e-14)
    s = np.linalg.svd(rows, compute_uv=False)
    assert np.allclose(v4, np.prod(s[:, :4], axis=-1) if d >= 4 else 0.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_rank_certificate_and_its_fallback_equal_the_svd_rule(rng, d):
    stacks = _rescaled_stacks(rng, 4000, d)
    _, v3, v4 = corner_minors(stacks)
    planar, skew = _rank4_certificate(v3, v4, d)
    svd_rule = span_rank(stacks) > 3
    assert not np.any(planar & svd_rule) and not np.any(skew & ~svd_rule)
    assert np.array_equal(_above_rank3(stacks, v3, v4), svd_rule)
    if d >= 4:
        # the certificate decides both sides of the band, the SVD the rest
        assert np.mean(planar) > 0.2 and np.mean(skew) > 0.2
        assert np.any(svd_rule & ~skew) and np.any(~svd_rule & ~planar)
    keys = list(range(len(stacks)))
    s = np.linalg.svd(stacks / np.linalg.norm(stacks, axis=-1, keepdims=True), compute_uv=False)
    full = [(k, float(s[k, -1] / s[k, 0])) for k in np.flatnonzero(svd_rule)]
    assert rank_violations(keys, stacks) == full


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


@pytest.mark.parametrize("elementary", [True, False])
def test_rect_indices_are_memoized_and_read_only(elementary):
    rows, cols = rect_indices(5, 6, elementary)
    again = rect_indices(5, 6, elementary)
    assert again[0] is rows and again[1] is cols
    for idx in (rows, cols):
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 1
    for idx, want in zip(index_pairs(6), np.triu_indices(6, 1)):
        assert not idx.flags.writeable
        assert np.array_equal(idx, want)


@pytest.mark.parametrize("spread", [1e-5, 1e-6, 1e-7, 1e-8])
def test_common_point_of_nearly_coincident_lines(spread):
    """Seven lines through one exact common point p, spanned by p and by
    points q + spread g that nearly coincide: the least root sum of squared
    sines is 0, so every one of 200 families reads as in perspective."""
    rng = np.random.default_rng(0)
    spans = []
    for _ in range(200):
        p, q = rng.standard_normal((2, 4))
        spans.append(np.stack([np.broadcast_to(p, (7, 4)), q + spread * rng.standard_normal((7, 4))], axis=1))
    _, resid, _ = common_point_of_spans(np.stack(spans))
    assert np.all(resid <= RANK_RTOL)


def _root_sum_of_squared_sines(spans, ranks, v):
    """Root sum over the spans of |v - Q Q^T v|^2, Q an orthonormal basis of
    the first ranks[k] points of span k from np.linalg.qr."""
    total = 0.0
    for span, rank in zip(spans, ranks):
        q = np.linalg.qr(span[:rank].T)[0]
        total += np.sum((v - q @ (q.T @ v)) ** 2)
    return np.sqrt(total)


@pytest.mark.parametrize("min_rank", [1, 2])
@pytest.mark.parametrize("d", [4, 5])
def test_common_point_of_spans_minimizes_the_root_sum_of_squared_sines(d, min_rank):
    """Families of five spans, some of rank 1, half of them through a common
    point: the returned residual is the root sum of squared sines at the
    returned vector, measured independently, and no random direction does
    better; the second residual is no smaller."""
    rng = np.random.default_rng(10 * d + min_rank)
    spans = rng.standard_normal((40, 5, 2, d))
    spans[:20, :, 0] = rng.standard_normal((20, 5, 1)) * rng.standard_normal((20, 1, d))
    point = rng.random((40, 5)) < 0.3
    spans[point, 1] = -2.5 * spans[point, 0]
    ranks = np.where(point, 1, 2)
    vector, resid, second = common_point_of_spans(spans, min_rank=min_rank)
    assert np.allclose(np.linalg.norm(vector, axis=-1), 1.0)
    assert np.all(resid <= second)
    for k in range(40):
        counted = ranks[k] >= min_rank
        own = spans[k][counted], ranks[k][counted]
        assert abs(resid[k] - _root_sum_of_squared_sines(*own, vector[k])) <= 1e-12
        directions = rng.standard_normal((100, d))
        directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
        assert all(resid[k] <= _root_sum_of_squared_sines(*own, v) for v in directions)


# -- each rank question answered once --------------------------------------------


def _pairs_at_ratio(rng, count, d, ratio):
    """count pairs of rescaled rows (count, 2, d) whose unit rows have
    sigma_2 / sigma_1 = ratio: the second at the angle 2 atan(ratio) from
    the first, or from its opposite."""
    a = normalized_rows(rng.normal(size=(count, d)))
    u = rng.normal(size=(count, d))
    u = normalized_rows(u - np.sum(u * a, axis=1, keepdims=True) * a)
    theta = 2 * np.arctan(ratio)
    b = rng.choice([-1.0, 1.0], (count, 1)) * (np.cos(theta) * a + np.sin(theta) * u)
    return np.stack([a, b], axis=1) * rng.uniform(0.01, 100.0, (count, 2, 1))


@pytest.mark.parametrize("d", [3, 4, 6])
def test_the_two_row_rank_of_pair_span_is_span_rank(rng, d):
    """_pair_span decides the two-row rank of ProjLine, meet_lines and the
    identical-lines check; it equals span_rank on random pairs and on pairs
    at half and twice the threshold."""
    cases = {"random": rng.normal(size=(200, 2, d))}
    cases.update({t: _pairs_at_ratio(rng, 200, d, t * RANK_RTOL) for t in (0.5, 2.0)})
    for name, pairs in cases.items():
        unit = normalized_rows(pairs)
        ranks = 1 + _pair_span(unit[:, 0], unit[:, 1])[2][:, 0]
        assert ranks.tolist() == span_rank(pairs).tolist(), name
    assert set(span_rank(cases[0.5]).tolist()) == {1} and set(span_rank(cases[2.0]).tolist()) == {2}


def _line_pairs(rng, d):
    """Pairs of lines (200, 4, d) by their spanning points, 50 of each kind:
    skew, meeting, identical, and with a degenerate line (its second point a
    multiple of its first; in half of them both lines so)."""
    pts = rng.normal(size=(4, 50, 4, d))
    skew, meeting, identical, degenerate = pts
    meeting[:, 3] = np.einsum("nk,nkd->nd", rng.normal(size=(50, 3)), meeting[:, :3])
    identical[:, 2:] = np.einsum("nlk,nkd->nld", rng.normal(size=(50, 2, 2)), identical[:, :2])
    degenerate[:, 1] = rng.uniform(-3, 3, (50, 1)) * degenerate[:, 0]
    degenerate[:25, 3] = rng.uniform(-3, 3, (25, 1)) * degenerate[:25, 2]
    return np.concatenate(pts)


@pytest.mark.parametrize("d", [4, 6])
def test_meet_lines_ranks_are_the_three_span_ranks(rng, d, svd_shapes):
    """meet_lines reads its line ranks off _pair_span and the four-point rank
    off the SVD that finds the meet: one SVD per call, and the ranks of the
    span_rank calls they replace."""
    lines = _line_pairs(rng, d)
    _, ranks = meet_lines(lines[:, :2], lines[:, 2:])
    assert len(svd_shapes) == 1
    want = np.stack([span_rank(lines[:, :2]), span_rank(lines[:, 2:]), span_rank(lines)], axis=-1)
    assert ranks.tolist() == want.tolist()
    kinds = [set(map(tuple, want[k : k + 50].tolist())) for k in range(0, 200, 50)]
    assert kinds[:3] == [{(2, 2, 4)}, {(2, 2, 3)}, {(2, 2, 2)}]
    assert kinds[3] == {(1, 1, 2), (1, 2, 3)}


def test_a_passing_listing_runs_no_svd(rng, monkeypatch):
    """rank_violations decides every stack by _above_rank3 and takes the SVD
    for the residuals of the violators only: none when all stacks pass."""
    stacks = rng.normal(size=(30, 4, 5))
    stacks[:, 3] = np.einsum("nk,nkd->nd", rng.normal(size=(30, 3)), stacks[:, :3])

    def refuse(*args, **kwargs):
        raise AssertionError("SVD for an empty listing")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert rank_violations(list(range(30)), stacks) == []


def test_a_quad_alone_and_in_a_batch_gets_the_same_minors_and_coefficients():
    """corner_minors sums each stack's minors in one order, so a quad gets
    bit-identical v3, v4 and Laplace coefficients alone and among all the
    elementary quads of its net (300 quads of random translation nets)."""
    from multinets.qnets import _laplace_gauges

    rng = np.random.default_rng(0)
    for _ in range(12):
        _, quads = rect_stacks(rng.normal(size=(6, 1, 4)) + rng.normal(size=(1, 6, 4)), elementary=True)
        _, v3, v4 = corner_minors(quads)
        coeffs = _laplace_gauges(quads)[2]
        for k in range(len(quads)):
            _, v3_k, v4_k = corner_minors(quads[k : k + 1])
            assert (v3_k[0].tolist(), v4_k.tolist()) == (v3[k].tolist(), [v4[k]])
            assert _laplace_gauges(quads[k : k + 1])[2][0].tolist() == coeffs[k].tolist()


# -- row norms beyond the square root of the largest float ----------------------------


def test_row_norms_keep_the_plain_norm_below_huge_and_scale_above(rng):
    from multinets.errors import NonFiniteCoordinate
    from multinets.projective import _HUGE, _row_norms
    from multinets.qnets import PointNet

    plain = rng.normal(size=(300, 5)) * 10.0 ** rng.uniform(-150, np.log10(_HUGE) - 1, (300, 1))
    huge = rng.normal(size=(300, 5)) * 10.0 ** rng.uniform(151, 300, (300, 1))
    want = np.linalg.norm(plain, axis=-1, keepdims=True)
    assert np.array_equal(_row_norms(plain), want)
    # plain rows keep their norm bit for bit next to huge ones, and a huge
    # row's norm is its norm taken at an exact power-of-two scale
    got = _row_norms(np.concatenate([plain, huge]))
    assert np.array_equal(got[:300], want)
    exact = np.linalg.norm(huge * 2.0**-800, axis=-1, keepdims=True) * 2.0**800
    assert np.max(np.abs(got[300:] / exact - 1.0)) <= 4e-16
    # non-finite rows keep their plain norm next to huge ones, without
    # squaring an entry beyond _HUGE (an overflow, an error here), so a net
    # of such a row raises NonFiniteCoordinate; empty stacks have no norm
    odd = _row_norms(np.array([[np.inf, 2.0, 0.0], [np.nan, 1.0, 0.0], [-np.inf, 1e100, 0.0], [1e200, 0.0, 0.0],
                               [np.inf, 1e200, 0.0], [np.nan, 1e200, 0.0]]))
    assert odd[0, 0] == np.inf and np.isnan(odd[1, 0]) and odd[2, 0] == np.inf and odd[3, 0] == 1e200
    assert odd[4, 0] == np.inf and np.isnan(odd[5, 0])
    with pytest.raises(NonFiniteCoordinate):
        PointNet(np.array([[[np.nan, 1e200, 0.0, 1.0]]]))
    assert np.isnan(_row_norms(np.array([[np.nan, 1.0]]))[0, 0])
    assert _row_norms(np.empty((0, 4))).shape == (0, 1)


@pytest.mark.parametrize("size", [1e155, 1e200, 1e300])
def test_huge_coordinates_keep_their_geometry(size):
    """Coordinates whose squares overflow: normalize keeps the point,
    proj_distance reads two distinct points apart, the net classes build
    quietly, and IsoLineGrid still tells an isotropic line from one that
    is not."""
    from multinets.congruences import IsoLineGrid
    from multinets.projective import LIE
    from multinets.qnets import PlaneNet, PointNet

    assert np.allclose(normalize([size, 0.0, 0.0, 1.0]), [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)
    assert normalize([size, 0.0, 0.0, 1.0])[3] > 0.0
    assert abs(proj_distance([size, 0.0, 0.0, 1.0], [0.0, size, 0.0, 1.0]) - 1.0) <= 1e-15
    assert abs(proj_distance([size, 0.0, 0.0, 1.0], [size, size, 0.0, 1.0]) - np.sqrt(0.5)) <= 1e-15
    PointNet([[[size, 0.0, 0.0, 1.0]]])
    PlaneNet([[[size, 0.0, 0.0, 1.0]]])
    isotropic = size * np.array([[1.0, 0, 0, 0, 1, 0], [0.0, 1, 0, 0, 0, 1]])
    IsoLineGrid(isotropic[None, None], LIE)
    with pytest.raises(NotOnQuadric):
        IsoLineGrid(size * np.eye(6)[None, None, :2], LIE)
