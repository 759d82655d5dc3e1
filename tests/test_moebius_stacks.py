"""Stack forms of the projective kernels against closed forms, and single
points against stacks of one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multinets.circular import EuclidNet, invert_net, invert_point
from multinets.errors import DimensionMismatch, IsotropicMirror, NotOnQuadric, ZeroVector
from multinets.projective import (
    INF,
    MOEBIUS,
    ProjLine,
    meet_lines,
    moebius_drop,
    moebius_lift,
    normalize,
    polar_reflect,
    proj_distance,
    sphere_rep,
)

SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)
coords = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


def lift_ref(p):
    """(2p, |p|^2 - 1, |p|^2 + 1); oo lifts to (0, 0, 0, 1, 1)."""
    if p is INF:
        return np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    n2 = sum(c * c for c in p)
    return np.array([2 * p[0], 2 * p[1], 2 * p[2], n2 - 1.0, n2 + 1.0])


def drop_ref(x):
    """x[:3] / (x4 - x3), which is oo when |x4 - x3| <= 1e-13 |x|."""
    w = x[4] - x[3]
    return INF if abs(w) <= 1e-13 * np.linalg.norm(x) else x[:3] / w


def reflect_ref(n, x, signature=MOEBIUS.signature):
    """x - 2 <x,n> / <n,n> n over the signature."""
    form = lambda a, b: sum(s * ak * bk for s, ak, bk in zip(signature, a, b))  # noqa: E731
    return x - 2.0 * form(x, n) / form(n, n) * n


def invert_ref(s, p):
    return drop_ref(reflect_ref(s, lift_ref(p)))


@st.composite
def point_stacks(draw, max_rows=6):
    """Points (k, 3) of R^3 with an infinity mask (k,)."""
    k = draw(st.integers(1, max_rows))
    pts = draw(arrays(float, (k, 3), elements=coords))
    mask = draw(arrays(bool, (k,)))
    return pts, mask


def as_points(pts, mask):
    return [INF if m else p for p, m in zip(pts, mask)]


def close(got, want, rtol=1e-14, scale=None):
    """Rows agree up to rtol times their size (or the given row scale)."""
    got, want = np.asarray(got), np.asarray(want)
    if scale is None:
        scale = np.maximum(1.0, np.linalg.norm(want, axis=-1, keepdims=True))
    return got.shape == want.shape and np.all(np.abs(got - want) <= rtol * scale)


def same_points(got, mask, want):
    """A dropped stack (points, mask) equals a list of points / INF."""
    assert list(mask) == [w is INF for w in want]
    assert close(got[~mask], np.reshape([w for w in want if w is not INF], (-1, 3)))
    assert np.all(got[mask] == 0.0)


@SETTINGS
@given(point_stacks())
def test_moebius_lift_stack_equals_points(stack):
    pts, mask = stack
    want = [lift_ref(p) for p in as_points(pts, mask)]
    assert close(moebius_lift(pts, mask), want)
    if not mask.any():
        assert close(moebius_lift(pts), want)


@SETTINGS
@given(point_stacks(), arrays(float, (6,), elements=st.floats(0.25, 4.0)))
def test_moebius_drop_stack_equals_points(stack, scales):
    pts, mask = stack
    lifted = np.stack([lift_ref(p) for p in as_points(pts, mask)]) * scales[: len(pts), None]
    got, at_inf = moebius_drop(lifted)
    same_points(got, at_inf, [drop_ref(x) for x in lifted])
    assert list(at_inf) == list(mask)


@SETTINGS
@given(point_stacks(), st.integers(0, 5), st.floats(0.01, 1.0))
def test_moebius_drop_stack_rejects_points_off_the_quadric(stack, row, push):
    pts, mask = stack
    lifted = np.stack([lift_ref(p) for p in as_points(pts, mask)])
    lifted[row % len(lifted), 4] += push * (1.0 + np.abs(lifted[row % len(lifted), 4]))
    with pytest.raises(NotOnQuadric):
        moebius_drop(lifted[row % len(lifted)])
    with pytest.raises(NotOnQuadric, match="point is not on the Moebius quadric"):
        moebius_drop(lifted)


@SETTINGS
@given(
    arrays(float, (4, 5), elements=coords),
    arrays(float, (4, 5), elements=coords),
)
def test_polar_reflect_stack_equals_points(mirrors, points):
    nn = np.einsum("ik,k,ik->i", mirrors, MOEBIUS.diagonal, mirrors)
    norms = np.sum(mirrors * mirrors, axis=-1)
    keep = (np.abs(nn) > 1e-6 * norms) & (norms > 1e-6) & (np.linalg.norm(points, axis=-1) > 1e-6)
    mirrors, points = mirrors[keep], points[keep]
    if not len(mirrors):
        return

    def agree(got, pairs):
        # rounding is relative to the terms x and 2 <x,n>/<n,n> n
        want = [reflect_ref(n, x) for n, x in pairs]
        scale = [[np.linalg.norm(x) + np.linalg.norm(x - w)] for (_, x), w in zip(pairs, want)]
        return close(got, want, 1e-13, np.asarray(scale))

    assert agree(polar_reflect(MOEBIUS, mirrors, points), list(zip(mirrors, points)))
    # one mirror against many points, many mirrors against one point
    assert agree(polar_reflect(MOEBIUS, mirrors[0], points), [(mirrors[0], x) for x in points])
    assert agree(polar_reflect(MOEBIUS, mirrors, points[0]), [(n, points[0]) for n in mirrors])


@SETTINGS
@given(point_stacks(), st.integers(0, 5))
def test_polar_reflect_stack_rejects_isotropic_mirrors(stack, row):
    pts, mask = stack
    mirrors = np.stack([lift_ref(p) for p in as_points(pts, mask)])
    points = np.stack([sphere_rep(p, 1.0) for p in pts])
    with pytest.raises(IsotropicMirror):
        polar_reflect(MOEBIUS, mirrors[row % len(pts)], points[0])
    with pytest.raises(IsotropicMirror, match="mirror lies on the quadric"):
        polar_reflect(MOEBIUS, mirrors, points)


@st.composite
def inversions(draw):
    """A sphere and points, some at oo and some at the sphere's centre.

    Near the origin and with radius at least 1/2 the centre maps to oo; for
    far or small spheres rounding would decide whether it drops to oo or to
    a finite point next to the centre.
    """
    pts, mask = draw(point_stacks())
    centre = draw(arrays(float, (3,), elements=st.floats(-1.0, 1.0)))
    radius = draw(st.floats(0.5, 2.0))
    at_centre = draw(arrays(bool, (len(pts),)))
    pts = np.where(at_centre[:, None], centre, pts)
    return sphere_rep(centre, radius), pts, mask, centre, at_centre


@SETTINGS
@given(inversions())
def test_invert_point_stack_equals_points(case):
    s, pts, mask, centre, at_centre = case
    want = [invert_ref(s, p) for p in as_points(pts, mask)]
    got, at_inf = invert_point(s, pts, mask)
    same_points(got, at_inf, want)
    # oo maps to the centre and the centre to oo
    assert np.all(at_inf[at_centre & ~mask])
    assert close(got[mask], np.broadcast_to(centre, got[mask].shape), 1e-12)


@SETTINGS
@given(inversions())
def test_invert_point_stacks_of_spheres(case):
    s, pts, mask, _, _ = case
    spheres = np.stack([s * 2.0 ** (k - 2) for k in range(len(pts))])
    got, at_inf = invert_point(spheres, pts, mask)
    same_points(got, at_inf, [invert_ref(s, p) for p in as_points(pts, mask)])


def test_invert_point_rejects_isotropic_sphere():
    mirror = moebius_lift([1.0, 2.0, 0.5])
    with pytest.raises(IsotropicMirror):
        invert_point(mirror, [0.0, 1.0, 0.0])
    with pytest.raises(IsotropicMirror):
        invert_point(mirror, np.zeros((2, 3)))


@SETTINGS
@given(inversions(), st.integers(1, 3))
def test_invert_net_equals_vertex_loop(case, nv):
    s, pts, mask, _, _ = case
    k = len(pts) // nv * nv
    if not k:
        return
    net = EuclidNet(pts[:k].reshape(-1, nv, 3), mask[:k].reshape(-1, nv))
    got = invert_net(s, net)
    nu = net.dims[0]
    want = EuclidNet.from_grid([[invert_ref(s, net.point(i, j)) for j in range(nv)] for i in range(nu)])
    assert np.array_equal(got.at_infinity, want.at_infinity)
    assert close(got.points.reshape(-1, 3), want.points.reshape(-1, 3))


# -- one point is a stack of one -------------------------------------------------


def stacked(a):
    """A stack of one of a point (d,) or line (2, d); a 0-d input stays as is."""
    a = np.asarray(a, dtype=float)
    return a[None] if a.ndim else a


def meet_stacked(a, b):
    point, ranks = meet_lines(stacked(a), stacked(b))
    assert ranks[0].tolist() == [2, 2, 3]
    return point[0]


def drop_stacked(x):
    pts, at_inf = moebius_drop(stacked(x))
    return INF if at_inf[0] else pts[0]


P3 = np.array([0.3, -1.2, 0.7])
X = lift_ref(P3)
MIRROR = sphere_rep([0.1, 0.2, -0.3], 1.5)
LINE1, LINE2 = np.array([[0.0, 0, 0, 1], [1, 0, 0, 1]]), np.array([[2.0, 0, 0, 1], [3, 1, 0, 1]])
ZERO_LINE = np.array([[0.0, 0, 0, 0], [1, 0, 0, 1]])
SHORT_LINE = np.array([[1.0, 0, 0], [0, 1, 0]])

# kernel -> (single-point form, stack-of-one form giving row 0, argument
# tuples, (error, argument tuple) pairs that both forms must raise)
KERNELS = {
    "normalize": (
        normalize,
        lambda p: normalize(stacked(p))[0],
        [([-3.0, 1.0, 2.0, 0.5],)],
        [(ZeroVector, ([0.0, 0.0, 0.0],)), (DimensionMismatch, (2.0,))],
    ),
    "proj_distance": (
        proj_distance,
        lambda u, v: proj_distance(stacked(u), stacked(v))[0],
        [([1.0, 2.0, 3.0, 4.0], [1.0, 2.5, 3.0, 4.0])],
        [
            (ZeroVector, ([0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0])),
            (DimensionMismatch, ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])),
            (DimensionMismatch, (1.0, 2.0)),
        ],
    ),
    "QuadricForm.eval": (
        MOEBIUS.eval,
        lambda x, y: MOEBIUS.eval(stacked(x), stacked(y))[0],
        [(X, MIRROR)],
        [
            (ZeroVector, (X, np.zeros(5))),
            (DimensionMismatch, (X, [1.0, 2.0, 3.0])),
            (DimensionMismatch, (X, 1.0)),
        ],
    ),
    "QuadricForm.on_quadric": (
        MOEBIUS.on_quadric,
        lambda x: MOEBIUS.on_quadric(stacked(x))[0],
        [(X,), (MIRROR,)],
        [(ZeroVector, (np.zeros(5),)), (DimensionMismatch, (X[:4],)), (DimensionMismatch, (1.0,))],
    ),
    "polar_reflect": (
        lambda n, x: polar_reflect(MOEBIUS, n, x),
        lambda n, x: polar_reflect(MOEBIUS, stacked(n), stacked(x))[0],
        [(MIRROR, X)],
        [
            (ZeroVector, (np.zeros(5), X)),
            (ZeroVector, (MIRROR, np.zeros(5))),
            (DimensionMismatch, (MIRROR, X[:4])),
            (DimensionMismatch, (MIRROR, 1.0)),
            (IsotropicMirror, (X, MIRROR)),
        ],
    ),
    "moebius_lift": (
        moebius_lift,
        lambda p: moebius_lift(stacked(p))[0],
        [(P3,), (np.zeros(3),)],
        [(DimensionMismatch, ([1.0, 2.0],)), (DimensionMismatch, (1.0,))],
    ),
    "moebius_drop": (
        moebius_drop,
        drop_stacked,
        [(X,), (-2.5 * X,), (lift_ref(INF),)],
        [
            (ZeroVector, (np.zeros(5),)),
            (DimensionMismatch, (X[:4],)),
            (DimensionMismatch, (1.0,)),
            (NotOnQuadric, (MIRROR,)),
        ],
    ),
    "meet_lines": (
        lambda a, b: meet_lines(ProjLine(*a), ProjLine(*b)),
        meet_stacked,
        [(LINE1, LINE2)],
        [(ZeroVector, (LINE1, ZERO_LINE)), (DimensionMismatch, (LINE1, SHORT_LINE))],
    ),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_one_point_is_a_stack_of_one(kernel):
    single, stack_of_one, cases, broken = KERNELS[kernel]
    for args in cases:
        got, want = single(*args), stack_of_one(*args)
        if want is INF:
            assert got is INF
        else:
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
    for error, args in broken:
        with pytest.raises(error):
            single(*args)
        with pytest.raises(error):
            stack_of_one(*args)
