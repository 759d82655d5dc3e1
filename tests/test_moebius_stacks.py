"""Stack forms of the Moebius kernels against their per-point forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multinets.circular import EuclidNet, invert_net, invert_point
from multinets.errors import IsotropicMirror, NotOnQuadric
from multinets.projective import (
    INF,
    MOEBIUS,
    moebius_drop,
    moebius_lift,
    polar_reflect,
    sphere_rep,
)

SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)
coords = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def point_stacks(draw, max_rows=6):
    """Points (k, 3) of R^3 with an infinity mask (k,)."""
    k = draw(st.integers(1, max_rows))
    pts = draw(arrays(float, (k, 3), elements=coords))
    mask = draw(arrays(bool, (k,)))
    return pts, mask


def as_points(pts, mask):
    return [INF if m else p for p, m in zip(pts, mask)]


def close(got, want, rtol=1e-14):
    """Rows agree up to rtol times their size."""
    got, want = np.asarray(got), np.asarray(want)
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
    want = [moebius_lift(p) for p in as_points(pts, mask)]
    assert close(moebius_lift(pts, mask), want)
    if not mask.any():
        assert close(moebius_lift(pts), want)


@SETTINGS
@given(point_stacks(), arrays(float, (6,), elements=st.floats(0.25, 4.0)))
def test_moebius_drop_stack_equals_points(stack, scales):
    pts, mask = stack
    lifted = np.stack([moebius_lift(p) for p in as_points(pts, mask)]) * scales[: len(pts), None]
    got, at_inf = moebius_drop(lifted)
    same_points(got, at_inf, [moebius_drop(x) for x in lifted])
    assert list(at_inf) == list(mask)


@SETTINGS
@given(point_stacks(), st.integers(0, 5), st.floats(0.01, 1.0))
def test_moebius_drop_stack_rejects_points_off_the_quadric(stack, row, push):
    pts, mask = stack
    lifted = np.stack([moebius_lift(p) for p in as_points(pts, mask)])
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
    want = [polar_reflect(MOEBIUS, n, x) for n, x in zip(mirrors, points)]
    assert close(polar_reflect(MOEBIUS, mirrors, points), want)
    # one mirror against many points, many mirrors against one point
    assert close(polar_reflect(MOEBIUS, mirrors[0], points), [polar_reflect(MOEBIUS, mirrors[0], x) for x in points])
    assert close(polar_reflect(MOEBIUS, mirrors, points[0]), [polar_reflect(MOEBIUS, n, points[0]) for n in mirrors])


@SETTINGS
@given(point_stacks(), st.integers(0, 5))
def test_polar_reflect_stack_rejects_isotropic_mirrors(stack, row):
    pts, mask = stack
    mirrors = np.stack([moebius_lift(p) for p in as_points(pts, mask)])
    points = np.stack([sphere_rep(p, 1.0) for p in pts])
    with pytest.raises(IsotropicMirror):
        polar_reflect(MOEBIUS, mirrors[row % len(pts)], points[0])
    with pytest.raises(IsotropicMirror, match="mirror lies on the quadric"):
        polar_reflect(MOEBIUS, mirrors, points)


@st.composite
def inversions(draw):
    """A sphere and points, some at oo and some at the sphere's centre.

    Near the origin and with radius at least 1/2 the centre maps to oo in
    either form; for far or small spheres rounding decides whether it drops
    to oo or to a finite point next to the centre, in both forms alike.
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
    want = [invert_point(s, p) for p in as_points(pts, mask)]
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
    same_points(got, at_inf, [invert_point(s, p) for p in as_points(pts, mask)])


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
    want = EuclidNet.from_grid([[invert_point(s, net.point(i, j)) for j in range(nv)] for i in range(nu)])
    assert np.array_equal(got.at_infinity, want.at_infinity)
    assert close(got.points.reshape(-1, 3), want.points.reshape(-1, 3))
