"""Samplers, fixtures and the helpers that build representatives take stacks: a
stacked call equals the per-item calls, and each sampler equals a per-cell loop,
bit for bit."""

import numpy as np
import pytest

from multinets import cli
from multinets.circular import sample_rotational, torus_point, torus_u_tangent, torus_v_tangent
from multinets.congruences import (
    contact_element,
    hyperboloid_ruling_grid,
    lie_plane_rep,
    lie_point_rep,
    lie_sphere_rep,
    pluecker_embed,
    torus_contact_grid,
)
from multinets.conical import sample_s2_rotational, sample_s2_stereographic
from multinets.projective import normalize

SEEDS = range(20)


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def per_item(f, *stacks):
    """f applied to the rows of the given stacks one at a time, restacked."""
    return np.stack([f(*row) for row in zip(*stacks)])


def sorted_angles(rng, lo, hi):
    return np.sort(rng.uniform(lo, hi, rng.integers(2, 7)))


# -- helpers: a stack is the per-item calls -----------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_representatives_of_a_stack_are_the_per_item_representatives(seed):
    rng = np.random.default_rng(seed)
    p, q = rng.normal(size=(2, 7, 3)) * rng.uniform(0.1, 10, (2, 7, 1))
    r, off = rng.normal(size=(2, 7))
    n = q / np.linalg.norm(q, axis=-1, keepdims=True)
    assert_bits(pluecker_embed(p, q), per_item(pluecker_embed, p, q))
    assert_bits(lie_point_rep(p), per_item(lie_point_rep, p))
    assert_bits(lie_sphere_rep(p, r), per_item(lie_sphere_rep, p, r))
    assert_bits(lie_plane_rep(q, off), per_item(lie_plane_rep, q, off))
    assert_bits(contact_element(p, n), per_item(contact_element, p, n))
    # leading axes broadcast: one point against a stack of points
    assert_bits(pluecker_embed(p[0], q), per_item(lambda b: pluecker_embed(p[0], b), q))
    assert_bits(lie_sphere_rep(p[0], r), per_item(lambda s: lie_sphere_rep(p[0], s), r))


@pytest.mark.parametrize("seed", SEEDS)
def test_single_representatives_follow_the_one_vector_formulas(seed):
    """One item gives the floats of the formulas summed with np.dot."""
    rng = np.random.default_rng(seed)
    p, q = rng.normal(size=(2, 3)) * rng.uniform(0.1, 10, (2, 1))
    r, off = rng.normal(size=2)
    a = float(np.dot(p, p)) - r * r
    assert_bits(lie_sphere_rep(p, r), np.array([*p, (a - 1.0) / 2.0, (a + 1.0) / 2.0, r]))
    a = float(np.dot(p, p))
    assert_bits(lie_point_rep(p), np.array([*p, (a - 1.0) / 2.0, (a + 1.0) / 2.0, 0.0]))
    n = q / np.linalg.norm(q)
    assert_bits(lie_plane_rep(q, off), np.array([*n, off, off, -1.0]))
    plane = np.array([*(n / np.linalg.norm(n)), float(np.dot(p, n)), float(np.dot(p, n)), -1.0])
    assert_bits(contact_element(p, n), np.stack([normalize(lie_point_rep(p)), normalize(plane)]))
    u, v = q - p, np.cross(p, q)
    assert_bits(pluecker_embed(p, q), np.concatenate([u + v, u - v]))


@pytest.mark.parametrize("seed", SEEDS)
def test_torus_points_and_tangents_of_a_grid_are_the_per_angle_ones(seed):
    rng = np.random.default_rng(seed)
    big, small = rng.uniform(1.5, 3.0), rng.uniform(0.2, 1.0)
    u, v = np.meshgrid(rng.uniform(-7, 7, 4), rng.uniform(-7, 7, 5), indexing="ij")
    for f, args in (
        (torus_point, (big, small)),
        (torus_u_tangent, ()),
        (torus_v_tangent, ()),
    ):
        grid = f(*args, u, v)
        assert grid.shape == (4, 5, 3)
        assert_bits(grid.reshape(-1, 3), per_item(lambda a, b: f(*args, a, b), u.ravel(), v.ravel()))
    uu, vv = u[0, 0], v[0, 0]
    w = big + small * np.cos(vv)
    assert_bits(torus_point(big, small, uu, vv), np.array([w * np.cos(uu), w * np.sin(uu), small * np.sin(vv)]))
    assert_bits(torus_u_tangent(uu, vv), np.array([-np.sin(uu), np.cos(uu), 0.0]))
    assert_bits(
        torus_v_tangent(uu, vv),
        np.array([-np.sin(vv) * np.cos(uu), -np.sin(vv) * np.sin(uu), np.cos(vv)]),
    )


# -- samplers and fixtures: one broadcast equals the per-cell loop ----------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_rotational_is_the_per_angle_loop(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(2, 7)
    prof = np.stack([rng.uniform(0.5, 1.5, m), np.cumsum(rng.uniform(0.2, 0.6, m))], axis=1)
    ang = sorted_angles(rng, 0.0, 2 * np.pi)
    r, z = prof[:, 0], prof[:, 1]
    want = np.empty((len(ang), m, 3))
    for i, t in enumerate(ang):
        want[i, :, 0] = r * np.cos(t)
        want[i, :, 1] = r * np.sin(t)
        want[i, :, 2] = z
    assert_bits(sample_rotational(prof, ang).points, want)


@pytest.mark.parametrize("seed", SEEDS)
def test_s2_samplers_are_the_per_cell_loops(seed):
    rng = np.random.default_rng(seed)
    th, ph = sorted_angles(rng, 0.2, 2.9), sorted_angles(rng, 0.0, 6.0)
    want = np.empty((len(ph), len(th), 3))
    for i, p in enumerate(ph):
        want[i, :, 0] = np.sin(th) * np.cos(p)
        want[i, :, 1] = np.sin(th) * np.sin(p)
        want[i, :, 2] = np.cos(th)
    assert_bits(sample_s2_rotational(th, ph).points, want)
    us, vs = rng.uniform(-2, 2, rng.integers(2, 6)), rng.uniform(-2, 2, rng.integers(2, 6))
    want = np.empty((len(us), len(vs), 3))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            s = u * u + v * v + 1.0
            want[i, j] = (2 * u / s, 2 * v / s, (u * u + v * v - 1.0) / s)
    assert_bits(sample_s2_stereographic(us, vs).points, want)


@pytest.mark.parametrize("seed", SEEDS)
def test_congruence_fixtures_are_the_per_cell_loops(seed):
    rng = np.random.default_rng(seed)
    big, small = rng.uniform(1.5, 3.0), rng.uniform(0.2, 1.0)
    us, vs = sorted_angles(rng, 0.0, 2 * np.pi), sorted_angles(rng, -2.0, 2.0)
    want = np.empty((len(us), len(vs), 2, 6))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            w = big + small * np.cos(v)
            p = np.array([w * np.cos(u), w * np.sin(u), small * np.sin(v)])
            n = np.array([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)])
            want[i, j] = contact_element(p, n)
    assert_bits(torus_contact_grid(big, small, us, vs).lines, want)
    a, b = sorted_angles(rng, -2.0, 2.0), sorted_angles(rng, -2.0, 2.0)
    g1 = np.stack([normalize(pluecker_embed([x, 0.0, 0.0], [x, 1.0, x])) for x in a])
    g2 = np.stack([normalize(pluecker_embed([0.0, y, 0.0], [1.0, y, y])) for y in b])
    lines = hyperboloid_ruling_grid(a, b).lines
    assert_bits(lines[:, :, 0], np.broadcast_to(g1[:, None], lines[:, :, 0].shape))
    assert_bits(lines[:, :, 1], np.broadcast_to(g2[None], lines[:, :, 1].shape))


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_torus_patch_corners_are_the_per_corner_points(seed):
    rng = np.random.default_rng(seed)
    u0, u1 = np.sort(rng.uniform(0.0, 3.0, 2))
    v0, v1 = np.sort(rng.uniform(-0.6, 1.4, 2))
    corners, p_arc, q_arc = cli._torus_patch_data(2.0, 0.5, u0, u1, v0, v1)
    want = [torus_point(2.0, 0.5, u, v) for u, v in ((u0, v0), (u1, v0), (u0, v1), (u1, v1))]
    assert_bits(corners, np.stack(want))
    assert_bits(p_arc.end, want[1])
    assert_bits(q_arc.end, want[2])
