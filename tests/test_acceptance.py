"""Acceptance suite: one criterion per test, each printing a pass/fail line
with its runtime and asserting the stated tolerances and budgets."""

import time

import numpy as np
import pytest

from conftest import torus_point, torus_u_tangent, torus_v_tangent
from multinets.circular import (
    EuclidNet,
    NetClass,
    classify_multi_circular,
    invert_net,
    is_concyclic,
    is_multi_circular,
    multi_circular_violations,
    sample_cone,
    sample_cylinder,
    sample_rotational,
)
from multinets.congruences import (
    CongruenceClass,
    classify_congruence,
    factor_congruence,
    from_generators,
    hyperboloid_ruling_grid,
    pluecker_embed,
    torus_contact_grid,
)
from multinets.conical import (
    gauss_map,
    is_multi_conical,
    parallel_conical_net,
    polarize_spherical,
    sample_s2_rotational,
    sample_s2_stereographic,
    sample_s2_symmetric_strip,
)
from multinets.errors import PlanarFamily
from multinets.projective import (
    MOEBIUS,
    PLUECKER,
    bilinear_eval,
    moebius_drop,
    moebius_lift,
    normalize,
    normalized_rows,
    polar_reflect,
    proj_distance,
    sphere_rep,
)
from multinets.qnets import (
    PointNet,
    all_pairs_perspectivity,
    from_translation,
    is_multi_q_net,
    is_translation_net,
    laplace_transforms,
    laplace_transforms_degenerate,
    neighbor_perspectivity,
)
from multinets.quadric_nets import generate_by_reflections
from multinets.subdivision import CircArc, arc_through_points, subdivide_circular, subdivide_q


class Criterion:
    def __init__(self, number, budget):
        self.number = number
        self.budget = budget
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f} s, budget {self.budget} s)")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget} s"
        return False


def random_non_multi_q_net(rng, nu, nv):
    pts = np.empty((nu, nv, 4))
    pts[0, 0] = rng.uniform(-1, 1, 4)
    for i in range(1, nu):
        pts[i, 0] = rng.uniform(-1, 1, 4)
    for j in range(1, nv):
        pts[0, j] = rng.uniform(-1, 1, 4)
    for i in range(1, nu):
        for j in range(1, nv):
            a, b, c = rng.uniform(0.3, 1.5, 3)
            pts[i, j] = a * pts[i, j - 1] + b * pts[i - 1, j] - c * pts[i - 1, j - 1]
    return PointNet(pts)


def test_criterion_1_multi_q_equivalences():
    with Criterion(1, 5.0):
        rng = np.random.default_rng(2026)
        for _ in range(50):
            net = from_translation(
                rng.uniform(-1, 1, (7, 4)), rng.uniform(-1, 1, (7, 4))
            )
            assert is_multi_q_net(net)
            assert neighbor_perspectivity(net)
            assert all_pairs_perspectivity(net)
            assert laplace_transforms_degenerate(net)
            assert is_translation_net(net)
        for _ in range(50):
            net = random_non_multi_q_net(rng, 7, 7)
            assert not is_multi_q_net(net)
            assert not neighbor_perspectivity(net)
            assert not all_pairs_perspectivity(net)
            assert not laplace_transforms_degenerate(net)
            assert not is_translation_net(net)


def test_criterion_2_reflection_generation():
    with Criterion(2, 2.0):
        rng = np.random.default_rng(2027)
        for _ in range(20):
            n1 = np.zeros((6, 5))
            n1[:, 0:2] = rng.uniform(-1, 1, (6, 2))
            while np.any(np.linalg.norm(n1[:, 0:2], axis=1) < 0.2):
                n1[:, 0:2] = rng.uniform(-1, 1, (6, 2))
            n2 = np.zeros((6, 5))
            n2[:, 2:5] = rng.uniform(-1, 1, (6, 3))
            while np.any(np.abs(n2[:, 2] ** 2 + n2[:, 3] ** 2 - n2[:, 4] ** 2) < 0.05):
                n2[:, 2:5] = rng.uniform(-1, 1, (6, 3))
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            net = generate_by_reflections(MOEBIUS, n1, n2, np.concatenate([u, [1.0]]))
            assert net.dims == (7, 7)
            p = net.points
            vals = np.abs(np.einsum("ijk,k,ijk->ij", p, MOEBIUS.diagonal, p))
            assert np.all(vals < 1e-9 * np.sum(p * p, axis=-1))
            assert is_multi_q_net(net)
            t1, t2 = laplace_transforms(net)
            for i in range(6):
                for j in range(6):
                    assert proj_distance(t1.points[i, j], n1[i]) <= 1e-8
                    assert proj_distance(t2.points[i, j], n2[j]) <= 1e-8


def _random_similarity(rng):
    m = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(m)
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    scale = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-1, 1, 3)
    return lambda p: scale * (q @ p) + shift


def test_criterion_3_circular_classification():
    with Criterion(3, 5.0):
        rng = np.random.default_rng(2028)
        kinds = [NetClass.ROTATIONAL, NetClass.CONE, NetClass.CYLINDER]
        for trial in range(100):
            kind = kinds[trial % 3]
            if kind == NetClass.ROTATIONAL:
                prof = np.stack(
                    [rng.uniform(0.5, 1.5, 5), np.cumsum(rng.uniform(0.2, 0.5, 5))],
                    axis=1,
                )
                ang = np.sort(rng.uniform(0, 2 * np.pi, 4))
                while np.min(np.diff(ang)) < 0.1:
                    ang = np.sort(rng.uniform(0, 2 * np.pi, 4))
                net = sample_rotational(prof, ang)
            elif kind == NetClass.CONE:
                dirs = rng.normal(size=(4, 3))
                net = sample_cone(dirs, np.cumsum(rng.uniform(0.3, 1.0, 5)))
            else:
                net = sample_cylinder(
                    rng.uniform(-1, 1, (5, 2)), np.cumsum(rng.uniform(0.3, 1.0, 4))
                )
            assert classify_multi_circular(net).kind == kind
            move = _random_similarity(rng)
            moved = EuclidNet(
                np.stack(
                    [
                        np.stack([move(net.points[i, j]) for j in range(net.dims[1])])
                        for i in range(net.dims[0])
                    ]
                )
            )
            center = np.array([8.0, 8.0, 8.0]) + rng.uniform(-1, 1, 3)
            s = sphere_rep(center, rng.uniform(0.5, 2.0))
            image = invert_net(s, moved)
            assert classify_multi_circular(image).kind == kind


def test_criterion_4_conical_duality():
    with Criterion(4, 3.0):
        rng = np.random.default_rng(2029)
        rot = sample_s2_rotational(np.linspace(0.5, 2.2, 4), np.linspace(0.3, 4.0, 5))
        stereo = sample_s2_stereographic([-1.0, -0.2, 0.5, 1.3], [0.1, 0.8, 1.5])
        up = rng.normal(size=(5, 3))
        up[:, 2] = np.abs(up[:, 2]) + 0.3
        up /= np.linalg.norm(up, axis=1, keepdims=True)
        strip = sample_s2_symmetric_strip(up)
        for net in (rot, stereo, strip):
            pn = polarize_spherical(net)
            assert is_multi_conical(pn)
        base = polarize_spherical(rot)
        nu, nv = base.dims
        for _ in range(20):
            d_row = 1 + 0.25 * rng.uniform(-1, 1, nu)
            d_col = 1 + 0.25 * rng.uniform(-1, 1, nv)
            d_col[0] = d_row[0]
            par = parallel_conical_net(base, d_row, d_col)
            assert is_multi_conical(par)
            dev = np.max(np.abs(gauss_map(par).points - gauss_map(base).points))
            assert dev < 1e-10


def test_criterion_5_q_subdivision():
    with Criterion(5, 1.0):
        rng = np.random.default_rng(2030)
        net = random_non_multi_q_net(rng, 4, 4)
        f1 = subdivide_q(net, 3, rounds=1)
        f2 = subdivide_q(net, 3, rounds=2)
        assert f1.dims == (10, 10) and f2.dims == (28, 28)
        for fine in (f1, f2):
            nu, nv = fine.dims
            quads = np.stack(
                [
                    np.stack(
                        [
                            fine.points[i, j],
                            fine.points[i + 1, j],
                            fine.points[i, j + 1],
                            fine.points[i + 1, j + 1],
                        ]
                    )
                    for i in range(nu - 1)
                    for j in range(nv - 1)
                ]
            )
            rows = quads / np.linalg.norm(quads, axis=-1, keepdims=True)
            s = np.linalg.svd(rows, compute_uv=False)
            assert np.max(s[:, -1] / s[:, 0]) < 1e-8
        for i in range(4):
            for j in range(4):
                assert np.array_equal(f2.points[9 * i, 9 * j], net.points[i, j])
        again = subdivide_q(net, 3, rounds=2)
        assert np.array_equal(f2.points, again.points)


def test_criterion_6_circular_subdivision():
    with Criterion(6, 1.0):
        big, small = 2.0, 0.5
        us = [0.2, 0.9, 1.7]
        vs = [-0.5, 0.3, 1.0]
        pts = np.array([[torus_point(big, small, u, v) for v in vs] for u in us])
        net = EuclidNet(pts)
        row = [
            CircArc(
                torus_point(big, small, us[i], vs[0]),
                torus_point(big, small, us[i + 1], vs[0]),
                torus_u_tangent(us[i], vs[0]),
            )
            for i in range(2)
        ]
        col = [
            CircArc(
                torus_point(big, small, us[0], vs[j]),
                torus_point(big, small, us[0], vs[j + 1]),
                torus_v_tangent(us[0], vs[j]),
            )
            for j in range(2)
        ]
        fine = subdivide_circular(net, 2, row, col)
        assert fine.dims == (5, 5)
        for i in range(5):
            for j in range(5):
                p = fine.points[i, j]
                resid = abs(
                    (np.sqrt(p[0] ** 2 + p[1] ** 2) - big) ** 2 + p[2] ** 2 - small**2
                )
                assert resid < 1e-7
        assert not multi_circular_violations(fine)
        # tangent continuity of the arc splines along every parameter line
        max_angle = 0.0
        for row_pts in list(fine.points) + list(fine.points.transpose(1, 0, 2)):
            arcs = [
                arc_through_points(row_pts[k], row_pts[k + 1], row_pts[k + 2])
                for k in range(0, len(row_pts) - 2, 2)
            ]
            for a, b in zip(arcs, arcs[1:]):
                cosang = np.clip(np.dot(a.tangent_at(1.0), b.tangent), -1, 1)
                max_angle = max(max_angle, float(np.arccos(cosang)))
        assert max_angle < 1e-6


def test_criterion_7_congruence_factorization():
    with Criterion(7, 2.0):
        rng = np.random.default_rng(2031)
        lie = torus_contact_grid(
            2.0, 0.5, [0.2, 1.1, 2.0, 3.2], [-0.8, -0.1, 0.6, 1.2]
        )
        factor_congruence(lie)
        assert classify_congruence(lie).kind == CongruenceClass.DUPIN_CYCLIDE
        plk = hyperboloid_ruling_grid(
            [-1.0, 0.3, 1.2, 2.0, 2.7], [-0.5, 0.5, 1.5, 2.5, 3.0]
        )
        assert classify_congruence(plk).kind == CongruenceClass.HYPERBOLOID
        pt = np.array([0.5, -0.3, 1.0])
        dirs = rng.normal(size=(6, 3))
        embeds = np.stack([normalize(pluecker_embed(pt, pt + d)) for d in dirs])
        pencil = from_generators(embeds[:3], embeds[3:], PLUECKER)
        with pytest.raises(PlanarFamily):
            factor_congruence(pencil)
        agree = 0
        for trial in range(200):
            if trial % 2 == 0:
                x = rng.uniform(-2, 2, 3)
                d1, d2 = rng.normal(size=(2, 3))
                p1, q1 = x - 0.7 * d1, x + 0.9 * d1
                p2, q2 = x + 1.3 * d2, x - 0.8 * d2
            else:
                p1, q1, p2, q2 = rng.uniform(-2, 2, (4, 3))
            e1 = pluecker_embed(p1, q1)
            e2 = pluecker_embed(p2, q2)
            pred = abs(bilinear_eval(PLUECKER, e1, e2)) < 1e-9 * np.linalg.norm(
                e1
            ) * np.linalg.norm(e2)
            n = np.cross(q1 - p1, q2 - p2)
            if np.linalg.norm(n) < 1e-9:
                oracle = np.linalg.norm(np.cross(p2 - p1, q1 - p1)) < 1e-9
            else:
                oracle = abs(np.dot(p2 - p1, n)) < 1e-9 * np.linalg.norm(n)
            agree += int(pred == oracle)
        assert agree == 200


def circumcircle_oracle(quad, tol=1e-6):
    """Brute-force concyclicity: circumcenter and radius of the first three
    points within their plane, then the distance of the fourth."""
    a, b, c, d = (np.asarray(p, dtype=float) for p in quad)
    u, v = b - a, c - a
    g = np.array([[u @ u, u @ v], [u @ v, v @ v]])
    al, be = np.linalg.solve(g, 0.5 * np.array([u @ u, v @ v]))
    center = a + al * u + be * v
    r = np.linalg.norm(a - center)
    return abs(np.linalg.norm(d - center) - r) < tol * max(1.0, r)


def test_criterion_8_oracle_cross_checks():
    with Criterion(8, 10.0):
        rng = np.random.default_rng(2032)
        agree = 0
        for trial in range(1000):
            center = rng.uniform(-2, 2, 3)
            r = rng.uniform(0.5, 2.0)
            basis = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2]
            angles = np.sort(rng.uniform(0, 2 * np.pi, 4))
            while np.min(np.diff(angles)) < 0.2:
                angles = np.sort(rng.uniform(0, 2 * np.pi, 4))
            quad = [
                center + r * (np.cos(t) * basis[:, 0] + np.sin(t) * basis[:, 1])
                for t in angles
            ]
            if trial % 2 == 1:
                # in-plane radial perturbation keeps the quad coplanar
                dirn = quad[3] - center
                quad[3] = quad[3] + 1e-3 * dirn / np.linalg.norm(dirn)
            pred = is_concyclic(*quad)
            oracle = circumcircle_oracle(quad)
            assert oracle == (trial % 2 == 0)
            agree += int(pred == oracle)
        assert agree == 1000
        for _ in range(500):
            c = rng.uniform(-2, 2, 3)
            r = rng.uniform(0.3, 2.0)
            p = c + rng.normal(size=3) * rng.uniform(0.3, 3.0)
            while np.linalg.norm(p - c) < 0.1:
                p = c + rng.normal(size=3) * rng.uniform(0.3, 3.0)
            s = sphere_rep(c, r)
            via_moebius = moebius_drop(polar_reflect(MOEBIUS, s, moebius_lift(p)))
            direct = c + r * r * (p - c) / np.dot(p - c, p - c)
            assert np.linalg.norm(via_moebius - direct) < 1e-9 * max(
                1.0, np.linalg.norm(direct)
            )
