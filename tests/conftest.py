import numpy as np
import pytest

from multinets.circular import torus_point, torus_u_tangent, torus_v_tangent  # noqa: F401
from multinets.qnets import PointNet
from multinets.projective import proj_distance


def random_q_net(rng, nu, nv, dim=4):
    """Generic Q-net: planar quads glued with random Laplace coefficients
    (not multi-Q in general)."""
    pts = np.empty((nu, nv, dim))
    pts[0, 0] = rng.uniform(-1, 1, dim)
    for i in range(1, nu):
        pts[i, 0] = rng.uniform(-1, 1, dim)
    for j in range(1, nv):
        pts[0, j] = rng.uniform(-1, 1, dim)
    for i in range(1, nu):
        for j in range(1, nv):
            a, b, c = rng.uniform(0.3, 1.5, 3)
            pts[i, j] = a * pts[i, j - 1] + b * pts[i - 1, j] - c * pts[i - 1, j - 1]
    return PointNet(pts)


def noisy_translation_nets(eps, count=40, n=7):
    """count n x n translation nets [p_i + q_j] (default_rng(5)) with relative
    vertex noise: each vertex x moves by eps |x| g, g standard normal
    (default_rng(7))."""
    rng, noise = np.random.default_rng(5), np.random.default_rng(7)
    nets = []
    while len(nets) < count:
        pts = rng.uniform(-1, 1, (n, 1, 4)) + rng.uniform(-1, 1, (1, n, 4))
        if np.min(np.linalg.norm(pts, axis=-1)) > 1e-3:
            g = noise.standard_normal(pts.shape)
            nets.append(PointNet(pts + eps * np.linalg.norm(pts, axis=-1, keepdims=True) * g))
    return nets


def multi_conical_nets():
    """Polar nets of a symmetric strip, a rotational and a stereographic
    net on S^2, and a parallel conical net of each."""
    from multinets.conical import (parallel_conical_net, polarize_spherical, sample_s2_rotational,
                                   sample_s2_stereographic, sample_s2_symmetric_strip)

    rng = np.random.default_rng(5)
    up = rng.normal(size=(5, 3))
    up[:, 2] = np.abs(up[:, 2]) + 0.3
    up /= np.linalg.norm(up, axis=1, keepdims=True)
    spherical = [
        polarize_spherical(sample_s2_symmetric_strip(up)),
        polarize_spherical(sample_s2_rotational(np.linspace(0.5, 2.2, 5), np.linspace(0.3, 4.0, 6))),
        polarize_spherical(sample_s2_stereographic([-1.0, -0.2, 0.5, 1.3, 2.0], [0.1, 0.8, 1.5, 2.1])),
    ]
    nets = list(spherical)
    for pn in spherical:
        nu, nv = pn.dims
        d_row = 1 + 0.5 * rng.uniform(-1, 1, nu)
        d_col = 1 + 0.5 * rng.uniform(-1, 1, nv)
        d_col[0] = d_row[0]
        nets.append(parallel_conical_net(pn, d_row, d_col))
    return nets


def nets_proj_equal(n1, n2, tol=1e-8):
    nu, nv = n1.dims
    if (nu, nv) != n2.dims:
        return False
    return all(
        proj_distance(n1.points[i, j], n2.points[i, j]) <= tol
        for i in range(nu)
        for j in range(nv)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shapes of the matrices handed to np.linalg.svd while the test runs,
    in call order."""
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes
