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
