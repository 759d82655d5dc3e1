import numpy as np
import pytest

from multinets.errors import (
    DegenerateOrbit,
    DimensionMismatch,
    IsotropicMirror,
    MirrorsNotOrthogonal,
    NonFiniteCoordinate,
    NotOnQuadric,
    SeedNotOnQuadric,
)
from multinets.projective import MOEBIUS, bilinear_eval, polar_reflect, proj_distance
from multinets.qnets import PointNet, is_multi_q_net, laplace_transforms
from multinets.quadric_nets import generate_by_reflections, verify_polar_laplace

SQ2 = np.sqrt(0.5)


def split_block_mirrors(rng, k1, k2):
    """Mirror families in the orthogonal coordinate blocks span(e1,e2) and
    span(e3,e4,e5) of R^{4,1}; cross orthogonality is automatic."""
    n1 = np.zeros((k1, 5))
    n1[:, 0:2] = rng.uniform(-1, 1, (k1, 2))
    while np.any(np.linalg.norm(n1[:, 0:2], axis=1) < 0.2):
        n1[:, 0:2] = rng.uniform(-1, 1, (k1, 2))
    n2 = np.zeros((k2, 5))
    n2[:, 2:5] = rng.uniform(-1, 1, (k2, 3))
    while np.any(np.abs(n2[:, 2] ** 2 + n2[:, 3] ** 2 - n2[:, 4] ** 2) < 0.05):
        n2[:, 2:5] = rng.uniform(-1, 1, (k2, 3))
    return n1, n2


def quadric_seed(rng):
    u = rng.normal(size=4)
    u /= np.linalg.norm(u)
    return np.concatenate([u, [1.0]])


def test_hand_checked_orbit():
    net = generate_by_reflections(
        MOEBIUS, [[0, 1, 0, 0, 0]], [[0, 0, 1, 0, 0]], [0, SQ2, SQ2, 0, 1]
    )
    assert np.allclose(net.points[0, 0], [0, SQ2, SQ2, 0, 1])
    assert np.allclose(net.points[1, 0], [0, -SQ2, SQ2, 0, 1])
    assert np.allclose(net.points[0, 1], [0, SQ2, -SQ2, 0, 1])
    assert np.allclose(net.points[1, 1], [0, -SQ2, -SQ2, 0, 1])
    assert verify_polar_laplace(net, MOEBIUS)


def test_single_mirror_strip_is_mirror_image(rng):
    n1, n2 = split_block_mirrors(rng, 1, 4)
    net = generate_by_reflections(MOEBIUS, n1, n2, quadric_seed(rng))
    for j in range(5):
        img = polar_reflect(MOEBIUS, n1[0], net.points[0, j])
        assert proj_distance(img, net.points[1, j]) <= 1e-10


def test_six_by_six_mirrors_full_checks(rng):
    n1, n2 = split_block_mirrors(rng, 6, 6)
    net = generate_by_reflections(MOEBIUS, n1, n2, quadric_seed(rng))
    assert net.dims == (7, 7)
    assert is_multi_q_net(net)
    p = net.points
    vals = np.abs(np.einsum("ijk,k,ijk->ij", p, MOEBIUS.diagonal, p))
    assert np.all(vals <= 1e-9 * np.sum(p * p, axis=-1))
    assert verify_polar_laplace(net, MOEBIUS)


def test_laplace_transforms_equal_mirrors(rng):
    n1, n2 = split_block_mirrors(rng, 4, 5)
    net = generate_by_reflections(MOEBIUS, n1, n2, quadric_seed(rng))
    t1, t2 = laplace_transforms(net)
    for i in range(4):
        for j in range(5):
            assert proj_distance(t1.points[i, j], n1[i]) <= 1e-8
            assert proj_distance(t2.points[i, j], n2[j]) <= 1e-8


def test_commutation_on_orbit(rng):
    n1, n2 = split_block_mirrors(rng, 3, 3)
    x00 = quadric_seed(rng)
    for i in range(3):
        for j in range(3):
            a = polar_reflect(MOEBIUS, n1[i], polar_reflect(MOEBIUS, n2[j], x00))
            b = polar_reflect(MOEBIUS, n2[j], polar_reflect(MOEBIUS, n1[i], x00))
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)


def test_mirrors_not_orthogonal(rng):
    n1 = np.array([[0.0, 1, 0.3, 0, 0]])
    n2 = np.array([[0.0, 0, 1, 0, 0]])
    with pytest.raises(MirrorsNotOrthogonal):
        generate_by_reflections(MOEBIUS, n1, n2, quadric_seed(rng))


def test_isotropic_mirror_rejected(rng):
    n1 = np.array([[0.0, 0, 0, 1, 1]])  # on the quadric
    n2 = np.array([[0.0, 1, 0, 0, 0]])
    with pytest.raises(IsotropicMirror):
        generate_by_reflections(MOEBIUS, n1, n2, quadric_seed(rng))


def test_seed_off_quadric_rejected():
    with pytest.raises(SeedNotOnQuadric):
        generate_by_reflections(
            MOEBIUS, [[0, 1, 0, 0, 0]], [[0, 0, 1, 0, 0]], [1, 0, 0, 0, 2]
        )


def test_verify_polar_laplace_needs_quadric(rng):
    net = PointNet(rng.uniform(-1, 1, (3, 3, 5)), ambient="R41")
    with pytest.raises(NotOnQuadric):
        verify_polar_laplace(net, MOEBIUS)


def test_projected_multi_q_net_fails_polar_condition(rng):
    # multi-Q net in the ambient space, vertices pushed onto the quadric:
    # generically no longer multi-Q, or the polar condition fails
    from multinets.errors import GeometryError
    from multinets.qnets import from_translation

    net = from_translation(rng.uniform(-1, 1, (4, 5)), rng.uniform(-1, 1, (4, 5)), "R41")
    pts = net.points.copy()
    # rescale the last coordinate so every vertex satisfies <x,x> = 0
    space = np.linalg.norm(pts[..., :4], axis=-1)
    pts[..., 4] = np.sign(pts[..., 4]) * space
    projected = PointNet(pts, ambient="R41")
    try:
        assert not verify_polar_laplace(projected, MOEBIUS)
    except GeometryError:
        pass  # not even multi-Q after projection, equally a failure


def test_degenerate_orbit_for_fixed_seed():
    # seed orthogonal to a mirror is fixed by it: collapsed strip
    from multinets.errors import DegenerateOrbit

    n1 = np.array([[1.0, 0, 0, 0, 0]])
    n2 = np.array([[0.0, 0, 1, 0, 0]])
    x00 = np.array([0.0, 1, 0, 0, 1])  # <x00, n1> = 0, on the quadric
    with pytest.raises(DegenerateOrbit):
        generate_by_reflections(MOEBIUS, n1, n2, x00)


def test_single_concyclic_quad_satisfies_polar_condition():
    from multinets.circular import lift_net, EuclidNet

    t = (0.2, 1.1, 2.9, 4.4)
    circ = np.array([[2 + np.cos(a), -1 + np.sin(a), 0.5] for a in t])
    quad = EuclidNet(np.stack([[circ[0], circ[3]], [circ[1], circ[2]]]))
    lifted = lift_net(quad)
    assert verify_polar_laplace(lifted, MOEBIUS)


def failing_families():
    """A seed on the quadric and split-block families (3 and 2 mirrors) that
    are valid, fix the orbit in each direction, or fail to commute."""
    rng = np.random.default_rng(8)
    x00 = quadric_seed(rng)
    n1 = np.zeros((3, 5))
    n1[:, :2] = rng.uniform(-1, 1, (3, 2))
    n2 = np.zeros((2, 5))
    n2[:, 2:] = [[0.3, 0.2, 0.9], [-0.4, 0.5, 1.2]]
    # n1[1] is orthogonal to the row-1 points, n2[1] to the column-1 points
    p10 = polar_reflect(MOEBIUS, n1[0], x00)
    fix1 = n1.copy()
    fix1[1, :2] = [-p10[1], p10[0]]
    p01 = polar_reflect(MOEBIUS, n2[0], x00)
    fix2 = n2.copy()
    fix2[1, 2:] = [p01[3], -p01[2], 0.0]
    # orthogonal within the 1e-9 tolerance, yet not commuting within 1e-10
    skew = n2.copy()
    skew[1, 1] = 4e-10
    return x00, {
        "valid": (n1, n2, None),
        "fix1": (fix1, n2, (DegenerateOrbit, "mirror 1[1] fixes the orbit at (1,0)")),
        "fix2": (n1, fix2, (DegenerateOrbit, "mirror 2[1] fixes the orbit at (0,1)")),
        "skew": (n1, skew, (MirrorsNotOrthogonal, "reflections 1[0] and 2[1] do not commute")),
    }


@pytest.mark.parametrize("kind", ["fix1", "fix2", "skew"])
def test_generation_errors_name_the_first_index(kind):
    x00, fams = failing_families()
    n1, n2, (exc, message) = fams[kind]
    with pytest.raises(exc) as info:
        generate_by_reflections(MOEBIUS, n1, n2, x00)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["n1", "n2", "x00"])
def test_non_finite_seed_or_mirror_raises_non_finite(bad, where):
    x00, fams = failing_families()
    n1, n2, _ = fams["valid"]
    args = {"n1": n1.copy(), "n2": n2.copy(), "x00": x00.copy()}
    args[where][..., 3] = bad
    with pytest.raises(NonFiniteCoordinate):
        generate_by_reflections(MOEBIUS, args["n1"], args["n2"], args["x00"])


def test_generation_takes_one_family_pair_and_one_seed():
    x00, fams = failing_families()
    n1, n2, _ = fams["valid"]
    for args in ((n1[None], n2, x00), (n1, n2[None], x00), (n1, n2, x00[None])):
        with pytest.raises(DimensionMismatch, match="one seed"):
            generate_by_reflections(MOEBIUS, *args)
