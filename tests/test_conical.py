import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multi_conical_nets

from multinets.circular import is_multi_circular
from multinets.conical import (
    GaussClass,
    classify_gauss,
    conical_violations,
    gauss_map,
    multi_conical_violations,
    is_conical_quad,
    is_multi_conical,
    parallel_conical_net,
    polarize_spherical,
    sample_s2_rotational,
    sample_s2_stereographic,
    sample_s2_symmetric_strip,
)
from multinets.errors import (
    DegenerateProfile,
    DimensionMismatch,
    DuplicatePoints,
    InconsistentCorner,
    NonFiniteCoordinate,
    NotConcurrent,
    NotMultiCircular,
    NotOnSphere,
    SingularPropagation,
    ZeroNormal,
)
from multinets.projective import RANK_RTOL, normalized_rows, rect_stacks, span_rank
from multinets.qnets import PlaneNet, is_multi_qstar


CYLINDER = "planes not tangent to a common cylinder"


def s2_rot(n_lon=5, n_lat=4):
    return sample_s2_rotational(
        np.linspace(0.5, 2.2, n_lat), np.linspace(0.3, 4.0, n_lon)
    )


# -- gauss map ---------------------------------------------------------------


def test_gauss_map_of_sphere_tangent_planes_is_identity():
    net = s2_rot()
    pn = polarize_spherical(net)
    assert np.allclose(gauss_map(pn).points, net.points)


def test_gauss_map_constant_for_parallel_planes():
    cov = np.zeros((3, 3, 4))
    cov[..., 2] = 2.0
    cov[..., 3] = np.arange(9).reshape(3, 3) + 1.0
    g = gauss_map(PlaneNet(cov))
    assert np.allclose(g.points, [0, 0, 1])


def test_gauss_map_zero_normal():
    cov = np.zeros((2, 2, 4))
    cov[..., 3] = 1.0
    with pytest.raises(ZeroNormal):
        gauss_map(PlaneNet(cov))


# -- conical quads ------------------------------------------------------------


def test_tangent_planes_of_cone_of_revolution():
    # tangent planes of the unit sphere along a circle of latitude are
    # tangent to a common cone of revolution
    t = (0.1, 0.9, 2.2, 4.0)
    pts = np.array(
        [[np.sin(0.7) * np.cos(a), np.sin(0.7) * np.sin(a), np.cos(0.7)] for a in t]
    )
    quad = np.concatenate([pts, np.ones((4, 1))], axis=1)
    assert is_conical_quad(quad)


def test_random_concurrent_planes_not_conical(rng):
    n = rng.normal(size=(4, 3))
    x0 = np.array([0.3, -0.2, 0.5])
    quad = np.concatenate([n, (n @ x0)[:, None]], axis=1)
    assert not is_conical_quad(quad)


def test_sphere_tangent_planes_at_concyclic_points():
    # concyclic points on the sphere (small circle, not a latitude)
    axis = np.array([1.0, 1.0, 0.5])
    axis /= np.linalg.norm(axis)
    e1 = np.array([0.0, -0.4472136, 0.89442719])
    e1 -= (e1 @ axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    h = 0.6
    r = np.sqrt(1 - h * h)
    pts = np.array(
        [h * axis + r * (np.cos(a) * e1 + np.sin(a) * e2) for a in (0.2, 1.4, 3.0, 5.1)]
    )
    quad = np.concatenate([pts, np.ones((4, 1))], axis=1)
    assert is_conical_quad(quad)


def test_non_concurrent_quad_rejected(rng):
    cov = rng.uniform(-1, 1, (4, 4))
    with pytest.raises(NotConcurrent):
        is_conical_quad(cov)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_covector_raises_before_the_concurrency_test(rng, bad):
    cov = rng.uniform(-1, 1, (4, 4))
    cov[2, 1] = bad
    with pytest.raises(NonFiniteCoordinate, match=r"plane covector \(2\)"):
        is_conical_quad(cov)


@pytest.mark.parametrize("args", [(0.5, [1.0, 2.0]), ([1.0, 2.0], 0.5)])
@pytest.mark.parametrize("sample", [sample_s2_rotational, sample_s2_stereographic])
def test_s2_samplers_take_a_scalar_as_a_list_of_one(sample, args):
    with pytest.raises(DegenerateProfile, match="need at least a 2x2 grid"):
        sample(*args)


# -- multi-conical ------------------------------------------------------------


def test_polarized_net_multi_conical():
    pn = polarize_spherical(s2_rot())
    assert is_multi_conical(pn)
    assert not conical_violations(pn)


def test_parallel_net_multi_conical(rng):
    pn = polarize_spherical(s2_rot())
    nu, nv = pn.dims
    d_row = 1 + 0.2 * rng.uniform(-1, 1, nu)
    d_col = 1 + 0.2 * rng.uniform(-1, 1, nv)
    d_col[0] = d_row[0]
    par = parallel_conical_net(pn, d_row, d_col)
    assert is_multi_conical(par)
    assert np.max(np.abs(gauss_map(par).points - gauss_map(pn).points)) < 1e-10


def test_random_qstar_not_multi_conical(rng):
    cov = rng.uniform(-1, 1, (4, 4, 4))
    x0 = np.array([0.3, 0.5, -0.2])
    cov[..., 3] = cov[..., 0] * x0[0] + cov[..., 1] * x0[1] + cov[..., 2] * x0[2]
    pn = PlaneNet(cov)
    assert is_multi_qstar(pn)
    assert not is_multi_conical(pn)


def test_lemma_both_directions(rng):
    # multi-conical <=> multi-Q* and multi-circular Gauss map
    pn = polarize_spherical(s2_rot())
    assert is_multi_qstar(pn) and is_multi_circular(gauss_map(pn))
    cov = rng.uniform(-1, 1, (4, 4, 4))
    x0 = np.array([0.1, 0.2, 0.3])
    cov[..., 3] = cov[..., :3] @ x0
    pn2 = PlaneNet(cov)
    assert is_multi_conical(pn2) == (
        is_multi_qstar(pn2) and is_multi_circular(gauss_map(pn2))
    )


# -- polarization -------------------------------------------------------------


def test_polarize_equator_gives_vertical_planes():
    t = np.linspace(0.2, 5.0, 4)
    pts = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    net_pts = np.stack([pts, pts], axis=0)
    # two identical rows are degenerate; tilt the second row slightly
    t2 = t + 0.4
    net_pts[1] = np.stack([np.cos(t2), np.sin(t2), np.zeros_like(t2)], axis=1)
    from multinets.circular import EuclidNet

    net = EuclidNet(net_pts)
    pn = polarize_spherical(net)
    assert np.allclose(pn.covectors[..., 2], 0.0)  # vertical tangent planes


def test_polarize_requires_sphere(rng):
    from multinets.circular import EuclidNet

    with pytest.raises(NotOnSphere):
        polarize_spherical(EuclidNet(rng.uniform(-1, 1, (3, 3, 3))))


def test_s2_nets_are_decided_on_their_rows_p_1(rng):
    """polarize_spherical and classify_gauss decide multi-circularity by the
    rank rule on the rows (p, 1), which gives is_multi_circular's verdict on
    nets of the unit sphere, after the sphere itself is checked."""
    from multinets.circular import EuclidNet

    generic = EuclidNet(normalized_rows(rng.uniform(-1, 1, (3, 4, 3))))
    assert not is_multi_circular(generic)
    for net in (s2_rot(), sample_s2_stereographic([-1.0, 0.5, 1.3], [0.1, 0.8, 1.5]), generic):
        for check in (polarize_spherical, classify_gauss):
            if is_multi_circular(net):
                check(net)
            else:
                with pytest.raises(NotMultiCircular):
                    check(net)
    off = EuclidNet(rng.uniform(-1, 1, (3, 3, 3)))
    assert not is_multi_circular(off)
    for check in (polarize_spherical, classify_gauss):
        with pytest.raises(NotOnSphere):
            check(off)


def test_polarize_stereographic_grid():
    net = sample_s2_stereographic([-1.0, -0.2, 0.5, 1.3], [0.1, 0.8, 1.5])
    pn = polarize_spherical(net)
    assert is_multi_conical(pn)


def test_parallel_identity_and_constant_shift():
    pn = polarize_spherical(s2_rot())
    nu, nv = pn.dims
    same = parallel_conical_net(pn, np.ones(nu), np.ones(nv))
    assert np.allclose(same.covectors, pn.covectors)
    shifted = parallel_conical_net(pn, np.full(nu, 1.4), np.full(nv, 1.4))
    assert np.allclose(shifted.covectors[..., 3], 1.4)
    assert is_multi_conical(shifted)


def test_parallel_edges_parallel_to_base(rng):
    pn = polarize_spherical(s2_rot())
    nu, nv = pn.dims
    d_row = 1 + 0.3 * rng.uniform(-1, 1, nu)
    d_col = 1 + 0.3 * rng.uniform(-1, 1, nv)
    d_col[0] = d_row[0]
    par = parallel_conical_net(pn, d_row, d_col)

    def edge_dirs(p):
        n = p.covectors[..., :3]
        e = np.cross(n[:-1], n[1:])
        return e / np.linalg.norm(e, axis=-1, keepdims=True)

    cos = np.abs(np.sum(edge_dirs(pn) * edge_dirs(par), axis=-1))
    assert np.min(cos) > 1 - 1e-9


# -- Gauss-map classification ----------------------------------------------------


def test_classify_gauss_revolution():
    assert classify_gauss(s2_rot()).kind == GaussClass.REVOLUTION


def test_classify_gauss_stereographic():
    net = sample_s2_stereographic([-1.0, -0.2, 0.5, 1.3], [0.1, 0.8, 1.5])
    assert classify_gauss(net).kind == GaussClass.STEREOGRAPHIC_GRID


def test_classify_gauss_symmetric_strip(rng):
    up = rng.normal(size=(5, 3))
    up[:, 2] = np.abs(up[:, 2]) + 0.3
    up /= np.linalg.norm(up, axis=1, keepdims=True)
    net = sample_s2_symmetric_strip(up)
    assert is_multi_circular(net)
    assert classify_gauss(net).kind == GaussClass.SYMMETRIC_STRIP


def test_classify_gauss_rotation_invariant(rng):
    # rotations of S^2 are Moebius transformations of the sphere
    m = rng.normal(size=(3, 3))
    q = np.linalg.qr(m)[0]
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    for net, expected in (
        (s2_rot(), GaussClass.REVOLUTION),
        (
            sample_s2_stereographic([-1.0, -0.2, 0.5, 1.3], [0.1, 0.8, 1.5]),
            GaussClass.STEREOGRAPHIC_GRID,
        ),
    ):
        from multinets.circular import EuclidNet

        rotated = EuclidNet(net.points @ q.T)
        assert classify_gauss(rotated).kind == expected


def test_classify_gauss_inversion_invariant(rng):
    # a polar reflection of R^{3,1} with exterior mirror restricts to a
    # Moebius transformation of S^2
    from multinets.circular import EuclidNet
    from multinets.projective import MOEBIUS_S2, bilinear_eval, polar_reflect

    mirror = np.array([0.4, -0.3, 0.8, 0.5])
    assert bilinear_eval(MOEBIUS_S2, mirror, mirror) > 0.1
    for net, expected in (
        (s2_rot(), GaussClass.REVOLUTION),
        (
            sample_s2_stereographic([-1.0, -0.2, 0.5, 1.3], [0.1, 0.8, 1.5]),
            GaussClass.STEREOGRAPHIC_GRID,
        ),
    ):
        nu, nv = net.dims
        pts = np.empty((nu, nv, 3))
        for i in range(nu):
            for j in range(nv):
                lift = np.concatenate([net.points[i, j], [1.0]])
                img = polar_reflect(MOEBIUS_S2, mirror, lift)
                pts[i, j] = img[:3] / img[3]
        moved = EuclidNet(pts)
        assert np.max(np.abs(np.linalg.norm(pts, axis=-1) - 1.0)) < 1e-9
        assert classify_gauss(moved).kind == expected


# -- batched verifiers against the scalar quad test ------------------------------


def scalar_conical_violations(pn, elementary):
    """Reference sweep: is_conical_quad on every rectangle, in key order; a
    quad that fails it is named by the rank of the rows (nu, 1) of its unit
    normals nu, which is at most 3 iff the normals are concyclic."""
    nu, nv = pn.dims
    cov = pn.covectors
    bad = []
    for i0 in range(nu):
        for i1 in range(i0 + 1, nu):
            if elementary and i1 != i0 + 1:
                continue
            for j0 in range(nv):
                for j1 in range(j0 + 1, nv):
                    if elementary and j1 != j0 + 1:
                        continue
                    quad = np.stack([cov[i0, j0], cov[i1, j0], cov[i1, j1], cov[i0, j1]])
                    key = (i0, j0) if elementary else (i0, i1, j0, j1)
                    try:
                        if not is_conical_quad(quad):
                            n = quad[:, :3]
                            rows = np.concatenate([n, np.linalg.norm(n, axis=-1, keepdims=True)], axis=-1)
                            bad.append((key, "normals not concyclic" if span_rank(rows) > 3 else CYLINDER))
                    except NotConcurrent:
                        bad.append((key, "planes not concurrent"))
    return bad


def _agreement_nets(rng):
    base = [
        polarize_spherical(s2_rot()),
        polarize_spherical(s2_rot(4, 6)),
        polarize_spherical(
            sample_s2_stereographic([-1.0, -0.2, 0.5, 1.3], [0.1, 0.8, 1.5])
        ),
    ]
    pn = base[0]
    nu, nv = pn.dims
    d_row = 1 + 0.2 * rng.uniform(-1, 1, nu)
    d_col = 1 + 0.2 * rng.uniform(-1, 1, nv)
    d_col[0] = d_row[0]
    base.append(parallel_conical_net(pn, d_row, d_col))
    nets = list(base)
    x0 = np.array([0.3, -0.4, 0.2])
    for b in base:
        # offsets shaken: concurrency fails on some rectangles
        cov = b.covectors.copy()
        cov[..., 3] += 1e-3 * rng.normal(size=cov.shape[:2])
        nets.append(PlaneNet(cov))
        # normals shaken, planes kept through x0: concurrent, not concyclic
        n = b.covectors[..., :3] + 1e-3 * rng.normal(size=b.covectors.shape[:2] + (3,))
        nets.append(PlaneNet(np.concatenate([n, (n @ x0)[..., None]], axis=-1)))
        # one normal shaken, so only the rectangles through it change
        n = b.covectors[..., :3].copy()
        n[1, 2] += 0.05
        nets.append(PlaneNet(np.concatenate([n, (n @ x0)[..., None]], axis=-1)))
    return nets


def test_multi_conical_agrees_with_scalar_quad_test(rng):
    reasons = set()
    verdicts = set()
    for pn in _agreement_nets(rng):
        report = multi_conical_violations(pn)
        assert report == scalar_conical_violations(pn, elementary=False)
        assert is_multi_conical(pn) == (not report)
        assert conical_violations(pn) == scalar_conical_violations(pn, elementary=True)
        reasons |= {why for _, why in report}
        verdicts.add(not report)
    assert reasons == {"planes not concurrent", "normals not concyclic"}
    assert verdicts == {True, False}


def test_zero_normal_raises_only_on_concurrent_rectangles(rng):
    # planes parallel to the z-axis share the point at infinity (0, 0, 1, 0),
    # and so does the plane at infinity (zero normal part)
    cov = np.zeros((2, 2, 4))
    cov[..., :2] = rng.normal(size=(2, 2, 2))
    cov[..., 3] = rng.uniform(-1, 1, (2, 2))
    cov[1, 1] = [0.0, 0.0, 0.0, 1.0]
    for check in (conical_violations, multi_conical_violations):
        with pytest.raises(ZeroNormal):
            check(PlaneNet(cov))
    with pytest.raises(ZeroNormal):
        is_conical_quad(cov[[0, 1, 1, 0], [0, 0, 1, 1]])
    # three generic planes meet in a finite point off the plane at infinity
    cov[..., 2] = rng.normal(size=(2, 2))
    cov[1, 1] = [0.0, 0.0, 0.0, 1.0]
    assert conical_violations(PlaneNet(cov)) == [((0, 0), "planes not concurrent")]


def test_repeated_normal_raises_duplicate_points():
    pn = polarize_spherical(s2_rot())
    cov = pn.covectors.copy()
    cov[1, 1] = cov[0, 0]
    with pytest.raises(DuplicatePoints):
        is_conical_quad(cov[[0, 1, 1, 0], [0, 0, 1, 1]])
    for check in (conical_violations, multi_conical_violations):
        with pytest.raises(DuplicatePoints):
            check(PlaneNet(cov))


@pytest.mark.parametrize("shape", [(1, 5, 4), (5, 1, 4)])
def test_single_row_plane_net_has_empty_report(rng, shape):
    pn = PlaneNet(rng.uniform(-1, 1, shape))
    assert conical_violations(pn) == []
    assert multi_conical_violations(pn) == []
    assert is_multi_conical(pn)


def blaschke_points(cov):
    """Blaschke points (n, d, |n|) of covectors (..., 4)."""
    return np.concatenate([cov, np.linalg.norm(cov[..., :3], axis=-1, keepdims=True)], axis=-1)


@pytest.mark.parametrize("part", ["offsets", "normals"])
def test_multi_conical_listing_near_the_rank_threshold(part):
    """Planes through one point x0 with the normals of a multi-conical net;
    one offset (offsets) or one normal (normals, the plane kept through x0)
    is moved so that sigma_4 / sigma_1 of the Blaschke stacks of the
    rectangles through it sweeps RANK_RTOL.  The batched listing equals the
    per-rectangle reference throughout."""
    rng = np.random.default_rng(19)
    x0 = np.array([0.3, -0.4, 0.2])
    base = polarize_spherical(s2_rot()).covectors[..., :3]
    direction = rng.normal(size=3)
    ratios, reasons = [], set()
    # the Blaschke stacks through the moved plane read sigma_4 / sigma_1 of
    # 0.1 eps to 0.2 eps (offsets) and 0.004 eps to 0.17 eps (normals)
    low, high = {"offsets": (4.0, 10.0), "normals": (5.0, 40.0)}[part]
    for eps in np.geomspace(low, high, 30) * RANK_RTOL:
        n = base.copy()
        if part == "normals":
            n[1, 2] += eps * direction
        cov = np.concatenate([n, (n @ x0)[..., None]], axis=-1)
        if part == "offsets":
            cov[1, 2, 3] += eps
        pn = PlaneNet(cov)
        _, stacks = rect_stacks(blaschke_points(cov), elementary=False)
        s = np.linalg.svd(normalized_rows(stacks), compute_uv=False)
        ratios.extend(s[:, 3] / s[:, 0] / RANK_RTOL)
        report = multi_conical_violations(pn)
        assert report == scalar_conical_violations(pn, elementary=False)
        assert conical_violations(pn) == scalar_conical_violations(pn, elementary=True)
        reasons |= {why for _, why in report}
    # near the threshold, a rectangle whose covectors and normal rows each
    # pass their own rank test, but whose Blaschke stack fails, reads as the
    # cylinder case, as it does at exact rank
    main = {"offsets": "planes not concurrent", "normals": "normals not concyclic"}[part]
    assert main in reasons <= {main, CYLINDER}
    ratios = np.array(ratios)
    # both sides of the threshold are populated within a few percent of it
    assert np.any((ratios > 1.0) & (ratios < 1.05))
    assert np.any((ratios < 1.0) & (ratios > 0.95))


def test_multi_conical_nets_hand_no_four_point_stack_to_svd(svd_shapes):
    """On polar strip, rotational and stereographic nets and a parallel net
    of each, the volume certificate of _above_rank3 decides every Blaschke
    stack, and the pairwise-distinct check of the normals is closed form: no
    matrix reaches np.linalg.svd (only the empty batch of the stacks that the
    certificate leaves open)."""
    nets = multi_conical_nets()
    svd_shapes.clear()
    for pn in nets:
        assert is_multi_conical(pn)
        assert conical_violations(pn) == []
    assert sum(int(np.prod(s[:-2])) for s in svd_shapes) == 0


# -- parallel conical nets against the per-quad determinant recurrence -------------


def parallel_reference(spherical, d_row, d_col):
    """Reference: offsets from two 4x4 concurrency determinants per quad."""
    nu, nv = spherical.dims
    n = spherical.covectors[..., :3]
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    d = np.empty((nu, nv))
    d[:, 0] = d_row
    d[0, :] = d_col
    for i in range(nu - 1):
        for j in range(nv - 1):
            rows = np.empty((4, 4))
            rows[0, :3], rows[0, 3] = n[i, j], -d[i, j]
            rows[1, :3], rows[1, 3] = n[i + 1, j], -d[i + 1, j]
            rows[2, :3], rows[2, 3] = n[i, j + 1], -d[i, j + 1]
            rows[3, :3] = n[i + 1, j + 1]
            rows[3, 3] = 0.0
            f0 = np.linalg.det(rows)
            rows[3, 3] = -1.0
            coeff = np.linalg.det(rows) - f0
            if abs(coeff) <= 1e-13 * max(1.0, abs(f0)):
                raise SingularPropagation(f"degenerate quad at ({i},{j})")
            d[i + 1, j + 1] = -f0 / coeff
    return np.concatenate([n, d[..., None]], axis=-1)


@pytest.mark.parametrize("seed", range(30))
def test_parallel_net_equals_determinant_recurrence(seed):
    rng = np.random.default_rng(seed)
    n_lon, n_lat = rng.integers(3, 8, 2)
    base = polarize_spherical(sample_s2_rotational(
        np.sort(rng.uniform(0.3, 2.8, n_lat)), np.sort(rng.uniform(0.0, 6.0, n_lon))
    ))
    d_row = 1 + 0.5 * rng.uniform(-1, 1, n_lon)
    d_col = 1 + 0.5 * rng.uniform(-1, 1, n_lat)
    d_col[0] = d_row[0]
    got = parallel_conical_net(base, d_row, d_col).covectors
    want = parallel_reference(base, d_row, d_col)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_parallel_net_rejects_bad_offsets():
    pn = polarize_spherical(s2_rot())
    nu, nv = pn.dims
    with pytest.raises(DimensionMismatch):
        parallel_conical_net(pn, np.ones(nu + 1), np.ones(nv))
    with pytest.raises(InconsistentCorner):
        parallel_conical_net(pn, np.ones(nu), np.full(nv, 2.0))


@pytest.mark.parametrize("tilt", [0.0, 1e-14])
def test_parallel_net_on_one_meridian_is_singular(tilt):
    # all normals in the plane y = 0: every quad's planes share the y-axis
    # direction, so the offset does not enter the concurrency condition; a
    # tilt of 1e-14 leaves a minor of about 1.4e-14, under the 1e-13 cutoff
    up = np.array([[np.sin(a), 0.0, np.cos(a)] for a in (0.3, 0.8, 1.2, 0.5)])
    up[0, 1] = tilt
    up /= np.linalg.norm(up, axis=1, keepdims=True)
    pn = polarize_spherical(sample_s2_symmetric_strip(up))
    assert is_multi_conical(pn)
    for build in (parallel_conical_net, parallel_reference):
        with pytest.raises(SingularPropagation, match=r"^degenerate quad at \(0,0\)$"):
            build(pn, np.ones(4), np.ones(2))


# -- multi-conical listings under rigid motions and rescaling -----------------------


@functools.cache
def agreement_covectors():
    return [pn.covectors for pn in _agreement_nets(np.random.default_rng(12345))]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(0, 2**32 - 1), st.floats(0.0, 6.0))
def test_multi_conical_listing_invariant(index, seed, log_spread):
    cov = agreement_covectors()[index]
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    q[:, 0] *= np.sign(np.linalg.det(q))
    # x -> q x + t moves the plane <n, x> = d to <q n, y> = d + <q n, t>
    n = cov[..., :3] @ q.T
    moved = np.concatenate([n, (cov[..., 3] + n @ rng.uniform(-1, 1, 3))[..., None]], axis=-1)
    scales = 10.0 ** rng.uniform(-log_spread, log_spread, cov.shape[:2] + (1,))
    want = multi_conical_violations(PlaneNet(cov))
    assert multi_conical_violations(PlaneNet(moved)) == want
    assert multi_conical_violations(PlaneNet(cov * scales)) == want


# -- the Blaschke rule: planes parallel to a line, Laguerre invariance ------------------


@pytest.mark.parametrize("offsets, conical", [((0.7, -0.3, 1.1, 0.2), False), ((0.8,) * 4, True)])
def test_planes_parallel_to_a_line_are_conical_only_on_a_common_cylinder(offsets, conical):
    """Four planes parallel to the z-axis have their normals on the great
    circle z = 0 and meet only at infinity, so they are concurrent with
    concyclic normals.  They touch a common cylinder of revolution about the
    z-axis iff their offsets agree; generic offsets touch none, and neither
    does any cone.  (The rule before the Blaschke lift called both conical.)"""
    angles = np.array([0.3, 1.4, 2.9, 4.4])
    scale = np.array([1.0, 3.0, 0.5, 2.0])[:, None]
    normals = scale * np.stack([np.cos(angles), np.sin(angles), np.zeros(4)], axis=-1)
    cov = np.concatenate([normals, scale * np.array(offsets)[:, None]], axis=-1)
    pn = PlaneNet(cov.reshape(2, 2, 4))
    assert is_multi_qstar(pn) and is_multi_circular(gauss_map(pn))
    assert is_conical_quad(cov[[0, 1, 3, 2]]) == conical
    assert is_multi_conical(pn) == conical
    assert multi_conical_violations(pn) == ([] if conical else [((0, 1, 0, 1), CYLINDER)])
    assert conical_violations(pn) == ([] if conical else [((0, 0), CYLINDER)])


def laguerre_nets(seed):
    """A random parallel conical net (covectors) and two shaken variants:
    offsets shaken (planes not concurrent), and normals shaken with the
    planes kept through one point (normals not concyclic)."""
    rng = np.random.default_rng(seed)
    n_lon, n_lat = rng.integers(3, 6, 2)
    base = polarize_spherical(sample_s2_rotational(
        np.sort(rng.uniform(0.3, 2.8, n_lat)), np.sort(rng.uniform(0.0, 6.0, n_lon))
    ))
    d_row = 1 + 0.5 * rng.uniform(-1, 1, n_lon)
    d_col = 1 + 0.5 * rng.uniform(-1, 1, n_lat)
    d_col[0] = d_row[0]
    cov = parallel_conical_net(base, d_row, d_col).covectors
    offsets = cov.copy()
    offsets[..., 3] += 1e-3 * rng.normal(size=cov.shape[:2])
    n = cov[..., :3] + 1e-3 * rng.normal(size=cov.shape[:2] + (3,))
    through = np.concatenate([n, (n @ rng.uniform(-1, 1, 3))[..., None]], axis=-1)
    return [cov, offsets, through]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.floats(-1.0, 1.0))
def test_multi_conical_verdicts_are_laguerre_invariant(seed, index, offset):
    """The Blaschke points (n, d, |n|) of a net move by linear maps under a
    positive rescaling of each covector, the orientation flip
    (n, d) -> (-n, -d), rigid motions and a common offset d -> d + t |n|, so
    the rank mask, hence the keys of the listing and the verdict, stay.  The
    first three also keep concurrency and concyclicity, so the reasons stay;
    an offset moves concurrent planes off their common point, so only the
    keys are compared there."""
    cov = laguerre_nets(seed)[index]
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    q[:, 0] *= np.sign(np.linalg.det(q))
    n = cov[..., :3] @ q.T
    moved = np.concatenate([n, (cov[..., 3] + n @ rng.uniform(-1, 1, 3))[..., None]], axis=-1)
    scaled = cov * 10.0 ** rng.uniform(-3, 3, cov.shape[:2] + (1,))
    shifted = cov.copy()
    shifted[..., 3] += offset * np.linalg.norm(cov[..., :3], axis=-1)
    want = multi_conical_violations(PlaneNet(cov))
    assert bool(want) == (index > 0)
    for image in (moved, scaled, -cov):
        assert multi_conical_violations(PlaneNet(image)) == want
        assert is_multi_conical(PlaneNet(image)) == (not want)
    assert [key for key, _ in multi_conical_violations(PlaneNet(shifted))] == [key for key, _ in want]
    assert is_multi_conical(PlaneNet(shifted)) == (not want)


def test_polarizing_then_classifying_an_s2_net_decides_its_rectangles_once(monkeypatch):
    """polarize_spherical and classify_gauss both read the rows (p, 1) of the
    net, so they share one grid view: one _above_rank3 pass over its 60
    rectangles, then the elementary stage's pass over its 12 quads."""
    from multinets import qnets

    net = sample_s2_rotational([0.6, 1.0, 1.4, 1.9], [0.0, 0.7, 1.5, 2.1, 2.8])
    qnets._view_of.cache_clear()
    calls, original = [], qnets._above_rank3

    def counting(stacks, *args):
        calls.append(len(stacks))
        return original(stacks, *args)

    monkeypatch.setattr(qnets, "_above_rank3", counting)
    polarize_spherical(net)
    assert classify_gauss(net).kind == GaussClass.REVOLUTION
    assert calls == [60, 12]
