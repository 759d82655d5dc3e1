"""How the multi-rectangle predicates reach their verdicts: the first chunk
by SVD, the translation certificate, one SVD call for the rest; the shared
strip gauge and the perspectivity certificate; their agreement under Q/Q* duality and projective maps; the agreement of the
equivalent multi-Q characterizations away from their thresholds; and the
typed error for non-finite coordinates."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import noisy_translation_nets, random_q_net
from multinets import qnets
from multinets.circular import (
    EuclidNet,
    is_multi_circular,
    lift_net,
    multi_circular_violations,
    sample_rotational,
    strip_sphere,
)
from multinets.cli import main
from multinets.errors import (
    GeometryError,
    NonFiniteCoordinate,
    NotMultiCircular,
    ZeroVector,
    raise_unless_finite,
)
from multinets.projective import (
    RANK_RTOL,
    common_point_of_spans,
    corner_minors,
    normalized_rows,
    rect_indices,
    rect_stacks,
)
from multinets.qnets import (
    _CRAMER_VOLUME,
    _FIRST_CHUNK,
    PlaneNet,
    PointNet,
    _gauge_of,
    _perspectivity_certified,
    _rects_planar,
    _strip_gauge,
    _translation_certified,
    all_pairs_perspectivity,
    dualize_point_net,
    from_translation,
    is_multi_q_net,
    is_multi_qstar,
    is_q_net,
    is_translation_net,
    laplace_transforms_degenerate,
    multi_q_violations,
    multi_qstar_violations,
    neighbor_perspectivity,
    q_violations,
    qstar_violations,
    translation_gauge,
)

SETTINGS = settings(derandomize=True, database=None, max_examples=80, deadline=None)


def translation_points(seed, nu, nv):
    rng = np.random.default_rng(seed)
    while True:
        p, q = rng.uniform(-1, 1, (nu, 4)), rng.uniform(-1, 1, (nv, 4))
        pts = p[:, None] + q[None]
        if np.min(np.linalg.norm(pts, axis=-1)) > 1e-2:
            return pts


def rect_ratio(corners):
    """sigma_4 / sigma_1 of the row-normalized corner stack (4, d)."""
    s = np.linalg.svd(normalized_rows(corners), compute_uv=False)
    return s[3] / s[0]


def verdicts_agree(grid):
    """The certificate never passes a grid with a violating rectangle, and
    the chunked predicate equals the exhaustive check; the same for the
    perspectivity predicates (perspectivity_agrees)."""
    exhaustive = not multi_q_violations(PointNet(grid))
    assert exhaustive or not _translation_certified(grid)
    assert _rects_planar(grid) == exhaustive
    perspectivity_agrees(PointNet(grid))


# -- the certificate never passes a violating net -------------------------------


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(6, 9),
    st.integers(6, 9),
    st.floats(-12.0, -6.0),
    st.booleans(),
)
def test_certificate_sound_on_perturbed_translation_nets(seed, nu, nv, log_size, one_vertex):
    pts = translation_points(seed, nu, nv)
    noise = np.random.default_rng(seed + 1).normal(size=pts.shape)
    if one_vertex:
        keep = np.ones(pts.shape[:2], dtype=bool)
        keep[nu // 2 + 1, nv // 2 + 1] = False
        noise[keep] = 0.0
    noise *= 10.0**log_size * np.linalg.norm(pts, axis=-1, keepdims=True)
    verdicts_agree(pts + noise)


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(6, 9),
    st.integers(6, 9),
    st.floats(-12.0, 12.0),
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
)
def test_certificate_sound_on_rescaled_vertices(seed, nu, nv, log_spread, noise_size):
    rng = np.random.default_rng(seed + 2)
    pts = translation_points(seed, nu, nv)
    noise = rng.normal(size=pts.shape) * np.linalg.norm(pts, axis=-1, keepdims=True)
    pts = pts + noise_size * noise
    scales = 10.0 ** rng.uniform(-abs(log_spread), abs(log_spread), pts.shape[:2])
    verdicts_agree(pts * scales[..., None])


def near_threshold(seed, nu, nv, ratio):
    """Translation net with one vertex pushed off the span of the other three
    corners of one rectangle, so that that rectangle has about the given
    sigma_4 / sigma_1; the other rectangles through the vertex move too."""
    pts = translation_points(seed, nu, nv)
    i0, j0 = nu // 2 - 1, nv // 2 - 1
    i1, j1 = nu - 1, nv - 1
    others = pts[[i0, i1, i0], [j0, j0, j1]]
    away = np.linalg.svd(others)[2][-1] * np.linalg.norm(pts[i1, j1])
    probe = pts.copy()
    probe[i1, j1] += 1e-6 * away
    slope = rect_ratio(probe[[i0, i1, i0, i1], [j0, j0, j1, j1]]) / 1e-6
    pts[i1, j1] += ratio / slope * away
    return pts, (i0, i1, j0, j1)


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(6, 9),
    st.integers(6, 9),
    st.floats(0.2e-9, 5e-9),
)
def test_certificate_sound_near_the_rank_threshold(seed, nu, nv, ratio):
    pts, _ = near_threshold(seed, nu, nv, ratio)
    verdicts_agree(pts)


@pytest.mark.parametrize("factor", [0.2, 0.5, 0.9, 1.1, 2.0, 5.0])
def test_near_threshold_nets_reach_both_verdicts(factor):
    # the sweep above is not vacuous: the built rectangle sits at the ratio
    # asked for, and violates exactly when that ratio exceeds RANK_RTOL
    pts, (i0, i1, j0, j1) = near_threshold(7, 8, 8, factor * RANK_RTOL)
    got = rect_ratio(pts[[i0, i1, i0, i1], [j0, j0, j1, j1]])
    assert got == pytest.approx(factor * RANK_RTOL, rel=0.05)
    keys = [key for key, _ in multi_q_violations(PointNet(pts))]
    assert ((i0, i1, j0, j1) in keys) == (factor > 1)
    verdicts_agree(pts)


@pytest.mark.parametrize("seed", range(5))
def test_certificate_passes_translation_nets(seed):
    pts = translation_points(seed, 16, 16)
    assert _translation_certified(pts)
    scales = 10.0 ** np.random.default_rng(seed).uniform(-12, 12, (16, 16, 1))
    assert _translation_certified(pts * scales)


# -- the chunks give the exhaustive verdict -------------------------------------


def one_violating_rect(nu, nv, index, violate=True):
    """Grid (nu, nv, 4) whose only rectangle of rank 4 is the one at the
    given position in key order (none if not violate).

    All vertices lie in the hyperplane e4 = 0, on the line spanned by e1
    and e2 (pairwise distinct), except the rectangle's corner (i0, j0) at e3
    and its corner (i1, j1) off the hyperplane.  Any other rectangle through
    (i1, j1) has its three other corners on the line.
    """
    rows, cols = rect_indices(nu, nv, elementary=False)
    i0, i1, j0, j1 = rows[index, 0], rows[index, 1], cols[index, 0], cols[index, 2]
    t = 0.1 * np.arange(1, nu * nv + 1).reshape(nu, nv)
    grid = np.zeros((nu, nv, 4))
    grid[..., 0], grid[..., 1] = 1.0, t
    grid[i0, j0] = (0.0, 0.0, 1.0, 0.0)
    grid[i1, j1] = (0.3, 0.2, 0.1, 1.0 if violate else 0.0)
    return grid, (int(i0), int(i1), int(j0), int(j1))


def covectors(grid):
    """Plane net whose homogeneous covectors are the given grid."""
    cov = grid.copy()
    cov[..., 3] *= -1.0
    return PlaneNet(cov)


@pytest.mark.parametrize("nu, nv", [(6, 6), (5, 9)])
@pytest.mark.parametrize("where", ["last-of-first-chunk", "first-after-first-chunk", "last"])
@pytest.mark.parametrize("violate", [True, False])
def test_chunked_predicates_equal_exhaustive(nu, nv, where, violate):
    total = nu * (nu - 1) * nv * (nv - 1) // 4
    index = {"last-of-first-chunk": _FIRST_CHUNK - 1, "first-after-first-chunk": _FIRST_CHUNK,
             "last": total - 1}[where]
    grid, key = one_violating_rect(nu, nv, index, violate)
    net, planes = PointNet(grid), covectors(grid)
    assert [k for k, _ in multi_q_violations(net)] == ([key] if violate else [])
    assert [k for k, _ in multi_qstar_violations(planes)] == ([key] if violate else [])
    assert is_multi_q_net(net) == is_multi_qstar(planes) == (not violate)


# -- duality and projective maps ------------------------------------------------


def rect_ratios(grid):
    """sigma_4 / sigma_1 of every coordinate rectangle of a grid (nu, nv, 4)."""
    rows, cols = rect_indices(*grid.shape[:2], elementary=False)
    s = np.linalg.svd(normalized_rows(grid[rows, cols]), compute_uv=False)
    return s[:, 3] / s[:, 0]


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["translation", "generic", "perturbed"]),
    st.integers(3, 7),
    st.integers(3, 7),
)
def test_duality_and_projective_maps_keep_verdicts(seed, family, nu, nv):
    rng = np.random.default_rng(seed)
    if family == "generic":
        pts = random_q_net(rng, nu, nv).points
    else:
        pts = translation_points(seed, nu, nv)
    if family == "perturbed":
        pts[rng.integers(nu), rng.integers(nv)] += rng.uniform(1e-6, 1e-3) * rng.normal(size=4)
    # a map of condition number c moves each ratio by at most a factor c^2 <= 9
    ratios = rect_ratios(pts)
    assume(np.all((ratios < RANK_RTOL / 100) | (ratios > 100 * RANK_RTOL)))
    keys = [k for k, _ in multi_q_violations(PointNet(pts))]
    dual = dualize_point_net(PointNet(pts))
    assert [k for k, _ in multi_qstar_violations(dual)] == keys
    assert is_multi_q_net(PointNet(pts)) == is_multi_qstar(dual) == (not keys)
    u, v = (np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(2))
    m = u * rng.uniform(1.0, 3.0, 4) @ v
    # points map by m, plane covectors contragrediently by the inverse
    image, planes = PointNet(pts @ m.T), covectors(dual.homogeneous() @ np.linalg.inv(m))
    assert [k for k, _ in multi_q_violations(image)] == keys
    assert [k for k, _ in multi_qstar_violations(planes)] == keys
    assert is_multi_q_net(image) == is_multi_qstar(planes) == (not keys)


def rotational_net(seed, n):
    rng = np.random.default_rng(seed)
    prof = np.stack([rng.uniform(0.5, 1.5, n), np.cumsum(rng.uniform(0.2, 0.5, n))], axis=1)
    return sample_rotational(prof, np.sort(rng.uniform(0.0, 6.0, n)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("push", [0.0, 1e-7, 1e-3])
def test_multi_circular_equals_exhaustive(seed, push):
    net = rotational_net(seed, 9)
    pts = net.points.copy()
    pts[8, 8] += push
    net = EuclidNet(pts)
    assert is_multi_circular(net) == (not multi_circular_violations(net))
    assert is_multi_circular(net) == (push == 0.0)


# -- the equivalent characterizations agree away from their thresholds ----------

CHARACTERIZATIONS = {
    "multi-Q": is_multi_q_net,
    "multi-Q* of the dual": lambda net: is_multi_qstar(dualize_point_net(net)),
    "all-pairs perspectivity": all_pairs_perspectivity,
    "neighbour perspectivity": neighbor_perspectivity,
    "degenerate Laplace transforms": laplace_transforms_degenerate,
    "translation form": is_translation_net,
}


def verdict(predicate, net):
    """The predicate's answer, with a typed geometry error counting as False."""
    try:
        return bool(predicate(net))
    except GeometryError:
        return False


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
@pytest.mark.parametrize("eps", [1e-12, 1e-11, 1e-8, 1e-7, 1e-5])
def test_equivalent_characterizations_agree_off_threshold(eps, scale):
    """The paper's equivalent conditions for a multi-Q-net all hold on
    translation nets with relative vertex noise up to 1e-11 and all fail
    from 1e-8 on, at any scale of the coordinates."""
    nets = [PointNet(scale * net.points) for net in noisy_translation_nets(eps)]
    for name, predicate in CHARACTERIZATIONS.items():
        held = [verdict(predicate, net) for net in nets]
        assert held == [eps <= 1e-11] * len(nets), name


def test_strip_sphere_rejects_strip_off_concurrency_by_1e_7():
    """A strip whose lifted edges miss a common point by a sine of about
    1e-7, far past RANK_RTOL, has no strip sphere."""
    pts = rotational_net(0, 4).points.copy()
    pts[1, 2, 2] += 1e-7
    net = EuclidNet(pts)
    lifted = lift_net(net).points
    _, resid, _ = common_point_of_spans(np.stack([lifted[0], lifted[1]], axis=1))
    assert 3e-8 < resid < 3e-7
    with pytest.raises(NotMultiCircular):
        strip_sphere(net, 1, 0)


# -- the certificate replaces the exhaustive SVD --------------------------------


def count_svd_matrices(monkeypatch):
    _gauge_of.cache_clear()
    counts = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        counts.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return counts


@pytest.mark.parametrize("family", ["q", "qstar", "circular"])
def test_translation_nets_hand_only_the_first_chunk_to_svd(family, monkeypatch):
    if family == "circular":
        net, check, d = rotational_net(0, 16), is_multi_circular, 5
    else:
        pts = translation_points(3, 16, 16)
        net, check, d = (PointNet(pts), is_multi_q_net, 4) if family == "q" else (
            covectors(pts), is_multi_qstar, 4)
    shapes = count_svd_matrices(monkeypatch)
    assert check(net)
    # rectangle stacks (4, d); the gauge adds one corner quad of that shape
    # and O(n) small solves, against C(16, 2)^2 = 14 400 rectangles
    stacks = sum(int(np.prod(s[:-2])) for s in shapes if s[-2:] == (4, d))
    assert stacks <= _FIRST_CHUNK + 1
    assert sum(int(np.prod(s[:-2])) for s in shapes) < 2 * _FIRST_CHUNK


def test_well_conditioned_q_net_hands_no_stack_to_svd(monkeypatch):
    """On a generic 11x11 Q-net whose corner triples are far from collinear
    the volume certificate decides every quad and Cramer's rule solves every
    Laplace equation: no matrix reaches np.linalg.svd."""
    net = random_q_net(np.random.default_rng(3), 11, 11)
    _, v3, _ = corner_minors(rect_stacks(net.points, elementary=True)[1])
    assert np.min(v3) >= _CRAMER_VOLUME
    for check, want in ((is_q_net, True), (laplace_transforms_degenerate, False)):
        shapes = count_svd_matrices(monkeypatch)
        assert check(net) is want
        assert sum(int(np.prod(s[:-2])) for s in shapes) == 0


def full_svd_listing(grid, elementary):
    """The rank_violations listing of every rectangle by one batched SVD."""
    keys, stacks = rect_stacks(grid, elementary)
    s = np.linalg.svd(normalized_rows(stacks), compute_uv=False)
    return [(keys[k], float(s[k, -1] / s[k, 0])) for k in np.flatnonzero(s[:, 3] > RANK_RTOL * s[:, 0])]


@pytest.mark.parametrize("eps", [1e-10, 3e-10, 1e-9, 3e-9, 1e-8])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_violation_listings_equal_the_full_svd_listing(eps, scale):
    """Noisy translation nets put many rectangles inside the certificate's
    band, where the SVD decides; keys and residuals are the full SVD's."""
    for net in noisy_translation_nets(eps, count=10):
        net = PointNet(net.points * scale)
        planes = dualize_point_net(net)
        assert q_violations(net) == full_svd_listing(net.points, True)
        assert multi_q_violations(net) == full_svd_listing(net.points, False)
        assert qstar_violations(planes) == full_svd_listing(planes.homogeneous(), True)
        assert multi_qstar_violations(planes) == full_svd_listing(planes.homogeneous(), False)


# -- one strip gauge per grid; the perspectivity certificate ----------------------

PERSPECTIVITY = {
    "neighbour": (neighbor_perspectivity, lambda n: (np.arange(n - 1), np.arange(1, n))),
    "all pairs": (all_pairs_perspectivity, lambda n: np.triu_indices(n, 1)),
}


def perspective_exhaustive(net, pairs):
    """The perspectivity verdict by common_point_of_spans on every pair of
    rows and then of columns."""
    p = net.points
    for grid in (p, p.swapaxes(0, 1)):
        i0, i1 = pairs(grid.shape[0])
        _, resid, _ = common_point_of_spans(np.stack([grid[i0], grid[i1]], axis=2), min_rank=2)
        if np.any(resid > RANK_RTOL):
            return False
    return True


def certified(net, pairs):
    p = net.points
    return _perspectivity_certified(p, pairs(p.shape[0]), pairs(p.shape[1]))


def perspectivity_agrees(net):
    """Both perspectivity predicates equal the exhaustive reference, and the
    certificate passes no net that the reference fails; returns the number
    of predicates whose pairs the certificate passed."""
    passed = 0
    for predicate, pairs in PERSPECTIVITY.values():
        want = perspective_exhaustive(net, pairs)
        assert predicate(net) == want
        if certified(net, pairs):
            assert want
            passed += 1
    return passed


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("nu, nv", [(2, 2), (2, 5), (4, 3), (7, 7), (11, 6), (16, 16)])
def test_certified_perspectivity_equals_exhaustive_on_translation_nets(nu, nv, scale):
    assert perspectivity_agrees(PointNet(scale * translation_points(nu + nv, nu, nv))) == 2


@pytest.mark.parametrize("seed", range(4))
def test_certified_perspectivity_equals_exhaustive_on_rescaled_vertices(seed):
    spread = 10 ** np.random.default_rng(seed).uniform(-12, 12, (7, 7, 1))
    assert perspectivity_agrees(PointNet(spread * translation_points(seed, 7, 7))) == 2


@pytest.mark.parametrize("eps", [1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7])
def test_certified_perspectivity_equals_exhaustive_on_noisy_translation_nets(eps):
    passed = [perspectivity_agrees(net) for net in noisy_translation_nets(eps, count=10)]
    if eps <= 1e-12:
        assert passed == [2] * 10


def test_two_equal_rows_leave_all_pairs_to_the_exhaustive_route():
    pts = translation_points(1, 6, 5)
    pts[4] = -2.0 * pts[1]  # Y1_4 = Y1_1: c = 0 for the pair (1, 4)
    net = PointNet(pts)
    assert not certified(net, PERSPECTIVITY["all pairs"][1])
    perspectivity_agrees(net)
    assert all_pairs_perspectivity(net) and neighbor_perspectivity(net)


@pytest.mark.parametrize("nu, nv", [(3, 3), (5, 5), (6, 4), (3, 7), (9, 9)])
def test_certified_perspectivity_equals_exhaustive_on_generic_q_nets(nu, nv):
    net = random_q_net(np.random.default_rng(nu * nv), nu, nv)
    assert perspectivity_agrees(net) == 0


def nearly_coincident_joins_net(rng, spread):
    """A 7x7 translation net [p_i + q_j] whose first two columns have nearly
    coincident joins: every p_i + q_0 lies within spread of the plane of v
    and q_1 - q_0."""
    q = rng.uniform(-1, 1, (7, 4))
    v = rng.uniform(-1, 1, 4)
    alpha, beta = rng.uniform(0.5, 2, 7), rng.uniform(-1, 1, 7)
    p = alpha[:, None] * v + beta[:, None] * (q[1] - q[0]) - q[0]
    return from_translation(p + spread * rng.standard_normal((7, 4)), q)


@pytest.mark.parametrize("seed, spread", [(255, 1e-6), (150, 1e-7)])
def test_certificate_decides_translation_nets_with_nearly_coincident_joins(seed, spread):
    """The certificate proves both predicates on nets with nearly
    coincident joins; test_common_point_of_nearly_coincident_lines checks
    common_point_of_spans on such lines."""
    net = nearly_coincident_joins_net(np.random.default_rng(seed), spread)
    assert is_multi_q_net(net)
    for predicate, pairs in PERSPECTIVITY.values():
        assert certified(net, pairs)
        assert predicate(net)


@pytest.mark.parametrize("spread", [1e-6, 1e-7, 1e-8])
def test_nets_with_nearly_coincident_joins_are_in_perspective(spread):
    """Without the certificate too: the exhaustive reference, which sends
    every pair to common_point_of_spans, and both predicates answer True on
    50 such nets."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        net = nearly_coincident_joins_net(rng, spread)
        for predicate, pairs in PERSPECTIVITY.values():
            assert perspective_exhaustive(net, pairs)
            assert predicate(net)


def test_in_place_edit_between_calls_changes_the_verdicts():
    """The gauge is memoized on the bytes of the grid, so an edit of
    net.points outside the first chunk is seen by the certificates."""
    net = PointNet(translation_points(2, 7, 7))
    checks = (is_multi_q_net, is_translation_net, neighbor_perspectivity, all_pairs_perspectivity)
    assert [check(net) for check in checks] == [True] * 4
    net.points[6, 6, 2] *= 1.0 + 1e-3
    assert multi_q_violations(net)
    assert [check(net) for check in checks] == [False] * 4


def test_editing_the_returned_gauge_does_not_leak_into_the_next_call():
    net = PointNet(translation_points(4, 5, 6))
    first = translation_gauge(net)
    want = [a.copy() for a in first]
    for a in first:
        a[...] = 0.0
    for got, w in zip(translation_gauge(net), want):
        assert np.array_equal(got, w)
    gauge = _strip_gauge(net.points)
    assert not any(a.flags.writeable for a in (gauge.x00, gauge.y1, gauge.y2, gauge.points))


@pytest.mark.parametrize("multi", [True, False])
def test_a_multiq_verify_op_builds_the_strip_gauge_once(multi, monkeypatch):
    """The seven checks of a multiq-verify op, on a translation net or a
    generic Q-net; the dual's homogeneous covectors are the same floats."""
    calls = []
    strip_cauchy = qnets._strip_cauchy

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return strip_cauchy(*args, **kwargs)

    monkeypatch.setattr(qnets, "_strip_cauchy", counting)
    _gauge_of.cache_clear()
    rng = np.random.default_rng(5)
    net = PointNet(translation_points(5, 7, 7)) if multi else random_q_net(rng, 7, 7)
    verdicts = (
        is_q_net(net),
        is_multi_q_net(net),
        neighbor_perspectivity(net),
        all_pairs_perspectivity(net),
        laplace_transforms_degenerate(net),
        is_translation_net(net),
        is_multi_qstar(dualize_point_net(net)),
    )
    assert verdicts == (True,) + (multi,) * 6
    assert len(calls) == 1


# -- non-finite coordinates -----------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_net_rejects_non_finite_coordinates(bad):
    pts = translation_points(0, 3, 4)
    pts[1, 2, 3] = bad
    with pytest.raises(NonFiniteCoordinate, match=r"vertex \(1, 2\)"):
        PointNet(pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_translation_gauge_rejects_a_net_made_non_finite_after_construction(bad):
    """A vertex written after PointNet validated the grid is read again: the
    translation test raises instead of answering True."""
    net = PointNet(translation_points(0, 5, 5))
    net.points[2, 2] = bad
    for check in (translation_gauge, is_translation_net):
        with pytest.raises(NonFiniteCoordinate, match=r"vertex \(2, 2\)"):
            check(net)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_single_non_finite_vector_raises_without_an_index(bad):
    with pytest.raises(NonFiniteCoordinate, match=r"^x has a non-finite coordinate$"):
        raise_unless_finite(np.array([bad, 0.0, 0.0]), "x")
    raise_unless_finite(np.array([1.0, 0.0, 0.0]), "x")


def test_zero_vector_is_reported_before_non_finite_coordinates():
    pts = translation_points(0, 3, 4)
    pts[0, 1] = np.nan
    pts[2, 2] = 0.0
    with pytest.raises(ZeroVector):
        PointNet(pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_plane_net_rejects_non_finite_coordinates(bad):
    cov = translation_points(0, 3, 4)
    cov[2, 0, 0] = bad
    with pytest.raises(NonFiniteCoordinate, match=r"covector \(2, 0\)"):
        PlaneNet(cov)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_euclid_net_rejects_non_finite_finite_vertices(bad):
    pts = rotational_net(0, 4).points.copy()
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    pts[0, 0] = bad  # flagged at infinity: its coordinates are not read
    assert lift_net(EuclidNet(pts, mask)).points.shape == (4, 4, 5)
    pts[3, 1, 2] = bad
    with pytest.raises(NonFiniteCoordinate, match=r"vertex \(3, 1\)"):
        EuclidNet(pts, mask)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("what", ["multi-q", "q", "multi-qstar"])
def test_cli_non_finite_input_exits_2_with_typed_error(what, bad, tmp_path, capsys):
    pts = translation_points(0, 3, 3)
    doc = {"kind": "plane_net" if "qstar" in what else "point_net", "ambient": "RP3",
           "dims": [3, 3], "data": [p.tolist() for p in pts.reshape(-1, 4)]}
    doc["data"][4][1] = float(bad)
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", what, "-i", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: NonFiniteCoordinate:")

