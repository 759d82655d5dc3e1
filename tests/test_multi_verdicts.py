"""How the multi-rectangle predicates reach their verdicts: the first chunk
by SVD, the translation certificate, one SVD call for the rest; the shared
strip gauge and the perspectivity certificate; their agreement under Q/Q* duality and projective maps; the agreement of the
equivalent multi-Q characterizations away from their thresholds; verdicts
on coordinates whose squares overflow; and the typed error for non-finite
coordinates."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import noisy_translation_nets, random_q_net
from multinets import conical, projective, qnets
from multinets.circular import (
    EuclidNet,
    SphereFamilyPair,
    generate_multi_circular,
    is_multi_circular,
    lift_net,
    multi_circular_violations,
    sample_rotational,
    strip_sphere,
)
from multinets.cli import main
from multinets.congruences import (
    classify_congruence,
    factor_congruence,
    is_multi_congruence,
    torus_contact_grid,
)
from multinets.errors import (
    GeometryError,
    NonFiniteCoordinate,
    NotMultiCircular,
    ZeroVector,
    raise_first_failure,
    raise_unless_finite,
)
from multinets.projective import (
    RANK_RTOL,
    ProjLine,
    common_point_of_spans,
    corner_minors,
    normalized_rows,
    plane_rep,
    rect_indices,
    rect_stacks,
    sphere_rep,
)
from multinets.qnets import (
    _CRAMER_VOLUME,
    _FIRST_CHUNK,
    PlaneNet,
    PointNet,
    _grid_view,
    _perspectivity_certified,
    _rects_planar,
    _translation_certified,
    _view_of,
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
from multinets.subdivision import CircArc

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


def count_svd_matrices(svd_shapes):
    """svd_shapes emptied, for a check on a cold grid view."""
    _view_of.cache_clear()
    svd_shapes.clear()
    return svd_shapes


@pytest.mark.parametrize("family", ["q", "qstar", "circular"])
def test_translation_nets_hand_only_the_first_chunk_to_svd(family, svd_shapes):
    if family == "circular":
        net, check, d = rotational_net(0, 16), is_multi_circular, 5
    else:
        pts = translation_points(3, 16, 16)
        net, check, d = (PointNet(pts), is_multi_q_net, 4) if family == "q" else (
            covectors(pts), is_multi_qstar, 4)
    shapes = count_svd_matrices(svd_shapes)
    assert check(net)
    # rectangle stacks (4, d); the gauge adds one corner quad of that shape
    # and O(n) small solves, against C(16, 2)^2 = 14 400 rectangles
    stacks = sum(int(np.prod(s[:-2])) for s in shapes if s[-2:] == (4, d))
    assert stacks <= _FIRST_CHUNK + 1
    assert sum(int(np.prod(s[:-2])) for s in shapes) < 2 * _FIRST_CHUNK


def test_well_conditioned_q_net_hands_no_stack_to_svd(svd_shapes):
    """On a generic 11x11 Q-net whose corner triples are far from collinear
    the volume certificate decides every quad and Cramer's rule solves every
    Laplace equation: no matrix reaches np.linalg.svd."""
    net = random_q_net(np.random.default_rng(3), 11, 11)
    _, v3, _ = corner_minors(rect_stacks(net.points, elementary=True)[1])
    assert np.min(v3) >= _CRAMER_VOLUME
    for check, want in ((is_q_net, True), (laplace_transforms_degenerate, False)):
        shapes = count_svd_matrices(svd_shapes)
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


def test_an_edited_copy_gets_its_own_verdicts_while_the_memo_holds_the_first_grid():
    """The view is memoized on the bytes of the grid, not on the net: a net
    built from a copy edited outside the first chunk is decided on its own
    grid by the certificates, and the memo still serves the first grid."""
    _view_of.cache_clear()
    net = PointNet(translation_points(2, 7, 7))
    checks = (is_multi_q_net, is_translation_net, neighbor_perspectivity, all_pairs_perspectivity)
    assert [check(net) for check in checks] == [True] * 4
    points = net.points.copy()
    points[6, 6, 2] *= 1.0 + 1e-3
    edited = PointNet(points)
    assert multi_q_violations(edited)
    assert [check(edited) for check in checks] == [False] * 4
    hits = _view_of.cache_info().hits
    assert [check(net) for check in checks] == [True] * 4
    assert _view_of.cache_info().hits > hits


def test_editing_what_the_predicates_return_does_not_leak_into_the_view():
    """Every array the view holds is read-only, translation_gauge hands out
    writable copies and laplace_transforms read-only nets of their own: after
    writing into both, every predicate of the net and its dual answers as
    before."""
    _view_of.cache_clear()
    net = PointNet(translation_points(4, 5, 6))
    before = _answers(net, POINT_NET_PREDICATES) + _answers(dualize_point_net(net), PLANE_NET_PREDICATES)
    view = _grid_view(net.points)
    t, y, coeffs, checks = view.elementary
    assert view.rects_planar
    strip = view.strip
    held = [view.grid, t, y, coeffs, *(fails for fails, _ in checks),
            strip.x00, strip.y1, strip.y2, strip.points, strip.acc1, strip.acc2]
    assert not any(a.flags.writeable for a in held)
    for a in translation_gauge(net):
        assert a.flags.writeable and not any(np.shares_memory(a, h) for h in held)
        a[...] = 0.0
    for grid in qnets.laplace_transforms(net):
        assert not any(np.shares_memory(grid.points, h) for h in held)
        with pytest.raises(ValueError, match="read-only"):
            grid.points[0, 0] = 0.0
    after = _answers(net, POINT_NET_PREDICATES) + _answers(dualize_point_net(net), PLANE_NET_PREDICATES)
    assert after == before


MULTIQ_VERIFY = (
    is_q_net, is_multi_q_net, neighbor_perspectivity, all_pairs_perspectivity,
    laplace_transforms_degenerate, is_translation_net, lambda net: is_multi_qstar(dualize_point_net(net)),
)


@pytest.mark.parametrize("multi", [True, False])
def test_a_multiq_verify_op_builds_each_stage_once(multi, monkeypatch):
    """The seven checks of a multiq-verify op on a 7x7 translation net or
    generic Q-net make one _laplace_gauges pass over the 36 elementary
    quads, whose rank mask is is_q_net's verdict and whose quad 0 gauges
    the strip, one rank mask over the first chunk of rectangles, one strip
    gauge that solves both strips (7 + 7 samples) in one _unit_lstsq call,
    and one common_point_of_spans call over the 6 neighbouring row pairs,
    which both perspectivity predicates read; the dual's homogeneous
    covectors are the same floats, so it reads the same rectangle verdict.
    A translation net builds the strip for the rectangle certificate, before
    the perspectivity predicates; a generic net fails the first chunks and
    builds it for is_translation_net."""
    calls = []

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append((name, np.shape(args[0])))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in ((qnets, "_laplace_gauges"), (qnets, "corner_minors"), (projective, "corner_minors"),
                         (qnets, "_above_rank3"), (qnets, "_strip_cauchy"), (qnets, "_unit_lstsq"),
                         (qnets, "common_point_of_spans")):
        count(module, name)
    _view_of.cache_clear()
    rng = np.random.default_rng(5)
    net = PointNet(translation_points(5, 7, 7)) if multi else random_q_net(rng, 7, 7)
    assert tuple(check(net) for check in MULTIQ_VERIFY) == (True,) + (multi,) * 6
    strip = [("_strip_cauchy", (2, 7, 4)), ("_unit_lstsq", (14, 4, 2))]
    neighbours = [("common_point_of_spans", (6, 7, 2, 4))]
    assert calls == [
        ("_laplace_gauges", (36, 4, 4)),
        ("corner_minors", (36, 4, 4)),
        ("_above_rank3", (36, 4, 4)),
        ("_above_rank3", (_FIRST_CHUNK, 4, 4)),
        ("corner_minors", (_FIRST_CHUNK, 4, 4)),
    ] + (strip + neighbours if multi else neighbours + strip)


def strip_nets():
    """Nets for the strip gauge, by kind: translation, generic, a repeated
    row, a column strip out of perspective at row 4, a reconstruction that
    vanishes at vertex (2, 3), and 10 noisy translation nets at each of
    1e-10, 3e-10 and 3e-8."""
    repeated = translation_points(1, 6, 5)
    repeated[4] = -2.0 * repeated[1]
    column = translation_points(2, 7, 6)
    column[4, 1, 2] *= 1.0 + 1e-3
    rng = np.random.default_rng(3)
    p, q = rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (5, 4))
    q[3] = -p[2]  # p_2 + q_3 = 0: the gauge vanishes at (2, 3), which the strips do not see
    zero = p[:, None] + q[None]
    zero[2, 3] = rng.uniform(-1, 1, 4)
    nets = {
        "translation": [PointNet(translation_points(5, 7, 7))],
        "generic": [random_q_net(np.random.default_rng(5), 7, 7)],
        "repeated row": [PointNet(repeated)],
        "column out of perspective": [PointNet(column)],
        "zero sum": [PointNet(zero)],
    }
    nets.update({f"noisy {eps:g}": noisy_translation_nets(eps, count=10) for eps in (1e-10, 3e-10, 3e-8)})
    return nets


def strip_by_two_solves(grid):
    """The strip stage as one _perspective_gauge solve per strip and
    from_cauchy_homogeneous, with the partial sums formed again and the
    bound terms summed by np.sum and np.linalg.norm."""
    t, y, _, checks = _grid_view(grid).elementary
    x00 = t[0, 0]
    try:
        raise_first_failure([(fails[:1], make) for fails, make in checks])
        row0, _ = qnets._perspective_gauge(grid[0], grid[1], y[0, 0])
        col0, _ = qnets._perspective_gauge(grid[:, 0], grid[:, 1], y[0, 1])
        y1, y2 = np.diff(col0, axis=0), np.diff(row0, axis=0)
        r = qnets.from_cauchy_homogeneous(y1, y2, x00).points
    except GeometryError as exc:
        return qnets._StripGauge(error=(type(exc), str(exc)))
    acc1 = np.concatenate([[np.zeros_like(x00)], np.cumsum(y1, axis=0)])
    acc2 = np.concatenate([[np.zeros_like(x00)], np.cumsum(y2, axis=0)])
    lam = np.sum(r * grid, axis=-1) / np.sum(grid * grid, axis=-1)
    fitted = lam[..., None] * grid
    l_norms = np.linalg.norm(fitted, axis=-1)
    sizes = (
        np.linalg.norm(x00)
        + np.linalg.norm(acc1, axis=-1)[:, None]
        + np.linalg.norm(acc2, axis=-1)[None, :]
        + l_norms
    )
    return qnets._StripGauge(
        None, x00, y1, y2, r, acc1, acc2,
        eps=float(np.max(np.linalg.norm(fitted - r, axis=-1))),
        min_norm=float(np.min(l_norms)),
        delta=float(16 * grid.shape[-1] * np.finfo(float).eps * np.max(sizes)),
    )


STRIP_ERRORS = {
    "translation": None,
    "generic": (qnets.PerspectivityViolation, "sample 2 not in perspective"),
    "repeated row": None,
    "column out of perspective": (qnets.PerspectivityViolation, "sample 4 not in perspective"),
    "zero sum": (qnets.ZeroSum, "a homogeneous partial sum vanished"),
}


@pytest.mark.parametrize("kind", list(strip_nets()))
def test_one_strip_solve_equals_a_solve_per_strip(kind):
    """The strip stage gauges both strips in one solve and keeps the partial
    sums and points it forms: every field of its _StripGauge equals the one
    built by a solve per strip and from_cauchy_homogeneous, bit for bit,
    and so do the error type and message where the gauge fails."""
    for net in strip_nets()[kind]:
        _view_of.cache_clear()
        got, want = _grid_view(net.points).strip, strip_by_two_solves(net.points)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b or (a != a and b != b), field.name
    if kind in STRIP_ERRORS:
        want = STRIP_ERRORS[kind]
        assert (got.error is None) == (want is None)
        if want:
            assert got.error[0] is want[0] and got.error[1].startswith(want[1])


def memo_nets():
    """Translation, generic, noisy and broken 7x7 nets: one vertex moved off
    its rectangles, and that net with the corner quad's x01 put on the line
    x00 x10, so that quad (0,0) has a collinear triple and quad (0,1) spans
    rank 4."""
    moved = translation_points(5, 7, 7)
    moved[4, 5, 1] += 0.3
    collinear = moved.copy()
    collinear[0, 1] = collinear[0, 0] + collinear[1, 0]
    return {
        "translation": PointNet(translation_points(5, 7, 7)),
        "generic": random_q_net(np.random.default_rng(5), 7, 7),
        "noisy": noisy_translation_nets(1e-9, count=1)[0],
        "moved": PointNet(moved),
        "collinear": PointNet(collinear),
    }


# the errors that translation_gauge and laplace_transforms raised on the
# broken nets before the view existed
BROKEN_NET_ERRORS = {
    "moved": [
        (qnets.NotMultiQ, "vertex (4,5) off the translation reconstruction"),
        (qnets.NonPlanarQuad, "quad spans rank 4"),
    ],
    "collinear": [
        (qnets.NotMultiQ, "three corners are collinear or coincident"),
        (qnets.DegenerateQuad, "three corners are collinear or coincident"),
    ],
}


@pytest.mark.parametrize("kind", list(memo_nets()))
def test_every_answer_is_the_same_from_a_cold_and_a_warm_view(kind):
    """Each predicate asked with the view memo cleared before it answers as
    it does when all run in turn on one view, in about the order of a
    multiq-verify op: verdicts, listings, gauges and raised errors.  translation_gauge raises
    from the corner quad's checks only, and laplace_transforms from the
    first failing quad in row-major order."""
    net = memo_nets()[kind]
    plane_functions = PLANE_NET_PREDICATES[:4]  # the Q* predicates
    cold = []
    for function in POINT_NET_PREDICATES:
        _view_of.cache_clear()
        cold += _answers(net, (function,))
    for function in plane_functions:
        _view_of.cache_clear()
        cold += _answers(dualize_point_net(net), (function,))
    _view_of.cache_clear()
    warm = _answers(net, POINT_NET_PREDICATES) + _answers(dualize_point_net(net), plane_functions)
    assert warm == cold
    if kind in BROKEN_NET_ERRORS:
        answers = dict(zip(POINT_NET_PREDICATES, warm))
        assert [answers[translation_gauge], answers[qnets.laplace_transforms]] == BROKEN_NET_ERRORS[kind]


# -- coordinates whose squares overflow ---------------------------------------------

HUGE_NET_CHECKS = MULTIQ_VERIFY + (
    lambda net: multi_q_violations(net) == [],
    lambda net: qnets.has_planar_parameter_polygons(net),
)


def test_translation_nets_of_huge_generators_build():
    """from_translation weighs each sum against its summands by row norms
    that do not overflow: generators scaled by 1e155 give their sums."""
    rng = np.random.default_rng(0)
    p, q = rng.uniform(-1, 1, (5, 4)) * 1e155, rng.uniform(-1, 1, (5, 4)) * 1e155
    assert np.array_equal(from_translation(p, q).points, p[:, None] + q[None])


@pytest.mark.parametrize("size", [1e155, 1e200, 1e300, "one vertex"])
@pytest.mark.parametrize("multi", [True, False])
def test_huge_coordinates_keep_every_multi_q_verdict(size, multi):
    """A 6x6 translation net or generic Q-net scaled by a size whose squares
    overflow, or with one vertex representative scaled by 1e160, gets the
    verdicts of the net at scale 1 from every multiq-verify check, the
    exhaustive listing and the planarity of its parameter polygons, without
    a warning: the grid view divides each huge row by a power of two."""
    points = translation_points(7, 6, 6) if multi else random_q_net(np.random.default_rng(7), 6, 6).points
    huge = points.copy()
    if size == "one vertex":
        huge[2, 3] *= 1e160
    else:
        huge *= size
    want = [check(PointNet(points)) for check in HUGE_NET_CHECKS]
    _view_of.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [check(PointNet(huge)) for check in HUGE_NET_CHECKS] == want
    assert want[:7] == [True] + [multi] * 6


# -- non-finite coordinates -----------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_net_rejects_non_finite_coordinates(bad):
    pts = translation_points(0, 3, 4)
    pts[1, 2, 3] = bad
    with pytest.raises(NonFiniteCoordinate, match=r"vertex \(1, 2\)"):
        PointNet(pts)


# every public predicate of a net kind
POINT_NET_PREDICATES = (
    is_q_net, q_violations, is_multi_q_net, multi_q_violations, neighbor_perspectivity,
    all_pairs_perspectivity, qnets.laplace_transforms, laplace_transforms_degenerate,
    qnets.has_planar_parameter_polygons, is_translation_net, translation_gauge,
)
PLANE_NET_PREDICATES = (
    qnets.is_qstar_net, qstar_violations, is_multi_qstar, multi_qstar_violations,
    qnets.check_planar_parameter_lines, conical.conical_violations,
    conical.multi_conical_violations, conical.is_multi_conical, conical.gauss_map,
)


def _answers(value, functions):
    """Each function's answer for value with arrays and dataclasses as nested
    lists (exact floats), or the type and message of the GeometryError it
    raises."""

    def exact(answer):
        if dataclasses.is_dataclass(answer):
            return [exact(getattr(answer, field.name)) for field in dataclasses.fields(answer)]
        if isinstance(answer, np.ndarray):
            return answer.tolist()
        if isinstance(answer, (tuple, list)):
            return [exact(a) for a in answer]
        return answer

    answers = []
    for function in functions:
        try:
            answers.append(exact(function(value)))
        except GeometryError as exc:
            answers.append((type(exc), str(exc)))
    return answers


def frozen_values():
    """One value of every class that validates its fields, the names of its
    array fields, and the functions whose answers read them."""
    grid = translation_points(0, 5, 5)
    us, vs = [0.2, 1.1, 2.0], [-0.8, -0.1, 0.6]
    s1 = np.stack([plane_rep([np.cos(t), np.sin(t), 0], 0.0) for t in (0.2, 0.9, 1.7)])
    s2 = np.stack([sphere_rep([0, 0, 0], r) for r in (1.0, 1.6, 2.4)])
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    return {
        "PointNet": (PointNet(grid), ("points",), POINT_NET_PREDICATES),
        "PlaneNet": (PlaneNet(grid), ("covectors",), PLANE_NET_PREDICATES),
        "EuclidNet": (
            EuclidNet(rotational_net(0, 4).points, mask), ("points", "at_infinity"),
            (is_multi_circular, multi_circular_violations, lift_net),
        ),
        "IsoLineGrid": (
            torus_contact_grid(2.0, 0.5, us, vs), ("lines",),
            (is_multi_congruence, factor_congruence, classify_congruence),
        ),
        "CircArc": (
            CircArc([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]), ("start", "end", "tangent"),
            (lambda arc: arc.sample(5), lambda arc: arc.tangent_at(0.5)),
        ),
        "ProjLine": (
            ProjLine([1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]), ("a", "b"),
            (lambda line: line.span, lambda line: line.contains([1.0, 1.0, 0.0, 2.0])),
        ),
        "SphereFamilyPair": (
            SphereFamilyPair(s1, s2), ("s1", "s2"),
            (lambda fams: generate_multi_circular(np.array([0.5, 0.5, 0.3]), fams).points,),
        ),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0], ids=["nan", "inf", "-inf", "zero"])
@pytest.mark.parametrize("kind", list(frozen_values()))
def test_a_validated_value_refuses_in_place_edits_and_reassignment(kind, bad):
    """Each class validates its fields once, at construction, and keeps them
    as read-only copies: a NaN, an infinity or a zero row written into a
    field raises numpy's read-only ValueError, assigning a field raises
    FrozenInstanceError, and the value answers as it did before."""
    value, fields, functions = frozen_values()[kind]
    before = _answers(value, functions)
    for name in fields:
        array = getattr(value, name)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * (array.ndim - 1)] = bad
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, np.zeros_like(array))
    assert _answers(value, functions) == before


def test_a_validated_value_leaves_the_given_array_writable_and_unaliased():
    grid = translation_points(0, 3, 4)
    net = PointNet(grid)
    grid[1, 1] = np.nan
    assert grid.flags.writeable
    assert np.all(np.isfinite(net.points))
    assert not np.shares_memory(net.points, grid)


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

