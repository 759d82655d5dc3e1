"""The shared span-signature classifier against the decision rules it replaced.

classify_spans hands each classifier the two codes (n_pos, n_neg, n_zero) of
its spans.  The references below are the three rules as they were written
before they shared one helper, on the span dimensions and codes; every pair of
codes up to the form's dimension must get the same class from both.
"""

import itertools
import re

import numpy as np
import pytest

from multinets import circular, conical, congruences, qnets
from multinets.circular import NetClass
from multinets.cli import main
from multinets.conical import GaussClass
from multinets.congruences import CongruenceClass
from multinets.errors import NotMultiQ, ZeroVector
from multinets.io_json import write_net
from multinets.projective import (
    LIE,
    MOEBIUS,
    MOEBIUS_S2,
    PLUECKER,
    QuadricForm,
    classify_spans,
    moebius_lift,
    normalize,
    sphere_rep,
)
from multinets.qnets import PointNet, _view_of, translation_gauge


def codes_up_to(dim):
    """Every signature code (n_pos, n_neg, n_zero) of a span of dimension <= dim."""
    return [c for c in itertools.product(range(dim + 1), repeat=3) if sum(c) <= dim]


def _classify_spans(sig1, sig2, two_dim_classes):
    """Shared decision rule: the 2-dimensional span decides the class."""
    d1, e1, p1, n1, z1 = sig1
    d2, e2, p2, n2, z2 = sig2
    if min(d1, d2) <= 1:
        return None  # caller maps this to its degenerate/strip class
    verdicts = []
    for d, p, n, z in ((d1, p1, n1, z1), (d2, p2, n2, z2)):
        if d != 2:
            continue
        verdicts.append(two_dim_classes.get((p, n, z)))
    verdicts = [v for v in verdicts if v is not None]
    if not verdicts:
        return "ambiguous"
    # a zero eigenvalue or a mixed signature is decisive over (+ +)
    for priority in ("zero", "mixed", "plus"):
        for v in verdicts:
            if v[0] == priority:
                return v[1]
    return verdicts[0][1]


def reference_circular(code1, code2):
    """circular._classify_spans with the table of classify_multi_circular,
    on (dim, eigenvalues, n_pos, n_neg, n_zero) signatures."""
    table = {
        (2, 0, 0): ("plus", NetClass.ROTATIONAL),
        (1, 1, 0): ("mixed", NetClass.CONE),
        (1, 0, 1): ("zero", NetClass.CYLINDER),
    }
    verdict = _classify_spans((sum(code1), None, *code1), (sum(code2), None, *code2), table)
    if verdict is None or verdict == "ambiguous":
        return NetClass.DEGENERATE
    return verdict


def reference_gauss(code1, code2):
    """The code sets of classify_gauss."""
    if min(sum(code1), sum(code2)) <= 1:
        return GaussClass.SYMMETRIC_STRIP
    codes = {code1, code2}
    if codes == {(2, 0, 0), (1, 1, 0)}:
        return GaussClass.REVOLUTION
    if codes == {(1, 0, 1)}:
        return GaussClass.STEREOGRAPHIC_GRID
    return GaussClass.DEGENERATE


def reference_congruence(form, code1, code2, members1, members2):
    """The form checks of classify_congruence, with its member count test."""
    enough = members1 >= 3 and members2 >= 3
    pair = {code1, code2}
    if enough and form.signature == LIE.signature and pair == {(2, 1, 0)}:
        return CongruenceClass.DUPIN_CYCLIDE
    if enough and form.signature == PLUECKER.signature and pair == {(2, 1, 0), (1, 2, 0)}:
        return CongruenceClass.HYPERBOLOID
    return CongruenceClass.DEGENERATE


def test_circular_decision_equals_reference():
    pairs = list(itertools.product(codes_up_to(5), repeat=2))
    assert len(pairs) == 3136
    for code1, code2 in pairs:
        assert circular._net_class(code1, code2) == reference_circular(code1, code2)


def test_gauss_decision_equals_reference():
    for code1, code2 in itertools.product(codes_up_to(4), repeat=2):
        assert conical._gauss_class(code1, code2) == reference_gauss(code1, code2)


@pytest.mark.parametrize("form", [LIE, PLUECKER, QuadricForm((1, 1, 1, 1, 1, -1))])
def test_congruence_decision_equals_reference(form):
    # a family of k members spans at most k dimensions; the reference only
    # asks whether k >= 3, so counts from the span dimension to 3 cover it
    def counts(code):
        return range(max(sum(code), 1), max(sum(code), 3) + 1)

    for code1, code2 in itertools.product(codes_up_to(form.dim), repeat=2):
        got = congruences._congruence_class(form.signature, code1, code2)
        for k1, k2 in itertools.product(counts(code1), counts(code2)):
            assert got == reference_congruence(form, code1, code2, k1, k2)


def test_classify_spans_thresholds():
    e = np.eye(5)
    seen = []

    def decide(*codes):
        seen.append(codes)
        return "kind"

    # second direction at 1e-10 (below RANK_RTOL) and 1e-8 (above) of the first;
    # an eigenvalue of about -1e-8 (below EIG_ZERO_RTOL) and -1e-6 (above) of 1
    result = classify_spans(MOEBIUS, ([e[0], e[0] + 1e-10 * e[1]], [e[0], e[0] + 1e-8 * e[1]]), decide)
    assert (result.kind, result.span_dims) == ("kind", (1, 2))
    classify_spans(MOEBIUS, ([e[0], e[3] + (1 + 1e-8) * e[4]], [e[0], e[3] + (1 + 1e-6) * e[4]]), decide)
    assert seen == [((1, 0, 0), (2, 0, 0)), ((1, 0, 1), (1, 1, 0))]


# what `multinets classify` prints for one fixed sampler net per family
GOLDEN = [
    (
        "circular",
        circular.sample_rotational([[1.0, 0.0], [1.4, 0.5], [0.9, 1.1]], [0.0, 0.8, 1.9]),
        "rotational spans (2, 2) eig1 [+3.997e-01, +1.000e+00] eig2 [+3.565e-01, +1.000e+00]",
    ),
    (
        "gauss",
        conical.sample_s2_rotational([0.5, 0.9, 1.4], [0.0, 0.6, 1.3]),
        "revolution spans (2, 2) eig1 [+1.000e+00, +1.000e+00] eig2 [-1.000e+00, +1.000e+00]",
    ),
    (
        "congruence",
        congruences.torus_contact_grid(2.0, 0.5, [0.0, 0.5, 1.1], [-1.0, -0.6, -0.2]),
        "dupin_cyclide spans (3, 3) eig1 [-5.141e-01, +1.000e+00, +1.000e+00] "
        "eig2 [-1.000e+00, +5.141e-01, +1.000e+00]",
    ),
    (
        "congruence",
        congruences.hyperboloid_ruling_grid([-1.0, 0.0, 0.5, 1.5], [-0.5, 0.5, 1.0]),
        "hyperboloid spans (3, 3) eig1 [-1.000e+00, +1.000e+00, +1.000e+00] "
        "eig2 [-1.000e+00, -1.000e+00, +1.000e+00]",
    ),
]


@pytest.mark.parametrize("what, net, line", GOLDEN)
def test_classify_golden_line(what, net, line, tmp_path, capsys):
    path = tmp_path / "net.json"
    write_net(net, str(path))
    assert main(["classify", what, "-i", str(path)]) == 0
    assert capsys.readouterr().out == line + "\n"


# -- the Laplace families of the circular and Gauss classifiers -----------------
#
# classify_multi_circular and classify_gauss read y1_i from quad (i, 0) and y2_j
# from quad (0, j) of the elementary stage of the lifted grid's view.  On a
# multi-Q grid these represent the points of translation_gauge's y1, y2, and a
# span and its signature do not see the scale of a representative, so both
# routes classify alike.


def circular_lift(net):
    """The grid that classify_multi_circular decides: the Moebius lift of
    the net's unit chart, rows normalized."""
    return normalize(moebius_lift(circular._unit_chart(net.points)[0]))


def euclid_net(rng, shape):
    """A 4x5 or 5x4 rotational, cone or cylinder net, drawn as classify-mix draws them."""
    if shape == "rotational":
        prof = np.stack([rng.uniform(0.5, 1.5, 5), np.cumsum(rng.uniform(0.2, 0.5, 5))], axis=1)
        return circular.sample_rotational(prof, rng.uniform(0.0, 1.0) + np.cumsum(rng.uniform(0.3, 1.2, 4)))
    if shape == "cone":
        return circular.sample_cone(rng.normal(size=(4, 3)), np.cumsum(rng.uniform(0.3, 1.0, 5)))
    return circular.sample_cylinder(rng.uniform(-1.0, 1.0, (5, 2)), np.cumsum(rng.uniform(0.3, 1.0, 4)))


def s2_net(rng, shape):
    """A net of revolution, stereographic grid or symmetric strip on S^2."""
    if shape == "rotational":
        return conical.sample_s2_rotational(
            0.4 + np.cumsum(rng.uniform(0.35, 0.55, 4)), np.cumsum(rng.uniform(0.5, 0.9, 5))
        )
    if shape == "stereographic":
        return conical.sample_s2_stereographic(
            -1.2 + np.cumsum(rng.uniform(0.4, 0.8, 4)), -0.2 + np.cumsum(rng.uniform(0.4, 0.8, 3))
        )
    up = rng.normal(size=(5, 3))
    up[:, 2] = np.abs(up[:, 2]) + 0.3
    return conical.sample_s2_symmetric_strip(up / np.linalg.norm(up, axis=1, keepdims=True))


def classification_cases(seed):
    """(classify, lifted grid, form, decide) for the plain and the inverted
    Euclidean nets and the S^2 nets of one seed; the mirror spheres stay in
    classify-mix's domain (centre (4, 4, 4) + U(-1, 1)^3, radius U(1, 2))."""
    rng = np.random.default_rng(seed)
    cases = []
    for shape in ("rotational", "cone", "cylinder"):
        net = euclid_net(rng, shape)
        image = circular.invert_net(sphere_rep(4.0 + rng.uniform(-1, 1, 3), rng.uniform(1.0, 2.0)), net)
        for each in (net, image):
            cases.append((circular.classify_multi_circular, each, circular_lift(each), MOEBIUS, circular._net_class))
    for shape in ("rotational", "stereographic", "strip"):
        net = s2_net(rng, shape)
        rows = conical._sphere_rows(net.points, "net vertices")  # the rows classify_gauss reads
        cases.append((conical.classify_gauss, net, rows, MOEBIUS_S2, conical._gauss_class))
    return cases


@pytest.mark.parametrize("seed", range(20))
def test_classifiers_agree_with_classify_spans_on_the_strip_gauge(seed):
    """Kind and span dimensions equal those of classify_spans on
    translation_gauge's y1, y2, and the eigenvalues agree to 1e-9 of the
    largest."""
    for classify, net, lifted, form, decide in classification_cases(seed):
        _, y1, y2 = translation_gauge(PointNet(lifted))
        want = classify_spans(form, (y1, y2), decide)
        got = classify(net)
        assert (got.kind, got.span_dims) == (want.kind, want.span_dims)
        for e_got, e_want in zip(got.eigenvalues, want.eigenvalues):
            np.testing.assert_allclose(e_got, e_want, rtol=0, atol=1e-9 * np.max(np.abs(e_want)))


@pytest.mark.parametrize("case", range(9))
def test_classifying_reads_the_elementary_stage_only(case, monkeypatch):
    """On classify-mix's grids (at most 64 rectangles, so no translation
    certificate), classifying makes one _laplace_gauges pass, no strip
    gauge and leaves the view's strip stage unevaluated; translation_gauge
    on the same grid afterwards returns what it returns on a cold view."""
    classify, net, lifted, *_ = classification_cases(7)[case]
    _view_of.cache_clear()
    cold = translation_gauge(PointNet(lifted))
    _view_of.cache_clear()
    calls = []
    for name in ("_laplace_gauges", "_strip_cauchy"):
        original = getattr(qnets, name)
        monkeypatch.setattr(qnets, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    classify(net)
    assert calls == ["_laplace_gauges"]
    assert "strip" not in qnets._grid_view(lifted).__dict__
    warm = translation_gauge(PointNet(lifted))
    assert calls == ["_laplace_gauges", "_strip_cauchy"]
    for a, b in zip(warm, cold):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("eps", [1e-10, 3e-10])
def test_classification_follows_the_multi_circular_predicate_under_noise(eps):
    """6 seeds x 40 rotational nets (5 profile points, 4 angles) with
    Gaussian vertex noise of eps times the RMS extent: wherever
    is_multi_circular holds, classify_multi_circular answers a class.  The
    strip gauge it read before raised NotMultiQ on 12 of them at 1e-10 and
    on 33 at 3e-10."""
    kinds = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            prof = np.stack([rng.uniform(0.5, 1.5, 5), np.cumsum(rng.uniform(0.2, 0.5, 5))], axis=1)
            p = circular.sample_rotational(prof, np.sort(rng.uniform(0, 2 * np.pi, 4))).points
            rms = np.sqrt(np.mean(np.sum((p - p.mean(axis=(0, 1))) ** 2, axis=-1)))
            noisy = circular.EuclidNet(p + eps * rms * rng.normal(size=p.shape))
            if circular.is_multi_circular(noisy):
                kinds.append(circular.classify_multi_circular(noisy).kind)
    assert len(kinds) == 240 and set(kinds) <= {NetClass.ROTATIONAL, NetClass.DEGENERATE}


# inputs whose error changed when the classifiers stopped building the strip
# gauge, with the error they raised before: repeated rows or columns, all
# through a zero Laplace vector now
PROFILE = [[1.0, 0.0], [1.2, 0.5], [0.9, 1.1], [1.1, 1.6]]
AXIS = circular.sample_rotational(PROFILE, [0.0, 0.5, 1.0, 1.5]).points.copy()
AXIS[:, 2, :2] = 0.0  # the third profile point on the axis
DEGENERATE_INPUTS = [
    # before: ZeroVector, "homogeneous coordinates must not vanish"
    pytest.param(circular.classify_multi_circular, circular.sample_rotational(PROFILE, [0.0, 0.5, 0.5, 1.0]),
                 ZeroVector, "quad (1,0)", id="repeated-angle"),
    pytest.param(circular.classify_multi_circular, circular.sample_cylinder([[0, 0], [1, 0], [1, 1]], [0, 1, 1, 2]),
                 ZeroVector, "quad (0,1)", id="repeated-offset"),
    pytest.param(conical.classify_gauss, conical.sample_s2_rotational([0.5, 0.9, 1.4], [0.0, 0.6, 0.6, 1.3]),
                 ZeroVector, "quad (1,0)", id="repeated-longitude"),
    # before: NotMultiQ, "three corners are collinear or coincident"
    pytest.param(circular.classify_multi_circular, circular.sample_rotational(PROFILE, [0.0, 0.0, 0.5, 1.0]),
                 ZeroVector, "quad (0,0)", id="repeated-first-angle"),
    pytest.param(circular.classify_multi_circular, circular.EuclidNet(np.ones((3, 3, 3))),
                 ZeroVector, "quad (0,0)", id="one-point"),
    pytest.param(conical.classify_gauss, conical.sample_s2_rotational([0.5, 0.5, 1.4], [0.0, 0.6, 1.3]),
                 ZeroVector, "quad (0,0)", id="repeated-first-colatitude"),
    # before: NotMultiQ, "sample 2 not in perspective (residual 8.81e-01)"
    pytest.param(circular.classify_multi_circular, circular.EuclidNet(AXIS),
                 ZeroVector, "quad (0,1)", id="profile-point-on-axis"),
    # unchanged
    pytest.param(circular.classify_multi_circular, circular.EuclidNet(AXIS[:1, :3]),
                 NotMultiQ, "net must be at least 2x2", id="one-row"),
]


@pytest.mark.parametrize("classify, net, error, where", DEGENERATE_INPUTS)
def test_coincident_corners_raise_zero_vector(classify, net, error, where):
    with pytest.raises(error, match=re.escape(where)):
        classify(net)
