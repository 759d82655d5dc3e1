"""The shared span-signature classifier against the decision rules it replaced.

classify_spans hands each classifier the two codes (n_pos, n_neg, n_zero) of
its spans.  The references below are the three rules as they were written
before they shared one helper, on the span dimensions and codes; every pair of
codes up to the form's dimension must get the same class from both.
"""

import itertools

import numpy as np
import pytest

from multinets import circular, conical, congruences
from multinets.circular import NetClass
from multinets.cli import main
from multinets.conical import GaussClass
from multinets.congruences import CongruenceClass
from multinets.io_json import write_net
from multinets.projective import LIE, MOEBIUS, PLUECKER, QuadricForm, classify_spans


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
