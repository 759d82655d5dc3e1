"""write_net against the json encoder, and read_net back, on random nets of
every layout of the file format."""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multinets.circular import EuclidNet
from multinets.congruences import IsoLineGrid
from multinets.io_json import _LAYOUTS, read_net, write_net
from multinets.projective import LIE, PLUECKER
from multinets.qnets import PlaneNet, PointNet

SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)

# floats whose shortest repr has a sign, an exponent or 17 digits
SPECIAL = [-0.0, 5e20, 1e-300, 5e-324, 0.0, -5e-324, 1 / 3, 1e16, -2.5]
# beyond 1e154 the squared norms that the net classes take overflow
coordinates = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e150, 1e150))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
metas = st.none() | st.dictionaries(
    st.sampled_from(["data", "kind", "name", 'say "hi"', "naïve ∂ ☃", ""]) | st.text(), json_values, max_size=4
)
RICH_META = {"data": [1.5, None, "x"], 'a "quoted" key': 'naïve ∂ ☃ "q" \\ \n', "seed": 7}


def null_mask(nulls, n, rng):
    """Vertices at infinity of an E3 net of n vertices, in row-major order."""
    mask = np.zeros(n, dtype=bool)
    if nulls == "first":
        mask[0] = True
    elif nulls == "last":
        mask[-1] = True
    elif nulls == "all but one":
        mask[:] = True
        mask[rng.integers(n)] = False
    elif nulls == "random":
        mask = rng.random(n) < 0.5
    return mask


def isotropic_lines(n, form, scales, rng):
    """n isotropic lines of the form as spanning pairs (n, 2, 6), each point
    scaled by its entry of scales (n, 2).  The form is diagonal, positive
    block first: (u1, v1) and (u2, v2) with u1, u2 and v1, v2 orthonormal
    pairs are null and orthogonal.  Sparse pairs of unit vectors give exact
    zeros, which a negative scale turns to -0.0."""
    p = form.signature.count(1)
    q = len(form.signature) - p
    if rng.random() < 0.5:
        u = np.eye(p)[np.argsort(rng.random((n, p)), axis=-1)[:, :2]]
        v = np.eye(q)[np.argsort(rng.random((n, q)), axis=-1)[:, :2]]
    else:
        u = np.linalg.qr(rng.standard_normal((n, p, 2)))[0].swapaxes(1, 2)
        v = np.linalg.qr(rng.standard_normal((n, q, 2)))[0].swapaxes(1, 2)
    return np.concatenate([u, v], axis=-1) * scales[..., None]


def build(kind, ambient, nu, nv, values, seed, nulls):
    """A net of the layout with coordinates (for line grids, point scales)
    drawn from values, and its (coords, at_infinity) as written."""
    rng = np.random.default_rng(seed)
    shape = _LAYOUTS[kind, ambient][0]
    if kind == "line_grid":
        form = LIE if ambient == "R42" else PLUECKER
        scales = np.resize(values, (nu * nv, 2))
        net = IsoLineGrid(isotropic_lines(nu * nv, form, scales, rng).reshape(nu, nv, 2, 6), form)
        return net, net.lines, None
    coords = rng.permutation(np.resize(np.array(values, dtype=float), nu * nv * shape[0]))
    coords = coords.reshape(nu, nv, shape[0])
    # a zero vector is neither a point nor a plane
    coords[np.linalg.norm(coords, axis=-1) <= 1e-6, 0] = 1.0
    if ambient == "E3":
        mask = null_mask(nulls, nu * nv, rng).reshape(nu, nv)
        coords[mask] = np.nan  # never read at a vertex at infinity
        net = EuclidNet(coords, mask)
        return net, net.points, net.at_infinity
    if kind == "plane_net":
        net = PlaneNet(coords)
        return net, net.covectors, None
    net = PointNet(coords, ambient=ambient)
    return net, net.points, None


def reference_text(kind, ambient, coords, at_infinity, meta):
    """The file text by the json encoder, one nested list per entry."""
    nu, nv = coords.shape[:2]
    data = coords.reshape(nu * nv, *coords.shape[2:]).tolist()
    if at_infinity is not None:
        for k in np.flatnonzero(at_infinity):
            data[k] = None
    doc = {"meta": dict(meta)} if meta else {}
    doc.update(kind=kind, ambient=ambient, dims=[nu, nv], data=data)
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("kind, ambient", sorted(_LAYOUTS))
@SETTINGS
@given(
    nu=st.integers(1, 4),
    nv=st.integers(1, 4),
    values=st.lists(coordinates, min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    nulls=st.sampled_from(["none", "first", "last", "all but one", "random"]),
    meta=metas,
)
@example(nu=3, nv=4, values=SPECIAL, seed=0, nulls="first", meta=RICH_META)
@example(nu=3, nv=4, values=SPECIAL, seed=1, nulls="last", meta=None)
@example(nu=4, nv=3, values=SPECIAL, seed=2, nulls="all but one", meta=RICH_META)
@example(nu=1, nv=1, values=[-0.0, 5e-324], seed=3, nulls="none", meta={})
def test_write_net_is_json_dumps_and_reads_back_bit_identical(kind, ambient, nu, nv, values, seed, nulls, meta):
    net, coords, at_infinity = build(kind, ambient, nu, nv, values, seed, nulls)
    buf = io.StringIO()
    write_net(net, buf, meta)
    text = buf.getvalue()
    assert text == reference_text(kind, ambient, coords, at_infinity, meta)

    back = read_net(text)
    assert type(back) is type(net)
    if kind == "line_grid":
        assert back.form.signature == net.form.signature
        assert np.array_equal(bits(back.lines), bits(coords))
    elif kind == "plane_net":
        assert np.array_equal(bits(back.covectors), bits(coords))
    elif ambient == "E3":
        assert np.array_equal(back.at_infinity, at_infinity)
        assert np.array_equal(bits(back.points[~at_infinity]), bits(coords[~at_infinity]))
    else:
        assert back.ambient == ambient
        assert np.array_equal(bits(back.points), bits(coords))

