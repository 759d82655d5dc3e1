import io
import json

import numpy as np
import pytest

from conftest import random_q_net
from multinets.circular import EuclidNet, sample_rotational
from multinets.cli import main
from multinets.congruences import torus_contact_grid
from multinets.errors import InfiniteVertex, SchemaViolation
from multinets.io_json import export_obj, read_net, write_net
from multinets.projective import INF
from multinets.qnets import PlaneNet, PointNet
from multinets.subdivision import subdivide_q


def roundtrip(net):
    buf = io.StringIO()
    write_net(net, buf)
    return read_net(buf.getvalue())


# -- json round trips -----------------------------------------------------------


def test_point_net_roundtrip(rng):
    net = PointNet(rng.uniform(-1, 1, (3, 4, 4)))
    back = roundtrip(net)
    assert isinstance(back, PointNet)
    assert back.ambient == "RP3"
    assert np.array_equal(net.points, back.points)


def test_r41_net_roundtrip(rng):
    net = PointNet(rng.uniform(-1, 1, (3, 3, 5)), ambient="R41")
    back = roundtrip(net)
    assert back.ambient == "R41"
    assert np.array_equal(net.points, back.points)


def test_plane_net_roundtrip(rng):
    pn = PlaneNet(rng.uniform(-1, 1, (4, 3, 4)))
    back = roundtrip(pn)
    assert isinstance(back, PlaneNet)
    assert np.array_equal(pn.covectors, back.covectors)


def test_euclid_net_roundtrip_with_infinity():
    net = EuclidNet.from_grid(
        [[np.array([0.125, -3.5, 2.0]), INF], [np.array([1e-17, 1, 0]), np.array([1.0, 1, 1])]]
    )
    back = roundtrip(net)
    assert np.array_equal(net.points[~net.at_infinity], back.points[~back.at_infinity])
    assert np.array_equal(net.at_infinity, back.at_infinity)


def test_line_grid_roundtrip():
    g = torus_contact_grid(2.0, 0.5, [0.1, 0.7], [0.2, 0.9])
    back = roundtrip(g)
    assert np.array_equal(g.lines, back.lines)
    assert back.form.signature == g.form.signature


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "net.json"
    path.write_text('{"kind": "point_net", "ambient": "RP3", "dims": [2, 2]')
    with pytest.raises(SchemaViolation):
        read_net(str(path))


def test_dims_data_mismatch_rejected():
    doc = {"kind": "point_net", "ambient": "RP3", "dims": [2, 2], "data": [[1, 0, 0, 1]] * 3}
    with pytest.raises(SchemaViolation):
        read_net(json.dumps(doc))


def test_bad_entry_length_rejected():
    doc = {"kind": "point_net", "ambient": "RP3", "dims": [1, 1], "data": [[1, 0, 0]]}
    with pytest.raises(SchemaViolation):
        read_net(json.dumps(doc))


# -- malformed input ---------------------------------------------------------------

# one small valid document per (kind, ambient); each malformation below breaks
# exactly one thing about it
VALID_DOCS = {
    "rp3": ("point_net", "RP3", [[1, 0, 0, 1], [0, 1, 0, 1]]),
    "r41": ("point_net", "R41", [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1]]),
    "e3": ("point_net", "E3", [[0, 0, 0], None]),
    "plane": ("plane_net", "RP3", [[0, 0, 1, 0], [0, 0, 1, 1]]),
    "lie": ("line_grid", "R42", [[[1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 1]]] * 2),
    "pluecker": ("line_grid", "R33", [[[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0]]] * 2),
}


def valid_doc(kind):
    name, ambient, data = VALID_DOCS[kind]
    return {"kind": name, "ambient": ambient, "dims": [1, 2], "data": json.loads(json.dumps(data))}


def first_coords(doc):
    entry = doc["data"][0]
    return entry[0] if doc["kind"] == "line_grid" else entry


def _set(key, value):
    def breaks(doc):
        doc[key] = value

    return breaks


MALFORMATIONS = {
    "short-entry": lambda doc: first_coords(doc).pop(),
    "non-numeric": lambda doc: first_coords(doc).__setitem__(0, "x"),
    "bool-coordinate": lambda doc: first_coords(doc).__setitem__(0, True),
    "numeric-string": lambda doc: first_coords(doc).__setitem__(0, "1.5"),
    "nested-coordinate": lambda doc: first_coords(doc).__setitem__(0, [1.0]),
    "huge-integer": lambda doc: first_coords(doc).__setitem__(0, 10**400),
    "null-entry": lambda doc: doc["data"].__setitem__(0, None),
    "not-a-pair": lambda doc: doc["data"].__setitem__(0, doc["data"][0][:1]),
    "unknown-ambient": _set("ambient", "R99"),
    "unknown-kind": _set("kind", "curve_net"),
    "dims-zero": _set("dims", [0, 2]),
    "dims-one-entry": _set("dims", [2]),
    "dims-float": _set("dims", [1.0, 2]),
    "dims-bool": _set("dims", [True, 2]),
    "dims-string": _set("dims", "1x2"),
    "data-not-list": _set("data", {"0": [1, 0, 0, 1]}),
    "missing-data": lambda doc: doc.pop("data"),
}
# null marks a vertex at infinity in E3 nets; spanning pairs exist in line grids only
MALFORMED_CASES = [
    (kind, bad)
    for kind in VALID_DOCS
    for bad in MALFORMATIONS
    if not (bad == "null-entry" and kind == "e3")
    and not (bad == "not-a-pair" and VALID_DOCS[kind][0] != "line_grid")
] + [(kind, bad) for kind in VALID_DOCS for bad in ("top-level-array", "truncated")]


def malformed_text(kind, bad):
    doc = valid_doc(kind)
    if bad == "top-level-array":
        return json.dumps([doc])
    if bad == "truncated":
        return json.dumps(doc)[:-7]
    MALFORMATIONS[bad](doc)
    return json.dumps(doc)


@pytest.mark.parametrize("kind", sorted(VALID_DOCS))
def test_valid_docs_read(kind):
    read_net(io.StringIO(json.dumps(valid_doc(kind))))


def expected_message(kind, bad, k=0):
    """The SchemaViolation message of a malformation, the bad entry at data[k]."""
    name = VALID_DOCS[kind][0]
    pair = name == "line_grid"
    length = len(first_coords(valid_doc(kind)))
    entry = f"data[{k}]: "
    return {
        "short-entry": entry + f"expected {length} coordinates",
        "non-numeric": entry + "non-numeric coordinate",
        "bool-coordinate": entry + "non-numeric coordinate",
        "numeric-string": entry + "non-numeric coordinate",
        "nested-coordinate": entry + "non-numeric coordinate",
        "huge-integer": entry + "non-numeric coordinate",
        "null-entry": entry + ("expected a spanning pair" if pair else f"expected {length} coordinates"),
        "not-a-pair": entry + "expected a spanning pair",
        "unknown-ambient": "unknown {} ambient 'R99'".format(
            {"point_net": "point", "plane_net": "plane", "line_grid": "line"}[name]
        ),
        "unknown-kind": "unknown kind 'curve_net'",
        "dims-zero": "field 'dims' must be two positive integers",
        "dims-one-entry": "field 'dims' must be two positive integers",
        "dims-float": "field 'dims' must be two positive integers",
        "dims-bool": "field 'dims' must be two positive integers",
        "dims-string": "field 'dims' must be two positive integers",
        "data-not-list": "field 'data' must hold dims[0]*dims[1] = 2 entries, got dict",
        "missing-data": "missing field 'data'",
        "top-level-array": "top-level value must be an object",
        "truncated": "invalid JSON at line 1: " + ("Expecting ',' delimiter" if pair else "Expecting value"),
    }[bad]


@pytest.mark.parametrize("kind, bad", MALFORMED_CASES)
def test_malformed_input_rejected(kind, bad):
    text = malformed_text(kind, bad)
    for source in (io.StringIO(text), text):
        with pytest.raises(SchemaViolation) as info:
            read_net(source)
        assert str(info.value) == expected_message(kind, bad)


def bad_entry(kind, bad):
    doc = valid_doc(kind)
    MALFORMATIONS[bad](doc)
    return doc["data"][0]


# the malformations of one data entry, whose message names its index
ENTRY_BREAKS = {
    "short-entry", "non-numeric", "bool-coordinate", "numeric-string", "nested-coordinate",
    "huge-integer", "null-entry", "not-a-pair",
}
ENTRY_CASES = [(kind, bad) for kind, bad in MALFORMED_CASES if bad in ENTRY_BREAKS]


@pytest.mark.parametrize("kind, bad", ENTRY_CASES)
def test_bad_last_entry_of_a_28x28_net_is_named(kind, bad):
    """The whole-list check of a large net finds a bad entry at the end and
    hands it to the per-entry parse, which names it."""
    doc = valid_doc(kind)
    good = [entry for entry in doc["data"] if entry is not None][0]
    doc["dims"] = [28, 28]
    doc["data"] = ([good, None] * 392 if kind == "e3" else [good] * 784)[:783] + [bad_entry(kind, bad)]
    with pytest.raises(SchemaViolation) as info:
        read_net(json.dumps(doc))
    assert str(info.value) == expected_message(kind, bad, 783)


@pytest.mark.parametrize("bad", [bad for kind, bad in ENTRY_CASES if kind == "e3"])
@pytest.mark.parametrize("k", [1, 2, 400, 783])
def test_bad_entry_right_after_a_null_is_named(bad, k):
    """Nulls before a bad E3 entry do not shift the index named, and a later
    bad entry is not the one named."""
    data = [[0.5, -1, 2.0]] * (k - 1) + [None, bad_entry("e3", bad)]
    data += ([None, [1.0, True, 0.0]] * 392)[: 784 - len(data)]
    doc = {"kind": "point_net", "ambient": "E3", "dims": [28, 28], "data": data}
    with pytest.raises(SchemaViolation) as info:
        read_net(json.dumps(doc))
    assert str(info.value) == expected_message("e3", bad, k)


def test_plane_net_ambient_must_be_rp3():
    doc = valid_doc("plane")
    doc["ambient"] = "R41"
    with pytest.raises(SchemaViolation, match="unknown plane ambient 'R41'"):
        read_net(json.dumps(doc))


@pytest.mark.parametrize("kind, bad", MALFORMED_CASES)
@pytest.mark.parametrize("command", [["verify", "q"], ["export"]])
def test_cli_malformed_input_exit_2(command, kind, bad, tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(malformed_text(kind, bad))
    code = main(command + ["-i", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: SchemaViolation: ")
    assert "Traceback" not in err
    assert out == ""


def test_write_is_deterministic(rng):
    net = PointNet(rng.uniform(-1, 1, (3, 3, 4)))
    a, b = io.StringIO(), io.StringIO()
    write_net(net, a)
    write_net(net, b)
    assert a.getvalue() == b.getvalue()


# -- OBJ export ------------------------------------------------------------------


def test_obj_unit_square():
    net = EuclidNet(np.array([[[0.0, 0, 0], [0, 1, 0]], [[1.0, 0, 0], [1, 1, 0]]]))
    buf = io.StringIO()
    export_obj(net, buf)
    lines = buf.getvalue().strip().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert lines[-1] == "f 1 2 4 3"


def test_obj_three_by_three():
    pts = np.array([[[i, j, 0.0] for j in range(3)] for i in range(3)])
    buf = io.StringIO()
    export_obj(EuclidNet(pts), buf)
    lines = buf.getvalue().strip().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 9
    assert sum(1 for l in lines if l.startswith("f ")) == 4


def test_obj_infinite_vertex_rejected():
    net = EuclidNet.from_grid([[np.array([0.0, 0, 0]), INF], [np.array([1.0, 0, 0]), np.array([1.0, 1, 0])]])
    with pytest.raises(InfiniteVertex):
        export_obj(net, io.StringIO())


def test_obj_subdivided_net_no_cracks(rng):
    net = random_q_net(rng, 3, 3)
    fine = subdivide_q(net, 3)
    buf = io.StringIO()
    export_obj(fine, buf)
    lines = buf.getvalue().strip().splitlines()
    n_v = sum(1 for l in lines if l.startswith("v "))
    n_f = sum(1 for l in lines if l.startswith("f "))
    assert n_v == 7 * 7  # shared boundary vertices written once
    assert n_f == 6 * 6


def test_obj_deterministic(rng):
    net = EuclidNet(rng.uniform(-1, 1, (3, 3, 3)))
    a, b = io.StringIO(), io.StringIO()
    export_obj(net, a)
    export_obj(net, b)
    assert a.getvalue() == b.getvalue()


# -- CLI ------------------------------------------------------------------------


def run_cli(args, stdin_text=None, capsys=None, monkeypatch=None):
    import sys

    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_gen_verify_pipeline(tmp_path, capsys, monkeypatch):
    code, out, err = run_cli(
        ["gen", "translation", "--nu", "5", "--nv", "5", "--seed", "3"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    code, out2, _ = run_cli(
        ["verify", "multi-q"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0 and "ok" in out2


def test_cli_gen_reflect_verify(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["gen", "reflect", "--nu", "5", "--nv", "5", "--seed", "4"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    code, out2, _ = run_cli(
        ["verify", "multi-q"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0


def test_cli_rotational_pipeline(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["gen", "rotational", "--profile-len", "5", "--angles", "8", "--seed", "1"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    code, out2, _ = run_cli(
        ["verify", "multi-circular"],
        stdin_text=out,
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    code, out3, _ = run_cli(
        ["classify", "circular"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0 and "rotational" in out3


def test_cli_verify_failure_reports_indices(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["gen", "translation", "--nu", "4", "--nv", "4", "--seed", "9"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    doc = json.loads(out)
    doc["data"][5][0] += 0.5
    code, out2, _ = run_cli(
        ["verify", "multi-q"],
        stdin_text=json.dumps(doc),
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert "violation at" in out2 and "residual" in out2


def test_cli_gen_deterministic(capsys, monkeypatch):
    _, out1, _ = run_cli(
        ["gen", "qqstar", "--nu", "4", "--nv", "4", "--seed", "7"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    _, out2, _ = run_cli(
        ["gen", "qqstar", "--nu", "4", "--nv", "4", "--seed", "7"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert out1 == out2


def test_cli_subdivide_and_export(tmp_path, capsys, monkeypatch):
    net_path = tmp_path / "net.json"
    fine_path = tmp_path / "fine.json"
    obj_path = tmp_path / "mesh.obj"
    code, _, _ = run_cli(
        ["gen", "translation", "--nu", "3", "--nv", "3", "--seed", "5", "-o", str(net_path)],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    code, _, _ = run_cli(
        ["subdivide", "--scheme", "q", "--n", "2", "--rounds", "2", "-i", str(net_path), "-o", str(fine_path)],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["verify", "q", "-i", str(fine_path)], capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    code, _, _ = run_cli(
        ["export", "--format", "obj", "-i", str(fine_path), "-o", str(obj_path)],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    text = obj_path.read_text()
    assert text.startswith("v ") and "\nf " in text


def test_cli_subdivide_circular_with_seed_arcs(tmp_path, capsys, monkeypatch):
    from conftest import torus_point, torus_u_tangent, torus_v_tangent

    us = [0.2, 0.9, 1.7]
    vs = [-0.5, 0.3, 1.0]
    pts = [[list(torus_point(2.0, 0.5, u, v)) for v in vs] for u in us]
    net_doc = {
        "kind": "point_net",
        "ambient": "E3",
        "dims": [3, 3],
        "data": [pts[i][j] for i in range(3) for j in range(3)],
    }
    seeds = {
        "row0": [
            {
                "start": list(torus_point(2.0, 0.5, us[i], vs[0])),
                "end": list(torus_point(2.0, 0.5, us[i + 1], vs[0])),
                "tangent": list(torus_u_tangent(us[i], vs[0])),
            }
            for i in range(2)
        ],
        "col0": [
            {
                "start": list(torus_point(2.0, 0.5, us[0], vs[j])),
                "end": list(torus_point(2.0, 0.5, us[0], vs[j + 1])),
                "tangent": list(torus_v_tangent(us[0], vs[j])),
            }
            for j in range(2)
        ],
    }
    seeds_path = tmp_path / "seeds.json"
    seeds_path.write_text(json.dumps(seeds))
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(net_doc))
    code, _, _ = run_cli(
        [
            "subdivide",
            "--scheme",
            "circular",
            "--n",
            "2",
            "--seeds",
            str(seeds_path),
            "-i",
            str(net_path),
            "-o",
            str(tmp_path / "fine.json"),
        ],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["verify", "circular", "-i", str(tmp_path / "fine.json")],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0


def test_cli_bad_input_exit_2(capsys, monkeypatch):
    code, out, err = run_cli(
        ["verify", "q"], stdin_text='{"kind": "junk"}', capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 2
    assert "SchemaViolation" in err


def test_cli_wrong_net_kind_exit_2(capsys, monkeypatch):
    _, out, _ = run_cli(
        ["gen", "rotational", "--profile-len", "4", "--angles", "4", "--seed", "2"],
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    code, _, err = run_cli(
        ["verify", "multi-q"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 2


@pytest.mark.parametrize("option", ["--nu", "--nv", "--profile-len", "--angles", "--steps", "--n"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_gen_rejects_counts_below_one_at_parse_time(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "translation", option, value])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: must be at least 1, got {value}\n")


@pytest.mark.parametrize(
    "args",
    [["rotational", "--angles", "1"], ["rotational", "--profile-len", "1"]],
    ids=["one-angle", "one-profile-point"],
)
def test_cli_gen_rotational_defers_to_the_sampler(args, capsys, monkeypatch):
    code, out, err = run_cli(["gen", *args], capsys=capsys, monkeypatch=monkeypatch)
    message = "error: DegenerateProfile: need at least two profile points and two angles\n"
    assert (code, out, err) == (2, "", message)


def test_cli_out_of_memory_exit_2(capsys, monkeypatch):
    """numpy raises a private MemoryError subclass when a subdivision is too
    large to allocate; the CLI reports it on one line and exits 2.  The
    subdivision is replaced, so nothing is allocated."""
    from multinets import subdivision

    class ArrayMemoryError(MemoryError):
        pass

    def out_of_memory(*args, **kwargs):
        raise ArrayMemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627777,)")

    monkeypatch.setattr(subdivision, "subdivide_q", out_of_memory)
    code, out, err = run_cli(
        ["subdivide", "--scheme", "q", "--n", "2", "--rounds", "40"],
        stdin_text=_net_text(_point_net()),
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    message = "error: MemoryError: Unable to allocate 8.00 TiB for an array with shape (1099511627777,)\n"
    assert (code, out, err) == (2, "", message)


def _net_text(net):
    buf = io.StringIO()
    write_net(net, buf)
    return buf.getvalue()


def _point_net():
    return random_q_net(np.random.default_rng(0), 3, 3)


def _e3_net():
    return sample_rotational([[1.0, 0.0], [1.5, 1.0], [1.2, 2.0]], [0.0, 1.0, 2.0])


@pytest.mark.parametrize(
    "what, net, expected, got",
    [
        ("gauss", _point_net, "EuclidNet", "PointNet"),
        ("circular", _point_net, "EuclidNet", "PointNet"),
        ("congruence", _e3_net, "IsoLineGrid", "EuclidNet"),
    ],
)
def test_cli_classify_wrong_net_kind_exit_2(what, net, expected, got, capsys, monkeypatch):
    code, out, err = run_cli(
        ["classify", what], stdin_text=_net_text(net()), capsys=capsys, monkeypatch=monkeypatch
    )
    assert (code, out) == (2, "")
    assert err == f"error: '{what}' expects a {expected}, got {got}\n"


@pytest.mark.parametrize(
    "counts, message",
    [
        (["--nu", "3"], "error: --nu and --nv must be given together\n"),
        (["--nv", "3"], "error: --nu and --nv must be given together\n"),
        (["--nu", "0", "--nv", "4"], "input error: ValueError: subdivision counts must be >= 1\n"),
    ],
    ids=["nu-alone", "nv-alone", "zero"],
)
def test_cli_subdivide_takes_nu_and_nv_together(counts, message, capsys, monkeypatch):
    text = _net_text(_point_net())
    code, out, err = run_cli(
        ["subdivide", "--scheme", "q", *counts], stdin_text=text, capsys=capsys, monkeypatch=monkeypatch
    )
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "scheme, net, seeds, message",
    [
        ("q", _e3_net, None, "error: scheme q expects a point net\n"),
        ("circular", _point_net, "missing.json", "error: scheme circular expects an E3 net\n"),
        ("circular", _e3_net, None, "error: scheme circular requires --seeds FILE\n"),
        ("q", _point_net, {"u": []}, "input error: KeyError: 'v'\n"),
        ("circular", _e3_net, {"col0": []}, "input error: KeyError: 'row0'\n"),
        ("circular", _e3_net, {"row0": [{"start": [0, 0, 0]}], "col0": []},
         "input error: KeyError: 'end'\n"),
    ],
    ids=["q-kind", "circular-kind-before-file", "circular-no-seeds", "q-seeds", "circular-seeds", "arc"],
)
def test_cli_subdivide_checks_the_net_before_its_seeds(scheme, net, seeds, message, tmp_path, capsys,
                                                       monkeypatch):
    args = ["subdivide", "--scheme", scheme]
    if seeds is not None:
        path = tmp_path / "seeds.json"
        if isinstance(seeds, dict):
            path.write_text(json.dumps(seeds))
        args += ["--seeds", str(path if isinstance(seeds, dict) else tmp_path / seeds)]
    code, out, err = run_cli(args, stdin_text=_net_text(net()), capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("scheme, shape", [("q", (3, 1)), ("q", (1, 3)), ("circular", (3, 1)), ("circular", (1, 1))])
def test_cli_subdivide_rejects_a_net_without_faces(scheme, shape, tmp_path, capsys, monkeypatch):
    points = np.random.default_rng(1).uniform(-1.0, 1.0, (*shape, 3))
    args = ["subdivide", "--scheme", scheme]
    if scheme == "q":
        net = PointNet(np.concatenate([points, np.ones((*shape, 1))], axis=-1))
    else:
        net = EuclidNet(points)
        (tmp_path / "seeds.json").write_text(json.dumps({"row0": [], "col0": []}))
        args += ["--seeds", str(tmp_path / "seeds.json")]
    code, out, err = run_cli(args, stdin_text=_net_text(net), capsys=capsys, monkeypatch=monkeypatch)
    message = f"subdivision needs a net of at least 2x2 vertices, got {shape}"
    assert (code, out, err) == (2, "", f"error: DimensionMismatch: {message}\n")


@pytest.mark.parametrize("scheme, rounds", [("q", "-1"), ("q", "-2"), ("circular", "-1")])
def test_cli_subdivide_rejects_negative_rounds(scheme, rounds, tmp_path, capsys, monkeypatch):
    args = ["subdivide", "--scheme", scheme, "--rounds", rounds]
    if scheme == "circular":
        (tmp_path / "seeds.json").write_text(json.dumps({"row0": [], "col0": []}))
        args += ["--seeds", str(tmp_path / "seeds.json")]
    net = _point_net() if scheme == "q" else _e3_net()
    code, out, err = run_cli(args, stdin_text=_net_text(net), capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "input error: ValueError: subdivision rounds must be >= 0\n")


def test_cli_subdivide_passes_nu_and_nv_through(capsys, monkeypatch):
    text = _net_text(_point_net())
    code, out, _ = run_cli(
        ["subdivide", "--scheme", "q", "--nu", "1", "--nv", "3"], stdin_text=text, capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert read_net(io.StringIO(out)).points.shape[:2] == (3, 7)


# -- CLI verifiers: one passing and one failing input each -----------------------


def _verify(what, net, capsys, monkeypatch):
    code, out, _ = run_cli(
        ["verify", what], stdin_text=_net_text(net), capsys=capsys, monkeypatch=monkeypatch
    )
    return code, out.splitlines()


def _reports(lines):
    """Split 'violation at <key>: residual <value>' lines into (key, value)."""
    out = []
    for line in lines:
        assert line.startswith("violation at ")
        key, value = line[len("violation at "):].split(": residual ")
        out.append((key, value))
    return out


def _translation_plane_net():
    from multinets.qnets import dualize_point_net, from_translation

    rng = np.random.default_rng(7)
    return dualize_point_net(
        from_translation(rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (4, 4)))
    )


def _s2_plane_net():
    from multinets.conical import polarize_spherical, sample_s2_rotational

    return polarize_spherical(
        sample_s2_rotational(np.linspace(0.6, 2.0, 3), np.linspace(0.3, 2.4, 4))
    )


def _broken_s2_plane_net():
    """Plane (0,0) turned about the common point of quad (0,0), so that quad
    stays concurrent but loses concyclic normals; plane (3,2) shifted off
    the common point of quad (2,1)."""
    from multinets.qnets import qstar_vertices

    pn = _s2_plane_net()
    cov = pn.covectors.copy()
    cov[3, 2, 3] += 0.3
    v = qstar_vertices(pn)[0][0]
    v = v[:3] / v[3]
    n = cov[0, 0, :3] + np.array([0.2, -0.1, 0.15])
    n /= np.linalg.norm(n)
    cov[0, 0] = np.concatenate([n, [n @ v]])
    return PlaneNet(cov)


@pytest.mark.parametrize("what", ["qstar", "multi-qstar"])
def test_cli_verify_qstar_passes(what, capsys, monkeypatch):
    code, lines = _verify(what, _translation_plane_net(), capsys, monkeypatch)
    assert code == 0
    assert lines == [f"ok: {what}"]


def test_cli_verify_qstar_fails_with_rectangle_keys(capsys, monkeypatch):
    pn = PlaneNet(np.random.default_rng(9).uniform(-1, 1, (2, 3, 4)))
    code, lines = _verify("qstar", pn, capsys, monkeypatch)
    assert code == 1
    got = _reports(lines)
    assert [k for k, _ in got] == ["(0, 1, 0, 1)", "(0, 1, 1, 2)"]
    expected = [0.29986116723810124, 0.1758314908904175]
    assert np.allclose([float(v) for _, v in got], expected, rtol=1e-9, atol=0)


def test_cli_verify_multi_qstar_fails_off_elementary_quads(capsys, monkeypatch):
    from multinets.qnets import dualize_point_net

    pn = dualize_point_net(random_q_net(np.random.default_rng(8), 3, 3))
    code, lines = _verify("multi-qstar", pn, capsys, monkeypatch)
    assert code == 1
    got = _reports(lines)
    assert [k for k, _ in got] == [
        "(0, 1, 0, 2)",
        "(0, 2, 0, 1)",
        "(0, 2, 0, 2)",
        "(0, 2, 1, 2)",
        "(1, 2, 0, 2)",
    ]
    expected = [
        0.002840146539132319,
        0.00034417674007638003,
        0.0026886144418925358,
        0.001211746836756336,
        0.0012932622233880037,
    ]
    assert np.allclose([float(v) for _, v in got], expected, rtol=1e-9, atol=0)


@pytest.mark.parametrize("what", ["conical", "multi-conical"])
def test_cli_verify_conical_passes(what, capsys, monkeypatch):
    code, lines = _verify(what, _s2_plane_net(), capsys, monkeypatch)
    assert code == 0
    assert lines == [f"ok: {what}"]


def test_cli_verify_multi_conical_keeps_normals_as_written(capsys, monkeypatch):
    """Longitude steps over 90 degrees give neighbouring normals a negative
    dot product; the CLI must judge the net as written, like the library."""
    from multinets.conical import (
        multi_conical_violations,
        polarize_spherical,
        sample_s2_rotational,
    )

    pn = polarize_spherical(
        sample_s2_rotational(np.linspace(0.5, 2.2, 4), np.linspace(0.3, 4.0, 3))
    )
    assert multi_conical_violations(pn) == []
    code, lines = _verify("multi-conical", pn, capsys, monkeypatch)
    assert code == 0
    assert lines == ["ok: multi-conical"]


def test_cli_verify_conical_fails_with_reasons(capsys, monkeypatch):
    code, lines = _verify("conical", _broken_s2_plane_net(), capsys, monkeypatch)
    assert code == 1
    assert lines == [
        "violation at (0, 0): residual normals not concyclic",
        "violation at (2, 1): residual planes not concurrent",
    ]


def test_cli_verify_multi_conical_fails_with_reasons(capsys, monkeypatch):
    code, lines = _verify("multi-conical", _broken_s2_plane_net(), capsys, monkeypatch)
    assert code == 1
    concyclic = {"(0, 1, 0, 1)"}
    keys = [
        "(0, 1, 0, 1)",
        "(0, 1, 0, 2)",
        "(0, 2, 0, 1)",
        "(0, 2, 0, 2)",
        "(0, 3, 0, 1)",
        "(0, 3, 0, 2)",
        "(0, 3, 1, 2)",
        "(1, 3, 0, 2)",
        "(1, 3, 1, 2)",
        "(2, 3, 0, 2)",
        "(2, 3, 1, 2)",
    ]
    assert lines == [
        f"violation at {k}: residual "
        + ("normals not concyclic" if k in concyclic else "planes not concurrent")
        for k in keys
    ]


def test_cli_verify_congruence_passes(capsys, monkeypatch):
    g = torus_contact_grid(2.0, 0.5, [0.1, 0.8, 1.9], [-0.5, 0.2, 0.9])
    code, lines = _verify("congruence", g, capsys, monkeypatch)
    assert code == 0
    assert lines == ["ok: congruence"]


def test_cli_verify_congruence_fails_with_pair_keys(capsys, monkeypatch):
    from multinets.congruences import IsoLineGrid, contact_element
    from multinets.projective import LIE, RANK_RTOL

    g = torus_contact_grid(2.0, 0.5, [0.1, 0.8, 1.9], [-0.5, 0.2, 0.9])
    lines = g.lines.copy()
    lines[1, 2] = contact_element(np.array([0.3, -0.4, 0.2]), np.array([0.0, 0.6, 0.8]))
    code, out = _verify("congruence", IsoLineGrid(lines, LIE), capsys, monkeypatch)
    assert code == 1
    got = _reports(out)
    assert [k for k, _ in got] == [
        "('row', 0, 1, 2)",
        "('row', 1, 2, 2)",
        "('col', 1, 0, 2)",
        "('col', 1, 1, 2)",
    ]
    assert all(RANK_RTOL < float(v) <= 1.0 for _, v in got)
