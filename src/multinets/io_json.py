"""Net serialization (JSON) and OBJ mesh export.

One top-level object per file: kind in {point_net, plane_net, line_grid},
an ambient tag, dims [nu, nv], and a row-major data array of coordinate
arrays.  Euclidean nets use ambient "E3" with null marking a vertex at
infinity.  Floats round-trip exactly (shortest repr), so write/read is
lossless and byte-deterministic.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from itertools import chain

import numpy as np

from .errors import InfiniteVertex, SchemaViolation
from .projective import LIE, PLUECKER, ZERO_RTOL

_DIMS_MESSAGE = "field 'dims' must be two positive integers"

# Each net class is imported by the first builder that makes one: reading a
# point net loads qnets, not congruences.


def _euclid_net(coords, mask):
    from .circular import EuclidNet

    return EuclidNet(coords, mask)


def _point_net(coords, mask, ambient):
    from .qnets import PointNet

    return PointNet(coords, ambient=ambient)


def _plane_net(coords, mask):
    from .qnets import PlaneNet

    return PlaneNet(coords)


def _line_grid(coords, mask, form):
    from .congruences import IsoLineGrid

    return IsoLineGrid(coords, form)


# (kind, ambient) -> (entry shape, builder of the net from its coordinate grid
# (nu, nv, *entry) and infinity mask); only E3 nets mark vertices with null
_LAYOUTS = {
    ("point_net", "E3"): ((3,), _euclid_net),
    **{
        ("point_net", ambient): ((d,), partial(_point_net, ambient=ambient))
        for ambient, d in (("RP3", 4), ("R41", 5), ("R31", 4), ("R42", 6), ("R33", 6))
    },
    ("plane_net", "RP3"): ((4,), _plane_net),
    ("line_grid", "R42"): ((2, 6), partial(_line_grid, form=LIE)),
    ("line_grid", "R33"): ((2, 6), partial(_line_grid, form=PLUECKER)),
}


def _loaded(module, name):
    """The class multinets.<module>.<name>, or () while that module is not
    loaded: no net of a class whose module was never imported can exist, and
    isinstance(net, ()) is False."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return () if loaded is None else getattr(loaded, name)


def _grid(net):
    """(kind, ambient, coords, at_infinity) of a net, coords (nu, nv, *entry);
    at_infinity is the mask of an EuclidNet and None otherwise.  None for an
    object that is not a net."""
    if isinstance(net, _loaded("circular", "EuclidNet")):
        return "point_net", "E3", net.points, net.at_infinity
    if isinstance(net, _loaded("qnets", "PointNet")):
        return "point_net", net.ambient, net.points, None
    if isinstance(net, _loaded("qnets", "PlaneNet")):
        return "plane_net", "RP3", net.covectors, None
    if isinstance(net, _loaded("congruences", "IsoLineGrid")):
        ambient = "R42" if net.form.signature == LIE.signature else "R33"
        return "line_grid", ambient, net.lines, None
    return None


def _coordinates(entry, shape, k):
    """The coordinates of data[k], an entry of the given shape, as a flat list."""
    if len(shape) == 2:
        if not isinstance(entry, list) or len(entry) != shape[0]:
            raise SchemaViolation(f"data[{k}]: expected a spanning pair")
        return [v for part in entry for v in _coordinates(part, shape[1:], k)]
    if not isinstance(entry, list) or len(entry) != shape[0]:
        raise SchemaViolation(f"data[{k}]: expected {shape[0]} coordinates")
    # JSON numbers only: float() would also take true/false and "1.5"
    if set(map(type, entry)) <= {int, float}:
        try:
            return [float(v) for v in entry]
        except OverflowError:  # an integer beyond the float range
            pass
    raise SchemaViolation(f"data[{k}]: non-numeric coordinate")


def _lists_of(items, length):
    """Whether every item is a list of the given length."""
    return set(map(type, items)) <= {list} and set(map(len, items)) <= {length}


def _whole_data(data, shape, nulls):
    """(values, mask) of a data list whose entries all have the given shape
    and JSON-number coordinates (null too where nulls marks a vertex at
    infinity), checked and converted over the whole list; None otherwise.
    values holds one row of zeros per null."""
    mask = np.zeros(len(data), dtype=bool)
    rows = data
    if nulls:
        mask[:] = [entry is None for entry in data]
        rows = [entry for entry in data if entry is not None]
    if len(shape) == 2:
        if not _lists_of(rows, shape[0]):
            return None
        rows = list(chain.from_iterable(rows))
    if not _lists_of(rows, shape[-1]):
        return None
    coords = list(chain.from_iterable(rows))
    # JSON numbers only: np.array(..., dtype=float) would also take true and "1.5"
    if not set(map(type, coords)) <= {int, float}:
        return None
    try:
        finite = np.array(coords, dtype=float).reshape(-1, int(np.prod(shape)))
    except OverflowError:  # an integer beyond the float range
        return None
    values = np.zeros((len(data), finite.shape[1]))
    values[~mask] = finite
    return values, mask


def document_to_net(doc: dict):
    """Decode a document, validating the schema with field diagnostics."""
    if not isinstance(doc, dict):
        raise SchemaViolation("top-level value must be an object")
    for key in ("kind", "ambient", "dims", "data"):
        if key not in doc:
            raise SchemaViolation(f"missing field '{key}'")
    kind = doc["kind"]
    ambient = doc["ambient"]
    dims = doc["dims"]
    data = doc["data"]
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(type(n) is int and n > 0 for n in dims)
    ):
        raise SchemaViolation(_DIMS_MESSAGE)
    nu, nv = dims
    if not isinstance(data, list) or len(data) != nu * nv:
        raise SchemaViolation(
            f"field 'data' must hold dims[0]*dims[1] = {nu * nv} entries, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    if not (isinstance(kind, str) and isinstance(ambient, str) and (kind, ambient) in _LAYOUTS):
        if any(kind == known for known, _ in _LAYOUTS):
            raise SchemaViolation(f"unknown {kind.split('_')[0]} ambient '{ambient}'")
        raise SchemaViolation(f"unknown kind '{kind}'")
    shape, build = _LAYOUTS[kind, ambient]
    parsed = _whole_data(data, shape, ambient == "E3")
    if parsed is None:  # name the first bad entry
        size = int(np.prod(shape))
        mask = np.zeros(nu * nv, dtype=bool)
        values = []
        for k, entry in enumerate(data):
            if entry is None and ambient == "E3":
                mask[k] = True
                values += [0.0] * size
            else:
                values += _coordinates(entry, shape, k)
        parsed = np.array(values), mask
    values, mask = parsed
    return build(values.reshape(nu, nv, *shape), mask.reshape(nu, nv))


def _write_text(text, target):
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def _template(shape, depth):
    """The json.dumps(indent=1) text of a data entry of the given shape at
    the given nesting depth, with %r in place of each coordinate."""
    pad = " " * depth
    if not shape:
        return pad + "%r"
    inner = ",\n".join([_template(shape[1:], depth + 1)] * shape[0])
    return f"{pad}[\n{inner}\n{pad}]"


def write_net(net, target, meta=None):
    """Write a net to a path or text stream; lossless float round trip.

    The text is json.dumps(document, indent=1, sort_keys=True): json writes
    everything but the data, whose entries fill one %r template per entry
    shape.  json writes a finite float with float.__repr__, and every net
    is finite, so the bytes are the same.  A net with a zero dimension
    raises, as read_net would on its text."""
    grid = _grid(net)
    if grid is None:
        raise SchemaViolation(f"cannot serialize object of type {type(net).__name__}")
    kind, ambient, coords, at_infinity = grid
    nu, nv = coords.shape[:2]
    if nu == 0 or nv == 0:
        raise SchemaViolation(_DIMS_MESSAGE)
    doc = {"meta": dict(meta)} if meta else {}
    doc.update(kind=kind, ambient=ambient, dims=[nu, nv], data=[])
    # no JSON string holds a newline, so only the top-level key starts a
    # line with one space and "data"
    head, tail = json.dumps(doc, indent=1, sort_keys=True).split('\n "data": []', 1)
    entry = _template(coords.shape[2:], 2)
    if at_infinity is None:
        entries, values = [entry] * (nu * nv), coords
    else:
        entries = ["  null" if inf else entry for inf in at_infinity.ravel().tolist()]
        values = coords[~at_infinity]
    data = "[\n" + ",\n".join(entries) + "\n ]"
    text = f'{head}\n "data": {data % tuple(values.ravel().tolist())}{tail}\n'
    _write_text(text, target)


def read_net(source):
    """Read a net from a path, a text stream, or JSON text (a str whose
    first non-space character is { or [)."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and source.lstrip().startswith(("{", "[")):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return document_to_net(doc)


def export_obj(net, target):
    """ASCII OBJ export: one v line per vertex (affine coordinates), one quad
    f line per elementary face, vertices in row-major order."""
    grid = _grid(net)
    if grid is None or grid[0] != "point_net":
        raise InfiniteVertex(f"cannot export object of type {type(net).__name__}")
    _, ambient, coords, at_infinity = grid
    if at_infinity is None:
        if ambient != "RP3":
            raise InfiniteVertex("OBJ export needs an RP3 or E3 net")
        at_infinity = np.abs(coords[..., 3]) <= ZERO_RTOL * np.linalg.norm(coords, axis=-1)
    infinite = np.argwhere(at_infinity)
    if infinite.size:
        i, j = infinite[0]
        raise InfiniteVertex(f"vertex ({i},{j}) is at infinity")
    verts = coords[..., :3] / coords[..., 3:] if ambient == "RP3" else coords
    nu, nv = coords.shape[:2]
    corner = np.arange(nu * nv).reshape(nu, nv)[:-1, :-1].reshape(-1, 1) + 1
    faces = corner + [0, 1, nv + 1, nv]
    lines = ["v %.17g %.17g %.17g"] * (nu * nv) + ["f %d %d %d %d"] * len(faces)
    text = ("\n".join(lines) + "\n") % tuple(verts.ravel().tolist() + faces.ravel().tolist())
    _write_text(text, target)
