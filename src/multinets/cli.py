"""Command-line driver: generate, verify, classify, subdivide, export.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage, IO, geometry or memory error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module

import numpy as np

from .errors import GeometryError
from .io_json import export_obj, read_net, write_net


# Each command imports the library modules it uses when it starts, before it
# draws a random number or builds an array: a stage compiles and runs only
# those modules, and their compile does not stack on numpy's allocations.


def _load(module):
    """The package module multinets.<module>, imported on first use."""
    return import_module(f".{module}", __package__)


# -- generators -------------------------------------------------------------------

_MIN_DRAW_NORM = 1e-3  # a translation net is drawn again while some p_i + q_j is shorter


def _gen_translation(rng, args):
    from .qnets import from_translation

    while True:
        p = rng.uniform(-1.0, 1.0, size=(args.nu, 4))
        q = rng.uniform(-1.0, 1.0, size=(args.nv, 4))
        s = p[:, None, :] + q[None, :, :]
        if np.min(np.linalg.norm(s, axis=-1)) > _MIN_DRAW_NORM:
            return from_translation(p, q)


def _gen_reflect(rng, args):
    from .projective import MOEBIUS
    from .quadric_nets import generate_by_reflections

    for _ in range(64):
        n1 = np.zeros((args.nu - 1, 5))
        n1[:, 0:2] = rng.uniform(-1.0, 1.0, size=(args.nu - 1, 2))
        n2 = np.zeros((args.nv - 1, 5))
        n2[:, 2:5] = rng.uniform(-1.0, 1.0, size=(args.nv - 1, 3))
        ok1 = np.all(np.linalg.norm(n1[:, 0:2], axis=-1) > 0.2)
        vals = n2[:, 2] ** 2 + n2[:, 3] ** 2 - n2[:, 4] ** 2
        ok2 = np.all(np.abs(vals) > 0.05)
        if not (ok1 and ok2):
            continue
        u = rng.normal(size=4)
        u = u / np.linalg.norm(u)
        x00 = np.concatenate([u, [1.0]])
        try:
            return generate_by_reflections(MOEBIUS, n1, n2, x00)
        except GeometryError:
            continue
    raise GeometryError("could not draw a generic mirror configuration")


def _gen_rotational(rng, args):
    from .circular import sample_rotational

    r = rng.uniform(0.5, 1.5, size=args.profile_len)
    z = np.cumsum(rng.uniform(0.2, 0.6, size=args.profile_len))
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, size=args.angles))
    while np.any(np.diff(angles) < 1e-2):  # one angle has no gap: the sampler rejects it
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, size=args.angles))
    return sample_rotational(np.stack([r, z], axis=1), angles)


def _gen_cone(rng, args):
    from .circular import sample_cone

    dirs = rng.normal(size=(args.profile_len, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    radii = np.cumsum(rng.uniform(0.3, 1.0, size=args.steps))
    return sample_cone(dirs, radii)


def _gen_cylinder(rng, args):
    from .circular import sample_cylinder

    base = rng.uniform(-1.0, 1.0, size=(args.profile_len, 2))
    offsets = np.cumsum(rng.uniform(0.3, 1.0, size=args.steps))
    return sample_cylinder(base, offsets)


def _gen_qqstar(rng, args):
    from .projective import ProjLine, span_rank
    from .qnets import build_qqstar_net

    while True:
        pts = rng.uniform(-1.0, 1.0, size=(4, 4))
        try:
            line1 = ProjLine(pts[0], pts[1])
            line2 = ProjLine(pts[2], pts[3])
        except GeometryError:
            continue
        if span_rank(pts) < 4:
            continue
        t1 = rng.uniform(-1.0, 1.0, size=(args.nu - 1, 2))
        t2 = rng.uniform(-1.0, 1.0, size=(args.nv - 1, 2))
        y1 = t1 @ np.stack([line1.a, line1.b])
        y2 = t2 @ np.stack([line2.a, line2.b])
        x00 = rng.uniform(-1.0, 1.0, size=4)
        try:
            return build_qqstar_net(line1, line2, y1, y2, x00)
        except GeometryError:
            continue


def _gen_cyclide_patch(rng, args):
    from .subdivision import adapted_cyclide_patch

    big, small = 2.0, 0.5
    u0, du = rng.uniform(0.0, np.pi), rng.uniform(0.5, 1.2)
    v0, dv = rng.uniform(-0.6, 0.2), rng.uniform(0.5, 1.2)
    corners, p_arc, q_arc = _torus_patch_data(big, small, u0, u0 + du, v0, v0 + dv)
    return adapted_cyclide_patch(*corners, p_arc, q_arc, args.n)


def _gen_congruence(rng, args):
    from .congruences import hyperboloid_ruling_grid, torus_contact_grid

    if args.form == "lie":
        us = np.sort(rng.uniform(0.0, 2 * np.pi, size=args.nu))
        vs = np.sort(rng.uniform(-1.0, 1.0, size=args.nv))
        return torus_contact_grid(2.0, 0.5, us, vs)
    a = np.sort(rng.uniform(-2.0, 2.0, size=args.nu))
    b = np.sort(rng.uniform(-2.0, 2.0, size=args.nv))
    return hyperboloid_ruling_grid(a, b)


def _torus_patch_data(big, small, u0, u1, v0, v1):
    """Corners x00, x10, x01, x11 (4, 3) of a torus patch plus the two
    curvature-circle arcs at x00."""
    from .circular import torus_point, torus_u_tangent, torus_v_tangent
    from .subdivision import CircArc

    u, v = np.array([u0, u1, u0, u1]), np.array([v0, v0, v1, v1])
    corners = torus_point(big, small, u, v)
    p_arc = CircArc(corners[0], corners[1], torus_u_tangent(u0, v0))
    q_arc = CircArc(corners[0], corners[2], torus_v_tangent(u0, v0))
    return corners, p_arc, q_arc


# what -> (module whose import loads every module the generator uses, generator)
_GEN = {
    "translation": ("qnets", _gen_translation),
    "reflect": ("quadric_nets", _gen_reflect),
    "rotational": ("circular", _gen_rotational),
    "cone": ("circular", _gen_cone),
    "cylinder": ("circular", _gen_cylinder),
    "qqstar": ("qnets", _gen_qqstar),
    "cyclide-patch": ("subdivision", _gen_cyclide_patch),
    "congruence": ("congruences", _gen_congruence),
}


def _cmd_gen(args) -> int:
    module, generate = _GEN[args.what]
    _load(module)
    rng = np.random.default_rng(args.seed)
    net = generate(rng, args)
    write_net(net, args.output or sys.stdout, {"generator": args.what, "seed": args.seed})
    return 0


# -- verify and classify ------------------------------------------------------------


# command -> what -> (module.name of the expected net type, module.name of the
# function of the net); the function's module imports the type's
_COMMANDS = {
    "verify": {
        "q": ("qnets.PointNet", "qnets.q_violations"),
        "multi-q": ("qnets.PointNet", "qnets.multi_q_violations"),
        "qstar": ("qnets.PlaneNet", "qnets.qstar_violations"),
        "multi-qstar": ("qnets.PlaneNet", "qnets.multi_qstar_violations"),
        "circular": ("circular.EuclidNet", "circular.circular_violations"),
        "multi-circular": ("circular.EuclidNet", "circular.multi_circular_violations"),
        "conical": ("qnets.PlaneNet", "conical.conical_violations"),
        "multi-conical": ("qnets.PlaneNet", "conical.multi_conical_violations"),
        "congruence": ("congruences.IsoLineGrid", "congruences.multi_congruence_violations"),
    },
    "classify": {
        "circular": ("circular.EuclidNet", "circular.classify_multi_circular"),
        "gauss": ("circular.EuclidNet", "conical.classify_gauss"),
        "congruence": ("congruences.IsoLineGrid", "congruences.classify_congruence"),
    },
}


def _resolve(dotted):
    """The object multinets.<module>.<name> that dotted names, importing
    the module on first use."""
    module, name = dotted.split(".")
    return getattr(_load(module), name)


class _UsageError(Exception):
    """A request the command cannot serve; main reports it and exits 2."""


def _apply_to_input(args):
    """The command's function applied to the input net, once the net is
    of the kind that function expects."""
    expected, function = map(_resolve, _COMMANDS[args.command][args.what])
    net = read_net(args.input or sys.stdin)
    if not isinstance(net, expected):
        raise _UsageError(f"'{args.what}' expects a {expected.__name__}, got {type(net).__name__}")
    return function(net)


def _cmd_verify(args) -> int:
    violations = _apply_to_input(args)
    if not violations:
        print(f"ok: {args.what}")
        return 0
    for where, residual in violations:
        print(f"violation at {where}: residual {residual}")
    return 1


def _cmd_classify(args) -> int:
    print(_apply_to_input(args))
    return 0


# -- subdivide ----------------------------------------------------------------------


def _load_arcs(doc_list):
    from .subdivision import CircArc

    return [CircArc(a["start"], a["end"], a["tangent"]) for a in doc_list]


def _cmd_subdivide(args) -> int:
    if (args.nu is None) != (args.nv is None):
        raise _UsageError("--nu and --nv must be given together")
    from . import subdivision
    from .circular import EuclidNet
    from .qnets import PointNet

    net = read_net(args.input or sys.stdin)
    n = args.n if args.nu is None else (args.nu, args.nv)
    if args.scheme == "q" and not isinstance(net, PointNet):
        raise _UsageError("scheme q expects a point net")
    if args.scheme == "circular":
        if not isinstance(net, EuclidNet):
            raise _UsageError("scheme circular expects an E3 net")
        if not args.seeds:
            raise _UsageError("scheme circular requires --seeds FILE")
    raw = None
    if args.seeds:
        with open(args.seeds, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    if args.scheme == "q":
        seeds = None if raw is None else {k: np.asarray(raw[k], dtype=float) for k in ("u", "v")}
        out = subdivision.subdivide_q(net, n, rounds=args.rounds, seeds=seeds)
    else:
        out = subdivision.subdivide_circular(
            net, n, _load_arcs(raw["row0"]), _load_arcs(raw["col0"]), rounds=args.rounds
        )
    write_net(out, args.output or sys.stdout)
    return 0


# -- export -------------------------------------------------------------------------


def _cmd_export(args) -> int:
    export_obj(read_net(args.input or sys.stdin), args.output or sys.stdout)
    return 0


# -- argument parsing -----------------------------------------------------------------


def _count(text):
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="multinets", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a net")
    g.add_argument("what", choices=sorted(_GEN))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--nu", type=_count, default=5)
    g.add_argument("--nv", type=_count, default=5)
    g.add_argument("--profile-len", type=_count, default=5)
    g.add_argument("--angles", type=_count, default=8)
    g.add_argument("--steps", type=_count, default=5)
    g.add_argument("--n", type=_count, default=4)
    g.add_argument("--form", choices=["lie", "pluecker"], default="lie")
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen)

    v = sub.add_parser("verify", help="verify a net property")
    v.add_argument("what", choices=sorted(_COMMANDS["verify"]))
    v.add_argument("-i", "--input")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("classify", help="classify a net")
    c.add_argument("what", choices=list(_COMMANDS["classify"]))
    c.add_argument("-i", "--input")
    c.set_defaults(func=_cmd_classify)

    s = sub.add_parser("subdivide", help="structure-preserving subdivision")
    s.add_argument("--scheme", choices=["q", "circular"], required=True)
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--nu", type=int, help="per-direction count (first direction)")
    s.add_argument("--nv", type=int, help="per-direction count (second direction)")
    s.add_argument("--rounds", type=int, default=1, help="refine by n**rounds, in one round (default 1)")
    s.add_argument("--seeds", help="JSON file with seed polylines or arcs")
    s.add_argument("-i", "--input")
    s.add_argument("-o", "--output")
    s.set_defaults(func=_cmd_subdivide)

    e = sub.add_parser("export", help="export a mesh")
    e.add_argument("--format", choices=["obj"], default="obj")
    e.add_argument("-i", "--input")
    e.add_argument("-o", "--output")
    e.set_defaults(func=_cmd_export)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
