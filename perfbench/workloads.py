"""The four benchmark workloads.

Each workload maps (seed, op index) to one ``Op``: its inputs are drawn from
``numpy.random.default_rng([seed, k])`` before the op is timed, ``run`` makes
the library calls that are timed, and ``check`` compares the result with the
ground truth known from the construction (``None`` when it matches).

The op schedule within a workload is a fixed cycle, so the mix of sizes and
kinds, and with it every percentile, is the same for every seed; the seed
only changes the geometry.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from multinets import circular, conical, congruences, io_json, qnets, subdivision
from multinets.projective import sphere_rep

from tracing import Tracer


@dataclass
class Op:
    kind: str
    size: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass
class Context:
    """What an op may need from the harness besides its inputs."""

    root: str
    tiny: bool
    workdir: str = ""
    env: dict = None
    tracer: Tracer = None  # set while the cli-pipeline pass is traced
    stage_ms: dict = None  # cli command -> list of stage wall times (ms)


def op_rng(seed: int, k: int):
    return np.random.default_rng([seed, k])


def _mismatch(names, got, want):
    bad = [f"{n}={g!r} (want {w!r})" for n, g, w in zip(names, got, want) if g != w]
    return "; ".join(bad) or None


# -- multiq-verify ----------------------------------------------------------------
# Sizes cycle so that 70% of ops are n=7, 25% n=11 and 5% n=16: p50 falls among
# the n=7 ops and p90 among the n=11 ops, never on a boundary between sizes.

MULTIQ_SIZES = [7, 7, 11, 7, 7, 7, 11, 7, 7, 7, 11, 7, 7, 7, 11, 7, 7, 11, 7, 16]
MULTIQ_TINY = [4, 5, 4, 6]
MULTIQ_CHECKS = (
    "is_q_net",
    "is_multi_q_net",
    "neighbor_perspectivity",
    "all_pairs_perspectivity",
    "laplace_transforms_degenerate",
    "is_translation_net",
    "is_multi_qstar(dual)",
)


def _translation_points(rng, nu, nv):
    while True:
        p = rng.uniform(-1.0, 1.0, (nu, 4))
        q = rng.uniform(-1.0, 1.0, (nv, 4))
        pts = p[:, None, :] + q[None, :, :]
        if np.min(np.linalg.norm(pts, axis=-1)) > 1e-3:
            return p, q


def _generic_q_points(rng, n):
    """Q-net by the Laplace recursion x11 = a x10 + b x01 - c x00 with random
    coefficients; each vertex is renormalized as it is built, which keeps the
    coordinates O(1) at n = 16.  Generic, so not multi-Q."""
    pts = np.empty((n, n, 4))
    pts[0, :] = rng.uniform(-1.0, 1.0, (n, 4))
    pts[1:, 0] = rng.uniform(-1.0, 1.0, (n - 1, 4))
    for i in range(1, n):
        for j in range(1, n):
            a, b, c = rng.uniform(0.3, 1.5, 3)
            x = a * pts[i, j - 1] + b * pts[i - 1, j] - c * pts[i - 1, j - 1]
            pts[i, j] = x / np.linalg.norm(x)
    return pts


def multiq_op(seed, k, ctx):
    sizes = MULTIQ_TINY if ctx.tiny else MULTIQ_SIZES
    n = sizes[k % len(sizes)]
    multi = (k + k // len(sizes)) % 2 == 0
    rng = op_rng(seed, k)
    if multi:
        p, q = _translation_points(rng, n, n)
    else:
        pts = _generic_q_points(rng, n)

    def run():
        net = qnets.from_translation(p, q) if multi else qnets.PointNet(pts)
        return (
            qnets.is_q_net(net),
            qnets.is_multi_q_net(net),
            qnets.neighbor_perspectivity(net),
            qnets.all_pairs_perspectivity(net),
            qnets.laplace_transforms_degenerate(net),
            qnets.is_translation_net(net),
            qnets.is_multi_qstar(qnets.dualize_point_net(net)),
        )

    want = (True,) + (multi,) * 6
    kind = "translation" if multi else "generic-q"
    return Op(kind, f"{n}x{n}", run, lambda got: _mismatch(MULTIQ_CHECKS, got, want))


# -- classify-mix -------------------------------------------------------------------

# One 20-op cycle.  Sorted by latency the kinds form clusters: Gauss and plain
# circular classification (0-30% of ops, 2-4 ms), Moebius images and polar
# strips (30-70%, 5-5.5 ms), the polar stereographic grid (70-75%), rotational
# polar nets (75-85%, about 29 ms), congruences (85-95%, 31-33 ms) and parallel
# conical nets (top 5%).  So p50 and p90 each fall in the middle of a cluster.
CLASSIFY_CYCLE = [
    "gauss-strip", "circular-rotational", "moebius-rotational", "conical-polar-strip",
    "congruence-lie", "moebius-cone", "gauss-stereographic", "circular-cone",
    "moebius-cylinder", "conical-polar-rotational", "moebius-rotational", "congruence-pluecker",
    "conical-polar-strip", "gauss-rotational", "circular-cylinder", "conical-parallel",
    "moebius-cone", "conical-polar-rotational", "moebius-cylinder", "conical-polar-stereographic",
]
GAUSS_CLASS = {
    "rotational": conical.GaussClass.REVOLUTION,
    "stereographic": conical.GaussClass.STEREOGRAPHIC_GRID,
    "strip": conical.GaussClass.SYMMETRIC_STRIP,
}


def _spaced(rng, start_lo, start_hi, step_lo, step_hi, count):
    return rng.uniform(start_lo, start_hi) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(step_lo, step_hi, count - 1))]
    )


def _euclid_sample(rng, shape):
    if shape == "rotational":
        prof = np.stack(
            [rng.uniform(0.5, 1.5, 5), np.cumsum(rng.uniform(0.2, 0.5, 5))], axis=1
        )
        return circular.sample_rotational(prof, _spaced(rng, 0.0, 1.0, 0.3, 1.2, 4))
    if shape == "cone":
        gen = rng.normal(size=(4, 3))
        gen /= np.linalg.norm(gen, axis=-1, keepdims=True)
        return circular.sample_cone(gen, np.cumsum(rng.uniform(0.3, 1.0, 5)))
    gen = rng.uniform(-1.0, 1.0, (5, 2))
    return circular.sample_cylinder(gen, np.cumsum(rng.uniform(0.3, 1.0, 4)))


def _s2_sample(rng, shape):
    if shape == "rotational":
        return conical.sample_s2_rotational(
            _spaced(rng, 0.4, 0.6, 0.35, 0.55, 4), _spaced(rng, 0.0, 1.0, 0.5, 0.9, 5)
        )
    if shape == "stereographic":
        return conical.sample_s2_stereographic(
            _spaced(rng, -1.2, -0.8, 0.4, 0.8, 4), _spaced(rng, -0.2, 0.2, 0.4, 0.8, 3)
        )
    up = rng.normal(size=(5, 3))
    up[:, 2] = np.abs(up[:, 2]) + 0.3
    return conical.sample_s2_symmetric_strip(up / np.linalg.norm(up, axis=1, keepdims=True))


def _polar_planes(net):
    p = net.points
    return qnets.PlaneNet(np.concatenate([p, np.ones(p.shape[:2] + (1,))], axis=-1))


def _label(result):
    eig = np.concatenate([np.ravel(e) for e in result.eigenvalues])
    return result.kind if np.all(np.isfinite(eig)) else "non-finite eigenvalues"


def classify_op(seed, k, ctx):
    kind = CLASSIFY_CYCLE[k % len(CLASSIFY_CYCLE)]
    rng = op_rng(seed, k)
    family, _, shape = kind.partition("-")
    if family == "circular":
        net = _euclid_sample(rng, shape)
        want = circular.NetClass(shape)

        def run():
            return _label(circular.classify_multi_circular(net))

    elif family == "moebius":
        # Mirror spheres keep the image's distance from the origin below
        # about 600 times its extent.  Beyond about 2000 times (a small
        # sphere far away), classify_multi_circular answers DEGENERATE on
        # some valid nets, presumably through float64 cancellation: a known
        # library defect, pinned by test_perfbench.py::test_known_defect_*.
        net = _euclid_sample(rng, shape)
        center = np.array([4.0, 4.0, 4.0]) + rng.uniform(-1, 1, 3)
        mirror = sphere_rep(center, rng.uniform(1.0, 2.0))
        want = circular.NetClass(shape)

        def run():
            return _label(circular.classify_multi_circular(circular.invert_net(mirror, net)))

    elif kind.startswith("conical-polar-"):
        net = _s2_sample(rng, kind.rpartition("-")[2])
        want = True

        def run():
            return conical.is_multi_conical(conical.polarize_spherical(net))

    elif kind == "conical-parallel":
        net = _polar_planes(_s2_sample(rng, "rotational"))
        nu, nv = net.dims
        d_row = 1 + 0.25 * rng.uniform(-1, 1, nu)
        d_col = 1 + 0.25 * rng.uniform(-1, 1, nv)
        d_col[0] = d_row[0]
        want = True

        def run():
            return conical.is_multi_conical(conical.parallel_conical_net(net, d_row, d_col))

    elif family == "gauss":
        net = _s2_sample(rng, shape)
        want = GAUSS_CLASS[shape]

        def run():
            return _label(conical.classify_gauss(net))

    elif kind == "congruence-lie":
        net = congruences.torus_contact_grid(
            2.0, 0.5, _spaced(rng, 0.0, 1.0, 0.3, 0.8, 6), _spaced(rng, -1.2, -0.8, 0.25, 0.45, 6)
        )
        want = congruences.CongruenceClass.DUPIN_CYCLIDE

        def run():
            return _label(congruences.classify_congruence(net))

    else:
        net = congruences.hyperboloid_ruling_grid(
            _spaced(rng, -2.0, -1.5, 0.3, 0.8, 6), _spaced(rng, -2.0, -1.5, 0.3, 0.8, 6)
        )
        want = congruences.CongruenceClass.HYPERBOLOID

        def run():
            return _label(congruences.classify_congruence(net))

    size = "x".join(map(str, net.dims))
    return Op(kind, size, run, lambda got: None if got == want else f"got {got!r}, want {want!r}")


# -- subdivide-roundtrip ------------------------------------------------------------

# (scheme, grid size, n, rounds) per op, in a 10-op cycle.  By latency: circular
# 4x4 (0-30% of ops), circular 3x3 two rounds (30-70%), Q 8x8 (70-80%), Q 4x4
# two rounds (80-100%), so p50 and p90 each fall in the middle of one case.
C4, C3, Q8, Q4 = ("circular", 4, 3, 1), ("circular", 3, 2, 2), ("q", 8, 3, 1), ("q", 4, 3, 2)
SUBDIVIDE_CASES = [C4, C3, Q4, C3, C4, C3, Q8, C4, C3, Q4]
SUBDIVIDE_TINY = [("q", 3, 2, 1), ("q", 4, 2, 1), ("circular", 3, 2, 1), ("circular", 3, 3, 1)]


def _affine_q_points(rng, n):
    """Q-net in the affine chart w = 1: each new vertex is an affine
    combination of its three predecessors, so every quad is planar, convex
    and finite, but rectangles are not (not multi-Q)."""
    pts = np.ones((n, n, 4))
    pts[0, :, :3] = np.stack([np.arange(n), np.zeros(n), np.zeros(n)], axis=1)
    pts[:, 0, :3] = np.stack([np.zeros(n), np.arange(n), np.zeros(n)], axis=1)
    pts[0, 1:, :3] += rng.uniform(-0.2, 0.2, (n - 1, 3))
    pts[1:, 0, :3] += rng.uniform(-0.2, 0.2, (n - 1, 3))
    for i in range(1, n):
        for j in range(1, n):
            x00, x10, x01 = pts[i - 1, j - 1, :3], pts[i, j - 1, :3], pts[i - 1, j, :3]
            al, be = rng.uniform(0.8, 1.2, 2)
            pts[i, j, :3] = x00 + al * (x10 - x00) + be * (x01 - x00)
    return pts


def _torus(big, small, u, v):
    w = big + small * np.cos(v)
    return np.array([w * np.cos(u), w * np.sin(u), small * np.sin(v)])


def _torus_grid(rng, n):
    big, small = 2.0, 0.5
    us = _spaced(rng, 0.0, np.pi, 0.4, 0.7, n)
    vs = _spaced(rng, -0.9, -0.4, 0.4, 0.6, n)
    pts = np.array([[_torus(big, small, u, v) for v in vs] for u in us])
    row = [
        subdivision.CircArc(
            pts[i, 0], pts[i + 1, 0], np.array([-np.sin(us[i]), np.cos(us[i]), 0.0])
        )
        for i in range(n - 1)
    ]
    col = [
        subdivision.CircArc(
            pts[0, j],
            pts[0, j + 1],
            np.array(
                [-np.sin(vs[j]) * np.cos(us[0]), -np.sin(vs[j]) * np.sin(us[0]), np.cos(vs[j])]
            ),
        )
        for j in range(n - 1)
    ]
    return pts, row, col


def _face_flatness(rows):
    """Largest sigma_min / sigma_max over stacks of 4 row-normalized vectors."""
    rows = rows / np.linalg.norm(rows, axis=-1, keepdims=True)
    s = np.linalg.svd(rows, compute_uv=False)
    return float(np.max(s[:, -1] / s[:, 0]))


def _elementary_quads(p):
    return np.stack([p[:-1, :-1], p[1:, :-1], p[:-1, 1:], p[1:, 1:]], axis=2).reshape(
        -1, 4, p.shape[-1]
    )


def _check_subdivision(coarse, stride, fine, back, obj, concyclic):
    nu, nv = coarse.shape[:2]
    p = fine.points
    if p.shape[:2] != ((nu - 1) * stride + 1, (nv - 1) * stride + 1):
        return f"fine dims {p.shape[:2]}"
    if not np.all(np.isfinite(p)):
        return "non-finite fine vertex"
    if not np.array_equal(p[::stride, ::stride], coarse):
        return "input vertices not reproduced bit-identically at stride"
    quads = _elementary_quads(p)
    if concyclic:
        # concyclic <=> the lifts (x, |x|^2, 1) span rank 3
        sq = np.sum(quads * quads, axis=-1, keepdims=True)
        quads = np.concatenate([quads, sq, np.ones_like(sq)], axis=-1)
    flat = _face_flatness(quads)
    if flat > 1e-8:
        return f"elementary face residual {flat:.2e}"
    if type(back) is not type(fine) or not np.array_equal(back.points, p):
        return "write_net/read_net round trip changed the net"
    return _check_obj(obj, p.shape[0], p.shape[1])


def _check_obj(text, nu, nv):
    lines = text.splitlines()
    verts = sum(1 for ln in lines if ln.startswith("v "))
    faces = sum(1 for ln in lines if ln.startswith("f "))
    if (verts, faces) != (nu * nv, (nu - 1) * (nv - 1)):
        return f"OBJ has {verts} vertices and {faces} faces"
    return None


def _roundtrip(fine):
    buf = io.StringIO()
    io_json.write_net(fine, buf)
    back = io_json.read_net(buf.getvalue())
    obj = io.StringIO()
    io_json.export_obj(fine, obj)
    return fine, back, obj.getvalue()


def subdivide_op(seed, k, ctx):
    cases = SUBDIVIDE_TINY if ctx.tiny else SUBDIVIDE_CASES
    scheme, size, n, rounds = cases[k % len(cases)]
    rng = op_rng(seed, k)
    if scheme == "q":
        pts = _affine_q_points(rng, size)

        def run():
            return _roundtrip(subdivision.subdivide_q(qnets.PointNet(pts), n, rounds=rounds))

    else:
        pts, row, col = _torus_grid(rng, size)

        def run():
            return _roundtrip(
                subdivision.subdivide_circular(circular.EuclidNet(pts), n, row, col, rounds=rounds)
            )

    def check(out):
        return _check_subdivision(pts, n**rounds, *out, concyclic=scheme == "circular")

    return Op(f"{scheme}-n{n}-r{rounds}", f"{size}x{size}", run, check)


# -- cli-pipeline -------------------------------------------------------------------

CLI_CHAINS = ["gen-verify", "gen-classify-circular", "gen-subdivide-export", "gen-classify-congruence"]


def run_cli(ctx, args):
    """One ``multinets`` CLI stage in a fresh interpreter; returns
    (exit code, stdout, stderr).  Its wall time goes to ``ctx.stage_ms``."""
    cmd = [sys.executable, "-m", "multinets.cli", *args]
    spans = None
    if ctx.tracer is not None:
        spans = os.path.join(ctx.workdir, "stage.spans")
        cmd = [sys.executable, os.path.join(ctx.root, "perfbench", "traced_cli.py"), spans, *args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ctx.env, cwd=ctx.workdir, timeout=120)
    ctx.stage_ms.setdefault(args[0], []).append(1e3 * (time.perf_counter() - start))
    if spans is not None and os.path.exists(spans):
        ctx.tracer.load(spans, ctx.tracer.op)
        os.remove(spans)
    return proc.returncode, proc.stdout, proc.stderr


def cli_op(seed, k, ctx):
    chain = CLI_CHAINS[k % len(CLI_CHAINS)]
    cli_seed = str(int(op_rng(seed, k).integers(0, 2**31 - 1)))
    net, fine, obj = f"op{k}-net.json", f"op{k}-fine.json", f"op{k}-fine.obj"
    if chain == "gen-verify":
        n = "5" if ctx.tiny else "7"
        stages = [
            ["gen", "translation", "--nu", n, "--nv", n, "--seed", cli_seed, "-o", net],
            ["verify", "multi-q", "-i", net],
        ]
        expect, size = "ok: multi-q", f"{n}x{n}"
    elif chain == "gen-classify-circular":
        stages = [
            ["gen", "rotational", "--seed", cli_seed, "-o", net],
            ["classify", "circular", "-i", net],
        ]
        expect, size = "rotational ", "8x5"
    elif chain == "gen-subdivide-export":
        rounds = 1 if ctx.tiny else 2
        stages = [
            ["gen", "translation", "--nu", "4", "--nv", "4", "--seed", cli_seed, "-o", net],
            ["subdivide", "--scheme", "q", "--n", "3", "--rounds", str(rounds), "-i", net, "-o", fine],
            ["export", "--format", "obj", "-i", fine, "-o", obj],
        ]
        expect, size = None, "4x4"
    else:
        stages = [
            ["gen", "congruence", "--form", "pluecker", "--seed", cli_seed, "-o", net],
            ["classify", "congruence", "-i", net],
        ]
        expect, size = "hyperboloid ", "5x5"

    def run():
        outs = []
        for args in stages:  # stop at the first failing stage
            outs.append((args[0], *run_cli(ctx, args)))
            if outs[-1][1] != 0:
                break
        return outs

    def check(outs):
        try:
            for cmd, rc, _, err in outs:
                if rc != 0:
                    return f"stage {cmd} exited {rc}: {err.strip()[-200:]}"
            cmd, _, out, _ = outs[-1]
            if expect is not None:
                return None if out.startswith(expect) else f"{cmd} printed {out!r}"
            side = 3**rounds * 3 + 1
            with open(os.path.join(ctx.workdir, obj), encoding="utf-8") as fh:
                return _check_obj(fh.read(), side, side)
        finally:
            for name in (net, fine, obj):
                if os.path.exists(os.path.join(ctx.workdir, name)):
                    os.remove(os.path.join(ctx.workdir, name))

    return Op(chain, size, run, check)


WORKLOADS = {
    "multiq-verify": multiq_op,
    "classify-mix": classify_op,
    "subdivide-roundtrip": subdivide_op,
    "cli-pipeline": cli_op,
}

# Length of the op schedule's cycle.  A run timed by --seconds stops only at a
# cycle boundary, so every run measures the same mix of sizes and kinds.
# multiq-verify alternates its kinds over two passes of MULTIQ_SIZES.
CYCLE_OPS = {
    "multiq-verify": 2 * len(MULTIQ_SIZES),
    "classify-mix": len(CLASSIFY_CYCLE),
    "subdivide-roundtrip": len(SUBDIVIDE_CASES),
    "cli-pipeline": len(CLI_CHAINS),
}

# Ops in a traced run: whole cycles, a fixed count per workload, so that call
# and work counts repeat exactly for a seed.  Each pass takes 3-8 s on a
# 2-core box.
TRACED_OPS = {
    "multiq-verify": 40,
    "classify-mix": 200,
    "subdivide-roundtrip": 30,
    "cli-pipeline": 8,
}

# Ops in a --tiny run (the benchmark's own tests): one cycle of the tiny
# sizes, or of the kinds where that is cheap; two CLI chains.
TINY_OPS = {"multiq-verify": 4, "classify-mix": 20, "subdivide-roundtrip": 4, "cli-pipeline": 2}
