"""Outside-in span tracer for the multinets benchmark.

The tracer wraps the public functions listed in ``LAYERS`` and rebinds each
wrapper in every ``multinets.*`` namespace that holds the original object,
including module-level dicts whose values are (or contain) it.  Modules bind
kernels with ``from .projective import span_rank``, so wrapping only the
defining module would miss every intra-package call.

Spans are kept in memory as ``(name, parent, op, start, end, work)`` tuples
and written out when the benchmark ends; ``summarize`` turns them into
per-function ``calls``, ``self_ms`` and ``total_ms`` plus the work counters
named in ``COUNTERS``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from math import comb

# Layer (package module) -> public functions timed at its boundary.
LAYERS = {
    "projective": [
        "span_rank",
        "common_point_of_spans",
        "span_ranks",
        "polar_reflect",
        "meet_lines",
        "intersect_spans",
    ],
    "qnets": [
        "multi_q_violations",
        "multi_qstar_violations",
        "all_pairs_perspectivity",
        "laplace_transforms",
        "translation_gauge",
        "laplace_gauge",
    ],
    "circular": [
        "lift_net",
        "invert_net",
        "multi_circular_violations",
        "classify_multi_circular",
    ],
    "conical": [
        "multi_conical_violations",
        "is_multi_conical",
        "parallel_conical_net",
        "classify_gauss",
    ],
    "congruences": ["factor_congruence", "classify_congruence"],
    "quadric_nets": ["generate_by_reflections"],
    "subdivision": [
        "subdivide_q",
        "attach_edge_polylines",
        "adapted_q_patch",
        "subdivide_circular",
    ],
    "io_json": ["write_net", "read_net", "export_obj"],
}

# CLI subcommands whose per-stage wall time the cli-pipeline workload reports.
CLI_COMMANDS = ["gen", "verify", "classify", "subdivide", "export"]


def _rects_checked(net, *args, **kwargs) -> int:
    nu, nv = net.dims
    return comb(nu, 2) * comb(nv, 2)


def _matrices(stacks, *args, **kwargs) -> int:
    return len(stacks)


# Work counters recorded at the same boundary as the span: name -> (counter, fn).
COUNTERS = {
    "projective.span_ranks": ("matrices", _matrices),
    "qnets.multi_q_violations": ("rects_checked", _rects_checked),
    "qnets.multi_qstar_violations": ("rects_checked", _rects_checked),
    "circular.multi_circular_violations": ("rects_checked", _rects_checked),
    "conical.multi_conical_violations": ("rects_checked", _rects_checked),
}


def traced_names():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for name in traced_names():
        specs += [
            (f"{name}.calls", "count"),
            (f"{name}.self_ms", "ms"),
            (f"{name}.total_ms", "ms"),
        ]
        if name in COUNTERS:
            specs.append((f"{name}.{COUNTERS[name][0]}", "count"))
    specs += [(f"cli.{cmd}.wall_ms", "ms") for cmd in CLI_COMMANDS]
    specs += [("trace.self_cover_frac", "ratio"), ("trace.overhead_ratio", "ratio")]
    return specs


class Tracer:
    """Records one span per call of each function in ``LAYERS``.

    Single-threaded: the open-span stack gives each span its parent.  Set
    ``op`` before each benchmark operation so its spans share an id.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._rebound = []  # (container, key, original) to restore

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name, (None, None))[1]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            work = counter(*args, **kwargs) if counter else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, self.op, start, end, work)

        return traced

    def install(self):
        """Wrap every listed function that exists and rebind it everywhere."""
        importlib.import_module("multinets")
        namespaces = [
            vars(mod)
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "multinets" or key.startswith("multinets."))
        ]
        for mod_name, fns in LAYERS.items():
            module = importlib.import_module(f"multinets.{mod_name}")
            for fn_name in fns:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue  # a later refactor removed it; it reports 0 calls
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for ns in namespaces:
                    self._rebind(ns, original, wrapper)

    def _rebind(self, ns, original, wrapper):
        for key, val in list(ns.items()):
            if val is original:
                self._rebound.append((ns, key, val))
                ns[key] = wrapper
            elif isinstance(val, dict) and not key.startswith("__"):
                for dkey, dval in list(val.items()):
                    if dval is original:
                        self._rebound.append((val, dkey, dval))
                        val[dkey] = wrapper
                    elif isinstance(dval, tuple) and any(x is original for x in dval):
                        self._rebound.append((val, dkey, dval))
                        val[dkey] = tuple(wrapper if x is original else x for x in dval)

    def uninstall(self):
        while self._rebound:
            container, key, val = self._rebound.pop()
            container[key] = val

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path):
        """Write spans as tab-separated lines: id, name, parent, op, start_s,
        end_s, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, op, start, end, work) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{parent}\t{op}\t{start!r}\t{end!r}\t{work}\n")

    def load(self, path, op):
        """Append spans dumped by another process, re-tagged with ``op``."""
        base = len(self.spans)
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                _, name, parent, _, start, end, work = line.rstrip("\n").split("\t")
                parent = int(parent)
                self.spans.append(
                    (
                        name,
                        parent + base if parent >= 0 else -1,
                        op,
                        float(start),
                        float(end),
                        int(work),
                    )
                )


def summarize(spans):
    """Per-function calls, self_ms, total_ms and work counter sums.

    Self time is a span's duration minus the durations of its direct child
    spans, which nest inside it on a single thread.
    """
    child_time = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for sid, (name, _, _, start, end, work) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "work": 0})
        row["calls"] += 1
        row["total_ms"] += 1e3 * (end - start)
        row["self_ms"] += 1e3 * (end - start - child_time[sid])
        row["work"] += work
    return out
