"""multinets benchmark: four closed-loop, single-client workloads.

Usage, from the root of a source checkout (the package is run from ``src/``,
not installed):

    python3 perfbench/run.py --workload multiq-verify --seed 1 --seconds 20 --trace 0

Workloads: multiq-verify, classify-mix, subdivide-roundtrip, cli-pipeline
(see workloads.py and BENCHMARK.json for why each exists).

``--trace 0`` runs ops back to back until they have taken ``--seconds`` and
the op schedule has completed a cycle, and reports the end-to-end metrics:
setup_s (time of fresh interpreters that ``import multinets``), ops_per_s,
latency_p50_ms, latency_p90_ms and peak_rss_mb; all but peak_rss_mb are
scaled to a reference machine speed measured in the same run (see ``Speed``
and ``SetupTimer``).  ``--trace 1`` runs a fixed number of ops
per workload (``TRACED_OPS``, so counts repeat exactly for a seed) twice,
untraced and then traced, and reports calls, self_ms and total_ms per traced
library function, work counters, per-stage CLI wall times, the share of
traced wall time covered by traced self time, and the tracing overhead.

Every op is checked against ground truth; an op that raises or disagrees
counts as failed and is reported with its seed, index and size, and the run
goes on.  ``--tiny`` runs a few ops (``TINY_OPS``) at the smallest sizes,
for the benchmark's own tests.
Human-readable lines come first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, metric_specs, summarize

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SETUP_SAMPLES = 15
WARMUP_SEED = 2**32 - 1  # inputs of the untimed warm-up op
CAL_REF_S = 0.002  # calibration kernel time at the reference speed
CAL_GAP_S = 0.2  # timed op seconds between two calibration kernel samples
START_REF_S = 0.15  # start kernel time at the reference speed
START_GAP_S = 1.0  # timed op seconds between two start kernel samples
CAL_MIN_SAMPLES = 9


def calibration_kernel(mats):
    """Fixed work that never touches multinets: small row-normalized SVDs and a
    Python loop, the two costs that dominate the library's hot paths."""
    acc = 0.0
    for m in mats:
        s = np.linalg.svd(m / np.linalg.norm(m, axis=-1, keepdims=True), compute_uv=False)
        acc += float(s[-1] / s[0])
    for i in range(4000):
        acc += (i * i) % 7
    return acc


def fresh_python(code, env, cwd):
    """Wall time (s) of a fresh interpreter running ``code``.  Its output goes
    to pipes: without them ``subprocess`` waits for the child by polling in
    steps of up to 50 ms, which rounds every sample up to a step."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, check=True, capture_output=True, timeout=60
    )
    return time.perf_counter() - start


class Speed:
    """Speed of the machine during a run, from a reference kernel timed
    between ops.

    On a shared machine the same ops run up to 40% faster or slower from one
    run to the next, and the kernels slow down with them.  ``scale`` converts
    times measured in the run to a reference speed, at which the kernel takes
    ``ref_s``; the benchmark code never changes between the runs compared, so
    the scale holds no part of the program's own cost.  In-process ops follow
    ``calibration_kernel``; ops that start interpreters follow the start
    kernel, a fresh interpreter that imports numpy (and not multinets).
    """

    def __init__(self, kernel, ref_s, gap_s):
        self.kernel, self.ref_s, self.gap_s = kernel, ref_s, gap_s
        self.next_at = 0.0
        self.times = []

    def sample(self):
        self.times.append(self.kernel())

    def between_ops(self, busy_s):
        if busy_s >= self.next_at:
            self.sample()
            self.next_at = busy_s + self.gap_s

    def scale(self):
        while len(self.times) < CAL_MIN_SAMPLES:
            self.sample()
        return self.ref_s / statistics.median(self.times)


class SetupTimer:
    """Wall time (s) of fresh interpreters running ``import multinets``, at
    reference speed.

    Each sample is paired with one of the start kernel (``import numpy``),
    alternating which runs first, and ``setup_s`` is ``START_REF_S`` times the
    median ratio of the two.  Import time drifts with machine load over
    seconds, so the pairs are spread over the whole run (``between_ops``).
    The first, discarded, sample also writes the bytecode cache.
    """

    def __init__(self, env, cwd, samples, seconds):
        self.env, self.cwd, self.samples = env, cwd, samples
        self.gap = seconds / samples
        self.pairs = []
        fresh_python("import multinets", env, cwd)
        self.next_at = 0.0

    def sample(self):
        codes = ["import multinets", "import numpy"]
        if len(self.pairs) % 2:
            codes.reverse()
        times = dict((code, fresh_python(code, self.env, self.cwd)) for code in codes)
        self.pairs.append((times["import multinets"], times["import numpy"]))

    def between_ops(self, busy_s):
        if busy_s >= self.next_at and len(self.pairs) < self.samples:
            self.sample()
            self.next_at += self.gap

    def value(self):
        while len(self.pairs) < self.samples:
            self.sample()
        return START_REF_S * statistics.median(own / ref for own, ref in self.pairs)

    def wall(self):
        return statistics.median(own for own, _ in self.pairs)


def machine_block():
    blas = lapack = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = "{name} {version}".format(**deps["blas"])
        lapack = "{name} {version}".format(**deps["lapack"])
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "lapack": lapack,
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Pass:
    """Latencies, failures and a verdict digest over one sequence of ops."""

    def __init__(self):
        self.latency_s = []
        self.kinds = []
        self.busy_s = 0.0
        self.failures = []
        self.digest = hashlib.sha256()

    def execute(self, where, op):
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 - a failed op must not stop the run
            err = f"raised {type(exc).__name__}: {exc}"
        else:
            err = None
        self.latency_s.append(time.perf_counter() - start)
        self.busy_s += self.latency_s[-1]
        self.kinds.append(f"{op.kind} {op.size}")
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # noqa: BLE001
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            self.failures.append(f"op {where} {op.kind} {op.size}: {err}")
        self.digest.update(repr((where, op.kind, op.size, err)).encode())


def run_ops(make, seed, ctx, count=None, seconds=None, cycle=1, tracer=None, between_ops=None):
    """Run ops 0, 1, ... until ``count`` ops, or until the timed ops add up to
    ``seconds`` and the op schedule is at the end of a ``cycle``; every run
    then measures the same amount and mix of work."""
    done = Pass()
    k = 0
    while count is None or k < count:
        if seconds is not None and k % cycle == 0 and k > 0 and done.busy_s >= seconds:
            break
        if between_ops is not None:
            between_ops(done.busy_s)
        op = make(seed, k, ctx)
        if tracer is not None:
            tracer.op = k
        done.execute(f"k={k} seed=[{seed}, {k}]", op)
        k += 1
    return done


def percentile_ms(latency_s, q):
    cuts = statistics.quantiles(latency_s, n=100, method="inclusive")
    return 1e3 * cuts[q - 1]


def end_to_end(args, make, ctx, env, count, cycle):
    setup = SetupTimer(env, ctx.workdir, SETUP_SAMPLES, args.seconds)
    in_process = args.workload != "cli-pipeline"
    if in_process:
        mats = np.random.default_rng(0).standard_normal((64, 4, 5))

        def kernel():
            start = time.perf_counter()
            calibration_kernel(mats)
            return time.perf_counter() - start

        speed = Speed(kernel, CAL_REF_S, CAL_GAP_S)
    else:
        speed = Speed(lambda: fresh_python("import numpy", env, ctx.workdir), START_REF_S, START_GAP_S)

    def between_ops(busy_s):
        setup.between_ops(busy_s)
        speed.between_ops(busy_s)

    done = run_ops(
        make, args.seed, ctx, count=count, seconds=args.seconds,
        cycle=cycle, between_ops=between_ops,
    )
    scale = speed.scale()
    n = len(done.latency_s)
    lat = done.latency_s if n > 1 else done.latency_s * 2
    setup_s = setup.value()  # takes any samples the run left out
    raw = {
        "setup_s": setup.wall(),
        "ops_per_s": n / done.busy_s,
        "latency_p50_ms": percentile_ms(lat, 50),
        "latency_p90_ms": percentile_ms(lat, 90),
    }
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * scale, "ms"),
        "latency_p90_ms": (raw["latency_p90_ms"] * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    notes = {name: f"wall {value:.6g}" for name, value in raw.items()}
    notes["setup_s"] += f", median of {SETUP_SAMPLES} fresh imports"
    notes["latency_p50_ms"] += f", n={n}"
    notes["latency_p90_ms"] += f", n={n}, {n - int(0.9 * n)} beyond"
    which = "calibration" if in_process else "start"
    print(
        f"speed: {which} kernel median {1e3 * speed.ref_s / scale:.4f} ms over "
        f"{len(speed.times)} samples; ops_per_s and latencies below are wall figures "
        f"scaled by {scale:.4f} to the reference speed ({1e3 * speed.ref_s:g} ms)"
    )
    return done, [done], metrics, notes


def traced(args, make, ctx, count):
    plain = run_ops(make, args.seed, ctx, count=count)
    stage_ms, ctx.stage_ms = ctx.stage_ms, {}
    tracer = Tracer()
    if args.workload == "cli-pipeline":
        ctx.tracer = tracer  # stages run under traced_cli.py and hand back their spans
        done = run_ops(make, args.seed, ctx, count=count, tracer=tracer)
    else:
        with tracer:
            done = run_ops(make, args.seed, ctx, count=count, tracer=tracer)
    out_dir = HERE / "out"
    tracer.dump(out_dir / f"spans-{args.workload}.tsv")

    rows = summarize(tracer.spans)
    metrics = {}
    for name, unit in metric_specs():
        head, _, field = name.rpartition(".")
        if head.startswith("cli."):
            value = sum(stage_ms.get(head[4:], []))
        elif head != "trace":
            row = rows.get(head, {})
            value = row.get(field if field in ("calls", "self_ms", "total_ms") else "work", 0)
        metrics[name] = (value, unit)
    self_total_ms = sum(row["self_ms"] for row in rows.values())
    metrics["trace.self_cover_frac"] = (self_total_ms / (1e3 * done.busy_s), "ratio")
    metrics["trace.overhead_ratio"] = (done.busy_s / plain.busy_s, "ratio")
    notes = {"trace.overhead_ratio": f"traced {done.busy_s:.3f} s / untraced {plain.busy_s:.3f} s"}
    return done, [plain, done], metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest input sizes, few ops (tests)")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "multinets" / "__init__.py").is_file():
        print(f"error: no multinets sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # imports multinets from src/
    from workloads import CYCLE_OPS, TINY_OPS, TRACED_OPS, WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(root=str(ROOT), tiny=args.tiny, workdir=str(workdir), env=env, stage_ms={})
    make = WORKLOADS[args.workload]
    try:
        if args.workload != "cli-pipeline":
            Pass().execute("warm-up", make(WARMUP_SEED, 0, ctx))  # lazy init; discarded
        if args.trace:
            count = (TINY_OPS if args.tiny else TRACED_OPS)[args.workload]
            done, passes, metrics, notes = traced(args, make, ctx, count)
        else:
            count = TINY_OPS[args.workload] if args.tiny else None
            done, passes, metrics, notes = end_to_end(args, make, ctx, env, count, CYCLE_OPS[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latency_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    print("machine " + json.dumps(machine_block(), sort_keys=True))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops attempted, "
        f"{len(failures)} failed, failed_frac {len(failures) / attempted:.4g}"
    )
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:48s} {value:14.6g} {unit:6s} {note}")
    by_kind = {}
    for kind, lat in zip(done.kinds, done.latency_s):
        by_kind.setdefault(kind, []).append(lat)
    for kind, lats in sorted(by_kind.items()):
        print(f"  op {kind:46s} n={len(lats):<5d} median {1e3 * statistics.median(lats):10.3f} ms")
    for line in failures:
        print("FAILED " + line)
    print("verdicts sha256:" + done.digest.hexdigest())
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
