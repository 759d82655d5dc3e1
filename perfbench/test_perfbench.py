"""Tests of the benchmark itself: tracer wiring, exact repeat of counts and
verdicts, the metric names and units it prints, refusal to run without the
package sources, and the library defect that bounds classify-mix's inputs.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from tracing import LAYERS, Tracer, summarize  # noqa: E402
from workloads import TINY_OPS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_FIELDS = (".calls", ".matrices", ".rects_checked")


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc):
    return next(ln for ln in proc.stdout.splitlines() if ln.startswith("verdicts sha256:"))


def assert_all_ops_pass(proc, result):
    failed = [ln for ln in proc.stdout.splitlines() if ln.startswith("FAILED ")]
    assert failed == []
    assert result["failed"] == 0
    assert result["correct"] is True


def test_tracer_sees_every_intra_package_call():
    """Ten criterion-1 translation ops at n = 7: the tracer's call counts equal
    an independent count of the original functions' frames, so calls bound
    by ``from .projective import ...`` are seen too."""
    from multinets import qnets

    originals = {}
    for mod, fns in LAYERS.items():
        module = importlib.import_module(f"multinets.{mod}")
        for fn in fns:
            originals[getattr(module, fn).__code__] = f"{mod}.{fn}"
    frames = dict.fromkeys(originals.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in originals:
            frames[originals[frame.f_code]] += 1

    rng = np.random.default_rng(2026)
    nets = [
        qnets.from_translation(rng.uniform(-1, 1, (7, 4)), rng.uniform(-1, 1, (7, 4)))
        for _ in range(10)
    ]
    kernel_before = qnets.span_rank
    tracer = Tracer()
    with tracer:
        assert qnets.span_rank is not kernel_before
        sys.setprofile(profile)
        try:
            for net in nets:
                assert qnets.is_multi_q_net(net)
                assert qnets.neighbor_perspectivity(net)
                assert qnets.all_pairs_perspectivity(net)
                assert qnets.laplace_transforms_degenerate(net)
                assert qnets.is_translation_net(net)
        finally:
            sys.setprofile(None)
    assert qnets.span_rank is kernel_before
    rows = summarize(tracer.spans)
    calls = {name: rows.get(name, {}).get("calls", 0) for name in frames}
    print({k: v for k, v in calls.items() if v})
    assert calls == frames
    assert calls["projective.span_rank"] > 0
    assert calls["projective.common_point_of_spans"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_verdicts_repeat_exactly(workload):
    args = ["--workload", workload, "--seed", "7", "--trace", "1", "--tiny"]
    first, second = run_bench(*args), run_bench(*args)
    a, b = last_json(first), last_json(second)
    assert_all_ops_pass(first, a)
    assert_all_ops_pass(second, b)
    assert a["attempted"] == 2 * TINY_OPS[workload]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, m["unit"]) for name, m in a["metrics"].items()
    ]
    counts = {k: v["value"] for k, v in a["metrics"].items() if k.endswith(COUNT_FIELDS)}
    assert counts == {k: b["metrics"][k]["value"] for k in counts}
    assert sum(counts.values()) > 0
    assert digest(first) == digest(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "60", "--trace", "0", "--tiny")
    result = last_json(proc)
    assert_all_ops_pass(proc, result)
    assert result["attempted"] == TINY_OPS[workload]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, m["unit"]) for name, m in result["metrics"].items()
    ]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"{result['failed']} failed, failed_frac" in proc.stdout


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "multiq-verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# A rotational net and a mirror sphere (radius 0.7 at distance about 14) on
# which classify_multi_circular misclassifies the Moebius image.  The image's
# distance from the origin is about 3400 times its extent; classify-mix draws
# its mirrors so that this ratio stays below about 600 (workloads.py).
MOEBIUS_DEGENERATE_CASE = {
    "profile": [
        [0.5666212920051233, 0.2983822310598113],
        [0.5854955307838813, 0.5045576847920225],
        [1.0925327888375045, 0.9552592877808612],
        [1.3041848394403814, 1.2895293501455627],
        [1.4689792649328894, 1.5384788563877922],
    ],
    "angles": [0.5677055560020319, 1.0460987672292852, 1.6020151991962297, 2.2286022170100033],
    "center": [7.185494930133253, 7.840152269329421, 8.760964204554119],
    "radius": 0.699543344103885,
}


@pytest.mark.xfail(
    strict=True,
    reason="known defect: classify_multi_circular answers DEGENERATE on a valid Moebius "
    "image far from the origin; when this passes, widen classify-mix's mirror spheres",
)
def test_known_defect_moebius_image_far_from_origin():
    from multinets import circular
    from multinets.projective import sphere_rep

    case = MOEBIUS_DEGENERATE_CASE
    net = circular.sample_rotational(np.array(case["profile"]), np.array(case["angles"]))
    assert circular.classify_multi_circular(net).kind == circular.NetClass.ROTATIONAL
    mirror = sphere_rep(np.array(case["center"]), case["radius"])
    image = circular.invert_net(mirror, net)
    assert circular.classify_multi_circular(image).kind == circular.NetClass.ROTATIONAL
