"""Tests of the benchmark itself: tiny runs of every workload, span arithmetic, output contract.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_is_duration_minus_union_of_children():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping) and [9, 12] (overrunning);
    # the first child has a grandchild [1.5, 2]
    starts = [0.0, 1.0, 1.5, 2.0, 9.0]
    ends = [10.0, 3.0, 2.0, 5.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert tracing.self_times(starts, ends, parents) == pytest.approx([5.0, 1.5, 0.5, 3.0, 3.0])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run_checks_outputs_and_nests_spans(name, tmp_path):
    workload = workloads.build(name, seed=3, scratch=tmp_path, tiny=True)
    tracer, fits = tracing.Tracer(), tracing.FitCounter()
    try:
        tally = run.run_traced(workload, 0.0, tracer, fits, tracing)
    finally:
        workload.close()
    assert tally.failures == []
    assert tally.attempted == 2 * len(workload.ops)

    selfs = tracing.self_times(tracer.starts, tracer.ends, tracer.parents)
    for i, p in enumerate(tracer.parents):
        assert selfs[i] >= -1e-12
        if p >= 0:
            assert tracer.starts[p] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[p]
    stats = tracing.summarize(tracer)
    root = stats[tracing.ROOT_SPAN]
    assert root.calls == len(workload.ops)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(root.total_s, rel=1e-9)

    metrics = tracing.layer_metrics(stats, fits, sum(tally.paired_untraced))
    assert list(metrics) == list(tracing.PER_LAYER_UNITS)
    fits_per_op = metrics["tomography.reconstruct_mle.calls"]
    if name.startswith("gen-"):
        assert fits_per_op == 5  # main fit + 2 resamples for each of two functionals
    else:
        assert fits_per_op == 0 and metrics["tomography.reconstruct_mle.self_pct"] == 0


def test_failed_operations_are_counted_not_dropped():
    def boom():
        raise RuntimeError("broken")

    ops = [
        workloads.Op("ok", lambda: 1, lambda out: None),
        workloads.Op("raises", boom, lambda out: None),
        workloads.Op("wrong", lambda: 1, lambda out: "wrong value"),
        workloads.Op("bad-check", lambda: 1, lambda out: 1 / 0),
    ]
    fake = workloads.Workload("fake", ops, lambda: None)
    tally = run.run_untraced(fake, 0.0, tracing.FitCounter(), tracing, run.SpeedProbe())
    assert (tally.attempted, tally.failed) == (4, 3)


def test_same_seed_same_inputs():
    facts = [workloads.build("scan-tritter", seed, Path("."), tiny=True).facts for seed in (5, 5, 6)]
    assert facts[0] == facts[1] != facts[2]


def _checkout(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--seed", "2", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_reports_declared_metrics(tmp_path, trace, section):
    done = _run(_checkout(tmp_path, True), "--workload", "multiport", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:
        assert f"\n{name} " in "\n" + done.stdout


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    done = _run(_checkout(tmp_path, False), "--workload", "scan-tritter", "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout
