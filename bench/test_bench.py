"""Self-tests for the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from yaxter import entangle, suite, verify  # noqa: E402
from yaxter.verify import ResidualReport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _same(a, b) -> bool:
    return json.dumps(a, default=repr) == json.dumps(b, default=repr)


def _inputs(name: str, seed: int, count: int) -> list:
    return list(itertools.islice(workloads.WORKLOADS[name].stream(seed), count))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    n = 2 * workloads.WORKLOADS[name].round
    assert _same(_inputs(name, 7, n), _inputs(name, 7, n))
    assert not _same(_inputs(name, 7, n), _inputs(name, 8, n))


def test_sweep_grid_has_one_locus_point():
    for inp in _inputs("sweep", 3, 12):
        on = 1.0 if inp.spec.family.value == "eight1" else 0.0
        assert len(inp.values) == workloads.SWEEP_POINTS
        assert [k for k, v in enumerate(inp.values) if v == on] == [inp.locus]


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_scan_check_rejects_nan_and_zero_samples():
    scan = workloads.WORKLOADS["scan"]
    inp = _inputs("scan", 1, 1)[0]
    good = ResidualReport(residual=1e-14, tolerance=1e-9, worst_case={"x": 0})
    nan = ResidualReport(residual=float("nan"), tolerance=1e-9, worst_case={"x": 0})
    empty = ResidualReport(residual=-1.0, tolerance=1e-9, worst_case=None)
    assert scan.check(inp, (good, good, good)) is None
    assert "not finite" in scan.check(inp, (good, nan, good))
    assert "no sample" in scan.check(inp, (empty, good, good))
    assert empty.passed  # the program's own verdict would accept the empty scan


def test_sweep_check_rejects_wrong_labels():
    sweep = workloads.WORKLOADS["sweep"]
    inp = _inputs("sweep", 2, 1)[0]
    out = sweep.run(inp)
    assert sweep.check(inp, out) is None
    k = inp.locus
    for label in ("entangling", "unknown"):
        planted = list(out)
        planted[k] = planted[k]._replace(label=label)
        assert "expected not-entangling" in sweep.check(inp, planted)
    planted = list(out)
    planted[(k + 1) % len(out)] = planted[(k + 1) % len(out)]._replace(label="not-entangling")
    assert "expected entangling" in sweep.check(inp, planted)
    planted = list(out)
    planted[k] = planted[k]._replace(h_fd=planted[k].h_fd + 1e-6)
    assert "Hamiltonian" in sweep.check(inp, planted)


def test_suite_check_rejects_a_failed_criterion():
    s = workloads.WORKLOADS["suite"]
    code, stdout = s.run(5)
    assert s.check(5, (code, stdout)) is None
    doc = json.loads(stdout)
    doc["criteria"][3]["pass"] = False
    assert "criteria [4] fail" in s.check(5, (0, json.dumps(doc)))
    assert "seed" in s.check(6, (code, stdout))


def test_tracer_rebinds_every_name_and_restores():
    import yaxter

    modules = [m for n, m in sys.modules.items() if n == "yaxter" or n.startswith("yaxter.")]
    originals = {(layer, fn): getattr(sys.modules[f"yaxter.{layer}"], fn)
                 for layer, fns in tracing.TRACED.items() for fn in fns}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for m in modules:
            for value in vars(m).values():
                items = value if isinstance(value, list) else [value]
                assert not any(any(item is o for o in originals.values()) for item in items)
        assert yaxter.build_R is not originals[("baxterize", "build_R")]
    finally:
        tracer.uninstall()
    assert verify.build_R is originals[("baxterize", "build_R")]
    assert suite.CRITERIA[0] is originals[("suite", "criterion_braid")]
    assert entangle.apply is originals[("entangle", "apply")]


@pytest.mark.parametrize("name", ["scan", "sweep"])
def test_traced_op_counts_match_the_workload_definition(name):
    w = workloads.WORKLOADS[name]
    inp = _inputs(name, 4, 1)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        out = w.run(inp)
    finally:
        tracer.uninstall()
    assert w.check(inp, out) is None
    expected = w.expected_counts(inp)
    assert expected
    for span, within, count in expected:
        assert tracer.op_counts(0, span, within) == count
    metrics = tracing.layer_metrics(tracer, 1)
    assert set(metrics) | {"trace.overhead_p50_ms", "trace.count_mismatches"} == \
        {n for n, _ in tracing.PER_LAYER}
    if name == "scan":
        assert metrics["entangle.classify.calls"] == 0
        assert metrics["baxterize.build_R.calls"] == 8 * workloads.SCAN_SAMPLES
    else:
        assert metrics["entangle.witness_hit_ratio"] == 1 - 1 / workloads.SWEEP_POINTS


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_end_to_end_run_prints_every_metric(trace):
    code, lines = _run("--workload", "sweep", "--seed", "9", "--seconds", "2", "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    assert report["machine"]["nproc"] >= 1 and report["seed"] == 9
    assert report["probe_median_ms"] > 0 and report["wall"]["op_p50_ms"] > 0
    if trace == "1":
        assert result["metrics"]["trace.count_mismatches"]["value"] == 0
        assert report["count_checks"] > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    code, lines = _run("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=tmp_path)
    assert code != 0 and lines == []


def test_tail_is_the_op_with_ten_beyond_it():
    lat = run.latency([float(t) for t in range(40, 0, -1)])
    assert lat["tail_ms"] == 30.0 and lat["tail_percentile"] == 75.0 and lat["ops"] == 40
    assert np.isclose(lat["p50_ms"], 20.5)


def test_tail_is_at_most_the_90th_percentile():
    lat = run.latency([float(t) for t in range(1, 1001)])
    assert lat["tail_ms"] == 900.0 and lat["tail_percentile"] == 90.0 and lat["ops"] == 1000
