"""Checks of the benchmark itself; not part of the tier-1 suite.

Run from the repository root::

    python -m pytest perf -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, Tuple

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import speed  # noqa: E402
from run import E2E, PER_LAYER  # noqa: E402
from spans import Span, covered_ns, self_time_ns, serve_layers, train_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args: str) -> Tuple[int, Dict[str, Any]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_runner_measures():
    benchmark = _benchmark()
    assert {entry["name"] for entry in benchmark["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == E2E
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(workload: str, trace: int):
    code, result = _run("--workload", workload, "--trace", str(trace))
    assert code == 0 and result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", ["serve-hot", "train-molecules"])
def test_a_tampered_expected_output_fails_the_run(workload: str):
    code, result = _run("--workload", workload, "--tamper")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def _write_set(folder: Any, values: Dict[int, float]) -> str:
    folder.mkdir()
    runs = [
        {
            "workload": "serve-hot", "seed": seed, "trace": 0,
            "smoke": False, "correct": True,
            "metrics": {"peak_rss_mb": {"value": value, "unit": "MB"}},
        }
        for seed, value in values.items()
    ]
    (folder / "runs.json").write_text(json.dumps({"env": {}, "runs": runs}))
    return str(folder)


def test_compare_flags_a_20_percent_regression_and_passes_a_5_percent_wobble(
    tmp_path: Any,
):
    bound = compare.load_bounds()["peak_rss_mb"]["bound"]
    assert 0.05 < bound < 0.2
    base = {seed: 100.0 + (seed % 3 - 1) for seed in range(10)}
    base_dir = _write_set(tmp_path / "base", base)
    slow_dir = _write_set(
        tmp_path / "slow", {seed: value * 1.2 for seed, value in base.items()}
    )
    wobble = {
        seed: value * (1.05 if seed % 2 else 0.96) for seed, value in base.items()
    }
    wobble_dir = _write_set(tmp_path / "wobble", wobble)

    assert compare.verdict(
        list(base.items()), [(s, v * 1.2) for s, v in base.items()], "lower", bound
    )[0] == "regressed"
    assert compare.verdict(
        list(base.items()), list(wobble.items()), "lower", bound
    )[0] == "unchanged"
    assert compare.main([base_dir, slow_dir]) == 1
    assert compare.main([base_dir, wobble_dir]) == 0


def test_speed_reads_restore_affinity_and_scale_times(tmp_path: Any):
    before = os.sched_getaffinity(0)
    assert speed.cpu_speed(min(before)) > 0
    assert os.sched_getaffinity(0) == before
    assert speed.scale(10.0, 0.5, 1.5) == 10.0

    with speed.Sampler([min(before)], str(tmp_path)) as sampler:
        start = time.perf_counter_ns()
        time.sleep(0.5)
        end = time.perf_counter_ns()
    (samples,) = sampler.samples.values()
    assert len(samples) >= 3
    assert sampler.speed(start, end) > 0
    # Before the first sample: the nearest sample stands in.
    assert sampler.speed(start - 10**9, start - 10**9 + 1) > 0


def test_self_time_and_coverage_on_a_synthetic_span_tree():
    fit = Span(1, None, "train.fit", 0, 100, 0, None)
    enumeration = Span(2, 1, "enumeration", 10, 40, 0, None)
    fill = Span(3, 1, "engine.fill", 30, 60, 0, None)  # overlaps enumeration
    run = Span(4, 3, "runtime.run", 35, 55, 0, None)
    linsep = Span(5, 1, "linsep", 90, 120, 0, None)  # ends after the fit
    load = Span(6, None, "data.load", -5, 0, None, None)

    assert covered_ns(0, 100, [(10, 40), (30, 60), (90, 120)]) == 60
    assert self_time_ns(fit, [enumeration, fill, linsep]) == 40
    assert self_time_ns(fill, [run]) == 10

    layers = train_layers([fit, enumeration, fill, run, linsep, load])
    assert layers["fits"] == 1
    assert layers["coverage"] == [pytest.approx(0.6)]
    assert layers["layers"]["runtime.run"] == [pytest.approx(20e-6)]
    assert layers["layers"]["data.load"] == [pytest.approx(5e-6)]


def test_gateway_attribution_on_a_synthetic_request():
    ms = 1_000_000
    spans = [
        # Waited idle on the keep-alive connection before the request came.
        Span(1, None, "gateway.read_head", 50 * ms, 110 * ms, 7, None),
        Span(2, None, "gateway.read_body", 110 * ms, 112 * ms, 7, None),
        Span(3, None, "gateway.submit", 115 * ms, 190 * ms, 7, None),
        Span(4, None, "gateway.lane", 120 * ms, 180 * ms, "b1", None),
        Span(5, 4, "serve.predict_batch", 121 * ms, 179 * ms, "b1", 1),
        Span(6, None, "gateway.json_response", 191 * ms, 195 * ms, 7, None),
    ]
    layers = serve_layers(spans, {7: "b1"}, {7: (100 * ms, 200 * ms)})
    assert layers["requests"] == 1
    assert layers["gateway.http_ms"] == pytest.approx(16.0)
    assert layers["gateway.batch_wait_ms"] == pytest.approx(15.0)
    assert layers["gateway.unattributed_ms"] == pytest.approx(9.0)
    assert layers["trace.coverage"] == pytest.approx(0.91)
    assert layers["serve.batch_size"] == 1.0
