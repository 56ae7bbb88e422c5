"""Tests of the benchmark itself: span arithmetic, input generation, and a
tiny workload of each API run through the full measurement path.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Span, Tracer, layer_self_times, self_times  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

TINY_LEO = {"name": "leo", "orbits": 6, "sats_per_orbit": 6, "altitude_km": 550.0,
            "inclination_deg": 53.0, "gamma": 10.0}
TINY = {
    "runner": dataclasses.replace(
        WORKLOADS["paper_ideal_delivery"], name="tiny_runner", shells=(TINY_LEO,), slots=2,
        grid=(2, 2), algorithms=("no_replica", "naive_greedy", "mtols", "mtls"),
        policies=("closest", "weighted_round_robin")),
    "library": dataclasses.replace(
        WORKLOADS["multishell_catalog"], name="tiny_library", slots=2, contents=3,
        shells=({"orbit_count": 6, "sats_per_orbit": 6, "altitude_km": 550.0,
                 "inclination_deg": 53.0, "name": "leo"}, "viasat"), gammas=(10.0, 2.0),
        requests_per_slot=40.0),
}


def nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    return [Span(0, None, "scenario.run", 0.0, 10.0),
            Span(1, 0, "costmodel.oracle", 1.0, 4.0, {"mib": 8.0, "rss_growth_mib": 9.0}),
            Span(2, 1, "costmodel.c_qmin", 2.0, 3.0),
            Span(3, 0, "placement.mtls", 5.0, 9.0,
                 {"iterations": 3, "dp_relaxations": 10, "orbit_relaxations": 0}),
            Span(4, 3, "costmodel.eval", 6.0, 6.5)]


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        assert self_times(nested_spans()) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.5, 4: 0.5}

    def test_layer_self_times_add_up_to_root(self):
        layers = layer_self_times(nested_spans())
        assert layers == {"scenario": 3.0, "costmodel": 3.5, "placement": 3.5}
        assert sum(layers.values()) == 10.0

    def test_layer_without_spans_is_absent_not_zero(self):
        metrics = run.layer_metrics(nested_spans())
        assert "delivery.self_s" not in metrics
        assert "constellation.snapshots_s" not in metrics
        assert metrics["placement.mtls_s"] == 4.0

    def test_tracer_records_parents_in_call_order(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap(lambda x: x + 1, "costmodel.eval")
        outer = tracer.wrap(lambda x: inner(x) * 2, lambda args, kwargs: f"placement.a{args[0]}")
        assert outer(3) == 8
        assert [(s.id, s.parent, s.name) for s in tracer.spans] == \
            [(0, None, "placement.a3"), (1, 0, "costmodel.eval")]
        assert self_times(tracer.spans) == {0: 2.0, 1: 1.0}


class TestGenerate:
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_same_seed_same_bytes_other_seed_or_draw_differs(self, tmp_path, name):
        def files(seed, draw):
            generate(WORKLOADS[name], seed, draw, tmp_path)
            return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        first = files(1, 0)
        assert files(1, 0) == first
        assert files(2, 0)["trace.csv"] != first["trace.csv"]
        assert files(1, 1)["trace.csv"] != first["trace.csv"]


class TestBenchmarkFile:
    def test_matches_code(self):
        doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
            [(w.name, w.why) for w in WORKLOADS.values()]
        assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.COMMON_LAYER)

    def test_refuses_to_run_without_sources(self, tmp_path):
        shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper_hop_mtls",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""


@pytest.mark.parametrize("api", list(TINY))
def test_tiny_workload_emits_every_metric(tmp_path, api):
    w = TINY[api]
    metrics, children, _ = run.measure(w, 3, 0.0, 0, probes=1, work_root=tmp_path)
    assert all(metrics[name] is not None for name, _ in run.END_TO_END)
    assert all(ok for _, ok, _ in run.check_children(children))

    metrics, children, _ = run.measure(w, 3, 0.0, 1, work_root=tmp_path)
    expected = [name for name, _ in run.expected_layer_metrics(w)]
    assert [n for n in expected if metrics.get(n) is None] == []
    ops = run.check_children(children)
    assert {name.split(".", 1)[1] for name, _, _ in ops if name.startswith("draw")} == \
        {"self_times_sum", "traced_matches_untraced"}
    assert all(ok for _, ok, _ in ops), [op for op in ops if not op[1]]
    assert list(tmp_path.glob("spans/*.json"))
