"""Tests of the benchmark's own arithmetic and of BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import tracing
import yardstick
from tracing import END, NAME, PARENT, START, WORK

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, parent, start, end, work=0):
    return [name, parent, start, end, 0, 0, work]


def test_covered_merges_overlapping_and_clips_to_interval():
    assert tracing.covered((0.0, 10.0), []) == 0.0
    assert tracing.covered((0.0, 10.0), [(1, 4), (3, 6)]) == 5.0
    assert tracing.covered((0.0, 10.0), [(1, 2), (2, 3), (5, 6)]) == 3.0
    assert tracing.covered((0.0, 10.0), [(2, 8), (3, 4)]) == 6.0
    assert tracing.covered((0.0, 10.0), [(-5, 1), (9, 20), (12, 14)]) == 2.0


def test_self_times_with_overlapping_children():
    spans = [
        span("bench.pass", -1, 0.0, 10.0),
        span("norms.a", 0, 1.0, 4.0),
        span("norms.b", 0, 3.0, 6.0),      # overlaps a, as from another thread
        span("fft.fftn", 1, 2.0, 3.0),
        span("spectral.c", 0, 8.0, 12.0),  # ends after its parent
    ]
    assert tracing.self_times(spans) == [10.0 - 5.0 - 2.0, 2.0, 3.0, 1.0, 4.0]


def test_self_times_of_nested_spans_add_up_to_the_root():
    spans = [
        span("bench.pass", -1, 0.0, 10.0),
        span("integrator.evolve", 0, 0.5, 9.0),
        span("fft.fftn", 1, 1.0, 2.5),
        span("harness.on_snapshot", 1, 3.0, 7.0),
        span("norms.norm_report", 3, 3.5, 6.0),
        span("fft.ifftn", 4, 4.0, 5.0),
    ]
    selfs = tracing.self_times(spans)
    assert sum(selfs) == pytest.approx(10.0)
    assert selfs == pytest.approx([1.5, 3.0, 1.5, 1.5, 1.5, 1.0])


def test_pass_metrics_split_steps_from_snapshots():
    spans = [
        span("bench.pass", -1, 0.0, 10.0),
        span("integrator.evolve", 0, 0.0, 10.0, work=4),
        span("fft.ifftn", 1, 0.0, 1.0),
        span("fft.fftn", 1, 1.0, 2.0),
        span("harness.on_snapshot", 1, 2.0, 6.0),
        span("grid.Field", 4, 2.0, 2.5, work=1),
        span("fft.fftn", 4, 3.0, 4.0),
        span("harness.on_snapshot", 1, 6.0, 8.0),
    ]
    m = tracing.pass_metrics(spans)
    assert tracing.contexts(spans) == \
        ["", "step", "step", "step", "snapshot", "snapshot", "snapshot", "snapshot"]
    assert m["integrator.step_ms"] == pytest.approx(1e3 * (10.0 - 6.0) / 4)
    assert m["fft.calls_per_step"] == pytest.approx(2 / 4)
    assert m["fft.calls_per_snapshot"] == pytest.approx(1 / 2)
    assert m["grid.field_inits_per_snapshot"] == pytest.approx(1 / 2)
    assert m["trace.self_sum_ms"] == pytest.approx(m["trace.wall_ms"])
    assert m["norms.norm_report_ms"] == 0.0


def test_tracer_wraps_calls_where_callers_look_them_up_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from gnls import norms, spectral
    from gnls.grid import Field, FourierGrid

    originals = (norms.to_spectral, spectral.to_spectral, np.fft.fftn, Field.__init__)
    u = Field(FourierGrid(1, 16, 1.0), np.ones(16))
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("bench.pass"):
        norms.gradient_sq(u)
    spans = tracer.take()
    assert (norms.to_spectral, spectral.to_spectral, np.fft.fftn, Field.__init__) \
        == originals
    names = [s[NAME] for s in spans]
    assert names[:4] == ["bench.pass", "norms.gradient_sq", "spectral.to_spectral",
                         "spectral.forward_transform"]
    fft = names.index("fft.fftn")
    assert names[spans[fft][PARENT]] == "spectral.forward_transform"
    field = names.index("grid.Field")
    assert spans[field][WORK] == 1  # the transform's output array is copied
    assert all(s[START] <= s[END] for s in spans)


def test_benchmark_names_are_well_formed_and_unique():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    for name in names + metrics:
        assert NAME_RE.fullmatch(name), name
    assert len(set(names)) == len(names)
    assert len(set(metrics)) == len(metrics)
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def test_every_workload_has_a_yardstick_round():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(yardstick.ROUNDS)
