"""Tests of the benchmark's own accounting.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import bench  # noqa: E402
import tracer  # noqa: E402
from diamrisk import analysis, optimizer, params, risk  # noqa: E402
from diamrisk.data import gen_gaussian_blobs  # noqa: E402
from diamrisk.mlp import MlpLossModel, MlpSpec, init_params  # noqa: E402


@pytest.fixture
def traced():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _small_problem():
    spec = MlpSpec(input_dim=3, hidden_dims=(4,), num_classes=2)
    data = gen_gaussian_blobs(2, 12, 3, 4.0, seed=0)
    return MlpLossModel(spec), init_params(spec, np.random.default_rng(0)), data


def test_nested_self_time_excludes_children_on_the_same_thread():
    spans = [
        (0, None, "outer", 1, 0.0, 10.0, None),
        (1, 0, "mid", 1, 2.0, 5.0, None),
        (2, 1, "inner", 1, 3.0, 4.0, None),
        (3, 0, "worker", 2, 1.0, 9.0, None),  # another thread: not subtracted
    ]
    totals = tracer.layer_totals(spans, batch_rows=30)
    assert totals["outer"]["self_s"] == pytest.approx(7.0)
    assert totals["outer"]["incl_s"] == pytest.approx(10.0)
    assert totals["mid"]["self_s"] == pytest.approx(2.0)
    assert totals["inner"]["self_s"] == pytest.approx(1.0)
    assert totals["worker"]["self_s"] == pytest.approx(8.0)


def test_live_self_time_is_inclusive_minus_children(traced):
    model, w, data = _small_problem()
    risk.diametrical_risk_sampled(model, w, 0.5, params.NormKind.EUCLIDEAN, 4, data, rng=0)
    (outer,) = [s for s in traced.spans if s[2] == "risk.diametrical_risk_sampled"]
    children = sum(s[5] - s[4] for s in traced.spans if s[1] == outer[0])
    totals = tracer.layer_totals(traced.spans, batch_rows=30)
    assert totals["risk.diametrical_risk_sampled"]["self_s"] == pytest.approx(outer[5] - outer[4] - children)
    assert totals["risk.diametrical_risk_sampled"]["items"] == 4
    # Twelve rows is at most a batch: the batch bucket.
    assert (totals["mlp.batch_nll.batch"]["calls"], totals["mlp.batch_nll.batch"]["items"]) == (4, 48)


def test_function_bound_in_several_modules_is_counted_once_per_call(traced):
    assert risk.sample_sphere is params.sample_sphere is optimizer.sample_sphere is analysis.sample_sphere
    model, w, data = _small_problem()
    risk.diametrical_risk_sampled(model, w, 0.5, params.NormKind.EUCLIDEAN, 5, data, rng=0)
    analysis.sample_directions(w, 0.5, params.NormKind.EUCLIDEAN, 3, 0)
    params.sample_sphere(w, 0.5, params.NormKind.EUCLIDEAN, np.random.default_rng(0))
    names = [s[2] for s in traced.spans]
    assert names.count("params.sample_sphere") == 5 + 3 + 1


def test_uninstall_restores_every_binding():
    before = (risk.sample_sphere, analysis.landscape_histogram, params.ParamVector.__init__)
    t = tracer.Tracer()
    t.install()
    assert risk.sample_sphere is not before[0]
    t.uninstall()
    assert (risk.sample_sphere, analysis.landscape_histogram, params.ParamVector.__init__) == before


def test_pool_thread_spans_attach_to_their_histogram(traced):
    model, w, data = _small_problem()
    analysis.landscape_histogram(
        model, w, 0.5, params.NormKind.EUCLIDEAN, 16, data, rng=np.random.default_rng(0), max_workers=2
    )
    (hist,) = [s for s in traced.spans if s[2] == tracer.FANOUT]
    workers = [s for s in traced.spans if s[3] != hist[3] and s[2] in tracer.EVALUATION]
    assert len(workers) == 2 * 16
    assert all(s[1] == hist[0] for s in workers)
    assert threading.get_ident() == hist[3]
    assert traced.workers[hist[0]] == 2
    assert 0.0 <= tracer.worker_idle_frac(traced.spans, traced.workers) < 1.0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(bench.workloads.WORKLOADS)
