"""The names the benchmark under bench/ reaches into the package by.

bench/ is read here, never changed: its tracer wraps module attributes by
name, its clock times two entry points, and its config module builds a
RunConfig from each workload spec. A rename in the package that breaks any
of these fails here instead of in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from bankfair import bankruptcy, reranker
from bankfair.harness import RunConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    # bench/ modules import each other by bare name ("import speed").
    names = ("speed", "tracing", "config", "workloads")
    sys.path.insert(0, str(BENCH))
    try:
        yield {name: importlib.import_module(name) for name in names}
    finally:
        sys.path.remove(str(BENCH))
        for name in names:
            sys.modules.pop(name, None)


def test_every_wrapped_name_resolves_to_a_callable(bench_modules):
    for layer, owner, attr in bench_modules["tracing"].WRAPPED:
        assert callable(getattr(owner, attr, None)), f"{layer}: {owner!r}.{attr}"


def test_clock_entry_points_exist():
    # bench/run.py times plan_interval and run_interval through speed.Clock.
    assert callable(bankruptcy.plan_interval)
    assert callable(reranker.run_interval)


@pytest.mark.parametrize("name", ["wide_catalog", "long_tail", "replay_log"])
def test_workload_specs_build_run_configs(bench_modules, tmp_path, name):
    workload = bench_modules["workloads"].make(name, 0, tmp_path)
    cfg = bench_modules["config"].build_config(workload.spec)
    assert isinstance(cfg, RunConfig)
    assert cfg.rerank.list_size == cfg.policy.list_size == workload.spec["K"]


def test_every_traced_serve_layer_is_called(bench_modules):
    # The tracer replaces module attributes; a layer the serve loop or
    # plan_interval reaches by another name would read 0 in every traced run.
    from bankfair import FairnessPolicy, RerankConfig, SynthConfig, harness
    cfg = RunConfig(policy=FairnessPolicy([20.0] * 4, 0.9, 5),
                    rerank=RerankConfig(list_size=5, eta=0.01),
                    synth=SynthConfig(num_items=30, num_providers=4, num_intervals=3,
                                      mean_traffic=10, list_size=5),
                    forecaster="oracle", seed=1)
    tracer = bench_modules["tracing"].Tracer()
    tracer.install()
    try:
        tracer.run(harness.run, cfg)
    finally:
        tracer.uninstall()
    called = {span[1] for span in tracer.spans}
    for name in ("reranker.select", "reranker.dual_step", "reranker.conjugate",
                 "reranker.top_k", "reranker.serve", "metrics.ndcg", "bankruptcy.plan",
                 "bankruptcy.talmud"):
        assert name in called, name


@pytest.mark.parametrize("source", ["synth", "log", "log_relevance_bin"])
def test_traced_relevance_bytes_are_the_instance_matrix(bench_modules, tmp_path, source):
    # domain.relevance_mb adds up the nbytes of the distinct relevance arrays
    # the requests hold. Row views of the one instance matrix add up to its
    # nbytes; a build that copied rows, or a view per arrival, would not.
    import os
    from bankfair import FairnessPolicy, RerankConfig, SynthConfig, harness
    from bankfair.domain import RELEVANCE_FILE, load_interactions, save_instance, synth_instance
    synth = SynthConfig(num_items=30, num_providers=3, num_intervals=3, traffic=[4, 0, 5],
                        list_size=3)
    catalog, counts, requests = synth_instance(synth, seed=0)
    data = None
    if source != "synth":
        data = tmp_path / "log"
        # Each user arrives twice, so arrivals outnumber matrix rows.
        save_instance(data, catalog, counts * 2, requests + requests[::-1])
        if source == "log":
            os.remove(data / RELEVANCE_FILE)
        _, _, requests = load_interactions(data)
    matrix = requests[0].relevance.base
    assert all(r.relevance.base is matrix for r in requests)
    cfg = RunConfig(policy=FairnessPolicy([5.0] * 3, 0.5, 3),
                    rerank=RerankConfig(list_size=3, eta=0.01), forecaster="oracle",
                    synth=synth if data is None else None,
                    data_path=None if data is None else str(data))
    tracer = bench_modules["tracing"].Tracer()
    tracer.install()
    try:
        tracer.run(harness.run, cfg)
    finally:
        tracer.uninstall()
    assert tracer.relevance_bytes == matrix.nbytes > 0
