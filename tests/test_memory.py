"""Traced memory of a run: per-row state is numbers in arrays, and planning
an interval builds P-long and H-long arrays, no P x H matrix.

Each bound is ``tracemalloc``'s peak above the start of the call, which
counts Python objects and numpy's heap buffers. An instance matrix on an
anonymous mapping (``domain._relevance_matrix`` where mmap can advise huge
pages) is not traced; elsewhere it is numpy's own and traced, so its bytes
are added to the bound.
"""

import mmap
import tracemalloc

import numpy as np
import pytest

from bankfair import harness, metrics
from bankfair.bankruptcy import plan_interval
from bankfair.domain import (RELEVANCE_FILE, FairnessPolicy, LogSchema, SynthConfig,
                             _write_relevance_matrix, instance_matrix, load_interactions)
from bankfair.reranker import RerankConfig

ROWS = 20_000
MAPPED = hasattr(mmap, "MADV_HUGEPAGE")


def write_log(directory, rows=ROWS, users=4_000, providers=30, items_per_provider=10,
              hours=48, seed=3):
    """An hourly log with a catalog: repeat users, Zipf providers, a diurnal cycle."""
    rng = np.random.default_rng(seed)
    item_provider = np.repeat(np.arange(providers), items_per_provider)
    popularity = (1.0 / np.arange(1, providers + 1) ** 1.1)[item_provider]
    activity = rng.lognormal(0.0, 0.75, size=users)
    cycle = 1.0 + 0.7 * np.cos(2 * np.pi * np.arange(hours) / 24)
    per_hour = 1 + rng.multinomial(rows - hours, cycle / cycle.sum())
    stamps = 3600 * np.repeat(np.arange(hours), per_hour) + rng.integers(0, 3600, size=rows)
    user = rng.choice(users, size=rows, p=activity / activity.sum())
    item = rng.choice(item_provider.size, size=rows, p=popularity / popularity.sum())
    score = np.round(rng.uniform(0.05, 1.0, size=rows), 3)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "catalog.csv").write_text("item_id,provider_id\n" + "".join(
        f"i{i},{p}\n" for i, p in enumerate(item_provider)))
    (directory / "interactions.csv").write_text(
        "user_id,item_id,provider_id,timestamp,score\n" + "".join(
            f"u{u},i{i},{item_provider[i]},{t},{s!r}\n"
            for u, i, t, s in zip(user, item, stamps.tolist(), score.tolist())))
    return directory


def traced_peak(fn, *args):
    """(result, peak traced bytes above the start of ``fn(*args)``)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def log(tmp_path_factory):
    return write_log(tmp_path_factory.mktemp("replay") / "log")


def replay_config(data, out_dir=None):
    return harness.RunConfig(
        policy=FairnessPolicy([0.3 * 10 * ROWS / 30] * 30, 0.95, 10),
        rerank=RerankConfig(list_size=10, alpha_k=1.5, beta_mix=0.5, eta=1e-4),
        data_path=str(data), schema=LogSchema(interval_seconds=3600.0),
        forecaster="moving_average", forecaster_params={"w": 3, "prior_mean": ROWS / 48},
        out_dir=None if out_dir is None else str(out_dir))


def matrix_bytes(requests):
    return 0 if MAPPED else instance_matrix(requests).nbytes


@pytest.fixture(scope="module")
def replay(log, tmp_path_factory):
    """(report, traced peak, output directory) of one replay that writes its outputs."""
    out = tmp_path_factory.mktemp("out")
    report, peak = traced_peak(harness.run, replay_config(log, out))
    _, _, requests = load_interactions(log, LogSchema(3600.0))
    return report, peak - matrix_bytes(requests), out


def test_load_peak_per_row(log):
    # A parsed tuple and a request per row peaked at 433 B a row.
    (_, _, requests), peak = traced_peak(load_interactions, log, LogSchema(3600.0))
    assert len(requests) == ROWS
    assert peak - matrix_bytes(requests) < 250 * ROWS


def test_run_peak_with_outputs(replay, log):
    # A request and a row of decisions per arrival, and report.json built
    # as one string, peaked at 13.1 MB on this log. Keeping every arrival's
    # list, user id and price digest until the last interval, and writing
    # the CSV files then, peaked at 4.57 MB, against 2.72 MB for the load
    # alone. Written as each interval closes, they add nothing measurable:
    # the run peaks at the load's peak.
    report, peak, _ = replay
    (_, _, requests), load = traced_peak(load_interactions, log, LogSchema(3600.0))
    assert sum(report.per_interval_traffic) == ROWS
    assert peak < load - matrix_bytes(requests) + 0.25e6


def test_written_report_is_to_json(replay):
    report, _, out = replay
    assert (out / "report.json").read_bytes() == report.to_json().encode()


def test_sidecar_read_and_write_copy_no_matrix(tmp_path):
    # About 550 users over 1 000 items, a 4.4 MB matrix: read straight into
    # the instance matrix, and written from its buffer.
    directory = write_log(tmp_path / "log", rows=1_000, users=1_000, providers=10,
                          items_per_provider=100, hours=2)
    _, _, requests = load_interactions(directory)
    matrix = np.random.default_rng(0).random((len({r.row for r in requests}), 1_000))
    _, written = traced_peak(_write_relevance_matrix, directory / RELEVANCE_FILE, matrix)
    (_, _, requests), read = traced_peak(load_interactions, directory)
    assert instance_matrix(requests).tobytes() == matrix.tobytes()
    assert written < matrix.nbytes / 8
    assert read - matrix_bytes(requests) < matrix.nbytes / 8


def test_ideal_dcg_partitions_in_small_chunks():
    # wide_catalog's shape. Partitioning 64 rows (5 MB) at a time raised
    # that workload's peak RSS by 10%; a 64 KB chunk leaves it flat.
    matrix = np.random.default_rng(0).random((700, 10_000))
    ideal, peak = traced_peak(metrics.top_k_dcg, matrix, 10)
    assert ideal.shape == (700,)
    assert peak - ideal.nbytes < 256 * 1024


def test_plan_memory_linear_in_the_horizon():
    # One arrival in each of 400 intervals for 100 providers. When talmud
    # built each interval's P x H award matrix, kept audits that viewed them
    # held every one alive, 66.5 MB traced. The audits' own P-long columns,
    # kept to the end of the run, and the instance peaked at 1.93 MB. A run
    # that keeps no audit peaks at 0.24 MB.
    providers, intervals = 100, 400
    cfg = harness.RunConfig(
        policy=FairnessPolicy([5.0] * providers, 0.9, 10),
        rerank=RerankConfig(list_size=10, eta=0.01),
        synth=SynthConfig(num_items=2 * providers, num_providers=providers,
                          num_intervals=intervals, traffic=[1] * intervals),
        forecaster="oracle", seed=1)
    report, peak = traced_peak(harness.run, cfg)
    assert report.per_interval_traffic == [1] * intervals
    assert peak < 2 * providers * intervals * 8


def test_talmud_plan_allocates_no_award_matrix():
    # One interval's plan for 300 providers over 2 000 intervals. Awarding
    # every provider for every interval peaked at 5.02 MB, above one P x H
    # float64 matrix (4.8 MB); the first interval's awards alone need P-long
    # and H-long arrays.
    providers, intervals = 300, 2_000
    rng = np.random.default_rng(0)
    forecast = rng.uniform(0.0, 10.0, size=intervals)
    remaining = rng.uniform(0.0, forecast.sum(), size=providers)  # both halves of the rule
    audit, peak = traced_peak(plan_interval, "talmud", remaining, forecast, forecast)
    assert audit["award"].shape == (providers,)
    assert peak < providers * intervals * 8 / 4
