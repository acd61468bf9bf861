"""The benchmark's clock still calibrates before every plan and serve call.

bench/run.py times ``harness.run`` with ``speed.Clock``, which measures the
host's speed again before each ``bankruptcy.plan_interval`` and
``reranker.run_interval`` call it is pointed at. The harness must reach both
through their modules, or the clock would time a whole run between two
calibrations. bench/ is read here, never changed.
"""

import importlib.util
from pathlib import Path

from bankfair import FairnessPolicy, RerankConfig, SynthConfig, bankruptcy, harness, reranker
from bankfair.harness import RunConfig

SPEED = Path(__file__).resolve().parent.parent / "bench" / "speed.py"


def test_clock_marks_every_plan_and_serve_call(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_speed", SPEED)
    speed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(speed)
    marks = []
    monkeypatch.setattr(speed, "calibrate", lambda: marks.append(1e-3) or 1e-3)
    traffic = [6, 0, 5, 0, 4]
    cfg = RunConfig(policy=FairnessPolicy([20.0] * 4, 0.9, 5),
                    rerank=RerankConfig(list_size=5, eta=0.01),
                    synth=SynthConfig(num_items=30, num_providers=4,
                                      num_intervals=len(traffic), traffic=traffic, list_size=5),
                    forecaster="oracle", seed=1)
    plan, serve = bankruptcy.plan_interval, reranker.run_interval
    clock = speed.Clock([(bankruptcy, "plan_interval"), (reranker, "run_interval")])
    report, _, _ = clock.run(harness.run, cfg)
    assert report.per_interval_traffic == traffic
    # One mark at each end of the run, and one per interval before planning
    # and before serving, with or without arrivals.
    assert len(marks) == 2 + 2 * len(traffic)
    assert (bankruptcy.plan_interval, reranker.run_interval) == (plan, serve)
