"""A plain per-arrival rewrite of ``harness.run``: the oracle for its interval loop.

``reference_run(cfg, directory)`` simulates ``cfg`` from README's semantics
and writes report.json, intervals.csv, allocations.csv and decisions.csv as
``harness.run`` documents them. Each arrival is served and scored on its own:
exposure is counted in Python ints, each list is a full lexsort, and each
user's NDCG is taken against the DCG of a full-sort ideal list; both sorts
are ``test_reranker``'s lexsort references. Beyond those it reuses only
layers that have oracles of their own: ``synth_instance`` and
``load_interactions``, ``forecast_traffic``, and ``plan_interval`` (with
``talmud``). Everything between them, from the sub-seeds to the metrics, is
written out here.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from test_reranker import lexsort_order, reference_top_k

from bankfair.bankruptcy import plan_interval
from bankfair.domain import load_interactions, synth_instance
from bankfair.forecast import forecast_traffic


def dcg(gains):
    """Sum of gain / log2(rank + 1) over ranks 1, 2, ..."""
    gains = np.asarray(gains, dtype=float)
    return float((gains / np.log2(np.arange(2, gains.size + 2))).sum())


def reference_run(cfg, directory):
    """Simulate ``cfg`` one arrival at a time and write its four output files."""
    # One seed per stochastic stage: the instance, the resample, the deal, the noise.
    instance_seed, resample_seed, deal_seed, noise_seed = (
        child.generate_state(1)[0] for child in np.random.SeedSequence(cfg.seed).spawn(4))
    if cfg.synth is not None:
        catalog, counts, requests = synth_instance(cfg.synth, instance_seed)
    else:
        catalog, counts, requests = load_interactions(cfg.data_path, cfg.schema)
    item_provider, num_items = catalog.item_provider, catalog.num_items
    providers = catalog.num_providers
    m = np.array(cfg.policy.required_min_exposure, dtype=float)
    if m.size == 1:
        m = np.full(providers, m[0])
    k, phi = cfg.policy.list_size, cfg.policy.required_min_accuracy

    if cfg.tau is not None:
        # Resample the counts: softmax(counts / (tau * max(counts))) ...
        raw = np.asarray(counts, dtype=float)
        logits = raw / (cfg.tau * (raw.max() if raw.max() > 0 else 1.0))
        weights = np.exp(logits - logits.max())
        counts = np.random.default_rng(resample_seed).multinomial(
            len(requests), weights / weights.sum())
        # ... and deal a shuffled pool of the requests into them.
        order = np.random.default_rng(deal_seed).permutation(len(requests))
        requests = [requests[i] for i in order]
    counts = [int(c) for c in counts]
    noise = np.random.default_rng(noise_seed)

    inventory = np.bincount(item_provider).astype(float)
    beta = cfg.rerank.beta_mix
    lam = beta * inventory.max() / inventory + (1.0 - beta) / providers
    cumulative = [0] * providers
    per_user, accuracy, vio, esp, allocations, decisions = [], [], [], [], [], []
    start = 0
    for n in range(1, len(counts) + 1):
        arrivals = requests[start:start + counts[n - 1]]
        start += len(arrivals)
        history = [float(c) for c in counts[:n - 1]]
        future = [float(c) for c in counts[n - 1:]] if cfg.forecaster == "oracle" else None
        rhat = forecast_traffic(history, len(counts) - n + 1, cfg.forecaster,
                                cfg.forecaster_params, future=future).horizon_values
        rhat_n = max(float(rhat[0]), 1.0)

        # The estate: each floor less the exposure earned so far, at least 0.
        remaining = np.maximum(m - np.array(cumulative), 0.0)
        # Claims: alpha * K per predicted arrival, alpha from the traffic so far and to come.
        traffic_total = max(float(sum(counts[:n - 1])) + float(rhat.sum()), 1.0)
        alpha = cfg.rerank.alpha_k * float(m.sum()) / (m.size * k * traffic_total)
        audit = plan_interval(cfg.rule, remaining, alpha * k * rhat, rhat, interval=n)
        for p in range(providers):
            allocations.append([n, p, *(float(audit[c][p])
                                        for c in ("estate", "claim", "award", "theta"))])

        # Serve each arrival: list by price-adjusted relevance, then a dual step.
        gamma = k * rhat_n * inventory / inventory.sum()
        if cfg.rule == "none":
            eta = 0.0
        elif cfg.rerank.eta == "auto":
            eta = 1.0 / math.sqrt(rhat_n)
        else:
            eta = float(cfg.rerank.eta)
        mu = np.zeros(providers)
        earned = [0] * providers
        scores = []
        for t, req in enumerate(arrivals, 1):
            relevance = np.asarray(req.relevance, dtype=float)
            if cfg.relevance_noise > 0:
                relevance = np.clip(
                    relevance + noise.normal(0.0, cfg.relevance_noise, num_items), 0.0, 1.0)
            items = lexsort_order(relevance / rhat_n - mu[item_provider], relevance, k)
            decisions.append([n, t, req.user_id, *items.tolist(),
                              hashlib.sha1(mu.tobytes()).hexdigest()[:12]])
            exposure = [0] * providers
            for item in items.tolist():
                exposure[int(item_provider[item])] += 1
            earned = [e + x for e, x in zip(earned, exposure)]
            unearned = np.maximum(audit["award"] - np.array(earned), 0.0)
            e_star = np.where(mu >= 0.0, gamma, np.minimum(unearned, gamma))
            mu = np.maximum(mu - eta * (e_star - np.array(exposure)), -lam)

            ideal = dcg(relevance[reference_top_k(relevance, k)])
            gain = dcg(relevance[items])
            scores.append(1.0 if ideal == 0.0 else gain / ideal)
        cumulative = [c + e for c, e in zip(cumulative, earned)]

        per_user += scores
        accuracy.append(float(np.mean(scores)) if scores else 1.0)
        vio.append(sum(s < phi for s in scores) / len(scores) if scores else 0.0)
        esp.append(sum(c >= f for c, f in zip(cumulative, m.tolist())) / providers)

    report = {
        "ndcg_at_k": float(np.mean(per_user)) if per_user else 1.0,
        "vio_at_k": sum(s < phi for s in per_user) / len(per_user) if per_user else 0.0,
        "esp_at_k": esp[-1],
        "per_interval_traffic": counts,
        "per_interval_accuracy": accuracy,
        "per_interval_vio": vio,
        "per_interval_esp": esp,
        "per_provider_cumulative_exposure": cumulative,
        "per_user_ndcg": per_user,
        "config_echo": cfg.echo(),
    }
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2, default=np.generic.item) + "\n",
        encoding="utf-8")
    tables = {
        "intervals.csv": (["interval", "traffic", "accuracy", "vio", "esp_partial"],
                          [[n, c, repr(a), repr(v), repr(e)] for n, (c, a, v, e)
                           in enumerate(zip(counts, accuracy, vio, esp), 1)]),
        "allocations.csv": (["interval", "provider", "estate", "claim", "award", "theta"],
                            allocations),
        "decisions.csv": (["interval", "t", "user_id", *(f"item_{i}" for i in range(1, k + 1)),
                           "mu_snapshot_hash"], decisions),
    }
    for name, (header, rows) in tables.items():
        with open(directory / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
