"""End-to-end driver: interval loop wiring, determinism, sweeps."""

import csv
import hashlib
import math
import threading
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_sim import reference_run
from test_reranker import reference_run_interval, reference_top_k

from bankfair import acceptance, bankruptcy, domain, harness, metrics, reranker
from bankfair.bankruptcy import RULES
from bankfair.domain import (FairnessPolicy, LogSchema, SynthConfig, _write_relevance_matrix,
                             load_interactions, save_instance, synth_instance)
from bankfair.errors import ConfigError, InfeasibleAllocationError
from bankfair.harness import RunConfig, run, sweep
from bankfair.reranker import RerankConfig


def reference_top_k_dcg(block, k):
    """Each row's ideal DCG from its full-sort top-K list."""
    return np.array([metrics.dcg(row[reference_top_k(row, k)]) for row in block])


def small_config(rule="talmud", seed=0, m=30.0, **overrides):
    synth = SynthConfig(num_items=40, num_providers=4, num_intervals=4,
                        mean_traffic=20, list_size=5,
                        provider_bands=[(0.7, 1.0)] * 3 + [(0.2, 0.6)],
                        inventory=[13, 13, 12, 2])
    base = dict(
        policy=FairnessPolicy([m] * 4, 0.95, 5),
        rerank=RerankConfig(list_size=5, alpha_k=1.5, beta_mix=0.0, eta=1e-3),
        rule=rule, synth=synth, forecaster="oracle", seed=seed)
    base.update(overrides)
    return RunConfig(**base)


LOG_USERS = 12


def log_config(directory, relevance=False, **overrides):
    """A four-hour log of 80 visits by 12 users; scores on a 0.05 grid.

    With ``relevance`` a dense relevance.bin gives every user's vector;
    otherwise each profile is the user's own logged scores.
    """
    rng = np.random.default_rng(8)
    item_provider = np.array([0] * 8 + [1] * 6 + [2] * 4 + [3] * 2)
    rows = 80
    users = rng.permutation(np.resize(np.arange(LOG_USERS), rows))
    items = rng.integers(0, item_provider.size, size=rows)
    stamps = np.sort(rng.integers(0, 4 * 3600, size=rows))
    scores = rng.integers(1, 21, size=rows) / 20.0
    directory.mkdir(exist_ok=True)
    (directory / "catalog.csv").write_text(
        "item_id,provider_id\n" + "".join(f"i{i},{p}\n" for i, p in enumerate(item_provider)))
    (directory / "interactions.csv").write_text(
        "user_id,item_id,provider_id,timestamp,score\n" + "".join(
            f"u{u},i{i},{item_provider[i]},{t},{float(v)!r}\n"
            for u, i, t, v in zip(users, items, stamps, scores)))
    if relevance:
        matrix = rng.integers(0, 21, size=(LOG_USERS, item_provider.size)) / 20.0
        _write_relevance_matrix(directory / "relevance.bin", matrix)
    base = dict(
        policy=FairnessPolicy([30.0] * 4, 0.95, 5),
        rerank=RerankConfig(list_size=5, alpha_k=1.5, beta_mix=0.5, eta=0.05),
        data_path=str(directory), schema=LogSchema(interval_seconds=3600.0, list_size=5),
        forecaster="moving_average", forecaster_params={"w": 2, "prior_mean": 20.0})
    base.update(overrides)
    return RunConfig(**base)


def reference_decisions(path, k, rows):
    """The bytes of decisions.csv written by csv.writer one row at a time.

    ``rows`` are (interval, t, user id, items, the 6 digest bytes); each
    hash is formatted from its bytes packed in an int.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["interval", "t", "user_id", *(f"item_{i}" for i in range(1, k + 1)),
                    "mu_snapshot_hash"])
        w.writerows([n, t, uid, *items, f"{int.from_bytes(digest, 'big'):012x}"]
                    for n, t, uid, items, digest in rows)
    return path.read_bytes()


class TestRun:
    def test_unconstrained_rule_is_exact(self):
        rep = run(small_config(rule="none"))
        assert rep.ndcg_at_k == 1.0
        assert rep.vio_at_k == 0.0
        assert 0.0 <= rep.esp_at_k <= 1.0

    def test_exposure_conservation(self):
        rep = run(small_config())
        total_users = len(rep.per_user_ndcg)
        assert sum(rep.per_provider_cumulative_exposure) == 5 * total_users
        assert total_users == sum(rep.per_interval_traffic)

    def test_pooled_ndcg_equals_traffic_weighted_interval_means(self):
        rep = run(small_config(seed=2))
        weights = np.asarray(rep.per_interval_traffic, dtype=float)
        weighted = float(np.average(rep.per_interval_accuracy, weights=weights))
        assert rep.ndcg_at_k == pytest.approx(weighted, abs=1e-12)

    def test_penalties_computed_once_and_given_to_every_interval(self, monkeypatch):
        # The penalties depend only on the catalog and beta_mix.
        cfg = small_config(rerank=RerankConfig(list_size=5, beta_mix=0.5, eta=1e-3))
        made, given = [], []
        compute_penalties, run_interval = reranker.compute_penalties, reranker.run_interval

        def penalties(*args):
            made.append(compute_penalties(*args))
            return made[-1]

        def serve(*args):
            given.append(args[-1])
            return run_interval(*args)

        monkeypatch.setattr(reranker, "compute_penalties", penalties)
        monkeypatch.setattr(reranker, "run_interval", serve)
        rep = run(cfg)
        assert len(made) == 1 and len(given) == len(rep.per_interval_traffic) > 1
        assert all(lam is made[0] for lam in given)

    def test_talmud_with_oracle_meets_all_floors(self):
        for seed in range(3):
            rep = run(small_config(seed=seed))
            assert rep.esp_at_k == 1.0

    def test_two_provider_toy_single_interval_meets_floor(self):
        # One interval, three arrivals, K=5, floor (4, 0): the first provider
        # must end at four exposures or more. alpha_k=2 keeps the single
        # interval's claim at the floor despite the uneven requirement.
        synth = SynthConfig(num_items=8, num_providers=2, num_intervals=1,
                            traffic=[3], list_size=5)
        cfg = RunConfig(
            policy=FairnessPolicy(np.array([4.0, 0.0]), 0.95, 5),
            rerank=RerankConfig(list_size=5, alpha_k=2.0, beta_mix=0.5, eta=0.12),
            rule="talmud", synth=synth, forecaster="oracle", seed=0)
        rep = run(cfg)
        assert rep.per_provider_cumulative_exposure[0] >= 4
        assert rep.esp_at_k == 1.0

    def test_determinism_byte_identical(self):
        a = run(small_config(tau=0.3, relevance_noise=0.02))
        b = run(small_config(tau=0.3, relevance_noise=0.02))
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = run(small_config(seed=0, tau=0.3))
        b = run(small_config(seed=1, tau=0.3))
        assert a.to_json() != b.to_json()

    def test_resampling_changes_traffic_but_keeps_totals(self):
        a = run(small_config())
        b = run(small_config(tau=0.15))
        assert sum(a.per_interval_traffic) == sum(b.per_interval_traffic)
        assert a.per_interval_traffic != b.per_interval_traffic

    def test_relevance_noise_perturbs_results(self):
        a = run(small_config())
        b = run(small_config(relevance_noise=0.1))
        assert a.per_user_ndcg != b.per_user_ndcg

    def test_noise_leaves_the_instance_untouched(self, tmp_path, monkeypatch):
        # Two runs on one prebuilt instance: noise must go into new arrays,
        # or the first run's noise would carry into the second.
        cfg = small_config(relevance_noise=0.05)
        catalog, counts, requests = synth_instance(cfg.synth, seed=4)
        before = [req.relevance.tobytes() for req in requests]
        monkeypatch.setattr(harness, "synth_instance",
                            lambda synth, seed: (catalog, counts, requests))
        reports = []
        for out in ("first", "second"):
            run(replace(cfg, out_dir=str(tmp_path / out)))
            reports.append((tmp_path / out / "report.json").read_bytes())
        assert [req.relevance.tobytes() for req in requests] == before
        assert reports[0] == reports[1]

    def test_zero_forecast_aborts_with_diagnostic(self):
        synth = SynthConfig(num_items=40, num_providers=4, num_intervals=2,
                            traffic=[0, 20], list_size=5)
        cfg = small_config(forecaster="moving_average",
                           forecaster_params={"w": 1, "prior_mean": 0.0}, synth=synth)
        with pytest.raises(InfeasibleAllocationError) as err:
            run(cfg)
        assert err.value.interval == 1

    def test_naive_plans_every_interval_of_a_flat_forecast(self, monkeypatch):
        # A moving average forecasts every coming interval alike, so the
        # naive rule plans half of what remains in each interval.
        cfg = replace(acceptance.benchmark_config("naive", 0), forecaster="moving_average",
                      forecaster_params={"w": 3, "prior_mean": 100}, tau=None)
        plan, audits = bankruptcy.plan_interval, []
        monkeypatch.setattr(bankruptcy, "plan_interval",
                            lambda *args, **kw: audits.append(plan(*args, **kw)) or audits[-1])
        run(cfg)
        assert len(audits) == 14
        for audit in audits:
            np.testing.assert_array_equal(audit["award"], audit["estate"] / 2)

    def test_floors_for_another_number_of_providers(self, tmp_path):
        # Two floors for the log's four providers; only one is broadcast. A
        # log's provider count is known only once it is read.
        cfg = log_config(tmp_path, policy=FairnessPolicy([30.0, 30.0], 0.95, 5))
        with pytest.raises(ConfigError, match="^policy covers a different number of "
                                              "providers than the catalog$"):
            run(cfg)

    def test_writes_outputs(self, tmp_path):
        rep = run(small_config(out_dir=str(tmp_path)))
        for name in ("report.json", "intervals.csv", "allocations.csv", "decisions.csv"):
            assert (tmp_path / name).exists()
        allocations = (tmp_path / "allocations.csv").read_text()
        assert allocations.splitlines()[0] == "interval,provider,estate,claim,award,theta"
        assert "np.float64(" not in allocations
        decisions = (tmp_path / "decisions.csv").read_text().splitlines()
        assert decisions[0] == ("interval,t,user_id,item_1,item_2,item_3,item_4,item_5,"
                                "mu_snapshot_hash")
        assert len(decisions) == 1 + len(rep.per_user_ndcg)

    # User ids that csv quotes (comma, quote, CR LF, LF) and that it does not.
    QUOTED_IDS = ["a,b", 'say "hi"', "cr\r\nlf", "line\nfeed", " lead", "naïve ü", ""]

    def test_decisions_match_csv_writer_on_ids_that_need_quoting(self, tmp_path, monkeypatch):
        # From the third hour on, the log's user ids are QUOTED_IDS: the first
        # two intervals hold only plain ids, the last two mix both kinds.
        cfg = log_config(tmp_path / "data", out_dir=str(tmp_path / "out"))
        log = tmp_path / "data" / "interactions.csv"
        with open(log, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        for row in rows:
            if int(row[3]) >= 2 * 3600:
                row[0] = self.QUOTED_IDS[int(row[0][1:]) % len(self.QUOTED_IDS)]
        with open(log, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        served, run_interval = [], reranker.run_interval

        def serve(*args):
            lists, earned, prices = run_interval(*args)
            served.append((lists, prices))
            return lists, earned, prices

        monkeypatch.setattr(reranker, "run_interval", serve)
        run(cfg)

        _, counts, requests = load_interactions(cfg.data_path, cfg.schema)
        arrivals = iter(requests)
        intervals = [n for n, c in enumerate(counts.tolist(), 1) if c]
        want = reference_decisions(tmp_path / "want.csv", 5, [
            (n, t, next(arrivals).user_id, items, hashlib.sha1(mu).digest()[:6])
            for n, (lists, prices) in zip(intervals, served, strict=True)
            for t, (items, mu) in enumerate(zip(lists.tolist(), prices), 1)])
        got = (tmp_path / "out" / "decisions.csv").read_bytes()
        assert got == want
        ids = np.split(np.array([req.user_id for req in requests]), np.cumsum(counts)[:-1])
        quoted = {any(uid in self.QUOTED_IDS[:4] for uid in interval) for interval in ids}
        assert quoted == {True, False} and b'"say ""hi"""' in got

    @given(st.lists(st.lists(
        st.text(alphabet=[",", '"', "\r", "\n", " ", "\t", "é", "u"], max_size=4), max_size=6),
        max_size=4), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_decisions_writer_matches_csv_writer(self, tmp_path_factory, batches, rnd):
        # Any str user id (every build makes str ids), empty ones included,
        # and intervals with no arrivals: the bytes of csv.writer fed the
        # same rows.
        path = tmp_path_factory.mktemp("decisions")
        records, k, num_items = [], 3, 5
        for n, uids in enumerate(batches, 1):
            lists = np.array([rnd.sample(range(num_items), k) for _ in uids],
                             dtype=np.int64).reshape(len(uids), k)
            records.append(harness._Interval(
                n, None, uids, lists, rnd.randbytes(6 * len(uids)), None, None))
        harness._write_decisions(path / "got.csv", records, k, num_items)
        want = reference_decisions(path / "want.csv", k, [
            (r.n, t, uid, items, r.digests[6 * t - 6:6 * t])
            for r in records
            for t, (uid, items) in enumerate(zip(r.user_ids, r.lists.tolist()), 1)])
        assert (path / "got.csv").read_bytes() == want

    # A synthetic run whose traffic has empty intervals, and a log replay.
    # A fractional floor of 24.5: some providers pass it, some do not.
    @pytest.mark.parametrize("rule", ["talmud", "prop", "naive"])
    @pytest.mark.parametrize("make", [
        lambda d: small_config(m=24.5, synth=replace(small_config().synth, num_intervals=5,
                                                     traffic=[12, 0, 9, 0, 15]),
                               rerank=RerankConfig(list_size=5, beta_mix=0.5, eta=0.05)),
        lambda d: log_config(d, policy=FairnessPolicy([24.5] * 4, 0.95, 5))],
        ids=["synth_gaps", "log"])
    def test_estate_is_floor_minus_earlier_exposure(self, tmp_path, caplog, rule, make):
        # Each interval's estate is the floor less the exposure that the
        # decisions of earlier intervals gave the provider, and 0 once met.
        cfg = replace(make(tmp_path / "data"), rule=rule, out_dir=str(tmp_path / "out"))
        with caplog.at_level("WARNING", logger="bankfair"):
            rep = run(cfg)
        assert "clamping" not in caplog.text  # so talmud's estate is not cut to the claims
        if cfg.synth is not None:  # the seed draws no part of a synthetic catalog
            item_provider = synth_instance(cfg.synth, 0)[0].item_provider
        else:
            item_provider = load_interactions(cfg.data_path, cfg.schema)[0].item_provider
        m, k = cfg.policy.required_min_exposure, cfg.policy.list_size
        earned = np.zeros((len(rep.per_interval_traffic) + 1, m.size), dtype=np.int64)
        with open(tmp_path / "out" / "decisions.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                items = [int(row[f"item_{i}"]) for i in range(1, k + 1)]
                np.add.at(earned[int(row["interval"])], item_provider[items], 1)
        before = np.cumsum(earned, axis=0)  # row n - 1: the exposure of intervals 1 to n - 1
        assert before[-1].tolist() == rep.per_provider_cumulative_exposure
        estates = []
        with open(tmp_path / "out" / "allocations.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                n, p = int(row["interval"]), int(row["provider"])
                estates.append(float(row["estate"]))
                assert estates[-1] == max(m[p] - before[n - 1, p], 0.0), (n, p)
        assert len(estates) == m.size * len(rep.per_interval_traffic)
        assert 0.0 in estates and min(e for e in estates if e) < 24.5

    def test_claims_sum_to_mean_floor_at_unit_alpha(self, tmp_path):
        # With an exact forecast and alpha_k = 1, the claims one provider
        # meets over the horizon add up to the mean floor.
        floors = np.array([10.0, 20.0, 30.0, 44.0])
        cfg = small_config(policy=FairnessPolicy(floors, 0.95, 5), out_dir=str(tmp_path),
                           rerank=RerankConfig(list_size=5, alpha_k=1.0, eta=1e-3))
        run(cfg)
        claims = np.zeros(floors.size)
        with open(tmp_path / "allocations.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                claims[int(row["provider"])] += float(row["claim"])
        np.testing.assert_allclose(claims, floors.mean(), rtol=1e-12)

    @pytest.mark.parametrize("m", [0.0, -0.0], ids=["zero", "negative_zero"])
    def test_zero_floors_plan_nothing_under_every_rule(self, tmp_path, m):
        # talmud divides zero estates over zero claims; it, naive and prop
        # all plan nothing and serve the same lists.
        served = {}
        for rule in ("talmud", "naive", "prop"):
            out = tmp_path / rule
            run(small_config(rule=rule, m=m, out_dir=str(out)))
            served[rule] = [(out / name).read_bytes() for name in ("decisions.csv", "intervals.csv")]
            with open(out / "allocations.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows and all(float(row["award"]) == 0.0 for row in rows)
            if rule == "talmud":
                assert {row["theta"] for row in rows} == {"0.0"}
        assert served["talmud"] == served["naive"] == served["prop"]

    def test_clamp_warnings_skip_rounding(self, caplog):
        # Intervals 2 and 3 leave estates one ulp above the summed claims,
        # which is rounding, not a clamp worth a warning.
        synth = replace(small_config().synth, num_intervals=5, traffic=[12, 0, 9, 0, 15])
        with caplog.at_level("WARNING", logger="bankfair"):
            run(small_config(m=5.0, synth=synth))
        assert caplog.text.count("clamping") == 2

    def test_outputs_match_reference_serve_loop(self, tmp_path, monkeypatch):
        # Relevance on a 0.05 grid makes list selection tie-heavy; the fast
        # serve loop and ideal DCGs must write the same bytes as the
        # reference loop and ideal lists with full sorts.
        synth = SynthConfig(num_items=24, num_providers=4, num_intervals=4,
                            mean_traffic=15, list_size=5, inventory=[9, 7, 6, 2])
        catalog, counts, requests = synth_instance(synth, seed=4)
        requests = [replace(req, relevance=np.round(req.relevance * 20.0) / 20.0)
                    for req in requests]
        save_instance(tmp_path / "data", catalog, counts, requests)

        def run_to(out):
            cfg = RunConfig(policy=FairnessPolicy([12.0] * 4, 0.9, 5),
                            rerank=RerankConfig(list_size=5, beta_mix=0.5, eta=0.05),
                            data_path=str(tmp_path / "data"), schema=LogSchema(list_size=5),
                            forecaster="oracle", tau=0.5, seed=1, out_dir=str(out))
            run(cfg)
            return {name: (out / name).read_bytes()
                    for name in ("report.json", "decisions.csv", "allocations.csv")}

        fast = run_to(tmp_path / "fast")
        monkeypatch.setattr(reranker, "run_interval", reference_run_interval)
        monkeypatch.setattr(metrics, "top_k_dcg", reference_top_k_dcg)
        assert run_to(tmp_path / "reference") == fast

    # (config, how many distinct relevance vectors the run scores: one per
    # logged user, or one per arrival when every vector is new)
    @pytest.mark.parametrize("make,distinct", [
        (lambda d: log_config(d), LOG_USERS),
        (lambda d: log_config(d, relevance=True), LOG_USERS),
        (lambda d: small_config(tau=0.3), None),
        (lambda d: log_config(d, relevance=True, relevance_noise=0.05), None),
        (lambda d: small_config(relevance_noise=0.05, synth=replace(
            small_config().synth, num_intervals=5, traffic=[12, 0, 9, 0, 15])), None)],
        ids=["log", "log_relevance_bin", "synth_tau", "log_noise", "synth_gaps_noise"])
    def test_cached_scoring_matches_per_arrival_scoring(self, tmp_path, monkeypatch, make,
                                                        distinct):
        # The harness scores each interval as one block against ideal DCGs
        # computed once per relevance row; the oracle scores each arrival on
        # its own against a full-sort top-K.
        cfg = make(tmp_path / "data")
        k, phi = cfg.policy.list_size, cfg.policy.required_min_accuracy
        ranked, served = [], []
        top_k_dcg, run_interval = metrics.top_k_dcg, reranker.run_interval
        monkeypatch.setattr(metrics, "top_k_dcg",
                            lambda block, k: ranked.extend(block) or top_k_dcg(block, k))

        def serve(block, rows, *args, **kwargs):
            lists, earned, mu = run_interval(block, rows, *args, **kwargs)
            served.append((block, rows, lists))
            return lists, earned, mu

        monkeypatch.setattr(reranker, "run_interval", serve)
        rep = run(replace(cfg, out_dir=str(tmp_path / "out")))

        # Every interval is served, an empty one with no rows; the oracle
        # scores the intervals with arrivals.
        assert [len(rows) for _, rows, _ in served] == rep.per_interval_traffic
        oracle = []
        for block, rows, lists in served:
            if not len(rows):
                continue
            scores = []
            for rel, items in zip(block[rows], lists):
                num = metrics.dcg(rel[items])
                den = metrics.dcg(rel[reference_top_k(rel, k)])
                scores.append(1.0 if num == den == 0.0 else float(num / den))
            oracle.append(scores)
        per_user = [v for scores in oracle for v in scores]
        assert rep.per_user_ndcg == per_user
        assert rep.ndcg_at_k == float(np.mean(per_user))
        assert rep.vio_at_k == metrics.vio_at_k(per_user, phi)
        busy = [n for n, c in enumerate(rep.per_interval_traffic) if c]
        assert [rep.per_interval_accuracy[n] for n in busy] == [float(np.mean(s)) for s in oracle]
        assert [rep.per_interval_vio[n] for n in busy] == [metrics.vio_at_k(s, phi)
                                                           for s in oracle]
        # An interval without arrivals scores accuracy 1 and vio 0 and has
        # no row in decisions.csv.
        empty = [n for n, c in enumerate(rep.per_interval_traffic) if not c]
        assert [rep.per_interval_accuracy[n] for n in empty] == [1.0] * len(empty)
        assert [rep.per_interval_vio[n] for n in empty] == [0.0] * len(empty)
        with open(tmp_path / "out" / "decisions.csv", newline="") as fh:
            written = {int(row["interval"]) - 1 for row in csv.DictReader(fh)}
        assert written == set(busy)

        # top_k_dcg saw each distinct vector served once: a row of the
        # instance matrix, or of one interval's noise block. served holds every
        # block, so no two of them share an id.
        vectors = {(id(block), row): block[row] for block, rows, _ in served for row in rows}
        assert len(ranked) == len(vectors) == (distinct or len(per_user))
        assert (sorted(rel.tobytes() for rel in ranked)
                == sorted(rel.tobytes() for rel in vectors.values()))

    def test_noise_blocks_die_with_their_interval(self, monkeypatch):
        # Each noisy interval draws a new (arrivals x items) block. None may
        # outlive its interval: by the next draw every earlier block is gone,
        # so a noisy run holds one block at a time, not a second copy of
        # the instance matrix.
        cfg = small_config(tau=0.3, relevance_noise=0.05)
        blocks = []

        class CheckedGenerator:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def normal(self, *args, **kwargs):
                assert all(block() is None for block in blocks)
                return self.rng.normal(*args, **kwargs)

        default_rng, run_interval = np.random.default_rng, reranker.run_interval
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: CheckedGenerator(default_rng(seed)))

        def serve(block, *args, **kwargs):
            assert isinstance(block, np.ndarray) and block.ndim == 2
            blocks.append(weakref.ref(block))
            return run_interval(block, *args, **kwargs)

        monkeypatch.setattr(reranker, "run_interval", serve)
        rep = run(cfg)
        assert len(blocks) == sum(1 for c in rep.per_interval_traffic if c) > 1
        assert all(block() is None for block in blocks)

    def test_noisy_run_peaks_one_block_above_noiseless(self):
        # Each noisy interval adds its arrivals' instance rows into its noise
        # block in place; gathering those rows first would be a second block.
        synth = SynthConfig(num_items=4000, num_providers=4, num_intervals=2,
                            traffic=[40, 60], list_size=5)
        block = 60 * synth.num_items * 8  # the larger interval's noise block, in bytes

        def peak(noise):
            tracemalloc.start()
            try:
                run(small_config(synth=synth, relevance_noise=noise))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(0.0)  # a process's first run allocates some state once
        assert peak(0.05) - peak(0.0) < 1.5 * block

    def test_no_thread_outlives_a_run(self, monkeypatch):
        # No thread started by a run is alive while intervals are planned and
        # served: it would compete with the serve loop for the interpreter,
        # and the benchmark's clock, calibrated at each plan_interval and
        # run_interval entry, would read the wrong speed. The instance holds
        # 2**21 relevance values, so a build that drew a large matrix on
        # threads of a pool left running would show here.
        synth = SynthConfig(num_items=4096, num_providers=4, num_intervals=2,
                            traffic=[256, 256], list_size=5)
        at_entry = []

        def entry(fn):
            def call(*args, **kwargs):
                at_entry.append(set(threading.enumerate()))
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(bankruptcy, "plan_interval", entry(bankruptcy.plan_interval))
        monkeypatch.setattr(reranker, "run_interval", entry(reranker.run_interval))
        before = set(threading.enumerate())
        rep = run(small_config(synth=synth))
        assert sum(rep.per_interval_traffic) * synth.num_items == 2**21
        assert len(at_entry) == 2 * len(rep.per_interval_traffic)
        assert all(threads == before for threads in at_entry)
        assert set(threading.enumerate()) == before

OUTPUT_FILES = ("report.json", "decisions.csv", "allocations.csv", "intervals.csv")
FORECASTERS = [("oracle", {}), ("moving_average", {}), ("moving_average", {"w": 1}),
               ("moving_average", {"w": 2, "prior_mean": 0.0}),
               ("moving_average", {"w": 3, "prior_mean": 3.5}),
               ("seasonal", {"lag": 2, "w": 1, "prior_mean": 2.0}), ("seasonal", {"lag": 1})]


class TestReferenceSimulator:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_outputs_match_reference_simulator(self, tmp_path_factory, data):
        # harness.run writes the reference simulator's bytes in every output
        # file, or both stop on the same infeasible allocation.
        tmp = tmp_path_factory.mktemp("simulate")
        providers = data.draw(st.integers(1, 3), "providers")
        num_items = data.draw(st.integers(providers, 7), "items")
        k = data.draw(st.one_of(st.just(num_items), st.integers(1, num_items)), "K")
        traffic = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=5), "traffic")
        synth = SynthConfig(num_items=num_items, num_providers=providers,
                            num_intervals=len(traffic), traffic=traffic, list_size=k)
        source = dict(synth=synth)
        if sum(traffic) and data.draw(st.booleans(), "log"):
            # A saved log with relevance on a 0.05 grid, so that lists tie,
            # and returning users, so that arrivals share matrix rows.
            catalog, counts, requests = synth_instance(synth, seed=data.draw(st.integers(0, 9)))
            users = data.draw(st.integers(1, len(requests)), "users")
            requests = [replace(req, user_id=f"u{i % users}",
                                relevance=np.round(req.relevance * 20.0) / 20.0)
                        for i, req in enumerate(requests)]
            save_instance(tmp / "data", catalog, counts, requests)
            source = dict(data_path=str(tmp / "data"), schema=LogSchema(list_size=k))
        floors = data.draw(st.one_of(
            st.just([0.0] * providers),
            st.lists(st.sampled_from([0.0, 0.5, 2.0, 3.5, 6.0]),
                     min_size=providers, max_size=providers)), "floors")
        forecaster, params = data.draw(st.sampled_from(FORECASTERS), "forecaster")
        cfg = RunConfig(
            policy=FairnessPolicy(np.array(floors), data.draw(st.sampled_from([0.0, 0.5, 0.9]),
                                                              "phi"), k),
            rerank=RerankConfig(list_size=k, alpha_k=data.draw(st.sampled_from([1.0, 1.5, 2.0])),
                                beta_mix=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                                eta=data.draw(st.sampled_from([0.0, 0.05, 1.0]), "eta")),
            # talmud twice as often: only its claims depend on the traffic total.
            rule=data.draw(st.sampled_from(RULES + ("talmud",)), "rule"),
            forecaster=forecaster, forecaster_params=params,
            tau=data.draw(st.sampled_from([None, 0.3, 2.0]), "tau"),
            relevance_noise=data.draw(st.sampled_from([0.0, 0.1]), "noise"),
            seed=data.draw(st.integers(0, 2**16), "seed"), **source)
        outputs = []
        for name, simulate in (("harness", lambda out: run(replace(cfg, out_dir=str(out)))),
                               ("reference", lambda out: reference_run(cfg, out))):
            try:
                simulate(tmp / name)
            except InfeasibleAllocationError as exc:
                outputs.append(str(exc))
            else:
                outputs.append({file: (tmp / name / file).read_bytes() for file in OUTPUT_FILES})
        assert outputs[0] == outputs[1]


class TestRunConfigValidation:
    def test_exactly_one_source(self):
        with pytest.raises(ConfigError):
            RunConfig(policy=FairnessPolicy([1], 0.9, 5),
                      rerank=RerankConfig(list_size=5, eta=0.05))

    def test_list_size_mismatch(self):
        synth = SynthConfig(num_items=10, num_providers=2, num_intervals=1)
        with pytest.raises(ConfigError):
            RunConfig(policy=FairnessPolicy([1] * 2, 0.9, 10),
                      rerank=RerankConfig(list_size=5, eta=0.05), synth=synth)

    def test_synth_list_size_other_than_k(self):
        synth = SynthConfig(num_items=10, num_providers=2, num_intervals=1, list_size=4)
        with pytest.raises(ConfigError, match="synth spec list_size 4 differs from K 5"):
            RunConfig(policy=FairnessPolicy([1] * 2, 0.9, 5),
                      rerank=RerankConfig(list_size=5, eta=0.05), synth=synth)

    def test_unknown_rule(self):
        synth = SynthConfig(num_items=10, num_providers=2, num_intervals=1)
        with pytest.raises(ConfigError):
            RunConfig(policy=FairnessPolicy([1] * 2, 0.9, 5),
                      rerank=RerankConfig(list_size=5, eta=0.05), synth=synth, rule="greedy")

    def test_floors_neither_one_nor_one_per_provider(self, monkeypatch):
        # Refused when built, so a sweep over such a base stops before any run.
        monkeypatch.setattr(harness, "run", lambda cfg: pytest.fail("a run before the checks"))
        synth = SynthConfig(num_items=10, num_providers=2, num_intervals=1, list_size=3)
        rerank = RerankConfig(list_size=3, eta=0.05)
        for floors in ([1.0], [1.0, 1.0]):
            RunConfig(policy=FairnessPolicy(floors, 0.9, 3), rerank=rerank, synth=synth)
        message = "^policy covers a different number of providers than the catalog$"
        with pytest.raises(ConfigError, match=message):
            sweep(RunConfig(policy=FairnessPolicy([1.0, 1.0, 1.0], 0.9, 3), rerank=rerank,
                            synth=synth), {"rule": ["talmud", "prop"]}, [0, 1])
        with pytest.raises(ConfigError, match=message):
            replace(small_config(), policy=FairnessPolicy([30.0] * 3, 0.95, 5))

    # Checked when the config is built, before any interval is forecast.
    @pytest.mark.parametrize("overrides,key", [
        (dict(seed=-1), "seed"), (dict(seed=1.0), "seed"), (dict(seed=True), "seed"),
        (dict(forecaster="gru"), "gru"),
        (dict(forecaster="moving_average", forecaster_params={"w": 0}), "'w'"),
        (dict(forecaster="seasonal", forecaster_params={"lag": 2.0}), "'lag'"),
        (dict(forecaster="seasonal", forecaster_params={"prior_mean": -1.0}),
         "'prior_mean'"),
        (dict(forecaster="oracle", forecaster_params={"prior_mean": 1.0}), "'prior_mean'")])
    def test_bad_seed_or_forecaster(self, overrides, key):
        with pytest.raises(ConfigError, match=key):
            small_config(**overrides)

    def test_seasonal_takes_the_fallback_window(self):
        cfg = small_config(forecaster="seasonal",
                           forecaster_params={"lag": 2, "w": 2, "prior_mean": 0})
        assert cfg.forecaster_params == {"lag": 2, "w": 2, "prior_mean": 0}


class TestEcho:
    KEYS = {"rule", "data_path", "synth", "forecaster", "forecaster_params", "m", "phi",
            "K", "alpha_k", "beta_mix", "eta", "tau", "seed", "relevance_noise",
            "interval_seconds"}

    def test_exact_keys(self):
        echo = small_config().echo()
        assert set(echo) == self.KEYS and len(echo) == 15

    def test_every_knob_is_echoed(self):
        # A field added to either config without an echo key fails here.
        echo = set(small_config().echo())
        rerank = {"K" if f.name == "list_size" else f.name for f in fields(RerankConfig)}
        run_fields = {f.name for f in fields(RunConfig)} - {"policy", "rerank", "schema",
                                                              "out_dir"}
        assert rerank <= echo
        assert run_fields <= echo


class TestSweep:
    def test_singleton_grid_matches_run(self):
        base = small_config()
        result = sweep(base, {"k": [1.5]}, [0])
        assert len(result.rows) == 1
        direct = run(small_config(seed=0))
        assert result.rows[0]["ndcg"] == direct.ndcg_at_k
        assert result.rows[0]["vio"] == direct.vio_at_k
        assert result.summary[0]["pareto"] is True

    def test_dominated_point_flagged(self):
        base = small_config()
        result = sweep(base, {"rule": ["talmud", "none"]}, [0, 1])
        by_rule = {s["rule"]: s for s in result.summary}
        assert set(by_rule) == {"talmud", "none"}
        # Zero floors make every floor vacuous: perfect accuracy AND esp=1,
        # which dominates the enforced variant on at least one metric.
        result2 = sweep(base, {"m_scale": [0.0, 1.0], "rule": ["none"]}, [0])
        flags = {s["m_scale"]: s["pareto"] for s in result2.summary}
        assert flags[0.0] is True
        assert flags[1.0] is False

    def test_seed_replication_reports_interval(self):
        base = small_config()
        result = sweep(base, {"k": [1.5]}, [0, 1, 2, 3, 4])
        agg = result.summary[0]
        assert agg["runs_ok"] == 5
        ndcgs = np.array([row["ndcg"] for row in result.rows])
        # t.ppf(0.975, 4) times the standard error of the mean.
        assert agg["ndcg_ci95"] == 2.7764451051977934 * ndcgs.std(ddof=1) / math.sqrt(5)
        assert agg["ndcg_ci95"] > 0.0

    def test_t_interval_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        for n in [*range(1, 102), 102, 500, 10_000]:
            values = rng.normal(0.8, 0.05, size=n)
            got = harness._t_interval(values)
            if n == 1:
                assert got == 0.0
                continue
            want = float(stats.t.ppf(0.975, n - 1) * values.std(ddof=1) / math.sqrt(n))
            if n <= 101:  # the table: scipy's bytes
                assert got == want, n
            else:  # the expansion
                assert got == pytest.approx(want, rel=1e-10, abs=0.0), n

    def test_failures_recorded_and_sweep_continues(self):
        synth = SynthConfig(num_items=40, num_providers=4, num_intervals=2,
                            traffic=[0, 20], list_size=5)
        base = small_config(forecaster="moving_average",
                            forecaster_params={"w": 1, "prior_mean": 0.0}, synth=synth)
        result = sweep(base, {"k": [1.2, 1.5]}, [0])
        assert all(row["status"] == "error" for row in result.rows)
        assert len(result.rows) == 2

    def test_grid_validation(self, monkeypatch):
        # Every value is checked, with these messages, before any run.
        monkeypatch.setattr(harness, "run", lambda cfg: pytest.fail("a run before the checks"))
        for grid, seeds, message in [
                (["k"], [0], r"sweep grid must be a dict of lists, got \['k'\]"),
                (None, [0], "sweep grid must be a dict of lists, got None"),
                ({}, [0], "sweep grid must be nonempty"),
                ({"nope": [1]}, [0], r"unknown grid keys: \['nope'\]"),
                ({"k": [1.5]}, [0, 0], "replication seeds must be distinct"),
                ({"k": []}, [0], r"sweep grid 'k' must be a nonempty list, got \[\]"),
                ({"k": [1.5, 3.0]}, [0],
                 r"sweep grid 'k': alpha_k must be a number in \[1, 2\], got 3.0"),
                ({"m_scale": [1.0], "rule": ["greedy"]}, [0],
                 "sweep grid 'rule': unknown allocation rule 'greedy'")]:
            with pytest.raises(ConfigError, match=f"^{message}$"):
                sweep(small_config(), grid, seeds)

    def test_seeds_are_a_list_tuple_or_array(self):
        # A range is refused as a config error naming seeds: every list
        # field takes the same three types.
        base = small_config()
        for seeds in ([0, 1], (0, 1), np.arange(2)):
            assert [row["seed"] for row in sweep(base, {"k": [1.5]}, seeds).rows] == [0, 1]
        with pytest.raises(ConfigError,
                           match=r"^seeds must be a nonempty list, got range\(0, 2\)$"):
            sweep(base, {"k": [1.5]}, range(2))
        with pytest.raises(ConfigError, match="^seeds must be"):
            sweep(base, {"k": [1.5]}, np.zeros((1, 2), dtype=int))

    def test_writes_outputs(self, tmp_path):
        result = sweep(small_config(), {"k": [1.5]}, [0])
        result.write(tmp_path)
        assert (tmp_path / "pareto.csv").exists()
        assert (tmp_path / "runs.csv").exists()
