"""Instance types, synthetic generation, resampling, ingestion round trips and
the relevance matrix."""

import csv
import mmap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bankfair import domain, harness, reranker
from bankfair.domain import (RELEVANCE_FILE, Catalog, FairnessPolicy, LogSchema, SynthConfig,
                             UserRequest, _write_relevance_matrix, load_interactions,
                             redistribute_requests, resample_traffic, save_instance,
                             synth_instance)
from bankfair.errors import ConfigError, ConsistencyError, ParseError
from bankfair.reranker import RerankConfig


class TestCatalog:
    def test_inventory_matches_column_sums(self):
        cat = Catalog(np.array([0, 0, 1, 2, 2, 2]))
        np.testing.assert_array_equal(cat.inventory, [2, 1, 3])
        assert cat.inventory.sum() == cat.num_items

    def test_exposure_of_counts_list_slots(self):
        cat = Catalog(np.array([0, 0, 1, 1]))
        np.testing.assert_array_equal(cat.exposure_of(np.array([0, 2, 3])), [1, 2])

    def test_rejects_empty_and_bad_indices(self):
        with pytest.raises(ConfigError):
            Catalog(np.array([], dtype=int))
        with pytest.raises(ConfigError):
            Catalog(np.array([0, -1]))

    def test_immutable_after_construction(self):
        cat = Catalog(np.array([0, 1]))
        with pytest.raises(ValueError):
            cat.item_provider[0] = 1


class TestFairnessPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FairnessPolicy(np.array([-1.0]), 0.9, 5)
        with pytest.raises(ConfigError):
            FairnessPolicy(np.array([1.0]), 1.5, 5)
        with pytest.raises(ConfigError):
            FairnessPolicy(np.array([1.0]), 0.9, 0)


class TestSynthInstance:
    def test_two_provider_toy_scale(self):
        cfg = SynthConfig(num_items=8, num_providers=2, num_intervals=2,
                          traffic=[3, 2], list_size=5)
        catalog, counts, requests = synth_instance(cfg, seed=1)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, [3, 2])
        np.testing.assert_array_equal(catalog.inventory, [4, 4])
        # 15 exposures available in interval 1, then 10.
        assert [c * cfg.list_size for c in counts] == [15, 10]
        # Arrival order: the first three requests are interval 1's.
        assert [r.user_id for r in requests] == ["0", "1", "2", "3", "4"]

    def test_deterministic_per_seed(self):
        cfg = SynthConfig(num_items=20, num_providers=4, num_intervals=3, mean_traffic=10)
        a = synth_instance(cfg, seed=9)
        b = synth_instance(cfg, seed=9)
        np.testing.assert_array_equal(a[1], b[1])
        for ra, rb in zip(a[2], b[2]):
            assert ra.user_id == rb.user_id
            np.testing.assert_array_equal(ra.relevance, rb.relevance)

    def test_uniform_relevance_mean(self):
        cfg = SynthConfig(num_items=100, num_providers=5, num_intervals=1, traffic=[100])
        _, _, requests = synth_instance(cfg, seed=0)
        values = np.concatenate([r.relevance for r in requests])
        assert values.size == 10_000
        assert abs(values.mean() - 0.5) < 0.02

    def test_provider_bands(self):
        cfg = SynthConfig(num_items=10, num_providers=2, num_intervals=1, traffic=[5],
                          provider_bands=[(0.8, 1.0), (0.0, 0.2)], inventory=[5, 5])
        catalog, _, requests = synth_instance(cfg, seed=2)
        for req in requests:
            assert (req.relevance[:5] >= 0.8).all()
            assert (req.relevance[5:] <= 0.2).all()

    @pytest.mark.parametrize("weights", ["zipf", [1.0, "x"], [1.0, 0.0], [1.0]])
    def test_bad_provider_weights_rejected_on_construction(self, weights):
        with pytest.raises(ConfigError, match="provider_weights"):
            SynthConfig(num_items=4, num_providers=2, num_intervals=1,
                        provider_weights=weights)

    def test_provider_weights_scale_relevance(self):
        cfg = SynthConfig(num_items=4, num_providers=2, num_intervals=1, traffic=[50],
                          inventory=[2, 2], provider_weights=[1.0, 0.25])
        _, _, requests = synth_instance(cfg, seed=0)
        assert max(r.relevance[2:].max() for r in requests) <= 0.25

    def test_more_providers_than_items_rejected(self):
        with pytest.raises(ConfigError):
            synth_instance(SynthConfig(num_items=2, num_providers=3, num_intervals=1), 0)


class TestResampleTraffic:
    def test_sum_preserved(self):
        out = resample_traffic(np.array([5, 9, 2, 14]), tau=0.4, total=200, seed=3)
        assert out.dtype == np.int64 and out.sum() == 200

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_sum_preserved_any_seed(self, seed, tau):
        out = resample_traffic(np.array([3, 1, 7]), tau, 57, seed)
        assert out.sum() == 57

    def test_equal_counts_stay_balanced_in_expectation(self):
        counts = np.array([10, 10, 10, 10])
        totals = np.zeros(4)
        for seed in range(200):
            totals += resample_traffic(counts, tau=0.5, total=100, seed=seed)
        np.testing.assert_allclose(totals / 200, 25.0, atol=1.5)

    def test_small_tau_concentrates(self):
        out = resample_traffic(np.array([10, 0]), tau=0.01, total=100, seed=0)
        assert out[0] >= 99

    def test_tau_one_matches_softmax_monte_carlo(self):
        # Fluctuating daily-style counts; the expected share under tau=1 is the
        # softmax of max-normalized counts, checked against a large multinomial.
        counts = np.array([8200, 9100, 12400, 15800, 11000, 9600, 7300, 6900,
                           14200, 18100, 13300, 9900, 9400, 8700, 7800, 9100])
        logits = counts / counts.max()
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        draws = resample_traffic(counts, tau=1.0, total=100_000, seed=11)
        shares = draws / 100_000
        np.testing.assert_allclose(shares, probs, atol=4 * np.sqrt(probs.max() / 100_000) + 1e-3)

    def test_zero_total_gives_zero_counts(self):
        out = resample_traffic(np.array([0, 0, 0]), tau=0.2, total=0, seed=0)
        assert out.dtype == np.int64 and out.tolist() == [0, 0, 0]
        with pytest.raises(ConfigError, match="total must be >= 0"):
            resample_traffic(np.array([1, 2]), tau=0.2, total=-1, seed=0)

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            resample_traffic(np.array([1]), tau=0.0, total=10, seed=0)
        # counts / (tau * max) overflows: a named error, not NaN probabilities.
        with pytest.raises(ConfigError, match="tau 1e-320"):
            resample_traffic(np.array([1, 5]), tau=1e-320, total=10, seed=0)


class TestRedistributeRequests:
    def test_is_the_seeded_permutation(self):
        cfg = SynthConfig(num_items=6, num_providers=2, num_intervals=2, traffic=[4, 2])
        _, _, requests = synth_instance(cfg, seed=5)
        out = redistribute_requests(requests, seed=7)
        order = np.random.default_rng(7).permutation(len(requests))
        assert len(out) == len(requests)
        assert all(a is requests[i] for a, i in zip(out, order))
        assert sorted(r.user_id for r in out) == sorted(r.user_id for r in requests)


class TestIngestion:
    def _write_csv(self, path, rows):
        path.write_text("user_id,item_id,provider_id,timestamp,score\n"
                        + "".join(f"{r}\n" for r in rows))

    def test_single_interval_grouping(self, tmp_path):
        f = tmp_path / "log.csv"
        self._write_csv(f, ["u1,a,1,100,0.5", "u2,b,1,7000,0.9", "u1,a,1,50000,0.4"])
        catalog, counts, requests = load_interactions(f, LogSchema(interval_seconds=86400))
        np.testing.assert_array_equal(counts, [3])
        assert catalog.num_items == 2 and catalog.num_providers == 1
        assert [r.user_id for r in requests] == ["u1", "u2", "u1"]

    def test_sixteen_day_span(self, tmp_path):
        # One request per day over an inclusive 16-day span.
        f = tmp_path / "log.csv"
        day = 86400
        rows = [f"u{d},i{d},1,{d * day},0.5" for d in range(16)]
        self._write_csv(f, rows)
        _, counts, _ = load_interactions(f, LogSchema(interval_seconds=day))
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, np.ones(16))

    @pytest.mark.parametrize("interval_seconds", [3600.0, 7.3, 86400.0])
    def test_grouping_matches_per_row_reference(self, tmp_path, interval_seconds):
        # Many equal timestamps out of file order: arrivals sort stably by
        # timestamp, and counts come from each row's own interval index.
        rng = np.random.default_rng(int(interval_seconds * 10))
        stamps = rng.choice([7.5, 3600.0, 3599.9, 0.0, 7200.25, 9000.0, 12.0], size=300).tolist()
        users = rng.integers(0, 25, size=300)
        f = tmp_path / "log.csv"
        self._write_csv(f, [f"u{u},i{u % 4},1,{t!r},0.5" for u, t in zip(users, stamps)])
        _, counts, requests = load_interactions(f, LogSchema(interval_seconds=interval_seconds))

        t0 = min(stamps)
        order = sorted(range(300), key=lambda k: (stamps[k], k))
        want = np.zeros(int((max(stamps) - t0) // interval_seconds) + 1, dtype=np.int64)
        for k in order:
            want[int((stamps[k] - t0) // interval_seconds)] += 1
        assert counts.dtype == np.int64 and counts.tolist() == want.tolist()
        assert [r.user_id for r in requests] == [f"u{users[k]}" for k in order]
        first_seen = list(dict.fromkeys(f"u{u}" for u in users))
        assert [r.row for r in requests] == [first_seen.index(r.user_id) for r in requests]
        matrix = requests[0].relevance.base
        assert all(r.relevance.base is matrix
                   and r.relevance.ctypes.data == matrix[r.row].ctypes.data for r in requests)

    def test_empty_file_flags_no_requests(self, tmp_path):
        f = tmp_path / "log.csv"
        self._write_csv(f, [])
        with pytest.raises(ParseError, match="no requests"):
            load_interactions(f)

    def test_malformed_row_reports_line(self, tmp_path):
        f = tmp_path / "log.csv"
        self._write_csv(f, ["u1,a,1,100,0.5", "u2,b,1,not_a_time,0.9"])
        with pytest.raises(ParseError, match="row 3"):
            load_interactions(f)

    # Row numbers count the data rows read, blank lines not included, as
    # csv.DictReader numbered them; the messages are pinned from it.
    NONE_FLOAT = "float() argument must be a string or a real number, not 'NoneType'"

    @pytest.mark.parametrize("text,message", [
        ("u1,a,1,100,0.5\n\nu2,b,1,x,0.9\n",
         "row 3: malformed record (could not convert string to float: 'x')"),
        ("\nu1,a,1,100,0.5\n\nu2,b,1,200,7\n", "row 3: score '7' is not in [0, 1]"),
        ("u1,a,1,100,0.5\nu2,b,1,200\n", f"row 3: malformed record ({NONE_FLOAT})"),
        ("u1,a,1,100,0.5\n\n\nu2,b\n", f"row 3: malformed record ({NONE_FLOAT})"),
        ("u1,a,1,100,0.5\n \n", f"row 3: malformed record ({NONE_FLOAT})")])
    def test_blank_and_short_rows(self, tmp_path, text, message):
        f = tmp_path / "log.csv"
        f.write_text("user_id,item_id,provider_id,timestamp,score\n" + text)
        with pytest.raises(ParseError) as err:
            load_interactions(f)
        assert str(err.value) == message

    def test_short_row_missing_only_ids_is_malformed(self, tmp_path):
        # With the numbers first, a short row lacks ids, not numbers; it used
        # to load with user and item None.
        f = tmp_path / "log.csv"
        f.write_text("score,timestamp,provider_id,item_id,user_id\n0.5,100,1,a,u1\n0.9,200,1\n")
        with pytest.raises(ParseError) as err:
            load_interactions(f)
        assert str(err.value) == "row 3: malformed record (too few fields)"

    @pytest.mark.parametrize("text", [
        "user_id,item_id,provider_id,timestamp,score\nu1,a,1,100,0.5,extra\n\nu2,b,1,200,0.9\n",
        "user_id,item_id,provider_id,timestamp,score,note\nu1,a,1,100,0.5,hi\nu2,b,1,200,0.9\n",
        "score,timestamp,provider_id,item_id,user_id\n0.5,100,1,a,u1\n0.9,200,1,b,u2\n"])
    def test_extra_and_reordered_columns(self, tmp_path, text):
        f = tmp_path / "log.csv"
        f.write_text(text)
        catalog, counts, requests = load_interactions(f, LogSchema(list_size=1))
        np.testing.assert_array_equal(catalog.item_provider, [0, 0])
        np.testing.assert_array_equal(counts, [2])
        assert [r.user_id for r in requests] == ["u1", "u2"]
        np.testing.assert_array_equal(requests[0].relevance, [0.5, 0.0])
        np.testing.assert_array_equal(requests[1].relevance, [0.0, 0.9])

    def test_item_with_two_providers(self, tmp_path):
        f = tmp_path / "log.csv"
        self._write_csv(f, ["u1,a,1,100,0.5", "u2,a,2,200,0.9"])
        with pytest.raises(ConsistencyError):
            load_interactions(f)

    def test_user_profile_from_own_rows(self, tmp_path):
        f = tmp_path / "log.csv"
        self._write_csv(f, ["u1,a,1,100,0.5", "u1,b,1,200,0.9", "u2,b,1,300,0.2"])
        _, _, requests = load_interactions(f, LogSchema(list_size=2))
        first = requests[0]
        np.testing.assert_allclose(first.relevance, [0.5, 0.9])
        assert requests[2].user_id == "u2"
        np.testing.assert_allclose(requests[2].relevance, [0.0, 0.2])

    def test_sparse_catalog_provider_ids_are_remapped(self, tmp_path):
        (tmp_path / "catalog.csv").write_text("item_id,provider_id\na,200\nb,100\nc,200\n")
        self._write_csv(tmp_path / "interactions.csv", ["u1,a,200,100,0.5", "u2,b,100,200,0.9"])
        catalog, _, requests = load_interactions(tmp_path, LogSchema(list_size=1))
        assert catalog.num_providers == 2
        np.testing.assert_array_equal(catalog.item_provider, [1, 0, 1])
        np.testing.assert_array_equal(requests[1].relevance, [0.0, 0.9, 0.0])

    def test_round_trip_identity(self, tmp_path):
        cfg = SynthConfig(num_items=12, num_providers=3, num_intervals=3,
                          traffic=[4, 1, 3], list_size=4, inventory=[6, 4, 2])
        catalog, counts, requests = synth_instance(cfg, seed=13)
        save_instance(tmp_path / "inst", catalog, counts, requests)
        cat2, counts2, requests2 = load_interactions(tmp_path / "inst",
                                                     LogSchema(list_size=4))
        np.testing.assert_array_equal(catalog.item_provider, cat2.item_provider)
        np.testing.assert_array_equal(counts, counts2)
        assert [a.user_id for a in requests] == [b.user_id for b in requests2]
        for a, b in zip(requests, requests2):
            np.testing.assert_array_equal(a.relevance, b.relevance)

    def test_saved_item_is_the_lowest_tied_top_id(self, tmp_path):
        catalog = Catalog(np.array([0, 1, 0, 1]))
        relevance = [[0.2, 0.9, 0.5, 0.9], [0.7, 0.7, 0.7, 0.1], [0.0, 0.0, 0.0, 0.0],
                     [0.1, 0.2, 0.3, 0.4]]
        requests = [UserRequest(f"u{t}", np.array(rel)) for t, rel in enumerate(relevance)]
        save_instance(tmp_path / "inst", catalog, np.array([4]), requests)
        with open(tmp_path / "inst" / "interactions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["item_id"], r["provider_id"]) for r in rows] == [
            ("1", "1"), ("0", "0"), ("0", "0"), ("3", "1")]
        _, _, requests2 = load_interactions(tmp_path / "inst")
        for a, b in zip(requests, requests2):
            np.testing.assert_array_equal(a.relevance, b.relevance)

    def test_total_mismatch_rejected(self, tmp_path):
        # The arrival order is cut by counts, so they must cover every request.
        cfg = SynthConfig(num_items=6, num_providers=2, num_intervals=1, traffic=[3])
        catalog, _, requests = synth_instance(cfg, seed=5)
        with pytest.raises(ConfigError, match="counts sum to 5, but there are 3 requests"):
            save_instance(tmp_path / "inst", catalog, np.array([5]), requests)

    def test_bad_relevance_magic(self, tmp_path):
        cfg = SynthConfig(num_items=4, num_providers=2, num_intervals=1, traffic=[2])
        catalog, counts, requests = synth_instance(cfg, seed=0)
        save_instance(tmp_path / "inst", catalog, counts, requests)
        rel = tmp_path / "inst" / "relevance.bin"
        rel.write_bytes(b"XXXX" + rel.read_bytes()[4:])
        with pytest.raises(ParseError, match="magic"):
            load_interactions(tmp_path / "inst")


def reference_synth(cfg, seed):
    """Relevance drawn one user at a time: the reference for the block draw.

    Returns the (users x items) matrix and the generator's state after the
    last draw.
    """
    rng = np.random.default_rng(seed)
    item_provider = np.repeat(np.arange(cfg.num_providers), cfg.resolve_inventory())
    if cfg.traffic is not None:
        counts = np.asarray(cfg.traffic, dtype=np.int64)
    else:
        counts = rng.poisson(cfg.mean_traffic, size=cfg.num_intervals)
    weights = np.ones(cfg.num_items)
    if cfg.provider_bands is not None:
        bands = np.asarray(cfg.provider_bands, dtype=float)
        lo, hi = bands[item_provider, 0], bands[item_provider, 1]
    else:
        lo, hi = cfg.relevance_low, cfg.relevance_high
        if cfg.provider_weights is not None:
            weights = np.asarray(cfg.provider_weights, dtype=float)[item_provider]
    rows = [np.clip(rng.uniform(lo, hi, size=cfg.num_items) * weights, 0.0, 1.0)
            for _ in range(int(counts.sum()))]
    matrix = np.array(rows).reshape(len(rows), cfg.num_items)
    return matrix, rng.bit_generator.state


def instance_matrix(requests):
    """The one array every request's relevance is a view of."""
    base = requests[0].relevance.base
    assert all(r.relevance.base is base for r in requests)
    return base


class TestRelevanceMatrix:
    CONFIGS = {
        "bands": SynthConfig(num_items=30, num_providers=3, num_intervals=3, traffic=[5, 0, 4],
                             provider_bands=[(0.8, 1.0), (0.0, 0.2), (0.5, 0.5)],
                             inventory=[10, 12, 8], list_size=4),
        "weights": SynthConfig(num_items=20, num_providers=4, num_intervals=2, traffic=[6, 3],
                               relevance_low=0.1, relevance_high=0.9,
                               provider_weights=[1.0, 0.25, 3.0, 0.5]),
        "low_equals_high": SynthConfig(num_items=12, num_providers=2, num_intervals=2,
                                       traffic=[3, 2], relevance_low=0.4, relevance_high=0.4),
        "zero_band": SynthConfig(num_items=6, num_providers=2, num_intervals=1, traffic=[2],
                                 relevance_low=0.0, relevance_high=0.0, list_size=5),
        "poisson": SynthConfig(num_items=25, num_providers=5, num_intervals=4, mean_traffic=7),
        "no_users": SynthConfig(num_items=8, num_providers=2, num_intervals=3, traffic=[0, 0, 0]),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_block_draw_matches_per_user_loop(self, monkeypatch, name):
        cfg = self.CONFIGS[name]
        made = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
        _, counts, requests = synth_instance(cfg, seed=17)
        monkeypatch.undo()
        matrix, state = reference_synth(cfg, seed=17)
        assert len(requests) == int(counts.sum()) == matrix.shape[0]
        served = np.array([r.relevance for r in requests]).reshape(matrix.shape)
        assert served.tobytes() == matrix.tobytes()
        assert made[0].bit_generator.state == state

    def test_matrix_without_huge_page_advice_is_the_same(self, monkeypatch):
        # Where mmap cannot advise huge pages the matrix is numpy's own.
        cfg = self.CONFIGS["weights"]
        _, _, mapped = synth_instance(cfg, seed=4)
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
        _, _, plain = synth_instance(cfg, seed=4)
        assert instance_matrix(plain).flags.owndata
        assert instance_matrix(plain).tobytes() == instance_matrix(mapped).tobytes()
        assert not instance_matrix(plain).flags.writeable

    def test_synth_requests_are_row_views_of_one_read_only_matrix(self):
        cfg = self.CONFIGS["bands"]
        _, counts, requests = synth_instance(cfg, seed=3)
        matrix = instance_matrix(requests)
        assert matrix.shape == (int(counts.sum()), cfg.num_items)
        assert not matrix.flags.writeable
        for row, req in enumerate(requests):
            assert np.shares_memory(req.relevance, matrix)
            assert req.row == row and req.relevance.ctypes.data == matrix[row].ctypes.data
            with pytest.raises(ValueError):
                req.relevance[0] = 0.5

    def test_instance_matrix_is_the_one_the_rows_view(self):
        _, _, requests = synth_instance(self.CONFIGS["weights"], seed=2)
        assert domain.instance_matrix(requests) is instance_matrix(requests)
        with pytest.raises(ConfigError, match="row views of one instance matrix"):
            domain.instance_matrix([UserRequest("u0", np.zeros(4))])

    def _write_log(self, directory, rows):
        directory.mkdir()
        (directory / "catalog.csv").write_text("item_id,provider_id\na,0\nb,0\nc,1\n")
        (directory / "interactions.csv").write_text(
            "user_id,item_id,provider_id,timestamp,score\n" + "".join(f"{r}\n" for r in rows))

    # (user, item) cells repeat, the last in file order out of timestamp order.
    ROWS = ([f"u1,a,0,{500 - t},{t / 100}" for t in range(40)]
            + ["u2,c,1,50,0.3", "u1,b,0,60,0.8", "u2,c,1,700,0.6", "u1,a,0,10,0.25",
               "u2,a,0,20,0.1", "u2,c,1,30,0.45"])

    def test_log_last_occurrence_wins(self, tmp_path):
        self._write_log(tmp_path / "log", self.ROWS)
        _, counts, requests = load_interactions(tmp_path / "log", LogSchema(list_size=1))
        assert int(counts.sum()) == len(self.ROWS)
        matrix = instance_matrix(requests)
        assert matrix.tobytes() == np.array([[0.25, 0.8, 0.0], [0.1, 0.0, 0.45]]).tobytes()
        by_user = {r.user_id: r.relevance for r in requests}
        assert all(r.relevance is by_user[r.user_id] for r in requests)

    def test_log_with_relevance_bin_serves_its_rows(self, tmp_path):
        # With the sidecar, logged scores do not enter relevance: each user's
        # arrivals, repeated (user, item) rows included, share the user's row.
        self._write_log(tmp_path / "log", self.ROWS)
        sidecar = np.array([[0.9, 0.5, 0.125], [0.0, 0.75, 1.0]])
        _write_relevance_matrix(tmp_path / "log" / RELEVANCE_FILE, sidecar)
        _, _, requests = load_interactions(tmp_path / "log", LogSchema(list_size=1))
        matrix = instance_matrix(requests)
        assert matrix.tobytes() == sidecar.tobytes()
        by_user = {r.user_id: r.relevance for r in requests}
        assert all(r.relevance is by_user[r.user_id] for r in requests)
        assert by_user["u1"].tobytes() == sidecar[0].tobytes()

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_log_requests_are_row_views_of_one_read_only_matrix(self, tmp_path, sidecar):
        self._write_log(tmp_path / "log", self.ROWS)
        if sidecar:
            _write_relevance_matrix(tmp_path / "log" / RELEVANCE_FILE, np.full((2, 3), 0.5))
        _, _, requests = load_interactions(tmp_path / "log", LogSchema(list_size=1))
        matrix = instance_matrix(requests)
        assert matrix.shape == (2, 3) and not matrix.flags.writeable
        for req in requests:
            assert np.shares_memory(req.relevance, matrix)
            with pytest.raises(ValueError):
                req.relevance[1] = 0.0

    def test_noisy_run_serves_per_arrival_noise(self, monkeypatch):
        # The harness draws one noise block per interval; the reference draws
        # one vector per arrival from the same sub-seed, in arrival order.
        cfg = harness.RunConfig(
            policy=FairnessPolicy.uniform(10.0, 3, phi=0.9, k=4),
            rerank=RerankConfig(list_size=4, eta=1e-3),
            synth=SynthConfig(num_items=21, num_providers=3, num_intervals=4,
                              traffic=[5, 0, 7, 3], list_size=4),
            forecaster="oracle", seed=5, relevance_noise=0.05)
        served = []
        real = reranker.run_interval
        monkeypatch.setattr(reranker, "run_interval",
                            lambda rel, *a, **kw: served.append(np.array(rel)) or real(rel, *a, **kw))
        harness.run(cfg)
        instance_seed, _, _, noise_seed = (
            s.generate_state(1)[0] for s in np.random.SeedSequence(cfg.seed).spawn(4))
        _, counts, requests = synth_instance(cfg.synth, instance_seed)
        rng = np.random.default_rng(noise_seed)
        expected = [np.clip(r.relevance + rng.normal(0.0, 0.05, size=r.relevance.shape), 0, 1)
                    for r in requests]
        assert [len(block) for block in served] == [c for c in counts if c]
        assert np.concatenate(served).tobytes() == np.array(expected).tobytes()
