"""Instance types, synthetic generation, resampling, ingestion round trips and
the relevance matrix."""

import csv
import hashlib
import mmap
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_cli_fuzz import draw_log

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

    def test_rejects_empty_and_bad_indices(self):
        with pytest.raises(ConfigError):
            Catalog(np.array([], dtype=int))
        with pytest.raises(ConfigError):
            Catalog(np.array([0, -1]))
        # The int64 cast would truncate 0.5 and 1.7 to providers 0 and 1.
        with pytest.raises(ConfigError, match="^item->provider map must be integers, "
                                              "got dtype float64$"):
            Catalog(np.array([0.5, 1.7]))
        with pytest.raises(ConfigError, match="got dtype bool$"):
            Catalog(np.array([True, False]))

    @pytest.mark.parametrize("item_provider,idle", [([0, 2], 1), ([1, 1], 0), ([0, 10**15], 1)])
    def test_rejects_a_provider_without_items(self, item_provider, idle):
        with pytest.raises(ConfigError, match=f"provider {idle} owns no item"):
            Catalog(np.array(item_provider))

    def test_immutable_after_construction(self):
        cat = Catalog(np.array([0, 1]))
        with pytest.raises(ValueError):
            cat.item_provider[0] = 1

    def test_equality_and_hash_go_by_identity(self):
        # A generated __eq__ would compare the arrays and raise.
        a, b = Catalog(np.array([0, 1])), Catalog(np.array([0, 1]))
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert a in [a] and a not in [b]
        assert len({a, b}) == 2


class TestFairnessPolicy:
    def test_equality_and_hash_go_by_identity(self):
        # A generated __eq__ would compare the floor arrays and raise.
        a, b = FairnessPolicy([1.0, 2.0], 0.9, 5), FairnessPolicy([1.0, 2.0], 0.9, 5)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert a in [a] and a not in [b]
        assert len({a, b}) == 2

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

    def test_even_inventory_gives_the_remainder_to_the_first_providers(self):
        cfg = SynthConfig(num_items=10, num_providers=3, num_intervals=1, traffic=[0])
        np.testing.assert_array_equal(synth_instance(cfg, 0)[0].inventory, [4, 3, 3])

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

    @pytest.mark.parametrize("bands", ["zipf", [(0.0, 1.0), "x"], [(0.0, 1.0)],
                                       [(0.0, 1.0), (0.1, 0.2, 0.3)], [(0.0, 1.0), (0.5, 1.5)],
                                       [(0.0, 1.0), (0.9, 0.1)], [(0.0, 1.0), (0.3, 0.2999)]])
    def test_bad_provider_bands_rejected_on_construction(self, bands):
        with pytest.raises(ConfigError, match="^provider_bands must be None or a list of 2 "
                                              r"\(low, high\) pairs with 0 <= low <= high <= 1"):
            SynthConfig(num_items=4, num_providers=2, num_intervals=1, provider_bands=bands)

    # sha256 of the matrices that the removed relevance_low, relevance_high and
    # provider_weights fields drew. The bands that replace them draw the same bytes.
    @staticmethod
    def drawn(seed, **fields):
        return instance_matrix(synth_instance(SynthConfig(**fields), seed)[2])

    def test_provider_weights_scale_relevance(self):
        # Weights w <= 1 scaled the uniform [0, 1) draw: bands (0, w) draw it.
        matrix = self.drawn(3, num_items=40, num_providers=4, num_intervals=1, traffic=[50],
                            provider_bands=[(0.0, 0.3)] + [(0.0, 1.0)] * 3)  # [0.3, 1, 1, 1]
        assert hashlib.sha256(matrix.tobytes()).hexdigest() == (
            "665d439ed03d62fd652c619bbc54631331b01df6fae73fc59b17ce1c384587a5")
        assert matrix[:, :10].max() < 0.3

    def test_one_band_for_all_providers_replaces_relevance_low_and_high(self):
        matrix = self.drawn(5, num_items=30, num_providers=3, num_intervals=2, mean_traffic=8,
                            provider_bands=[(0.1, 0.9)] * 3)  # low 0.1, high 0.9
        assert hashlib.sha256(matrix.tobytes()).hexdigest() == (
            "498ae5ad513bb569f8038dba46d140193120603877164e65415492f7836201b6")

    def test_num_intervals_is_bounded_like_a_logs_span(self):
        SynthConfig(num_items=4, num_providers=2, num_intervals=domain.MAX_INTERVALS)
        for bad in (domain.MAX_INTERVALS + 1, 10**13):
            with pytest.raises(ConfigError, match=r"^num_intervals must be an int in "
                                                  rf"\[1, {domain.MAX_INTERVALS}\], got {bad}"):
                SynthConfig(num_items=4, num_providers=2, num_intervals=bad)

    # Checked on construction: the counts must add up.
    @pytest.mark.parametrize("fields,message", [
        (dict(inventory=[5, 4]), "explicit inventory must cover all items"),
        (dict(inventory=[4, 3, 3]), "explicit inventory must cover all items"),
        (dict(traffic=[1, 2, 3]), "explicit traffic length must equal the horizon")])
    def test_spec_that_does_not_add_up(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SynthConfig(num_items=10, num_providers=2, num_intervals=2, **fields)

    def test_more_providers_than_items_rejected(self):
        with pytest.raises(ConfigError, match="^more providers than items$"):
            SynthConfig(num_items=2, num_providers=3, num_intervals=1)


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
        # Below 2**-53, where counts / (tau * max) could overflow: a named
        # error, not NaN probabilities.
        with pytest.raises(ConfigError,
                           match=r"^tau must be a number in \[2\*\*-53, 2\*\*53\], got 1e-320$"):
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

    def test_interval_with_more_arrivals_than_seconds_rejected(self, tmp_path):
        # Arrivals are stamped one second apart from the interval's start: five
        # of them in 4 s would reload as [4, 4].
        cfg = SynthConfig(num_items=6, num_providers=2, num_intervals=2, traffic=[5, 3])
        catalog, counts, requests = synth_instance(cfg, seed=0)
        with pytest.raises(ConfigError, match="^interval 1 has 5 arrivals, more than fit "
                                              "one second apart in its 4 s$"):
            save_instance(tmp_path / "inst", catalog, counts, requests, interval_seconds=4)
        assert not (tmp_path / "inst").exists()
        save_instance(tmp_path / "inst", catalog, counts, requests, interval_seconds=5)
        _, counts2, _ = load_interactions(tmp_path / "inst", LogSchema(interval_seconds=5))
        np.testing.assert_array_equal(counts2, [5, 3])

    def test_reload_drops_empty_intervals_at_either_end(self, tmp_path):
        # A log spans its first timestamp to its last.
        cfg = SynthConfig(num_items=6, num_providers=2, num_intervals=4, traffic=[0, 3, 2, 0])
        catalog, counts, requests = synth_instance(cfg, seed=0)
        save_instance(tmp_path / "inst", catalog, counts, requests)
        np.testing.assert_array_equal(load_interactions(tmp_path / "inst")[1], [3, 2])

    def test_no_requests_saves_an_empty_matrix(self, tmp_path):
        cfg = SynthConfig(num_items=6, num_providers=2, num_intervals=2, traffic=[0, 0])
        catalog, counts, requests = synth_instance(cfg, seed=0)
        save_instance(tmp_path / "inst", catalog, counts, requests)
        assert domain._read_relevance_matrix(tmp_path / "inst" / RELEVANCE_FILE).shape == (0, 6)
        with pytest.raises(ParseError, match="no requests"):
            load_interactions(tmp_path / "inst")

    def test_bad_relevance_magic(self, tmp_path):
        cfg = SynthConfig(num_items=4, num_providers=2, num_intervals=1, traffic=[2])
        catalog, counts, requests = synth_instance(cfg, seed=0)
        save_instance(tmp_path / "inst", catalog, counts, requests)
        rel = tmp_path / "inst" / "relevance.bin"
        rel.write_bytes(b"XXXX" + rel.read_bytes()[4:])
        with pytest.raises(ParseError, match="magic"):
            load_interactions(tmp_path / "inst")


def reference_synth(cfg, item_provider, seed):
    """Relevance drawn one user at a time: the reference for the block draw.

    ``item_provider`` is the drawn catalog's. Returns the (users x items)
    matrix and the generator's state after the last draw.
    """
    rng = np.random.default_rng(seed)
    if cfg.traffic is not None:
        counts = np.asarray(cfg.traffic, dtype=np.int64)
    else:
        counts = rng.poisson(cfg.mean_traffic, size=cfg.num_intervals)
    bands = [(0.0, 1.0)] * cfg.num_providers if cfg.provider_bands is None else cfg.provider_bands
    bands = np.asarray(bands, dtype=float)
    lo, hi = bands[item_provider, 0], bands[item_provider, 1]
    rows = [np.clip(rng.uniform(lo, hi, size=cfg.num_items), 0.0, 1.0)
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
        # The bands (0, w) that replace provider weights w <= 1.
        "weights": SynthConfig(num_items=20, num_providers=4, num_intervals=2, traffic=[6, 3],
                               provider_bands=[(0.0, 1.0), (0.0, 0.25), (0.0, 0.9), (0.0, 0.5)]),
        "low_equals_high": SynthConfig(num_items=12, num_providers=2, num_intervals=2,
                                       traffic=[3, 2], provider_bands=[(0.4, 0.4)] * 2),
        "zero_band": SynthConfig(num_items=6, num_providers=2, num_intervals=1, traffic=[2],
                                 provider_bands=[(0.0, 0.0)] * 2, list_size=5),
        "poisson": SynthConfig(num_items=25, num_providers=5, num_intervals=4, mean_traffic=7),
        "no_users": SynthConfig(num_items=8, num_providers=2, num_intervals=3, traffic=[0, 0, 0]),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_block_draw_matches_per_user_loop(self, monkeypatch, name):
        cfg = self.CONFIGS[name]
        made = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
        catalog, counts, requests = synth_instance(cfg, seed=17)
        monkeypatch.undo()
        matrix, state = reference_synth(cfg, catalog.item_provider, seed=17)
        assert len(requests) == int(counts.sum()) == matrix.shape[0]
        served = np.array([r.relevance for r in requests]).reshape(matrix.shape)
        assert served.tobytes() == matrix.tobytes()
        assert made[0].bit_generator.state == state

    def test_band_edges_stay_in_the_unit_interval_unclipped(self, monkeypatch):
        # The extreme uniform draws 0, 2**-53 and 1 - 2**-53 in bands with
        # hi = 1, lo = hi, a tiny lo and a power-of-two hi give exactly
        # lo + (hi - lo) * u, inside [0, 1]: the draw needs no clip.
        us = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53])
        bands = [(0.3, 1.0), (0.0, 1.0), (0.4, 0.4), (1.0, 1.0), (0.0, 0.0), (2.0**-54, 1.0),
                 (5e-324, 1.0), (5e-324, 5e-324), (0.1, 0.5), (0.0, 0.25), (0.3, 2.0**-1)]
        cfg = SynthConfig(num_items=2 * len(bands), num_providers=len(bands), num_intervals=1,
                          traffic=[us.size], provider_bands=bands)

        class Draws:  # row u of the matrix draws us[u] for every item
            def random(self, out):
                out[...] = us[:, None]
                return out

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
        catalog, _, requests = synth_instance(cfg, seed=0)
        matrix = np.array([r.relevance for r in requests])
        lo, hi = np.array(bands)[catalog.item_provider].T
        assert matrix.tobytes() == (lo + (hi - lo) * us[:, None]).tobytes()
        assert matrix.min() >= 0.0 and matrix.max() == 1.0
        assert 1.0 in matrix[2, catalog.item_provider == 5]  # 2**-54 + (1 - 2**-53) rounds up

    @pytest.mark.parametrize("items", [100, 9000])
    def test_blocks_continue_one_stream(self, monkeypatch, items):
        # Drawn in several blocks, with a short last one, the matrix is the
        # per-user loop's.
        cfg = SynthConfig(num_items=items, num_providers=4, num_intervals=2, traffic=[90, 113],
                          provider_bands=[(0.2, 0.9), (0.0, 1.0), (0.5, 0.5), (0.0, 0.3)])
        made = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
        catalog, _, requests = synth_instance(cfg, seed=3)
        monkeypatch.undo()
        matrix, state = reference_synth(cfg, catalog.item_provider, seed=3)
        assert np.array([r.relevance for r in requests]).tobytes() == matrix.tobytes()
        assert made[0].bit_generator.state == state

    def test_rows_drawn_alone_by_jump_ahead_are_the_blocks(self):
        # Row r is random(num_items), scaled by the bands, from the generator
        # after the counts draw advanced by r * num_items doubles.
        cfg = SynthConfig(num_items=10_000, num_providers=4, num_intervals=1, traffic=[700],
                          provider_bands=[(0.2, 0.9), (0.0, 1.0), (0.5, 0.5), (0.0, 0.3)])
        catalog, _, requests = synth_instance(cfg, seed=11)
        matrix = instance_matrix(requests)
        bands = np.array(cfg.provider_bands)[catalog.item_provider]
        start = np.random.default_rng(11).bit_generator.state  # explicit traffic draws nothing
        for row in (0, 1, 5, 333, 699):
            bits = np.random.PCG64()
            bits.state = start
            bits.advance(row * cfg.num_items)
            u = np.random.Generator(bits).random(cfg.num_items)
            alone = u * (bands[:, 1] - bands[:, 0]) + bands[:, 0]
            assert alone.tobytes() == matrix[row].tobytes()

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
            policy=FairnessPolicy([10.0] * 3, 0.9, 4),
            rerank=RerankConfig(list_size=4, eta=1e-3),
            synth=SynthConfig(num_items=21, num_providers=3, num_intervals=4,
                              traffic=[5, 0, 7, 3], list_size=4),
            forecaster="oracle", seed=5, relevance_noise=0.05)
        served = []
        real = reranker.run_interval

        def serve(block, rows, *args):
            served.append(block[rows])
            return real(block, rows, *args)

        monkeypatch.setattr(reranker, "run_interval", serve)
        harness.run(cfg)
        instance_seed, _, _, noise_seed = (
            s.generate_state(1)[0] for s in np.random.SeedSequence(cfg.seed).spawn(4))
        _, counts, requests = synth_instance(cfg.synth, instance_seed)
        rng = np.random.default_rng(noise_seed)
        expected = [np.clip(r.relevance + rng.normal(0.0, 0.05, size=r.relevance.shape), 0, 1)
                    for r in requests]
        assert [len(block) for block in served] == counts.tolist()
        assert np.concatenate(served).tobytes() == np.array(expected).tobytes()


def reference_read_relevance(path):
    """The sidecar read as one bytes copy and three full-size masks."""
    raw = path.read_bytes()
    if len(raw) < domain._HEADER.size:
        raise ParseError(f"{path}: truncated relevance file")
    magic, nu, ni, width = domain._HEADER.unpack_from(raw)
    if magic != domain.RELEVANCE_MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if width not in (4, 8):
        raise ParseError(f"{path}: unsupported element width {width}")
    body = np.frombuffer(raw, dtype=np.float32 if width == 4 else np.float64,
                         offset=domain._HEADER.size)
    if body.size != nu * ni:
        raise ParseError(f"{path}: payload size does not match header")
    matrix = body.reshape(nu, ni).astype(np.float64)
    bad = ~((matrix >= 0.0) & (matrix <= 1.0))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ParseError(f"{path}: matrix row {row}, column {col}: relevance "
                         f"{float(matrix[row, col])!r} is not in [0, 1]")
    return matrix


def reference_load(path, schema):
    """Log ingestion one parsed row at a time: the reference for the columns.

    Every row becomes a tuple, the catalog checks and the profile writes run
    once per row, and every arrival gets its own request. Returns what
    ``load_interactions`` returns, with the matrix in place of the requests'
    views: (catalog, counts, [(user_id, row)], matrix).
    """
    csv_path, cat_path, rel_path = path, None, None
    if path.is_dir():
        csv_path = path / domain.INTERACTIONS_FILE
        cat_path = path / domain.CATALOG_FILE if (path / domain.CATALOG_FILE).exists() else None
        rel_path = path / RELEVANCE_FILE if (path / RELEVANCE_FILE).exists() else None
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = {name: k for k, name in enumerate(next(reader, []))}
        if set(domain.INTERACTIONS_COLUMNS) - set(header):
            raise ParseError(f"{csv_path}: header must contain "
                             f"{','.join(domain.INTERACTIONS_COLUMNS)}")
        columns = [header[name] for name in domain.INTERACTIONS_COLUMNS]
        rows = [domain._parse_row(row, columns, lineno)
                for lineno, row in enumerate(filter(None, reader), start=2)]
    if not rows:
        raise ParseError(f"{csv_path}: no requests")
    if cat_path is not None:
        catalog_provider = {}
        with open(cat_path, newline="") as fh:
            for lineno, row in enumerate(csv.DictReader(fh), start=2):
                try:
                    iid, provider = row["item_id"], int(row["provider_id"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ParseError(f"{cat_path} row {lineno}: {exc}") from None
                if iid in catalog_provider:
                    raise ParseError(f"{cat_path} row {lineno}: duplicate item id {iid!r}")
                catalog_provider[iid] = provider
        for lineno, (_, iid, pid, _, _) in enumerate(rows, start=2):
            if iid not in catalog_provider:
                raise ParseError(f"row {lineno}: item {iid!r} is not in {cat_path}")
            try:
                consistent = int(pid) == catalog_provider[iid]
            except ValueError:
                consistent = False
            if not consistent:
                raise ConsistencyError(f"row {lineno}: item {iid!r} has provider {pid!r}, "
                                       f"{cat_path} says {catalog_provider[iid]}")
        item_index = {iid: k for k, iid in enumerate(catalog_provider)}
        _, item_provider = np.unique(np.asarray(list(catalog_provider.values()), dtype=np.int64),
                                     return_inverse=True)
    else:
        item_index, provider_index, item_provider = {}, {}, []
        for lineno, (_, iid, pid, _, _) in enumerate(rows, start=2):
            p = provider_index.setdefault(pid, len(provider_index))
            if iid in item_index:
                if item_provider[item_index[iid]] != p:
                    raise ConsistencyError(f"row {lineno}: item {iid!r} listed under two providers")
            else:
                item_index[iid] = len(item_provider)
                item_provider.append(p)
    catalog = Catalog(np.asarray(item_provider, dtype=np.int64))
    user_order = {}
    for uid, *_ in rows:
        user_order.setdefault(uid, len(user_order))
    if rel_path is not None:
        matrix = reference_read_relevance(rel_path)
        if matrix.shape != (len(user_order), catalog.num_items):
            raise ParseError(f"{rel_path}: matrix shape {matrix.shape} does not match "
                             f"{len(user_order)} users x {catalog.num_items} items")
    else:
        matrix = np.zeros((len(user_order), catalog.num_items))
        for uid, iid, _, _, score in rows:
            matrix[user_order[uid], item_index[iid]] = score
    order, counts = domain._group_by_interval([r[3] for r in rows], schema.interval_seconds)
    arrivals = [(rows[k][0], user_order[rows[k][0]]) for k in order.tolist()]
    return catalog, counts, arrivals, matrix


def load_outcome(load, path, schema):
    """What a loader returns, as comparable values, or its error's type and message."""
    try:
        catalog, counts, arrivals, matrix = load(path, schema)
    except Exception as exc:
        return type(exc), str(exc)
    return (catalog.item_provider.tolist(), catalog.num_providers, counts.tolist(),
            arrivals, matrix.shape, matrix.tobytes())


def columnar_load(path, schema):
    catalog, counts, requests = load_interactions(path, schema)
    matrix = domain.instance_matrix(requests)
    return catalog, counts, [(r.user_id, r.row) for r in requests], matrix


def draw_replay_log(data, directory):
    """``draw_log``'s files plus a few rows that may list an item under another
    provider or name an item the catalog lacks."""
    draw_log(data, directory)
    path = directory / domain.INTERACTIONS_FILE
    lines = path.read_text().splitlines()
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]), "extra rows")):
        row = {"user_id": f"u{data.draw(st.integers(0, 5))}",
               "item_id": f"i{data.draw(st.integers(0, 9))}",
               "provider_id": str(data.draw(st.integers(0, 3))),
               "timestamp": str(data.draw(st.integers(0, 4 * 3600))), "score": "0.5"}
        lines.insert(data.draw(st.integers(1, len(lines))),
                     ",".join(row[name] for name in lines[0].split(",")))
    path.write_text("\n".join(lines) + "\n")


class TestColumnarIngestion:
    """The typed-column loader against the row-wise reference."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_wise_reference(self, data):
        schema = LogSchema(interval_seconds=data.draw(st.sampled_from([3600.0, 7.3, 86400.0])))
        chunk_rows = data.draw(st.sampled_from([3, domain._CHUNK_ROWS]), "chunk rows")
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(domain, "_CHUNK_ROWS", chunk_rows)
            directory = Path(tmp)
            draw_replay_log(data, directory)
            path = directory
            if data.draw(st.booleans(), "the csv file alone"):
                path = directory / domain.INTERACTIONS_FILE
            want = load_outcome(reference_load, path, schema)
            assert load_outcome(columnar_load, path, schema) == want

    CATALOG = "item_id,provider_id\na,0\nb,0\nc,1\n"

    @pytest.mark.parametrize("catalog,rows", [
        # An unknown item, then a malformed row: the malformed row wins.
        (True, ["u1,zz,0,1,0.5", "u2,a,0,2,0.5", "u3,b,0,x,0.5"]),
        # An item that changes provider, after repeats of its first pair.
        (True, ["u1,a,0,1,0.5", "u1,a,0,2,0.6", "u2,c,1,3,0.5", "u2,a,1,4,0.5"]),
        (False, ["u1,a,0,1,0.5", "u1,a,0,2,0.6", "u2,c,1,3,0.5", "u2,a,1,4,0.5"]),
        # The same provider spelled two ways is one provider in the catalog.
        (True, ["u1,c,1,1,0.5", "u2,c,01,2,0.5", "u2,a,x,3,0.5"]),
        # Blank lines do not count as rows, before and between the rows.
        (True, ["", "u1,b,0,1,0.5", "", "", "u2,zz,0,2,0.5"]),
        (False, ["", "u1,a,0,5,0.5", "", "u2,b,0,1,0.25", "", "u1,a,0,3,0.75", ""]),
    ])
    def test_pinned_cases_match_reference(self, tmp_path, catalog, rows):
        if catalog:
            (tmp_path / domain.CATALOG_FILE).write_text(self.CATALOG)
        (tmp_path / domain.INTERACTIONS_FILE).write_text(
            "user_id,item_id,provider_id,timestamp,score\n" + "".join(f"{r}\n" for r in rows))
        schema = LogSchema(interval_seconds=2.0)
        want = load_outcome(reference_load, tmp_path, schema)
        assert load_outcome(columnar_load, tmp_path, schema) == want

    GOOD = ["u1,a,0,1,0.5", "u2,b,0,2,0.25", "u1,c,1,3,0.75", "u3,a,0,4,1.0", "u2,c,1,5,0.0"]

    # Chunks of 3 rows. (rows, whether there is a catalog, the error or None.)
    @pytest.mark.parametrize("rows,catalog,error", [
        # Blank lines before, inside and across chunk boundaries.
        (["", *GOOD[:3], "", "", *GOOD[3:], "", "u4,b,0,6,0.5", ""], True, None),
        (["", *GOOD[:3], "", "", *GOOD[3:], "", "u4,b,0,6,0.5", ""], False, None),
        # A bad row first, last, or in a later chunk; the first bad row wins.
        (["u0,a,0,x,0.5", *GOOD], True,
         (ParseError, "row 2: malformed record (could not convert string to float: 'x')")),
        ([*GOOD, "u0,a,0,9,1.5"], False, (ParseError, "row 7: score '1.5' is not in [0, 1]")),
        ([*GOOD[:4], "", "u0,a,0,inf,0.5", "u0,a,0,9,nan"], True,
         (ParseError, "row 6: timestamp 'inf' is not finite")),
        ([*GOOD, "u0,a,0,9,nan"], True, (ParseError, "row 7: score 'nan' is not in [0, 1]")),
        ([*GOOD[:4], "u0,a,0"], False, (ParseError, "row 6: malformed record "
                                        f"({TestIngestion.NONE_FLOAT})")),
        # An item's second provider in a later chunk than its first.
        ([*GOOD[:4], "u4,a,1,6,0.5"], True,
         (ConsistencyError, "row 6: item 'a' has provider '1', "
                            "{path}/catalog.csv says 0")),
        ([*GOOD[:4], "u4,a,1,6,0.5"], False,
         (ConsistencyError, "row 6: item 'a' listed under two providers")),
    ])
    def test_chunks_match_reference(self, tmp_path, monkeypatch, rows, catalog, error):
        monkeypatch.setattr(domain, "_CHUNK_ROWS", 3)
        if catalog:
            (tmp_path / domain.CATALOG_FILE).write_text(self.CATALOG)
        (tmp_path / domain.INTERACTIONS_FILE).write_text(
            "user_id,item_id,provider_id,timestamp,score\n" + "".join(f"{r}\n" for r in rows))
        schema = LogSchema(interval_seconds=2.0)
        got = load_outcome(columnar_load, tmp_path, schema)
        assert got == load_outcome(reference_load, tmp_path, schema)
        if error is not None:
            assert got == (error[0], error[1].format(path=tmp_path))

    def test_pinned_messages(self, tmp_path):
        (tmp_path / domain.CATALOG_FILE).write_text(self.CATALOG)
        log = tmp_path / domain.INTERACTIONS_FILE
        header = "user_id,item_id,provider_id,timestamp,score\n"
        log.write_text(header + "u1,zz,0,1,0.5\nu2,a,0,2,0.5\nu3,b,0,x,0.5\n")
        with pytest.raises(ParseError, match=r"^row 4: malformed record"):
            load_interactions(tmp_path)
        log.write_text(header + "u1,a,0,1,0.5\n\nu1,a,0,2,0.6\nu2,a,1,4,0.5\n")
        with pytest.raises(ConsistencyError, match=r"^row 4: item 'a' has provider '1'"):
            load_interactions(tmp_path)

    def test_one_request_per_user(self, tmp_path):
        (tmp_path / domain.INTERACTIONS_FILE).write_text(
            "user_id,item_id,provider_id,timestamp,score\n"
            "u1,a,0,1,0.5\nu2,b,0,2,0.5\nu1,b,0,3,0.5\nu1,a,0,4,0.5\n")
        _, _, requests = load_interactions(tmp_path)
        assert [r.user_id for r in requests] == ["u1", "u2", "u1", "u1"]
        assert requests[0] is requests[2] is requests[3]
        with pytest.raises(AttributeError):
            requests[0].row = 1

    def test_width_four_sidecar_reads_as_float64(self, tmp_path):
        (tmp_path / domain.INTERACTIONS_FILE).write_text(
            "user_id,item_id,provider_id,timestamp,score\nu1,a,0,1,0.5\nu2,b,0,2,0.5\n")
        values = np.array([[0.1, 0.7], [1.0, 0.0]], dtype=np.float32)
        (tmp_path / RELEVANCE_FILE).write_bytes(
            domain._HEADER.pack(domain.RELEVANCE_MAGIC, 2, 2, 4) + values.tobytes())
        _, _, requests = load_interactions(tmp_path)
        matrix = domain.instance_matrix(requests)
        assert matrix.dtype == np.float64
        assert matrix.tobytes() == values.astype(np.float64).tobytes()

    @pytest.mark.parametrize("cut", [1, 8])
    def test_sidecar_payload_size_checked(self, tmp_path, cut):
        (tmp_path / domain.INTERACTIONS_FILE).write_text(
            "user_id,item_id,provider_id,timestamp,score\nu1,a,0,1,0.5\n")
        _write_relevance_matrix(tmp_path / RELEVANCE_FILE, np.full((1, 1), 0.5))
        sidecar = tmp_path / RELEVANCE_FILE
        sidecar.write_bytes(sidecar.read_bytes()[:-cut])
        with pytest.raises(ParseError, match="payload size does not match header"):
            load_interactions(tmp_path)
