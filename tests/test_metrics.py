"""Metric definitions: pinned hand values, permutation oracle, aggregation."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bankfair.errors import ConfigError
from bankfair.reranker import top_k
from bankfair.metrics import (_DCG_CHUNK, SimReport, dcg, esp_at_k, feasible_region_ratio,
                              ndcg_at_k, spearman_rho, top_k_dcg, vio_at_k)
from test_reranker import reference_top_k


class TestNdcg:
    def test_identity_is_exactly_one(self):
        rel = np.array([0.9, 0.8, 0.1])
        lst = np.array([0, 1])
        assert ndcg_at_k(rel[lst], dcg(rel[lst])) == 1.0

    def test_hand_computed_swap(self):
        # Swap the rank-2 item for the weakest one; oracle is the definition
        # evaluated directly.
        rel = np.array([0.9, 0.8, 0.1])
        original = np.array([0, 1])
        swapped = np.array([0, 2])
        expected = (0.9 / math.log2(2) + 0.1 / math.log2(3)) / \
                   (0.9 / math.log2(2) + 0.8 / math.log2(3))
        got = ndcg_at_k(rel[swapped], dcg(rel[original]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.68560, abs=1e-4)

    def test_tied_items_swap_freely(self):
        # Items of equal relevance are interchangeable: a list that takes a
        # tied item in place of top_k's lower id scores exactly 1.
        rel = np.array([0.5, 0.5, 0.5, 0.1])
        ideal = top_k(rel, 2)
        np.testing.assert_array_equal(ideal, [0, 1])
        assert ndcg_at_k(rel[[2, 0]], dcg(rel[ideal])) == 1.0
        assert ndcg_at_k(rel[[3, 0]], dcg(rel[ideal])) < 1.0

    def test_permutation_oracle(self):
        # Any permutation of the top-K set scores the permuted DCG over the
        # sorted DCG; checked exhaustively for K <= 5.
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            rel = rng.uniform(size=8)
            top = np.argsort(-rel)[:k]
            for perm in itertools.permutations(top):
                got = ndcg_at_k(rel[list(perm)], dcg(rel[top]))
                assert got == pytest.approx(dcg(rel[list(perm)]) / dcg(rel[top]))
                assert got <= 1.0 + 1e-12

    def test_zero_gain_lists(self):
        rel = np.array([0.0, 0.0, 0.5])
        assert ndcg_at_k(rel[[0, 1]], dcg(rel[[1, 0]])) == 1.0
        with pytest.raises(ValueError):
            ndcg_at_k(rel[[2, 0]], dcg(rel[[0, 1]]))

    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_one_for_subsets(self, rel, data):
        rel = np.asarray(rel)
        k = data.draw(st.integers(1, len(rel)))
        items = data.draw(st.permutations(range(len(rel))))
        got = ndcg_at_k(rel[list(items[:k])], dcg(rel[np.argsort(-rel)[:k]]))
        assert 0.0 <= got <= 1.0 + 1e-12


class TestNdcgBlock:
    """An (n x K) block of lists scores each row bit for bit as a 1-D call would."""

    # 7, 8 and 17 sit on both sides of numpy's 8-wide pairwise-sum unroll.
    @pytest.mark.parametrize("k", [1, 7, 8, 10, 17])
    def test_rows_equal_one_list_calls(self, k):
        rng = np.random.default_rng(k)
        gains = rng.uniform(size=(200, k)) * (rng.uniform(size=(200, 1)) < 0.9)
        ideal = np.maximum(dcg(gains), rng.uniform(0.5, 3.0, size=200))
        ideal[gains.sum(axis=1) == 0.0] = 0.0  # zero-gain rows against a zero ideal
        got = ndcg_at_k(gains, ideal)
        want = np.array([ndcg_at_k(row, float(i)) for row, i in zip(gains, ideal)])
        assert got.shape == (200,) and got.tobytes() == want.tobytes()
        assert dcg(gains).tobytes() == np.array([dcg(row) for row in gains]).tobytes()
        # A block in column-major order sums each row in the same order.
        assert ndcg_at_k(np.asfortranarray(gains), ideal).tobytes() == want.tobytes()

    def test_zero_ideal_rows_with_zero_gain_score_one(self):
        gains = np.array([[0.0, 0.0], [0.5, 0.25], [0.0, 0.0]])
        got = ndcg_at_k(gains, np.array([0.0, dcg([0.5, 0.5]), 0.0]))
        assert got[0] == got[2] == 1.0
        assert got[1] == dcg([0.5, 0.25]) / dcg([0.5, 0.5])

    def test_zero_ideal_row_with_gain_raises(self):
        gains = np.array([[0.5, 0.0], [0.0, 0.25], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero gain"):
            ndcg_at_k(gains, np.array([1.0, 0.0, 0.0]))

    def test_empty_block(self):
        assert ndcg_at_k(np.zeros((0, 5)), np.zeros(0)).shape == (0,)

    def test_top_k_dcg_is_each_rows_ideal(self):
        rng = np.random.default_rng(3)
        relevance = rng.integers(0, 5, size=(40, 12)) / 4.0  # ties at the k-th score
        relevance[0] = 0.0
        want = [dcg(row[reference_top_k(row, 4)]) for row in relevance]
        assert top_k_dcg(relevance, 4).tobytes() == np.array(want).tobytes()


class TestTopKDcg:
    """Each row's ideal DCG from its K largest values, against a full-sort top-K list."""

    @staticmethod
    def check(relevance, k):
        want = np.array([dcg(row[reference_top_k(row, k)]) for row in relevance])
        got = top_k_dcg(relevance, k)
        assert got.shape == (len(relevance),) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_blocks_tie_at_the_kth_value(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            items = int(rng.integers(1, 40))
            relevance = rng.integers(0, 5, size=(int(rng.integers(0, 30)), items)) / 4.0
            for k in {1, int(rng.integers(1, items + 1)), items}:  # K = I included
                self.check(relevance, k)

    def test_rows_with_few_or_no_positive_scores(self):
        rng = np.random.default_rng(7)
        relevance = rng.integers(1, 5, size=(60, 20)) / 4.0
        relevance *= rng.uniform(size=(60, 20)) < rng.uniform(0.0, 0.4, size=(60, 1))
        relevance[::7] = 0.0  # all-zero rows
        assert (np.count_nonzero(relevance, axis=1) < 5).sum() > 10
        for k in (1, 5, 10, 20):
            self.check(relevance, k)

    def test_block_taller_than_one_chunk(self):
        rows = 3 * _DCG_CHUNK // 12 + 5
        relevance = np.random.default_rng(8).integers(0, 9, size=(rows, 12)) / 8.0
        self.check(relevance, 4)

    def test_rows_wider_than_one_chunk(self):
        rng = np.random.default_rng(9)
        relevance = rng.integers(0, 5, size=(3, _DCG_CHUNK + 808)) / 4.0
        relevance[1] = 0.0
        self.check(relevance, 10)
        self.check(rng.uniform(size=(2, _DCG_CHUNK + 1)), 10)

    def test_signed_zeros_at_the_kth_value(self):
        # A logged score "-0.0" passes the loader's [0, 1] check. The K
        # largest values are the same up to the sign of a zero, so an
        # all-zero ideal may come out as -0.0: equal, and it scores the same.
        relevance = np.array([[-0.0, 0.0, -0.0, 0.0, -0.0],
                              [0.0, -0.0, 0.0, -0.0, 0.0],
                              [0.5, -0.0, 0.0, -0.0, 0.25]])
        for k in range(1, 6):
            want = np.array([dcg(row[reference_top_k(row, k)]) for row in relevance])
            got = top_k_dcg(relevance, k)
            assert (got == want).all()
            gains = relevance[:, ::-1][:, :k]
            assert ndcg_at_k(gains, got).tobytes() == ndcg_at_k(gains, want).tobytes()

    def test_needs_at_least_k_items(self):
        with pytest.raises(ConfigError, match="^need at least 4 items, catalog has 3$"):
            top_k_dcg(np.ones((2, 3)), 4)


class TestVio:
    def test_no_violations(self):
        assert vio_at_k([1.0, 1.0, 1.0], 0.95) == 0.0

    def test_strict_inequality_count(self):
        assert vio_at_k([0.9, 0.96, 0.94], 0.95) == pytest.approx(2 / 3)

    def test_threshold_value_itself_is_not_a_violation(self):
        assert vio_at_k([0.95], 0.95) == 0.0

    def test_zero_phi_vacuous(self):
        assert vio_at_k([0.0, 0.5], 0.0) == 0.0

    def test_empty_users(self):
        with pytest.raises(ValueError, match="no users"):
            vio_at_k([], 0.9)


class TestEsp:
    def test_all_met(self):
        assert esp_at_k([10, 10], [5, 5]) == 1.0

    def test_zero_requirement_vacuous(self):
        assert esp_at_k([0, 0], [0, 0]) == 1.0

    def test_half_met(self):
        assert esp_at_k([5, 3], [4, 4]) == 0.5

    def test_monotone_in_exposure(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.uniform(0, 10, size=5)
            expo = rng.uniform(0, 10, size=5)
            bump = expo.copy()
            bump[rng.integers(0, 5)] += rng.uniform(0, 5)
            assert esp_at_k(bump, m) >= esp_at_k(expo, m)


class TestFeasibleRegionRatio:
    def test_toy_values(self):
        assert feasible_region_ratio([4.0, 0.0], 3, 5) == pytest.approx(0.7333, abs=1e-3)
        assert feasible_region_ratio([4.0, 0.0], 2, 5) == pytest.approx(0.6000, abs=1e-3)

    def test_unconstrained(self):
        assert feasible_region_ratio([0.0, 0.0], 9, 4) == 1.0

    def test_floored_at_zero(self):
        assert feasible_region_ratio([100.0], 2, 5) == 0.0


class TestSpearmanRho:
    def test_hand_values(self):
        assert spearman_rho([1, 2, 3], [30, 20, 10]) == -1.0
        assert spearman_rho([5, 52, 100], [0.1, 0.2, 0.3]) == 1.0
        # x ranks 1, 2.5, 2.5, 4: covariance 4.5 over sqrt(4.5 * 5).
        assert spearman_rho([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(4.5 / math.sqrt(22.5))

    def test_matches_scipy_with_ties(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(2, 40))
            x = rng.integers(0, 21, size=n) / 20.0  # a 0.05 grid: ties are common
            y = rng.integers(0, 21, size=n) / 20.0
            if (x == x[0]).all() or (y == y[0]).all():
                assert math.isnan(spearman_rho(x, y))
                continue
            assert spearman_rho(x, y) == pytest.approx(stats.spearmanr(x, y).statistic,
                                                       rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("x, y", [([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
                                      ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]),
                                      ([1.0], [2.0]), ([], [])])
    def test_constant_or_short_input_is_nan_without_warning(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(spearman_rho(x, y))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            spearman_rho([1, 2, 3], [1, 2])


def report_with(traffic, accuracy):
    return SimReport(
        ndcg_at_k=float(np.mean(accuracy)), vio_at_k=0.0, esp_at_k=1.0,
        per_interval_traffic=list(traffic), per_interval_accuracy=list(accuracy),
        per_interval_vio=[0.0] * len(traffic), per_interval_esp=[1.0] * len(traffic),
        per_provider_cumulative_exposure=[0], per_user_ndcg=list(accuracy))


class TestSimReport:
    def test_headline_metrics_validated(self):
        with pytest.raises(ConfigError):
            report = report_with([1], [1.0])
            SimReport(**{**report.__dict__, "vio_at_k": 1.5})

    def test_json_is_stable_and_sorted(self):
        rep = report_with([3, 4], [0.9, 1.0])
        payload = json.loads(rep.to_json())
        assert list(payload.keys()) == sorted(payload.keys())
        assert rep.to_json() == rep.to_json()

    def test_pooled_mean_equals_traffic_weighted_interval_mean(self):
        # The pooled per-user average equals the per-interval averages
        # weighted by interval user counts.
        rng = np.random.default_rng(12)
        counts = [3, 5, 2]
        per_user = [rng.uniform(0.5, 1.0, size=c) for c in counts]
        pooled = float(np.concatenate(per_user).mean())
        weighted = sum(c * float(v.mean()) for c, v in zip(counts, per_user)) / sum(counts)
        assert pooled == pytest.approx(weighted)

    def test_write_outputs(self, tmp_path):
        rep = report_with([3, 4], [0.9, 1.0])
        rep.write(tmp_path)
        assert (tmp_path / "report.json").exists()
        lines = (tmp_path / "intervals.csv").read_text().strip().splitlines()
        assert lines[0] == "interval,traffic,accuracy,vio,esp_partial"
        assert len(lines) == 3
