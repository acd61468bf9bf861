"""Online re-ranker: selection argmax, conjugate closed form, dual updates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bankfair import reranker
from bankfair.domain import Catalog
from bankfair.errors import ConfigError
from bankfair.reranker import (_BLOCK_VALUES, RerankConfig, compute_caps, compute_penalties,
                               conjugate_argmax, conjugate_value, dual_step, run_interval,
                               select_list, top_k)

TWO_PROVIDERS = Catalog(np.array([0, 0, 0, 0, 1, 1, 1, 1]))
# Its penalties under RerankConfig's default beta_mix.
LAM = compute_penalties(TWO_PROVIDERS, RerankConfig(eta=0.0).beta_mix)


class TestPenaltiesAndCaps:
    def test_uniform_branch(self):
        cat = Catalog(np.array([0, 0, 0, 1, 1]))
        np.testing.assert_allclose(compute_penalties(cat, 0.0), [0.5, 0.5])

    def test_inventory_branch(self):
        cat = Catalog(np.repeat([0, 1], [10, 5]))
        np.testing.assert_allclose(compute_penalties(cat, 1.0), [1.0, 2.0])

    def test_mixed(self):
        cat = Catalog(np.repeat([0, 1], [10, 5]))
        np.testing.assert_allclose(compute_penalties(cat, 0.5), [0.75, 1.25])

    def test_caps_proportional_to_inventory(self):
        cat = Catalog(np.repeat([0, 1], [3, 1]))
        caps = compute_caps(cat, 5, 10.0)
        np.testing.assert_allclose(caps, [37.5, 12.5])
        assert caps.sum() == pytest.approx(5 * 10.0)

    def test_caps_zero_traffic(self):
        np.testing.assert_allclose(compute_caps(TWO_PROVIDERS, 5, 0.0), [0.0, 0.0])

    def test_caps_refuse_negative_traffic(self):
        with pytest.raises(ConfigError, match="^predicted traffic must be >= 0$"):
            compute_caps(TWO_PROVIDERS, 5, -1.0)

    def test_caps_single_provider(self):
        cat = Catalog(np.zeros(4, dtype=int))
        np.testing.assert_allclose(compute_caps(cat, 5, 7.0), [35.0])


class TestSelectList:
    def test_zero_prices_reduce_to_top_k(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rel = rng.uniform(size=8)
            got = select_list(rel / 3.0, rel, np.zeros(2), TWO_PROVIDERS, k=5)
            np.testing.assert_array_equal(got, top_k(rel, 5))

    def test_price_flips_choice(self):
        cat = Catalog(np.array([0, 1]))
        rel = np.array([0.9, 0.8])
        got = select_list(rel / 1.0, rel, np.array([0.5, 0.0]), cat, k=1)
        np.testing.assert_array_equal(got, [1])

    def test_tie_breaking_prefers_higher_raw_relevance_then_lower_id(self):
        cat = Catalog(np.array([0, 0, 1]))
        rel = np.array([0.4, 0.4, 0.8])
        # Boost chosen so all three adjusted scores collide exactly; item 2
        # wins on raw relevance, then items 0 and 1 resolve by id.
        mu = np.array([-0.4, 0.0])
        adjusted = rel / 1.0 - mu[cat.item_provider]
        assert adjusted[0] == adjusted[1] == adjusted[2]
        got = select_list(rel / 1.0, rel, mu, cat, k=2)
        np.testing.assert_array_equal(got, [2, 0])

    def test_adjusted_score_divides_by_forecast(self):
        # 0.25/7 == 0.6/7 - 0.05 exactly, so the higher relevance wins the tie;
        # scores multiplied by 1/7 instead would rank item 0 first.
        cat = Catalog(np.array([0, 1]))
        rel = np.array([0.25, 0.6])
        mu = np.array([0.0, 0.05])
        assert rel[0] / 7.0 == rel[1] / 7.0 - mu[1]
        assert rel[0] * (1.0 / 7.0) > rel[1] * (1.0 / 7.0) - mu[1]
        np.testing.assert_array_equal(select_list(rel / 7.0, rel, mu, cat, 1), [1])

    def test_needs_at_least_k_items(self):
        with pytest.raises(ConfigError, match="^need at least 4 items, catalog has 3$"):
            select_list(np.ones(3), np.ones(3), np.zeros(1), Catalog(np.zeros(3, int)), 4)
        with pytest.raises(ConfigError, match="^need at least 4 items, catalog has 3$"):
            top_k(np.ones(3), 4)

    def test_needs_positive_traffic_estimate(self, monkeypatch):
        # select_list takes scores already divided by the forecast, so
        # run_interval checks the forecast before it selects any list.
        calls = []
        monkeypatch.setattr(reranker, "select_list", lambda *args: calls.append(args))
        catalog = Catalog(np.zeros(3, int))
        for rhat_n in (0.0, -1.0):
            with pytest.raises(ConfigError, match="^predicted traffic for the interval "
                                                  "must be positive$"):
                run_interval(np.ones((1, 3)), np.zeros(2, int), np.zeros(1),
                             RerankConfig(list_size=2, eta=0.1), catalog, rhat_n, np.ones(1))
        assert calls == []

    def test_rejects_item_provider_of_another_length(self):
        for size in (1, 3, 5):
            with pytest.raises(ConfigError, match=f"^4 relevance scores for {size} items$"):
                select_list(np.ones(4), np.ones(4), np.zeros(1), Catalog(np.zeros(size, int)), 2)

    @pytest.mark.parametrize("item_provider", [[0, 0, 1, 1], [0, 1, 0, 1]])
    def test_rejects_prices_of_another_length(self, item_provider):
        # Listed by provider or not, the catalog takes one price per provider.
        catalog = Catalog(np.array(item_provider))
        for mu in (np.zeros(1), np.zeros(3)):
            with pytest.raises(ConfigError, match=f"^{mu.size} prices for 2 providers$"):
                catalog.item_prices(mu)
            with pytest.raises(ConfigError, match=f"^{mu.size} prices for 2 providers$"):
                select_list(np.ones(4), np.ones(4), mu, catalog, 2)

    def test_monotone_pressure(self):
        # Raising one provider's price never adds items of that provider.
        rng = np.random.default_rng(4)
        for _ in range(100):
            rel = rng.uniform(size=8)
            mu0 = rng.uniform(-1.0, 1.0, size=2)
            bump = rng.uniform(0.0, 1.0)
            before = select_list(rel / 2.0, rel, mu0, TWO_PROVIDERS, 5)
            after_mu = mu0.copy()
            after_mu[0] += bump
            after = select_list(rel / 2.0, rel, after_mu, TWO_PROVIDERS, 5)
            count = lambda items: int((TWO_PROVIDERS.item_provider[items] == 0).sum())
            assert count(after) <= count(before)


@st.composite
def listed_by_provider(draw):
    """(inventory, item_provider, mu, relevance): a catalog listed by provider.

    Providers own one to four items, prices and relevance come from small
    grids (so prices repeat across providers and adjusted scores tie), and
    prices hold both signed zeros.
    """
    inventory = np.array(draw(st.lists(st.integers(1, 4), min_size=1, max_size=8)))
    item_provider = np.repeat(np.arange(inventory.size), inventory)
    grid = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -1.0])
    mu = np.array(draw(st.lists(grid, min_size=inventory.size, max_size=inventory.size)))
    relevance = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                       min_size=item_provider.size,
                                       max_size=item_provider.size)))
    return inventory, item_provider, mu, relevance


class PriceSpy(np.ndarray):
    """Prices that record which of ``repeat`` and ``take`` built the item prices."""

    def repeat(self, *args, **kwargs):
        self.calls.append("repeat")
        return np.asarray(self).repeat(*args, **kwargs)

    def take(self, *args, **kwargs):
        self.calls.append("take")
        return np.asarray(self).take(*args, **kwargs)


class TestPriceRuns:
    """The run expansion of the prices against the per-item gather."""

    @given(listed_by_provider(), st.sampled_from([1.0, 2.0, 3.0]))
    @example((np.array([1, 2, 1]), np.array([0, 1, 1, 2]), np.array([-0.0, 0.0, -0.0]),
              np.array([0.5, 0.5, 0.0, 0.0])), 1.0)
    @settings(max_examples=300, deadline=None)
    def test_run_expansion_matches_gather(self, inst, rhat_n):
        inventory, item_provider, mu, relevance = inst
        catalog = Catalog(item_provider)
        assert catalog.by_provider and catalog.inventory.tolist() == inventory.tolist()
        assert catalog.item_prices(mu).tobytes() == mu.take(item_provider).tobytes()
        scores = relevance / rhat_n
        for k in sorted({1, (item_provider.size + 1) // 2, item_provider.size}):
            np.testing.assert_array_equal(select_list(scores, relevance, mu, catalog, k),
                                          top_k(scores - mu.take(item_provider), k, relevance))

    @staticmethod
    def price_path(catalog):
        """The calls on ``mu`` that build the catalog's item prices."""
        mu = np.linspace(-1.0, 1.0, catalog.num_providers).view(PriceSpy)
        mu.calls = []
        prices = catalog.item_prices(mu)
        assert prices.tobytes() == np.asarray(mu).take(catalog.item_provider).tobytes()
        return mu.calls

    @staticmethod
    def assert_served_through_the_catalog(catalog):
        """run_interval builds every arrival's item prices with catalog.item_prices."""
        seen = []
        item_prices = Catalog.item_prices

        def spy(self, mu):
            assert self is catalog
            seen.append(mu.copy())
            return item_prices(self, mu)

        block = np.random.default_rng(3).uniform(size=(2, catalog.num_items))
        lam = compute_penalties(catalog, 0.5)
        cfg = RerankConfig(list_size=min(5, catalog.num_items), eta=1 / math.sqrt(3.0))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(Catalog, "item_prices", spy)
            _, _, prices = run_interval(block, np.array([0, 1, 0]),
                                        np.zeros(catalog.num_providers), cfg, catalog, 3.0, lam)
        assert len(seen) == 3 and np.array(seen).tobytes() == prices.tobytes()

    def test_catalog_layout(self):
        assert Catalog(np.array([0])).by_provider
        assert Catalog(np.array([0, 0, 1, 2, 2])).by_provider
        assert not Catalog(np.array([0, 1, 0])).by_provider
        assert not Catalog(np.array([1, 1, 0])).by_provider

    def test_wide_catalog_listed_by_provider_expands(self):
        # wide_catalog's layout: 10 000 items in 100 uneven provider runs.
        catalog = Catalog(np.repeat(np.arange(100), [160] * 60 + [10] * 40))
        assert catalog.by_provider and catalog.num_items == 10_000
        assert self.price_path(catalog) == ["repeat"]
        self.assert_served_through_the_catalog(catalog)

    def test_serve_loop_passes_the_catalog_runs(self):
        # Smaller catalogs listed by provider expand their prices too: one
        # item, the layouts of replay_log (300 items) and long_tail (580), and
        # 2047 items in 47 one-item runs and one of 2000.
        listed = {1: [1], 300: [10] * 30, 580: [5] * 60 + [2] * 140,
                  2047: [1] * 47 + [2000]}
        for num_items, inventory in listed.items():
            catalog = Catalog(np.repeat(np.arange(len(inventory)), inventory))
            assert catalog.by_provider and catalog.num_items == num_items
            assert self.price_path(catalog) == ["repeat"], num_items
            self.assert_served_through_the_catalog(catalog)

    @pytest.mark.parametrize("item_provider", [
        np.arange(300) % 4,  # providers interleaved
        np.repeat([1, 0, 2, 3], 512),  # one run each, not in provider order
        np.repeat([0, 1, 0], 4),  # provider 0 in two runs
    ])
    def test_other_catalogs_gather(self, item_provider):
        catalog = Catalog(item_provider)
        assert not catalog.by_provider
        assert self.price_path(catalog) == ["take"]
        self.assert_served_through_the_catalog(catalog)


def conjugate_objective(e, mu, lam, m):
    return -lam * np.maximum(m - e, 0.0) + mu * e


def argmax_at(mu, gamma, m):
    """conjugate_argmax for one provider, on scalars."""
    return conjugate_argmax(np.array([mu]), np.array([gamma]), np.array([m]))[0]


class TestConjugateArgmax:
    def test_nonnegative_price_takes_cap(self):
        assert argmax_at(0.0, 7.0, 4.0) == 7.0

    def test_small_negative_price_takes_floor(self):
        assert argmax_at(-0.1, 9.0, 4.0) == 4.0

    def test_deep_negative_price_still_takes_floor_kink(self):
        # For -lam <= mu < -M the kink at the floor still beats zero exposure:
        # the objective at 0 is -lam*M <= mu*M on the feasible price region.
        lam, m, gamma, mu = 10.0, 1.0, 5.0, -5.0
        e_star = argmax_at(mu, gamma, m)
        assert e_star == pytest.approx(m)
        grid = np.linspace(0.0, gamma, 50_001)
        best = grid[np.argmax(conjugate_objective(grid, mu, lam, m))]
        assert abs(e_star - best) <= 1e-3

    def test_zero_floor_negative_price_takes_zero(self):
        assert argmax_at(-0.3, 5.0, 0.0) == 0.0

    def test_cap_below_floor(self):
        assert argmax_at(-0.2, 3.0, 8.0) == 3.0

    @given(st.floats(0.1, 3.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_grid_search(self, lam, m, extra, data):
        gamma = m + extra
        mu = data.draw(st.floats(-lam, 2.0))
        e_star = argmax_at(mu, gamma, m)
        grid = np.linspace(0.0, gamma, 10_001)
        obj = conjugate_objective(grid, mu, lam, m)
        tol = (gamma / 10_000 + 1e-12) * (lam + abs(mu)) + 1e-9
        assert conjugate_objective(np.array([e_star]), mu, lam, m)[0] >= obj.max() - tol

    @given(st.floats(0.1, 3.0), st.floats(-10.0, 10.0), st.floats(0.0, 10.0), st.data())
    @settings(max_examples=300, deadline=None)
    def test_met_floor_and_aliased_out_match_grid_search(self, lam, m, gamma, data):
        # run_interval passes floor - earned, which is negative once a floor
        # is exceeded, and lets the result overwrite it.
        mu = data.draw(st.floats(-lam, 2.0))
        e_star = np.array([m])
        assert conjugate_argmax(np.array([mu]), np.array([gamma]), e_star, out=e_star) is e_star
        want = np.where(mu >= 0.0, gamma, np.minimum(np.maximum(m, 0.0), gamma))
        assert e_star.tobytes() == np.atleast_1d(want).tobytes()
        grid = np.linspace(0.0, gamma, 10_001)
        obj = conjugate_objective(grid, mu, lam, m)
        tol = (gamma / 10_000 + 1e-12) * (lam + abs(mu)) + 1e-9
        assert conjugate_objective(e_star, mu, lam, m)[0] >= obj.max() - tol

    def test_met_floor_takes_zero_below_a_zero_price(self):
        mu, gamma = np.array([-0.5, -0.5, 0.0, 0.3]), np.full(4, 3.0)
        m = np.array([-2.0, 5.0, -2.0, -2.0])
        np.testing.assert_array_equal(conjugate_argmax(mu, gamma, m), [0.0, 3.0, 3.0, 3.0])

    def test_closed_form_value_matches_attained_objective(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            lam = rng.uniform(0.1, 2.0)
            m = rng.uniform(0.0, 10.0)
            gamma = m + rng.uniform(0.0, 10.0)
            mu = rng.uniform(-lam, 2.0)
            e_star = argmax_at(mu, gamma, m)
            value = conjugate_value(np.array([mu]), np.array([gamma]), np.array([m]))
            assert value == pytest.approx(
                float(conjugate_objective(np.array([e_star]), mu, lam, m)[0]), abs=1e-9)


class TestDualStep:
    def test_zero_subgradient_is_fixed_point(self):
        mu = np.array([0.3, -0.2])
        out = dual_step(mu, 1.0, np.full(2, 10.0), np.array([2.0, 1.0]), np.array([2.0, 1.0]))
        np.testing.assert_array_equal(out, mu)

    def test_projection_at_boundary(self):
        out = dual_step(np.array([-1.0, 0.0]), 1.0, np.ones(2), np.zeros(2),
                        np.array([5.0, 0.0]))
        assert out[0] == -1.0

    def test_hand_computed_step(self):
        out = dual_step(np.zeros(2), 0.1, np.ones(2), np.array([1.0, 0.0]),
                        np.array([3.0, -1.0]))
        # g = e_star - exposure = (2, -1)
        np.testing.assert_allclose(out, [-0.2, 0.1])

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_feasibility_preserved(self, g, data):
        n = len(g)
        lam = np.asarray(data.draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
        mu0 = np.maximum(np.asarray(data.draw(
            st.lists(st.floats(-3, 3), min_size=n, max_size=n))), -lam)
        out = dual_step(mu0, 0.7, lam, np.zeros(n), np.asarray(g))
        assert (out >= -lam).all()


class TestRunInterval:
    def test_zero_plan_zero_penalty_collapses_to_top_k(self):
        # With eta = 0, the path of rule="none", prices stay pinned at zero,
        # so output matches plain top-K bitwise.
        rng = np.random.default_rng(2)
        relevances = rng.uniform(size=(6, 8))
        cfg = RerankConfig(list_size=5, eta=0.0)
        lists, _, prices = run_interval(relevances, np.arange(6), np.zeros(2), cfg, TWO_PROVIDERS,
                                        rhat_n=6.0, lam=LAM)
        for rel, lst in zip(relevances, lists):
            np.testing.assert_array_equal(lst, top_k(rel, 5))
        np.testing.assert_array_equal(prices, np.zeros((6, 2)))

    def test_exposure_accounting(self):
        rng = np.random.default_rng(7)
        relevances = rng.uniform(size=(9, 8))
        cfg = RerankConfig(list_size=5, eta=0.12)
        lists, earned, _ = run_interval(relevances, np.arange(9), np.array([4.0, 0.0]),
                                        cfg, TWO_PROVIDERS, rhat_n=9.0, lam=LAM)
        assert earned.dtype == np.int64 and earned.sum() == 5 * 9
        np.testing.assert_array_equal(
            earned, np.bincount(TWO_PROVIDERS.item_provider[lists.ravel()], minlength=2))

    def test_toy_floor_enforced_for_three_and_two_users(self):
        relevance = np.array([0.90, 0.62, 0.42, 0.20, 0.85, 0.80, 0.75, 0.70])
        cfg = RerankConfig(list_size=5, eta=0.12)
        floor = np.array([4.0, 0.0])
        for n_users in (3, 2):
            _, earned, _ = run_interval(relevance[None], np.zeros(n_users, dtype=np.int64),
                                        floor, cfg, TWO_PROVIDERS, rhat_n=float(n_users),
                                        lam=LAM)
            assert earned[0] >= 4

    def test_dual_feasibility_throughout(self):
        rng = np.random.default_rng(1)
        relevances = rng.uniform(size=(30, 8))
        cfg = RerankConfig(list_size=5, eta=0.5, beta_mix=0.7)
        lam = compute_penalties(TWO_PROVIDERS, 0.7)
        _, _, prices = run_interval(relevances, np.arange(30), np.array([10.0, 3.0]), cfg,
                                    TWO_PROVIDERS, rhat_n=30.0, lam=lam)
        assert prices.shape == (30, 2)
        assert (prices >= -lam).all()
        assert (prices == -lam).any()  # the projection was active

    def test_no_arrivals_returns_empty_lists(self):
        lists, earned, prices = run_interval(np.ones((1, 8)), np.array([], dtype=np.int64),
                                             np.array([4.0, 0.0]),
                                             RerankConfig(list_size=5, eta=1 / math.sqrt(2.0)),
                                             TWO_PROVIDERS, 2.0, LAM)
        assert lists.shape == (0, 5) and lists.dtype == np.int64
        np.testing.assert_array_equal(earned, [0, 0])
        assert prices.shape == (0, 2) and prices.dtype == np.float64

    def test_requires_positive_traffic_estimate(self):
        with pytest.raises(ConfigError):
            run_interval(np.ones((1, 8)), np.array([], dtype=np.int64), np.zeros(2),
                         RerankConfig(list_size=5, eta=1.0), TWO_PROVIDERS, rhat_n=0.0, lam=LAM)


class TestRerankConfigValidation:
    @pytest.mark.parametrize("eta", [-0.1, float("nan"), float("inf"), float("-inf"),
                                     "fast", None])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(ConfigError, match="eta"):
            RerankConfig(eta=eta)

    @pytest.mark.parametrize("eta", [0, 0.0, 1e-5, 2])
    def test_accepts_finite_nonnegative_eta(self, eta):
        assert RerankConfig(eta=eta).eta == eta


# ---------------------------------------------------------------------------
# Slow references: full sorts and the serve loop with inline formulas
# ---------------------------------------------------------------------------


def lexsort_order(primary, secondary, k):
    """The documented order by one full sort: -primary, -secondary, item id."""
    return np.lexsort((np.arange(primary.size), -secondary, -primary))[:k]


def reference_top_k(relevance, k):
    relevance = np.asarray(relevance, dtype=float)
    return lexsort_order(relevance, relevance, k)


def reference_run_interval(block, rows, floor, cfg, catalog, rhat_n, lam):
    """The serve loop with one full lexsort per arrival and each step written out.

    It calls none of select_list, conjugate_argmax, dual_step or the top-K
    kernel, and returns (lists, earned, prices) as run_interval does.
    """
    k = cfg.list_size
    gamma = compute_caps(catalog, k, rhat_n)
    eta = cfg.eta
    mu = np.zeros_like(lam)
    beta = np.array(floor, dtype=float)
    earned = np.zeros(catalog.num_providers, dtype=np.int64)
    lists, prices = [], []
    for row in rows:
        relevance = np.asarray(block[row], dtype=float)
        adjusted = relevance / float(rhat_n) - mu[catalog.item_provider]
        order = lexsort_order(adjusted, relevance, k)
        prices.append(mu)
        exposure = np.bincount(catalog.item_provider[order], minlength=catalog.num_providers)
        earned += exposure
        beta -= exposure
        remainder = np.maximum(beta, 0.0)
        e_star = np.where(mu >= 0.0, gamma, np.minimum(remainder, gamma))
        mu = np.maximum(mu - eta * (e_star - exposure.astype(float)), -lam)
        lists.append(order)
    lists = np.asarray(lists, dtype=np.int64).reshape(len(rows), k)
    prices = np.asarray(prices, dtype=float).reshape(len(rows), catalog.num_providers)
    return lists, earned, prices


class TestTopKKernel:
    """top_k against one full lexsort, on tie-heavy scores."""

    @staticmethod
    def check(primary, secondary, k):
        got = top_k(primary, k, secondary)
        np.testing.assert_array_equal(got, lexsort_order(primary, secondary, k))
        if secondary is primary:  # the default tie-break is the scores themselves
            np.testing.assert_array_equal(top_k(primary, k), got)

    @pytest.mark.parametrize("seed", range(8))
    def test_grid_scores_both_key_orders(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, n + 1))
            relevance = rng.integers(0, 6, size=n) / 5.0  # few values: the k-th one ties
            mu = rng.integers(-3, 4, size=int(rng.integers(1, 5))) / 5.0
            adjusted = relevance / float(rng.choice([1.0, 2.0])) - mu[rng.integers(0, mu.size, n)]
            self.check(adjusted, relevance, k)  # select_list: adjusted, then relevance
            self.check(relevance, relevance, k)  # top_k: relevance only

    def test_signed_zeros_tie(self):
        primary = np.array([0.0, -0.0, 0.5, -0.0, 0.0, -0.5])
        for secondary in (np.zeros(6), np.array([0.1, 0.3, 0.0, 0.3, 0.2, 0.9])):
            for k in range(1, 7):
                self.check(primary, secondary, k)
        np.testing.assert_array_equal(top_k(primary, 3, np.zeros(6)), [2, 0, 1])

    def test_rejects_tiebreak_of_another_length(self):
        for tiebreak in ([0, 1, 0, 9], [0, 1], np.zeros(2)):
            with pytest.raises(ConfigError, match=fr"^tiebreak shape \({len(tiebreak)},\) "
                                                  r"differs from scores \(3,\)$"):
                top_k([1, 2, 2], 2, tiebreak)

    def test_rejects_tiebreak_of_another_shape(self):
        # Three values in a column: lexsort would refuse keys of two shapes.
        with pytest.raises(ConfigError,
                           match=r"^tiebreak shape \(3, 1\) differs from scores \(3,\)$"):
            top_k([1.0, 2.0, 3.0], 2, np.zeros((3, 1)))

    # numpy's partition would refuse kth 3 or 4 of 3 scores, or a float kth;
    # it would take True as 1.
    @pytest.mark.parametrize("k", [0, -1, 2.5, True])
    def test_rejects_k_that_is_not_a_positive_int(self, k):
        with pytest.raises(ConfigError, match=f"^k must be an int >= 1, got {k}$"):
            top_k([1.0, 2.0, 3.0], k)

    def test_list_tiebreak_acts_as_an_array(self):
        np.testing.assert_array_equal(top_k([1, 2, 2], 2, [0, 1, 0]), [1, 2])
        np.testing.assert_array_equal(top_k([1, 2, 2], 2, [0, 0, 1]), [2, 1])

    @pytest.mark.parametrize("n,k", [(1, 1), (7, 1), (7, 7), (8, 7), (12, 11), (2, 1)])
    def test_edge_sizes(self, n, k):
        rng = np.random.default_rng(n * 100 + k)
        for _ in range(50):
            primary = rng.integers(0, 3, size=n) / 2.0
            secondary = rng.integers(0, 3, size=n) / 2.0
            self.check(primary, secondary, k)
            self.check(primary, primary, k)

    def test_large_catalog(self):
        rng = np.random.default_rng(5)
        n = 6000
        relevance = rng.integers(0, 21, size=n) / 20.0
        adjusted = relevance - rng.integers(0, 3, size=n) / 20.0
        for k in (1, 10, 350, n - 1, n):
            self.check(adjusted, relevance, k)
            self.check(relevance, relevance, k)
        uniform = rng.uniform(size=n)
        self.check(uniform, uniform, 10)

    def test_public_lists_match_reference(self):
        rng = np.random.default_rng(9)
        cat = Catalog(rng.integers(0, 3, size=30))
        for _ in range(100):
            rel = rng.integers(0, 5, size=30) / 4.0
            mu = rng.integers(-2, 3, size=3) / 4.0
            got = select_list(rel / 2.0, rel, mu, cat, 6)
            want = lexsort_order(rel / 2.0 - mu[cat.item_provider], rel, 6)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(top_k(rel, 6), reference_top_k(rel, 6))


class TestServeLoopMatchesReference:
    """run_interval is bit-identical to the reference loop with full sorts."""

    @staticmethod
    def instance(seed):
        # Even inventory and K * rhat_n a multiple of the provider count give
        # integer caps; with integer floors and a 0.05 step the prices stay on
        # (or within rounding of) the 0.05 relevance grid, so adjusted scores
        # tie across providers as well as within them. A forecast of three
        # times the provider count makes relevance / rhat_n round. These
        # instances rarely meet a tie that only the division decides (scores
        # multiplied by 1 / rhat_n passed all of them), so
        # TestServeLoopBlocks.test_rows_are_divided_by_the_forecast builds one.
        rng = np.random.default_rng(seed)
        nprov = int(rng.integers(1, 5))
        per = int(rng.integers(2, 5))
        catalog = Catalog(np.repeat(np.arange(nprov), per))
        k = int(rng.integers(1, per * nprov + 1))
        n_users = int(rng.integers(1, 25))
        block = rng.integers(0, 21, size=(n_users, per * nprov)) / 20.0
        floor = rng.integers(0, 2 * k + 1, size=nprov).astype(float)
        rhat_n = float(nprov * rng.choice([1, 3]))
        # Arrivals in another order than the block's rows.
        return rng, catalog, k, block, rng.permutation(n_users), floor, rhat_n

    @staticmethod
    def assert_same(got, want, catalog):
        num_items, num_providers = catalog.num_items, catalog.num_providers
        lists, earned, prices = got
        ref_lists, ref_earned, ref_prices = want
        assert lists.dtype == np.int64 and lists.shape == ref_lists.shape
        np.testing.assert_array_equal(lists, ref_lists)
        for row in lists:  # K distinct item ids per arrival
            assert np.unique(row).size == row.size
            assert row.min() >= 0 and row.max() < num_items
        assert earned.dtype == ref_earned.dtype == np.int64
        np.testing.assert_array_equal(earned, ref_earned)
        np.testing.assert_array_equal(earned, np.bincount(
            catalog.item_provider[lists.ravel()], minlength=num_providers))
        # Every arrival's price row, bit for bit.
        assert prices.dtype == np.float64 and prices.shape == (len(lists), num_providers)
        assert prices.tobytes() == ref_prices.tobytes()

    # The ids name the conjugate target: the unearned remainder of the floor.
    @pytest.mark.parametrize("seed", range(12), ids=lambda seed: f"{seed}-remaining")
    def test_bit_identical(self, seed):
        rng, catalog, k, block, rows, floor, rhat_n = self.instance(seed)
        # Fractional floors as well, up to twice a provider's mean share of
        # the interval's K slots per arrival: some are exceeded partway.
        share = k * len(rows) / catalog.num_providers
        fractional = rng.uniform(0.0, 2.0 * share, size=catalog.num_providers)
        for floor in (floor, fractional):
            for eta in (0.05, 0.0, float(rng.uniform(0.01, 0.3))):
                cfg = RerankConfig(list_size=k, eta=eta, beta_mix=0.5)
                lam = compute_penalties(catalog, cfg.beta_mix)
                got = run_interval(block, rows, floor, cfg, catalog, rhat_n, lam)
                want = reference_run_interval(block, rows, floor, cfg, catalog, rhat_n, lam)
                self.assert_same(got, want, catalog)

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_on_run_expansion(self, seed):
        # A catalog listed by provider, whose prices are expanded over its
        # runs: 2048 items in 12 uneven runs, the last holding the rest.
        # Relevance, floors and steps sit on a 0.05 grid, so adjusted scores tie.
        rng = np.random.default_rng(seed)
        inventory = rng.integers(1, 40, size=12)
        inventory[-1] += 2048 - inventory.sum()
        catalog = Catalog(np.repeat(np.arange(inventory.size), inventory))
        assert catalog.by_provider
        block = rng.integers(0, 21, size=(10, catalog.num_items)) / 20.0
        rows = rng.integers(0, 10, size=16)
        floor = rng.integers(0, 20, size=inventory.size).astype(float)
        cfg = RerankConfig(list_size=int(rng.integers(1, 12)), eta=0.05, beta_mix=0.5)
        lam = compute_penalties(catalog, cfg.beta_mix)
        got = run_interval(block, rows, floor, cfg, catalog, float(inventory.size), lam)
        want = reference_run_interval(block, rows, floor, cfg, catalog, float(inventory.size), lam)
        self.assert_same(got, want, catalog)

    def test_rejects_list_longer_than_catalog(self):
        with pytest.raises(ConfigError):
            run_interval(np.ones((1, 8)), np.zeros(1, dtype=np.int64), np.zeros(2),
                         RerankConfig(list_size=9, eta=1.0), TWO_PROVIDERS, rhat_n=1.0, lam=LAM)


class TestServeLoopBlocks:
    """run_interval against the reference loop at the edges of its row blocks.

    run_interval divides the arrivals' relevance rows by the forecast b rows
    at a time, b = _BLOCK_VALUES // I for I items and at least 1. As in
    TestServeLoopMatchesReference, equal inventories give integer caps, so
    the prices stay on the 0.05 grid of the relevance, adjusted scores tie
    across providers, and a score divided otherwise would reorder a list.
    An interleaved catalog, not listed by provider, gathers its prices.
    """

    @staticmethod
    def serve(num_items, rows, num_rows, seed, by_provider=True):
        rng = np.random.default_rng(seed)
        nprov = next(p for p in range(3, num_items) if num_items % p == 0)
        per = num_items // nprov
        catalog = Catalog(np.repeat(np.arange(nprov), per) if by_provider
                          else np.tile(np.arange(nprov), per))
        assert catalog.by_provider == by_provider
        block = rng.integers(0, 21, size=(num_rows, num_items)) / 20.0
        floor = rng.integers(0, 8, size=nprov).astype(float)
        cfg = RerankConfig(list_size=5, eta=0.05, beta_mix=0.5)
        lam = compute_penalties(catalog, cfg.beta_mix)
        rhat_n = float(3 * nprov)
        got = run_interval(block, rows, floor, cfg, catalog, rhat_n, lam)
        want = reference_run_interval(block, rows, floor, cfg, catalog, rhat_n, lam)
        TestServeLoopMatchesReference.assert_same(got, want, catalog)

    # (items, rows per block, listed by provider): a block of many rows, of
    # two, of one at the width where a block first holds one, at the block's
    # own width and past it; and a block of many rows of an interleaved catalog.
    WIDTHS = [(300, 27, True), (_BLOCK_VALUES // 2, 2, True), (_BLOCK_VALUES // 2 + 1, 1, True),
              (_BLOCK_VALUES, 1, True), (_BLOCK_VALUES + 1, 1, True), (300, 27, False)]
    IDS = [f"{items}-items" + ("" if listed else "-interleaved") for items, _, listed in WIDTHS]
    # Arrivals in the interval: (blocks, extra) gives blocks * b + extra.
    LENGTHS = {"0": (0, 0), "1": (0, 1), "b-1": (1, -1), "b": (1, 0), "b+1": (1, 1),
               "2b+1": (2, 1)}

    @pytest.mark.parametrize("num_items,per_block,by_provider", WIDTHS, ids=IDS)
    @pytest.mark.parametrize("arrivals", LENGTHS)
    def test_interval_lengths_at_block_edges(self, num_items, per_block, by_provider, arrivals):
        assert max(_BLOCK_VALUES // num_items, 1) == per_block
        blocks, extra = self.LENGTHS[arrivals]
        n = blocks * per_block + extra
        rows = np.random.default_rng(n).integers(0, 4, size=n)  # rows repeat across blocks
        self.serve(num_items, rows, 4, seed=num_items + n, by_provider=by_provider)

    @pytest.mark.parametrize("half", [1, _BLOCK_VALUES // 2 + 1])
    def test_rows_are_divided_by_the_forecast(self, half):
        # Two providers of `half` items each, one relevant item apiece. At
        # arrival 2 the prices of about (-0.175, -0.125) make the two items'
        # scores, divided by 7, tie exactly, so the higher relevance wins;
        # multiplied by 1/7 instead, item 0 would score higher and win.
        catalog = Catalog(np.repeat([0, 1], half))
        block = np.zeros((1, 2 * half))
        block[0, [0, half]] = 0.05, 0.4
        cfg = RerankConfig(list_size=1, eta=0.05, beta_mix=0.5)
        lists, _, prices = run_interval(block, np.zeros(4, int), np.zeros(2), cfg, catalog, 7.0,
                                        compute_penalties(catalog, cfg.beta_mix))
        mu0, mu1 = prices[1]
        assert 0.05 / 7 - mu0 == 0.4 / 7 - mu1
        assert 0.05 * (1 / 7) - mu0 > 0.4 * (1 / 7) - mu1
        assert lists.ravel().tolist() == [half, half, 0, half]

    @pytest.mark.parametrize("num_items,per_block,by_provider", WIDTHS[:2], ids=IDS[:2])
    def test_one_row_repeated_inside_a_block(self, num_items, per_block, by_provider):
        rows = np.array([2] * per_block + [0, 2, 1] + [2] * (per_block - 1))
        self.serve(num_items, rows, 3, seed=7)
