"""Traffic forecaster behavior."""

import numpy as np
import pytest

from bankfair.errors import ConfigError
from bankfair.forecast import forecast_traffic


class TestForecasters:
    def test_last_value(self):
        fc = forecast_traffic([10, 20, 30], 2, "moving_average", {"w": 1})
        np.testing.assert_allclose(fc.horizon_values, [30, 30])

    def test_window_one_is_the_latest_value_bit_for_bit(self):
        # What the removed last_value forecaster returned: float(history[-1]).
        rng = np.random.default_rng(5)
        for _ in range(500):
            history = rng.uniform(0.0, 1e4, size=int(rng.integers(1, 20)))
            history[rng.random(history.size) < 0.2] = 0.0
            fc = forecast_traffic(history, 3, "moving_average", {"w": 1, "prior_mean": 0.0})
            assert fc.horizon_values.tobytes() == np.full(3, float(history[-1])).tobytes()

    def test_moving_average(self):
        fc = forecast_traffic([10, 20, 30], 2, "moving_average", {"w": 3})
        np.testing.assert_allclose(fc.horizon_values, [20, 20])

    def test_moving_average_window_shorter_than_history(self):
        fc = forecast_traffic([100, 10, 20, 30], 1, "moving_average", {"w": 3})
        np.testing.assert_allclose(fc.horizon_values, [20])

    def test_seasonal_reproduces_periodic_series(self):
        period = np.array([5.0, 9.0, 14.0, 9.0, 6.0, 2.0, 1.0])
        history = np.tile(period, 3)
        fc = forecast_traffic(history, 7, "seasonal", {"lag": 7})
        np.testing.assert_allclose(fc.horizon_values, period)

    def test_seasonal_tiles_beyond_one_period(self):
        fc = forecast_traffic([1.0, 2.0], 5, "seasonal", {"lag": 2})
        np.testing.assert_allclose(fc.horizon_values, [1, 2, 1, 2, 1])

    def test_seasonal_short_history_falls_back(self, caplog):
        with caplog.at_level("WARNING"):
            fc = forecast_traffic([10, 20], 2, "seasonal", {"lag": 7, "w": 2})
        np.testing.assert_allclose(fc.horizon_values, [15, 15])
        assert "falling back" in caplog.text

    def test_oracle_returns_true_future(self):
        future = np.array([3.0, 1.0, 4.0])
        fc = forecast_traffic([9, 9], 3, "oracle", future=future)
        np.testing.assert_allclose(fc.horizon_values, future)

    def test_oracle_requires_future(self):
        with pytest.raises(ConfigError):
            forecast_traffic([1], 2, "oracle")

    @pytest.mark.parametrize("future", [
        None, [3.0, 1.0], [3.0, 1.0, 4.0, 1.0], [[3.0, 1.0, 4.0]], [3.0, -1.0, 4.0],
        [3.0, float("nan"), 4.0], [3.0, float("inf"), 4.0], [3.0, 1.0, -float("inf")]])
    def test_oracle_future_is_checked_where_it_comes_in(self, future):
        with pytest.raises(ConfigError, match="^oracle future must be a vector of finite "
                                              "counts >= 0 of the horizon's length 3$"):
            forecast_traffic([9, 9], 3, "oracle", future=future)

    @pytest.mark.parametrize("method", ["moving_average", "oracle"])
    def test_horizon_must_be_positive(self, method):
        with pytest.raises(ConfigError, match="^forecast horizon must be >= 1$"):
            forecast_traffic([1.0], 0, method, future=[])

    @pytest.mark.parametrize("method", ["moving_average", "seasonal"])
    @pytest.mark.parametrize("history", [
        [float("nan")], [3.0, float("nan")], [float("inf")], [2.0, -float("inf")], [-1.0],
        [4.0, -1.0, 2.0], [[1.0, 2.0]], [[1.0], [2.0]]])
    def test_history_must_be_finite_nonnegative_counts(self, method, history):
        with pytest.raises(ConfigError, match="^forecast history must be a vector of "
                                              "finite counts >= 0$"):
            forecast_traffic(history, 2, method, {"lag": 1} if method == "seasonal" else {})

    def test_empty_history_uses_prior_mean(self):
        fc = forecast_traffic([], 3, "moving_average", {"prior_mean": 40.0})
        np.testing.assert_allclose(fc.horizon_values, [40, 40, 40])

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            forecast_traffic([1], 1, "gru")

    def test_determinism_and_nonnegativity(self):
        a = forecast_traffic([3, 0, 7], 4, "moving_average", {"w": 2})
        b = forecast_traffic([3, 0, 7], 4, "moving_average", {"w": 2})
        np.testing.assert_array_equal(a.horizon_values, b.horizon_values)
        assert (a.horizon_values >= 0).all()
