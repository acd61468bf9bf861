"""Traffic forecaster behavior."""

import numpy as np
import pytest

from bankfair.errors import ConfigError
from bankfair.forecast import forecast_traffic


class TestForecasters:
    def test_last_value(self):
        fc = forecast_traffic([10, 20, 30], 2, "last_value")
        np.testing.assert_allclose(fc.horizon_values, [30, 30])

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
