"""Allocation rule tests: pinned values, grid oracle, and property suite."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bankfair.bankruptcy import AUDIT_COLUMNS, plan_interval, talmud
from bankfair.errors import ConfigError, InfeasibleAllocationError

CLAIMS = np.array([100.0, 200.0, 300.0])


def theta_grid_awards(claims, estate, points=2_000_001):
    """Independent oracle: scan theta densely and keep the best budget match."""
    thetas = np.linspace(0.0, claims.max() / 2.0, points)
    if estate <= claims.sum() / 2.0:
        awards = np.minimum(claims[None, :] / 2.0, thetas[:, None])
    else:
        awards = np.maximum(claims[None, :] / 2.0, claims[None, :] - thetas[:, None])
    best = np.argmin(np.abs(awards.sum(axis=1) - estate))
    return awards[best]


class TestTalmudPinnedValues:
    @pytest.mark.parametrize("estate,expected", [
        (100.0, [100 / 3, 100 / 3, 100 / 3]),
        (200.0, [50.0, 75.0, 75.0]),
        (300.0, [50.0, 100.0, 150.0]),
        (450.0, [50.0, 150.0, 250.0]),  # = claims - talmud(150) by self-duality
    ])
    def test_textbook_cases(self, estate, expected):
        awards, _ = talmud(CLAIMS, estate)
        np.testing.assert_allclose(awards, expected, atol=1e-6)

    @pytest.mark.parametrize("estate", [70.0, 150.0, 299.0, 301.0, 449.0, 560.0])
    def test_matches_theta_grid_oracle(self, estate):
        awards, _ = talmud(CLAIMS, estate)
        oracle = theta_grid_awards(CLAIMS, estate)
        np.testing.assert_allclose(awards, oracle, atol=1e-3)

    def test_full_satisfaction(self):
        awards, _ = talmud(CLAIMS, float(CLAIMS.sum()))
        np.testing.assert_allclose(awards, CLAIMS, atol=1e-9)

    def test_empty_estate(self):
        awards, _ = talmud(CLAIMS, 0.0)
        np.testing.assert_allclose(awards, 0.0)

    def test_half_sum_boundary_agrees_across_branches(self):
        # Both branch formulas give claims/2 exactly at the boundary.
        awards, _ = talmud(CLAIMS, float(CLAIMS.sum()) / 2.0)
        np.testing.assert_allclose(awards, CLAIMS / 2.0, atol=1e-9)

    @pytest.mark.parametrize("claims,estate,awards,theta", [
        ([100.0, 200.0, 300.0], 150.0, [50.0, 50.0, 50.0], 50.0),  # kink at a half-claim
        ([100.0, 200.0, 300.0], 250.0, [50.0, 100.0, 100.0], 100.0),  # kink
        ([100.0, 200.0, 300.0], 350.0, [50.0, 100.0, 200.0], 100.0),  # kink, upper branch
        ([100.0, 200.0, 300.0], 0.0, [0.0, 0.0, 0.0], 0.0),  # E = 0
        ([100.0, 200.0, 300.0], 300.0, [50.0, 100.0, 150.0], 150.0),  # E = total/2
        ([100.0, 200.0, 300.0], 600.0, [100.0, 200.0, 300.0], 0.0),  # E = total
        ([0.0, 100.0, 0.0, 300.0], 160.0, [0.0, 50.0, 0.0, 110.0], 110.0),  # zero claims
        ([0.0, 100.0, 0.0, 300.0], 300.0, [0.0, 50.0, 0.0, 250.0], 50.0),
        ([0.0, 0.0], 0.0, [0.0, 0.0], 0.0),
        ([80.0], 30.0, [30.0], 30.0),  # single claimant
        ([80.0], 50.0, [50.0], 30.0),
    ])
    def test_exact_awards_and_theta(self, claims, estate, awards, theta):
        got_awards, got_theta = talmud(np.array(claims), estate)
        np.testing.assert_allclose(got_awards, awards, atol=1e-12)
        assert got_theta == pytest.approx(theta, abs=1e-12)

    def test_estate_above_claims_rejected(self):
        with pytest.raises(InfeasibleAllocationError):
            talmud(CLAIMS, 601.0)
        with pytest.raises(InfeasibleAllocationError):
            talmud(CLAIMS, np.array([10.0, 601.0]))

    def test_estate_within_slack_clamped_to_total(self):
        awards, theta = talmud(CLAIMS, 600.0 * (1 + 1e-10))
        np.testing.assert_array_equal(awards, CLAIMS)
        assert theta == 0.0

    @pytest.mark.parametrize("claims", [
        [3.0, 3.0, 1.0, 3.0, 0.0, 1.0],
        [0.1, 0.1, 0.1, 0.2, 0.3, 0.0, 0.0],
        [0.0, 2.0, 2.0, 5.0],
        [7.0],
        [0.0, 0.0, 0.0],
    ], ids=["ties", "tenths", "zero_first", "one", "zeros"])
    def test_one_pass_award_matches_both_branch_formula(self, claims):
        # A scalar estate's awards are, bit for bit, the two-branch np.where;
        # a vector of estates gives each one's first award and theta, bit for
        # bit those of the scalar call.
        d = np.array(claims)
        total = float(d.sum())
        half = total / 2.0
        estates = np.array([0.0, 0.25 * total, half, np.nextafter(half, 0.0),
                            np.nextafter(half, np.inf), 0.75 * total, total])
        estates = np.minimum(estates, total)  # all-zero claims have no estate above 0
        first, theta = talmud(d, estates)
        assert first.shape == theta.shape == estates.shape
        for row, estate in enumerate(estates):
            one, one_theta = talmud(d, float(estate))
            low = np.minimum(0.5 * d, one_theta)
            assert one.tobytes() == np.where(estate <= half, low, d - low).tobytes()
            assert one[0].tobytes() == first[row].tobytes()
            assert np.float64(one_theta).tobytes() == theta[row].tobytes()
        first, theta = talmud(d, np.empty(0))
        assert first.shape == theta.shape == (0,)

    @pytest.mark.parametrize("claims,estate,message", [
        ([], 0.0, "claims must be a nonempty vector"),
        ([[1.0, 2.0]], 1.0, "claims must be a nonempty vector"),
        ([1.0, np.nan], 1.0, "claims must be finite and nonnegative"),
        ([1.0, -1.0], 0.0, "claims must be finite and nonnegative"),
        ([1.0, 2.0], [[1.0]], "estate must be a scalar or a vector"),
        ([1.0, 2.0], np.inf, "estate must be finite and nonnegative"),
        ([1.0, 2.0], [1.0, -0.5], "estate must be finite and nonnegative"),
        ([np.nan, 1.0], 1.0, "claims must be finite and nonnegative"),
        ([1.0, np.inf], 1.0, "claims must be finite and nonnegative"),
        ([-np.inf, 1.0], 0.0, "claims must be finite and nonnegative"),
        ([1.0, 2.0], -np.inf, "estate must be finite and nonnegative"),
        ([1.0, 2.0], np.nan, "estate must be finite and nonnegative"),
        ([1.0, 2.0], [1.0, np.nan], "estate must be finite and nonnegative"),
        ([1.0, 2.0], [np.nan, 1.0], "estate must be finite and nonnegative"),
        ([1.0, 2.0], -0.5, "estate must be finite and nonnegative"),
    ])
    def test_bad_input_rejected(self, claims, estate, message):
        with pytest.raises(ConfigError, match=message):
            talmud(np.array(claims), estate)


def kink_estates(claims):
    """Estates at which theta equals a half-claim, in both branches."""
    half = claims / 2.0
    low = np.minimum(half[None, :], half[:, None]).sum(axis=1)
    return np.concatenate([low, claims.sum() - low])


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    claim = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1000.0))
    claims = np.asarray(draw(st.lists(claim, min_size=n, max_size=n)))
    if draw(st.booleans()):
        estate = draw(st.sampled_from(kink_estates(claims).tolist()))
        return claims, float(min(estate, claims.sum()))
    frac = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                          st.floats(min_value=0.0, max_value=1.0)))
    return claims, float(frac * claims.sum())


class TestTalmudProperties:
    @given(instances())
    @settings(max_examples=300, deadline=None)
    def test_efficiency_and_bounds(self, inst):
        claims, estate = inst
        awards, _ = talmud(claims, estate)
        assert abs(awards.sum() - estate) <= 1e-9 * max(1.0, estate)
        assert (awards >= -1e-12).all()
        assert (awards <= claims + 1e-9).all()

    @given(instances())
    @settings(max_examples=300, deadline=None)
    def test_self_duality(self, inst):
        claims, estate = inst
        total = claims.sum()
        a, _ = talmud(claims, estate)
        b, _ = talmud(claims, total - estate)
        np.testing.assert_allclose(a, claims - b, atol=1e-9 * max(1.0, total))

    @given(instances())
    @settings(max_examples=300, deadline=None)
    def test_case_consistency(self, inst):
        claims, estate = inst
        awards, _ = talmud(claims, estate)
        if estate <= claims.sum() / 2.0:
            assert (awards <= claims / 2.0 + 1e-9).all()
        else:
            assert (awards >= claims / 2.0 - 1e-9).all()

    @given(instances(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_resource_monotonicity(self, inst, frac):
        claims, estate = inst
        bigger = estate + frac * (claims.sum() - estate)
        a, _ = talmud(claims, estate)
        b, _ = talmud(claims, bigger)
        assert (b >= a - 1e-8).all()

    @given(instances())
    @example((np.array([85.0, 85.0, 153.0]), 196.828125))
    @settings(max_examples=300, deadline=None)
    def test_order_preservation(self, inst):
        # For claims d_i <= d_j the awards satisfy a_i <= a_j and the losses
        # d_i - a_i <= d_j - a_j. Awards keep the order exactly, and so do
        # losses while the estate is at most half the claims. Above that an
        # award is d - min(h, theta) rounded to the nearest double, so the
        # loss d - a, itself exact since a >= d / 2, is min(h, theta) only to
        # half an ulp of a: two losses may cross by that much, as they do in
        # the pinned example.
        claims, estate = inst
        awards, _ = talmud(claims, estate)
        order = np.argsort(claims, kind="stable")
        d, a = claims[order], awards[order]
        assert (np.diff(a) >= 0).all()
        upper = estate > claims.sum() / 2
        slack = (np.spacing(a[:-1]) + np.spacing(a[1:])) / 2 if upper else 0.0
        assert (np.diff(d - a) >= -slack).all()

    @given(instances(), st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_vector_estate_matches_scalar_calls(self, inst, fracs):
        claims, estate = inst
        total = claims.sum()
        extra = [total * f for f in fracs]
        estates = np.array([estate, 0.0, total / 2.0, total, *extra,
                            *np.minimum(kink_estates(claims), total)])
        first, theta = talmud(claims, estates)
        assert first.shape == theta.shape == (estates.size,)
        for row, e in enumerate(estates):
            one_awards, one_theta = talmud(claims, float(e))
            assert first[row].tobytes() == one_awards[0].tobytes()
            assert theta[row].tobytes() == np.float64(one_theta).tobytes()

    def test_equal_claims_get_equal_awards(self):
        claims = np.array([250.0, 250.0, 40.0, 250.0])
        awards, _ = talmud(claims, 400.0)
        assert abs(awards[0] - awards[1]) <= 1e-12
        assert abs(awards[0] - awards[3]) <= 1e-12


class TestPlanInterval:
    def test_talmud_equal_claims(self):
        audit = plan_interval("talmud", np.array([100.0]), np.full(4, 100.0), np.full(4, 10.0))
        assert audit["award"][0] == pytest.approx(25.0, abs=1e-9)

    def test_prop_share(self):
        audit = plan_interval("prop", np.array([90.0]), np.array([1.0, 2.0, 6.0]),
                             np.array([10.0, 20.0, 60.0]))
        assert audit["award"][0] == pytest.approx(10.0)

    def test_naive_below_mean_plans_nothing(self):
        audit = plan_interval("naive", np.array([80.0]), np.zeros(3), np.array([5.0, 10.0, 15.0]))
        np.testing.assert_allclose(audit["award"], 0.0)

    def test_naive_at_or_above_mean_plans_half(self):
        audit = plan_interval("naive", np.array([80.0]), np.zeros(3), np.array([15.0, 10.0, 5.0]))
        np.testing.assert_allclose(audit["award"], 40.0)

    @pytest.mark.parametrize("value,length", [(0.1, 3), (0.7, 7), (101 / 3, 10),
                                              (304 / 3, 7), (123.45, 14)])
    def test_naive_flat_forecast_plans_half(self, value, length):
        # Each of these forecasts has a mean that rounds above its entries.
        forecast = np.full(length, value)
        audit = plan_interval("naive", np.array([80.0]), np.zeros(length), forecast)
        np.testing.assert_array_equal(audit["award"], 40.0)

    def test_estate_clamped_to_claims_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            audit = plan_interval("talmud", np.array([500.0]), np.full(2, 100.0),
                                 np.full(2, 10.0))
        assert "clamping" in caplog.text
        assert audit["award"][0] == pytest.approx(100.0)  # full claim of interval 1

    def test_estate_one_ulp_above_claims_clamped_without_warning(self, caplog):
        # Claims summing to one ulp below the estate: talmud accepts the
        # excess as rounding, so plan_interval clamps it without a warning.
        claims = np.full(2, np.nextafter(2.5, 0.0))
        assert claims.sum() == np.nextafter(5.0, 0.0)
        with caplog.at_level("WARNING"):
            audit = plan_interval("talmud", np.array([5.0]), claims, np.ones(2))
        assert "clamping" not in caplog.text
        assert audit["estate"][0] == claims.sum()
        assert audit["award"][0] == claims[0]

    def test_zero_claims_against_an_estate_is_infeasible(self):
        with pytest.raises(InfeasibleAllocationError, match="^provider 1: ") as info:
            plan_interval("talmud", np.array([0.0, 100.0, 50.0]), np.zeros(3), np.zeros(3),
                          interval=4)
        assert (info.value.provider, info.value.interval) == (1, 4)

    def test_one_clamp_warning_per_interval(self, caplog):
        remaining = np.array([500.0, 10.0, 600.0, 200.0, 700.0])
        with caplog.at_level("WARNING", logger="bankfair"):
            audit = plan_interval("talmud", remaining, np.full(2, 100.0), np.full(2, 10.0),
                                  interval=7)
        [record] = caplog.records
        assert record.levelname == "WARNING" and "clamping" in record.msg
        message = record.getMessage()
        assert message.startswith("interval 7: 3 estates exceed total claims 200.000")
        assert message.endswith("providers [0, 2, 4]")
        np.testing.assert_array_equal(audit["estate"], np.minimum(remaining, 200.0))

    def test_unknown_rule(self):
        with pytest.raises(ConfigError):
            plan_interval("robin_hood", np.array([1.0]), np.ones(2), np.ones(2))

    def test_audit_records_cover_all_providers(self):
        for rule in ("talmud", "naive", "prop", "none"):
            audit = plan_interval(rule, np.array([10.0, 20.0]), np.full(3, 30.0),
                                 np.full(3, 5.0))
            assert tuple(audit) == AUDIT_COLUMNS
            assert all(column.shape == (2,) for column in audit.values())
            assert (audit["award"] <= audit["estate"] + 1e-9).all()
            assert np.isnan(audit["theta"]).all() == (rule != "talmud")

    def test_audit_columns_own_their_data(self):
        # A run keeps every interval's audit: a column that views a larger
        # array would keep all of it alive.
        for rule in ("talmud", "naive", "prop", "none"):
            audit = plan_interval(rule, np.array([10.0, 20.0]), np.full(3, 30.0),
                                  np.full(3, 5.0))
            for name, column in audit.items():
                assert column.flags.owndata, (rule, name)

    def test_plan_never_exceeds_remaining(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            remaining = rng.uniform(0, 200, size=4)
            forecast = rng.uniform(0, 50, size=6)
            claims = 0.4 * forecast
            for rule in ("talmud", "naive", "prop"):
                audit = plan_interval(rule, remaining, claims, forecast)
                assert (audit["award"] <= remaining + 1e-9).all()
