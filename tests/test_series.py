import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfhxa import (
    DomainError,
    IncrementSeries,
    InsufficientDataError,
    LagTooLargeError,
    ParameterError,
    TimeSeries,
    absolute_returns,
    accumulate,
    log_returns,
    subsample,
    tau_increments,
    volume_relative_deviation,
)

finite_values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(DomainError, match="index 1"):
            TimeSeries([1.0, float("nan"), 2.0], "bad")

    def test_rejects_infinity(self):
        with pytest.raises(DomainError):
            TimeSeries([1.0, float("inf")], "bad")

    def test_rejects_empty(self):
        with pytest.raises(InsufficientDataError):
            TimeSeries([], "empty")

    def test_rejects_two_dimensions(self):
        with pytest.raises(ParameterError) as exc:
            TimeSeries([[1.0, 2.0], [3.0, 4.0]], "grid")
        assert str(exc.value) == "series 'grid' must be one-dimensional, got shape (2, 2)"

    def test_values_are_read_only(self):
        s = TimeSeries([1.0, 2.0], "s")
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestTauIncrements:
    def test_unit_drift(self):
        out = tau_increments(TimeSeries([0, 1, 2, 3], "x"), 1)
        assert out.values.tolist() == [1, 1, 1]
        assert out.tau == 1

    def test_tau_two(self):
        out = tau_increments(TimeSeries([0, 1, 2, 3], "x"), 2)
        assert out.values.tolist() == [2, 2]

    def test_hand_example(self):
        out = tau_increments(TimeSeries([5, 2, 7, 1, 4], "x"), 2)
        assert out.values.tolist() == [2, -1, -3]

    @pytest.mark.parametrize("tau", [0, 4, 7, -1])
    def test_lag_out_of_range(self, tau):
        with pytest.raises(LagTooLargeError) as err:
            tau_increments(TimeSeries([0, 1, 2, 3], "x"), tau)
        assert str(tau) in str(err.value)
        assert "4" in str(err.value)  # names the series length

    @given(st.lists(finite_values, min_size=2, max_size=60))
    def test_telescoping_sum(self, levels):
        s = TimeSeries(levels, "x")
        total = tau_increments(s, 1).values.sum()
        assert total == pytest.approx(levels[-1] - levels[0], rel=1e-9, abs=1e-6)

    @given(
        st.lists(finite_values, min_size=3, max_size=40),
        st.lists(finite_values, min_size=3, max_size=40),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=60)
    def test_linearity(self, xs, ys, a, b, tau):
        n = min(len(xs), len(ys))
        x = np.asarray(xs[:n])
        y = np.asarray(ys[:n])
        combined = tau_increments(TimeSeries(a * x + b * y, "z"), tau).values
        separate = (
            a * tau_increments(TimeSeries(x, "x"), tau).values
            + b * tau_increments(TimeSeries(y, "y"), tau).values
        )
        np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-9)


class TestLogReturns:
    def test_exact_logs(self):
        out = log_returns(TimeSeries([1.0, math.e, math.e**2], "p"))
        np.testing.assert_allclose(out.values, [1.0, 1.0], rtol=1e-12)

    def test_constant_prices(self):
        out = log_returns(TimeSeries([100.0, 100.0, 100.0], "p"))
        assert out.values.tolist() == [0.0, 0.0]

    def test_hand_example(self):
        out = log_returns(TimeSeries([100.0, 110.0, 99.0], "p"))
        np.testing.assert_allclose(
            out.values, [math.log(1.1), math.log(0.9)], rtol=1e-12
        )

    def test_nonpositive_price(self):
        with pytest.raises(DomainError, match="index 2"):
            log_returns(TimeSeries([1.0, 2.0, 0.0, 3.0], "p"))
        with pytest.raises(DomainError):
            log_returns(TimeSeries([1.0, -4.0], "p"))


    def test_one_price_has_no_return(self):
        with pytest.raises(InsufficientDataError) as exc:
            log_returns(TimeSeries([100.0], "p"))
        assert str(exc.value) == "need at least 2 prices, got 1"

    def test_nonpositive_price_message_is_a_plain_number(self):
        prices = TimeSeries([1.0, 2.0, 0.5, -1.303157231604361], "p")
        with pytest.raises(DomainError) as exc:
            log_returns(prices)
        assert str(exc.value) == (
            "prices 'p' must be strictly positive; value -1.303157231604361 at index 3"
        )


class TestAbsoluteReturns:
    def test_hand_example(self):
        out = absolute_returns(TimeSeries([100.0, 110.0, 99.0], "p"))
        np.testing.assert_allclose(
            out.values, [math.log(1.1), -math.log(0.9)], rtol=1e-12
        )

    def test_constant(self):
        assert absolute_returns(TimeSeries([1.0, 1.0, 1.0], "p")).values.tolist() == [0, 0]

    def test_two_point_exact_log(self):
        out = absolute_returns(TimeSeries([1.0, math.exp(-2.0)], "p"))
        np.testing.assert_allclose(out.values, [2.0], rtol=1e-12)

    def test_equals_abs_of_log_returns(self):
        prices = TimeSeries([3.0, 1.5, 4.2, 2.2, 9.1], "p")
        assert (
            absolute_returns(prices).values.tolist()
            == np.abs(log_returns(prices).values).tolist()
        )


class TestVolumeRelativeDeviation:
    def test_constant_is_zero(self):
        out = volume_relative_deviation(TimeSeries([5.0] * 5, "v"), 2)
        assert out.values.tolist() == [0.0, 0.0, 0.0]

    def test_hand_examples(self):
        out = volume_relative_deviation(TimeSeries([1.0, 1.0, 2.0], "v"), 2)
        assert out.values.tolist() == [1.0]
        out = volume_relative_deviation(TimeSeries([2.0, 4.0, 3.0], "v"), 2)
        assert out.values.tolist() == [0.0]

    def test_length(self):
        out = volume_relative_deviation(TimeSeries(np.arange(1.0, 13.0), "v"), 5)
        assert len(out) == 7

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            volume_relative_deviation(TimeSeries([1.0, 2.0], "v"), 2)

    def test_nonpositive_volume(self):
        with pytest.raises(DomainError, match="index 1"):
            volume_relative_deviation(TimeSeries([1.0, 0.0, 2.0, 1.0], "v"), 2)

    def test_nonpositive_volume_message_is_a_plain_number(self):
        volumes = TimeSeries([3.0, 1.5, -0.25, 2.0], "v")
        with pytest.raises(DomainError) as exc:
            volume_relative_deviation(volumes, 2)
        assert str(exc.value) == (
            "volumes 'v' must be strictly positive; value -0.25 at index 2"
        )

    def test_bad_window(self):
        with pytest.raises(ParameterError):
            volume_relative_deviation(TimeSeries([1.0, 2.0, 3.0], "v"), 0)

    def test_window_must_be_an_integer(self):
        v = TimeSeries([1.0, 2.0, 3.0, 4.0], "v")
        with pytest.raises(ParameterError, match="^window must be an integer, got 2.5$"):
            volume_relative_deviation(v, 2.5)
        assert volume_relative_deviation(v, np.int64(2)).values.tolist() == \
            volume_relative_deviation(v, 2).values.tolist()


def test_subsample_keeps_every_nth():
    s = TimeSeries(np.arange(10.0), "s")
    assert subsample(s, 3).values.tolist() == [0.0, 3.0, 6.0, 9.0]
    with pytest.raises(ParameterError):
        subsample(s, 0)


def test_lag_and_step_must_be_integers():
    s = TimeSeries(np.arange(10.0), "s")
    with pytest.raises(ParameterError, match="^tau must be an integer, got 2.5$"):
        tau_increments(s, 2.5)
    with pytest.raises(ParameterError, match="^step must be an integer, got 2.5$"):
        subsample(s, 2.5)
    with pytest.raises(ParameterError, match="^tau must be an integer, got 2.5$"):
        IncrementSeries(s.values, 2.5)
    assert tau_increments(s, np.int64(2)).values.tolist() == [2.0] * 8
    assert subsample(s, np.int64(3)).values.tolist() == [0.0, 3.0, 6.0, 9.0]


def test_accumulate_is_running_sum():
    s = TimeSeries([1.0, 2.0, 3.0], "s")
    assert accumulate(s).values.tolist() == [1.0, 3.0, 6.0]
