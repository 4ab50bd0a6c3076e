"""Probability cycles: constructions, clamps, and the dump format."""

import math

import pytest
from hypothesis import given, strategies as st

from dualradio.schedules import (Schedule, build_schedule,
                                 ceil_log2, decay_schedule, format_probability,
                                 frlb_schedule, log2e_of,
                                 rlb_schedule, rlbc_schedule, schedule_csv)

LN_2E = math.log(2 * math.e)


class TestDecay:
    def test_delta_eight(self):
        assert decay_schedule(8).cycle == (0.5, 0.25, 0.125)

    def test_delta_two(self):
        assert decay_schedule(2).cycle == (0.5,)

    def test_delta_nine_rounds_up(self):
        c = decay_schedule(9).cycle
        assert len(c) == 4 and c[-1] == 0.0625

    def test_rejects_tiny_delta(self):
        with pytest.raises(ValueError):
            decay_schedule(1)


class TestRlb:
    def test_power_of_two_case(self):
        c = rlb_schedule(16, 4).cycle
        assert c == pytest.approx((0.5, 0.25, 0.125, 0.0625), rel=1e-15)

    def test_tau_clamped_at_log_delta(self):
        assert rlb_schedule(16, 100).log_probs == rlb_schedule(16, 4).log_probs

    def test_tau_two(self):
        c = rlb_schedule(16, 2).cycle
        assert c == pytest.approx((0.25, 0.0625), rel=1e-15)

    def test_bit_for_bit_reproducible(self):
        assert rlb_schedule(1000, 7).log_probs == rlb_schedule(1000, 7).log_probs

    @given(st.integers(min_value=2, max_value=10 ** 9),
           st.integers(min_value=1, max_value=64))
    def test_strictly_decreasing_and_valid(self, delta, tau):
        s = rlb_schedule(delta, tau)
        assert s.cycle_length == min(tau, ceil_log2(delta))
        for a, b in zip(s.log_probs, s.log_probs[1:]):
            assert a > b
        assert all(lp <= 0.0 for lp in s.log_probs)


class TestFrlb:
    def test_delta16_tau2(self):
        big_l = math.log(16) / LN_2E
        expected = (16 ** -0.5 * big_l / 2, 16 ** -1.0 * big_l / 2)
        assert frlb_schedule(16, 2).cycle == pytest.approx(expected, rel=1e-12)

    def test_delta16_tau1(self):
        expected = (math.log(16) / LN_2E) / 16
        assert frlb_schedule(16, 1).cycle == pytest.approx((expected,), rel=1e-12)

    def test_clamp_uses_log_2e(self):
        # log_2e(256) = 3.27..., so tau larger than 4 clamps to 4
        s = frlb_schedule(256, 100)
        assert s.cycle_length == 4 == s.params["tau_bar"]

    @given(st.integers(min_value=2, max_value=10 ** 9),
           st.integers(min_value=1, max_value=64))
    def test_entries_never_exceed_one(self, delta, tau):
        s = frlb_schedule(delta, tau)
        assert all(lp <= 0.0 for lp in s.log_probs)

    def test_entries_at_most_half_in_clamped_regime(self):
        # whenever tau_bar <= log_2e(delta), the boost keeps p <= 1/(2e) < 1/2
        for delta in (64, 256, 4096, 2 ** 16, 2 ** 30):
            max_tau = math.floor(log2e_of(delta))
            for tau in range(1, max_tau + 1):
                s = frlb_schedule(delta, tau)
                assert all(p <= 0.5 for p in s.cycle)


class TestRlbc:
    def test_extreme_scale_parameters(self):
        s = rlbc_schedule(2 ** 4885, 1000)
        p = s.params
        # independent recomputation of each formula
        big_l = 4885 * math.log(2) / LN_2E
        assert p["tau_bar"] == min(math.ceil(big_l / 2), 1000) == 1000
        a = math.ceil(1000 / (math.log(1000) / LN_2E))
        assert p["a"] == a == 246
        span = 1000 - 2 * a
        assert p["span"] == span == 508
        k = math.ceil(2.0 ** (4885 / span))
        assert p["k_base"] == k == 785
        assert p["e1"] == k * a
        assert p["e2"] == k * k * 1000 * a
        assert s.cycle_length == 1000

    def test_cycle_layout(self):
        s = rlbc_schedule(2 ** 300, 60)
        p = s.params
        span, a, k = p["span"], p["a"], p["k_base"]
        assert s.cycle_length == p["tau_bar"] == span + 2 * a
        for i in range(span):
            assert s.log_probs[i] == pytest.approx(-(i + 1) * math.log(k), rel=1e-12)
        for j in range(a):
            assert s.log_probs[span + 2 * j] == pytest.approx(-math.log(p["e1"]))
            assert s.log_probs[span + 2 * j + 1] == pytest.approx(-math.log(p["e2"]))

    def test_probe_ordering(self):
        # the paired probes sit strictly below the leading ramp entry 1/k
        for delta, tau in ((2 ** 300, 60), (2 ** 4885, 1000)):
            p = rlbc_schedule(delta, tau).params
            assert 1.0 / p["e2"] < 1.0 / p["e1"] < 1.0 / p["k_base"]

    def test_small_config_rejected(self):
        with pytest.raises(ValueError, match="tau_bar - 2a"):
            rlbc_schedule(16, 10)


class TestValidation:
    def test_cycle_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Schedule(label="x", log_probs=())

    def test_probabilities_must_be_positive(self):
        with pytest.raises(ValueError):
            Schedule(label="x", log_probs=(-math.inf,))
        with pytest.raises(ValueError):
            Schedule(label="x", log_probs=(0.5,))

    def test_build_by_name(self):
        assert build_schedule("decay", 8, 3).label == "decay"
        with pytest.raises(ValueError):
            build_schedule("nope", 8, 3)


class TestDump:
    def test_csv_shape(self):
        text = schedule_csv(rlb_schedule(16, 2))
        lines = text.strip().split("\n")
        assert lines[0] == "index,probability"
        assert lines[1] == "1,0.25"
        assert lines[2] == "2,0.0625"

    def test_seventeen_digits(self):
        text = schedule_csv(frlb_schedule(16, 1))
        value = text.strip().split("\n")[1].split(",")[1]
        assert value == f"{frlb_schedule(16, 1).cycle[0]:.17g}"

    def test_subnormal_range_formatting(self):
        # a log-prob far below double range still prints a usable decimal
        text = format_probability(-4000.0)
        mant, exp = text.split("e")
        assert math.isclose(float(mant), 10 ** (-4000.0 / math.log(10) % 1.0 - 0.0),
                            rel_tol=1e-9) or 1.0 <= float(mant) < 10.0
        assert int(exp) == math.floor(-4000.0 / math.log(10))

    def test_format_round_trips_normal_values(self):
        for lp in (-0.5, -30.0, -600.0):
            assert float(format_probability(lp)) == pytest.approx(math.exp(lp), rel=1e-15)
