import math
import pickle
import sys
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, strategies as st

from dpsrk.detector import DetectorSpec
from dpsrk.errors import ModelDomainError
from dpsrk.link import ChannelStats, LinkScenario, _trial_scenario, channel_stats

from conftest import INGAAS, SI, si_scenario


def toy_detector(efficiency=1.0, dark=0.0, loss_db=0.0):
    return DetectorSpec(
        name="toy", efficiency=efficiency, dark_per_window=dark, dead_time=0.0,
        receiver_loss_db=loss_db,
    )


class TestPSignal:
    def test_zero_loss(self):
        s = si_scenario(length_km=0.0, detector=toy_detector())
        assert channel_stats(s).p_signal == 0.2

    def test_fig3_si_at_100km(self):
        # mu eta 10^-(alpha L + L_r)/10 evaluated with a 50-digit oracle
        p_signal = channel_stats(si_scenario(100.0)).p_signal
        assert p_signal == pytest.approx(3.4284517355791234e-4, rel=1e-12)

    def test_vanishes_at_extreme_loss(self):
        s = si_scenario(length_km=100.0, alpha_db_per_km=1000.0)
        assert channel_stats(s).p_signal < 1e-300

    def test_clamped_above_one(self):
        s = si_scenario(length_km=0.0, mu=6.0, detector=toy_detector())
        stats = channel_stats(s)
        assert stats.p_signal == 1.0
        assert stats.clamped


class TestPDark:
    def test_si_value(self):
        assert channel_stats(si_scenario()).p_dark == pytest.approx(7e-8, rel=1e-15)

    def test_ingaas_value(self):
        p_dark = channel_stats(si_scenario(detector=INGAAS)).p_dark
        assert p_dark == pytest.approx(1.84e-5, rel=1e-15)

    def test_zero(self):
        assert channel_stats(si_scenario(detector=toy_detector())).p_dark == 0.0

    def test_largest_dark_count_stays_below_one(self):
        # DetectorSpec keeps d below 1/2 and doubling is exact, so 2d < 1
        d = math.nextafter(0.5, 0.0)
        p_dark = channel_stats(si_scenario(detector=toy_detector(dark=d))).p_dark
        assert p_dark == 2.0 * d < 1.0


class TestPClick:
    def test_sum(self):
        s = si_scenario(100.0)
        assert channel_stats(s).p_click == pytest.approx(3.4291517355791234e-4, rel=1e-12)

    def test_zero(self):
        s = si_scenario(detector=toy_detector(efficiency=0.0))
        assert channel_stats(s).p_click == 0.0

    def test_clamp_with_flag(self):
        s = si_scenario(length_km=0.0, mu=0.9, detector=toy_detector(dark=0.1))
        stats = channel_stats(s)
        assert stats.p_click == 1.0
        assert stats.clamped

    def test_click_of_exactly_one_is_not_clamped(self):
        # 0.5 signal + 2 * 0.25 dark sums to 1 exactly
        s = si_scenario(length_km=0.0, mu=1.0, detector=toy_detector(efficiency=0.5, dark=0.25))
        stats = channel_stats(s)
        assert stats.p_click == 1.0
        assert not stats.clamped

    def test_composition_exact(self):
        # bit-for-bit sum below the clamp
        for length in (0.0, 10.0, 50.0, 123.4, 250.0):
            stats = channel_stats(si_scenario(length))
            assert stats.p_click == stats.p_signal + stats.p_dark


class TestQber:
    def test_dark_only_is_half(self):
        s = si_scenario(detector=toy_detector(efficiency=0.0, dark=1e-6))
        assert channel_stats(s).qber == 0.5

    def test_no_dark_is_baseline(self):
        s = si_scenario(detector=toy_detector(efficiency=0.3))
        assert channel_stats(s).qber == pytest.approx(s.baseline_error, rel=1e-15)

    # b p / p rounds below b: to 0.2499999999999989 at the subnormal signal,
    # and to 0.09999999999999999 at the other
    @pytest.mark.parametrize("efficiency, b", [(2.225073858507203e-309, 0.25), (0.35, 0.1)])
    def test_no_dark_is_exactly_baseline(self, efficiency, b):
        s = si_scenario(length_km=0.0, mu=1.0, baseline_error=b,
                        detector=toy_detector(efficiency=efficiency))
        assert channel_stats(s).qber == b

    # a dark share below b's last bit leaves (p_dark/2 + b p) / (p + p_dark) a
    # rounding under b: 0.09999999999999999 at the first point
    @pytest.mark.parametrize("dark, b", [(1e-20, 0.1), (1e-300, 0.375)])
    def test_negligible_dark_is_not_below_baseline(self, dark, b):
        s = si_scenario(length_km=0.0, mu=0.7, baseline_error=b,
                        detector=toy_detector(dark=dark))
        assert channel_stats(s).qber == b

    def test_fig3_si_at_200km(self):
        qber = channel_stats(si_scenario(200.0)).qber
        assert qber == pytest.approx(0.02227931240729725, rel=1e-12)

    def test_undefined_when_no_clicks(self):
        # the signal underflows to exactly 0 and there are no dark counts
        s = si_scenario(length_km=1000.0, alpha_db_per_km=1000.0, detector=toy_detector())
        stats = channel_stats(s)
        assert stats.p_click == 0.0
        assert math.isnan(stats.qber)

    @given(st.floats(min_value=0.0, max_value=400.0))
    def test_bounded(self, length):
        e = channel_stats(si_scenario(length)).qber
        assert si_scenario().baseline_error <= e <= 0.5

    def test_monotone_in_length(self):
        lengths = [i * 5.0 for i in range(81)]
        errors = [channel_stats(si_scenario(length)).qber for length in lengths]
        assert all(b >= a - 1e-15 for a, b in zip(errors, errors[1:]))

    def test_long_distance_limit(self):
        assert channel_stats(si_scenario(2000.0)).qber == pytest.approx(0.5, abs=1e-9)


class TestScaleLaw:
    @given(
        st.floats(min_value=0.0, max_value=150.0),
        st.floats(min_value=0.0, max_value=150.0),
    )
    def test_signal_factorizes_over_distance(self, l1, l2):
        s = si_scenario(l1 + l2)
        expected = channel_stats(si_scenario(l1)).p_signal * 10.0 ** (-0.21 * l2 / 10.0)
        assert channel_stats(s).p_signal == pytest.approx(expected, rel=1e-12)


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "override",
        [
            {"mu": 0.0},
            {"mu": -0.1},
            {"alpha_db_per_km": -0.1},
            {"length_km": -1.0},
            {"clock_hz": 0.0},
            {"baseline_error": 0.5},
            {"baseline_error": -0.01},
            {"delay_n": 0},
            {"dead_time_delta": -1.0},
            {"mu": math.inf},
            {"alpha_db_per_km": math.nan},
            {"length_km": math.nan},
            {"length_km": math.inf},
            {"clock_hz": math.inf},
            {"delay_n": math.nan},
            {"dead_time_delta": math.nan},
            {"alpha_db_per_km": math.inf},
            {"delay_n": math.inf},
            {"dead_time_delta": math.inf},
            {"delay_n": 2**1024},
            {"delay_n": 10**400},
        ],
    )
    def test_rejects(self, override):
        with pytest.raises(ModelDomainError):
            si_scenario(**override)

    def test_largest_float_delay_is_accepted(self):
        assert si_scenario(delay_n=int(sys.float_info.max)).delay_n == int(sys.float_info.max)

    def test_default_delta_is_inverse_detector_count(self):
        assert si_scenario().dead_time_delta == 0.5
        assert si_scenario() == si_scenario(dead_time_delta=0.5)
        assert si_scenario(dead_time_delta=1.0).dead_time_delta == 1.0

    def test_replace_for_sweeps(self):
        s = si_scenario(100.0)
        assert replace(s, length_km=50.0).length_km == 50.0

    def test_qber_nan_in_stats_when_zero_click(self):
        s = si_scenario(detector=toy_detector(efficiency=0.0))
        assert math.isnan(channel_stats(s).qber)


class TestTrialScenario:
    @pytest.mark.parametrize("detector", [SI, INGAAS], ids=["si", "ingaas"])
    @pytest.mark.parametrize("delta", [0.5, 0.0, 0.7])
    def test_equals_replace(self, detector, delta):
        s = si_scenario(100.0, delay_n=10, detector=detector, dead_time_delta=delta)
        for mu, length in ((0.2, 100.0), (0.013, 0.0), (1.0, 412.5)):
            assert _trial_scenario(s, mu, length) == replace(s, mu=mu, length_km=length)

    @pytest.mark.parametrize(
        "mu, length",
        [(0.0, 10.0), (-0.1, 10.0), (math.nan, 10.0), (math.inf, 10.0),
         (0.2, -1.0), (0.2, math.nan), (0.2, math.inf)],
    )
    def test_invalid_trial_rejected(self, mu, length):
        s = si_scenario()
        with pytest.raises(ModelDomainError) as expected:
            replace(s, mu=mu, length_km=length)
        with pytest.raises(ModelDomainError) as got:
            _trial_scenario(s, mu, length)
        assert str(got.value) == str(expected.value)

    def test_cloned_trial_is_frozen(self):
        trial = _trial_scenario(si_scenario(), 0.3, 25.0)
        with pytest.raises(FrozenInstanceError):
            trial.mu = 0.4
        with pytest.raises(FrozenInstanceError):
            trial.length_km = 50.0
        assert (trial.mu, trial.length_km) == (0.3, 25.0)

    def test_cloned_trial_hashes_and_pickles_as_replace(self):
        s = si_scenario(100.0, detector=INGAAS, dead_time_delta=0.7)
        trial = _trial_scenario(s, 0.3, 25.0)
        assert type(trial) is LinkScenario
        assert hash(trial) == hash(replace(s, mu=0.3, length_km=25.0))
        copy = pickle.loads(pickle.dumps(trial))
        assert copy == trial and hash(copy) == hash(trial)
        # the source keeps its own mu and length
        assert (s.mu, s.length_km) == (0.2, 100.0)

    @given(
        mu=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        length=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
    def test_equals_replace_or_raises_its_error(self, mu, length):
        s = si_scenario(detector=INGAAS, dead_time_delta=0.7)
        try:
            want = replace(s, mu=mu, length_km=length)
        except ModelDomainError as error:
            with pytest.raises(ModelDomainError) as got:
                _trial_scenario(s, mu, length)
            assert str(got.value) == str(error)
        else:
            trial = _trial_scenario(s, mu, length)
            assert trial == want
            assert repr(trial) == repr(want)  # the same bits, -0.0 included

    def test_fields_are_the_ones_it_passes(self):
        # callers that build a LinkScenario positionally, such as
        # tests/test_precision.py, rely on this order
        assert [f.name for f in fields(LinkScenario)] == [
            "mu", "alpha_db_per_km", "length_km", "clock_hz", "baseline_error", "detector",
            "delay_n", "dead_time_delta",
        ]


class TestChannelStatsRecord:
    def test_field_order(self):
        assert ChannelStats._fields == ("p_signal", "p_dark", "p_click", "qber", "clamped")

    def test_fields_cannot_be_assigned(self):
        stats = channel_stats(si_scenario())
        with pytest.raises(AttributeError):
            stats.qber = 0.0

    def test_equal_stats_compare_and_hash_equal(self):
        a, b = channel_stats(si_scenario(100.0)), channel_stats(si_scenario(100.0))
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert a != channel_stats(si_scenario(50.0))
