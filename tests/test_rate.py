import math
from dataclasses import replace

import pytest

from dpsrk.detector import DetectorSpec
from dpsrk.errors import ModelDomainError, NoSecureDistanceError
from dpsrk.link import channel_stats
from dpsrk.presets import load_presets
from dpsrk.rate import (
    FLAG_ABOVE_EC_RANGE,
    FLAG_DEADTIME_LIMITED,
    FLAG_INSECURE,
    RatePoint,
    asymptotic_rate,
    bb84_reference,
    binary_entropy,
    max_secure_distance,
    optimize_mu,
    secure_rate,
    secure_rate_from_parts,
)

from conftest import HYBRID_MEM, HYBRID_NOMEM, IND_MEM, IND_NOMEM, SI, si_scenario


def quiet_detector(dead_time=0.0):
    """Detector with no dark counts, for clean-limit tests."""
    return DetectorSpec(
        name="quiet", efficiency=0.35, dark_per_window=0.0, dead_time=dead_time,
        receiver_loss_db=2.1,
    )


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_known_value(self):
        assert binary_entropy(0.01) == pytest.approx(0.080793135895911173, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ModelDomainError):
            binary_entropy(-0.1)


class TestSecureRateFromParts:
    def test_hand_evaluated_point(self):
        # nu p_click (tau - f H(e)) at round-number inputs, 50-digit oracle
        r = secure_rate_from_parts(1e9, 3.5e-4, 0.01, 0.97789, 1.16)
        assert r == pytest.approx(309459.48682626006, rel=1e-9)

    def test_clamped_at_zero(self):
        assert secure_rate_from_parts(1e9, 1e-3, 0.14, 0.0, 1.35) == 0.0


class TestSecureRate:
    def test_zero_error_reduces_to_tau_times_sifted(self):
        s = si_scenario(100.0, baseline_error=0.0, detector=quiet_detector())
        point = secure_rate(s, HYBRID_NOMEM)
        assert point.qber == 0.0
        assert point.secure_rate_hz == s.clock_hz * point.p_click * point.tau

    def test_end_to_end_against_oracle_chain(self):
        # full chain (signal, dark, QBER, gamma, tau, f, entropy) frozen from
        # a 50-digit evaluation at N=10, no memory, L=100
        s = si_scenario(100.0, delay_n=10)
        point = secure_rate(s, HYBRID_NOMEM)
        assert point.secure_rate_hz == pytest.approx(303302.55011518863, rel=0.01)
        assert point.secure_rate_hz == pytest.approx(303302.55011518863, rel=1e-9)

    def test_above_ec_range_yields_zero_with_flag(self):
        s = si_scenario(100.0, baseline_error=0.2)
        point = secure_rate(s, HYBRID_NOMEM)
        assert point.secure_rate_hz == 0.0
        assert FLAG_ABOVE_EC_RANGE in point.flags
        assert FLAG_INSECURE in point.flags
        assert math.isnan(point.f_used)
        assert not point.secure

    def test_fixed_f_keeps_going_above_table_range(self):
        s = si_scenario(100.0, baseline_error=0.2)
        point = secure_rate(s, HYBRID_NOMEM, f_fixed=1.16)
        assert FLAG_ABOVE_EC_RANGE not in point.flags
        assert point.secure_rate_hz > 0.0

    def test_zero_click_point(self):
        dead = DetectorSpec(
            name="dead", efficiency=0.0, dark_per_window=0.0, dead_time=0.0,
            receiver_loss_db=0.0,
        )
        point = secure_rate(si_scenario(detector=dead), HYBRID_NOMEM)
        assert point.secure_rate_hz == 0.0
        assert point.sifted_rate_hz == 0.0
        assert FLAG_INSECURE in point.flags
        assert math.isnan(point.qber)

    def test_individual_attack_uses_poisson_beta(self):
        # at fig3-like parameters the multiphoton probability dwarfs p_click,
        # so the individual-attack bound collapses to zero
        point = secure_rate(si_scenario(100.0), IND_MEM)
        assert point.tau == 0.0
        assert FLAG_INSECURE in point.flags

    def test_individual_attack_secure_at_tiny_mu(self):
        s = si_scenario(10.0, mu=0.001)
        for attack in (IND_MEM, IND_NOMEM):
            point = secure_rate(s, attack)
            assert point.secure_rate_hz > 0.0

    @pytest.mark.parametrize("f", [0.5, 0.0, -5.0, math.nan, math.inf])
    def test_fixed_f_below_one_rejected(self, f):
        # f >= 1 bounds the error-correction cost below by the Shannon limit
        s = si_scenario(100.0)
        with pytest.raises(ModelDomainError):
            secure_rate(s, HYBRID_NOMEM, f_fixed=f)
        with pytest.raises(ModelDomainError):
            optimize_mu(s, HYBRID_NOMEM, (0.01, 1.0), f_fixed=f)
        with pytest.raises(ModelDomainError):
            max_secure_distance(s, HYBRID_NOMEM, f_fixed=f)

    def test_rate_point_ordering_invariant(self):
        for length in (0.0, 50.0, 100.0, 200.0, 256.0):
            point = secure_rate(si_scenario(length), HYBRID_NOMEM)
            assert point.secure_rate_deadtime_hz <= point.secure_rate_hz <= point.sifted_rate_hz
            for p in (point.p_signal, point.p_dark, point.p_click):
                assert 0.0 <= p <= 1.0


class TestDeadTimeFactor:
    # the factor exp(-delta nu p_click t_d) is secure_rate_deadtime_hz / secure_rate_hz

    def test_no_dead_time(self):
        point = secure_rate(si_scenario(detector=quiet_detector()), HYBRID_NOMEM)
        assert point.secure_rate_hz > 0.0
        assert point.secure_rate_deadtime_hz / point.secure_rate_hz == 1.0

    def test_known_value(self):
        # delta nu p_click t_d = 1 * 1e10 * 3.85e-3 * 45e-9 = 1.7325
        s = si_scenario(
            length_km=0.0,
            mu=0.00385,
            clock_hz=1e10,
            dead_time_delta=1.0,
            detector=DetectorSpec(
                name="t", efficiency=1.0, dark_per_window=0.0, dead_time=45e-9,
                receiver_loss_db=0.0,
            ),
        )
        point = secure_rate(s, HYBRID_NOMEM)
        assert point.secure_rate_deadtime_hz / point.secure_rate_hz == pytest.approx(
            0.17684175249734452, rel=1e-12
        )

    def test_zero_click(self):
        # no clicks, no saturation: the corrected rate equals the (zero) rate
        dead = DetectorSpec(
            name="dead", efficiency=0.0, dark_per_window=0.0, dead_time=1e-6,
            receiver_loss_db=0.0,
        )
        point = secure_rate(si_scenario(detector=dead, clock_hz=1e10), HYBRID_NOMEM)
        assert point.secure_rate_deadtime_hz == point.secure_rate_hz == 0.0
        assert FLAG_DEADTIME_LIMITED not in point.flags

    def test_limited_flag(self):
        s = si_scenario(length_km=0.0, clock_hz=1e10)
        point = secure_rate(s, HYBRID_NOMEM)
        assert FLAG_DEADTIME_LIMITED in point.flags
        far = secure_rate(si_scenario(200.0), HYBRID_NOMEM)
        assert FLAG_DEADTIME_LIMITED not in far.flags


class TestBB84Reference:
    def test_zero_signal(self):
        dead = DetectorSpec(
            name="dead", efficiency=0.0, dark_per_window=1e-8, dead_time=0.0,
            receiver_loss_db=0.0,
        )
        assert bb84_reference(si_scenario(detector=dead)) == 0.0

    def test_value(self):
        s = si_scenario(100.0)
        expected = 0.5 * 1e9 * channel_stats(s).p_signal
        assert bb84_reference(s) == expected

    def test_linear_in_efficiency(self):
        s = si_scenario(100.0)
        halved = replace(s, detector=replace(SI, efficiency=SI.efficiency / 2.0))
        assert bb84_reference(halved) == bb84_reference(s) / 2.0


class TestAsymptoticRate:
    def test_no_memory(self):
        s = si_scenario(100.0, delay_n=10)
        expected = 0.98 * s.clock_hz * channel_stats(s).p_signal
        assert asymptotic_rate(s, HYBRID_NOMEM) == pytest.approx(expected, rel=1e-15)

    def test_memory(self):
        s = si_scenario(100.0)
        expected = 0.6 * s.clock_hz * channel_stats(s).p_signal
        assert asymptotic_rate(s, HYBRID_MEM) == pytest.approx(expected, rel=1e-15)

    def test_small_mu_limit(self):
        s = si_scenario(100.0, mu=1e-9)
        base = s.clock_hz * channel_stats(s).p_signal
        assert asymptotic_rate(s, HYBRID_NOMEM) == pytest.approx(base, rel=1e-6)
        assert asymptotic_rate(s, HYBRID_MEM) == pytest.approx(base, rel=1e-6)

    def test_agreement_with_full_rate(self):
        # b = 0, d = 0, p_signal small: Eq. 16 collapses onto the asymptote
        for memory, attack in ((False, HYBRID_NOMEM), (True, HYBRID_MEM)):
            for length in (150.0, 200.0):
                s = si_scenario(
                    length, delay_n=10, baseline_error=0.0, detector=quiet_detector()
                )
                full = secure_rate(s, attack).secure_rate_hz
                approx = asymptotic_rate(s, attack)
                assert abs(full - approx) / approx < 0.01


class TestOptimizeMu:
    def test_boundary_optimum_without_memory(self):
        s = si_scenario(100.0, delay_n=10, baseline_error=0.0, detector=quiet_detector())
        mu_star, point = optimize_mu(s, HYBRID_NOMEM, (0.01, 1.0))
        assert mu_star == pytest.approx(1.0, abs=1e-4)
        assert point.secure

    def test_memory_optimum_quarter(self):
        s = si_scenario(200.0, baseline_error=0.0, detector=quiet_detector(dead_time=45e-9))
        mu_star, _ = optimize_mu(s, HYBRID_MEM, (0.01, 1.0))
        assert mu_star == pytest.approx(0.25, abs=1e-3)

    def test_matches_grid_oracle(self):
        s = si_scenario(100.0)
        mu_star, _ = optimize_mu(s, HYBRID_NOMEM, (0.01, 1.0))
        best_mu, best_r = None, -1.0
        for i in range(10000):
            mu = 0.01 + (1.0 - 0.01) * i / 9999
            r = secure_rate(replace(s, mu=mu), HYBRID_NOMEM).secure_rate_deadtime_hz
            if r > best_r:
                best_mu, best_r = mu, r
        assert mu_star == pytest.approx(best_mu, abs=1e-4)

    def test_insecure_everywhere(self):
        s = si_scenario(100.0, baseline_error=0.3)
        mu_star, point = optimize_mu(s, HYBRID_NOMEM, (0.01, 1.0))
        assert FLAG_INSECURE in point.flags
        assert mu_star == 0.01

    def test_invalid_range(self):
        with pytest.raises(ModelDomainError):
            optimize_mu(si_scenario(), HYBRID_NOMEM, (0.5, 0.2))


class TestMaxSecureDistance:
    def test_matches_closed_form_inversion(self):
        # d = 0, b = 0: R(L) ~ nu mu eta (1 - mu/N) 10^-(alpha L + L_r)/10,
        # so R = r_min inverts in closed form (the p_signal/N correction is
        # ~1e-9 at the crossing and far below the 0.1 km check)
        s = si_scenario(0.0, delay_n=10, baseline_error=0.0, detector=quiet_detector())
        r_min = 1.0
        found = max_secure_distance(s, HYBRID_NOMEM, r_min=r_min)
        closed = (
            10.0 * math.log10(s.clock_hz * s.mu * 0.35 * (1.0 - s.mu / 10.0) / r_min) - 2.1
        ) / 0.21
        assert found == pytest.approx(closed, abs=0.1)

    @pytest.mark.parametrize("r_min", [-1.0, math.nan])
    def test_bad_r_min_rejected(self, r_min):
        with pytest.raises(ModelDomainError):
            max_secure_distance(si_scenario(), HYBRID_NOMEM, r_min=r_min)

    def test_insecure_at_zero(self):
        s = si_scenario(0.0, baseline_error=0.3)
        with pytest.raises(NoSecureDistanceError):
            max_secure_distance(s, HYBRID_NOMEM)

    def test_fixed_f_reference_bands(self):
        # distances read off the published curves, +/- 10 km
        si = max_secure_distance(si_scenario(), HYBRID_NOMEM, f_fixed=1.16)
        assert 267.0 <= si <= 287.0
        from conftest import INGAAS

        ing = max_secure_distance(si_scenario(detector=INGAAS), HYBRID_NOMEM, f_fixed=1.16)
        assert 130.0 <= ing <= 150.0

    @pytest.mark.parametrize(
        "name, detector, expected",
        [("fig4", "si", 277.859375), ("fig7", "ingaas", 120.40625), ("fig11", "si", 277.859375)],
    )
    def test_dead_time_limited_near_zero(self, name, detector, expected):
        # dead time holds the corrected rate below r_min near 0 km; further
        # out the click rate drops and the corrected rate rises above it
        s, a = load_presets()[name].scenario(detector, delay_n=100)
        assert secure_rate(s, a).secure_rate_deadtime_hz <= 1e3
        assert max_secure_distance(s, a, r_min=1e3) == expected

    def test_walk_stops_once_uncorrected_rate_is_below_floor(self):
        # fig4 si peaks near 1.5e7 b/s after dead time, while its uncorrected
        # rate starts near 1.5e9 b/s and falls to 2e7 b/s by 128 km
        s, a = load_presets()["fig4"].scenario("si", delay_n=100)
        with pytest.raises(NoSecureDistanceError, match="at L = 128"):
            max_secure_distance(s, a, r_min=2e7)

    def test_no_crossing_below_cap(self):
        # a lossless link keeps its rate at every length, so the 20000 km
        # search cap is reached
        s = si_scenario(0.0, alpha_db_per_km=0.0, baseline_error=0.0, detector=quiet_detector())
        with pytest.raises(ModelDomainError):
            max_secure_distance(s, HYBRID_NOMEM, r_min=0.0)


class TestMonotonicity:
    def test_rate_non_increasing_in_length(self):
        rates = [
            secure_rate(si_scenario(float(length)), HYBRID_NOMEM).secure_rate_hz
            for length in range(0, 301)
        ]
        secure_region = [r for r in rates if r > 0.0]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(secure_region, secure_region[1:]))

    def test_rate_non_increasing_in_dark_counts(self):
        darks = [0.0, 1e-8, 1e-7, 1e-6, 1e-5]
        rates = [
            secure_rate(
                si_scenario(100.0, detector=replace(SI, dark_per_window=d)), HYBRID_NOMEM
            ).secure_rate_hz
            for d in darks
        ]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_rate_non_increasing_in_baseline_error(self):
        bs = [0.0, 0.005, 0.01, 0.02, 0.05]
        rates = [
            secure_rate(si_scenario(100.0, baseline_error=b), HYBRID_NOMEM).secure_rate_hz
            for b in bs
        ]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_deadtime_correction_bounds(self):
        with_dead = secure_rate(si_scenario(50.0), HYBRID_NOMEM)
        assert with_dead.secure_rate_deadtime_hz < with_dead.secure_rate_hz
        no_dead = secure_rate(si_scenario(50.0, detector=quiet_detector()), HYBRID_NOMEM)
        assert no_dead.secure_rate_deadtime_hz == no_dead.secure_rate_hz

    def test_si_outperforms_ingaas_on_every_preset(self):
        for preset in load_presets().values():
            for n in preset.n_set:
                for length in (0.0, 50.0, 100.0, 150.0):
                    rates = {}
                    for det in ("si", "ingaas"):
                        s, a = preset.scenario(det, delay_n=n, length_km=length)
                        rates[det] = secure_rate(s, a)
                    assert rates["si"].secure_rate_hz >= rates["ingaas"].secure_rate_hz
                    assert (
                        rates["si"].secure_rate_deadtime_hz
                        >= rates["ingaas"].secure_rate_deadtime_hz
                    )


class TestRatePointRecord:
    def point(self, secure_rate_hz, flags):
        return RatePoint(100.0, 1e-4, 7e-8, 1e-4, 0.01, 0.9, 1.16, 1e5,
                         secure_rate_hz, secure_rate_hz, frozenset(flags))

    def test_field_order(self):
        assert RatePoint._fields == (
            "length_km", "p_signal", "p_dark", "p_click", "qber", "tau", "f_used",
            "sifted_rate_hz", "secure_rate_hz", "secure_rate_deadtime_hz", "flags",
        )

    def test_fields_cannot_be_assigned(self):
        point = secure_rate(si_scenario(100.0), HYBRID_NOMEM)
        with pytest.raises(AttributeError):
            point.secure_rate_hz = 0.0

    def test_secure_needs_a_rate_and_no_insecure_flag(self):
        assert self.point(5e4, ()).secure
        assert self.point(5e4, (FLAG_DEADTIME_LIMITED,)).secure
        assert not self.point(0.0, ()).secure
        assert not self.point(5e4, (FLAG_INSECURE,)).secure
        assert secure_rate(si_scenario(100.0), HYBRID_NOMEM).secure
        assert not secure_rate(si_scenario(100.0, baseline_error=0.2), HYBRID_NOMEM).secure

    def test_equal_points_compare_and_hash_equal(self):
        a = secure_rate(si_scenario(100.0), HYBRID_NOMEM)
        b = secure_rate(si_scenario(100.0), HYBRID_NOMEM)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert a != secure_rate(si_scenario(50.0), HYBRID_NOMEM)
