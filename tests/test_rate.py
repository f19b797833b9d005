import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dpsrk
from dpsrk import link, security
from dpsrk.detector import DetectorSpec
from dpsrk.errors import ModelDomainError, NoSecureDistanceError
from dpsrk.link import ChannelStats, LinkScenario, channel_stats
from dpsrk.presets import load_presets
from dpsrk.rate import (
    FLAG_ABOVE_EC_RANGE,
    FLAG_CLAMPED,
    FLAG_DEADTIME_LIMITED,
    FLAG_INSECURE,
    RatePoint,
    _dead_time_exponent,
    asymptotic_rate,
    binary_entropy,
    max_secure_distance,
    optimize_mu,
    secure_rate,
    secure_rate_from_parts,
)
from dpsrk.security import CASCADE_EC_TABLE

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
        with pytest.raises(ModelDomainError):
            binary_entropy(math.nan)


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


def reference_max_secure_distance(s, a, r_min=0.0, *, f_fixed=None):
    """``max_secure_distance``'s walk alone, without the scan for a window it stepped over."""

    def point(length):
        return secure_rate(replace(s, length_km=length), a, f_fixed=f_fixed)

    def above(length):
        return point(length).secure_rate_deadtime_hz > r_min

    lo = 0.0
    p = point(lo)
    while p.secure_rate_deadtime_hz <= r_min:
        if p.secure_rate_hz <= r_min or 2.0 * lo > 20000.0:
            raise NoSecureDistanceError(f"no secure distance: rate <= {r_min} b/s at L = {lo:g}")
        lo = max(1.0, 2.0 * lo)
        p = point(lo)
    hi = max(1.0, 2.0 * lo)
    while above(hi):
        lo = hi
        hi *= 2.0
        if hi > 20000.0:
            raise ModelDomainError(f"rate stays above {r_min} b/s out to the search cap")
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo


def preset_solves():
    """Every preset curve the paper draws, with the floors 0 and 1e3 b/s."""
    for name, preset in load_presets().items():
        for det in ("si", "ingaas"):
            for n in preset.n_set:
                for attack in ("individual_mem", "individual_nomem", "hybrid_mem",
                               "hybrid_nomem"):
                    for f_fixed in (None, preset.f):
                        s, a = preset.scenario(det, delay_n=n, attack=attack)
                        for r_min in (0.0, 1e3):
                            yield (name, det, n, attack, f_fixed, r_min), s, a


def outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except NoSecureDistanceError as exc:
        return str(exc)


# The two preset solves whose window above 1e3 b/s lies between two walk points.
STEPPED_OVER = {
    ("fig4", "ingaas", 100, "hybrid_nomem", 1.16, 1e3): (51.1, 56.4),
    ("fig5", "ingaas", 100, "hybrid_nomem", 1.16, 1e3): (22.65, 29.6),
}


class TestSteppedOverWindow:
    @pytest.mark.parametrize("key", sorted(STEPPED_OVER))
    def test_window_between_walk_points_is_found(self, key):
        name, det, n, attack, f_fixed, r_min = key
        s, a = load_presets()[name].scenario(det, delay_n=n, attack=attack)

        def above(length):
            return secure_rate(replace(s, length_km=length), a,
                               f_fixed=f_fixed).secure_rate_deadtime_hz > r_min

        with pytest.raises(NoSecureDistanceError):
            reference_max_secure_distance(s, a, r_min, f_fixed=f_fixed)
        found = max_secure_distance(s, a, r_min, f_fixed=f_fixed)
        first, last = STEPPED_OVER[key]
        scan = [i * 0.01 for i in range(6401)]
        secure = [length for length in scan if above(length)]
        assert secure[0] == pytest.approx(first, abs=0.05)
        assert secure[-1] == pytest.approx(last, abs=0.05)
        assert above(found) and not above(found + 0.01)
        assert abs(found - secure[-1]) < 0.01

    def test_every_other_preset_solve_is_unchanged(self):
        others = [(key, s, a) for key, s, a in preset_solves() if key not in STEPPED_OVER]
        assert len(others) == 1054
        for key, s, a in others:
            f_fixed, r_min = key[4:]
            expected = outcome(reference_max_secure_distance, s, a, r_min, f_fixed=f_fixed)
            assert outcome(max_secure_distance, s, a, r_min, f_fixed=f_fixed) == expected, key


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


def reference_secure_rate(s, a, *, f_fixed=None):
    """``secure_rate`` in its plain form, which ``secure_rate`` must match bit for bit.

    Here ``f_ec`` decides the correction range by raising, and each point
    builds its own flag set.
    """
    if f_fixed is not None and not 1.0 <= f_fixed < math.inf:
        raise ModelDomainError(f"fixed overhead f must be finite and >= 1, got {f_fixed}")
    p_signal, p_dark, p_click, e, clamped = link.channel_stats(s)
    flags = {FLAG_CLAMPED} if clamped else set()
    tau, f_used, r, saturation = 0.0, math.nan, 0.0, 0.0
    if p_click > 0.0:
        if a.hybrid:
            gamma = security.surviving_fraction(s.mu, p_signal, s.delay_n, a.memory)
            tau = security.shrink_hybrid(e, gamma, s.delay_n)
        else:
            p_m = security.poisson_multiphoton(s.mu)
            beta = security.single_photon_fraction(p_click, p_m)
            if beta > 0.0:
                tau = security.shrink_individual(e, beta, a.memory)
        try:
            f_used = security.f_ec(CASCADE_EC_TABLE, e) if f_fixed is None else f_fixed
        except ModelDomainError:
            flags.add(FLAG_ABOVE_EC_RANGE)
        else:
            r = secure_rate_from_parts(s.clock_hz, p_click, e, tau, f_used)
            saturation = _dead_time_exponent(s, p_click)
            if saturation >= 1.0:
                flags.add(FLAG_DEADTIME_LIMITED)
    if tau == 0.0 or r == 0.0:
        flags.add(FLAG_INSECURE)
    return RatePoint(
        s.length_km, p_signal, p_dark, p_click, e, tau, f_used, s.clock_hz * p_click, r,
        r * math.exp(-saturation), frozenset(flags),
    )


def bits(point: RatePoint):
    """The point's values as exact text (NaN equals NaN, -0.0 differs from 0.0), and its flags."""
    assert type(point.flags) is frozenset
    return [repr(v) for v in point[:10]], point.flags


def link_scenario(mu, eff, dark, loss_db, length, b, clock, dead_time, delta, delay_n):
    detector = DetectorSpec(
        name="x", efficiency=eff, dark_per_window=dark, dead_time=dead_time,
        receiver_loss_db=loss_db,
    )
    return LinkScenario(
        mu=mu, alpha_db_per_km=0.2, length_km=length, clock_hz=clock, baseline_error=b,
        detector=detector, delay_n=delay_n, dead_time_delta=delta,
    )


# One scenario per branch of the chain that changes a flag or a NaN.
CLAMPED = link_scenario(5.0, 1.0, 0.2, 0.0, 0.0, 0.01, 1e9, 1e-8, None, 10)
NO_CLICKS = link_scenario(0.2, 0.0, 0.0, 0.0, 0.0, 0.01, 1e9, 1e-6, None, 1)
ERROR_FREE = link_scenario(0.2, 0.35, 0.0, 2.1, 50.0, 0.0, 1e9, 45e-9, None, 100)
ABOVE_RANGE = link_scenario(0.01, 0.35, 3.5e-8, 2.1, 10.0, 0.2, 1e9, 45e-9, None, 100)
DEADTIME_LIMITED = link_scenario(0.2, 0.35, 3.5e-8, 2.1, 0.0, 0.01, 1e10, 45e-9, None, 100)
BRANCHES = {
    "clamped": CLAMPED, "no_clicks": NO_CLICKS, "error_free": ERROR_FREE,
    "above_range": ABOVE_RANGE, "deadtime_limited": DEADTIME_LIMITED,
}
ATTACKS = (HYBRID_NOMEM, HYBRID_MEM, IND_MEM, IND_NOMEM)

link_scenarios = st.builds(
    link_scenario,
    mu=st.floats(1e-6, 2.0),
    eff=st.floats(0.0, 1.0),
    dark=st.one_of(st.just(0.0), st.floats(1e-300, 1e-10), st.floats(1e-10, 0.2)),
    loss_db=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    length=st.one_of(st.just(0.0), st.floats(0.0, 400.0)),
    b=st.one_of(st.just(0.0), st.floats(0.0, 0.49)),
    clock=st.one_of(st.just(1e10), st.floats(1e6, 1e10)),
    dead_time=st.one_of(st.just(0.0), st.floats(0.0, 1e-6)),
    delta=st.one_of(st.none(), st.floats(0.0, 2.0)),
    delay_n=st.integers(1, 1000),
)


class TestBitIdentity:
    """``secure_rate`` returns the reference chain's bits: values, NaNs and flags."""

    @settings(max_examples=300, deadline=None)
    @given(
        s=link_scenarios,
        attack=st.sampled_from(ATTACKS),
        f_fixed=st.one_of(st.none(), st.floats(1.0, 2.0)),
    )
    @example(s=ABOVE_RANGE, attack=HYBRID_NOMEM, f_fixed=None)
    @example(s=ABOVE_RANGE, attack=IND_NOMEM, f_fixed=1.16)
    def test_against_reference(self, s, attack, f_fixed):
        assert bits(secure_rate(s, attack, f_fixed=f_fixed)) == bits(
            reference_secure_rate(s, attack, f_fixed=f_fixed)
        )

    @pytest.mark.parametrize("f_fixed", [None, 1.16])
    @pytest.mark.parametrize("attack", ATTACKS, ids=[a.value for a in ATTACKS])
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_each_branch(self, branch, attack, f_fixed):
        s = BRANCHES[branch]
        point = secure_rate(s, attack, f_fixed=f_fixed)
        assert bits(point) == bits(reference_secure_rate(s, attack, f_fixed=f_fixed))

    def test_branches_are_reached(self):
        def point(name, f_fixed=None):
            return secure_rate(BRANCHES[name], HYBRID_NOMEM, f_fixed=f_fixed)

        assert FLAG_CLAMPED in point("clamped").flags
        assert point("no_clicks").p_click == 0.0 and math.isnan(point("no_clicks").qber)
        assert point("error_free").qber == 0.0
        assert FLAG_ABOVE_EC_RANGE in point("above_range").flags
        assert FLAG_ABOVE_EC_RANGE not in point("above_range", 1.16).flags
        assert FLAG_DEADTIME_LIMITED in point("deadtime_limited").flags
        assert secure_rate(ABOVE_RANGE, IND_MEM).tau > 0.0

    @pytest.mark.parametrize("attack", ATTACKS, ids=[a.value for a in ATTACKS])
    @pytest.mark.parametrize(
        "qber, above", [(0.15, False), (math.nextafter(0.15, 1.0), True)], ids=["last", "next"]
    )
    def test_correction_range_boundary(self, monkeypatch, attack, qber, above):
        # the table's last breakpoint is in range; the next float above it is not
        assert CASCADE_EC_TABLE.points[-1][0] == 0.15
        stats = ChannelStats(1e-3, 1e-6, 1e-3 + 1e-6, qber, False)
        monkeypatch.setattr(link, "channel_stats", lambda s: stats)
        s = si_scenario(10.0, mu=0.01)
        point = secure_rate(s, attack)
        assert bits(point) == bits(reference_secure_rate(s, attack))
        assert (FLAG_ABOVE_EC_RANGE in point.flags) == above
        assert math.isnan(point.f_used) == above


class TestChainProperties:
    """Bounds that hold at every layer of the chain, and the rate's fall with length."""

    @settings(max_examples=300, deadline=None)
    @given(
        s=link_scenarios,
        attack=st.sampled_from(ATTACKS),
        f_fixed=st.one_of(st.none(), st.floats(1.0, 2.0)),
        step_km=st.floats(0.0, 50.0),
    )
    # no dark counts and a subnormal signal: b p / p rounds below b
    @example(s=link_scenario(1.0, 2.225073858507203e-309, 0.0, 0.0, 0.0, 0.25, 1e10, 0.0, None, 1),
             attack=HYBRID_NOMEM, f_fixed=None, step_km=0.0)
    # dark counts far below the signal: the signal/dark mean of b and 1/2 rounds below b
    @example(s=link_scenario(0.7, 1.0, 1e-20, 0.0, 0.0, 0.1, 1e10, 0.0, None, 1),
             attack=HYBRID_NOMEM, f_fixed=None, step_km=0.0)
    def test_bounds_and_monotone_in_length(self, s, attack, f_fixed, step_km):
        point = secure_rate(s, attack, f_fixed=f_fixed)
        assert 0.0 <= point.tau <= 1.0
        if point.p_click > 0.0:
            assert s.baseline_error <= point.qber <= 0.5
        if point.secure_rate_hz > 0.0:
            assert point.secure_rate_deadtime_hz <= point.secure_rate_hz <= point.sifted_rate_hz
        farther = replace(s, length_km=s.length_km + step_km)
        rate = secure_rate(farther, attack, f_fixed=f_fixed).secure_rate_hz
        assert rate <= point.secure_rate_hz * (1.0 + 1e-12)


finite = st.floats(-1e3, 1e3)


class TestClampForms:
    """The conditional clamps give the bits of the ``max``/``min`` builtins they replace."""

    @given(x=st.one_of(finite, st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])))
    def test_secure_rate_from_parts(self, x):
        # tau = x, f H(e) = 0 at e = 0, so the clamped value is x itself
        want = max(0.0, 1.0 * 1.0 * (x - 1.0 * binary_entropy(0.0)))
        assert repr(secure_rate_from_parts(1.0, 1.0, 0.0, x, 1.0)) == repr(want)

    @given(e=st.floats(0.0, 0.5), gamma=st.floats(0.0, 1.0), n=st.integers(1, 1000))
    @example(e=0.0, gamma=-0.0, n=1)  # -0.0 - 0.0 is -0.0, which the clamp makes 0.0
    def test_shrink_hybrid(self, e, gamma, n):
        want = max(0.0, gamma - security._hybrid_penalty(e, n))
        assert repr(security.shrink_hybrid(e, gamma, n)) == repr(want)

    @given(mu=st.floats(1e-9, 2.0), p_signal=st.floats(0.0, 1.0), n=st.integers(1, 1000),
           memory=st.booleans())
    def test_surviving_fraction(self, mu, p_signal, n, memory):
        want = max(0.0, security._surviving_fraction(mu, p_signal, n, memory))
        assert repr(security.surviving_fraction(mu, p_signal, n, memory)) == repr(want)

    @given(e=st.floats(0.0, 0.5), beta=st.floats(1e-9, 1.0), memory=st.booleans())
    # just below the turning point the log argument rounds to 1: -scale * 0.0 is -0.0
    @example(e=math.nextafter(0.5, 0.0), beta=1.0, memory=True)
    def test_shrink_individual(self, e, beta, memory):
        ratio, turn, arg, scale = security._collision_bound(e, beta, memory)
        want = 0.0 if ratio >= turn else max(0.0, -scale * math.log2(arg))
        assert repr(security.shrink_individual(e, beta, memory)) == repr(want)

    @given(s=link_scenarios)
    def test_channel_stats(self, s):
        raw_signal, dark, raw_click, errors = link._click_terms(s, s.mu)
        got = channel_stats(s)
        assert repr(got.p_signal) == repr(min(raw_signal, 1.0))
        assert repr(got.p_click) == repr(min(raw_click, 1.0))


def test_above_range_point_raises_nothing_inside_the_package():
    # an exception raised and caught per point is a hot-path cost; the range
    # test must come before f_ec, not after it
    package = str(Path(dpsrk.__file__).parent)
    raised = []

    def trace(frame, event, arg):
        if event == "exception" and frame.f_code.co_filename.startswith(package):
            raised.append((frame.f_code.co_name, arg[0].__name__))
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        point = secure_rate(ABOVE_RANGE, HYBRID_NOMEM)
    finally:
        sys.settrace(previous)
    assert FLAG_ABOVE_EC_RANGE in point.flags
    assert raised == []
