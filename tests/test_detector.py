import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dpsrk import detector
from dpsrk._search import golden_min, grid_bracket
from dpsrk.detector import (
    PPLN_UPCONVERTER,
    SUPPORTED_PUMP_MAX_MW,
    DarkConvention,
    DetectorSpec,
    UpConversionCurve,
    _nep_grid,
    dark_per_window,
    make_detector_from_upconversion,
    nep,
    optimize_pump,
    up_dark_rate,
    up_efficiency,
)
from dpsrk.errors import ModelDomainError

CURVE = PPLN_UPCONVERTER
FIRST_MAX_PUMP = (math.pi / 2) ** 2 / CURVE.a2


class TestUpEfficiency:
    def test_zero_pump(self):
        assert up_efficiency(CURVE, 0.0) == 0.0

    def test_first_maximum(self):
        # analytic maximum of the sin^2 fit
        assert up_efficiency(CURVE, FIRST_MAX_PUMP) == pytest.approx(0.465, abs=1e-12)

    def test_known_operating_point(self):
        # pump solving eta = 0.075, found with a 50-digit bisection oracle
        assert up_efficiency(CURVE, 0.0021416331133230129) == pytest.approx(0.075, rel=1e-9)
        assert up_efficiency(CURVE, 0.002142) == pytest.approx(0.07501210830197737, rel=1e-12)

    def test_negative_pump_rejected(self):
        for pump in (-0.1, math.nan):
            with pytest.raises(ModelDomainError):
                up_efficiency(CURVE, pump)

    def test_beyond_supported_domain_rejected(self):
        with pytest.raises(ModelDomainError):
            up_efficiency(CURVE, SUPPORTED_PUMP_MAX_MW + 1.0)

    @given(st.floats(min_value=0.0, max_value=SUPPORTED_PUMP_MAX_MW))
    def test_bounded_by_a1(self, pump):
        eta = up_efficiency(CURVE, pump)
        assert 0.0 <= eta <= CURVE.a1


class TestUpDarkRate:
    def test_zero_pump_is_b0(self):
        assert up_dark_rate(CURVE, 0.0) == 50.0

    def test_at_10_mw(self):
        # 50 + 8264 + 11030 - 403 + 6.5
        assert up_dark_rate(CURVE, 10.0) == pytest.approx(18947.5, rel=1e-9)

    def test_at_1_mw(self):
        assert up_dark_rate(CURVE, 1.0) == pytest.approx(986.29765, rel=1e-12)

    def test_negative_pump_rejected(self):
        for pump in (-1.0, math.nan):
            with pytest.raises(ModelDomainError):
                up_dark_rate(CURVE, pump)

    def test_negative_fit_rejected_at_construction(self):
        with pytest.raises(ModelDomainError, match="negative at pump"):
            UpConversionCurve(
                a1=0.465, a2=79.75, b0=10.0, b1=-100.0, b2=0.0, b3=0.0, b4=0.0,
                bandwidth_hz=50e9,
            )

    def test_fit_negative_between_samples_rejected_at_construction(self):
        with pytest.raises(ModelDomainError, match="negative at pump 0.0050 mW"):
            UpConversionCurve(**DIP)

    @settings(deadline=None)
    @given(
        roots=st.lists(st.floats(-5.0, 35.0), min_size=1, max_size=4),
        lift=st.floats(-1.0, 1.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    @example(roots=[10.005, 10.005], lift=-1e-8, sign=1.0)  # negative only near 10.005 mW
    @example(roots=[10.0, 10.0, 20.0, 20.0], lift=1e-6, sign=1.0)
    def test_construction_agrees_with_the_derivative_roots(self, roots, lift, sign):
        # sign * prod(p - r) + lift scaled to the quartic's size on [0, 30]
        coeffs = sign * np.polynomial.polynomial.polyfromroots(roots)
        grid = np.linspace(0.0, SUPPORTED_PUMP_MAX_MW, 301)
        scale = np.abs(np.polynomial.polynomial.polyval(grid, coeffs)).max()
        coeffs[0] += lift * scale
        b = [float(c) for c in coeffs] + [0.0] * (5 - coeffs.size)
        # numpy's roots of the derivative, against the bisection's; a real
        # root repeated can come back with a small imaginary part, and the
        # real part of a complex root is one more point the minimum is below
        pumps = [0.0, SUPPORTED_PUMP_MAX_MW] + [
            r.real for r in np.polynomial.polynomial.polyroots(
                np.polynomial.polynomial.polyder(coeffs))
            if 0.0 <= r.real <= SUPPORTED_PUMP_MAX_MW
        ]
        least = min(np.polynomial.polynomial.polyval(pumps, coeffs))
        assume(abs(least) > 1e-9 * scale)  # rounding decides a minimum this close to 0
        if least < 0.0:
            with pytest.raises(ModelDomainError, match="negative at pump"):
                UpConversionCurve(0.465, 79.75, *b, 50e9)
        else:
            UpConversionCurve(0.465, 79.75, *b, 50e9)


class TestUpConversionCurveValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a1", "a2", "b0", "b1", "b2", "b3", "b4", "bandwidth_hz"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ModelDomainError):
            replace(CURVE, **{field: value})


class TestDarkPerWindow:
    def test_per_mode_quoted_point(self):
        d = dark_per_window(6.4e3, DarkConvention.PER_MODE, 50e9)
        assert d == pytest.approx(1.28e-7, rel=1e-12)

    def test_per_gate(self):
        assert dark_per_window(1e4, DarkConvention.PER_GATE, 1e9) == pytest.approx(1e-5, rel=1e-12)

    def test_zero_rate(self):
        assert dark_per_window(0.0, DarkConvention.PER_MODE, 50e9) == 0.0

    def test_zero_divisor_rejected(self):
        with pytest.raises(ModelDomainError):
            dark_per_window(1e4, DarkConvention.PER_GATE, 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelDomainError):
            dark_per_window(-1.0, DarkConvention.PER_MODE, 50e9)

    @given(
        st.floats(min_value=1e-3, max_value=1e9),
        st.floats(min_value=1e3, max_value=1e12),
    )
    def test_doubling_bit_rate_halves_exactly(self, rate, bit_rate):
        full = dark_per_window(rate, DarkConvention.PER_GATE, bit_rate)
        half = dark_per_window(rate, DarkConvention.PER_GATE, 2.0 * bit_rate)
        assert half == full / 2.0


class TestNep:
    def test_quoted_operating_point(self):
        assert nep(6.4e3, 0.075) == pytest.approx(1508.4944665313014, rel=1e-12)

    def test_zero_dark(self):
        assert nep(0.0, 0.3) == 0.0

    def test_simple_value(self):
        assert nep(2.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_zero_efficiency_rejected(self):
        with pytest.raises(ModelDomainError):
            nep(100.0, 0.0)

    @given(st.floats(min_value=1.0, max_value=1e6), st.floats(min_value=0.01, max_value=0.99))
    def test_monotone(self, dark, eta):
        assert nep(dark, eta) > nep(dark, eta + 0.01)
        assert nep(dark + 1.0, eta) > nep(dark, eta)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: nep(-1.0, 0.5), "dark rate must be >= 0"),
        (lambda: optimize_pump(CURVE, (0.0, 0.0)), "efficiency is zero at the degenerate"),
        (lambda: nep(math.nan, 0.5), "dark rate must be >= 0"),
        (lambda: nep(1.0, math.nan), "efficiency must be > 0"),
        (lambda: dark_per_window(math.nan, DarkConvention.PER_MODE, 50e9),
         "dark rate must be finite and >= 0"),
        (lambda: dark_per_window(math.inf, DarkConvention.PER_MODE, 50e9),
         "dark rate must be finite and >= 0"),
        (lambda: dark_per_window(1.0, DarkConvention.PER_GATE, math.nan), "bit rate must be > 0"),
    ],
    ids=[
        "nep-negative-dark", "pump-degenerate-zero-efficiency", "nep-dark-nan",
        "nep-efficiency-nan", "dark-window-rate-nan", "dark-window-rate-inf",
        "dark-window-divisor-nan",
    ],
)
def test_out_of_range_argument_raises(call, message):
    with pytest.raises(ModelDomainError, match=message):
        call()


class TestOptimizePump:
    def test_matches_grid_oracle(self):
        # brute force over the same range at 1e5 points
        lo, hi = 1e-4, 0.5
        best_p, best_v = lo, math.inf
        for i in range(100000):
            p = lo + (hi - lo) * i / 99999
            eta = up_efficiency(CURVE, p)
            if eta <= 0.0:
                continue
            v = math.sqrt(2.0 * up_dark_rate(CURVE, p)) / eta
            if v < best_v:
                best_p, best_v = p, v
        found = optimize_pump(CURVE, (lo, hi))
        assert found.pump_mw == pytest.approx(best_p, abs=1e-4)
        assert found.efficiency == pytest.approx(up_efficiency(CURVE, found.pump_mw))
        assert found.dark_rate_hz == pytest.approx(up_dark_rate(CURVE, found.pump_mw))

    def test_constant_dark_rate_optimum_at_efficiency_peak(self):
        flat = UpConversionCurve(
            a1=0.465, a2=79.75, b0=50.0, b1=0.0, b2=0.0, b3=0.0, b4=0.0, bandwidth_hz=50e9
        )
        found = optimize_pump(flat, (0.001, 0.1))
        assert found.pump_mw == pytest.approx(FIRST_MAX_PUMP, abs=1e-4)

    def test_degenerate_range(self):
        found = optimize_pump(CURVE, (0.02, 0.02))
        assert found.pump_mw == 0.02

    def test_zero_efficiency_everywhere(self):
        dead = UpConversionCurve(
            a1=0.465, a2=0.0, b0=50.0, b1=0.0, b2=0.0, b3=0.0, b4=0.0, bandwidth_hz=50e9
        )
        # the error of the scan without the numpy screen
        with pytest.raises(ModelDomainError) as want:
            scalar_optimize_pump(dead, (0.0, 1.0))
        with pytest.raises(ModelDomainError, match=f"^{re.escape(str(want.value))}$"):
            optimize_pump(dead, (0.0, 1.0))

    def test_inverted_range_rejected(self):
        # a NaN end is a domain error too, not "efficiency is zero"
        for pump_range in ((0.5, 0.1), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ModelDomainError):
                optimize_pump(CURVE, pump_range)


def scalar_optimize_pump(curve, pump_range):
    """optimize_pump's scan of its 2049-point grid without the numpy screen."""
    lo, hi = pump_range

    def objective(p):
        eta = up_efficiency(curve, p)
        return math.inf if eta <= 0.0 else nep(up_dark_rate(curve, p), eta)

    a, b, best = grid_bracket(objective, lo, hi, 2048)
    if not math.isfinite(best):
        raise ModelDomainError(f"efficiency is zero over the whole pump range [{lo}, {hi}]")
    p_star = golden_min(objective, a, b, 1e-6)
    return p_star, up_efficiency(curve, p_star), up_dark_rate(curve, p_star)


def scaled_curve(a1, a2_scale, dark_scale, flat):
    """The PPLN fit with another peak, fringe spacing and dark-rate scale."""
    b = [dark_scale * CURVE.b0] + [0.0 if flat else dark_scale * x
                                   for x in (CURVE.b1, CURVE.b2, CURVE.b3, CURVE.b4)]
    return UpConversionCurve(a1, a2_scale * CURVE.a2, *b, CURVE.bandwidth_hz)


curves = st.builds(
    scaled_curve,
    a1=st.floats(0.05, 1.0),
    a2_scale=st.floats(0.25, 4.0),
    dark_scale=st.floats(1e-3, 1e3),
    flat=st.booleans(),
)
pumps = st.floats(0.0, SUPPORTED_PUMP_MAX_MW)

# a quartic that dips below 0 between two of 3001 evenly spaced pumps:
# (p - 0.005)^2 - 1e-5 is negative within 0.0032 mW of 0.005 mW
DIP = dict(a1=0.465, a2=79.75, b0=1.5e-5, b1=-0.01, b2=1.0, b3=0.0, b4=0.0, bandwidth_hz=50e9)

# 21.37 (p - 3.5283)^2: non-negative on the pump domain, and touching 0 at a
# pump where the fit rounds to a negative number
TOUCHING = dict(
    a1=0.465, a2=79.75, b0=266.0230429888968, b1=-150.79378586361153,
    b2=21.369169376832698, b3=0.0, b4=0.0, bandwidth_hz=50e9,
)
TOUCHING_PUMP = 3.5283024624039445


class TestPumpGridScreen:
    @settings(max_examples=200, deadline=None)
    @given(curve=curves, ends=st.tuples(pumps, pumps))
    @example(curve=CURVE, ends=(0.0, SUPPORTED_PUMP_MAX_MW))
    @example(curve=scaled_curve(0.465, 1.0, 1.0, True), ends=(0.001, 0.1))
    def test_optimize_pump_is_the_scalar_scan_bit_for_bit(self, curve, ends):
        lo, hi = sorted(ends)
        assume(hi - lo >= 1e-12)
        assert repr(tuple(optimize_pump(curve, (lo, hi)))) == repr(
            scalar_optimize_pump(curve, (lo, hi))
        )

    @settings(deadline=None)
    @given(curve=curves, points=st.lists(pumps, min_size=1, max_size=64))
    @example(curve=CURVE, points=[0.0, 5e-324, FIRST_MAX_PUMP, 4 * FIRST_MAX_PUMP, 30.0])
    def test_array_nep_agrees_with_scalar_objective(self, curve, points):
        for p, got in zip(points, _nep_grid(curve, np.array(points)).tolist()):
            eta = up_efficiency(curve, p)
            if eta <= 0.0:
                assert got == math.inf
            else:
                # both overflow to inf where the efficiency is subnormal
                assert math.isclose(got, nep(up_dark_rate(curve, p), eta), rel_tol=1e-12)

    def test_scalar_objective_scores_only_the_bracket(self, monkeypatch):
        calls = []
        original = detector.up_efficiency

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(detector, "up_efficiency", counting)
        optimize_pump(CURVE, (0.0, SUPPORTED_PUMP_MAX_MW))
        # a few re-scored grid points, the golden-section search and the result
        assert len(calls) <= 40

    def test_dark_fit_touching_zero_is_clamped_at_zero(self):
        # construction accepts the fit, which rounds to -5.7e-14 at its root
        curve = UpConversionCurve(**TOUCHING)
        assert detector._dark_poly(curve, TOUCHING_PUMP) < 0.0
        assert up_dark_rate(curve, TOUCHING_PUMP) == 0.0
        assert _nep_grid(curve, np.array([TOUCHING_PUMP]))[0] == 0.0
        pump_range = (TOUCHING_PUMP - 0.5, TOUCHING_PUMP + 0.5)
        assert repr(tuple(optimize_pump(curve, pump_range))) == repr(
            scalar_optimize_pump(curve, pump_range)
        )
        spec = make_detector_from_upconversion(
            curve, TOUCHING_PUMP, dead_time=45e-9, receiver_loss_db=2.1
        )
        assert spec.dark_per_window == 0.0

    def test_subnormal_pump_raises_no_warning(self):
        # the efficiency at 5e-324 mW is subnormal, so its NEP overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = optimize_pump(CURVE, (5e-324, 1e-6))
        assert found == optimize_pump(CURVE, (1e-300, 1e-6))


class TestMakeDetector:
    def test_zero_pump(self):
        spec = make_detector_from_upconversion(CURVE, 0.0, dead_time=45e-9, receiver_loss_db=2.1)
        assert spec.efficiency == 0.0
        assert spec.dark_per_window == pytest.approx(CURVE.b0 / CURVE.bandwidth_hz, rel=1e-15)

    def test_composes_constituent_operations(self):
        point = optimize_pump(CURVE, (1e-4, 0.5))
        spec = make_detector_from_upconversion(
            CURVE, point.pump_mw, dead_time=45e-9, receiver_loss_db=2.1
        )
        assert spec.efficiency == up_efficiency(CURVE, point.pump_mw)
        assert spec.dark_per_window == dark_per_window(
            up_dark_rate(CURVE, point.pump_mw), DarkConvention.PER_MODE, CURVE.bandwidth_hz
        )
        assert spec.dead_time == 45e-9
        assert spec.receiver_loss_db == 2.1

    def test_direct_si_preset_values(self):
        spec = DetectorSpec(
            name="si", efficiency=0.35, dark_per_window=3.5e-8, dead_time=45e-9,
            receiver_loss_db=2.1,
        )
        assert spec.efficiency == 0.35
        assert spec.dark_per_window == 3.5e-8


class TestDetectorSpecValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("efficiency", -0.1),
            ("efficiency", 1.1),
            ("dark_per_window", -1e-9),
            ("dark_per_window", 0.5),
            ("dead_time", -1e-9),
            ("receiver_loss_db", -0.5),
            ("efficiency", math.nan),
            ("dead_time", math.inf),
            ("receiver_loss_db", math.nan),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        params = dict(
            name="x", efficiency=0.3, dark_per_window=1e-6, dead_time=0.0,
            receiver_loss_db=0.0,
        )
        params[field] = value
        with pytest.raises(ModelDomainError):
            DetectorSpec(**params)
