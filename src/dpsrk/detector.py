"""Single-photon detector models.

Two detector families are supported: InGaAs/InP APDs described directly by
their operating parameters, and Si APDs sitting behind a PPLN waveguide
frequency up-converter.  For the up-conversion chain both the quantum
efficiency and the dark-count rate depend on the applied pump power through
fitted curves, so the effective detector parameters are derived from the
curve at a chosen pump.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from ._search import SCREEN_SLACK, first_min_candidates, golden_min, grid_bracket
from .errors import ModelDomainError

# Pump powers (mW) the fitted curves are trusted on.  The quartic dark-rate
# fit turns unphysical far outside the measured region, so evaluation beyond
# this domain is an error rather than an extrapolation.
SUPPORTED_PUMP_MAX_MW = 30.0

# Steps of optimize_pump's pump grid, which has one point more.
_PUMP_GRID_STEPS = 2048


@dataclass(frozen=True)
class DetectorSpec:
    """Operating parameters of one single-photon detector.

    Args:
        name: A label, carried from a scenario's ``detector.name`` or a
            preset's variant; no number or output reads it.
        efficiency: Quantum efficiency in [0, 1].
        dark_per_window: Dark-count probability per measurement window.
            Must stay below 0.5 so that the two-detector dark probability
            remains a valid probability.
        dead_time: Recovery time after a click, in seconds.
        receiver_loss_db: Losses in the receiver unit, in dB.
    """

    name: str
    efficiency: float
    dark_per_window: float
    dead_time: float
    receiver_loss_db: float

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ModelDomainError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_per_window < 0.5:
            raise ModelDomainError(
                f"dark_per_window must be in [0, 0.5), got {self.dark_per_window}"
            )
        if not 0.0 <= self.dead_time < math.inf:
            raise ModelDomainError(f"dead_time must be finite and >= 0, got {self.dead_time}")
        if not 0.0 <= self.receiver_loss_db < math.inf:
            raise ModelDomainError(
                f"receiver_loss_db must be finite and >= 0, got {self.receiver_loss_db}"
            )


@dataclass(frozen=True)
class UpConversionCurve:
    """Pump-power dependence of a waveguide up-conversion detector.

    ``a1 * sin^2(sqrt(a2 * p))`` gives the conversion efficiency and a
    quartic polynomial in the pump power gives the dark-count rate in 1/s.
    ``bandwidth_hz`` is the waveguide bandwidth used to convert the dark
    rate into a per-mode dark-count probability.  Construction raises
    ``ModelDomainError`` for a parameter out of range or a quartic that is
    negative somewhere on the supported pump domain.
    """

    a1: float
    a2: float
    b0: float
    b1: float
    b2: float
    b3: float
    b4: float
    bandwidth_hz: float

    def __post_init__(self):
        if not 0.0 < self.a1 <= 1.0:
            raise ModelDomainError(f"a1 must be in (0, 1], got {self.a1}")
        if not 0.0 <= self.a2 < math.inf:
            raise ModelDomainError(f"a2 must be finite and >= 0, got {self.a2}")
        if not 0.0 < self.bandwidth_hz < math.inf:
            raise ModelDomainError(f"bandwidth_hz must be finite and > 0, got {self.bandwidth_hz}")
        for name in ("b0", "b1", "b2", "b3", "b4"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:
                raise ModelDomainError(f"{name} must be finite, got {value}")
        # The quartic must stay non-negative over the whole supported pump domain.
        rate, p = _dark_poly_min(self)
        if rate < 0.0:
            raise ModelDomainError(f"dark-rate polynomial is negative at pump {p:.4f} mW")


def _efficiency(curve: UpConversionCurve, pump_mw, sin=math.sin, sqrt=math.sqrt):
    """Body of ``a1 sin^2(sqrt(a2 p))``; ``pump_mw`` may be an array with numpy's sin and sqrt."""
    s = sin(sqrt(curve.a2 * pump_mw))
    return curve.a1 * s * s


def _dark_poly(curve: UpConversionCurve, pump_mw):
    """The quartic dark-rate fit at ``pump_mw``, which may be an array."""
    return curve.b0 + pump_mw * (
        curve.b1 + pump_mw * (curve.b2 + pump_mw * (curve.b3 + pump_mw * curve.b4))
    )


def _dark_poly_min(curve: UpConversionCurve) -> tuple[float, float]:
    """The least value of the quartic dark-rate fit on the supported domain, and its pump.

    The minimum lies at an end of the domain or at a real root of the cubic
    derivative.  The real roots of the quadratic second derivative cut the
    domain into pieces on which the derivative is monotonic, so each piece
    holds at most one root of it, which bisection finds.
    """
    b1, b2, b3, b4 = curve.b1, curve.b2, curve.b3, curve.b4

    def negative_slope(p: float) -> bool:
        return b1 + p * (2.0 * b2 + p * (3.0 * b3 + p * 4.0 * b4)) < 0.0

    # roots of the second derivative a p^2 + b p + c, without cancellation
    a, b, c = 12.0 * b4, 6.0 * b3, 2.0 * b2
    roots = []
    if a != 0.0:
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            t = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots = [t / a, c / t] if t != 0.0 else [0.0]
    elif b != 0.0:
        roots = [-c / b]
    # the cuts are candidates too: where rounding moved a cut past a pair of
    # derivative roots, the minimum between them is within rounding of the cut's
    top = SUPPORTED_PUMP_MAX_MW
    cuts = sorted({0.0, top, *(r for r in roots if 0.0 < r < top)})
    candidates = list(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        lo_negative = negative_slope(lo)
        if lo_negative == negative_slope(hi):
            continue
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if negative_slope(mid) == lo_negative:
                lo = mid
            else:
                hi = mid
        candidates += (lo, hi)
    return min((_dark_poly(curve, p), p) for p in candidates)


#: Fitted curve for a PPLN waveguide up-converter pumped at 1320 nm with a
#: 50 GHz waveguide bandwidth.
PPLN_UPCONVERTER = UpConversionCurve(
    a1=0.465,
    a2=79.75,
    b0=50.0,
    b1=826.4,
    b2=110.3,
    b3=-0.403,
    b4=0.00065,
    bandwidth_hz=50e9,
)


class DarkConvention(enum.Enum):
    """How a dark-count rate in 1/s is reduced to a per-window probability.

    PER_MODE divides by the waveguide bandwidth (up-conversion detectors);
    PER_GATE divides by the gate/bit rate (gated APDs).
    """

    PER_MODE = "per_mode"
    PER_GATE = "per_gate"


class PumpOperatingPoint(NamedTuple):
    pump_mw: float
    efficiency: float
    dark_rate_hz: float


def _check_pump(pump_mw: float) -> None:
    # the chained comparison also rejects NaN
    if not 0.0 <= pump_mw <= SUPPORTED_PUMP_MAX_MW:
        if pump_mw < 0.0:
            raise ModelDomainError(f"pump power must be >= 0 mW, got {pump_mw}")
        raise ModelDomainError(
            f"pump power {pump_mw} mW is outside the supported "
            f"[0, {SUPPORTED_PUMP_MAX_MW}] mW domain"
        )


def up_efficiency(curve: UpConversionCurve, pump_mw: float) -> float:
    """Conversion efficiency ``a1 * sin^2(sqrt(a2 * p))`` at pump ``p`` mW."""
    _check_pump(pump_mw)
    return _efficiency(curve, pump_mw)


def up_dark_rate(curve: UpConversionCurve, pump_mw: float) -> float:
    """Dark-count rate in 1/s at pump ``p`` mW (quartic fit), clamped below at 0.

    Construction has proved the fit non-negative on the supported domain, so
    a negative value is rounding where the fit touches 0.

    Raises:
        ModelDomainError: ``p`` is outside the supported domain.
    """
    _check_pump(pump_mw)
    rate = _dark_poly(curve, pump_mw)
    return rate if rate > 0.0 else 0.0


def dark_per_window(
    dark_rate_hz: float, convention: DarkConvention, divisor_hz: float
) -> float:
    """Convert a dark-count rate to a per-window probability.

    Args:
        dark_rate_hz: Dark counts per second, finite and >= 0.
        convention: PER_MODE (divide by waveguide bandwidth) or PER_GATE
            (divide by the gate/bit rate).
        divisor_hz: The bandwidth or bit rate selected by ``convention``.
    """
    # written so that NaN fails each check
    if not 0.0 <= dark_rate_hz < math.inf:
        raise ModelDomainError(f"dark rate must be finite and >= 0, got {dark_rate_hz}")
    if not divisor_hz > 0.0:
        name = "bandwidth" if convention is DarkConvention.PER_MODE else "bit rate"
        raise ModelDomainError(f"{name} must be > 0, got {divisor_hz}")
    return dark_rate_hz / divisor_hz


def nep(dark_rate_hz: float, efficiency: float) -> float:
    """Normalized noise-equivalent power ``sqrt(2 D) / eta`` (lower is better)."""
    if not efficiency > 0.0:  # written so that NaN fails it, as does the next
        raise ModelDomainError(f"efficiency must be > 0, got {efficiency}")
    if not dark_rate_hz >= 0.0:
        raise ModelDomainError(f"dark rate must be >= 0, got {dark_rate_hz}")
    return _nep(dark_rate_hz, efficiency)


def _nep(dark_rate_hz, efficiency, sqrt=math.sqrt):
    """Body of ``sqrt(2 D) / eta``; the arguments may be arrays with numpy's sqrt."""
    return sqrt(2.0 * dark_rate_hz) / efficiency


def _nep_grid(curve: UpConversionCurve, pumps):
    """The NEP at each pump of the numpy array ``pumps``, as one array pass.

    Where the scalar objective of ``optimize_pump`` scores a pump, this is its
    value up to numpy's rounding, and inf where the efficiency is 0.  The
    dark rate is clamped at 0 as ``up_dark_rate`` clamps it.
    """
    import numpy as np

    eta = _efficiency(curve, pumps, np.sin, np.sqrt)
    # x/0 and 0/0 where the efficiency is 0, and overflow to inf where it is
    # subnormal (as 1.0 / 5e-324 is inf in Python)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dark = np.maximum(_dark_poly(curve, pumps), 0.0)
        return np.where(eta > 0.0, _nep(dark, eta, np.sqrt), np.inf)


def optimize_pump(
    curve: UpConversionCurve, pump_range: tuple[float, float]
) -> PumpOperatingPoint:
    """Find the pump power minimizing the NEP over ``pump_range``.

    The NEP has one local minimum per efficiency fringe, so a coarse grid
    scan of 2049 points first brackets the global minimum and a
    golden-section search then refines the bracket to below 1e-6 mW.  Ties
    break toward smaller pump.

    The grid is screened in one numpy pass; the scalar objective then
    re-scores the points that may hold its minimum, so the bracket and p*
    are those of a scalar scan.

    Raises:
        ModelDomainError: If the range is empty or leaves the supported
            domain, or the efficiency is zero over the whole range.
    """
    lo, hi = pump_range
    if lo > hi:
        raise ModelDomainError(f"empty pump range [{lo}, {hi}]")
    _check_pump(lo)
    _check_pump(hi)

    def objective(p: float) -> float:
        eta = up_efficiency(curve, p)
        if eta <= 0.0:
            return math.inf
        return nep(up_dark_rate(curve, p), eta)

    if hi - lo < 1e-12:
        if up_efficiency(curve, lo) <= 0.0:
            raise ModelDomainError(f"efficiency is zero at the degenerate pump range [{lo}, {hi}]")
        return PumpOperatingPoint(lo, up_efficiency(curve, lo), up_dark_rate(curve, lo))

    import numpy as np  # the grid screen; importing this module loads no numpy

    n = _PUMP_GRID_STEPS
    # the same floats, in the same arithmetic, as grid_bracket's points
    neps = _nep_grid(curve, lo + (hi - lo) * np.arange(n + 1) / n)
    # inf - inf at a zero-efficiency point is NaN, which is never kept
    with np.errstate(invalid="ignore"):
        indices = first_min_candidates(neps, SCREEN_SLACK * neps)
    a, b, best = grid_bracket(objective, lo, hi, n, indices)
    if not math.isfinite(best):
        raise ModelDomainError(f"efficiency is zero over the whole pump range [{lo}, {hi}]")
    p_star = golden_min(objective, a, b, 1e-6)
    return PumpOperatingPoint(p_star, up_efficiency(curve, p_star), up_dark_rate(curve, p_star))


def make_detector_from_upconversion(
    curve: UpConversionCurve,
    pump_mw: float,
    dead_time: float,
    receiver_loss_db: float,
    name: str = "upconversion-si",
) -> DetectorSpec:
    """Build the effective detector for an up-converter + Si APD chain.

    Efficiency and dark counts come from the curve at the given pump; the
    dark rate is reduced per mode by the waveguide bandwidth.
    """
    return DetectorSpec(
        name=name,
        efficiency=up_efficiency(curve, pump_mw),
        dark_per_window=dark_per_window(
            up_dark_rate(curve, pump_mw), DarkConvention.PER_MODE, curve.bandwidth_hz
        ),
        dead_time=dead_time,
        receiver_loss_db=receiver_loss_db,
    )
