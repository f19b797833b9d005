"""Fiber-link click probabilities and QBER.

Per measurement window (one clock period 1/nu) Bob sees a signal click with
probability ``mu * eta * 10^-(alpha L + L_r)/10`` and a dark click with
probability ``2 d`` from the two detectors at the delay interferometer's
outputs.  Dark counts land on a random detector, so they contribute errors at
rate 1/2 while signal clicks err at the baseline system rate ``b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .detector import DetectorSpec
from .errors import ModelDomainError


@dataclass(frozen=True)
class LinkScenario:
    """Channel and protocol parameters for one operating point.

    Args:
        mu: Mean photon number per pulse, > 0.
        alpha_db_per_km: Fiber loss coefficient, dB/km.
        length_km: Link length L, km.
        clock_hz: Pulse repetition rate nu; the measurement window is 1/nu.
        baseline_error: Baseline system error rate b in [0, 0.5).
        detector: Bob's detector parameters.
        delay_n: Interferometer delay in clock periods (N).
        dead_time_delta: Saturation exponent scale delta.  ``None`` selects
            1/2, i.e. each of Bob's two detectors handles half the clicks.
    """

    mu: float
    alpha_db_per_km: float
    length_km: float
    clock_hz: float
    baseline_error: float
    detector: DetectorSpec
    delay_n: int
    dead_time_delta: float | None = None

    def __post_init__(self):
        # the chained comparisons also reject NaN and infinities
        if not 0.0 < self.mu < math.inf:
            raise ModelDomainError(f"mu must be finite and > 0, got {self.mu}")
        if not 0.0 <= self.alpha_db_per_km < math.inf:
            raise ModelDomainError(f"alpha must be finite and >= 0, got {self.alpha_db_per_km}")
        if not 0.0 <= self.length_km < math.inf:
            raise ModelDomainError(f"length must be finite and >= 0, got {self.length_km}")
        if not 0.0 < self.clock_hz < math.inf:
            raise ModelDomainError(f"clock rate must be finite and > 0, got {self.clock_hz}")
        if not 0.0 <= self.baseline_error < 0.5:
            raise ModelDomainError(
                f"baseline error must be in [0, 0.5), got {self.baseline_error}"
            )
        if not 1 <= self.delay_n < math.inf or int(self.delay_n) != self.delay_n:
            raise ModelDomainError(f"delay_n must be an integer >= 1, got {self.delay_n}")
        if self.dead_time_delta is not None and not 0.0 <= self.dead_time_delta < math.inf:
            raise ModelDomainError(
                f"dead_time_delta must be finite and >= 0, got {self.dead_time_delta}"
            )

    @property
    def effective_dead_time_delta(self) -> float:
        if self.dead_time_delta is not None:
            return self.dead_time_delta
        return 0.5


def _trial_scenario(s: LinkScenario, mu: float, length_km: float) -> LinkScenario:
    """``dataclasses.replace(s, mu=mu, length_km=length_km)``, for the solvers' trial points.

    The positional constructor costs under half of ``replace``'s generic
    field loop; ``__post_init__`` still checks the result.  It must pass
    every field in order, which ``tests/test_link.py`` pins.
    """
    return LinkScenario(
        mu, s.alpha_db_per_km, length_km, s.clock_hz, s.baseline_error, s.detector,
        s.delay_n, s.dead_time_delta,
    )


class ChannelStats(NamedTuple):
    """Click probabilities and QBER of one scenario, as an immutable named tuple.

    ``p_signal`` and ``p_click`` are clamped to 1 (``clamped`` records
    whether clamping occurred); ``qber`` is computed from the unclamped
    values and is NaN when the click probability is zero.  It is never below
    ``b``, and without dark counts it is ``b`` exactly.
    """

    p_signal: float
    p_dark: float
    p_click: float
    qber: float
    clamped: bool


def _click_terms(s: LinkScenario, mu):
    """Unclamped signal and click probabilities, dark probability and QBER numerator.

    ``mu`` replaces ``s.mu`` and may be a numpy array.
    """
    raw_signal = mu * s.detector.efficiency * 10.0 ** (
        -(s.alpha_db_per_km * s.length_km + s.detector.receiver_loss_db) / 10.0
    )
    # DetectorSpec keeps d in [0, 0.5) and doubling is exact, so 2d < 1
    dark = 2.0 * s.detector.dark_per_window
    return raw_signal, dark, raw_signal + dark, 0.5 * dark + s.baseline_error * raw_signal


def channel_stats(s: LinkScenario) -> ChannelStats:
    raw_signal, dark, raw_click, errors = _click_terms(s, s.mu)
    clamped = raw_click > 1.0
    # errors / raw_click, a mean of b and 1/2, can round below b: without dark
    # counts it is b p / p, and with them the dark share can fall under b's last bit
    if dark > 0.0:  # then raw_click >= dark > 0
        qber = errors / raw_click
        if qber < s.baseline_error:
            qber = s.baseline_error
    else:
        qber = s.baseline_error if raw_click > 0.0 else math.nan
    # conditional expressions in place of min(x, 1.0): the same value for NaN and -0.0
    p_signal = 1.0 if raw_signal > 1.0 else raw_signal
    return ChannelStats(p_signal, dark, 1.0 if clamped else raw_click, qber, clamped)

