"""Privacy-amplification bounds for individual and hybrid attacks.

The secure fraction of the sifted key follows from the shrinking factor
tau.  For individual attacks tau comes from a collision-probability bound
parameterized by the single-photon fraction beta; for the combined
beam-splitter + intercept-resend attack it is the surviving-bit fraction
gamma minus an error-dependent penalty.  Error-correction overhead f(e) is
interpolated from published algorithm benchmarks.
"""

from __future__ import annotations

import bisect
import enum
import math
import sys
from dataclasses import dataclass

from .detector import DetectorSpec
from .errors import ModelDomainError


class AttackModel(enum.Enum):
    """Which eavesdropping strategy bounds the secure rate.

    Each member's value is its scenario-file name, so ``AttackModel(name)``
    looks an attack up.  ``hybrid`` selects the beam-splitter +
    intercept-resend attack over the individual attacks, and ``memory``
    gives Eve a quantum memory.  The interferometer delay N is the
    scenario's.
    """

    INDIVIDUAL_MEM = ("individual_mem", False, True)
    INDIVIDUAL_NOMEM = ("individual_nomem", False, False)
    HYBRID_MEM = ("hybrid_mem", True, True)
    HYBRID_NOMEM = ("hybrid_nomem", True, False)

    def __new__(cls, name: str, hybrid: bool, memory: bool):
        member = object.__new__(cls)
        member._value_ = name
        member.hybrid = hybrid
        member.memory = memory
        return member

    @classmethod
    def _missing_(cls, value):
        expected = ", ".join(sorted(a.value for a in cls))
        raise ModelDomainError(f"unknown attack '{value}' (expected one of {expected})")


@dataclass(frozen=True)
class ECTable:
    """Error-correction overhead f(e) sampled at increasing error rates."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ModelDomainError("ECTable needs at least two breakpoints")
        es = [e for e, _ in self.points]
        if any(b <= a for a, b in zip(es, es[1:])):
            raise ModelDomainError("ECTable breakpoints must be strictly increasing in e")
        if any(f < 1.0 for _, f in self.points):
            raise ModelDomainError("error-correction overhead f must be >= 1")
        if es[0] > 0.01 or es[-1] < 0.15:
            raise ModelDomainError("ECTable must cover [0.01, 0.15]")


#: Benchmarks of the interactive cascade reconciliation algorithm.
CASCADE_EC_TABLE = ECTable(points=((0.01, 1.16), (0.05, 1.16), (0.1, 1.22), (0.15, 1.35)))


def f_ec(table: ECTable, e: float) -> float:
    """Error-correction overhead at error rate ``e``.

    Piecewise-linear between breakpoints, constant below the first one.

    Raises:
        ModelDomainError: ``e`` is negative, NaN or beyond the last breakpoint;
            ``secure_rate`` flags the latter as yielding no key.
    """
    if not e >= 0.0:  # written so that NaN fails it too, as do the checks below
        raise ModelDomainError(f"error rate must be >= 0, got {e}")
    points = table.points
    if e <= points[0][0]:
        return points[0][1]
    if e > points[-1][0]:
        raise ModelDomainError(
            f"error rate {e} exceeds the correction table range (max {points[-1][0]})"
        )
    # (e,) sorts before every breakpoint (e, f), so this is bisect_left on the e column
    i = bisect.bisect_left(points, (e,))
    (e0, f0), (e1, f1) = points[i - 1], points[i]
    return f0 + (f1 - f0) * (e - e0) / (e1 - e0)


# The private helpers below hold the formulas that the scalar functions and
# the array pass ``rate._grid_rates`` share.  Their arguments may be floats or
# numpy arrays; the transcendental functions are passed in for the same reason.
# Where a helper picks between two forms, an array passes ``numpy.where`` as
# ``where``, and a float (``where=None``) evaluates only the form it takes.

# Below this mu, -expm1(-mu) and mu e^-mu cancel to under 1/200 of either,
# and _multiphoton sums the Poisson tail instead.
_MU_SERIES = 0.01


def _multiphoton(mu, exp=math.exp, expm1=math.expm1, where=None):
    if where is None:
        return _poisson_tail(mu, exp) if mu < _MU_SERIES else -expm1(-mu) - mu * exp(-mu)
    return where(mu < _MU_SERIES, _poisson_tail(mu, exp), -expm1(-mu) - mu * exp(-mu))


def _poisson_tail(mu, exp):
    """``e^-mu sum_{k=2}^{7} mu^k / k!``; below _MU_SERIES the next term is under 5e-17 of it."""
    return exp(-mu) * mu * mu / 2.0 * (
        1.0 + mu / 3.0 * (1.0 + mu / 4.0 * (1.0 + mu / 5.0 * (1.0 + mu / 6.0 * (1.0 + mu / 7.0))))
    )


def _single_photon_fraction(p_click, p_m):
    return (p_click - p_m) / p_click


def _collision_bound(e, beta, memory: bool):
    """Ratio, its turning point and prefactor of the collision bound."""
    if memory:
        return e / beta, 0.5, beta
    return e / (1.0 + beta), 0.25, (1.0 + beta) / 2.0


# Above this share of its turning point, the collision bound's log argument
# is within 0.005 of 1, and _collision_log2 takes its log through log1p.
_NEAR_TURN = 0.9
_LN2 = math.log(2.0)


def _collision_log2(ratio, turn, log2=math.log2, log1p=math.log1p, where=None):
    """log2 of the collision bound's argument, for a ratio below its turning point.

    The argument ``1/2 + r/t - c r^2``, with ``c = 1/(2 t^2)``, is
    ``1 - c (r - t)^2``: ``1 - 2(x - 1/2)^2`` with memory and
    ``1 - 8(y - 1/4)^2`` without.  Near the turning point it nears 1, where
    log2 keeps only its absolute precision, so there the log is
    ``log1p(-c (r - t)^2) / ln 2``.
    """
    c = 0.5 / (turn * turn)
    if where is None:
        if ratio > _NEAR_TURN * turn:
            return log1p(-c * (ratio - turn) ** 2) / _LN2
        return log2(0.5 + ratio / turn - c * ratio * ratio)
    return where(
        ratio > _NEAR_TURN * turn,
        log1p(-c * (ratio - turn) ** 2) / _LN2,
        log2(0.5 + ratio / turn - c * ratio * ratio),
    )


def _surviving_fraction(mu, p_signal, delay_n: int, memory: bool):
    if memory:
        return 1.0 - 2.0 * mu + 2.0 * p_signal
    return 1.0 - mu / delay_n + p_signal / delay_n


def _hybrid_penalty(e, delay_n: int):
    return e / (delay_n * (1.0 - 1.0 / (2.0 * delay_n)))


def poisson_multiphoton(mu: float) -> float:
    """Probability ``1 - (1 + mu) e^-mu`` that a Poisson pulse has >= 2 photons."""
    if not 0.0 <= mu < math.inf:
        raise ModelDomainError(f"mu must be finite and >= 0, got {mu}")
    return _multiphoton(mu)


def single_photon_fraction(p_click: float, p_m: float) -> float:
    """Fraction ``(p_click - p_m) / p_click`` of clicks from single photons.

    May be <= 0 when multiphoton pulses dominate; callers must treat that as
    insecure against photon-number splitting.

    Raises:
        ModelDomainError: ``p_click`` is not in (0, 1] or ``p_m`` not in [0, 1].
    """
    if not 0.0 < p_click <= 1.0:
        raise ModelDomainError(
            "single-photon fraction undefined at zero click probability; "
            f"p_click must be in (0, 1], got {p_click}"
        )
    if not 0.0 <= p_m <= 1.0:
        raise ModelDomainError(f"p_m must be in [0, 1], got {p_m}")
    return _single_photon_fraction(p_click, p_m)


def shrink_individual(e: float, beta: float, memory: bool) -> float:
    """Privacy-amplification shrinking factor against individual attacks.

    With quantum memory Eve stores photons and measures after the delay
    announcement; without it she must measure immediately in a random basis,
    which weakens her collision probability.  Returns 0 when the bound
    leaves no secret bits.  The bound's log argument rises to 1 (tau = 0) at
    ``e / beta = 1/2`` with memory and ``e / (1 + beta) = 1/4`` without, and
    turns back down beyond; there tau stays 0.

    Raises:
        ModelDomainError: ``beta`` is not in (0, 1], which at ``beta <= 0``
            means no secure key against PNS, or ``e`` is not finite and >= 0.
    """
    if beta <= 0.0:
        raise ModelDomainError(f"single-photon fraction {beta} <= 0: no secure key against PNS")
    if not beta <= 1.0:
        raise ModelDomainError(f"single-photon fraction must be <= 1, got {beta}")
    if not 0.0 <= e < math.inf:
        raise ModelDomainError(f"error rate must be finite and >= 0, got {e}")
    ratio, turn, scale = _collision_bound(e, beta, memory)
    if ratio >= turn:
        return 0.0
    # conditional expressions in place of max(0.0, x): the same value for NaN and -0.0
    tau = -scale * _collision_log2(ratio, turn)
    return tau if tau > 0.0 else 0.0


def bs_transmission(detector: DetectorSpec, alpha_db_per_km: float, length_km: float) -> float:
    """Beam-splitter transmission Eve needs to mimic the lossy channel.

    Equals ``eta * 10^-(alpha L + L_r)/10``, i.e. p_signal / mu.
    """
    if not (0.0 <= alpha_db_per_km < math.inf and 0.0 <= length_km < math.inf):
        raise ModelDomainError("alpha and length must be finite and >= 0")
    return detector.efficiency * 10.0 ** (
        -(alpha_db_per_km * length_km + detector.receiver_loss_db) / 10.0
    )


def surviving_fraction(mu: float, p_signal: float, delay_n: int, memory: bool) -> float:
    """Fraction of sifted bits unknown to a beam-splitting Eve.

    Without memory Eve's random delay choice matches Bob's with chance 1/N,
    giving ``1 - mu/N + p_signal/N``; with memory she waits for the
    announcement and the fraction drops to ``1 - 2 mu + 2 p_signal``.  These
    are the published forms ``1 - mu (1 - eta_bs)/N`` and
    ``1 - 2 mu (1 - eta_bs)`` written with ``p_signal = mu * eta_bs``, where
    eta_bs is Eve's beam-splitter transmission (``bs_transmission``).
    Clamped below at 0; a zero value means the attack leaves no secret bits.
    """
    if not 0.0 < mu < math.inf:
        raise ModelDomainError(f"mu must be finite and > 0, got {mu}")
    if not 0.0 <= p_signal <= 1.0:
        raise ModelDomainError(f"p_signal must be in [0, 1], got {p_signal}")
    if not (1 <= delay_n <= sys.float_info.max and delay_n % 1 == 0):  # NaN and inf fail too
        raise ModelDomainError(f"delay_n must be an integer >= 1, got {delay_n}")
    gamma = _surviving_fraction(mu, p_signal, delay_n, memory)
    return gamma if gamma > 0.0 else 0.0


def shrink_hybrid(e: float, gamma: float, delay_n: int) -> float:
    """Shrinking factor ``gamma - e / (N (1 - 1/2N))`` for the hybrid attack.

    Linear and strictly decreasing in the error rate; clamped below at 0.
    """
    if not (1 <= delay_n <= sys.float_info.max and delay_n % 1 == 0):  # NaN and inf fail too
        raise ModelDomainError(f"delay_n must be an integer >= 1, got {delay_n}")
    if not 0.0 <= gamma <= 1.0:
        raise ModelDomainError(f"gamma must be in [0, 1], got {gamma}")
    if not 0.0 <= e <= 0.5:
        raise ModelDomainError(f"error rate must be in [0, 0.5], got {e}")
    tau = gamma - _hybrid_penalty(e, delay_n)
    return tau if tau > 0.0 else 0.0


def ir_error_floor(delay_n: int) -> float:
    """Error rate ``(1 - 1/2N) / 2`` an intercept-resend with mismatched delay induces."""
    if not (1 <= delay_n <= sys.float_info.max and delay_n % 1 == 0):  # NaN and inf fail too
        raise ModelDomainError(f"delay_n must be an integer >= 1, got {delay_n}")
    return 0.5 * (1.0 - 1.0 / (2.0 * delay_n))
