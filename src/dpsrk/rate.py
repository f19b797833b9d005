"""Secure key rate assembly, optimizers and reference asymptotes.

The sifted rate is ``nu * p_click``; the secure rate subtracts Eve's
information through the shrinking factor tau and the error-correction cost
``f(e) H(e)``.  Detector dead time saturates the corrected rate by
``exp(-delta nu p_click t_d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import link, security
from ._search import golden_min, grid_bracket
from .errors import (
    AboveCorrectionRangeError,
    ModelDomainError,
    NoSecureDistanceError,
)
from .link import LinkScenario
from .security import CASCADE_EC_TABLE, AttackKind, AttackModel, ECTable

FLAG_CLAMPED = "clamped"
FLAG_INSECURE = "insecure"
FLAG_ABOVE_EC_RANGE = "above_ec_range"
FLAG_DEADTIME_LIMITED = "deadtime_limited"


@dataclass(frozen=True)
class RatePoint:
    """All derived quantities at one operating point."""

    length_km: float
    p_signal: float
    p_dark: float
    p_click: float
    qber: float
    tau: float
    f_used: float
    sifted_rate_hz: float
    secure_rate_hz: float
    secure_rate_deadtime_hz: float
    flags: frozenset[str]

    @property
    def secure(self) -> bool:
        return self.secure_rate_hz > 0.0 and FLAG_INSECURE not in self.flags


def binary_entropy(e: float) -> float:
    """Binary entropy in bits, with the continuous extension H(0) = H(1) = 0."""
    if e < 0.0 or e > 1.0:
        raise ModelDomainError(f"entropy argument must be in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def secure_rate_from_parts(
    clock_hz: float, p_click: float, qber: float, tau: float, f: float
) -> float:
    """Secure rate ``nu p_click (tau - f H(e))``, clamped below at 0."""
    return max(0.0, clock_hz * p_click * (tau - f * binary_entropy(qber)))


def _dead_time_exponent(s: LinkScenario, p_click: float) -> float:
    """Mean clicks ``delta nu p_click t_d`` arriving during one dead time."""
    return s.effective_dead_time_delta * s.clock_hz * p_click * s.detector.dead_time


def dead_time_factor(s: LinkScenario) -> float:
    """Rate reduction ``exp(-delta nu p_click t_d)`` from detector dead time."""
    return math.exp(-_dead_time_exponent(s, link.channel_stats(s).p_click))


def _attack_delay(s: LinkScenario, a: AttackModel) -> int:
    return int(a.delay_n) if a.delay_n is not None else int(s.delay_n)


def secure_rate(
    s: LinkScenario,
    a: AttackModel,
    *,
    ec_table: ECTable = CASCADE_EC_TABLE,
    f_fixed: float | None = None,
) -> RatePoint:
    """Evaluate the full rate chain for one scenario under one attack.

    QBER comes from the link model; tau from the attack's shrinking factor
    (collision bound with the Poisson single-photon fraction for individual
    attacks, surviving fraction for the hybrid attack).  ``f_fixed``
    bypasses the error-correction table with a constant overhead.

    The returned point is never an exception: insecure or out-of-range
    operating points carry zero rate plus explanatory flags.  Without clicks
    the QBER and f are NaN; above the correction table f is NaN.
    """
    stats = link.channel_stats(s)
    e = stats.qber
    flags: set[str] = {FLAG_CLAMPED} if stats.clamped else set()
    tau, f_used, r, saturation = 0.0, math.nan, 0.0, 0.0
    if stats.p_click > 0.0:
        if a.kind is AttackKind.HYBRID_BS_IR:
            n = _attack_delay(s, a)
            eta_bs = security.bs_transmission(s.detector, s.alpha_db_per_km, s.length_km)
            gamma = security.surviving_fraction(s.mu, eta_bs, stats.p_signal, n, a.memory)
            tau = security.shrink_hybrid(e, gamma, n)
        else:
            p_m = security.poisson_multiphoton(s.mu)
            beta = security.single_photon_fraction(stats.p_click, p_m)
            if beta > 0.0:
                tau = security.shrink_individual(e, beta, a.memory)
        try:
            f_used = security.f_ec(ec_table, e) if f_fixed is None else f_fixed
        except AboveCorrectionRangeError:
            flags.add(FLAG_ABOVE_EC_RANGE)
        else:
            r = secure_rate_from_parts(s.clock_hz, stats.p_click, e, tau, f_used)
            saturation = _dead_time_exponent(s, stats.p_click)
            if saturation >= 1.0:
                flags.add(FLAG_DEADTIME_LIMITED)
    if tau == 0.0 or r == 0.0:
        flags.add(FLAG_INSECURE)
    return RatePoint(
        length_km=s.length_km,
        p_signal=stats.p_signal,
        p_dark=stats.p_dark,
        p_click=stats.p_click,
        qber=e,
        tau=tau,
        f_used=f_used,
        sifted_rate_hz=s.clock_hz * stats.p_click,
        secure_rate_hz=r,
        secure_rate_deadtime_hz=r * math.exp(-saturation),
        flags=frozenset(flags),
    )


def bb84_reference(s: LinkScenario) -> float:
    """Ideal single-photon BB84 comparison rate ``nu p_signal / 2``."""
    return 0.5 * s.clock_hz * link.channel_stats(s).p_signal


def asymptotic_rate(s: LinkScenario, a: AttackModel) -> float:
    """Small-error hybrid-attack asymptote, for cross-validation only.

    ``nu (1 - mu/N) p_signal`` without Eve's memory and
    ``nu (1 - 2 mu) p_signal`` with it.
    """
    stats = link.channel_stats(s)
    if a.memory:
        factor = 1.0 - 2.0 * s.mu
    else:
        factor = 1.0 - s.mu / _attack_delay(s, a)
    return s.clock_hz * factor * stats.p_signal


def optimize_mu(
    s: LinkScenario,
    a: AttackModel,
    mu_range: tuple[float, float],
    *,
    ec_table: ECTable = CASCADE_EC_TABLE,
    f_fixed: float | None = None,
) -> tuple[float, RatePoint]:
    """Maximize the dead-time-corrected secure rate over the mean photon number.

    A coarse grid brackets the maximum (the rate need not be unimodal over a
    wide range once dead time matters) and golden-section search refines the
    bracket below 1e-5.  Ties break toward smaller mu.  When the rate is
    zero over the whole range the returned point carries the insecure flag.
    """
    lo, hi = mu_range
    if not 0.0 < lo < hi <= 1.0:
        raise ModelDomainError(f"mu range must satisfy 0 < lo < hi <= 1, got [{lo}, {hi}]")

    def point(mu: float) -> RatePoint:
        return secure_rate(replace(s, mu=mu), a, ec_table=ec_table, f_fixed=f_fixed)

    def loss(mu: float) -> float:
        return -point(mu).secure_rate_deadtime_hz

    a_mu, b_mu, best = grid_bracket(loss, lo, hi, 512)
    if -best <= 0.0:
        return lo, point(lo)
    mu_star = golden_min(loss, a_mu, b_mu, 1e-5)
    return mu_star, point(mu_star)


def max_secure_distance(
    s: LinkScenario,
    a: AttackModel,
    r_min: float = 0.0,
    *,
    l_max_km: float = 20000.0,
    ec_table: ECTable = CASCADE_EC_TABLE,
    f_fixed: float | None = None,
) -> float:
    """Largest length with dead-time-corrected secure rate above ``r_min``.

    Doubles the length until the rate falls to or below ``r_min``, then
    bisects the crossing to 0.01 km.

    Raises:
        NoSecureDistanceError: Already insecure at zero distance.
        ModelDomainError: No crossing below ``l_max_km``.
    """
    if r_min < 0.0:
        raise ModelDomainError(f"r_min must be >= 0, got {r_min}")

    def above(length: float) -> bool:
        p = secure_rate(replace(s, length_km=length), a, ec_table=ec_table, f_fixed=f_fixed)
        return p.secure_rate_deadtime_hz > r_min

    if not above(0.0):
        raise NoSecureDistanceError(f"no secure distance: rate <= {r_min} b/s at L = 0")
    lo, hi = 0.0, 1.0
    while above(hi):
        lo = hi
        hi *= 2.0
        if hi > l_max_km:
            raise ModelDomainError(
                f"rate stays above {r_min} b/s out to the {l_max_km} km search cap"
            )
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo
