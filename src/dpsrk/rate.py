"""Secure key rate assembly, optimizers and reference asymptotes.

The sifted rate is ``nu * p_click``; the secure rate subtracts Eve's
information through the shrinking factor tau and the error-correction cost
``f(e) H(e)``.  Detector dead time saturates the corrected rate by
``exp(-delta nu p_click t_d)``.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import link, security
from ._search import SCREEN_SLACK, first_min_candidates, golden_min, grid_bracket
from .errors import ModelDomainError, NoSecureDistanceError
from .link import LinkScenario, _trial_scenario
from .security import CASCADE_EC_TABLE, AttackModel

FLAG_CLAMPED = "clamped"
FLAG_INSECURE = "insecure"
FLAG_ABOVE_EC_RANGE = "above_ec_range"
FLAG_DEADTIME_LIMITED = "deadtime_limited"

# Every flag set a point can carry, keyed by which of these four flags it holds.
_FLAG_ORDER = (FLAG_CLAMPED, FLAG_ABOVE_EC_RANGE, FLAG_DEADTIME_LIMITED, FLAG_INSECURE)
_FLAG_SETS = {
    key: frozenset(flag for flag, held in zip(_FLAG_ORDER, key) if held)
    for key in itertools.product((False, True), repeat=len(_FLAG_ORDER))
}

# Last breakpoint of the cascade table; f_ec raises above it.
_EC_E_MAX = CASCADE_EC_TABLE.points[-1][0]

# Longest link max_secure_distance searches before giving up.
_L_MAX_KM = 20000.0
# Widest step of the scan for a window the walk stepped over, in km.
_WINDOW_STEP_KM = 0.25

# Steps of optimize_mu's mu grid, which has one point more.
_MU_GRID_STEPS = 512


class RatePoint(NamedTuple):
    """All derived quantities at one operating point, as an immutable named tuple."""

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
    if not 0.0 <= e <= 1.0:
        raise ModelDomainError(f"entropy argument must be in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return _entropy(e)


def _entropy(e, log2=math.log2):
    """Body of ``H(e)`` for 0 < e < 1; ``e`` may be an array with numpy's ``log2``."""
    return -e * log2(e) - (1.0 - e) * log2(1.0 - e)


def secure_rate_from_parts(
    clock_hz: float, p_click: float, qber: float, tau: float, f: float
) -> float:
    """Secure rate ``nu p_click (tau - f H(e))``, clamped below at 0."""
    r = clock_hz * p_click * (tau - f * binary_entropy(qber))
    return r if r > 0.0 else 0.0  # max(0.0, r) without the call; same for NaN and -0.0


def _dead_time_exponent(s: LinkScenario, p_click):
    """Mean clicks ``delta nu p_click t_d`` arriving during one dead time.

    ``p_click`` may be an array.
    """
    return s.effective_dead_time_delta * s.clock_hz * p_click * s.detector.dead_time


def _grid_rates(s: LinkScenario, a: AttackModel, mus, f_fixed: float | None = None):
    """Dead-time-corrected secure rate before its clamp at 0, and sifted rate, per mu.

    ``mus`` is a numpy array, and ``s.mu`` is ignored in favour of it.  The
    pass uses the chain's own formulas, with masks where the scalar chain
    branches, so it differs from ``secure_rate`` only by the rounding of
    numpy's exp, expm1, log2 and interp.  Wherever ``secure_rate`` runs the
    rate formula, the first array is that formula's value, so its positive
    part is ``secure_rate_deadtime_hz``.  It is 0 where nothing clicks and
    -inf where the QBER is above the correction table.
    """
    import numpy as np

    raw_signal, dark, raw_click, errors = link._click_terms(s, mus)
    p_signal = np.minimum(raw_signal, 1.0)
    p_click = np.minimum(raw_click, 1.0)
    # Masked-out lanes may divide by zero, overflow or take log2 of a non-positive number.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = np.where(
            dark == 0.0, s.baseline_error, np.maximum(errors / raw_click, s.baseline_error)
        )
        if a.hybrid:
            gamma = np.maximum(
                0.0, security._surviving_fraction(mus, p_signal, s.delay_n, a.memory)
            )
            tau = np.maximum(0.0, gamma - security._hybrid_penalty(e, s.delay_n))
        else:
            p_m = security._multiphoton(mus, np.exp, np.expm1)
            beta = security._single_photon_fraction(p_click, p_m)
            ratio, turn, arg, scale = security._collision_bound(e, beta, a.memory)
            tau = np.where(
                (beta > 0.0) & (ratio < turn), np.maximum(0.0, -scale * np.log2(arg)), 0.0
            )
        h = np.where(e > 0.0, _entropy(e, np.log2), 0.0)
        f = np.interp(e, *zip(*CASCADE_EC_TABLE.points)) if f_fixed is None else f_fixed
        sifted = s.clock_hz * p_click
        rates = sifted * (tau - f * h) * np.exp(-_dead_time_exponent(s, p_click))
    if f_fixed is None:
        rates[e > _EC_E_MAX] = -np.inf
    rates[p_click == 0.0] = 0.0
    return rates, sifted


def secure_rate(s: LinkScenario, a: AttackModel, *, f_fixed: float | None = None) -> RatePoint:
    """Evaluate the full rate chain for one scenario under one attack.

    QBER comes from the link model; tau from the attack's shrinking factor
    (collision bound with the Poisson single-photon fraction for individual
    attacks, surviving fraction for the hybrid attack).  The overhead f comes
    from the cascade table unless ``f_fixed`` gives a constant.

    The returned point is never an exception: insecure or out-of-range
    operating points carry zero rate plus explanatory flags.  Without clicks
    the QBER and f are NaN; above the correction table f is NaN.  The range
    test reads the table's last breakpoint here, so an above-range point
    does not call ``security.f_ec``, which would raise for it.

    Raises:
        ModelDomainError: ``f_fixed`` is not a finite overhead >= 1.
    """
    if f_fixed is not None and not 1.0 <= f_fixed < math.inf:
        raise ModelDomainError(f"fixed overhead f must be finite and >= 1, got {f_fixed}")
    p_signal, p_dark, p_click, e, clamped = link.channel_stats(s)
    tau, f_used, r, saturation, above = 0.0, math.nan, 0.0, 0.0, False
    if p_click > 0.0:
        if a.hybrid:
            gamma = security.surviving_fraction(s.mu, p_signal, s.delay_n, a.memory)
            tau = security.shrink_hybrid(e, gamma, s.delay_n)
        else:
            p_m = security.poisson_multiphoton(s.mu)
            beta = security.single_photon_fraction(p_click, p_m)
            if beta > 0.0:
                tau = security.shrink_individual(e, beta, a.memory)
        if f_fixed is None and e > _EC_E_MAX:
            above = True
        else:
            f_used = security.f_ec(CASCADE_EC_TABLE, e) if f_fixed is None else f_fixed
            r = secure_rate_from_parts(s.clock_hz, p_click, e, tau, f_used)
            saturation = _dead_time_exponent(s, p_click)
    return RatePoint(
        s.length_km,
        p_signal,
        p_dark,
        p_click,
        e,
        tau,
        f_used,
        s.clock_hz * p_click,
        r,
        r * math.exp(-saturation),
        _FLAG_SETS[clamped, above, saturation >= 1.0, tau == 0.0 or r == 0.0],
    )


def asymptotic_rate(s: LinkScenario, a: AttackModel) -> float:
    """Small-error hybrid-attack asymptote, for cross-validation only.

    ``nu (1 - mu/N) p_signal`` without Eve's memory and
    ``nu (1 - 2 mu) p_signal`` with it.
    """
    stats = link.channel_stats(s)
    if a.memory:
        factor = 1.0 - 2.0 * s.mu
    else:
        factor = 1.0 - s.mu / s.delay_n
    return s.clock_hz * factor * stats.p_signal


def optimize_mu(
    s: LinkScenario,
    a: AttackModel,
    mu_range: tuple[float, float],
    *,
    f_fixed: float | None = None,
) -> tuple[float, RatePoint]:
    """Maximize the dead-time-corrected secure rate over the mean photon number.

    A coarse grid of 513 points brackets the maximum (the rate need not be
    unimodal over a wide range once dead time matters) and golden-section
    search refines the bracket below 1e-5.  Ties break toward smaller mu.
    When the rate is zero over the whole range the returned point carries
    the insecure flag.

    The grid is screened in one numpy pass through the rate chain; the
    scalar chain then re-scores the points that may hold its maximum, so
    the bracket, mu* and the returned point are those of a scalar scan.
    """
    lo, hi = mu_range
    if not 0.0 < lo < hi <= 1.0:
        raise ModelDomainError(f"mu range must satisfy 0 < lo < hi <= 1, got [{lo}, {hi}]")
    import numpy as np  # the grid screen; importing this module loads no numpy

    def point(mu: float) -> RatePoint:
        return secure_rate(_trial_scenario(s, mu, s.length_km), a, f_fixed=f_fixed)

    def loss(mu: float) -> float:
        return -point(mu).secure_rate_deadtime_hz

    n = _MU_GRID_STEPS
    # the same floats, in the same arithmetic, as grid_bracket's points
    rates, sifted = _grid_rates(s, a, lo + (hi - lo) * np.arange(n + 1) / n, f_fixed)
    # the scalar scan minimizes the rate clamped at 0, so only a positive rate can win
    indices = first_min_candidates(-rates, SCREEN_SLACK * sifted, ceiling=0.0)
    a_mu, b_mu, best = grid_bracket(loss, lo, hi, n, indices)
    if -best <= 0.0:
        return lo, point(lo)
    mu_star = golden_min(loss, a_mu, b_mu, 1e-5)
    return mu_star, point(mu_star)


def max_secure_distance(
    s: LinkScenario,
    a: AttackModel,
    r_min: float = 0.0,
    *,
    f_fixed: float | None = None,
) -> float:
    """Largest length with dead-time-corrected secure rate above ``r_min``.

    Walks the lengths 0, 1, 2, 4, ... km.  Dead time can hold the corrected
    rate at or below ``r_min`` on short links, where the click rate is
    highest, so the walk first steps out to the first length whose corrected
    rate is above ``r_min``.  It keeps doubling until the rate falls to or
    below ``r_min`` again, then bisects that crossing to 0.01 km.

    If the uncorrected rate, which never rises with length, falls to or
    below ``r_min`` at a walk point ``L > 0`` first, a window above
    ``r_min`` can still lie between the walk's points below ``L``.  The
    corrected rate is then scanned on [0, L] at steps of at most 0.25 km and
    its best point refined by golden section; the walk goes on from that
    peak if it is above ``r_min``.  A window narrower than the scan step
    can still be missed.

    Raises:
        NoSecureDistanceError: The corrected rate stays at or below
            ``r_min`` on every length where the uncorrected rate is above
            it, or the walk reaches the 20000 km search cap first.
        ModelDomainError: ``r_min`` is negative or NaN, or no
            crossing lies below the search cap.
    """
    if not 0.0 <= r_min:  # NaN fails too
        raise ModelDomainError(f"r_min must be >= 0, got {r_min}")

    def point(length: float) -> RatePoint:
        return secure_rate(_trial_scenario(s, s.mu, length), a, f_fixed=f_fixed)

    def above(length: float) -> bool:
        return point(length).secure_rate_deadtime_hz > r_min

    def loss(length: float) -> float:
        return -point(length).secure_rate_deadtime_hz

    lo = 0.0
    p = point(lo)
    while p.secure_rate_deadtime_hz <= r_min:
        if p.secure_rate_hz <= r_min and lo > 0.0:
            # the walk may have stepped over a window above r_min below lo
            left, right, _ = grid_bracket(loss, 0.0, lo, math.ceil(lo / _WINDOW_STEP_KM))
            peak = golden_min(loss, left, right, 0.01)
            if above(peak):
                lo = peak
                break
        if p.secure_rate_hz <= r_min or 2.0 * lo > _L_MAX_KM:
            raise NoSecureDistanceError(f"no secure distance: rate <= {r_min} b/s at L = {lo:g}")
        lo = max(1.0, 2.0 * lo)
        p = point(lo)
    hi = max(1.0, 2.0 * lo)
    while above(hi):
        lo = hi
        hi *= 2.0
        if hi > _L_MAX_KM:
            raise ModelDomainError(
                f"rate stays above {r_min} b/s out to the {_L_MAX_KM} km search cap"
            )
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo
