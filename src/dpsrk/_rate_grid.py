"""The rate chain over a grid of mean photon numbers, as one numpy pass.

``optimize_mu`` screens its whole grid with this pass instead of one
``secure_rate`` call per point.  The pass uses the chain's own formulas (the
private helpers of ``link``, ``security`` and ``rate``), with masks where the
scalar chain branches, so it differs from ``secure_rate`` only by the
rounding of numpy's exp, expm1, log2 and interp.
"""

from __future__ import annotations

import numpy as np

from . import link, security
from ._search import first_min_candidates
from .link import LinkScenario
from .rate import _dead_time_exponent, _entropy
from .security import CASCADE_EC_TABLE, AttackModel

# How far, as a fraction of the sifted rate, the scalar chain's rate may lie
# from this pass's.  Random scenarios stay within 1e-13; the tests hold the
# pass to 1e-12.
_SLACK = 1e-9

_EC_E = np.array([e for e, _ in CASCADE_EC_TABLE.points])
_EC_F = np.array([f for _, f in CASCADE_EC_TABLE.points])


def grid_rates(
    s: LinkScenario, a: AttackModel, mus: np.ndarray, f_fixed: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Dead-time-corrected secure rate before its clamp at 0, and sifted rate, per mu.

    ``s.mu`` is ignored in favour of ``mus``.  Wherever ``secure_rate`` runs
    the rate formula, the first array is that formula's value, so its
    positive part is ``secure_rate_deadtime_hz``.  It is 0 where nothing
    clicks and -inf where the QBER is above the correction table.
    """
    raw_signal, dark, raw_click, errors = link._click_terms(s, mus)
    p_signal = np.minimum(raw_signal, 1.0)
    p_click = np.minimum(raw_click, 1.0)
    # Masked-out lanes may divide by zero, overflow or take log2 of a non-positive number.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = np.where(dark == 0.0, s.baseline_error, errors / raw_click)
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
        f = np.interp(e, _EC_E, _EC_F) if f_fixed is None else f_fixed
        sifted = s.clock_hz * p_click
        rates = sifted * (tau - f * h) * np.exp(-_dead_time_exponent(s, p_click))
    if f_fixed is None:
        rates[e > _EC_E[-1]] = -np.inf
    rates[p_click == 0.0] = 0.0
    return rates, sifted


def candidates(
    s: LinkScenario, a: AttackModel, lo: float, hi: float, n: int, f_fixed: float | None
) -> list[int]:
    """Indices, increasing, of the points of ``grid_bracket``'s (n+1)-point grid
    on ``[lo, hi]`` whose scalar rate may be the grid's first maximum.

    Empty when no point can have a positive rate.
    """
    # the same floats, in the same arithmetic, as grid_bracket's points
    mus = lo + (hi - lo) * np.arange(n + 1) / n
    rates, sifted = grid_rates(s, a, mus, f_fixed)
    # the scalar scan minimizes the rate clamped at 0, so only a positive rate can win
    return first_min_candidates(-rates, _SLACK * sifted, ceiling=0.0)
