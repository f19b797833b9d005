"""Independent reference for the dpsrk rate chain, in plain ``math``.

Every formula is written from the package README and module docstrings, not
from the package code, and nothing here imports ``dpsrk``:

* link: ``p_signal = mu eta 10^-(alpha L + L_r)/10`` (clamped to 1),
  ``p_dark = n_det d``, ``p_click = p_signal + p_dark`` (clamped to 1) and
  ``QBER = (p_dark/2 + b p_signal) / p_click`` from the unclamped values;
* individual attacks: ``beta = (p_click - p_m) / p_click`` with the Poisson
  multiphoton probability ``p_m = 1 - (1 + mu) e^-mu`` and the collision
  bound ``tau = -beta log2(1/2 + 2x - 2x^2)``, ``x = e/beta`` (memory) or
  ``tau = -(1 + beta)/2 log2(1/2 + 4y - 8y^2)``, ``y = e/(1 + beta)``;
* hybrid attack: ``gamma = 1 - mu/N + p_signal/N`` (no memory) or
  ``1 - 2 mu + 2 p_signal`` (memory), ``tau = gamma - e / (N (1 - 1/2N))``;
* ``f(e)`` from the cascade table, piecewise linear, constant below 0.01,
  no key above 0.15; or a fixed ``f``;
* rate ``nu p_click (tau - f H(e))`` and dead-time factor
  ``exp(-delta nu p_click t_d)`` with ``delta = 1/n_det``;
* up-conversion: ``eta = a1 sin^2(sqrt(a2 p))``, dark rate ``sum b_k p^k``
  per second, per-mode dark probability ``D / bandwidth``;
* the Monte Carlo sampler's own per-window semantics.

The collision bound is only valid up to its turning point (``x <= 1/2`` or
``y <= 1/4``).  Past it the oracle's tau is 0 and ``tau_in_range`` is False;
the benchmark does not judge the program's tau or rate at such points.
"""

from __future__ import annotations

import math

import numpy as np

CASCADE_TABLE = ((0.01, 1.16), (0.05, 1.16), (0.1, 1.22), (0.15, 1.35))
FIVE_SIGMA_TWO_SIDED = math.erfc(5.0 / math.sqrt(2.0))


def f_table(e: float, table=CASCADE_TABLE) -> float | None:
    """Cascade overhead at error rate ``e``; None above the table's range."""
    if e <= table[0][0]:
        return table[0][1]
    if e > table[-1][0]:
        return None
    for (e0, f0), (e1, f1) in zip(table, table[1:]):
        if e <= e1:
            return f0 + (f1 - f0) * (e - e0) / (e1 - e0)
    raise AssertionError("unreachable")


def entropy(e: float) -> float:
    if e <= 0.0 or e >= 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def multiphoton(mu: float) -> float:
    return 1.0 - (1.0 + mu) * math.exp(-mu)


def up_efficiency(a1: float, a2: float, pump_mw: float) -> float:
    return a1 * math.sin(math.sqrt(a2 * pump_mw)) ** 2


def up_dark_rate(b: tuple[float, ...], pump_mw: float) -> float:
    return sum(bk * pump_mw**k for k, bk in enumerate(b))


def dark_per_mode(dark_rate_hz: float, bandwidth_hz: float) -> float:
    return dark_rate_hz / bandwidth_hz


def tau_individual(e: float, beta: float, memory: bool) -> tuple[float, bool]:
    """Collision-bound tau and whether the bound's argument is in range."""
    if beta <= 0.0:
        return 0.0, True
    if memory:
        x = e / beta
        arg, scale, in_range = 0.5 + 2.0 * x - 2.0 * x * x, beta, x <= 0.5
    else:
        y = e / (1.0 + beta)
        arg, scale, in_range = 0.5 + 4.0 * y - 8.0 * y * y, (1.0 + beta) / 2.0, y <= 0.25
    if not in_range or arg <= 0.0:
        return 0.0, in_range
    return max(0.0, -scale * math.log2(arg)), True


def tau_hybrid(e: float, mu: float, p_signal: float, n: int, memory: bool) -> tuple[float, float]:
    """(tau, gamma) of the hybrid beam-splitter + intercept-resend bound."""
    gamma = 1.0 - 2.0 * mu + 2.0 * p_signal if memory else 1.0 - mu / n + p_signal / n
    gamma = max(0.0, gamma)
    return max(0.0, gamma - e / (n * (1.0 - 1.0 / (2.0 * n)))), gamma


def rate_point(
    *,
    mu: float,
    eta: float,
    dark: float,
    loss_db: float,
    dead_time: float,
    alpha: float,
    length: float,
    clock: float,
    b: float,
    n: int,
    attack: str,
    f_fixed: float | None,
    n_det: int = 2,
) -> dict:
    """Every layer's value at one operating point, plus the expected flags.

    ``attack`` is one of the scenario-file names (``individual_mem``,
    ``individual_nomem``, ``hybrid_mem``, ``hybrid_nomem``).  ``ambiguous``
    is True when a flag decision lies within rounding of its threshold.
    """
    transmission = eta * 10.0 ** (-(alpha * length + loss_db) / 10.0)
    raw_signal = mu * transmission
    p_dark = n_det * dark
    raw_click = raw_signal + p_dark
    p_signal = min(raw_signal, 1.0)
    p_click = min(raw_click, 1.0)
    qber = (0.5 * p_dark + b * raw_signal) / raw_click if raw_click > 0.0 else math.nan
    sat = clock * p_click * dead_time / n_det
    out = dict(
        p_signal=p_signal, p_dark=p_dark, p_click=p_click, qber=qber,
        sifted=clock * p_click, deadtime_factor=math.exp(-sat), saturation=sat,
        tau=0.0, tau_in_range=True, beta=math.nan, gamma=math.nan,
        f=math.nan, h=math.nan, secure=0.0, secure_dt=0.0, ambiguous=False,
    )
    flags = {"clamped"} if raw_click > 1.0 else set()
    out["flags"] = flags
    if not raw_click > 0.0:
        flags.add("insecure")
        out["sifted"] = 0.0
        return out
    memory = attack.endswith("_mem")
    if attack.startswith("hybrid"):
        tau, gamma = tau_hybrid(qber, mu, p_signal, n, memory)
        out["gamma"] = gamma
        near_tau = abs(gamma - qber / (n * (1.0 - 1.0 / (2.0 * n)))) < 1e-12
    else:
        beta = (p_click - multiphoton(mu)) / p_click
        tau, in_range = tau_individual(qber, beta, memory)
        out["beta"], out["tau_in_range"] = beta, in_range
        near_tau = beta > 0.0 and tau < 1e-12
    out["tau"] = tau
    if tau == 0.0:
        flags.add("insecure")
    f = f_fixed if f_fixed is not None else f_table(qber)
    out["h"] = entropy(qber)
    ambiguous = near_tau or abs(sat - 1.0) < 1e-9
    if f_fixed is None:
        ambiguous = ambiguous or abs(qber - CASCADE_TABLE[-1][0]) < 1e-12
    if f is None:
        flags.update(("above_ec_range", "insecure"))
        out["ambiguous"] = ambiguous
        return out
    out["f"] = f
    margin = tau - f * out["h"]
    secure = max(0.0, clock * p_click * margin)
    if secure == 0.0:
        flags.add("insecure")
    if sat >= 1.0:
        flags.add("deadtime_limited")
    out["ambiguous"] = ambiguous or (tau > 0.0 and abs(margin) < 1e-9)
    out["secure"] = secure
    out["secure_dt"] = secure * out["deadtime_factor"]
    return out


def hybrid_rate_grid(
    mus: np.ndarray, *, eta, dark, loss_db, dead_time, alpha, length, clock, b, n,
    memory: bool, f_fixed: float | None, n_det: int = 2,
) -> np.ndarray:
    """Dead-time-corrected hybrid-attack rate over an array of mean photon numbers.

    The same formulas as :func:`rate_point`, in numpy, for dense grid scans.
    """
    raw_signal = mus * eta * 10.0 ** (-(alpha * length + loss_db) / 10.0)
    p_dark = n_det * dark
    p_signal = np.minimum(raw_signal, 1.0)
    p_click = np.minimum(raw_signal + p_dark, 1.0)
    e = (0.5 * p_dark + b * raw_signal) / (raw_signal + p_dark)
    gamma = 1.0 - 2.0 * mus + 2.0 * p_signal if memory else 1.0 - mus / n + p_signal / n
    tau = np.maximum(0.0, np.maximum(0.0, gamma) - e / (n * (1.0 - 1.0 / (2.0 * n))))
    if f_fixed is None:
        es, fs = zip(*CASCADE_TABLE)
        f = np.interp(e, es, fs)
        valid = e <= es[-1]
    else:
        f = np.full_like(e, f_fixed)
        valid = np.ones_like(e, dtype=bool)
    ec = np.clip(e, 1e-300, 1.0 - 1e-16)
    h = -ec * np.log2(ec) - (1.0 - ec) * np.log2(1.0 - ec)
    rate = np.where(valid, np.maximum(0.0, clock * p_click * (tau - f * h)), 0.0)
    return rate * np.exp(-clock * p_click * dead_time / n_det)


def nep_grid(pumps: np.ndarray, a1: float, a2: float, b: tuple[float, ...]) -> np.ndarray:
    """Noise-equivalent power ``sqrt(2 D) / eta`` over a pump grid; inf where eta = 0."""
    eta = a1 * np.sin(np.sqrt(a2 * pumps)) ** 2
    dark = sum(bk * pumps**k for k, bk in enumerate(b))
    with np.errstate(divide="ignore"):
        return np.where(eta > 0.0, np.sqrt(2.0 * dark) / eta, np.inf)


def mc_expectation(p_signal: float, p_dark: float, e_signal: float) -> tuple[float, float]:
    """Exact (P(click), QBER) of the per-window Bernoulli sampler.

    A window clicks if a signal or a dark click fires; it carries the signal's
    bit (error probability ``e_signal``) when the signal fired, otherwise a
    random bit.
    """
    p_click = 1.0 - (1.0 - p_signal) * (1.0 - p_dark)
    p_error = e_signal * p_signal + 0.5 * (1.0 - p_signal) * p_dark
    return p_click, p_error / p_click


def ir_signal_error(b: float, ir_fraction: float, bob_choices, eve_m: int) -> float:
    """Signal error probability under intercept-resend with mismatched delays."""
    per_choice = [0.5 * (1.0 - 1.0 / (2.0 * n)) if n != eve_m else b for n in bob_choices]
    return (1.0 - ir_fraction) * b + ir_fraction * sum(per_choice) / len(per_choice)


def _log_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + (k * math.log(p) if k else 0.0)
        + ((n - k) * math.log1p(-p) if n - k else 0.0)
    )


def binomial_tail(k: int, n: int, p: float) -> float:
    """Exact probability of a count at least as far from ``n p`` as ``k``, on k's side."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    # pmf terms shrink monotonically away from the mean, so sum until negligible
    step = 1 if k >= n * p else -1
    total, j, log_k = 0.0, k, _log_pmf(k, n, p)
    while 0 <= j <= n:
        term = math.exp(_log_pmf(j, n, p) - log_k)
        total += term
        if term < 1e-17 * total:
            break
        j += step
    return min(1.0, math.exp(log_k) * total)


def within_five_sigma(k: int, n: int, p: float) -> bool:
    """True when ``k`` of ``n`` is no more extreme than |z| = 5 under Binomial(n, p).

    Exact tails replace the normal approximation, which is wrong for the few
    clicks of long links.
    """
    return 2.0 * binomial_tail(k, n, p) >= FIVE_SIGMA_TWO_SIDED


def z_score(k: int, n: int, p: float) -> float:
    """Normal-approximation z of ``k`` successes in ``n`` (reported, not gated)."""
    se = math.sqrt(n * p * (1.0 - p))
    return (k - n * p) / se if se > 0.0 else 0.0
