"""Seeded pulse-level stochastic checks of the analytic link formulas.

This is a semiclassical per-window Bernoulli sampler, not a photonic state
simulation: every measurement window independently draws a signal uniform
and a dark uniform, and only the windows that clicked go on to draw an
error uniform and, under intercept-resend, the attack and Bob-delay
variates.  Its sole purpose is validating the probability composition of
the analytic model (click probability, QBER and the intercept-resend error
floor).

Randomness comes from numpy's Philox 4x64 counter-based generator.  Windows
are processed in fixed chunks of 2**20 and chunk ``j`` uses the substream
``SeedSequence(entropy=seed, spawn_key=(j,))``, so results are reproducible
across platforms and independent of how chunks would be scheduled across
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import link, security
from .errors import ModelDomainError
from .link import LinkScenario

CHUNK_WINDOWS = 1 << 20


def _is_whole(x, lo: int, hi: float = math.inf) -> bool:
    """``x`` is a whole number in [lo, hi); NaN and inf fail before ``int``."""
    return lo <= x < hi and int(x) == x


@dataclass(frozen=True)
class McConfig:
    """One simulation request.

    Args:
        scenario: Link operating point to sample.
        n_pulses: Number of measurement windows.
        seed: 64-bit stream seed; identical (config, seed) pairs give
            byte-identical results.
        ir_fraction: Fraction of windows attacked by intercept-resend in
            attack-validation mode.
        eve_delay_m: Eve's fixed interferometer delay M (clock periods).
        bob_delay_choices: Delay values Bob draws from uniformly, one per
            window.  ``None`` uses the scenario's delay alone.
    """

    scenario: LinkScenario
    n_pulses: int
    seed: int
    ir_fraction: float = 0.0
    eve_delay_m: int = 1
    bob_delay_choices: tuple[int, ...] | None = None

    def __post_init__(self):
        if not _is_whole(self.n_pulses, 1):
            raise ModelDomainError(f"n_pulses must be an integer >= 1, got {self.n_pulses}")
        if not _is_whole(self.seed, 0, 2**64):
            raise ModelDomainError(f"seed must be an integer in [0, 2**64), got {self.seed}")
        if not 0.0 <= self.ir_fraction <= 1.0:
            raise ModelDomainError(f"ir_fraction must be in [0, 1], got {self.ir_fraction}")
        if not _is_whole(self.eve_delay_m, 1):
            raise ModelDomainError(f"eve_delay_m must be an integer >= 1, got {self.eve_delay_m}")
        if self.bob_delay_choices is not None:
            if not self.bob_delay_choices:
                raise ModelDomainError("bob_delay_choices must not be empty")
            if not all(_is_whole(n, 1) for n in self.bob_delay_choices):
                raise ModelDomainError("bob_delay_choices must be integers >= 1")

    @property
    def delay_choices(self) -> tuple[int, ...]:
        if self.bob_delay_choices is not None:
            return tuple(int(n) for n in self.bob_delay_choices)
        return (int(self.scenario.delay_n),)


@dataclass(frozen=True)
class McResult:
    """Counts and binomial estimates from one simulation."""

    n_windows: int
    clicks: int
    errors: int
    p_click_hat: float
    p_click_se: float
    qber_hat: float
    qber_se: float

    @classmethod
    def from_counts(cls, n_windows: int, clicks: int, errors: int) -> "McResult":
        if errors > clicks:
            raise ModelDomainError("errors cannot exceed clicks")
        p_hat = clicks / n_windows
        p_se = math.sqrt(p_hat * (1.0 - p_hat) / n_windows)
        if clicks > 0:
            q_hat = errors / clicks
            q_se = math.sqrt(q_hat * (1.0 - q_hat) / clicks)
        else:
            q_hat = math.nan
            q_se = math.nan
        return cls(n_windows, clicks, errors, p_hat, p_se, q_hat, q_se)


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=(index,)))
    )


def _chunks(n: int):
    full, rem = divmod(n, CHUNK_WINDOWS)
    for j in range(full):
        yield j, CHUNK_WINDOWS
    if rem:
        yield full, rem


def _attacked_error(cfg: McConfig) -> list[float]:
    """Error probability of an attacked signal click, per Bob delay choice."""
    b = cfg.scenario.baseline_error
    return [security.ir_error_floor(n) if n != cfg.eve_delay_m else b for n in cfg.delay_choices]


def _sample(cfg: McConfig, intercept: bool) -> McResult:
    """Count clicks and errors chunk by chunk for either sampling mode."""
    stats = link.channel_stats(cfg.scenario)
    b = cfg.scenario.baseline_error
    attacked_error = np.array(_attacked_error(cfg))
    clicks = 0
    errors = 0
    for j, n in _chunks(cfg.n_pulses):
        rng = _chunk_rng(cfg.seed, j)
        sig = rng.random(n) < stats.p_signal
        click = sig | (rng.random(n) < stats.p_dark)
        sig = sig[click]  # from here on, one entry per clicked window
        k = sig.size
        threshold = np.where(sig, b, 0.5)
        u = rng.random(k)  # before the attack draws: ir_fraction = 0 is the plain link
        if intercept:
            attacked = rng.random(k) < cfg.ir_fraction
            bob_idx = rng.integers(0, attacked_error.size, size=k)
            threshold = np.where(sig & attacked, attacked_error[bob_idx], threshold)
        clicks += k
        errors += int(np.count_nonzero(u < threshold))
    return McResult.from_counts(cfg.n_pulses, clicks, errors)


def simulate_link(cfg: McConfig) -> McResult:
    """Sample clicks and errors for the plain (unattacked) link.

    Every window draws a signal click with probability p_signal and a dark
    click with probability p_dark independently; a window with both counts
    as one click carrying the signal's bit value.  Only clicked windows draw
    an error: signal clicks flip with the baseline error rate, dark-only
    clicks with 1/2.  The overlap makes the click probability
    ``1 - (1 - p_signal)(1 - p_dark)``, which :func:`link_expectation` uses,
    not the analytic model's sum ``p_signal + p_dark``.
    """
    return _sample(cfg, intercept=False)


def simulate_intercept_resend(cfg: McConfig) -> McResult:
    """Sample the link with a fraction of windows intercepted and resent.

    Every window draws its signal and dark click as in :func:`simulate_link`.
    Only clicked windows draw the error, the attack and Bob's delay (uniform
    over ``delay_choices``); Eve measures with fixed delay M.  Attacked
    signal clicks with mismatched delay flip with the floor ``(1 - 1/2N)/2``.
    With ``ir_fraction = 0`` this reduces exactly to :func:`simulate_link`.
    """
    return _sample(cfg, intercept=True)


def _window_expectation(stats: link.ChannelStats, e_signal: float) -> tuple[float, float]:
    """Exact (p_click, qber) of the per-window sampler.

    A window clicks unless both the signal and the dark draw miss; it
    carries the signal's bit (error probability ``e_signal``) whenever the
    signal fired, and a random bit on a dark-only click.
    """
    p_click = 1.0 - (1.0 - stats.p_signal) * (1.0 - stats.p_dark)
    if not p_click > 0.0:
        return p_click, math.nan
    p_error = e_signal * stats.p_signal + 0.5 * (1.0 - stats.p_signal) * stats.p_dark
    return p_click, p_error / p_click


def link_expectation(cfg: McConfig) -> tuple[float, float]:
    """Exact (p_click, qber) the plain-link simulation converges to."""
    return _window_expectation(link.channel_stats(cfg.scenario), cfg.scenario.baseline_error)


def intercept_resend_expectation(cfg: McConfig) -> tuple[float, float]:
    """Exact (p_click, qber) for the intercept-resend mode.

    The per-window error probability on signal clicks averages the floor
    over Bob's delay choices that mismatch Eve's, weighted by the attacked
    fraction.
    """
    b = cfg.scenario.baseline_error
    per_choice = _attacked_error(cfg)
    e_sig = (1.0 - cfg.ir_fraction) * b + cfg.ir_fraction * sum(per_choice) / len(per_choice)
    return _window_expectation(link.channel_stats(cfg.scenario), e_sig)
