"""Seeded pulse-level stochastic checks of the analytic link formulas.

This is a semiclassical per-window Bernoulli sampler, not a photonic state
simulation: every measurement window independently draws a signal uniform
and a dark uniform, and only the windows that clicked go on to draw an
error uniform and, when a fraction of windows is attacked, the attack and
Bob-delay variates.  Its sole purpose is validating the probability
composition of the analytic model (click probability, QBER and the
intercept-resend error floor).  There is one sampling path and one
expectation: the plain-link mode is intercept-resend at ``ir_fraction = 0``.

Randomness comes from numpy's Philox 4x64 counter-based generator.  Windows
are processed in fixed chunks of 2**20 and chunk ``j`` uses the substream
``SeedSequence(entropy=seed, spawn_key=(j,))``.  Within its substream a chunk
of ``n`` windows reads the signal uniforms from draw 0 and the dark uniforms
from draw ``n``; it streams its windows in blocks of 2**14 and keeps only the
signal bit of each clicked window.  Once the window loop has counted the
``k`` clicks, the per-click draws follow in stream order: the error uniforms
from draw ``2n``, then in intercept-resend mode the attack uniforms from draw
``2n + k`` and Bob's delay indices from draw ``2n + 2k``.  The error uniforms
continue on the cursor that read the dark words, and the other two each get
a cursor positioned at their first draw, so every cursor reads in stream
order, in pieces of at most 2**14 clicks.  Pieces of bounded draws give the
values of one call only on a cursor that draws nothing else, because Philox
keeps the spare 32-bit half of a bounded draw in its state; so Bob's indices
never share a cursor with double draws.  A window's uniform is numpy's
double ``(x >> 11) * 2**-53`` of a raw 64-bit word ``x``; the window loop
compares ``x`` itself with an integer limit that gives the same verdict as
the double against its probability, so the streams and the results are
those of ``Generator.random()`` compares.  A chunk counts its
errors per click class, each class against its own error probability
(dark-only clicks against 1/2, attacked signal clicks against the floor of
Bob's delay, the other signal clicks against b), so besides one byte per
click it holds only one 2**14 step's arrays, whatever its click
probability.  Chunks run on up to ``w`` workers, one per usable CPU, worker
``i`` taking chunks ``i, i + w, i + 2w, ...``: the calling thread is worker 0
and a pool of ``w - 1`` threads runs the others (numpy's random fills and
ufuncs release the GIL), so a one-worker run starts no thread.  The workers'
integer counts are summed, so results are reproducible across platforms and
do not depend on the CPU count.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import link, security
from .errors import ModelDomainError
from .link import LinkScenario

CHUNK_WINDOWS = 1 << 20
# Windows per block of the window loop, and most clicks per piece of the per-click
# stage: a block's raw words take 128 KB, so one step's arrays stay in a core's cache
# and bound a worker's working set, besides one byte per click.
_BLOCK_WINDOWS = 1 << 14


def _is_whole(x, lo: int, hi: float = math.inf) -> bool:
    """``x`` is a whole number in [lo, hi]; NaN and inf fail before ``int``."""
    return lo <= x <= hi and x < math.inf and int(x) == x


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
        if not _is_whole(self.seed, 0, 2**64 - 1):
            raise ModelDomainError(f"seed must be an integer in [0, 2**64), got {self.seed}")
        if not 0.0 <= self.ir_fraction <= 1.0:
            raise ModelDomainError(f"ir_fraction must be in [0, 1], got {self.ir_fraction}")
        if not _is_whole(self.eve_delay_m, 1):
            raise ModelDomainError(f"eve_delay_m must be an integer >= 1, got {self.eve_delay_m}")
        if self.bob_delay_choices is not None:
            if not self.bob_delay_choices:
                raise ModelDomainError("bob_delay_choices must not be empty")
            # a delay above the largest float would overflow in security.ir_error_floor
            if not all(_is_whole(n, 1, sys.float_info.max) for n in self.bob_delay_choices):
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


def _chunk_rng(seed: int, index: int, skip: int = 0) -> np.random.Generator:
    """Chunk ``index``'s substream, ``skip`` doubles in."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=(index,)))
    )
    # one Philox counter step yields four 64-bit draws, and a double takes one
    rng.bit_generator.advance(skip // 4)
    rng.random(skip % 4)
    return rng


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


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _word_limit(p: float) -> np.uint64 | None:
    """Limit on a raw Philox word ``x``: ``x < limit`` exactly when ``x``'s double is ``< p``.

    numpy turns ``x`` into the double ``(x >> 11) * 2**-53``, which is below
    ``p`` exactly when ``x >> 11 < ceil(p * 2**53)``; ``p * 2**53`` is exact.
    ``None`` means every word is below ``p``, where the limit ``2**64`` would
    not fit in a uint64.
    """
    steps = math.ceil(p * 2.0**53)
    return None if steps >= 1 << 53 else np.uint64(steps << 11)


def _below(bits: np.random.BitGenerator, m: int, limit: np.uint64 | None, out) -> None:
    """Draw ``m`` raw words from ``bits``; ``out[i]`` is whether word ``i`` is below ``limit``."""
    words = bits.random_raw(m)
    if limit is None:
        out.fill(True)
    else:
        np.less(words, limit, out=out)


def _chunk_counts(cfg: McConfig, stats: link.ChannelStats, j: int, n: int) -> tuple[int, int]:
    """(clicks, errors) of chunk ``j``, which holds ``n`` windows.

    Errors are counted per click class, each class against its own error
    probability: dark-only clicks against 1/2, attacked signal clicks against
    the floor of Bob's delay, and the other signal clicks against b.
    """
    signal = _chunk_rng(cfg.seed, j).bit_generator  # the signal words
    tail = _chunk_rng(cfg.seed, j, skip=n)  # the dark words, then the error uniforms
    sig_limit = _word_limit(stats.p_signal)
    dark_limit = _word_limit(stats.p_dark)
    block = min(n, _BLOCK_WINDOWS)
    sig = np.empty(block, dtype=bool)
    click = np.empty(block, dtype=bool)
    kept = []  # the signal bit of each clicked window
    for start in range(0, n, block):
        m = min(block, n - start)
        _below(signal, m, sig_limit, sig[:m])
        _below(tail.bit_generator, m, dark_limit, click[:m])
        np.logical_or(sig[:m], click[:m], out=click[:m])
        kept.append(sig[:m][click[:m]])
    del sig, click  # free the block arrays before the per-click stage
    sig = np.concatenate(kept)  # from here on, one entry per clicked window
    del kept
    k = sig.size
    b = cfg.scenario.baseline_error
    intercept = cfg.ir_fraction > 0.0  # at fraction 0 the attack draws are skipped: no count moves
    if intercept:
        floors = np.array(_attacked_error(cfg))
        attack = _chunk_rng(cfg.seed, j, skip=2 * n + k)
        bob = _chunk_rng(cfg.seed, j, skip=2 * n + 2 * k)
    errors = 0
    for start in range(0, k, _BLOCK_WINDOWS):
        piece = sig[start:start + _BLOCK_WINDOWS]
        u = tail.random(piece.size)
        errors += np.count_nonzero(~piece & (u < 0.5))
        if intercept:
            attacked = attack.random(piece.size) < cfg.ir_fraction
            attacked &= piece
            bob_floor = floors[bob.integers(0, floors.size, size=piece.size)]
            errors += np.count_nonzero(attacked & (u < bob_floor))
            piece &= ~attacked
        errors += np.count_nonzero(piece & (u < b))
    return k, int(errors)


def _sample(cfg: McConfig) -> McResult:
    """Count clicks and errors chunk by chunk."""
    stats = link.channel_stats(cfg.scenario)
    n_pulses = int(cfg.n_pulses)  # McConfig also takes whole floats and numpy integers
    workers = min(-(-n_pulses // CHUNK_WINDOWS), _usable_cpus())

    def stride(first: int) -> tuple[int, int]:
        # chunks first, first + workers, ...: all chunks but the last are equal,
        # and a worker holds one chunk at a time however many there are
        clicks = 0
        errors = 0
        for j, n in islice(_chunks(n_pulses), first, None, workers):
            k, e = _chunk_counts(cfg, stats, j, n)
            clicks += k
            errors += e
        return clicks, errors

    from concurrent.futures import ThreadPoolExecutor

    # the pool starts a thread only when a stride is submitted to it
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        others = pool.map(stride, range(1, workers))
        totals = [stride(0), *others]
    return McResult.from_counts(n_pulses, sum(k for k, _ in totals), sum(e for _, e in totals))


def simulate_link(cfg: McConfig) -> McResult:
    """Sample clicks and errors for the plain (unattacked) link.

    This is :func:`simulate_intercept_resend` at ``ir_fraction = 0``; it
    ignores ``cfg.ir_fraction``.  Every window draws a signal click with
    probability p_signal and a dark click with probability p_dark
    independently; a window with both counts as one click carrying the
    signal's bit value.  Only clicked windows draw an error: signal clicks
    flip with the baseline error rate, dark-only clicks with 1/2.  The
    overlap makes the click probability
    ``1 - (1 - p_signal)(1 - p_dark)``, which :func:`link_expectation` uses,
    not the analytic model's sum ``p_signal + p_dark``.
    """
    return _sample(replace(cfg, ir_fraction=0.0))


def simulate_intercept_resend(cfg: McConfig) -> McResult:
    """Sample the link with a fraction of windows intercepted and resent.

    Every window draws its signal and dark click as in :func:`simulate_link`.
    Only clicked windows draw the error, then, when ``ir_fraction > 0``, the
    attack and Bob's delay (uniform over ``delay_choices``); Eve measures
    with fixed delay M.  Attacked signal clicks with mismatched delay flip
    with the floor ``(1 - 1/2N)/2``.  At ``ir_fraction = 0`` no window is
    attacked and this is the plain link of :func:`simulate_link`.
    """
    return _sample(cfg)


def link_expectation(cfg: McConfig) -> tuple[float, float]:
    """Exact (p_click, qber) the plain-link simulation converges to.

    This is :func:`intercept_resend_expectation` at ``ir_fraction = 0``,
    where the signal-click error probability is the baseline error exactly.
    """
    return intercept_resend_expectation(replace(cfg, ir_fraction=0.0))


def intercept_resend_expectation(cfg: McConfig) -> tuple[float, float]:
    """Exact (p_click, qber) of the per-window sampler.

    A window clicks unless both the signal and the dark draw miss; it
    carries the signal's bit whenever the signal fired, and a random bit on
    a dark-only click.  A signal click's error probability averages the
    floor over Bob's delay choices that mismatch Eve's, weighted by the
    attacked fraction.
    """
    stats = link.channel_stats(cfg.scenario)
    b = cfg.scenario.baseline_error
    per_choice = _attacked_error(cfg)
    e_sig = (1.0 - cfg.ir_fraction) * b + cfg.ir_fraction * sum(per_choice) / len(per_choice)
    p_click = 1.0 - (1.0 - stats.p_signal) * (1.0 - stats.p_dark)
    if not p_click > 0.0:
        return p_click, math.nan
    p_error = e_sig * stats.p_signal + 0.5 * (1.0 - stats.p_signal) * stats.p_dark
    return p_click, p_error / p_click
