"""The chain at its extremes against a high-precision mpmath oracle.

``1 - (1 + mu) e^-mu`` cancels as mu -> 0, and ``log2(1 - e)`` drops the low
bits of a small e.  The oracle evaluates both textbook forms with enough
digits that neither cancellation matters.  It also evaluates the link where
``10^-(alpha L/10)`` underflows or ``p_click`` is clamped, and the shrinking
factors, at 50 digits.
"""

import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dpsrk import rate, security
from dpsrk.detector import DetectorSpec
from dpsrk.link import LinkScenario, channel_stats
from dpsrk.rate import binary_entropy
from dpsrk.security import poisson_multiphoton

from conftest import SI, si_scenario


def oracle_multiphoton(mu: float) -> float:
    # the textbook form cancels about 2 |log10 mu| digits, so carry that many more
    with mpmath.workdps(50 + 2 * max(0, -math.floor(math.log10(mu)))):
        m = mpmath.mpf(mu)
        return float(1 - (1 + m) * mpmath.exp(-m))


def oracle_entropy(e: float) -> float:
    # 1 - e keeps e's digits with |log10 e| more
    with mpmath.workdps(50 + max(0, -math.floor(math.log10(e)))):
        x = mpmath.mpf(e)
        return float(-x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2))


def close(got: float, want: float) -> bool:
    """Within 1e-13 relative, or 4 ulps where ``want`` is subnormal or 0."""
    return abs(got - want) <= max(1e-13 * want, 4 * math.ulp(want))


# The cancellation the naive forms suffer grows from about 3e-15 relative at
# mu = 1e-2 to 2.4e-8 at 1e-8, and for H(e) from 2e-12 at e = 1e-6 to 2.4e-5
# at e = 1e-14.
@pytest.mark.parametrize(
    "mu", [1.0, 0.77, 0.2, 0.05, 0.01, 0.0099999, 1e-3, 1e-4, 1e-8, 1e-12, 1e-150, 1e-300]
)
def test_multiphoton_against_oracle(mu):
    assert close(poisson_multiphoton(mu), oracle_multiphoton(mu))


@pytest.mark.parametrize(
    "e", [0.5, 0.25, 0.01, 1e-3, 0.00099999, 1e-6, 1e-10, 1e-14, 1e-300, 5e-324]
)
def test_entropy_against_oracle(e):
    assert close(binary_entropy(e), oracle_entropy(e))


@pytest.mark.parametrize(
    "exp, expm1, log2, log1p, where",
    [(math.exp, math.expm1, math.log2, math.log1p, None),
     (np.exp, np.expm1, np.log2, np.log1p, np.where)],
    ids=["float", "array"],
)
def test_forms_switch_below_their_cutoffs(exp, expm1, log2, log1p, where):
    # at and above the cutoffs the textbook forms keep their bits, so no
    # preset point (b = 0.01, mu >= 0.05) moves
    def values(x):
        return x if where is None else np.array([x])

    mu, e = values(0.01), values(1e-3)
    assert security._multiphoton(mu, exp, expm1, where) == -expm1(-mu) - mu * exp(-mu)
    assert rate._entropy(e, log2, log1p, where) == -e * log2(e) - (1.0 - e) * log2(1.0 - e)
    mu, e = values(math.nextafter(0.01, 0.0)), values(math.nextafter(1e-3, 0.0))
    assert security._multiphoton(mu, exp, expm1, where) == security._poisson_tail(mu, exp)
    assert rate._entropy(e, log2, log1p, where) == (
        -e * log2(e) - (1.0 - e) * log1p(-e) / math.log(2.0)
    )
    # the collision bound keeps its textbook argument up to 0.9 of its turning
    # point, where no preset point lies, and takes log1p past it
    x, y = values(0.45), values(0.225)
    assert security._collision_log2(x, 0.5, log2, log1p, where) == (
        log2(0.5 + 2.0 * x - 2.0 * x * x)
    )
    assert security._collision_log2(y, 0.25, log2, log1p, where) == (
        log2(0.5 + 4.0 * y - 8.0 * y * y)
    )
    x, y = values(math.nextafter(0.45, 1.0)), values(math.nextafter(0.225, 1.0))
    assert security._collision_log2(x, 0.5, log2, log1p, where) == (
        log1p(-2.0 * (x - 0.5) ** 2) / math.log(2.0)
    )
    assert security._collision_log2(y, 0.25, log2, log1p, where) == (
        log1p(-8.0 * (y - 0.25) ** 2) / math.log(2.0)
    )


log_uniform = st.floats(-300.0, 0.0).map(lambda x: 10.0**x)


@settings(max_examples=100, deadline=None)
@given(mu=log_uniform)
def test_multiphoton_against_oracle_log_uniform(mu):
    assert close(poisson_multiphoton(mu), oracle_multiphoton(mu))


@settings(max_examples=100, deadline=None)
@given(e=log_uniform.map(lambda x: 0.5 * x))
def test_entropy_against_oracle_log_uniform(e):
    assert close(binary_entropy(e), oracle_entropy(e))


def test_array_forms_against_oracle():
    # rate._grid_rates passes numpy's functions, and each lane takes its own form
    xs = [1e-12, 1e-6, 0.00099999, 1e-3, 0.0099999, 0.01, 0.2, 0.5]
    p_m = security._multiphoton(np.array(xs), np.exp, np.expm1, np.where)
    h = rate._entropy(np.array(xs), np.log2, np.log1p, np.where)
    for x, got_p_m, got_h in zip(xs, p_m, h):
        assert close(got_p_m, oracle_multiphoton(x))
        assert close(got_h, oracle_entropy(x))


# --- the link and the shrinking factors at their extremes --------------------


def oracle_link(s: LinkScenario) -> tuple[float, float, float]:
    """``channel_stats``' p_signal, unclamped p_click and QBER, at 50 digits."""
    with mpmath.workdps(50):
        m, d = mpmath.mpf, s.detector
        loss_db = m(s.alpha_db_per_km) * m(s.length_km) + m(d.receiver_loss_db)
        raw_signal = m(s.mu) * m(d.efficiency) * mpmath.power(10, -loss_db / 10)
        dark = 2 * m(d.dark_per_window)
        raw_click = raw_signal + dark
        errors = dark / 2 + m(s.baseline_error) * raw_signal
        qber = errors / raw_click if raw_click > 0 else mpmath.nan
        return float(min(raw_signal, 1)), float(raw_click), float(qber)


# 10^-(alpha L + L_r)/10 is below the least normal float from about 14,650 km
# of 0.21 dB/km fiber, and below the least subnormal from about 15,400 km.
@pytest.mark.parametrize("dark", [0.0, 3.5e-8], ids=["no-dark", "dark"])
@pytest.mark.parametrize("length", [14700.0, 14900.0, 15100.0, 15300.0, 15500.0])
def test_underflowing_signal_against_oracle(length, dark):
    s = si_scenario(length, detector=replace(SI, dark_per_window=dark))
    stats = channel_stats(s)
    p_signal, _, qber = oracle_link(s)
    assert p_signal < sys.float_info.min
    assert close(stats.p_signal, p_signal)
    if dark > 0.0:
        assert stats.qber == qber == 0.5  # the dark counts' errors swamp the signal's
    elif p_signal > 0.0:
        assert stats.qber == qber == s.baseline_error
    else:
        # the exact QBER is still b, but no float click is left to define one
        assert qber == s.baseline_error
        assert stats.p_click == 0.0 and math.isnan(stats.qber)


def test_underflow_examples_reach_zero_and_subnormal():
    signals = [oracle_link(si_scenario(length))[0] for length in (14700.0, 15500.0)]
    assert 0.0 < signals[0] < sys.float_info.min and signals[1] == 0.0


def toy_scenario(mu, efficiency, dark, b):
    """No loss at all, so p_signal = mu eta and p_click = mu eta + 2 d."""
    detector = DetectorSpec(
        name="toy", efficiency=efficiency, dark_per_window=dark, dead_time=0.0,
        receiver_loss_db=0.0,
    )
    return LinkScenario(mu, 0.2, 0.0, 1e9, b, detector, 1)


# Each sum p_signal + p_dark is above 1; the first is one rounding above it.
@pytest.mark.parametrize(
    "mu, efficiency, dark, b",
    [(1.0, math.nextafter(1.0, 0.0), 2.0**-52, 0.01), (0.9, 1.0, 0.1, 0.01),
     (2.0, 0.6, 0.2, 0.03), (5.0, 1.0, 0.2, 0.0), (1.0, 0.99, 0.25, 0.2)],
)
def test_clamped_click_against_oracle(mu, efficiency, dark, b):
    s = toy_scenario(mu, efficiency, dark, b)
    stats = channel_stats(s)
    p_signal, raw_click, qber = oracle_link(s)
    assert stats.clamped and stats.p_click == 1.0 < raw_click
    assert stats.p_signal == p_signal
    # the QBER weighs the unclamped terms, not the clamped p_signal and p_click
    assert close(stats.qber, qber)
    if raw_click > 1.01:
        assert not close(stats.qber, 0.5 * stats.p_dark + b * stats.p_signal)


def close_at_unit_scale(got: float, want: float) -> bool:
    """Within 1e-13 relative, or 4 ulps of 1 absolute.

    The shrinking factors subtract terms of order 1, so where they cancel to
    near 0 the result keeps the terms' rounding, a few ulps of 1.
    """
    return abs(got - want) <= max(1e-13 * want, 4 * math.ulp(1.0))


def oracle_surviving_fraction(mu, p_signal, n, memory):
    with mpmath.workdps(50):
        m = mpmath.mpf
        gamma = 1 - 2 * m(mu) + 2 * m(p_signal) if memory else 1 - (m(mu) - m(p_signal)) / n
        return float(max(gamma, 0))


def oracle_shrink_hybrid(e, gamma, n):
    with mpmath.workdps(50):
        tau = mpmath.mpf(gamma) - mpmath.mpf(e) / (n * (1 - mpmath.mpf(1) / (2 * n)))
        return float(max(tau, 0))


def oracle_collision_tau(ratio, beta, memory):
    """The collision bound's tau at ``ratio``, an mpf or a float, below its turning point."""
    with mpmath.workdps(50):
        x, beta = mpmath.mpf(ratio), mpmath.mpf(beta)
        if memory:
            return float(-beta * mpmath.log(mpmath.mpf(0.5) + 2 * x - 2 * x * x, 2))
        return float(-(1 + beta) / 2 * mpmath.log(mpmath.mpf(0.5) + 4 * x - 8 * x * x, 2))


def oracle_shrink_individual(e, beta, memory):
    with mpmath.workdps(50):
        e, beta = mpmath.mpf(e), mpmath.mpf(beta)
        return oracle_collision_tau(e / beta if memory else e / (1 + beta), beta, memory)


@pytest.mark.parametrize(
    "mu, p_signal, n, memory",
    [(1e-8, 1e-20, 1000, False), (0.2, 5e-324, 10**6, False), (1e-300, 0.0, 1, False),
     (0.5, 0.4, 1, True), (0.49, 0.0, 1, True), (1.0, 0.75, 1, True), (0.3, 1e-3, 7, False)],
)
def test_surviving_fraction_against_oracle(mu, p_signal, n, memory):
    want = oracle_surviving_fraction(mu, p_signal, n, memory)
    assert close(security.surviving_fraction(mu, p_signal, n, memory), want)


@pytest.mark.parametrize(
    "e, gamma, n",
    [(1e-300, 1.0, 1), (0.5, 1.0, 1), (0.01, 0.99, 100), (1e-12, 0.9, 10**6),
     (0.11, 0.8, 1), (0.3, 0.95, 3)],
)
def test_shrink_hybrid_against_oracle(e, gamma, n):
    assert close(security.shrink_hybrid(e, gamma, n), oracle_shrink_hybrid(e, gamma, n))


# (e, beta, memory) with e / beta or e / (1 + beta) at most 0.9 of its turning
# point, then nearer it, where the ratio's float is exact (beta a power of 2 with
# memory, beta = 1 without) and log2 of the bound's argument would lose up to
# all of tau's digits
@pytest.mark.parametrize(
    "e, beta, memory",
    [(1e-300, 1.0, True), (1e-14, 0.5, False), (0.01, 0.9, True), (0.01, 1e-3, False),
     (0.2, 0.5, False), (0.2, 0.45, True), (1e-6, 2e-6, True), (0.3, 0.5, False),
     (0.225, 0.5, True), (0.45, 1.0, False),
     (0.2251, 0.5, True), (0.2499, 0.5, True), (0.12499999, 0.25, True),
     (math.nextafter(0.5, 0.0), 1.0, True), (0.4501, 1.0, False), (0.4999, 1.0, False),
     (0.49999999999, 1.0, False), (math.nextafter(0.5, 0.0), 1.0, False)],
)
def test_shrink_individual_against_oracle(e, beta, memory):
    want = oracle_shrink_individual(e, beta, memory)
    assert close(security.shrink_individual(e, beta, memory), want)


@settings(max_examples=100, deadline=None)
@given(mu=log_uniform, share=st.floats(0.0, 1.0), n=st.integers(1, 10**6),
       memory=st.booleans())
def test_surviving_fraction_against_oracle_random(mu, share, n, memory):
    p_signal = min(mu * share, 1.0)
    want = oracle_surviving_fraction(mu, p_signal, n, memory)
    assert close_at_unit_scale(security.surviving_fraction(mu, p_signal, n, memory), want)


@settings(max_examples=100, deadline=None)
@given(e=st.one_of(st.floats(0.0, 0.5), log_uniform.map(lambda x: 0.5 * x)),
       gamma=st.floats(0.0, 1.0), n=st.integers(1, 10**6))
def test_shrink_hybrid_against_oracle_random(e, gamma, n):
    want = oracle_shrink_hybrid(e, gamma, n)
    assert close_at_unit_scale(security.shrink_hybrid(e, gamma, n), want)


@settings(max_examples=100, deadline=None)
@given(share=st.floats(0.0, 1.0, exclude_max=True), beta=st.floats(1e-9, 1.0),
       memory=st.booleans())
def test_shrink_individual_below_its_turning_point(share, beta, memory):
    # e at a share of the way to the turning point e / beta = 1/2 or e / (1 + beta) = 1/4
    e = share * (0.5 * beta if memory else 0.25 * (1.0 + beta))
    ratio, turn, _ = security._collision_bound(e, beta, memory)
    assume(ratio < turn)
    want = oracle_shrink_individual(e, beta, memory)
    assert close_at_unit_scale(security.shrink_individual(e, beta, memory), want)


@settings(max_examples=200, deadline=None)
@given(share=st.floats(0.0, 1.0, exclude_max=True), beta=st.floats(1e-9, 1.0),
       memory=st.booleans())
@example(share=math.nextafter(1.0, 0.0), beta=1.0, memory=True)
@example(share=0.9, beta=0.5, memory=False)
def test_shrink_individual_relative_to_its_rounded_ratio(share, beta, memory):
    # Rounding e / beta or e / (1 + beta) moves tau by about 2 turn / (turn -
    # ratio) times that rounding, which no form of the bound undoes; from the
    # float ratio on, tau keeps 1e-13 relative up to the turning point, in the
    # float and the array form.
    e = share * (0.5 * beta if memory else 0.25 * (1.0 + beta))
    ratio, turn, scale = security._collision_bound(e, beta, memory)
    assume(ratio < turn)
    want = oracle_collision_tau(ratio, beta, memory)
    assert close(security.shrink_individual(e, beta, memory), want)
    log_arg = security._collision_log2(np.array([ratio]), turn, np.log2, np.log1p, np.where)
    assert close(float(-scale * log_arg[0]), want)
