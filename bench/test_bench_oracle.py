"""The benchmark's oracle against values derived by hand.

Run with ``python -m pytest bench/test_bench_oracle.py``.
"""

import math

import numpy as np
import pytest

import oracle

PPLN_B = (50.0, 826.4, 110.3, -0.403, 0.00065)
FIG3_SI = dict(mu=0.2, eta=0.35, dark=3.5e-8, loss_db=2.1, dead_time=45e-9, alpha=0.21,
               clock=1e9, b=0.01)


@pytest.mark.parametrize("e, f", [(0.001, 1.16), (0.01, 1.16), (0.05, 1.16), (0.1, 1.22),
                                  (0.125, 1.285), (0.15, 1.35)])
def test_cascade_table_breakpoints(e, f):
    assert oracle.f_table(e) == pytest.approx(f, rel=1e-15)


def test_cascade_table_has_no_overhead_above_its_range():
    assert oracle.f_table(0.1500001) is None


def test_ppln_dark_rate_fit():
    assert oracle.up_dark_rate(PPLN_B, 0.0) == 50.0
    assert oracle.up_dark_rate(PPLN_B, 10.0) == pytest.approx(18947.5, rel=1e-12)


def test_per_mode_dark_probability():
    assert oracle.dark_per_mode(6.4e3, 50e9) == pytest.approx(1.28e-7, rel=1e-15)


def test_up_efficiency_peaks_at_a1_on_the_first_fringe():
    a2 = 79.75
    assert oracle.up_efficiency(0.465, a2, (math.pi / 2) ** 2 / a2) == pytest.approx(0.465)
    assert oracle.up_efficiency(0.465, a2, 0.0) == 0.0


@pytest.mark.parametrize("attack, factor", [("hybrid_nomem", 1.0 - 0.2 / 100),
                                            ("hybrid_mem", 1.0 - 2 * 0.2)])
def test_small_p_hybrid_asymptote(attack, factor):
    # No dark counts and no baseline error: e = 0, so the rate is nu p_s gamma.
    params = dict(FIG3_SI, dark=0.0, b=0.0, dead_time=0.0)
    point = oracle.rate_point(length=200.0, n=100, attack=attack, f_fixed=None, **params)
    assert 1e-7 < point["p_signal"] < 1e-5
    asymptote = 1e9 * factor * point["p_signal"]
    assert point["secure"] == pytest.approx(asymptote, rel=1e-5)


def test_mc_expectation_when_every_window_has_a_signal_click():
    assert oracle.mc_expectation(1.0, 0.0, 0.03) == (1.0, 0.03)
    assert oracle.mc_expectation(1.0, 0.2, 0.03) == (1.0, 0.03)


def test_mc_expectation_counts_overlap_once():
    p_click, qber = oracle.mc_expectation(0.1, 0.1, 0.0)
    assert p_click == pytest.approx(0.19)
    assert qber == pytest.approx(0.5 * 0.9 * 0.1 / 0.19)


def test_intercept_resend_signal_error():
    # Bob's delay 1 mismatches Eve's M = 2 (floor 1/4); delay 2 matches (b).
    assert oracle.ir_signal_error(0.01, 1.0, (1, 2), 2) == pytest.approx(0.13)
    assert oracle.ir_signal_error(0.01, 0.5, (1, 2), 2) == pytest.approx(0.07)


def test_entropy():
    assert oracle.entropy(0.5) == 1.0
    assert oracle.entropy(0.0) == 0.0
    assert oracle.entropy(0.11) == pytest.approx(0.4999159, rel=1e-6)


def test_collision_bound_at_zero_error():
    # arg = 1/2, so tau = scale: beta with memory, (1 + beta)/2 without.
    assert oracle.tau_individual(0.0, 0.6, True) == (pytest.approx(0.6), True)
    assert oracle.tau_individual(0.0, 0.6, False) == (pytest.approx(0.8), True)


def test_collision_bound_past_its_turning_point_is_out_of_range():
    assert oracle.tau_individual(0.2, 0.3, True) == (0.0, False)  # x = 2/3
    assert oracle.tau_individual(0.4, 0.3, False) == (0.0, False)  # y = 0.31


def test_hybrid_grid_matches_scalar_oracle():
    mus = np.array([0.01, 0.05, 0.2, 0.5, 0.9])
    for attack, memory in (("hybrid_nomem", False), ("hybrid_mem", True)):
        for f_fixed in (None, 1.16):
            grid = oracle.hybrid_rate_grid(mus, length=120.0, n=10, memory=memory,
                                           f_fixed=f_fixed,
                                           **{k: v for k, v in FIG3_SI.items() if k != "mu"})
            for mu, value in zip(mus, grid):
                params = dict(FIG3_SI, mu=float(mu))
                point = oracle.rate_point(length=120.0, n=10, attack=attack,
                                          f_fixed=f_fixed, **params)
                assert value == pytest.approx(point["secure_dt"], rel=1e-12, abs=1e-300)


def test_nep_grid_is_infinite_where_efficiency_vanishes():
    values = oracle.nep_grid(np.array([0.0, 0.03]), 0.465, 79.75, PPLN_B)
    assert values[0] == math.inf
    assert values[1] == pytest.approx(
        math.sqrt(2 * oracle.up_dark_rate(PPLN_B, 0.03)) / oracle.up_efficiency(0.465, 79.75, 0.03))


def test_binomial_tail_exact_values():
    assert oracle.binomial_tail(3, 3, 0.5) == pytest.approx(1 / 8)
    assert oracle.binomial_tail(0, 3, 0.5) == pytest.approx(1 / 8)
    assert oracle.binomial_tail(2, 3, 0.5) == pytest.approx(1 / 2)


def test_five_sigma_gate():
    n, p = 1_000_000, 0.01
    sd = math.sqrt(n * p * (1 - p))
    assert oracle.within_five_sigma(int(n * p + 4.5 * sd), n, p)
    assert not oracle.within_five_sigma(int(n * p + 5.5 * sd), n, p)
    assert not oracle.within_five_sigma(int(n * p - 5.5 * sd), n, p)
    # Few clicks: 3 errors in 11 at q = 0.02 has a tail of 1e-3, though its normal z is 6.
    assert oracle.z_score(3, 11, 0.02) > 5.0
    assert oracle.within_five_sigma(3, 11, 0.02)
