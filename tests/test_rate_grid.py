"""The array pass over optimize_mu's grid against the scalar rate chain."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpsrk import rate
from dpsrk.rate import _grid_rates
from dpsrk._search import golden_min, grid_bracket
from dpsrk.detector import DetectorSpec
from dpsrk.link import LinkScenario
from dpsrk.presets import load_presets
from dpsrk.rate import optimize_mu, secure_rate
from dpsrk.security import AttackModel, poisson_multiphoton

from conftest import HYBRID_MEM, HYBRID_NOMEM, IND_MEM, IND_NOMEM, si_scenario

ATTACKS = (HYBRID_NOMEM, HYBRID_MEM, IND_MEM, IND_NOMEM)


def scenario(eff, dark, loss_db, alpha, length, b, clock, dead_time, delta, delay_n):
    detector = DetectorSpec(
        name="x", efficiency=eff, dark_per_window=dark, dead_time=dead_time,
        receiver_loss_db=loss_db,
    )
    return LinkScenario(
        mu=0.5, alpha_db_per_km=alpha, length_km=length, clock_hz=clock, baseline_error=b,
        detector=detector, delay_n=delay_n, dead_time_delta=delta,
    )


scenarios = st.builds(
    scenario,
    eff=st.floats(0.0, 1.0),
    dark=st.one_of(st.just(0.0), st.floats(1e-300, 1e-10), st.floats(1e-10, 0.2)),
    loss_db=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    alpha=st.floats(0.0, 0.5),
    length=st.one_of(st.just(0.0), st.floats(0.0, 400.0)),
    b=st.one_of(st.just(0.0), st.floats(0.0, 0.49)),
    clock=st.floats(1e6, 1e10),
    dead_time=st.one_of(st.just(0.0), st.floats(0.0, 1e-6)),
    delta=st.one_of(st.none(), st.floats(0.0, 2.0)),
    delay_n=st.integers(1, 1000),
)

# Each example reaches one branch of the scalar chain:
# p_click clamped at 1, QBER above the correction table, beta <= 0, no
# errors at all (H(0) = 0), past the collision bound's turning point, no clicks.
CLAMPED = scenario(1.0, 0.2, 0.0, 0.2, 0.0, 0.01, 1e9, 1e-8, None, 10)
ABOVE_TABLE = scenario(0.3, 1e-4, 2.0, 0.2, 100.0, 0.01, 1e9, 0.0, None, 10)
PNS = scenario(0.35, 3.5e-8, 2.1, 0.21, 100.0, 0.01, 1e9, 45e-9, None, 100)
ERROR_FREE = scenario(0.35, 0.0, 2.1, 0.21, 50.0, 0.0, 1e9, 45e-9, None, 100)
PAST_TURN = scenario(1.0, 2e-3, 3.0, 0.21, 50.0, 0.01, 1e9, 0.0, None, 100)
NO_CLICKS = scenario(0.0, 0.0, 0.0, 0.2, 0.0, 0.01, 1e9, 1e-6, None, 1)
MUS = [1e-6, 1e-3, 0.01, 0.1, 0.3, 0.77, 1.0]


@settings(max_examples=200, deadline=None)
@given(
    s=scenarios,
    attack=st.sampled_from(ATTACKS),
    f_fixed=st.one_of(st.none(), st.floats(1.0, 2.0)),
    mus=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=16),
)
@example(s=CLAMPED, attack=HYBRID_MEM, f_fixed=None, mus=MUS)
@example(s=ABOVE_TABLE, attack=HYBRID_NOMEM, f_fixed=None, mus=MUS)
@example(s=ABOVE_TABLE, attack=HYBRID_NOMEM, f_fixed=1.16, mus=MUS)
@example(s=PNS, attack=IND_MEM, f_fixed=None, mus=MUS)
@example(s=ERROR_FREE, attack=IND_NOMEM, f_fixed=None, mus=MUS)
@example(s=ERROR_FREE, attack=HYBRID_NOMEM, f_fixed=1.16, mus=MUS)
@example(s=PAST_TURN, attack=IND_MEM, f_fixed=1.16, mus=MUS)
@example(s=PAST_TURN, attack=IND_NOMEM, f_fixed=None, mus=MUS)
@example(s=NO_CLICKS, attack=HYBRID_NOMEM, f_fixed=None, mus=MUS)
def test_array_pass_agrees_with_scalar_chain(s, attack, f_fixed, mus):
    rates, sifted = _grid_rates(s, attack, np.array(mus), f_fixed)
    for mu, r, sift in zip(mus, rates, sifted):
        point = secure_rate(replace(s, mu=mu), attack, f_fixed=f_fixed)
        assert sift == point.sifted_rate_hz
        want = point.secure_rate_deadtime_hz
        assert abs(max(0.0, r) - want) <= 1e-12 * max(want, sift)


def test_examples_reach_every_branch():
    def stats(s, attack, f_fixed=None):
        return [secure_rate(replace(s, mu=mu), attack, f_fixed=f_fixed) for mu in MUS]

    assert any(rate.FLAG_CLAMPED in p.flags for p in stats(CLAMPED, HYBRID_MEM))
    assert any(rate.FLAG_ABOVE_EC_RANGE in p.flags for p in stats(ABOVE_TABLE, HYBRID_NOMEM))
    assert any(p.secure_rate_hz > 0.0 for p in stats(ABOVE_TABLE, HYBRID_NOMEM, 1.16))
    assert any(p.tau == 0.0 and p.qber < 0.05 for p in stats(PNS, IND_MEM))
    assert all(p.qber == 0.0 for p in stats(ERROR_FREE, IND_NOMEM))
    # beta > 0 with tau = 0 and e > 0: e / beta is at or past 1/2
    past = zip(MUS, stats(PAST_TURN, IND_MEM))
    assert any(p.tau == 0.0 and p.qber > 0.2 and p.p_click > poisson_multiphoton(mu)
               for mu, p in past)
    assert all(p.p_click == 0.0 for p in stats(NO_CLICKS, HYBRID_NOMEM))


def scalar_optimize_mu(s, a, mu_range, f_fixed=None):
    """optimize_mu as a plain scalar scan of its 513-point grid."""
    lo, hi = mu_range

    def point(mu):
        return secure_rate(replace(s, mu=mu), a, f_fixed=f_fixed)

    def loss(mu):
        return -point(mu).secure_rate_deadtime_hz

    a_mu, b_mu, best = grid_bracket(loss, lo, hi, 512)
    if -best <= 0.0:
        return lo, point(lo)
    mu_star = golden_min(loss, a_mu, b_mu, 1e-5)
    return mu_star, point(mu_star)


def bits(mu, point):
    """Everything optimize_mu returns, with NaN comparing equal to NaN."""
    values = [repr(getattr(point, name)) for name in point._fields if name != "flags"]
    return repr(mu), values, point.flags


@pytest.mark.parametrize("name", sorted(load_presets()))
def test_optimize_mu_is_the_scalar_scan_bit_for_bit(name):
    preset = load_presets()[name]
    for detector in ("si", "ingaas"):
        for attack in (a.value for a in AttackModel):
            for length in (0.0, 50.0, 150.0, 300.0):
                s, a = preset.scenario(
                    detector, preset.n_set[0], attack=attack, length_km=length
                )
                for f_fixed in (None, preset.f):
                    got = optimize_mu(s, a, (0.01, 1.0), f_fixed=f_fixed)
                    want = scalar_optimize_mu(s, a, (0.01, 1.0), f_fixed)
                    assert bits(*got) == bits(*want), (detector, attack, length, f_fixed)


def test_scalar_chain_scores_only_the_bracket(monkeypatch):
    calls = []
    original = rate.secure_rate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rate, "secure_rate", counting)
    mu_star, point = optimize_mu(si_scenario(100.0), HYBRID_NOMEM, (0.01, 1.0))
    assert point.secure and 0.01 < mu_star < 1.0
    # a few re-scored grid points, the golden-section search and the result
    assert len(calls) < 40
    calls.clear()
    optimize_mu(si_scenario(100.0, baseline_error=0.3), HYBRID_NOMEM, (0.01, 1.0))
    assert len(calls) == 1


def test_rate_zero_below_the_clamp():
    # the array pass keeps the rate's sign where secure_rate clamps it at 0
    s = si_scenario(100.0)
    rates, _ = _grid_rates(s, IND_MEM, np.array([0.2]))
    assert secure_rate(s, IND_MEM).secure_rate_deadtime_hz == 0.0
    assert rates[0] < 0.0 and math.isfinite(rates[0])
