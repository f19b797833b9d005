"""The chain's small-argument forms against a high-precision mpmath oracle.

``1 - (1 + mu) e^-mu`` cancels as mu -> 0, and ``log2(1 - e)`` drops the low
bits of a small e.  The oracle evaluates both textbook forms with enough
digits that neither cancellation matters.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsrk import rate, security
from dpsrk.rate import binary_entropy
from dpsrk.security import poisson_multiphoton


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
