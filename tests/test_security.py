import math
import sys

import pytest
from hypothesis import given, strategies as st

from dpsrk.errors import ModelDomainError
from dpsrk.link import channel_stats
from dpsrk.security import (
    CASCADE_EC_TABLE,
    AttackModel,
    ECTable,
    bs_transmission,
    f_ec,
    ir_error_floor,
    poisson_multiphoton,
    shrink_hybrid,
    shrink_individual,
    single_photon_fraction,
    surviving_fraction,
)

from conftest import SI, si_scenario


class TestPoissonMultiphoton:
    def test_zero(self):
        assert poisson_multiphoton(0.0) == 0.0

    def test_common_values(self):
        # 1 - (1 + mu) e^-mu via a 50-digit oracle
        assert poisson_multiphoton(0.2) == pytest.approx(0.01752309630642177, rel=1e-12)
        assert poisson_multiphoton(0.77) == pytest.approx(0.18046686908912631, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=35.0))
    def test_valid_probability(self, mu):
        # above mu ~ 40 the true value 1 - (1+mu)e^-mu rounds to 1.0 at
        # double precision, so the strict bound is only testable below that
        p = poisson_multiphoton(mu)
        assert 0.0 <= p < 1.0

    def test_negative_rejected(self):
        with pytest.raises(ModelDomainError):
            poisson_multiphoton(-0.1)


class TestSinglePhotonFraction:
    def test_ideal_source(self):
        assert single_photon_fraction(0.5, 0.0) == 1.0

    def test_insecure_boundary(self):
        assert single_photon_fraction(0.3, 0.3) == 0.0

    def test_negative_signals_pns_insecure(self):
        beta = single_photon_fraction(3.43e-4, 1.75e-2)
        assert beta < 0.0

    def test_zero_click_undefined(self):
        with pytest.raises(ModelDomainError, match="undefined at zero click probability"):
            single_photon_fraction(0.0, 0.1)


class TestShrinkIndividual:
    def test_perfect_with_memory(self):
        assert shrink_individual(0.0, 1.0, memory=True) == 1.0

    def test_perfect_without_memory(self):
        assert shrink_individual(0.0, 1.0, memory=False) == 1.0

    def test_known_value_with_memory(self):
        # -log2(0.5 + 0.1 - 0.005)
        assert shrink_individual(0.05, 1.0, memory=True) == pytest.approx(
            0.74903842646678118, rel=1e-12
        )

    def test_zero_at_half_error(self):
        # log argument reaches 1 exactly at e/beta = 1/2
        assert shrink_individual(0.5, 1.0, memory=True) == 0.0

    def test_insecure_beta_rejected(self):
        with pytest.raises(ModelDomainError, match="no secure key against PNS"):
            shrink_individual(0.01, 0.0, memory=True)
        with pytest.raises(ModelDomainError, match="no secure key against PNS"):
            shrink_individual(0.01, -0.2, memory=False)

    @pytest.mark.parametrize("memory, e", [(True, 0.12), (False, 0.36)])
    def test_zero_past_turning_point(self, memory, e):
        # beta = 0.2: e/beta = 0.6 > 1/2 with memory, e/(1 + beta) = 0.3 > 1/4 without
        assert shrink_individual(e, 0.2, memory=memory) == 0.0

    @given(st.floats(min_value=0.05, max_value=1.0), st.booleans())
    def test_non_increasing_in_error(self, beta, memory):
        es = [0.5 * i / 32 for i in range(33)]
        taus = [shrink_individual(e, beta, memory) for e in es]
        assert all(b <= a + 1e-12 for a, b in zip(taus, taus[1:]))


class TestBsTransmission:
    def test_lossless(self):
        from dpsrk.detector import DetectorSpec

        ideal = DetectorSpec(
            name="ideal", efficiency=1.0, dark_per_window=0.0, dead_time=0.0,
            receiver_loss_db=0.0,
        )
        assert bs_transmission(ideal, 0.0, 0.0) == 1.0

    def test_fig3_si_100km(self):
        assert bs_transmission(SI, 0.21, 100.0) == pytest.approx(
            1.7142258677895617e-3, rel=1e-12
        )

    def test_vanishes_at_long_distance(self):
        assert bs_transmission(SI, 0.21, 5000.0) < 1e-100

    @given(st.floats(min_value=0.0, max_value=300.0))
    def test_identity_with_p_signal(self, length):
        s = si_scenario(length)
        eta_bs = bs_transmission(SI, s.alpha_db_per_km, length)
        assert eta_bs * s.mu == pytest.approx(channel_stats(s).p_signal, rel=1e-15)


class TestSurvivingFraction:
    def test_no_memory_example(self):
        assert surviving_fraction(0.2, 0.0, 10, memory=False) == 0.98

    def test_memory_example(self):
        assert surviving_fraction(0.2, 0.0, 1, memory=True) == pytest.approx(0.6, rel=1e-15)

    def test_memory_boundary(self):
        assert surviving_fraction(0.5, 0.0, 1, memory=True) == 0.0

    @pytest.mark.parametrize(
        "mu, p_signal, n",
        [(0.0, 0.0, 10), (0.2, -0.1, 10), (0.2, 1.5, 10), (0.2, float("nan"), 10), (0.2, 0.1, 0)],
    )
    def test_rejects(self, mu, p_signal, n):
        with pytest.raises(ModelDomainError):
            surviving_fraction(mu, p_signal, n, memory=False)

    @given(
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=1000),
        st.booleans(),
    )
    def test_two_published_forms_agree(self, mu, eta_bs, n, memory):
        ps = mu * eta_bs
        gamma = surviving_fraction(mu, ps, n, memory)
        if memory:
            direct = 1.0 - 2.0 * mu * (1.0 - eta_bs)
        else:
            direct = 1.0 - mu * (1.0 - eta_bs) / n
        assert gamma == pytest.approx(max(direct, 0.0), abs=1e-12)

    @given(
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=2, max_value=1000),
    )
    def test_memory_never_helps(self, mu, eta_bs, n):
        ps = mu * eta_bs
        with_memory = surviving_fraction(mu, ps, n, memory=True)
        without = surviving_fraction(mu, ps, n, memory=False)
        assert with_memory <= without + 1e-12


class TestShrinkHybrid:
    def test_perfect(self):
        assert shrink_hybrid(0.0, 1.0, 10) == 1.0

    def test_known_value(self):
        assert shrink_hybrid(0.02, 0.98, 10) == pytest.approx(0.97789473684210526, rel=1e-12)

    def test_boundary_zero(self):
        assert shrink_hybrid(0.25, 0.5, 1) == 0.0

    @given(st.integers(min_value=1, max_value=500))
    def test_slope_exact(self, n):
        # linear in e with slope -1/(N (1 - 1/2N))
        t1 = shrink_hybrid(0.125, 1.0, n)
        t2 = shrink_hybrid(0.25, 1.0, n)
        slope = (t2 - t1) / 0.125
        assert slope == pytest.approx(-1.0 / (n * (1.0 - 1.0 / (2.0 * n))), rel=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=1, max_value=500),
    )
    def test_strictly_decreasing(self, e1, e2, n):
        lo, hi = sorted((e1, e2))
        if hi - lo < 1e-9:
            return
        t_lo = shrink_hybrid(lo, 1.0, n)
        t_hi = shrink_hybrid(hi, 1.0, n)
        assert t_hi < t_lo


class TestErrorCorrectionTable:
    def test_breakpoints_exact(self):
        assert f_ec(CASCADE_EC_TABLE, 0.01) == 1.16
        assert f_ec(CASCADE_EC_TABLE, 0.05) == 1.16
        assert f_ec(CASCADE_EC_TABLE, 0.1) == 1.22
        assert f_ec(CASCADE_EC_TABLE, 0.15) == 1.35

    def test_midpoint_interpolation(self):
        assert f_ec(CASCADE_EC_TABLE, 0.075) == pytest.approx(1.19, rel=1e-12)

    def test_constant_below_first_breakpoint(self):
        assert f_ec(CASCADE_EC_TABLE, 0.0) == 1.16
        assert f_ec(CASCADE_EC_TABLE, 0.005) == 1.16

    def test_above_range(self):
        with pytest.raises(ModelDomainError, match="exceeds the correction table range"):
            f_ec(CASCADE_EC_TABLE, 0.151)

    def test_negative_rejected(self):
        with pytest.raises(ModelDomainError):
            f_ec(CASCADE_EC_TABLE, -0.01)

    @given(st.floats(min_value=0.0, max_value=0.15))
    def test_monotone_and_at_least_one(self, e):
        f = f_ec(CASCADE_EC_TABLE, e)
        assert 1.16 <= f <= 1.35

    def test_table_validation(self):
        with pytest.raises(ModelDomainError):
            ECTable(points=((0.05, 1.16), (0.01, 1.22)))  # not increasing
        with pytest.raises(ModelDomainError):
            ECTable(points=((0.01, 0.9), (0.15, 1.22)))  # f < 1
        with pytest.raises(ModelDomainError):
            ECTable(points=((0.01, 1.16), (0.1, 1.22)))  # does not cover 0.15

    def test_two_breakpoints_and_unit_overhead_allowed(self):
        table = ECTable(points=((0.01, 1.0), (0.15, 1.2)))
        assert f_ec(table, 0.0) == 1.0
        assert f_ec(table, 0.15) == 1.2


class TestIrErrorFloor:
    def test_values(self):
        assert ir_error_floor(1) == 0.25
        assert ir_error_floor(10) == 0.475

    def test_limit(self):
        assert ir_error_floor(10**9) == pytest.approx(0.5, abs=1e-9)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_bounded(self, n):
        assert 0.25 <= ir_error_floor(n) < 0.5


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: shrink_hybrid(0.01, 0.9, 0), "delay_n must be an integer >= 1"),
        (lambda: shrink_hybrid(0.01, 1.5, 100), "gamma must be in"),
        (lambda: shrink_hybrid(0.6, 0.9, 100), "error rate must be in"),
        (lambda: shrink_individual(0.01, 1.5, True), "single-photon fraction must be <= 1"),
        (lambda: shrink_individual(-0.1, 0.9, True), "error rate must be finite and >= 0"),
        (lambda: ir_error_floor(0), "delay_n must be an integer >= 1"),
        (lambda: ECTable(((0.0, 1.16),)), "at least two breakpoints"),
        (lambda: f_ec(CASCADE_EC_TABLE, math.nan), "error rate must be >= 0"),
        (lambda: poisson_multiphoton(math.nan), "mu must be finite and >= 0"),
        (lambda: poisson_multiphoton(math.inf), "mu must be finite and >= 0"),
        (lambda: single_photon_fraction(math.nan, 0.0), "undefined at zero click probability"),
        (lambda: shrink_individual(math.nan, 0.5, True), "error rate must be finite and >= 0"),
        (lambda: shrink_individual(0.01, math.nan, True), "single-photon fraction must be <= 1"),
        (lambda: surviving_fraction(math.nan, 0.1, 10, False), "mu must be finite and > 0"),
        (lambda: surviving_fraction(0.2, 0.1, math.nan, False), "delay_n must be an integer >= 1"),
        (lambda: shrink_hybrid(0.01, 0.5, math.nan), "delay_n must be an integer >= 1"),
        (lambda: ir_error_floor(math.nan), "delay_n must be an integer >= 1"),
        (lambda: bs_transmission(SI, math.nan, 1.0), "alpha and length must be finite and >= 0"),
        (lambda: bs_transmission(SI, -0.2, 1.0), "alpha and length must be finite and >= 0"),
        (lambda: bs_transmission(SI, 0.2, -1.0), "alpha and length must be finite and >= 0"),
        (lambda: surviving_fraction(0.2, 0.1, math.inf, False), "delay_n must be an integer"),
        (lambda: surviving_fraction(0.2, 0.1, 2.5, False), "delay_n must be an integer"),
        (lambda: shrink_hybrid(0.01, 0.5, math.inf), "delay_n must be an integer"),
        (lambda: shrink_hybrid(0.01, 0.5, 2.5), "delay_n must be an integer"),
        (lambda: ir_error_floor(math.inf), "delay_n must be an integer"),
        (lambda: ir_error_floor(2.5), "delay_n must be an integer"),
        (lambda: ECTable(((0.01, 1.16), (0.01, 1.2), (0.15, 1.35))), "strictly increasing"),
        (lambda: surviving_fraction(0.2, 0.1, 10**400, False), "delay_n must be an integer >= 1"),
        (lambda: shrink_hybrid(0.01, 0.9, 10**400), "delay_n must be an integer >= 1"),
        (lambda: ir_error_floor(10**400), "delay_n must be an integer >= 1"),
        (lambda: single_photon_fraction(2.0, 0.1), r"p_click must be in \(0, 1\]"),
        (lambda: single_photon_fraction(0.5, 1.5), r"p_m must be in \[0, 1\]"),
    ],
    ids=[
        "hybrid-delay-0", "hybrid-gamma", "hybrid-e", "individual-beta", "individual-e",
        "ir-floor-delay-0", "ec-table-one-point", "f-ec-nan", "multiphoton-nan",
        "multiphoton-inf", "single-photon-nan", "individual-e-nan", "individual-beta-nan",
        "surviving-mu-nan", "surviving-delay-nan", "hybrid-delay-nan", "ir-floor-nan",
        "bs-alpha-nan", "bs-alpha-negative", "bs-length-negative", "surviving-delay-inf",
        "surviving-delay-fraction", "hybrid-delay-inf", "hybrid-delay-fraction", "ir-floor-inf",
        "ir-floor-fraction", "ec-table-equal-breakpoints", "surviving-delay-huge",
        "hybrid-delay-huge", "ir-floor-huge", "single-photon-p-click-above-one",
        "single-photon-p-m-above-one",
    ],
)
def test_out_of_range_argument_raises(call, message):
    with pytest.raises(ModelDomainError, match=message):
        call()


@pytest.mark.parametrize("n", [int(sys.float_info.max), sys.float_info.max])
def test_largest_float_delay_is_accepted(n):
    # every delay up to the largest float converts to a float, so none overflows
    assert surviving_fraction(0.2, 0.1, n, False) == 1.0
    assert shrink_hybrid(0.01, 0.9, n) == 0.9
    assert ir_error_floor(n) == 0.5


class TestAttackModel:
    def test_memory_property(self):
        assert AttackModel.INDIVIDUAL_MEM.memory
        assert not AttackModel.INDIVIDUAL_NOMEM.memory
        assert AttackModel.HYBRID_MEM.memory
        assert not AttackModel.HYBRID_NOMEM.memory

    def test_the_four_attacks(self):
        # each name's hybrid and memory: tests/test_scenario.py::TestBuild::test_attack_names
        assert [a.value for a in AttackModel] == [
            "individual_mem", "individual_nomem", "hybrid_mem", "hybrid_nomem"
        ]

    def test_lookup_by_name(self):
        assert AttackModel("hybrid_nomem") is AttackModel.HYBRID_NOMEM

    @pytest.mark.parametrize("name", ["collective", "", "HYBRID_NOMEM", None])
    def test_unknown_name(self, name):
        with pytest.raises(ModelDomainError, match="unknown attack"):
            AttackModel(name)
