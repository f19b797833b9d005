import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpsrk import montecarlo
from dpsrk.detector import DetectorSpec
from dpsrk.errors import ModelDomainError
from dpsrk.link import channel_stats
from dpsrk.montecarlo import (
    CHUNK_WINDOWS,
    McConfig,
    McResult,
    intercept_resend_expectation,
    link_expectation,
    simulate_intercept_resend,
    simulate_link,
)
from dpsrk.presets import load_presets

from conftest import INGAAS, si_scenario


def always_click_scenario(baseline_error=0.0):
    """Every window produces a signal click: mu=1, eta=1, zero loss, no dark."""
    det = DetectorSpec(
        name="perfect", efficiency=1.0, dark_per_window=0.0, dead_time=0.0,
        receiver_loss_db=0.0,
    )
    return si_scenario(length_km=0.0, mu=1.0, baseline_error=baseline_error, detector=det)


def dark_only_scenario():
    det = DetectorSpec(
        name="dark", efficiency=0.0, dark_per_window=3.5e-4, dead_time=0.0,
        receiver_loss_db=0.0,
    )
    return si_scenario(detector=det)


class TestSimulateLink:
    def test_deterministic_signal(self):
        cfg = McConfig(scenario=always_click_scenario(), n_pulses=10000, seed=7)
        result = simulate_link(cfg)
        assert result.p_click_hat == 1.0
        assert result.qber_hat == 0.0

    def test_dark_only_qber_half(self):
        cfg = McConfig(scenario=dark_only_scenario(), n_pulses=1_000_000, seed=3)
        result = simulate_link(cfg)
        se = math.sqrt(0.25 / result.clicks)
        assert abs(result.qber_hat - 0.5) <= 3.0 * se

    def test_fig3_si_click_probability(self):
        cfg = McConfig(scenario=si_scenario(100.0), n_pulses=1_000_000, seed=11)
        result = simulate_link(cfg)
        p, _ = link_expectation(cfg)
        se = math.sqrt(p * (1.0 - p) / cfg.n_pulses)
        assert abs(result.p_click_hat - p) <= 3.0 * se

    def test_reproducible(self):
        cfg = McConfig(scenario=si_scenario(50.0), n_pulses=200_000, seed=99)
        assert simulate_link(cfg) == simulate_link(cfg)

    def test_seed_changes_output(self):
        base = McConfig(scenario=si_scenario(50.0), n_pulses=200_000, seed=1)
        other = McConfig(scenario=si_scenario(50.0), n_pulses=200_000, seed=2)
        assert simulate_link(base) != simulate_link(other)

    def test_chunk_boundary_sizes(self):
        # exercises full-chunk + remainder paths
        for n in (CHUNK_WINDOWS - 1, CHUNK_WINDOWS, CHUNK_WINDOWS + 17):
            cfg = McConfig(scenario=si_scenario(50.0), n_pulses=n, seed=5)
            result = simulate_link(cfg)
            assert result.n_windows == n
            assert result.errors <= result.clicks <= n

    @pytest.mark.parametrize("simulate", [simulate_link, simulate_intercept_resend])
    def test_chunk_prefix(self, simulate):
        # chunk 0 draws the same substream whatever n is, so extra windows only add
        kw = dict(scenario=si_scenario(0.0), seed=5, ir_fraction=0.5, eve_delay_m=2,
                  bob_delay_choices=(1, 2))
        full = simulate(McConfig(n_pulses=CHUNK_WINDOWS, **kw))
        more = simulate(McConfig(n_pulses=CHUNK_WINDOWS + 17, **kw))
        assert more.clicks >= full.clicks
        assert more.errors >= full.errors

    @pytest.mark.parametrize("simulate", [simulate_link, simulate_intercept_resend])
    def test_no_clicks(self, simulate):
        # the signal underflows to exactly 0 and there are no dark counts
        det = DetectorSpec(
            name="quiet", efficiency=0.5, dark_per_window=0.0, dead_time=0.0,
            receiver_loss_db=0.0,
        )
        s = si_scenario(length_km=1000.0, alpha_db_per_km=1000.0, detector=det)
        cfg = McConfig(scenario=s, n_pulses=10_000, seed=3, ir_fraction=1.0, eve_delay_m=2,
                       bob_delay_choices=(1,))
        result = simulate(cfg)
        assert (result.clicks, result.errors, result.p_click_hat) == (0, 0, 0.0)
        assert math.isnan(result.qber_hat)

    def test_cpu_count_without_affinity(self, monkeypatch):
        # platforms without sched_getaffinity fall back to the CPU count
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert montecarlo._usable_cpus() == 1
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        assert montecarlo._usable_cpus() == 3

    @pytest.mark.parametrize("simulate", [simulate_link, simulate_intercept_resend])
    @pytest.mark.parametrize(
        "n_pulses", [4.0 * CHUNK_WINDOWS, 3.0, np.int64(5), np.uint64(7)],
        ids=["float_chunks", "float", "int64", "uint64"],
    )
    def test_whole_non_int_count_samples_as_its_int(self, simulate, n_pulses):
        kw = dict(scenario=si_scenario(0.0), seed=1)
        result = simulate(McConfig(n_pulses=n_pulses, **kw))
        assert result == simulate(McConfig(n_pulses=int(n_pulses), **kw))
        assert type(result.n_windows) is int

    def test_standard_error_halves_when_n_quadruples(self):
        base = McConfig(scenario=si_scenario(50.0), n_pulses=100_000, seed=21)
        quad = McConfig(scenario=si_scenario(50.0), n_pulses=400_000, seed=22)
        se1 = simulate_link(base).p_click_se
        se4 = simulate_link(quad).p_click_se
        assert se4 == pytest.approx(se1 / 2.0, rel=0.2)


class TestSimulateInterceptResend:
    def test_matched_delay_adds_no_error(self):
        cfg = McConfig(
            scenario=always_click_scenario(), n_pulses=100_000, seed=13,
            ir_fraction=1.0, eve_delay_m=1, bob_delay_choices=(1,),
        )
        result = simulate_intercept_resend(cfg)
        assert result.qber_hat == 0.0

    def test_mismatched_delay_error_floor(self):
        cfg = McConfig(
            scenario=always_click_scenario(), n_pulses=1_000_000, seed=17,
            ir_fraction=1.0, eve_delay_m=2, bob_delay_choices=(1,),
        )
        result = simulate_intercept_resend(cfg)
        se = math.sqrt(0.25 * 0.75 / result.clicks)
        assert abs(result.qber_hat - 0.25) <= 3.0 * se

    def test_zero_fraction_reduces_to_link(self):
        for seed in (0, 5, 123456789):
            cfg = McConfig(
                scenario=si_scenario(50.0), n_pulses=300_000, seed=seed,
                ir_fraction=0.0, eve_delay_m=2, bob_delay_choices=(1, 10, 100),
            )
            plain = McConfig(scenario=si_scenario(50.0), n_pulses=300_000, seed=seed)
            assert simulate_intercept_resend(cfg) == simulate_link(plain)

    @pytest.mark.parametrize("delays", [None, (1,), (1, 2), (1, 10, 100)])
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_same_clicks_as_link(self, fraction, delays):
        # every window draws its signal and dark uniforms first in both modes
        base = dict(scenario=si_scenario(0.0), n_pulses=200_000, seed=41)
        cfg = McConfig(**base, ir_fraction=fraction, eve_delay_m=2, bob_delay_choices=delays)
        assert simulate_intercept_resend(cfg).clicks == simulate_link(McConfig(**base)).clicks

    def test_mixed_delay_set_expectation(self):
        cfg = McConfig(
            scenario=always_click_scenario(), n_pulses=1_000_000, seed=29,
            ir_fraction=0.5, eve_delay_m=10, bob_delay_choices=(1, 10),
        )
        result = simulate_intercept_resend(cfg)
        _, q = intercept_resend_expectation(cfg)
        # half the windows attacked, half of those mismatch at floor 1/4
        assert q == pytest.approx(0.5 * 0.5 * 0.25, rel=1e-12)
        se = math.sqrt(q * (1.0 - q) / result.clicks)
        assert abs(result.qber_hat - q) <= 3.0 * se


def reference_sample(cfg, intercept):
    """The sampler drawing each chunk as whole arrays from one cursor, one chunk at a time."""
    stats = channel_stats(cfg.scenario)
    b = cfg.scenario.baseline_error
    attacked_error = np.array(montecarlo._attacked_error(cfg))
    clicks = 0
    errors = 0
    for j, n in montecarlo._chunks(cfg.n_pulses):
        rng = montecarlo._chunk_rng(cfg.seed, j)
        sig = rng.random(n) < stats.p_signal
        click = sig | (rng.random(n) < stats.p_dark)
        sig = sig[click]
        k = sig.size
        threshold = np.where(sig, b, 0.5)
        u = rng.random(k)
        if intercept:
            attacked = rng.random(k) < cfg.ir_fraction
            bob_idx = rng.integers(0, attacked_error.size, size=k)
            threshold = np.where(sig & attacked, attacked_error[bob_idx], threshold)
        clicks += k
        errors += int(np.count_nonzero(u < threshold))
    return McResult.from_counts(cfg.n_pulses, clicks, errors)


EDGE_PULSES = [1, 2, 3, 4, 5, (1 << 16) - 1, (1 << 16) + 1, CHUNK_WINDOWS - 1,
               CHUNK_WINDOWS + 1, 2 * CHUNK_WINDOWS + 17]

configs = st.builds(
    McConfig,
    scenario=st.builds(
        si_scenario,
        length_km=st.sampled_from([0.0, 25.0, 100.0, 300.0]),
        detector=st.sampled_from([always_click_scenario().detector, INGAAS,
                                  dark_only_scenario().detector]),
        baseline_error=st.floats(0.0, 0.4),
    ),
    n_pulses=st.one_of(st.sampled_from(EDGE_PULSES), st.integers(1, 3 * CHUNK_WINDOWS - 1)),
    seed=st.integers(0, 2**64 - 1),
    ir_fraction=st.floats(0.0, 1.0),
    eve_delay_m=st.integers(1, 4),
    bob_delay_choices=st.one_of(st.none(), st.lists(st.integers(1, 4), min_size=1,
                                                    max_size=4).map(tuple)),
)


class TestStreamedChunks:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("intercept", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(cfg=configs)
    @example(cfg=McConfig(scenario=si_scenario(0.0), n_pulses=2 * CHUNK_WINDOWS + 17, seed=5,
                          ir_fraction=0.5, eve_delay_m=2, bob_delay_choices=(1, 2)))
    def test_counts_equal_the_whole_array_reference(self, workers, intercept, cfg):
        simulate = simulate_intercept_resend if intercept else simulate_link
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_usable_cpus", lambda: workers)
            assert simulate(cfg) == reference_sample(cfg, intercept)

    @pytest.mark.parametrize("n", [CHUNK_WINDOWS, 4097, 4098, 4099])
    def test_skipped_cursor_reads_on_from_draw_n(self, n):
        # n % 4 runs through 0-3; the cursor continues past the dark uniforms
        skipped = montecarlo._chunk_rng(11, 2, skip=n).random(n + 7)
        assert np.array_equal(skipped, montecarlo._chunk_rng(11, 2).random(2 * n + 7)[n:])


class _Words:
    """Stands in for a bit generator whose raw words are given."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, m):
        return self.words[:m]


class TestRawWordLimits:
    @pytest.mark.parametrize("skip", [0, CHUNK_WINDOWS, 4097, 4098, 4099])
    def test_raw_word_is_the_generators_double(self, skip):
        # numpy's Philox double is (x >> 11) * 2**-53 of the next raw word, on the
        # signal cursor (skip 0) and on the dark cursor at every skip % 4 offset
        raw = montecarlo._chunk_rng(11, 2, skip=skip)
        words = raw.bit_generator.random_raw(1001)
        more = raw.random(7)  # the per-click doubles read on after the raw words
        doubles = montecarlo._chunk_rng(11, 2, skip=skip).random(1008)
        assert np.array_equal((words >> 11) * 2.0**-53, doubles[:1001])
        assert np.array_equal(more, doubles[1001:])

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.0, 1.0), x=st.integers(0, 2**64 - 1))
    @example(p=0.0, x=0)
    @example(p=5e-324, x=0)
    @example(p=2.0**-53, x=2**11)
    @example(p=0.5, x=2**63)
    @example(p=math.nextafter(1.0, 0.0), x=2**64 - 1)
    @example(p=1.0, x=2**64 - 1)
    def test_integer_compare_is_the_double_compare(self, p, x):
        limit = montecarlo._word_limit(p)
        edges = [] if limit is None else [int(limit) - 1, int(limit)]
        words = [x] + [w for w in edges if 0 <= w < 2**64]
        out = np.empty(len(words), dtype=bool)
        montecarlo._below(_Words(words), len(words), limit, out)
        doubles = (np.array(words, dtype=np.uint64) >> 11) * 2.0**-53
        assert np.array_equal(out, doubles < p)


PINNED_PULSES = CHUNK_WINDOWS + 17


class TestPinnedCounts:
    """Exact counts of the sampler's streams; a stream change fails here even
    if the whole-array reference changes with it."""

    @pytest.mark.parametrize(
        "key, detector, length_km, intercept, kw, counts",
        [
            ("fig3", "si", 0.0, False, dict(seed=7), (45267, 462)),
            ("fig3", "si", 100.0, False, dict(seed=23), (383, 3)),
            ("fig12", "ingaas", 0.0, False, dict(seed=99), (20396, 2258)),
            ("fig3", "si", 0.0, True,
             dict(seed=7, ir_fraction=0.5, eve_delay_m=2, bob_delay_choices=(1, 2)),
             (45267, 3218)),
            ("fig3", "si", 100.0, True,
             dict(seed=23, ir_fraction=1.0, eve_delay_m=1, bob_delay_choices=(1, 2, 3)),
             (383, 112)),
            ("fig12", "ingaas", 0.0, True, dict(seed=99, ir_fraction=0.25, eve_delay_m=3),
             (20396, 4172)),
        ],
    )
    def test_preset_counts(self, key, detector, length_km, intercept, kw, counts):
        s, _ = load_presets()[key].scenario(detector, length_km=length_km)
        simulate = simulate_intercept_resend if intercept else simulate_link
        result = simulate(McConfig(scenario=s, n_pulses=PINNED_PULSES, **kw))
        assert (result.clicks, result.errors) == counts

    @pytest.mark.parametrize("simulate, counts", [(simulate_link, (4099, 394)),
                                                  (simulate_intercept_resend, (4099, 544))])
    def test_certain_signal_counts(self, simulate, counts):
        # p_signal = 1: every signal word is below p, past the largest uint64 limit
        cfg = McConfig(scenario=always_click_scenario(0.1), n_pulses=4099, seed=5,
                       ir_fraction=0.5, eve_delay_m=2, bob_delay_choices=(1, 2))
        result = simulate(cfg)
        assert (result.clicks, result.errors) == counts


class TestExpectations:
    def test_link_expectation_matches_channel(self):
        # 50-digit values of 1 - (1 - p_s)(1 - p_d) and the per-window QBER;
        # a window with both a signal and a dark click counts once
        cfg = McConfig(scenario=si_scenario(100.0), n_pulses=10, seed=0)
        p, q = link_expectation(cfg)
        assert p == pytest.approx(3.429151495587502e-4, rel=1e-12)
        assert q == pytest.approx(0.010099990450858376, rel=1e-12)

    def test_link_expectation_is_per_window_formula(self):
        # fig12 InGaAs at 0 km: p_dark = 4e-3, so the overlap is not negligible
        preset = load_presets()["fig12"]
        s, _ = preset.scenario("ingaas", length_km=0.0)
        stats = channel_stats(s)
        p_s, p_d, b = stats.p_signal, stats.p_dark, s.baseline_error
        p = 1.0 - (1.0 - p_s) * (1.0 - p_d)
        q = (b * p_s + 0.5 * (1.0 - p_s) * p_d) / p
        assert link_expectation(McConfig(scenario=s, n_pulses=10, seed=0)) == (p, q)

    @pytest.mark.parametrize("expectation", [link_expectation, intercept_resend_expectation])
    def test_no_clicks(self, expectation):
        det = DetectorSpec(
            name="dead", efficiency=0.0, dark_per_window=0.0, dead_time=0.0,
            receiver_loss_db=0.0,
        )
        cfg = McConfig(scenario=si_scenario(detector=det), n_pulses=10, seed=0, ir_fraction=1.0)
        p, q = expectation(cfg)
        assert p == 0.0 and math.isnan(q)

    def test_ir_expectation_reduces_to_link_at_zero_fraction(self):
        cfg = McConfig(scenario=si_scenario(100.0), n_pulses=10, seed=0, ir_fraction=0.0)
        assert intercept_resend_expectation(cfg) == pytest.approx(link_expectation(cfg))


class TestStatisticalCoverage:
    def test_three_se_coverage_across_seeds(self):
        # scaled-down version of the seed-coverage gate: analytic values must
        # sit inside 3-standard-error intervals for nearly all seeds.  The SE
        # uses the analytic probability, so zero-count draws stay well posed.
        scenario = si_scenario(100.0)
        n = 200_000
        p_ref, q_ref = link_expectation(McConfig(scenario=scenario, n_pulses=n, seed=0))
        hits = 0
        seeds = range(50)
        for seed in seeds:
            cfg = McConfig(scenario=scenario, n_pulses=n, seed=seed)
            result = simulate_link(cfg)
            se_p = math.sqrt(p_ref * (1.0 - p_ref) / n)
            ok_p = abs(result.p_click_hat - p_ref) <= 3.0 * se_p
            se_q = math.sqrt(q_ref * (1.0 - q_ref) / max(result.clicks, 1))
            ok_q = result.clicks > 0 and abs(result.qber_hat - q_ref) <= 3.0 * se_q
            hits += ok_p and ok_q
        assert hits >= 47


class TestMcConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_pulses": 0},
            {"n_pulses": -5},
            {"seed": -1},
            {"seed": 2**64},
            {"ir_fraction": 1.5},
            {"eve_delay_m": 0},
            {"bob_delay_choices": ()},
            {"bob_delay_choices": (0,)},
            {"n_pulses": math.inf},
            {"n_pulses": math.nan},
            {"n_pulses": 10.5},
            {"seed": math.nan},
            {"seed": 1.5},
            {"seed": math.inf},
            {"ir_fraction": math.nan},
            {"eve_delay_m": math.inf},
            {"eve_delay_m": math.nan},
            {"bob_delay_choices": (math.nan,)},
            {"bob_delay_choices": (1, math.inf)},
        ],
    )
    def test_rejects(self, kwargs):
        params = dict(scenario=si_scenario(), n_pulses=10, seed=0)
        params.update(kwargs)
        with pytest.raises(ModelDomainError):
            McConfig(**params)

    def test_result_rejects_more_errors_than_clicks(self):
        with pytest.raises(ModelDomainError, match="errors cannot exceed clicks"):
            McResult.from_counts(10, 1, 2)

    def test_default_delay_choices_from_scenario(self):
        cfg = McConfig(scenario=si_scenario(delay_n=10), n_pulses=10, seed=0)
        assert cfg.delay_choices == (10,)

    def test_errors_bounded_by_clicks(self):
        cfg = McConfig(scenario=si_scenario(25.0), n_pulses=50_000, seed=31)
        result = simulate_link(cfg)
        assert 0 <= result.errors <= result.clicks <= result.n_windows
