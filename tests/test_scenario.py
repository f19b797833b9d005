from pathlib import Path

import pytest

from dpsrk.detector import up_efficiency
from dpsrk.errors import ModelDomainError, ScenarioParseError
from dpsrk.scenario import ScenarioFile, parse_scenario, serialize_scenario
from dpsrk.security import AttackModel

BASIC = """\
# basic direct-detector scenario
mu = 0.2
alpha_db_per_km = 0.21
clock_hz = 1e9
baseline_error = 0.01
delay_n = 100
attack = hybrid_nomem
detector.name = si
detector.efficiency = 0.35
detector.dark_per_window = 3.5e-8
detector.dead_time_s = 45e-9
detector.receiver_loss_db = 2.1
"""

UPCONV = """\
mu = 0.2
alpha_db_per_km = 0.21
clock_hz = 1e9
baseline_error = 0.01
delay_n = 100
attack = hybrid_nomem
delta = 1.0
detector.name = upconv-si
detector.dead_time_s = 45e-9
detector.receiver_loss_db = 2.1
upconv.a1 = 0.465
upconv.a2 = 79.75
upconv.b0 = 50
upconv.b1 = 826.4
upconv.b2 = 110.3
upconv.b3 = -0.403
upconv.b4 = 0.00065
upconv.bandwidth_hz = 50e9
upconv.pump_mw = 0.0269
"""


# serialize_scenario's bytes for BASIC and UPCONV: numbers as shortest repr,
# keys in field order, a key without a value left out
BASIC_SERIALIZED = """\
mu = 0.2
alpha_db_per_km = 0.21
clock_hz = 1000000000.0
baseline_error = 0.01
delay_n = 100
attack = hybrid_nomem
detector.name = si
detector.dead_time_s = 4.5e-08
detector.receiver_loss_db = 2.1
delta = 0.5
detector.efficiency = 0.35
detector.dark_per_window = 3.5e-08
"""

UPCONV_SERIALIZED = """\
mu = 0.2
alpha_db_per_km = 0.21
clock_hz = 1000000000.0
baseline_error = 0.01
delay_n = 100
attack = hybrid_nomem
detector.name = upconv-si
detector.dead_time_s = 4.5e-08
detector.receiver_loss_db = 2.1
delta = 1.0
upconv.a1 = 0.465
upconv.a2 = 79.75
upconv.b0 = 50.0
upconv.b1 = 826.4
upconv.b2 = 110.3
upconv.b3 = -0.403
upconv.b4 = 0.00065
upconv.bandwidth_hz = 50000000000.0
upconv.pump_mw = 0.0269
"""


class TestParse:
    def test_basic_fields(self):
        sf = parse_scenario(BASIC)
        assert sf.mu == 0.2
        assert sf.clock_hz == 1e9
        assert sf.delay_n == 100
        assert sf.attack == "hybrid_nomem"
        assert sf.detector_name == "si"

    def test_comments_and_blank_lines(self):
        text = "\n# leading comment\n\n" + BASIC + "\n# trailing\n"
        assert parse_scenario(text) == parse_scenario(BASIC)

    def test_inline_comment(self):
        text = BASIC.replace("mu = 0.2", "mu = 0.2  # mean photon number")
        assert parse_scenario(text).mu == 0.2

    def test_unknown_key_rejected(self):
        text = BASIC + "bogus_key = 1\n"
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(text)
        assert "bogus_key" in str(exc.value)
        assert exc.value.line == len(BASIC.splitlines()) + 1

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(BASIC + "mu = 0.3\n")
        assert "duplicate" in str(exc.value)

    def test_malformed_number_names_key(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(BASIC.replace("mu = 0.2", "mu = abc"))
        assert "'mu'" in str(exc.value)
        assert exc.value.line == 2

    # float() and int() take these, but they are not C-locale numbers
    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("delay_n = 100", "delay_n = 1_00", "invalid integer for key 'delay_n'"),
            ("mu = 0.2", "mu = \u0660.\u0662", "invalid number for key 'mu'"),
        ],
    )
    def test_non_c_locale_number_rejected(self, old, new, message):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(BASIC.replace(old, new))
        assert message in str(exc.value)
        line = BASIC.splitlines().index(old) + 1
        assert (exc.value.line, exc.value.column) == (line, new.index("= ") + 3)

    @pytest.mark.parametrize(
        "line,column", [("mu=abc", 4), ("mu = abc", 6), ("  mu =   abc", 10), ("mu =\tabc", 6)]
    )
    def test_value_error_column_is_value_start(self, line, column):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(BASIC.replace("mu = 0.2", line))
        assert (exc.value.line, exc.value.column) == (2, column)

    def test_non_finite_rejected(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario(BASIC.replace("mu = 0.2", "mu = inf"))

    def test_missing_equals(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario("mu 0.2\n")
        assert "key = value" in str(exc.value)

    def test_missing_required_key(self):
        text = "\n".join(
            line for line in BASIC.splitlines() if not line.startswith("mu")
        )
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(text)
        assert "'mu'" in str(exc.value)

    def test_unknown_attack(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(BASIC.replace("hybrid_nomem", "sneaky"))
        assert "sneaky" in str(exc.value)

    def test_mode_key_is_unknown(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(BASIC + "detector.mode = nongated\n")
        assert "unknown key 'detector.mode'" in str(exc.value)
        assert (exc.value.line, exc.value.column) == (len(BASIC.splitlines()) + 1, 1)


class TestRoundTrip:
    @pytest.mark.parametrize("text", [BASIC, UPCONV])
    def test_parse_serialize_parse(self, text):
        first = parse_scenario(text)
        second = parse_scenario(serialize_scenario(first))
        assert first == second

    @pytest.mark.parametrize(
        "text, want", [(BASIC, BASIC_SERIALIZED), (UPCONV, UPCONV_SERIALIZED)],
        ids=["basic", "upconv"],
    )
    def test_serialized_bytes(self, text, want):
        assert serialize_scenario(parse_scenario(text)) == want

    def test_serialized_floats_are_shortest_roundtrip(self):
        sf = parse_scenario(BASIC)
        out = serialize_scenario(sf)
        assert "mu = 0.2" in out
        assert "detector.dark_per_window = 3.5e-08" in out


class TestUpconvBlock:
    def test_pump_fixes_detector(self):
        sf = parse_scenario(UPCONV)
        det = sf.build(0.0)[0].detector
        curve = sf.upconversion_curve()
        assert det.efficiency == up_efficiency(curve, 0.0269)
        assert det.dark_per_window == pytest.approx(
            (50 + 826.4 * 0.0269 + 110.3 * 0.0269**2 - 0.403 * 0.0269**3
             + 0.00065 * 0.0269**4) / 50e9,
            rel=1e-12,
        )

    def test_conflicting_efficiency_rejected(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(UPCONV + "detector.efficiency = 0.3\n")
        assert "conflicts" in str(exc.value)

    def test_incomplete_block_rejected(self):
        text = "\n".join(
            line for line in UPCONV.splitlines() if not line.startswith("upconv.b2")
        )
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(text)
        assert "upconv.b2" in str(exc.value)

    def test_pump_without_curve_rejected(self):
        text = BASIC + "upconv.pump_mw = 0.03\n"
        with pytest.raises(ScenarioParseError):
            parse_scenario(text)

    def test_negative_dark_rate_fit_rejected_at_parse(self):
        # the curve is built once, by the parse, so no build is needed to find it
        text = UPCONV.replace("upconv.b0 = 50", "upconv.b0 = -50")
        message = r"^dark-rate polynomial is negative at pump 0\.0000 mW$"
        with pytest.raises(ModelDomainError, match=message):
            parse_scenario(text)

    def test_curve_without_pump_keeps_direct_detector(self):
        text = UPCONV.replace("upconv.pump_mw = 0.0269\n", "")
        text += "detector.efficiency = 0.35\ndetector.dark_per_window = 3.5e-8\n"
        sf = parse_scenario(text)
        assert sf.build(0.0)[0].detector.efficiency == 0.35
        assert sf.upconversion_curve() is not None


class TestBuild:
    def test_builds_scenario_and_attack(self):
        sf = parse_scenario(BASIC)
        scenario, attack = sf.build(length_km=120.0)
        assert scenario.length_km == 120.0
        assert scenario.delay_n == 100
        assert scenario.detector.efficiency == 0.35
        assert attack is AttackModel.HYBRID_NOMEM

    @pytest.mark.parametrize(
        "name,hybrid,memory",
        [
            ("individual_mem", False, True),
            ("individual_nomem", False, False),
            ("hybrid_mem", True, True),
            ("hybrid_nomem", True, False),
        ],
    )
    def test_attack_names(self, name, hybrid, memory):
        sf = parse_scenario(BASIC.replace("hybrid_nomem", name))
        _, attack = sf.build(0.0)
        assert attack is AttackModel(name)
        assert attack.hybrid is hybrid
        assert attack.memory is memory

    def test_delta_flows_through(self):
        sf = parse_scenario(UPCONV)
        scenario, _ = sf.build(0.0)
        assert scenario.dead_time_delta == 1.0

    def test_default_delta_none(self):
        # a file with no delta key gives the two-detector delta
        sf = parse_scenario(BASIC)
        scenario, _ = sf.build(0.0)
        assert sf.delta == 0.5
        assert scenario.dead_time_delta == 0.5


class TestScenarioFileEquality:
    def test_dataclass_roundtrip_values(self):
        sf = parse_scenario(UPCONV)
        assert isinstance(sf, ScenarioFile)
        assert sf.upconv_pump_mw == 0.0269
        assert sf.delta == 1.0


def test_readme_scenario_example_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scenario files", 1)[1]
    example = section.split("```ini\n", 1)[1].split("```", 1)[0]
    scenario, attack = parse_scenario(example).build(0.0)
    assert scenario.detector.efficiency == 0.35
    assert attack is AttackModel.HYBRID_NOMEM
