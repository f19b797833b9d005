"""Preset registry fidelity against the transcribed caption parameters."""

import pytest

from dpsrk.detector import DetectorMode
from dpsrk.errors import DpsrkError
from dpsrk.presets import load_presets, parse_preset, preset_directory
from dpsrk.scenario import tokenize_kv

# One record per figure: (mu, nu_hz, ingaas dark) as literal strings; the
# remaining parameters are common to every figure.
FIGURE_VARIANTS = {
    "fig3": ("0.2", "1e9", "9.2e-6"),
    "fig4": ("0.77", "10e9", "2.0e-3"),
    "fig5": ("0.2", "10e9", "2.0e-3"),
    "fig6": ("0.77", "1e9", "9.2e-6"),
    "fig7": ("0.2", "10e9", "9.2e-6"),
    "fig8": ("0.77", "1e9", "2.0e-3"),
    "fig9": ("0.05", "1e9", "9.2e-6"),
    "fig10": ("0.05", "10e9", "9.2e-6"),
    "fig11": ("0.77", "10e9", "9.2e-6"),
    "fig12": ("0.2", "1e9", "2.0e-3"),
}

COMMON_TOKENS = {
    "b": "0.01",
    "f": "1.16",
    "alpha_db_per_km": "0.21",
    "n_set": "1,10,100",
    "ingaas.efficiency": "0.155",
    "ingaas.receiver_loss_db": "3.0",
    "ingaas.dead_time_s": "200e-9",
    "si.efficiency": "0.35",
    "si.dark_per_window": "3.5e-8",
    "si.receiver_loss_db": "2.1",
    "si.dead_time_s": "45e-9",
}


def expected_tokens(name):
    mu, nu, d1 = FIGURE_VARIANTS[name]
    tokens = dict(COMMON_TOKENS)
    tokens.update({"mu": mu, "nu_hz": nu, "ingaas.dark_per_window": d1})
    return tokens


class TestTranscriptFidelity:
    @pytest.mark.parametrize("name", sorted(FIGURE_VARIANTS))
    def test_file_matches_transcript_strings(self, name):
        path = preset_directory() / f"{name}.preset"
        tokens = {key: value for key, value, _, _ in tokenize_kv(path.read_text())}
        assert tokens == expected_tokens(name)

    def test_all_figures_present(self):
        registry = load_presets()
        assert set(FIGURE_VARIANTS) <= set(registry)

    def test_alternate_prose_preset(self):
        registry = load_presets()
        alt = registry["alt"]
        assert alt.alpha_db_per_km == 0.2
        assert alt.detectors["si"].receiver_loss_db == 1.0
        assert alt.detectors["ingaas"].receiver_loss_db == 1.0


class TestRegistryValues:
    def test_fig3_values(self):
        preset = load_presets()["fig3"]
        assert preset.baseline_error == 0.01
        assert preset.mu == 0.2
        assert preset.f == 1.16
        assert preset.clock_hz == 1e9
        assert preset.n_set == (1, 10, 100)
        si = preset.detectors["si"]
        assert (si.efficiency, si.dark_per_window) == (0.35, 3.5e-8)
        assert (si.dead_time, si.receiver_loss_db) == (45e-9, 2.1)
        assert si.mode is DetectorMode.NONGATED
        ingaas = preset.detectors["ingaas"]
        assert (ingaas.efficiency, ingaas.dark_per_window) == (0.155, 9.2e-6)
        assert (ingaas.dead_time, ingaas.receiver_loss_db) == (200e-9, 3.0)
        assert ingaas.mode is DetectorMode.GATED

    def test_natural_ordering(self):
        names = list(load_presets())
        assert names.index("fig3") < names.index("fig10")

    def test_scenario_materialization(self):
        preset = load_presets()["fig4"]
        s, attack = preset.scenario(
            detector="ingaas", delay_n=10, attack="hybrid_mem", length_km=42.0
        )
        assert s.mu == 0.77
        assert s.clock_hz == 10e9
        assert s.length_km == 42.0
        assert s.delay_n == 10
        assert s.detector.dark_per_window == 2.0e-3
        assert attack.memory

    def test_unknown_detector_rejected(self):
        with pytest.raises(DpsrkError):
            load_presets()["fig3"].scenario(detector="nss")

    def test_unknown_attack_rejected(self):
        with pytest.raises(DpsrkError):
            load_presets()["fig3"].scenario(attack="collective")


class TestPresetDirOverride:
    def test_env_var_redirects_registry(self, tmp_path, monkeypatch):
        custom = tmp_path / "presets"
        custom.mkdir()
        source = preset_directory() / "fig3.preset"
        text = source.read_text().replace("mu = 0.2", "mu = 0.33")
        (custom / "mine.preset").write_text(text)
        monkeypatch.setenv("DPSRK_PRESET_DIR", str(custom))
        registry = load_presets()
        assert list(registry) == ["mine"]
        assert registry["mine"].mu == 0.33

    def test_missing_dir_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPSRK_PRESET_DIR", str(tmp_path / "empty"))
        with pytest.raises(FileNotFoundError):
            load_presets()


class TestPresetParsing:
    def test_unknown_key_rejected(self):
        text = (preset_directory() / "fig3.preset").read_text() + "mystery = 1\n"
        from dpsrk.errors import ScenarioParseError

        with pytest.raises(ScenarioParseError, match="unknown key 'mystery'") as info:
            parse_preset("fig3", text)
        assert info.value.line == len(text.splitlines())

    def test_duplicate_key_rejected(self):
        text = (preset_directory() / "fig3.preset").read_text() + "mu = 0.3\n"
        from dpsrk.errors import ScenarioParseError

        with pytest.raises(ScenarioParseError, match="duplicate key 'mu'") as info:
            parse_preset("fig3", text)
        assert info.value.line == len(text.splitlines())

    def test_missing_key_rejected(self):
        text = "b = 0.01\n"
        from dpsrk.errors import ScenarioParseError

        with pytest.raises(ScenarioParseError):
            parse_preset("partial", text)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("mu = 0.2", "mu = 0.2x"),
            ("n_set = 1,10,100", "n_set = 1,a,100"),
            ("si.dead_time_s = 45e-9", "si.dead_time_s = inf"),
            ("f = 1.16", "f = 0.5"),
            ("n_set = 1,10,100", "n_set = 0,-3"),
        ],
    )
    def test_bad_number_reports_line_and_column(self, old, new):
        from dpsrk.errors import ScenarioParseError

        text = (preset_directory() / "fig3.preset").read_text()
        line = text.splitlines().index(old) + 1
        with pytest.raises(ScenarioParseError) as info:
            parse_preset("fig3", text.replace(old, new))
        # the column of the value's first character, just after "= "
        assert (info.value.line, info.value.column) == (line, new.index("= ") + 3)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("mu = 0.2", "mu = -0.2"),
            ("b = 0.01", "b = 0.5"),
            ("nu_hz = 1e9", "nu_hz = 0"),
            ("alpha_db_per_km = 0.21", "alpha_db_per_km = -0.21"),
        ],
    )
    def test_out_of_range_value_rejected_at_load(self, old, new):
        assert_rejected_at_key(old, new)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("si.efficiency = 0.35", "si.efficiency = 2"),
            ("ingaas.dark_per_window = 9.2e-6", "ingaas.dark_per_window = 0.6"),
            ("si.dead_time_s = 45e-9", "si.dead_time_s = -1"),
            ("ingaas.receiver_loss_db = 3.0", "ingaas.receiver_loss_db = -3"),
        ],
    )
    def test_out_of_range_detector_value_names_preset_and_key(self, old, new):
        assert_rejected_at_key(old, new)


def assert_rejected_at_key(old, new):
    """fig3 with line ``old`` replaced by ``new`` fails at the value of ``new``'s key."""
    from dpsrk.errors import ScenarioParseError

    text = (preset_directory() / "fig3.preset").read_text()
    line = text.splitlines().index(old) + 1
    key = new.split(" = ")[0]
    with pytest.raises(ScenarioParseError, match=f"preset fig3: {key} must be ") as info:
        parse_preset("fig3", text.replace(old, new))
    assert (info.value.line, info.value.column) == (line, new.index("= ") + 3)
