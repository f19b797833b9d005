import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dpsrk import scenario as scenario_module
from dpsrk.cli import (
    CSV_HEADER, _integer, _point_row, _print_point, _z_score, build_parser, main
)
from dpsrk.presets import load_presets, preset_directory
from dpsrk.rate import RatePoint, secure_rate
from dpsrk.scenario import KNOWN_KEYS, parse_scenario
from dpsrk.security import AttackModel

from test_scenario import BASIC, UPCONV


@pytest.fixture
def basic_scenario_path(tmp_path):
    path = tmp_path / "basic.scn"
    path.write_text(BASIC)
    return str(path)


@pytest.fixture
def upconv_scenario_path(tmp_path):
    path = tmp_path / "upconv.scn"
    path.write_text(UPCONV)
    return str(path)


@pytest.fixture
def touching_scenario_path(tmp_path):
    # a dark-rate fit that touches 0 at the scenario's pump, where it rounds
    # to -5.7e-14; construction accepts it, so every command must run there
    text = UPCONV
    for key, value in (
        ("b0", "266.0230429888968"), ("b1", "-150.79378586361153"),
        ("b2", "21.369169376832698"), ("b3", "0"), ("b4", "0"),
        ("pump_mw", "3.5283024624039445"),
    ):
        text = re.sub(rf"^upconv\.{key} = .*$", f"upconv.{key} = {value}", text, flags=re.M)
    path = tmp_path / "touching.scn"
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestRateCommand:
    def test_secure_point_exits_zero(self, capsys):
        rc, out, _ = run(
            capsys, "rate", "--preset", "fig3", "--detector", "si",
            "--n", "100", "--attack", "hybrid_nomem", "--length", "100",
        )
        assert rc == 0
        assert "secure_bps" in out
        assert "yes" in out

    def test_insecure_point_exits_two(self, capsys):
        rc, out, _ = run(capsys, "rate", "--preset", "fig3", "--length", "400")
        assert rc == 2
        assert "insecure" in out

    def test_scenario_file(self, capsys, basic_scenario_path):
        rc, out, _ = run(capsys, "rate", "--scenario", basic_scenario_path, "--length", "100")
        assert rc == 0
        # same chain as the preset at identical parameters
        preset_out = run(
            capsys, "rate", "--preset", "fig3", "--detector", "si",
            "--n", "100", "--attack", "hybrid_nomem", "--length", "100",
        )[1]
        assert out.splitlines()[1:] == preset_out.splitlines()[1:]

    def test_matches_library_within_1e9(self, capsys):
        from dpsrk import load_presets, secure_rate

        rc, out, _ = run(
            capsys, "rate", "--preset", "fig3", "--detector", "si",
            "--n", "100", "--attack", "hybrid_nomem", "--length", "100",
        )
        printed = {
            line.split()[0]: line.split()[1] for line in out.splitlines() if line.strip()
        }
        s, a = load_presets()["fig3"].scenario("si", 100, "hybrid_nomem", 100.0)
        point = secure_rate(s, a)
        assert float(printed["secure_bps"]) == pytest.approx(point.secure_rate_hz, rel=1e-9)

    def test_fixed_f_mode_defaults_to_the_preset_f(self, capsys, tmp_path, monkeypatch):
        # every packaged preset has f = 1.16, the table's first overhead, so
        # a preset with another f tells the two defaults apart
        text = (preset_directory() / "fig3.preset").read_text()
        (tmp_path / "fig3.preset").write_text(text.replace("f = 1.16", "f = 1.3"))
        monkeypatch.setenv("DPSRK_PRESET_DIR", str(tmp_path))
        rc, out, _ = run(capsys, "rate", "--preset", "fig3", "--f-mode", "fixed")
        assert rc == 0
        assert "f_used               1.3\n" in out

    def test_fixed_f_mode_defaults_to_the_table_floor_for_a_scenario(
        self, capsys, basic_scenario_path
    ):
        rc, out, _ = run(capsys, "rate", "--scenario", basic_scenario_path, "--f-mode", "fixed")
        assert rc == 0
        assert "f_used               1.16\n" in out

    def test_dark_fit_touching_zero_at_the_pump(self, capsys, touching_scenario_path):
        rc, out, err = run(capsys, "rate", "--scenario", touching_scenario_path)
        assert (rc, err) == (0, "")
        assert "p_dark               0.0\n" in out

    def test_csv_row_appended(self, capsys, tmp_path):
        csv_path = tmp_path / "points.csv"
        run(capsys, "rate", "--preset", "fig3", "--length", "100", "--csv", str(csv_path))
        run(capsys, "rate", "--preset", "fig3", "--length", "150", "--csv", str(csv_path))
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_csv_header_written_to_empty_file(self, capsys, tmp_path):
        csv_path = tmp_path / "points.csv"
        csv_path.touch()
        run(capsys, "rate", "--preset", "fig3", "--length", "10", "--csv", str(csv_path))
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_parse_failure_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text(BASIC.replace("mu = 0.2", "mu = abc"))
        rc, _, err = run(capsys, "rate", "--scenario", str(bad), "--length", "10")
        assert rc == 1
        assert "mu" in err

    @pytest.mark.parametrize("value", ["0.5", "0", "-5"])
    def test_fixed_f_below_one_exits_one(self, capsys, value):
        rc, out, err = run(
            capsys, "rate", "--preset", "fig3", "--length", "100",
            "--f-mode", "fixed", f"--f-value={value}",
        )
        assert rc == 1
        assert out == ""
        assert ">= 1" in err

    @pytest.mark.parametrize(
        "option, value",
        [("--length", "nan"), ("--length", "inf"), ("--length", "-inf"), ("--f-value", "nan")],
    )
    def test_non_finite_option_exits_one(self, capsys, option, value):
        argv = ["rate", "--preset", "fig3", "--f-mode", "fixed", f"{option}={value}"]
        rc, _, err = run(capsys, *argv)
        assert rc == 1
        assert "finite" in err

    def test_both_sources_rejected(self, capsys, basic_scenario_path):
        rc, _, err = run(
            capsys, "rate", "--preset", "fig3", "--scenario", basic_scenario_path
        )
        assert rc == 1
        assert "exactly one" in err

    def test_unknown_preset(self, capsys):
        rc, _, err = run(capsys, "rate", "--preset", "fig99")
        assert rc == 1
        assert "fig99" in err

    def test_zero_loss_toy_sifted_rate(self, capsys, tmp_path):
        # at L = 0 with no receiver loss the sifted rate is clock * p_click
        path = tmp_path / "toy.scn"
        path.write_text(
            BASIC.replace("detector.receiver_loss_db = 2.1",
                          "detector.receiver_loss_db = 0.0")
        )
        rc, out, _ = run(capsys, "rate", "--scenario", str(path), "--length", "0")
        printed = {
            line.split()[0]: line.split()[1] for line in out.splitlines() if line.strip()
        }
        assert float(printed["sifted_bps"]) == 1e9 * float(printed["p_click"])
        assert float(printed["p_click"]) == float(printed["p_signal"]) + float(printed["p_dark"])


class TestSweepCommand:
    def test_header_and_row_count(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--preset", "fig3", "--axis", "distance",
            "--lo", "0", "--hi", "10", "--steps", "2",
        )
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_distance_sweep_monotone_secure_rate(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--preset", "fig3", "--detector", "si", "--n", "100",
            "--axis", "distance", "--lo", "0", "--hi", "300", "--steps", "301",
        )
        assert rc == 0
        rates = [float(line.split(",")[8]) for line in out.splitlines()[1:]]
        positive = [r for r in rates if r > 0.0]
        assert len(positive) > 200
        assert all(b <= a * (1 + 1e-12) for a, b in zip(positive, positive[1:]))

    def test_pump_sweep_dark_count_shape(self, capsys, upconv_scenario_path):
        rc, out, _ = run(
            capsys, "sweep", "--scenario", upconv_scenario_path, "--axis", "pump",
            "--lo", "0", "--hi", "20", "--steps", "21", "--length", "10",
        )
        assert rc == 0
        darks = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert all(b > a for a, b in zip(darks, darks[1:]))
        # quadratic-dominated rise: doubling the pump more than doubles the
        # added dark rate
        assert darks[20] - darks[0] > 2.0 * (darks[10] - darks[0])

    def test_mu_sweep(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--preset", "fig3", "--axis", "mu",
            "--lo", "0.05", "--hi", "0.5", "--steps", "10", "--length", "100",
        )
        assert rc == 0
        assert len(out.splitlines()) == 11

    @pytest.mark.parametrize("axis, lo, hi, field", [("distance", 0.0, 250.0, "length_km"),
                                                     ("mu", 0.05, 0.9, "mu")])
    def test_preset_sweep_rows_are_replaced_scenarios(self, capsys, axis, lo, hi, field):
        # every field of the preset's scenario, dead-time delta included, reaches each step
        length = [] if axis == "distance" else ["--length", "37"]
        rc, out, _ = run(
            capsys, "sweep", "--preset", "fig12", "--detector", "ingaas", "--n", "10",
            "--delta", "0.7", "--attack", "individual_mem", "--axis", axis,
            "--lo", repr(lo), "--hi", repr(hi), "--steps", "11", *length,
        )
        assert rc == 0
        base, a = load_presets()["fig12"].scenario(
            "ingaas", delay_n=10, attack="individual_mem", length_km=37.0, delta=0.7)
        expected = [CSV_HEADER] + [
            _point_row(secure_rate(replace(base, **{field: lo + (hi - lo) * i / 10}), a))
            for i in range(11)
        ]
        assert out.splitlines() == expected

    def test_bad_axis_exits_one(self, capsys):
        rc, _, err = run(
            capsys, "sweep", "--preset", "fig3", "--axis", "voltage",
            "--lo", "0", "--hi", "1", "--steps", "2",
        )
        assert rc == 1

    def test_bad_steps_exits_one(self, capsys):
        rc, _, _ = run(
            capsys, "sweep", "--preset", "fig3", "--axis", "distance",
            "--lo", "0", "--hi", "1", "--steps", "1",
        )
        assert rc == 1

    def test_length_on_distance_axis_exits_one(self, capsys):
        # a distance sweep sets the length of every row itself
        rc, out, err = run(
            capsys, "sweep", "--preset", "fig3", "--axis", "distance",
            "--lo", "0", "--hi", "10", "--steps", "3", "--length", "77",
        )
        assert rc == 1
        assert out == ""
        assert err == "error: --length only applies with --axis mu or pump\n"

    def test_pump_sweep_without_curve_exits_one(self, capsys):
        rc, _, err = run(
            capsys, "sweep", "--preset", "fig3", "--axis", "pump",
            "--lo", "0", "--hi", "1", "--steps", "2",
        )
        assert rc == 1
        assert "upconv" in err

    @pytest.mark.parametrize(
        "axis, lo, hi, field",
        [
            ("distance", 0.0, 300.0, None),
            ("mu", 0.05, 0.8, "mu"),
            ("pump", 0.0, 5.0, "upconv_pump_mw"),
        ],
    )
    def test_upconv_sweep_matches_library(self, capsys, upconv_scenario_path, axis, lo, hi, field):
        # each row is the file's scenario rebuilt at that step and rated
        length = [] if axis == "distance" else ["--length", "40"]
        rc, out, _ = run(
            capsys, "sweep", "--scenario", upconv_scenario_path, "--axis", axis,
            "--lo", repr(lo), "--hi", repr(hi), "--steps", "13", *length,
        )
        assert rc == 0
        sf = parse_scenario(UPCONV)
        expected = [CSV_HEADER]
        for i in range(13):
            value = lo + (hi - lo) * i / 12
            if field is None:
                s, a = sf.build(value)
            else:
                s, a = replace(sf, **{field: value}).build(40.0)
            expected.append(_point_row(secure_rate(s, a)))
        assert out.splitlines() == expected

    @pytest.mark.parametrize("axis", ["distance", "mu", "pump"])
    def test_upconv_sweep_builds_curve_a_fixed_number_of_times(
        self, capsys, monkeypatch, upconv_scenario_path, axis
    ):
        built = []
        curve = scenario_module.UpConversionCurve

        def counting(**kwargs):
            built.append(kwargs)
            return curve(**kwargs)

        monkeypatch.setattr(scenario_module, "UpConversionCurve", counting)
        counts = []
        length = [] if axis == "distance" else ["--length", "40"]
        for steps in ("3", "40"):
            built.clear()
            rc, _, _ = run(
                capsys, "sweep", "--scenario", upconv_scenario_path, "--axis", axis,
                "--lo", "0.1", "--hi", "0.9", "--steps", steps, *length,
            )
            assert rc == 0
            counts.append(len(built))
        assert counts == [1, 1]

    def test_deterministic_output_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "sweep", "--preset", "fig3", "--axis", "distance",
            "--lo", "0", "--hi", "150", "--steps", "76",
        ]
        assert main(args + ["--csv", str(a)]) == 0
        assert main(args + ["--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMaxDistanceCommand:
    def test_band_for_si(self, capsys):
        rc, out, _ = run(
            capsys, "max-distance", "--preset", "fig3", "--detector", "si", "--n", "100"
        )
        assert rc == 0
        km = float(out.split()[-2])
        assert 200.0 <= km <= 320.0

    def test_ingaas_shorter(self, capsys):
        si = float(
            run(capsys, "max-distance", "--preset", "fig3", "--detector", "si", "--n", "100")[1].split()[-2]
        )
        ing = float(
            run(capsys, "max-distance", "--preset", "fig3", "--detector", "ingaas", "--n", "100")[1].split()[-2]
        )
        assert ing <= si - 50.0

    def test_insecure_everywhere(self, capsys, tmp_path):
        path = tmp_path / "insec.scn"
        path.write_text(BASIC.replace("baseline_error = 0.01", "baseline_error = 0.3"))
        rc, _, err = run(capsys, "max-distance", "--scenario", str(path))
        assert rc == 2
        assert "no secure distance" in err

    def test_rmin_shrinks_distance(self, capsys):
        base = float(
            run(capsys, "max-distance", "--preset", "fig3", "--n", "100")[1].split()[-2]
        )
        strict = float(
            run(capsys, "max-distance", "--preset", "fig3", "--n", "100", "--rmin", "1e4")[1].split()[-2]
        )
        assert strict < base


class TestOptimizeCommands:
    def test_optimize_mu(self, capsys):
        rc, out, _ = run(
            capsys, "optimize-mu", "--preset", "fig3", "--length", "100",
            "--lo", "0.01", "--hi", "1.0",
        )
        assert rc == 0
        assert "optimal mu:" in out

    def test_optimize_pump_default_curve(self, capsys):
        rc, out, _ = run(capsys, "optimize-pump", "--lo", "0.0001", "--hi", "0.5")
        assert rc == 0
        values = {line.split()[0]: float(line.split()[1]) for line in out.splitlines()}
        assert values["pump_mw"] == pytest.approx(0.026929, abs=1e-3)
        assert values["efficiency"] == pytest.approx(0.4599, abs=1e-3)

    def test_optimize_pump_scenario_curve(self, capsys, upconv_scenario_path):
        rc, out, _ = run(
            capsys, "optimize-pump", "--scenario", upconv_scenario_path,
            "--lo", "0.0001", "--hi", "0.5",
        )
        assert rc == 0

    def test_optimize_pump_subnormal_pump_prints_no_warning(self):
        # numpy's NEP grid overflows where the efficiency is subnormal
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "dpsrk.cli", "optimize-pump", "--lo", "5e-324", "--hi", "1e-6"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_optimize_pump_dark_fit_touching_zero(self, capsys, touching_scenario_path):
        rc, out, err = run(
            capsys, "optimize-pump", "--scenario", touching_scenario_path,
            "--lo", "3.028302462403944", "--hi", "4.0283024624039445",
        )
        assert (rc, err) == (0, "")
        assert "dark_rate_hz     0.0\n" in out

    def test_optimize_pump_without_block(self, capsys, basic_scenario_path):
        rc, _, err = run(capsys, "optimize-pump", "--scenario", basic_scenario_path)
        assert rc == 1
        assert "upconv" in err


class TestMcCommand:
    def test_link_mode_self_check(self, capsys):
        rc, out, _ = run(
            capsys, "mc", "--preset", "fig3", "--length", "100",
            "--pulses", "200000", "--seed", "42",
        )
        assert rc == 0
        assert "p_click" in out and "qber" in out

    def test_ir_mode_floor(self, capsys, tmp_path):
        path = tmp_path / "toy.scn"
        path.write_text(
            BASIC.replace("detector.efficiency = 0.35", "detector.efficiency = 1.0")
            .replace("mu = 0.2", "mu = 1.0")
            .replace("baseline_error = 0.01", "baseline_error = 0.0")
            .replace("detector.dark_per_window = 3.5e-8", "detector.dark_per_window = 0.0")
            .replace("detector.receiver_loss_db = 2.1", "detector.receiver_loss_db = 0.0")
        )
        rc, out, _ = run(
            capsys, "mc", "--scenario", str(path), "--mode", "ir",
            "--bob-n", "1", "--eve-m", "2", "--pulses", "100000", "--seed", "7",
        )
        assert rc == 0
        qber_line = [line for line in out.splitlines() if line.startswith("qber")][0]
        assert float(qber_line.split()[1]) == pytest.approx(0.25, abs=0.01)

    def test_single_window_exits_zero(self, capsys):
        rc, _, _ = run(
            capsys, "mc", "--preset", "fig3", "--length", "100",
            "--pulses", "1", "--seed", "3",
        )
        assert rc == 0

    def test_deterministic_csv(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "mc", "--preset", "fig3", "--length", "50",
            "--pulses", "100000", "--seed", "11",
        ]
        assert main(args + ["--csv", str(a)]) == 0
        capsys.readouterr()
        assert main(args + ["--csv", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "option, value", [("--ir-fraction", "0.7"), ("--eve-m", "2"), ("--bob-n", "1,10")]
    )
    def test_link_mode_rejects_ir_options(self, capsys, option, value):
        rc, out, err = run(capsys, "mc", "--preset", "fig3", "--pulses", "10", option, value)
        assert rc == 1
        assert out == ""
        assert option in err

    @pytest.mark.parametrize(
        "option, value",
        [("--f-mode", "table"), ("--f-mode", "fixed"), ("--f-value", "1.2"),
         ("--attack", "individual_mem"), ("--delta", "2")],
    )
    def test_rejects_rate_options(self, capsys, option, value):
        # mc samples clicks and errors only, so its parser has no f, attack or dead-time option
        rc, out, err = run(capsys, "mc", "--preset", "fig3", "--pulses", "10", option, value)
        assert rc == 1
        assert out == ""
        assert f"unrecognized arguments: {option} {value}" in err

    @pytest.mark.parametrize("bob_n", ["a,b", "1,,2", "1.5"])
    def test_bad_bob_n_exits_one(self, capsys, bob_n):
        rc, _, err = run(capsys, "mc", "--preset", "fig3", "--pulses", "10", "--bob-n", bob_n)
        assert rc == 1
        assert "--bob-n" in err

    def test_self_check_failure_exits_three(self, capsys, monkeypatch):
        # a skewed result must trip the |z| > 5 gate
        from dpsrk import montecarlo
        from dpsrk.montecarlo import McResult

        def skewed(cfg):
            return McResult.from_counts(cfg.n_pulses, cfg.n_pulses // 2, 0)

        monkeypatch.setattr(montecarlo, "simulate_link", skewed)
        rc, _, _ = run(
            capsys, "mc", "--preset", "fig3", "--length", "100",
            "--pulses", "100000", "--seed", "1",
        )
        assert rc == 3

    def test_z_score_is_infinite_at_zero_error(self):
        # a zero SE with a differing estimate: the self-check must fail, not divide by 0
        assert _z_score(0.5, 0.0, 0.0) == math.inf
        assert _z_score(0.0, 0.5, 0.0) == -math.inf

    @pytest.mark.parametrize("mode", ["link", "ir"])
    def test_no_clicks_exits_zero(self, capsys, tmp_path, mode):
        # nothing clicks: the analytic QBER is NaN and neither z-score is tested
        path = tmp_path / "dead.scn"
        path.write_text(
            BASIC.replace("detector.efficiency = 0.35", "detector.efficiency = 0.0")
            .replace("detector.dark_per_window = 3.5e-8", "detector.dark_per_window = 0.0")
        )
        rc, out, _ = run(capsys, "mc", "--scenario", str(path), "--mode", mode,
                         "--pulses", "1000", "--seed", "2")
        assert rc == 0
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
        assert rows["clicks"] == ["0"]
        assert rows["p_click"][-1] == rows["qber"][-1] == "0.000"


class TestPlotCommand:
    def _sweep_csv(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--preset", "fig3", "--axis", "distance",
                "--lo", "0", "--hi", "100", "--steps", "11", "--csv", str(path),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        return path

    def test_script_references_csv_verbatim(self, capsys, tmp_path):
        csv_path = self._sweep_csv(tmp_path, capsys)
        rc, out, _ = run(capsys, "plot", str(csv_path))
        assert rc == 0
        script_path = str(csv_path) + ".plot.py"
        script = Path(script_path).read_text()
        assert repr(str(csv_path)) in script
        assert "set_yscale('log')" in script

    def test_empty_csv_warning_comment(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        rc, _, _ = run(capsys, "plot", str(path))
        assert rc == 0
        script = Path(str(path) + ".plot.py").read_text()
        assert "no data rows" in script

    def test_merged_two_detector_csv_labels(self, capsys, tmp_path):
        base = self._sweep_csv(tmp_path, capsys).read_text().splitlines()
        merged = tmp_path / "merged.csv"
        rows = ["detector," + base[0]]
        rows += ["si," + line for line in base[1:]]
        rows += ["ingaas," + line for line in base[1:]]
        merged.write_text("\n".join(rows) + "\n")
        rc, _, _ = run(capsys, "plot", str(merged))
        assert rc == 0
        script = Path(str(merged) + ".plot.py").read_text()
        assert "'si'" in script
        assert "'ingaas'" in script

    def test_missing_csv_exits_one(self, capsys, tmp_path):
        rc, _, err = run(capsys, "plot", str(tmp_path / "nope.csv"))
        assert rc == 1

    def test_garbled_csv_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("L_km,p_signal\n1.0\n")
        rc, _, _ = run(capsys, "plot", str(path))
        assert rc == 1

    def test_non_numeric_axis_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("L_km,secure_bps\nabc,1\ndef,2\n")
        rc, _, err = run(capsys, "plot", str(path))
        assert rc == 1
        assert err.startswith("error:") and "L_km" in err

    def test_oversized_field_exits_one(self, capsys, tmp_path):
        # a field past the csv module's 131072-character limit
        path = tmp_path / "big.csv"
        path.write_text("L_km,secure_bps\n1," + "x" * 200_000 + "\n")
        rc, out, err = run(capsys, "plot", str(path))
        assert rc == 1
        assert out == ""
        assert err == f"error: {path}: field larger than field limit (131072)\n"

    def test_custom_out_path(self, capsys, tmp_path):
        csv_path = self._sweep_csv(tmp_path, capsys)
        out_path = tmp_path / "custom_plot.py"
        rc, _, _ = run(capsys, "plot", str(csv_path), "--out", str(out_path))
        assert rc == 0
        assert out_path.exists()

    def test_script_is_valid_python(self, capsys, tmp_path):
        csv_path = self._sweep_csv(tmp_path, capsys)
        run(capsys, "plot", str(csv_path))
        script = Path(str(csv_path) + ".plot.py").read_text()
        compile(script, "plot.py", "exec")  # syntax only, never executed


class TestPresetsCommand:
    def test_list(self, capsys):
        rc, out, _ = run(capsys, "presets", "list")
        assert rc == 0
        for name in ("fig3", "fig12", "alt"):
            assert name in out


class TestBadInputFiles:
    @pytest.mark.parametrize(
        "argv",
        [["rate", "--scenario", "x.preset"], ["plot", "x.preset"], ["presets", "list"]],
    )
    def test_non_utf8_exits_one(self, capsys, tmp_path, monkeypatch, argv):
        (tmp_path / "x.preset").write_bytes(b"mu = 0.2\xff\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DPSRK_PRESET_DIR", str(tmp_path))
        rc, _, err = run(capsys, *argv)
        assert rc == 1
        assert err.startswith("error:") and "UTF-8" in err

    def test_missing_key_exits_one(self, capsys, tmp_path):
        path = tmp_path / "nokey.scn"
        path.write_text("= 0.2\n")
        rc, out, err = run(capsys, "rate", "--scenario", str(path))
        assert (rc, out) == (1, "")
        assert "line 1, column 1: missing key before '='" in err


def _file_bytes(line: st.SearchStrategy[str]) -> st.SearchStrategy[bytes]:
    """Raw bytes, or UTF-8 text whose lines ``line`` draws."""
    return st.one_of(st.binary(), st.lists(line, max_size=8).map(lambda ls: "\n".join(ls).encode()))


_number = st.one_of(st.floats().map(repr), st.integers().map(str))
_scenario_line = st.one_of(
    st.text(),
    st.builds("{} = {}".format, st.sampled_from(sorted(KNOWN_KEYS)), st.one_of(st.text(), _number)),
)
_csv_line = st.one_of(
    st.text(),
    st.just(CSV_HEADER),
    st.lists(st.one_of(st.text(), _number), max_size=11).map(",".join),
)


# A valid call of each command.  Drawn options follow it and, coming later,
# override its values; 1000 windows keep mc cheap.
_ARGV_BASE = {
    "rate": ["--preset", "fig3"],
    "sweep": ["--preset", "fig3", "--axis", "distance", "--lo", "0", "--hi", "100", "--steps", "5"],
    "max-distance": ["--preset", "fig3"],
    "optimize-mu": ["--preset", "fig3"],
    "optimize-pump": [],
    "mc": ["--preset", "fig3", "--pulses", "1000"],
}
# Each command's options by name.  -h/--help is left out: it exits through
# SystemExit(0).
_ARGV_OPTIONS = {
    command: {
        action.option_strings[0]: action
        for action in build_parser()._subparsers._group_actions[0].choices[command]._actions
        if action.option_strings and action.dest != "help"
    }
    for command in _ARGV_BASE
}
_argv_odd = st.sampled_from(
    ["", "nan", "inf", "-inf", "a,b", "1,10", *(a.value for a in AttackModel)]
)
# Options whose large values cost time: the sampler's windows and the sweep's steps.
_ARGV_COUNTS = {"--pulses": 10**4, "--steps": 200}


def _argv_value(option: str, action) -> st.SearchStrategy[str]:
    """Values of the option's own kind, numbers of any size and odd words."""
    if option in _ARGV_COUNTS:
        return st.one_of(st.integers(max_value=_ARGV_COUNTS[option]).map(str), _argv_odd)
    if action.choices:
        own = st.sampled_from(sorted(action.choices))
    elif option == "--preset":
        own = st.sampled_from(sorted(load_presets()))
    elif action.type is _integer:
        own = st.integers(-2, 1000).map(str)
    else:
        own = st.floats(-1.0, 200.0).map(repr)
    return st.one_of(own, st.one_of(_number, _argv_odd))


_ARGV_VALUES = {
    option: _argv_value(option, action)
    for options in _ARGV_OPTIONS.values()
    for option, action in options.items()
}


_fuzz_settings = settings(
    max_examples=60, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestFuzz:
    """Arbitrary input files and argument lists end in an exit code, never in a traceback.

    Each example writes to new file names: truncating a file that holds data
    can cost tens of milliseconds on ext4, creating one does not.
    """

    names = itertools.count()

    @_fuzz_settings
    @given(data=_file_bytes(_scenario_line))
    def test_scenario_file(self, tmp_path, data):
        path = tmp_path / f"{next(self.names)}.scn"
        path.write_bytes(data)
        assert main(["rate", "--scenario", str(path), "--length", "10"]) in (0, 1, 2, 3)

    @_fuzz_settings
    @given(data=_file_bytes(_csv_line))
    def test_plot_csv(self, tmp_path, data):
        path = tmp_path / f"{next(self.names)}.csv"
        path.write_bytes(data)
        assert main(["plot", str(path), "--out", f"{path}.py"]) in (0, 1, 2, 3)

    @_fuzz_settings
    @given(data=st.data())
    def test_argv(self, tmp_path, upconv_scenario_path, data):
        command = data.draw(st.sampled_from(sorted(_ARGV_BASE)))
        argv = [command, *_ARGV_BASE[command]]
        paths = st.sampled_from([upconv_scenario_path, str(tmp_path / "missing.scn")])
        # mostly the command's own options, but also those other commands own
        options = st.one_of(
            st.sampled_from(sorted(_ARGV_OPTIONS[command])), st.sampled_from(sorted(_ARGV_VALUES))
        )
        for option in data.draw(st.lists(options, max_size=4)):
            if option == "--csv":
                value = str(tmp_path / f"{next(self.names)}.csv")
            elif option == "--scenario":
                value = data.draw(paths)
            else:
                value = data.draw(_ARGV_VALUES[option])
            argv += [option, value]
        assert main(argv) in (0, 1, 2, 3), argv


_SOURCE_COMMANDS = [
    ["rate", "--length", "50"],
    ["sweep", "--axis", "distance", "--lo", "0", "--hi", "10", "--steps", "3"],
    ["max-distance"],
    ["optimize-mu", "--length", "50"],
    ["mc", "--pulses", "10"],
]


class TestUsage:
    def test_no_command(self, capsys):
        rc, _, err = run(capsys)
        assert rc == 1

    def test_unknown_command(self, capsys):
        rc, _, _ = run(capsys, "frobnicate")
        assert rc == 1

    @pytest.mark.parametrize("command", _SOURCE_COMMANDS)
    def test_detector_with_scenario_rejected(self, capsys, basic_scenario_path, command):
        # a scenario file names its own detector
        rc, out, err = run(
            capsys, *command, "--scenario", basic_scenario_path, "--detector", "ingaas"
        )
        assert rc == 1
        assert out == ""
        assert "--detector only applies with --preset" in err

    @pytest.mark.parametrize("f_mode", [[], ["--f-mode", "table"]])
    @pytest.mark.parametrize("command", _SOURCE_COMMANDS[:4])
    def test_f_value_without_fixed_mode_rejected(self, capsys, command, f_mode):
        # the table gives f unless --f-mode fixed, so the value would go unused
        rc, out, err = run(capsys, *command, "--preset", "fig3", *f_mode, "--f-value", "1.3")
        assert rc == 1
        assert out == ""
        assert "--f-value only applies with --f-mode fixed" in err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--preset", "fig3", "--axis", "distance", "--steps", "3",
              "--lo", "5", "--hi", "5"],
             "--lo must be < --hi"),
            (["optimize-pump", "--lo", "0", "--hi", "0"],
             "efficiency is zero at the degenerate pump range"),
            (["optimize-pump", "--lo", "0", "--hi", "1e-300"],
             "efficiency is zero at the degenerate pump range [0.0, 1e-300]"),
        ],
        ids=["sweep-empty-range", "optimize-pump-zero-efficiency", "optimize-pump-names-range"],
    )
    def test_bad_range_exits_one(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert message in err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        import subprocess
        import sys

        args = [
            sys.executable, "-m", "dpsrk.cli", "sweep", "--preset", "fig3",
            "--axis", "distance", "--lo", "0", "--hi", "50", "--steps", "6",
        ]
        first = subprocess.run(args, capture_output=True, text=False)
        second = subprocess.run(args, capture_output=True, text=False)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.decode().splitlines()[0] == CSV_HEADER

    def test_insecure_exit_code_across_process(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "dpsrk.cli", "rate", "--preset", "fig3",
             "--length", "400"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_numpy_loaded_only_by_sampler_and_mu_grid(self, upconv_scenario_path):
        # only `mc` and the grid screens of `optimize-mu` and `optimize-pump`
        # need numpy; the other commands start without it
        import subprocess
        import sys

        code = (
            "import contextlib, io, sys\n"
            "from dpsrk.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['rate', '--preset', 'fig3'])\n"
            "    main(['max-distance', '--preset', 'fig3'])\n"
            "    assert main(['sweep', '--preset', 'fig3', '--axis', 'distance',\n"
            "                 '--lo', '0', '--hi', '100', '--steps', '5']) == 0\n"
            f"    assert main(['sweep', '--scenario', {upconv_scenario_path!r}, '--axis', 'pump',\n"
            "                 '--lo', '0', '--hi', '1', '--steps', '5', '--length', '25']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
            "import dpsrk\n"
            "assert not hasattr(dpsrk, 'no_such_name')\n"
            "assert dpsrk.McConfig is dpsrk.montecarlo.McConfig\n"
            "assert 'numpy' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


_flag_sets = st.frozensets(
    st.sampled_from(["above_ec_range", "clamped", "deadtime_limited", "insecure"])
)


class TestPointRow:
    """The CSV row holds each value's repr and then the sorted flags; the text view shows it."""

    @given(
        values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=10, max_size=10),
        flags=_flag_sets,
    )
    def test_fields_are_values_then_sorted_flags(self, values, flags):
        row = _point_row(RatePoint(*values, flags))
        assert row.split(",") == [repr(float(v)) for v in values] + ["|".join(sorted(flags))]

    def test_nan_f_and_empty_flags(self, capsys):
        base, attack = load_presets()["fig3"].scenario("si", length_km=10.0)
        above = secure_rate(replace(base, baseline_error=0.2), attack)
        secure = secure_rate(base, attack)
        assert math.isnan(above.f_used) and secure.flags == frozenset()
        for point in (above, secure):
            _print_point(point)
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 12 and lines[-1].split()[0] == "secure"
            shown = [line.split()[1] for line in lines[:11]]
            assert ",".join("" if v == "-" else v for v in shown) == _point_row(point)
        assert _point_row(secure).endswith(",")


class TestBrokenPipe:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--preset", "fig3", "--length", "10"],
            ["sweep", "--preset", "fig3", "--axis", "distance",
             "--lo", "0", "--hi", "300", "--steps", "3001"],
        ],
        ids=["rate", "sweep"],
    )
    def test_closed_reader_exits_one_silently(self, argv):
        # the read end is closed before the child starts, so its first write
        # to stdout fails with EPIPE every time
        import os
        import subprocess
        import sys

        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dpsrk.cli", *argv], stdout=write_fd, stderr=subprocess.PIPE
            )
        finally:
            os.close(write_fd)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestCLocaleNumbers:
    """Number options take C-locale numerals only, as scenario files do."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--preset", "fig3", "--length", "1_0"],
            ["rate", "--preset", "fig3", "--length", "\u0661\u0660"],
            ["rate", "--preset", "fig3", "--n", "1_0"],
            ["rate", "--preset", "fig3", "--n", "\u0661\u0660"],
            ["sweep", "--preset", "fig3", "--axis", "distance", "--lo", "0", "--hi", "1",
             "--steps", "1_0"],
            ["mc", "--preset", "fig3", "--pulses", "1_000"],
            ["mc", "--preset", "fig3", "--pulses", "1000", "--seed", "\u0661"],
            ["mc", "--preset", "fig3", "--pulses", "1000", "--mode", "ir", "--eve-m", "1_0"],
            ["mc", "--preset", "fig3", "--pulses", "1000", "--mode", "ir", "--bob-n", "1,1_0"],
            ["mc", "--preset", "fig3", "--pulses", "1000", "--mode", "ir",
             "--bob-n", "1,\u0661\u0660"],
        ],
    )
    def test_python_only_numerals_are_usage_errors(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--preset", "fig3", "--length", "10", "--n", "10"],
            ["mc", "--preset", "fig3", "--pulses", "1000", "--seed", "7", "--mode", "ir",
             "--eve-m", "1", "--bob-n", "1,10"],
        ],
    )
    def test_c_locale_numerals_still_run(self, capsys, argv):
        rc, _, err = run(capsys, *argv)
        assert rc in (0, 2), err
