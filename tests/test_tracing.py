"""The benchmark's tracer still wraps the scenario path and the CLI.

``bench/tracing.py`` swaps module attributes of ``dpsrk.scenario`` and
``dpsrk.cli`` for timing wrappers while ``bench/run.py --trace 1`` runs.
A refactor that looks those names up in another way, or reads the fields of
a wrapped class at call time, breaks traced runs; this test catches that.
"""

import importlib.util
from pathlib import Path

import dpsrk.cli
import dpsrk.scenario

from test_scenario import UPCONV

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("dpsrk_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_traced_scenario_file_and_sweep(tmp_path, capsys):
    path = tmp_path / "upconv.scn"
    path.write_text(UPCONV)
    tracer = load_tracer()
    tracer.install()
    try:
        s, _attack = dpsrk.scenario.parse_scenario(UPCONV).build(25.0)
        rc = dpsrk.cli.main(
            ["sweep", "--scenario", str(path), "--axis", "pump",
             "--lo", "0", "--hi", "1", "--steps", "5", "--length", "25"]
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert s.length_km == 25.0
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["scenario.parse_scenario"] == 2
    assert tracer.calls["detector.UpConversionCurve"] >= 2
    assert tracer.calls["detector.make_detector_from_upconversion"] >= 5
    # uninstalling restores the real functions
    assert not hasattr(dpsrk.cli.main, "__wrapped__")
    assert not hasattr(dpsrk.scenario.UpConversionCurve, "__wrapped__")
