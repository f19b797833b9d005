"""The benchmark's tracer still wraps the scenario path, the CLI and the rate chain.

``bench/tracing.py`` swaps module attributes of ``dpsrk.scenario``,
``dpsrk.cli``, ``dpsrk.link``, ``dpsrk.security`` and ``dpsrk.rate`` for timing
wrappers while ``bench/run.py --trace 1`` runs.  A refactor that looks those
names up in another way, or reads the fields of a wrapped class at call time,
breaks traced runs or blinds their per-layer figures; these tests catch that.
"""

import importlib.util
from pathlib import Path

import pytest

import dpsrk.cli
import dpsrk.rate
import dpsrk.scenario

from conftest import HYBRID_NOMEM, IND_MEM, IND_NOMEM, si_scenario
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


HYBRID_LAYERS = ("security.surviving_fraction", "security.shrink_hybrid")
INDIVIDUAL_LAYERS = (
    "security.poisson_multiphoton",
    "security.single_photon_fraction",
    "security.shrink_individual",
)


@pytest.mark.parametrize(
    "attack, layers, others",
    [
        (HYBRID_NOMEM, HYBRID_LAYERS, INDIVIDUAL_LAYERS),
        (IND_MEM, INDIVIDUAL_LAYERS, HYBRID_LAYERS),
        (IND_NOMEM, INDIVIDUAL_LAYERS, HYBRID_LAYERS),
    ],
    # positional ids, as for the other parameters, rather than the enum members' names
    ids=[f"attack{i}-layers{i}-others{i}" for i in range(3)],
)
def test_traced_secure_rate_sees_each_layer_once(attack, layers, others):
    # mu = 0.01 at 10 km leaves a positive single-photon fraction, so the
    # individual chain reaches shrink_individual
    s = si_scenario(10.0, mu=0.01)
    tracer = load_tracer()
    tracer.install()
    try:
        point = dpsrk.rate.secure_rate(s, attack)
    finally:
        tracer.uninstall()
    assert point.secure
    for name in ("rate.secure_rate", "link.channel_stats", "security.f_ec", *layers):
        assert tracer.calls[name] == 1, name
    for name in others:
        assert tracer.calls[name] == 0, name


@pytest.mark.parametrize(
    "attack, layers, others",
    [
        (HYBRID_NOMEM, HYBRID_LAYERS, INDIVIDUAL_LAYERS),
        (IND_MEM, INDIVIDUAL_LAYERS, HYBRID_LAYERS),
    ],
    ids=["hybrid", "individual"],
)
def test_traced_above_range_point_skips_f_ec(attack, layers, others):
    # b = 0.2 puts the QBER above the correction table, which secure_rate
    # tests against the table's last breakpoint without calling f_ec
    s = si_scenario(10.0, mu=0.01, baseline_error=0.2)
    tracer = load_tracer()
    tracer.install()
    try:
        point = dpsrk.rate.secure_rate(s, attack)
    finally:
        tracer.uninstall()
    assert dpsrk.rate.FLAG_ABOVE_EC_RANGE in point.flags
    assert tracer.calls["security.f_ec"] == 0
    for name in ("rate.secure_rate", "link.channel_stats", *layers):
        assert tracer.calls[name] == 1, name
    for name in others:
        assert tracer.calls[name] == 0, name
