"""Golden regression values for the rate chain and its solvers.

``tests/data/golden.csv`` pins, with every float written by ``repr``:

- ``rate``: every preset x {si, ingaas} x attack at the preset's first N and
  L in {0, 50, 100, 200, 300} km, with the cascade ``f(e)`` table;
- ``optimize_mu``: mu* and its point for mu in [0.01, 1] at 100 km;
- ``max_distance``: the largest secure distance at ``r_min = 0``, or the
  name of the error raised;
- ``optimize_pump``: the NEP-optimal pump of ``PPLN_UPCONVERTER`` over ranges
  spanning one efficiency fringe to many;
- ``rate_fixed_f``: single points evaluated with a fixed overhead.

Every field must agree to 1e-12 relative.  Regenerate the file only for an
intended change of the model, and name the rows it changes:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace
from pathlib import Path

import pytest

from dpsrk.detector import PPLN_UPCONVERTER, optimize_pump
from dpsrk.errors import DpsrkError
from dpsrk.presets import load_presets
from dpsrk.rate import RatePoint, max_secure_distance, optimize_mu, secure_rate
from dpsrk.security import AttackModel

GOLDEN_PATH = Path(__file__).parent / "data" / "golden.csv"

KEY = ("kind", "preset", "detector", "attack", "arg")
POINT = (
    "p_signal", "p_dark", "p_click", "qber", "tau", "f_used",
    "sifted_rate_hz", "secure_rate_hz", "secure_rate_deadtime_hz",
)
COLUMNS = KEY + ("value",) + POINT + ("efficiency", "dark_rate_hz", "flags")

LENGTHS_KM = (0.0, 50.0, 100.0, 200.0, 300.0)
MU_RANGE = (0.01, 1.0)
MU_LENGTH_KM = 100.0
PUMP_RANGES = ((0.0, 0.12), (0.05, 0.6), (0.0, 3.0), (0.0, 30.0))
# (preset, detector, attack, mu, length_km, f_fixed)
FIXED_F_POINTS = (("fig4", "ingaas", "individual_mem", 0.1, 24.5, 1.16),)


def _row(kind, preset, detector, attack, arg, **fields) -> dict[str, str]:
    row = dict.fromkeys(COLUMNS, "")
    row.update(kind=kind, preset=preset, detector=detector, attack=attack, arg=arg)
    for name, value in fields.items():
        row[name] = value if isinstance(value, str) else repr(float(value))
    return row


def _point_fields(point: RatePoint) -> dict:
    fields = {name: getattr(point, name) for name in POINT}
    fields["flags"] = "|".join(sorted(point.flags))
    return fields


def golden_rows() -> list[dict[str, str]]:
    rows = []
    registry = load_presets()
    for pname, preset in registry.items():
        n = preset.n_set[0]
        for det in ("si", "ingaas"):
            for attack in (a.value for a in AttackModel):
                s, a = preset.scenario(det, delay_n=n, attack=attack)
                for length in LENGTHS_KM:
                    point = secure_rate(replace(s, length_km=length), a)
                    rows.append(_row("rate", pname, det, attack, repr(length),
                                     **_point_fields(point)))
                mu, point = optimize_mu(replace(s, length_km=MU_LENGTH_KM), a, MU_RANGE)
                rows.append(_row("optimize_mu", pname, det, attack,
                                 f"{MU_RANGE[0]!r}:{MU_RANGE[1]!r}@{MU_LENGTH_KM!r}",
                                 value=mu, **_point_fields(point)))
                try:
                    fields = {"value": max_secure_distance(s, a, 0.0)}
                except DpsrkError as exc:
                    fields = {"flags": type(exc).__name__}
                rows.append(_row("max_distance", pname, det, attack, "0.0", **fields))
    for lo, hi in PUMP_RANGES:
        op = optimize_pump(PPLN_UPCONVERTER, (lo, hi))
        rows.append(_row("optimize_pump", "PPLN_UPCONVERTER", "", "", f"{lo!r}:{hi!r}",
                         value=op.pump_mw, efficiency=op.efficiency,
                         dark_rate_hz=op.dark_rate_hz))
    for pname, det, attack, mu, length, f in FIXED_F_POINTS:
        preset = registry[pname]
        s, a = preset.scenario(det, delay_n=preset.n_set[0], attack=attack, length_km=length)
        point = secure_rate(replace(s, mu=mu), a, f_fixed=f)
        rows.append(_row("rate_fixed_f", pname, det, attack, f"mu={mu!r} L={length!r} f={f!r}",
                         **_point_fields(point)))
    return rows


def render(rows: list[dict[str, str]]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _same(expected: str, actual: str, column: str) -> bool:
    if column == "flags" or not expected or not actual:
        return expected == actual
    e, a = float(expected), float(actual)
    if math.isnan(e) or math.isnan(a):
        return math.isnan(e) and math.isnan(a)
    return math.isclose(e, a, rel_tol=1e-12, abs_tol=0.0)


def _key(row: dict[str, str]) -> tuple[str, ...]:
    return tuple(row[k] for k in KEY)


@pytest.fixture(scope="module")
def expected() -> dict[tuple[str, ...], dict[str, str]]:
    with open(GOLDEN_PATH, newline="") as fh:
        return {_key(row): row for row in csv.DictReader(fh)}


@pytest.fixture(scope="module")
def actual() -> dict[tuple[str, ...], dict[str, str]]:
    return {_key(row): row for row in golden_rows()}


def test_same_cases(expected, actual):
    assert list(actual) == list(expected)


def test_values_match(expected, actual):
    mismatches = [
        (key, column, want[column], actual[key][column])
        for key, want in expected.items()
        if key in actual
        for column in COLUMNS[len(KEY):]
        if not _same(want[column], actual[key][column], column)
    ]
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[:5]}"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(render(golden_rows()))
    print(f"wrote {GOLDEN_PATH}")
