"""Flat key=value scenario files.

A scenario file pins every parameter of a link except the length, which the
CLI commands supply.  The format is one ``key = value`` pair per line,
``#`` starts a comment, numbers use C-locale decimals, and unknown or
duplicate keys are rejected with line/column diagnostics.
"""

from __future__ import annotations

import math
import os
from collections.abc import Container
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .detector import (
    DetectorSpec,
    UpConversionCurve,
    make_detector_from_upconversion,
)
from .errors import ModelDomainError, ScenarioParseError
from .link import LinkScenario
from .security import AttackModel


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario parameters, kept verbatim for lossless round-trips.

    Each field but ``upconv`` is one file key: ``detector_*`` fields and ``upconv_pump_mw``
    are read from dotted keys, the others from their own names.  ``upconv`` is the curve of
    the ``upconv.*`` curve keys, or None without them; ``parse_scenario`` builds it, so a bad
    curve, such as a dark-rate fit negative on the pump domain, raises ModelDomainError there.
    Fields without a default are required keys.
    """

    mu: float
    alpha_db_per_km: float
    clock_hz: float
    baseline_error: float
    delay_n: int
    attack: str
    detector_name: str
    detector_dead_time_s: float
    detector_receiver_loss_db: float
    delta: float = 0.5
    detector_efficiency: float | None = None
    detector_dark_per_window: float | None = None
    upconv: UpConversionCurve | None = None
    upconv_pump_mw: float | None = None

    def upconversion_curve(self) -> UpConversionCurve | None:
        return self.upconv

    def build(self, length_km: float) -> tuple[LinkScenario, AttackModel]:
        """Materialize the scenario at one link length."""
        if self.upconv is not None and self.upconv_pump_mw is not None:
            detector = make_detector_from_upconversion(
                self.upconv,
                self.upconv_pump_mw,
                dead_time=self.detector_dead_time_s,
                receiver_loss_db=self.detector_receiver_loss_db,
                name=self.detector_name,
            )
        else:
            detector = DetectorSpec(
                name=self.detector_name,
                efficiency=self.detector_efficiency,
                dark_per_window=self.detector_dark_per_window,
                dead_time=self.detector_dead_time_s,
                receiver_loss_db=self.detector_receiver_loss_db,
            )
        scenario = LinkScenario(
            mu=self.mu,
            alpha_db_per_km=self.alpha_db_per_km,
            length_km=length_km,
            clock_hz=self.clock_hz,
            baseline_error=self.baseline_error,
            detector=detector,
            delay_n=self.delay_n,
            dead_time_delta=self.delta,
        )
        return scenario, AttackModel(self.attack)


def _key(name: str) -> str:
    """The file key of a ScenarioFile field."""
    group, _, rest = name.partition("_")
    return f"{group}.{rest}" if group in ("detector", "upconv") else name


# The curve's parameters, each read from the key ``upconv.<name>``.  Read
# here, at import, so that a caller may swap ``UpConversionCurve`` for a
# wrapper function afterwards.
_CURVE = fields(UpConversionCurve)

#: Every scenario-file key, mapped to the ScenarioFile or UpConversionCurve field it fills.
KNOWN_KEYS = {}
for _field in fields(ScenarioFile):
    if _field.name == "upconv":
        for _curve_field in _CURVE:
            KNOWN_KEYS[f"upconv.{_curve_field.name}"] = _curve_field
    else:
        KNOWN_KEYS[_key(_field.name)] = _field


def read_text(path: str | os.PathLike) -> str:
    """Read a UTF-8 input file; undecodable bytes raise ScenarioParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: not valid UTF-8 (byte {exc.start}: {exc.reason})"
        ) from None


def tokenize_kv(text: str) -> list[tuple[str, str, int, int]]:
    """Split key=value lines into (key, value, line, column-of-value) tuples."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ScenarioParseError("expected 'key = value'", lineno, len(line.rstrip()) + 1)
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        value = value_part.strip()
        if not key:
            raise ScenarioParseError("missing key before '='", lineno, 1)
        if not value:
            raise ScenarioParseError(f"missing value for key '{key}'", lineno, len(line) + 1)
        col = len(line) - len(value_part.lstrip()) + 1
        out.append((key, value, lineno, col))
    return out


def _c_numeral(convert, text: str):
    """``convert(text)`` for ``float`` or ``int``, taking only C-locale numerals.

    Raises:
        ValueError: ``text`` is no number, or one that only Python reads,
            such as ``1_0`` or non-ASCII digits.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a C-locale number: {text!r}")
    return convert(text)


def _parse_float(key: str, value: str, line: int, col: int) -> float:
    try:
        parsed = _c_numeral(float, value)
    except ValueError:
        raise ScenarioParseError(f"invalid number for key '{key}': {value!r}", line, col) from None
    if not math.isfinite(parsed):
        raise ScenarioParseError(f"non-finite value for key '{key}': {value!r}", line, col)
    return parsed


def _parse_int(key: str, value: str, line: int, col: int) -> int:
    try:
        return _c_numeral(int, value)
    except ValueError:
        raise ScenarioParseError(f"invalid integer for key '{key}': {value!r}", line, col) from None


def read_keys(
    text: str, known: Container[str], where: str = ""
) -> dict[str, tuple[str, int, int]]:
    """Map each key of key=value text to its (value, line, column-of-value).

    A key not in ``known``, or given twice, raises ScenarioParseError at its
    line; ``where`` ends that message.
    """
    seen: dict[str, tuple[str, int, int]] = {}
    for key, value, line, col in tokenize_kv(text):
        if key not in known:
            raise ScenarioParseError(f"unknown key '{key}'{where}", line, 1)
        if key in seen:
            raise ScenarioParseError(f"duplicate key '{key}'{where}", line, 1)
        seen[key] = (value, line, col)
    return seen


# Field type -> the parser of a value of that type.
_PARSERS = {"float": _parse_float, "int": _parse_int, "str": lambda key, value, line, col: value}


def parse_scenario(text: str) -> ScenarioFile:
    """Parse scenario text; raises ScenarioParseError with diagnostics."""
    seen = read_keys(text, KNOWN_KEYS)
    values: dict[str, object] = {}
    for key, (value, line, col) in seen.items():
        field = KNOWN_KEYS[key]
        values[field.name] = _PARSERS[field.type.partition(" ")[0]](key, value, line, col)

    def require(key: str):
        if key not in seen:
            raise ScenarioParseError(f"missing required key '{key}'")

    for field in fields(ScenarioFile):
        if field.default is MISSING:
            require(_key(field.name))

    try:
        AttackModel(values["attack"])
    except ModelDomainError as exc:
        raise ScenarioParseError(str(exc), *seen["attack"][1:]) from None

    curve_keys = [f"upconv.{field.name}" for field in _CURVE]
    upconv_present = [k for k in curve_keys if k in seen]
    if upconv_present and len(upconv_present) != len(curve_keys):
        missing = sorted(set(curve_keys) - set(upconv_present))
        raise ScenarioParseError(f"incomplete upconv block: missing {', '.join(missing)}")
    if "upconv.pump_mw" in seen:
        if not upconv_present:
            raise ScenarioParseError("upconv.pump_mw given without the upconv curve keys")
        for key in ("detector.efficiency", "detector.dark_per_window"):
            if key in seen:
                raise ScenarioParseError(
                    f"key '{key}' conflicts with upconv.pump_mw (the pump fixes it)",
                    seen[key][1],
                    1,
                )
    else:
        for key in ("detector.efficiency", "detector.dark_per_window"):
            require(key)

    if upconv_present:
        values["upconv"] = UpConversionCurve(**{f.name: values.pop(f.name) for f in _CURVE})
    return ScenarioFile(**values)


def serialize_scenario(sf: ScenarioFile) -> str:
    """Render a ScenarioFile back to text; parse(serialize(x)) == x."""
    lines = []
    for key, field in KNOWN_KEYS.items():
        value = getattr(sf.upconv if field in _CURVE else sf, field.name, None)
        if value is None:
            continue
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"
