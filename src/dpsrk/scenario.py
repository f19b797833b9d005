"""Flat key=value scenario files.

A scenario file pins every parameter of a link except the length, which the
CLI commands supply.  The format is one ``key = value`` pair per line,
``#`` starts a comment, numbers use C-locale decimals, and unknown or
duplicate keys are rejected with line/column diagnostics.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .detector import (
    DetectorMode,
    DetectorSpec,
    UpConversionCurve,
    make_detector_from_upconversion,
)
from .errors import ScenarioParseError
from .link import LinkScenario
from .security import AttackKind, AttackModel

ATTACK_NAMES = {
    "individual_mem": (AttackKind.INDIVIDUAL_WITH_MEMORY, True),
    "individual_nomem": (AttackKind.INDIVIDUAL_NO_MEMORY, False),
    "hybrid_mem": (AttackKind.HYBRID_BS_IR, True),
    "hybrid_nomem": (AttackKind.HYBRID_BS_IR, False),
}

_FLOAT_KEYS = {
    "mu": "mu",
    "alpha_db_per_km": "alpha_db_per_km",
    "clock_hz": "clock_hz",
    "baseline_error": "baseline_error",
    "delta": "delta",
    "detector.efficiency": "detector_efficiency",
    "detector.dark_per_window": "detector_dark_per_window",
    "detector.dead_time_s": "detector_dead_time_s",
    "detector.receiver_loss_db": "detector_receiver_loss_db",
    "upconv.a1": "upconv_a1",
    "upconv.a2": "upconv_a2",
    "upconv.b0": "upconv_b0",
    "upconv.b1": "upconv_b1",
    "upconv.b2": "upconv_b2",
    "upconv.b3": "upconv_b3",
    "upconv.b4": "upconv_b4",
    "upconv.bandwidth_hz": "upconv_bandwidth_hz",
    "upconv.pump_mw": "upconv_pump_mw",
}
_INT_KEYS = {"delay_n": "delay_n"}
_STR_KEYS = {
    "attack": "attack",
    "detector.name": "detector_name",
    "detector.mode": "detector_mode",
}
KNOWN_KEYS = set(_FLOAT_KEYS) | set(_INT_KEYS) | set(_STR_KEYS)

_UPCONV_CURVE_KEYS = (
    "upconv.a1",
    "upconv.a2",
    "upconv.b0",
    "upconv.b1",
    "upconv.b2",
    "upconv.b3",
    "upconv.b4",
    "upconv.bandwidth_hz",
)


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario parameters, kept verbatim for lossless round-trips."""

    mu: float
    alpha_db_per_km: float
    clock_hz: float
    baseline_error: float
    delay_n: int
    attack: str
    detector_name: str
    detector_dead_time_s: float
    detector_receiver_loss_db: float
    delta: float | None = None
    detector_efficiency: float | None = None
    detector_dark_per_window: float | None = None
    detector_mode: str | None = None
    upconv_a1: float | None = None
    upconv_a2: float | None = None
    upconv_b0: float | None = None
    upconv_b1: float | None = None
    upconv_b2: float | None = None
    upconv_b3: float | None = None
    upconv_b4: float | None = None
    upconv_bandwidth_hz: float | None = None
    upconv_pump_mw: float | None = None

    def upconversion_curve(self) -> UpConversionCurve | None:
        if self.upconv_a1 is None:
            return None
        return UpConversionCurve(
            a1=self.upconv_a1,
            a2=self.upconv_a2,
            b0=self.upconv_b0,
            b1=self.upconv_b1,
            b2=self.upconv_b2,
            b3=self.upconv_b3,
            b4=self.upconv_b4,
            bandwidth_hz=self.upconv_bandwidth_hz,
        )

    def detector(self) -> DetectorSpec:
        curve = self.upconversion_curve()
        if curve is not None and self.upconv_pump_mw is not None:
            return make_detector_from_upconversion(
                curve,
                self.upconv_pump_mw,
                dead_time=self.detector_dead_time_s,
                receiver_loss_db=self.detector_receiver_loss_db,
                name=self.detector_name,
            )
        mode = DetectorMode(self.detector_mode) if self.detector_mode else DetectorMode.GATED
        return DetectorSpec(
            name=self.detector_name,
            efficiency=self.detector_efficiency,
            dark_per_window=self.detector_dark_per_window,
            dead_time=self.detector_dead_time_s,
            receiver_loss_db=self.detector_receiver_loss_db,
            mode=mode,
        )

    def build(self, length_km: float) -> tuple[LinkScenario, AttackModel]:
        """Materialize the scenario at one link length."""
        kind, memory = ATTACK_NAMES[self.attack]
        scenario = LinkScenario(
            mu=self.mu,
            alpha_db_per_km=self.alpha_db_per_km,
            length_km=length_km,
            clock_hz=self.clock_hz,
            baseline_error=self.baseline_error,
            detector=self.detector(),
            delay_n=self.delay_n,
            dead_time_delta=self.delta,
        )
        return scenario, AttackModel(kind=kind, eve_memory=memory)


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


def _parse_float(key: str, value: str, line: int, col: int) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise ScenarioParseError(f"invalid number for key '{key}': {value!r}", line, col) from None
    if not math.isfinite(parsed):
        raise ScenarioParseError(f"non-finite value for key '{key}': {value!r}", line, col)
    return parsed


def _parse_int(key: str, value: str, line: int, col: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioParseError(f"invalid integer for key '{key}': {value!r}", line, col) from None


def parse_scenario(text: str) -> ScenarioFile:
    """Parse scenario text; raises ScenarioParseError with diagnostics."""
    seen: dict[str, tuple[str, int, int]] = {}
    for key, value, line, col in tokenize_kv(text):
        if key not in KNOWN_KEYS:
            raise ScenarioParseError(f"unknown key '{key}'", line, 1)
        if key in seen:
            raise ScenarioParseError(f"duplicate key '{key}'", line, 1)
        seen[key] = (value, line, col)

    values: dict[str, object] = {}
    for key, (value, line, col) in seen.items():
        if key in _FLOAT_KEYS:
            values[_FLOAT_KEYS[key]] = _parse_float(key, value, line, col)
        elif key in _INT_KEYS:
            values[_INT_KEYS[key]] = _parse_int(key, value, line, col)
        else:
            values[_STR_KEYS[key]] = value

    def require(key: str):
        if key not in seen:
            raise ScenarioParseError(f"missing required key '{key}'")

    for key in (
        "mu",
        "alpha_db_per_km",
        "clock_hz",
        "baseline_error",
        "delay_n",
        "attack",
        "detector.name",
        "detector.dead_time_s",
        "detector.receiver_loss_db",
    ):
        require(key)

    attack = values["attack"]
    if attack not in ATTACK_NAMES:
        line, col = seen["attack"][1], seen["attack"][2]
        raise ScenarioParseError(
            f"unknown attack '{attack}' (expected one of {', '.join(sorted(ATTACK_NAMES))})",
            line,
            col,
        )
    mode = values.get("detector_mode")
    if mode is not None and mode not in ("gated", "nongated"):
        line, col = seen["detector.mode"][1], seen["detector.mode"][2]
        raise ScenarioParseError(
            f"unknown detector.mode '{mode}' (expected gated or nongated)", line, col
        )

    upconv_present = [k for k in _UPCONV_CURVE_KEYS if k in seen]
    if upconv_present and len(upconv_present) != len(_UPCONV_CURVE_KEYS):
        missing = sorted(set(_UPCONV_CURVE_KEYS) - set(upconv_present))
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
        if values.get("detector_mode") is None:
            values["detector_mode"] = "nongated"
    else:
        for key in ("detector.efficiency", "detector.dark_per_window"):
            require(key)

    return ScenarioFile(**values)


def serialize_scenario(sf: ScenarioFile) -> str:
    """Render a ScenarioFile back to text; parse(serialize(x)) == x."""
    inverse = {attr: key for key, attr in (_FLOAT_KEYS | _STR_KEYS | _INT_KEYS).items()}
    lines = []
    for field in fields(ScenarioFile):
        value = getattr(sf, field.name)
        if value is None:
            continue
        lines.append(f"{inverse[field.name]} = {value!r}" if isinstance(value, float)
                     else f"{inverse[field.name]} = {value}")
    return "\n".join(lines) + "\n"
