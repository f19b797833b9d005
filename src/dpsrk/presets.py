"""Named parameter presets transcribed from published rate-vs-distance curves.

Each ``.preset`` file carries one figure's parameter set with both detector
variants (gated InGaAs/InP and nongated up-conversion Si) and the delay
values the curves were drawn for.  The packaged directory can be overridden
with the ``DPSRK_PRESET_DIR`` environment variable.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping

from .detector import DetectorMode, DetectorSpec
from .errors import ModelDomainError, ScenarioParseError
from .link import LinkScenario
from .scenario import _parse_float, _parse_int, read_keys, read_text
from .security import AttackModel

PRESET_DIR_ENV = "DPSRK_PRESET_DIR"

DETECTOR_VARIANTS = ("si", "ingaas")

_PRESET_FLOAT_KEYS = ("b", "mu", "f", "nu_hz", "alpha_db_per_km")
# Each detector key of a preset, after "si." or "ingaas.", and its DetectorSpec field.
_DETECTOR_KEYS = {
    "efficiency": "efficiency",
    "dark_per_window": "dark_per_window",
    "receiver_loss_db": "receiver_loss_db",
    "dead_time_s": "dead_time",
}
_KNOWN_KEYS = {*_PRESET_FLOAT_KEYS, "n_set"} | {
    f"{v}.{k}" for v in DETECTOR_VARIANTS for k in _DETECTOR_KEYS
}
# Each link key of a preset and the name LinkScenario's messages give it.
_LINK_KEYS = {
    "b": "baseline error", "mu": "mu", "nu_hz": "clock rate", "alpha_db_per_km": "alpha",
}


@dataclass(frozen=True)
class Preset:
    """One figure's parameters with both detector variants."""

    name: str
    baseline_error: float
    mu: float
    f: float
    clock_hz: float
    alpha_db_per_km: float
    n_set: tuple[int, ...]
    detectors: Mapping[str, DetectorSpec]

    def scenario(
        self,
        detector: str = "si",
        delay_n: int = 100,
        attack: str = "hybrid_nomem",
        length_km: float = 0.0,
        delta: float | None = None,
    ) -> tuple[LinkScenario, AttackModel]:
        """Materialize the preset for one detector, delay and attack."""
        if detector not in self.detectors:
            raise ModelDomainError(f"preset {self.name} has no detector '{detector}'")
        s = LinkScenario(
            mu=self.mu,
            alpha_db_per_km=self.alpha_db_per_km,
            length_km=length_km,
            clock_hz=self.clock_hz,
            baseline_error=self.baseline_error,
            detector=self.detectors[detector],
            delay_n=delay_n,
            dead_time_delta=delta,
        )
        return s, AttackModel(attack)


def parse_preset(name: str, text: str) -> Preset:
    seen = read_keys(text, _KNOWN_KEYS, f" in preset {name}")

    def fetch(key: str) -> tuple[str, int, int]:
        if key not in seen:
            raise ScenarioParseError(f"preset {name} is missing key '{key}'")
        return seen[key]

    def fetch_float(key: str) -> float:
        return _parse_float(key, *fetch(key))

    floats = {key: fetch_float(key) for key in _PRESET_FLOAT_KEYS}
    if floats["f"] < 1.0:
        raise ScenarioParseError(
            f"overhead f must be >= 1 in preset {name}, got {floats['f']}", *seen["f"][1:]
        )
    n_set_text, line, col = fetch("n_set")
    n_set = tuple(_parse_int("n_set", tok, line, col) for tok in n_set_text.split(","))
    if min(n_set) < 1:
        raise ScenarioParseError(
            f"n_set entries must be >= 1 in preset {name}, got {n_set_text}", line, col
        )
    detectors = {}
    for variant in DETECTOR_VARIANTS:
        params = {field: fetch_float(f"{variant}.{key}") for key, field in _DETECTOR_KEYS.items()}
        mode = DetectorMode.NONGATED if variant == "si" else DetectorMode.GATED
        try:
            detectors[variant] = DetectorSpec(name=variant, mode=mode, **params)
        except ModelDomainError as exc:
            keys = {f"{variant}.{key}": field for key, field in _DETECTOR_KEYS.items()}
            raise _error_at_key(name, str(exc), keys, seen) from None
    preset = Preset(
        name=name,
        baseline_error=floats["b"],
        mu=floats["mu"],
        f=floats["f"],
        clock_hz=floats["nu_hz"],
        alpha_db_per_km=floats["alpha_db_per_km"],
        n_set=n_set,
        detectors=detectors,
    )
    try:  # LinkScenario's own checks reject an out-of-range mu, b, nu_hz or alpha
        preset.scenario()
    except ModelDomainError as exc:
        raise _error_at_key(name, str(exc), _LINK_KEYS, seen) from None
    return preset


def _error_at_key(
    name: str, message: str, keys: Mapping[str, str], seen: Mapping[str, tuple[str, int, int]]
) -> ScenarioParseError:
    """A model check's ``message`` about a value of preset ``name``, at that value's key.

    ``keys`` maps each preset key to the name the message starts with.
    """
    key, field = next((k, f) for k, f in keys.items() if message.startswith(f"{f} "))
    return ScenarioParseError(f"preset {name}: {key}{message[len(field):]}", *seen[key][1:])


def _natural_key(name: str):
    return [int(tok) if tok.isdigit() else tok for tok in re.split(r"(\d+)", name)]


def preset_directory() -> Path:
    override = os.environ.get(PRESET_DIR_ENV)
    if override:
        return Path(override)
    return Path(resources.files("dpsrk") / "presets")


def load_presets() -> dict[str, Preset]:
    """Load every ``*.preset`` file from the preset directory, sorted by name."""
    root = preset_directory()
    registry: dict[str, Preset] = {}
    for path in sorted(root.glob("*.preset"), key=lambda p: _natural_key(p.stem)):
        registry[path.stem] = parse_preset(path.stem, read_text(path))
    if not registry:
        raise FileNotFoundError(f"no .preset files found in {root}")
    return registry
