"""Secure key rate modeling for differential-phase-shift QKD links.

The package assembles the standard analysis chain: detector models (direct
APD parameters or a pump-dependent frequency up-conversion fit), per-window
link probabilities and QBER, privacy-amplification shrinking factors for
individual and hybrid beam-splitter + intercept-resend attacks, the secure
rate with error-correction cost and dead-time saturation, and a seeded
Monte Carlo sampler that cross-checks the analytic formulas.
"""

from .detector import (
    PPLN_UPCONVERTER,
    DarkConvention,
    DetectorSpec,
    PumpOperatingPoint,
    UpConversionCurve,
    dark_per_window,
    make_detector_from_upconversion,
    nep,
    optimize_pump,
    up_dark_rate,
    up_efficiency,
)
from .link import ChannelStats, LinkScenario, channel_stats
from .presets import Preset, load_presets
from .rate import (
    RatePoint,
    asymptotic_rate,
    binary_entropy,
    max_secure_distance,
    optimize_mu,
    secure_rate,
)
from .scenario import ScenarioFile, parse_scenario, serialize_scenario
from .security import (
    CASCADE_EC_TABLE,
    AttackModel,
    ECTable,
    bs_transmission,
    f_ec,
    ir_error_floor,
    poisson_multiphoton,
    shrink_hybrid,
    shrink_individual,
    single_photon_fraction,
    surviving_fraction,
)

__version__ = "0.1.0"

__all__ = [
    "PPLN_UPCONVERTER",
    "CASCADE_EC_TABLE",
    "AttackModel",
    "ChannelStats",
    "DarkConvention",
    "DetectorSpec",
    "ECTable",
    "LinkScenario",
    "McConfig",
    "McResult",
    "Preset",
    "PumpOperatingPoint",
    "RatePoint",
    "ScenarioFile",
    "UpConversionCurve",
    "asymptotic_rate",
    "binary_entropy",
    "bs_transmission",
    "channel_stats",
    "dark_per_window",
    "f_ec",
    "ir_error_floor",
    "load_presets",
    "make_detector_from_upconversion",
    "max_secure_distance",
    "nep",
    "optimize_mu",
    "optimize_pump",
    "parse_scenario",
    "poisson_multiphoton",
    "secure_rate",
    "serialize_scenario",
    "shrink_hybrid",
    "shrink_individual",
    "simulate_intercept_resend",
    "simulate_link",
    "single_photon_fraction",
    "surviving_fraction",
    "up_dark_rate",
    "up_efficiency",
]

# The sampler loads numpy, which nothing else imported here needs, so its
# names are served on first use (PEP 562).
_MONTECARLO_NAMES = ("McConfig", "McResult", "simulate_intercept_resend", "simulate_link")


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
