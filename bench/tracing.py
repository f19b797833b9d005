"""Spans and counters around the public functions of each dpsrk layer.

The tracer replaces module attributes with timing wrappers, at the places
where the program itself looks the functions up (``rate`` calls
``link.channel_stats``; ``optimize_mu`` finds ``secure_rate`` in
``dpsrk.rate``'s globals; ``optimize_pump`` finds ``up_efficiency`` in
``dpsrk.detector``'s globals; ``cli`` and ``scenario`` bind some names at
import).  Nothing in the package is edited.

Per name it aggregates calls, inclusive time and self time (a span's duration
minus the part covered by its children), plus the number of direct calls to
a chosen evaluation function inside each solver span.  Spans
``(id, name, start, end, parent)`` are kept in memory up to a cap and
written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  A name listed under several modules is
# the same function bound in each of them.
TARGETS = (
    ("dpsrk.presets", "load_presets", "presets.load_presets"),
    ("dpsrk.cli", "load_presets", "presets.load_presets"),
    ("dpsrk.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("dpsrk.cli", "parse_scenario", "scenario.parse_scenario"),
    ("dpsrk.scenario", "UpConversionCurve", "detector.UpConversionCurve"),
    ("dpsrk.link", "channel_stats", "link.channel_stats"),
    ("dpsrk.security", "f_ec", "security.f_ec"),
    ("dpsrk.security", "bs_transmission", "security.bs_transmission"),
    ("dpsrk.security", "surviving_fraction", "security.surviving_fraction"),
    ("dpsrk.security", "shrink_hybrid", "security.shrink_hybrid"),
    ("dpsrk.security", "poisson_multiphoton", "security.poisson_multiphoton"),
    ("dpsrk.security", "single_photon_fraction", "security.single_photon_fraction"),
    ("dpsrk.security", "shrink_individual", "security.shrink_individual"),
    ("dpsrk.rate", "secure_rate", "rate.secure_rate"),
    ("dpsrk.rate", "optimize_mu", "rate.optimize_mu"),
    ("dpsrk.rate", "max_secure_distance", "rate.max_secure_distance"),
    ("dpsrk.detector", "up_efficiency", "detector.up_efficiency"),
    ("dpsrk.detector", "optimize_pump", "detector.optimize_pump"),
    ("dpsrk.cli", "optimize_pump", "detector.optimize_pump"),
    ("dpsrk.detector", "make_detector_from_upconversion",
     "detector.make_detector_from_upconversion"),
    ("dpsrk.scenario", "make_detector_from_upconversion",
     "detector.make_detector_from_upconversion"),
    ("dpsrk.cli", "make_detector_from_upconversion",
     "detector.make_detector_from_upconversion"),
    ("dpsrk.montecarlo", "simulate_link", "montecarlo.simulate_link"),
    ("dpsrk.montecarlo", "simulate_intercept_resend", "montecarlo.simulate_intercept_resend"),
    ("dpsrk.cli", "main", "cli.main"),
)

# Solver span -> the evaluation whose direct calls it counts.
EVALS = {
    "rate.optimize_mu": "rate.secure_rate",
    "rate.max_secure_distance": "rate.secure_rate",
    "detector.optimize_pump": "detector.up_efficiency",
}

MC_NAMES = ("montecarlo.simulate_link", "montecarlo.simulate_intercept_resend")


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.evals: dict[str, int] = defaultdict(int)
        self.windows: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._cap = span_cap
        self._stack: list[list] = []  # [span id, name, start, child time, child calls]
        self._next_id = 0
        self._saved: list[tuple] = []

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0.0, defaultdict(int)]
        if self._stack:
            self._stack[-1][4][name] += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_time, child_calls = frame
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child_time
        if name in EVALS:
            self.evals[name] += child_calls[EVALS[name]]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < self._cap:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None))
        else:
            self.dropped += 1

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if name in MC_NAMES:
                    tracer.windows[name] += args[0].n_pulses
                tracer._exit(frame)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "evals": dict(self.evals),
            "windows": dict(self.windows),
        }

    def write(self, path: str, summary: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"summary": summary, "dropped_spans": self.dropped}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent]) + "\n")


def delta(after: dict, before: dict) -> dict:
    """Per-key difference of two snapshots."""
    return {
        kind: {k: v - before[kind].get(k, 0) for k, v in values.items()}
        for kind, values in after.items()
    }
