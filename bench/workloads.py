"""The three benchmark workloads and the checks of their outputs.

A workload is built once (its set-up) and then run in rounds.  A round is a
fixed list of library operations, each group timed on its own, plus a fixed
list of CLI calls.  The first round's outputs are checked against the oracle
and the model's properties; every later round must reproduce them exactly.
All program calls go through module attributes, so that a tracer that
replaces those attributes sees them.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from array import array
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

import oracle

ATTACKS = ("individual_mem", "individual_nomem", "hybrid_mem", "hybrid_nomem")
CSV_HEADER = (
    "L_km,p_signal,p_dark,p_click,qber,tau,f,"
    "sifted_bps,secure_bps,secure_deadtime_bps,flags"
)
MC_CSV_HEADER = (
    "mode,n_pulses,seed,clicks,errors,p_click_hat,p_click_se,p_click_analytic,"
    "z_p_click,qber_hat,qber_se,qber_analytic,z_qber"
)
# Each headline CLI call is repeated within a round: a call takes 0.1-0.3 s,
# mostly interpreter start-up, and its median needs many samples to be steady.
CLI_REPEATS = 3
# The up-conversion fit parameters, as the scenario files name them (upconv.*).
UPCONV_KEYS = ("a1", "a2", "b0", "b1", "b2", "b3", "b4", "bandwidth_hz")


@dataclass
class CliJob:
    kind: str
    argv: list[str]
    csv: str | None
    check: Callable[[int, str, str], str | None]  # (exit code, stdout, CSV) -> error


def dpsrk_modules():
    import dpsrk.cli
    import dpsrk.detector
    import dpsrk.errors
    import dpsrk.montecarlo
    import dpsrk.presets
    import dpsrk.rate
    import dpsrk.scenario

    return SimpleNamespace(
        cli=dpsrk.cli, detector=dpsrk.detector, errors=dpsrk.errors,
        montecarlo=dpsrk.montecarlo, presets=dpsrk.presets, rate=dpsrk.rate,
        scenario=dpsrk.scenario,
    )


def digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


def close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * abs(b)


def oracle_params(preset, det: str, n: int, attack: str, f_fixed):
    spec = preset.detectors[det]
    return dict(
        mu=preset.mu, eta=spec.efficiency, dark=spec.dark_per_window,
        loss_db=spec.receiver_loss_db, dead_time=spec.dead_time,
        alpha=preset.alpha_db_per_km, clock=preset.clock_hz, b=preset.baseline_error,
        n=n, attack=attack, f_fixed=f_fixed,
    )


def check_point(pt, ref: dict, b: float) -> str | None:
    """Compare one RatePoint (or parsed CSV row) with the oracle's values."""
    for name in ("p_signal", "p_dark", "p_click", "qber"):
        if not close(getattr(pt, name), ref[name], 1e-9):
            return f"{name} {getattr(pt, name)!r} != oracle {ref[name]!r}"
    if not b * (1.0 - 1e-12) <= pt.qber <= 0.5 * (1.0 + 1e-12):
        return f"qber {pt.qber!r} outside [b, 1/2]"
    if not close(pt.f_used, ref["f"], 1e-12):
        return f"f {pt.f_used!r} != oracle {ref['f']!r}"
    if not close(pt.sifted_rate_hz, ref["sifted"], 1e-9):
        return f"sifted {pt.sifted_rate_hz!r} != oracle {ref['sifted']!r}"
    if not ref["tau_in_range"]:
        return None  # collision bound past its valid branch: tau and rates not judged
    if abs(pt.tau - ref["tau"]) > 1e-9:
        return f"tau {pt.tau!r} != oracle {ref['tau']!r}"
    tol = 1e-9 * ref["sifted"]
    if abs(pt.secure_rate_hz - ref["secure"]) > tol:
        return f"secure {pt.secure_rate_hz!r} != oracle {ref['secure']!r}"
    if abs(pt.secure_rate_deadtime_hz - ref["secure_dt"]) > tol:
        return f"secure_dt {pt.secure_rate_deadtime_hz!r} != oracle {ref['secure_dt']!r}"
    if not ref["ambiguous"] and set(pt.flags) != ref["flags"]:
        return f"flags {sorted(pt.flags)} != oracle {sorted(ref['flags'])}"
    return None


def point_digest(points) -> bytes:
    values = array("d")
    flags = []
    for p in points:
        if isinstance(p, Exception):
            flags.append(repr(p))
            continue
        values.extend((
            p.length_km, p.p_signal, p.p_dark, p.p_click, p.qber, p.tau, p.f_used,
            p.sifted_rate_hz, p.secure_rate_hz, p.secure_rate_deadtime_hz,
        ))
        flags.append("|".join(sorted(p.flags)))
    return digest(values.tobytes(), "\n".join(flags))


def parse_sweep_csv(text: str, steps: int):
    """Rows of a CLI sweep CSV as RatePoint-like objects; raises ValueError if malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"header {lines[:1]!r} is not the documented one")
    if len(lines) != steps + 1:
        raise ValueError(f"{len(lines) - 1} rows, expected {steps}")
    rows = []
    for line in lines[1:]:
        cols = line.split(",")
        if len(cols) != 11:
            raise ValueError(f"row has {len(cols)} columns: {line!r}")
        v = [float(c) for c in cols[:10]]
        rows.append(SimpleNamespace(
            length_km=v[0], p_signal=v[1], p_dark=v[2], p_click=v[3], qber=v[4], tau=v[5],
            f_used=v[6], sifted_rate_hz=v[7], secure_rate_hz=v[8],
            secure_rate_deadtime_hz=v[9], flags=set(filter(None, cols[10].split("|"))),
        ))
    return rows


# Link of the up-conversion scenario files, in the oracle's parameter names.
UPCONV_LINK = dict(mu=0.2, alpha=0.21, clock=1e9, b=0.01, dead_time=45e-9, loss_db=2.1)


def upconv_scenario_text(fit: dict, *, pump_mw: float, attack: str, delay_n: int) -> str:
    link = UPCONV_LINK
    lines = [
        "# up-conversion Si receiver behind a PPLN waveguide",
        f"mu = {link['mu']!r}", f"alpha_db_per_km = {link['alpha']!r}",
        f"clock_hz = {link['clock']!r}", f"baseline_error = {link['b']!r}",
        f"delay_n = {delay_n}", f"attack = {attack}", "detector.name = upconv-si",
        f"detector.dead_time_s = {link['dead_time']!r}",
        f"detector.receiver_loss_db = {link['loss_db']!r}",
    ]
    lines += [f"upconv.{k} = {fit[k]!r}" for k in UPCONV_KEYS]
    lines.append(f"upconv.pump_mw = {pump_mw!r}")
    return "\n".join(lines) + "\n"


def upconv_oracle_params(fit: dict, pump_mw: float, attack: str, delay_n: int):
    b = tuple(fit[f"b{k}"] for k in range(5))
    return dict(
        UPCONV_LINK, eta=oracle.up_efficiency(fit["a1"], fit["a2"], pump_mw),
        dark=oracle.dark_per_mode(oracle.up_dark_rate(b, pump_mw), fit["bandwidth_hz"]),
        n=delay_n, attack=attack, f_fixed=None,
    )


def ppln_fit(detector_module) -> dict:
    curve = detector_module.PPLN_UPCONVERTER
    return {k: getattr(curve, k) for k in UPCONV_KEYS}


class Workload:
    """Shared bookkeeping: timed groups, failures and first-round checks.

    ``groups`` lists ``(key, op)`` pairs; ``op()`` performs one timed group of
    operations and must look program functions up at call time.
    """

    name = ""
    headline_cli = ""

    def __init__(self, seed: int, work: str):
        self.rng = random.Random(seed)
        self.work = work
        self.m = dpsrk_modules()
        self.groups: list = []
        self.failures: list[str] = []
        self.failed = 0
        self.notes: list[str] = []

    def run_round(self, sink) -> None:
        """Run every group once, calling ``sink(key, seconds, result)`` after each."""
        for key, op in self.groups:
            start = time.perf_counter()
            try:
                result = op()
            except Exception as exc:  # a failed operation, judged by check_group()
                result = exc
            sink(key, time.perf_counter() - start, result)

    def fail(self, message: str, ops: int = 1) -> None:
        """Record ``ops`` failed operations."""
        self.failures.append(message)
        self.failed += ops

    def digest_of(self, key, result) -> bytes:
        """Fingerprint of a group's outputs, compared between rounds."""
        return digest(result)

    def group_ops(self, key) -> int:
        return 1

    def check_group(self, key, result) -> None:
        """Judge one group of the first round against the oracle."""

    def finish_check(self) -> None:
        """Judge properties that span groups, after the first round."""

    def write_inputs(self) -> None:
        """Write the files the CLI calls read."""

    def path(self, name: str) -> str:
        return f"{self.work}/{name}"


class PaperFigures(Workload):
    """Every curve the paper draws: preset x detector x N x attack x f mode, 0-400 km."""

    name = "paper-figures"
    headline_cli = "sweep-distance"

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        registry = self.m.presets.load_presets()
        shift = self.rng.random()
        self.lengths = [(i + shift) * 0.5 for i in range(801)]
        self.params = {}
        for pname, preset in registry.items():
            for det in ("si", "ingaas"):
                for n in preset.n_set:
                    for attack in ATTACKS:
                        for f_fixed in (None, preset.f):
                            base, model = preset.scenario(det, delay_n=n, attack=attack)
                            key = ("rate", pname, det, n, attack, f_fixed)
                            self.params[key] = oracle_params(preset, det, n, attack, f_fixed)
                            self.groups.append((key, self._curve(base, model, f_fixed)))
        self.ops_per_round = len(self.groups) * len(self.lengths) + 2 * CLI_REPEATS + 2
        self.reach: dict = {}
        self.unjudged = [0, 0, 0]  # points, of which tau > 0, of which rate > 0
        # CLI inputs: two distance sweeps, a mu sweep and a pump sweep.
        self.fig3 = registry["fig3"]
        self.sweep_lo, self.sweep_hi = 0.1 * shift, 300.0 + 0.1 * shift
        self.mu_length = 100.0 + shift
        self.pump_hi = 2.0 + shift
        self.fit = ppln_fit(self.m.detector)
        self.pump_text = upconv_scenario_text(
            self.fit, pump_mw=0.03, attack="hybrid_nomem", delay_n=100)
        # Parsed and built here as the CLI will, so a bad input fails at set-up.
        self.m.scenario.parse_scenario(self.pump_text).build(50.0)

    def write_inputs(self) -> None:
        with open(self.path("upconv.scn"), "w") as fh:
            fh.write(self.pump_text)

    def _curve(self, base, model, f_fixed):
        def op():
            secure_rate = self.m.rate.secure_rate
            points = []
            for length in self.lengths:
                try:
                    points.append(secure_rate(replace(base, length_km=length), model,
                                              f_fixed=f_fixed))
                except Exception as exc:  # a failed operation, judged by check_group()
                    points.append(exc)
            return points

        return op

    def digest_of(self, key, points) -> bytes:
        return point_digest(points)

    def group_ops(self, key) -> int:
        return len(self.lengths)

    def check_group(self, key, points) -> None:
        params = self.params[key]
        prev = None
        last_secure = None
        for length, pt in zip(self.lengths, points):
            if isinstance(pt, Exception):
                self.fail(f"{key} L={length}: raised {pt!r}")
                prev = None
                continue
            ref = oracle.rate_point(length=length, **params)
            error = check_point(pt, ref, params["b"])
            if error:
                self.fail(f"{key} L={length}: {error}")
                prev = None
                continue
            if not ref["tau_in_range"]:
                self.unjudged[0] += 1
                self.unjudged[1] += pt.tau > 0.0
                self.unjudged[2] += pt.secure_rate_hz > 0.0
                prev = None
                continue
            if prev is not None and pt.secure_rate_hz > prev * (1.0 + 1e-12):
                self.fail(f"{key} L={length}: secure rate rises with length")
            prev = pt.secure_rate_hz
            if pt.secure:
                last_secure = length
        self.reach[key] = last_secure

    def finish_check(self) -> None:
        for key, si_reach in self.reach.items():
            if key[2] != "si":
                continue
            ingaas_reach = self.reach[key[:2] + ("ingaas",) + key[3:]]
            if (si_reach, ingaas_reach) == (None, None):
                continue
            if si_reach is None or (ingaas_reach is not None and ingaas_reach >= si_reach):
                self.fail(f"{key}: Si reaches {si_reach} km, InGaAs {ingaas_reach} km")
        self.notes.append(
            "individual bound past its valid branch at {} points (tau > 0 at {}, "
            "rate > 0 at {}); tau and rates not judged there".format(*self.unjudged))

    def cli_jobs(self) -> list[CliJob]:
        jobs = []
        steps = 3001
        fig3 = self.fig3
        for det in ("si", "ingaas"):
            csv = self.path(f"sweep-{det}.csv")
            params = oracle_params(fig3, det, 100, "hybrid_nomem", None)
            argv = ["sweep", "--preset", "fig3", "--detector", det, "--n", "100",
                    "--axis", "distance", "--lo", repr(self.sweep_lo),
                    "--hi", repr(self.sweep_hi), "--steps", str(steps), "--csv", csv]
            check = self._sweep_check(steps, lambda x, p=params: dict(p, length=x), "length")
            jobs += [CliJob("sweep-distance", argv, csv, check)] * CLI_REPEATS
        lo, hi, n_mu = 0.01, 1.0, 1001
        params = oracle_params(fig3, "si", 100, "hybrid_nomem", None)
        argv = ["sweep", "--preset", "fig3", "--detector", "si", "--n", "100", "--axis", "mu",
                "--lo", repr(lo), "--hi", repr(hi), "--steps", str(n_mu),
                "--length", repr(self.mu_length), "--csv", self.path("sweep-mu.csv")]
        jobs.append(CliJob("sweep-mu", argv, self.path("sweep-mu.csv"), self._sweep_check(
            n_mu, lambda i: dict(params, length=self.mu_length, mu=lo + (hi - lo) * i / (n_mu - 1)),
            "index")))
        pump_lo, n_pump = 0.0, 1001
        argv = ["sweep", "--scenario", self.path("upconv.scn"), "--axis", "pump",
                "--lo", repr(pump_lo), "--hi", repr(self.pump_hi), "--steps", str(n_pump),
                "--length", "50", "--csv", self.path("sweep-pump.csv")]

        def pump_params(i):
            pump = pump_lo + (self.pump_hi - pump_lo) * i / (n_pump - 1)
            return dict(upconv_oracle_params(self.fit, pump, "hybrid_nomem", 100), length=50.0)

        jobs.append(CliJob("sweep-pump", argv, self.path("sweep-pump.csv"),
                           self._sweep_check(n_pump, pump_params, "index")))
        return jobs

    @staticmethod
    def _sweep_check(steps: int, params_for, by: str):
        def check(code: int, _stdout: str, csv_text: str) -> str | None:
            if code != 0:
                return f"exit code {code}"
            try:
                rows = parse_sweep_csv(csv_text, steps)
            except ValueError as exc:
                return str(exc)
            for i, row in enumerate(rows):
                params = params_for(row.length_km if by == "length" else i)
                error = check_point(row, oracle.rate_point(**params), params["b"])
                if error:
                    return f"row {i + 1}: {error}"
            return None

        return check

    def phase_figures(self, times: dict) -> dict:
        total = sum(times.values())
        return {"rate_points_per_s": len(self.groups) * len(self.lengths) / total}


class DesignSearch(Workload):
    """The solvers: max secure distance, optimal mu and NEP-optimal pump."""

    name = "design-search"
    headline_cli = "optimize-mu"
    N_UPCONV = 8
    N_PUMP_RANGES = 24
    R_FLOOR = 1e3
    MU_RANGE = (0.01, 1.0)

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        registry = self.m.presets.load_presets()
        curves = []
        for pname, preset in registry.items():
            for det in ("si", "ingaas"):
                for n in preset.n_set:
                    for attack in ATTACKS:
                        for f_fixed in (None, preset.f):
                            base, model = preset.scenario(det, delay_n=n, attack=attack)
                            params = oracle_params(preset, det, n, attack, f_fixed)
                            curves.append(((pname, det, n, attack, f_fixed), base, model, params))
        # Up-conversion receivers parsed from scenario files, pumped near the
        # first efficiency fringe.
        self.fit = ppln_fit(self.m.detector)
        self.upconv_texts = []
        for i in range(self.N_UPCONV):
            pump = 0.02 + 0.03 * self.rng.random()
            attack = ("hybrid_nomem", "hybrid_mem")[i % 2]
            n = (1, 10, 100)[i % 3]
            text = upconv_scenario_text(self.fit, pump_mw=pump, attack=attack, delay_n=n)
            base, model = self.m.scenario.parse_scenario(text).build(0.0)
            params = upconv_oracle_params(self.fit, pump, attack, n)
            curves.append(((f"upconv{i}", "si", n, attack, None), base, model, params))
            self.upconv_texts.append(text)
        self.inputs = {}  # group key -> what check_group needs
        for curve, base, model, params in curves:
            floors = [0.0]
            if oracle.rate_point(length=0.0, **params)["secure_dt"] > self.R_FLOOR:
                floors.append(self.R_FLOOR)
            for r_min in floors:
                key = ("max_distance", curve, r_min)
                self.inputs[key] = params
                self.groups.append((key, self._distance(base, model, r_min, params["f_fixed"])))
        for curve, base, model, params in curves:
            if curve[3].startswith("hybrid"):
                for length in (50.0, 100.0, 150.0):
                    key = ("optimize_mu", curve, length)
                    self.inputs[key] = dict(params, length=length)
                    self.groups.append((key, self._mu(replace(base, length_km=length), model,
                                                      params["f_fixed"])))
        # Pump ranges spanning one to twelve fringes, on the built-in fit and
        # on a curve parsed from a scenario file.
        scaled = dict(self.fit, a1=0.3 + 0.3 * self.rng.random(),
                      a2=self.fit["a2"] * (0.8 + 0.45 * self.rng.random()))
        text = upconv_scenario_text(scaled, pump_mw=0.03, attack="hybrid_nomem", delay_n=100)
        parsed_curve = self.m.scenario.parse_scenario(text).upconversion_curve()
        for label, curve, fit in (("ppln", self.m.detector.PPLN_UPCONVERTER, self.fit),
                                  ("parsed", parsed_curve, scaled)):
            zeros = [(k * math.pi) ** 2 / fit["a2"] for k in range(64)]
            zeros = [z for z in zeros if z <= 30.0]
            for j in range(self.N_PUMP_RANGES):
                fringes = 1 + j % 12
                k = self.rng.randrange(len(zeros) - fringes - 1)
                lo = zeros[k] + self.rng.random() * (zeros[k + 1] - zeros[k])
                hi = zeros[k + fringes] + self.rng.random() * (
                    zeros[k + fringes + 1] - zeros[k + fringes])
                key = ("optimize_pump", label, j)
                self.inputs[key] = (lo, min(hi, 30.0), fit)
                self.groups.append((key, self._pump(curve, (lo, min(hi, 30.0)))))
        self.ops_per_round = len(self.groups) + 2 * CLI_REPEATS
        self.library_mu = {}

    def _distance(self, base, model, r_min, f_fixed):
        return lambda: self.m.rate.max_secure_distance(base, model, r_min, f_fixed=f_fixed)

    def _mu(self, base, model, f_fixed):
        return lambda: self.m.rate.optimize_mu(base, model, self.MU_RANGE, f_fixed=f_fixed)

    def _pump(self, curve, pump_range):
        return lambda: self.m.detector.optimize_pump(curve, pump_range)

    def write_inputs(self) -> None:
        with open(self.path("upconv0.scn"), "w") as fh:
            fh.write(self.upconv_texts[0])

    def check_group(self, key, result) -> None:
        if isinstance(result, self.m.errors.NoSecureDistanceError) and key[0] == "max_distance":
            params, r_min = self.inputs[key], key[2]
            scan = (oracle.rate_point(length=0.25 * i, **params)["secure_dt"] for i in range(1601))
            if any(r > r_min for r in scan):
                self.fail(f"{key}: NoSecureDistanceError, but the oracle finds a rate above it")
        elif isinstance(result, Exception):
            self.fail(f"{key}: raised {result!r}")
        elif key[0] == "max_distance":
            params, r_min = self.inputs[key], key[2]
            if not (oracle.rate_point(length=result, **params)["secure_dt"] > r_min
                    >= oracle.rate_point(length=result + 0.01, **params)["secure_dt"]):
                self.fail(f"{key}: {result} km is not a crossing of {r_min} b/s within 0.01 km")
        elif key[0] == "optimize_mu":
            self.library_mu[key] = result
            self._check_mu(key, *result)
        else:
            self._check_pump(key, result)

    def _check_mu(self, key, mu_star, pt) -> None:
        params = self.inputs[key]
        error = check_point(pt, oracle.rate_point(**dict(params, mu=mu_star)), params["b"])
        grid_params = {k: v for k, v in params.items() if k not in ("mu", "attack")}
        best = oracle.hybrid_rate_grid(
            np.linspace(*self.MU_RANGE, 20001), memory=params["attack"] == "hybrid_mem",
            **grid_params).max()
        if error:
            self.fail(f"{key}: mu*={mu_star}: {error}")
        elif not self.MU_RANGE[0] <= mu_star <= self.MU_RANGE[1]:
            self.fail(f"{key}: mu*={mu_star} outside the range")
        elif pt.secure_rate_deadtime_hz < (1.0 - 1e-4) * best:
            self.fail(f"{key}: rate {pt.secure_rate_deadtime_hz} at mu*={mu_star} "
                      f"below the grid's best {best}")

    def _check_pump(self, key, result) -> None:
        lo, hi, fit = self.inputs[key]
        b = tuple(fit[f"b{k}"] for k in range(5))
        pump, eta, dark = result
        grid = oracle.nep_grid(np.linspace(lo, hi, 200001), fit["a1"], fit["a2"], b).min()
        if not lo <= pump <= hi:
            self.fail(f"{key}: pump {pump} outside [{lo}, {hi}]")
        elif not (close(eta, oracle.up_efficiency(fit["a1"], fit["a2"], pump), 1e-9)
                  and close(dark, oracle.up_dark_rate(b, pump), 1e-9)):
            self.fail(f"{key}: efficiency/dark rate at {pump} mW disagree with the fit")
        elif math.sqrt(2.0 * dark) / eta > (1.0 + 1e-4) * grid:
            self.fail(f"{key}: NEP {math.sqrt(2.0 * dark) / eta} above the grid's {grid}")

    def cli_jobs(self) -> list[CliJob]:
        def mu_check(task_key):
            def check(code: int, stdout: str, _csv: str) -> str | None:
                mu_star, pt = self.library_mu[task_key]
                want = 0 if pt.secure else 2
                if code != want:
                    return f"exit code {code}, expected {want}"
                lines = stdout.splitlines()
                if not lines or lines[0] != f"optimal mu: {mu_star!r}":
                    return f"{lines[:1]!r} differs from the library's mu* {mu_star!r}"
                rows = dict(line.split(None, 1) for line in lines[1:] if line.strip())
                if float(rows.get("secure_deadtime_bps", "nan")) != pt.secure_rate_deadtime_hz:
                    return "secure_deadtime_bps differs from the library's"
                return None

            return check

        preset_key = ("optimize_mu", ("fig3", "si", 100, "hybrid_nomem", None), 100.0)
        upconv_key = ("optimize_mu", ("upconv0", "si", 1, "hybrid_nomem", None), 50.0)
        lo, hi = (repr(x) for x in self.MU_RANGE)
        return [
            CliJob("optimize-mu", ["optimize-mu", "--preset", "fig3", "--detector", "si",
                                   "--n", "100", "--length", "100", "--lo", lo, "--hi", hi],
                   None, mu_check(preset_key)),
            CliJob("optimize-mu", ["optimize-mu", "--scenario", self.path("upconv0.scn"),
                                   "--length", "50", "--lo", lo, "--hi", hi],
                   None, mu_check(upconv_key)),
        ] * CLI_REPEATS

    def phase_figures(self, times: dict) -> dict:
        figures = {}
        for phase, name in (("max_distance", "max_distance_solves_per_s"),
                            ("optimize_mu", "optimize_mu_solves_per_s"),
                            ("optimize_pump", "optimize_pump_solves_per_s")):
            spent = [t for k, t in times.items() if k[0] == phase]
            figures[name] = len(spent) / sum(spent)
        return figures


class McValidation(Workload):
    """The Monte Carlo sampler in link and intercept-resend modes."""

    name = "mc-validation"
    headline_cli = "mc"
    WINDOWS = 1 << 22
    CLI_PULSES = 10_000_000

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        registry = self.m.presets.load_presets()
        mc = self.m.montecarlo
        self.mc_seed = seed % 2**64
        self.inputs = {}
        for pname, det in (("fig3", "si"), ("fig3", "ingaas"), ("fig12", "ingaas")):
            preset = registry[pname]
            for length in (0.0, 100.0, 200.0):
                s, _ = preset.scenario(det, delay_n=100, length_km=length)
                cfg = mc.McConfig(scenario=s, n_pulses=self.WINDOWS, seed=self.mc_seed)
                ref = oracle.rate_point(length=length, **oracle_params(
                    preset, det, 100, "hybrid_nomem", None))
                self._add(("mc_link", pname, det, length), cfg, ref, preset.baseline_error)
        fig3 = registry["fig3"]
        for length in (0.0, 100.0):
            for fraction in (1.0, 0.5):
                s, _ = fig3.scenario("si", delay_n=100, length_km=length)
                cfg = mc.McConfig(scenario=s, n_pulses=self.WINDOWS, seed=self.mc_seed,
                                  ir_fraction=fraction, eve_delay_m=2, bob_delay_choices=(1, 2))
                ref = oracle.rate_point(length=length, **oracle_params(
                    fig3, "si", 100, "hybrid_nomem", None))
                e_s = oracle.ir_signal_error(fig3.baseline_error, fraction, (1, 2), 2)
                self._add(("mc_ir", "fig3", "si", length, fraction), cfg, ref, e_s)
        s, _ = fig3.scenario("si", delay_n=100, length_km=100.0)
        self.cli_cfg = mc.McConfig(scenario=s, n_pulses=self.CLI_PULSES, seed=self.mc_seed)
        self.cli_reference = None  # the library's result for the CLI's arguments
        self.ops_per_round = len(self.groups) + CLI_REPEATS

    def _add(self, key, cfg, ref, e_signal) -> None:
        def op():
            mc = self.m.montecarlo
            simulate = mc.simulate_link if key[0] == "mc_link" else mc.simulate_intercept_resend
            return simulate(cfg)

        self.inputs[key] = (cfg, ref, e_signal)
        self.groups.append((key, op))

    def check_group(self, key, result) -> None:
        if isinstance(result, Exception):
            self.fail(f"{key}: raised {result!r}")
            return
        cfg, ref, e_signal = self.inputs[key]
        p_click, qber = oracle.mc_expectation(ref["p_signal"], ref["p_dark"], e_signal)
        if result.n_windows != cfg.n_pulses:
            self.fail(f"{key}: {result.n_windows} windows, expected {cfg.n_pulses}")
        elif not oracle.within_five_sigma(result.clicks, cfg.n_pulses, p_click):
            z = oracle.z_score(result.clicks, cfg.n_pulses, p_click)
            self.fail(f"{key}: {result.clicks} clicks, z = {z:.2f} against P = {p_click}")
        elif not oracle.within_five_sigma(result.errors, result.clicks, qber):
            z = oracle.z_score(result.errors, result.clicks, qber)
            self.fail(f"{key}: {result.errors} errors, z = {z:.2f} against QBER = {qber}")

    def cli_jobs(self) -> list[CliJob]:
        csv = self.path("mc.csv")

        def check(code: int, _stdout: str, csv_text: str) -> str | None:
            if code != 0:
                return f"exit code {code}"
            lines = csv_text.splitlines()
            if len(lines) != 2 or lines[0] != MC_CSV_HEADER:
                return f"unexpected CSV {lines[:1]!r} with {len(lines)} lines"
            cols = lines[1].split(",")
            if self.cli_reference is None:
                self.cli_reference = self.m.montecarlo.simulate_link(self.cli_cfg)
            reference = self.cli_reference
            if (int(cols[3]), int(cols[4])) != (reference.clicks, reference.errors):
                return (f"CLI counts {cols[3]}/{cols[4]} differ from the library's "
                        f"{reference.clicks}/{reference.errors}")
            return None

        argv = ["mc", "--preset", "fig3", "--detector", "si", "--length", "100",
                "--pulses", str(self.CLI_PULSES), "--seed", str(self.mc_seed), "--csv", csv]
        return [CliJob("mc", argv, csv, check)] * CLI_REPEATS

    def phase_figures(self, times: dict) -> dict:
        figures = {}
        for phase, name in (("mc_link", "mc_link_windows_per_s"),
                            ("mc_ir", "mc_ir_windows_per_s")):
            spent = [t for k, t in times.items() if k[0] == phase]
            figures[name] = len(spent) * self.WINDOWS / sum(spent)
        return figures


WORKLOADS = {w.name: w for w in (PaperFigures, DesignSearch, McValidation)}
