"""Command-line front end.

Subcommands: ``rate``, ``sweep``, ``max-distance``, ``optimize-mu``,
``optimize-pump``, ``mc``, ``plot`` and ``presets list``.  Exit codes form a
small contract so shell pipelines can branch: 0 secure/ok, 1 usage or parse
failure, 2 insecure operating point, 3 Monte Carlo self-check failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import partial

from . import rate
from .detector import (
    PPLN_UPCONVERTER,
    SUPPORTED_PUMP_MAX_MW,
    DarkConvention,
    PumpOperatingPoint,
    UpConversionCurve,
    dark_per_window,
    make_detector_from_upconversion,
    nep,
    optimize_pump,
)
from .errors import DpsrkError, NoSecureDistanceError
from .link import LinkScenario, _trial_scenario
from .plotscript import render_plot_script
from .presets import DETECTOR_VARIANTS, load_presets
from .rate import RatePoint
from .scenario import _c_numeral, parse_scenario, read_text
from .security import CASCADE_EC_TABLE, AttackModel

CSV_HEADER = (
    "L_km,p_signal,p_dark,p_click,qber,tau,f,"
    "sifted_bps,secure_bps,secure_deadtime_bps,flags"
)

MC_CSV_HEADER = (
    "mode,n_pulses,seed,clicks,errors,p_click_hat,p_click_se,p_click_analytic,"
    "z_p_click,qber_hat,qber_se,qber_analytic,z_qber"
)


class UsageError(DpsrkError):
    """Bad command-line usage (maps to exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep the exit-code contract
        raise UsageError(message)


def _finite_float(text: str) -> float:
    """``type=`` converter for float options: NaN and +-inf are usage errors."""
    try:
        value = _c_numeral(float, text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _integer(text: str) -> int:
    """``type=`` converter for integer options, C-locale numerals only."""
    try:
        return _c_numeral(int, text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    """``type=`` converter for comma-separated integers such as ``1,10,100``."""
    try:
        return tuple(_c_numeral(int, tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _reject_given(options: tuple[tuple[str, object], ...], reason: str) -> None:
    """Raise UsageError naming the first ``(option, value)`` pair the user gave."""
    for option, value in options:
        if value is not None:
            raise UsageError(f"{option} {reason}")


def _load_source(
    args, length_km: float, need_curve: bool = False
) -> tuple[LinkScenario, AttackModel, UpConversionCurve | None, float | None]:
    """Resolve ``--scenario`` or ``--preset`` once, with the options the user gave.

    Returns the scenario at ``length_km``, its attack, the up-conversion
    curve (None without an ``upconv`` block) and the fixed error-correction
    overhead: None with ``--f-mode table``, else ``--f-value``, else the
    preset's caption f, else for a scenario file the table's floor f.
    Commands derive their other points from this scenario:
    ``link._trial_scenario`` for a new length or mu, and
    ``dataclasses.replace`` for a new detector.
    """
    if bool(args.scenario) == bool(args.preset):
        raise UsageError("exactly one of --scenario or --preset is required")
    given = {
        "attack": args.attack, "delay_n": args.n, "delta": args.delta, "detector": args.detector
    }
    given = {key: value for key, value in given.items() if value is not None}
    if args.scenario:
        if args.detector is not None:  # the file names its own detector
            raise UsageError("--detector only applies with --preset")
        sf = replace(parse_scenario(read_text(args.scenario)), **given)
        build, curve, default_f = sf.build, sf.upconversion_curve(), CASCADE_EC_TABLE.points[0][1]
    else:
        registry = load_presets()
        if args.preset not in registry:
            raise UsageError(
                f"unknown preset '{args.preset}' (available: {', '.join(registry)})"
            )
        preset = registry[args.preset]
        build, curve, default_f = partial(preset.scenario, **given), None, preset.f
    if need_curve and curve is None:
        raise UsageError("pump sweep needs a scenario with an upconv block")
    scenario, attack = build(length_km=length_km)
    if args.f_mode == "table":
        _reject_given((("--f-value", args.f_value),), "only applies with --f-mode fixed")
        return scenario, attack, curve, None
    return scenario, attack, curve, default_f if args.f_value is None else args.f_value


def _fmt(value: float) -> str:
    return repr(float(value))


# The text view's names of the CSV_HEADER columns.
_POINT_NAMES = (
    "length_km", "p_signal", "p_dark", "p_click", "qber", "tau", "f_used",
    "sifted_bps", "secure_bps", "secure_deadtime_bps", "flags",
)


def _point_row(point: RatePoint) -> str:
    """The point as one CSV row in ``CSV_HEADER`` order; no field holds a comma."""
    return ",".join([*map(_fmt, point[:10]), "|".join(sorted(point.flags))])


def _print_rows(rows: list[tuple[str, str]]) -> None:
    width = max(len(name) for name, _ in rows) + 2
    for name, value in rows:
        print(f"{name:<{width}}{value}")


def _print_point(point: RatePoint) -> None:
    rows = [(name, value or "-") for name, value in zip(_POINT_NAMES, _point_row(point).split(","))]
    rows.append(("secure", "yes" if point.secure else "no"))
    _print_rows(rows)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _emit_csv(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


def _cmd_rate(args) -> int:
    scenario, attack, _curve, f_fixed = _load_source(args, args.length)
    point = rate.secure_rate(scenario, attack, f_fixed=f_fixed)
    _print_point(point)
    if args.csv:
        with open(args.csv, "a", newline="\n") as fh:
            if fh.tell() == 0:  # an append-mode file starts at its end
                fh.write(CSV_HEADER + "\n")
            fh.write(_point_row(point) + "\n")
    return 0 if point.secure else 2


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise UsageError("--steps must be >= 2")
    if not args.lo < args.hi:
        raise UsageError("--lo must be < --hi")
    values = [args.lo + (args.hi - args.lo) * i / (args.steps - 1) for i in range(args.steps)]
    # finite ends can still overflow hi - lo or its multiples
    if not all(map(math.isfinite, values)):
        raise UsageError("--lo, --hi and --steps overflow the step arithmetic")
    if args.axis == "distance":
        _reject_given((("--length", args.length),), "only applies with --axis mu or pump")
        length = values[0]
    else:
        length = 0.0 if args.length is None else args.length
    base, attack, curve, f_fixed = _load_source(args, length, args.axis == "pump")
    lines = [CSV_HEADER]
    for value in values:
        if args.axis == "distance":
            scenario = _trial_scenario(base, base.mu, value)
        elif args.axis == "mu":
            scenario = _trial_scenario(base, value, base.length_km)
        else:  # pump
            det = make_detector_from_upconversion(
                curve,
                value,
                dead_time=base.detector.dead_time,
                receiver_loss_db=base.detector.receiver_loss_db,
                name=base.detector.name,
            )
            scenario = replace(base, detector=det)
        point = rate.secure_rate(scenario, attack, f_fixed=f_fixed)
        lines.append(_point_row(point))
    _emit_csv(args.csv, lines)
    return 0


def _cmd_max_distance(args) -> int:
    scenario, attack, _curve, f_fixed = _load_source(args, 0.0)
    try:
        distance = rate.max_secure_distance(scenario, attack, r_min=args.rmin, f_fixed=f_fixed)
    except NoSecureDistanceError:
        print("no secure distance", file=sys.stderr)
        return 2
    print(f"max secure distance: {distance:.2f} km")
    return 0


def _cmd_optimize_mu(args) -> int:
    scenario, attack, _curve, f_fixed = _load_source(args, args.length)
    mu_star, point = rate.optimize_mu(scenario, attack, (args.lo, args.hi), f_fixed=f_fixed)
    print(f"optimal mu: {_fmt(mu_star)}")
    _print_point(point)
    return 0 if point.secure else 2


def _cmd_optimize_pump(args) -> int:
    curve = PPLN_UPCONVERTER
    if args.scenario:
        sf = parse_scenario(read_text(args.scenario))
        file_curve = sf.upconversion_curve()
        if file_curve is None:
            raise UsageError("scenario file has no upconv block")
        curve = file_curve
    point = optimize_pump(curve, (args.lo, args.hi))
    dark = dark_per_window(point.dark_rate_hz, DarkConvention.PER_MODE, curve.bandwidth_hz)
    values = (*point, nep(point.dark_rate_hz, point.efficiency), dark)
    names = (*PumpOperatingPoint._fields, "nep", "dark_per_window")
    _print_rows(list(zip(names, map(_fmt, values))))
    return 0


def _z_score(estimate: float, analytic: float, se: float) -> float:
    if se > 0.0:
        return (estimate - analytic) / se
    if math.isnan(estimate) or estimate == analytic:
        return 0.0
    return math.inf if estimate > analytic else -math.inf


def _cmd_mc(args) -> int:
    if args.mode == "link":
        ir_options = (
            ("--ir-fraction", args.ir_fraction), ("--eve-m", args.eve_m), ("--bob-n", args.bob_n)
        )
        _reject_given(ir_options, "only applies with --mode ir")
    from . import montecarlo  # the sampler loads numpy, so only this command imports it

    scenario, *_ = _load_source(args, args.length)
    ir_fraction = args.ir_fraction
    if ir_fraction is None:
        ir_fraction = 1.0 if args.mode == "ir" else 0.0
    cfg = montecarlo.McConfig(
        scenario=scenario,
        n_pulses=args.pulses,
        seed=args.seed,
        ir_fraction=ir_fraction,
        eve_delay_m=1 if args.eve_m is None else args.eve_m,
        bob_delay_choices=args.bob_n,
    )
    # link mode is intercept-resend at ir_fraction 0
    result = montecarlo.simulate_intercept_resend(cfg)
    p_ref, q_ref = montecarlo.intercept_resend_expectation(cfg)

    # Self-check z-scores use the analytic probabilities in the SE so a
    # single-window run cannot divide by zero.
    se_p = math.sqrt(p_ref * (1.0 - p_ref) / cfg.n_pulses)
    z_p = _z_score(result.p_click_hat, p_ref, se_p)
    if result.clicks > 0 and not math.isnan(q_ref):
        se_q = math.sqrt(q_ref * (1.0 - q_ref) / result.clicks)
        z_q = _z_score(result.qber_hat, q_ref, se_q)
    else:
        z_q = 0.0

    # (estimate, std error, analytic, z) per quantity, read by both the table and the CSV
    quantities = {
        "p_click": (result.p_click_hat, result.p_click_se, p_ref, z_p),
        "qber": (result.qber_hat, result.qber_se, q_ref, z_q),
    }
    counts = {"windows": result.n_windows, "clicks": result.clicks, "errors": result.errors}
    _print_rows([(name, str(count)) for name, count in counts.items()])
    print(f"{'quantity':<10}{'estimate':<24}{'std_error':<24}{'analytic':<24}{'z':<10}")
    for name, (estimate, se, analytic, z) in quantities.items():
        print(f"{name:<10}{_fmt(estimate):<24}{_fmt(se):<24}{_fmt(analytic):<24}{z:<10.3f}")
    if args.csv:
        head = (args.mode, cfg.n_pulses, cfg.seed, result.clicks, result.errors)
        values = [_fmt(v) for row in quantities.values() for v in row]
        _emit_csv(args.csv, [MC_CSV_HEADER, ",".join([*map(str, head), *values])])
    bad = max(abs(z_p), abs(z_q))
    return 3 if bad > 5.0 else 0


def _cmd_plot(args) -> int:
    try:
        csv_text = read_text(args.csv_path)
    except OSError as exc:
        raise UsageError(f"cannot read CSV: {exc}") from None
    script = render_plot_script(args.csv_path, csv_text)
    out = args.out or args.csv_path + ".plot.py"
    _write_text(out, script)
    print(out)
    return 0


def _cmd_presets(args) -> int:
    # "list" is the only action the parser accepts
    registry = load_presets()
    print(f"{'name':<8}{'mu':<7}{'nu_hz':<9}{'b':<6}{'f':<6}{'alpha':<7}{'n_set':<12}detectors")
    for preset in registry.values():
        n_set = ",".join(str(n) for n in preset.n_set)
        detectors = " ".join(
            f"{name}(eta={spec.efficiency},d={spec.dark_per_window})"
            for name, spec in preset.detectors.items()
        )
        print(
            f"{preset.name:<8}{preset.mu:<7g}{preset.clock_hz:<9g}"
            f"{preset.baseline_error:<6g}{preset.f:<6g}"
            f"{preset.alpha_db_per_km:<7g}{n_set:<12}{detectors}"
        )
    return 0


def _add_source_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--scenario", metavar="PATH", help="scenario file path")
    sp.add_argument("--preset", metavar="NAME", help="preset name (see 'presets list')")
    sp.add_argument(
        "--detector", choices=DETECTOR_VARIANTS, default=None,
        help="detector variant for presets (default si)",
    )
    sp.add_argument("--n", type=_integer, default=None, help="interferometer delay N")


def _add_chain_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--attack", choices=sorted(a.value for a in AttackModel), default=None,
        help="attack model (preset default hybrid_nomem)",
    )
    sp.add_argument("--delta", type=_finite_float, default=None,
                    help="dead-time exponent scale (default 1/2, half the clicks per detector)")
    sp.add_argument("--f-mode", choices=("table", "fixed"), default="table",
                    help="error-correction overhead: table interpolation or fixed value")
    sp.add_argument("--f-value", type=_finite_float, default=None,
                    help="overhead used with --f-mode fixed (default: preset f or 1.16)")


def build_parser() -> _Parser:
    parser = _Parser(prog="dpsrk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("rate", help="evaluate one operating point")
    _add_source_args(sp)
    _add_chain_args(sp)
    sp.add_argument("--length", type=_finite_float, default=0.0, help="link length in km")
    sp.add_argument("--csv", metavar="PATH", help="append the point as a CSV row")
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser("sweep", help="sweep an axis and emit CSV")
    _add_source_args(sp)
    _add_chain_args(sp)
    sp.add_argument("--axis", choices=("distance", "pump", "mu"), required=True)
    sp.add_argument("--lo", type=_finite_float, required=True)
    sp.add_argument("--hi", type=_finite_float, required=True)
    sp.add_argument("--steps", type=_integer, required=True)
    sp.add_argument("--length", type=_finite_float, default=None,
                    help="fixed link length for mu/pump sweeps")
    sp.add_argument("--csv", metavar="PATH", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("max-distance", help="largest secure distance")
    _add_source_args(sp)
    _add_chain_args(sp)
    sp.add_argument("--rmin", type=_finite_float, default=0.0,
                    help="minimum acceptable rate in bit/s")
    sp.set_defaults(func=_cmd_max_distance)

    sp = sub.add_parser("optimize-mu", help="maximize the rate over mu")
    _add_source_args(sp)
    _add_chain_args(sp)
    sp.add_argument("--length", type=_finite_float, default=0.0, help="link length in km")
    sp.add_argument("--lo", type=_finite_float, default=0.01)
    sp.add_argument("--hi", type=_finite_float, default=1.0)
    sp.set_defaults(func=_cmd_optimize_mu)

    sp = sub.add_parser("optimize-pump", help="NEP-optimal up-conversion pump")
    sp.add_argument("--scenario", metavar="PATH",
                    help="scenario file with an upconv block (default: built-in fit)")
    sp.add_argument("--lo", type=_finite_float, default=0.0)
    sp.add_argument("--hi", type=_finite_float, default=SUPPORTED_PUMP_MAX_MW)
    sp.set_defaults(func=_cmd_optimize_pump)

    sp = sub.add_parser("mc", help="Monte Carlo validation of the analytic model")
    _add_source_args(sp)
    sp.add_argument("--length", type=_finite_float, default=0.0, help="link length in km")
    sp.add_argument("--pulses", type=_integer, default=1_000_000, help="number of windows")
    sp.add_argument("--seed", type=_integer, default=0, help="64-bit stream seed")
    sp.add_argument("--mode", choices=("link", "ir"), default="link")
    sp.add_argument("--ir-fraction", type=_finite_float, default=None,
                    help="attacked window fraction (ir mode only, default 1.0)")
    sp.add_argument("--eve-m", type=_integer, default=None,
                    help="Eve's delay M (ir mode only, default 1)")
    sp.add_argument("--bob-n", metavar="N1,N2,...", type=_int_list, default=None,
                    help="Bob's random delay choices (ir mode only; default: scenario delay)")
    sp.add_argument("--csv", metavar="PATH", help="also write the result as CSV")
    # mc reads no chain option; _load_source reads their no-value defaults
    sp.set_defaults(func=_cmd_mc, attack=None, delta=None, f_mode="table", f_value=None)

    sp = sub.add_parser("plot", help="emit a plotting script for a sweep CSV")
    sp.add_argument("csv_path", metavar="CSV")
    sp.add_argument("--out", metavar="PATH", help="script path (default CSV + .plot.py)")
    sp.set_defaults(func=_cmd_plot)

    sp = sub.add_parser("presets", help="inspect the preset registry")
    sp.add_argument("action", choices=("list",))
    sp.set_defaults(func=_cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails here rather than at exit
        return code
    except BrokenPipeError:
        # The reader has gone, which is no error.  Point stdout at devnull so
        # that the exit flush of what is still buffered stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DpsrkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
