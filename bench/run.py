#!/usr/bin/env python3
"""Benchmark of the dpsrk rate chain, its solvers and its Monte Carlo sampler.

Run from the repository root; the package is imported from ``src``, so it
need not be installed:

    python3 bench/run.py --workload paper-figures --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

A run sets the workload up in several fresh processes (``setup_s`` is their
median), sets it up once more in this process, then repeats whole rounds of
the workload until ``--seconds`` is used up (at least three rounds).  The
first round is checked against the oracle (``oracle.py``); later rounds must
reproduce it exactly.  ``--trace 1`` wraps every layer's public functions and
reports per-layer figures instead of the end-to-end ones.  The last line of
standard output is the result as JSON; spans and results are written to
``bench/out``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("paper-figures", "design-search", "mc-validation")
# Fresh-process set-ups: a few before the first round and one after every
# round, so that the median spans the whole run.
SETUP_AT_START = 4
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
CLI_TIMEOUT_S = 120

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("round_s", "s"), ("cli_s", "s"))
SETUP_LAYERS = ("presets.load_presets", "scenario.parse_scenario", "detector.UpConversionCurve")
CHAIN_LAYERS = (
    "link.channel_stats", "security.f_ec", "security.bs_transmission",
    "security.surviving_fraction", "security.shrink_hybrid", "security.poisson_multiphoton",
    "security.single_photon_fraction", "security.shrink_individual", "rate.secure_rate",
    "detector.make_detector_from_upconversion",
)
SOLVER_LAYERS = ("rate.optimize_mu", "rate.max_secure_distance", "detector.optimize_pump")
MC_LAYERS = ("montecarlo.simulate_link", "montecarlo.simulate_intercept_resend")
PHASE_FIGURES = (
    ("rate_points_per_s", "points/s"), ("max_distance_solves_per_s", "solves/s"),
    ("optimize_mu_solves_per_s", "solves/s"), ("optimize_pump_solves_per_s", "solves/s"),
    ("mc_link_windows_per_s", "windows/s"), ("mc_ir_windows_per_s", "windows/s"),
    ("cli_sweep_s", "s"), ("cli_optimize_mu_s", "s"), ("cli_mc_s", "s"),
)
HEADLINE_FIGURE = {"sweep-distance": "cli_sweep_s", "optimize-mu": "cli_optimize_mu_s",
                   "mc": "cli_mc_s"}


def per_layer_units() -> list[tuple[str, str]]:
    units = []
    for name in SETUP_LAYERS:
        units += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    for name in CHAIN_LAYERS:
        units += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    for name in SOLVER_LAYERS:
        units += [(f"{name}.evals_per_solve", "evals"), (f"{name}.self_s", "s")]
    for name in MC_LAYERS:
        units += [(f"{name}.windows", "windows"), (f"{name}.s", "s")]
    units += [("cli.main.s", "s"), ("cli.cold_start_s", "s"), ("cli.csv_bytes", "bytes"),
              ("trace.overhead_pct", "%")]
    return units + list(PHASE_FIGURES)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def fresh_setup(args) -> float:
    """Seconds from spawning a process to its workload inputs being ready."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=CLI_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return elapsed


def run_cli(job, cwd: str) -> tuple[float, int, str, str]:
    """Run one CLI call in a fresh interpreter: (seconds, exit code, stdout, CSV text)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "dpsrk.cli", *job.argv], cwd=cwd,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    return elapsed, proc.returncode, proc.stdout, read_csv(job)


def run_cli_in_process(job, cli_module) -> tuple[float, int, str, str]:
    """Run one CLI call through ``dpsrk.cli.main`` in this process."""
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli_module.main(list(job.argv))
    elapsed = time.perf_counter() - start
    return elapsed, code, stdout.getvalue(), read_csv(job)


def read_csv(job) -> str:
    if job.csv is None:
        return ""
    with open(job.csv) as fh:
        return fh.read()


def run_jobs(wl, jobs, record: dict, work: str, traced: bool, in_process: bool) -> list:
    """Make the round's CLI calls; returns each call's (exit code, stdout, CSV text).

    Untraced rounds run each call as a subprocess; a traced run also makes
    it in process, and its traced rounds only in process.
    """
    cli_module = wl.m.cli
    outputs = []
    for job in jobs:
        results = []
        if not traced:
            results.append(("cli", run_cli(job, work)))
        if in_process:
            results.append(("in_process", run_cli_in_process(job, cli_module)))
        for where, result in results:
            record[where].append((job.kind, result[0]))
        if len({result[1:] for _, result in results}) > 1:
            wl.fail(f"cli {job.kind}: in-process output differs from the subprocess's")
        outputs.append(results[0][1][1:])
        record["csv_bytes"] += len(outputs[-1][2].encode())
    return outputs


def check_job(wl, job, outputs) -> None:
    error = job.check(*outputs)
    if error:
        wl.fail(f"cli {job.kind}: {error}")


def measure(args, work: str) -> dict:
    from tracing import Tracer, delta
    from workloads import WORKLOADS, digest

    tracer = Tracer() if args.trace else None
    setup_times = [] if tracer else [fresh_setup(args) for _ in range(SETUP_AT_START)]
    if tracer:
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, work)
    if tracer:
        setup_stats = tracer.snapshot()
        tracer.uninstall()
    wl.write_inputs()
    jobs = wl.cli_jobs()

    rounds = []
    verdicts: dict = {}  # key -> (first-round output digest, operations it failed)
    start = time.perf_counter()
    while True:
        first_round = not rounds
        traced = tracer is not None and not first_round
        record = {"times": {}, "cli": [], "in_process": [], "csv_bytes": 0}

        def judge(key, value: bytes, check, ops: int) -> None:
            """Check the first round; later rounds repeat its verdict while the output holds."""
            if first_round:
                failed_before = wl.failed
                check()
                verdicts[key] = (value, wl.failed - failed_before)
            elif value == verdicts[key][0]:
                wl.failed += verdicts[key][1]
            else:
                wl.fail(f"{key}: output differs from the first round", ops)

        def sink(key, seconds, result):
            record["times"][key] = seconds
            judge(key, wl.digest_of(key, result), lambda: wl.check_group(key, result),
                  wl.group_ops(key))

        if traced:
            tracer.install()
            before = tracer.snapshot()
        round_start = time.perf_counter()
        wl.run_round(sink)
        cli_outputs = run_jobs(wl, jobs, record, work, traced, in_process=tracer is not None)
        if traced:
            record["stats"] = delta(tracer.snapshot(), before)
            tracer.uninstall()
        record["wall"] = time.perf_counter() - round_start
        if tracer is None:
            setup_times.append(fresh_setup(args))
        record["loop"] = time.perf_counter() - round_start
        for i, (job, outputs) in enumerate(zip(jobs, cli_outputs)):
            judge(("cli", i, job.kind), digest(*outputs), lambda: check_job(wl, job, outputs), 1)
        judge(("properties",), b"", wl.finish_check, 1)
        rounds.append(record)
        elapsed = time.perf_counter() - start
        needed = MIN_ROUNDS if tracer is None else 1 + MIN_TRACED_ROUNDS
        typical = statistics.median(r["loop"] for r in rounds[1:] or rounds)
        if len(rounds) >= needed and elapsed + typical > args.seconds:
            break

    group_median = {
        key: statistics.median(r["times"][key] for r in rounds) for key in rounds[0]["times"]
    }
    first = rounds[0]
    counts = ("calls", "evals", "windows")
    if tracer and any(r["stats"][k] != rounds[1]["stats"][k] for r in rounds[2:] for k in counts):
        wl.fail("traced counts differ between rounds")
    for note in wl.notes:
        print(f"note: {note}")
    for message in wl.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "round_s": sum(group_median.values()),
            "cli_s": statistics.median(
                t for r in rounds for kind, t in r["cli"] if kind == wl.headline_cli),
        }
        units = dict(END_TO_END)
        for name, value in wl.phase_figures(group_median).items():
            print(f"info: {name} = {value:.6g} (median group times over {len(rounds)} rounds)")
    else:
        metrics = layer_metrics(wl, rounds, setup_stats)
        units = dict(per_layer_units())
    attempted = wl.ops_per_round * len(rounds)
    result = {
        "correct": not wl.failures,
        "attempted": attempted,
        "failed": min(wl.failed, attempted),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if tracer:
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"), result)
    print(f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"{attempted} operations, {result['failed']} failed, first round {first['wall']:.2f} s")
    for name, entry in result["metrics"].items():
        print(f"  {name:<50} {entry['value']:.6g} {entry['unit']}")
    return result


def layer_metrics(wl, rounds, setup_stats) -> dict:
    first, traced = rounds[0], rounds[1:]
    stats = traced[0]["stats"]

    def median_of(kind: str, name: str) -> float:
        return statistics.median(r["stats"][kind].get(name, 0.0) for r in traced)

    metrics = {}
    for name in SETUP_LAYERS:
        metrics[f"{name}.calls"] = setup_stats["calls"].get(name, 0)
        metrics[f"{name}.s"] = setup_stats["total"].get(name, 0.0)
    for name in CHAIN_LAYERS:
        metrics[f"{name}.calls"] = stats["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = median_of("self", name)
    for name in SOLVER_LAYERS:
        calls = stats["calls"].get(name, 0)
        metrics[f"{name}.evals_per_solve"] = stats["evals"].get(name, 0) / calls if calls else 0.0
        metrics[f"{name}.self_s"] = median_of("self", name)
    for name in MC_LAYERS:
        metrics[f"{name}.windows"] = stats["windows"].get(name, 0)
        metrics[f"{name}.s"] = median_of("total", name)
    in_process = [t for _, t in first["in_process"]]
    metrics["cli.main.s"] = statistics.median(
        t for kind, t in first["in_process"] if kind == wl.headline_cli)
    metrics["cli.cold_start_s"] = statistics.median(
        sub - inner for (_, sub), inner in zip(first["cli"], in_process))
    metrics["cli.csv_bytes"] = first["csv_bytes"]
    untraced = sum(first["times"].values())
    traced_lib = statistics.median(sum(r["times"].values()) for r in traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_lib / untraced - 1.0)
    figures = dict.fromkeys((name for name, _ in PHASE_FIGURES), 0.0)
    figures.update(wl.phase_figures(first["times"]))
    figures[HEADLINE_FIGURE[wl.headline_cli]] = statistics.median(
        t for kind, t in first["cli"] if kind == wl.headline_cli)
    metrics.update(figures)
    return metrics


def run_all(args) -> int:
    """Run every workload, each in a fresh process."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs, print 'ready' and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if not (SRC / "dpsrk" / "__init__.py").is_file():
        print(f"error: the dpsrk sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, "")
        print("ready", flush=True)
        return 0
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = json.dumps(result)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
