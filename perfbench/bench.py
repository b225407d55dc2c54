"""Measurement: the untraced timed loop and its end-to-end metrics, the
traced run and its per-layer metrics, and the result line."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import mpmath
import numpy
import scipy

from shiryaev_qsd import eigen, laplace, moments
from shiryaev_qsd.specfun import OrderParam, whittaker_w

from probes import (ANCHOR_COLD_LEVELS, ANCHOR_LEVEL, ANCHOR_ODE_S, ANCHOR_S,
                    ANCHOR_WHITTAKER, anchors, layer_probe)
from tracing import NullTracer, Tracer
from workloads import PRIMARY, WORKLOADS, cycles, run_op

OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 5
# what every CLI call pays before it does any work
SETUP_CODE = "import shiryaev_qsd, shiryaev_qsd.cli; shiryaev_qsd.cli.build_parser()"
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
REF_LOOPS = 20_000  # about 5 ms of interpreter work
REF_EVERY_S = 0.2  # one reference task per this much wall time

END_TO_END = {
    "setup_s": "s",
    "op_cost_ref": "ref",
    "anchor.route_spread": "relative",
    "anchor.ode_residual": "absolute",
}


def _per_layer() -> dict[str, tuple[str, str]]:
    """Per-layer metric -> (unit, span name whose median duration it is);
    the span name is empty for the metrics computed otherwise."""
    spec = {}
    for b in ("real", "imag"):
        spec[f"specfun.whittaker_w.{b}.call_ms"] = ("ms", f"specfun.whittaker_w.{b}")
        spec[f"specfun.weber_incomplete.{b}.call_ms"] = (
            "ms", f"specfun.weber_incomplete.{b}")
    spec["specfun.kampe_de_feriet.call_ms"] = ("ms", "specfun.kampe_de_feriet")
    for b in ("real", "imag"):
        spec[f"eigen.principal_lambda.cold_ms.{b}"] = ("ms", f"eigen.principal_lambda.{b}")
    spec["distribution.make_params.call_ms"] = ("ms", "distribution.make_params")
    for f in ("qsd_pdf", "qsd_cdf"):
        for b in ("real", "imag"):
            spec[f"distribution.{f}.point_ms.{b}"] = ("ms", f"distribution.{f}.{b}")
    for m in moments.METHODS:
        spec[f"moments.{m}.call_ms"] = ("ms", f"moments.{m}")
    for m in laplace.METHODS + ("ode_residual",):
        spec[f"laplace.{m}.call_ms"] = ("ms", f"laplace.{m}")
    for m in laplace.METHODS:
        spec[f"laplace.{m}.refused"] = ("count", "")
    spec["simulate.simulate.call_s"] = ("s", "simulate.simulate")
    spec["simulate.path_steps"] = ("count", "")
    spec["simulate.ns_per_path_step"] = ("ns", "")
    spec["simulate.compare_to_analytic.call_s"] = ("s", "simulate.compare_to_analytic")
    spec["trace.overhead_share"] = ("fraction", "")
    for A in ANCHOR_COLD_LEVELS:
        spec[f"anchor.principal_lambda.A{A:g}.cold_ms"] = (
            "ms", f"anchor.principal_lambda.A{A:g}")
    for b, _, z in ANCHOR_WHITTAKER:
        spec[f"anchor.whittaker_w.{b}.z{z:g}.call_ms"] = (
            "ms", f"anchor.whittaker_w.{b}.z{z:g}")
    for s in ANCHOR_S:
        for m in laplace.METHODS:
            name = f"anchor.laplace.{m}.A{ANCHOR_LEVEL:g}.s{s:g}"
            spec[f"{name}.call_ms"] = ("ms", name)
    name = f"anchor.ode_residual.A{ANCHOR_LEVEL:g}.s{ANCHOR_ODE_S:g}"
    spec[f"{name}.call_ms"] = ("ms", name)
    name = f"anchor.moments_quadrature.A{ANCHOR_LEVEL:g}"
    spec[f"{name}.call_ms"] = ("ms", name)
    return spec


PER_LAYER = _per_layer()


def environment() -> dict:
    """What every specfun number depends on: cores, versions and the
    mpmath arithmetic backend."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cli_simulate_verify": "not benchmarked: the CLI's simulate and verify "
                               "commands crash while the package's simulate "
                               "function shadows its submodule",
    }


def setup_seconds(src: Path) -> float:
    """Median wall time of a fresh interpreter importing the package and
    building the CLI parser; the median also drops the first launch's
    bytecode compilation in a fresh checkout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_up() -> None:
    """Let mpmath's lazily built tables fill before timing: one Whittaker
    evaluation per order branch."""
    for order in (OrderParam.real(0.3), OrderParam.imaginary(0.3)):
        whittaker_w(1.0, order, 1.0)


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python task that calls no library code.
    The host's speed drifts by tens of percent within seconds and over
    minutes, for the interpreter's arithmetic and the library alike; the
    gated operation cost is in units of this task's mean time in the same
    run, so the drift cancels while any change to the library's own cost
    stays."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(REF_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc / 7.0
    sorted(table.values())
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs the reference task from a SIGALRM handler every REF_EVERY_S of
    wall time, so that the host's speed is sampled evenly through each
    operation: samples taken only between operations, seconds apart,
    missed most of the drift.  ``spent`` is the handler's own time, which
    the caller takes out of the operations' times."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def closed_loop(workload, seed, seconds, speed: SpeedSampler):
    """One caller issues the workload's operations back to back, untraced,
    in whole cycles so that every run has the same mix of operations.  A
    cycle starts only when it is expected to end within ``seconds``; the
    first always runs.  Each operation's time excludes the reference
    samples taken during it."""
    tr = NullTracer()
    ctx: dict = {}
    outcomes = []
    t0 = time.perf_counter()
    for k, cycle in enumerate(cycles(workload, seed)):
        if k and (time.perf_counter() - t0) * (k + 1) / k > seconds:
            return outcomes
        for op in cycle:
            spent = speed.spent
            outcome = run_op(tr, op, ctx)
            outcome.seconds -= speed.spent - spent
            outcomes.append(outcome)


def paired_loop(tr, workload, seed, seconds):
    """Each operation twice on the same inputs, once traced and once not,
    alternating which goes first, with principal_lambda's cache cleared
    before each so that both solve cold, until ``seconds`` have passed;
    returns the outcomes and traced over untraced time minus 1."""
    null = NullTracer()
    ctx: dict = {null: {}, tr: {}}
    spent = {null: 0.0, tr: 0.0}
    outcomes = []
    t0 = time.perf_counter()
    ops = (op for cycle in cycles(workload, seed) for op in cycle)
    for i, op in enumerate(ops):
        if i and time.perf_counter() - t0 >= seconds:
            break
        for t in ((null, tr) if i % 2 == 0 else (tr, null)):
            eigen.principal_lambda.cache_clear()
            outcomes.append(run_op(t, op, ctx[t]))
            spent[t] += outcomes[-1].seconds
    return outcomes, spent[tr] / spent[null] - 1.0


def answers(workload, outcomes) -> int:
    """Cross-checked answers: primary operations that passed every check."""
    return sum(o.ok and o.op.kind == PRIMARY[workload] for o in outcomes)


def seconds_per_answer(workload, outcomes) -> float:
    """Time of all the run's operations per cross-checked answer; a run
    without any answer reads as the cost of the whole run."""
    return sum(o.seconds for o in outcomes) / max(1, answers(workload, outcomes))


def correct(outcomes) -> bool:
    """True when no operation crashed, was refused or failed a check."""
    return all(o.ok for o in outcomes)


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (percentile, value), or None when that percentile is not above the
    median."""
    n = len(values)
    i = n - 1 - TAIL_BEYOND
    if 2 * (i + 1) <= n:
        return None
    return math.floor(100 * (i + 1) / n), sorted(values)[i]


def _timing(name, values):
    rows = [(f"{name}.p50", statistics.median(values), "s", f"n={len(values)}")]
    t = tail(values)
    if t is None:
        rows.append((f"{name}.tail", None, "s",
                     f"n={len(values)}, too few samples for a tail"))
    else:
        rows.append((f"{name}.tail", t[1], "s", f"p{t[0]}, n={len(values)}"))
    return rows


def named_metrics(workload, outcomes, cache_hit_share):
    """The workload's own metrics, by the names a reader of the library
    would use."""
    rate = 1.0 / seconds_per_answer(workload, outcomes)
    n_ok = answers(workload, outcomes)

    def of(kind):
        return [o for o in outcomes if o.op.kind == kind]

    rows = []
    if workload == "level-sweep":
        rows += _timing("level_s", [o.seconds for o in of("level")])
        rows.append(("levels_per_s", rate, "1/s", f"{n_ok} checked levels"))
    elif workload == "route-table":
        rows_, tables = of("row"), of("table")
        rows += _timing("laplace_row_s", [o.seconds for o in rows_])
        rows.append(("moment_table_s.p50",
                     statistics.median(o.seconds for o in tables), "s",
                     f"n={len(tables)}"))
        rows.append(("rows_per_s", rate, "1/s",
                     f"{n_ok} checked rows, tables' time included"))
        spreads = ([o.info["route_spread"] for o in rows_ if o.info]
                   + [o.info["moment_spread"] for o in tables if o.info])
        residuals = [o.info["ode_residual"] for o in rows_ if o.info]
        rows.append(("route_spread_max", max(spreads, default=None), "relative",
                     f"n={len(spreads)}"))
        rows.append(("ode_residual_max", max(residuals, default=None), "absolute",
                     f"n={len(residuals)}"))
    else:
        verdicts = of("verdict")
        rows += _timing("verdict_s", [o.seconds for o in verdicts])
        steps = sum(o.info["path_steps"] for o in verdicts if o.info)
        rows.append(("path_steps_per_s", steps / sum(o.seconds for o in verdicts),
                     "1/s", "path-steps computed from the survival curves"))
    failed = sum(not o.ok for o in outcomes)
    rows.append(("failed_share", failed / len(outcomes), "fraction",
                 f"{failed} of {len(outcomes)} operations"))
    rows.append(("repeated_level_share", cache_hit_share, "fraction",
                 "eigen solves answered by principal_lambda's cache"))
    return rows


def _cache_hit_share(before, after) -> float:
    hits = after.hits - before.hits
    calls = hits + after.misses - before.misses
    return hits / calls if calls else 0.0


def untraced_run(workload, seed, seconds, src):
    setup = setup_seconds(src)
    warm_up()
    before = eigen.principal_lambda.cache_info()
    with SpeedSampler() as speed:
        outcomes = closed_loop(workload, seed, seconds, speed)
    hit_share = _cache_hit_share(before, eigen.principal_lambda.cache_info())
    route_spread, ode_residual = anchors(NullTracer(), timing=False)
    ref = statistics.fmean(speed.samples)

    metrics = {
        "setup_s": setup,
        "op_cost_ref": seconds_per_answer(workload, outcomes) / ref,
        "anchor.route_spread": route_spread,
        "anchor.ode_residual": ode_residual,
    }
    named = named_metrics(workload, outcomes, hit_share)
    named += [("ref_s", ref, "s", f"mean of {len(speed.samples)} reference tasks"),
              ("op_cost_ref", metrics["op_cost_ref"], "ref",
               "seconds per checked answer over ref_s"),
              ("setup_s", setup, "s", f"median of {SETUP_REPEATS} launches")]
    return outcomes, metrics, named, None


def traced_run(workload, seed, seconds):
    """Half the time on traced and untraced runs of the same operations,
    then the layer probe and the anchors, all traced."""
    warm_up()
    tr = Tracer()
    outcomes, overhead = paired_loop(tr, workload, seed, seconds / 2)
    layer_probe(tr, seed, workload)
    anchors(tr, timing=True)

    spans = tr.by_name()
    metrics = {}
    for name, (unit, span) in PER_LAYER.items():
        if span:
            scale = {"ms": 1e3, "s": 1.0}[unit]
            metrics[name] = scale * statistics.median(s.seconds for s in spans[span])
    for m in laplace.METHODS:
        metrics[f"laplace.{m}.refused"] = sum(
            "error" in s.attrs for s in spans.get(f"laplace.{m}", []))
    steps = tr.counts["simulate.path_steps"]
    metrics["simulate.path_steps"] = steps
    metrics["simulate.ns_per_path_step"] = 1e9 * sum(
        s.seconds for s in spans["simulate.simulate"]) / steps
    metrics["trace.overhead_share"] = overhead
    named = [("trace.overhead_share", overhead, "fraction",
              f"{len(outcomes) // 2} operations, each traced and untraced")]
    return outcomes, metrics, named, tr


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv, src: Path) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if args.trace:
        outcomes, metrics, named, tr = traced_run(args.workload, args.seed, args.seconds)
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        outcomes, metrics, named, tr = untraced_run(args.workload, args.seed,
                                                    args.seconds, src)
        units = END_TO_END

    env = environment()
    for name, value, unit, note in named:
        print(f"{args.workload:12s} {name:24s} {_fmt(value):>12s} {unit:9s} {note}")
    print("environment " + json.dumps(env))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"environment": env, "metrics": metrics,
                   "named": [dict(zip(("name", "value", "unit", "note"), r))
                             for r in named],
                   "operations": [{"op": asdict(o.op), "seconds": o.seconds,
                                   "errors": o.errors, "checks": o.checks,
                                   "info": o.info}
                                  for o in outcomes]},
                  fh, indent=1)
    if tr is not None:
        tr.dump(OUT_DIR / f"{stem}-spans.json")

    result = {
        "correct": correct(outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0
