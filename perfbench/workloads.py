"""The benchmark's three seeded workloads: how each draws its inputs, the
operations that drive the library with them, and the checks on the outputs.

Every workload is a closed loop with one caller that runs whole cycles of
operations.  A cycle is a set of stratified draws, so that the share of
each branch and each cost class is the same for every seed and only the
draws inside the strata change.  The library receives only the drawn
numbers.

- ``level-sweep``: one cold ``principal_lambda`` per level, then
  ``make_params``, ``lambda_bounds`` and ``moments_recurrence``.  Levels
  are log-uniform on [0.05, 500] in 16 strata, 9 below and 7 above the
  critical level; the eigen solve is nearly all of the time and no
  pdf/cdf point is evaluated.
- ``route-table``: per level, the moment table by every ``moments.METHODS``
  route, then at one s every ``laplace.METHODS`` route plus
  ``ode_residual``.  A cycle has two levels log-uniform on [0.5, 2.26]
  and [2.26, 10.24], below the critical level, and one on [10.24, 20],
  above it; each takes its s from one of three log strata of [0.1, 5].
  One eigen solve serves ten route calls.
- ``monte-carlo``: ``simulate`` plus ``compare_to_analytic`` for one
  imaginary-branch level near 2, where the analytic cdf table dominates,
  and one real-branch level near 20, where the Euler steps dominate.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from shiryaev_qsd import distribution, eigen, laplace, moments
from shiryaev_qsd.errors import QsdError
from shiryaev_qsd.moments import max_rel_spread
from shiryaev_qsd.simulate import SimConfig, compare_to_analytic, simulate

# lambda_A = 1/8 at this level: xi is imaginary below it and real above it
CRITICAL_A = eigen.critical_A()

N_MAX = 10
ANALYTIC_MOMENTS = ("recurrence", "2f2", "powerseries")

# output gates, from acceptance criteria 4 and 6
MOMENT_SPREAD_MAX = 1e-9
MOMENT_QUAD_REL = 1e-6
ROUTE_SPREAD_MAX = 1e-6
ODE_RESIDUAL_MAX = 1e-5

LEVEL_SWEEP_RANGE = (0.05, 500.0)
# strata per side of the critical level, in proportion to its log-length,
# so that a stratum never straddles the two branches' solve costs
LEVEL_SWEEP_STRATA = (9, 7)
ROUTE_LEVEL_RANGE = (0.5, 20.0)
# a table plus a row costs about 6 s at level 0.5-2, 5 s at levels 2-10
# and 1.4 s above the critical level
ROUTE_S_RANGE = (0.1, 5.0)
# (level range, paths, horizon, dt) per config.  With 20k paths the
# level-20 decay rate scatters by 2%, too close to the 5% gate of
# ComparisonReport.passed(); at level 2 the Euler scheme's barrier bias
# at dt = 1e-3 already takes up to 4% off lambda_hat, hence dt = 5e-4.
MC_CONFIGS = (((1.8, 2.2), 60_000, 5.0, 5e-4), ((18.0, 22.0), 30_000, 25.0, 1e-3))

WORKLOADS = ("level-sweep", "route-table", "monte-carlo")
# the operation whose checked answers a workload's cost is per
PRIMARY = {"level-sweep": "level", "route-table": "row", "monte-carlo": "verdict"}


@dataclass(frozen=True)
class Op:
    kind: str  # level | table | row | verdict
    A: float
    s: float = 0.0
    paths: int = 0
    horizon: float = 0.0
    dt: float = 0.0
    sim_seed: int = 0


@dataclass
class Outcome:
    op: Op
    seconds: float
    errors: list  # one entry per refusal or crash
    checks: dict  # check name -> passed
    info: dict

    @property
    def ok(self) -> bool:
        return not self.errors and all(self.checks.values())


def branch(A: float) -> str:
    return "imag" if A < CRITICAL_A else "real"


def _log_uniform(lo, hi, u) -> float:
    return lo * (hi / lo) ** u


def _antithetic(rng, ranges):
    """One log-uniform draw per range, at offsets u, 1 - u, u, ... into
    them: each draw is log-uniform in its range, and a cost that falls
    with the draw is spread evenly over a cycle."""
    u = rng.uniform()
    return [_log_uniform(lo, hi, 1 - u if i % 2 else u)
            for i, (lo, hi) in enumerate(ranges)]


def _log_strata(lo, hi, k):
    edges = np.geomspace(lo, hi, k + 1)
    return list(zip(edges, edges[1:]))


def cycles(workload: str, seed: int, stream: int = 0):
    """Endless cycles of operations; the same (workload, seed, stream)
    always gives the same inputs, and distinct streams give disjoint
    draws."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), stream])
    while True:
        if workload == "level-sweep":
            lo, hi = LEVEL_SWEEP_RANGE
            below, above = LEVEL_SWEEP_STRATA
            strata = (_log_strata(lo, CRITICAL_A, below)
                      + _log_strata(CRITICAL_A, hi, above))
            yield [Op("level", _log_uniform(a, b, rng.uniform())) for a, b in strata]
        elif workload == "route-table":
            lo, hi = ROUTE_LEVEL_RANGE
            # the two imaginary strata take offsets u and 1 - u, so the
            # cost, which falls with the level there, evens out in a cycle
            strata = _log_strata(lo, CRITICAL_A, 2) + [(CRITICAL_A, hi)]
            levels = _antithetic(rng, strata)
            # the costliest level takes the highest s stratum, where its
            # ODE residual is cheapest
            s_strata = _log_strata(*ROUTE_S_RANGE, 3)[::-1]
            cycle = []
            for A, s in zip(levels, _antithetic(rng, s_strata)):
                cycle += [Op("table", A), Op("row", A, s=s)]
            yield cycle
        elif workload == "monte-carlo":
            levels = _antithetic(rng, [c[0] for c in MC_CONFIGS])
            yield [Op("verdict", A, paths=paths, horizon=horizon, dt=dt,
                      sim_seed=int(rng.integers(2**31)))
                   for A, (_, paths, horizon, dt) in zip(levels, MC_CONFIGS)]
        else:
            raise ValueError(f"unknown workload {workload!r}")


def params(tr, A: float):
    sol = tr.call(f"eigen.principal_lambda.{branch(A)}", eigen.principal_lambda, A)
    return tr.call("distribution.make_params", distribution.make_params, sol)


def _level(tr, op, ctx, errors):
    p = params(tr, op.A)
    lo, hi = tr.call("eigen.lambda_bounds", eigen.lambda_bounds, op.A)
    tr.call("moments.recurrence", moments.moments_recurrence, p, N_MAX)
    return {"lambda_in_bounds": lo < p.eigen.lam < hi}, {"branch": branch(op.A)}


def analytic_spread(series: dict) -> float:
    """Largest spread over the analytic routes of any one moment."""
    return max(max_rel_spread(col)
               for col in zip(*(series[m] for m in ANALYTIC_MOMENTS)))


def moment_table(tr, p):
    """Moment series by every route; returns the analytic spread and the
    quadrature route's relative distance from the recurrence."""
    series = {m: tr.call(f"moments.{m}", moments.moment_series, p, N_MAX, m).values
              for m in moments.METHODS}
    rec, quad = series["recurrence"], series["quadrature"]
    spread = analytic_spread(series)
    quad_rel = max(abs(quad[n] - rec[n]) / abs(rec[n]) for n in range(N_MAX + 1))
    return spread, quad_rel


def _table(tr, op, ctx, errors):
    p = ctx[op.A] = params(tr, op.A)
    spread, quad_rel = moment_table(tr, p)
    return ({"moment_spread": spread <= MOMENT_SPREAD_MAX,
             "moment_quadrature": quad_rel <= MOMENT_QUAD_REL},
            {"branch": branch(op.A), "moment_spread": spread,
             "moment_quad_rel": quad_rel})


def laplace_row(tr, p, s, errors):
    """Every Laplace route at s and the ODE residual; a refused route is
    appended to ``errors`` and left out of the spread."""
    vals = []
    for m in laplace.METHODS:
        try:
            vals.append(tr.call(f"laplace.{m}", laplace.evaluate, p, s, m).value)
        except QsdError as exc:
            errors.append(f"laplace.{m}:{type(exc).__name__}")
    spread = max_rel_spread(vals) if len(vals) > 1 else math.inf
    residual = tr.call("laplace.ode_residual", laplace.ode_residual, p, s)
    return spread, residual


def _row(tr, op, ctx, errors):
    if op.A not in ctx:
        errors.append("no parameters: the level's table operation failed")
        return {}, {}
    spread, residual = laplace_row(tr, ctx[op.A], op.s, errors)
    return ({"route_spread": spread <= ROUTE_SPREAD_MAX,
             "ode_residual": abs(residual) <= ODE_RESIDUAL_MAX},
            {"branch": branch(op.A), "route_spread": spread,
             "ode_residual": abs(residual)})


def path_steps(emp, config: SimConfig) -> float:
    """Path-steps taken, computed from the survival curve: paths alive at
    the end of each record interval times the steps in that interval."""
    t, alive = emp.survival[:, 0], emp.survival[:, 1]
    return float(config.paths * np.sum(alive[1:] * np.diff(t)) / config.dt)


def verdict(tr, op: Op):
    """Seeded simulation at the op's level compared with the analytic law."""
    p = params(tr, op.A)
    config = SimConfig(A=op.A, paths=op.paths, horizon=op.horizon, dt=op.dt,
                       seed=op.sim_seed)
    emp = tr.call("simulate.simulate", simulate, config)
    report = tr.call("simulate.compare_to_analytic", compare_to_analytic, emp, p)
    steps = path_steps(emp, config)
    tr.count("simulate.path_steps", steps)
    return report, steps


def _verdict(tr, op, ctx, errors):
    report, steps = verdict(tr, op)
    return ({"comparison_passed": report.passed()},
            {"branch": branch(op.A), "path_steps": steps,
             "sup_distance": report.sup_distance,
             "lambda_rel_error": report.lambda_rel_error})


_RUN = {"level": _level, "table": _table, "row": _row, "verdict": _verdict}


def run_op(tr, op: Op, ctx: dict) -> Outcome:
    """Run one operation under a parent span; ``ctx`` carries a level's
    parameters from its table operation to its rows."""
    errors: list = []
    checks, info = {}, {}
    t0 = time.perf_counter()
    with tr.span(f"op.{op.kind}"):
        try:
            checks, info = _RUN[op.kind](tr, op, ctx, errors)
        except QsdError as exc:
            errors.append(type(exc).__name__)
        except Exception as exc:  # a crash is a failed operation, not a lost run
            traceback.print_exc(file=sys.stderr)
            errors.append(type(exc).__name__)
    return Outcome(op, time.perf_counter() - t0, errors,
                   {k: bool(v) for k, v in checks.items()}, info)
