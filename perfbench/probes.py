"""Calls that only the traced run makes, so that every per-layer metric is
measured in every workload's traced run, and the fixed anchor calls.

The layer probe takes its arguments from the workloads' own generators,
on a stream the timed passes never use, so its eigen solves are cold.
The anchors are the library's baseline calls at fixed arguments; the
accuracy anchors also give the two deterministic end-to-end metrics.
"""

from __future__ import annotations

import math

import numpy as np

from shiryaev_qsd import eigen, laplace, moments
from shiryaev_qsd.distribution import make_params, qsd_cdf, qsd_pdf
from shiryaev_qsd.moments import max_rel_spread, moments_quadrature
from shiryaev_qsd.specfun import kampe_de_feriet, weber_incomplete, whittaker_w

from workloads import (ANALYTIC_MOMENTS, N_MAX, analytic_spread, branch, cycles,
                       laplace_row, moment_table, params, verdict)

PROBE_STREAM = 2
PDF_POINTS = 8

ANCHOR_LEVEL = 5.0
ANCHOR_S = (0.1, 5.0)
ANCHOR_ODE_S = 1.0
ANCHOR_COLD_LEVELS = (0.5, 2.0, 20.0, 500.0)
# (branch, level whose xi/2 is the order, z); first index 1 as in the
# eigen equation
ANCHOR_WHITTAKER = (("real", 20.0, 1.0), ("imag", 2.0, 0.1), ("imag", 2.0, 50.0))
ANCHOR_REPEATS = 20


def layer_probe(tr, seed: int, workload: str) -> None:
    """Direct calls on each workload's own arguments, each group under a
    parent span.  The simulation layer is probed only when the traced
    workload's own operations did not already call it."""
    for op in next(cycles("level-sweep", seed, PROBE_STREAM)):
        with tr.span("probe.level"):
            p = params(tr, op.A)
            for a in (0.0, 1.0):
                tr.call(f"specfun.whittaker_w.{branch(op.A)}", whittaker_w,
                        a, p.eigen.xi.halved(), 2.0 / op.A)

    # the real level and the highest imaginary one, each at its first s
    route = next(cycles("route-table", seed, PROBE_STREAM))
    last_table = {branch(op.A): i for i, op in enumerate(route) if op.kind == "table"}
    for i in last_table.values():
        table, row = route[i], route[i + 1]
        A, s, b = table.A, row.s, branch(table.A)
        with tr.span("probe.route"):
            p = params(tr, A)
            xi = p.eigen.xi
            hx = xi.halved().value
            tr.call("specfun.kampe_de_feriet", kampe_de_feriet,
                    -0.5 - hx, -0.5 + hx, 0.5 - hx, 0.5 + hx, -s * A, 2.0 * s)
            u = 2.0 * math.sqrt(2.0 * s)
            for kind in ("I", "K"):
                tr.call(f"specfun.weber_incomplete.{b}", weber_incomplete,
                        kind, u, A, xi)
            for x in A * (np.arange(PDF_POINTS) + 0.5) / PDF_POINTS:
                tr.call(f"distribution.qsd_pdf.{b}", qsd_pdf, p, float(x))
                tr.call(f"distribution.qsd_cdf.{b}", qsd_cdf, p, float(x))
            moment_table(tr, p)
            laplace_row(tr, p, s, [])

    if workload == "monte-carlo":
        return
    for op in next(cycles("monte-carlo", seed, PROBE_STREAM)):
        with tr.span("probe.verdict"):
            verdict(tr, op)


def anchors(tr, timing: bool) -> tuple[float, float]:
    """Route agreement at the anchor level: the largest spread over the
    Laplace routes at each anchor s and over the three analytic moment
    routes, and |ODE residual| at the anchor s.  With ``timing`` also
    makes the baseline calls that have no accuracy figure."""
    if timing:
        with tr.span("anchor.cold"):
            sols = {A: tr.call(f"anchor.principal_lambda.A{A:g}",
                               eigen.principal_lambda, A)
                    for A in ANCHOR_COLD_LEVELS}
        with tr.span("anchor.whittaker"):
            for b, A, z in ANCHOR_WHITTAKER:
                order = sols[A].xi.halved()
                for _ in range(ANCHOR_REPEATS):
                    tr.call(f"anchor.whittaker_w.{b}.z{z:g}", whittaker_w,
                            1.0, order, z)
    with tr.span("anchor.accuracy"):
        p = make_params(eigen.principal_lambda(ANCHOR_LEVEL))
        spreads = []
        for s in ANCHOR_S:
            vals = [tr.call(f"anchor.laplace.{m}.A{ANCHOR_LEVEL:g}.s{s:g}",
                            laplace.evaluate, p, s, m).value
                    for m in laplace.METHODS]
            spreads.append(max_rel_spread(vals))
        spreads.append(analytic_spread(
            {m: moments.moment_series(p, N_MAX, m).values for m in ANALYTIC_MOMENTS}))
        residual = tr.call(f"anchor.ode_residual.A{ANCHOR_LEVEL:g}.s{ANCHOR_ODE_S:g}",
                           laplace.ode_residual, p, ANCHOR_ODE_S)
        if timing:
            tr.call(f"anchor.moments_quadrature.A{ANCHOR_LEVEL:g}",
                    moments_quadrature, p, N_MAX)
    return max(spreads), abs(residual)
