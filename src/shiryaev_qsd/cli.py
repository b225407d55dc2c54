"""Command-line interface.

One executable with a subcommand per module, plus a ``reproduce``
harness that emits the moment grids and the eigenvalue-bounds, Laplace
agreement and stationary-limit tables as plot-ready CSV.  CSV output is
locale-free: comma separated, header row, '.' decimal point, LF line
endings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import distribution, eigen, laplace, moments
from .errors import QsdError
from .simulate import SimConfig, compare_to_analytic, simulate

DEFAULT_PRECISION = 12


def fmt(x, precision: int) -> str:
    """Shortest stable representation at the given significant digits.

    Iterated to a fixed point so that parsing an emitted value and
    re-emitting it reproduces identical bytes.
    """
    s = f"{float(x):.{precision}g}"
    for _ in range(3):
        s2 = f"{float(s):.{precision}g}"
        if s2 == s:
            break
        s = s2
    return s


def csv_text(header, rows, precision: int) -> str:
    """Header line plus one line per row; floats go through fmt."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v, precision) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def write_text(path, text):
    """Write text to path with LF line endings; a failure is a QsdError."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise QsdError(f"cannot write {path!r}: {exc.strerror}") from exc
    return path


class Output:
    """Row sink honoring --format, --output and --precision."""

    def __init__(self, args):
        self.format = getattr(args, "format", "csv")
        self.path = getattr(args, "output", None)
        self.precision = args.precision
        if not 1 <= self.precision <= 17:
            raise QsdError(f"precision must be in [1, 17], got {self.precision}")

    def _write(self, text):
        if self.path:
            write_text(self.path, text)
        else:
            sys.stdout.write(text)

    def emit_rows(self, header, rows):
        if self.format == "json":
            payload = [dict(zip(header, [self._jsonify(v) for v in row]))
                       for row in rows]
            self._write(json.dumps(payload, indent=2) + "\n")
        else:
            self._write(csv_text(header, rows, self.precision))

    def emit_record(self, record: dict):
        if self.format == "csv":
            self.emit_rows(list(record), [list(record.values())])
        else:
            self._write(json.dumps(
                {k: self._jsonify(v) for k, v in record.items()}, indent=2) + "\n")

    def _jsonify(self, v):
        """Floats at --precision; a non-finite float becomes null, as
        strict JSON has no NaN or Infinity."""
        if isinstance(v, float):
            return float(fmt(v, self.precision)) if math.isfinite(v) else None
        return v


def parse_grid(spec: str):
    """'lo:hi:n' -> linear grid of n points."""
    import numpy as np

    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise QsdError(f"bad grid spec {spec!r}, expected lo:hi:n") from exc
    if n < 1 or not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise QsdError(f"bad grid spec {spec!r}")
    return np.linspace(lo, hi, n)


def parse_s(spec: str):
    """A single s, or a 'lo:hi:n' grid of them."""
    if ":" in spec:
        return parse_grid(spec)
    try:
        return [float(spec)]
    except ValueError as exc:
        raise QsdError(f"bad s {spec!r}, expected a number or lo:hi:n") from exc


def _params(A):
    return distribution.make_params(eigen.principal_lambda(A))


def _methods(args, module):
    return list(module.METHODS) if args.method == "all" else [args.method]


def laplace_rows(p, svals, methods):
    """One row per s: the named routes' values at s, their max relative
    spread and the bessel route's ODE residual.  A refusing route gives
    NaN; when every route refuses, the first refusal is raised.  The
    spread is NaN with fewer than two values.  The rows share p's memo
    store, so the level's W values are computed once and each residual
    reuses its row's bessel value at s; it is NaN when the row has no
    bessel value or the residual itself is refused."""
    rows = []
    for s in map(float, svals):
        vals, refusals = [], []
        for m in methods:
            try:
                vals.append(laplace.evaluate(p, s, m).value)
            except QsdError as exc:
                vals.append(math.nan)
                refusals.append(exc)
        if len(refusals) == len(methods):
            raise refusals[0]
        spread = moments.max_rel_spread([v for v in vals if not math.isnan(v)])
        resid = math.nan
        # a refusal is never memoised: do not repeat a refused bessel value
        if not math.isnan(dict(zip(methods, vals)).get("bessel", math.nan)):
            try:
                resid = laplace.ode_residual(p, s, method="bessel") if s > 0 else 0.0
            except QsdError:
                pass
        rows.append([s] + vals + [spread, resid])
    return rows


EIGEN_HEADER = ["A", "lower_bound", "lambda", "upper_bound", "xi_kind", "xi"]


def eigen_rows(levels):
    """One EIGEN_HEADER row per level."""
    rows = []
    for A in map(float, levels):
        sol = eigen.principal_lambda(A)
        lo, hi = eigen.lambda_bounds(A)
        rows.append([A, lo, sol.lam, hi, sol.xi.kind, sol.xi.magnitude])
    return rows


def cmd_eigen(args, out: Output):
    if args.log and args.grid is None:
        raise QsdError("--log needs --grid")
    if args.grid is not None:
        grid = parse_grid(args.grid)
        if args.log:
            if not grid[0] > 0:
                raise QsdError(f"a log grid needs lo > 0, got {args.grid!r}")
            import numpy as np

            grid = np.geomspace(grid[0], grid[-1], grid.size)
        out.emit_rows(EIGEN_HEADER, eigen_rows(grid))
    else:
        sol = eigen.principal_lambda(args.A)
        out.emit_record({"A": sol.A, "lambda": sol.lam, "xi_kind": sol.xi.kind,
                         "xi": sol.xi.magnitude, "residual": sol.residual})
    return 0


def cmd_critical_a(args, out: Output):
    out.emit_record({"critical_A": eigen.critical_A()})
    return 0


def cmd_dist(args, out: Output):
    """pdf or cdf on a grid: args.dist is the distribution function."""
    grid = parse_grid(args.grid)
    p = _params(args.A)
    out.emit_rows(["x", args.command], [[float(x), args.dist(p, float(x))] for x in grid])
    return 0


def cmd_moments(args, out: Output):
    moments.check_n_max(args.n_max)
    p, methods = _params(args.A), _methods(args, moments)
    series = {m: moments.moment_series(p, args.n_max, m).values for m in methods}
    header = ["n"] + methods + ["max_rel_spread"]
    rows = []
    for n in range(args.n_max + 1):
        vals = [series[m][n] for m in methods]
        rows.append([n] + vals + [moments.max_rel_spread(vals)])
    out.emit_rows(header, rows)
    return 0


def cmd_laplace(args, out: Output):
    svals, methods = parse_s(args.s), _methods(args, laplace)
    for s in svals:
        laplace.check_s(float(s))
    out.emit_rows(["s"] + methods + ["max_rel_spread", "ode_residual"],
                  laplace_rows(_params(args.A), svals, methods))
    return 0


def _sim_config(args):
    return SimConfig(A=args.A, r0=args.r0, dt=args.dt,
                     horizon=args.horizon, paths=args.paths, seed=args.seed)


def cmd_simulate(args, out: Output):
    config = _sim_config(args)
    emp = simulate(config)
    # the side files first: a failed write leaves stdout empty
    if args.histogram_out:
        centers = 0.5 * (emp.bin_edges[:-1] + emp.bin_edges[1:])
        write_text(args.histogram_out, csv_text(
            ["x", "density"], zip(centers, emp.conditional_density), out.precision))
    if args.survival_out:
        write_text(args.survival_out, csv_text(
            ["t", "fraction_alive"], emp.survival, out.precision))
    out.emit_record({
        "A": emp.A,
        "paths": config.paths,
        "dt": config.dt,
        "horizon": config.horizon,
        "seed": config.seed,
        "lambda_hat": emp.lambda_hat,
        "lambda_hat_stderr": emp.lambda_hat_stderr,
        "pooled_samples": int(emp.pooled_samples.size),
    })
    return 0


def cmd_verify(args, out: Output):
    config = _sim_config(args)  # a bad configuration is refused before the solve
    p = _params(args.A)
    emp = simulate(config)
    report = compare_to_analytic(emp, p)
    ok = report.passed()
    out.emit_record({
        "A": args.A,
        "lambda_analytic": report.lambda_analytic,
        "lambda_hat": report.lambda_hat,
        "lambda_rel_error": report.lambda_rel_error,
        "sup_distance": report.sup_distance,
        "pass": bool(ok),
    })
    return 0 if ok else 1


FIG1_N = (1, 2, 3, 4, 5, 10)
FIG1_A = (0.05, 0.1, 0.25, 0.5) + tuple(float(a) for a in range(1, 51))
FIG2_A = (1.0, 3.0, 5.0, 10.0, 30.0, 50.0)
TABLE_S = (0.1, 1.0, 5.0)


def fig1_table():
    """Moments vs A for fixed n (A grid starts at 0.05: the formulas
    are singular at A = 0)."""
    rows = []
    for A in FIG1_A:
        series = moments.moments_recurrence(_params(A), max(FIG1_N))
        rows.append([A] + [series.values[n] for n in FIG1_N])
    return ["A"] + [f"M{n}" for n in FIG1_N], rows


def fig2_table():
    """Moments vs n for fixed A."""
    table = {A: moments.moments_recurrence(_params(A), 10).values for A in FIG2_A}
    rows = [[n] + [table[A][n] for A in FIG2_A] for n in range(1, 11)]
    return ["n"] + [f"A{A:g}" for A in FIG2_A], rows


def bounds_table():
    import numpy as np

    return EIGEN_HEADER[:4], [r[:4] for r in eigen_rows(np.geomspace(0.5, 200.0, 25))]


def laplace_table():
    rows = []
    for A in (1.0, 5.0, 20.0):
        rows += [[A] + r for r in laplace_rows(_params(A), TABLE_S, laplace.METHODS)]
    return ["A", "s"] + list(laplace.METHODS) + ["max_rel_spread", "ode_residual"], rows


def limit_table():
    """The bessel transform against its A -> inf limit, the stationary one."""
    rows = []
    for A in (20.0, 50.0, 200.0, 500.0):
        p = _params(A)
        for s in TABLE_S:
            val = laplace.laplace_bessel(p, s).value
            target = laplace.stationary_laplace(s)
            rows.append([A, s, val, target, abs(val - target)])
    return ["A", "s", "bessel", "stationary", "abs_gap"], rows


# reproduce target -> (file name, table builder)
TARGETS = {
    "fig1": ("fig1_moments_vs_A.csv", fig1_table),
    "fig2": ("fig2_moments_vs_n.csv", fig2_table),
    "bounds": ("eigenvalue_bounds.csv", bounds_table),
    "laplace-table": ("laplace_agreement.csv", laplace_table),
    "limit-table": ("stationary_limit.csv", limit_table),
}


def cmd_reproduce(args, out: Output):
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise QsdError(f"cannot create {args.out_dir!r}: {exc.strerror}") from exc
    name, table = TARGETS[args.target]
    path = write_text(os.path.join(args.out_dir, name),
                      csv_text(*table(), out.precision))
    sys.stdout.write(path + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shiryaev-qsd",
        description="Quasi-stationary distribution of the absorbed "
                    "Shiryaev diffusion: eigenvalue, pdf/cdf, moments, "
                    "Laplace transform, and Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def precision(sp):
        sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION)

    def common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="write to file")
        precision(sp)

    def method(sp, module):
        sp.add_argument("--method", default="all", choices=("all",) + module.METHODS)

    def absorption_level(sp):
        sp.add_argument("--A", type=float, required=True)

    sp = sub.add_parser("eigen", help="principal eigenvalue lambda_A")
    level = sp.add_mutually_exclusive_group(required=True)
    level.add_argument("--A", type=float)
    level.add_argument("--grid", help="lo:hi:n sweep over A")
    sp.add_argument("--log", action="store_true", help="log-space the sweep")
    common(sp)
    sp.set_defaults(run=cmd_eigen, format="json")

    sp = sub.add_parser("critical-a", help="level where lambda_A = 1/8")
    common(sp)
    sp.set_defaults(run=cmd_critical_a, format="json")

    for name, fn in (("pdf", distribution.qsd_pdf), ("cdf", distribution.qsd_cdf)):
        sp = sub.add_parser(name, help=f"quasi-stationary {name} on a grid")
        absorption_level(sp)
        sp.add_argument("--grid", required=True, help="lo:hi:n grid in x")
        common(sp)
        sp.set_defaults(run=cmd_dist, dist=fn)

    sp = sub.add_parser("moments", help="moment series by independent routes")
    absorption_level(sp)
    sp.add_argument("--n-max", type=int, default=10)
    method(sp, moments)
    common(sp)
    sp.set_defaults(run=cmd_moments)

    sp = sub.add_parser("laplace", help="Laplace transform by five routes")
    absorption_level(sp)
    sp.add_argument("--s", required=True, help="value or lo:hi:n grid")
    method(sp, laplace)
    common(sp)
    sp.set_defaults(run=cmd_laplace)

    def sim(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        absorption_level(sp)
        for option, type_ in (("r0", float), ("dt", float), ("horizon", float),
                              ("paths", int), ("seed", int)):
            sp.add_argument(f"--{option}", type=type_, default=getattr(SimConfig, option))
        common(sp)
        sp.set_defaults(run=fn, format="json")
        return sp

    sp = sim("simulate", cmd_simulate, "Euler-Maruyama Monte Carlo run")
    sp.add_argument("--histogram-out", default=None)
    sp.add_argument("--survival-out", default=None)
    sim("verify", cmd_verify, "simulate and compare to the formulas")

    sp = sub.add_parser("reproduce",
                        help="emit figure/table data grids as CSV")
    sp.add_argument("target", choices=TARGETS)
    sp.add_argument("--out-dir", default=".")
    precision(sp)
    sp.set_defaults(run=cmd_reproduce)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, Output(args))
    except QsdError as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
