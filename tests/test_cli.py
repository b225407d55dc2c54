"""Command-line interface: exit codes, output formats, and the
reproduce targets."""

import argparse
import csv
import io
import json
import pathlib

import pytest

from shiryaev_qsd import laplace
from shiryaev_qsd.cli import _params, build_parser, fmt, laplace_row, parse_grid, run
from shiryaev_qsd.errors import QsdError


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelpers:
    def test_fmt_is_a_fixed_point_of_parse_and_emit(self):
        for x in (0.1, 1.0 / 3.0, 1e-17, 123456.789, -2.5e8):
            s = fmt(x, 12)
            assert fmt(float(s), 12) == s

    def test_parse_grid(self):
        g = parse_grid("0:1:5")
        assert list(g) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_parse_grid_rejects_malformed_specs(self):
        for bad in ("1:2", "2:1:5", "a:b:c", "0:1:0"):
            with pytest.raises(QsdError):
                parse_grid(bad)


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_eigen_without_level_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["eigen"])
        assert exc.value.code == 2

    def test_domain_error_reports_json_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "pdf", "--A", "5", "--grid", "nope")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "QsdError"

    def test_infinite_level_is_named(self, capsys):
        code, _, err = run_cli(capsys, "eigen", "--A", "inf")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert payload["message"] == "A must be finite, got inf"

    def test_negative_level_is_a_clean_failure(self, capsys):
        code, out, err = run_cli(capsys, "eigen", "--A", "-3")
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_zero_level_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "eigen", "--A", "0")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ("eigen", "--A", "2", "--grid", "1:2:2"),
        ("laplace", "--A", "2", "--s", "1", "--limit-check"),
        ("moments", "--n-max", "3"),
    ], ids=["eigen-level-and-grid", "laplace-level-and-limit-check",
            "moments-without-level"])
    def test_conflicting_or_missing_level_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(list(argv))
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, error", [
        (("laplace", "--A", "5", "--s", "abc"), "QsdError"),
        (("eigen", "--grid", "0:5:3", "--log"), "QsdError"),
        (("eigen", "--A", "2", "--tol", "0"), "DomainError"),
        (("moments", "--A", "5", "--n-max", "-1"), "DomainError"),
        (("eigen", "--A", "1e-4"), "DomainError"),
        (("cdf", "--A", "1e-3", "--grid", "0.0005:0.001:2"), "DomainError"),
        (("simulate", "--A", "inf", "--horizon", "1"), "DomainError"),
        (("simulate", "--A", "2e4", "--horizon", "1"), "DomainError"),
        (("simulate", "--A", "1e-3", "--horizon", "1"), "DomainError"),
        (("critical-a", "--tol", "inf"), "DomainError"),
        (("eigen", "--A", "2", "--tol", "inf"), "DomainError"),
        (("eigen", "--A", "2", "--tol", "1e-3"), "DomainError"),
        (("laplace", "--A", "5", "--s", "inf"), "DomainError"),
        (("laplace", "--A", "5", "--s", "1e308", "--method", "moments"),
         "NonConvergenceError"),
        (("pdf", "--A", "5", "--grid", "0:inf:3"), "QsdError"),
        (("eigen", "--grid", "1:inf:3"), "QsdError"),
        (("laplace", "--A", "5", "--s", "1e6", "--method", "bessel"),
         "NonConvergenceError"),
        (("moments", "--A", "20", "--n-max", "300", "--method", "recurrence"),
         "NonConvergenceError"),
        (("eigen", "--A", "2", "--log"), "QsdError"),
        (("laplace", "--s", "1", "--limit-check", "--method", "quadrature"),
         "QsdError"),
    ], ids=["laplace-s-not-a-number", "eigen-log-grid-from-zero",
            "eigen-tol-zero", "moments-negative-order",
            "eigen-level-below-range", "cdf-level-below-range",
            "simulate-infinite-level", "simulate-level-above-range",
            "simulate-level-below-range", "critical-a-tol-inf",
            "eigen-tol-inf", "eigen-tol-above-default", "laplace-infinite-s",
            "laplace-moments-overflowing-s", "pdf-grid-to-infinity",
            "eigen-grid-to-infinity", "laplace-bessel-overflowing-s",
            "moments-recurrence-overflowing-order", "eigen-log-without-grid",
            "laplace-limit-check-with-another-route"])
    def test_bad_input_is_a_clean_failure(self, capsys, argv, error):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == error

    def test_unwritable_output_is_a_clean_failure(self, capsys, tmp_path):
        target = tmp_path / "missing" / "m.csv"
        code, out, err = run_cli(capsys, "moments", "--A", "3", "--n-max", "1",
                                 "--output", str(target))
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "QsdError"
        assert str(target) in payload["message"]


class TestEigenCommand:
    def test_single_level_json(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--A", "10.240465")
        assert code == 0
        rec = json.loads(out)
        assert rec["lambda"] == pytest.approx(0.125, abs=1e-5)
        assert rec["A"] == pytest.approx(10.240465)
        assert rec["xi_kind"] in ("real", "imaginary")

    def test_grid_csv_in_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--grid", "1:50:8", "--log",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        lams = [float(r["lambda"]) for r in rows]
        for r in rows:
            assert float(r["lower_bound"]) < float(r["lambda"]) < float(r["upper_bound"])
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_critical_level_command(self, capsys):
        code, out, _ = run_cli(capsys, "critical-a")
        assert code == 0
        assert json.loads(out)["critical_A"] == pytest.approx(10.240465, abs=1e-5)


class TestOutputOptions:
    def test_file_output_matches_stdout_bytes(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "moments", "--A", "3", "--n-max", "4",
                            "--method", "recurrence")
        target = tmp_path / "m.csv"
        code, _, _ = run_cli(capsys, "moments", "--A", "3", "--n-max", "4",
                             "--method", "recurrence", "--output", str(target))
        assert code == 0
        assert target.read_text() == out

    def test_precision_flag_shortens_cells(self, capsys):
        _, long_out, _ = run_cli(capsys, "moments", "--A", "3", "--n-max", "1",
                                 "--method", "recurrence", "--precision", "15")
        _, short_out, _ = run_cli(capsys, "moments", "--A", "3", "--n-max", "1",
                                  "--method", "recurrence", "--precision", "3")
        assert len(short_out) < len(long_out)
        row = short_out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1.0)

    def test_cdf_grid_rises_to_one_at_the_level(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--A", "5", "--grid", "0:5:6")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["x"]) for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        cdf = [float(r["cdf"]) for r in rows]
        assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert all(a < b for a, b in zip(cdf, cdf[1:]))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "pdf", "--A", "5", "--grid", "1:4:3",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["x"] for r in rows] == [1.0, 2.5, 4.0]
        assert all(r["pdf"] > 0 for r in rows)


class TestMomentsAndLaplaceCommands:
    def test_moment_routes_agree_in_output(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--A", "5", "--n-max", "6")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 7
        for r in rows:
            assert float(r["max_rel_spread"]) <= 1e-8

    def test_laplace_grid_with_spread_and_residual(self, capsys):
        code, out, _ = run_cli(capsys, "laplace", "--A", "5", "--s", "0.5:2:3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        for r in rows:
            assert float(r["max_rel_spread"]) <= 1e-6
            assert abs(float(r["ode_residual"])) <= 1e-5

    def test_residual_below_the_default_step(self, capsys):
        # s < 1e-4: the residual's stencil step is capped at s
        code, out, _ = run_cli(capsys, "laplace", "--A", "5", "--s", "5e-5")
        assert code == 0
        [row] = list(csv.DictReader(io.StringIO(out)))
        assert abs(float(row["ode_residual"])) < 1e-12

    @pytest.mark.parametrize("s", ["1e6", "1e308"])
    def test_refused_residual_leaves_null(self, capsys, monkeypatch, s):
        # bessel refuses there, so the residual is not evaluated and the
        # refused value is not asked for again; quadrature still answers
        bessel, calls = laplace.ROUTES["bessel"], []

        def counting(p_, s_):
            calls.append(s_)
            return bessel(p_, s_)

        monkeypatch.setitem(laplace.ROUTES, "bessel", counting)
        code, out, _ = run_cli(capsys, "laplace", "--A", "5", "--s", s,
                               "--format", "json")
        assert code == 0
        [row] = json.loads(out)
        assert row["quadrature"] == 0.0
        assert row["bessel"] is None
        assert row["ode_residual"] is None
        assert calls == [float(s)]

    @pytest.mark.parametrize("argv", [
        ("laplace", "--A", "5", "--s", "1", "--method", "kdf1"),
        ("laplace", "--A", "5", "--s", "1e6"),
        ("moments", "--A", "5", "--n-max", "2", "--method", "2f2"),
    ], ids=["laplace-one-method", "laplace-one-route-answers", "moments-one-method"])
    def test_a_single_value_has_no_spread(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows and all(r["max_rel_spread"] is None for r in rows)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(r["max_rel_spread"] == "nan" for r in rows)

    def test_residual_needs_the_bessel_route(self, capsys, monkeypatch):
        bessel, calls = laplace.ROUTES["bessel"], []

        def counting(p_, s_):
            calls.append(s_)
            return bessel(p_, s_)

        monkeypatch.setitem(laplace.ROUTES, "bessel", counting)
        code, out, _ = run_cli(capsys, "laplace", "--A", "5", "--s", "1",
                               "--method", "kdf1", "--format", "json")
        assert code == 0
        [row] = json.loads(out)
        assert row["kdf1"] > 0
        assert row["max_rel_spread"] is None and row["ode_residual"] is None
        assert calls == []

    def test_limit_check_gap_shrinks(self, capsys):
        code, out, _ = run_cli(capsys, "laplace", "--s", "1", "--limit-check")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        gaps = [float(r["abs_gap"]) for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("s", ["-1", "nan"])
    def test_bad_s_is_a_clean_failure(self, capsys, s):
        code, out, err = run_cli(capsys, "laplace", "--A", "2", "--s", s)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_json_output_is_strict(self, capsys):
        # at sA = 800 the three series routes refuse (at once: they need
        # more working digits than allowed); their cells are null, never
        # the NaN token that strict parsers reject
        def no_constants(token):
            raise ValueError(f"non-standard JSON token {token}")

        code, out, _ = run_cli(capsys, "laplace", "--A", "20", "--s", "40",
                               "--format", "json")
        assert code == 0
        [row] = json.loads(out, parse_constant=no_constants)
        assert row["kdf1"] is None and row["kdf2"] is None
        assert row["moments"] is None
        assert row["bessel"] > 0 and row["quadrature"] > 0

    def test_limit_check_needs_scalar_s(self, capsys):
        code, _, err = run_cli(capsys, "laplace", "--s", "0.1:5:3", "--limit-check")
        assert code == 1
        assert json.loads(err)["error"] == "QsdError"


# the reproduce CSVs at the default precision; a change must keep their bytes
GOLDEN = pathlib.Path(__file__).parent / "data"


def assert_golden(path):
    path = pathlib.Path(path)
    assert path.read_bytes() == (GOLDEN / path.name).read_bytes()


SMALL_RUN = ("--A", "2", "--paths", "2000", "--dt", "1e-3", "--horizon", "3")


class TestSimulateAndVerify:
    def test_simulate_prints_its_record(self, capsys, tmp_path):
        hist = tmp_path / "hist.csv"
        code, out, _ = run_cli(capsys, "simulate", *SMALL_RUN,
                               "--histogram-out", str(hist))
        assert code == 0
        rec = json.loads(out)
        assert rec["paths"] == 2000 and rec["horizon"] == 3.0
        assert rec["lambda_hat"] > 0 and rec["pooled_samples"] > 0
        rows = list(csv.DictReader(io.StringIO(hist.read_text())))
        assert rows and all(float(r["density"]) >= 0 for r in rows)

    def test_simulate_writes_its_survival_curve(self, capsys, tmp_path):
        surv = tmp_path / "surv.csv"
        code, _, _ = run_cli(capsys, "simulate", *SMALL_RUN, "--precision", "17",
                             "--survival-out", str(surv))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(surv.read_text())))
        # one record every 0.1 time units from 0 to the horizon
        t = [float(r["t"]) for r in rows]
        alive = [float(r["fraction_alive"]) for r in rows]
        assert t == pytest.approx([k / 10 for k in range(31)])
        assert alive[0] == 1.0 and 0 < alive[-1] < 1
        assert all(a >= b for a, b in zip(alive, alive[1:]))

    # dt 1e-3 misses barrier crossings between steps and fails the 5% gate
    # on lambda; dt 1e-4 passes it
    @pytest.mark.parametrize("extra, passed", [
        ((), False),
        (("--paths", "5000", "--dt", "1e-4"), True),
    ])
    def test_verify_exit_code_follows_pass(self, capsys, extra, passed):
        code, out, _ = run_cli(capsys, "verify", *SMALL_RUN, *extra)
        rec = json.loads(out)
        assert rec["pass"] is passed
        assert code == (0 if passed else 1)


class TestReproduce:
    def test_out_dir_below_a_regular_file_is_a_clean_failure(self, capsys,
                                                              tmp_path):
        blocker = tmp_path / "plain"
        blocker.write_text("")
        target = blocker / "sub"
        code, out, err = run_cli(capsys, "reproduce", "bounds",
                                 "--out-dir", str(target))
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "QsdError"
        assert str(target) in payload["message"]

    def test_fig2_moments_decrease_in_n_at_unit_level(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "fig2",
                               "--out-dir", str(tmp_path))
        assert code == 0
        path = out.strip()
        assert_golden(path)
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 10
        col1 = [float(r["A1"]) for r in rows]
        col30 = [float(r["A30"]) for r in rows]
        assert all(a > b for a, b in zip(col1, col1[1:]))
        assert all(a < b for a, b in zip(col30, col30[1:]))

    def test_fig1_first_moment_concave_increasing(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "fig1",
                               "--out-dir", str(tmp_path))
        assert code == 0
        assert_golden(out.strip())
        rows = list(csv.DictReader(open(out.strip())))
        As = [float(r["A"]) for r in rows]
        m1 = [float(r["M1"]) for r in rows]
        assert all(a < b for a, b in zip(m1, m1[1:]))
        # slopes shrink on the uniformly spaced portion of the A grid
        uniform = [m for a, m in zip(As, m1) if a >= 1.0]
        slopes = [b - a for a, b in zip(uniform, uniform[1:])]
        assert all(s1 >= s2 - 1e-12 for s1, s2 in zip(slopes, slopes[1:]))

    def test_laplace_table_row_evaluates_bessel_five_times(self, monkeypatch):
        # one value at s for the row, four more for the residual's second
        # differences; the residual is bitwise the one computed afresh
        p, s = _params(20.0), 1.0
        bessel, calls = laplace.ROUTES["bessel"], []

        def counting(p_, s_):
            calls.append(s_)
            return bessel(p_, s_)

        monkeypatch.setitem(laplace.ROUTES, "bessel", counting)
        row = laplace_row(p, s, laplace.METHODS)
        assert len(calls) == 5
        assert len(set(calls)) == 5
        assert row[-1] == laplace.ode_residual(p, s)

    def test_laplace_table_is_byte_identical(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "laplace-table",
                               "--out-dir", str(tmp_path))
        assert code == 0
        assert_golden(out.strip())

    def test_bounds_table(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "bounds",
                               "--out-dir", str(tmp_path))
        assert code == 0
        assert_golden(out.strip())
        rows = list(csv.DictReader(open(out.strip())))
        assert len(rows) == 25
        for r in rows:
            assert float(r["lower_bound"]) < float(r["lambda"]) < float(r["upper_bound"])


def test_parser_lists_all_subcommands():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"eigen", "critical-a", "pdf", "cdf", "moments",
                                "laplace", "simulate", "verify", "reproduce"}
