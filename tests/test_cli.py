"""End-to-end CLI behavior: ingestion, exit codes, output formats."""
import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from kinkfit.cli import (
    EXIT_DATA,
    EXIT_NONCONV,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA_VERSION,
    ingest_csv,
    main,
)
from kinkfit.errors import DataError
from kinkfit.estimator import FitResult, fit, fit_stack
from kinkfit.families import Family
from kinkfit.model import ParamVector

from conftest import make_case_control_like, make_data, make_spec


def write_csv(path, rows, header=("y", "x")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def normal_csv(tmp_path):
    spec = make_spec()
    data = make_data(spec, n=400, seed=1)
    p = tmp_path / "d.csv"
    write_csv(p, np.column_stack([data.y, data.x]))
    return p


def test_fit_json_output(normal_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main(["fit", "--input", str(normal_csv), "--y-col", "y",
                 "--x-col", "x", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["fit"]["converged"]
    assert payload["fit"]["params"]["tau"] == pytest.approx(0.5, abs=0.15)
    assert payload["fit"]["params"]["beta2"] == pytest.approx(-5.0, abs=0.8)
    assert "ci_normal" in payload["inference"]
    assert "ci_bootstrap" not in payload["inference"]  # --bootstrap 0


def test_fit_stdout_table_and_csv_formats(normal_csv, capsys):
    assert main(["fit", "--input", str(normal_csv), "--y-col", "y",
                 "--x-col", "x", "--format", "table"]) == EXIT_OK
    table = capsys.readouterr().out
    assert "tau" in table and "converged" in table
    assert main(["fit", "--input", str(normal_csv), "--y-col", "y",
                 "--x-col", "x", "--format", "csv"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("param,estimate,se,ci_lo,ci_hi")
    rows = text.strip().splitlines()
    assert len(rows) == 5  # header + beta0 beta1 beta2 tau


def test_fit_csv_cells_are_the_json_numbers(tmp_path, capsys):
    # Every cell after the name is a plain float, equal to the JSON run's
    # estimate, s.e. and normal interval.
    spec = make_spec(n_covariates=2)
    data = make_data(spec, params=ParamVector(2.0, 3.0, -5.0, 0.5, (0.7, -0.4)), n=300, seed=3)
    p = tmp_path / "z.csv"
    write_csv(p, np.column_stack([data.y, data.x, data.z]), header=("y", "x", "z1", "z2"))
    argv = ["fit", "--input", str(p), "--y-col", "y", "--x-col", "x", "--z-cols", "z1,z2"]
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert main([*argv, "--format", "csv"]) == EXIT_OK
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["param", "estimate", "se", "ci_lo", "ci_hi"]
    params, inf = payload["fit"]["params"], payload["inference"]
    est = [params["beta0"], params["beta1"], params["beta2"], params["tau"], *params["gamma"]]
    assert [r[0] for r in rows[1:]] == ["beta0", "beta1", "beta2", "tau", "gamma1", "gamma2"]
    for i, row in enumerate(rows[1:]):
        assert [float(c) for c in row[1:]] == [est[i], inf["se"][i], *inf["ci_normal"][i]]


def test_fit_with_bootstrap_interval(normal_csv, capsys):
    code = main(["fit", "--input", str(normal_csv), "--y-col", "y",
                 "--x-col", "x", "--bootstrap", "200", "--seed", "5"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    iv = np.asarray(payload["inference"]["ci_bootstrap"])
    assert iv.shape == (4, 2)
    assert payload["inference"]["bootstrap_reps_used"] <= 200
    assert np.all(iv[:, 0] <= iv[:, 1])


def test_fit_bootstrap_interval_in_csv_and_table(normal_csv, capsys):
    # The csv and table outputs carry the bootstrap interval the JSON run
    # reports, after the normal one.
    argv = ["fit", "--input", str(normal_csv), "--y-col", "y", "--x-col", "x",
            "--bootstrap", "200", "--seed", "5", "--level", "0.9"]
    assert main(argv) == EXIT_OK
    inf = json.loads(capsys.readouterr().out)["inference"]
    assert main([*argv, "--format", "csv"]) == EXIT_OK
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["param", "estimate", "se", "ci_lo", "ci_hi", "boot_lo", "boot_hi"]
    assert [[float(c) for c in row[3:]] for row in rows[1:]] == [
        [*n, *b] for n, b in zip(inf["ci_normal"], inf["ci_bootstrap"])]
    assert main([*argv, "--format", "table"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-5:] == ["90%", "CI", "90%", "bootstrap", "CI"]
    lo, hi = inf["ci_bootstrap"][3]
    assert lines[4].endswith(f"({lo:11.5f}, {hi:11.5f})")


def test_fit_case_control_shape_with_covariates(tmp_path, capsys):
    d = make_case_control_like(seed=0)
    p = tmp_path / "cc.csv"
    write_csv(p, np.column_stack([d.y, d.x, d.z]),
              header=("case", "dose", "age", "smoker", "ratio"))
    code = main(["fit", "--input", str(p), "--y-col", "case", "--x-col", "dose",
                 "--z-cols", "age,smoker,ratio", "--family", "logit",
                 "--form", "quadratic-linear", "--bandwidth", "n^-3"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["fit"]["params"]["gamma"]) == 3
    assert payload["n"] == 771


def test_missing_cells_dropped_and_counted(tmp_path, capsys):
    spec = make_spec()
    data = make_data(spec, n=200, seed=2)
    p = tmp_path / "gaps.csv"
    rows = [list(r) for r in np.column_stack([data.y, data.x])]
    rows[3][0] = ""
    rows[17][1] = ""
    write_csv(p, rows)
    code = main(["fit", "--input", str(p), "--y-col", "y", "--x-col", "x"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows_dropped_missing"] == 2
    assert payload["n"] == 198


def test_non_numeric_cell_names_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    rows = [[0.1 * i, 0.2 * i] for i in range(30)]
    rows[7][1] = "oops"
    write_csv(p, rows)
    with pytest.raises(DataError, match=r"row 9.*'x'"):
        ingest_csv(p, "y", "x", [], Family.NORMAL_IDENTITY)


@pytest.mark.parametrize("text, line", [
    ("y,x\n1,0.5\n\n2,abc\n", 4),  # after a blank line
    ('y,x,note\n1,0.5,"two\nlines"\n2,abc,c\n', 4),  # after a quoted newline
], ids=["blank line", "quoted newline"])
def test_non_numeric_cell_is_named_by_its_file_line(tmp_path, text, line):
    p = tmp_path / "lines.csv"
    p.write_text(text)
    with pytest.raises(DataError, match=rf"row {line}, column 'x'"):
        ingest_csv(p, "y", "x", [], Family.NORMAL_IDENTITY)


@pytest.mark.parametrize("cell, what", [
    ("nan", "non-finite"), ("-Infinity", "non-finite"), (" inf", "non-finite"),
    ("1_0", "non-numeric"), ("0.1_5", "non-numeric"),
])
@pytest.mark.parametrize("col", ["y", "x", "z1"])
def test_non_finite_or_underscored_cell_names_row_and_column(tmp_path, col, cell, what):
    # float() reads each of these cells: nan and inf as non-finite values,
    # 1_0 as 10.
    rows = [[i % 3, 0.1 * i, 0.2 * i] for i in range(30)]
    rows[7][("y", "x", "z1").index(col)] = cell
    p = tmp_path / "cells.csv"
    write_csv(p, rows, header=("y", "x", "z1"))
    with pytest.raises(DataError, match=rf"row 9, column '{col}': {what} value"):
        ingest_csv(p, "y", "x", ["z1"], Family.POISSON_LOG)


def test_short_rows_count_as_missing_and_a_repeated_name_maps_to_its_last_column(tmp_path):
    rows = ["y,x,x"] + [f"{i},skip,{0.1 * i}" for i in range(8)] + ["9,1.0", "9", ""]
    p = tmp_path / "short.csv"
    p.write_text("\n".join(rows) + "\n")
    data, dropped = ingest_csv(p, "y", "x", [], Family.NORMAL_IDENTITY)
    assert dropped == 2  # the two short rows; the blank line is skipped
    np.testing.assert_array_equal(data.x, 0.1 * np.arange(8))
    np.testing.assert_array_equal(data.y, np.arange(8.0))


BLOCK_ROWS = ['y,x,note', '', '1, 0.5 ,a', '0.5', ',1.0,b', '2,\t1.5,"two\nlines"', '3, ,c',
              '4,2.5,d', '5,3.0', '6,3.5,e', '7,4.0,f', '8,4.5,g']


@pytest.mark.parametrize("row, cell, what", [
    (None, None, None), (9, "1_0", "non-numeric"), (11, "abc", "non-numeric"),
    (10, "nan", "non-finite"), (9, "inf", "non-finite"),
])
def test_reading_in_blocks_keeps_every_rule(tmp_path, monkeypatch, row, cell, what):
    # A blank line, short rows, an empty and a whitespace-only cell, padded
    # numbers and a quoted note spanning two lines, then a bad x cell in a
    # later block: three rows a block name the same cells and drop the same
    # rows as one block.
    from kinkfit import cli

    rows = list(BLOCK_ROWS)
    if cell is not None:
        y, _, note = rows[row].split(",")
        rows[row] = ",".join([y, cell, note])
    p = tmp_path / "blocks.csv"
    p.write_text("\n".join(rows) + "\n")
    results = []
    for block in (len(rows), 3):
        monkeypatch.setattr(cli, "_CAST_ROWS", block)
        try:
            data, dropped = ingest_csv(p, "y", "x", [], Family.NORMAL_IDENTITY)
            results.append((dropped, data.x.tolist(), data.y.tolist()))
        except DataError as exc:
            results.append(str(exc))
    assert results[0] == results[1]
    if cell is None:
        assert results[0] == (3, [0.5, 1.5, 2.5, 3.0, 3.5, 4.0, 4.5], [1, 2, 4, 5, 6, 7, 8])
    else:
        value = repr(cell) if what == "non-numeric" else cell
        # the file line: after the note's two lines, one more than the row
        assert results[0] == f"{p} row {row + 2}, column 'x': {what} value {value}"


def test_out_of_support_response_exit_code(tmp_path, capsys):
    p = tmp_path / "sup.csv"
    rows = [[i % 2, 0.1 * i] for i in range(30)]
    rows[11][0] = 2.0
    write_csv(p, rows)
    code = main(["fit", "--input", str(p), "--y-col", "y", "--x-col", "x",
                 "--family", "logit"])
    assert code == EXIT_DATA
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data-error"
    assert "row 13" in err["message"]


def test_out_of_support_row_is_named_by_its_line_after_dropped_rows(tmp_path, capsys):
    p = tmp_path / "sup_gap.csv"
    rows = [[i % 2, 0.1 * i] for i in range(30)]
    rows[1][0] = ""  # line 3: missing y, dropped
    rows[3][0] = 2.0  # line 5: outside the logit support
    write_csv(p, rows)
    code = main(["fit", "--input", str(p), "--y-col", "y", "--x-col", "x",
                 "--family", "logit"])
    assert code == EXIT_DATA
    message = json.loads(capsys.readouterr().err)["message"]
    assert re.search(r"\brow 5\b", message)
    assert "y value 2.0 " in message


def test_missing_column_exit_code(normal_csv, capsys):
    code = main(["fit", "--input", str(normal_csv), "--y-col", "resp",
                 "--x-col", "x"])
    assert code == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize("level", ["1.5", "1", "0", "nan"])
def test_level_outside_the_unit_interval_is_usage_error(level, normal_csv, capsys, monkeypatch):
    # These used to exit 0, with NaN, +-Infinity (not valid JSON) or
    # zero-width intervals in ci_normal.  The level is checked before the
    # data are read, so no fit runs.
    from kinkfit import cli

    def not_reached(*args, **kwargs):
        raise AssertionError("data read or fit before the level check")

    monkeypatch.setattr(cli, "ingest_csv", not_reached)
    monkeypatch.setattr(cli, "fit", not_reached)
    code = main(["fit", "--input", str(normal_csv), "--y-col", "y",
                 "--x-col", "x", "--level", level])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage-error"


def test_table_header_names_the_level(normal_csv, capsys):
    assert main(["fit", "--input", str(normal_csv), "--y-col", "y",
                 "--x-col", "x", "--level", "0.9", "--format", "table"]) == EXIT_OK
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split()[-2:] == ["90%", "CI"]


def test_scenario_level_outside_the_unit_interval_is_usage_error(tmp_path, capsys, monkeypatch):
    # The scenario fails as it loads, before any replicate is fit.
    import pathlib
    from kinkfit import simulate
    smoke = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "smoke.scenario"
    scen = tmp_path / "level.scenario"
    scen.write_text(smoke.read_text() + "level = 1.5\n")
    monkeypatch.setattr(simulate, "profile_init", None)  # no replicate may reach a fit
    assert main(["simulate", "--scenario", str(scen)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "usage-error" and "level" in err["message"]


def test_bad_family_token_is_usage_error(normal_csv, capsys):
    code = main(["fit", "--input", str(normal_csv), "--y-col", "y",
                 "--x-col", "x", "--family", "tweedie"])
    assert code == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["error"] == "usage-error"


def test_unidentified_model_is_nonconvergence_exit(tmp_path, capsys):
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-2, 2, 100))
    p = tmp_path / "flat.csv"
    write_csv(p, np.column_stack([2.0 + 3.0 * x, x]))  # straight line
    code = main(["fit", "--input", str(p), "--y-col", "y", "--x-col", "x"])
    assert code == EXIT_NONCONV
    assert json.loads(capsys.readouterr().err)["error"] == "fit-error"


def test_fit_result_round_trip(tmp_path, capsys):
    # The JSON's fit object reads back as the library's fit of the same rows.
    spec = make_spec()
    data = make_data(spec, n=200, seed=4)
    path = tmp_path / "d.csv"
    write_csv(path, np.column_stack([data.y, data.x]))
    fr = fit(spec, data)
    assert main(["fit", "--input", str(path), "--y-col", "y", "--x-col", "x"]) == EXIT_OK
    back = json.loads(capsys.readouterr().out)["fit"]
    assert set(back) == {f.name for f in dataclasses.fields(fr)}
    p = back["params"]
    assert ParamVector(p["beta0"], p["beta1"], p["beta2"], p["tau"], tuple(p["gamma"])) == fr.params
    for name in set(back) - {"params"}:
        np.testing.assert_array_equal(back[name], getattr(fr, name))


def test_fit_json_keys_are_the_result_fields_in_order(normal_csv, capsys):
    # The fit object has FitResult's fields and the inference object
    # InferenceResult's, in order; the bootstrap's two go when there is none.
    argv = ["fit", "--input", str(normal_csv), "--y-col", "y", "--x-col", "x"]
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["fit"]) == [f.name for f in dataclasses.fields(FitResult)]
    assert list(payload["inference"]) == ["level", "cov", "se", "ci_normal"]
    assert main([*argv, "--bootstrap", "200"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["inference"]) == [
        "level", "cov", "se", "ci_normal", "ci_bootstrap", "bootstrap_reps_used"]


def test_simulate_smoke_scenario(tmp_path, capsys, monkeypatch):
    import pathlib
    scen = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "smoke.scenario"
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--scenario", str(scen), "--out", "smoke"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "Coverage normal CI" in out
    assert (tmp_path / "smoke_report.txt").exists()
    report_csv = (tmp_path / "smoke_report.csv").read_text()
    assert report_csv.startswith("schema_version")
    assert (tmp_path / "smoke_qq.csv").exists()


# The report's statistics: the _report.csv columns after "param", which are
# the SimReport field names.
REPORT_COLUMNS = ["true", "mean", "median", "sd", "avg_se_prop1", "avg_se_delta",
                  "coverage_normal_pct", "coverage_bootstrap_pct"]


@pytest.mark.parametrize("edits, sd_blank, boot_blank", [
    ([("replications = 10", "replications = 1")], True, True),
    ([], False, True),
    ([("replications = 10", "replications = 2"), ("seed = 7", "seed = 7\nbootstrap_B = 200")],
     False, False),
])
def test_report_csv_rows_are_the_report_fields(edits, sd_blank, boot_blank, tmp_path, capsys,
                                               monkeypatch):
    import pathlib
    from kinkfit import simulate
    text = (pathlib.Path(__file__).resolve().parent.parent / "scenarios"
            / "smoke.scenario").read_text()
    for edit in edits:
        text = text.replace(*edit)
    scen = tmp_path / "s.scenario"
    scen.write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scenario", str(scen), "--out", "s"]) == EXIT_OK
    capsys.readouterr()
    report = simulate.run(simulate.load_scenario(scen))
    with open(tmp_path / "s_report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["schema_version", str(SCHEMA_VERSION)]
    assert rows[1] == ["param", *REPORT_COLUMNS]
    assert [r[0] for r in rows[2:]] == list(report.param_names)
    assert (report.sd is None, report.coverage_bootstrap_pct is None) == (sd_blank, boot_blank)
    for i, row in enumerate(rows[2:]):
        for field, cell in zip(REPORT_COLUMNS, row[1:], strict=True):
            values = getattr(report, field)
            if values is None:
                assert cell == ""
            else:
                assert float(cell) == values[i]


@pytest.mark.parametrize("failure", ["raises", "not-converged"])
def test_simulate_with_every_replicate_failed_is_a_fit_error(failure, capsys, monkeypatch):
    import pathlib
    from kinkfit import simulate
    from kinkfit.errors import ConvergenceError

    def failing_fit_stack(*args, **kwargs):
        # Each replicate's entry is the error fit would raise, or a
        # non-converged result.
        if failure == "raises":
            return [ConvergenceError("curvature matrix not repairable by ridge")
                    for _ in args[4]]
        return [dataclasses.replace(r, converged=False) for r in fit_stack(*args, **kwargs)]

    monkeypatch.setattr(simulate, "fit_stack", failing_fit_stack)
    scen = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "smoke.scenario"
    assert main(["simulate", "--scenario", str(scen)]) == EXIT_NONCONV
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "fit-error", "message": "every replicate failed to fit"}


@pytest.mark.parametrize("grid, token", [("0.1,abc", "'abc'"), ("0.1,nan", "nan")])
def test_bad_tau_grid_is_a_data_error(grid, token, normal_csv, capsys):
    # A non-numeric candidate used to escape as a raw ValueError; a NaN
    # passed the interior check and was echoed as invalid JSON.
    code = main(["fit", "--input", str(normal_csv), "--y-col", "y", "--x-col", "x",
                 f"--tau-grid={grid}"])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "data-error"
    assert "tau" in err["message"] and token in err["message"]


@pytest.mark.parametrize("edit, key, token", [
    (("n = 200", "n = abc"), "'n'", "'abc'"),
    (("seed = 7", "seed = 7\ntau_grid = 0.1, x"), "'tau_grid'", "' x'"),
])
def test_non_numeric_scenario_value_is_a_data_error(edit, key, token, tmp_path, capsys):
    import pathlib
    smoke = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "smoke.scenario"
    scen = tmp_path / "bad.scenario"
    scen.write_text(smoke.read_text().replace(*edit))
    assert main(["simulate", "--scenario", str(scen)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "data-error"
    assert key in err["message"] and token in err["message"]


@pytest.mark.parametrize("line", ["tau_grid = 0.1, nan", "tau_grid = 0.1, 2.5"])
def test_unusable_scenario_tau_grid_is_a_data_error(line, tmp_path, capsys):
    # Every replicate used to fail in profile_init, and simulate exited 4.
    import pathlib
    smoke = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "smoke.scenario"
    scen = tmp_path / "grid.scenario"
    scen.write_text(smoke.read_text() + line + "\n")
    assert main(["simulate", "--scenario", str(scen)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "data-error" and "tau_grid" in err["message"]


def test_simulate_takes_no_format_option():
    import pathlib
    scen = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "smoke.scenario"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(scen), "--format", "json"])
    assert exc.value.code == 2


def test_simulate_seed_override_changes_results(tmp_path, capsys):
    import pathlib
    scen = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "smoke.scenario"
    assert main(["simulate", "--scenario", str(scen), "--seed", "1"]) == EXIT_OK
    out1 = capsys.readouterr().out
    assert main(["simulate", "--scenario", str(scen), "--seed", "1"]) == EXIT_OK
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert main(["simulate", "--scenario", str(scen), "--seed", "2"]) == EXIT_OK
    assert capsys.readouterr().out != out1


def test_validate_kernel_pass_and_json(capsys):
    assert main(["validate-kernel", "--kernel", "normal-cdf"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    assert main(["validate-kernel", "--kernel", "exp-cdf",
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["order"] == 1


@pytest.mark.parametrize("broken", [None, "limits_ok", "tail_second"])
def test_validate_kernel_json_conditions_and_their_conjunction(broken, capsys, monkeypatch):
    from kinkfit import cli, kernels
    if broken is not None:
        monkeypatch.setattr(cli, "validate", lambda kernel: dataclasses.replace(
            kernels.validate(kernel), **{broken: False}))
    code = main(["validate-kernel", "--kernel", "normal-cdf", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["conditions"]) == [
        "limits", "monotone", "first_derivative_bounded", "second_derivative_bounded",
        "tail_first_derivative", "tail_second_derivative"]
    assert payload["passed"] is all(payload["conditions"].values())
    assert payload["passed"] is (broken is None)
    assert code == (EXIT_OK if broken is None else EXIT_DATA)


def test_validate_kernel_unknown_token(capsys):
    assert main(["validate-kernel", "--kernel", "boxcar"]) == EXIT_USAGE
    capsys.readouterr()
