"""Command-line front end.

Subcommands:
    fit              fit a broken-line GLM to a CSV file
    simulate         run a Monte Carlo scenario file
    validate-kernel  check a built-in kernel's regularity conditions

Exit codes: 0 success, 2 usage error, 3 data error, 4 non-convergence /
optimization failure, 5 inference or bootstrap failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import operator
import sys

import numpy as np

from . import __version__
from .errors import (
    BootstrapError,
    BoundaryError,
    ConvergenceError,
    DataError,
    DomainError,
    IdentifiabilityError,
    InferenceError,
    InitializationError,
    KinkfitError,
    NumericError,
)
from .estimator import FitResult, fit
from .families import in_support, parse_family
from .inference import InferenceResult, _check_level, run_inference
from .kernels import kernel_order, parse_bandwidth, parse_kernel, validate
from .model import Dataset, ModelSpec, param_names, parse_form
from .simulate import load_scenario, parse_number, qq_export, run

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NONCONV = 4
EXIT_INFERENCE = 5

_ERROR_EXITS = (
    ((InferenceError, BootstrapError), EXIT_INFERENCE, "inference-error"),
    ((ConvergenceError, InitializationError, IdentifiabilityError, BoundaryError,
      NumericError), EXIT_NONCONV, "fit-error"),
    ((DataError,), EXIT_DATA, "data-error"),
    ((DomainError,), EXIT_USAGE, "usage-error"),
)


def ingest_csv(path, y_col, x_col, z_cols, family):
    """Read a dataset from a headered CSV file.

    Rows with a missing value in any mapped column (an empty cell, or a
    row too short to reach the column) are dropped and counted; blank
    lines are skipped.  A header name that appears twice maps to its last
    column.  Non-numeric cells (an underscore counts: float would read
    1_0 as 10), non-finite ones (nan, inf) and out-of-support responses
    are data errors naming the offending cell by its line number in the
    file (the last line of a record that spans several) and its column.
    The mapped cells are read as float reads them, _CAST_ROWS rows at a
    time (_cast_rows).
    """
    names = [y_col, x_col, *(z_cols or [])]
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None) or []
        position = {name: i for i, name in enumerate(header)}  # the last one wins
        for col in names:
            if col not in position:
                raise DataError(f"column {col!r} not present in {path} (has {header})")
        cols = [position[c] for c in names]
        width = max(cols) + 1
        mapped = operator.itemgetter(*cols)  # a tuple: names has two or more
        blocks, rows, lines = [], [], []
        dropped = 0
        for row in reader:
            if len(row) < width:
                dropped += bool(row)  # a blank line is no row
                continue
            cells = mapped(row)
            if "" in cells:
                dropped += 1
                continue
            rows.append(cells)
            lines.append(reader.line_num)
            if len(rows) == _CAST_ROWS:
                blocks.append(_cast_rows(rows, lines, names, path))
                rows, lines = [], []
        blocks.append(_cast_rows(rows, lines, names, path))
    vals = np.concatenate([b[0] for b in blocks])
    lines = list(itertools.chain.from_iterable(b[1] for b in blocks))
    dropped += sum(b[2] for b in blocks)
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        r, j = bad[0]
        raise DataError(
            f"{path} row {lines[r]}, column {names[j]!r}: non-finite value {float(vals[r, j])!r}"
        )
    y = vals[:, 0].copy()
    bad = np.flatnonzero(~in_support(family, y))
    if bad.size:
        raise DataError(
            f"{path} row {lines[bad[0]]}, column {y_col!r}: y value "
            f"{float(y[bad[0]])!r} outside the support of family {family.value}"
        )
    data = Dataset(x=vals[:, 1].copy(), y=y, z=vals[:, 2:].copy() if z_cols else None)
    return data, dropped


# ingest_csv's rows per cast: the cells of a block are alive as strings
# until its cast, about 0.3 MB for 1 024 rows of four numbers.
_CAST_ROWS = 1024


def _cast_rows(rows, lines, names, path):
    """A block of ingest_csv's mapped cells, as float reads them: (values,
    their lines, rows dropped).

    One cast of the block's object array when every cell is a number
    without an underscore; else the block is read row by row: a row with
    a whitespace-only cell is dropped, and the first row with a cell that
    float cannot read or that holds an underscore is a DataError naming
    that cell.
    """
    flat = list(itertools.chain.from_iterable(rows))
    if "_" not in "".join(flat):
        try:
            values = np.array(flat, dtype=object).astype(float)
            return values.reshape(len(rows), len(names)), lines, 0
        except ValueError:
            pass
    values, kept, dropped = [], [], 0
    for cells, line in zip(rows, lines):
        try:
            row = [float(c) for c in cells]
        except ValueError:
            if any(c.strip() == "" for c in cells):
                dropped += 1
                continue
            row = None
        if row is None or "_" in "".join(cells):
            col, cell = next((n, c) for n, c in zip(names, cells) if not _is_number(c))
            raise DataError(f"{path} row {line}, column {col!r}: non-numeric value {cell!r}")
        values.append(row)
        kept.append(line)
    return np.array(values).reshape(len(values), len(names)), kept, dropped


def _is_number(cell: str) -> bool:
    """Whether float reads cell as written: no underscore between digits."""
    try:
        float(cell)
    except ValueError:
        return False
    return "_" not in cell


def _inference_dict(inf: InferenceResult) -> dict:
    """The inference's fields, without the bootstrap's when there is none."""
    out = dataclasses.asdict(inf)
    if inf.ci_bootstrap is None:
        del out["ci_bootstrap"], out["bootstrap_reps_used"]
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kinkfit", description=__doc__)
    ap.add_argument("--version", action="version", version=f"kinkfit {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("fit", help="fit a broken-line GLM to CSV data")
    f.add_argument("--input", required=True, help="CSV file with a header row")
    f.add_argument("--y-col", required=True)
    f.add_argument("--x-col", required=True)
    f.add_argument("--z-cols", default="", help="comma-separated covariate columns")
    f.add_argument("--family", default="normal", help="normal | logit | poisson")
    f.add_argument("--kernel", default="normal-cdf", help="normal-cdf | exp-cdf")
    f.add_argument("--bandwidth", default="n^-2", help="n^<exp> or fixed:<h>")
    f.add_argument(
        "--form",
        default="linear-linear",
        help="linear-linear | linear-quadratic | quadratic-linear",
    )
    f.add_argument("--tau-grid", default="", help="comma-separated candidates")
    f.add_argument("--bootstrap", type=int, default=0, metavar="B")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--level", type=float, default=0.95)
    f.add_argument("--out", default="", help="output path (default stdout)")
    f.add_argument("--format", choices=["json", "csv", "table"], default="json")

    s = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    s.add_argument("--scenario", required=True, help="key = value scenario file")
    s.add_argument("--out", default="", help="output prefix for report files")
    s.add_argument("--seed", type=int, default=None, help="override scenario seed")

    v = sub.add_parser("validate-kernel", help="check kernel conditions")
    v.add_argument("--kernel", required=True, help="normal-cdf | exp-cdf")
    v.add_argument("--format", choices=["json", "table"], default="table")
    return ap


def _cmd_fit(args) -> int:
    _check_level(args.level)
    family = parse_family(args.family)
    z_cols = [c for c in args.z_cols.split(",") if c.strip()]
    data, dropped = ingest_csv(args.input, args.y_col, args.x_col, z_cols, family)
    spec = ModelSpec(
        family=family,
        kernel=parse_kernel(args.kernel),
        bw=parse_bandwidth(args.bandwidth),
        form=parse_form(args.form),
        n_covariates=len(z_cols),
    )
    grid = None
    if args.tau_grid.strip():
        grid = tuple(parse_number("--tau-grid", t) for t in args.tau_grid.split(","))
    fr = fit(spec, data, tau_grid=grid)
    if not fr.converged:
        raise ConvergenceError(
            f"fit did not converge in {fr.iterations} iterations "
            f"(grad_norm {fr.grad_norm:.3g})"
        )
    inf = run_inference(
        spec, data, fr, level=args.level, bootstrap_B=args.bootstrap, seed=args.seed
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "input": args.input,
            "y_col": args.y_col,
            "x_col": args.x_col,
            "z_cols": z_cols,
            "family": args.family,
            "kernel": args.kernel,
            "bandwidth": args.bandwidth,
            "form": args.form,
            "tau_grid": list(grid) if grid else None,
            "bootstrap": args.bootstrap,
            "seed": args.seed,
            "level": args.level,
        },
        "n": data.n,
        "rows_dropped_missing": dropped,
        "fit": dataclasses.asdict(fr),
        "inference": _inference_dict(inf),
    }
    _emit_fit(payload, fr, inf, args)
    return EXIT_OK


def _emit_fit(payload, fr: FitResult, inf: InferenceResult, args):
    """Write the fit in args.format: the JSON payload, or one row per
    parameter of its estimate, s.e. and normal interval, then its
    bootstrap interval when there is one."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, default=np.ndarray.tolist)
    else:
        boot = inf.ci_bootstrap is not None
        columns = [fr.params.to_array(), inf.se, inf.ci_normal]
        if boot:
            columns.append(inf.ci_bootstrap)
        rows = list(zip(param_names(len(fr.params.gamma)), np.column_stack(columns).tolist()))
        if args.format == "csv":
            lines = ["param,estimate,se,ci_lo,ci_hi" + (",boot_lo,boot_hi" if boot else "")]
            lines += [",".join([name, *map(repr, v)]) for name, v in rows]
        else:
            level = f"{100 * inf.level:g}%"
            head = f"{'param':>8} {'estimate':>12} {'s.e.':>10} {level + ' CI':>26}"
            lines = [head + (f" {level + ' bootstrap CI':>26}" if boot else "")]
            for name, (est, se, *ends) in rows:
                line = f"{name:>8} {est:12.5f} {se:10.5f}"
                for lo, hi in zip(ends[::2], ends[1::2]):
                    line += f" ({lo:11.5f}, {hi:11.5f})"
                lines.append(line)
            lines.append(f"converged in {fr.iterations} iterations, h = {fr.h_used:.3g}")
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    report = run(scenario)
    print(report.table())
    if args.out:
        _write_report_files(report, args.out)
    return EXIT_OK


def _write_report_files(report, prefix):
    with open(prefix + "_report.txt", "w") as fh:
        fh.write(report.table() + "\n")
    with open(prefix + "_report.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["schema_version", SCHEMA_VERSION])
        w.writerows(report.csv_rows())
    try:
        rows = qq_export(report)
    except DataError:
        return
    with open(prefix + "_qq.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["param", "theoretical_quantile", "standardized_estimate"])
        w.writerows(rows)


def _cmd_validate_kernel(args) -> int:
    kernel = parse_kernel(args.kernel)
    report = validate(kernel)
    try:
        order = kernel_order(kernel)
    except KinkfitError:
        order = None
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kernel": args.kernel,
        "order": order,
        "passed": report.passed,
        "conditions": report.conditions,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"kernel {args.kernel}: {'PASS' if report.passed else 'FAIL'} "
              f"(order {order})")
        for name, ok in payload["conditions"].items():
            print(f"  {name:<28} {'pass' if ok else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_DATA


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.cmd == "fit":
            return _cmd_fit(args)
        if args.cmd == "simulate":
            return _cmd_simulate(args)
        return _cmd_validate_kernel(args)
    except KinkfitError as exc:
        for classes, code, label in _ERROR_EXITS:
            if isinstance(exc, classes):
                print(json.dumps({"error": label, "message": str(exc)}), file=sys.stderr)
                return code
        print(json.dumps({"error": "error", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
