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
import json
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
from .inference import InferenceResult, run_inference
from .kernels import kernel_order, parse_bandwidth, parse_kernel, validate
from .model import Dataset, ModelSpec, parse_form
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

    Rows with a missing value in any mapped column are dropped and
    counted.  Non-numeric cells and out-of-support responses are data
    errors naming the offending row by its line number in the file.
    """
    z_cols = z_cols or []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in [y_col, x_col, *z_cols]:
            if col not in header:
                raise DataError(f"column {col!r} not present in {path} (has {header})")
        xs, ys, zs, lines = [], [], [], []
        dropped = 0
        for rownum, row in enumerate(reader, 2):
            cells = [row.get(c, "") for c in [y_col, x_col, *z_cols]]
            if any(c is None or c.strip() == "" for c in cells):
                dropped += 1
                continue
            vals = []
            for col, cell in zip([y_col, x_col, *z_cols], cells):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path} row {rownum}, column {col!r}: non-numeric value {cell!r}"
                    ) from None
            ys.append(vals[0])
            xs.append(vals[1])
            zs.append(vals[2:])
            lines.append(rownum)
    y = np.asarray(ys)
    bad = np.flatnonzero(~in_support(family, y))
    if bad.size:
        raise DataError(
            f"{path} row {lines[bad[0]]}, column {y_col!r}: y value "
            f"{ys[bad[0]]!r} outside the support of family {family.value}"
        )
    data = Dataset(
        x=np.asarray(xs), y=y, z=np.asarray(zs) if z_cols else None
    )
    return data, dropped


def _fit_result_dict(fr: FitResult) -> dict:
    return {
        "params": {
            "beta0": fr.params.beta0,
            "beta1": fr.params.beta1,
            "beta2": fr.params.beta2,
            "tau": fr.params.tau,
            "gamma": list(fr.params.gamma),
        },
        "objective_value": fr.objective_value,
        "iterations": fr.iterations,
        "converged": fr.converged,
        "grad_norm": fr.grad_norm,
        "h_used": fr.h_used,
        "neg_hessian_at_opt": fr.neg_hessian_at_opt.tolist(),
        "score_cov_at_opt": fr.score_cov_at_opt.tolist(),
    }


def _inference_dict(inf: InferenceResult) -> dict:
    out = {
        "level": inf.level,
        "cov": inf.cov_sandwich.tolist(),
        "se": inf.se_sandwich.tolist(),
        "se_delta": inf.se_delta.tolist(),
        "ci_normal": inf.ci_normal.tolist(),
    }
    if inf.ci_bootstrap is not None:
        out["ci_bootstrap"] = inf.ci_bootstrap.tolist()
        out["bootstrap_reps_used"] = inf.bootstrap_reps_used
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
        "fit": _fit_result_dict(fr),
        "inference": _inference_dict(inf),
    }
    _emit_fit(payload, args)
    return EXIT_OK


def _emit_fit(payload, args):
    names = ["beta0", "beta1", "beta2", "tau"] + [
        f"gamma{i+1}" for i in range(len(payload["fit"]["params"]["gamma"]))
    ]
    est = [
        payload["fit"]["params"]["beta0"],
        payload["fit"]["params"]["beta1"],
        payload["fit"]["params"]["beta2"],
        payload["fit"]["params"]["tau"],
        *payload["fit"]["params"]["gamma"],
    ]
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    elif args.format == "csv":
        lines = ["param,estimate,se,ci_lo,ci_hi"]
        for i, name in enumerate(names):
            se = payload["inference"]["se"][i]
            lo, hi = payload["inference"]["ci_normal"][i]
            lines.append(f"{name},{est[i]!r},{se!r},{lo!r},{hi!r}")
        text = "\n".join(lines)
    else:
        ci = f"{100 * payload['inference']['level']:g}% CI"
        lines = [f"{'param':>8} {'estimate':>12} {'s.e.':>10} {ci:>26}"]
        for i, name in enumerate(names):
            se = payload["inference"]["se"][i]
            lo, hi = payload["inference"]["ci_normal"][i]
            lines.append(f"{name:>8} {est[i]:12.5f} {se:10.5f} ({lo:11.5f}, {hi:11.5f})")
        lines.append(f"converged in {payload['fit']['iterations']} iterations, "
                     f"h = {payload['fit']['h_used']:.3g}")
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        from dataclasses import replace

        scenario = replace(scenario, seed=args.seed)
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
        w.writerow(
            ["param", "true", "mean", "median", "sd", "avg_se_prop1",
             "avg_se_delta", "coverage_normal_pct", "coverage_bootstrap_pct"]
        )
        for i, name in enumerate(report.param_names):
            w.writerow([
                name,
                report.true[i],
                report.mean[i],
                report.median[i],
                "" if report.sd is None else report.sd[i],
                report.avg_se_prop1[i],
                report.avg_se_delta[i],
                report.coverage_normal_pct[i],
                "" if report.coverage_bootstrap_pct is None
                else report.coverage_bootstrap_pct[i],
            ])
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
        "conditions": {
            "limits": report.limits_ok,
            "monotone": report.monotone_ok,
            "first_derivative_bounded": report.kp_bounded,
            "second_derivative_bounded": report.kpp_bounded,
            "tail_first_derivative": report.tail_first,
            "tail_second_derivative": report.tail_second,
        },
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
