"""Monte Carlo harness: generate, fit, and aggregate replications.

A scenario fixes the generating truth (indicator model, not the smoothed
one), the sample size, and the estimation settings.  Replicate r of a
scenario is fully determined by (seed, r), so runs are reproducible and
any subset of replicates can be rerun on its own.

The report's two average standard-error rows, "asymptotic" and "delta",
are one number, the mean of the replicates' InferenceResult.se: the
delta route equals the inverse-information one (see inference).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import families
from .errors import ConvergenceError, DataError, DomainError, KinkfitError
from .estimator import FitResult, fit_stack, profile_init, rows_per_block
from .families import parse_family
from .inference import _check_level, run_inference
from .kernels import parse_bandwidth, parse_kernel
from .model import Dataset, ModelSpec, ParamVector, indicator_segment, param_names, parse_form

__all__ = [
    "SimScenario", "SimReport", "generate", "run", "qq_export", "load_scenario", "parse_number",
]

# The report's statistics, in table order: (table label, SimReport field,
# decimals in the table).  The field names are the _report.csv columns.
_REPORT_STATS = (
    ("True", "true", 4),
    ("Mean", "mean", 4),
    ("Median", "median", 4),
    ("S.D.", "sd", 4),
    ("Avg s.e. (asymptotic)", "avg_se_prop1", 4),
    ("Avg s.e. (delta)", "avg_se_delta", 4),
    ("Coverage normal CI (%)", "coverage_normal_pct", 1),
    ("Coverage bootstrap CI (%)", "coverage_bootstrap_pct", 1),
)


@dataclass(frozen=True)
class SimScenario:
    family: str
    true_params: ParamVector
    n: int
    replications: int
    x_lo: float = -2.0
    x_hi: float = 2.0
    form: str = "linear-linear"
    kernel: str = "normal-cdf"
    bandwidth: str = "n^-2"
    bootstrap_B: int = 0
    seed: int = 0
    level: float = 0.95
    tau_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        _check_level(self.level)
        if not (self.x_lo < self.true_params.tau < self.x_hi):
            raise DomainError("true change point must lie inside the x range")
        # NaN fails the comparison too.  profile_init still checks each
        # replicate's own x range.
        if self.tau_grid is not None and not all(
            self.x_lo < t < self.x_hi for t in self.tau_grid
        ):
            raise DataError(
                f"tau_grid candidates must be finite and strictly inside "
                f"(x_lo, x_hi) = ({self.x_lo}, {self.x_hi}), got {self.tau_grid}"
            )

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            family=parse_family(self.family),
            kernel=parse_kernel(self.kernel),
            bw=parse_bandwidth(self.bandwidth),
            form=parse_form(self.form),
            n_covariates=len(self.true_params.gamma),
        )


@dataclass(frozen=True)
class SimReport:
    scenario: SimScenario
    param_names: tuple[str, ...]
    true: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    sd: np.ndarray | None
    avg_se_prop1: np.ndarray
    avg_se_delta: np.ndarray
    coverage_normal_pct: np.ndarray
    coverage_bootstrap_pct: np.ndarray | None
    n_failed_fits: int
    n_converged: int
    degraded: bool
    estimates: np.ndarray  # converged replications x (4+k)

    def table(self) -> str:
        """Human-readable summary table: one row per statistic that is set."""
        rows = [("", *self.param_names)]
        for label, field, nd in _REPORT_STATS:
            vals = getattr(self, field)
            if vals is not None:
                rows.append((label, *(f"{v:.{nd}f}" for v in vals)))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = []
        for r in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        lines.append(
            f"converged {self.n_converged}, failed {self.n_failed_fits}"
            + ("  [DEGRADED: >5% failed fits]" if self.degraded else "")
        )
        return "\n".join(lines)

    def csv_rows(self) -> list[list]:
        """The statistics as CSV rows: a header, "param" and the field
        names, then one row per parameter; a statistic that is not set is
        a blank cell."""
        stats = [getattr(self, field) for _, field, _ in _REPORT_STATS]
        rows = [["param", *(field for _, field, _ in _REPORT_STATS)]]
        for i, name in enumerate(self.param_names):
            rows.append([name, *("" if vals is None else vals[i] for vals in stats)])
        return rows


def generate(scenario: SimScenario, replicate_index: int) -> Dataset:
    """Dataset for one replicate; deterministic in (seed, replicate_index).

    The linear predictor uses the exact indicator segment, not the
    smoothed one: smoothing belongs to estimation, not to the truth.
    """
    rng = np.random.default_rng([scenario.seed, replicate_index])
    tp = scenario.true_params
    x = rng.uniform(scenario.x_lo, scenario.x_hi, scenario.n)
    form = parse_form(scenario.form)
    theta = tp.beta0 + tp.beta1 * x + tp.beta2 * indicator_segment(form, x, tp.tau)
    z = None
    if tp.gamma:
        z = rng.standard_normal((scenario.n, len(tp.gamma)))
        theta = theta + z @ np.asarray(tp.gamma)
    y = families.sample(parse_family(scenario.family), theta, rng)
    return Dataset(x=x, y=y, z=z)


@np.errstate(all="ignore")
def run(scenario: SimScenario) -> SimReport:
    """Fit every replicate and aggregate.

    Replicates are fit in blocks of estimator.rows_per_block(n) (32 at
    n = 500): each gets its own profile_init, then one fit_stack call runs
    the Newton ascent of the whole block, and inference follows replicate
    by replicate.  Results are those of fitting each replicate alone, in
    replicate order.  Failed fits (a KinkfitError or non-convergence) are
    excluded from the moments and counted; more than 5% of them flags the
    report degraded.  Runs with numpy's floating-point warnings off, as
    fit does: a failed replicate is counted, not warned about.
    """
    spec = scenario.model_spec()
    truth = scenario.true_params.to_array()
    ests, ses, cover, cover_boot = [], [], [], []
    failed = 0
    block = rows_per_block(scenario.n)
    for first in range(0, scenario.replications, block):
        reps, datasets, starts = [], [], []
        for r in range(first, min(first + block, scenario.replications)):
            data = generate(scenario, r)
            try:
                starts.append(profile_init(spec, data, scenario.tau_grid))
            except KinkfitError:
                failed += 1
                continue
            reps.append(r)
            datasets.append(data)
        if not reps:
            continue
        z = None if spec.n_covariates == 0 else np.stack([d.z for d in datasets])
        fits = fit_stack(spec, np.stack([d.x for d in datasets]),
                         np.stack([d.y for d in datasets]), z, starts)
        for r, data, fr in zip(reps, datasets, fits):
            if not (isinstance(fr, FitResult) and fr.converged):
                failed += 1
                continue
            try:
                inf = run_inference(
                    spec,
                    data,
                    fr,
                    level=scenario.level,
                    bootstrap_B=scenario.bootstrap_B,
                    seed=[scenario.seed, r, 1],
                )
            except KinkfitError:
                failed += 1
                continue
            est = fr.params.to_array()
            ests.append(est)
            ses.append(inf.se)
            cover.append((inf.ci_normal[:, 0] <= truth) & (truth <= inf.ci_normal[:, 1]))
            if inf.ci_bootstrap is not None:
                cover_boot.append(
                    (inf.ci_bootstrap[:, 0] <= truth) & (truth <= inf.ci_bootstrap[:, 1])
                )
    if not ests:
        raise ConvergenceError("every replicate failed to fit")
    E = np.asarray(ests)
    avg_se = np.asarray(ses).mean(axis=0)
    report = SimReport(
        scenario=scenario,
        param_names=param_names(len(scenario.true_params.gamma)),
        true=truth,
        mean=E.mean(axis=0),
        median=np.median(E, axis=0),
        sd=E.std(axis=0, ddof=1) if E.shape[0] > 1 else None,
        avg_se_prop1=avg_se,
        avg_se_delta=avg_se,
        coverage_normal_pct=100.0 * np.asarray(cover).mean(axis=0),
        coverage_bootstrap_pct=(
            100.0 * np.asarray(cover_boot).mean(axis=0) if cover_boot else None
        ),
        n_failed_fits=failed,
        n_converged=E.shape[0],
        degraded=failed > 0.05 * scenario.replications,
        estimates=E,
    )
    return report


def qq_export(report: SimReport):
    """Per-parameter (theoretical normal quantile, standardized estimate)
    pairs for external Q-Q plotting.

    Returns a list of (param_name, theoretical, standardized) rows.
    """
    m = report.estimates.shape[0]
    if m < 10:
        raise DataError(f"need at least 10 converged replications, got {m}")
    rows = []
    probs = (np.arange(1, m + 1) - 0.5) / m
    theo = [NormalDist().inv_cdf(p) for p in probs.tolist()]
    for j, name in enumerate(report.param_names):
        col = report.estimates[:, j]
        sd = col.std(ddof=1)
        if sd == 0:
            raise DataError(f"constant estimates for {name}; cannot standardize")
        std = np.sort((col - col.mean()) / sd)
        rows.extend((name, float(t), float(s)) for t, s in zip(theo, std))
    return rows


def parse_number(label: str, token: str, kind=float):
    """token converted by kind (float, int or str); a DataError naming
    label and token when it is not a number of that kind."""
    try:
        return kind(token)
    except ValueError:
        raise DataError(f"{label}: not a number: {token!r}") from None


_SCENARIO_KEYS = {
    "family": str,
    "form": str,
    "kernel": str,
    "bandwidth": str,
    "n": int,
    "replications": int,
    "x_lo": float,
    "x_hi": float,
    "bootstrap_B": int,
    "seed": int,
    "level": float,
}


def load_scenario(path) -> SimScenario:
    """Parse a flat key = value scenario file.

    Required keys: family, n, replications, beta0, beta1, beta2, tau.
    Optional: form, kernel, bandwidth, x_lo, x_hi, gamma (comma list),
    tau_grid (comma list), bootstrap_B, seed, level, schema_version.
    """
    kv = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            kv[key] = val
    kv.pop("schema_version", None)

    def number(key, token, kind=float):
        return parse_number(f"{path}: scenario key {key!r}", token, kind)

    try:
        tp = ParamVector(
            number("beta0", kv.pop("beta0")),
            number("beta1", kv.pop("beta1")),
            number("beta2", kv.pop("beta2")),
            number("tau", kv.pop("tau")),
            tuple(number("gamma", g) for g in kv.pop("gamma", "").split(",") if g.strip()),
        )
    except KeyError as exc:
        raise DataError(f"scenario missing required key {exc}") from None
    kwargs = {}
    if "tau_grid" in kv:
        kwargs["tau_grid"] = tuple(number("tau_grid", t) for t in kv.pop("tau_grid").split(","))
    for key, val in kv.items():
        if key not in _SCENARIO_KEYS:
            raise DataError(f"unknown scenario key {key!r}")
        kwargs[key] = number(key, val, _SCENARIO_KEYS[key])
    try:
        return SimScenario(true_params=tp, **kwargs)
    except TypeError as exc:
        raise DataError(f"scenario incomplete: {exc}") from None
