"""Output checks for the benchmark's workloads.

Every check returns a list of problems; an empty list means the output
passed.  Two kinds of check run:

- Checks any correct kinkfit passes on any seed.  The central one takes
  each returned estimate and tests that it is a local maximum of the
  smoothed objective, computed here independently of ``kinkfit.model``
  (scipy's normal CDF as the kernel), to within the fit's own gradient
  tolerance.  A wrong score or a wrong kernel moves the optimum the
  program reports away from the true one and fails this test; a fit that
  finds an equal or higher maximum passes it.
- Comparison with reference values recorded at the seed commit
  (``references.json``) for the seeds recorded there.  The tolerances
  admit a change that moves a few percent of the optima to higher
  maxima, as a global initialisation does, and nothing larger.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Gradient tolerance factor of kinkfit's FitConfig: max|score| < tol * n.
FIT_TOL = 1e-5
# Simulation statistics against the reference: mean within MEAN_TOL
# reference SDs, SD and average SE within these relative tolerances.
MEAN_TOL = 0.15
SD_TOL = 0.15
SE_TOL = 0.05


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def reference_for(references, workload, seed):
    return references["workloads"].get(workload, {}).get(str(seed))


# --- the independent objective --------------------------------------------

def smoothed_objective(family, form, h, x, y, z, params):
    """sum(y*theta - b(theta)) with the normal-CDF kernel at bandwidth h.

    Written from the model's definition, not from ``kinkfit.model``:
    K = Phi((x - tau)/h), and the segment term is d*K, d^2*K or
    d^2*(1 - K) for the three forms, with d = x - tau.
    """
    p = np.asarray(params, dtype=float)
    d = x - p[3]
    k = ndtr(d / h)
    if form == "linear-linear":
        seg = d * k
    elif form == "linear-quadratic":
        seg = d * d * k
    elif form == "quadratic-linear":
        seg = d * d * (1.0 - k)
    else:
        raise ValueError(f"unknown form {form!r}")
    theta = p[0] + p[1] * x + p[2] * seg
    if z is not None:
        theta = theta + z @ p[4:]
    if family == "normal":
        b = 0.5 * theta * theta
    elif family == "logit":
        b = np.logaddexp(0.0, theta)
    elif family == "poisson":
        b = np.exp(theta)
    else:
        raise ValueError(f"unknown family {family!r}")
    return float(np.sum(y * theta - b))


def power_bandwidth(token, n):
    """h = n^e for a bandwidth token "n^e"."""
    if not token.startswith("n^"):
        raise ValueError(f"not a power-law bandwidth: {token!r}")
    return float(n) ** float(token[2:])


def local_max_problems(objective, params, n, label):
    """Problems if moving any coordinate by a small step raises the
    objective by more than the fit's gradient tolerance allows."""
    p = np.asarray(params, dtype=float)
    q0 = objective(p)
    if not math.isfinite(q0):
        return [f"{label}: objective at the estimate is not finite"]
    problems = []
    for j in range(p.size):
        step = 1e-5 * max(1.0, abs(p[j]))
        allowed = 10.0 * FIT_TOL * n * step + 1e-11 * (1.0 + abs(q0))
        for sign in (1.0, -1.0):
            trial = p.copy()
            trial[j] += sign * step
            rise = objective(trial) - q0
            if not rise <= allowed:
                problems.append(
                    f"{label}: not a local maximum, moving parameter {j} by "
                    f"{sign * step:.3g} raises the objective by {rise:.3g} "
                    f"(allowed {allowed:.3g})"
                )
    return problems


# --- simulation studies -----------------------------------------------------

def check_sim(workload, report, reference):
    from kinkfit import simulate

    sc = workload.scenario
    reps = sc.replications
    m = report.n_converged
    problems = []
    if m + report.n_failed_fits != reps:
        problems.append(
            f"{m} converged + {report.n_failed_fits} failed != {reps} replications"
        )
    if report.n_failed_fits > 0.05 * reps:
        problems.append(f"{report.n_failed_fits}/{reps} fits failed (over 5%)")
    stats = {"mean": report.mean, "sd": report.sd, "avg_se": report.avg_se_prop1}
    for key, vals in stats.items():
        if vals is None or not np.all(np.isfinite(vals)):
            problems.append(f"report {key} missing or not finite: {vals}")
    if problems:
        return problems

    # Each converged estimate must be a local maximum on its replicate's
    # data.  Failed replicates leave no row, so rows are matched to
    # replicates in order, skipping one that the next row does not fit.
    if sc.kernel != "normal-cdf":
        return [f"no independent objective for kernel {sc.kernel}"]
    h = power_bandwidth(sc.bandwidth, sc.n)
    row, skipped = 0, 0
    for r in range(reps):
        if row == m:
            skipped += reps - r
            break
        data = simulate.generate(sc, r)

        def q(p, data=data):
            return smoothed_objective(sc.family, sc.form, h, data.x, data.y, data.z, p)

        if local_max_problems(q, report.estimates[row], sc.n, f"replicate {r}"):
            skipped += 1
        else:
            row += 1
    if row != m or skipped != report.n_failed_fits:
        problems.append(
            f"only {row} of {m} converged estimates are local maxima of the "
            f"smoothed objective on their replicates"
        )

    truth = np.asarray(report.true)
    slack = 4.0 * report.sd / math.sqrt(m) + 0.05 * np.maximum(1.0, np.abs(truth))
    if np.any(np.abs(report.mean - truth) > slack):
        problems.append(f"mean {report.mean} too far from the truth {truth}")
    ratio = report.avg_se_prop1 / report.sd
    if np.any((ratio < 0.6) | (ratio > 1.6)):
        problems.append(f"average SE / SD = {ratio} outside [0.6, 1.6]")

    if reference is not None:
        problems += compare_sim(report, reference, reps)
    return problems


def sim_reference(report):
    return {
        "mean": report.mean.tolist(),
        "sd": report.sd.tolist(),
        "avg_se": report.avg_se_prop1.tolist(),
        "n_converged": int(report.n_converged),
    }


def compare_sim(report, ref, reps):
    problems = []
    sd_ref = np.asarray(ref["sd"])
    dmean = np.abs(report.mean - np.asarray(ref["mean"])) / sd_ref
    if np.any(dmean > MEAN_TOL):
        problems.append(f"mean moved by {dmean} reference SDs (tolerance {MEAN_TOL})")
    dsd = np.abs(report.sd / sd_ref - 1.0)
    if np.any(dsd > SD_TOL):
        problems.append(f"SD moved by {dsd} of the reference (tolerance {SD_TOL})")
    dse = np.abs(report.avg_se_prop1 / np.asarray(ref["avg_se"]) - 1.0)
    if np.any(dse > SE_TOL):
        problems.append(f"average SE moved by {dse} of the reference (tolerance {SE_TOL})")
    floor = ref["n_converged"] - max(2, math.ceil(0.02 * reps))
    if report.n_converged < floor:
        problems.append(
            f"{report.n_converged} fits converged, reference {ref['n_converged']}"
        )
    return problems


# --- the CLI fit ----------------------------------------------------------

def _estimates(payload):
    p = payload["fit"]["params"]
    return np.array([p["beta0"], p["beta1"], p["beta2"], p["tau"], *p["gamma"]])


def check_cli(workload, output, reference):
    if output.code != 0:
        return [f"kinkfit fit exited with code {output.code}: {output.stderr.strip()}"]
    try:
        payload = json.loads(output.stdout)
        est = _estimates(payload)
        inf = payload["inference"]
        se = np.asarray(inf["se"], dtype=float)
        ci_normal = np.asarray(inf["ci_normal"], dtype=float)
        ci_boot = np.asarray(inf["ci_bootstrap"], dtype=float)
        reps_used = int(inf["bootstrap_reps_used"])
        obj = float(payload["fit"]["objective_value"])
        n, dropped = payload["n"], payload["rows_dropped_missing"]
        converged = payload["fit"]["converged"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"fit JSON unreadable: {exc!r}"]
    problems = []
    if n != workload.n or dropped != 0:
        problems.append(f"read {n} rows, dropped {dropped}")
    if converged is not True:
        problems.append("fit reports converged = false")
    for name, arr in (("estimates", est), ("se", se), ("ci_normal", ci_normal),
                      ("ci_bootstrap", ci_boot)):
        if arr.shape[0] != 6 or not np.all(np.isfinite(arr)):
            problems.append(f"{name} has the wrong shape or is not finite: {arr}")
    if problems:
        return problems

    d = workload.data
    z = np.column_stack([d["z1"], d["z2"]])
    h = power_bandwidth(workload.bandwidth, workload.n)

    def q(p):
        return smoothed_objective(workload.family, workload.form, h,
                                  d["x"], d["y"], z, p)

    q_est = q(est)
    if not abs(q_est - obj) <= 1e-9 * abs(obj):
        problems.append(f"reported objective {obj!r}, independent objective {q_est!r}")
    q_model = model_objective(workload, est)
    if not abs(q_model - obj) <= 1e-9 * abs(obj):
        problems.append(f"reported objective {obj!r}, model.objective {q_model!r}")
    problems += local_max_problems(q, est, workload.n, "fit")
    if np.any(se <= 0):
        problems.append(f"non-positive standard errors {se}")
    expect = np.column_stack([est - 1.96 * se, est + 1.96 * se])
    if np.any(np.abs(ci_normal - expect) > 1e-9 * (1.0 + np.abs(expect))):
        problems.append("normal intervals are not estimate +- 1.96 SE")
    if np.any(ci_boot[:, 0] > ci_boot[:, 1]):
        problems.append(f"bootstrap interval with lower > upper: {ci_boot}")
    if not 0.9 * workload.B <= reps_used <= workload.B:
        problems.append(f"{reps_used} of {workload.B} bootstrap refits used")
    if np.any(np.abs(est - np.asarray(workload.truth)) > 6.0 * se):
        problems.append(f"estimates {est} more than 6 SE from the truth {workload.truth}")

    if reference is not None and not problems:
        problems += compare_cli(est, se, ci_normal, ci_boot, reps_used, q_est, reference)
    return problems


def model_objective(workload, params):
    """``kinkfit.model.objective`` at params on the generated data."""
    import kinkfit as kf
    from kinkfit import model

    d = workload.data
    spec = kf.ModelSpec(
        family=kf.parse_family(workload.family),
        kernel=kf.normal_cdf_kernel(),
        bw=kf.parse_bandwidth(workload.bandwidth),
        form=kf.ModelForm(workload.form),
        n_covariates=2,
    )
    data = kf.Dataset(x=d["x"], y=d["y"], z=np.column_stack([d["z1"], d["z2"]]))
    h = kf.bandwidth(spec.bw, data.n)
    return model.objective(spec, kf.ParamVector.from_array(params), data, h)


def cli_reference(output):
    payload = json.loads(output.stdout)
    inf = payload["inference"]
    return {
        "estimates": _estimates(payload).tolist(),
        "se": inf["se"],
        "ci_normal": inf["ci_normal"],
        "ci_bootstrap": inf["ci_bootstrap"],
        "bootstrap_reps_used": inf["bootstrap_reps_used"],
        "objective": payload["fit"]["objective_value"],
    }


def compare_cli(est, se, ci_normal, ci_boot, reps_used, q_est, ref):
    ref_est = np.asarray(ref["estimates"])
    ref_se = np.asarray(ref["se"])
    ref_obj = float(ref["objective"])
    moved = np.abs(est - ref_est) / ref_se
    if np.all(moved <= 0.01):
        problems = []
        if np.any(np.abs(se / ref_se - 1.0) > 1e-3):
            problems.append(f"SE {se} differ from the reference {ref_se}")
        if np.any(np.abs(ci_normal - np.asarray(ref["ci_normal"])) > 0.01 * ref_se[:, None]):
            problems.append("normal intervals differ from the reference")
        if np.any(np.abs(ci_boot - np.asarray(ref["ci_bootstrap"])) > 0.25 * ref_se[:, None]):
            problems.append(
                f"bootstrap intervals {ci_boot.tolist()} differ from the reference "
                f"{ref['ci_bootstrap']} by more than 0.25 SE"
            )
        if reps_used < ref["bootstrap_reps_used"] - 2:
            problems.append(
                f"{reps_used} bootstrap refits used, reference {ref['bootstrap_reps_used']}"
            )
        return problems
    # A different optimum passes only if it is at least as high.
    if q_est < ref_obj - 1e-9 * abs(ref_obj):
        return [
            f"estimates moved by {moved} reference SEs to a lower objective "
            f"({q_est!r} < {ref_obj!r})"
        ]
    if np.any(np.abs(se / ref_se - 1.0) > 0.25):
        return [f"SE {se} more than 25% from the reference {ref_se}"]
    return []
