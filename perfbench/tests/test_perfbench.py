"""Tests of the benchmark itself: tracing changes no output and leaves no
wrapper behind, inputs follow the seed, the CSV round-trips exactly, and
the output checks tell a maximum from a point beside it.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import kinkfit  # noqa: E402
from kinkfit import cli, families  # noqa: E402


def small_sim(name="sim_normal", seed=3, replications=4):
    wl = workloads.WORKLOADS[name]()
    wl.prepare(seed, None)
    wl.scenario = dataclasses.replace(wl.scenario, replications=replications)
    wl.replications = replications
    return wl


def small_cli(tmp_path, seed=3, n=400):
    wl = workloads.CliWorkload()
    wl.n = n
    wl.prepare(seed, tmp_path)
    return wl


def wrapped_names():
    """(module, attribute) pairs in kinkfit that currently hold a wrapper."""
    return [
        (name, attr)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "kinkfit" or name.startswith("kinkfit."))
        for attr, val in vars(mod).items()
        if hasattr(val, tracer._MARK)
    ]


def kinkfit_bindings():
    return {
        (name, attr): val
        for name, mod in sys.modules.items()
        if mod is not None and (name == "kinkfit" or name.startswith("kinkfit."))
        for attr, val in vars(mod).items()
    }


@pytest.mark.parametrize("name", ["sim_normal", "sim_logit"])
def test_traced_sim_report_is_bit_identical(name):
    wl = small_sim(name)
    plain = wl.fingerprint(wl.call())
    with tracer.Tracer() as tr:
        traced = wl.fingerprint(wl.call())
    assert traced == plain
    assert "simulate.run" in tr.names


def test_traced_cli_json_is_bit_identical(tmp_path):
    wl = small_cli(tmp_path)
    plain = wl.call()
    with tracer.Tracer() as tr:
        traced = wl.call()
    assert plain.code == 0
    assert traced == plain
    metrics = tracer.layer_metrics(tr)
    assert metrics["inference.bootstrap_ci.reps_used_frac"][0] > 0.9
    assert metrics["estimator.fit.calls"][0] == 1 + wl.B


def test_tracer_restores_every_name():
    before = kinkfit_bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = set(wrapped_names())
        # Call sites that hold a reference through `from .x import y`.
        for site in [("kinkfit.kernels", "eval_kernel"), ("kinkfit.model", "eval_kernel"),
                     ("kinkfit.estimator", "eval_kernel"), ("kinkfit", "fit"),
                     ("kinkfit.inference", "fit"), ("kinkfit.cli", "run"),
                     ("kinkfit.cli", "main"), ("kinkfit.families", "mean")]:
            assert site in wrapped
    finally:
        tr.uninstall()
    assert wrapped_names() == []
    after = kinkfit_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_names_when_the_call_raises():
    before = kinkfit_bindings()
    with pytest.raises(kinkfit.KinkfitError):
        with tracer.Tracer() as tr:
            kinkfit.parse_kernel("no-such-kernel")
    assert tr.names == ["kernels.parse_kernel"]
    assert tr.errors == {0: "DomainError"}
    assert wrapped_names() == []
    assert all(kinkfit_bindings()[k] is v for k, v in before.items())


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    for name, parent, start, end in [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0),
                                     ("b", 0, 5.0, 6.0), ("c", 1, 2.0, 3.0)]:
        tr.names.append(name)
        tr.parents.append(parent)
        tr.starts.append(start)
        tr.ends.append(end)
    dur, own = tracer._self_times(tr)
    assert dur.tolist() == [10.0, 3.0, 1.0, 1.0]
    assert own.tolist() == [6.0, 2.0, 1.0, 1.0]


def test_inputs_are_deterministic_in_the_seed():
    truth = workloads.CliWorkload.truth
    a = workloads.generate_poisson_data(5, 300, truth)
    b = workloads.generate_poisson_data(5, 300, truth)
    c = workloads.generate_poisson_data(6, 300, truth)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["x"], c["x"])
    s1, s2 = small_sim(seed=9), small_sim(seed=9)
    assert s1.scenario == s2.scenario and s1.scenario.seed == 9
    d1 = kinkfit.generate(s1.scenario, 2)
    d2 = kinkfit.generate(s2.scenario, 2)
    assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)


def test_csv_round_trips_exactly(tmp_path):
    wl = small_cli(tmp_path, n=500)
    data, dropped = cli.ingest_csv(wl.csv_path, "y", "x", ["z1", "z2"],
                                   families.Family.POISSON_LOG)
    assert dropped == 0
    assert np.array_equal(data.y, wl.data["y"])
    assert np.array_equal(data.x, wl.data["x"])
    assert np.array_equal(data.z, np.column_stack([wl.data["z1"], wl.data["z2"]]))


def test_independent_objective_matches_the_model(tmp_path):
    wl = small_cli(tmp_path)
    d = wl.data
    z = np.column_stack([d["z1"], d["z2"]])
    h = wl.n ** -2.0
    # tau sits on a data point, so the kernel is evaluated inside its window.
    p = np.array([1.0, 0.5, -0.4, d["x"][7], 0.3, -0.2])
    ours = checks.smoothed_objective("poisson", "quadratic-linear", h, d["x"], d["y"], z, p)
    assert ours == pytest.approx(checks.model_objective(wl, p), rel=1e-12)


def test_checks_pass_the_fit_and_fail_a_point_beside_it(tmp_path):
    wl = small_cli(tmp_path)
    out = wl.call()
    assert checks.check_cli(wl, out, None) == []
    ref = checks.cli_reference(out)
    assert checks.check_cli(wl, out, ref) == []
    # The optimum a wrong score would report: one coefficient off by 1 SE.
    est = np.asarray(ref["estimates"])
    moved = est.copy()
    moved[1] += ref["se"][1]
    d = wl.data
    z = np.column_stack([d["z1"], d["z2"]])

    def q(p):
        return checks.smoothed_objective("poisson", "quadratic-linear", wl.n ** -2.0,
                                         d["x"], d["y"], z, p)

    assert checks.local_max_problems(q, est, wl.n, "fit") == []
    assert checks.local_max_problems(q, moved, wl.n, "fit") != []


def test_sim_checks_pass_a_small_study():
    wl = small_sim("sim_logit", replications=12)
    report = wl.call()
    ref = checks.sim_reference(report)
    assert checks.check_sim(wl, report, ref) == []
    shifted = dict(ref, mean=(np.asarray(ref["mean"]) + np.asarray(ref["sd"])).tolist())
    assert checks.compare_sim(report, shifted, wl.replications) != []
