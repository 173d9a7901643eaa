"""Monte Carlo harness: generation, aggregation, scenario files."""
import dataclasses

import numpy as np
import pytest
from scipy.stats import kstest

from kinkfit.errors import DataError, DomainError
from kinkfit.model import ParamVector
from kinkfit.simulate import SimScenario, generate, load_scenario, qq_export, run

TRUE = ParamVector(2.0, 3.0, -5.0, 0.5)


def scenario(**kw):
    base = dict(family="normal", true_params=TRUE, n=200, replications=10, seed=7)
    base.update(kw)
    return SimScenario(**base)


def test_generate_is_deterministic_per_replicate():
    sc = scenario()
    a = generate(sc, 3)
    b = generate(sc, 3)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    c = generate(sc, 4)
    assert not np.array_equal(a.y, c.y)


def test_generate_uses_hard_indicator_truth():
    # noise around the bent line: residuals against the exact indicator
    # model should be standard normal
    sc = scenario(n=50_000, seed=12)
    d = generate(sc, 0)
    from kinkfit.model import indicator_segment, parse_form
    theta = TRUE.beta0 + TRUE.beta1 * d.x + TRUE.beta2 * indicator_segment(
        parse_form("linear-linear"), d.x, TRUE.tau)
    resid = d.y - theta
    assert abs(resid.mean()) < 4.0 / np.sqrt(d.n)
    assert abs(resid.std() - 1.0) < 0.02
    assert d.x.min() >= -2.0 and d.x.max() <= 2.0


def test_generate_logit_event_rate_near_the_bend():
    sc = scenario(family="logit", n=400_000, seed=13)
    d = generate(sc, 0)
    near = np.abs(d.x - 0.5) < 0.01
    # theta ~ 3.5 just around the bend
    rate = d.y[near].mean()
    p = 1.0 / (1.0 + np.exp(-3.5))
    assert rate == pytest.approx(p, abs=0.02)


def test_generate_covariates_enter_the_predictor():
    tp = ParamVector(2.0, 3.0, -5.0, 0.5, (2.5,))
    sc = scenario(true_params=tp, n=30_000, seed=14)
    d = generate(sc, 0)
    assert d.z.shape == (30_000, 1)
    r = np.corrcoef(d.z[:, 0], d.y)[0, 1]
    assert r > 0.5


def test_run_aggregates_and_is_deterministic():
    sc = scenario(replications=6)
    r1 = run(sc)
    r2 = run(sc)
    np.testing.assert_array_equal(r1.estimates, r2.estimates)
    assert r1.n_converged + r1.n_failed_fits == 6
    assert r1.param_names == ("beta0", "beta1", "beta2", "tau")
    assert r1.estimates.shape[1] == 4
    assert np.all(np.abs(r1.mean - TRUE.to_array()) < 0.5)
    txt = r1.table()
    assert "Mean" in txt and "Coverage normal CI" in txt


def test_run_single_replication_has_no_sd():
    rep = run(scenario(replications=1))
    assert rep.sd is None
    assert "S.D." not in rep.table()


def test_table_shows_a_row_exactly_when_its_statistic_is_set():
    rep = run(scenario(replications=2, bootstrap_B=200))
    labels = [("True", "true"), ("Mean", "mean"), ("Median", "median"), ("S.D.", "sd"),
              ("Avg s.e. (asymptotic)", "avg_se_prop1"), ("Avg s.e. (delta)", "avg_se_delta"),
              ("Coverage normal CI (%)", "coverage_normal_pct"),
              ("Coverage bootstrap CI (%)", "coverage_bootstrap_pct")]
    for r in (rep, dataclasses.replace(rep, sd=None, coverage_bootstrap_pct=None)):
        lines = [line.strip() for line in r.table().splitlines()]
        for label, field in labels:
            shown = [line for line in lines if line.startswith(label + " ")]
            assert len(shown) == (getattr(r, field) is not None), (label, lines)


def test_scenario_validation():
    with pytest.raises(DomainError):
        scenario(replications=0)
    with pytest.raises(DomainError):
        scenario(true_params=ParamVector(2.0, 3.0, -5.0, 5.0))  # bend outside x


def test_qq_export_normal_estimates_pass_ks():
    rep = run(scenario(n=300, replications=60, seed=3))
    rows = qq_export(rep)
    names = {r[0] for r in rows}
    assert names == set(rep.param_names)
    tau_std = np.array([r[2] for r in rows if r[0] == "tau"])
    assert kstest(tau_std, "norm").pvalue > 0.01


def test_qq_export_error_paths():
    rep = run(scenario(replications=5))
    with pytest.raises(DataError):
        qq_export(rep)
    big = run(scenario(replications=12, seed=4))
    frozen = type(big)(**{
        **big.__dict__,
        "estimates": np.tile(big.estimates[:1], (12, 1)),
    })
    with pytest.raises(DataError):
        qq_export(frozen)


def test_load_scenario_round_trip(tmp_path):
    p = tmp_path / "s.scenario"
    p.write_text(
        "schema_version = 1\n"
        "# comment line\n"
        "family = logit\n"
        "form = linear-linear\n"
        "kernel = normal-cdf\n"
        "bandwidth = n^-3\n"
        "n = 500\n"
        "replications = 4\n"
        "x_lo = -2\n"
        "x_hi = 2\n"
        "beta0 = 2\nbeta1 = 3\nbeta2 = -5\ntau = 0.5\n"
        "gamma = 0.4, -0.2\n"
        "tau_grid = 0.2, 0.5, 0.8\n"
        "seed = 9\n"
    )
    sc = load_scenario(p)
    assert sc.family == "logit"
    assert sc.true_params == ParamVector(2.0, 3.0, -5.0, 0.5, (0.4, -0.2))
    assert sc.tau_grid == (0.2, 0.5, 0.8)
    assert sc.n == 500 and sc.replications == 4 and sc.seed == 9


def test_load_scenario_error_messages(tmp_path):
    missing = tmp_path / "m.scenario"
    missing.write_text("family = normal\nn = 100\nreplications = 2\n")
    with pytest.raises(DataError):
        load_scenario(missing)
    unknown = tmp_path / "u.scenario"
    unknown.write_text(
        "family = normal\nn = 100\nreplications = 2\n"
        "beta0 = 2\nbeta1 = 3\nbeta2 = -5\ntau = 0.5\nbananas = 1\n"
    )
    with pytest.raises(DataError):
        load_scenario(unknown)
    malformed = tmp_path / "b.scenario"
    malformed.write_text("family normal\n")
    with pytest.raises(DataError):
        load_scenario(malformed)


def test_shipped_scenarios_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    for name in ("table1.scenario", "table2.scenario", "smoke.scenario"):
        sc = load_scenario(root / name)
        assert sc.n >= 200
