"""The stacked Newton loop: every problem of a block gets what fit gives it
alone, bit for bit, whatever the other problems of the block do."""
import pathlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kinkfit.errors import KinkfitError, NumericError
from kinkfit.estimator import FitResult, fit, fit_stack, profile_init, rows_per_block
from kinkfit.families import Family, sample
from kinkfit.model import Dataset, ParamVector, evaluate, indicator_segment
from kinkfit.simulate import generate, load_scenario

from conftest import make_data, make_spec

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def stack(datasets):
    z = None if datasets[0].z is None else np.stack([d.z for d in datasets])
    return np.stack([d.x for d in datasets]), np.stack([d.y for d in datasets]), z


def assert_same_as_alone(entry, spec, data, start):
    """entry is what fit returns for data from start, or what it raises."""
    try:
        alone = fit(spec, data, init=start)
    except KinkfitError as exc:
        assert type(entry) is type(exc) and str(entry) == str(exc)
        return
    assert isinstance(entry, FitResult)
    assert entry.params == alone.params
    assert entry.objective_value == alone.objective_value
    assert entry.iterations == alone.iterations
    assert entry.converged == alone.converged
    assert entry.grad_norm == alone.grad_norm
    assert entry.h_used == alone.h_used
    np.testing.assert_array_equal(entry.neg_hessian_at_opt, alone.neg_hessian_at_opt)
    np.testing.assert_array_equal(entry.score_cov_at_opt, alone.score_cov_at_opt)


@pytest.mark.parametrize("name", ["table1", "table2"])
def test_replicate_block_matches_single_fits(name):
    sc = replace(load_scenario(SCENARIOS / f"{name}.scenario"), seed=1)
    spec = sc.model_spec()
    assert rows_per_block(sc.n) == 32
    datasets = [generate(sc, r) for r in range(32)]
    starts = [profile_init(spec, d) for d in datasets]
    entries = fit_stack(spec, *stack(datasets), starts)
    assert len(entries) == 32
    for entry, data, start in zip(entries, datasets, starts):
        assert_same_as_alone(entry, spec, data, start)


def test_bootstrap_block_matches_single_fits():
    sc = load_scenario(SCENARIOS / "table1.scenario")
    spec = sc.model_spec()
    data = generate(sc, 0)
    est = fit(spec, data).params
    rng = np.random.default_rng(3)
    idx = rng.integers(0, data.n, (32, data.n))
    entries = fit_stack(spec, data.x[idx], data.y[idx], None, [est] * 32)
    for entry, rows in zip(entries, idx):
        assert_same_as_alone(entry, spec, data.take(rows), est)


def test_failing_rows_leave_the_others_unchanged():
    # Poisson, quadratic-linear, n = 400.  Row 0 starts so far below the
    # data that its first full steps overflow exp(theta) and are halved;
    # it runs all 100 iterations.  Row 1 has x on two values, so the design
    # is rank deficient.  Row 2 overflows at its start (NumericError).  The
    # other rows are ordinary warm-started fits.
    spec = make_spec(family=Family.POISSON_LOG, form="quadratic-linear")
    truth = ParamVector(1.0, 0.5, -0.4, 0.3)
    datasets = [make_data(spec, params=truth, n=400, seed=s) for s in range(6)]
    rng = np.random.default_rng(1)
    x = 2.0 * rng.integers(0, 2, 400) - 1.0
    theta = 1.0 + 0.5 * x - 0.4 * indicator_segment(spec.form, x, 0.3)
    datasets[1] = Dataset(x=x, y=sample(Family.POISSON_LOG, theta, rng))
    starts = [ParamVector(-10.0, 0.5, -0.4, 0.3), truth, ParamVector(800.0, 0.5, -0.4, 0.3),
              truth, truth, truth]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        entries = fit_stack(spec, *stack(datasets), starts)
        for entry, data, start in zip(entries, datasets, starts):
            assert_same_as_alone(entry, spec, data, start)
    assert entries[0].iterations == 100 and not entries[0].converged
    assert isinstance(entries[1], FitResult) and not entries[1].converged
    assert isinstance(entries[2], KinkfitError)
    assert all(e.converged for e in entries[3:])


def test_singular_newton_system_in_a_block():
    # The rank-deficient start of
    # test_estimator.py::test_singular_newton_system_is_a_convergence_error,
    # stacked with ordinary problems of the same size and one covariate.
    spec = make_spec(form="linear-quadratic", bandwidth="n^-1", n_covariates=1)
    rng = np.random.default_rng(613)
    u = rng.integers(0, 2, 37).astype(float)
    z = rng.standard_normal((37, 1))
    theta = 0.5 + u - 1.5 * indicator_segment(spec.form, u, 0.25) + 0.5 * z[:, 0]
    singular = Dataset(x=20.0 * u - 10.0, y=theta + rng.standard_normal(37), z=z)
    start = ParamVector.from_array([float.fromhex(v) for v in (
        "0x1.62b9d53fe66b4p-2", "0x1.54c152bcc8df7p-8", "0x1.c994d09a573b9p-10",
        "-0x1.4ccccccccccf0p+2", "0x1.41d1cf5f5b583p-2")])
    params = ParamVector(2.0, 3.0, -5.0, 0.5, (1.0,))
    datasets = [make_data(spec, params=params, n=37, seed=s) for s in range(3)]
    datasets.insert(1, singular)
    starts = [params, start, params, params]
    entries = fit_stack(spec, *stack(datasets), starts)
    for entry, data, st in zip(entries, datasets, starts):
        assert_same_as_alone(entry, spec, data, st)
    assert str(entries[1]) == "singular Newton system"
    assert all(entries[g].converged for g in (0, 2, 3))


def test_non_finite_curvature_after_an_accepted_step():
    # Fixed h = 1e-308: (tau, tau) entries of J carry 1/h for every
    # observation in the kernel window.  Row 1 starts with no observation
    # in the window, so its start evaluates finite; its first accepted step
    # projects tau onto x(n-1), where the curvature overflows while the
    # objective stays finite.  fit alone raises NumericError there.
    spec = make_spec(bandwidth="fixed:1e-308")
    truth = ParamVector(0.0, 1.0, -3.0, 0.2)
    datasets = [make_data(spec, params=truth, n=20, seed=s, x_lo=-0.5, x_hi=0.5)
                for s in range(3)]
    bad = ParamVector(0.2, 1.8, -2.3, 0.4)
    starts = [truth, bad, truth]
    evaluate(spec, bad, datasets[1], 1e-308)  # finite at the start
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        entries = fit_stack(spec, *stack(datasets), starts)
        for entry, data, start in zip(entries, datasets, starts):
            assert_same_as_alone(entry, spec, data, start)
        with pytest.raises(NumericError):
            fit(spec, datasets[1], init=bad)
    assert isinstance(entries[1], NumericError)
    assert all(isinstance(entries[g], FitResult) for g in (0, 2))
