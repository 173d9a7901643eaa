"""Profile initialization, Newton ascent, fixed-bend GLM fits."""
import numpy as np
import pytest
from scipy.special import expit

from kinkfit import estimator
from kinkfit.errors import DataError, IdentifiabilityError, KinkfitError
from kinkfit.estimator import (
    fit,
    fit_beta_given_tau,
    glm_irls,
    profile_init,
)
from kinkfit.families import Family
from kinkfit.kernels import bandwidth
from kinkfit.model import Dataset, ParamVector, evaluate, indicator_segment, objective

from conftest import COUNT_CASES, TRUE, fit_counted, make_counted, make_data, make_spec, take

GRID_WITH_TRUTH = tuple(np.round(np.linspace(0.1, 0.9, 17), 4))


def test_noise_free_recovery_is_exact_and_fast():
    spec = make_spec()
    data = make_data(spec, n=200, seed=1, noise=False)
    res = fit(spec, data, tau_grid=GRID_WITH_TRUTH)
    assert res.converged
    assert res.iterations <= 5
    est = res.params.to_array()
    np.testing.assert_allclose(est, TRUE.to_array(), atol=1e-7)


def test_profile_init_recovers_grid_point_truth():
    spec = make_spec()
    data = make_data(spec, n=300, seed=2, noise=False)
    init = profile_init(spec, data, tau_grid=GRID_WITH_TRUTH)
    assert init.tau == pytest.approx(0.5)
    np.testing.assert_allclose(
        [init.beta0, init.beta1, init.beta2], [2.0, 3.0, -5.0], atol=1e-8)


def test_profile_init_usually_lands_near_truth():
    spec = make_spec()
    hits = 0
    trials = 60
    for s in range(trials):
        data = make_data(spec, n=500, seed=1000 + s)
        init = profile_init(spec, data, tau_grid=GRID_WITH_TRUTH)
        if abs(init.tau - 0.5) <= 0.101:
            hits += 1
    assert hits >= int(0.95 * trials)


def test_flat_profile_raises_identifiability_error():
    spec = make_spec()
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-2, 2, 100))
    data = Dataset(x=x, y=2.0 + 3.0 * x)  # no bend at all, noise-free
    with pytest.raises(IdentifiabilityError):
        profile_init(spec, data)


def test_tau_grid_must_be_interior():
    spec = make_spec()
    data = make_data(spec, n=100, seed=4)
    with pytest.raises(DataError):
        profile_init(spec, data, tau_grid=(data.x.min(), 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tau_grid_must_be_finite(bad):
    # NaN fails both sides of the interior check, so it needs its own.
    spec = make_spec()
    data = make_data(spec, n=100, seed=4)
    with pytest.raises(DataError, match="finite"):
        profile_init(spec, data, tau_grid=(0.1, bad))


def test_fit_matches_indicator_glm_at_tiny_bandwidth():
    # with h ~ 1e-10 and tau frozen between two design points, the smoothed
    # fit and the hard-indicator GLM are the same problem
    spec = make_spec(family=Family.BERNOULLI_LOGIT, bandwidth="fixed:1e-10")
    data = make_data(spec, n=300, seed=5)
    xs = np.sort(data.x)
    i = np.searchsorted(xs, 0.5)
    tau = 0.5 * (xs[i - 1] + xs[i])  # midpoint of a gap, no point within h
    beta_s = fit_beta_given_tau(spec, data, tau, 1e-10)
    X = np.column_stack([np.ones(data.n), data.x,
                         indicator_segment(spec.form, data.x, tau)])
    beta_h, _ = glm_irls(spec.family, X, data.y)
    np.testing.assert_allclose(beta_s, beta_h, atol=1e-8)


def test_fit_is_deterministic():
    spec = make_spec()
    data = make_data(spec, n=400, seed=6)
    r1 = fit(spec, data)
    r2 = fit(spec, data)
    assert r1.params == r2.params
    assert r1.objective_value == r2.objective_value
    assert r1.iterations == r2.iterations


def test_fit_never_decreases_the_objective():
    spec = make_spec(family=Family.BERNOULLI_LOGIT, bandwidth="n^-3")
    data = make_data(spec, n=500, seed=7)
    h = bandwidth(spec.bw, data.n)
    init = profile_init(spec, data)
    res = fit(spec, data)
    assert res.converged
    assert res.objective_value >= objective(spec, init, data, h) - 1e-12
    assert res.objective_value == pytest.approx(
        objective(spec, res.params, data, h))

    # A warm start so far below the data that the first full Newton steps
    # overflow exp(theta): those trials must be halved, not raise.
    spec = make_spec(family=Family.POISSON_LOG, form="quadratic-linear")
    data = make_data(spec, params=ParamVector(1.0, 0.5, -0.4, 0.3), n=400, seed=0)
    h = bandwidth(spec.bw, data.n)
    init = ParamVector(-10.0, 0.5, -0.4, 0.3)
    res = fit(spec, data, init=init)
    assert res.objective_value >= objective(spec, init, data, h) - 1e-12
    assert res.objective_value == pytest.approx(
        objective(spec, res.params, data, h))


def test_singular_newton_system_is_a_convergence_error():
    # Found by tests/test_fuzz.py: x takes two values, so the linear-
    # quadratic design is rank deficient.  From this start the negative
    # Hessian passes the Cholesky test, but the LU solve of the Newton
    # step meets an exact zero pivot; that was a raw LinAlgError.
    spec = make_spec(form="linear-quadratic", bandwidth="n^-1", n_covariates=1)
    rng = np.random.default_rng(613)
    u = rng.integers(0, 2, 37).astype(float)
    z = rng.standard_normal((37, 1))
    theta = 0.5 + u - 1.5 * indicator_segment(spec.form, u, 0.25) + 0.5 * z[:, 0]
    data = Dataset(x=20.0 * u - 10.0, y=theta + rng.standard_normal(37), z=z)
    init = ParamVector.from_array([float.fromhex(v) for v in (
        "0x1.62b9d53fe66b4p-2", "0x1.54c152bcc8df7p-8", "0x1.c994d09a573b9p-10",
        "-0x1.4ccccccccccf0p+2", "0x1.41d1cf5f5b583p-2")])
    try:
        res = fit(spec, data, init=init)
    except KinkfitError:
        return
    assert np.all(np.isfinite(res.params.to_array()))


@pytest.mark.parametrize("max_iter", [100, 1])
def test_fit_result_describes_the_returned_params(max_iter, monkeypatch):
    # The gradient norm and both curvature matrices are those of the
    # returned point, also when the iteration limit stops the fit.
    monkeypatch.setattr(estimator, "_NEWTON_MAX_ITER", max_iter)
    spec = make_spec(family=Family.BERNOULLI_LOGIT, bandwidth="n^-3")
    data = make_data(spec, n=500, seed=7)
    h = bandwidth(spec.bw, data.n)
    res = fit(spec, data)
    assert res.iterations <= max_iter
    assert res.converged == (max_iter == 100)
    q, S, J, Sig = evaluate(spec, res.params, data, h)
    assert q == objective(spec, res.params, data, h)
    assert res.objective_value == q
    assert res.grad_norm == np.max(np.abs(S))
    np.testing.assert_array_equal(res.neg_hessian_at_opt, J)
    np.testing.assert_array_equal(res.score_cov_at_opt, Sig)


def test_fit_keeps_tau_interior():
    spec = make_spec()
    data = make_data(spec, n=300, seed=8)
    res = fit(spec, data)
    xs = np.sort(data.x)
    assert xs[1] < res.params.tau < xs[-2]


def test_fit_accepts_warm_start():
    spec = make_spec()
    data = make_data(spec, n=300, seed=9)
    cold = fit(spec, data)
    warm = fit(spec, data, init=cold.params)
    assert warm.converged
    assert warm.iterations <= cold.iterations
    np.testing.assert_allclose(
        warm.params.to_array(), cold.params.to_array(), atol=1e-6)


def test_stationary_start_still_tries_the_full_step(monkeypatch):
    # At an optimum the Newton step is shorter than the tolerance.  The
    # full step is still tried once; only the halvings below the tolerance
    # are skipped.
    spec = make_spec()
    data = make_data(spec, n=300, seed=9)
    opt = fit(spec, data)
    trials = []
    rows = estimator.value_rows

    def counted(spec, params, *args):
        trials.append(np.linalg.norm(params - opt.params.to_array()))
        return rows(spec, params, *args)

    monkeypatch.setattr(estimator, "value_rows", counted)
    again = fit(spec, data, init=opt.params)
    assert again.converged and again.iterations == 1
    assert len(trials) >= 1 and trials[0] < 1e-5


def test_fit_with_covariates_recovers_truth():
    spec = make_spec(n_covariates=2)
    params = ParamVector(2.0, 3.0, -5.0, 0.5, (1.0, -0.7))
    data = make_data(spec, params=params, n=800, seed=10)
    res = fit(spec, data)
    assert res.converged
    est = res.params.to_array()
    np.testing.assert_allclose(est, params.to_array(), atol=0.35)


def test_glm_irls_matches_lstsq_for_normal():
    rng = np.random.default_rng(11)
    X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
    y = X @ np.array([1.0, 2.0, -1.0]) + 0.1 * rng.standard_normal(50)
    beta, gram = glm_irls(Family.NORMAL_IDENTITY, X, y)
    ref, *_ = np.linalg.lstsq(X, y, rcond=None)
    np.testing.assert_allclose(beta, ref, atol=1e-8)
    np.testing.assert_allclose(gram, X.T @ X, atol=1e-8)


def test_glm_irls_normal_is_exact_beyond_the_coefficient_bound():
    # The |b| <= 1e8 bound is for the logit and Poisson iterations only: a
    # normal fit with coefficients far past it is still one exact solve.
    rng = np.random.default_rng(16)
    X = np.column_stack([np.ones(60), rng.uniform(0.0, 10.0, 60)])
    y = X @ np.array([2e9, 8e8]) + rng.standard_normal(60)
    beta, _ = glm_irls(Family.NORMAL_IDENTITY, X, y)
    assert np.abs(beta).min() > 1e8
    ref, *_ = np.linalg.lstsq(X, y, rcond=None)
    np.testing.assert_allclose(beta, ref, rtol=1e-10)


def test_glm_irls_converges_with_a_poisson_mean_below_exp_minus_709():
    # The mean falls steeply over a wide x range: at the MLE, eta is below
    # -709 at the far points, where y = 0.  The fit must still converge.
    rng = np.random.default_rng(41)
    x = np.concatenate([rng.uniform(0.0, 30.0, 150), rng.uniform(30.0, 5000.0, 50)])
    y = rng.poisson(np.exp(3.0 - 0.2 * x)).astype(float)
    X = np.column_stack([np.ones_like(x), x])
    beta, _ = glm_irls(Family.POISSON_LOG, X, y)
    eta = X @ beta
    assert eta.min() < -709.0
    np.testing.assert_allclose(X.T @ (y - np.exp(eta)), 0.0, atol=1e-8)


@pytest.mark.parametrize("far", [1e4, -1e4])
def test_glm_irls_converges_with_a_far_out_logit_x(far):
    # One x far out in the tail, correctly predicted: its eta at the MLE is
    # about 1.7e4 in size, and the other points still pin the coefficients.
    rng = np.random.default_rng(42)
    x = rng.standard_normal(300)
    x[0] = far
    y = (rng.random(300) < expit(0.5 + 1.5 * x)).astype(float)
    X = np.column_stack([np.ones_like(x), x])
    beta, _ = glm_irls(Family.BERNOULLI_LOGIT, X, y)
    eta = X @ beta
    assert abs(eta[0]) > 1e4 and y[0] == (far > 0)
    np.testing.assert_allclose(X.T @ (y - expit(eta)), 0.0, atol=1e-8)


def test_glm_irls_matches_logistic_score_equation():
    rng = np.random.default_rng(12)
    X = np.column_stack([np.ones(400), rng.standard_normal(400)])
    p = 1 / (1 + np.exp(-(0.5 + 1.2 * X[:, 1])))
    y = (rng.random(400) < p).astype(float)
    beta, _ = glm_irls(Family.BERNOULLI_LOGIT, X, y)
    mu = 1 / (1 + np.exp(-(X @ beta)))
    np.testing.assert_allclose(X.T @ (y - mu), 0.0, atol=1e-6)


def test_second_extremes_are_those_of_the_expansion():
    # small integer x values, so that rows tie, at the extremes too; then
    # the same x with counts from 0, the rows at the smallest and the
    # largest x counting 0, 1, or 2 and more.  A row counting 0 stands for
    # no observation.
    rng = np.random.default_rng(21)
    rows = np.arange(3)

    def check(x, c):
        lo, hi = estimator._second_extremes(x, c)
        for g in range(3):
            xs = np.sort(np.repeat(x[g], c[g]))
            if xs.size >= 2:
                assert (lo[g], hi[g]) == (xs[1], xs[-2])

    for _ in range(300):
        n = int(rng.integers(1, 8))
        x = rng.integers(0, 4, (3, n)).astype(float)
        check(x, rng.integers(1 if n > 1 else 2, 4, (3, n)))
        for ends in ((0, 0), (0, 1), (1, 0), (0, 3), (2, 0), (1, 2), (3, 1)):
            c = rng.integers(0, 4, (3, n))
            c[rows, x.argmin(axis=1)] = ends[0]
            c[rows, x.argmax(axis=1)] = ends[1]
            check(x, c)
        if n > 1:  # uncounted: every row counts once
            lo, hi = estimator._second_extremes(x, None)
            for g in range(3):
                xs = np.sort(x[g])
                assert (lo[g], hi[g]) == (xs[1], xs[-2])


@pytest.mark.parametrize("end_counts, tie", COUNT_CASES)
def test_counted_fit_starts_at_the_expansions_bounds(end_counts, tie, monkeypatch):
    # No Newton iteration: fit returns its start, tau clipped into
    # [x(2), x(N-1)] of the N observations.
    monkeypatch.setattr(estimator, "_NEWTON_MAX_ITER", 0)
    spec = make_spec()
    rows, c, expanded = make_counted(make_data(spec, n=60, seed=3), 4, end_counts, tie)
    xs = np.sort(expanded.x)
    for tau, bound in ((xs[0] - 1.0, xs[1]), (xs[-1] + 1.0, xs[-2])):
        init = ParamVector(2.0, 3.0, -5.0, tau)
        a, b = fit_counted(spec, rows, c, init), fit(spec, expanded, init=init)
        assert a.params.tau == b.params.tau == bound
        assert a.objective_value == pytest.approx(b.objective_value, rel=1e-12)
        assert a.h_used == b.h_used


@pytest.mark.parametrize("end_counts, tie", COUNT_CASES)
@pytest.mark.parametrize("model", ["normal", "poisson"])
def test_counted_fit_matches_its_expansion(model, end_counts, tie):
    if model == "normal":
        spec, truth = make_spec(), TRUE
    else:
        spec = make_spec(family=Family.POISSON_LOG, form="quadratic-linear", n_covariates=2)
        truth = ParamVector(1.0, 0.5, -0.4, 0.3, (0.3, -0.2))
    data = make_data(spec, params=truth, n=300, seed=17)
    rows, c, expanded = make_counted(data, 6, end_counts, tie)
    init = fit(spec, data).params
    a, b = fit_counted(spec, rows, c, init), fit(spec, expanded, init=init)
    assert a.converged and b.converged
    assert a.h_used == b.h_used == bandwidth(spec.bw, expanded.n)
    np.testing.assert_allclose(a.params.to_array(), b.params.to_array(), rtol=0, atol=1e-8)


def test_counted_fit_tests_the_gradient_against_all_observations():
    # 60 rows of 50 observations each.  A start just off the optimum has
    # max|score| about 0.008: below _TOL * 3000 = 0.03, so the first step,
    # far below _TOL, ends the fit, but above _TOL * 60.
    spec = make_spec()
    data = make_data(spec, n=60, seed=19)
    expanded = take(data, np.repeat(np.arange(data.n), 50))
    opt = fit(spec, expanded, init=fit(spec, data).params).params.to_array()
    start = ParamVector.from_array(opt + [0.005 / 3000, 0.0, 0.0, 0.0])
    a, b = fit_counted(spec, data, np.full(data.n, 50), start), fit(spec, expanded, init=start)
    assert a.converged and b.converged
    assert a.iterations == b.iterations == 1
