"""Profile initialization, Newton ascent, fixed-bend GLM fits."""
import numpy as np
import pytest

from kinkfit import estimator
from kinkfit.errors import DataError, IdentifiabilityError, KinkfitError
from kinkfit.estimator import (
    fit,
    fit_beta_given_tau,
    glm_irls,
    linearized_fit,
    profile_init,
)
from kinkfit.families import Family
from kinkfit.kernels import bandwidth
from kinkfit.model import Dataset, ParamVector, evaluate, indicator_segment, objective

from conftest import TRUE, make_data, make_spec

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


@pytest.mark.filterwarnings("ignore:overflow encountered")
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
    rows = estimator.objective_rows

    def counted(spec, params, *args):
        trials.append(np.linalg.norm(params - opt.params.to_array()))
        return rows(spec, params, *args)

    monkeypatch.setattr(estimator, "objective_rows", counted)
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


def test_glm_irls_matches_logistic_score_equation():
    rng = np.random.default_rng(12)
    X = np.column_stack([np.ones(400), rng.standard_normal(400)])
    p = 1 / (1 + np.exp(-(0.5 + 1.2 * X[:, 1])))
    y = (rng.random(400) < p).astype(float)
    beta, _ = glm_irls(Family.BERNOULLI_LOGIT, X, y)
    mu = 1 / (1 + np.exp(-(X @ beta)))
    np.testing.assert_allclose(X.T @ (y - mu), 0.0, atol=1e-6)


def test_linearized_fit_agrees_at_the_optimum():
    # at tau0 = tau_hat the auxiliary coefficient must be ~0, so the
    # one-step update stays put
    spec = make_spec()
    data = make_data(spec, n=500, seed=13)
    res = fit(spec, data)
    lin = linearized_fit(spec, data, res.params.tau)
    assert lin.tau_hat == pytest.approx(res.params.tau, abs=5e-4)
    assert abs(lin.c_aux) < 5e-3
    np.testing.assert_allclose(lin.coef[:3],
                               res.params.to_array()[:3], atol=1e-3)


def test_linearized_fit_one_step_moves_toward_truth():
    spec = make_spec()
    data = make_data(spec, n=800, seed=14, noise=False)
    lin = linearized_fit(spec, data, tau0=0.55)
    assert abs(lin.tau_hat - 0.5) < abs(0.55 - 0.5)


def test_linearized_fit_rejects_degenerate_design():
    from kinkfit.errors import DegenerateDesignError
    spec = make_spec()
    data = make_data(spec, n=100, seed=15)
    # tau0 beyond every observation: segment and its derivative vanish
    with pytest.raises(DegenerateDesignError):
        linearized_fit(spec, data, tau0=data.x.max() + 5.0)
