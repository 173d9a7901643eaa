"""Covariance estimates, delta-method SE, stratified bootstrap."""
import numpy as np
import pytest

import kinkfit.inference as inf
from kinkfit.errors import BootstrapError, InferenceError
from kinkfit.estimator import LinearizedFit, fit, glm_irls, linearized_fit
from kinkfit.families import Family
from kinkfit.inference import (
    bootstrap_ci,
    delta_se_tau,
    run_inference,
    sandwich_cov,
)
from kinkfit.model import Dataset, ParamVector, indicator_segment

from conftest import make_data, make_spec


def fitted(seed=0, n=400, **spec_kw):
    spec = make_spec(**spec_kw)
    data = make_data(spec, n=n, seed=seed)
    return spec, data, fit(spec, data)


def test_covariance_matches_classical_glm_with_frozen_bend():
    # freezing tau, the information for (beta0, beta1, beta2) is the
    # weighted Gram of the indicator design; at a vanishing bandwidth the
    # smoothed model reproduces it, so the leading block of the covariance
    # must agree with the classical GLM covariance
    spec = make_spec(family=Family.BERNOULLI_LOGIT, bandwidth="fixed:1e-10")
    data = make_data(spec, n=500, seed=1)
    xs = np.sort(data.x)
    i = np.searchsorted(xs, 0.5)
    tau = 0.5 * (xs[i - 1] + xs[i])
    X = np.column_stack([np.ones(data.n), data.x,
                         indicator_segment(spec.form, data.x, tau)])
    beta, gram = glm_irls(spec.family, X, data.y)
    from kinkfit.model import evaluate
    params = ParamVector(beta[0], beta[1], beta[2], tau)
    Sig = evaluate(spec, params, data, 1e-10)[3]
    np.testing.assert_allclose(Sig[:3, :3], gram, rtol=1e-6)
    np.testing.assert_allclose(np.linalg.inv(Sig[:3, :3]),
                               np.linalg.inv(gram), rtol=1e-4)


def test_sandwich_cov_requires_convergence():
    spec, data, res = fitted(seed=2)
    assert res.converged
    cov = sandwich_cov(res)
    assert cov.shape == (4, 4)
    assert np.all(np.diag(cov) > 0)
    bad = type(res)(**{**res.__dict__, "converged": False})
    with pytest.raises(InferenceError):
        sandwich_cov(bad)


@pytest.mark.parametrize("seed", [5, 109])
def test_covariance_of_near_singular_information_has_nonnegative_variances(seed):
    # Found by fuzzing small datasets: with x in the hundreds the fit ends
    # with an information matrix of condition number about 1e34.  Its
    # Cholesky factor exists, but a general inverse raised LinAlgError
    # (seed 5) or gave negative variances (seed 109).
    spec = make_spec(family=Family.BERNOULLI_LOGIT, form="quadratic-linear")
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(-300.0, 300.0, 30), 1)
    y = (rng.random(30) < 0.3).astype(float)
    res = fit(spec, Dataset(x=x, y=y))
    assert res.converged and np.linalg.cond(res.score_cov_at_opt) > 1e30
    cov = sandwich_cov(res)
    assert np.all(np.isfinite(cov)) and np.all(np.diag(cov) >= 0)


def test_sandwich_cov_tracks_sampling_variance():
    # average estimated SE should sit near the Monte Carlo SD of the
    # estimates over independent replicates
    spec = make_spec()
    ests, ses = [], []
    for s in range(120):
        data = make_data(spec, n=500, seed=5000 + s)
        res = fit(spec, data)
        if not res.converged:
            continue
        ests.append(res.params.to_array())
        ses.append(np.sqrt(np.diag(sandwich_cov(res))))
    sd = np.std(np.asarray(ests), axis=0, ddof=1)
    avg_se = np.mean(np.asarray(ses), axis=0)
    assert np.all(np.abs(avg_se / sd - 1.0) < 0.25)


def test_covariance_invariant_under_permutation():
    spec, data, res = fitted(seed=3)
    perm = np.random.default_rng(0).permutation(data.n)
    res_p = fit(spec, data.take(perm), init=res.params)
    np.testing.assert_allclose(sandwich_cov(res_p), sandwich_cov(res),
                               rtol=1e-6, atol=1e-10)


def test_delta_se_closed_form_when_centered():
    # with c = 0 the gradient is (-1/b2, 0): se = se_c / |b2|
    cov = np.diag([0.04, 0.02, 0.09, 0.01])
    lin = LinearizedFit(tau0=0.5, coef=np.array([2.0, 3.0, -5.0, 0.0]),
                        cov=cov, h_used=1e-5)
    assert delta_se_tau(lin) == pytest.approx(np.sqrt(0.01) / 5.0)


def test_delta_se_uses_covariance_cross_term():
    cov = np.eye(4)
    cov[2, 3] = cov[3, 2] = 0.5
    lin = LinearizedFit(tau0=0.5, coef=np.array([2.0, 3.0, -5.0, 1.0]),
                        cov=cov, h_used=1e-5)
    b2, c = -5.0, 1.0
    g = np.array([-1.0 / b2, c / b2**2])
    expected = np.sqrt(g @ cov[np.ix_([3, 2], [3, 2])] @ g)
    assert delta_se_tau(lin) == pytest.approx(expected)


def test_delta_se_rejects_tiny_slope_change():
    lin = LinearizedFit(tau0=0.5, coef=np.array([2.0, 3.0, 1e-8, 0.0]),
                        cov=np.eye(4), h_used=1e-5)
    with pytest.raises(InferenceError):
        delta_se_tau(lin)


def test_percentile_interval_convention():
    draws = np.arange(1.0, 301.0).reshape(-1, 1)  # 1..300
    iv = inf._percentile_interval(draws, 0.95)
    # ceil(300 * 0.025) = 8, ceil(300 * 0.975) = 293 (1-based order stats)
    assert iv[0, 0] == 8.0
    assert iv[0, 1] == 293.0


def test_percentile_interval_sign_flip_equivariance():
    rng = np.random.default_rng(7)
    draws = rng.standard_normal((250, 2))
    iv = inf._percentile_interval(draws, 0.95)
    iv_neg = inf._percentile_interval(-draws, 0.95)
    np.testing.assert_allclose(iv_neg[:, 0], -iv[:, 1])
    np.testing.assert_allclose(iv_neg[:, 1], -iv[:, 0])


def test_bootstrap_requires_enough_replicates_and_strata():
    spec, data, res = fitted(seed=4, n=300)
    with pytest.raises(BootstrapError):
        bootstrap_ci(spec, data, res, B=100)
    # shove the change point next to the data edge so a stratum collapses
    lopsided = type(res)(**{
        **res.__dict__,
        "params": ParamVector(res.params.beta0, res.params.beta1,
                              res.params.beta2, np.sort(data.x)[1]),
    })
    with pytest.raises(BootstrapError):
        bootstrap_ci(spec, data, lopsided, B=200)


def test_programming_errors_propagate(monkeypatch):
    spec, data, res = fitted(seed=4, n=300)

    def broken(*args, **kwargs):
        raise TypeError("not a kinkfit failure")

    monkeypatch.setattr(inf, "fit", broken)
    with pytest.raises(TypeError):
        bootstrap_ci(spec, data, res, B=200)
    monkeypatch.setattr(inf, "linearized_fit", broken)
    with pytest.raises(TypeError):
        run_inference(spec, data, res)


def test_bootstrap_interval_is_deterministic_and_sane():
    spec, data, res = fitted(seed=5, n=300)
    iv1, used1 = bootstrap_ci(spec, data, res, B=200, seed=[9, 9])
    iv2, used2 = bootstrap_ci(spec, data, res, B=200, seed=[9, 9])
    np.testing.assert_array_equal(iv1, iv2)
    assert used1 == used2 <= 200
    est = res.params.to_array()
    assert np.all(iv1[:, 0] <= iv1[:, 1])
    # the point estimate should be inside its own bootstrap interval here
    assert np.all((est >= iv1[:, 0]) & (est <= iv1[:, 1]))


def test_bootstrap_collapses_on_noise_free_data():
    spec = make_spec()
    data = make_data(spec, n=200, seed=6, noise=False)
    res = fit(spec, data)
    iv, used = bootstrap_ci(spec, data, res, B=200, seed=[1])
    widths = iv[:, 1] - iv[:, 0]
    assert np.all(widths < 1e-6)
    assert np.all(np.abs(iv[:, 0] - res.params.to_array()) < 1e-6)


def test_run_inference_assembles_everything():
    spec, data, res = fitted(seed=8, n=300)
    out = run_inference(spec, data, res, bootstrap_B=200, seed=[2])
    assert out.cov_sandwich.shape == (4, 4)
    np.testing.assert_allclose(out.se_sandwich,
                               np.sqrt(np.diag(out.cov_sandwich)))
    est = res.params.to_array()
    np.testing.assert_allclose(out.ci_normal[:, 0],
                               est - 1.96 * out.se_sandwich, rtol=1e-12)
    np.testing.assert_allclose(out.ci_normal[:, 1],
                               est + 1.96 * out.se_sandwich, rtol=1e-12)
    assert out.se_delta is not None and out.se_delta.shape == (4,)
    lin = linearized_fit(spec, data, res.params.tau)
    assert out.se_delta[3] == pytest.approx(delta_se_tau(lin))
    assert out.ci_bootstrap.shape == (4, 2)
    assert out.bootstrap_reps_used <= 200
    assert out.level == 0.95


def test_run_inference_without_bootstrap():
    spec, data, res = fitted(seed=9, n=300)
    out = run_inference(spec, data, res)
    assert out.ci_bootstrap is None
    assert out.bootstrap_reps_used == 0

