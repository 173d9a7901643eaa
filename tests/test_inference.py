"""Covariance estimates, delta-method SE, stratified bootstrap."""
from pathlib import Path

import numpy as np
import pytest

import kinkfit.inference as inf
from kinkfit import simulate
from kinkfit.errors import BootstrapError, DomainError, InferenceError, KinkfitError
from kinkfit.estimator import fit, glm_irls
from kinkfit.families import Family
from kinkfit.inference import bootstrap_ci, run_inference, sandwich_cov
from kinkfit.kernels import bandwidth
from kinkfit.model import Dataset, ParamVector, design, indicator_segment, segment_term

from conftest import make_data, make_spec, take


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
def test_covariance_of_near_singular_information_is_an_inference_error(seed):
    # Found by fuzzing small datasets: with x in the hundreds the fit ends
    # with an information matrix of condition number about 1e33.  Whether
    # its Cholesky factor exists depends on the last bits of the fit; an
    # inverse of either would be round-off, so both outcomes must raise.
    spec = make_spec(family=Family.BERNOULLI_LOGIT, form="quadratic-linear")
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(-300.0, 300.0, 30), 1)
    y = (rng.random(30) < 0.3).astype(float)
    res = fit(spec, Dataset(x=x, y=y))
    assert res.converged and np.linalg.cond(res.score_cov_at_opt) > 1e30
    with pytest.raises(InferenceError):
        sandwich_cov(res)


@pytest.mark.parametrize("cond, ok", [(1e3, True), (1e12, True), (1e17, False), (1e20, False)])
def test_covariance_refuses_an_ill_conditioned_information(cond, ok):
    # A positive definite information with the given condition number,
    # whose Cholesky factor exists: the threshold alone decides.
    _, _, res = fitted(seed=2)
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    sig = (q * np.geomspace(1.0, 1.0 / cond, 4)) @ q.T
    np.linalg.cholesky(sig)
    ill = type(res)(**{**res.__dict__, "score_cov_at_opt": sig})
    if ok:
        np.testing.assert_allclose(sandwich_cov(ill) @ sig, np.eye(4), atol=1e-9 * cond)
    else:
        with pytest.raises(InferenceError, match="numerically singular"):
            sandwich_cov(ill)


@pytest.mark.parametrize("form, power", [("linear-linear", 1), ("quadratic-linear", 2)])
def test_covariance_of_rescaled_x_is_the_rescaled_covariance(form, power):
    # x in units 1e4 times smaller, bandwidth with it: the same fit, with
    # beta1 / s, beta2 / s**power and tau * s.  Its information spans about
    # 1e25 in scale, which the conditioning check must not read as
    # singularity.
    s, h = 1e4, 400.0 ** -2
    spec = make_spec(family=Family.BERNOULLI_LOGIT, form=form)
    data = make_data(spec, n=400, seed=2)
    res = fit(make_spec(family=Family.BERNOULLI_LOGIT, form=form, bandwidth=f"fixed:{h!r}"), data)
    spec_s = make_spec(family=Family.BERNOULLI_LOGIT, form=form, bandwidth=f"fixed:{h * s!r}")
    data_s = Dataset(x=data.x * s, y=data.y)
    res_s = fit(spec_s, data_s)
    assert res.converged and res_s.converged
    se = run_inference(spec_s, data_s, res_s).se
    scale = np.array([1.0, 1.0 / s, s ** -power, s])
    np.testing.assert_allclose(se, sandwich_cov(res).diagonal() ** 0.5 * scale, rtol=1e-7)


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
    res_p = fit(spec, take(data, perm), init=res.params)
    np.testing.assert_allclose(sandwich_cov(res_p), sandwich_cov(res),
                               rtol=1e-6, atol=1e-10)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("form", ["linear-linear", "quadratic-linear"])
def test_sandwich_cov_matches_the_triangular_inverse(family, form):
    # The reference inverts the Cholesky factor with LAPACK's dtrtri; the
    # gap is read in the correlation scale cov_ij / sqrt(cov_ii cov_jj).
    # The logit quadratic-linear information is badly scaled (condition
    # number 1e16, 3e5 in correlation form): inverting its raw factor by
    # LU left a gap of 1e-9.
    from scipy.linalg import lapack

    spec = make_spec(family=family, form=form, n_covariates=2)
    params = ParamVector(0.5, 1.0, -1.5, 0.5, (0.3, -0.2))
    res = fit(spec, make_data(spec, params=params, n=400, seed=2))
    L_inv = lapack.dtrtri(np.linalg.cholesky(res.score_cov_at_opt), lower=1)[0]
    ref = L_inv.T @ L_inv
    s = np.sqrt(np.diag(ref))
    assert np.max(np.abs(sandwich_cov(res) - ref) / np.outer(s, s)) <= 1e-14


def test_z_matches_scipy_norm_ppf():
    from scipy.stats import norm

    levels = np.concatenate([np.linspace(0.5, 0.999999, 10_001), [0.8, 0.9, 0.99]])
    z = [inf._z(level) for level in levels]
    np.testing.assert_allclose(z, norm.ppf(0.5 + levels / 2.0), rtol=1e-15, atol=0)


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

    monkeypatch.setattr(inf, "fit_stack", broken)
    with pytest.raises(TypeError):
        bootstrap_ci(spec, data, res, B=200)
    monkeypatch.setattr(inf, "sandwich_cov", broken)
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
    assert out.cov.shape == (4, 4)
    np.testing.assert_allclose(out.se, np.sqrt(np.diag(out.cov)))
    est = res.params.to_array()
    np.testing.assert_allclose(out.ci_normal[:, 0],
                               est - 1.96 * out.se, rtol=1e-12)
    np.testing.assert_allclose(out.ci_normal[:, 1],
                               est + 1.96 * out.se, rtol=1e-12)
    assert out.ci_bootstrap.shape == (4, 2)
    assert out.bootstrap_reps_used <= 200
    assert out.level == 0.95


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, np.nan])
def test_level_outside_the_unit_interval_is_a_domain_error(level):
    spec, data, res = fitted(seed=9, n=300)
    with pytest.raises(DomainError):
        run_inference(spec, data, res, level=level)
    with pytest.raises(DomainError):
        bootstrap_ci(spec, data, res, B=200, level=level)


def test_run_inference_without_bootstrap():
    spec, data, res = fitted(seed=9, n=300)
    out = run_inference(spec, data, res)
    assert out.ci_bootstrap is None
    assert out.bootstrap_reps_used == 0



def bootstrap_by_take(spec, data, fit_result, B, seed):
    """Reference for bootstrap_ci: the same draws, each resample refit as
    its drawn rows themselves, one row per draw."""
    left = np.flatnonzero(data.x <= fit_result.params.tau)
    right = np.flatnonzero(data.x > fit_result.params.tau)
    draws = []
    for b in range(B):
        rng = np.random.default_rng([*seed, b])
        idx = np.concatenate([rng.choice(left, size=left.size, replace=True),
                              rng.choice(right, size=right.size, replace=True)])
        try:
            refit = fit(spec, take(data, idx), init=fit_result.params)
        except KinkfitError:
            continue
        if refit.converged:
            draws.append(refit.params.to_array())
    return inf._percentile_interval(np.asarray(draws), 0.95), len(draws)


def linearized_delta_se(spec, data, tau0):
    """Reference for the delta route: the standard errors of the GLM
    linearized at tau0 (Muggeo 2003), in the constructed regressors
    u = seg(x, tau0) and v = -d seg/d tau, with the delta-method SE of
    tau0 - c/beta2 in tau's slot, c being v's coefficient.  At
    tau0 = tau_hat these are the inverse-information SEs, to the fit's
    convergence tolerance."""
    h = bandwidth(spec.bw, data.n)
    seg, d_tau, _ = segment_term(spec.form, data.x, tau0, h, spec.kernel)
    coef, info = glm_irls(spec.family, design(data, seg, -d_tau), data.y)
    cov = np.linalg.inv(info)
    se = np.sqrt(np.diag(cov))
    b2, c = coef[2], coef[3]
    grad = np.array([-1.0 / b2, c / b2**2])  # d tau_hat / d (c, beta2)
    se[3] = np.sqrt(grad @ cov[np.ix_([3, 2], [3, 2])] @ grad)
    return se


def study_samples(name, replicates):
    """(spec, data) of the first replicates of scenarios/<name>.scenario."""
    scenario = simulate.load_scenario(
        Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.scenario")
    spec = scenario.model_spec()
    return [(spec, simulate.generate(scenario, r)) for r in range(replicates)]


def table1_sample():
    return study_samples("table1", 1)[0]


def poisson_sample():
    # h = n^-1 keeps observations inside the smoothing window, so that the
    # intervals depend on h
    spec = make_spec(family=Family.POISSON_LOG, form="quadratic-linear",
                     bandwidth="n^-1", n_covariates=2)
    truth = ParamVector(1.0, 0.5, -0.4, 0.3, (0.3, -0.2))
    return spec, make_data(spec, params=truth, n=2000, seed=3)


def test_delta_se_is_the_linearized_glms():
    samples = study_samples("table1", 20) + study_samples("table2", 20) + [poisson_sample()]
    for spec, data in samples:
        res = fit(spec, data)
        out = run_inference(spec, data, res)
        np.testing.assert_allclose(out.se, linearized_delta_se(spec, data, res.params.tau),
                                   rtol=1e-4, atol=0)


@pytest.mark.parametrize("sample", [table1_sample, poisson_sample])
def test_bootstrap_matches_refitting_the_drawn_rows(sample):
    spec, data = sample()
    res = fit(spec, data)
    iv, used = bootstrap_ci(spec, data, res, B=200, seed=[4])
    ref, ref_used = bootstrap_by_take(spec, data, res, 200, [4])
    assert used == ref_used
    np.testing.assert_allclose(iv, ref, rtol=0, atol=1e-6)
