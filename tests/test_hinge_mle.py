"""The exact hinge-logit MLE that criterion 2 uses as its reference."""
import numpy as np
import pytest
from scipy.special import expit

from kinkfit.errors import ConvergenceError
from kinkfit.estimator import glm_irls
from kinkfit.families import Family, cumulant

from hinge_mle import gap_midpoints, hinge_logit_mle, hinge_logit_profile


def small_logit_data(n=80, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, n)
    eta = 2.0 + 3.0 * x - 5.0 * np.maximum(x - 0.5, 0.0)
    return x, (rng.random(n) < expit(eta)).astype(float)


def test_profile_matches_glm_irls_at_every_candidate():
    x, y = small_logit_data()
    taus = gap_midpoints(x)
    coef, loglik, ok = hinge_logit_profile(x, y, taus)
    assert ok[10:-10].all()
    for tau, c, ll in zip(taus[ok], coef[ok], loglik[ok]):
        X = np.column_stack([np.ones_like(x), x, np.maximum(x - tau, 0.0)])
        beta, _ = glm_irls(Family.BERNOULLI_LOGIT, X, y)
        np.testing.assert_allclose(c, beta, rtol=0, atol=1e-8)
        eta = X @ beta
        assert abs(ll - np.sum(y * eta - cumulant(Family.BERNOULLI_LOGIT, eta))) < 1e-8


def test_diverging_edge_candidates_are_skipped():
    x, y = small_logit_data()
    taus = gap_midpoints(x)
    _, loglik, ok = hinge_logit_profile(x, y, taus)
    # The outermost gaps leave one point alone on its side of the bend, so
    # that point has a coefficient of its own, whose MLE is infinite.
    assert not ok[0] and not ok[-1]
    assert np.all(loglik[~ok] == -np.inf)
    est = hinge_logit_mle(x, y, edge=0)
    assert np.all(np.isfinite(est))
    assert est[3] == taus[np.argmax(loglik)]
    np.testing.assert_allclose(est[:3], hinge_logit_profile(x, y, est[3:])[0][0],
                               rtol=0, atol=1e-10)


def test_glm_irls_raises_at_the_separated_edge_candidates():
    # The same lone point as above: its coefficient runs off to infinity,
    # so the IRLS must report non-convergence, not return its last iterate.
    x, y = small_logit_data()
    for tau in gap_midpoints(x)[[0, -1]]:
        X = np.column_stack([np.ones_like(x), x, np.maximum(x - tau, 0.0)])
        with pytest.raises(ConvergenceError):
            glm_irls(Family.BERNOULLI_LOGIT, X, y)
