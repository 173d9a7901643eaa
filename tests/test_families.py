"""Exponential-family primitives: values, derivative relations, sampling."""
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit

from kinkfit.errors import DomainError
from kinkfit.families import (
    Family,
    cumulant,
    in_support,
    mean_variance,
    parse_family,
    sample,
)

ALL = [Family.NORMAL_IDENTITY, Family.BERNOULLI_LOGIT, Family.POISSON_LOG]

theta_grid = st.floats(-10.0, 10.0, allow_nan=False)


def test_known_values():
    assert cumulant(Family.NORMAL_IDENTITY, 3.0) == pytest.approx(4.5)
    assert cumulant(Family.BERNOULLI_LOGIT, 0.0) == pytest.approx(np.log(2.0))
    assert cumulant(Family.POISSON_LOG, 1.0) == pytest.approx(np.e)
    assert mean_variance(Family.NORMAL_IDENTITY, -2.5)[0] == pytest.approx(-2.5)
    assert mean_variance(Family.BERNOULLI_LOGIT, 0.0)[0] == pytest.approx(0.5)
    assert mean_variance(Family.POISSON_LOG, 0.0)[0] == pytest.approx(1.0)
    assert mean_variance(Family.NORMAL_IDENTITY, 7.0)[1] == pytest.approx(1.0)
    assert mean_variance(Family.BERNOULLI_LOGIT, 0.0)[1] == pytest.approx(0.25)
    assert mean_variance(Family.POISSON_LOG, 2.0)[1] == pytest.approx(np.exp(2.0))


def test_logit_cumulant_stable_in_tails():
    # naive log(1 + e^theta) overflows near 750; the stable form must not
    assert cumulant(Family.BERNOULLI_LOGIT, 800.0) == pytest.approx(800.0)
    assert cumulant(Family.BERNOULLI_LOGIT, -800.0) == pytest.approx(0.0, abs=1e-300)
    # moderate tail against the exact softplus identity
    expected = 50.0 + np.log1p(np.exp(-50.0))
    assert cumulant(Family.BERNOULLI_LOGIT, 50.0) == pytest.approx(expected, rel=1e-15)
    v = mean_variance(Family.BERNOULLI_LOGIT, 40.0)[1]
    assert v == pytest.approx(np.exp(-40.0), rel=1e-10)


def test_logit_mean_variance_matches_expit():
    # One exp pass against scipy's expit, to a few ulp, wherever neither
    # value is subnormal.
    theta = np.concatenate([np.linspace(-700.0, 700.0, 200_001), [-37.5, 0.0, 36.9, 40.0]])
    m, v = mean_variance(Family.BERNOULLI_LOGIT, theta)
    np.testing.assert_allclose(m, expit(theta), rtol=2e-15, atol=0)
    np.testing.assert_allclose(v, expit(theta) * expit(-theta), rtol=2e-15, atol=0)


def test_logit_mean_variance_in_the_far_tails():
    theta = np.array([-1e4, -800.0, -745.0, 745.0, 800.0, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, v = mean_variance(Family.BERNOULLI_LOGIT, theta)
        scalar = mean_variance(Family.BERNOULLI_LOGIT, -800.0)
    assert np.all(np.isfinite(m)) and np.all(np.isfinite(v))
    assert np.all((m >= 0.0) & (m <= 1.0)) and np.all(v >= 0.0)
    np.testing.assert_array_equal(m[3:], 1.0)
    assert m[:3].max() < 1e-300
    assert all(np.isfinite(part) for part in scalar)


def test_logit_sample_draws_against_expit():
    # Replicates keep their bits: a draw is exactly rng.random(...) < expit.
    theta = np.random.default_rng(3).normal(0.0, 4.0, (7, 300))
    y = sample(Family.BERNOULLI_LOGIT, theta, np.random.default_rng(11))
    ref = (np.random.default_rng(11).random(theta.shape) < expit(theta)).astype(float)
    np.testing.assert_array_equal(y, ref)


@pytest.mark.parametrize("family", ALL)
@given(theta=theta_grid)
def test_mean_is_cumulant_derivative(family, theta):
    eps = 1e-6
    fd = (cumulant(family, theta + eps) - cumulant(family, theta - eps)) / (2 * eps)
    assert mean_variance(family, theta)[0] == pytest.approx(fd, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("family", ALL)
@given(theta=theta_grid)
def test_variance_is_mean_derivative(family, theta):
    eps = 1e-6
    fd = (mean_variance(family, theta + eps)[0] - mean_variance(family, theta - eps)[0]) / (2 * eps)
    assert mean_variance(family, theta)[1] == pytest.approx(fd, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("family", ALL)
@given(theta=theta_grid)
def test_variance_nonnegative(family, theta):
    assert mean_variance(family, theta)[1] >= 0.0


@pytest.mark.parametrize("family", ALL)
def test_sampling_matches_moments(family):
    rng = np.random.default_rng(42)
    theta = np.full(100_000, 0.7)
    y = sample(family, theta, rng)
    m, v = mean_variance(family, 0.7)
    sd = np.sqrt(v / y.size)
    assert abs(y.mean() - m) < 4.0 * sd


def test_sampling_is_caller_seeded():
    a = sample(Family.NORMAL_IDENTITY, np.zeros(5), np.random.default_rng(1))
    b = sample(Family.NORMAL_IDENTITY, np.zeros(5), np.random.default_rng(1))
    np.testing.assert_array_equal(a, b)


def test_sampling_rejects_nonfinite_theta():
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            sample(Family.NORMAL_IDENTITY, np.array([0.0, bad]), np.random.default_rng(1))


def test_support_checks():
    def mask(family, y):
        return in_support(family, np.array(y)).tolist()

    assert mask(Family.BERNOULLI_LOGIT, [0.0, 1.0, 2.0, 0.5]) == [True, True, False, False]
    assert mask(Family.POISSON_LOG, [0.0, 3.0, 1.5, -1.0]) == [True, True, False, False]
    assert mask(Family.NORMAL_IDENTITY, [-2.3, 0.1, np.inf]) == [True, True, False]


def test_parse_family():
    assert parse_family("normal") is Family.NORMAL_IDENTITY
    assert parse_family("logit") is Family.BERNOULLI_LOGIT
    assert parse_family("poisson") is Family.POISSON_LOG
    with pytest.raises(DomainError):
        parse_family("gamma")
