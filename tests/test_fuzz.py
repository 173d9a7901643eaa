"""Small, odd datasets: every failure is typed, every success finite."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinkfit.errors import KinkfitError
from kinkfit.estimator import fit
from kinkfit.families import Family, sample
from kinkfit.inference import run_inference
from kinkfit.model import Dataset, indicator_segment

from conftest import make_spec


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(list(Family)),
    form=st.sampled_from(["linear-linear", "linear-quadratic", "quadratic-linear"]),
    k=st.integers(0, 1),
    n=st.integers(6, 40),
    levels=st.integers(2, 40),
    scale=st.sampled_from([0.1, 1.0, 10.0, 100.0]),
    bandwidth=st.sampled_from(["n^-1", "n^-1.5", "n^-2", "n^-2.5", "n^-3"]),
    seed=st.integers(0, 2**32 - 1),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_and_inference_raise_typed_errors_or_return_finite_values(
        family, form, k, n, levels, scale, bandwidth, seed):
    # x is drawn from `levels` equally spaced values, so small level counts
    # give heavily tied x; the truth bends at a quarter of the x range.
    spec = make_spec(family=family, form=form, bandwidth=bandwidth, n_covariates=k)
    rng = np.random.default_rng(seed)
    u = rng.integers(0, levels, n) / (levels - 1)
    x = scale * (2.0 * u - 1.0)
    z = rng.standard_normal((n, k)) if k else None
    theta = 0.5 + u - 1.5 * indicator_segment(spec.form, u, 0.25)
    if k:
        theta = theta + 0.5 * z[:, 0]
    y = sample(family, theta, rng)
    try:
        res = fit(spec, Dataset(x=x, y=y, z=z))
        inf = run_inference(spec, Dataset(x=x, y=y, z=z), res)
    except KinkfitError:
        return
    assert np.all(np.isfinite(res.params.to_array()))
    assert np.all(np.isfinite(inf.se_sandwich))
    assert np.all(np.isfinite(inf.ci_normal))
    if inf.se_delta is not None:
        assert np.all(np.isfinite(inf.se_delta))
