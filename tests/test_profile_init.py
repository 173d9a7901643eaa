"""The stacked profile scan against the per-candidate loop it replaced."""
import numpy as np
import pytest

from kinkfit import estimator
from kinkfit.errors import ConvergenceError, InitializationError
from kinkfit.estimator import glm_irls, profile_init
from kinkfit.families import Family
from kinkfit.kernels import bandwidth
from kinkfit.model import Dataset, ParamVector, design, indicator_segment, objective

from conftest import make_data, make_spec
from hinge_mle import gap_midpoints
from test_hinge_mle import small_logit_data

FORMS = ["linear-linear", "linear-quadratic", "quadratic-linear"]
TRUTH = {
    Family.NORMAL_IDENTITY: ParamVector(2.0, 3.0, -5.0, 0.5, (0.7,)),
    Family.BERNOULLI_LOGIT: ParamVector(2.0, 3.0, -5.0, 0.5, (0.7,)),
    Family.POISSON_LOG: ParamVector(1.0, 0.5, -0.4, 0.3, (0.3,)),
}


def reference_profile(spec, data, grid):
    """One glm_irls fit and one objective call per candidate, in sorted
    order; a candidate whose IRLS fails is skipped.  Returns (tau, coef)
    of the winner, coef ordered (beta0, beta1, beta2, gamma...)."""
    h = bandwidth(spec.bw, data.n)
    best_q, best = -np.inf, None
    for tau in np.sort(grid):
        X = design(data, indicator_segment(spec.form, data.x, tau))
        try:
            beta, _ = glm_irls(spec.family, X, data.y)
        except ConvergenceError:
            continue
        b2 = beta[2] if beta[2] != 0.0 else 1e-10
        q = objective(spec, ParamVector(beta[0], beta[1], b2, float(tau), tuple(beta[3:])),
                      data, h)
        if q > best_q:
            best_q, best = q, (float(tau), beta)
    if best is None:
        raise InitializationError("every candidate failed")
    return best


def assert_same_winner(spec, data, grid):
    tau, coef = reference_profile(spec, data, grid)
    init = profile_init(spec, data, tau_grid=tuple(grid))
    assert init.tau == tau
    got = np.delete(init.to_array(), 3)
    np.testing.assert_allclose(got, coef, rtol=0, atol=1e-10)


def edge_grid(x, inner=15):
    """Quantile candidates plus the outermost gap midpoints, where one
    point sits alone on its side of the bend."""
    mids = gap_midpoints(x)
    inner_taus = np.quantile(x, np.linspace(0.1, 0.9, inner))
    return np.concatenate([mids[[0, 1, -2, -1]], inner_taus])


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("family", list(Family))
def test_stacked_profile_matches_the_per_candidate_loop(family, form, k):
    spec = make_spec(family=family, form=form, n_covariates=k,
                     bandwidth="n^-3" if family is Family.BERNOULLI_LOGIT else "n^-2")
    p = TRUTH[family]
    params = ParamVector(p.beta0, p.beta1, p.beta2, p.tau, p.gamma[:k])
    data = make_data(spec, params=params, n=300, seed=31)
    assert_same_winner(spec, data, edge_grid(data.x))


def test_separated_logit_candidates_are_dropped_alone():
    # The sample of test_hinge_mle, whose outermost gap midpoints leave one
    # point alone on its side of the bend: glm_irls raises there.
    x, y = small_logit_data()
    spec = make_spec(family=Family.BERNOULLI_LOGIT, bandwidth="n^-3")
    assert_same_winner(spec, Dataset(x=x, y=y), edge_grid(x, inner=5))


def test_singular_normal_candidate_is_dropped_alone():
    # x takes four tied values and z equals the segment column at 2.5, so
    # that candidate's normal equations are exactly singular; the others
    # are not.
    x = np.repeat([0.0, 1.0, 2.0, 3.0], 4)
    z = indicator_segment(make_spec().form, x, 2.5)[:, None]
    y = np.random.default_rng(3).normal(1.0 + x - 2.0 * np.maximum(x - 1.5, 0.0), 0.3)
    data = Dataset(x=x, y=y, z=z)
    spec = make_spec(n_covariates=1)
    with pytest.raises(ConvergenceError):
        glm_irls(spec.family, design(data, indicator_segment(spec.form, x, 2.5)), y)
    assert_same_winner(spec, data, [0.5, 1.5, 2.5])


def test_every_failed_candidate_is_an_initialization_error():
    # Two tied x values: the segment column is a multiple of x at every
    # candidate, so every normal system is singular.
    x = np.repeat([0.0, 1.0], 4)
    data = Dataset(x=x, y=np.arange(8.0))
    spec = make_spec()
    with pytest.raises(InitializationError):
        reference_profile(spec, data, [0.5, 0.75])
    with pytest.raises(InitializationError):
        profile_init(spec, data, tau_grid=(0.5, 0.75))


@pytest.mark.parametrize("family", list(Family))
def test_grid_split_into_several_blocks(family, monkeypatch):
    # At n = 2000 a block holds 8 candidates, so the 25 candidates take
    # four blocks, and the separated edge candidates share a block with
    # converging ones.  No stacked candidate x observation array may hold
    # more than 2^14 values.
    spec = make_spec(family=family, bandwidth="n^-3" if family is Family.BERNOULLI_LOGIT else "n^-2")
    p = TRUTH[family]
    data = make_data(spec, params=ParamVector(p.beta0, p.beta1, p.beta2, p.tau), n=2000, seed=32)
    blocks = []
    irls = estimator._irls

    def recording_irls(family, C, T, *args):
        blocks.append(T.shape[0])
        return irls(family, C, T, *args)

    grid = edge_grid(data.x, inner=21)
    monkeypatch.setattr(estimator, "_irls", recording_irls)
    profile_init(spec, data, tau_grid=tuple(grid))
    monkeypatch.undo()
    assert blocks == [8, 8, 8, 1]
    assert_same_winner(spec, data, grid)
