import numpy as np
import pytest

from sphgp import harmonics as H
from sphgp import kernels as K
from sphgp import vargp as V
from sphgp.gradcheck import check_gradients, worst_rows

import oracles
from conftest import exp_decay_spectrum, random_sphere


def make_problem(seed, likelihood, spec=None):
    rng = np.random.default_rng(seed)
    spec = spec or K.poly_decay_spectrum(1.8, 4, 3, variance=1.1)
    model = V.build_inducing_model(spec, phase_limit=2, seed=seed)
    state = V.init_state(model, likelihood)
    m = model.num_features
    state.mean = 0.4 * rng.standard_normal(m)
    L = np.tril(0.1 * rng.standard_normal((m, m)))
    np.fill_diagonal(L, np.exp(0.2 * rng.standard_normal(m) - 0.4))
    state.L = L
    state.log_variance = float(0.3 * rng.standard_normal())
    state.log_theta = float(np.log(spec.theta) + 0.2 * rng.standard_normal())
    X = random_sphere(rng, 11, 4)
    if likelihood.kind == "gaussian":
        y = rng.standard_normal(11)
    else:
        y = (rng.random(11) < 0.5).astype(float)
    return model, state, X, y


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gaussian_gradients_match_finite_differences(seed):
    lik = V.GaussianLikelihood(0.07)
    model, state, X, y = make_problem(seed, lik)
    rows = check_gradients(model, state, X, y, lik, n_total=33)
    bad = [r for r in rows if not r.ok]
    assert not bad, f"failed coordinates: {[r.parameter for r in bad[:5]]}"
    # every parameter family was exercised
    blocks = set(worst_rows(rows))
    assert {"mean", "cov_factor", "log_variance", "log_theta", "log_noise"} <= blocks
    assert any(b.startswith("phases_") for b in blocks)


@pytest.mark.parametrize("link", ["probit", "logit"])
def test_bernoulli_gradients_match_finite_differences(link):
    lik = V.BernoulliLikelihood(link)
    model, state, X, y = make_problem(5, lik)
    rows = check_gradients(model, state, X, y, lik, n_total=22)
    bad = [r for r in rows if not r.ok]
    assert not bad, f"failed coordinates: {[r.parameter for r in bad[:5]]}"


def test_a_family_defined_here_passes_the_check():
    lik = V.GaussianLikelihood(0.07)
    model, state, X, y = make_problem(1, lik, spec=exp_decay_spectrum(0.6, 4, 3, variance=1.1))
    rows = check_gradients(model, state, X, y, lik, n_total=33)
    bad = [r for r in rows if not r.ok]
    assert not bad, f"failed coordinates: {[r.parameter for r in bad[:5]]}"
    assert "log_theta" in worst_rows(rows)


def test_a_family_defined_here_trains():
    # targets drawn from the family's prior at theta = 1; fit moves theta
    # toward it from either side and raises the ELBO
    rng = np.random.default_rng(3)
    truth = V.build_inducing_model(exp_decay_spectrum(1.0, 3, 5))
    X = random_sphere(rng, 200, 3)
    F = H.features(truth.basis, X)
    lam = truth.spectrum.eigenvalues[truth.feature_frequencies]
    y = F @ (np.sqrt(lam) * rng.standard_normal(lam.size)) + 0.1 * rng.standard_normal(200)
    lik = V.GaussianLikelihood(0.01)
    cfg = V.FitConfig(iterations=60, batch_size=200, lr_variational=1.0, lr_hyper=0.05)
    for theta0 in (0.3, 3.0):
        model = V.build_inducing_model(exp_decay_spectrum(theta0, 3, 5))
        res = V.fit(model, X, y, lik, cfg)
        assert abs(res.state.theta - 1.0) < abs(theta0 - 1.0)
        assert res.trace[-1][1] > res.trace[0][1]
    with pytest.raises(ValueError, match="rate"):
        V.build_inducing_model(exp_decay_spectrum(5.0, 3, 5))


def test_corruption_hook_fails_the_check():
    lik = V.GaussianLikelihood(0.07)
    model, state, X, y = make_problem(1, lik)
    rows = check_gradients(model, state, X, y, lik, n_total=33, corrupt="mean")
    assert any(not r.ok for r in rows)
    with pytest.raises(KeyError):
        check_gradients(model, state, X, y, lik, n_total=33, corrupt="nope")


def test_beta_gradient_changes_sign_across_truth():
    # data generated at beta = 2; the collapsed-optimum envelope gradient
    # must point toward the truth from both sides
    rng = np.random.default_rng(42)
    dim, lmax, noise = 3, 4, 0.05
    spec_true = K.poly_decay_spectrum(2.0, dim, lmax)
    model = V.build_inducing_model(spec_true, seed=0)
    X = random_sphere(rng, 200, dim)
    F = H.features(model.basis, X)
    lam_true = spec_true.eigenvalues[model.feature_frequencies]
    w = np.sqrt(lam_true) * rng.standard_normal(model.num_features)
    y = F @ w + np.sqrt(noise) * rng.standard_normal(200)
    lik = V.GaussianLikelihood(noise)

    def envelope_gradient(beta):
        spec_b = K.poly_decay_spectrum(beta, dim, lmax)
        model_b = V.InducingModel(basis=model.basis, spectrum=spec_b)
        lam = spec_b.eigenvalues[model_b.feature_frequencies]
        m_star, s_star = oracles.inducing_optimum(F, lam, y, noise)
        state = V.init_state(model_b, lik)
        state.mean = m_star
        state.L = np.linalg.cholesky(s_star)
        state.log_theta = float(np.log(beta))
        _, grads = V.elbo_gradients(model_b, state, X, y, lik, 200)
        return grads["log_theta"]

    assert envelope_gradient(0.8) > 0
    assert envelope_gradient(5.0) < 0
