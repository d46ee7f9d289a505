"""The ELBO, predictions and gradients against the dense covariance algebra.

The package never forms S = L L^T, A S, L^{-T} or s_bar L; the reference in
``oracles.dense_svgp_reference`` forms all of them explicitly. Agreement to
rounding pins each identity on its own, independently of the
finite-difference gradcheck.
"""

import numpy as np
import pytest

from sphgp import harmonics as H
from sphgp import kernels as K
from sphgp import vargp as V

import oracles
from conftest import random_sphere

DIM, LMAX, N_BATCH, N_TOTAL = 4, 3, 11, 33
RTOL = 1e-10


def assert_close(actual, desired):
    desired = np.asarray(desired, dtype=np.float64)
    # entries far below the block's largest one are sums that cancel
    atol = RTOL * float(np.max(np.abs(desired)))
    np.testing.assert_allclose(actual, desired, rtol=RTOL, atol=atol)


def make_problem(likelihood, trained_phases, seed=7, n_rows=N_BATCH):
    rng = np.random.default_rng(seed)
    spec = K.poly_decay_spectrum(1.8, DIM, LMAX, variance=1.1)
    model = V.build_inducing_model(spec, phase_limit=2, seed=seed)
    state = V.init_state(model, likelihood)
    m = model.num_features
    state.mean = 0.4 * rng.standard_normal(m)
    L = np.tril(0.1 * rng.standard_normal((m, m)))
    np.fill_diagonal(L, np.exp(0.2 * rng.standard_normal(m) - 0.4))
    state.L = L
    state.log_variance = float(0.3 * rng.standard_normal())
    state.log_theta = float(np.log(1.8) + 0.2 * rng.standard_normal())
    if trained_phases:
        for ell, Vmat in state.phases.items():
            moved = Vmat + 0.2 * rng.standard_normal(Vmat.shape)
            state.phases[ell] = moved / np.linalg.norm(moved, axis=1, keepdims=True)
    else:
        state.phases = {}
    X = random_sphere(rng, n_rows, DIM)
    if likelihood.kind == "gaussian":
        y = rng.standard_normal(n_rows)
    else:
        y = (rng.random(n_rows) < 0.5).astype(float)
    return model, state, L, X, y


def spectrum_terms(model, state):
    """Per-frequency eigenvalues, their theta (beta) slope and N(l, d), from the formulas."""
    ells = np.arange(LMAX + 1, dtype=np.float64)
    lam_ell = np.empty(LMAX + 1)
    lam_ell[0] = model.spectrum.family.lambda0
    lam_ell[1:] = ells[1:] ** -state.theta
    slope = np.zeros(LMAX + 1)
    slope[1:] = -np.log(ells[1:]) * lam_ell[1:]
    counts = np.array(
        [oracles.harmonic_count_by_homogeneous(ell, DIM) for ell in range(LMAX + 1)],
        dtype=np.float64,
    )
    return state.variance * lam_ell, state.variance * slope, counts


def reference_features(model, state, X):
    """Features with trained blocks from the oracle, and each block's phase VJP."""
    F = H.features(model.basis, X)
    phase_vjps = {}
    for ell, cols, _ in model.basis.blocks():
        if ell in state.phases:
            F[:, cols], phase_vjps[ell] = oracles.phase_block_reference(
                X, state.phases[ell], ell, DIM
            )
    return F, phase_vjps


LIKELIHOODS = [
    V.GaussianLikelihood(0.07),
    V.BernoulliLikelihood("probit"),
    V.BernoulliLikelihood("logit"),
]


@pytest.mark.parametrize("trained_phases", [True, False])
@pytest.mark.parametrize("likelihood", LIKELIHOODS, ids=lambda lik: getattr(lik, "link", "gaussian"))
def test_matches_dense_reference(likelihood, trained_phases):
    model, state, L, X, y = make_problem(likelihood, trained_phases)
    lam_ell, slope_ell, counts = spectrum_terms(model, state)
    freqs = model.feature_frequencies
    lam = lam_ell[freqs]

    F, phase_vjps = reference_features(model, state, X)
    assert_close(V._posterior_rows(V._posterior(model, state), X).F, F)

    link = getattr(likelihood, "link", None)
    ref = oracles.dense_svgp_reference(
        F, lam, float(np.dot(counts, lam_ell)), state.mean, L, y,
        N_TOTAL / N_BATCH, noise=state.noise_variance, link=link,
    )

    value, grads = V.elbo_gradients(model, state, X, y, likelihood, N_TOTAL)
    assert value == pytest.approx(ref["value"], rel=RTOL)
    assert V.elbo(model, state, X, y, likelihood, N_TOTAL) == pytest.approx(ref["value"], rel=RTOL)

    mu, var = V.predict(model, state, X)
    assert_close(mu, ref["mu"])
    assert_close(var, ref["var"])

    assert_close(grads["mean"], ref["mean"])
    m = lam.size
    assert_close(grads["cov_factor"], ref["L"][np.tril_indices(m)])

    kxx = float(np.dot(counts, lam_ell))
    assert grads["log_variance"] == pytest.approx(
        float(np.dot(ref["lam"], lam)) + ref["kxx"] * kxx, rel=RTOL
    )
    beta_slope = float(np.dot(ref["lam"], slope_ell[freqs])) + ref["kxx"] * float(
        np.dot(counts, slope_ell)
    )
    assert grads["log_theta"] == pytest.approx(beta_slope * state.theta, rel=RTOL)
    if likelihood.kind == "gaussian":
        assert grads["log_noise"] == pytest.approx(ref["noise"] * state.noise_variance, rel=RTOL)
    else:
        assert "log_noise" not in grads

    assert {key for key in grads if key.startswith("phases_")} == {
        f"phases_{ell}" for ell in phase_vjps
    }
    for ell, cols, _ in model.basis.blocks():
        if ell in phase_vjps:
            assert_close(grads[f"phases_{ell}"], phase_vjps[ell](ref["F"][:, cols]))


@pytest.mark.parametrize("trained_phases", [True, False])
@pytest.mark.parametrize(
    "n_rows", [1, V.PREDICT_ROWS - 1, V.PREDICT_ROWS, 2 * V.PREDICT_ROWS + 1]
)
def test_blocked_predict_matches_dense_reference(n_rows, trained_phases):
    likelihood = V.GaussianLikelihood(0.07)
    model, state, L, X, y = make_problem(likelihood, trained_phases, n_rows=n_rows)
    lam_ell, _, counts = spectrum_terms(model, state)
    F, _ = reference_features(model, state, X)
    ref = oracles.dense_svgp_reference(
        F, lam_ell[model.feature_frequencies], float(np.dot(counts, lam_ell)),
        state.mean, L, y, 1.0, noise=state.noise_variance,
    )
    mu, var = V.predict(model, state, X)
    assert_close(mu, ref["mu"])
    assert_close(var, ref["var"])
