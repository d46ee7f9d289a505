import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphgp import backend
from sphgp import harmonics as H
from sphgp import kernels as K
from sphgp import vargp as V

import oracles
from conftest import random_sphere, set_at


@pytest.fixture(scope="module")
def full_model():
    spec = K.poly_decay_spectrum(1.5, 3, 4, variance=0.8)
    return V.build_inducing_model(spec, phase_limit=None, seed=0)


@pytest.fixture(scope="module")
def truncated_model():
    spec = K.poly_decay_spectrum(2.0, 4, 3, variance=1.2)
    return V.build_inducing_model(spec, phase_limit=3, seed=1)


def random_state(model, rng, likelihood=None, scale=0.3):
    lik = likelihood or V.GaussianLikelihood(0.05)
    state = V.init_state(model, lik)
    m = model.num_features
    state.mean = scale * rng.standard_normal(m)
    L = np.tril(0.1 * rng.standard_normal((m, m)))
    np.fill_diagonal(L, np.exp(0.2 * rng.standard_normal(m) - 0.3))
    state.L = L.copy()
    return state, L


def kl(model, state):
    """The ELBO's KL term at the state's own hyperparameters."""
    lam = V._lambda_per_feature(model, model.spectrum.at(state.theta, state.variance))
    L = state.L
    return V._kl_from_parts(lam, state.mean, L, np.sum(L * L, axis=1))


class TestKuf:
    def test_constant_entry_is_one(self, full_model):
        rng = np.random.default_rng(0)
        X = random_sphere(rng, 7, 3)
        F = H.features(full_model.basis, X)
        assert np.all(F[:, 0] == 1.0)

    def test_mercer_identity(self, full_model):
        # full sets: phi' diag(lambda) phi = k(x, x) / variance
        rng = np.random.default_rng(3)
        x = random_sphere(rng, 1, 3)[0]
        f = H.features(full_model.basis, x)
        spec = full_model.spectrum
        lam = spec.eigenvalues[full_model.feature_frequencies]
        lhs = float(np.sum(lam * f * f))
        rhs = oracles.zonal_gram(spec, x)[0, 0] / spec.variance
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestKuuDiag:
    def test_reciprocal_power_law(self):
        spec = K.poly_decay_spectrum(2.0, 3, 2)
        model = V.build_inducing_model(spec, seed=0)
        diag = 1.0 / V._lambda_per_feature(model, spec)
        freqs = model.feature_frequencies
        assert np.all(diag[freqs == 1] == 1.0)
        assert np.all(diag[freqs == 2] == 4.0)

    def test_scaling_by_spectrum_scale(self):
        spec = K.poly_decay_spectrum(2.0, 3, 2, variance=1.0)
        model = V.build_inducing_model(spec, seed=0)
        base = 1.0 / V._lambda_per_feature(model, spec)
        scaled = 1.0 / V._lambda_per_feature(model, spec.at(None, 5.0))
        assert np.allclose(scaled, base / 5.0)

    def test_constant_within_frequency(self, truncated_model):
        diag = 1.0 / V._lambda_per_feature(truncated_model, truncated_model.spectrum)
        freqs = truncated_model.feature_frequencies
        for ell in np.unique(freqs):
            assert np.unique(diag[freqs == ell]).size == 1

    def test_zero_eigenvalue_rejected(self):
        # a linear-shape spectrum is zero except at l=1, so populated
        # frequencies above 1 must be refused
        spec = K.funk_hecke_spectrum(lambda t: np.asarray(t, float), 3, 3)
        with pytest.raises(ValueError, match="lambda_0|constant"):
            V.build_inducing_model(spec, seed=0)

    def test_diagonal_is_vector_not_matrix(self, full_model):
        diag = 1.0 / V._lambda_per_feature(full_model, full_model.spectrum)
        assert diag.ndim == 1 and diag.size == full_model.num_features


class TestPredict:
    def test_prior_recovery(self, full_model):
        lik = V.GaussianLikelihood(0.1)
        state = V.init_state(full_model, lik)
        rng = np.random.default_rng(4)
        X = random_sphere(rng, 15, 3)
        mu, var = V.predict(full_model, state, X)
        gram = oracles.zonal_gram(full_model.spectrum, X)
        assert np.max(np.abs(mu)) <= 1e-12
        assert np.max(np.abs(var - np.diag(gram))) <= 1e-10

    def test_single_point_conjugate_oracle(self, full_model):
        rng = np.random.default_rng(5)
        X = random_sphere(rng, 1, 3)
        y = np.array([0.7])
        noise = 0.05
        F = H.features(full_model.basis, X)
        lam = full_model.spectrum.variance * full_model.spectrum.eigenvalues[
            full_model.feature_frequencies
        ]
        m_star, s_star = oracles.inducing_optimum(F, lam, y, noise)
        state = V.init_state(full_model, V.GaussianLikelihood(noise))
        state.mean = m_star
        state.L = np.linalg.cholesky(s_star)
        Xq = random_sphere(rng, 8, 3)
        mu, var = V.predict(full_model, state, Xq)
        Fq = H.features(full_model.basis, Xq)
        mu_ref, var_ref = oracles.gp_posterior_predictive(F, Fq, lam, y, noise)
        assert np.allclose(mu, mu_ref, atol=1e-10)
        assert np.allclose(var, var_ref, atol=1e-9)

    def test_shrunk_covariance_reduces_variance(self, full_model):
        lik = V.GaussianLikelihood(0.1)
        state = V.init_state(full_model, lik)
        shrunk = V.init_state(full_model, lik)
        shrunk.L = state.L * 0.5
        rng = np.random.default_rng(6)
        X = random_sphere(rng, 10, 3)
        _, var_prior = V.predict(full_model, state, X)
        _, var_shrunk = V.predict(full_model, shrunk, X)
        assert np.all(var_shrunk <= var_prior + 1e-12)

    def test_variance_nonnegative_after_clamp(self, truncated_model):
        rng = np.random.default_rng(7)
        state, _ = random_state(truncated_model, rng)
        X = random_sphere(rng, 30, 4)
        _, var = V.predict(truncated_model, state, X)
        assert np.all(var >= 0.0)

    def test_indefinite_rows_in_last_block_raise(self, full_model):
        # off the unit sphere the features break the addition theorem, so
        # k(x, x) - sum_j lam_j f_j(x)^2 goes negative at those rows only
        rng = np.random.default_rng(8)
        state = V.init_state(full_model, V.GaussianLikelihood(0.1))
        state.L = 1e-3 * state.L
        X = random_sphere(rng, 2 * V.PREDICT_ROWS + 3, 3)
        _, var = V.predict(full_model, state, X)
        assert np.all(var > 0.0)
        X[-2:] *= 1.05
        # the error states what was seen, not a cause
        with pytest.raises(FloatingPointError, match=rf"at 2 of {X.shape[0]} rows; lowest -\d"):
            V.predict(full_model, state, X)

    def test_predict_and_elbo_skip_phase_slopes(self, truncated_model, monkeypatch):
        # only the phase gradients use d/dt C_l; scoring rows must not pay for it
        rng = np.random.default_rng(9)
        lik = V.GaussianLikelihood(0.1)
        state, _ = random_state(truncated_model, rng, lik)
        assert state.phases
        X = random_sphere(rng, V.PREDICT_ROWS + 5, 4)
        y = rng.standard_normal(X.shape[0])

        def refuse(*args, **kwargs):
            raise AssertionError("slope evaluated")

        monkeypatch.setattr(backend, "gegenbauer_last_and_slope", refuse)
        V.predict(truncated_model, state, X)
        V.elbo(truncated_model, state, X, y, lik, X.shape[0])
        with pytest.raises(AssertionError, match="slope evaluated"):
            V.elbo_gradients(truncated_model, state, X, y, lik, X.shape[0])

    def test_phases_at_basis_directions_score_like_frozen(self, truncated_model):
        # a trained block and a frozen one go through the same Gram and factorization
        rng = np.random.default_rng(11)
        lik = V.GaussianLikelihood(0.1)
        trained, _ = random_state(truncated_model, rng, lik)
        assert trained.phases
        frozen = trained.copy()
        frozen.phases = {}
        X = random_sphere(rng, 40, 4)
        y = rng.standard_normal(40)
        mu_t, var_t = V.predict(truncated_model, trained, X)
        mu_f, var_f = V.predict(truncated_model, frozen, X)
        assert np.array_equal(mu_t, mu_f) and np.array_equal(var_t, var_f)
        assert V.elbo(truncated_model, trained, X, y, lik, 80) == V.elbo(
            truncated_model, frozen, X, y, lik, 80
        )


class TestCovPacking:
    def test_round_trip_is_row_major_lower_triangle(self, truncated_model):
        rng = np.random.default_rng(10)
        state, L = random_state(truncated_model, rng)
        m = L.shape[0]
        assert np.array_equal(state.L, L)
        packed = V.pack_state(state)
        rows, cols = np.tril_indices(m)
        assert np.array_equal(packed["cov_factor"], L[rows, cols])  # raw, with no logs
        assert np.array_equal(V.unpack_state(packed).L, L)


class TestKl:
    def test_zero_at_prior(self, full_model):
        state = V.init_state(full_model, V.GaussianLikelihood(0.1))
        assert kl(full_model, state) == pytest.approx(0.0, abs=1e-12)

    def test_unit_scalar_case(self):
        # one feature, lambda = 1, m = 1, S = 1 -> KL = 1/2
        basis = H.HarmonicBasis(dim=3, max_frequency=0, sets=())
        spec = K.Spectrum(dim=3, eigenvalues=np.array([1.0]))
        model = V.InducingModel(basis=basis, spectrum=spec)
        state = V.init_state(model, V.GaussianLikelihood(0.1))
        state.mean = np.array([1.0])
        state.L = np.array([[1.0]])
        assert kl(model, state) == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_oracle(self):
        spec = K.poly_decay_spectrum(1.2, 3, 1, variance=0.7)  # 4 features
        model = V.build_inducing_model(spec, seed=0)
        rng = np.random.default_rng(8)
        for _ in range(5):
            state, L = random_state(model, rng)
            lam = spec.variance * spec.eigenvalues[model.feature_frequencies]
            ref = oracles.dense_gaussian_kl(state.mean, L @ L.T, np.diag(1.0 / lam))
            assert kl(model, state) == pytest.approx(ref, abs=1e-10)

    def test_nonnegative_on_many_states(self, truncated_model):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            state, _ = random_state(truncated_model, rng, scale=1.0)
            assert kl(truncated_model, state) >= -1e-12


class TestElbo:
    def test_single_point_closed_form(self, full_model):
        noise = 0.05
        lik = V.GaussianLikelihood(noise)
        state = V.init_state(full_model, lik)
        rng = np.random.default_rng(10)
        X = random_sphere(rng, 1, 3)
        value = V.elbo(full_model, state, X, np.zeros(1), lik, 1)
        kxx = K.mercer_diag_value(full_model.spectrum)
        expected = -0.5 * np.log(2 * np.pi * noise) - kxx / (2 * noise)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_never_exceeds_log_marginal(self, full_model):
        rng = np.random.default_rng(11)
        noise = 0.05
        lik = V.GaussianLikelihood(noise)
        X = random_sphere(rng, 20, 3)
        F = H.features(full_model.basis, X)
        lam = full_model.spectrum.variance * full_model.spectrum.eigenvalues[
            full_model.feature_frequencies
        ]
        log_z = oracles.dense_log_marginal(
            rng.standard_normal(20), oracles.degenerate_feature_gram(F, lam), noise
        )
        # regenerate the same y used in the oracle
        rng = np.random.default_rng(11)
        X = random_sphere(rng, 20, 3)
        y = rng.standard_normal(20)
        for _ in range(10):
            state, _ = random_state(full_model, rng, scale=0.6)
            assert V.elbo(full_model, state, X, y, lik, 20) <= log_z + 1e-9

    def test_collapsed_optimum_is_tight(self, full_model):
        rng = np.random.default_rng(12)
        noise = 0.07
        lik = V.GaussianLikelihood(noise)
        X = random_sphere(rng, 25, 3)
        y = rng.standard_normal(25)
        F = H.features(full_model.basis, X)
        lam = full_model.spectrum.variance * full_model.spectrum.eigenvalues[
            full_model.feature_frequencies
        ]
        m_star, s_star = oracles.inducing_optimum(F, lam, y, noise)
        state = V.init_state(full_model, lik)
        state.mean = m_star
        state.L = np.linalg.cholesky(s_star)
        value = V.elbo(full_model, state, X, y, lik, 25)
        log_z = oracles.dense_log_marginal(y, oracles.degenerate_feature_gram(F, lam), noise)
        assert value == pytest.approx(log_z, abs=1e-8)

    def test_batch_average_identity(self, full_model):
        rng = np.random.default_rng(13)
        lik = V.GaussianLikelihood(0.05)
        state, _ = random_state(full_model, rng)
        X = random_sphere(rng, 24, 3)
        y = rng.standard_normal(24)
        full = V.elbo(full_model, state, X, y, lik, 24)
        halves = [
            V.elbo(full_model, state, X[:12], y[:12], lik, 24),
            V.elbo(full_model, state, X[12:], y[12:], lik, 24),
        ]
        assert full == pytest.approx(np.mean(halves), abs=1e-10)

    def test_minibatch_data_term_unbiased_over_epoch(self, full_model):
        from sphgp.data_io import minibatches

        rng = np.random.default_rng(14)
        lik = V.GaussianLikelihood(0.05)
        state, _ = random_state(full_model, rng)
        n = 24
        X = random_sphere(rng, n, 3)
        y = rng.standard_normal(n)
        kl_value = kl(full_model, state)
        full_data_term = V.elbo(full_model, state, X, y, lik, n) + kl_value
        terms = [
            V.elbo(full_model, state, X[idx], y[idx], lik, n) + kl_value
            for idx in minibatches(n, 8, epoch_seed=5)
        ]
        assert np.mean(terms) == pytest.approx(full_data_term, abs=1e-9)

    def test_bernoulli_requires_binary(self, full_model):
        lik = V.BernoulliLikelihood()
        state = V.init_state(full_model, lik)
        rng = np.random.default_rng(15)
        X = random_sphere(rng, 3, 3)
        with pytest.raises(ValueError, match="0, 1"):
            V.elbo(full_model, state, X, np.array([0.0, 0.5, 1.0]), lik, 3)

    def test_input_validation(self, full_model):
        lik = V.GaussianLikelihood(0.1)
        state = V.init_state(full_model, lik)
        rng = np.random.default_rng(16)
        X = random_sphere(rng, 4, 3)
        with pytest.raises(ValueError):
            V.elbo(full_model, state, X[:0], np.zeros(0), lik, 4)
        with pytest.raises(ValueError):
            V.elbo(full_model, state, X, np.zeros(4), lik, 2)


class TestFit:
    def test_zero_iterations_is_identity(self, truncated_model):
        lik = V.GaussianLikelihood(0.1)
        rng = np.random.default_rng(17)
        X = random_sphere(rng, 20, 4)
        y = rng.standard_normal(20)
        cfg = V.FitConfig(iterations=0, batch_size=10, seed=0)
        res = V.fit(truncated_model, X, y, lik, cfg)
        fresh = V.init_state(truncated_model, lik)
        assert np.array_equal(res.state.mean, fresh.mean)
        assert np.array_equal(res.state.L, fresh.L)
        assert res.trace == []

    def test_divergence_guard(self, truncated_model):
        # q(u)'s step cannot blow up for any valid gamma; Adam on the
        # hyperparameters can, and that must end in TrainingDiverged
        lik = V.GaussianLikelihood(0.1)
        rng = np.random.default_rng(18)
        X = random_sphere(rng, 16, 4)
        y = rng.standard_normal(16)
        cfg = V.FitConfig(iterations=200, batch_size=16, lr_variational=1.0, lr_hyper=1e6)
        with pytest.raises(V.TrainingDiverged):
            V.fit(truncated_model, X, y, lik, cfg)

    @pytest.mark.parametrize("gamma", [0.0, -0.01, 1.0 + 1e-12, float("nan"), float("inf")])
    def test_step_size_outside_unit_interval_is_rejected(self, gamma):
        with pytest.raises(ValueError, match="lr_variational"):
            V.FitConfig(lr_variational=gamma)

    def test_phase_rows_stay_unit_and_synced(self, truncated_model):
        lik = V.GaussianLikelihood(0.1)
        rng = np.random.default_rng(19)
        X = random_sphere(rng, 40, 4)
        y = rng.standard_normal(40)
        cfg = V.FitConfig(iterations=25, batch_size=20, seed=1)
        res = V.fit(truncated_model, X, y, lik, cfg)
        for ell, Vmat in res.state.phases.items():
            assert np.allclose(np.linalg.norm(Vmat, axis=1), 1.0, atol=1e-12)
            assert np.array_equal(Vmat, set_at(res.model.basis, ell).directions)
        # phases actually moved
        assert any(
            not np.array_equal(res.state.phases[ell], set_at(truncated_model.basis, ell).directions)
            for ell in res.state.phases
        )

    def test_returned_basis_is_the_trained_one(self, truncated_model):
        lik = V.GaussianLikelihood(0.1)
        rng = np.random.default_rng(22)
        X = random_sphere(rng, 40, 4)
        y = rng.standard_normal(40)
        cfg = V.FitConfig(iterations=10, batch_size=20, seed=2)
        res = V.fit(truncated_model, X, y, lik, cfg)
        assert res.state.phases
        for ell, Vmat in res.state.phases.items():
            got = set_at(res.model.basis, ell)
            want = H.fundamental_set(ell, Vmat, 4)
            assert np.array_equal(got.directions, want.directions)
            assert np.array_equal(got.gram_chol, want.gram_chol)
            assert got.jitter == want.jitter

    def test_returned_spectrum_is_the_trained_one(self, truncated_model):
        lik = V.GaussianLikelihood(0.1)
        rng = np.random.default_rng(23)
        X = random_sphere(rng, 40, 4)
        y = rng.standard_normal(40)
        cfg = V.FitConfig(iterations=10, batch_size=20, seed=2, lr_hyper=0.05)
        res = V.fit(truncated_model, X, y, lik, cfg)
        got, start = res.model.spectrum, truncated_model.spectrum
        assert got.theta == res.state.theta != start.theta
        assert got.variance == res.state.variance != start.variance
        assert np.array_equal(got.eigenvalues, start.at(res.state.theta, 1.0).eigenvalues)

    def test_fit_leaves_its_starting_state_unchanged(self, truncated_model):
        lik = V.GaussianLikelihood(0.1)
        rng = np.random.default_rng(24)
        state, _ = random_state(truncated_model, rng, lik)
        before = state.copy()
        X = random_sphere(rng, 40, 4)
        y = rng.standard_normal(40)
        cfg = V.FitConfig(iterations=5, batch_size=20, seed=3, lr_variational=0.5)
        res = V.fit(truncated_model, X, y, lik, cfg, state=state)
        assert not np.array_equal(res.state.L, before.L)
        assert np.array_equal(state.L, before.L)
        assert np.array_equal(state.mean, before.mean)
        assert state.phases.keys() == before.phases.keys()
        for ell, Vmat in before.phases.items():
            assert np.array_equal(state.phases[ell], Vmat)
            assert not np.array_equal(res.state.phases[ell], Vmat)

    def test_deterministic_under_seed(self, truncated_model):
        lik = V.GaussianLikelihood(0.1)
        rng = np.random.default_rng(20)
        X = random_sphere(rng, 30, 4)
        y = rng.standard_normal(30)
        cfg = V.FitConfig(iterations=15, batch_size=10, seed=7)
        a = V.fit(truncated_model, X, y, lik, cfg)
        b = V.fit(truncated_model, X, y, lik, cfg)
        assert np.array_equal(a.state.mean, b.state.mean)
        assert np.array_equal(a.state.L, b.state.L)
        assert [v for _, v, _ in a.trace] == [v for _, v, _ in b.trace]

    def test_beta_stays_in_bounds(self, truncated_model):
        lik = V.GaussianLikelihood(0.1)
        rng = np.random.default_rng(21)
        X = random_sphere(rng, 30, 4)
        y = 5.0 * rng.standard_normal(30)
        cfg = V.FitConfig(iterations=60, batch_size=30, lr_hyper=0.5, seed=0)
        res = V.fit(truncated_model, X, y, lik, cfg)
        lo, hi = truncated_model.spectrum.family.bounds
        assert lo <= res.state.theta <= hi

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)], ids=["0d", "1d", "2d"])
    def test_adam_step_matches_textbook_update(self, shape):
        rng = np.random.default_rng(22)
        param, m, grad = (np.asarray(rng.standard_normal(shape)) for _ in range(3))
        v = np.asarray(rng.uniform(0.1, 1.0, shape))
        b1, b2, eps, lr, corr1, corr2 = 0.9, 0.999, 1e-8, 0.01, 0.19, 0.002
        m_ref = b1 * m + (1.0 - b1) * grad
        v_ref = b2 * v + (1.0 - b2) * grad * grad
        p_ref = param + lr * (m_ref / corr1) / (np.sqrt(v_ref / corr2) + eps)
        V._adam_step(param, m, v, grad, lr, corr1, corr2)
        for got, ref in ((param, p_ref), (m, m_ref), (v, v_ref)):
            assert isinstance(got, np.ndarray) and got.shape == shape
            assert np.array_equal(got, ref)


def sym(P):
    """The symmetric matrix whose upper triangle ``P`` keeps."""
    return np.triu(P) + np.triu(P, 1).T


def susy_shaped(rng, n):
    """Probit labels over 8 raw columns, projected to the 9-sphere (bias 1)."""
    from scipy.special import ndtr

    raw = rng.standard_normal((n, 8))
    u1, u2 = rng.standard_normal((2, 8)) / np.sqrt(8)
    y = (rng.random(n) < ndtr(1.4 * (raw @ u1) + (raw @ u2) ** 2 - 0.8)).astype(float)
    X = np.hstack([raw, np.ones((n, 1))])
    return X / np.linalg.norm(X, axis=1, keepdims=True), y


class TestNaturalStep:
    """q(u)'s natural-gradient step: its fixed point, its factor and its safety."""

    def test_full_batch_gaussian_step_of_one_is_the_collapsed_optimum(self, full_model):
        # Titsias 2009: S^{-1} = diag(lam) + A^T A / noise, m = S A^T y / noise
        lik = V.GaussianLikelihood(0.05)
        rng = np.random.default_rng(40)
        X = random_sphere(rng, 60, 3)
        y = rng.standard_normal(60)
        start = V.init_state(full_model, lik)
        lam = V._lambda_per_feature(full_model, full_model.spectrum)
        m_star, s_star = oracles.inducing_optimum(H.features(full_model.basis, X), lam, y, 0.05)

        # lr_hyper 1e-12 holds the hyperparameters where the optimum was taken
        cfg = V.FitConfig(iterations=1, batch_size=60, lr_variational=1.0, lr_hyper=1e-12)
        state = V.fit(full_model, X, y, lik, cfg).state
        L = state.L
        np.testing.assert_allclose(state.mean, m_star, rtol=1e-9, atol=1e-9 * np.abs(m_star).max())
        np.testing.assert_allclose(L @ L.T, s_star, rtol=1e-9, atol=1e-9 * np.abs(s_star).max())

        _, at_start = V.elbo_gradients(full_model, start, X, y, lik, 60)
        _, at_optimum = V.elbo_gradients(full_model, state, X, y, lik, 60)
        for key in ("mean", "cov_factor"):
            size = np.abs(at_start[key]).max()
            assert np.abs(at_optimum[key]).max() <= 1e-8 * size, key

    def test_bernoulli_smoothed_elbo_rises_on_the_susy_shape(self):
        spec = K.poly_decay_spectrum(1.0, 9, 7)
        model = V.build_inducing_model(spec, phase_limit=100, seed=0)
        assert model.num_features == 554
        rng = np.random.default_rng(41)
        X, y = susy_shaped(rng, 2048)
        cfg = V.FitConfig(iterations=16, batch_size=512, lr_variational=0.01, seed=0)
        trace = np.array([value for _, value, _ in V.fit(model, X, y, V.BernoulliLikelihood(), cfg).trace])
        per_epoch = trace.reshape(4, 4).mean(axis=1)  # each epoch visits the 4 batches once
        assert np.all(np.diff(per_epoch) > 0), per_epoch

    def test_fit_from_a_mid_run_state_continues(self, full_model):
        # hyperparameters held (lr_hyper 1e-12), full batch: q(u) alone carries
        # the run, and resuming rebuilds P = L^{-T} L^{-1} and theta1 = P m
        # from the state's factor, which moves them by rounding only
        lik = V.GaussianLikelihood(0.1)
        rng = np.random.default_rng(42)
        X = random_sphere(rng, 50, 3)
        y = rng.standard_normal(50)

        def run(iterations, state=None):
            cfg = V.FitConfig(iterations=iterations, batch_size=50, lr_variational=0.3, lr_hyper=1e-12)
            return V.fit(full_model, X, y, lik, cfg, state=state).state

        straight = run(8)
        resumed = run(4, state=run(4))
        np.testing.assert_allclose(resumed.mean, straight.mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(resumed.L, straight.L, rtol=1e-10, atol=1e-12)

    def test_factor_and_mean_follow_p_and_theta1(self, truncated_model):
        rng = np.random.default_rng(43)
        lik = V.BernoulliLikelihood("logit")
        state, L0 = random_state(truncated_model, rng, lik)
        q = V.NaturalQ(state, 0.4)
        np.testing.assert_allclose(sym(q.P), np.linalg.inv(L0 @ L0.T), rtol=1e-10, atol=1e-10)
        assert np.array_equal(q.L, state.L) and np.array_equal(q.mean, state.mean)
        X = random_sphere(rng, 30, 4)
        y = (rng.random(30) < 0.5).astype(float)
        V.elbo_gradients(truncated_model, state, X, y, lik, 90, natural=q)
        assert np.array_equal(q.L, np.tril(q.L))
        S = np.linalg.inv(sym(q.P))
        np.testing.assert_allclose(q.L @ q.L.T, S, rtol=1e-10, atol=1e-12 * np.abs(S).max())
        np.testing.assert_allclose(q.mean, S @ q.theta1, rtol=1e-10, atol=1e-12)

    def test_step_matches_the_dense_formulas(self, truncated_model):
        rng = np.random.default_rng(44)
        lik = V.GaussianLikelihood(0.2)
        state, _ = random_state(truncated_model, rng, lik)
        X = random_sphere(rng, 25, 4)
        y = rng.standard_normal(25)
        gamma, n_total = 0.3, 75
        q = V.NaturalQ(state, gamma)
        P0, theta0 = sym(q.P), q.theta1.copy()
        batch = V._elbo_batch(truncated_model, state, X, y, lik, n_total)
        A, g, h, mu, s = batch.rows.A, batch.g, batch.h, batch.rows.mu, batch.scale
        P_hat = np.diag(batch.post.lam) - 2.0 * s * (A.T * h) @ A
        theta_hat = s * A.T @ (g - 2.0 * h * mu)
        V.elbo_gradients(truncated_model, state, X, y, lik, n_total, natural=q)
        want_P = (1 - gamma) * P0 + gamma * P_hat
        np.testing.assert_allclose(sym(q.P), want_P, rtol=1e-12, atol=1e-12 * np.abs(want_P).max())
        want_theta = (1 - gamma) * theta0 + gamma * theta_hat
        np.testing.assert_allclose(q.theta1, want_theta, rtol=1e-12, atol=1e-12 * np.abs(want_theta).max())

    @settings(max_examples=60, deadline=None)
    @given(
        link=st.sampled_from(["probit", "logit"]),
        mu=st.floats(-40.0, 40.0),
        log10_v=st.floats(-12.0, 2.0),
        label=st.sampled_from([0.0, 1.0]),
        gamma=st.floats(1e-6, 1.0),
    )
    def test_syrk_weights_are_never_negative(self, link, mu, log10_v, label, gamma):
        _, _, h, _ = V._bernoulli_expected(
            np.array([label]), np.array([mu]), np.array([10.0**log10_v]), link
        )
        assert h[0] <= 1e-9  # non-positive up to Gauss-Hermite rounding
        w = V._syrk_weights(h, 3.0, gamma)
        assert w[0] >= 0.0
        if h[0] <= 0.0:
            assert w[0] == -2.0 * 3.0 * gamma * h[0]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        gamma=st.floats(1e-6, 1.0),
        positive_rows=st.integers(0, 6),
    )
    def test_p_stays_positive_definite_after_a_step(self, seed, gamma, positive_rows):
        # rows with h > 0 (as rounding makes them) must not pull P indefinite
        rng = np.random.default_rng(seed)
        m, n = 12, 8
        L = np.tril(0.3 * rng.standard_normal((m, m)))
        np.fill_diagonal(L, np.exp(rng.uniform(-3.0, 1.0, m)))
        P = np.asfortranarray(np.linalg.inv(L @ L.T))
        theta1 = rng.standard_normal(m)
        A = 10.0 * rng.standard_normal((n, m))
        h = -rng.exponential(size=n)
        h[:positive_rows] = 1e3
        lam = np.exp(rng.uniform(-8.0, 2.0, m))
        V._natural_step(P, theta1, A, rng.standard_normal(n), h, rng.standard_normal(n), 5.0, lam, gamma)
        np.linalg.cholesky(sym(P))
        assert np.all(np.isfinite(theta1))


class TestLeanStep:
    """The gradient step's cache-sized passes and its memory."""

    @pytest.mark.parametrize("lik", [V.GaussianLikelihood(0.1), V.BernoulliLikelihood("logit")])
    def test_gradients_do_not_depend_on_chunk_sizes(self, truncated_model, lik, monkeypatch):
        rng = np.random.default_rng(31)
        state, _ = random_state(truncated_model, rng, lik)
        assert state.phases
        X = random_sphere(rng, 300, 4)
        y = (rng.uniform(size=300) < 0.5).astype(float)
        results = []
        for chunk, above, pass_bytes in ((7, 0, 8), (5, 100, 200), (2**40, 2**40, 2**40)):
            monkeypatch.setattr(backend, "CHUNK", chunk)
            monkeypatch.setattr(backend, "CHUNK_ABOVE", above)
            monkeypatch.setattr(V, "PASS_BYTES", pass_bytes)
            results.append(V.elbo_gradients(truncated_model, state, X, y, lik, 1000))
        (value, grads), others = results[0], results[1:]
        for other_value, other_grads in others:
            assert other_value == value
            assert other_grads.keys() == grads.keys()
            for key in grads:
                assert np.array_equal(other_grads[key], grads[key]), key

    def test_natural_step_does_not_depend_on_chunk_sizes(self, truncated_model, monkeypatch):
        rng = np.random.default_rng(33)
        lik = V.BernoulliLikelihood("probit")
        state, _ = random_state(truncated_model, rng, lik)
        X = random_sphere(rng, 40, 4)
        y = (rng.uniform(size=40) < 0.5).astype(float)
        results = []
        for pass_bytes in (8, 200, 2**40):
            monkeypatch.setattr(V, "PASS_BYTES", pass_bytes)
            q = V.NaturalQ(state, 0.3)
            value, grads = V.elbo_gradients(truncated_model, state, X, y, lik, 100, natural=q)
            results.append((value, grads, q))
        (value, grads, q), others = results[0], results[1:]
        assert "mean" not in grads and "cov_factor" not in grads
        for other_value, other_grads, other_q in others:
            assert other_value == value
            for key in grads:
                assert np.array_equal(other_grads[key], grads[key]), key
            for attr in ("P", "theta1", "L", "mean"):
                assert np.array_equal(getattr(other_q, attr), getattr(q, attr)), attr

    @staticmethod
    def _peak_of_one_call(n, natural_step):
        spec = K.poly_decay_spectrum(1.0, 8, 8)
        model = V.build_inducing_model(spec, phase_limit=60, seed=0)
        assert model.num_features == 404
        rng = np.random.default_rng(32)
        lik = V.GaussianLikelihood(0.1)
        state, _ = random_state(model, rng, lik)
        assert len(state.phases) == 6
        X = random_sphere(rng, n, 8)
        y = rng.standard_normal(n)
        natural = V.NaturalQ(state, 0.5) if natural_step else None
        V.elbo_gradients(model, state, X, y, lik, n, natural=natural)  # first-call imports and caches
        tracemalloc.start()
        try:
            V.elbo_gradients(model, state, X, y, lik, n, natural=natural)
            return model.num_features, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_of_one_gradient_call(self):
        # The Euclidean gradient (the gradient check's) forms the step's
        # target P^ and then P^ L densely: 2 M^2 at the peak (L is the
        # state's own), next to F and A (2 N M; A S is freed by then), plus at most three
        # cache-sized pass blocks. Earlier in the call F, A, G, the trained
        # blocks' slopes and the basis refactoring stay below 5 N M.
        m, peak = self._peak_of_one_call(256, natural_step=False)
        n = 256
        bound = 8 * (2.5 * m * m + 5 * n * m) + 3 * V.PASS_BYTES
        assert peak <= bound, (peak / (8 * m * m), peak / (8 * n * m))

    def test_training_step_allocates_no_m_by_m_array(self):
        # NaturalQ owns P and the factor's buffer, and a step refactors in
        # that buffer, so the step's own allocations are F, A, G (which
        # becomes A S), the trained blocks' slopes and cache-sized blocks.
        # At N = 64 one M x M temporary (6.3 N M) is past the bound.
        n = 64
        m, peak = self._peak_of_one_call(n, natural_step=True)
        bound = 8 * 4 * n * m + 3 * V.PASS_BYTES
        assert peak <= bound, (peak / (8 * m * m), peak / (8 * n * m))


class TestEvaluate:
    def test_perfect_separation_auc(self):
        labels = np.array([0, 0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
        assert V.auc_score(labels, scores) == 1.0

    def test_shuffled_labels_auc_near_half(self):
        rng = np.random.default_rng(22)
        scores = rng.standard_normal(10_000)
        labels = rng.permutation(np.repeat([0, 1], 5_000))
        assert V.auc_score(labels, scores) == pytest.approx(0.5, abs=0.02)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            V.auc_score(np.ones(5), np.arange(5.0))

    @pytest.mark.parametrize(
        "labels, scores",
        [
            pytest.param(
                np.random.default_rng(26).integers(0, 2, 2000),
                np.random.default_rng(27).integers(0, 7, 2000) / 7.0,
                id="heavy-ties",
            ),
            pytest.param(np.repeat([0, 1], [7, 5]), np.full(12, 0.25), id="all-equal"),
            pytest.param(
                np.eye(1, 50, 17, dtype=int)[0],
                np.random.default_rng(28).standard_normal(50),
                id="one-positive",
            ),
            pytest.param(
                np.array([0, 0, 0, 1, 1]), np.array([0.1, 0.2, 0.3, 0.8, 0.9]), id="separated"
            ),
        ],
    )
    def test_auc_matches_rankdata_reference(self, labels, scores):
        from scipy.stats import rankdata

        pos = labels == 1
        n_pos, n_neg = int(pos.sum()), int((labels == 0).sum())
        ranks = rankdata(scores)
        expected = (np.sum(ranks[pos]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert V.auc_score(labels, scores) == expected

    def test_auc_of_equal_scores_is_half(self):
        assert V.auc_score(np.repeat([0, 1], [7, 5]), np.full(12, 0.25)) == 0.5

    def test_auc_of_nan_score_is_nan(self):
        assert np.isnan(V.auc_score(np.array([0, 1, 1]), np.array([0.1, np.nan, 0.3])))

    def test_regression_metrics_zero_error(self, full_model):
        rng = np.random.default_rng(23)
        lik = V.GaussianLikelihood(0.01)
        state = V.init_state(full_model, lik)
        X = random_sphere(rng, 10, 3)
        mu, _ = V.predict(full_model, state, X)
        metrics = V.evaluate(full_model, state, X, mu, lik)
        assert metrics["rmse"] == pytest.approx(0.0, abs=1e-12)
        assert set(metrics) == {"rmse", "mean_nll"}

    def test_classification_metric_keys(self, full_model):
        rng = np.random.default_rng(24)
        lik = V.BernoulliLikelihood()
        state = V.init_state(full_model, lik)
        X = random_sphere(rng, 12, 3)
        y = np.repeat([0.0, 1.0], 6)
        metrics = V.evaluate(full_model, state, X, y, lik)
        assert set(metrics) == {"auc", "mean_nll"}

    def test_target_scaler_changes_units(self, full_model):
        rng = np.random.default_rng(25)
        lik = V.GaussianLikelihood(0.1)
        state = V.init_state(full_model, lik)
        X = random_sphere(rng, 10, 3)
        y = rng.standard_normal(10)
        plain = V.evaluate(full_model, state, X, y, lik)
        scaled = V.evaluate(full_model, state, X, 3.0 * y, lik, target_scaler=(0.0, 3.0))
        assert scaled["rmse"] == pytest.approx(3.0 * plain["rmse"], rel=1e-9)

    def test_probit_probability_matches_quadrature(self, full_model):
        rng = np.random.default_rng(26)
        state, _ = random_state(full_model, rng, V.BernoulliLikelihood())
        X = random_sphere(rng, 9, 3)
        mu, v = V.predict(full_model, state, X)
        p_closed = V.class_probability(mu, v, V.BernoulliLikelihood("probit"))
        from scipy.special import ndtr

        nodes, weights = np.polynomial.hermite.hermgauss(60)
        p_quad = (ndtr(mu[:, None] + np.sqrt(2 * v)[:, None] * nodes[None, :]) @ weights) / np.sqrt(np.pi)
        assert np.allclose(p_closed, p_quad, atol=1e-8)
