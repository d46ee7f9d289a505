"""Sparse variational GP with spherical-harmonic inducing features.

The inducing variables are RKHS inner products of the GP with the basis
features, which makes the prior covariance of the inducing vector exactly
diagonal: the entry for a feature of frequency ``l`` is ``1/(variance *
lambda_l)``. Only that diagonal is ever materialized. Writing ``lam`` for
the per-feature array ``variance * lambda_l`` and ``phi(x)`` for the feature
vector, the posterior approximation is

    mean(x) = sum_j lam_j phi_j(x) m_j
    cov(x, x') = k(x, x') + Phi(x)^T (S - K_uu) Phi(x'),   Phi = lam * phi

with ``q(u) = N(m, S)``, ``S = L L^T`` and the factor's diagonal stored in
log-space. The ELBO and its exact gradients with respect to every trainable
quantity (m, the S factor, variance, decay exponent, likelihood noise, and
the phase directions of truncated frequencies) are computed in closed form;
the finite-difference suite in the tests is the contract for the gradients.

``S`` itself is never formed. For a batch, with ``A`` the (N, M) rows of
``Phi``, every covariance term goes through ``G = A L``: the variance term
is ``rowsum(G^2)``, the data part of the factor gradient is ``A^T (h * G)``,
and ``A S = G L^T`` is built only when phases train. Both triangular
products are BLAS ``trmm`` calls, so one gradient evaluation costs
O(N M^2) whether M is below or above N.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.special import expit, log_ndtr

from . import backend
from . import harmonics as H
from . import kernels as K
from .special_math import num_harmonics

log = logging.getLogger(__name__)

BETA_BOUNDS = (0.05, 10.0)
VAR_CLAMP = 1e-10  # predictive variances in [-VAR_CLAMP, 0] clamp; below aborts
EIG_FLOOR = 1e-12  # eigenvalues at or below this (relative to max) count as zero

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(20)
_GH_WEIGHTS = _GH_WEIGHTS / np.sqrt(np.pi)


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# likelihoods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianLikelihood:
    """Homoscedastic Gaussian observation model; noise trains in log-space."""

    noise_variance: float = 0.1

    kind = "gaussian"

    def __post_init__(self):
        if not self.noise_variance > 0:
            raise ValueError("noise variance must be positive")


@dataclass(frozen=True)
class BernoulliLikelihood:
    """Binary observation model with a probit (default) or logit link."""

    link: str = "probit"

    kind = "bernoulli"

    def __post_init__(self):
        if self.link not in ("probit", "logit"):
            raise ValueError(f"link must be probit or logit, got {self.link!r}")


def _check_binary_targets(y):
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("Bernoulli likelihood requires targets in {0, 1}")


def _gaussian_expected(y, mu, v, noise):
    r = y - mu
    e = -0.5 * np.log(2.0 * np.pi * noise) - (r * r + v) / (2.0 * noise)
    g = r / noise
    h = np.full_like(mu, -0.5 / noise)
    dnoise = -0.5 / noise + (r * r + v) / (2.0 * noise * noise)
    return e, g, h, dnoise


def _bernoulli_expected(y, mu, v, link):
    _check_binary_targets(y)
    sgn = 2.0 * y - 1.0
    sq = np.sqrt(2.0 * np.maximum(v, 1e-18))
    z = mu[:, None] + sq[:, None] * _GH_NODES[None, :]
    arg = sgn[:, None] * z
    if link == "probit":
        logp = log_ndtr(arg)
        dz = sgn[:, None] * np.exp(-0.5 * arg * arg - 0.5 * np.log(2.0 * np.pi) - logp)
    else:
        logp = -np.logaddexp(0.0, -arg)
        dz = sgn[:, None] * expit(-arg)
    e = logp @ _GH_WEIGHTS
    g = dz @ _GH_WEIGHTS
    h = ((dz * _GH_NODES[None, :]) @ _GH_WEIGHTS) / sq
    return e, g, h, None


def _expected_loglik(likelihood, y, mu, v, noise):
    if likelihood.kind == "gaussian":
        return _gaussian_expected(y, mu, v, noise)
    return _bernoulli_expected(y, mu, v, likelihood.link)


# ---------------------------------------------------------------------------
# model and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InducingModel:
    """Harmonic basis plus the spectrum template defining the prior."""

    basis: H.HarmonicBasis
    spectrum: K.Spectrum

    def __post_init__(self):
        if self.basis.dim != self.spectrum.dim:
            raise ValueError("basis and spectrum dimensions differ")
        if self.basis.max_frequency > self.spectrum.max_frequency:
            raise ValueError("spectrum does not cover the basis frequencies")
        lam = self.spectrum.eigenvalues
        floor = EIG_FLOOR * float(np.max(lam))
        for ell, cols, _ in self.basis.blocks():
            if lam[ell] <= floor:
                raise ValueError(
                    f"frequency {ell} has eigenvalue {lam[ell]} but carries features; "
                    "zero-eigenvalue frequencies must carry zero features"
                )

    @property
    def num_features(self) -> int:
        return self.basis.num_features

    @property
    def feature_frequencies(self) -> np.ndarray:
        return self.basis.feature_frequencies()

    def trainable_frequencies(self) -> list[int]:
        return [fs.frequency for fs in self.basis.sets if not fs.is_full]


def build_inducing_model(
    spectrum: K.Spectrum, phase_limit: int | None = None, seed: int = 0
) -> InducingModel:
    """Build the basis for a spectrum, skipping zero-eigenvalue frequencies."""
    lam = spectrum.eigenvalues
    floor = EIG_FLOOR * float(np.max(lam))
    if lam[0] <= floor:
        raise ValueError("the constant feature requires a positive lambda_0")
    counts = {}
    for ell in range(1, spectrum.max_frequency + 1):
        full = num_harmonics(ell, spectrum.dim)
        counts[ell] = 0 if lam[ell] <= floor else (
            full if phase_limit is None else min(phase_limit, full)
        )
    basis = H.build_basis(
        spectrum.dim, spectrum.max_frequency, counts=counts, seed=seed
    )
    return InducingModel(basis=basis, spectrum=spectrum)


@dataclass
class VariationalState:
    """Trainable parameters: q(u) moments, kernel hypers, phase directions.

    ``cov_params`` packs the lower triangle of the covariance factor row by
    row with the diagonal stored as logs, which keeps S positive definite
    under unconstrained steps.
    """

    mean: np.ndarray
    cov_params: np.ndarray
    log_variance: float
    log_beta: float | None = None
    log_noise: float | None = None
    phases: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_features(self) -> int:
        return self.mean.size

    @property
    def variance(self) -> float:
        return float(np.exp(self.log_variance))

    @property
    def beta(self) -> float | None:
        return None if self.log_beta is None else float(np.exp(self.log_beta))

    @property
    def noise_variance(self) -> float | None:
        return None if self.log_noise is None else float(np.exp(self.log_noise))

    def cov_factor(self) -> np.ndarray:
        m = self.num_features
        L = np.zeros((m, m))
        L[_tril_cached(m)] = self.cov_params
        d = np.arange(m)
        L[d, d] = np.exp(L[d, d])
        return L

    def copy(self) -> "VariationalState":
        return VariationalState(
            mean=self.mean.copy(),
            cov_params=self.cov_params.copy(),
            log_variance=self.log_variance,
            log_beta=self.log_beta,
            log_noise=self.log_noise,
            phases={k: v.copy() for k, v in self.phases.items()},
        )


@lru_cache(maxsize=16)
def _tril_cached(m: int):
    return np.tril_indices(m)


def cov_params_from_factor(L: np.ndarray) -> np.ndarray:
    m = L.shape[0]
    packed = L[_tril_cached(m)].copy()
    diag_pos = np.cumsum(np.arange(1, m + 1)) - 1
    packed[diag_pos] = np.log(L[np.arange(m), np.arange(m)])
    return packed


def _diag_positions(m: int) -> np.ndarray:
    return np.cumsum(np.arange(1, m + 1)) - 1


def init_state(
    model: InducingModel, likelihood, seed: int = 0
) -> VariationalState:
    """Prior-matched start: m = 0 and S equal to the diagonal prior."""
    lam = _lambda_per_feature(model, model.spectrum)
    m = model.num_features
    L = np.diag(1.0 / np.sqrt(lam))
    return VariationalState(
        mean=np.zeros(m),
        cov_params=cov_params_from_factor(L),
        log_variance=float(np.log(model.spectrum.variance)),
        log_beta=None if model.spectrum.beta is None else float(np.log(model.spectrum.beta)),
        log_noise=(
            float(np.log(likelihood.noise_variance))
            if likelihood.kind == "gaussian"
            else None
        ),
        phases={
            ell: model.basis.set_for(ell).directions.copy()
            for ell in model.trainable_frequencies()
        },
    )


# ---------------------------------------------------------------------------
# covariance structure
# ---------------------------------------------------------------------------

def _effective_spectrum(model: InducingModel, state: VariationalState) -> K.Spectrum:
    return K.spectrum_with(model.spectrum, beta=state.beta, variance=state.variance)


def _lambda_per_feature(model: InducingModel, spectrum: K.Spectrum) -> np.ndarray:
    lam = spectrum.variance * spectrum.eigenvalues[model.feature_frequencies]
    if np.any(lam <= 0):
        bad = model.feature_frequencies[lam <= 0]
        raise ValueError(f"populated frequencies {sorted(set(bad.tolist()))} have zero eigenvalue")
    return lam


def kuf(model: InducingModel, x) -> np.ndarray:
    """Covariance between f(x) and each inducing variable: the feature vector."""
    return H.features(model.basis, x)


def kuu_diag(model: InducingModel, spectrum: K.Spectrum | None = None) -> np.ndarray:
    """Diagonal of the inducing prior covariance: 1 / (variance * lambda_l)."""
    spectrum = model.spectrum if spectrum is None else spectrum
    return 1.0 / _lambda_per_feature(model, spectrum)


def _phase_gram(V: np.ndarray, ell: int, dim: int) -> np.ndarray:
    """Gram of raw frequency-ell features with the diagonal pinned at t = 1.

    Used while phases train: off-diagonal entries vary smoothly with the raw
    direction rows while the diagonal stays constant, so gradients do not
    couple to row norms (rows are re-normalized after every optimizer step).
    """
    t = V @ V.T
    np.fill_diagonal(t, 1.0)
    t = np.clip(t, -1.0, 1.0)
    alpha = H.alpha_for_dim(dim)
    return H.addition_scale(ell, dim) * backend.gegenbauer_last(alpha, ell, t)


def _phase_overrides(model: InducingModel, state: VariationalState) -> dict:
    """(V, cholesky) pairs for frequencies whose phases live in the state."""
    overrides = {}
    for ell, V in state.phases.items():
        gram = _phase_gram(V, ell, model.basis.dim)
        L, jitter = H._chol_with_jitter(gram)
        overrides[ell] = (V, L)
    return overrides


def _times_factor(B: np.ndarray, L: np.ndarray) -> np.ndarray:
    """B @ L for lower-triangular L, as one BLAS trmm on Fortran-ordered views."""
    return dtrmm(1.0, L.T, B.T).T


def _times_factor_t(B: np.ndarray, L: np.ndarray) -> np.ndarray:
    """B @ L.T for lower-triangular L, as one BLAS trmm on Fortran-ordered views."""
    return dtrmm(1.0, L.T, B.T, trans_a=1).T


@dataclass
class _Core:
    F: np.ndarray  # (N, M) features
    A: np.ndarray  # (N, M) lam * F
    mu: np.ndarray
    v: np.ndarray
    G: np.ndarray  # (N, M) A @ L; G G^T = A S A^T
    w: np.ndarray  # sum_j lam f^2 per row
    lam: np.ndarray
    kxx: float
    L: np.ndarray  # covariance factor
    spec: K.Spectrum
    overrides: dict


def _posterior_core(model, state, X) -> _Core:
    spec = _effective_spectrum(model, state)
    lam = _lambda_per_feature(model, spec)
    overrides = _phase_overrides(model, state)
    F = H.features(model.basis, np.atleast_2d(X), overrides=overrides)
    A = F * lam[None, :]
    L = state.cov_factor()
    G = _times_factor(A, L)
    mu = A @ state.mean
    quad_s = np.einsum("ij,ij->i", G, G)
    w = np.einsum("ij,ij->i", A, F)
    kxx = K.mercer_diag_value(spec)
    v = kxx + quad_s - w
    return _Core(F=F, A=A, mu=mu, v=v, G=G, w=w, lam=lam, kxx=kxx, L=L, spec=spec, overrides=overrides)


def _clamp_variances(v: np.ndarray) -> np.ndarray:
    low = float(np.min(v)) if v.size else 0.0
    if low < -VAR_CLAMP:
        raise FloatingPointError(
            f"predictive variance {low:.3e} below -{VAR_CLAMP:.0e}; covariance is indefinite"
        )
    return np.maximum(v, 0.0)


def predict(model, state, X, full_cov: bool = False):
    """Posterior mean and (co)variance of the latent function at X."""
    core = _posterior_core(model, state, X)
    if not full_cov:
        return core.mu, _clamp_variances(core.v)
    Kmat = K.mercer_gram(core.spec, np.atleast_2d(X))
    cov = Kmat + core.G @ core.G.T - core.A @ core.F.T
    return core.mu, cov


def kl_term(model, state) -> float:
    """KL divergence from q(u) to the diagonal prior N(0, diag(1/lam))."""
    spec = _effective_spectrum(model, state)
    lam = _lambda_per_feature(model, spec)
    L = state.cov_factor()
    return _kl_from_parts(lam, state.mean, L)


def _kl_from_parts(lam, mean, L) -> float:
    s_diag = np.sum(L * L, axis=1)
    logdet_s = 2.0 * np.sum(np.log(np.diag(L)))
    m = lam.size
    return 0.5 * float(
        np.dot(lam, s_diag + mean * mean) - m - np.sum(np.log(lam)) - logdet_s
    )


def elbo(model, state, X, y, likelihood, n_total: int) -> float:
    """Stochastic evidence lower bound on a (mini)batch of n_total points."""
    X = np.atleast_2d(X)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if n_total < X.shape[0]:
        raise ValueError("n_total must be at least the batch size")
    core = _posterior_core(model, state, X)
    v = _clamp_variances(core.v)
    e, _, _, _ = _expected_loglik(likelihood, y, core.mu, v, state.noise_variance)
    scale = n_total / X.shape[0]
    return scale * float(np.sum(e)) - _kl_from_parts(core.lam, state.mean, core.L)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

@dataclass
class ElboGradients:
    mean: np.ndarray
    cov_params: np.ndarray
    log_variance: float
    log_beta: float | None = None
    log_noise: float | None = None
    phases: dict[int, np.ndarray] = field(default_factory=dict)


def _chol_asym_backward(L: np.ndarray, Lbar: np.ndarray) -> np.ndarray:
    """Adjoint of A -> chol(A), returned with both index orders summed.

    For A = L L^T and a gradient Lbar on the factor, the returned matrix R
    satisfies dJ = sum_pq R_pq dA_pq for symmetric perturbations with the
    (p, q) and (q, p) contributions merged, which is the form the phase
    chain rule consumes.
    """
    P = np.tril(L.T @ Lbar)
    d = np.arange(L.shape[0])
    P[d, d] *= 0.5
    Z = solve_triangular(L, P, lower=True, trans="T", check_finite=False)
    W = solve_triangular(L, Z.T, lower=True, trans="T", check_finite=False)
    R = W.T
    return R + R.T


def elbo_gradients(model, state, X, y, likelihood, n_total: int):
    """ELBO value and exact gradients with respect to every trainable parameter."""
    X = np.atleast_2d(X)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if n_total < X.shape[0]:
        raise ValueError("n_total must be at least the batch size")
    core = _posterior_core(model, state, X)
    v = _clamp_variances(core.v)
    noise = state.noise_variance
    e, g, h, dnoise = _expected_loglik(likelihood, y, core.mu, v, noise)
    n_batch = X.shape[0]
    scale = n_total / n_batch

    lam, F, A, G, L = core.lam, core.F, core.A, core.G, core.L
    mean = state.mean
    m_dim = lam.size
    value = scale * float(np.sum(e)) - _kl_from_parts(lam, mean, L)

    # mean
    g_mean = scale * (A.T @ g) - lam * mean

    # covariance factor (log-diagonal parameterization). With the data
    # adjoint s_bar = scale A^T diag(h) A of S, T = s_bar L = scale A^T (h G),
    # and the lower triangle of the KL term's L^{-T} is diag(1 / L_ii).
    T = scale * (A.T @ (h[:, None] * G))
    l_diag = np.diag(L)
    Lbar = 2.0 * T - lam[:, None] * L
    Lbar[np.diag_indices(m_dim)] += 1.0 / l_diag
    g_cov = Lbar[_tril_cached(m_dim)]
    g_cov[_diag_positions(m_dim)] *= l_diag

    # per-feature lambda adjoint (data + KL), then chain into hypers;
    # rowsum(T * L) / lam = scale sum_i h_i F_ij (A S)_ij
    s_diag = np.sum(L * L, axis=1)
    g_lam = (
        scale * (F.T @ g) * mean
        + 2.0 * np.einsum("ij,ij->i", T, L) / lam
        - scale * ((F * F).T @ h)
        - 0.5 * (s_diag + mean * mean - 1.0 / lam)
    )
    h_total = scale * float(np.sum(h))

    g_log_variance = float(np.dot(g_lam, lam) + h_total * core.kxx)

    g_log_beta = None
    if state.log_beta is not None:
        dlam_dbeta = K.poly_decay_beta_gradient(core.spec)
        counts = np.array(
            [num_harmonics(ell, core.spec.dim) for ell in range(core.spec.max_frequency + 1)],
            dtype=np.float64,
        )
        sigma2 = core.spec.variance
        per_feature = float(
            np.dot(g_lam, sigma2 * dlam_dbeta[model.feature_frequencies])
        )
        via_kxx = h_total * sigma2 * float(np.dot(counts, dlam_dbeta))
        g_log_beta = (per_feature + via_kxx) * state.beta

    g_log_noise = None
    if likelihood.kind == "gaussian":
        g_log_noise = scale * float(np.sum(dnoise)) * noise

    # phases of truncated frequencies
    g_phases = {}
    if state.phases:
        C = _times_factor_t(G, L)  # A S
        Fbar = scale * (
            g[:, None] * (lam * mean)[None, :]
            + 2.0 * h[:, None] * (lam[None, :] * C - A)
        )
        alpha = H.alpha_for_dim(model.basis.dim)
        for ell, cols, fs in model.basis.blocks():
            if ell not in state.phases:
                continue
            V, L_A = core.overrides[ell]
            sc = H.addition_scale(ell, model.basis.dim)
            Fb = F[:, cols]
            Fbar_b = Fbar[:, cols]
            abar = solve_triangular(L_A, Fbar_b.T, lower=True, trans="T", check_finite=False).T
            asym = _chol_asym_backward(L_A, -(abar.T @ Fb))
            t_vv = V @ V.T
            np.fill_diagonal(t_vv, 1.0)
            cp_vv = 2.0 * alpha * _safe_last(alpha + 1.0, ell - 1, t_vv)
            w_mat = asym * cp_vv
            np.fill_diagonal(w_mat, 0.0)
            grad_v = sc * (w_mat @ V)
            cp_xv = 2.0 * alpha * _safe_last(alpha + 1.0, ell - 1, X @ V.T)
            grad_v += sc * ((abar * cp_xv).T @ X)
            g_phases[ell] = grad_v

    return value, ElboGradients(
        mean=g_mean,
        cov_params=g_cov,
        log_variance=g_log_variance,
        log_beta=g_log_beta,
        log_noise=g_log_noise,
        phases=g_phases,
    )


def _safe_last(alpha, degree, t):
    return backend.gegenbauer_last(alpha, degree, np.clip(t, -1.0, 1.0))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitConfig:
    iterations: int = 500
    batch_size: int = 256
    lr_variational: float = 1e-2
    lr_hyper: float = 1e-3
    seed: int = 0
    log_every: int = 1
    beta_bounds: tuple[float, float] = BETA_BOUNDS


@dataclass
class TrainResult:
    model: InducingModel
    state: VariationalState
    trace: list  # (iteration, elbo, wallclock seconds)
    moments: dict


_VARIATIONAL_KEYS = ("mean", "cov_params")


def _state_params(state: VariationalState) -> dict[str, np.ndarray]:
    params = {
        "mean": state.mean.copy(),
        "cov_params": state.cov_params.copy(),
        "log_variance": np.asarray(state.log_variance, dtype=np.float64),
    }
    if state.log_beta is not None:
        params["log_beta"] = np.asarray(state.log_beta, dtype=np.float64)
    if state.log_noise is not None:
        params["log_noise"] = np.asarray(state.log_noise, dtype=np.float64)
    for ell, V in state.phases.items():
        params[f"phases_{ell}"] = V.copy()
    return params


def _state_from_params(params: dict, template: VariationalState) -> VariationalState:
    return VariationalState(
        mean=params["mean"],
        cov_params=params["cov_params"],
        log_variance=float(params["log_variance"]),
        log_beta=float(params["log_beta"]) if "log_beta" in params else None,
        log_noise=float(params["log_noise"]) if "log_noise" in params else None,
        phases={
            ell: params[f"phases_{ell}"] for ell in template.phases
        },
    )


def _grad_arrays(grads: ElboGradients) -> dict[str, np.ndarray]:
    out = {
        "mean": grads.mean,
        "cov_params": grads.cov_params,
        "log_variance": np.asarray(grads.log_variance, dtype=np.float64),
    }
    if grads.log_beta is not None:
        out["log_beta"] = np.asarray(grads.log_beta, dtype=np.float64)
    if grads.log_noise is not None:
        out["log_noise"] = np.asarray(grads.log_noise, dtype=np.float64)
    for ell, gv in grads.phases.items():
        out[f"phases_{ell}"] = gv
    return out


def fit(model, X, y, likelihood, config: FitConfig, state: VariationalState | None = None):
    """Maximize the ELBO with Adam (b1=0.9, b2=0.999) over all trainable parameters.

    Phase rows are projected back to the sphere after every step and their
    Gram factor refreshed, so the diagonal prior structure stays exact.
    Deterministic under a fixed seed and single-threaded execution.
    """
    from .data_io import minibatches

    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.size:
        raise ValueError("inputs and targets disagree in length")
    n_total = X.shape[0]
    if state is None:
        state = init_state(model, likelihood, seed=config.seed)
    else:
        state = state.copy()

    params = _state_params(state)
    mom_m = {k: np.zeros_like(v) for k, v in params.items()}
    mom_v = {k: np.zeros_like(v) for k, v in params.items()}
    b1, b2, eps = 0.9, 0.999, 1e-8
    trace = []
    t_start = time.perf_counter()
    step = 0
    epoch = 0
    batch_iter = iter(())
    log_beta_lo, log_beta_hi = np.log(config.beta_bounds[0]), np.log(config.beta_bounds[1])

    for it in range(config.iterations):
        try:
            idx = next(batch_iter)
        except StopIteration:
            batch_iter = minibatches(n_total, config.batch_size, epoch_seed=config.seed + epoch)
            epoch += 1
            idx = next(batch_iter)
        cur = _state_from_params(params, state)
        try:
            value, grads = elbo_gradients(model, cur, X[idx], y[idx], likelihood, n_total)
        except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
            if it == 0:
                raise  # nothing has moved yet: a genuine input problem
            raise TrainingDiverged(
                f"optimization blew up at iteration {it}: {exc}; "
                f"log_variance={float(params['log_variance']):.3e}"
            ) from exc
        if not np.isfinite(value):
            raise TrainingDiverged(
                f"ELBO became non-finite ({value}) at iteration {it}; "
                f"variance={cur.variance:.3e}, beta={cur.beta}, noise={cur.noise_variance}"
            )
        garr = _grad_arrays(grads)
        step += 1
        corr1 = 1.0 - b1**step
        corr2 = 1.0 - b2**step
        for key, grad in garr.items():
            lr = config.lr_variational if key in _VARIATIONAL_KEYS else config.lr_hyper
            mom_m[key] = b1 * mom_m[key] + (1.0 - b1) * grad
            mom_v[key] = b2 * mom_v[key] + (1.0 - b2) * grad * grad
            update = lr * (mom_m[key] / corr1) / (np.sqrt(mom_v[key] / corr2) + eps)
            params[key] = params[key] + update
        if "log_beta" in params:
            params["log_beta"] = np.clip(params["log_beta"], log_beta_lo, log_beta_hi)
        for ell in state.phases:
            key = f"phases_{ell}"
            params[key] = params[key] / np.linalg.norm(params[key], axis=1, keepdims=True)
        if it % config.log_every == 0 or it == config.iterations - 1:
            trace.append((it, float(value), time.perf_counter() - t_start))

    final = _state_from_params(params, state)
    basis = model.basis
    for ell, V in final.phases.items():
        fs = replace(basis.set_for(ell), directions=V)
        basis = basis.with_set(H.reorthogonalize(fs))
    # keep the state phases bit-identical to the synced basis rows
    final.phases = {ell: basis.set_for(ell).directions.copy() for ell in final.phases}
    model_out = replace(model, basis=basis)
    return TrainResult(model=model_out, state=final, trace=trace, moments={"m": mom_m, "v": mom_v, "step": step})


# ---------------------------------------------------------------------------
# evaluation metrics
# ---------------------------------------------------------------------------

def auc_score(labels, scores) -> float:
    """Area under the ROC curve (rank statistic, ties averaged)."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = labels == 1
    neg = labels == 0
    n_pos, n_neg = int(np.sum(pos)), int(np.sum(neg))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    from scipy.stats import rankdata

    ranks = rankdata(scores)
    return float((np.sum(ranks[pos]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def predictive_probability(model, state, X, likelihood) -> np.ndarray:
    """p(y = 1 | x) under the Gaussian posterior over the latent function."""
    mu, v = predict(model, state, X)
    if likelihood.link == "probit":
        from scipy.special import ndtr

        return ndtr(mu / np.sqrt(1.0 + v))
    z = mu[:, None] + np.sqrt(2.0 * np.maximum(v, 1e-18))[:, None] * _GH_NODES[None, :]
    return expit(z) @ _GH_WEIGHTS


def evaluate(model, state, X, y, likelihood, target_scaler=None) -> dict:
    """Held-out metrics: RMSE and mean NLL for regression, AUC and NLL for binary.

    For regression, ``target_scaler`` (mean, std) maps predictions back to the
    original units; ``y`` is expected in original units as well.
    """
    y = np.asarray(y, dtype=np.float64)
    if likelihood.kind == "gaussian":
        mu, v = predict(model, state, X)
        noise = state.noise_variance
        if target_scaler is not None:
            loc, sd = target_scaler
            mu = mu * sd + loc
            v = v * sd * sd
            noise = noise * sd * sd
        total = v + noise
        rmse = float(np.sqrt(np.mean((y - mu) ** 2)))
        nll = float(np.mean(0.5 * np.log(2.0 * np.pi * total) + (y - mu) ** 2 / (2.0 * total)))
        return {"rmse": rmse, "mean_nll": nll}
    _check_binary_targets(y)
    p = np.clip(predictive_probability(model, state, X, likelihood), 1e-12, 1.0 - 1e-12)
    nll = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    return {"auc": auc_score(y, p), "mean_nll": nll}
