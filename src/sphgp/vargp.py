"""Sparse variational GP with spherical-harmonic inducing features.

The inducing variables are RKHS inner products of the GP with the basis
features, which makes the prior covariance of the inducing vector exactly
diagonal: the entry for a feature of frequency ``l`` is ``1/(variance *
lambda_l)``. Only that diagonal is ever materialized. Writing ``lam`` for
the per-feature array ``variance * lambda_l`` and ``phi(x)`` for the feature
vector, the posterior approximation is

    mean(x) = sum_j lam_j phi_j(x) m_j
    cov(x, x') = k(x, x') + Phi(x)^T (S - K_uu) Phi(x'),   Phi = lam * phi

with ``q(u) = N(m, S)`` and ``S = L L^T``, ``L`` lower triangular. The
ELBO and its exact gradients with respect to every trainable quantity (m,
``L``, variance, the spectral parameter, likelihood noise, and the phase
directions of truncated frequencies) are computed in closed form; the
finite-difference suite in the tests is the contract for the gradients.

``S`` itself is never formed. For a batch, with ``A`` the (N, M) rows of
``Phi``, every covariance term goes through ``G = A L``: the variance term
is ``rowsum(G^2)``, and ``C = A S = G L^T`` (one more BLAS ``trmm``, written
over ``G``) carries the lambda adjoint and the phase gradients. One
gradient evaluation costs O(N M^2) whether M is below or above N.

The posterior is computed in two parts. The per-state part (``_posterior``:
the effective spectrum, ``lam``, the basis at the state's phases, ``L`` and
``k(x, x)``) is built once per call. The per-rows part
(``_posterior_rows``: ``F``, ``A``, ``G``, the mean and the variance) runs
on any subset of rows: the ELBO and its gradients pass their whole batch,
and ``predict`` passes blocks of ``PREDICT_ROWS`` rows.

``_basis_at`` refactors each block of ``state.phases`` with
``harmonics.fundamental_set``, as building and loading do, so a state whose
phases equal the basis directions scores exactly like a frozen one
(``phases={}``). The phase gradients ride on passes that happen anyway.
``harmonics.features`` returns the slope ``d/dt C_l(t)`` at the same
``t = X V^T`` as the values, from the same recurrence, and the refactored
block keeps ``d/dt C_l(V V^T)`` from its Gram's recurrence (the shared
Gram slope). Both are taken only for the frequencies ``elbo_gradients``
names (those of ``state.phases``); ``predict`` and ``elbo`` name none.
Every triangular solve is one BLAS ``trsm``.

Training. ``fit`` steps q(u) by natural gradients (Hensman et al. 2013;
Salimbeni et al. 2018) and everything else by Adam. With ``g`` and ``h``
the likelihood's derivatives with respect to each row's predictive mean
``mu`` and variance, and ``gamma = lr_variational``, one step is

    P      <- (1 - gamma) P + gamma (diag(lam) - 2 scale A^T diag(h) A)
    theta1 <- (1 - gamma) theta1 + gamma scale A^T (g - 2 h mu)

in the natural parameters ``P = S^{-1}`` and ``theta1 = P m`` (``NaturalQ``),
which exist only during a fit. ``h <= 0`` in exact arithmetic; its rounding
is clamped, so each step keeps ``P`` positive definite for any gamma in
(0, 1]. The update is in place: after ``A``'s last use its rows are scaled
by ``sqrt(-2 scale gamma h)`` and one BLAS ``syrk`` adds ``A^T A`` into
``(1 - gamma) P``. The lower factor of ``S`` comes from
``P`` in reversed index order, ``J P J = R R^T`` (``potrf``), then
``L = J R^{-T} J`` (``trtri``), all in one reused M x M buffer, so a step
allocates no M x M array. The Euclidean gradients of ``mean`` and ``L``
(for the gradient check) are derived from the same step's targets.

The elementwise passes over the batch run over cache-sized row blocks
(``PASS_BYTES`` per operand), where a full-size pass would stream arrays
far larger than L2 from memory, and Adam updates its moments and the
parameters in place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.linalg.blas import dsymm, dsymv, dsyrk, dtrmm, dtrmv, dtrsm
from scipy.linalg.lapack import dlauum, dpotrf, dtrtri
from scipy.special import expit, log_ndtr

from . import harmonics as H
from . import kernels as K
from .special_math import num_harmonics

VAR_CLAMP = 1e-10  # predictive variances in [-VAR_CLAMP, 0] clamp; below aborts
PREDICT_ROWS = 512  # rows per predict block: F, A and G of one block fit in cache
PASS_BYTES = 256 << 10  # one operand's block in an elementwise pass over a large array
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
        for ell, cols, _ in self.basis.blocks():
            if not lam[ell] > 0:
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


def build_inducing_model(
    spectrum: K.Spectrum, phase_limit: int | None = None, seed: int = 0
) -> InducingModel:
    """Build the basis for a spectrum, skipping zero-eigenvalue frequencies.

    A frequency whose eigenvalue is at most ``EIG_FLOOR`` times the largest
    counts as zero. A family's ``theta`` must start within the bounds
    ``fit`` keeps it in.
    """
    family = spectrum.family
    if family is not None and not family.bounds[0] <= spectrum.theta <= family.bounds[1]:
        raise ValueError(
            f"initial {family.name} = {spectrum.theta} is outside its range {family.bounds}"
        )
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
    basis = H.build_basis(spectrum.dim, spectrum.max_frequency, counts=counts, seed=seed)
    return InducingModel(basis=basis, spectrum=spectrum)


@dataclass
class VariationalState:
    """Trainable parameters: q(u) = N(mean, L L^T), kernel hypers, phase directions.

    ``L`` is the dense lower Cholesky factor of S, with a positive diagonal.
    """

    mean: np.ndarray
    L: np.ndarray
    log_variance: float
    log_theta: float | None = None  # the spectral family's parameter, if it has one
    log_noise: float | None = None
    phases: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_features(self) -> int:
        return self.mean.size

    @property
    def variance(self) -> float:
        return float(np.exp(self.log_variance))

    @property
    def theta(self) -> float | None:
        return None if self.log_theta is None else float(np.exp(self.log_theta))

    @property
    def noise_variance(self) -> float | None:
        return None if self.log_noise is None else float(np.exp(self.log_noise))

    def copy(self) -> "VariationalState":
        return replace(
            self, mean=self.mean.copy(), L=self.L.copy(),
            phases={k: v.copy() for k, v in self.phases.items()},
        )


@lru_cache(maxsize=16)
def _tril_mask(m: int) -> np.ndarray:
    """Boolean lower-triangle mask; indexing with it walks the triangle row by row."""
    mask = np.tri(m, dtype=bool)
    mask.flags.writeable = False
    return mask


def _diag_positions(m: int) -> np.ndarray:
    return np.cumsum(np.arange(1, m + 1)) - 1


def init_state(model: InducingModel, likelihood) -> VariationalState:
    """Prior-matched start: m = 0 and S equal to the diagonal prior."""
    lam = _lambda_per_feature(model, model.spectrum)
    return VariationalState(
        mean=np.zeros(model.num_features),
        L=np.diag(1.0 / np.sqrt(lam)),
        log_variance=float(np.log(model.spectrum.variance)),
        log_theta=None if model.spectrum.family is None else float(np.log(model.spectrum.theta)),
        log_noise=(
            float(np.log(likelihood.noise_variance))
            if likelihood.kind == "gaussian"
            else None
        ),
        phases=trainable_phases(model.basis),
    )


def trainable_phases(basis: H.HarmonicBasis) -> dict[int, np.ndarray]:
    """A copy of the directions of every block that trains: the non-full sets."""
    return {fs.frequency: fs.directions.copy() for fs in basis.sets if not fs.is_full}


PHASE_PREFIX = "phases_"
OPTIONAL_BLOCKS = ("log_theta", "log_noise")


def pack_state(state: VariationalState) -> dict[str, np.ndarray]:
    """Each trainable block of the state as a float64 array (a copy), by key.

    The keys are ``mean`` and ``cov_factor``, the lower triangle of ``L``
    row by row, then those of ``adam_blocks``; scalars are 0-d arrays.
    ``elbo_gradients`` and the checkpoint use the same keys.
    """
    factor = state.L[_tril_mask(state.num_features)]
    return {"mean": state.mean.copy(), "cov_factor": factor, **adam_blocks(state)}


def adam_blocks(state: VariationalState) -> dict[str, np.ndarray]:
    """The blocks Adam trains, packed as ``pack_state`` does.

    ``log_variance``, then each of ``OPTIONAL_BLOCKS`` the state has, then
    ``phases_<l>`` per trained frequency; q(u) takes natural-gradient steps.
    """
    params = {"log_variance": np.asarray(state.log_variance, dtype=np.float64)}
    for key in OPTIONAL_BLOCKS:
        if getattr(state, key) is not None:
            params[key] = np.asarray(getattr(state, key), dtype=np.float64)
    for ell, V in state.phases.items():
        params[f"{PHASE_PREFIX}{ell}"] = V.copy()
    return params


def unpack_state(params: dict[str, np.ndarray]) -> VariationalState:
    """The state ``pack_state`` packed; ``mean`` and the phases are used without copying."""
    m = params["mean"].size
    L = np.zeros((m, m))
    L[_tril_mask(m)] = params["cov_factor"]
    return _state_of(params["mean"], L, params)


def _state_of(mean, L, blocks: dict[str, np.ndarray]) -> VariationalState:
    """The state with q(u) = N(mean, L L^T) and ``blocks`` keyed like ``adam_blocks``; no copies."""
    return VariationalState(
        mean=mean,
        L=L,
        log_variance=float(blocks["log_variance"]),
        **{key: float(blocks[key]) for key in OPTIONAL_BLOCKS if key in blocks},
        phases={
            int(key[len(PHASE_PREFIX):]): V
            for key, V in blocks.items()
            if key.startswith(PHASE_PREFIX)
        },
    )


# ---------------------------------------------------------------------------
# covariance structure
# ---------------------------------------------------------------------------

def _lambda_per_feature(model: InducingModel, spectrum: K.Spectrum) -> np.ndarray:
    lam = spectrum.variance * spectrum.eigenvalues[model.feature_frequencies]
    if np.any(lam <= 0):
        bad = model.feature_frequencies[lam <= 0]
        raise ValueError(f"populated frequencies {sorted(set(bad.tolist()))} have zero eigenvalue")
    return lam


def _basis_at(basis: H.HarmonicBasis, phases: dict, slopes: bool = False) -> H.HarmonicBasis:
    """The basis with each block named in ``phases`` refactored at those directions.

    With ``slopes`` each refactored block keeps its ``gram_slope``.
    """
    sets = tuple(
        H.fundamental_set(fs.frequency, phases[fs.frequency], basis.dim, slope=slopes)
        if fs.frequency in phases
        else fs
        for fs in basis.sets
    )
    return replace(basis, sets=sets)


def _times_factor(B: np.ndarray, L: np.ndarray) -> np.ndarray:
    """B @ L for lower-triangular L, as one BLAS trmm on Fortran-ordered views."""
    return dtrmm(1.0, L.T, B.T).T


def _times_factor_t_over(B: np.ndarray, L: np.ndarray) -> np.ndarray:
    """B @ L.T for lower-triangular L, written over the C-ordered ``B`` by one BLAS trmm."""
    return dtrmm(1.0, L.T, B.T, trans_a=1, overwrite_b=1).T


@dataclass
class _Posterior:
    """Everything about q(f) that does not depend on the rows scored."""

    spec: K.Spectrum
    lam: np.ndarray  # per-feature variance * lambda_l
    basis: H.HarmonicBasis  # the model's basis at the state's phases
    L: np.ndarray  # lower covariance factor of q(u)
    s_diag: np.ndarray  # diag(S) = rowsum(L * L), for the KL and its lambda adjoint
    mean: np.ndarray
    kxx: float


@dataclass
class _Rows:
    F: np.ndarray  # (N, M) features
    A: np.ndarray  # (N, M) lam * F
    G: np.ndarray  # (N, M) A @ L; G G^T = A S A^T (the gradients overwrite it with A S)
    mu: np.ndarray
    v: np.ndarray  # unclamped predictive variance
    slopes: dict  # trained block -> d/dt C_l at t = X V^T (only when asked for)


def _posterior(model, state, slopes: bool = False) -> _Posterior:
    spec = model.spectrum.at(state.theta, state.variance)
    return _Posterior(
        spec=spec,
        lam=_lambda_per_feature(model, spec),
        basis=_basis_at(model.basis, state.phases, slopes=slopes),
        L=state.L,
        s_diag=np.einsum("ij,ij->i", state.L, state.L),
        mean=state.mean,
        kxx=K.mercer_diag_value(spec),
    )


def _posterior_rows(post: _Posterior, X, slopes=()) -> _Rows:
    out = H.features(post.basis, X, slopes=slopes)
    F, slope_of = out if slopes else (out, {})
    A = F * post.lam[None, :]
    G = _times_factor(A, post.L)
    mu = A @ post.mean
    quad_s = np.einsum("ij,ij->i", G, G)
    w = np.einsum("ij,ij->i", A, F)
    v = post.kxx + quad_s - w
    return _Rows(F=F, A=A, G=G, mu=mu, v=v, slopes=slope_of)


def _clamp_variances(v: np.ndarray) -> np.ndarray:
    low = float(np.min(v)) if v.size else 0.0
    if low < -VAR_CLAMP:
        raise FloatingPointError(
            f"predictive variance below -{VAR_CLAMP:.0e} at "
            f"{int(np.count_nonzero(v < -VAR_CLAMP))} of {v.size} rows; lowest {low:.3e}"
        )
    return np.maximum(v, 0.0)


def predict(model, state, X):
    """Posterior mean and variance of the latent function at each row of X.

    Each row's mean and variance depend only on that row's features, so the
    rows go through blocks of ``PREDICT_ROWS``: working memory is
    O(PREDICT_ROWS * M) whatever the number of rows, and the variance check
    covers every row once all blocks are done.
    """
    X = np.atleast_2d(X)
    post = _posterior(model, state)
    n = X.shape[0]
    mu = np.empty(n)
    v = np.empty(n)
    for start in range(0, n, PREDICT_ROWS):
        block = slice(start, start + PREDICT_ROWS)
        rows = _posterior_rows(post, X[block])
        mu[block] = rows.mu
        v[block] = rows.v
    return mu, _clamp_variances(v)


def _kl_from_parts(lam, mean, L, s_diag) -> float:
    """KL(q(u) || p(u)); ``s_diag`` is diag(S), the row sums of ``L * L``."""
    logdet_s = 2.0 * np.sum(np.log(np.diag(L)))
    m = lam.size
    return 0.5 * float(
        np.dot(lam, s_diag + mean * mean) - m - np.sum(np.log(lam)) - logdet_s
    )


@dataclass
class _Batch:
    """The ELBO of one batch and the terms its gradients reuse."""

    X: np.ndarray
    post: _Posterior
    rows: _Rows
    scale: float  # n_total / batch size
    g: np.ndarray  # d E[log p(y | f)] / d mu per row
    h: np.ndarray  # d E[log p(y | f)] / d v per row
    dnoise: np.ndarray | None  # d E[log p(y | f)] / d noise per row (Gaussian only)
    value: float


def _elbo_batch(model, state, X, y, likelihood, n_total: int, slopes=()) -> _Batch:
    X = np.atleast_2d(X)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if n_total < X.shape[0]:
        raise ValueError("n_total must be at least the batch size")
    post = _posterior(model, state, slopes=bool(slopes))
    rows = _posterior_rows(post, X, slopes=slopes)
    v = _clamp_variances(rows.v)
    e, g, h, dnoise = _expected_loglik(likelihood, y, rows.mu, v, state.noise_variance)
    scale = n_total / X.shape[0]
    value = scale * float(np.sum(e)) - _kl_from_parts(post.lam, post.mean, post.L, post.s_diag)
    return _Batch(X=X, post=post, rows=rows, scale=scale, g=g, h=h, dnoise=dnoise, value=value)


def elbo(model, state, X, y, likelihood, n_total: int) -> float:
    """Stochastic evidence lower bound on a (mini)batch of n_total points."""
    return _elbo_batch(model, state, X, y, likelihood, n_total).value


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

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
    Z = dtrsm(1.0, L, P, lower=1, trans_a=1)
    W = dtrsm(1.0, L, Z.T, lower=1, trans_a=1)
    R = W.T
    return R + R.T


def _pass_rows(width: int) -> int:
    """Rows of a ``width``-column float64 block that fill ``PASS_BYTES``."""
    return max(1, PASS_BYTES // (8 * width))


def elbo_gradients(model, state, X, y, likelihood, n_total: int, natural=None):
    """ELBO value and its exact gradient, keyed like ``pack_state(state)``.

    Scalar blocks are 0-d arrays. With ``natural`` (a ``NaturalQ`` holding
    the state's q(u)) this is one training step of ``fit``: the call takes
    ``natural``'s step in place, and the gradient leaves out ``mean`` and
    ``cov_factor``.
    """
    batch = _elbo_batch(model, state, X, y, likelihood, n_total, slopes=tuple(state.phases))
    value, post, scale, g, h = batch.value, batch.post, batch.scale, batch.g, batch.h
    lam, F, A, mu = post.lam, batch.rows.F, batch.rows.A, batch.rows.mu
    mean = post.mean

    # per-feature lambda adjoint (data + KL), then chain into hypers. The
    # data part is scale sum_i h_i F_ij (2 C_ij - F_ij) with C = A S; einsum
    # forms both sums without an N x M temporary.
    C = _times_factor_t_over(batch.rows.G, post.L)  # over G
    g_lam = scale * (F.T @ g) * mean
    g_lam += scale * (
        2.0 * np.einsum("i,ij,ij->j", h, F, C) - np.einsum("i,ij,ij->j", h, F, F)
    )
    g_lam -= 0.5 * (post.s_diag + mean * mean - 1.0 / lam)
    h_total = scale * float(np.sum(h))

    grads = {"log_variance": np.asarray(np.dot(g_lam, lam) + h_total * post.kxx)}

    if state.log_theta is not None:
        dlam = post.spec.family.derivative(post.spec.theta, post.spec.max_frequency)
        sigma2 = post.spec.variance
        per_feature = float(np.dot(g_lam, sigma2 * dlam[model.feature_frequencies]))
        via_kxx = h_total * sigma2 * float(np.dot(K.harmonic_counts(post.spec), dlam))
        grads["log_theta"] = np.asarray((per_feature + via_kxx) * state.theta)

    if likelihood.kind == "gaussian":
        grads["log_noise"] = np.asarray(
            scale * float(np.sum(batch.dnoise)) * state.noise_variance
        )

    if state.phases:
        grads.update(_phase_gradients(batch, C))
    del batch, C, F  # q(u)'s step needs only A, which it overwrites, and per-row terms

    if natural is not None:
        natural.step(A, g, h, mu, scale, lam)
        return value, grads
    return value, {**_euclidean_q_gradients(post, A, g, h, mu, scale), **grads}


def _phase_gradients(batch: _Batch, C: np.ndarray) -> dict:
    """Gradients of the trained phase blocks; overwrites ``C = A S``.

    The adjoint of a block's features is
    ``Fbar_b = scale (g (lam m)_b^T + 2 h (lam_b C_b - A_b))``. One
    row-chunked pass turns every column of ``C`` from the first trained
    block on into ``Fbar``. The trained blocks are the truncated
    frequencies, which form a column suffix because N(l, d) grows with l,
    so the pass spends nothing on frozen columns. Each block's Gram term
    uses the slope its refactoring kept.
    """
    X, post, scale, g, h = batch.X, batch.post, batch.scale, batch.g, batch.h
    lam, A, F = post.lam, batch.rows.A, batch.rows.F
    trained = [blk for blk in post.basis.blocks() if blk[0] in batch.rows.slopes]
    j0 = trained[0][1].start
    Fbar = C  # its trained columns become Fbar
    lam_t, lam_mean_t = lam[j0:], (lam * post.mean)[j0:]
    A_t = A[:, j0:]
    step = _pass_rows(lam_t.size)
    for r0 in range(0, Fbar.shape[0], step):
        r = slice(r0, r0 + step)
        block = Fbar[r, j0:]
        block *= lam_t
        block -= A_t[r]
        block *= 2.0 * h[r, None]
        block += g[r, None] * lam_mean_t
        block *= scale

    dim = post.basis.dim
    grads = {}
    for ell, cols, fs in trained:
        V, L_A = fs.directions, fs.gram_chol
        sc = H.addition_scale(ell, dim)
        abar = dtrsm(1.0, L_A, Fbar[:, cols], side=1, lower=1)  # Fbar_b L_A^{-1}
        asym = _chol_asym_backward(L_A, -(abar.T @ F[:, cols]))
        w_mat = asym * fs.gram_slope
        np.fill_diagonal(w_mat, 0.0)
        grad_v = sc * (w_mat @ V)
        grad_v += sc * ((abar * batch.rows.slopes[ell]).T @ X)
        grads[f"{PHASE_PREFIX}{ell}"] = grad_v
    return grads


# ---------------------------------------------------------------------------
# q(u): natural-gradient steps
# ---------------------------------------------------------------------------

def _syrk_weights(h: np.ndarray, scale: float, gamma: float) -> np.ndarray:
    """Row weights ``-2 scale gamma h`` of the step's ``A^T diag(w) A``, clamped at 0.

    ``h = d E[log p(y | f)] / d v`` is never positive in exact arithmetic
    (every likelihood here is log-concave in f), but Gauss-Hermite rounding
    makes it slightly positive at tiny variances; a negative weight would
    subtract from ``P``.
    """
    return np.maximum(-2.0 * scale * gamma * h, 0.0)


def _natural_step(P, theta1, A, g, h, mu, scale: float, lam, gamma: float) -> None:
    """One natural-gradient step on q(u), in place; overwrites ``A``.

    ``theta1 <- (1 - gamma) theta1 + gamma scale A^T (g - 2 h mu)`` and
    ``P <- (1 - gamma) P + gamma (diag(lam) - 2 scale A^T diag(h) A)``.
    ``P`` is Fortran-ordered and only its upper triangle is read and
    written: ``A``'s rows are scaled by the square roots of the
    ``_syrk_weights``, then one BLAS ``syrk`` adds ``A^T A`` into ``P``.
    """
    theta1 *= 1.0 - gamma
    theta1 += (gamma * scale) * (A.T @ (g - 2.0 * h * mu))
    A *= np.sqrt(_syrk_weights(h, scale, gamma))[:, None]
    dsyrk(1.0, A.T, beta=1.0 - gamma, c=P, overwrite_c=1)
    d = np.arange(lam.size)
    P[d, d] += gamma * lam


def _euclidean_q_gradients(post: _Posterior, A, g, h, mu, scale: float) -> dict:
    """The ``mean`` and ``cov_factor`` gradients, from the natural step's targets.

    With gamma = 1 the step from zero gives the targets ``theta1^`` and
    ``P^``. The ELBO's gradients are then ``d/dm = theta1^ - P^ m`` and
    ``d/dS = (S^{-1} - P^) / 2``, so ``d/dL = L^{-T} - P^ L``, whose lower
    triangle is ``diag(1 / L_ii) - tril(P^ L)``. Overwrites ``A``.
    """
    lam, L, mean = post.lam, post.L, post.mean
    m = lam.size
    P, theta1 = np.zeros((m, m), order="F"), np.zeros(m)
    _natural_step(P, theta1, A, g, h, mu, scale, lam, 1.0)
    grad_mean = theta1 - dsymv(1.0, P, mean)
    PL = dsymm(1.0, P, L.T, side=1).T  # (L^T P)^T
    del P
    packed = PL[_tril_mask(m)]
    del PL
    np.negative(packed, out=packed)
    packed[_diag_positions(m)] += 1.0 / np.diag(L)
    return {"mean": grad_mean, "cov_factor": packed}


def _reverse_in_place(flat: np.ndarray) -> None:
    """Reverse a 1-D array in place, ``PASS_BYTES`` per block, with no full-size copy."""
    n = flat.size
    half = n // 2
    step = max(1, PASS_BYTES // 8)
    for a in range(0, half, step):
        b = min(a + step, half)
        head = flat[a:b].copy()
        flat[a:b] = flat[n - b:n - a][::-1]
        flat[n - b:n - a] = head[::-1]


class NaturalQ:
    """q(u) in natural parameters while ``fit`` runs: ``P = S^{-1}``, ``theta1 = P m``.

    ``P`` is Fortran-ordered and only its upper triangle is kept. ``L``
    (lower, ``L L^T = S``) and ``mean`` always belong to the current ``P``
    and ``theta1``. ``L`` lives in one M x M buffer that every
    refactoring reuses: ``J P J = R R^T`` by ``potrf``, then ``R^{-1}`` by
    ``trtri``, both in place on the buffer read in Fortran order, and the
    buffer reversed end to end then holds ``J R^{-T} J = L`` in C order.
    ``J`` reverses the index order. ``mean`` and ``L`` start as copies of
    the state's, so a step never writes into the state it started from.
    """

    def __init__(self, state: VariationalState, gamma: float):
        self.gamma = gamma
        self.mean = state.mean.copy()
        self.L = state.L.copy()
        self._buf = self.L.reshape(-1)
        P, info = dtrtri(self.L.T, lower=0)  # L^{-T}
        if info == 0:
            P, info = dlauum(P, lower=0, overwrite_c=1)  # L^{-T} L^{-1}
        if info != 0:
            raise np.linalg.LinAlgError(f"covariance factor is singular (LAPACK info {info})")
        self.P = P
        self.theta1 = dsymv(1.0, P, self.mean)

    def step(self, A, g, h, mu, scale: float, lam) -> None:
        """The natural-gradient step for one batch's terms; overwrites ``A``."""
        _natural_step(self.P, self.theta1, A, g, h, mu, scale, lam, self.gamma)
        m = self.mean.size
        W = self._buf.reshape((m, m), order="F")
        np.copyto(W, self.P[::-1, ::-1])  # its lower triangle is J P J's
        _, info = dpotrf(W, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            _, info = dtrtri(W, lower=1, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"q(u) precision is not positive definite (LAPACK info {info})"
            )
        _reverse_in_place(self._buf)
        self.mean = dtrmv(self.L.T, dtrmv(self.L.T, self.theta1), trans=1)  # L L^T theta1


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitConfig:
    """Training settings.

    ``lr_variational`` is the natural-gradient step size gamma of q(u), in
    (0, 1]: gamma = 1 jumps to the current batch's optimum of q(u) (for a
    Gaussian likelihood on the full batch, the collapsed bound's), smaller
    values average over batches. ``lr_hyper`` is Adam's step size for the
    variance, the spectral parameter, noise and the phases.
    """

    iterations: int = 500
    batch_size: int = 256
    lr_variational: float = 1e-2
    lr_hyper: float = 1e-3
    seed: int = 0
    log_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.lr_variational <= 1.0:
            raise ValueError(f"lr_variational must be in (0, 1], got {self.lr_variational}")


@dataclass
class TrainResult:
    """What ``fit`` trained. Adam's moments and step count stay local to ``fit``."""

    model: InducingModel
    state: VariationalState
    trace: list  # (iteration, elbo, wallclock seconds)


_B1, _B2, _EPS = 0.9, 0.999, 1e-8


def _adam_step(param, m, v, grad, lr: float, corr1: float, corr2: float) -> None:
    """One Adam ascent step on ``param`` and its moments ``m``, ``v``, all in place.

    The operations and their order are those of
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``param + lr (m / corr1) / (sqrt(v / corr2) + eps)``, so the result is
    bit-identical to evaluating those expressions, without their
    temporaries. Every argument is an ndarray; ``out=`` keeps 0-d blocks 0-d.
    """
    tmp = np.multiply(1.0 - _B1, grad, out=np.empty_like(grad))
    m *= _B1
    m += tmp
    np.multiply(1.0 - _B2, grad, out=tmp)
    tmp *= grad
    v *= _B2
    v += tmp
    np.divide(v, corr2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += _EPS
    update = np.divide(m, corr1, out=np.empty_like(m))
    update *= lr
    update /= tmp
    param += update


def fit(model, X, y, likelihood, config: FitConfig, state: VariationalState | None = None):
    """Maximize the ELBO: natural-gradient steps for q(u), Adam for the rest.

    q(u) steps with gamma = ``config.lr_variational`` (see the module
    docstring); the variance, the spectral parameter, the noise and the
    phases take Adam steps (b1=0.9, b2=0.999) of ``config.lr_hyper``. Both
    use the same batch's terms, from one ``elbo_gradients`` call. The
    spectral parameter is clipped to its family's bounds and phase rows are
    projected back to the sphere after every step; every ELBO call
    refactors their blocks, so the diagonal prior structure stays exact.
    The returned model's basis and spectrum are the ones the last steps
    trained: ``_basis_at`` of the final phases, and the spectrum at the
    final variance and spectral parameter. ``state`` is left unchanged.
    Deterministic under a fixed seed and single-threaded execution.
    """
    from .data_io import minibatches

    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.size:
        raise ValueError("inputs and targets disagree in length")
    n_total = X.shape[0]
    if state is None:
        state = init_state(model, likelihood)
    natural = NaturalQ(state, config.lr_variational)
    params = adam_blocks(state)
    del state  # q(u) lives in ``natural`` from here on, the rest in ``params``
    mom_m = {k: np.zeros_like(v) for k, v in params.items()}
    mom_v = {k: np.zeros_like(v) for k, v in params.items()}
    trace = []
    t_start = time.perf_counter()
    step = 0
    epoch = 0
    batch_iter = iter(())

    for it in range(config.iterations):
        try:
            idx = next(batch_iter)
        except StopIteration:
            batch_iter = minibatches(n_total, config.batch_size, epoch_seed=config.seed + epoch)
            epoch += 1
            idx = next(batch_iter)
        cur = _state_of(natural.mean, natural.L, params)
        try:
            value, grads = elbo_gradients(
                model, cur, X[idx], y[idx], likelihood, n_total, natural=natural
            )
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
                f"variance={cur.variance:.3e}, theta={cur.theta}, noise={cur.noise_variance}"
            )
        step += 1
        corr1 = 1.0 - _B1**step
        corr2 = 1.0 - _B2**step
        for key, grad in grads.items():
            _adam_step(params[key], mom_m[key], mom_v[key], grad, config.lr_hyper, corr1, corr2)
        if "log_theta" in params:
            lo, hi = model.spectrum.family.bounds
            np.clip(params["log_theta"], np.log(lo), np.log(hi), out=params["log_theta"])
        for key in params:
            if key.startswith(PHASE_PREFIX):
                params[key] /= np.linalg.norm(params[key], axis=1, keepdims=True)
        if it % config.log_every == 0 or it == config.iterations - 1:
            trace.append((it, float(value), time.perf_counter() - t_start))

    final = _state_of(natural.mean, natural.L, params)
    phases = {ell: V.copy() for ell, V in final.phases.items()}  # the basis owns its rows
    model_out = replace(
        model,
        basis=H.warn_jitter(_basis_at(model.basis, phases)),
        spectrum=model.spectrum.at(final.theta, final.variance),
    )
    return TrainResult(model=model_out, state=final, trace=trace)


# ---------------------------------------------------------------------------
# evaluation metrics
# ---------------------------------------------------------------------------

def auc_score(labels, scores) -> float:
    """Area under the ROC curve (rank statistic, ties averaged).

    A group of ``c`` tied scores ending at 1-based rank ``e`` shares the rank
    ``e - (c - 1) / 2``; these are exact half-integers, so the result equals
    the one from ``scipy.stats.rankdata`` bit for bit. NaN scores give NaN.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = labels == 1
    neg = labels == 0
    n_pos, n_neg = int(np.sum(pos)), int(np.sum(neg))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    if np.isnan(scores).any():
        return float("nan")
    _, inv, cnt = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(cnt) - 0.5 * (cnt - 1))[inv]
    return float((np.sum(ranks[pos]) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def class_probability(mu, v, likelihood) -> np.ndarray:
    """p(y = 1 | x) from the latent predictive mean and variance."""
    if likelihood.link == "probit":
        from scipy.special import ndtr

        return ndtr(mu / np.sqrt(1.0 + v))
    z = mu[:, None] + np.sqrt(2.0 * np.maximum(v, 1e-18))[:, None] * _GH_NODES[None, :]
    return expit(z) @ _GH_WEIGHTS


def heldout_metrics(y, mu, v, likelihood, noise_variance=None, target_scaler=None) -> dict:
    """Held-out metrics from the latent predictive mean and variance.

    RMSE and mean NLL for regression (``noise_variance`` is the trained
    noise), AUC and mean NLL for binary targets. For regression,
    ``target_scaler`` (mean, std) maps predictions back to the original
    units; ``y`` is expected in original units as well.
    """
    y = np.asarray(y, dtype=np.float64)
    if likelihood.kind == "gaussian":
        noise = noise_variance
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
    p = np.clip(class_probability(mu, v, likelihood), 1e-12, 1.0 - 1e-12)
    nll = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    return {"auc": auc_score(y, p), "mean_nll": nll}


def evaluate(model, state, X, y, likelihood, target_scaler=None) -> dict:
    """Held-out metrics of the model at X; see ``heldout_metrics``."""
    mu, v = predict(model, state, X)
    return heldout_metrics(
        y, mu, v, likelihood, noise_variance=state.noise_variance, target_scaler=target_scaler
    )
