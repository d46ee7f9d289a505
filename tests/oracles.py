"""Independent reference computations the tests check the package against.

Everything here is deliberately written from first principles (dense linear
algebra, adaptive quadrature, textbook formulas) and never calls back into
the code paths it is used to verify.
"""

import numpy as np


def dense_gaussian_kl(mean, cov, prior_cov):
    """KL(N(mean, cov) || N(0, prior_cov)) via the dense formula."""
    m = mean.size
    prior_inv = np.linalg.inv(prior_cov)
    return 0.5 * (
        np.trace(prior_inv @ cov)
        + mean @ prior_inv @ mean
        - m
        + np.linalg.slogdet(prior_cov)[1]
        - np.linalg.slogdet(cov)[1]
    )


def dense_log_marginal(y, gram, noise_variance):
    """log N(y; 0, gram + noise * I) by dense solve."""
    n = y.size
    sigma = gram + noise_variance * np.eye(n)
    alpha = np.linalg.solve(sigma, y)
    return -0.5 * (y @ alpha + np.linalg.slogdet(sigma)[1] + n * np.log(2.0 * np.pi))


def degenerate_feature_gram(features, lam):
    """Prior covariance of f at the feature rows: F diag(lam) F^T."""
    return (features * lam) @ features.T


def conjugate_posterior(features, lam, y, noise_variance):
    """Exact Gaussian posterior over feature weights for the degenerate GP."""
    prec = np.diag(1.0 / lam) + features.T @ features / noise_variance
    cov = np.linalg.inv(prec)
    mean = cov @ (features.T @ y) / noise_variance
    return mean, cov


def inducing_optimum(features, lam, y, noise_variance):
    """Optimal q(u) moments in the inducing parameterization (u = w / lam).

    These are the stationary points of the Gaussian-likelihood bound when the
    prior over u has the diagonal covariance diag(1/lam) and the predictive
    mean reads (lam * phi)^T m.
    """
    a = features * lam
    cov = np.linalg.inv(np.diag(lam) + a.T @ a / noise_variance)
    mean = cov @ (a.T @ y) / noise_variance
    return mean, cov


def gp_posterior_predictive(features_train, features_test, lam, y, noise_variance):
    """Exact predictive mean/variance of the degenerate GP at test rows."""
    mean_w, cov_w = conjugate_posterior(features_train, lam, y, noise_variance)
    mu = features_test @ mean_w
    var = np.einsum("ij,jk,ik->i", features_test, cov_w, features_test)
    return mu, var


def legendre_value(degree, t):
    """Legendre polynomials from an independent library implementation."""
    from scipy.special import eval_legendre

    return eval_legendre(degree, t)


def adaptive_shape_eigenvalue(shape, dim, ell, gegenbauer_fn, c_at_one, c_dim):
    """Kernel eigenvalue by scipy adaptive quadrature on the t-axis."""
    from scipy.integrate import quad

    def integrand(t):
        return (
            float(shape(np.array([t]))[0])
            * float(gegenbauer_fn(np.array([t]))[0])
            * (1.0 - t * t) ** ((dim - 3) / 2.0)
        )

    value, _ = quad(integrand, -1.0, 1.0, limit=200)
    return c_dim * value / c_at_one


def harmonic_count_by_homogeneous(ell, dim):
    """N(l, d) as a difference of homogeneous-polynomial dimensions."""
    from math import comb

    if ell == 0:
        return 1
    if ell == 1:
        return dim
    return comb(ell + dim - 1, ell) - comb(ell + dim - 3, ell - 2)


def _expected_loglik_reference(y, mu, var, noise, link):
    """Per-point E_q[log p(y | f)] and its derivatives in mu, var (and noise).

    Gaussian in closed form; Bernoulli by 20-point Gauss-Hermite quadrature
    of the textbook log-link densities.
    """
    if link is None:
        r2v = (y - mu) ** 2 + var
        e = -0.5 * np.log(2.0 * np.pi * noise) - r2v / (2.0 * noise)
        de_dnoise = -0.5 / noise + r2v / (2.0 * noise**2)
        return e, (y - mu) / noise, np.full_like(mu, -0.5 / noise), de_dnoise
    from scipy.special import expit
    from scipy.stats import norm

    nodes, weights = np.polynomial.hermite.hermgauss(20)
    weights = weights / np.sqrt(np.pi)
    sign = (2.0 * y - 1.0)[:, None]
    root = np.sqrt(2.0 * var)[:, None]
    z = sign * (mu[:, None] + root * nodes[None, :])
    if link == "probit":
        logp = norm.logcdf(z)
        dlogp = sign * norm.pdf(z) / norm.cdf(z)
    else:
        logp = -np.log1p(np.exp(-z))
        dlogp = sign * expit(-z)
    e = logp @ weights
    de_dmu = dlogp @ weights
    de_dvar = (dlogp * nodes[None, :] / root) @ weights
    return e, de_dmu, de_dvar, None


def dense_svgp_reference(F, lam, kxx, mean, L, y, scale, noise=None, link=None):
    """The SVGP bound and its adjoints through the dense covariance algebra.

    ``A = F * lam`` and q(u) = N(mean, S) against the prior N(0, diag(1/lam)).
    Everything goes through explicit ``S = L L^T``, ``C = A S``,
    ``s_bar = scale A^T diag(h) A`` (the data adjoint of S), ``s_bar @ L`` and
    ``L^{-T}``. Returns the value, the predictive mean and variance, and the
    gradients with respect to the mean, the lower triangle of ``L``, the
    per-feature ``lam``, ``kxx``, the noise and ``F`` (at fixed ``lam``).
    """
    A = F * lam
    S = L @ L.T
    C = A @ S
    mu = A @ mean
    var = kxx + np.einsum("ij,ij->i", C, A) - np.einsum("ij,ij->i", A, F)
    e, g, h, de_dnoise = _expected_loglik_reference(y, mu, var, noise, link)
    value = scale * np.sum(e) - dense_gaussian_kl(mean, S, np.diag(1.0 / lam))
    s_bar = scale * A.T @ (h[:, None] * A)
    inv_l_t = np.linalg.inv(L).T
    grad_l = np.tril(2.0 * s_bar @ L - lam[:, None] * L + inv_l_t)
    grad_lam = (
        scale * (F.T @ g) * mean
        + 2.0 * scale * np.einsum("ij,ij->j", h[:, None] * F, C)
        - scale * (F * F).T @ h
        - 0.5 * (np.diag(S) + mean * mean - 1.0 / lam)
    )
    return {
        "value": value,
        "mu": mu,
        "var": var,
        "mean": scale * A.T @ g - lam * mean,
        "L": grad_l,
        "lam": grad_lam,
        "kxx": scale * np.sum(h),
        "noise": None if de_dnoise is None else scale * np.sum(de_dnoise),
        "F": scale * (g[:, None] * (lam * mean) + 2.0 * h[:, None] * (lam * C - A)),
    }


def zonal_gram(spec, X, Y=None):
    """Prior Gram ``variance * sum_l ((l+alpha)/alpha) lambda_l C_l(x . y)``.

    Rows of ``X`` against rows of ``Y`` (``X`` itself by default), with the
    Gegenbauer polynomials from scipy.
    """
    from scipy.special import eval_gegenbauer

    X = np.atleast_2d(X)
    Y = X if Y is None else np.atleast_2d(Y)
    alpha = (spec.dim - 2) / 2.0
    t = np.clip(X @ Y.T, -1.0, 1.0)
    return spec.variance * sum(
        lam * (ell + alpha) / alpha * eval_gegenbauer(ell, alpha, t)
        for ell, lam in enumerate(spec.eigenvalues)
    )


def phase_block_reference(X, V, ell, dim):
    """Features of one trained frequency block, ``raw(X V^T) chol(gram)^{-T}``.

    ``raw(t) = ((ell + alpha) / alpha) C_ell^{(alpha)}(t)`` with alpha =
    (dim - 2) / 2, and ``gram`` is ``raw`` of ``V V^T`` with its diagonal
    pinned at t = 1. Returns the block and a function mapping an adjoint of
    the block to the gradient with respect to every entry of ``V``, computed
    in forward mode one coordinate at a time.
    """
    from scipy.special import eval_gegenbauer

    alpha = (dim - 2) / 2.0
    sc = (ell + alpha) / alpha

    def raw(t):
        return sc * eval_gegenbauer(ell, alpha, t)

    def raw_slope(t):
        return sc * 2.0 * alpha * eval_gegenbauer(ell - 1, alpha + 1.0, t)

    t_vv = V @ V.T
    np.fill_diagonal(t_vv, 1.0)
    chol = np.linalg.cholesky(raw(t_vv))
    inv_chol_t = np.linalg.inv(chol).T
    t_xv = X @ V.T
    block = raw(t_xv) @ inv_chol_t

    def vjp(block_bar):
        grad = np.zeros_like(V)
        for p in range(V.shape[0]):
            for q in range(V.shape[1]):
                dV = np.zeros_like(V)
                dV[p, q] = 1.0
                d_raw = raw_slope(t_xv) * (X @ dV.T)
                d_tvv = dV @ V.T + V @ dV.T
                np.fill_diagonal(d_tvv, 0.0)
                d_gram = raw_slope(t_vv) * d_tvv
                inner = np.linalg.solve(chol, np.linalg.solve(chol, d_gram).T)
                phi = np.tril(inner)
                phi[np.diag_indices_from(phi)] *= 0.5
                d_chol = chol @ phi
                d_block = (d_raw - block @ d_chol.T) @ inv_chol_t
                grad[p, q] = np.sum(block_bar * d_block)
        return grad

    return block, vjp
