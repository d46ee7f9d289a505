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


def full_matrix_repel_directions(V, ell, dim, iters):
    """The repulsion of ``harmonics._repel_directions``, evaluated on the full m x m matrix.

    Every ordered pair and the diagonal go through the recurrence, and the
    diagonal is zeroed afterwards. This is the reference for bit identity,
    not for the maths: it runs the package's own recurrence so that equal
    inputs give equal bits, and differs only in evaluating each pair twice.
    """
    from sphgp import backend
    from sphgp.special_math import gegenbauer_at_one

    alpha = (dim - 2) / 2.0
    c_one = gegenbauer_at_one(alpha, ell)

    def energy_grad(M):
        t = M @ M.T
        np.fill_diagonal(t, 1.0)
        c, cp = backend.gegenbauer_last_and_slope(alpha, ell, np.clip(t, -1.0, 1.0, out=t))
        c /= c_one
        cp /= c_one
        np.fill_diagonal(c, 0.0)
        return 0.5 * float(np.sum(c * c)), (c * cp) @ M

    energy, grad = energy_grad(V)
    step = 0.1
    for _ in range(iters):
        tangent = grad - np.sum(grad * V, axis=1, keepdims=True) * V
        trial = V - step * tangent
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        e_trial, g_trial = energy_grad(trial)
        if e_trial < energy:
            V, energy, grad = trial, e_trial, g_trial
            step *= 1.1
        else:
            step *= 0.5
            if step < 1e-7:
                break
    return V


def two_candidate_fundamental_set(ell, dim, num_phases, seed=0):
    """``harmonics.build_fundamental_set`` as it was when each attempt scored two candidates.

    Each attempt scored the seeded random draw and, for more than one
    direction, its repelled copy by the Gram's condition number, and took
    the lower (the repelled copy on a tie). This is the reference for bit
    identity: it runs the package's own repulsion, Gram and factor, and
    differs only in scoring the random draw too.
    """
    from sphgp import harmonics as H

    for attempt in range(H.MAX_RESTARTS):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(seed, dim, ell, num_phases, attempt))
        )
        V = rng.standard_normal((num_phases, dim))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        candidates = [V]
        if num_phases > 1:
            candidates.insert(0, H._repel_directions(V, ell, dim, H._repel_budget(num_phases)))
        scored = [(H._condition_number(H.fundamental_gram(c, ell, dim)), c) for c in candidates]
        cond, cand = min(scored, key=lambda s: s[0])
        if cond < H.COND_LIMIT:
            fset = H.fundamental_set(ell, cand, dim)
            if fset.jitter == 0.0:
                return fset
    raise RuntimeError(f"no fundamental set for ell={ell}, d={dim}, m={num_phases}")


_FUNK_HECKE_REFERENCE = {  # (kind, depth, d): lambda_0..lambda_8
    ("composed_relu", 2, 12): (
        5.055462679955624298e-1,
        2.5684639741787383685e-2,
        1.7254274899018080464e-3,
        7.3158231572605002437e-5,
        1.0568815351100067992e-5,
        9.9855019673060677944e-7,
        3.3816980618555820279e-7,
        4.9452393156171968381e-8,
        2.3443227403834231701e-8,
    ),
    ("composed_relu", 2, 78): (
        4.9550762042698369641e-1,
        3.8803124785106223359e-3,
        4.4602398565163380074e-5,
        3.4971380717577244335e-7,
        9.4090786495930742892e-9,
        1.7897846753127389861e-10,
        1.2712391706424782706e-11,
        4.0619277439704249569e-13,
        4.4011510676745847193e-14,
    ),
    ("composed_relu", 3, 91): (
        6.0602271847791567961e-1,
        2.2144138388480381418e-3,
        2.5886316072230673586e-5,
        2.7319259178854442731e-7,
        6.1874069047839681477e-9,
        1.3980884722007821004e-10,
        6.4750783855293009285e-12,
        2.4603300876322918809e-13,
        1.7215922216714884218e-14,
    ),
    ("ntk", 2, 12): (
        2.4647363567358670387e-1,
        2.7826335308663240382e-2,
        2.6571614738316993414e-3,
        1.6574159742012158353e-4,
        2.9185990517540818086e-5,
        3.9777844419776824925e-6,
        1.4584712267285668268e-6,
        2.9780743142706828368e-7,
        1.4490049658766509311e-7,
    ),
    ("ntk", 2, 78): (
        2.3121901235443573744e-1,
        4.1244837595696383833e-3,
        6.6697805238988953021e-5,
        7.4337485428361251584e-7,
        2.311308776850573662e-8,
        6.0052257995637283397e-10,
        4.4351009006683573831e-11,
        1.8715201975655473131e-12,
        2.0098524591895958874e-13,
    ),
    ("ntk", 3, 91): (
        2.6694139677531897017e-1,
        2.5343248702307539791e-3,
        4.002659602158547282e-5,
        5.8446285642289808458e-7,
        1.5643356068413915829e-8,
        4.5666520948432274176e-10,
        2.304645588019803227e-11,
        1.0922870077824760592e-12,
        7.9882846524543375522e-14,
    ),
}


def funk_hecke_reference(kind, depth, dim):
    """Unit-variance Funk-Hecke eigenvalues lambda_0..lambda_8 of ``kind`` at ``depth`` and d.

    Adaptive tanh-sinh quadrature in theta at 60 significant digits, printed
    to 20; the shapes are written out from their formulas, not taken from
    ``sphgp.kernels``. Made with mpmath 1.3.0, which neither the package nor
    the tests import:

        import mpmath as mp
        mp.mp.dps = 60

        def relu(t):
            return (t * (mp.pi - mp.acos(t)) + mp.sqrt(1 - t * t)) / mp.pi

        def composed(depth):
            def k(t):
                for _ in range(depth):
                    t = relu(t)
                return t
            return k

        def ntk(depth):
            def k(t):
                s = theta = t
                for _ in range(depth):
                    s, theta = relu(s), relu(s) + theta * (mp.pi - mp.acos(s)) / mp.pi
                return theta / (depth + 1)
            return k

        def eigenvalue(shape, dim, ell):
            a = mp.mpf(dim - 2) / 2
            c_d = mp.gamma(mp.mpf(dim) / 2) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(dim - 1) / 2))
            f = lambda th: (shape(mp.cos(th)) * mp.gegenbauer(ell, a, mp.cos(th))
                            * mp.sin(th) ** (dim - 2))
            nodes = [0, mp.pi / 4, mp.pi / 2, 3 * mp.pi / 4, mp.pi]
            return c_d * mp.quad(f, nodes) / mp.gegenbauer(ell, a, 1)

        for kind, make in (("composed_relu", composed), ("ntk", ntk)):
            for dim, depth in ((12, 2), (78, 2), (91, 3)):
                print([mp.nstr(eigenvalue(make(depth), dim, ell), 20) for ell in range(9)])
    """
    return np.array(_FUNK_HECKE_REFERENCE[(kind, depth, dim)])
