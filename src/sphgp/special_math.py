"""Classical special functions and quadrature rules used across the package.

Everything here is pure and reentrant. Conventions:

* Spherical harmonics are orthonormal with respect to the *uniform
  probability measure* on the sphere. Under that convention the constant
  returned by :func:`funk_hecke_constant` makes the eigenvalue of the
  constant zonal function exactly 1.
* Gegenbauer polynomials use the standard normalization with
  ``C_0 = 1`` and ``C_1 = 2*alpha*t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend

T_CLAMP = 1e-12  # tolerated overshoot of |t| beyond 1 before it is an error


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on [-1, 1], exact through degree 2n-1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        if self.nodes.size != self.order or self.weights.size != self.order:
            raise ValueError("rule arrays must have length equal to the order")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if abs(float(np.sum(self.weights)) - 2.0) > 1e-12:
            raise ValueError("weights must sum to 2 on [-1, 1]")


def clamp_inner_product(t):
    """Clip t into [-1, 1], rejecting overshoots larger than ``T_CLAMP``."""
    t = np.asarray(t, dtype=np.float64)
    overshoot = np.max(np.abs(t)) - 1.0 if t.size else 0.0
    if overshoot > T_CLAMP:
        raise ValueError(f"inner product outside [-1, 1] by {overshoot:.3e}")
    return np.clip(t, -1.0, 1.0)


def gegenbauer_table(alpha: float, lmax: int, t) -> np.ndarray:
    """All degrees 0..lmax at once; shape (lmax+1, *t.shape)."""
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    t = clamp_inner_product(t)
    return backend.gegenbauer_all(alpha, lmax, t)


def gegenbauer_at_one(alpha: float, degree: int) -> float:
    """C_l^{(alpha)}(1) = binom(l + 2*alpha - 1, l)."""
    two_alpha = 2.0 * alpha
    if float(two_alpha).is_integer():
        return float(math.comb(degree + int(two_alpha) - 1, degree))
    return math.exp(
        math.lgamma(degree + two_alpha) - math.lgamma(two_alpha) - math.lgamma(degree + 1)
    )


def num_harmonics(ell: int, dim: int) -> int:
    """Count of linearly independent degree-ell harmonics on the (dim-1)-sphere.

    Computed exactly with integer arithmetic:
    N(0, d) = 1 and N(l, d) = (2l + d - 2)/(d - 2) * binom(l + d - 3, l).
    The count is an exact Python int at any size (N(14, 78) is 1.04e16, past
    float64's exact integers); callers compare it as an int and convert to
    float only where counts are summed with eigenvalues.
    """
    if dim < 3:
        raise ValueError(f"dimension must be >= 3, got {dim}")
    if ell < 0:
        raise ValueError(f"frequency must be >= 0, got {ell}")
    if ell == 0:
        return 1
    # (2l + d - 2) * binom(l + d - 3, l) is always divisible by (d - 2)
    numer = (2 * ell + dim - 2) * math.comb(ell + dim - 3, ell)
    count, rem = divmod(numer, dim - 2)
    assert rem == 0
    return count


def funk_hecke_constant(dim: int) -> float:
    """Normalizer c_d = Gamma(d/2) / (sqrt(pi) * Gamma((d-1)/2)).

    This is the constant that turns the weighted 1-D integral of a shape
    function against a Gegenbauer polynomial into the kernel eigenvalue,
    under the uniform-probability-measure convention (so the constant
    shape function gets eigenvalue exactly 1).
    """
    if dim < 3:
        raise ValueError(f"dimension must be >= 3, got {dim}")
    return math.exp(math.lgamma(dim / 2.0) - math.lgamma((dim - 1) / 2.0)) / math.sqrt(math.pi)


def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [-1, 1]."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(nodes=nodes, weights=weights, order=n)
