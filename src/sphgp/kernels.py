"""Zonal kernels on the sphere, defined by shape functions or by spectra.

A zonal kernel is ``k(x, y) = variance * kappa(x . y)`` for a shape function
``kappa`` on [-1, 1] normalized so ``kappa(1) = 1``. Its eigenvalues over the
spherical harmonics come from a one-dimensional weighted integral of the
shape against Gegenbauer polynomials; conversely a spectrum defines a kernel
through the truncated polynomial expansion

    k(x, y) = variance * sum_l ((l+alpha)/alpha) * lambda_l * C_l(x . y).

The spherical-harmonic features make the prior over the inducing variables
diagonal, so the package only evaluates that sum on the diagonal, where it is
``variance * sum_l N(l, d) lambda_l`` (``mercer_diag_value``).

A spectrum of a family (``PolyDecay``: ``l**-beta``) has one trainable
parameter ``theta``; Funk-Hecke spectra have no family and stay fixed.

``KINDS``, the one table of kernel kinds, maps each kind name to the one
parameter it takes and to how its spectrum is built. ``parse_kernel`` reads
the one kernel spec, ``<kind>:<param>=<value>[,<field>=<value>...]``, whose
fields are the family's, for configs and ``sphgp eigvals``. ``checkpoint``
owns the ``spectrum_*`` keys, which name a family by its row here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .special_math import (
    clamp_inner_product,
    funk_hecke_constant,
    gauss_legendre,
    gegenbauer_at_one,
    gegenbauer_table,
    num_harmonics,
)

EIG_CLAMP = 1e-10  # quadrature results in [-EIG_CLAMP, 0] clamp to 0; below aborts


# ---------------------------------------------------------------------------
# shape functions
# ---------------------------------------------------------------------------

class ReluShape:
    """Angular factor of the first-order arc-cosine kernel, scaled to 1 at t=1."""

    def __call__(self, t):
        t = clamp_inner_product(t)
        return (t * (np.pi - np.arccos(t)) + np.sqrt(np.maximum(0.0, 1.0 - t * t))) / np.pi


def relu_derivative_shape(t):
    """d/dt of the relu shape: (pi - arccos t) / pi (the order-0 arc-cosine shape)."""
    t = clamp_inner_product(t)
    return (np.pi - np.arccos(t)) / np.pi


class ComposedShape:
    """depth-fold self-composition of a normalized base shape."""

    def __init__(self, base, depth: int):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.base = base
        self.depth = depth

    def __call__(self, t):
        v = np.asarray(t, dtype=np.float64)
        for _ in range(self.depth):
            v = self.base(v)
        return v


class NtkShape:
    """Depth-L tangent-kernel shape for ReLU networks, scaled to 1 at t=1.

    Recursion over layers with s0 = theta0 = t:
        s_l     = kappa(s_{l-1})
        theta_l = s_l + theta_{l-1} * kappa_dot(s_{l-1})
    where kappa is the relu shape and kappa_dot its derivative. theta_L(1)
    equals L+1, which is the normalizer.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        self._relu = ReluShape()

    def __call__(self, t):
        s = np.asarray(clamp_inner_product(t), dtype=np.float64)
        theta = s.copy()
        for _ in range(self.depth):
            kd = relu_derivative_shape(s)
            s = self._relu(s)
            theta = s + theta * kd
        return theta / (self.depth + 1.0)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyDecay:
    """A spectral family: ``lambda_l = l**-beta`` for l >= 1 and a fixed ``lambda0``.

    A family gives the eigenvalues of frequencies 0..max_frequency at its
    parameter ``theta`` (here beta) and their derivative in ``theta``, the
    ``bounds`` training keeps ``theta`` in, and the parameter's ``name``.
    """

    lambda0: float = 1.0
    name = "beta"
    bounds = (0.05, 10.0)

    def __post_init__(self):
        if not (np.isfinite(self.lambda0) and self.lambda0 > 0):
            raise ValueError(f"lambda0 must be finite and > 0, got {self.lambda0}")

    def eigenvalues(self, theta: float, max_frequency: int) -> np.ndarray:
        ells = np.arange(max_frequency + 1, dtype=np.float64)
        lam = np.empty(max_frequency + 1)
        lam[0] = self.lambda0
        lam[1:] = ells[1:] ** (-theta)
        return lam

    def derivative(self, theta: float, max_frequency: int) -> np.ndarray:
        ells = np.arange(max_frequency + 1, dtype=np.float64)
        grad = np.zeros_like(ells)
        grad[1:] = -np.log(ells[1:]) * ells[1:] ** (-theta)
        return grad


@dataclass(frozen=True)
class Spectrum:
    """Per-frequency eigenvalues of a zonal kernel, plus the radial variance.

    ``eigenvalues[l]`` is the unit-variance eigenvalue of frequency l; the
    kernel scale enters through ``variance`` only. A spectrum with a
    ``family`` holds the family's eigenvalues at ``theta``, which trains.
    """

    dim: int
    eigenvalues: np.ndarray
    variance: float = 1.0
    family: PolyDecay | None = None  # or any object with PolyDecay's members
    theta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=np.float64))
        if self.dim < 3:
            raise ValueError(f"dimension must be >= 3, got {self.dim}")
        if not self.variance > 0:
            raise ValueError("variance must be positive")
        lam = self.eigenvalues
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a non-empty 1-D array")
        if np.any(lam < 0):
            raise ValueError("eigenvalues must be non-negative")
        if not np.any(lam > 0):
            raise ValueError("at least one eigenvalue must be positive")
        if self.family is not None and lam.size > 2 and np.any(np.diff(lam[1:]) >= 0):
            raise ValueError("a family's eigenvalues must be strictly decreasing")

    @property
    def max_frequency(self) -> int:
        return self.eigenvalues.size - 1

    def at(self, theta: float | None, variance: float) -> "Spectrum":
        """This spectrum at ``variance`` and, for a family, at ``theta`` (None keeps it)."""
        if self.family is None or theta is None:
            return replace(self, variance=float(variance))
        lam = self.family.eigenvalues(theta, self.max_frequency)
        return replace(self, eigenvalues=lam, variance=float(variance), theta=theta)


def poly_decay_spectrum(
    beta: float, dim: int, max_frequency: int, lambda0: float = 1.0, variance: float = 1.0
) -> Spectrum:
    """Spectrum lambda_l = l**-beta for l >= 1; the l=0 term is ``lambda0``."""
    values = {"beta": beta, "lambda0": float(lambda0)}
    return KINDS["poly_decay"].spectrum(values, dim, max_frequency, variance)


def funk_hecke_spectrum(
    shape,
    dim: int,
    max_frequency: int,
    quad_order: int | None = None,
    variance: float = 1.0,
) -> Spectrum:
    """Eigenvalues of a shape function by weighted Gauss-Legendre quadrature.

    The integral over t in [-1, 1] with weight (1 - t^2)^((d-3)/2) is taken
    after the substitution t = cos(theta), where both the weight (sin^{d-2})
    and the arc-cosine family of shapes are analytic, so the rule converges
    spectrally for every integer dimension.

    In theta, ``sin^{d-2} C_l(cos)`` has degree d - 2 + l, so the rule takes at
    least ``dim + max_frequency`` nodes (64 made lambda_13 5.8x too large at
    d=78); the default is ``max(64, max_frequency + 32)`` at every d <= 32.
    """
    if dim < 3:
        raise ValueError(f"dimension must be >= 3, got {dim}")
    if max_frequency < 0:
        raise ValueError("max_frequency must be >= 0")
    least = max(max_frequency + 16, dim + max_frequency)
    if quad_order is None:
        quad_order = max(64, max_frequency + 32, least)
    if quad_order < least:
        raise ValueError(
            f"quad_order must be >= max(max_frequency + 16, dim + max_frequency) = {least}"
        )
    rule = gauss_legendre(quad_order)
    theta = (rule.nodes + 1.0) * (np.pi / 2.0)
    w = rule.weights * (np.pi / 2.0) * np.sin(theta) ** (dim - 2)
    tq = np.cos(theta)
    alpha = (dim - 2) / 2.0
    ctab = gegenbauer_table(alpha, max_frequency, tq)
    kvals = np.asarray(shape(tq), dtype=np.float64)
    integrals = ctab @ (w * kvals)
    c_at_one = np.array(
        [gegenbauer_at_one(alpha, ell) for ell in range(max_frequency + 1)]
    )
    lam = funk_hecke_constant(dim) * integrals / c_at_one
    if np.any(lam < -EIG_CLAMP):
        worst = float(np.min(lam))
        raise ValueError(
            f"eigenvalue {worst:.3e} below -{EIG_CLAMP:.0e}: shape function is not "
            "positive definite on the sphere (or the quadrature failed)"
        )
    return Spectrum(dim=dim, eigenvalues=np.maximum(lam, 0.0), variance=variance)


# ---------------------------------------------------------------------------
# kernel kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """A kernel kind: its one parameter and how its spectrum is built, as a ``family``
    at the parameter (finite, > 0; it trains) or by quadrature of ``shape(parameter)``."""

    param: str
    cast: type
    family: type | None = None
    shape: Callable | None = None

    def defaults(self) -> dict:
        """The family's fields, which a kernel spec may set, and their defaults."""
        return {f.name: f.default for f in fields(self.family)} if self.family else {}

    def spectrum(self, values: dict, dim, max_frequency, variance=1.0, quad_order=0):
        """The spectrum of a spec's ``values``: the parameter, then the family's fields."""
        theta = values[self.param]
        if self.family is None:
            shape = self.shape(theta)
            return funk_hecke_spectrum(shape, dim, max_frequency, quad_order or None, variance)
        if not (np.isfinite(theta) and theta > 0):
            raise ValueError(f"{self.param} must be finite and > 0, got {theta}")
        family = self.family(**{k: v for k, v in values.items() if k != self.param})
        lam = family.eigenvalues(theta, max_frequency)
        return Spectrum(dim, lam, variance, family, float(theta))


KINDS = {
    "poly_decay": Kind("beta", float, family=PolyDecay),
    "composed_relu": Kind("depth", int, shape=lambda depth: ComposedShape(ReluShape(), depth)),
    "ntk": Kind("depth", int, shape=NtkShape),
}


def parse_kernel(text: str) -> tuple[str, dict]:
    """The kind and checked values of ``<kind>:<param>=<value>[,<field>=<value>...]``: the
    parameter, which is required, then each family field, given or at its default."""
    name, _, rest = (part.strip() for part in text.partition(":"))
    if name not in KINDS:
        raise ValueError(f"unknown kernel {name!r} (use {'|'.join(KINDS)})")
    kind = KINDS[name]
    defaults = kind.defaults()
    casts = {kind.param: kind.cast, **{key: type(value) for key, value in defaults.items()}}
    given = {}
    for key, _, val in (map(str.strip, piece.partition("=")) for piece in rest.split(",") if rest):
        if key not in casts:
            raise ValueError(f"kernel {name} takes {', '.join(casts)}, not {key!r}")
        if key in given:
            raise ValueError(f"kernel {name} takes {key} once")
        given[key] = casts[key](val)
    if kind.param not in given:
        raise ValueError(f"kernel {name} needs its {kind.param}: {name}:{kind.param}=<value>")
    values = {kind.param: given[kind.param], **{k: given.get(k, v) for k, v in defaults.items()}}
    kind.spectrum(values, 3, 0)  # building the family or the shape checks the values
    return name, values


def canonical_kernel(text: str) -> str:
    """The spec ``text`` in canonical form: every field written out, floats with ``repr``."""
    name, values = parse_kernel(text)
    return f"{name}:" + ",".join(f"{key}={value!r}" for key, value in values.items())


def config_spectrum(cfg, dim: int) -> Spectrum:
    """The prior spectrum of a run config at input dimension ``dim``."""
    name, values = parse_kernel(cfg.kernel)
    return KINDS[name].spectrum(values, dim, cfg.max_frequency, cfg.variance0, cfg.quad_order)


def parse_spectrum(text: str, dim: int, max_frequency: int, quad_order: int = 0) -> Spectrum:
    """The unit-variance spectrum of a kernel spec, ``poly_decay:beta=1.5``, ``ntk:depth=2``..."""
    name, values = parse_kernel(text)
    return KINDS[name].spectrum(values, dim, max_frequency, quad_order=quad_order)


# ---------------------------------------------------------------------------
# truncated Mercer evaluation
# ---------------------------------------------------------------------------

def harmonic_counts(spec: Spectrum) -> np.ndarray:
    """N(l, d) as floats for every frequency l of the spectrum."""
    return np.array(
        [float(num_harmonics(ell, spec.dim)) for ell in range(spec.max_frequency + 1)]
    )


def mercer_diag_value(spec: Spectrum) -> float:
    """k(x, x), identical for every unit vector x: variance * sum_l N(l,d) lambda_l."""
    return float(spec.variance * np.dot(harmonic_counts(spec), spec.eigenvalues))


def export_spectrum(spec: Spectrum, path) -> None:
    """Write (frequency, eigenvalue relative to lambda_1) rows as CSV."""
    lam = spec.eigenvalues
    if lam.size < 2 or lam[1] <= 0:
        raise ValueError("export requires a positive eigenvalue at frequency 1")
    lines = ["frequency,relative_eigenvalue"]
    for ell in range(1, lam.size):
        lines.append(f"{ell},{lam[ell] / lam[1]:.17g}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
