"""Spherical-harmonic feature bases built from fundamental point sets.

A frequency-``ell`` feature block is constructed from ``m`` unit directions
``V`` on the sphere: the raw features are the scaled Gegenbauer columns
``a_i(x) = ((ell+alpha)/alpha) * C_ell(v_i . x)`` (each a genuine degree-ell
harmonic), and the block is orthonormalized by the inverse Cholesky factor of
their Gram matrix ``A = ((ell+alpha)/alpha) * C_ell(V V^T)``. With a full set
(``m`` equal to the number of independent harmonics) the block spans all of
frequency ``ell``; with fewer directions it spans an ``m``-dimensional
orthonormal subspace, which is what makes high frequency cutoffs affordable.
Every block, built, loaded, trained or frozen, is made by ``fundamental_set``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm

from . import backend
from .special_math import gegenbauer_at_one, num_harmonics

log = logging.getLogger(__name__)

COND_LIMIT = 1e8
MAX_RESTARTS = 4
JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


def alpha_for_dim(dim: int) -> float:
    if dim < 3:
        raise ValueError(f"dimension must be >= 3, got {dim}")
    return (dim - 2) / 2.0


def addition_scale(ell: int, dim: int) -> float:
    """(ell + alpha) / alpha, the addition-theorem prefactor."""
    a = alpha_for_dim(dim)
    return (ell + a) / a


def direction_cosines(V: np.ndarray) -> np.ndarray:
    """``V V^T`` with the diagonal pinned at 1, clipped to [-1, 1].

    The pinned diagonal does not move with the row norms while phases train.
    """
    t = V @ V.T
    np.fill_diagonal(t, 1.0)
    return np.clip(t, -1.0, 1.0, out=t)


def fundamental_gram(directions: np.ndarray, ell: int, dim: int) -> np.ndarray:
    """Gram matrix of the raw frequency-ell features at the given directions."""
    t = direction_cosines(directions)
    return addition_scale(ell, dim) * backend.gegenbauer_last(alpha_for_dim(dim), ell, t)


@dataclass(frozen=True)
class FundamentalSet:
    """Directions for one frequency plus the Cholesky factor of their Gram."""

    frequency: int
    directions: np.ndarray  # (m, d), unit rows
    gram_chol: np.ndarray  # (m, m), lower triangular
    jitter: float  # diagonal jitter the factorization needed, 0.0 if none
    gram_slope: np.ndarray | None = None  # (m, m) d/dt C_ell(V V^T), if asked for

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def num_phases(self) -> int:
        return self.directions.shape[0]

    @property
    def is_full(self) -> bool:
        return self.num_phases == num_harmonics(self.frequency, self.dim)


def _chol_with_jitter(gram: np.ndarray):
    """Cholesky with an escalating diagonal jitter; returns (L, jitter used)."""
    m = gram.shape[0]
    scale = float(np.trace(gram)) / m
    for level in (0.0,) + JITTER_LADDER:
        try:
            L = np.linalg.cholesky(gram + (level * scale) * np.eye(m))
            return L, level * scale
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "Gram matrix is rank deficient even at maximum jitter; "
        "phase directions have collapsed onto each other"
    )


def _condition_number(gram: np.ndarray) -> float:
    eig = np.linalg.eigvalsh(gram)
    if eig[0] <= 0:
        return np.inf
    return float(eig[-1] / eig[0])


def _repel_budget(m: int) -> int:
    if m <= 64:
        return 200
    if m <= 256:
        return 120
    return 60


def _repel_directions(V: np.ndarray, ell: int, dim: int, iters: int) -> np.ndarray:
    """Spread directions by descending the off-diagonal Gram energy.

    The energy is sum over pairs of (C_ell(v_i . v_j) / C_ell(1))^2, i.e. it
    pushes the normalized Gram of the raw features toward the identity. This
    is frequency aware: for even ell an antipodal pair is just as singular as
    a coincident one, and both are penalized.

    Each pair is evaluated once, on the strict upper triangle of ``V V^T``,
    and mirrored into one reused m x m buffer that holds c for the energy and
    then c * c' for the gradient. ``V V^T`` is exactly symmetric (BLAS syrk),
    so the energy and gradient are summed over the same full matrices, in the
    same order, as a full evaluation: the output is unchanged to the bit.
    """
    alpha = alpha_for_dim(dim)
    c_one = gegenbauer_at_one(alpha, ell)
    upper = np.triu(np.ones((len(V), len(V)), dtype=bool), 1)
    full = np.zeros(upper.shape)  # its diagonal stays 0

    def mirrored(values):
        full[upper] = values
        full.T[upper] = values
        return full

    def energy_grad(M):
        t = (M @ M.T)[upper]
        c, cp = backend.gegenbauer_last_and_slope(alpha, ell, np.clip(t, -1.0, 1.0, out=t))
        c /= c_one
        cp /= c_one
        e = 0.5 * float(np.sum(np.square(mirrored(c), out=full)))
        c *= cp
        return e, mirrored(c) @ M

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


def build_fundamental_set(ell: int, dim: int, num_phases: int, seed: int = 0) -> FundamentalSet:
    """Pick ``num_phases`` well-separated directions for frequency ``ell``.

    Each attempt has one candidate: a seeded random draw, spread by the
    repulsion above when there is more than one direction. It is accepted
    only if its Gram has condition number below ``COND_LIMIT`` and factors
    without jitter. Retries with fresh seeds up to ``MAX_RESTARTS`` times.
    """
    if ell < 1:
        raise ValueError("frequency must be >= 1 (0 is the constant feature)")
    full = num_harmonics(ell, dim)
    if not 1 <= num_phases <= full:
        raise ValueError(
            f"num_phases must be in [1, N({ell},{dim})={full}], got {num_phases}"
        )
    best_cond = np.inf
    for attempt in range(MAX_RESTARTS):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(seed, dim, ell, num_phases, attempt))
        )
        V = rng.standard_normal((num_phases, dim))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        if num_phases > 1:
            V = _repel_directions(V, ell, dim, _repel_budget(num_phases))
        cond = _condition_number(fundamental_gram(V, ell, dim))
        best_cond = min(best_cond, cond)
        if cond < COND_LIMIT:
            fset = fundamental_set(ell, V, dim)
            if fset.jitter == 0.0:
                return fset
    raise RuntimeError(
        f"could not build a fundamental set for ell={ell}, d={dim}, m={num_phases} "
        f"after {MAX_RESTARTS} restarts; best condition number {best_cond:.3e}"
    )


def fundamental_set(ell: int, V: np.ndarray, dim: int, slope: bool = False) -> FundamentalSet:
    """The block for unit directions ``V``: ``fundamental_gram`` and its Cholesky.

    A Gram that fails to factor gets the smallest jitter from a fixed ladder
    (relative to trace/m), recorded on the set but not logged, since training
    refactors every step; ``warn_jitter`` reports a finished basis.

    With ``slope`` the set also keeps ``gram_slope``, d/dt C_ell at the
    Gram's cosines, taken from the Gram's own recurrence; the phase
    gradients need it, scoring rows does not.
    """
    if slope:
        t = direction_cosines(V)
        c, gram_slope = backend.gegenbauer_last_and_slope(alpha_for_dim(dim), ell, t)
        gram = addition_scale(ell, dim) * c
    else:
        gram, gram_slope = fundamental_gram(V, ell, dim), None
    chol, jitter = _chol_with_jitter(gram)
    return FundamentalSet(
        frequency=ell, directions=V, gram_chol=chol, jitter=jitter, gram_slope=gram_slope
    )


@dataclass(frozen=True)
class HarmonicBasis:
    """Constant feature plus per-frequency fundamental sets up to a cutoff."""

    dim: int
    max_frequency: int
    sets: tuple[FundamentalSet, ...]

    def __post_init__(self):
        seen = set()
        for fs in self.sets:
            if fs.dim != self.dim:
                raise ValueError("fundamental set dimension mismatch")
            if not 1 <= fs.frequency <= self.max_frequency:
                raise ValueError("fundamental set frequency out of range")
            if fs.frequency in seen:
                raise ValueError("duplicate frequency in basis")
            seen.add(fs.frequency)

    @property
    def num_features(self) -> int:
        return 1 + sum(fs.num_phases for fs in self.sets)

    def feature_frequencies(self) -> np.ndarray:
        """Frequency of every feature column, length num_features."""
        freqs = [0]
        for fs in self.sets:
            freqs.extend([fs.frequency] * fs.num_phases)
        return np.asarray(freqs, dtype=np.int64)

    def blocks(self):
        """Yield (frequency, column slice, set-or-None) in feature order."""
        yield 0, slice(0, 1), None
        col = 1
        for fs in self.sets:
            yield fs.frequency, slice(col, col + fs.num_phases), fs
            col += fs.num_phases


def warn_jitter(basis: HarmonicBasis) -> HarmonicBasis:
    """Log each block of a finished basis whose Gram needed jitter; returns the basis."""
    for fs in basis.sets:
        if fs.jitter > 0:
            log.warning("frequency %d: Gram needed jitter %.3e", fs.frequency, fs.jitter)
    return basis


def build_basis(
    dim: int, max_frequency: int, seed: int = 0, counts: dict[int, int] | None = None
) -> HarmonicBasis:
    """Build a basis for frequencies 0..max_frequency.

    ``counts`` sets the phase count per frequency and may assign 0 to skip a
    frequency entirely; a frequency it does not name gets a full set.
    """
    if max_frequency < 0:
        raise ValueError("max_frequency must be >= 0")
    sets = []
    for ell in range(1, max_frequency + 1):
        if counts is not None and ell in counts:
            m = counts[ell]
        else:
            m = num_harmonics(ell, dim)
        if m == 0:
            continue
        sets.append(build_fundamental_set(ell, dim, m, seed=seed))
    return HarmonicBasis(dim=dim, max_frequency=max_frequency, sets=tuple(sets))


def _as_matrix(x, dim: int):
    coords = np.asarray(x, dtype=np.float64)
    single = coords.ndim == 1
    coords = np.atleast_2d(coords)
    if coords.shape[1] != dim:
        raise ValueError(f"points have dimension {coords.shape[1]}, basis expects {dim}")
    return coords, single


def features(basis: HarmonicBasis, x, slopes=()):
    """Evaluate the orthonormalized feature vector(s) at point(s) ``x``.

    For a full phase set the features reproduce the addition theorem:
    sum_i phi_i(x) phi_i(y) = ((ell+alpha)/alpha) * C_ell(x . y).

    Each block is ``F_b = sc * C_ell(t) L_b^{-T}`` with ``t = clip(X V_b^T)``,
    computed as one right-side BLAS triangular solve that folds the
    addition-theorem scale ``sc`` in as its multiplier.

    ``slopes`` names the frequencies whose slopes are wanted. When it names
    any, the result is ``(F, slope_of)``, where ``slope_of`` maps each named
    frequency to the (N, m) array d/dt C_ell(t), taken from the same
    recurrence as the values; the phase gradients need it, predictions do not.
    """
    X, single = _as_matrix(x, basis.dim)
    alpha = alpha_for_dim(basis.dim)
    out = np.empty((X.shape[0], basis.num_features), dtype=np.float64)
    slope_of = {}
    for ell, cols, fs in basis.blocks():
        if ell == 0:
            out[:, 0] = 1.0
            continue
        t = X @ fs.directions.T
        np.clip(t, -1.0, 1.0, out=t)
        if ell in slopes:
            c, slope_of[ell] = backend.gegenbauer_last_and_slope(alpha, ell, t)
        else:
            c = backend.gegenbauer_last(alpha, ell, t)
        out[:, cols] = dtrsm(
            addition_scale(ell, basis.dim), fs.gram_chol, c, side=1, lower=1, trans_a=1
        )
    F = out[0] if single else out
    return (F, slope_of) if slopes else F


# --- flat array serialization (used by the model checkpoint) ---------------

BASIS_FORMAT_VERSION = 1
UNIT_TOL = 1e-12  # largest | ||v|| - 1 | a loaded direction row may have


def basis_to_arrays(basis: HarmonicBasis) -> dict[str, np.ndarray]:
    arrays = {
        "basis_version": np.asarray(BASIS_FORMAT_VERSION, dtype=np.int64),
        "basis_dim": np.asarray(basis.dim, dtype=np.int64),
        "basis_max_frequency": np.asarray(basis.max_frequency, dtype=np.int64),
        "basis_frequencies": np.asarray(
            [fs.frequency for fs in basis.sets], dtype=np.int64
        ),
    }
    for fs in basis.sets:
        arrays[f"basis_V_{fs.frequency}"] = np.ascontiguousarray(
            fs.directions, dtype=np.float64
        )
    return arrays


def basis_from_arrays(arrays) -> HarmonicBasis:
    version = int(arrays["basis_version"])
    if version != BASIS_FORMAT_VERSION:
        raise ValueError(f"unsupported basis format version {version}")
    dim = int(arrays["basis_dim"])
    max_frequency = int(arrays["basis_max_frequency"])
    sets = []
    for ell in np.asarray(arrays["basis_frequencies"], dtype=np.int64):
        ell = int(ell)
        V = np.asarray(arrays[f"basis_V_{ell}"], dtype=np.float64)
        norm_error = np.abs(np.linalg.norm(V, axis=1) - 1.0)
        if not np.all(norm_error <= UNIT_TOL):  # a NaN or inf row fails too
            raise ValueError(
                f"basis_V_{ell} rows must be finite unit vectors; "
                f"largest norm error {np.max(norm_error):.3e}"
            )
        sets.append(fundamental_set(ell, V, dim))
    return warn_jitter(HarmonicBasis(dim=dim, max_frequency=max_frequency, sets=tuple(sets)))
