import os

# one BLAS thread, as the CLI's deterministic mode: on a small host the
# default thread pool makes the BLAS-heavy tests several times slower
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dataclasses import dataclass

import numpy as np
import pytest

from sphgp import kernels as K


def random_sphere(rng, n, dim):
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture
def sphere_points():
    return random_sphere


def set_at(basis, ell):
    """The basis's fundamental set of frequency ``ell``."""
    (fs,) = [fs for fs in basis.sets if fs.frequency == ell]
    return fs


@dataclass(frozen=True)
class ExpDecay:
    """The spectral family lambda_l = exp(-theta l), known only to these tests."""

    name = "rate"
    bounds = (0.1, 4.0)

    def eigenvalues(self, theta, max_frequency):
        return np.exp(-theta * np.arange(max_frequency + 1.0))

    def derivative(self, theta, max_frequency):
        ells = np.arange(max_frequency + 1.0)
        return -ells * np.exp(-theta * ells)


def exp_decay_spectrum(theta, dim, max_frequency, variance=1.0):
    family = ExpDecay()
    return K.Spectrum(
        dim=dim, eigenvalues=family.eigenvalues(theta, max_frequency), variance=variance,
        family=family, theta=theta,
    )
