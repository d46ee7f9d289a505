"""Numeric backend: the Gegenbauer recurrence, in numpy.

The hot loop of the whole package is the three-term Gegenbauer recurrence
evaluated over large arrays of inner products. ``_recurrence`` is its one
implementation: vectorized over the points, with a Python loop over the
degree and three buffers that rotate in place. The public functions consume
its rows: ``gegenbauer_all`` keeps each of them, ``gegenbauer_last`` only
the last, and ``gegenbauer_last_and_slope`` the last plus a running sum for
the derivative. Each accepts an input of any shape and restores that shape
on the way out, and all three give bit-identical values at equal degree.

``gegenbauer_last_and_slope`` uses
``d/dt C_l^{(a)} = 2a C_{l-1}^{(a+1)} = 2 sum_{k = l-1, l-3, ...} (k + a) C_k^{(a)}``,
so the slope is summed from the rows the value's recurrence already
passes through, instead of running a second recurrence at ``a + 1``.

The benchmark under ``perfbench/`` times ``gegenbauer_last`` as the
``backend.gegenbauer_last_s`` layer (``--trace 1``); see ``perfbench/README.md``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    return "numpy"


def _recurrence(alpha: float, degree: int, flat: np.ndarray):
    """Yield (l, C_l^{(alpha)}(flat)) for l = 1..degree; nothing for degree 0.

    Each step runs in place as ``((s1 * t) * cur - s2 * prev) / l``. The
    yielded row is a buffer that later steps overwrite: copy it to keep it.
    """
    if degree < 1:
        return
    prev = np.ones_like(flat)
    cur = np.multiply(2.0 * alpha, flat)
    nxt = np.empty_like(flat)
    yield 1, cur
    for ell in range(2, degree + 1):
        np.multiply(2.0 * (ell + alpha - 1.0), flat, out=nxt)
        nxt *= cur
        prev *= ell + 2.0 * alpha - 2.0
        nxt -= prev
        nxt /= ell
        prev, cur, nxt = cur, nxt, prev
        yield ell, cur


def _flat(t):
    t = np.asarray(t, dtype=np.float64)
    return t, np.ascontiguousarray(t.reshape(-1))


def gegenbauer_all(alpha: float, lmax: int, t) -> np.ndarray:
    """C_l^{(alpha)}(t) for l = 0..lmax; output shape (lmax+1, *t.shape)."""
    t, flat = _flat(t)
    out = np.empty((lmax + 1, flat.size), dtype=np.float64)
    out[0] = 1.0
    for ell, row in _recurrence(alpha, lmax, flat):
        out[ell] = row
    return out.reshape((lmax + 1,) + t.shape)


def gegenbauer_last(alpha: float, degree: int, t) -> np.ndarray:
    """C_degree^{(alpha)}(t) only, with O(n) memory. Output shape matches t."""
    t, flat = _flat(t)
    if degree == 0:
        return np.ones_like(flat).reshape(t.shape)
    for _, last in _recurrence(alpha, degree, flat):
        pass
    return last.reshape(t.shape)


def gegenbauer_last_and_slope(alpha: float, degree: int, t):
    """C_degree^{(alpha)}(t) and its derivative in t, from one recurrence.

    The slope uses

        d/dt C_l^{(a)} = 2a C_{l-1}^{(a+1)} = 2 sum_{k = l-1, l-3, ... >= 0} (k + a) C_k^{(a)},

    accumulated as the recurrence passes each k: one BLAS ``daxpy`` every
    other degree instead of a second recurrence. At t = +-1 the summed terms
    share one sign, so nothing cancels. Output shapes match t.
    """
    # imported here so that commands which never train phases (``sphgp
    # eigvals``) do not pay for loading scipy.linalg
    from scipy.linalg.blas import daxpy

    t, flat = _flat(t)
    if degree == 0 or flat.size == 0:  # (daxpy rejects empty vectors)
        return np.ones_like(flat).reshape(t.shape), np.zeros_like(flat).reshape(t.shape)
    # half the slope; when degree is odd it starts at the k = 0 term, when it
    # is even at the k = 1 term, met on the first row
    half = np.full_like(flat, alpha) if degree % 2 else None
    for ell, last in _recurrence(alpha, degree, flat):
        if ell < degree and (degree - ell) % 2 == 1:
            if half is None:
                half = np.multiply(ell + alpha, last)
            else:
                half = daxpy(last, half, a=ell + alpha)
    half *= 2.0
    return last.reshape(t.shape), half.reshape(t.shape)
