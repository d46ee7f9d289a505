"""Numeric backend: the Gegenbauer recurrences, in numpy.

The hot loops of the whole package are three-term Gegenbauer recurrences
evaluated over large arrays of inner products. Each function here runs the
recurrence vectorized over the points with a Python loop over the degree,
accepts an input of any shape and restores that shape on the way out.

``gegenbauer_last_and_slope`` returns the value together with its
derivative, which the phase gradients need. It uses
``d/dt C_l^{(a)} = 2a C_{l-1}^{(a+1)} = 2 sum_{k = l-1, l-3, ...} (k + a) C_k^{(a)}``,
so the slope is summed from the terms the value's recurrence already
passes through, instead of running a second recurrence at ``a + 1``.

The benchmark under ``perfbench/`` times ``gegenbauer_last`` as the
``backend.gegenbauer_last_s`` layer (``--trace 1``); see ``perfbench/README.md``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    return "numpy"


def gegenbauer_all(alpha: float, lmax: int, t) -> np.ndarray:
    """C_l^{(alpha)}(t) for l = 0..lmax; output shape (lmax+1, *t.shape)."""
    t = np.asarray(t, dtype=np.float64)
    flat = np.ascontiguousarray(t.reshape(-1))
    out = np.empty((lmax + 1, flat.size), dtype=np.float64)
    out[0] = 1.0
    if lmax >= 1:
        out[1] = 2.0 * alpha * flat
    for ell in range(2, lmax + 1):
        out[ell] = (
            2.0 * (ell + alpha - 1.0) * flat * out[ell - 1]
            - (ell + 2.0 * alpha - 2.0) * out[ell - 2]
        ) / ell
    return out.reshape((lmax + 1,) + t.shape)


def gegenbauer_last(alpha: float, degree: int, t) -> np.ndarray:
    """C_degree^{(alpha)}(t) only, via the same recurrence with O(n) memory.

    Three buffers rotate through the degrees and every step runs in place,
    in the same order of operations as the table recurrence
    (``(s1 * t) * cur - s2 * prev``, then ``/ ell``), so the values are
    bit-identical to ``gegenbauer_all(...)[degree]``. Output shape matches t.
    """
    t = np.asarray(t, dtype=np.float64)
    flat = np.ascontiguousarray(t.reshape(-1))
    if degree == 0:
        return np.ones_like(flat).reshape(t.shape)
    prev = np.ones_like(flat)
    cur = np.multiply(2.0 * alpha, flat)
    nxt = np.empty_like(flat)
    for ell in range(2, degree + 1):
        np.multiply(2.0 * (ell + alpha - 1.0), flat, out=nxt)
        nxt *= cur
        prev *= ell + 2.0 * alpha - 2.0
        nxt -= prev
        nxt /= ell
        prev, cur, nxt = cur, nxt, prev
    return cur.reshape(t.shape)


def gegenbauer_last_and_slope(alpha: float, degree: int, t):
    """C_degree^{(alpha)}(t) and its derivative in t, from one recurrence.

    The value is bit-identical to ``gegenbauer_last``: the same buffers
    rotate through the same in-place steps. The slope uses

        d/dt C_l^{(a)} = 2a C_{l-1}^{(a+1)} = 2 sum_{k = l-1, l-3, ... >= 0} (k + a) C_k^{(a)},

    accumulated as the recurrence passes each k: one BLAS ``daxpy`` every
    other degree instead of a second recurrence. At t = +-1 the summed terms
    share one sign, so nothing cancels. Output shapes match t.
    """
    # imported here so that commands which never train phases (``sphgp
    # eigvals``) do not pay for loading scipy.linalg
    from scipy.linalg.blas import daxpy

    t = np.asarray(t, dtype=np.float64)
    flat = np.ascontiguousarray(t.reshape(-1))
    if degree == 0 or flat.size == 0:  # (daxpy rejects empty vectors)
        return np.ones_like(flat).reshape(t.shape), np.zeros_like(flat).reshape(t.shape)
    prev = np.ones_like(flat)
    cur = np.multiply(2.0 * alpha, flat)
    nxt = np.empty_like(flat)
    # half the slope: the k = 0 or k = 1 term, whichever has the parity of degree - 1
    half = np.full_like(flat, alpha) if degree % 2 else np.multiply(1.0 + alpha, cur)
    for ell in range(2, degree + 1):
        np.multiply(2.0 * (ell + alpha - 1.0), flat, out=nxt)
        nxt *= cur
        prev *= ell + 2.0 * alpha - 2.0
        nxt -= prev
        nxt /= ell
        prev, cur, nxt = cur, nxt, prev
        if ell < degree and (degree - ell) % 2 == 1:
            half = daxpy(cur, half, a=ell + alpha)
    half *= 2.0
    return cur.reshape(t.shape), half.reshape(t.shape)


def zonal_sum(coeffs, alpha: float, t) -> np.ndarray:
    """sum_l coeffs[l] * C_l^{(alpha)}(t) without storing the table.

    Output shape matches t.
    """
    t = np.asarray(t, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    flat = np.ascontiguousarray(t.reshape(-1))
    lmax = coeffs.size - 1
    acc = np.full(flat.shape, coeffs[0], dtype=np.float64)
    if lmax >= 1:
        prev = np.ones_like(flat)
        cur = 2.0 * alpha * flat
        acc += coeffs[1] * cur
        for ell in range(2, lmax + 1):
            prev, cur = cur, (
                2.0 * (ell + alpha - 1.0) * flat * cur - (ell + 2.0 * alpha - 2.0) * prev
            ) / ell
            acc += coeffs[ell] * cur
    return acc.reshape(t.shape)
