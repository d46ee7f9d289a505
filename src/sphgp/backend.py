"""Numeric backend: numba-jitted Gegenbauer kernels with a pure-numpy fallback.

The hot loops of the whole package are three-term Gegenbauer recurrences
evaluated over large arrays of inner products. Both implementations live
here; the active one is chosen once at import time from the environment
variable ``SPHGP_BACKEND``:

* ``auto``  (default) -- use numba if it imports, else numpy
* ``numba`` -- require numba, fail loudly if unavailable
* ``numpy`` -- force the pure-numpy path

The benchmark under ``perfbench/`` times whichever path is active as the
``backend.gegenbauer_last_s`` layer (``--trace 1``); see ``perfbench/README.md``.
"""

from __future__ import annotations

import os

import numpy as np

_CHOICE = os.environ.get("SPHGP_BACKEND", "auto").strip().lower()
if _CHOICE not in ("auto", "numba", "numpy"):
    raise ValueError(
        f"SPHGP_BACKEND must be one of auto|numba|numpy, got {_CHOICE!r}"
    )


# ---------------------------------------------------------------------------
# pure-numpy implementations (vectorized over points, python loop over degree)
# ---------------------------------------------------------------------------

def gegenbauer_all_numpy(alpha: float, lmax: int, t: np.ndarray) -> np.ndarray:
    """Table of C_l^{(alpha)}(t) for l = 0..lmax, shape (lmax+1, n)."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    out = np.empty((lmax + 1, t.size), dtype=np.float64)
    out[0] = 1.0
    if lmax >= 1:
        out[1] = 2.0 * alpha * t
    for ell in range(2, lmax + 1):
        out[ell] = (
            2.0 * (ell + alpha - 1.0) * t * out[ell - 1]
            - (ell + 2.0 * alpha - 2.0) * out[ell - 2]
        ) / ell
    return out


def gegenbauer_last_numpy(alpha: float, degree: int, t: np.ndarray) -> np.ndarray:
    """C_degree^{(alpha)}(t) only, via the same recurrence with O(n) memory.

    Three buffers rotate through the degrees and every step runs in place,
    in the same order of operations as the table recurrence
    (``(s1 * t) * cur - s2 * prev``, then ``/ ell``), so the values are
    bit-identical to ``gegenbauer_all_numpy(...)[degree]``.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    if degree == 0:
        return np.ones_like(t)
    prev = np.ones_like(t)
    cur = np.multiply(2.0 * alpha, t)
    nxt = np.empty_like(t)
    for ell in range(2, degree + 1):
        np.multiply(2.0 * (ell + alpha - 1.0), t, out=nxt)
        nxt *= cur
        prev *= ell + 2.0 * alpha - 2.0
        nxt -= prev
        nxt /= ell
        prev, cur, nxt = cur, nxt, prev
    return cur


def zonal_sum_numpy(coeffs: np.ndarray, alpha: float, t: np.ndarray) -> np.ndarray:
    """Fused sum_l coeffs[l] * C_l^{(alpha)}(t) without storing the table."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    lmax = coeffs.size - 1
    acc = np.full(t.shape, coeffs[0], dtype=np.float64)
    if lmax == 0:
        return acc
    prev = np.ones_like(t)
    cur = 2.0 * alpha * t
    acc += coeffs[1] * cur
    for ell in range(2, lmax + 1):
        prev, cur = cur, (
            2.0 * (ell + alpha - 1.0) * t * cur - (ell + 2.0 * alpha - 2.0) * prev
        ) / ell
        acc += coeffs[ell] * cur
    return acc


# ---------------------------------------------------------------------------
# numba kernels (same recurrences, explicit element loops)
# ---------------------------------------------------------------------------

def _gegenbauer_all_loop(alpha, lmax, t, out):
    n = t.shape[0]
    for i in range(n):
        ti = t[i]
        prev = 1.0
        out[0, i] = 1.0
        if lmax >= 1:
            cur = 2.0 * alpha * ti
            out[1, i] = cur
            for ell in range(2, lmax + 1):
                nxt = (
                    2.0 * (ell + alpha - 1.0) * ti * cur
                    - (ell + 2.0 * alpha - 2.0) * prev
                ) / ell
                out[ell, i] = nxt
                prev = cur
                cur = nxt


def _gegenbauer_last_loop(alpha, degree, t, out):
    n = t.shape[0]
    for i in range(n):
        ti = t[i]
        if degree == 0:
            out[i] = 1.0
            continue
        prev = 1.0
        cur = 2.0 * alpha * ti
        for ell in range(2, degree + 1):
            nxt = (
                2.0 * (ell + alpha - 1.0) * ti * cur
                - (ell + 2.0 * alpha - 2.0) * prev
            ) / ell
            prev = cur
            cur = nxt
        out[i] = cur


def _zonal_sum_loop(coeffs, alpha, t, out):
    n = t.shape[0]
    lmax = coeffs.shape[0] - 1
    for i in range(n):
        ti = t[i]
        acc = coeffs[0]
        if lmax >= 1:
            prev = 1.0
            cur = 2.0 * alpha * ti
            acc += coeffs[1] * cur
            for ell in range(2, lmax + 1):
                nxt = (
                    2.0 * (ell + alpha - 1.0) * ti * cur
                    - (ell + 2.0 * alpha - 2.0) * prev
                ) / ell
                prev = cur
                cur = nxt
                acc += coeffs[ell] * nxt
        out[i] = acc


HAVE_NUMBA = False
if _CHOICE in ("auto", "numba"):
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        if _CHOICE == "numba":
            raise ImportError(
                "SPHGP_BACKEND=numba but numba is not importable"
            ) from None

if HAVE_NUMBA:
    _gegenbauer_all_jit = njit(cache=True)(_gegenbauer_all_loop)
    _gegenbauer_last_jit = njit(cache=True)(_gegenbauer_last_loop)
    _zonal_sum_jit = njit(cache=True)(_zonal_sum_loop)

    def gegenbauer_all_numba(alpha, lmax, t):
        t = np.ascontiguousarray(t, dtype=np.float64)
        out = np.empty((lmax + 1, t.size), dtype=np.float64)
        _gegenbauer_all_jit(float(alpha), lmax, t, out)
        return out

    def gegenbauer_last_numba(alpha, degree, t):
        t = np.ascontiguousarray(t, dtype=np.float64)
        out = np.empty(t.size, dtype=np.float64)
        _gegenbauer_last_jit(float(alpha), degree, t, out)
        return out

    def zonal_sum_numba(coeffs, alpha, t):
        t = np.ascontiguousarray(t, dtype=np.float64)
        coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        out = np.empty(t.size, dtype=np.float64)
        _zonal_sum_jit(coeffs, float(alpha), t, out)
        return out

else:
    gegenbauer_all_numba = None
    gegenbauer_last_numba = None
    zonal_sum_numba = None

ACTIVE = "numba" if HAVE_NUMBA else "numpy"


def active_backend() -> str:
    return ACTIVE


# ---------------------------------------------------------------------------
# public entry points: accept any array shape, restore it on the way out
# ---------------------------------------------------------------------------

def gegenbauer_all(alpha: float, lmax: int, t) -> np.ndarray:
    """C_l^{(alpha)}(t) for l = 0..lmax; output shape (lmax+1, *t.shape)."""
    t = np.asarray(t, dtype=np.float64)
    flat = t.reshape(-1)
    if ACTIVE == "numba":
        table = gegenbauer_all_numba(alpha, lmax, flat)
    else:
        table = gegenbauer_all_numpy(alpha, lmax, flat)
    return table.reshape((lmax + 1,) + t.shape)


def gegenbauer_last(alpha: float, degree: int, t) -> np.ndarray:
    """C_degree^{(alpha)}(t); output shape matches t."""
    t = np.asarray(t, dtype=np.float64)
    flat = t.reshape(-1)
    if ACTIVE == "numba":
        vals = gegenbauer_last_numba(alpha, degree, flat)
    else:
        vals = gegenbauer_last_numpy(alpha, degree, flat)
    return vals.reshape(t.shape)


def zonal_sum(coeffs, alpha: float, t) -> np.ndarray:
    """sum_l coeffs[l] * C_l^{(alpha)}(t); output shape matches t."""
    t = np.asarray(t, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    flat = t.reshape(-1)
    if ACTIVE == "numba":
        vals = zonal_sum_numba(coeffs, alpha, flat)
    else:
        vals = zonal_sum_numpy(coeffs, alpha, flat)
    return vals.reshape(t.shape)
