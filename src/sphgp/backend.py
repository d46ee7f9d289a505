"""Numeric backend: the Gegenbauer recurrence, in numpy.

The hot loop of the whole package is the three-term Gegenbauer recurrence
evaluated over large arrays of inner products. ``_recurrence`` is its one
implementation: vectorized over the points, with a Python loop over the
degree and three buffers that rotate in place. The public functions consume
its rows: ``gegenbauer_all`` keeps each of them, ``gegenbauer_last`` only
the last, and ``gegenbauer_last_and_slope`` the last plus a running sum for
the derivative. Each accepts an input of any shape and restores that shape
on the way out, and all three give bit-identical values at equal degree.

``gegenbauer_last`` and ``gegenbauer_last_and_slope`` run in chunks of
``CHUNK`` elements once an input has more than ``CHUNK_ABOVE``. Every step
is elementwise, so chunking changes no bit. What it changes is the memory
traffic: a chunk's rotating buffers (256 KB each) stay in a 2 MB L2 cache
for all the degrees, where full-size buffers stream from memory at every
step. Below the threshold the buffers fit already and chunking only adds
per-chunk overhead (a 512 x 100 input at degree 7 went from 0.70 to 0.83 ms
with 16k-element chunks), so predict's 512-row blocks, phase Grams up to
m = 256 and the repulsion's m(m-1)/2 pairs up to m = 362 run in one piece.
The chunks call the private kernels: a wrapper sees one call per input.

``gegenbauer_last_and_slope`` uses
``d/dt C_l^{(a)} = 2a C_{l-1}^{(a+1)} = 2 sum_{k = l-1, l-3, ...} (k + a) C_k^{(a)}``,
so the slope is summed from the rows the value's recurrence already
passes through, instead of running a second recurrence at ``a + 1``.

The benchmark under ``perfbench/`` times ``gegenbauer_last`` as the
``backend.gegenbauer_last_s`` layer (``--trace 1``); see ``perfbench/README.md``.
"""

from __future__ import annotations

import numpy as np

CHUNK = 32768  # elements per chunk: 256 KB for each rotating buffer
CHUNK_ABOVE = 65536  # inputs of up to this many elements run in one piece


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


def _last(alpha: float, degree: int, flat: np.ndarray):
    """(C_degree(flat),) for a 1-D ``flat``."""
    if degree == 0:
        return (np.ones_like(flat),)
    for _, last in _recurrence(alpha, degree, flat):
        pass
    return (last,)


def _last_and_slope(alpha: float, degree: int, flat: np.ndarray):
    """(C_degree(flat), its derivative) for a 1-D ``flat``; see ``gegenbauer_last_and_slope``."""
    # imported here so that commands which never train phases (``sphgp
    # eigvals``) do not pay for loading scipy.linalg
    from scipy.linalg.blas import daxpy

    if degree == 0 or flat.size == 0:  # (daxpy rejects empty vectors)
        return np.ones_like(flat), np.zeros_like(flat)
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
    return last, half


def _in_chunks(kernel, alpha: float, degree: int, t):
    """``kernel``'s outputs over all of ``t``, in the shape of ``t``.

    Above ``CHUNK_ABOVE`` elements the kernel runs on ``CHUNK`` elements at
    a time and each output is assembled from the chunks.
    """
    t, flat = _flat(t)
    if flat.size <= CHUNK_ABOVE:
        outs = kernel(alpha, degree, flat)
    else:
        outs = None
        for start in range(0, flat.size, CHUNK):
            part = kernel(alpha, degree, flat[start:start + CHUNK])
            if outs is None:
                outs = [np.empty_like(flat) for _ in part]
            for out, p in zip(outs, part):
                out[start:start + CHUNK] = p
    # a list first: ``tuple`` of a generator over-allocates, and the block it
    # shrinks to piles up in CPython's tuple free list, one per call
    return tuple([out.reshape(t.shape) for out in outs])


def gegenbauer_last(alpha: float, degree: int, t) -> np.ndarray:
    """C_degree^{(alpha)}(t) only, with O(n) memory. Output shape matches t."""
    return _in_chunks(_last, alpha, degree, t)[0]


def gegenbauer_last_and_slope(alpha: float, degree: int, t):
    """C_degree^{(alpha)}(t) and its derivative in t, from one recurrence.

    The slope uses

        d/dt C_l^{(a)} = 2a C_{l-1}^{(a+1)} = 2 sum_{k = l-1, l-3, ... >= 0} (k + a) C_k^{(a)},

    accumulated as the recurrence passes each k: one BLAS ``daxpy`` every
    other degree instead of a second recurrence. At t = +-1 the summed terms
    share one sign, so nothing cancels. Output shapes match t.
    """
    return _in_chunks(_last_and_slope, alpha, degree, t)
