"""Central-difference verification of the analytic ELBO gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vargp as V

STEP = 1e-5  # central-difference step
RTOL = 1e-4
ATOL = 1e-7


@dataclass(frozen=True)
class GradCheckRow:
    parameter: str
    analytic: float
    finite_diff: float
    rel_err: float
    ok: bool


def check_gradients(
    model,
    state,
    X,
    y,
    likelihood,
    n_total: int,
    corrupt: str | None = None,
) -> list[GradCheckRow]:
    """Compare every gradient coordinate against central finite differences.

    A coordinate passes when |analytic - fd| <= max(RTOL * max(|a|, |fd|), ATOL),
    with fd taken at step ``STEP``.
    ``corrupt`` names a parameter block whose analytic gradient is deliberately
    damaged, which lets callers verify the check itself can fail.
    """
    _, grads = V.elbo_gradients(model, state, X, y, likelihood, n_total)
    if corrupt is not None:
        if corrupt not in grads:
            raise KeyError(f"unknown parameter block {corrupt!r}")
        grads[corrupt] = grads[corrupt] * 1.1 + 0.05
    params = V.pack_state(state)

    def value_at(p):
        return V.elbo(model, V.unpack_state(p), X, y, likelihood, n_total)

    rows = []
    for key in grads:
        grad_flat = np.atleast_1d(grads[key]).ravel()
        for i in range(grad_flat.size):
            plus = {k: v.copy() for k, v in params.items()}
            plus[key].reshape(-1)[i] += STEP
            minus = {k: v.copy() for k, v in params.items()}
            minus[key].reshape(-1)[i] -= STEP
            fd = (value_at(plus) - value_at(minus)) / (2.0 * STEP)
            a = float(grad_flat[i])
            denom = max(abs(a), abs(fd))
            err = abs(a - fd)
            rel = err / denom if denom > 0 else 0.0
            ok = err <= max(RTOL * denom, ATOL)
            name = key if params[key].ndim == 0 else f"{key}[{i}]"
            rows.append(GradCheckRow(name, a, fd, rel, ok))
    return rows


def worst_rows(rows: list[GradCheckRow]) -> dict[str, GradCheckRow]:
    """Worst row per parameter block, keyed by block name."""
    worst: dict[str, GradCheckRow] = {}
    for row in rows:
        block = row.parameter.split("[")[0]
        if block not in worst or row.rel_err > worst[block].rel_err:
            worst[block] = row
    return worst
