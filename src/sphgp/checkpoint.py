"""Versioned model checkpoints: basis, spectrum, variational state, scalers.

Everything is stored as plain arrays in an ``.npz`` container (no pickling),
so checkpoints are portable and diffable by key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harmonics as H
from . import kernels as K
from . import vargp as V
from .data_io import Scaler

CHECKPOINT_VERSION = 1
_MOMENTS = ("m", "v")  # Adam's first and second moments, keyed like the blocks Adam trains
_LOG_DIAG_FACTOR = "state_cov_params"  # an older name and layout of state_cov_factor


@dataclass
class Checkpoint:
    model: V.InducingModel
    state: V.VariationalState
    likelihood: object
    task: str
    bias: float
    input_scaler: Scaler | None
    target_scaler: Scaler | None
    config_text: str
    config_hash: str
    schema_text: str
    moments: dict | None


def _state_arrays(state: V.VariationalState) -> dict[str, np.ndarray]:
    """``state_<key>`` per packed block; an absent optional block is a NaN.

    Phases are left out: the basis arrays hold them.
    """
    packed = {key: np.asarray(np.nan) for key in V.OPTIONAL_BLOCKS}
    packed.update(V.pack_state(state))
    return {
        f"state_{key}": value
        for key, value in packed.items()
        if not key.startswith(V.PHASE_PREFIX)
    }


def _state_from_arrays(arrays: dict, basis: H.HarmonicBasis) -> V.VariationalState:
    """The state of ``state_*`` arrays, at the basis's phases.

    Older checkpoints store the factor as ``state_cov_params``, its diagonal
    as logs; exponentiating that diagonal gives the factor they trained.
    """
    m = basis.num_features
    factor_key = _LOG_DIAG_FACTOR if _LOG_DIAG_FACTOR in arrays else "state_cov_factor"
    for key, size in (("state_mean", m), (factor_key, m * (m + 1) // 2)):
        if arrays[key].size != size:
            raise ValueError(
                f"checkpoint {key} has {arrays[key].size} entries but its basis of "
                f"{m} features needs {size}"
            )
    absent = {f"state_{key}" for key in V.OPTIONAL_BLOCKS}
    packed = {}
    for key, value in arrays.items():
        if not key.startswith("state_"):
            continue
        if key in absent and value.ndim == 0 and np.isnan(value):
            continue
        if not np.all(np.isfinite(value)):
            raise ValueError(f"checkpoint {key} holds non-finite values")
        packed["cov_factor" if key == factor_key else key[len("state_"):]] = value
    state = V.unpack_state(packed)
    d = np.arange(m)
    if factor_key == _LOG_DIAG_FACTOR:
        state.L[d, d] = np.exp(state.L[d, d])
    if not np.all(state.L[d, d] > 0):
        raise ValueError(f"checkpoint {factor_key} has a factor diagonal entry <= 0")
    state.phases = V.trainable_phases(basis)
    return state


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    arrays = {
        "checkpoint_version": np.asarray(CHECKPOINT_VERSION, dtype=np.int64),
        "task": np.asarray(ckpt.task),
        "bias": np.asarray(ckpt.bias, dtype=np.float64),
        "config_text": np.asarray(ckpt.config_text),
        "config_hash": np.asarray(ckpt.config_hash),
        "schema_text": np.asarray(ckpt.schema_text),
        # likelihood
        "likelihood_kind": np.asarray(ckpt.likelihood.kind),
        "likelihood_link": np.asarray(getattr(ckpt.likelihood, "link", "")),
    }
    arrays.update(K.spectrum_to_arrays(ckpt.model.spectrum))
    arrays.update(_state_arrays(ckpt.state))
    arrays.update(H.basis_to_arrays(ckpt.model.basis))
    if ckpt.input_scaler is not None:
        arrays["input_scaler_mean"] = ckpt.input_scaler.mean
        arrays["input_scaler_std"] = ckpt.input_scaler.std
    if ckpt.target_scaler is not None:
        arrays["target_scaler_mean"] = np.atleast_1d(ckpt.target_scaler.mean)
        arrays["target_scaler_std"] = np.atleast_1d(ckpt.target_scaler.std)
    if ckpt.moments is not None:
        arrays["adam_step"] = np.asarray(ckpt.moments["step"], dtype=np.int64)
        for moment in _MOMENTS:
            for key, val in ckpt.moments[moment].items():
                arrays[f"adam_{moment}_{key}"] = np.asarray(val, dtype=np.float64)
    np.savez(path, **arrays)


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``; of Adam's moments only those of the state's blocks are read."""
    with np.load(path, allow_pickle=False) as data:
        names = {K.current_key(k): k for k in data.files}
        arrays = {k: data[name] for k, name in names.items() if not k.startswith("adam_")}
        version = int(arrays["checkpoint_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        basis = H.basis_from_arrays(arrays)
        model = V.InducingModel(basis=basis, spectrum=K.spectrum_from_arrays(arrays))
        state = _state_from_arrays(arrays, basis)
        moments = None
        if "adam_step" in names:
            moments = {"step": int(data["adam_step"])}
            for moment in _MOMENTS:
                moments[moment] = {
                    key: data[names[f"adam_{moment}_{key}"]] for key in V.adam_blocks(state)
                }
    kind = str(arrays["likelihood_kind"])
    if kind == "gaussian":
        if state.log_noise is None:
            raise ValueError("Gaussian checkpoint has no trained noise (state_log_noise is NaN)")
        likelihood = V.GaussianLikelihood(noise_variance=state.noise_variance)
    else:
        likelihood = V.BernoulliLikelihood(link=str(arrays["likelihood_link"]))
    input_scaler = None
    if "input_scaler_mean" in arrays:
        input_scaler = Scaler(
            mean=np.asarray(arrays["input_scaler_mean"], dtype=np.float64),
            std=np.asarray(arrays["input_scaler_std"], dtype=np.float64),
        )
    target_scaler = None
    if "target_scaler_mean" in arrays:
        target_scaler = Scaler(
            mean=np.asarray(arrays["target_scaler_mean"], dtype=np.float64)[0],
            std=np.asarray(arrays["target_scaler_std"], dtype=np.float64)[0],
        )
    return Checkpoint(
        model=model,
        state=state,
        likelihood=likelihood,
        task=str(arrays["task"]),
        bias=float(arrays["bias"]),
        input_scaler=input_scaler,
        target_scaler=target_scaler,
        config_text=str(arrays["config_text"]),
        config_hash=str(arrays["config_hash"]),
        schema_text=str(arrays["schema_text"]),
        moments=moments,
    )
