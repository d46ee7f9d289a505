"""Versioned model checkpoints: basis, spectrum, variational state, scalers.

Everything is stored as plain arrays in an ``.npz`` container (no pickling),
so checkpoints are portable and diffable by key; this module is the one place
that knows their layout. A spectrum is ``spectrum_dim`` and
``spectrum_eigenvalues``; one with a family adds the family's row name in
``kernels.KINDS`` as ``spectrum_family`` and each of the family's fields as
``spectrum_family_<field>``. Theta and the variance are saved once, as
``state_log_theta`` and ``state_log_variance``, and the loader builds the
spectrum at them. A checkpoint holds no optimiser state: every array it
stores is one the loader reads. ``_current_layout`` holds every rule for
older layouts, which may also carry Adam's moments as ``adam_*`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import harmonics as H
from . import kernels as K
from . import vargp as V
from .data_io import Scaler

CHECKPOINT_VERSION = 1


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


def _state_arrays(state: V.VariationalState) -> dict[str, np.ndarray]:
    """``state_<key>`` per packed block; an absent optional block is a NaN.

    Phases are left out: the basis arrays hold them.
    """
    packed = {key: np.asarray(np.nan) for key in V.OPTIONAL_BLOCKS}
    packed.update(V.pack_state(state))
    return {f"state_{k}": v for k, v in packed.items() if not k.startswith(V.PHASE_PREFIX)}


def _state_from_arrays(arrays: dict, basis: H.HarmonicBasis) -> V.VariationalState:
    """The state of ``state_*`` arrays, at the basis's phases."""
    m = basis.num_features
    for key, size in (("state_mean", m), ("state_cov_factor", m * (m + 1) // 2)):
        if arrays[key].size != size:
            raise ValueError(
                f"checkpoint {key} has {arrays[key].size} entries but its basis of "
                f"{m} features needs {size}"
            )
    packed = {}
    for key in ("mean", "cov_factor", "log_variance", *V.OPTIONAL_BLOCKS):
        value = arrays.get(f"state_{key}", np.asarray(np.nan))
        if key in V.OPTIONAL_BLOCKS and value.ndim == 0 and np.isnan(value):
            continue
        if not np.all(np.isfinite(value)):
            raise ValueError(f"checkpoint state_{key} holds non-finite values")
        packed[key] = value
    state = V.unpack_state(packed)
    d = np.arange(m)
    if not np.all(state.L[d, d] > 0):
        raise ValueError("checkpoint state_cov_factor has a factor diagonal entry <= 0")
    state.phases = V.trainable_phases(basis)
    return state


def _spectrum_from_arrays(arrays: dict, state: V.VariationalState) -> K.Spectrum:
    """The spectrum of the ``spectrum_*`` arrays at the state's theta and variance."""
    family = None
    if "spectrum_family" in arrays:
        name = str(arrays["spectrum_family"])
        family_type = getattr(K.KINDS.get(name), "family", None)
        if family_type is None:
            raise ValueError(f"checkpoint spectrum_family {name!r} is no family of kernels.KINDS")
        fixed = {f.name: arrays[f"spectrum_family_{f.name}"].item() for f in fields(family_type)}
        family = family_type(**fixed)
    if (family is None) != (state.log_theta is None):
        raise ValueError("a checkpoint has spectrum_family exactly when it has state_log_theta")
    spec = K.Spectrum(int(arrays["spectrum_dim"]), arrays["spectrum_eigenvalues"], family=family)
    return spec.at(state.theta, state.variance)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    arrays = {
        "checkpoint_version": np.asarray(CHECKPOINT_VERSION, dtype=np.int64),
        "task": np.asarray(ckpt.task),
        "bias": np.asarray(ckpt.bias, dtype=np.float64),
        "config_text": np.asarray(ckpt.config_text),
        "config_hash": np.asarray(ckpt.config_hash),
        "schema_text": np.asarray(ckpt.schema_text),
        "likelihood_kind": np.asarray(ckpt.likelihood.kind),
        "spectrum_dim": np.asarray(ckpt.model.spectrum.dim, dtype=np.int64),
        "spectrum_eigenvalues": ckpt.model.spectrum.eigenvalues,
    }
    family = ckpt.model.spectrum.family
    if family is not None:
        names = [name for name, kind in K.KINDS.items() if kind.family is type(family)]
        if not names:
            raise ValueError(f"family {type(family).__name__} has no row in kernels.KINDS")
        arrays["spectrum_family"] = np.asarray(names[0])
        for f in fields(family):
            arrays[f"spectrum_family_{f.name}"] = np.asarray(getattr(family, f.name))
    if hasattr(ckpt.likelihood, "link"):
        arrays["likelihood_link"] = np.asarray(ckpt.likelihood.link)
    arrays.update(_state_arrays(ckpt.state))
    arrays.update(H.basis_to_arrays(ckpt.model.basis))
    if ckpt.input_scaler is not None:
        arrays["input_scaler_mean"] = ckpt.input_scaler.mean
        arrays["input_scaler_std"] = ckpt.input_scaler.std
    if ckpt.target_scaler is not None:
        arrays["target_scaler_mean"] = np.atleast_1d(ckpt.target_scaler.mean)
        arrays["target_scaler_std"] = np.atleast_1d(ckpt.target_scaler.std)
    np.savez(path, **arrays)


def _current_layout(data) -> dict:
    """The arrays of an open checkpoint file in today's layout: every rule for older files.

    ``*_beta`` keys are now ``*_theta``. A NaN ``spectrum_theta`` marks a spectrum
    without a family, a finite one a ``poly_decay`` spectrum with a bare
    ``spectrum_lambda0``; theta, ``spectrum_source`` and ``spectrum_variance`` are
    otherwise unused: theta and the variance are the state's. ``state_cov_params``
    is q(u)'s factor with its diagonal as logs. Adam's moments and step count
    (every ``adam_*`` array) are unread.
    """
    names = {name[:-4] + "theta" if name.endswith("_beta") else name: name for name in data.files}
    arrays = {key: data[name] for key, name in names.items() if not key.startswith("adam_")}
    theta = arrays.get("spectrum_theta")
    if theta is not None and not np.isnan(theta):
        arrays["spectrum_family"] = np.asarray("poly_decay")
        arrays["spectrum_family_lambda0"] = arrays["spectrum_lambda0"]
    if "state_cov_params" in arrays:
        factor = arrays["state_cov_factor"] = arrays.pop("state_cov_params")
        d = np.cumsum(np.arange(1, arrays["state_mean"].size + 1)) - 1  # the diagonal's places
        if d.size and d[-1] < factor.size:
            factor[d] = np.exp(factor[d])
    return arrays


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``: the trained model, its state and scalers, in any layout
    ``_current_layout`` knows; the ``adam_*`` arrays of older files are skipped."""
    with np.load(path, allow_pickle=False) as data:
        arrays = _current_layout(data)
    version = int(arrays["checkpoint_version"])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    basis = H.basis_from_arrays(arrays)
    state = _state_from_arrays(arrays, basis)
    model = V.InducingModel(basis=basis, spectrum=_spectrum_from_arrays(arrays, state))
    kind = str(arrays["likelihood_kind"])
    if kind == "gaussian":
        if state.log_noise is None:
            raise ValueError("Gaussian checkpoint has no trained noise (state_log_noise is NaN)")
        likelihood = V.GaussianLikelihood(noise_variance=state.noise_variance)
    else:
        likelihood = V.BernoulliLikelihood(link=str(arrays["likelihood_link"]))
    input_scaler = target_scaler = None
    if "input_scaler_mean" in arrays:
        input_scaler = Scaler(mean=arrays["input_scaler_mean"], std=arrays["input_scaler_std"])
    if "target_scaler_mean" in arrays:
        target_scaler = Scaler(
            mean=arrays["target_scaler_mean"][0], std=arrays["target_scaler_std"][0]
        )
    return Checkpoint(
        model=model, state=state, likelihood=likelihood, task=str(arrays["task"]),
        bias=float(arrays["bias"]), input_scaler=input_scaler, target_scaler=target_scaler,
        config_text=str(arrays["config_text"]), config_hash=str(arrays["config_hash"]),
        schema_text=str(arrays["schema_text"]),
    )
