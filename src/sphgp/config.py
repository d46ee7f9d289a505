"""Flat key=value run configuration: typed parsing, canonical serialization.

A config (with defaults materialized) plus the input data bytes fully
determines a run; runs are stored under a directory named by the config
hash, so reruns land in the same place. The kernel is a spec in the one
grammar of ``kernels.parse_kernel`` (``kernel = poly_decay:beta=1.5``), kept
in canonical form: every field written out, floats with ``repr``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

from .kernels import KINDS, canonical_kernel, parse_kernel


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    kernel: str = "poly_decay:beta=1.0,lambda0=1.0"
    variance0: float = 1.0
    noise0: float = 0.1
    link: str = "probit"
    max_frequency: int = 5
    phase_limit: int | None = None  # None means full phase sets
    bias: float = 1.0
    test_fraction: float = 0.2
    split_seed: int = 0
    iterations: int = 300
    batch_size: int = 256
    lr_variational: float = 0.01  # q(u)'s natural-gradient step size, in (0, 1]
    lr_hyper: float = 0.001  # Adam's step size for the hyperparameters and phases
    log_every: int = 1
    seed: int = 0
    quad_order: int = 0  # 0 picks the default for the dimension and frequency cutoff
    max_bad_fraction: float = 0.1
    data_csv: str = ""
    schema: str = ""
    out_root: str = "runs"

    def __post_init__(self):
        try:
            object.__setattr__(self, "kernel", canonical_kernel(self.kernel))
        except ValueError as exc:
            raise ConfigError(f"kernel = {self.kernel}: {exc}") from None
        for name in ("variance0", "noise0", "bias"):
            _require_positive(name, getattr(self, name))
        if self.link not in ("probit", "logit"):
            raise ConfigError(f"link must be probit or logit, got {self.link!r}")
        if self.max_frequency < 0:
            raise ConfigError("max_frequency must be >= 0")
        if self.phase_limit is not None and self.phase_limit < 1:
            raise ConfigError("phase_limit must be >= 1 or 'full'")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")
        if self.iterations < 0 or self.batch_size < 1 or self.log_every < 1:
            raise ConfigError("invalid optimizer settings")
        if not 0.0 < self.lr_variational <= 1.0:
            raise ConfigError(
                "lr_variational is the natural-gradient step size of q(u) and must be "
                f"in (0, 1], got {self.lr_variational}"
            )
        _require_positive("lr_hyper", self.lr_hyper)
        if self.quad_order < 0:
            raise ConfigError(f"quad_order must be >= 0, got {self.quad_order}")
        if not 0.0 <= self.max_bad_fraction <= 1.0:
            raise ConfigError(
                f"max_bad_fraction must be in [0, 1], got {self.max_bad_fraction}"
            )


def _require_positive(name: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and > 0, got {value}")


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _format_value(name: str, value) -> str:
    if name == "phase_limit":
        return "full" if value is None else str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, text: str):
    field = _FIELDS[name]
    if name == "phase_limit":
        return None if text == "full" else int(text)
    kind = field.type
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text


def serialize_config(cfg: RunConfig) -> str:
    lines = [
        f"{f.name} = {_format_value(f.name, getattr(cfg, f.name))}"
        for f in dataclasses.fields(RunConfig)
    ]
    return "\n".join(lines) + "\n"


_LEGACY_KEYS = {"beta0": ("beta", "1.0"), "lambda0": ("lambda0", "1.0"), "depth": ("depth", "3")}


def _legacy_kernel(kernel: str, old: dict[str, str]) -> str:
    """The spec of an older config: a bare kind and the ``_LEGACY_KEYS`` (old key: spec field,
    default) it takes; the rest are dropped. Delete once no config in use names a bare kind."""
    if ":" in kernel:
        raise ConfigError(f"kernel = {kernel} is a spec, so {', '.join(old)} must be in it")
    kind = KINDS.get(kernel)
    takes = {kind.param, *kind.defaults()} if kind else ()
    parts = [f"{f}={old.get(key, v)}" for key, (f, v) in _LEGACY_KEYS.items() if f in takes]
    spec = f"{kernel}:{','.join(parts)}"
    try:
        parse_kernel(spec)
    except ValueError as exc:
        written = "".join(f", {key} = {val}" for key, val in old.items())
        raise ConfigError(f"kernel = {kernel}{written}: {exc}") from None
    return spec


def parse_config(text: str) -> RunConfig:
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" in line:
            raise ConfigError(f"'#' starts a comment only at the start of a line: {raw!r}")
        if "=" not in line:
            raise ConfigError(f"config line is not key = value: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS and key not in _LEGACY_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"duplicate config key {key!r}")
        try:
            values[key] = val if key in _LEGACY_KEYS else _parse_value(key, val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {val!r} ({exc})") from None
    old = {key: values.pop(key) for key in _LEGACY_KEYS if key in values}
    if old or ":" not in values.get("kernel", ":"):
        values["kernel"] = _legacy_kernel(values.get("kernel", "poly_decay"), old)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_config(fh.read())


def config_hash(cfg: RunConfig) -> str:
    """Stable 16-hex-digit name for the run directory; out_root is excluded."""
    text = serialize_config(dataclasses.replace(cfg, out_root=""))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
