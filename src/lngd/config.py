"""JSON run configuration: strict schema, recorded defaults, lossless round-trip.

Unknown keys are errors (no silent typo absorption) and out-of-range values
report the allowed range. A minimal config needs {d, n, mu_scale, sigma_p,
p, eta, steps, seed}; everything else has a documented default, and every
default actually applied is recorded for the manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .training import LabelNoiseSpec

__all__ = ["ConfigError", "FullConfig", "parse_config", "config_to_dict"]


class ConfigError(ValueError):
    """Malformed or out-of-range run configuration."""


_RANGES = {
    "d": ("integer >= 2", lambda v: _is_int(v) and v >= 2),
    "n": ("integer >= 1", lambda v: _is_int(v) and v >= 1),
    "mu_scale": ("number > 0", lambda v: _is_num(v) and v > 0),
    "sigma_p": ("number > 0", lambda v: _is_num(v) and v > 0),
    "p": ("number in [0, 1]", lambda v: _is_num(v) and 0.0 <= v <= 1.0),
    "eta": ("number > 0", lambda v: _is_num(v) and v > 0),
    "steps": ("integer >= 0", lambda v: _is_int(v) and v >= 0),
    "seed": ("integer >= 0", lambda v: _is_int(v) and v >= 0),
    "m": ("integer >= 1", lambda v: _is_int(v) and v >= 1),
    "q": ("integer >= 2", lambda v: _is_int(v) and v >= 2),
    "sigma_0": ("number >= 0", lambda v: _is_num(v) and v >= 0),
    "log_stride": ("integer >= 1", lambda v: _is_int(v) and v >= 1),
    "n_test": ("integer >= 1", lambda v: _is_int(v) and v >= 1),
    "coeff_stride": ("integer >= 1", lambda v: _is_int(v) and v >= 1),
    "epsilon": ("number in (0, 1)", lambda v: _is_num(v) and 0.0 < v < 1.0),
    "c_test": ("number > 0", lambda v: _is_num(v) and v > 0),
    "workers": ("integer >= 1", lambda v: _is_int(v) and v >= 1),
    "trials": ("integer >= 100", lambda v: _is_int(v) and v >= 100),
    "delta": ("number in (0, 1)", lambda v: _is_num(v) and 0.0 < v < 1.0),
}

_DEFAULTS = {
    "m": 20,
    "q": 2,
    "sigma_0": 0.01,
    "log_stride": 10,
    "n_test": 2000,
    "coeff_stride": 100,
    "epsilon": 0.05,
    "c_test": 1.0,
    "workers": 1,
    "trials": 1000,
    "delta": 0.01,
    "noise": None,  # resolved to flip(p)
    "grid": None,
    "noise_list": None,
    "q_list": None,
}

_REQUIRED = ("d", "n", "mu_scale", "sigma_p", "p", "eta", "steps", "seed")
_KNOWN = set(_REQUIRED) | set(_DEFAULTS)

# Each noise kind's LabelNoiseSpec fields, in the order a config lists them.
_NOISE_KEYS = {
    "none": (),
    "flip": ("p",),
    "gaussian": ("mean", "std"),
    "uniform": ("lo", "hi"),
}


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    """An integer that is not a JSON boolean (``True`` is an ``int``)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_noise(obj, where: str) -> LabelNoiseSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where}: noise must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind not in _NOISE_KEYS:
        raise ConfigError(f"{where}: unknown noise kind {kind!r}; "
                          f"allowed: {sorted(_NOISE_KEYS)}")
    keys = _NOISE_KEYS[kind]
    extra = set(obj) - {"kind", *keys}
    if extra:
        raise ConfigError(f"{where}: unknown noise keys {sorted(extra)} for kind {kind!r}")
    missing = set(keys) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing noise keys {sorted(missing)} for kind {kind!r}")
    for key in keys:
        if not _is_num(obj[key]):
            raise ConfigError(f"{where}: noise key {key!r} = {obj[key]!r} is not a number")
    try:
        return LabelNoiseSpec(kind, **{key: float(obj[key]) for key in keys})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class FullConfig:
    """Validated configuration with all defaults applied."""

    d: int
    n: int
    mu_scale: float
    sigma_p: float
    p: float
    eta: float
    steps: int
    seed: int
    m: int
    q: int
    sigma_0: float
    log_stride: int
    n_test: int
    coeff_stride: int
    epsilon: float
    c_test: float
    workers: int
    trials: int
    delta: float
    noise: LabelNoiseSpec
    grid: dict | None = None
    noise_list: tuple[LabelNoiseSpec, ...] | None = None
    q_list: tuple[int, ...] | None = None
    defaults_applied: dict = field(default_factory=dict, compare=False)


def parse_config(path: str | Path | None = None, *, data: dict | None = None,
                 overrides: dict | None = None) -> FullConfig:
    """Load and validate a config from a JSON file or an in-memory dict."""
    if (path is None) == (data is None):
        raise ConfigError("provide exactly one of path or data")
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    data = dict(data)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})

    unknown = set(data) - _KNOWN
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")

    values: dict = {}
    defaults_applied: dict = {}
    for key in _KNOWN:
        if key in data:
            values[key] = data[key]
        elif key in _DEFAULTS:
            values[key] = _DEFAULTS[key]
            defaults_applied[key] = _DEFAULTS[key]
    for key, (desc, ok) in _RANGES.items():
        if key in values and values[key] is not None and not ok(values[key]):
            raise ConfigError(f"config key {key!r} = {values[key]!r} out of range; "
                              f"allowed: {desc}")
    if values["steps"] > 0 and values["log_stride"] > values["steps"]:
        raise ConfigError(f"log_stride = {values['log_stride']} exceeds steps = "
                          f"{values['steps']}; allowed: integer in [1, steps]")

    if values["noise"] is None:
        values["noise"] = LabelNoiseSpec.flip(float(values["p"]))
        if "noise" in defaults_applied:
            defaults_applied["noise"] = _noise_to_dict(values["noise"])
    else:
        values["noise"] = _parse_noise(values["noise"], "noise")
        if values["noise"].kind == "flip" and float(values["noise"].p) != float(values["p"]):
            raise ConfigError(f"noise.p = {values['noise'].p} conflicts with top-level "
                              f"p = {values['p']}")

    if values["noise_list"] is not None:
        if not isinstance(values["noise_list"], list) or not values["noise_list"]:
            raise ConfigError("noise_list must be a nonempty array of noise objects")
        values["noise_list"] = tuple(
            _parse_noise(obj, f"noise_list[{i}]") for i, obj in enumerate(values["noise_list"])
        )
    if values["q_list"] is not None:
        if (not isinstance(values["q_list"], list) or not values["q_list"]
                or not all(_is_int(v) and v >= 2 for v in values["q_list"])):
            raise ConfigError("q_list must be a nonempty array of integers >= 2")
        values["q_list"] = tuple(values["q_list"])
    if values["grid"] is not None:
        values["grid"] = _validate_grid(values["grid"])

    for key in ("mu_scale", "sigma_p", "p", "eta", "sigma_0", "epsilon", "c_test", "delta"):
        values[key] = float(values[key])
    return FullConfig(defaults_applied=defaults_applied, **values)


_GRID_KEYS = {"snr_values", "n_values", "seeds_per_cell", "steps", "eta"}


def _validate_grid(obj) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("grid must be an object")
    unknown = set(obj) - _GRID_KEYS
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    for req in ("snr_values", "n_values"):
        if req not in obj or not isinstance(obj[req], list) or not obj[req]:
            raise ConfigError(f"grid.{req} must be a nonempty array")
    if not all(_is_num(v) and v > 0 for v in obj["snr_values"]):
        raise ConfigError("grid.snr_values entries must be numbers > 0")
    if not all(_is_int(v) and v >= 1 for v in obj["n_values"]):
        raise ConfigError("grid.n_values entries must be integers >= 1")
    out = dict(obj)
    out.setdefault("seeds_per_cell", 3)
    out.setdefault("steps", 1000)
    out.setdefault("eta", 1.0)
    if not (_is_int(out["seeds_per_cell"]) and out["seeds_per_cell"] >= 1):
        raise ConfigError("grid.seeds_per_cell must be an integer >= 1")
    if not (_is_int(out["steps"]) and out["steps"] >= 1):
        raise ConfigError("grid.steps must be an integer >= 1")
    if not (_is_num(out["eta"]) and out["eta"] > 0):
        raise ConfigError("grid.eta must be a number > 0")
    return out


def _noise_to_dict(noise: LabelNoiseSpec) -> dict:
    return {"kind": noise.kind, **{key: getattr(noise, key) for key in _NOISE_KEYS[noise.kind]}}


def config_to_dict(config: FullConfig) -> dict:
    """Full config as a JSON-ready dict; parse_config on it round-trips."""
    out = {}
    for f in fields(FullConfig):
        if f.name == "defaults_applied":
            continue
        value = getattr(config, f.name)
        if f.name == "noise":
            out[f.name] = _noise_to_dict(value)
        elif f.name == "noise_list":
            out[f.name] = None if value is None else [_noise_to_dict(v) for v in value]
        elif f.name == "q_list":
            out[f.name] = None if value is None else list(value)
        else:
            out[f.name] = value
    return out
