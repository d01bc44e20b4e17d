"""JSON run configuration: strict schema, recorded defaults, lossless round-trip.

``SCHEMA`` describes every key once: its kind, its allowed range, and its
default or that it is required; grid keys are its ``grid.`` rows. Unknown
keys are errors (no silent typo absorption), a value of the wrong kind or
out of range reports the allowed range, and a number must be finite (JSON's
NaN and Infinity are refused). A minimal config needs {d, n, mu_scale,
sigma_p, p, eta, steps, seed}; everything else has a documented default,
and every default actually applied is recorded for the manifest. A noise
object is read by ``LabelNoiseSpec.from_dict``.
"""

from __future__ import annotations

import json
import math
from dataclasses import field, make_dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .training import LabelNoiseSpec

__all__ = ["ConfigError", "FullConfig", "parse_config", "config_to_dict"]


class ConfigError(ValueError):
    """Malformed or out-of-range run configuration."""


_NO_DEFAULT = object()


class Key(NamedTuple):
    """One config key: its kind, the range a refusal states and its check, and its default
    (a key without one is required)."""

    kind: str  # integer | number | noise | grid, or "array of" one: a nonempty JSON array
    allowed: str = ""
    ok: Callable = lambda v: True
    default: object = _NO_DEFAULT


def _at_least(bound: int):
    return f">= {bound}", lambda v: v >= bound


_POSITIVE = "> 0", lambda v: v > 0
_CLOSED_UNIT = "in [0, 1]", lambda v: 0.0 <= v <= 1.0
_OPEN_UNIT = "in (0, 1)", lambda v: 0.0 < v < 1.0

SCHEMA = {
    "d": Key("integer", *_at_least(2)),
    "n": Key("integer", *_at_least(1)),
    "mu_scale": Key("number", *_POSITIVE),
    "sigma_p": Key("number", *_POSITIVE),
    "p": Key("number", *_CLOSED_UNIT),
    "eta": Key("number", *_POSITIVE),
    "steps": Key("integer", *_at_least(0)),
    "seed": Key("integer", *_at_least(0)),
    "m": Key("integer", *_at_least(1), 20),
    "q": Key("integer", *_at_least(2), 2),
    "sigma_0": Key("number", *_POSITIVE, 0.01),  # a zero init cannot move
    "log_stride": Key("integer", *_at_least(1), 10),
    "n_test": Key("integer", *_at_least(1), 2000),
    "coeff_stride": Key("integer", *_at_least(1), 100),
    "epsilon": Key("number", *_OPEN_UNIT, 0.05),
    "c_test": Key("number", *_POSITIVE, 1.0),
    "workers": Key("integer", *_at_least(1), 1),
    "trials": Key("integer", *_at_least(100), 1000),
    "delta": Key("number", *_OPEN_UNIT, 0.01),
    "noise": Key("noise", default=None),  # None: flip(p)
    "noise_list": Key("array of noise", default=None),
    "q_list": Key("array of integer", *_at_least(2), None),
    "grid": Key("grid", default=None),
    "grid.snr_values": Key("array of number", *_POSITIVE),
    "grid.n_values": Key("array of integer", *_at_least(1)),
    "grid.seeds_per_cell": Key("integer", *_at_least(1), 3),
    "grid.steps": Key("integer", *_at_least(1), 1000),
    "grid.eta": Key("number", *_POSITIVE, 1.0),
}

_KINDS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),  # True is an int
    "number": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                         and math.isfinite(v)),
}


def _read(name: str, value, key: Key):
    """``value`` of key ``name`` as the config holds it (an array as a tuple, a noise object
    as a LabelNoiseSpec, the grid as a dict with its defaults), if it is of the key's kind
    and in its range."""
    if key.kind == "noise":
        try:
            return LabelNoiseSpec.from_dict(value)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    if key.kind == "grid":
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object")
        return _section(value, name)[0]
    if key.kind.startswith("array of "):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a nonempty array")
        entry = key._replace(kind=key.kind.removeprefix("array of "))
        return tuple(_read(f"{name}[{i}]", v, entry) for i, v in enumerate(value))
    if not (_KINDS[key.kind](value) and key.ok(value)):
        raise ConfigError(f"config key {name!r} = {value!r} out of range; "
                          f"allowed: {key.kind} {key.allowed}")
    return value


def _section(obj: dict, section: str = "") -> tuple[dict, dict]:
    """The keys of ``section`` (the top level, or ``grid``), read from ``obj`` or set to
    their defaults; and the defaults applied."""
    prefix = f"{section}." if section else ""
    keys = {name[len(prefix):]: key for name, key in SCHEMA.items()
            if name.startswith(prefix) and "." not in name[len(prefix):]}
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {section or 'config'} keys: {sorted(unknown)}")
    missing = [k for k, key in keys.items() if key.default is _NO_DEFAULT and k not in obj]
    if missing:
        raise ConfigError(f"missing required {section or 'config'} keys: {missing}")
    values, defaults_applied = {}, {}
    for k, key in keys.items():
        if k not in obj:
            values[k] = defaults_applied[k] = key.default
        elif obj[k] is None and key.default is None:
            values[k] = None
        else:
            values[k] = _read(prefix + k, obj[k], key)
    return values, defaults_applied


FullConfig = make_dataclass(
    "FullConfig", [name for name in SCHEMA if "." not in name]
    + [("defaults_applied", dict, field(default_factory=dict, compare=False))],
    frozen=True, namespace={"__module__": __name__, "__doc__": (
        "Validated configuration with all defaults applied: a field per top-level key.")})


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

    values, defaults_applied = _section(data)
    if values["noise"] is None:
        values["noise"] = LabelNoiseSpec.flip(float(values["p"]))
        if "noise" in defaults_applied:
            defaults_applied["noise"] = values["noise"].to_dict()
    elif values["noise"].kind == "flip" and values["noise"].p != float(values["p"]):
        raise ConfigError(f"noise.p = {values['noise'].p} conflicts with top-level "
                          f"p = {values['p']}")
    values = {k: float(v) if SCHEMA[k].kind == "number" else v for k, v in values.items()}
    return FullConfig(defaults_applied=defaults_applied, **values)


def _plain(value):
    """``value`` as JSON holds it: a noise as its object, a tuple as an array."""
    if isinstance(value, LabelNoiseSpec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def config_to_dict(config: FullConfig) -> dict:
    """Full config as a JSON-ready dict; parse_config on it round-trips."""
    return {name: _plain(getattr(config, name)) for name in SCHEMA if "." not in name}
