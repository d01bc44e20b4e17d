"""Run one ``lngd`` CLI command with timing wrappers around its layers.

Usage: python traced.py STATS_OUT.json <lngd subcommand and arguments>

Before the command runs, each function named in SPANS or COUNTS is
replaced, in every loaded ``lngd`` module that refers to it, by a wrapper
that records calls and time. A span's self time is its duration minus the
time of the spans it encloses. Statistics stay in memory and are written
to STATS_OUT.json when the command ends. A function that no longer exists
is listed as unmeasured rather than failing the run. The exit code is the
command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, function, layer name); per-call durations are kept for the last
# field's layers so that percentiles can be reported.
SPANS = [
    ("network", "_forward_backward", "network.forward_backward"),
    ("network", "zero_one_error", "network.zero_one_error"),
    ("network", "init_network", "network.init_network"),
    ("training", "run_training", "training.run_training"),
    ("training", "sample_multipliers", "training.sample_multipliers"),
    ("decomposition", "update_coefficients", "decomposition.update_coefficients"),
    ("decomposition", "iota_all", "decomposition.iota_all"),
    ("data", "generate_dataset", "data.generate_dataset"),
    ("io", "emit_outputs", "io.emit_outputs"),
    ("io", "write_coefficients_csv", "io.write_coefficients_csv"),
    ("io", "write_trace_csv", "io.write_trace_csv"),
    ("theory", "concentration_suite", "theory.concentration_suite"),
    ("theory", "empirical_verdicts", "theory.empirical_verdicts"),
    ("theory", "coefficient_envelope_monitor", "theory.coefficient_envelope_monitor"),
    ("experiments", "run_dynamics", "experiments.run_dynamics"),
    ("experiments", "run_heatmap", "experiments.run_heatmap"),
    ("config", "parse_config", "config.parse_config"),
]
PERCENTILE_LAYERS = {"network.forward_backward", "network.zero_one_error"}

# Counted but not timed: their time stays in the caller's self time.
COUNTS = [
    ("training", "_trace_row", "training.trace_rows"),
    ("streams", "stream", "streams.stream"),
    ("streams", "substream", "streams.substream"),
]


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.durations: dict[str, list[float]] = {}
        self._open: list[list[float]] = []  # child time of each open span

    def span(self, layer: str, fn):
        st = self.stats.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        durations = self.durations.setdefault(layer, []) if layer in PERCENTILE_LAYERS else None
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += dt
                st["calls"] += 1
                st["total_s"] += dt
                st["self_s"] += dt - child[0]
                if durations is not None:
                    durations.append(dt)

        return wrapper

    def counter(self, layer: str, fn):
        st = self.stats.setdefault(layer, {"calls": 0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        out = {layer: dict(st) for layer, st in self.stats.items()}
        for layer, ds in self.durations.items():
            ds = sorted(ds)
            for name, q in (("p50_s", 0.50), ("p99_s", 0.99)):
                out[layer][name] = ds[round(q * (len(ds) - 1))] if ds else 0.0
        return out


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the layers whose function was not found."""
    import lngd.cli  # noqa: F401  (loads every module the CLI uses)

    unmeasured = []
    targets = [(t, tracer.span) for t in SPANS] + [(t, tracer.counter) for t in COUNTS]
    for (module, name, layer), make in targets:
        try:
            original = getattr(importlib.import_module(f"lngd.{module}"), name)
        except (ImportError, AttributeError):
            unmeasured.append(layer)
            continue
        wrapper = make(layer, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "lngd" or mod_name.startswith("lngd."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    return unmeasured


def main(argv: list[str]) -> int:
    stats_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    unmeasured = install(tracer)
    from lngd.cli import main_cli

    try:
        code = main_cli(cli_args)
    finally:
        with open(stats_out, "w") as fh:
            json.dump({"layers": tracer.summary(), "unmeasured": unmeasured}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
