"""Command-line entry points.

Subcommands: check, dynamics, heatmap, noise-compare, q-sweep, concentration,
decompose. Exit codes: 0 success, 1 usage/config error, 2 run aborted on
non-finite values, 3 assertion failure under --assert.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, FullConfig, parse_config
from .cores import blas_threads, usable_cores
from .data import SignalSpec
from .experiments import (
    Q_SWEEP_DEFAULTS,
    SweepGrid,
    arm_noise_rng,
    axis_aligned_spec,
    run_dynamics,
    run_heatmap,
    run_noise_comparison,
    run_q_sweep,
)
from .io import (CoefficientSnapshots, EmitError, RunArtifactFiles, emit_outputs, now_utc,
                 refuse_overwrite, write_json)
from .network import OracleReplay, reconstruct_weights
from .theory import check_assumptions, concentration_suite
from .training import LabelNoiseSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORTED = 2
EXIT_ASSERT = 3

_COMMANDS = ("check", "dynamics", "heatmap", "noise-compare", "q-sweep",
             "concentration", "decompose")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we map usage errors to 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lngd", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lngd {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name, prog=f"lngd {name}")
        if name == "decompose":
            p.add_argument("--run", required=True, help="directory of a saved run")
        else:
            p.add_argument("--config", required=True, help="JSON config file")
            p.add_argument("--seed", type=int, default=None, help="override config seed")
            p.add_argument("--out", default=None, help="output directory")
        if name in _RUNS or name == "decompose":
            p.add_argument("--assert", dest="assert_", action="store_true",
                           help="exit 3 if the command's verdicts fail")
        if name in _RUNS:
            p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        if name == "heatmap":
            p.add_argument("--workers", type=int, default=None)
        if name == "concentration":
            p.add_argument("--trials", type=int, default=None)
    return parser


def _spec_of(config: FullConfig) -> SignalSpec:
    return axis_aligned_spec(config.mu_scale, config.sigma_p, config.d)


def _out_dir(args, config: FullConfig) -> Path:
    if args.out:
        return Path(args.out)
    root = Path(os.environ.get("LNGD_OUT_ROOT", "runs"))
    return root / f"{args.command.replace('-', '_')}_seed{config.seed}"


class _SnapshotSink:
    """Observer of one arm: its coefficients at each logged step that is a multiple of
    ``coeff_stride``, and at the last step, written into arrays sized for the whole run."""

    def __init__(self, config: FullConfig):
        every = math.lcm(config.log_stride, config.coeff_stride)  # logged and strided
        k = config.steps // every + 1 + (config.steps % every != 0)
        self.steps = np.empty(k, dtype=np.int64)
        self.gamma = np.empty((k, 2, config.m))
        self.rho = np.empty((k, 2, config.m, config.n))
        self.filled = 0
        self._stride, self._last = config.coeff_stride, config.steps

    def __call__(self, step, state, dataset):
        if step % self._stride == 0 or step == self._last:
            k = self.filled
            self.steps[k], self.gamma[k], self.rho[k] = step, state.gamma, state.rho
            self.filled = k + 1

    def snapshots(self, same_class_mask: np.ndarray) -> CoefficientSnapshots:
        """The snapshots taken so far; an aborted arm's stop where it stopped."""
        k = self.filled
        return CoefficientSnapshots(self.steps[:k], self.gamma[:k], self.rho[:k],
                                    same_class_mask)


def _make_snapshot_observers(config: FullConfig) -> dict:
    return {label: _SnapshotSink(config) for label in ("standard", "label_noise")}


def _cmd_check(args, config: FullConfig) -> int:
    report = check_assumptions(_spec_of(config), config.n, config.m, config.eta,
                               config.sigma_0, config.p)
    print(f"assumption report for {args.config} (all_passed={report.all_passed})")
    for item in report.items:
        flag = "ok  " if item.passed else "FAIL"
        print(f"  [{flag}] {item.item}: lhs={item.lhs:.6g} rhs={item.rhs:.6g} "
              f"ratio={item.ratio:.6g}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(report.to_dict(), out / "assumption_report.json")
    return EXIT_OK  # report-only by contract, even when items fail


# The run commands return (files to emit, whether an arm aborted, the
# --assert failure message or None); _run_command emits and picks the exit code.


def _paired_dynamics(config: FullConfig, observers: dict):
    return run_dynamics(
        _spec_of(config), n=config.n, m=config.m, q=config.q, sigma_0=config.sigma_0,
        eta=config.eta, steps=config.steps, noise=config.noise, seed=config.seed,
        log_stride=config.log_stride, n_test=config.n_test, epsilon=config.epsilon,
        c_test=config.c_test, observers=observers,
    )


def _dynamics_files(result, config: FullConfig, sinks, command: str,
                    started: str) -> RunArtifactFiles:
    artifacts = RunArtifactFiles(config=config, command=command, started_at=started)
    for label, arm in (("standard", result.standard), ("label_noise", result.label_noise)):
        artifacts.traces[f"trace_{label}.csv"] = arm.trace
        if sinks[label].filled:
            artifacts.coefficient_snapshots[f"coefficients_{label}.csv"] = (
                sinks[label].snapshots(arm.state.same_class_mask))
    artifacts.reports = {"dynamics": result.reports}
    return artifacts


def _cmd_dynamics(config: FullConfig, started: str):
    sinks = _make_snapshot_observers(config)
    result = _paired_dynamics(config, sinks)
    aborted = result.standard.aborted or result.label_noise.aborted
    for label, arm in (("standard", result.standard), ("label_noise", result.label_noise)):
        if arm.aborted:
            print(f"{label}: ABORTED at step {arm.trace.aborted_at}: {arm.abort_reason}")
        else:
            print(f"{label}: final clean loss {arm.final_clean_loss:.4f}, "
                  f"test accuracy {arm.final_test_accuracy:.4f}")
    failed = not aborted and not all(result.reports[label]["verdicts"]["passed"]
                                     for label in ("standard", "label_noise"))
    return (_dynamics_files(result, config, sinks, "dynamics", started), aborted,
            "empirical verdicts failed" if failed else None)


def _cmd_heatmap(config: FullConfig, started: str):
    if config.grid is None:
        raise ConfigError("heatmap requires a 'grid' section in the config")
    grid = SweepGrid(
        snr_values=tuple(config.grid["snr_values"]),
        n_values=tuple(config.grid["n_values"]),
        steps=config.grid["steps"],
        eta=config.grid["eta"],
        seeds_per_cell=config.grid["seeds_per_cell"],
        d=config.d, m=config.m, q=config.q, sigma_0=config.sigma_0,
        sigma_p=config.sigma_p, p=config.p, n_test=config.n_test,
        master_seed=config.seed,
    )
    cores = usable_cores()
    blas = blas_threads(cores)
    if config.workers > 1 and config.workers * blas > cores:
        print(f"note: {config.workers} workers x {blas} BLAS threads exceed the {cores} "
              "usable cores; set OPENBLAS_NUM_THREADS=1 or use fewer workers",
              file=sys.stderr)
    result = run_heatmap(grid, workers=config.workers)
    cells = [{"snr": snr, "n": n, "standard_mean": stats["standard"][0],
              "label_noise_mean": stats["label_noise"][0], "errors": result.errors[key]}
             for key, snr, n, _, stats in result.by_cell()]
    worst_gap = min((c["label_noise_mean"] - c["standard_mean"] for c in cells
                     if not math.isnan(c["standard_mean"])), default=float("nan"))
    report = {
        "grid": {"snr_values": list(grid.snr_values), "n_values": list(grid.n_values),
                 "steps": grid.steps, "eta": grid.eta,
                 "seeds_per_cell": grid.seeds_per_cell},
        "worst_label_noise_deficit": worst_gap,
        "cells": cells,
    }
    for c in cells:
        print(f"snr={c['snr']:g} n={c['n']}: standard {c['standard_mean']:.4f} "
              f"label_noise {c['label_noise_mean']:.4f}")
    artifacts = RunArtifactFiles(config=config, command="heatmap", started_at=started,
                                 reports={"heatmap": report}, heatmap=result)
    return (artifacts, any(result.errors.values()),
            None if worst_gap >= -0.02 else
            f"label-noise GD worse than standard GD by {-worst_gap:.4f} in some cell")


def _cmd_noise_compare(config: FullConfig, started: str):
    if not config.noise_list:
        raise ConfigError("noise-compare requires a 'noise_list' section in the config")
    result = run_noise_comparison(
        _spec_of(config), n=config.n, m=config.m, q=config.q, sigma_0=config.sigma_0,
        eta=config.eta, steps=config.steps, noise_list=list(config.noise_list),
        seed=config.seed, log_stride=config.log_stride, n_test=config.n_test,
    )
    baseline = result["baseline"]
    artifacts = RunArtifactFiles(config=config, command="noise-compare", started_at=started)
    artifacts.traces["trace_standard.csv"] = baseline.trace
    rows = []
    aborted = baseline.aborted
    for arm in result["arms"]:
        aborted = aborted or arm.aborted
        artifacts.traces[f"trace_{_slug(arm.label)}.csv"] = arm.trace
        rows.append({
            "noise": arm.label,
            "aborted": arm.aborted,
            "final_test_accuracy": None if arm.aborted else arm.final_test_accuracy,
            "final_clean_loss": None if arm.aborted else arm.final_clean_loss,
        })
    base = None if baseline.aborted else baseline.final_test_accuracy
    artifacts.reports = {"noise_compare": {"baseline_accuracy": base, "arms": rows}}
    print(f"standard baseline: accuracy {base if base is not None else 'aborted'}")
    for row in rows:
        print(f"  {row['noise']}: accuracy {row['final_test_accuracy']}")
    trails = not aborted and any(row["final_test_accuracy"] < base - 0.02 for row in rows)
    return (artifacts, aborted,
            "a label-noise arm trails the baseline by more than 0.02" if trails else None)


def _cmd_q_sweep(config: FullConfig, started: str):
    # run_q_sweep refuses a q without reference settings, as a ConfigError, before any q trains.
    results = run_q_sweep(config.q_list or tuple(Q_SWEEP_DEFAULTS), d=config.d,
                          sigma_0=config.sigma_0, steps=config.steps, p=config.p, seed=config.seed,
                          log_stride=config.log_stride, n_test=config.n_test)
    artifacts = RunArtifactFiles(config=config, command="q-sweep", started_at=started)
    report = {}
    aborted = False
    ordering_ok = True
    for q, res in results.items():
        for label, arm in (("standard", res.standard), ("label_noise", res.label_noise)):
            aborted = aborted or arm.aborted
            artifacts.traces[f"trace_q{q}_{label}.csv"] = arm.trace
        entry = {
            "standard_accuracy": None if res.standard.aborted else res.standard.final_test_accuracy,
            "label_noise_accuracy": (None if res.label_noise.aborted
                                     else res.label_noise.final_test_accuracy),
        }
        if None not in entry.values():
            ordering_ok = ordering_ok and (entry["label_noise_accuracy"]
                                           >= entry["standard_accuracy"])
        report[f"q={q}"] = entry
        print(f"q={q}: standard {entry['standard_accuracy']} "
              f"label_noise {entry['label_noise_accuracy']}")
    artifacts.reports = {"q_sweep": report}
    return (artifacts, aborted,
            None if ordering_ok else "label-noise GD lost the ordering in some q")


def _cmd_concentration(args, config: FullConfig) -> int:
    report = concentration_suite(
        _spec_of(config), n=config.n, m=config.m, sigma_0=config.sigma_0, p=config.p,
        trials=config.trials, delta=config.delta, seed=config.seed,
    )
    for name in ("noise_geometry", "init_inner_products", "flip_count_per_step",
                 "flip_count_per_sample"):
        print(f"{name}: pass rate {report[name]['pass_rate']:.4f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(report, out / "concentration_report.json")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json under {run_dir}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{manifest_path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path} is not a JSON object")
    command = manifest.get("command")
    if command != "dynamics":
        raise ConfigError(f"decompose replays dynamics runs only; {run_dir} holds a "
                          f"{command!r} run")
    if "config" not in manifest:
        raise ConfigError(f"{manifest_path} has no 'config' key")
    config = parse_config(data=manifest["config"])
    sinks = _make_snapshot_observers(config)
    recon_errors = {"standard": [], "label_noise": []}
    arms = [("standard", LabelNoiseSpec.none()), ("label_noise", config.noise)]

    def recon_observer(idx, label, noise):
        # The weight-space oracle replays the arm on its own copy of the
        # multiplier stream; the engine's weights are judged against it.
        base = sinks[label]
        oracle = OracleReplay(config.q, config.eta, noise,
                              arm_noise_rng(config.seed, idx, noise))

        def observer(step, state, dataset):
            base(step, state, dataset)
            w = oracle.advance(step, state, dataset).weights
            w_plus, w_minus = reconstruct_weights(state, dataset)
            err = (np.linalg.norm(np.hstack([w_plus, w_minus]) - w)
                   / max(np.linalg.norm(w), 1e-300))
            recon_errors[label].append((step, float(err)))

        return observer

    result = _paired_dynamics(config, {label: recon_observer(idx, label, noise)
                                       for idx, (label, noise) in enumerate(arms)})
    # Re-emit into a scratch area to compare digests against the manifest.
    files = _dynamics_files(result, config, sinks, command, now_utc())
    with tempfile.TemporaryDirectory() as tmp:
        inventory = emit_outputs(files, tmp, force=True)
    recorded = manifest.get("files", {})
    matches = {
        name: recorded.get(name) == digest
        for name, digest in inventory.items()
        if name.endswith(".csv") and name in recorded
    }
    report = {
        "digests_match": matches,
        "all_digests_match": all(matches.values()) and bool(matches),
        "reconstruction_errors": recon_errors,
        "max_reconstruction_error": max(
            (e for errs in recon_errors.values() for _, e in errs), default=0.0
        ),
        "reports": result.reports,
    }
    write_json(report, run_dir / "decompose_reports.json")
    print(f"digests match: {report['all_digests_match']}; "
          f"max reconstruction error: {report['max_reconstruction_error']:.3e}")
    if args.assert_ and not (report["all_digests_match"]
                             and report["max_reconstruction_error"] <= 1e-8):
        return EXIT_ASSERT
    return EXIT_OK


def _slug(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label).strip("_")


_RUNS = {
    "dynamics": _cmd_dynamics,
    "heatmap": _cmd_heatmap,
    "noise-compare": _cmd_noise_compare,
    "q-sweep": _cmd_q_sweep,
}
_REPORTS = {"check": _cmd_check, "concentration": _cmd_concentration}


def _run_command(args) -> int:
    if args.command == "decompose":
        return _cmd_decompose(args)
    config = parse_config(args.config, overrides={
        "seed": args.seed, "trials": getattr(args, "trials", None),
        "workers": getattr(args, "workers", None)})
    if args.command in _REPORTS:
        return _REPORTS[args.command](args, config)
    out_dir = _out_dir(args, config)
    refuse_overwrite(out_dir, args.force)  # before the run, not after it
    files, aborted, failure = _RUNS[args.command](config, now_utc())
    emit_outputs(files, out_dir, force=args.force)
    if aborted:
        return EXIT_ABORTED
    if args.assert_ and failure:
        print(f"assert: {failure}", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def main_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _run_command(args)
    except (ConfigError, EmitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(main_cli())


if __name__ == "__main__":
    main()
