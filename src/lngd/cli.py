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
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, FullConfig, parse_config
from .experiments import (
    arm_noise_rng,
    axis_aligned_spec,
    plan,
    refuse_oversized,
    run_dynamics,
    run_heatmap,
    run_paired,
)
from .io import (DECOMPOSE_REPORTS, EmitError, RunArtifactFiles, emit_outputs, now_utc,
                 refuse_overwrite, write_heatmap_aggregate_csv, write_heatmap_csv, write_json,
                 write_trace_csv)
from .network import OracleReplay, reconstruct_weights
from .theory import check_assumptions, concentration_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORTED = 2
EXIT_ASSERT = 3
RECONSTRUCTION_BOUND = 1e-8  # the largest engine-oracle weight gap decompose --assert passes

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


def _out_dir(args, config: FullConfig) -> Path:
    if args.out:
        return Path(args.out)
    root = Path(os.environ.get("LNGD_OUT_ROOT", "runs"))
    return root / f"{args.command.replace('-', '_')}_seed{config.seed}"


def _cmd_check(args, config: FullConfig) -> int:
    report = check_assumptions(config.mu_scale, config.sigma_p, config.d, config.n, config.m,
                               config.eta, config.sigma_0, config.p)
    print(f"assumption report for {args.config} (all_passed={report['all_passed']})")
    for item in report["items"]:
        flag = "ok  " if item["passed"] else "FAIL"
        print(f"  [{flag}] {item['item']}: lhs={item['lhs']:.6g} rhs={item['rhs']:.6g} "
              f"ratio={item['ratio']:.6g}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(report, out / "assumption_report.json")
    return EXIT_OK  # report-only by contract, even when items fail


# The run commands take (config, start time, output directory; only dynamics writes there
# as it runs) and return (files to emit, whether an arm aborted, the --assert failure
# message or None); _run_command emits and picks the exit code.


def _run_files(config: FullConfig, command: str, started: str, paired, reports: dict):
    """The files of each (run, arms) in ``paired``: every arm's trace, at its run's
    ``trace_file``, the digests of its dumps, and ``reports.json``; and whether any arm
    aborted."""
    artifacts = RunArtifactFiles(config=config, command=command, started_at=started,
                                 files={"reports.json": partial(write_json, reports)})
    aborted = False
    for run, arms in paired:
        for arm in arms:
            artifacts.files[run.trace_file(arm.label)] = partial(write_trace_csv, arm.trace)
            artifacts.written.update(arm.files)
            aborted = aborted or arm.aborted
    return artifacts, aborted


def _cmd_dynamics(config: FullConfig, started: str, out_dir: Path):
    [run] = plan("dynamics", config)
    result = run_dynamics(run, dump_dir=out_dir)
    arms = (result.standard, result.label_noise)
    artifacts, aborted = _run_files(config, "dynamics", started, [(run, arms)],
                                    {"dynamics": result.reports})
    for arm in arms:
        if arm.aborted:
            print(f"{arm.label}: ABORTED at step {arm.trace.aborted_at}: {arm.abort_reason}")
        else:
            print(f"{arm.label}: final clean loss {arm.final_clean_loss:.4f}, "
                  f"test accuracy {arm.final_test_accuracy:.4f}")
    failed = not aborted and not all(result.reports[arm.label]["verdicts"]["passed"]
                                     for arm in arms)
    return artifacts, aborted, "empirical verdicts failed" if failed else None


def _cmd_heatmap(config: FullConfig, started: str, out_dir: Path):
    result = run_heatmap(config)
    cells, gaps = [], []
    for key, snr, n, _, stats in result.by_cell():
        gd, ln = stats["standard"][0], stats["label_noise"][0]  # NaN without a finished seed
        print(f"snr={snr:g} n={n}: standard {gd:.4f} label_noise {ln:.4f}")
        cells.append({"snr": snr, "n": n, "standard_mean": None if math.isnan(gd) else gd,
                      "label_noise_mean": None if math.isnan(ln) else ln,
                      "errors": result.errors[key]})
        gaps.append(ln - gd)
    worst_gap = min((gap for gap in gaps if math.isfinite(gap)), default=None)
    report = {"grid": result.grid, "worst_label_noise_deficit": worst_gap, "cells": cells}
    artifacts = RunArtifactFiles(config=config, command="heatmap", started_at=started, files={
        "reports.json": partial(write_json, {"heatmap": report}),
        "heatmap.csv": partial(write_heatmap_csv, result),
        "heatmap_aggregate.csv": partial(write_heatmap_aggregate_csv, result)})
    return (artifacts, any(result.errors.values()),
            None if worst_gap is None or worst_gap >= -0.02 else
            f"label-noise GD worse than standard GD by {-worst_gap:.4f} in some cell")


def _accuracy(arm):
    return None if arm.aborted else arm.final_test_accuracy


def _cmd_noise_compare(config: FullConfig, started: str, out_dir: Path):
    [run] = plan("noise-compare", config)
    baseline, *arms = run_paired(run)
    rows = [{"noise": arm.label, "aborted": arm.aborted,
             "final_test_accuracy": _accuracy(arm),
             "final_clean_loss": None if arm.aborted else arm.final_clean_loss}
            for arm in arms]
    base = _accuracy(baseline)
    artifacts, aborted = _run_files(config, "noise-compare", started, [(run, [baseline, *arms])],
                                    {"noise_compare": {"baseline_accuracy": base, "arms": rows}})
    print(f"standard baseline: accuracy {base if base is not None else 'aborted'}")
    for row in rows:
        print(f"  {row['noise']}: accuracy {row['final_test_accuracy']}")
    trails = not aborted and any(row["final_test_accuracy"] < base - 0.02 for row in rows)
    return (artifacts, aborted,
            "a label-noise arm trails the baseline by more than 0.02" if trails else None)


def _cmd_q_sweep(config: FullConfig, started: str, out_dir: Path):
    # plan refuses a q without reference settings, as a ConfigError, before any q trains.
    paired = [(run, run_paired(run)) for run in plan("q-sweep", config)]
    report = {}
    ordering_ok = True
    for run, (standard, label_noise) in paired:
        entry = {"standard_accuracy": _accuracy(standard),
                 "label_noise_accuracy": _accuracy(label_noise)}
        if None not in entry.values():
            ordering_ok = ordering_ok and (entry["label_noise_accuracy"]
                                           >= entry["standard_accuracy"])
        report[f"q={run.q}"] = entry
        print(f"q={run.q}: standard {entry['standard_accuracy']} "
              f"label_noise {entry['label_noise_accuracy']}")
    artifacts, aborted = _run_files(config, "q-sweep", started, paired, {"q_sweep": report})
    return (artifacts, aborted,
            None if ordering_ok else "label-noise GD lost the ordering in some q")


def _cmd_concentration(args, config: FullConfig) -> int:
    refuse_oversized(config.d, config.n, config.m)
    report = concentration_suite(
        axis_aligned_spec(config.mu_scale, config.sigma_p, config.d), n=config.n, m=config.m,
        sigma_0=config.sigma_0, p=config.p, trials=config.trials, delta=config.delta,
        seed=config.seed,
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
    recorded = manifest.get("files", {})
    if not isinstance(recorded, dict):
        raise ConfigError(f"{manifest_path}: 'files' is not a JSON object")
    config = parse_config(data=manifest["config"])
    [run] = plan("dynamics", config)
    recon_errors = {label: [] for label, _ in run.arms}

    def recon_observer(idx, label, noise):
        # The weight-space oracle replays the arm on its own copy of the
        # multiplier stream; the engine's weights are judged against it.
        oracle = OracleReplay(run.q, run.eta, noise, arm_noise_rng(run.seed, idx, noise))

        def observer(step, state, dataset):
            w = oracle.advance(step, state, dataset)
            w_plus, w_minus = reconstruct_weights(state, dataset)
            err = (np.linalg.norm(np.hstack([w_plus, w_minus]) - w)
                   / max(np.linalg.norm(w), 1e-300))
            recon_errors[label].append((step, float(err)))

        return observer

    # Replay and re-emit into a scratch area to compare digests against the manifest.
    observers = {label: recon_observer(idx, label, noise)
                 for idx, (label, noise) in enumerate(run.arms)}
    with tempfile.TemporaryDirectory() as tmp:
        result = run_dynamics(run, observers=observers, dump_dir=Path(tmp))
        artifacts, _ = _run_files(config, command, now_utc(),
                                  [(run, (result.standard, result.label_noise))],
                                  {"dynamics": result.reports})
        inventory = emit_outputs(artifacts, tmp, force=True)
    # A CSV replayed but not listed, or listed but not replayed, is a mismatch.
    matches = {
        name: name in inventory and name in recorded and recorded[name] == inventory[name]
        for name in {**inventory, **recorded}
        if name.endswith(".csv")
    }
    report = {
        "digests_match": matches,
        "all_digests_match": all(matches.values()) and bool(matches),
        "reconstruction_errors": recon_errors,
        "max_reconstruction_error": max(
            (e for errs in recon_errors.values() for _, e in errs), default=0.0
        ),
        "reconstruction_bound": RECONSTRUCTION_BOUND,
        "reports": result.reports,
    }
    write_json(report, run_dir / DECOMPOSE_REPORTS)
    print(f"digests match: {report['all_digests_match']}; "
          f"max reconstruction error: {report['max_reconstruction_error']:.3e}")
    if args.assert_ and not (report["all_digests_match"]
                             and report["max_reconstruction_error"] <= RECONSTRUCTION_BOUND):
        return EXIT_ASSERT
    return EXIT_OK


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
    out_dir = _out_dir(args, config)
    if args.out or args.command in _RUNS:  # a report command writes only to --out
        found = next(path for path in (out_dir, *out_dir.parents) if path.exists())
        if not found.is_dir():
            raise EmitError(f"output directory {out_dir}: {found} is not a directory")
    if args.command in _REPORTS:
        return _REPORTS[args.command](args, config)
    refuse_overwrite(out_dir, args.force)  # before the run writes anything
    files, aborted, failure = _RUNS[args.command](config, now_utc(), out_dir)
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
