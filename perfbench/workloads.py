"""Workload definitions, computed operation counts and output checks.

Each workload is one ``lngd`` subcommand on a config the benchmark writes
from the workload seed. The configs are copies of the repository's
reference configs, kept here so that the benchmark does not move when a
config under ``configs/`` is edited.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# Values recorded at the commit that defined the benchmark, on the default
# seed. They hold as long as the numbers a run produces do not change;
# trace bytes may change, these values may not.
DEFAULT_SEED = 1
REFERENCE = {
    "dynamics-s5": {"standard": 0.5505, "label_noise": 0.8660},
    # "snr,n": [standard mean, label-noise mean]
    "heatmap-desk": {"0.06,100": [0.49450000000000005, 0.9359999999999999],
                     "0.06,300": [0.5035000000000001, 0.513]},
    "concentration": {"noise_geometry": 1.0, "init_inner_products": 0.999,
                      "flip_count_per_step": 1.0, "flip_count_per_sample": 1.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # lngd subcommand
    config: dict  # full-size config without the seed
    tiny: dict  # overrides that shrink the workload for the smoke test
    args: tuple = ()
    why: str = ""

    def make_config(self, seed: int, tiny: bool) -> dict:
        cfg = copy.deepcopy(self.config)
        if tiny:
            cfg.update(copy.deepcopy(self.tiny))
        cfg["seed"] = seed
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dynamics-s5",
            command="dynamics",
            config={"d": 2000, "n": 200, "mu_scale": 2.0, "sigma_p": 0.5, "p": 0.1,
                    "eta": 0.5, "steps": 2000, "m": 20, "q": 2, "sigma_0": 0.01,
                    "log_stride": 10, "coeff_stride": 100, "n_test": 2000},
            tiny={"d": 200, "n": 20, "m": 4, "steps": 40, "log_stride": 10,
                  "coeff_stride": 20, "n_test": 100},
            why="paired GD vs label-noise GD at the section-5 shape; every layer "
                "does real work, coefficient CSV emission included",
        ),
        Workload(
            name="heatmap-desk",
            command="heatmap",
            config={"d": 2000, "n": 100, "mu_scale": 2.0, "sigma_p": 0.5, "p": 0.1,
                    "eta": 0.5, "steps": 1000,
                    "grid": {"snr_values": [0.06], "n_values": [100, 300],
                             "steps": 1000, "eta": 1.0, "seeds_per_cell": 1}},
            tiny={"d": 200, "n": 20, "n_test": 100,
                  "grid": {"snr_values": [0.06], "n_values": [20, 40], "steps": 40,
                           "eta": 1.0, "seeds_per_cell": 1}},
            args=("--workers", "1"),
            why="short paired runs at two n/d ratios (SNR 0.06 row of the desk grid); "
                "the step dominates, logging and emission are near zero",
        ),
        Workload(
            name="concentration",
            command="concentration",
            config={"d": 2000, "n": 20, "mu_scale": 2.0, "sigma_p": 0.5, "p": 0.1,
                    "eta": 0.5, "steps": 1, "m": 20, "log_stride": 1, "trials": 1000,
                    "delta": 0.01},
            tiny={"d": 200, "n": 10, "trials": 100},
            why="Monte Carlo checks with no training; data generation, init and "
                "random streams dominate",
        ),
    )
}


def work_units(workload: Workload, cfg: dict) -> int:
    """Work in one command: arm-steps for training, Monte Carlo trials otherwise."""
    if workload.command == "dynamics":
        return 2 * cfg["steps"]
    if workload.command == "heatmap":
        g = cfg["grid"]
        return len(g["snr_values"]) * len(g["n_values"]) * g["seeds_per_cell"] * 2 * g["steps"]
    return 4 * cfg["trials"]  # four suites of `trials` trials each


def operations(workload: Workload, cfg: dict) -> int:
    """Operations one command attempts: trained arms, or one concentration suite."""
    if workload.command == "dynamics":
        return 2
    if workload.command == "heatmap":
        g = cfg["grid"]
        return len(g["snr_values"]) * len(g["n_values"]) * g["seeds_per_cell"] * 2
    return 1


# --- computed operation counts ------------------------------------------------
# Counts from array shapes (float64), for the weight-space step at this
# commit: k = 2m filters, X = noise matrix (n, d), W = weights (d, k).
# They ignore caches and temporaries and repeat exactly for a given shape.


def step_flops(n: int, d: int, k: int) -> int:
    # mu@W and X@W forward, X.T@G backward, outer(mu, .), elementwise on (n, k),
    # gradient scaling and the update W -= eta * grad.
    return 4 * n * d * k + 6 * d * k + 10 * n * k


def step_bytes(n: int, d: int, k: int) -> int:
    # X read twice; W read twice and written once; grad written and read three times.
    return 8 * (2 * n * d + 6 * d * k)


def eval_flops(n_test: int, d: int, k: int) -> int:
    return 2 * n_test * d * k + 2 * d * k + 4 * n_test * k


def eval_bytes(n_test: int, d: int, k: int) -> int:
    return 8 * (n_test * d + d * k)


def draw_flops(n: int, d: int) -> int:
    # Projection of a Gaussian block off mu: X@mu, outer, subtract, scale.
    return 5 * n * d


def draw_bytes(n: int, d: int) -> int:
    # Noise block plus the label and patch-slot vectors.
    return 8 * n * d + 16 * n


def computed_counts(workload: Workload, cfg: dict) -> dict:
    """Per-step, per-evaluation and per-draw counts at the workload's shape.

    A workload with several training sizes (the heatmap's n axis) reports
    the mean over its cells, i.e. the total divided by the number of steps.
    """
    d, k = cfg["d"], 2 * cfg.get("m", 20)
    n_test = cfg.get("n_test", 2000)
    ns = cfg["grid"]["n_values"] if workload.command == "heatmap" else [cfg["n"]]

    def mean(f):
        return sum(f(n) for n in ns) / len(ns)

    return {
        "network.step_flops": mean(lambda n: step_flops(n, d, k)),
        "network.step_bytes": mean(lambda n: step_bytes(n, d, k)),
        "network.eval_flops": eval_flops(n_test, d, k),
        "network.eval_bytes": eval_bytes(n_test, d, k),
        "data.draw_flops": mean(lambda n: draw_flops(n, d)),
        "data.bytes_generated": mean(lambda n: draw_bytes(n, d)),
    }


# --- output checks -----------------------------------------------------------


@dataclass
class Checks:
    """Named pass/fail results of one benchmark run."""

    results: dict = field(default_factory=dict)

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        prev = self.results.get(name)
        if prev is None or prev["ok"]:
            self.results[name] = {"ok": bool(ok), "detail": detail}
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results.values())


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(out: Path) -> dict:
    """Digest of every emitted file except the manifest, which holds timestamps."""
    return {p.name: sha256_file(p) for p in sorted(out.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12


def _check_manifest(out: Path, checks: Checks) -> None:
    manifest = json.loads((out / "manifest.json").read_text())
    recorded = manifest.get("files", {})
    emitted = output_digests(out)
    checks.add("manifest_digests", recorded == emitted,
               "" if recorded == emitted else
               f"manifest lists {sorted(recorded)}, emitted {sorted(emitted)} or digests differ")


def check_outputs(workload: Workload, cfg: dict, out: Path, checks: Checks,
                  tiny: bool) -> tuple[int, dict]:
    """Check one finished command's run directory.

    Returns the number of failed operations and the values compared
    against the recorded reference.
    """
    reference = REFERENCE[workload.name] if (cfg["seed"] == DEFAULT_SEED and not tiny) else None
    if workload.command == "dynamics":
        return _check_dynamics(cfg, out, checks, reference)
    if workload.command == "heatmap":
        return _check_heatmap(cfg, out, checks, reference)
    return _check_concentration(cfg, out, checks, reference)


def _expected_logged_steps(steps: int, log_stride: int) -> list[int]:
    return sorted(set(range(0, steps, log_stride)) | {steps})


def _check_dynamics(cfg, out, checks, reference):
    _check_manifest(out, checks)
    reports = json.loads((out / "reports.json").read_text())["dynamics"]
    logged = _expected_logged_steps(cfg["steps"], cfg["log_stride"])
    snapshots = [s for s in logged if s % cfg["coeff_stride"] == 0 or s == cfg["steps"]]
    failed = 0
    values = {}
    for arm in ("standard", "label_noise"):
        ok = checks.add(f"{arm}_not_aborted", not reports[arm].get("aborted", False),
                        reports[arm].get("reason", ""))
        with open(out / f"trace_{arm}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ok &= checks.add("trace_rows", [int(r["step"]) for r in rows] == logged,
                         f"{arm}: {len(rows)} rows, expected {len(logged)}")
        acc = 1.0 - float(rows[-1]["test_error_01"]) if rows else math.nan
        values[arm] = acc
        ok &= checks.add("accuracy_in_range", 0.0 <= acc <= 1.0, f"{arm}: {acc}")
        lines = _line_count(out / f"coefficients_{arm}.csv")
        expect = 1 + len(snapshots) * 2 * cfg["m"] * cfg["n"]
        ok &= checks.add("coefficient_rows", lines == expect,
                         f"{arm}: {lines} lines, expected {expect}")
        ok &= checks.add("verdicts_present", "verdicts" in reports[arm], arm)
        if reference is not None:
            ok &= checks.add("reference_accuracy", _close(acc, reference[arm]),
                             f"{arm}: {acc} vs recorded {reference[arm]}")
        failed += not ok
    return failed, values


def _check_heatmap(cfg, out, checks, reference):
    _check_manifest(out, checks)
    g = cfg["grid"]
    cells = json.loads((out / "reports.json").read_text())["heatmap"]["cells"]
    expect = {(s, n) for s in g["snr_values"] for n in g["n_values"]}
    checks.add("heatmap_cells", {(c["snr"], c["n"]) for c in cells} == expect,
               f"{len(cells)} cells, expected {len(expect)}")
    rows = _line_count(out / "heatmap.csv") - 1
    failed = errors = 0
    values = {}
    for c in cells:
        key = f"{c['snr']:g},{c['n']}"
        errors += len(c["errors"])
        checks.add("no_cell_errors", not c["errors"], f"{key}: {c['errors'][:1]}")
        means = [c["standard_mean"], c["label_noise_mean"]]
        values[key] = means
        ok = checks.add("accuracy_in_range", all(0.0 <= v <= 1.0 for v in means), key)
        if reference is not None:
            ref = reference.get(key)
            ok &= checks.add("reference_cell_means",
                             ref is not None and all(map(_close, means, ref)),
                             f"{key}: {means} vs recorded {ref}")
        # An errored arm is one failed operation; a wrong cell fails all its arms.
        failed += len(c["errors"]) if ok else 2 * g["seeds_per_cell"]
    arms = len(expect) * g["seeds_per_cell"] * 2
    checks.add("heatmap_rows", rows == arms - errors, f"{rows} rows, {arms} arms")
    return failed, values


_SUITES = ("noise_geometry", "init_inner_products", "flip_count_per_step",
           "flip_count_per_sample")


def _check_concentration(cfg, out, checks, reference):
    report = json.loads((out / "concentration_report.json").read_text())
    values = {name: report[name]["pass_rate"] for name in _SUITES}
    ok = checks.add("trials", report["trials"] == cfg["trials"], str(report["trials"]))
    ok &= checks.add("pass_rate_in_range", all(0.0 <= v <= 1.0 for v in values.values()),
                     str(values))
    if reference is not None:
        ok &= checks.add("reference_pass_rates",
                         all(_close(values[k], reference[k]) for k in _SUITES),
                         f"{values} vs recorded {reference}")
    return int(not ok), values
