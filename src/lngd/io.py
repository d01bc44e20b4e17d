"""Result emission: trace/coefficient CSVs, report JSON, digested manifest.

CSV numbers are written with 17 significant digits (lossless for 64-bit
floats) and newline-only line endings, so re-running with the same seed
yields byte-identical files. The manifest is written last and records a
sha256 digest of every other emitted file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import FullConfig, config_to_dict
from .streams import STREAM_IDS, derive_seed
from .training import TRACE_COLUMNS, TrainTrace

__all__ = ["EmitError", "CoefficientSnapshots", "fmt_float", "sha256_file", "write_trace_csv",
           "write_coefficients_csv", "write_heatmap_csv", "emit_outputs"]


class EmitError(RuntimeError):
    """Refusal to overwrite existing outputs or other emission failures."""


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def _fmt_value(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return fmt_float(x)


def sha256_file(path: Path) -> str:
    """Hex sha256 of a file, read in 1 MiB blocks into one reused buffer."""
    digest = hashlib.sha256()
    block = bytearray(1 << 20)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_value(v) for v in row) + "\n")


def write_trace_csv(trace: TrainTrace, path: Path) -> None:
    _write_csv(path, TRACE_COLUMNS, trace.rows.tolist())


class CoefficientSnapshots(NamedTuple):
    """One arm's coefficients at k steps, typically strided more coarsely than the trace."""

    steps: np.ndarray  # (k,)
    gamma: np.ndarray  # (k, 2, m)
    rho: np.ndarray  # (k, 2, m, n)
    same_class_mask: np.ndarray  # (2, n): True where y_i == j


def write_coefficients_csv(snaps: CoefficientSnapshots, path: Path) -> None:
    """Long-form coefficient dump: one row per (step, j, r, i).

    rho is written in the rho_bar column at same-class entries (y_i = j) and
    in the rho_under column at opposite-class ones; the other column holds
    the zero fill "0". Values are written as ``fmt_float`` writes them, gamma
    once per (j, r). Each (step, j, r) block is one ``%`` over a row template
    of its branch, built once per file with the i column and the fill.
    """
    head, gamma_col = "\x00", "\x01"  # stand for "step,j,r," and ",gamma,"
    # "%.17g" % x == fmt_float(x) for every float, -0.0, inf and nan included.
    templates = ["".join(f"{head}{i}{gamma_col}%.17g,0\n" if s
                         else f"{head}{i}{gamma_col}0,%.17g\n" for i, s in enumerate(same))
                 for same in snaps.same_class_mask.tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write("step,j,r,i,gamma,rho_bar,rho_under\n")
        for step, gamma, rho in zip(snaps.steps.tolist(), snaps.gamma, snaps.rho):
            for b, r in np.ndindex(gamma.shape):
                block = templates[b].replace(head, f"{step},{1 - 2 * b},{r},")
                block = block.replace(gamma_col, f",{fmt_float(gamma[b, r])},")
                fh.write(block % tuple(rho[b, r].tolist()))


def write_coefficient_summary_csv(snaps: CoefficientSnapshots, path: Path) -> None:
    """Compact per-step companion to the long-form coefficient dump.

    rho_bar and rho_under are zero-filled outside their entries, as in the dump:
    each reduction starts from 0 and reads only its own entries, with no
    full-size copy of rho.
    """
    same = np.broadcast_to(snaps.same_class_mask[:, None, :], snaps.rho.shape[1:])
    under = ~same
    header = ["step", "max_gamma", "mean_gamma", "max_rho_bar", "min_rho_under"]
    rows = zip(snaps.steps.tolist(),
               snaps.gamma.max(axis=(1, 2)).tolist(),
               snaps.gamma.mean(axis=(1, 2)).tolist(),
               [rho.max(where=same, initial=0.0) for rho in snaps.rho],
               [rho.min(where=under, initial=0.0) for rho in snaps.rho])
    _write_csv(path, header, rows)


def write_heatmap_csv(heatmap, path: Path) -> None:
    """One row per finished arm of a ``HeatmapResult``, in (row, col, seed, algorithm) order."""
    header = ["snr", "n", "seed", "algorithm", "test_accuracy"]
    _write_csv(path, header, ((snr, n, *arm) for _, snr, n, finished, _ in heatmap.by_cell()
                              for arm in finished))


def write_heatmap_aggregate_csv(heatmap, path: Path) -> None:
    """One row per cell: mean and std of each algorithm's finished seeds, and the standard count."""
    header = ["snr", "n", "standard_mean", "standard_std", "label_noise_mean",
              "label_noise_std", "seeds"]
    rows = []
    for _, snr, n, _, stats in heatmap.by_cell():
        (gd_mean, gd_std, seeds), (ln_mean, ln_std, _) = stats["standard"], stats["label_noise"]
        rows.append((snr, n, gd_mean, gd_std, ln_mean, ln_std, seeds))
    _write_csv(path, header, rows)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(payload: dict, path: Path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


@dataclass
class RunArtifactFiles:
    """What a run wants written: named CSV/JSON payloads plus manifest extras."""

    config: FullConfig
    command: str
    traces: dict = field(default_factory=dict)  # filename -> TrainTrace
    coefficient_snapshots: dict = field(default_factory=dict)  # filename -> CoefficientSnapshots
    reports: dict = field(default_factory=dict)  # merged into reports.json
    heatmap: object = None  # HeatmapResult
    started_at: str = ""
    finished_at: str = ""


def now_utc() -> str:
    return datetime.now(timezone.utc).isoformat()


def refuse_overwrite(out_dir: str | Path, force: bool) -> None:
    """Raise EmitError if ``out_dir`` holds a manifest and ``force`` is not set."""
    manifest_path = Path(out_dir) / "manifest.json"
    if manifest_path.exists() and not force:
        raise EmitError(f"{manifest_path} already exists; pass force to overwrite")


def emit_outputs(artifacts: RunArtifactFiles, out_dir: str | Path, force: bool = False) -> dict:
    """Write all run files plus a digested manifest.json; returns the inventory.

    Refuses to overwrite an existing manifest unless ``force`` is set.
    """
    refuse_overwrite(out_dir, force)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    inventory: dict[str, str] = {}

    def record(name: str):
        inventory[name] = sha256_file(out / name)

    for name, trace in artifacts.traces.items():
        write_trace_csv(trace, out / name)
        record(name)
    for name, snaps in artifacts.coefficient_snapshots.items():
        write_coefficients_csv(snaps, out / name)
        record(name)
        summary_name = name.replace(".csv", "_summary.csv")
        write_coefficient_summary_csv(snaps, out / summary_name)
        record(summary_name)
    if artifacts.reports:
        write_json(artifacts.reports, out / "reports.json")
        record("reports.json")
    if artifacts.heatmap is not None:
        write_heatmap_csv(artifacts.heatmap, out / "heatmap.csv")
        record("heatmap.csv")
        write_heatmap_aggregate_csv(artifacts.heatmap, out / "heatmap_aggregate.csv")
        record("heatmap_aggregate.csv")

    seed = artifacts.config.seed
    manifest = {
        "tool": "lngd",
        "tool_version": __version__,
        "command": artifacts.command,
        "config": config_to_dict(artifacts.config),
        "defaults_applied": artifacts.config.defaults_applied,
        "spec": {
            "mu_form": "axis0_scaled",
            "mu_scale": artifacts.config.mu_scale,
            "sigma_p": artifacts.config.sigma_p,
            "d": artifacts.config.d,
        },
        "master_seed": seed,
        "stream_derivation": "splitmix64",
        "streams": {name: derive_seed(seed, sid) for name, sid in STREAM_IDS.items()},
        "started_at": artifacts.started_at,
        "finished_at": artifacts.finished_at or now_utc(),
        "files": inventory,
    }
    write_json(manifest, out / "manifest.json")
    return inventory
