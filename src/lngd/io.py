"""Result emission: trace/coefficient CSVs, report JSON, digested manifest.

CSV numbers are written with 17 significant digits (lossless for 64-bit
floats) and newline-only line endings, so re-running with the same seed
yields byte-identical files. Every file is written through a ``DigestFile``,
which hashes its bytes as they are written, and every writer returns that
sha256. The manifest is written last and records the digest of every other
file of the run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, cores
from .config import FullConfig, config_to_dict
from .streams import STREAM_IDS, derive_seed
from .training import TRACE_COLUMNS, TrainTrace

__all__ = ["EmitError", "CoefficientDump", "fmt_float", "write_trace_csv",
           "write_coefficients_csv", "write_heatmap_csv", "emit_outputs", "DECOMPOSE_REPORTS"]

# Written into a run directory by ``lngd decompose``, beside the run's own files; it
# describes that run, so a forced rerun removes it with the old manifest.
DECOMPOSE_REPORTS = "decompose_reports.json"


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


class DigestFile:
    """``path`` opened to be written from the start, hashed as it is written: ``write(text)``
    appends the UTF-8 bytes of ``text``, and ``close()`` returns their hex sha256."""

    def __init__(self, path: Path):
        self._file = open(path, "wb")
        self._sha256 = hashlib.sha256()

    def write(self, text: str) -> None:
        data = text.encode()
        self._sha256.update(data)
        self._file.write(data)

    def close(self) -> str:
        self._file.close()
        return self._sha256.hexdigest()


def _write_text(path: Path, text: str) -> str:
    """Write ``text`` to ``path``; its sha256."""
    file = DigestFile(path)
    file.write(text)
    return file.close()


def _write_csv(path: Path, header: list[str], rows) -> str:
    lines = [",".join(header), *(",".join(_fmt_value(v) for v in row) for row in rows), ""]
    return _write_text(path, "\n".join(lines))


def write_trace_csv(trace: TrainTrace, path: Path) -> str:
    return _write_csv(path, TRACE_COLUMNS, trace.rows.tolist())


_HEAD, _GAMMA = "\x00", "\x01"  # stand for "step,j,r," and ",gamma," in a row template


def write_coefficients_csv(write, templates: list[str], step: int, gamma: np.ndarray,
                           rho: np.ndarray) -> None:
    """Append one snapshot to a long-form coefficient dump through ``write``: one row per
    (j, r, i).

    rho is written in the rho_bar column at same-class entries (y_i = j) and
    in the rho_under column at opposite-class ones; the other column holds
    the zero fill "0". Values are written as ``fmt_float`` writes them, gamma
    once per (j, r). Each (j, r) block is one ``%`` over ``templates[b]``, the
    row template of branch b that ``CoefficientDump`` builds once per file.
    """
    blocks = []
    for b, r in np.ndindex(gamma.shape):
        block = templates[b].replace(_HEAD, f"{step},{1 - 2 * b},{r},")
        block = block.replace(_GAMMA, f",{fmt_float(gamma[b, r])},")
        blocks.append(block % tuple(rho[b, r].tolist()))
    write("".join(blocks))


class CoefficientDump:
    """One arm's long-form coefficient dump ``path`` and its per-step summary
    ``<stem>_summary.csv``, written while the run goes: ``write`` appends the
    snapshot of every step t with t % stride == 0 or t == last and skips others.

    ``same_class`` is the run's (2, n) mask of y_i == j
    (``RunGeometry.same_class``). Both files are made at the first
    snapshot, so an arm that took none has none; each is a ``DigestFile``.
    """

    def __init__(self, path: Path, same_class: np.ndarray, stride: int, last: int):
        self.paths = (Path(path), Path(path).with_name(f"{Path(path).stem}_summary.csv"))
        # "%.17g" % x == fmt_float(x) for every float, -0.0, inf and nan included.
        self.templates = ["".join(f"{_HEAD}{i}{_GAMMA}%.17g,0\n" if s
                                  else f"{_HEAD}{i}{_GAMMA}0,%.17g\n" for i, s in enumerate(same))
                          for same in same_class.tolist()]
        self.stride, self.last = stride, last
        self.files = []  # the DigestFile of the dump and of the summary, once made

    def write(self, step: int, gamma: np.ndarray, rho: np.ndarray, summary) -> None:
        """Append the snapshot of gamma (2, m) and rho (2, m, n), and the summary row of
        max_gamma, mean_gamma, max_rho_bar and min_rho_under that the trace row holds
        (``training._trace_row``), if ``step`` takes one."""
        if step % self.stride and step != self.last:
            return
        if not self.files:
            self.paths[0].parent.mkdir(parents=True, exist_ok=True)
            self.files = [DigestFile(path) for path in self.paths]
            self.files[0].write("step,j,r,i,gamma,rho_bar,rho_under\n")
            self.files[1].write("step,max_gamma,mean_gamma,max_rho_bar,min_rho_under\n")
        dump, table = self.files
        write_coefficients_csv(dump.write, self.templates, step, gamma, rho)
        table.write(",".join([str(step), *map(fmt_float, summary)]) + "\n")

    def close(self) -> dict[str, str]:
        """Close the files; {file name: sha256} of those written."""
        files, self.files = self.files, []
        return {path.name: file.close() for path, file in zip(self.paths, files)}


def write_heatmap_csv(heatmap, path: Path) -> str:
    """One row per finished arm of a ``HeatmapResult``, in (row, col, seed, algorithm) order."""
    header = ["snr", "n", "seed", "algorithm", "test_accuracy"]
    return _write_csv(path, header, ((snr, n, *arm) for _, snr, n, finished, _
                                     in heatmap.by_cell() for arm in finished))


def write_heatmap_aggregate_csv(heatmap, path: Path) -> str:
    """One row per cell: mean and std of each algorithm's finished seeds, the standard count
    in ``seeds`` and the label-noise count in ``label_noise_seeds``."""
    header = ["snr", "n", "standard_mean", "standard_std", "label_noise_mean",
              "label_noise_std", "seeds", "label_noise_seeds"]
    rows = []
    for _, snr, n, _, stats in heatmap.by_cell():
        (gd_mean, gd_std, seeds), (ln_mean, ln_std, ln_seeds) = (stats["standard"],
                                                                 stats["label_noise"])
        rows.append((snr, n, gd_mean, gd_std, ln_mean, ln_std, seeds, ln_seeds))
    return _write_csv(path, header, rows)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(payload: dict, path: Path) -> str:
    return _write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                        default=_json_default) + "\n")


@dataclass
class RunArtifactFiles:
    """A run's files: ``files`` maps each file still to be written to its writer, which
    takes the file's path, writes it and returns its sha256; ``written`` maps each file the
    run already wrote to its sha256."""

    config: FullConfig
    command: str
    started_at: str = ""
    files: dict = field(default_factory=dict)
    written: dict = field(default_factory=dict)


def now_utc() -> str:
    return datetime.now(timezone.utc).isoformat()


def refuse_overwrite(out_dir: str | Path, force: bool, keep=()) -> None:
    """Raise EmitError if ``out_dir`` holds a manifest and ``force`` is not set.

    With ``force`` the old manifest is removed, and with it every file it
    lists by a plain name in ``out_dir``, except those in ``keep`` (files this
    run has written), and the old run's ``DECOMPOSE_REPORTS``. So a run that
    fails after it starts writing leaves no manifest listing files it has
    overwritten, and a run that writes fewer files leaves none of the old
    run's behind. An unreadable manifest is only removed, with the report.
    """
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if manifest_path.exists() and not force:
        raise EmitError(f"{manifest_path} already exists; pass force to overwrite")
    try:
        listed = json.loads(manifest_path.read_text())["files"]
    except (OSError, ValueError, LookupError, TypeError):  # none, or not a manifest
        listed = {}
    if not isinstance(listed, dict):
        listed = {}
    for name in [*listed, DECOMPOSE_REPORTS]:
        plain = Path(name).name == name and name not in ("..", "manifest.json")
        if plain and name not in keep and not (out / name).is_dir():
            (out / name).unlink(missing_ok=True)
    manifest_path.unlink(missing_ok=True)


def _numeric_environment() -> dict:
    """What the byte-for-byte claim depends on beyond the config: numpy's version, its BLAS
    library and the BLAS thread count (products may sum in another order under another)."""
    usable = cores.usable_cores()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy_version": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": cores.blas_threads(usable),
            "usable_cores": usable}


def emit_outputs(artifacts: RunArtifactFiles, out_dir: str | Path, force: bool = False) -> dict:
    """Write every file of ``artifacts.files``, then a manifest.json listing the sha256 of
    each file of the run; returns that inventory, {file name: sha256}.

    Refuses to overwrite an existing manifest unless ``force`` is set.
    """
    refuse_overwrite(out_dir, force, keep=artifacts.written)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inventory = {**artifacts.written,
                 **{name: write(out / name) for name, write in artifacts.files.items()}}
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
        "environment": _numeric_environment(),
        "started_at": artifacts.started_at,
        "finished_at": now_utc(),
        "files": inventory,
    }
    write_json(manifest, out / "manifest.json")
    return inventory
