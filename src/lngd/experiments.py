"""Orchestration of the synthetic experiments.

Every comparison is paired: both arms share the dataset, the weight init,
and the fixed test set (same derived streams), and only the label-noise
stream differs. Heatmap cells derive their streams from (row, col, seed)
indices, so results are independent of execution order or worker count.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SignalSpec, StreamedTestSet, redrawable_dataset
from .decomposition import SpanProducts, iota_series
from .network import init_network
from .streams import STREAM_IDS, derive_seed, stream, substream
from .theory import (
    estimate_stage_times,
    coefficient_envelope_monitor,
    stage2_boundedness_check,
    empirical_verdicts,
)
from .recorder import start_recorder
from .training import Arm, LabelNoiseSpec, RunArtifacts, log_count, run_training

__all__ = [
    "RunArtifacts",
    "DynamicsResult",
    "SweepGrid",
    "CellResult",
    "HeatmapResult",
    "arm_noise_rng",
    "axis_aligned_spec",
    "run_dynamics",
    "run_heatmap",
    "run_noise_comparison",
    "run_q_sweep",
]


def axis_aligned_spec(mu_scale: float, sigma_p: float, d: int) -> SignalSpec:
    """Signal along the first coordinate: mu = [mu_scale, 0, ..., 0]."""
    mu = np.zeros(d)
    mu[0] = mu_scale
    return SignalSpec(mu=mu, sigma_p=sigma_p, d=d)


@dataclass
class DynamicsResult:
    standard: RunArtifacts
    label_noise: RunArtifacts
    dataset: Dataset
    reports: dict = field(default_factory=dict)


def arm_noise_rng(seed: int, idx: int, noise: LabelNoiseSpec):
    """Multiplier stream of arm ``idx`` in a paired run (None for standard GD)."""
    return substream(seed, STREAM_IDS["label_noise"], idx) if noise.kind != "none" else None


def _paired_runs(spec: SignalSpec, *, n: int, m: int, q: int, sigma_0: float, eta: float,
                 steps: int, noises: list[tuple[str, LabelNoiseSpec]], seed: int,
                 log_stride: int, n_test: int, observers: dict | None = None,
                 fork_recorder: bool = True) -> list[RunArtifacts]:
    """Train one arm per noise spec on shared data/init/test; each arm carries the dataset.

    This is where points become products. The test set's products are
    built by the trace recorder (``lngd.recorder``), in a child process when
    ``fork_recorder`` and a second core allow it; the training products are
    computed here, after the recorder starts, and the dataset then drops its
    points (a later read, as ``arm.net`` makes, draws them again from the
    ``data`` stream). The arms advance together on the products in one
    ``run_training`` call; arm ``idx`` draws from its own multiplier stream.
    The test set is streamed, not kept;
    ``generate_dataset(spec, n_test, stream(seed, "test"))`` redraws it.
    """
    dataset = redrawable_dataset(spec, n, lambda: stream(seed, "data"))
    test_set = StreamedTestSet(spec, n_test, stream(seed, "test"))
    w0 = init_network(spec.d, m, q, sigma_0, stream(seed, "init")).weights
    w0.flags.writeable = False  # every arm's state holds this array
    arms = [Arm(label, noise, arm_noise_rng(seed, idx, noise), (observers or {}).get(label))
            for idx, (label, noise) in enumerate(noises)]
    recorder = start_recorder(test_set.labels, test_set.noise_chunks(), dataset, w0, q,
                              len(arms), log_count(steps, log_stride), may_fork=fork_recorder)
    try:
        products = SpanProducts.of([dataset.points], n + 1, dataset, w0)
        dataset.drop_points()
        return run_training(w0, q, dataset, products, recorder, arms, eta=eta, steps=steps,
                            log_stride=log_stride)
    finally:
        recorder.close()


def run_dynamics(spec: SignalSpec, *, n: int, m: int, q: int, sigma_0: float, eta: float,
                 steps: int, noise: LabelNoiseSpec, seed: int, log_stride: int = 10,
                 n_test: int = 2000, epsilon: float = 0.05, c_test: float = 1.0,
                 observers: dict | None = None) -> DynamicsResult:
    """Standard GD and label-noise GD on identical data/init/test, with reports."""
    arms = _paired_runs(
        spec, n=n, m=m, q=q, sigma_0=sigma_0, eta=eta, steps=steps,
        noises=[("standard", LabelNoiseSpec.none()), ("label_noise", noise)],
        seed=seed, log_stride=log_stride, n_test=n_test, observers=observers,
    )
    standard, label_noise = arms
    reports: dict = {}
    stage = estimate_stage_times(spec, n, m, eta, sigma_0, epsilon, "GD")
    stage_ln = estimate_stage_times(spec, n, m, eta, sigma_0, None, "LNGD")
    reports["stage_times"] = {"GD": vars(stage), "LNGD": vars(stage_ln)}
    for arm in arms:
        if arm.aborted:
            reports[arm.label] = {"aborted": True, "reason": arm.abort_reason}
            continue
        entry = {
            "coefficient_envelope": coefficient_envelope_monitor(arm.trace, steps),
            "verdicts": empirical_verdicts(arm.trace, epsilon=epsilon, c_test=c_test),
        }
        t1 = stage.T1
        if not math.isnan(t1) and arm.trace.final.step >= t1:
            steps_arr, iotas = iota_series(arm.trace)
            p_arg = noise.p if (arm.label == "label_noise" and noise.kind == "flip") else None
            bd = stage2_boundedness_check(steps_arr, iotas, t1, p=p_arg)
            entry["stage2_boundedness"] = {
                k: v for k, v in bd.items()
                if k in ("t1", "band", "all_pass", "median_of_medians", "fixed_point",
                         "median_gap")
            }
        reports[arm.label] = entry
    return DynamicsResult(standard=standard, label_noise=label_noise, dataset=standard.dataset,
                          reports=reports)


# --- SNR x n heatmap ----------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    """Grid axes plus the shared run configuration for every cell."""

    snr_values: tuple[float, ...]
    n_values: tuple[int, ...]
    steps: int = 1000
    eta: float = 1.0
    seeds_per_cell: int = 3
    d: int = 2000
    m: int = 20
    q: int = 2
    sigma_0: float = 0.01
    sigma_p: float = 0.5
    p: float = 0.1
    n_test: int = 2000
    master_seed: int = 0

    def __post_init__(self):
        if not self.snr_values or not self.n_values:
            raise ValueError("grid axes must be nonempty")
        if self.seeds_per_cell < 1:
            raise ValueError("seeds_per_cell must be >= 1")

    def mu_scale_for(self, snr: float) -> float:
        """SNR is varied by scaling |mu| at fixed sigma_p and d."""
        return snr * self.sigma_p * math.sqrt(self.d)


@dataclass
class CellResult:
    snr: float
    n: int
    standard_accuracies: list[float] = field(default_factory=list)
    label_noise_accuracies: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def standard_mean(self) -> float:
        return float(np.mean(self.standard_accuracies)) if self.standard_accuracies else math.nan

    @property
    def label_noise_mean(self) -> float:
        return float(np.mean(self.label_noise_accuracies)) if self.label_noise_accuracies else math.nan

    @property
    def standard_std(self) -> float:
        return float(np.std(self.standard_accuracies)) if self.standard_accuracies else math.nan

    @property
    def label_noise_std(self) -> float:
        return float(np.std(self.label_noise_accuracies)) if self.label_noise_accuracies else math.nan


@dataclass
class HeatmapResult:
    grid: SweepGrid
    cells: dict  # (row, col) -> CellResult
    long_rows: list  # (snr, n, seed_index, algorithm, accuracy)


def _run_heatmap_unit(grid: SweepGrid, row: int, col: int, seed_index: int,
                      fork_recorder: bool = True):
    """One (snr, n, seed) unit: paired standard/label-noise runs.

    Streams derive from (master, row, col, seed_index), so scheduling cannot
    affect the numbers. A pool worker passes ``fork_recorder=False``: the
    pool already has a process per core.
    """
    snr = grid.snr_values[row]
    n = grid.n_values[col]
    spec = axis_aligned_spec(grid.mu_scale_for(snr), grid.sigma_p, grid.d)
    cell_seed = derive_seed(grid.master_seed, row, col, seed_index)
    arms = _paired_runs(
        spec, n=n, m=grid.m, q=grid.q, sigma_0=grid.sigma_0, eta=grid.eta,
        steps=grid.steps,
        noises=[("standard", LabelNoiseSpec.none()),
                ("label_noise", LabelNoiseSpec.flip(grid.p))],
        seed=cell_seed, log_stride=grid.steps, n_test=grid.n_test, fork_recorder=fork_recorder,
    )
    out = {}
    for arm in arms:
        if arm.aborted:
            out[arm.label] = ("error", arm.abort_reason)
        else:
            out[arm.label] = ("ok", arm.final_test_accuracy)
    return row, col, seed_index, out


def _failure_reason(exc: BaseException) -> str:
    """repr(exc) followed by the last three frames of its traceback.

    Exceptions from worker processes carry the remote traceback as their
    __cause__, which is included.
    """
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__, limit=-3)
    return repr(exc) + "\n" + "".join(lines).rstrip()


def run_heatmap(grid: SweepGrid, workers: int = 1) -> HeatmapResult:
    """Evaluate every (snr, n, seed) unit; failures are recorded, not fatal."""
    units = [
        (row, col, s)
        for row in range(len(grid.snr_values))
        for col in range(len(grid.n_values))
        for s in range(grid.seeds_per_cell)
    ]
    def failed(u, exc):
        reason = _failure_reason(exc)
        return (u[0], u[1], u[2], {"standard": ("error", reason),
                                   "label_noise": ("error", reason)})

    results = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(u, pool.submit(_run_heatmap_unit, grid, *u, False)) for u in units]
            for u, fut in futures:
                try:
                    results.append(fut.result())
                except Exception as exc:  # a failed unit must not poison neighbors
                    results.append(failed(u, exc))
    else:
        for u in units:
            try:
                results.append(_run_heatmap_unit(grid, *u))
            except Exception as exc:
                results.append(failed(u, exc))
    cells: dict = {}
    long_rows = []
    for row, col, seed_index, out in sorted(results, key=lambda r: (r[0], r[1], r[2])):
        key = (row, col)
        cell = cells.setdefault(key, CellResult(snr=grid.snr_values[row], n=grid.n_values[col]))
        for alg in ("standard", "label_noise"):
            status, value = out[alg]
            if status == "ok":
                (cell.standard_accuracies if alg == "standard"
                 else cell.label_noise_accuracies).append(value)
                long_rows.append((grid.snr_values[row], grid.n_values[col], seed_index,
                                  alg, value))
            else:
                cell.errors.append(f"seed {seed_index} {alg}: {value}")
    return HeatmapResult(grid=grid, cells=cells, long_rows=long_rows)


# --- alternative noise distributions and activation exponents --------------------------------------------------------


def run_noise_comparison(spec: SignalSpec, *, n: int, m: int, q: int, sigma_0: float,
                         eta: float, steps: int, noise_list: list[LabelNoiseSpec],
                         seed: int, log_stride: int = 10, n_test: int = 2000) -> dict:
    """One label-noise arm per spec plus a standard-GD baseline, all matched."""
    noises = [("standard", LabelNoiseSpec.none())]
    noises += [(ns.describe(), ns) for ns in noise_list]
    arms = _paired_runs(
        spec, n=n, m=m, q=q, sigma_0=sigma_0, eta=eta, steps=steps, noises=noises,
        seed=seed, log_stride=log_stride, n_test=n_test,
    )
    return {"baseline": arms[0], "arms": arms[1:]}


Q_SWEEP_DEFAULTS = {
    # q: (eta, m, n, mu_scale, sigma_p)
    2: (0.5, 20, 200, 2.0, 0.5),
    3: (0.5, 20, 200, 2.0, 0.5),
    4: (0.1, 20, 50, 5.0, 0.5),
}


def run_q_sweep(qs=(2, 3, 4), *, d: int = 2000, sigma_0: float = 0.01, steps: int = 2000,
                p: float = 0.1, seed: int = 0, log_stride: int = 100,
                n_test: int = 2000) -> dict:
    """Paired runs per activation exponent at the per-q reference settings."""
    unknown = [q for q in qs if q not in Q_SWEEP_DEFAULTS]
    if unknown:  # before any q trains
        raise ValueError(f"no reference hyperparameters for "
                         f"{', '.join(f'q={q}' for q in unknown)}")
    out = {}
    for q in qs:
        eta, m, n, mu_scale, sigma_p = Q_SWEEP_DEFAULTS[q]
        spec = axis_aligned_spec(mu_scale, sigma_p, d)
        result = run_dynamics(spec, n=n, m=m, q=q, sigma_0=sigma_0, eta=eta, steps=steps,
                              noise=LabelNoiseSpec.flip(p), seed=derive_seed(seed, q),
                              log_stride=log_stride, n_test=n_test)
        out[q] = result
    return out
