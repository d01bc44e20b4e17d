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
from functools import partial
from pathlib import Path

import numpy as np

from .config import ConfigError
from .data import Dataset, SignalSpec, StreamedTestSet, redrawable_dataset
from .io import CoefficientDump
from .decomposition import CoefficientStack, SpanProducts, iota_series
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
    "ALGORITHMS",
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
                 fork_recorder: bool = True, dump_dir: Path | None = None,
                 coeff_stride: int = 100) -> list[RunArtifacts]:
    """Train one arm per noise spec on shared data/init/test; each arm carries the dataset.

    This is where points become products, and where the run's one
    ``CoefficientStack`` is made: the trainer advances it and the trace
    recorder reads it, or its copy in a child. The test set's products are
    built by the trace recorder (``lngd.recorder``), in a child process when
    ``fork_recorder`` and a second core allow it; the training products are
    computed here, after the recorder starts, and the dataset then drops its
    points (a later read, as ``arm.net`` makes, draws them again from the
    ``data`` stream). The arms advance together on the products in one
    ``run_training`` call; arm ``idx`` draws from its own multiplier stream.
    The test set is streamed, not kept;
    ``generate_dataset(spec, n_test, stream(seed, "test"))`` redraws it.
    Given ``dump_dir``, the recorder writes each arm's coefficient dump there
    (``io.CoefficientDump``) while the arms train; ``arm.files`` holds the digests.
    """
    dataset = redrawable_dataset(spec, n, lambda: stream(seed, "data"))
    test_set = StreamedTestSet(spec, n_test, stream(seed, "test"))
    w0 = init_network(spec.d, m, q, sigma_0, stream(seed, "init")).weights
    w0.flags.writeable = False  # every arm's state holds this array
    arms = [Arm(label, noise, arm_noise_rng(seed, idx, noise), (observers or {}).get(label))
            for idx, (label, noise) in enumerate(noises)]
    dumps = [] if dump_dir is None else [
        CoefficientDump(Path(dump_dir) / f"coefficients_{label}.csv", dataset.labels,
                        coeff_stride, steps) for label, _ in noises]
    stack = CoefficientStack(dataset, w0, len(arms))
    recorder = start_recorder(test_set.labels, test_set.noise_chunks(), dataset, stack, q,
                              log_count(steps, log_stride), dumps, may_fork=fork_recorder)
    try:
        products = SpanProducts.of([dataset.points], n + 1, dataset, w0)
        dataset.drop_points()
        return run_training(stack, q, dataset, products, recorder, arms, eta=eta, steps=steps,
                            log_stride=log_stride)
    finally:
        recorder.close()


def run_dynamics(spec: SignalSpec, *, n: int, m: int, q: int, sigma_0: float, eta: float,
                 steps: int, noise: LabelNoiseSpec, seed: int, log_stride: int = 10,
                 n_test: int = 2000, epsilon: float = 0.05, c_test: float = 1.0,
                 observers: dict | None = None, dump_dir: Path | None = None,
                 coeff_stride: int = 100) -> DynamicsResult:
    """Standard GD and label-noise GD on identical data/init/test, with reports; the
    coefficient dumps go to ``dump_dir``, if given (see ``_paired_runs``)."""
    arms = _paired_runs(
        spec, n=n, m=m, q=q, sigma_0=sigma_0, eta=eta, steps=steps,
        noises=[("standard", LabelNoiseSpec.none()), ("label_noise", noise)],
        seed=seed, log_stride=log_stride, n_test=n_test, observers=observers,
        dump_dir=dump_dir, coeff_stride=coeff_stride,
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


ALGORITHMS = ("standard", "label_noise")  # the last axis of HeatmapResult.accuracy


def _seed_stats(accuracies: np.ndarray) -> tuple[float, float, int]:
    """np.mean and np.std of the finished seeds, in seed order, and their count."""
    if not accuracies.size:
        return math.nan, math.nan, 0
    return float(np.mean(accuracies)), float(np.std(accuracies)), accuracies.size


@dataclass
class HeatmapResult:
    """Final test accuracies of every heatmap arm.

    ``accuracy[row, col, seed, a]`` belongs to arm ``ALGORITHMS[a]`` of that
    unit and is NaN where the arm aborted or its unit raised; ``errors``
    maps every (row, col) to its failure reasons in (seed, algorithm) order.
    """

    grid: SweepGrid
    accuracy: np.ndarray  # (snr, n, seed, algorithm)
    errors: dict  # (row, col) -> list[str]

    def by_cell(self):
        """Each cell in (row, col) order as ((row, col), snr, n, finished, stats).

        ``finished`` lists (seed, algorithm, accuracy) of the arms that
        finished, in (seed, algorithm) order; ``stats[algorithm]`` is
        ``_seed_stats`` of that algorithm's finished seeds.
        """
        for row, snr in enumerate(self.grid.snr_values):
            for col, n in enumerate(self.grid.n_values):
                acc = self.accuracy[row, col]
                done = ~np.isnan(acc)
                finished = [(seed, ALGORITHMS[a], acc[seed, a]) for seed, a in np.argwhere(done)]
                stats = {alg: _seed_stats(acc[done[:, a], a]) for a, alg in enumerate(ALGORITHMS)}
                yield (row, col), snr, n, finished, stats


def _run_heatmap_unit(grid: SweepGrid, row: int, col: int, seed_index: int,
                      fork_recorder: bool = True) -> list:
    """One (snr, n, seed) unit: each arm's final test accuracy, or its abort reason.

    Arms come in ``ALGORITHMS`` order. Streams derive from (master, row, col,
    seed_index), so scheduling cannot affect the numbers. A pool worker
    passes ``fork_recorder=False``: the pool already has a process per core.
    """
    snr = grid.snr_values[row]
    n = grid.n_values[col]
    spec = axis_aligned_spec(grid.mu_scale_for(snr), grid.sigma_p, grid.d)
    cell_seed = derive_seed(grid.master_seed, row, col, seed_index)
    arms = _paired_runs(
        spec, n=n, m=grid.m, q=grid.q, sigma_0=grid.sigma_0, eta=grid.eta,
        steps=grid.steps,
        noises=list(zip(ALGORITHMS, (LabelNoiseSpec.none(), LabelNoiseSpec.flip(grid.p)))),
        seed=cell_seed, log_stride=grid.steps, n_test=grid.n_test, fork_recorder=fork_recorder,
    )
    return [arm.abort_reason if arm.aborted else arm.final_test_accuracy for arm in arms]


def _failure_reason(exc: BaseException) -> str:
    """repr(exc) followed by the last three frames of its traceback.

    Exceptions from worker processes carry the remote traceback as their
    __cause__, which is included.
    """
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__, limit=-3)
    return repr(exc) + "\n" + "".join(lines).rstrip()


def _unit_outcome(unit) -> list:
    """``unit()``, or its failure reason for every arm: a failed unit must not poison neighbours."""
    try:
        return unit()
    except Exception as exc:
        return [_failure_reason(exc)] * len(ALGORITHMS)


def run_heatmap(grid: SweepGrid, workers: int = 1) -> HeatmapResult:
    """Evaluate every (snr, n, seed) unit; failures are recorded, not fatal."""
    shape = (len(grid.snr_values), len(grid.n_values), grid.seeds_per_cell)
    units = list(np.ndindex(shape))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_heatmap_unit, grid, *u, False) for u in units]
            outcomes = [_unit_outcome(fut.result) for fut in futures]
    else:
        outcomes = [_unit_outcome(partial(_run_heatmap_unit, grid, *u)) for u in units]
    accuracy = np.full(shape + (len(ALGORITHMS),), np.nan)
    errors = {cell: [] for cell in np.ndindex(shape[:2])}
    for (row, col, seed_index), outcome in zip(units, outcomes):
        for a, value in enumerate(outcome):
            if isinstance(value, str):
                errors[row, col].append(f"seed {seed_index} {ALGORITHMS[a]}: {value}")
            else:
                accuracy[row, col, seed_index, a] = value
    return HeatmapResult(grid=grid, accuracy=accuracy, errors=errors)


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
        raise ConfigError(f"q_list: no reference hyperparameters for "
                          f"{', '.join(f'q={q}' for q in unknown)}; "
                          f"allowed: {sorted(Q_SWEEP_DEFAULTS)}")
    out = {}
    for q in qs:
        eta, m, n, mu_scale, sigma_p = Q_SWEEP_DEFAULTS[q]
        spec = axis_aligned_spec(mu_scale, sigma_p, d)
        result = run_dynamics(spec, n=n, m=m, q=q, sigma_0=sigma_0, eta=eta, steps=steps,
                              noise=LabelNoiseSpec.flip(p), seed=derive_seed(seed, q),
                              log_stride=log_stride, n_test=n_test)
        out[q] = result
    return out
