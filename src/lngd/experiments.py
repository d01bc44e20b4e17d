"""Orchestration of the synthetic experiments.

Every comparison is paired: both arms share the dataset, the weight init,
and the fixed test set (same derived streams), and only the label-noise
stream differs. Heatmap cells derive their streams from (row, col, seed)
indices, so results are independent of execution order or worker count.
"""

from __future__ import annotations

import math
import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .config import ConfigError, FullConfig
from .cores import blas_threads, usable_cores
from .data import SignalSpec, generate_dataset, stream_test_set
from .io import CoefficientDump
from .decomposition import CoefficientStack, RunGeometry
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
    "PairedRun",
    "ALGORITHMS",
    "HeatmapResult",
    "arm_noise_rng",
    "axis_aligned_spec",
    "plan",
    "refuse_oversized",
    "run_paired",
    "run_dynamics",
    "run_heatmap",
]


def refuse_oversized(d: int, n: int, m: int) -> None:
    """Raise ConfigError if 8 d (n + 2 + 2m) bytes, n training points, mu, a test row and
    2m filters of length d, exceed the machine's physical memory (where ``os.sysconf``
    reports it)."""
    needed = 8 * d * (n + 2 + 2 * m)
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name here
        return
    if needed > memory > 0:
        raise ConfigError(f"d = {d} needs 8 d (n + 2 + 2m) = {needed} bytes at n = {n}, "
                          f"m = {m}, more than the {memory} bytes of physical memory")


def axis_aligned_spec(mu_scale: float, sigma_p: float, d: int) -> SignalSpec:
    """Signal along the first coordinate: mu = [mu_scale, 0, ..., 0]."""
    mu = np.zeros(d)
    mu[0] = mu_scale
    return SignalSpec(mu=mu, sigma_p=sigma_p, d=d)


@dataclass
class DynamicsResult:
    standard: RunArtifacts
    label_noise: RunArtifacts
    reports: dict = field(default_factory=dict)


def _slug(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label).strip("_")


@dataclass(frozen=True, kw_only=True)
class PairedRun(FullConfig):
    """One paired run: a config and the arms it trains on one data, init and test set.

    ``arms`` lists (label, noise) in stream order: arm ``idx`` draws its
    multipliers from ``arm_noise_rng(seed, idx, noise)``. Arm ``label``'s
    trace goes to ``trace_file(label)``.
    """

    arms: tuple[tuple[str, LabelNoiseSpec], ...]
    name: str = ""

    @cached_property
    def spec(self) -> SignalSpec:
        """The signal of ``mu_scale``, built on first read so that ``plan`` makes no
        length-d array."""
        return axis_aligned_spec(self.mu_scale, self.sigma_p, self.d)

    def trace_file(self, label: str) -> str:
        return f"trace_{self.name}{_slug(label)}.csv"


ALGORITHMS = ("standard", "label_noise")  # a paired run's arms; HeatmapResult's last axis

# The reference settings of each q the q-sweep runs.
Q_SWEEP_DEFAULTS = {
    2: {"eta": 0.5, "m": 20, "n": 200, "mu_scale": 2.0, "sigma_p": 0.5},
    3: {"eta": 0.5, "m": 20, "n": 200, "mu_scale": 2.0, "sigma_p": 0.5},
    4: {"eta": 0.1, "m": 20, "n": 50, "mu_scale": 5.0, "sigma_p": 0.5},
}


def plan(command: str, config: FullConfig) -> list[PairedRun]:
    """The paired runs of a run command on ``config``, in the order they train and report;
    each is ``config`` with the arms it trains and the keys the command overrides.

    ``dynamics`` is one run of standard GD against ``config.noise``;
    ``noise-compare`` one run of a standard arm and an arm per ``noise_list``
    entry; ``q-sweep`` one run per ``q_list`` value at its reference settings
    and ``heatmap`` one run per (row, col, seed) unit of ``grid``, with
    |mu| = snr * sigma_p * sqrt(d), each against ``config.noise``. Raises
    ConfigError, before anything trains, where a ``log_stride`` exceeds
    ``steps`` (``heatmap`` reads neither), where the config lacks the
    command's section, names a q without reference settings, gives two arms
    one trace file, or fails ``refuse_oversized`` at its largest n and m.
    """
    if command != "heatmap" and 0 < config.steps < config.log_stride:
        raise ConfigError(f"log_stride = {config.log_stride} exceeds steps = {config.steps}; "
                          f"allowed: integer in [1, steps]")
    base = PairedRun(**vars(config), arms=tuple(zip(ALGORITHMS, (LabelNoiseSpec.none(),
                                                                  config.noise))))
    if command == "heatmap":
        grid = config.grid
        if grid is None:
            raise ConfigError("heatmap requires a 'grid' section in the config")
        shape = (len(grid["snr_values"]), len(grid["n_values"]), grid["seeds_per_cell"])
        runs = [replace(base, mu_scale=grid["snr_values"][row] * config.sigma_p
                        * math.sqrt(config.d), n=grid["n_values"][col], eta=grid["eta"],
                        steps=grid["steps"], log_stride=grid["steps"],
                        seed=derive_seed(config.seed, row, col, s))
                for row, col, s in np.ndindex(shape)]
    elif command == "dynamics":
        runs = [base]
    elif command == "noise-compare":
        if not config.noise_list:
            raise ConfigError("noise-compare requires a 'noise_list' section in the config")
        runs = [replace(base, arms=(("standard", LabelNoiseSpec.none()),
                                    *((noise.describe(), noise) for noise in config.noise_list)))]
    elif command == "q-sweep":
        qs = config.q_list or tuple(Q_SWEEP_DEFAULTS)
        unknown = [q for q in qs if q not in Q_SWEEP_DEFAULTS]
        if unknown:
            raise ConfigError(f"q_list: no reference hyperparameters for "
                              f"{', '.join(f'q={q}' for q in unknown)}; "
                              f"allowed: {sorted(Q_SWEEP_DEFAULTS)}")
        runs = [replace(base, q=q, seed=derive_seed(config.seed, q), name=f"q{q}_",
                        **Q_SWEEP_DEFAULTS[q]) for q in qs]
    else:
        raise ValueError(f"{command!r} runs no paired runs")
    refuse_oversized(config.d, max(run.n for run in runs), max(run.m for run in runs))
    # Heatmap units write no trace file.
    names = [] if command == "heatmap" else [run.trace_file(label) for run in runs
                                             for label, _ in run.arms]
    clash = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if clash:
        raise ConfigError(f"{command}: two arms would both write {clash}; each noise_list "
                          f"entry and each q_list value must name its own trace file")
    return runs


def arm_noise_rng(seed: int, idx: int, noise: LabelNoiseSpec):
    """Multiplier stream of arm ``idx`` in a paired run (None for standard GD)."""
    return substream(seed, STREAM_IDS["label_noise"], idx) if noise.draws else None


def run_paired(run: PairedRun, *, observers: dict | None = None,
               dump_dir: Path | None = None) -> list[RunArtifacts]:
    """Train one arm per (label, noise) of ``run`` on shared data/init/test; each arm
    carries the dataset.

    The run's one ``RunGeometry``, the engine's only reader of points, is
    built here from the dataset, the init and the streamed test set
    (``stream_test_set``; ``generate_dataset(spec, n_test, stream(seed,
    "test"))`` redraws it), and so is its one ``CoefficientStack``: the
    trainer advances the stack, and the trace recorder (``lngd.recorder``)
    reads it, or its copy in a child, and builds the geometry's test
    products in its own process. The training products are built after the
    recorder starts; a run given no observers then drops its training points
    (observers read weights, and so points, while the arms train). The arms
    advance together in one ``run_training`` call; arm ``idx`` draws from its
    own multiplier stream. Given ``dump_dir``, the recorder writes each arm's
    coefficient dump there every ``coeff_stride`` steps
    (``io.CoefficientDump``); ``arm.files`` holds the digests.
    """
    seed, steps = run.seed, run.steps
    dataset = generate_dataset(run.spec, run.n, stream(seed, "data"))
    test_labels, test_chunks = stream_test_set(run.spec, run.n_test, stream(seed, "test"))
    w0 = init_network(run.spec.d, run.m, run.sigma_0, stream(seed, "init"))
    w0.flags.writeable = False  # every arm's state holds this array
    arms = [Arm(label, noise, arm_noise_rng(seed, idx, noise), (observers or {}).get(label))
            for idx, (label, noise) in enumerate(run.arms)]
    geometry = RunGeometry(dataset, w0, test_labels, test_chunks)
    stack = CoefficientStack(geometry, len(arms))
    dumps = [] if dump_dir is None else [
        CoefficientDump(Path(dump_dir) / f"coefficients_{label}.csv", geometry.same_class,
                        run.coeff_stride, steps) for label, _ in run.arms]
    recorder = start_recorder(geometry, stack, run.q, log_count(steps, run.log_stride), dumps)
    try:
        geometry.build_train(keep_points=bool(observers))
        return run_training(geometry, stack, run.q, dataset, recorder, arms, eta=run.eta,
                            steps=steps, log_stride=run.log_stride)
    finally:
        recorder.close()


def run_dynamics(run: PairedRun, *, observers: dict | None = None,
                 dump_dir: Path | None = None) -> DynamicsResult:
    """The standard-GD and label-noise-GD arms of ``run``, with reports at its ``epsilon``
    and ``c_test``; the coefficient dumps go to ``dump_dir``, if given (see ``run_paired``)."""
    arms = run_paired(run, observers=observers, dump_dir=dump_dir)
    standard, label_noise = arms
    spec = run.spec
    stages = estimate_stage_times(spec.mu_norm, spec.sigma_p, spec.d, run.n, run.m, run.eta,
                                  run.sigma_0, run.epsilon)
    reports: dict = {"stage_times": stages}
    t1 = stages["GD"]["T1"]
    for arm in arms:
        if arm.aborted:
            reports[arm.label] = {"aborted": True, "reason": arm.abort_reason}
            continue
        entry = {
            "coefficient_envelope": coefficient_envelope_monitor(arm.trace, run.steps),
            "verdicts": empirical_verdicts(arm.trace, arm.noise.draws, run.n, spec.d,
                                           epsilon=run.epsilon, c_test=run.c_test),
        }
        if not math.isnan(t1) and arm.trace.final.step >= t1:
            entry["stage2_boundedness"] = stage2_boundedness_check(
                arm.trace.rows.step, arm.trace.iota_history, t1,
                p=arm.noise.to_dict().get("p"))  # a flip rate
        reports[arm.label] = entry
    return DynamicsResult(standard=standard, label_noise=label_noise, reports=reports)


# --- SNR x n heatmap ----------------------------------------------------------


def _seed_stats(accuracies: np.ndarray) -> tuple[float, float, int]:
    """np.mean and np.std of the finished seeds, in seed order, and their count."""
    if not accuracies.size:
        return math.nan, math.nan, 0
    return float(np.mean(accuracies)), float(np.std(accuracies)), accuracies.size


@dataclass
class HeatmapResult:
    """Final test accuracies of every heatmap arm.

    ``grid`` is the config's ``grid`` section. ``accuracy[row, col, seed, a]``
    belongs to arm ``ALGORITHMS[a]`` of that unit and is NaN where the arm
    aborted or its unit raised; ``errors`` maps every (row, col) to its
    failure reasons in (seed, algorithm) order.
    """

    grid: dict
    accuracy: np.ndarray  # (snr, n, seed, algorithm)
    errors: dict  # (row, col) -> list[str]

    def by_cell(self):
        """Each cell in (row, col) order as ((row, col), snr, n, finished, stats).

        ``finished`` lists (seed, algorithm, accuracy) of the arms that
        finished, in (seed, algorithm) order; ``stats[algorithm]`` is
        ``_seed_stats`` of that algorithm's finished seeds.
        """
        for row, snr in enumerate(self.grid["snr_values"]):
            for col, n in enumerate(self.grid["n_values"]):
                acc = self.accuracy[row, col]
                done = ~np.isnan(acc)
                finished = [(seed, ALGORITHMS[a], acc[seed, a]) for seed, a in np.argwhere(done)]
                stats = {alg: _seed_stats(acc[done[:, a], a]) for a, alg in enumerate(ALGORITHMS)}
                yield (row, col), snr, n, finished, stats


def _heatmap_unit(run: PairedRun) -> list:
    """Each arm's final test accuracy, or its abort reason."""
    arms = run_paired(run)
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


def run_heatmap(config: FullConfig) -> HeatmapResult:
    """Evaluate every (snr, n, seed) unit of ``plan("heatmap", config)`` on
    ``config.workers`` processes; failures are recorded, not fatal. A pool whose
    workers' BLAS threads exceed the usable cores is noted on stderr before it starts."""
    runs = plan("heatmap", config)
    grid = config.grid
    shape = (len(grid["snr_values"]), len(grid["n_values"]), grid["seeds_per_cell"])
    if config.workers > 1:
        cores = usable_cores()
        blas = blas_threads(cores)
        if config.workers * blas > cores:
            print(f"note: {config.workers} workers x {blas} BLAS threads exceed the {cores} "
                  "usable cores; set OPENBLAS_NUM_THREADS=1 or use fewer workers",
                  file=sys.stderr)
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_heatmap_unit, run) for run in runs]
            outcomes = [_unit_outcome(fut.result) for fut in futures]
    else:
        outcomes = [_unit_outcome(partial(_heatmap_unit, run)) for run in runs]
    accuracy = np.full(shape + (len(ALGORITHMS),), np.nan)
    errors = {cell: [] for cell in np.ndindex(shape[:2])}
    for (row, col, seed_index), outcome in zip(np.ndindex(shape), outcomes):
        for a, value in enumerate(outcome):
            if isinstance(value, str):
                errors[row, col].append(f"seed {seed_index} {ALGORITHMS[a]}: {value}")
            else:
                accuracy[row, col, seed_index, a] = value
    return HeatmapResult(grid=grid, accuracy=accuracy, errors=errors)
