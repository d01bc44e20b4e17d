"""Full-batch gradient descent with pluggable per-step label-noise multipliers.

Standard GD is the special case of all-ones multipliers. Each step draws a
fresh multiplier vector eps and descends the eps-weighted logistic loss.
Training runs in coefficient space: ``run_training`` advances the signal and
noise coefficients (gamma, rho) of the decomposition directly, evaluating
pre-activations from inner products computed once per run, so a step costs
O(n^2 m) whatever d is. It reads no point: all it needs of them comes from
the run's ``decomposition.RunGeometry``, the engine's only reader of points.
The arms of a run, which share it and differ in their multipliers, advance
as one stacked state: one matrix product and one pass of each elementwise
operation per step serve them all. The test error and the trace rows of each logged step
are left to a recorder (``lngd.recorder``). No weights are built here:
``lngd.network`` owns weight space, including the oracle step the engine is
tested against, and only ``RunArtifacts.weights`` reaches it, on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset
from .decomposition import (
    LABEL_SIGN,
    CoefficientStack,
    CoefficientState,
    RunGeometry,
    logistic_loss,
    update_coefficients,
)

__all__ = [
    "LabelNoiseSpec",
    "TRACE_DTYPE",
    "TrainTrace",
    "Arm",
    "RunArtifacts",
    "sample_multipliers",
    "log_count",
    "run_training",
]

TRACE_COLUMNS = [
    "step",
    "clean_train_loss",
    "noisy_train_loss",
    "test_error_01",
    "max_gamma",
    "mean_gamma",
    "max_rho_bar",
    "mean_rho_bar",
    "min_rho_under",
    "ratio_rho_over_gamma",
    "iota_mean",
    "iota_max",
    "flip_count",
]
RATIO_FLOOR = 1e-12  # max_gamma's floor in ratio_rho_over_gamma
TRACE_DTYPE = np.dtype([(col, np.int64 if col in ("step", "flip_count") else np.float64)
                        for col in TRACE_COLUMNS])


class NoiseLaw(NamedTuple):
    """One kind of label noise: its parameters in the order a config lists them, its label,
    the check on its parameters and that check's refusal (the label and the refusal are
    formats over the parameters), and its draw of n multipliers (None: all ones, and no
    stream is read)."""

    params: tuple[str, ...]
    label: str
    ok: Callable
    refusal: str
    draw: Callable | None


NOISE_LAWS = {
    "none": NoiseLaw((), "none", lambda s: True, "", None),
    "flip": NoiseLaw(("p",), "flip(p={p:g})", lambda s: 0.0 <= s.p <= 1.0,
                     "flip probability must be in [0, 1], got {p}",
                     lambda s, n, rng: np.where(rng.random(n) < s.p, -1.0, 1.0)),
    "gaussian": NoiseLaw(("mean", "std"), "gaussian({mean:g},{std:g})", lambda s: s.std >= 0.0,
                         "gaussian std must be >= 0, got {std}",
                         lambda s, n, rng: s.mean + s.std * rng.standard_normal(n)),
    "uniform": NoiseLaw(("lo", "hi"), "uniform({lo:g},{hi:g})", lambda s: s.lo < s.hi,
                        "uniform bounds need lo < hi, got [{lo}, {hi}]",
                        lambda s, n, rng: rng.uniform(s.lo, s.hi, n)),
}


def _law(kind) -> NoiseLaw:
    if not isinstance(kind, str) or kind not in NOISE_LAWS:
        raise ValueError(f"unknown noise kind {kind!r}; allowed: {sorted(NOISE_LAWS)}")
    return NOISE_LAWS[kind]


@dataclass(frozen=True)
class LabelNoiseSpec:
    """Distribution of the per-sample multipliers applied to y_i at each step; its kind's
    ``NOISE_LAWS`` entry says which fields it reads."""

    kind: str
    p: float = 0.0
    mean: float = 0.0
    std: float = 0.0
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        law = _law(self.kind)
        if not law.ok(self):
            raise ValueError(law.refusal.format_map(self.to_dict()))
        for name in law.params:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{self.kind} {name} must be finite, got {getattr(self, name)}")

    @classmethod
    def none(cls) -> "LabelNoiseSpec":
        return cls(kind="none")

    @classmethod
    def flip(cls, p: float) -> "LabelNoiseSpec":
        return cls(kind="flip", p=p)

    @classmethod
    def gaussian(cls, mean: float, std: float) -> "LabelNoiseSpec":
        return cls(kind="gaussian", mean=mean, std=std)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "LabelNoiseSpec":
        return cls(kind="uniform", lo=lo, hi=hi)

    @classmethod
    def from_dict(cls, obj) -> "LabelNoiseSpec":
        """The spec of a config's noise object: its ``kind`` and exactly that kind's
        parameters, each a number (read as a float)."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("noise must be an object with a 'kind' key")
        kind = obj["kind"]
        params = _law(kind).params
        extra = set(obj) - {"kind", *params}
        if extra:
            raise ValueError(f"unknown noise keys {sorted(extra)} for kind {kind!r}")
        missing = set(params) - set(obj)
        if missing:
            raise ValueError(f"missing noise keys {sorted(missing)} for kind {kind!r}")
        for name in params:
            value = obj[name]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"noise key {name!r} = {value!r} is not a number")
        return cls(kind, **{name: float(obj[name]) for name in params})

    def to_dict(self) -> dict:
        """The config's noise object for this spec; ``from_dict`` reads it back."""
        return {"kind": self.kind, **{name: getattr(self, name)
                                      for name in NOISE_LAWS[self.kind].params}}

    @property
    def draws(self) -> bool:
        """Whether the multipliers are drawn from a stream (every kind but none)."""
        return NOISE_LAWS[self.kind].draw is not None

    def describe(self) -> str:
        """The label that names this noise's trace file and its noise-compare row."""
        return NOISE_LAWS[self.kind].label.format_map(self.to_dict())


def sample_multipliers(noise: LabelNoiseSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the length-n multiplier vector for one step."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    draw = NOISE_LAWS[noise.kind].draw
    return np.ones(n) if draw is None else draw(noise, n, rng)


@dataclass
class TrainTrace:
    """Logged rows plus run-level diagnostics and per-sample iota history.

    ``rows`` is a record array of ``TRACE_DTYPE``, one record per logged
    step (``rows.step``, ``rows[-1].test_error_01``); ``iota_history``
    (rows, n) holds each logged step's per-sample iota.
    """

    rows: np.recarray
    iota_history: np.ndarray
    aborted_at: int | None = None
    abort_reason: str = ""
    rho_bar_monotone_violations: int = 0

    @property
    def final(self) -> np.record:
        return self.rows[-1]

    def rows_from(self, step: int) -> np.recarray:
        return self.rows[self.rows.step >= step]


class Arm(NamedTuple):
    """One arm of a run: its name, its multiplier law and stream, its observer."""

    label: str
    noise: LabelNoiseSpec
    noise_rng: np.random.Generator | None = None
    observer: Callable | None = None


@dataclass
class RunArtifacts:
    """One trained arm: trace, coefficient state, the dataset it trained on, metadata, and
    the sha256 of each file the recorder wrote for it."""

    label: str
    noise: LabelNoiseSpec
    trace: TrainTrace
    state: CoefficientState
    dataset: Dataset
    q: int
    files: dict = field(default_factory=dict)

    @cached_property
    def weights(self) -> np.ndarray:
        """The final (d, 2m) weights, rebuilt from the coefficients and the dataset's points
        on first read."""
        # Imported here, not at module level: network imports this module.
        from .network import reconstruct_weights

        return np.hstack(reconstruct_weights(self.state, self.dataset))

    @property
    def aborted(self) -> bool:
        return self.trace.aborted_at is not None

    @property
    def abort_reason(self) -> str:
        return self.trace.abort_reason

    @property
    def final_test_accuracy(self) -> float:
        return 1.0 - self.trace.final.test_error_01

    @property
    def final_clean_loss(self) -> float:
        return self.trace.final.clean_train_loss


def _trace_row(rows, k, step, live, labels, f, eps, gamma, rho_bar, rho_under, test_error,
               iotas) -> np.ndarray:
    """Fill record ``k`` of ``rows[a]`` for each of the L arms a where ``live`` is True; return
    their (L, 4) summary: max_gamma, mean_gamma, and max_rho_bar and min_rho_under clamped at
    0, as if the other class's entries counted as 0. The ratio is the clamped max_rho_bar
    over max(max_gamma, RATIO_FLOOR). Every other input holds the L live arms, in order:
    ``f`` and ``eps`` (L, n), ``gamma`` (L, 2m), ``rho_bar`` and ``rho_under`` (L, n m),
    ``test_error`` (L,) and ``iotas`` (L, n)."""
    margins = labels * f
    with np.errstate(over="ignore"):  # huge multipliers overflow to +-inf; their loss is exact
        noisy_margins = eps * margins
    max_gamma, mean_gamma = gamma.max(axis=1), gamma.mean(axis=1)
    max_rho_bar, min_rho_under = rho_bar.max(axis=1), rho_under.min(axis=1)
    top_rho_bar = np.maximum(0.0, max_rho_bar)  # ties keep the entry's zero, as a fold from 0 does
    columns = (
        step,
        logistic_loss(margins).mean(axis=1),
        logistic_loss(noisy_margins).mean(axis=1),
        test_error,
        max_gamma,
        mean_gamma,
        max_rho_bar,
        rho_bar.mean(axis=1),
        min_rho_under,
        top_rho_bar / np.maximum(max_gamma, RATIO_FLOOR),
        iotas.mean(axis=1),
        iotas.max(axis=1),
        np.count_nonzero(eps < 0, axis=1),
    )
    for name, column in zip(TRACE_COLUMNS, columns):
        rows[name][live, k] = column
    return np.stack([max_gamma, mean_gamma, top_rho_bar, np.minimum(0.0, min_rho_under)], axis=1)


def _relu_q1(z: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """r = max(z, 0), written over z, and r^(q-1)."""
    r = np.maximum(z, 0.0, out=z)
    if q == 2:
        return r, r
    with np.errstate(over="ignore"):
        return r, r ** (q - 1)


def _outputs(pre, signal_sum, label_rows, q, branch_sign, act=None):
    """(N, A) outputs f = F_{+1} - F_{-1} of every arm, and r^(q-1) for r = max(pre, 0).

    ``pre`` (N, A, 2m), the noise-patch pre-activations, is overwritten by r;
    ``signal_sum`` (2, A) is the signal patch's share of m f for y = +1, -1,
    picked per point by ``label_rows``. ``act`` (default: ``pre``) receives r^q.
    """
    rows, arms, two_m = pre.shape
    r, r_q1 = _relu_q1(pre, q)
    with np.errstate(over="ignore", invalid="ignore"):
        act = np.multiply(r_q1, r, out=r if act is None else act)
        f = (act.reshape(rows * arms, two_m) @ branch_sign).reshape(rows, arms)
        f += signal_sum[label_rows]
        f /= two_m // 2
    return f, r_q1


def log_count(steps: int, log_stride: int) -> int:
    """Rows a run of ``steps`` steps logs: steps 0, log_stride, 2 log_stride, ... and steps."""
    return -(-steps // log_stride) + 1


def run_training(geometry: RunGeometry, stack: CoefficientStack, q: int, dataset: Dataset,
                 recorder, arms: list[Arm], *, eta: float, steps: int,
                 log_stride: int = 10) -> list[RunArtifacts]:
    """Train every arm from the init; log a row every log_stride steps plus the final step.

    ``stack`` is a fresh ``CoefficientStack`` of ``len(arms)`` arms on
    ``geometry``, whose training products must be built; it is advanced in
    place. No point is read: ``geometry`` supplies the products, labels, class
    masks, |xi_i|^2 and |mu|^2, and ``dataset`` is only handed to the observers
    and kept by each ``RunArtifacts``. Each arm draws its multipliers from its
    own stream and keeps its own trace, observer and state. At each logged
    step ``recorder`` (``lngd.recorder``), which reads the same stack,
    evaluates the test error and fills the trace rows; it is made for
    ``log_count(steps, log_stride)`` rows; the traces, and the digests of any
    files it wrote (``arm.files``), are read from it when the run ends. The
    row at step t reflects the state after t updates and the multiplier
    vector drawn for step t (the loss the optimizer is about to descend).
    ``observer(step, state, dataset)`` runs at every logged step; one that
    needs weights rebuilds them with ``network.reconstruct_weights``. A
    non-finite output or coefficient update aborts that arm alone: it keeps
    the rows logged before, the reason and the state before the failed update.
    """
    for arm in arms:
        if arm.noise.draws and arm.noise_rng is None:
            raise ValueError(f"arm {arm.label!r}: noise_rng is required for stochastic label noise")
    n, m = len(geometry.labels), stack.gamma.shape[1] // 2
    sign = geometry.branch_sign
    logged = 0  # rows recorded for every live arm
    live = np.ones(len(arms), dtype=bool)
    stopped = {}  # arm -> (step, reason, rows logged) of an aborted arm
    violations = [0] * len(arms)
    drawn = [a for a, arm in enumerate(arms) if arm.noise.draws]  # the rest stay ones
    monotone = [a for a, arm in enumerate(arms) if not arm.noise.draws]
    # rho_bar is nondecreasing exactly when no same-class increment is below 0.
    floor = np.where(np.repeat(geometry.same_class.T, m, axis=1), 0.0, -np.inf)  # (n, 2m)
    eps = np.ones((n, len(arms)))
    pre = np.empty((n + 1, len(arms), 2 * m))  # rows: xi_1..xi_n, then mu
    act = np.empty((n, len(arms), 2 * m))

    def abort(failed, t: int, reason: str):
        for a in np.flatnonzero(failed):
            stopped[a] = (t, reason, logged)
            stack.states[a].step = t
            live[a] = False

    for t in range(steps + 1):
        # The extra draw at t = steps keeps every row's (state, eps) pairing uniform.
        for a in drawn:
            if live[a]:
                eps[:, a] = sample_multipliers(arms[a].noise, n, arms[a].noise_rng)
        geometry.train.preactivations(stack.coef, out=pre)
        s, s_q1 = _relu_q1(np.multiply.outer(LABEL_SIGN, pre[n]), q)  # signal patches y mu
        with np.errstate(over="ignore", invalid="ignore"):
            signal_sum = ((s_q1 * s).reshape(-1, 2 * m) @ sign).reshape(2, -1)
        f, r_q1 = _outputs(pre[:n], signal_sum, geometry.label_index, q, sign, act)
        failed = live & ~np.isfinite(f).all(axis=0)
        if failed.any():
            abort(failed, t, "non-finite network outputs")
        if not live.any():
            break
        if t % log_stride == 0 or t == steps:
            recorder.record(t, live, f, eps, signal_sum)
            logged += 1
            for a in np.flatnonzero(live):
                stack.states[a].step = t
                if arms[a].observer is not None:
                    arms[a].observer(t, stack.states[a], dataset)
        if t == steps:
            break
        failed = update_coefficients(geometry, stack, eps, f, s_q1, r_q1, live, eta=eta, q=q)
        if failed.any():
            abort(failed, t, "non-finite coefficient update")
        for a in monotone:
            if live[a]:
                violations[a] += np.count_nonzero(stack.drho[:, a] < floor)
    for a in np.flatnonzero(live):
        stack.states[a].step = steps
    rows, iota, files = recorder.finish()
    out = []
    for a, (arm, state) in enumerate(zip(arms, stack.states)):
        aborted_at, reason, kept = stopped.get(a, (None, "", logged))
        trace = TrainTrace(rows[a][:kept], iota[a][:kept], aborted_at, reason, violations[a])
        out.append(RunArtifacts(arm.label, arm.noise, trace, state, dataset, q, files[a]))
    return out
