"""Full-batch gradient descent with pluggable per-step label-noise multipliers.

Standard GD is the special case of all-ones multipliers. Each step draws a
fresh multiplier vector eps and descends the eps-weighted logistic loss.
Training runs in coefficient space: ``run_training`` advances the signal and
noise coefficients (gamma, rho) of the decomposition directly, evaluating
pre-activations from inner products computed once per dataset and init, so
a step costs O(n^2 m) whatever d is. The arms of a run, which share the
dataset and the init and differ in their multipliers, advance as one stacked
state: one matrix product and one pass of each elementwise operation per
step serve them all. The test error and the trace rows of each logged step
are left to a recorder (``lngd.recorder``). No weights are built here:
``lngd.network`` owns weight space, including the oracle step the engine is
tested against, and only ``RunArtifacts.net`` reaches it, on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset
from .decomposition import (
    LABEL_SIGN,
    CoefficientStack,
    CoefficientState,
    SpanProducts,
    logistic_loss,
    ratio_summary,
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
TRACE_DTYPE = np.dtype([(col, np.int64 if col in ("step", "flip_count") else np.float64)
                        for col in TRACE_COLUMNS])


@dataclass(frozen=True)
class LabelNoiseSpec:
    """Distribution of the per-sample multipliers applied to y_i at each step."""

    kind: str  # none | flip | gaussian | uniform
    p: float = 0.0
    mean: float = 0.0
    std: float = 0.0
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        if self.kind == "none":
            pass
        elif self.kind == "flip":
            if not (0.0 <= self.p <= 1.0):
                raise ValueError(f"flip probability must be in [0, 1], got {self.p}")
        elif self.kind == "gaussian":
            if not (self.std >= 0.0):
                raise ValueError(f"gaussian std must be >= 0, got {self.std}")
        elif self.kind == "uniform":
            if not (self.lo < self.hi):
                raise ValueError(f"uniform bounds need lo < hi, got [{self.lo}, {self.hi}]")
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")

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

    def describe(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "flip":
            return f"flip(p={self.p:g})"
        if self.kind == "gaussian":
            return f"gaussian({self.mean:g},{self.std:g})"
        return f"uniform({self.lo:g},{self.hi:g})"


def sample_multipliers(noise: LabelNoiseSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the length-n multiplier vector for one step."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if noise.kind == "none":
        return np.ones(n)
    if noise.kind == "flip":
        return np.where(rng.random(n) < noise.p, -1.0, 1.0)
    if noise.kind == "gaussian":
        return noise.mean + noise.std * rng.standard_normal(n)
    return rng.uniform(noise.lo, noise.hi, n)


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
    n: int = 0
    d: int = 0
    noise_kind: str = "none"

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
    """One trained arm: trace, coefficient state, the dataset it trained on, metadata."""

    label: str
    noise: LabelNoiseSpec
    trace: TrainTrace
    state: CoefficientState
    dataset: Dataset
    q: int

    @cached_property
    def net(self):
        """The final network, its weights rebuilt from the coefficients on first read (a
        dataset that dropped its points draws them again for it)."""
        # Imported here, not at module level: network imports this module.
        from .network import Network, reconstruct_weights

        return Network(np.hstack(reconstruct_weights(self.state, self.dataset)), self.q)

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


def _trace_row(rows, k, step, f, eps, state, labels, test_error, iotas) -> None:
    """Fill record ``k`` of ``rows`` from one arm's outputs, multipliers and state."""
    margins = labels * f
    same = np.broadcast_to(state.same_class_mask[:, None, :], state.rho.shape)
    rho_bar_defined = state.rho[same]
    rho_under_defined = state.rho[~same]
    with np.errstate(over="ignore"):  # huge multipliers overflow to +-inf; their loss is exact
        noisy_margins = eps * margins
    rows[k] = (
        step,
        np.mean(logistic_loss(margins)),
        np.mean(logistic_loss(noisy_margins)),
        test_error,
        state.gamma.max(),
        state.gamma.mean(),
        rho_bar_defined.max(),
        rho_bar_defined.mean(),
        rho_under_defined.min(),
        ratio_summary(state),
        iotas.mean(),
        iotas.max(),
        np.sum(eps < 0),
    )


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


def run_training(w0: np.ndarray, q: int, dataset: Dataset, products: SpanProducts, recorder,
                 arms: list[Arm], *, eta: float, steps: int,
                 log_stride: int = 10) -> list[RunArtifacts]:
    """Train every arm from the init ``w0``; log a row every log_stride steps plus the final step.

    ``products`` are the training ``SpanProducts`` of the init: the rows
    xi_1..xi_n, then mu. No point is read: ``dataset`` supplies the labels,
    |xi_i|^2, |mu|^2 and d, and is passed to the observers. The arms advance
    as one stacked coefficient state; each draws its multipliers from its
    own stream and keeps its own trace, observer and state. At each logged
    step the state goes to ``recorder`` (``lngd.recorder``), which evaluates
    the test error and fills the trace rows; it is made for ``len(arms)``
    arms and ``log_count(steps, log_stride)`` rows, and the traces are read
    from it when the run ends. The row at step t reflects the state after t
    updates and the multiplier vector drawn for step t (the loss the
    optimizer is about to descend).
    ``observer(step, state, dataset)`` runs at every logged step; one that
    needs weights rebuilds them with ``network.reconstruct_weights``. A non-finite
    output or coefficient update aborts that arm alone: it keeps the rows
    logged before, the reason and the state before the failed update.
    """
    for arm in arms:
        if arm.noise.kind != "none" and arm.noise_rng is None:
            raise ValueError(f"arm {arm.label!r}: noise_rng is required for stochastic label noise")
    n, m = len(dataset), w0.shape[1] // 2
    labels = dataset.labels
    stack = CoefficientStack(dataset, w0, len(arms))
    sign = stack.branch_sign
    logged = 0  # rows recorded for every live arm
    live = np.ones(len(arms), dtype=bool)
    stopped = {}  # arm -> (step, reason, rows logged) of an aborted arm
    violations = [0] * len(arms)
    drawn = [a for a, arm in enumerate(arms) if arm.noise.kind != "none"]  # the rest stay ones
    monotone = [a for a, arm in enumerate(arms) if arm.noise.kind == "none"]
    # rho_bar is nondecreasing exactly when no same-class increment is below 0.
    floor = np.where(np.equal.outer(labels, sign), 0.0, -np.inf)  # (n, 2m)
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
        products.preactivations(stack.coef, out=pre)
        s, s_q1 = _relu_q1(np.multiply.outer(LABEL_SIGN, pre[n]), q)  # signal patches y mu
        with np.errstate(over="ignore", invalid="ignore"):
            signal_sum = ((s_q1 * s).reshape(-1, 2 * m) @ sign).reshape(2, -1)
        f, r_q1 = _outputs(pre[:n], signal_sum, stack.label_index, q, sign, act)
        failed = live & ~np.isfinite(f).all(axis=0)
        if failed.any():
            abort(failed, t, "non-finite network outputs")
        if not live.any():
            break
        if t % log_stride == 0 or t == steps:
            recorder.record(t, live, stack.coef, stack.gamma, f, eps, signal_sum)
            logged += 1
            for a in np.flatnonzero(live):
                stack.states[a].step = t
                if arms[a].observer is not None:
                    arms[a].observer(t, stack.states[a], dataset)
        if t == steps:
            break
        failed = update_coefficients(stack, eps, f, s_q1, r_q1, live, eta=eta, q=q,
                                     mu_norm_sq=dataset.spec.mu_norm_sq)
        if failed.any():
            abort(failed, t, "non-finite coefficient update")
        for a in monotone:
            if live[a]:
                violations[a] += np.count_nonzero(stack.drho[:, a] < floor)
    for a in np.flatnonzero(live):
        stack.states[a].step = steps
    rows, iota = recorder.finish()
    out = []
    for a, (arm, state) in enumerate(zip(arms, stack.states)):
        aborted_at, reason, kept = stopped.get(a, (None, "", logged))
        trace = TrainTrace(rows[a][:kept], iota[a][:kept], aborted_at, reason, violations[a],
                           n=n, d=dataset.spec.d, noise_kind=arm.noise.kind)
        out.append(RunArtifacts(arm.label, arm.noise, trace, state, dataset, q))
    return out
