"""Full-batch gradient descent with pluggable per-step label-noise multipliers.

Standard GD is the special case of all-ones multipliers. Each step draws a
fresh multiplier vector eps and descends the eps-weighted logistic loss.
Training runs in coefficient space: ``run_training`` advances the signal and
noise coefficients (gamma, rho) of the decomposition directly, evaluating
pre-activations from inner products computed once per dataset and init, so
a step costs O(n^2 m) whatever d is. The weight-space step ``train_step``
(closed-form gradient, certified by finite differences) is kept as the
oracle the engine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SignalSpec, generate_dataset
from .decomposition import (
    CoefficientState,
    SpanProducts,
    iota_all,
    ratio_summary,
    reconstruct_weights,
    update_coefficients,
)
from .network import (
    Network,
    _forward_backward,
    init_network,
    logistic_loss,
    outputs_from_preactivations,
    sign_error,
)
from .streams import stream

__all__ = [
    "LabelNoiseSpec",
    "TrainConfig",
    "TraceRow",
    "TrainTrace",
    "RunProducts",
    "RunAborted",
    "OracleReplay",
    "sample_multipliers",
    "train_step",
    "train_run",
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


@dataclass(frozen=True)
class TrainConfig:
    eta: float
    steps: int
    noise: LabelNoiseSpec
    seed: int
    log_stride: int = 10
    n_test: int = 2000

    def __post_init__(self):
        if not (self.eta > 0):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.log_stride < 1 or (self.steps > 0 and self.log_stride > self.steps):
            raise ValueError(f"log_stride must be in [1, steps], got {self.log_stride}")
        if self.n_test < 1:
            raise ValueError(f"n_test must be >= 1, got {self.n_test}")


@dataclass(frozen=True)
class TraceRow:
    step: int
    clean_train_loss: float
    noisy_train_loss: float
    test_error_01: float
    max_gamma: float
    mean_gamma: float
    max_rho_bar: float
    mean_rho_bar: float
    min_rho_under: float
    ratio_rho_over_gamma: float
    iota_mean: float
    iota_max: float
    flip_count: int


@dataclass
class TrainTrace:
    """Logged rows plus run-level diagnostics and per-sample iota history."""

    rows: list[TraceRow] = field(default_factory=list)
    iota_history: list[tuple[int, np.ndarray]] = field(default_factory=list)
    aborted_at: int | None = None
    abort_reason: str = ""
    rho_bar_monotone_violations: int = 0
    n: int = 0
    d: int = 0
    noise_kind: str = "none"

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]

    def rows_from(self, step: int) -> list[TraceRow]:
        return [r for r in self.rows if r.step >= step]


@dataclass(frozen=True)
class RunProducts:
    """The engine's inner products for one (dataset, test set, w0).

    Computed once; arms that share the data and the init share them.
    """

    mu: SpanProducts  # the single point mu
    train: SpanProducts  # the training noise vectors xi_i
    test: SpanProducts  # the test noise vectors

    @classmethod
    def of(cls, dataset: Dataset, test_dataset: Dataset, w0: np.ndarray) -> "RunProducts":
        return cls(
            mu=SpanProducts.of(dataset.spec.mu[None, :], dataset, w0),
            train=SpanProducts.of(dataset.noise_matrix, dataset, w0),
            test=SpanProducts.of(test_dataset.noise_matrix, dataset, w0),
        )


class RunAborted(RuntimeError):
    """Raised when a step produces non-finite values; carries partial results."""

    def __init__(self, step: int, reason: str, net=None, trace=None, state=None):
        super().__init__(f"training aborted at step {step}: {reason}")
        self.step = step
        self.reason = reason
        self.net = net
        self.trace = trace
        self.state = state


def train_step(net: Network, dataset: Dataset, multipliers: np.ndarray, eta: float,
               step: int = 0) -> None:
    """Oracle step: apply W <- W - eta * grad in place with the closed-form gradient."""
    multipliers = np.asarray(multipliers, dtype=np.float64)
    if multipliers.shape != (len(dataset),):
        raise ValueError(f"multipliers must have shape ({len(dataset)},), got {multipliers.shape}")
    f, _, _, _, grad = _forward_backward(net, dataset, multipliers)
    if not np.all(np.isfinite(f)):
        raise RunAborted(step, "non-finite network outputs", net=net)
    if not np.all(np.isfinite(grad)):
        raise RunAborted(step, "non-finite gradient", net=net)
    np.subtract(net.weights, eta * grad, out=net.weights)


class OracleReplay:
    """Replays one training arm in weight space with ``train_step``.

    ``noise_rng`` must be a fresh generator on the arm's multiplier stream,
    so the replay draws the same multipliers as the engine did. ``advance``
    takes the oracle network (built from ``state.w0`` on first use) forward
    to a given step; observers use it to compare the engine's coefficients
    against directly trained weights.
    """

    def __init__(self, q: int, eta: float, noise: LabelNoiseSpec, noise_rng=None):
        self.q = q
        self.eta = eta
        self.noise = noise
        self.noise_rng = noise_rng
        self.net: Network | None = None
        self.step = 0

    def advance(self, step: int, state: CoefficientState, dataset: Dataset) -> Network:
        if self.net is None:
            self.net = Network(state.w0.copy(), self.q)
        if step < self.step:
            raise ValueError(f"replay is at step {self.step}, cannot go back to {step}")
        while self.step < step:
            eps = sample_multipliers(self.noise, len(dataset), self.noise_rng)
            train_step(self.net, dataset, eps, self.eta, step=self.step)
            self.step += 1
        return self.net


def _trace_row(step, f, eps, state, labels, test_error, iotas) -> TraceRow:
    margins = labels * f
    clean = float(np.mean(logistic_loss(margins)))
    noisy = float(np.mean(logistic_loss(eps * margins)))
    same = state.same_class_mask[:, None, :]
    rho_bar_defined = state.rho_bar[np.broadcast_to(same, state.rho_bar.shape)]
    rho_under_defined = state.rho_under[np.broadcast_to(~same, state.rho_under.shape)]
    return TraceRow(
        step=step,
        clean_train_loss=clean,
        noisy_train_loss=noisy,
        test_error_01=test_error,
        max_gamma=float(state.gamma.max()),
        mean_gamma=float(state.gamma.mean()),
        max_rho_bar=float(rho_bar_defined.max()),
        mean_rho_bar=float(rho_bar_defined.mean()),
        min_rho_under=float(rho_under_defined.min()),
        ratio_rho_over_gamma=ratio_summary(state),
        iota_mean=float(iotas.mean()),
        iota_max=float(iotas.max()),
        flip_count=int(np.sum(eps < 0)),
    )


def _materialise(net: Network, state: CoefficientState, dataset: Dataset) -> None:
    """Write the weights the coefficients stand for into ``net``."""
    w_plus, w_minus = reconstruct_weights(state, dataset)
    net.w_plus[...] = w_plus
    net.w_minus[...] = w_minus


def run_training(net: Network, dataset: Dataset, test_dataset: Dataset, *,
                 eta: float, steps: int, noise: LabelNoiseSpec,
                 log_stride: int = 10, noise_rng: np.random.Generator | None = None,
                 observer=None, products: RunProducts | None = None,
                 ) -> tuple[TrainTrace, CoefficientState]:
    """Train from ``net``'s weights; log a row every log_stride steps plus the final step.

    The run advances the coefficient state; ``net`` receives the weights it
    stands for at the end of the run, or on abort. ``products`` are the
    precomputed inner products for (dataset, test_dataset, net.weights),
    computed here when not given. The row at step t reflects the state after
    t updates and the multiplier vector drawn for step t (the loss the
    optimizer is about to descend). ``observer(step, state, dataset, row)``
    runs at every logged step; one that needs weights rebuilds them with
    ``reconstruct_weights``. Non-finite outputs or coefficient updates record
    the abort in the trace and raise RunAborted.
    """
    if noise.kind != "none" and noise_rng is None:
        raise ValueError("noise_rng is required for stochastic label noise")
    if products is None:
        products = RunProducts.of(dataset, test_dataset, net.weights)
    trace = TrainTrace(n=len(dataset), d=dataset.spec.d, noise_kind=noise.kind)
    state = CoefficientState.zeros(dataset, net)
    labels = dataset.labels
    q, n = net.q, len(dataset)
    check_monotone = noise.kind == "none"
    same = state.same_class_mask[:, None, :]

    def forward():
        mu_proj = products.mu.preactivations(state)[0]
        noise_pre = products.train.preactivations(state)
        return mu_proj, noise_pre, outputs_from_preactivations(labels, mu_proj, noise_pre, q)

    def log_at(t: int, f, eps, mu_proj):
        iotas = iota_all(state)
        f_test = outputs_from_preactivations(test_dataset.labels, mu_proj,
                                             products.test.preactivations(state), q)
        row = _trace_row(t, f, eps, state, labels, sign_error(f_test, test_dataset.labels),
                         iotas)
        trace.rows.append(row)
        trace.iota_history.append((t, iotas))
        if observer is not None:
            observer(t, state, dataset, row)

    def abort(t: int, reason: str):
        trace.aborted_at = t
        trace.abort_reason = reason
        _materialise(net, state, dataset)
        raise RunAborted(t, reason, net=net, trace=trace, state=state)

    for t in range(steps + 1):
        # The extra draw at t = steps keeps every row's (state, eps) pairing uniform.
        eps = sample_multipliers(noise, n, noise_rng)
        mu_proj, noise_pre, f = forward()
        if not np.all(np.isfinite(f)):
            abort(t, "non-finite network outputs")
        if t % log_stride == 0 or t == steps:
            log_at(t, f, eps, mu_proj)
        if t == steps:
            break
        try:
            drho = update_coefficients(state, eps, f, mu_proj, noise_pre, eta=eta, q=q,
                                       mu_norm_sq=dataset.spec.mu_norm_sq)
        except FloatingPointError as exc:
            abort(t, str(exc))
        if check_monotone:
            # rho_bar is nondecreasing exactly when no same-class increment is negative.
            trace.rho_bar_monotone_violations += int(np.sum((drho < 0) & same))
    _materialise(net, state, dataset)
    return trace, state


def train_run(config: TrainConfig, spec: SignalSpec, n: int, m: int, q: int,
              sigma_0: float, observer=None):
    """Seed-derived end-to-end run: data, init, training, fixed test set.

    Returns (final network, trace, final coefficient state). All randomness
    comes from four named sub-streams of config.seed (see streams.STREAM_IDS).
    """
    data_rng = stream(config.seed, "data")
    init_rng = stream(config.seed, "init")
    noise_rng = stream(config.seed, "label_noise")
    test_rng = stream(config.seed, "test")
    dataset = generate_dataset(spec, n, data_rng)
    test_dataset = generate_dataset(spec, config.n_test, test_rng)
    net = init_network(spec.d, m, q, sigma_0, init_rng)
    trace, state = run_training(
        net,
        dataset,
        test_dataset,
        eta=config.eta,
        steps=config.steps,
        noise=config.noise,
        log_stride=config.log_stride,
        noise_rng=noise_rng,
        observer=observer,
    )
    return net, trace, state
