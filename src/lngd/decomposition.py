"""Signal/noise coefficient decomposition: the state the trainer advances.

Every gradient update moves each filter within span{mu, xi_1..xi_n}, so the
weights are exactly

    w_{j,r} = w0_{j,r} + j gamma_{j,r} mu/|mu|^2 + sum_i rho_{j,r,i} xi_i/|xi_i|^2

with a signal coefficient gamma_{j,r} per filter and noise coefficients
rho_{j,r,i} per (filter, sample) pair. Training advances (gamma, rho) with
the recurrence in ``update_coefficients``; ``SpanProducts`` turns them into
pre-activations from inner products computed once, so a step does no work
that scales with d. Weights are rebuilt by ``reconstruct_weights`` only when
asked for; projections onto mu / xi_i serve as cross-checks.

Array convention: axis 0 indexes the branch, 0 -> j=+1, 1 -> j=-1.
rho_bar holds the same-class coefficients (defined where y_i = j, zero
elsewhere); rho_under the opposite-class ones (defined where y_i = -j,
nonpositive). Dense storage: n*m is small at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .network import Network, activation_derivative, loss_derivative

__all__ = [
    "CoefficientState",
    "SpanProducts",
    "branch_index",
    "update_coefficients",
    "reconstruct_weights",
    "projection_check",
    "iota",
    "iota_all",
    "iota_series",
    "ratio_summary",
    "sign_pattern_report",
]

RATIO_FLOOR = 1e-12
_BRANCH_SIGN = np.array([[1.0], [-1.0]])  # j per branch row


def branch_index(j: int) -> int:
    """Map branch label j in {+1, -1} to array axis index."""
    if j == 1:
        return 0
    if j == -1:
        return 1
    raise ValueError(f"branch label must be +1 or -1, got {j}")


@dataclass
class CoefficientState:
    """Coefficients gamma (2, m), rho_bar / rho_under (2, m, n), plus w0 snapshot."""

    gamma: np.ndarray
    rho_bar: np.ndarray
    rho_under: np.ndarray
    xi_norms_sq: np.ndarray
    w0: np.ndarray  # (d, 2m) initial weights snapshot
    step: int = 0
    labels: np.ndarray = field(default=None, repr=False)

    @classmethod
    def zeros(cls, dataset: Dataset, net: Network) -> "CoefficientState":
        m, n = net.m, len(dataset)
        return cls(
            gamma=np.zeros((2, m)),
            rho_bar=np.zeros((2, m, n)),
            rho_under=np.zeros((2, m, n)),
            xi_norms_sq=dataset.xi_norms_sq.copy(),
            w0=net.weights.copy(),
            step=0,
            labels=dataset.labels.copy(),
        )

    @property
    def m(self) -> int:
        return self.gamma.shape[1]

    @property
    def n(self) -> int:
        return self.rho_bar.shape[2]

    def snapshot(self) -> "CoefficientState":
        return CoefficientState(
            gamma=self.gamma.copy(),
            rho_bar=self.rho_bar.copy(),
            rho_under=self.rho_under.copy(),
            xi_norms_sq=self.xi_norms_sq,
            w0=self.w0,
            step=self.step,
            labels=self.labels,
        )

    @property
    def same_class_mask(self) -> np.ndarray:
        """(2, n) boolean: True where y_i == j for the branch on that row."""
        return np.stack([self.labels == 1.0, self.labels == -1.0])


@dataclass(frozen=True)
class SpanProducts:
    """Inner products of N points x with w0 and with the span basis.

    With these, <w_{j,r}, x> = <w0_{j,r}, x> + (<x, mu>/|mu|^2) j gamma_{j,r}
    + sum_i (<x, xi_i>/|xi_i|^2) rho_{j,r,i}: an exact reparametrisation
    (the <x, mu> cross-terms are kept, not assumed zero) that costs O(N n m).
    """

    w0: np.ndarray  # (N, 2m) <w0_{j,r}, x>
    signal: np.ndarray  # (N,) <x, mu> / |mu|^2
    noise: np.ndarray  # (N, n) <x, xi_i> / |xi_i|^2

    @classmethod
    def of(cls, points: np.ndarray, dataset: Dataset, w0: np.ndarray) -> "SpanProducts":
        spec = dataset.spec
        return cls(
            w0=points @ w0,
            signal=(points @ spec.mu) / spec.mu_norm_sq,
            noise=(points @ dataset.noise_matrix.T) / dataset.xi_norms_sq,
        )

    def preactivations(self, state: CoefficientState) -> np.ndarray:
        """(N, 2m) inner products <w_{j,r}, x> at the state's coefficients."""
        gamma_signed = state.gamma * _BRANCH_SIGN  # j gamma_{j,r}
        rho = (state.rho_bar + state.rho_under).reshape(2 * state.m, state.n)
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.w0 + np.multiply.outer(self.signal, gamma_signed.ravel())
                    + self.noise @ rho.T)


def update_coefficients(state: CoefficientState, eps: np.ndarray, f: np.ndarray,
                        mu_proj: np.ndarray, noise_pre: np.ndarray, *, eta: float, q: int,
                        mu_norm_sq: float) -> np.ndarray:
    """Advance (gamma, rho) by one step of GD on (1/n) sum_i loss(eps_i y_i f_i).

    ``f`` (n,), ``mu_proj`` (2m,) and ``noise_pre`` (n, 2m) are the outputs
    and inner products <w_{j,r}, mu>, <w_{j,r}, xi_i> before the step.
    Returns the (2, m, n) rho increment. A non-finite increment raises
    FloatingPointError and leaves the state unchanged.
    """
    m, n = state.m, state.n
    with np.errstate(over="ignore", invalid="ignore"):
        coef = loss_derivative(eps * state.labels * f) * eps  # (n,)

        # gamma_{j,r} += -(eta |mu|^2 / nm) sum_i coef_i sigma'(<w_{j,r}, y_i mu>)
        sig_der = activation_derivative(np.multiply.outer(state.labels, mu_proj), q)  # (n, 2m)
        dgamma = (-eta * mu_norm_sq / (n * m)) * (coef @ sig_der)  # (2m,)

        # rho_{j,r,i} += -(eta / nm) j y_i coef_i sigma'(<w_{j,r}, xi_i>) |xi_i|^2
        noise_der = activation_derivative(noise_pre, q)  # (n, 2m)
        scale = (-eta / (n * m)) * (coef * state.labels * state.xi_norms_sq)  # (n,)
        drho = (noise_der * scale[:, None]).T.reshape(2, m, n) * _BRANCH_SIGN[:, :, None]
    if not (np.all(np.isfinite(dgamma)) and np.all(np.isfinite(drho))):
        raise FloatingPointError("non-finite coefficient update")
    state.gamma += dgamma.reshape(2, m)
    same = state.same_class_mask[:, None, :]  # (2, 1, n)
    state.rho_bar += np.where(same, drho, 0.0)
    state.rho_under += np.where(same, 0.0, drho)
    state.step += 1
    return drho


def reconstruct_weights(state: CoefficientState, dataset: Dataset, mu: np.ndarray | None = None):
    """Rebuild (w_plus, w_minus) from w0 and the coefficients.

    w_{j,r} = w0_{j,r} + j gamma_{j,r} mu/|mu|^2 + sum_i (rho_bar+rho_under)_{j,r,i} xi_i/|xi_i|^2
    """
    if mu is None:
        mu = dataset.spec.mu
    mu_unit = mu / (mu @ mu)
    m, n = state.m, state.n
    rho = state.rho_bar + state.rho_under  # (2, m, n)
    xi_scaled = dataset.noise_matrix / state.xi_norms_sq[:, None]  # (n, d)
    w = state.w0.copy()
    gamma_signed = state.gamma.copy()
    gamma_signed[1] *= -1.0  # j = -1 branch
    w += np.multiply.outer(mu_unit, gamma_signed.reshape(2 * m))
    w += (rho.reshape(2 * m, n) @ xi_scaled).T
    return w[:, :m], w[:, m:]


def projection_check(net: Network, state: CoefficientState, dataset: Dataset,
                     mu: np.ndarray | None = None, *, delta: float = 0.01,
                     t_star: int | None = None) -> dict:
    """Compare coefficients against direct projections of the weight displacement.

    The gamma comparison <w - w0, j mu> - gamma_{j,r} is exact up to rounding
    because every xi_i is orthogonal to mu. The rho comparison picks up
    cross-terms <xi_i, xi_i'> and is judged against the theoretical slack
    8 sqrt(log(4 n^2 / delta) / d) * n * alpha with alpha = 4 log(t_star).
    """
    if mu is None:
        mu = dataset.spec.mu
    n, m = state.n, state.m
    disp = net.weights - state.w0  # (d, 2m)
    mu_proj = (mu @ disp).reshape(2, m)
    mu_proj[1] *= -1.0  # <w - w0, j mu>
    gamma_disc = np.abs(mu_proj - state.gamma)

    xi_proj = (dataset.noise_matrix @ disp).T.reshape(2, m, n).copy()
    rho = state.rho_bar + state.rho_under
    rho_disc = np.abs(xi_proj - rho)

    steps = max(2, state.step if t_star is None else t_star)
    alpha = 4.0 * np.log(steps)
    bound = 8.0 * np.sqrt(np.log(4.0 * n * n / delta) / dataset.spec.d) * n * alpha
    return {
        "gamma_discrepancy_max": float(gamma_disc.max()),
        "rho_discrepancy_max": float(rho_disc.max()),
        "rho_bound": float(bound),
        "rho_within_bound_frac": float(np.mean(rho_disc <= bound)),
        "alpha": float(alpha),
        "delta": delta,
    }


def iota(state: CoefficientState, dataset: Dataset, i: int) -> float:
    """Per-sample memorization scalar (1/m) sum_r rho_bar_{y_i, r, i}^2."""
    if not (0 <= i < state.n):
        raise IndexError(f"sample index {i} out of range [0, {state.n})")
    j_idx = branch_index(int(dataset.labels[i]))
    return float(np.mean(state.rho_bar[j_idx, :, i] ** 2))


def iota_all(state: CoefficientState) -> np.ndarray:
    """(n,) vector of iota_i, using the labels recorded in the state."""
    j_idx = (state.labels < 0).astype(np.intp)  # 0 for y=+1, 1 for y=-1
    picked = state.rho_bar[j_idx, :, np.arange(state.n)]  # (n, m)
    return np.mean(picked**2, axis=1)


def iota_series(trace) -> tuple[np.ndarray, np.ndarray]:
    """(steps, iotas) arrays from a TrainTrace; iotas has shape (rows, n)."""
    steps = np.array([s for s, _ in trace.iota_history], dtype=np.int64)
    iotas = np.stack([v for _, v in trace.iota_history]) if trace.iota_history else np.zeros((0, 0))
    return steps, iotas


def ratio_summary(state: CoefficientState, aggregation: str = "max") -> float:
    """Noise-memorization over signal-learning ratio.

    Default is max over indices for both numerator and denominator; "mean"
    aggregates over the defined coefficients instead. Returns 0 at step 0
    when both sides are still zero.
    """
    if aggregation == "max":
        num = float(state.rho_bar.max())
        den = float(state.gamma.max())
    elif aggregation == "mean":
        num = float(state.rho_bar.sum() / (state.m * state.n))  # one defined j per (r, i)
        den = float(state.gamma.mean())
    else:
        raise ValueError(f"unknown aggregation {aggregation!r}")
    return num / max(den, RATIO_FLOOR)


def sign_pattern_report(state: CoefficientState) -> dict:
    """Count coordinate-level violations of gamma >= 0, rho_bar >= 0, rho_under <= 0.

    These hold under the theory's step-size regime; at desk-scale learning
    rates small transient dips are possible, so they are reported rather
    than asserted.
    """
    same = state.same_class_mask[:, None, :]
    return {
        "gamma_negative": int(np.sum(state.gamma < 0)),
        "rho_bar_negative": int(np.sum(np.where(same, state.rho_bar, 0.0) < 0)),
        "rho_under_positive": int(np.sum(np.where(~same, state.rho_under, 0.0) > 0)),
        "gamma_min": float(state.gamma.min()),
        "rho_bar_min": float(state.rho_bar.min()),
        "rho_under_max": float(state.rho_under.max()),
    }
