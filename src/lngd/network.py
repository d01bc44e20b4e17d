"""Weight space: the two-layer network's init, its closed-form gradient and the oracle.

This is the one module that builds, holds or steps weights. The coefficient
engine (``data``, ``decomposition``, ``training``, ``recorder``) imports
nothing from here, and is tested against the oracle step defined here.

Both branches share the architecture F_j(W_j, x) = (1/m) sum_r sum_p
sigma(<w_{j,r}, x^(p)>) with sigma(z) = max(0, z)^q, and the network output
is f = F_{+1} - F_{-1}. Gradients are computed in closed form; the
architecture is fixed and tiny, so no autodiff framework is involved.

The weights are a plain (d, 2m) float64 array, [+1 branch | -1 branch], so
the per-step matmuls run as a single BLAS call; every function here takes
that array, and the activation exponent q where it needs one.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .decomposition import _BRANCH_SIGN, CoefficientState, loss_derivative, sign_error
from .training import LabelNoiseSpec, sample_multipliers

__all__ = [
    "init_network",
    "activation",
    "activation_derivative",
    "full_batch_gradient",
    "zero_one_error",
    "RunAborted",
    "train_step",
    "OracleReplay",
    "reconstruct_weights",
    "projection_check",
]


def init_network(d: int, m: int, sigma_0: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian init: the (d, 2m) weights, i.i.d. N(0, sigma_0^2) entries in both branches."""
    if d < 1 or m < 1:
        raise ValueError("d and m must be >= 1")
    if not (sigma_0 >= 0):
        raise ValueError(f"sigma_0 must be nonnegative, got {sigma_0}")
    w = rng.standard_normal((d, 2 * m))
    w *= sigma_0
    return w


def activation(z, q: int):
    """Polynomial ReLU max(0, z)^q."""
    return np.maximum(z, 0.0) ** q


def activation_derivative(z, q: int):
    """q * max(0, z)^(q-1)."""
    return q * np.maximum(z, 0.0) ** (q - 1)


def _forward(weights: np.ndarray, q: int, dataset: Dataset):
    """(n, 2m) pre-activations <w_{j,r}, y_i mu> and <w_{j,r}, xi_i>, and the (n,) outputs f.

    Call under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    m = weights.shape[1] // 2
    mu_proj = dataset.spec.mu @ weights  # (2m,)
    sig_pre = np.multiply.outer(dataset.labels, mu_proj)
    noise_pre = dataset.noise_matrix @ weights
    act = activation(sig_pre, q) + activation(noise_pre, q)
    return sig_pre, noise_pre, (act[:, :m].sum(axis=1) - act[:, m:].sum(axis=1)) / m


def _batch_outputs(weights: np.ndarray, q: int, dataset: Dataset) -> np.ndarray:
    """(n,) outputs f(W, x_i), vectorized over the dataset."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward(weights, q, dataset)[2]


def zero_one_error(weights: np.ndarray, q: int, test_dataset: Dataset) -> float:
    """Fraction of points with y != sign(f); sign(0) counts as an error."""
    if len(test_dataset) == 0:
        raise ValueError("empty test set")
    return sign_error(_batch_outputs(weights, q, test_dataset), test_dataset.labels)


def _forward_backward(weights: np.ndarray, q: int, dataset: Dataset, multipliers: np.ndarray):
    """Weight-space forward/backward pass: the oracle the coefficient engine is tested against.

    Returns (f, grad) where grad is the full gradient of
    (1/n) sum_i loss(eps_i y_i f_i) in (d, 2m) layout.
    """
    n, m = len(dataset), weights.shape[1] // 2
    with np.errstate(over="ignore", invalid="ignore"):
        y = dataset.labels
        sig_pre, noise_pre, f = _forward(weights, q, dataset)
        coef = loss_derivative(multipliers * y * f) * multipliers  # (n,)
        sig_der = activation_derivative(sig_pre, q)
        noise_der = activation_derivative(noise_pre, q)
        grad = np.multiply.outer(dataset.spec.mu, coef @ sig_der)
        grad += dataset.noise_matrix.T @ ((coef * y)[:, None] * noise_der)
        grad[:, m:] *= -1.0  # second-layer sign j
        grad /= n * m
    return f, grad


def full_batch_gradient(weights: np.ndarray, q: int, dataset: Dataset,
                        multipliers: np.ndarray) -> np.ndarray:
    """Gradient of (1/n) sum_i loss(eps_i y_i f(W, x_i)) in (d, 2m) layout."""
    multipliers = np.asarray(multipliers, dtype=np.float64)
    if multipliers.shape != (len(dataset),):
        raise ValueError(f"multipliers must have shape ({len(dataset)},), got {multipliers.shape}")
    if not np.all(np.isfinite(multipliers)):
        raise ValueError("multipliers must be finite")
    return _forward_backward(weights, q, dataset, multipliers)[1]


class RunAborted(RuntimeError):
    """Raised by the oracle step when it produces non-finite values."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"training aborted at step {step}: {reason}")
        self.step = step
        self.reason = reason


def train_step(weights: np.ndarray, q: int, dataset: Dataset, multipliers: np.ndarray,
               eta: float, step: int = 0) -> None:
    """Oracle step: apply W <- W - eta * grad in place with the closed-form gradient."""
    multipliers = np.asarray(multipliers, dtype=np.float64)
    if multipliers.shape != (len(dataset),):
        raise ValueError(f"multipliers must have shape ({len(dataset)},), got {multipliers.shape}")
    f, grad = _forward_backward(weights, q, dataset, multipliers)
    if not np.all(np.isfinite(f)):
        raise RunAborted(step, "non-finite network outputs")
    if not np.all(np.isfinite(grad)):
        raise RunAborted(step, "non-finite gradient")
    np.subtract(weights, eta * grad, out=weights)


class OracleReplay:
    """Replays one training arm in weight space with ``train_step``.

    ``noise_rng`` must be a fresh generator on the arm's multiplier stream,
    so the replay draws the same multipliers as the engine did. ``advance``
    takes the oracle's weights (a copy of ``state.w0``, made on first use)
    forward to a given step and returns them, the one array it steps in place;
    observers use it to compare the engine's coefficients against directly
    trained weights.
    """

    def __init__(self, q: int, eta: float, noise: LabelNoiseSpec, noise_rng=None):
        self.q = q
        self.eta = eta
        self.noise = noise
        self.noise_rng = noise_rng
        self.weights: np.ndarray | None = None
        self.step = 0

    def advance(self, step: int, state: CoefficientState, dataset: Dataset) -> np.ndarray:
        if self.weights is None:
            self.weights = state.w0.copy()
        if step < self.step:
            raise ValueError(f"replay is at step {self.step}, cannot go back to {step}")
        while self.step < step:
            eps = sample_multipliers(self.noise, len(dataset), self.noise_rng)
            train_step(self.weights, self.q, dataset, eps, self.eta, step=self.step)
            self.step += 1
        return self.weights


def reconstruct_weights(state: CoefficientState, dataset: Dataset):
    """Rebuild (w_plus, w_minus) from w0 and the coefficients.

    w_{j,r} = w0_{j,r} + j gamma_{j,r} mu/|mu|^2 + sum_i rho_{j,r,i} xi_i/|xi_i|^2
    """
    mu = dataset.spec.mu
    mu_unit = mu / (mu @ mu)
    m, n = state.m, state.n
    xi_scaled = dataset.noise_matrix / state.xi_norms_sq[:, None]  # (n, d)
    w = state.w0.copy()
    w += np.multiply.outer(mu_unit, (state.gamma * _BRANCH_SIGN).ravel())  # j gamma_{j,r}
    w += (state.rho.reshape(2 * m, n) @ xi_scaled).T
    return w[:, :m], w[:, m:]


def projection_check(weights: np.ndarray, state: CoefficientState, dataset: Dataset, *,
                     delta: float = 0.01, t_star: int | None = None) -> dict:
    """Compare coefficients against direct projections of the weight displacement.

    The gamma comparison <w - w0, j mu> - gamma_{j,r} is exact up to rounding
    because every xi_i is orthogonal to mu. The rho comparison picks up
    cross-terms <xi_i, xi_i'> and is judged against the theoretical slack
    8 sqrt(log(4 n^2 / delta) / d) * n * alpha with alpha = 4 log(t_star).
    """
    mu = dataset.spec.mu
    n, m = state.n, state.m
    disp = weights - state.w0  # (d, 2m)
    mu_proj = (mu @ disp).reshape(2, m) * _BRANCH_SIGN  # <w - w0, j mu>
    gamma_disc = np.abs(mu_proj - state.gamma)

    xi_proj = (dataset.noise_matrix @ disp).T.reshape(2, m, n).copy()
    rho_disc = np.abs(xi_proj - state.rho)

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
