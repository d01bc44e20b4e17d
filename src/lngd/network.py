"""Two-layer convolutional network with fixed +/-1 second layer.

Both branches share the architecture F_j(W_j, x) = (1/m) sum_r sum_p
sigma(<w_{j,r}, x^(p)>) with sigma(z) = max(0, z)^q, and the network output
is f = F_{+1} - F_{-1}. Gradients are computed in closed form; the
architecture is fixed and tiny, so no autodiff framework is involved.

Internally the two branches live in one (d, 2m) array, [+1 branch | -1
branch], so the per-step matmuls run as a single BLAS call.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset

__all__ = [
    "Network",
    "init_network",
    "activation",
    "activation_derivative",
    "logistic_loss",
    "loss_derivative",
    "full_batch_gradient",
    "sign_error",
    "zero_one_error",
]


class Network:
    """First-layer weights of both output branches plus activation exponent q."""

    def __init__(self, weights: np.ndarray, q: int):
        if weights.ndim != 2 or weights.shape[1] % 2 != 0:
            raise ValueError(f"weights must be (d, 2m), got {weights.shape}")
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        self._w = np.ascontiguousarray(weights, dtype=np.float64)
        self.q = int(q)

    @property
    def m(self) -> int:
        return self._w.shape[1] // 2

    @property
    def weights(self) -> np.ndarray:
        """(d, 2m) backing array: [+1 branch | -1 branch]."""
        return self._w


def init_network(d: int, m: int, q: int, sigma_0: float, rng: np.random.Generator) -> Network:
    """Gaussian init: i.i.d. N(0, sigma_0^2) entries in both branches."""
    if d < 1 or m < 1:
        raise ValueError("d and m must be >= 1")
    if not (sigma_0 >= 0):
        raise ValueError(f"sigma_0 must be nonnegative, got {sigma_0}")
    w = rng.standard_normal((d, 2 * m))
    w *= sigma_0
    return Network(w, q)


def activation(z, q: int):
    """Polynomial ReLU max(0, z)^q."""
    return np.maximum(z, 0.0) ** q


def activation_derivative(z, q: int):
    """q * max(0, z)^(q-1)."""
    return q * np.maximum(z, 0.0) ** (q - 1)


def logistic_loss(z):
    """log(1 + exp(-z)), overflow-free for any margin."""
    return np.logaddexp(0.0, -np.asarray(z, dtype=np.float64))


def loss_derivative(z):
    """d/dz log(1 + exp(-z)) = -1 / (1 + exp(z)), computed without overflow."""
    return -np.exp(-np.logaddexp(0.0, np.asarray(z, dtype=np.float64)))


def sign_error(f: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of points with y != sign(f); sign(0) counts as an error."""
    return float(np.mean(np.sign(f) != labels))


def _batch_outputs(net: Network, dataset: Dataset) -> np.ndarray:
    """(n,) outputs f(W, x_i), vectorized over the dataset."""
    m, q = net.m, net.q
    with np.errstate(over="ignore", invalid="ignore"):
        mu_proj = dataset.spec.mu @ net._w  # (2m,)
        noise_pre = dataset.noise_matrix @ net._w  # (n, 2m)
        # The signal patch y_i mu contributes sigma(y_i <w_{j,r}, mu>).
        act = (activation(np.multiply.outer(dataset.labels, mu_proj), q)
               + activation(noise_pre, q))
        return (act[:, :m].sum(axis=1) - act[:, m:].sum(axis=1)) / m


def zero_one_error(net: Network, test_dataset: Dataset) -> float:
    """Fraction of points with y != sign(f); sign(0) counts as an error."""
    if len(test_dataset) == 0:
        raise ValueError("empty test set")
    return sign_error(_batch_outputs(net, test_dataset), test_dataset.labels)


def _forward_backward(net: Network, dataset: Dataset, multipliers: np.ndarray):
    """Weight-space forward/backward pass: the oracle the coefficient engine is tested against.

    Returns (f, lprime, mu_proj, noise_pre, grad) where grad is the full
    gradient of (1/n) sum_i loss(eps_i y_i f_i) in (d, 2m) layout. mu_proj
    is (2m,) filter-signal inner products <w_{j,r}, mu>; noise_pre is
    (n, 2m) inner products <w_{j,r}, xi_i>.
    """
    n, m, q = len(dataset), net.m, net.q
    with np.errstate(over="ignore", invalid="ignore"):
        y = dataset.labels
        mu_proj = dataset.spec.mu @ net._w
        sig_pre = np.multiply.outer(y, mu_proj)  # <w, y_i mu>
        noise_pre = dataset.noise_matrix @ net._w
        act = activation(sig_pre, q) + activation(noise_pre, q)
        f = (act[:, :m].sum(axis=1) - act[:, m:].sum(axis=1)) / m
        lprime = loss_derivative(multipliers * y * f)

        coef = lprime * multipliers  # (n,)
        sig_der = activation_derivative(sig_pre, q)
        noise_der = activation_derivative(noise_pre, q)
        grad = np.multiply.outer(dataset.spec.mu, coef @ sig_der)
        grad += dataset.noise_matrix.T @ ((coef * y)[:, None] * noise_der)
        grad[:, m:] *= -1.0  # second-layer sign j
        grad /= n * m
    return f, lprime, mu_proj, noise_pre, grad


def full_batch_gradient(net: Network, dataset: Dataset, multipliers: np.ndarray) -> np.ndarray:
    """Gradient of (1/n) sum_i loss(eps_i y_i f(W, x_i)) in (d, 2m) layout."""
    multipliers = np.asarray(multipliers, dtype=np.float64)
    if multipliers.shape != (len(dataset),):
        raise ValueError(f"multipliers must have shape ({len(dataset)},), got {multipliers.shape}")
    if not np.all(np.isfinite(multipliers)):
        raise ValueError("multipliers must be finite")
    return _forward_backward(net, dataset, multipliers)[4]
