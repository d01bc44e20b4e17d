"""Two-patch signal-noise data model, held as arrays.

A data point has two length-d patches: ``label * mu`` (the signal) and a
Gaussian noise vector xi drawn orthogonal to ``mu``. The network sums over
both patches with shared filters, so a point is fully described by its
label and its noise row: a ``Dataset`` is the (n,) labels and the
(n + 1, d) block of noise rows followed by mu. The noise is sampled by
explicit projection of an isotropic Gaussian, in place, which realizes the
rank-(d-1) covariance sigma_p^2 (I - mu mu^T / |mu|^2) exactly at O(d) cost
per draw. A test set is drawn in 4 MiB row chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SignalSpec",
    "Dataset",
    "TEST_CHUNK_VALUES",
    "generate_dataset",
    "stream_test_set",
]

TEST_CHUNK_VALUES = 2**19  # float64 values per test chunk, 4 MiB; max(1, this // d) rows


@dataclass(frozen=True, eq=False)
class SignalSpec:
    """Generative model parameters: signal direction, noise strength, dimension."""

    mu: np.ndarray
    sigma_p: float
    d: int

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if mu.ndim != 1 or mu.shape[0] != self.d:
            raise ValueError(f"mu must be a length-{self.d} vector, got shape {mu.shape}")
        if not np.all(np.isfinite(mu)) or float(np.linalg.norm(mu)) == 0.0:
            raise ValueError("mu must be finite and nonzero")
        if not (self.sigma_p > 0):
            raise ValueError(f"sigma_p must be positive, got {self.sigma_p}")

    @cached_property
    def mu_norm(self) -> float:
        return float(np.linalg.norm(self.mu))

    @cached_property
    def mu_norm_sq(self) -> float:
        return float(self.mu @ self.mu)


def _project_noise(spec: SignalSpec, z: np.ndarray) -> np.ndarray:
    """z <- sigma_p * (z - mu <mu, z> / |mu|^2) in place, row by row: no (n, d) temporary.

    Works on (d,) or (n, d); returns z.
    """
    coeff = (z @ spec.mu) / spec.mu_norm_sq
    for row, c in zip(np.atleast_2d(z), np.atleast_1d(coeff)):
        row -= c * spec.mu
    z *= spec.sigma_p
    return z


def _draw_labels(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n,) Rademacher labels, the first draw of a set.

    The second draw, which patch holds the signal, is made and dropped:
    the network sums both patches with shared filters, so the order carries
    no information, but the draw keeps every later value of the stream.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    rng.random(n)
    return labels


class Dataset:
    """n points drawn from one SignalSpec: labels (n,) and the (n + 1, d) ``points`` block.

    ``points`` holds xi_1..xi_n, then mu, so the training points' products
    are one gemm with the noise rows (numpy computes X X^T alone with syrk,
    whose last bits differ). ``generate_dataset`` draws into it. Once the
    products exist, ``drop_points`` releases the block: labels, spec and
    |xi_i|^2 stay, and a later read of the points raises.
    """

    def __init__(self, labels: np.ndarray, points: np.ndarray, spec: SignalSpec):
        self.labels = labels
        self.spec = spec
        self._points = points

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def points(self) -> np.ndarray:
        """The (n + 1, d) block; RuntimeError after ``drop_points``."""
        if self._points is None:
            raise RuntimeError("this dataset's points were dropped once their products existed")
        return self._points

    @property
    def noise_matrix(self) -> np.ndarray:
        """(n, d) matrix whose rows are the per-point noise vectors."""
        return self.points[:-1]

    @cached_property
    def xi_norms_sq(self) -> np.ndarray:
        """(n,) squared norms |xi_i|^2."""
        return np.einsum("ij,ij->i", self.noise_matrix, self.noise_matrix)

    def drop_points(self) -> None:
        """Release the points block; labels, spec and |xi_i|^2 stay."""
        self.xi_norms_sq  # computed while the points are here
        self._points = None


def generate_dataset(spec: SignalSpec, n: int, rng: np.random.Generator) -> Dataset:
    """Draw n points: Rademacher labels, then projected noise.

    Draw order (labels, patch slots, noise block) is fixed; identical
    (spec, n, seed) inputs give bit-identical datasets.
    """
    labels = _draw_labels(n, rng)
    points = np.empty((n + 1, spec.d))
    _project_noise(spec, rng.standard_normal(out=points[:n]))
    points[n] = spec.mu
    return Dataset(labels=labels, points=points, spec=spec)


def stream_test_set(spec: SignalSpec, n: int, rng: np.random.Generator):
    """``generate_dataset(spec, n, rng)``'s labels, drawn now, and a generator of its
    projected noise rows as (k, d) blocks in draw order.

    ``standard_normal`` fills sequentially, so the blocks hold the same
    values and leave ``rng`` in the same state. The generator draws only
    when read, every block into one reused (rows, d) buffer: a block is
    valid only until the next one is drawn.
    """
    labels = _draw_labels(n, rng)

    def chunks():
        rows = max(1, TEST_CHUNK_VALUES // spec.d)
        buf = np.empty((min(rows, n), spec.d))
        for a in range(0, n, rows):
            yield _project_noise(spec, rng.standard_normal(out=buf[:min(rows, n - a)]))

    return labels, chunks()
