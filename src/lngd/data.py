"""Two-patch signal-noise data model.

Each sample carries two length-d patches: one equals ``label * mu`` (the
signal), the other is a Gaussian noise vector drawn orthogonal to ``mu``.
The noise is sampled by explicit projection of an isotropic Gaussian, in
place, which realizes the rank-(d-1) covariance sigma_p^2 (I - mu mu^T / |mu|^2)
exactly at O(d) cost per draw. A test set is drawn in 4 MiB row chunks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "SignalSpec",
    "Sample",
    "Dataset",
    "StreamedTestSet",
    "generate_dataset",
    "compute_snr",
    "dataset_to_json",
    "dataset_from_json",
]


@dataclass(frozen=True)
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

    def __eq__(self, other):
        if not isinstance(other, SignalSpec):
            return NotImplemented
        return (
            self.d == other.d
            and self.sigma_p == other.sigma_p
            and np.array_equal(self.mu, other.mu)
        )


def compute_snr(spec: SignalSpec) -> float:
    """Signal-to-noise ratio |mu| / (sigma_p * sqrt(d))."""
    return spec.mu_norm / (spec.sigma_p * np.sqrt(spec.d))


def _project_noise(spec: SignalSpec, z: np.ndarray) -> np.ndarray:
    """z <- sigma_p * (z - mu <mu, z> / |mu|^2) in place, row by row: no (n, d) temporary.

    Works on (d,) or (n, d); returns z.
    """
    coeff = (z @ spec.mu) / spec.mu_norm_sq
    for row, c in zip(np.atleast_2d(z), np.atleast_1d(coeff)):
        row -= c * spec.mu
    z *= spec.sigma_p
    return z


def _draw_labels_and_slots(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Rademacher labels, then uniform signal-patch slots: the first two draws of a set."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return np.where(rng.random(n) < 0.5, 1, -1), np.where(rng.random(n) < 0.5, 1, 2)


@dataclass
class Sample:
    """One data point. The signal patch is computed from (label, mu) on access."""

    label: int
    signal_patch_index: int  # 1 or 2
    noise_vector: np.ndarray
    mu: np.ndarray = field(repr=False)

    @property
    def signal_patch(self) -> np.ndarray:
        return self.label * self.mu

    @property
    def patch1(self) -> np.ndarray:
        return self.signal_patch if self.signal_patch_index == 1 else self.noise_vector

    @property
    def patch2(self) -> np.ndarray:
        return self.signal_patch if self.signal_patch_index == 2 else self.noise_vector


@dataclass
class Dataset:
    """Ordered collection of samples drawn from one SignalSpec.

    ``points`` (n + 1, d) holds xi_1..xi_n, then mu, so the training points'
    products are one gemm with the noise rows (numpy computes X X^T alone
    with syrk, whose last bits differ). ``generate_dataset`` draws into it.
    """

    samples: list[Sample]
    spec: SignalSpec
    seed_record: int
    points: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.points is None:
            self.points = np.vstack([s.noise_vector for s in self.samples] + [self.spec.mu])

    def __len__(self) -> int:
        return len(self.samples)

    def noise_chunks(self):
        """The noise block as one chunk: a Dataset read as a test set."""
        return iter([self.noise_matrix])

    @cached_property
    def labels(self) -> np.ndarray:
        """(n,) vector of +/-1 labels."""
        return np.array([s.label for s in self.samples], dtype=np.float64)

    @property
    def noise_matrix(self) -> np.ndarray:
        """(n, d) matrix whose rows are the per-sample noise vectors."""
        return self.points[:-1]

    @cached_property
    def xi_norms_sq(self) -> np.ndarray:
        """(n,) squared norms |xi_i|^2."""
        return np.einsum("ij,ij->i", self.noise_matrix, self.noise_matrix)

    @cached_property
    def patch_index(self) -> np.ndarray:
        return np.array([s.signal_patch_index for s in self.samples], dtype=np.int64)


def generate_dataset(spec: SignalSpec, n: int, rng: np.random.Generator) -> Dataset:
    """Draw n samples: Rademacher labels, uniform patch order, projected noise.

    Draw order (labels, patch slots, noise block) is fixed; identical
    (spec, n, seed) inputs give bit-identical datasets.
    """
    labels, slots = _draw_labels_and_slots(n, rng)
    seed_record = int(rng.bit_generator.seed_seq.entropy or 0)
    points = np.empty((n + 1, spec.d))
    noise = _project_noise(spec, rng.standard_normal(out=points[:n]))
    points[n] = spec.mu
    samples = [
        Sample(label=int(labels[i]), signal_patch_index=int(slots[i]),
               noise_vector=noise[i], mu=spec.mu)
        for i in range(n)
    ]
    return Dataset(samples=samples, spec=spec, seed_record=seed_record, points=points)


class StreamedTestSet:
    """``generate_dataset(spec, n, rng)``'s points, the noise drawn for one pass in row chunks.

    ``standard_normal`` fills sequentially, so the chunks hold the same
    values and leave ``rng`` in the same state. Slots are drawn, then dropped.
    """

    CHUNK_VALUES = 2**19  # float64 values per chunk, 4 MiB; max(1, CHUNK_VALUES // d) rows

    def __init__(self, spec: SignalSpec, n: int, rng: np.random.Generator):
        self.labels = _draw_labels_and_slots(n, rng)[0].astype(np.float64)
        rows = max(1, self.CHUNK_VALUES // spec.d)
        self._chunks = (_project_noise(spec, rng.standard_normal((min(rows, n - a), spec.d)))
                        for a in range(0, n, rows))  # lazy: draws on iteration

    def noise_chunks(self):
        """The projected noise rows as (k, d) blocks in draw order; a second call raises."""
        chunks, self._chunks = self._chunks, None
        if chunks is None:
            raise RuntimeError("a streamed test set can be read only once")
        return chunks


# --- JSON serialization (run reproducibility) -------------------------------
# Layout: {"format": "lngd-dataset-v1", "spec": {...}, "seed_record": int,
#          "samples": [{"label", "signal_patch_index", "noise_vector"}]}

_DATASET_FORMAT = "lngd-dataset-v1"


def dataset_to_json(ds: Dataset) -> str:
    payload = {
        "format": _DATASET_FORMAT,
        "spec": {"mu": ds.spec.mu.tolist(), "sigma_p": ds.spec.sigma_p, "d": ds.spec.d},
        "seed_record": ds.seed_record,
        "samples": [
            {
                "label": s.label,
                "signal_patch_index": s.signal_patch_index,
                "noise_vector": s.noise_vector.tolist(),
            }
            for s in ds.samples
        ],
    }
    return json.dumps(payload)


def dataset_from_json(text: str) -> Dataset:
    payload = json.loads(text)
    if payload.get("format") != _DATASET_FORMAT:
        raise ValueError(f"unsupported dataset format: {payload.get('format')!r}")
    spec = SignalSpec(
        mu=np.array(payload["spec"]["mu"], dtype=np.float64),
        sigma_p=float(payload["spec"]["sigma_p"]),
        d=int(payload["spec"]["d"]),
    )
    samples = [
        Sample(
            label=int(s["label"]),
            signal_patch_index=int(s["signal_patch_index"]),
            noise_vector=np.array(s["noise_vector"], dtype=np.float64),
            mu=spec.mu,
        )
        for s in payload["samples"]
    ]
    return Dataset(samples=samples, spec=spec, seed_record=int(payload["seed_record"]))
