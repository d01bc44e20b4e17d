"""Signal/noise coefficient decomposition: the state the trainer advances.

Every gradient update moves each filter within span{mu, xi_1..xi_n}, so the
weights are exactly

    w_{j,r} = w0_{j,r} + j gamma_{j,r} mu/|mu|^2 + sum_i rho_{j,r,i} xi_i/|xi_i|^2

with a signal coefficient gamma_{j,r} per filter and noise coefficients
rho_{j,r,i} per (filter, sample) pair. Training advances (gamma, rho) with
the recurrence in ``update_coefficients``; ``SpanProducts`` turns them into
pre-activations from inner products computed once, so a step does no work
that scales with d. ``RunGeometry`` is the engine's only reader of points:
it holds what a run's points give (labels, |xi_i|^2, |mu|^2, the class
masks, the init and the test labels) and builds the run's two
``SpanProducts``. No weights are rebuilt here: ``lngd.network``, the one
module that owns weights, rebuilds them and checks them against projections.

Array convention: axis 0 indexes the branch, 0 -> j=+1, 1 -> j=-1. rho is
stored once, (2, m, n); its same-class entries (y_i = j) are the paper's
rho_bar and its opposite-class entries (y_i = -j, nonpositive) rho_under;
``RunGeometry.same_class``, the one (2, n) mask of y_i == j, tells them
apart. Arms that share a geometry are advanced together by
``CoefficientStack``, whose per-arm states are views into its arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset

__all__ = [
    "CoefficientState",
    "CoefficientStack",
    "RunGeometry",
    "SpanProducts",
    "update_coefficients",
    "logistic_loss",
    "loss_derivative",
    "sign_error",
    "iota_all",
]

LABEL_SIGN = np.array([1.0, -1.0])  # y of the two signal patches y mu
_BRANCH_SIGN = np.array([[1.0], [-1.0]])  # j per branch row


@dataclass
class CoefficientState:
    """One arm's coefficients gamma (2, m) and rho (2, m, n), plus the w0 snapshot."""

    gamma: np.ndarray
    rho: np.ndarray
    xi_norms_sq: np.ndarray
    w0: np.ndarray  # (d, 2m) initial weights snapshot
    same_class: np.ndarray = field(repr=False)  # the geometry's (2, n) mask of y_i == j
    step: int = 0

    @property
    def m(self) -> int:
        return self.gamma.shape[1]

    @property
    def n(self) -> int:
        return self.rho.shape[2]


class CoefficientStack:
    """The coefficients of A arms that share a run's geometry.

    ``coef`` (n + 1, A, 2m) holds arm a's rho_{j,r,i} at [i, a, (j, r)] and
    its j gamma_{j,r} at row n, so every arm's pre-activations come from one
    product with ``SpanProducts.span``. ``gamma`` (A, 2m) holds the signal
    coefficients themselves; ``states[a]`` is arm a's CoefficientState, whose
    arrays are views into these and whose |xi_i|^2, class mask and ``w0`` are
    the geometry's. ``drho`` (n, A, 2m) receives each step's rho increment.
    """

    def __init__(self, geometry: RunGeometry, arms: int):
        n, two_m = len(geometry.labels), geometry.w0.shape[1]
        m = two_m // 2
        self.gamma = np.zeros((arms, two_m))
        self.coef = np.zeros((n + 1, arms, two_m))
        self.drho = np.zeros((n, arms, two_m))
        self.states = [
            CoefficientState(gamma=self.gamma[a].reshape(2, m),
                             rho=self.coef[:n, a].T.reshape(2, m, n),
                             xi_norms_sq=geometry.xi_norms_sq, w0=geometry.w0,
                             same_class=geometry.same_class)
            for a in range(arms)
        ]

    def rho_offsets(self, same_class: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat offsets into ``coef`` of each arm's rho_bar (y_i == j) and rho_under
        (y_i != j) entries under the (2, n) mask ``same_class``: two (A, n m) arrays, each
        row in (j, r, i) order."""
        n, arms = self.drho.shape[:2]
        # at[a, j, r, i] is the offset of coef[i, a, (j, r)], arm a's rho_{j,r,i}.
        at = np.arange(self.coef.size).reshape(self.coef.shape)[:n].transpose(1, 2, 0)
        at = at.reshape(arms, 2, -1, n)
        same = np.broadcast_to(same_class[:, None, :], at.shape[1:])
        return at[:, same], at[:, ~same]


@dataclass(frozen=True)
class SpanProducts:
    """Inner products of N points x with w0 and with the span basis.

    With these, <w_{j,r}, x> = <w0_{j,r}, x> + sum_i (<x, xi_i>/|xi_i|^2) rho_{j,r,i}
    + (<x, mu>/|mu|^2) j gamma_{j,r}: an exact reparametrisation (the <x, mu>
    cross-terms are kept, not assumed zero) that costs O(N n m) per arm.
    """

    w0: np.ndarray  # (N, 2m) <w0_{j,r}, x>
    span: np.ndarray  # (N, n + 1) <x, xi_i>/|xi_i|^2 in column i, <x, mu>/|mu|^2 in column n

    @classmethod
    def of(cls, chunks, rows: int, dataset: Dataset, w0: np.ndarray) -> "SpanProducts":
        """Products of ``rows`` points, read one (k, d) block of ``chunks`` at a time.

        Each block is done with before the next is drawn, so ``chunks`` may
        reuse one buffer.
        """
        spec = dataset.spec
        out = cls(w0=np.empty((rows, w0.shape[1])), span=np.empty((rows, len(dataset) + 1)))
        start = 0
        for x in chunks:
            part = slice(start, start + len(x))
            gram = np.matmul(x, dataset.noise_matrix.T, out=out.span[part, :-1])
            gram /= dataset.xi_norms_sq
            np.divide(x @ spec.mu, spec.mu_norm_sq, out=out.span[part, -1])
            np.matmul(x, w0, out=out.w0[part])
            start = part.stop
        if start != rows:
            raise ValueError(f"chunks held {start} points, expected {rows}")
        return out

    def preactivations(self, coef: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The (N, A, 2m) inner products <w_{j,r}, x> of every arm at the stacked ``coef``,
        written into ``out``."""
        rows, arms, two_m = coef.shape
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(self.span, coef.reshape(rows, arms * two_m),
                      out=out.reshape(len(self.w0), arms * two_m))
            out += self.w0[:, None, :]
        return out


class RunGeometry:
    """What the engine reads of a paired run's points; the one code that reads them.

    Built from the training ``dataset``, the (d, 2m) init ``w0`` (held, not
    copied) and the streamed test set (see ``data.stream_test_set``), it holds
    the labels, |xi_i|^2, |mu|^2, ``same_class`` (2, n), the one mask of
    y_i == j per branch row, with its forms, ``branch_sign`` (j per column),
    ``w0`` and the test labels. ``build_train`` and ``build_test`` build its
    ``SpanProducts``, ``train`` (xi_1..xi_n, then mu, in one block) and
    ``test`` (from the test chunks, which stream once), each in the process
    that reads them, then drop that process's points unless told to keep them.
    """

    def __init__(self, dataset: Dataset, w0: np.ndarray, test_labels: np.ndarray, test_chunks):
        self.labels = dataset.labels.copy()
        self.xi_norms_sq = dataset.xi_norms_sq.copy()
        self.signed_xi_norms_sq = self.labels * self.xi_norms_sq  # y_i |xi_i|^2
        self.mu_norm_sq = dataset.spec.mu_norm_sq
        self.same_class = np.stack([self.labels == 1.0, self.labels == -1.0])
        self.label_index = self.same_class[1].astype(np.intp)  # 0 for y = +1, 1 for y = -1
        self.label_onehot = self.same_class.astype(float)
        self.branch_sign = np.repeat([1.0, -1.0], w0.shape[1] // 2)  # j per column
        self.w0, self.test_labels = w0, test_labels
        self.train = self.test = None
        self._dataset, self._test_chunks = dataset, test_chunks

    def build_train(self, keep_points: bool) -> None:
        """Build ``train``; then drop the training points unless ``keep_points``."""
        self.train = SpanProducts.of([self._dataset.points], len(self.labels) + 1,
                                     self._dataset, self.w0)
        if not keep_points:
            self._dataset.drop_points()

    def build_test(self, keep_points: bool) -> None:
        """Build ``test``; then drop the training points unless ``keep_points``."""
        self.test = SpanProducts.of(self._test_chunks, len(self.test_labels), self._dataset,
                                    self.w0)
        if not keep_points:
            self._dataset.drop_points()


def logistic_loss(z):
    """log(1 + exp(-z)), overflow-free for any margin."""
    return np.logaddexp(0.0, -np.asarray(z, dtype=np.float64))


def loss_derivative(z):
    """d/dz log(1 + exp(-z)) = -1 / (1 + exp(z)), computed without overflow."""
    return -np.exp(-np.logaddexp(0.0, np.asarray(z, dtype=np.float64)))


def sign_error(f: np.ndarray, labels: np.ndarray):
    """Fraction of points (axis 0 of ``f``) with y != sign(f); sign(0) counts as an error."""
    return np.mean(np.sign(f) != labels, axis=0)


def update_coefficients(geometry: RunGeometry, stack: CoefficientStack, eps: np.ndarray,
                        f: np.ndarray, signal_q1: np.ndarray, noise_q1: np.ndarray,
                        live: np.ndarray, *, eta: float, q: int) -> np.ndarray:
    """Advance every live arm of ``stack`` by one step of GD on (1/n) sum_i loss(eps_i y_i f_i).

    ``eps`` and ``f`` (n, A) are the multipliers and outputs before the step;
    ``signal_q1`` (2, A, 2m) is max(y <w_{j,r}, mu>, 0)^(q-1) for y = +1, -1
    and ``noise_q1`` (n, A, 2m) is max(<w_{j,r}, xi_i>, 0)^(q-1). The rho
    increment is left in ``stack.drho``. Returns the (A,) mask of live arms
    whose increment is non-finite; those arms, like the ones not live, are
    left unchanged.
    """
    n, arms, two_m = stack.drho.shape
    m = two_m // 2
    drho = stack.drho
    with np.errstate(over="ignore", invalid="ignore"):
        coef = loss_derivative(eps * geometry.labels[:, None] * f) * eps  # (n, A)

        # gamma_{j,r} += -(eta |mu|^2 / nm) sum_i coef_i sigma'(<w_{j,r}, y_i mu>);
        # y_i mu takes two values, so the sum runs over the two label groups.
        by_label = geometry.label_onehot @ coef  # (2, A)
        dgamma = ((-eta * geometry.mu_norm_sq * q / (n * m))
                  * (by_label[:, :, None] * signal_q1).sum(axis=0))

        # rho_{j,r,i} += -(eta / nm) j y_i coef_i sigma'(<w_{j,r}, xi_i>) |xi_i|^2
        scale = (-eta * q / (n * m)) * (coef * geometry.signed_xi_norms_sq[:, None])  # (n, A)
        np.multiply(noise_q1.reshape(n, arms, 2, m), scale[:, :, None, None] * _BRANCH_SIGN,
                    out=drho.reshape(n, arms, 2, m))
    bad = np.zeros(arms, dtype=bool)
    if not (np.isfinite(drho).all() and np.isfinite(dgamma).all()):
        bad = live & ~(np.isfinite(drho).all(axis=(0, 2)) & np.isfinite(dgamma).all(axis=1))
    frozen = bad | ~live
    if frozen.any():
        drho[:, frozen] = 0.0
        dgamma[frozen] = 0.0
    stack.coef[:n] += drho
    stack.gamma += dgamma
    np.multiply(stack.gamma, geometry.branch_sign, out=stack.coef[n])
    return bad


def iota_all(state: CoefficientState) -> np.ndarray:
    """(n,) per-sample memorization scalars iota_i = (1/m) sum_r rho_bar_{y_i, r, i}^2."""
    picked = state.rho.transpose(2, 0, 1)[state.same_class.T]  # (n, m): rho_{y_i, r, i}
    return np.mean(picked**2, axis=1)
