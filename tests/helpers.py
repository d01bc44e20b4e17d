"""Training on explicit points: the products ``run_training`` reads, built as in ``_paired_runs``."""

from lngd.decomposition import SpanProducts
from lngd.training import run_training


def point_products(w0, dataset, test):
    """(train, test) span products of the init ``w0`` on ``dataset`` and ``test``'s noise rows."""
    return (SpanProducts.of([dataset.points], len(dataset) + 1, dataset, w0),
            SpanProducts.of([test.noise_matrix], len(test), dataset, w0))


def train_on_points(net, dataset, test, arms, **kwargs):
    """``run_training`` from ``net``'s weights on ``dataset``, evaluated on ``test``'s points."""
    return run_training(net.weights, net.q, dataset, point_products(net.weights, dataset, test),
                        test.labels, arms, **kwargs)
