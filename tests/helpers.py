"""Test builders: the dynamics ``PairedRun`` of the old ``run_dynamics`` keywords, training on
explicit points from a (d, 2m) init array (the stack, the products and the recorder
``run_training`` reads, built as in ``experiments.run_paired``), observers that keep a run's
points, and the sha256 of a file's bytes."""

import hashlib
from pathlib import Path

from lngd.config import parse_config
from lngd.decomposition import CoefficientStack, SpanProducts
from lngd.experiments import PairedRun
from lngd.recorder import Recorder
from lngd.training import LabelNoiseSpec, log_count, run_training


def paired_run(spec, *, n, m, q, sigma_0, eta, steps, noise, seed, log_stride=10, n_test=2000,
               coeff_stride=100):
    """Standard GD against ``noise`` on the axis-aligned ``spec``, as ``plan("dynamics",
    config)`` describes it: the config of these keys, with |mu| read as ``spec.mu[0]``."""
    assert spec.mu.shape == (spec.d,) and not spec.mu[1:].any(), "spec is not axis-aligned"
    config = parse_config(data=dict(
        d=spec.d, n=n, mu_scale=float(spec.mu[0]), sigma_p=spec.sigma_p, p=noise.p, eta=eta,
        steps=steps, seed=seed, m=m, q=q, sigma_0=sigma_0, log_stride=log_stride,
        n_test=n_test, coeff_stride=coeff_stride, noise=noise.to_dict()))
    return PairedRun(**vars(config),
                     arms=(("standard", LabelNoiseSpec.none()), ("label_noise", noise)))


def keep_points(run):
    """An observer per arm of ``run`` that does nothing: a run given observers keeps its
    training points, so that ``arm.weights`` can rebuild the weights."""
    return {label: lambda *_: None for label, _ in run.arms}


def sha256_of(path) -> str:
    """Hex sha256 of the bytes of the file at ``path``, read here, apart from the writer."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def train_products(w0, dataset):
    """Training span products of the init ``w0`` on ``dataset``."""
    return SpanProducts.of([dataset.points], len(dataset) + 1, dataset, w0)


def point_recorder(stack, q, dataset, test, steps, log_stride=10):
    """An in-process recorder of ``stack``'s arms, evaluating on ``test``'s points."""
    return Recorder(test.labels, [test.noise_matrix], dataset, stack, q,
                    log_count(steps, log_stride))


def train_on_points(w0, q, dataset, test, arms, *, steps, log_stride=10, **kwargs):
    """``run_training`` at exponent ``q`` from the (d, 2m) init ``w0`` on ``dataset``,
    evaluated on ``test``'s points."""
    stack = CoefficientStack(dataset, w0, len(arms))
    recorder = point_recorder(stack, q, dataset, test, steps, log_stride)
    return run_training(stack, q, dataset, train_products(w0, dataset), recorder, arms,
                        steps=steps, log_stride=log_stride, **kwargs)
