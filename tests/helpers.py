"""Test builders: the dynamics ``PairedRun`` of the old ``run_dynamics`` keywords, training on
explicit points from a (d, 2m) init array (through the ``RunGeometry`` constructor that
``experiments.run_paired`` uses, with both products built and the points kept), observers
that keep a run's points, and the sha256 of a file's bytes."""

import hashlib
from pathlib import Path

from lngd.config import parse_config
from lngd.decomposition import CoefficientStack, RunGeometry
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


def point_geometry(w0, dataset, test_labels, test_points):
    """The ``RunGeometry`` of the init ``w0`` on ``dataset``, tested on the (n_test, d)
    ``test_points``, with both its products built and the points kept."""
    geometry = RunGeometry(dataset, w0, test_labels, [test_points])
    geometry.build_train(keep_points=True)
    geometry.build_test(keep_points=True)
    return geometry


def train_on_points(w0, q, dataset, test, arms, *, steps, log_stride=10, **kwargs):
    """``run_training`` at exponent ``q`` from the (d, 2m) init ``w0`` on ``dataset``,
    evaluated on ``test``'s points by an in-process recorder."""
    geometry = point_geometry(w0, dataset, test.labels, test.noise_matrix)
    stack = CoefficientStack(geometry, len(arms))
    recorder = Recorder(geometry, stack, q, log_count(steps, log_stride))
    return run_training(geometry, stack, q, dataset, recorder, arms, steps=steps,
                        log_stride=log_stride, **kwargs)
