import math

import numpy as np
import pytest

from lngd.data import Dataset, SignalSpec
from lngd.decomposition import CoefficientStack, iota_all
from lngd.network import (
    OracleReplay,
    init_network,
    projection_check,
    reconstruct_weights,
)
from lngd.recorder import Recorder
from lngd.training import Arm, LabelNoiseSpec

from helpers import point_geometry, train_on_points


def one_sample_setup():
    """d=2, m=1, n=1, q=2 instance small enough to evaluate by hand."""
    spec = SignalSpec(mu=np.array([2.0, 0.0]), sigma_p=1.0, d=2)
    ds = Dataset(labels=np.array([1.0]), points=np.array([[0.0, 1.0], [2.0, 0.0]]), spec=spec)
    w0 = np.array([[0.3, 0.1], [0.4, -0.2]])
    return spec, ds, w0


def origin_geometry(w0, dataset):
    """The geometry of the init ``w0`` on ``dataset``, tested on 4 points at the origin with
    y = +1."""
    return point_geometry(w0, dataset, np.ones(4), np.zeros((4, dataset.spec.d)))


def one_engine_step(w0, ds, eta):
    """One standard-GD step of the coefficient engine at q = 2; returns the trained arm."""
    [arm] = train_on_points(w0, 2, ds, ds, [Arm("gd", LabelNoiseSpec.none())], eta=eta,
                            steps=1, log_stride=1)
    return arm


class TestSingleStepHandValues:
    def test_gamma_and_rho_match_hand_evaluation(self):
        spec, ds, w0 = one_sample_setup()
        eta = 0.1
        state = one_engine_step(w0, ds, eta).state

        # Hand evaluation: <w_+, mu> = 0.6, <w_+, xi> = 0.4, <w_-, mu> = 0.2,
        # <w_-, xi> = -0.2, so f = (0.36 + 0.16) - 0.04 = 0.48 and
        # l' = -1 / (1 + e^0.48).
        lprime = -1.0 / (1.0 + math.exp(0.48))
        dgamma_plus = -eta * lprime * (2 * 0.6) * 4.0
        dgamma_minus = -eta * lprime * (2 * 0.2) * 4.0
        drho_bar_plus = -eta * lprime * (2 * 0.4) * 1.0
        assert state.gamma[0, 0] == pytest.approx(dgamma_plus, rel=1e-12)
        assert state.gamma[1, 0] == pytest.approx(dgamma_minus, rel=1e-12)
        assert state.rho[0, 0, 0] == pytest.approx(drho_bar_plus, rel=1e-12)
        # sigma'(<w_-, xi>) = sigma'(-0.2) = 0: no opposite-class update
        assert state.rho[1, 0, 0] == 0.0

    def test_zero_network_context_is_a_fixed_point(self):
        spec, ds, _ = one_sample_setup()
        state = one_engine_step(np.zeros((2, 2)), ds, 0.5).state
        assert not state.gamma.any()
        assert not state.rho.any()


class TestReconstruction:
    def test_step_zero_returns_w0(self, small_spec, small_dataset):
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(0))
        state = CoefficientStack(origin_geometry(w0, small_dataset), 1).states[0]
        wp, wm = reconstruct_weights(state, small_dataset)
        assert np.array_equal(np.hstack([wp, wm]), w0)

    def test_after_training_small_scale(self, small_spec, small_dataset):
        # The engine's weights match the weight-space oracle replayed on the
        # same multiplier stream.
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(1))
        noise = LabelNoiseSpec.flip(0.2)
        [arm] = train_on_points(w0, 2, small_dataset, small_dataset,
                                [Arm("lngd", noise, np.random.default_rng(2))], eta=0.05,
                                steps=40, log_stride=10)
        state = arm.state
        oracle = OracleReplay(2, 0.05, noise, np.random.default_rng(2))
        w = oracle.advance(40, state, small_dataset)
        wp, wm = reconstruct_weights(state, small_dataset)
        rel = np.linalg.norm(np.hstack([wp, wm]) - w) / np.linalg.norm(w)
        assert rel <= 1e-12

    def test_zero_learning_rate_returns_w0(self, small_spec, small_dataset):
        # eta carries through the update, so eta -> 0 reconstructs w0.
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(3))
        arm = one_engine_step(w0.copy(), small_dataset, 0.0)
        wp, wm = reconstruct_weights(arm.state, small_dataset)
        assert np.array_equal(np.hstack([wp, wm]), w0)
        assert np.array_equal(arm.weights, w0)


class TestProjectionCheck:
    def test_step_zero_all_zero(self, small_spec, small_dataset):
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(4))
        state = CoefficientStack(origin_geometry(w0, small_dataset), 1).states[0]
        report = projection_check(w0, state, small_dataset)
        assert report["gamma_discrepancy_max"] == 0.0
        assert report["rho_discrepancy_max"] == 0.0

    def test_gamma_projection_is_exact_after_training(self, small_spec, small_dataset):
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(5))
        [arm] = train_on_points(w0, 2, small_dataset, small_dataset,
                                [Arm("gd", LabelNoiseSpec.none())], eta=0.05, steps=30,
                                log_stride=10)
        report = projection_check(arm.weights, arm.state, small_dataset)
        assert report["gamma_discrepancy_max"] <= 1e-9
        assert report["rho_within_bound_frac"] >= 0.99


class TestIota:
    def test_step_zero(self, small_spec, small_dataset):
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(6))
        state = CoefficientStack(origin_geometry(w0, small_dataset), 1).states[0]
        assert not iota_all(state).any()

    def test_constant_coefficients(self, small_spec, small_dataset):
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(6))
        state = CoefficientStack(origin_geometry(w0, small_dataset), 1).states[0]
        c = 0.7
        for i, label in enumerate(small_dataset.labels):
            j_idx = 0 if label == 1 else 1
            state.rho[j_idx, :, i] = c
        assert iota_all(state)[0] == pytest.approx(c**2, rel=1e-12)
        assert iota_all(state) == pytest.approx(np.full(len(small_dataset), c**2))


def logged_ratio(geometry, stack):
    """ratio_rho_over_gamma of the one trace row a recorder logs of ``stack``'s one arm."""
    n = len(geometry.labels)
    recorder = Recorder(geometry, stack, q=2, logs=1)
    recorder.record(0, np.ones(1, dtype=bool), np.zeros((n, 1)), np.ones((n, 1)),
                    np.zeros((2, 1)))
    return recorder.rows[0, 0].ratio_rho_over_gamma


class TestRatioSummary:
    def test_step_zero_returns_zero(self, small_spec, small_dataset):
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(6))
        geometry = origin_geometry(w0, small_dataset)
        assert logged_ratio(geometry, CoefficientStack(geometry, 1)) == 0.0

    def test_max_aggregation(self, small_spec, small_dataset):
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(6))
        geometry = origin_geometry(w0, small_dataset)
        stack = CoefficientStack(geometry, 1)
        state = stack.states[0]
        state.gamma[0, 0] = 0.5
        state.rho[0, 1, 3] = 4.0  # sample 3 has y = +1: a same-class (rho_bar) entry
        state.rho[1, 1, 3] = -9.0  # the opposite-class entry does not count
        assert geometry.same_class[0, 3]
        assert logged_ratio(geometry, stack) == pytest.approx(8.0)
