import hashlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lngd
from lngd.data import Dataset, SignalSpec, generate_dataset
from lngd.decomposition import logistic_loss, loss_derivative
from lngd.experiments import axis_aligned_spec
from lngd.network import (
    OracleReplay,
    RunAborted,
    activation,
    activation_derivative,
    full_batch_gradient,
    init_network,
    reconstruct_weights,
    zero_one_error,
)
from lngd.network import _batch_outputs
from lngd.streams import stream
from lngd.training import NOISE_LAWS, Arm, LabelNoiseSpec

from helpers import train_on_points

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def fd_gradient(w, q, dataset, multipliers, h=1e-5):
    """Central finite differences of the multiplier-weighted batch loss."""

    def loss():
        f = _batch_outputs(w, q, dataset)
        return float(np.mean(logistic_loss(multipliers * dataset.labels * f)))

    out = np.zeros_like(w)
    for i in range(w.shape[0]):
        for c in range(w.shape[1]):
            orig = w[i, c]
            w[i, c] = orig + h
            lp = loss()
            w[i, c] = orig - h
            lm = loss()
            w[i, c] = orig
            out[i, c] = (lp - lm) / (2 * h)
    return out


class TestActivation:
    def test_negative_input(self):
        assert activation(-1.0, 2) == 0.0
        assert activation_derivative(-1.0, 2) == 0.0

    def test_squared_relu(self):
        assert activation(1.5, 2) == 2.25
        assert activation_derivative(1.5, 2) == 3.0

    def test_cubic(self):
        assert activation(2.0, 3) == 8.0
        assert activation_derivative(2.0, 3) == 12.0


class TestLogisticLoss:
    def test_at_zero(self):
        assert logistic_loss(0.0) == pytest.approx(math.log(2), rel=1e-12)
        assert loss_derivative(0.0) == pytest.approx(-0.5, rel=1e-12)

    def test_extreme_margin_no_overflow(self):
        assert logistic_loss(500.0) == pytest.approx(math.exp(-500), rel=1e-9)
        assert logistic_loss(-500.0) == pytest.approx(500.0, rel=1e-12)
        assert np.isfinite(loss_derivative(np.array([-1e3, 1e3]))).all()

    @given(finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_derivative_identity(self, z):
        # l'(z) + l'(-z) = -1 for all z
        assert loss_derivative(z) + loss_derivative(-z) == pytest.approx(-1.0, abs=1e-12)

    @given(finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_formula_in_safe_range(self, z):
        if abs(z) < 30:
            assert logistic_loss(z) == pytest.approx(math.log(1 + math.exp(-z)), rel=1e-12)


class TestInit:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            init_network(4, 2, -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("d, m", [(0, 2), (4, 0), (-1, 2)])
    def test_rejects_empty_shapes(self, d, m):
        with pytest.raises(ValueError, match="d and m must be >= 1"):
            init_network(d, m, 0.1, np.random.default_rng(0))

    def test_zero_sigma_gives_zero_network(self):
        assert not init_network(4, 2, 0.0, np.random.default_rng(0)).any()

    def test_determinism(self):
        a = init_network(6, 3, 0.01, np.random.default_rng(12))
        b = init_network(6, 3, 0.01, np.random.default_rng(12))
        assert np.array_equal(a, b)

    def test_reference_draw_is_pinned(self):
        # The section-5 init: one standard_normal((d, 2m)) draw scaled in place by
        # sigma_0. Every result byte follows from it, so the bytes are pinned.
        w = init_network(2000, 20, 0.01, stream(1, "init"))
        assert w.shape == (2000, 40) and w.dtype == np.float64
        assert w.flags.c_contiguous and w.flags.writeable
        assert hashlib.sha256(w.tobytes()).hexdigest() == (
            "a112bb289b97b847a9216412ed612b987893b2f26d554151a128cab3caf31b15")

    def test_init_mu_overlap_concentration(self):
        # max_r |<w_r, mu>| <= sqrt(2 log(8m / delta)) sigma_0 |mu| in >= 99%
        # of trials at delta = 0.01, d = 2000.
        spec = axis_aligned_spec(2.0, 0.5, 2000)
        m, sigma_0, delta = 20, 0.01, 0.01
        bound = math.sqrt(2 * math.log(8 * m / delta)) * sigma_0 * spec.mu_norm
        rng = np.random.default_rng(23)
        passes = 0
        trials = 1000
        for _ in range(trials):
            w = init_network(spec.d, m, sigma_0, rng)
            passes += np.max(np.abs(spec.mu @ w)) <= bound
        assert passes / trials >= 0.99


def hand_dataset(spec2d):
    """One point with y = +1: signal patch y mu = (2, 0), noise patch (0, 3)."""
    return Dataset(labels=np.array([1.0]), points=np.array([[0.0, 3.0], [2.0, 0.0]]),
                   spec=spec2d)


def hand_weights():
    """m = 1 (q = 2 in the tests): w_plus = (0.5, 0.5), w_minus = (0.1, 0)."""
    return np.array([[0.5, 0.1], [0.5, 0.0]])


def step0_clean_loss(w, ds):
    """Clean training loss at q = 2 of the step-0 trace row (the state is the init ``w``)."""
    [arm] = train_on_points(w, 2, ds, ds, [Arm("gd", LabelNoiseSpec.none())], eta=0.1,
                            steps=0)
    return arm.trace.rows[0].clean_train_loss


class TestForward:
    def test_zero_network(self, spec2d):
        assert _batch_outputs(np.zeros((2, 2)), 2, hand_dataset(spec2d))[0] == 0.0

    def test_hand_example(self, spec2d):
        # F_plus = sigma(1) + sigma(1.5) = 3.25, F_minus = sigma(0.2) = 0.04
        f = _batch_outputs(hand_weights(), 2, hand_dataset(spec2d))
        assert f.shape == (1,)
        assert f[0] == pytest.approx(3.21, rel=1e-12)

    def test_dimension_mismatch_raises(self, spec2d):
        with pytest.raises(ValueError):
            _batch_outputs(np.zeros((3, 2)), 2, hand_dataset(spec2d))

    def test_perfect_signal_network(self, spec2d):
        # w_plus = mu/|mu|, w_minus = -mu/|mu| classifies every point by sign.
        unit = (spec2d.mu / spec2d.mu_norm)[:, None]
        w = np.hstack([np.tile(unit, 3), np.tile(-unit, 3)])
        ds = generate_dataset(spec2d, 50, np.random.default_rng(4))
        assert np.array_equal(np.sign(_batch_outputs(w, 2, ds)), ds.labels)
        assert zero_one_error(w, 2, ds) == 0.0

    @given(st.floats(min_value=0.0, max_value=10.0), st.integers(min_value=2, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, c, q):
        rng = np.random.default_rng(15)
        spec = SignalSpec(mu=rng.standard_normal(5), sigma_p=1.0, d=5)
        ds = generate_dataset(spec, 4, rng)
        w = init_network(5, 3, 0.4, rng)
        f = _batch_outputs(w, q, ds)
        assert _batch_outputs(c * w, q, ds) == pytest.approx(c**q * f, rel=1e-9, abs=1e-12)


class TestBatchLoss:
    def test_zero_network_gives_log2(self, small_dataset):
        w = np.zeros((small_dataset.spec.d, 4))
        assert step0_clean_loss(w, small_dataset) == pytest.approx(math.log(2), rel=1e-12)

    def test_empty_dataset_rejected(self, spec2d):
        ds = generate_dataset(spec2d, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            zero_one_error(np.zeros((2, 2)), 2, ds)

    def test_single_sample_composed_value(self, spec2d):
        # forward hand example with y = +1: loss = log(1 + exp(-3.21))
        expected = math.log(1 + math.exp(-3.21))
        assert step0_clean_loss(hand_weights(), hand_dataset(spec2d)) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(0.0395, abs=1e-4)

    def test_order_invariance(self, small_spec):
        ds = generate_dataset(small_spec, 6, np.random.default_rng(3))
        w = init_network(small_spec.d, 3, 0.2, np.random.default_rng(4))
        shuffled = Dataset(labels=ds.labels[::-1].copy(),
                           points=np.vstack([ds.noise_matrix[::-1], small_spec.mu]),
                           spec=ds.spec)
        assert step0_clean_loss(w, ds) == pytest.approx(step0_clean_loss(w, shuffled),
                                                        rel=1e-12)


class TestZeroOneError:
    def test_zero_network_is_maximally_wrong(self, small_dataset):
        assert zero_one_error(np.zeros((small_dataset.spec.d, 4)), 2, small_dataset) == 1.0

    def test_memorizing_network_is_chance_on_fresh_noise(self):
        # Filters aligned with training noise respond at chance to a fresh
        # test set drawn from the same distribution.
        spec = axis_aligned_spec(2.0, 0.5, 2000)
        train = generate_dataset(spec, 20, np.random.default_rng(31))
        cols = []
        for j in (1, -1):
            w = (train.noise_matrix * train.labels[:, None] * j).T
            cols.append(w / np.linalg.norm(w, axis=0, keepdims=True))
        w = np.hstack(cols)
        assert zero_one_error(w, 2, train) <= 0.1  # memorized training noise
        test = generate_dataset(spec, 2000, np.random.default_rng(32))
        assert zero_one_error(w, 2, test) == pytest.approx(0.5, abs=0.05)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(20):
            q = [2, 3, 4][trial % 3]
            spec = SignalSpec(mu=rng.standard_normal(10), sigma_p=0.7, d=10)
            ds = generate_dataset(spec, 5, rng)
            w = init_network(10, 3, 0.5, rng)
            eps = np.where(rng.random(5) < 0.3, -1.0, 1.0)
            g = full_batch_gradient(w, q, ds, eps)
            num = fd_gradient(w, q, ds, eps)
            worst = max(worst, np.linalg.norm(g - num) / np.linalg.norm(num))
        assert worst <= 1e-6

    def test_all_ones_multipliers_is_standard_gradient(self, small_dataset):
        w = init_network(small_dataset.spec.d, 3, 0.2, np.random.default_rng(1))
        ones = np.ones(len(small_dataset))
        g = full_batch_gradient(w, 2, small_dataset, ones)
        num = fd_gradient(w, 2, small_dataset, ones)
        assert np.linalg.norm(g - num) / np.linalg.norm(num) <= 1e-6

    def test_zero_network_zero_gradient(self, small_dataset):
        w = np.zeros((small_dataset.spec.d, 6))
        g = full_batch_gradient(w, 2, small_dataset, np.ones(len(small_dataset)))
        assert not g.any()

    def test_multiplier_length_checked(self, small_dataset):
        w = init_network(small_dataset.spec.d, 3, 0.2, np.random.default_rng(1))
        with pytest.raises(ValueError):
            full_batch_gradient(w, 2, small_dataset, np.ones(3))


def test_engine_imports_no_weight_space_code():
    # network is the one module that holds weights; the engine must load
    # without it.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(lngd.__file__).parents[1])}
    code = ("import sys, lngd.data, lngd.decomposition, lngd.training, lngd.recorder; "
            "print('lngd.network' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


GATE_CASES = 300
GATE_BOUND = 1e-8  # relative weight gap; decompose's bound, fixed before the gate first ran
# Past this |w| an arm is in the finite-time blow-up of q >= 3: its outputs F+ - F- are
# differences of terms beyond 1e30 whose sign rounding sets, so two correct computations part.
BLOWUP = 1e8


def random_noise(rng):
    """A label-noise law of ``NOISE_LAWS``, drawn with random parameters."""
    kind = rng.choice(sorted(NOISE_LAWS))
    if kind == "flip":
        return LabelNoiseSpec.flip(rng.uniform(0.0, 0.5))
    if kind == "gaussian":
        return LabelNoiseSpec.gaussian(rng.uniform(-0.5, 1.5), rng.uniform(0.0, 1.5))
    if kind == "uniform":
        lo = rng.uniform(-1.0, 1.0)
        return LabelNoiseSpec.uniform(lo, lo + rng.uniform(0.1, 2.0))
    return LabelNoiseSpec.none()


class Replay:
    """An arm's weight-space replay from ``w0``, used as its observer: ``gaps`` holds the
    relative weight gap at each state it is shown. It stops at the step where the oracle
    aborts (``aborted_at``) or its weights first pass BLOWUP (``blown_up``)."""

    def __init__(self, q, eta, noise, seed, dataset, w0):
        self.oracle = OracleReplay(q, eta, noise, np.random.default_rng(seed))
        self.oracle.weights = w0.copy()
        self.dataset, self.gaps = dataset, []
        self.aborted_at = self.blown_up = None

    def __call__(self, step, state, dataset):
        self.show(state)

    def run_to(self, step) -> bool:
        """Step the oracle to ``step`` one step at a time; whether it got there."""
        while self.oracle.step < step and self.aborted_at is None and self.blown_up is None:
            try:
                w = self.oracle.advance(self.oracle.step + 1, None, self.dataset)
            except RunAborted as exc:
                self.aborted_at = exc.step
            else:
                if np.abs(w).max() > BLOWUP:
                    self.blown_up = self.oracle.step
        return self.aborted_at is None and self.blown_up is None

    def show(self, state):
        if self.run_to(state.step):
            w = self.oracle.weights
            engine = np.hstack(reconstruct_weights(state, self.dataset))
            self.gaps.append(np.linalg.norm(engine - w) / np.linalg.norm(w))

    def finish(self, steps):
        """Run to ``steps`` and evaluate f there, as the engine does for its last row;
        return the abort step."""
        if self.run_to(steps):
            if not np.isfinite(_batch_outputs(self.oracle.weights, self.oracle.q,
                                              self.dataset)).all():
                self.aborted_at = steps
        return self.aborted_at


def test_engine_matches_the_oracle_on_random_tiny_configs():
    # Random tiny runs of 1-4 arms, each with a random law, every arm replayed by the oracle
    # at each logged step and at its last state, and the abort steps compared. The engine
    # evaluates f at t = steps and train_step does not, so the replay checks those outputs
    # too. An arm whose replay blows up is left out from there on.
    rng = np.random.default_rng(20261021)
    worst, arms_run, aborts, blown_up = 0.0, 0, 0, 0
    for case in range(GATE_CASES):
        d, n, m, q = (rng.integers(lo, hi) for lo, hi in ((8, 97), (2, 13), (1, 5), (2, 5)))
        steps, eta = int(rng.integers(1, 61)), float(np.exp(rng.uniform(np.log(0.01), np.log(2))))
        mu = rng.standard_normal(d)
        spec = SignalSpec(mu=mu * (rng.uniform(0.5, 3.0) / np.linalg.norm(mu)),
                          sigma_p=rng.uniform(0.2, 1.0), d=d)
        ds, test = generate_dataset(spec, n, rng), generate_dataset(spec, 5, rng)
        w0 = init_network(d, m, float(np.exp(rng.uniform(np.log(0.01), np.log(0.1)))), rng)
        laws = [random_noise(rng) for _ in range(rng.integers(1, 5))]
        seeds = rng.integers(2**32, size=len(laws))
        replays = [Replay(q, eta, noise, s, ds, w0) for noise, s in zip(laws, seeds)]
        arms = [Arm(f"a{a}", noise, np.random.default_rng(s), replay)
                for a, (noise, s, replay) in enumerate(zip(laws, seeds, replays))]
        trained = train_on_points(w0, q, ds, test, arms, eta=eta, steps=steps,
                                  log_stride=int(rng.integers(1, steps + 1)))
        for arm, replay in zip(trained, replays):
            replay.show(arm.state)
            oracle_abort = replay.finish(steps)
            if replay.blown_up is None:
                assert arm.trace.aborted_at == oracle_abort, (case, arm.label)
            arms_run += 1
            aborts += arm.aborted
            blown_up += replay.blown_up is not None
            worst = max(worst, *replay.gaps)
    print(f"\nrandom engine-oracle gate: {GATE_CASES} cases, {arms_run} arms, {aborts} aborted, "
          f"{blown_up} past |w| = {BLOWUP:g}; worst relative weight gap {worst!r}")
    assert worst <= GATE_BOUND, f"worst relative weight gap {worst:.3e}"
    assert blown_up <= 0.1 * arms_run
