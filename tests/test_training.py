import numpy as np
import pytest

from lngd.data import generate_dataset
from lngd.decomposition import CoefficientStack
from lngd.experiments import axis_aligned_spec, run_dynamics
from lngd.network import (
    RunAborted,
    full_batch_gradient,
    init_network,
    reconstruct_weights,
    train_step,
)
from lngd.recorder import Recorder
from lngd.training import Arm, LabelNoiseSpec, log_count, run_training, sample_multipliers

from helpers import keep_points, paired_run, point_geometry, train_on_points


class TestLabelNoiseSpec:
    # Each kind: a noise object, its label (it names trace files and noise-compare rows), and
    # parameters the kind refuses, with the refusal.
    LAWS = {
        "none": ({"kind": "none"}, "none", None, None),
        "flip": ({"kind": "flip", "p": 0.1}, "flip(p=0.1)", {"p": 1.5},
                 r"^flip probability must be in \[0, 1\], got 1.5$"),
        "gaussian": ({"kind": "gaussian", "mean": 1.0, "std": 0.5}, "gaussian(1,0.5)",
                     {"std": -0.5}, "^gaussian std must be >= 0, got -0.5$"),
        "uniform": ({"kind": "uniform", "lo": -1.0, "hi": 2.0}, "uniform(-1,2)",
                    {"lo": 2.0, "hi": 2.0}, r"^uniform bounds need lo < hi, got \[2.0, 2.0\]$"),
    }

    @pytest.mark.parametrize("kind", LAWS)
    def test_each_law(self, kind):
        obj, label, bad, refusal = self.LAWS[kind]
        spec = getattr(LabelNoiseSpec, kind)(*list(obj.values())[1:])
        assert spec.describe() == label
        assert spec.to_dict() == obj and LabelNoiseSpec.from_dict(obj) == spec
        assert spec.draws == (kind != "none")
        if bad:
            with pytest.raises(ValueError, match=refusal):
                LabelNoiseSpec.from_dict({**obj, **bad})
        for name in list(obj)[1:]:
            for value in (np.inf, -np.inf, np.nan):
                with pytest.raises(ValueError, match=kind):
                    LabelNoiseSpec(**{**obj, name: value})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown noise kind 'laplace'; allowed: "):
            LabelNoiseSpec(kind="laplace")


class TestSampleMultipliers:
    def test_none_is_all_ones(self):
        eps = sample_multipliers(LabelNoiseSpec.none(), 5, None)
        assert np.array_equal(eps, np.ones(5))

    def test_flip_zero_and_one(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(sample_multipliers(LabelNoiseSpec.flip(0.0), 7, rng), np.ones(7))
        assert np.array_equal(sample_multipliers(LabelNoiseSpec.flip(1.0), 7, rng), -np.ones(7))

    def test_flip_count_hoeffding_band(self):
        # |S_- - pn| <= sqrt((n/2) log(4/delta)) in >= 95% of trials at
        # p = 0.1, n = 200, delta = 0.05.
        noise = LabelNoiseSpec.flip(0.1)
        rng = np.random.default_rng(1)
        tau = np.sqrt(100 * np.log(4 / 0.05))
        passes = 0
        trials = 1000
        for _ in range(trials):
            eps = sample_multipliers(noise, 200, rng)
            passes += abs(np.sum(eps == -1.0) - 20) <= tau
        assert passes / trials >= 0.95

    def test_degenerate_gaussian_is_identity(self):
        eps = sample_multipliers(LabelNoiseSpec.gaussian(1.0, 0.0), 4,
                                 np.random.default_rng(2))
        assert np.array_equal(eps, np.ones(4))

    def test_uniform_range(self):
        eps = sample_multipliers(LabelNoiseSpec.uniform(-1.0, 2.0), 1000,
                                 np.random.default_rng(3))
        assert eps.min() >= -1.0 and eps.max() < 2.0


class TestTrainStep:
    def test_matches_gradient_update(self, small_spec, small_dataset):
        w = init_network(small_spec.d, 3, 0.2, np.random.default_rng(1))
        expected = w - 0.3 * full_batch_gradient(w, 2, small_dataset, np.ones(len(small_dataset)))
        train_step(w, 2, small_dataset, np.ones(len(small_dataset)), 0.3)
        assert np.array_equal(w, expected)

    def test_zero_learning_rate_is_identity(self, small_spec, small_dataset):
        w = init_network(small_spec.d, 3, 0.2, np.random.default_rng(2))
        before = w.copy()
        train_step(w, 2, small_dataset, np.ones(len(small_dataset)), 0.0)
        assert np.array_equal(w, before)

    def test_one_step_reconstruction_at_scale(self):
        # After one step, the engine's weights (w0 + decomposition
        # reconstruction) equal the oracle's post-step weights to 1e-10
        # relative Frobenius error at the reference scale.
        spec = axis_aligned_spec(2.0, 0.5, 2000)
        ds = generate_dataset(spec, 200, np.random.default_rng(5))
        oracle = init_network(spec.d, 20, 0.01, np.random.default_rng(6))
        engine = oracle.copy()
        noise = LabelNoiseSpec.flip(0.1)
        eps = sample_multipliers(noise, 200, np.random.default_rng(7))
        train_step(oracle, 2, ds, eps, 0.5, step=0)
        [arm] = train_on_points(engine, 2, ds, ds,
                                [Arm("lngd", noise, np.random.default_rng(7))], eta=0.5, steps=1,
                                log_stride=1)
        rel = np.linalg.norm(arm.weights - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10

    def test_non_finite_abort(self, small_spec, small_dataset):
        w = init_network(small_spec.d, 3, 0.2, np.random.default_rng(3))
        w[0, 0] = np.inf
        with pytest.raises(RunAborted):
            train_step(w, 2, small_dataset, np.ones(len(small_dataset)), 0.1)


class TestRunTraining:
    def small_run(self, spec, ds, *, steps=30, noise=None, seed=4, eta=0.05):
        noise = noise or LabelNoiseSpec.none()
        w0 = init_network(spec.d, 3, 0.2, np.random.default_rng(9))
        [arm] = train_on_points(w0, 2, ds, ds, [Arm("arm", noise, np.random.default_rng(seed))],
                                eta=eta, steps=steps, log_stride=10)
        return arm.weights, arm.trace, arm.state

    def test_zero_steps_logs_initial_row_only(self, small_spec, small_dataset):
        weights, trace, state = self.small_run(small_spec, small_dataset, steps=0)
        assert [r.step for r in trace.rows] == [0]
        fresh = init_network(small_spec.d, 3, 0.2, np.random.default_rng(9))
        assert np.array_equal(weights, fresh)
        assert state.step == 0

    def test_logged_steps_include_final(self, small_spec, small_dataset):
        _, trace, _ = self.small_run(small_spec, small_dataset, steps=25)
        assert [r.step for r in trace.rows] == [0, 10, 20, 25]

    def test_noisy_equals_clean_without_noise(self, small_spec, small_dataset):
        _, trace, _ = self.small_run(small_spec, small_dataset, steps=20)
        for row in trace.rows:
            assert row.noisy_train_loss == row.clean_train_loss
            assert row.flip_count == 0

    def test_rho_bar_monotone_under_standard_gd(self, small_spec, small_dataset):
        _, trace, _ = self.small_run(small_spec, small_dataset, steps=50)
        assert trace.rho_bar_monotone_violations == 0

    def test_abort_records_step_and_reason(self, small_spec, small_dataset):
        # q = 4 with an absurd step size overflows the forward pass quickly.
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(9))
        [arm] = train_on_points(w0, 4, small_dataset, small_dataset,
                                [Arm("gd", LabelNoiseSpec.none())], eta=1e80, steps=50,
                                log_stride=10)
        assert arm.aborted
        assert arm.trace.aborted_at is not None
        assert arm.state.step == arm.trace.aborted_at
        assert arm.abort_reason in ("non-finite network outputs",
                                    "non-finite coefficient update")

    def test_non_finite_update_aborts_before_it_is_applied(self, small_spec, small_dataset):
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(9))
        [arm] = train_on_points(w0.copy(), 2, small_dataset, small_dataset,
                                [Arm("gd", LabelNoiseSpec.none())], eta=np.inf, steps=5,
                                log_stride=1)
        assert arm.trace.aborted_at == 0
        assert arm.abort_reason == "non-finite coefficient update"
        assert not arm.state.gamma.any()
        assert np.array_equal(arm.weights, w0)

    def test_training_reads_no_point(self, small_spec):
        # The geometry carries all that the stack, a step and a test evaluation read: with
        # every training and test point overwritten by NaN once it and both its products
        # are built, the stack, the recorder and the trainer give the rows of a run on the
        # points, bit for bit.
        ds = generate_dataset(small_spec, 8, np.random.default_rng(7))
        test = generate_dataset(small_spec, 30, np.random.default_rng(8))
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(9))

        def arms():
            return [Arm("gd", LabelNoiseSpec.none()),
                    Arm("lngd", LabelNoiseSpec.flip(0.2), np.random.default_rng(4))]

        want = train_on_points(w0, 2, ds, test, arms(), eta=0.05, steps=50, log_stride=10)
        geometry = point_geometry(w0, ds, test.labels, test.noise_matrix)
        ds.points[...] = np.nan
        test.points[...] = np.nan
        stack = CoefficientStack(geometry, 2)
        recorder = Recorder(geometry, stack, 2, log_count(50, 10))
        got = run_training(geometry, stack, 2, ds, recorder, arms(), eta=0.05, steps=50,
                           log_stride=10)
        for ours, theirs in zip(got, want):
            assert np.isfinite(ours.trace.rows.test_error_01).all()
            assert np.array_equal(ours.trace.rows, theirs.trace.rows)

    def test_weights_built_on_first_read(self, small_spec, small_dataset, monkeypatch):
        import lngd.network as network

        calls = []
        monkeypatch.setattr(network, "reconstruct_weights",
                            lambda *args: calls.append(args) or reconstruct_weights(*args))
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(9))
        [arm] = train_on_points(w0, 2, small_dataset, small_dataset,
                                [Arm("gd", LabelNoiseSpec.none())], eta=0.05, steps=20)
        assert not calls
        assert np.array_equal(arm.weights,
                              np.hstack(reconstruct_weights(arm.state, small_dataset)))
        assert arm.weights is arm.weights and len(calls) == 1
        assert arm.q == 2

    def test_standard_arm_draws_no_multipliers(self, small_spec, small_dataset, monkeypatch):
        # A "none" arm's multipliers stay the ones they start as; only the noisy arm draws.
        import lngd.training as training

        kinds = []
        real = training.sample_multipliers
        monkeypatch.setattr(training, "sample_multipliers",
                            lambda noise, n, rng: kinds.append(noise.kind) or real(noise, n, rng))
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(9))
        arms = [Arm("gd", LabelNoiseSpec.none()),
                Arm("lngd", LabelNoiseSpec.flip(0.2), np.random.default_rng(4))]
        gd, _ = train_on_points(w0, 2, small_dataset, small_dataset, arms, eta=0.05, steps=20)
        assert kinds == ["flip"] * 21
        assert not gd.trace.rows.flip_count.any()

    def test_flip_count_counts_negative_multipliers(self, small_spec, small_dataset):
        # Gaussian multipliers are never exactly -1; flip_count counts eps_i < 0.
        noise = LabelNoiseSpec.gaussian(0.0, 1.0)
        _, trace, _ = self.small_run(small_spec, small_dataset, steps=20, noise=noise)
        rng = np.random.default_rng(4)
        expected = [int(np.sum(sample_multipliers(noise, len(small_dataset), rng) < 0))
                    for _ in range(21)]
        assert [r.flip_count for r in trace.rows] == [expected[r.step] for r in trace.rows]
        assert sum(r.flip_count for r in trace.rows) > 0

    def test_noise_rng_required_for_stochastic_noise(self, small_spec, small_dataset):
        w0 = init_network(small_spec.d, 3, 0.2, np.random.default_rng(9))
        with pytest.raises(ValueError):
            train_on_points(w0, 2, small_dataset, small_dataset,
                            [Arm("lngd", LabelNoiseSpec.flip(0.5))], eta=0.1, steps=5,
                            log_stride=5)


class TestTrainRun:
    """Seed-derived runs through ``run_dynamics``, the entry point that draws data and init;
    each keeps its points for the weights and the dataset checks."""

    def run(self, spec, steps=20, noise=None, seed=11):
        run = paired_run(spec, n=10, m=3, q=2, sigma_0=0.1, eta=0.1, steps=steps,
                         noise=noise or LabelNoiseSpec.flip(0.2), seed=seed, log_stride=10,
                         n_test=50)
        return run_dynamics(run, observers=keep_points(run))

    def test_deterministic_traces(self, small_spec):
        a, b = self.run(small_spec), self.run(small_spec)
        for arm_a, arm_b in ((a.standard, b.standard), (a.label_noise, b.label_noise)):
            assert np.array_equal(arm_a.weights, arm_b.weights)
            assert np.array_equal(arm_a.trace.rows, arm_b.trace.rows)

    def test_changing_steps_preserves_dataset_stream(self, small_spec):
        # The data stream is independent of T: more steps, same dataset.
        short = self.run(small_spec, steps=10)
        long = self.run(small_spec, steps=30)
        assert np.array_equal(short.standard.dataset.labels, long.standard.dataset.labels)
        assert np.array_equal(short.standard.dataset.points, long.standard.dataset.points)
        for arm_short, arm_long in ((short.standard, long.standard),
                                    (short.label_noise, long.label_noise)):
            assert arm_short.trace.rows[0] == arm_long.trace.rows[0]
