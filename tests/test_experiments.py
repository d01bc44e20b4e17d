import math

import numpy as np
import pytest

import lngd.experiments as experiments
from lngd.data import generate_dataset
from lngd.experiments import (
    SweepGrid,
    arm_noise_rng,
    axis_aligned_spec,
    run_dynamics,
    run_heatmap,
    run_noise_comparison,
    run_q_sweep,
)
from lngd.network import init_network
from lngd.streams import stream
from lngd.training import Arm, LabelNoiseSpec

from helpers import train_on_points

SMALL = dict(n=10, m=3, q=2, sigma_0=0.1, eta=0.1, steps=20, log_stride=10, n_test=40)


@pytest.fixture(scope="module")
def tiny_spec():
    return axis_aligned_spec(1.5, 0.5, 40)


class TestRunDynamics:
    def test_paired_fairness(self, tiny_spec):
        result = run_dynamics(tiny_spec, noise=LabelNoiseSpec.flip(0.2), seed=5, **SMALL)
        # Both arms saw the same dataset and test set objects.
        assert result.standard.trace.rows[0].clean_train_loss == \
            result.label_noise.trace.rows[0].clean_train_loss
        assert result.standard.trace.rows[0].test_error_01 == \
            result.label_noise.trace.rows[0].test_error_01

    def test_zero_flip_rate_arms_identical(self, tiny_spec):
        result = run_dynamics(tiny_spec, noise=LabelNoiseSpec.flip(0.0), seed=5, **SMALL)
        assert np.array_equal(result.standard.trace.rows, result.label_noise.trace.rows)
        assert np.array_equal(result.standard.net.weights, result.label_noise.net.weights)

    def test_degenerate_gaussian_equals_standard(self, tiny_spec):
        result = run_dynamics(tiny_spec, noise=LabelNoiseSpec.gaussian(1.0, 0.0), seed=5,
                              **SMALL)
        assert np.array_equal(result.standard.trace.rows, result.label_noise.trace.rows)

    def test_rerun_identical(self, tiny_spec):
        a = run_dynamics(tiny_spec, noise=LabelNoiseSpec.flip(0.3), seed=6, **SMALL)
        b = run_dynamics(tiny_spec, noise=LabelNoiseSpec.flip(0.3), seed=6, **SMALL)
        assert np.array_equal(a.label_noise.trace.rows, b.label_noise.trace.rows)

    def test_reports_attached(self, tiny_spec):
        result = run_dynamics(tiny_spec, noise=LabelNoiseSpec.flip(0.2), seed=7, **SMALL)
        assert set(result.reports) >= {"standard", "label_noise", "stage_times"}
        assert "coefficient_envelope" in result.reports["standard"]
        assert "verdicts" in result.reports["label_noise"]

    def test_aborted_arm_leaves_other_intact(self, tiny_spec):
        # q = 4 at an absurd eta aborts; the standard arm must still emerge.
        result = run_dynamics(tiny_spec, n=10, m=3, q=4, sigma_0=0.1, eta=1e80, steps=20,
                              log_stride=10, n_test=40, noise=LabelNoiseSpec.flip(0.2),
                              seed=8)
        assert result.standard.aborted and result.label_noise.aborted
        assert result.reports["standard"]["aborted"]


class TestHeatmap:
    def grid(self, **kw):
        base = dict(snr_values=(0.05, 0.1), n_values=(8,), steps=15, eta=0.3,
                    seeds_per_cell=2, d=40, m=3, q=2, sigma_0=0.1, sigma_p=0.5,
                    p=0.2, n_test=30, master_seed=3)
        base.update(kw)
        return SweepGrid(**base)

    def test_accuracy_shape(self):
        result = run_heatmap(self.grid())
        assert result.errors == {(0, 0): [], (1, 0): []}
        assert result.accuracy.shape == (2, 1, 2, 2)  # snr * n * seeds * algorithms
        assert ((0.0 <= result.accuracy) & (result.accuracy <= 1.0)).all()

    def test_schedule_independence(self):
        seq = run_heatmap(self.grid(), workers=1)
        par = run_heatmap(self.grid(), workers=2)
        assert np.array_equal(seq.accuracy, par.accuracy)

    def test_master_seed_determinism(self):
        a = run_heatmap(self.grid())
        b = run_heatmap(self.grid())
        assert np.array_equal(a.accuracy, b.accuracy)

    def test_single_cell_matches_direct_pairing(self):
        # A 1x1 grid reduces to one paired run on the cell-derived seed.
        from lngd.streams import derive_seed

        grid = self.grid(snr_values=(0.05,), n_values=(8,), seeds_per_cell=1)
        standard, label_noise = run_heatmap(grid).accuracy[0, 0, 0]
        spec = axis_aligned_spec(grid.mu_scale_for(0.05), grid.sigma_p, grid.d)
        direct = run_dynamics(spec, n=8, m=grid.m, q=grid.q, sigma_0=grid.sigma_0,
                              eta=grid.eta, steps=grid.steps,
                              noise=LabelNoiseSpec.flip(grid.p),
                              seed=derive_seed(grid.master_seed, 0, 0, 0),
                              log_stride=grid.steps, n_test=grid.n_test)
        assert standard == pytest.approx(direct.standard.final_test_accuracy)
        assert label_noise == pytest.approx(direct.label_noise.final_test_accuracy)

    def test_units_never_rebuild_weights(self, monkeypatch):
        # A unit reads only the final test accuracies, so no weights are built.
        import lngd.network as network

        calls = []
        rebuild = network.reconstruct_weights
        monkeypatch.setattr(network, "reconstruct_weights",
                            lambda *args: calls.append(args) or rebuild(*args))
        result = run_heatmap(self.grid(snr_values=(0.05,), seeds_per_cell=1), workers=1)
        assert not np.isnan(result.accuracy).any()
        assert not calls

    def test_failed_unit_keeps_traceback(self, monkeypatch):
        import lngd.experiments as experiments

        def failing_unit(grid, row, col, seed_index):
            raise ValueError(f"boom in unit {row},{col},{seed_index}")

        monkeypatch.setattr(experiments, "_run_heatmap_unit", failing_unit)
        result = run_heatmap(self.grid(snr_values=(0.05,), seeds_per_cell=1), workers=1)
        errors = result.errors[0, 0]
        assert len(errors) == 2  # both arms of the failed unit
        for err in errors:
            assert "ValueError('boom in unit 0,0,0')" in err
            assert "Traceback (most recent call last)" in err
            assert "in failing_unit" in err
        assert np.isnan(result.accuracy).all()

    def test_partial_failures(self, monkeypatch, tmp_path):
        # At q=4 and eta 8 some standard arms and every label-noise arm abort; one unit raises.
        from lngd.io import fmt_float, write_heatmap_aggregate_csv, write_heatmap_csv

        grid = self.grid(snr_values=(0.1, 0.4), n_values=(8, 12), steps=30, eta=8.0,
                         seeds_per_cell=3, d=60, q=4, n_test=40, master_seed=5)
        unit, raising = experiments._run_heatmap_unit, (0, 1, 1)

        def patched_unit(grid, row, col, seed_index):
            if (row, col, seed_index) == raising:
                raise RuntimeError("unit failed")
            return unit(grid, row, col, seed_index)

        monkeypatch.setattr(experiments, "_run_heatmap_unit", patched_unit)
        result = run_heatmap(grid)
        expected = np.full((2, 2, 3, 2), np.nan)
        for row, col, s in np.ndindex(2, 2, 3):
            if (row, col, s) != raising:
                expected[row, col, s] = [math.nan if isinstance(v, str) else v
                                         for v in unit(grid, row, col, s)]
        finished = ~np.isnan(expected)
        survivors = finished[..., 0].sum(axis=2)  # standard seeds that finished, per cell
        assert ((0 < survivors) & (survivors < 3)).any() and not finished[..., 1].any()
        assert np.array_equal(result.accuracy, expected, equal_nan=True)
        for row, col in np.ndindex(2, 2):
            assert len(result.errors[row, col]) == np.count_nonzero(~finished[row, col])
        assert [e.split("\n")[0] for e in result.errors[0, 1] if e.startswith("seed 1 ")] == [
            f"seed 1 {alg}: RuntimeError('unit failed')" for alg in ("standard", "label_noise")]

        write_heatmap_csv(result, tmp_path / "heatmap.csv")
        write_heatmap_aggregate_csv(result, tmp_path / "heatmap_aggregate.csv")
        rows, aggregate = [], []
        for row, col in np.ndindex(2, 2):
            cell = [fmt_float(grid.snr_values[row]), str(grid.n_values[col])]
            for s, a in np.ndindex(3, 2):
                if finished[row, col, s, a]:
                    rows.append(",".join(cell + [str(s), ("standard", "label_noise")[a],
                                                 fmt_float(expected[row, col, s, a])]))
            for a in range(2):
                done = [v for v in expected[row, col, :, a] if not math.isnan(v)]  # seed order
                cell += [fmt_float(np.mean(done)), fmt_float(np.std(done))] if done else ["nan"] * 2
            aggregate.append(",".join(cell + [str(survivors[row, col])]))
        assert (tmp_path / "heatmap.csv").read_text().splitlines()[1:] == rows
        assert (tmp_path / "heatmap_aggregate.csv").read_text().splitlines()[1:] == aggregate

    def test_mu_scale_for_snr(self):
        grid = self.grid()
        # |mu| = snr * sigma_p * sqrt(d)
        assert grid.mu_scale_for(0.1) == pytest.approx(0.1 * 0.5 * np.sqrt(40))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(snr_values=(), n_values=(8,))


class TestNoiseComparison:
    def test_arms_and_baseline(self, tiny_spec):
        noises = [LabelNoiseSpec.flip(0.2), LabelNoiseSpec.uniform(-1.0, 2.0)]
        result = run_noise_comparison(tiny_spec, noise_list=noises, seed=9, **SMALL)
        assert result["baseline"].noise.kind == "none"
        assert [a.noise for a in result["arms"]] == noises
        for arm in result["arms"]:
            assert not arm.aborted
            assert np.isfinite(arm.final_clean_loss)

    def test_matched_initial_rows(self, tiny_spec):
        noises = [LabelNoiseSpec.gaussian(0.6, 1.0)]
        result = run_noise_comparison(tiny_spec, noise_list=noises, seed=10, **SMALL)
        r0 = result["baseline"].trace.rows[0]
        r1 = result["arms"][0].trace.rows[0]
        assert r0.clean_train_loss == r1.clean_train_loss


STACK_CASES = {
    "eight_arms": (dict(SMALL), [
        LabelNoiseSpec.flip(0.1), LabelNoiseSpec.flip(0.3), LabelNoiseSpec.flip(0.0),
        LabelNoiseSpec.gaussian(1.0, 0.5), LabelNoiseSpec.gaussian(0.6, 1.0),
        LabelNoiseSpec.uniform(-1.0, 2.0), LabelNoiseSpec.uniform(0.0, 2.0)]),
    # The gaussian arm's outputs overflow at step 2; the standard arm runs on.
    "one_arm_aborts": (dict(SMALL, n=8, eta=0.3), [LabelNoiseSpec.gaussian(0.0, 1e100)]),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_arms_equal_solo_arms(tiny_spec, case):
    shape, noise_list = STACK_CASES[case]
    seed = 9
    stacked = run_noise_comparison(tiny_spec, noise_list=noise_list, seed=seed, **shape)
    arms = [stacked["baseline"], *stacked["arms"]]
    assert len(arms) == len(noise_list) + 1
    dataset = generate_dataset(tiny_spec, shape["n"], stream(seed, "data"))
    test_dataset = generate_dataset(tiny_spec, shape["n_test"], stream(seed, "test"))
    init = init_network(tiny_spec.d, shape["m"], shape["q"], shape["sigma_0"],
                        stream(seed, "init"))
    for idx, arm in enumerate(arms):
        [solo] = train_on_points(init, dataset, test_dataset,
                                 [Arm(arm.label, arm.noise, arm_noise_rng(seed, idx, arm.noise))],
                                 eta=shape["eta"], steps=shape["steps"],
                                 log_stride=shape["log_stride"])
        assert (arm.trace.aborted_at, arm.abort_reason) == (solo.trace.aborted_at,
                                                            solo.abort_reason)
        assert [(r.step, r.test_error_01) for r in arm.trace.rows] == \
            [(r.step, r.test_error_01) for r in solo.trace.rows]
        for ours, theirs in ((arm.state.gamma, solo.state.gamma),
                             (arm.state.rho, solo.state.rho)):
            assert np.abs(ours - theirs).max() <= 1e-12 * np.abs(theirs).max()
    if case == "one_arm_aborts":
        assert arms[1].trace.aborted_at == 2 and not arms[0].aborted
        assert arms[0].trace.rows[-1].step == shape["steps"]


class TestQSweep:
    def test_reference_hyperparameters_applied(self):
        results = run_q_sweep((2, 3), d=40, sigma_0=0.1, steps=10, p=0.2, seed=1,
                              log_stride=10, n_test=20)
        assert set(results) == {2, 3}
        for q, res in results.items():
            assert res.standard.net.q == q
            assert res.label_noise.net.q == q

    def test_unknown_q_rejected(self):
        with pytest.raises(ValueError):
            run_q_sweep((5,), d=40, steps=10)

    def test_unknown_q_rejected_before_any_q_trains(self, monkeypatch):
        runs = []
        monkeypatch.setattr(experiments, "run_dynamics", lambda *a, **k: runs.append(a))
        with pytest.raises(ValueError, match="q=5"):
            run_q_sweep((2, 5), steps=2)
        assert runs == []
