import json
import math
import pathlib
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import lngd.cli as cli
import lngd.experiments as experiments
from lngd.config import SCHEMA, ConfigError, parse_config
from lngd.data import SignalSpec, generate_dataset
from lngd.experiments import (
    ALGORITHMS,
    Q_SWEEP_DEFAULTS,
    arm_noise_rng,
    axis_aligned_spec,
    plan,
    run_dynamics,
    run_heatmap,
    run_paired,
)
from lngd.network import init_network
from lngd.streams import derive_seed, stream
from lngd.training import Arm, LabelNoiseSpec

from helpers import keep_points, paired_run, train_on_points

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402  the benchmark's configs

SMALL = dict(n=10, m=3, q=2, sigma_0=0.1, eta=0.1, steps=20, log_stride=10, n_test=40)
TINY = dict(d=40, mu_scale=1.5, sigma_p=0.5, p=0.2)  # tiny_spec's config keys


@pytest.fixture(scope="module")
def tiny_spec():
    return axis_aligned_spec(1.5, 0.5, 40)


class TestRunDynamics:
    def test_paired_fairness(self, tiny_spec):
        result = run_dynamics(paired_run(tiny_spec, noise=LabelNoiseSpec.flip(0.2), seed=5,
                                         **SMALL))
        # Both arms saw the same dataset and test set objects.
        assert result.standard.trace.rows[0].clean_train_loss == \
            result.label_noise.trace.rows[0].clean_train_loss
        assert result.standard.trace.rows[0].test_error_01 == \
            result.label_noise.trace.rows[0].test_error_01

    def test_zero_flip_rate_arms_identical(self, tiny_spec):
        run = paired_run(tiny_spec, noise=LabelNoiseSpec.flip(0.0), seed=5, **SMALL)
        result = run_dynamics(run, observers=keep_points(run))
        assert np.array_equal(result.standard.trace.rows, result.label_noise.trace.rows)
        assert np.array_equal(result.standard.weights, result.label_noise.weights)

    def test_degenerate_gaussian_equals_standard(self, tiny_spec):
        result = run_dynamics(paired_run(tiny_spec, noise=LabelNoiseSpec.gaussian(1.0, 0.0),
                                         seed=5, **SMALL))
        assert np.array_equal(result.standard.trace.rows, result.label_noise.trace.rows)

    def test_rerun_identical(self, tiny_spec):
        a = run_dynamics(paired_run(tiny_spec, noise=LabelNoiseSpec.flip(0.3), seed=6, **SMALL))
        b = run_dynamics(paired_run(tiny_spec, noise=LabelNoiseSpec.flip(0.3), seed=6, **SMALL))
        assert np.array_equal(a.label_noise.trace.rows, b.label_noise.trace.rows)

    def test_reports_attached(self, tiny_spec):
        result = run_dynamics(paired_run(tiny_spec, noise=LabelNoiseSpec.flip(0.2), seed=7,
                                         **SMALL))
        assert set(result.reports) >= {"standard", "label_noise", "stage_times"}
        assert "coefficient_envelope" in result.reports["standard"]
        assert "verdicts" in result.reports["label_noise"]

    def test_aborted_arm_leaves_other_intact(self, tiny_spec):
        # q = 4 at an absurd eta aborts; the standard arm must still emerge.
        result = run_dynamics(paired_run(tiny_spec, n=10, m=3, q=4, sigma_0=0.1, eta=1e80,
                                         steps=20, log_stride=10, n_test=40,
                                         noise=LabelNoiseSpec.flip(0.2), seed=8))
        assert result.standard.aborted and result.label_noise.aborted
        assert result.reports["standard"]["aborted"]


class TestHeatmap:
    def grid(self, snr_values=(0.05, 0.1), n_values=(8,), steps=15, eta=0.3, seeds_per_cell=2,
             master_seed=3, workers=1, **kw):
        """A heatmap config; its top-level n, mu_scale and eta are required but unread."""
        base = dict(d=40, n=8, mu_scale=1.0, sigma_p=0.5, p=0.2, eta=eta, steps=steps,
                    seed=master_seed, m=3, q=2, sigma_0=0.1, n_test=30, workers=workers,
                    grid=dict(snr_values=list(snr_values), n_values=list(n_values), steps=steps,
                              eta=eta, seeds_per_cell=seeds_per_cell))
        base.update(kw)
        return parse_config(data=base)

    def test_accuracy_shape(self):
        result = run_heatmap(self.grid())
        assert result.errors == {(0, 0): [], (1, 0): []}
        assert result.accuracy.shape == (2, 1, 2, 2)  # snr * n * seeds * algorithms
        assert ((0.0 <= result.accuracy) & (result.accuracy <= 1.0)).all()

    def test_schedule_independence(self):
        seq = run_heatmap(self.grid(workers=1))
        par = run_heatmap(self.grid(workers=2))
        assert np.array_equal(seq.accuracy, par.accuracy)

    def test_master_seed_determinism(self):
        a = run_heatmap(self.grid())
        b = run_heatmap(self.grid())
        assert np.array_equal(a.accuracy, b.accuracy)

    def test_single_cell_matches_direct_pairing(self):
        # A 1x1 grid reduces to one paired run on the cell-derived seed.
        grid = self.grid(snr_values=(0.05,), n_values=(8,), seeds_per_cell=1)
        standard, label_noise = run_heatmap(grid).accuracy[0, 0, 0]
        spec = axis_aligned_spec(0.05 * 0.5 * math.sqrt(40), 0.5, 40)
        direct = run_dynamics(paired_run(spec, n=8, m=3, q=2, sigma_0=0.1, eta=0.3, steps=15,
                                         noise=LabelNoiseSpec.flip(0.2),
                                         seed=derive_seed(3, 0, 0, 0), log_stride=15,
                                         n_test=30))
        assert standard == pytest.approx(direct.standard.final_test_accuracy)
        assert label_noise == pytest.approx(direct.label_noise.final_test_accuracy)

    def test_units_never_rebuild_weights(self, monkeypatch):
        # A unit reads only the final test accuracies, so no weights are built.
        import lngd.network as network

        calls = []
        rebuild = network.reconstruct_weights
        monkeypatch.setattr(network, "reconstruct_weights",
                            lambda *args: calls.append(args) or rebuild(*args))
        result = run_heatmap(self.grid(snr_values=(0.05,), seeds_per_cell=1))
        assert not np.isnan(result.accuracy).any()
        assert not calls

    def test_failed_unit_keeps_traceback(self, monkeypatch):
        def failing_unit(run):
            raise ValueError(f"boom in unit of seed {run.seed}")

        monkeypatch.setattr(experiments, "_heatmap_unit", failing_unit)
        result = run_heatmap(self.grid(snr_values=(0.05,), seeds_per_cell=1))
        errors = result.errors[0, 0]
        assert len(errors) == 2  # both arms of the failed unit
        for err in errors:
            assert f"ValueError('boom in unit of seed {derive_seed(3, 0, 0, 0)}')" in err
            assert "Traceback (most recent call last)" in err
            assert "in failing_unit" in err
        assert np.isnan(result.accuracy).all()

    def test_partial_failures(self, monkeypatch, tmp_path):
        # At q=4 and eta 8 some standard arms and every label-noise arm abort; one unit raises.
        from lngd.io import fmt_float, write_heatmap_aggregate_csv, write_heatmap_csv

        grid = self.grid(snr_values=(0.1, 0.4), n_values=(8, 12), steps=30, eta=8.0,
                         seeds_per_cell=3, d=60, q=4, n_test=40, master_seed=5)
        unit, raising = experiments._heatmap_unit, (0, 1, 1)

        def patched_unit(run):
            if run.seed == derive_seed(5, *raising):
                raise RuntimeError("unit failed")
            return unit(run)

        monkeypatch.setattr(experiments, "_heatmap_unit", patched_unit)
        result = run_heatmap(grid)
        expected = np.full((2, 2, 3, 2), np.nan)
        for (row, col, s), run in zip(np.ndindex(2, 2, 3), plan("heatmap", grid)):
            if (row, col, s) != raising:
                expected[row, col, s] = [math.nan if isinstance(v, str) else v
                                         for v in unit(run)]
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
            cell = [fmt_float(grid.grid["snr_values"][row]), str(grid.grid["n_values"][col])]
            for s, a in np.ndindex(3, 2):
                if finished[row, col, s, a]:
                    rows.append(",".join(cell + [str(s), ("standard", "label_noise")[a],
                                                 fmt_float(expected[row, col, s, a])]))
            for a in range(2):
                done = [v for v in expected[row, col, :, a] if not math.isnan(v)]  # seed order
                cell += [fmt_float(np.mean(done)), fmt_float(np.std(done))] if done else ["nan"] * 2
            aggregate.append(",".join(cell + [str(survivors[row, col]),
                                              str(finished[row, col, :, 1].sum())]))
        assert (tmp_path / "heatmap.csv").read_text().splitlines()[1:] == rows
        lines = (tmp_path / "heatmap_aggregate.csv").read_text().splitlines()
        assert lines[0].endswith(",seeds,label_noise_seeds")
        assert lines[1:] == aggregate
        # Every label-noise arm aborted: no cell counts a label-noise seed, though some count
        # standard ones.
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["0"] * 4

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            self.grid(snr_values=())


def noise_compare(noise_list, seed, **shape):
    """The arms of ``plan("noise-compare")`` on tiny_spec: the standard baseline first."""
    config = parse_config(data=dict(TINY, seed=seed, **shape))
    [run] = plan("noise-compare", replace(config, noise_list=tuple(noise_list)))
    return run_paired(run)


class TestNoiseComparison:
    def test_arms_and_baseline(self):
        noises = [LabelNoiseSpec.flip(0.2), LabelNoiseSpec.uniform(-1.0, 2.0)]
        baseline, *arms = noise_compare(noises, 9, **SMALL)
        assert baseline.noise.kind == "none"
        assert [a.noise for a in arms] == noises
        for arm in arms:
            assert not arm.aborted
            assert np.isfinite(arm.final_clean_loss)

    def test_matched_initial_rows(self):
        noises = [LabelNoiseSpec.gaussian(0.6, 1.0)]
        baseline, arm = noise_compare(noises, 10, **SMALL)
        assert baseline.trace.rows[0].clean_train_loss == arm.trace.rows[0].clean_train_loss


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
    arms = noise_compare(noise_list, seed, **shape)
    assert len(arms) == len(noise_list) + 1
    dataset = generate_dataset(tiny_spec, shape["n"], stream(seed, "data"))
    test_dataset = generate_dataset(tiny_spec, shape["n_test"], stream(seed, "test"))
    init = init_network(tiny_spec.d, shape["m"], shape["sigma_0"], stream(seed, "init"))
    for idx, arm in enumerate(arms):
        [solo] = train_on_points(init, shape["q"], dataset, test_dataset,
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


def q_sweep_config(q_list):
    """A q-sweep config; its top-level n, mu_scale, sigma_p and eta are required but unread."""
    return dict(d=40, n=10, mu_scale=1.0, sigma_p=0.5, p=0.2, eta=0.1, steps=10, seed=1,
                sigma_0=0.1, log_stride=10, n_test=20, q_list=list(q_list))


class TestQSweep:
    def test_reference_hyperparameters_applied(self):
        runs = plan("q-sweep", parse_config(data=q_sweep_config((2, 3))))
        assert [run.q for run in runs] == [2, 3]
        for run in runs:
            reference = Q_SWEEP_DEFAULTS[run.q]
            assert {key: getattr(run, key) for key in reference} == reference
            for arm in run_paired(run, observers=keep_points(run)):
                assert arm.q == run.q and arm.weights.shape == (run.spec.d, 2 * run.m)

    def test_unknown_q_rejected(self):
        with pytest.raises(ValueError):
            plan("q-sweep", parse_config(data=q_sweep_config((5,))))

    def test_unknown_q_rejected_before_any_q_trains(self, monkeypatch, tmp_path, capsys):
        runs = []
        monkeypatch.setattr(cli, "run_paired", lambda *a, **k: runs.append(a))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(q_sweep_config((2, 5))))
        assert cli.main_cli(["q-sweep", "--config", str(path), "--out",
                             str(tmp_path / "out")]) == 1
        assert "q=5" in capsys.readouterr().err
        assert runs == []
        assert not (tmp_path / "out").exists()


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
NOISE_SLUGS = ["flip_p_0_1", "flip_p_0_3", "flip_p_0_4", "gaussian_1_1", "gaussian_0_6_1",
               "uniform__1_2", "uniform__2_3"]
REFERENCE_TRACES = {
    "section5.json": ("dynamics", ["trace_standard.csv", "trace_label_noise.csv"]),
    "noise_variants.json": ("noise-compare", ["trace_standard.csv"]
                            + [f"trace_{slug}.csv" for slug in NOISE_SLUGS]),
    "q_sweep.json": ("q-sweep", [f"trace_q{q}_{label}.csv" for q in (2, 3, 4)
                                 for label in ("standard", "label_noise")]),
}


# The keys each command sets in the runs it plans; a run holds every other key as its config.
OVERRIDDEN = {"dynamics": (), "noise-compare": (),
              "heatmap": ("mu_scale", "n", "eta", "steps", "log_stride", "seed"),
              "q-sweep": ("q", "seed", *Q_SWEEP_DEFAULTS[2])}
PLANNED_CONFIGS = {
    **{path.name: partial(parse_config, path) for path in sorted(CONFIGS.glob("*.json"))},
    **{f"benchmark-{name}": partial(parse_config, data=workload.make_config(1, False))
       for name, workload in WORKLOADS.items()},
}


class TestPlan:
    """``plan`` on the reference configs and on configs it must refuse; nothing trains."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_TRACES))
    def test_reference_configs_plan_their_trace_files(self, name):
        command, traces = REFERENCE_TRACES[name]
        runs = plan(command, parse_config(CONFIGS / name))
        assert [run.trace_file(label) for run in runs for label, _ in run.arms] == traces

    def test_reference_heatmap_units_seeds_and_mu(self):
        # 3 SNRs x 2 n x 3 seeds in (row, col, seed) order, |mu| = snr * sigma_p * sqrt(d).
        runs = plan("heatmap", parse_config(CONFIGS / "heatmap_desk.json"))
        units = list(np.ndindex(3, 2, 3))
        assert len(runs) == len(units) == 18
        mu = {0: 0.6708203932499369, 1: 1.3416407864998738, 2: 2.0124611797498106}
        for (row, col, s), run in zip(units, runs):
            assert run.seed == derive_seed(1, row, col, s)
            assert run.spec.mu[0] == pytest.approx(mu[row], rel=1e-15)
            assert np.count_nonzero(run.spec.mu) == 1 and run.spec.d == 2000
            assert (run.n, run.steps, run.log_stride, run.eta) == ((100, 300)[col], 1000, 1000, 1.0)
            assert run.arms == tuple(zip(ALGORITHMS, (LabelNoiseSpec.none(),
                                                      LabelNoiseSpec.flip(0.1))))

    @pytest.mark.parametrize("command, name", [("heatmap", "heatmap_desk.json"),
                                               ("q-sweep", "q_sweep.json")])
    def test_every_paired_command_trains_the_configs_noise(self, command, name):
        noise = {"kind": "gaussian", "mean": 1.0, "std": 0.5}
        runs = plan(command, parse_config(CONFIGS / name, overrides={"noise": noise}))
        arms = (("standard", LabelNoiseSpec.none()),
                ("label_noise", LabelNoiseSpec.gaussian(1.0, 0.5)))
        assert runs and {run.arms for run in runs} == {arms}

    @pytest.mark.parametrize("name", PLANNED_CONFIGS)
    def test_runs_are_the_config_but_for_the_keys_their_command_overrides(self, name):
        config = PLANNED_CONFIGS[name]()
        planned = 0
        for command, overridden in OVERRIDDEN.items():
            try:
                runs = plan(command, config)
            except ConfigError:  # the config lacks the command's section
                continue
            kept = [key for key in SCHEMA if "." not in key and key not in overridden]
            for run in runs:
                assert [getattr(run, key) for key in kept] == [getattr(config, key)
                                                               for key in kept]
            planned += len(runs)
        assert planned

    def test_plan_builds_no_signal_spec(self, monkeypatch):
        built = []
        init = SignalSpec.__init__
        monkeypatch.setattr(SignalSpec, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        runs = [run for name, (command, _) in REFERENCE_TRACES.items()
                for run in plan(command, parse_config(CONFIGS / name))]
        runs += plan("heatmap", parse_config(CONFIGS / "heatmap_desk.json"))
        assert len(runs) == 1 + 1 + 3 + 18 and not built
        assert runs[0].spec is runs[0].spec  # built on its first read, once
        assert len(built) == 1

    def test_concentration_config_parses(self):
        assert parse_config(CONFIGS / "concentration.json").trials == 1000

    @pytest.mark.parametrize("section, clash", [
        ({"noise_list": [{"kind": "flip", "p": 0.1}, {"kind": "flip", "p": 0.1000001}]},
         "trace_flip_p_0_1.csv"),
        ({"noise_list": [{"kind": "uniform", "lo": -1.0, "hi": 2.0}] * 2},
         "trace_uniform__1_2.csv"),
        ({"q_list": [2, 2]}, "trace_q2_standard.csv"),
    ], ids=["flip-labels-equal", "entry-twice", "q-twice"])
    def test_colliding_trace_names_are_refused(self, section, clash, monkeypatch, tmp_path,
                                               capsys):
        # Two arms with one trace file: refused before anything trains or is written.
        command = "q-sweep" if "q_list" in section else "noise-compare"
        data = {**json.loads((CONFIGS / "noise_variants.json").read_text()), **section}
        with pytest.raises(ConfigError, match=clash.replace(".", r"\.")):
            plan(command, parse_config(data=data))
        runs = []
        monkeypatch.setattr(cli, "run_paired", lambda *a, **k: runs.append(a))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli.main_cli([command, "--config", str(path), "--out", str(out)]) == 1
        assert clash in capsys.readouterr().err
        assert runs == [] and not out.exists()
