"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`; the whole module takes
under ten minutes on one core. Criteria 4 and 9 are implemented exactly as
stated and are expected to fail, both for the same reason: at 20 filters
per branch the stated step sizes give half the effective per-step impact
that produced the reference behavior. For criterion 4 the label-noise-GD
equilibrium pins the clean training loss at log(1/(1-p)) (about 0.105,
below the stated [0.2, 1.2] band, which describes the noisy loss whose
floor is the label-noise entropy, about 0.325) and the signal-displaces-
noise transition completes near t = 3000, after the stated T = 2000. For
criterion 9 the weakest-signal cell (SNR 0.03, n = 100) needs more than
the stated 1000 steps before label-noise GD lifts off chance (halving the
width or doubling the learning rate yields accuracy 1.0 there). See
README.md for the full analysis.
"""

import json
import math
from functools import partial

import numpy as np
import pytest

from lngd.config import parse_config
from lngd.data import SignalSpec, generate_dataset
from lngd.decomposition import logistic_loss
from lngd.experiments import (
    arm_noise_rng,
    axis_aligned_spec,
    plan,
    run_dynamics,
    run_heatmap,
    run_paired,
)
from lngd.io import RunArtifactFiles, emit_outputs, write_trace_csv
from lngd.network import (
    OracleReplay,
    full_batch_gradient,
    init_network,
    projection_check,
    reconstruct_weights,
    zero_one_error,
)
from lngd.network import _batch_outputs
from lngd.streams import stream
from lngd.theory import (
    concentration_suite,
    estimate_stage_times,
    iota_fixed_point,
    coefficient_envelope_monitor,
    stage2_boundedness_check,
)
from lngd.training import LabelNoiseSpec

from helpers import paired_run

SEEDS = (1, 2, 3, 4, 5)
S5 = dict(n=200, m=20, q=2, sigma_0=0.01, eta=0.5, steps=2000, n_test=2000)
LOG_STRIDE = 20


def report(num, desc, ok, detail=""):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {desc}"
          + (f" :: {detail}" if detail else ""))
    assert ok, f"criterion {num} ({desc}): {detail}"


def spec5():
    return axis_aligned_spec(2.0, 0.5, 2000)


@pytest.fixture(scope="module")
def section5_runs():
    """Paired standard/label-noise runs at the reference configuration,
    five seeds. Beside each arm the weight-space oracle (train_step on the
    arm's own multiplier stream) is replayed; at every logged step the
    engine's coefficients are checked against the oracle's weights by
    reconstruction and by projection onto mu."""
    runs = {}
    noise = LabelNoiseSpec.flip(0.1)
    arms = (("standard", LabelNoiseSpec.none()), ("label_noise", noise))
    for seed in SEEDS:
        checks = {label: {"recon": 0.0, "gamma": 0.0} for label, _ in arms}

        def make_observer(rec, oracle):
            def observer(step, state, dataset):
                w = oracle.advance(step, state, dataset)
                wp, wm = reconstruct_weights(state, dataset)
                rel = (np.linalg.norm(np.hstack([wp, wm]) - w)
                       / np.linalg.norm(w))
                proj = projection_check(w, state, dataset, t_star=S5["steps"])
                rec["recon"] = max(rec["recon"], rel)
                rec["gamma"] = max(rec["gamma"], proj["gamma_discrepancy_max"])
                rec["oracle"] = w

            return observer

        observers = {
            label: make_observer(checks[label], OracleReplay(
                S5["q"], S5["eta"], arm_noise, arm_noise_rng(seed, idx, arm_noise)))
            for idx, (label, arm_noise) in enumerate(arms)
        }
        result = run_dynamics(paired_run(spec5(), noise=noise, seed=seed, log_stride=LOG_STRIDE,
                                         **S5), observers=observers)
        runs[seed] = (result, checks)
    return runs


def test_engine_agrees_with_weight_space_oracle(section5_runs):
    # Agreement gate for the coefficient engine: on every section-5 seed and
    # both arms, final weights within 1e-12 relative of the oracle's and an
    # identical final test error.
    worst = 0.0
    mismatched = []
    for seed, (res, checks) in section5_runs.items():
        test_dataset = generate_dataset(spec5(), S5["n_test"], stream(seed, "test"))
        for arm in (res.standard, res.label_noise):
            oracle = checks[arm.label]["oracle"]
            rel = (np.linalg.norm(arm.weights - oracle)
                   / np.linalg.norm(oracle))
            worst = max(worst, rel)
            if arm.trace.final.test_error_01 != zero_one_error(oracle, S5["q"], test_dataset):
                mismatched.append((seed, arm.label))
    assert worst <= 1e-12, f"worst relative weight gap {worst:.3e}"
    assert not mismatched, f"final test error differs from the oracle's: {mismatched}"


def test_criterion_01_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        q = [2, 3, 4][trial % 3]
        spec = SignalSpec(mu=rng.standard_normal(10), sigma_p=0.7, d=10)
        ds = generate_dataset(spec, 5, rng)
        w = init_network(10, 3, 0.5, rng)
        eps = np.where(rng.random(5) < 0.3, -1.0, 1.0)
        analytic = full_batch_gradient(w, q, ds, eps)
        h = 1e-5
        numeric = np.zeros_like(analytic)
        for i in range(10):
            for c in range(6):
                orig = w[i, c]
                w[i, c] = orig + h
                f = _batch_outputs(w, q, ds)
                lp = float(np.mean(logistic_loss(eps * ds.labels * f)))
                w[i, c] = orig - h
                f = _batch_outputs(w, q, ds)
                lm = float(np.mean(logistic_loss(eps * ds.labels * f)))
                w[i, c] = orig
                numeric[i, c] = (lp - lm) / (2 * h)
        worst = max(worst, np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))
    report(1, "gradient vs central differences (20 configs, q in {2,3,4})",
           worst <= 1e-6, f"worst relative error {worst:.3e}")


def test_criterion_02_decomposition_exactness(section5_runs):
    worst_recon = max(rec[label]["recon"] for _, rec in section5_runs.values()
                      for label in rec)
    worst_gamma = max(rec[label]["gamma"] for _, rec in section5_runs.values()
                      for label in rec)
    ok = worst_recon <= 1e-8 and worst_gamma <= 1e-9
    report(2, "reconstruction <= 1e-8 and gamma projection <= 1e-9 at every logged step",
           ok, f"worst recon {worst_recon:.3e}, worst gamma discrepancy {worst_gamma:.3e}")


def test_criterion_03_standard_gd_overfits_harmfully(section5_runs):
    losses = [res.standard.final_clean_loss for res, _ in section5_runs.values()]
    accs = [res.standard.final_test_accuracy for res, _ in section5_runs.values()]
    loss_ok = sum(l <= 0.05 for l in losses)
    acc_ok = sum(a <= 0.80 for a in accs)
    ok = loss_ok >= 4 and acc_ok >= 4
    report(3, "standard GD: train loss <= 0.05 and test accuracy <= 0.80 in >= 4/5 seeds",
           ok, f"losses {[f'{l:.4f}' for l in losses]}, accuracies "
               f"{[f'{a:.3f}' for a in accs]}")


def test_criterion_04_label_noise_gd_generalizes(section5_runs):
    # Implemented exactly as stated; see module docstring for why this is
    # expected to fail at this configuration.
    per_seed = []
    for seed in SEEDS:
        res, _ = section5_runs[seed]
        trace = res.label_noise.trace
        late = [r.clean_train_loss for r in trace.rows_from(S5["steps"] - 500)]
        band_ok = all(0.2 <= l <= 1.2 for l in late)
        acc = res.label_noise.final_test_accuracy
        per_seed.append((band_ok, acc, min(late), max(late)))
    good = sum(band_ok and acc >= 0.95 for band_ok, acc, _, _ in per_seed)
    detail = "; ".join(
        f"seed{seed}: band[{lo:.3f},{hi:.3f}]{'ok' if b else 'MISS'} acc {acc:.3f}"
        for seed, (b, acc, lo, hi) in zip(SEEDS, per_seed)
    )
    report(4, "label-noise GD: clean loss in [0.2, 1.2] over last 500 steps and "
              "accuracy >= 0.95 in >= 4/5 seeds", good >= 4, detail)


def test_criterion_05_rho_bar_monotone_under_standard_gd(section5_runs):
    counts = {seed: section5_runs[seed][0].standard.trace.rho_bar_monotone_violations
              for seed in SEEDS[:3]}
    report(5, "every rho_bar nondecreasing at every step under standard GD (3 seeds)",
           all(c == 0 for c in counts.values()), f"violation counts {counts}")


def test_criterion_06_coefficient_envelope_monitor(section5_runs):
    total = 0
    for res, _ in section5_runs.values():
        for arm in (res.standard, res.label_noise):
            total += coefficient_envelope_monitor(arm.trace, S5["steps"])["violation_count"]
    alpha = 4 * math.log(S5["steps"])
    report(6, "zero coefficient-envelope violations across all criterion-3/4 runs",
           total == 0, f"alpha {alpha:.3f}, total violations {total}")


def test_criterion_07_stage2_iota_behavior(section5_runs):
    t1 = estimate_stage_times(2.0, 0.5, 2000, S5["n"], S5["m"], S5["eta"], S5["sigma_0"],
                              0.05)["GD"]["T1"]  # |mu|, sigma_p and d of spec5()
    fp = iota_fixed_point(0.1)
    all_ok = True
    details = []
    for seed in SEEDS:
        res, _ = section5_runs[seed]
        trace = res.label_noise.trace
        bd = stage2_boundedness_check(trace.rows.step, trace.iota_history, t1, p=0.1)
        med = bd["median_of_medians"]
        in_band = 0.5 * fp <= med <= 1.5 * fp
        all_ok = all_ok and bd["all_pass"] and in_band
        details.append(f"seed{seed}: sup_ok={bd['all_pass']} median {med:.3f}")
    report(7, f"iota bounded by 3*iota(T1)+5 and medians within 50% of {fp:.3f}",
           all_ok, f"T1 {t1:.1f}; " + "; ".join(details))


def test_criterion_08_concentration_suite():
    suite = concentration_suite(spec5(), n=20, m=20, sigma_0=0.01, p=0.1,
                                trials=1000, delta=0.01, seed=0,
                                t_b4=2000, delta_b34=0.05)
    rates = {
        "noise_geometry": suite["noise_geometry"]["pass_rate"],
        "init_inner_products": suite["init_inner_products"]["pass_rate"],
        "flip_count_per_step": suite["flip_count_per_step"]["pass_rate"],
        "flip_interval": suite["flip_count_per_sample"]["interval_pass_rate"],
    }
    ok = (rates["noise_geometry"] >= 0.99 and rates["init_inner_products"] >= 0.99
          and rates["flip_count_per_step"] >= 0.95 and rates["flip_interval"] >= 0.95)
    report(8, "Monte Carlo concentration suite (1000 trials)", ok,
           ", ".join(f"{k} {v:.3f}" for k, v in rates.items()))


@pytest.fixture(scope="module")
def heatmap_result():
    # The top-level n, mu_scale and eta are required but unread by the heatmap.
    grid = parse_config(data={
        "d": 2000, "n": 100, "mu_scale": 2.0, "sigma_p": 0.5, "p": 0.1, "eta": 1.0,
        "steps": 1000, "seed": 1, "m": 20, "q": 2, "sigma_0": 0.01, "n_test": 2000,
        "grid": {"snr_values": [0.03, 0.06, 0.09], "n_values": [100, 300], "steps": 1000,
                 "eta": 1.0, "seeds_per_cell": 3}})
    return run_heatmap(grid)


def test_criterion_09_heatmap_separation(heatmap_result):
    assert not any(heatmap_result.errors.values()), heatmap_result.errors
    cells = {(snr, n): (stats["standard"][0], stats["label_noise"][0])
             for _, snr, n, _, stats in heatmap_result.by_cell()}  # (gd, ln) seed means
    gaps_low = [cells[(snr, 100)][1] - cells[(snr, 100)][0] for snr in (0.03, 0.06)]
    worst_deficit = min(ln - gd for gd, ln in cells.values())
    ok = all(g >= 0.10 for g in gaps_low) and worst_deficit >= -0.02
    table = "; ".join(f"snr={snr:g},n={n}: gd {gd:.3f} ln "
                      f"{ln:.3f}" for (snr, n), (gd, ln) in sorted(cells.items()))
    report(9, "label-noise GD beats standard GD by >= 0.10 at the low-SNR n=100 cells "
              "and never trails by > 0.02", ok, table)


@pytest.fixture(scope="module")
def noise_comparison_result():
    noises = [
        {"kind": "flip", "p": 0.1},
        {"kind": "flip", "p": 0.3},
        {"kind": "flip", "p": 0.4},
        {"kind": "gaussian", "mean": 1.0, "std": 1.0},
        {"kind": "gaussian", "mean": 0.6, "std": 1.0},
        {"kind": "uniform", "lo": -1.0, "hi": 2.0},
        {"kind": "uniform", "lo": -2.0, "hi": 3.0},
    ]
    [run] = plan("noise-compare", parse_config(data={
        "d": 2000, "mu_scale": 2.0, "sigma_p": 0.5, "p": 0.1, "seed": 1, "log_stride": 100,
        "noise_list": noises, **S5}))
    return run_paired(run)  # the standard baseline first


def test_criterion_10_noise_and_exponent_variants(noise_comparison_result):
    baseline, *arms = noise_comparison_result
    assert not baseline.aborted
    base_acc = baseline.final_test_accuracy
    arm_ok = []
    for arm in arms:
        finite = (not arm.aborted
                  and all(np.isfinite(r.clean_train_loss) and np.isfinite(r.noisy_train_loss)
                          for r in arm.trace.rows))
        arm_ok.append((arm.label, finite and arm.final_test_accuracy >= base_acc - 0.02,
                       arm.final_test_accuracy))
    # The top-level n, mu_scale, sigma_p and eta are required but unread by the q-sweep.
    q_runs = plan("q-sweep", parse_config(data={
        "d": 2000, "n": 200, "mu_scale": 2.0, "sigma_p": 0.5, "p": 0.1, "eta": 0.5,
        "steps": 2000, "seed": 1, "sigma_0": 0.01, "log_stride": 250, "n_test": 2000,
        "q_list": [3, 4]}))
    q_ok = []
    for run in q_runs:
        standard, label_noise = run_paired(run)
        ordered = (not standard.aborted and not label_noise.aborted
                   and label_noise.final_test_accuracy >= standard.final_test_accuracy)
        q_ok.append((run.q, ordered, standard.final_test_accuracy,
                     label_noise.final_test_accuracy))
    ok = all(x[1] for x in arm_ok) and all(x[1] for x in q_ok)
    detail = (f"baseline {base_acc:.3f}; "
              + "; ".join(f"{label} {acc:.3f}" for label, _, acc in arm_ok)
              + "; " + "; ".join(f"q={q}: gd {a:.3f} ln {b:.3f}" for q, _, a, b in q_ok))
    report(10, "alternative noise distributions and exponents keep label-noise GD competitive",
           ok, detail)


def test_criterion_11_determinism(section5_runs, tmp_path):
    config = parse_config("configs/section5.json")

    def emit(result, out):
        traces = {f"trace_{arm.label}.csv": partial(write_trace_csv, arm.trace)
                  for arm in (result.standard, result.label_noise)}
        return emit_outputs(RunArtifactFiles(config=config, command="dynamics", files=traces), out)

    first, _ = section5_runs[1]
    repeat = run_dynamics(paired_run(spec5(), noise=LabelNoiseSpec.flip(0.1), seed=1,
                                     log_stride=LOG_STRIDE, **S5))
    inv_a = emit(first, tmp_path / "a")
    inv_b = emit(repeat, tmp_path / "b")
    byte_equal = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("trace_standard.csv", "trace_label_noise.csv")
    )
    manifest_a = json.loads((tmp_path / "a" / "manifest.json").read_text())["files"]
    manifest_b = json.loads((tmp_path / "b" / "manifest.json").read_text())["files"]
    ok = byte_equal and inv_a == inv_b and manifest_a == manifest_b
    report(11, "same master seed reproduces byte-identical trace CSVs and digests",
           ok, f"digests equal: {inv_a == inv_b}")
