"""Reference-configuration behaviors beyond the acceptance criteria.

One shared paired run at the d=2000 configuration (~25 s) backs several
checks: memorization/signal ratio ordering, verdict bands, projection
slack, and the iota cross-check against direct projections.
"""

import numpy as np
import pytest

from lngd.decomposition import iota_all
from lngd.experiments import axis_aligned_spec, run_dynamics
from lngd.network import projection_check
from lngd.theory import empirical_verdicts
from lngd.training import LabelNoiseSpec

from helpers import keep_points, paired_run


@pytest.fixture(scope="module")
def reference_run():
    spec = axis_aligned_spec(2.0, 0.5, 2000)
    run = paired_run(spec, n=200, m=20, q=2, sigma_0=0.01, eta=0.5, steps=2000,
                     noise=LabelNoiseSpec.flip(0.1), seed=11, log_stride=100)
    return run_dynamics(run, observers=keep_points(run))  # the projection checks read points


def test_memorization_dominates_standard_gd(reference_run):
    # The final trace row's ratio: max rho_bar over max gamma at the final state.
    gd_ratio = reference_run.standard.trace.final.ratio_rho_over_gamma
    ln_ratio = reference_run.label_noise.trace.final.ratio_rho_over_gamma
    assert gd_ratio > 10.0
    assert ln_ratio < gd_ratio


def test_standard_gd_drives_training_loss_down(reference_run):
    assert reference_run.standard.final_clean_loss < 0.05


def test_label_noise_keeps_loss_at_constant_order(reference_run):
    # Clean loss stays pinned near log(1/(1-p)) ~ 0.105, inside the
    # constant-order verdict band, far above the standard-GD floor.
    final = reference_run.label_noise.final_clean_loss
    assert 0.1 <= final <= 1.5
    assert final > 100 * reference_run.standard.final_clean_loss


def test_empirical_verdicts_pass_on_both_arms(reference_run):
    gd, ln = (empirical_verdicts(arm.trace, arm.noise.draws, 200, 2000, epsilon=0.05,
                                 c_test=1.0)
              for arm in (reference_run.standard, reference_run.label_noise))
    assert gd["algorithm"] == "GD" and gd["passed"], gd
    assert ln["algorithm"] == "LNGD" and ln["passed"], ln


def test_label_noise_improves_test_accuracy(reference_run):
    assert (reference_run.label_noise.final_test_accuracy
            > reference_run.standard.final_test_accuracy)


def test_projection_check_at_scale(reference_run):
    for arm in (reference_run.standard, reference_run.label_noise):
        report = projection_check(arm.weights, arm.state, arm.dataset, t_star=2000)
        assert report["gamma_discrepancy_max"] <= 1e-9
        assert report["rho_within_bound_frac"] >= 0.99


def test_iota_matches_direct_projections(reference_run):
    # iota from the recurrence state agrees with iota computed from the
    # trained network's displacement projected onto each sample's noise
    # vector. The per-coordinate gap carries pairwise noise-overlap cross
    # terms, so it is judged against the evaluated theoretical slack (loose
    # at this scale) plus an aggregate band.
    arm = reference_run.label_noise
    ds = reference_run.standard.dataset
    report = projection_check(arm.weights, arm.state, ds, t_star=2000)
    disp = arm.weights - arm.state.w0  # (d, 2m)
    proj = (ds.noise_matrix @ disp).reshape(len(ds), 2, -1)  # (n, 2, m)
    j_idx = (ds.labels < 0).astype(np.intp)
    same_class = proj[np.arange(len(ds)), j_idx, :]  # (n, m)
    iota_proj = np.mean(same_class**2, axis=1)
    iota_state = iota_all(arm.state)
    diff = np.abs(iota_proj - iota_state)
    # |a^2 - b^2| <= |a - b| (|a| + |b|) with |a - b| within the slack
    rho_bar = np.where(arm.state.same_class[:, None, :], arm.state.rho, 0.0)
    slack = report["rho_bound"] * (np.abs(same_class).mean(axis=1) + np.abs(rho_bar).max())
    assert np.all(diff <= slack)
    assert np.median(diff) <= 0.3 * np.median(iota_state)
