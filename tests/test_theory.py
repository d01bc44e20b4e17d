import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from lngd import theory
from lngd.cores import usable_cores, worker_budget
from lngd.experiments import axis_aligned_spec
from lngd.theory import (
    check_assumptions,
    concentration_suite,
    estimate_stage_times,
    iota_fixed_point,
    coefficient_envelope_monitor,
    stage2_boundedness_check,
    empirical_verdicts,
)
from lngd.training import TRACE_COLUMNS, TRACE_DTYPE, TrainTrace


def ref_spec():
    return axis_aligned_spec(2.0, 0.5, 2000)


REF = dict(mu_norm=2.0, sigma_p=0.5, d=2000, n=200, m=20, eta=0.5, sigma_0=0.01)


def make_trace(rows, n=200):
    return TrainTrace(rows=np.rec.array(np.stack(rows)), iota_history=np.zeros((len(rows), n)))


def row(step, **kw):
    base = dict(step=step, clean_train_loss=0.1, noisy_train_loss=0.1,
                test_error_01=0.2, max_gamma=1.0, mean_gamma=0.5, max_rho_bar=2.0,
                mean_rho_bar=1.0, min_rho_under=-0.1, ratio_rho_over_gamma=2.0,
                iota_mean=1.0, iota_max=2.0, flip_count=0)
    base.update(kw)
    return np.array(tuple(base[col] for col in TRACE_COLUMNS), dtype=TRACE_DTYPE)


def item(report, name):
    [found] = [it for it in report["items"] if it["item"] == name]
    return found


class TestCheckAssumptions:
    def test_reference_config_snr_item(self):
        snr = item(check_assumptions(**REF, p=0.1), "i.snr_vs_sqrt_n")
        assert snr["ratio"] == pytest.approx(1.2649110640, rel=1e-9)
        assert not snr["passed"]  # borderline-fails under unit constants

    def test_zero_flip_rate_fails_lower_bound(self):
        report = check_assumptions(**REF, p=0.0)
        assert not item(report, "v.flip_rate_lower")["passed"]
        assert not report["all_passed"]

    def test_low_dimension_ratio(self):
        report = check_assumptions(**{**REF, "d": 10}, p=0.1)
        dim = item(report, "i.dimension_vs_n2")
        assert dim["ratio"] == pytest.approx(2.5e-4, rel=1e-12)
        assert not dim["passed"]

    def test_report_is_pure(self):
        assert check_assumptions(**REF, p=0.1) == check_assumptions(**REF, p=0.1)


class TestStageTimes:
    def test_reference_t1(self):
        est = estimate_stage_times(**REF, epsilon=0.05)
        # T1 = n m log(1/(sigma_0 sigma_p sqrt(d))) / (eta sigma_p^2 d)
        expected = 200 * 20 * math.log(1 / (0.01 * 0.5 * math.sqrt(2000))) / (0.5 * 0.25 * 2000)
        assert est["GD"]["T1"] == pytest.approx(expected, rel=1e-12)
        assert est["GD"]["T1"] == pytest.approx(23.9658, abs=1e-3)
        assert est["LNGD"]["T1"] == est["GD"]["T1"]  # the stage-1 horizon is shared

    def test_eta_homogeneity(self):
        a = estimate_stage_times(**REF, epsilon=0.05)
        b = estimate_stage_times(**{**REF, "eta": 1.0}, epsilon=0.05)
        assert b["GD"]["T1"] == pytest.approx(a["GD"]["T1"] / 2, rel=1e-12)

    def test_lngd_stage2_increment(self):
        est = estimate_stage_times(**REF, epsilon=0.05)["LNGD"]
        assert est["T2"] - est["T1"] == pytest.approx(20 * math.log(6 / 0.02) / (0.5 * 4),
                                                      rel=1e-12)
        assert est["T2"] - est["T1"] == pytest.approx(57.0378, abs=1e-3)

    def test_invalid_when_log_nonpositive(self):
        est = estimate_stage_times(**{**REF, "sigma_0": 1.0}, epsilon=0.05)
        for alg in ("GD", "LNGD"):
            assert est[alg]["invalid_reason"] is not None
            assert math.isnan(est[alg]["T1"])

    def test_zero_init_has_no_stage_times(self):
        # The config refuses sigma_0 = 0; the library still describes it.
        est = estimate_stage_times(**{**REF, "sigma_0": 0.0}, epsilon=0.05)
        for alg in ("GD", "LNGD"):
            assert math.isnan(est[alg]["T1"]) and math.isnan(est[alg]["T2"])
            assert est[alg]["invalid_reason"] == ("sigma_0 sigma_p sqrt(d) = 0 makes the "
                                                  "stage-1 log infinite")

    def test_gd_requires_epsilon(self):
        with pytest.raises(ValueError):
            estimate_stage_times(**REF, epsilon=None)


class TestProposition1Monitor:
    def test_alpha_value(self):
        report = coefficient_envelope_monitor(make_trace([row(0)]), 2000)
        assert report["alpha"] == pytest.approx(30.4036098, abs=1e-6)

    def test_zero_coefficients_pass(self):
        rows = [row(0, max_gamma=0.0, mean_gamma=0.0, max_rho_bar=0.0, mean_rho_bar=0.0,
                    min_rho_under=0.0)]
        assert coefficient_envelope_monitor(make_trace(rows), 2000)["violation_count"] == 0

    def test_violations_listed(self):
        rows = [row(10, max_rho_bar=40.0), row(20, mean_gamma=-0.5)]
        report = coefficient_envelope_monitor(make_trace(rows), 2000)
        kinds = {(v["step"], v["check"]) for v in report["violations"]}
        assert (10, "max_rho_bar<=alpha") in kinds
        assert (20, "mean_gamma>=0") in kinds

    def test_larger_t_star_only_weakens(self):
        rows = [row(10, max_rho_bar=31.0)]
        tight = coefficient_envelope_monitor(make_trace(rows), 2000)
        loose = coefficient_envelope_monitor(make_trace(rows), 10**6)
        assert tight["violation_count"] >= loose["violation_count"]


class TestIotaFixedPoint:
    def test_reference_values(self):
        assert iota_fixed_point(0.1) == pytest.approx(math.log(9), rel=1e-12)
        assert iota_fixed_point(0.1) == pytest.approx(2.1972245773, rel=1e-9)
        assert iota_fixed_point(0.25) == pytest.approx(math.log(3), rel=1e-12)

    def test_symmetric_noise_kills_drift(self):
        assert iota_fixed_point(0.4999999) == pytest.approx(0.0, abs=1e-5)

    def test_domain(self):
        for bad in (0.0, 0.5, 0.9, -0.1):
            with pytest.raises(ValueError):
                iota_fixed_point(bad)


class TestStage2Boundedness:
    def test_constant_series_passes(self):
        steps = np.array([0, 10, 20, 30])
        iotas = np.full((4, 3), 2.0)
        report = stage2_boundedness_check(steps, iotas, t1=5, p=0.1)
        assert report["all_pass"]
        assert report["median_of_medians"] == pytest.approx(2.0)
        assert report["fixed_point"] == pytest.approx(math.log(9))

    def test_fixed_point_skipped_without_p(self):
        steps = np.array([0, 10])
        iotas = np.ones((2, 2))
        report = stage2_boundedness_check(steps, iotas, t1=5)
        assert report["fixed_point"] is None
        assert report["median_gap"] is None

    def test_blowup_detected(self):
        steps = np.array([0, 10, 20])
        iotas = np.array([[1.0], [1.0], [9.0]])
        report = stage2_boundedness_check(steps, iotas, t1=10)
        assert not report["all_pass"]  # sup 9 > 3 * 1 + 5

    def test_requires_stage2_rows(self):
        with pytest.raises(ValueError):
            stage2_boundedness_check(np.array([0, 5]), np.ones((2, 2)), t1=10)


class TestConcentrationSuite:
    def test_reference_rates(self):
        # Full-scale suite is exercised by the acceptance tests; this is a
        # fast smoke run at reduced trials.
        spec = ref_spec()
        report = concentration_suite(spec, n=20, m=20, sigma_0=0.01, p=0.1,
                                     trials=100, delta=0.01, seed=3)
        assert report["noise_geometry"]["pass_rate"] >= 0.97
        assert report["init_inner_products"]["pass_rate"] >= 0.97
        assert report["flip_count_per_step"]["pass_rate"] >= 0.95
        assert report["flip_count_per_sample"]["pass_rate"] >= 0.95
        assert report["flip_count_per_sample"]["interval_applies"]
        assert report["flip_count_per_sample"]["interval"] == pytest.approx([100.0, 300.0])

    def test_b4_threshold_arithmetic(self):
        # t >= 2 log(4n/delta) / p^2 with n = 200, delta = 0.05, p = 0.1
        threshold = 2 * math.log(4 * 200 / 0.05) / 0.01
        assert threshold == pytest.approx(1936.07, abs=0.01)
        assert 2000 >= threshold

    def test_p_zero_flip_counts(self):
        report = concentration_suite(ref_spec(), n=20, m=20, sigma_0=0.01, p=0.0,
                                     trials=100, delta=0.01, seed=4)
        assert report["flip_count_per_step"]["pass_rate"] == 1.0
        assert not report["flip_count_per_sample"]["interval_applies"]

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            concentration_suite(ref_spec(), n=20, m=20, sigma_0=0.01, p=0.1, trials=10)

    def test_determinism(self):
        a = concentration_suite(ref_spec(), n=20, m=20, sigma_0=0.01, p=0.1,
                                trials=100, seed=5)
        b = concentration_suite(ref_spec(), n=20, m=20, sigma_0=0.01, p=0.1,
                                trials=100, seed=5)
        assert a == b

    def test_report_independent_of_pool_size(self, pool_sizes, monkeypatch):
        # 137 trials end in a partial block; every trial of every suite runs once.
        real = theory.substream
        drawn = []
        monkeypatch.setattr(theory, "substream",
                            lambda seed, *indices: drawn.append(indices) or real(seed, *indices))
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to expose a lost update
        try:
            for size in (1, 2, 3):
                drawn.clear()
                pool_sizes.force(size)
                reports.append(concentration_suite(ref_spec(), n=20, m=20, sigma_0=0.01,
                                                   p=0.1, trials=137, seed=6))
                assert sorted(drawn) == [(k, t) for k in (1, 2, 3, 4) for t in range(137)]
        finally:
            sys.setswitchinterval(interval)
        assert pool_sizes.used == [1, 2, 3]
        assert reports[0] == reports[1] == reports[2]

    def test_pool_capped_at_block_count(self, pool_sizes):
        pool_sizes.force(64)
        concentration_suite(ref_spec(), n=20, m=20, sigma_0=0.01, p=0.1, trials=100, seed=6)
        assert pool_sizes.used == [math.ceil(100 / theory._BLOCK)]

    def test_trial_exception_propagates(self, pool_sizes, monkeypatch):
        real = theory.substream

        def substream(seed, *indices):
            if indices == (3, 50):
                raise RuntimeError("trial 50 failed")
            return real(seed, *indices)

        monkeypatch.setattr(theory, "substream", substream)
        pool_sizes.force(2)
        with pytest.raises(RuntimeError, match="trial 50 failed"):
            concentration_suite(ref_spec(), n=20, m=20, sigma_0=0.01, p=0.1, trials=100,
                                seed=6)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Force the suite's worker budget and record the size of each pool it opens."""
    used = []

    class RecordingPool(theory.ThreadPoolExecutor):
        def __init__(self, max_workers):
            used.append(max_workers)
            super().__init__(max_workers=max_workers)

    def force(size):
        monkeypatch.setattr(theory, "worker_budget", lambda: size)

    monkeypatch.setattr(theory, "ThreadPoolExecutor", RecordingPool)
    return SimpleNamespace(force=force, used=used)


class TestWorkerBudget:
    @pytest.mark.parametrize("env, cores, budget", [
        ({}, 4, 1),  # unpinned BLAS counts as using every core
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "3"}, 2, 1),  # never below one worker
        ({"OMP_NUM_THREADS": "1"}, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "2"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 4, 1),
    ])
    def test_cores_over_blas_threads(self, monkeypatch, env, cores, budget):
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        assert worker_budget() == budget

    @pytest.mark.parametrize("count, cores", [(6, 6), (None, 1)])
    def test_cores_without_an_affinity_call(self, monkeypatch, count, cores):
        # Where os has no sched_getaffinity, the usable cores are os.cpu_count(), or 1 when
        # that is unknown; the budget follows.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert usable_cores() == cores
        assert worker_budget() == cores


class TestTheoremVerdicts:
    def test_gd_verdict(self):
        rows = [row(2000, clean_train_loss=0.01, test_error_01=0.4)]
        verdict = empirical_verdicts(make_trace(rows), False, 200, 2000, epsilon=0.05,
                                     c_test=1.0)
        assert verdict["algorithm"] == "GD"
        assert verdict["passed"]

    def test_gd_verdict_fails_when_test_error_small(self):
        rows = [row(2000, clean_train_loss=0.01, test_error_01=0.05)]
        verdict = empirical_verdicts(make_trace(rows), False, 200, 2000, epsilon=0.05,
                                     c_test=1.0)
        assert not verdict["passed"]

    def test_lngd_verdict_band_and_bound(self):
        rows = [row(2000, clean_train_loss=0.3, test_error_01=0.02)]
        verdict = empirical_verdicts(make_trace(rows), True, 200, 2000, epsilon=0.05,
                                     c_test=1.0)
        assert verdict["algorithm"] == "LNGD"
        # c_test = 1: bound 2 exp(-2000/40000) = 1.902, vacuous at this scale
        assert verdict["thresholds"]["test_bound"] == pytest.approx(2 * math.exp(-0.05),
                                                                    rel=1e-12)
        assert verdict["thresholds"]["test_bound_vacuous"]
        assert verdict["passed"]

    def test_lngd_tuned_c_test(self):
        rows = [row(2000, clean_train_loss=0.3, test_error_01=0.06)]
        # c_test tuned so the bound is 0.05: 2 exp(-c 0.05) = 0.05
        c = math.log(2 / 0.05) / 0.05
        verdict = empirical_verdicts(make_trace(rows), True, 200, 2000, epsilon=0.05,
                                     c_test=c)
        assert verdict["thresholds"]["test_bound"] == pytest.approx(0.05, rel=1e-9)
        assert not verdict["test_ok"]
