"""Executable form of the regime assumptions, bounds, and predicted outcomes.

Asymptotic statements cannot be binary-checked, so every validator reports
the evaluated left/right quantities and their ratio alongside pass/fail.
Hidden constants are 1 and explicit polylog factors are instantiated as
log d; tilde-hidden polylogs are dropped. Each report is the JSON block it
is written as. All functions are pure: same inputs, same report.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .cores import worker_budget
from .data import SignalSpec, generate_dataset
from .network import init_network
from .streams import substream
from .training import LabelNoiseSpec, TrainTrace, sample_multipliers

__all__ = [
    "check_assumptions",
    "estimate_stage_times",
    "coefficient_envelope_monitor",
    "iota_fixed_point",
    "stage2_boundedness_check",
    "concentration_suite",
    "empirical_verdicts",
]

STAGE2_BAND = (3.0, 5.0)  # sup_{t >= T1} iota_i <= 3 iota_i(T1) + 5
GD_ERROR_FLOOR, GD_SLACK = 0.24, 0.04  # GD's final test error is at least 0.24 - 0.04
LNGD_BAND = (0.1, 1.5)  # label-noise GD's final clean train loss


def check_assumptions(mu_norm: float, sigma_p: float, d: int, n: int, m: int, eta: float,
                      sigma_0: float, p: float) -> dict:
    """The five training-regime conditions at |mu| = ``mu_norm``: the payload of
    ``assumption_report.json``.

    ``items`` lists each condition as {item, kind, lhs, rhs, constant, passed,
    ratio}: "lower" requires lhs >= rhs and "upper" lhs <= rhs, so ratio =
    lhs / rhs passes at >= 1 and <= 1 respectively. Only |mu| is read, so any
    d can be described. Report-only: desk-scale configs routinely sit outside
    the asymptotic regime, so nothing here throws or blocks a run.
    """
    log_d = math.log(d)
    mu_sq = mu_norm * mu_norm
    sp2 = sigma_p**2
    conditions = [
        ("i.dimension_vs_n2", "lower", d, n * n),
        ("i.dimension_vs_signal", "lower", d, n * mu_sq / sp2),
        ("i.snr_vs_sqrt_n", "upper", mu_norm / (sigma_p * math.sqrt(d)), 1.0 / math.sqrt(n)),
        ("ii.width_vs_logd", "lower", m, log_d),
        ("ii.samples_vs_logd", "lower", n, log_d),
        ("iii.learning_rate", "upper", eta, 1.0 / (sp2 * d)),
        ("iv.init_lower", "lower", sigma_0, n / (sigma_p * d**0.75)),
        ("iv.init_upper", "upper", sigma_0,
         min(1.0 / (mu_norm * d**0.625), 1.0 / (sigma_p * math.sqrt(d)))),
        ("v.flip_rate_lower", "lower", p, log_d / math.sqrt(m * n)),
        ("v.flip_rate_upper", "upper", p, 1.0),
    ]
    items = []
    for name, kind, lhs, rhs in conditions:
        ratio = lhs / rhs if rhs != 0 else math.inf
        passed = ratio >= 1.0 if kind == "lower" else ratio <= 1.0
        items.append({"item": name, "kind": kind, "lhs": float(lhs), "rhs": float(rhs),
                      "constant": 1.0, "passed": passed, "ratio": float(ratio)})
    return {"all_passed": all(it["passed"] for it in items), "items": items}


def estimate_stage_times(mu_norm: float, sigma_p: float, d: int, n: int, m: int, eta: float,
                         sigma_0: float, epsilon: float) -> dict:
    """The ``stage_times`` block of ``reports.json``: {"GD": ..., "LNGD": ...}.

    Both algorithms share the stage-1 horizon
    T1 = nm log(1/(sigma_0 sigma_p sqrt(d))) / (eta sigma_p^2 d); T2 adds the
    algorithm's stage-2 increment, m^3 n / (eta epsilon sigma_p^2 d) for GD and
    m log(6/(sigma_0 |mu|)) / (eta |mu|^2) for LNGD (unit hidden constants).
    A time whose log is not positive and finite is NaN, and ``invalid_reason``
    says why.
    """
    if epsilon is None or not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1) for GD, got {epsilon}")

    def entry(algorithm: str, t1: float, t2: float, invalid_reason: str | None = None) -> dict:
        return {"T1": t1, "T2": t2, "algorithm": algorithm, "constants_used": {"hidden": 1.0},
                "invalid_reason": invalid_reason}

    init_scale = sigma_0 * sigma_p * math.sqrt(d)
    if not 0.0 < init_scale < 1.0:
        reason = (f"sigma_0 sigma_p sqrt(d) = {init_scale:.4g} >= 1 makes the stage-1 log "
                  "nonpositive" if init_scale else
                  "sigma_0 sigma_p sqrt(d) = 0 makes the stage-1 log infinite")
        return {alg: entry(alg, math.nan, math.nan, reason) for alg in ("GD", "LNGD")}
    sp2d = sigma_p**2 * d
    t1 = n * m * math.log(1.0 / init_scale) / (eta * sp2d)
    sig_scale = sigma_0 * mu_norm
    if sig_scale >= 6.0:
        lngd = entry("LNGD", t1, math.nan, f"sigma_0 |mu| = {sig_scale:.4g} >= 6 makes "
                                           "the stage-2 log nonpositive")
    else:
        t2 = t1 + m * math.log(6.0 / sig_scale) / (eta * (mu_norm * mu_norm))
        lngd = entry("LNGD", t1, t2)
    return {"GD": entry("GD", t1, t1 + m**3 * n / (eta * epsilon * sp2d)), "LNGD": lngd}


def coefficient_envelope_monitor(trace: TrainTrace, t_star: int) -> dict:
    """Check the logarithmic coefficient envelope alpha = 4 log(T*) per logged row.

    Works from the trace's coefficient summaries: max_gamma and max_rho_bar
    must stay in [0, alpha] (via the means for the sign side), min_rho_under
    in [-alpha, 0]. Violations are listed, never silently dropped.
    """
    if t_star < 2:
        t_star = 2
    alpha = 4.0 * math.log(t_star)
    violations = []
    for row in trace.rows:
        checks = [
            ("max_gamma<=alpha", row.max_gamma <= alpha, row.max_gamma),
            ("mean_gamma>=0", row.mean_gamma >= 0.0, row.mean_gamma),
            ("max_rho_bar<=alpha", row.max_rho_bar <= alpha, row.max_rho_bar),
            ("mean_rho_bar>=0", row.mean_rho_bar >= 0.0, row.mean_rho_bar),
            ("min_rho_under>=-alpha", row.min_rho_under >= -alpha, row.min_rho_under),
            ("min_rho_under<=0", row.min_rho_under <= 0.0, row.min_rho_under),
        ]
        for name, ok, value in checks:
            if not ok:
                violations.append({"step": row.step, "check": name, "value": value,
                                   "alpha": alpha})
    return {"alpha": alpha, "t_star": t_star, "violations": violations,
            "violation_count": len(violations)}


def iota_fixed_point(p: float) -> float:
    """Zero-drift point log((1-p)/p) of the two-branch multiplicative process.

    Balancing the up-rate (1-p)/(1+e^x) against the down-rate p/(1+e^{-x})
    gives e^x = (1-p)/p.
    """
    if not (0.0 < p < 0.5):
        raise ValueError(f"p must be in (0, 0.5), got {p}")
    return math.log((1.0 - p) / p)


def stage2_boundedness_check(iota_steps: np.ndarray, iota_values: np.ndarray, t1: float,
                             p: float | None = None) -> dict:
    """Per-sample boundedness of iota after the stage-1 horizon: the
    ``stage2_boundedness`` block of ``reports.json``.

    For each sample: sup_{t >= T1} iota_i <= STAGE2_BAND[0] * iota_i(T1) +
    STAGE2_BAND[1]. When a flip rate in (0, 0.5) is supplied, also reports how
    the across-sample median of stage-2 medians compares to the analytic fixed
    point; otherwise that comparison is None.
    """
    mask = iota_steps >= t1
    if not np.any(mask):
        raise ValueError(f"no logged steps at or after T1 = {t1}")
    stage2 = iota_values[mask]  # (k, n)
    threshold = STAGE2_BAND[0] * stage2[0] + STAGE2_BAND[1]
    median = float(np.median(np.median(stage2, axis=0)))
    fixed_point = iota_fixed_point(p) if p is not None and 0.0 < p < 0.5 else None
    return {
        "t1": float(t1),
        "band": STAGE2_BAND,
        "all_pass": bool((stage2.max(axis=0) <= threshold).all()),
        "median_of_medians": median,
        "fixed_point": fixed_point,
        "median_gap": None if fixed_point is None else float(abs(median - fixed_point)),
    }


_BLOCK = 25  # trials per pool task: 40 tasks at the default 1000 trials


def _count_passes(pool: ThreadPoolExecutor, trials: int, trial) -> list[int]:
    """Sum ``trial(t)``, a tuple of bools, over t < trials, one pool task per block of trials.

    Each trial draws only from its own substream, so the sums do not depend
    on the pool size or on which thread ran which block. An exception in a
    trial propagates.
    """
    def block(start: int) -> list[int]:
        stop = min(start + _BLOCK, trials)
        return [sum(col) for col in zip(*(trial(t) for t in range(start, stop)))]

    return [sum(col) for col in zip(*pool.map(block, range(0, trials, _BLOCK)))]


def concentration_suite(spec: SignalSpec, n: int, m: int, sigma_0: float, p: float,
                        trials: int = 1000, delta: float = 0.01, seed: int = 0,
                        t_b4: int = 2000, delta_b34: float = 0.05) -> dict:
    """Monte Carlo pass rates for the four high-probability events the
    analysis relies on: noise norms/overlaps, init inner products, per-step
    flip counts, and per-sample flip counts over time.

    Trial t of suite k draws from ``substream(seed, k, t)``. The trials run
    in blocks on ``cores.worker_budget()`` threads (numpy releases the GIL
    while it fills and multiplies arrays); the report is the same for every
    thread count.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    d, sp = spec.d, spec.sigma_p
    sp2d = sp**2 * d
    report: dict = {"trials": trials, "delta": delta, "delta_b34": delta_b34}

    # Noise norms in [sp^2 d / 2, 3 sp^2 d / 2]; pairwise overlaps bounded.
    overlap_bound = 2.0 * sp**2 * math.sqrt(d * math.log(4.0 * n * n / delta))

    def noise_geometry(t: int) -> tuple[bool]:
        ds = generate_dataset(spec, n, substream(seed, 1, t))
        norms = ds.xi_norms_sq
        gram = ds.noise_matrix @ ds.noise_matrix.T
        off = gram[~np.eye(n, dtype=bool)]
        ok = np.all((norms >= sp2d / 2) & (norms <= 1.5 * sp2d))
        return (bool(ok and np.all(np.abs(off) <= overlap_bound)),)

    # Init inner products: two-sided bounds on <w0, mu> and <w0, xi_i>,
    # including the max-over-filters anti-concentration side.
    mu_hi = math.sqrt(2.0 * math.log(8.0 * m / delta)) * sigma_0 * spec.mu_norm
    mu_lo = sigma_0 * spec.mu_norm / 2.0
    xi_hi = 2.0 * math.sqrt(math.log(8.0 * m * n / delta)) * sigma_0 * sp * math.sqrt(d)
    xi_lo = sigma_0 * sp * math.sqrt(d) / 4.0
    jsigns = np.array([1.0, -1.0])

    def init_inner_products(t: int) -> tuple[bool]:
        rng = substream(seed, 2, t)
        ds = generate_dataset(spec, n, rng)
        w0 = init_network(d, m, sigma_0, rng)
        mu_proj = (spec.mu @ w0).reshape(2, m)  # rows: j=+1, j=-1
        xi_proj = (ds.noise_matrix @ w0).reshape(n, 2, m)
        ok = np.all(np.abs(mu_proj) <= mu_hi)
        max_mu = (jsigns[:, None] * mu_proj).max(axis=1)
        ok = ok and np.all((max_mu >= mu_lo) & (max_mu <= mu_hi))
        ok = ok and np.all(np.abs(xi_proj) <= xi_hi)
        max_xi = (jsigns[None, :, None] * xi_proj).max(axis=2)  # (n, 2)
        return (bool(ok and np.all((max_xi >= xi_lo) & (max_xi <= xi_hi))),)

    # Per-step flip counts concentrate: |S_- - pn| within the Hoeffding band.
    tau = math.sqrt(n / 2.0 * math.log(4.0 / delta_b34))
    noise = LabelNoiseSpec.flip(p)

    def flip_count_per_step(t: int) -> tuple[bool]:
        eps = sample_multipliers(noise, n, substream(seed, 3, t))
        n_minus = int(np.sum(eps == -1.0))
        return (abs(n_minus - p * n) <= tau and abs((n - n_minus) - (1 - p) * n) <= tau,)

    # Per-sample flip counts over t steps: Hoeffding band, plus the interval
    # form [pt/2, 3pt/2] once t >= 2 log(4n/delta) / p^2.
    tau_t = math.sqrt(t_b4 / 2.0 * math.log(4.0 * n / delta_b34))
    interval_applies = p > 0 and t_b4 >= 2.0 * math.log(4.0 * n / delta_b34) / p**2

    def flip_count_per_sample(t: int) -> tuple[bool, bool]:
        flips = int(np.sum(substream(seed, 4, t).random(t_b4) < p))
        ok = abs(flips - p * t_b4) <= tau_t and abs((t_b4 - flips) - (1 - p) * t_b4) <= tau_t
        return ok, bool(interval_applies and p * t_b4 / 2.0 <= flips <= 1.5 * p * t_b4)

    workers = min(worker_budget(), math.ceil(trials / _BLOCK))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        (geometry,) = _count_passes(pool, trials, noise_geometry)
        (inner,) = _count_passes(pool, trials, init_inner_products)
        (per_step,) = _count_passes(pool, trials, flip_count_per_step)
        per_sample, interval_passes = _count_passes(pool, trials, flip_count_per_sample)
    report["noise_geometry"] = {"pass_rate": geometry / trials, "overlap_bound": overlap_bound,
                                "norm_range": [sp2d / 2, 1.5 * sp2d]}
    report["init_inner_products"] = {"pass_rate": inner / trials,
                                     "mu_bounds": [mu_lo, mu_hi]}
    report["flip_count_per_step"] = {"pass_rate": per_step / trials, "tau": tau,
                                     "expected_flips": p * n}
    report["flip_count_per_sample"] = {
        "pass_rate": per_sample / trials,
        "t": t_b4,
        "tau": tau_t,
        "interval_applies": bool(interval_applies),
        "interval": [p * t_b4 / 2.0, 1.5 * p * t_b4],
        "interval_pass_rate": (interval_passes / trials) if interval_applies else None,
    }
    return report


def empirical_verdicts(trace: TrainTrace, label_noise: bool, n: int, d: int, *,
                       epsilon: float, c_test: float) -> dict:
    """Empirical verdict for an arm trained on n points in d dimensions, judged on its
    trace's final row.

    Standard GD (``label_noise`` False): clean train loss <= epsilon and test
    error >= GD_ERROR_FLOOR - GD_SLACK. Label-noise GD: clean train loss inside
    LNGD_BAND and test error <= 2 exp(-c_test d / n^2). With unit c_test the
    test bound is vacuous at desk scale (documented in the report).
    """
    final = trace.final
    loss, error = final.clean_train_loss, final.test_error_01
    if label_noise:
        bound = 2.0 * math.exp(-c_test * d / n**2)
        train_ok = LNGD_BAND[0] <= loss <= LNGD_BAND[1]
        test_ok = error <= bound
        thresholds = {"band": list(LNGD_BAND), "c_test": c_test, "test_bound": bound,
                      "test_bound_vacuous": bool(bound >= 1.0)}
    else:
        train_ok = loss <= epsilon
        test_ok = error >= GD_ERROR_FLOOR - GD_SLACK
        thresholds = {"epsilon": epsilon, "error_floor": GD_ERROR_FLOOR, "slack": GD_SLACK}
    return {
        "algorithm": "LNGD" if label_noise else "GD",
        "train_loss_final": loss,
        "test_error_final": error,
        "train_ok": bool(train_ok),
        "test_ok": bool(test_ok),
        "passed": bool(train_ok and test_ok),
        "thresholds": thresholds,
    }
