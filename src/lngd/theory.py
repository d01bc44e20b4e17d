"""Executable form of the regime assumptions, bounds, and predicted outcomes.

Asymptotic statements cannot be binary-checked, so every validator reports
the evaluated left/right quantities and their ratio alongside pass/fail.
Hidden constants default to 1 and explicit polylog factors are instantiated
as log d; tilde-hidden polylogs are dropped. All functions are pure: same
inputs, same report.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cores import worker_budget
from .data import SignalSpec, compute_snr, generate_dataset
from .network import init_network
from .streams import substream
from .training import LabelNoiseSpec, TrainTrace, sample_multipliers

__all__ = [
    "AssumptionItem",
    "AssumptionReport",
    "StageEstimate",
    "check_assumptions",
    "estimate_stage_times",
    "coefficient_envelope_monitor",
    "iota_fixed_point",
    "stage2_boundedness_check",
    "concentration_suite",
    "empirical_verdicts",
]


@dataclass(frozen=True)
class AssumptionItem:
    item: str  # e.g. "i.dimension_vs_n2"
    kind: str  # "lower" means lhs >= rhs required, "upper" means lhs <= rhs
    lhs: float
    rhs: float
    constant: float
    passed: bool
    ratio: float  # lhs / rhs; >= 1 passes "lower", <= 1 passes "upper"


@dataclass(frozen=True)
class AssumptionReport:
    items: tuple[AssumptionItem, ...]
    all_passed: bool

    def item(self, name: str) -> AssumptionItem:
        for it in self.items:
            if it.item == name:
                return it
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "items": [vars(it) for it in self.items],
        }


def _item(name: str, kind: str, lhs: float, rhs: float, constant: float) -> AssumptionItem:
    ratio = lhs / rhs if rhs != 0 else math.inf
    passed = (ratio >= 1.0) if kind == "lower" else (ratio <= 1.0)
    return AssumptionItem(item=name, kind=kind, lhs=float(lhs), rhs=float(rhs),
                          constant=constant, passed=bool(passed), ratio=float(ratio))


def check_assumptions(spec: SignalSpec, n: int, m: int, eta: float, sigma_0: float,
                      p: float, constants: dict[str, float] | None = None) -> AssumptionReport:
    """Evaluate the five training-regime conditions at the given configuration.

    Report-only: desk-scale configs routinely sit outside the asymptotic
    regime, so nothing here throws or blocks a run.
    """
    c = {k: 1.0 for k in ("i", "ii", "iii", "iv", "v")}
    if constants:
        c.update(constants)
    d = spec.d
    log_d = math.log(d)
    snr = compute_snr(spec)
    mu_sq = spec.mu_norm_sq
    sp2 = spec.sigma_p**2

    items = [
        _item("i.dimension_vs_n2", "lower", d, c["i"] * n * n, c["i"]),
        _item("i.dimension_vs_signal", "lower", d, c["i"] * n * mu_sq / sp2, c["i"]),
        _item("i.snr_vs_sqrt_n", "upper", snr, c["i"] / math.sqrt(n), c["i"]),
        _item("ii.width_vs_logd", "lower", m, c["ii"] * log_d, c["ii"]),
        _item("ii.samples_vs_logd", "lower", n, c["ii"] * log_d, c["ii"]),
        _item("iii.learning_rate", "upper", eta, c["iii"] / (sp2 * d), c["iii"]),
        _item("iv.init_lower", "lower", sigma_0,
              c["iv"] * n / (spec.sigma_p * d**0.75), c["iv"]),
        _item("iv.init_upper", "upper", sigma_0,
              c["iv"] * min(1.0 / (spec.mu_norm * d**0.625), 1.0 / (spec.sigma_p * math.sqrt(d))),
              c["iv"]),
        _item("v.flip_rate_lower", "lower", p, c["v"] * log_d / math.sqrt(m * n), c["v"]),
        _item("v.flip_rate_upper", "upper", p, 1.0 / c["v"], c["v"]),
    ]
    return AssumptionReport(items=tuple(items), all_passed=all(it.passed for it in items))


@dataclass(frozen=True)
class StageEstimate:
    """Stage-1 horizon T1 and stopping time T2 implied by the stated rates."""

    T1: float
    T2: float
    algorithm: str  # "GD" or "LNGD"
    constants_used: dict = field(default_factory=dict)
    invalid_reason: str | None = None


def estimate_stage_times(spec: SignalSpec, n: int, m: int, eta: float, sigma_0: float,
                         epsilon: float | None, which: str,
                         constant: float = 1.0) -> StageEstimate:
    """T1 = nm log(1/(sigma_0 sigma_p sqrt(d))) / (eta sigma_p^2 d), plus the
    per-algorithm stage-2 increment (unit hidden constants by default)."""
    if which not in ("GD", "LNGD"):
        raise ValueError(f"which must be GD or LNGD, got {which!r}")
    constants = {"hidden": constant}
    init_scale = sigma_0 * spec.sigma_p * math.sqrt(spec.d)
    sp2d = spec.sigma_p**2 * spec.d
    if init_scale >= 1.0:
        return StageEstimate(T1=math.nan, T2=math.nan, algorithm=which,
                             constants_used=constants,
                             invalid_reason=f"sigma_0 sigma_p sqrt(d) = {init_scale:.4g} >= 1 "
                                            "makes the stage-1 log nonpositive")
    t1 = constant * n * m * math.log(1.0 / init_scale) / (eta * sp2d)
    if which == "GD":
        if epsilon is None or not (0.0 < epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1) for GD, got {epsilon}")
        t2 = t1 + constant * m**3 * n / (eta * epsilon * sp2d)
    else:
        sig_scale = sigma_0 * spec.mu_norm
        if sig_scale >= 6.0:
            return StageEstimate(T1=t1, T2=math.nan, algorithm=which,
                                 constants_used=constants,
                                 invalid_reason=f"sigma_0 |mu| = {sig_scale:.4g} >= 6 makes "
                                                "the stage-2 log nonpositive")
        t2 = t1 + constant * m * math.log(6.0 / sig_scale) / (eta * spec.mu_norm_sq)
    return StageEstimate(T1=t1, T2=t2, algorithm=which, constants_used=constants)


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
    return _drift_balance(p)


def _drift_balance(p: float) -> float:
    return math.log((1.0 - p) / p)


def stage2_boundedness_check(iota_steps: np.ndarray, iota_values: np.ndarray, t1: float,
                             p: float | None = None,
                             band: tuple[float, float] = (3.0, 5.0)) -> dict:
    """Per-sample boundedness of iota after the stage-1 horizon.

    For each sample: sup_{t >= T1} iota_i <= band[0] * iota_i(T1) + band[1].
    When a flip rate in (0, 0.5) is supplied, also reports how the
    across-sample median of stage-2 medians compares to the analytic fixed
    point; otherwise that comparison is skipped.
    """
    mask = iota_steps >= t1
    if not np.any(mask):
        raise ValueError(f"no logged steps at or after T1 = {t1}")
    stage2 = iota_values[mask]  # (k, n)
    at_t1 = stage2[0]
    sup = stage2.max(axis=0)
    threshold = band[0] * at_t1 + band[1]
    per_sample_pass = sup <= threshold
    medians = np.median(stage2, axis=0)
    report = {
        "t1": float(t1),
        "band": band,
        "per_sample_pass": per_sample_pass,
        "all_pass": bool(per_sample_pass.all()),
        "sup": sup,
        "sample_medians": medians,
        "median_of_medians": float(np.median(medians)),
        "fixed_point": None,
        "median_gap": None,
    }
    if p is not None and 0.0 < p < 0.5:
        fp = iota_fixed_point(p)
        report["fixed_point"] = fp
        report["median_gap"] = float(abs(report["median_of_medians"] - fp))
    return report


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
        net = init_network(d, m, 2, sigma_0, rng)
        mu_proj = (spec.mu @ net.weights).reshape(2, m)  # rows: j=+1, j=-1
        xi_proj = (ds.noise_matrix @ net.weights).reshape(n, 2, m)
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


def empirical_verdicts(trace: TrainTrace, epsilon: float = 0.05, c_test: float = 1.0,
                     gd_error_floor: float = 0.24, gd_slack: float = 0.04,
                     lngd_band: tuple[float, float] = (0.1, 1.5)) -> dict:
    """Empirical verdict for the run's algorithm, judged on the final row.

    Standard GD (no label noise): clean train loss <= epsilon and test error
    >= gd_error_floor - gd_slack. Label-noise GD: clean train loss inside
    lngd_band and test error <= 2 exp(-c_test d / n^2). With unit c_test the
    test bound is vacuous at desk scale (documented in the report).
    """
    final = trace.final
    d, n = trace.d, trace.n
    if trace.noise_kind == "none":
        train_ok = final.clean_train_loss <= epsilon
        test_ok = final.test_error_01 >= gd_error_floor - gd_slack
        return {
            "algorithm": "GD",
            "train_loss_final": final.clean_train_loss,
            "test_error_final": final.test_error_01,
            "train_ok": bool(train_ok),
            "test_ok": bool(test_ok),
            "passed": bool(train_ok and test_ok),
            "thresholds": {"epsilon": epsilon, "error_floor": gd_error_floor,
                           "slack": gd_slack},
        }
    bound = 2.0 * math.exp(-c_test * d / n**2)
    train_ok = lngd_band[0] <= final.clean_train_loss <= lngd_band[1]
    test_ok = final.test_error_01 <= bound
    return {
        "algorithm": "LNGD",
        "train_loss_final": final.clean_train_loss,
        "test_error_final": final.test_error_01,
        "train_ok": bool(train_ok),
        "test_ok": bool(test_ok),
        "passed": bool(train_ok and test_ok),
        "thresholds": {"band": list(lngd_band), "c_test": c_test, "test_bound": bound,
                       "test_bound_vacuous": bool(bound >= 1.0)},
    }
