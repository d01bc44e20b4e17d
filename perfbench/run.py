"""Benchmark for lngd: three CLI workloads, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload dynamics-s5 --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the benchmark writes the
workload's config from ``--seed``, then runs the ``lngd`` command in a
child process (``--workers 1``, BLAS pinned to one thread), one at a time,
repeating while a further command fits in ``--seconds``. At least one
command always runs. Every command's outputs are checked.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
command twice, once plain and once under ``traced.py``, which wraps the
functions of each ``src/lngd`` module, and reports the per-layer metrics
plus the tracing overhead (traced minus plain wall time). ``--workload all``
runs every workload in turn, each in its own process, and prints their
metrics as ``<workload>.<metric>``. ``--tiny`` shrinks every workload for the
smoke test. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; lines before it that
start with ``#`` record the environment, the checks and the layer shares.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    WORKLOADS,
    Checks,
    Workload,
    check_outputs,
    computed_counts,
    operations,
    output_digests,
    work_units,
)

HERE = Path(__file__).resolve().parent
SRC = Path("src")
WORK_ROOT = Path(".perfbench")
BLAS_THREADS = "1"
SETUP_REPEATS = 15
HARD_LIMIT_S = 170.0  # a run, its commands included, must end by then
MIB = 1024.0 * 1024.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "work_per_s": "op/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "output_mb": "MiB",
    "ok_frac": "frac",
}

# Traced layer -> the statistics reported for it.
LAYER_STATS = {
    "network.forward_backward": ("calls", "self_s", "p50_ms", "p99_ms"),
    "training.run_training": ("calls", "self_s"),
    "training.sample_multipliers": ("calls", "self_s"),
    "decomposition.update_coefficients": ("calls", "self_s"),
    "decomposition.iota_all": ("calls", "self_s"),
    "network.zero_one_error": ("calls", "self_s", "p50_ms"),
    "io.emit_outputs": ("self_s",),
    "io.write_coefficients_csv": ("calls", "self_s"),
    "io.write_trace_csv": ("self_s",),
    "data.generate_dataset": ("calls", "self_s"),
    "network.init_network": ("calls", "self_s"),
    "streams.stream": ("calls",),
    "streams.substream": ("calls",),
    "theory.concentration_suite": ("self_s",),
    "theory.empirical_verdicts": ("self_s",),
    "theory.coefficient_envelope_monitor": ("self_s",),
    "experiments.run_dynamics": ("self_s",),
    "experiments.run_heatmap": ("self_s",),
    "config.parse_config": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "p99_ms": "ms"}
OTHER_LAYER_UNITS = {
    "training.trace_rows": "count",
    "io.bytes_written": "bytes",
    "io.files_written": "count",
    "network.step_flops": "flops-computed",
    "network.step_bytes": "bytes-computed",
    "network.eval_flops": "flops-computed",
    "network.eval_bytes": "bytes-computed",
    "data.draw_flops": "flops-computed",
    "data.bytes_generated": "bytes-computed",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    units = {f"{layer}.{stat}": STAT_UNITS[stat]
             for layer, stats in LAYER_STATS.items() for stat in stats}
    units.update(OTHER_LAYER_UNITS)
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here: the program does not start."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.resolve()),
                                                      env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    """Runs the commands of one workload and collects what they measured."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, started: float):
        self.workload = workload
        self.cfg = workload.make_config(seed, tiny)
        self.tiny = tiny
        self.started = started
        self.env = child_env()
        self.work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
        self.checks = Checks()
        self.attempted = 0
        self.failed = 0
        self.digests: list[dict] = []
        self.values: dict = {}
        self.count = 0

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=1))
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, env=self.env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=max(1.0, self.remaining()))

    def environment(self) -> dict:
        proc = self._run([sys.executable, str(HERE / "probe.py"), "env"])
        if proc.returncode != 0:
            raise BenchError(f"environment probe failed: {proc.stderr.strip()}")
        return json.loads(proc.stdout)

    def setup_times(self, repeats: int) -> list[float]:
        times = []
        for _ in range(repeats):
            t0 = time.monotonic()
            proc = self._run([sys.executable, str(HERE / "probe.py"), "setup",
                              str(self.config_path)])
            if proc.returncode != 0:
                raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
            times.append(float(proc.stdout) - t0)
        return times

    def command(self, traced: bool) -> dict:
        """Run the workload's command once; check its outputs."""
        self.count += 1
        out = self.work / f"cmd{self.count}"
        stats_path = self.work / f"stats{self.count}.json"
        args = [self.workload.command, "--config", str(self.config_path),
                "--out", str(out), *self.workload.args]
        prefix = ([sys.executable, str(HERE / "traced.py"), str(stats_path)] if traced
                  else [sys.executable, "-m", "lngd.cli"])
        ops = operations(self.workload, self.cfg)
        self.attempted += ops
        t0 = time.perf_counter()
        try:
            proc = self._run(prefix + args)
        except subprocess.TimeoutExpired:
            self.checks.add("exit_code", False, "command timed out")
            self.failed += ops
            return {}
        wall = time.perf_counter() - t0
        rec = {"wall_s": wall}
        if not self.checks.add("exit_code", proc.returncode == 0,
                               f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"):
            self.failed += ops
            return rec
        files = [p for p in out.iterdir() if p.is_file()]
        rec["output_bytes"] = sum(p.stat().st_size for p in files)
        rec["files"] = len(files)
        try:
            failed, self.values = check_outputs(self.workload, self.cfg, out, self.checks,
                                                self.tiny)
        except (OSError, KeyError, ValueError) as exc:
            self.checks.add("outputs_readable", False, repr(exc))
            failed = ops
        self.failed += min(failed, ops)
        self.digests.append(output_digests(out))
        if traced:
            rec["stats"] = json.loads(stats_path.read_text())
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def measure(self, seconds: float, trace: bool) -> list[dict]:
        """Repeat the command (plain, then traced when tracing) while time allows."""
        deadline = time.monotonic() + seconds
        rounds = []
        while True:
            t0 = time.monotonic()
            rounds.append([self.command(False)] + ([self.command(True)] if trace else []))
            took = time.monotonic() - t0
            if time.monotonic() + took > min(deadline, self.started + HARD_LIMIT_S - 10):
                return rounds

    def finish_checks(self) -> None:
        if len(self.digests) > 1:
            same = all(d == self.digests[0] for d in self.digests)
            self.checks.add("repeat_digests", same,
                            f"{len(self.digests)} commands on one seed")
        else:
            self.checks.results["repeat_digests"] = {
                "ok": True, "detail": "skipped: one command in this run"}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(runner: Runner, rounds: list[dict], setup: list[float]) -> dict:
    plain = [r[0] for r in rounds if "wall_s" in r[0]]
    work = work_units(runner.workload, runner.cfg)
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "wall_s": median([r["wall_s"] for r in plain]),
        "work_per_s": median([work / r["wall_s"] for r in plain]),
        "setup_s": median(setup),
        "peak_rss_mb": rss_kib / 1024.0,
        "output_mb": median([r.get("output_bytes", 0) for r in plain]) / MIB,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(runner: Runner, rounds: list[dict]) -> tuple[dict, list[str]]:
    pairs = [r for r in rounds if len(r) == 2 and "stats" in r[1]]
    traced = [r[1] for r in pairs]
    unmeasured = sorted({u for t in traced for u in t["stats"]["unmeasured"]})

    def stat(layer, name):
        key = {"p50_ms": "p50_s", "p99_ms": "p99_s"}.get(name, name)
        scale = 1000 if name.endswith("_ms") else 1
        return median([t["stats"]["layers"].get(layer, {}).get(key, 0) * scale
                       for t in traced])

    values = {f"{layer}.{s}": stat(layer, s)
              for layer, stats in LAYER_STATS.items() for s in stats}
    values["training.trace_rows"] = stat("training.trace_rows", "calls")
    values["io.bytes_written"] = median([t.get("output_bytes", 0) for t in traced])
    values["io.files_written"] = median([t.get("files", 0) for t in traced])
    values.update(computed_counts(runner.workload, runner.cfg))
    values["trace.wall_s"] = median([t["wall_s"] for t in traced])
    values["trace.overhead_s"] = median([t["wall_s"] - p["wall_s"] for p, t in pairs
                                         if "wall_s" in p])
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}, unmeasured


def layer_shares(metrics: dict) -> list[str]:
    wall = metrics["trace.wall_s"]["value"] or 1.0
    rows = sorted(((m["value"] / wall, name[: -len(".self_s")])
                   for name, m in metrics.items() if name.endswith(".self_s") and m["value"]),
                  reverse=True)
    return [f"{share:7.2%}  {layer}" for share, layer in rows]


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "lngd").rglob("*.py"))


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 started: float) -> dict:
    workload = WORKLOADS[name]
    with Runner(workload, seed, tiny, started) as runner:
        env = runner.environment()
        env.update({"blas_threads_pinned": int(BLAS_THREADS),
                    "src_lngd_lines": src_line_count()})
        print("# env " + json.dumps(env, sort_keys=True))
        # Half the cold starts before the commands and half after, so that the
        # median spans the run rather than one moment of a host whose speed drifts.
        repeats = 1 if tiny else SETUP_REPEATS
        setup = runner.setup_times(repeats - repeats // 2)
        rounds = runner.measure(seconds, trace)
        setup += runner.setup_times(repeats // 2)
        runner.finish_checks()
        if trace:
            metrics, unmeasured = per_layer(runner, rounds)
            print("# unmeasured " + json.dumps(unmeasured))
            for line in layer_shares(metrics):
                print("# share " + line)
        else:
            metrics = end_to_end(runner, rounds, setup)
        print("# values " + json.dumps(runner.values, sort_keys=True))
        print("# checks " + json.dumps(runner.checks.results, sort_keys=True))
        print("# walls " + json.dumps([[c.get("wall_s") for c in r] for r in rounds]))
        print(f"# commands {sum(len(r) for r in rounds)} workload={name} seed={seed} "
              f"closed-loop clients=1")
        return {"correct": runner.checks.ok and runner.failed == 0,
                "attempted": runner.attempted, "failed": runner.failed,
                "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    # A terminated run still kills and reaps its command and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "lngd" / "cli.py").is_file():
        print(f"error: no lngd sources under {SRC.resolve()}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.tiny, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Run each workload in its own process, so each has its own peak memory."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.Popen(argv + (["--tiny"] if args.tiny else []),
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate()
        finally:
            if proc.poll() is None:  # let the child stop its own command first
                proc.terminate()
                proc.wait()
        lines = stdout.splitlines()
        print("\n".join(f"# {name} {line.removeprefix('# ')}" for line in lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(stderr, file=sys.stderr, end="")
            return 2
        results[name] = json.loads(lines[-1])
        print(f"# {name} result {lines[-1]}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
