"""Smoke test of the benchmark itself, every workload at a tiny size.

Run from the repository root: python -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import traced  # noqa: E402
from workloads import WORKLOADS, Checks, check_outputs  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=175)


def comment(lines, tag):
    prefix = f"# {tag} "
    return json.loads(next(line for line in lines if line.startswith(prefix))[len(prefix):])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_with_its_unit_and_checks_outputs(workload, trace, section):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    checks = comment(lines, "checks")
    assert {"exit_code", "repeat_digests"} <= set(checks)
    assert all(c["ok"] for c in checks.values()), checks
    env = comment(lines, "env")
    assert env["blas_threads_pinned"] == 1 and env["src_lngd_lines"] > 0
    if trace:
        assert comment(lines, "unmeasured") == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "concentration", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tampered_output_fails_the_digest_check(tmp_path):
    workload = WORKLOADS["dynamics-s5"]
    cfg = workload.make_config(2, tiny=True)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    out = tmp_path / "run"
    subprocess.run([sys.executable, "-m", "lngd.cli", "dynamics", "--config",
                    str(tmp_path / "config.json"), "--out", str(out)], check=True,
                   capture_output=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    checks = Checks()
    assert check_outputs(workload, cfg, out, checks, tiny=True)[0] == 0 and checks.ok
    with open(out / "trace_standard.csv", "a") as fh:
        fh.write("\n")
    checks = Checks()
    check_outputs(workload, cfg, out, checks, tiny=True)
    assert not checks.results["manifest_digests"]["ok"]


def test_missing_function_is_reported_unmeasured(monkeypatch):
    monkeypatch.setattr(traced, "SPANS", [("network", "no_such_function", "network.gone")])
    monkeypatch.setattr(traced, "COUNTS", [("no_such_module", "f", "nowhere.f")])
    assert traced.install(traced.Tracer()) == ["network.gone", "nowhere.f"]
