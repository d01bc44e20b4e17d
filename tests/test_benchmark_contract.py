"""What the benchmark under ``perfbench/`` needs of the program, checked by reading it only.

The benchmark wraps ``lngd`` functions that it names by (module, name), and it
runs CLI commands on configs that it writes. A renamed function leaves its
layer unmeasured, and a new refusal fails a workload; these tests catch both
without running the benchmark or patching any module.
"""

import importlib
import sys
from pathlib import Path

import pytest

from lngd import cli
from lngd.config import parse_config
from lngd.experiments import plan

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("module, name", [(module, name) for module, name, _ in
                                          traced.SPANS + traced.COUNTS])
def test_every_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"lngd.{module}"), name, None))


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize("workload", WORKLOADS.values(), ids=WORKLOADS)
def test_every_workload_config_is_accepted(workload, tiny, tmp_path):
    config = parse_config(data=workload.make_config(1, tiny))
    if workload.command in cli._RUNS:
        assert plan(workload.command, config)
    args = [workload.command, "--config", str(tmp_path / "config.json"),
            "--out", str(tmp_path / "out"), *workload.args]
    assert cli._build_parser().parse_args(args).command == workload.command
