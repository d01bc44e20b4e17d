"""Memory properties of a run: no transient copy of the points or the init, and
no training points held once their products exist."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import lngd
import lngd.data as data
import lngd.experiments as experiments
import lngd.recorder as recorder
from lngd.cli import main_cli
from lngd.data import generate_dataset, stream_test_set
from lngd.decomposition import CoefficientStack, SpanProducts
from lngd.experiments import axis_aligned_spec, run_dynamics
from lngd.streams import derive_seed, stream
from lngd.training import LabelNoiseSpec

from helpers import paired_run, point_geometry

MIB = 1 << 20


def test_test_chunks_share_one_buffer(monkeypatch):
    spec = axis_aligned_spec(1.5, 0.5, 20)
    _, chunks = stream_test_set(spec, 10, np.random.default_rng(8))
    monkeypatch.setattr(data, "TEST_CHUNK_VALUES", 60)  # 3 rows of d = 20, read on the first draw
    first = next(chunks)
    rest = list(chunks)
    assert [len(x) for x in [first, *rest]] == [3, 3, 3, 1]
    assert all(np.shares_memory(x, first) for x in rest)


def test_init_weights_are_not_copied(small_spec, small_dataset):
    w0 = np.random.default_rng(4).standard_normal((small_spec.d, 6))
    geometry = point_geometry(w0, small_dataset, small_dataset.labels, small_dataset.noise_matrix)
    stack = CoefficientStack(geometry, 2)
    assert geometry.w0 is w0 and all(state.w0 is w0 for state in stack.states)
    # A paired run hands every arm the one init, read-only so no arm can move it.
    result = run_dynamics(paired_run(small_spec, n=8, m=3, q=2, sigma_0=0.1, eta=0.1, steps=2,
                                     noise=LabelNoiseSpec.flip(0.2), seed=5, log_stride=1,
                                     n_test=20))
    w0 = result.standard.state.w0
    assert result.label_noise.state.w0 is w0
    assert not w0.flags.writeable


def test_cli_import_leaves_multiprocessing_out():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(lngd.__file__).parents[1])}
    code = "import sys, lngd.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_traced_peak_of_a_section5_run_stays_near_its_arrays():
    # The section-5 shape for 10 steps. The run keeps the points, the (train,
    # test) products and w0, and holds one test chunk while it draws the test
    # set; everything else it allocates at once must fit in 1.5 MiB.
    d, n, m, n_test = 2000, 200, 20, 2000
    chunk_rows = min(data.TEST_CHUNK_VALUES // d, n_test)
    named = 8 * ((n + 1) * d  # points: xi_1..xi_n, mu
                 + (n + 1 + n_test) * (2 * m + n + 1)  # train and test SpanProducts
                 + d * 2 * m  # w0
                 + chunk_rows * d)  # one test chunk
    spec = axis_aligned_spec(2.0, 0.5, d)
    generate_dataset(spec, 2, np.random.default_rng(0))  # warm lazy imports and caches
    tracemalloc.start()
    try:
        run_dynamics(paired_run(spec, n=n, m=m, q=2, sigma_0=0.01, eta=0.5, steps=10,
                                noise=LabelNoiseSpec.flip(0.1), seed=1, log_stride=10,
                                n_test=n_test))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= named + 1.5 * MIB, f"peak {peak / MIB:.2f} MiB, arrays {named / MIB:.2f} MiB"


def digest(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


POINT_FREE = {
    "dynamics": {"d": 60, "n": 8, "mu_scale": 1.5, "sigma_p": 0.5, "p": 0.2, "eta": 0.1,
                 "steps": 20, "seed": 3, "m": 3, "sigma_0": 0.1, "n_test": 30,
                 "log_stride": 10},
    "heatmap": {"d": 60, "n": 8, "mu_scale": 1.5, "sigma_p": 0.5, "p": 0.2, "eta": 0.1,
                "steps": 20, "seed": 3, "m": 3, "sigma_0": 0.1, "n_test": 30,
                "grid": {"snr_values": [0.5], "n_values": [6, 10], "steps": 20, "eta": 1.0,
                         "seeds_per_cell": 1}},
}


def note(log, line):
    """Append ``line`` to ``log`` with this process's id, so forked children's calls count too."""
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {line}\n")


def noted(log, name, fn):
    return lambda *args, **kwargs: note(log, name) or fn(*args, **kwargs)


def noted_calls(log):
    """(made by this process, what) of every line of ``log``, in order."""
    lines = [line.split(" ", 1) for line in log.read_text().splitlines()]
    return [(int(pid) == os.getpid(), what) for pid, what in lines]


def note_draws(monkeypatch, log):
    """Note every ``generate_dataset`` call in ``lngd``, under each name a module holds it by."""
    real = data.generate_dataset
    draw = noted(log, "draw", real)
    for name, module in list(sys.modules.items()):
        if name == "lngd" or name.startswith("lngd."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, draw)


@pytest.mark.parametrize("fork", [False, True], ids=["in-process", "forked"])
@pytest.mark.parametrize("command", POINT_FREE)
def test_paired_runs_draw_their_points_once_and_drop_them(command, fork, tmp_path,
                                                           monkeypatch, capsys):
    # Every draw, drop and test-product build is logged with its process id, so the
    # forked recorder's calls count too.
    log = tmp_path / "calls.log"
    note_draws(monkeypatch, log)
    monkeypatch.setattr(data.Dataset, "drop_points", noted(log, "drop", data.Dataset.drop_points))
    real_init = recorder.Recorder.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        note(log, "test-products " + digest(self.test.span, self.test.w0))

    monkeypatch.setattr(recorder.Recorder, "__init__", init)
    monkeypatch.setattr(recorder, "worker_budget", lambda: 2 if fork else 1)
    runs = []
    real_train = experiments.run_training
    monkeypatch.setattr(experiments, "run_training",
                        lambda *args, **kwargs: runs.append(real_train(*args, **kwargs))
                        or runs[-1])
    config = POINT_FREE[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main_cli([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()

    seeds = ([config["seed"]] if command == "dynamics" else
             [derive_seed(config["seed"], 0, col, 0) for col in (0, 1)])
    during = noted_calls(log)
    here = [what for mine, what in during if mine]
    child = [what for mine, what in during if not mine]
    assert [what for what in here if what in ("draw", "drop")] == ["draw", "drop"] * len(seeds)
    assert [what for what in child if what in ("draw", "drop")] == ["drop"] * len(seeds) * fork
    built = [what.split()[1] for what in (child if fork else here)
             if what.startswith("test-products")]
    assert len(runs) == len(built) == len(seeds)
    for arms, seed, test_digest in zip(runs, seeds, built):
        dataset = arms[0].dataset
        assert all(arm.dataset is dataset for arm in arms)
        fresh = generate_dataset(dataset.spec, len(dataset), stream(seed, "data"))
        assert np.array_equal(dataset.labels, fresh.labels)
        for arm in arms:  # the points are gone: no weights, and no second draw
            with pytest.raises(RuntimeError, match="dropped"):
                arm.weights
        with pytest.raises(RuntimeError, match="dropped"):
            dataset.points
        assert dataset.xi_norms_sq.tobytes() == fresh.xi_norms_sq.tobytes()
        w0 = arms[0].state.w0
        _, test_chunks = stream_test_set(dataset.spec, config["n_test"], stream(seed, "test"))
        want = SpanProducts.of(test_chunks, config["n_test"], fresh, w0)
        assert test_digest == digest(want.span, want.w0)
    assert noted_calls(log) == during


@pytest.mark.parametrize("fork", [False, True], ids=["in-process", "forked"])
def test_decompose_draws_the_training_set_once(fork, tmp_path, monkeypatch, capsys):
    # decompose's observers read points while the arms train, so its run keeps the
    # points it drew instead of drawing them again.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(POINT_FREE["dynamics"]))
    run_dir = tmp_path / "run"
    assert main_cli(["dynamics", "--config", str(path), "--out", str(run_dir)]) == 0
    log = tmp_path / "calls.log"
    note_draws(monkeypatch, log)
    monkeypatch.setattr(recorder, "worker_budget", lambda: 2 if fork else 1)
    assert main_cli(["decompose", "--run", str(run_dir), "--assert"]) == 0
    capsys.readouterr()
    assert noted_calls(log) == [(True, "draw")]
