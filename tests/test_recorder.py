"""The trace recorder: the forked and the in-process transports give the same runs, and a
forked recorder leaves no process behind.

The tier-1 suite runs with BLAS unpinned, where the worker budget is 1 and
runs never fork; these tests set the budget to force either transport.
"""

import json
import os
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

import lngd.experiments as experiments
import lngd.recorder as recorder
from lngd.cli import main_cli
from lngd.data import generate_dataset
from lngd.experiments import SweepGrid, _run_heatmap_unit, axis_aligned_spec, run_dynamics
from lngd.io import sha256_file
from lngd.recorder import ForkedRecorder, Recorder
from lngd.streams import stream
from lngd.training import LabelNoiseSpec

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def transport(monkeypatch):
    """``use(fork)`` sets the worker budget so that runs fork (True) or not; returns the
    list that counts the forks made."""
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())

    def use(fork: bool):
        monkeypatch.setattr(recorder, "worker_budget", lambda: 2 if fork else 1)
        forks.clear()
        return forks

    return use


def config_from(tmp_path, name, **changes):
    base = json.loads((CONFIGS / name).read_text()) if name else {}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**base, **changes}))
    return path


ABORTING = {"d": 200, "n": 20, "m": 4, "mu_scale": 2.0, "sigma_p": 0.5, "p": 0.1, "eta": 0.5,
            "steps": 40, "seed": 1, "sigma_0": 0.1, "n_test": 50, "log_stride": 5,
            "noise_list": [{"kind": "flip", "p": 0.1},
                           {"kind": "uniform", "lo": 1e10, "hi": 2e10}]}

# The label-noise arm of a dynamics run: multipliers of order 1e10 overflow its outputs at
# step 17; a huge init overflows both arms' outputs at step 0, before any snapshot.
DYNAMICS_ABORTING = {**ABORTING, "noise_list": None, "log_stride": 2, "coeff_stride": 3,
                     "noise": {"kind": "uniform", "lo": 1e10, "hi": 2e10}}
DYNAMICS_ABORTING_AT_0 = {**DYNAMICS_ABORTING, "q": 4, "sigma_0": 1e80,
                          "noise": {"kind": "flip", "p": 0.1}}

CASES = {
    "section5-300": ("dynamics", "section5.json", {"steps": 300}),
    "noise-compare-8": ("noise-compare", "noise_variants.json", {"steps": 300}),
    "q4": ("q-sweep", "q_sweep.json", {"steps": 300, "q_list": [4]}),
    "one-arm-aborts": ("noise-compare", None, ABORTING),
    "dynamics-arm-aborts": ("dynamics", None, DYNAMICS_ABORTING),
    "dynamics-aborts-at-0": ("dynamics", None, DYNAMICS_ABORTING_AT_0),
}
DUMPS = {"section5-300": ("standard", "label_noise"), "dynamics-arm-aborts":
         ("standard", "label_noise"), "dynamics-aborts-at-0": ()}


@pytest.mark.parametrize("case", CASES)
def test_both_transports_write_the_same_bytes(case, tmp_path, monkeypatch, capsys, transport):
    command, name, changes = CASES[case]  # one paired run each
    config = config_from(tmp_path, name, **changes)
    runs = []
    real_train = experiments.run_training
    monkeypatch.setattr(experiments, "run_training",
                        lambda *args, **kwargs: runs.append(real_train(*args, **kwargs))
                        or runs[-1])
    outcome = {}
    for fork in (False, True):
        forks = transport(fork)
        runs.clear()
        code = main_cli([command, "--config", str(config), "--out", str(tmp_path / str(fork))])
        assert len(forks) == fork
        out = tmp_path / str(fork)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}
        listed = json.loads((out / "manifest.json").read_text())["files"]
        assert listed == {name: sha256_file(out / name) for name in files}
        outcome[fork] = (code, capsys.readouterr().out, files, list(runs))
        no_child_left()
    (code, stdout, files, arms), forked = outcome[False], outcome[True]
    assert (code, stdout, files) == forked[:3]
    assert len(files) >= 3
    if case in DUMPS:
        assert sorted(name for name in files if name.startswith("coefficients_")) == sorted(
            f"coefficients_{label}{part}.csv" for label in DUMPS[case]
            for part in ("", "_summary"))
    if case == "dynamics-arm-aborts":  # the dump stops at the last snapshot before step 17
        assert [arm.trace.aborted_at for arm in arms[0]] == [None, 17]
        for label, last in (("standard", b"\n40,"), ("label_noise", b"\n12,")):
            tail = files[f"coefficients_{label}.csv"].splitlines()[-1]
            assert (b"\n" + tail).startswith(last)
            assert files[f"coefficients_{label}_summary.csv"].splitlines()[-1].startswith(last[1:])
    for ours, theirs in zip(arms, forked[3], strict=True):
        for a, b in zip(ours, theirs, strict=True):
            assert a.trace.rows.tobytes() == b.trace.rows.tobytes()
            assert a.trace.iota_history.tobytes() == b.trace.iota_history.tobytes()
            assert (a.trace.aborted_at, a.trace.abort_reason, a.trace.rho_bar_monotone_violations) \
                == (b.trace.aborted_at, b.trace.abort_reason, b.trace.rho_bar_monotone_violations)
            assert np.array_equal(a.state.rho, b.state.rho)
    if case == "one-arm-aborts":
        assert code == 2
        assert [arm.aborted for arm in arms[0]] == [False, False, True]
        assert 0 < len(arms[0][2].trace.rows) < len(arms[0][0].trace.rows)


def test_a_failed_forced_run_leaves_no_manifest(monkeypatch, tmp_path, capsys, transport):
    config = config_from(tmp_path, "section5.json", steps=300)
    out = tmp_path / "run"
    assert main_cli(["dynamics", "--config", str(config), "--out", str(out)]) == 0
    old = (out / "coefficients_standard.csv").stat().st_size
    transport(True)
    real_record = Recorder.record

    def failing(self, t, *args):
        if t == 250:
            raise ValueError("record failed")
        real_record(self, t, *args)

    monkeypatch.setattr(Recorder, "record", failing)
    with pytest.raises(RuntimeError, match="recorder process failed"):
        main_cli(["dynamics", "--config", str(config), "--out", str(out), "--force"])
    no_child_left()
    assert not (out / "manifest.json").exists()
    assert 0 < (out / "coefficients_standard.csv").stat().st_size < old  # partial dumps stay


def test_a_full_child_holds_the_frame_budget_and_the_trainer_waits(monkeypatch, tmp_path,
                                                                  capsys, transport):
    config = config_from(tmp_path, None, **{**DYNAMICS_ABORTING, "n": 100, "m": 10,
                                            "steps": 200, "noise": {"kind": "flip", "p": 0.1}})
    frame_bytes = 8 * recorder._frame_size(100, 2, 20)
    monkeypatch.setattr(recorder, "FRAME_BUDGET", 4 * frame_bytes)
    transport(False)
    assert main_cli(["dynamics", "--config", str(config), "--out", str(tmp_path / "inproc")]) == 0
    held, woke = tmp_path / "held", tmp_path / "woke"
    real_serve = recorder._serve

    def serve(build, *args):  # runs in the child: its build sleeps while the frames come in
        def slow_build():
            time.sleep(1.0)
            held.write_text(str(tracemalloc.get_traced_memory()[0]))
            woke.write_text(repr(time.monotonic()))
            return build()

        tracemalloc.start()
        return real_serve(slow_build, *args)

    sent = []
    real_send = ForkedRecorder.record
    monkeypatch.setattr(recorder, "_serve", serve)
    monkeypatch.setattr(ForkedRecorder, "record",
                        lambda self, *args: real_send(self, *args) or sent.append(time.monotonic()))
    assert len(transport(True)) == 0
    assert main_cli(["dynamics", "--config", str(config), "--out", str(tmp_path / "forked")]) == 0
    no_child_left()
    # Python objects made since tracing started (queues, thread, buffer views) stay well below
    # a frame; without the bound the child would hold every frame sent while it slept.
    assert int(held.read_text()) <= recorder.FRAME_BUDGET + frame_bytes // 2
    assert len(sent) == 101
    assert sent[-1] > float(woke.read_text())  # the trainer's writes waited for the child
    for path in (tmp_path / "inproc").iterdir():
        if path.name != "manifest.json":
            assert path.read_bytes() == (tmp_path / "forked" / path.name).read_bytes()


def test_trace_rows_take_each_class_of_rho_in_mask_order():
    # _trace_row reduces the entries that flat indices pick; the (j, r, i) order of the boolean
    # mask keeps mean_rho_bar's bits.
    spec = axis_aligned_spec(1.5, 0.5, 60)
    dataset = generate_dataset(spec, 10, stream(1, "data"))
    rec = Recorder(np.ones(4), [np.zeros((4, 60))], dataset, np.zeros((60, 6)), q=2, arms=3,
                   logs=1)
    rec.stack.coef[...] = np.random.default_rng(0).standard_normal(rec.stack.coef.shape)
    for a, state in enumerate(rec.stack.states):
        same = np.broadcast_to(state.same_class_mask[:, None, :], state.rho.shape)
        assert np.array_equal(rec.stack.coef.take(rec.rho_bar_at[a]), state.rho[same])
        assert np.array_equal(rec.stack.coef.take(rec.rho_under_at[a]), state.rho[~same])


def small_run(**kwargs):
    return run_dynamics(axis_aligned_spec(1.5, 0.5, 60), n=10, m=3, q=2, sigma_0=0.1, eta=0.1,
                        steps=40, noise=LabelNoiseSpec.flip(0.2), seed=11, log_stride=10,
                        n_test=50, **kwargs)


def test_a_failing_child_raises_and_is_reaped(monkeypatch, transport):
    forks = transport(True)

    def broken(self, t, *args):
        raise ValueError("record failed")

    monkeypatch.setattr(Recorder, "record", broken)
    with pytest.raises(RuntimeError, match="recorder process failed with status 1"):
        small_run()
    assert len(forks) == 1
    no_child_left()


def test_an_observer_error_still_reaps_the_child(transport):
    forks = transport(True)

    def observer(step, state, dataset):
        if step == 20:
            raise KeyError("observer failed")

    with pytest.raises(KeyError, match="observer failed"):
        small_run(observers={"standard": observer})
    assert len(forks) == 1
    no_child_left()


def test_the_child_stops_at_end_of_input():
    # What the child sees when the parent dies: end of file before the finish frame.
    frames_r, frames_w = os.pipe()
    result_r, result_w = os.pipe()
    os.close(frames_w)
    try:
        assert recorder._serve(lambda: None, frames_r, result_w, n=3, arms=2, two_m=4) == 1
    finally:
        for fd in (frames_r, result_r, result_w):
            os.close(fd)


def test_runs_fork_only_where_allowed(monkeypatch, transport):
    grid = SweepGrid(snr_values=(0.06,), n_values=(20,), steps=20, seeds_per_cell=1, d=200,
                     m=4, n_test=50)
    forks = transport(True)
    pooled = _run_heatmap_unit(grid, 0, 0, 0, False)  # as in a heatmap pool worker
    assert not forks
    assert _run_heatmap_unit(grid, 0, 0, 0) == pooled
    assert len(forks) == 1
    monkeypatch.setattr(recorder.threading, "active_count", lambda: 2)
    assert _run_heatmap_unit(grid, 0, 0, 0) == pooled
    assert len(forks) == 1
    transport(False)
    small_run()
    assert not forks
    no_child_left()
