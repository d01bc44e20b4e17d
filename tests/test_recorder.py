"""The trace recorder: the forked and the in-process transports give the same runs, and a
forked recorder leaves no process behind.

The tier-1 suite runs with BLAS unpinned, where the worker budget is 1 and
runs never fork; these tests set the budget to force either transport.
"""

import json
import multiprocessing
import os
import pathlib
import signal
import threading
import time

import numpy as np
import pytest

import lngd.experiments as experiments
import lngd.recorder as recorder
from lngd.cli import main_cli
from lngd.config import parse_config
from lngd.data import generate_dataset
from lngd.decomposition import CoefficientStack, iota_all, logistic_loss
from lngd.experiments import _heatmap_unit, axis_aligned_spec, plan, run_dynamics
from lngd.io import fmt_float
from lngd.recorder import ForkedRecorder, Recorder
from lngd.streams import stream
from lngd.training import TRACE_DTYPE, LabelNoiseSpec

from helpers import paired_run, point_geometry, sha256_of

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def timed_out(signum, frame):
    raise TimeoutError("a test in this module ran for 120 s: a pipe is likely deadlocked")


@pytest.fixture(autouse=True)
def hang_guard():
    """Fail a test that runs past 120 s, as a deadlocked pipe would, instead of hanging."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
        assert listed == {name: sha256_of(out / name) for name in files}
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


def test_a_slow_child_makes_the_trainer_wait_on_its_one_thread(monkeypatch, tmp_path, capsys,
                                                               transport):
    # 101 logged states of about 36 KB each are more than the widened pipe holds, so while the
    # child sleeps in its build the trainer's writes wait on the pipe.
    config = config_from(tmp_path, None, **{**DYNAMICS_ABORTING, "n": 100, "m": 10,
                                            "steps": 200, "noise": {"kind": "flip", "p": 0.1}})
    transport(False)
    assert main_cli(["dynamics", "--config", str(config), "--out", str(tmp_path / "inproc")]) == 0
    threads, woke = tmp_path / "threads", tmp_path / "woke"
    real_serve = recorder._serve

    def serve(build, *args):  # runs in the child: its build sleeps while the states come in
        def slow_build():
            time.sleep(1.0)
            woke.write_text(repr(time.monotonic()))
            threads.write_text(str(threading.active_count()))
            return build()

        def finish(self):
            with threads.open("a") as fh:
                fh.write(str(threading.active_count()))
            return real_finish(self)

        real_finish = Recorder.finish
        Recorder.finish = finish  # the child's copy of the class
        return real_serve(slow_build, *args)

    sent = []
    real_send = ForkedRecorder.record
    monkeypatch.setattr(recorder, "_serve", serve)
    monkeypatch.setattr(ForkedRecorder, "record",
                        lambda self, *args: real_send(self, *args) or sent.append(time.monotonic()))
    forks = transport(True)
    assert main_cli(["dynamics", "--config", str(config), "--out", str(tmp_path / "forked")]) == 0
    no_child_left()
    assert len(forks) == 1
    assert threads.read_text() == "11"  # one thread while it builds, one when it finishes
    assert len(sent) == 101
    assert sent[-1] > float(woke.read_text())  # the trainer's writes waited for the child
    for path in (tmp_path / "inproc").iterdir():
        if path.name != "manifest.json":
            assert path.read_bytes() == (tmp_path / "forked" / path.name).read_bytes()


def tiny_recorder(n=10):
    """An in-process recorder of 3 arms on n points, its coefficients drawn at random."""
    spec = axis_aligned_spec(1.5, 0.5, 60)
    dataset = generate_dataset(spec, n, stream(1, "data"))
    geometry = point_geometry(np.zeros((60, 6)), dataset, np.ones(4), np.zeros((4, 60)))
    stack = CoefficientStack(geometry, 3)
    stack.coef[...] = np.random.default_rng(0).standard_normal(stack.coef.shape)
    return Recorder(geometry, stack, q=2, logs=1)


def test_trace_rows_take_each_class_of_rho_in_mask_order():
    # The recorder hands _trace_row each live arm's entries that flat indices pick, one row
    # per arm; the (j, r, i) order of the boolean mask keeps mean_rho_bar's bits.
    rec = tiny_recorder()
    for a, state in enumerate(rec.stack.states):
        same = np.broadcast_to(rec.geometry.same_class[:, None, :], state.rho.shape)
        assert np.array_equal(rec.stack.coef.take(rec.rho_bar_at[a]), state.rho[same])
        assert np.array_equal(rec.stack.coef.take(rec.rho_under_at[a]), state.rho[~same])


class SummarySpy:
    """Stands in for an arm's io.CoefficientDump and keeps the summary rows it is handed."""

    def __init__(self):
        self.summaries = []

    def write(self, step, gamma, rho, summary):
        self.summaries.append(summary)


@pytest.mark.parametrize("special", [False, True], ids=["finite", "inf-nan-signed-zero"])
def test_trace_rows_equal_each_arms_own_reductions(special):
    # One _trace_row call fills every live arm's row; each equals that arm's own 1-D
    # reductions bit for bit, and a stopped arm's row is left as it was. The summary handed to
    # the dump equals the zero-filled extrema of rho, and the ratio the zero-filled max rho_bar
    # over max(max_gamma, 1e-12), also where rho holds inf, nan and -0.0.
    rec = tiny_recorder(100)
    stack, geometry = rec.stack, rec.geometry
    n = len(geometry.labels)
    rng = np.random.default_rng(1)
    f, eps = rng.standard_normal((n, 3)), np.where(rng.random((n, 3)) < 0.3, -1.0, 1.0)
    stack.gamma[...] = rng.standard_normal(stack.gamma.shape)
    same = geometry.same_class[:, None, :]
    rho = stack.states[2].rho
    rho[...] = np.where(same, -np.abs(rho), np.abs(rho))  # both of arm 2's extrema get clamped
    if special:
        first_same, last_opp = np.flatnonzero(same[0, 0])[0], np.flatnonzero(~same[1, 0])[-1]
        rho = stack.states[0].rho
        rho[0, 0, first_same], rho[0, 1, first_same], rho[1, 0, last_opp] = np.inf, np.nan, -np.inf
        rho = stack.states[2].rho  # each extremum is a -0.0 that its clamp keeps
        rho[0, 1, first_same], rho[1, 2, last_opp] = -0.0, -0.0
        stack.gamma[2] = -np.abs(stack.gamma[2])  # max_gamma is below the ratio's floor
    rec.dumps = [SummarySpy() for _ in range(3)]
    stopped = rec.rows[1, 0].tobytes()
    rec.record(0, np.array([True, False, True]), f, eps, np.zeros((2, 3)))
    assert rec.rows[1, 0].tobytes() == stopped and not rec.dumps[1].summaries
    for a in (0, 2):
        state = stack.states[a]
        mask = np.broadcast_to(same, state.rho.shape)
        rho_bar, rho_under, iotas = state.rho[mask], state.rho[~mask], iota_all(state)
        margins = geometry.labels * f[:, a]
        # the test points sit at the origin: every f_test is 0, an error
        floor = max(float(state.gamma.max()), 1e-12)
        row = (0, np.mean(logistic_loss(margins)), np.mean(logistic_loss(eps[:, a] * margins)),
               1.0, state.gamma.max(), state.gamma.mean(), rho_bar.max(), rho_bar.mean(),
               rho_under.min(), np.where(mask, state.rho, 0.0).max() / floor, iotas.mean(),
               iotas.max(), np.sum(eps[:, a] < 0))
        got, expected = list(rec.rows[a, 0].tolist()), list(np.array(row, TRACE_DTYPE).tolist())
        # The ratio has the zero-filled value; a zero ratio keeps the summary's sign of zero.
        assert np.array_equal(got.pop(9), expected.pop(9), equal_nan=True)
        assert list(map(fmt_float, got)) == list(map(fmt_float, expected))
        assert np.array_equal(rec.iota[a, 0], iotas, equal_nan=True)
        summary = (state.gamma.max(), state.gamma.mean(), state.rho.max(where=mask, initial=0.0),
                   state.rho.min(where=~mask, initial=0.0))
        assert list(map(fmt_float, *rec.dumps[a].summaries)) == list(map(fmt_float, summary))
        assert fmt_float(rec.rows[a, 0].ratio_rho_over_gamma) == fmt_float(summary[2] / floor)
    if special:
        assert [fmt_float(v) for v in rec.dumps[0].summaries[0][2:]] == ["nan", "-inf"]
        assert [fmt_float(v) for v in rec.dumps[2].summaries[0][2:]] == ["-0", "-0"]
        assert [fmt_float(rec.rows[a, 0].ratio_rho_over_gamma) for a in (0, 2)] == ["nan", "-0"]


@pytest.mark.parametrize("fork", [False, True], ids=["in-process", "forked"])
def test_the_summary_and_the_ratio_read_the_trace_row(fork, tmp_path, capsys, transport):
    # One definition per statistic: each summary line is its step's trace row, with max_rho_bar
    # clamped at 0 from below and min_rho_under at 0 from above, and each row's ratio is its
    # clamped max_rho_bar over max(max_gamma, 1e-12), bit for bit.
    config = config_from(tmp_path, None, **{**DYNAMICS_ABORTING, "noise": {"kind": "flip",
                                                                           "p": 0.1}})
    forks = transport(fork)
    assert main_cli(["dynamics", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    no_child_left()
    assert len(forks) == fork
    for label in ("standard", "label_noise"):
        header, *trace = [line.split(",") for line in
                          (tmp_path / "run" / f"trace_{label}.csv").read_text().splitlines()]
        rows = {line[0]: dict(zip(header, line)) for line in trace}
        _, *summary = [line.split(",") for line in (tmp_path / "run" / f"coefficients_{label}"
                                                     "_summary.csv").read_text().splitlines()]
        assert [line[0] for line in summary] == ["0", "6", "12", "18", "24", "30", "36", "40"]
        for step, max_gamma, mean_gamma, max_rho_bar, min_rho_under in summary:
            row = rows[step]
            assert (max_gamma, mean_gamma) == (row["max_gamma"], row["mean_gamma"])
            assert max_rho_bar == fmt_float(max(float(row["max_rho_bar"]), 0.0))
            assert min_rho_under == fmt_float(min(float(row["min_rho_under"]), 0.0))
        assert len(rows) == 21 and float(rows["40"]["max_rho_bar"]) > 0.0
        for row in rows.values():
            top = max(float(row["max_rho_bar"]), 0.0)
            assert float(row["ratio_rho_over_gamma"]) == top / max(float(row["max_gamma"]), 1e-12)


def small_run(**kwargs):
    run = paired_run(axis_aligned_spec(1.5, 0.5, 60), n=10, m=3, q=2, sigma_0=0.1, eta=0.1,
                     steps=40, noise=LabelNoiseSpec.flip(0.2), seed=11, log_stride=10, n_test=50)
    return run_dynamics(run, **kwargs)


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
        assert recorder._serve(tiny_recorder, frames_r, result_w) == 1
    finally:
        for fd in (frames_r, result_r, result_w):
            os.close(fd)


def test_runs_fork_only_where_allowed(monkeypatch, transport):
    [run] = plan("heatmap", parse_config(data={
        "d": 200, "n": 20, "mu_scale": 1.0, "sigma_p": 0.5, "p": 0.1, "eta": 1.0, "steps": 20,
        "seed": 0, "m": 4, "n_test": 50,
        "grid": {"snr_values": [0.06], "n_values": [20], "steps": 20, "seeds_per_cell": 1}}))
    forks = transport(True)
    with monkeypatch.context() as pool_worker:  # as in a heatmap pool worker
        pool_worker.setattr(multiprocessing, "parent_process", lambda: object())
        pooled = _heatmap_unit(run)
    assert not forks
    assert _heatmap_unit(run) == pooled
    assert len(forks) == 1
    monkeypatch.setattr(recorder.threading, "active_count", lambda: 2)
    assert _heatmap_unit(run) == pooled
    assert len(forks) == 1
    transport(False)
    small_run()
    assert not forks
    no_child_left()


def test_a_forced_run_leaves_only_the_files_it_lists(tmp_path, capsys):
    # The first run writes both dumps; the forced rerun aborts at step 0 and writes none.
    out = tmp_path / "run"
    for changes, force in ((DYNAMICS_ABORTING, []), (DYNAMICS_ABORTING_AT_0, ["--force"])):
        config = config_from(tmp_path, None, **changes)
        assert main_cli(["dynamics", "--config", str(config), "--out", str(out), *force]) == 2
        listed = json.loads((out / "manifest.json").read_text())["files"]
        assert sorted(path.name for path in out.iterdir()) == sorted([*listed, "manifest.json"])
    assert not any(name.startswith("coefficients_") for name in listed)


def capped(real, cap, calls):
    """``real`` (os.writev or os.readv) moving at most ``cap`` bytes a call, counted in
    ``calls``."""
    def move(fd, buffers):
        calls.append(1)
        cut, left = [], cap
        for buffer in buffers:
            cut.append(buffer[:left])
            left -= len(cut[-1])
            if not left:
                break
        return real(fd, cut)

    return move


def test_vectored_pipe_helpers_resume_partial_transfers(monkeypatch):
    # More bytes than an unwidened 64 KiB pipe holds, over arrays of several dtypes and sizes;
    # each call moves at most a few KB, so transfers stop inside and between arrays.
    rng = np.random.default_rng(3)
    sent = [np.array([7]), rng.random(5) < 0.5, rng.standard_normal((90, 101)),
            np.empty((0, 4)), rng.standard_normal(3), np.arange(4000)]
    total = sum(array.nbytes for array in sent)
    assert total > 1 << 16
    writes, reads = [], []
    monkeypatch.setattr(os, "writev", capped(os.writev, 4099, writes))
    monkeypatch.setattr(os, "readv", capped(os.readv, 3001, reads))
    got = [np.empty_like(array) for array in sent]
    r, w = os.pipe()
    try:
        writer = threading.Thread(target=recorder._write_all, args=(w, sent))
        writer.start()
        recorder._read_into(r, got)
        writer.join()
    finally:
        os.close(r)
        os.close(w)
    for ours, theirs in zip(got, sent):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    assert len(writes) >= total / 4099 and len(reads) >= total / 3001

    # A writer that closes mid-payload ends the read with EOFError.
    r, w = os.pipe()

    def half():
        recorder._write_all(w, [sent[0], sent[1], sent[2][:45]])
        os.close(w)

    try:
        writer = threading.Thread(target=half)
        writer.start()
        with pytest.raises(EOFError):
            recorder._read_into(r, got)
        writer.join()
    finally:
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list")
def test_forked_runs_leave_no_descriptor_open(monkeypatch, transport):
    forks = transport(True)

    def broken(self, t, *args):
        raise ValueError("record failed")

    def observer(step, state, dataset):
        if step == 20:
            raise KeyError("observer failed")

    before = sorted(os.listdir("/proc/self/fd"))
    small_run()
    with monkeypatch.context() as patch:
        patch.setattr(Recorder, "record", broken)
        with pytest.raises(RuntimeError, match="recorder process failed"):
            small_run()
    with pytest.raises(KeyError, match="observer failed"):
        small_run(observers={"standard": observer})
    assert len(forks) == 3
    no_child_left()
    assert sorted(os.listdir("/proc/self/fd")) == before
