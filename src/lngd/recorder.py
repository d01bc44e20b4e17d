"""The test side of a paired run's trace, kept off the training loop's core.

A ``Recorder`` owns what a trace row needs besides the step itself: a test
pre-activation buffer and the rows. What it reads of the points, the test
set's products and labels and the training labels, comes from the run's
``decomposition.RunGeometry``, the engine's only reader of points. It
reads the run's ``CoefficientStack`` where it lies: ``record`` fills every
live arm's row and iota at one logged step from the stack's coefficients
and hands the coefficients and the row's summary to the arm's
``io.CoefficientDump``, if any; ``finish`` returns every arm's rows and
iotas and the digests of the dump files written.

``start_recorder`` builds the geometry's test products in the recorder's
process, and runs the recorder in a child process, made with ``os.fork`` and
two pipes, when a second core is free (``cores.worker_budget() >= 2``) and
this process has no other thread and is no ``multiprocessing`` pool worker;
otherwise it runs in process, on the trainer's own stack. Both run the same
``Recorder`` code on the same numbers, so only the transport differs. The
parent writes each logged state from where its arrays lie, gathered by
``os.writev``; the child, on its one thread, reads it by ``os.readv`` into
its inherited copy of the stack and records it. The pipe is the only
queue: a trainer that is ahead of the child by a pipe's worth of states
waits. The child ends with ``os._exit``. The parent reaps it in ``close``,
which kills it first unless ``finish`` has already collected its result. If
the parent dies, the child reads end of file and exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import traceback

import numpy as np

from .cores import worker_budget
from .decomposition import CoefficientStack, RunGeometry, iota_all, sign_error
from .training import TRACE_DTYPE, _outputs, _trace_row

__all__ = ["Recorder", "ForkedRecorder", "start_recorder"]


class Recorder:
    """Trace rows and iotas of the arms of ``stack`` at ``logs`` logged steps, evaluated on
    the test products of ``geometry``, which must be built."""

    def __init__(self, geometry: RunGeometry, stack: CoefficientStack, q: int, logs: int,
                 dumps=()):
        self.geometry = geometry
        self.test = geometry.test
        self.test_labels = geometry.test_labels[:, None]  # a column, for sign_error
        self.test_label_rows = (geometry.test_labels < 0).astype(np.intp)
        self.q = q
        self.stack = stack
        n, arms, two_m = stack.drho.shape
        self.rho_bar_at, self.rho_under_at = stack.rho_offsets(geometry.same_class)
        self.pre = np.empty((len(self.test_labels), arms, two_m))
        self.rows = np.recarray((arms, logs), dtype=TRACE_DTYPE)
        self.iota = np.empty((arms, logs, n))
        self.logged = 0
        self.dumps = dumps  # arm a's io.CoefficientDump at [a], or none

    def record(self, t: int, live: np.ndarray, f: np.ndarray, eps: np.ndarray,
               signal_sum: np.ndarray) -> None:
        """Fill the next row of every live arm from the stack's coefficients at step ``t``.

        ``f`` and ``eps`` (n, A) are the training outputs and the multipliers
        drawn for step t, ``signal_sum`` (2, A) the signal patches' share of
        the outputs.
        """
        stack, k = self.stack, self.logged
        f_test, _ = _outputs(self.test.preactivations(stack.coef, out=self.pre), signal_sum,
                             self.test_label_rows, self.q, self.geometry.branch_sign)
        arms = np.flatnonzero(live)
        for a in arms:
            self.iota[a, k] = iota_all(stack.states[a])
        # (L, n) copies of f and eps: each live arm's means sum one contiguous row, as 1-D means do.
        summary = _trace_row(self.rows, k, t, live, self.geometry.labels, f.T[live], eps.T[live],
                             stack.gamma[live], stack.coef.take(self.rho_bar_at[live]),
                             stack.coef.take(self.rho_under_at[live]),
                             sign_error(f_test[:, live], self.test_labels), self.iota[live, k])
        if self.dumps:
            for a, values in zip(arms, summary):
                self.dumps[a].write(t, stack.states[a].gamma, stack.states[a].rho, values)
        self.logged += 1

    def finish(self) -> tuple[np.recarray, np.ndarray, list[dict]]:
        """(rows (A, logs), iota (A, logs, n), files); an arm's rows after it stopped are not
        filled, and ``files[a]`` maps each file written for arm a to its sha256."""
        return self.rows, self.iota, [d.close() for d in self.dumps] or [{} for _ in self.rows]

    def close(self) -> None:
        """Close the dump files of a run that did not finish."""
        for dump in self.dumps:
            dump.close()


def _widen_pipe(fd: int) -> None:
    """Let the pipe hold about a MiB where the system allows, so the trainer runs ahead of
    the child by a few logged states before its writes wait."""
    import fcntl  # POSIX only, like os.fork

    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError):  # not Linux, or above the system's limit
        pass


def _transfer(move, fd: int, arrays) -> None:
    """Pass every byte of ``arrays`` (C-contiguous) through ``move``, ``os.writev`` or
    ``os.readv``, resuming after a partial transfer; EOFError if nothing moves (the writer
    closed)."""
    views = [view.cast("B") for view in map(memoryview, arrays) if view.nbytes]
    while views:
        done = move(fd, views)
        if not done:
            raise EOFError
        while views and done >= len(views[0]):
            done -= len(views.pop(0))
        if views:
            views[0] = views[0][done:]


def _write_all(fd: int, arrays) -> None:
    _transfer(os.writev, fd, arrays)


def _read_into(fd: int, arrays) -> None:
    """Fill ``arrays`` from ``fd``; EOFError if the writer closes first."""
    _transfer(os.readv, fd, arrays)


def _state(stack: CoefficientStack, live, f, eps, signal_sum) -> list:
    """The arrays a logged state sends after its step, in the order they are sent."""
    return [live, stack.coef, stack.gamma, f, eps, signal_sum]


def _serve(build, frames_fd: int, result_fd: int) -> int:
    """The child's work: record every logged state, then send the result. Returns the exit
    status. Each state is read into the recorder's stack and three arrays of its own, on
    this one thread, just before it is recorded."""
    recorder = build()
    stack = recorder.stack
    n, arms = stack.drho.shape[:2]
    step, live = np.empty(1, dtype=np.int64), np.empty(arms, dtype=bool)
    f, eps, signal_sum = np.empty((n, arms)), np.empty((n, arms)), np.empty((2, arms))
    try:
        while True:
            _read_into(frames_fd, [step])
            if step[0] < 0:
                break
            _read_into(frames_fd, _state(stack, live, f, eps, signal_sum))
            recorder.record(int(step[0]), live, f, eps, signal_sum)
    except EOFError:  # the parent is gone
        return 1
    rows, iota, files = recorder.finish()
    files = json.dumps(files).encode()
    _write_all(result_fd, [rows, iota, np.array([len(files)]), files])
    return 0


class ForkedRecorder:
    """A ``Recorder`` run in a child process; ``record`` sends, ``finish`` collects.

    The child's recorder reads its inherited copy of ``stack``, into which each
    logged state of the trainer's ``stack`` is sent.
    """

    def __init__(self, build, stack: CoefficientStack, logs: int):
        self.stack = stack
        self._step = np.empty(1, dtype=np.int64)
        n, arms = stack.drho.shape[:2]
        self._result = (np.recarray((arms, logs), dtype=TRACE_DTYPE), np.empty((arms, logs, n)))
        self._status = None
        frames_r, self._frames_w = os.pipe()
        _widen_pipe(self._frames_w)
        self._result_r, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (frames_r, self._frames_w, self._result_r, result_w):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(self._frames_w)
                os.close(self._result_r)
                status = _serve(build, frames_r, result_w)
            except Exception:
                traceback.print_exc()
            finally:  # never return into the parent's stack, whatever was raised
                os._exit(status)
        os.close(frames_r)
        os.close(result_w)

    def record(self, t: int, live, f, eps, signal_sum) -> None:
        self._step[0] = t
        self._send([self._step, *_state(self.stack, live, f, eps, signal_sum)])

    def finish(self) -> tuple[np.recarray, np.ndarray, list[dict]]:
        self._step[0] = -1
        self._send([self._step])
        size = np.empty(1, dtype=np.int64)
        try:
            _read_into(self._result_r, [*self._result, size])
            files = bytearray(size[0])
            _read_into(self._result_r, [files])
        except EOFError:
            raise self._failure() from None
        if self._reap() != 0:
            raise self._failure()
        return (*self._result, json.loads(files))

    def close(self) -> None:
        """Kill the child unless it was reaped, reap it, and close the pipes."""
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._reap()
        for fd in (self._frames_w, self._result_r):
            if fd >= 0:
                os.close(fd)
        self._frames_w = self._result_r = -1

    def _send(self, arrays) -> None:
        try:
            _write_all(self._frames_w, arrays)
        except BrokenPipeError:  # the child stopped reading: it has ended
            raise self._failure() from None

    def _reap(self) -> int:
        """Wait for the child; its exit code (minus the signal number if a signal ended it)."""
        if self.pid is None:
            return self._status
        _, status = os.waitpid(self.pid, 0)
        self.pid, self._status = None, os.waitstatus_to_exitcode(status)
        return self._status

    def _failure(self) -> RuntimeError:
        return RuntimeError(f"the trace recorder process failed with status {self._reap()}")


def start_recorder(geometry: RunGeometry, stack: CoefficientStack, q: int, logs: int,
                   dumps=()) -> Recorder | ForkedRecorder:
    """A ``Recorder`` of ``stack``, in a child process when a second core allows it; each
    builds the geometry's test products in its own process first.

    A forked child starts with only the thread that forked it, so a process
    running other threads keeps the recorder in process, and so does a
    ``multiprocessing`` pool worker, whose pool budgets the cores. A child
    drops its copy of the training points once its test products are built.
    """

    def build(keep_points: bool = True) -> Recorder:
        geometry.build_test(keep_points)
        return Recorder(geometry, stack, q, logs, dumps)

    mp = sys.modules.get("multiprocessing")  # a pool worker has it loaded; no run imports it
    if (hasattr(os, "fork") and threading.active_count() == 1
            and (mp is None or mp.parent_process() is None) and worker_budget() >= 2):
        return ForkedRecorder(lambda: build(keep_points=False), stack, logs)
    return build()
