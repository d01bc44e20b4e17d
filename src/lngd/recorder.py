"""The test side of a paired run's trace, kept off the training loop's core.

A ``Recorder`` owns everything a trace row needs besides the step itself:
the test set's products, its labels, a test pre-activation buffer and a
copy of the stacked coefficients. ``record`` fills each live arm's row and
iota at one logged step and hands each live arm's coefficients to its
``io.CoefficientDump``, if any; ``finish`` returns every arm's rows and
iotas and the digests of the dump files written.

``start_recorder`` runs it in a child process, made with ``os.fork`` and
two pipes, when a second core is free (``cores.worker_budget() >= 2``) and
this process has no other thread; otherwise it runs in process. Both run
the same ``Recorder`` code on the same numbers, so only the transport
differs. The child reads each logged state on a reader thread while it
draws the test set, into at most ``FRAME_BUDGET`` bytes of frame buffers;
when every buffer waits to be recorded, the trainer's writes wait. It ends
with ``os._exit``. The parent reaps it in ``close``, which kills it first
unless ``finish`` has already collected its result. If the parent dies,
the child reads end of file and exits.
"""

from __future__ import annotations

import json
import math
import os
import queue
import signal
import threading
import traceback

import numpy as np

from .cores import worker_budget
from .decomposition import CoefficientStack, SpanProducts, iota_all, sign_error
from .training import TRACE_DTYPE, _outputs, _trace_row

__all__ = ["Recorder", "ForkedRecorder", "start_recorder", "FRAME_BUDGET"]

FRAME_BUDGET = 3 << 20  # bytes of logged states a forked recorder holds at most


class Recorder:
    """Trace rows and iotas of ``arms`` arms at ``logs`` logged steps.

    ``test_chunks`` yields the test noise rows as (k, d) blocks (see
    ``data.StreamedTestSet.noise_chunks``); they are read here, once, into
    the test ``SpanProducts`` of the init ``w0``.
    """

    def __init__(self, test_labels: np.ndarray, test_chunks, dataset, w0: np.ndarray, q: int,
                 arms: int, logs: int, dumps=()):
        self.test = SpanProducts.of(test_chunks, len(test_labels), dataset, w0)
        self.test_labels = test_labels
        self.test_label_rows = (test_labels < 0).astype(np.intp)
        self.q = q
        self.stack = stack = CoefficientStack(dataset, w0, arms)
        n, two_m = len(dataset), w0.shape[1]
        # at[a, j, r, i] is where arm a's rho_{j,r,i} sits in stack.coef, read in (j, r, i) order.
        at = (np.arange(n) * arms * two_m + np.arange(two_m)[:, None] + two_m
              * np.arange(arms)[:, None, None]).reshape(arms, 2, -1, n)
        same = np.broadcast_to(stack.states[0].same_class_mask[:, None, :], at.shape[1:])
        self.rho_bar_at, self.rho_under_at = at[:, same], at[:, ~same]
        self.pre = np.empty((len(test_labels), arms, two_m))
        self.rows = np.recarray((arms, logs), dtype=TRACE_DTYPE)
        self.iota = np.empty((arms, logs, n))
        self.logged = 0
        self.dumps = dumps  # arm a's io.CoefficientDump at [a], or none

    def record(self, t: int, live: np.ndarray, coef: np.ndarray, gamma: np.ndarray,
               f: np.ndarray, eps: np.ndarray, signal_sum: np.ndarray) -> None:
        """Fill the next row of every live arm from the trainer's state at step ``t``.

        ``coef`` (n + 1, A, 2m) and ``gamma`` (A, 2m) are the stacked
        coefficients, ``f`` and ``eps`` (n, A) the training outputs and the
        multipliers drawn for step t, ``signal_sum`` (2, A) the signal
        patches' share of the outputs.
        """
        stack, k = self.stack, self.logged
        stack.coef[...] = coef
        stack.gamma[...] = gamma
        f_test, _ = _outputs(self.test.preactivations(stack.coef, out=self.pre), signal_sum,
                             self.test_label_rows, self.q, stack.branch_sign)
        for a in np.flatnonzero(live):
            state = stack.states[a]
            self.iota[a, k] = iota_all(state)
            _trace_row(self.rows[a], k, t, f[:, a], eps[:, a], state,
                       stack.coef.take(self.rho_bar_at[a]), stack.coef.take(self.rho_under_at[a]),
                       stack.labels, sign_error(f_test[:, a], self.test_labels), self.iota[a, k])
            if self.dumps:
                self.dumps[a].write(t, state.gamma, state.rho)
        self.logged += 1

    def finish(self) -> tuple[np.recarray, np.ndarray, list[dict]]:
        """(rows (A, logs), iota (A, logs, n), files); an arm's rows after it stopped are not
        filled, and ``files[a]`` maps each file written for arm a to its sha256."""
        return self.rows, self.iota, [d.close() for d in self.dumps] or [{} for _ in self.rows]

    def close(self) -> None:
        """Close the dump files of a run that did not finish."""
        for dump in self.dumps:
            dump.close()


def _frame_shapes(n: int, arms: int, two_m: int) -> list[tuple[int, ...]]:
    """Shapes of the arrays a frame holds after its step slot: live, coef, gamma, f, eps,
    signal_sum."""
    return [(arms,), (n + 1, arms, two_m), (arms, two_m), (n, arms), (n, arms), (2, arms)]


def _frame_size(n: int, arms: int, two_m: int) -> int:
    return 1 + sum(math.prod(shape) for shape in _frame_shapes(n, arms, two_m))


def _fields(frame: np.ndarray, n: int, arms: int, two_m: int) -> list[np.ndarray]:
    """Views of ``frame``'s arrays after its step slot."""
    views, start = [], 1
    for shape in _frame_shapes(n, arms, two_m):
        size = math.prod(shape)
        views.append(frame[start:start + size].reshape(shape))
        start += size
    return views


def _widen_pipe(fd: int) -> None:
    """Let the pipe hold about a MiB where the system allows, so a frame's write need not
    wait for the child's reader thread to run."""
    import fcntl  # POSIX only, like os.fork

    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError):  # not Linux, or above the system's limit
        pass


def _write_all(fd: int, array: np.ndarray) -> None:
    view = memoryview(array).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read_into(fd: int, array: np.ndarray) -> None:
    """Fill ``array`` from ``fd``; EOFError if the writer closes first."""
    view = memoryview(array).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError
        view = view[got:]


def _read_frames(fd: int, free: queue.LifoQueue, frames: queue.SimpleQueue) -> None:
    """Read each frame from ``fd`` into a buffer taken from ``free``, waiting while none is,
    and queue it, through the finish frame; None at end of file."""
    try:
        while True:
            frame = free.get()
            _read_into(fd, frame[:1])
            if frame[0] >= 0:
                _read_into(fd, frame[1:])
            frames.put(frame)
            if frame[0] < 0:
                return
    except EOFError:
        frames.put(None)


def _serve(build, frames_fd: int, result_fd: int, n: int, arms: int, two_m: int) -> int:
    """The child's work: record every frame, then send the result. Returns the exit status.
    Frames are read into ``FRAME_BUDGET`` bytes of buffers (one at least), reused most
    recently freed first, so a child that keeps up touches few of them."""
    size = _frame_size(n, arms, two_m)
    free, frames = queue.LifoQueue(), queue.SimpleQueue()
    for frame in np.empty((max(1, FRAME_BUDGET // (8 * size)), size)):
        free.put(frame)
    threading.Thread(target=_read_frames, args=(frames_fd, free, frames), daemon=True).start()
    recorder = build()
    while True:
        frame = frames.get()
        if frame is None:  # the parent is gone
            return 1
        if frame[0] < 0:
            break
        live, *arrays = _fields(frame, n, arms, two_m)
        recorder.record(int(frame[0]), live != 0, *arrays)
        free.put(frame)
    rows, iota, files = recorder.finish()
    files = json.dumps(files).encode()
    for part in (rows, iota, np.array([len(files)]), files):
        _write_all(result_fd, part)
    return 0


class ForkedRecorder:
    """A ``Recorder`` run in a child process; ``record`` sends, ``finish`` collects."""

    def __init__(self, build, n: int, arms: int, two_m: int, logs: int):
        self._frame = np.empty(_frame_size(n, arms, two_m))
        self._fields = _fields(self._frame, n, arms, two_m)
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
                status = _serve(build, frames_r, result_w, n, arms, two_m)
            except Exception:
                traceback.print_exc()
            finally:  # never return into the parent's stack, whatever was raised
                os._exit(status)
        os.close(frames_r)
        os.close(result_w)

    def record(self, t: int, live, coef, gamma, f, eps, signal_sum) -> None:
        self._frame[0] = t
        for view, value in zip(self._fields, (live, coef, gamma, f, eps, signal_sum)):
            view[...] = value
        self._send(self._frame)

    def finish(self) -> tuple[np.recarray, np.ndarray, list[dict]]:
        self._frame[0] = -1
        self._send(self._frame[:1])
        size = np.empty(1, dtype=np.int64)
        try:
            for array in (*self._result, size):
                _read_into(self._result_r, array)
            files = bytearray(size[0])
            _read_into(self._result_r, files)
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

    def _send(self, array: np.ndarray) -> None:
        try:
            _write_all(self._frames_w, array)
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


def start_recorder(test_labels: np.ndarray, test_chunks, dataset, w0: np.ndarray, q: int,
                   arms: int, logs: int, dumps=(), *,
                   may_fork: bool = True) -> Recorder | ForkedRecorder:
    """A ``Recorder``, in a child process when ``may_fork`` and a second core allow it.

    A forked child starts with only the thread that forked it, so a process
    running other threads keeps the recorder in process. A child drops its
    copy of the dataset's points once its test products are built.
    """

    def build() -> Recorder:
        return Recorder(test_labels, test_chunks, dataset, w0, q, arms, logs, dumps)

    def build_in_child() -> Recorder:
        recorder = build()
        dataset.drop_points()
        return recorder

    if (may_fork and hasattr(os, "fork") and threading.active_count() == 1
            and worker_budget() >= 2):
        return ForkedRecorder(build_in_child, len(dataset), arms, w0.shape[1], logs)
    return build()
