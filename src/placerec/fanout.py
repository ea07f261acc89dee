"""Work split over forked processes: independent shares, or a replica in lockstep.

fan_out: a caller deals its work round-robin into n shares, each a run of
positions in serial order. Share 0 runs in this process and every other one
in a forked child, which inherits the caller's state (a model, analytic
gradients, cached intermediates) without pickling it and pickles only its
result back through a pipe, or writes it straight into a `shared_array`
made before the fork. A share stops at the first exception it meets and
hands it back with its serial position; fan_out raises the one at the
smallest position, which is the error a one-process run would have raised.

fork_replica: one forked child runs the same loop as the caller for a whole
block. The two work on `shared_array`s made before the fork, and a Peer
orders their writes: `Peer.barrier` returns in either process only once the
other has reached the same barrier. A barrier moves one byte each way
through a pipe; the data stays in the shared pages. A process waiting at a
barrier polls its pipe for a while before it sleeps, because waking a
sleeping process costs more than most waits. Forking, the pipes, and
killing and reaping children happen in this module only.
"""
from __future__ import annotations

import math
import mmap
import os
import pickle
import select
import signal
import sys
import time
from contextlib import contextmanager
from operator import itemgetter

import numpy as np

from .errors import NumericalError

# How long a process waiting at a barrier polls before it sleeps. A pair of
# processes on a 2-vCPU VM paid ~1.2 ms per barrier when the waiting one
# slept (the time to wake it) and ~50-100 us while it polled.
_SPIN_S = 0.01


def workers() -> int:
    """Processes to fan out over: the CPUs this process may run on."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def fan_out(n: int, run, label: str) -> list:
    """[result(0), ..., result(n - 1)] from run(k) -> (result, error).

    error is None, or (position, exception) for the first exception share k
    met. With n == 1 nothing is forked. A child that dies before reporting
    raises NumericalError naming label and its exit code; children still
    running when this returns or raises are killed and reaped.
    """
    shares = [run(0)] if n == 1 else _forked(n, run, label)
    errors = [error for _, error in shares if error is not None]
    if errors:
        raise min(errors, key=itemgetter(0))[1]
    return [result for result, _ in shares]


def _forked(n: int, run, label: str) -> list:
    # a child must not re-emit output the parent has buffered
    sys.stdout.flush()
    sys.stderr.flush()
    children = []                                   # [pid, read fd]
    try:
        for k in range(1, n):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(rfd)
                    with os.fdopen(wfd, "wb") as fh:
                        pickle.dump(run(k), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            children.append([pid, rfd])
        out = [run(0)]
        for k, child in enumerate(children, start=1):
            with os.fdopen(child[1], "rb") as fh:
                child[1] = None
                blob = fh.read()
            _, status = os.waitpid(child[0], 0)
            child[0] = None
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or not blob:
                raise NumericalError(
                    f"{label} worker {k} died without a report (exit code {code})")
            out.append(pickle.loads(blob))
        return out
    finally:
        for pid, rfd in children:
            if rfd is not None:
                os.close(rfd)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def shared_array(shape, dtype=np.float64) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping: a process forked after
    this call reads and writes the same pages. No file descriptor stays open;
    the mapping goes with the last array that views it."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize), flags=mmap.MAP_SHARED)
    return np.frombuffer(buf, dtype, count).reshape(shape)


class _PeerLost(Exception):
    """The other process closed its end of a barrier: it exited or failed."""


class Peer:
    """This process's end of the pipes to the other process of a pair.

    rank is 0 in the process that forked and 1 in the replica. Both call
    barrier() the same number of times; whatever one wrote to shared memory
    before a barrier, the other reads after it.
    """

    def __init__(self, rank: int, rfd: int, wfd: int):
        self.rank = rank
        self._rfd, self._wfd = rfd, wfd
        os.set_blocking(rfd, False)
        self._poller = select.poll()
        self._poller.register(rfd, select.POLLIN)

    def barrier(self) -> None:
        """Return once the peer has called barrier() as often as this process.

        The wait polls the pipe for up to _SPIN_S before it sleeps.
        """
        try:
            os.write(self._wfd, b"\0")
        except BrokenPipeError:
            raise _PeerLost from None
        deadline = time.perf_counter() + _SPIN_S
        while True:
            try:
                got = os.read(self._rfd, 1)
            except BlockingIOError:
                if time.perf_counter() > deadline:
                    self._poller.poll()             # until the byte or EOF
                continue
            if not got:
                raise _PeerLost
            return


@contextmanager
def fork_replica(run, label: str):
    """Fork a replica that runs run(Peer at rank 1) while the block runs;
    yield this process's Peer (rank 0).

    The replica writes nothing of its own: it ends with os._exit, 0 once
    run returns. An exception in it is pickled back, and the block raises it
    at its next barrier, or at its end. A replica that dies without
    reporting one raises NumericalError naming label and its exit code. If
    the block raises, the replica is killed; either way it is reaped before
    this returns.
    """
    # a child must not re-emit output the parent has buffered
    sys.stdout.flush()
    sys.stderr.flush()
    fds, pid = [], None
    try:
        for _ in range(3):
            fds.extend(os.pipe())
        down_r, down_w, up_r, up_w, report_r, report_w = fds
        pid = os.fork()
        if pid == 0:
            _replica_main(run, fds)
        for fd in (down_r, up_w, report_w):
            os.close(fd)
            fds.remove(fd)
        lost = False
        try:
            yield Peer(0, up_r, down_w)
        except _PeerLost:
            lost = True
        for fd in (up_r, down_w):       # a replica still waiting on us sees EOF
            os.close(fd)
            fds.remove(fd)
        # read the report to its end before reaping: a replica blocked
        # writing a long one would never exit
        with os.fdopen(report_r, "rb") as fh:
            fds.remove(report_r)
            blob = fh.read()
        _, status = os.waitpid(pid, 0)
        pid = None
        code = os.waitstatus_to_exitcode(status)
        if lost or code != 0:
            raise _replica_error(blob, label, code)
    finally:
        for fd in fds:
            os.close(fd)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _replica_main(run, fds):
    down_r, down_w, up_r, up_w, report_r, report_w = fds
    code = 1
    try:
        # the caller's ends: held open here, its closing them would go unseen
        for fd in (down_w, up_r, report_r):
            os.close(fd)
        try:
            run(Peer(1, down_r, up_w))
            code = 0
        except _PeerLost:
            pass                # the caller has gone and reports for itself
        except Exception as exc:    # reported to the caller, which raises it
            # closing the barrier pipes first lets the caller stop waiting
            # and read the report
            os.close(down_r)
            os.close(up_w)
            blob = pickle.dumps(exc)    # an unpicklable error goes unreported
            with os.fdopen(report_w, "wb") as fh:
                fh.write(blob)
    finally:
        os._exit(code)


def _replica_error(blob: bytes, label: str, code: int) -> Exception:
    if blob:
        try:
            return pickle.loads(blob)
        except (pickle.UnpicklingError, EOFError):
            pass
    return NumericalError(f"{label} replica 1 died without a report (exit code {code})")
