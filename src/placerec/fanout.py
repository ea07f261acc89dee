"""Work split over forked processes: fan_out, the one way this package forks.

A caller deals its work into n shares, each a run of positions in serial
order. Share 0 runs in this process and every other one in a forked child,
which inherits the caller's state (a model, analytic gradients, cached
intermediates) without pickling it and pickles only its result back through
a pipe, or writes it straight into a `shared_array` made before the fork. A
share stops at the first exception it meets and hands it back with its
serial position; fan_out raises the one at the smallest position, which is
the error a one-process run would have raised.

Two shares can also run one loop in lockstep, as training's pair does. They
work on `shared_array`s made before the fork, and a Peer orders their
writes: `Peer.barrier` returns in either process only once the other has
reached the same barrier. A barrier moves one byte each way through
`PeerPipes`, made before the fork; the data stays in the shared pages. A
process waiting at a barrier polls its pipe for a while before it sleeps,
because waking a sleeping process costs more than most waits. A share whose
peer has gone meets PeerLost; it reports that at position +inf, so the
peer's own error wins. Forking, the pipes, and killing and reaping children
happen in this module only.
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
    met. With n == 1 nothing is forked. A child k that dies before
    reporting raises NumericalError "<label> <k> died without a report",
    with its exit code; children still running when this returns or raises
    are killed and reaped.
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
                    f"{label} {k} died without a report (exit code {code})")
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


class PeerLost(NumericalError):
    """The other process of a pair closed its end of a barrier: it failed, or
    it met a different number of barriers than this one."""

    def __init__(self, message="the two processes of a pair met different numbers of barriers"):
        super().__init__(message)


class Peer:
    """This process's end of the pipes to the other process of a pair.

    rank is 0 in the process that forked and 1 in the child. Both call
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
            raise PeerLost from None
        deadline = time.perf_counter() + _SPIN_S
        while True:
            try:
                got = os.read(self._rfd, 1)
            except BlockingIOError:
                if time.perf_counter() > deadline:
                    self._poller.poll()             # until the byte or EOF
                continue
            if not got:
                raise PeerLost
            return


class PeerPipes:
    """The two pipes of a pair's barriers, one each way, made before the fork.

    In each process, peer(rank) closes the other rank's ends and yields this
    rank's Peer; it closes this rank's ends when its block leaves, so a peer
    still waiting at a barrier sees EOF. Leaving the `with` closes any end
    still open here, e.g. all four when the fork failed.
    """

    def __init__(self):
        down = os.pipe()                # (read, write), rank 0 to rank 1
        try:
            up = os.pipe()              # rank 1 to rank 0
        except OSError:
            for fd in down:
                os.close(fd)
            raise
        self._fds = [*down, *up]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._close()

    def _close(self, ends=range(4)) -> None:
        for i in ends:
            if self._fds[i] is not None:
                os.close(self._fds[i])
                self._fds[i] = None

    @contextmanager
    def peer(self, rank: int):
        own = (2, 1) if rank == 0 else (0, 3)     # (read, write)
        self._close(i for i in range(4) if i not in own)
        try:
            yield Peer(rank, *(self._fds[i] for i in own))
        finally:
            self._close(own)
