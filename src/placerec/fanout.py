"""Work split over forked processes: independent shares, or a replica in lockstep.

fan_out: a caller deals its work round-robin into n shares, each a run of
positions in serial order. Share 0 runs in this process and every other one
in a forked child, which inherits the caller's state (a model, analytic
gradients, cached intermediates) without pickling it and pickles only its
result back through a pipe. A share stops at the first exception it meets
and hands it back with its serial position; fan_out raises the one at the
smallest position, which is the error a one-process run would have raised.

fork_replica: one forked child runs the same loop as the caller for a whole
block, and the two swap arrays at the same points of that loop through a
Peer: rows each computed for the other, or gradients each adds into its own.
Forking, the pipes, and killing and reaping children happen in this module
only.
"""
from __future__ import annotations

import bisect
import itertools
import os
import pickle
import select
import signal
import sys
from contextlib import contextmanager
from operator import itemgetter

import numpy as np

from .errors import NumericalError

# Largest write or read of one exchange, and the receive buffer's size: a
# peer's bytes are taken in through this buffer rather than a copy of the
# whole array.
_PIECE = 32 * 1024
_MAX_IOV = 64                   # arrays gathered into one writev


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


class _PeerLost(Exception):
    """The other process closed its end of an exchange: it exited or failed."""


class Peer:
    """This process's end of the pipes to the other process of a pair.

    rank is 0 in the process that forked and 1 in the replica. Both call the
    same exchanges with arrays of matching sizes, in the same order. An
    exchange sends and receives at once, in pieces of at most 32 KiB, so
    neither side blocks on a full pipe while the other waits for it, at any
    array size and any pipe capacity.
    """

    def __init__(self, rank: int, rfd: int, wfd: int):
        self.rank = rank
        self._rfd, self._wfd = rfd, wfd
        os.set_blocking(rfd, False)
        os.set_blocking(wfd, False)
        self._buf = bytearray(_PIECE)

    def swap(self, mine: np.ndarray, theirs: np.ndarray) -> None:
        """Send `mine`; the peer's `mine` lands in `theirs` (C-contiguous float64)."""
        self._exchange([mine], [theirs], np.copyto)

    def add_from(self, arrays) -> None:
        """arrays[i] += the peer's arrays[i], in place, for every i.

        Both ends add the same two addends, so both end with the same bits.
        """
        self._exchange(arrays, arrays, lambda dst, src: np.add(dst, src, out=dst))

    def _exchange(self, send, recv, combine) -> None:
        out = [memoryview(a).cast("B") for a in send if a.size]
        into = [a.reshape(-1) for a in recv if a.size]      # contiguous: views
        out_ends = list(itertools.accumulate(m.nbytes for m in out))
        in_ends = list(itertools.accumulate(a.size for a in into))
        n_out = out_ends[-1] if out_ends else 0
        n_in = 8 * in_ends[-1] if in_ends else 0
        buf = memoryview(self._buf)
        sent = got = held = 0           # held: bytes in buf, from stream offset got
        poller = None
        while sent < n_out or got < n_in:
            n_sent = self._send(out, out_ends, sent) if sent < n_out else 0
            sent += n_sent
            # combining into the arrays being sent overwrites them, so a received
            # byte is taken in only once the byte at its offset has gone out
            limit = min(sent, n_in) if recv is send else n_in
            n = 0
            if got + held < limit:
                try:
                    n = os.readv(self._rfd, [buf[held:held + min(limit - got - held,
                                                                 _PIECE - held)]])
                except BlockingIOError:
                    n = None
                if n == 0:
                    raise _PeerLost
                if n:
                    held += n
                    whole = held // 8
                    _combine_into(into, in_ends, got // 8,
                                  np.frombuffer(self._buf, np.float64, whole), combine)
                    got += 8 * whole
                    held -= 8 * whole
                    buf[:held] = buf[8 * whole:8 * whole + held]
            if not (n_sent or n):
                # neither end moved: sleep until one can
                if poller is None:
                    poller = select.poll()
                poller.register(self._wfd, select.POLLOUT if sent < n_out else 0)
                poller.register(self._rfd, select.POLLIN if got + held < limit else 0)
                poller.poll()

    def _send(self, out, ends, sent: int) -> int:
        i = bisect.bisect_right(ends, sent)
        at = sent - (ends[i - 1] if i else 0)
        pieces, room = [], _PIECE
        while room and i < len(out) and len(pieces) < _MAX_IOV:
            piece = out[i][at:at + room]
            pieces.append(piece)
            room -= piece.nbytes
            i, at = i + 1, 0
        try:
            return os.writev(self._wfd, pieces)
        except BlockingIOError:
            return 0
        except BrokenPipeError:
            raise _PeerLost from None


def _combine_into(into, ends, first: int, vals: np.ndarray, combine) -> None:
    """combine(target, values) over the elements first.. of the arrays `into`
    taken end to end."""
    i = bisect.bisect_right(ends, first)
    k = 0
    while k < vals.size:
        start = first + k - (ends[i - 1] if i else 0)
        n = min(vals.size - k, into[i].size - start)
        combine(into[i][start:start + n], vals[k:k + n])
        k += n
        i += 1


@contextmanager
def fork_replica(run, label: str):
    """Fork a replica that runs run(Peer at rank 1) while the block runs;
    yield this process's Peer (rank 0).

    The replica writes nothing of its own: it ends with os._exit, 0 once
    run returns. An exception in it is pickled back, and the block raises it
    at its next exchange, or at its end. A replica that dies without
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
            # closing the exchange pipes first lets the caller stop waiting
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
