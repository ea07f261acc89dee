"""Independent shares of work fanned out over forked worker processes.

A caller deals its work round-robin into n shares, each a run of positions
in serial order. Share 0 runs in this process and every other one in a
forked child, which inherits the caller's state (a model, analytic
gradients, cached intermediates) without pickling it and pickles only its
result back through a pipe. A share stops at the first exception it meets
and hands it back with its serial position; fan_out raises the one at the
smallest position, which is the error a one-process run would have raised.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
from operator import itemgetter

from .errors import NumericalError


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
