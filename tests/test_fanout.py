"""A pair of shares of fan_out in lockstep, and its barriers: shared arrays of
any size, the order of writes across a barrier, its errors, and its end; and
fanout.py as the one module that forks."""
import ast
import math
import os
from pathlib import Path

import numpy as np
import pytest

from placerec import fanout
from placerec.errors import NumericalError, ValidationError
from placerec.fanout import PeerLost, PeerPipes, fan_out, shared_array

# small and large arrays, with empty ones
SIZES = [0, 1, 3, 4095, 4097, 0, 9000, 70001]


def _pair(run):
    """[run(Peer at rank 0), run(Peer at rank 1)], rank 1 in a forked child,
    as fan_out(2) shares: an error is reported at position 0, a lost peer at
    +inf."""
    def share(rank):
        with pipes.peer(rank) as peer:
            try:
                return run(peer), None
            except PeerLost as exc:
                return None, (math.inf, exc)
            except Exception as exc:
                return None, (0, exc)

    with PeerPipes() as pipes:
        return fan_out(2, share, "test replica")


def _arrays(rank):
    rng = np.random.default_rng(rank)
    return [rng.normal(size=n) for n in SIZES]


def test_shared_arrays_of_any_size_sum_across_a_barrier():
    """Each process writes its row, reads the peer's after a barrier and
    sums; the replica's sums, written back, equal this process's bit for bit."""
    fds = len(os.listdir("/proc/self/fd"))
    rows = [shared_array((3, n)) for n in SIZES]     # this process, the replica, its sums
    assert all(r.dtype == np.float64 and not r.any() for r in rows)

    def run(peer):
        for row, a in zip(rows, _arrays(peer.rank)):
            row[peer.rank] = a
        peer.barrier()
        sums = [row[peer.rank] + row[1 - peer.rank] for row in rows]
        if peer.rank == 1:
            for row, s in zip(rows, sums):
                row[2] = s
        peer.barrier()
        return sums

    sums = _pair(run)[0]
    for row, s, a, b in zip(rows, sums, _arrays(0), _arrays(1)):
        np.testing.assert_array_equal(s, a + b)
        assert row[2].tobytes() == s.tobytes()
    assert len(os.listdir("/proc/self/fd")) == fds


def test_barriers_keep_the_pair_in_lockstep():
    """Over 50 rounds, what the peer wrote before a barrier is what this
    process reads after it, and neither runs ahead into the next round."""
    rows = [shared_array((2, n)) for n in SIZES]

    def run(peer):
        for r in range(50):
            for row in rows:
                row[peer.rank] = r + peer.rank
            peer.barrier()
            for row in rows:
                if (row[1 - peer.rank] != r + 1 - peer.rank).any():
                    raise ValidationError(f"rank {peer.rank} read a stale row in round {r}")
            peer.barrier()

    _pair(run)


def test_replica_error_is_raised_here():
    def run(peer):
        if peer.rank == 1:
            raise ValidationError("bad shard")
        peer.barrier()

    with pytest.raises(ValidationError, match="^bad shard$"):
        _pair(run)


def test_replica_failing_after_the_last_exchange_fails_the_block():
    def run(peer):
        peer.barrier()
        if peer.rank == 1:
            raise ValidationError("late")

    with pytest.raises(ValidationError, match="^late$"):
        _pair(run)


def test_replica_waiting_on_an_exchange_that_never_comes():
    """The only error is the replica's lost peer: the two met different
    numbers of barriers, a NumericalError of its own that survives the
    pickle back from the replica."""
    def run(peer):
        if peer.rank == 1:
            peer.barrier()

    with pytest.raises(NumericalError, match=r"^the two processes of a pair met different "
                                             r"numbers of barriers$"):
        _pair(run)


def test_error_here_kills_the_waiting_replica():
    def share(rank):
        with pipes.peer(rank) as peer:
            if rank == 0:
                raise KeyError("here")
            peer.barrier()
        return None, None

    with pytest.raises(KeyError), PeerPipes() as pipes:
        fan_out(2, share, "test replica")


def test_failed_fork_leaks_no_descriptor(monkeypatch):
    def no_fork():
        raise OSError("no fork")

    fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(OSError, match="no fork"):
        _pair(lambda peer: peer.barrier())
    assert len(os.listdir("/proc/self/fd")) == fds


_PROCESS_CALLS = {"fork", "pipe", "kill", "waitpid"}


def _process_calls(path) -> list:
    """The os.fork / os.pipe / os.kill / os.waitpid names a module uses, as
    attributes of os or imported from it."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in _PROCESS_CALLS):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names += [a.name for a in node.names if a.name in _PROCESS_CALLS]
    return names


def test_one_fork_path():
    """Only fanout.py forks, makes pipes, kills or reaps, and it forks in one place."""
    package = Path(fanout.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "fanout.py" in modules and len(modules) > 1
    for path in modules:
        calls = _process_calls(path)
        if path.name == "fanout.py":
            assert calls.count("fork") == 1, calls
        else:
            assert not calls, f"{path.name} uses os.{calls[0]}"
