"""A forked replica and its barriers: shared arrays of any size, the order of
writes across a barrier, its errors, and its end."""
import os

import numpy as np
import pytest

from placerec.errors import NumericalError, ValidationError
from placerec.fanout import fork_replica, shared_array

# small and large arrays, with empty ones
SIZES = [0, 1, 3, 4095, 4097, 0, 9000, 70001]


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

    with fork_replica(run, "test") as peer:
        sums = run(peer)
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

    with fork_replica(run, "test") as peer:
        run(peer)


def test_replica_error_is_raised_here():
    def replica(peer):
        raise ValidationError("bad shard")

    with pytest.raises(ValidationError, match="^bad shard$"):
        with fork_replica(replica, "test") as peer:
            peer.barrier()


def test_replica_failing_after_the_last_exchange_fails_the_block():
    def replica(peer):
        peer.barrier()
        raise ValidationError("late")

    with pytest.raises(ValidationError, match="^late$"):
        with fork_replica(replica, "test") as peer:
            peer.barrier()


def test_replica_waiting_on_an_exchange_that_never_comes():
    def replica(peer):
        peer.barrier()

    with pytest.raises(NumericalError, match=r"^test replica 1 died without a report \(exit code 1\)$"):
        with fork_replica(replica, "test"):
            pass


def test_error_here_kills_the_waiting_replica():
    def replica(peer):
        peer.barrier()

    with pytest.raises(KeyError):
        with fork_replica(replica, "test"):
            raise KeyError("here")
