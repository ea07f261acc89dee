"""A forked replica and its exchanges: sums and swaps of any size, its errors,
and its end."""
import numpy as np
import pytest

from placerec.errors import NumericalError, ValidationError
from placerec.fanout import fork_replica

# around and across the 32 KiB pieces and the 8-byte floats, with empty ones
SIZES = [0, 1, 3, 4095, 4097, 0, 9000, 70001]


def _arrays(rank):
    rng = np.random.default_rng(rank)
    return [rng.normal(size=n) for n in SIZES]


def test_exchanges_sum_and_swap_arrays_of_any_size():
    total = sum(SIZES)

    def replica(peer):
        mine = _arrays(1)
        peer.add_from(mine)
        peer.swap(np.concatenate(mine), np.empty(0))      # the replica's sums, back

    with fork_replica(replica, "test") as peer:
        mine = _arrays(0)
        peer.add_from(mine)
        theirs = np.empty(total)
        peer.swap(np.empty(0), theirs)
    for got, a, b in zip(mine, _arrays(0), _arrays(1)):
        np.testing.assert_array_equal(got, a + b)
    assert theirs.tobytes() == np.concatenate(mine).tobytes()


def test_swap_of_unequal_shares():
    def replica(peer):
        theirs = np.empty(10_000)
        peer.swap(np.full(9_000, 1.0), theirs)
        peer.swap(theirs, np.empty(0))

    with fork_replica(replica, "test") as peer:
        sent, theirs, echo = np.arange(10_000.0), np.empty(9_000), np.empty(10_000)
        peer.swap(sent, theirs)
        peer.swap(np.empty(0), echo)
    assert (theirs == 1.0).all()
    assert echo.tobytes() == sent.tobytes()


def test_replica_error_is_raised_here():
    def replica(peer):
        raise ValidationError("bad shard")

    with pytest.raises(ValidationError, match="^bad shard$"):
        with fork_replica(replica, "test") as peer:
            peer.swap(np.zeros(100_000), np.empty(100_000))


def test_replica_failing_after_the_last_exchange_fails_the_block():
    def replica(peer):
        peer.swap(np.zeros(4), np.empty(4))
        raise ValidationError("late")

    with pytest.raises(ValidationError, match="^late$"):
        with fork_replica(replica, "test") as peer:
            peer.swap(np.zeros(4), np.empty(4))


def test_replica_waiting_on_an_exchange_that_never_comes():
    def replica(peer):
        peer.swap(np.zeros(4), np.empty(4))

    with pytest.raises(NumericalError, match=r"^test replica 1 died without a report \(exit code 1\)$"):
        with fork_replica(replica, "test"):
            pass


def test_error_here_kills_the_waiting_replica():
    def replica(peer):
        peer.swap(np.zeros(4), np.empty(4))

    with pytest.raises(KeyError):
        with fork_replica(replica, "test"):
            raise KeyError("here")
