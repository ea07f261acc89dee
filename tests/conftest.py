import os

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_run_config():
    """Small-everything RunConfig for tests that build whole models."""
    from placerec import run_config_from_dict

    return run_config_from_dict({
        "backbone": {"image_size": 8, "patch_size": 4, "d": 16, "depth": 2, "heads": 2},
        "lopa": {"rank": 2},
        "aggregator": {"L_dec": 1, "M": 4, "heads": 2, "d_out": 4, "M_out": 4},
        "train": {"epochs": 2, "P": 2, "K": 2},
    })


@pytest.fixture
def recorded_dtypes(monkeypatch):
    """A list that logs (tape, "op", dtype) for every op recorded through
    `ops`, `loss` and `backbone`, and (tape, "grad", dtype) for every
    gradient an op's adjoint adds; tape is None for an untaped op."""
    from placerec import autodiff, backbone, loss, ops

    seen = []

    def watched(record):
        def rec(data, bwd=None, saves=()):
            tape = autodiff._state.tape

            def sweep(g, acc):
                bwd(g, lambda uid, delta: (seen.append((tape, "grad", delta.dtype)),
                                           acc(uid, delta)))

            out = record(data, bwd and sweep, saves)
            seen.append((tape, "op", out.data.dtype))
            return out
        return rec

    for module in (ops, loss, backbone):
        monkeypatch.setattr(module, "record", watched(module.record))
    return seen


@pytest.fixture(autouse=True)
def no_leaked_child_process():
    """Fail a test after which a forked child is still running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:       # no children at all
        return
    state = "still running" if pid == 0 else f"exited unreaped (status {status})"
    pytest.fail(f"a child process is {state} after the test")
