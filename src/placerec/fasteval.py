"""Finite-difference probes on a replayed trace of the shared forward.

The full-pipeline gradient check re-evaluates the loss ~150k times (two
probes per trainable scalar, dealt over one forked worker per CPU), which a
taped graph cannot afford. Instead `model.describe_stack` and the similarity GEMM
run once, on `kernel_model(model, float64)`, through a recording op set:
each kernel call is appended to a straight-line trace. The leaves of the
trace are the feature-stack layers and the live value arrays of the params
(`as_arrays` in float64 returns them uncopied), so a poke made in place is
read when the trace replays.

For each param a plan lists the trace steps it reaches, directly or through
an earlier step of the plan. A probe re-runs exactly those kernels, takes
every other input from the base point, and drops each re-run output right
after its last reader in the plan, so a probe holds only a few temporaries
at a time. The loss is `loss.ms_kernel` on pair tables built once from the
fixed mining.

The probe forward is thus the shared definition itself. The recorder
refuses an array it did not trace, so a definition that computes outside its
op set cannot be probed with a stale constant, and pipeline_gradcheck
still compares the replayed loss with the op-built one at the base point.
"""
from __future__ import annotations

import numpy as np

from . import model as descriptor
from .autodiff import Tensor
from .errors import ContractError, ValidationError
from .loss import ms_kernel, pair_tables
from .ops import Kernels


class _Recorder:
    """An op set that runs `Kernels` and appends each call to `steps` as
    (kernel, refs, output position, the set of positions it reads). `values`
    holds what each position names: the leaves, then constants and outputs in
    call order. A ref is the position of an argument: of a leaf or an earlier
    output for an array, of a new constant for anything else, a tuple of them
    for a list."""

    def __init__(self, leaves):
        self.values = list(leaves)
        self.steps = []
        self._at = {id(a): i for i, a in enumerate(self.values)}

    def _ref(self, name, a):
        if isinstance(a, list):
            return tuple(self._ref(name, x) for x in a)
        if isinstance(a, np.ndarray):
            if id(a) not in self._at:
                raise ContractError(
                    f"{name} got an array that is neither a leaf nor an earlier output")
            return self._at[id(a)]
        self.values.append(a)
        return len(self.values) - 1

    def __getattr__(self, name):
        kernel = getattr(Kernels, name)

        def call(*args):
            refs = tuple(self._ref(name, a) for a in args)
            out = kernel(*args)
            self._at[id(out)] = len(self.values)
            self.values.append(out)
            self.steps.append((kernel, refs, len(self.values) - 1, _reads(refs)))
            return out

        return call


def _reads(refs) -> set:
    return {i for r in refs for i in (r if isinstance(r, tuple) else (r,))}


def _plan(steps, sources, final):
    """(plan, clean) for a poke of the positions `sources`: each step the
    poke reaches as (kernel, refs, output, the re-run outputs whose last
    reader it is), and the other positions the plan reads, the output
    `final` among them when the poke cannot reach it (with no decoder block,
    the image never reaches the descriptor)."""
    dirty, run = set(sources), []
    for step in steps:
        if not dirty.isdisjoint(step[3]):
            dirty.add(step[2])
            run.append(step)
    last = {}
    for k, (*_, reads) in enumerate(run):
        last.update(dict.fromkeys(reads & dirty - sources, k))
    free = [[] for _ in run]
    for i, k in last.items():
        free[k].append(i)
    clean = set().union(*(reads - dirty for *_, reads in run))
    if final not in dirty:
        clean.add(final)
    return [(kernel, refs, out, tuple(f)) for (kernel, refs, out, _), f in zip(run, free)], clean


class FastPipeline:
    """The loss of fixed feature-stack arrays under a fixed mined pair
    selection, as a replayable trace; probe(param) evaluates it with that
    param poked in place."""

    def __init__(self, model, layers, mining, loss_cfg):
        layers = [np.asarray(l.data if isinstance(l, Tensor) else l, dtype=np.float64)
                  for l in layers]
        if layers[0].ndim != 3:
            raise ValidationError("FastPipeline expects batched (B, n, d) feature stacks")
        agg = model.aggregator
        params = [p for fn in model.adapters for p in fn.params()] + agg.params()
        rec = _Recorder(layers + [p.value.data for p in params])
        desc = descriptor.describe_stack(descriptor.kernel_model(model, np.float64), layers, rec)
        rec.matmul(desc, rec.transpose(desc))
        self.pairs = pair_tables(mining, loss_cfg)
        self.final = len(rec.values) - 1

        leaves = len(layers) + len(params)
        self.full, _ = _plan(rec.steps, set(range(leaves)), self.final)
        self.plans, kept = {}, set(range(leaves))
        for i, p in enumerate(params, start=len(layers)):
            self.plans[id(p)], clean = _plan(rec.steps, {i}, self.final)
            kept |= clean
        outputs = {out for _, _, out, _ in rec.steps}
        self.base = [v if i in kept or i not in outputs else None
                     for i, v in enumerate(rec.values)]

        # labels of each param's stage for the benchmark's probe spans:
        # 0 = adapters, 1 = input projection, 2+i = decoder block i, last = head
        self.n_blocks = len(agg.blocks)
        self.stage_of = {id(p): 0 for fn in model.adapters for p in fn.params()}
        self.stage_of.update({id(agg.w1): 1, id(agg.b1): 1, id(agg.queries): 2})
        for i, blk in enumerate(agg.blocks):
            self.stage_of.update((id(p), 2 + i) for p in blk.params())
        self.stage_of.update((id(p), 2 + self.n_blocks) for p in (agg.w2, agg.b2, agg.w3, agg.b3))

    def _replay(self, plan) -> float:
        env = self.base.copy()
        for kernel, refs, out, free in plan:
            env[out] = kernel(*[env[r] if type(r) is int else [env[i] for i in r]
                                for r in refs])
            for i in free:
                env[i] = None
        return ms_kernel(env[self.final], *self.pairs)[0]

    def full_loss(self) -> float:
        """The loss at the params' current values, every kernel re-run."""
        return self._replay(self.full)

    def probe(self, param) -> float:
        """Loss with `param` poked in place, re-running only what it reaches."""
        return self._replay(self.plans[id(param)])
