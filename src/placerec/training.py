"""Adam training loop over P-places x K-views batches.

Only adapter and aggregator parameters train; the encoder contributes
constant feature stacks, encoded once per run before the first step, so a
step never touches backbone storage. Each step logs one machine-parsable
key=value line.

Training is mixed precision. The shards run the same definitions as the
gradient check, on the taped wrappers but in float32: the float32 feature
cache as the encoder made it, and float32 shadows of the params, with
float32 gradient rows. The B x B similarity, the mining and the loss run on
the descriptor rows upcast exactly to float64, and dL/dD goes back to the
shards in float32. Adam keeps the params' float64 master values and float64
moments, and rounds each update into the shadows.

Every batch splits into two fixed shards, rows [0, B//2) and [B//2, B),
each forwarded on its own tape. On two or more CPUs the run is the two
shares of one fanout.fan_out: this process owns shard 0 and a forked child
shard 1 for the whole run, in lockstep at fanout.Peer barriers. The two
share one arena, mapped before the fork: the trainable values as one flat
buffer (every Param.value a view into it) and its float32 shadow, one
float32 gradient row per shard, and the gathered descriptor rows. Each
writes its shard's descriptor rows, and after a barrier both compute the
loss on the whole batch and back-propagate their own rows into their own
gradient row. The Adam step is split between
them (ZeRO stage 1): each adds the peer's gradient to its own on half of the
scalars, keeps the moments of that half only and updates it in place, with
its shadow. On one CPU this process owns both shards and steps both halves.
Adam is elementwise and the gradient is the same float32 sum g0 + g1 either
way, so the log and the checkpoint do not depend on the CPU count.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Param, Tape, Tensor
from .config import TrainConfig
from .errors import NumericalError, ValidationError
from .fanout import PeerLost, PeerPipes, fan_out, shared_array
from .fanout import workers as _workers
from .loss import LossConfig, mine_pairs, ms_loss, similarity_matrix
from .model import DescriptorModel, describe_stack, encode_chunks, trainable_params
from .ops import inner
from .synth import BatchSampler, Manifest

# Images per encoder pass when filling the training cache. The 64 images of
# the train benchmark (64 px, d 128) filled on two CPUs in 0.119 s at 4,
# 0.125 s at 8, 0.136 s at 16 and 0.156 s at 32 (medians of 10 fills on a
# 2-CPU x86-64 host); 8 keeps within 5% of the best with half as many passes.
FILL_CHUNK = 8


class Adam:
    """Adam over one flat buffer of every trainable scalar.

    Each param's value, shadow and grad are views into the flat float64
    `values`, float32 `shadow` and float32 `grad`: new private buffers, or
    those given. step() consumes and clears grad, and updates the scalars of
    `part` in place: all of them, or after split() one half. The moments
    cover `part` only and, like the values, are float64; the shadow of
    `part` is rounded from the new values.
    """

    def __init__(self, params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, values=None, grad=None,
                 shadow=None):
        self.params = [p for p in params if p.trainable]
        if not self.params:
            raise ValidationError("optimizer has no trainable params")
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        n = sum(p.size for p in self.params)
        self.part = slice(0, n)
        self.peer_grad = None
        self.m = self.v = self._work = None     # made at the first step, for `part`
        self.values = np.empty(n) if values is None else values
        self.shadow = np.empty(n, np.float32) if shadow is None else shadow
        self.grad = np.empty(n, np.float32) if grad is None else grad
        for p, value, low, g in zip(self.params, self._views(self.values),
                                    self._views(self.shadow), self._views(self.grad)):
            value[...] = p.value.data
            low[...] = value
            g[...] = p.grad
            p.value, p.shadow, p.grad = Tensor(value), Tensor(low), g

    def _views(self, flat: np.ndarray) -> list:
        """Per param, the view of its scalars in a flat buffer."""
        ends = itertools.accumulate(p.size for p in self.params)
        return [flat[end - p.size:end].reshape(p.shape) for p, end in zip(self.params, ends)]

    def split(self, grads: np.ndarray, rank: int) -> None:
        """Share the steps with the other process of a pair, before the first.

        grads is a zeroed float32 (2, n) array that both processes map, as
        they map `values` and `shadow`. This process accumulates into
        grads[rank] and owns half `rank` of the scalars (cut at n // 2):
        step() adds the peer's row on that half and updates it, and the
        moments of that half are all it keeps.
        """
        n = self.values.size
        self.part = slice(0, n // 2) if rank == 0 else slice(n // 2, n)
        for p, g in zip(self.params, self._views(grads[rank])):
            p.grad = g
        self.grad, self.peer_grad = grads[rank], grads[1 - rank]

    def release(self) -> None:
        """Give every param a private copy of its value and a float64 grad,
        and drop its shadow: reads return the float64 value again."""
        for p in self.params:
            p.value = Tensor(p.value.data.copy())
            p.grad = p.grad.astype(np.float64)
            p.shadow = None

    def step(self, peer=None) -> None:
        """One update from the summed gradient, which it then clears.

        With a peer (a fanout.Peer, after split) a barrier comes first, once
        both gradient rows are complete, and another after the update, once
        both halves of the values and the shadow are new and neither process
        reads the other's gradient row any more.
        """
        if peer is not None:
            peer.barrier()
        if self.m is None:
            k = self.part.stop - self.part.start
            self.m, self.v, self._work = np.zeros(k), np.zeros(k), (np.empty(k), np.empty(k))
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        g, m, v = self.grad[self.part], self.m, self.v
        if self.peer_grad is not None:
            g += self.peer_grad[self.part]      # g0 + g1, as one process sums them
        # m += (1 - beta1)(g - m); v += (1 - beta2)(g^2 - v);
        # values -= lr (m / c1) / (sqrt(v / c2) + eps), in two float64 scratch
        # arrays; the float32 g is read exactly, and squared in float64
        a, b = self._work
        np.subtract(g, m, out=a)
        a *= 1.0 - self.beta1
        m += a
        np.multiply(g, g, out=a, dtype=np.float64)
        a -= v
        a *= 1.0 - self.beta2
        v += a
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, c1, out=b)
        b /= a
        b *= self.lr
        self.values[self.part] -= b
        self.shadow[self.part] = self.values[self.part]
        if peer is not None:
            peer.barrier()
        self.grad.fill(0.0)


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Schedule: starting rate decayed every decay_every epochs (0-based)."""
    return cfg.lr * cfg.lr_decay ** (epoch // cfg.decay_every)


@dataclass
class StepResult:
    step: int
    epoch: int
    lr: float
    loss: float
    kept_pos: int
    kept_neg: int
    skipped: int

    def logline(self) -> str:
        return (f"step={self.step} epoch={self.epoch} lr={self.lr:.6g} "
                f"loss={self.loss:.6f} kept_pos={self.kept_pos} "
                f"kept_neg={self.kept_neg} skipped={self.skipped}")


def shards(b: int) -> list:
    """The two fixed row slices a batch of b rows splits into."""
    return [slice(0, b // 2), slice(b // 2, b)]


def train_step(model: DescriptorModel, stacks, place_ids,
               loss_cfg: LossConfig, opt: Adam, peer=None, desc=None) -> StepResult:
    """One update: descriptors -> mine -> loss -> backward -> Adam.

    stacks: per-image constant feature stacks, (layer, n, d) arrays or lists
    of (n, d) arrays, one per batch row, or with a peer (a fanout.Peer) only
    those of the rows of shard peer.rank, which the peer's process does not
    forward. A shard computes in their dtype: float32 from the Trainer's
    cache. place_ids covers the whole batch. With a peer, desc is the
    float64 (B, D) array both processes map and opt has been split: each
    writes its shard's rows, and after a barrier both compute the same loss
    and take their halves of the same step. A non-finite loss aborts before
    any parameter moves.
    """
    b = len(place_ids)
    parts = shards(b)
    own = parts if peer is None else [parts[peer.rank]]
    first = own[0].start
    if desc is None:
        desc = np.empty((b, model.descriptor_dim))
    taped = []                                   # (rows, tape, descriptors)
    for rows in own:
        if rows.stop == rows.start:
            continue
        # one gather of the shard's rows, layer-major: (B, n, d) per layer
        layers = list(np.stack(stacks[rows.start - first:rows.stop - first], axis=1))
        tape = Tape()
        with tape:
            d = describe_stack(model, layers)
        desc[rows] = d.data                      # an exact upcast to float64
        taped.append((rows, tape, d))
    if peer is not None:
        peer.barrier()                           # the peer's rows are in desc

    # the gathered float64 descriptors are a leaf: its gradient is dL/dD
    leaf = Param(desc, name="descriptors")
    tape = Tape()
    with tape:
        s = similarity_matrix(leaf.read())
        mining = mine_pairs(s, place_ids, loss_cfg.margin)
        loss = ms_loss(s, mining, loss_cfg)
    val = float(loss.data)
    if not np.isfinite(val):
        raise NumericalError(
            f"training loss is not finite ({val}) on places {sorted(set(place_ids))}")
    # with no mined pair the loss is the constant 0 and every gradient is
    # zero, so the sweeps are skipped; Adam still steps (its moments decay)
    if mining.kept_pos or mining.kept_neg:
        tape.backward(loss)
        # each shard's sweep adds its rows' share to Param.grad: g0, then g1;
        # `inner` casts dL/dD to the shard's float32
        for rows, shard_tape, d in taped:
            with shard_tape:
                root = inner(d, leaf.grad[rows])
            shard_tape.backward(root)
    opt.step(peer)
    return StepResult(step=0, epoch=0, lr=opt.lr, loss=val,
                      kept_pos=mining.kept_pos, kept_neg=mining.kept_neg,
                      skipped=len(mining.skipped))


@dataclass
class Trainer:
    """Drives epochs over a synthetic corpus from a cache of feature stacks."""

    model: DescriptorModel
    manifest: Manifest
    data_dir: str
    loss_cfg: LossConfig
    train_cfg: TrainConfig
    log: object = print
    _cache: dict = field(default_factory=dict)

    def fill(self, image_ids) -> None:
        """Cache the feature stacks of the uncached images.

        They go into one float32 (image, layer, token, width) array in shared
        memory, encoded in chunks dealt over the CPUs, each written straight
        into it as the encoder made it; a replica forked later reads the
        same pages. Each image's entry is its (layer, token, width) view of
        that array, which a shard gathers from as it is.
        """
        todo = [i for i in dict.fromkeys(image_ids) if i not in self._cache]
        if not todo:
            return
        bb = self.model.run_cfg.backbone
        cache = shared_array((len(todo), bb.depth + 1, bb.num_patches + 1, bb.d), np.float32)

        def write(i, layers):
            for l, z in enumerate(layers):
                cache[i:i + len(z), l] = z

        encode_chunks(self.model, self.data_dir, todo, FILL_CHUNK, _workers(), write,
                      "Trainer.fill: chunk worker")
        self._cache.update(zip(todo, cache))

    def stack_for(self, image_id: str):
        return self._cache[image_id]

    def run(self) -> list:
        """Every epoch's steps; the history of this process, the only one that logs.

        The feature stacks of every image the sampler can draw are cached
        first. The second process of a pair, when there is one, starts from
        a copy of this process's sampler, optimizer and cache, and ends
        before this returns; the params then hold private copies of their
        values again. Of the two processes' errors, the earlier step's is
        raised, and at one step this process's, as one process meets them.
        """
        cfg = self.train_cfg
        cfg.validate()
        sampler = BatchSampler(self.manifest, cfg.p, cfg.k, np.random.default_rng(cfg.seed))
        self.fill([r.image_id for r in self.manifest.split_rows("train")
                   if r.place_id in sampler.by_place])
        params = trainable_params(self.model)
        history = []
        if _workers() < 2:
            opt = Adam(params, lr=cfg.lr)
            try:
                self._epochs(sampler, opt, None, None, history)
                return history
            finally:
                opt.release()
        # the arena: values and descriptor rows for the largest batch,
        # (P + 1) x K when a leftover place joins the last one, in float64;
        # the shadow and two gradient rows in float32
        n, dim = sum(p.size for p in params), self.model.descriptor_dim
        arena = shared_array((n + (cfg.p + 1) * cfg.k * dim,))
        low = shared_array((3, n), np.float32)
        grads, desc = low[1:], arena[n:].reshape(-1, dim)
        opt = Adam(params, lr=cfg.lr, values=arena[:n], grad=grads[0], shadow=low[0])

        def share(rank):
            if rank == 1:
                self.log = None
            with pipes.peer(rank) as peer:
                try:
                    opt.split(grads, rank)
                    self._epochs(sampler, opt, peer, desc, history)
                except PeerLost as exc:     # the peer's own error, if any, wins
                    return None, (math.inf, exc)
                except Exception as exc:    # fan_out raises the earliest step's
                    return None, (len(history), exc)
            return (history if rank == 0 else None), None

        try:
            with PeerPipes() as pipes:
                return fan_out(2, share, "train replica")[0]
        finally:
            opt.release()

    def _epochs(self, sampler: BatchSampler, opt: Adam, peer, desc, history: list) -> None:
        """Run every step, appending each one's result to history."""
        cfg = self.train_cfg
        for epoch in range(cfg.epochs):
            opt.lr = lr_at(cfg, epoch)
            for ids, pids in sampler.epoch():
                if peer is not None:
                    ids = ids[shards(len(ids))[peer.rank]]
                res = train_step(self.model, [self.stack_for(i) for i in ids], pids,
                                 self.loss_cfg, opt, peer,
                                 None if desc is None else desc[:len(pids)])
                res.step, res.epoch = len(history) + 1, epoch + 1
                history.append(res)
                if self.log is not None:
                    self.log(res.logline())


def epoch_mean_loss(history, epoch: int) -> float:
    vals = [r.loss for r in history if r.epoch == epoch]
    if not vals:
        raise ValidationError(f"no recorded steps for epoch {epoch}")
    return float(np.mean(vals))
