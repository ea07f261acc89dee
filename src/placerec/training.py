"""Adam training loop over P-places x K-views batches.

Only adapter and aggregator parameters train; the encoder contributes
cached constant feature stacks, so a step never touches backbone storage.
Each step logs one machine-parsable key=value line.

Every batch splits into two fixed shards, rows [0, B//2) and [B//2, B),
each forwarded on its own tape. On two or more CPUs a forked replica owns
shard 1 for the whole run (fanout.fork_replica): the two processes swap
descriptor rows, both compute the loss on the gathered batch, each
back-propagates its own rows, and they add their gradients before the same
Adam step. On one CPU this process owns both shards. The gradient is the
same sum g0 + g1 either way, so the log and the checkpoint do not depend on
the CPU count.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Param, Tape, Tensor
from .config import TrainConfig
from .errors import NumericalError, ValidationError
from .fanout import fork_replica
from .fanout import workers as _workers
from .loss import LossConfig, mine_pairs, ms_loss, similarity_matrix
from .model import (
    DescriptorModel,
    batch_stacks,
    describe_stack,
    feature_stack,
    stack_images,
    trainable_params,
)
from .ops import inner
from .synth import BatchSampler, Manifest, load_image


class Adam:
    """Moment-tracked gradient descent; step() consumes and clears grads."""

    def __init__(self, params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = [p for p in params if p.trainable]
        if not self.params:
            raise ValidationError("optimizer has no trainable params")
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {id(p): np.zeros_like(p.value.data) for p in self.params}
        self.v = {id(p): np.zeros_like(p.value.data) for p in self.params}

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = p.grad
            m = self.m[id(p)]
            v = self.v[id(p)]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            upd = (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.value = Tensor(p.value.data - self.lr * upd)
            p.zero_grad()


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
               loss_cfg: LossConfig, opt: Adam, peer=None) -> StepResult:
    """One update: descriptors -> mine -> loss -> backward -> Adam.

    stacks: per-image constant feature stacks (lists of (n, d) arrays), one
    per batch row, or with a peer (a fanout.Peer) only those of the rows of
    shard peer.rank, which the peer's process does not forward. place_ids
    covers the whole batch. Both processes of a pair compute the same loss
    and take the same step. A non-finite loss aborts before any parameter
    moves.
    """
    b = len(place_ids)
    parts = shards(b)
    own = parts if peer is None else [parts[peer.rank]]
    first = own[0].start
    desc = np.empty((b, model.descriptor_dim))
    taped = []                                   # (rows, tape, descriptors)
    for rows in own:
        if rows.stop == rows.start:
            continue
        tape = Tape()
        with tape:
            d = describe_stack(model, batch_stacks(stacks[rows.start - first:rows.stop - first]))
        desc[rows] = d.data
        taped.append((rows, tape, d))
    if peer is not None:
        peer.swap(desc[parts[peer.rank]], desc[parts[1 - peer.rank]])

    # the gathered descriptors are a leaf: its gradient is dL/dD
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
        # each shard's sweep adds its rows' share to Param.grad: g0, then g1
        for rows, shard_tape, d in taped:
            with shard_tape:
                root = inner(d, leaf.grad[rows])
            shard_tape.backward(root)
        if peer is not None:
            peer.add_from([p.grad for p in opt.params])
    opt.step()
    return StepResult(step=0, epoch=0, lr=opt.lr, loss=val,
                      kept_pos=mining.kept_pos, kept_neg=mining.kept_neg,
                      skipped=len(mining.skipped))


@dataclass
class Trainer:
    """Drives epochs over a synthetic corpus with per-image stack caching."""

    model: DescriptorModel
    manifest: Manifest
    data_dir: str
    loss_cfg: LossConfig
    train_cfg: TrainConfig
    log: object = print
    _cache: dict = field(default_factory=dict)

    def fill(self, image_ids) -> None:
        """Cache the feature stacks of the uncached images, in one encoder pass."""
        # frozen encoder: per-image features are constant across steps. They
        # are float64 upcasts of float32 values, so the float32 copies kept
        # here are exact at half the bytes; batch_stacks upcasts them again.
        todo = [i for i in dict.fromkeys(image_ids) if i not in self._cache]
        if todo:
            images = stack_images([load_image(self.data_dir, i) for i in todo], todo)
            layers = [z.data.astype(np.float32) for z in feature_stack(self.model, images)]
            for j, image_id in enumerate(todo):
                self._cache[image_id] = [z[j] for z in layers]

    def stack_for(self, image_id: str):
        self.fill([image_id])
        return self._cache[image_id]

    def run(self) -> list:
        """Every epoch's steps; the history of this process, the only one that logs.

        A replica, when there is one, starts from a copy of this process's
        sampler, optimizer and cache, and ends before this returns.
        """
        cfg = self.train_cfg
        cfg.validate()
        sampler = BatchSampler(self.manifest, cfg.p, cfg.k, np.random.default_rng(cfg.seed))
        opt = Adam(trainable_params(self.model), lr=cfg.lr)
        if _workers() < 2:
            return self._epochs(sampler, opt, None)

        def replica(peer):
            self.log = None
            self._epochs(sampler, opt, peer)

        with fork_replica(replica, "train") as peer:
            return self._epochs(sampler, opt, peer)

    def _epochs(self, sampler: BatchSampler, opt: Adam, peer) -> list:
        cfg = self.train_cfg
        history = []
        step = 0
        for epoch in range(cfg.epochs):
            opt.lr = lr_at(cfg, epoch)
            for ids, pids in sampler.epoch():
                if peer is not None:
                    ids = ids[shards(len(ids))[peer.rank]]
                self.fill(ids)
                res = train_step(self.model, [self.stack_for(i) for i in ids],
                                 pids, self.loss_cfg, opt, peer)
                step += 1
                res.step, res.epoch = step, epoch + 1
                history.append(res)
                if self.log is not None:
                    self.log(res.logline())
        return history


def epoch_mean_loss(history, epoch: int) -> float:
    vals = [r.loss for r in history if r.epoch == epoch]
    if not vals:
        raise ValidationError(f"no recorded steps for epoch {epoch}")
    return float(np.mean(vals))
