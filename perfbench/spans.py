"""Span tracing around calls into placerec's modules, from outside the program.

A Tracer patches the names that callers bind, not only the defining module:
`cli.py` calls `load_model` through its own module globals, `training.py`
calls `mine_pairs` through its own, and so on, so each wrapper is installed
on every module that imports the name. Class methods (`Tape.backward`,
`Adam.step`, `Trainer.stack_for`, `FastPipeline.probe`) are patched on the
class, which every caller shares.

Spans carry a name, start, end, parent span and the id of the CLI operation
they ran under, and stay in memory until `write` is called. Counters that
need no timing (matmul calls and flops) are kept without spans, so the hot
`ops.matmul` path pays two counter updates per call.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import Counter, defaultdict

# Per-layer metrics the traced run reports, in BENCHMARK.json order.
MODULES = ("cli", "synth", "fileformats", "model", "backbone", "attention", "adapters",
           "aggregator", "autodiff", "loss", "training", "retrieval", "gradcheck", "fasteval")
PROBE_STAGES = ("adapters", "in_proj", "block0", "block1", "head")

_READERS = ("read_image", "read_descriptors", "read_sidecar", "read_checkpoint")
_WRITERS = ("write_image", "write_descriptors", "write_sidecar", "write_checkpoint")


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op = 0                      # id of the CLI operation now running
        self.spans: list[list] = []      # [id, parent, op, name, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple] = []
        self._probe_t0 = None
        self.analytic_s = 0.0

    # recording ------------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               self.op, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, kwargs, result) updates counters."""
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # the patch set --------------------------------------------------------

    def install(self, pr) -> None:
        """Patch the placerec package `pr` (its submodules already imported)."""
        cli, fmt, model = pr.cli, pr.fileformats, pr.model
        training, retrieval = pr.training, pr.retrieval

        self.patch(cli, "generate", self.wrap("synth.generate", cli.generate))

        # every reader and writer takes the file path first
        def read(args, kwargs, result):
            self.counts["fileformats.bytes_read"] += os.path.getsize(args[0])

        def written(args, kwargs, result):
            self.counts["fileformats.bytes_written"] += os.path.getsize(args[0])

        for nm in _READERS:
            self.patch(fmt, nm, self.wrap(f"fileformats.{nm}", getattr(fmt, nm), read))
        for nm in _WRITERS:
            self.patch(fmt, nm, self.wrap(f"fileformats.{nm}", getattr(fmt, nm), written))

        for owner in (cli, model):
            self.patch(owner, "save_model", self.wrap("model.save_model", owner.save_model))
        self.patch(cli, "load_model", self.wrap("model.load_model", cli.load_model))

        self.patch(model, "forward_collect",
                   self.wrap("backbone.forward_collect", model.forward_collect))
        for owner in (pr.backbone, pr.aggregator):
            self.patch(owner, "mha", self.wrap("attention.mha", owner.mha))
        self.patch(model, "lopa_forward", self.wrap("adapters.lopa_forward", model.lopa_forward))
        self.patch(model, "aggregate", self.wrap("aggregator.aggregate", model.aggregate))
        self._install_matmul(pr)

        tape_cls = pr.autodiff.Tape
        backward = self.wrap("autodiff.backward", tape_cls.backward)

        def counted_backward(tape, root):
            self.counts["autodiff.tape_ops"] += len(tape._ops)
            held = tape.retained_bytes()
            if held > self.counts["autodiff.retained_bytes"]:
                self.counts["autodiff.retained_bytes"] = held
            return backward(tape, root)

        self.patch(tape_cls, "backward", counted_backward)

        def mined(args, kwargs, result):
            b = len(args[1])
            kept = result.kept_pos + result.kept_neg
            self.counts["loss.mined_batches"] += 1
            self.counts["loss.kept_pairs"] += kept
            self.counts["loss.candidate_pairs"] += (b - len(result.skipped)) * (b - 1)
            self.counts["loss.empty_steps"] += kept == 0

        for owner in (training, model):
            self.patch(owner, "similarity_matrix",
                       self.wrap("loss.similarity_matrix", owner.similarity_matrix))
            self.patch(owner, "mine_pairs", self.wrap("loss.mine_pairs", owner.mine_pairs, mined))
            self.patch(owner, "ms_loss", self.wrap("loss.ms_loss", owner.ms_loss))

        self.patch(training, "train_step", self.wrap("training.train_step", training.train_step))
        self.patch(training.Adam, "step", self.wrap("training.adam_step", training.Adam.step))
        stack_for = self.wrap("training.stack_for", training.Trainer.stack_for)

        def counted_stack_for(trainer, image_id):
            self.counts["training.stack_lookups"] += 1
            self.counts["training.stack_misses"] += image_id not in trainer._cache
            return stack_for(trainer, image_id)

        self.patch(training.Trainer, "stack_for", counted_stack_for)

        self.patch(cli, "extract_descriptors",
                   self.wrap("retrieval.extract_descriptors", cli.extract_descriptors))
        self.patch(cli, "evaluate_files", self.wrap("retrieval.evaluate_files", cli.evaluate_files))
        for nm in ("knn", "build_index", "recall_at_n"):
            self.patch(retrieval, nm, self.wrap(f"retrieval.{nm}", getattr(retrieval, nm)))

        self._install_gradcheck(pr)

    def _install_matmul(self, pr) -> None:
        original = pr.ops.matmul
        counts = self.counts

        def counted_matmul(a, b):
            out = original(a, b)
            # 2 flops per multiply-add: every output entry sums a.shape[-1] products
            counts["ops.matmul_calls"] += 1
            counts["ops.matmul_flops"] += 2 * out.data.size * a.shape[-1]
            return out

        for owner in (pr.ops, pr.attention, pr.backbone, pr.adapters, pr.loss):
            self.patch(owner, "matmul", counted_matmul)

    def _install_gradcheck(self, pr) -> None:
        model, fp_cls = pr.model, pr.fasteval.FastPipeline
        self.patch(pr.cli, "pipeline_gradcheck",
                   self.wrap("gradcheck.pipeline_gradcheck", pr.cli.pipeline_gradcheck))
        grad_check = self.wrap("gradcheck.grad_check", model.grad_check)

        def timed_grad_check(*args, **kwargs):
            # the analytic pass is everything before the first probe
            self._probe_t0 = None
            t0 = time.perf_counter()
            report = grad_check(*args, **kwargs)
            first = self._probe_t0 if self._probe_t0 is not None else time.perf_counter()
            self.analytic_s += first - t0
            return report

        self.patch(model, "grad_check", timed_grad_check)
        self.patch(fp_cls, "__init__", self.wrap("fasteval.build", fp_cls.__init__))
        probe = fp_cls.probe

        def staged_probe(fp, param):
            stage = fp.stage_of[id(param)]
            if stage == 0:
                label = "adapters"
            elif stage == 1:
                label = "in_proj"
            elif stage < 2 + fp.n_blocks:
                label = f"block{stage - 2}"
            else:
                label = "head"
            rec = self.begin(f"fasteval.probe.{label}")
            if self._probe_t0 is None:
                self._probe_t0 = rec[4]
            try:
                return probe(fp, param)
            finally:
                self.end(rec)

        self.patch(fp_cls, "probe", staged_probe)

    # reporting ------------------------------------------------------------

    def _per_module(self) -> tuple[dict, dict]:
        """(busy, self) seconds per module.

        busy: time inside the module's outermost spans, so a span nested in
        one of the same module is not counted twice. self: span durations
        minus the time their child spans cover.
        """
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy, own = defaultdict(float), defaultdict(float)
        enclosing: dict = {}             # span id -> modules of it and its ancestors
        for sid, parent, _, name, start, end in self.spans:
            mod = name.split(".", 1)[0]
            outer = enclosing[parent] if parent is not None else frozenset()
            enclosing[sid] = outer | {mod}
            if mod not in outer:
                busy[mod] += end - start
            own[mod] += (end - start) - child[sid]
        return busy, own

    def metrics(self) -> dict:
        """Per-layer values keyed by metric name (units are in BENCHMARK.json)."""
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s[3]].append(s[5] - s[4])

        def dur(prefix):
            return [d for name, ds in by_name.items() if name.startswith(prefix) for d in ds]

        c = self.counts
        busy, own = self._per_module()
        steps_ms = [d * 1e3 for d in dur("training.train_step")]
        m = {
            "synth.generate_s": sum(dur("synth.generate")),
            "fileformats.read_s": sum(dur("fileformats.read_")),
            "fileformats.write_s": sum(dur("fileformats.write_")),
            "fileformats.bytes_read": c["fileformats.bytes_read"],
            "fileformats.bytes_written": c["fileformats.bytes_written"],
            "model.load_s": sum(dur("model.load_model")),
            "model.save_s": sum(dur("model.save_model")),
            "backbone.calls": len(dur("backbone.forward_collect")),
            "backbone.busy_s": busy["backbone"],
            "attention.mha_calls": len(dur("attention.mha")),
            "attention.mha_busy_s": busy["attention"],
            "adapters.busy_s": busy["adapters"],
            "aggregator.calls": len(dur("aggregator.aggregate")),
            "aggregator.busy_s": busy["aggregator"],
            "ops.matmul_calls": c["ops.matmul_calls"],
            "ops.matmul_flops": c["ops.matmul_flops"],
            "autodiff.backward_calls": len(dur("autodiff.backward")),
            "autodiff.backward_s": sum(dur("autodiff.backward")),
            "autodiff.tape_ops": c["autodiff.tape_ops"],
            "autodiff.retained_bytes": c["autodiff.retained_bytes"],
            "loss.busy_s": busy["loss"],
            "loss.mined_batches": c["loss.mined_batches"],
            "loss.empty_steps": c["loss.empty_steps"],
            "loss.kept_pairs": c["loss.kept_pairs"],
            "loss.candidate_pairs": c["loss.candidate_pairs"],
            "loss.kept_pair_ratio": (c["loss.kept_pairs"] / c["loss.candidate_pairs"]
                                     if c["loss.candidate_pairs"] else 0.0),
            "training.steps": len(steps_ms),
            "training.step_ms_p50": _percentile(steps_ms, 50),
            "training.step_ms_p95": _percentile(steps_ms, 95),
            "training.adam_s": sum(dur("training.adam_step")),
            "training.stack_lookups": c["training.stack_lookups"],
            "training.stack_misses": c["training.stack_misses"],
            "training.stack_miss_ratio": (c["training.stack_misses"] / c["training.stack_lookups"]
                                          if c["training.stack_lookups"] else 0.0),
            "retrieval.extract_s": sum(dur("retrieval.extract_descriptors")),
            "retrieval.evaluate_s": sum(dur("retrieval.evaluate_files")),
            "retrieval.knn_calls": len(dur("retrieval.knn")),
            "retrieval.knn_s": sum(dur("retrieval.knn")),
            "retrieval.build_index_s": sum(dur("retrieval.build_index")),
            "retrieval.recall_s": sum(dur("retrieval.recall_at_n")),
            "gradcheck.analytic_s": self.analytic_s,
            "gradcheck.probes": len(dur("fasteval.probe.")),
            "fasteval.build_s": sum(dur("fasteval.build")),
        }
        for stage in PROBE_STAGES:
            times = by_name[f"fasteval.probe.{stage}"]
            m[f"fasteval.probes.{stage}"] = len(times)
            m[f"fasteval.probe_us.{stage}"] = sum(times) / len(times) * 1e6 if times else 0.0
        for mod in MODULES:
            m[f"{mod}.self_s"] = own[mod]
        m["trace.spans"] = len(self.spans)
        return m

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, **header}) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "op": op, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
