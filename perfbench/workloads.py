"""The benchmark's workloads, each driving `placerec.cli.main` in-process.

A workload has a set-up (corpus and checkpoint written before the pass,
timed as `setup_s`) and a pass: the CLI calls a user would make, each timed
on its own and each followed by an oracle from `oracles.py`. Every CLI
call, and the in-process checkpoint write of a set-up, is one operation; it
fails on a non-zero exit, an uncaught exception or a failed oracle.

Why these three: each spends its time in different modules, so together they
show a change to any layer and show when it slows a layer another workload
leans on.

- train: the gradient tape (taped forward, `Tape.backward`, Adam). The
  backbone fills a 64-image feature cache once and describes 64 images for
  retrieval; a traced pass measured it at about a fifth of the pass.
- index: the untaped path at N = Q = 1024: backbone extraction of 2048
  images, then exhaustive `knn` for every query. No tape, no optimizer.
- gradcheck: the `fasteval` finite-difference probes over every stage of
  the aggregator (adapters, input projection, two decoder blocks, head).
"""
from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import oracles
from placerec import cli, model as pr_model
from placerec.config import run_config_from_dict


def derive_seeds(seed: int) -> dict:
    """Every corpus and model seed from the workload seed; 0 gives the program defaults."""
    base = 1000 * seed
    return {"synth": base + 11, "backbone": base + 1, "lopa": base + 2,
            "aggregator": base + 3, "train": base + 7}


def write_checkpoint(path: str, run_cfg: dict) -> None:
    # through the module attribute, so a tracer's patch of save_model sees the call
    pr_model.save_model(path, pr_model.build_model(run_config_from_dict(run_cfg)))


def write_json(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


class OpFailed(Exception):
    """A call whose outputs later calls need did not complete."""


@dataclass
class Session:
    """Runs operations, times them and counts the ones that fail."""

    tracer: object = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def run(self, label: str, fn):
        """(return value, seconds) of fn(); raises OpFailed when it raises."""
        self.attempted += 1
        span = None
        if self.tracer is not None:
            self.tracer.op = self.attempted
            span = self.tracer.begin(label)
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # the program's failure is a counted result, not a crash
            self.fail(label, traceback.format_exc(limit=-3).strip())
            raise OpFailed(label) from exc
        finally:
            if span is not None:
                self.tracer.end(span)
        return value, time.perf_counter() - t0

    def call(self, *argv: str) -> tuple[str, float]:
        """`placerec <argv>`: (stdout, seconds); raises OpFailed on a non-zero exit."""
        out, err = io.StringIO(), io.StringIO()

        def main():
            with redirect_stdout(out), redirect_stderr(err):
                return cli.main(list(argv))

        rc, seconds = self.run(f"cli.{argv[0]}", main)
        if rc != 0:
            self.fail(argv[0], f"exit {rc}: {err.getvalue().strip()}")
            raise OpFailed(argv[0])
        return out.getvalue(), seconds

    def check(self, label: str, problems: list) -> None:
        """Count the operation just run as failed if its oracle found problems."""
        if problems:
            self.fail(label, "; ".join(problems))

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {why}")


@dataclass
class Pass:
    items: int           # units of the workload's main work
    item_s: float        # time the main work took
    pass_s: float        # all timed CLI calls of the pass
    info: dict           # figures reported for reading, name -> (value, unit)


def retrieve(s: Session, model: str, corpus: str, d: str) -> tuple[dict, str]:
    """extract db + query, then evaluate; (seconds per call, evaluate stdout)."""
    manifest = os.path.join(corpus, "manifest.csv")
    times = {}
    for split in ("db", "query"):
        out = os.path.join(d, f"{split}.edtd")
        _, times[split] = s.call("extract", "--model", model, "--data", corpus,
                                 "--split", split, "--out", out)
        s.check("extract", oracles.check_descriptors(out, manifest, split))
    q, db = os.path.join(d, "query.edtd"), os.path.join(d, "db.edtd")
    text, times["evaluate"] = s.call("evaluate", "--query", q, "--db", db, "--gt", manifest)
    s.check("evaluate", oracles.check_ranks(q, db, manifest, os.path.join(d, "query.ranks.csv"),
                                            text))
    return times, text


class Train:
    """32 places x 4 views at 64 px; 20 epochs of P=8 x K=2 (80 steps) at d=128.

    The backbone's cache fill is fixed per place while the taped steps grow
    with the epochs, so the epoch count, not the corpus size, sets how much
    of `train` the backbone takes: at 20 epochs about a tenth of `train`
    and a fifth of the pass.
    """

    # a set-up takes ~0.04 s, rendering and writing 128 images
    setups_per_pass = 25
    places, p, k, epochs = 32, 8, 2, 20

    def __init__(self, seed: int):
        sd = derive_seeds(seed)
        self.synth = {"places": self.places, "views_per_place": 4, "image_size": 64,
                      "seed": sd["synth"]}
        self.run_cfg = {"backbone": {"image_size": 64, "d": 128, "seed": sd["backbone"]},
                        "lopa": {"seed": sd["lopa"]}, "aggregator": {"seed": sd["aggregator"]},
                        "train": {"epochs": self.epochs, "P": self.p, "K": self.k,
                                  "seed": sd["train"]}}
        # two train views per place, every place in exactly one batch per epoch
        self.steps = self.epochs * (self.places // self.p)

    def setup(self, s: Session, d: str) -> dict:
        os.makedirs(d)
        corpus = os.path.join(d, "corpus")
        s.call("synth", "--config", write_json(os.path.join(d, "synth.json"), self.synth),
               "--out", corpus)
        return {"corpus": corpus, "config": write_json(os.path.join(d, "run.json"), self.run_cfg)}

    def run_pass(self, s: Session, inp: dict, d: str) -> Pass:
        _, t_train = s.call("train", "--config", inp["config"], "--data", inp["corpus"],
                            "--out", d)
        s.check("train", oracles.check_train_log(os.path.join(d, "train.log"), self.steps))
        times, text = retrieve(s, os.path.join(d, "model.edtc"), inp["corpus"], d)
        samples = self.steps * self.p * self.k
        return Pass(samples, t_train, t_train + sum(times.values()), {
            "train_samples_per_s": (samples / t_train, "images/s"),
            "recall_at_1": (oracles.recall_at(text, 1), "%"),
        })


class Index:
    """1024 places x 2 views at 32 px; an untrained seeded checkpoint at the default config."""

    setups_per_pass = 1
    places = 1024

    def __init__(self, seed: int):
        sd = derive_seeds(seed)
        self.synth = {"places": self.places, "views_per_place": 2, "image_size": 32,
                      "seed": sd["synth"]}
        self.run_cfg = {"backbone": {"seed": sd["backbone"]}, "lopa": {"seed": sd["lopa"]},
                        "aggregator": {"seed": sd["aggregator"]}, "train": {"seed": sd["train"]}}

    def setup(self, s: Session, d: str) -> dict:
        os.makedirs(d)
        corpus, model = os.path.join(d, "corpus"), os.path.join(d, "model.edtc")
        s.call("synth", "--config", write_json(os.path.join(d, "synth.json"), self.synth),
               "--out", corpus)
        s.run("model.checkpoint", lambda: write_checkpoint(model, self.run_cfg))
        return {"corpus": corpus, "model": model}

    def run_pass(self, s: Session, inp: dict, d: str) -> Pass:
        times, text = retrieve(s, inp["model"], inp["corpus"], d)
        n = self.places
        # a query is answered once its image is described and searched
        answer_s = times["query"] + times["evaluate"]
        return Pass(n, answer_s, sum(times.values()), {
            "extract_images_per_s": (2 * n / (times["db"] + times["query"]), "images/s"),
            "evaluate_queries_per_s": (n / times["evaluate"], "queries/s"),
            "recall_at_1": (oracles.recall_at(text, 1), "%"),
        })


class Gradcheck:
    """Full-pipeline gradient check at d=16, M=8: 5,808 scalars, two probes each.

    Every probe stage is still there; per scalar the probes cost about what
    they cost at d=32 (Python overhead dominates both), at a third of the time.
    """

    # a set-up takes ~2.5 ms
    setups_per_pass = 400

    def __init__(self, seed: int):
        sd = derive_seeds(seed)
        self.run_cfg = {"backbone": {"d": 16, "seed": sd["backbone"]}, "lopa": {"seed": sd["lopa"]},
                        "aggregator": {"M": 8, "seed": sd["aggregator"]},
                        "train": {"seed": sd["train"]}}

    def setup(self, s: Session, d: str) -> dict:
        # the checkpoint is the model gradcheck builds; the oracle counts its scalars
        os.makedirs(d)
        model = os.path.join(d, "model.edtc")
        s.run("model.checkpoint", lambda: write_checkpoint(model, self.run_cfg))
        return {"config": write_json(os.path.join(d, "run.json"), self.run_cfg),
                "scalars": oracles.trainable_scalars(model)}

    def run_pass(self, s: Session, inp: dict, d: str) -> Pass:
        text, t = s.call("gradcheck", "--config", inp["config"], "--tol", "1e-5")
        s.check("gradcheck", oracles.check_gradcheck(text, inp["scalars"]))
        return Pass(inp["scalars"], t, t, {
            "gradcheck_scalars_per_s": (inp["scalars"] / t, "scalars/s"),
        })


WORKLOADS = {"train": Train, "index": Index, "gradcheck": Gradcheck}


def median_info(passes: list) -> dict:
    return {k: (statistics.median(p.info[k][0] for p in passes), unit)
            for k, (_, unit) in passes[0].info.items()}


def one_pass(w, s: Session, inp: dict, d: str) -> Pass:
    os.makedirs(d)
    try:
        return w.run_pass(s, inp, d)
    finally:
        # removed at once, mostly before writeback, to keep small the disk
        # load a run leaves behind for the file creation timed in set-ups
        shutil.rmtree(d, ignore_errors=True)


def timed_setups(w, s: Session, work: str, repeats: int) -> tuple[dict, list]:
    """Set up `repeats` times into fresh directories; the last set-up's inputs are used."""
    times = []
    for i in range(repeats):
        d = os.path.join(work, f"setup{i}")
        t0 = time.perf_counter()
        inp = w.setup(s, d)
        times.append(time.perf_counter() - t0)
        if i < repeats - 1:
            shutil.rmtree(d)  # untimed; see one_pass
    return inp, times


def timed_rounds(w, s: Session, work: str, seconds: float) -> tuple[list, list]:
    """Rounds of `w.setups_per_pass` set-ups and one pass on the last one's
    inputs, until the next round would end further past `seconds` than
    stopping now; (seconds of every set-up, passes).

    Set-ups are spread over the run like the passes, so that both medians
    sample the host over the same stretch of time: on a shared machine its
    speed drifts from second to second.
    """
    setups, passes = [], []
    t0 = time.perf_counter()
    while True:
        d = os.path.join(work, f"round{len(passes)}")
        try:
            inp, times = timed_setups(w, s, d, w.setups_per_pass)
            passes.append(one_pass(w, s, inp, os.path.join(d, "pass")))
        finally:
            shutil.rmtree(d, ignore_errors=True)
        setups += times
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return setups, passes
