"""Command-line driver: synthesis, training, extraction, evaluation, diagnostics.

Every subcommand is deterministic given the config seed. Exit codes: 0 on
success, 1 for validation/format problems (bad flags, bad config, bad files),
2 when the computation itself fails (non-finite loss, gradient check failure).
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import fileformats
from .adapters import memory_report
from .config import RunConfig, load_run_config, load_synth_config
from .errors import (
    ContractError,
    DegenerateInputError,
    FormatError,
    PlacerecError,
    ShapeError,
    ValidationError,
)
from .model import build_model, load_model, pipeline_gradcheck, save_model
from .retrieval import (
    evaluate_files,
    extract_descriptors,
    write_ranks_csv,
    write_recall_csv,
)
from .synth import SynthConfig, generate, read_manifest
from .training import Trainer

# Fixed desk-scale probe batch for the gradient check: 4 places x 2 views.
# Small enough to finish in minutes, large enough that mining keeps pairs.
_GRADCHECK_PLACES = [0, 0, 1, 1, 2, 2, 3, 3]


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit, so main() owns codes."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    p = _Parser(prog="placerec", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    s = sub.add_parser("synth", help="generate a synthetic corpus")
    s.add_argument("--config", help="JSON corpus config (defaults used if omitted)")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(fn=cmd_synth)

    s = sub.add_parser("train", help="train adapters + aggregator on a corpus")
    s.add_argument("--config", help="JSON run config (defaults used if omitted)")
    s.add_argument("--data", required=True, help="corpus directory with manifest.csv")
    s.add_argument("--out", required=True, help="output directory for checkpoint and log")
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("extract", help="write descriptors for one split")
    s.add_argument("--model", required=True, help="checkpoint file")
    s.add_argument("--data", required=True, help="corpus directory with manifest.csv")
    s.add_argument("--split", required=True, choices=("train", "db", "query"))
    s.add_argument("--out", required=True, help="descriptor file (sidecar CSV written next to it)")
    s.set_defaults(fn=cmd_extract)

    s = sub.add_parser("evaluate", help="score query descriptors against a database")
    s.add_argument("--query", required=True, help="query descriptor file")
    s.add_argument("--db", required=True, help="database descriptor file")
    s.add_argument("--gt", required=True, help="ground-truth CSV mapping image ids to places")
    s.add_argument("--n", default="1,5,10", help="comma-separated recall cutoffs")
    s.set_defaults(fn=cmd_evaluate)

    s = sub.add_parser("gradcheck", help="finite-difference check of the full pipeline")
    s.add_argument("--config", help="JSON run config (defaults used if omitted)")
    s.add_argument("--tol", type=float, default=1e-5, help="relative-error tolerance")
    s.set_defaults(fn=cmd_gradcheck)

    s = sub.add_parser("memreport", help="trainable params and retained activation bytes")
    s.add_argument("--config", help="JSON run config (defaults used if omitted)")
    s.set_defaults(fn=cmd_memreport)

    return p


def _run_config(path) -> RunConfig:
    if path is None:
        cfg = RunConfig()
        cfg.validate()
        return cfg
    return load_run_config(path)


def cmd_synth(args) -> int:
    cfg = load_synth_config(args.config) if args.config else SynthConfig()
    cfg.validate()
    manifest = generate(cfg, args.out)
    print(f"wrote {len(manifest.rows)} images ({cfg.places} places) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args.config)
    manifest = read_manifest(os.path.join(args.data, "manifest.csv"))
    model = build_model(cfg)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "train.log")
    ckpt_path = os.path.join(args.out, "model.edtc")
    with open(log_path, "w", encoding="utf-8") as logf:

        def log(line: str) -> None:
            print(line)
            logf.write(line + "\n")

        trainer = Trainer(model, manifest, args.data, cfg.loss, cfg.train, log=log)
        history = trainer.run()
    save_model(ckpt_path, model)
    print(f"wrote {ckpt_path} after {len(history)} steps")
    return 0


def cmd_extract(args) -> int:
    model = load_model(args.model)
    manifest = read_manifest(os.path.join(args.data, "manifest.csv"))
    ids, matrix, places = extract_descriptors(model, manifest, args.data, args.split)
    fileformats.write_descriptors(args.out, matrix)
    fileformats.write_sidecar(args.out + ".csv", ids, places)
    print(f"wrote {len(ids)} descriptors (dim {matrix.shape[1]}) to {args.out}")
    return 0


def _parse_ns(text: str) -> list[int]:
    try:
        ns = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"--n must be comma-separated integers, got {text!r}")
    if not ns:
        raise ValidationError("--n must name at least one cutoff")
    return ns


def cmd_evaluate(args) -> int:
    ns = _parse_ns(args.n)
    result = evaluate_files(args.query, args.db, args.gt, ns)
    for line in result.lines():
        print(line)
    stem = args.query[: -len(".edtd")] if args.query.endswith(".edtd") else args.query
    write_recall_csv(stem + ".recall.csv", result)
    q_ids, _ = fileformats.read_sidecar(args.query + ".csv")
    write_ranks_csv(stem + ".ranks.csv", q_ids, result)
    print(f"reports: {stem}.recall.csv {stem}.ranks.csv")
    return 0


def cmd_gradcheck(args) -> int:
    # `rel > tol` is never true for NaN and always true below 0
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValidationError(f"--tol must be a finite number > 0, got {args.tol}")
    cfg = _run_config(args.config)
    model = build_model(cfg)
    rng = np.random.default_rng(cfg.train.seed)
    shape = (cfg.backbone.image_size, cfg.backbone.image_size, cfg.backbone.channels)
    images = [rng.normal(size=shape) for _ in _GRADCHECK_PLACES]
    report = pipeline_gradcheck(
        model, images, list(_GRADCHECK_PLACES), tol=args.tol
    )
    print(report.summary())
    for entry in report.failures[:20]:
        print(
            f"  {entry.param}[{entry.index}] analytic={entry.analytic:.9g}"
            f" numeric={entry.numeric:.9g} rel={entry.rel_err:.3e}"
        )
    return 0 if report.ok else 2


def cmd_memreport(args) -> int:
    cfg = _run_config(args.config)
    for mode in ("lopa", "serial"):
        r = memory_report(mode, cfg.backbone, cfg.lopa)
        print(
            f"mode={r['mode']} trainable_params={r['trainable_params']}"
            f" backbone_retained_bytes={r['backbone_retained_bytes']}"
            f" total_retained_bytes={r['total_retained_bytes']}"
            f" backbone_ops={r['backbone_ops']}"
        )
    return 0


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ValidationError, FormatError, ContractError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateInputError, PlacerecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a config whose arrays cannot be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
