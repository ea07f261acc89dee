"""Run one benchmark workload of placerec and print its metrics.

    python3 perfbench/run.py --workload {train,index,gradcheck} --seed N \\
        --seconds S --trace {0,1}

The program is imported from the `src/` directory next to this one, never
from an installed copy. With --trace 0 the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics of one traced set-up and pass, and the spans are written
to .bench_work/. Exit code 0 means every operation ran and passed its oracle;
1 means some did not (the result line says how many); 2 means the benchmark
could not start.
"""
from __future__ import annotations

import os
import sys

# BLAS threads are fixed before NumPy is imported, because OpenBLAS reads the
# setting once at load. One thread: with two, evaluate at N=2048 spread over
# 1.59-2.44 s across repeats against 1.99-2.17 s with one.
BLAS_THREADS = str(min(1, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy before 1.26 has no mode="dicts"
        blas = {}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"), "blas_threads": int(BLAS_THREADS),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def measure(wl, w, s, work: str, seconds: float) -> tuple:
    """Untraced: rounds of set-ups and a pass for `seconds`; medians of both."""
    setups, passes = wl.timed_rounds(w, s, work, seconds)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(p.items / p.item_s for p in passes),
        "pass_s": statistics.median(p.pass_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, wl.median_info(passes)


def measure_traced(wl, w, s, tracer, work: str) -> tuple:
    """One set-up and pass untraced, then the same traced; per-layer metrics
    of the traced ones, overhead against the untraced ones.

    An untimed warm-up pass goes first: the first pass in a process runs
    slower than later ones, which would show as negative tracing overhead.
    """
    import placerec

    inp, (plain_setup,) = wl.timed_setups(w, s, os.path.join(work, "plain"), 1)
    wl.one_pass(w, s, inp, os.path.join(work, "plain", "warmup"))
    plain = wl.one_pass(w, s, inp, os.path.join(work, "plain", "pass"))
    s.tracer = tracer
    tracer.install(placerec)
    try:
        inp, (traced_setup,) = wl.timed_setups(w, s, os.path.join(work, "traced"), 1)
        traced = wl.one_pass(w, s, inp, os.path.join(work, "traced", "pass"))
    finally:
        tracer.uninstall()
        s.tracer = None
    metrics = tracer.metrics()
    metrics["retrieval.recall_at_1"] = traced.info.get("recall_at_1", (0.0, "%"))[0]
    metrics["trace.untraced_s"] = plain_setup + plain.pass_s
    metrics["trace.traced_s"] = traced_setup + traced.pass_s
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    return metrics, wl.median_info([traced])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "index", "gradcheck"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "placerec" / "__init__.py").is_file():
        print(f"error: no placerec sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import placerec

    if Path(placerec.__file__).resolve().parent != (src / "placerec").resolve():
        print(f"error: placerec imported from {placerec.__file__}, not {src}", file=sys.stderr)
        return 2
    import spans
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment()
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}))

    bench_dir = ROOT / ".bench_work"
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work = bench_dir / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = wl.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer(run_id) if args.trace else None
    s = wl.Session()
    try:
        if tracer is None:
            metrics, info = measure(wl, w, s, str(work), args.seconds)
        else:
            metrics, info = measure_traced(wl, w, s, tracer, str(work))
    except wl.OpFailed:
        metrics, info = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        tracer.write(bench_dir / f"trace-{run_id}.jsonl",
                     {"env": env, "workload": args.workload, "seed": args.seed})

    if metrics and set(metrics) != set(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    for name, (value, unit) in info.items():
        print(f"{name} {value:.6g} {unit}")
    for name, unit in wanted.items():
        print(f"{name} {metrics.get(name, 0.0):.6g} {unit}")
    for problem in s.problems:
        print(f"failed: {problem}", file=sys.stderr)
    correct = s.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": s.attempted, "failed": s.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
