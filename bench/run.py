"""Benchmark for treatise: three seeded workloads, timed end to end and per
layer, with every output checked.

Run from the repository root, with numpy and requests importable:

    python3 bench/run.py --workload native-corpus --seed 1 --seconds 30 --trace 0

Workloads: native-corpus, labeled-corpus, corpus-query (see BENCHMARK.json
for why each exists). With --trace 0 the run reports end-to-end metrics;
with --trace 1 it runs the phases once plain and once with spans around
the public calls of each layer, and reports per-layer metrics plus the
tracing overhead. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. A stamped copy of the
result, and the spans of a traced run, go to .bench_out/. The run exits 1
when any output was wrong.

For the default seed the outputs are also compared with the digests in
bench/golden.json. After an intended change of outputs, regenerate them by
running each workload with --seed 1 and copying "digests" from the result
file in .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
SETUPS = 3  # set-ups per run; setup_s is their median

# The workload-specific names of the end-to-end metrics.
ALIASES = {
    "native-corpus": {"native_page_p50_ms": "serial_p50_ms",
                      "native_pages_per_s": "batch_items_per_s"},
    "labeled-corpus": {"labeled_image_p50_ms": "serial_p50_ms",
                       "labeled_images_per_s": "batch_items_per_s"},
    "corpus-query": {"index_records_per_s": "batch_items_per_s",
                     "query_p50_ms": "serial_p50_ms", "query_p90_ms": "serial_p90_ms",
                     "eval_images_per_s": "check_items_per_s"},
}
# Metric name suffix -> unit, first match wins; anything else is a count.
UNITS = (("_per_s", "items/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
         ("_pct", "%"), ("_bytes", "bytes"), ("_rate", "ratio"), ("_share", "ratio"),
         ("_efficiency", "ratio"), ("_over_early", "ratio"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def stamp(args) -> dict:
    """Where and on what a result was measured."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "source_sha256": src.hexdigest()}


def _rate(rounds) -> float:
    """Items per second over all rounds."""
    return sum(n for n, _ in rounds) / sum(dt for _, dt in rounds)


def end_to_end(res, setup_times) -> dict[str, float]:
    import spans

    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "serial_p50_ms": spans.median(res.serial_ms),
        "serial_p90_ms": spans.percentile(res.serial_ms, 90),
        "batch_items_per_s": _rate(res.batch),
        "check_items_per_s": _rate(res.check),
    }


def measure(args, work: Path):
    """Set up, run the phases and check outputs; returns (run, metrics)."""
    import spans
    import workloads

    run = workloads.Run(args.seed)
    wl = workloads.WORKLOADS[args.workload](run)
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUPS):
            wl.close()
            root = workloads.fresh_dir(str(work))
            t0 = time.perf_counter()
            wl.setup(root)
            setup_times.append(time.perf_counter() - t0)
        if not args.trace:
            res = wl.phases(args.seconds)
            run.samples = {"setup_s": setup_times, **vars(res)}
            return run, end_to_end(res, setup_times)
        plain = wl.phases(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        run.tracer = tracer
        try:
            traced = wl.phases(args.seconds / 2)
            if args.workload == "labeled-corpus":
                wl.build_vocabulary(os.path.join(root, "vocabulary-cold.json"), phase="setup")
        finally:
            run.tracer = None
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer, workloads.NPROC)
        metrics.update(wl.layer_extras())
        base, with_spans = spans.median(plain.serial_ms), spans.median(traced.serial_ms)
        metrics["trace.overhead_ms"] = with_spans - base
        metrics["trace.overhead_pct"] = 100.0 * (with_spans - base) / base
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(str(out / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        return run, metrics
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)


def check_golden(run, args) -> None:
    if args.seed != DEFAULT_SEED:
        return
    try:
        with open(args.golden, encoding="utf-8") as fh:
            want = json.load(fh).get(args.workload, {})
    except (OSError, ValueError) as exc:
        run.check(False, f"golden digests unreadable: {exc}")
        return
    for name in sorted(set(want) | set(run.digests)):
        run.check(want.get(name) == run.digests.get(name),
                  f"golden digest {name}: {run.digests.get(name)} != {want.get(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("native-corpus", "labeled-corpus", "corpus-query"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=str(ROOT / "bench" / "golden.json"),
                        help="digests the default seed's outputs must match")
    args = parser.parse_args(argv)

    # finally-blocks stop the mock server and remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the mock backends are local; never route them through a proxy
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import treatise.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the treatise package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run, metrics = measure(args, work)
    check_golden(run, args)
    if not args.trace:
        metrics["ok_rate"] = 1.0 - run.failed / max(run.attempted, 1)
    correct = run.failed == 0
    for problem in run.problems:
        print(f"wrong: {problem}", file=sys.stderr)

    info = stamp(args)
    if not args.trace:
        aliases = {alias: metrics[name] for alias, name in ALIASES[args.workload].items()}
        aliases["error_rate"] = run.failed / max(run.attempted, 1)
        for alias, value in {**metrics, **aliases}.items():
            print(f"{alias:28s} {value:14.4f} {unit_of(alias)}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"stamp": info, "metrics": metrics, "digests": run.digests,
                   "samples": run.samples,
                   "problems": run.problems, "attempted": run.attempted,
                   "failed": run.failed}, fh, indent=1, sort_keys=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
