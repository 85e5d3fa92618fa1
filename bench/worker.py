"""One workload in its own process, so ``ru_maxrss`` belongs to it alone.

Started by ``run.py``.  The worker generates and writes the inputs,
imports ``rnatreedit`` from ``src/`` of the checkout, parses every input,
prints ``READY`` (the parent times set-up up to that line) and then runs
the closed loop: one caller, the next operation starts when the previous
one has returned.  Its last output line is a JSON object with the raw
measurements, which ``run.py`` turns into the benchmark result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STARTUP_SAMPLES = 5


def timed(op, item):
    """(seconds, distance reprs or None, error text or None)."""
    start = perf_counter()
    try:
        reprs = op(item)
        error = None
    except Exception:  # every failure is counted, the loop goes on
        reprs = None
        error = traceback.format_exc(limit=3)
    return perf_counter() - start, reprs, error


class Loop:
    """Closed-loop state: latencies, failures and the distances seen."""

    def __init__(self, n: int):
        self.n = n
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.results: dict[int, list[str]] = {}
        self.pairs = 0

    def record(self, idx: int, seconds: float, reprs, error) -> None:
        self.latencies.append(seconds)
        if error is not None:
            self.failures.append(error)
            return
        self.pairs += len(reprs)
        seen = self.results.setdefault(idx, reprs)
        if seen != reprs:
            self.failures.append(f"item {idx}: distances changed between passes")

    def digest(self) -> str:
        h = hashlib.sha256()
        for idx in range(self.n):
            h.update("\n".join(self.results.get(idx, ["missing"])).encode() + b"\n")
        return h.hexdigest()


def run_plain(op, items, passes: int) -> tuple[Loop, float]:
    """Untraced loop over whole passes of the corpus.

    Runs stop at a pass boundary, so every item weighs the same in the
    latency quantiles.
    """
    loop = Loop(len(items))
    start = perf_counter()
    for _ in range(passes):
        for idx, item in enumerate(items):
            loop.record(idx, *timed(op, item))
    return loop, perf_counter() - start


def run_traced(op, items, passes: int, tracer):
    """Each item runs untraced and traced, in alternating order.

    The traced runs give the spans and counters, the pairing gives the
    tracing overhead.  Counters are kept per item from its first traced
    run; a later run of the same item must reproduce them exactly.
    """
    loop = Loop(len(items))
    counts: dict[int, Counter] = {}
    plain = traced = 0.0
    total = loop.n * passes
    for k in range(total):
        idx = k % loop.n
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if not on:
                result = timed(op, items[idx])
                plain += result[0]
                loop.record(idx, *result)
                continue
            tracer.begin_op(k)
            with tracer.installed():
                result = timed(op, items[idx])
            traced += result[0]
            loop.record(idx, *result)
            if result[2] is None and counts.setdefault(idx, tracer.counts) != tracer.counts:
                loop.failures.append(f"item {idx}: counters changed between passes")
    return loop, counts, plain, traced, total


def run_checks(check, tracer) -> list:
    """The checks outside the timed loop.

    In the traced run they are traced too, under operation id -1: they take
    a pair through every layer, so each layer has spans on every workload.
    Their spans count toward the self times, not toward the counters.
    """
    if tracer is None:
        return check()
    tracer.begin_op(-1)
    with tracer.installed():
        return check()


def startup_seconds(env: dict, workdir: Path) -> float:
    """Median wall time of a compare-batch invocation with no pairs."""
    empty = workdir / "empty.txt"
    empty.write_text("")
    samples = []
    for _ in range(STARTUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-m", "rnatreedit.cli", "compare-batch", str(empty)],
                       env=env, check=True, capture_output=True, timeout=60)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "rnatreedit" / "__init__.py").is_file():
        print(f"no rnatreedit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    spec = workloads.SPECS[args.workload]
    (ROOT / "bench" / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=ROOT / "bench" / "work"))
    try:
        items = workloads.load_items(spec, workloads.make_corpus(spec, args.seed, workdir))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out: dict = {"items": len(items)}
        if args.trace:
            tracer = Tracer()
            op = workloads.operation(spec, in_process=True, env=env)
            loop, counts, plain, traced, ops = run_traced(
                op, items, spec.passes(args.seconds, traced=True), tracer)
            total = Counter()
            for c in counts.values():
                total.update(c)
            out.update(traced_ops=ops, counts=dict(total), overhead_frac=traced / plain - 1.0,
                       startup_s=startup_seconds(env, workdir))
        else:
            op = workloads.operation(spec, in_process=False, env=env)
            loop, elapsed = run_plain(op, items, spec.passes(args.seconds, traced=False))
            who = resource.RUSAGE_CHILDREN if spec.kind == "batch" else resource.RUSAGE_SELF
            percentile, tail_s = tail(loop.latencies)
            out.update(elapsed_s=elapsed, pairs=loop.pairs,
                       peak_rss_kb=resource.getrusage(who).ru_maxrss,
                       p50_s=statistics.median(loop.latencies),
                       tail_s=tail_s, tail_percentile=percentile)
        missing = [k for k in range(loop.n) if k not in loop.results]
        checks = []
        if not missing:
            checks = run_checks(lambda: workloads.checks(spec, items, loop.results, workdir),
                                tracer if args.trace else None)
        if args.trace:
            out["self_s"] = tracer.self_times()
            tracer.dump(ROOT / "bench" / "results" /
                        f"spans-{spec.name}-seed{args.seed}.json")
        out.update(ops=len(loop.latencies), failures=loop.failures[:5],
                   failed_ops=len(loop.failures), digest=loop.digest(),
                   checks=[[name, ok] for name, ok in checks],
                   missing_items=missing)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
