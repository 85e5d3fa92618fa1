"""The rnatreedit benchmark: seeded RNA-family workloads, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload family-fusion --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Without ``--trace`` each workload runs twice, untraced and then traced,
so one command prints every end-to-end and every per-layer metric.

Each workload runs as a closed loop with one caller in a worker process
of its own (``worker.py``), so peak RSS belongs to that workload.  A run
makes a number of whole passes over its corpus that depends on
``--seconds`` alone (``Spec.passes``), so every commit is measured on the
same operations and the same latency order statistics.  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it reports the per-layer metrics from spans recorded
around the public functions of each module (``spans.py``).  The map from
each layer metric to the end-to-end metric it should move is in
``layer_map.json``.

Every metric is printed by name with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every operation and check passed, 1 when one failed
or a workload passed its deadline, and 2 when the benchmark could not run
(for example without ``src/``).
Full results, with the Python version, nproc, commit and seed, go to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("family-fusion", "family-classical", "multilevel", "batch-cli")
# Worker spawns per untraced run; set-up is their median, and the last
# one goes on to run the workload.
SETUP_RUNS = 7
# Every worker of one workload must have ended by then, so a run exits
# well within 180 s; a run that does not is reported as failed.
DEADLINE_S = 165
# String hashing is randomised per process, and dict-heavy code such as the
# fusion memo runs several per cent faster or slower with the layout it
# gets.  One fixed hash seed for every worker (and the CLI processes they
# start) keeps that out of the run-to-run spread.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


class BenchError(RuntimeError):
    pass


class WorkerTimeout(BenchError):
    pass


def source_info() -> dict:
    """Commit (when the checkout has .git) and a hash of the sources."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rnatreedit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest()}


def spawn(name: str, seed: int, seconds: float, trace: int,
          deadline: float) -> tuple[list[float], dict]:
    """Start workers; return set-up seconds per spawn and the last one's output.

    Each worker runs in a session of its own; at ``deadline`` (a
    ``perf_counter`` time) the whole session is killed, the CLI processes
    it started included, and ``WorkerTimeout`` is raised.
    """
    setups = []
    runs = 1 if trace else SETUP_RUNS
    for k in range(runs):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if k < runs - 1:
            cmd.append("--setup-only")
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=WORKER_ENV,
                                start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - start), _kill_session, (proc,))
        timer.start()
        try:
            ready = proc.stdout.readline()
            setups.append(perf_counter() - start)
            out, _ = proc.communicate()
        finally:
            timer.cancel()
            _kill_session(proc)
            proc.wait()
        if perf_counter() >= deadline:
            raise WorkerTimeout(f"{name} worker passed the {DEADLINE_S} s deadline")
        if ready.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"{name} worker failed with exit code {proc.returncode}")
    return setups, json.loads(out.splitlines()[-1])


def _kill_session(proc: subprocess.Popen) -> None:
    """Kill the worker's session (a no-op once every process in it has ended)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def end_to_end(raw: dict, setups: list[float]) -> dict:
    return {
        "latency_s.p50": raw["p50_s"],
        "latency_s.tail": raw["tail_s"],
        "pairs_per_s": raw["pairs"] / raw["elapsed_s"],
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }


def per_layer(raw: dict) -> dict:
    ops = raw["traced_ops"]
    out = {f"{layer}_s": total / ops for layer, total in raw["self_s"].items()}
    counts = raw["counts"]
    dp_calls = counts.get("fusion_distance.dp_calls", 0)
    for key in ("tree_model.nodes", "edit_distance.zs_cells", "cost_models.match_calls",
                "cost_models.del_ins_calls", "multilevel.colors"):
        out[key] = counts.get(key, 0)
    # A DP field a later change removes is absent, not zero.
    for key in ("fusion_distance.pair_states", "fusion_distance.side_states"):
        if key in counts or not dp_calls:
            out[key] = counts.get(key, 0)
    out["fusion_distance.fusion_used_frac"] = (
        counts.get("fusion_distance.fusion_used", 0) / dp_calls if dp_calls else 0.0)
    out["cli.startup_s"] = raw["startup_s"]
    out["trace.overhead_frac"] = raw["overhead_frac"]
    return out


def recorded_digest(name: str, seed: int):
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    try:
        setups, raw = spawn(name, seed, seconds, trace, perf_counter() + DEADLINE_S)
    except WorkerTimeout as exc:
        print(f"{name} failure: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    checks = list(raw["checks"])
    expected = recorded_digest(name, seed)
    if expected is not None:
        checks.append(["distance digest equals the recorded one", raw["digest"] == expected])
    failed = raw["failed_ops"] + len(raw["missing_items"]) + sum(not ok for _, ok in checks)
    attempted = raw["ops"] + len(checks) + len(raw["missing_items"])
    values = per_layer(raw) if trace else end_to_end(raw, setups)
    values["failed_frac"] = failed / attempted
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    absent = [m["name"] for m in wanted if m["name"] not in values]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "setups_s": setups,
            "pythonhashseed": WORKER_ENV["PYTHONHASHSEED"],
            "absent": absent, "checks": checks, "raw": raw, **source_info()}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"result": result, "info": info}, indent=1))
    for metric, entry in metrics.items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    for metric in absent:
        print(f"{name} {metric} = absent")
    if not trace:
        print(f"{name} latency_s.tail is p{raw['tail_percentile']:.1f} of "
              f"{raw['ops']} operations")
        print(f"{name} failed_frac = {values['failed_frac']:.6g} ratio")
    print(f"{name} digest {raw['digest'][:16]} items={raw['items']} "
          f"checks={sum(ok for _, ok in checks)}/{len(checks)} failed={failed}")
    for failure in raw["failures"]:
        print(f"{name} failure: {failure.strip()}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 untraced, 1 traced; both when omitted")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        results = {(n, t): run_workload(n, args.seed, args.seconds, t, spec)
                   for n in names for t in traces}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for (n, _), r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
