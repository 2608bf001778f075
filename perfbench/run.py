"""The tamari benchmark: run one workload for a given time and report its
metrics as one JSON line.

    python3 perfbench/run.py --workload verify-6 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Every measured unit is a fresh
interpreter (``worker.py``) that imports tamari from ``src/``, so each
pays the import and the ``enumerate_trees`` cache fill as a CLI user
does. Load is a closed loop with one caller: units follow one another,
one process at a time. The last line printed is the result object; the
line before it holds the run's metadata and every raw sample.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``, from untraced units. With ``--trace 1`` it holds the
per-layer metrics: traced units alternate with untraced ones, which give
the tracing overhead and the process CPU time. See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 10  # set-up-only interpreters at the start of every run
WORKER_DEADLINE_S = 170  # a run must end within 180 s
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)


def exhaustive(kind: str, argv: list[str], n: int, expected: dict):
    def build(seed: int, index: int) -> dict:
        return {"kind": kind, "argv": argv, "n": n, "expected": expected}
    return build


def classify_large(seed: int, index: int) -> dict:
    # each unit gets the next batch of the seed's stream
    return {"kind": "classify", "n": None,
            "items": inputs.large_batch(f"{seed}:{index}")}


WORKLOADS = {
    "enumerate-7": exhaustive(
        "enumerate", ["--bound", "7", "enumerate", "--size", "7"], 7,
        {"count": inputs.interval_count(7)}),
    "verify-6": exhaustive(
        "verify", ["verify", "--max-size", "6"], 6, {"pass_lines": 9}),
    "census-6": exhaustive(
        "census", ["census", "--max-size", "6"], 6,
        {"intervals": [inputs.interval_count(k) for k in range(1, 7)]}),
    "classify-large": classify_large,
}


class BenchError(Exception):
    pass


def run_worker(spec: dict, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TAMARI_MAX_SIZE"}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, "-I", os.path.join(HERE, "worker.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(build, seed: int, seconds: float, trace: bool) -> dict:
    """Fresh-interpreter units for about ``seconds``: another unit starts
    while it would end nearer the deadline than not, after at least one
    untraced unit and, with ``trace``, one traced unit."""
    deadline = time.monotonic() + WORKER_DEADLINE_S
    start = time.monotonic()
    run_worker({"kind": "setup"}, deadline)  # writes bytecode caches; not counted
    probes = [run_worker({"kind": "setup"}, deadline) for _ in range(SETUP_PROBES)]
    units = {False: [], True: []}
    longest = {False: 0.0, True: 0.0}
    index = 0
    while True:
        traced = trace and index % 2 == 1
        # a traced unit repeats the input of the untraced unit before it
        spec = build(seed, index // 2 if trace else index)
        spec["trace"] = traced
        t0 = time.monotonic()
        units[traced].append(run_worker(spec, deadline))
        longest[traced] = max(longest[traced], time.monotonic() - t0)
        index += 1
        enough = units[False] and (units[True] or not trace)
        upcoming = trace and index % 2 == 1
        if enough and time.monotonic() - start + longest[upcoming] / 2 > seconds:
            break
    return {"probes": probes, "plain": units[False], "traced": units[True]}


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest of the percentiles in TAIL_PERCENTILES with at least ten
    samples beyond it, and that percentile; the maximum, as percentile
    100, when none has. A fixed ladder keeps the percentile the same from
    run to run while the sample count varies a little."""
    n = len(samples)
    for q in sorted(TAIL_PERCENTILES, reverse=True):
        if n - math.ceil(q / 100 * n) >= 10:
            return percentile(samples, q), q
    return max(samples), 100.0


def end_to_end(units: dict, ok_fraction: float) -> tuple[dict, dict]:
    plain = units["plain"]
    everything = units["probes"] + plain + units["traced"]
    latencies = [ms for r in plain for ms in r["latencies_ms"]]
    tail_ms, tail_q = tail(latencies)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in everything),
        # the slowest unit and operation: on a machine whose speed swings
        # with its neighbours' load, the share of fast spells in a run moves
        # every lower quantile, while the slow speed recurs (see README.md)
        "wall_s": max(r["wall_s"] for r in plain),
        "first_record_s": max(t for r in plain for t in r["first_records_s"]),
        "op_latency_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_fraction": ok_fraction,
    }
    notes = {"op_latency_p50_ms": statistics.median(latencies),
             "op_latency_tail_percentile": tail_q,
             "op_latency_samples": len(latencies)}
    return values, notes


def layer_value(name: str, unit: dict, n: int | None) -> float:
    """Per-layer metric ``name`` of one traced unit; ``n`` is the
    workload's size, None when it has none."""
    layers = unit["layers"]
    if name == "trees.relation_walks":
        return unit["relation_walks"]
    if name == "trees.relation_walks_per_tree":
        return unit["relation_walks"] / inputs.catalan(n) if n else 0.0
    if name == "posets.enumerate_distinct_ratio":
        stats = layers.get("posets.enumerate_interval_posets", {})
        return stats["distinct_args"] / stats["calls"] if stats.get("calls") else 0.0
    if name == "cli.output_bytes":
        return unit["output_bytes"]
    if name == "trace.unattributed_s":
        return unit["unattributed_s"]
    key, field = name.rsplit(".", 1)
    return layers.get(key, {}).get(field, 0)


def per_layer(units: dict, names: list[str], n: int | None) -> dict:
    plain, traced = units["plain"], units["traced"]
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    values = {}
    for name in names:
        if name == "process.cpu_s":
            values[name] = statistics.median(r["cpu_s"] for r in plain)
        elif name == "trace.overhead_ratio":
            values[name] = statistics.median(r["wall_s"] for r in traced) / plain_wall
        else:
            values[name] = statistics.median(layer_value(name, r, n) for r in traced)
    return values


def report(units: dict, declared: dict, trace: bool, n: int | None) -> tuple[dict, dict]:
    """The result object, with the metrics ``declared`` in BENCHMARK.json
    for this mode, and the run's metadata."""
    checked = units["plain"] + units["traced"]
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    values, notes = end_to_end(units, 1 - failed / attempted)
    declared = declared["per_layer"] if trace else declared["end_to_end"]
    if trace:
        values = per_layer(units, [m["name"] for m in declared], n)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    meta = {
        "units": {"setup_probes": len(units["probes"]),
                  "untraced": len(units["plain"]), "traced": len(units["traced"])},
        **notes,
        "failed_fraction": failed / attempted,
        # single-threaded with no queues: no layer ever waits for another
        "layer_wait_s": 0.0,
        "samples": {
            "setup_s": [r["setup_s"] for r in units["probes"] + checked],
            "wall_s": [r["wall_s"] for r in units["plain"]],
            "cpu_s": [r["cpu_s"] for r in units["plain"]],
            "latencies_ms": [r["latencies_ms"] for r in units["plain"]],
            "first_records_s": [r["first_records_s"] for r in units["plain"]],
            "traced_wall_s": [r["wall_s"] for r in units["traced"]],
            "spans": [r["spans"] for r in units["traced"]],
        },
        "errors": [e for r in checked for e in r["errors"]][:10],
    }
    return result, meta


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def workload_args(spec: dict) -> list:
    """The CLI arguments of each operation of ``spec``."""
    if spec["kind"] != "classify":
        return spec["argv"]
    return [["classify", "--poset", "<poset>"],
            ["convert", "--from", "poset", "--to", "interval", "--input", "<poset>"],
            {"objects_per_batch": inputs.LARGE_COUNTS,
             "sizes": [inputs.LARGE_MIN, inputs.LARGE_MAX]}]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tamari", "cli.py")):
        print(f"no tamari sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)

    build = WORKLOADS[args.workload]
    try:
        units = measure(build, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    first = build(args.seed, 0)
    result, meta = report(units, declared, bool(args.trace), first["n"])
    for error in meta["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, revision=git_revision(),
                python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
                cpu_model=cpu_model(), args=workload_args(first))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
