"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks, untraced and traced, that each workload reports exactly the
metrics of BENCHMARK.json with their units and no failed operation; that
a wrong expected count is reported as a failed operation; and that the
runner exits non-zero, printing no result, where there are no sources.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import inputs
import run

TINY = {
    "enumerate-7": run.exhaustive(
        "enumerate", ["--bound", "3", "enumerate", "--size", "3"], 3,
        {"count": inputs.interval_count(3)}),
    "verify-6": run.exhaustive(
        "verify", ["verify", "--max-size", "3"], 3, {"pass_lines": 9}),
    "census-6": run.exhaustive(
        "census", ["census", "--max-size", "3"], 3,
        {"intervals": [inputs.interval_count(k) for k in range(1, 4)]}),
    "classify-large": lambda seed, index: {
        "kind": "classify", "n": None,
        "items": inputs.large_batch(f"{seed}:{index}", {"sparse": 2, "dense": 1},
                                    lo=8, hi=16)},
}


def check_metrics(result: dict, declared: list[dict], positive: bool) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"metrics {sorted(got)} differ from {sorted(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert m["value"] > 0 or not positive, f"{name} is {m['value']}"


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert sorted(TINY) == sorted(run.WORKLOADS) == sorted(
        w["name"] for w in declared["workloads"])

    for name, build in TINY.items():
        for trace in (False, True):
            units = run.measure(build, 1, 0, trace)
            result, meta = run.report(units, declared, trace, build(1, 0)["n"])
            assert result["correct"] and result["failed"] == 0, (name, meta["errors"])
            assert result["attempted"] >= 1
            check_metrics(result, declared["per_layer" if trace else "end_to_end"],
                          positive=not trace)
            print(f"ok {name} trace={int(trace)}: {result['attempted']} operations")

    wrong = run.exhaustive("enumerate", ["--bound", "3", "enumerate", "--size", "3"],
                            3, {"count": inputs.interval_count(3) + 1})
    result, meta = run.report(run.measure(wrong, 1, 0, False), declared, False, 3)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    assert result["metrics"]["ok_fraction"]["value"] == 0
    assert meta["failed_fraction"] == 1
    print(f"ok wrong expected count fails: {meta['errors'][0]}")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-6",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout, proc
    print("ok no sources: exit code", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
