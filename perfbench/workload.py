"""Run one workload's operations in this process and check their outputs.

An operation is one CLI call, except on classify-large, where it is one
object sent through ``classify --poset`` and then ``convert --from poset
--to interval``. An operation that raises or whose output is wrong is a
failed operation; its latency is kept.
"""

import json
import resource
import time

import inputs
from tracer import Tracer


class Sink:
    """A text stream that keeps what is written and the time of the first
    complete line."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.first_line_at = None

    def write(self, text: str) -> int:
        if self.first_line_at is None and "\n" in text:
            self.first_line_at = time.perf_counter()
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def check_enumerate(spec, index, calls) -> str:
    (rc, sink), = calls
    lines = sink.text().splitlines()
    if rc != 0 or not lines:
        return f"exit code {rc}, {len(lines)} lines"
    count = json.loads(lines[-1]).get("count")
    records = lines[:-1]
    want = spec["expected"]["count"]
    if not count == len(records) == want:
        return f"trailer {count}, {len(records)} records, expected {want}"
    if len(set(records)) != len(records):
        return "duplicate records"
    if any(json.loads(r)["size"] != spec["n"] for r in records):
        return "record of the wrong size"
    return ""


def check_verify(spec, index, calls) -> str:
    (rc, sink), = calls
    lines = sink.text().splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    want = spec["expected"]["pass_lines"]
    if rc != 0 or passed != want or len(lines) != want:
        return f"exit code {rc}, {passed} PASS lines of {len(lines)}, expected {want}"
    return ""


def check_census(spec, index, calls) -> str:
    (rc, sink), = calls
    lines = sink.text().splitlines()
    if rc != 0 or not lines or lines[0] != "size,family,count,formula,match":
        return f"exit code {rc} or bad header"
    intervals = {}
    for line in lines[1:]:
        size, family, count, _formula, match = line.split(",")
        if match not in ("true", ""):
            return f"match cell {match!r} in row {line!r}"
        if family == "intervals":
            intervals[int(size)] = (int(count), match)
    want = {n: (c, "true") for n, c in enumerate(spec["expected"]["intervals"], 1)}
    if intervals != want:
        return f"interval rows {intervals}, expected {want}"
    return ""


def check_classify(spec, index, calls) -> str:
    (rc1, classified), (rc2, converted) = calls
    if rc1 != 0 or rc2 != 0:
        return f"exit codes {rc1}, {rc2}"
    record = json.loads(classified.text())
    poset = spec["items"][index]["poset"]
    if [record["size"], record["inc"], record["dec"]] != [poset["size"], poset["inc"], poset["dec"]]:
        return "classify echoed another poset"
    interval = json.loads(converted.text())
    back = inputs.poset_obj(
        poset["size"], inputs.interval_relations(interval["lower"], interval["upper"])
    )
    if back != poset:
        return "converted interval does not map back to the input poset"
    return ""


def operations(spec) -> list[list[list[str]]]:
    """The argument lists of each operation's CLI calls."""
    if spec["kind"] != "classify":
        return [[spec["argv"]]]
    ops = []
    for item in spec["items"]:
        text = json.dumps(item["poset"])
        ops.append([
            ["classify", "--poset", text],
            ["convert", "--from", "poset", "--to", "interval", "--input", text],
        ])
    return ops


def run(spec, cli) -> dict:
    ops = operations(spec)
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    outcomes, latencies, first_records = [], [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for argvs in ops:
        t0 = time.perf_counter()
        calls = []
        try:
            for argv in argvs:
                sink = Sink()
                calls.append((cli.main(argv, out=sink), sink))
            outcome = calls
        except Exception as exc:  # a failed operation, never a dropped one
            outcome = exc
        t1 = time.perf_counter()
        lines_at = [s.first_line_at for _, s in calls if s.first_line_at is not None]
        latencies.append((t1 - t0) * 1e3)
        first_records.append((lines_at[0] if lines_at else t1) - t0)
        outcomes.append(outcome)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": wall, "cpu_s": cpu, "latencies_ms": latencies,
              "first_records_s": first_records, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        layers, top, spans = tracer.summary()
        result.update(layers=layers, unattributed_s=wall - top, spans=spans,
                      relation_walks=tracer.relation_walks())

    result["output_bytes"] = sum(
        len(sink.text().encode()) for calls in outcomes if isinstance(calls, list)
        for _, sink in calls
    )
    errors = []
    for index, calls in enumerate(outcomes):
        if isinstance(calls, Exception):
            errors.append(f"op {index}: {type(calls).__name__}: {calls}")
            continue
        try:
            error = CHECKS[spec["kind"]](spec, index, calls)
        except (ValueError, LookupError, TypeError, AttributeError,
                RecursionError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error:
            errors.append(f"op {index}: {error}")
    result.update(attempted=len(ops), failed=len(errors), errors=errors[:5])
    return result


CHECKS = {"enumerate": check_enumerate, "verify": check_verify,
          "census": check_census, "classify": check_classify}
