"""One measured run of a workload, in a fresh interpreter.

Reads a JSON spec on stdin, imports ``tamari`` from ``<root>/src`` and
builds its parser (the set-up time), then runs the spec through
:func:`workload.run` and prints one JSON result line. Nothing but ``sys``,
``os`` and ``time`` is imported before the set-up is timed, so the
standard-library modules that tamari needs count in its set-up.
"""

import os
import sys
import time


def main() -> None:
    raw = sys.stdin.read()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    t0 = time.perf_counter()
    import tamari.cli as cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0

    import json

    sys.path.insert(0, here)
    import workload

    spec = json.loads(raw)
    result = {"setup_s": setup_s}
    if spec["kind"] != "setup":
        result.update(workload.run(spec, cli))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
