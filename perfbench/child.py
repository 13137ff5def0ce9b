"""Child processes of the benchmark; ``run.py`` starts them.

    python3 perfbench/child.py setup  --workload W
    python3 perfbench/child.py traced --workload W --seed S --trace-file F [--tiny]

Both roles import numpy, scipy and sdtlearn, run the workload's untimed
warm-up experiment and print ``ready``; the parent times ``setup`` from
spawn to that line.  ``traced`` then installs the span wrappers and serves
the parent one experiment at a time: for each line ``<k>`` on stdin it
runs experiment k of the workload's list and prints one JSON line with
its wall time, report bytes, and the target tree and hypothesis that
evaluation received.  At end of input it writes its spans to the trace
file as JSON lines and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from time import perf_counter

from boot import boot


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    boot()
    import sdtlearn.harness as harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    harness.run_experiment(workload.tiny)
    print("ready", flush=True)
    if args.role == "setup":
        return 0

    from checks import dump_capture
    from tracing import Tracer, installed

    configs = workload.configs(args.seed, args.tiny)
    tracer = Tracer()
    with installed(tracer):
        for line in sys.stdin:
            k = tracer.exp = int(line)
            start = perf_counter()
            try:
                report = harness.run_experiment(configs[k]).to_json()
            except Exception:
                traceback.print_exc()
                report = None
            wall = perf_counter() - start
            capture = dump_capture(*tracer.captured.pop(k)) if k in tracer.captured else None
            print(json.dumps({"wall": wall, "report": report, "capture": capture}), flush=True)
    tracer.count_distinct_inputs()
    tracer.write_jsonl(args.trace_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
