"""One fresh-process repetition of a workload, or a set-up probe.

    python3 -I bench/child.py setup
    python3 -I bench/child.py run WORKLOAD SEED SIZE TRACE [SPANS_PATH]

Imports jackcc from the checkout's src/ and nowhere else, notes the
monotonic clock once it is ready (run.py subtracts its spawn time to get
set-up time), then, for ``run``, executes the workload once and prints one
JSON record as its last line.  The clock is system-wide, so the two
processes' readings compare.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
try:
    import jackcc
    import jackcc.cli
except ImportError as exc:
    print("error: cannot import jackcc from %s: %s" % (SRC, exc), file=sys.stderr)
    sys.exit(2)
READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
import spans  # noqa: E402
import workloads  # noqa: E402


def run(workload, seed, size, traced, spans_path):
    inputs = workloads.plan(workload, seed, size)
    golden = workloads.load_golden(inputs)
    tracer = spans.install(jackcc) if traced else None
    t0 = time.perf_counter()
    tally = workloads.run(jackcc, inputs, golden)
    wall_s = time.perf_counter() - t0
    record = {"ready": READY,
              "wall_s": wall_s,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "attempted": tally.attempted,
              "failed": tally.failed,
              "errors": tally.errors}
    if tracer is not None:
        record["layers"] = tracer.summary(wall_s)
        if spans_path:
            tracer.write(spans_path, t0)
    return record


def main(argv):
    if not os.path.abspath(jackcc.__file__).startswith(SRC + os.sep):
        print("error: jackcc was imported from %s, not %s" % (jackcc.__file__, SRC),
              file=sys.stderr)
        return 2
    if argv == ["setup"]:
        record = {"ready": READY}
    elif len(argv) in (5, 6) and argv[0] == "run":
        workload, seed, size, trace = argv[1:5]
        record = run(workload, int(seed), size, trace == "1",
                     argv[5] if len(argv) == 6 else None)
    else:
        print("usage: child.py setup | run WORKLOAD SEED SIZE TRACE [SPANS_PATH]",
              file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
