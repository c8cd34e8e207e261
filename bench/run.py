"""Run one workload of the jackcc benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: jack-build, matchings-replay, coeff-routes (see workloads.py).
Every repetition runs in a fresh interpreter (child.py), so the package's
caches start cold as they do for one ``jackcc`` invocation.  Repetitions
are started until the next one would end after ``--seconds``, and at least
three (trace 0) or one traced and one plain (trace 1) always run.

--trace 0 reports the end-to-end metrics, each the median over the run:
  wall_s        time from the first workload call to the last verified
                result, scaled to a host on which reference.py takes
                REFERENCE_NOMINAL_S; the unscaled median is printed too
  setup_s       interpreter start to jackcc imported, probed several times
  peak_rss_mib  peak resident memory of a repetition's process
--trace 1 alternates plain and traced repetitions and reports the per-layer
metrics of spans.METRICS, including the tracing overhead against the plain
wall time and the time spent outside any span.

Every output is verified: fixed workloads byte for byte against golden/,
coeff-routes by agreement of three independent routes.  Failed checks and
differing outputs over those attempted give fail_frac; the command exits 1
when it is above 0.  reference.py, a fixed pure-Python Fraction
elimination, runs in a fresh interpreter before and after each repetition;
its time is reported and divides each repetition's wall time, because on a
shared host the speed drifts from minute to minute by more than any bound a
regression gate could use, and this reference follows that drift.  The
last line of standard output is the JSON result; a copy with every sample
and the provenance goes to
out/BENCH_<workload>_<size>_seed<seed>_trace<trace>.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference.py")
OUT = os.path.join(BENCH, "out")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
SETUP_PROBES_PER_REP = 2
MIN_PLAIN_REPS = 3
CHILD_TIMEOUT_S = 150
# reference.py's time on the 2-core x86_64 host the benchmark was tuned on.
REFERENCE_NOMINAL_S = 0.6


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


def last_line(script, args):
    """Run a script of the benchmark in a fresh interpreter; its last output line."""
    what = " ".join([os.path.basename(script)] + args)
    try:
        proc = subprocess.run([sys.executable, "-I", script] + args, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s ran over %d s" % (what, CHILD_TIMEOUT_S)) from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited %d: %s"
                         % (what, proc.returncode, proc.stderr.strip()[-500:]))
    return lines[-1]


def spawn(args):
    """Run child.py with args; its record, with set-up time and total time added."""
    t0 = time.monotonic()
    line = last_line(CHILD, args)
    try:
        record = json.loads(line)
    except ValueError:
        raise BenchError("child.py %s printed no record: %r" % (" ".join(args), line[:200])) from None
    record["setup_s"] = record["ready"] - t0
    record["process_s"] = time.monotonic() - t0
    return record


def reference_kernel():
    """Seconds reference.py takes in a fresh interpreter; tracks host speed."""
    line = last_line(REFERENCE, [])
    try:
        return float(line)
    except ValueError:
        raise BenchError("reference.py printed %r" % line[:200]) from None


def git_sha():
    """Commit of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def describe(values):
    """Median, quartiles and sample count of a list of numbers."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure_plain(args, deadline):
    """Plain repetitions, each between two reference runs, with set-up probes."""
    reps, setups, ref = [], [], [reference_kernel()]
    while True:
        for _ in range(SETUP_PROBES_PER_REP):
            setups.append(spawn(["setup"])["setup_s"])
        started = time.monotonic()
        rec = spawn(["run", args.workload, str(args.seed), args.size, "0"])
        ref.append(reference_kernel())
        rec["reference_s"] = (ref[-2] + ref[-1]) / 2
        reps.append(rec)
        setups.append(rec["setup_s"])
        if (len(reps) >= MIN_PLAIN_REPS
                and 2 * time.monotonic() - started > deadline):
            break
    samples = {"wall_s": [r["wall_s"] * REFERENCE_NOMINAL_S / r["reference_s"] for r in reps],
               "setup_s": setups,
               "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
               "unscaled_wall_s": [r["wall_s"] for r in reps]}
    metrics = {name: (statistics.median(samples[name]), unit)
               for name, unit in END_TO_END.items()}
    return reps, ref, samples, metrics


def measure_traced(args, deadline):
    """Alternate plain and traced repetitions; per-layer metrics of the traced ones."""
    plain, traced, ref = [], [], []
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "spans_%s_%s_seed%d.bin.gz"
                              % (args.workload, args.size, args.seed))
    while True:
        ref.append(reference_kernel())
        plain.append(spawn(["run", args.workload, str(args.seed), args.size, "0"]))
        extra = [] if traced else [spans_path]
        traced.append(spawn(["run", args.workload, str(args.seed), args.size, "1"] + extra))
        step = plain[-1]["process_s"] + traced[-1]["process_s"]
        if time.monotonic() + step > deadline:
            break
    samples = {name: [r["layers"][name] for r in traced]
               for name in spans.METRICS if name != "trace.overhead_frac"}
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    samples["trace.overhead_frac"] = [r["wall_s"] / plain_wall - 1.0 for r in traced]
    unsteady = [name for name, unit in spans.METRICS.items()
                if unit == "count" and len(set(samples[name])) > 1]
    if unsteady:
        print("warning: counts differ between traced repetitions: %s"
              % ", ".join(unsteady), file=sys.stderr)
    metrics = {name: ((statistics.median_low if unit == "count" else statistics.median)
                      (samples[name]), unit)
               for name, unit in spans.METRICS.items()}
    return plain + traced, ref, samples, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny shrinks every workload, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + args.seconds
    measure = measure_traced if args.trace else measure_plain
    try:
        reps, ref, samples, metrics = measure(args, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]][:5]
    provenance = {"machine": platform.machine(),
                  "processor": platform.processor(),
                  "nproc": os.cpu_count(),
                  "python": platform.python_version(),
                  "implementation": platform.python_implementation(),
                  "git_sha": git_sha(),
                  "reference_s": describe(ref),
                  "reference_nominal_s": REFERENCE_NOMINAL_S}

    print("workload %s, size %s, seed %d, trace %d, %d repetitions"
          % (args.workload, args.size, args.seed, args.trace, len(reps)))
    shown = [(name, unit) for name, (_, unit) in metrics.items()]
    if "unscaled_wall_s" in samples:
        shown.append(("unscaled_wall_s", "s"))
    shown.append(("reference_s", "s"))
    samples["reference_s"] = ref
    for name, unit in shown:
        d = describe(samples[name])
        print("  %-42s %12.6g %-5s (median of %d, q1 %.6g, q3 %.6g)"
              % (name, d["median"], unit, d["n"], d["q1"], d["q3"]))
    print("  %-42s %12.6g       (%d failed of %d checks and outputs)"
          % ("fail_frac", failed / attempted, failed, attempted))
    for e in errors:
        print("  failure: %s" % e)
    print("host: %s" % json.dumps(provenance))

    result = {"correct": failed == 0,
              "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    try:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "BENCH_%s_%s_seed%d_trace%d.json"
                            % (args.workload, args.size, args.seed, args.trace))
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"args": vars(args), "provenance": provenance, "result": result,
                       "samples": samples, "repetitions": reps}, f, indent=1)
    except OSError as exc:
        print("warning: cannot write %s: %s" % (OUT, exc), file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
