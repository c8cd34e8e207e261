"""The benchmark's three workloads, their inputs and the checks on their outputs.

A workload runs once per fresh child process (see child.py), so every cache
in the package starts cold, as it does for one ``jackcc`` invocation.

- jack-build: ``jackcc jack --n 7`` then ``jackcc verify --suite
  orthogonality --max-n 7``.  The Jack table solver and AlphaPoly ring
  arithmetic do the work; the matching engine does none.
- matchings-replay: ``jackcc verify --suite matchings-jack`` and ``--suite
  comb-rec`` at their defaults (n <= 6).  The matching search and the weight
  do the work; the Jack solver does none.
- coeff-routes: a seeded, shuffled draw over the partitions of n <= 6, run
  through the library API.  RatFunc field arithmetic, apply_D towers and
  cached lookups of small Jack tables do the work.

The two fixed workloads compare their ``--format json`` output byte for byte
with files under golden/.  coeff-routes checks itself: three independent
routes must agree on every coefficient drawn.
"""

import contextlib
import io
import json
import os
import random

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

WORKLOADS = ("jack-build", "matchings-replay", "coeff-routes")
SIZES = ("full", "tiny")

# CLI argument lists of the fixed workloads; the tiny size exists for the
# benchmark's own tests.  The seed does not enter these workloads.
COMMANDS = {
    ("jack-build", "full"): (
        ("jack", "--n", "7"),
        ("verify", "--suite", "orthogonality", "--max-n", "7")),
    ("jack-build", "tiny"): (
        ("jack", "--n", "3"),
        ("verify", "--suite", "orthogonality", "--max-n", "3")),
    ("matchings-replay", "full"): (
        ("verify", "--suite", "matchings-jack"),
        ("verify", "--suite", "comb-rec")),
    ("matchings-replay", "tiny"): (
        ("verify", "--suite", "matchings-jack", "--max-n", "3"),
        ("verify", "--suite", "comb-rec", "--max-n", "3")),
}

COEFF_MAX_N = {"full": 6, "tiny": 3}
TOWER_PARAMS = tuple((l, r) for l in (2, 3) for r in (0, 1, 2))


def golden_path(argv):
    """Golden file of one CLI command, named after its arguments."""
    return os.path.join(GOLDEN, "-".join(a.lstrip("-") for a in argv) + ".json")


def _partitions(n, largest=None):
    """Partitions of n as tuples, largest part first.

    Kept apart from jackcc.generate_partitions so that drawing the inputs
    does not warm the package's own cache before the timed region.
    """
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(first,) + rest
            for first in range(min(n, largest), 0, -1)
            for rest in _partitions(n - first, first)]


def plan(workload, seed, size):
    """The inputs of one repetition.

    For a fixed workload, the CLI argument lists.  For coeff-routes, every
    partition of n <= max_n once plus as many again drawn with repeats, all
    shuffled, and a sample of half the (lambda, nu) pairs at each degree for
    the raising identity.  Covering every partition once keeps the work of
    building tables the same for every seed; the seed decides the order, the
    repeats and the pairs.
    """
    if workload not in WORKLOADS or size not in SIZES:
        raise ValueError("unknown workload %r or size %r" % (workload, size))
    if workload != "coeff-routes":
        return {"commands": [list(argv) + ["--format", "json"]
                             for argv in COMMANDS[workload, size]]}
    rng = random.Random(seed)
    by_n = {n: _partitions(n) for n in range(1, COEFF_MAX_N[size] + 1)}
    every = [lam for n in sorted(by_n) for lam in by_n[n]]
    draw = every + [rng.choice(every) for _ in every]
    rng.shuffle(draw)
    pairs = []
    for m in sorted(by_n)[1:]:
        candidates = [(lam, nu) for lam in by_n[m] for nu in by_n[m - 1]]
        pairs += rng.sample(candidates, (len(candidates) + 1) // 2)
    rng.shuffle(pairs)
    return {"draw": draw, "pairs": pairs}


class Tally:
    """Checks and outputs attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def check(self, what, fn, *args):
        """Run one check; an exception counts as a failure."""
        try:
            ok = fn(*args) is True
        except Exception as exc:  # a failing check is a measured outcome
            ok = False
            what = "%s: %s: %s" % (what, type(exc).__name__, exc)
        self.record(ok, what)


def load_golden(inputs):
    """Golden bytes for every command of a fixed workload; None for coeff-routes."""
    if "commands" not in inputs:
        return None
    out = []
    for argv in inputs["commands"]:
        with open(golden_path(argv[:-2]), "rb") as f:
            out.append(f.read())
    return out


def _run_cli(cli, argv, golden, tally):
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            status = cli.main(argv)
    except Exception as exc:  # counted against the output, not raised
        tally.record(False, "%s: %s: %s" % (" ".join(argv), type(exc).__name__, exc))
        return
    body = sink.getvalue().encode("utf-8")
    tally.record(status == 0 and body == golden,
                 "%s: exit %s, %s golden" % (" ".join(argv), status,
                                             "matches" if body == golden else "differs from"))
    if argv[0] == "verify":
        try:
            checks = json.loads(body)["checks"]
        except (ValueError, KeyError, TypeError) as exc:
            tally.record(False, "%s: unreadable report: %s" % (" ".join(argv), exc))
            return
        for c in checks:
            tally.record(c.get("passed") is True, "%s: %s" % (argv[2], c.get("description")))


def _run_coeff_routes(jackcc, inputs, tally):
    connection = jackcc.connection
    Partition = jackcc.Partition

    def routes_agree(lam):
        full = Partition([lam.n])
        recurrence = jackcc.RatFunc(jackcc.a_nn_recurrence(lam))
        return recurrence == jackcc.a_cauchy(lam, [full, full]) == jackcc.a_lr(lam, 2, 0)

    for parts in inputs["draw"]:
        lam = Partition(parts)
        text = lam.to_text()
        tally.check("three routes at %s" % text, routes_agree, lam)
        tally.check("pivot independence at %s" % text,
                    connection.verify_i_independence, lam)
        for l, r in TOWER_PARAMS:
            tally.check("generator properties at %s, l=%d, r=%d" % (text, l, r),
                        connection.generator_properties, lam, l, r)
    for lam, nu in inputs["pairs"]:
        tally.check("raising identity at %s, %s" % (lam, nu),
                    connection.verify_thm_rec, Partition(lam), Partition(nu))


def run(jackcc, inputs, golden):
    """Run one repetition and verify it; returns the Tally.

    Everything the workload computes is checked inside this call, so its
    duration is the time to a verified result.
    """
    tally = Tally()
    if golden is None:
        _run_coeff_routes(jackcc, inputs, tally)
    else:
        for argv, want in zip(inputs["commands"], golden):
            _run_cli(jackcc.cli, argv, want, tally)
    return tally
