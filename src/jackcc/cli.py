"""Command-line front end and the bundled verification suites.

Every subcommand builds a payload (a Table or a VerificationReport) that
emit() renders as text, JSON, or CSV.  Output is byte-stable for fixed
inputs: partitions appear in generation order, check lists in build
order, and the machine formats carry no timing information.
"""

import argparse
import io
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .algebra import _poly_json, substitute_beta
from .config import cached, check_degree
from .connection import (
    a_cauchy, a_lr, a_nn_recurrence, generator_properties,
    pivot_values, thm_rec_sides,
)
from .errors import (
    DegreeTooLarge, DegreeTooSmall, IoError, JackccError, MissingPart,
    NegativeOrder, UnknownSuite, UnsupportedFormat,
)
from .jack import gram_entry, jack_table
from .matchings import (
    bipartite_count, counting_recurrence_check, enumerate_good, good_count,
    weight_distribution,
)
from .partitions import Partition, generate_partitions, hooks, z_aut_class

__all__ = ["main", "run_suite", "emit", "VerificationReport", "Check"]


class Check(NamedTuple):
    description: str
    passed: bool
    lhs: str
    rhs: str


class VerificationReport(NamedTuple):
    suite: str
    n_range: tuple
    checks: tuple
    elapsed_ms: float

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_text(self):
        verdict = "PASS" if self.passed else "FAIL"
        lines = ["suite %s (n in %d..%d): %s, %d checks, %.1f ms"
                 % (self.suite, self.n_range[0], self.n_range[1], verdict,
                    len(self.checks), self.elapsed_ms)]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append("  [%s] %s: %s vs %s" % (mark, c.description, c.lhs, c.rhs))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {"suite": self.suite,
                "n_range": list(self.n_range),
                "passed": self.passed,
                "checks": [{"description": c.description, "passed": c.passed,
                            "lhs": c.lhs, "rhs": c.rhs} for c in self.checks]}

    def to_csv_rows(self):
        header = ("description", "passed", "lhs", "rhs")
        rows = [(c.description, "true" if c.passed else "false", c.lhs, c.rhs)
                for c in self.checks]
        return header, rows


class Table(NamedTuple):
    headers: tuple
    rows: tuple
    json_obj: object = None

    def to_text(self):
        if not self.rows:
            return ""
        widths = [max(len(r[i]) for r in self.rows) for i in range(len(self.headers))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self):
        if self.json_obj is not None:
            return self.json_obj
        return [dict(zip(self.headers, row)) for row in self.rows]

    def to_csv_rows(self):
        return self.headers, self.rows


def _json(value, pad=""):
    """The text json.dumps(value, indent=2) writes for value, nested at pad.

    CPython falls back to its pure-Python encoder whenever indent is set;
    this writes the same bytes with one join per container and the C
    string escaper.  Dict keys must be strings; a float, or a value of any
    other type, is written by json.dumps itself.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        return "[\n%s%s\n%s]" % (
            inner, (",\n" + inner).join([_json(v, inner) for v in value]), pad)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{\n%s%s\n%s}" % (
            inner, (",\n" + inner).join([_quote(k) + ": " + _json(v, inner)
                                        for k, v in value.items()]), pad)
    return json.dumps(value)


def emit(payload, fmt, path=None):
    """Render a payload and write it to path or standard output."""
    if fmt == "text":
        body = payload.to_text()
    elif fmt == "json":
        body = _json(payload.to_json()) + "\n"
    elif fmt == "csv":
        # imported here: the csv module is about 65 KB of heap at start-up
        # that the text and JSON formats never use
        import csv

        header, rows = payload.to_csv_rows()
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        body = sink.getvalue()
    else:
        raise UnsupportedFormat("unknown format %r" % (fmt,))
    if path is None:
        sys.stdout.write(body)
        return
    try:
        with open(path, "w", encoding="utf-8") as sink:
            sink.write(body)
    except OSError as exc:
        raise IoError("cannot write %s: %s" % (path, exc)) from None


def _checks_matchings_jack(max_n):
    for n in range(1, max_n + 1):
        for lam in generate_partitions(n):
            want = substitute_beta(a_nn_recurrence(lam))
            got = weight_distribution(lam)
            text = want.to_text("b")
            yield Check("%s: %s" % (lam.to_text(), text), got == want,
                        got.to_text("b"), text)


def _checks_thm_rec(max_n):
    for m in range(2, max_n + 1):
        for lam in generate_partitions(m):
            for nu in generate_partitions(m - 1):
                lhs, rhs = thm_rec_sides(lam, nu)
                yield Check("lambda %s against nu %s" % (lam.to_text(), nu.to_text()),
                            lhs == rhs, lhs.to_text(), rhs.to_text())


def _checks_i_indep(max_n):
    for n in range(2, max_n + 1):
        for lam in generate_partitions(n):
            first, *others = pivot_values(lam)
            yield Check("pivot choices agree on %s" % lam.to_text(),
                        all(v == first for v in others), first.to_text(),
                        "; ".join(v.to_text() for v in others) or "no other part")


def _checks_orthogonality(max_n):
    for n in range(1, max_n + 1):
        parts = generate_partitions(n)
        for lam in parts:
            got, want = gram_entry(lam, lam), hooks(lam)[2]
            yield Check("<J_%s, J_%s>" % (lam.to_text(), lam.to_text()),
                        got == want, got.to_text(), want.to_text())
        bad = sum(1 for i, lam in enumerate(parts) for mu in parts[i + 1:]
                  if not gram_entry(lam, mu).is_zero)
        yield Check("off-diagonal pairings vanish at degree %d" % n,
                    bad == 0, "%d nonzero" % bad, "0 nonzero")


def _checks_comb_rec(max_n):
    for n in range(1, max_n + 1):
        for lam in generate_partitions(n):
            poly = a_nn_recurrence(lam)
            for label, count, want in (("b~", good_count, poly(2)),
                                       ("c", bipartite_count, poly(1))):
                got = count(lam)
                yield Check("%s(%s) = %d" % (label, lam.to_text(), want),
                            got == want, str(got), str(want))
            if n >= 2:
                ok = all(counting_recurrence_check(lam, i)
                         for i in range(1, len(lam) + 1))
                word = "split" if ok else "broken"
                yield Check("bucket counts at %s" % lam.to_text(), ok, word, word)


def _checks_gen_coeff(max_n):
    for n in range(1, max_n + 1):
        for l in (2, 3):
            for r in (0, 1, 2):
                bad = [lam.to_text() for lam in generate_partitions(n)
                       if not generator_properties(lam, l, r)]
                yield Check("degree/symmetry at n=%d, l=%d, r=%d" % (n, l, r), not bad,
                            ("violations: " + ",".join(bad)) if bad else "none", "none")


class _Suite(NamedTuple):
    checks: object
    default_n: int
    low: int


# Each suite: its check generator (max_n -> Check, ...), or the names of
# the suites it runs in turn, its default degree and its lowest.
_SUITES = {
    "matchings-jack": _Suite(_checks_matchings_jack, 6, 1),
    "thm-rec": _Suite(_checks_thm_rec, 5, 2),
    "i-indep": _Suite(_checks_i_indep, 7, 2),
    "orthogonality": _Suite(_checks_orthogonality, 6, 1),
    "comb-rec": _Suite(_checks_comb_rec, 6, 1),
    "gen-coeff": _Suite(_checks_gen_coeff, 5, 1),
    "thm34": _Suite(("matchings-jack", "gen-coeff"), 6, 1),
}


def _plan(name, max_n):
    """The checks of one suite, each computed as it is drawn; None takes
    each part's default."""
    suite = _SUITES[name]
    if isinstance(suite.checks, tuple):
        for part in suite.checks:
            yield from _plan(part, max_n)
    else:
        yield from suite.checks(suite.default_n if max_n is None else max_n)


def run_suite(name, max_n=None):
    """Run one named suite and report every check."""
    if name not in _SUITES:
        raise UnknownSuite("no suite named %r" % (name,))
    suite = _SUITES[name]
    if max_n is not None and max_n < suite.low:
        raise DegreeTooSmall("suite %s starts at degree %d, --max-n %d checks nothing"
                             % (name, suite.low, max_n))
    top = suite.default_n if max_n is None else max_n
    # the checks run degree by degree: refuse the top one before any runs
    check_degree(top)
    started = time.perf_counter()
    checks = tuple(_plan(name, max_n))
    elapsed = (time.perf_counter() - started) * 1000.0
    return VerificationReport(name, (suite.low, top), checks, elapsed)


def _parse_partition(text):
    try:
        return Partition.from_text(text)
    except ValueError:
        raise MissingPart("bad partition %r" % (text,)) from None


def _check_max_n(args, n):
    """Refuse a non-positive --max-n, or a degree above it, before any work is done."""
    if args.max_n is None:
        return
    if args.max_n < 1:
        raise DegreeTooSmall("--max-n must be at least 1, got %d" % args.max_n)
    if n > args.max_n:
        raise DegreeTooLarge("degree %d exceeds --max-n %d" % (n, args.max_n))


def _cmd_partitions(args):
    _check_max_n(args, args.n)
    rows = []
    for lam in generate_partitions(args.n):
        z, _, size = z_aut_class(lam)
        rows.append((lam.to_text(), str(z), str(size)))
    return Table(("partition", "z", "class_size"), tuple(rows)), 0


def _cmd_jack(args):
    if (args.lam is None) == (args.n is None):
        raise MissingPart("need exactly one of --lambda and --n")
    lam = _parse_partition(args.lam) if args.lam is not None else None
    n = lam.n if lam is not None else args.n
    _check_max_n(args, n)
    table = jack_table(n)
    if lam is not None:
        row = table.row(lam)
        rows = tuple((mu.to_text(), c.to_text())
                     for mu, c in row.items())
        return Table(("mu", "theta"), rows, json_obj=row.to_json()), 0
    if args.format == "json":
        # the JSON body is the table's own; text rows would go unwritten
        return Table(("lambda", "mu", "theta"), (), json_obj=table.to_json()), 0
    rows = tuple((lam.to_text(), mu.to_text(), c.to_text())
                 for lam in table
                 for mu, c in table.row(lam).items())
    return Table(("lambda", "mu", "theta"), rows), 0


def _coeff_table(lam_text, value):
    beta = substitute_beta(value)
    row = (lam_text, value.to_text(), beta.to_text("b"))
    obj = {"lambda": lam_text, "value": _poly_json(value), "beta": beta.to_json()}
    return Table(("lambda", "value", "beta"), (row,), json_obj=obj)


def _cmd_connect(args):
    lam = _parse_partition(args.lam)
    others = [_parse_partition(t) for t in args.with_]
    _check_max_n(args, max(p.n for p in [lam] + others))
    value = a_cauchy(lam, others)
    return _coeff_table(lam.to_text(), value), 0


def _cmd_connect_nn(args):
    if (args.lam is None) == (args.n is None):
        raise MissingPart("need exactly one of --lambda and --n")
    lam = _parse_partition(args.lam) if args.lam is not None else None
    _check_max_n(args, lam.n if lam is not None else args.n)
    if lam is not None:
        poly = a_nn_recurrence(lam)
        if args.beta:
            beta = substitute_beta(poly)
            row = (lam.to_text(), beta.to_text("b"))
            return Table(("lambda", "beta"), (row,),
                         json_obj={"lambda": lam.to_text(),
                                   "beta": beta.to_json()}), 0
        return _coeff_table(lam.to_text(), poly), 0
    rows = []
    obj = []
    for lam in generate_partitions(args.n):
        poly = a_nn_recurrence(lam)
        beta = substitute_beta(poly)
        rows.append((lam.to_text(), poly.to_text(), beta.to_text("b")))
        obj.append({"lambda": lam.to_text(), "alpha": poly.to_json(),
                    "beta": beta.to_json()})
    return Table(("lambda", "alpha", "beta"), tuple(rows), json_obj=obj), 0


def _cmd_connect_lr(args):
    lam = _parse_partition(args.lam)
    _check_max_n(args, lam.n)
    value = a_lr(lam, args.l, args.r)
    return _coeff_table(lam.to_text(), value), 0


def _cmd_matchings(args):
    lam = _parse_partition(args.lam)
    _check_max_n(args, lam.n)
    if args.limit is not None and args.limit < 0:
        raise NegativeOrder("--limit must be at least 0, got %d" % args.limit)
    found = enumerate_good(lam)
    entries = found.entries
    if args.bipartite_only:
        entries = tuple(e for e in entries if e.bipartite)
    if args.limit is not None:
        entries = entries[:args.limit]
    rows = tuple((e.matching.to_text(),
                  str(e.weight) if args.weights else "",
                  "true" if e.bipartite else "false")
                 for e in entries)
    obj = [{"matching": e.matching.to_text(),
            "weight": e.weight if args.weights else None,
            "bipartite": e.bipartite} for e in entries]
    return Table(("matching", "weight", "bipartite"), rows, json_obj=obj), 0


def _cmd_verify(args):
    report = run_suite(args.suite, args.max_n)
    return report, (0 if report.passed else 1)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line, exit status 2.

    The subcommand parsers are made with the parser's own class, so every
    level reports its errors this way.
    """

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


@cached
def build_parser():
    """The parser, built once per process: parse_args leaves it as it was,
    and each call parses into a fresh namespace."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    shared.add_argument("--out", default=None, metavar="PATH")
    shared.add_argument("--max-n", dest="max_n", type=int, default=None)

    parser = _Parser(
        prog="jackcc",
        description="Exact Jack polynomial connection coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", parents=[shared],
                       help="list partitions of n with class data")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_partitions)

    p = sub.add_parser("jack", parents=[shared],
                       help="theta rows of the Jack expansion")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(handler=_cmd_jack)

    p = sub.add_parser("connect", parents=[shared],
                       help="general connection coefficient")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--with", dest="with_", action="append", required=True,
                   metavar="PARTITION")
    p.set_defaults(handler=_cmd_connect)

    p = sub.add_parser("connect-nn", parents=[shared],
                       help="coefficient on two full cycles")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--beta", action="store_true")
    p.set_defaults(handler=_cmd_connect_nn)

    p = sub.add_parser("connect-lr", parents=[shared],
                       help="coefficient from the operator tower")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.set_defaults(handler=_cmd_connect_lr)

    p = sub.add_parser("matchings", parents=[shared],
                       help="good matchings with weight and parity")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--weights", action="store_true")
    p.add_argument("--bipartite-only", dest="bipartite_only",
                   action="store_true")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(handler=_cmd_matchings)

    p = sub.add_parser("verify", parents=[shared],
                       help="run a bundled verification suite")
    p.add_argument("--suite", required=True)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload, status = args.handler(args)
        emit(payload, args.format, args.out)
    except JackccError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
