"""Command-line front end and the bundled verification suites.

Every subcommand builds a payload (a Table or a VerificationReport) that
emit() renders as text, JSON, or CSV.  Output is byte-stable for fixed
inputs: partitions appear in generation order, check lists in build
order, and the machine formats carry no timing information.
"""

import argparse
import csv
import io
import json
import sys
import time
from typing import NamedTuple, Optional

from .algebra import RatFunc, substitute_beta
from .connection import (
    CoeffResult, a_cauchy, a_lr, a_nn_recurrence, generator_properties,
    verify_i_independence, verify_thm_rec,
)
from .errors import IoError, JackccError, MissingPart, UnknownSuite, UnsupportedFormat
from .jack import inner_product, jack_table
from .matchings import (
    bipartite_count, counting_recurrence_check, enumerate_good, good_matchings,
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


def emit(payload, fmt, path=None):
    """Render a payload and write it to path or standard output."""
    if fmt == "text":
        body = payload.to_text()
    elif fmt == "json":
        body = json.dumps(payload.to_json(), indent=2) + "\n"
    elif fmt == "csv":
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


_SUITE_DEFAULT_N = {
    "matchings-jack": 6,
    "thm-rec": 5,
    "i-indep": 7,
    "orthogonality": 6,
    "comb-rec": 6,
    "gen-coeff": 5,
}


def _checks_matchings_jack(max_n):
    out = []
    for n in range(1, max_n + 1):
        for lam in generate_partitions(n):
            beta = substitute_beta(a_nn_recurrence(lam))
            desc = "%s: %s" % (lam.to_text(), beta.to_text("b"))

            def run(lam=lam, beta=beta):
                got = weight_distribution(lam)
                return got == beta, got.to_text("b"), beta.to_text("b")

            out.append((desc, run))
    return out


def _checks_thm_rec(max_n):
    out = []
    for m in range(2, max_n + 1):
        for lam in generate_partitions(m):
            for nu in generate_partitions(m - 1):
                desc = "lambda %s against nu %s" % (lam.to_text(), nu.to_text())

                def run(lam=lam, nu=nu):
                    ok = verify_thm_rec(lam, nu)
                    word = "equal" if ok else "differ"
                    return ok, word, word

                out.append((desc, run))
    return out


def _checks_i_indep(max_n):
    out = []
    for n in range(2, max_n + 1):
        for lam in generate_partitions(n):
            desc = "pivot choices agree on %s" % lam.to_text()

            def run(lam=lam):
                ok = verify_i_independence(lam)
                word = "agree" if ok else "differ"
                return ok, word, word

            out.append((desc, run))
    return out


def _checks_orthogonality(max_n):
    out = []
    for n in range(1, max_n + 1):
        parts = generate_partitions(n)
        for lam in parts:
            desc = "<J_%s, J_%s>" % (lam.to_text(), lam.to_text())

            def run(lam=lam, n=n):
                table = jack_table(n)
                got = inner_product(table.row(lam), table.row(lam))
                want = RatFunc(hooks(lam)[2])
                return got == want, got.to_text(), want.to_text()

            out.append((desc, run))
        desc = "off-diagonal pairings vanish at degree %d" % n

        def run_off(n=n, parts=parts):
            table = jack_table(n)
            bad = sum(1 for i, lam in enumerate(parts) for mu in parts[i + 1:]
                      if not inner_product(table.row(lam), table.row(mu)).is_zero)
            return bad == 0, "%d nonzero" % bad, "0 nonzero"

        out.append((desc, run_off))
    return out


def _checks_comb_rec(max_n):
    out = []
    for n in range(1, max_n + 1):
        for lam in generate_partitions(n):
            poly = a_nn_recurrence(lam)
            good_want = poly(2)
            bip_want = poly(1)
            desc_b = "b~(%s) = %d" % (lam.to_text(), good_want)
            desc_c = "c(%s) = %d" % (lam.to_text(), bip_want)

            def run_b(lam=lam, want=good_want):
                got = len(good_matchings(lam))
                return got == want, str(got), str(want)

            def run_c(lam=lam, want=bip_want):
                got = bipartite_count(lam)
                return got == want, str(got), str(want)

            out.append((desc_b, run_b))
            out.append((desc_c, run_c))
            if n >= 2:
                desc_r = "bucket counts at %s" % lam.to_text()

                def run_r(lam=lam):
                    ok = all(counting_recurrence_check(lam, i)
                             for i in range(1, len(lam) + 1))
                    word = "split" if ok else "broken"
                    return ok, word, word

                out.append((desc_r, run_r))
    return out


def _checks_gen_coeff(max_n):
    out = []
    for n in range(1, max_n + 1):
        for l in (2, 3):
            for r in (0, 1, 2):
                desc = "degree/symmetry at n=%d, l=%d, r=%d" % (n, l, r)

                def run(n=n, l=l, r=r):
                    bad = [lam.to_text() for lam in generate_partitions(n)
                           if not generator_properties(lam, l, r)]
                    return not bad, ("violations: " + ",".join(bad)) if bad else "none", "none"

                out.append((desc, run))
    return out


_SUITES = {
    "matchings-jack": _checks_matchings_jack,
    "thm-rec": _checks_thm_rec,
    "i-indep": _checks_i_indep,
    "orthogonality": _checks_orthogonality,
    "comb-rec": _checks_comb_rec,
    "gen-coeff": _checks_gen_coeff,
}


def run_suite(name, max_n=None, threads=1):
    """Run one named suite (or the thm34 pair) and report every check."""
    if name == "thm34":
        planned = []
        if max_n is None:
            planned += _checks_matchings_jack(_SUITE_DEFAULT_N["matchings-jack"])
            planned += _checks_gen_coeff(_SUITE_DEFAULT_N["gen-coeff"])
        else:
            planned += _checks_matchings_jack(max_n)
            planned += _checks_gen_coeff(max_n)
        low = 1
    elif name in _SUITES:
        if max_n is None:
            max_n = _SUITE_DEFAULT_N[name]
        planned = _SUITES[name](max_n)
        low = 2 if name in ("thm-rec", "i-indep") else 1
    else:
        raise UnknownSuite("no suite named %r" % (name,))
    started = time.perf_counter()
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(lambda item: item[1](), planned))
    else:
        outcomes = [run() for _, run in planned]
    elapsed = (time.perf_counter() - started) * 1000.0
    checks = tuple(Check(desc, ok, lhs, rhs)
                   for (desc, _), (ok, lhs, rhs) in zip(planned, outcomes))
    top = max_n if max_n is not None else _SUITE_DEFAULT_N["matchings-jack"]
    return VerificationReport(name, (low, top), checks, elapsed)


def _parse_partition(text):
    try:
        return Partition.from_text(text)
    except ValueError:
        raise MissingPart("bad partition %r" % (text,)) from None


def _cmd_partitions(args):
    rows = []
    for lam in generate_partitions(args.n):
        z, _, size = z_aut_class(lam)
        rows.append((lam.to_text(), str(z), str(size)))
    return Table(("partition", "z", "class_size"), tuple(rows)), 0


def _cmd_jack(args):
    if (args.lam is None) == (args.n is None):
        raise MissingPart("need exactly one of --lambda and --n")
    if args.lam is not None:
        lam = _parse_partition(args.lam)
        table = jack_table(lam.n)
        row = table.row(lam)
        rows = tuple((mu.to_text(), c.to_text())
                     for mu, c in row.items())
        return Table(("mu", "theta"), rows, json_obj=row.to_json()), 0
    table = jack_table(args.n)
    rows = tuple((lam.to_text(), mu.to_text(), c.to_text())
                 for lam in table
                 for mu, c in table.row(lam).items())
    return Table(("lambda", "mu", "theta"), rows, json_obj=table.to_json()), 0


def _coeff_table(lam_text, value):
    res = CoeffResult.wrap(value)
    beta = res.beta_form.to_text("b") if res.beta_form is not None else ""
    row = (lam_text, res.value.to_text(), beta)
    obj = {"lambda": lam_text,
           "value": res.value.to_json(),
           "beta": res.beta_form.to_json() if res.beta_form is not None else None}
    return Table(("lambda", "value", "beta"), (row,), json_obj=obj)


def _cmd_connect(args):
    lam = _parse_partition(args.lam)
    others = [_parse_partition(t) for t in args.with_]
    value = a_cauchy(lam, others)
    return _coeff_table(lam.to_text(), value), 0


def _cmd_connect_nn(args):
    if (args.lam is None) == (args.n is None):
        raise MissingPart("need exactly one of --lambda and --n")
    if args.lam is not None:
        lam = _parse_partition(args.lam)
        poly = a_nn_recurrence(lam)
        if args.beta:
            beta = substitute_beta(poly)
            row = (lam.to_text(), beta.to_text("b"))
            return Table(("lambda", "beta"), (row,),
                         json_obj={"lambda": lam.to_text(),
                                   "beta": beta.to_json()}), 0
        return _coeff_table(lam.to_text(), RatFunc(poly)), 0
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
    value = a_lr(lam, args.l, args.r)
    return _coeff_table(lam.to_text(), value), 0


def _cmd_matchings(args):
    lam = _parse_partition(args.lam)
    found = enumerate_good(lam, threads=args.threads)
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
    report = run_suite(args.suite, args.max_n, threads=args.threads)
    return report, (0 if report.passed else 1)


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    shared.add_argument("--out", default=None, metavar="PATH")
    shared.add_argument("--threads", type=int, default=1)
    shared.add_argument("--max-n", dest="max_n", type=int, default=None)

    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, status = args.handler(args)
        emit(payload, args.format, args.out)
    except JackccError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
