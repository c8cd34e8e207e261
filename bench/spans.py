"""Spans and counters around jackcc's layers, installed from outside the package.

install() wraps, before a workload runs, the public functions of every layer
module (partitions, psum, jack, connection, matchings, cli: the names in
each module's ``__all__``) in a span wrapper.  The wrapper is bound in every
jackcc namespace that bound the original, the defining module, ``jackcc``,
``jackcc.cli`` and the siblings that imported it, so internal and recursive
calls are recorded too.  A span is (name, start, end, parent); spans are
kept in flat arrays in memory and written out when the workload ends.

The algebra layer is called millions of times, so it gets counters and an
outermost-only timer instead of spans: every method of AlphaPoly and
RatFunc and every public algebra function counts its calls, and only the
outermost algebra call on the stack reads the clock.  That time is charged
to the span open at the moment, so a span's self time is its duration minus
its child spans minus the algebra time inside it.

Methods of the other container classes (Partition, PSumVector, JackTable,
Matching) are not wrapped; their time counts to the layer that calls them.
The tracer assumes a single thread, which is the CLI default.
"""

import functools
import gzip
import json
import sys
import time
import types
from array import array
from collections import Counter

SPANNED_LAYERS = ("partitions", "psum", "jack", "connection", "matchings", "cli")

# Per-layer metrics of a traced repetition, with their units.
METRICS = {
    "algebra.self_s": "s",
    "algebra.polymul.calls": "count",
    "algebra.divmod.calls": "count",
    "algebra.ratfunc.calls": "count",
    "algebra.gcd.calls": "count",
    "partitions.self_s": "s",
    "partitions.generate_partitions.hit_frac": "ratio",
    "partitions.hooks.calls": "count",
    "psum.self_s": "s",
    "psum.transition_matrix.self_s": "s",
    "psum.p_to_m.self_s": "s",
    "psum.apply_D.calls": "count",
    "psum.apply_D.self_s": "s",
    "jack.self_s": "s",
    "jack.jack_table.builds": "count",
    "jack.jack_table.lookups": "count",
    "jack.jack_table.self_s": "s",
    "jack.inner_product.self_s": "s",
    "connection.self_s": "s",
    "connection.a_lr.self_s": "s",
    "connection.a_cauchy.self_s": "s",
    "connection.a_nn_recurrence.hit_frac": "ratio",
    "matchings.self_s": "s",
    "matchings.weight.calls": "count",
    "matchings.weight.self_s": "s",
    "matchings.reduce.calls": "count",
    "matchings.good_matchings.self_s": "s",
    "matchings.good_matchings.hit_frac": "ratio",
    "matchings.good_found": "count",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.unspanned_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Span arrays, algebra counters and the cache objects read at the end."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.algebra = array("d")
        self.open = -1
        self.depth = 0
        self.algebra_s = 0.0
        self.algebra_outside_s = 0.0
        self.algebra_calls = Counter()
        self.counts = Counter()
        self.caches = {}

    def span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        name_id, parent, start, end, algebra = (
            self.name_id, self.parent, self.start, self.end, self.algebra)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(tracer.open)
            end.append(0.0)
            algebra.append(0.0)
            tracer.open = idx
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                tracer.open = parent[idx]

        return wrapper

    def timed(self, name, fn):
        """Count every call; time only calls made from outside the algebra layer."""
        clock = time.perf_counter
        calls = self.algebra_calls
        spans_algebra = self.algebra
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if tracer.depth:
                tracer.depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.depth -= 1
            tracer.depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.depth = 0
                tracer.algebra_s += dt
                if tracer.open >= 0:
                    spans_algebra[tracer.open] += dt
                else:
                    tracer.algebra_outside_s += dt

        return wrapper

    def summary(self, wall_s):
        """Per-layer metrics derived from the spans, counters and caches."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        roots = 0.0
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
            else:
                roots += dur[i]
        self_by_name = Counter()
        calls_by_name = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            self_by_name[name] += dur[i] - child[i] - self.algebra[i]
            calls_by_name[name] += 1
        self_by_layer = Counter()
        for name, s in self_by_name.items():
            self_by_layer[name.split(".")[0]] += s

        def hit_frac(name):
            if name not in self.caches:
                print("warning: %s has no cache_info(); hit_frac reads 0" % name,
                      file=sys.stderr)
                return 0.0
            info = self.caches[name].cache_info()
            looked = info.hits + info.misses
            return info.hits / looked if looked else 0.0

        out = {
            "algebra.self_s": self.algebra_s,
            "algebra.polymul.calls": self.algebra_calls["AlphaPoly.__mul__"],
            "algebra.divmod.calls": self.algebra_calls["AlphaPoly.__divmod__"],
            "algebra.ratfunc.calls": self.algebra_calls["RatFunc.__init__"],
            "algebra.gcd.calls": self.algebra_calls["poly_gcd"],
            "partitions.generate_partitions.hit_frac": hit_frac("partitions.generate_partitions"),
            "partitions.hooks.calls": calls_by_name["partitions.hooks"],
            "psum.apply_D.calls": calls_by_name["psum.apply_D"],
            "jack.jack_table.builds": self.counts["jack.jack_table.builds"],
            "jack.jack_table.lookups": (calls_by_name["jack.jack_table"]
                                        - self.counts["jack.jack_table.builds"]),
            "connection.a_nn_recurrence.hit_frac": hit_frac("connection.a_nn_recurrence"),
            "matchings.weight.calls": calls_by_name["matchings.weight"],
            "matchings.reduce.calls": calls_by_name["matchings.reduce"],
            "matchings.good_matchings.hit_frac": hit_frac("matchings.good_matchings"),
            "matchings.good_found": self.counts["matchings.good_found"],
            "trace.spans": n,
            "trace.unspanned_s": wall_s - roots - self.algebra_outside_s,
            "trace.wall_s": wall_s,
        }
        for layer in SPANNED_LAYERS:
            out[layer + ".self_s"] = float(self_by_layer[layer])
        for metric in METRICS:
            if metric.endswith(".self_s") and metric.count(".") == 2:
                out[metric] = float(self_by_name[metric[:-len(".self_s")]])
        return out

    def write(self, path, t0):
        """Write every span to a gzip file: a JSON header line, then int32 columns.

        The columns, in the header's order and the machine's byte order,
        hold one value per span; times are microseconds, start and end
        counted from t0.
        """
        columns = {
            "name": self.name_id,
            "parent": self.parent,
            "start_us": array("i", [round((v - t0) * 1e6) for v in self.start]),
            "end_us": array("i", [round((v - t0) * 1e6) for v in self.end]),
            "algebra_us": array("i", [round(v * 1e6) for v in self.algebra]),
        }
        header = {"names": self.names, "spans": len(self.start),
                  "columns": list(columns), "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in columns.values():
                f.write(column.tobytes())


def _wrap_member(tracer, qualname, value, done):
    """Timed replacement for one class attribute, or None to leave it alone."""
    if isinstance(value, types.FunctionType):
        if id(value) not in done:
            done[id(value)] = tracer.timed(qualname, value)
        return done[id(value)]
    if isinstance(value, property):
        return property(tracer.timed(qualname, value.fget), value.fset, value.fdel,
                        value.__doc__)
    if isinstance(value, staticmethod):
        return staticmethod(tracer.timed(qualname, value.__func__))
    if isinstance(value, classmethod):
        return classmethod(tracer.timed(qualname, value.__func__))
    return None


def _counting_jack_table(tracer, fn):
    """Count builds: the first call for a degree builds it, later calls look it up."""
    seen = set()

    @functools.wraps(fn)
    def wrapper(n):
        if n not in seen:
            seen.add(n)
            tracer.counts["jack.jack_table.builds"] += 1
        return fn(n)

    return wrapper


def _counting_good_matchings(tracer, fn):
    """Count the matchings each search finds; a cache hit searches nothing."""
    cached = hasattr(fn, "cache_info")

    @functools.wraps(fn)
    def wrapper(lam):
        misses = fn.cache_info().misses if cached else None
        found = fn(lam)
        if not cached or fn.cache_info().misses != misses:
            tracer.counts["matchings.good_found"] += len(found)
        return found

    return wrapper


def install(jackcc):
    """Wrap jackcc's layers in place and return the Tracer that records them."""
    tracer = Tracer()
    algebra = jackcc.algebra
    for cls in (algebra.AlphaPoly, algebra.RatFunc):
        done = {}
        for attr, value in list(vars(cls).items()):
            wrapped = _wrap_member(tracer, "%s.%s" % (cls.__name__, attr), value, done)
            if wrapped is not None:
                setattr(cls, attr, wrapped)

    replacements = {}
    for name in algebra.__all__:
        fn = getattr(algebra, name)
        if isinstance(fn, types.FunctionType):
            replacements[id(fn)] = (fn, tracer.timed(name, fn))
    for layer in SPANNED_LAYERS:
        module = getattr(jackcc, layer)
        for name in module.__all__:
            fn = getattr(module, name)
            if isinstance(fn, type) or not callable(fn):
                continue
            qualname = "%s.%s" % (layer, name)
            inner = fn
            if hasattr(fn, "cache_info"):
                tracer.caches[qualname] = fn
            if qualname == "jack.jack_table":
                inner = _counting_jack_table(tracer, fn)
            elif qualname == "matchings.good_matchings":
                inner = _counting_good_matchings(tracer, fn)
            replacements[id(fn)] = (fn, tracer.span(qualname, inner))

    for modname, module in list(sys.modules.items()):
        if modname != "jackcc" and not modname.startswith("jackcc."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return tracer
