"""Degree bound shared by the caches and the enumeration routines, and the
package's one cache mechanism."""

import functools
import os

from .errors import BadConfig, DegreeTooLarge

DEFAULT_BOUND = 8

CACHES = {}


def cached(fn):
    """fn behind an unbounded lru_cache, registered in CACHES under
    "<module>.<qualname>", e.g. "connection._cauchy_packed".  Every cache
    of the package is made here and lives until the process exits."""
    cache = functools.lru_cache(maxsize=None)(fn)
    CACHES["%s.%s" % (fn.__module__.removeprefix("jackcc."), fn.__qualname__)] = cache
    return cache


def degree_bound():
    """Current bound; the JACKCC_MAX_N environment variable overrides the default."""
    raw = os.environ.get("JACKCC_MAX_N")
    return DEFAULT_BOUND if raw is None else _parse_bound(raw)


@cached
def _parse_bound(raw):
    """The bound a JACKCC_MAX_N value names; a bad value raises on every call."""
    digits = raw.strip()
    bound = int(digits) if digits.isascii() and digits.isdigit() else 0
    if bound < 1:
        raise BadConfig("JACKCC_MAX_N must be a positive integer, got %r" % raw)
    return bound


def check_degree(n):
    bound = degree_bound()
    if n > bound:
        raise DegreeTooLarge("degree %d exceeds the configured bound %d" % (n, bound))
