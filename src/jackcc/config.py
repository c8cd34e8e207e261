"""Degree bound shared by the caches and the enumeration routines."""

import os

from .errors import BadConfig, DegreeTooLarge

DEFAULT_BOUND = 8


def degree_bound():
    """Current bound; the JACKCC_MAX_N environment variable overrides the default."""
    raw = os.environ.get("JACKCC_MAX_N")
    if raw is None:
        return DEFAULT_BOUND
    digits = raw.strip()
    bound = int(digits) if digits.isascii() and digits.isdigit() else 0
    if bound < 1:
        raise BadConfig("JACKCC_MAX_N must be a positive integer, got %r" % raw)
    return bound


def check_degree(n):
    bound = degree_bound()
    if n > bound:
        raise DegreeTooLarge("degree %d exceeds the configured bound %d" % (n, bound))
