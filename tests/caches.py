"""Emptying the package's caches from tests, through the one registry."""

from contextlib import contextmanager

from jackcc.config import CACHES


def _clear(prefix):
    for name, cache in CACHES.items():
        if name.startswith(prefix):
            cache.cache_clear()


@contextmanager
def cold(prefix=""):
    """Empty every registered cache whose name starts with prefix, before
    and after, so that nothing computed under a patch outlives the block.
    Use it as a context manager or as a decorator on a test."""
    _clear(prefix)
    try:
        yield
    finally:
        _clear(prefix)
