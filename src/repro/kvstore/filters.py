"""Server-side (push-down) filter framework.

Filters run *inside* the region scan loop, so rejected rows are counted as
scanned but never transferred — exactly the paper's push-down strategy.  The
query layer subclasses :class:`Filter` with trajectory-aware predicates
(temporal, spatial, similarity) and composes them into a
:class:`FilterChain`.
"""

from __future__ import annotations

from collections.abc import Iterable


class Filter:
    """Predicate over a ``(key, value)`` row evaluated server-side."""

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row."""
        raise NotImplementedError

    def __and__(self, other: "Filter") -> "FilterChain":
        return FilterChain([self, other])


class TrueFilter(Filter):
    """Keeps every row (scan without push-down)."""

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        return True


class FilterChain(Filter):
    """Logical AND of several filters, evaluated left to right."""

    def __init__(self, filters: Iterable[Filter]):
        self.filters: list[Filter] = []
        for f in filters:
            # Flatten nested chains so cost accounting stays per-predicate.
            if isinstance(f, FilterChain):
                self.filters.extend(f.filters)
            else:
                self.filters.append(f)

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        return all(f.test(key, value) for f in self.filters)


class PrefixFilter(Filter):
    """Keeps rows whose key starts with a byte prefix."""

    def __init__(self, prefix: bytes):
        self.prefix = prefix

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        return key.startswith(self.prefix)


class KeyRangeFilter(Filter):
    """Keeps rows whose key is inside ``[start, stop)`` (either side open)."""

    def __init__(self, start: bytes | None = None, stop: bytes | None = None):
        self.start = start
        self.stop = stop

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        if self.start is not None and key < self.start:
            return False
        if self.stop is not None and key >= self.stop:
            return False
        return True
