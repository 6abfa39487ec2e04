"""Columnar in-memory tables.

Tables store data column-wise (one Python list per column), which
matches the scan-dominated access pattern of the paper's workloads and
makes projected scans cheap. Rows are materialized as tuples only when
an operator needs them.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.page import DEFAULT_PAGE_ROWS, Page
from repro.storage.schema import Schema

__all__ = ["Table"]


class Table:
    """An append-only, memory-resident, columnar table."""

    def __init__(self, name: str, schema: Schema) -> None:
        if not name:
            raise StorageError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self._columns: list[list[Any]] = [[] for _ in schema.columns]
        # Decoded-page cache for the batched scan path: per
        # (projection, page_rows) key, the lazily filled list of column
        # slices of each page. Cleared on ingest; entries are shared
        # with callers and read-only by convention (like ``column``).
        self._page_cache: dict[tuple, list] = {}

    def __len__(self) -> int:
        return len(self._columns[0])

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows)"

    # -- ingest ----------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> None:
        """Validate and append one row."""
        stored = self.schema.validate_row(row)
        for column, value in zip(self._columns, stored):
            column.append(value)
        if self._page_cache:
            self._page_cache.clear()

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> None:
        for row in rows:
            self.insert(row)

    # -- access ----------------------------------------------------------

    def column(self, name: str) -> Sequence[Any]:
        """The raw column list (read-only by convention)."""
        return self._columns[self.schema.index_of(name)]

    def row(self, i: int) -> tuple[Any, ...]:
        if not (0 <= i < len(self)):
            raise StorageError(f"row index {i} out of range for {self.name!r}")
        return tuple(column[i] for column in self._columns)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        for i in range(len(self)):
            yield self.row(i)

    def scan_pages(
        self,
        columns: Sequence[str] | None = None,
        page_rows: int = DEFAULT_PAGE_ROWS,
    ) -> Iterator[Page]:
        """Iterate the table as pages, optionally projecting columns.

        This is the physical scan the engine's scan stage drives; the
        projection happens here so pages carry only the needed data.
        """
        if page_rows < 1:
            raise StorageError(f"page_rows must be >= 1, got {page_rows}")
        if columns is None:
            cols = self._columns
        else:
            cols = [self._columns[self.schema.index_of(c)] for c in columns]
        n = len(self)
        for start in range(0, n, page_rows):
            end = min(start + page_rows, n)
            rows = list(zip(*(col[start:end] for col in cols)))
            if rows:
                yield Page(rows)

    def page_count(self, page_rows: int = DEFAULT_PAGE_ROWS) -> int:
        """Number of pages a scan of this table touches."""
        if page_rows < 1:
            raise StorageError(f"page_rows must be >= 1, got {page_rows}")
        return -(-len(self) // page_rows)

    def column_slices(
        self,
        index: int,
        columns: Sequence[str] | None = None,
        page_rows: int = DEFAULT_PAGE_ROWS,
    ) -> list[list[Any]]:
        """One page's worth of raw column slices (random page access).

        Page ``i`` covers rows ``[i * page_rows, (i+1) * page_rows)``,
        matching :meth:`scan_pages` and the buffer pool's
        :func:`~repro.storage.buffer.table_page_key` convention;
        cooperative (elevator) scans start mid-table and wrap around.
        The page stays column-wise — the scan stage wraps these slices
        into a :class:`~repro.engine.packet.RowBatch` without ever
        zipping rows the downstream may never materialize.

        Decoded pages are cached per (projection, page_rows) until the
        next ingest, so concurrent scans of one table (and repeated
        scans across queries) slice each page exactly once. The
        returned lists are shared with the cache: read-only by
        convention, like :meth:`column`.
        """
        key = (None if columns is None else tuple(columns), page_rows)
        pages = self._page_cache.get(key)
        if pages is not None and 0 <= index < len(pages):
            cached = pages[index]
            if cached is not None:
                return cached
        if page_rows < 1:
            raise StorageError(f"page_rows must be >= 1, got {page_rows}")
        n_pages = self.page_count(page_rows)
        if not (0 <= index < n_pages):
            raise StorageError(
                f"page index {index} out of range for {self.name!r} "
                f"({n_pages} pages at {page_rows} rows/page)"
            )
        if columns is None:
            cols = self._columns
        else:
            cols = [self._columns[self.schema.index_of(c)] for c in columns]
        start = index * page_rows
        end = min(start + page_rows, len(self))
        slices = [col[start:end] for col in cols]
        if pages is None:
            pages = self._page_cache[key] = [None] * n_pages
        pages[index] = slices
        return slices

    def fused_cache(self, key: tuple, n_pages: int) -> list:
        """Per-page memo slots for a derived (fused) scan of this table.

        The engine's scan stage parks its decoded/filtered/projected
        pages here, keyed by the scan's signature, so queries that
        perform the same scan work — re-submissions, convoy members,
        recurring templates — decode and filter each page once. This
        is the storage-side analogue of the engine's cross-query work
        sharing, and it shares the ingest invalidation of the plain
        page cache. Slots start as ``None``; entries are shared and
        read-only by convention.
        """
        pages = self._page_cache.get(key)
        if pages is None or len(pages) != n_pages:
            pages = self._page_cache[key] = [None] * n_pages
        return pages

    def projected_schema(self, columns: Sequence[str] | None) -> Schema:
        return self.schema if columns is None else self.schema.project(columns)
