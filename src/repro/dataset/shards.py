"""Record-aligned shard planning, shared by profile and apply.

One planner splits every part of a partitioned dataset into units of
work a reader can process on its own, given only the part's locator
and the shard bounds:

* **line-record parts** (CSV, JSONL) become byte ranges whose bounds
  are record boundaries.  One
  :func:`~repro.util.csvio.iter_record_cut_points` scan finds the cuts
  (a quoted CSV field with an embedded newline is never split) and also
  yields the physical line number at every cut, so a worker's errors
  name exact lines however the bytes were divided;
* **rowgroup parts** (Parquet, Arrow IPC) become row-group index ranges
  from :meth:`~repro.dataset.backends.base.Backend.plan_shards`.

:class:`~repro.engine.parallel.ShardedTableExecutor` (apply) plans here
and reads a shard's raw lines with
:meth:`~repro.dataset.backends.base.Backend.read_shard_lines`.
:class:`~repro.clustering.parallel.ParallelProfiler` and
:meth:`~repro.dataset.dataset.Dataset.iter_values` (profile) plan here
too and read a shard's column with
:meth:`~repro.dataset.backends.base.Backend.iter_shard_values` — at any
worker count, a serial pass being one whole-part shard per part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Union

from repro.dataset.backends import Backend, backend_by_name, open_locator
from repro.dataset.dataset import DatasetPart
from repro.util.csvio import iter_record_cut_points, resolve_column
from repro.util.errors import CLXError

#: Default byte size of one shard: parts larger than this split into
#: several record-aligned byte ranges, so one huge partition cannot
#: serialize the whole dataset behind a single worker.
DEFAULT_APPLY_SHARD_BYTES = 1 << 20

#: Default number of physical lines per transform batch inside a shard.
DEFAULT_TABLE_CHUNK_LINES = 4096


@dataclass(frozen=True)
class Shard:
    """One picklable unit of shard work.

    For line-record backends both bounds are exact byte offsets at
    record boundaries, so the worker owns precisely the lines beginning
    in ``[start, end)`` and ``first_line`` is the true physical line
    number at ``start``.  For rowgroup backends the bounds are
    **row-group index ranges** and ``first_line`` is the 1-based index
    of the span's first row.
    """

    locator: str
    format: str
    start: int
    end: int
    first_line: int

    def poisoned(self, reason: str) -> CLXError:
        """The abort error for a shard whose worker kept dying or hanging."""
        return CLXError(
            f"{self.locator} bytes [{self.start}, {self.end}) "
            f"(line {self.first_line} onward): {reason}; "
            "the shard looks poisoned and the run was aborted"
        )


class PartPlan(NamedTuple):
    """One part's header (``None`` without a header row) and its shards."""

    header: Optional[List[str]]
    shards: Iterator[Shard]

    def reader_column(self, column: Union[str, int]) -> Union[str, int]:
        """``column`` as :meth:`Backend.iter_shard_values` takes it here.

        A header-rowed part resolves it to a header index (a name may
        sit at a different index in every part); other parts pass it
        through for their backend to check.

        Raises:
            ValidationError: If the header lacks the column.
        """
        if self.header is None:
            return column
        return self.header.index(resolve_column(self.header, column))


def plan_part(part: DatasetPart, shard_bytes: int, delimiter: str = ",") -> PartPlan:
    """Read one part's header and plan its record-aligned shards.

    The header is read at once, so a caller can check or resolve
    against it before any work is dispatched.  Shards are **yielded as
    cuts are found**: on a huge file, workers start on the head while
    the parent is still scanning the tail.  Parts no larger than
    ``shard_bytes`` become one whole-part shard, and a part with no data
    bytes yields none.
    """
    backend = backend_by_name(part.format)
    backend.require()
    if not backend.line_records:
        spans = backend.plan_shards(part.locator, shard_bytes)
        return PartPlan(
            None,
            (Shard(part.locator, part.format, start, end, first) for start, end, first in spans),
        )
    header, data_start, first_line = backend.data_region(part.locator, delimiter)
    return PartPlan(
        header,
        _line_shards(part, backend, data_start, first_line, shard_bytes, delimiter),
    )


def _line_shards(
    part: DatasetPart,
    backend: Backend,
    data_start: int,
    first_line: int,
    shard_bytes: int,
    delimiter: str,
) -> Iterator[Shard]:
    locator, size = part.locator, part.size
    if size <= data_start:
        return
    span = size - data_start
    pieces = -(-span // shard_bytes)
    previous = (data_start, first_line)
    if pieces > 1:
        step = -(-span // pieces)
        for cut, line in iter_record_cut_points(
            locator,
            data_start,
            size,
            list(range(data_start + step, size, step)),
            delimiter=delimiter,
            first_line=first_line,
            csv_quoting=backend.csv_quoting,
            opener=open_locator,
        ):
            if previous[0] < cut:
                yield Shard(locator, part.format, previous[0], cut, previous[1])
                previous = (cut, line)
    if previous[0] < size:
        yield Shard(locator, part.format, previous[0], size, previous[1])
