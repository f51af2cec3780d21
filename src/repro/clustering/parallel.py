"""Parallel shard-merge profiling — Cluster on all cores.

:class:`~repro.clustering.incremental.IncrementalProfiler` made one core
profile arbitrarily large columns in bounded memory, and
:meth:`~repro.clustering.incremental.ColumnProfile.merge` made the
result associative.  This module supplies the missing piece: the shard
*sources*.  :class:`ParallelProfiler` splits the input, profiles every
shard in a separate process, and folds the shard profiles with
:meth:`~repro.clustering.incremental.ColumnProfile.merge` in input
order, producing the same leaf patterns and counts — and therefore the
same lowered :class:`~repro.clustering.hierarchy.PatternHierarchy` and
fingerprint — as the serial pass.

Two shard sources are supported:

* **iterables** (:meth:`ParallelProfiler.profile`) — chunks of values
  are fanned out through a bounded in-flight window, so a generator
  over a huge stream is pulled at the pace shard profiles come back;
* **files and partitioned datasets** (:meth:`ParallelProfiler.profile_file`,
  :meth:`ParallelProfiler.profile_dataset`) — every part is cut into
  record-aligned shards by the planner apply uses
  (:func:`~repro.dataset.shards.plan_part`): byte ranges for CSV/JSONL,
  so a quoted field with an embedded newline is never split, and
  row-group ranges for Parquet/Arrow.  Each worker reads its own shard
  through :meth:`~repro.dataset.backends.base.Backend.iter_shard_values`;
  the parent reads nothing but headers.

Both drain through :class:`~repro.util.pools.ResilientPool`, the pool
apply uses, so a worker that dies mid-shard raises
:class:`~repro.util.errors.CLXError` naming the file and byte range
instead of hanging the parent, and a non-UTF-8 byte names its file,
physical line, and absolute byte offset.  With one worker no pool is
spawned: a dataset is profiled in process in one pass over
:meth:`~repro.dataset.dataset.Dataset.iter_values`, which reads every
part as one whole-part shard through the same ``iter_shard_values`` —
so serial and parallel profiles read with one reader.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.clustering.hierarchy import PatternHierarchy
from repro.clustering.incremental import ColumnProfile, IncrementalProfiler
from repro.dataset.backends import backend_by_name
from repro.dataset.dataset import Dataset, DatasetPart
from repro.dataset.shards import DEFAULT_APPLY_SHARD_BYTES, Shard, plan_part
from repro.util.errors import ValidationError
from repro.util.faults import maybe_fire
from repro.util.pools import FaultPolicy, ResilientPool, chunked
from repro.util.validate import validated_chunk_size, validated_workers

#: Default number of values per fan-out chunk for iterable inputs; large
#: enough to amortize pickling, small enough to keep every worker busy.
DEFAULT_CHUNK_ROWS = 16_384

# Worker global installed by the pool initializer (one pool profiles
# exactly one column, so a module global is safe).
_WORKER_PROFILER: Optional[IncrementalProfiler] = None

#: One profile shard task: the shard, the column to read (a header index
#: for CSV parts, a key or column name otherwise), and the delimiter.
ShardTask = Tuple[Shard, Union[str, int], str]


def _init_profiler_worker(profiler: IncrementalProfiler) -> None:
    global _WORKER_PROFILER
    _WORKER_PROFILER = profiler


def _profile_chunk(values: List[str]) -> ColumnProfile:
    """Profile one fan-out chunk of raw values in a worker."""
    assert _WORKER_PROFILER is not None, "worker used before initialization"
    return _WORKER_PROFILER.new_profile().observe_all(values)


def _profile_shard(task: ShardTask) -> ColumnProfile:
    """Read one planned shard and profile its column in a worker.

    The values come from the backend's
    :meth:`~repro.dataset.backends.base.Backend.iter_shard_values`, the
    reader the serial :meth:`~repro.dataset.dataset.Dataset.iter_values`
    pass uses too, so both apply the same missing-column rules.
    """
    assert _WORKER_PROFILER is not None, "worker used before initialization"
    shard, column, delimiter = task
    maybe_fire("worker.shard", key=f"{shard.locator}:{shard.start}")
    return _WORKER_PROFILER.new_profile().observe_all(
        backend_by_name(shard.format).iter_shard_values(
            shard.locator, shard.start, shard.end, column, delimiter, shard.first_line
        )
    )


@dataclass
class ParallelProfiler:
    """Profile a column across worker processes, shard-then-merge.

    The per-shard work is an ordinary
    :class:`~repro.clustering.incremental.IncrementalProfiler` pass and
    the reduce is the associative
    :meth:`~repro.clustering.incremental.ColumnProfile.merge`, so the
    result has exactly the serial path's leaf patterns and counts
    (exemplar *selection* may differ once a reservoir fills — the same
    caveat shard-merge always had).

    Attributes:
        profiler: Configuration of the per-shard profiling pass.
        workers: Worker process count; ``None`` means ``os.cpu_count()``.
            With one worker everything runs in-process.
        chunk_size: Values per fan-out chunk for iterable inputs.
    """

    profiler: IncrementalProfiler = field(default_factory=IncrementalProfiler)
    workers: Optional[int] = None
    chunk_size: int = DEFAULT_CHUNK_ROWS

    def __post_init__(self) -> None:
        self.workers = validated_workers(self.workers)
        self.chunk_size = validated_chunk_size(self.chunk_size)
        if not isinstance(self.profiler, IncrementalProfiler):
            raise ValidationError(
                "ParallelProfiler requires an IncrementalProfiler, "
                f"got {type(self.profiler).__name__}"
            )

    # ------------------------------------------------------------------
    # Iterable fan-out
    # ------------------------------------------------------------------
    def profile(self, values: Iterable[str]) -> ColumnProfile:
        """Profile any iterable by fanning chunks across the workers.

        Chunks are submitted through a bounded in-flight window and the
        shard profiles are merged in input order, so the input is
        consumed lazily and exemplar reservoirs fill in stream order
        like the serial pass.

        Raises:
            ValidationError: If the iterable is empty and the underlying
                profiler does not ``allow_empty``.
        """
        if self.workers == 1:
            return self.profiler.profile(values)
        tasks = enumerate(chunked(values, self.chunk_size))
        return self._checked(self._merge(_profile_chunk, tasks))

    # ------------------------------------------------------------------
    # Record-aligned shard fan-out
    # ------------------------------------------------------------------
    def profile_file(
        self,
        path: Union[str, Path],
        column: Union[str, int],
        delimiter: str = ",",
    ) -> ColumnProfile:
        """Profile one column of a CSV file via record-aligned shards.

        The parent reads only the header; the data region is split into
        byte ranges on record boundaries and each worker parses and
        profiles its own range, so CSV decoding itself runs on all
        cores.  Quoted fields containing embedded newlines stay whole,
        and the result matches the serial pass at any worker count.

        Raises:
            ValidationError: If the header is missing, the column is
                unknown, or the file has no data rows (and the profiler
                does not ``allow_empty``).
        """
        source = Path(path)
        part = DatasetPart(path=source, format="csv", size=source.stat().st_size)
        return self.profile_dataset(Dataset([part]), column, delimiter)

    def profile_dataset(
        self,
        dataset: Union[Dataset, str, Sequence[Union[str, Path]]],
        column: Union[str, int],
        delimiter: str = ",",
    ) -> ColumnProfile:
        """Profile one column across every part of a partitioned dataset.

        Every part is cut into record-aligned shards of at most
        ``min(DEFAULT_APPLY_SHARD_BYTES, ceil(total_bytes / workers))``
        bytes, so even a small dataset keeps every worker busy.  All
        shards are profiled through one pool and merged in stable part
        order — the result has the same leaf patterns and counts as
        profiling the concatenated column serially.  The header is
        resolved per part, so a column addressed by name may sit at a
        different index in each CSV part.

        Args:
            dataset: A resolved :class:`~repro.dataset.dataset.Dataset`,
                or any spec(s) :meth:`Dataset.resolve` accepts (paths,
                globs, directories).
            column: Column name, or zero-based index (CSV parts only).
            delimiter: CSV delimiter.

        Raises:
            CLXError: If the specs resolve to no files, a part holds a
                non-UTF-8 byte (named by file, line, and byte offset),
                or a worker keeps dying on a shard.
            ValidationError: If some part cannot supply the column, or
                the dataset has no data rows (and the profiler does not
                ``allow_empty``).
        """
        if not isinstance(dataset, Dataset):
            dataset = Dataset.resolve(dataset)
        dataset.check_column(column, delimiter)

        if self.workers == 1:
            profile = self.profiler.new_profile().observe_all(
                dataset.iter_values(column, delimiter)
            )
            return self._checked(profile)

        workers = self.workers or 1
        shard_bytes = max(1, min(DEFAULT_APPLY_SHARD_BYTES, -(-dataset.total_size // workers)))
        tasks = self._plan(dataset, column, delimiter, shard_bytes)
        return self._checked(self._merge(_profile_shard, tasks, on_failure=_poisoned_shard))

    # ------------------------------------------------------------------
    # Planning and the pool
    # ------------------------------------------------------------------
    @staticmethod
    def _plan(
        dataset: Dataset, column: Union[str, int], delimiter: str, shard_bytes: int
    ) -> Iterator[Tuple[Shard, ShardTask]]:
        for part in dataset.parts:
            plan = plan_part(part, shard_bytes, delimiter)
            part_column = plan.reader_column(column)
            for shard in plan.shards:
                yield shard, (shard, part_column, delimiter)

    def _build_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_profiler_worker,
            initargs=(self.profiler,),
        )

    def _merge(
        self,
        fn: Callable[[Any], ColumnProfile],
        keyed_tasks: Iterable[Tuple[Any, Any]],
        on_failure: Optional[Callable[[Any, Any, str, int], ColumnProfile]] = None,
    ) -> ColumnProfile:
        """Profile every task through one pool, folding results in order."""
        merged: Optional[ColumnProfile] = None
        window = (self.workers or 1) + 2
        pool: ResilientPool[Any, ColumnProfile] = ResilientPool(self._build_pool)
        with pool:
            for _, shard in pool.map_ordered_keyed(fn, keyed_tasks, window, on_failure):
                merged = shard if merged is None else merged.merge(shard)
        return merged if merged is not None else self.profiler.new_profile()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def hierarchy(self, values: Iterable[str]) -> PatternHierarchy:
        """Profile ``values`` in parallel and lower into a hierarchy."""
        return self.profile(values).to_hierarchy(allow_empty=self.profiler.allow_empty)

    def _checked(self, profile: ColumnProfile) -> ColumnProfile:
        if profile.row_count == 0 and not self.profiler.allow_empty:
            raise ValidationError("cannot profile an empty dataset")
        return profile


def _poisoned_shard(key: Shard, task: ShardTask, kind: str, attempts: int) -> ColumnProfile:
    """A shard whose worker died (or hung) on every attempt aborts the run."""
    raise key.poisoned(FaultPolicy().fault_reason(kind, attempts))
