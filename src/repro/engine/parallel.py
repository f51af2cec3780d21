"""Sharded, multi-process apply — fan compiled programs across workers.

A :class:`~repro.engine.compiled.CompiledProgram` already crosses process
boundaries for free (it JSON round-trips), so the apply half of CLX
parallelizes simply: serialize the artifact once, rebuild it in each
worker, and let workers read their own share of the input.  Every
fan-out here drains through one
:class:`~repro.util.pools.ResilientPool` (bounded in-flight window,
strict input order, dead or hung workers retried and then reported as a
:class:`~repro.util.errors.CLXError` instead of a hang):

* :meth:`ShardedTableExecutor.run_dataset` — one program per column
  over a partitioned dataset.  Parts are cut into record-aligned shards
  by the shared planner (:func:`~repro.dataset.shards.plan_part`, the
  same one the parallel profiler uses); each worker reads its own byte
  range, parses it in the part's format, transforms, and re-encodes to
  the sink format, so the parent does no row I/O or codec work at all —
  it only splices ordered chunks to the sink, and the bytes are
  identical at any worker count.  :func:`apply_dataset` wraps it with
  sink orchestration (one spliced sink, or one output per partition)
  shared by the CLI and the session/engine APIs; this is what
  ``repro-clx apply --workers N`` runs on.
* :func:`transform_table_parallel` — the mapping-rows counterpart
  behind :meth:`TransformEngine.transform_table(workers=N)
  <repro.engine.executor.TransformEngine.transform_table>`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType
from typing import (
    IO,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.dataset.backends import backend_by_name, sink_format_names
from repro.dataset.dataset import Dataset, DatasetPart
from repro.dataset.shards import (
    DEFAULT_APPLY_SHARD_BYTES,
    DEFAULT_TABLE_CHUNK_LINES,
    Shard,
    plan_part,
)
from repro.engine.compiled import CompiledProgram
from repro.engine.executor import ProgramLike, as_compiled
from repro.engine.resilience import (
    QuarantinedRecord,
    QuarantineWriter,
    RunManifest,
    resynthesis_hint,
)
from repro.util.csvio import record_open_after, resolve_column
from repro.util.errors import CLXError, ValidationError
from repro.util.faults import maybe_fire
from repro.util.pools import FaultPolicy, ResilientPool, indexed_chunks
from repro.util.sinks import AtomicSink
from repro.util.validate import validated_chunk_size, validated_workers

#: Error modes for record-level failures during a table apply.
ERROR_MODES = ("abort", "quarantine")


class TableChunk(NamedTuple):
    """Wire format of one processed table chunk.

    ``text`` is the already-encoded sink text, ``rows``/``flagged`` the
    row and flagged-cell counts it covers, and ``quarantined`` the
    records diverted from the sink (always empty in abort mode).  The
    quarantine tuple rides the same ordered result stream as the good
    bytes, so both stay deterministic at any worker count.
    """

    text: str
    rows: int
    flagged: int
    quarantined: Tuple[QuarantinedRecord, ...] = ()


# Per-worker state installed by the pool initializers.
_TABLE_STATE: Optional[Tuple["TableSpec", List[CompiledProgram], int]] = None
_ROWS_STATE: Optional[List[Tuple[str, CompiledProgram]]] = None


#: Wire form of one program for a pool initializer: the JSON artifact
#: plus the memo bound, which is not part of the artifact but must match
#: the parent's program so every worker memoizes the same way.
ProgramWire = Tuple[str, int]


def _program_wire(compiled: CompiledProgram) -> ProgramWire:
    return (compiled.dumps(), compiled.memo_size)


def _program_from_wire(wire: ProgramWire) -> CompiledProgram:
    artifact, memo_size = wire
    return CompiledProgram.loads(artifact, memo_size=memo_size)


# ----------------------------------------------------------------------
# Pipelined table apply: raw lines in, encoded chunks out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TableSpec:
    """Everything a worker needs to parse, transform, and re-encode rows.

    Attributes:
        fieldnames: The input CSV header, in file order.
        output_fields: The sink's columns — the header plus any added
            ``<column>_transformed``-style columns.
        transforms: ``(input_index, output_index)`` per programmed
            column, indices into ``fieldnames`` / ``output_fields``
            (equal for an in-place transform), in program order.
        delimiter: CSV delimiter for both parse and encode.
        out_format: ``"csv"`` or ``"jsonl"``.
        source: Input name used in error messages (e.g. the CSV path).
        on_error: ``"abort"`` (first bad record raises) or
            ``"quarantine"`` (bad records are diverted into the chunk's
            ``quarantined`` tuple and the rest of the chunk survives).
    """

    fieldnames: Tuple[str, ...]
    output_fields: Tuple[str, ...]
    transforms: Tuple[Tuple[int, int], ...]
    delimiter: str = ","
    out_format: str = "csv"
    source: str = "<table>"
    on_error: str = "abort"


def _encode_rows(spec: TableSpec, rows: List[List[str]]) -> str:
    """Encode transformed rows through the sink format's backend."""
    return backend_by_name(spec.out_format).encode_rows(
        spec.output_fields, rows, spec.delimiter
    )


def _transform_rows(
    spec: TableSpec, engines: Sequence[CompiledProgram], rows: List[List[str]]
) -> int:
    """Transform every programmed column of ``rows`` in place.

    Returns the number of cells no branch matched (flagged for review).
    """
    flagged = 0
    for (input_index, output_index), compiled in zip(spec.transforms, engines):
        run_one = compiled.run_one
        for row in rows:
            outcome = run_one(row[input_index])
            row[output_index] = outcome.output
            if not outcome.matched:
                flagged += 1
    return flagged


def _iter_records(
    lines: List[str],
    first_line: int,
    delimiter: str,
    csv_quoting: bool,
) -> Iterator[Tuple[int, List[str]]]:
    """Group physical lines into records, tagged with their first line.

    A CSV record spans several physical lines only while a quoted field
    is open; with ``csv_quoting=False`` (JSONL) every line is a record.
    """
    record: List[str] = []
    number = first_line
    line_number = first_line - 1
    record_open = False
    for line in lines:
        line_number += 1
        if not record:
            number = line_number
        record.append(line)
        if csv_quoting:
            record_open = record_open_after(line, delimiter, record_open)
        if not record_open:
            yield number, record
            record = []
    if record:
        yield number, record


def _record_raw(record_lines: List[str]) -> str:
    """A record's raw text with its final line terminator stripped."""
    raw = "".join(record_lines)
    if raw.endswith("\n"):
        raw = raw[:-1]
    return raw


def _transform_lines_salvage(
    spec: TableSpec,
    engines: Sequence[CompiledProgram],
    first_line: int,
    lines: List[str],
    label: str,
    in_format: str,
) -> TableChunk:
    """Record-by-record replay of a failed chunk in quarantine mode.

    Runs only after the whole-chunk pass in :func:`_transform_lines`
    raised, so the common all-clean chunk never pays per-record
    dispatch.  Each record parses and transforms in isolation; a
    failure quarantines exactly that record (absolute line number,
    original error, raw text) and every clean record lands in the sink
    bytes exactly as the whole-chunk pass would have emitted it.
    """
    backend = backend_by_name(in_format)
    good: List[List[str]] = []
    flagged = 0
    quarantined: List[QuarantinedRecord] = []
    for number, record_lines in _iter_records(
        lines, first_line, spec.delimiter, csv_quoting=backend.csv_quoting
    ):
        try:
            rows = backend.parse_rows(spec, number, record_lines, label)
            record_flagged = _transform_rows(spec, engines, rows)
        except CLXError as error:
            quarantined.append(
                QuarantinedRecord(label, number, str(error), _record_raw(record_lines))
            )
            continue
        good.extend(rows)
        flagged += record_flagged
    return TableChunk(_encode_rows(spec, good), len(good), flagged, tuple(quarantined))


def _transform_lines(
    spec: TableSpec,
    engines: Sequence[CompiledProgram],
    first_line: int,
    lines: List[str],
    source: Optional[str] = None,
    in_format: str = "csv",
) -> TableChunk:
    """Parse, transform, and encode one chunk of physical lines.

    This is the whole per-chunk pipeline and runs identically inline
    (``workers=1``) and inside a pool worker, so the serial and sharded
    paths cannot drift apart.  ``source`` overrides ``spec.source`` in
    error messages when one executor streams several partition files;
    ``in_format`` names the input backend that parses the chunk, so one
    executor applies a mixed-format dataset.

    In quarantine mode a chunk with at least one bad record falls back
    to a record-by-record salvage pass; since chunk boundaries depend
    only on ``chunk_size`` (never on worker count), the surviving sink
    bytes and the quarantine tuple are deterministic at any parallelism.
    """
    label = source or spec.source
    maybe_fire("worker.chunk", key=f"{label}:{first_line}")
    try:
        rows = backend_by_name(in_format).parse_rows(spec, first_line, lines, label)
        flagged = _transform_rows(spec, engines, rows)
        return TableChunk(_encode_rows(spec, rows), len(rows), flagged)
    except CLXError:
        if spec.on_error != "quarantine":
            raise
        return _transform_lines_salvage(spec, engines, first_line, lines, label, in_format)


def _init_table_worker(
    spec: TableSpec,
    wires: Tuple[ProgramWire, ...],
    chunk_size: int = DEFAULT_TABLE_CHUNK_LINES,
) -> None:
    """Pool initializer: rebuild every column's program once per worker.

    Each worker gets its own dispatch memo (the wire form carries the
    parent's ``memo_size``), so memoization scales with the pool instead
    of being a parent-only optimization.
    """
    global _TABLE_STATE
    maybe_fire("worker.init")
    _TABLE_STATE = (
        spec,
        [_program_from_wire(wire) for wire in wires],
        chunk_size,
    )


def _record_aligned_chunks(
    lines: Iterable[str],
    chunk_size: int,
    first_line: int,
    delimiter: str,
    csv_quoting: bool = True,
) -> Iterator[Tuple[int, List[str]]]:
    """Group physical lines into chunks, never splitting a quoted record.

    A CSV record spans multiple physical lines only while a quoted
    field is open; :func:`~repro.util.csvio.record_open_after` tracks
    that state with the csv module's own quoting rules (a stray ``"``
    in an unquoted cell is data, not a delimiter), so chunks close at
    the first record boundary at or past ``chunk_size`` lines.  With
    ``csv_quoting=False`` (JSON Lines) every physical line is a record
    and chunks close exactly at ``chunk_size``.
    """
    chunk: List[str] = []
    chunk_first = first_line
    line_number = first_line - 1
    record_open = False
    for line in lines:
        line_number += 1
        chunk.append(line)
        if csv_quoting:
            record_open = record_open_after(line, delimiter, record_open)
        if len(chunk) >= chunk_size and not record_open:
            yield chunk_first, chunk
            chunk = []
            chunk_first = line_number + 1
    if chunk:
        yield chunk_first, chunk


def _transform_shard(
    spec: TableSpec,
    engines: Sequence[CompiledProgram],
    chunk_size: int,
    shard: Shard,
) -> TableChunk:
    """Run one shard through the per-chunk pipeline.

    The shard's wire lines stream through :func:`_record_aligned_chunks`
    at ``chunk_size`` lines per transform batch, so a byte-planned shard
    never materializes more than one batch of parsed rows at a time.
    """
    backend = backend_by_name(shard.format)
    pieces: List[str] = []
    rows = 0
    flagged = 0
    quarantined: List[QuarantinedRecord] = []
    lines = backend.read_shard_lines(
        shard.locator,
        shard.start,
        shard.end,
        collect_bad=spec.on_error == "quarantine",
        first_line=shard.first_line,
    )
    for start, chunk in _record_aligned_chunks(
        lines,
        chunk_size,
        shard.first_line,
        spec.delimiter,
        csv_quoting=backend.csv_quoting,
    ):
        piece = _transform_lines(spec, engines, start, chunk, shard.locator, shard.format)
        pieces.append(piece.text)
        rows += piece.rows
        flagged += piece.flagged
        quarantined.extend(piece.quarantined)
    return TableChunk("".join(pieces), rows, flagged, tuple(quarantined))


def _apply_file_shard(shard: Shard) -> TableChunk:
    """Read, parse, transform, and encode one shard in a worker."""
    assert _TABLE_STATE is not None, "worker used before initialization"
    spec, engines, chunk_size = _TABLE_STATE
    maybe_fire("worker.shard", key=f"{shard.locator}:{shard.start}")
    return _transform_shard(spec, engines, chunk_size, shard)


class ShardedTableExecutor:
    """One-pass, multi-column apply over a partitioned dataset.

    Workers read their own record-aligned shards, parse them, run every
    column's compiled program, and hand back one already-encoded text
    chunk each.  Results come back in input order through a bounded
    in-flight window, so the parent's whole job is splicing strings
    into the sink — no codec runs on the parent's hot path.  With
    ``workers=1`` the same per-shard pipeline runs inline and no pool is
    spawned.

    Args:
        programs: Mapping from input column name to the
            :class:`CompiledProgram` / :class:`TransformEngine` that
            transforms it.
        header: The input header, in file order.
        output_columns: Optional mapping from input column to sink
            column; a sink column equal to the input column transforms
            in place, anything else is appended to the header.  Defaults
            to ``<column>_transformed`` for every programmed column.
        out_format: Any sink format the backend registry exposes
            (``"csv"`` by default).
        delimiter: CSV delimiter for both parse and encode.
        source: Input name used in error messages.
        workers: Worker process count; ``None`` means ``os.cpu_count()``.
        chunk_size: Physical lines per transform batch inside a shard.
        on_error: ``"abort"`` (default — first bad record raises) or
            ``"quarantine"`` (bad records divert into each chunk's
            ``quarantined`` tuple; the run continues).
        fault_policy: Retry/timeout policy for infrastructure faults
            (dead or hung workers).  The default retries nothing, which
            is the historical behaviour.  A policy with retries or a
            timeout forces pool execution even at ``workers=1`` so the
            knobs keep their meaning.
    """

    def __init__(
        self,
        programs: Mapping[str, ProgramLike],
        header: Sequence[str],
        output_columns: Optional[Mapping[str, str]] = None,
        out_format: str = "csv",
        delimiter: str = ",",
        source: str = "<table>",
        workers: Optional[int] = None,
        chunk_size: int = DEFAULT_TABLE_CHUNK_LINES,
        on_error: str = "abort",
        fault_policy: Optional[FaultPolicy] = None,
    ) -> None:
        if not programs:
            raise ValidationError("ShardedTableExecutor needs at least one column program")
        if out_format not in sink_format_names():
            raise ValidationError(
                f"unsupported output format {out_format!r}; "
                f"choose from {', '.join(sink_format_names())}"
            )
        # Fail at construction when the sink format needs an extra the
        # parent process cannot import (e.g. parquet without pyarrow).
        backend_by_name(out_format).require_sink()
        if on_error not in ERROR_MODES:
            raise ValidationError(
                f"unsupported error mode {on_error!r}; choose from {', '.join(ERROR_MODES)}"
            )
        self._workers = validated_workers(workers)
        self._chunk_size = validated_chunk_size(chunk_size)
        self._fault_policy = fault_policy or FaultPolicy()

        fieldnames = tuple(header)
        named_outputs = dict(output_columns or {})
        output_fields = list(fieldnames)
        transforms: List[Tuple[int, int]] = []
        compiled_programs: List[CompiledProgram] = []
        for column, program in programs.items():
            column = resolve_column(fieldnames, column)
            sink = named_outputs.get(column, f"{column}_transformed")
            if sink == column:
                output_index = fieldnames.index(column)
            else:
                if sink in output_fields:
                    raise ValidationError(
                        f"output column {sink!r} already exists in the CSV header; "
                        "pick a different output column"
                    )
                output_index = len(output_fields)
                output_fields.append(sink)
            transforms.append((fieldnames.index(column), output_index))
            compiled_programs.append(as_compiled(program, "ShardedTableExecutor"))

        self._spec = TableSpec(
            fieldnames=fieldnames,
            output_fields=tuple(output_fields),
            transforms=tuple(transforms),
            delimiter=delimiter,
            out_format=out_format,
            source=source,
            on_error=on_error,
        )
        self._programs = compiled_programs
        self._rpool: Optional[ResilientPool[Shard, TableChunk]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def spec(self) -> TableSpec:
        """The resolved parse/transform/encode specification."""
        return self._spec

    @property
    def workers(self) -> int:
        """Number of worker processes (1 = inline, no pool)."""
        return self._workers

    @property
    def fault_policy(self) -> FaultPolicy:
        """The infrastructure-fault retry/timeout policy."""
        return self._fault_policy

    def _build_pool(self) -> ProcessPoolExecutor:
        wires = tuple(_program_wire(program) for program in self._programs)
        return ProcessPoolExecutor(
            max_workers=self._workers,
            initializer=_init_table_worker,
            initargs=(self._spec, wires, self._chunk_size),
        )

    def _ensure_pool(self) -> ResilientPool[Shard, TableChunk]:
        if self._rpool is None:
            self._rpool = ResilientPool(self._build_pool, self._fault_policy)
        return self._rpool

    @property
    def _use_pool(self) -> bool:
        # A fault policy with teeth needs out-of-process execution even
        # at workers=1: you cannot time out or retry your own process.
        return self._workers > 1 or self._fault_policy.wants_pool

    def close(self) -> None:
        """Shut the worker pool down gracefully (idempotent)."""
        if self._rpool is not None:
            self._rpool.close()
            self._rpool = None

    def kill(self) -> None:
        """Hard-kill the worker pool without waiting on running tasks."""
        if self._rpool is not None:
            self._rpool.kill()
            self._rpool = None

    def __enter__(self) -> "ShardedTableExecutor":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        # On KeyboardInterrupt/SystemExit a graceful shutdown would wait
        # on (possibly hung) running tasks; tear down hard instead so
        # Ctrl-C never orphans workers or hangs the parent.
        if exc_type is not None and not issubclass(exc_type, Exception):
            self.kill()
        else:
            self.close()

    def _shard_failure(
        self, key: Any, shard: Shard, kind: str, attempts: int
    ) -> TableChunk:
        """Poison shard (still failing after its retries): abort or quarantine."""
        reason = self._fault_policy.fault_reason(kind, attempts)
        if self._spec.on_error != "quarantine":
            raise shard.poisoned(reason)
        lines = list(
            backend_by_name(shard.format).read_shard_lines(
                shard.locator,
                shard.start,
                shard.end,
                collect_bad=True,
                first_line=shard.first_line,
            )
        )
        error = f"poison work quarantined whole: {reason}"
        records = tuple(
            QuarantinedRecord(shard.locator, number, error, _record_raw(record_lines))
            for number, record_lines in _iter_records(
                lines,
                shard.first_line,
                self._spec.delimiter,
                csv_quoting=backend_by_name(shard.format).csv_quoting,
            )
        )
        return TableChunk("", 0, 0, records)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def header_text(self) -> str:
        """The encoded sink header ("" for formats without one)."""
        return backend_by_name(self._spec.out_format).header_text(
            self._spec.output_fields, self._spec.delimiter
        )

    def _plan(
        self, dataset: Iterable[DatasetPart], shard_bytes: int
    ) -> Iterator[Tuple[int, Shard]]:
        # Parts are planned lazily, one part ahead of the in-flight
        # window; a CSV part whose header drifted from the spec fails
        # loudly instead of splicing mismatched columns into one sink.
        for index, part in enumerate(dataset):
            header, shards = plan_part(part, shard_bytes, self._spec.delimiter)
            if header is not None and tuple(header) != self._spec.fieldnames:
                raise CLXError(
                    f"{part.locator} header ({', '.join(header)}) does not match the "
                    f"dataset header ({', '.join(self._spec.fieldnames)}); "
                    "partitions of one dataset must share a header"
                )
            for shard in shards:
                yield index, shard

    def run_dataset(
        self,
        dataset: Iterable[DatasetPart],
        shard_bytes: int = DEFAULT_APPLY_SHARD_BYTES,
    ) -> Iterator[Tuple[int, TableChunk]]:
        """Fan a whole partitioned dataset across the worker pool.

        Shards of *different* partitions stay in flight together, so
        small-file latencies overlap and no pool barrier falls at a part
        boundary.  Workers read their own byte ranges, parse (CSV or
        JSONL per part), transform, and encode — in batches of the
        executor's ``chunk_size`` lines, so both knobs keep their
        meaning (``shard_bytes`` sizes I/O and dispatch, ``chunk_size``
        bounds rows resident per transform batch); the parent does no
        row I/O at all.  Results arrive strictly in (part, offset)
        order, so the sink bytes are identical at any worker count.

        Args:
            dataset: A resolved :class:`~repro.dataset.dataset.Dataset`
                (or any iterable of :class:`DatasetPart`).
            shard_bytes: Byte-range size above which a part is split.

        Yields:
            ``(part_index, TableChunk)`` per shard, in deterministic
            order.
        """
        validated_chunk_size(shard_bytes, "shard_bytes")
        plan = self._plan(dataset, shard_bytes)
        if not self._use_pool:
            for index, shard in plan:
                yield index, _transform_shard(self._spec, self._programs, self._chunk_size, shard)
            return
        yield from self._ensure_pool().map_ordered_keyed(
            _apply_file_shard, plan, self._workers + 2, on_failure=self._shard_failure
        )


# ----------------------------------------------------------------------
# Dataset apply orchestration (shared by the CLI and the library APIs)
# ----------------------------------------------------------------------
def partition_output_name(part: DatasetPart, out_format: str) -> str:
    """The sink file name for one partition: swap only the final extension.

    ``part.2024.csv`` keeps its dotted stem (``part.2024.jsonl`` under a
    JSONL sink), and an extensionless partition gains the sink suffix.
    """
    return part.path.stem + backend_by_name(out_format).sink_suffix


class _PartSink:
    """One output file behind a uniform write/commit/abort surface.

    Text sink formats write straight into an :class:`AtomicSink` (the
    header first); binary sink formats (parquet/arrow) route the worker
    wire text through the backend's
    :class:`~repro.dataset.backends.base.SinkWriter` onto a binary
    :class:`AtomicSink`, whose atomic rename still only happens after
    the format's own footer is written.
    """

    def __init__(self, target: Path, executor: ShardedTableExecutor) -> None:
        backend = backend_by_name(executor.spec.out_format)
        self.path = target
        self._atomic = AtomicSink(target, binary=backend.binary_sink).open()
        self._writer = None
        if backend.binary_sink:
            self._writer = backend.open_sink_writer(
                self._atomic.handle, executor.spec.output_fields
            )
        else:
            self._atomic.write(executor.header_text())

    def write(self, text: str) -> None:
        if self._writer is not None:
            self._writer.write(text)
        else:
            self._atomic.write(text)

    def commit(self) -> None:
        if self._writer is not None:
            self._writer.finish()
        self._atomic.commit()

    def abort(self) -> None:
        self._atomic.abort()


@dataclass
class DatasetApplyResult:
    """What one :func:`apply_dataset` run did.

    Attributes:
        rows: Data rows written across every partition.
        flagged: Cells no program branch matched (left unchanged).
        parts: Number of input partitions applied.
        outputs: Files written (empty when splicing to a stream).
        quarantined: Records diverted to the quarantine sink.
        quarantine_files: Quarantine files written (one per partition
            that quarantined at least one record).
        skipped_parts: Partitions skipped by ``resume`` because the run
            manifest already records them as complete.
        hint: A re-synthesis hint when the quarantined records share a
            token pattern, else ``None``.
    """

    rows: int = 0
    flagged: int = 0
    parts: int = 0
    outputs: List[Path] = field(default_factory=list)
    quarantined: int = 0
    quarantine_files: List[Path] = field(default_factory=list)
    skipped_parts: int = 0
    hint: Optional[str] = None


def apply_dataset(
    executor: ShardedTableExecutor,
    dataset: Dataset,
    output: Optional[Union[str, Path]] = None,
    output_dir: Optional[Union[str, Path]] = None,
    stream: Optional[IO[str]] = None,
    shard_bytes: int = DEFAULT_APPLY_SHARD_BYTES,
    quarantine_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> DatasetApplyResult:
    """Apply a dataset through ``executor`` into exactly one sink shape.

    The one implementation of apply-anywhere sink plumbing, shared by
    ``repro-clx apply``, :meth:`TransformEngine.apply_dataset
    <repro.engine.executor.TransformEngine.apply_dataset>`, and
    :meth:`CLXSession.apply_dataset
    <repro.core.session.CLXSession.apply_dataset>`:

    * ``output`` / ``stream`` — every partition splices into one sink
      in stable part order behind a single header;
    * ``output_dir`` — one output file per partition, preserving
      partition names (final extension swapped to the sink format).

    Either way the chunks come from :meth:`ShardedTableExecutor.run_dataset`,
    so partitions stream through the worker pool concurrently while the
    sink bytes stay deterministic.

    File sinks are crash-safe: every output (and quarantine) file is
    written to a same-directory temp file and atomically renamed into
    place on completion, so a failed or interrupted run never leaves a
    partial file at a final path.  In ``output_dir`` mode a
    ``.clx-apply.json`` manifest records each completed partition;
    ``resume=True`` skips partitions the manifest still vouches for
    (same source path and size, output present).

    With the executor in quarantine mode (``on_error="quarantine"``),
    ``quarantine_dir`` collects one JSONL file per partition that had
    failing records; sink bytes and quarantine contents are both
    deterministic at any worker count.

    Raises:
        ValidationError: If not exactly one destination is given, if
            quarantine mode and ``quarantine_dir`` are not paired, or
            if ``resume`` is used without ``output_dir``.
        CLXError: If writing would clobber an input partition, or two
            partitions map to the same output name.
    """
    destinations = [value for value in (output, output_dir, stream) if value is not None]
    if len(destinations) != 1:
        raise ValidationError(
            "apply_dataset needs exactly one of output, output_dir, or stream"
        )
    out_backend = backend_by_name(executor.spec.out_format)
    if stream is not None and out_backend.binary_sink:
        raise ValidationError(
            f"{executor.spec.out_format} output is a binary format and cannot "
            "be spliced into a text stream; use output or output_dir"
        )
    quarantining = executor.spec.on_error == "quarantine"
    if quarantining and quarantine_dir is None:
        raise ValidationError(
            "on_error='quarantine' needs a quarantine_dir to divert records into"
        )
    if quarantine_dir is not None and not quarantining:
        raise ValidationError(
            "quarantine_dir is only meaningful with on_error='quarantine'"
        )
    if resume and output_dir is None:
        raise ValidationError(
            "resume only applies to output_dir runs (they keep the run manifest)"
        )
    parts = dataset.parts
    result = DatasetApplyResult(parts=len(parts))
    quarantine = QuarantineWriter(Path(quarantine_dir)) if quarantine_dir is not None else None

    def record_quarantined(part: DatasetPart, chunk: TableChunk) -> None:
        if quarantine is not None and chunk.quarantined:
            quarantine.add(part.name, part.locator, chunk.quarantined)

    def finish_quarantine() -> None:
        if quarantine is not None:
            quarantine.finish()
            result.quarantined = quarantine.total
            result.quarantine_files = quarantine.files
            if quarantine.samples:
                result.hint = resynthesis_hint(quarantine.samples)

    if output_dir is not None:
        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        names = set()
        for part in parts:
            name = partition_output_name(part, executor.spec.out_format)
            if name in names:
                raise CLXError(
                    f"two partitions would write the same output file {name!r}; "
                    "rename the partitions or apply them separately"
                )
            names.add(name)
            if part.url is None and (directory / name).resolve() == part.path.resolve():
                raise CLXError(
                    f"--output-dir would overwrite input partition {part.path}; "
                    "choose a different directory"
                )
        manifest = RunManifest(directory, executor.spec.out_format, resume=resume)
        pending: List[DatasetPart] = []
        for part in parts:
            name = partition_output_name(part, executor.spec.out_format)
            if (
                resume
                and manifest.completed(
                    name, part.locator, part.size, backend=part.format
                )
                is not None
            ):
                result.skipped_parts += 1
                continue
            pending.append(part)

        sink: Optional[_PartSink] = None
        open_through = -1  # highest pending-part index whose sink is open
        part_rows = part_flagged = part_quarantined = 0

        def finalize_open_part() -> None:
            # Commit the finished partition's output, then its manifest
            # entry and quarantine file — in that order, so the manifest
            # never vouches for bytes that have not landed.
            nonlocal sink
            assert sink is not None
            part = pending[open_through]
            sink.commit()
            sink = None
            manifest.mark(
                partition_output_name(part, executor.spec.out_format),
                part.locator,
                part.size,
                part_rows,
                part_flagged,
                part_quarantined,
                backend=part.format,
            )
            if quarantine is not None:
                quarantine.finish_part(part.name)

        def advance_to(index: int) -> _PartSink:
            # Open sinks for every part up to `index`, so a partition
            # with no data rows still produces its (header-only) file.
            nonlocal sink, open_through, part_rows, part_flagged, part_quarantined
            while open_through < index:
                if sink is not None:
                    finalize_open_part()
                open_through += 1
                part = pending[open_through]
                target = directory / partition_output_name(
                    part, executor.spec.out_format
                )
                sink = _PartSink(target, executor)
                result.outputs.append(target)
                part_rows = part_flagged = part_quarantined = 0
            assert sink is not None
            return sink

        try:
            for part_index, chunk in executor.run_dataset(
                pending, shard_bytes=shard_bytes
            ):
                maybe_fire("sink.write", key=pending[part_index].name)
                advance_to(part_index).write(chunk.text)
                result.rows += chunk.rows
                result.flagged += chunk.flagged
                part_rows += chunk.rows
                part_flagged += chunk.flagged
                part_quarantined += len(chunk.quarantined)
                record_quarantined(pending[part_index], chunk)
            if pending:
                advance_to(len(pending) - 1)
                finalize_open_part()
        except BaseException:
            if sink is not None:
                sink.abort()
            if quarantine is not None:
                quarantine.abort()
            raise
        finish_quarantine()
        return result

    destination = Path(output) if output is not None else None
    if destination is not None:
        # The sink replaces the destination on success — refuse before
        # destroying an input partition (easy to hit when the glob
        # covers the destination, e.g. re-running the same command).
        resolved = destination.resolve()
        for part in parts:
            if part.url is None and resolved == part.path.resolve():
                raise CLXError(
                    f"--output {destination} is also an input partition; "
                    "writing would destroy the source — choose a different "
                    "output path"
                )
    file_sink = _PartSink(destination, executor) if destination is not None else None
    try:
        if file_sink is None:
            assert stream is not None
            stream.write(executor.header_text())
        for part_index, chunk in executor.run_dataset(
            dataset, shard_bytes=shard_bytes
        ):
            maybe_fire("sink.write", key=parts[part_index].name)
            if file_sink is not None:
                file_sink.write(chunk.text)
            else:
                assert stream is not None
                stream.write(chunk.text)
            result.rows += chunk.rows
            result.flagged += chunk.flagged
            record_quarantined(parts[part_index], chunk)
    except BaseException:
        # A failed spliced run must never leave a partial output file:
        # the temp is unlinked and the final path stays untouched.
        if file_sink is not None:
            file_sink.abort()
        if quarantine is not None:
            quarantine.abort()
        raise
    if file_sink is not None:
        file_sink.commit()
        assert destination is not None
        result.outputs.append(destination)
    finish_quarantine()
    return result


# ----------------------------------------------------------------------
# Mapping-rows fan-out behind TransformEngine.transform_table(workers=N)
# ----------------------------------------------------------------------
def _init_rows_worker(payload: Tuple[Tuple[str, ProgramWire], ...]) -> None:
    global _ROWS_STATE
    _ROWS_STATE = [(column, _program_from_wire(wire)) for column, wire in payload]


#: One mapping-rows task: the chunk's first row index and its rows.
RowsTask = Tuple[int, List[Mapping[str, Any]]]


def _transform_rows_chunk(task: RowsTask) -> List[Dict[str, Any]]:
    assert _ROWS_STATE is not None, "worker used before initialization"
    base_index, rows = task
    return _apply_columns_to_rows(_ROWS_STATE, base_index, rows)


def _apply_columns_to_rows(
    programs: Sequence[Tuple[str, CompiledProgram]],
    base_index: int,
    rows: Sequence[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Apply every column program to a chunk of row mappings (copied)."""
    out_rows = [dict(row) for row in rows]
    for column, compiled in programs:
        run_one = compiled.run_one
        for offset, row in enumerate(out_rows):
            if column not in row:
                raise ValidationError(f"row {base_index + offset} has no column {column!r}")
            value = "" if row[column] is None else str(row[column])
            row[column] = run_one(value).output
    return out_rows


def transform_table_parallel(
    rows: Iterable[Mapping[str, Any]],
    programs: Sequence[Tuple[str, CompiledProgram]],
    workers: int,
    chunk_size: int,
) -> Iterator[Dict[str, Any]]:
    """Fan chunks of row mappings across workers, one pass, ordered.

    The engine-level counterpart of :class:`ShardedTableExecutor` for
    callers that hold row dicts rather than a CSV file.  Used by
    :meth:`TransformEngine.transform_table` when ``workers > 1``.
    """
    payload = tuple((column, _program_wire(compiled)) for column, compiled in programs)

    def build() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_init_rows_worker, initargs=(payload,)
        )

    tasks = ((base, (base, chunk)) for base, chunk in indexed_chunks(rows, chunk_size))
    pool: ResilientPool[RowsTask, List[Dict[str, Any]]] = ResilientPool(build)
    with pool:
        for _, out_rows in pool.map_ordered_keyed(_transform_rows_chunk, tasks, workers + 2):
            yield from out_rows
