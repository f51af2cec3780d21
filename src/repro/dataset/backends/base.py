"""The IO backend protocol and the extension/scheme-keyed registry.

A :class:`Backend` packages everything the pipeline needs to speak one
partition format — schema discovery, shard planning, the one column
reader profiling uses, the worker-side raw-chunk parse, and the
sink-side chunk encoding — so
:class:`~repro.engine.parallel.ShardedTableExecutor`,
:class:`~repro.clustering.parallel.ParallelProfiler`, and
:func:`~repro.engine.parallel.apply_dataset` dispatch through the
registry instead of ``if part.format == "csv"`` branches.

Two capability axes shape the contracts:

* **line-record backends** (CSV, JSONL) own text files whose physical
  lines carry records; byte-range shard planning, record-aligned cut
  scans, and the raw-line worker wire all apply.  ``csv_quoting``
  states whether a record may span physical lines (quoted embedded
  newline), ``has_header_row`` whether the file leads with a header
  record.
* **rowgroup backends** (Parquet, Arrow IPC) own binary columnar
  files.  Shard bounds are **row-group indices**, not byte offsets
  (``plan_shards``), and the worker wire is the JSONL rendering of each
  row group — so parse, transform, quarantine, and re-encode reuse the
  JSONL machinery unchanged.

Backends register under a name plus one or more file suffixes.  An
unregistered suffix fails loudly (:func:`backend_for_path`) instead of
the historical silent fall-back to CSV; ``assume_csv`` is the escape
hatch for extensionless partition files only.
"""

from __future__ import annotations

import abc
from pathlib import Path
from typing import (
    IO,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    TYPE_CHECKING,
)

from repro.util.errors import CLXError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.dataset.dataset import DatasetPart


class RowSpec(Protocol):
    """The slice of the executor's TableSpec a parse/encode stage needs."""

    @property
    def fieldnames(self) -> Tuple[str, ...]: ...

    @property
    def output_fields(self) -> Tuple[str, ...]: ...

    @property
    def delimiter(self) -> str: ...


class SinkWriter(Protocol):
    """A committed-on-finish writer consuming worker wire-text chunks."""

    def write(self, wire_text: str) -> None: ...

    def finish(self) -> None: ...


class Backend(abc.ABC):
    """One partition format's reader/writer contract.

    Attributes:
        name: Registry key; also the ``DatasetPart.format`` /
            ``--format`` value.
        suffixes: File suffixes (lower-case, dot included) resolving to
            this backend.
        line_records: Physical text lines carry records (CSV/JSONL).
        csv_quoting: A record may span physical lines while a quoted
            field is open (CSV); line backends only.
        has_header_row: The file leads with a header record naming the
            columns (CSV); line backends only.
        binary_sink: Sink files are binary and written through a
            format-aware :class:`SinkWriter` instead of spliced text.
        sink_suffix: Suffix of files this backend writes.
    """

    name: str = ""
    suffixes: Tuple[str, ...] = ()
    line_records: bool = True
    csv_quoting: bool = False
    has_header_row: bool = False
    binary_sink: bool = False
    sink_suffix: str = ""

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------
    def require(self) -> None:
        """Raise :class:`CLXError` naming the missing extra, if any."""

    def available(self) -> bool:
        """Whether this backend's optional dependencies are importable."""
        try:
            self.require()
        except CLXError:
            return False
        return True

    # ------------------------------------------------------------------
    # Schema discovery (resolution side)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def field_order(
        self, part: "DatasetPart", delimiter: str, strict: bool = True
    ) -> Optional[List[str]]:
        """The dataset field order this part defines, or None to defer.

        ``None`` lets an empty part (e.g. a rowless JSONL file) defer
        to the next partition instead of blanking the schema.
        """

    @abc.abstractmethod
    def column_names(
        self, part: "DatasetPart", delimiter: str
    ) -> Optional[List[str]]:
        """Column names an index can resolve against, or None.

        Cheap — a header or schema read, never a full scan.  ``None``
        means this format addresses columns by name only (JSONL).
        """

    @abc.abstractmethod
    def check_column(
        self, part: "DatasetPart", column: Union[str, int], delimiter: str
    ) -> None:
        """Verify the part can supply ``column``, naming it on failure."""

    # ------------------------------------------------------------------
    # Apply input: shard geometry and the worker wire
    # ------------------------------------------------------------------
    def data_region(
        self, locator: str, delimiter: str
    ) -> Tuple[Optional[List[str]], int, int]:
        """(header, data-start offset, first data line) of one file.

        Line backends only; the executor verifies the returned header
        (when any) against its spec before planning byte-range shards.
        """
        raise CLXError(f"{self.name} partitions have no byte data region")

    def plan_shards(
        self, locator: str, shard_bytes: int
    ) -> Iterator[Tuple[int, int, int]]:
        """(start, end, first_line) spans for one rowgroup-backend part.

        Spans are row-group index ranges sized so each covers roughly
        ``shard_bytes`` of storage — the columnar stand-in for
        record-aligned byte-range cuts.
        """
        raise CLXError(f"{self.name} partitions plan byte-range shards instead")

    @abc.abstractmethod
    def read_shard_lines(
        self,
        locator: str,
        start: int,
        end: Optional[int],
        collect_bad: bool = False,
        first_line: int = 1,
    ) -> Iterator[str]:
        """The worker wire: physical lines of the shard ``[start, end)``.

        Line backends read and decode the exact byte range (both bounds
        are record boundaries from the planner); ``end=None`` streams to
        the file's end.  Rowgroup backends render row groups
        ``[start, end)`` as JSONL — one JSON object per row — so the
        downstream parse/transform/encode pipeline is shared.
        ``collect_bad`` defers UTF-8 decode failures as
        :class:`~repro.util.textio.BadLine` markers (quarantine mode).
        """

    @abc.abstractmethod
    def parse_rows(
        self, spec: RowSpec, first_line: int, lines: List[str], label: str
    ) -> List[List[str]]:
        """Parse one wire chunk into padded row lists, in field order.

        Every failure raises :class:`CLXError` naming ``label`` and the
        absolute line number — the quarantine salvage pass replays
        records through this same method to divert exactly the bad one.
        """

    # ------------------------------------------------------------------
    # Profiling input: the one column reader
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def iter_shard_values(
        self, locator: str, start: int, end: Optional[int], column: Union[str, int],
        delimiter: str, first_line: int,
    ) -> Iterator[str]:
        """One column's values out of the planned shard ``[start, end)``.

        The only value reader: profiling reads through it at any worker
        count, a serial pass taking each part as one whole-part shard.
        ``column`` is a header index for CSV (a short row gives
        ``""``, surplus cells are ignored) and a name otherwise (a
        missing key or ``null`` gives ``""``).  Blank lines are skipped,
        ``end=None`` reads to the end of the part, and ``first_line``
        numbers the line at ``start`` in error messages.
        """

    # ------------------------------------------------------------------
    # Sink side
    # ------------------------------------------------------------------
    def require_sink(self) -> None:
        """Raise unless this process can *write* the format (parent side)."""
        self.require()

    @abc.abstractmethod
    def encode_rows(
        self, output_fields: Sequence[str], rows: List[List[str]], delimiter: str
    ) -> str:
        """Encode transformed rows as sink wire text (worker side).

        For binary sinks this is the *internal* wire (JSONL) the parent
        decodes into the real format; for text sinks it is the final
        sink bytes.
        """

    def header_text(self, output_fields: Sequence[str], delimiter: str) -> str:
        """The encoded sink header ("" for formats without one)."""
        return ""

    def open_sink_writer(
        self, handle: IO[bytes], output_fields: Sequence[str]
    ) -> SinkWriter:
        """A :class:`SinkWriter` materializing wire text into ``handle``.

        Binary-sink backends only; the caller owns the handle's
        lifecycle (atomic temp file + rename).
        """
        raise CLXError(f"{self.name} sinks are plain text; write chunks directly")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Backend] = {}
_BY_SUFFIX: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> None:
    """Register a backend under its name and every suffix it claims."""
    if not backend.name:
        raise CLXError("a backend needs a name")
    _BACKENDS[backend.name] = backend
    for suffix in backend.suffixes:
        _BY_SUFFIX[suffix.lower()] = backend


def backend_names() -> Tuple[str, ...]:
    """Every registered backend name, registration order."""
    return tuple(_BACKENDS)


def input_format_names() -> Tuple[str, ...]:
    """Formats the apply/profile input side accepts."""
    return tuple(_BACKENDS)


def sink_format_names() -> Tuple[str, ...]:
    """Formats the apply sink side can write."""
    return tuple(name for name, backend in _BACKENDS.items() if backend.sink_suffix)


def supported_suffixes() -> Tuple[str, ...]:
    """Every registered file suffix, sorted."""
    return tuple(sorted(_BY_SUFFIX))


def backend_by_name(name: str) -> Backend:
    """The backend registered under ``name``.

    Raises:
        CLXError: For an unregistered format name.
    """
    backend = _BACKENDS.get(name)
    if backend is None:
        raise CLXError(
            f"unsupported partition format {name!r}; "
            f"choose from {', '.join(_BACKENDS)}"
        )
    return backend


def backend_for_path(
    path: Union[str, Path], assume_csv: bool = False
) -> Backend:
    """Resolve a partition file's backend from its suffix — loudly.

    Unknown suffixes are an error (the historical behavior silently
    parsed ``.parquet``, ``.txt``, ``.gz``, ... as CSV and profiled
    garbage).  An extensionless file is also an error unless
    ``assume_csv`` says otherwise — the one-release escape hatch for
    suffixless partition layouts.

    Raises:
        CLXError: Naming the file and the supported suffixes.
    """
    suffix = Path(str(path)).suffix.lower()
    backend = _BY_SUFFIX.get(suffix)
    if backend is not None:
        return backend
    if not suffix:
        if assume_csv:
            return _BACKENDS["csv"]
        raise CLXError(
            f"{path}: partition file has no extension, so its format is "
            f"unknown (supported: {', '.join(supported_suffixes())}); "
            "pass --assume-csv to read extensionless files as CSV"
        )
    raise CLXError(
        f"{path}: unsupported partition extension {suffix!r} "
        f"(supported: {', '.join(supported_suffixes())}); "
        "rename the file or convert it to a supported format"
    )
