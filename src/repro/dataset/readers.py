"""Per-partition value streaming (CSV and JSON Lines).

These are the single-process readers behind
:meth:`Dataset.iter_values <repro.dataset.dataset.Dataset.iter_values>`
and the schema checks; the multi-process shard readers
(:meth:`~repro.dataset.backends.base.Backend.read_shard_lines`, planned
by :mod:`repro.dataset.shards`) share the header scan defined here.

Every open goes through
:func:`~repro.dataset.backends.remote.open_locator` (binary mode, lines
decoded by :func:`~repro.util.textio.decode_line`), so the same readers
serve local paths and remote ``scheme://`` partitions, and a non-UTF-8
byte always surfaces as a :class:`~repro.util.errors.CLXError` naming
the file, line, and byte offset instead of a bare ``UnicodeDecodeError``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import IO, TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from repro.util.csvio import record_open_after, resolve_column
from repro.util.errors import ValidationError
from repro.util.textio import BadLine, decode_line, iter_decoded_lines

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.dataset.dataset import DatasetPart


def _open_binary(path: Union[str, Path]) -> IO[bytes]:
    # Function-level import: backends package imports this module at its
    # own import time, so the reverse edge must resolve lazily.
    from repro.dataset.backends.remote import open_locator

    return open_locator(str(path))


def read_csv_header(
    path: Union[str, Path], delimiter: str = ",", encoding: str = "utf-8"
) -> Tuple[List[str], int]:
    """The CSV header row of ``path`` and the byte offset where data starts.

    Physical lines are accumulated until the header record closes, so a
    (rare) quoted header field containing a newline stays intact —
    tracked with csv quoting semantics, since a stray ``"`` in an
    unquoted header cell is data, not a delimiter.

    Raises:
        ValidationError: If the file has no header row.
    """
    header, data_start, _ = csv_data_region(path, delimiter, encoding)
    return header, data_start


def csv_data_region(
    path: Union[str, Path], delimiter: str = ",", encoding: str = "utf-8"
) -> Tuple[List[str], int, int]:
    """Header fields, data-start byte offset, and first data line number.

    The byte-range planners need all three: where the data region
    begins and which 1-based *physical* line number that byte sits on
    (a quoted header field containing a newline makes the header span
    several physical lines, so it is not always line 2).

    Raises:
        ValidationError: If the file has no header row.
        CLXError: If the header contains a non-UTF-8 byte.
    """
    source = str(path)
    header_text = ""
    header_lines = 0
    record_open = False
    with _open_binary(path) as handle:
        offset = 0
        while True:
            line = handle.readline()
            if not line:
                break
            header_lines += 1
            decoded = decode_line(line, source, header_lines, offset)
            offset += len(line)
            header_text += decoded
            record_open = record_open_after(decoded, delimiter, record_open)
            if not record_open:
                break
        data_start = handle.tell()
    if not header_text.strip():
        raise ValidationError(f"{source} has no header row")
    header = next(csv.reader([header_text], delimiter=delimiter))
    return header, data_start, header_lines + 1


def iter_csv_values(
    path: Union[str, Path], column: Union[str, int], delimiter: str = ","
) -> Iterator[str]:
    """Stream one column of a CSV file, ``""`` for rows missing it."""
    header, data_start, first_line = csv_data_region(path, delimiter)
    index = header.index(resolve_column(header, column))
    with _open_binary(path) as handle:
        handle.seek(data_start)
        lines = iter_decoded_lines(handle, str(path), first_line=first_line)
        for row in csv.reader(lines, delimiter=delimiter):
            if not row:
                continue  # blank line, as csv.DictReader skips them
            yield row[index] if index < len(row) else ""


def parse_jsonl_row(
    line: str, source: Union[str, Path], number: Union[int, None] = None
) -> Dict[str, object]:
    """Parse one JSONL line into an object, with file context on errors.

    The single definition of what a JSONL row is — shared by the
    streaming readers, the schema check, and the byte-range profiling
    workers, so their semantics (and error wording) cannot drift.
    """
    where = f"{source} line {number}" if number is not None else str(source)
    try:
        payload = json.loads(line)
    except ValueError as error:
        raise ValidationError(f"{where}: invalid JSON line: {error}") from None
    if not isinstance(payload, dict):
        raise ValidationError(
            f"{where}: JSONL rows must be objects, got {type(payload).__name__}"
        )
    return payload


def jsonl_cell(value: object) -> str:
    """Stringify one JSONL value into a pipeline cell, JSON-faithfully.

    The single ingestion rule shared by profiling and apply: missing
    key and ``null`` become ``""``, strings pass through untouched, and
    everything else keeps its *JSON* form (``true``, not Python's
    ``True``; nested objects/arrays re-encode via ``json.dumps``) — so
    pass-through columns survive a jsonl→jsonl apply without being
    rewritten as Python reprs.
    """
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return json.dumps(value, ensure_ascii=False)


def jsonl_value(payload: Dict[str, object], column: str) -> str:
    """One column of a parsed JSONL row, stringified via :func:`jsonl_cell`
    (missing key and ``null`` both become ``""``)."""
    return jsonl_cell(payload.get(column))


def jsonl_key_union(path: Union[str, Path], strict: bool = True) -> List[str]:
    """Every key appearing in a JSONL file, in first-seen order.

    Sparse keys are idiomatic JSONL — records carry only the fields
    they have — so a part's *schema* is the union of its records' keys,
    not the first record's.  One sequential pass, memory bounded by the
    number of distinct keys.

    With ``strict=False`` unparsable (or undecodable) lines contribute
    no keys instead of aborting the scan — the lenient pre-flight
    quarantine mode needs, where those same lines are quarantined
    during apply rather than failing the run before it starts.
    """
    source = str(path)
    keys: List[str] = []
    seen = set()
    with _open_binary(path) as handle:
        lines = iter_decoded_lines(handle, source, collect_bad=not strict)
        for number, line in enumerate(lines, start=1):
            if isinstance(line, BadLine):
                continue  # collect_bad only in lenient mode; skip like a bad parse
            if not line.strip():
                continue
            try:
                row = parse_jsonl_row(line, source, number)
            except ValidationError:
                if strict:
                    raise
                continue
            for key in row:
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
    return keys


def first_jsonl_object(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The first non-blank JSON object of a JSONL file, or None if empty."""
    source = str(path)
    with _open_binary(path) as handle:
        for number, line in enumerate(iter_decoded_lines(handle, source), start=1):
            if not line.strip():
                continue
            return parse_jsonl_row(line, source, number)
    return None


def iter_jsonl_values(path: Union[str, Path], column: str) -> Iterator[str]:
    """Stream one key of a JSONL file, ``""`` for rows missing it.

    Values are stringified the way the profiler ingests them (``None``
    becomes ``""``), so a JSONL part profiles identically to a CSV part
    holding the same strings.
    """
    source = str(path)
    # Binary readline splits physical lines on "\n" and nothing else —
    # the pipeline-wide JSONL convention (a lone "\r" is data, not a
    # line break) — so a file that profiles also applies, and vice versa.
    with _open_binary(path) as handle:
        for number, line in enumerate(iter_decoded_lines(handle, source), start=1):
            if not line.strip():
                continue
            yield jsonl_value(parse_jsonl_row(line, source, number), column)


def iter_part_values(
    part: "DatasetPart", column: Union[str, int], delimiter: str = ","
) -> Iterator[str]:
    """Stream ``column`` out of one :class:`~repro.dataset.dataset.DatasetPart`."""
    from repro.dataset.backends import backend_by_name

    backend = backend_by_name(part.format)
    backend.require()
    yield from backend.iter_values(part, column, delimiter)
