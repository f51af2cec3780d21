"""Header scans and JSONL row rules shared by every line-record reader.

:meth:`Backend.iter_shard_values
<repro.dataset.backends.base.Backend.iter_shard_values>` is the one
column reader behind profiling at any worker count (and
:meth:`Dataset.iter_values <repro.dataset.dataset.Dataset.iter_values>`);
:meth:`~repro.dataset.backends.base.Backend.read_shard_lines` feeds the
apply workers.  Both read a planned shard
(:mod:`repro.dataset.shards`) through :func:`iter_line_shard`, or, for
JSONL values, in blocks holding exactly the same lines, and build on
the header scan, the JSONL row parser and the cell rule defined here,
as do the schema checks.

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
from contextlib import closing
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

from repro.util.csvio import record_open_after
from repro.util.errors import ValidationError
from repro.util.textio import BadLine, decode_line


def _open_binary(path: Union[str, Path]) -> IO[bytes]:
    # Function-level import: backends package imports this module at its
    # own import time, so the reverse edge must resolve lazily.
    from repro.dataset.backends.remote import open_locator

    return open_locator(str(path))


def iter_line_shard(
    locator: str,
    start: int,
    end: Optional[int],
    collect_bad: bool = False,
    first_line: int = 1,
) -> Iterator[str]:
    """Decoded physical lines beginning in the exact byte range [start, end).

    Both bounds are record boundaries from the shard planner, so the
    reader owns precisely these lines; ``end=None`` streams to EOF.
    Decode failures carry the true physical line number and absolute
    byte offset (``first_line`` names the line sitting at ``start``).
    Binary ``readline`` splits on ``"\\n"`` only: a lone ``"\\r"`` is
    data, the pipeline-wide line convention.
    """
    with _open_binary(locator) as handle:
        handle.seek(start)
        position = start
        number = first_line - 1
        while end is None or position < end:
            raw = handle.readline()
            if not raw:
                return
            number += 1
            yield decode_line(raw, locator, number, position, collect_bad)
            position += len(raw)


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


#: The decoder ``json.loads`` itself uses when called without options.
JSONL_DECODER = json.JSONDecoder()

#: What ``json.loads`` skips around a document: JSON whitespace only.
#: ``str.strip()`` would also drop ``"\\xa0"``, ``"\\x0b"`` or ``"\\x1c"``,
#: which ``json.loads`` rejects as extra data.
JSON_WHITESPACE = " \t\n\r"


def parse_jsonl_row(
    line: str, source: Union[str, Path], number: Union[int, None] = None
) -> Dict[str, object]:
    """Parse one JSONL line into an object, with file context on errors.

    The single definition of what a JSONL row is — shared by the shard
    value reader, the apply-side chunk parse, and the schema checks, so
    their semantics (and error wording) cannot drift.

    A line starting with ``{`` takes one C-scanner call
    (``raw_decode``), and it is accepted exactly when ``json.loads``
    would return the same object.  ``json.loads`` refuses a leading BOM
    and skips leading whitespace before it calls that same
    ``raw_decode``; a leading ``{`` rules out both, and it can only
    decode to a ``dict``.  Afterwards ``json.loads`` raises "Extra data"
    unless only JSON whitespace is left, which is the check made here.
    Every other line, and every line the scanner rejects, goes through
    ``json.loads``, so the error text is its own.
    """
    if line[:1] == "{":
        try:
            payload, stop = JSONL_DECODER.raw_decode(line)
        except ValueError:
            pass
        else:
            if not line[stop:].strip(JSON_WHITESPACE):
                return payload
    try:
        payload = json.loads(line)
    except ValueError as error:
        problem = f"invalid JSON line: {error}"
    else:
        if isinstance(payload, dict):
            return payload
        problem = f"JSONL rows must be objects, got {type(payload).__name__}"
    # The location is formatted only on failure: this runs once per row.
    where = f"{source} line {number}" if number is not None else str(source)
    raise ValidationError(f"{where}: {problem}")


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
    with closing(iter_line_shard(source, 0, None, collect_bad=not strict)) as lines:
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
    # closing(): an early return must not leave the file to the collector.
    with closing(iter_line_shard(source, 0, None)) as lines:
        for number, line in enumerate(lines, start=1):
            if line.strip():
                return parse_jsonl_row(line, source, number)
    return None
