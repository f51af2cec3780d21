"""The line-record backends: CSV and JSON Lines.

These carry the historical pipeline semantics byte for byte — the same
header scans, the same ragged-row and unknown-key rules, the same
encoded sink bytes — just reachable through the
:class:`~repro.dataset.backends.base.Backend` protocol instead of
``format == "csv"`` string dispatch.  Both read through the locator
seam (:func:`~repro.dataset.backends.remote.open_locator`), so local
paths and remote partitions share one code path, and both decode via
:func:`~repro.util.textio.decode_line`, so a non-UTF-8 byte names its
file, line, and byte offset — or rides through as a
:class:`~repro.util.textio.BadLine` in quarantine mode until the parse
stage diverts exactly that record.
"""

from __future__ import annotations

import csv
import io
from itertools import chain
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, Union

from repro.dataset.backends.base import Backend, RowSpec
from repro.dataset.backends.remote import open_locator
from repro.dataset.readers import (
    JSON_WHITESPACE,
    JSONL_DECODER,
    csv_data_region,
    first_jsonl_object,
    iter_line_shard,
    jsonl_cell,
    jsonl_key_union,
    jsonl_value,
    parse_jsonl_row,
)
from repro.util.csvio import resolve_column
from repro.util.errors import CLXError, ValidationError
from repro.util.textio import BadLine, decode_line

#: Bytes per read of the JSONL column reader.  A read that cuts a line
#: runs on to that line's end, as ``readline`` would carry it, so every
#: block holds whole lines and memory stays within about one block plus
#: the longest line.
JSONL_BLOCK_BYTES = 1 << 20

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.dataset.dataset import DatasetPart


def parse_csv_chunk(
    spec: RowSpec, first_line: int, lines: List[str], label: str
) -> List[List[str]]:
    """Parse one chunk of physical CSV lines into padded row lists.

    Parse failures the csv module raises itself (e.g. a bare ``\\r`` in
    an unquoted cell) are rewrapped so every malformed input surfaces
    as a :class:`CLXError` naming the file and line, never a raw
    ``_csv.Error`` traceback.
    """
    for line in lines:
        if isinstance(line, BadLine):
            raise CLXError(line.error)
    width = len(spec.fieldnames)
    out_width = len(spec.output_fields)
    reader = csv.reader(lines, delimiter=spec.delimiter)
    rows: List[List[str]] = []
    try:
        for row in reader:
            if not row:
                continue  # csv.DictReader skips blank lines; so do we
            if len(row) > width:
                line_number = first_line + reader.line_num - 1
                raise CLXError(
                    f"{label} line {line_number}: row has {len(row)} cells "
                    f"but the header has {width} columns; fix the row or "
                    "re-export the CSV"
                )
            if len(row) < width:
                row.extend([""] * (width - len(row)))
            row.extend([""] * (out_width - width))
            rows.append(row)
    except csv.Error as error:
        line_number = first_line + max(reader.line_num, 1) - 1
        raise CLXError(f"{label} line {line_number}: invalid CSV: {error}") from None
    return rows


def parse_jsonl_chunk(
    spec: RowSpec, first_line: int, lines: List[str], label: str
) -> List[List[str]]:
    """Parse one chunk of JSON Lines into padded row lists, in field order.

    One physical line is one record (a literal newline cannot occur
    inside a JSON string), so every failure names its exact file and
    line and can never corrupt a neighboring record.  Key
    reconciliation against the dataset field order mirrors the CSV
    ragged-row rules: a missing key (or ``null``) contributes ``""``
    and values stringify JSON-faithfully
    (:func:`~repro.dataset.readers.jsonl_cell` — the profiler's own
    ingestion rule), while an unknown key fails fast — silently
    dropping it would lose data in a CSV sink.
    """
    width = len(spec.fieldnames)
    out_width = len(spec.output_fields)
    known = set(spec.fieldnames)
    rows: List[List[str]] = []
    for offset, line in enumerate(lines):
        if isinstance(line, BadLine):
            raise CLXError(line.error)
        if not line.strip():
            continue  # blank line, as the JSONL readers skip them
        number = first_line + offset
        payload = parse_jsonl_row(line, label, number)
        unknown = [key for key in payload if key not in known]
        if unknown:
            raise CLXError(
                f"{label} line {number}: key(s) {', '.join(map(repr, unknown))} "
                f"not in the dataset field order ({', '.join(spec.fieldnames)}); "
                "partitions of one dataset must share a schema"
            )
        row = [jsonl_cell(payload.get(name)) for name in spec.fieldnames]
        row.extend([""] * (out_width - width))
        rows.append(row)
    return rows


def _lines_before_bad_byte(
    block: bytes, locator: str, number: int, offset: int
) -> Tuple[List[str], CLXError]:
    """The lines of a non-UTF-8 ``block`` before its first bad one, and
    the :class:`CLXError` :func:`~repro.dataset.readers.iter_line_shard`
    raises for that one (``number`` and ``offset`` place the block)."""
    lines: List[str] = []
    for raw in io.BytesIO(block):  # binary lines end at b"\n" only
        try:
            line = decode_line(raw, locator, number + len(lines), offset)
        except CLXError as error:
            return lines, error
        lines.append(line[:-1])
        offset += len(raw)
    raise AssertionError("a block that fails to decode holds a line that fails")


def _column_values(
    lines: List[str], tail: str, name: str, locator: str, number: int
) -> Tuple[List[str], Optional[ValidationError]]:
    """Column ``name`` of each non-blank line, up to the first bad one,
    and that line's error.

    ``lines`` ended in ``"\\n"`` and ``tail`` did not; ``number`` is
    the first line's number.  The fast path of
    :func:`~repro.dataset.readers.parse_jsonl_row` is spelled out inline,
    which saves a call per line.  A line it does not take goes through
    :func:`~repro.dataset.readers.parse_jsonl_row` with its ``"\\n"``
    put back, so that the error text is unchanged.
    """
    raw_decode = JSONL_DECODER.raw_decode
    values: List[str] = []
    append = values.append
    blanks = 0  # every line before the current one gave a value or was blank
    try:
        for line in lines:
            if line[:1] == "{":
                try:
                    payload, stop = raw_decode(line)
                except ValueError:
                    pass
                else:
                    if stop == len(line) or not line[stop:].strip(JSON_WHITESPACE):
                        value = payload.get(name)
                        append(value if type(value) is str else jsonl_cell(value))
                        continue
            if line.strip():
                row = parse_jsonl_row(line + "\n", locator, number + len(values) + blanks)
                append(jsonl_value(row, name))
            else:
                blanks += 1
        if tail.strip():
            append(jsonl_value(parse_jsonl_row(tail, locator, number + len(lines)), name))
    except ValidationError as error:
        return values, error
    return values, None


def _jsonl_value_blocks(
    locator: str, start: int, end: Optional[int], name: str, first_line: int
) -> Iterator[List[str]]:
    """Column ``name`` of the JSONL lines beginning in ``[start, end)``,
    one list per block of about :data:`JSONL_BLOCK_BYTES`.

    The values are exactly what :func:`~repro.dataset.readers.jsonl_value`
    of :func:`~repro.dataset.readers.parse_jsonl_row` gives for each
    non-blank line of :func:`~repro.dataset.readers.iter_line_shard`,
    and a bad line fails with the same error.  Each block is decoded
    once and split on ``"\\n"`` only: ``splitlines()`` would also cut at
    a raw ``U+2028`` or ``"\\x85"``, both legal inside a JSON string.
    """
    number = first_line
    with open_locator(locator) as handle:
        handle.seek(start)
        position = start
        while end is None or position < end:
            block = handle.read(
                JSONL_BLOCK_BYTES if end is None else min(JSONL_BLOCK_BYTES, end - position)
            )
            if not block:
                return
            if block[-1:] != b"\n":
                block += handle.readline()
            offset, position = position, position + len(block)
            failure: Optional[CLXError] = None
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError:
                lines, failure = _lines_before_bad_byte(block, locator, number, offset)
                tail = ""
            else:
                # Hold at most two of the block's bytes, text and lines.
                del block
                lines = text.split("\n")
                del text
                # "" after a final "\n", or else the part's unterminated last line
                tail = lines.pop()
            values, error = _column_values(lines, tail, name, locator, number)
            number += len(lines)
            del lines
            yield values  # the rows before a bad line still come first
            del values  # hold one block's values at a time, not two
            problem = error or failure  # a bad row precedes the bad byte
            if problem is not None:
                raise problem


class CsvBackend(Backend):
    """Header-rowed delimiter-separated text; the pipeline's default."""

    name = "csv"
    suffixes = (".csv",)
    line_records = True
    csv_quoting = True
    has_header_row = True
    binary_sink = False
    sink_suffix = ".csv"

    def field_order(
        self, part: "DatasetPart", delimiter: str, strict: bool = True
    ) -> Optional[List[str]]:
        header, _, _ = csv_data_region(part.locator, delimiter)
        return header

    def column_names(
        self, part: "DatasetPart", delimiter: str
    ) -> Optional[List[str]]:
        header, _, _ = csv_data_region(part.locator, delimiter)
        return header

    def check_column(
        self, part: "DatasetPart", column: Union[str, int], delimiter: str
    ) -> None:
        header, _, _ = csv_data_region(part.locator, delimiter)
        try:
            resolve_column(header, column)
        except ValidationError as error:
            raise ValidationError(f"{part.locator}: {error}") from None

    def data_region(
        self, locator: str, delimiter: str
    ) -> Tuple[Optional[List[str]], int, int]:
        return csv_data_region(locator, delimiter)

    def read_shard_lines(
        self,
        locator: str,
        start: int,
        end: Optional[int],
        collect_bad: bool = False,
        first_line: int = 1,
    ) -> Iterator[str]:
        return iter_line_shard(locator, start, end, collect_bad, first_line)

    def parse_rows(
        self, spec: RowSpec, first_line: int, lines: List[str], label: str
    ) -> List[List[str]]:
        return parse_csv_chunk(spec, first_line, lines, label)

    def iter_shard_values(
        self, locator: str, start: int, end: Optional[int], column: Union[str, int],
        delimiter: str, first_line: int,
    ) -> Iterator[str]:
        assert isinstance(column, int), "CSV shards read a resolved header index"
        lines = iter_line_shard(locator, start, end, first_line=first_line)
        return (
            row[column] if column < len(row) else ""
            for row in csv.reader(lines, delimiter=delimiter)
            if row  # blank lines are skipped, as csv.DictReader skips them
        )

    def encode_rows(
        self, output_fields: Sequence[str], rows: List[List[str]], delimiter: str
    ) -> str:
        # Lazy: repro.engine imports this package via engine.parallel, so
        # the reverse edge must resolve at call time, not import time.
        from repro.engine.serialize import encode_rows_csv

        return encode_rows_csv(rows, delimiter=delimiter)

    def header_text(self, output_fields: Sequence[str], delimiter: str) -> str:
        from repro.engine.serialize import encode_rows_csv

        return encode_rows_csv([list(output_fields)], delimiter=delimiter)


def _jsonl_column_name(locator: str, column: Union[str, int]) -> str:
    """``column`` as a JSONL key; an index (or digit string) is refused."""
    if not isinstance(column, str) or column.isdigit():
        raise ValidationError(
            f"{locator}: JSONL parts address columns by name, not index ({column!r})"
        )
    return column


class JsonlBackend(Backend):
    """JSON Lines: one object per physical line, schema = key union."""

    name = "jsonl"
    suffixes = (".jsonl", ".ndjson")
    line_records = True
    csv_quoting = False
    has_header_row = False
    binary_sink = False
    sink_suffix = ".jsonl"

    def field_order(
        self, part: "DatasetPart", delimiter: str, strict: bool = True
    ) -> Optional[List[str]]:
        keys = jsonl_key_union(part.locator, strict=strict)
        return keys or None  # an empty part defers to the next partition

    def column_names(
        self, part: "DatasetPart", delimiter: str
    ) -> Optional[List[str]]:
        return None  # JSONL addresses columns by name, never by index

    def check_column(
        self, part: "DatasetPart", column: Union[str, int], delimiter: str
    ) -> None:
        name = _jsonl_column_name(part.locator, column)
        first = first_jsonl_object(part.locator)
        if first is not None and name not in first:
            raise ValidationError(
                f"{part.locator}: column {name!r} not found; available: "
                + ", ".join(sorted(first))
            )

    def data_region(
        self, locator: str, delimiter: str
    ) -> Tuple[Optional[List[str]], int, int]:
        return None, 0, 1  # no header row; data starts at byte 0, line 1

    def read_shard_lines(
        self,
        locator: str,
        start: int,
        end: Optional[int],
        collect_bad: bool = False,
        first_line: int = 1,
    ) -> Iterator[str]:
        return iter_line_shard(locator, start, end, collect_bad, first_line)

    def parse_rows(
        self, spec: RowSpec, first_line: int, lines: List[str], label: str
    ) -> List[List[str]]:
        return parse_jsonl_chunk(spec, first_line, lines, label)

    def iter_shard_values(
        self, locator: str, start: int, end: Optional[int], column: Union[str, int],
        delimiter: str, first_line: int,
    ) -> Iterator[str]:
        name = _jsonl_column_name(locator, column)
        # A block's values are handed on by chain's C loop, not a generator step each.
        return chain.from_iterable(_jsonl_value_blocks(locator, start, end, name, first_line))

    def encode_rows(
        self, output_fields: Sequence[str], rows: List[List[str]], delimiter: str
    ) -> str:
        from repro.engine.serialize import encode_rows_jsonl

        return encode_rows_jsonl(output_fields, rows)
