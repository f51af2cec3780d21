"""CSV record-boundary detection over physical lines.

The pipelined fan-out layers chunk CSV *lines* without parsing them, so
they need one question answered cheaply and correctly: after this
physical line, is a record still open (i.e. does a quoted field continue
onto the next line)?  Counting quote characters is not enough — the csv
module only treats ``"`` as a quote when it opens a field, so a stray
inch-mark in an unquoted cell (``6" nail``) is literal data, and exactly
that kind of messy value is this project's bread and butter.

:func:`record_open_after` answers it from two compiled regexes per
delimiter (one for a line that starts a record, one for a line that
continues an open quoted field), built once and cached at module level,
so the per-line cost is one C-level ``fullmatch``.  The specification
they implement is :func:`record_open_after_reference`: a per-character
walk with the same state machine the csv module applies (field-start
quoting, ``""`` escapes, delimiter resets), carrying the open/closed
state across lines of the same record.  The differential tests hold
the two to identical answers.  :func:`iter_record_cut_points` lifts
the scanner to whole files: one sequential scan maps any set of byte
targets to the nearest *record* boundaries at or past them (with the
physical line number at each), which is what lets the shard planner
(:mod:`repro.dataset.shards`) split files whose quoted fields contain
embedded newlines.

The scanner cache is also where a delimiter is validated
(:func:`~repro.util.validate.validated_delimiter`): every CSV read
consults it on the header line first, so a delimiter that is not one
character, or is ``"``, ``\\r`` or ``\\n``, fails as a
:class:`~repro.util.errors.ValidationError` before any parse.
"""

from __future__ import annotations

import re
from typing import IO, Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.util.errors import ValidationError
from repro.util.validate import validated_delimiter

QUOTE = '"'
_QUOTE_BYTE = b'"'


def _open_local(path: str) -> IO[bytes]:
    return open(path, "rb")


def resolve_column(header: Sequence[str], column: Union[str, int]) -> str:
    """Resolve a column given by name or zero-based index against a header.

    Accepts a column name, an ``int`` index, or a digit string (how an
    index arrives from the CLI).  Every layer that addresses CSV columns
    (the CLI, the parallel profiler, the table executor) resolves
    through here, so the lookup rules and the error message stay in
    lockstep.

    Raises:
        ValidationError: If the column matches nothing in the header.
    """
    if isinstance(column, int) and not isinstance(column, bool):
        if 0 <= column < len(header):
            return header[column]
    elif isinstance(column, str):
        if column in header:
            return column
        if column.isdigit() and int(column) < len(header):
            return header[int(column)]
    raise ValidationError(
        f"column {column!r} not found; available: {', '.join(header)}"
    )


#: A delimiter's ``(record start, continuation)`` line scanners.
_Scanners = Tuple[re.Pattern[str], re.Pattern[str]]

#: Scanners built so far, by delimiter.
_SCANNERS: Dict[str, _Scanners] = {}


def _compile_scanners(delimiter: str) -> _Scanners:
    """Validate ``delimiter`` and build (and cache) its two line scanners.

    A line *closes* its record exactly when it fullmatches the csv field
    grammar, so a failed match means a quoted field is still open:

    * a field may begin with line breaks (they do not end field start),
      then is a quoted field — ``"``, then runs of non-quotes separated
      by ``""`` escapes, a closing ``"`` not followed by another, and
      literal text up to the next delimiter — or unquoted text that does
      not start with a quote, or empty;
    * a continuation line is already inside a quoted field, so it must
      first close that field, then continue as ``(D FIELD)*``.

    The quoted body is the unrolled ``[^"]*(?:""[^"]*)*``: each ``""``
    pair is consumed whole and the closing quote's ``(?!")`` pins it to
    the last quote of an odd run, so the grammar admits one parse and
    a failing line backtracks in linear time.
    """
    validated_delimiter(delimiter)
    d = re.escape(delimiter)
    closed_body = f'[^"]*(?:""[^"]*)*"(?!")[^{d}]*'
    field = rf'[\r\n]*(?:"{closed_body}|[^"{d}\r\n][^{d}]*)?'
    rest = f"(?:{d}{field})*"
    scanners = (re.compile(field + rest), re.compile(closed_body + rest))
    _SCANNERS[delimiter] = scanners
    return scanners


def record_open_after(line: str, delimiter: str, open_before: bool = False) -> bool:
    """Whether a CSV record is still inside a quoted field after ``line``.

    Answers from the delimiter's two cached compiled scanners (see
    :func:`_compile_scanners`): a quote-free line keeps the state it
    started in, and any other line is open unless it fullmatches the
    csv field grammar for its entry state.  The answers are exactly
    those of :func:`record_open_after_reference`, the specification.

    Args:
        line: One physical line, with or without its trailing newline.
        delimiter: The CSV delimiter.
        open_before: State carried from the previous physical line of
            the same record (``False`` at a record boundary).

    Returns:
        ``True`` when the line ends inside a quoted field, i.e. the
        record continues on the next physical line.

    Raises:
        ValidationError: If ``delimiter`` is not a valid CSV delimiter.
    """
    start, continuation = _SCANNERS.get(delimiter) or _compile_scanners(delimiter)
    if QUOTE not in line:
        return open_before
    scanner = continuation if open_before else start
    return scanner.fullmatch(line) is None


def record_open_after_reference(
    line: str, delimiter: str, open_before: bool = False
) -> bool:
    """The specification of :func:`record_open_after`, as a character loop.

    Walks ``line`` with the state machine the csv module applies: a
    quote is only special at the start of a field, ``""`` inside a
    quoted field is an escaped quote, a delimiter outside quotes starts
    a new field, and line breaks at a field start leave it at field
    start.  Only tests and the scanner's benchmark row call it.
    """
    in_quotes = open_before
    # A quote is only special at the start of a field; when resuming a
    # continuation line we are mid-field by definition.
    field_start = not open_before
    position, length = 0, len(line)
    while position < length:
        char = line[position]
        if in_quotes:
            if char == QUOTE:
                if position + 1 < length and line[position + 1] == QUOTE:
                    position += 2  # "" escape: stays inside the field
                    continue
                in_quotes = False
            position += 1
        else:
            if char == QUOTE:
                if field_start:
                    in_quotes = True
                field_start = False
            elif char == delimiter:
                field_start = True
            elif char not in ("\r", "\n"):
                field_start = False
            position += 1
    return in_quotes


def iter_record_cut_points(
    path: str,
    start: int,
    end: int,
    targets: Sequence[int],
    delimiter: str = ",",
    encoding: str = "utf-8",
    first_line: int = 1,
    csv_quoting: bool = True,
    opener: Optional[Callable[[str], IO[bytes]]] = None,
) -> Iterator[Tuple[int, int]]:
    """Stream record-aligned cuts with their line numbers, one per target.

    The shard planner cuts byte ranges but still owes its workers exact
    error locations, so each aligned cut comes out as ``(offset,
    line_number)`` — the 1-based *physical* line number of the line
    beginning at ``offset``, counted from ``first_line`` at ``start``.
    Cuts are **yielded as the scan finds them**, so a consumer can
    dispatch work on early cuts while the tail of a huge file is still
    being scanned.  Targets at or past the
    last record start map to ``(end, <line scanning stopped at>)``; the
    resulting empty shard is the caller's to drop.

    Two scanning modes:

    * ``csv_quoting=True`` — full csv record semantics.  The record
      scanner only runs on lines that *contain* a quote byte (or
      continue an open record); quote-free regions advance at
      ``readline`` speed.
    * ``csv_quoting=False`` — every physical line is a record (JSON
      Lines: a literal newline cannot appear inside a JSON string), so
      alignment is pure newline alignment plus line counting.

    ``opener`` substitutes the binary open (remote partitions hand in
    :func:`~repro.dataset.backends.remote.open_locator`); the default is
    the builtin local open.  Scanned lines decode with
    ``errors="replace"``: a quote is an ASCII byte no invalid sequence
    can swallow, so alignment stays exact over undecodable bytes and
    the *reader* of the shard owns reporting (or quarantining) them.
    """
    remaining = list(targets)
    if any(later < earlier for earlier, later in zip(remaining, remaining[1:])):
        raise ValidationError("record cut-point targets must be ascending")
    line_number = first_line
    open_binary = opener if opener is not None else _open_local
    with open_binary(path) as handle:
        handle.seek(start)
        position = start
        record_open = False
        while remaining and position < end:
            if not record_open:
                while remaining and remaining[0] <= position:
                    yield position, line_number
                    remaining.pop(0)
            line = handle.readline()
            if not line:
                break
            if csv_quoting and (record_open or _QUOTE_BYTE in line):
                record_open = record_open_after(
                    line.decode(encoding, errors="replace"), delimiter, record_open
                )
            line_number += 1
            position = handle.tell()
    for _ in remaining:
        yield end, line_number
