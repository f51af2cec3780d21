"""Byte-to-text decoding with file context, shared by every reader.

The whole pipeline reads partitions as raw bytes (so byte-range shards
can seek) and decodes physical lines itself.  A non-UTF-8 byte used to
escape as a bare ``UnicodeDecodeError`` with no file context;
:func:`decode_line` is the single rewrap point: it names the file, the
1-based physical line, and the absolute byte offset of the offending
byte.  In quarantine mode the decode failure must not abort the run —
:class:`BadLine` carries the error through the line-based worker wire
(it *is* a ``str``, decoded with ``errors="replace"``, so record
grouping and chunk splitting treat it like any other line) until the
parse stage raises it per-record and the salvage pass diverts exactly
that record.
"""

from __future__ import annotations

from typing import Tuple

from repro.util.errors import CLXError


class BadLine(str):
    """A physical line whose bytes were not valid UTF-8.

    Subclasses ``str`` (the ``errors="replace"`` decoding) so it flows
    through line-oriented plumbing — record grouping, chunk splitting,
    raw-record capture — unchanged; the parse stage checks for it and
    raises :attr:`error`, which in quarantine mode diverts the record.
    Quote-parity scanning stays sound: a quote is an ASCII byte, and
    invalid UTF-8 sequences never decode to ASCII.
    """

    __slots__ = ("error",)

    error: str

    def __new__(cls, text: str, error: str) -> "BadLine":
        line = super().__new__(cls, text)
        line.error = error
        return line

    def __reduce__(self) -> Tuple[type, Tuple[str, str]]:
        # Plain pickle of a str subclass drops __slots__ state; chunks of
        # lines cross the worker pool boundary, so spell the wire out.
        return (BadLine, (str(self), self.error))


def decode_error_message(
    raw: bytes, error: UnicodeDecodeError, source: str, line_number: int, offset: int
) -> str:
    """The one wording for a non-UTF-8 byte: file, line, absolute offset."""
    bad = raw[error.start] if error.start < len(raw) else 0
    return (
        f"{source} line {line_number}: invalid UTF-8 byte 0x{bad:02x} at byte "
        f"offset {offset + error.start}; the pipeline reads UTF-8 — re-encode "
        "the file, or divert the record with --on-error quarantine"
    )


def decode_line(
    raw: bytes,
    source: str,
    line_number: int,
    offset: int,
    collect_bad: bool = False,
) -> str:
    """Decode one physical line, rewrapping decode failures with context.

    Args:
        raw: The line's bytes (trailing newline included).
        source: File name for the error message.
        line_number: 1-based physical line number of ``raw``.
        offset: Absolute byte offset of ``raw[0]`` in the file.
        collect_bad: ``False`` (default) raises :class:`CLXError`;
            ``True`` returns a :class:`BadLine` instead, deferring the
            failure to the parse stage (quarantine mode).

    Raises:
        CLXError: On invalid UTF-8 when ``collect_bad`` is false.
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as error:
        message = decode_error_message(raw, error, source, line_number, offset)
        if collect_bad:
            return BadLine(raw.decode("utf-8", errors="replace"), message)
        raise CLXError(message) from None

