"""Fuzz tests for CSV record-boundary scanning at shard boundaries.

The byte-range fan-out stands on two primitives in :mod:`repro.util.csvio`:

* :func:`record_open_after` — the per-line quote-parity state machine
  (csv-module semantics: a quote is only special at field start, ``""``
  escapes, a stray inch-mark in an unquoted cell is data);
* :func:`iter_record_cut_points` — one sequential scan mapping byte
  targets to *record* boundaries, which is what lets shards split files
  whose quoted fields contain embedded newlines.

The fuzz corpus generates messy CSVs — quoted embedded newlines, ``""``
escapes, stray quotes in unquoted cells, empty fields, CRLF endings —
and asserts, at random shard boundaries:

1. the state machine agrees with the csv module's own parse about where
   records end;
2. aligned offsets always land on true record starts;
3. byte-range profiling equals whole-file profiling (the lifted
   embedded-newline caveat), at multiple worker counts.

The compiled scanner is also held to its specification,
:func:`~repro.util.csvio.record_open_after_reference` (the character
loop), on random lines over several delimiters and on adversarial
megabyte lines; and the chunk encoder's one-``writerows`` fast path is
held to the per-row path's bytes.

Seeds print per test; replay with ``CLX_PROPERTY_SEED=<seed>``.
"""

from __future__ import annotations

import csv
import io
import time

import pytest

from repro.clustering.incremental import IncrementalProfiler
from repro.clustering.parallel import ParallelProfiler
from repro.engine.serialize import _quoted_cell, encode_rows_csv
from repro.util.csvio import (
    iter_record_cut_points,
    record_open_after,
    record_open_after_reference,
)

#: Fuzz rounds per property.
ROUNDS = 25


def _aligned_offsets(path, end, targets):
    """The record-aligned cut offsets for ``targets`` over ``[0, end)``."""
    return [offset for offset, _ in iter_record_cut_points(str(path), 0, end, targets)]

#: Cell ingredients skewed toward quoting edge cases.
_CELL_POOLS = (
    "plain",
    "has\nnewline",
    "has\n\ntwo newlines",
    'quote " inside',
    '6" nail',
    'starts"with',
    "comma, inside",
    "",
    "ends with space ",
    '""',
    "'single'",
    "multi\nline, with comma",
)


def _random_cell(rng) -> str:
    base = rng.choice(_CELL_POOLS)
    if rng.random() < 0.3:
        base += str(rng.randrange(100))
    return base


def _random_row(rng, columns: int) -> list:
    row = [_random_cell(rng) for _ in range(columns)]
    if not any(row):
        # An all-empty row encodes as a blank line, which csv.reader
        # reports as [] — keep the corpus round-trippable instead.
        row[0] = "x"
    return row


def _random_csv(rng, delimiter: str = ",") -> tuple[str, list[list[str]]]:
    """A messy CSV (text, rows) written by the csv module itself.

    With another ``delimiter`` the pool's commas become the delimiter,
    so cells still need quoting.
    """
    columns = rng.randint(1, 4)
    rows = [_random_row(rng, columns) for _ in range(rng.randint(1, 60))]
    if delimiter != ",":
        rows = [[cell.replace(",", delimiter) for cell in row] for row in rows]
    buffer = io.StringIO()
    writer = csv.writer(
        buffer,
        delimiter=delimiter,
        lineterminator="\r\n" if rng.random() < 0.3 else "\n",
    )
    writer.writerows(rows)
    return buffer.getvalue(), rows


#: Delimiters the differential scanner tests cover: the common ones plus
#: characters that are special inside a regex character class.
_SCANNER_DELIMITERS = (",", ";", "\t", "|", "^", "]", "-", "\\", "§")


class TestScannerMatchesReference:
    """The compiled scanner answers exactly as the character-loop spec."""

    @pytest.mark.parametrize("delimiter", _SCANNER_DELIMITERS)
    def test_random_lines_agree_in_both_entry_states(self, property_rng, delimiter):
        rng = property_rng
        # Heavy in the characters the state machine reacts to.
        alphabet = ['"'] * 6 + ["\r", "\n"] * 2 + [delimiter] * 4 + list("ab ,x")
        for case in range(3000):
            line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
            for open_before in (False, True):
                assert record_open_after(line, delimiter, open_before) == (
                    record_open_after_reference(line, delimiter, open_before)
                ), (rng.seed_value, case, line, delimiter, open_before)

    @pytest.mark.parametrize(
        "line",
        [
            "a," * 200000 + '"x',
            '"",' * 200000 + '"',
            '"' + '""' * 300000,
            '"' * 600000,
        ],
        ids=["unquoted-then-open", "empty-quoted-then-open", "escape-run", "quote-run"],
    )
    def test_adversarial_long_lines_are_linear(self, line):
        for open_before in (False, True):
            started = time.perf_counter()
            answer = record_open_after(line, ",", open_before)
            seconds = time.perf_counter() - started
            assert answer == record_open_after_reference(line, ",", open_before)
            assert seconds < 2.0, (open_before, seconds)


class TestRecordOpenAfter:
    def test_agrees_with_the_csv_module_on_fuzzed_files(self, property_rng):
        rng = property_rng
        for round_index in range(ROUNDS):
            text, rows = _random_csv(rng)
            context = f"seed={rng.seed_value} round={round_index}"
            # Replaying the state machine over physical lines must close
            # exactly len(rows) records, in order, and end closed.
            open_state = False
            records = 0
            for line in text.splitlines(keepends=True):
                open_state = record_open_after(line, ",", open_state)
                if not open_state:
                    records += 1
            assert open_state is False, context
            assert records == len(rows), context
            # And the csv module parses the text back to the same rows,
            # so the fuzz corpus itself is well-formed.
            assert list(csv.reader(io.StringIO(text))) == rows, context

    @pytest.mark.parametrize("delimiter", [";", "\t"])
    def test_agrees_with_the_csv_module_on_other_delimiters(
        self, property_rng, delimiter
    ):
        rng = property_rng
        for round_index in range(ROUNDS):
            text, rows = _random_csv(rng, delimiter)
            context = f"seed={rng.seed_value} round={round_index}"
            open_state = False
            records = 0
            for line in text.splitlines(keepends=True):
                open_state = record_open_after(line, delimiter, open_state)
                if not open_state:
                    records += 1
            assert open_state is False, context
            assert records == len(rows), context
            assert list(csv.reader(io.StringIO(text), delimiter=delimiter)) == rows, context


class TestRecordAlignedOffsets:
    def test_aligned_offsets_are_true_record_starts(self, property_rng, tmp_path):
        rng = property_rng
        for round_index in range(ROUNDS):
            text, rows = _random_csv(rng)
            raw = text.encode("utf-8")
            path = tmp_path / f"fuzz-{round_index}.csv"
            path.write_bytes(raw)
            context = f"seed={rng.seed_value} round={round_index}"

            # Ground truth: byte offsets where records begin, via a
            # sequential replay of the state machine.
            starts = []
            position = 0
            open_state = False
            with path.open("rb") as handle:
                while True:
                    if not open_state:
                        starts.append(position)
                    line = handle.readline()
                    if not line:
                        break
                    open_state = record_open_after(line.decode("utf-8"), ",", open_state)
                    position = handle.tell()
            true_starts = set(starts) | {len(raw)}

            targets = sorted(rng.randrange(len(raw) + 1) for _ in range(rng.randint(1, 6)))
            aligned = _aligned_offsets(path, len(raw), targets)
            assert len(aligned) == len(targets), context
            assert aligned == sorted(aligned), context
            for target, offset in zip(targets, aligned):
                assert offset >= target, context
                assert offset in true_starts, (context, target, offset)

    def test_splitting_at_aligned_offsets_partitions_the_records(
        self, property_rng, tmp_path
    ):
        rng = property_rng
        for round_index in range(ROUNDS):
            text, rows = _random_csv(rng)
            raw = text.encode("utf-8")
            path = tmp_path / f"fuzz-{round_index}.csv"
            path.write_bytes(raw)
            targets = sorted(rng.randrange(len(raw) + 1) for _ in range(rng.randint(1, 5)))
            bounds = (
                [0]
                + _aligned_offsets(path, len(raw), targets)
                + [len(raw)]
            )
            pieces = [
                raw[start:end].decode("utf-8")
                for start, end in zip(bounds, bounds[1:])
                if start < end
            ]
            reassembled = [
                row
                for piece in pieces
                for row in csv.reader(io.StringIO(piece))
            ]
            assert reassembled == rows, f"seed={rng.seed_value} round={round_index}"

    @pytest.mark.parametrize("delimiter", [";", "\t"])
    def test_other_delimiters_cut_at_reference_record_starts(
        self, property_rng, tmp_path, delimiter
    ):
        rng = property_rng
        for round_index in range(ROUNDS):
            text, rows = _random_csv(rng, delimiter)
            raw = text.encode("utf-8")
            path = tmp_path / f"fuzz-{round_index}.csv"
            path.write_bytes(raw)
            context = f"seed={rng.seed_value} round={round_index}"

            # Ground truth from the reference character loop.
            starts = []
            position = 0
            open_state = False
            for line in text.splitlines(keepends=True):
                if not open_state:
                    starts.append(position)
                open_state = record_open_after_reference(line, delimiter, open_state)
                position += len(line.encode("utf-8"))
            true_starts = set(starts) | {len(raw)}

            targets = sorted(rng.randrange(len(raw) + 1) for _ in range(rng.randint(1, 6)))
            aligned = [
                offset
                for offset, _ in iter_record_cut_points(
                    str(path), 0, len(raw), targets, delimiter=delimiter
                )
            ]
            assert len(aligned) == len(targets), context
            for target, offset in zip(targets, aligned):
                assert offset >= target, context
                assert offset in true_starts, (context, target, offset)
            bounds = [0] + aligned + [len(raw)]
            reassembled = [
                row
                for start, end in zip(bounds, bounds[1:])
                if start < end
                for row in csv.reader(
                    io.StringIO(raw[start:end].decode("utf-8")), delimiter=delimiter
                )
            ]
            assert reassembled == rows, context


class TestByteRangeEqualsWholeFile:
    def test_fuzzed_files_profile_identically_at_any_worker_count(
        self, property_rng, tmp_path
    ):
        # The lifted caveat, end to end: byte-range profiling of files
        # with quoted embedded newlines at shard boundaries must equal
        # the whole-file pass.
        rng = property_rng
        for round_index in range(min(ROUNDS, 8)):
            columns = rng.randint(1, 3)
            header = [f"c{i}" for i in range(columns)]
            rows = [_random_row(rng, columns) for _ in range(rng.randint(1, 80))]
            path = tmp_path / f"fuzz-{round_index}.csv"
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
            column = rng.choice(header)
            expected_values = [row[header.index(column)] for row in rows]
            serial = IncrementalProfiler().profile(iter(expected_values))
            whole = ParallelProfiler(workers=1).profile_file(path, column)
            signature = lambda profile: sorted(
                (pattern.notation(), count)
                for pattern, count in profile.leaf_counts().items()
            )
            context = f"seed={rng.seed_value} round={round_index}"
            assert signature(whole) == signature(serial), context
            for workers in (2, 3, 5):
                sharded = ParallelProfiler(workers=workers).profile_file(path, column)
                assert sharded.row_count == len(rows), (context, workers)
                assert signature(sharded) == signature(serial), (context, workers)


class TestEncodeRowsCsv:
    """The one-``writerows`` encoder emits the per-row path's exact bytes."""

    @staticmethod
    def _per_row(rows, delimiter):
        writer_buffer = io.StringIO()
        writer = csv.writer(writer_buffer, delimiter=delimiter, lineterminator="\n")
        for row in rows:
            if any(isinstance(cell, str) and "\r" in cell for cell in row):
                writer_buffer.write(
                    delimiter.join(_quoted_cell(str(cell), delimiter) for cell in row) + "\n"
                )
            else:
                writer.writerow(row)
        return writer_buffer.getvalue()

    @pytest.mark.parametrize("delimiter", [",", ";", "\t"])
    def test_matches_the_per_row_path(self, property_rng, delimiter):
        rng = property_rng
        pool = [
            "plain", "cr\rinside", "crlf\r\n", "nl\nin", 'a "quote"', '"', "",
            f"has{delimiter}delim", " padded ", 7, 2.5, None, True,
        ]
        for round_index in range(ROUNDS * 4):
            columns = rng.randint(1, 4)
            rows = [
                [rng.choice(pool) for _ in range(columns)]
                for _ in range(rng.randint(0, 12))
            ]
            assert encode_rows_csv(rows, delimiter) == self._per_row(rows, delimiter), (
                rng.seed_value, round_index, rows
            )
