"""Tests for the parallel shard-merge profiler.

The contract under test: :class:`ParallelProfiler` is an execution
detail, never a semantics change — the hierarchy it produces has the
same leaf patterns and counts as the serial
:class:`IncrementalProfiler` pass over the same data, for both shard
sources (iterable chunk fan-out and record-aligned file shards), at any
worker count, across the bench generators.  Shard failures carry the
apply path's diagnostics: exact file/line/byte for a non-UTF-8 byte, and
a clean :class:`CLXError` with no live worker left for a dead worker.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import time

import pytest

from repro.bench.generators import (
    addresses,
    dates,
    human_names,
    medical_codes,
    phone_numbers,
)
from repro.clustering.incremental import IncrementalProfiler
from repro.clustering.parallel import ParallelProfiler
from repro.dataset import Dataset
from repro.dataset.shards import plan_part
from repro.util import faults
from repro.util.errors import CLXError, ValidationError


def _leaf_signature(profile):
    hierarchy = profile.to_hierarchy()
    return [(node.pattern.notation(), node.size) for node in hierarchy.leaf_nodes]


def _generator_columns():
    phones, _ = phone_numbers(400, ["paren_space", "dashes", "dots", "plain"], seed=21)
    names, _ = human_names(300, seed=22)
    days, _ = dates(300, seed=23)
    streets, _ = addresses(300, seed=24)
    codes, _ = medical_codes(300, seed=25)
    return {
        "phones": phones,
        "names": names,
        "dates": days,
        "addresses": streets,
        "codes": codes,
    }


class _Kamikaze(str):
    """A value whose unpickling kills the worker process receiving it."""

    def __reduce__(self):
        return (os._exit, (13,))


class TestIterableEquivalence:
    def test_matches_serial_profile_across_bench_generators(self):
        parallel = ParallelProfiler(workers=2, chunk_size=64)
        for name, column in _generator_columns().items():
            serial = IncrementalProfiler().profile(iter(column))
            sharded = parallel.profile(iter(column))
            assert sharded.row_count == serial.row_count, name
            assert _leaf_signature(sharded) == _leaf_signature(serial), name

    def test_chunk_boundaries_do_not_matter(self):
        column, _ = phone_numbers(500, ["paren_space", "dashes", "dots"], seed=31)
        expected = _leaf_signature(IncrementalProfiler().profile(iter(column)))
        for chunk_size in (1, 7, 499, 500, 5000):
            profile = ParallelProfiler(workers=2, chunk_size=chunk_size).profile(iter(column))
            assert _leaf_signature(profile) == expected, chunk_size

    def test_single_worker_degenerates_to_serial_in_process(self, monkeypatch):
        import concurrent.futures

        def boom(*args, **kwargs):  # pragma: no cover - must not be hit
            raise AssertionError("no pool should be spawned for workers=1")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
        monkeypatch.setattr(
            "repro.clustering.parallel.ProcessPoolExecutor", boom
        )
        column, _ = phone_numbers(60, ["dashes", "dots"], seed=33)
        profile = ParallelProfiler(workers=1).profile(iter(column))
        assert profile.row_count == 60

    def test_empty_iterable_raises_like_serial(self):
        with pytest.raises(ValidationError):
            ParallelProfiler(workers=2).profile(iter([]))

    def test_empty_iterable_allowed_when_profiler_allows_empty(self):
        profiler = IncrementalProfiler(allow_empty=True)
        profile = ParallelProfiler(profiler=profiler, workers=2).profile(iter([]))
        assert profile.row_count == 0


class TestFileEquivalence:
    @pytest.fixture
    def phone_csv(self, tmp_path):
        column, _ = phone_numbers(700, ["paren_space", "dashes", "dots", "spaces"], seed=41)
        path = tmp_path / "phones.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "phone"])
            for index, value in enumerate(column):
                writer.writerow([index, value])
        return path, column

    def test_matches_serial_profile_at_any_worker_count(self, phone_csv):
        path, column = phone_csv
        expected = _leaf_signature(IncrementalProfiler().profile(iter(column)))
        for workers in (1, 2, 3, 5, 13):
            profile = ParallelProfiler(workers=workers).profile_file(path, "phone")
            assert profile.row_count == len(column), workers
            assert _leaf_signature(profile) == expected, workers

    def test_accepts_column_index(self, phone_csv):
        path, column = phone_csv
        by_name = ParallelProfiler(workers=2).profile_file(path, "phone")
        by_index = ParallelProfiler(workers=2).profile_file(path, 1)
        assert _leaf_signature(by_name) == _leaf_signature(by_index)

    def test_tolerates_ragged_and_short_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "id,phone\n1,734-422-8073\n2\n3,906-555-1234,stray\n",
            encoding="utf-8",
        )
        profile = ParallelProfiler(workers=2).profile_file(path, "phone")
        # The short row contributes "" for the missing column, like the
        # CLI's streaming profile; the surplus cell is ignored.
        assert profile.row_count == 3

    def test_stray_quotes_in_unquoted_cells_profile_fine(self, tmp_path):
        # Inch-marks and lone quotes inside unquoted cells are data; the
        # embedded-newline guard must not reject them.
        path = tmp_path / "quirky.csv"
        path.write_text(
            "note,size\n"
            + "".join(f'{n}" nail,{n}\n' for n in range(40))
            + 'say "hi",99\n',
            encoding="utf-8",
        )
        serial = ParallelProfiler(workers=1).profile_file(path, "size")
        parallel = ParallelProfiler(workers=3).profile_file(path, "size")
        assert parallel.row_count == serial.row_count == 41
        assert _leaf_signature(parallel) == _leaf_signature(serial)

    def test_quoted_embedded_newlines_profile_correctly(self, tmp_path):
        # Shards are cut on record boundaries (one quote-parity scan),
        # never inside a quoted field spanning lines, so fan-out matches
        # the serial pass instead of miscounting.
        path = tmp_path / "noted.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["note", "phone"])
            for index in range(60):
                writer.writerow([f"line one\nline two {index}", "734-422-8073"])
        serial = ParallelProfiler(workers=1).profile_file(path, "phone")
        assert serial.row_count == 60
        for workers in (2, 3, 5):
            parallel = ParallelProfiler(workers=workers).profile_file(path, "phone")
            assert parallel.row_count == 60, workers
            assert _leaf_signature(parallel) == _leaf_signature(serial), workers

    def test_multiline_records_in_the_profiled_column_itself(self, tmp_path):
        # The embedded newline can live in the very column being
        # profiled — the record-aligned shards must keep the value whole.
        path = tmp_path / "addresses.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "address"])
            for index in range(40):
                writer.writerow([index, f"{index} Main St\nSuite {index}"])
        serial = ParallelProfiler(workers=1).profile_file(path, "address")
        parallel = ParallelProfiler(workers=4).profile_file(path, "address")
        assert parallel.row_count == serial.row_count == 40
        assert _leaf_signature(parallel) == _leaf_signature(serial)

    def test_unknown_column_is_an_error(self, phone_csv):
        path, _ = phone_csv
        with pytest.raises(ValidationError, match="not found"):
            ParallelProfiler(workers=2).profile_file(path, "nope")

    def test_header_with_stray_quote_is_parsed_not_swallowed(self, tmp_path):
        # A lone quote in an unquoted header cell is data; the header
        # scan must stop at the first record boundary instead of
        # reading the file hunting for quote parity.
        path = tmp_path / "inch.csv"
        path.write_text(
            'name,size"\n' + "".join(f"n{i},734-422-8073\n" for i in range(30)),
            encoding="utf-8",
        )
        serial = ParallelProfiler(workers=1).profile_file(path, 'size"')
        parallel = ParallelProfiler(workers=2).profile_file(path, 'size"')
        assert parallel.row_count == serial.row_count == 30
        assert _leaf_signature(parallel) == _leaf_signature(serial)

    def test_missing_header_is_an_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError, match="header"):
            ParallelProfiler(workers=2).profile_file(empty, "phone")

    def test_header_only_file_raises_like_serial(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("id,phone\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="empty"):
            ParallelProfiler(workers=2).profile_file(path, "phone")


class TestValidationAndCrash:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            ParallelProfiler(workers=0)
        with pytest.raises(ValidationError):
            ParallelProfiler(workers=-2)
        with pytest.raises(ValidationError):
            ParallelProfiler(chunk_size=0)
        with pytest.raises(ValidationError):
            ParallelProfiler(profiler="not a profiler")

    def test_dead_worker_raises_clx_error_instead_of_hanging(self):
        column = ["734-422-8073"] * 40 + [_Kamikaze("906-555-1234")]
        profiler = ParallelProfiler(workers=2, chunk_size=8)
        with pytest.raises(CLXError, match="worker process died"):
            profiler.profile(iter(column))


def _write_mixed_parts(directory, count=200):
    """A CSV part and a JSONL part over (id, phone), 2 workers' worth each."""
    column, _ = phone_numbers(2 * count, ["paren_space", "dashes", "dots"], seed=51)
    with (directory / "part-0.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "phone"])
        for index, value in enumerate(column[:count]):
            writer.writerow([index, value])
    with (directory / "part-1.jsonl").open("w", encoding="utf-8") as handle:
        for index, value in enumerate(column[count:]):
            handle.write(json.dumps({"id": index + count, "phone": value}) + "\n")
    return column


def _poison_line(path, line_number):
    """Corrupt one physical line with a non-UTF-8 byte; returns its offset."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line_number - 1] = lines[line_number - 1].replace(b"-", b"\xff", 1)
    path.write_bytes(b"".join(lines))
    return path.read_bytes().index(b"\xff")


class TestShardDiagnostics:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["part-0.csv", "part-1.jsonl"])
    def test_invalid_utf8_mid_shard_names_file_line_and_offset(
        self, tmp_path, name, workers
    ):
        _write_mixed_parts(tmp_path)
        path = tmp_path / name
        # Line 150 is not the first line of any shard the profiler plans.
        offset = _poison_line(path, 150)
        dataset = Dataset.resolve(str(tmp_path / "part-*"))
        part = next(part for part in dataset if part.name == name)
        line_start = path.read_bytes().rindex(b"\n", 0, offset) + 1
        shards = plan_part(part, -(-dataset.total_size // 2)).shards
        assert any(shard.start < line_start < shard.end for shard in shards)
        with pytest.raises(CLXError) as info:
            ParallelProfiler(workers=workers).profile_dataset(dataset, "phone")
        message = str(info.value)
        assert f"{path} line 150:" in message
        assert f"at byte offset {offset};" in message

    def test_every_worker_count_profiles_the_mixed_parts_like_serial(self, tmp_path):
        column = _write_mixed_parts(tmp_path)
        expected = _leaf_signature(IncrementalProfiler().profile(iter(column)))
        dataset = Dataset.resolve(str(tmp_path / "part-*"))
        for workers in (1, 2, 3):
            profile = ParallelProfiler(workers=workers).profile_dataset(dataset, "phone")
            assert profile.row_count == len(column), workers
            assert _leaf_signature(profile) == expected, workers


class TestShardFaults:
    @pytest.fixture
    def crash_part_one(self, monkeypatch, tmp_path_factory):
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.shard:crash:k=part-1")
        monkeypatch.setenv(faults.FAULTS_DIR_ENV, str(tmp_path_factory.mktemp("markers")))
        faults.reset()
        yield
        monkeypatch.delenv(faults.FAULTS_ENV)
        faults.reset()

    def test_crashing_shard_raises_and_leaves_no_live_worker(self, tmp_path, crash_part_one):
        _write_mixed_parts(tmp_path)
        dataset = Dataset.resolve(str(tmp_path / "part-*"))
        with pytest.raises(CLXError, match=r"part-1\.jsonl bytes \[\d+, \d+\).*worker process died"):
            ParallelProfiler(workers=2).profile_dataset(dataset, "phone")
        deadline = time.monotonic() + 10.0
        for child in multiprocessing.active_children():
            child.join(max(0.0, deadline - time.monotonic()))
        assert [child for child in multiprocessing.active_children() if child.is_alive()] == []
