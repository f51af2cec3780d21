"""Tests for mixed-format dataset apply and cross-partition dispatch.

The tentpole contract: a :class:`Dataset` mixing CSV and JSONL
partitions applies end-to-end through one
:class:`~repro.engine.parallel.ShardedTableExecutor` — workers parse
each part in its own format and re-encode to the sink format — and
:meth:`~repro.engine.parallel.ShardedTableExecutor.run_dataset` keeps
shards of *different* partitions in flight together while the sink
bytes stay identical at any worker count and shard geometry.
"""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.bench.phone import phone_dataset
from repro.core.session import CLXSession
from repro.dataset import Dataset, DatasetPart
from repro.dsl.ast import AtomicPlan, Branch, ConstStr, Extract, UniFiProgram
from repro.engine.compiled import CompiledProgram
from repro.engine.executor import TransformEngine
from repro.engine.parallel import (
    DEFAULT_APPLY_SHARD_BYTES,
    ShardedTableExecutor,
    apply_dataset,
    partition_output_name,
)
from repro.patterns.parse import parse_pattern
from repro.util.errors import CLXError, ValidationError


@pytest.fixture(scope="module")
def phone_engine():
    raw, _ = phone_dataset(count=120, format_count=4, seed=13)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    return session.engine()


def _write_csv(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_jsonl(path, rows):
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


@pytest.fixture
def mixed_dataset(tmp_path):
    """Three partitions — csv, jsonl, csv — over one (id, phone) column."""
    values, _ = phone_dataset(count=30, format_count=4, seed=5)
    _write_csv(
        tmp_path / "part-0.csv",
        ["id", "phone"],
        [[index, value] for index, value in enumerate(values[:10])],
    )
    _write_jsonl(
        tmp_path / "part-1.jsonl",
        [{"id": index + 10, "phone": value} for index, value in enumerate(values[10:20])],
    )
    _write_csv(
        tmp_path / "part-2.csv",
        ["id", "phone"],
        [[index + 20, value] for index, value in enumerate(values[20:])],
    )
    return Dataset.resolve(str(tmp_path / "part-*")), values


def _reference_csv(engine, values):
    """The serial single-stream oracle: header + one encoded row per value."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "phone", "phone_transformed"])
    for index, value in enumerate(values):
        writer.writerow([index, value, engine.run_one(value).output])
    return buffer.getvalue()


class TestRunPart:
    """One partition at a time through :meth:`ShardedTableExecutor.run_dataset`."""

    def test_jsonl_part_parses_and_encodes_csv(self, phone_engine, tmp_path):
        path = _write_jsonl(
            tmp_path / "rows.jsonl",
            [{"id": 0, "phone": "906.555.1234"}, {"id": 1, "phone": "(906) 555-9999"}],
        )
        dataset = Dataset.resolve(str(path))
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            encoded = "".join(chunk.text for _, chunk in executor.run_dataset(dataset))
        rows = list(csv.DictReader(io.StringIO(executor.header_text() + encoded)))
        assert [row["phone_transformed"] for row in rows] == [
            "906-555-1234",
            "906-555-9999",
        ]

    def test_jsonl_missing_key_and_null_become_empty(self, phone_engine, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": 0}\n{"id": 1, "phone": null}\n', encoding="utf-8")
        dataset = Dataset.resolve(str(path))
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            encoded = "".join(chunk.text for _, chunk in executor.run_dataset(dataset))
        rows = list(csv.DictReader(io.StringIO(executor.header_text() + encoded)))
        assert [row["phone"] for row in rows] == ["", ""]

    def test_jsonl_pass_through_values_keep_their_json_form(
        self, phone_engine, tmp_path
    ):
        # Untouched columns must not be rewritten as Python reprs:
        # true stays JSON true, nested objects stay JSON.
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"id": true, "phone": "906.555.1234"}\n'
            '{"id": {"a": 1}, "phone": "906.555.9999"}\n',
            encoding="utf-8",
        )
        dataset = Dataset.resolve(str(path))
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], out_format="jsonl", workers=1
        ) as executor:
            encoded = "".join(chunk.text for _, chunk in executor.run_dataset(dataset))
        rows = [json.loads(line) for line in encoded.splitlines()]
        assert [row["id"] for row in rows] == ["true", '{"a": 1}']
        assert [row["phone_transformed"] for row in rows] == [
            "906-555-1234",
            "906-555-9999",
        ]

    def test_jsonl_unknown_key_names_file_and_line(self, phone_engine, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"id": 0, "phone": "x"}\n{"id": 1, "phone": "y", "fax": "z"}\n',
            encoding="utf-8",
        )
        dataset = Dataset.resolve(str(path))
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            with pytest.raises(CLXError, match=r"rows\.jsonl line 2.*'fax'"):
                list(executor.run_dataset(dataset))

    def test_jsonl_blank_lines_are_skipped_but_counted(self, phone_engine, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"id": 0, "phone": "906.555.1234"}\n\nnot json\n', encoding="utf-8"
        )
        dataset = Dataset.resolve(str(path))
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            with pytest.raises(CLXError, match=r"rows\.jsonl line 3"):
                list(executor.run_dataset(dataset))

    def test_bare_cr_cell_raises_clx_error_on_both_dispatch_paths(
        self, phone_engine, tmp_path
    ):
        # A bare "\r" in an unquoted cell is the csv module's error to
        # raise — but it must surface as a CLXError naming file and
        # line, identically inline and through the worker pool (both
        # split physical lines on "\n" only).
        path = tmp_path / "bad.csv"
        path.write_bytes(b"id,phone\n1,906-555-0000\n2,41\r5.555.9999\n")
        dataset = Dataset.resolve(str(path))
        for workers in (1, 2):
            with ShardedTableExecutor(
                {"phone": phone_engine}, ["id", "phone"], workers=workers
            ) as executor:
                with pytest.raises(CLXError, match=r"bad\.csv line 3: invalid CSV"):
                    list(executor.run_dataset(dataset))

    def test_lone_cr_separators_fail_identically_on_profile_and_apply(
        self, phone_engine, tmp_path
    ):
        # Every JSONL reader splits lines on "\n" only; a lone-"\r"
        # separated file is malformed the same way on both halves of
        # the pipeline — never "profiles but cannot apply".
        path = tmp_path / "cr.jsonl"
        path.write_bytes(b'{"id": "1", "phone": "a"}\r{"id": "2", "phone": "b"}\r')
        dataset = Dataset.resolve(str(path))
        with pytest.raises(ValidationError, match=r"cr\.jsonl line 1"):
            list(dataset.iter_values("phone"))
        with pytest.raises(ValidationError, match=r"cr\.jsonl line 1"):
            dataset.header()
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            with pytest.raises(ValidationError, match=r"cr\.jsonl line 1"):
                list(executor.run_dataset(dataset))

    def test_rejects_unknown_input_format(self, phone_engine, tmp_path):
        path = tmp_path / "rows.xml"
        path.write_text("<rows/>\n", encoding="utf-8")
        part = DatasetPart(path=path, format="xml", size=path.stat().st_size)
        with ShardedTableExecutor({"phone": phone_engine}, ["id", "phone"]) as executor:
            with pytest.raises(CLXError, match="unsupported partition format 'xml'"):
                list(executor.run_dataset([part]))


class TestRunDataset:
    def test_matches_the_serial_single_stream_reference(
        self, phone_engine, mixed_dataset
    ):
        dataset, values = mixed_dataset
        expected = _reference_csv(phone_engine, values)
        for workers in (1, 2, 3):
            with ShardedTableExecutor(
                {"phone": phone_engine}, ["id", "phone"], workers=workers
            ) as executor:
                encoded = executor.header_text() + "".join(
                    chunk for _, (chunk, _, _, _) in executor.run_dataset(dataset)
                )
            assert encoded == expected, f"workers={workers}"

    def test_shard_geometry_never_changes_the_bytes(self, phone_engine, mixed_dataset):
        dataset, values = mixed_dataset
        expected = _reference_csv(phone_engine, values)
        for shard_bytes in (64, 257, DEFAULT_APPLY_SHARD_BYTES):
            with ShardedTableExecutor(
                {"phone": phone_engine}, ["id", "phone"], workers=2
            ) as executor:
                encoded = executor.header_text() + "".join(
                    chunk
                    for _, (chunk, _, _, _) in executor.run_dataset(
                        dataset, shard_bytes=shard_bytes
                    )
                )
            assert encoded == expected, f"shard_bytes={shard_bytes}"

    def test_chunk_size_bounds_rows_per_transform_batch(
        self, phone_engine, tmp_path, monkeypatch
    ):
        # A byte-planned shard must still transform in chunk_size-line
        # batches (the knob `--chunk-size` maps to), not all at once.
        import repro.engine.parallel as parallel_module

        _write_csv(
            tmp_path / "data.csv",
            ["id", "phone"],
            [[index, "906.555.1234"] for index in range(50)],
        )
        dataset = Dataset.resolve(str(tmp_path / "data.csv"))
        batch_sizes = []
        original = parallel_module._transform_lines

        def recording(spec, engines, first_line, lines, source=None, in_format="csv"):
            batch_sizes.append(len(lines))
            return original(spec, engines, first_line, lines, source, in_format)

        monkeypatch.setattr(parallel_module, "_transform_lines", recording)
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1, chunk_size=8
        ) as executor:
            list(executor.run_dataset(dataset))
        assert batch_sizes and max(batch_sizes) <= 8

    def test_part_indexes_arrive_in_order(self, phone_engine, mixed_dataset):
        dataset, _ = mixed_dataset
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=2
        ) as executor:
            indexes = [
                index for index, _ in executor.run_dataset(dataset, shard_bytes=64)
            ]
        assert indexes == sorted(indexes)
        assert set(indexes) == {0, 1, 2}

    def test_quoted_embedded_newlines_survive_byte_sharding(self, phone_engine, tmp_path):
        rows = [["line one\nline two", "(906) 555-1234"]] * 9
        _write_csv(tmp_path / "messy.csv", ["note", "phone"], rows)
        dataset = Dataset.resolve(str(tmp_path / "messy.csv"))
        outputs = []
        for shard_bytes in (48, DEFAULT_APPLY_SHARD_BYTES):
            with ShardedTableExecutor(
                {"phone": phone_engine}, ["note", "phone"], workers=2
            ) as executor:
                outputs.append(
                    "".join(
                        chunk
                        for _, (chunk, _, _, _) in executor.run_dataset(
                            dataset, shard_bytes=shard_bytes
                        )
                    )
                )
        assert outputs[0] == outputs[1]
        decoded = list(csv.DictReader(io.StringIO("note,phone,phone_transformed\n" + outputs[0])))
        assert len(decoded) == 9
        assert all(row["note"] == "line one\nline two" for row in decoded)

    def test_sharded_csv_errors_name_exact_lines(self, phone_engine, tmp_path):
        lines = [f"{index},906-555-0000" for index in range(40)]
        lines[33] = "33,906-555-0000,stray"
        (tmp_path / "bad.csv").write_text(
            "id,phone\n" + "\n".join(lines) + "\n", encoding="utf-8"
        )
        dataset = Dataset.resolve(str(tmp_path / "bad.csv"))
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=2
        ) as executor:
            # Line 35: one header line + 34 data lines precede the bad row.
            with pytest.raises(CLXError, match=r"bad\.csv line 35"):
                list(executor.run_dataset(dataset, shard_bytes=64))

    def test_csv_header_drift_fails_loudly(self, phone_engine, tmp_path):
        _write_csv(tmp_path / "part-0.csv", ["id", "phone"], [[0, "x"]])
        _write_csv(tmp_path / "part-1.csv", ["phone", "id"], [["y", 1]])
        dataset = Dataset.resolve(str(tmp_path / "part-*.csv"))
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            with pytest.raises(CLXError, match=r"part-1\.csv.*header"):
                list(executor.run_dataset(dataset))


class TestApplyDatasetOrchestration:
    def test_requires_exactly_one_destination(self, phone_engine, mixed_dataset):
        dataset, _ = mixed_dataset
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            with pytest.raises(ValidationError, match="exactly one"):
                apply_dataset(executor, dataset)
            with pytest.raises(ValidationError, match="exactly one"):
                apply_dataset(
                    executor, dataset, output="a.csv", stream=io.StringIO()
                )

    def test_output_dir_writes_every_partition(
        self, phone_engine, mixed_dataset, tmp_path
    ):
        dataset, values = mixed_dataset
        outdir = tmp_path / "cleaned"
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=2
        ) as executor:
            result = apply_dataset(executor, dataset, output_dir=outdir)
        assert result.rows == len(values)
        assert result.parts == 3
        assert sorted(path.name for path in result.outputs) == [
            "part-0.csv",
            "part-1.csv",
            "part-2.csv",
        ]
        spliced = "".join(
            "".join((outdir / f"part-{index}.csv").read_text(encoding="utf-8")
                    .splitlines(keepends=True)[1:])
            for index in range(3)
        )
        assert "id,phone,phone_transformed\n" + spliced == _reference_csv(
            phone_engine, values
        )

    def test_empty_partition_still_writes_a_header_only_file(
        self, phone_engine, tmp_path
    ):
        _write_csv(tmp_path / "part-0.csv", ["id", "phone"], [[0, "906.555.1234"]])
        _write_csv(tmp_path / "part-1.csv", ["id", "phone"], [])
        dataset = Dataset.resolve(str(tmp_path / "part-*.csv"))
        outdir = tmp_path / "cleaned"
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            result = apply_dataset(executor, dataset, output_dir=outdir)
        assert sorted(path.name for path in result.outputs) == [
            "part-0.csv",
            "part-1.csv",
        ]
        assert (outdir / "part-1.csv").read_text(encoding="utf-8") == (
            "id,phone,phone_transformed\n"
        )

    def test_refuses_to_truncate_an_input_partition(self, phone_engine, mixed_dataset):
        dataset, _ = mixed_dataset
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            with pytest.raises(CLXError, match="destroy"):
                apply_dataset(executor, dataset, output=dataset.parts[0].path)

    def test_colliding_partition_names_are_refused(self, phone_engine, tmp_path):
        nested = tmp_path / "nested"
        nested.mkdir()
        _write_csv(tmp_path / "part.csv", ["id", "phone"], [[0, "x"]])
        _write_jsonl(nested / "part.jsonl", [{"id": 1, "phone": "y"}])
        dataset = Dataset.resolve(
            [str(tmp_path / "part.csv"), str(nested / "part.jsonl")]
        )
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            with pytest.raises(CLXError, match="same output file"):
                apply_dataset(executor, dataset, output_dir=tmp_path / "out")

    def test_partition_output_name_swaps_only_the_final_extension(self, tmp_path):
        _write_csv(tmp_path / "part.2024.csv", ["id"], [[1]])
        part = Dataset.resolve(str(tmp_path / "part.2024.csv")).parts[0]
        assert partition_output_name(part, "jsonl") == "part.2024.jsonl"
        assert partition_output_name(part, "csv") == "part.2024.csv"


class TestEngineAndSessionApplyDataset:
    def test_engine_apply_dataset_both_sink_formats(
        self, phone_engine, mixed_dataset, tmp_path
    ):
        dataset, values = mixed_dataset
        out_csv = tmp_path / "all.csv"
        result = phone_engine.apply_dataset(dataset, "phone", output=out_csv, workers=2)
        assert result.outputs == [out_csv]
        assert out_csv.read_text(encoding="utf-8") == _reference_csv(
            phone_engine, values
        )

        out_jsonl = tmp_path / "all.jsonl"
        phone_engine.apply_dataset(
            dataset, "phone", output=out_jsonl, out_format="jsonl", workers=2
        )
        decoded = [
            json.loads(line)
            for line in out_jsonl.read_text(encoding="utf-8").splitlines()
        ]
        assert [row["phone_transformed"] for row in decoded] == [
            phone_engine.run_one(value).output for value in values
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quoted_trailing_newline_cells_stay_unchanged_and_flagged(
        self, tmp_path, workers
    ):
        # A quoted CSV cell can end in "\n"; neither the branch nor the
        # target pattern covers it, so the cell must pass through
        # unchanged and be flagged rather than silently lose its newline.
        program = UniFiProgram(
            [
                Branch(
                    parse_pattern("<D>3'.'<D>4"),
                    AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]),
                )
            ]
        )
        engine = TransformEngine(CompiledProgram(program, parse_pattern("<D>3'-'<D>4")))
        values = ["555.0199\n", "555-0199\n", "555.0199"]
        source = _write_csv(tmp_path / "cells.csv", ["phone"], [[v] for v in values])
        destination = tmp_path / "out.csv"
        result = engine.apply_dataset(source, "phone", output=destination, workers=workers)
        assert result.flagged == 2
        with destination.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows == [
            ["phone", "phone_transformed"],
            ["555.0199\n", "555.0199\n"],
            ["555-0199\n", "555-0199\n"],
            ["555.0199", "555-0199"],
        ]

    def test_engine_apply_dataset_resolves_specs_and_indexes(
        self, phone_engine, tmp_path
    ):
        _write_csv(tmp_path / "data.csv", ["id", "phone"], [[0, "906.555.1234"]])
        buffer = io.StringIO()
        phone_engine.apply_dataset(
            str(tmp_path / "data.csv"), "1", stream=buffer, in_place=True, workers=1
        )
        assert buffer.getvalue() == "id,phone\n0,906-555-1234\n"

    def test_session_apply_dataset_end_to_end(self, tmp_path):
        raw, _ = phone_dataset(count=60, format_count=4, seed=3)
        session = CLXSession(raw)
        session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        _write_csv(
            tmp_path / "part-0.csv", ["id", "phone"],
            [[index, value] for index, value in enumerate(raw[:30])],
        )
        _write_jsonl(
            tmp_path / "part-1.jsonl",
            [{"id": index + 30, "phone": value} for index, value in enumerate(raw[30:])],
        )
        outdir = tmp_path / "cleaned"
        result = session.apply_dataset(
            str(tmp_path / "part-*"), "phone", output_dir=outdir,
            out_format="jsonl", workers=2,
        )
        assert result.rows == 60
        assert sorted(
            path.name for path in outdir.iterdir() if not path.name.startswith(".")
        ) == [
            "part-0.jsonl",
            "part-1.jsonl",
        ]
        engine = session.engine()
        decoded = [
            json.loads(line)
            for name in ("part-0.jsonl", "part-1.jsonl")
            for line in (outdir / name).read_text(encoding="utf-8").splitlines()
        ]
        assert [row["phone_transformed"] for row in decoded] == [
            engine.run_one(value).output for value in raw
        ]

    def test_sparse_jsonl_keys_profile_and_apply_alike(self, tmp_path):
        # Regression: idiomatic sparse JSONL — the schema is the union
        # of the leading part's keys, so a record introducing a key the
        # first record lacks must apply, not hard-fail, matching what
        # the profile side of the same dataset accepts.
        path = tmp_path / "sparse.jsonl"
        path.write_text(
            '{"id": "1"}\n{"id": "2", "phone": "906.555.1234"}\n',
            encoding="utf-8",
        )
        raw, _ = phone_dataset(count=40, format_count=4, seed=13)
        session = CLXSession(raw)
        session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        profiled = CLXSession.from_dataset(str(path), "id")  # profile side accepts
        assert profiled.hierarchy.total_rows == 2
        buffer = io.StringIO()
        result = session.apply_dataset(str(path), "phone", stream=buffer)
        assert result.rows == 2
        assert buffer.getvalue() == (
            "id,phone,phone_transformed\n"
            "1,,\n"
            "2,906.555.1234,906-555-1234\n"
        )

    def test_session_apply_dataset_validates_columns(self, tmp_path):
        raw, _ = phone_dataset(count=20, format_count=2, seed=9)
        session = CLXSession(raw)
        session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        _write_csv(tmp_path / "data.csv", ["id", "phone"], [[0, raw[0]]])
        with pytest.raises(ValidationError, match="at least one column"):
            session.apply_dataset(
                str(tmp_path / "data.csv"), [], stream=io.StringIO()
            )
