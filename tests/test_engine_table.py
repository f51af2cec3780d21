"""Tests for the one-pass, pipelined table apply.

Two equivalence suites anchor this file: across every synthesizable
task of the 47-task benchmark suite, (a) the streaming
``transform_table_iter`` and the worker fan-out of ``transform_table``
must equal the in-process batch result row for row, and (b) the
encoded chunks of :class:`ShardedTableExecutor` must decode to exactly
what ``transform_table`` produces — pipelining is an execution detail,
never a semantics change.
"""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.bench.phone import phone_dataset
from repro.bench.suite import benchmark_suite
from repro.core.session import CLXSession
from repro.dataset import Dataset
from repro.engine.executor import TransformEngine
from repro.engine.parallel import ShardedTableExecutor
from repro.util import faults
from repro.util.errors import CLXError, SynthesisError, ValidationError


def _engines_for_suite(limit=None):
    pairs = []
    for task in benchmark_suite():
        session = CLXSession(task.inputs)
        session.label_target(task.target_pattern())
        try:
            engine = session.engine()
        except SynthesisError:
            continue
        pairs.append((task, engine))
        if limit is not None and len(pairs) >= limit:
            break
    return pairs


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
    return Dataset.resolve(str(path))


def _write_lines(path, header, lines):
    """A CSV file from a header row plus raw data lines, verbatim."""
    path.write_text(",".join(header) + "\n" + "".join(lines), encoding="utf-8")
    return Dataset.resolve(str(path))


def _chunks(executor, dataset, shard_bytes=1 << 20):
    return [chunk for _, chunk in executor.run_dataset(dataset, shard_bytes=shard_bytes)]


def _encoded(chunks):
    return "".join(chunk.text for chunk in chunks)


class TestSuiteEquivalence:
    def test_iter_and_parallel_match_batch_across_the_suite(self):
        pairs = _engines_for_suite()
        assert len(pairs) >= 40  # almost all of the 47 tasks synthesize
        for task, engine in pairs:
            rows = [{"id": str(index), "value": value} for index, value in enumerate(task.inputs)]
            batch = TransformEngine.transform_table(rows, {"value": engine})
            streamed = list(
                TransformEngine.transform_table_iter(iter(rows), {"value": engine}, chunk_size=7)
            )
            assert streamed == batch, task.task_id

    def test_sharded_chunks_decode_to_batch_output_across_the_suite(self, tmp_path):
        # workers=1 runs the identical per-shard pipeline inline (no
        # pool), so the whole suite is cheap; the parallel run below
        # covers pool fan-out semantics at scale.
        for task, engine in _engines_for_suite():
            rows = [{"id": str(index), "value": value} for index, value in enumerate(task.inputs)]
            batch = TransformEngine.transform_table(rows, {"value": engine})
            dataset = _write_csv(
                tmp_path / f"{task.task_id}.csv",
                ["id", "value"],
                [[row["id"], row["value"]] for row in rows],
            )
            with ShardedTableExecutor(
                {"value": engine},
                ["id", "value"],
                output_columns={"value": "value"},
                workers=1,
                chunk_size=5,
            ) as executor:
                encoded = _encoded(_chunks(executor, dataset))
            decoded = list(csv.DictReader(io.StringIO(executor.header_text() + encoded)))
            assert decoded == [
                {"id": row["id"], "value": row["value"]} for row in batch
            ], task.task_id

    def test_worker_fan_out_matches_batch(self, phone_engine):
        values, _ = phone_dataset(count=900, format_count=4, seed=23)
        rows = [{"id": str(index), "phone": value} for index, value in enumerate(values)]
        batch = TransformEngine.transform_table(rows, {"phone": phone_engine})
        parallel = TransformEngine.transform_table(
            rows, {"phone": phone_engine}, workers=2, chunk_size=64
        )
        assert parallel == batch


class TestTransformTableIter:
    def test_streams_lazily(self, phone_engine):
        pulled = []

        def source():
            for index in range(500):
                pulled.append(index)
                yield {"phone": "734-422-8073"}

        iterator = TransformEngine.transform_table_iter(
            source(), {"phone": phone_engine}, chunk_size=10
        )
        next(iterator)
        assert len(pulled) <= 20

    def test_validates_programs_and_chunk_size_eagerly(self, phone_engine):
        with pytest.raises(ValidationError):
            TransformEngine.transform_table_iter([], {"phone": "nope"})
        with pytest.raises(ValidationError):
            TransformEngine.transform_table_iter([], {"phone": phone_engine}, chunk_size=0)

    def test_missing_column_names_global_row_index(self, phone_engine):
        rows = [{"phone": "734-422-8073"}] * 5 + [{"other": "x"}]
        iterator = TransformEngine.transform_table_iter(
            iter(rows), {"phone": phone_engine}, chunk_size=2
        )
        with pytest.raises(ValidationError, match="row 5"):
            list(iterator)

    def test_transform_table_rejects_bad_workers(self, phone_engine):
        with pytest.raises(ValidationError):
            TransformEngine.transform_table([], {"phone": phone_engine}, workers=0)


class TestShardedTableExecutor:
    def test_multi_column_one_pass(self, phone_engine, tmp_path):
        values, _ = phone_dataset(count=40, format_count=4, seed=29)
        header = ["a", "b"]
        data = [[values[i], values[i + 1]] for i in range(0, 40, 2)]
        dataset = _write_csv(tmp_path / "data.csv", header, data)
        with ShardedTableExecutor(
            {"a": phone_engine, "b": phone_engine}, header, workers=2, chunk_size=4
        ) as executor:
            encoded = _encoded(_chunks(executor, dataset, shard_bytes=128))
        rows = list(csv.DictReader(io.StringIO(executor.header_text() + encoded)))
        assert set(rows[0]) == {"a", "b", "a_transformed", "b_transformed"}
        for source, row in zip(data, rows):
            assert row["a_transformed"] == phone_engine.run_one(source[0]).output
            assert row["b_transformed"] == phone_engine.run_one(source[1]).output

    def test_jsonl_chunks(self, phone_engine, tmp_path):
        header = ["id", "phone"]
        data = [["1", "(906) 555-1234"], ["2", "906.555.9999"]]
        dataset = _write_csv(tmp_path / "data.csv", header, data)
        with ShardedTableExecutor(
            {"phone": phone_engine}, header, out_format="jsonl", workers=1
        ) as executor:
            assert executor.header_text() == ""
            (chunk,) = _chunks(executor, dataset)
        assert chunk.rows == 2 and chunk.flagged == 0
        objects = [json.loads(line) for line in chunk.text.splitlines()]
        assert objects[0] == {
            "id": "1",
            "phone": "(906) 555-1234",
            "phone_transformed": "906-555-1234",
        }

    def test_quoted_embedded_newlines_survive_chunking(self, phone_engine, tmp_path):
        header = ["note", "phone"]
        data = [['line one\nline two', "(906) 555-1234"]] * 7
        dataset = _write_csv(tmp_path / "data.csv", header, data)
        with ShardedTableExecutor(
            {"phone": phone_engine}, header, workers=1, chunk_size=1
        ) as executor:
            chunks = _chunks(executor, dataset)
        assert sum(chunk.rows for chunk in chunks) == 7
        decoded = list(csv.DictReader(io.StringIO(executor.header_text() + _encoded(chunks))))
        assert all(row["note"] == "line one\nline two" for row in decoded)
        assert all(row["phone_transformed"] == "906-555-1234" for row in decoded)

    def test_stray_quotes_in_unquoted_cells_are_data_not_delimiters(
        self, phone_engine, tmp_path
    ):
        # A lone inch-mark in an unquoted cell must not fool the record
        # chunker: csv treats quotes as special only at field start.
        header = ["note", "phone"]
        lines = [
            '6" nail,"(906) 555-1234"\n',
            '"begin\nend",906.555.9999\n',
            'a,906-555-0000\n',
        ]
        dataset = _write_lines(tmp_path / "data.csv", header, lines)
        with ShardedTableExecutor(
            {"phone": phone_engine}, header, workers=1, chunk_size=1
        ) as executor:
            encoded = executor.header_text() + _encoded(_chunks(executor, dataset))
        decoded = list(csv.DictReader(io.StringIO(encoded)))
        assert [row["note"] for row in decoded] == ['6" nail', "begin\nend", "a"]
        assert [row["phone_transformed"] for row in decoded] == [
            "906-555-1234",
            "906-555-9999",
            "906-555-0000",
        ]

    def test_lone_stray_quote_does_not_latch_chunking_open(
        self, phone_engine, tmp_path, monkeypatch
    ):
        # A single odd-quote line must not glue the rest of the file
        # into one unbounded transform batch.
        import repro.engine.parallel as parallel_module

        lines = ['6" nail,906.555.9999\n'] + ['a,906-555-0000\n'] * 9
        dataset = _write_lines(tmp_path / "data.csv", ["note", "phone"], lines)
        batch_sizes = []
        original = parallel_module._transform_lines

        def recording(spec, engines, first_line, lines, source=None, in_format="csv"):
            batch_sizes.append(len(lines))
            return original(spec, engines, first_line, lines, source, in_format)

        monkeypatch.setattr(parallel_module, "_transform_lines", recording)
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["note", "phone"], workers=1, chunk_size=2
        ) as executor:
            chunks = _chunks(executor, dataset)
        assert batch_sizes == [2] * 5  # 10 rows at chunk_size=2, no latching
        assert sum(chunk.rows for chunk in chunks) == 10

    def test_ragged_row_raises_with_line_number(self, phone_engine, tmp_path):
        lines = ["1,734-422-8073\n", "2,906-555-1234,stray\n"]
        dataset = _write_lines(tmp_path / "data.csv", ["id", "phone"], lines)
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            with pytest.raises(CLXError, match=r"data\.csv line 3"):
                _chunks(executor, dataset)

    def test_flagged_cells_are_counted(self, phone_engine, tmp_path):
        lines = ["1,N/A?!\n", "2,906.555.9999\n"]
        dataset = _write_lines(tmp_path / "data.csv", ["id", "phone"], lines)
        with ShardedTableExecutor(
            {"phone": phone_engine}, ["id", "phone"], workers=1
        ) as executor:
            (chunk,) = _chunks(executor, dataset)
        assert chunk.rows == 2 and chunk.flagged == 1

    def test_rejects_bad_configuration(self, phone_engine):
        with pytest.raises(ValidationError):
            ShardedTableExecutor({}, ["a"])
        with pytest.raises(ValidationError, match="not found"):
            ShardedTableExecutor({"missing": phone_engine}, ["a"])
        with pytest.raises(ValidationError, match="already exists"):
            ShardedTableExecutor(
                {"a": phone_engine}, ["a", "b"], output_columns={"a": "b"}
            )
        with pytest.raises(ValidationError):
            ShardedTableExecutor({"a": phone_engine}, ["a"], out_format="xml")
        with pytest.raises(ValidationError):
            ShardedTableExecutor({"a": phone_engine}, ["a"], workers=0)
        with pytest.raises(ValidationError):
            ShardedTableExecutor({"a": phone_engine}, ["a"], chunk_size=0)

    def test_parallel_output_equals_serial_output(self, phone_engine, tmp_path):
        values, _ = phone_dataset(count=400, format_count=4, seed=31)
        header = ["id", "phone"]
        data = [[str(index), value] for index, value in enumerate(values)]
        dataset = _write_csv(tmp_path / "data.csv", header, data)

        def run(workers):
            with ShardedTableExecutor(
                {"phone": phone_engine}, header, workers=workers, chunk_size=16
            ) as executor:
                return _encoded(_chunks(executor, dataset, shard_bytes=512))

        assert run(1) == run(2)

    def test_dead_worker_raises_clx_error_instead_of_hanging(
        self, phone_engine, tmp_path, monkeypatch
    ):
        dataset = _write_csv(
            tmp_path / "data.csv",
            ["id", "phone"],
            [[index, "734-422-8073"] for index in range(40)],
        )
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.shard:crash:*")
        faults.reset()
        try:
            with ShardedTableExecutor(
                {"phone": phone_engine}, ["id", "phone"], workers=2, chunk_size=4
            ) as executor:
                with pytest.raises(CLXError, match="worker process died"):
                    _chunks(executor, dataset, shard_bytes=128)
        finally:
            monkeypatch.delenv(faults.FAULTS_ENV)
            faults.reset()


class TestSessionApplyTable:
    def test_applies_the_sessions_program_to_named_columns(self):
        raw, _ = phone_dataset(count=80, format_count=4, seed=37)
        session = CLXSession(raw)
        session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        rows = [{"phone": value, "backup": value} for value in raw[:20]]
        out = session.apply_table(rows, ["phone", "backup"])
        engine = session.engine()
        for source, row in zip(raw[:20], out):
            assert row["phone"] == engine.run_one(source).output
            assert row["backup"] == row["phone"]

    def test_single_column_shorthand_and_validation(self):
        raw, _ = phone_dataset(count=40, format_count=4, seed=41)
        session = CLXSession(raw)
        session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        out = session.apply_table([{"phone": raw[0]}], "phone")
        assert out[0]["phone"] == session.engine().run_one(raw[0]).output
        with pytest.raises(ValidationError):
            session.apply_table([], [])
