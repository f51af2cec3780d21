"""Tests for the IO backend registry seam.

Covers the loud-failure suffix dispatch (no more silent CSV fallback),
the pyarrow availability gate on columnar backends, non-UTF-8 handling
(abort names the byte; quarantine diverts the record), the bounded
memory of the JSONL block reader, the remote opener seam,
backend-identity resume keys, and the artifact registry's size-budget
LRU eviction.
"""

from __future__ import annotations

import importlib.util
import io
import json
import tracemalloc

import pytest

from repro.bench.phone import phone_dataset
from repro.cli import main
from repro.core.session import CLXSession
from repro.dataset import Dataset
from repro.dataset.backends import (
    PartOpener,
    backend_by_name,
    backend_names,
    pyarrow_available,
    register_opener,
    sink_format_names,
    supported_suffixes,
    unregister_opener,
)
from repro.dataset.backends.columnar import ColumnarWriter
from repro.engine.cache import ArtifactRegistry, RegistryEntry
from repro.engine.parallel import ShardedTableExecutor, apply_dataset
from repro.engine.resilience import RunManifest
from repro.engine.serialize import encode_rows_jsonl
from repro.util.errors import CLXError

_FSSPEC_PRESENT = importlib.util.find_spec("fsspec") is not None

CSV_BYTES = b"id,phone\n0,906.555.1234\n1,(906) 555-9999\n2,906 555 0000\n"


@pytest.fixture(scope="module")
def phone_engine():
    raw, _ = phone_dataset(count=120, format_count=4, seed=13)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    return session.engine()


def _apply_to_file(engine, dataset, target, workers=1, shard_bytes=1 << 20, **kwargs):
    with ShardedTableExecutor(
        {"phone": engine}, ["id", "phone"], workers=workers, **kwargs
    ) as executor:
        return apply_dataset(
            executor,
            dataset,
            output=target,
            shard_bytes=shard_bytes,
            quarantine_dir=kwargs.get("on_error") == "quarantine"
            and target.parent / "quarantine"
            or None,
        )


class TestSuffixDispatch:
    def test_unknown_suffix_fails_loudly(self, tmp_path):
        rogue = tmp_path / "part-0.txt"
        rogue.write_bytes(CSV_BYTES)
        with pytest.raises(CLXError) as excinfo:
            Dataset.resolve(str(rogue))
        message = str(excinfo.value)
        assert "part-0.txt" in message
        assert "'.txt'" in message
        assert ".csv" in message and ".jsonl" in message

    def test_extensionless_file_requires_assume_csv(self, tmp_path):
        bare = tmp_path / "part-0"
        bare.write_bytes(CSV_BYTES)
        with pytest.raises(CLXError, match="--assume-csv"):
            Dataset.resolve(str(bare))
        dataset = Dataset.resolve(str(bare), assume_csv=True)
        assert dataset.parts[0].format == "csv"
        assert list(dataset.iter_values("phone"))[0] == "906.555.1234"

    def test_assume_csv_does_not_override_known_suffixes(self, tmp_path):
        rows = tmp_path / "part-0.jsonl"
        rows.write_text('{"id": 0, "phone": "906.555.1234"}\n', encoding="utf-8")
        dataset = Dataset.resolve(str(rows), assume_csv=True)
        assert dataset.parts[0].format == "jsonl"

    def test_unknown_format_name_fails(self):
        with pytest.raises(CLXError, match="unsupported partition format 'xml'"):
            backend_by_name("xml")

    def test_registry_surfaces(self):
        assert {"csv", "jsonl", "parquet", "arrow"} <= set(backend_names())
        assert {"csv", "jsonl", "parquet", "arrow"} <= set(sink_format_names())
        assert {".csv", ".jsonl", ".ndjson", ".parquet", ".arrow"} <= set(
            supported_suffixes()
        )

    def test_cli_exposes_assume_csv(self, tmp_path, capsys):
        bare = tmp_path / "part-0"
        bare.write_bytes(CSV_BYTES)
        assert main(["profile", str(bare), "--column", "phone"]) == 2
        assert "--assume-csv" in capsys.readouterr().err
        assert (
            main(["profile", str(bare), "--column", "phone", "--assume-csv"]) == 0
        )
        assert "906" in capsys.readouterr().out


@pytest.mark.skipif(
    pyarrow_available(), reason="gate behavior only observable without pyarrow"
)
class TestColumnarGate:
    def test_parquet_part_without_pyarrow_names_the_extra(self, tmp_path):
        part = tmp_path / "part-0.parquet"
        part.write_bytes(b"PAR1 not really parquet")
        dataset = Dataset.resolve(str(part))
        assert dataset.parts[0].format == "parquet"
        with pytest.raises(CLXError, match=r"pyarrow.*repro-clx\[arrow\]"):
            dataset.header()

    def test_parquet_sink_without_pyarrow_fails_at_construction(self, phone_engine):
        with pytest.raises(CLXError, match="pyarrow"):
            ShardedTableExecutor(
                {"phone": phone_engine}, ["id", "phone"], out_format="parquet"
            ).close()

    def test_cli_format_parquet_reports_the_gate(self, tmp_path, capsys):
        artifact = tmp_path / "noop.clx.json"
        data = tmp_path / "rows.csv"
        data.write_bytes(CSV_BYTES)
        # Build a real artifact through the public compile path.
        assert (
            main(
                [
                    "compile",
                    str(data),
                    "--column",
                    "phone",
                    "--target-pattern",
                    "<D>3'-'<D>3'-'<D>4",
                    "--output",
                    str(artifact),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "apply",
                str(artifact),
                str(data),
                "--format",
                "parquet",
                "--output",
                str(tmp_path / "out.parquet"),
            ]
        )
        assert code == 2
        assert "pyarrow" in capsys.readouterr().err


class TestColumnarWriterWireSplit:
    def test_unicode_line_separators_stay_inside_their_record(self):
        # Built without __init__, so no pyarrow is needed: write() only
        # decodes and buffers rows until flush_rows of them are pending.
        writer = object.__new__(ColumnarWriter)
        writer._fields = ("a",)
        writer._rows = []
        writer._flush_rows = ColumnarWriter.FLUSH_ROWS
        cells = [["x\u2028y"], ["z\x85w"], ["p\u2029q"], ["plain"]]
        writer.write(encode_rows_jsonl(["a"], cells))
        assert writer._rows == cells


class TestNonUtf8Bytes:
    def test_abort_names_file_line_and_byte_offset(self, phone_engine, tmp_path):
        part = tmp_path / "part-0.csv"
        part.write_bytes(b"id,phone\n0,\xff06.555.1234\n")
        dataset = Dataset.resolve(str(part))
        with pytest.raises(
            CLXError,
            match=r"part-0\.csv line 2: invalid UTF-8 byte 0xff at byte offset 11",
        ):
            _apply_to_file(phone_engine, dataset, tmp_path / "out.csv")

    def test_quarantine_diverts_exactly_the_bad_record(self, phone_engine, tmp_path):
        part = tmp_path / "part-0.csv"
        part.write_bytes(
            b"id,phone\n0,906.555.1234\n1,\xff06.555.9999\n2,906.555.0000\n"
        )
        dataset = Dataset.resolve(str(part))
        target = tmp_path / "out.csv"
        result = _apply_to_file(
            phone_engine, dataset, target, on_error="quarantine"
        )
        assert result.quarantined == 1
        assert result.rows == 2
        text = target.read_text(encoding="utf-8")
        assert "906-555-1234" in text and "906-555-0000" in text
        (quarantine_file,) = result.quarantine_files
        record = json.loads(quarantine_file.read_text(encoding="utf-8"))
        assert "invalid UTF-8 byte 0xff" in record["error"]
        assert record["line"] == 3


class TestJsonlBlockReader:
    def test_serial_pass_memory_is_bounded(self, tmp_path):
        # A serial pass reads each part as one whole-part shard, so a
        # read() of the whole shard would hold every byte of it at once.
        notes = ["routine visit", 'follow-up, "urgent"', "no show, rebook"]
        part = tmp_path / "big.jsonl"
        rows = 0
        with part.open("w", encoding="utf-8") as handle:
            while handle.tell() < 8 << 20:
                record = {
                    "id": str(rows),
                    "name": "Doe, J.",
                    "note": notes[rows % 3] * 4,
                    "code": f"CPT-{10_000 + rows % 2_000}",
                }
                handle.write(json.dumps(record) + "\n")
                rows += 1
        dataset = Dataset.resolve(str(part))
        tracemalloc.start()
        try:
            values = sum(1 for _ in dataset.iter_values("code"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values == rows
        assert peak < 4 << 20, f"peak {peak / (1 << 20):.2f} MiB over an 8 MiB part"


class TestRemoteOpeners:
    @pytest.fixture
    def mem_store(self):
        store = {}
        register_opener(
            "mem",
            PartOpener(
                open=lambda url: io.BytesIO(store[url]),
                size=lambda url: len(store[url]),
            ),
        )
        yield store
        unregister_opener("mem")

    def test_mem_scheme_matches_local_bytes(self, phone_engine, tmp_path, mem_store):
        local = tmp_path / "part-0.csv"
        local.write_bytes(CSV_BYTES)
        mem_store["mem://bucket/part-0.csv"] = CSV_BYTES

        local_out = tmp_path / "local.csv"
        remote_out = tmp_path / "remote.csv"
        _apply_to_file(
            phone_engine, Dataset.resolve(str(local)), local_out,
            workers=2, shard_bytes=16,
        )
        _apply_to_file(
            phone_engine,
            Dataset.resolve("mem://bucket/part-0.csv"),
            remote_out,
            workers=2,
            shard_bytes=16,
        )
        assert remote_out.read_bytes() == local_out.read_bytes()

    def test_remote_parts_profile_like_local(self, tmp_path, mem_store):
        mem_store["mem://bucket/part-0.csv"] = CSV_BYTES
        dataset = Dataset.resolve("mem://bucket/part-0.csv")
        assert dataset.parts[0].size == len(CSV_BYTES)
        assert list(dataset.iter_values("phone")) == [
            "906.555.1234",
            "(906) 555-9999",
            "906 555 0000",
        ]

    def test_file_url_resolves_to_the_local_path(self, tmp_path):
        local = tmp_path / "part-0.csv"
        local.write_bytes(CSV_BYTES)
        via_url = Dataset.resolve(local.as_uri())
        via_path = Dataset.resolve(str(local))
        assert [part.locator for part in via_url] == [
            part.locator for part in via_path
        ]
        assert via_url.parts[0].url is None  # file:// is the local fast path

    @pytest.mark.skipif(
        _FSSPEC_PRESENT, reason="fsspec would serve the scheme for real"
    )
    def test_unregistered_scheme_names_the_remote_extra(self):
        with pytest.raises(CLXError, match=r"fsspec.*repro-clx\[remote\]"):
            Dataset.resolve("s3://bucket/part-0.csv")


class TestRunManifestBackendIdentity:
    def test_entry_written_under_another_backend_is_distrusted(self, tmp_path):
        (tmp_path / "part-0.csv").write_text("done", encoding="utf-8")
        manifest = RunManifest(tmp_path, out_format="csv")
        manifest.mark(
            "part-0.csv", "src/part-0", 64, rows=3, flagged=0, quarantined=0,
            backend="csv",
        )
        resumed = RunManifest(tmp_path, out_format="csv", resume=True)
        assert resumed.completed("part-0.csv", "src/part-0", 64, backend="csv")
        assert resumed.completed("part-0.csv", "src/part-0", 64, backend="jsonl") is None


def _seed_registry(tmp_path, sizes):
    """A registry with one artifact per (key, size, last_used) triple."""
    registry = ArtifactRegistry(tmp_path)
    for key, (size, last_used) in sizes.items():
        name = f"{key}.clx.json"
        (tmp_path / name).write_bytes(b"x" * size)
        registry.record(
            RegistryEntry(
                key=key,
                fingerprint="fp",
                target="t",
                created_at=1_000.0,
                last_used_at=last_used,
                artifact=name,
            )
        )
    return registry


class TestGcMaxBytes:
    def test_evicts_least_recently_used_until_under_budget(self, tmp_path):
        registry = _seed_registry(
            tmp_path, {"aa": (100, 2_000.0), "bb": (100, 3_000.0), "cc": (100, 4_000.0)}
        )
        report = registry.gc(max_bytes=250)
        assert report["removed_entries"] == ["aa"]
        assert report["removed_files"] == ["aa.clx.json"]
        assert not (tmp_path / "aa.clx.json").exists()
        assert (tmp_path / "bb.clx.json").exists()
        assert {entry.key for entry in registry.entries()} == {"bb", "cc"}

    def test_zero_budget_evicts_everything(self, tmp_path):
        registry = _seed_registry(tmp_path, {"aa": (10, 2_000.0), "bb": (10, 0.0)})
        report = registry.gc(max_bytes=0)
        assert report["removed_entries"] == ["aa", "bb"]
        assert registry.entries() == []

    def test_budget_large_enough_keeps_everything(self, tmp_path):
        registry = _seed_registry(tmp_path, {"aa": (10, 2_000.0), "bb": (10, 3_000.0)})
        report = registry.gc(max_bytes=20)
        assert report["removed_entries"] == []
        assert len(registry.entries()) == 2

    def test_falls_back_to_created_at_for_never_used_rows(self, tmp_path):
        # bb was created later but never hit; aa's hit stamp is older
        # than bb's creation, so aa is the LRU row.
        registry = ArtifactRegistry(tmp_path)
        for key, created, used in (("aa", 500.0, 800.0), ("bb", 900.0, 0.0)):
            name = f"{key}.clx.json"
            (tmp_path / name).write_bytes(b"x" * 100)
            registry.record(
                RegistryEntry(
                    key=key, fingerprint="fp", target="t",
                    created_at=created, last_used_at=used, artifact=name,
                )
            )
        assert registry.gc(max_bytes=100)["removed_entries"] == ["aa"]

    @pytest.mark.parametrize("bad", [-1, True, 1.5, float("nan")])
    def test_rejects_invalid_budgets(self, tmp_path, bad):
        registry = ArtifactRegistry(tmp_path)
        with pytest.raises(CLXError, match="max_bytes must be an integer >= 0"):
            registry.gc(max_bytes=bad)

    def test_corrupt_manifest_deletes_nothing(self, tmp_path):
        registry = _seed_registry(tmp_path, {"aa": (10, 2_000.0)})
        registry.path.write_text("{not json", encoding="utf-8")
        report = registry.gc(max_bytes=0)
        assert report == {"removed_entries": [], "removed_files": []}
        assert (tmp_path / "aa.clx.json").exists()

    def test_cli_rejects_max_bytes_outside_gc(self, tmp_path, capsys):
        code = main(
            ["artifacts", "list", "--cache-dir", str(tmp_path), "--max-bytes", "1"]
        )
        assert code == 2
        assert "--max-bytes only applies to 'artifacts gc'" in capsys.readouterr().err

    def test_cli_gc_max_bytes(self, tmp_path, capsys):
        _seed_registry(tmp_path, {"aa": (100, 2_000.0), "bb": (100, 3_000.0)})
        code = main(
            [
                "artifacts", "gc", "--cache-dir", str(tmp_path),
                "--max-bytes", "100", "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed_entries"] == ["aa"]
        assert not (tmp_path / "aa.clx.json").exists()
