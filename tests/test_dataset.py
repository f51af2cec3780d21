"""Tests for the partitioned-dataset resolution layer."""

from __future__ import annotations

import csv
import json

import pytest

from repro.dataset import Dataset, resolve_dataset
from repro.util.errors import CLXError, ValidationError


def _write_csv(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_jsonl(path, rows):
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


@pytest.fixture
def partitioned(tmp_path):
    _write_csv(tmp_path / "part-1.csv", ["id", "phone"], [[1, "734-422-8073"]])
    _write_csv(tmp_path / "part-0.csv", ["id", "phone"], [[0, "(734) 645-8397"]])
    _write_jsonl(tmp_path / "part-2.jsonl", [{"id": 2, "phone": "734.236.3466"}])
    return tmp_path


class TestResolution:
    def test_glob_resolves_in_stable_sorted_order(self, partitioned):
        dataset = Dataset.resolve(str(partitioned / "part-*"))
        assert [part.name for part in dataset] == [
            "part-0.csv",
            "part-1.csv",
            "part-2.jsonl",
        ]
        assert [part.format for part in dataset] == ["csv", "csv", "jsonl"]

    def test_directory_takes_every_file(self, partitioned):
        dataset = Dataset.resolve(str(partitioned))
        assert len(dataset) == 3

    def test_multiple_specs_deduplicate(self, partitioned):
        dataset = Dataset.resolve(
            [
                str(partitioned / "part-0.csv"),
                str(partitioned / "part-*.csv"),
            ]
        )
        assert [part.name for part in dataset] == ["part-0.csv", "part-1.csv"]

    def test_literal_missing_path_is_an_error(self, tmp_path):
        with pytest.raises(CLXError, match="matches no file"):
            Dataset.resolve(str(tmp_path / "nope.csv"))

    def test_glob_matching_nothing_is_an_error(self, tmp_path):
        with pytest.raises(CLXError, match="matches no file"):
            Dataset.resolve(str(tmp_path / "part-*.csv"))

    def test_typoed_glob_is_not_silently_dropped(self, partitioned):
        # A zero-match glob must raise even when other specs matched —
        # silently narrowing the dataset would profile a partial column.
        with pytest.raises(CLXError, match="matches no file"):
            Dataset.resolve(
                [str(partitioned / "prat-*.csv"), str(partitioned / "part-0.csv")]
            )

    def test_directory_mode_skips_marker_and_hidden_files(self, partitioned):
        (partitioned / "_SUCCESS").write_text("", encoding="utf-8")
        (partitioned / ".part-0.csv.crc").write_text("x", encoding="utf-8")
        dataset = Dataset.resolve(str(partitioned))
        assert [part.name for part in dataset] == [
            "part-0.csv",
            "part-1.csv",
            "part-2.jsonl",
        ]
        dataset.check_column("phone")

    def test_marker_files_resolve_when_named_explicitly(self, partitioned):
        (partitioned / "_underscored.csv").write_text(
            "id,phone\n1,734\n", encoding="utf-8"
        )
        dataset = Dataset.resolve(str(partitioned / "_underscored.csv"))
        assert [part.name for part in dataset] == ["_underscored.csv"]

    def test_resolve_dataset_shorthand(self, partitioned):
        dataset = resolve_dataset(str(partitioned / "part-0.csv"))
        assert len(dataset) == 1
        assert dataset.describe() == "part-0.csv"

    def test_describe_summarizes_multiple_parts(self, partitioned):
        dataset = Dataset.resolve(str(partitioned / "part-*"))
        assert dataset.describe() == "part-0.csv (+2 more)"


class TestSchemaCheck:
    def test_passes_when_every_part_has_the_column(self, partitioned):
        Dataset.resolve(str(partitioned / "part-*")).check_column("phone")

    def test_names_the_part_missing_the_column(self, partitioned, tmp_path):
        _write_csv(tmp_path / "part-9.csv", ["id", "fax"], [[9, "x"]])
        dataset = Dataset.resolve(str(tmp_path / "part-*"))
        with pytest.raises(ValidationError, match=r"part-9\.csv.*not found"):
            dataset.check_column("phone")

    def test_jsonl_part_missing_the_key_is_named(self, tmp_path):
        _write_jsonl(tmp_path / "part-0.jsonl", [{"id": 0, "fax": "x"}])
        dataset = Dataset.resolve(str(tmp_path / "part-0.jsonl"))
        with pytest.raises(ValidationError, match=r"part-0\.jsonl.*not found"):
            dataset.check_column("phone")

    def test_jsonl_rejects_index_addressing(self, tmp_path):
        _write_jsonl(tmp_path / "part-0.jsonl", [{"phone": "x"}])
        dataset = Dataset.resolve(str(tmp_path / "part-0.jsonl"))
        with pytest.raises(ValidationError, match="by name"):
            dataset.check_column(0)

class TestValueStreaming:
    def test_streams_across_parts_in_order(self, partitioned):
        dataset = Dataset.resolve(str(partitioned / "part-*"))
        values = list(dataset.iter_values("phone"))
        assert values == ["(734) 645-8397", "734-422-8073", "734.236.3466"]

    def test_short_csv_rows_contribute_empty(self, tmp_path):
        (tmp_path / "short.csv").write_text("id,phone\n1,734\n2\n", encoding="utf-8")
        dataset = Dataset.resolve(str(tmp_path / "short.csv"))
        assert list(dataset.iter_values("phone")) == ["734", ""]

    def test_jsonl_null_and_missing_become_empty(self, tmp_path):
        _write_jsonl(
            tmp_path / "rows.jsonl",
            [{"phone": "734"}, {"phone": None}, {"id": 3}, {"phone": 906}],
        )
        dataset = Dataset.resolve(str(tmp_path / "rows.jsonl"))
        assert list(dataset.iter_values("phone")) == ["734", "", "", "906"]

    def test_invalid_json_line_is_named(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text('{"phone": "x"}\nnot json\n', encoding="utf-8")
        dataset = Dataset.resolve(str(tmp_path / "bad.jsonl"))
        with pytest.raises(ValidationError, match="line 2"):
            list(dataset.iter_values("phone"))

    def test_non_object_jsonl_row_is_rejected(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text("[1, 2]\n", encoding="utf-8")
        dataset = Dataset.resolve(str(tmp_path / "bad.jsonl"))
        with pytest.raises(ValidationError, match="objects"):
            list(dataset.iter_values("phone"))

    def test_jsonl_rejects_index_addressing(self, tmp_path):
        _write_jsonl(tmp_path / "rows.jsonl", [{"phone": "734"}])
        dataset = Dataset.resolve(str(tmp_path / "rows.jsonl"))
        with pytest.raises(ValidationError, match="by name"):
            list(dataset.iter_values(0))


class TestSessionFromDataset:
    def test_opens_a_profile_backed_session(self, partitioned):
        from repro.core.session import CLXSession

        session = CLXSession.from_dataset(str(partitioned / "part-*"), "phone")
        assert session.hierarchy.total_rows == 3
        session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        compiled = session.compile()
        outputs = compiled.run(["(906) 555-1234"]).outputs
        assert outputs == ["906-555-1234"]
