"""Regression tests for the CLI's large/ragged-CSV and UX bug fixes."""

from __future__ import annotations

import csv
import sys

import pytest

from repro.cli import main
from repro.clustering.cluster import PatternCluster
from repro.core.session import CLXSession
from repro.patterns.pattern import Pattern
from repro.tokens.tokenizer import tokenize
from repro.util.errors import ValidationError


@pytest.fixture
def phone_csv(tmp_path):
    path = tmp_path / "phones.csv"
    rows = [
        {"name": "A", "phone": "(734) 645-8397"},
        {"name": "B", "phone": "734.236.3466"},
        {"name": "C", "phone": "734-422-8073"},
    ]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=["name", "phone"])
        writer.writeheader()
        writer.writerows(rows)
    return path


@pytest.fixture
def ragged_csv(tmp_path):
    """A CSV whose third data row has more cells than the header."""
    path = tmp_path / "ragged.csv"
    path.write_text(
        "name,phone\n"
        "A,(734) 645-8397\n"
        "B,734.236.3466\n"
        "C,734-422-8073,stray,cells\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def artifact(phone_csv, tmp_path):
    path = tmp_path / "phone.clx.json"
    code = main(
        [
            "compile", str(phone_csv), "--column", "phone",
            "--target-pattern", "<D>3'-'<D>3'-'<D>4",
            "--output", str(path),
        ]
    )
    assert code == 0
    return path


class TestRaggedCsv:
    def test_transform_names_the_offending_row(self, ragged_csv, capsys):
        code = main(
            [
                "transform", str(ragged_csv), "--column", "phone",
                "--target-pattern", "<D>3'-'<D>3'-'<D>4",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "line 4" in err
        assert "4 cells" in err and "2 columns" in err

    def test_apply_names_the_offending_row(self, artifact, ragged_csv, capsys):
        code = main(["apply", str(artifact), str(ragged_csv)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 4" in err
        # No opaque DictWriter ValueError traceback.
        assert "dict contains fields" not in err

    def test_profile_tolerates_ragged_rows(self, ragged_csv, capsys):
        # Read-only commands have nothing to corrupt: the profiled column
        # is still well-defined, so they keep working.
        code = main(["profile", str(ragged_csv), "--column", "phone"])
        assert code == 0
        assert "<D>3" in capsys.readouterr().out

    def test_short_rows_still_pass(self, artifact, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("name,phone\nA,(734) 645-8397\nB\n", encoding="utf-8")
        code = main(["apply", str(artifact), str(path)])
        captured = capsys.readouterr()
        assert code in (0, 1)  # short row profiles as "", possibly flagged
        assert "734-645-8397" in captured.out


class TestSampleCount:
    def test_sample_zero_returns_no_values(self):
        cluster = PatternCluster(pattern=Pattern(tokenize("123")), values=["123", "456"])
        assert cluster.sample(0) == []
        assert cluster.sample(-1) == []
        assert cluster.sample(1) == ["123"]

    def test_profile_samples_zero_prints_no_examples(self, phone_csv, capsys):
        code = main(["profile", str(phone_csv), "--samples", "0", "--column", "phone"])
        out = capsys.readouterr().out
        assert code == 0
        assert "<D>3" in out  # patterns still listed
        assert "734" not in out.replace("<D>3", "")  # but no sample values

    def test_negative_samples_is_an_error(self, phone_csv, capsys):
        code = main(["profile", str(phone_csv), "--samples", "-2", "--column", "phone"])
        assert code == 2
        assert "--samples" in capsys.readouterr().err


class TestGeneralizeRange:
    @pytest.mark.parametrize("value", ["-1", "4", "7"])
    def test_cli_rejects_out_of_range_values(self, phone_csv, value, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "transform", str(phone_csv), "--column", "phone",
                    "--target-example", "734-422-8073",
                    "--generalize", value,
                ]
            )
        assert "invalid choice" in capsys.readouterr().err

    def test_compile_rejects_out_of_range_values(self, phone_csv, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "compile", str(phone_csv), "--column", "phone",
                    "--target-example", "734-422-8073",
                    "--generalize", "9",
                ]
            )
        assert "invalid choice" in capsys.readouterr().err

    def test_library_raises_instead_of_clamping(self):
        session = CLXSession(["734-422-8073"])
        with pytest.raises(ValidationError, match="generalize"):
            session.label_target_from_string("734-422-8073", generalize=7)
        with pytest.raises(ValidationError, match="generalize"):
            session.label_target_from_string("734-422-8073", generalize=-1)

    def test_all_in_range_values_work(self):
        session = CLXSession(["734-422-8073"])
        notations = {
            generalize: session.label_target_from_string(
                "734-422-8073", generalize=generalize
            ).notation()
            for generalize in range(4)
        }
        assert notations[0] == "<D>3'-'<D>3'-'<D>4"
        assert notations[1] == "<D>+'-'<D>+'-'<D>+"
        assert len(set(notations.values())) >= 3  # rounds actually applied


class _BrokenStdout:
    """A stdout stand-in whose pipe reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestBrokenPipe:
    def test_apply_exits_quietly_with_sigpipe_code(self, artifact, phone_csv, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _BrokenStdout())
        code = main(["apply", str(artifact), str(phone_csv)])
        assert code == 141  # 128 + SIGPIPE

    def test_profile_exits_quietly_with_sigpipe_code(self, phone_csv, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _BrokenStdout())
        code = main(["profile", str(phone_csv), "--column", "phone"])
        assert code == 141


class TestApplyWorkers:
    def test_parallel_apply_matches_single_process_output(self, artifact, tmp_path):
        source = tmp_path / "big.csv"
        with source.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["phone"])
            for index in range(300):
                writer.writerow([f"906.{index % 900 + 100}.{index % 9000 + 1000}"])
        single = tmp_path / "single.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(["apply", str(artifact), str(source), "--output", str(single)]) == 0
        assert (
            main(
                [
                    "apply", str(artifact), str(source),
                    "--workers", "2", "--chunk-size", "32",
                    "--output", str(parallel),
                ]
            )
            == 0
        )
        assert parallel.read_text(encoding="utf-8") == single.read_text(encoding="utf-8")

    def test_workers_must_be_positive(self, artifact, phone_csv, capsys):
        code = main(["apply", str(artifact), str(phone_csv), "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err


class TestBadDelimiter:
    """A bad ``--delimiter`` exits 2 naming the flag, on every subcommand.

    Before the check, ``;;`` or an empty value died in the csv module
    with a raw ``TypeError`` traceback, and ``"`` silently misparsed the
    header into a misleading "column not found" error.
    """

    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\n", "\r"])
    def test_profile_rejects_bad_delimiter(self, phone_csv, delimiter, capsys):
        code = main(["profile", str(phone_csv), "--column", "phone", "--delimiter", delimiter])
        assert code == 2
        err = capsys.readouterr().err
        assert "--delimiter" in err
        assert "not found" not in err

    @pytest.mark.parametrize("delimiter", [";;", '"'])
    def test_transform_rejects_bad_delimiter(self, phone_csv, tmp_path, delimiter, capsys):
        code = main(
            [
                "transform", str(phone_csv), "--column", "phone",
                "--target-pattern", "<D>3'-'<D>3'-'<D>4",
                "--output", str(tmp_path / "out.csv"), "--delimiter", delimiter,
            ]
        )
        assert code == 2
        assert "--delimiter" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("delimiter", [";;", '"'])
    def test_apply_rejects_bad_delimiter(self, artifact, phone_csv, delimiter, capsys):
        code = main(["apply", str(artifact), str(phone_csv), "--delimiter", delimiter])
        assert code == 2
        assert "--delimiter" in capsys.readouterr().err

    @pytest.mark.parametrize("delimiter", [";;", '"'])
    def test_library_header_scan_rejects_bad_delimiter(self, phone_csv, delimiter):
        from repro.dataset.readers import read_csv_header

        with pytest.raises(ValidationError, match="delimiter"):
            read_csv_header(phone_csv, delimiter)


class TestDispatchKnobs:
    """CLI contract for the hot-loop dispatch knobs.

    ``--memo-size`` is a pure performance knob: bad values exit 2 with
    a usage error naming the flag, and any valid setting leaves the
    output bytes identical to a default run.
    """

    def _apply(self, artifact, source, output, *extra):
        return main(
            ["apply", str(artifact), str(source), "--output", str(output), *extra]
        )

    @pytest.mark.parametrize("value", ["-1", "-4096"])
    def test_negative_memo_size_is_an_error(self, artifact, phone_csv, value, capsys):
        code = main(["apply", str(artifact), str(phone_csv), "--memo-size", value])
        assert code == 2
        assert "--memo-size" in capsys.readouterr().err

    def test_memo_size_zero_disables_the_memo_but_still_applies(
        self, artifact, phone_csv, tmp_path
    ):
        default = tmp_path / "default.csv"
        unmemoized = tmp_path / "memo-off.csv"
        assert self._apply(artifact, phone_csv, default) == 0
        assert self._apply(artifact, phone_csv, unmemoized, "--memo-size", "0") == 0
        assert unmemoized.read_bytes() == default.read_bytes()
