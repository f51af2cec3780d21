"""Fuzz the JSONL apply and profile paths against the stdlib ``json`` oracle.

Adversarial JSON Lines partitions — quote/backslash escapes, unicode,
newlines and control characters inside strings, missing keys, huge
lines, non-string values — must round-trip through the mixed-format
apply pipeline to exactly what parsing each line with the ``json``
module and transforming the value by hand predicts.  Malformed lines
(raw newlines breaking a string, truncated objects, non-object rows,
plain garbage) must raise :class:`~repro.util.errors.CLXError` naming
the file and the exact 1-based line, and must never corrupt the
records around them.

The profile side reads the same partitions through the block reader
behind :meth:`Dataset.iter_values` and the 2-worker
:class:`~repro.clustering.parallel.ParallelProfiler`, with the block
size patched small so that records straddle block cuts: both must see
exactly the values per-line ``json.loads`` plus ``jsonl_cell`` gives,
and a fixed list of malformed lines must fail with the wording
per-line ``json.loads`` gives.

Seeded through ``property_rng``; replay any failure with
``CLX_PROPERTY_SEED=<seed> pytest <test>``.
"""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.bench.generators import phone_numbers
from repro.clustering import IncrementalProfiler, ParallelProfiler
from repro.core.session import CLXSession
from repro.dataset import Dataset
from repro.dataset.backends import text as text_backend
from repro.dataset.readers import iter_line_shard, jsonl_cell
from repro.engine.parallel import ShardedTableExecutor
from repro.util.errors import CLXError

ROUNDS = 6

#: Character pool biased toward JSON-hostile content.
_NASTY = (
    '"\\\n\r\t\0\x1b{}[],:'
    "abc0123456789 é中文\U0001f600  ￿"
)


def _nasty_string(rng, max_length=40):
    if rng.random() < 0.05:
        # Huge line: a single multi-kilobyte value must neither split
        # nor starve the chunker.
        return "x" * rng.randint(5_000, 20_000) + rng.choice('"\\\n')
    return "".join(
        rng.choice(_NASTY) for _ in range(rng.randint(0, max_length))
    )


def _nasty_value(rng):
    roll = rng.random()
    if roll < 0.5:
        return _nasty_string(rng)
    if roll < 0.62:
        return rng.choice([None, True, False])
    if roll < 0.74:
        return rng.choice([0, -17, 3.5, 1e300])
    if roll < 0.86:
        return rng.choice([[1, "a"], {"nested": True}, {}])
    return phone_numbers(1, ["dots"], seed=rng.randrange(10_000))[0][0]


def _stringify(value):
    """The shared ingestion rule (`jsonl_cell`): missing/None -> '',
    strings untouched, everything else keeps its JSON form."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return json.dumps(value, ensure_ascii=False)


@pytest.fixture(scope="module")
def engine():
    raw, _ = phone_numbers(120, ["paren_space", "dashes", "dots"], seed=97)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    return session.engine()


def _write_records(path, records):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _random_records(rng, count):
    records = []
    for index in range(count):
        record = {"id": str(index)}
        if rng.random() < 0.9:  # ~10% of rows miss the programmed key
            record["phone"] = _nasty_value(rng)
        records.append(record)
    return records


class TestAdversarialJsonlRoundTrip:
    def test_matches_the_json_module_oracle(self, engine, property_rng, tmp_path):
        rng = property_rng
        for round_index in range(ROUNDS):
            records = _random_records(rng, rng.randint(1, 60))
            path = tmp_path / f"round-{round_index}.jsonl"
            _write_records(path, records)
            # The oracle re-reads the bytes with the stdlib alone.  A
            # JSONL physical line ends at "\n" and nothing else —
            # splitlines() would also split on raw U+2028-style
            # separators json.dumps(ensure_ascii=False) leaves inside
            # strings, which no reader in the pipeline does.
            oracle = [
                json.loads(line)
                for line in path.read_text(encoding="utf-8").split("\n")
                if line
            ]
            assert oracle == records
            expected = [
                [
                    _stringify(record.get("id")),
                    _stringify(record.get("phone")),
                    engine.run_one(_stringify(record.get("phone"))).output,
                ]
                for record in oracle
            ]
            dataset = Dataset.resolve(str(path))
            workers = rng.choice([1, 2, 3])
            context = f"seed={rng.seed_value} round={round_index} workers={workers}"
            for out_format in ("csv", "jsonl"):
                with ShardedTableExecutor(
                    {"phone": engine},
                    ["id", "phone"],
                    out_format=out_format,
                    workers=workers,
                    chunk_size=rng.randint(1, 16),
                ) as executor:
                    encoded = executor.header_text() + "".join(
                        chunk
                        for _, (chunk, _, _, _) in executor.run_dataset(
                            dataset, shard_bytes=rng.choice([256, 1 << 20])
                        )
                    )
                if out_format == "jsonl":
                    rows = [
                        [row["id"], row["phone"], row["phone_transformed"]]
                        for row in (
                            json.loads(line) for line in encoded.split("\n") if line
                        )
                    ]
                else:
                    rows = [
                        [row["id"], row["phone"], row["phone_transformed"]]
                        for row in csv.DictReader(io.StringIO(encoded))
                    ]
                assert rows == expected, f"{context} sink={out_format}"


def _corrupt(rng, line):
    """Turn one valid JSONL line into something malformed."""
    roll = rng.random()
    if roll < 0.3:
        return line[: rng.randint(1, max(1, len(line) - 1))]  # truncated object
    if roll < 0.55:
        return json.dumps([1, 2, 3])  # not an object
    if roll < 0.8:
        return "not json at all"
    return line + "}"  # trailing garbage


class TestMalformedLines:
    def test_malformed_line_names_file_and_line(self, engine, property_rng, tmp_path):
        rng = property_rng
        for round_index in range(ROUNDS):
            records = _random_records(rng, rng.randint(3, 40))
            lines = [json.dumps(record, ensure_ascii=False) for record in records]
            victim = rng.randrange(len(lines))
            lines[victim] = _corrupt(rng, lines[victim])
            path = tmp_path / f"bad-{round_index}.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            dataset = Dataset.resolve(str(path))
            with ShardedTableExecutor(
                {"phone": engine},
                ["id", "phone"],
                workers=rng.choice([1, 2]),
                chunk_size=rng.randint(1, 8),
            ) as executor:
                with pytest.raises(CLXError) as caught:
                    list(executor.run_dataset(dataset, shard_bytes=rng.choice([128, 1 << 20])))
            message = str(caught.value)
            context = f"seed={rng.seed_value} round={round_index} victim={victim}"
            assert path.name in message, context
            assert f"line {victim + 1}" in message, context

    def test_raw_newline_inside_a_string_cannot_cross_records(
        self, engine, property_rng, tmp_path
    ):
        # A literal newline is illegal inside a JSON string; splitting a
        # record across physical lines must fail on *that* line — the
        # neighboring records still apply cleanly once it is removed.
        rng = property_rng
        records = _random_records(rng, 12)
        lines = [json.dumps(record, ensure_ascii=False) for record in records]
        victim = rng.randrange(len(lines))
        broken = f'{{"id": "x", "phone": "b\nroken"}}'
        lines[victim] = broken
        path = tmp_path / "newline.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with ShardedTableExecutor(
            {"phone": engine}, ["id", "phone"], workers=1
        ) as executor:
            with pytest.raises(CLXError, match=rf"newline\.jsonl line {victim + 1}"):
                list(executor.run_dataset(Dataset.resolve(str(path))))

        # Neighbors survive: drop the broken record and every remaining
        # row comes out exactly as the oracle predicts.
        clean = lines[:victim] + lines[victim + 1 :]
        path.write_text("\n".join(clean) + "\n", encoding="utf-8")
        with ShardedTableExecutor(
            {"phone": engine}, ["id", "phone"], workers=1
        ) as executor:
            encoded = executor.header_text() + "".join(
                chunk
                for _, (chunk, _, _, _) in executor.run_dataset(Dataset.resolve(str(path)))
            )
        rows = list(csv.DictReader(io.StringIO(encoded)))
        survivors = records[:victim] + records[victim + 1 :]
        assert [row["phone"] for row in rows] == [
            _stringify(record.get("phone")) for record in survivors
        ], f"seed={rng.seed_value}"


# ----------------------------------------------------------------------
# The profile side: block reads of one column
# ----------------------------------------------------------------------
#: JSON whitespace and line endings the reader must tolerate around a record.
_PADDING = ["", "", "", " ", "\t", " \t ", "\r"]


def _oracle_values(texts, column):
    """Per-line ``json.loads`` plus ``jsonl_cell``: the profile oracle."""
    return [
        jsonl_cell(json.loads(line).get(column))
        for text in texts
        for line in text.split("\n")
        if line.strip()
    ]


def _padded_part(rng, records):
    """Records as JSONL text with stray (valid) padding and blank lines."""
    lines = []
    for record in records:
        if rng.random() < 0.05:
            lines.append(rng.choice(["", " ", "\t\r"]))  # a blank line
        line = json.dumps(record, ensure_ascii=rng.random() < 0.2)
        lines.append(rng.choice(_PADDING[:3]) + line + rng.choice(_PADDING))
    text = "\n".join(lines)
    return text if rng.random() < 0.3 else text + "\n"  # maybe no final newline


class TestProfileSideOracle:
    def test_values_and_profiles_match_the_json_module_oracle(
        self, property_rng, tmp_path, monkeypatch
    ):
        rng = property_rng
        for round_index in range(ROUNDS):
            block = rng.choice([1, 64, 512, 4096])
            monkeypatch.setattr(text_backend, "JSONL_BLOCK_BYTES", block)
            texts = []
            for part in range(rng.randint(1, 3)):
                records = _random_records(rng, rng.randint(0, 50))
                if part == 0:  # one line longer than a block, always
                    records.append({"id": "long", "phone": "9" * (block + 100)})
                    rng.shuffle(records)
                if records:  # the column check reads the first record
                    records[0]["phone"] = _nasty_value(rng)
                texts.append(_padded_part(rng, records))
            directory = tmp_path / f"round-{round_index}"
            directory.mkdir()
            for part, text in enumerate(texts):
                (directory / f"p{part}.jsonl").write_text(text, encoding="utf-8")
            expected = _oracle_values(texts, "phone")
            dataset = Dataset.resolve(str(directory))
            context = f"seed={rng.seed_value} round={round_index} block={block}"
            assert list(dataset.iter_values("phone")) == expected, context
            profile = ParallelProfiler(workers=2).profile_dataset(dataset, "phone")
            assert (
                profile.leaf_counts()
                == IncrementalProfiler().profile(expected).leaf_counts()
            ), context

    @pytest.mark.parametrize("block", [8, 1 << 20])
    @pytest.mark.parametrize(
        "text,expected",
        [
            ('{"a":"v"}\r\n{"a":"w"}\r\n', ["v", "w"]),
            ('{"a":"v"} \t \n\t{"a":"w"}\t\n', ["v", "w"]),
            ('{"a":"x\u2028y\x85z"}\n{"a":"\u2029"}\n', ["x\u2028y\x85z", "\u2029"]),
            ('{"a":NaN}\n{"a":Infinity}\n{"a":-Infinity}\n', ["NaN", "Infinity", "-Infinity"]),
            ('{"a":"1","a":"2"}\n', ["2"]),
            (
                '{"a":true}\n{"a":{"b":[1,null]}}\n{"a":null}\n{"b":1}\n{"a":1.50}\n',
                ["true", '{"b": [1, null]}', "", "", "1.5"],
            ),
            ('{"a":"v"}\n\xa0\n\n  \n{"a":"w"}', ["v", "w"]),
        ],
        ids=["crlf", "trailing-blanks", "raw-separators", "nan-infinity",
             "duplicate-keys", "non-strings", "blank-lines-no-final-newline"],
    )
    def test_valid_lines_parse(self, tmp_path, monkeypatch, block, text, expected):
        monkeypatch.setattr(text_backend, "JSONL_BLOCK_BYTES", block)
        path = tmp_path / "ok.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert _oracle_values([text], "a") == expected
        assert list(Dataset.resolve(str(path)).iter_values("a")) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [8, 1 << 20])
    @pytest.mark.parametrize(
        "text,message",
        [
            # Each line fails alone, yet joined as "[" + ",".join(lines)
            # + "]" they decode to three objects.
            (
                '{"a":[{"b":1}\n{"c":2}]}\n{"x":1},{"y":2}\n',
                "line 1: invalid JSON line: Expecting ',' delimiter: "
                "line 2 column 1 (char 14)",
            ),
            # str.isspace() whitespace is not JSON whitespace.
            ('{"a":"v"}\n{"a":"w"}\xa0\n', "line 2: invalid JSON line: Extra data: "
             "line 1 column 10 (char 9)"),
            ('{"a":"v"}\x0b\n', "line 1: invalid JSON line: Extra data: "
             "line 1 column 10 (char 9)"),
            ('{"a":"v"}\n{"a":"v"}\n{"a":"v"}\x1c\n', "line 3: invalid JSON line: "
             "Extra data: line 1 column 10 (char 9)"),
            ('\ufeff{"a":"v"}\n', "line 1: invalid JSON line: Unexpected UTF-8 BOM "
             "(decode using utf-8-sig): line 1 column 1 (char 0)"),
            ('{"a":"v"}\n{"a":1}{"b":2}\n', "line 2: invalid JSON line: Extra data: "
             "line 1 column 8 (char 7)"),
            ('{"a":"v"}\n[1, 2]\n', "line 2: JSONL rows must be objects, got list"),
            # Blank lines still count.
            ('{"a":"v"}\n\n \t\n{"a":1}x\n', "line 4: invalid JSON line: Extra data: "
             "line 1 column 8 (char 7)"),
            # The error position counts the line's own "\n", if it has one.
            ('{"a":"v"}\n{"a":\n', "line 2: invalid JSON line: Expecting value: "
             "line 2 column 1 (char 6)"),
            ('{"a":"v"}\n{"a":', "line 2: invalid JSON line: Expecting value: "
             "line 1 column 6 (char 5)"),
        ],
        ids=["array-join", "nbsp", "vertical-tab", "file-separator", "bom",
             "two-objects", "top-level-array", "after-blanks", "truncated", "truncated-at-eof"],
    )
    def test_malformed_lines_keep_the_json_loads_wording(
        self, tmp_path, monkeypatch, workers, block, text, message
    ):
        monkeypatch.setattr(text_backend, "JSONL_BLOCK_BYTES", block)
        path = tmp_path / "bad.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(CLXError) as caught:
            ParallelProfiler(workers=workers).profile_dataset(str(path), "a")
        assert str(caught.value) == f"{path} {message}"

    def test_non_utf8_byte_in_a_later_block(self, tmp_path, monkeypatch):
        block = 256
        monkeypatch.setattr(text_backend, "JSONL_BLOCK_BYTES", block)
        line = json.dumps({"a": "v" * 40}) + "\n"
        raw = bytearray((line * 20).encode("utf-8"))
        bad = len(line) * 8 + 12
        assert block <= bad < 2 * block  # the second block holds it
        raw[bad] = 0xFF
        path = tmp_path / "bad.jsonl"
        path.write_bytes(bytes(raw))
        with pytest.raises(CLXError) as expected:
            list(iter_line_shard(str(path), 0, None))
        assert f"line 9: invalid UTF-8 byte 0xff at byte offset {bad}" in str(expected.value)
        with pytest.raises(CLXError) as caught:
            list(Dataset.resolve(str(path)).iter_values("a"))
        assert str(caught.value) == str(expected.value)
