"""Performance A6 — constant-memory profiling.

:class:`repro.clustering.incremental.IncrementalProfiler` must profile a
≥200k-row synthetic phone column from a generator with memory bounded
by the number of distinct patterns, not the number of rows (the batch
profiler materializes every value), while producing the exact same leaf
patterns and counts.  The multi-process profile and apply rows live in
``test_perf_table.py``.

The record-scanner row guards the layer under every CSV read: the
compiled :func:`repro.util.csvio.record_open_after` must answer exactly
as :func:`~repro.util.csvio.record_open_after_reference` (the
character-loop specification) over a corpus of quoted lines, and at
least twice as fast, as a median of three interleaved repeats.

The repeated-values row guards the profiler's value memo: on a
heavy-hitter stream (~2k distinct values, Zipf row counts) one
:meth:`~repro.clustering.incremental.ColumnProfile.observe_all` pass
must produce the same fingerprint as the per-value
:meth:`~repro.clustering.incremental.ColumnProfile.observe` loop and be
at least 1.2x faster, as a median of three interleaved repeats.  The
distinct-values row guards the shape fold: on a stream of distinct phone
numbers, where the memo never hits, ``observe_all`` (one tokenization
per leaf shape) must beat the ``observe`` loop (one tokenization per
value) by the same margin, again with equal fingerprints.

The tokenizer row guards the compiled
:func:`~repro.tokens.tokenizer.tokenize`: it must return exactly what
:func:`~repro.tokens.tokenizer.tokenize_reference` (the character-loop
specification) does on a mixed corpus, and be at least 1.2x faster, as
a median of three interleaved repeats.

The JSONL column-read row guards the profile read path:
:meth:`~repro.dataset.backends.text.JsonlBackend.iter_shard_values`
(block reads, one C-scanner call per line) must return exactly what the
per-line reader it replaced (``json.loads`` on each line of
:func:`~repro.dataset.readers.iter_line_shard`) returns over a rendered
JSONL part, and be at least 1.2x faster, as a median of three
interleaved repeats.  The row also reports a per-line loop that uses
the same C-scanner fast path, which is what the block reads add to.

``CLX_PERF_ROWS`` scales the workload down for smoke runs (CI runs the
file with a small value so the scale path cannot rot); the memory
assertion always applies.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import statistics
import sys
import time
import tracemalloc

from repro.bench.generators import addresses, human_names, phone_number_stream, urls
from repro.clustering.incremental import ColumnProfile, IncrementalProfiler
from repro.clustering.profiler import PatternProfiler
from repro.dataset.backends import JsonlBackend
from repro.dataset.readers import iter_line_shard, jsonl_value, parse_jsonl_row
from repro.tokens.tokenizer import tokenize, tokenize_reference
from repro.util.csvio import record_open_after, record_open_after_reference
from repro.util.text import format_table

#: Rows in the scale workloads; override with CLX_PERF_ROWS for smoke runs.
FULL_ROWS = 200_000
ROWS = int(os.environ.get("CLX_PERF_ROWS", str(FULL_ROWS)))
SMOKE = ROWS < FULL_ROWS

#: tracemalloc costs ~5x, so the memory bound is asserted on a capped
#: prefix of the workload — the whole point is that peak memory does not
#: depend on the row count, so the cap loses no generality.
TRACED_ROWS = min(ROWS, 50_000)

#: Rows in the record-scanner corpus: a speed ratio needs no more.
SCANNER_ROWS = min(ROWS, 50_000)

#: Timed repeats of each scanner; the speed-up gate takes their median.
SCANNER_REPEATS = 3

#: Minimum median speed-up of the compiled scanner over the reference.
SCANNER_MIN_SPEEDUP = 2.0

#: Distinct values in the heavy-hitter stream of the repeated-values row.
HEAVY_HITTER_POOL = 2_000

#: Rows of the distinct-values stream of the distinct-values row.
DISTINCT_ROWS = min(ROWS, 20_000)

#: Timed repeats of each profile path; the speed-up gate takes their median.
PROFILE_REPEATS = 3

#: Minimum median speed-up of ``observe_all`` over the per-value loop,
#: on repeated values (value memo) and on distinct ones (shape fold).
REPEATED_MIN_SPEEDUP = 1.2
DISTINCT_MIN_SPEEDUP = 1.2

#: Values in the tokenizer corpus, and the compiled tokenizer's minimum
#: median speed-up over the character-loop reference.
TOKENIZER_VALUES = min(ROWS, 40_000)
TOKENIZER_MIN_SPEEDUP = 1.2

#: Rows of the rendered JSONL part, and the block reader's minimum median
#: speed-up over the per-line ``json.loads`` reader.
JSONL_ROWS = min(ROWS, 50_000)
JSONL_MIN_SPEEDUP = 1.2


def _materialized_estimate(rows: int) -> float:
    """Approximate bytes needed just to hold ``rows`` values in a list."""
    sample = list(phone_number_stream(1_000, seed=77))
    per_value = sum(sys.getsizeof(value) for value in sample) / len(sample)
    return (per_value + 8) * rows  # +8 for the list slot


def test_perf_streaming_profile_bounded_memory():
    profiler = IncrementalProfiler()

    # Full-size pass, untraced: the end-to-end throughput number.
    start = time.perf_counter()
    profile = profiler.profile(phone_number_stream(ROWS, seed=77))
    seconds = time.perf_counter() - start
    assert profile.row_count == ROWS

    # Same leaf patterns/counts as materialize-everything batch profiling.
    check = list(phone_number_stream(min(ROWS, 20_000), seed=78))
    batch = PatternProfiler().profile(check)
    streamed = profiler.profile(iter(check)).to_hierarchy()
    assert [(node.pattern.notation(), node.size) for node in streamed.leaf_nodes] == [
        (node.pattern.notation(), node.size) for node in batch.leaf_nodes
    ]

    # Bounded-memory assertion, traced on a capped prefix.
    tracemalloc.start()
    traced_profile = profiler.profile(phone_number_stream(TRACED_ROWS, seed=77))
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert traced_profile.cluster_count == profile.cluster_count

    estimate = _materialized_estimate(TRACED_ROWS)
    rows_table = [
        ("rows profiled (untraced)", f"{ROWS}", f"{seconds:.2f} s"),
        ("distinct leaf patterns", f"{profile.cluster_count}", ""),
        ("traced peak memory", f"{peak / 1e6:.2f} MB", f"{TRACED_ROWS} rows"),
        ("materialized-column estimate", f"{estimate / 1e6:.2f} MB", f"{TRACED_ROWS} rows"),
    ]
    print("\n" + format_table(["streaming profile", "value", "detail"], rows_table))

    # The profile must cost a small fraction of what materializing the
    # column would — that is what "no full materialization" means.
    assert peak < estimate / 4, (
        f"streaming profile peaked at {peak / 1e6:.2f} MB, not clearly below the "
        f"{estimate / 1e6:.2f} MB a materialized column would need"
    )


#: Words the corpus notes are drawn from.
_NOTE_WORDS = ("patient", "seen", "follow", "up", "billing", "code", "checked", "lab", "ok")


def _quoted_line_corpus(rows: int) -> list:
    """Physical lines of a 4-column CSV shaped like an exported records table.

    Every line carries a quote (the quoted ``"Last, F."`` name); notes run
    6-13 words with commas (so they are quoted too), some hold a quoted
    word (``""`` escapes), and every 20th holds an embedded newline, so
    some records span two physical lines.
    """
    rng = random.Random(79)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for index in range(rows):
        words = rng.choices(_NOTE_WORDS, k=rng.randrange(6, 14))
        for position in range(1, len(words), 4):
            words[position] += ","
        if index % 3 == 0:
            words.insert(rng.randrange(len(words)), '"urgent"')
        if index % 20 == 0:
            words.insert(rng.randrange(1, len(words)), "\n")
        name = f"{rng.choice(('Smith', 'Lee', 'Garcia'))}, {rng.choice('ABCJ')}."
        writer.writerow([str(index), name, " ".join(words), f"CPT-{rng.randrange(10000, 99999)}"])
    return buffer.getvalue().splitlines(keepends=True)


def _scan(scanner, lines: list) -> tuple:
    """Carry the open state over ``lines``: (answers, seconds)."""
    answers = []
    record_open = False
    start = time.perf_counter()
    for line in lines:
        record_open = scanner(line, ",", record_open)
        answers.append(record_open)
    return answers, time.perf_counter() - start


def test_perf_record_scanner():
    lines = _quoted_line_corpus(SCANNER_ROWS)
    speedups = []
    for _ in range(SCANNER_REPEATS):
        reference, reference_seconds = _scan(record_open_after_reference, lines)
        compiled, compiled_seconds = _scan(record_open_after, lines)
        assert compiled == reference
        speedups.append(reference_seconds / compiled_seconds)
        per_line = (reference_seconds / len(lines), compiled_seconds / len(lines))
    speedup = statistics.median(speedups)
    rows_table = [
        ("physical lines", f"{len(lines)}", f"{sum(reference)} open after"),
        ("reference (char loop)", f"{per_line[0] * 1e6:.2f} us/line", "last repeat"),
        ("compiled scanner", f"{per_line[1] * 1e6:.2f} us/line", "last repeat"),
        ("median speed-up", f"{speedup:.1f}x", f"of {SCANNER_REPEATS} repeats"),
    ]
    print("\n" + format_table(["record scanner", "value", "detail"], rows_table))
    assert speedup >= SCANNER_MIN_SPEEDUP, (
        f"compiled record scanner is only {speedup:.2f}x the reference loop "
        f"(median of {speedups}); expected >= {SCANNER_MIN_SPEEDUP}x"
    )


def _heavy_hitter_stream(rows: int) -> list:
    """``rows`` draws with Zipf(1.1) counts from ~2k distinct phone numbers."""
    pool = list(phone_number_stream(HEAVY_HITTER_POOL, seed=83))
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(pool))]
    return random.Random(84).choices(pool, weights=weights, k=rows)


def _observe_each(values: list) -> ColumnProfile:
    """The per-value reference: one :meth:`ColumnProfile.observe` per row."""
    profile = ColumnProfile()
    for value in values:
        profile.observe(value)
    return profile


def _profile_speedups(values: list) -> tuple:
    """(speed-ups of ``observe_all`` over the per-value loop, last seconds pair)."""
    speedups = []
    for _ in range(PROFILE_REPEATS):
        start = time.perf_counter()
        reference = _observe_each(values)
        reference_seconds = time.perf_counter() - start
        start = time.perf_counter()
        profile = IncrementalProfiler().profile(values)
        memo_seconds = time.perf_counter() - start
        assert profile.fingerprint() == reference.fingerprint()
        speedups.append(reference_seconds / memo_seconds)
    return speedups, (reference_seconds, memo_seconds)


def test_perf_profile_repeated_values():
    repeated = _heavy_hitter_stream(ROWS)
    distinct = list(phone_number_stream(DISTINCT_ROWS, seed=85))
    repeated_speedups, repeated_seconds = _profile_speedups(repeated)
    distinct_speedups, distinct_seconds = _profile_speedups(distinct)
    speedup = statistics.median(repeated_speedups)
    distinct_speedup = statistics.median(distinct_speedups)
    rows_table = [
        (
            "heavy hitters",
            f"{len(repeated)} rows, {len(set(repeated))} distinct",
            f"{repeated_seconds[0]:.2f} s",
            f"{repeated_seconds[1]:.2f} s",
            f"{speedup:.1f}x",
        ),
        (
            "distinct phones",
            f"{len(distinct)} rows, {len(set(distinct))} distinct",
            f"{distinct_seconds[0]:.2f} s",
            f"{distinct_seconds[1]:.2f} s",
            f"{distinct_speedup:.2f}x",
        ),
    ]
    print(
        "\n"
        + format_table(
            ["profile stream", "values", "observe loop", "observe_all", "median speed-up"],
            rows_table,
        )
    )
    assert speedup >= REPEATED_MIN_SPEEDUP, (
        f"observe_all is only {speedup:.2f}x the per-value observe loop on repeated "
        f"values (median of {repeated_speedups}); expected >= {REPEATED_MIN_SPEEDUP}x"
    )
    assert distinct_speedup >= DISTINCT_MIN_SPEEDUP, (
        f"observe_all is only {distinct_speedup:.2f}x the per-value observe loop on "
        f"distinct values (median of {distinct_speedups}); expected >= {DISTINCT_MIN_SPEEDUP}x"
    )


def _tokenizer_corpus(count: int) -> list:
    """Phones, names, addresses and URLs, plus non-ASCII letters and digits."""
    quarter = count // 4
    corpus = list(phone_number_stream(quarter, seed=86))
    corpus += human_names(quarter, seed=86)[0]
    corpus += addresses(quarter, seed=86)[0]
    corpus += urls(quarter, seed=86)[0]
    corpus += [f"Zürich {index}² ½-١\t{index:x}" for index in range(count - len(corpus))]
    return corpus


def _tokenize_all(tokenizer, values: list) -> tuple:
    """(token lists, seconds) of ``tokenizer`` over ``values``."""
    start = time.perf_counter()
    tokens = [tokenizer(value) for value in values]
    return tokens, time.perf_counter() - start


def test_perf_tokenizer():
    corpus = _tokenizer_corpus(TOKENIZER_VALUES)
    speedups = []
    for _ in range(PROFILE_REPEATS):
        reference, reference_seconds = _tokenize_all(tokenize_reference, corpus)
        compiled, compiled_seconds = _tokenize_all(tokenize, corpus)
        assert compiled == reference
        speedups.append(reference_seconds / compiled_seconds)
    speedup = statistics.median(speedups)
    rows_table = [
        ("values", f"{len(corpus)}", f"{sum(map(len, corpus))} chars"),
        ("reference (char loop)", f"{reference_seconds:.2f} s", "last repeat"),
        ("compiled tokenizer", f"{compiled_seconds:.2f} s", "last repeat"),
        ("median speed-up", f"{speedup:.1f}x", f"of {PROFILE_REPEATS} repeats"),
    ]
    print("\n" + format_table(["tokenizer", "value", "detail"], rows_table))
    assert speedup >= TOKENIZER_MIN_SPEEDUP, (
        f"compiled tokenizer is only {speedup:.2f}x the reference loop "
        f"(median of {speedups}); expected >= {TOKENIZER_MIN_SPEEDUP}x"
    )


def _render_jsonl_part(path, rows: int) -> None:
    """A four-column JSONL part shaped like an exported records table."""
    rng = random.Random(87)
    with open(path, "w", encoding="utf-8") as handle:
        for index in range(rows):
            words = rng.choices(_NOTE_WORDS, k=rng.randrange(6, 14))
            record = {
                "id": str(index),
                "name": f"{rng.choice(('Smith', 'Lee', 'Garcia'))}, {rng.choice('ABCJ')}.",
                "note": " ".join(words),
                "code": f"CPT-{rng.randrange(10000, 99999)}",
            }
            handle.write(json.dumps(record) + "\n")


def _per_line_loads(locator: str, name: str) -> list:
    """The reader the block reads replaced: ``json.loads`` on each line."""
    lines = iter_line_shard(locator, 0, None)
    return list(
        jsonl_value(json.loads(line), name)
        for number, line in enumerate(lines, start=1)
        if line.strip()
    )


def _per_line_fast_path(locator: str, name: str) -> list:
    """The same per-line reader through the C-scanner fast path."""
    lines = iter_line_shard(locator, 0, None)
    return list(
        jsonl_value(parse_jsonl_row(line, locator, number), name)
        for number, line in enumerate(lines, start=1)
        if line.strip()
    )


def _block_reads(locator: str, name: str) -> list:
    return list(JsonlBackend().iter_shard_values(locator, 0, None, name, ",", 1))


def _timed(reader, locator: str) -> tuple:
    start = time.perf_counter()
    values = reader(locator, "code")
    return values, time.perf_counter() - start


def test_perf_jsonl_column_read(tmp_path):
    part = tmp_path / "part.jsonl"
    _render_jsonl_part(part, JSONL_ROWS)
    locator = str(part)
    speedups, over_fast_path = [], []
    for _ in range(PROFILE_REPEATS):
        reference, reference_seconds = _timed(_per_line_loads, locator)
        fast, fast_seconds = _timed(_per_line_fast_path, locator)
        blocks, block_seconds = _timed(_block_reads, locator)
        assert blocks == reference and fast == reference
        speedups.append(reference_seconds / block_seconds)
        over_fast_path.append(fast_seconds / block_seconds)
    speedup = statistics.median(speedups)
    rows_table = [
        ("JSONL part", f"{JSONL_ROWS} rows", f"{part.stat().st_size / 1e6:.1f} MB"),
        ("per-line json.loads", f"{reference_seconds * 1e3:.0f} ms", "last repeat"),
        ("per-line fast path", f"{fast_seconds * 1e3:.0f} ms", "last repeat"),
        ("block reads", f"{block_seconds * 1e3:.0f} ms", "last repeat"),
        ("median speed-up", f"{speedup:.2f}x", f"of {PROFILE_REPEATS} repeats"),
        (
            "over the per-line fast path",
            f"{statistics.median(over_fast_path):.2f}x",
            "reported, not gated",
        ),
    ]
    print("\n" + format_table(["JSONL column read", "value", "detail"], rows_table))
    assert speedup >= JSONL_MIN_SPEEDUP, (
        f"block reads are only {speedup:.2f}x the per-line json.loads reader "
        f"(median of {speedups}); expected >= {JSONL_MIN_SPEEDUP}x"
    )
