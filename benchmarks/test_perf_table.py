"""Performance A7 — parallel profiling and pipelined table apply.

PR 2 gave both halves of the loop their constant-memory/sharded shapes;
this benchmark guards the all-cores layer on top of them:

* **Parallel profile** — :class:`repro.clustering.parallel.ParallelProfiler`
  must produce the exact leaf patterns and counts of the serial
  streaming pass while splitting the CSV into byte-range shards that
  workers parse and profile themselves;
* **Pipelined table apply** — :class:`repro.engine.parallel.ShardedTableExecutor`
  must emit byte-identical sink chunks with and without a worker pool,
  with all CSV codec work off the parent's hot path.

Serial-vs-parallel rows/sec for both paths are recorded into
``benchmarks/BENCH_pipeline.json`` (a bounded trajectory of recent
runs).  ``CLX_PERF_ROWS`` scales the workload down for smoke runs;
speedup assertions only apply at full size on hosts with ≥4 usable
cores (CI matrix runners are contended and run the smoke size), and
every gate compares medians of repeated runs, never one timing pair.
Correctness assertions always apply.
"""

from __future__ import annotations

import csv
import io
import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.bench.generators import phone_number_stream
from repro.bench.phone import phone_dataset
from repro.clustering.parallel import ParallelProfiler
from repro.core.session import CLXSession
from repro.util.text import format_table

#: Rows in the scale workloads; override with CLX_PERF_ROWS for smoke runs.
FULL_ROWS = 200_000
ROWS = int(os.environ.get("CLX_PERF_ROWS", str(FULL_ROWS)))
SMOKE = ROWS < FULL_ROWS


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask), not the host's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


#: Cores the parallel runs can actually use.
CORES = _usable_cores()

#: Worker count used by the parallel runs (the speedup target is 2x at 4).
WORKERS = min(4, CORES)

#: Timed runs per measured leg; gates assert on the median.  Smoke runs
#: assert no timing, so one run each keeps them fast.
REPEATS = 1 if SMOKE else 3

#: Where the serial/parallel rows-per-second trajectory is recorded.
BENCH_PATH = Path(__file__).resolve().parent / "BENCH_pipeline.json"

#: Runs kept in the trajectory file.
TRAJECTORY_LIMIT = 20


def _speedup_assertable() -> bool:
    return not SMOKE and CORES >= 4


def _median_timed(run):
    """Call ``run`` REPEATS times: (the last result, median seconds)."""
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - start)
    return result, statistics.median(seconds)


@pytest.fixture(scope="module")
def recorder():
    """Collects each test's timings and writes the trajectory file."""
    record = {
        "rows": ROWS,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "usable_cores": CORES,
        "repeats": REPEATS,
        "smoke": SMOKE,
        "timestamp": time.time(),
    }
    yield record
    try:
        history = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        runs = history.get("runs", [])
    except (OSError, ValueError):
        runs = []
    runs.append(record)
    BENCH_PATH.write_text(
        json.dumps({"runs": runs[-TRAJECTORY_LIMIT:]}, indent=2) + "\n",
        encoding="utf-8",
    )


@pytest.fixture(scope="module")
def phone_csv(tmp_path_factory):
    """A ROWS-row (id, phone) CSV on disk, written once per module."""
    path = tmp_path_factory.mktemp("perf_table") / "phones.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "phone"])
        for index, value in enumerate(phone_number_stream(ROWS, seed=77)):
            writer.writerow([index, value])
    return path


def test_perf_parallel_profile_speedup(phone_csv, recorder):
    # Same workload both sides: byte parse + profile of the file, with
    # one worker (in-process, no pool) vs the full fan-out.
    serial, serial_seconds = _median_timed(
        lambda: ParallelProfiler(workers=1).profile_file(phone_csv, "phone")
    )
    parallel, parallel_seconds = _median_timed(
        lambda: ParallelProfiler(workers=WORKERS).profile_file(phone_csv, "phone")
    )

    # Sharding must never change semantics: identical patterns + counts,
    # hence an identical lowered hierarchy.
    assert parallel.row_count == serial.row_count == ROWS
    serial_leaves = [
        (node.pattern.notation(), node.size) for node in serial.to_hierarchy().leaf_nodes
    ]
    parallel_leaves = [
        (node.pattern.notation(), node.size) for node in parallel.to_hierarchy().leaf_nodes
    ]
    assert parallel_leaves == serial_leaves

    speedup = serial_seconds / parallel_seconds if parallel_seconds else float("inf")
    recorder["profile"] = {
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "serial_rows_per_sec": ROWS / serial_seconds,
        "parallel_rows_per_sec": ROWS / parallel_seconds,
        "speedup": speedup,
    }
    print(f"\nparallel profile over {ROWS} rows on {CORES} usable CPU(s)")
    rows_table = [
        ("profile_file(workers=1)", f"{serial_seconds:.2f} s", f"{ROWS / serial_seconds:,.0f} rows/s", "1.0x"),
        (
            f"profile_file(workers={WORKERS})",
            f"{parallel_seconds:.2f} s",
            f"{ROWS / parallel_seconds:,.0f} rows/s",
            f"{speedup:.2f}x",
        ),
    ]
    print(format_table(["profile path", "latency", "throughput", "speedup"], rows_table))

    if _speedup_assertable():
        assert speedup >= 2.0, (
            f"parallel profile ({parallel_seconds:.2f} s) not >=2x faster than "
            f"serial ({serial_seconds:.2f} s) with {WORKERS} workers on "
            f"{CORES} usable CPUs"
        )


@pytest.fixture(scope="module")
def phone_parts(tmp_path_factory):
    """The same ROWS-row column partitioned into 8 part files."""
    directory = tmp_path_factory.mktemp("perf_dataset")
    part_rows = max(1, ROWS // 8)
    writer = None
    handle = None
    part_index = -1
    for index, value in enumerate(phone_number_stream(ROWS, seed=77)):
        if index % part_rows == 0 and index // part_rows > part_index:
            if handle is not None:
                handle.close()
            part_index = index // part_rows
            handle = (directory / f"part-{part_index:03d}.csv").open(
                "w", newline="", encoding="utf-8"
            )
            writer = csv.writer(handle)
            writer.writerow(["id", "phone"])
        writer.writerow([index, value])
    if handle is not None:
        handle.close()
    return directory


def test_perf_partitioned_dataset_profile(phone_csv, phone_parts, recorder):
    # Dataset mode: the same column split across part files must profile
    # to the identical hierarchy, and fan out across workers by part.
    from repro.dataset import Dataset

    dataset = Dataset.resolve(str(phone_parts / "part-*.csv"))

    serial, serial_seconds = _median_timed(
        lambda: ParallelProfiler(workers=1).profile_dataset(dataset, "phone")
    )
    parallel, parallel_seconds = _median_timed(
        lambda: ParallelProfiler(workers=WORKERS).profile_dataset(dataset, "phone")
    )

    whole_file = ParallelProfiler(workers=1).profile_file(phone_csv, "phone")
    assert parallel.row_count == serial.row_count == ROWS
    whole_leaves = [
        (node.pattern.notation(), node.size)
        for node in whole_file.to_hierarchy().leaf_nodes
    ]
    for profile in (serial, parallel):
        leaves = [
            (node.pattern.notation(), node.size)
            for node in profile.to_hierarchy().leaf_nodes
        ]
        assert leaves == whole_leaves

    speedup = serial_seconds / parallel_seconds if parallel_seconds else float("inf")
    recorder["dataset_profile"] = {
        "parts": len(dataset),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "serial_rows_per_sec": ROWS / serial_seconds,
        "parallel_rows_per_sec": ROWS / parallel_seconds,
        "speedup": speedup,
    }
    print(
        f"\npartitioned dataset profile over {ROWS} rows in {len(dataset)} parts "
        f"on {CORES} usable CPU(s)"
    )
    rows_table = [
        (
            "profile_dataset(workers=1)",
            f"{serial_seconds:.2f} s",
            f"{ROWS / serial_seconds:,.0f} rows/s",
            "1.0x",
        ),
        (
            f"profile_dataset(workers={WORKERS})",
            f"{parallel_seconds:.2f} s",
            f"{ROWS / parallel_seconds:,.0f} rows/s",
            f"{speedup:.2f}x",
        ),
    ]
    print(format_table(["profile path", "latency", "throughput", "speedup"], rows_table))

    if _speedup_assertable():
        assert speedup >= 1.5, (
            f"partitioned dataset profile ({parallel_seconds:.2f} s) not >=1.5x "
            f"faster than serial ({serial_seconds:.2f} s) with {WORKERS} workers "
            f"on {CORES} usable CPUs"
        )


@pytest.fixture(scope="module")
def mixed_apply_parts(tmp_path_factory):
    """The ROWS-row column as 32 small partitions, CSV and JSONL mixed.

    Many small parts is the cross-partition dispatcher's home turf:
    streaming them one executor-drain at a time barriers the pool at
    every boundary, while ``run_dataset`` keeps shards of different
    parts in flight together.
    """
    import json as jsonlib

    directory = tmp_path_factory.mktemp("perf_apply_parts")
    part_count = 32
    part_rows = max(1, ROWS // part_count)
    handle = None
    writer = None
    part_index = -1
    for index, value in enumerate(phone_number_stream(ROWS, seed=97)):
        if index // part_rows > part_index:
            if handle is not None:
                handle.close()
            part_index = index // part_rows
            if part_index % 2:
                handle = (directory / f"part-{part_index:03d}.jsonl").open(
                    "w", encoding="utf-8"
                )
                writer = None
            else:
                handle = (directory / f"part-{part_index:03d}.csv").open(
                    "w", newline="", encoding="utf-8"
                )
                writer = csv.writer(handle)
                writer.writerow(["id", "phone"])
        if writer is None:
            handle.write(jsonlib.dumps({"id": str(index), "phone": value}) + "\n")
        else:
            writer.writerow([index, value])
    if handle is not None:
        handle.close()
    return directory


def test_perf_cross_partition_apply_speedup(mixed_apply_parts, recorder):
    from repro.dataset import Dataset
    from repro.engine.parallel import ShardedTableExecutor

    raw, _expected = phone_dataset(count=300, format_count=6, seed=331)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    engine = session.engine()
    dataset = Dataset.resolve(str(mixed_apply_parts / "part-*"))

    def build(workers):
        return ShardedTableExecutor(
            {"phone": engine}, ["id", "phone"], workers=workers
        )

    def run_sequential(workers):
        # The pre-dispatch shape: drain one partition at a time through
        # the shared pool — a barrier at every part boundary.
        with build(workers) as executor:
            return _median_timed(
                lambda: "".join(
                    chunk.text
                    for part in dataset
                    for _, chunk in executor.run_dataset([part])
                )
            )

    def run_cross(workers):
        with build(workers) as executor:
            return _median_timed(
                lambda: "".join(chunk.text for _, chunk in executor.run_dataset(dataset))
            )

    serial_output, serial_seconds = run_cross(1)
    sequential_output, sequential_seconds = run_sequential(WORKERS)
    cross_output, cross_seconds = run_cross(WORKERS)

    # Dispatch shape must never change the sink bytes.
    assert sequential_output == serial_output
    assert cross_output == serial_output

    speedup_serial = serial_seconds / cross_seconds if cross_seconds else float("inf")
    speedup_sequential = (
        sequential_seconds / cross_seconds if cross_seconds else float("inf")
    )
    recorder["dataset_apply"] = {
        "parts": len(dataset),
        "serial_seconds": serial_seconds,
        "sequential_seconds": sequential_seconds,
        "cross_seconds": cross_seconds,
        "serial_rows_per_sec": ROWS / serial_seconds,
        "sequential_rows_per_sec": ROWS / sequential_seconds,
        "cross_rows_per_sec": ROWS / cross_seconds,
        "speedup_vs_serial": speedup_serial,
        "speedup_vs_sequential": speedup_sequential,
    }
    print(
        f"\ncross-partition apply over {ROWS} rows in {len(dataset)} mixed parts "
        f"on {CORES} usable CPU(s)"
    )
    rows_table = [
        ("run_dataset(workers=1)", f"{serial_seconds:.2f} s", f"{ROWS / serial_seconds:,.0f} rows/s", "1.0x"),
        (
            f"sequential parts (workers={WORKERS})",
            f"{sequential_seconds:.2f} s",
            f"{ROWS / sequential_seconds:,.0f} rows/s",
            f"{serial_seconds / sequential_seconds:.2f}x",
        ),
        (
            f"run_dataset(workers={WORKERS})",
            f"{cross_seconds:.2f} s",
            f"{ROWS / cross_seconds:,.0f} rows/s",
            f"{speedup_serial:.2f}x",
        ),
    ]
    print(format_table(["apply path", "latency", "throughput", "speedup"], rows_table))

    if _speedup_assertable():
        assert speedup_serial >= 2.0, (
            f"cross-partition apply ({cross_seconds:.2f} s) not >=2x faster than "
            f"serial ({serial_seconds:.2f} s) with {WORKERS} workers on "
            f"{CORES} usable CPUs"
        )
        assert speedup_sequential >= 1.0, (
            f"cross-partition apply ({cross_seconds:.2f} s) slower than "
            f"sequential partition streaming ({sequential_seconds:.2f} s) with "
            f"{WORKERS} workers on {CORES} usable CPUs"
        )


def test_perf_pipelined_table_apply_speedup(phone_csv, recorder):
    from repro.dataset import Dataset
    from repro.engine.parallel import ShardedTableExecutor

    # Synthesize once on the study column, then scale the apply workload:
    # one large file, split into record-aligned shards the workers read.
    raw, _expected = phone_dataset(count=300, format_count=6, seed=331)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    engine = session.engine()
    dataset = Dataset.resolve(str(phone_csv))

    def run(workers):
        with ShardedTableExecutor(
            {"phone": engine}, ["id", "phone"], workers=workers
        ) as executor:
            return _median_timed(
                lambda: "".join(chunk.text for _, chunk in executor.run_dataset(dataset))
            )

    serial_output, serial_seconds = run(1)
    parallel_output, parallel_seconds = run(WORKERS)

    # Pipelining must never change the sink bytes.
    assert parallel_output == serial_output

    speedup = serial_seconds / parallel_seconds if parallel_seconds else float("inf")
    recorder["table_apply"] = {
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "serial_rows_per_sec": ROWS / serial_seconds,
        "parallel_rows_per_sec": ROWS / parallel_seconds,
        "speedup": speedup,
    }
    print(f"\npipelined table apply over {ROWS} rows on {CORES} usable CPU(s)")
    rows_table = [
        ("table apply (workers=1)", f"{serial_seconds:.2f} s", f"{ROWS / serial_seconds:,.0f} rows/s", "1.0x"),
        (
            f"table apply (workers={WORKERS})",
            f"{parallel_seconds:.2f} s",
            f"{ROWS / parallel_seconds:,.0f} rows/s",
            f"{speedup:.2f}x",
        ),
    ]
    print(format_table(["apply path", "latency", "throughput", "speedup"], rows_table))

    if _speedup_assertable():
        assert speedup >= 2.0, (
            f"pipelined table apply ({parallel_seconds:.2f} s) not >=2x faster "
            f"than serial ({serial_seconds:.2f} s) with {WORKERS} workers on "
            f"{CORES} usable CPUs"
        )


def test_perf_quarantine_mode_overhead(phone_csv, recorder):
    # Robustness must be close to free on clean data: quarantine mode's
    # only happy-path cost is the strict-first try/except around each
    # chunk (salvage replays run only after a failure), so its
    # throughput has to stay within 10% of abort mode's.
    from repro.dataset import Dataset
    from repro.engine.parallel import ShardedTableExecutor

    raw, _expected = phone_dataset(count=300, format_count=6, seed=331)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    engine = session.engine()
    dataset = Dataset.resolve(str(phone_csv))

    def run(on_error):
        with ShardedTableExecutor(
            {"phone": engine}, ["id", "phone"], workers=WORKERS, on_error=on_error
        ) as executor:
            return _median_timed(
                lambda: "".join(chunk.text for _, chunk in executor.run_dataset(dataset))
            )

    abort_output, abort_seconds = run("abort")
    quarantine_output, quarantine_seconds = run("quarantine")

    # On clean data the error mode must never change the sink bytes.
    assert quarantine_output == abort_output

    abort_rate = ROWS / abort_seconds
    quarantine_rate = ROWS / quarantine_seconds
    ratio = quarantine_rate / abort_rate if abort_rate else float("inf")
    recorder["quarantine_overhead"] = {
        "abort_seconds": abort_seconds,
        "quarantine_seconds": quarantine_seconds,
        "abort_rows_per_sec": abort_rate,
        "quarantine_rows_per_sec": quarantine_rate,
        "quarantine_vs_abort": ratio,
    }
    print(f"\nquarantine-mode overhead over {ROWS} rows on {CORES} usable CPU(s)")
    rows_table = [
        ("apply --on-error abort", f"{abort_seconds:.2f} s", f"{abort_rate:,.0f} rows/s", "1.00x"),
        (
            "apply --on-error quarantine",
            f"{quarantine_seconds:.2f} s",
            f"{quarantine_rate:,.0f} rows/s",
            f"{ratio:.2f}x",
        ),
    ]
    print(format_table(["error mode", "latency", "throughput", "relative"], rows_table))

    if _speedup_assertable():
        assert ratio >= 0.9, (
            f"quarantine mode ({quarantine_rate:,.0f} rows/s) more than 10% "
            f"slower than abort mode ({abort_rate:,.0f} rows/s) on clean data"
        )


def test_perf_hot_loop_dispatch_speedup(recorder):
    # The memoized hot loop vs the same dispatch with the memo off,
    # single core, on a heavy-hitter workload: production columns repeat
    # a small set of distinct values (area codes, vendor phone strings),
    # which is exactly what the value memo exists for.  Both are checked
    # against the reference interpreter.
    from repro.dsl.interpreter import apply_with_target
    from repro.engine.compiled import CompiledProgram
    from repro.util.rand import make_rng

    raw, _expected = phone_dataset(count=300, format_count=6, seed=331)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    artifact = session.compile().dumps()

    naive = CompiledProgram.loads(artifact, memo_size=0)
    fast = CompiledProgram.loads(artifact)  # memoized, the default

    # Zipf-ish heavy hitters: ROWS draws from a 512-value pool, rank-
    # weighted so a handful of values dominate the stream.
    pool = list(phone_number_stream(512, seed=41))
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    stream = make_rng(53).choices(pool, weights=weights, k=ROWS)

    def run(program):
        def cold_run():
            program.clear_memo()  # every repeat starts from an empty memo
            return program.run(stream)

        return _median_timed(cold_run)

    naive_report, naive_seconds = run(naive)
    fast_report, fast_seconds = run(fast)

    # The memo must never change semantics: both paths equal the
    # interpreter on every row.
    reference = {
        value: apply_with_target(fast.program, fast.target, value) for value in set(stream)
    }
    expected_outputs = [reference[value].output for value in stream]
    assert naive_report.outputs == expected_outputs
    assert fast_report.outputs == expected_outputs
    assert fast_report.matched_pattern == [reference[value].pattern for value in stream]

    stats = fast.memo_stats()
    hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
    memo_speedup = naive_seconds / fast_seconds if fast_seconds else float("inf")
    recorder["hot_loop_dispatch"] = {
        "distinct_values": len(set(stream)),
        "naive_rows_per_sec": ROWS / naive_seconds,
        "dispatch_memo": {
            "rows_per_sec": ROWS / fast_seconds,
            "speedup": memo_speedup,
            "memo_hit_rate": hit_rate,
        },
    }
    print(
        f"\nhot-loop dispatch over {ROWS} rows "
        f"({len(set(stream))} distinct values, memo hit rate {hit_rate:.3f})"
    )
    rows_table = [
        ("memo off", f"{naive_seconds:.2f} s", f"{ROWS / naive_seconds:,.0f} rows/s", "1.0x"),
        (
            "memo on (default)",
            f"{fast_seconds:.2f} s",
            f"{ROWS / fast_seconds:,.0f} rows/s",
            f"{memo_speedup:.2f}x",
        ),
    ]
    print(format_table(["dispatch path", "latency", "throughput", "speedup"], rows_table))

    assert hit_rate > 0.9  # heavy hitters must actually hit the memo
    if not SMOKE:
        # Single-core bar: the default hot loop must be at
        # least 2x the memo-off loop on the heavy-hitter bench.
        assert memo_speedup >= 2.0, (
            f"memoized dispatch ({fast_seconds:.2f} s) not >=2x faster than the "
            f"memo-off loop ({naive_seconds:.2f} s) over {ROWS} rows"
        )


#: Rows in the CSV chunk-encoder row (wide_parts-shaped, 4 cells each).
ENCODER_ROWS = min(ROWS, 50_000)

#: Timed repeats of the encoder row; the verdict is their median.
ENCODER_REPEATS = 3

#: The one-``writerows`` encoder stays only if it wins by this much.
ENCODER_MIN_SPEEDUP = 1.2


def _per_row_encode(rows, delimiter=","):
    """The encoder the one-``writerows`` fast path replaced: ``\\r`` check per row."""
    from repro.engine.serialize import _quoted_cell

    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    for row in rows:
        if any(isinstance(cell, str) and "\r" in cell for cell in row):
            buffer.write(
                delimiter.join(_quoted_cell(str(cell), delimiter) for cell in row) + "\n"
            )
        else:
            writer.writerow(row)
    return buffer.getvalue()


def _wide_rows(count):
    """Rows shaped like wide_parts output: id, quoted name, code, note."""
    from repro.util.rand import make_rng

    rng = make_rng(61)
    words = ["alpha", "beta", "gamma", "delta", "follow-up", "review", "pending"]
    rows = []
    for index in range(count):
        note = rng.choices(words, k=rng.randrange(6, 14))
        if rng.random() < 0.3:
            note.insert(1, '"quoted"')
        if rng.random() < 0.05:
            note.insert(1, "\n")
        code = f"[CPT-{rng.randrange(10_000, 100_000)}]"
        rows.append([str(index), f"Last{index % 97}, F.", code, " ".join(note)])
    return rows


def test_perf_csv_chunk_encoder(recorder):
    # Prove-or-remove row for the one-``writerows`` CSV chunk encoder:
    # apply-sized chunks with no ``\r`` (the fast path), against the
    # per-row loop it replaced, byte for byte.
    from repro.dataset.shards import DEFAULT_TABLE_CHUNK_LINES
    from repro.engine.serialize import encode_rows_csv

    rows = _wide_rows(ENCODER_ROWS)
    chunks = [
        rows[start : start + DEFAULT_TABLE_CHUNK_LINES]
        for start in range(0, len(rows), DEFAULT_TABLE_CHUNK_LINES)
    ]

    def timed_pair(chunk):
        # Both encoders back to back on one chunk, so a slow spell of the
        # host lands on both sides of the ratio.
        start = time.perf_counter()
        reference = _per_row_encode(chunk)
        middle = time.perf_counter()
        encoded = encode_rows_csv(chunk)
        end = time.perf_counter()
        assert encoded == reference
        return middle - start, end - middle

    speedups = []
    for _ in range(ENCODER_REPEATS):
        timings = [timed_pair(chunk) for chunk in chunks]
        reference_seconds = sum(pair[0] for pair in timings)
        encoded_seconds = sum(pair[1] for pair in timings)
        speedups.append(reference_seconds / encoded_seconds)
    speedup = statistics.median(speedups)
    recorder["csv_chunk_encoder"] = {"rows": ENCODER_ROWS, "speedup": speedup}
    rows_table = [
        ("rows / chunks", f"{ENCODER_ROWS}", f"{len(chunks)} chunks"),
        ("per-row loop", f"{reference_seconds:.3f} s", "last repeat"),
        ("one writerows", f"{encoded_seconds:.3f} s", "last repeat"),
        ("median speed-up", f"{speedup:.2f}x", f"of {ENCODER_REPEATS} repeats"),
    ]
    print("\n" + format_table(["csv chunk encoder", "value", "detail"], rows_table))
    if not SMOKE:
        assert speedup >= ENCODER_MIN_SPEEDUP, (
            f"one-writerows encoder is only {speedup:.2f}x the per-row loop "
            f"(median of {speedups}); expected >= {ENCODER_MIN_SPEEDUP}x"
        )


@pytest.fixture(scope="module")
def phone_parquet(tmp_path_factory):
    """The ROWS-row (id, phone) column as one multi-row-group parquet part."""
    from repro.dataset.backends import pyarrow_available

    if not pyarrow_available():
        pytest.skip("pyarrow not installed (arrow extra)")
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = tmp_path_factory.mktemp("perf_parquet") / "phones.parquet"
    ids, phones = [], []
    for index, value in enumerate(phone_number_stream(ROWS, seed=77)):
        ids.append(str(index))
        phones.append(value)
    pq.write_table(
        pa.table({"id": ids, "phone": phones}), path, row_group_size=8192
    )
    return path


def test_perf_parquet_apply(phone_parquet, recorder):
    # Columnar in/out through the backend registry: row-group shards fan
    # out like byte ranges and the parent re-encodes the wire into one
    # parquet sink.  Records the parquet_apply rows/sec trajectory row.
    from repro.dataset import Dataset
    from repro.engine.parallel import ShardedTableExecutor, apply_dataset

    raw, _expected = phone_dataset(count=300, format_count=6, seed=331)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    engine = session.engine()
    dataset = Dataset.resolve(str(phone_parquet))
    target = phone_parquet.parent / "out.parquet"

    start = time.perf_counter()
    with ShardedTableExecutor(
        {"phone": engine}, ["id", "phone"], workers=WORKERS, out_format="parquet"
    ) as executor:
        result = apply_dataset(executor, dataset, output=target)
    seconds = time.perf_counter() - start

    assert result.rows == ROWS
    rate = ROWS / seconds if seconds else float("inf")
    recorder["parquet_apply"] = {
        "seconds": seconds,
        "rows_per_sec": rate,
        "workers": WORKERS,
    }
    print(f"\nparquet apply over {ROWS} rows on {CORES} usable CPU(s)")
    print(
        format_table(
            ["apply path", "latency", "throughput"],
            [(f"parquet apply (workers={WORKERS})", f"{seconds:.2f} s", f"{rate:,.0f} rows/s")],
        )
    )
