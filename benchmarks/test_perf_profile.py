"""Performance A6 — constant-memory profiling.

:class:`repro.clustering.incremental.IncrementalProfiler` must profile a
≥200k-row synthetic phone column from a generator with memory bounded
by the number of distinct patterns, not the number of rows (the batch
profiler materializes every value), while producing the exact same leaf
patterns and counts.  The multi-process profile and apply rows live in
``test_perf_table.py``.

``CLX_PERF_ROWS`` scales the workload down for smoke runs (CI runs the
file with a small value so the scale path cannot rot); the memory
assertion always applies.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc

from repro.bench.generators import phone_number_stream
from repro.clustering.incremental import IncrementalProfiler
from repro.clustering.profiler import PatternProfiler
from repro.util.text import format_table

#: Rows in the scale workloads; override with CLX_PERF_ROWS for smoke runs.
FULL_ROWS = 200_000
ROWS = int(os.environ.get("CLX_PERF_ROWS", str(FULL_ROWS)))
SMOKE = ROWS < FULL_ROWS

#: tracemalloc costs ~5x, so the memory bound is asserted on a capped
#: prefix of the workload — the whole point is that peak memory does not
#: depend on the row count, so the cap loses no generality.
TRACED_ROWS = min(ROWS, 50_000)


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
