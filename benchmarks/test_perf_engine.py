"""Performance A5 — compiled batch apply vs. per-value interpretation.

The engine split exists so that a program synthesized once (the Fig. 11
phone user study, case 300(6)) can be applied to production-sized data at
regex speed.  This benchmark synthesizes the 300(6) program once, scales
the same workload up to a large column, and compares:

* the seed path — per-value :func:`repro.dsl.interpreter.apply_program`
  plus a target pass-through check per value (what ``transform_column``
  did before the engine existed), and
* the engine path — :meth:`repro.engine.compiled.CompiledProgram.run`.

The acceptance bar for the engine PR: the compiled batch apply must be at
least 2x faster than per-value interpretation on this workload.
"""

from __future__ import annotations

import os
import time

from repro.bench.phone import phone_dataset
from repro.core.session import CLXSession
from repro.dsl.interpreter import apply_program, apply_with_target
from repro.engine.compiled import CompiledProgram
from repro.patterns.matching import matches
from repro.util.text import format_table

#: Rows in the scaled apply workload (the 300(6) study column, repeated).
#: CLX_PERF_ROWS (capped at the default) scales it down for smoke runs,
#: where the wall-clock assertions are skipped — contended CI runners
#: only check semantics, not speed.
FULL_APPLY_ROWS = 30_000
APPLY_ROWS = min(int(os.environ.get("CLX_PERF_ROWS", str(FULL_APPLY_ROWS))), FULL_APPLY_ROWS)
SMOKE = APPLY_ROWS < FULL_APPLY_ROWS


def _interpret_column(program, values, target):
    """The pre-engine apply loop: cached-regex lookups per value."""
    outputs = []
    for value in values:
        if matches(value, target):
            outputs.append(value)
        else:
            outputs.append(apply_program(program, value).output)
    return outputs


def test_perf_engine_vs_interpreter(benchmark):
    # Synthesize once on the Fig. 11 300(6) study column.
    raw, _expected = phone_dataset(count=300, format_count=6, seed=331)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    compiled = session.compile()
    program, target = session.program, session.target

    # Scale the same format mix up to the apply workload.
    values, _ = phone_dataset(count=APPLY_ROWS, format_count=6, seed=97)

    benchmark.pedantic(compiled.run, args=(values,), rounds=1, iterations=1)

    start = time.perf_counter()
    interpreted = _interpret_column(program, values, target)
    interpreter_seconds = time.perf_counter() - start

    start = time.perf_counter()
    report = compiled.run(values)
    engine_seconds = time.perf_counter() - start

    assert report.outputs == interpreted  # same semantics before comparing speed

    speedup = interpreter_seconds / engine_seconds
    rows = [
        ("per-value apply_program", f"{interpreter_seconds * 1000:.1f} ms", "1.0x"),
        ("CompiledProgram.run", f"{engine_seconds * 1000:.1f} ms", f"{speedup:.1f}x"),
    ]
    print(f"\nFig. 11 workload scaled to {APPLY_ROWS} rows, {len(program)} branches")
    print(format_table(["apply path", "latency", "speedup"], rows))

    if not SMOKE:
        assert speedup >= 2.0, (
            f"compiled apply only {speedup:.2f}x faster than interpretation "
            f"({engine_seconds * 1000:.1f} ms vs {interpreter_seconds * 1000:.1f} ms)"
        )


def test_perf_engine_streaming_overhead(benchmark):
    """run_iter's chunked streaming should stay close to batch run."""
    raw, _expected = phone_dataset(count=300, format_count=6, seed=331)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    engine = session.engine()
    values, _ = phone_dataset(count=APPLY_ROWS, format_count=6, seed=53)

    benchmark.pedantic(lambda: sum(1 for _ in engine.run_iter(values)), rounds=1, iterations=1)

    start = time.perf_counter()
    batch = engine.run(values)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    streamed = [outcome.output for outcome in engine.run_iter(iter(values), chunk_size=4096)]
    stream_seconds = time.perf_counter() - start

    assert streamed == batch.outputs
    print(
        f"\nbatch {batch_seconds * 1000:.1f} ms vs streamed {stream_seconds * 1000:.1f} ms "
        f"({APPLY_ROWS} rows)"
    )
    # Streaming yields TransformOutcome objects per value, so allow slack,
    # but it must stay the same order of magnitude as batch apply.
    if not SMOKE:
        assert stream_seconds < batch_seconds * 6


def test_perf_memo_on_repeated_values(benchmark):
    """The value memo must make repeated values nearly free.

    The 300(6) program applied to a stream where every distinct value
    appears many times (the heavy-hitter shape of real columns): the
    default memoized hot loop has to beat the same program reloaded
    with the memo disabled, and both must equal the reference
    interpreter.
    """
    raw, _expected = phone_dataset(count=300, format_count=6, seed=331)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    artifact = session.compile().dumps()

    fast = CompiledProgram.loads(artifact)
    naive = CompiledProgram.loads(artifact, memo_size=0)

    # 300 distinct values repeated to the apply size, deterministic order.
    distinct, _ = phone_dataset(count=300, format_count=6, seed=97)
    values = (distinct * (APPLY_ROWS // len(distinct) + 1))[:APPLY_ROWS]

    benchmark.pedantic(fast.run, args=(values,), rounds=1, iterations=1)

    start = time.perf_counter()
    naive_report = naive.run(values)
    naive_seconds = time.perf_counter() - start

    fast.clear_memo()
    start = time.perf_counter()
    fast_report = fast.run(values)
    fast_seconds = time.perf_counter() - start

    reference = {
        value: apply_with_target(fast.program, fast.target, value).output
        for value in distinct
    }
    expected = [reference[value] for value in values]
    assert naive_report.outputs == expected
    assert fast_report.outputs == expected
    stats = fast.memo_stats()
    hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
    speedup = naive_seconds / fast_seconds if fast_seconds else float("inf")
    print(
        f"\nmemoized {fast_seconds * 1000:.1f} ms vs naive {naive_seconds * 1000:.1f} ms "
        f"({APPLY_ROWS} rows, {len(distinct)} distinct, hit rate {hit_rate:.3f}, "
        f"{speedup:.1f}x)"
    )
    assert hit_rate > 0.9
    if not SMOKE:
        assert speedup >= 2.0, (
            f"memoized run only {speedup:.2f}x faster than the naive loop "
            f"({fast_seconds * 1000:.1f} ms vs {naive_seconds * 1000:.1f} ms)"
        )
