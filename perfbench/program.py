"""The measured side: drive repro's public API over rendered inputs.

``run.py`` spawns this script in a fresh interpreter per measurement::

    python3 perfbench/program.py MODE WORKDIR SECONDS

``WORKDIR`` holds ``job.json`` (workload name, and for the table
workloads the column, worker count and target label a user would give)
and the rendered inputs.  Nothing here sees the expected outputs.

Modes:

* ``setup`` — import, load the inputs and the artifact, start the
  executor (and its pool), warm up on a small input, print ``ready`` and
  exit.  The parent times spawn-to-``ready``.
* ``run`` — the untraced closed loop (one client, each step starts when
  the previous returns) for ``SECONDS``; writes ``result.json``.
* ``trace`` — the same loop, plus one traced replay per round composed
  from the public calls of each layer; also writes ``spans.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import repro.clustering.cluster as cluster_module
import repro.clustering.incremental as incremental_module
import repro.clustering.profiler as profiler_module
from repro import (
    CLXSession,
    ColumnProfile,
    CompiledProgram,
    Dataset,
    IncrementalProfiler,
    ParallelProfiler,
    PatternHierarchy,
    ShardedTableExecutor,
    apply_dataset,
)
from repro.analysis import analyze_program
from repro.dataset.backends import backend_by_name, open_locator
from repro.engine.parallel import DEFAULT_APPLY_SHARD_BYTES, DEFAULT_TABLE_CHUNK_LINES
from repro.util.csvio import iter_record_cut_points, record_open_after
from repro.util.sinks import AtomicSink

from spans import Tracer, layer_seconds

clock = time.perf_counter

#: Rounds a run makes at least: every timed segment is taken at its
#: fastest round, so a run needs several rounds to catch the host at
#: full speed.
MIN_ROUNDS = {"run": 4, "trace": 2}

#: ``apply_dataset`` passes per round on a table workload: a pass takes
#: well under a second, so two per round time each segment more often.
APPLY_PASSES = 2

#: Values the serial profiler pulls between two timestamps.
PROFILE_SEGMENT = 10_000

#: Branch slots reported as ``engine.branches_hit.<i>``; hits on later
#: branches are summed into the last slot.
BRANCH_SLOTS = 8


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_values(values: List[str]) -> str:
    return hashlib.sha256("\x00".join(values).encode("utf-8")).hexdigest()


class Stamps:
    """Timestamps at the boundaries a timed call exposes from outside.

    A pass is cut where the public API shows progress (chunks drawn from
    ``run_dataset``, values pulled by the profiler); the parent takes
    each segment's fastest round, so a pass is timed at full host speed
    even when no whole pass ran at it.
    """

    def __init__(self) -> None:
        self.times = [clock()]

    def mark(self) -> None:
        self.times.append(clock())

    def segments(self) -> List[float]:
        """Close the last segment; seconds per segment."""
        self.mark()
        return [later - earlier for earlier, later in zip(self.times, self.times[1:])]


def stamped(items: Iterable[Any], stamps: Stamps, every: int) -> Iterator[Any]:
    """Yield ``items``, marking ``stamps`` each time ``every`` were consumed."""
    for index, item in enumerate(items, 1):
        yield item
        if index % every == 0:
            stamps.mark()


class NoTracer:
    """Stand-in for :class:`~spans.Tracer` in untraced passes."""

    def span(self, name: str) -> Any:
        return nullcontext()


UNTRACED = NoTracer()


@contextmanager
def traced_calls(tracer: Tracer, targets: List[Tuple[Any, str, str]]) -> Iterator[None]:
    """Route each ``(module, attr, name)`` call through a rollup while open."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    for module, attr, name in targets:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


# ----------------------------------------------------------------------
# The user's loop: profile, label, synthesize, compile, verify, run, apply
# ----------------------------------------------------------------------
def profile_column(
    dataset: Dataset, column: str, workers: int, stamps: Optional[Stamps] = None
) -> Tuple[ColumnProfile, PatternHierarchy]:
    """The profile step of ``repro-clx compile`` (serial) or ``profile``."""
    if workers == 1:
        values: Iterable[str] = dataset.iter_values(column)
        if stamps is not None:
            values = stamped(values, stamps, PROFILE_SEGMENT)
        profile = IncrementalProfiler().profile(values)
    else:
        profile = ParallelProfiler(workers=workers).profile_dataset(dataset, column)
    return profile, profile.to_hierarchy()


def session_once(
    tracer: Any, task: Dict[str, Any]
) -> Tuple[CompiledProgram, Dict[str, int], List[str], float]:
    """One interactive session: profile, label, synthesize, compile, verify, run.

    Returns the artifact, facts about the session, the outputs of
    ``run`` over the task's values, and the seconds spent profiling
    (opening the session on the raw values).
    """
    values = task["inputs"]
    with tracer.span("session"):
        began = clock()
        with tracer.span("clustering.profile"):
            session = CLXSession(values)
        opened = clock() - began
        compiled, result, analysis = _label_and_compile(tracer, session, task)
        with tracer.span("engine.run"):
            report = compiled.run(values)
    facts = {
        "leaves": len(session.hierarchy.leaf_nodes),
        "branches": len(result.program.branches),
        "findings": len(analysis.findings),
        "flagged": sum(1 for pattern in report.matched_pattern if pattern is None),
    }
    return compiled, facts, report.outputs, opened


def _label_and_compile(
    tracer: Any, session: CLXSession, task: Dict[str, Any]
) -> Tuple[CompiledProgram, Any, Any]:
    """Label the target, synthesize, compile and verify the artifact."""
    with tracer.span("core.label"):
        if task.get("target_notation"):
            session.label_target_from_notation(task["target_notation"])
        else:
            session.label_target_from_string(
                task["target_example"], generalize=task.get("generalize", 0)
            )
    with tracer.span("synthesis.synthesize"):
        result = session.synthesize()
    with tracer.span("engine.compile"):
        compiled = session.compile(metadata={"column": task.get("column", "value")})
    with tracer.span("analysis.analyze"):
        analysis = analyze_program(
            compiled, name=task.get("task", "artifact"), hierarchy=session.hierarchy
        )
    return compiled, result, analysis


def table_executor(
    column: str, compiled: CompiledProgram, dataset: Dataset, workers: int
) -> ShardedTableExecutor:
    return ShardedTableExecutor({column: compiled}, header=dataset.header(), workers=workers)


# ----------------------------------------------------------------------
# Traced replays, composed from the public pieces of each layer
# ----------------------------------------------------------------------
def plan_shards(part: Any, delimiter: str, shard_bytes: int) -> List[Tuple[int, int, int]]:
    """``(start, end, first_line)`` record-aligned shards, as apply plans them."""
    backend = backend_by_name(part.format)
    _, data_start, first_line = backend.data_region(part.locator, delimiter)
    size = part.size
    if size <= data_start:
        return []
    pieces = -(-(size - data_start) // shard_bytes)
    previous = (data_start, first_line)
    shards = []
    if pieces > 1:
        step = -(-(size - data_start) // pieces)
        for cut, line in iter_record_cut_points(
            part.locator,
            data_start,
            size,
            list(range(data_start + step, size, step)),
            delimiter=delimiter,
            first_line=first_line,
            csv_quoting=backend.csv_quoting,
            opener=open_locator,
        ):
            if previous[0] < cut:
                shards.append((previous[0], cut, previous[1]))
                previous = (cut, line)
    if previous[0] < size:
        shards.append((previous[0], size, previous[1]))
    return shards


def record_chunks(
    lines: List[str], first_line: int, limit: int, delimiter: str, csv_quoting: bool
) -> List[Tuple[int, List[str]]]:
    """Group lines into chunks of ``limit`` lines, closing only between records."""
    chunks = []
    chunk: List[str] = []
    chunk_first = first_line
    record_open = False
    for number, line in enumerate(lines, start=first_line):
        chunk.append(line)
        if csv_quoting:
            record_open = record_open_after(line, delimiter, record_open)
        if len(chunk) >= limit and not record_open:
            chunks.append((chunk_first, chunk))
            chunk = []
            chunk_first = number + 1
    if chunk:
        chunks.append((chunk_first, chunk))
    return chunks


def replay_apply(
    tracer: Tracer,
    column: str,
    artifact: str,
    dataset: Dataset,
    out: Path,
    counts: Counter,
    shard_bytes: int = DEFAULT_APPLY_SHARD_BYTES,
) -> None:
    """``apply_dataset`` into one sink file, rebuilt from its public pieces.

    plan (``data_region`` + ``iter_record_cut_points``) -> per shard
    ``read_shard_lines`` -> record-aligned chunks (``record_open_after``)
    -> ``parse_rows`` -> ``CompiledProgram.run`` -> ``encode_rows`` ->
    ``AtomicSink``, all in this process, on a freshly loaded artifact.
    """
    compiled = CompiledProgram.loads(artifact)
    spec = table_executor(column, compiled, dataset, workers=1).spec
    ((input_index, output_index),) = spec.transforms
    encoder = backend_by_name(spec.out_format)
    slots: Dict[Any, int] = {}
    for index, branch in enumerate(compiled.program.branches):
        slots.setdefault(branch.pattern, min(index, BRANCH_SLOTS - 1))
    with tracer.span("apply"):
        sink = AtomicSink(out)
        with tracer.span("util.sinks.write"):
            sink.open()
            sink.write(encoder.header_text(spec.output_fields, spec.delimiter))
        for part in dataset.parts:
            backend = backend_by_name(part.format)
            with tracer.span("util.csvio.split"):
                shards = plan_shards(part, spec.delimiter, shard_bytes)
            counts["util.csvio.cut_points"] += max(0, len(shards) - 1)
            for start, end, first_line in shards:
                counts["dataset.bytes"] += end - start
                with tracer.span("dataset.read"):
                    lines = list(
                        backend.read_shard_lines(part.locator, start, end, first_line=first_line)
                    )
                with tracer.span("util.csvio.record_open"):
                    chunks = record_chunks(
                        lines, first_line, DEFAULT_TABLE_CHUNK_LINES, spec.delimiter,
                        backend.csv_quoting,
                    )
                for chunk_first, chunk in chunks:
                    with tracer.span("dataset.parse"):
                        rows = backend.parse_rows(spec, chunk_first, chunk, part.locator)
                    with tracer.span("engine.dispatch"):
                        report = compiled.run([row[input_index] for row in rows])
                        for row, output in zip(rows, report.outputs):
                            row[output_index] = output
                    for pattern, hits in Counter(report.matched_pattern).items():
                        if pattern is None:
                            counts["engine.unmatched"] += hits
                        elif pattern in slots:
                            counts[f"engine.branches_hit.{slots[pattern]}"] += hits
                        else:
                            counts["engine.target_hits"] += hits
                    with tracer.span("dataset.encode"):
                        text = encoder.encode_rows(spec.output_fields, rows, spec.delimiter)
                    with tracer.span("util.sinks.write"):
                        sink.write(text)
        with tracer.span("util.sinks.commit"):
            sink.commit()
    stats = compiled.memo_stats()
    counts["engine.memo_hits"] += stats["hits"]
    counts["engine.memo_misses"] += stats["misses"]


def parallel_pass(
    tracer: Tracer,
    build: Callable[[], ShardedTableExecutor],
    dataset: Dataset,
    out: Path,
    counts: Counter,
    shard_bytes: int = DEFAULT_APPLY_SHARD_BYTES,
) -> None:
    """Iterate ``run_dataset`` at the workload's worker count into a sink.

    ``engine.parallel.start`` runs from building the executor to the
    first chunk; every later ``next()`` is ``engine.parallel.wait``.
    """
    executor: Optional[ShardedTableExecutor] = None
    try:
        with tracer.span("apply.parallel"):
            with tracer.span("engine.parallel.start"):
                executor = build()
                stream = executor.run_dataset(dataset, shard_bytes=shard_bytes)
                item = next(stream, None)
            sink = AtomicSink(out)
            with tracer.span("util.sinks.write"):
                sink.open()
                sink.write(executor.header_text())
            while item is not None:
                counts["engine.parallel.chunks"] += 1
                with tracer.span("util.sinks.write"):
                    sink.write(item[1].text)
                with tracer.span("engine.parallel.wait"):
                    item = next(stream, None)
            with tracer.span("util.sinks.commit"):
                sink.commit()
    finally:
        if executor is not None:
            executor.close()


def replay_profile(tracer: Tracer, dataset: Dataset, column: str) -> ColumnProfile:
    """Profile one shard per part, merge the shards, lower the hierarchy.

    The profiler's tokenizer calls and the pulls from the value readers
    are timed as rollups; a one-part dataset skips the merge, as the
    serial ``compile`` path does.
    """
    profiler = IncrementalProfiler()
    shards = []
    with traced_calls(tracer, [(incremental_module, "tokenize", "tokens.tokenize")]):
        with tracer.span("profile"):
            for part in dataset.parts:
                with tracer.span("clustering.profile"):
                    values = tracer.iterate(
                        "dataset.iter_values", Dataset([part]).iter_values(column)
                    )
                    shards.append(profiler.profile(values))
            merged = shards[0]
            if len(shards) > 1:
                with tracer.span("clustering.merge"):
                    merged = ColumnProfile.merge_all(shards)
            with tracer.span("clustering.hierarchy"):
                merged.to_hierarchy()
    return merged


def layer_metrics(tracer: Tracer, counts: Counter) -> Dict[str, Any]:
    """Counts of one traced round, plus wall and per-layer self time by root."""
    roots = {}
    for root in ("profile", "profile.parallel", "apply", "apply.parallel", "session"):
        wall, layers = layer_seconds(tracer, root)
        if wall:
            roots[root] = {"wall": wall, "layers": layers}
    return {"counts": dict(counts), "roots": roots}


# ----------------------------------------------------------------------
# Workload loops
# ----------------------------------------------------------------------
def ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def session_round(tracer: Any, tasks: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Every task's session once, back to back (a closed loop, one client)."""
    round_: Dict[str, Any] = {
        "artifacts": {}, "outputs": {}, "session_ms": [], "opened": [], "facts": Counter()
    }
    for task in tasks:
        began = clock()
        compiled, facts, outputs, opened = session_once(tracer, task)
        round_["session_ms"].append((clock() - began) * 1000.0)
        round_["opened"].append(opened)
        round_["artifacts"][task["task"]] = compiled
        round_["outputs"][task["task"]] = sha256_values(outputs)
        round_["facts"].update(facts)
    return round_


def traced_session_round(tracer: Tracer, tasks: List[Dict[str, Any]]) -> None:
    """A session round with the profiler's tokenizer and refinement rolled up."""
    with traced_calls(
        tracer,
        [
            (cluster_module, "tokenize", "tokens.tokenize"),
            (profiler_module, "refine_layer", "clustering.hierarchy"),
        ],
    ):
        session_round(tracer, tasks)


def run_loop(
    job: Dict[str, Any],
    workdir: Path,
    seconds: float,
    traced: bool,
    passes: Callable[[Dict[str, Any], Dict[str, Any]], None],
    traced_passes: Callable[[Tracer, Dict[str, Any], Counter], None],
) -> Dict[str, Any]:
    """Rounds of sessions plus the workload's own passes, until time is up.

    Each round runs ``job["session_rounds"]`` session rounds (each one
    timing of every session), then ``passes``, which append one
    list of seconds per round to ``profile_s`` and ``apply_s`` (one entry
    per task the pass times separately); a traced run also runs a traced
    session round and ``traced_passes`` into a fresh tracer per round.
    """
    tasks = json.loads((workdir / "tasks.json").read_text(encoding="utf-8"))
    result: Dict[str, Any] = {
        "tasks": [task["task"] for task in tasks], "session_ms": [], "profile_s": [],
        "apply_s": [], "flagged": [], "layers": [],
    }
    tracers: List[Tracer] = []
    started = clock()
    rounds = 0
    while True:
        for _ in range(job.get("session_rounds", 1)):
            round_ = session_round(UNTRACED, tasks)
            result["session_ms"].append(round_["session_ms"])
        passes(result, round_)
        if traced:
            tracer = Tracer(f"{job['run_id']}.{len(tracers)}")
            tracers.append(tracer)
            counts: Counter = Counter()
            traced_session_round(tracer, tasks)
            traced_passes(tracer, round_, counts)
            result["layers"].append(layer_metrics(tracer, counts))
        rounds += 1
        if clock() - started >= seconds and rounds >= MIN_ROUNDS["trace" if traced else "run"]:
            break
    if tracers:
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as handle:
            for tracer in tracers:
                tracer.dump(handle)
    return result


def run_table(job: Dict[str, Any], workdir: Path, seconds: float, traced: bool) -> Dict[str, Any]:
    """phone_column / wide_parts: sessions on column samples, then the
    whole column applied and profiled, every round."""
    column, workers = job["column"], job["workers"]
    shard_bytes = job.get("shard_bytes", DEFAULT_APPLY_SHARD_BYTES)
    dataset = Dataset.resolve(str(workdir / "data"))
    warm = Dataset.resolve(str(workdir / "warm"))
    sink = workdir / "out" / "sink.csv"
    scratch = workdir / "scratch"
    ready()
    profile_column(warm, column, workers)
    profile, hierarchy = profile_column(dataset, column, workers)
    session = CLXSession.from_profile(hierarchy)
    compiled, synthesized, analysis = _label_and_compile(UNTRACED, session, job)
    artifact = compiled.dumps()
    (workdir / "artifact.clx.json").write_text(artifact, encoding="utf-8")
    facts = {
        "rows": profile.row_count,
        "leaves": len(hierarchy.leaf_nodes),
        "findings": len(analysis.findings),
        "branches": len(synthesized.program.branches),
        "sinks": [],
        "written": [],
    }

    with table_executor(column, compiled, dataset, workers) as executor:
        apply_dataset(executor, warm, output=scratch / "warm.csv")
        run_dataset = executor.run_dataset

        def passes(result: Dict[str, Any], round_: Dict[str, Any]) -> None:
            for _ in range(APPLY_PASSES):
                stamps = Stamps()
                if workers == 1:
                    # apply_dataset draws its chunks from this instance
                    # attribute.  Inline, each chunk is computed as it is
                    # drawn; a pool delivers chunks in bursts, so there
                    # the whole pass is one segment.
                    executor.run_dataset = lambda *args, **kwargs: stamped(  # type: ignore[method-assign]
                        run_dataset(*args, **kwargs), stamps, 1
                    )
                applied = apply_dataset(executor, dataset, output=sink, shard_bytes=shard_bytes)
                result["apply_s"].append(stamps.segments())
                facts["sinks"].append(sha256_file(sink))
                facts["written"].append(applied.rows)
                result["flagged"].append(applied.flagged)
            # A parallel profile pass is one segment: time it twice.
            for _ in range(1 if workers == 1 else 2):
                stamps = Stamps()
                profile_column(dataset, column, workers, stamps)
                result["profile_s"].append(stamps.segments())

        def traced_passes(tracer: Tracer, round_: Dict[str, Any], counts: Counter) -> None:
            replayed = replay_profile(tracer, dataset, column)
            if replayed.leaf_counts() != profile.leaf_counts():
                raise SystemExit("traced profile replay disagrees with the profiler")
            counts["clustering.leaf_patterns"] = facts["leaves"]
            counts["synthesis.branches"] = facts["branches"]
            counts["analysis.findings"] = facts["findings"]
            if workers > 1:
                with tracer.span("profile.parallel"):
                    profile_column(dataset, column, workers)
            replay_apply(
                tracer, column, artifact, dataset, scratch / "apply.csv", counts, shard_bytes
            )
            parallel_pass(
                tracer,
                lambda: table_executor(column, CompiledProgram.loads(artifact), dataset, workers),
                dataset,
                scratch / "apply.parallel.csv",
                counts,
                shard_bytes,
            )
            facts["sinks"] += [
                sha256_file(scratch / "apply.csv"), sha256_file(scratch / "apply.parallel.csv")
            ]

        measured = run_loop(job, workdir, seconds, traced, passes, traced_passes)
    measured.update(facts)
    return measured


def run_suite(job: Dict[str, Any], workdir: Path, seconds: float, traced: bool) -> Dict[str, Any]:
    """suite_sessions: the 47 sessions, then every artifact applied to its
    task's file, every round."""
    tasks = json.loads((workdir / "tasks.json").read_text(encoding="utf-8"))
    datasets = {
        task["task"]: Dataset.resolve(str(workdir / "data" / f"{task['task']}.csv"))
        for task in tasks
    }
    out = workdir / "out"
    sinks: Dict[str, set] = {name: set() for name in datasets}
    last: Dict[str, Any] = {}
    ready()

    def passes(result: Dict[str, Any], round_: Dict[str, Any]) -> None:
        result["profile_s"].append(round_["opened"])
        applied: List[float] = []
        flagged = 0
        for name, compiled in round_["artifacts"].items():
            began = clock()
            with table_executor("value", compiled, datasets[name], workers=1) as executor:
                flagged += apply_dataset(
                    executor, datasets[name], output=out / f"{name}.csv"
                ).flagged
            applied.append(clock() - began)
        result["apply_s"].append(applied)
        result["flagged"].append(flagged)
        for name in round_["artifacts"]:
            sinks[name].add(sha256_file(out / f"{name}.csv"))
        last.update(round_)

    def traced_passes(tracer: Tracer, round_: Dict[str, Any], counts: Counter) -> None:
        facts = round_["facts"]
        counts["synthesis.branches"] = facts["branches"]
        counts["analysis.findings"] = facts["findings"]
        counts["clustering.leaf_patterns"] = facts["leaves"]
        for name, compiled in round_["artifacts"].items():
            artifact = compiled.dumps()
            replay = workdir / "scratch" / f"{name}.apply.csv"
            parallel = workdir / "scratch" / f"{name}.apply.parallel.csv"
            replay_apply(tracer, "value", artifact, datasets[name], replay, counts)
            parallel_pass(
                tracer,
                lambda: table_executor(
                    "value", CompiledProgram.loads(artifact), datasets[name], workers=1
                ),
                datasets[name],
                parallel,
                counts,
            )
            sinks[name] |= {sha256_file(replay), sha256_file(parallel)}

    result = run_loop(job, workdir, seconds, traced, passes, traced_passes)
    facts = last["facts"]
    result.update(
        rows=sum(len(task["inputs"]) for task in tasks),
        leaves=facts["leaves"],
        findings=facts["findings"],
        branches=facts["branches"],
        session_flagged=facts["flagged"],
        outputs=last["outputs"],
        sinks={name: sorted(hashes) for name, hashes in sinks.items()},
    )
    return result


def setup(job: Dict[str, Any], workdir: Path) -> None:
    """Everything a fresh process does before it can serve its first call."""
    tasks = json.loads((workdir / "tasks.json").read_text(encoding="utf-8"))
    session_once(UNTRACED, min(tasks, key=lambda task: task["task"]))
    if job["workload"] != "suite_sessions":
        dataset = Dataset.resolve(str(workdir / "data"))
        artifact = (workdir / "artifact.clx.json").read_text(encoding="utf-8")
        warm = Dataset.resolve(str(workdir / "warm"))
        compiled = CompiledProgram.loads(artifact)
        with table_executor(job["column"], compiled, dataset, job["workers"]) as executor:
            apply_dataset(executor, warm, output=workdir / "scratch" / "setup.csv")
            ready()
        return
    ready()


def main(argv: List[str]) -> int:
    mode, workdir, seconds = argv[0], Path(argv[1]), float(argv[2])
    job = json.loads((workdir / "job.json").read_text(encoding="utf-8"))
    if mode == "setup":
        setup(job, workdir)
        return 0
    runner = run_suite if job["workload"] == "suite_sessions" else run_table
    result = runner(job, workdir, seconds, traced=mode == "trace")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
