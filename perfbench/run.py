"""One benchmark for CLX: profile -> verify -> compile -> apply, measured.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wide_parts --seed 1 --seconds 45 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``phone_column`` — 50k distinct phone numbers in seven formats, one
  CSV; serial profile, ``workers=1`` apply.  Runnable by hand, but not
  in ``BENCHMARK.json`` (see ``README.md``).
* ``wide_parts`` — 100k four-column rows over 16 CSV/JSONL parts, a
  heavy-hitter code column; profile and apply on 2 workers.
* ``suite_sessions`` — the 47 suite tasks as interactive sessions, each
  artifact then applied to its task's file.

The benchmark renders the workload's inputs from ``--seed`` (untimed),
runs the program in fresh processes (``program.py``) against those files
only, reads every sink back and checks it against the truth it kept
(``gate.py``), and prints each metric by name with its unit.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced replay with
``--trace 1``.  A failed gate exits 1; a missing program source or a
crashed program exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from gate import GateError, check_suite, check_table
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Worker processes per workload; never more than a 2-core host has.
WORKERS = {"phone_column": 1, "wide_parts": 2, "suite_sessions": 1}

#: Session rounds per round of the run.  A table workload's passes leave
#: its sessions a small share of each round, so they run twice: the tail
#: latency needs most of its 100 sessions timed at full host speed.
SESSION_ROUNDS = {"phone_column": 2, "wide_parts": 2, "suite_sessions": 1}

#: Fresh processes timed from spawn to ready; ``setup_s`` is their median.
SETUP_SAMPLES = 9

#: Seconds a child may run beyond ``--seconds`` before it is killed.
CHILD_GRACE = 120.0

END_TO_END: List[Tuple[str, str]] = [
    ("profile_rows_per_s", "rows/s"),
    ("apply_rows_per_s", "rows/s"),
    ("session_p50_ms", "ms"),
    ("session_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "share"),
    ("flagged_share", "share"),
    ("patterns_to_verify", "count"),
    ("clean_share", "share"),
]

#: Per-layer metrics of the traced run, in report order.
PER_LAYER: List[Tuple[str, str]] = (
    [
        ("util.csvio.split_s", "s"),
        ("util.csvio.cut_points", "count"),
        ("util.csvio.record_open_s", "s"),
        ("dataset.read_s", "s"),
        ("dataset.bytes", "bytes"),
        ("dataset.parse_s", "s"),
        ("dataset.encode_s", "s"),
        ("dataset.iter_values_s", "s"),
        ("engine.dispatch_s", "s"),
        ("engine.memo_hit_rate", "share"),
        ("engine.memo_hits", "count"),
        ("engine.memo_misses", "count"),
        ("engine.target_hits", "count"),
        ("engine.unmatched", "count"),
    ]
    + [(f"engine.branches_hit.{slot}", "count") for slot in range(8)]
    + [
        ("engine.parallel.start_s", "s"),
        ("engine.parallel.wait_s", "s"),
        ("engine.parallel.chunks", "count"),
        ("util.sinks.write_s", "s"),
        ("util.sinks.commit_s", "s"),
        ("tokens.tokenize_s", "s"),
        ("clustering.profile_s", "s"),
        ("clustering.merge_s", "s"),
        ("clustering.hierarchy_s", "s"),
        ("clustering.leaf_patterns", "count"),
        ("core.label_s", "s"),
        ("synthesis.synthesize_s", "s"),
        ("synthesis.branches", "count"),
        ("engine.compile_s", "s"),
        ("analysis.analyze_s", "s"),
        ("analysis.findings", "count"),
        ("engine.run_s", "s"),
        ("residual.apply_s", "s"),
        ("residual.profile_s", "s"),
        ("residual.session_s", "s"),
        ("trace.apply_s", "s"),
        ("trace.apply_replay_s", "s"),
        ("trace.profile_s", "s"),
        ("trace.profile_replay_s", "s"),
        ("trace.session_s", "s"),
        ("trace.apply_overhead", "share"),
        ("trace.profile_overhead", "share"),
        ("trace.session_overhead", "share"),
    ]
)


class BenchError(Exception):
    """The program could not be run to completion."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def spawn(mode: str, workdir: Path, seconds: float) -> float:
    """Run ``program.py`` in a fresh interpreter; seconds from spawn to ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    deadline = time.monotonic() + seconds + CHILD_GRACE
    began = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "program.py"), mode, str(workdir), str(seconds)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        start_new_session=True,  # its pool workers share the group we may kill
    )
    assert child.stdout is not None
    ready_after: Optional[float] = None
    try:
        readable, _, _ = select.select([child.stdout], [], [], deadline - time.monotonic())
        if readable and child.stdout.readline().strip() == b"ready":
            ready_after = time.perf_counter() - began
        child.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        child.stdout.close()
    if child.returncode != 0 or ready_after is None:
        raise BenchError(f"program.py {mode} exited with {child.returncode}")
    return ready_after


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def nearest_rank(values: List[float], quantile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


def tail_rank(count: int) -> int:
    """1-based rank of the tail percentile: p90, or the highest rank with
    at least ten sessions beyond it when there are fewer than 100."""
    return max(1, min(math.ceil(0.9 * count), count - 10))


def session_bests(result: Dict[str, Any]) -> List[float]:
    """Each session's best latency over the rounds, in milliseconds.

    The host alternates between full speed and a ~40% slower state for
    seconds at a time, so one round's samples share its state; each
    session's best round is its latency at full speed.
    """
    return [min(samples) for samples in zip(*result["session_ms"])]


def best_total(samples: List[List[float]]) -> float:
    """Seconds of a pass at full host speed: per segment of the pass (a
    task, a chunk, a run of values), its fastest round, summed."""
    return sum(min(task) for task in zip(*samples))


def round_totals(samples: List[List[float]]) -> List[float]:
    return [sum(sample) for sample in samples]


def end_to_end(result: Dict[str, Any], figures: Dict[str, float], setup: List[float]) -> Dict[str, float]:
    rows = result["rows"]
    bests = session_bests(result)
    return {
        "profile_rows_per_s": rows / best_total(result["profile_s"]),
        "apply_rows_per_s": rows / best_total(result["apply_s"]),
        "session_p50_ms": nearest_rank(bests, 0.5),
        "session_p90_ms": sorted(bests)[tail_rank(len(bests)) - 1],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "accuracy": figures["correct"] / figures["rows"],
        "flagged_share": figures["flagged"] / figures["rows"],
        "patterns_to_verify": result["leaves"],
        "clean_share": figures["rows"] / result["rows"],
    }


def e2e_roots(workers: int) -> Dict[str, str]:
    """Per replayed path, the root whose wall is the traced end-to-end time.

    That is the pass at the workload's worker count: apply_dataset's own
    composition (``run_dataset`` into a sink), the profiler call at two
    workers, or the replay itself where it is the serial path.  The
    profile path comes last so that, on the table workloads, its layers
    win over the same layers inside the sessions.
    """
    return {
        "session": "session",
        "apply": "apply.parallel",
        "profile": "profile" if workers == 1 else "profile.parallel",
    }


def best_rounds(result: Dict[str, Any], workers: int) -> Dict[str, Dict[str, Any]]:
    """Per path, the traced round with the fastest traced end-to-end wall.

    Reading every layer of a path from one round keeps its self times
    and residual adding up to that round's wall, and the fastest round
    is the one the host ran at full speed, as for the untraced passes.
    """
    best: Dict[str, Dict[str, Any]] = {}
    for path, wall_root in e2e_roots(workers).items():
        present = [entry["roots"] for entry in result["layers"] if path in entry["roots"]]
        if present:
            best[path] = min(present, key=lambda roots: roots[wall_root]["wall"])
    return best


def per_layer(result: Dict[str, Any], workers: int) -> Dict[str, float]:
    """Per-layer values of each path's best traced round, plus overheads.

    ``residual.<path>_s`` is the traced end-to-end wall minus the self
    times of the replayed layers: orchestration the outside-in replay
    cannot attribute.  At two workers the layers run concurrently, so
    it goes negative by the time the pool overlapped.  Tracing overhead
    compares the best traced wall with the best untraced pass of the
    same work at the same worker count.  Suite sessions profile their
    own values when they open, so there the traced profile time is that
    step's traced time.
    """
    values: Dict[str, float] = dict(result["layers"][0]["counts"])  # repeat every round
    for path, roots in best_rounds(result, workers).items():
        layers = roots[path]["layers"]
        wall = roots[e2e_roots(workers)[path]]["wall"]
        values[f"trace.{path}_s"] = wall
        values[f"trace.{path}_replay_s"] = roots[path]["wall"]
        values[f"residual.{path}_s"] = wall - sum(layers.values())
        for name, seconds in layers.items():
            values[f"{name}_s"] = seconds
        if path == "apply":
            parallel = roots["apply.parallel"]["layers"]
            for name in ("engine.parallel.start", "engine.parallel.wait"):
                values[f"{name}_s"] = parallel.get(name, 0.0)
    hits, misses = values.get("engine.memo_hits", 0), values.get("engine.memo_misses", 0)
    values["engine.memo_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    if "trace.profile_s" not in values:
        values["trace.profile_s"] = sum(
            values.get(name, 0.0)
            for name in ("clustering.profile_s", "tokens.tokenize_s", "clustering.hierarchy_s")
        )
    for path, untraced in (
        ("apply", round_totals(result["apply_s"])),
        ("profile", round_totals(result["profile_s"])),
        ("session", [sum(samples) / 1000.0 for samples in result["session_ms"]]),
    ):
        values[f"trace.{path}_overhead"] = values[f"trace.{path}_s"] / min(untraced) - 1
    return values


def where_the_time_goes(result: Dict[str, Any], workers: int) -> List[str]:
    """Self time per layer as a share of each path's traced end-to-end wall."""
    lines = [
        f"where the time goes (fastest of {len(result['layers'])} traced round(s), "
        f"{workers} worker(s)):"
    ]
    for path, roots in reversed(list(best_rounds(result, workers).items())):
        wall = roots[e2e_roots(workers)[path]]["wall"]
        shares = dict(roots[path]["layers"])
        shares["residual"] = wall - sum(shares.values())
        lines.append(
            f"  {path}: traced e2e {wall:.4f} s, in-process replay {roots[path]['wall']:.4f} s"
        )
        for name, seconds in sorted(shares.items(), key=lambda item: -item[1]):
            lines.append(f"    {name:<28} {seconds:10.4f} s {100 * seconds / wall:7.1f}%")
        if path == "apply":
            parallel = roots["apply.parallel"]["layers"]
            lines.append(
                f"    (parent side of the traced e2e: start "
                f"{parallel.get('engine.parallel.start', 0.0):.4f} s, wait "
                f"{parallel.get('engine.parallel.wait', 0.0):.4f} s)"
            )
    return lines


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def render(
    workload: str, workdir: Path, seed: int, scale: Optional[int] = None
) -> Tuple[workloads.Truth, Dict[str, Any]]:
    """Write the workload's inputs and ``job.json``; return the truth.

    ``scale`` shrinks a workload for smoke tests: rows of a table
    workload, or the number of suite tasks.
    """
    job: Dict[str, Any] = {
        "workload": workload,
        "workers": WORKERS[workload],
        "session_rounds": SESSION_ROUNDS[workload],
    }
    sized = {} if scale is None else {"rows": scale}
    if workload == "phone_column":
        truth = workloads.phone_column(workdir, seed, **sized)
        # One 1 MB file: 128 KiB shards (``apply --shard-bytes``) give the
        # apply pass 8 chunk boundaries to time between, not 1.
        job.update(column="phone", target_notation=workloads.PHONE_TARGET, shard_bytes=1 << 17)
    elif workload == "wide_parts":
        truth = workloads.wide_parts(workdir, seed, **sized)
        # 0.8 MB parts: 512 KiB shards split each part once, so the
        # record-aligned cut scan runs, as it does on larger partitions.
        job.update(
            column="code", target_example=workloads.CODE_TARGET_EXAMPLE, shard_bytes=1 << 19
        )
    else:
        from repro.bench.suite import benchmark_suite

        truth = workloads.suite_sessions(workdir, seed, benchmark_suite()[:scale])
    job["run_id"] = f"{workload}-{seed}"
    for sub in ("out", "scratch"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    (workdir / "job.json").write_text(json.dumps(job), encoding="utf-8")
    return truth, job


def measure(
    args: argparse.Namespace, workdir: Path, scale: Optional[int] = None
) -> Tuple[Dict[str, Any], List[str]]:
    """Render, run, gate and report one workload; raises on any failure."""
    truth, job = render(args.workload, workdir, args.seed, scale)
    mode = "trace" if args.trace else "run"
    spawn(mode, workdir, args.seconds)
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    if args.workload == "suite_sessions":
        figures = check_suite(truth, workdir / "out", result)
    else:
        columns = ["id", "phone"] if args.workload == "phone_column" else list(workloads.WIDE_COLUMNS)
        figures = check_table(truth, columns, workdir / "out" / "sink.csv", result)
    sessions = len(result["tasks"])
    lines = [
        f"workload {args.workload} seed {args.seed}: {result['rows']} rows, "
        f"{len(result['apply_s'])} apply and {len(result['profile_s'])} profile passes, "
        f"{len(result['session_ms'])} timings of each of {sessions} sessions; session_p90_ms is "
        f"rank {tail_rank(sessions)} of {sessions}, {sessions - tail_rank(sessions)} beyond; "
        "gate passed",
    ]
    if args.trace:
        metrics = per_layer(result, job["workers"])
        units = PER_LAYER
        lines += where_the_time_goes(result, job["workers"])
    else:
        setup = [spawn("setup", workdir, args.seconds) for _ in range(SETUP_SAMPLES)]
        metrics = end_to_end(result, figures, setup)
        units = END_TO_END
    report = {
        "correct": True,
        "attempted": result["rows"],
        "failed": result["rows"] - figures["rows"],
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units},
    }
    for name, unit in units:
        lines.append(f"  {name:<28} {metrics.get(name, 0.0):16.6f} {unit}")
    return report, lines


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        report, lines = measure(args, workdir)
    except GateError as error:
        print(f"perfbench: correctness gate failed: {error}", file=sys.stderr)
        return 1
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        spans = workdir / "spans.jsonl"
        if spans.is_file():  # the traced run's spans outlive its inputs
            spans.replace(workdir.parent / f"{args.workload}-{args.seed}.spans.jsonl")
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
