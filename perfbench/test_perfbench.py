"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  The
smoke tests push a small pass of every workload, untraced and traced,
through the same correctness gate the full-size runs use.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from gate import GateError, check_table
from spans import Rollup, Span, Tracer, covered, layer_seconds, self_times

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the suite workload renders repro.bench tasks


def test_self_times_subtract_the_union_of_overlapping_children() -> None:
    spans = [
        Span(0, "apply", 0.0, 10.0, None, "t"),
        Span(1, "dataset.parse", 1.0, 4.0, 0, "t"),
        Span(2, "engine.dispatch", 3.0, 6.0, 0, "t"),  # overlaps its sibling
        Span(3, "dataset.read", 2.0, 3.0, 1, "t"),
        Span(4, "util.sinks.write", 9.0, 12.0, 0, "t"),  # runs past its parent
    ]
    rollups = [Rollup("tokens.tokenize", 0, seconds=0.5, calls=7)]
    own = self_times(spans, rollups)
    # 10 s, minus children covering [1, 6] and [9, 10], minus the rollup.
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_covered_merges_and_clips_intervals() -> None:
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([], 0.0, 10.0) == 0.0


def test_layer_seconds_adds_up_to_the_root_wall() -> None:
    tracer = Tracer("unit")
    tokenize = tracer.wrap("tokens.tokenize", str.split)
    with tracer.span("profile"):
        with tracer.span("clustering.profile"):
            for value in tracer.iterate("dataset.iter_values", ["a b", "c"]):
                tokenize(value)
        with tracer.span("clustering.hierarchy"):
            pass
    wall, layers = layer_seconds(tracer, "profile")
    assert set(layers) == {
        "clustering.profile", "dataset.iter_values", "tokens.tokenize", "clustering.hierarchy"
    }
    root_self = self_times(tracer.spans, tracer.rollups.values())[0]
    assert root_self >= 0.0
    assert sum(layers.values()) + root_self == pytest.approx(wall)
    assert {rollup.calls for rollup in tracer.rollups.values()} == {2, 3}


def test_benchmark_json_names_every_printed_metric() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKERS)


@pytest.mark.parametrize("workload, scale", [
    ("phone_column", 3000), ("wide_parts", 3000), ("suite_sessions", 6),
])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_pass_clears_the_gate(tmp_path: Path, workload: str, scale: int, trace: int) -> None:
    args = run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    report, lines = run.measure(args, tmp_path / "work", scale=scale)
    assert report["correct"] and report["failed"] == 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert list(report["metrics"]) == [name for name, _ in names]
    if trace:
        assert any(line.startswith("where the time goes") for line in lines)
        assert report["metrics"]["trace.apply_s"]["value"] > 0
    else:
        metrics = {name: entry["value"] for name, entry in report["metrics"].items()}
        # A few suite tasks may flag nothing; every other figure is positive.
        assert all(value > 0 for name, value in metrics.items() if name != "flagged_share")


def test_gate_rejects_a_tampered_sink(tmp_path: Path) -> None:
    args = run.parse_args(["--workload", "phone_column", "--seed", "3", "--seconds", "0"])
    truth, _ = run.render(args.workload, tmp_path, args.seed, scale=50)
    sink = tmp_path / "sink.csv"
    rows = ["id,phone,phone_transformed"] + [
        f"{index},{index},{expected}" for index, expected in enumerate(truth.expected)
    ]
    sink.write_text("\n".join(rows) + "\n", encoding="utf-8")
    result = {"sinks": [], "written": [truth.rows], "flagged": [0]}
    with pytest.raises(GateError):
        check_table(truth, ["id", "phone"], sink, result)


def test_without_program_source_it_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phone_column", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert finished.returncode != 0
    assert finished.stdout.strip() == ""
