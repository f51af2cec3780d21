"""The correctness gate: read every sink back and hold it against the truth.

Sinks are read with the standard library's ``csv`` module only.  Row
count, ids, column order and every pass-through cell must match the
rendered input, and every sink the program wrote during the run (timed
passes, traced replays) must be byte-identical to the one read back.
Any mismatch raises :class:`GateError`; the figures it returns are only
reported once the gate has passed.
"""

from __future__ import annotations

import csv
import hashlib
import re
from pathlib import Path
from typing import Any, Dict, List

from workloads import Truth


class GateError(Exception):
    """The program's output disagrees with what the benchmark expects."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_sink(path: Path, header: List[str]) -> List[List[str]]:
    if not path.is_file():
        raise GateError(f"{path.name}: sink missing")
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        raise GateError(f"{path.name}: header {rows[:1]} != {header}")
    body = rows[1:]
    for index, row in enumerate(body):
        if len(row) != len(header):
            raise GateError(f"{path.name} row {index}: {len(row)} cells, expected {len(header)}")
        if row[0] != str(index):
            raise GateError(f"{path.name} row {index}: id {row[0]!r}, expected {index}")
    return body


def check_table(truth: Truth, columns: List[str], sink: Path, result: Dict[str, Any]) -> Dict[str, float]:
    """Gate one table workload's sink; returns its correctness figures."""
    body = _read_sink(sink, columns + [f"{truth.column}_transformed"])
    if len(body) != truth.rows:
        raise GateError(f"{sink.name}: {len(body)} rows, expected {truth.rows}")
    digest = hashlib.sha256()
    for row in body:
        for cell in row[:-1]:
            digest.update(cell.encode("utf-8"))
            digest.update(b"\x00")
    if digest.hexdigest() != truth.passthrough:
        raise GateError(f"{sink.name}: pass-through cells differ from the input")
    target = re.compile(truth.target_regex or "")
    correct = flagged = 0
    for row, expected in zip(body, truth.expected):
        correct += row[-1] == expected
        flagged += target.fullmatch(row[-1]) is None
    written = _sha256(sink)
    if set(result["sinks"]) != {written}:
        raise GateError(f"{sink.name}: runs or traced replays wrote different bytes")
    if set(result["written"]) != {truth.rows}:
        raise GateError(f"program reported {result['written']} rows, expected {truth.rows}")
    if set(result["flagged"]) != {flagged}:
        raise GateError(
            f"program flagged {sorted(set(result['flagged']))} rows, "
            f"{flagged} read back outside the target"
        )
    return {"rows": len(body), "correct": correct, "flagged": flagged}


def check_suite(truth: Truth, out: Path, result: Dict[str, Any]) -> Dict[str, float]:
    """Gate every task sink of the suite workload."""
    correct = rows = 0
    for name, (inputs, expected) in truth.tasks.items():
        sink = out / f"{name}.csv"
        body = _read_sink(sink, ["id", "value", "value_transformed"])
        if [row[1] for row in body] != inputs:
            raise GateError(f"{name}: input column differs from the rendered input")
        outputs = [row[2] for row in body]
        if hashlib.sha256("\x00".join(outputs).encode("utf-8")).hexdigest() != result["outputs"][name]:
            raise GateError(f"{name}: applied outputs differ from the session's run")
        if result["sinks"][name] != [_sha256(sink)]:
            raise GateError(f"{name}: runs or traced replays wrote different bytes")
        correct += sum(got == want for got, want in zip(outputs, expected))
        rows += len(body)
    if rows != truth.rows:
        raise GateError(f"suite sinks hold {rows} rows, expected {truth.rows}")
    if set(result["flagged"]) != {result["session_flagged"]}:
        raise GateError("apply flagged a different number of rows than the sessions")
    return {"rows": rows, "correct": correct, "flagged": result["session_flagged"]}

