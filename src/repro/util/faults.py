"""Seeded fault-injection seam for the resilience test harness.

Production code calls :func:`maybe_fire` at a handful of named injection
points (worker shard read in apply and profile alike, worker chunk
transform, worker pool init, parent sink write).
With no configuration the call is one module-global check — effectively
free.  The test harness arms faults through two environment variables,
which cross the process boundary into pool workers for free (fork
inherits the environment; spawn re-reads it):

* ``CLX_FAULTS`` — semicolon-separated clauses, each
  ``point:kind:selector[:once]``:

  - ``point`` names the injection site (``worker.chunk``,
    ``worker.init``, ``sink.write`` ...);
  - ``kind`` is what happens: ``crash`` (SIGKILL the current process —
    how a segfaulting or OOM-killed worker looks to the parent),
    ``exit`` (``os._exit``, a worker dying without a traceback),
    ``hang`` (sleep far past any reasonable shard timeout), ``raise``
    (raise :class:`FaultInjected`, a deterministic in-worker error);
  - ``selector`` picks which call fires: ``n=K`` (the K-th matching
    call *in this process*, 1-based), ``k=SUBSTR`` (the call's context
    ``key`` contains ``SUBSTR`` — e.g. a shard's ``path:offset``), or
    ``*`` (every matching call);
  - ``once`` limits the clause to a single firing **across all
    processes**, so a transient fault (crash once, succeed on retry)
    is expressible; without it the clause fires every time it matches
    (a deterministic, poison-style fault).

* ``CLX_FAULTS_DIR`` — a directory for the ``once`` marker files.  The
  marker is claimed with an atomic exclusive create *before* firing, so
  even a fault that kills the process is recorded and never repeats.
  Without the directory, ``once`` is tracked per process only.

Example: crash the worker handling the first chunk of ``part-3.csv``,
one time only::

    CLX_FAULTS="worker.chunk:crash:k=part-3.csv:once" CLX_FAULTS_DIR=/tmp/m ...
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

#: Environment variable holding the fault clauses.
FAULTS_ENV = "CLX_FAULTS"

#: Environment variable naming the cross-process ``once`` marker directory.
FAULTS_DIR_ENV = "CLX_FAULTS_DIR"

#: How long an injected hang sleeps; any sane shard timeout is far below.
HANG_SECONDS = 600.0


class FaultInjected(RuntimeError):
    """The deterministic error raised by a ``raise``-kind fault clause."""


@dataclass(frozen=True)
class _Clause:
    index: int
    point: str
    kind: str
    mode: str  # "n" | "k" | "*"
    nth: int
    needle: str
    once: bool


_KINDS = ("crash", "exit", "hang", "raise")

# Parsed-spec cache plus per-process firing state.  A forked worker
# inherits this state; that is correct (same environment) — the ``n=``
# counters restart per *spawned* worker by design, and cross-process
# ``once`` dedup lives in marker files, not here.
_clauses: Optional[List[_Clause]] = None
_counters: Dict[int, int] = {}
_local_fired: Set[int] = set()


def _parse_spec(spec: str) -> List[_Clause]:
    clauses: List[_Clause] = []
    for index, raw in enumerate(part for part in spec.split(";") if part.strip()):
        fields = [field.strip() for field in raw.split(":")]
        if len(fields) < 3:
            raise ValueError(f"fault clause {raw!r} needs point:kind:selector")
        point, kind, selector = fields[0], fields[1], fields[2]
        flags = fields[3:]
        if kind not in _KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; choose from {', '.join(_KINDS)}")
        if unknown := [flag for flag in flags if flag != "once"]:
            raise ValueError(f"unknown fault flag(s) {unknown!r} in clause {raw!r}")
        mode, nth, needle = "*", 0, ""
        if selector.startswith("n="):
            mode, nth = "n", int(selector[2:])
        elif selector.startswith("k="):
            mode, needle = "k", selector[2:]
        elif selector != "*":
            raise ValueError(f"unknown fault selector {selector!r} (use n=K, k=SUBSTR, or *)")
        clauses.append(
            _Clause(
                index=index, point=point, kind=kind,
                mode=mode, nth=nth, needle=needle, once="once" in flags,
            )
        )
    return clauses


def reset() -> None:
    """Drop the parsed-spec cache and per-process state (for tests)."""
    global _clauses
    _clauses = None
    _counters.clear()
    _local_fired.clear()


def active() -> bool:
    """Whether any fault clause is armed in this process."""
    global _clauses
    if _clauses is None:
        _clauses = _parse_spec(os.environ.get(FAULTS_ENV, ""))
    return bool(_clauses)


def _claim_once(clause: _Clause) -> bool:
    """Atomically claim a single firing of ``clause`` across processes."""
    directory = os.environ.get(FAULTS_DIR_ENV)
    if not directory:
        if clause.index in _local_fired:
            return False
        _local_fired.add(clause.index)
        return True
    marker = os.path.join(directory, f"fired-{clause.index}")
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(handle)
    return True


def _fire(clause: _Clause, point: str, key: str) -> None:
    where = f"{point}" + (f" [{key}]" if key else "")
    if clause.kind == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif clause.kind == "exit":
        os._exit(23)
    elif clause.kind == "hang":
        deadline = time.monotonic() + HANG_SECONDS
        while time.monotonic() < deadline:  # pragma: no cover - killed externally
            time.sleep(0.05)
    else:  # "raise"
        raise FaultInjected(f"injected fault at {where}")


def maybe_fire(point: str, key: str = "") -> None:
    """Fire any armed fault clause matching ``point`` (and ``key``).

    The hot-path cost with no armed faults is one cached-list check.
    ``key`` is free-form context the caller provides so clauses can
    target one specific unit of work (a shard's ``path:offset``, a
    partition name, ...).
    """
    if not active():
        return
    assert _clauses is not None
    for clause in _clauses:
        if clause.point != point:
            continue
        if clause.mode == "n":
            _counters[clause.index] = _counters.get(clause.index, 0) + 1
            if _counters[clause.index] != clause.nth:
                continue
        elif clause.mode == "k" and clause.needle not in key:
            continue
        if clause.once and not _claim_once(clause):
            continue
        _fire(clause, point, key)


def spec(*clauses: str) -> Tuple[str, str]:
    """Build the ``(env_var, value)`` pair for a set of clauses (tests)."""
    return FAULTS_ENV, ";".join(clauses)
