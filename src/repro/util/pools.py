"""The one process pool behind every parallel profile and apply path.

Every fan-out in the package — table and dataset apply
(:mod:`repro.engine.parallel`), profiling of files, datasets and
iterables (:mod:`repro.clustering.parallel`), and
``TransformEngine.transform_table(workers=N)`` — drains through
:meth:`ResilientPool.map_ordered_keyed`: tasks are submitted through a
**bounded in-flight window** so a generator over a huge file is pulled
at the pace results drain, results come back **strictly in input
order**, and a dead or hung worker is retried, isolated, and finally
reported as a :class:`~repro.util.errors.CLXError` instead of hanging
the parent.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import Executor, Future
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import islice
from types import TracebackType
from typing import (
    Any,
    Callable,
    Deque,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

from repro.util.errors import CLXError, ValidationError

Task = TypeVar("Task")
Result = TypeVar("Result")
Item = TypeVar("Item")
Key = TypeVar("Key")


def chunked(items: Iterable[Item], chunk_size: int) -> Iterator[List[Item]]:
    """Lazily split ``items`` into lists of at most ``chunk_size``."""
    iterator = iter(items)
    while True:
        chunk = list(islice(iterator, chunk_size))
        if not chunk:
            return
        yield chunk


def indexed_chunks(
    items: Iterable[Item], chunk_size: int
) -> Iterator[Tuple[int, List[Item]]]:
    """Like :func:`chunked`, pairing each chunk with its start index."""
    base = 0
    for chunk in chunked(items, chunk_size):
        yield base, chunk
        base += len(chunk)


@dataclass(frozen=True)
class FaultPolicy:
    """How a :class:`ResilientPool` reacts to infrastructure failures.

    The defaults — no retries, no timeout — reproduce the historical
    behaviour exactly: the first dead worker aborts the run.  Retries
    apply only to *infrastructure* faults (a worker process dying, or a
    task exceeding ``shard_timeout``); exceptions raised by the task
    function itself are deterministic data errors and propagate
    immediately, never retried.
    """

    max_retries: int = 0
    shard_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.shard_timeout is not None and not self.shard_timeout > 0:
            raise ValidationError(f"shard_timeout must be positive, got {self.shard_timeout}")
        if self.backoff_base < 0:
            raise ValidationError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_cap < self.backoff_base:
            raise ValidationError("backoff_cap must be >= backoff_base")

    @property
    def wants_pool(self) -> bool:
        """Whether the policy only has teeth when tasks run out-of-process."""
        return self.max_retries > 0 or self.shard_timeout is not None

    def backoff_delay(self, attempts: int, rng: random.Random) -> float:
        """Jittered exponential backoff before retry number ``attempts``."""
        if self.backoff_base <= 0:
            return 0.0
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** (attempts - 1)))
        return ceiling * (0.5 + rng.random() / 2)

    def fault_reason(self, kind: str, attempts: int) -> str:
        """Why a task was given up on: ``kind`` is ``"died"`` or ``"hung"``."""
        if kind == "hung":
            return (
                f"a worker exceeded the {self.shard_timeout:g}s shard timeout "
                f"{attempts} time(s)"
            )
        return f"a worker process died running it {attempts} time(s)"


class PoolTaskFailure(CLXError):
    """One task exhausted its retries against infrastructure faults."""

    def __init__(
        self, message: str, key: object = None, kind: str = "", attempts: int = 0
    ) -> None:
        super().__init__(message)
        self.key = key
        self.kind = kind
        self.attempts = attempts


def kill_pool(pool: Executor) -> None:
    """Forcibly tear down a process pool without waiting on its tasks.

    ``Executor.shutdown`` joins running workers, which hangs forever on
    a hung or wedged worker.  This terminates the worker processes
    directly, cancels everything queued, and joins with a bounded
    deadline, escalating to SIGKILL for anything that ignores SIGTERM —
    so the parent never orphans children and never blocks indefinitely.

    ``ProcessPoolExecutor`` keeps its workers in a ``_processes`` dict.
    Its manager thread joins them too: when that thread reaps a worker
    first, ``join`` here returns at once but ``is_alive()`` stays true
    until the thread records the exit code.  The manager thread may also
    add workers to the dict, and ``shutdown`` drops the executor's
    reference to it.  So the dict itself is held and re-read until no
    process in it is alive or the deadline passes.
    """
    process_map = getattr(pool, "_processes", None)
    if process_map is None:
        process_map = {}
    _terminate_all(process_map)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown of an already-broken pool
        pass
    deadline = time.monotonic() + 5.0
    while (alive := _terminate_all(process_map)) and time.monotonic() < deadline:
        for process in alive:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
    for process in alive:  # pragma: no cover - SIGTERM ignored
        process.kill()
        process.join(timeout=1.0)


def _terminate_all(process_map: Any) -> List[Any]:
    """SIGTERM every live process in ``process_map``; return those."""
    # Copied first: the executor's manager thread may change the dict.
    alive = [process for process in list(process_map.values()) if process.is_alive()]
    for process in alive:
        process.terminate()
    return alive


@dataclass
class _Entry(Generic[Key, Task]):
    key: Key
    task: Task
    future: Optional["Future[Any]"] = None
    attempts: int = 0


class ResilientPool(Generic[Task, Result]):
    """A rebuildable process pool with retry, timeout, and poison detection.

    Wraps a pool *factory* rather than a pool, because recovering from a
    dead or hung worker requires killing the broken
    ``ProcessPoolExecutor`` outright and building a fresh one.  Tasks
    run through a bounded window and yield in strict submission order;
    after any infrastructure fault the backlog of in-flight tasks is
    replayed **in serial isolation** (one task in flight at a time).
    Isolation makes failure attribution exact: when only the head task
    was running, a dead pool names its culprit, so retry budgets are
    only ever charged to the task that actually failed and a poison
    task is detected deterministically instead of taking innocent
    neighbours down with it.

    As a context manager the pool closes gracefully on a normal or
    ``Exception`` exit and is hard-killed on ``KeyboardInterrupt`` /
    ``SystemExit``, so an interrupted run never orphans workers.
    """

    def __init__(
        self,
        factory: Callable[[], Executor],
        policy: Optional[FaultPolicy] = None,
    ) -> None:
        self._factory = factory
        self._policy = policy or FaultPolicy()
        self._pool: Optional[Executor] = None
        self._rng = random.Random(self._policy.seed)

    @property
    def policy(self) -> FaultPolicy:
        return self._policy

    def _ensure(self) -> Executor:
        if self._pool is None:
            self._pool = self._factory()
        return self._pool

    def close(self) -> None:
        """Graceful shutdown: wait for running tasks, cancel queued ones."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def kill(self) -> None:
        """Hard teardown via :func:`kill_pool`; safe on a hung pool."""
        if self._pool is not None:
            kill_pool(self._pool)
            self._pool = None

    def __enter__(self) -> "ResilientPool[Task, Result]":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        # A graceful shutdown would wait on (possibly hung) running
        # tasks; on Ctrl-C or exit tear down hard instead.
        if exc_type is not None and not issubclass(exc_type, Exception):
            self.kill()
        else:
            self.close()

    def map_ordered_keyed(
        self,
        fn: Callable[[Task], Result],
        keyed_tasks: Iterable[Tuple[Key, Task]],
        window: int,
        on_failure: Optional[Callable[[Key, Task, str, int], Result]] = None,
    ) -> Iterator[Tuple[Key, Result]]:
        """Ordered bounded-window map with fault recovery.

        Infrastructure faults (worker death, shard timeout) are retried
        up to ``policy.max_retries`` times with jittered exponential
        backoff.  A task that still fails is *poison*: ``on_failure(key,
        task, kind, attempts)`` (kind ``"died"`` or ``"hung"``) either
        returns a substitute result to yield in the task's slot or
        raises; with no handler a :class:`PoolTaskFailure` is raised.
        Exceptions raised *by the task function* propagate immediately
        and are never retried.  ``KeyboardInterrupt``/``SystemExit``
        tear the pool down hard before re-raising.
        """
        policy = self._policy
        entries: Deque[_Entry[Key, Task]] = deque()
        source = iter(keyed_tasks)
        exhausted = False
        # While > 0, only the head task is in flight: the backlog that
        # was in the window when a fault hit is replayed one at a time.
        isolated = 0

        def submit(entry: _Entry[Key, Task]) -> bool:
            try:
                entry.future = self._ensure().submit(fn, entry.task)
            except BrokenProcessPool:
                entry.future = None
                return False
            return True

        def drop_futures() -> None:
            for entry in entries:
                entry.future = None

        while True:
            while not exhausted and not isolated and len(entries) < window:
                try:
                    key, task = next(source)
                except StopIteration:
                    exhausted = True
                    break
                entry: _Entry[Key, Task] = _Entry(key, task)
                entries.append(entry)
                if not submit(entry):
                    # The pool broke under an earlier task; recover below.
                    break
            if not entries:
                return

            head = entries[0]
            solo = isolated > 0
            kind: Optional[str] = None
            if head.future is None and not submit(head):
                kind = "died"
            if kind is None:
                assert head.future is not None
                try:
                    result = head.future.result(timeout=policy.shard_timeout)
                except FuturesTimeout:
                    kind = "hung"
                    solo = True  # only the head is ever waited on: exact blame
                except BrokenProcessPool:
                    kind = "died"
                except (KeyboardInterrupt, SystemExit):
                    self.kill()
                    raise
                else:
                    entries.popleft()
                    if isolated:
                        isolated -= 1
                    yield head.key, result
                    continue

            # Infrastructure fault: hard-kill the (broken or hung) pool,
            # invalidate every in-flight future, replay in isolation.
            self.kill()
            drop_futures()
            if isolated == 0:
                isolated = len(entries)
            if not solo:
                # A windowed pool crash cannot name its culprit; replay
                # serially without charging anyone's retry budget.
                continue
            head.attempts += 1
            if head.attempts <= policy.max_retries:
                delay = policy.backoff_delay(head.attempts, self._rng)
                if delay > 0:
                    time.sleep(delay)
                continue
            entries.popleft()
            if isolated:
                isolated -= 1
            if on_failure is None:
                raise PoolTaskFailure(
                    f"task {head.key!r}: {policy.fault_reason(kind, head.attempts)}; "
                    "the run was aborted",
                    key=head.key,
                    kind=kind,
                    attempts=head.attempts,
                )
            yield head.key, on_failure(head.key, head.task, kind, head.attempts)
