"""Fault-injection harness for the resilient-apply stack.

Every test arms the :mod:`repro.util.faults` seam (crashes, hard
exits, hangs, injected exceptions at named points inside workers and
sinks) and then asserts the one invariant the tentpole promises: an
injected infrastructure fault yields either **byte-identical output**
(transient fault, absorbed by the retry budget) or a **clean failure**
(poison fault: an exact error naming the work, no partial sink files,
no orphaned worker processes).  A final randomized test rolls fault
point / kind / retry budget from ``property_rng`` so CI's randomized
leg explores combinations the fixed-seed tests do not.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.bench.phone import phone_dataset
from repro.core.session import CLXSession
from repro.dataset import Dataset
from repro.engine.parallel import ShardedTableExecutor, apply_dataset
from repro.engine.resilience import quarantine_file_name
from repro.util import faults
from repro.util.errors import CLXError
from repro.util.pools import FaultPolicy, PoolTaskFailure, ResilientPool, kill_pool


@pytest.fixture(scope="module")
def phone_engine():
    raw, _ = phone_dataset(count=90, format_count=4, seed=13)
    session = CLXSession(raw)
    session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
    return session.engine()


@pytest.fixture
def arm(monkeypatch, tmp_path_factory):
    """Arm fault clauses for this test; the cache is dropped at teardown.

    Sets ``CLX_FAULTS_DIR`` so ``once`` markers survive worker respawns
    (crashed workers are replaced by fresh processes, so a per-process
    "already fired" flag would re-fire forever).
    """

    def _arm(*clauses: str) -> None:
        markers = tmp_path_factory.mktemp("fault-markers")
        monkeypatch.setenv(faults.FAULTS_ENV, ";".join(clauses))
        monkeypatch.setenv(faults.FAULTS_DIR_ENV, str(markers))
        faults.reset()

    yield _arm
    faults.reset()


def _disarm(monkeypatch) -> None:
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.reset()


def _write_parts(tmp_path, values):
    """Two CSV partitions and one JSONL partition over (id, phone)."""
    third = len(values) // 3
    data = tmp_path / "data"
    data.mkdir()
    with (data / "part-0.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write("id,phone\n")
        for index, value in enumerate(values[:third]):
            handle.write(f"{index},{value}\n")
    with (data / "part-1.jsonl").open("w", encoding="utf-8") as handle:
        for index, value in enumerate(values[third : 2 * third]):
            handle.write(json.dumps({"id": index + third, "phone": value}) + "\n")
    with (data / "part-2.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write("id,phone\n")
        for index, value in enumerate(values[2 * third :]):
            handle.write(f"{index + 2 * third},{value}\n")
    return Dataset.resolve(str(data / "part-*"))


def _apply(
    engine,
    dataset,
    *,
    output=None,
    output_dir=None,
    workers=2,
    policy=None,
    on_error="abort",
    quarantine_dir=None,
    resume=False,
    shard_bytes=512,
):
    with ShardedTableExecutor(
        {"phone": engine},
        ["id", "phone"],
        workers=workers,
        out_format="jsonl",
        on_error=on_error,
        fault_policy=policy or FaultPolicy(),
    ) as executor:
        return apply_dataset(
            executor,
            dataset,
            output=output,
            output_dir=output_dir,
            shard_bytes=shard_bytes,
            quarantine_dir=quarantine_dir,
            resume=resume,
        )


def _visible_files(directory):
    return {
        path.name: path.read_bytes()
        for path in directory.iterdir()
        if not path.name.startswith(".")
    }


def _assert_no_temps(directory):
    strays = [path.name for path in directory.iterdir() if ".clx-tmp." in path.name]
    assert strays == []


def _join_children(deadline_seconds=10.0):
    deadline = time.monotonic() + deadline_seconds
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    return [child for child in multiprocessing.active_children() if child.is_alive()]


@pytest.fixture
def baseline(phone_engine, tmp_path):
    """A clean (fault-free) output-dir run: the byte oracle."""
    values, _ = phone_dataset(count=45, format_count=4, seed=21)
    dataset = _write_parts(tmp_path, values)
    outdir = tmp_path / "clean"
    _apply(phone_engine, dataset, output_dir=outdir, workers=1)
    return dataset, _visible_files(outdir)


class TestTransientFaults:
    """Faults inside the retry budget are invisible in the output bytes."""

    def test_single_worker_crash_retries_to_identical_output(
        self, phone_engine, baseline, tmp_path, arm
    ):
        dataset, expected = baseline
        arm("worker.chunk:crash:*:once")
        outdir = tmp_path / "out-crash"
        result = _apply(
            phone_engine,
            dataset,
            output_dir=outdir,
            policy=FaultPolicy(max_retries=2, backoff_base=0.01),
        )
        assert _visible_files(outdir) == expected
        assert result.quarantined == 0
        _assert_no_temps(outdir)

    def test_single_worker_hard_exit_retries_to_identical_output(
        self, phone_engine, baseline, tmp_path, arm
    ):
        dataset, expected = baseline
        arm("worker.shard:exit:*:once")
        outdir = tmp_path / "out-exit"
        _apply(
            phone_engine,
            dataset,
            output_dir=outdir,
            policy=FaultPolicy(max_retries=2, backoff_base=0.01),
        )
        assert _visible_files(outdir) == expected

    def test_single_hang_with_shard_timeout_retries_to_identical_output(
        self, phone_engine, baseline, tmp_path, arm
    ):
        dataset, expected = baseline
        arm("worker.shard:hang:*:once")
        outdir = tmp_path / "out-hang"
        _apply(
            phone_engine,
            dataset,
            output_dir=outdir,
            policy=FaultPolicy(max_retries=2, shard_timeout=1.0, backoff_base=0.01),
        )
        assert _visible_files(outdir) == expected


class TestPoisonFaults:
    """Deterministic faults exhaust the budget and fail (or quarantine) cleanly."""

    def test_poison_crash_aborts_naming_file_and_byte_range(
        self, phone_engine, baseline, tmp_path, arm
    ):
        dataset, _ = baseline
        arm("worker.shard:crash:k=part-1")
        outdir = tmp_path / "out-poison"
        with pytest.raises(CLXError, match=r"part-1\.jsonl bytes \[\d+, \d+\)") as info:
            _apply(
                phone_engine,
                dataset,
                output_dir=outdir,
                policy=FaultPolicy(max_retries=1, backoff_base=0.01),
            )
        assert "poisoned" in str(info.value)
        # part-1's output never landed, and no temp file survived.
        assert "part-1.jsonl" not in _visible_files(outdir)
        _assert_no_temps(outdir)
        assert _join_children() == []

    def test_poison_hang_aborts_with_timeout_message(
        self, phone_engine, baseline, tmp_path, arm
    ):
        dataset, _ = baseline
        arm("worker.shard:hang:k=part-2")
        outdir = tmp_path / "out-hung"
        with pytest.raises(CLXError, match="shard timeout"):
            _apply(
                phone_engine,
                dataset,
                output_dir=outdir,
                policy=FaultPolicy(
                    max_retries=1, shard_timeout=0.5, backoff_base=0.01
                ),
            )
        _assert_no_temps(outdir)
        assert _join_children() == []

    def test_poison_shard_quarantined_whole_in_quarantine_mode(
        self, phone_engine, baseline, tmp_path, arm
    ):
        dataset, expected = baseline
        arm("worker.shard:crash:k=part-1")
        outdir = tmp_path / "out-qshard"
        qdir = tmp_path / "quarantine"
        result = _apply(
            phone_engine,
            dataset,
            output_dir=outdir,
            policy=FaultPolicy(max_retries=1, backoff_base=0.01),
            on_error="quarantine",
            quarantine_dir=qdir,
        )
        assert result.quarantined > 0
        produced = _visible_files(outdir)
        # The untouched partitions are byte-identical to the clean run.
        assert produced["part-0.jsonl"] == expected["part-0.jsonl"]
        assert produced["part-2.jsonl"] == expected["part-2.jsonl"]
        records = [
            json.loads(line)
            for line in (qdir / quarantine_file_name("part-1.jsonl"))
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert len(records) == result.quarantined
        assert all("quarantined whole" in record["error"] for record in records)
        # Every quarantined record names its source and absolute line.
        assert all(record["source"].endswith("part-1.jsonl") for record in records)
        assert [record["line"] for record in records] == sorted(
            record["line"] for record in records
        )


def _bad_record_parts(tmp_path):
    """One JSONL partition with three malformed lines past the first shard.

    Rows are long enough that ``shard_bytes=256`` splits the file, so the
    bad lines land in a mid-file shard — the error (and the quarantine
    records) must still carry the *absolute* line numbers 31, 33, 35.
    """
    values, _ = phone_dataset(count=40, format_count=4, seed=3)
    data = tmp_path / "bad"
    data.mkdir()
    lines = [
        json.dumps({"id": f"row-{index:04d}-{'x' * 40}", "phone": value})
        for index, value in enumerate(values)
    ]
    lines[30] = "garbage record 001"
    lines[32] = "garbage record 002"
    lines[34] = "garbage record 003"
    path = data / "rows.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Dataset.resolve(str(path)), path


class TestRecordQuarantine:
    def test_abort_mode_names_partition_and_absolute_line_in_mid_file_shard(
        self, phone_engine, tmp_path
    ):
        dataset, path = _bad_record_parts(tmp_path)
        with pytest.raises(CLXError, match=rf"{path} line 31\b"):
            _apply(
                phone_engine,
                dataset,
                output=tmp_path / "out.jsonl",
                shard_bytes=256,
            )

    def test_quarantine_is_deterministic_across_worker_counts(
        self, phone_engine, tmp_path
    ):
        dataset, path = _bad_record_parts(tmp_path)
        outputs, qfiles, counts = [], [], []
        for workers in (1, 3):
            outdir = tmp_path / f"out-w{workers}"
            qdir = tmp_path / f"q-w{workers}"
            result = _apply(
                phone_engine,
                dataset,
                output_dir=outdir,
                workers=workers,
                on_error="quarantine",
                quarantine_dir=qdir,
                shard_bytes=256,
            )
            counts.append(result.quarantined)
            outputs.append(_visible_files(outdir))
            qfiles.append(
                (qdir / quarantine_file_name("rows.jsonl")).read_bytes()
            )
        assert counts == [3, 3]
        assert outputs[0] == outputs[1]
        assert qfiles[0] == qfiles[1]
        records = [json.loads(line) for line in qfiles[0].decode().splitlines()]
        assert [record["line"] for record in records] == [31, 33, 35]
        assert all(record["source"] == str(path) for record in records)
        assert [record["record"] for record in records] == [
            "garbage record 001",
            "garbage record 002",
            "garbage record 003",
        ]

    def test_resynthesis_hint_when_quarantined_records_share_a_pattern(
        self, phone_engine, tmp_path
    ):
        dataset, _ = _bad_record_parts(tmp_path)
        result = _apply(
            phone_engine,
            dataset,
            output_dir=tmp_path / "out",
            on_error="quarantine",
            quarantine_dir=tmp_path / "q",
            shard_bytes=256,
        )
        assert result.hint is not None
        assert "3/3" in result.hint and "re-synthesizing" in result.hint


class TestCrashSafeSinks:
    def test_failed_spliced_output_leaves_no_file(
        self, phone_engine, baseline, tmp_path, arm
    ):
        dataset, _ = baseline
        arm("sink.write:raise:*")
        destination = tmp_path / "spliced" / "out.jsonl"
        destination.parent.mkdir()
        with pytest.raises(faults.FaultInjected):
            _apply(phone_engine, dataset, output=destination)
        assert not destination.exists()
        _assert_no_temps(destination.parent)

    def test_failed_spliced_output_preserves_previous_bytes(
        self, phone_engine, baseline, tmp_path, arm
    ):
        dataset, _ = baseline
        destination = tmp_path / "spliced" / "out.jsonl"
        destination.parent.mkdir()
        destination.write_text("previous run's bytes\n", encoding="utf-8")
        arm("sink.write:raise:k=part-2")
        with pytest.raises(faults.FaultInjected):
            _apply(phone_engine, dataset, output=destination)
        assert destination.read_text(encoding="utf-8") == "previous run's bytes\n"
        _assert_no_temps(destination.parent)

    def test_output_dir_failure_keeps_finished_parts_and_no_partials(
        self, phone_engine, baseline, tmp_path, arm
    ):
        dataset, expected = baseline
        arm("sink.write:raise:k=part-2")
        outdir = tmp_path / "out-partial"
        with pytest.raises(faults.FaultInjected):
            _apply(phone_engine, dataset, output_dir=outdir)
        produced = _visible_files(outdir)
        assert "part-2.jsonl" not in produced
        for name, data in produced.items():
            assert data == expected[name]
        _assert_no_temps(outdir)
        manifest = json.loads((outdir / ".clx-apply.json").read_text(encoding="utf-8"))
        assert set(manifest["parts"]) <= set(produced)

    def test_resume_skips_finished_partitions_and_matches_clean_bytes(
        self, phone_engine, baseline, tmp_path, arm, monkeypatch
    ):
        dataset, expected = baseline
        outdir = tmp_path / "out-resume"
        arm("sink.write:raise:k=part-2")
        with pytest.raises(faults.FaultInjected):
            _apply(phone_engine, dataset, output_dir=outdir)
        finished_before = set(_visible_files(outdir))
        _disarm(monkeypatch)
        result = _apply(phone_engine, dataset, output_dir=outdir, resume=True)
        assert result.skipped_parts == len(finished_before)
        assert _visible_files(outdir) == expected

    def test_resume_reprocesses_a_partition_whose_source_changed(
        self, phone_engine, baseline, tmp_path, arm, monkeypatch
    ):
        dataset, _ = baseline
        outdir = tmp_path / "out-stale"
        arm("sink.write:raise:k=part-2")
        with pytest.raises(faults.FaultInjected):
            _apply(phone_engine, dataset, output_dir=outdir)
        _disarm(monkeypatch)
        # Only part-0 was committed before the fault (a part's sink is
        # finalized when the next part's first chunk arrives, and the
        # fault fired on part-2's).  Grow part-0: its manifest entry's
        # recorded size no longer matches, so resume must redo it too.
        manifest = json.loads(
            (outdir / ".clx-apply.json").read_text(encoding="utf-8")
        )
        assert set(manifest["parts"]) == {"part-0.jsonl"}
        source = dataset.parts[0].path
        with source.open("a", encoding="utf-8", newline="") as handle:
            handle.write("900,906-555-0000\n")
        fresh = Dataset.resolve(str(source.parent / "part-*"))
        result = _apply(phone_engine, fresh, output_dir=outdir, resume=True)
        assert result.skipped_parts == 0
        assert '"906-555-0000"' in (outdir / "part-0.jsonl").read_text(
            encoding="utf-8"
        )


def _kill_self(task):
    """Pool task: ``marker=None`` always dies; a path dies on first claim."""
    marker, value = task
    if marker is None:
        os.kill(os.getpid(), signal.SIGKILL)
    if marker:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return value * 2
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


class TestPoolTeardown:
    def test_sigkilled_worker_raises_and_leaves_no_orphans(self):
        from concurrent.futures import ProcessPoolExecutor

        pool = ResilientPool(
            lambda: ProcessPoolExecutor(max_workers=2), FaultPolicy()
        )
        tasks = [(str(index), (None, index) if index == 3 else ("", index))
                 for index in range(6)]
        try:
            with pytest.raises(PoolTaskFailure, match="worker process died"):
                for _ in pool.map_ordered_keyed(_kill_self, iter(tasks), window=4):
                    pass
        finally:
            pool.close()
        assert _join_children() == []

    def test_kill_pool_reaps_a_worker_spawned_during_shutdown(self):
        # ProcessPoolExecutor's manager thread may add a worker to the
        # ``_processes`` dict after teardown began, and ``shutdown`` then
        # drops the executor's reference to that dict.
        class LateSpawnExecutor:
            def __init__(self):
                self._processes = {}
                self.late = None

            def shutdown(self, wait=True, cancel_futures=False):
                self.late = multiprocessing.Process(target=time.sleep, args=(60,))
                self.late.start()
                self._processes[self.late.pid] = self.late
                self._processes = None

        executor = LateSpawnExecutor()
        try:
            kill_pool(executor)
            assert not executor.late.is_alive()
            assert executor.late.exitcode is not None  # joined, not a zombie
        finally:
            if executor.late is not None and executor.late.is_alive():
                executor.late.kill()
                executor.late.join(5.0)

    def test_kill_pool_waits_for_an_exit_another_thread_reaped(self):
        # When the executor's manager thread reaps a worker first, join()
        # returns at once while is_alive() stays true until that thread
        # records the exit code.
        class SlowlyReapedProcess:
            polls_left = 3

            def is_alive(self):
                self.polls_left -= 1
                return self.polls_left >= 0

            def terminate(self):
                pass

            def kill(self):
                pass

            def join(self, timeout=None):
                pass

        class ReapedExecutor:
            def __init__(self):
                self._processes = {1: SlowlyReapedProcess()}

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        executor = ReapedExecutor()
        process = executor._processes[1]
        kill_pool(executor)
        assert process.polls_left < 0

    def test_worker_death_inside_retry_budget_completes_in_order(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        marker = str(tmp_path / "killed-once")
        pool = ResilientPool(
            lambda: ProcessPoolExecutor(max_workers=2),
            FaultPolicy(max_retries=2, backoff_base=0.01),
        )
        tasks = [
            (str(index), (marker if index == 2 else "", index))
            for index in range(5)
        ]
        try:
            results = [
                value
                for _, value in pool.map_ordered_keyed(
                    _kill_self, iter(tasks), window=3
                )
            ]
        finally:
            pool.close()
        assert results == [0, 2, 4, 6, 8]
        assert _join_children() == []

    def test_keyboard_interrupt_tears_down_workers_within_deadline(self, tmp_path):
        script = tmp_path / "interrupt_me.py"
        started = tmp_path / "worker-started"
        script.write_text(
            textwrap.dedent(
                f"""
                import multiprocessing, os, sys, time
                from concurrent.futures import ProcessPoolExecutor
                from repro.util.pools import FaultPolicy, ResilientPool

                STARTED = {str(started)!r}

                def sleepy(task):
                    with open(STARTED, "w") as handle:
                        handle.write(str(task))
                    time.sleep(600)
                    return task

                def main():
                    pool = ResilientPool(
                        lambda: ProcessPoolExecutor(max_workers=2), FaultPolicy()
                    )
                    print("READY", flush=True)
                    try:
                        for _ in pool.map_ordered_keyed(
                            sleepy, ((str(i), i) for i in range(4)), window=4
                        ):
                            pass
                    except KeyboardInterrupt:
                        deadline = time.monotonic() + 10
                        for child in multiprocessing.active_children():
                            child.join(max(0.0, deadline - time.monotonic()))
                        if any(
                            child.is_alive()
                            for child in multiprocessing.active_children()
                        ):
                            sys.exit(7)
                        sys.exit(42)
                    sys.exit(1)

                main()
                """
            ),
            encoding="utf-8",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH", "")])
        )
        env.pop(faults.FAULTS_ENV, None)
        process = subprocess.Popen(
            [sys.executable, str(script)],
            cwd=os.getcwd(),
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert process.stdout is not None
            assert process.stdout.readline().strip() == "READY"
            deadline = time.monotonic() + 15
            while not started.exists():
                assert time.monotonic() < deadline, "worker never started"
                time.sleep(0.05)
            process.send_signal(signal.SIGINT)
            code = process.wait(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.wait()
        assert code == 42


class TestRandomizedFaults:
    def test_random_faults_yield_identical_bytes_or_clean_failure(
        self, phone_engine, baseline, tmp_path, arm, property_rng
    ):
        dataset, expected = baseline
        for round_index in range(4):
            point = property_rng.choice(
                ["worker.chunk", "worker.shard", "sink.write"]
            )
            kind = (
                "raise"
                if point == "sink.write"
                else property_rng.choice(["crash", "exit", "raise"])
            )
            once = property_rng.random() < 0.5
            retries = property_rng.randrange(3)
            clause = f"{point}:{kind}:*" + (":once" if once else "")
            arm(clause)
            outdir = tmp_path / f"out-{round_index}"
            try:
                _apply(
                    phone_engine,
                    dataset,
                    output_dir=outdir,
                    policy=FaultPolicy(max_retries=retries, backoff_base=0.01),
                )
            except Exception:
                # Clean failure: every partition output either landed
                # byte-identical or not at all; never a truncated file.
                produced = _visible_files(outdir)
                for name, data in produced.items():
                    assert data == expected[name], (clause, retries, name)
            else:
                assert _visible_files(outdir) == expected, (clause, retries)
            _assert_no_temps(outdir)
            assert _join_children() == [], (clause, retries)


class TestCLIQuarantine:
    @pytest.fixture
    def artifact(self, tmp_path):
        from repro.cli import main

        values, _ = phone_dataset(count=30, format_count=4, seed=9)
        source = tmp_path / "train.csv"
        with source.open("w", encoding="utf-8", newline="") as handle:
            handle.write("id,phone\n")
            for index, value in enumerate(values):
                handle.write(f"{index},{value}\n")
        path = tmp_path / "phone.clx.json"
        code = main(
            [
                "compile", str(source), "--column", "phone",
                "--target-pattern", "<D>3'-'<D>3'-'<D>4",
                "--output", str(path),
            ]
        )
        assert code == 0
        return path

    def test_quarantine_run_exits_3_and_summarizes(
        self, artifact, tmp_path, capsys
    ):
        from repro.cli import main

        _, source = _bad_record_parts(tmp_path)
        qdir = tmp_path / "quarantine"
        code = main(
            [
                "apply", str(artifact), str(source),
                "--output", str(tmp_path / "out.jsonl"),
                "--format", "jsonl",
                "--on-error", "quarantine",
                "--quarantine-dir", str(qdir),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "quarantined 3 record(s) across 1 partition(s)" in err
        assert (qdir / quarantine_file_name("rows.jsonl")).exists()

    def test_quarantine_mode_requires_quarantine_dir(self, artifact, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "apply", str(artifact), str(tmp_path / "train.csv"),
                "--output", str(tmp_path / "out.csv"),
                "--on-error", "quarantine",
            ]
        )
        assert code == 2
        assert "--quarantine-dir" in capsys.readouterr().err

    def test_resume_requires_output_dir(self, artifact, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "apply", str(artifact), str(tmp_path / "train.csv"),
                "--output", str(tmp_path / "out.csv"),
                "--resume",
            ]
        )
        assert code == 2
        assert "--output-dir" in capsys.readouterr().err
