"""Property-based equivalence: partitioned profiling == concatenated profiling.

The dataset layer's core promise is that *how a column is split across
files never changes its profile*: profiling a dataset of N parts (any
N, any split points, CSV and JSONL mixed, any worker count) lowers to a
hierarchy identical to profiling the concatenated column in one serial
pass.

The repeat-heavy property checks the profile against an independent
reference — a per-value :meth:`ColumnProfile.observe` loop — rather than
against :class:`IncrementalProfiler`, whose ``observe_all`` fast path
(a value memo) is what the parallel workers run too.

The generators are randomized over the bench corpora through the shared
``property_rng`` fixture — the seed is fixed by default and printed for
every test, so a failing draw replays with
``CLX_PROPERTY_SEED=<seed> pytest <test>``.
"""

from __future__ import annotations

import csv
import json

from repro.bench.generators import (
    addresses,
    dates,
    human_names,
    medical_codes,
    phone_numbers,
)
from repro.clustering.incremental import ColumnProfile, IncrementalProfiler
from repro.clustering.parallel import ParallelProfiler
from repro.dataset import Dataset

#: Randomized rounds per property; kept small enough for CI, large
#: enough that split points, part counts, and corpora all vary.
ROUNDS = 6

#: Worker counts every equivalence draw is checked at.
WORKER_COUNTS = (1, 2, 3, 5)


def _random_column(rng):
    """One bench-corpus column with randomized size and generator."""
    generators = [
        lambda seed, n: phone_numbers(
            n, ["paren_space", "dashes", "dots", "spaces"], seed=seed
        )[0],
        lambda seed, n: human_names(n, seed=seed)[0],
        lambda seed, n: dates(n, seed=seed)[0],
        lambda seed, n: addresses(n, seed=seed)[0],
        lambda seed, n: medical_codes(n, seed=seed)[0],
    ]
    make = rng.choice(generators)
    return make(rng.randrange(1_000_000), rng.randint(40, 400))


def _repeat_heavy_column(rng):
    """Zipf draws from a small pool of one bench-corpus column."""
    pool = list(dict.fromkeys(_random_column(rng)))[: rng.randint(3, 40)]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=rng.randint(300, 1_500))


def _observed_one_by_one(column):
    """The reference profile: one :meth:`ColumnProfile.observe` per value."""
    profile = ColumnProfile()
    for value in column:
        profile.observe(value)
    return profile


def _random_split(rng, column):
    """Split ``column`` into 1..8 contiguous, possibly empty runs."""
    part_count = rng.randint(1, 8)
    cuts = sorted(rng.randint(0, len(column)) for _ in range(part_count - 1))
    bounds = [0] + cuts + [len(column)]
    return [column[start:end] for start, end in zip(bounds, bounds[1:])]


def _write_parts(tmp_path, rng, chunks, mixed):
    """Write each chunk as a CSV or (when ``mixed``) JSONL partition."""
    for index, chunk in enumerate(chunks):
        if mixed and rng.random() < 0.5:
            path = tmp_path / f"part-{index:03d}.jsonl"
            with path.open("w", encoding="utf-8") as handle:
                for row, value in enumerate(chunk):
                    handle.write(json.dumps({"id": row, "phone": value}) + "\n")
        else:
            path = tmp_path / f"part-{index:03d}.csv"
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["id", "phone"])
                for row, value in enumerate(chunk):
                    writer.writerow([row, value])
    return Dataset.resolve(str(tmp_path / "part-*"))


def _hierarchy_signature(profile):
    """Every layer's (pattern, size) rows — the full lowered hierarchy."""
    hierarchy = profile.to_hierarchy()
    return [
        [(node.pattern.notation(), node.size) for node in layer]
        for layer in hierarchy.layers
    ]


class TestPartitionedEquivalence:
    def test_any_split_any_workers_matches_concatenated(self, property_rng, tmp_path):
        rng = property_rng
        for round_index in range(ROUNDS):
            column = _random_column(rng)
            chunks = _random_split(rng, column)
            scratch = tmp_path / f"round-{round_index}"
            scratch.mkdir()
            dataset = _write_parts(scratch, rng, chunks, mixed=False)
            expected = _hierarchy_signature(IncrementalProfiler().profile(iter(column)))
            for workers in WORKER_COUNTS:
                profile = ParallelProfiler(workers=workers).profile_dataset(
                    dataset, "phone"
                )
                context = (
                    f"seed={rng.seed_value} round={round_index} workers={workers} "
                    f"parts={[len(chunk) for chunk in chunks]}"
                )
                assert profile.row_count == len(column), context
                assert _hierarchy_signature(profile) == expected, context

    def test_mixed_csv_and_jsonl_partitions(self, property_rng, tmp_path):
        rng = property_rng
        for round_index in range(ROUNDS):
            column = _random_column(rng)
            chunks = _random_split(rng, column)
            scratch = tmp_path / f"round-{round_index}"
            scratch.mkdir()
            dataset = _write_parts(scratch, rng, chunks, mixed=True)
            expected = _hierarchy_signature(IncrementalProfiler().profile(iter(column)))
            for workers in WORKER_COUNTS:
                profile = ParallelProfiler(workers=workers).profile_dataset(
                    dataset, "phone"
                )
                context = f"seed={rng.seed_value} round={round_index} workers={workers}"
                assert profile.row_count == len(column), context
                assert _hierarchy_signature(profile) == expected, context

    def test_split_points_never_change_the_fingerprint(self, property_rng, tmp_path):
        # The artifact-cache key depends on the profile fingerprint, so
        # re-partitioning a dataset must still hit the cache.
        rng = property_rng
        column = _random_column(rng)
        expected = IncrementalProfiler().profile(iter(column)).fingerprint()
        for round_index in range(ROUNDS):
            scratch = tmp_path / f"round-{round_index}"
            scratch.mkdir()
            dataset = _write_parts(scratch, rng, _random_split(rng, column), mixed=True)
            profile = ParallelProfiler(workers=2).profile_dataset(dataset, "phone")
            assert profile.fingerprint() == expected, (
                f"seed={rng.seed_value} round={round_index}"
            )

    def test_repeat_heavy_column_matches_per_value_reference(self, property_rng, tmp_path):
        rng = property_rng
        for round_index in range(ROUNDS):
            column = _repeat_heavy_column(rng)
            chunks = _random_split(rng, column)
            scratch = tmp_path / f"round-{round_index}"
            scratch.mkdir()
            dataset = _write_parts(scratch, rng, chunks, mixed=True)
            reference = _observed_one_by_one(column)
            expected = (_hierarchy_signature(reference), reference.fingerprint())
            for workers in WORKER_COUNTS:
                profile = ParallelProfiler(workers=workers).profile_dataset(
                    dataset, "phone"
                )
                context = (
                    f"seed={rng.seed_value} round={round_index} workers={workers} "
                    f"distinct={len(set(column))} rows={len(column)}"
                )
                assert profile.row_count == len(column), context
                assert (_hierarchy_signature(profile), profile.fingerprint()) == expected, context
