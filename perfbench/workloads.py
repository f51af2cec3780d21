"""Seeded workload generators: ground truth first, rendering second.

Each generator draws the *truth* of a workload from its seed (the clean
value every row should normalize to), renders the messy inputs the
program sees to files on disk, and returns a :class:`Truth` that stays
in the benchmark process.  The program under test only ever receives
the rendered files.

Workload composition is fixed by quotas, not by sampling: the seed picks
the concrete values and the row order, while the share of rows in each
format is the same for every seed.  That keeps the correctness counts
(accuracy, flagged share, leaf patterns) identical across seeds, so a
change in them is a change in the program, never in the draw.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Phone formats and their exact row shares, as in the paper's running
#: example (Figure 1).  ``plain`` is a bare ten-digit run that no
#: token-level program can split, so those rows stay flagged.
PHONE_FORMATS: Sequence[Tuple[str, float]] = (
    ("paren_space", 0.30),
    ("paren_tight", 0.20),
    ("dashes", 0.22),
    ("dots", 0.12),
    ("spaces", 0.08),
    ("plus_one", 0.05),
    ("plain", 0.03),
)
PHONE_TARGET = "<D>3'-'<D>3'-'<D>4"

#: Code column forms by Zipf rank: four convertible renderings cycle
#: through the ranks, and every 23rd rank is a bare digit run, which the
#: labelled target (``[CPT-<D>5]``) cannot be built from.
CODE_FORMS = ("bare", "open", "correct", "tight")
CODE_DIGITS_EVERY = 23
CODE_TARGET_EXAMPLE = "[CPT-00000]"

WIDE_COLUMNS = ("id", "name", "note", "code")
WIDE_PARTS = 16

#: Interactive sessions on a table workload: this many seeded samples of
#: the column, their sizes cycling through 10, 30 and 100 rows (the
#: paper's user study used 10, 100 and 300).  A hundred sessions leave
#: ten beyond p90.
SESSION_SAMPLES = 100
SESSION_SIZES = (10, 30, 100)
SESSION_MIX_SEED = 0

FIRST_NAMES = (
    "Ada", "Alan", "Barbara", "Claude", "Donald", "Edsger", "Frances", "Grace",
    "John", "Ken", "Leslie", "Margaret", "Niklaus", "Radia", "Shafi", "Tim",
)
LAST_NAMES = (
    "Lovelace", "Turing", "Liskov", "Shannon", "Knuth", "Dijkstra", "Allen",
    "Hopper", "McCarthy", "Thompson", "Lamport", "Hamilton", "Wirth",
    "Perlman", "Goldwasser", "Berners-Lee",
)
NOTE_WORDS = (
    "patient", "reported", "follow-up", "billing", "pending", "approved",
    "denied", "resubmit", "clinic", "referral", "urgent", "routine", "copay",
    "deductible", "insurer", "claim", "visit", "lab", "imaging", "review",
)


@dataclass
class Truth:
    """What the benchmark keeps to itself for one workload.

    Attributes:
        workload: Workload name.
        rows: Data rows the program must write back.
        column: The transformed input column.
        expected: Expected transformed value per row, in id order
            (single-column workloads), or per task id (suite).
        passthrough: SHA-256 over every untransformed cell, in row
            order, so the gate checks them without keeping them.
        target_regex: The target format as the benchmark's own regex;
            a read-back output that does not match it is flagged.
        tasks: Suite workload only: task id -> (inputs, expected
            outputs), in row order.
    """

    workload: str
    rows: int
    column: str
    expected: List[str] = field(default_factory=list)
    passthrough: str = ""
    target_regex: Optional[str] = None
    tasks: Dict[str, Tuple[List[str], List[str]]] = field(default_factory=dict)


def quota_counts(total: int, shares: Sequence[float]) -> List[int]:
    """Split ``total`` into integer counts proportional to ``shares``.

    Largest-remainder rounding, so the counts always sum to ``total``.
    """
    weight = sum(shares)
    raw = [total * share / weight for share in shares]
    counts = [int(value) for value in raw]
    order = sorted(range(len(raw)), key=lambda index: counts[index] - raw[index])
    for index in order[: total - sum(counts)]:
        counts[index] += 1
    return counts


def shape(value: str) -> str:
    """``value`` with every digit replaced by ``D``."""
    return re.sub(r"\d", "D", value)


def write_sessions(
    directory: Path, rng: random.Random, values: List[str], label: Dict[str, object]
) -> None:
    """Render ``tasks.json``: seeded column samples for interactive sessions.

    A session's cost follows the patterns its sample holds, so each
    sample's mix of shapes (how many values of each :func:`shape`) is
    drawn, in proportion to the column's shapes, from a stream seeded
    with :data:`SESSION_MIX_SEED`; the workload's seed only picks the
    values that fill the mix.  Every seed then times sessions of the
    same cost, and the session percentiles do not depend on the draw.
    """
    by_shape: Dict[str, List[str]] = {}
    for value in values:
        by_shape.setdefault(shape(value), []).append(value)
    shapes = sorted(by_shape)
    weights = [len(by_shape[name]) for name in shapes]
    mix = random.Random(SESSION_MIX_SEED)
    tasks = []
    for index in range(SESSION_SAMPLES):
        counts = Counter(mix.choices(shapes, weights, k=SESSION_SIZES[index % len(SESSION_SIZES)]))
        inputs = [
            value
            for name in shapes
            for value in rng.sample(by_shape[name], min(counts[name], len(by_shape[name])))
        ]
        rng.shuffle(inputs)
        tasks.append({"task": f"sample-{index:03d}", "inputs": inputs, **label})
    with open(directory / "tasks.json", "w", encoding="utf-8") as handle:
        json.dump(tasks, handle)


def _digest(cells: List[str]) -> "hashlib._Hash":
    digest = hashlib.sha256()
    for cell in cells:
        digest.update(cell.encode("utf-8"))
        digest.update(b"\x00")
    return digest


# ----------------------------------------------------------------------
# phone_column
# ----------------------------------------------------------------------
def _render_phone(form: str, area: str, prefix: str, line: str) -> str:
    return {
        "paren_space": f"({area}) {prefix}-{line}",
        "paren_tight": f"({area}){prefix}-{line}",
        "dashes": f"{area}-{prefix}-{line}",
        "dots": f"{area}.{prefix}.{line}",
        "spaces": f"{area} {prefix} {line}",
        "plus_one": f"+1 {area}-{prefix}-{line}",
        "plain": f"{area}{prefix}{line}",
    }[form]


def phone_column(directory: Path, seed: int, rows: int = 50_000) -> Truth:
    """One ``(id, phone)`` CSV of distinct numbers in all seven formats.

    Writes ``data/phones.csv`` and a small ``warm/phones.csv`` of other
    numbers for warm-up calls.
    """
    rng = random.Random(seed)
    forms: List[str] = []
    for (name, _), count in zip(
        PHONE_FORMATS, quota_counts(rows, [share for _, share in PHONE_FORMATS])
    ):
        forms.extend([name] * count)
    rng.shuffle(forms)
    warm_rows = 1000
    seen = set()
    numbers: List[Tuple[str, str, str]] = []
    while len(numbers) < rows + warm_rows:
        number = (
            str(rng.randrange(200, 990)),
            str(rng.randrange(200, 990)),
            f"{rng.randrange(10_000):04d}",
        )
        if number not in seen:
            seen.add(number)
            numbers.append(number)

    def write(path: Path, chosen: List[Tuple[str, str, str]], kinds: List[str]) -> List[str]:
        path.parent.mkdir(parents=True, exist_ok=True)
        cells = []
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("id,phone\n")
            for index, (number, form) in enumerate(zip(chosen, kinds)):
                cells += [str(index), _render_phone(form, *number)]
                handle.write(f"{cells[-2]},{cells[-1]}\n")
        return cells

    cells = write(directory / "data" / "phones.csv", numbers[:rows], forms)
    write(directory / "warm" / "phones.csv", numbers[rows:], forms[:warm_rows])
    write_sessions(directory, rng, cells[1::2], {"target_notation": PHONE_TARGET})
    return Truth(
        workload="phone_column",
        rows=rows,
        column="phone",
        expected=["-".join(number) for number in numbers[:rows]],
        passthrough=_digest(cells).hexdigest(),
        target_regex=r"\d{3}-\d{3}-\d{4}",
    )


# ----------------------------------------------------------------------
# wide_parts
# ----------------------------------------------------------------------
def _render_code(form: str, code: str) -> str:
    return {
        "bare": f"CPT-{code}",
        "open": f"[CPT-{code}",
        "correct": f"[CPT-{code}]",
        "tight": f"CPT{code}",
        "digits": code,
    }[form]


def _note(rng: random.Random) -> str:
    words = rng.choices(NOTE_WORDS, k=rng.randrange(6, 14))
    for index in range(1, len(words), 4):
        words[index] += ","
    if rng.random() < 0.3:
        words.insert(rng.randrange(len(words)), f'"{rng.choice(NOTE_WORDS)}"')
    if rng.random() < 0.05:
        words.insert(rng.randrange(1, len(words)), "\n")
    return " ".join(words)


def wide_parts(
    directory: Path, seed: int, rows: int = 100_000, parts: int = WIDE_PARTS
) -> Truth:
    """Four-column rows across ``parts`` alternating CSV/JSONL files.

    The ``code`` column draws from ~2k distinct rendered values with
    Zipf(1.1) row counts, so a dispatch memo sees mostly repeats.  Every
    CSV line carries a quote (the quoted ``"Last, F."`` name), and about
    5% of notes hold an embedded newline.
    """
    rng = random.Random(seed)
    pool_codes = rng.sample(range(10_000, 100_000), 500)
    pool: List[Tuple[str, str]] = []  # (rendered value, expected output)
    for rank in range(2000):
        code = str(pool_codes[rank % len(pool_codes)])
        form = (
            "digits"
            if rank % CODE_DIGITS_EVERY == CODE_DIGITS_EVERY - 1
            else CODE_FORMS[(rank // len(pool_codes)) % len(CODE_FORMS)]
        )
        pool.append((_render_code(form, code), f"[CPT-{code}]"))
    counts = quota_counts(rows, [1.0 / (rank + 1) ** 1.1 for rank in range(len(pool))])
    drawn = [index for index, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(drawn)

    data = directory / "data"
    data.mkdir(parents=True, exist_ok=True)
    expected: List[str] = []
    passthrough: List[str] = []
    per_part = -(-rows // parts)
    for part in range(parts):
        chunk = drawn[part * per_part : (part + 1) * per_part]
        base = part * per_part
        records = []
        for offset, index in enumerate(chunk):
            value, output = pool[index]
            name = f"{rng.choice(LAST_NAMES)}, {rng.choice(FIRST_NAMES)[0]}."
            record = (str(base + offset), name, _note(rng), value)
            records.append(record)
            expected.append(output)
            passthrough.extend(record)
        _write_part(data, part, records)
    write_sessions(
        directory, rng, passthrough[3::4], {"target_example": CODE_TARGET_EXAMPLE}
    )
    # Warm-up inputs: one small part of each format, other rows.
    warm = directory / "warm"
    warm.mkdir(parents=True, exist_ok=True)
    for part in range(2):
        _write_part(
            warm,
            part,
            [
                (str(row), "Doe, J.", _note(rng), pool[row % len(pool)][0])
                for row in range(200)
            ],
        )
    return Truth(
        workload="wide_parts",
        rows=rows,
        column="code",
        expected=expected,
        passthrough=_digest(passthrough).hexdigest(),
        target_regex=r"\[CPT-\d{5}\]",
    )


def _write_part(directory: Path, part: int, records: List[Tuple[str, ...]]) -> None:
    if part % 2 == 0:
        with open(directory / f"p{part:02d}.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(WIDE_COLUMNS)
            writer.writerows(records)
    else:
        with open(directory / f"p{part:02d}.jsonl", "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(dict(zip(WIDE_COLUMNS, record))) + "\n")


# ----------------------------------------------------------------------
# suite_sessions
# ----------------------------------------------------------------------
def suite_sessions(directory: Path, seed: int, tasks: Sequence[object]) -> Truth:
    """The 47 suite tasks, rendered for interactive sessions.

    ``tasks`` are the suite's task objects (inputs, expected outputs and
    the target label a user would give).  The program receives
    ``tasks.json`` (inputs and labels only, in a seeded session order)
    and one ``(id, value)`` CSV per task to apply its artifact to; the
    expected outputs stay in the returned :class:`Truth`.
    """
    order = list(tasks)
    random.Random(seed).shuffle(order)
    data = directory / "data"
    data.mkdir(parents=True, exist_ok=True)
    rendered = []
    truth = Truth(workload="suite_sessions", rows=0, column="value")
    for task in order:
        rendered.append(
            {
                "task": task.task_id,
                "inputs": list(task.inputs),
                "target_notation": task.target_notation,
                "target_example": task.target_example,
                "generalize": task.target_generalize,
            }
        )
        with open(data / f"{task.task_id}.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["id", "value"])
            writer.writerows((str(index), value) for index, value in enumerate(task.inputs))
        truth.tasks[task.task_id] = (
            list(task.inputs), [task.expected[value] for value in task.inputs]
        )
        truth.rows += len(task.inputs)
    with open(directory / "tasks.json", "w", encoding="utf-8") as handle:
        json.dump(rendered, handle)
    return truth
