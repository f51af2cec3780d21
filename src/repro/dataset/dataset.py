"""Resolving globs, directories, path lists, and URLs into partitions.

A :class:`Dataset` is nothing more than an ordered list of
:class:`DatasetPart` entries plus the rules that make partitioned inputs
predictable everywhere:

* **stable ordering** — parts are sorted by locator string and
  deduplicated, so ``part-2.csv`` never profiles before ``part-1.csv``
  whatever order the shell expanded the glob in;
* **format per file** — every suffix resolves through the IO backend
  registry (:func:`~repro.dataset.backends.backend_for_path`): ``.csv``
  is CSV, ``.jsonl``/``.ndjson`` is JSON Lines, ``.parquet`` /
  ``.arrow`` are columnar, and an *unregistered* suffix is a loud
  :class:`~repro.util.errors.CLXError` instead of the historical silent
  fall-back to CSV;
* **remote partitions** — ``scheme://`` specs resolve through the
  opener seam (``file://`` URLs become local paths, so globs and
  directories keep working; other schemes become single URL-addressed
  parts sized by the opener);
* **per-file schema check** — :meth:`Dataset.check_column` resolves the
  requested column against every part up front and names the offending
  file, instead of failing mid-stream three partitions in.
"""

from __future__ import annotations

import glob as globlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union
from urllib.parse import urlsplit

from repro.util.errors import CLXError

#: Characters that make a spec a glob pattern rather than a literal path.
_GLOB_CHARS = ("*", "?", "[")


@dataclass(frozen=True)
class DatasetPart:
    """One file of a partitioned dataset.

    Attributes:
        path: The resolved file path (for a remote part, the URL's path
            component — it carries the partition's *name* for output
            naming; the bytes live behind :attr:`locator`).
        format: A backend name (``"csv"``, ``"jsonl"``, ``"parquet"``,
            ...), inferred from the suffix.
        size: File size in bytes at resolution time.
        url: The part's URL for remote partitions, ``None`` for local
            files.
    """

    path: Path
    format: str
    size: int
    url: Optional[str] = None

    @property
    def name(self) -> str:
        """The partition's file name (used to preserve names on output)."""
        return self.path.name

    @property
    def locator(self) -> str:
        """What readers open: the URL for remote parts, else the path."""
        return self.url if self.url is not None else str(self.path)


def _expand_spec(spec: str) -> List[Path]:
    """Expand one spec (literal path, glob pattern, or directory).

    Every spec must contribute at least one file — a typo'd glob that
    silently narrowed the dataset would profile a partial column and
    compile a wrong program with no diagnostic.
    """
    if any(char in spec for char in _GLOB_CHARS):
        matched = [Path(match) for match in globlib.glob(spec) if Path(match).is_file()]
        if not matched:
            raise CLXError(f"dataset input {spec!r} matches no file, directory, or glob")
        return matched
    path = Path(spec)
    if path.is_dir():
        # Directory mode skips hidden and marker files (.part.crc,
        # _SUCCESS, _metadata ...) the way dataset tools writing
        # partitioned output expect; name them explicitly to force.
        return [
            child
            for child in path.iterdir()
            if child.is_file() and not child.name.startswith((".", "_"))
        ]
    if path.is_file():
        return [path]
    raise CLXError(f"dataset input {spec!r} matches no file, directory, or glob")


def _remote_part(url: str, assume_csv: bool) -> DatasetPart:
    """Resolve one non-``file://`` URL spec into a URL-addressed part."""
    from repro.dataset.backends import backend_for_path, locator_size

    name_path = urlsplit(url).path
    if not name_path or name_path.endswith("/"):
        raise CLXError(
            f"dataset input {url!r} does not name a partition file; "
            "remote specs must address one object each"
        )
    backend = backend_for_path(name_path, assume_csv=assume_csv)
    return DatasetPart(
        path=Path(name_path),
        format=backend.name,
        size=locator_size(url),
        url=url,
    )


class Dataset:
    """An ordered, deduplicated list of partition files.

    Build one with :meth:`resolve` (or the module-level
    :func:`resolve_dataset`); construct directly only from already
    resolved :class:`DatasetPart` lists.
    """

    def __init__(self, parts: Sequence[DatasetPart]) -> None:
        if not parts:
            raise CLXError("a dataset needs at least one part")
        self._parts = list(parts)

    @classmethod
    def resolve(
        cls,
        specs: Union[str, Sequence[Union[str, Path]]],
        assume_csv: bool = False,
    ) -> "Dataset":
        """Resolve path/glob/directory/URL specs into a dataset.

        Args:
            specs: One spec or a sequence of specs.  A spec containing
                ``*``, ``?`` or ``[`` is a glob pattern; a directory
                spec takes every regular file directly inside it; a
                ``scheme://`` spec resolves through the opener seam
                (``file://`` becomes a local path spec); any other spec
                must name an existing file.
            assume_csv: Read *extensionless* partition files as CSV
                instead of failing on the unknown format — the
                one-release escape hatch for suffixless layouts.

        Raises:
            CLXError: If a spec matches nothing, nothing at all
                resolved, or a partition's suffix matches no registered
                IO backend.
        """
        from repro.dataset.backends import (
            backend_for_path,
            file_url_to_path,
            is_url,
            url_scheme,
        )

        if isinstance(specs, (str, Path)):
            specs = [specs]
        matched: List[Path] = []
        remote: List[DatasetPart] = []
        for spec in specs:
            text = str(spec)
            if is_url(text):
                if url_scheme(text) == "file":
                    matched.extend(_expand_spec(file_url_to_path(text)))
                else:
                    remote.append(_remote_part(text, assume_csv))
                continue
            matched.extend(_expand_spec(text))
        unique = sorted({str(path): path for path in matched}.values(), key=str)
        parts = {
            str(path): DatasetPart(
                path=path,
                format=backend_for_path(path, assume_csv=assume_csv).name,
                size=path.stat().st_size,
            )
            for path in unique
        }
        for part in remote:
            parts.setdefault(part.locator, part)
        if not parts:
            raise CLXError(
                "no input files resolved from: " + ", ".join(str(spec) for spec in specs)
            )
        return cls(sorted(parts.values(), key=lambda part: part.locator))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def parts(self) -> List[DatasetPart]:
        """The partition files, in stable sorted order."""
        return list(self._parts)

    @property
    def total_size(self) -> int:
        """Total bytes across all parts."""
        return sum(part.size for part in self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[DatasetPart]:
        return iter(self._parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset({len(self._parts)} part(s), {self.total_size} bytes)"

    def describe(self) -> str:
        """A short human-readable source description (for registry rows)."""
        if len(self._parts) == 1:
            return self._parts[0].name
        return f"{self._parts[0].name} (+{len(self._parts) - 1} more)"

    # ------------------------------------------------------------------
    # Schema checks
    # ------------------------------------------------------------------
    def header(self, delimiter: str = ",", strict: bool = True) -> List[str]:
        """The dataset-wide field order, taken from the first part.

        CSV parts define it with their header row, columnar parts with
        their file schema; a JSONL part defines it with the **union** of
        its records' keys in first-seen order (sparse keys are idiomatic
        JSONL, so the first record alone is not the schema — one
        streaming pass over the leading part, the same contract the
        profile side accepts).  A part that cannot supply a field order
        (an empty JSONL file) defers to the next part, so an empty
        leading partition cannot blank the schema.  This is the field
        order ``apply`` encodes sinks in and reconciles every later
        part against.

        With ``strict=False`` unparsable JSONL lines are skipped during
        the key scan (quarantine-mode pre-flight: those lines fail again
        during apply and are quarantined there, with context).

        Raises:
            CLXError: If no part can supply a field order.
            ValidationError: If the first CSV part has no header row.
        """
        from repro.dataset.backends import backend_by_name

        for part in self._parts:
            backend = backend_by_name(part.format)
            backend.require()
            order = backend.field_order(part, delimiter, strict=strict)
            if order is not None:
                return order
        raise CLXError(
            "cannot determine the dataset field order: every JSONL part is "
            "empty and no CSV part supplies a header"
        )

    def check_column(self, column: Union[str, int], delimiter: str = ",") -> None:
        """Verify every part can supply ``column``, naming failures.

        CSV and columnar parts must have a header/schema containing the
        column (by name or index); JSONL parts must parse a first
        object carrying the key when addressed by name (an index is
        meaningless for JSONL).

        Raises:
            ValidationError: Naming the first part that cannot supply
                the column.
        """
        from repro.dataset.backends import backend_by_name

        for part in self._parts:
            backend = backend_by_name(part.format)
            backend.require()
            backend.check_column(part, column, delimiter)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def iter_values(self, column: Union[str, int], delimiter: str = ",") -> Iterator[str]:
        """Stream ``column`` across every part, in part order.

        Constant memory: each part is planned as one whole-part shard
        (no cut scan) and read by
        :meth:`~repro.dataset.backends.base.Backend.iter_shard_values`,
        the reader every profiling worker uses, so the values and the
        missing-column rules (a short row contributes ``""``) are the
        same at any worker count.
        """
        from repro.dataset.backends import backend_by_name
        from repro.dataset.shards import plan_part

        for part in self._parts:
            plan = plan_part(part, max(1, part.size), delimiter)
            part_column = plan.reader_column(column)
            backend = backend_by_name(part.format)
            for shard in plan.shards:
                yield from backend.iter_shard_values(
                    shard.locator, shard.start, shard.end, part_column, delimiter,
                    shard.first_line,
                )


def resolve_dataset(
    specs: Union[str, Sequence[Union[str, Path]]], assume_csv: bool = False
) -> Dataset:
    """Shorthand for :meth:`Dataset.resolve`."""
    return Dataset.resolve(specs, assume_csv=assume_csv)
