"""Crash-safe file sinks: same-directory temp file + atomic rename.

A sink that writes directly to its final path can leave a truncated
file behind when the writer dies mid-run.  :class:`AtomicSink` writes
to a hidden temp file *in the same directory* (so the final rename is
within one filesystem and therefore atomic), fsyncs, and renames into
place only on :meth:`commit`.  Any other exit unlinks the temp file,
leaving whatever was previously at the final path untouched.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from types import TracebackType
from typing import IO, Any, Optional, Type

_SINK_COUNTER = itertools.count()


def fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory so a rename survives power loss."""
    try:
        handle = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(handle)
    except OSError:  # pragma: no cover - filesystem refuses dir fsync
        pass
    finally:
        os.close(handle)


class AtomicSink:
    """A file writer whose final path appears only on commit.

    Text by default; ``binary=True`` opens the temp file in ``"wb"``
    mode for format writers (parquet/arrow sinks) that own the byte
    stream through :attr:`handle`.  Usable as a context manager (commit
    on clean exit, abort on exception) or driven manually via
    :meth:`open` / :meth:`commit` / :meth:`abort` when one orchestrator
    juggles several sinks.
    """

    def __init__(
        self,
        path: Path,
        encoding: str = "utf-8",
        newline: str = "",
        binary: bool = False,
    ) -> None:
        self.path = Path(path)
        self._tmp = self.path.parent / (
            f".{self.path.name}.clx-tmp.{os.getpid()}.{next(_SINK_COUNTER)}"
        )
        self._encoding = encoding
        self._newline = newline
        self._binary = binary
        self._handle: Optional[IO[Any]] = None
        self._done = False

    @property
    def handle(self) -> IO[Any]:
        if self._handle is None:
            if self._done:
                raise ValueError(
                    f"sink for {self.path} is already committed/aborted"
                )
            raise ValueError(f"sink for {self.path} is not open")
        return self._handle

    def open(self) -> "AtomicSink":
        """Open the temp file for writing (idempotent while live).

        A sink is single-use: once :meth:`commit` or :meth:`abort` has
        run, its temp file is gone, so re-opening would silently hand
        back a handleless sink whose next ``write()`` fails with a
        misleading "not open".  Fail here instead, at the reuse site.

        Raises:
            ValueError: If the sink was already committed or aborted.
        """
        if self._done:
            raise ValueError(
                f"sink for {self.path} is already committed/aborted; "
                f"create a new AtomicSink to write again"
            )
        if self._handle is None:
            if self._binary:
                # Columnar sink writers (parquet/arrow footers) own the
                # byte stream; text knobs do not apply.
                self._handle = open(self._tmp, "wb")
            else:
                self._handle = open(
                    self._tmp, "w", encoding=self._encoding, newline=self._newline
                )
        return self

    def write(self, text: str) -> None:
        self.handle.write(text)

    def commit(self) -> None:
        """Flush, fsync, and atomically rename the temp file into place."""
        if self._done:
            return
        self.open()  # an empty commit still produces the (empty) file
        handle = self.handle
        if not handle.closed:  # a format writer may have closed its stream
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
        self._handle = None
        os.replace(self._tmp, self.path)
        fsync_dir(self.path.parent)
        self._done = True

    def abort(self) -> None:
        """Discard the temp file; the final path is left untouched."""
        if self._done:
            return
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - close of a dead handle
                pass
            self._handle = None
        self._tmp.unlink(missing_ok=True)
        self._done = True

    def __enter__(self) -> "AtomicSink":
        return self.open()

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.abort()


def write_json_atomic(path: Path, payload: Any) -> None:
    """Serialize ``payload`` as JSON and atomically replace ``path``."""
    with AtomicSink(path) as sink:
        sink.write(json.dumps(payload, indent=2, sort_keys=True))
        sink.write("\n")
