"""Partitioned datasets as first-class inputs.

Real columns rarely live in one file: datasets arrive partitioned
(``data/part-*.csv``), and dataset-oriented tooling treats a "table" as
a *set* of files.  This package is the resolution layer that the rest of
the pipeline builds on:

* :class:`~repro.dataset.dataset.Dataset` resolves a mixture of paths,
  globs, and directories into an ordered list of
  :class:`~repro.dataset.dataset.DatasetPart` entries (stable sorted
  ordering, format inferred per file, per-file schema checks);
* :mod:`repro.dataset.shards` cuts each part into record-aligned shards
  for profile and apply, and every column value is read out of a shard
  by one :meth:`~repro.dataset.backends.base.Backend.iter_shard_values`
  per format — a serial pass reads each part as one whole-part shard;
* :mod:`repro.dataset.readers` holds the header scan and the JSONL row
  rules those readers share.

On top of it, :meth:`ParallelProfiler.profile_dataset
<repro.clustering.parallel.ParallelProfiler.profile_dataset>` profiles
every part as one or more shards merged through the associative
:meth:`~repro.clustering.incremental.ColumnProfile.merge`, and the
CLI's ``profile``/``compile``/``apply`` accept globs and multiple paths
directly (``apply --output-dir`` preserves partition names).
"""

from repro.dataset.dataset import Dataset, DatasetPart, resolve_dataset
from repro.dataset.readers import read_csv_header

__all__ = [
    "Dataset",
    "DatasetPart",
    "read_csv_header",
    "resolve_dataset",
]
