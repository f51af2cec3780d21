"""The execution half of CLX: compile once, apply anywhere.

The interactive :class:`~repro.core.session.CLXSession` covers the
Cluster–Label half of the paradigm — profiling data and synthesizing a
program under user verification.  This package is the Transform half at
production scale:

* :mod:`repro.engine.serialize` — JSON codecs for programs, branches,
  plans, guards, and patterns;
* :mod:`repro.engine.compiled` — :class:`CompiledProgram`, a verified
  program + target pattern lowered to a precompiled regex dispatch table
  with full JSON round-trip;
* :mod:`repro.engine.executor` — :class:`TransformEngine`, the stateless
  batch/streaming/table executor;
* :mod:`repro.engine.parallel` — :class:`ShardedTableExecutor`, the
  multi-column dataset apply whose workers read, parse, transform and
  re-encode their own record-aligned shards
  (:meth:`ShardedTableExecutor.run_dataset`), and the
  :func:`apply_dataset` sink orchestration;
* :mod:`repro.engine.cache` — :class:`ArtifactCache`, a
  content-addressed store of compiled artifacts keyed on (column
  fingerprint, target, flags).

Typical flow::

    session = CLXSession(sample_values)
    session.label_target_from_string("734-422-8073")
    artifact = session.compile().dumps()        # persist next to the data

    engine = TransformEngine.loads(artifact)    # any process, any time
    for outcome in engine.run_iter(huge_column_iterable):
        ...
"""

from repro.engine.cache import ArtifactCache, ArtifactRegistry, RegistryEntry, cache_key
from repro.engine.compiled import CompiledProgram, compile_program
from repro.engine.executor import TransformEngine
from repro.engine.parallel import (
    DatasetApplyResult,
    ShardedTableExecutor,
    TableSpec,
    apply_dataset,
    partition_output_name,
)
from repro.engine.serialize import (
    branch_from_dict,
    branch_to_dict,
    expression_from_dict,
    expression_to_dict,
    guard_from_dict,
    guard_to_dict,
    pattern_from_json,
    pattern_to_json,
    plan_from_dict,
    plan_to_dict,
    program_from_dict,
    program_to_dict,
)

__all__ = [
    "ArtifactCache",
    "ArtifactRegistry",
    "CompiledProgram",
    "DatasetApplyResult",
    "RegistryEntry",
    "ShardedTableExecutor",
    "TableSpec",
    "TransformEngine",
    "apply_dataset",
    "branch_from_dict",
    "cache_key",
    "partition_output_name",
    "branch_to_dict",
    "compile_program",
    "expression_from_dict",
    "expression_to_dict",
    "guard_from_dict",
    "guard_to_dict",
    "pattern_from_json",
    "pattern_to_json",
    "plan_from_dict",
    "plan_to_dict",
    "program_from_dict",
    "program_to_dict",
]
