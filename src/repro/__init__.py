"""repro — a reproduction of "CLX: Towards verifiable PBE data transformation".

The package implements the CLX Cluster–Label–Transform paradigm (Jin et
al., 2019) together with every substrate its evaluation depends on:

* ``repro.tokens`` / ``repro.patterns`` — the token & pattern model;
* ``repro.clustering`` — hierarchical pattern profiling (Section 4);
* ``repro.dsl`` — the UniFi DSL, its interpreter, MDL scoring and the
  explanation into regexp Replace operations (Section 5);
* ``repro.synthesis`` — source validation, token alignment, plan
  enumeration/ranking and program repair (Section 6);
* ``repro.core`` — the :class:`CLXSession` interactive API;
* ``repro.engine`` — the stateless execution layer:
  :class:`CompiledProgram` (serializable compile-once artifacts) and
  :class:`TransformEngine` (batch/streaming/table apply);
* ``repro.baselines`` — the FlashFill-style PBE baseline and the
  RegexReplace baseline used in the evaluation (Section 7);
* ``repro.simulation`` — simulated users, the Step effort metric, and the
  verification/comprehension cost models behind the user studies;
* ``repro.bench`` — synthetic dataset generators and the 47-task
  benchmark suite.

Quickstart:
    >>> from repro import CLXSession
    >>> session = CLXSession(["(734) 645-8397", "734-422-8073", "734.236.3466"])
    >>> _ = session.label_target_from_string("(734) 645-8397")
    >>> report = session.transform()
    >>> report.outputs
    ['(734) 645-8397', '(734) 422-8073', '(734) 236-3466']
"""

from repro.clustering import (
    ColumnProfile,
    IncrementalProfiler,
    ParallelProfiler,
    PatternHierarchy,
    PatternProfiler,
    profile,
    profile_stream,
)
from repro.core import CLXSession, TransformReport, transform_column
from repro.dsl import (
    AtomicPlan,
    Branch,
    ConstStr,
    ContainsGuard,
    Extract,
    ReplaceOperation,
    UniFiProgram,
    apply_program,
    explain_program,
)
from repro.dataset import Dataset, DatasetPart, resolve_dataset
from repro.engine import (
    ArtifactCache,
    ArtifactRegistry,
    CompiledProgram,
    DatasetApplyResult,
    RegistryEntry,
    ShardedTableExecutor,
    TransformEngine,
    apply_dataset,
    compile_program,
)
from repro.patterns import Pattern, parse_pattern, pattern_of_string
from repro.synthesis import SynthesisResult, Synthesizer, synthesize
from repro.tokens import Token, TokenClass, tokenize
from repro.util.errors import (
    CLXError,
    PatternParseError,
    SerializationError,
    SynthesisError,
    TransformError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "AtomicPlan",
    "Branch",
    "CLXError",
    "CLXSession",
    "ColumnProfile",
    "ArtifactCache",
    "ArtifactRegistry",
    "CompiledProgram",
    "ConstStr",
    "ContainsGuard",
    "Dataset",
    "DatasetApplyResult",
    "DatasetPart",
    "Extract",
    "IncrementalProfiler",
    "ParallelProfiler",
    "Pattern",
    "PatternHierarchy",
    "PatternParseError",
    "PatternProfiler",
    "RegistryEntry",
    "ReplaceOperation",
    "SerializationError",
    "ShardedTableExecutor",
    "SynthesisError",
    "SynthesisResult",
    "Synthesizer",
    "Token",
    "TokenClass",
    "TransformEngine",
    "TransformError",
    "TransformReport",
    "UniFiProgram",
    "ValidationError",
    "__version__",
    "apply_dataset",
    "apply_program",
    "compile_program",
    "explain_program",
    "parse_pattern",
    "pattern_of_string",
    "profile",
    "profile_stream",
    "resolve_dataset",
    "synthesize",
    "tokenize",
    "transform_column",
]
