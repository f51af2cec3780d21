"""The CLX interactive session — Cluster, Label, Transform (Section 3.2).

:class:`CLXSession` models the paper's interaction loop programmatically:

1. construct the session with a column of raw strings — the data is
   immediately profiled into a pattern cluster hierarchy (*Cluster*);
2. inspect :meth:`CLXSession.pattern_summary` / :attr:`CLXSession.hierarchy`
   and pick a target pattern with :meth:`CLXSession.label_target` (either
   one of the discovered patterns or a manually specified one) (*Label*);
3. :meth:`CLXSession.synthesize` produces the UniFi program,
   :meth:`CLXSession.explain` the Replace operations shown to the user,
   :meth:`CLXSession.transform` the transformed column together with the
   post-transformation pattern clusters (*Transform*);
4. if a suggested plan is wrong, :meth:`CLXSession.repair_candidates`
   lists the alternatives and :meth:`CLXSession.apply_repair` swaps one in.

The session is the *interaction* half of CLX.  Execution is delegated to
the stateless :mod:`repro.engine` layer: :meth:`CLXSession.compile`
exports the verified program as a serializable
:class:`~repro.engine.compiled.CompiledProgram`, and ``transform`` /
``preview`` / ``transformed_summary`` all run through one cached
:class:`~repro.engine.executor.TransformEngine` (the cached report is
invalidated whenever the target or the program changes).

Example:
    >>> from repro import CLXSession
    >>> session = CLXSession(["734-555-0199", "(734) 555-0123", "734.555.0111"])
    >>> target = session.label_target_from_string("(734) 555-0123")
    >>> report = session.transform()
    >>> report.is_perfect
    True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.clustering.hierarchy import PatternHierarchy
from repro.clustering.profiler import PatternProfiler
from repro.core.preview import PreviewRow, preview_table
from repro.core.result import TransformReport
from repro.dataset.shards import DEFAULT_APPLY_SHARD_BYTES, DEFAULT_TABLE_CHUNK_LINES
from repro.dsl.ast import AtomicPlan, UniFiProgram
from repro.dsl.explain import explain_program
from repro.engine.compiled import CompiledProgram
from repro.engine.executor import TransformEngine
from repro.dsl.replace import ReplaceOperation
from repro.patterns.matching import pattern_of_string
from repro.patterns.parse import parse_pattern
from repro.patterns.pattern import Pattern
from repro.synthesis.repair import RepairCandidates, repair_options
from repro.synthesis.synthesizer import SynthesisResult, Synthesizer
from repro.util.errors import ValidationError


@dataclass
class PatternSummary:
    """One line of the pattern list shown to the user after clustering.

    Attributes:
        pattern: The leaf pattern.
        count: Number of rows in its cluster.
        samples: A few example values from the cluster.
    """

    pattern: Pattern
    count: int
    samples: List[str]


class CLXSession:
    """Programmatic CLX session over one column of string data.

    Args:
        values: Raw column values (must be non-empty).
        profiler: Optional custom :class:`~repro.clustering.profiler.PatternProfiler`.
        synthesizer: Optional custom :class:`~repro.synthesis.synthesizer.Synthesizer`.

    Raises:
        ValidationError: If ``values`` is empty.
    """

    def __init__(
        self,
        values: Sequence[str],
        profiler: Optional[PatternProfiler] = None,
        synthesizer: Optional[Synthesizer] = None,
    ) -> None:
        self._values: Optional[List[str]] = [str(value) for value in values]
        if not self._values:
            raise ValidationError("CLXSession requires at least one value")
        self._profiler = profiler or PatternProfiler()
        self._synthesizer = synthesizer or Synthesizer()
        self._hierarchy: PatternHierarchy = self._profiler.profile(self._values)
        self._target: Optional[Pattern] = None
        self._result: Optional[SynthesisResult] = None
        self._engine: Optional[TransformEngine] = None
        self._report: Optional[TransformReport] = None

    @classmethod
    def from_profile(
        cls,
        profile: "ColumnProfile | PatternHierarchy",
        synthesizer: Optional[Synthesizer] = None,
    ) -> "CLXSession":
        """Open a session on an already-computed profile, without raw data.

        This is the constant-memory entry point: profile a huge column
        once with :class:`~repro.clustering.incremental.IncrementalProfiler`
        (possibly sharded and merged), then label and synthesize against
        the resulting hierarchy as usual.  The session holds no raw
        column, so :meth:`transform`, :meth:`preview` and friends raise
        :class:`~repro.util.errors.ValidationError` — :meth:`compile` the
        program and run it through a
        :class:`~repro.engine.executor.TransformEngine` instead.

        Args:
            profile: A :class:`~repro.clustering.incremental.ColumnProfile`
                or an already-lowered :class:`PatternHierarchy`.
            synthesizer: Optional custom synthesizer.

        Raises:
            ValidationError: If the profile covers no rows.
        """
        from repro.clustering.incremental import ColumnProfile

        if isinstance(profile, ColumnProfile):
            hierarchy = profile.to_hierarchy()
        elif isinstance(profile, PatternHierarchy):
            hierarchy = profile
        else:
            raise ValidationError(
                "from_profile expects a ColumnProfile or PatternHierarchy, "
                f"got {type(profile).__name__}"
            )
        if not hierarchy.leaf_nodes:
            raise ValidationError("cannot open a session on an empty profile")

        session = cls.__new__(cls)
        session._values = None
        session._profiler = PatternProfiler()
        session._synthesizer = synthesizer or Synthesizer()
        session._hierarchy = hierarchy
        session._target = None
        session._result = None
        session._engine = None
        session._report = None
        return session

    @classmethod
    def from_dataset(
        cls,
        dataset,
        column,
        delimiter: str = ",",
        workers: Optional[int] = None,
        synthesizer: Optional[Synthesizer] = None,
    ) -> "CLXSession":
        """Open a session on a partitioned dataset, profiled in place.

        The partition-native entry point: ``dataset`` may be a resolved
        :class:`~repro.dataset.dataset.Dataset` or any spec(s) its
        :meth:`~repro.dataset.dataset.Dataset.resolve` accepts (paths,
        globs, directories, mixed CSV/JSONL).  The column is profiled
        across every part — in parallel when ``workers`` exceeds 1 —
        and the session opens on the merged profile, so it behaves like
        :meth:`from_profile` (no raw column: :meth:`compile` and apply
        through an engine).

        Args:
            dataset: A dataset, or specs to resolve into one.
            column: Column name (or zero-based index, CSV parts only).
            delimiter: CSV delimiter.
            workers: Worker processes for profiling; ``None``/1 profiles
                serially in process.
            synthesizer: Optional custom synthesizer.
        """
        from repro.clustering.parallel import ParallelProfiler

        profiler = ParallelProfiler(workers=workers or 1)
        profile = profiler.profile_dataset(dataset, column, delimiter=delimiter)
        return cls.from_profile(profile, synthesizer=synthesizer)

    def _require_values(self, operation: str) -> List[str]:
        """The raw column, or a clear error for profile-backed sessions."""
        if self._values is None:
            raise ValidationError(
                f"{operation} needs the raw column, but this session was opened "
                "from a profile; compile() the program and apply it with a "
                "TransformEngine instead"
            )
        return self._values

    def _invalidate_execution(self) -> None:
        """Drop the cached engine and report after the program changed."""
        self._engine = None
        self._report = None

    # ------------------------------------------------------------------
    # Cluster
    # ------------------------------------------------------------------
    @property
    def values(self) -> List[str]:
        """The raw column values the session was created with.

        Raises:
            ValidationError: If the session was opened via
                :meth:`from_profile` and holds no raw column.
        """
        return list(self._require_values("values"))

    @property
    def hierarchy(self) -> PatternHierarchy:
        """The pattern cluster hierarchy built at construction time."""
        return self._hierarchy

    def pattern_summary(self, max_samples: int = 3) -> List[PatternSummary]:
        """Leaf patterns with row counts and samples, largest cluster first.

        This is the list the user sees first (Figure 3 of the paper).
        """
        summaries = []
        for node in sorted(self._hierarchy.leaf_nodes, key=lambda n: -n.size):
            assert node.cluster is not None
            summaries.append(
                PatternSummary(
                    pattern=node.pattern,
                    count=node.size,
                    samples=node.cluster.sample(max_samples),
                )
            )
        return summaries

    # ------------------------------------------------------------------
    # Label
    # ------------------------------------------------------------------
    @property
    def target(self) -> Optional[Pattern]:
        """The labelled target pattern, if any."""
        return self._target

    def label_target(self, target: Pattern) -> Pattern:
        """Label ``target`` as the desired pattern and reset any prior synthesis."""
        self._target = target
        self._result = None
        self._invalidate_execution()
        return target

    def label_target_from_string(self, example: str, generalize: int = 0) -> Pattern:
        """Label the target by giving an example value already in the desired form.

        The example's leaf pattern becomes the target — this mirrors the
        common case where some of the raw data already exists in the
        desired format and the user simply clicks that cluster.

        Args:
            example: A value in the desired format.
            generalize: Number of refinement rounds to apply to the
                example's pattern before labelling it (0 = the exact leaf
                pattern, 1 = quantifiers generalized to ``+``, …).  This
                corresponds to the user clicking a *parent* pattern in
                the hierarchy instead of a leaf, which is how the paper's
                Example 5/6 targets (``<U>+``, ``<L>+`` …) arise.
        """
        from repro.patterns.generalize import GENERALIZATION_STRATEGIES

        if not 0 <= generalize <= len(GENERALIZATION_STRATEGIES):
            raise ValidationError(
                f"generalize must be between 0 and {len(GENERALIZATION_STRATEGIES)}, "
                f"got {generalize}"
            )
        pattern = pattern_of_string(example)
        for strategy in GENERALIZATION_STRATEGIES[:generalize]:
            pattern = strategy(pattern)
        return self.label_target(pattern)

    def label_target_from_notation(self, notation: str) -> Pattern:
        """Label the target by pattern notation, e.g. ``"<D>3'-'<D>3'-'<D>4"``.

        Used when no input data matches the desired pattern and the user
        specifies the target form manually.
        """
        return self.label_target(parse_pattern(notation))

    # ------------------------------------------------------------------
    # Transform
    # ------------------------------------------------------------------
    def synthesize(self) -> SynthesisResult:
        """Synthesize (or return the cached) UniFi program for the labelled target.

        Raises:
            ValidationError: If no target has been labelled yet.
        """
        if self._target is None:
            raise ValidationError("label a target pattern before synthesizing")
        if self._result is None:
            self._result = self._synthesizer.synthesize(self._hierarchy, self._target)
        return self._result

    @property
    def program(self) -> UniFiProgram:
        """The synthesized UniFi program (synthesizing on first access)."""
        return self.synthesize().program

    def explain(self) -> List[ReplaceOperation]:
        """The program explained as regexp Replace operations (Figure 4)."""
        return explain_program(self.program)

    def compile(self, metadata: Optional[Dict[str, object]] = None) -> CompiledProgram:
        """Export the synthesized program as a serializable compiled artifact.

        The returned :class:`~repro.engine.compiled.CompiledProgram`
        captures the program *and* the target pattern, round-trips
        through JSON (``dumps``/``loads``), and outlives the session —
        this is the compile-once half of compile-once/apply-anywhere.

        Args:
            metadata: Optional JSON-serializable annotations (e.g. the
                source column name) stored on the artifact.
        """
        result = self.synthesize()
        return CompiledProgram(result.program, result.target, metadata=metadata)

    def analyze(self, name: str = "<session>", probe: bool = True):
        """Lint the synthesized program against the session's own profile.

        Runs the full artifact analyzer (dead arms, overlaps, regex
        safety, plan sanity) plus the coverage audit over this session's
        pattern hierarchy — the exemplars the program was synthesized
        from.  Returns an :class:`~repro.analysis.analyzer.AnalysisReport`.

        Args:
            name: Location prefix used in findings.
            probe: Whether to run the empirical ReDoS probe on
                structurally flagged regexes.
        """
        from repro.analysis import analyze_program

        return analyze_program(
            self.compile(), name=name, probe=probe, hierarchy=self._hierarchy
        )

    def verify(self, name: str = "<session>"):
        """Flow-verify the synthesized program: the ``verified`` proof.

        Runs only the output-language flow verdicts (rules
        CLX015–CLX018) over the compiled program and returns
        ``(report, verified)``: an
        :class:`~repro.analysis.analyzer.AnalysisReport` plus the proof
        bit — ``True`` iff every live transforming branch provably emits
        only target-shaped values, so applying the program never
        produces a malformed value it didn't already receive.

        Args:
            name: Location prefix used in findings.
        """
        from repro.analysis import verify_program

        return verify_program(self.compile(), name=name)

    def engine(self) -> TransformEngine:
        """The (cached) stateless engine executing the current program.

        The engine is rebuilt lazily whenever the target is relabelled or
        a repair changes the program.
        """
        if self._engine is None:
            self._engine = TransformEngine(self.compile())
        return self._engine

    def transform(self) -> TransformReport:
        """Apply the synthesized program to the session's data.

        The report is computed once by the session's engine and cached;
        ``preview`` and ``transformed_summary`` share the same run, and
        the cache is invalidated by ``label_target`` and the repair
        methods.
        """
        if self._report is None:
            self._report = self.engine().run(self._require_values("transform()"))
        return self._report

    def apply_table(
        self,
        rows,
        columns,
        workers: Optional[int] = None,
        chunk_size: int = 8192,
    ) -> List[Dict[str, object]]:
        """Apply this session's verified program to columns of a table.

        The apply-anywhere bridge at session level: the program is
        synthesized once (under the usual labelling/verification flow)
        and then run over any table — including one the session never
        profiled — through the one-pass
        :meth:`~repro.engine.executor.TransformEngine.transform_table`
        machinery, optionally fanned across worker processes.

        Args:
            rows: Iterable of row mappings (e.g. ``csv.DictReader`` rows).
                Rows are copied; the input is never mutated.
            columns: A column name, or a sequence of column names, each
                transformed by this session's program.
            workers: ``None`` or 1 runs in-process; larger values fan
                chunks of rows across worker processes.
            chunk_size: Rows per chunk / worker task.

        Returns:
            New row dicts with each named column replaced by its
            transformed value.

        Raises:
            ValidationError: If no target has been labelled, a named
                column is missing from some row, or ``workers`` /
                ``chunk_size`` is invalid.
        """
        names = [columns] if isinstance(columns, str) else list(columns)
        if not names:
            raise ValidationError("apply_table needs at least one column name")
        engine = self.engine()
        return TransformEngine.transform_table(
            rows,
            {name: engine for name in names},
            workers=workers,
            chunk_size=chunk_size,
        )

    def apply_dataset(
        self,
        dataset,
        columns,
        output=None,
        output_dir=None,
        stream=None,
        out_format: str = "csv",
        delimiter: str = ",",
        in_place: bool = False,
        workers: Optional[int] = None,
        chunk_size: int = DEFAULT_TABLE_CHUNK_LINES,
        shard_bytes: int = DEFAULT_APPLY_SHARD_BYTES,
        on_error: str = "abort",
        quarantine_dir=None,
        shard_timeout: Optional[float] = None,
        max_retries: int = 0,
        resume: bool = False,
    ):
        """Apply this session's verified program across a partitioned dataset.

        The on-disk sibling of :meth:`apply_table`: ``dataset`` may be a
        resolved :class:`~repro.dataset.dataset.Dataset` or any spec(s)
        (paths, globs, directories) with CSV and JSONL parts mixed
        freely.  Partitions either splice into one ``output`` file (or
        open ``stream``) in stable part order, or — with ``output_dir``
        — write one output per partition, preserving names; either way
        parts fan out across the worker pool together and the sink
        bytes are identical at any worker count.

        Args:
            dataset: A dataset, or specs to resolve into one.
            columns: A column name, or a sequence of column names, each
                transformed by this session's program.
            output: Splice everything into this one file.
            output_dir: One output per partition into this directory.
            stream: Splice into an open text stream.
            out_format: ``"csv"`` (default) or ``"jsonl"``.
            delimiter: CSV delimiter.
            in_place: Overwrite the source columns instead of adding
                ``<column>_transformed`` ones.
            workers: ``None`` = all cores; 1 runs in-process.
            chunk_size: Physical lines per transform batch per worker.
            shard_bytes: Partitions larger than this split into
                record-aligned byte-range shards.
            on_error: ``"abort"`` or ``"quarantine"`` (divert bad
                records to ``quarantine_dir`` instead of failing).
            quarantine_dir: Quarantine sink directory (one JSONL file
                per partition); required with quarantine mode.
            shard_timeout: Seconds before an in-flight shard counts as
                hung (``None`` = no limit).
            max_retries: Infrastructure-fault retries per shard.
            resume: With ``output_dir``, skip manifest-complete parts.

        Returns:
            The :class:`~repro.engine.parallel.DatasetApplyResult`.

        Raises:
            ValidationError: If no target has been labelled, no (or not
                exactly one) destination is given, or a knob is invalid.
        """
        return self.engine().apply_dataset(
            dataset,
            columns,
            output=output,
            output_dir=output_dir,
            stream=stream,
            out_format=out_format,
            delimiter=delimiter,
            in_place=in_place,
            workers=workers,
            chunk_size=chunk_size,
            shard_bytes=shard_bytes,
            on_error=on_error,
            quarantine_dir=quarantine_dir,
            shard_timeout=shard_timeout,
            max_retries=max_retries,
            resume=resume,
        )

    def transformed_summary(self, max_samples: int = 3) -> List[PatternSummary]:
        """Pattern clusters of the *transformed* data (Figure 2 of the paper)."""
        report = self.transform()
        hierarchy = self._profiler.profile(report.outputs)
        summaries = []
        for node in sorted(hierarchy.leaf_nodes, key=lambda n: -n.size):
            assert node.cluster is not None
            summaries.append(
                PatternSummary(
                    pattern=node.pattern,
                    count=node.size,
                    samples=node.cluster.sample(max_samples),
                )
            )
        return summaries

    def preview(self, per_pattern: int = 3) -> List[PreviewRow]:
        """Preview table rows (Figure 8): sample input/output pairs per pattern."""
        return preview_table(self.transform(), per_pattern=per_pattern)

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def repair_candidates(self, source: Pattern) -> RepairCandidates:
        """Candidate plans for ``source`` (default first), for manual repair."""
        return repair_options(self.synthesize(), source)

    def apply_repair(self, source: Pattern, plan: AtomicPlan) -> UniFiProgram:
        """Replace the plan used for ``source`` and return the updated program."""
        result = self.synthesize()
        self._result = result.repaired(source, plan)
        self._invalidate_execution()
        return self._result.program

    def apply_conditional_repair(
        self,
        source: Pattern,
        guarded_plans: Sequence[tuple],
        default_plan: Optional[AtomicPlan] = None,
    ) -> UniFiProgram:
        """Split one branch into content-guarded branches (conditional repair).

        This is the "advanced conditionals" extension (paper §7.4 /
        Example 13): rows that share a *pattern* but need different
        treatments depending on their *content* get one guarded branch
        per case plus an optional unguarded fallback.

        Args:
            source: The source pattern whose branch is being split.
            guarded_plans: Sequence of ``(ContainsGuard, AtomicPlan)``
                pairs, checked in order.
            default_plan: Plan for rows matching the pattern but no guard;
                defaults to the branch's current plan.

        Returns:
            The updated program (also stored on the session).

        Raises:
            ValidationError: If ``source`` is not a branch of the current
                program or no guarded plan is given.
        """
        from repro.dsl.ast import Branch

        result = self.synthesize()
        current = result.program.branch_for(source)
        if current is None:
            raise ValidationError(f"{source.notation()} is not a source pattern of the program")
        if not guarded_plans:
            raise ValidationError("conditional repair needs at least one guarded plan")

        fallback = default_plan if default_plan is not None else current.plan
        new_branches = []
        for branch in result.program.branches:
            if branch.pattern != source:
                new_branches.append(branch)
                continue
            for guard, plan in guarded_plans:
                new_branches.append(Branch(pattern=source, plan=plan, guard=guard))
            new_branches.append(Branch(pattern=source, plan=fallback))
        program = UniFiProgram(new_branches)
        self._result = SynthesisResult(
            target=result.target,
            program=program,
            candidates=dict(result.candidates),
            uncovered=list(result.uncovered),
            already_target=list(result.already_target),
        )
        self._invalidate_execution()
        return program

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line, human-readable description of the current session state."""
        lines = ["CLX session", f"  rows: {self._hierarchy.total_rows}"]
        lines.append(f"  leaf patterns: {len(self._hierarchy.leaf_nodes)}")
        if self._target is not None:
            lines.append(f"  target: {self._target.notation()}")
        if self._result is not None:
            lines.append(f"  branches: {len(self._result.program)}")
            lines.append(f"  uncovered patterns: {len(self._result.uncovered)}")
        return "\n".join(lines)

    def interaction_counts(self) -> Dict[str, int]:
        """Counts used by the user-effort metrics of Section 7.

        Returns a mapping with ``patterns`` (leaf patterns the user must
        glance at), ``branches`` (Replace operations to verify) and
        ``uncovered`` (flagged patterns needing manual review).
        """
        result = self.synthesize() if self._target is not None else None
        return {
            "patterns": len(self._hierarchy.leaf_nodes),
            "branches": len(result.program) if result else 0,
            "uncovered": len(result.uncovered) if result else 0,
        }
