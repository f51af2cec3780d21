"""Program synthesis for UniFi (paper Section 6).

Pipeline::

    hierarchy --(validate, §6.1)--> candidate source patterns
              --(token alignment, Alg. 3, §6.2)--> DAG of token matches
              --(best-first plan search, MDL ranking, §6.3)--> ranked plans
              --(equivalence dedup, App. B)--> candidate plans per source
              --(Alg. 2)--> UniFi program (+ repair alternatives, §6.4)
"""

from repro.synthesis.validate import token_frequency, validate_source
from repro.synthesis.dag import AlignmentDAG
from repro.synthesis.alignment import align_tokens
from repro.synthesis.plans import enumerate_plans, iter_plans, rank_plans, search_plans
from repro.synthesis.equivalence import deduplicate_plans, plans_equivalent
from repro.synthesis.synthesizer import (
    CandidatePlans,
    SynthesisResult,
    Synthesizer,
    synthesize,
)
from repro.synthesis.repair import RepairCandidates, repair_options

__all__ = [
    "AlignmentDAG",
    "CandidatePlans",
    "RepairCandidates",
    "SynthesisResult",
    "Synthesizer",
    "align_tokens",
    "deduplicate_plans",
    "enumerate_plans",
    "iter_plans",
    "plans_equivalent",
    "rank_plans",
    "repair_options",
    "search_plans",
    "synthesize",
    "token_frequency",
    "validate_source",
]
