"""Combined-belief computation over independent evidence sources.

Exact answers come from one fold of the sources' focal-set tables, read
three ways: the combined mass function (``combine_all``), the belief in one
query (``exact_belief_enumeration``) and the conflict (``conflict_exact``);
the last two drop table entries that can no longer change their answer.
Where the frame has ``2**k`` elements and every focal set is a subcube of
the element-index hypercube, as on a logic problem translated onto its
truth assignments, all three fold over term codes, two bits per dimension,
and expand a code to its set only to prune and at the end.
The trial engine estimates the same quantities by sampling one outcome per
source, restarting contradictory draws, and counting how often the
surviving intersection settles inside the query set.  A literal-conjunction
logic layer rides on the same trial loop with step-budgeted bounds.
"""

from .errors import (
    BeliefMCError,
    ExcessiveConflictError,
    FrameMismatchError,
    FrameTooLargeError,
    InvalidProblemError,
    ParseError,
    ResourceLimitError,
    TotalConflictError,
)
from .evidence import (
    EvidenceProblem,
    FocalSet,
    Frame,
    MassFunction,
    SourceModel,
    bel_from_mass,
    mass_from_source,
    simple_support,
    validate_problem,
)
from .exact import (
    CombinationResult,
    combine_all,
    conflict_exact,
    exact_belief_enumeration,
)
from .logic import (
    AssignmentSpace,
    BoundedEstimate,
    ClauseBatchEstimate,
    ClauseQuery,
    Literal,
    LogicProblem,
    LogicSource,
    TermSet,
    is_contradictory,
    logic_estimate,
    translate_to_set_problem,
    validate_logic_problem,
)
from .mc import (
    Estimate,
    TrialEngineConfig,
    derive_stream_seed,
    estimate,
    plan_trials,
    sd_bound,
)
from .problem_io import (
    GeneratedProblem,
    generate_problem,
    parse_clause,
    parse_problem,
    parse_query,
    render_problem,
    tune_focus_density,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentSpace",
    "BeliefMCError",
    "BoundedEstimate",
    "ClauseBatchEstimate",
    "ClauseQuery",
    "CombinationResult",
    "Estimate",
    "EvidenceProblem",
    "ExcessiveConflictError",
    "FocalSet",
    "Frame",
    "FrameMismatchError",
    "FrameTooLargeError",
    "GeneratedProblem",
    "InvalidProblemError",
    "Literal",
    "LogicProblem",
    "LogicSource",
    "MassFunction",
    "ParseError",
    "ResourceLimitError",
    "SourceModel",
    "TermSet",
    "TotalConflictError",
    "TrialEngineConfig",
    "bel_from_mass",
    "combine_all",
    "conflict_exact",
    "derive_stream_seed",
    "estimate",
    "exact_belief_enumeration",
    "generate_problem",
    "is_contradictory",
    "logic_estimate",
    "mass_from_source",
    "parse_clause",
    "parse_problem",
    "parse_query",
    "plan_trials",
    "render_problem",
    "sd_bound",
    "simple_support",
    "translate_to_set_problem",
    "tune_focus_density",
    "validate_logic_problem",
    "validate_problem",
]
