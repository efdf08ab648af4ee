"""Magic-set query rewriting and reference evaluation for disjunctive
logic programs with negation."""

from .analysis import (
    DependencyEdge,
    DependencyGraph,
    ScStatus,
    ScVerdict,
    check_super_consistent,
    dependency_graph,
    is_odd_cycle_free,
    is_stratified,
    sc_candidate_atoms,
)
from .harness import (
    BenchmarkCell,
    EquivReport,
    RelatedInstance,
    ancestry_program,
    benchmark_json,
    benchmark_table,
    check_equivalence,
    gen_related_instance,
    random_edb,
    random_program,
    random_query,
    run_benchmark,
)
from .lifting import killed_atoms, magic_variant
from .parser import (
    SourceError,
    parse_program,
    parse_query,
    print_program,
    print_query,
)
from .rewriter import (
    AdornedPredicate,
    AdornedRule,
    DmsResult,
    ReservedPredicateError,
    Sips,
    adorn,
    build_query_seed,
    default_sips,
    dms,
    dms_with_details,
    ensure_query_constants,
    generate,
    magic_atom,
    modify,
    split_magic_name,
)
from .semantics import (
    CANDIDATE_CAP_DEFAULT,
    GROUND_CAP_DEFAULT,
    AnswerSetReport,
    CandidateSpaceTooLarge,
    GroundingTooLarge,
    GroundProgram,
    QueryAnswer,
    SolverCapError,
    Substitution,
    answer_query,
    answer_sets,
    answer_sets_via_unfounded,
    brave,
    cautious,
    ground,
    is_model,
    is_unfounded_set,
    reduct,
    substitutions_brave,
    substitutions_cautious,
)
from .syntax import (
    Atom,
    Interpretation,
    Program,
    ProgramError,
    Query,
    Rule,
    Term,
    base,
    const,
    edb_idb_split,
    fact,
    universe,
    var,
)

__version__ = "0.1.0"
