"""Magic-set query rewriting and reference evaluation for disjunctive
logic programs with negation.

Importing the package loads none of its submodules: each name below is
imported from its submodule on first access (PEP 562), so a caller pays
only for the parts it uses.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "analysis": (
        "DependencyEdge", "DependencyGraph", "ScStatus", "ScVerdict",
        "check_super_consistent", "dependency_graph", "is_odd_cycle_free",
        "is_stratified",
    ),
    "harness": (
        "BenchmarkCell", "EquivReport", "Mismatch", "RelatedInstance",
        "ancestry_program", "benchmark_table",
        "check_equivalence", "gen_related_instance", "random_edb",
        "random_program", "random_query", "run_benchmark",
    ),
    "lifting": ("killed_atoms", "magic_variant"),
    "parser": ("SourceError", "parse_program", "parse_query", "print_program"),
    "rewriter": (
        "MAGIC_PREFIX", "AdornedPredicate", "DmsResult",
        "ReservedPredicateError", "dms",
        "dms_with_details", "magic_atom", "split_magic_name",
    ),
    "semantics": (
        "CANDIDATE_CAP_DEFAULT", "GROUND_CAP_DEFAULT", "AnswerSetReport",
        "CandidateSpaceTooLarge", "GroundingTooLarge", "QueryAnswer",
        "SolverCapError", "Substitution", "answer_query", "answer_sets",
        "answer_sets_via_unfounded", "ground", "is_unfounded_set",
        "substitutions_brave", "substitutions_cautious",
    ),
    "syntax": (
        "RESERVED_UNIVERSE_CONSTANT", "Atom", "Interpretation", "Program",
        "ProgramError", "Query", "Rule", "Term", "base", "const",
        "edb_idb_split", "fact", "universe", "var",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
