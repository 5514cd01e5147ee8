"""Abductive inference over fuzzy if-then rules.

Given a rule "if u is A then v is B" and an observed conclusion "v is B'",
construct and verify fuzzy hypotheses "u is A'": by contraposition for
certainty rules, by residual upper bound for variation rules, with forward
generalized modus ponens and a brute-force relational-equation oracle to
keep both schemes honest.
"""
from .core import (
    TOL,
    FuzzySet,
    Universe,
    UniverseMismatchError,
    compatibility,
    complement,
    make_universe,
    sample,
)
from .operators import (
    CONTRAPOSITIVE_S,
    RESIDUUM_FOR_TNORM,
    TNORM_FOR_RESIDUUM,
    PropertyReport,
    implication,
    property_suite,
    residuum_oracle,
    tnorm,
)
from .inference import CERTAINTY, VARIATION, Relation, Rule, build_relation, gmp
from .abduction import (
    SOLVABLE_POSSIBLY,
    UNSOLVABLE,
    AbductionResult,
    Solvability,
    SolvabilityWitness,
    VerificationReport,
    abduce_certainty,
    abduce_variation,
    check_solvability,
)
from .oracle import QuantizedSearch, enumerate_solutions, greatest_enumerated, snap_to_levels
from .workbench import (
    AGGREGATION_LABEL,
    Problem,
    ProblemError,
    ScenarioConfig,
    ScenarioReport,
    emit_plot_data,
    load_problem,
    run_causal_scenario,
    run_fault_scenario,
    save_problem,
)

__version__ = "0.1.0"
