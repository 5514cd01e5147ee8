"""Hypothesis construction: given a rule and an observed consequent, find
a fuzzy antecedent that accounts for it.

Two schemes, matching the two rule semantics:

- certainty rules invert by contraposition: the rule "if u is A then v is B"
  is re-read as "if v is not-B then u is not-A" (sound exactly when the
  implication satisfies contrapositive symmetry) and the observation is fed
  forward through that flipped relation.
- variation rules use the residual upper bound: the largest antecedent whose
  forward image stays inside the observation, computed pointwise as the min
  over v of the residuum of relation(u, v) with respect to observed(v).

Neither scheme is trusted blindly: every result carries a verification
report obtained by pushing the hypothesis back through the original rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import TOL, FuzzySet
from .inference import (CERTAINTY, VARIATION, Relation, Rule, build_relation, check_universe,
                        column_sup, gmp, residual_bound)
from .operators import CONTRAPOSITIVE_S

SOLVABLE_POSSIBLY = "solvable_possibly"
UNSOLVABLE = "unsolvable"

CERTAINTY_SCHEME = "certainty_contraposition"
VARIATION_SCHEME = "variation_bound"


@dataclass(frozen=True)
class SolvabilityWitness:
    """The observation point whose required degree no antecedent can reach."""

    point: float
    required: float
    available: float


@dataclass(frozen=True)
class Solvability:
    verdict: str
    witness: Optional[SolvabilityWitness] = None


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Forward image of a hypothesis, compared against the observation."""

    reproduced: FuzzySet
    max_abs_residual: float
    covers_observation: bool
    within_observation: bool


@dataclass(frozen=True, eq=False)
class AbductionResult:
    hypothesis: FuzzySet
    scheme: str
    solvability: Solvability
    roundtrip: VerificationReport


def check_solvability(relation: Relation, b_prime: FuzzySet) -> Solvability:
    """Necessary (not sufficient) gate: no observation degree may exceed the
    best degree its relation column can supply, since any antecedent degree
    is at most 1.

    A passing verdict is "solvable_possibly"; an exact solution may still
    not exist.
    """
    check_universe(b_prime, relation.v_universe, "observation", "into")
    available = column_sup(relation)
    deficit = b_prime.mu - available
    j = int(np.argmax(deficit))
    if deficit[j] > TOL:
        witness = SolvabilityWitness(
            point=float(relation.v_universe.grid[j]),
            required=float(b_prime.mu[j]),
            available=float(available[j]),
        )
        return Solvability(UNSOLVABLE, witness)
    return Solvability(SOLVABLE_POSSIBLY)


def _verify(relation: Relation, hypothesis: FuzzySet, observed: FuzzySet,
            tnorm: str) -> VerificationReport:
    reproduced = gmp(relation, hypothesis, tnorm)
    residual = float(np.max(np.abs(reproduced.mu - observed.mu)))
    covers = bool(np.all(reproduced.mu >= observed.mu - TOL))
    within = bool(np.all(reproduced.mu <= observed.mu + TOL))
    return VerificationReport(reproduced, residual, covers, within)


def abduce_certainty(rule: Rule, b_prime: FuzzySet, tnorm: str) -> AbductionResult:
    """Contraposition hypothesis for a certainty rule.

    Feeds the observation forward through the flipped rule "if v is
    not-consequent then u is not-antecedent" with the same implication:

        hypothesis(u) = max over v of T(b_prime(v), S(1 - B(v), 1 - A(u)))

    Requires an implication with contrapositive symmetry; zadeh's implication
    is rejected because S(a, b) = S(1-b, 1-a) fails for it (for example
    a=0.2, b=0.9 gives 0.8 versus 0.9), so the flipped rule would not say
    the same thing as the original. The result is a candidate, not a
    guaranteed exact solution; consult the roundtrip report.
    """
    if rule.semantics != CERTAINTY:
        raise ValueError(f"abduce_certainty needs a certainty rule, got {rule.semantics!r}")
    if rule.implication not in CONTRAPOSITIVE_S:
        raise ValueError(
            f"implication {rule.implication!r} lacks contrapositive symmetry and cannot "
            f"back a contraposition hypothesis; use one of {sorted(CONTRAPOSITIVE_S)}"
        )
    forward = build_relation(rule)
    solvability = check_solvability(forward, b_prime)
    contraposed = Relation(rule.consequent.universe, rule.antecedent.universe,
                           a=1.0 - rule.consequent.mu, b=1.0 - rule.antecedent.mu,
                           implication=rule.implication)
    hypothesis = gmp(contraposed, b_prime, tnorm)
    return AbductionResult(
        hypothesis=hypothesis,
        scheme=CERTAINTY_SCHEME,
        solvability=solvability,
        roundtrip=_verify(forward, hypothesis, b_prime, tnorm),
    )


def abduce_variation(rule: Rule, b_prime: FuzzySet) -> AbductionResult:
    """Residual upper bound for a variation rule.

        hypothesis(u) = min over v of I(relation(u, v), b_prime(v))

    where I is the rule's residuated implication. Every exact solution of
    the forward equation lies pointwise at or below this bound, and when the
    equation is solvable the bound itself is the greatest solution. The bound
    is returned even when the solvability gate fails, together with the
    failing verdict and witness, so callers can still see the best candidate.
    """
    if rule.semantics != VARIATION:
        raise ValueError(f"abduce_variation needs a variation rule, got {rule.semantics!r}")
    relation = build_relation(rule)
    solvability = check_solvability(relation, b_prime)
    hypothesis = residual_bound(relation, b_prime, rule.tnorm)
    return AbductionResult(
        hypothesis=hypothesis,
        scheme=VARIATION_SCHEME,
        solvability=solvability,
        roundtrip=_verify(relation, hypothesis, b_prime, rule.tnorm),
    )
