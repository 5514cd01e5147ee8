"""Fuzzy if-then rules, their relation matrices, and forward inference."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FuzzySet, Universe, UniverseMismatchError, _frozen, clamp01
from .operators import (
    S_IMPLICATIONS,
    R_IMPLICATIONS,
    TNORM_FOR_RESIDUUM,
    canonical_name,
    implication_fn,
    tnorm_fn,
)

#: rule semantics: how strongly the consequent follows from the antecedent
CERTAINTY = "certainty"
VARIATION = "variation"


@dataclass(frozen=True, eq=False)
class Rule:
    """One fuzzy conditional "if u is antecedent then v is consequent".

    semantics selects the reading of the conditional and constrains the
    implication family:

    - "certainty": the observation makes the conclusion certain; needs a
      material (s-family) implication.
    - "variation": the conclusion varies with the observation; needs a
      residuated (r-family) implication whose generating t-norm equals the
      rule's t-norm.

    tnorm is the combination operator used by forward inference.
    """

    antecedent: FuzzySet
    consequent: FuzzySet
    semantics: str
    implication: str
    tnorm: str

    def __post_init__(self):
        semantics = canonical_name(self.semantics)
        impl = canonical_name(self.implication)
        t = canonical_name(self.tnorm)
        object.__setattr__(self, "semantics", semantics)
        object.__setattr__(self, "implication", impl)
        object.__setattr__(self, "tnorm", t)
        if semantics not in (CERTAINTY, VARIATION):
            raise ValueError(
                f"rule semantics must be {CERTAINTY!r} or {VARIATION!r}, got {self.semantics!r}"
            )
        tnorm_fn(self.tnorm)  # raises on an unknown t-norm
        if semantics == CERTAINTY and impl not in S_IMPLICATIONS:
            raise ValueError(
                f"certainty rules take an s-family implication "
                f"({sorted(S_IMPLICATIONS)}), got {impl!r}"
            )
        if semantics == VARIATION:
            if impl not in R_IMPLICATIONS:
                raise ValueError(
                    f"variation rules take an r-family implication "
                    f"({sorted(R_IMPLICATIONS)}), got {impl!r}"
                )
            if TNORM_FOR_RESIDUUM[impl] != t:
                raise ValueError(
                    f"variation rules pair each implication with its generating t-norm: "
                    f"{impl!r} goes with {TNORM_FOR_RESIDUUM[impl]!r}, got {t!r}"
                )


@dataclass(frozen=True, eq=False)
class Relation:
    """A fuzzy relation matrix: degrees[i, j] relates u_i to v_j."""

    u_universe: Universe
    v_universe: Universe
    degrees: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.degrees, dtype=float)
        expect = (len(self.u_universe), len(self.v_universe))
        if m.shape != expect:
            raise ValueError(f"relation matrix must have shape {expect}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("relation degrees must be finite")
        object.__setattr__(self, "degrees", _frozen(clamp01(m)))


def build_relation(rule: Rule) -> Relation:
    """Tabulate the rule's implication over the two grids."""
    fn = implication_fn(rule.implication)
    a = rule.antecedent.mu
    b = rule.consequent.mu
    return Relation(
        rule.antecedent.universe,
        rule.consequent.universe,
        fn(a[:, None], b[None, :]),
    )


def check_universe(s: FuzzySet, universe: Universe, what: str, side: str) -> None:
    """Raise unless s lives on the universe a relation maps from or into."""
    if s.universe != universe:
        raise UniverseMismatchError(f"{what} lives on {s.universe.name!r} but the relation "
                                    f"maps {side} {universe.name!r}")


def gmp(relation: Relation, a_prime: FuzzySet, tnorm: str) -> FuzzySet:
    """Generalized modus ponens: image of a_prime through the relation.

    The output degree at v is the max over u of T(a_prime(u), relation(u, v)).
    """
    check_universe(a_prime, relation.u_universe, "input", "from")
    t = tnorm_fn(tnorm)
    image = np.max(t(a_prime.mu[:, None], relation.degrees), axis=0)
    return FuzzySet(relation.v_universe, image)
