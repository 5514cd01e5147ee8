"""Fuzzy if-then rules, their relations, and forward inference."""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import BLOCK_CELLS, FuzzySet, Universe, UniverseMismatchError
from .operators import (
    ANTITONE,
    RESIDUUM_FOR_TNORM,
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

#: the implication family each semantics takes: its letter and its table
_FAMILIES = {CERTAINTY: ("s", S_IMPLICATIONS), VARIATION: ("r", R_IMPLICATIONS)}


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
        if semantics not in _FAMILIES:
            raise ValueError(
                f"rule semantics must be {' or '.join(map(repr, _FAMILIES))}, got {semantics!r}"
            )
        tnorm_fn(t)  # raises on an unknown t-norm
        letter, family = _FAMILIES[semantics]
        if impl not in family:
            raise ValueError(f"{semantics} rules take an {letter}-family implication "
                             f"({sorted(family)}), got {impl!r}")
        if semantics == VARIATION and TNORM_FOR_RESIDUUM[impl] != t:
            raise ValueError(
                f"variation rules pair each implication with its generating t-norm: "
                f"{impl!r} goes with {TNORM_FOR_RESIDUUM[impl]!r}, got {t!r}"
            )


#: largest |U|*|V| a rule relation is folded over when its operation has no
#: closed form; about a second of numpy work per fold, where the table itself
#: would take 800 MB
MAX_FOLD_CELLS = 100_000_000


@dataclass(frozen=True, eq=False)
class Relation:
    """A rule's fuzzy relation between two grids: degree (i, j) relates u_i to v_j.

    It holds only the two sets, the antecedent A on U and the consequent B on
    V, whose degrees FuzzySet already keeps finite, in [0, 1] and read-only as
    the closed forms assume, and the name of an implication I. It computes rows
    of I(A(u), B(v)) on demand, never keeping a table; every implication keeps
    degrees in [0, 1] as computed, as the range test checks.
    """

    antecedent: FuzzySet
    consequent: FuzzySet
    implication: str

    def __post_init__(self):
        implication_fn(self.implication)  # raises on an unknown implication
        object.__setattr__(self, "implication", canonical_name(self.implication))

    def rows(self, index) -> np.ndarray:
        """Degrees of the rows at index, a slice or an index array."""
        a, b = self.antecedent.mu, self.consequent.mu
        return implication_fn(self.implication)(a[index, None], b[None, :])

    def blocks(self, keep=None):
        """Yield (index, the rows at index) over blocks of about BLOCK_CELLS degrees:
        index is a slice, or a part of the index array keep when keep is given.
        A relation larger than MAX_FOLD_CELLS raises ValueError before any row
        is computed, however few rows are kept.
        """
        u, v = self.antecedent.universe, self.consequent.universe
        n, m = len(u), len(v)
        if n * m > MAX_FOLD_CELLS:
            raise ValueError(
                f"the {self.implication} relation from {u.name!r} ({n} points) "
                f"to {v.name!r} ({m} points) has {n * m} cells, over the "
                f"limit of {MAX_FOLD_CELLS} for an operation without a closed form; "
                f"use coarser grids"
            )
        step = max(1, BLOCK_CELLS // m)
        for lo in range(0, n if keep is None else len(keep), step):
            index = slice(lo, lo + step) if keep is None else keep[lo:lo + step]
            yield index, self.rows(index)


def build_relation(rule: Rule) -> Relation:
    """The rule's implication between its own two sets, as a lazy relation;
    nothing is copied."""
    return Relation(rule.antecedent, rule.consequent, rule.implication)


def check_universe(s: FuzzySet, universe: Universe, what: str, side: str) -> None:
    """Raise unless s lives on the universe a relation maps from or into."""
    if s.universe != universe:
        raise UniverseMismatchError(f"{what} lives on {s.universe.name!r} but the relation "
                                    f"maps {side} {universe.name!r}")


def gmp(relation: Relation, a_prime: FuzzySet, tnorm: str) -> FuzzySet:
    """Generalized modus ponens: image of a_prime through the relation.

    The output degree at v is the max over u of T(a_prime(u), relation(u, v)).
    A rule relation with goedel under minimum, or with kleene_dienes under
    any t-norm, takes a closed form; every other relation is folded block by
    block, over its undominated rows only when its implication is in
    operators.ANTITONE. Each path selects and combines the same degrees as
    the full table would, and max is exact in any order, so all give
    identical images.
    """
    check_universe(a_prime, relation.antecedent.universe, "input", "from")
    kind = canonical_name(tnorm)
    t = tnorm_fn(kind)
    a, b, p = relation.antecedent.mu, relation.consequent.mu, a_prime.mu
    if relation.implication == "goedel" and kind == "minimum":
        image = _goedel_minimum_image(a, b, p)
    elif relation.implication == "kleene_dienes":
        # T distributes over max: T(p, max(1 - a, b)) = max(T(p, 1 - a), T(p, b)),
        # and max over u of T(p(u), b(v)) is T(max p, b(v))
        image = np.maximum(np.max(t(p, 1.0 - a)), t(np.max(p), b))
    else:
        # row u' dominates row u when a(u') <= a(u) and p(u') >= p(u): as
        # computed, I never rises in a and T never falls in either argument,
        # so a dominated row never exceeds its dominator's and max is exact
        keep = _undominated(a, p) if relation.implication in ANTITONE else None
        image = None
        for index, rows in relation.blocks(keep):
            part = np.max(t(p[index, None], rows), axis=0)
            image = part if image is None else np.maximum(image, part, out=image)
    return FuzzySet(relation.consequent.universe, image)


def _undominated(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Indices of the points that no other point dominates.

    j dominates i when low[j] <= low[i] and high[j] >= high[i]; of equal
    (low, high) pairs only the first is kept. Sorted by low, then by high
    falling, a point is kept when its high exceeds every high before it.
    """
    order = np.lexsort((-high, low))
    h = high[order]
    kept = h > np.concatenate(([-np.inf], np.maximum.accumulate(h)[:-1]))
    return order[kept]


def _goedel_minimum_image(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """max over u of min(p(u), goedel(a(u), b(v))), with a sorted once.

    Where a(u) <= b(v) the term is p(u); elsewhere it is min(p(u), b(v)). So
    each v needs the largest p among the u with a(u) <= b(v), a prefix of the
    sorted a, and the largest among the rest, a suffix.
    """
    order = np.argsort(a, kind="stable")
    ps = p[order]
    k = np.searchsorted(a[order], b, side="right")  # u before k have a(u) <= b(v)
    prefix = np.concatenate(([0.0], np.maximum.accumulate(ps)))       # max of ps[:k]
    suffix = np.concatenate((np.maximum.accumulate(ps[::-1])[::-1], [0.0]))  # of ps[k:]
    return np.maximum(prefix[k], np.minimum(suffix[k], b))


def column_sup(relation: Relation) -> np.ndarray:
    """max over u of relation(u, v) for every v.

    A rule relation whose implication never rises as its antecedent grows
    (operators.ANTITONE) has its column maxima in the row of its least
    antecedent degree. Any other relation takes the running maximum of each
    block's column maxima.
    """
    if relation.implication in ANTITONE:
        return relation.rows([np.argmin(relation.antecedent.mu)])[0]
    return reduce(np.maximum, (rows.max(axis=0) for _, rows in relation.blocks()))


def residual_bound(relation: Relation, observed: FuzzySet, tnorm: str) -> FuzzySet:
    """min over v of I_T(relation(u, v), observed(v)) at each u, I_T the residuum of T.

    Every solution of gmp(relation, x, tnorm) = observed lies at or below it, and
    for a left-continuous T it is the greatest solution whenever one exists
    (Sanchez 1976). A goedel rule relation under minimum takes a closed form.
    """
    check_universe(observed, relation.consequent.universe, "observation", "into")
    tnorm_fn(tnorm)  # raises on an unknown t-norm
    residuum = RESIDUUM_FOR_TNORM[canonical_name(tnorm)]
    if relation.implication == "goedel" and residuum == "goedel":
        bound = _goedel_bound(relation.antecedent.mu, relation.consequent.mu, observed.mu)
    else:
        impl = implication_fn(residuum)
        o = observed.mu[None, :]
        bound = np.concatenate([np.min(impl(rows, o), axis=1) for _, rows in relation.blocks()])
    return FuzzySet(relation.antecedent.universe, bound)


def _goedel_bound(a: np.ndarray, b: np.ndarray, o: np.ndarray) -> np.ndarray:
    """min over v of goedel(goedel(a(u), b(v)), o(v)), with b sorted once.

    Where b(v) >= a(u) the term is o(v); elsewhere it is o(v) if b(v) > o(v)
    and 1 otherwise. So each u needs the least o over a suffix of the sorted
    b, and over a prefix the least o among the v where b(v) > o(v).
    """
    order = np.argsort(b, kind="stable")
    bs, os_ = b[order], o[order]
    k = np.searchsorted(bs, a, side="left")  # v from k on have b(v) >= a(u)
    suffix = np.concatenate((np.minimum.accumulate(os_[::-1])[::-1], [1.0]))
    prefix = np.concatenate(([1.0], np.minimum.accumulate(np.where(bs > os_, os_, 1.0))))
    return np.minimum(prefix[k], suffix[k])
