"""Fuzzy if-then rules, their relations, and forward inference."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import FuzzySet, Universe, UniverseMismatchError, clamp01
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


#: degrees in one block of a folded relation: 2**14 doubles, 128 KB, which
#: glibc serves from the heap below its default mmap threshold. A block and
#: its temporaries then stay in a core's cache and are never page-faulted
#: afresh; 2**15 and 2**16 cells faulted 27,900 and 17,200 times per
#: dense_grid cycle, against 629 here. 16 rows at 1001 points.
BLOCK_CELLS = 1 << 14

#: largest |U|*|V| a rule relation is folded over when its operation has no
#: closed form; about a second of numpy work per fold, where the table itself
#: would take 800 MB
MAX_FOLD_CELLS = 100_000_000


@dataclass(frozen=True, eq=False)
class Relation:
    """A fuzzy relation between two grids: degree (i, j) relates u_i to v_j.

    Relation(u, v, table) holds a checked table. A rule's relation (see
    build_relation) holds only the degree vectors a on U and b on V and the
    name of an implication I, and computes rows of clamp01(I(a(u), b(v))) on
    demand; `degrees` tabulates it in full only when read.
    """

    u_universe: Universe
    v_universe: Universe
    table: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    implication: Optional[str] = None

    def __post_init__(self):
        shape = (len(self.u_universe), len(self.v_universe))
        if self.table is None:
            implication_fn(self.implication)  # raises on an unknown implication
            object.__setattr__(self, "implication", canonical_name(self.implication))
            for side, n in (("a", shape[0]), ("b", shape[1])):
                v = np.asarray(getattr(self, side), dtype=float)
                if v.shape != (n,):
                    raise ValueError(f"rule relation needs {side} of shape {(n,)}, got {v.shape}")
                object.__setattr__(self, side, v)
            return
        m = np.asarray(self.table, dtype=float)
        if m.shape != shape:
            raise ValueError(f"relation matrix must have shape {shape}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("relation degrees must be finite")
        m = clamp01(m)  # a fresh array
        m.setflags(write=False)
        object.__setattr__(self, "table", m)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Degrees of rows lo to hi - 1."""
        if self.table is not None:
            return self.table[lo:hi]
        rows = implication_fn(self.implication)(self.a[lo:hi, None], self.b[None, :])
        return np.clip(rows, 0.0, 1.0, out=rows)  # a fresh array, clamped in place

    @cached_property
    def degrees(self) -> np.ndarray:
        """The whole |U|x|V| table; a rule relation tabulates it on first read."""
        if self.table is not None:
            return self.table
        table = self.rows(0, len(self.u_universe))
        table.setflags(write=False)
        return table

    def blocks(self):
        """Yield (lo, rows lo onwards) over blocks of about BLOCK_CELLS degrees.

        A rule relation larger than MAX_FOLD_CELLS raises ValueError before
        any row is computed.
        """
        n, m = len(self.u_universe), len(self.v_universe)
        if self.table is None and n * m > MAX_FOLD_CELLS:
            raise ValueError(
                f"the {self.implication} relation from {self.u_universe.name!r} ({n} points) "
                f"to {self.v_universe.name!r} ({m} points) has {n * m} cells, over the "
                f"limit of {MAX_FOLD_CELLS} for an operation without a closed form; "
                f"use coarser grids"
            )
        step = max(1, BLOCK_CELLS // m)
        for lo in range(0, n, step):
            yield lo, self.rows(lo, lo + step)


def build_relation(rule: Rule) -> Relation:
    """The rule's implication over the two grids, as a lazy relation."""
    return Relation(rule.antecedent.universe, rule.consequent.universe,
                    a=rule.antecedent.mu, b=rule.consequent.mu, implication=rule.implication)


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
    block. Each path selects and combines the same degrees as the full table
    would, and max is exact in any order, so all give identical images.
    """
    check_universe(a_prime, relation.u_universe, "input", "from")
    kind = canonical_name(tnorm)
    t = tnorm_fn(kind)
    p = a_prime.mu
    if relation.implication == "goedel" and kind == "minimum":
        image = _goedel_minimum_image(relation.a, relation.b, p)
    elif relation.implication == "kleene_dienes":
        # T distributes over max: T(p, max(1 - a, b)) = max(T(p, 1 - a), T(p, b)),
        # and max over u of T(p(u), b(v)) is T(max p, b(v))
        image = np.maximum(np.max(t(p, 1.0 - relation.a)), t(np.max(p), relation.b))
    else:
        image = None
        for lo, rows in relation.blocks():
            part = np.max(t(p[lo:lo + len(rows), None], rows), axis=0)
            image = part if image is None else np.maximum(image, part, out=image)
    return FuzzySet(relation.v_universe, image)


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
    antecedent degree. For any other relation, min(1, x) = x, so the image
    of the all-ones set is each column's supremum.
    """
    if relation.implication in ANTITONE:
        i = int(np.argmin(relation.a))
        return relation.rows(i, i + 1)[0]
    return gmp(relation, FuzzySet(relation.u_universe, np.ones(len(relation.u_universe))),
               "minimum").mu


def residual_bound(relation: Relation, observed: FuzzySet, tnorm: str) -> FuzzySet:
    """min over v of I_T(relation(u, v), observed(v)) at each u, I_T the residuum of T.

    Every solution of gmp(relation, x, tnorm) = observed lies at or below it, and
    for a left-continuous T it is the greatest solution whenever one exists
    (Sanchez 1976). A goedel rule relation under minimum takes a closed form.
    """
    check_universe(observed, relation.v_universe, "observation", "into")
    tnorm_fn(tnorm)  # raises on an unknown t-norm
    residuum = RESIDUUM_FOR_TNORM[canonical_name(tnorm)]
    if relation.implication == "goedel" and residuum == "goedel":
        bound = _goedel_bound(relation.a, relation.b, observed.mu)
    else:
        impl = implication_fn(residuum)
        o = observed.mu[None, :]
        bound = np.concatenate([np.min(impl(rows, o), axis=1) for _, rows in relation.blocks()])
    return FuzzySet(relation.u_universe, clamp01(bound))


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
