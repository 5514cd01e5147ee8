"""Brute-force ground truth for the forward inference equation.

Enumerates every antecedent candidate on a quantized degree grid and keeps
the ones whose forward image reproduces the observation. Exponential in the
number of grid points, so it only runs on deliberately small universes; its
job is to check the analytical hypotheses, not to scale.

The image of a candidate is the pointwise maximum of one row of a level table,
T(level, R(u, v)), per grid point u. The scan treats the equation as a covering
problem (Sanchez 1976; Di Nola et al. 1989): a level is admissible at u when its
row never exceeds the observation by more than the tolerance, and it covers the
v where its row reaches the observation within the tolerance. The solutions are
exactly the candidates of admissible levels whose rows together cover every v
(see enumerate_solutions). Candidates grow one grid point at a time over
admissible levels, and in blocks, so memory stays bounded however many
candidates there are. Each candidate is an integer code, one fixed-width bit
field per placed point holding its level index, beside its packed cover bits.
The solutions come back as one degree matrix (Solutions), read as fuzzy sets
only where a caller reads one.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import MAX_CELLS, TOL, FuzzySet, Universe, level_grid
from .inference import Relation, check_universe
from .operators import tnorm_fn

#: the most candidates levels ** |U| a search may span: a bound on work, not on an array
_MAX_CANDIDATES = 10_000_000
#: cover rows that one expansion step may hold (at least one point's admissible
#: levels' worth); a row packs one bit per v, so it takes ceil(|V| / 8) bytes
_CHUNK = 8_192


@dataclass(frozen=True)
class QuantizedSearch:
    """Search-space bounds for the enumeration."""

    levels: int = 11
    max_points: int = 5

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError(f"quantization needs at least 2 levels, got {self.levels}")
        if self.max_points < 1:
            raise ValueError(f"max_points must be positive, got {self.max_points}")


def snap_to_levels(mu: np.ndarray, levels: int) -> tuple[np.ndarray, float]:
    """Move each degree to its nearest level of level_grid(levels), the levels
    the search uses; also return the largest shift."""
    grid = level_grid(levels)
    values = np.asarray(mu, dtype=float)
    snapped = grid[np.clip(np.round(values * (levels - 1)), 0, levels - 1).astype(int)]
    return snapped, float(np.max(np.abs(snapped - values))) if values.size else 0.0


#: FuzzySet's two slots, set without its frozen __setattr__ and __post_init__
_set_universe, _set_mu = FuzzySet.universe.__set__, FuzzySet.mu.__set__


@dataclass(frozen=True, eq=False, slots=True)
class Solutions(Sequence):
    """The oracle's solutions as a sequence of fuzzy sets over one universe.

    matrix is the read-only (k, |U|) degree matrix, one solution per row;
    enumerate_solutions builds it from quantization levels, which are finite,
    in [0, 1] and never a negative zero, and freezes it in place. An item is a
    FuzzySet built when it is read, whose degrees are a read-only view of its
    row, with no check; a slice is the Solutions of those rows.
    """

    universe: Universe
    matrix: np.ndarray

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Solutions(self.universe, self.matrix[index])
        return self._item(self.matrix[operator.index(index)])

    def __iter__(self):
        return map(self._item, self.matrix)

    def _item(self, row: np.ndarray) -> FuzzySet:
        # the row holds levels, already degrees, so no FuzzySet check runs on it
        s = object.__new__(FuzzySet)
        _set_universe(s, self.universe)
        _set_mu(s, row)
        return s


def enumerate_solutions(relation: Relation, b_prime: FuzzySet, tnorm: str,
                        search: QuantizedSearch = QuantizedSearch()) -> Solutions:
    """All quantized antecedents whose forward image matches the observation,
    as one read-only matrix over the relation's antecedent universe (Solutions).
    Its matrix is the one array that picks each solution's levels, frozen in place.

    The observation is snapped to the quantization grid first (snap_to_levels
    returns the shift); matching is within the standard tolerance.
    Candidates come back in lexicographic order of their degree vectors, and
    no FuzzySet is built until a caller reads one.

    The scan computes gap = T(level, R(u, v)) - target once for every grid
    point u, level and v. A level is admissible at u when its gap is at most
    TOL at every v, and its cover row is the packed bits of gap >= -TOL. The
    rounded x - t never falls as x grows, so fl(max x - t) = max fl(x - t):
    the image minus the target is at most TOL at v iff every row's gap is,
    and at least -TOL iff some row's is. So a candidate's image is within TOL
    of the target exactly when each of its levels is admissible and its cover
    rows OR to every v, and the hits are those of testing every candidate's
    full image. The scan places one point at a time, expanding only its admissible
    levels in ascending order, and each step expands a block of prefixes into
    at most max(_CHUNK, levels) cover rows, so memory does not grow with the
    search space. A level table over MAX_CELLS cells is rejected
    before it, or the relation's rows, is built.
    """
    check_universe(b_prime, relation.consequent.universe, "observation", "into")
    n = len(relation.antecedent.universe)
    if n > search.max_points:
        raise ValueError(
            f"enumeration over {n} grid points exceeds the limit of "
            f"{search.max_points}; use a smaller universe or raise max_points"
        )
    if search.levels ** n > _MAX_CANDIDATES:
        # the count itself can pass the 4,300 digits that str() of an int allows
        raise ValueError(
            f"search space of {search.levels} levels at each of {n} grid points "
            f"exceeds the limit of {_MAX_CANDIDATES} candidates"
        )
    width = len(relation.consequent.universe)
    cells = n * search.levels * width
    if cells > MAX_CELLS:
        raise ValueError(
            f"level table of {cells} cells ({n} grid points x {search.levels} levels x "
            f"{width} observation points) exceeds the limit of {MAX_CELLS}"
        )
    target, _ = snap_to_levels(b_prime.mu, search.levels)
    grid = level_grid(search.levels)
    gap = tnorm_fn(tnorm)(grid[None, :, None], relation.rows(slice(None))[:, None, :]) - target
    admissible = np.all(gap <= TOL, axis=2)
    covers = np.packbits(gap >= -TOL, axis=2)
    points = [(picks, covers[u, picks])
              for u, picks in enumerate(map(np.flatnonzero, admissible))]
    full = np.packbits(np.ones(width, dtype=bool))
    # a code holds each placed point's level index in a field of bits bits,
    # the first point's highest. levels ** n <= 10**7 < 2**24 and
    # bits <= log2(levels) + 1, so bits * n <= 24 + n <= 47 (2**n <= 10**7
    # bounds n by 23): every code fits an int64
    bits = (search.levels - 1).bit_length()
    # start from the empty prefix, code 0, which covers no v
    hits = list(_hit_codes(points, full, bits,
                           np.zeros((1, full.size), dtype=np.uint8),
                           np.zeros(1, dtype=np.int64)))
    codes = np.concatenate(hits) if hits else np.zeros(0, dtype=np.int64)
    matrix = np.empty((len(codes), n))
    for u in range(n):
        index = codes >> (bits * (n - 1 - u))
        index &= (1 << bits) - 1
        matrix[:, u] = grid[index]
    matrix.setflags(write=False)
    return Solutions(relation.antecedent.universe, matrix)


def _hit_codes(points: list, full: np.ndarray, bits: int, covered: np.ndarray,
               codes: np.ndarray):
    """Yield blocks of matching candidates' codes, in lexicographic order.

    codes holds the prefixes placed so far, each point's level index in a
    field of bits bits (first point most significant), so codes order as the
    prefixes do; covered holds the OR of their cover rows. points holds, for
    each point still to place, its admissible levels in ascending order and
    their cover rows. full is the cover row of every v.
    """
    picks, rows = points[0]
    step = max(1, _CHUNK // (len(picks) or 1))
    for lo in range(0, len(codes), step):
        grown = (covered[lo:lo + step, None, :] | rows).reshape(-1, full.size)
        grown_codes = ((codes[lo:lo + step, None] << bits) | picks).ravel()
        if len(points) == 1:
            yield grown_codes[np.all(grown == full, axis=1)]
        else:
            yield from _hit_codes(points[1:], full, bits, grown, grown_codes)


def greatest_enumerated(solutions: Solutions) -> FuzzySet | None:
    """Pointwise maximum of the solution matrix's rows; None when there are none."""
    if not solutions:
        return None
    return FuzzySet(solutions.universe, solutions.matrix.max(axis=0))
