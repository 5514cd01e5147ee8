"""Brute-force ground truth for the forward inference equation.

Enumerates every antecedent candidate on a quantized degree grid and keeps
the ones whose forward image reproduces the observation. Exponential in the
number of grid points, so it only runs on deliberately small universes; its
job is to check the analytical hypotheses, not to scale.

The image of a candidate is the pointwise maximum of one row of a level table,
T(level, R(u, v)), per grid point u. Candidates grow one coordinate at a time
as integer codes beside their partial images, and a prefix whose partial image
already exceeds the observation by more than the tolerance is dropped: a
maximum only grows, so none of its completions can match. Prefixes expand in
blocks, so memory stays bounded however many candidates there are.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TOL, FuzzySet
from .inference import Relation, check_universe
from .operators import tnorm_fn

_MAX_CANDIDATES = 10_000_000
#: rows of |V| degrees that one expansion step may hold (at least one level's worth)
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
    """Round degrees to the quantization grid; also return the largest shift."""
    if levels < 2:
        raise ValueError(f"quantization needs at least 2 levels, got {levels}")
    values = np.asarray(mu, dtype=float)
    snapped = np.round(values * (levels - 1)) / (levels - 1)
    return snapped, float(np.max(np.abs(snapped - values))) if values.size else 0.0


def enumerate_solutions(relation: Relation, b_prime: FuzzySet, tnorm: str,
                        search: QuantizedSearch = QuantizedSearch()) -> list[FuzzySet]:
    """All quantized antecedents whose forward image matches the observation.

    The observation is snapped to the quantization grid first (snap_to_levels
    returns the shift); matching is within the standard tolerance.
    Candidates come back in lexicographic order of their degree vectors.

    The scan tabulates T(level, R(u, v)) once for every grid point u, level
    and v; a candidate's image is the maximum of its points' rows. It places
    one point at a time and drops each prefix whose partial image exceeds the
    observation by more than the tolerance at some v: the image of every
    completion is at least as large there, so none of them can match. Each
    step expands a block of prefixes into at most max(_CHUNK, levels)
    candidates, so memory does not grow with the search space. The final test
    and the hits are those of testing every candidate's full image.
    """
    check_universe(b_prime, relation.v_universe, "observation", "into")
    n = len(relation.u_universe)
    if n > search.max_points:
        raise ValueError(
            f"enumeration over {n} grid points exceeds the limit of "
            f"{search.max_points}; use a smaller universe or raise max_points"
        )
    total = search.levels ** n
    if total > _MAX_CANDIDATES:
        raise ValueError(
            f"search space of {total} candidates exceeds the limit of {_MAX_CANDIDATES}"
        )
    target, _ = snap_to_levels(b_prime.mu, search.levels)
    grid = np.linspace(0.0, 1.0, search.levels)
    table = tnorm_fn(tnorm)(grid[None, :, None], relation.degrees[:, None, :])
    # start from the empty prefix, code 0, whose image is 0 everywhere
    hits = list(_hit_codes(table, target, np.zeros((1, len(target))),
                           np.zeros(1, dtype=np.int64)))
    codes = np.concatenate(hits) if hits else np.zeros(0, dtype=np.int64)
    index = np.stack(np.unravel_index(codes, (search.levels,) * n), axis=1)
    return FuzzySet.rows(relation.u_universe, grid[index])


def _hit_codes(table: np.ndarray, target: np.ndarray, images: np.ndarray,
               codes: np.ndarray):
    """Yield blocks of matching candidates' codes, in lexicographic order.

    codes holds the prefixes placed so far as mixed-radix integers (first
    point most significant) and images their partial images; table holds the
    level rows of the points still to place, table[u, k, v] = T(level k, R(u, v)).
    """
    levels, width = table.shape[1:]
    step = max(1, _CHUNK // levels)
    for lo in range(0, len(codes), step):
        grown = np.maximum(images[lo:lo + step, None, :], table[0]).reshape(-1, width)
        grown_codes = (codes[lo:lo + step, None] * levels + np.arange(levels)).ravel()
        if len(table) == 1:
            yield grown_codes[np.all(np.abs(grown - target) <= TOL, axis=1)]
        else:
            keep = np.all(grown - target <= TOL, axis=1)
            grown, grown_codes = grown[keep], grown_codes[keep]
            yield from _hit_codes(table[1:], target, grown, grown_codes)


def greatest_enumerated(solutions: list[FuzzySet]) -> FuzzySet | None:
    """Pointwise maximum of enumerated solutions; None when there are none."""
    if not solutions:
        return None
    stacked = np.stack([s.mu for s in solutions])
    return FuzzySet(solutions[0].universe, np.max(stacked, axis=0))
