"""Brute-force ground truth for the forward inference equation.

Enumerates every antecedent candidate on a quantized degree grid and keeps
the ones whose forward image reproduces the observation. Exponential in the
number of grid points, so it only runs on deliberately small universes; its
job is to check the analytical hypotheses, not to scale.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .core import TOL, FuzzySet
from .inference import Relation, check_universe
from .operators import tnorm_fn

log = logging.getLogger(__name__)

_MAX_CANDIDATES = 10_000_000
_CHUNK = 65_536


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

    The observation is snapped to the quantization grid first (the shift is
    logged when non-zero); matching is within the standard tolerance.
    Candidates come back in lexicographic order of their degree vectors.
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
    target, snap_distance = snap_to_levels(b_prime.mu, search.levels)
    if snap_distance > TOL:
        log.debug(
            "observation snapped to %d-level grid; largest shift %.6g",
            search.levels, snap_distance,
        )
    t = tnorm_fn(tnorm)
    grid = np.linspace(0.0, 1.0, search.levels)
    degrees = relation.degrees
    found: list[FuzzySet] = []
    candidates = itertools.product(grid, repeat=n)
    while True:
        block = list(itertools.islice(candidates, _CHUNK))
        if not block:
            break
        cand = np.array(block)
        images = np.max(t(cand[:, :, None], degrees[None, :, :]), axis=1)
        hits = np.all(np.abs(images - target[None, :]) <= TOL, axis=1)
        found.extend(FuzzySet(relation.u_universe, row) for row in cand[hits])
    return found


def greatest_enumerated(solutions: list[FuzzySet]) -> FuzzySet | None:
    """Pointwise maximum of enumerated solutions; None when there are none."""
    if not solutions:
        return None
    stacked = np.stack([s.mu for s in solutions])
    return FuzzySet(solutions[0].universe, np.max(stacked, axis=0))
