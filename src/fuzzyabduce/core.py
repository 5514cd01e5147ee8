"""Finite-grid universes, fuzzy sets, and parametric membership shapes.

Every continuous domain is represented by a strictly increasing grid of
sample points, so suprema and infima over a universe reduce to max/min
over a vector. Membership degrees are clamped to [0, 1] on construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: comparison tolerance for degree equalities (solvability gaps, round trips,
#: the oracle's exact images, operator laws)
TOL = 1e-9

#: the one array budget: the most doubles (80 MB) that a universe grid
#: (make_universe), an oracle level table or an operator property grid may hold
MAX_CELLS = 10_000_000

#: degrees in one block of a folded relation: 2**14 doubles, 128 KB, which
#: glibc serves from the heap below its default mmap threshold. A block and its
#: temporaries then stay in a core's cache and are never page-faulted afresh;
#: 2**15 and 2**16 cells faulted 27,900 and 17,200 times per dense_grid cycle,
#: against 629 here. 16 rows at 1001 points.
BLOCK_CELLS = 1 << 14


class UniverseMismatchError(ValueError):
    """Raised when an operation combines fuzzy sets from different universes."""


@dataclass(frozen=True, eq=False)
class Universe:
    """A named, strictly increasing grid standing in for a continuous domain."""

    name: str
    grid: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        grid.setflags(write=False)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError(f"universe {self.name!r}: grid must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(grid)):
            raise ValueError(f"universe {self.name!r}: grid points must be finite")
        if not np.all(grid[1:] > grid[:-1]):  # np.diff would overflow on a wide grid
            raise ValueError(f"universe {self.name!r}: grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)

    def __len__(self) -> int:
        return int(self.grid.size)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Universe)
            and self.name == other.name
            and np.array_equal(self.grid, other.grid)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.grid.tobytes()))


def make_universe(name: str, lo: float, hi: float, n: int) -> Universe:
    """Build a uniform grid of n points from lo to hi inclusive."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"universe {name!r}: bounds must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"universe {name!r}: lower bound must be below upper, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ValueError(f"universe {name!r}: span hi - lo overflows, got [{lo}, {hi}]")
    if n < 2:
        raise ValueError(f"universe {name!r}: need at least 2 grid points, got {n}")
    if n > MAX_CELLS:
        raise ValueError(f"universe {name!r}: {n} grid points exceed the limit of "
                         f"{MAX_CELLS}, so the grid is not allocated")
    return Universe(name, np.linspace(lo, hi, n))


def level_grid(levels: int) -> np.ndarray:
    """The quantization grid of levels evenly spaced degrees from 0 to 1: the
    oracle's search, its snapping and the operator checks all read this one."""
    if levels < 2:
        raise ValueError(f"quantization needs at least 2 levels, got {levels}")
    return np.linspace(0.0, 1.0, levels)


@dataclass(frozen=True, eq=False, slots=True)
class FuzzySet:
    """Membership degrees over a universe's grid, clamped to [0, 1].

    The degrees, finite and one per grid point, are clipped into one fresh array
    with no negative zero, frozen in place. Slotted: a set holds its two fields
    and no instance dict, so the sets that the oracle's solutions build as they
    are read are cheap."""

    universe: Universe
    mu: np.ndarray

    def __post_init__(self):
        universe = self.universe
        mu = np.asarray(self.mu, dtype=float)
        if mu.shape != (len(universe),):
            raise ValueError(f"membership vector has {mu.shape} values for the "
                             f"{len(universe)}-point universe {universe.name!r}")
        if not np.all(np.isfinite(mu)):
            raise ValueError(f"membership degrees on {universe.name!r} must be finite")
        mu = np.clip(mu, 0.0, 1.0)  # the one copy
        mu += 0.0  # -0.0 + 0.0 is +0.0, so no degree keeps the sign of a negative zero
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


def _ramp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # 0 below lo, 1 at/after hi; a vertical edge when lo == hi
    span = hi - lo if hi > lo else 1.0
    # np.where evaluates the division at points outside (lo, hi) too, where it
    # may overflow for a tiny span; those lanes are discarded by the guards
    with np.errstate(over="ignore"):
        return np.where(x >= hi, 1.0, np.where(x <= lo, 0.0, (x - lo) / span))


def _trapezoidal(x: np.ndarray, *knots) -> np.ndarray:
    # knots (a, b, c, d), or a triangle's (a, b, c), which is (a, b, b, c)
    kind = "trapezoidal" if len(knots) == 4 else "triangular"
    a, b, c, d = map(float, (*knots[:2], *knots[-2:]))
    # in floats, a span that overflows, integer knots' too, reads inf, not an all-zero edge
    if not all(math.isfinite(hi - lo) for lo, hi in ((a, b), (b, c), (c, d))):
        raise ValueError(f"{kind}: knots must be finite, and so must the span "
                         f"between neighbours, got {knots}")
    if any(lo > hi for lo, hi in zip(knots, knots[1:])):
        raise ValueError(f"{kind}: knots must be non-decreasing, got {knots}")
    # the falling edge from c down to d is the rising edge over -x from -d to -c
    return np.minimum(_ramp(x, a, b), _ramp(-x, -d, -c))


def _gaussian(x: np.ndarray, center, width) -> np.ndarray:
    if not (math.isfinite(center) and math.isfinite(width)):
        raise ValueError("gaussian: center and width must be finite")
    if width <= 0:
        raise ValueError(f"gaussian: width must be positive, got {width}")
    # a tiny width overflows the scaled distance to inf, whose degree is 0
    with np.errstate(over="ignore"):
        return np.exp(-(((x - center) / width) ** 2))


def _singleton(x: np.ndarray, point) -> np.ndarray:
    if not math.isfinite(point):
        raise ValueError("singleton: point must be finite")
    # the grid strictly increases, so the nearest point is x[i - 1] or x[i];
    # their distances are compared exactly, since in floats they may overflow or
    # round to a tie
    point = float(point)
    i = int(np.searchsorted(x, point))
    if 0 < i < x.size:
        # imported here: fractions pulls in decimal, about 3 ms at import time
        from fractions import Fraction

        lo, p, hi = map(Fraction, (x[i - 1], point, x[i]))
        i -= p - lo <= hi - p  # ties break toward the lower point
    mu = np.zeros(x.size)
    mu[min(i, x.size - 1)] = 1.0
    return mu


#: membership shapes by their name in problem files: the number of parameters
#: each takes, and its degrees at the grid points x given them
SHAPES = {"triangular": (3, _trapezoidal), "trapezoidal": (4, _trapezoidal),
          "gaussian": (2, _gaussian), "singleton": (1, _singleton)}


def sample(kind: str, params, universe: Universe) -> FuzzySet:
    """The set of a shape, by its name in SHAPES, evaluated on the universe grid;
    kind "samples" takes the degrees themselves, one in [0, 1] per grid point.

    Triangular and trapezoidal shapes are piecewise linear between their
    knots. A singleton puts degree 1 on the nearest grid point (ties break
    toward the lower point) and 0 elsewhere.
    """
    if kind == "samples":
        s = FuzzySet(universe, params)  # its length and finiteness checks come first
        for x in params:
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"samples: degrees must lie in [0, 1], got {x}")
        return s
    if kind not in SHAPES:
        raise ValueError(f"unknown shape kind {kind!r}")
    arity, degrees_at = SHAPES[kind]
    if len(params) != arity:
        raise ValueError(f"shape {kind!r} takes {arity} parameters, got {len(params)}")
    if kind != "singleton" and len(universe) < 2:
        raise ValueError(f"parametric shapes need at least 2 grid points on {universe.name!r}")
    return FuzzySet(universe, degrees_at(universe.grid, *params))


def complement(s: FuzzySet) -> FuzzySet:
    """Pointwise standard negation: degree x becomes 1 - x."""
    return FuzzySet(s.universe, 1.0 - s.mu)


def compatibility(a: FuzzySet, b: FuzzySet) -> float:
    """Degree to which two sets overlap: max over the grid of min(a, b)."""
    if a.universe != b.universe:
        raise UniverseMismatchError(
            f"compatibility needs one universe, got {a.universe.name!r} and {b.universe.name!r}"
        )
    return float(np.max(np.minimum(a.mu, b.mu)))
