"""Finite-grid universes, fuzzy sets, and parametric membership shapes.

Every continuous domain is represented by a strictly increasing grid of
sample points, so suprema and infima over a universe reduce to max/min
over a vector. Membership degrees are clamped to [0, 1] on construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: comparison tolerance for degree identities (normality, core membership, ...)
TOL = 1e-9


class UniverseMismatchError(ValueError):
    """Raised when an operation combines fuzzy sets from different universes."""


def clamp01(values: np.ndarray) -> np.ndarray:
    return np.clip(values, 0.0, 1.0)


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Universe:
    """A named, strictly increasing grid standing in for a continuous domain."""

    name: str
    grid: np.ndarray

    def __post_init__(self):
        grid = _frozen(self.grid)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError(f"universe {self.name!r}: grid must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(grid)):
            raise ValueError(f"universe {self.name!r}: grid points must be finite")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
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


def make_universe(name: str, lo: float, hi: float, n: int = 101) -> Universe:
    """Build a uniform grid of n points from lo to hi inclusive."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"universe {name!r}: bounds must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"universe {name!r}: lower bound must be below upper, got [{lo}, {hi}]")
    if n < 2:
        raise ValueError(f"universe {name!r}: need at least 2 grid points, got {n}")
    return Universe(name, np.linspace(lo, hi, n))


@dataclass(frozen=True, eq=False)
class FuzzySet:
    """Membership degrees over a universe's grid, clamped to [0, 1]."""

    universe: Universe
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", _membership(self.universe, self.mu, 1))

    @classmethod
    def rows(cls, universe: Universe, matrix) -> list[FuzzySet]:
        """One set per row of a matrix, each as FuzzySet(universe, row) would
        build it; the checks run once on the whole matrix and every set's
        degrees are a read-only view of one row."""
        sets = []
        for row in _membership(universe, matrix, 2):
            s = object.__new__(cls)
            object.__setattr__(s, "universe", universe)
            object.__setattr__(s, "mu", row)
            sets.append(s)
        return sets


def _membership(universe: Universe, values, ndim: int) -> np.ndarray:
    """Degrees checked, clamped and frozen: one vector over the universe's grid
    when ndim is 1, a matrix of such vectors, one per row, when ndim is 2."""
    mu = np.asarray(values, dtype=float)
    if mu.shape[ndim - 1:] != (len(universe),):
        raise ValueError(
            f"membership vector has {mu.shape[ndim - 1:]} values for the "
            f"{len(universe)}-point universe {universe.name!r}"
        )
    if not np.all(np.isfinite(mu)):
        raise ValueError(f"membership degrees on {universe.name!r} must be finite")
    mu = clamp01(mu)
    mu += 0.0  # -0.0 + 0.0 is +0.0, so no degree keeps the sign of a negative zero
    return _frozen(mu)


class Shape:
    """Marker base for parametric membership shapes."""


@dataclass(frozen=True)
class Triangular(Shape):
    a: float
    b: float
    c: float

    def __post_init__(self):
        _check_knots("triangular", (self.a, self.b, self.c))


@dataclass(frozen=True)
class Trapezoidal(Shape):
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        _check_knots("trapezoidal", (self.a, self.b, self.c, self.d))


@dataclass(frozen=True)
class Gaussian(Shape):
    center: float
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.width)):
            raise ValueError("gaussian: center and width must be finite")
        if self.width <= 0:
            raise ValueError(f"gaussian: width must be positive, got {self.width}")


@dataclass(frozen=True)
class Singleton(Shape):
    point: float

    def __post_init__(self):
        if not math.isfinite(self.point):
            raise ValueError("singleton: point must be finite")


@dataclass(frozen=True)
class Samples(Shape):
    """Explicit degrees, one per grid point."""

    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(float(d) for d in self.degrees))
        if not all(math.isfinite(d) for d in self.degrees):
            raise ValueError("samples: degrees must be finite")


def _check_knots(kind: str, knots: tuple) -> None:
    if not all(math.isfinite(k) for k in knots):
        raise ValueError(f"{kind}: knots must be finite, got {knots}")
    if any(lo > hi for lo, hi in zip(knots, knots[1:])):
        raise ValueError(f"{kind}: knots must be non-decreasing, got {knots}")


def _ramp_up(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # 0 below lo, 1 at/after hi; a vertical edge when lo == hi
    span = hi - lo if hi > lo else 1.0
    # np.where evaluates the division at points outside (lo, hi) too, where it
    # may overflow for a tiny span; those lanes are discarded by the guards
    with np.errstate(over="ignore"):
        return np.where(x >= hi, 1.0, np.where(x <= lo, 0.0, (x - lo) / span))


def _ramp_down(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = hi - lo if hi > lo else 1.0
    with np.errstate(over="ignore"):
        return np.where(x <= lo, 1.0, np.where(x >= hi, 0.0, (hi - x) / span))


def sample(shape: Shape, universe: Universe) -> FuzzySet:
    """Evaluate a shape on the universe grid.

    Triangular and trapezoidal shapes are piecewise linear between their
    knots. A singleton puts degree 1 on the nearest grid point (ties break
    toward the lower point) and 0 elsewhere.
    """
    x = universe.grid
    if isinstance(shape, (Triangular, Trapezoidal, Gaussian)) and len(universe) < 2:
        raise ValueError(
            f"parametric shapes need at least 2 grid points on {universe.name!r}"
        )
    if isinstance(shape, Triangular):
        mu = np.minimum(_ramp_up(x, shape.a, shape.b), _ramp_down(x, shape.b, shape.c))
    elif isinstance(shape, Trapezoidal):
        mu = np.minimum(_ramp_up(x, shape.a, shape.b), _ramp_down(x, shape.c, shape.d))
    elif isinstance(shape, Gaussian):
        # a tiny width overflows the scaled distance to inf, whose degree is 0
        with np.errstate(over="ignore"):
            mu = np.exp(-(((x - shape.center) / shape.width) ** 2))
    elif isinstance(shape, Singleton):
        mu = np.zeros(len(universe))
        mu[int(np.argmin(np.abs(x - shape.point)))] = 1.0
    elif isinstance(shape, Samples):
        if len(shape.degrees) != len(universe):
            raise ValueError(
                f"samples: {len(shape.degrees)} degrees for the "
                f"{len(universe)}-point universe {universe.name!r}"
            )
        mu = np.array(shape.degrees)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return FuzzySet(universe, mu)


def complement(s: FuzzySet) -> FuzzySet:
    """Pointwise standard negation: degree x becomes 1 - x."""
    return FuzzySet(s.universe, 1.0 - s.mu)


def height(s: FuzzySet) -> float:
    return float(np.max(s.mu))


def is_normalized(s: FuzzySet) -> bool:
    return height(s) >= 1.0 - TOL


def core_points(s: FuzzySet) -> list[float]:
    """Grid points carrying full membership (degree 1 within tolerance)."""
    return [float(x) for x in s.universe.grid[s.mu >= 1.0 - TOL]]


def compatibility(a: FuzzySet, b: FuzzySet) -> float:
    """Degree to which two sets overlap: max over the grid of min(a, b)."""
    if a.universe != b.universe:
        raise UniverseMismatchError(
            f"compatibility needs one universe, got {a.universe.name!r} and {b.universe.name!r}"
        )
    return float(np.max(np.minimum(a.mu, b.mu)))
