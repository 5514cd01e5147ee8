"""Results computed apart from fuzzyabduce, used to check its outputs.

Nothing here imports the package. Operators are plain scalar formulas on
Python floats, written from their textbook definitions; the few vectorised
helpers only tabulate those scalars.

Three facts carry the checks:

- Every implication the benchmark uses is antitone in its first argument,
  so the best degree a relation column R(., v) = I(A(.), B(v)) can supply
  is I(min A, B(v)). The solvability gate must agree with this closed form.
- For a t-norm T and its residuum I, an antecedent a satisfies
  T(a(u), R(u, v)) <= b(v) for every v exactly when a(u) <= min_v I(R(u, v), b(v)).
  So every exact solution of the sup-T equation lies under that residual
  bound, and when a solution exists the bound is the greatest one
  (Sanchez 1976).
- T(a, I(a, b)) <= b (detachment), so the image of the residual bound
  never exceeds the observation.
"""
from __future__ import annotations

import math

import numpy as np

#: tolerance of the package's degree comparisons (fuzzyabduce.core.TOL)
TOL = 1e-9


class Mismatch(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


TNORMS = {
    "minimum": lambda a, b: min(a, b),
    "product": lambda a, b: a * b,
    "lukasiewicz": lambda a, b: max(0.0, a + b - 1.0),
}

IMPLICATIONS = {
    # residuated: the largest z with T(a, z) <= b
    "goedel": lambda a, b: 1.0 if a <= b else b,
    "goguen": lambda a, b: 1.0 if a <= b else b / a,
    "lukasiewicz": lambda a, b: min(1.0, 1.0 - a + b),
    # material: S(1 - a, b) for a t-conorm S
    "reichenbach": lambda a, b: 1.0 - a + a * b,
    "kleene_dienes": lambda a, b: max(1.0 - a, b),
    "zadeh": lambda a, b: max(1.0 - a, min(a, b)),
}

#: the t-norm each residuated implication is the residuum of
RESIDUATED = {"goedel": "minimum", "goguen": "product", "lukasiewicz": "lukasiewicz"}

def column_supremum(implication: str, a, b) -> list[float]:
    """Best degree each consequent point can receive: I(min A, B(v))."""
    imp = IMPLICATIONS[implication]
    lowest = min(float(x) for x in a)
    return [imp(lowest, float(y)) for y in b]


def gate_deficit(implication: str, a, b, observed) -> list[float]:
    """Observation degree minus the column supremum, per consequent point."""
    return [float(o) - s for o, s in zip(observed, column_supremum(implication, a, b))]


def image_at(tnorm: str, implication: str, a_prime, a, b_v: float) -> float:
    """Forward image at one consequent point: max_u T(A'(u), I(A(u), B(v)))."""
    t, imp = TNORMS[tnorm], IMPLICATIONS[implication]
    return max(t(float(x), imp(float(y), b_v)) for x, y in zip(a_prime, a))


def variation_hypothesis_at(implication: str, a_u: float, b, observed) -> float:
    """Residual bound at one antecedent point: min_v I(I(A(u), B(v)), B'(v))."""
    imp = IMPLICATIONS[implication]
    return min(imp(imp(a_u, float(y)), float(o)) for y, o in zip(b, observed))


def certainty_hypothesis_at(tnorm: str, implication: str, a_u: float, b, observed) -> float:
    """Contraposition at one antecedent point: max_v T(B'(v), S(1 - B(v), 1 - A(u)))."""
    t, imp = TNORMS[tnorm], IMPLICATIONS[implication]
    return max(t(float(o), imp(1.0 - float(y), 1.0 - a_u)) for y, o in zip(b, observed))


def contrapositive_gap(implication: str, levels: int = 21) -> float:
    """Largest |S(a, b) - S(1 - b, 1 - a)| over a levels x levels grid."""
    imp = IMPLICATIONS[implication]
    grid = [i / (levels - 1) for i in range(levels)]
    return max(abs(imp(a, b) - imp(1.0 - b, 1.0 - a)) for a in grid for b in grid)


# --- the quantised relational equation ---------------------------------------

def relation(implication: str, a, b) -> np.ndarray:
    """R(u, v) = I(A(u), B(v)) on small grids, from the scalar formula."""
    imp = IMPLICATIONS[implication]
    return np.array([[imp(float(x), float(y)) for y in b] for x in a])


def residual_bound(tnorm: str, rel: np.ndarray, observed) -> np.ndarray:
    """min_v I(R(u, v), b(v)) with I the residuum of tnorm."""
    imp = IMPLICATIONS[next(i for i, t in RESIDUATED.items() if t == tnorm)]
    return np.array([min(imp(float(r), float(o)) for r, o in zip(row, observed))
                     for row in rel])


def level_table(tnorm: str, rel: np.ndarray, levels: int) -> np.ndarray:
    """table[k, u, v] = T(k / (levels - 1), R(u, v))."""
    t = TNORMS[tnorm]
    grid = np.linspace(0.0, 1.0, levels)
    return np.array([[[t(float(g), float(r)) for r in row] for row in rel] for g in grid])


def images_of_levels(table: np.ndarray, level_idx: np.ndarray) -> np.ndarray:
    """Forward images of antecedents given as level indices (one row each)."""
    n = level_idx.shape[1]
    return np.max(table[level_idx, np.arange(n)[None, :], :], axis=1)


def count_solutions(table: np.ndarray, bound: np.ndarray, observed) -> int:
    """Exact number of quantised antecedents whose image equals the observation.

    An antecedent solves the equation when it lies under the residual bound
    (then no image degree exceeds the observation) and every consequent point
    v is reached by some u with T(a(u), R(u, v)) = b(v). Inclusion-exclusion
    over the set S of points left unreached counts those antecedents without
    enumerating them: sum over S of (-1)^|S| prod_u #{a(u) under the bound
    reaching no v in S}.
    """
    levels, n, m = table.shape
    grid = np.linspace(0.0, 1.0, levels)
    allowed = grid[:, None] <= bound[None, :] + TOL                      # [k, u]
    reaches = np.abs(table - np.asarray(observed)[None, None, :]) <= TOL  # [k, u, v]
    subsets = (np.arange(2 ** m)[:, None] >> np.arange(m)[None, :]) & 1   # [s, v]
    hits_subset = (reaches[None, :, :, :] & subsets[:, None, None, :].astype(bool)).any(axis=3)
    free = (allowed[None, :, :] & ~hits_subset).sum(axis=1)              # [s, u]
    signs = (-1) ** subsets.sum(axis=1)
    return int(sum(int(sg) * math.prod(int(c) for c in row) for sg, row in zip(signs, free)))


# --- membership shapes of problem files --------------------------------------

def _up(x: float, lo: float, hi: float) -> float:
    return 1.0 if x >= hi else 0.0 if x <= lo else (x - lo) / (hi - lo)


def _down(x: float, lo: float, hi: float) -> float:
    return 1.0 if x <= lo else 0.0 if x >= hi else (hi - x) / (hi - lo)


def sample_shape(kind: str, params, grid) -> list[float]:
    """Degrees of a problem-file shape on a grid (triangular, trapezoidal,
    gaussian or samples)."""
    xs = [float(x) for x in grid]
    if kind == "triangular":
        a, b, c = params
        return [min(_up(x, a, b), _down(x, b, c)) for x in xs]
    if kind == "trapezoidal":
        a, b, c, d = params
        return [min(_up(x, a, b), _down(x, c, d)) for x in xs]
    if kind == "gaussian":
        center, width = params
        return [math.exp(-(((x - center) / width) ** 2)) for x in xs]
    if kind == "samples":
        return [min(1.0, max(0.0, float(p))) for p in params]
    raise ValueError(f"no reference formula for shape {kind!r}")
