"""Fuzzy conjunction (t-norm) and implication operators.

All operator formulas are written with numpy primitives so they apply
elementwise to arrays as well as scalars; the public scalar entry points
validate their arguments and return plain floats. Operators are addressed
by stable text names ("minimum", "goedel", "kleene-dienes", ...); hyphens
and underscores are interchangeable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import MAX_CELLS, TOL, level_grid


def canonical_name(kind: str) -> str:
    return str(kind).strip().lower().replace("-", "_")


# --- t-norms ----------------------------------------------------------------

def _t_lukasiewicz(a, b):
    return np.maximum(0.0, np.add(a, b) - 1.0)


TNORMS: dict[str, Callable] = {
    "minimum": np.minimum,
    "product": np.multiply,
    "lukasiewicz": _t_lukasiewicz,
}


def _check_degree(label: str, value) -> float:
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{label} must lie in [0, 1], got {value}")
    return v + 0.0  # -0.0 + 0.0 is +0.0, as FuzzySet stores it


def _lookup(table: dict, kind: str, what: str) -> Callable:
    k = canonical_name(kind)
    if k not in table:
        raise ValueError(f"unknown {what} {kind!r}; choose from {sorted(table)}")
    return table[k]


def tnorm_fn(kind: str) -> Callable:
    return _lookup(TNORMS, kind, "t-norm")


def tnorm(kind: str, a: float, b: float) -> float:
    """Fuzzy conjunction of two degrees."""
    fn = tnorm_fn(kind)
    return float(fn(_check_degree("a", a), _check_degree("b", b)))


# --- implications ----------------------------------------------------------

def _s_reichenbach(a, b):
    return 1.0 - np.asarray(a, float) + np.multiply(a, b)


def _s_zadeh(a, b):
    return np.maximum(1.0 - np.asarray(a, float), np.minimum(a, b))


def _s_kleene_dienes(a, b):
    return np.maximum(1.0 - np.asarray(a, float), b)


def _lukasiewicz_implication(a, b):
    # appears both as the bounded-sum s-form and as the residuum of the
    # lukasiewicz t-norm; the closed forms coincide
    return np.minimum(1.0, np.asarray(b, float) - a + 1.0)


def _r_goedel(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return np.where(a <= b, 1.0, b)


def _r_goguen(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    # one array, written in place: 1 where a is 0, else min(b / a, 1)
    out = np.ones(np.broadcast_shapes(a.shape, b.shape))
    with np.errstate(over="ignore"):  # b/a may overflow for subnormal a; min(.., 1) absorbs it
        np.divide(b, a, out=out, where=a > 0.0)
    return np.minimum(out, 1.0, out=out)


#: material implications built as disjunction of negated antecedent
S_IMPLICATIONS: dict[str, Callable] = {
    "reichenbach": _s_reichenbach,
    "zadeh": _s_zadeh,
    "kleene_dienes": _s_kleene_dienes,
    "lukasiewicz": _lukasiewicz_implication,
}

#: residuated implications, each the residuum of a generating t-norm
R_IMPLICATIONS: dict[str, Callable] = {
    "goedel": _r_goedel,
    "goguen": _r_goguen,
    "lukasiewicz": _lukasiewicz_implication,
}

#: s-implications satisfying S(a, b) = S(1-b, 1-a) on the whole square.
#: zadeh's implication fails this identity and is deliberately excluded.
CONTRAPOSITIVE_S = frozenset({"reichenbach", "kleene_dienes", "lukasiewicz"})

#: implications whose closed forms, as computed, never rise as the antecedent
#: grows and never fall as the consequent grows: each is built from operations
#: that round monotonically. inference relies on the first: column_sup reads
#: one row, and gmp folds only undominated rows. reichenbach's 1 - a + a*b is
#: antitone only in exact arithmetic, as a sum of a falling and a rising
#: rounded term, so it is left out.
ANTITONE = frozenset({"goedel", "goguen", "kleene_dienes", "lukasiewicz"})

RESIDUUM_FOR_TNORM = {
    "minimum": "goedel",
    "product": "goguen",
    "lukasiewicz": "lukasiewicz",
}

TNORM_FOR_RESIDUUM = {impl: t for t, impl in RESIDUUM_FOR_TNORM.items()}

#: every implication a rule can take: the s- and r-families together
IMPLICATIONS: dict[str, Callable] = {**S_IMPLICATIONS, **R_IMPLICATIONS}


def implication_fn(kind: str) -> Callable:
    return _lookup(IMPLICATIONS, kind, "implication")


def implication(kind: str, a: float, b: float) -> float:
    """Degree to which antecedent degree a implies consequent degree b."""
    fn = implication_fn(kind)
    return float(fn(_check_degree("a", a), _check_degree("b", b)))


def _residuum_scan(t: Callable, as_: np.ndarray, bs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """For each a of as_ (a row) and b of bs (a column), the largest z of the
    increasing grid zs with T(a, z) <= b, or 0.0 where there is none.

    Every t-norm of TNORMS rounds monotonically in z, so the row T(a, zs)
    never falls and a bisection finds that z exactly.
    """
    last = np.array([t(a, zs).searchsorted(bs, side="right") for a in as_]) - 1
    return np.where(last >= 0, zs[last], 0.0)


def residuum_oracle(tnorm_kind: str, a: float, b: float, levels: int) -> float:
    """Brute-force residuum: the largest z on a quantized grid with T(a, z) <= b.

    Independent check for the closed-form residuated implications: it tests
    every z of level_grid(levels) and returns the largest that qualifies, or
    0.0 where none does.
    """
    fn = tnorm_fn(tnorm_kind)
    a, b = _check_degree("a", a), _check_degree("b", b)
    zs = level_grid(levels)
    return float(np.max(zs[fn(a, zs) <= b], initial=0.0))


def residuum_gap(tnorm_kind: str, implication_kind: str, points: int, levels: int) -> float:
    """Largest gap between a closed-form implication and residuum_oracle
    over the points x points grid of degrees a, b of level_grid(points).

    Bisects each a's own row against every b and compares the scanned matrix
    with the closed form in one pass, so the largest temporaries hold
    points x points values or one row of levels degrees.
    """
    t = tnorm_fn(tnorm_kind)
    impl = implication_fn(implication_kind)
    g = level_grid(points)
    scanned = _residuum_scan(t, g, g, level_grid(levels))
    return float(np.max(np.abs(impl(g[:, None], g[None, :]) - scanned)))


# --- algebraic property suite ----------------------------------------------

@dataclass(frozen=True)
class Counterexample:
    args: tuple
    lhs: float
    rhs: float
    violation: float


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    cases: int
    worst: Optional[Counterexample] = None


@dataclass(frozen=True)
class PropertyReport:
    tnorm: Optional[str]
    implication: str
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _worst_case(violation: np.ndarray, g: np.ndarray, lhs: np.ndarray,
                rhs: np.ndarray) -> Counterexample | None:
    """The worst counterexample in a violation tensor whose every axis is the
    grid g, or None within tolerance."""
    shape = violation.shape
    worst_flat = int(np.argmax(violation))
    worst_val = float(violation.flat[worst_flat])
    if worst_val <= TOL:
        return None
    idx = np.unravel_index(worst_flat, shape)
    args = tuple(float(g[i]) for i in idx)
    lhs_b = np.broadcast_to(lhs, shape)
    rhs_b = np.broadcast_to(rhs, shape)
    return Counterexample(args, float(lhs_b[idx]), float(rhs_b[idx]), worst_val)


def property_suite(tnorm_kind: Optional[str], implication_kind: str,
                   grid_levels: int) -> PropertyReport:
    """Scan an implication for its expected algebraic laws on a quantized grid.

    A t-norm selects the ordering, detachment, and boundary laws that tie a
    residuum to its t-norm, so it must generate the implication, and a
    residuated implication needs one; an unknown t-norm is reported first.
    Material (s-family) implications are checked for contrapositive symmetry.

    Each law is a row (name, lhs, rhs, premise or None, "==" or "<="), its
    arguments one grid axis each; it is violated where the premise holds and
    lhs differs from rhs, or exceeds it. Failures are recorded with the worst
    counterexample found; they are report content, not errors.
    """
    if grid_levels < 2:
        raise ValueError(f"property suite needs at least 2 grid levels, got {grid_levels}")
    if grid_levels ** 3 > MAX_CELLS:
        raise ValueError(f"property suite grid of {grid_levels} levels exceeds the limit "
                         f"of {MAX_CELLS} cells for its three-argument laws")
    impl_name = canonical_name(implication_kind)
    impl = implication_fn(impl_name)
    t_name = None if tnorm_kind is None else canonical_name(tnorm_kind)
    if t_name is None and impl_name not in S_IMPLICATIONS:
        raise ValueError(f"implication {impl_name!r} is residuated; "
                         f"pass its generating t-norm")
    t = None if t_name is None else tnorm_fn(t_name)  # raises on an unknown t-norm
    if t is not None and impl_name not in R_IMPLICATIONS:
        raise ValueError(f"implication {impl_name!r} is not residuated; pass no t-norm")
    if t is not None and TNORM_FOR_RESIDUUM[impl_name] != t_name:
        raise ValueError(f"implication {impl_name!r} is the residuum of "
                         f"{TNORM_FOR_RESIDUUM[impl_name]!r}, not of {t_name!r}")
    g = level_grid(grid_levels)
    a2, b2 = g[:, None], g[None, :]
    iab = impl(a2, b2)
    laws = []
    if t is not None:
        a3, b3, c3 = g[:, None, None], g[None, :, None], g[None, None, :]
        laws += [
            # larger consequents never shrink the implication degree
            ("monotone_consequent", impl(a3, b3), impl(a3, c3), b3 <= c3, "<="),
            # combining an antecedent with its residuum stays under the consequent
            ("detachment_below", t(a2, iab), b2, None, "<="),
            # the residuum recovers at least the consequent from a conjunction
            ("expansion_above", b2, impl(a2, t(a2, b2)), None, "<="),
            # stronger antecedents never raise the implication degree
            ("antitone_antecedent", impl(b3, c3), impl(a3, c3), a3 <= b3, "<="),
            # an already-satisfied implication has full degree
            ("full_degree_when_ordered", iab, 1.0, a2 <= b2, "=="),
            # a certain antecedent passes the consequent through unchanged
            ("left_unit", impl(1.0, g), g, None, "=="),
            # the implication degree dominates the bare consequent
            ("dominates_consequent", b2, iab, None, "<="),
        ]
    if impl_name in S_IMPLICATIONS:
        laws.append(("contrapositive_symmetry", iab, impl(1.0 - b2, 1.0 - a2), None, "=="))
    checks = []
    for name, lhs, rhs, premise, compare in laws:
        violation = np.abs(lhs - rhs) if compare == "==" else lhs - rhs
        if premise is not None:
            violation = np.where(premise, violation, -np.inf)
        worst = _worst_case(violation, g, lhs, rhs)
        checks.append(PropertyCheck(name, worst is None, violation.size, worst))
    return PropertyReport(t_name, impl_name, tuple(checks))
