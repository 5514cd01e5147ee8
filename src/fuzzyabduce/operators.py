"""Fuzzy conjunction, disjunction, and implication operators.

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

from .core import TOL


def canonical_name(kind: str) -> str:
    return str(kind).strip().lower().replace("-", "_")


# --- t-norms and t-conorms -------------------------------------------------

def _t_minimum(a, b):
    return np.minimum(a, b)


def _t_product(a, b):
    return np.multiply(a, b)


def _t_lukasiewicz(a, b):
    return np.maximum(0.0, np.add(a, b) - 1.0)


def _c_maximum(a, b):
    return np.maximum(a, b)


def _c_probabilistic_sum(a, b):
    return np.add(a, b) - np.multiply(a, b)


def _c_bounded_sum(a, b):
    return np.minimum(1.0, np.add(a, b))


TNORMS: dict[str, Callable] = {
    "minimum": _t_minimum,
    "product": _t_product,
    "lukasiewicz": _t_lukasiewicz,
}

TCONORMS: dict[str, Callable] = {
    "maximum": _c_maximum,
    "probabilistic_sum": _c_probabilistic_sum,
    "bounded_sum": _c_bounded_sum,
}

#: dual t-conorm of each t-norm under the standard negation
DUAL_TCONORM = {
    "minimum": "maximum",
    "product": "probabilistic_sum",
    "lukasiewicz": "bounded_sum",
}


def _check_degree(label: str, value) -> float:
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{label} must lie in [0, 1], got {value}")
    return v


def _lookup(table: dict, kind: str, what: str) -> Callable:
    k = canonical_name(kind)
    if k not in table:
        raise ValueError(f"unknown {what} {kind!r}; choose from {sorted(table)}")
    return table[k]


def tnorm_fn(kind: str) -> Callable:
    return _lookup(TNORMS, kind, "t-norm")


def tconorm_fn(kind: str) -> Callable:
    return _lookup(TCONORMS, kind, "t-conorm")


def tnorm(kind: str, a: float, b: float) -> float:
    """Fuzzy conjunction of two degrees."""
    fn = tnorm_fn(kind)
    return float(fn(_check_degree("a", a), _check_degree("b", b)))


def tconorm(kind: str, a: float, b: float) -> float:
    """Fuzzy disjunction of two degrees."""
    fn = tconorm_fn(kind)
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
    with np.errstate(over="ignore"):  # b/a may overflow for subnormal a; min(.., 1) absorbs it
        ratio = b / np.where(a > 0.0, a, 1.0)
    return np.where(a > 0.0, np.minimum(ratio, 1.0), 1.0)


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
#: grows: each is built from operations that round monotonically. reichenbach's
#: 1 - a + a*b is antitone only in exact arithmetic, as a sum of a falling and
#: a rising rounded term, so it is left out.
ANTITONE = frozenset({"goedel", "goguen", "kleene_dienes", "lukasiewicz"})

RESIDUUM_FOR_TNORM = {
    "minimum": "goedel",
    "product": "goguen",
    "lukasiewicz": "lukasiewicz",
}

TNORM_FOR_RESIDUUM = {impl: t for t, impl in RESIDUUM_FOR_TNORM.items()}


def ql_implication_fn(tnorm_kind: str) -> Callable:
    """Quantum-logic style implication C(1 - a, T(a, b)) from a dual pair."""
    k = canonical_name(tnorm_kind)
    t = tnorm_fn(k)
    c = tconorm_fn(DUAL_TCONORM[k])

    def ql(a, b):
        return c(1.0 - np.asarray(a, float), t(a, b))

    return ql


def implication_fn(kind: str) -> Callable:
    k = canonical_name(kind)
    if k in S_IMPLICATIONS:
        return S_IMPLICATIONS[k]
    if k in R_IMPLICATIONS:
        return R_IMPLICATIONS[k]
    if k.startswith("ql_") and k[3:] in TNORMS:
        return ql_implication_fn(k[3:])
    known = sorted(set(S_IMPLICATIONS) | set(R_IMPLICATIONS) | {f"ql_{t}" for t in TNORMS})
    raise ValueError(f"unknown implication {kind!r}; choose from {known}")


def implication(kind: str, a: float, b: float) -> float:
    """Degree to which antecedent degree a implies consequent degree b."""
    fn = implication_fn(kind)
    value = fn(_check_degree("a", a), _check_degree("b", b))
    return float(np.clip(value, 0.0, 1.0))


def residuum_oracle(tnorm_kind: str, a: float, b: float, levels: int = 1001) -> float:
    """Brute-force residuum: the largest z on a quantized grid with T(a, z) <= b.

    Independent check for the closed-form residuated implications; scans
    all z in {0, 1/(levels-1), ..., 1}.
    """
    if levels < 2:
        raise ValueError(f"residuum oracle needs at least 2 levels, got {levels}")
    fn = tnorm_fn(tnorm_kind)
    av = _check_degree("a", a)
    bv = _check_degree("b", b)
    zs = np.linspace(0.0, 1.0, levels)
    return float(np.max(np.where(fn(av, zs) <= bv, zs, 0.0)))


def residuum_gap(tnorm_kind: str, implication_kind: str, points: int, levels: int) -> float:
    """Largest gap between a closed-form implication and residuum_oracle
    over the points x points grid of degrees a, b = i / (points - 1).

    Scans one a at a time: T(a, z) is computed once per a and compared
    against every b, so each temporary holds points x levels values.
    """
    if points < 2 or levels < 2:
        raise ValueError(f"residuum scan needs at least 2 points and 2 levels, "
                         f"got {points} and {levels}")
    t = tnorm_fn(tnorm_kind)
    impl = implication_fn(implication_kind)
    g = np.arange(points) / (points - 1)
    zs = np.linspace(0.0, 1.0, levels)
    gap = 0.0
    for a in g:
        scanned = np.max(np.where(t(a, zs)[None, :] <= g[:, None], zs, 0.0), axis=1)
        gap = max(gap, float(np.max(np.abs(np.clip(impl(a, g), 0.0, 1.0) - scanned))))
    return gap


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
    grid_levels: int
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _worst_case(violation: np.ndarray, grids: tuple, lhs: np.ndarray, rhs: np.ndarray,
                tol: float) -> Counterexample | None:
    """The worst counterexample in a violation tensor, or None within tolerance."""
    shape = violation.shape
    worst_flat = int(np.argmax(violation))
    worst_val = float(violation.flat[worst_flat])
    if worst_val <= tol:
        return None
    idx = np.unravel_index(worst_flat, shape)
    args = tuple(float(g[i]) for g, i in zip(grids, idx))
    lhs_b = np.broadcast_to(lhs, shape)
    rhs_b = np.broadcast_to(rhs, shape)
    return Counterexample(args, float(lhs_b[idx]), float(rhs_b[idx]), worst_val)


def property_suite(tnorm_kind: Optional[str], implication_kind: str,
                   grid_levels: int = 21, tol: float = TOL) -> PropertyReport:
    """Scan an implication for its expected algebraic laws on a quantized grid.

    Residuated implications must be paired with their generating t-norm and
    are checked for the ordering, detachment, and boundary laws that tie a
    residuum to its t-norm. Material (s-family) implications are checked for
    contrapositive symmetry. Failures are recorded with the worst
    counterexample found; they are report content, not errors.
    """
    if grid_levels < 2:
        raise ValueError(f"property suite needs at least 2 grid levels, got {grid_levels}")
    impl_name = canonical_name(implication_kind)
    impl = implication_fn(impl_name)
    g = np.linspace(0.0, 1.0, grid_levels)
    a2, b2 = g[:, None], g[None, :]
    checks: list[PropertyCheck] = []

    def add(name, violation, grids, lhs, rhs):
        worst = _worst_case(violation, grids, lhs, rhs, tol)
        checks.append(PropertyCheck(name, worst is None, violation.size, worst))

    run_r = impl_name in R_IMPLICATIONS and tnorm_kind is not None
    if impl_name in R_IMPLICATIONS and tnorm_kind is None and impl_name not in S_IMPLICATIONS:
        raise ValueError(
            f"implication {implication_kind!r} is residuated; pass its generating t-norm"
        )
    if run_r:
        t_name = canonical_name(tnorm_kind)
        if TNORM_FOR_RESIDUUM.get(impl_name) != t_name:
            raise ValueError(
                f"implication {impl_name!r} is the residuum of "
                f"{TNORM_FOR_RESIDUUM.get(impl_name)!r}, not of {t_name!r}"
            )
        t = tnorm_fn(t_name)
        iab = impl(a2, b2)

        # larger consequents never shrink the implication degree
        a3, b3, c3 = g[:, None, None], g[None, :, None], g[None, None, :]
        lhs = impl(a3, b3)
        rhs = impl(a3, c3)
        viol = np.where(b3 <= c3, lhs - rhs, -np.inf)
        add("monotone_consequent", viol, (g, g, g), lhs, rhs)

        # combining an antecedent with its residuum stays under the consequent
        lhs = t(a2, iab)
        add("detachment_below", lhs - b2, (g, g), lhs, b2)

        # the residuum recovers at least the consequent from a conjunction
        rhs = impl(a2, t(a2, b2))
        add("expansion_above", b2 - rhs, (g, g), b2, rhs)

        # stronger antecedents never raise the implication degree
        lhs = impl(b3, c3)
        rhs = impl(a3, c3)
        viol = np.where(a3 <= b3, lhs - rhs, -np.inf)
        add("antitone_antecedent", viol, (g, g, g), lhs, rhs)

        # an already-satisfied implication has full degree
        viol = np.where(a2 <= b2, np.abs(iab - 1.0), -np.inf)
        add("full_degree_when_ordered", viol, (g, g), iab, 1.0)

        # a certain antecedent passes the consequent through unchanged
        i1b = impl(np.asarray(1.0), g)
        add("left_unit", np.abs(i1b - g), (g,), i1b, g)

        # the implication degree dominates the bare consequent
        add("dominates_consequent", b2 - iab, (g, g), b2, iab)

    if impl_name in S_IMPLICATIONS:
        lhs = impl(a2, b2)
        rhs = impl(1.0 - b2, 1.0 - a2)
        add("contrapositive_symmetry", np.abs(lhs - rhs), (g, g), lhs, rhs)

    if not checks:
        raise ValueError(
            f"no property battery applies to implication {implication_kind!r}"
        )
    return PropertyReport(
        canonical_name(tnorm_kind) if tnorm_kind else None, impl_name, grid_levels,
        tuple(checks),
    )
