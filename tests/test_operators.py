"""Operator algebra: t-norms, t-conorms, implication families, property suite."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyabduce.operators import (
    CONTRAPOSITIVE_S,
    DUAL_TCONORM,
    R_IMPLICATIONS,
    RESIDUUM_FOR_TNORM,
    S_IMPLICATIONS,
    TCONORMS,
    TNORM_FOR_RESIDUUM,
    TNORMS,
    canonical_name,
    implication,
    implication_fn,
    property_suite,
    residuum_gap,
    residuum_oracle,
    tconorm,
    tnorm,
)

GRID = np.linspace(0.0, 1.0, 21)


# --- scalar values -----------------------------------------------------------

def test_tnorm_values():
    assert tnorm("minimum", 0.4, 0.7) == 0.4
    assert tnorm("lukasiewicz", 0.4, 0.5) == 0.0
    assert tnorm("product", 0.5, 0.5) == 0.25


@pytest.mark.parametrize("kind", sorted(TNORMS))
def test_tnorm_unit_element(kind):
    for a in GRID:
        assert tnorm(kind, a, 1.0) == pytest.approx(a, abs=1e-15)


def test_tconorm_values():
    assert tconorm("maximum", 0.4, 0.7) == 0.7
    assert tconorm("bounded_sum", 0.6, 0.7) == 1.0
    assert tconorm("probabilistic_sum", 0.5, 0.5) == 0.75


@pytest.mark.parametrize("kind", sorted(TCONORMS))
def test_tconorm_unit_element(kind):
    for a in GRID:
        assert tconorm(kind, a, 0.0) == pytest.approx(a, abs=1e-15)


def test_implication_values():
    assert implication("goedel", 0.4, 0.8) == 1.0
    assert implication("goedel", 0.8, 0.4) == 0.4
    assert implication("kleene_dienes", 0.8, 0.4) == pytest.approx(0.4)
    assert implication("goguen", 0.0, 0.0) == 1.0
    assert implication("goguen", 0.8, 0.4) == 0.5
    assert implication("lukasiewicz", 0.3, 0.9) == 1.0


def test_reichenbach_with_certain_antecedent_passes_consequent():
    for b in GRID:
        assert implication("reichenbach", 1.0, b) == pytest.approx(b, abs=1e-15)


def test_zadeh_breaks_contraposition_at_spot_values():
    # S(0.2, 0.9) = 0.8 but S(1-0.9, 1-0.2) = 0.9
    assert implication("zadeh", 0.2, 0.9) == pytest.approx(0.8)
    assert implication("zadeh", 0.1, 0.8) == pytest.approx(0.9)


def test_hyphen_and_underscore_names_are_interchangeable():
    assert canonical_name("Kleene-Dienes") == "kleene_dienes"
    assert implication("kleene-dienes", 0.8, 0.4) == implication("kleene_dienes", 0.8, 0.4)
    assert tnorm("Minimum", 0.3, 0.6) == 0.3


def test_unknown_names_rejected():
    with pytest.raises(ValueError, match="unknown t-norm"):
        tnorm("frank", 0.5, 0.5)
    with pytest.raises(ValueError, match="unknown t-conorm"):
        tconorm("einstein", 0.5, 0.5)
    with pytest.raises(ValueError, match="unknown implication"):
        implication("xor", 0.5, 0.5)


def test_out_of_range_degrees_rejected():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        tnorm("minimum", 1.2, 0.5)
    with pytest.raises(ValueError):
        implication("goedel", 0.5, -0.1)


def test_family_predicates():
    assert "zadeh" in S_IMPLICATIONS and "zadeh" not in R_IMPLICATIONS
    assert "goedel" in R_IMPLICATIONS and "goedel" not in S_IMPLICATIONS
    assert "lukasiewicz" in S_IMPLICATIONS and "lukasiewicz" in R_IMPLICATIONS
    assert "kleene_dienes" in CONTRAPOSITIVE_S
    assert "zadeh" not in CONTRAPOSITIVE_S
    assert CONTRAPOSITIVE_S == {"reichenbach", "kleene_dienes", "lukasiewicz"}


def test_residuum_pairing_tables_invert_each_other():
    assert DUAL_TCONORM.keys() == TNORMS.keys()
    assert RESIDUUM_FOR_TNORM == {"minimum": "goedel", "product": "goguen",
                                  "lukasiewicz": "lukasiewicz"}
    assert {TNORM_FOR_RESIDUUM[i]: i for i in TNORM_FOR_RESIDUUM} == RESIDUUM_FOR_TNORM


# --- axioms on an exhaustive grid ---------------------------------------------

@pytest.mark.parametrize("kind", sorted(TNORMS))
def test_tnorm_axioms_exhaustive(kind):
    t = TNORMS[kind]
    a, b = GRID[:, None], GRID[None, :]
    assert np.max(np.abs(t(a, b) - t(b, a))) == 0.0  # commutative
    a3, b3, c3 = GRID[:, None, None], GRID[None, :, None], GRID[None, None, :]
    assert np.max(np.abs(t(t(a3, b3), c3) - t(a3, t(b3, c3)))) <= 1e-12  # associative
    # monotone in each argument
    ab = t(a3, b3)
    ac = t(a3, c3)
    grow = np.where(b3 <= c3, ab - ac, -np.inf)
    assert np.max(grow) <= 0.0


@pytest.mark.parametrize("kind", sorted(TNORMS))
def test_tconorm_duality(kind):
    t = TNORMS[kind]
    c = TCONORMS[DUAL_TCONORM[kind]]
    a, b = GRID[:, None], GRID[None, :]
    assert np.max(np.abs(c(a, b) - (1.0 - t(1.0 - a, 1.0 - b)))) <= 1e-12


def test_lukasiewicz_s_and_r_constructions_coincide():
    s = S_IMPLICATIONS["lukasiewicz"]
    r = R_IMPLICATIONS["lukasiewicz"]
    a, b = GRID[:, None], GRID[None, :]
    assert np.array_equal(s(a, b), r(a, b))


def test_ql_of_minimum_is_zadeh():
    ql = implication_fn("ql_minimum")
    zadeh = implication_fn("zadeh")
    a, b = GRID[:, None], GRID[None, :]
    assert np.array_equal(ql(a, b), zadeh(a, b))


def test_ql_implications_stay_in_unit_interval():
    for t_kind in sorted(TNORMS):
        fn = implication_fn(f"ql_{t_kind}")
        values = fn(GRID[:, None], GRID[None, :])
        assert np.all(values >= 0) and np.all(values <= 1 + 1e-15)


# --- residuum oracle ---------------------------------------------------------

def test_residuum_oracle_matches_closed_forms():
    assert residuum_oracle("minimum", 0.8, 0.4, 1001) == pytest.approx(0.4)
    assert residuum_oracle("product", 0.8, 0.4, 1001) == pytest.approx(0.5)
    for kind in sorted(TNORMS):
        assert residuum_oracle(kind, 0.3, 0.7, 1001) == 1.0


def test_residuum_oracle_needs_two_levels():
    with pytest.raises(ValueError, match="at least 2 levels"):
        residuum_oracle("minimum", 0.5, 0.5, 1)


@pytest.mark.parametrize("t_name, impl_name", sorted(RESIDUUM_FOR_TNORM.items()))
def test_residuum_gap_equals_the_scalar_scan(t_name, impl_name):
    # 11x11 grid of (a, b) at 101 levels, one scalar oracle call per pair
    expected = max(
        abs(implication(impl_name, i / 10, j / 10) - residuum_oracle(t_name, i / 10, j / 10, 101))
        for i in range(11) for j in range(11)
    )
    assert residuum_gap(t_name, impl_name, 11, 101) == expected


@given(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False),
       st.floats(0, 1, allow_nan=False), st.sampled_from(sorted(TNORMS)))
@settings(max_examples=200)
def test_residuum_adjunction(a, b, z, t_kind):
    """T(a, z) <= b exactly when z is at or below the residuum of (a, b)."""
    impl = implication(RESIDUUM_FOR_TNORM[t_kind], a, b)
    if z <= impl:
        assert tnorm(t_kind, a, z) <= b + 1e-12
    if tnorm(t_kind, a, z) <= b:
        assert z <= impl + 1e-12


# --- property suite ----------------------------------------------------------

R_CHECKS = {
    "monotone_consequent",
    "detachment_below",
    "expansion_above",
    "antitone_antecedent",
    "full_degree_when_ordered",
    "left_unit",
    "dominates_consequent",
}


@pytest.mark.parametrize("t_kind,impl_kind", sorted(RESIDUUM_FOR_TNORM.items()))
def test_suite_passes_for_matched_residuated_pairs(t_kind, impl_kind):
    report = property_suite(t_kind, impl_kind, 21)
    names = {c.name for c in report.checks}
    assert R_CHECKS <= names
    assert report.all_passed, [c.name for c in report.checks if not c.passed]


@pytest.mark.parametrize("impl_kind", ["reichenbach", "kleene_dienes", "lukasiewicz"])
def test_suite_confirms_contrapositive_symmetry(impl_kind):
    report = property_suite(None, impl_kind, 21)
    checks = {c.name: c for c in report.checks}
    assert checks["contrapositive_symmetry"].passed


def test_suite_records_zadeh_counterexample():
    report = property_suite(None, "zadeh", 21)
    check = next(c for c in report.checks if c.name == "contrapositive_symmetry")
    assert not check.passed
    assert check.worst is not None
    assert check.worst.args == (0.0, 0.5)
    assert check.worst.lhs == 1.0 and check.worst.rhs == 0.5
    assert check.worst.violation == pytest.approx(0.5)


def test_lukasiewicz_runs_both_batteries():
    report = property_suite("lukasiewicz", "lukasiewicz", 21)
    names = {c.name for c in report.checks}
    assert "contrapositive_symmetry" in names and R_CHECKS <= names
    assert report.all_passed


def test_suite_rejects_mismatched_pairs():
    with pytest.raises(ValueError, match="residuum of"):
        property_suite("product", "goedel", 11)


def test_suite_requires_tnorm_for_pure_residuated_implications():
    with pytest.raises(ValueError, match="generating t-norm"):
        property_suite(None, "goedel", 11)


def test_suite_has_no_battery_for_ql_forms():
    with pytest.raises(ValueError, match="no property battery"):
        property_suite(None, "ql_minimum", 11)
