"""Hypothesis construction for both rule semantics, plus the solvability gate.

The worked 2x2 instances here were frozen from independent hand computation
and cross-checked against the brute-force enumerator.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyabduce.abduction import (
    SOLVABLE_POSSIBLY,
    UNSOLVABLE,
    abduce_certainty,
    abduce_variation,
    check_solvability,
)
from fuzzyabduce.core import FuzzySet, Universe, UniverseMismatchError, complement, make_universe
from fuzzyabduce.inference import Rule, build_relation, gmp
from fuzzyabduce.operators import CONTRAPOSITIVE_S, implication
from fuzzyabduce.oracle import enumerate_solutions

U2 = Universe("u", np.array([0.0, 1.0]))
V2 = Universe("v", np.array([0.0, 1.0]))


# --- solvability gate ----------------------------------------------------------

def test_solvability_witness_names_the_worst_column():
    # every relation entry is 0.3, so a demanded 0.9 cannot be produced
    rule = Rule(FuzzySet(U2, [0.5, 0.5]), FuzzySet(V2, [0.3, 0.3]),
                "variation", "goedel", "minimum")
    verdict = check_solvability(build_relation(rule), FuzzySet(V2, [0.9, 0.2]))
    assert verdict.verdict == UNSOLVABLE
    assert verdict.witness.point == 0.0
    assert verdict.witness.required == pytest.approx(0.9)
    assert verdict.witness.available == pytest.approx(0.3)


def test_empty_observation_is_always_solvable():
    rule = Rule(FuzzySet(U2, [0.5, 0.5]), FuzzySet(V2, [0.3, 0.3]),
                "variation", "goedel", "minimum")
    verdict = check_solvability(build_relation(rule), FuzzySet(V2, [0, 0]))
    assert verdict.verdict == SOLVABLE_POSSIBLY and verdict.witness is None


def test_reachable_observation_passes_the_gate():
    rule = Rule(FuzzySet(U2, [1, 0.4]), FuzzySet(V2, [0.8, 0.2]),
                "variation", "goedel", "minimum")
    relation = build_relation(rule)
    image = gmp(relation, rule.antecedent, "minimum")
    assert check_solvability(relation, image).verdict == SOLVABLE_POSSIBLY


def test_solvability_checks_observation_universe():
    rule = Rule(FuzzySet(U2, [1, 0.4]), FuzzySet(V2, [0.8, 0.2]),
                "variation", "goedel", "minimum")
    with pytest.raises(UniverseMismatchError):
        check_solvability(build_relation(rule), FuzzySet(make_universe("w", 0, 1, 2), [0, 0]))


# --- certainty scheme ----------------------------------------------------------

def kd_rule(a, b):
    return Rule(FuzzySet(U2, a), FuzzySet(V2, b), "certainty", "kleene_dienes", "minimum")


def test_crisp_modus_tollens():
    result = abduce_certainty(kd_rule([1, 0], [1, 0]), FuzzySet(V2, [0, 1]), "minimum")
    assert np.array_equal(result.hypothesis.mu, [0, 1])
    assert result.scheme == "certainty_contraposition"
    # denying the antecedent: rows with antecedent 0 reproduce degree 1
    assert np.array_equal(result.roundtrip.reproduced.mu, [1, 1])
    assert result.roundtrip.max_abs_residual == 1.0
    assert result.roundtrip.covers_observation
    assert not result.roundtrip.within_observation


def test_empty_observation_gives_empty_hypothesis():
    result = abduce_certainty(kd_rule([1, 0], [1, 0]), FuzzySet(V2, [0, 0]), "minimum")
    assert np.array_equal(result.hypothesis.mu, [0, 0])


def test_certainty_worked_instance():
    """A=[1,0.4], B=[0.8,0.2], kleene-dienes/min, observing [0.2,0.8]."""
    rule = kd_rule([1, 0.4], [0.8, 0.2])
    b_prime = FuzzySet(V2, [0.2, 0.8])
    result = abduce_certainty(rule, b_prime, "minimum")
    assert np.allclose(result.hypothesis.mu, [0.2, 0.6])
    # forward columns top out at [0.8, 0.6], so requiring 0.8 at v=1 fails
    assert result.solvability.verdict == UNSOLVABLE
    assert result.solvability.witness.point == 1.0
    assert result.solvability.witness.required == pytest.approx(0.8)
    assert result.solvability.witness.available == pytest.approx(0.6)
    assert np.allclose(result.roundtrip.reproduced.mu, [0.6, 0.6])
    assert result.roundtrip.max_abs_residual == pytest.approx(0.4)
    assert not result.roundtrip.covers_observation
    assert not result.roundtrip.within_observation
    # no quantized antecedent reproduces the observation exactly
    assert len(enumerate_solutions(build_relation(rule), b_prime, "minimum")) == 0


def test_certainty_hypothesis_solves_the_contraposed_relation():
    # the hypothesis is exactly the image of the observation through the
    # flipped relation, so the observation must appear among the antecedents
    # that map onto the hypothesis there
    rule = kd_rule([1, 0.4], [0.8, 0.2])
    b_prime = FuzzySet(V2, [0.2, 0.8])
    result = abduce_certainty(rule, b_prime, "minimum")
    contraposed = Rule(complement(rule.consequent), complement(rule.antecedent),
                       "certainty", "kleene_dienes", "minimum")
    solutions = enumerate_solutions(build_relation(contraposed), result.hypothesis, "minimum")
    assert len(solutions) == 15
    assert any(np.allclose(s.mu, b_prime.mu, atol=1e-12) for s in solutions)


def test_zadeh_rejected_for_abduction():
    rule = Rule(FuzzySet(U2, [1, 0]), FuzzySet(V2, [1, 0]), "certainty", "zadeh", "minimum")
    with pytest.raises(ValueError, match="contrapositive symmetry"):
        abduce_certainty(rule, FuzzySet(V2, [0, 1]), "minimum")


def test_certainty_scheme_rejects_variation_rules():
    rule = Rule(FuzzySet(U2, [1, 0]), FuzzySet(V2, [1, 0]), "variation", "goedel", "minimum")
    with pytest.raises(ValueError, match="certainty rule"):
        abduce_certainty(rule, FuzzySet(V2, [0, 1]), "minimum")


# --- variation scheme ----------------------------------------------------------

def test_variation_bound_is_the_greatest_solution_here():
    rule = Rule(FuzzySet(U2, [1, 0.4]), FuzzySet(V2, [0.8, 0.2]),
                "variation", "goedel", "minimum")
    result = abduce_variation(rule, FuzzySet(V2, [0.8, 0.2]))
    assert np.allclose(result.hypothesis.mu, [1.0, 0.8])
    assert result.scheme == "variation_bound"
    assert result.solvability.verdict == SOLVABLE_POSSIBLY
    assert result.roundtrip.max_abs_residual == 0.0
    assert result.roundtrip.covers_observation and result.roundtrip.within_observation


def test_variation_bound_saturates_on_full_observation():
    rule = Rule(FuzzySet(U2, [1, 0.4]), FuzzySet(V2, [0.8, 0.2]),
                "variation", "goedel", "minimum")
    result = abduce_variation(rule, FuzzySet(V2, [1, 1]))
    assert np.array_equal(result.hypothesis.mu, [1, 1])


def test_variation_returns_bound_even_when_unsolvable():
    rule = Rule(FuzzySet(U2, [0.5, 0.5]), FuzzySet(V2, [0.3, 0.3]),
                "variation", "goedel", "minimum")
    result = abduce_variation(rule, FuzzySet(V2, [0.9, 0.2]))
    assert result.solvability.verdict == UNSOLVABLE
    assert result.solvability.witness is not None
    # bound per point: min(I(0.3, 0.9), I(0.3, 0.2)) = min(1, 0.2)
    assert np.allclose(result.hypothesis.mu, [0.2, 0.2])


def test_variation_scheme_rejects_certainty_rules():
    rule = kd_rule([1, 0], [1, 0])
    with pytest.raises(ValueError, match="variation rule"):
        abduce_variation(rule, FuzzySet(V2, [0, 1]))


def test_variation_checks_observation_universe():
    rule = Rule(FuzzySet(U2, [1, 0.4]), FuzzySet(V2, [0.8, 0.2]),
                "variation", "goedel", "minimum")
    with pytest.raises(UniverseMismatchError):
        abduce_variation(rule, FuzzySet(make_universe("w", 0, 1, 2), [1, 0]))


def test_gate_passing_does_not_imply_solvable():
    """The gate is necessary, not sufficient: this instance passes it yet has
    no exact solution (a single antecedent point cannot produce two different
    degrees through columns that would both need it)."""
    u1 = Universe("u", np.array([0.0]))
    rule = Rule(FuzzySet(u1, [1.0]), FuzzySet(V2, [1.0, 0.6]), "variation", "goedel", "minimum")
    b_prime = FuzzySet(V2, [0.3, 0.6])
    result = abduce_variation(rule, b_prime)
    assert result.solvability.verdict == SOLVABLE_POSSIBLY
    assert np.allclose(result.hypothesis.mu, [0.3])
    assert not result.roundtrip.covers_observation
    assert len(enumerate_solutions(build_relation(rule), b_prime, "minimum")) == 0


# --- the two code paths of the certainty scheme agree --------------------------

degrees = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_certainty_formula_matches_direct_loop(data):
    """The vectorized contraposed-relation path must equal, float for float,
    the direct sup-T of T(observed(v), S(1 - B(v), 1 - A(u)))."""
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    impl_kind = data.draw(st.sampled_from(sorted(CONTRAPOSITIVE_S)))
    t_kind = data.draw(st.sampled_from(["minimum", "product", "lukasiewicz"]))
    a = data.draw(st.lists(degrees, min_size=m, max_size=m))
    b = data.draw(st.lists(degrees, min_size=n, max_size=n))
    bp = data.draw(st.lists(degrees, min_size=n, max_size=n))
    u = Universe("u", np.arange(m, dtype=float))
    v = Universe("v", np.arange(n, dtype=float))
    rule = Rule(FuzzySet(u, a), FuzzySet(v, b), "certainty", impl_kind, "minimum")
    observed = FuzzySet(v, bp)
    result = abduce_certainty(rule, observed, t_kind)

    from fuzzyabduce.operators import tnorm as t_scalar
    b_arr = rule.consequent.mu
    a_arr = rule.antecedent.mu
    expected = np.zeros(m)
    for i in range(m):
        acc = 0.0
        for j in range(n):
            s = implication(impl_kind, float(1.0 - b_arr[j]), float(1.0 - a_arr[i]))
            acc = max(acc, t_scalar(t_kind, float(observed.mu[j]), s))
        expected[i] = acc
    assert np.array_equal(result.hypothesis.mu, expected)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_variation_bound_formula_matches_direct_loop(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    t_kind, impl_kind = data.draw(
        st.sampled_from([("minimum", "goedel"), ("product", "goguen"),
                         ("lukasiewicz", "lukasiewicz")]))
    a = data.draw(st.lists(degrees, min_size=m, max_size=m))
    b = data.draw(st.lists(degrees, min_size=n, max_size=n))
    bp = data.draw(st.lists(degrees, min_size=n, max_size=n))
    u = Universe("u", np.arange(m, dtype=float))
    v = Universe("v", np.arange(n, dtype=float))
    rule = Rule(FuzzySet(u, a), FuzzySet(v, b), "variation", impl_kind, t_kind)
    observed = FuzzySet(v, bp)
    result = abduce_variation(rule, observed)

    relation = build_relation(rule)
    expected = np.array([
        min(implication(impl_kind, float(relation.rows(slice(None))[i, j]), float(observed.mu[j]))
            for j in range(n))
        for i in range(m)
    ])
    assert np.max(np.abs(result.hypothesis.mu - expected)) == 0.0
