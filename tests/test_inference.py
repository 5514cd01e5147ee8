"""Rule construction, relation matrices, and forward inference."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyabduce.core import FuzzySet, Universe, UniverseMismatchError, make_universe
from fuzzyabduce.inference import Relation, Rule, build_relation, gmp

U2 = Universe("u", np.array([0.0, 1.0]))
V2 = Universe("v", np.array([0.0, 1.0]))


def rule_of(a, b, semantics="variation", impl="goedel", t="minimum"):
    return Rule(FuzzySet(U2, a), FuzzySet(V2, b), semantics, impl, t)


# --- rule invariants ---------------------------------------------------------

def test_rule_names_are_canonicalized():
    r = Rule(FuzzySet(U2, [1, 0]), FuzzySet(V2, [1, 0]),
             "Certainty", "Kleene-Dienes", "Minimum")
    assert r.semantics == "certainty"
    assert r.implication == "kleene_dienes"
    assert r.tnorm == "minimum"


def test_certainty_rules_need_s_family():
    message = ("certainty rules take an s-family implication "
               "(['kleene_dienes', 'lukasiewicz', 'reichenbach', 'zadeh']), got 'goedel'")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rule_of([1, 0], [1, 0], semantics="certainty", impl="goedel")


def test_variation_rules_need_r_family():
    message = ("variation rules take an r-family implication "
               "(['goedel', 'goguen', 'lukasiewicz']), got 'kleene_dienes'")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rule_of([1, 0], [1, 0], semantics="variation", impl="kleene_dienes")


def test_variation_rules_need_the_generating_tnorm():
    with pytest.raises(ValueError, match="generating t-norm"):
        rule_of([1, 0], [1, 0], impl="goedel", t="product")
    # matched pairs are accepted
    rule_of([1, 0], [1, 0], impl="goguen", t="product")
    rule_of([1, 0], [1, 0], impl="lukasiewicz", t="lukasiewicz")


def test_unknown_semantics_or_tnorm_rejected():
    with pytest.raises(ValueError, match="semantics"):
        rule_of([1, 0], [1, 0], semantics="plausibility")
    with pytest.raises(ValueError, match="unknown t-norm"):
        rule_of([1, 0], [1, 0], impl="goedel", t="hamacher")


def test_zadeh_is_allowed_for_forward_certainty_rules():
    r = rule_of([1, 0.4], [0.8, 0.2], semantics="certainty", impl="zadeh")
    assert build_relation(r).rows(slice(None)).shape == (2, 2)


# --- relations ---------------------------------------------------------------

def test_relation_values_goedel():
    r = build_relation(rule_of([1, 0.4], [0.8, 0.2]))
    assert np.allclose(r.rows(slice(None)), [[0.8, 0.2], [1.0, 0.2]])


def test_relation_crisp_kleene_dienes_truth_table():
    r = build_relation(rule_of([1, 0], [1, 0], semantics="certainty", impl="kleene_dienes"))
    assert np.array_equal(r.rows(slice(None)), [[1, 0], [1, 1]])


def test_relation_vacuous_antecedent_is_all_ones():
    r = build_relation(rule_of([0, 0], [0.3, 0.9], semantics="certainty", impl="reichenbach"))
    assert np.array_equal(r.rows(slice(None)), np.ones((2, 2)))


def test_relation_shape_validation():
    # a relation is built from FuzzySets, which check their vectors on the way in
    with pytest.raises(ValueError, match="values for the 2-point universe 'u'"):
        Relation(FuzzySet(U2, np.zeros(3)), FuzzySet(V2, np.zeros(2)), "goedel")
    with pytest.raises(ValueError, match="finite"):
        Relation(FuzzySet(U2, [np.nan, 0.5]), FuzzySet(V2, [0.2, 0.4]), "goguen")
    with pytest.raises(ValueError, match="finite"):
        Relation(FuzzySet(U2, [0.3, 0.5]), FuzzySet(V2, [0.2, np.inf]), "goguen")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["a", "b"])
def test_relation_rejects_non_finite_degrees(side, value):
    degrees = {"a": [0.3, 0.5], "b": [0.2, 0.4]}
    degrees[side] = [value, 0.5]
    name = "u" if side == "a" else "v"
    with pytest.raises(ValueError, match=f"degrees on '{name}' must be finite"):
        Relation(FuzzySet(U2, degrees["a"]), FuzzySet(V2, degrees["b"]), "goguen")


@pytest.mark.parametrize("value", [-0.5, -1e-300, 1.5, np.nextafter(1.0, 2.0)])
@pytest.mark.parametrize("side", ["a", "b"])
def test_relation_of_clamped_sets_equals_the_dense_table(side, value):
    # FuzzySet clamps raw degrees outside [0, 1], so the kleene_dienes closed
    # form sees the same degrees as the clipped table: a raw antecedent degree
    # of -0.5 clamps to 0, where 1 - (-0.5) would make the image of 0.5 under
    # product max(0.5 * 1.5, 0.5 * 0.2) = 0.75, not 0.5
    degrees = {"a": [0.3, 0.5], "b": [0.2, 0.4]}
    degrees[side] = [0.5, value]
    relation = Relation(FuzzySet(U2, degrees["a"]), FuzzySet(V2, degrees["b"]), "kleene_dienes")
    a, b = np.clip(degrees["a"], 0.0, 1.0), np.clip(degrees["b"], 0.0, 1.0)
    table = np.maximum(1.0 - a[:, None], b[None, :])
    assert np.array_equal(relation.rows(slice(None)), table)
    p = FuzzySet(U2, [0.5, 0.5])
    want = np.max(p.mu[:, None] * table, axis=0)
    assert np.array_equal(gmp(relation, p, "product").mu, want)
    if (side, value) == ("a", -0.5):
        assert np.array_equal(want, [0.5, 0.5])


# --- forward inference -------------------------------------------------------

def test_gmp_reproduces_consequent_from_antecedent():
    rule = rule_of([1, 0.4], [0.8, 0.2])
    image = gmp(build_relation(rule), rule.antecedent, "minimum")
    assert np.allclose(image.mu, [0.8, 0.2])


def test_gmp_of_empty_input_is_empty():
    rule = rule_of([1, 0.4], [0.8, 0.2])
    image = gmp(build_relation(rule), FuzzySet(U2, [0, 0]), "minimum")
    assert np.array_equal(image.mu, [0, 0])


def test_gmp_recovers_crisp_modus_ponens():
    relation = Relation(FuzzySet(U2, [1.0, 0.0]), FuzzySet(V2, [1.0, 0.0]), "goedel")
    assert np.array_equal(relation.rows(slice(None)), [[1, 0], [1, 1]])
    image = gmp(relation, FuzzySet(U2, [1, 0]), "minimum")
    assert np.array_equal(image.mu, [1, 0])


def test_gmp_checks_input_universe():
    rule = rule_of([1, 0.4], [0.8, 0.2])
    wrong = FuzzySet(make_universe("w", 0, 1, 2), [1, 0])
    with pytest.raises(UniverseMismatchError):
        gmp(build_relation(rule), wrong, "minimum")


# --- property tests ----------------------------------------------------------

degrees = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
PAIRS = [("minimum", "goedel"), ("product", "goguen"), ("lukasiewicz", "lukasiewicz")]


@st.composite
def relation_and_inputs(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    t_kind, impl_kind = draw(st.sampled_from(PAIRS))
    u = Universe("u", np.arange(m, dtype=float))
    v = Universe("v", np.arange(n, dtype=float))
    a = draw(st.lists(degrees, min_size=m, max_size=m))
    b = draw(st.lists(degrees, min_size=n, max_size=n))
    lo = draw(st.lists(degrees, min_size=m, max_size=m))
    hi = [min(1.0, x + draw(degrees)) for x in lo]
    rule = Rule(FuzzySet(u, a), FuzzySet(v, b), "variation", impl_kind, t_kind)
    return rule, FuzzySet(u, lo), FuzzySet(u, hi)


@given(relation_and_inputs())
@settings(max_examples=150, deadline=None)
def test_gmp_is_monotone_in_its_input(drawn):
    rule, small, large = drawn
    relation = build_relation(rule)
    img_small = gmp(relation, small, rule.tnorm)
    img_large = gmp(relation, large, rule.tnorm)
    assert np.all(img_small.mu <= img_large.mu + 1e-12)
    assert np.all(img_small.mu >= 0) and np.all(img_large.mu <= 1)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_gmp_coherence_for_normalized_matched_rules(data):
    """Feeding a rule its own antecedent returns its consequent when the
    antecedent is normalized and the implication is the t-norm's residuum."""
    m = data.draw(st.integers(1, 40))
    n = data.draw(st.integers(1, 40))
    t_kind, impl_kind = data.draw(st.sampled_from(PAIRS))
    a = np.array(data.draw(st.lists(degrees, min_size=m, max_size=m)))
    a[data.draw(st.integers(0, m - 1))] = 1.0
    b = np.array(data.draw(st.lists(degrees, min_size=n, max_size=n)))
    u = Universe("u", np.arange(m, dtype=float))
    v = Universe("v", np.arange(n, dtype=float))
    rule = Rule(FuzzySet(u, a), FuzzySet(v, b), "variation", impl_kind, t_kind)
    image = gmp(build_relation(rule), rule.antecedent, t_kind)
    assert np.max(np.abs(image.mu - rule.consequent.mu)) <= 1e-9
