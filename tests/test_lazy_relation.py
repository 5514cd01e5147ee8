"""The lazy rule relation: closed forms and the row-blocked fold against the
full table, exactly, plus the fold's memory and work limits.

Every closed form and every fold selects and combines the same degrees as
the full |U|x|V| table, so each must equal the table-based reference under
np.array_equal, with no tolerance.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyabduce.abduction import (
    UNSOLVABLE,
    abduce_certainty,
    abduce_variation,
    check_solvability,
)
from fuzzyabduce.core import FuzzySet, Universe, UniverseMismatchError
from fuzzyabduce.inference import (
    BLOCK_CELLS,
    MAX_FOLD_CELLS,
    Relation,
    Rule,
    _goedel_bound,
    build_relation,
    column_sup,
    gmp,
    residual_bound,
)
from fuzzyabduce.operators import (
    ANTITONE,
    CONTRAPOSITIVE_S,
    R_IMPLICATIONS,
    RESIDUUM_FOR_TNORM,
    S_IMPLICATIONS,
    TNORMS,
    implication_fn,
    tnorm_fn,
)

#: every implication implication_fn accepts
IMPLICATIONS = sorted(set(S_IMPLICATIONS) | set(R_IMPLICATIONS) | {f"ql_{t}" for t in TNORMS})


def dense(a, b, impl):
    return np.clip(implication_fn(impl)(a[:, None], b[None, :]), 0.0, 1.0)


def dense_image(table, p, tnorm):
    return np.max(tnorm_fn(tnorm)(p[:, None], table), axis=0)


def dense_bound(table, o, impl):
    return np.clip(np.min(implication_fn(impl)(table, o[None, :]), axis=1), 0.0, 1.0)


def universe(name, n):
    return Universe(name, np.arange(n, dtype=float))


@st.composite
def vectors(draw):
    """Sizes around the block boundaries and the 1-point case, with uniform,
    quantized (tie-heavy) or pairwise adjacent degrees; four vectors a, p on
    U and b, o on V."""
    m = draw(st.sampled_from([1, 2, 5, 7, 1001]))
    rows = BLOCK_CELLS // m
    n = draw(st.sampled_from([1, 2, 3, 8, max(1, rows - 1), rows, rows + 1]))
    levels = draw(st.sampled_from([None, 2, 3, 5, 11, "adjacent"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def degrees(k):
        x = rng.random(k)
        if levels == "adjacent":  # each odd entry one float above the entry before it
            x[1::2] = np.nextafter(x[0:k - k % 2:2], 2.0)
            return x
        return np.round(x * (levels - 1)) / (levels - 1) if levels else x

    return degrees(n), degrees(m), degrees(n), degrees(m)


@st.composite
def small_vectors(draw):
    """Up to 8 points of any float in [0, 1], subnormals and both ends included."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    pick = st.sampled_from([0.0, 0.25, 0.5, 1.0, 5e-324]) | st.floats(0.0, 1.0)
    a, p = (np.array(draw(st.lists(pick, min_size=n, max_size=n))) for _ in range(2))
    b, o = (np.array(draw(st.lists(pick, min_size=m, max_size=m))) for _ in range(2))
    return a, b, p, o


any_vectors = vectors() | small_vectors()


@given(any_vectors, st.sampled_from(IMPLICATIONS), st.sampled_from(sorted(TNORMS)))
@settings(max_examples=400, deadline=None)
def test_image_equals_the_full_table(drawn, impl, tnorm):
    a, b, p, _ = drawn
    u, v = universe("u", len(a)), universe("v", len(b))
    table = dense(a, b, impl)
    want = dense_image(table, p, tnorm)
    lazy = Relation(u, v, a=a, b=b, implication=impl)
    # the rule relation takes a closed form or the fold, the explicit one the fold
    assert np.array_equal(gmp(lazy, FuzzySet(u, p), tnorm).mu, want)
    assert np.array_equal(gmp(Relation(u, v, table), FuzzySet(u, p), tnorm).mu, want)
    assert np.array_equal(lazy.degrees, table)


@given(any_vectors, st.sampled_from(IMPLICATIONS))
@settings(max_examples=300, deadline=None)
def test_column_supremum_equals_the_full_table(drawn, impl):
    a, b, _, o = drawn
    u, v = universe("u", len(a)), universe("v", len(b))
    table = dense(a, b, impl)
    want = np.max(table, axis=0)
    lazy = Relation(u, v, a=a, b=b, implication=impl)
    assert np.array_equal(column_sup(lazy), want)
    assert np.array_equal(column_sup(Relation(u, v, table)), want)
    ones = FuzzySet(u, np.ones(len(a)))
    assert np.array_equal(gmp(lazy, ones, "minimum").mu, want)
    verdict = check_solvability(lazy, FuzzySet(v, o))
    assert (verdict.verdict == UNSOLVABLE) == bool(np.max(o - want) > 1e-9)


def test_antitone_implications_never_rise_with_the_antecedent():
    rng = np.random.default_rng(7)
    a, b = rng.random(200_000), rng.random(200_000)
    above = np.nextafter(a, 2.0)
    for impl in sorted(ANTITONE):
        fn = implication_fn(impl)
        assert np.all(fn(above, b) <= fn(a, b)), impl
    # reichenbach's 1 - a + a*b rises by rounding for one a in about twenty,
    # so its column supremum is not the row of the least antecedent degree
    fn = implication_fn("reichenbach")
    assert "reichenbach" not in ANTITONE and np.any(fn(above, b) > fn(a, b))


@given(any_vectors)
@settings(max_examples=300, deadline=None)
def test_goedel_bound_equals_the_full_table(drawn):
    a, b, _, o = drawn
    assert np.array_equal(np.clip(_goedel_bound(a, b, o), 0.0, 1.0),
                          dense_bound(dense(a, b, "goedel"), o, "goedel"))


@given(any_vectors, st.sampled_from(IMPLICATIONS), st.sampled_from(sorted(TNORMS)))
@settings(max_examples=400, deadline=None)
def test_residual_bound_equals_the_full_table(drawn, impl, tnorm):
    # any relation under any t-norm, bounded through that t-norm's residuum:
    # the goedel closed form serves only the goedel relation under minimum
    a, b, _, o = drawn
    u, v = universe("u", len(a)), universe("v", len(b))
    table = dense(a, b, impl)
    want = dense_bound(table, o, RESIDUUM_FOR_TNORM[tnorm])
    observed = FuzzySet(v, o)
    assert np.array_equal(residual_bound(Relation(u, v, a=a, b=b, implication=impl),
                                         observed, tnorm).mu, want)
    assert np.array_equal(residual_bound(Relation(u, v, table), observed, tnorm).mu, want)


def test_residual_bound_checks_the_observation_universe():
    u, v = universe("u", 2), universe("v", 2)
    relation = Relation(u, v, a=np.ones(2), b=np.ones(2), implication="goedel")
    with pytest.raises(UniverseMismatchError, match="maps into 'v'"):
        residual_bound(relation, FuzzySet(u, [0.5, 0.5]), "minimum")


@given(any_vectors, st.sampled_from(sorted(RESIDUUM_FOR_TNORM.items())))
@settings(max_examples=300, deadline=None)
def test_variation_abduction_equals_the_full_table(drawn, pair):
    a, b, _, o = drawn
    tnorm, impl = pair
    u, v = universe("u", len(a)), universe("v", len(b))
    table = dense(a, b, impl)
    result = abduce_variation(Rule(FuzzySet(u, a), FuzzySet(v, b), "variation", impl, tnorm),
                              FuzzySet(v, o))
    bound = dense_bound(table, o, impl)
    assert np.array_equal(result.hypothesis.mu, bound)
    assert np.array_equal(result.roundtrip.reproduced.mu, dense_image(table, bound, tnorm))


@given(any_vectors, st.sampled_from(sorted(CONTRAPOSITIVE_S)), st.sampled_from(sorted(TNORMS)))
@settings(max_examples=300, deadline=None)
def test_certainty_abduction_equals_the_full_table(drawn, impl, tnorm):
    a, b, _, o = drawn
    u, v = universe("u", len(a)), universe("v", len(b))
    result = abduce_certainty(Rule(FuzzySet(u, a), FuzzySet(v, b), "certainty", impl, tnorm),
                              FuzzySet(v, o), tnorm)
    flipped = dense(1.0 - b, 1.0 - a, impl)
    hypothesis = dense_image(flipped, o, tnorm)
    assert np.array_equal(result.hypothesis.mu, hypothesis)
    assert np.array_equal(result.roundtrip.reproduced.mu,
                          dense_image(dense(a, b, impl), hypothesis, tnorm))


# --- the relation type ----------------------------------------------------------

def test_rule_relation_builds_no_table_until_read():
    u, v = universe("u", 3), universe("v", 2)
    rule = Rule(FuzzySet(u, [1, 0.5, 0]), FuzzySet(v, [0.2, 1]),
                "variation", "goguen", "product")
    relation = build_relation(rule)
    assert relation.table is None and "degrees" not in vars(relation)
    assert np.array_equal(relation.degrees, [[0.2, 1], [0.4, 1], [1, 1]])
    assert not relation.degrees.flags.writeable
    assert relation.degrees is relation.degrees  # tabulated once


def test_explicit_relation_is_clamped_read_only_and_copied_once():
    u, v = universe("u", 2), universe("v", 2)
    given_table = np.array([[1.5, -0.5], [0.25, 1.0]])
    relation = Relation(u, v, given_table)
    assert np.array_equal(relation.degrees, [[1, 0], [0.25, 1]])
    assert relation.degrees is relation.table and not relation.table.flags.writeable
    assert np.array_equal(given_table, [[1.5, -0.5], [0.25, 1.0]])  # input untouched


def test_rule_relation_checks_its_vectors():
    u, v = universe("u", 2), universe("v", 3)
    with pytest.raises(ValueError, match="shape"):
        Relation(u, v, a=[0.1, 0.2], b=[0.3], implication="goedel")
    with pytest.raises(ValueError, match="unknown implication"):
        Relation(u, v, a=[0.1, 0.2], b=[0.3, 0.4, 0.5], implication="hamacher")


# --- memory and work limits -------------------------------------------------------

GRID = np.linspace(0.0, 1.0, 1001)


def bump(center, width, scale=1.0):
    return scale * np.exp(-(((GRID - center) / width) ** 2))


def peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("semantics,impl,tnorm", [
    ("variation", "goedel", "minimum"),
    ("variation", "goguen", "product"),
    ("variation", "lukasiewicz", "lukasiewicz"),
    ("certainty", "reichenbach", "product"),
    ("certainty", "kleene_dienes", "lukasiewicz"),
    ("certainty", "lukasiewicz", "minimum"),
])
def test_1001_point_calls_stay_under_8_mb(semantics, impl, tnorm):
    # the full table alone is 8 MB; its tabulation and a t-norm pass over it
    # used to hold 33 MB
    u, v = Universe("u", GRID), Universe("v", GRID)
    rule = Rule(FuzzySet(u, bump(0.4, 0.2)), FuzzySet(v, bump(0.6, 0.2)),
                semantics, impl, tnorm)
    observed = FuzzySet(v, bump(0.5, 0.3, 0.8))
    given_set = FuzzySet(u, bump(0.5, 0.3, 0.9))
    assert peak_mb(lambda: gmp(build_relation(rule), given_set, tnorm)) < 8
    if semantics == "variation":
        assert peak_mb(lambda: abduce_variation(rule, observed)) < 8
    else:
        assert peak_mb(lambda: abduce_certainty(rule, observed, tnorm)) < 8


def test_wide_relations_fold_one_row_at_a_time():
    # |V| above the block budget: each block is one row, and no reduction
    # holds more than a row per step (the table would be 64 MB)
    n, m = 64, 2 ** 17
    assert BLOCK_CELLS // m == 0
    u, v = universe("u", n), universe("v", m)
    rng = np.random.default_rng(3)
    rule = Rule(FuzzySet(u, rng.random(n)), FuzzySet(v, rng.random(m)),
                "certainty", "reichenbach", "product")
    observed = FuzzySet(v, rng.random(m))
    assert peak_mb(lambda: check_solvability(build_relation(rule), observed)) < 8
    assert peak_mb(lambda: abduce_certainty(rule, observed, "product")) < 8


def test_fold_over_the_cell_limit_fails_at_once_naming_both_universes():
    n = 10_001  # n * (n - 1) cells, just over the limit
    assert n * (n - 1) > MAX_FOLD_CELLS
    u, v = Universe("cause", np.arange(n, dtype=float)), Universe("effect", np.arange(n - 1.0))
    a, b = np.linspace(0, 1, n), np.linspace(1, 0, n - 1)
    rule = Rule(FuzzySet(u, a), FuzzySet(v, b), "variation", "goguen", "product")
    message = f"'cause' ({n} points) to 'effect' ({n - 1} points) has {n * (n - 1)} cells"
    with pytest.raises(ValueError, match=message.replace("(", r"\(").replace(")", r"\)")):
        gmp(build_relation(rule), FuzzySet(u, a), "product")
    with pytest.raises(ValueError, match="over the limit"):
        abduce_variation(rule, FuzzySet(v, b))
    # pairs with a closed form need no limit at this size
    goedel = Rule(FuzzySet(u, a), FuzzySet(v, b), "variation", "goedel", "minimum")
    assert abduce_variation(goedel, FuzzySet(v, b)).roundtrip.max_abs_residual == 0.0
    kd = Rule(FuzzySet(u, a), FuzzySet(v, b), "certainty", "kleene_dienes", "product")
    assert len(abduce_certainty(kd, FuzzySet(v, b), "product").hypothesis.mu) == n
