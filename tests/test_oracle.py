"""Brute-force enumeration of exact antecedents on quantized small instances."""
import dataclasses
import itertools
import tracemalloc
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyabduce import oracle
from fuzzyabduce.core import (FuzzySet, Universe, UniverseMismatchError, level_grid,
                              make_universe)
from fuzzyabduce.inference import Relation, Rule, build_relation, gmp
from fuzzyabduce.operators import tnorm_fn
from fuzzyabduce.oracle import (
    QuantizedSearch,
    enumerate_solutions,
    greatest_enumerated,
    snap_to_levels,
)

U2 = Universe("u", np.array([0.0, 1.0]))
V2 = Universe("v", np.array([0.0, 1.0]))


def goedel_rule():
    return Rule(FuzzySet(U2, [1, 0.4]), FuzzySet(V2, [0.8, 0.2]),
                "variation", "goedel", "minimum")


def test_enumeration_finds_the_known_solution_set():
    relation = build_relation(goedel_rule())
    target = FuzzySet(V2, [0.8, 0.2])
    solutions = enumerate_solutions(relation, target, "minimum")
    assert len(solutions) == 35
    top = greatest_enumerated(solutions)
    assert np.allclose(top.mu, [1.0, 0.8])
    # the pointwise maximum is itself a solution for this residuated relation
    assert np.allclose(gmp(relation, top, "minimum").mu, target.mu)


def test_solutions_come_back_in_lexicographic_order():
    relation = build_relation(goedel_rule())
    solutions = enumerate_solutions(relation, FuzzySet(V2, [0.8, 0.2]), "minimum")
    vectors = [tuple(s.mu) for s in solutions]
    assert vectors == sorted(vectors)


def test_every_enumerated_solution_reproduces_the_target():
    relation = build_relation(goedel_rule())
    target = FuzzySet(V2, [0.8, 0.2])
    for s in enumerate_solutions(relation, target, "minimum"):
        assert np.max(np.abs(gmp(relation, s, "minimum").mu - target.mu)) <= 1e-9


def test_unreachable_target_has_no_solutions():
    rule = Rule(FuzzySet(U2, [0.5, 0.5]), FuzzySet(V2, [0.3, 0.3]),
                "variation", "goedel", "minimum")
    assert len(enumerate_solutions(build_relation(rule), FuzzySet(V2, [0.9, 0.2]), "minimum")) == 0


def test_zero_target_forces_zero_antecedent():
    # every relation entry is positive, so only the empty antecedent maps to zero
    relation = build_relation(goedel_rule())
    solutions = enumerate_solutions(relation, FuzzySet(V2, [0, 0]), "minimum")
    assert len(solutions) == 1
    assert np.array_equal(solutions[0].mu, [0, 0])
    # the matrix holds the levels themselves, frozen in place: no -0.0 among them
    assert not solutions.matrix.flags.writeable
    assert not np.any(np.signbit(solutions.matrix))


def test_off_grid_observation_is_snapped_first():
    snapped, shift = snap_to_levels(np.array([0.83, 0.21]), 11)
    assert np.allclose(snapped, [0.8, 0.2])
    assert shift == pytest.approx(0.03)
    relation = build_relation(goedel_rule())
    near = enumerate_solutions(relation, FuzzySet(V2, [0.83, 0.21]), "minimum")
    exact = enumerate_solutions(relation, FuzzySet(V2, [0.8, 0.2]), "minimum")
    assert len(near) == len(exact) == 35


def test_snap_of_empty_vector():
    snapped, shift = snap_to_levels(np.array([]), 11)
    assert snapped.size == 0 and shift == 0.0


def test_snap_keeps_every_level_of_the_search_grid():
    # the target is bit for bit a level that enumerate_solutions searches
    for levels in range(2, 65):
        grid = level_grid(levels)
        snapped, shift = snap_to_levels(grid, levels)
        assert snapped.tobytes() == grid.tobytes() and shift == 0.0, levels


def test_snap_moves_a_degree_outside_the_unit_interval_to_the_nearest_end():
    snapped, shift = snap_to_levels(np.array([-0.3, 1.2]), 11)
    assert snapped.tolist() == [0.0, 1.0] and shift == pytest.approx(0.3)


def test_snap_needs_two_levels():
    with pytest.raises(ValueError, match="^quantization needs at least 2 levels, got 1$"):
        snap_to_levels(np.array([0.5]), 1)


def all_ones(u, v):
    """The goedel rule relation of an empty antecedent: every degree is 1."""
    return Relation(FuzzySet(u, np.zeros(len(u))), FuzzySet(v, np.ones(len(v))), "goedel")


def table_relation(u, v, table):
    """Any table as a relation, with the three attributes the oracle reads."""
    return SimpleNamespace(antecedent=SimpleNamespace(universe=u),
                           consequent=SimpleNamespace(universe=v), rows=lambda index: table[index])


def test_search_bounds_are_enforced():
    with pytest.raises(ValueError, match="at least 2 levels"):
        QuantizedSearch(levels=1)
    with pytest.raises(ValueError, match="positive"):
        QuantizedSearch(max_points=0)

    wide = make_universe("u", 0, 1, 6)
    relation = all_ones(wide, V2)
    with pytest.raises(ValueError, match="exceeds the limit"):
        enumerate_solutions(relation, FuzzySet(V2, [1, 1]), "minimum")

    four = make_universe("u", 0, 1, 4)
    relation = all_ones(four, V2)
    big = QuantizedSearch(levels=101, max_points=5)  # 101**4 > 10^7
    with pytest.raises(ValueError, match="candidates"):
        enumerate_solutions(relation, FuzzySet(V2, [1, 1]), "minimum", big)


class Points:
    """A universe stand-in that has a length and no grid."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


class UnreadRelation:
    """A relation stand-in whose rows fail the test if read."""

    def __init__(self, u, v):
        self.antecedent, self.consequent = SimpleNamespace(universe=u), SimpleNamespace(universe=v)

    def rows(self, index):
        raise AssertionError("the relation's rows were read")


def test_level_table_over_the_cell_limit_is_rejected_before_it_is_built():
    # 2 points x 11 levels x 10**7 observation points (make_universe's limit) is
    # 2.2e8 cells, 1.76 GB per float array; no grid of that size exists here
    v = Points(10 ** 7)
    relation = UnreadRelation(U2, v)
    with patch.object(oracle, "tnorm_fn", side_effect=AssertionError("tabulated")):
        with pytest.raises(ValueError) as exc:
            enumerate_solutions(relation, SimpleNamespace(universe=v), "minimum")
    assert str(exc.value) == ("level table of 220000000 cells (2 grid points x 11 levels x "
                              "10000000 observation points) exceeds the limit of 10000000")


def test_level_table_limit_admits_a_table_at_the_limit():
    relation = build_relation(goedel_rule())  # 2 points x 11 levels x 2 points = 44 cells
    target = FuzzySet(V2, [0.8, 0.2])
    with patch.object(oracle, "MAX_CELLS", 44):
        assert len(enumerate_solutions(relation, target, "minimum")) == 35
    with patch.object(oracle, "MAX_CELLS", 43):
        with pytest.raises(ValueError, match="level table of 44 cells"):
            enumerate_solutions(relation, target, "minimum")


def test_enumeration_checks_observation_universe():
    relation = build_relation(goedel_rule())
    with pytest.raises(UniverseMismatchError):
        enumerate_solutions(relation, FuzzySet(make_universe("w", 0, 1, 2), [0, 0]), "minimum")


def test_greatest_of_nothing_is_none():
    assert greatest_enumerated([]) is None


def test_greatest_of_single_solution_is_itself():
    s = oracle.Solutions(U2, np.array([[0.3, 0.7]]))
    top = greatest_enumerated(s)
    assert top.universe is U2 and np.array_equal(top.mu, s[0].mu)


def test_solutions_read_as_a_sequence_of_sets():
    relation = build_relation(goedel_rule())
    solutions = enumerate_solutions(relation, FuzzySet(V2, [0.8, 0.2]), "minimum")
    rows = solutions.matrix
    assert len(solutions) == len(rows) == 35
    assert np.array_equal(solutions[0].mu, rows[0])
    assert np.array_equal(solutions[-1].mu, rows[34])
    assert np.array_equal(solutions[np.int64(3)].mu, rows[3])
    for index in (35, -36):
        with pytest.raises(IndexError):
            solutions[index]
    with pytest.raises(TypeError):
        solutions[1.0]
    part = solutions[3:9:2]
    assert type(part) is oracle.Solutions and part.universe is solutions.universe
    assert np.array_equal(part.matrix, rows[3:9:2])
    assert [s.mu.tobytes() for s in part] == [row.tobytes() for row in rows[3:9:2]]
    assert len(solutions[40:]) == 0
    assert [s.mu.tobytes() for s in solutions] == [row.tobytes() for row in rows]


def test_solution_matrix_is_read_only_and_empty_when_nothing_solves():
    relation = build_relation(goedel_rule())
    solutions = enumerate_solutions(relation, FuzzySet(V2, [0.8, 0.2]), "minimum")
    assert solutions.universe is relation.antecedent.universe
    assert solutions.matrix.shape == (35, 2) and solutions.matrix.dtype == float
    with pytest.raises(ValueError):
        solutions.matrix[0, 0] = 0.5
    with pytest.raises(ValueError):
        solutions[:2].matrix[0, 0] = 0.5
    rule = Rule(FuzzySet(U2, [0.5, 0.5]), FuzzySet(V2, [0.3, 0.3]),
                "variation", "goedel", "minimum")
    none = enumerate_solutions(build_relation(rule), FuzzySet(V2, [0.9, 0.2]), "minimum")
    assert len(none) == 0 and list(none) == []
    assert none.matrix.shape == (0, 2) and not none.matrix.flags.writeable


def test_every_solution_is_the_set_its_row_builds():
    relation = build_relation(goedel_rule())
    solutions = enumerate_solutions(relation, FuzzySet(V2, [0.8, 0.2]), "minimum")
    items = list(solutions) + [solutions[i] for i in range(-len(solutions), len(solutions))]
    for s in items:
        assert type(s) is FuzzySet and not hasattr(s, "__dict__")
        assert s.universe is relation.antecedent.universe
        assert s.mu.shape == (2,) and not s.mu.flags.writeable
        with pytest.raises(ValueError):
            s.mu[0] = 0.9
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.mu = np.zeros(2)
    for s, row in zip(solutions, solutions.matrix):
        assert s.mu.tobytes() == FuzzySet(relation.antecedent.universe, row).mu.tobytes()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_enumeration_agrees_with_a_naive_filter(data):
    """Cross-check the chunked vectorized scan against a plain python filter
    on very small instances."""
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    levels = data.draw(st.sampled_from([3, 5]))
    t_kind = data.draw(st.sampled_from(["minimum", "product", "lukasiewicz"]))
    q = st.sampled_from([i / (levels - 1) for i in range(levels)])
    r = np.array(data.draw(st.lists(st.lists(q, min_size=n, max_size=n),
                                    min_size=m, max_size=m)))
    bp = np.array(data.draw(st.lists(q, min_size=n, max_size=n)))
    u = Universe("u", np.arange(m, dtype=float))
    v = Universe("v", np.arange(n, dtype=float))
    relation = table_relation(u, v, r)
    target = FuzzySet(v, bp)

    got = enumerate_solutions(relation, target, t_kind, QuantizedSearch(levels=levels))
    got_vectors = [tuple(s.mu) for s in got]

    grid = np.linspace(0, 1, levels)
    t = tnorm_fn(t_kind)
    expected = []
    for cand in itertools.product(grid, repeat=m):
        image = np.max(t(np.array(cand)[:, None], r), axis=0)
        if np.all(np.abs(image - bp) <= 1e-9):
            expected.append(tuple(FuzzySet(u, list(cand)).mu))
    assert got_vectors == expected
    top = greatest_enumerated(got)
    if expected:
        assert top.universe is u
        assert top.mu.tobytes() == got.matrix.max(axis=0).tobytes()
        assert top.mu.tobytes() == np.max(expected, axis=0).tobytes()
    else:
        assert top is None


#: level counts on both sides of each step in a code's field width,
#: (levels - 1).bit_length(): 1, 2, 2, 3, 3, 4, 4, 4 and 5 bits
FIELD_LEVELS = [2, 3, 4, 5, 8, 9, 11, 16, 17]


def unpruned_scan(relation, b_prime, tnorm, levels):
    """Every candidate's full image, tested in lexicographic order: the scan
    the pruned oracle must reproduce exactly."""
    target, _ = snap_to_levels(b_prime.mu, levels)
    grid = np.linspace(0.0, 1.0, levels)
    cand = np.array(list(itertools.product(grid, repeat=len(relation.antecedent.universe))))
    table = relation.rows(slice(None))
    images = np.max(tnorm_fn(tnorm)(cand[:, :, None], table[None, :, :]), axis=1)
    hits = np.all(np.abs(images - target[None, :]) <= 1e-9, axis=1)
    return [FuzzySet(relation.antecedent.universe, row) for row in cand[hits]]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pruned_scan_matches_the_unpruned_scan(data):
    """Same solutions, in the same order and byte for byte, for every block size,
    with observations that are images of grid candidates (so most instances
    have solutions) or arbitrary degrees."""
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    levels = data.draw(st.sampled_from(FIELD_LEVELS))
    t_kind = data.draw(st.sampled_from(["minimum", "product", "lukasiewicz"]))
    degree = st.floats(0, 1, allow_nan=False)
    quantized = data.draw(st.booleans())
    q = st.sampled_from([i / (levels - 1) for i in range(levels)]) if quantized else degree
    r = np.array(data.draw(st.lists(st.lists(q, min_size=n, max_size=n),
                                    min_size=m, max_size=m)))
    u = Universe("u", np.arange(m, dtype=float))
    v = Universe("v", np.arange(n, dtype=float))
    relation = table_relation(u, v, r)
    if data.draw(st.integers(0, 3)):
        known = np.array(data.draw(st.lists(st.integers(0, levels - 1), min_size=m,
                                            max_size=m))) / (levels - 1)
        observed = np.max(tnorm_fn(t_kind)(known[:, None], r), axis=0)
    else:
        observed = np.array(data.draw(st.lists(degree, min_size=n, max_size=n)))
    assert_matches_unpruned_scan(relation, FuzzySet(v, observed), t_kind, levels)


def assert_matches_unpruned_scan(relation, target, t_kind, levels):
    """The oracle's solutions are the unpruned scan's, in its order and byte for
    byte, for every block size; returns how many there are."""
    want = [s.mu.tobytes() for s in unpruned_scan(relation, target, t_kind, levels)]
    for chunk in (oracle._CHUNK, 1, 7, 121):
        with patch.object(oracle, "_CHUNK", chunk):
            got = enumerate_solutions(relation, target, t_kind, QuantizedSearch(levels=levels))
        assert [s.mu.tobytes() for s in got] == want, f"_CHUNK={chunk}"
        assert all(s.universe is relation.antecedent.universe and not s.mu.flags.writeable
                   for s in got)
        assert not got.matrix.flags.writeable and not np.any(np.signbit(got.matrix))
    return len(want)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_every_block_size_gives_the_same_matrix(data):
    """The solution matrix's bytes do not depend on _CHUNK: one cover row per
    block, two, one point's levels, and the default, on instances up to the
    5-point limit, where the default splits the last point's prefixes into
    several blocks."""
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 6))
    levels = data.draw(st.sampled_from(FIELD_LEVELS))
    t_kind = data.draw(st.sampled_from(["minimum", "product", "lukasiewicz"]))
    q = st.sampled_from([i / (levels - 1) for i in range(levels)])
    degree = q if data.draw(st.booleans()) else st.floats(0, 1, allow_nan=False)
    r = np.array(data.draw(st.lists(st.lists(degree, min_size=n, max_size=n),
                                    min_size=m, max_size=m)))
    if data.draw(st.integers(0, 3)):
        known = np.array(data.draw(st.lists(q, min_size=m, max_size=m)))
        observed = np.max(tnorm_fn(t_kind)(known[:, None], r), axis=0)
    else:
        observed = np.array(data.draw(st.lists(q, min_size=n, max_size=n)))
    u = Universe("u", np.arange(m, dtype=float))
    v = Universe("v", np.arange(n, dtype=float))
    relation, target = table_relation(u, v, r), FuzzySet(v, observed)
    search = QuantizedSearch(levels=levels)
    got = {}
    for chunk in (1, 2, levels, oracle._CHUNK):
        with patch.object(oracle, "_CHUNK", chunk):
            matrix = enumerate_solutions(relation, target, t_kind, search).matrix
        got[chunk] = (matrix.shape, matrix.tobytes())
    assert len(set(got.values())) == 1, got


@pytest.mark.parametrize("width", [7, 8, 9, 16, 17, None])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_cover_rows_match_the_unpruned_scan_across_byte_boundaries(width, data):
    """A cover row packs one bit per observation point, eight to a byte: widths
    on both sides of the first two byte boundaries, and any width up to 20."""
    n = width or data.draw(st.integers(1, 20))
    m = data.draw(st.integers(1, 3))
    levels = data.draw(st.sampled_from(FIELD_LEVELS))
    t_kind = data.draw(st.sampled_from(["minimum", "product", "lukasiewicz"]))
    q = st.sampled_from([i / (levels - 1) for i in range(levels)])
    degree = q if data.draw(st.booleans()) else st.floats(0, 1, allow_nan=False)
    r = np.array(data.draw(st.lists(st.lists(degree, min_size=n, max_size=n),
                                    min_size=m, max_size=m)))
    if data.draw(st.integers(0, 3)):
        known = np.array(data.draw(st.lists(q, min_size=m, max_size=m)))
        observed = np.max(tnorm_fn(t_kind)(known[:, None], r), axis=0)
    else:
        observed = np.array(data.draw(st.lists(q, min_size=n, max_size=n)))
    u = Universe("u", np.arange(m, dtype=float))
    v = Universe("v", np.arange(n, dtype=float))
    assert_matches_unpruned_scan(table_relation(u, v, r), FuzzySet(v, observed), t_kind, levels)


@pytest.mark.parametrize("width", [7, 8, 9, 16, 17])
def test_every_level_admissible_leaves_the_cover_to_decide(width):
    # B' = 1 bounds no image, so every level is admissible; a point covers v only
    # at level 1 where R(u, v) = 1, and each point holds 1 on its own stripe of v
    u = Universe("u", np.arange(3, dtype=float))
    v = Universe("v", np.arange(width, dtype=float))
    r = np.where(np.arange(width)[None, :] % 3 == np.arange(3)[:, None], 1.0, 0.5)
    count = assert_matches_unpruned_scan(table_relation(u, v, r), FuzzySet(v, np.ones(width)),
                                         "product", 5)
    assert count == 1  # every point at level 1


@pytest.mark.parametrize("width", [7, 8, 9, 16, 17])
def test_a_point_with_no_admissible_level_leaves_no_solution(width):
    # T(0, x) = 0 for x in [0, 1], so level 0 is always admissible; a table
    # degree of 1.5 lifts lukasiewicz's T(0, 1.5) to 0.5, over B' = 0.2 at the
    # last v, so the second point has no admissible level at all
    u = Universe("u", np.arange(2, dtype=float))
    v = Universe("v", np.arange(width, dtype=float))
    r = np.full((2, width), 0.2)
    r[1, -1] = 1.5
    relation = table_relation(u, v, r)
    target = FuzzySet(v, np.full(width, 0.2))
    assert assert_matches_unpruned_scan(relation, target, "lukasiewicz", 11) == 0
    r[1, -1] = 1.0  # back in [0, 1]: the second point admits levels 0 to 0.2 again
    assert assert_matches_unpruned_scan(relation, target, "lukasiewicz", 11) > 0


@pytest.mark.parametrize("levels, picks", [
    # 23 one-bit fields, the most points 2 levels admit
    (2, [1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1]),
    # 10 three-bit fields, 30 bits, the widest code of any level count; the
    # first point's level 4 sets the code's top bit
    (5, [4, 0, 2, 1, 4, 0, 3, 0, 1, 4]),
])
def test_widest_codes_decode_to_their_levels(levels, picks):
    """R is the identity and B'(v_u) the level picked at u, so point u admits
    the levels up to its pick (a row of level x holds x at v_u and 0 elsewhere)
    and only its pick covers v_u. The one solution is the picks themselves.
    The unpruned scan of levels**n candidates would hold n * levels**n degrees
    (1.5 GB at 2**23), so it is replaced by its verdict on this instance: a
    level over a pick raises the image over B' at v_u, and every candidate
    within the picks is tested here by its full image."""
    n = len(picks)
    grid = np.linspace(0.0, 1.0, levels)
    u = Universe("u", np.arange(n, dtype=float))
    v = Universe("v", np.arange(n, dtype=float))
    relation, target = table_relation(u, v, np.eye(n)), FuzzySet(v, grid[picks])
    within = np.array(list(itertools.product(*(grid[:p + 1] for p in picks))))
    hits = within[np.all(np.abs(within - target.mu) <= 1e-9, axis=1)]  # the image of x is x
    assert hits.tobytes() == grid[picks].tobytes()
    search = QuantizedSearch(levels=levels, max_points=n)
    assert (levels - 1).bit_length() * n in (23, 30)
    for chunk in (oracle._CHUNK, 1, 7, 121):
        with patch.object(oracle, "_CHUNK", chunk):
            got = enumerate_solutions(relation, target, "product", search)
        assert got.matrix.tobytes() == hits.tobytes(), f"_CHUNK={chunk}"


def test_unprunable_wide_instance_stays_within_its_memory_bound():
    # R = 1 and B' = 1: every level is admissible, so the scan cannot skip a
    # candidate; the hits are the candidates with some degree 1
    u = make_universe("u", 0, 1, 5)
    v = make_universe("v", 0, 1, 101)
    relation = all_ones(u, v)
    tracemalloc.start()
    try:
        solutions = enumerate_solutions(relation, FuzzySet(v, np.ones(101)), "minimum")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(solutions) == 11 ** 5 - 10 ** 5
    assert peak < 64e6
