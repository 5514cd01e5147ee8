"""Operator algebra: t-norms, implication families, property suite."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzyabduce
from fuzzyabduce.core import level_grid
from fuzzyabduce.operators import (
    CONTRAPOSITIVE_S,
    IMPLICATIONS,
    R_IMPLICATIONS,
    RESIDUUM_FOR_TNORM,
    S_IMPLICATIONS,
    TNORM_FOR_RESIDUUM,
    TNORMS,
    canonical_name,
    implication,
    implication_fn,
    property_suite,
    _residuum_scan,
    residuum_gap,
    residuum_oracle,
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
    with pytest.raises(ValueError, match="unknown implication"):
        implication("xor", 0.5, 0.5)


@pytest.mark.parametrize("op, kind", [(tnorm, k) for k in sorted(TNORMS)]
                         + [(implication, k) for k in sorted(IMPLICATIONS)])
def test_scalar_operators_read_a_negative_zero_as_zero(op, kind):
    # FuzzySet stores -0.0 as +0.0, and so do the scalar entry points: no
    # result keeps the sign of a negative zero argument
    for a, b in [(-0.0, 0.5), (0.5, -0.0), (1.0, -0.0), (-0.0, 1.0), (-0.0, -0.0)]:
        assert not np.signbit(op(kind, a, b)), (kind, a, b)


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


def test_lukasiewicz_s_and_r_constructions_coincide():
    s = S_IMPLICATIONS["lukasiewicz"]
    r = R_IMPLICATIONS["lukasiewicz"]
    a, b = GRID[:, None], GRID[None, :]
    assert np.array_equal(s(a, b), r(a, b))


def test_implications_are_exactly_the_two_rule_families():
    # certainty rules take the s-family, variation rules the r-family; no
    # other implication is defined, and the package exports no t-conorm
    names = sorted(set(S_IMPLICATIONS) | set(R_IMPLICATIONS))
    assert sorted(IMPLICATIONS) == names
    for name in names:
        assert implication_fn(name) is IMPLICATIONS[name]
    with pytest.raises(ValueError, match="unknown implication") as excinfo:
        implication("ql_minimum", 0.5, 0.5)
    assert str(names) in str(excinfo.value)
    assert not hasattr(fuzzyabduce, "tconorm") and not hasattr(fuzzyabduce, "DUAL_TCONORM")


@pytest.mark.parametrize("name", ["ql_minimum", "ql_product", "ql_lukasiewicz"])
def test_removed_ql_implications_are_unknown_everywhere(name):
    for use in (lambda: implication_fn(name), lambda: implication(name, 0.5, 0.5),
                lambda: property_suite(None, name, 11)):
        with pytest.raises(ValueError, match="unknown implication"):
            use()


# --- residuum oracle ---------------------------------------------------------

def test_residuum_oracle_matches_closed_forms():
    assert residuum_oracle("minimum", 0.8, 0.4, 1001) == pytest.approx(0.4)
    assert residuum_oracle("product", 0.8, 0.4, 1001) == pytest.approx(0.5)
    for kind in sorted(TNORMS):
        assert residuum_oracle(kind, 0.3, 0.7, 1001) == 1.0


def test_residuum_oracle_needs_two_levels():
    with pytest.raises(ValueError, match="at least 2 levels"):
        residuum_oracle("minimum", 0.5, 0.5, 1)


@pytest.mark.parametrize("points, levels", [(1, 11), (11, 1)])
def test_residuum_gap_needs_two_points_and_two_levels(points, levels):
    # both axes are level grids, so either one's count below 2 is refused as such
    with pytest.raises(ValueError, match="^quantization needs at least 2 levels, got 1$"):
        residuum_gap("product", "goguen", points, levels)


@pytest.mark.parametrize("points, levels", [(11, 101), (101, 1001)])
@pytest.mark.parametrize("t_name, impl_name", sorted(RESIDUUM_FOR_TNORM.items()))
def test_residuum_gap_equals_the_scalar_scan(t_name, impl_name, points, levels):
    # one scalar oracle call per (a, b) pair of the points x points grid; the
    # oracle tests every level and shares no code with the row scan.
    # (101, 1001) is check-ops' own grid, whose gaps tests/golden/check_ops.json pins
    grid = [float(x) for x in level_grid(points)]
    expected = max(
        abs(implication(impl_name, a, b) - residuum_oracle(t_name, a, b, levels))
        for a in grid for b in grid
    )
    assert residuum_gap(t_name, impl_name, points, levels) == expected


@pytest.mark.parametrize("points", [*range(2, 13), 101])
def test_goedel_gap_is_zero_exactly_where_the_degrees_are_levels(points):
    # goedel's residuum is 1 or b, so the scan recovers it exactly where every
    # degree b is a level, and otherwise falls to the level below b. On linspace
    # grids, levels - 1 a multiple of points - 1 does not make every degree a
    # level bit for bit: (6, 16) misses by an ulp and (101, 301) by a level
    for levels in [m * (points - 1) + 1 for m in range(1, 12)]:
        degrees_are_levels = bool(np.all(np.isin(level_grid(points), level_grid(levels))))
        gap = residuum_gap("minimum", "goedel", points, levels)
        assert (gap == 0.0) == degrees_are_levels, levels


def test_goedel_gap_is_zero_on_the_check_ops_grid():
    assert np.all(np.isin(level_grid(101), level_grid(1001)))
    assert residuum_gap("minimum", "goedel", 101, 1001) == 0.0


def scan_by_definition(t, a, bs, zs):
    """For each b, the largest z with T(a, z) <= b, or 0.0 where there is none,
    read off the full table of T(a, z) <= b; 256 bs at a time bounds the table."""
    return np.concatenate([
        np.max(np.where(t(a, zs) <= chunk[:, None], zs, 0.0), axis=1)
        for chunk in np.array_split(bs, -(-bs.size // 256))
    ])


# 0 and 1, the floats next to them, and the least normal float
EDGE_DEGREES = (0.0, float(np.nextafter(0.0, 1.0)), float(np.finfo(float).tiny),
                float(np.nextafter(1.0, 0.0)), 1.0)


@given(st.sampled_from(sorted(TNORMS)),
       st.lists(st.one_of(st.sampled_from(EDGE_DEGREES), st.floats(0, 1)), min_size=1, max_size=3),
       st.integers(2, 4097),
       st.lists(st.floats(0, 1), max_size=8),
       st.data())
@settings(max_examples=150, deadline=None)
def test_residuum_scan_equals_its_definition(t_name, drawn, levels, extra, data):
    t = TNORMS[t_name]
    zs = np.linspace(0.0, 1.0, levels)
    row = t(drawn[0], zs)
    # every T(a, z) of the first drawn a is a b where its answer steps, so each
    # tie is drawn, and the floats just below them fall on the other side; a b
    # below 0 has no z
    bs = np.concatenate([row, np.nextafter(row, -1.0), extra, [-1.0]])
    # the drawn degrees and EDGE_DEGREES, each on one to three rows
    degrees = [*drawn, *EDGE_DEGREES]
    as_ = np.resize(degrees, data.draw(st.integers(len(degrees), 3 * len(degrees)),
                                       label="rows"))
    got = _residuum_scan(t, as_, bs, zs)
    want = [scan_by_definition(t, a, bs, zs).tobytes() for a in degrees]
    assert [r.tobytes() for r in got] == [want[k % len(degrees)] for k in range(len(as_))]


@pytest.mark.parametrize("t_name", sorted(TNORMS))
def test_tnorms_never_fall_as_either_degree_grows(t_name):
    # _residuum_scan bisects the row T(a, zs) itself, so each t-norm must round
    # monotonically in z: on pairs of adjacent floats, and along level grids.
    # gmp's dominance pruning needs it in a as well, on adjacent floats
    t = TNORMS[t_name]
    rng = np.random.default_rng(13)
    as_ = np.concatenate([rng.random(500), EDGE_DEGREES])[:, None]
    z = np.concatenate([rng.random(400), EDGE_DEGREES])[None, :]
    assert np.all(t(as_, np.nextafter(z, 1.0)) >= t(as_, z))
    assert np.all(t(np.nextafter(as_, 1.0), z) >= t(as_, z))
    for levels in (2, 3, 11, 101, 1001, 4097):
        rows = t(as_, np.linspace(0.0, 1.0, levels))
        assert np.all(rows[:, 1:] >= rows[:, :-1]), levels


@pytest.mark.parametrize("t_name, impl_name", sorted(RESIDUUM_FOR_TNORM.items()))
def test_residuum_gap_holds_no_table_of_every_level(t_name, impl_name):
    # check-ops' grid: one 101 x 1001 table would take 0.8 MB per temporary
    tracemalloc.start()
    try:
        residuum_gap(t_name, impl_name, 101, 1001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


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
    with pytest.raises(ValueError, match="^implication 'goedel' is the residuum of "
                                         "'minimum', not of 'product'$"):
        property_suite("product", "goedel", 11)


@pytest.mark.parametrize("impl_kind", sorted(set(IMPLICATIONS) - set(R_IMPLICATIONS)))
@pytest.mark.parametrize("t_kind", sorted(TNORMS))
def test_suite_takes_a_tnorm_only_with_the_implication_it_generates(t_kind, impl_kind):
    # a t-norm selects the residuation laws; an s-implication outside the
    # r-family has none, so a t-norm beside it is an error, not ignored
    with pytest.raises(ValueError, match=f"^implication '{impl_kind}' is not residuated; "
                                         f"pass no t-norm$"):
        property_suite(t_kind, impl_kind, 11)


def test_suite_rejects_an_unknown_tnorm():
    with pytest.raises(ValueError, match="unknown t-norm 'frank'; choose from"):
        property_suite("frank", "kleene_dienes", 11)


def test_suite_requires_tnorm_for_pure_residuated_implications():
    # the message names the implication canonically, as the other pairing errors do
    for spelling in ("goedel", "Goedel"):
        with pytest.raises(ValueError, match="^implication 'goedel' is residuated; "
                                             "pass its generating t-norm$"):
            property_suite(None, spelling, 11)


@pytest.mark.parametrize("impl_kind", sorted(IMPLICATIONS))
def test_every_implication_gets_the_battery_of_its_family(impl_kind):
    # every defined implication is an s- or an r-implication, so the suite
    # always has laws to scan; zadeh alone fails its own
    report = property_suite(TNORM_FOR_RESIDUUM.get(impl_kind), impl_kind, 11)
    want = set()
    if impl_kind in R_IMPLICATIONS:
        want |= R_CHECKS
    if impl_kind in S_IMPLICATIONS:
        want.add("contrapositive_symmetry")
    assert {c.name for c in report.checks} == want
    assert report.all_passed == (impl_kind != "zadeh")
