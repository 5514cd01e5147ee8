"""Universe grids, membership shapes, and elementary set operations."""
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyabduce.core import (
    MAX_CELLS,
    SHAPES,
    FuzzySet,
    Universe,
    UniverseMismatchError,
    compatibility,
    complement,
    level_grid,
    make_universe,
    sample,
)


def fs(grid, mu):
    return FuzzySet(Universe("x", np.array(grid, dtype=float)), mu)


# --- universes ---------------------------------------------------------------

def test_make_universe_uniform_grid():
    u = make_universe("temp", 0, 200, 5)
    assert np.array_equal(u.grid, [0, 50, 100, 150, 200])
    assert len(u) == 5


def test_make_universe_two_point_endpoints():
    u = make_universe("deg", 0, 1, 2)
    assert np.array_equal(u.grid, [0, 1])


def test_make_universe_default_resolution():
    u = make_universe("temp", 0, 200, 101)
    assert len(u) == 101
    assert u.grid[0] == 0 and u.grid[-1] == 200
    assert np.allclose(np.diff(u.grid), 2.0)


@pytest.mark.parametrize("lo,hi,n", [(5, 5, 3), (10, 0, 3), (0, 1, 1), (0, float("inf"), 3)])
def test_make_universe_rejects_bad_bounds(lo, hi, n):
    with pytest.raises(ValueError):
        make_universe("bad", lo, hi, n)


def test_make_universe_rejects_more_points_than_the_limit(monkeypatch):
    # the check comes before the grid is built, so the test allocates nothing
    def never(*args, **kwargs):
        raise AssertionError("np.linspace was called")

    monkeypatch.setattr(np, "linspace", never)
    with pytest.raises(ValueError, match=f"10000001 grid points exceed the limit of {MAX_CELLS}"):
        make_universe("big", 0, 1, MAX_CELLS + 1)
    assert MAX_CELLS == 10 ** 7


def test_universe_grid_must_strictly_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        Universe("x", np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Universe("x", np.array([]))


@pytest.mark.parametrize("point", [float("nan"), float("inf"), -float("inf")])
def test_universe_grid_points_must_be_finite(point):
    with pytest.raises(ValueError, match="^universe 'x': grid points must be finite$"):
        Universe("x", np.array([0.0, point]))


def test_universe_equality_and_hash():
    a = Universe("x", np.array([0.0, 1.0]))
    b = Universe("x", np.array([0.0, 1.0]))
    c = Universe("y", np.array([0.0, 1.0]))
    assert a == b and a != c
    assert len({a: 1, b: 2}) == 1  # usable as a dict key


# --- fuzzy sets --------------------------------------------------------------

def test_fuzzyset_clamps_degrees():
    s = fs([0, 1], [-0.5, 1.5])
    assert np.array_equal(s.mu, [0.0, 1.0])


def test_fuzzyset_rejects_length_mismatch():
    with pytest.raises(ValueError):
        fs([0, 1, 2], [0.5, 0.5])


def test_fuzzyset_rejects_nan():
    with pytest.raises(ValueError, match="must be finite"):
        fs([0, 1], [float("nan"), 0])


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_fuzzyset_rejects_infinite_degrees(value):
    with pytest.raises(ValueError, match="must be finite"):
        fs([0, 1], [value, 0])


def test_fuzzyset_degrees_are_read_only():
    s = fs([0, 1], [0.2, 0.8])
    with pytest.raises(ValueError):
        s.mu[0] = 0.9


def test_fuzzyset_is_slotted_and_frozen():
    u = make_universe("u", 0, 1, 3)
    s = FuzzySet(u, [0.2, 0.5, 0.8])
    assert not hasattr(s, "__dict__")
    for field, value in (("mu", np.zeros(3)), ("universe", u)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, field, value)


def test_fuzzyset_copies_its_degrees_once():
    # clipped into one fresh array, frozen in place: no second copy at any point
    u = make_universe("u", 0, 1, 10 ** 6)
    degrees = np.linspace(-0.5, 1.5, 10 ** 6)
    tracemalloc.start()
    try:
        s = FuzzySet(u, degrees)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * degrees.nbytes
    assert not np.shares_memory(s.mu, degrees) and degrees.flags.writeable
    assert s.mu.min() == 0.0 and s.mu.max() == 1.0


def test_negative_zero_degrees_are_stored_as_positive_zero():
    u = make_universe("u", 0, 1, 5)
    degrees = [-0.0, -0.0, 0.0, 0.5, 1.0]
    mu = FuzzySet(u, degrees).mu
    assert not np.any(np.signbit(mu))
    # tobytes tells -0.0 from 0.0, where == does not
    assert mu.tobytes() == np.array([0.0, 0.0, 0.0, 0.5, 1.0]).tobytes()


# --- shapes ------------------------------------------------------------------

def test_triangular_vertex_evaluation():
    s = sample("triangular", [0, 50, 100], make_universe("t", 0, 100, 3))
    assert np.array_equal(s.mu, [0, 1, 0])


def test_trapezoidal_plateau_and_descent():
    s = sample("trapezoidal", [0, 0, 50, 100], make_universe("t", 0, 100, 3))
    assert np.array_equal(s.mu, [1, 1, 0])


def test_trapezoidal_interior_slope():
    # descending edge from 40 to 90 passes through 50 at (90-50)/(90-40)
    s = sample("trapezoidal", [0, 0, 40, 90], make_universe("t", 0, 200, 5))
    assert np.allclose(s.mu, [1, 0.8, 0, 0, 0])


def test_singleton_snaps_to_nearest_grid_point():
    s = sample("singleton", [49], make_universe("t", 0, 100, 3))
    assert np.array_equal(s.mu, [0, 1, 0])


def test_singleton_tie_breaks_toward_lower_point():
    s = sample("singleton", [25], make_universe("t", 0, 100, 3))
    assert np.array_equal(s.mu, [1, 0, 0])


def test_gaussian_values():
    s = sample("gaussian", [100, 50], Universe("t", np.array([0.0, 50.0, 100.0])))
    assert s.mu == pytest.approx([np.exp(-4.0), np.exp(-1.0), 1.0])


def test_narrow_gaussian_samples_without_overflow_warnings():
    # (x - center) / width overflows to inf off the center; its degree is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = sample("gaussian", [100, 1e-310], make_universe("t", 0, 200, 5))
    assert np.array_equal(s.mu, [0, 0, 1, 0, 0])


def test_samples_passthrough_and_length_check():
    u = make_universe("t", 0, 1, 3)
    s = sample("samples", [0.1, 0.5, 0.9], u)
    assert np.allclose(s.mu, [0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match="3-point universe"):
        sample("samples", [0.1, 0.5], u)


@pytest.mark.parametrize("bad", [1.5, -0.5])
def test_samples_reject_a_degree_outside_the_unit_interval(bad):
    # FuzzySet would clamp the degree; samples take it as given or not at all,
    # after the length and finiteness checks
    u = make_universe("t", 0, 1, 3)
    with pytest.raises(ValueError, match=rf"^samples: degrees must lie in \[0, 1\], got {bad}$"):
        sample("samples", [0.5, bad, 2.0], u)
    with pytest.raises(ValueError, match="3-point universe"):
        sample("samples", [bad, 0.5], u)
    with pytest.raises(ValueError, match="must be finite"):
        sample("samples", [bad, float("nan"), 0.5], u)
    mu = sample("samples", [0.0, -0.0, 1.0], u).mu
    assert np.array_equal(mu, [0.0, 0.0, 1.0]) and not np.any(np.signbit(mu))


def test_degenerate_trapezoid_edges_are_vertical():
    # a == b collapses the rising edge into a step at that point
    s = sample("trapezoidal", [50, 50, 100, 100], make_universe("t", 0, 100, 5))
    assert np.array_equal(s.mu, [0, 0, 1, 1, 1])


def test_shape_parameter_validation():
    u = make_universe("t", 0, 10, 3)
    with pytest.raises(ValueError, match="non-decreasing"):
        sample("triangular", [1, 0, 2], u)
    with pytest.raises(ValueError, match="width must be positive"):
        sample("gaussian", [0, 0], u)
    with pytest.raises(ValueError, match="non-decreasing"):
        sample("trapezoidal", [0, 2, 1, 3], u)


@pytest.mark.parametrize("kind, knots", [("triangular", [150, 100, 50]),
                                         ("trapezoidal", [0, 150, 100, 200])])
def test_knot_error_names_the_shape_and_its_own_knots(kind, knots):
    u = make_universe("t", 0, 200, 5)
    with pytest.raises(ValueError, match=rf"^{kind}: knots must be non-decreasing, "
                                         rf"got \({', '.join(map(str, knots))}\)$"):
        sample(kind, knots, u)


def test_level_grid_spans_zero_to_one_and_needs_two_levels():
    assert level_grid(11).tobytes() == np.linspace(0.0, 1.0, 11).tobytes()
    assert level_grid(2).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="^quantization needs at least 2 levels, got 1$"):
        level_grid(1)


def test_parametric_shape_needs_two_grid_points():
    one = Universe("p", np.array([5.0]))
    with pytest.raises(ValueError, match="at least 2 grid points"):
        sample("triangular", [0, 5, 10], one)
    # singletons are fine on any grid
    assert np.array_equal(sample("singleton", [4.9], one).mu, [1.0])


# --- set-level operations ----------------------------------------------------

def test_complement_values():
    s = fs([0, 1, 2], [0, 0.4, 1])
    assert np.allclose(complement(s).mu, [1, 0.6, 0])


def test_complement_fixed_point():
    assert complement(fs([0], [0.5])).mu[0] == 0.5


def test_compatibility_examples():
    assert compatibility(fs([0, 1, 2], [0, 1, 0]), fs([0, 1, 2], [0, 1, 0])) == 1
    assert compatibility(fs([0, 1, 2], [1, 0, 0]), fs([0, 1, 2], [0, 0, 1])) == 0
    assert compatibility(fs([0, 1, 2], [0, 0.6, 0.2]), fs([0, 1, 2], [0.1, 0.5, 1])) == 0.5


def test_compatibility_requires_shared_universe():
    a = FuzzySet(make_universe("u", 0, 1, 3), [0, 1, 0])
    b = FuzzySet(make_universe("v", 0, 1, 3), [0, 1, 0])
    with pytest.raises(UniverseMismatchError):
        compatibility(a, b)


# --- property tests ----------------------------------------------------------

degrees = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def grids(draw, min_points=2, max_points=12):
    n = draw(st.integers(min_points, max_points))
    lo = draw(st.floats(-100, 100, allow_nan=False, allow_infinity=False))
    width = draw(st.floats(0.5, 200, allow_nan=False, allow_infinity=False))
    return make_universe("g", lo, lo + width, n)


@st.composite
def shapes(draw, lo, hi):
    """A (kind, params) pair of one of the parametric shapes, with valid params."""
    knot = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(sorted(SHAPES)))
    if kind == "gaussian":
        return kind, [draw(knot), draw(st.floats(0.1, 100))]
    return kind, sorted(draw(st.lists(knot, min_size=SHAPES[kind][0],
                                      max_size=SHAPES[kind][0])))


@given(st.data())
@settings(max_examples=150)
def test_sampled_degrees_always_in_unit_interval(data):
    u = data.draw(grids())
    kind, params = data.draw(shapes(float(u.grid[0]) - 50, float(u.grid[-1]) + 50))
    mu = sample(kind, params, u).mu
    assert np.all(mu >= 0) and np.all(mu <= 1)


@given(st.lists(st.integers(0, 256), min_size=1, max_size=20))
def test_complement_involution_exact_on_dyadic_degrees(ticks):
    # degrees of the form i/256 negate exactly, so the involution is exact
    s = fs(range(len(ticks)), np.array(ticks) / 256.0)
    assert np.array_equal(complement(complement(s)).mu, s.mu)


@given(st.lists(degrees, min_size=1, max_size=20))
def test_complement_involution_within_one_ulp(mu):
    s = fs(range(len(mu)), mu)
    assert np.max(np.abs(complement(complement(s)).mu - s.mu)) <= 2.0 ** -52


@given(st.lists(st.tuples(degrees, degrees), min_size=1, max_size=15))
def test_compatibility_is_symmetric(pairs):
    a = fs(range(len(pairs)), [p[0] for p in pairs])
    b = fs(range(len(pairs)), [p[1] for p in pairs])
    assert compatibility(a, b) == compatibility(b, a)


@given(st.lists(st.tuples(degrees, degrees), min_size=1, max_size=15),
       st.integers(0, 14))
def test_compatibility_full_on_shared_core_point(pairs, k):
    k = k % len(pairs)
    mu_a = [p[0] for p in pairs]
    mu_b = [p[1] for p in pairs]
    mu_a[k] = mu_b[k] = 1.0
    assert compatibility(fs(range(len(pairs)), mu_a), fs(range(len(pairs)), mu_b)) == 1.0


@given(st.data())
@settings(max_examples=100)
def test_triangular_peak_hits_one_on_grid(data):
    u = data.draw(grids(min_points=3, max_points=10))
    b = float(data.draw(st.sampled_from(list(u.grid))))
    spread = data.draw(st.floats(0, 50, allow_nan=False))
    s = sample("triangular", [b - spread, b, b + spread], u)
    assert np.max(s.mu) == 1.0
