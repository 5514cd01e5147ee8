"""Universe grids, membership shapes, and elementary set operations."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyabduce.core import (
    FuzzySet,
    Gaussian,
    Samples,
    Singleton,
    Trapezoidal,
    Triangular,
    Universe,
    UniverseMismatchError,
    compatibility,
    complement,
    core_points,
    height,
    is_normalized,
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


def test_universe_grid_must_strictly_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        Universe("x", np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Universe("x", np.array([]))


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
    with pytest.raises(ValueError):
        fs([0, 1], [float("nan"), 0])


def test_fuzzyset_degrees_are_read_only():
    s = fs([0, 1], [0.2, 0.8])
    with pytest.raises(ValueError):
        s.mu[0] = 0.9


# --- shapes ------------------------------------------------------------------

def test_triangular_vertex_evaluation():
    s = sample(Triangular(0, 50, 100), make_universe("t", 0, 100, 3))
    assert np.array_equal(s.mu, [0, 1, 0])


def test_trapezoidal_plateau_and_descent():
    s = sample(Trapezoidal(0, 0, 50, 100), make_universe("t", 0, 100, 3))
    assert np.array_equal(s.mu, [1, 1, 0])


def test_trapezoidal_interior_slope():
    # descending edge from 40 to 90 passes through 50 at (90-50)/(90-40)
    s = sample(Trapezoidal(0, 0, 40, 90), make_universe("t", 0, 200, 5))
    assert np.allclose(s.mu, [1, 0.8, 0, 0, 0])


def test_singleton_snaps_to_nearest_grid_point():
    s = sample(Singleton(49), make_universe("t", 0, 100, 3))
    assert np.array_equal(s.mu, [0, 1, 0])


def test_singleton_tie_breaks_toward_lower_point():
    s = sample(Singleton(25), make_universe("t", 0, 100, 3))
    assert np.array_equal(s.mu, [1, 0, 0])


def test_gaussian_values():
    s = sample(Gaussian(100, 50), Universe("t", np.array([0.0, 50.0, 100.0])))
    assert s.mu == pytest.approx([np.exp(-4.0), np.exp(-1.0), 1.0])


def test_narrow_gaussian_samples_without_overflow_warnings():
    # (x - center) / width overflows to inf off the center; its degree is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = sample(Gaussian(100, 1e-310), make_universe("t", 0, 200, 5))
    assert np.array_equal(s.mu, [0, 0, 1, 0, 0])


def test_samples_passthrough_and_length_check():
    u = make_universe("t", 0, 1, 3)
    s = sample(Samples((0.1, 0.5, 0.9)), u)
    assert np.allclose(s.mu, [0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match="3-point universe"):
        sample(Samples((0.1, 0.5)), u)


def test_degenerate_trapezoid_edges_are_vertical():
    # a == b collapses the rising edge into a step at that point
    s = sample(Trapezoidal(50, 50, 100, 100), make_universe("t", 0, 100, 5))
    assert np.array_equal(s.mu, [0, 0, 1, 1, 1])


def test_shape_parameter_validation():
    with pytest.raises(ValueError):
        Triangular(1, 0, 2)  # knots out of order
    with pytest.raises(ValueError):
        Gaussian(0, 0)  # zero width
    with pytest.raises(ValueError):
        Trapezoidal(0, 2, 1, 3)


def test_parametric_shape_needs_two_grid_points():
    one = Universe("p", np.array([5.0]))
    with pytest.raises(ValueError, match="at least 2 grid points"):
        sample(Triangular(0, 5, 10), one)
    # singletons are fine on any grid
    assert np.array_equal(sample(Singleton(4.9), one).mu, [1.0])


# --- set-level operations ----------------------------------------------------

def test_complement_values():
    s = fs([0, 1, 2], [0, 0.4, 1])
    assert np.allclose(complement(s).mu, [1, 0.6, 0])


def test_complement_fixed_point():
    assert complement(fs([0], [0.5])).mu[0] == 0.5


def test_height_and_normalized():
    assert height(fs([0, 1, 2], [0, 0.4, 1])) == 1
    assert is_normalized(fs([0, 1, 2], [0, 0.4, 1]))
    assert height(fs([0, 1], [0.2, 0.3])) == 0.3
    assert not is_normalized(fs([0, 1], [0.2, 0.3]))
    assert height(fs([0, 1], [0, 0])) == 0


def test_core_points():
    assert core_points(fs([0, 50, 100], [0, 1, 1])) == [50, 100]
    assert core_points(fs([0, 50, 100], [0, 0.9, 0])) == []
    u = make_universe("t", 0, 100, 3)
    assert core_points(sample(Singleton(49), u)) == [50]


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
    knot = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(["tri", "trap", "gauss", "single"]))
    if kind == "tri":
        return Triangular(*sorted(draw(st.tuples(knot, knot, knot))))
    if kind == "trap":
        return Trapezoidal(*sorted(draw(st.tuples(knot, knot, knot, knot))))
    if kind == "gauss":
        return Gaussian(draw(knot), draw(st.floats(0.1, 100)))
    return Singleton(draw(knot))


@given(st.data())
@settings(max_examples=150)
def test_sampled_degrees_always_in_unit_interval(data):
    u = data.draw(grids())
    shape = data.draw(shapes(float(u.grid[0]) - 50, float(u.grid[-1]) + 50))
    mu = sample(shape, u).mu
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
    s = sample(Triangular(b - spread, b, b + spread), u)
    assert height(s) == 1.0
