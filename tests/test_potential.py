"""Potential surfaces: analytic gradients, symmetry, registry."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_exit import benchmark_potential, flat_potential
from chi_exit.potential import _benchmark_gradient, potential_by_name

coord = st.floats(min_value=0.05, max_value=0.95)


def _fd_gradient(pot, x, h=1e-6):
    g = np.zeros(2)
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        g[d] = (pot(x + e) - pot(x - e)) / (2 * h)
    return g


@settings(max_examples=50, deadline=None)
@given(coord, coord)
def test_gradient_matches_finite_differences(x1, x2):
    pot = benchmark_potential()
    x = np.array([x1, x2])
    np.testing.assert_allclose(pot.grad(x), _fd_gradient(pot, x),
                               rtol=1e-5, atol=1e-5)


@settings(max_examples=50, deadline=None)
@given(coord, coord)
def test_reflection_symmetry_in_x1(x1, x2):
    # V(x1, x2) = V(1 - x1, x2) exactly
    pot = benchmark_potential()
    a = pot(np.array([x1, x2]))
    b = pot(np.array([1.0 - x1, x2]))
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_batch_shapes():
    pot = benchmark_potential()
    pts = np.random.default_rng(0).uniform(0.1, 0.9, size=(7, 3, 2))
    assert pot(pts).shape == (7, 3)
    assert pot.grad(pts).shape == (7, 3, 2)


def test_batch_matches_pointwise():
    pot = benchmark_potential()
    pts = np.random.default_rng(1).uniform(0.1, 0.9, size=(20, 2))
    vals = pot(pts)
    grads = pot.grad(pts)
    for k in range(20):
        np.testing.assert_allclose(vals[k], pot(pts[k]), rtol=1e-14)
        np.testing.assert_allclose(grads[k], pot.grad(pts[k]), rtol=1e-14)


def _term_by_term_gradient(x):
    """Reference: the benchmark gradient written out term by term."""
    x1, x2 = x[..., 0], x[..., 1]
    a = 4.0 * x1 - 2.0
    b = 4.0 * x2 - 7.0 / 3.0
    c = 4.0 * x2 - 11.0 / 3.0
    d = 4.0 * x1 - 3.0
    e = 4.0 * x1 - 1.0
    f = 4.0 * x2 - 2.0
    g1 = np.exp(-a * a - b * b)
    g2 = np.exp(-a * a - c * c)
    g3 = np.exp(-d * d - f * f)
    g4 = np.exp(-e * e - f * f)
    dv1 = 4.0 * (
        3.0 * g1 * (-2.0 * a)
        - 3.0 * g2 * (-2.0 * a)
        - 5.0 * g3 * (-2.0 * d)
        - 5.0 * g4 * (-2.0 * e)
    ) + 3.2 * (a * a * a)
    dv2 = 4.0 * (
        3.0 * g1 * (-2.0 * b)
        - 3.0 * g2 * (-2.0 * c)
        - 5.0 * g3 * (-2.0 * f)
        - 5.0 * g4 * (-2.0 * f)
    ) + 3.2 * (b * b * b)
    return np.stack([dv1, dv2], axis=-1)


# The last two rows make the scaled coordinate b = 4 x2 - 7/3, and then
# c = 4 x2 - 11/3, exactly 0 (4 x2 gives back the offset exactly), where
# the sign of a zero term could tell a scaling of the terms from a scaling
# of their sum.
_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                     [0.5, 0.5], [0.25, 0.5], [0.75, 0.5], [0.5, 11 / 12],
                     [0.3, 7.0 / 3.0 / 4.0], [0.5, 11.0 / 3.0 / 4.0]])


@pytest.mark.parametrize("shape", [(2,), (1, 2), (8, 2), (6400, 2),
                                   (7, 3, 2), (3, 5, 4, 2)])
def test_gradient_bits_match_term_by_term_formula(shape):
    # the SDE kernel feeds endpoint bits into the chi streams, so the
    # gradient must not move a single ulp
    rng = np.random.default_rng(sum(shape))
    x = rng.uniform(-0.05, 1.05, size=shape)
    flat = x.reshape(-1, 2)
    flat[:min(len(flat), len(_CORNERS))] = _CORNERS[:len(flat)]
    if len(flat) >= len(_CORNERS):
        assert 4.0 * flat[8, 1] - 7.0 / 3.0 == 0.0
        assert 4.0 * flat[9, 1] - 11.0 / 3.0 == 0.0
    before = x.copy()
    got = _benchmark_gradient(x)
    np.testing.assert_array_equal(x, before)  # works in its own arrays
    want = _term_by_term_gradient(x)
    assert got.shape == want.shape == shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    if x.ndim > 1:
        # a reversed, strided view gives the same bits
        view = x[..., ::-1, :]
        np.testing.assert_array_equal(
            _benchmark_gradient(view).view(np.uint64),
            _term_by_term_gradient(view).view(np.uint64))


def test_domain_is_unit_box():
    pot = benchmark_potential()
    (lo1, lo2), (hi1, hi2) = pot.domain
    assert (lo1, lo2, hi1, hi2) == (0.0, 0.0, 1.0, 1.0)


def test_flat_potential_constant():
    pot = flat_potential(level=1.5)
    pts = np.random.default_rng(2).uniform(0, 1, size=(9, 2))
    np.testing.assert_array_equal(pot(pts), np.full(9, 1.5))
    np.testing.assert_array_equal(pot.grad(pts), np.zeros((9, 2)))


@pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
def test_flat_potential_level_must_be_finite(level):
    with pytest.raises(ValueError, match="level must be finite"):
        flat_potential(level)


@pytest.mark.parametrize("make", [lambda: flat_potential(2.5),
                                  benchmark_potential],
                         ids=["flat", "paper2d"])
def test_registered_surfaces_pickle(make):
    # worker processes receive the surface itself
    pot = make()
    back = pickle.loads(pickle.dumps(pot))
    pts = np.random.default_rng(4).uniform(0, 1, size=(7, 2))
    assert back.domain == pot.domain
    np.testing.assert_array_equal(back(pts), pot(pts))
    np.testing.assert_array_equal(back.grad(pts), pot.grad(pts))


def test_registry_lookup():
    # each config name gives its factory's surface
    pts = np.random.default_rng(5).uniform(0, 1, size=(7, 2))
    for name, make in (("paper2d", benchmark_potential),
                       ("flat", flat_potential)):
        pot, ref = potential_by_name(name), make()
        assert pot.domain == ref.domain
        np.testing.assert_array_equal(pot(pts), ref(pts))
        np.testing.assert_array_equal(pot.grad(pts), ref.grad(pts))
    with pytest.raises(ValueError):
        potential_by_name("unknown-surface")
