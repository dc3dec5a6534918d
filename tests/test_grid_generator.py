"""Grid mapping and square-root generator structure."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from chi_exit import (
    PotentialSurface,
    RegularGrid,
    benchmark_potential,
    build_sqrt_generator,
    flat_potential,
)
from chi_exit.grid_generator import GeneratorMatrix


def test_centers_round_trip(grid50):
    cells = grid50.cells_of(grid50.centers)
    np.testing.assert_array_equal(cells, np.arange(grid50.n))
    # any leading shape is kept
    cells = grid50.cells_of(grid50.centers[:6].reshape(2, 3, 2))
    assert cells.dtype == np.int64
    np.testing.assert_array_equal(cells, [[0, 1, 2], [3, 4, 5]])


def test_cell_layout_row_major(grid50):
    # k = i * ny + j with i the x1 index
    assert grid50.cells_of([0.011, 0.031]) == 1
    assert grid50.cells_of([0.031, 0.011]) == 50


def test_upper_boundary_maps_to_last_cell(grid50):
    assert grid50.cells_of([1.0, 1.0]) == grid50.n - 1
    assert grid50.cells_of([1.0, 0.0]) == grid50.n - 50


@pytest.mark.parametrize("bad", [
    [1.2, 0.5], [-0.1, 0.5], [0.5, 1.0001], [0.5, -0.2],
    [np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5],
], ids=["x1-high", "x1-low", "x2-high", "x2-low", "x1-nan", "x2-nan",
        "x1-inf"])
def test_off_grid_position_raises(grid50, bad):
    # NaN fails every comparison, so it must not pass as a cell either
    pts = np.array([[0.5, 0.5], bad])
    with pytest.raises(ValueError, match="off the grid"):
        grid50.cells_of(pts)
    with pytest.raises(ValueError, match="off the grid"):
        grid50.cells_of(bad)


@pytest.mark.parametrize("bad", [[[0.1, 0.2, 0.9]], [0.1, 0.2, 0.3, 0.4],
                                 0.5, [[0.5], [0.5]]],
                         ids=["m-by-3", "flat-4", "scalar", "m-by-1"])
def test_position_of_another_shape_raises(grid50, bad):
    # a third coordinate must not be dropped, nor a flat list read in pairs
    with pytest.raises(ValueError, match=r"shape \(\.\.\., 2\), not \("):
        grid50.cells_of(bad)


def test_row_sums_vanish(gen50):
    ones = np.ones(gen50.n)
    assert np.max(np.abs(gen50.rates @ ones)) < 1e-10


def test_detailed_balance(gen50):
    flux = gen50.rates.multiply(gen50.weights[:, None])
    residual = (flux - flux.T).tocoo()
    if residual.nnz:
        assert np.max(np.abs(residual.data)) < 1e-12


def test_symmetrized_is_symmetric(gen_small):
    sym = gen_small.symmetrized().toarray()
    assert np.max(np.abs(sym - sym.T)) < 1e-12


def test_offdiagonal_sign_and_sparsity(gen50):
    mat = gen50.rates.tocoo()
    off = mat.data[mat.row != mat.col]
    assert np.all(off < 0)
    # 4-neighbor stencil on a 50x50 grid
    assert mat.nnz == gen50.n + 2 * (49 * 50 + 50 * 49)


def test_weights_are_boltzmann(gen50, bench):
    w = gen50.weights
    assert np.all(w > 0)
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-12)
    v = bench(gen50.grid.centers)
    ratio = np.log(w) + v
    assert np.max(ratio) - np.min(ratio) < 1e-10


def test_spectrum_nonnegative(gen_small):
    vals = np.linalg.eigvalsh(gen_small.symmetrized().toarray())
    assert vals[0] > -1e-10


def test_kernel_is_constant(gen_small):
    sym = gen_small.symmetrized().toarray()
    vals, vecs = np.linalg.eigh(sym)
    kernel = vecs[:, 0] / np.sqrt(gen_small.weights)
    kernel /= kernel[0]
    np.testing.assert_allclose(kernel, np.ones(gen_small.n), rtol=0,
                               atol=1e-8)
    assert abs(vals[0]) < 1e-12


def test_two_cell_chain_eigenvalues():
    pot = flat_potential()
    grid = RegularGrid(2, 1, pot.domain)
    gen = build_sqrt_generator(pot, grid, 1.0)
    vals = np.linalg.eigvalsh(gen.symmetrized().toarray())
    np.testing.assert_allclose(vals, [0.0, 2.0], rtol=0, atol=1e-12)


def test_single_cell_rejected():
    pot = flat_potential()
    grid = RegularGrid(1, 1, pot.domain)
    with pytest.raises(ValueError):
        build_sqrt_generator(pot, grid, 1.0)


@pytest.mark.parametrize("nx,ny", [(2.5, 2), (2, 3.0), (True, 3),
                                   (3, np.bool_(True))],
                         ids=["float-nx", "float-ny", "bool-nx", "numpy-bool-ny"])
def test_grid_counts_must_be_integers(nx, ny):
    # 2.5 gave n == 5.0 beside three centers along x1, and True one cell
    with pytest.raises(ValueError, match="grid cell counts must be integers"):
        RegularGrid(nx, ny)
    assert RegularGrid(np.int64(3), np.int32(2)).centers.shape == (6, 2)


@pytest.mark.parametrize("domain", [((0.0, 0.0), (0.0, 1.0)),
                                    ((0.0, 1.0), (1.0, 0.5)),
                                    ((0.0, 0.0), (1.0, float("nan")))],
                         ids=["flat-x1", "inverted-x2", "nan-x2"])
def test_grid_domain_must_have_extent(domain):
    with pytest.raises(ValueError, match="degenerate grid domain"):
        RegularGrid(2, 2, domain)


@pytest.mark.parametrize("kbt", [np.nan, np.inf])
def test_kbt_must_be_finite(kbt):
    # NaN failed later as a potential not finite; inf gave uniform weights
    pot = benchmark_potential()
    with pytest.raises(ValueError, match="kbt must be positive"):
        build_sqrt_generator(pot, RegularGrid(4, 4, pot.domain), kbt)


def test_potential_not_finite_on_a_cell_rejected(bench):
    holed = PotentialSurface(
        evaluator=lambda x: np.where(x[..., 0] > 0.9, np.nan,
                                     bench.evaluator(x)),
        gradient=bench.gradient,
        domain=bench.domain,
    )
    with pytest.raises(ValueError, match="potential is not finite on all "
                       "grid cells"):
        build_sqrt_generator(holed, RegularGrid(10, 10, holed.domain), 1.0)


def test_huge_potential_range_rejected(bench):
    steep = PotentialSurface(
        evaluator=lambda x: 400.0 * bench.evaluator(x),
        gradient=lambda x: 400.0 * bench.gradient(x),
        domain=bench.domain,
    )
    grid = RegularGrid(20, 20, steep.domain)
    with pytest.raises(ValueError):
        build_sqrt_generator(steep, grid, 1.0)


def _quadratic(a1, a2, c1, c2):
    def _energy(x):
        x = np.asarray(x, dtype=float)
        return a1 * (x[..., 0] - c1) ** 2 + a2 * (x[..., 1] - c2) ** 2

    def _gradient(x):
        x = np.asarray(x, dtype=float)
        g = np.empty_like(x)
        g[..., 0] = 2 * a1 * (x[..., 0] - c1)
        g[..., 1] = 2 * a2 * (x[..., 1] - c2)
        return g

    return PotentialSurface(evaluator=_energy, gradient=_gradient,
                            domain=((0.0, 0.0), (1.0, 1.0)))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.1, max_value=8.0),
    st.floats(min_value=0.1, max_value=8.0),
    st.floats(min_value=0.2, max_value=0.8),
    st.floats(min_value=0.2, max_value=0.8),
    st.floats(min_value=0.25, max_value=4.0),
)
def test_generator_properties_random(nx, ny, a1, a2, c1, c2, kbt):
    if nx * ny < 2:
        ny = 2
    pot = _quadratic(a1, a2, c1, c2)
    grid = RegularGrid(nx, ny, pot.domain)
    gen = build_sqrt_generator(pot, grid, kbt)
    ones = np.ones(gen.n)
    assert np.max(np.abs(gen.rates @ ones)) < 1e-10
    flux = gen.rates.multiply(gen.weights[:, None])
    residual = (flux - flux.T).tocoo()
    if residual.nnz:
        assert np.max(np.abs(residual.data)) < 1e-12
    vals = np.linalg.eigvalsh(gen.symmetrized().toarray())
    assert vals[0] > -1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=12), st.data())
def test_components_match_csgraph(nx, ny, data):
    grid = RegularGrid(nx, ny)
    if grid.n == 1:
        # build_sqrt_generator needs two cells; one cell has no rate
        gen = GeneratorMatrix(rates=sp.csr_matrix((1, 1)),
                              weights=np.ones(1), grid=grid)
    else:
        gen = build_sqrt_generator(flat_potential(), grid, 1.0)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=grid.n,
                                       max_size=grid.n)), dtype=bool)
    count, labels = connected_components(gen.rates[mask][:, mask] != 0,
                                         directed=False)
    got = gen.components(mask)
    np.testing.assert_array_equal(got, labels)
    assert np.unique(got).size == count


def test_components_join_one_way_rates():
    # rates 0 -> 2 and 3 -> 1 only, plus a stored zero at (1, 2) that is
    # no edge: the undirected components are {0, 2} and {1, 3}
    rates = sp.csr_matrix((np.array([1.0, -1.0, 0.0, -2.0, 2.0]),
                           np.array([0, 2, 2, 1, 3]),
                           np.array([0, 2, 3, 3, 5])), shape=(4, 4))
    gen = GeneratorMatrix(rates=rates, weights=np.full(4, 0.25),
                          grid=RegularGrid(4, 1))
    np.testing.assert_array_equal(gen.components(np.ones(4, dtype=bool)),
                                  [0, 1, 0, 1])
    np.testing.assert_array_equal(gen.components([1, 2, 3]), [0, 1, 0])
    for cells in ([0, 1, 2, 3], [1, 2, 3]):
        mask = gen.cell_mask(cells)
        count, labels = connected_components(rates[mask][:, mask] != 0,
                                             directed=False)
        np.testing.assert_array_equal(gen.components(cells), labels)


def _loop_rates(potential, grid, kbt):
    """Reference: the square-root rates built cell by cell with Python loops."""
    v = potential(grid.centers) / kbt
    w = np.exp(-(v - v.min()))
    nx, ny, n = grid.nx, grid.ny, grid.n
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            k = i * ny + j
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= a < nx and 0 <= b < ny:
                    m = a * ny + b
                    rows.append(k)
                    cols.append(m)
                    vals.append(-np.sqrt(w[m] / w[k]))
    off = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    diag = -np.asarray(off.sum(axis=1)).ravel()
    rates = (off + sp.diags(diag)).tocsr()
    rates.sort_indices()
    return rates


def _loop_jump_tables(rates):
    """Reference: the jump-process tables filled one cell at a time."""
    off = rates.tolil(copy=True)
    off.setdiag(0.0)
    off = off.tocsr()
    rate_out = np.asarray(-off.sum(axis=1)).ravel()
    n = rates.shape[0]
    neighbors = np.zeros((n, 4), dtype=np.int64)
    cum = np.ones((n, 4))
    for i in range(n):
        lo, hi = off.indptr[i], off.indptr[i + 1]
        js = off.indices[lo:hi]
        rs = -off.data[lo:hi]
        neighbors[i, : len(js)] = js
        neighbors[i, len(js):] = js[-1]
        cum[i, : len(js)] = np.cumsum(rs) / rs.sum()
    return rate_out, neighbors, cum


def _assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint8),
                                  expected.view(np.uint8))


@pytest.mark.parametrize("nx, ny", [(50, 50), (7, 4), (2, 1), (1, 3)])
def test_vectorized_builders_match_loops(bench, nx, ny):
    # the vectorized generator and jump tables must equal the loops bit for
    # bit: both feed seeded Monte Carlo and byte-compared outputs
    grid = RegularGrid(nx, ny, bench.domain)
    gen = build_sqrt_generator(bench, grid, 0.7)
    ref = _loop_rates(bench, grid, 0.7)
    for attr in ("indptr", "indices", "data"):
        _assert_bits_equal(getattr(gen.rates, attr), getattr(ref, attr))
    for table, expected in zip(gen.jump_tables, _loop_jump_tables(ref)):
        _assert_bits_equal(table, expected)
