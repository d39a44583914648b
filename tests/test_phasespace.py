"""Tests for Wigner-function evaluation."""

import math
import re
import warnings

import numpy as np
import pytest

from duffspec.fock import ModelParams, fock_projector
from duffspec.lindblad import solve_steady_state_adaptive
from duffspec.phasespace import (
    WignerGrid,
    _wigner_values,
    local_maxima,
    wigner,
    wigner_integral,
    wigner_many,
    wigner_purity,
)

POINT_C = ModelParams(delta=-5.2, chi=1.0, epsilon=3.2, gamma=2.0)


def coherent_column(alpha, dim):
    n = np.arange(dim)
    fact = np.array([float(math.factorial(k)) for k in n])
    return np.exp(-abs(alpha) ** 2 / 2.0) * alpha**n / np.sqrt(fact)


def coherent_projector(alpha, dim):
    c = coherent_column(alpha, dim)
    return np.outer(c, c.conj())


@pytest.fixture(scope="module")
def point_c_grid():
    rho, _, _ = solve_steady_state_adaptive(POINT_C)
    return rho, wigner(rho, nx=101, ny=101)


def test_wigner_vacuum_gaussian():
    rho = fock_projector(0, 8)
    grid = wigner(rho, re_range=(-3.0, 3.0), im_range=(-3.0, 3.0), nx=61, ny=61)
    aa = grid.re_points[:, None] + 1j * grid.im_points[None, :]
    exact = (2.0 / np.pi) * np.exp(-2.0 * np.abs(aa) ** 2)
    assert np.max(np.abs(grid.values - exact)) < 1e-14


def test_wigner_one_photon_values():
    rho = fock_projector(1, 8)
    grid = wigner(rho, re_range=(-3.0, 3.0), im_range=(-3.0, 3.0), nx=61, ny=61)
    r2 = grid.re_points[:, None] ** 2 + grid.im_points[None, :] ** 2
    exact = (2.0 / np.pi) * np.exp(-2.0 * r2) * (4.0 * r2 - 1.0)
    assert np.max(np.abs(grid.values - exact)) < 1e-14
    # negative at the origin
    i0 = 30
    assert np.isclose(grid.values[i0, i0], -2.0 / np.pi, atol=1e-14)


def test_wigner_coherent_state_displaced_gaussian():
    alpha = 1.2 - 0.7j
    rho = coherent_projector(alpha, 24)
    grid = wigner(rho, re_range=(-4.0, 4.0), im_range=(-4.0, 4.0), nx=81, ny=81)
    aa = grid.re_points[:, None] + 1j * grid.im_points[None, :]
    exact = (2.0 / np.pi) * np.exp(-2.0 * np.abs(aa - alpha) ** 2)
    assert np.max(np.abs(grid.values - exact)) < 1e-9


def test_wigner_linearity():
    rho_a = coherent_projector(1.0, 20)
    rho_b = fock_projector(1, 20)
    mix = 0.3 * rho_a + 0.7 * rho_b
    kw = dict(re_range=(-4.0, 4.0), im_range=(-4.0, 4.0), nx=41, ny=41)
    ga, gb, gm = wigner_many([rho_a, rho_b, mix], **kw)
    assert np.max(np.abs(gm.values - 0.3 * ga.values - 0.7 * gb.values)) < 1e-14


def test_wigner_many_matches_single_calls():
    rho_a = coherent_projector(0.5, 12)
    rho_b = fock_projector(2, 12)
    pair = wigner_many([rho_a, rho_b], nx=31, ny=31)
    assert np.array_equal(pair[0].values, wigner(rho_a, nx=31, ny=31).values)
    assert np.array_equal(pair[1].values, wigner(rho_b, nx=31, ny=31).values)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_wigner_many_rejects_a_non_finite_state(bad):
    # a NaN state passed the Hermitian check and gave an all-NaN grid
    rho = fock_projector(0, 4)
    rho[1, 1] = bad
    with pytest.raises(ValueError, match="state must be finite"):
        wigner_many([fock_projector(1, 4), rho], nx=5, ny=5)


@pytest.mark.parametrize(
    "nx, ny, name, shown",
    [(5.0, 5, "nx", "5.0"), (5, True, "ny", "True"), (np.float64(5.0), 5, "nx", "np.float64(5.0)")],
)
def test_wigner_grid_sizes_must_be_integers(nx, ny, name, shown):
    # a float size raised numpy's bare TypeError; True failed the size check
    message = re.escape(f"{name} must be an integer, got {name}={shown}")
    with pytest.raises(ValueError, match=message):
        wigner_many([fock_projector(0, 4)], nx=nx, ny=ny)
    with pytest.raises(ValueError, match=message):
        wigner(fock_projector(0, 4), nx=nx, ny=ny)


def test_wigner_grid_sizes_take_numpy_integers_and_need_two_points():
    want = wigner(fock_projector(0, 4), nx=5, ny=5)
    got = wigner(fock_projector(0, 4), nx=np.int64(5), ny=np.int32(5))
    assert got.values.tobytes() == want.values.tobytes()
    for nx, ny in ((1, 5), (5, np.int64(1)), (0, 0)):
        with pytest.raises(ValueError, match="grid needs at least 2 points per axis"):
            wigner(fock_projector(0, 4), nx=nx, ny=ny)


def test_wigner_grid_metadata():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # narrow im window clips the tail; fine here
        grid = wigner(fock_projector(0, 4), re_range=(-2.0, 2.0), im_range=(-1.0, 1.0), nx=41, ny=21)
    assert grid.values.shape == (41, 21)
    assert grid.re_points[0] == -2.0 and grid.re_points[-1] == 2.0
    assert grid.im_points[0] == -1.0 and grid.im_points[-1] == 1.0
    assert np.isclose(grid.cell_area, 0.1 * 0.1)


def test_wigner_integral_and_purity_vacuum():
    grid = wigner(fock_projector(0, 6), nx=101, ny=101)
    assert np.isclose(wigner_integral(grid), 1.0, atol=1e-8)
    assert np.isclose(wigner_purity(grid), 1.0, atol=1e-8)


def test_wigner_point_c_normalization_purity_lobes(point_c_grid):
    rho, grid = point_c_grid
    assert np.isclose(wigner_integral(grid), 1.0, atol=1e-6)
    assert np.isclose(wigner_purity(grid), np.trace(rho @ rho).real, atol=1e-6)
    assert len(local_maxima(grid)) == 2


def test_wigner_origin_parity_identity(point_c_grid):
    # W(0) = (2/pi) sum_n (-1)^n rho_nn
    rho, _ = point_c_grid
    signs = (-1.0) ** np.arange(rho.shape[0])
    expected = (2.0 / np.pi) * float(np.sum(signs * np.diag(rho).real))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny window clips the state; fine here
        grid = wigner(rho, re_range=(-1.0, 1.0), im_range=(-1.0, 1.0), nx=3, ny=3)
    assert np.isclose(grid.values[1, 1], expected, atol=1e-12)


def test_local_maxima_two_lobe_synthetic():
    rho = 0.5 * (coherent_projector(1.8, 24) + coherent_projector(-1.8, 24))
    grid = wigner(rho, nx=81, ny=81)
    peaks = sorted(local_maxima(grid))
    assert len(peaks) == 2
    assert np.isclose(peaks[0][0], -1.8, atol=0.1)
    assert np.isclose(peaks[1][0], 1.8, atol=0.1)


def _local_maxima_loop(grid, rel_threshold=0.05):
    # the cell-by-cell scan local_maxima replaced, kept as its oracle
    v = grid.values
    cutoff = rel_threshold * np.max(v)
    xs = grid.re_points
    ys = grid.im_points
    found = []
    for i in range(1, grid.nx - 1):
        for j in range(1, grid.ny - 1):
            c = v[i, j]
            if c <= cutoff:
                continue
            patch = v[i - 1 : i + 2, j - 1 : j + 2]
            if c == patch.max() and np.count_nonzero(patch == c) == 1:
                found.append((float(xs[i]), float(ys[j]), float(c)))
    return found


def test_local_maxima_matches_loop_oracle(point_c_grid):
    rng = np.random.default_rng(7)
    # small integers: plateaus and ties between neighbors everywhere
    plateaus = rng.integers(0, 4, size=(60, 50)).astype(float)
    with_nan = rng.standard_normal((30, 40))
    with_nan[11, 17] = np.nan
    grids = [
        WignerGrid((-3.0, 3.0), (-2.0, 2.0), 60, 50, plateaus),
        WignerGrid((-1.0, 1.0), (-1.0, 1.0), 30, 40, with_nan),
        wigner(point_c_grid[0]),
    ]
    for grid in grids:
        expected = _local_maxima_loop(grid)
        if np.isnan(grid.values).any():
            # the loop's cutoff is NaN there; local_maxima takes it from the finite cells
            cutoff = 0.05 * np.nanmax(grid.values)
            fixed = [m for m in expected if m[2] > cutoff]
            assert len(fixed) < len(expected)
            expected = fixed
        assert expected
        assert local_maxima(grid) == expected


def test_wigner_rejects_non_hermitian():
    rho = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        wigner(rho)


def test_wigner_warns_when_grid_clips_state():
    rho = coherent_projector(2.5, 36)
    with pytest.warns(RuntimeWarning):
        wigner(rho, re_range=(-1.0, 1.0), im_range=(-1.0, 1.0), nx=21, ny=21)


def test_wigner_far_tail_stays_tiny():
    # cancellation-prone corner: far outside the occupied disc the value
    # must underflow smoothly instead of blowing up
    rho = fock_projector(3, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clipped-grid warning is expected here
        grid = wigner(rho, re_range=(6.0, 8.0), im_range=(6.0, 8.0), nx=11, ny=11)
    assert np.max(np.abs(grid.values)) < 1e-20


def _wigner_per_point(rho, re_range, im_range, nx, ny, real_t):
    # the per-point evaluation the radial sums replaced, kept as their
    # oracle: every (m, d) pass runs over the whole grid
    dim = rho.shape[0]
    cplx_t = np.clongdouble if real_t is np.longdouble else np.complex128
    xs = np.linspace(re_range[0], re_range[1], nx)
    ys = np.linspace(im_range[0], im_range[1], ny)
    beta = (2.0 * (xs[:, None] + 1j * ys[None, :])).astype(cplx_t)
    y = (beta.real.astype(real_t)) ** 2 + (beta.imag.astype(real_t)) ** 2
    acc = np.zeros(beta.shape, dtype=real_t)
    l_prev = np.zeros_like(y)
    l_cur = np.ones_like(y)
    for m in range(dim):
        if m >= 1:
            l_next = ((2 * m - 1 - y) * l_cur - (m - 1) * l_prev) / m
            l_prev, l_cur = l_cur, l_next
        acc += ((-1.0 if m % 2 else 1.0) * rho[m, m].real) * l_cur
    g0 = np.ones(beta.shape, dtype=cplx_t)
    for d in range(1, dim):
        g0 = g0 * beta / np.sqrt(real_t(d))
        g = g0
        l_prev = np.zeros_like(y)
        l_cur = np.ones_like(y)
        for m in range(dim - d):
            if m >= 1:
                l_next = ((2 * m + d - 1 - y) * l_cur - (m + d - 1) * l_prev) / m
                l_prev, l_cur = l_cur, l_next
                g = g * np.sqrt(real_t(m) / real_t(m + d))
            r = rho[m + d, m]
            acc += (-2.0 if m % 2 else 2.0) * (r.real * g.real + r.imag * g.imag) * l_cur
    return (acc * (2.0 / np.pi) * np.exp(-0.5 * y)).astype(float)


@pytest.mark.parametrize(
    "re_range, im_range, nx, ny",
    [
        ((-5.0, 5.0), (-5.0, 5.0), 201, 201),  # the README grid
        ((-3.0, 6.0), (-4.0, 2.0), 201, 151),  # fewer repeated radii
    ],
)
def test_wigner_matches_per_point_oracle(point_c_grid, re_range, im_range, nx, ny):
    rho, _ = point_c_grid
    expected = _wigner_per_point(rho, re_range, im_range, nx, ny, np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the asymmetric grid clips the tail; fine here
        got = wigner(rho, re_range, im_range, nx, ny)
    assert got.values.shape == (nx, ny)
    assert np.max(np.abs(got.values - expected)) <= 1e-14


def test_wigner_one_point_values_equal_a_many_point_call(point_c_grid):
    # numpy forms a complex product on a one-element array without the
    # fused multiply-add when the output is an operand; the Horner step
    # must not depend on how many points share the call
    rho, _ = point_c_grid
    rng = np.random.default_rng(1)
    betas = 2.0 * (rng.uniform(-5.0, 5.0, 200) + 1j * rng.uniform(-5.0, 5.0, 200))
    (many,) = _wigner_values([rho], betas)
    for beta, value in zip(betas, many):
        (one,) = _wigner_values([rho], np.array([beta]))
        assert one.tobytes() == np.array([value]).tobytes()
