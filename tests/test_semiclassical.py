"""Tests for the classical (mean-field) branch structure."""

import itertools
import math
import re

import numpy as np
import pytest

from duffspec.fock import ModelParams
from duffspec.semiclassical import (
    bifurcation_boundary,
    classical_steady_states,
)
from seeded_cells import seeded_draw


def cubic_positive_roots(params):
    """Reference root finder: positive real roots of the photon-number cubic."""
    d, x, e, g = params.delta, params.chi, params.epsilon, params.gamma
    coeffs = [4 * x * x, 4 * x * d, d * d + g * g / 4.0, -e * e]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-9 * np.max(np.abs(roots))].real
    return np.sort(real[real > 0])


def test_roots_match_numpy_seeded():
    rng = np.random.default_rng(11)
    for _ in range(25):
        params = ModelParams(
            delta=float(rng.uniform(-6.0, 1.0)),
            chi=1.0,
            epsilon=float(rng.uniform(0.05, 4.0)),
            gamma=float(rng.uniform(0.05, 2.0)),
        )
        branches = classical_steady_states(params)
        expected = cubic_positive_roots(params)
        got = np.array(branches.photon_numbers)
        assert got.size == expected.size
        assert np.allclose(got, expected, rtol=1e-9)
        assert np.all(np.diff(got) > 0)
        # each amplitude solves the stationary condition
        for a in branches.amplitudes:
            n = abs(a) ** 2
            resid = abs(complex(params.delta + 2 * params.chi * n, -params.gamma / 2) * a + params.epsilon)
            assert resid < 1e-10 * max(1.0, params.epsilon)


def test_nearly_coincident_roots_pass_residual_check():
    # the two upper roots are 0.32 apart at n ~ 28.5, close to a fold; in
    # double the polished roots failed the amplitude check (1.4e-10)
    import mpmath

    params = ModelParams(delta=-10.0, chi=0.175, epsilon=0.3021, gamma=0.02)
    branches = classical_steady_states(params)
    with mpmath.workdps(50):
        d, x, e, g = (mpmath.mpf(v) for v in (-10.0, 0.175, 0.3021, 0.02))
        roots = mpmath.polyroots([4 * x * x, 4 * x * d, d * d + g * g / 4, -e * e], extraprec=100)
        exact = sorted(float(r.real) for r in roots)
    assert branches.stable == (True, False, True)
    assert np.allclose(branches.photon_numbers, exact, rtol=1e-12, atol=0.0)


def test_branch_count_across_fold_window():
    chi, gamma, delta = 1.0, 0.2, -1.0
    bnd = bifurcation_boundary(chi, gamma, [delta])
    lo, hi = bnd.eps_lower[0], bnd.eps_upper[0]
    assert 0 < lo < hi

    def count(eps):
        return len(classical_steady_states(ModelParams(delta, chi, eps, gamma)).amplitudes)

    assert count(0.5 * lo) == 1
    assert count(0.5 * (lo + hi)) == 3
    assert count(2.0 * hi) == 1


def test_triple_branch_stability_flags():
    params = ModelParams(delta=-1.0, chi=1.0, epsilon=0.17, gamma=0.2)
    branches = classical_steady_states(params)
    assert branches.stable == (True, False, True)
    single = classical_steady_states(ModelParams(-1.0, 1.0, 0.01, 0.2))
    assert single.stable == (True,)


def test_linear_limit_chi_zero():
    params = ModelParams(delta=-0.8, chi=0.0, epsilon=0.3, gamma=0.15)
    branches = classical_steady_states(params)
    assert len(branches.amplitudes) == 1
    expected = -params.epsilon / complex(params.delta, -params.gamma / 2)
    assert np.isclose(branches.amplitudes[0], expected, atol=1e-14)


def test_undriven_branch_is_origin():
    branches = classical_steady_states(ModelParams(-1.0, 1.0, 0.0, 0.3))
    assert branches.amplitudes == (0.0 + 0.0j,)
    assert branches.photon_numbers == (0.0,)
    assert branches.stable == (True,)


def test_zero_damping_rejected():
    with pytest.raises(ValueError):
        classical_steady_states(ModelParams(-1.0, 1.0, 0.5, 0.0))


def test_boundary_starts_at_cusp_detuning():
    # the fold lines meet at delta* = -(sqrt(3)/2) gamma
    chi, gamma = 1.0, 0.6
    delta_star = -0.5 * np.sqrt(3.0) * gamma
    # no bistable window on the shallow side of the cusp
    assert bifurcation_boundary(chi, gamma, [delta_star * 0.9]).deltas.size == 0
    assert bifurcation_boundary(chi, gamma, [delta_star * 1.5]).deltas.size == 1


def test_boundary_traces_root_count_changes():
    chi, gamma = 1.0, 0.1
    deltas = np.linspace(-3.0, 0.0, 61)
    bnd = bifurcation_boundary(chi, gamma, deltas)
    assert bnd.deltas.size > 0
    assert np.all(bnd.deltas < -0.5 * np.sqrt(3.0) * gamma + 1e-12)
    assert np.all(bnd.eps_lower < bnd.eps_upper)
    # window widens with detuning depth
    widths = bnd.eps_upper - bnd.eps_lower
    order = np.argsort(bnd.deltas)
    assert np.all(np.diff(widths[order]) < 0)
    # crossing either line changes the branch count
    i = order[0]
    d = float(bnd.deltas[i])
    inside = classical_steady_states(ModelParams(d, chi, 0.5 * (bnd.eps_lower[i] + bnd.eps_upper[i]), gamma))
    below = classical_steady_states(ModelParams(d, chi, 0.9 * bnd.eps_lower[i], gamma))
    above = classical_steady_states(ModelParams(d, chi, 1.1 * bnd.eps_upper[i], gamma))
    assert (len(below.amplitudes), len(inside.amplitudes), len(above.amplitudes)) == (1, 3, 1)


def test_boundary_validation():
    with pytest.raises(ValueError):
        bifurcation_boundary(0.0, 0.1, [-1.0])


@pytest.mark.parametrize(
    "chi, gamma, match",
    [
        # a bool chi or gamma was read as 1, and a complex one raised a
        # bare TypeError from math.isfinite
        (True, 1.0, "chi=True"),
        (1.0, True, "gamma=True"),
        (np.True_, 1.0, re.escape("chi=np.True_")),
        (1 + 0j, 1.0, re.escape("chi=(1+0j)")),
        (1.0, 0.5j, re.escape("gamma=0.5j")),
    ],
)
def test_boundary_rejects_bool_and_complex_rates(chi, gamma, match):
    with pytest.raises(ValueError, match=match):
        bifurcation_boundary(chi, gamma, [-5.0])


@pytest.mark.parametrize("deltas", [np.array([-5.0 + 0j]), [-5.0 + 0.5j]])
def test_boundary_rejects_complex_detunings(deltas):
    # numpy's cast to float dropped the imaginary part after a ComplexWarning
    with pytest.raises(ValueError, match="^deltas must be real, got deltas="):
        bifurcation_boundary(1.0, 0.1, deltas)


@pytest.mark.parametrize(
    "chi, gamma, deltas",
    [
        (math.nan, 1.0, [-5.0]),
        (math.inf, 1.0, [-5.0]),
        (1.0, math.nan, [-5.0]),
        (1.0, math.inf, [-5.0]),
        (1.0, 1.0, [-5.0, math.nan]),
        (1.0, 1.0, [-math.inf]),
    ],
)
def test_boundary_rejects_non_finite_arguments(chi, gamma, deltas):
    # a NaN chi or gamma passed the chi <= 0 or gamma <= 0 check and gave NaN folds
    with pytest.raises(ValueError, match="finite"):
        bifurcation_boundary(chi, gamma, deltas)


# The scalar cubic and branch construction that classical_steady_states ran
# one cell at a time before the batched kernel, kept verbatim as the oracle
# of the batched kernel's bits.
def _oracle_cubic_real_roots(a3, a2, a1, a0):
    b = a2 / a3
    c = a1 / a3
    d = a0 / a3
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = -4.0 * p ** 3 - 27.0 * q * q
    if disc > 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m))))
        roots = [shift + m * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3)]
    else:
        half_q = -q / 2.0
        root_term = math.sqrt(max(0.0, q * q / 4.0 + p ** 3 / 27.0))
        u = math.copysign(abs(half_q + root_term) ** (1.0 / 3.0), half_q + root_term)
        v = 0.0 if u == 0.0 else -p / (3.0 * u)
        roots = [shift + u + v]
        if disc == 0.0 and p != 0.0:
            roots.append(shift - (u + v) / 2.0)

    def poly(x):
        return ((a3 * x + a2) * x + a1) * x + a0

    def dpoly(x):
        return (3.0 * a3 * x + 2.0 * a2) * x + a1

    polished = []
    for x in roots:
        x = np.longdouble(x)
        for _ in range(3):
            slope = dpoly(x)
            if slope == 0.0:
                break
            x -= poly(x) / slope
        polished.append(float(x))
    return polished


def oracle_branches(d, x, e, g, residual_tol=1e-10):
    """(amplitudes, photon numbers, stable) of one cell, or (exception type, message)."""
    try:
        if g <= 0:
            raise ValueError("classical steady states require gamma > 0")
        if e == 0.0:
            return (0.0 + 0.0j,), (0.0,), (True,)
        if x == 0.0:
            ns = [e * e / (d * d + g * g / 4.0)]
        else:
            dl, xl, el, gl = (np.longdouble(v) for v in (d, x, e, g))
            ns = _oracle_cubic_real_roots(4 * xl * xl, 4 * xl * dl, dl * dl + gl * gl / 4, -el * el)
        scale = max(abs(n) for n in ns)
        ns = sorted(max(n, 0.0) for n in ns)
        if len(ns) == 2:
            ns = [ns[0]] if abs(ns[0] - ns[1]) < 1e-9 * max(1.0, scale) else ns
        amps = []
        for n in ns:
            alpha = -e / complex(d + 2.0 * x * n, -0.5 * g)
            residual = abs(complex(d + 2.0 * x * abs(alpha) ** 2, -0.5 * g) * alpha + e)
            if residual > residual_tol * max(1.0, e):
                raise RuntimeError(f"classical root failed residual check: {residual:.3e}")
            amps.append(alpha)
        if not amps:
            raise ValueError("expected 1-3 branches, got 0")
        stable = (True, False, True) if len(amps) == 3 else tuple(True for _ in amps)
        return tuple(amps), tuple(abs(a) ** 2 for a in amps), stable
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def oracle_start_dim(d, x, e, g):
    out = oracle_branches(d, x, e, g)
    if isinstance(out[0], type):
        return out
    return max(10, math.ceil(4.0 * (max(out[1]) + 1.0)))


def _grid(deltas, epsilons, gamma, chi):
    return [(float(d), chi, float(e), gamma) for d in np.linspace(*deltas) for e in np.linspace(*epsilons)]


# zero drive, no Kerr term, no damping, a drive so weak that its one
# branch holds 4e-10 photons, and cells on and next to a fold line
_EDGE_CELLS = [
    (-1.0, 1.0, 0.0, 0.3),
    (0.7, 0.0, 1.2, 0.4),
    (-1.0, 1.0, 0.5, 0.0),
    (0.0, 1.0, 1e-5, 1.0),
    (-10.0, 0.175, 0.3021, 0.02),
    *[(float(d), 1.0, float(e), 0.5) for d, e in itertools.product((-3.0, -2.0), (0.9, 1.1, 1.5, 2.0))],
]

START_DIM_GRIDS = {
    "readme": _grid((-8.0, -2.0, 61), (0.5, 4.0, 8), 2.0, 1.0),
    "cli-default": _grid((-10.0, 2.0, 241), (0.05, 5.0, 100), 2.0, 1.0),
    "hard-regime": _grid((-2.5, -1.5, 7), (0.5, 1.5, 3), 0.1, 0.05),
    "seeded-draw": seeded_draw(),
    "edge-cells": _EDGE_CELLS,
}


def _batched(cells):
    from duffspec.semiclassical import _classical_branches

    alpha, n2, errors = _classical_branches(*np.array(cells, dtype=float).reshape(-1, 4).T)
    out = []
    for i in range(len(cells)):
        if i in errors:
            out.append((type(errors[i]), str(errors[i])))
            continue
        k = np.count_nonzero(~np.isnan(n2[i]))
        amps = tuple(complex(a) for a in alpha[i, :k])
        out.append((amps, tuple(float(n) for n in n2[i, :k]), (True, False, True) if k == 3 else (True,) * k))
    return out


@pytest.mark.parametrize("grid", list(START_DIM_GRIDS))
def test_batched_start_dims_equal_the_scalar_cubic(grid):
    # every branch, photon number and start dim, bit for bit (repr of the
    # Python floats and complexes), and every failure with its message
    from duffspec.lindblad import _param_table, _start_dims

    cells = START_DIM_GRIDS[grid]
    expected = [oracle_branches(*c) for c in cells]
    assert repr(_batched(cells)) == repr(expected)
    starts, errors = _start_dims(np.array(cells, dtype=float).reshape(-1, 4))
    got = [(type(errors[i]), str(errors[i])) if i in errors else int(starts[i]) for i in range(len(cells))]
    assert got == [oracle_start_dim(*c) for c in cells]
    # the one-cell entry points, on a share of the cells
    for c, want, start in list(zip(cells, expected, got))[:: max(1, len(cells) // 300)]:
        params = ModelParams(*c)
        if isinstance(want[0], type):
            with pytest.raises(want[0]) as raised:
                classical_steady_states(params)
            assert str(raised.value) == want[1]
        else:
            branches = classical_steady_states(params)
            assert repr((branches.amplitudes, branches.photon_numbers, branches.stable)) == repr(want)
            assert _start_dims(_param_table(*c))[0][0] == start


def test_batched_residual_check_fails_as_the_scalar_one(monkeypatch):
    # with an unreachable tolerance every driven cell fails on its first
    # root, with that root's residual in the message
    import duffspec.semiclassical as semiclassical

    monkeypatch.setattr(semiclassical, "_RESIDUAL_TOL", 1e-30)
    cells = START_DIM_GRIDS["readme"][::7] + START_DIM_GRIDS["hard-regime"] + _EDGE_CELLS
    expected = [oracle_branches(*c, residual_tol=1e-30) for c in cells]
    assert sum(e[0] is RuntimeError for e in expected) > 80
    assert _batched(cells) == expected


def test_start_dim_cubic_keeps_the_scalar_double_and_zero_roots():
    # (x - 1)^2 (x + 2) has discriminant exactly 0 (a double root), x^3 and
    # x^3 - 8 take the u = 0 and u != 0 sides of the one-root formula; on
    # these and on seeded cubics the batched kernel gives the scalar roots
    # bit for bit
    from duffspec.semiclassical import _cubic_real_roots

    rng = np.random.default_rng(7)
    coeffs = [(1.0, 0.0, -3.0, 2.0), (1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, -8.0), (2.0, -3.0, 0.0, 1.0)]
    table = np.array(coeffs + [tuple(v) for v in rng.normal(size=(300, 4))], dtype=np.longdouble)
    got = _cubic_real_roots(*table.T)
    for row, roots in zip(table, got):
        want = _oracle_cubic_real_roots(*row)
        assert repr(roots[: len(want)].tolist()) == repr(want)
        assert np.isnan(roots[len(want):]).all()
    assert np.count_nonzero(~np.isnan(got[0])) == 2


@pytest.mark.parametrize("gamma", [1.0, 0.1])
def test_weak_drives_have_one_branch_and_solve_at_ten_levels(gamma):
    # the small-signal response: n holds ~epsilon^2 / delta^2 photons, down
    # to 1e-26, and the numeric <a> matches the closed form at 10 levels
    from duffspec.closedform import dw_response
    from duffspec.fock import annihilation, expectation
    from duffspec.lindblad import solve_steady_state_adaptive

    for delta, epsilon in itertools.product((0.0, -3.0, -10.0, 1.5), (1e-5, 1e-8, 1e-12)):
        params = ModelParams(delta, 1.0, epsilon, gamma)
        assert len(classical_steady_states(params).amplitudes) == 1, params
        rho, dim, _ = solve_steady_state_adaptive(params)
        assert dim == 10, params
        exact = dw_response(params)
        assert abs(expectation(annihilation(dim), rho) - exact) <= 1e-12 * abs(exact), params


def test_weak_damping_fold_cell_roots_are_polished_until_they_pass():
    # At delta=-6, chi=1, epsilon=4, gamma=1e-8 the cubic is
    # 4 (n - 1)^2 (n - 4) + 2.5e-17 n: two roots 1 -+ 1.44e-9.  Three Newton
    # steps left them at 0.99972 and 1.00057 (residual 1.2e-7); polished on
    # until their steps stall they pass the amplitude check.
    import mpmath

    d, x, e, g = -6.0, 1.0, 4.0, 1e-8
    branches = classical_steady_states(ModelParams(d, x, e, g))
    with mpmath.workdps(50):
        dm, xm, em, gm = (mpmath.mpf(v) for v in (d, x, e, g))
        roots = mpmath.polyroots([4 * xm * xm, 4 * xm * dm, dm * dm + gm * gm / 4, -em * em], extraprec=200)
        exact = sorted(float(r.real) for r in roots)
    assert branches.stable == (True, False, True)
    # np.longdouble holds the coefficient's 2.5e-17 to a few per cent, so
    # the pair is known to ~2e-11 of its 2.9e-9 gap
    assert np.allclose(branches.photon_numbers, exact, rtol=0.0, atol=1e-10)
    for a in branches.amplitudes:
        resid = abs(complex(d + 2 * x * abs(a) ** 2, -g / 2) * a + e)
        assert resid < 1e-10 * max(1.0, e)
