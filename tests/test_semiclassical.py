"""Tests for the classical (mean-field) branch structure."""

import numpy as np
import pytest

from duffspec.fock import ModelParams
from duffspec.semiclassical import (
    bifurcation_boundary,
    classical_steady_states,
)


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
