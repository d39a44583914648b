"""Tests for the undriven eigensystem, drive expansion, Fano fits, and onsets."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares

from duffspec import closedform, perturbation
from duffspec.closedform import _slope_derivatives, dw_response, dw_response_grid
from duffspec.fock import ModelParams, annihilation, expectation
from duffspec.lindblad import build_superoperator, solve_steady_state_adaptive
from duffspec.perturbation import (
    FanoFitError,
    _fano_basis,
    _drive_orders,
    _fano_from_coefficients,
    _fano_projection,
    _fano_search,
    bw_steady_state,
    fano_fit,
    fano_q,
    onset_scan,
    onset_slope,
    response_series,
    s0_eigenpair,
    s0_eigenvalue,
    verify_s0_eigenpair,
)

RATE_SETS = (
    ModelParams(delta=-5.2, chi=1.0, epsilon=0.0, gamma=2.0),
    ModelParams(delta=-1.0, chi=1.0, epsilon=0.0, gamma=0.3),
    ModelParams(delta=-1.0, chi=1.0, epsilon=0.0, gamma=0.01),
)


def extrapolate_to_zero(hs, vals):
    """Polynomial extrapolation of vals(h) to h = 0 (Richardson)."""
    hs = np.asarray(hs, dtype=float)
    scale = hs.max()
    coeffs = np.polyfit(hs / scale, vals, len(hs) - 1)
    return coeffs[-1]


def test_eigenvalue_closed_form():
    params = ModelParams(delta=-5.2, chi=1.0, epsilon=0.0, gamma=2.0)
    assert s0_eigenvalue(2, 1, params) == pytest.approx(-4.0 + 4.4j, abs=1e-14)
    # generic sector (upper, lower) = (n+q, q)
    p = RATE_SETS[1]
    for n in range(4):
        for q in range(3):
            k, l = n + q, q
            expected = complex(
                -0.5 * p.gamma * (k + l),
                -(p.delta * (k - l) + p.chi * (k * (k - 1) - l * (l - 1))),
            )
            assert s0_eigenvalue(n, q, p) == pytest.approx(expected, abs=1e-14)


def test_eigen_residuals_all_low_sectors():
    for params in RATE_SETS:
        for n in range(9):
            for q in range((8 - n) // 2 + 1):
                pair = s0_eigenpair(n, q, params, dim=24)
                assert verify_s0_eigenpair(pair, params) < 1e-9


def test_verify_examples_large_truncations():
    assert verify_s0_eigenpair(s0_eigenpair(1, 0, RATE_SETS[0], dim=20), RATE_SETS[0]) < 1e-9
    assert verify_s0_eigenpair(s0_eigenpair(2, 3, RATE_SETS[1], dim=30), RATE_SETS[1]) < 1e-9


@pytest.mark.filterwarnings("ignore:eigenmatrix weight")
@pytest.mark.parametrize("dim", [8, 12, 20])
@pytest.mark.parametrize(
    "params",
    [
        RATE_SETS[0],
        RATE_SETS[1],
        ModelParams(delta=0.4, chi=1.0, epsilon=0.0, gamma=0.01),
    ],
    ids=["point-c", "delta-1-gamma-0.3", "delta-0.4-gamma-0.01"],
)
def test_verify_residual_is_the_csr_residual(params, dim):
    # the entry-table product is the CSR product to the bit, so the
    # residual is the one build_superoperator's matrix gives, exactly
    s0 = build_superoperator(params, dim)
    for n in range(4):
        for q in range(4):
            for conjugate in (False, True) if n else (False,):
                pair = s0_eigenpair(n, q, params, dim, conjugate=conjugate)
                vec = pair.right.reshape(-1)
                residual = np.max(np.abs(s0 @ vec - pair.eigenvalue * vec)) / np.max(np.abs(vec))
                assert verify_s0_eigenpair(pair, params) == float(residual), (n, q, conjugate)


def test_left_right_biorthonormality():
    params = RATE_SETS[1]
    pairs = [
        s0_eigenpair(n, q, params, dim=16, conjugate=conjugate)
        for n in range(4)
        for q in range(4)
        for conjugate in ((False, True) if n else (False,))
    ]
    for i, pi in enumerate(pairs):
        assert np.isclose(np.sum(pi.left * pi.right), 1.0, atol=1e-10)
        for j, pj in enumerate(pairs):
            if j != i:
                assert abs(np.sum(pi.left * pj.right)) < 1e-10


def test_conjugate_sector():
    params = RATE_SETS[0]
    pair = s0_eigenpair(3, 1, params, dim=16)
    conj = s0_eigenpair(3, 1, params, dim=16, conjugate=True)
    assert conj.eigenvalue == pair.eigenvalue.conjugate()
    assert np.array_equal(conj.right, pair.right.conj().T)
    assert verify_s0_eigenpair(conj, params) < 1e-9
    with pytest.raises(ValueError):
        s0_eigenpair(0, 2, params, dim=16, conjugate=True)


def test_sector_bounds_checked():
    with pytest.raises(ValueError):
        s0_eigenpair(8, 3, RATE_SETS[1], dim=10)
    with pytest.raises(ValueError):
        s0_eigenpair(1, 0, RATE_SETS[1], dim=128)


def bigmatrix_10(params):
    d, x, e, g = params.delta, params.chi, params.epsilon, params.gamma
    a = complex(2 * d, -g)
    b = complex(2 * x + 2 * d, -g)
    return 2 * e / (-a) + 8 * e**3 * (4 * x + a) / (a * a * b * a.conjugate())


def bigmatrix_21(params):
    d, x, e, g = params.delta, params.chi, params.epsilon, params.gamma
    a = complex(2 * d, -g)
    b = complex(2 * x + 2 * d, -g)
    return -8 * e**3 / (a * b * a.conjugate())


def test_bw_matrix_elements_match_closed_expressions():
    # the closed expressions are the ladder contributions sqrt(k+1) rho[k+1, k]
    # that enter <a>; their sum reproduces the amplitude series exactly
    for params in (
        ModelParams(delta=-1.0, chi=1.0, epsilon=0.01, gamma=0.01),
        ModelParams(delta=-2.3, chi=1.0, epsilon=0.05, gamma=0.4),
        ModelParams(delta=0.7, chi=0.8, epsilon=0.02, gamma=0.15),
    ):
        rho = bw_steady_state(params, order=3, dim=12)
        assert abs(rho[1, 0] - bigmatrix_10(params)) < 1e-10
        assert abs(np.sqrt(2.0) * rho[2, 1] - bigmatrix_21(params)) < 1e-10
        assert abs(
            (bigmatrix_10(params) + bigmatrix_21(params)) - response_series(params)
        ) < 1e-14


def test_bw_structure_and_vacuum_depletion():
    params = ModelParams(delta=-1.0, chi=1.0, epsilon=0.02, gamma=0.1)
    rho = bw_steady_state(params, order=3)
    assert np.isclose(np.trace(rho).real, 1.0, atol=1e-14)
    assert abs(np.trace(rho).imag) < 1e-14
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    # vacuum population leaves 1 quadratically in the drive
    dep1 = 1.0 - bw_steady_state(params, order=2)[0, 0].real
    params2 = ModelParams(params.delta, params.chi, 2 * params.epsilon, params.gamma)
    dep2 = 1.0 - bw_steady_state(params2, order=2)[0, 0].real
    assert np.isclose(dep2 / dep1, 4.0, rtol=0.05)


def test_bw_against_numerical_steady_state():
    # the order-3 remainder on rho[2, 1] is relatively O(eps^2): ~0.5% at
    # eps = 0.005 and 4x that at eps = 0.01
    rels = []
    for eps in (0.005, 0.01):
        params = ModelParams(delta=-1.0, chi=1.0, epsilon=eps, gamma=0.01)
        rho_bw = bw_steady_state(params, order=3, dim=12)
        rho_num, dim, _ = solve_steady_state_adaptive(params)
        k = min(dim, 12)
        assert np.max(np.abs(rho_bw[:k, :k] - rho_num[:k, :k])) < 1e-3
        rels.append(abs(rho_bw[2, 1] - rho_num[2, 1]) / abs(rho_num[2, 1]))
    assert rels[0] < 0.01
    assert rels[1] < 0.03
    assert 2.5 < rels[1] / rels[0] < 6.0


def test_bw_order_and_input_validation():
    params = ModelParams(delta=-1.0, chi=1.0, epsilon=0.01, gamma=0.1)
    with pytest.raises(ValueError):
        bw_steady_state(params, order=4)
    with pytest.raises(ValueError):
        bw_steady_state(params, order=3, dim=5)
    with pytest.raises(ValueError):
        bw_steady_state(ModelParams(-1.0, 1.0, 0.01, 0.0))


@pytest.mark.parametrize("order", [True, 2.0, 0, None])
def test_bw_order_must_be_an_integer(order):
    # order=True ran as order 1
    params = ModelParams(delta=-1.0, chi=1.0, epsilon=0.01, gamma=0.1)
    with pytest.raises(ValueError, match=re.escape(f"got {order!r}")):
        bw_steady_state(params, order=order)


@pytest.mark.parametrize(
    "dim, shown", [(12.0, "12.0"), (True, "True"), (np.float64(12.0), "np.float64(12.0)")]
)
def test_bw_dim_must_be_an_integer(dim, shown):
    # a float dim raised numpy's bare TypeError; True failed the size check
    params = ModelParams(delta=-1.0, chi=1.0, epsilon=0.01, gamma=0.1)
    with pytest.raises(ValueError, match=re.escape(f"truncation dimension must be an integer, got {shown}")):
        bw_steady_state(params, 3, dim=dim)


def test_bw_takes_numpy_integer_dims():
    params = ModelParams(delta=-1.0, chi=1.0, epsilon=0.01, gamma=0.1)
    want = bw_steady_state(params, 3, dim=12)
    for dim in (np.int64(12), np.int32(12)):
        assert bw_steady_state(params, 3, dim=dim).tobytes() == want.tobytes()


def test_bw_warns_outside_convergence_regime():
    with pytest.warns(RuntimeWarning):
        bw_steady_state(ModelParams(delta=-5.2, chi=1.0, epsilon=3.2, gamma=2.0))


def test_response_series_vs_bw_trace():
    params = ModelParams(delta=-0.7, chi=1.0, epsilon=0.01, gamma=0.2)
    rho = bw_steady_state(params, order=3, dim=12)
    a_bw = expectation(annihilation(12), rho)
    assert abs(a_bw - response_series(params)) < 1e-10


def test_response_series_odd_polynomial_and_linear_limit():
    # the series is c1 eps + c3 eps^3 with no even terms: two evaluations
    # determine (c1, c3) and predict any third drive exactly
    def r(eps):
        return response_series(ModelParams(-0.9, 1.0, eps, 0.25))

    e1, e2 = 0.01, 0.02
    c3 = (r(e2) / e2 - r(e1) / e1) / (e2**2 - e1**2)
    c1 = r(e1) / e1 - c3 * e1**2
    e3 = 0.035
    assert abs(r(e3) - (c1 * e3 + c3 * e3**3)) < 1e-15
    # chi = 0 collapses to the Lorentzian at any drive
    lin = ModelParams(delta=-0.9, chi=0.0, epsilon=1.7, gamma=0.25)
    expected = -lin.epsilon / complex(lin.delta, -lin.gamma / 2)
    assert np.isclose(response_series(lin), expected, atol=1e-14)


def test_response_series_matches_closed_form_taylor():
    delta, chi, gamma = -0.8, 1.0, 0.3
    eps_ladder = 0.02 / 2 ** np.arange(4)
    g = np.array(
        [dw_response(ModelParams(delta, chi, e, gamma)) / e for e in eps_ladder]
    )
    c1 = extrapolate_to_zero(eps_ladder**2, g)
    c3 = extrapolate_to_zero(eps_ladder[:3] ** 2, (g[:3] - c1) / eps_ladder[:3] ** 2)
    a = complex(2 * delta, -gamma)
    c1_series = 2.0 / (-a)
    c3_series = 32.0 * chi / (a * a * complex(2 * chi + 2 * delta, -gamma) * a.conjugate())
    assert abs(c1 - c1_series) < 1e-9 * abs(c1_series)
    assert abs(c3 - c3_series) < 1e-9 * abs(c3_series)


def test_fano_q_values():
    assert fano_q(ModelParams(-1.0, 1.0, 0.0, 1.0)) == pytest.approx(-1.0 - np.sqrt(3.0), abs=1e-12)
    assert fano_q(ModelParams(-1.0, 1.0, 0.0, 0.01)) == pytest.approx(-1.4242489172721262, abs=1e-10)
    # narrow-line limit
    assert fano_q(ModelParams(-1.0, 1.0, 0.0, 1e-9)) == pytest.approx(-np.sqrt(2.0), abs=1e-8)
    with pytest.raises(ValueError):
        fano_q(ModelParams(-1.0, 0.0, 0.0, 0.1))


def synthetic_fano(deltas, bg, amp, center, width, q):
    x = (deltas - center) / width
    return bg + amp * (x - q) ** 2 / (x**2 + 1.0)


def test_fano_fit_recovers_synthetic_line():
    rng = np.random.default_rng(3)
    bg, amp, center, width, q = 1.0, 0.03, -1.0, 0.005, 0.97
    deltas = np.linspace(center - 10 * width, center + 10 * width, 201)
    mags = synthetic_fano(deltas, bg, amp, center, width, q)
    mags += rng.normal(0.0, 1e-3 * (mags.max() - mags.min()), mags.shape)
    fit = fano_fit(deltas, mags)
    assert np.isclose(fit.q, q, rtol=0.02)
    assert np.isclose(fit.width, width, rtol=0.02)
    assert np.isclose(fit.amplitude, amp, rtol=0.05)
    assert np.isclose(fit.background, bg, rtol=0.01)
    assert abs(fit.center - center) < 0.1 * width


def test_fano_fit_canonical_representation():
    # amp f(x; q) and (-amp q^2) f(x; -1/q) + amp (1 + q^2) are the same curve;
    # the fit must return the amp > 0 member for either input
    bg, amp, center, width, q = 0.5, 0.02, 0.0, 0.01, 1.4
    deltas = np.linspace(-0.12, 0.12, 241)
    curve_a = synthetic_fano(deltas, bg, amp, center, width, q)
    curve_b = synthetic_fano(
        deltas, bg + amp * (1 + q**2), -amp * q**2, center, width, -1.0 / q
    )
    assert np.allclose(curve_a, curve_b, atol=1e-15)
    fit = fano_fit(deltas, curve_a)
    assert fit.amplitude > 0
    assert np.isclose(fit.q, q, rtol=1e-4)
    assert np.isclose(fit.width, width, rtol=1e-4)


def test_fano_fit_window_and_validation():
    bg, amp, center, width, q = 1.0, 0.05, -2.0, 0.02, -1.2
    deltas = np.linspace(-2.5, -1.5, 801)
    mags = synthetic_fano(deltas, bg, amp, center, width, q)
    keep = (deltas >= -2.3) & (deltas <= -1.7)
    fit = fano_fit(deltas[keep], mags[keep])
    assert np.isclose(fit.q, q, rtol=1e-6)
    with pytest.raises(ValueError):
        fano_fit(deltas[:30], mags[:30])
    with pytest.raises(ValueError):
        fano_fit(deltas, mags[:-1])
    with pytest.raises(FanoFitError):
        fano_fit(deltas, np.ones_like(deltas))


def test_fano_fit_handles_symmetric_lorentzians():
    deltas = np.linspace(-1.0, 1.0, 301)
    # a Lorentzian dip is the q = 0 member of the family and fits cleanly
    dip = 1.0 - 0.4 / (1.0 + (deltas / 0.05) ** 2)
    fit = fano_fit(deltas, dip)
    assert abs(fit.q) < 1e-6
    assert np.isclose(fit.amplitude, 0.4, rtol=1e-6)
    # a Lorentzian peak needs |q| -> inf and is rejected as degenerate
    peak = 1.0 + 0.4 / (1.0 + (deltas / 0.05) ** 2)
    with pytest.raises(FanoFitError):
        fano_fit(deltas, peak)


def five_parameter_fano_fit(deltas, mags):
    """Oracle: the profile fitted in all five parameters (bg, amp, center,
    width, q) by finite-difference Levenberg-Marquardt from 12 starts, then
    mapped to the amp > 0 representation; same checks as fano_fit.
    Returns (bg, amp, center, width, q, residual_rms)."""

    def model(theta):
        bg, amp, center, width, q = theta
        x = (deltas - center) / width
        return bg + amp * (x - q) ** 2 / (x**2 + 1.0)

    span = mags.max() - mags.min()
    i_min, i_max = int(np.argmin(mags)), int(np.argmax(mags))
    center0 = 0.5 * (deltas[i_min] + deltas[i_max])
    width0 = max(abs(deltas[i_max] - deltas[i_min]) / 2.0, 2.0 * abs(deltas[1] - deltas[0]))
    q_sign = -1.0 if deltas[i_min] < deltas[i_max] else 1.0
    best = None
    for w_scale in (1.0, 0.5, 2.0):
        for q_mag in (1.0, 1.5, 2.5, 0.5):
            q0 = q_sign * q_mag
            theta0 = [mags.min(), span / (1.0 + q0**2), center0, width0 * w_scale, q0]
            result = least_squares(lambda th: model(th) - mags, theta0, method="lm", max_nfev=200)
            if result.success and (best is None or result.cost < best.cost):
                best = result
    if best is None:
        raise FanoFitError("no start converged")
    bg, amp, center, width, q = best.x
    if width < 0:
        width, q = -width, -q
    if amp < 0 and q != 0:
        bg, amp, q = bg + amp * (1.0 + q**2), -amp * q**2, -1.0 / q
    if abs(q) > 50.0 or amp <= 0.0 or width <= 0.0 or width > 10.0 * (deltas[-1] - deltas[0]):
        raise FanoFitError("degenerate profile")
    rms = np.sqrt(np.mean(best.fun**2))
    if rms > 0.05 * span:
        raise FanoFitError("residual too large")
    return np.array([bg, amp, center, width, q, rms])


def normalized_two_photon_line(gamma, chi, epsilon, half_width, samples=801):
    """|<a>| across the two-photon line over the linear background, as the
    CLI fano task fits it."""
    deltas = np.linspace(-chi - half_width, -chi + half_width, samples)
    values, _ = dw_response_grid(deltas, np.array([epsilon]), gamma, chi)
    background = 2.0 * epsilon / np.abs(2.0 * deltas - 1j * gamma)
    return deltas, np.abs(values[:, 0]) / background


@pytest.mark.parametrize(
    "gamma, chi, eps_factor",
    [
        (0.002, 1.0, 0.2),
        (0.002, 0.5, 3.0),
        (0.02, 0.5, 1.32),
        (0.04, 1.0, 3.0),
        (0.04, 0.5, 0.2),
        (0.04, 0.5, 1.88),
    ],
)
def test_fano_fit_matches_five_parameter_oracle(gamma, chi, eps_factor):
    # lines of the grid gamma x chi x epsilon in [0.2, 3] gamma over +-8 gamma;
    # at gamma = 0.04, chi = 0.5 the window holds more than one feature and
    # both fits must reject the line
    deltas, mags = normalized_two_photon_line(gamma, chi, eps_factor * gamma, 8.0 * gamma)
    try:
        expected = five_parameter_fano_fit(deltas, mags)
    except FanoFitError:
        with pytest.raises(FanoFitError):
            fano_fit(deltas, mags)
        return
    fit = fano_fit(deltas, mags)
    got = [fit.background, fit.amplitude, fit.center, fit.width, fit.q, fit.residual_rms]
    assert np.allclose(got, expected, rtol=1e-5, atol=0.0)


def test_fano_fit_matches_oracle_on_two_photon_line():
    deltas, mags = normalized_two_photon_line(0.01, 1.0, 0.012, 0.08)
    fit = fano_fit(deltas, mags)
    got = [fit.background, fit.amplitude, fit.center, fit.width, fit.q]
    expected = five_parameter_fano_fit(deltas, mags)
    assert np.allclose(got, expected[:5], rtol=1e-5, atol=0.0)
    assert fit.residual_rms == pytest.approx(expected[5], rel=1e-9)


def test_fano_fit_does_not_depend_on_the_sample_order():
    # the README Fano line, reversed and shuffled: the fit sorts the samples
    # first, so both give the ascending fit's fields bit for bit (reversed,
    # the window's span came out negative and a q = 0.968 fit was rejected
    # as degenerate)
    deltas, mags = normalized_two_photon_line(0.01, 1.0, 0.012, 0.08)
    ascending = fano_fit(deltas, mags)
    order = np.random.default_rng(36).permutation(deltas.size)
    for index in (slice(None, None, -1), order):
        assert fano_fit(deltas[index], mags[index]) == ascending


@pytest.mark.parametrize("q", [-1.2, 0.97, 1.4])
def test_fano_fit_recovers_noise_free_lines_in_either_representation(q):
    bg, amp, center, width = 0.8, 0.03, -1.0, 0.005
    deltas = np.linspace(center - 12 * width, center + 12 * width, 401)
    truth = [bg, amp, center, width, q]
    mirror = [bg + amp * (1 + q**2), -amp * q**2, center, width, -1.0 / q]
    for params in (truth, mirror):
        fit = fano_fit(deltas, synthetic_fano(deltas, *params))
        got = [fit.background, fit.amplitude, fit.center, fit.width, fit.q]
        assert np.allclose(got, truth, rtol=1e-8, atol=0.0)
        assert fit.residual_rms < 1e-12


def fit_recording_starts(deltas, mags, monkeypatch):
    """fano_fit of the line, and the (center, width) starts it searched from."""
    starts = []

    def recorded(deltas_, mags_, theta, max_nfev):
        starts.append(tuple(theta))
        return search(deltas_, mags_, theta, max_nfev)

    search = _fano_search
    monkeypatch.setattr("duffspec.perturbation._fano_search", recorded)
    return fano_fit(deltas, mags), starts


def test_fano_projection_jacobian_matches_central_differences(monkeypatch):
    # the two-photon line of the benchmark: gamma = 0.01, chi = 1, eps = 0.012,
    # 801 samples over -1.08 ... -0.92
    deltas, mags = normalized_two_photon_line(0.01, 1.0, 0.012, 0.08)
    fit, starts = fit_recording_starts(deltas, mags, monkeypatch)
    assert len(starts) == 1
    for center, width in [(fit.center, fit.width)] + starts:
        residual, jac, coef = _fano_projection(deltas, mags, center, width)
        assert np.allclose(residual, _fano_basis(deltas, center, width) @ coef - mags, atol=1e-15)
        h = 1e-6 * width
        central = np.column_stack(
            [
                (
                    _fano_projection(deltas, mags, center + dc, width + dw)[0]
                    - _fano_projection(deltas, mags, center - dc, width - dw)[0]
                )
                / (2.0 * h)
                for dc, dw in ((h, 0.0), (0.0, h))
            ]
        )
        rel = np.linalg.norm(jac - central, axis=0) / np.linalg.norm(central, axis=0)
        assert np.all(rel < 1e-6), (center, width, rel)


def test_fano_search_survives_a_first_step_through_zero_width(monkeypatch):
    deltas, mags = normalized_two_photon_line(0.01, 1.0, 0.012, 0.08)
    fit, starts = fit_recording_starts(deltas, mags, monkeypatch)
    # from ten widths out, the first Gauss-Newton step overshoots to a
    # negative width; the profile is even in (width, c2), so the search
    # converges on the mirrored optimum
    trials = []

    def recorded(deltas_, mags_, center, width):
        trials.append(width)
        return _fano_projection(deltas_, mags_, center, width)

    monkeypatch.setattr("duffspec.perturbation._fano_projection", recorded)
    cost, (center, width), _ = _fano_search(deltas, mags, np.array([-1.0001, 0.05]), 80)
    assert trials[1] < 0.0 < trials[0]
    assert np.allclose([center, abs(width)], [fit.center, fit.width], rtol=1e-8, atol=0.0)
    assert np.sqrt(cost / deltas.size) == pytest.approx(fit.residual_rms, rel=1e-9)

    # a first step landing on width 0 exactly has no finite basis: the step is
    # halved, and the search goes on to the same optimum
    trials.clear()

    def zero_first_trial(deltas_, mags_, center, width):
        trials.append(width)
        return _fano_projection(deltas_, mags_, center, 0.0 if len(trials) == 2 else width)

    monkeypatch.setattr("duffspec.perturbation._fano_projection", zero_first_trial)
    cost, (center, width), _ = _fano_search(deltas, mags, np.array(starts[0]), 80)
    assert len(trials) > 2
    assert np.allclose([center, abs(width)], [fit.center, fit.width], rtol=1e-8, atol=0.0)
    assert np.sqrt(cost / deltas.size) == pytest.approx(fit.residual_rms, rel=1e-9)


def test_fano_fit_does_not_depend_on_the_seed(monkeypatch):
    # PR 7's 60-line grid: gamma x chi x epsilon in [0.2, 3] gamma, 801
    # samples over +-8 gamma.  The fit accepts 54 lines and rejects the six
    # at gamma = 0.04, chi = 0.5, where the window holds more than one
    # feature; on every accepted line a search from half or twice the seed
    # width lands on the fit's optimum
    accepted = 0
    for i, gamma in enumerate(np.geomspace(0.002, 0.04, 5)):
        for chi in (0.5, 1.0):
            for eps_factor in np.geomspace(0.2, 3.0, 6):
                deltas, mags = normalized_two_photon_line(gamma, chi, eps_factor * gamma, 8.0 * gamma)
                if i == 4 and chi == 0.5:
                    with pytest.raises(FanoFitError):
                        fano_fit(deltas, mags)
                    continue
                fit, [(center0, width0)] = fit_recording_starts(deltas, mags, monkeypatch)
                accepted += 1
                for w_scale in (0.5, 2.0):
                    _, (center, width), _ = _fano_search(
                        deltas, mags, np.array([center0, w_scale * width0]), 80
                    )
                    assert np.allclose(
                        [center, abs(width)], [fit.center, fit.width], rtol=1e-8, atol=0.0
                    ), (gamma, chi, eps_factor, w_scale)
    assert accepted == 54


def test_fano_coefficient_map_avoids_cancellation():
    # c1 > 0 with |c2| << c1: the naive root (sqrt(c1^2 + c2^2) - c1) / 2
    # cancels to 0, while amp = c2^2 / (4 c1) to relative O(c2^2 / c1^2)
    c0, c1 = 1.5, 0.2
    c2 = 1e-9 * c1
    bg, amp, q = _fano_from_coefficients(c0, c1, c2)
    assert 0.5 * (np.hypot(c1, c2) - c1) == 0.0
    assert amp == pytest.approx(c2**2 / (4.0 * c1), rel=1e-15)
    assert q == pytest.approx(-2.0 * c1 / c2, rel=1e-15)
    assert bg == c0 - amp
    # and the map inverts c1 = amp (q^2 - 1), c2 = -2 amp q on both branches
    for amp_in, q_in in ((0.03, 0.97), (0.03, -1.2), (0.4, 0.0), (1e-3, 40.0)):
        bg, amp, q = _fano_from_coefficients(0.5 + amp_in, amp_in * (q_in**2 - 1), -2 * amp_in * q_in)
        assert np.allclose([bg, amp, q], [0.5, amp_in, q_in], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("name", ["deltas", "magnitudes"])
def test_fano_fit_rejects_complex_input(name):
    # numpy's cast to float dropped the imaginary part after a ComplexWarning
    deltas = np.linspace(-1.1, -0.9, 201)
    line = {"deltas": deltas, "magnitudes": synthetic_fano(deltas, 1.0, 0.03, -1.0, 0.01, 0.97)}
    line[name] = line[name] + 0j
    with pytest.raises(ValueError, match=f"^{name} must be real, got {name}="):
        fano_fit(line["deltas"], line["magnitudes"])


def test_fano_fit_rejects_non_finite_input():
    deltas = np.linspace(-1.1, -0.9, 201)
    mags = synthetic_fano(deltas, 1.0, 0.03, -1.0, 0.01, 0.97)
    bad = mags.copy()
    bad[7] = np.nan
    with pytest.raises(ValueError, match="magnitudes"):
        fano_fit(deltas, bad)
    bad_deltas = deltas.copy()
    bad_deltas[3] = np.inf
    with pytest.raises(ValueError, match="deltas"):
        fano_fit(bad_deltas, mags)
    # at width 0 the basis has no finite projected residual and raises
    # here.  Only a start that begins at width 0 fails for it, and fano_fit
    # counts that start as failed; a trial step that lands on width 0 is
    # rejected and the search goes on
    # (test_fano_search_survives_a_first_step_through_zero_width)
    with pytest.raises(FloatingPointError):
        _fano_basis(deltas, -1.0, 0.0)


def test_onset_scaling_exponents():
    pairs1 = onset_scan(1, (0.004, 0.008, 0.016))
    slope1 = onset_slope(pairs1)
    assert abs(slope1 - 1.0) < 0.1
    pairs2 = onset_scan(2, (0.004, 0.008, 0.016))
    slope2 = onset_slope(pairs2)
    assert abs(slope2 - 0.5) < 0.1
    # single-photon onset tracks the linewidth scale itself
    for gamma, eps in pairs1:
        assert 0.1 * gamma < eps < 10.0 * gamma


def full_grid_onset(n, gamma, chi):
    """The onset searched on a 961-sample grid: the bracket oracle of onset_scan.

    Every drive step probes all 961 samples over -n chi +- 12 gamma for a
    slope flip within 10 gamma of the line: steps down by 1.25 and up by
    1.25, then 40 log-drive bisections.  A flip between samples needs a
    zero of u = d/d delta log|<a>|^2, so this lies above the cusp, by at
    most the grid's resolution.
    """
    w = 10.0 * gamma
    deltas = np.linspace(-n * chi - 1.2 * w, -n * chi + 1.2 * w, 961)
    mid = 0.5 * (deltas[:-2] + deltas[2:])
    mask = np.abs(mid + n * chi) < w

    def found(e):
        mags = np.abs(dw_response_grid(deltas, np.array([e]), gamma, chi)[0][:, 0])
        signs = np.sign(np.diff(mags))
        return bool(np.any((signs[:-1] * signs[1:] < 0) & mask))

    eps = 0.05 * chi ** (1.0 - 1.0 / n) * gamma ** (1.0 / n)
    for _ in range(120):
        if not found(eps):
            break
        eps /= 1.25
    lo = eps
    for _ in range(120):
        eps *= 1.25
        if found(eps):
            break
        lo = eps
    hi = eps
    for _ in range(40):
        mid_e = math.sqrt(lo * hi)
        if found(mid_e):
            hi = mid_e
        else:
            lo = mid_e
    return math.sqrt(lo * hi)


def assert_just_below_the_grid_onset(n, gamma, chi, onset):
    # the 961-sample onset lies 2.6e-5 to 1.24e-3 above the cusp on 600
    # single-gamma scans (chi = 0.05, 1, 2; n <= 8; gamma / chi from 5e-4
    # to 1/16)
    grid = full_grid_onset(n, gamma, chi)
    assert 0.0 < (grid - onset) / onset <= 1.3e-3, (n, gamma, chi, onset, grid)


@pytest.mark.parametrize("chi", [0.5, 1.0, 2.0])
def test_onset_scan_lies_just_below_the_full_grid_search(chi):
    gammas = (0.003, 0.01, 0.03)
    for n in (1, 2, 3):
        for gamma, onset in onset_scan(n, gammas, chi):
            assert_just_below_the_grid_onset(n, gamma, chi, onset)


def mp_cusp(gamma, chi, delta, epsilon, steps=6, dps=40):
    """Newton on u = du/d delta = 0 in 40 digits, u = d/d delta log|<a>|^2.

    Every derivative is mpmath.diff's of log|<a>|^2, with <a> the 0F2
    ratio formed in mpmath.  Returns the last two iterates of epsilon.
    """
    import mpmath

    with mpmath.workdps(dps):
        x, g = mpmath.mpf(chi), mpmath.mpf(gamma)

        def log_abs2(d, e):
            z = 2 * e * e / (x * x)
            b = mpmath.mpc(d, -g / 2) / x
            c = mpmath.mpc(d, g / 2) / x
            ratio = mpmath.hyper([], [b + 1, c], z) / (b * mpmath.hyper([], [b, c], z))
            return mpmath.log(abs(ratio) ** 2)

        d, e, last = mpmath.mpf(delta), mpmath.mpf(epsilon), None
        for _ in range(steps):
            orders = ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1))
            u, du, ddu, du_e, ddu_e = (mpmath.diff(log_abs2, (d, e), o) for o in orders)
            det = du * ddu_e - du_e * ddu
            last = e
            d, e = d + (du_e * du - u * ddu_e) / det, e + (ddu * u - du * du) / det
        return last, e


@pytest.mark.parametrize("n, gamma", [(1, 0.01), (2, 0.01), (3, 0.003), (7, 0.0084)])
def test_onset_scan_matches_the_mpmath_cusp(n, gamma):
    # n = 7 turns over 0.28 gamma below the line centre, in a dip
    # narrower than a 961-sample grid's spacing of 0.025 gamma
    [(_, onset)] = onset_scan(n, (gamma,))
    # Newton's start: the minimum of u at the onset drive on a fine grid
    deltas = -n + gamma * np.linspace(-12.0, 12.0, 2401)
    cells = np.stack(np.broadcast_arrays(deltas, 1.0, onset, gamma), axis=1)
    derivs, _ = _slope_derivatives(*cells.T)
    i = np.argmin(derivs[0])
    # the line turns over at a minimum of u, and u falls with the drive
    assert derivs[2, i] > 0.0 and derivs[3, i] < 0.0
    last, cusp = mp_cusp(gamma, 1.0, deltas[i], onset)
    # converged far below the gate (to ~1e-20, mpmath.diff's resolution)
    assert abs(cusp - last) <= 1e-15 * cusp
    assert abs(onset - cusp) <= 1e-10 * cusp


@pytest.mark.parametrize("chi", [0.05, 1.0, 2.0])
def test_onset_prefactor_of_the_one_photon_line(chi):
    # the cubic drive series near delta = -chi, with x = delta + chi:
    # <a> ~ eps / chi + eps x / chi^2 - 4 eps^3 / (chi^2 (2x - i gamma)),
    # so d|<a>|/dx at x = 0 is (eps / chi^2)(1 - 8 eps^2 / gamma^2) and the
    # line turns over at eps = gamma / sqrt(8), up to O(gamma^2)
    [(gamma, onset)] = onset_scan(1, (0.001 * chi,), chi)
    assert abs(onset / gamma - 1.0 / math.sqrt(8.0)) <= 1e-6


@pytest.mark.parametrize("n, gamma", [(7, 0.0084), (8, 0.02)])
def test_onset_scan_solves_lines_that_first_turn_over_off_centre(n, gamma):
    # besides the central cusp these lines turn over 2.2 gamma from the
    # centre, which a 961-sample grid sees at a lower drive than the centre
    [(_, onset)] = onset_scan(n, (gamma,))
    assert_just_below_the_grid_onset(n, gamma, 1.0, onset)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_onset_scan_solves_each_gamma_on_its_own(n):
    # one closed-form call per step serves every gamma, and a cell's
    # derivatives do not depend on the cells beside it, so a scan is its
    # single-gamma scans bit for bit
    gammas = (0.003, 0.01, 0.03)
    assert onset_scan(n, gammas) == [onset_scan(n, (g,))[0] for g in gammas]


def recording_slopes(monkeypatch, rows):
    """Replace _slope_derivatives by one that returns ``rows`` for every cell; record the drives."""
    drives = []

    def fake(*cells):
        drives.extend(np.broadcast_arrays(*cells)[2].ravel())
        derivs = np.multiply.outer(rows, np.ones(np.broadcast_shapes(*map(np.shape, cells))))
        return derivs, np.zeros(derivs.shape[1:], dtype=bool)

    monkeypatch.setattr(perturbation, "_slope_derivatives", fake)
    return drives


def test_onset_scan_raises_when_no_drive_brackets_the_line(monkeypatch):
    # u < 0 everywhere from the first drive, but flat: every Newton step
    # divides by a zero determinant and none converges
    recording_slopes(monkeypatch, [-1.0, 0.0, 0.0, -1.0, 0.0])
    with pytest.raises(perturbation.OnsetError, match="no cusp of the n=1 line converged"):
        onset_scan(1, (0.01,))


def test_onset_ladder_stops_at_the_drive_cap(monkeypatch):
    # a line that never turns over: the ladder steps up to the cap, where
    # the 0F2 series still sum in double, and raises there
    chi = 0.5
    probed = recording_slopes(monkeypatch, [1.0, 0.0, 0.0, 0.0, 0.0])
    cap = perturbation._ONSET_MAX_DRIVE * chi
    with pytest.raises(perturbation.OnsetError, match=re.escape(f"drive cap epsilon={cap:g}")):
        onset_scan(1, (0.01,), chi)
    assert cap / 1.25 < max(probed) <= cap


def test_onset_scan_raises_on_a_cell_that_escalates(monkeypatch):
    # every cell's partial sums peak above CANCEL_RATIO times its value
    monkeypatch.setattr(closedform, "CANCEL_RATIO", 0.5)
    with pytest.raises(perturbation.OnsetError, match=r"the closed form at delta=-1\.12, epsilon="):
        onset_scan(1, (0.01,))


def test_onset_scan_of_no_rates_probes_nothing(no_probe):
    # the seeds were concatenated from no ladder call and raised a
    # ValueError from the unpacking
    assert onset_scan(1, []) == []
    assert onset_scan(3, (), chi=0.5) == []


# the scans of the cusp, off-centre and damping-limit tests above
_ONE_RUNG_SCANS = (
    [(n, (0.003, 0.01, 0.03), chi) for chi in (0.5, 1.0, 2.0) for n in (1, 2, 3)]
    + [(7, (0.0084,), 1.0), (8, (0.02,), 1.0)]
    + [(n, (chi / 16,), chi) for chi in (0.05, 1.0, 2.0) for n in range(1, 6)]
)


def probing(monkeypatch, flagged=()):
    """Record the drives _slope_derivatives is called on, and flag every cell at a ``flagged`` drive as escalating."""
    probed = set()

    def fake(*cells):
        drives = np.broadcast_arrays(*cells)[2]
        probed.update(drives.ravel().tolist())
        derivs, escalates = _slope_derivatives(*cells)
        return derivs, escalates | np.isin(drives, flagged)

    monkeypatch.setattr(perturbation, "_slope_derivatives", fake)
    return probed


@pytest.mark.parametrize("n, gammas, chi", _ONE_RUNG_SCANS)
def test_onset_scan_in_rung_chunks_is_the_one_rung_ladder(monkeypatch, n, gammas, chi):
    # every rung is the same repeated x1.25 product and a cell's
    # derivatives do not depend on the cells beside it, so the seeds, and
    # with them the onsets, keep their bits
    chunked_drives = probing(monkeypatch)
    chunked = onset_scan(n, gammas, chi)
    monkeypatch.setattr(perturbation, "_ONSET_RUNGS", 1)
    one_rung_drives = probing(monkeypatch)
    assert onset_scan(n, gammas, chi) == chunked
    # the chunks probe every drive the one-rung ladder and its Newton
    # iterations probe, and the rungs past a first turned one besides
    assert one_rung_drives <= chunked_drives


def first_turned_rung(monkeypatch, gamma):
    """The one-rung ladder's drives for the n = 1 line at chi = 1, and the index of its first turned rung."""
    ladder = [0.05 * gamma]
    while len(ladder) < 40:
        ladder.append(ladder[-1] * 1.25)
    with monkeypatch.context() as patch:
        patch.setattr(perturbation, "_ONSET_RUNGS", 1)
        probed = probing(patch)
        onset_scan(1, (gamma,))
    return ladder, max(i for i, e in enumerate(ladder) if e in probed)


def test_onset_scan_ignores_escalation_past_the_first_turned_rung(monkeypatch):
    # the one-rung ladder stops at the rung where the line turns over; a
    # chunk sums the rungs above it too, but their cells count for nothing
    gamma = 0.01
    want = onset_scan(1, (gamma,))
    ladder, first = first_turned_rung(monkeypatch, gamma)
    above = ladder[first + 1 :]
    probed = probing(monkeypatch, above)
    assert onset_scan(1, (gamma,)) == want
    # the chunk summed flagged rungs, so raising on every escalating cell
    # it summed would fail here
    assert probed & set(above)


@pytest.mark.parametrize("rungs", [1, 4])
def test_onset_scan_raises_on_the_first_turned_rung_as_the_one_rung_ladder(monkeypatch, rungs):
    # a cell flagged on the first turned rung is summed by both ladders:
    # the first of them raises, by name, whatever the rungs per call
    gamma = 0.01
    ladder, first = first_turned_rung(monkeypatch, gamma)
    probing(monkeypatch, ladder[first : first + 1])
    monkeypatch.setattr(perturbation, "_ONSET_RUNGS", rungs)
    match = re.escape(f"at delta={-1.0 - 12.0 * gamma!r}, epsilon={ladder[first]!r}, gamma={gamma!r}")
    with pytest.raises(perturbation.OnsetError, match=match):
        onset_scan(1, (gamma,))


def test_onset_validation():
    with pytest.raises(ValueError):
        onset_scan(0, (0.01,))
    with pytest.raises(ValueError):
        onset_scan(1, (0.5,))
    with pytest.raises(ValueError):
        onset_slope([(0.01, 0.02)])
    # a repeated gamma leaves no slope to fit
    with pytest.raises(ValueError, match="distinct"):
        onset_slope([(0.01, 0.1), (0.01, 0.2)])
    # numpy integers are line indices too
    assert onset_scan(np.int64(1), (0.01,)) == onset_scan(1, (0.01,))


@pytest.mark.parametrize(
    "bad",
    [(0.03, math.nan), (0.03, math.inf), (0.03, 0.0), (0.03, -0.01), (0.0, 0.01), (-0.03, 0.01), (math.nan, 0.01)],
)
def test_onset_slope_names_the_first_bad_pair(capfd, bad):
    # a NaN onset gave a NaN slope, epsilon <= 0 gave NaN after a
    # RuntimeWarning, and gamma <= 0 made LAPACK print DLASCL before
    # LinAlgError
    pairs = [(0.003, 0.001), (0.01, 0.0035), bad, (-1.0, -1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            onset_slope(pairs)
    assert "DLASCL" not in capfd.readouterr().err


@pytest.fixture
def no_probe(monkeypatch):
    """Fail the test if onset_scan evaluates the closed form."""

    def probe(*args):
        raise AssertionError("onset_scan probed the line")

    monkeypatch.setattr(perturbation, "_slope_derivatives", probe)


@pytest.mark.parametrize(
    "gammas, chi, match",
    [
        ((0.01, math.nan), 1.0, "gamma=nan"),
        ((0.01, math.inf), 1.0, "gamma=inf"),
        ((0.01,), math.nan, "chi=nan"),
        ((0.01,), math.inf, "chi=inf"),
        ((0.01,), 0.0, "chi=0.0"),
        # a bool was read as 1, and a str, None or complex rate raised a
        # bare TypeError from a comparison or math.isfinite
        ((True,), 20.0, "gamma=True"),
        ((np.True_,), 20.0, re.escape("gamma=np.True_")),
        ((0.01,), True, "chi=True"),
        (("0.01",), 1.0, "gamma='0.01'"),
        ((0.01, None), 1.0, "gamma=None"),
        ((0.01j,), 1.0, "gamma=0.01j"),
        ((0.01,), "1", "chi='1'"),
        ((0.01,), None, "chi=None"),
        ((0.01,), 1 + 0j, re.escape("chi=(1+0j)")),
    ],
)
def test_onset_scan_rejects_non_finite_rates_before_probing(no_probe, gammas, chi, match):
    with pytest.raises(ValueError, match=match):
        onset_scan(1, gammas, chi)


@pytest.mark.parametrize("chi", [0.05, 1.0, 2.0])
@pytest.mark.parametrize("ratio", [0.083, 0.1])
def test_onset_scan_rejects_damping_near_the_neighbouring_lines_before_probing(
    no_probe, chi, ratio
):
    # above chi / 16 the scan returned wrong onsets: at 0.083 chi n = 4, 5
    # fell back to the full grid, at 0.1 chi n = 2 gave 0.0356 where the
    # gamma^(1/2) trend gives ~0.18
    with pytest.raises(ValueError, match=re.escape("gamma <= chi / 16")):
        onset_scan(2, (0.01 * chi, ratio * chi), chi)


@pytest.mark.parametrize("chi", [0.05, 1.0, 2.0])
def test_onset_scan_brackets_every_line_at_the_damping_limit(chi):
    # gamma = chi / 16: the +-12 gamma samples end chi / 4 short of the
    # neighbouring lines, and every line up to n = 5 has its cusp just
    # below the grid onset
    gamma = chi / 16
    for n in range(1, 6):
        [(_, onset)] = onset_scan(n, (gamma,), chi)
        assert_just_below_the_grid_onset(n, gamma, chi, onset)


@pytest.mark.parametrize("n", [1.5, "1", 2.0, True, None])
def test_onset_scan_rejects_a_non_integer_line_before_probing(no_probe, n):
    # 1.5 used to step the drive up a line that never flattens, and "1"
    # raised a bare TypeError from the comparison with 1
    with pytest.raises(ValueError, match=re.escape(f"got n={n!r}")):
        onset_scan(n, (0.01,))


def odd_coefficients_0f2(params, count, dps=50):
    """Taylor coefficients of <a> at eps^1, eps^3, ... eps^(2 count - 1), in 50 digits.

    <a> = -eps / (delta - i gamma/2) 0F2(; a+1, b; z) / 0F2(; a, b; z) with
    a, b = (delta -+ i gamma/2) / chi and z = 2 eps^2 / chi^2: both 0F2 are
    power series in eps^2, and their ratio is one power-series division.
    """
    import mpmath

    with mpmath.workdps(dps):
        shift = mpmath.mpc(params.delta, -params.gamma / 2)
        a, b = shift / params.chi, shift.conjugate() / params.chi
        w = 2 / mpmath.mpf(params.chi) ** 2

        def coefficients(lower):
            return [
                w**n / (mpmath.rf(lower, n) * mpmath.rf(b, n) * mpmath.factorial(n))
                for n in range(count)
            ]

        num, den = coefficients(a + 1), coefficients(a)
        ratio = []
        for n in range(count):
            ratio.append(num[n] - sum(ratio[m] * den[n - m] for m in range(n)))
        return [complex(-q / shift) for q in ratio]


@pytest.mark.parametrize(
    "params, top, rtol",
    [
        (ModelParams(delta=-5.2, chi=1.0, epsilon=0.0, gamma=2.0), 25, 1e-12),
        (ModelParams(delta=-1.0, chi=1.0, epsilon=0.0, gamma=0.01), 25, 1e-13),
        (ModelParams(delta=-2.0, chi=0.05, epsilon=0.0, gamma=0.1), 11, 1e-11),
    ],
    ids=["point-c", "fano-line", "hard-regime"],
)
def test_drive_orders_match_closed_form_taylor_coefficients(params, top, rtol):
    dim = top + 2
    coeffs = [expectation(annihilation(dim), rho) for rho in _drive_orders(params, top, dim)]
    reference = odd_coefficients_0f2(params, top // 2 + 1)
    for k in range(1, top + 1, 2):
        ref = reference[k // 2]
        assert abs(coeffs[k] - ref) <= rtol * abs(ref), k
    assert all(coeffs[k] == 0 for k in range(0, top + 1, 2))


def test_bw_steady_state_has_no_truncation_error():
    # order 3 lives on |m><n| with m + n <= 3; every larger truncation
    # repeats the same numbers and adds exact zeros
    params = ModelParams(delta=-1.0, chi=1.0, epsilon=0.02, gamma=0.1)
    small, mid, large = (bw_steady_state(params, order=3, dim=dim) for dim in (7, 12, 80))
    assert np.array_equal(mid[:7, :7], small)
    assert np.array_equal(large[:7, :7], small)
    assert not np.any(large[4:]) and not np.any(large[:, 4:])


def test_response_series_requires_damping():
    with pytest.raises(ValueError):
        response_series(ModelParams(delta=-1.0, chi=1.0, epsilon=0.01, gamma=0.0))
    with pytest.raises(ValueError):
        response_series(ModelParams(delta=-1.0, chi=1.0, epsilon=0.01, gamma=np.array([0.1, 0.0])))
