"""Closed-form steady-state response via the 0F2 hypergeometric series."""

import re

import numpy as np
import pytest

from duffspec import closedform
from duffspec.closedform import (
    ParameterPoleError,
    dw_response,
    dw_response_grid,
    hyp0f2_series,
    hyper_0f2,
)
from duffspec.fock import ModelParams


def mp_hyp0f2(b1, b2, z, dps=50):
    import mpmath

    with mpmath.workdps(dps):
        return complex(mpmath.hyper([], [mpmath.mpc(b1), mpmath.mpc(b2)], mpmath.mpc(z)))


def mp_dw(delta, epsilon, gamma, chi, dps=50):
    import mpmath

    with mpmath.workdps(dps):
        z = 2 * mpmath.mpf(epsilon) ** 2 / mpmath.mpf(chi) ** 2
        bsh = mpmath.mpc(delta, gamma / 2) / chi
        num = mpmath.hyper([], [mpmath.mpc(delta + chi, -gamma / 2) / chi, bsh], z)
        den = mpmath.hyper([], [mpmath.mpc(delta, -gamma / 2) / chi, bsh], z)
        return complex(-(epsilon / mpmath.mpc(delta, -gamma / 2)) * num / den)


def test_hyp0f2_trivial_and_known():
    assert hyper_0f2(0.7 + 0.3j, -2.5 + 1j, 0.0) == 1.0
    # sum_k 1/(k!)^3
    assert np.isclose(hyper_0f2(1.0, 1.0, 1.0), 2.1297025489833064, atol=1e-14)


def test_hyp0f2_point_c_arguments():
    val = hyper_0f2(-5.2 - 1.0j, -5.2 + 1.0j, 20.48)
    ref = mp_hyp0f2(-5.2 - 1.0j, -5.2 + 1.0j, 20.48)
    assert abs(val - ref) / abs(ref) < 1e-9


def test_hyp0f2_random_arguments_vs_mpmath():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(25):
        b1 = complex(rng.uniform(-8, 4), rng.uniform(-3, 3))
        b2 = complex(rng.uniform(-8, 4), rng.uniform(0.2, 3))  # keep off the real axis
        z = complex(rng.uniform(0, 40), 0.0)
        val = hyper_0f2(b1, b2, z)
        ref = mp_hyp0f2(b1, b2, z)
        worst = max(worst, abs(val - ref) / abs(ref))
    assert worst < 1e-9


def test_hyp0f2_pole_rejection():
    with pytest.raises(ParameterPoleError):
        hyper_0f2(-3.0, 1.0, 2.0)
    with pytest.raises(ParameterPoleError):
        hyper_0f2(1.0, 0.0, 2.0)


def test_hyp0f2_truncation_robustness():
    # where the series stops, the omitted tail is below double rounding:
    # the sum agrees with 50 digits (within 8.5e-16 today)
    b1, b2, z = -5.2 - 1.0j, -5.2 + 1.0j, 50.0
    ref = mp_hyp0f2(b1, b2, z)
    assert abs(hyper_0f2(b1, b2, z) - ref) <= 1e-14 * abs(ref)


def test_dw_response_linear_limit():
    # eps -> 0: <a> -> -eps/(delta - i gamma/2), the (sign-fixed) Lorentzian
    p = ModelParams(delta=-2.7, chi=1.0, epsilon=1e-7, gamma=0.6)
    lin = -p.epsilon / complex(p.delta, -0.5 * p.gamma)
    assert abs(dw_response(p) - lin) / abs(lin) < 1e-10
    assert dw_response(ModelParams(delta=-2.7, chi=1.0, epsilon=0.0, gamma=0.6)) == 0.0


def test_dw_response_frozen_points():
    vals = {
        (-7.8, 3.2): 0.42528286786105592 - 0.06086337600023605j,
        (-5.2, 3.2): -0.49906939788382434 - 0.79908189149011885j,
        (-3.0, 3.2): -1.10648286047143060 - 0.80167324811906930j,
    }
    for (delta, eps), ref in vals.items():
        got = dw_response(ModelParams(delta=delta, chi=1.0, epsilon=eps, gamma=2.0))
        assert abs(got - ref) < 1e-12
    # sub-single-photon response in the low region
    assert abs(vals[(-7.8, 3.2)]) ** 2 < 1.0


def test_dw_response_odd_in_epsilon():
    # z = 2 eps^2/chi^2 is even, the prefactor is odd, so oddness is exact
    rng = np.random.default_rng(7)
    for _ in range(10):
        delta = float(rng.uniform(-10, 2))
        eps = float(rng.uniform(0.05, 5))
        plus = dw_response(ModelParams(delta=delta, chi=1.0, epsilon=eps, gamma=2.0))
        z = 2.0 * eps * eps
        bsh = complex(delta, 1.0)
        num = hyper_0f2(complex(delta + 1.0, -1.0), bsh, z)
        den = hyper_0f2(complex(delta, -1.0), bsh, z)
        minus = (eps / complex(delta, -1.0)) * num / den
        assert abs(plus + minus) == 0.0


def test_dw_response_vs_mpmath_random():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(15):
        delta = float(rng.uniform(-10, 2))
        eps = float(rng.uniform(0.05, 5))
        gamma = float(rng.uniform(0.3, 3))
        got = dw_response(ModelParams(delta=delta, chi=1.0, epsilon=eps, gamma=gamma))
        ref = mp_dw(delta, eps, gamma, 1.0)
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-9


def test_dw_response_grid_matches_scalar():
    deltas = np.linspace(-10.0, 2.0, 13)
    epsilons = np.array([0.5, 3.2])
    values, tails = dw_response_grid(deltas, epsilons, 2.0, 1.0)
    assert values.shape == (13, 2)
    assert np.all(tails >= 0.0)
    for i, d in enumerate(deltas):
        for j, e in enumerate(epsilons):
            ref = dw_response(ModelParams(delta=float(d), chi=1.0, epsilon=float(e), gamma=2.0))
            assert values[i, j] == ref


def test_dw_response_grid_escalation_deterministic():
    # repeated evaluation must agree bit for bit.  The gamma = 0.01 cells
    # stay on the double-precision series (no cell there cancels past
    # CANCEL_RATIO); the gamma = 1e-9 cell sits on a zero of the numerator
    # series, so it trips the cancellation guard and goes to mpmath.
    deltas = np.linspace(-3.0, -0.5, 9)
    epsilons = np.array([2.5])
    v1, _ = dw_response_grid(deltas, epsilons, 0.01, 1.0)
    v2, _ = dw_response_grid(deltas, epsilons, 0.01, 1.0)
    assert np.array_equal(v1, v2)
    ref = mp_dw(float(deltas[4]), 2.5, 0.01, 1.0)
    assert abs(v1[4, 0] - ref) / abs(ref) < 1e-8
    delta, eps, gamma = _ESCALATING_CELL
    e1, tails = dw_response_grid(np.array([delta]), np.array([eps]), gamma, 1.0)
    e2, _ = dw_response_grid(np.array([delta]), np.array([eps]), gamma, 1.0)
    assert tails[0, 0] == 0.0  # the escalation flag
    assert np.array_equal(e1, e2)
    # z and the lower parameters are formed in 50 digits, not rounded to
    # double first, so the escalated value is the exact one for its inputs;
    # the scalar response is the grid's cell
    ref = mp_dw(delta, eps, gamma, 1.0)
    assert abs(e1[0, 0] - ref) / abs(ref) < 1e-12
    scalar = dw_response(ModelParams(delta=delta, chi=1.0, epsilon=eps, gamma=gamma))
    assert scalar == e1[0, 0]


def test_dw_requires_positive_chi_and_gamma():
    with pytest.raises(ValueError):
        dw_response(ModelParams(delta=0.0, chi=0.0, epsilon=1.0, gamma=1.0))
    with pytest.raises(ValueError, match="gamma > 0"):
        dw_response(ModelParams(delta=-3.0, chi=1.0, epsilon=1.0, gamma=0.0))
    with pytest.raises(ValueError):
        dw_response_grid(np.array([0.0]), np.array([1.0]), -1.0, 1.0)


def test_hyp0f2_series_gauges_scalar_and_array():
    value, ratio, terms, tail = hyp0f2_series(1.0, 1.0, 1.0)
    assert np.isclose(value, 2.1297025489833064, atol=1e-14)
    assert ratio >= 1.0 and terms > 0 and tail >= 0.0
    b1 = np.array([1.0, -5.2 - 1.0j, 0.7 + 0.3j])
    value, ratio, terms, tail = hyp0f2_series(b1, [[1.0], [-5.2 + 1.0j]], [1.0, 20.48, 3.0])
    assert value.shape == ratio.shape == terms.shape == tail.shape == (2, 3)
    assert np.isclose(value[0, 0], 2.1297025489833064, atol=1e-14)
    assert np.all(ratio >= 1.0) and np.all(terms > 0) and np.all(tail >= 0.0)
    # each cell is summed as the scalar call sums it
    for i, b2 in enumerate((1.0, -5.2 + 1.0j)):
        for j, z in enumerate((1.0, 20.48, 3.0)):
            assert np.isclose(value[i, j], hyp0f2_series(b1[j], b2, z)[0], rtol=1e-15, atol=0.0)


def test_hyp0f2_series_array_matches_mpmath():
    # every cell of an array call stops with its tail below double rounding
    b1 = np.array([-5.2 - 1.0j, 0.7 + 0.3j, 1.0, -2.5 + 0.1j])
    b2 = np.array([-5.2 + 1.0j, -2.5 + 1.0j, 1.0, 3.0])
    z = np.array([50.0, 12.0, 1.0, 0.0])
    value = hyp0f2_series(b1, b2, z)[0]
    ref = np.array([mp_hyp0f2(*cell) for cell in zip(b1, b2, z)])
    assert np.all(np.abs(value - ref) <= 1e-14 * np.abs(ref))


def test_hyp0f2_series_sums_past_a_resurgence():
    # The terms dip below SERIES_RTOL of the sum by k = 34 and resurge
    # while |b + k| shrinks, up to k = -Re b = 48; a sum stopped at the dip
    # reads 9.81 against 330.04.
    b1, b2, z = -48.0 - 1.0j, -48.0 + 1.0j, 5000.0
    value, _, terms, _ = hyp0f2_series(b1, b2, z)
    assert terms > 48
    ref = mp_hyp0f2(b1, b2, z)
    assert abs(value - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize(
    "delta, epsilon",
    [
        # the CLI cell: -168.98 - 18.92i when the series stopped at a dip,
        # against -5.0250 - 0.5627i
        (-2.4, 2.5),
        # the hard-regime point, 9.5e-9 off when its series stopped at k = 23
        (-2.0, 1.5),
    ],
)
def test_dw_response_small_chi_sums_past_the_last_near_pole(delta, epsilon):
    # chi = 0.05 puts -Re b at delta / chi = 48 and 40
    got = dw_response(ModelParams(delta=delta, chi=0.05, epsilon=epsilon, gamma=0.1))
    ref = mp_dw(delta, epsilon, 0.1, 0.05)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_dw_response_grid_small_chi_open_grid_matches_mpmath():
    # The grid where 77 of the 2025 cells were more than 1e-9 off while a
    # series could stop at a dip before its last near-pole; every cell is
    # checked, which takes ~2 s of mpmath.
    deltas, epsilons = np.linspace(-4.0, 0.0, 81), np.linspace(0.1, 2.5, 25)
    values, _ = dw_response_grid(deltas, epsilons, 0.1, 0.05)
    ref = np.array([[mp_dw(float(d), float(e), 0.1, 0.05) for e in epsilons] for d in deltas])
    assert np.all(np.abs(values - ref) <= 1e-12 * np.abs(ref))


# A zero of the numerator series at gamma = 1e-9: its partial sums peak
# ~2e9 times above the final value, past CANCEL_RATIO, so the cell is
# re-evaluated with mpmath.
_ESCALATING_CELL = (-9.131118029238847, 3.9, 1e-9)


def _mpmath_random_cells():
    rng = np.random.default_rng(13)  # the cells of test_dw_response_vs_mpmath_random
    cells = [(float(rng.uniform(-10, 2)), float(rng.uniform(0.05, 5)), float(rng.uniform(0.3, 3))) for _ in range(15)]
    return [(np.array([d]), np.array([e]), g, []) for d, e, g in cells]


@pytest.mark.parametrize(
    "deltas, epsilons, gamma, escalated",
    [
        (np.linspace(-3.0, 0.5, 15), np.array([0.0, 0.012, 0.5, 2.5]), 0.01, []),
        (np.array([-9.5, _ESCALATING_CELL[0]]), np.array([_ESCALATING_CELL[1]]), _ESCALATING_CELL[2], [[1, 0]]),
        # the README sweep and line scan grids
        (np.linspace(-8.0, -2.0, 61), np.linspace(0.5, 4.0, 8), 2.0, []),
        (np.linspace(-1.08, -0.92, 801), np.array([0.012]), 0.01, []),
    ]
    + _mpmath_random_cells(),
)
def test_dw_response_grid_matches_scalar_cell_by_cell(deltas, epsilons, gamma, escalated):
    # the scalar response is the grid's cell, bit for bit
    values, tails = dw_response_grid(deltas, epsilons, gamma, 1.0)
    for i, d in enumerate(deltas):
        for j, e in enumerate(epsilons):
            ref = dw_response(ModelParams(delta=float(d), chi=1.0, epsilon=float(e), gamma=gamma))
            assert values[i, j] == ref
    # escalated cells report a zero tail; so do undriven cells, whose series stop at 1
    assert np.argwhere((tails == 0.0) & (epsilons != 0.0)).tolist() == escalated


def onset_grid(n, gamma, band):
    """961 detunings over -n +- 12 gamma at chi = 1, or their central band |delta + n| < 2 gamma."""
    deltas = np.linspace(-n - 12.0 * gamma, -n + 12.0 * gamma, 961)
    return deltas[np.abs(deltas + n) < 2.0 * gamma] if band else deltas


def drive_ladder(eps, steps):
    """eps / 1.25^4, ..., eps * 1.25^(steps - 5), each formed from the last."""
    for _ in range(4):
        eps /= 1.25
    drives = []
    for _ in range(steps):
        drives.append(eps)
        eps *= 1.25
    return np.array(drives)


@pytest.mark.parametrize(
    "deltas, epsilons, gamma",
    [
        # bands and grids across the n = 1, 2, 3 lines, with a x1.25 drive
        # ladder through the lines' onsets from 0.05 gamma^(1/n)
        (onset_grid(n, 0.01, band), drive_ladder(0.05 * 0.01 ** (1.0 / n), 20), 0.01)
        for n in (1, 2, 3)
        for band in (True, False)
    ]
    + [
        (
            np.array([-9.5, _ESCALATING_CELL[0], -9.0]),
            np.array([3.0, _ESCALATING_CELL[1], 0.5, 1.25 * _ESCALATING_CELL[1]]),
            _ESCALATING_CELL[2],
        )
    ],
)
def test_dw_response_grid_columns_equal_one_drive_calls(deltas, epsilons, gamma):
    # a many-drive call is its one-drive calls side by side, bit for bit in
    # value and tail
    values, tails = dw_response_grid(deltas, epsilons, gamma, 1.0)
    for j, e in enumerate(epsilons):
        one_values, one_tails = dw_response_grid(deltas, np.array([e]), gamma, 1.0)
        assert values[:, [j]].tobytes() == one_values.tobytes()
        assert tails[:, [j]].tobytes() == one_tails.tobytes()
    if gamma == _ESCALATING_CELL[2]:
        assert tails[1, 1] == 0.0


def test_term_cap_escalates_every_path(monkeypatch):
    # a cell that reaches SERIES_MAX_TERMS is redone in 50 digits, on the
    # grid, in dw_response and in hyper_0f2 alike
    delta, eps, gamma = -5.2, 3.2, 2.0
    b1, b2, z = complex(delta, -1.0), complex(delta, 1.0), 2.0 * eps * eps
    assert hyp0f2_series(b1, b2, z)[2] > 5
    monkeypatch.setattr(closedform, "SERIES_MAX_TERMS", 5)
    exact = closedform._dw_mpmath(delta, eps, gamma, 1.0)
    values, tails = dw_response_grid(np.array([delta]), np.array([eps]), gamma, 1.0)
    assert values[0, 0] == exact and tails[0, 0] == 0.0
    assert dw_response(ModelParams(delta=delta, chi=1.0, epsilon=eps, gamma=gamma)) == exact
    assert hyper_0f2(b1, b2, z) == closedform._hyp0f2_mpmath(b1, b2, z)
    assert abs(exact - mp_dw(delta, eps, gamma, 1.0)) <= 1e-15 * abs(exact)


# The series loop as it stood before its term steps were taken in place:
# fresh arrays at every term and a gather of the live arrays whenever a
# cell finishes.  It is the oracle of the in-place loop's bits.
def _oracle_store(out, idx, total, peak, mag, k):
    value, ratio, terms, tail = out
    amag = np.abs(total)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio[idx] = np.where(amag > 0.0, peak / amag, np.inf)
        tail[idx] = np.where(amag > 0.0, mag / amag, np.inf)
    value[idx] = total
    terms[idx] = k


def _oracle_series_block(b1, b2, z, out):
    n = b1.size
    live = np.arange(n)
    kmax = -float(min(b1.real.min(), b2.real.min()))
    total = np.ones(n, dtype=complex)
    term = np.ones(n, dtype=complex)
    peak = np.ones(n)
    prev_mag = np.ones(n)
    decreasing = np.zeros(n, dtype=np.int64)
    k = 0
    while live.size and k < closedform.SERIES_MAX_TERMS:
        term = term * z / ((k + 1.0) * (b1 + k) * (b2 + k))
        total = total + term
        mag = np.abs(term)
        amag = np.abs(total)
        np.maximum(peak, amag, out=peak)
        decreasing = np.where(mag <= prev_mag, decreasing + 1, 0)
        prev_mag = mag
        k += 1
        done = (decreasing >= 3) & (mag <= closedform.SERIES_RTOL * amag)
        if k <= kmax and done.any():
            done[done] = (b1.real[done] + k > 0) & (b2.real[done] + k > 0)
        if done.any():
            _oracle_store(out, live[done], total[done], peak[done], mag[done], k)
            keep = ~done
            live = live[keep]
            b1, b2, z = b1[keep], b2[keep], z[keep]
            term, total, peak = term[keep], total[keep], peak[keep]
            prev_mag, decreasing = prev_mag[keep], decreasing[keep]
    _oracle_store(out, live, total, peak, prev_mag, k)


def _oracle_hyp0f2_series(b1, b2, z, block=4096):
    b1, b2, z = np.broadcast_arrays(
        np.asarray(b1, dtype=complex), np.asarray(b2, dtype=complex), np.asarray(z, dtype=complex)
    )
    out = (
        np.empty(b1.shape, dtype=complex),
        np.empty(b1.shape),
        np.empty(b1.shape, dtype=np.int64),
        np.empty(b1.shape),
    )
    flat_out = [a.reshape(-1) for a in out]
    for start in range(0, b1.size, block):
        cells = slice(start, start + block)
        _oracle_series_block(b1.flat[cells], b2.flat[cells], z.flat[cells], [a[cells] for a in flat_out])
    return out


def _grid_series_args(deltas, epsilons, gamma, chi):
    """The (b1, b2, z) of dw_response_grid's numerator and denominator series, formed as it forms them."""
    d = np.asarray(deltas, dtype=float)[:, None]
    e = np.asarray(epsilons, dtype=float)[None, :]
    b_first = np.stack(((d + chi - 0.5j * gamma) / chi, (d - 0.5j * gamma) / chi))
    return b_first, (d + 0.5j * gamma) / chi, 2.0 * e * e / (chi * chi)


def _seeded_series_args():
    from seeded_cells import seeded_draw

    cells = [np.broadcast_arrays(*_grid_series_args([d], [e], g, x)) for d, x, e, g in seeded_draw()]
    return tuple(np.concatenate([c[i].reshape(-1) for c in cells]) for i in range(3))


def _three_blocks():
    # broadcast inputs over three _SERIES_BLOCK blocks, the last one short
    rng = np.random.default_rng(33)
    m = closedform._SERIES_BLOCK - 5
    b1 = rng.uniform(-8.0, 4.0, (3, m)) + 1j * rng.uniform(-3.0, 3.0, (3, m))
    return b1, rng.uniform(-8.0, 4.0, m) + 0.5j, rng.uniform(0.0, 40.0, (3, 1))


_LINESHAPE_DELTAS, _LINESHAPE_EPSILONS = np.linspace(-10.0, 2.0, 241), np.linspace(0.05, 5.0, 100)
_SERIES_ORACLE_INPUTS = {
    # the benchmark's lineshape grids
    "lineshape-gamma-2": lambda: _grid_series_args(_LINESHAPE_DELTAS, _LINESHAPE_EPSILONS, 2.0, 1.0),
    "lineshape-gamma-0.01": lambda: _grid_series_args(_LINESHAPE_DELTAS, _LINESHAPE_EPSILONS, 0.01, 1.0),
    "seeded-draw": _seeded_series_args,
    "z-zero": lambda: (0.7 + 0.3j, -2.5 + 1.0j, 0.0),
    # cells that stop only once k > -Re b, past a dip below the tolerance
    "resurgence": lambda: (-48.0 - 1.0j, -48.0 + 1.0j, 5000.0),
    "small-chi": lambda: _grid_series_args([-2.4, -2.0], [1.5, 2.5], 0.1, 0.05),
    # a one-cell array, as a scalar call or a compacted block leaves it:
    # there numpy forms a complex product written over an operand without
    # the fused multiply-add, and this sum's imaginary part then moves
    # (the denominator series of seeded cell 505)
    "one-cell": lambda: (
        np.array([-58.03736869244565 - 4.923743678086801j]),
        -58.03736869244565 + 4.923743678086801j,
        27748.361560318837,
    ),
    "escalating": lambda: _grid_series_args([_ESCALATING_CELL[0]], [_ESCALATING_CELL[1]], _ESCALATING_CELL[2], 1.0),
    "three-blocks": _three_blocks,
}


@pytest.mark.parametrize("name", list(_SERIES_ORACLE_INPUTS))
def test_hyp0f2_series_equals_the_series_oracle(name):
    # value, peak ratio, term count and tail, bit for bit
    args = _SERIES_ORACLE_INPUTS[name]()
    got = hyp0f2_series(*args)
    want = _oracle_hyp0f2_series(*args)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)
    if name in ("resurgence", "small-chi"):
        b1, b2, _ = np.broadcast_arrays(*args)
        assert np.all(got[2] > -np.minimum(b1.real, b2.real))


def test_store_zero_sum_gauges_equal_the_series_oracle(monkeypatch):
    # an exactly zero sum has infinite peak ratio and tail
    got, want = (
        (np.empty(3, dtype=complex), np.empty(3), np.empty(3, dtype=np.int64), np.empty(3)) for _ in range(2)
    )
    args = (np.array([0, 2]), np.array([0.0, 1.0 + 1.0j]), np.array([2.0, 3.0]), np.array([1e-20, 0.0]), 7)
    closedform._store(got, *args)
    _oracle_store(want, *args)
    for g, w in zip(got, want):
        assert np.array_equal(g[[0, 2]], w[[0, 2]])
    assert got[1][0] == got[3][0] == np.inf
    # and through the series: 1 + z / (b1 b2) = 0 when the term cap is 1
    monkeypatch.setattr(closedform, "SERIES_MAX_TERMS", 1)
    value, ratio, terms, tail = hyp0f2_series(1.0, 1.0, -1.0)
    assert (value, ratio, terms, tail) == (0.0, np.inf, 1, np.inf)
    assert [a.tolist() for a in _oracle_hyp0f2_series(1.0, 1.0, -1.0)] == [0.0, np.inf, 1, np.inf]


def test_seeded_closed_form_check_fails_without_the_pole_guard(monkeypatch):
    # the guard against stopping a series before k > -Re b sits in one
    # predicate; with it always passing, the seeded mpmath check must fail
    # (23 of its cells, 2.37 relative at worst)
    import test_oracle

    monkeypatch.setattr(closedform, "_past_poles", lambda re_b1, re_b2, k: np.ones(re_b1.shape, dtype=bool))
    with pytest.raises(AssertionError, match=r"^\d+ cells \(delta, chi, epsilon, gamma, rel. error\) off"):
        test_oracle.test_seeded_closed_form_matches_mpmath()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: hyper_0f2(1.0, 1.0, np.inf), "z"),
        (lambda: hyper_0f2(1.0, 1.0, np.nan), "z"),
        (lambda: hyper_0f2(np.nan, 1.0, 1.0), "b1"),
        (lambda: dw_response_grid([np.nan], [1.0], 1.0, 1.0), "deltas"),
        (lambda: dw_response_grid([-1.0], [np.inf], 1.0, 1.0), "epsilons"),
        (lambda: dw_response_grid([-1.0], [1.0], np.nan, 1.0), "gamma"),
        (lambda: dw_response_grid([-1.0], [1.0], 1.0, np.inf), "chi"),
    ],
    ids=["z-inf", "z-nan", "b1-nan", "delta-nan", "epsilon-inf", "gamma-nan", "chi-inf"],
)
def test_non_finite_closed_form_input_is_rejected(call, name):
    # each once returned a value, ran 20000 terms or raised an unrelated error
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


@pytest.mark.parametrize(
    "gamma, chi, match",
    [
        (True, 1.0, "gamma=True"),
        (np.True_, 1.0, re.escape("gamma=np.True_")),
        (0.1, True, "chi=True"),
        (0.1j, 1.0, "gamma=0.1j"),
        (0.1, 1 + 0j, re.escape("chi=(1+0j)")),
        ("0.1", 1.0, "gamma='0.1'"),
        (0.1, None, "chi=None"),
    ],
)
def test_dw_response_grid_rejects_the_rates_the_onset_scan_rejects(monkeypatch, gamma, chi, match):
    # a bool was read as 1, and a complex chi raised a bare TypeError from
    # chi <= 0; both routes now share one check, made before any series
    def summed(*args):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(closedform, "hyp0f2_series", summed)
    with pytest.raises(ValueError, match=match):
        dw_response_grid([-1.0], [0.1], gamma, chi)


@pytest.mark.parametrize(
    "deltas, epsilons, name",
    [
        (np.array([-1 + 0.5j]), [0.1], "deltas"),
        ([-1 + 0.5j], [0.1], "deltas"),
        ([-1.0], np.array([0.1 + 0j]), "epsilons"),
    ],
)
def test_dw_response_grid_rejects_complex_detunings_and_drives(deltas, epsilons, name):
    # numpy's cast to float dropped the imaginary part after a ComplexWarning
    with pytest.raises(ValueError, match=f"^{name} must be real, got {name}="):
        dw_response_grid(deltas, epsilons, 1.0, 1.0)


def test_dw_response_grid_takes_numpy_real_rates():
    want = dw_response_grid([-1.0, 0.5], [0.1, 2.0], 0.1, 1.0)
    got = dw_response_grid([-1.0, 0.5], [0.1, 2.0], np.float64(0.1), np.int64(1))
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def mp_slope_derivatives(delta, chi, epsilon, gamma, dps=40):
    """u, du/d delta, d^2u/d delta^2, du/d epsilon, d^2u/d epsilon d delta of u = d/d delta log|<a>|^2.

    mpmath.diff's derivatives of log|<a>|^2, with <a> formed in mpmath.
    """
    import mpmath

    with mpmath.workdps(dps):
        x, g = mpmath.mpf(chi), mpmath.mpf(gamma)

        def log_abs2(d, e):
            z = 2 * e * e / (x * x)
            b = mpmath.mpc(d, -g / 2) / x
            c = mpmath.mpc(d, g / 2) / x
            value = -(e / (x * b)) * mpmath.hyper([], [b + 1, c], z) / mpmath.hyper([], [b, c], z)
            return mpmath.log(abs(value) ** 2)

        at = (mpmath.mpf(delta), mpmath.mpf(epsilon))
        orders = ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1))
        return [float(mpmath.diff(log_abs2, at, o)) for o in orders]


# (delta, chi, epsilon, gamma): point C and a cell on its line, the Fano
# line, cells next to the n = 1, 2, 3 lines, and a small chi
_SLOPE_CELLS = [
    (-5.2, 1.0, 3.2, 2.0),
    (-6.2, 1.0, 3.2, 2.0),
    (-1.0, 1.0, 0.012, 0.01),
    (-1.003, 1.0, 0.0035, 0.01),
    (-2.001, 1.0, 0.06, 0.01),
    (-3.002, 1.0, 0.2, 0.01),
    (-0.1, 0.05, 0.02, 0.003),
]


@pytest.mark.parametrize("cell", _SLOPE_CELLS)
def test_slope_derivatives_match_mpmath(cell):
    # within 1e-14 relative today (9.8e-15 at worst, point C's d^2u/d delta^2)
    derivs, escalates = closedform._slope_derivatives(*np.array([cell]).T)
    assert not escalates[0]
    np.testing.assert_allclose(derivs[:, 0], mp_slope_derivatives(*cell), rtol=1e-13, atol=0.0)


def test_slope_derivatives_of_a_cell_do_not_depend_on_the_cells_beside_it():
    # each cell stops its sums on its own terms, so the seeded draw in one
    # call is its 600 one-cell calls bit for bit; no cell of it escalates
    from seeded_cells import seeded_draw

    cells = np.array(seeded_draw())
    derivs, escalates = closedform._slope_derivatives(*cells.T)
    assert not escalates.any()
    for i in range(len(cells)):
        one, _ = closedform._slope_derivatives(*cells[i : i + 1].T)
        assert one.tobytes() == derivs[:, i : i + 1].tobytes()


def test_slope_derivatives_flag_a_cell_that_escalates():
    delta, epsilon, gamma = _ESCALATING_CELL
    cells = np.array([[delta, 1.0, epsilon, gamma], [-9.5, 1.0, 3.0, gamma]])
    assert closedform._slope_derivatives(*cells.T)[1].tolist() == [True, False]


# _slope_derivatives as it stood before its term steps were taken in
# place: fresh arrays at every term.  It is the oracle of the in-place
# loop's bits.
def _oracle_slope_derivatives(cells):
    d, chi, e, g = np.asarray(cells, dtype=float).T
    m = d.size
    # the numerator series of every cell, then the denominator series
    b1 = np.concatenate(((d + chi - 0.5j * g) / chi, (d - 0.5j * g) / chi))
    b2 = np.tile((d + 0.5j * g) / chi, 2)
    z = np.tile(2.0 * e * e / (chi * chi), 2)
    kmax = -min(b1.real.min(), b2.real.min())
    term, p1, p2, p3 = np.zeros((4, 2 * m), dtype=complex)
    term += 1.0
    # sums of the terms and their three delta-derivatives (times chi^j),
    # then of k times the first three; a cell's are copied to out when it
    # stops
    sums = np.zeros((7, 2 * m), dtype=complex)
    sums[0] = 1.0
    out = sums.copy()
    peak, prev_mag, ratio = np.ones((3, 2 * m))
    terms, decreasing = np.zeros((2, 2 * m), dtype=np.int64)
    alive = np.ones(2 * m, dtype=bool)
    k = 0
    while alive.any() and k < closedform.SERIES_MAX_TERMS:
        r1, r2 = 1.0 / (b1 + k), 1.0 / (b2 + k)
        term = term * z / ((k + 1.0) * (b1 + k) * (b2 + k))
        p1 = p1 - (r1 + r2)
        p2 = p2 + (r1 * r1 + r2 * r2)
        p3 = p3 - 2.0 * (r1 * r1 * r1 + r2 * r2 * r2)
        w2 = p1 * p1 + p2
        weighted = term * np.stack((np.ones_like(p1), p1, w2, p1 * (w2 + 2.0 * p2) + p3))
        sums[:4] += weighted
        sums[4:] += (k + 1.0) * weighted[:3]
        mag, amag = np.abs(term), np.abs(sums[0])
        peak = np.maximum(peak, amag)
        decreasing = (decreasing + 1) * (mag <= prev_mag)
        prev_mag = mag
        k += 1
        done = alive & (mag <= closedform.SERIES_RTOL * amag) & (decreasing >= 3)
        if k <= kmax:
            done &= (b1.real + k > 0) & (b2.real + k > 0)
        out[:, done], ratio[done], terms[done] = sums[:, done], peak[done] / amag[done], k
        alive &= ~done
    out[:, alive], ratio[alive], terms[alive] = sums[:, alive], peak[alive] / amag[alive], k
    escalates = closedform._escalates(ratio, terms)
    # each series' l_j = chi^j d^j log F / d delta^j from f_j = chi^j F^(j) / F,
    # and el_j = (epsilon / 2) d l_j / d epsilon from e_j = sum k t_k^(j) / F
    f1, f2, f3, e0, e1, e2 = out[1:] / out[0]
    l2 = f2 - f1 * f1
    l3 = f3 - 3.0 * f1 * f2 + 2.0 * f1 * f1 * f1
    el1 = e1 - f1 * e0
    el2 = e2 - f2 * e0 - 2.0 * f1 * el1
    n1, n2, n3, ne1, ne2 = ((x[:m] - x[m:]).real for x in (f1, l2, l3, el1, el2))
    c = 1.0 / (d - 0.5j * g)  # |<a>| = epsilon |c| |num / den|
    rows = np.array(
        [
            2.0 * n1 / chi - 2.0 * c.real,
            2.0 * n2 / chi**2 + 2.0 * (c * c).real,
            2.0 * n3 / chi**3 - 4.0 * (c * c * c).real,
            4.0 * ne1 / (chi * e),
            4.0 * ne2 / (chi**2 * e),
        ]
    )
    return rows, escalates[:m] | escalates[m:]


def _onset_ladder_cells(rates, rungs):
    """The (delta, chi, epsilon, gamma) table of an n = 1 onset ladder call at chi = 1, at rungs ``rungs``.

    Each rate's rung j is 0.05 gamma times 1.25 j times over, at 61
    detunings 0.4 gamma apart; the line turns over at rung 9.
    """
    rates = np.asarray(rates)
    drives = [0.05 * rates]
    while len(drives) <= max(rungs):
        drives.append(drives[-1] * 1.25)
    deltas = -1.0 + np.arange(-30, 31) / 2.5 * rates[:, None]
    cells = np.broadcast_arrays(deltas, 1.0, np.array(drives)[rungs, :, None], rates[:, None])
    return np.stack(cells, axis=-1).reshape(-1, 4)


def _seeded_slope_cells():
    from seeded_cells import seeded_draw

    return np.array(seeded_draw())


_SLOPE_ORACLE_TABLES = {
    "mpmath-cells": lambda: np.array(_SLOPE_CELLS),
    "seeded-draw": _seeded_slope_cells,
    "escalating": lambda: np.array([(_ESCALATING_CELL[0], 1.0) + _ESCALATING_CELL[1:], (-9.5, 1.0, 3.0, 1e-9)]),
    # onset ladder calls: three cells at the line centre, one rung of
    # three rates, and four rungs of three rates around the turnover
    "ladder-3": lambda: _onset_ladder_cells([0.01], [9])[29:32],
    "ladder-183": lambda: _onset_ladder_cells([0.003, 0.01, 0.03], [9]),
    "ladder-732": lambda: _onset_ladder_cells([0.003, 0.01, 0.03], [8, 9, 10, 11]),
}


@pytest.mark.parametrize("name", list(_SLOPE_ORACLE_TABLES))
def test_slope_derivatives_equal_the_out_of_place_oracle(name):
    # rows and escalation mask bit for bit, on the whole table and on each
    # cell alone
    cells = _SLOPE_ORACLE_TABLES[name]()
    got, want = closedform._slope_derivatives(*cells.T), _oracle_slope_derivatives(cells)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tolist() == want[1].tolist()
    for i in range(0, len(cells), max(1, len(cells) // 25)):
        got, want = closedform._slope_derivatives(*cells[i : i + 1].T), _oracle_slope_derivatives(cells[i : i + 1])
        assert got[0].tobytes() == want[0].tobytes() and got[1].tolist() == want[1].tolist()


def test_slope_derivatives_of_no_cells():
    # min() of the empty parameter arrays raised
    rows, escalates = closedform._slope_derivatives(*np.empty((0, 4)).T)
    assert rows.shape == (5, 0) and rows.dtype == float
    assert escalates.shape == (0,) and escalates.dtype == bool


def test_column_calls_are_their_one_cell_calls_bit_for_bit():
    # _response on the seeded draw's columns, with the escalating cell
    # after them, gives each cell's one-cell grid value and tail
    from seeded_cells import seeded_draw

    cells = np.array(seeded_draw() + [(_ESCALATING_CELL[0], 1.0) + _ESCALATING_CELL[1:]])
    values, tails = closedform._response(*cells.T)
    assert tails[-1] == 0.0
    for i, (delta, chi, epsilon, gamma) in enumerate(cells.tolist()):
        one = dw_response_grid([delta], [epsilon], gamma, chi)
        assert values[i : i + 1].tobytes() == one[0].tobytes() and tails[i : i + 1].tobytes() == one[1].tobytes()
    # ten copies of the draw hold 12000 series, which hyp0f2_series sums in
    # two blocks; every copy's rows are the one-cell rows
    cells = cells[:-1]
    table = np.tile(cells, (10, 1))
    assert 2 * len(table) > closedform._SERIES_BLOCK
    rows, escalates = closedform._slope_derivatives(*table.T)
    assert not escalates.any()
    for i in range(len(cells)):
        one, _ = closedform._slope_derivatives(*cells[i : i + 1].T)
        assert rows[:, i :: len(cells)].tobytes() == np.repeat(one, 10, axis=1).tobytes()
