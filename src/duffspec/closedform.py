"""Closed-form steady-state response via generalized hypergeometric functions.

The driven Kerr oscillator's steady-state amplitude has an exact expression
as a ratio of 0F2 functions of z = 2 epsilon^2 / chi^2 with complex lower
parameters built from (delta, chi, gamma).  0F2 is entire in z, so the
power series always converges; the practical hazards are parameter poles
(nonpositive-integer lower parameters, only reachable at gamma = 0) and
catastrophic cancellation at large |z|.  One rule escalates a cell to
50-digit arithmetic: its partial sums peak more than CANCEL_RATIO above
its final value, or its series reaches SERIES_MAX_TERMS terms (_escalates).
The scalar dw_response is dw_response_grid on a one-cell grid.  One loop
(_series_block) sums every series, in blocks of cells, in place in one set of
buffers per block; finished cells are masked out, and compacted away once a
quarter of them are done.  On request it sums the terms' delta-derivatives
beside them, for the onset's slopes (_slope_derivatives).
"""

import cmath
import numbers

import numpy as np

SERIES_RTOL = 1e-14
SERIES_MAX_TERMS = 20000
# Ratio of peak partial-sum magnitude to final magnitude beyond which a
# cell is re-evaluated in extended precision (_escalates).
CANCEL_RATIO = 1e8
# Cells summed together: a block's buffers (~1.4 MB at 8192 cells) fit a
# 2 MB L2 cache, and its per-term numpy calls are few per cell.
_SERIES_BLOCK = 8192
_MP_DPS = 50
_INT_TOL = 1e-12


class ParameterPoleError(ValueError):
    """A lower parameter of 0F2 sits on a nonpositive integer."""


def _check_pole(b):
    b = complex(b)
    if abs(b.imag) < _INT_TOL:
        nearest = round(b.real)
        if nearest <= 0 and abs(b.real - nearest) < _INT_TOL:
            raise ParameterPoleError(
                f"lower parameter {b} sits on the nonpositive integer {nearest}; "
                "the Pochhammer factor vanishes"
            )
    return b


def _hyp0f2_mpmath(b1, b2, z):
    import mpmath

    with mpmath.workdps(_MP_DPS):
        value = mpmath.hyper([], [mpmath.mpc(b1), mpmath.mpc(b2)], mpmath.mpc(z))
        return complex(value)


def _store(out, idx, total, peak, mag, k):
    """Write finished cells' value and gauges to positions ``idx`` of ``out``."""
    value, ratio, terms, tail = out
    amag = np.abs(total)
    ratio[idx] = np.divide(peak, amag, out=np.full(amag.shape, np.inf), where=amag > 0.0)
    tail[idx] = np.divide(mag, amag, out=np.full(amag.shape, np.inf), where=amag > 0.0)
    value[idx] = total
    terms[idx] = k


def _past_poles(re_b1, re_b2, k):
    """The guard of hyp0f2_series' stop rule, per cell: k > max(-Re b1, -Re b2)."""
    return (re_b1 + k > 0) & (re_b2 + k > 0)


def _series_block(b1, b2, z, out, slopes=None):
    """hyp0f2_series on one block of flat arrays, written into the ``out`` views.

    Every live cell takes the same term step in place, in one set of
    buffers, by the operations of term * z / ((k + 1.0) * (b1 + k) * (b2 + k))
    in their order, so each value and gauge keeps its bits.  A finished
    cell is stored at once and masked out of ``alive``; the live arrays
    are compacted once a quarter of them have finished.  The guard
    (_past_poles; k >= 1 here) is tested only on the cells that meet the
    term rule, and only while k <= kmax, the block's largest -Re b, past
    which it holds for every cell.

    Given ``slopes``, a (6, n) complex array, each cell also carries
    p1 = -sum_{i<k} [1/(b1+i) + 1/(b2+i)] and its delta-derivatives p2
    and p3 (times chi^j; _slope_derivatives).  It sums its terms times
    p1, w2 = p1^2 + p2 and w3 = p1 (w2 + 2 p2) + p3, then k times its
    terms times 1, p1 and w2, and writes the six sums to ``slopes`` when
    it stops.
    """
    n = b1.size
    live = np.arange(n)
    kmax = -float(min(b1.real.min(), b2.real.min()))
    total, term = np.ones((2, n), dtype=complex)
    peak, prev_mag = np.ones((2, n))
    decreasing = np.zeros(n, dtype=np.int32)  # int32 steps faster than int64
    alive = np.ones(n, dtype=bool)
    shift, factor, den = np.empty((3, n), dtype=complex)
    mag, amag = np.empty((2, n))
    done, falling = np.empty((2, n), dtype=bool)
    if slopes is not None:
        # rows 1, p1, w2, w3, p2, p3; the first four weigh a term's sums
        weights, sums = np.zeros((2, 6, n), dtype=complex)
        weights[0] = 1.0
        r, r2, r3 = np.empty((3, 2, n), dtype=complex)
        weighted, counted = np.empty((4, n), dtype=complex), np.empty((3, n), dtype=complex)

    def store(cells, mag):
        _store(out, live[cells], total[cells], peak[cells], mag[cells], k)
        if slopes is not None:
            slopes[:, live[cells]] = sums.compress(cells, axis=1)

    finished = k = 0
    while finished < live.size and k < SERIES_MAX_TERMS:
        # no complex product or quotient writes over an operand: on a
        # one-cell array numpy then forms it without the fused multiply-add
        np.add(b1, k, out=shift)
        np.multiply(k + 1.0, shift, out=factor)
        np.add(b2, k, out=shift)
        np.multiply(factor, shift, out=den)
        np.multiply(term, z, out=shift)
        np.divide(shift, den, out=term)
        if slopes is not None:
            # the operations of r = 1.0 / (b + k), p1 - (r1 + r2),
            # p2 + (r1 * r1 + r2 * r2) and p3 - 2.0 * (r1 * r1 * r1 +
            # r2 * r2 * r2) in their order; shift and factor are free here
            _, p1, w2, w3, p2, p3 = weights
            np.add(b1, k, out=r2[0])
            np.add(b2, k, out=r2[1])
            np.divide(1.0, r2, out=r)
            p1 -= np.add(*r, out=shift)
            p2 += np.add(*np.multiply(r, r, out=r2), out=shift)
            p3 -= np.multiply(2.0, np.add(*np.multiply(r2, r, out=r3), out=shift), out=factor)
            np.multiply(p1, p1, out=w2)
            w2 += p2
            np.multiply(p1, np.add(w2, np.multiply(2.0, p2, out=shift), out=factor), out=w3)
            w3 += p3
            np.multiply(term, weights[:4], out=weighted)
            sums[:3] += weighted[1:]
            sums[3:] += np.multiply(k + 1.0, weighted[:3], out=counted)
        total += term
        np.abs(term, out=mag)
        np.abs(total, out=amag)
        np.maximum(peak, amag, out=peak)
        # non-strict: an exactly-zero term (z = 0, or underflow past the
        # tail) must still count as decreasing or the cell never stops
        decreasing += 1
        decreasing *= np.less_equal(mag, prev_mag, out=falling)
        k += 1
        np.less_equal(mag, np.multiply(SERIES_RTOL, amag, out=amag), out=done)
        done &= np.greater_equal(decreasing, 3, out=falling)
        done &= alive
        if done.any():
            if k <= kmax:
                done[done] = _past_poles(b1.real[done], b2.real[done], k)
            store(done, mag)
            alive ^= done
            finished += np.count_nonzero(done)
        mag, prev_mag = prev_mag, mag
        if 4 * finished >= live.size > finished:
            live, b1, b2, z = live[alive], b1[alive], b2[alive], z[alive]
            term, total, peak = term[alive], total[alive], peak[alive]
            prev_mag, decreasing = prev_mag[alive], decreasing[alive]
            shift, factor, den, mag, amag, done, falling = (
                a[: live.size] for a in (shift, factor, den, mag, amag, done, falling)
            )
            if slopes is not None:
                # compress keeps the rows contiguous, where weights[:, alive]
                # would not, and numpy's complex product on strided rows
                # forgoes the fused multiply-add
                weights, sums = weights.compress(alive, axis=1), sums.compress(alive, axis=1)
                r, r2, r3, weighted, counted = (a[:, : live.size] for a in (r, r2, r3, weighted, counted))
            alive, finished = np.ones(live.size, dtype=bool), 0
    if finished < live.size:  # cells still live here ran into the term cap
        store(alive, prev_mag)


def hyp0f2_series(b1, b2, z):
    """Power series for 0F2(; b1, b2; z) = sum_k z^k / (k! (b1)_k (b2)_k).

    Sums every cell of the broadcast arrays (b1, b2, z) at once, in
    blocks of _SERIES_BLOCK cells.  Pochhammer factors accumulate
    incrementally.  A cell stops after term k once its relative term
    magnitude is below SERIES_RTOL, its terms have decreased for three
    consecutive orders (no stop on a dip before the series peak at large
    |z|), and k > max(0, -Re b1, -Re b2); it also stops at
    SERIES_MAX_TERMS terms.  The last condition matters where a lower
    parameter has a large negative real part: the term ratio
    z / ((k+1) (b1+k) (b2+k)) can fall and rise again while |b + k|
    shrinks, up to k ~ -Re b, so the terms may dip below the tolerance
    and then resurge.  Past k = -Re b every |b + k| grows, so the ratio
    only falls and no later term can resurge.

    Returns arrays (value, peak_ratio, terms, tail_rel) of the broadcast
    shape:
      peak_ratio  max |partial sum| / |final sum|, the cancellation gauge
      terms       number of terms summed past the leading 1
      tail_rel    magnitude of the last term relative to the result
    peak_ratio and tail_rel are inf where the sum is exactly zero.
    """
    b1, b2, z = np.broadcast_arrays(
        np.asarray(b1, dtype=complex), np.asarray(b2, dtype=complex), np.asarray(z, dtype=complex)
    )
    out = tuple(np.empty(b1.shape, dtype=t) for t in (complex, float, np.int64, float))
    flat_out = [a.reshape(-1) for a in out]
    # one contiguous copy of the (possibly broadcast) inputs; blocks are views
    b1, b2, z = (a.ravel() for a in (b1, b2, z))
    for start in range(0, b1.size, _SERIES_BLOCK):
        block = slice(start, start + _SERIES_BLOCK)
        _series_block(b1[block], b2[block], z[block], [a[block] for a in flat_out])
    return out


def hyper_0f2(b1, b2, z):
    """0F2(; b1, b2; z) for complex parameters and argument.

    Evaluated by direct power series with incremental Pochhammer products
    (hyp0f2_series).  The series stops after a term k > max(0, -Re b1,
    -Re b2), past which every |b + k| grows and no term can resurge, once
    three falling terms are below SERIES_RTOL of the sum.  It is
    recomputed in 50 digits by the grid's rule (_escalates): when the
    partial sums peak more than CANCEL_RATIO above the final magnitude, or
    the series reaches SERIES_MAX_TERMS terms.  Raises ParameterPoleError
    when b1 or b2 sits on a nonpositive integer, ValueError when an
    argument is not finite.
    """
    _require_finite(b1=b1, b2=b2, z=z)
    b1 = _check_pole(b1)
    b2 = _check_pole(b2)
    z = complex(z)
    value, ratio, terms, _tail = hyp0f2_series(b1, b2, z)
    if _escalates(ratio, terms):
        return _hyp0f2_mpmath(b1, b2, z)
    return complex(value)


def _require_finite(**arguments):
    """Raise a ValueError naming the first argument with a NaN or infinite entry."""
    for name, value in arguments.items():
        if not (np.isfinite(value).all() if isinstance(value, np.ndarray) else cmath.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _escalates(ratio, terms):
    """Cells to redo in 50 digits; a zero sum has an infinite peak ratio, so it is one."""
    return (ratio > CANCEL_RATIO) | (terms >= SERIES_MAX_TERMS)


def _dw_mpmath(delta, epsilon, gamma, chi):
    """The response ratio in 50 digits, with z and the lower parameters formed there too.

    Next to a zero of either series, rounding z = 2 epsilon^2 / chi^2 to
    double alone moves the value a long way (3.8e-7 relative at
    delta=-9.131118029238847, epsilon=3.9, gamma=1e-9, chi=1), so nothing
    is rounded before the series are summed.
    """
    import mpmath

    with mpmath.workdps(_MP_DPS):
        d, e, g, x = (mpmath.mpf(v) for v in (delta, epsilon, gamma, chi))
        z = 2 * e * e / (x * x)
        b_shared = mpmath.mpc(d, g / 2) / x
        num = mpmath.hyper([], [mpmath.mpc(d + x, -g / 2) / x, b_shared], z)
        den = mpmath.hyper([], [mpmath.mpc(d, -g / 2) / x, b_shared], z)
        return complex(-(e / mpmath.mpc(d, -g / 2)) * num / den)


def dw_response(params):
    """Exact steady-state amplitude <a> of the driven damped Kerr oscillator.

        <a> = -epsilon/(delta - i gamma/2)
              * 0F2(; (delta + chi - i gamma/2)/chi, (delta + i gamma/2)/chi; z)
              / 0F2(; (delta - i gamma/2)/chi, (delta + i gamma/2)/chi; z)

    with z = 2 epsilon^2 / chi^2.  The prefactor sign makes the epsilon -> 0
    limit agree with the linear response of the master equation with drive
    +epsilon (a + a'); the response is odd in epsilon exactly (z is even).

    The value is dw_response_grid's cell on the one-cell grid (delta,
    epsilon), escalated to 50 digits by the same rule (_escalates).
    Requires finite parameters, chi > 0 and gamma > 0 (ValueError otherwise).
    """
    values, _ = dw_response_grid([params.delta], [params.epsilon], params.gamma, params.chi)
    return complex(values[0, 0])


def _check_rate(name, value):
    """Raise ValueError unless ``value`` is a real number and not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {name}={value!r}")


def _ratio_series(d, e, gamma, chi):
    """(b1, b2, z) of the response ratio's series, b1 the numerator's stacked over the denominator's."""
    b1 = np.stack(((d + chi - 0.5j * gamma) / chi, (d - 0.5j * gamma) / chi))
    return b1, (d + 0.5j * gamma) / chi, 2.0 * e * e / (chi * chi)


def dw_response_grid(deltas, epsilons, gamma, chi):
    """Closed-form response on the outer grid deltas x epsilons.

    Returns (values, tails) where tails holds the relative magnitude of
    the last series term per cell (0 for cells that were escalated to
    extended precision).  A cell whose numerator or denominator series
    escalates (_escalates) is re-evaluated whole with mpmath, so the
    output is deterministic for a given grid.  The rest is rounded as
    Python's complex arithmetic rounds it, so a cell is the formula on
    hyper_0f2's values bit for bit.  A NaN or infinite argument, a gamma
    or chi that is not a real number (a bool is not), chi <= 0 or
    gamma <= 0 raises ValueError.
    """
    deltas = np.asarray(deltas, dtype=float)
    epsilons = np.asarray(epsilons, dtype=float)
    _check_rate("gamma", gamma)
    _check_rate("chi", chi)
    _require_finite(deltas=deltas, epsilons=epsilons, gamma=gamma, chi=chi)
    if chi <= 0:
        raise ValueError("closed-form response requires chi > 0")
    if gamma <= 0:
        raise ValueError("closed-form response requires gamma > 0")
    d = deltas[:, None]
    e = epsilons[None, :]
    # numerator and denominator series of every cell in one call
    sums, ratios, terms, tails = hyp0f2_series(*_ratio_series(d, e, gamma, chi))
    num, den = sums
    with np.errstate(divide="ignore", invalid="ignore"):
        # -(e / (d - i gamma/2)) * num / den, where -(e / c) is e / (-c) to
        # the bit; numpy's complex product fuses a multiply-add on FMA CPUs
        fr, fi = _quot(e, 0.0, -d, 0.5 * gamma)
        qr, qi = fr * num.real - fi * num.imag, fr * num.imag + fi * num.real
        vr, vi = _quot(qr, qi, den.real, den.imag)
    values = np.empty(vr.shape, dtype=complex)
    values.real, values.imag = vr, vi
    tails = np.maximum(*tails)
    for i, j in np.argwhere(np.logical_or(*_escalates(ratios, terms))):
        values[i, j] = _dw_mpmath(deltas[i], epsilons[j], gamma, chi)
        tails[i, j] = 0.0
    return values, tails


def _slope_derivatives(cells):
    """u = d/d delta log|<a>|^2 and four of its derivatives on a (delta, chi, epsilon, gamma) table.

    Returns (rows, escalates): rows u, du/d delta, d^2u/d delta^2,
    du/d epsilon and d^2u/d epsilon d delta, one column per cell, and the
    cells whose series would be redone in 50 digits (_escalates).  Both
    lower parameters move with delta at rate 1/chi, so the term t_k of
    0F2(; b1, b2; z) has the log-derivative p1 = -sum_{i<k} [1/(b1+i) +
    1/(b2+i)] / chi (the ratio is Drummond and Walls', J. Phys. A 13, 725
    (1980)).  With p2 = dp1/d delta and p3 = dp2/d delta its derivatives
    are t_k p1, t_k (p1^2 + p2) and t_k (p1^3 + 3 p1 p2 + p3), and
    d t_k / d epsilon = 2 k t_k / epsilon.  The value loop (_series_block)
    sums these beside the terms, so a cell stops by hyp0f2_series' rule
    on its value terms, whatever cells sit beside it, and is summed no
    further.
    """
    d, chi, e, g = np.asarray(cells, dtype=float).reshape(-1, 4).T
    m = d.size
    if not m:
        return np.zeros((5, 0)), np.zeros(0, dtype=bool)
    # the numerator series of every cell, then the denominator series
    b1, b2, z = _ratio_series(d, e, g, chi)
    value, ratio, terms, _ = out = tuple(np.empty(2 * m, dtype=t) for t in (complex, float, np.int64, float))
    sums = np.empty((6, 2 * m), dtype=complex)
    _series_block(b1.reshape(-1), np.concatenate((b2, b2)), np.concatenate((z, z), dtype=complex), out, sums)
    escalates = _escalates(ratio, terms)
    # each series' l_j = chi^j d^j log F / d delta^j from f_j = chi^j F^(j) / F,
    # and el_j = (epsilon / 2) d l_j / d epsilon from e_j = sum k t_k^(j) / F
    f1, f2, f3, e0, e1, e2 = sums / value
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


def _quot(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) in parts, as Python's complex division forms it.

    That is Smith's division (CACM 5, 435 (1962)); numpy's complex
    division multiplies by a reciprocal instead.  Where |bi| > |br| the
    quotient is formed as a (-i) / b (-i), which swaps the parts exactly.
    """
    swap = np.abs(br) < np.abs(bi)
    if swap.any():
        ar, ai = np.where(swap, ai, ar), np.where(swap, -ar, ai)
        br, bi = np.where(swap, bi, br), np.where(swap, -br, bi)
    ratio = bi / br
    denom = br + bi * ratio
    return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
