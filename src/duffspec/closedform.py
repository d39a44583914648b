"""Closed-form steady-state response via generalized hypergeometric functions.

The driven Kerr oscillator's steady-state amplitude has an exact expression
as a ratio of 0F2 functions of z = 2 epsilon^2 / chi^2 with complex lower
parameters built from (delta, chi, gamma).  0F2 is entire in z, so the
power series always converges; the practical hazards are parameter poles
(nonpositive-integer lower parameters, only reachable at gamma = 0) and
catastrophic cancellation at large |z|.  One rule escalates a cell to
50-digit arithmetic: its partial sums peak more than CANCEL_RATIO above
its final value, or its series reaches SERIES_MAX_TERMS terms (_escalates).
Cells enter one way, as (delta, chi, epsilon, gamma) columns that broadcast
together: the grid (dw_response_grid) and its one-cell case (dw_response)
are _response's cases, and the onset's slopes are _slope_derivatives'.
Both sum through one driver (hyp0f2_series) and its one loop
(_series_block), in blocks of cells, in place in one set of buffers per
block; finished cells are masked out, and compacted away once a quarter
of them are done.  On request the loop sums the terms' delta-derivatives
beside them.
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
    """One block of flat arrays for hyp0f2_series, its only caller, written into the ``out`` views.

    Every live cell takes the same term step in place, in one set of
    buffers, by the operations of term * z / ((k + 1.0) * (b1 + k) * (b2 + k))
    in their order, so each value and gauge keeps its bits.  A finished
    cell is stored at once and masked out of ``alive``; the live arrays
    are compacted once a quarter of them have finished.  The guard
    (_past_poles; k >= 1 here) is tested only on the cells that meet the
    term rule, and only while k <= kmax, the block's largest -Re b, past
    which it holds for every cell.

    Given ``slopes``, a (6, n) complex view, each cell also carries
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


def hyp0f2_series(b1, b2, z, slopes=False):
    """Power series for 0F2(; b1, b2; z) = sum_k z^k / (k! (b1)_k (b2)_k).

    Sums every cell of the broadcast arrays (b1, b2, z) at once, in
    blocks of _SERIES_BLOCK cells (_series_block).  Pochhammer factors accumulate
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
    peak_ratio and tail_rel are inf where the sum is exactly zero.  With
    ``slopes``, a fifth array (6,) + shape holds _series_block's term sums.
    """
    b1, b2, z = np.broadcast_arrays(
        np.asarray(b1, dtype=complex), np.asarray(b2, dtype=complex), np.asarray(z, dtype=complex)
    )
    out = tuple(np.empty(b1.shape, dtype=t) for t in (complex, float, np.int64, float))
    out += (np.empty((6,) + b1.shape, dtype=complex),) if slopes else ()
    flat_out = [a.reshape(-1) for a in out[:4]]
    # one contiguous copy of the (possibly broadcast) inputs; blocks are views
    b1, b2, z = (a.ravel() for a in (b1, b2, z))
    for start in range(0, b1.size, _SERIES_BLOCK):
        block = slice(start, start + _SERIES_BLOCK)
        sums = out[4].reshape(6, -1)[:, block] if slopes else None
        _series_block(b1[block], b2[block], z[block], [a[block] for a in flat_out], sums)
    return out


def hyper_0f2(b1, b2, z):
    """0F2(; b1, b2; z) for complex parameters and argument.

    hyp0f2_series' value, recomputed in 50 digits by the grid's rule
    (_escalates).  Raises ParameterPoleError when b1 or b2 sits on a
    nonpositive integer, ValueError when an argument is not finite.
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


def _real_array(name, value):
    """value as a float array; a complex value, whose imaginary part the cast drops, raises ValueError."""
    if np.iscomplexobj(value):
        raise ValueError(f"{name} must be real, got {name}={value!r}")
    return np.asarray(value, dtype=float)


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


def _ratio_series(d, chi, e, g, slopes=False):
    """hyp0f2_series of the response ratio's two series on broadcast (delta, chi, epsilon, gamma) columns.

    Returns (value, tail, escalates[, sums]): value and sums stack the
    numerator's series over the denominator's; tail and escalates (_escalates)
    are the larger and either of the two.
    """
    # each on its own columns' shape: broadcasting the columns first cost the grids ~5 %
    num, den, b2, z = np.broadcast_arrays(
        (d + chi - 0.5j * g) / chi, (d - 0.5j * g) / chi, (d + 0.5j * g) / chi, 2.0 * e * e / (chi * chi)
    )
    value, ratio, terms, tail, *sums = hyp0f2_series(np.stack((num, den)), b2, z, slopes)
    return value, np.maximum(*tail), np.logical_or(*_escalates(ratio, terms)), *sums


def _response(d, chi, e, g):
    """dw_response on broadcast (delta, chi, epsilon, gamma) columns, unchecked: (values, tails).

    tails holds each cell's last series term relative to its sum, 0 where
    either series escalates (_escalates) and mpmath redoes the cell whole.
    The rest is rounded as Python's complex arithmetic rounds it, so a cell
    is the formula on hyper_0f2's values bit for bit, whatever cells sit
    beside it.
    """
    (num, den), tails, escalates = _ratio_series(d, chi, e, g)
    with np.errstate(divide="ignore", invalid="ignore"):
        # -(e / (d - i gamma/2)) * num / den, where -(e / c) is e / (-c) to
        # the bit; numpy's complex product fuses a multiply-add on FMA CPUs
        fr, fi = _quot(e, 0.0, -d, 0.5 * g)
        qr, qi = fr * num.real - fi * num.imag, fr * num.imag + fi * num.real
        vr, vi = _quot(qr, qi, den.real, den.imag)
    values = np.empty(vr.shape, dtype=complex)
    values.real, values.imag = vr, vi
    for cell in map(tuple, np.argwhere(escalates)):
        values[cell] = _dw_mpmath(*(float(np.broadcast_to(c, values.shape)[cell]) for c in (d, e, g, chi)))
        tails[cell] = 0.0
    return values, tails


def dw_response_grid(deltas, epsilons, gamma, chi):
    """_response on the outer grid deltas x epsilons: (values, tails).

    A complex deltas or epsilons, a NaN or infinite argument, a gamma or
    chi that is not a real number (a bool is not), chi <= 0 or gamma <= 0
    raises ValueError.
    """
    deltas = _real_array("deltas", deltas)
    epsilons = _real_array("epsilons", epsilons)
    _check_rate("gamma", gamma)
    _check_rate("chi", chi)
    _require_finite(deltas=deltas, epsilons=epsilons, gamma=gamma, chi=chi)
    if chi <= 0:
        raise ValueError("closed-form response requires chi > 0")
    if gamma <= 0:
        raise ValueError("closed-form response requires gamma > 0")
    return _response(deltas[:, None], chi, epsilons[None, :], gamma)


def _slope_derivatives(d, chi, e, g):
    """u = d/d delta log|<a>|^2 and four of its derivatives on the broadcast (delta, chi, epsilon, gamma) columns.

    Returns (rows, escalates) in the columns' broadcast shape: rows u,
    du/d delta, d^2u/d delta^2, du/d epsilon and d^2u/d epsilon d delta,
    and the cells whose series would be redone in 50 digits (_escalates).
    Both lower parameters move with delta at rate 1/chi, so the term t_k of
    0F2(; b1, b2; z) has the log-derivative p1 = -sum_{i<k} [1/(b1+i) +
    1/(b2+i)] / chi (the ratio is Drummond and Walls', J. Phys. A 13, 725
    (1980)).  With p2 = dp1/d delta and p3 = dp2/d delta its derivatives
    are t_k p1, t_k (p1^2 + p2) and t_k (p1^3 + 3 p1 p2 + p3), and
    d t_k / d epsilon = 2 k t_k / epsilon.  The value loop (_series_block)
    sums these beside the terms, so a cell stops by hyp0f2_series' rule
    on its value terms, whatever cells sit beside it, and is summed no
    further.
    """
    value, _, escalates, sums = _ratio_series(d, chi, e, g, slopes=True)
    # each series' l_j = chi^j d^j log F / d delta^j from f_j = chi^j F^(j) / F,
    # and el_j = (epsilon / 2) d l_j / d epsilon from e_j = sum k t_k^(j) / F
    f1, f2, f3, e0, e1, e2 = sums / value
    l2 = f2 - f1 * f1
    l3 = f3 - 3.0 * f1 * f2 + 2.0 * f1 * f1 * f1
    el1 = e1 - f1 * e0
    el2 = e2 - f2 * e0 - 2.0 * f1 * el1
    n1, n2, n3, ne1, ne2 = ((num - den).real for num, den in (f1, l2, l3, el1, el2))
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
    return rows, escalates


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
