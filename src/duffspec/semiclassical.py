"""Mean-field steady states and the classical bistability boundary.

Factorizing correlations in the equation of motion for <a> gives the
classical amplitude equation

    (delta + 2 chi |alpha|^2 - i gamma/2) alpha = -epsilon,

whose squared magnitude n = |alpha|^2 satisfies the real cubic

    n [ (delta + 2 chi n)^2 + gamma^2/4 ] = epsilon^2.

The cubic has one or three positive roots; the fold (bifurcation)
boundary in the (delta, epsilon) plane is where a double root appears,
which exists only for delta < -(sqrt(3)/2) gamma.
"""

import math
from dataclasses import dataclass

import numpy as np

_RESIDUAL_TOL = 1e-10
# Newton steps at most for a root that fails the residual check (_newton_until_stalled)
_MAX_NEWTON_STEPS = 100


@dataclass(frozen=True)
class ClassicalBranches:
    """Classical steady-state branches, sorted by photon number.

    amplitudes      complex alpha per branch
    photon_numbers  |alpha|^2 per branch
    stable          dynamical stability flag per branch (the middle branch
                    of a bistable triple is the unstable one)
    """

    amplitudes: tuple
    photon_numbers: tuple
    stable: tuple

    def __post_init__(self):
        if len(self.amplitudes) not in (1, 2, 3):
            raise ValueError(f"expected 1-3 branches, got {len(self.amplitudes)}")


@dataclass(frozen=True)
class BifurcationBoundary:
    """Fold lines epsilon_lower(delta) <= epsilon_upper(delta) of the cubic.

    Only detunings with a genuine bistable window are retained; the two
    curves coalesce at the cusp delta = -(sqrt(3)/2) gamma.
    """

    deltas: np.ndarray
    eps_lower: np.ndarray
    eps_upper: np.ndarray


def _cubic_real_roots(a3, a2, a1, a0):
    """Real roots of a3 x^3 + a2 x^2 + a1 x + a0, a3 != 0, for np.longdouble coefficient arrays (Cardano).

    Returns a (cells, 3) float array, each row the roots of one cell's
    cubic and NaN past them.  The depressed cubic is solved
    trigonometrically where three real roots exist and by the
    single-real-root Cardano formula otherwise; each root gets three
    Newton polish steps on the original cubic in np.longdouble and is
    returned as a float.  Each cell's roots are those of the same formulas
    applied to that cell alone in np.longdouble scalars and ``math``, to
    the bit: square roots, the arccosine's clipped argument and copysign
    take floats, as ``math`` converts them, and the arccosine and the
    cosines are ``math``'s, called per three-root cell, because numpy's
    SIMD trigonometry is not libm's.
    """
    b = a2 / a3
    c = a1 / a3
    d = a0 / a3
    # x = t - b/3 removes the quadratic term: t^3 + p t + q = 0
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = -4.0 * p ** 3 - 27.0 * q * q
    roots = np.full(b.shape + (3,), np.nan, dtype=b.dtype)
    three = disc > 0.0
    if three.any():
        # three distinct real roots
        p3, q3 = p[three], q[three]
        m = 2.0 * np.sqrt((-p3 / 3.0).astype(float))
        thetas = [math.acos(v) for v in np.clip(3.0 * q3 / (p3 * m), -1.0, 1.0).astype(float).tolist()]
        angles = (np.array(thetas)[:, None] - 2.0 * math.pi * np.arange(3)) / 3.0
        cosines = np.array([math.cos(v) for v in angles.ravel().tolist()]).reshape(angles.shape)
        roots[three] = shift[three, None] + m[:, None] * cosines
    one = ~three
    if one.any():
        p1, q1 = p[one], q[one]
        half_q = -q1 / 2.0
        radicand = q1 * q1 / 4.0 + p1 ** 3 / 27.0
        root_term = np.sqrt(np.where(radicand > 0.0, radicand, 0.0).astype(float))
        w = half_q + root_term
        u = np.copysign((np.abs(w) ** (1.0 / 3.0)).astype(float), w.astype(float))
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(u == 0.0, 0.0, -p1 / (3.0 * u))
        roots[one, 0] = shift[one] + u + v
        # a double root counts once more
        double = (disc[one] == 0.0) & (p1 != 0.0)
        roots[np.flatnonzero(one)[double], 1] = (shift[one] - (u + v) / 2.0)[double]
    # polish only the roots found: x87 arithmetic on the NaN padding is slow
    found = ~np.isnan(roots)
    cell = np.nonzero(found)[0]
    a3, a2, a1, a0 = (np.broadcast_to(a, b.shape)[cell] for a in (a3, a2, a1, a0))
    x = roots[found]
    stopped = np.zeros(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            slope = (3.0 * a3 * x + 2.0 * a2) * x + a1
            # a zero slope ends that root's polish
            stopped |= slope == 0.0
            x = np.where(stopped, x, x - (((a3 * x + a2) * x + a1) * x + a0) / slope)
    out = np.full(roots.shape, np.nan)
    out[found] = x
    return out


def _cubic_coefficients(d, x, e, g):
    """The photon-number cubic's coefficients, in np.longdouble, for float arrays of cells.

    Two nearly coincident roots move by ~sqrt(rounding of the
    coefficients): formed and polished in double they can miss the
    amplitude check (1.4e-10 at delta=-10, chi=0.175, epsilon=0.3021,
    gamma=0.02); in np.longdouble they pass it.
    """
    dl, xl, el, gl = (v.astype(np.longdouble) for v in (d, x, e, g))
    return 4 * xl * xl, 4 * xl * dl, dl * dl + gl * gl / 4, -el * el


def _newton_until_stalled(a3, a2, a1, a0, roots, polish):
    """Newton steps in np.longdouble on the roots where ``polish``, each until its step stalls.

    Near a double root Newton converges only linearly, halving the error
    per step, so this takes ~20 steps where three are not enough.
    """
    x, polish = roots.astype(np.longdouble), polish.copy()
    a3, a2, a1, a0 = (a[:, None] for a in (a3, a2, a1, a0))
    last = np.full(x.shape, np.inf, dtype=np.longdouble)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_NEWTON_STEPS):
            step = (((a3 * x + a2) * x + a1) * x + a0) / ((3.0 * a3 * x + 2.0 * a2) * x + a1)
            polish &= np.abs(step) < last
            if not polish.any():
                break
            x = np.where(polish, x - step, x)
            last = np.where(polish, np.abs(step), last)
    return x.astype(float)


def _amplitudes(d, x, e, g, ns):
    """(alpha, |alpha|^2, residual, failed) of each photon number in ns.

    ns is a (cells, 3) array, NaN past each cell's roots.
    alpha = -epsilon / (delta + 2 chi n - i gamma/2) by Python's complex
    division (closedform._quot), |alpha| by hypot, as Python's abs of a
    complex, and |alpha|^2 by Python's float power.  The residual is
    |(delta + 2 chi |alpha|^2 - i gamma/2) alpha + epsilon|, the complex
    product in parts as Python forms it; failed marks residuals above
    _RESIDUAL_TOL max(1, epsilon).
    """
    from .closedform import _quot

    found = ~np.isnan(ns)
    alpha = np.full(ns.shape, np.nan, dtype=complex)
    alpha.real, alpha.imag = _quot(-e[:, None], 0.0, d[:, None] + 2.0 * x[:, None] * ns, -0.5 * g[:, None])
    n2 = np.full(ns.shape, np.nan)
    n2[found] = [v ** 2 for v in np.hypot(alpha.real, alpha.imag)[found].tolist()]
    fr, fi = d[:, None] + 2.0 * x[:, None] * n2, -0.5 * g[:, None]
    residual = np.hypot(fr * alpha.real - fi * alpha.imag + e[:, None], fr * alpha.imag + fi * alpha.real)
    with np.errstate(invalid="ignore"):
        failed = residual > _RESIDUAL_TOL * np.maximum(1.0, e)[:, None]
    return alpha, n2, residual, failed


def _classical_branches(delta, chi, epsilon, gamma):
    """Classical branches of many cells: (amplitudes, photon_numbers, errors).

    The parameters are float arrays of one length.  Row i of amplitudes
    (complex) and of photon_numbers holds cell i's branches in order of
    photon number, NaN past them; errors maps the index of every cell for
    which classical_steady_states raises to that exception.  Each cell is
    computed as classical_steady_states computes it alone (_amplitudes):
    Python's float power rounds some squares |alpha|^2 differently from a
    product.

    Every real root of a driven cell's cubic is a branch: for n <= 0 the
    left side n [(delta + 2 chi n)^2 + gamma^2/4] is at most 0 < epsilon^2,
    so all real roots are positive, and one that rounds below 0 counts as
    0.  A weak drive thus keeps its one branch however small n is.
    """
    d, x, e, g = (np.asarray(v, dtype=float) for v in (delta, chi, epsilon, gamma))
    errors = {}
    for i in np.flatnonzero(g <= 0).tolist():
        errors[i] = ValueError("classical steady states require gamma > 0")
    driven = (e != 0.0) & (g > 0)
    ns = np.full(d.shape + (3,), np.nan)
    linear = driven & (x == 0.0)
    ns[linear, 0] = (e * e / (d * d + g * g / 4.0))[linear]
    cubic = driven & (x != 0.0)
    if cubic.any():
        ns[cubic] = _cubic_real_roots(*_cubic_coefficients(*(v[cubic] for v in (d, x, e, g))))
    with np.errstate(invalid="ignore"):
        scale = np.maximum(1.0, np.fmax.reduce(np.abs(ns), axis=1))
        ns = np.sort(np.where(ns < 0.0, 0.0, ns), axis=1)
        # exactly on a fold line: the double root counts once
        ns[np.isnan(ns[:, 2]) & (np.abs(ns[:, 0] - ns[:, 1]) < 1e-9 * scale), 1] = np.nan
    found = ~np.isnan(ns)
    alpha, n2, residual, failed = _amplitudes(d, x, e, g, ns)
    # Next to a fold at weak damping two roots sit ~1e-9 apart, and three
    # Newton steps leave them ~3e-4 off (delta=-6, chi=1, epsilon=4,
    # gamma=1e-8: the cubic is 4 (n - 1)^2 (n - 4) plus 2.5e-17 n); only
    # the roots that fail the check are polished on until their steps stall.
    rescue = np.flatnonzero(failed.any(axis=1) & cubic)
    if rescue.size:
        cells = tuple(v[rescue] for v in (d, x, e, g))
        polished = _newton_until_stalled(*_cubic_coefficients(*cells), ns[rescue], failed[rescue])
        alpha_r, n2_r, _, failed_r = _amplitudes(*cells, polished)
        ok = ~failed_r.any(axis=1)
        # a cell whose rescue fails too reports its first root's residual as before
        alpha[rescue[ok]], n2[rescue[ok]], failed[rescue[ok]] = alpha_r[ok], n2_r[ok], False
    for i in np.flatnonzero(failed.any(axis=1)).tolist():
        # the first root that fails, in order of photon number
        value = residual[i, np.argmax(failed[i])]
        errors[i] = RuntimeError(f"classical root failed residual check: {value:.3e}")
    for i in np.flatnonzero(driven & ~found[:, 0]).tolist():
        errors[i] = ValueError("expected 1-3 branches, got 0")
    undriven = (e == 0.0) & (g > 0)
    alpha[undriven] = [0.0, np.nan, np.nan]
    n2[undriven] = [0.0, np.nan, np.nan]
    return alpha, n2, errors


def classical_steady_states(params):
    """All classical branches at the given drive parameters.

    Requires gamma > 0 (the cubic in n would otherwise lose its damping
    regularization).  Amplitudes are reconstructed from each root through
    alpha = -epsilon / (delta + 2 chi n - i gamma/2) and satisfy the
    amplitude equation to < 1e-10.  Every real root of the cubic is a
    branch, since a driven cubic has no root n <= 0 (a root that rounds
    below 0 counts as 0), so any drive epsilon != 0 has at least one.
    This is _classical_branches on one cell.
    """
    columns = (params.delta, params.chi, params.epsilon, params.gamma)
    alpha, n2, errors = _classical_branches(*(np.array([v], dtype=float) for v in columns))
    if errors:
        raise errors[0]
    count = np.count_nonzero(~np.isnan(n2[0]))
    return ClassicalBranches(
        amplitudes=tuple(complex(a) for a in alpha[0, :count]),
        photon_numbers=tuple(float(n) for n in n2[0, :count]),
        stable=(True, False, True) if count == 3 else (True,) * count,
    )


def bifurcation_boundary(chi, gamma, deltas):
    """Fold lines of the classical cubic over the given detunings.

    For each delta with a bistable window (delta < 0 and delta^2 >
    3 gamma^2 / 4) the drive amplitudes where the positive-root count
    changes are epsilon(n_+) (lower) and epsilon(n_-) (upper), with
    n_-+ = (-2 delta -+ sqrt(delta^2 - 3 gamma^2 / 4)) / (6 chi) the
    stationary points of epsilon^2(n), both positive there.  Detunings
    without bistability are dropped; the result may be empty.  Raises
    ValueError unless chi > 0, gamma > 0 and every argument is finite.
    """
    deltas = np.asarray(deltas, dtype=float)
    if not (math.isfinite(chi) and math.isfinite(gamma) and np.isfinite(deltas).all()):
        raise ValueError(f"bifurcation boundary requires finite arguments, got chi={chi}, gamma={gamma}")
    if chi <= 0 or gamma <= 0:
        raise ValueError("bifurcation boundary requires chi > 0 and gamma > 0")
    disc = deltas * deltas - 0.75 * gamma * gamma
    window = (deltas < 0.0) & (disc > 0.0)
    delta, root = deltas[window], np.sqrt(disc[window])

    def eps_of_n(n):
        return np.sqrt(n * ((delta + 2.0 * chi * n) ** 2 + gamma * gamma / 4.0))

    return BifurcationBoundary(
        deltas=delta,
        eps_lower=eps_of_n((-2.0 * delta + root) / (6.0 * chi)),
        eps_upper=eps_of_n((-2.0 * delta - root) / (6.0 * chi)),
    )
