"""Drive-perturbative expansion around the undriven damped Kerr oscillator.

With the drive switched off the generator S0 conserves the coherence
offset n = (row - column), and inside each offset sector it is upper
bidiagonal in the lower index t: <t+n| rho |t> decays at its own rate and
is fed from <t+n+1| rho |t+1>.  Its spectrum is known in closed form,

    lambda_nq = -(q + n/2) gamma - i n delta - i n (n - 1 + 2q) chi

with right eigenmatrices supported on t <= q,

    <t+n| rho_nq |t> = (-1 - 2 i n chi / gamma)^t / ((q - t)! sqrt((t+n)! t!)),

adjoint partners for the conjugate sectors, and biorthogonal left
eigenmatrices on t >= q.  The drive enters as a series around the vacuum
kernel, whose eigenvalue stays exactly zero; each order is one
back-substitution through the bidiagonal sectors (_drive_orders).
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .closedform import _check_rate, _real_array, _slope_derivatives
from .fock import _check_dim

_VERIFY_EDGE_WEIGHT = 1e-6
_MAX_ANALYTIC_DIM = 64
# Evaluation budget of the Fano search; one evaluation is a residual with
# its Jacobian.  On the 60 normalised two-photon lines (gamma 0.002-0.04,
# epsilon 0.2-3 gamma, chi 0.5 and 1, 801 samples over +-8 gamma) the
# search from the dip-peak seed converges within 25 evaluations, median 5.
# The budget only ends a search that wanders off.
_FANO_MAX_NFEV = 80
# Step, in widths, below which the Fano search has converged.
_FANO_XTOL = 1e-10
# Largest accepted rms residual of a Fano fit, as a fraction of the line
# amplitude.
_FANO_RESIDUAL_FRAC = 0.05
# Largest drive the onset ladder probes, in units of chi.  The terms of
# 0F2(; b1, b2; z) peak near k ~ |z|^(1/3) at about exp(3 |z|^(1/3)), times
# factors polynomial in k from the lower parameters near -n; 3 |z|^(1/3)
# <= 600 leaves e^109 of double's e^709.8 for those.  With z = 2
# epsilon^2 / chi^2 that is epsilon <= 2000 chi.  At 2500 chi (3 |z|^(1/3)
# = 696) the terms overflow, and every cell runs to SERIES_MAX_TERMS.
_ONSET_MAX_DRIVE = 2000.0
# Rungs of the onset ladder per closed-form call.  A rate's rungs past its
# first turned one are summed for nothing, but a call per rung costs more:
# one lineshape benchmark pass makes 19 calls on 5160 cells with four
# rungs a call, and 35 calls on 4245 cells with one.
_ONSET_RUNGS = 4


class FanoFitError(RuntimeError):
    """The Fano profile fit degenerated or failed to converge."""


class OnsetError(RuntimeError):
    """No resonance onset could be bracketed in the scanned drive range."""


def s0_eigenvalue(n, q, params):
    """Analytic eigenvalue of the undriven generator for sector (n, q)."""
    if n < 0 or q < 0:
        raise ValueError("sector indices must be >= 0")
    if params.gamma <= 0:
        raise ValueError("analytic eigensystem requires gamma > 0")
    return complex(
        -(q + 0.5 * n) * params.gamma,
        -n * params.delta - n * (n - 1 + 2 * q) * params.chi,
    )


def _sector_vectors(n, q, params, dim):
    """Right (t <= q) and left (t >= q) eigenvector entries in t-coordinates."""
    g, x = params.gamma, params.chi
    tmax = dim - 1 - n
    base = complex(-1.0, -2.0 * n * x / g)
    right = np.zeros(tmax + 1, dtype=complex)
    for t in range(q + 1):
        right[t] = base**t / (
            math.factorial(q - t) * math.sqrt(math.factorial(t + n) * math.factorial(t))
        )
    left = np.zeros(tmax + 1, dtype=complex)
    left[q] = 1.0 / right[q]
    denom = complex(g, 2.0 * n * x)
    for t in range(q + 1, tmax + 1):
        left[t] = left[t - 1] * g * math.sqrt((t + n) * t) / ((t - q) * denom)
    return right, left


@dataclass(frozen=True)
class S0Eigenpair:
    """One eigentriple of the undriven generator.

    ``conjugate`` marks the adjoint partner of sector (n, q), carrying the
    conjugate eigenvalue.  ``right`` and ``left`` are full matrices on the
    truncation; they satisfy sum(left * right) = 1 elementwise (plain, not
    conjugated, pairing).
    """

    n: int
    q: int
    conjugate: bool
    eigenvalue: complex
    right: np.ndarray
    left: np.ndarray


def s0_eigenpair(n, q, params, dim, conjugate=False):
    """Analytic eigenpair of the undriven generator on a dim-level truncation."""
    if dim > _MAX_ANALYTIC_DIM:
        raise ValueError(f"analytic eigensystem limited to dim <= {_MAX_ANALYTIC_DIM}")
    if n >= dim or q > dim - 1 - n:
        raise ValueError(f"sector (n={n}, q={q}) does not fit a dim={dim} truncation")
    if conjugate and n == 0:
        raise ValueError("offset-0 sectors are self-conjugate")
    lam = s0_eigenvalue(n, q, params)
    right_t, left_t = _sector_vectors(n, q, params, dim)
    right = np.zeros((dim, dim), dtype=complex)
    left = np.zeros((dim, dim), dtype=complex)
    for t in range(dim - n):
        right[t + n, t] = right_t[t]
        left[t + n, t] = left_t[t]
    if conjugate:
        lam = lam.conjugate()
        right = right.conj().T
        left = left.conj().T
    return S0Eigenpair(n=n, q=q, conjugate=conjugate, eigenvalue=lam, right=right, left=left)


def verify_s0_eigenpair(pair, params):
    """Max-norm eigen-residual of an analytic pair against the assembled generator.

    S0 vec is the CSR product's to the bit, formed from the entry table
    without scipy.  Warns when the eigenmatrix carries weight above 1e-6
    in the top two levels, where truncation would contaminate the
    comparison.
    """
    from .lindblad import _entry_table, _param_table, _table_product

    dim = pair.right.shape[0]
    s0 = _entry_table(_param_table(params.delta, params.chi, 0.0, params.gamma), dim)
    s0_vec = _table_product(s0, pair.right[None]).reshape(-1)
    vec = pair.right.reshape(-1)
    scale = np.max(np.abs(vec))
    residual = float(np.max(np.abs(s0_vec - pair.eigenvalue * vec)) / scale)
    total = np.sum(np.abs(pair.right) ** 2)
    edge = (
        np.sum(np.abs(pair.right[dim - 2 :, :]) ** 2)
        + np.sum(np.abs(pair.right[: dim - 2, dim - 2 :]) ** 2)
    )
    if edge / total > _VERIFY_EDGE_WEIGHT:
        warnings.warn(
            f"eigenmatrix weight {edge / total:.2e} in the top two levels; "
            "residual is truncation-contaminated",
            RuntimeWarning,
            stacklevel=2,
        )
    return residual


def _drive_orders(params, order, dim):
    """rho_0 ... rho_order of the drive expansion on a dim-level truncation.

    rho_0 = |0><0|; rho_k solves S0 rho_k = i[a + a^dagger, rho_{k-1}] with
    the vacuum row replaced by Tr rho_k = 0.  delta, chi and gamma may be
    arrays; each rho_k has shape broadcast + (dim, dim).
    """
    d, x, g = (np.asarray(v)[..., None, None] for v in (params.delta, params.chi, params.gamma))
    if np.any(g <= 0):
        raise ValueError("drive expansion requires gamma > 0")
    k = np.arange(dim)
    h = d * k + x * k * (k - 1)
    lam = -1j * (h.swapaxes(-1, -2) - h) - 0.5 * g * (k[:, None] + k)
    lam[..., 0, 0] = 1.0  # placeholder: the trace condition sets the vacuum entry
    decay = g * np.sqrt(np.outer(k + 1, k + 1))
    down, up = np.sqrt(k)[:, None], np.sqrt(k + 1)[:, None]
    # rho_k sits inside a zero border, so the ladder shifts need no edge cases
    pad = np.zeros(lam.shape[:-2] + (dim + 2, dim + 2), dtype=complex)
    pad[..., 1, 1] = 1.0
    terms = [pad[..., 1:-1, 1:-1]]
    for _ in range(order):
        prev, pad = pad, np.zeros_like(pad)
        x_rho = down * prev[..., :-2, 1:-1] + up * prev[..., 2:, 1:-1]
        r = 1j * (x_rho - prev[..., 1:-1, :-2] * down.T - prev[..., 1:-1, 2:] * up.T)
        # back-substitute from the top level down; finished entries recompute unchanged
        for t in range(dim - 1, -1, -1):
            pad[..., t + 1 : -1, t + 1 : -1] = (
                r[..., t:, t:] - decay[..., t:, t:] * pad[..., t + 2 :, t + 2 :]
            ) / lam[..., t:, t:]
        pad[..., 1, 1] = -np.diagonal(pad, 0, -2, -1)[..., 2:].sum(axis=-1)
        terms.append(pad[..., 1:-1, 1:-1])
    return terms


def bw_steady_state(params, order=3, dim=12):
    """Drive expansion of the steady state to the given order in epsilon.

    Expands around the vacuum kernel of the undriven generator, whose
    eigenvalue stays exactly zero at every order, so each order is one
    undriven solve (_drive_orders) with no eigenvalue correction.  Order k
    lives on |m><n| with m + n <= k, so the result is exact on any
    dim >= order + 4.  The trace stays 1 exactly; corrections are traceless.

    A two-orders-higher term is evaluated as a convergence gauge; if it
    exceeds 10% of the kept top-order term, a divergence warning is
    issued (the series is asymptotic beyond the small-drive regime).
    Raises ValueError unless dim is an integer >= order + 4 (not a bool).
    """
    if not (isinstance(order, numbers.Integral) and not isinstance(order, bool) and order in (1, 2, 3)):
        raise ValueError(f"order must be the integer 1, 2, or 3, got {order!r}")
    dim = _check_dim(dim)
    if dim < order + 4:
        raise ValueError(f"dim must be >= order + 4 to hold the order-{order} support")
    terms = _drive_orders(params, order + 2, dim)
    e = params.epsilon
    rho = terms[0].copy()
    for k in range(1, order + 1):
        rho += (e**k) * terms[k]
    gauge = (e ** (order + 2)) * np.linalg.norm(terms[order + 2])
    kept = (e**order) * np.linalg.norm(terms[order])
    if kept > 0 and gauge > 0.1 * kept:
        warnings.warn(
            f"order-{order + 2} term is {gauge / kept:.2f} of the kept top order; "
            "the drive expansion is outside its convergence regime",
            RuntimeWarning,
            stacklevel=2,
        )
    return rho


def response_series(params):
    """Steady-state amplitude through third order in the drive.

        <a> = 2 eps / (-2 delta + i gamma)
              + 32 chi eps^3 / [(2 delta - i gamma)^2 (2 chi + 2 delta - i gamma) (2 delta + i gamma)]

    read from rho_1 and rho_3 of the drive expansion on 5 levels, which hold
    them without truncation.  The linear term is the Lorentzian response;
    the cubic one carries the anharmonic pole at 2 delta + 2 chi = 0.  At
    chi = 0 the response is the pure Lorentzian at every drive.  The
    parameters may be arrays, which broadcast together.  Requires gamma > 0.
    """
    _, rho1, _, rho3 = _drive_orders(params, 3, 5)
    # <a> = sum_k sqrt(k + 1) rho[k + 1, k]
    a1, a3 = (np.diagonal(rho, -1, -2, -1) @ np.sqrt(np.arange(1.0, 5)) for rho in (rho1, rho3))
    return params.epsilon * a1 + params.epsilon**3 * a3


def fano_q(params):
    """Asymmetry parameter of the two-photon resonance line.

        q = -2 chi / (sqrt(2 chi^2 + gamma^2) - gamma)

    Approaches -sqrt(2) for gamma << chi.  Requires chi > 0 and gamma > 0.
    """
    if params.chi <= 0 or params.gamma <= 0:
        raise ValueError("fano asymmetry requires chi > 0 and gamma > 0")
    x, g = params.chi, params.gamma
    return -2.0 * x / (math.sqrt(2.0 * x * x + g * g) - g)


@dataclass(frozen=True)
class FanoFit:
    """Least-squares Fano profile fit over a detuning window.

    Model (U. Fano, Phys. Rev. 124, 1866 (1961)):
    |a|(delta) = background + amplitude * (x - q)^2 / (x^2 + 1) with
    x = (delta - center) / width; the background is taken locally constant
    over the window.  The same curve also has a representation with
    amplitude < 0 and q -> -1/q.  fano_fit solves for the separable
    coefficients of c0 + c1 / (x^2 + 1) + c2 x / (x^2 + 1) and takes the
    amplitude as the non-negative root of amp^2 + c1 amp - c2^2/4 = 0, so
    these fields hold the amplitude > 0 member.
    """

    background: float
    amplitude: float
    center: float
    width: float
    q: float
    residual_rms: float


def _fano_basis(deltas, center, width):
    """Columns (1, L, D) of the separable Fano model, L = 1/(x^2+1), D = x L.

    Raises FloatingPointError when the basis is not finite (width -> 0).
    """
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        x = (deltas - center) / width
        lor = 1.0 / (x * x + 1.0)
        return np.column_stack((np.ones_like(x), lor, x * lor))


def _fano_from_coefficients(c0, c1, c2):
    """(background, amplitude, q) of c0 + c1 L + c2 D, with amplitude >= 0.

    c0 = bg + amp, c1 = amp (q^2 - 1) and c2 = -2 amp q, so amp solves
    amp^2 + c1 amp - c2^2/4 = 0.  The non-negative root is written in the
    form that does not cancel for either sign of c1.
    """
    root = math.hypot(c1, c2)
    amp = 0.5 * (root - c1) if c1 <= 0.0 else c2 * c2 / (2.0 * (root + c1))
    q = -c2 / (2.0 * amp) if amp > 0.0 else math.inf
    return c0 - amp, amp, q


def _fano_projection(deltas, mags, center, width):
    """Projected residual of the separable Fano model and its exact Jacobian.

    For fixed (center, width) the coefficients c of the basis B = (1, L, D)
    solve the linear least-squares problem through a thin QR, B = Q R, and
    the residual is r = B c - y.  Its Jacobian in theta = (center, width) is
    (G. H. Golub and V. Pereyra, SIAM J. Numer. Anal. 10, 413 (1973))

        dr/dtheta = (I - Q Q^T) (dB/dtheta) c - Q R^-T (dB/dtheta)^T r,

    where the first term is L. Kaufman's (BIT 15, 49 (1975)) and the second
    vanishes with the residual.  dB/dtheta = (0, L', D') dx/dtheta, with
    L' = -2 x L^2, D' = L - 2 x^2 L^2, dx/dcenter = -1/width and
    dx/dwidth = -x/width.  Returns (r, dr/dtheta, c).

    Raises FloatingPointError when the basis is not finite or not of full
    rank (width -> 0).
    """
    basis = _fano_basis(deltas, center, width)
    q, r = np.linalg.qr(basis)
    qty = q.T @ mags
    residual = q @ qty - mags
    try:
        r_inv = np.linalg.inv(r)
    except np.linalg.LinAlgError as exc:
        raise FloatingPointError("Fano basis is rank-deficient") from exc
    coef = r_inv @ qty
    if not np.isfinite(coef).all():
        raise FloatingPointError("Fano basis is rank-deficient")
    x = (deltas - center) / width
    lor = basis[:, 1]
    d_lor = -2.0 * x * lor * lor
    d_basis = np.column_stack((d_lor, lor + x * d_lor))
    # (1, x) = -width dx/d(center, width), a factor both terms share
    powers = np.column_stack((np.ones_like(x), x))
    model = (d_basis @ coef[1:])[:, None] * powers
    coupling = np.zeros((3, 2))
    coupling[1:] = (d_basis * residual[:, None]).T @ powers
    jacobian = (q @ (q.T @ model + r_inv.T @ coupling) - model) / width
    return residual, jacobian, coef


def _fano_search(deltas, mags, theta, max_nfev):
    """Damped Gauss-Newton over theta = (center, width) on the projected residual.

    The step is the least-squares solution of J h = -r.  A step that does
    not lower the cost, or whose basis is not finite (width -> 0), is
    halved.  The search has converged when a step moves center and width
    by at most _FANO_XTOL widths.  Each evaluation of residual and
    Jacobian counts against max_nfev.  Returns (cost, theta, (r, J, c)) at
    convergence, None when the start fails or runs out of evaluations.
    """
    try:
        current = _fano_projection(deltas, mags, *theta)
    except FloatingPointError:
        return None
    nfev = 1
    cost = float(current[0] @ current[0])
    step = np.linalg.lstsq(current[1], -current[0], rcond=None)[0]
    while np.max(np.abs(step)) > _FANO_XTOL * abs(theta[1]):
        if nfev == max_nfev:
            return None
        nfev += 1
        try:
            trial = _fano_projection(deltas, mags, *(theta + step))
        except FloatingPointError:
            trial_cost = math.inf
        else:
            trial_cost = float(trial[0] @ trial[0])
        if trial_cost < cost:
            theta, current, cost = theta + step, trial, trial_cost
            step = np.linalg.lstsq(current[1], -current[0], rcond=None)[0]
        else:
            step = 0.5 * step
    return cost, theta, current


def fano_fit(deltas, magnitudes):
    """Fit a Fano profile to a resonance line |a|(delta).

    The profile (U. Fano, Phys. Rev. 124, 1866 (1961)) is linear in three
    of its five parameters:

        bg + amp (x - q)^2 / (x^2 + 1) = c0 + c1 L(x) + c2 D(x),

    with x = (delta - center) / width, L = 1/(x^2 + 1), D = x L, and
    c0 = bg + amp, c1 = amp (q^2 - 1), c2 = -2 amp q.  For fixed (center,
    width) the c's are one linear least-squares solve, so one damped
    Gauss-Newton search runs over (center, width) alone on the projected
    residual (variable projection: G. H. Golub and V. Pereyra, SIAM J.
    Numer. Anal. 10, 413 (1973)), from the dip-peak seed.  The search is
    numpy code (_fano_search): each step takes the residual and its exact
    Jacobian from one QR of the basis (_fano_projection), Kaufman's
    projected term plus the Golub-Pereyra term that vanishes with the
    residual, so an iteration costs one evaluation and no finite
    differences.  amp is the non-negative root of
    amp^2 + c1 amp - c2^2/4 = 0, which picks the amp > 0 member of the
    curve's two representations; a symmetric Lorentzian peak (c1 > 0,
    c2 = 0) gives amp = 0.

    The fit uses every sample, in any order: at least 50 are needed, and
    the window they span should bracket exactly one resonance.  Raises
    ValueError for complex or non-finite input and FanoFitError when the
    search fails, the profile degenerates (|q| > 50 or amp = 0, as for a
    symmetric Lorentzian peak), or the residual exceeds
    _FANO_RESIDUAL_FRAC of the line amplitude.
    """
    deltas = _real_array("deltas", deltas)
    mags = _real_array("magnitudes", magnitudes)
    if deltas.shape != mags.shape or deltas.ndim != 1:
        raise ValueError("need matching 1-D delta and magnitude arrays")
    for name, values in (("deltas", deltas), ("magnitudes", mags)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
    if deltas.size < 50:
        raise ValueError(f"need >= 50 samples in the window, got {deltas.size}")
    order = np.argsort(deltas, kind="stable")
    deltas, mags = deltas[order], mags[order]
    span = float(mags.max() - mags.min())
    if span == 0.0:
        raise FanoFitError("line is flat over the window")

    # Seed from the dip/peak pair: the profile minimum sits at x = q with
    # value = background, the maximum at x = -1/q, and their separation is
    # |q + 1/q| >= 2 widths.
    i_min, i_max = int(np.argmin(mags)), int(np.argmax(mags))
    center0 = 0.5 * (deltas[i_min] + deltas[i_max])
    width0 = max(abs(deltas[i_max] - deltas[i_min]) / 2.0, 2.0 * abs(deltas[1] - deltas[0]))
    found = _fano_search(deltas, mags, np.array([center0, width0]), _FANO_MAX_NFEV)
    if found is None:
        raise FanoFitError("fit did not converge from the dip-peak seed")
    _, (center, width), (residual, _, (c0, c1, c2)) = found
    if width < 0:
        width, c2 = -width, -c2
    bg, amp, q = _fano_from_coefficients(float(c0), float(c1), float(c2))
    window_span = deltas[-1] - deltas[0]
    if abs(q) > 50.0 or amp <= 0.0 or width <= 0.0 or width > 10.0 * window_span:
        raise FanoFitError(
            f"degenerate profile (q={q:.3g}, amplitude={amp:.3g}, width={width:.3g}); "
            "the window may hold no asymmetric resonance"
        )
    rms = float(np.sqrt(np.mean(residual**2)))
    if rms > _FANO_RESIDUAL_FRAC * span:
        raise FanoFitError(
            f"residual rms {rms:.3e} exceeds {_FANO_RESIDUAL_FRAC:.0%} of the line amplitude {span:.3e}"
        )
    return FanoFit(
        background=bg,
        amplitude=amp,
        center=float(center),
        width=float(width),
        q=q,
        residual_rms=rms,
    )


def _raise_escalated(escalates, *cells):
    """Raise OnsetError naming the first cell flagged in ``escalates`` of the (delta, chi, epsilon, gamma) columns."""
    if escalates.any():
        d, x, e, g = (float(np.broadcast_to(c, escalates.shape)[escalates][0]) for c in cells)
        raise OnsetError(
            f"the closed form at delta={d!r}, epsilon={e!r}, gamma={g!r}, chi={x!r} needs "
            "50 digits, and the onset is solved in double only"
        )


def onset_scan(n, gammas, chi=1.0):
    """Drive threshold where the n-th multiphoton line first turns over.

    The line turns over where u = d/d delta log|<a>|^2 first has a zero
    near delta = -n chi.  That onset is a cusp of u: at the smallest such
    drive, u and du/d delta vanish together at the minimum of u.  For
    each damping rate a x1.25 drive ladder from 0.05 chi^(1 - 1/n)
    gamma^(1/n) samples u at 61 detunings 0.4 gamma apart over
    -n chi +- 12 gamma until u is negative within 10 gamma of the line.
    One closed-form call takes four rungs (_ONSET_RUNGS) of every rate
    left, none above the drive cap, and drops a rate's rungs past its
    first turned one.  Each rung is the same repeated x1.25 product and a
    cell does not depend on the cells beside it, so the seeds, and with
    them the onsets, are the one-rung ladder's bit for bit.  From every
    negative local minimum of u at a rate's first turned rung a Newton
    iteration solves u = du/d delta = 0 in (delta, epsilon), with the
    derivatives of _slope_derivatives; the onset is the smallest drive
    it converges to.  Returns a list of (gamma, epsilon_onset), empty for
    no rates.

    Requires a real, finite chi > 0 and real 0 < gamma <= chi / 16, so
    the +-12 gamma samples end at least chi / 4 short of the neighbouring
    lines at -(n +- 1) chi.  Raises OnsetError when a line has not turned
    over by _ONSET_MAX_DRIVE * chi, when no Newton iteration converges,
    and at a cell whose series would need 50 digits, among the cells the
    one-rung ladder would sum: a rate's rungs up to its first turned one.
    """
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1):
        raise ValueError(f"line index n must be an integer >= 1, got n={n!r}")
    n = int(n)
    _check_rate("chi", chi)
    if not (math.isfinite(chi) and chi > 0):
        raise ValueError(f"onset scan requires a finite chi > 0, got chi={chi}")
    chi = float(chi)
    gammas = list(gammas)
    for gamma in gammas:
        _check_rate("gamma", gamma)
        if not (0 < gamma <= chi / 16):
            raise ValueError(f"onset scan requires 0 < gamma <= chi / 16, got gamma={gamma}")
    if not gammas:
        return []
    rates = np.array(gammas, dtype=float)
    offsets = np.arange(-30, 31) / 2.5  # in units of gamma
    inside = np.abs(offsets) <= 10.0
    eps = 0.05 * chi ** (1.0 - 1.0 / n) * rates ** (1.0 / n)
    cap = _ONSET_MAX_DRIVE * chi
    seeds, todo = [], np.arange(rates.size)
    while todo.size:
        if eps[todo].max() > cap:
            raise OnsetError(
                f"no onset found up to the drive cap epsilon={cap:g} at "
                f"gamma={rates[todo][eps[todo] > cap][0]}"
            )
        rungs = [eps[todo]]
        while len(rungs) < _ONSET_RUNGS and (rungs[-1] * 1.25).max() <= cap:
            rungs.append(rungs[-1] * 1.25)
        rungs = np.array(rungs)
        deltas = -n * chi + offsets * rates[todo, None]
        cells = deltas, chi, rungs[:, :, None], rates[todo, None]
        derivs, escalates = _slope_derivatives(*cells)
        u = derivs[0]
        turned = (u[:, :, inside] < 0.0).any(axis=2)
        # the rungs the one-rung ladder sums: up to each rate's first turned one
        summed = np.cumsum(turned, axis=0) - turned == 0
        _raise_escalated(escalates & summed[:, :, None], *cells)
        first = summed & turned
        mid = u[:, :, 1:-1]
        steps, rows, cols = np.nonzero(
            (mid < 0.0) & (mid <= u[:, :, :-2]) & (mid <= u[:, :, 2:]) & first[:, :, None]
        )
        seeds.append((todo[rows], deltas[rows, cols + 1], rungs[steps, rows]))
        left = ~turned.any(axis=0)
        todo = todo[left]
        eps[todo] = rungs[-1, left] * 1.25
    index, delta, drive = (np.concatenate(s) for s in zip(*seeds))
    converged = np.zeros(index.size, dtype=bool)
    live = np.arange(index.size)
    # Newton converges within 9 evaluations on the single-gamma scans at
    # chi = 0.05, 1 and 2, n <= 8 and 25 gamma / chi from 5e-4 to 1/16
    for _ in range(30):
        if not live.size:
            break
        cells = delta[live], chi, drive[live], rates[index[live]]
        (u, du, ddu, du_eps, ddu_eps), escalates = _slope_derivatives(*cells)
        _raise_escalated(escalates, *cells)
        with np.errstate(divide="ignore", invalid="ignore"):
            det = du * ddu_eps - du_eps * ddu
            delta[live] += (du_eps * du - u * ddu_eps) / det
            step = (ddu * u - du * du) / det
        drive[live] += step
        done = np.abs(step) <= 1e-13 * drive[live]
        kept = (0.0 < drive[live]) & (drive[live] <= cap)
        kept &= np.abs(delta[live] + n * chi) <= 12.0 * rates[index[live]]
        converged[live[done & kept]] = True
        live = live[~done & kept]
    out = []
    for i, gamma in enumerate(gammas):
        found = drive[converged & (index == i)]
        if not found.size:
            raise OnsetError(f"no cusp of the n={n} line converged at gamma={gamma}")
        out.append((float(gamma), float(found.min())))
    return out


def onset_slope(pairs):
    """Log-log slope of epsilon_onset against gamma from onset_scan output.

    Raises ValueError naming the first pair that is not finite and
    positive, and unless the pairs hold at least two distinct gammas.
    """
    pairs = list(pairs)
    for gamma, epsilon in pairs:
        if not (0.0 < gamma < math.inf and 0.0 < epsilon < math.inf):
            raise ValueError(f"onset pairs must be finite and positive, got {(gamma, epsilon)!r}")
    if len({p[0] for p in pairs}) < 2:
        raise ValueError(f"need pairs at two or more distinct gammas, got {pairs}")
    gs = np.log([p[0] for p in pairs])
    es = np.log([p[1] for p in pairs])
    return float(np.polyfit(gs, es, 1)[0])
