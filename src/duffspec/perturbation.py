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
import warnings
from dataclasses import dataclass

import numpy as np

from .closedform import dw_response_grid
from .fock import ModelParams

_VERIFY_EDGE_WEIGHT = 1e-6
_MAX_ANALYTIC_DIM = 64
# Evaluation budget of one Fano start, per searched parameter (center and
# width); one evaluation is a residual with its Jacobian.  On the 60
# normalised two-photon lines (gamma 0.002-0.04, epsilon 0.2-3 gamma, chi
# 0.5 and 1, 801 samples over +-8 gamma) every start converges within 32
# evaluations, median 8; on Lorentzian dips and peaks within 15, median 10.
# The budget only ends a start that wanders off.
_FANO_NFEV_PER_PARAM = 40
# Levenberg-Marquardt damping of a Fano start, relative to the scaled
# diagonal, and the step, in widths, below which the search has converged.
_FANO_DAMPING0 = 1e-3
_FANO_XTOL = 1e-10
# Largest accepted rms residual of a Fano fit, as a fraction of the line
# amplitude.
_FANO_RESIDUAL_FRAC = 0.05
# Detuning samples of one onset scan, over -n chi +- 12 gamma.
_ONSET_SAMPLES = 961


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
    from .lindblad import _entry_table, _table_product

    dim = pair.right.shape[0]
    s0 = _entry_table([ModelParams(params.delta, params.chi, 0.0, params.gamma)], dim)
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
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order}")
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
    """Levenberg-Marquardt over theta = (center, width) on the projected residual.

    The damped step solves (J^T J + mu D) h = -J^T r, with Marquardt's
    scaling D (J. SIAM 11, 431 (1963)) kept at the largest diag(J^T J)
    seen, as MINPACK keeps it, and mu updated by the gain ratio as in
    H. B. Nielsen, IMM-REP-1999-05 (DTU, 1999).  A trial step whose basis
    is not finite (width -> 0) is rejected and raises mu, like a step that
    raises the cost.  The search has converged when the step moves center
    and width by at most _FANO_XTOL widths.  Each evaluation of residual
    and Jacobian counts against max_nfev.  Returns (cost, theta, (r, J, c))
    at convergence, None when the start fails or runs out of evaluations.
    """
    try:
        current = _fano_projection(deltas, mags, *theta)
    except FloatingPointError:
        return None
    nfev, scale = 1, np.zeros(2)
    damping, growth = _FANO_DAMPING0, 2.0
    while True:
        residual, jac, _ = current
        cost = float(residual @ residual)
        grad, normal = jac.T @ residual, jac.T @ jac
        scale = np.maximum(scale, np.diag(normal))
        try:
            step = np.linalg.solve(normal + damping * np.diag(scale), -grad)
        except np.linalg.LinAlgError:
            return None
        if np.max(np.abs(step)) <= _FANO_XTOL * abs(theta[1]):
            return cost, theta, current
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
            gain = (cost - trial_cost) / (step @ (damping * scale * step - grad))
            theta, current = theta + step, trial
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            growth = 2.0
        else:
            damping *= growth
            growth *= 2.0


def fano_fit(deltas, magnitudes):
    """Fit a Fano profile to a resonance line |a|(delta).

    The profile (U. Fano, Phys. Rev. 124, 1866 (1961)) is linear in three
    of its five parameters:

        bg + amp (x - q)^2 / (x^2 + 1) = c0 + c1 L(x) + c2 D(x),

    with x = (delta - center) / width, L = 1/(x^2 + 1), D = x L, and
    c0 = bg + amp, c1 = amp (q^2 - 1), c2 = -2 amp q.  For fixed (center,
    width) the c's are one linear least-squares solve, so Levenberg-Marquardt
    searches only (center, width) on the projected residual (variable
    projection: G. H. Golub and V. Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)), from three width scales.  The search is numpy code
    (_fano_search): each step takes the residual and its exact Jacobian
    from one QR of the basis (_fano_projection), Kaufman's projected term
    plus the Golub-Pereyra term that vanishes with the residual, so an
    iteration costs one evaluation and no finite differences.  The start
    with the lowest cost wins.  amp is the non-negative root of
    amp^2 + c1 amp - c2^2/4 = 0, which picks the amp > 0 member of the
    curve's two representations; a symmetric Lorentzian peak (c1 > 0,
    c2 = 0) gives amp = 0.

    The fit uses every sample: at least 50 are needed, and the window they
    span should bracket exactly one resonance.  Raises ValueError for
    non-finite input and FanoFitError when every start fails, the profile
    degenerates (|q| > 50 or amp = 0, as for a symmetric Lorentzian peak),
    or the residual exceeds _FANO_RESIDUAL_FRAC of the line amplitude.
    """
    deltas = np.asarray(deltas, dtype=float)
    mags = np.asarray(magnitudes, dtype=float)
    if deltas.shape != mags.shape or deltas.ndim != 1:
        raise ValueError("need matching 1-D delta and magnitude arrays")
    for name, values in (("deltas", deltas), ("magnitudes", mags)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
    if deltas.size < 50:
        raise ValueError(f"need >= 50 samples in the window, got {deltas.size}")
    span = float(mags.max() - mags.min())
    if span == 0.0:
        raise FanoFitError("line is flat over the window")

    # Seed from the dip/peak pair: the profile minimum sits at x = q with
    # value = background, the maximum at x = -1/q, and their separation is
    # |q + 1/q| >= 2 widths.  Three width scales keep the search off the
    # sloped-background saddle.
    i_min, i_max = int(np.argmin(mags)), int(np.argmax(mags))
    center0 = 0.5 * (deltas[i_min] + deltas[i_max])
    width0 = max(abs(deltas[i_max] - deltas[i_min]) / 2.0, 2.0 * abs(deltas[1] - deltas[0]))
    best = None
    for w_scale in (1.0, 0.5, 2.0):
        found = _fano_search(
            deltas, mags, np.array([center0, width0 * w_scale]), _FANO_NFEV_PER_PARAM * 2
        )
        if found is not None and (best is None or found[0] < best[0]):
            best = found
    if best is None:
        raise FanoFitError("fit did not converge from any starting point")
    _, (center, width), (residual, _, (c0, c1, c2)) = best
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


def _has_stationary_point(params_gamma, chi, epsilon, deltas, mask):
    values, _ = dw_response_grid(deltas, np.array([epsilon]), params_gamma, chi)
    mags = np.abs(values[:, 0])
    slopes = np.diff(mags)
    signs = np.sign(slopes)
    flips = signs[:-1] * signs[1:] < 0
    return bool(np.any(flips & mask))


def onset_scan(n, gammas, chi=1.0):
    """Drive threshold where the n-th multiphoton line first flattens.

    For each damping rate the closed-form response is sampled at
    _ONSET_SAMPLES detunings over |delta + n chi| <= 12 gamma; the onset is
    the smallest drive for which |a|(delta) acquires a stationary point
    within 10 gamma of the line, located by bisection in log-drive.
    Returns a list of (gamma, epsilon_onset).  Requires gamma << chi so
    the line is spectrally resolved.
    """
    if n < 1:
        raise ValueError("line index n must be >= 1")
    out = []
    for gamma in gammas:
        if gamma <= 0 or gamma >= 0.3 * chi:
            raise ValueError(f"onset scan requires 0 < gamma << chi, got gamma={gamma}")
        w = 10.0 * gamma
        deltas = np.linspace(-n * chi - 1.2 * w, -n * chi + 1.2 * w, _ONSET_SAMPLES)
        mid = 0.5 * (deltas[:-2] + deltas[2:])
        mask = np.abs(mid + n * chi) < w
        eps = 0.05 * chi ** (1.0 - 1.0 / n) * gamma ** (1.0 / n)

        def found(e):
            return _has_stationary_point(gamma, chi, e, deltas, mask)

        for _ in range(120):
            if not found(eps):
                break
            eps /= 1.25
        else:
            raise OnsetError(f"no drive below the line onset found at gamma={gamma}")
        lo = eps
        for _ in range(120):
            eps *= 1.25
            if found(eps):
                break
            lo = eps
        else:
            raise OnsetError(f"no onset found up to epsilon={eps:.3g} at gamma={gamma}")
        hi = eps
        for _ in range(40):
            mid_e = math.sqrt(lo * hi)
            if found(mid_e):
                hi = mid_e
            else:
                lo = mid_e
        out.append((float(gamma), float(math.sqrt(lo * hi))))
    return out


def onset_slope(pairs):
    """Log-log slope of epsilon_onset against gamma from onset_scan output."""
    if len(pairs) < 2:
        raise ValueError("need at least two (gamma, onset) pairs")
    gs = np.log([p[0] for p in pairs])
    es = np.log([p[1] for p in pairs])
    return float(np.polyfit(gs, es, 1)[0])
