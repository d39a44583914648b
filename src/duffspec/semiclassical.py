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

_REAL_TOL = 1e-9
_RESIDUAL_TOL = 1e-10


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
    """Real roots of a3 x^3 + a2 x^2 + a1 x + a0 with a3 != 0 (Cardano).

    The depressed cubic is solved trigonometrically when three real roots
    exist and by the single-real-root Cardano formula otherwise; each root
    gets three Newton polish steps on the original cubic in np.longdouble
    and is returned as a float.
    """
    b = a2 / a3
    c = a1 / a3
    d = a0 / a3
    # x = t - b/3 removes the quadratic term: t^3 + p t + q = 0
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = -4.0 * p ** 3 - 27.0 * q * q
    if disc > 0.0:
        # three distinct real roots
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


def classical_steady_states(params):
    """All classical branches at the given drive parameters.

    Requires gamma > 0 (the cubic in n would otherwise lose its damping
    regularization).  Amplitudes are reconstructed from each root through
    alpha = -epsilon / (delta + 2 chi n - i gamma/2) and satisfy the
    amplitude equation to < 1e-10.
    """
    if params.gamma <= 0:
        raise ValueError("classical steady states require gamma > 0")
    d, x, e, g = params.delta, params.chi, params.epsilon, params.gamma
    if e == 0.0:
        return ClassicalBranches(amplitudes=(0.0 + 0.0j,), photon_numbers=(0.0,), stable=(True,))
    if x == 0.0:
        ns = [e * e / (d * d + g * g / 4.0)]
    else:
        # Two nearly coincident roots move by ~sqrt(rounding of the
        # coefficients): formed and polished in double they can miss the
        # amplitude check below (1.4e-10 at delta=-10, chi=0.175,
        # epsilon=0.3021, gamma=0.02); in np.longdouble they pass it.
        dl, xl, el, gl = (np.longdouble(v) for v in (d, x, e, g))
        ns = _cubic_real_roots(4 * xl * xl, 4 * xl * dl, dl * dl + gl * gl / 4, -el * el)
    scale = max(abs(n) for n in ns)
    ns = sorted(n for n in ns if n > _REAL_TOL * max(1.0, scale))
    if len(ns) == 2:
        # exactly on a fold line: the double root counts once
        ns = [ns[0]] if abs(ns[0] - ns[1]) < 1e-9 * max(1.0, scale) else ns
    amps = []
    for n in ns:
        alpha = -e / complex(d + 2.0 * x * n, -0.5 * g)
        residual = abs(complex(d + 2.0 * x * abs(alpha) ** 2, -0.5 * g) * alpha + e)
        if residual > _RESIDUAL_TOL * max(1.0, e):
            raise RuntimeError(f"classical root failed residual check: {residual:.3e}")
        amps.append(alpha)
    if len(amps) == 3:
        stable = (True, False, True)
    else:
        stable = tuple(True for _ in amps)
    return ClassicalBranches(
        amplitudes=tuple(amps),
        photon_numbers=tuple(abs(a) ** 2 for a in amps),
        stable=stable,
    )


def _fold_photon_numbers(delta, chi, gamma):
    """Stationary points n_- < n_+ of epsilon^2(n); None when no fold exists."""
    disc = delta * delta - 0.75 * gamma * gamma
    if disc <= 0.0 or delta >= 0.0:
        return None
    root = math.sqrt(disc)
    n_minus = (-2.0 * delta - root) / (6.0 * chi)
    n_plus = (-2.0 * delta + root) / (6.0 * chi)
    if n_minus <= 0.0:
        return None
    return n_minus, n_plus


def _eps_of_n(n, delta, chi, gamma):
    return math.sqrt(n * ((delta + 2.0 * chi * n) ** 2 + gamma * gamma / 4.0))


def bifurcation_boundary(chi, gamma, deltas):
    """Fold lines of the classical cubic over the given detunings.

    For each delta with a bistable window the drive amplitudes where the
    positive-root count changes are epsilon(n_+) (lower) and epsilon(n_-)
    (upper), with n_-+ the stationary points of epsilon^2(n).  Detunings
    without bistability are dropped; the result may be empty.
    """
    if chi <= 0 or gamma <= 0:
        raise ValueError("bifurcation boundary requires chi > 0 and gamma > 0")
    kept, lower, upper = [], [], []
    for delta in np.asarray(deltas, dtype=float):
        folds = _fold_photon_numbers(delta, chi, gamma)
        if folds is None:
            continue
        n_minus, n_plus = folds
        kept.append(delta)
        lower.append(_eps_of_n(n_plus, delta, chi, gamma))
        upper.append(_eps_of_n(n_minus, delta, chi, gamma))
    return BifurcationBoundary(
        deltas=np.array(kept),
        eps_lower=np.array(lower),
        eps_upper=np.array(upper),
    )

