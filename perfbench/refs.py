"""Reference values computed apart from the program.

Nothing here imports ``duffspec``: the closed-form response is evaluated
with ``mpmath.hyper`` at 50 digits, and the other references are textbook
limits of the model.

    <a> = -eps/(delta - i gamma/2)
          * 0F2(; (delta + chi - i gamma/2)/chi, (delta + i gamma/2)/chi; z)
          / 0F2(; (delta - i gamma/2)/chi,       (delta + i gamma/2)/chi; z),
    z = 2 eps^2 / chi^2
"""

import mpmath
import numpy as np

DIGITS = 50

# Log-log slope of the onset drive against gamma for the n-photon line:
# eps_onset ~ gamma^(1/n).
ONSET_EXPONENTS = {1: 1.0, 2: 0.5}


def exact_response(delta, epsilon, gamma, chi):
    """<a> from the 0F2 ratio at 50 significant digits, rounded to complex."""
    with mpmath.workdps(DIGITS):
        d, e, g, x = (mpmath.mpf(float(v)) for v in (delta, epsilon, gamma, chi))
        if e == 0:
            return 0j
        z = 2 * e * e / (x * x)
        shared = mpmath.mpc(d, g / 2) / x
        num = mpmath.hyper([], [mpmath.mpc(d + x, -g / 2) / x, shared], z)
        den = mpmath.hyper([], [mpmath.mpc(d, -g / 2) / x, shared], z)
        return complex(-(e / mpmath.mpc(d, -g / 2)) * num / den)


def lorentzian_response(delta, epsilon, gamma):
    """The eps -> 0 limit of <a>: the linear response -2 eps / (2 delta - i gamma)."""
    return -2.0 * np.asarray(epsilon) / (2.0 * np.asarray(delta) - 1j * gamma)


def sample_cells(rng, shape, count):
    """``count`` distinct (i, j) indices of a grid of ``shape``, drawn by ``rng``."""
    flat = rng.choice(shape[0] * shape[1], size=min(count, shape[0] * shape[1]), replace=False)
    return [divmod(int(k), shape[1]) for k in sorted(flat)]


def grid_references(deltas, epsilons, gamma, chi, cells):
    """{(i, j): exact <a>} for the chosen cells of a deltas x epsilons grid."""
    return {
        (i, j): exact_response(deltas[i], epsilons[j], gamma, chi) for i, j in cells
    }
