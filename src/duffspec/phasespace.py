"""Wigner quasiprobability grids.

The Wigner function is evaluated as the displaced-parity expectation

    W(alpha) = (2/pi) Tr[ D(-alpha) rho D(alpha) P ],   P = sum_n (-1)^n |n><n|

with D(alpha) = exp(alpha a' - alpha* a).  Parity conjugation turns the
two displacements into one, W = (2/pi) Tr[rho D(2 alpha) P], and the
matrix elements of D(2 alpha) have the exact closed form

    <m+d| D(b) |m> = sqrt(m!/(m+d)!) b^d e^{-|b|^2/2} L_m^{(d)}(|b|^2)

in associated Laguerre polynomials.  Summed along each diagonal offset d
of rho, these give one radial sum F_d(|b|^2) per offset, a function of
the radius alone, and W = (2/pi) e^{-|b|^2/2} Re sum_d b^d/sqrt(d!) F_d.
The radial sums come from stable upward Laguerre recurrences, costing
O(dim^2) per distinct |b|^2 of the grid (a symmetric grid repeats most
radii; the README's 201 x 201 grid has 10 524 distinct ones out of
40 401 points), and the angular powers are added per grid point by
Horner's rule in O(dim).  This never truncates the displacement itself
(the e^{-|b|^2/2} decay is exact, unlike exponentiating a cropped
generator, which stays unitary however large the displacement), and
leaves the vacuum value a single product with no cancellation.  The 2/pi
prefactor normalizes W to integrate to Tr rho.  Double precision is
enough: on +-10 grids of point-C and hard-regime states (dim 18 to 93),
the same recurrences in 80-bit floats differ by at most 2.8e-16, where
max|W| is 0.21 to 0.64.
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

_HERM_TOL = 1e-10
_EDGE_TOL = 1e-6


def _radial_sums(rhos, d, y):
    """Radial sums F_d(y) of every state along offset d, as a (state, y) array.

        F_d(y) = sum_m (-1)^m c_d sqrt(m! d!/(m+d)!) conj(rho[m+d, m]) L_m^{(d)}(y)

    with c_0 = 1 and c_d = 2 for d >= 1 (the conjugate off-diagonal folded
    in).  The Laguerre values come from their upward three-term recurrence
    (stable here: the dominant solution grows with the index), and each
    state's sum runs over m on its own, so a state's sums never depend on
    the other states passed.
    """
    dim = rhos[0].shape[0]
    sums = np.zeros((len(rhos), y.size), dtype=complex)
    weight = 2.0 if d else 1.0
    l_prev = np.zeros_like(y)
    l_cur = np.ones_like(y)
    for m in range(dim - d):
        if m >= 1:
            l_next = ((2 * m + d - 1 - y) * l_cur - (m + d - 1) * l_prev) / m
            l_prev, l_cur = l_cur, l_next
            weight = weight * np.sqrt(m / (m + d))
        signed = -weight if m % 2 else weight
        for s, rho in zip(sums, rhos):
            r = rho[m + d, m]
            if r != 0.0:
                s.real += (signed * r.real) * l_cur
                s.imag -= (signed * r.imag) * l_cur
    return sums


def _wigner_values(rhos, betas):
    """(2/pi) Tr[rho D(beta) P] for every beta, via exact D elements.

    betas is the (already doubled) displacement array.  Expanding the
    trace over diagonals of rho,

        W = (2/pi) e^{-|b|^2/2} Re sum_{d>=0} b^d / sqrt(d!) F_d(|b|^2)

    with the radial sums F_d of ``_radial_sums``.  They depend on beta only
    through y = |b|^2, so they are formed once per distinct y of the grid
    and gathered back.  The angular factor follows by Horner's rule in
    b / sqrt(d), from the top offset down, and the envelope is applied
    once at the end; memory stays O(states x grid points).  Intermediate
    magnitudes stay below e^{|b|^2/2}, so double precision holds to
    |beta| ~ 37; grids anywhere near that wide are unphysical for the
    truncations this package handles.
    """
    dim = rhos[0].shape[0]
    beta = betas.ravel()
    y, inverse = np.unique(beta.real**2 + beta.imag**2, return_inverse=True)
    acc = np.zeros((len(rhos), beta.size), dtype=complex)
    for d in range(dim - 1, 0, -1):
        step = beta / np.sqrt(d)
        for a, f in zip(acc, _radial_sums(rhos, d, y)):
            # out of place: numpy drops the fused multiply-add from an
            # in-place complex product on a one-element array
            np.multiply(a + f[inverse], step, out=a)
    for a, f in zip(acc, _radial_sums(rhos, 0, y)):
        a += f[inverse]
    envelope = ((2.0 / np.pi) * np.exp(-0.5 * y))[inverse]
    return [(a.real * envelope).reshape(betas.shape) for a in acc]


@dataclass(frozen=True)
class WignerGrid:
    """Wigner samples on a rectangular phase-space grid.

    values[i, j] = W(re_points[i] + 1j * im_points[j]); ranges are
    inclusive on both ends.
    """

    re_range: tuple
    im_range: tuple
    nx: int
    ny: int
    values: np.ndarray

    @property
    def re_points(self):
        return np.linspace(self.re_range[0], self.re_range[1], self.nx)

    @property
    def im_points(self):
        return np.linspace(self.im_range[0], self.im_range[1], self.ny)

    @property
    def cell_area(self):
        dx = (self.re_range[1] - self.re_range[0]) / (self.nx - 1)
        dy = (self.im_range[1] - self.im_range[0]) / (self.ny - 1)
        return dx * dy


def wigner_many(rhos, re_range=(-5.0, 5.0), im_range=(-5.0, 5.0), nx=201, ny=201):
    """Wigner grids for several Hermitian states on one shared grid.

    The Laguerre values are computed once per distinct radius and
    contracted against each state on its own, so a state's grid is the
    same bits whichever other states share the call.  Inputs must be
    Hermitian (the evaluation
    folds conjugate off-diagonals together); non-Hermitian operators are
    rejected rather than silently projected, and so are non-finite ones.
    nx and ny must be integers >= 2 (not bools).
    """
    rhos = [np.asarray(r, dtype=complex) for r in rhos]
    if not rhos:
        raise ValueError("need at least one state")
    dim = rhos[0].shape[0]
    for r in rhos:
        if r.shape != (dim, dim):
            raise ValueError("all states must share one truncation dimension")
        if not np.isfinite(r).all():
            raise ValueError("state must be finite")
        defect = float(np.max(np.abs(r - r.conj().T)))
        scale = max(1.0, float(np.max(np.abs(r))))
        if defect > _HERM_TOL * scale:
            raise ValueError(f"state is not Hermitian (defect {defect:.3e})")
    for name, n in (("nx", nx), ("ny", ny)):
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ValueError(f"{name} must be an integer, got {name}={n!r}")
    if nx < 2 or ny < 2:
        raise ValueError("grid needs at least 2 points per axis")
    xs = np.linspace(re_range[0], re_range[1], nx)
    ys = np.linspace(im_range[0], im_range[1], ny)
    betas = 2.0 * (xs[:, None] + 1j * ys[None, :])
    grids = _wigner_values(rhos, betas)
    out = []
    for grid in grids:
        edge = max(
            np.max(np.abs(grid[0, :])),
            np.max(np.abs(grid[-1, :])),
            np.max(np.abs(grid[:, 0])),
            np.max(np.abs(grid[:, -1])),
        )
        if edge > _EDGE_TOL:
            warnings.warn(
                f"Wigner weight {edge:.2e} at the grid edge exceeds {_EDGE_TOL:.0e}; "
                "enlarge the grid or the truncation",
                RuntimeWarning,
                stacklevel=2,
            )
        out.append(
            WignerGrid(
                re_range=tuple(re_range), im_range=tuple(im_range), nx=nx, ny=ny, values=grid
            )
        )
    return out


def wigner(rho, re_range=(-5.0, 5.0), im_range=(-5.0, 5.0), nx=201, ny=201):
    """Wigner grid of a single state; see wigner_many."""
    return wigner_many([rho], re_range, im_range, nx, ny)[0]


def wigner_integral(grid):
    """Riemann sum of W over the grid (should be Tr rho for enclosing grids)."""
    return float(np.sum(grid.values) * grid.cell_area)


def wigner_purity(grid):
    """pi * integral of W^2, an estimate of Tr rho^2 on enclosing grids."""
    return float(np.pi * np.sum(grid.values**2) * grid.cell_area)


def local_maxima(grid):
    """Interior local maxima of W above 5 % of max(W).

    Returns a list of (re, im, value) for cells strictly greater than all
    eight neighbors, useful for counting phase-space lobes, in row-major
    order.  max(W) is taken over the finite cells, so a NaN cell leaves
    the cutoff in place; a NaN cell, or a cell next to one, is never a
    maximum.
    """
    v = grid.values
    finite = v[np.isfinite(v)]
    if finite.size == 0:
        return []
    nx, ny = v.shape
    center = v[1:-1, 1:-1]
    keep = center > 0.05 * finite.max()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                keep &= center > v[1 + di : nx - 1 + di, 1 + dj : ny - 1 + dj]
    xs = grid.re_points[1:-1]
    ys = grid.im_points[1:-1]
    return [(float(xs[i]), float(ys[j]), float(center[i, j])) for i, j in zip(*np.nonzero(keep))]
