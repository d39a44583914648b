"""Truncated Fock-space operators, Hamiltonian assembly, and entropy functionals.

All rates are taken dimensionless (typically scaled by the anharmonicity);
the circuit module is the only place physical units enter.  Operators and
density matrices are plain complex ndarrays; truncation dimension is the
array size.
"""

import math
from dataclasses import dataclass

import numpy as np

# Numerical tolerances shared across the package.
TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_PSD = 1e-8


@dataclass(frozen=True)
class ModelParams:
    """Rotating-frame rates of the driven anharmonic oscillator.

    delta    detuning of the oscillator from the drive (resonator minus drive)
    chi      anharmonicity (Kerr) coefficient, >= 0
    epsilon  drive amplitude, >= 0
    gamma    single-photon decay rate, >= 0

    Operations that require dissipation or a nonzero Kerr term enforce the
    strict inequality themselves; keeping zero legal here lets limiting
    cases (undriven, undamped, or linear oscillators) be constructed.
    The solvers take scalars; formulas that broadcast (response_series)
    also accept arrays, which are validated element by element.
    """

    delta: float
    chi: float
    epsilon: float
    gamma: float

    def __post_init__(self):
        for name in ("delta", "chi", "epsilon", "gamma"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value!r}")
        if np.less(self.chi, 0).any():
            raise ValueError(f"chi must be >= 0, got {self.chi}")
        if np.less(self.epsilon, 0).any():
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if np.less(self.gamma, 0).any():
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def _check_dim(dim):
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"truncation dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


def annihilation(dim):
    """Annihilation operator a on a dim-level truncation: a[n, n+1] = sqrt(n+1)."""
    dim = _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def fock_state(n, dim):
    """Number state |n> as a column vector."""
    dim = _check_dim(dim)
    if not 0 <= n < dim:
        raise ValueError(f"level {n} outside truncation 0..{dim - 1}")
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return vec


def fock_projector(n, dim):
    """Density matrix of the number state |n>."""
    vec = fock_state(n, dim)
    return np.outer(vec, vec.conj())


def build_hamiltonian(params, dim):
    """Rotating-frame Hamiltonian on a dim-level truncation.

    H = delta a'a + chi a'a'aa + epsilon (a + a'); the quartic term is
    diagonal with entries chi n(n-1).  Built symmetrically, so hermiticity
    is exact in floating point.
    """
    dim = _check_dim(dim)
    n = np.arange(dim, dtype=float)
    h = np.diag(params.delta * n + params.chi * n * (n - 1.0)).astype(complex)
    drive = params.epsilon * np.sqrt(np.arange(1, dim, dtype=float))
    h += np.diag(drive, 1) + np.diag(drive, -1)
    return h


def expectation(op, rho):
    """Tr(op rho) for a dim-matched operator and density matrix."""
    op = np.asarray(op)
    rho = np.asarray(rho)
    if op.shape != rho.shape or op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"shape mismatch: operator {op.shape} vs state {rho.shape}")
    # Tr(AB) = sum_ij A_ij B_ji without forming the product.
    return complex(np.sum(op * rho.T))


def validate_density_matrix(rho):
    """Raise ValueError unless rho is Hermitian, unit-trace, and PSD (_density_matrix_errors)."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    [error] = _density_matrix_errors(rho[None])
    if error is not None:
        raise error
    return rho


# _density_matrix_errors skips the eigenvalues when the Cholesky factorization
# of every Hermitian part plus (TOL_PSD - _PSD_MARGIN) I completes.  A
# completed factorization is exact for a matrix within d gamma_{d+1} ||A||
# ~ d^2 u ||A|| of A (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., SIAM 2002, thm 10.3), so the Hermitian part has no
# eigenvalue below -(TOL_PSD - _PSD_MARGIN) - d^2 u ||A||, and eigvalsh's
# lowest eigenvalue is within a like bound of the true one.  Such a matrix
# with trace ~1 has ||A|| <= 1 + d TOL_PSD; up to d = 1024 the two bounds add
# to < 2.4e-10, a fifth of the margin, so a cleared matrix never reads below
# -TOL_PSD in eigvalsh either.
_PSD_MARGIN = TOL_PSD / 8


def _density_matrix_errors(rho):
    """Per matrix of the stack rho (n, d, d), the ValueError it fails with, or None.

    A matrix fails the first of these checks it does not pass:
    max |rho - rho'| <= TOL_HERM, |Tr rho - 1| <= TOL_TRACE, and every
    eigenvalue of the Hermitian part >= -TOL_PSD.  The eigenvalues come
    from one stacked eigvalsh, which runs only when a stacked Cholesky
    factorization of the Hermitian parts plus (TOL_PSD - _PSD_MARGIN) I
    fails or is not finite; when it succeeds no matrix has an eigenvalue
    below -TOL_PSD, so every verdict and message is eigvalsh's.
    """
    rho_h = rho.conj().transpose(0, 2, 1)
    herm = np.max(np.abs(rho - rho_h), axis=(1, 2))
    trace = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
    hermitian = 0.5 * (rho + rho_h)
    shifted = hermitian + (TOL_PSD - _PSD_MARGIN) * np.eye(rho.shape[-1])
    try:
        cleared = np.isfinite(np.linalg.cholesky(shifted)).all()
    except np.linalg.LinAlgError:
        cleared = False
    lowest = np.zeros(len(rho)) if cleared else np.linalg.eigvalsh(hermitian)[:, 0]
    errors = [None] * len(rho)
    for i in np.flatnonzero((herm > TOL_HERM) | (trace > TOL_TRACE) | (lowest < -TOL_PSD)):
        h, t, w = herm[i], trace[i], lowest[i]
        if h > TOL_HERM:
            errors[i] = ValueError(f"not Hermitian: max |rho - rho'| = {h:.3e} > {TOL_HERM:.1e}")
        elif t > TOL_TRACE:
            errors[i] = ValueError(f"trace deviates from 1 by {t:.3e} > {TOL_TRACE:.1e}")
        else:
            errors[i] = ValueError(f"negative eigenvalue {w:.3e} below -{TOL_PSD:.1e}")
    return errors


def von_neumann_entropy(rho):
    """Von Neumann entropy of rho in bits.

    rho must be Hermitian within TOL_HERM.  Eigenvalues below TOL_PSD are
    clamped to zero before taking the log, which regularizes the
    truncation tail.  A stack of matrices (..., d, d) goes through one
    ``eigvalsh`` call and gives an array of entropies, each the one its
    matrix gives alone.
    """
    rho = np.asarray(rho)
    rho_h = np.swapaxes(rho, -1, -2).conj()
    herm_dev = np.max(np.abs(rho - rho_h))
    if herm_dev > TOL_HERM:
        raise ValueError(f"not Hermitian: max |rho - rho'| = {herm_dev:.3e} > {TOL_HERM:.1e}")
    w = np.linalg.eigvalsh(0.5 * (rho + rho_h))
    if rho.ndim == 2:
        return _entropy_bits(w)
    return np.array([_entropy_bits(row) for row in w.reshape(-1, w.shape[-1])]).reshape(w.shape[:-1])


def _entropy_bits(w):
    """-sum w log2 w over the eigenvalues w above TOL_PSD."""
    w = w[w > TOL_PSD]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w)))


def binary_entropy(x):
    """Entropy of a two-outcome distribution {x, 1-x} in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))
