"""Lindblad superoperator assembly, steady states, and low-lying spectrum.

Density matrices are vectorized row-major (C order), so the master
equation drho/dt = -i[H, rho] + (gamma/2)(2 a rho a' - a'a rho - rho a'a)
becomes dvec/dt = S vec.  Row (k, l) of S holds at most six entries:

    (k, l)          -i (h_kk - h_ll) - (gamma/2)(k + l)
    (k +- 1, l)     -i h_{k, k+-1}
    (k, l +- 1)     +i h_{l+-1, l}
    (k+1, l+1)      gamma sqrt(k+1) sqrt(l+1)

with h the truncated Hamiltonian, so S is a table of six entries per row
(_entry_table), which build_superoperator writes into CSR arrays.  The
steady state is the kernel of S with one redundant row replaced by the
trace constraint.  The drive moves the coherence offset n = k - l by one
and nothing else does, so S is block-tridiagonal over offset sectors,
and the system is solved by Risken's matrix continued fraction
(_SectorFraction): one dense inverse per sector, from the top sector
down, with Hermiticity closing the recursion at the populations.  The
solution is refined with the same inverses against a residual formed in
extended precision.

Steady states are solved in blocks (_steady_state_outcomes): the cells
go in as one parameter table (_param_table), rows (delta, chi, epsilon,
gamma), whose start truncations come from one batched classical cubic
(_start_dims), and cells at the same truncation form blocks of at most
_BLOCK_PAIRS Fock pairs (cells x dim^2).  Every step runs in numpy
across the whole block, on the entry table: the sector inverses (stacked
LAPACK gesv against 2^600 I, kept at that scale; _inverse), the solves
and the extended-precision refinement, each cell stopping on its own,
then the normalization, the residual max|S rho| (_table_product, the CSR
product's to the bit), validation (a stacked Cholesky positivity gate,
with one stacked eigvalsh only where it does not clear the block) and
top-population test.  No step mixes cells, so a cell's state is bit for
bit the same in any block, alone included: steady_state and
solve_steady_state_adaptive are _steady_state_outcomes' solve on one
cell.  The inverses of the sectors' m x m blocks cost sum m^3 ~ dim^4/4
operations per cell, more than a sparse LU at large truncation, but no
step is a per-cell call: at the 10-24 levels of a README sweep, one
SuperLU factorization per cell was most of the time.

S maps Hermitian matrices to Hermitian ones, so on the orthonormal basis
of Hermitian matrices (the columns of the sparse unitary T) it is the real
matrix R = T^H S T.  The slow spectrum is R's: dense at small truncation,
real shift-inverted Arnoldi above it through one SuperLU factorization
of R - sigma I, rows in _pivot_rows order: every diagonal entry is then
nonzero and the larger entry of its coherence's 2 x 2 block of R, as the
complex diagonal of S - sigma I is.  The pattern is structurally
near-symmetric (only the jump entries lack a transposed partner), so
_SPLU_OPTIONS orders by minimum degree on A + A^T and takes diagonal
pivots unless one is below 1e-3 of its column.  At point C, L + U holds
70k real entries at dim 40 and 0.44M at dim 80 (0.72M with SuperLU's
default ordering and partial pivoting), against 58k and 0.32M complex
ones for S - sigma I; a real multiply-add is a quarter of a complex one
and no T products wrap the solve, so an Arnoldi step takes about half
the time (1.5 against 3.0 ms at dim 80, one BLAS thread).
An eigenvector v of R maps back to the eigenmatrix T v, exactly
Hermitian for a real eigenvalue.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fock import (
    TOL_HERM,
    TOL_PSD,
    TOL_TRACE,
    _check_dim,
    _density_matrix_errors,
    validate_density_matrix,
)
from .semiclassical import _classical_branches

TOL_EIG = 1e-8
TOL_RESID = 1e-10
TOL_BOUNDARY = 1e-7

# metastable_extremes puts the boundary where the smallest eigenvalue
# reaches -_BOUNDARY_SHIFT.  The 2^-24 margin keeps rounding in the returned
# mixtures above -TOL_PSD; beta_minus moves ~1e5 times any change in it.
_BOUNDARY_SHIFT = TOL_PSD * (1.0 - 2.0**-24)

# Largest truncation for which low_lying_spectrum eigendecomposes the full
# superoperator densely; beyond this the Arnoldi path takes over.
DENSE_EIG_MAX_DIM = 32

# Most Fock pairs (cells x dim^2) that _steady_state_outcomes puts in one block.
_BLOCK_PAIRS = 8192

# Adaptive truncation's target top-two-level population and its level cap.
_TOP_POP_TOL = 1e-8
_MAX_DIM = 512

# _SectorFraction keeps each sector inverse at _INVERSE_SCALE times its
# value, and refinement feeds its residual to the solve at _RESIDUAL_SCALE.
# A power-of-two scale is exact, so every normal number keeps its bits; what
# it changes is where LAPACK's solve against the identity underflows.  At
# 2^600 the values it forms stay normal down to 2^-1622 ~ 1e-488 of the
# unscaled inverse, 388 decades below the 1e-100 cut, while an inverse
# entry overflows only from 2^424 ~ 4e127 (2^600 * 2^424 = 2^1024).  The
# corrections come out at 2^900 and overflow only above 2^124 ~ 2e37, far
# above |x| <= 1; the residual stays normal down to 2^-1322 ~ 1e-398.
_INVERSE_SCALE = 2.0**600
_RESIDUAL_SCALE = 2.0**300
# Entries of a coherence sector's inverse below 1e-100 in magnitude are
# set to zero (_SectorFraction), here at the inverses' scale.
_INVERSE_CUT = _INVERSE_SCALE * 1e-100

# Row (k, l)'s six entries sit in columns (k + i, l + j), in this order
# (the slots of _entry_table).
_SLOT_STEPS = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))

# SuperLU settings of the Arnoldi shift-invert's factorization of
# R - sigma I, rows in _pivot_rows order (low_lying_spectrum).
_SPLU_OPTIONS = dict(
    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3, options=dict(SymmetricMode=True)
)


class DegenerateKernelError(RuntimeError):
    """The superoperator kernel is not one-dimensional at this tolerance."""


class EigenSolverError(RuntimeError):
    """The iterative eigensolver failed to converge."""


class TruncationLimitError(RuntimeError):
    """Adaptive truncation exceeded the dimension cap."""


def _superoperator_dim(S):
    d = math.isqrt(S.shape[0])
    if d * d != S.shape[0] or S.shape[0] != S.shape[1]:
        raise ValueError(f"superoperator must be d^2 x d^2, got shape {S.shape}")
    return d


def _param_table(delta, chi, epsilon, gamma):
    """The parameter table of broadcast (delta, chi, epsilon, gamma) columns: one row per cell, in C order."""
    columns = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (delta, chi, epsilon, gamma)))
    return np.stack(columns, axis=-1).reshape(-1, 4)


def _entry_table(table, dim):
    """Entries of every row of S for each row of a parameter table: shape (cells, dim, dim, 6).

    Slot s of row (k, l) holds the entry in the s-th column of that row in
    ascending column order, (k-1, l), (k, l-1), (k, l), (k, l+1), (k+1, l),
    (k+1, l+1), or 0 where the column lies outside the truncation.  Every
    cell's entries are those of its own generator, whatever the other
    cells are.
    """
    dim = _check_dim(dim)
    delta, chi, epsilon, gamma = (table[:, j, None] for j in range(4))
    n = np.arange(dim, dtype=float)
    # H's diagonal and first superdiagonal (fock.build_hamiltonian); + 0.0
    # turns -0.0 into +0.0 as adding H's zero drive diagonal there does
    level = delta * n + chi * n * (n - 1.0) + 0.0
    # zero-padded at both ends so out-of-range neighbours read 0 and drop out
    drive = np.zeros((len(table), dim + 1))
    drive[:, 1:dim] = epsilon * np.sqrt(np.arange(1, dim, dtype=float))
    root = np.append(np.sqrt(np.arange(1, dim, dtype=float)), 0.0)
    g = gamma[:, :, None]
    k = np.arange(dim)[:, None]
    l = np.arange(dim)[None, :]
    # 0.0 - x and level[l] - level[k] give +0 where the Kronecker sum does,
    # and a zero entry is +0 in both parts, as S's missing entries read in
    # _table_from_csr: both routes then solve with the same bits
    vals = np.zeros((len(table), dim, dim, 6), dtype=complex)
    vals.imag[..., 0] = 0.0 - drive[:, k]
    vals.imag[..., 1] = drive[:, l]
    vals.real[..., 2] = 0.0 - (0.5 * g) * (k + l)
    vals.imag[..., 2] = level[:, l] - level[:, k]
    vals.imag[..., 3] = drive[:, l + 1]
    vals.imag[..., 4] = 0.0 - drive[:, k + 1]
    vals.real[..., 5] = g * (root[k] * root[l])
    return vals


def build_superoperator(params, dim):
    """Sparse master-equation generator on a dim-level truncation (CSR).

    Row (k, l), column (i, j) indices follow row-major vectorization.
    The assembled matrix annihilates the trace functional exactly: the
    identity's vectorization is a left null vector in floating point.

    Each row's entries (_entry_table) are written in ascending column
    order and exact zeros are left out, so the stored pattern is the
    nonzero pattern.  Every entry is rounded as the Kronecker-product
    sum -i(H (x) I - I (x) H^T) + gamma (a (x) a*) - (gamma/2)(N (x) I +
    I (x) N) rounds it, down to the sign of zero parts.
    """
    import scipy.sparse as sp

    [vals] = _entry_table(_param_table(params.delta, params.chi, params.epsilon, params.gamma), dim)
    k = np.arange(dim)[:, None]
    l = np.arange(dim)[None, :]
    cols = (k * dim + l)[..., None] + np.array([i * dim + j for i, j in _SLOT_STEPS])
    keep = vals != 0
    size = dim * dim
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(keep.reshape(size, 6).sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(size, size))


def _sectors(d):
    """Lower-triangle entries (k, l), k >= l, in sector order, and each sector's start.

    Sector n = k - l holds rho[t + n, t] for t = 0 .. d - n - 1, so the
    sector-n entries of a packed lower triangle are x[starts[n]:starts[n + 1]].
    """
    sizes = np.arange(d, 0, -1)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    n = np.repeat(np.arange(d), sizes)
    t = np.arange(starts[-1]) - starts[n]
    return t + n, t, starts


def _inverse(m):
    """_INVERSE_SCALE times the inverses of the stacked matrices m, and the singular ones' mask.

    Each is LAPACK's gesv against _INVERSE_SCALE I, the solve that
    np.linalg.inv makes against I, so it is that inverse scaled exactly
    wherever the unscaled one is normal.  A singular matrix gets NaN for
    its inverse, so it fails only its cell.
    """
    scaled = np.eye(m.shape[-1], dtype=m.dtype) * _INVERSE_SCALE
    singular = np.zeros(len(m), dtype=bool)
    try:
        return np.linalg.solve(m, scaled), singular
    except np.linalg.LinAlgError:
        out = np.full_like(m, np.nan)
        for c in range(len(m)):
            try:
                out[c] = np.linalg.solve(m[c], scaled)
            except np.linalg.LinAlgError:
                singular[c] = True
        return out, singular


def _times(z, factor):
    """The C-contiguous complex array z times a power of two, in place, part by part.

    The product is exact while the parts stay normal; a complex product
    with factor + 0j would turn some -0 parts into +0.
    """
    parts = z.view(z.real.dtype)
    parts *= factor
    return z


def _matvec(m, v):
    return np.matmul(m, v[..., None])[..., 0]


def _couple(p, r, z):
    """p z[t] + r z[t + 1] for each row t of a sector: z is read along axis 1."""
    return p * z[:, :-1] + r * z[:, 1:]


def _pad(y):
    """y with a zero before and after it along axis 1."""
    out = np.zeros((y.shape[0], y.shape[1] + 2) + y.shape[2:], dtype=y.dtype)
    out[:, 1:-1] = y
    return out


class _SectorFraction:
    """Risken's matrix continued fraction over the offset sectors of a block of cells.

    ``coef`` holds each cell's six slots of every lower-triangle row, in
    _sectors order.  In sector n >= 1 the rows read sector n itself (A_n:
    slot 2 on the diagonal, the jump slot 5 above it), sector n + 1
    (B_n: slots 1 and 4) and sector n - 1 (C_n: slots 0 and 3), so with
    x_n = R_n x_{n-1} + s_n from the top sector down,

        M_n = A_n + B_n R_{n+1},  R_n = -M_n^-1 C_n,  s_n = M_n^-1 (r_n - B_n s_{n+1}).

    Only M_n^-1 is kept; R_n is applied through it.  Sector -1 is the
    adjoint of sector 1, so the populations solve the real system
    A_0 + 2 Re(B_0 R_1) with row 0 replaced by the trace.

    Entries of M_n^-1 below 1e-100 in magnitude, n >= 1, are set to
    zero.  Left in, they carry subnormal numbers into the sectors below,
    where arithmetic on them is slow: point C at dim 160 took 0.68 s
    without the cut and 0.49 s with it (one x86-64 core), and refinement
    against the full residual leaves <a> the same to the bit.

    The cut alone did not keep subnormals out, and they formed in the
    solves against I inside np.linalg.inv, not in its LU factorization:
    on point C's 160 blocks at dim 160 the factorizations take 0.032 s,
    as for random blocks of those sizes, but the solves 0.14-0.17 s,
    against 0.08 s for random blocks and 0.08 s against 2^600 I (one
    core).  So each M_n^-1 is solved against, and kept at,
    _INVERSE_SCALE = 2^600 times its value (_inverse), and the couplings
    B and C that multiply it are taken at 2^-600.  A power-of-two scale
    is exact on normal numbers, so the kept entries and the products are
    the unscaled ones to the bit (at point C, dim 160, every kept entry
    is np.linalg.inv's), while values the solves form stay normal 2^600
    further down: those raw inverses hold 629 subnormal entries, against
    26506 unscaled.  An entry overflows only from |M_n^-1| >= 2^424.
    solve takes its right-hand side at any scale and returns x at 2^600
    times it.
    """

    def __init__(self, coef, d):
        self.d = d
        self.starts = _sectors(d)[2]
        self.inverses = [None] * d
        # slots 0, 1, 3 and 4 of every row at 2^-600
        self.couplings = _times(np.take(coef, [0, 1, 3, 4], axis=-1), 1.0 / _INVERSE_SCALE)
        self.singular = np.zeros(len(coef), dtype=bool)
        for n in range(d - 1, -1, -1):
            q = self.sector(coef, n)
            m = d - n
            rows = np.arange(m)
            own = q if n else q.real
            a = np.zeros((len(coef), m, m), dtype=own.dtype)
            a[:, rows, rows] = own[..., 2]
            a[:, rows[:-1], rows[1:]] = own[:, :-1, 5]
            if n < d - 1:
                # B_n M_{n+1}^-1 C_{n+1}, both couplings bidiagonal; C at
                # 2^-600 undoes the inverse's scale
                g = self.inverses[n + 1]
                c = self.sector(self.couplings, n + 1)[:, None]
                w = np.zeros((len(coef), m - 1, m), dtype=complex)
                w[..., :-1] = g * c[..., 0]
                w[..., 1:] += g * c[..., 2]
                coupling = _couple(q[..., 1, None], q[..., 4, None], _pad(w))
                # sector -1 mirrors sector 1 into the populations
                a -= coupling if n else 2.0 * coupling.real
            if n == 0:
                a[:, 0] = 1.0
            inv, singular = _inverse(a)
            if n:
                inv[np.abs(inv) < _INVERSE_CUT] = 0.0
            self.inverses[n] = inv
            self.singular |= singular

    def sector(self, x, n):
        return x[:, self.starts[n]:self.starts[n + 1]]

    def solve(self, rhs, upward=True):
        """_INVERSE_SCALE x, with A x = rhs, A the trace-replaced S; packed lower triangles.

        Without the upward pass every s_n is taken as 0, which is exact
        when rhs is zero outside sector 0.
        """
        d, inverses = self.d, self.inverses
        s = [0.0] * d
        if upward:
            for n in range(d - 1, 0, -1):
                u = self.sector(rhs, n)
                if n < d - 1:
                    q = self.sector(self.couplings, n)
                    u = u - _couple(q[..., 1], q[..., 3], _pad(s[n + 1]))
                s[n] = _matvec(inverses[n], u)
            q = self.sector(self.couplings, 0)
            u = rhs[:, :d].real - 2.0 * _couple(q[..., 1], q[..., 3], _pad(s[1])).real
        else:
            u = rhs[:, :d].real.copy()
        u[:, 0] = rhs[:, 0].real
        x = np.empty_like(rhs)
        x[:, :d] = _matvec(inverses[0], u)
        for n in range(1, d):
            q = self.sector(self.couplings, n)
            below = _couple(q[..., 0], q[..., 2], self.sector(x, n - 1))
            self.sector(x, n)[...] = s[n] - _matvec(inverses[n], below)
        return x


def _neighbours(d):
    """Where slot s of each lower-triangle row reads z = (x, conj x, 0), x packed."""
    k, l, _ = _sectors(d)
    size = k.size
    at = np.full((d + 2, d + 2), 2 * size)
    at[l + 1, k + 1] = size + np.arange(size)
    at[k + 1, l + 1] = np.arange(size)
    return np.stack([at[k + 1 + i, l + 1 + j] for i, j in _SLOT_STEPS], axis=-1)


def _residual(coef, neighbours, d, x):
    """b - A x for the trace-replaced system on the lower triangle, in x's precision.

    ``coef`` holds S's entries in x's dtype; the upper triangle is read as
    the adjoint of the lower.  Rows other than (0, 0) are -(S x), row
    (0, 0) is 1 - Tr x.
    """
    z = np.concatenate((x, x.conj(), np.zeros((len(x), 1), dtype=x.dtype)), axis=1)
    r = np.zeros_like(x)
    for s in range(6):
        r -= coef[..., s] * z[:, neighbours[:, s]]
    r[:, 0] = 1 - x[:, :d].sum(axis=1)
    return r


def _refined_sectors(coef, d):
    """Packed lower triangles x of the trace-replaced systems A x = e_0, refined.

    Returns (x, correction, singular): the last relative correction of
    each cell, and the mask of cells with a singular sector block.  See
    steady_state; every cell stops on its own.
    """
    fraction = _SectorFraction(coef, d)
    n = len(coef)
    b = np.zeros(coef.shape[:2], dtype=complex)
    b[:, 0] = 1.0
    # e_0 is zero outside sector 0, so the first solve needs no upward pass
    x = _times(fraction.solve(b, upward=False).astype(np.clongdouble), 1.0 / _INVERSE_SCALE)
    coef = coef.astype(np.clongdouble)
    neighbours = _neighbours(d)
    previous = np.full(n, np.inf)
    correction = np.full(n, np.nan)
    active = np.ones(n, dtype=bool)
    back = 1.0 / (_INVERSE_SCALE * _RESIDUAL_SCALE)
    for _ in range(8):
        r = _times(_residual(coef, neighbours, d, x), _RESIDUAL_SCALE).astype(complex)
        scaled = fraction.solve(r)
        dx = _times(scaled.astype(np.clongdouble), back)
        x[active] += dx[active]
        # max|dx| of the double correction, scaled back exactly
        step = np.max(np.abs(scaled), axis=1) * back / np.max(np.abs(x), axis=1)
        correction[active] = step[active].astype(float)
        active &= ~((correction <= 1e-15) | (correction > 0.5 * previous))
        previous = correction.copy()
        if not active.any():
            break
    return x.astype(complex), correction, fraction.singular


def _table_product(vals, rho):
    """S vec(rho) of each cell from its entry table ``vals``, shape (cells, d, d).

    Each row is summed slot by slot in ascending column order, with the
    complex products written out in real parts (numpy's complex ``*``
    fuses a multiply-add on FMA CPUs), as the CSR product S @ vec(rho)
    sums it: the two agree to the bit, as a zero entry adds a zero.
    """
    n, d = rho.shape[:2]
    z = np.zeros((n, d + 2, d + 2), dtype=complex)
    z[:, 1:-1, 1:-1] = rho
    out = np.zeros((n, d, d), dtype=complex)
    re, im = out.real, out.imag
    for s, (i, j) in enumerate(_SLOT_STEPS):
        a = vals[..., s]
        w = z[:, 1 + i:1 + i + d, 1 + j:1 + j + d]
        re += a.real * w.real - a.imag * w.imag
        im += a.real * w.imag + a.imag * w.real
    return out


def _solve_block(vals):
    """Steady states of a block of cells from their entry tables ``vals`` (cells, d, d, 6).

    Returns (rho, residual, errors): the states (cells, d, d), max|S rho|
    per cell, and per cell the exception steady_state raises for it, or
    None.  Each step is numpy across the whole block, and no step mixes
    cells: every cell's result is independent of the others.
    """
    n, d = vals.shape[:2]
    errors = [None] * n
    damped = np.any(vals[..., 2].real, axis=(1, 2))
    for c in np.flatnonzero(~damped):
        errors[c] = DegenerateKernelError(
            "generator has no damping; every function of the Hamiltonian is stationary"
        )
    k, l, _ = _sectors(d)
    x = np.zeros((n, k.size), dtype=complex)
    if damped.any():
        x[damped], correction, singular = _refined_sectors(vals[damped][:, k, l], d)
        for c, value, bad in zip(np.flatnonzero(damped), correction, singular):
            if bad:
                errors[c] = DegenerateKernelError("a sector block of the system is singular")
            # written so that a NaN correction fails too
            elif not value <= 1e-6:
                errors[c] = RuntimeError(
                    f"steady-state refinement stalled at relative correction {value:.3e}"
                )
    rho = np.zeros((n, d, d), dtype=complex)
    rho[:, l, k] = x.conj()
    rho[:, k, l] = x
    residual = np.full(n, np.nan)
    solved = np.array([e is None for e in errors], dtype=bool)
    if not solved.any():
        return rho, residual, errors
    r = rho[solved]
    r /= np.trace(r, axis1=1, axis2=2).real[:, None, None]
    rho[solved] = r
    # np.abs, not np.hypot of the parts: the two differ in the last bit
    residual[solved] = np.max(np.abs(_table_product(vals[solved], r)), axis=(1, 2))
    for c, invalid in zip(np.flatnonzero(solved), _density_matrix_errors(r)):
        # written so that a NaN residual fails too
        if residual[c] <= TOL_RESID:
            errors[c] = invalid
        else:
            errors[c] = RuntimeError(
                f"steady-state residual {residual[c]:.3e} exceeds {TOL_RESID:.1e}"
            )
    return rho, residual, errors


def _table_from_csr(S):
    """S's entries as one cell's (d, d, 6) entry table (_entry_table's layout).

    Raises ValueError for an entry outside the six slots of its row.
    """
    S = S.tocsr(copy=True)
    S.sum_duplicates()
    d = _superoperator_dim(S)
    rows = np.repeat(np.arange(d * d), np.diff(S.indptr))
    l = rows % d
    offset = S.indices - rows
    slot = np.full(rows.size, -1)
    inside = (True, l >= 1, True, l <= d - 2, True, l <= d - 2)
    for s, ((i, j), ok) in enumerate(zip(_SLOT_STEPS, inside)):
        slot[(offset == i * d + j) & ok] = s
    if np.any(slot < 0):
        row = rows[np.argmax(slot < 0)]
        raise ValueError(
            f"entry in row ({row // d}, {row % d}) is not a master-equation coupling"
        )
    vals = np.zeros((d * d, 6), dtype=complex)
    vals[rows, slot] = S.data
    return vals.reshape(1, d, d, 6)


def steady_state(S):
    """Unique steady state of the generator S as a density matrix.

    One redundant row of the singular system S x = 0 is replaced by the
    trace constraint Tr rho = 1.  The drive moves the coherence offset
    n = k - l by one, so S is block-tridiagonal over offset sectors, and
    the system is solved by Risken's matrix continued fraction (H.
    Risken, The Fokker-Planck Equation, 2nd ed., Springer 1989, ch. 9;
    _SectorFraction): one dense inverse per sector, with Hermiticity
    closing the recursion at the populations.  The solution is refined
    with the same inverses, x += A^-1 (b - A x) (Moler, J. ACM 14, 316
    (1967)).  x is kept and the residual formed in np.clongdouble from
    S's entries; each correction is solved in double, from the residual
    at 2^300 so that its small entries stay normal, and scaled back in
    np.clongdouble.  The sector inverses are kept at 2^600 times their
    value (_SectorFraction), which changes no kept bit and keeps LAPACK's
    solves against the identity out of subnormal arithmetic.  Refinement
    repeats while the relative max-norm correction max|dx| / max|x| at
    least halves, and stops at <= 1e-15 or after 8 steps.

    Next to the Duffing bifurcation (condition number ~1e9) an unrefined
    solve leaves <a> off by up to 3e-5 while max|S rho| reads ~1e-16.
    With the extended residual the 21 hard-regime test cells agree to
    2e-13 between one and two BLAS threads, and to 5e-10 with a sparse LU
    with partial pivoting refined the same way; what is left is the
    rounding of S's entries to double, <= 5e-7 in <a> there.  The
    returned matrix is Hermitian by construction, renormalized, and
    validated (residual max|S rho| < TOL_RESID, PSD within tolerance).
    This is _steady_state_outcomes' solve, on S's entries as a block of
    one cell; only S's own methods are called, to read its entries.

    Raises ValueError when S holds an entry outside the six couplings of
    its row (module docstring).  Raises DegenerateKernelError for a
    generator without damping (every diagonal entry purely imaginary,
    gamma = 0), where every function of H is stationary, and when a
    sector block of the recursion is singular.  Raises
    RuntimeError when the last refinement correction is still above 1e-6
    relative to max|x|.
    """
    rho, _, errors = _solve_block(_table_from_csr(S))
    if errors[0] is not None:
        raise errors[0]
    return rho[0]


def _start_dims(table):
    """Initial truncation of every row of a parameter table: (starts, errors).

    A cell starts at max(10, ceil(4 (n + 1))) levels, with n the photon
    number of its largest classical branch.  starts holds the truncations
    as floats; errors maps the index of every cell whose classical
    branches cannot be formed to that exception.  The classical branches
    of all cells come from one _classical_branches call.

    The top-population test alone cannot stand in for this estimate.  In
    the bistable regime a truncation too small for the upper branch
    leaves a state on the lower branch whose top levels are empty: at
    delta = -5/3, epsilon = 1.5, gamma = 0.1, chi = 0.05, a 16-level solve
    passes the 1e-8 test (top two populations 1.3e-9), yet its <a> is 4.9
    away from the exact value; starting at 84 levels, from the upper
    branch, the adaptive solve is 4.7e-7 away.  A faster start must not
    shrink this estimate.
    """
    _, photon_numbers, errors = _classical_branches(*table.T)
    with np.errstate(invalid="ignore"):
        nbar = np.fmax.reduce(photon_numbers, axis=1)
    return np.maximum(10.0, np.ceil(4.0 * (nbar + 1.0))), errors


def _steady_state_outcomes(table, dim, summary=None):
    """Steady states of the rows of a parameter table (_param_table), with adaptive truncation.

    Returns one (rho, dim, residual) per row, in order, or in its place
    the exception the cell raises alone: ValueError for gamma <= 0,
    TruncationLimitError when the start truncation (_start_dims) is above
    _MAX_DIM or a doubling would pass it, or steady_state's errors.  A
    cell's truncation doubles until its top two levels hold less than
    _TOP_POP_TOL; a ``dim`` solves every cell at that size instead, and
    one not an integer >= 2 raises ValueError at once.  residual is
    max|S rho| with S = build_superoperator(params, dim), to the bit.
    Cells at one truncation share blocks of at most _BLOCK_PAIRS Fock
    pairs (_solve_block), and each outcome is the cell's alone, bit for bit.

    With ``summary``, each block's stack of accepted states (cells, d, d)
    goes through it, and each cell keeps its item of the result in place
    of rho.
    """
    if dim is not None:
        dim = _check_dim(dim)
    results = [None] * len(table)
    for i in np.flatnonzero(table[:, 3] <= 0):
        results[i] = ValueError("steady state requires gamma > 0")
    cells = np.flatnonzero(table[:, 3] > 0)
    pending = {}
    if dim is None:
        starts, errors = _start_dims(table[cells])
        for j, (i, start) in enumerate(zip(cells.tolist(), starts.tolist())):
            if j in errors:
                results[i] = errors[j]
            elif start > _MAX_DIM:
                results[i] = TruncationLimitError(
                    f"semiclassical start truncation {start:.0f} exceeds the cap {_MAX_DIM}"
                )
            else:
                pending.setdefault(int(start), []).append(i)
    else:
        pending[dim] = cells.tolist()
    while pending:
        d = min(pending)
        waiting = pending.pop(d)
        per_block = max(1, _BLOCK_PAIRS // (d * d))
        for first in range(0, len(waiting), per_block):
            members = waiting[first:first + per_block]
            rho, residual, errors = _solve_block(_entry_table(table[members], d))
            tails = rho[:, d - 1, d - 1].real + rho[:, d - 2, d - 2].real
            accepted = []
            for c, i in enumerate(members):
                if errors[c] is not None:
                    results[i] = errors[c]
                elif dim is not None or tails[c] < _TOP_POP_TOL:
                    accepted.append(c)
                elif 2 * d > _MAX_DIM:
                    results[i] = TruncationLimitError(
                        f"top-level population {float(tails[c]):.3e} still above "
                        f"{_TOP_POP_TOL:.1e} at dim {d}"
                    )
                else:
                    pending.setdefault(2 * d, []).append(i)
            states = rho[accepted] if summary is None else summary(rho[accepted])
            for c, state in zip(accepted, states):
                results[members[c]] = (state, d, float(residual[c]))
    return results


def solve_steady_state_adaptive(params, dim=None):
    """Steady state with automatic truncation control.

    Starting from a semiclassical estimate, the truncation doubles until
    the combined population of the top two levels drops below
    _TOP_POP_TOL.  Passing ``dim`` skips adaptation and solves at that
    fixed size.  Returns (rho, dim, residual), _steady_state_outcomes'
    for this one cell, or raises the exception that outcome is.
    """
    [out] = _steady_state_outcomes(_param_table(params.delta, params.chi, params.epsilon, params.gamma), dim)
    if isinstance(out, Exception):
        raise out
    return out


@dataclass(frozen=True)
class SpectrumSlice:
    """Slow eigenvalues of a generator (see low_lying_spectrum) and eigenmatrices.

    eigenvalues      complex array, sorted by descending real part
    eigenmatrices    matching right eigenmatrices; the stationary one has
                     unit trace, real-eigenvalue ones are exactly Hermitian,
                     traceless, unit Frobenius norm with positive leading
                     diagonal entry, and complex-pair partners are exact
                     adjoints of each other
    dim              truncation the matrices live on
    """

    eigenvalues: np.ndarray
    eigenmatrices: tuple
    dim: int


def _arnoldi_shift(S):
    # Place the shift just right of the spectrum; the least-negative decay
    # scale on the diagonal sets the distance.
    re = -S.diagonal().real
    re = re[re > 1e-14]
    scale = re.min() if re.size else 1.0
    return 0.3 * scale


def _arnoldi_start(n):
    """Fixed ARPACK start: a seeded random real unit vector of Hermitian-basis coordinates.

    Without a fixed start, ARPACK draws one from a seed it keeps between
    calls, so a result would depend on the eigs calls made before it.
    The vector is generic on purpose: vec(I), say, lies in the population
    sector, which an undriven generator leaves invariant, and Arnoldi
    from it never sees the coherence eigenvalues.
    """
    v = np.random.default_rng(0).standard_normal(n)
    return v / np.linalg.norm(v)


def _hermitian_basis(d):
    """Sparse unitary T: columns E_kk, then (E_kl + E_lk)/sqrt 2 and i(E_kl - E_lk)/sqrt 2, k < l.

    T c is the (row-major) vectorization of a Hermitian matrix for every
    real c, and T conj(c) that of its adjoint.
    """
    import scipy.sparse as sp

    k, l = np.triu_indices(d, 1)
    p, c = k.size, math.sqrt(0.5)
    sym = d + np.arange(p)
    rows = np.concatenate((np.arange(d) * (d + 1), *[k * d + l, l * d + k] * 2))
    cols = np.concatenate((np.arange(d), sym, sym, sym + p, sym + p))
    vals = np.concatenate((np.ones(d), np.full(2 * p, c), np.full(p, 1j * c), np.full(p, -1j * c)))
    return sp.csr_matrix((vals, (rows, cols)), shape=(d * d, d * d))


def _pivot_rows(S, sigma):
    """Row order of R - sigma I putting each coherence block's larger entry on the diagonal.

    On the pair (E_kl + E_lk)/sqrt 2, i(E_kl - E_lk)/sqrt 2 of _hermitian_basis,
    S's diagonal entry c = -g - i w of row (k, l) becomes the block
    [[-g, w], [-w, -g]], with g the damping and w the frequency of the
    coherence.  Where |w| > g + sigma the pair's two rows swap, so each
    pivot SuperLU is offered is the block's larger entry, as the complex
    diagonal entry of S - sigma I is.  Left in place at weak damping, the
    small -g - sigma fails the diagonal pivot test and the off-diagonal
    pivots fill L + U: 1.0M entries against 69k at delta=0.4, chi=1,
    epsilon=0.05, gamma=0.01, dim 40.
    """
    d = _superoperator_dim(S)
    k, l = np.triu_indices(d, 1)
    c = S.diagonal().reshape(d, d)[k, l] - sigma
    sym = d + np.flatnonzero(np.abs(c.imag) > np.abs(c.real))
    rows = np.arange(d * d)
    rows[sym], rows[sym + k.size] = sym + k.size, sym
    return rows


def _leading_diagonal_sign(m):
    diag = np.real(np.diag(m))
    scale = np.max(np.abs(m))
    for value in diag:
        if abs(value) > 1e-10 * scale:
            return 1.0 if value > 0 else -1.0
    flat = m.reshape(-1)
    for value in flat:
        if abs(value) > 1e-10 * scale:
            return 1.0 if value.real > 0 else -1.0
    return 1.0


def _spectrum_order(w):
    """Indices sorting w by descending real part, conjugate partners adjacent, +Im first.

    Real eig and real ARPACK return each complex pair as exact
    conjugates, so one lexsort on (-Re, -|Im|, -sign Im) puts the members
    side by side.  Also returns, in sorted order, the mask of members
    with Im < -TOL_EIG that are the exact conjugate of the value before
    them; values nearer the real axis are never paired.
    """
    order = np.lexsort((-np.sign(w.imag), -np.abs(w.imag), -w.real))
    v = w[order]
    follows = np.r_[False, (v[1:].imag < -TOL_EIG) & (v[1:] == v[:-1].conj())]
    return order, follows


def low_lying_spectrum(S, count=6):
    """The ``count`` slowest eigenvalues of S, plus eigenmatrices.

    Both branches solve R = T^H S T, real on the Hermitian basis T
    (_hermitian_basis).  Up to DENSE_EIG_MAX_DIM all of R's eigenvalues
    are computed densely.  Beyond it, real shift-inverted Arnoldi returns
    the count + 6 eigenvalues nearest the real shift sigma just right of
    zero (_arnoldi_shift), applying (R - sigma I)^-1 through one real
    sparse LU of R - sigma I (rows in _pivot_rows order, _SPLU_OPTIONS),
    unrefined.
    Either way the ``count`` with largest real part are kept.  Nearest the
    shift is not largest real part: a slow mode with a large imaginary
    part can be missed (at delta=0.4, chi=1, epsilon=0.05, gamma=0.01,
    dim 40, the -0.0051 +- 0.4103i pair is).

    Eigenvalues come in descending real part, each complex-conjugate pair
    adjacent with its +Im member first.  R is real, so a complex value
    Arnoldi returns without its partner gets the exact conjugate added,
    and a pair the cutoff would split is kept whole (so the result can
    hold count + 1 entries).  Raises ValueError when max|Im R| > 1e-12
    max|R|: S does not preserve Hermiticity.  Raises DegenerateKernelError,
    as steady_state does, when S has no damping: its zero mode is then not
    unique.  With damping it is, and the second eigenvalue is returned
    however close to zero it lies (next to the Duffing bifurcation the
    switching rate is ~1e-10).
    """
    import scipy.sparse as sp

    d = _superoperator_dim(S)
    if not (isinstance(count, numbers.Integral) and not isinstance(count, bool) and count >= 1):
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    if not np.any(S.diagonal().real):
        raise DegenerateKernelError(
            "generator has no damping; every function of the Hamiltonian is stationary"
        )
    T = _hermitian_basis(d)
    Th = T.conj().T.tocsr()
    R = Th @ S @ T
    if abs(R.imag).max() > 1e-12 * abs(R).max():
        raise ValueError("S does not preserve Hermiticity: T^H S T is not real")
    R = R.real
    if d <= DENSE_EIG_MAX_DIM:
        # numpy returns real arrays when every eigenvalue is real
        w, v = np.linalg.eig(R.toarray())
        w, v = w.astype(complex, copy=False), v.astype(complex, copy=False)
    else:
        # loaded here, the Arnoldi branch being its one user
        import scipy.sparse.linalg as spla

        k = min(count + 6, d * d - 2)
        sigma = _arnoldi_shift(S)
        rows = _pivot_rows(S, sigma)
        shifted = (R - sigma * sp.identity(d * d, format="csr"))[rows]
        lu = spla.splu(shifted.tocsc(), **_SPLU_OPTIONS)
        opinv = spla.LinearOperator(R.shape, lambda x: lu.solve(x[rows]), dtype=float)
        try:
            w, v = spla.eigs(R, k, sigma=sigma, OPinv=opinv, v0=_arnoldi_start(d * d), maxiter=5000)
        except spla.ArpackNoConvergence as exc:
            raise EigenSolverError(f"Arnoldi iteration did not converge: {exc}") from exc
    # R is real, so (conj lam, conj v) is an eigenpair whenever (lam, v) is:
    # add the partner of any complex value Arnoldi returned alone
    lone = np.abs(w.imag) > TOL_EIG * max(1.0, float(np.max(np.abs(w))))
    lone &= ~np.isin(w.conj(), w)
    w = np.r_[w, w[lone].conj()]
    v = np.c_[v, v[:, lone].conj()]
    order, follows = _spectrum_order(w)
    w = w[order]
    v = v[:, order]
    n_keep = min(count, w.size)
    # keep conjugate partners together across the cutoff
    if n_keep < w.size and follows[n_keep]:
        n_keep += 1
    w = w[:n_keep]

    scale = max(1.0, float(np.max(np.abs(w))))
    if abs(w[0]) > TOL_EIG * scale:
        raise DegenerateKernelError(
            f"largest-real-part eigenvalue {w[0]} is not the stationary zero mode"
        )

    out = []
    for i, lam in enumerate(w):
        real = abs(lam.imag) <= TOL_EIG * scale
        # a real eigenvalue's real coordinates give a Hermitian matrix
        m = (T @ (v[:, i].real if real else v[:, i])).reshape(d, d)
        if i == 0:
            out.append(m / np.trace(m).real)
        elif real:
            m = m - (np.trace(m).real / d) * np.eye(d)
            m = m / np.linalg.norm(m)
            out.append(_leading_diagonal_sign(m) * m)
        elif follows[i]:
            out.append(out[-1].conj().T)
        else:
            # normalize this member; its partner takes the adjoint
            j = np.argmax(np.abs(m))
            m = m / np.linalg.norm(m)
            out.append(m * np.exp(-1j * np.angle(m.reshape(-1)[j])))
    return SpectrumSlice(eigenvalues=w, eigenmatrices=tuple(out), dim=d)


@dataclass(frozen=True)
class MetastablePair:
    """Extreme metastable states on the positivity boundary.

    rho_plus/rho_minus are rho0 + beta_{+/-} drho1 at the coefficients
    where the smallest eigenvalue reaches -TOL_PSD; their smallest
    eigenvalues lie in [-TOL_PSD, TOL_BOUNDARY].  ``mixing_fraction`` is
    the weight x0 with rho0 = x0 rho_plus + (1 - x0) rho_minus.  The
    betas are reproducible to ~5e-10 at that tolerance (see
    metastable_extremes).
    """

    rho_plus: np.ndarray
    rho_minus: np.ndarray
    beta_plus: float
    beta_minus: float

    @property
    def mixing_fraction(self):
        return -self.beta_minus / (self.beta_plus - self.beta_minus)


def _mixture(rho0, drho1, beta):
    """rho0 + beta drho1 scaled to unit trace; exactly Hermitian if rho0 and drho1 are."""
    rho = rho0 + beta * drho1
    return rho / np.trace(rho).real


def metastable_extremes(rho0, drho1):
    """Extreme mixtures rho0 + beta drho1 on the positivity boundary.

    rho0 must be a valid density matrix and drho1 a Hermitian traceless
    direction (the slowest decaying eigenmatrix).  Returns the pair at
    beta_minus < 0 < beta_plus where the smallest eigenvalue of
    rho0 + beta drho1 reaches -TOL_PSD; rescaling drho1 rescales the betas
    but leaves the end states invariant.

    With rho0 + t I = L L^H, rho0 + beta drho1 + t I = L (I + beta M) L^H
    for M = L^-1 drho1 L^-H, so the boundaries are beta = -1/mu at the
    extreme eigenvalues mu of M (a symmetric-definite generalized
    eigenproblem, Golub and Van Loan section 8.7), with t = _BOUNDARY_SHIFT
    just inside TOL_PSD.

    The betas are reproducible to ~5e-10: near the boundary the smallest
    eigenvalue is nearly flat in beta, so rounding in drho1 is amplified;
    at point C, dim 18, beta_minus spans 4.1e-10 over OpenBLAS's default
    (SkylakeX) kernels and the Katmai kernels that
    OPENBLAS_CORETYPE=Prescott loads, at one and two threads.  The
    tolerance sets them more than rounding does: as TOL_PSD goes to 0,
    beta_minus at point C moves by ~3 % (-0.37680 at 1e-8, -0.36545 at
    1e-12).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    drho1 = np.asarray(drho1, dtype=complex)
    for name, m in (("rho0", rho0), ("drho1", drho1)):
        if not np.isfinite(m).all():
            raise ValueError(f"{name} must be finite")
    validate_density_matrix(rho0)
    if drho1.shape != rho0.shape:
        raise ValueError(f"shape mismatch: {drho1.shape} vs {rho0.shape}")
    herm_dev = np.max(np.abs(drho1 - drho1.conj().T))
    norm = np.linalg.norm(drho1)
    if norm == 0:
        raise ValueError("perturbation direction is zero")
    if herm_dev > TOL_HERM * max(1.0, norm):
        raise ValueError(f"perturbation not Hermitian: deviation {herm_dev:.3e}")
    if abs(np.trace(drho1)) > TOL_TRACE * max(1.0, norm):
        raise ValueError(f"perturbation not traceless: trace {np.trace(drho1):.3e}")

    # exactly Hermitian parts, so every mixture is exactly Hermitian as well
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    drho1 = 0.5 * (drho1 + drho1.conj().T)
    try:
        chol = np.linalg.cholesky(rho0 + _BOUNDARY_SHIFT * np.eye(len(rho0)))
    except np.linalg.LinAlgError:
        raise ValueError(
            f"rho0 has an eigenvalue at the positivity tolerance -TOL_PSD = {-TOL_PSD:.1e}, "
            f"below the boundary {-_BOUNDARY_SHIFT:.9e}"
        ) from None
    # L^-1 drho1 L^-H, from drho1 L^-H = (L^-1 drho1)^H
    half = np.linalg.solve(chol, drho1)
    mu = np.linalg.eigvalsh(np.linalg.solve(chol, half.conj().T))
    if not mu[0] < 0.0 < mu[-1]:
        raise ValueError(
            "no positivity boundary found along this direction; "
            "the perturbation must be indefinite and traceless"
        )
    beta_plus = -1.0 / mu[0]
    beta_minus = -1.0 / mu[-1]
    pair = MetastablePair(
        rho_plus=_mixture(rho0, drho1, beta_plus),
        rho_minus=_mixture(rho0, drho1, beta_minus),
        beta_plus=float(beta_plus),
        beta_minus=float(beta_minus),
    )
    for rho in (pair.rho_plus, pair.rho_minus):
        g = np.linalg.eigvalsh(rho)[0]
        if not (-TOL_PSD <= g <= TOL_BOUNDARY):
            raise RuntimeError(f"boundary left min eigenvalue at {g:.3e}")
    return pair
