"""Tests for the master-equation generator, steady state, and spectrum."""

import itertools

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvals

from duffspec.fock import (
    TOL_PSD,
    ModelParams,
    _density_matrix_errors,
    annihilation,
    build_hamiltonian,
    expectation,
    validate_density_matrix,
    von_neumann_entropy,
)
from duffspec.lindblad import (
    TOL_BOUNDARY,
    TOL_EIG,
    TOL_RESID,
    DegenerateKernelError,
    TruncationLimitError,
    _mixture,
    _param_table,
    _spectrum_order,
    _start_dims,
    build_superoperator,
    low_lying_spectrum,
    metastable_extremes,
    solve_steady_state_adaptive,
    solve_steady_states,
    steady_state,
)
from duffspec import lindblad
from duffspec.closedform import dw_response
from duffspec.perturbation import s0_eigenvalue
from test_closedform import mp_dw

POINT_C = ModelParams(delta=-5.2, chi=1.0, epsilon=3.2, gamma=2.0)
HARD_REGIME = ModelParams(delta=-2.0, chi=0.05, epsilon=1.5, gamma=0.1)


def dense_rhs(params, rho):
    """Reference master-equation right-hand side, assembled densely."""
    dim = rho.shape[0]
    h = build_hamiltonian(params, dim)
    a = annihilation(dim)
    ad = a.conj().T
    n = ad @ a
    g = params.gamma
    return -1j * (h @ rho - rho @ h) + 0.5 * g * (2 * a @ rho @ ad - n @ rho - rho @ n)


@pytest.fixture(scope="module")
def point_c_solution():
    rho, dim, residual = solve_steady_state_adaptive(POINT_C)
    return rho, dim, residual


@pytest.fixture(scope="module")
def point_c_spectrum(point_c_solution):
    _, dim, _ = point_c_solution
    return low_lying_spectrum(build_superoperator(POINT_C, dim))


def kron_superoperator(params, dim):
    """Reference generator as a sum of sparse Kronecker products."""
    h = sp.csr_matrix(build_hamiltonian(params, dim))
    a = sp.diags(np.sqrt(np.arange(1, dim, dtype=float)), 1, format="csr").astype(complex)
    n = sp.diags(np.arange(dim, dtype=float), 0, format="csr").astype(complex)
    eye = sp.identity(dim, dtype=complex, format="csr")
    g = params.gamma
    S = (
        -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
        + g * sp.kron(a, a.conjugate())
        - 0.5 * g * (sp.kron(n, eye) + sp.kron(eye, n))
    )
    return S.tocsr()


@pytest.mark.parametrize(
    "params",
    [
        POINT_C,
        HARD_REGIME,
        ModelParams(delta=0.4, chi=1.0, epsilon=0.0, gamma=0.01),
        ModelParams(delta=-1.3, chi=0.0, epsilon=0.7, gamma=0.35),
        ModelParams(delta=-1.0, chi=1.0, epsilon=0.5, gamma=0.0),
    ],
    ids=["point-c", "hard-regime", "eps0", "chi0", "gamma0"],
)
@pytest.mark.parametrize("dim", [2, 3, 10, 40, 160])
def test_superoperator_matches_kronecker_oracle(params, dim):
    S = build_superoperator(params, dim)
    ref = kron_superoperator(params, dim)
    assert S.format == "csr" and S.shape == ref.shape
    if dim <= 40:
        assert np.array_equal(S.toarray(), ref.toarray())
    if dim >= 3:
        # at dim 2 the Kronecker products store explicit zeros; above it
        # pattern, order and every bit of every entry (signed zeros too) agree
        assert np.array_equal(S.indptr, ref.indptr)
        assert np.array_equal(S.indices, ref.indices)
        assert S.data.tobytes() == ref.data.tobytes()


def test_superoperator_matches_dense_rhs():
    rng = np.random.default_rng(7)
    dim = 8
    params = ModelParams(delta=-1.3, chi=1.0, epsilon=0.7, gamma=0.35)
    S = build_superoperator(params, dim)
    for _ in range(5):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = (S @ m.reshape(-1)).reshape(dim, dim)
        assert np.max(np.abs(lhs - dense_rhs(params, m))) < 1e-12


def test_identity_is_left_null_vector():
    # trace preservation: vec(I)^T S = 0 to rounding
    for params in (POINT_C, ModelParams(delta=0.4, chi=1.0, epsilon=0.05, gamma=0.01)):
        dim = 11
        S = build_superoperator(params, dim)
        left = np.eye(dim, dtype=complex).reshape(-1) @ S.toarray()
        assert np.max(np.abs(left)) < 1e-12


def test_small_dim_rejected():
    with pytest.raises(ValueError):
        build_superoperator(POINT_C, 1)


def test_pure_decay_spectrum_two_levels():
    # gamma=2, no drive or detuning: decay rates are gamma*(k+l)/2
    params = ModelParams(delta=0.0, chi=0.0, epsilon=0.0, gamma=2.0)
    S = build_superoperator(params, 2)
    w = np.sort_complex(np.linalg.eigvals(S.toarray()))
    assert np.allclose(w, [-2.0, -1.0, -1.0, 0.0], atol=1e-12)


def test_undriven_steady_state_is_vacuum():
    params = ModelParams(delta=-0.7, chi=1.0, epsilon=0.0, gamma=0.4)
    rho = steady_state(build_superoperator(params, 9))
    expected = np.zeros((9, 9), dtype=complex)
    expected[0, 0] = 1.0
    assert np.max(np.abs(rho - expected)) < 1e-12


def test_steady_state_matches_closed_form(point_c_solution):
    rho, dim, residual = point_c_solution
    validate_density_matrix(rho)
    assert residual < 1e-10
    a_num = expectation(annihilation(dim), rho)
    assert abs(a_num - dw_response(POINT_C)) < 1e-8


def test_adaptive_converged_dim_and_residual(point_c_solution):
    rho, dim, residual = point_c_solution
    assert dim == 18
    # top of the truncated ladder is unpopulated
    assert rho[dim - 1, dim - 1].real < 1e-8
    S = build_superoperator(POINT_C, dim)
    assert np.max(np.abs(S @ rho.reshape(-1))) < 1e-10


def test_adaptive_truncation_limit(monkeypatch):
    # an unreachable tail tolerance forces doubling past _MAX_DIM
    monkeypatch.setattr(lindblad, "_TOP_POP_TOL", 1e-30)
    monkeypatch.setattr(lindblad, "_MAX_DIM", 32)
    with pytest.raises(TruncationLimitError):
        solve_steady_state_adaptive(POINT_C)


def test_start_dim_above_the_cap_raises_before_any_solve(monkeypatch, tmp_path):
    # this cell starts at 43 levels, above a cap of 32: it must fail before
    # a block is solved, in the adaptive solve, the sweep and a point
    # analysis alike, while a fixed truncation still solves it
    from duffspec.sweep import SweepConfig, analyze, sweep

    params = ModelParams(delta=0.0, chi=1.0, epsilon=60.0, gamma=2.0)
    assert _start_dims(_param_table([params]))[0][0] == 43
    monkeypatch.setattr(lindblad, "_MAX_DIM", 32)
    solve_block = lindblad._solve_block
    solved = []

    def recording_solve_block(vals):
        solved.append(vals.shape[1])
        return solve_block(vals)

    monkeypatch.setattr(lindblad, "_solve_block", recording_solve_block)
    message = "semiclassical start truncation 43 exceeds the cap 32"
    with pytest.raises(TruncationLimitError, match=message):
        solve_steady_state_adaptive(params)
    with pytest.raises(TruncationLimitError, match=message):
        solve_steady_states([POINT_C, params])
    grid = dict(delta_range=(0.0, 0.0, 1), epsilon_range=(60.0, 60.0, 1))
    with pytest.raises(TruncationLimitError, match=message):
        sweep(SweepConfig(method="numeric", gamma=2.0, chi=1.0, **grid))
    config = SweepConfig(
        gamma=2.0, chi=1.0, point={"delta": 0.0, "epsilon": 60.0}, analyze=("entropy",),
        out_dir=str(tmp_path),
    )
    task = analyze(config)["tasks"]["entropy"]
    assert (task["error_type"], task["message"]) == ("TruncationLimitError", message)
    # point C, ahead of the cell in the list, is solved; nothing at 43 levels
    assert solved == [18]
    [(_, dim, _)] = solve_steady_states([params], dim=20)
    assert dim == 20


def test_fixed_dim_below_two_raises_before_any_solve(monkeypatch):
    # one ValueError for the whole call, ahead of the gamma <= 0 cell's own
    def failing_solve_block(vals):
        raise AssertionError("a block was solved")

    monkeypatch.setattr(lindblad, "_solve_block", failing_solve_block)
    message = "truncation dimension must be >= 2, got 1"
    with pytest.raises(ValueError, match=message):
        solve_steady_states([POINT_C], dim=1)
    with pytest.raises(ValueError, match=message):
        solve_steady_states([ModelParams(-1.0, 1.0, 0.5, 0.0), POINT_C], dim=1)


# start dims 18, 10 (doubles to 20), 10 (epsilon = 0), 97 (hard regime),
# 11 (doubles to 22), 10, and 18 again
MIXED_CELLS = [
    POINT_C,
    ModelParams(delta=-1.0, chi=1.0, epsilon=2.0, gamma=0.5),
    ModelParams(delta=-0.7, chi=1.0, epsilon=0.0, gamma=0.4),
    HARD_REGIME,
    ModelParams(delta=0.5, chi=1.0, epsilon=5.0, gamma=2.0),
    ModelParams(delta=-1.0, chi=1.0, epsilon=0.3, gamma=1.0),
    ModelParams(delta=-5.4, chi=1.0, epsilon=3.0, gamma=2.0),
]


@pytest.fixture(scope="module")
def mixed_alone():
    return [solve_steady_state_adaptive(p) for p in MIXED_CELLS]


@pytest.mark.parametrize("block_pairs", [1, 500, lindblad._BLOCK_PAIRS, 10**9])
def test_blocked_solve_matches_single_cells(mixed_alone, block_pairs, monkeypatch):
    # every cell, in any split into calls and blocks, gets bit for bit the
    # state, truncation and residual it gets alone
    assert [dim for _, dim, _ in mixed_alone] == [18, 20, 10, 97, 22, 10, 18]
    monkeypatch.setattr(lindblad, "_BLOCK_PAIRS", block_pairs)
    for picks in ([0, 1, 2, 3, 4, 5, 6], [6, 2, 0, 5, 3, 1, 4], [0, 1, 2], [3, 4, 5, 6]):
        got = solve_steady_states([MIXED_CELLS[i] for i in picks])
        for i, (rho, dim, residual) in zip(picks, got, strict=True):
            rho1, dim1, residual1 = mixed_alone[i]
            assert (dim, residual) == (dim1, residual1)
            assert rho.tobytes() == rho1.tobytes()


def test_blocked_fixed_dim_matches_steady_state(mixed_alone):
    # the first three cells at 12 levels, then every cell at its adaptive
    # dim (10-97), cells of one dim in one block
    runs = [(MIXED_CELLS[:3], 12)]
    for d in sorted({dim for _, dim, _ in mixed_alone}):
        runs.append(([p for p, (_, dim, _) in zip(MIXED_CELLS, mixed_alone) if dim == d], d))
    for cells, d in runs:
        got = solve_steady_states(cells, dim=d)
        for params, (rho, dim, residual) in zip(cells, got, strict=True):
            S = build_superoperator(params, d)
            assert dim == d
            assert rho.tobytes() == steady_state(S).tobytes()
            assert residual == np.max(np.abs(S @ rho.reshape(-1)))
            # the residual's product, read from the entry table, is the
            # CSR product element by element
            table = lindblad._table_product(lindblad._entry_table(lindblad._param_table([params]), d), rho[None])
            assert table.tobytes() == (S @ rho.reshape(-1)).tobytes()


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("first", [0, 1])
def test_blocked_error_is_first_failing_cell(first, monkeypatch):
    # the cell starting at dim 11 fails at dim 22, after point C has failed
    # at 18; whichever comes first in the input is the one reported
    cells = [ModelParams(delta=0.5, chi=1.0, epsilon=5.0, gamma=2.0), POINT_C]
    cells = cells[first:] + cells[:first]
    monkeypatch.setattr(lindblad, "_TOP_POP_TOL", 1e-30)
    monkeypatch.setattr(lindblad, "_MAX_DIM", 32)
    expected = _raised(lambda: solve_steady_state_adaptive(cells[0]))
    assert expected[0] is TruncationLimitError
    assert _raised(lambda: solve_steady_states(cells)) == expected
    assert _raised(lambda: solve_steady_states(cells[1:])) != expected
    # a cell that cannot be solved at all, ahead of them, wins
    undamped = ModelParams(delta=-1.0, chi=1.0, epsilon=0.3, gamma=0.0)
    assert _raised(lambda: solve_steady_states([undamped] + cells)) == (
        ValueError,
        "steady state requires gamma > 0",
    )


def test_start_dim_from_largest_classical_branch():
    # bistable: a 16-level state on the lower branch has empty top levels,
    # so the population test passes, yet <a> is far off
    params = ModelParams(delta=float(np.linspace(-2.5, -1.5, 7)[5]), chi=0.05, epsilon=1.5, gamma=0.1)
    exact = dw_response(params)
    rho, dim, _ = solve_steady_state_adaptive(params, dim=16)
    assert rho[15, 15].real + rho[14, 14].real < 1e-8
    assert abs(expectation(annihilation(dim), rho) - exact) > 4.0
    assert _start_dims(_param_table([params]))[0][0] == 84
    rho, dim, _ = solve_steady_state_adaptive(params)
    assert dim == 84
    assert abs(expectation(annihilation(dim), rho) - exact) < 1e-6


def test_start_dim_where_the_photon_number_is_a_whole_half():
    # n-bar is exactly 4.5 and 2.5 at these cells, and the cubic reads it
    # one ulp low (4.499999999999999, 2.4999999999999996); a batched cubic
    # one ulp high would start at 23 and 15, so it must round as this one
    for delta, epsilon, start in ((-8.0, 3.0, 22), (-2.0, 5.0, 14)):
        params = ModelParams(delta=delta, chi=1.0, epsilon=epsilon, gamma=2.0)
        assert _start_dims(_param_table([params]))[0][0] == start


def test_degenerate_kernel_detected():
    # gamma=0 makes every function of H stationary, driven or not
    for delta, epsilon, chi, dim in itertools.product(
        (-1.0, -1.3, 0.4), (0.0, 0.5, 0.7), (0.0, 1.0), (4, 12, 80)
    ):
        params = ModelParams(delta=delta, chi=chi, epsilon=epsilon, gamma=0.0)
        S = build_superoperator(params, dim)
        with pytest.raises(DegenerateKernelError):
            steady_state(S)


@pytest.mark.parametrize("dim", [6, 40], ids=["dense", "arnoldi"])
def test_undamped_spectrum_is_degenerate(dim):
    # without damping the zero mode is not unique: refused up front, as
    # steady_state refuses it, on either eigen branch
    S = build_superoperator(ModelParams(delta=-1.0, chi=1.0, epsilon=0.5, gamma=0.0), dim)
    with pytest.raises(DegenerateKernelError, match="no damping"):
        low_lying_spectrum(S)


def test_hard_regime_spectrum_has_a_slow_real_mode():
    # next to the bifurcation the switching rate is ~2e-10 (-1.93e-10 today),
    # yet with damping the steady state is unique and the spectrum exists
    _, dim, _ = solve_steady_state_adaptive(HARD_REGIME)
    lam1 = low_lying_spectrum(build_superoperator(HARD_REGIME, dim)).eigenvalues[1]
    assert lam1.imag == 0
    assert -1e-6 < lam1.real < 0


@pytest.mark.parametrize("epsilon", [0.5, 1.0, 1.5])
def test_adaptive_hard_regime_matches_closed_form(epsilon):
    # next to the Duffing bifurcation the switching rate is ~1e-9; an
    # unrefined LU solve there is up to 3e-5 off, or slightly indefinite
    g, chi = HARD_REGIME.gamma, HARD_REGIME.chi
    for delta in np.linspace(-2.5, -1.5, 7):
        params = ModelParams(delta=float(delta), chi=chi, epsilon=epsilon, gamma=g)
        rho, dim, _ = solve_steady_state_adaptive(params)
        validate_density_matrix(rho)
        a_num = expectation(annihilation(dim), rho)
        assert abs(a_num - mp_dw(float(delta), epsilon, g, chi)) <= 1e-6


def colamd_refined_steady_state(S, steps=4):
    """Oracle: COLAMD ordering, partial pivoting, refinement against a clongdouble residual."""
    d = int(round(np.sqrt(S.shape[0])))
    A = S.tolil()
    A[0, :] = 0.0
    A[0, np.arange(d) * (d + 1)] = 1.0
    A = A.tocsc()
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    lu = spla.splu(A, permc_spec="COLAMD", diag_pivot_thresh=1.0)
    coo = A.tocoo()
    data = coo.data.astype(np.clongdouble)
    x = lu.solve(b).astype(np.clongdouble)
    for _ in range(steps):
        ax = np.zeros(d * d, dtype=np.clongdouble)
        np.add.at(ax, coo.row, data * x[coo.col])
        x += lu.solve((b - ax).astype(complex))
    rho = x.astype(complex).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def test_hard_regime_independent_of_lu_pivoting():
    # the refined state must not depend on how the LU was ordered and
    # pivoted; refinement in double alone left 1e-7..1e-6 between the two
    g, chi = HARD_REGIME.gamma, HARD_REGIME.chi
    worst = 0.0
    for epsilon in (0.5, 1.0, 1.5):
        for delta in np.linspace(-2.5, -1.5, 7):
            params = ModelParams(delta=float(delta), chi=chi, epsilon=epsilon, gamma=g)
            rho, dim, _ = solve_steady_state_adaptive(params)
            ref = colamd_refined_steady_state(build_superoperator(params, dim))
            a = annihilation(dim)
            worst = max(worst, abs(expectation(a, rho) - expectation(a, ref)))
    assert worst <= 1e-8


def test_adaptive_large_start_dim_near_fold():
    # starts at dim 229; a steady state refined in double had a -1.5e-6 eigenvalue
    params = ModelParams(delta=-8.8866, chi=0.08484, epsilon=4.6769, gamma=0.05277)
    rho, dim, _ = solve_steady_state_adaptive(params)
    assert dim == 229
    a_num = expectation(annihilation(dim), rho)
    assert abs(a_num - mp_dw(params.delta, params.epsilon, params.gamma, params.chi)) <= 1e-6


def test_steady_state_weak_damping():
    # population pivots are -gamma k next to drive entries ~epsilon: the LU
    # must leave the diagonal there, or refinement cannot converge
    for delta, epsilon in ((-1.0, 0.5), (-2.0, 1.0), (0.3, 0.2)):
        params = ModelParams(delta=delta, chi=1.0, epsilon=epsilon, gamma=1e-9)
        rho, dim, _ = solve_steady_state_adaptive(params)
        a_num = expectation(annihilation(dim), rho)
        assert abs(a_num - mp_dw(delta, epsilon, params.gamma, params.chi)) <= 1e-10


def mp_trace_replaced_mean_a(S, digits=60):
    """<a> of the trace-replaced system S x = e_0 solved by mpmath LU at ``digits`` digits."""
    d = int(round(np.sqrt(S.shape[0])))
    A = S.toarray()
    A[0, :] = 0.0
    A[0, np.arange(d) * (d + 1)] = 1.0
    with mpmath.workdps(digits):
        m = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in A])
        b = mpmath.matrix([1] + [0] * (d * d - 1))
        x = mpmath.lu_solve(m, b)
        a = sum(mpmath.sqrt(k + 1) * x[(k + 1) * d + k] for k in range(d - 1))
        return complex(a)


@pytest.mark.parametrize("gamma", [1e-20, 1e-16])
def test_steady_state_vanishing_damping_matches_mpmath(gamma):
    # the trace-replaced system is singular to working precision here (a
    # sparse LU of it fails), yet the sector recursion stays accurate
    S = build_superoperator(ModelParams(delta=-1.0, chi=1.0, epsilon=0.5, gamma=gamma), 6)
    a_num = expectation(annihilation(6), steady_state(S))
    assert abs(a_num - mp_trace_replaced_mean_a(S)) <= 1e-12


def test_steady_state_refinement_failure_raises(monkeypatch):
    # a residual that never shrinks repeats the same correction, which
    # stops halving relative to the growing x; refinement must give up
    # instead of returning the state
    def stuck(coef, neighbours, d, x):
        r = np.zeros(x.shape, dtype=complex)
        r[:, 0] = 1.0
        return r

    monkeypatch.setattr(lindblad, "_residual", stuck)
    with pytest.raises(RuntimeError, match="refinement stalled"):
        steady_state(build_superoperator(POINT_C, 8))


def test_steady_state_rejects_entry_outside_pattern():
    S = build_superoperator(POINT_C, 6).tolil()
    S[0, 2 * 6] = 0.25
    with pytest.raises(ValueError, match="coupling"):
        steady_state(S.tocsr())


def test_singular_sector_fails_only_its_cell():
    # a generator whose top sector has no diagonal cannot be solved by the
    # sector recursion; the cell next to it in the block is unaffected
    vals = lindblad._entry_table(lindblad._param_table([POINT_C, POINT_C]), 8)
    vals[1, 7, 0, 2] = 0.0
    rho, residual, errors = lindblad._solve_block(vals)
    assert errors[0] is None and isinstance(errors[1], DegenerateKernelError)
    alone = steady_state(build_superoperator(POINT_C, 8))
    assert rho[0].tobytes() == alone.tobytes()


def test_stacked_density_matrix_checks_match_validate_density_matrix():
    # each matrix gets the verdict and message validate_density_matrix
    # gives it alone, from one pass over the stack
    good = np.diag([0.25, 0.75, 0.0, 0.0]).astype(complex)
    skew = good.copy()
    skew[0, 1] = 0.5
    indefinite = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    stack = np.stack([good, skew, 2.0 * good, indefinite])
    expected = [
        None,
        "not Hermitian: max |rho - rho'| = 5.000e-01 > 1.0e-09",
        "trace deviates from 1 by 1.000e+00 > 1.0e-09",
        "negative eigenvalue -5.000e-01 below -1.0e-08",
    ]
    errors = _density_matrix_errors(stack)
    assert [None if e is None else str(e) for e in errors] == expected
    assert all(e is None or type(e) is ValueError for e in errors)
    for rho, message in zip(stack, expected):
        if message is None:
            validate_density_matrix(rho)
        else:
            with pytest.raises(ValueError) as raised:
                validate_density_matrix(rho)
            assert str(raised.value) == message


def test_large_truncation_flushes_tiny_inverse_entries():
    # at dim 160 the sector inverses of point C carry entries below 1e-100,
    # set to zero; refinement against the full residual absorbs that
    [(rho, dim, residual)] = solve_steady_states([POINT_C], dim=160)
    assert dim == 160 and residual <= TOL_RESID
    assert abs(expectation(annihilation(dim), rho) - dw_response(POINT_C)) <= 1e-12


def _sector_blocks(params, dim, monkeypatch):
    """The stacked blocks _SectorFraction inverts for one cell, with _inverse's output."""
    blocks = []
    real = lindblad._inverse

    def recording(m):
        inv, singular = real(m)
        blocks.append((m.copy(), inv.copy()))
        return inv, singular

    monkeypatch.setattr(lindblad, "_inverse", recording)
    k, l, _ = lindblad._sectors(dim)
    lindblad._SectorFraction(lindblad._entry_table(lindblad._param_table([params]), dim)[:, k, l], dim)
    return blocks


def _subnormal(z):
    parts = np.abs(z.view(float))
    return (parts > 0) & (parts < np.finfo(float).tiny)


def test_scaled_inverses_keep_the_unscaled_bits(monkeypatch):
    # each sector inverse is solved against 2^600 I: the cut keeps the
    # same entries, each np.linalg.inv's to the bit once scaled back, and
    # the solves form a fortieth of the subnormals (629 against 26506)
    blocks = _sector_blocks(POINT_C, 160, monkeypatch)
    assert len(blocks) == 160
    back = 1.0 / lindblad._INVERSE_SCALE
    subnormal = unscaled_subnormal = 0
    for m, scaled in blocks:
        inv = np.linalg.inv(m)
        kept = np.abs(scaled) >= lindblad._INVERSE_CUT
        assert np.array_equal(kept, np.abs(inv) >= 1e-100)
        assert (scaled[kept] * back).tobytes() == inv[kept].tobytes()
        subnormal += np.count_nonzero(_subnormal(scaled.astype(complex)))
        unscaled_subnormal += np.count_nonzero(_subnormal(inv.astype(complex)))
    assert 20 * subnormal < unscaled_subnormal


@pytest.mark.parametrize("dim", [10, 18, 97])
@pytest.mark.parametrize("params", [POINT_C, HARD_REGIME], ids=["point_c", "hard"])
def test_unit_solve_without_upward_pass_is_the_full_solve(params, dim):
    # e_0 is zero outside sector 0, so every s_n of the upward pass is 0;
    # skipping it changes no bit, zero signs included
    k, l, _ = lindblad._sectors(dim)
    fraction = lindblad._SectorFraction(lindblad._entry_table(lindblad._param_table([params]), dim)[:, k, l], dim)
    b = np.zeros((1, k.size), dtype=complex)
    b[:, 0] = 1.0
    assert fraction.solve(b).tobytes() == fraction.solve(b, upward=False).tobytes()


def _mean_a(rho):
    return expectation(annihilation(rho.shape[0]), rho)


def _scaled_and_unscaled(solve, monkeypatch):
    """solve() with the module's scales, and with every scale 1 (the unscaled path)."""
    scaled = solve()
    with monkeypatch.context() as m:
        m.setattr(lindblad, "_INVERSE_SCALE", 1.0)
        m.setattr(lindblad, "_RESIDUAL_SCALE", 1.0)
        m.setattr(lindblad, "_INVERSE_CUT", 1e-100)
        unscaled = solve()
    return scaled, unscaled


def assert_same_above_1e_300(rho, oracle):
    assert rho.shape == oracle.shape
    assert _mean_a(rho) == _mean_a(oracle)
    big = (np.abs(rho) >= 1e-300) | (np.abs(oracle) >= 1e-300)
    assert rho[big].tobytes() == oracle[big].tobytes()


HARD_CELLS = [
    ModelParams(delta=float(d), chi=HARD_REGIME.chi, epsilon=e, gamma=HARD_REGIME.gamma)
    for e in (0.5, 1.0, 1.5)
    for d in np.linspace(-2.5, -1.5, 7)
]


def test_scaled_solve_matches_the_unscaled_path(monkeypatch):
    # the scales are powers of two: the ladder of point C and the 21 hard
    # cells keep every entry above 1e-300 and <a> to the bit
    for dim in (20, 40, 80, 160):
        scaled, unscaled = _scaled_and_unscaled(
            lambda: steady_state(build_superoperator(POINT_C, dim)), monkeypatch
        )
        assert_same_above_1e_300(scaled, unscaled)
    # a cell that fails must fail the same way on both paths
    for params in HARD_CELLS:
        scaled, unscaled = _scaled_and_unscaled(
            lambda: lindblad._steady_state_outcomes(lindblad._param_table([params]), None)[0], monkeypatch
        )
        if isinstance(unscaled, Exception):
            assert type(scaled) is type(unscaled) and str(scaled) == str(unscaled)
        else:
            assert scaled[1:] == unscaled[1:]
            assert_same_above_1e_300(scaled[0], unscaled[0])


def test_scaled_solve_matches_the_unscaled_path_at_229_levels(monkeypatch):
    params = ModelParams(delta=-8.8866, chi=0.08484, epsilon=4.6769, gamma=0.05277)
    scaled, unscaled = _scaled_and_unscaled(
        lambda: solve_steady_state_adaptive(params), monkeypatch
    )
    assert scaled[1] == unscaled[1] == 229
    assert_same_above_1e_300(scaled[0], unscaled[0])


def test_longdouble_is_extended_precision():
    # steady_state refines against a clongdouble residual; where longdouble
    # is plain double that residual is no better than the LU's own
    assert np.finfo(np.longdouble).eps < 1e-18


def test_kernel_uniqueness_and_stability_seeded():
    rng = np.random.default_rng(21)
    for _ in range(4):
        params = ModelParams(
            delta=float(rng.uniform(-3.0, 1.0)),
            chi=1.0,
            epsilon=float(rng.uniform(0.1, 1.0)),
            gamma=float(rng.uniform(0.2, 1.0)),
        )
        w = np.linalg.eigvals(build_superoperator(params, 10).toarray())
        assert np.all(w.real < 1e-8)
        mags = np.sort(np.abs(w))
        assert mags[0] < 1e-8 and mags[1] > 1e-5
        # spectrum closed under conjugation
        dist = np.abs(w[:, None] - w.conj()[None, :]).min(axis=1)
        assert np.max(dist) < 1e-7


def test_undriven_spectrum_matches_analytic():
    # with epsilon=0 the generator is triangular in the number basis, so
    # the truncated eigenvalues coincide with the analytic rates exactly
    params = ModelParams(delta=-1.0, chi=1.0, epsilon=0.0, gamma=0.3)
    spec = low_lying_spectrum(build_superoperator(params, 12), count=8)
    analytic = []
    for n in range(5):
        for q in range(5 - n):
            lam = s0_eigenvalue(n, q, params)
            analytic.append(lam)
            if n > 0:  # the lower-triangle sectors carry the conjugate rates
                analytic.append(lam.conjugate())
    analytic = np.array(analytic)
    for lam in spec.eigenvalues:
        assert np.min(np.abs(analytic - lam)) < 1e-9


def test_undriven_arnoldi_spectrum_sees_coherences():
    # above DENSE_EIG_MAX_DIM: the undriven generator keeps each k - l
    # sector invariant, so a start vector inside one sector would miss the rest
    params = ModelParams(delta=-1.0, chi=1.0, epsilon=0.0, gamma=0.3)
    spec = low_lying_spectrum(build_superoperator(params, 34), count=3)
    lam = s0_eigenvalue(1, 0, params)
    assert abs(spec.eigenvalues[0]) < 1e-9
    assert abs(spec.eigenvalues[1] - lam) < 1e-9
    assert abs(spec.eigenvalues[2] - lam.conjugate()) < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 4: Arnoldi around the one real shift returns the modes "
        "nearest it and misses the slow -0.0051 +- 0.4103i pair at dim 40"
    ),
)
def test_arnoldi_spectrum_holds_slow_oscillating_pair():
    params = ModelParams(delta=0.4, chi=1.0, epsilon=0.05, gamma=0.01)
    # dense eigenvalues at dim 20 already agree with dim 16 and 24 to 1e-13
    w = eigvals(build_superoperator(params, 20).toarray())
    lam = w[np.argmin(np.abs(w - (-0.00510 + 0.41028j)))]
    assert abs(lam - (-0.00510 + 0.41028j)) < 1e-5
    spec = low_lying_spectrum(build_superoperator(params, 40), count=6)
    for member in (lam, lam.conjugate()):
        assert np.min(np.abs(spec.eigenvalues - member)) < 1e-6


def test_arnoldi_spectrum_repeatable():
    S = build_superoperator(POINT_C, 40)
    first = low_lying_spectrum(S)
    # an unrelated ARPACK call in between must not move the next result
    spla.eigs(build_superoperator(HARD_REGIME, 34).tocsc(), k=3, sigma=0.01)
    second = low_lying_spectrum(S)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    for m1, m2 in zip(first.eigenmatrices, second.eigenmatrices):
        assert np.array_equal(m1, m2)


def test_spectrum_point_c_frozen(point_c_spectrum):
    w = point_c_spectrum.eigenvalues
    assert abs(w[0]) < 1e-8
    assert np.all(np.diff(w.real) <= 1e-12)
    assert np.isclose(w[1].real, -0.21497024418792782, atol=1e-9)
    assert abs(w[1].imag) < 1e-10
    pair = w[(np.abs(w.imag) > 1e-6)][:2]
    assert np.isclose(pair[0], -1.5579113442749435 + 4.116886580080711j, atol=1e-8)
    assert np.isclose(pair[1], pair[0].conjugate(), atol=1e-10)
    reals = w[(np.abs(w.imag) <= 1e-6) & (np.abs(w) > 1e-6)]
    assert np.isclose(reals[1].real, -2.2037814457180587, atol=1e-8)


@pytest.mark.parametrize(
    "params, dim, count",
    [
        (POINT_C, 18, 6),
        (POINT_C, 40, 6),
        # Arnoldi's 18 values hold -4.1464 + 7.4423i without its partner
        (POINT_C, 40, 12),
        (ModelParams(delta=0.4, chi=1.0, epsilon=0.05, gamma=0.01), 40, 30),
    ],
    ids=["point-c-dense", "point-c-arnoldi", "point-c-arnoldi-count-12", "weak-damping-arnoldi"],
)
def test_spectrum_pairs_are_exact_adjacent_conjugates(params, dim, count):
    # dense (dim 18) and Arnoldi (dim 40) eigenvalues of the real R come as
    # exact conjugate pairs (a partner Arnoldi leaves out is added as the
    # exact conjugate), so a plain lexsort puts each pair side by side
    S = build_superoperator(params, dim)
    spec = low_lying_spectrum(S, count)
    w = spec.eigenvalues
    for lam, m in zip(w, spec.eigenmatrices):
        assert np.max(np.abs(S @ m.reshape(-1) - lam * m.reshape(-1))) <= 1e-11
    upper = np.flatnonzero(w.imag > TOL_EIG)
    lower = np.flatnonzero(w.imag < -TOL_EIG)
    assert upper.size >= 2
    assert lower.tolist() == (upper + 1).tolist()
    assert w[lower].tobytes() == w[upper].conj().tobytes()
    order, follows = _spectrum_order(w)
    assert order.tolist() == list(range(w.size))
    assert np.flatnonzero(follows).tolist() == lower.tolist()


def test_spectrum_eigenmatrix_conventions(point_c_spectrum):
    spec = point_c_spectrum
    d = spec.dim
    S = build_superoperator(POINT_C, d)
    rho_ss = steady_state(S)
    mats = spec.eigenmatrices
    assert np.max(np.abs(mats[0] - rho_ss)) < 1e-8
    for lam, m in zip(spec.eigenvalues, mats):
        # every eigenmatrix satisfies S vec(m) = lam vec(m)
        resid = (S @ m.reshape(-1)) - lam * m.reshape(-1)
        assert np.max(np.abs(resid)) < 1e-7
        if abs(lam.imag) <= 1e-6 and abs(lam) > 1e-6:
            assert np.max(np.abs(m - m.conj().T)) < 1e-9
            assert abs(np.trace(m)) < 1e-9
            assert np.isclose(np.linalg.norm(m), 1.0, atol=1e-10)
    # complex pair members are adjoints of each other
    idx = np.nonzero(np.abs(spec.eigenvalues.imag) > 1e-6)[0]
    assert np.max(np.abs(mats[idx[0]] - mats[idx[1]].conj().T)) < 1e-10


def assert_slowest_eigenvalues(spec, w, tol):
    """spec's eigenvalues are members of the full spectrum w, and its slowest ones."""
    lam = spec.eigenvalues
    assert max(np.min(np.abs(w - x)) for x in lam) < tol
    assert np.max(np.abs(np.sort(w.real)[::-1][: lam.size] - lam.real)) < tol


@pytest.mark.parametrize(
    "params, dim",
    [
        (POINT_C, 18),
        (ModelParams(delta=-1.0, chi=1.0, epsilon=0.0, gamma=0.3), 12),
        (HARD_REGIME, 24),
    ],
    ids=["point-c", "undriven", "hard-regime"],
)
def test_dense_spectrum_matches_complex_eig(params, dim):
    # the real Hermitian-coordinate form against complex eig of S itself
    S = build_superoperator(params, dim)
    assert_slowest_eigenvalues(low_lying_spectrum(S), eigvals(S.toarray()), 1e-12)


@pytest.mark.parametrize("dim", [34, 40])
def test_arnoldi_spectrum_matches_dense_eig(dim):
    S = build_superoperator(POINT_C, dim)
    assert_slowest_eigenvalues(low_lying_spectrum(S), eigvals(S.toarray()), 1e-9)


@pytest.mark.parametrize("dim", [40, 80])
def test_arnoldi_eigenpairs_match_dense_branch(point_c_spectrum, dim):
    # every returned pair solves S vec(m) = lam vec(m) (to <= 2.8e-14 today),
    # and the slowest eigenvalues are the dense branch's at the converged
    # dim 18 (<= 6.5e-14 apart today)
    S = build_superoperator(POINT_C, dim)
    spec = low_lying_spectrum(S)
    for lam, m in zip(spec.eigenvalues, spec.eigenmatrices, strict=True):
        assert np.max(np.abs(S @ m.reshape(-1) - lam * m.reshape(-1))) <= 1e-11
    dense = point_c_spectrum.eigenvalues
    assert dense.size == spec.eigenvalues.size == 7
    assert np.max(np.abs(spec.eigenvalues - dense)) <= 1e-11


def test_arnoldi_factor_stays_sparse_at_weak_damping(monkeypatch):
    # at gamma = 0.01 a coherence's damping is ~1e-5 of its frequency in
    # R - sigma I; factored in R's own row order, the diagonal pivots fail
    # SuperLU's test and L + U holds 1.0M entries (0.5 s at dim 40, 12 s at
    # dim 64), against 69k with the frequency on the diagonal (_pivot_rows)
    params = ModelParams(delta=0.4, chi=1.0, epsilon=0.05, gamma=0.01)
    fills = []
    splu = spla.splu

    def recording_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", recording_splu)
    spec = low_lying_spectrum(build_superoperator(params, 40))
    assert len(fills) == 1 and fills[0] < 150_000
    # and the modes it returns are dense ones at dim 20 (4e-11 apart at most
    # today; these clustered slow modes move by that much between dense
    # truncations and BLAS thread counts)
    w = eigvals(build_superoperator(params, 20).toarray())
    assert max(np.min(np.abs(w - lam)) for lam in spec.eigenvalues) < 1e-9


@pytest.mark.parametrize("dim", [18, 40], ids=["dense", "arnoldi"])
def test_spectrum_eigenmatrices_exactly_hermitian(dim):
    S = build_superoperator(POINT_C, dim)
    spec = low_lying_spectrum(S)
    mats = spec.eigenmatrices
    pairs = 0
    for i, (lam, m) in enumerate(zip(spec.eigenvalues, mats)):
        if lam.imag == 0:
            assert np.array_equal(m, m.conj().T)
        elif lam.imag < 0:
            # the -Im member follows its partner, as its exact adjoint
            assert spec.eigenvalues[i - 1] == lam.conjugate()
            assert np.array_equal(m, mats[i - 1].conj().T)
            pairs += 1
    assert pairs >= 2
    assert np.max(np.abs(mats[0] - steady_state(S))) < 1e-10


@pytest.mark.parametrize("dim", [6, 34], ids=["dense", "arnoldi"])
def test_spectrum_rejects_non_hermiticity_preserving_generator(dim):
    S = build_superoperator(POINT_C, dim).tolil()
    # the jump (0, 0) <- (1, 1), made imaginary: S rho is no longer Hermitian
    S[0, dim + 1] *= 1j
    with pytest.raises(ValueError, match="Hermiticity"):
        low_lying_spectrum(S.tocsr())


def test_metastable_two_level_exact():
    rho0 = 0.5 * np.eye(2, dtype=complex)
    drho1 = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2.0)
    pair = metastable_extremes(rho0, drho1)
    s = 1.0 / np.sqrt(2.0)
    assert np.isclose(pair.beta_plus, s, atol=1e-6)
    assert np.isclose(pair.beta_minus, -s, atol=1e-6)
    assert np.max(np.abs(pair.rho_plus - np.diag([1.0, 0.0]))) < 1e-6
    assert np.max(np.abs(pair.rho_minus - np.diag([0.0, 1.0]))) < 1e-6
    assert np.isclose(pair.mixing_fraction, 0.5, atol=1e-6)


def test_metastable_point_c_frozen(point_c_solution, point_c_spectrum):
    rho0, _, _ = point_c_solution
    pair = metastable_extremes(rho0, point_c_spectrum.eigenmatrices[1])
    assert np.isclose(pair.beta_plus, 0.7338485201565229, atol=1e-6)
    assert np.isclose(pair.beta_minus, -0.3767992619342183, atol=1e-6)
    assert np.isclose(pair.mixing_fraction, 0.33926080618007604, atol=1e-6)
    s0 = von_neumann_entropy(rho0)
    s_plus = von_neumann_entropy(pair.rho_plus)
    s_minus = von_neumann_entropy(pair.rho_minus)
    assert np.isclose(s_plus, 0.4768643169789665, atol=1e-6)
    assert np.isclose(s_minus, 1.3621168462050575, atol=1e-6)
    # the extremes are purer than the steady state they bracket
    assert s_plus < s0 and s_minus < s0


# The oracle for metastable_extremes: a doubling bracket and bisection on the
# smallest eigenvalue of the mixture, independent of its closed form.
def _min_eig(rho0, drho1, beta):
    # bisect on the matrix metastable_extremes returns, so its bound holds
    return float(np.linalg.eigvalsh(_mixture(rho0, drho1, beta))[0])


def _boundary_beta(rho0, drho1, direction, spectral_norm):
    """Largest |beta| along +-direction keeping rho0 + beta drho1 PSD.

    ``spectral_norm`` is ||drho1||_2, which sets the first step.
    """
    step = 0.5 / spectral_norm
    hi = None
    b = step
    for _ in range(80):
        if _min_eig(rho0, drho1, direction * b) < -10.0 * TOL_BOUNDARY:
            hi = b
            break
        b *= 2.0
    if hi is None:
        raise ValueError(
            "no positivity boundary found along this direction; "
            "the perturbation must be indefinite and traceless"
        )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _min_eig(rho0, drho1, direction * mid) >= -TOL_PSD:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    g = _min_eig(rho0, drho1, direction * lo)
    if not (-TOL_PSD <= g <= TOL_BOUNDARY):
        raise RuntimeError(f"boundary bisection left min eigenvalue at {g:.3e}")
    return direction * lo


def assert_matches_bisection(delta, dim, atol):
    """metastable_extremes against the bisection oracle on the line through point C."""
    S = build_superoperator(ModelParams(delta=delta, chi=1.0, epsilon=3.2, gamma=2.0), dim)
    rho0, drho1 = steady_state(S), low_lying_spectrum(S).eigenmatrices[1]
    pair = metastable_extremes(rho0, drho1)
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    drho1 = 0.5 * (drho1 + drho1.conj().T)
    spectral_norm = float(np.linalg.norm(drho1, 2))
    assert abs(pair.beta_plus - _boundary_beta(rho0, drho1, +1.0, spectral_norm)) <= atol
    assert abs(pair.beta_minus - _boundary_beta(rho0, drho1, -1.0, spectral_norm)) <= atol
    for rho in (pair.rho_plus, pair.rho_minus):
        assert -TOL_PSD <= np.linalg.eigvalsh(rho)[0] <= TOL_BOUNDARY


@pytest.mark.parametrize("dim", [18, 40, 80])
def test_metastable_extremes_satisfy_boundary_bound(dim):
    for delta in (-5.2, -7.8):  # points C and A
        assert_matches_bisection(delta, dim, atol=1e-10)


def test_metastable_rescaling_invariance(point_c_solution, point_c_spectrum):
    rho0, _, _ = point_c_solution
    drho1 = point_c_spectrum.eigenmatrices[1]
    base = metastable_extremes(rho0, drho1)
    scaled = metastable_extremes(rho0, 0.3 * drho1)
    assert np.max(np.abs(scaled.rho_plus - base.rho_plus)) < 1e-8
    assert np.max(np.abs(scaled.rho_minus - base.rho_minus)) < 1e-8
    assert np.isclose(scaled.beta_plus, base.beta_plus / 0.3, atol=1e-6)
    assert np.isclose(scaled.beta_minus, base.beta_minus / 0.3, atol=1e-6)
    # a negative rescaling swaps which end is "plus"
    flipped = metastable_extremes(rho0, -2.0 * drho1)
    assert np.max(np.abs(flipped.rho_plus - base.rho_minus)) < 1e-8
    assert np.max(np.abs(flipped.rho_minus - base.rho_plus)) < 1e-8


def test_metastable_input_validation():
    rho0 = 0.5 * np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        metastable_extremes(rho0, np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        metastable_extremes(rho0, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        metastable_extremes(rho0, np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        metastable_extremes(np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex))


def test_metastable_extremes_match_bisection_along_delta():
    for delta in np.linspace(-8.0, -3.5, 10):
        assert_matches_bisection(delta, 40, atol=2e-9)


def test_metastable_semidefinite_direction_has_no_boundary():
    # traceless within TOL_TRACE, but rho0 + beta drho1 is PSD for every beta > 0
    with pytest.raises(ValueError, match="no positivity boundary"):
        metastable_extremes(0.5 * np.eye(2, dtype=complex), np.diag([1e-10, 0.0]).astype(complex))


def test_metastable_rho0_at_the_tolerance_is_refused():
    # a valid density matrix, but rho0 + _BOUNDARY_SHIFT I is not positive definite
    rho0 = np.diag([1.0 + 1e-8, -1e-8]).astype(complex)
    validate_density_matrix(rho0)
    drho1 = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2.0)
    with pytest.raises(ValueError, match="positivity tolerance"):
        metastable_extremes(rho0, drho1)
