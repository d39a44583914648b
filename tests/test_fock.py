"""Fock-space operators, Hamiltonian assembly, and entropy functionals."""

import numpy as np
import pytest

from duffspec.fock import (
    ModelParams,
    annihilation,
    binary_entropy,
    build_hamiltonian,
    expectation,
    fock_projector,
    validate_density_matrix,
    von_neumann_entropy,
)


def random_density_matrix(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_model_params_validation():
    p = ModelParams(delta=-5.2, chi=1.0, epsilon=3.2, gamma=2.0)
    assert p.delta == -5.2
    ModelParams(delta=3.0, chi=0.0, epsilon=0.0, gamma=0.0)  # zeros are legal
    with pytest.raises(ValueError):
        ModelParams(delta=0.0, chi=-1.0, epsilon=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        ModelParams(delta=0.0, chi=1.0, epsilon=-0.5, gamma=1.0)
    with pytest.raises(ValueError):
        ModelParams(delta=0.0, chi=1.0, epsilon=0.0, gamma=-2.0)
    with pytest.raises(ValueError):
        ModelParams(delta=float("nan"), chi=1.0, epsilon=0.0, gamma=1.0)


@pytest.mark.parametrize(
    "name, bad, message",
    [
        ("delta", np.nan, "delta must be finite"),
        ("chi", np.inf, "chi must be finite"),
        ("epsilon", -np.inf, "epsilon must be finite"),
        ("gamma", np.nan, "gamma must be finite"),
        ("chi", -1.0, "chi must be >= 0"),
        ("epsilon", -0.5, "epsilon must be >= 0"),
        ("gamma", -2.0, "gamma must be >= 0"),
    ],
)
@pytest.mark.parametrize("as_array", [False, True])
def test_model_params_messages_for_scalars_and_arrays(name, bad, message, as_array):
    # an array is checked element by element: one bad entry among good ones fails
    good = {"delta": -1.0, "chi": 1.0, "epsilon": 0.5, "gamma": 0.1}
    fields = dict(good)
    fields[name] = np.array([good[name], bad, good[name]]) if as_array else bad
    with pytest.raises(ValueError, match=f"^{message}, got "):
        ModelParams(**fields)
    fields[name] = np.full(3, good[name]) if as_array else good[name]
    ModelParams(**fields)
    # the finiteness checks run first, in field order
    with pytest.raises(ValueError, match="^delta must be finite"):
        ModelParams(**dict(fields, delta=np.nan, chi=-1.0))
    with pytest.raises(ValueError, match="^chi must be >= 0"):
        ModelParams(**dict(fields, chi=-1.0, gamma=-1.0))


def test_annihilation_entries():
    a = annihilation(5)
    expected = np.zeros((5, 5))
    for n in range(4):
        expected[n, n + 1] = np.sqrt(n + 1.0)
    assert np.array_equal(a, expected)
    with pytest.raises(ValueError):
        annihilation(1)


def test_quartic_ladder_identity():
    # a'a'aa |n> = n(n-1) |n>
    dim = 9
    a = annihilation(dim)
    adag = a.conj().T
    quartic = adag @ adag @ a @ a
    n = np.arange(dim)
    assert np.allclose(quartic, np.diag(n * (n - 1.0)), atol=1e-13)


def test_commutator_identity_below_truncation():
    dim = 12
    a = annihilation(dim)
    adag = a.conj().T
    comm = a @ adag - adag @ a
    # identity except the top level, where truncation flips the sign;
    # sqrt(n+1)^2 is only float-accurate, so compare within rounding
    assert np.allclose(np.diag(comm)[:-1], np.ones(dim - 1), atol=1e-13)
    assert np.isclose(comm[-1, -1], -(dim - 1.0))
    off = comm - np.diag(np.diag(comm))
    assert np.max(np.abs(off)) == 0.0


def test_hamiltonian_diagonals():
    h = build_hamiltonian(ModelParams(delta=0.0, chi=1.0, epsilon=0.0, gamma=1.0), 4)
    assert np.allclose(np.diag(h), [0.0, 0.0, 2.0, 6.0])
    h = build_hamiltonian(ModelParams(delta=1.0, chi=1.0, epsilon=0.0, gamma=1.0), 3)
    assert np.allclose(np.diag(h), [0.0, 1.0, 4.0])


def test_hamiltonian_point_c_matrix():
    h = build_hamiltonian(ModelParams(delta=-5.2, chi=1.0, epsilon=3.2, gamma=2.0), 3)
    assert np.isclose(h[0, 1], 3.2)
    assert np.isclose(h[1, 2], 3.2 * np.sqrt(2.0))
    assert np.allclose(np.diag(h), [0.0, -5.2, -8.4])
    with pytest.raises(ValueError):
        build_hamiltonian(ModelParams(delta=0.0, chi=1.0, epsilon=0.0, gamma=1.0), 1)


def test_hamiltonian_exactly_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = ModelParams(
            delta=float(rng.uniform(-10, 2)),
            chi=float(rng.uniform(0.1, 3)),
            epsilon=float(rng.uniform(0, 5)),
            gamma=float(rng.uniform(0.01, 3)),
        )
        h = build_hamiltonian(p, 16)
        assert np.array_equal(h, h.conj().T)  # exact, not within tolerance


def test_expectation_basics():
    dim = 6
    assert expectation(annihilation(dim), fock_projector(0, dim)) == 0.0
    assert np.isclose(expectation(np.diag(np.arange(dim)), fock_projector(2, dim)), 2.0)
    with pytest.raises(ValueError):
        expectation(annihilation(4), fock_projector(0, 6))


def test_expectation_matches_trace_product():
    rng = np.random.default_rng(3)
    dim = 7
    rho = random_density_matrix(dim, rng)
    op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert np.isclose(expectation(op, rho), np.trace(op @ rho), atol=1e-13)


def test_number_expectation_real_nonnegative():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density_matrix(8, rng)
        val = expectation(np.diag(np.arange(8)), rho)
        assert abs(val.imag) < 1e-12
        assert val.real >= -1e-8


def test_fock_projector():
    rho = fock_projector(3, 6)
    assert rho[3, 3] == 1.0 and np.sum(np.abs(rho)) == 1.0
    validate_density_matrix(rho)
    assert fock_projector(np.int64(2), 4).tobytes() == fock_projector(2, 4).tobytes()
    for level in (6, -1):
        with pytest.raises(ValueError, match=f"level {level} outside truncation 0..5"):
            fock_projector(level, 6)
    # a float level raised numpy's IndexError, and True set every entry to 1
    for level in (3.0, True, np.float64(1.0)):
        with pytest.raises(ValueError, match="level must be an integer"):
            fock_projector(level, 6)


def test_validate_density_matrix_rejects():
    dim = 4
    good = fock_projector(1, dim)
    validate_density_matrix(good)
    with pytest.raises(ValueError):
        validate_density_matrix(good * 2.0)  # trace 2
    bad = good.copy()
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValueError):
        validate_density_matrix(bad)
    indef = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        validate_density_matrix(indef)


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(fock_projector(0, 5)) == 0.0
    half = 0.5 * (fock_projector(0, 5) + fock_projector(1, 5))
    assert np.isclose(von_neumann_entropy(half), 1.0, atol=1e-12)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(23)
    dim = 12
    rho = random_density_matrix(dim, rng)
    s0 = von_neumann_entropy(rho)
    for _ in range(5):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, _ = np.linalg.qr(m)
        assert np.isclose(von_neumann_entropy(u @ rho @ u.conj().T), s0, atol=1e-10)


def test_entropy_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        von_neumann_entropy(bad)


def test_entropy_of_a_stack_is_each_matrix_entropy_bit_for_bit():
    rng = np.random.default_rng(29)
    a, b = random_density_matrix(9, rng), fock_projector(2, 9)
    xs = np.linspace(0.0, 1.0, 11)
    stack = xs[:, None, None] * a + (1.0 - xs[:, None, None]) * b
    alone = [von_neumann_entropy(x * a + (1.0 - x) * b) for x in xs]
    assert von_neumann_entropy(stack).tolist() == alone
    assert von_neumann_entropy(stack.reshape(1, 11, 9, 9)).shape == (1, 11)
    stack[7, 0, 1] += 1e-6
    with pytest.raises(ValueError):
        von_neumann_entropy(stack)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert np.isclose(binary_entropy(0.11), 0.4999159581645280, atol=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def _oracle_density_matrix_errors(rho):
    # the checks with every eigenvalue from one stacked eigvalsh, kept as
    # the oracle of the Cholesky-gated ones: (type, message) or None
    rho_h = rho.conj().transpose(0, 2, 1)
    herm = np.max(np.abs(rho - rho_h), axis=(1, 2))
    trace = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
    lowest = np.linalg.eigvalsh(0.5 * (rho + rho_h))[:, 0]
    errors = []
    for h, t, w in zip(herm, trace, lowest):
        if h > 1e-9:
            errors.append(f"not Hermitian: max |rho - rho'| = {h:.3e} > 1.0e-09")
        elif t > 1e-9:
            errors.append(f"trace deviates from 1 by {t:.3e} > 1.0e-09")
        elif w < -1e-8:
            errors.append(f"negative eigenvalue {w:.3e} below -1.0e-08")
        else:
            errors.append(None)
    return errors


def _with_lowest_eigenvalue(lowest, dim, rng):
    """A unit-trace Hermitian matrix whose smallest eigenvalue is ``lowest``."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    w = rng.uniform(0.5, 1.5, dim)
    w[0] = 0.0
    w *= (1.0 - lowest) / w.sum()
    w[0] = lowest
    rho = (q * w) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


def _psd_gate_stacks(dim, rng):
    from duffspec.fock import TOL_PSD

    near = [
        _with_lowest_eigenvalue(-TOL_PSD + s * step, dim, rng)
        for step in (1e-15, 1e-12, 1e-10)
        for s in (-1.0, 1.0)
    ]
    clear = [_with_lowest_eigenvalue(v, dim, rng) for v in (0.0, 1e-3, -1e-12, -TOL_PSD / 2)]
    skew = near[0].copy()
    skew[0, 1] += 1e-6
    heavy = 1.5 * near[1]
    negative = _with_lowest_eigenvalue(-0.1, dim, rng)
    stacks = [np.stack([m]) for m in near]
    stacks.append(np.stack(near + [skew, heavy, negative] + clear))
    # the gate clears every Hermitian part here, so the Hermitian and
    # trace errors come without eigenvalues
    clear_skew = clear[1].copy()
    clear_skew[0, 1] += 1e-6
    stacks.append(np.stack(clear + [clear_skew, 1.5 * clear[0]]))
    return stacks


@pytest.mark.parametrize("dim", [4, 18, 97])
def test_psd_gate_matches_the_eigvalsh_oracle(dim, monkeypatch):
    # lowest eigenvalues at -TOL_PSD +- 1e-15, 1e-12 and 1e-10, alone and
    # mixed with non-Hermitian, off-trace and clearly indefinite matrices:
    # every verdict and message is the eigvalsh oracle's
    from duffspec.fock import _density_matrix_errors

    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    rng = np.random.default_rng(dim)
    stacks = _psd_gate_stacks(dim, rng)
    expected = [_oracle_density_matrix_errors(stack) for stack in stacks]
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for stack, want in zip(stacks, expected):
        errors = _density_matrix_errors(stack)
        assert [None if e is None else str(e) for e in errors] == want
        assert all(e is None or type(e) is ValueError for e in errors)
    # the near-boundary matrices lie inside the gate's margin and go to
    # eigvalsh; the last stack is cleared by the Cholesky factorization
    assert calls == [1] * 6 + [len(stacks[-2])]
    messages = expected[-1]
    assert messages[-2].startswith("not Hermitian") and messages[-1].startswith("trace deviates")
    assert sum(m is not None and m.startswith("negative") for m in expected[-2]) >= 4


def test_psd_gate_leaves_non_finite_matrices_to_eigvalsh():
    # a NaN entry gives no verdict from the factorization: eigvalsh runs,
    # and raises as it does alone
    from duffspec.fock import _density_matrix_errors

    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    rho[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as oracle:
        _oracle_density_matrix_errors(rho[None])
    with pytest.raises(np.linalg.LinAlgError) as gated:
        _density_matrix_errors(rho[None])
    assert str(gated.value) == str(oracle.value)
