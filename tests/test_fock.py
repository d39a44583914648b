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
    fock_state,
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


def test_fock_state_and_projector():
    v = fock_state(3, 6)
    assert v[3] == 1.0 and np.sum(np.abs(v)) == 1.0
    rho = fock_projector(3, 6)
    validate_density_matrix(rho)
    with pytest.raises(ValueError):
        fock_state(6, 6)


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
