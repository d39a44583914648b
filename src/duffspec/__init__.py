"""Steady-state spectroscopy of a driven, damped anharmonic quantum oscillator.

The model is a single bosonic mode with a Kerr-type quartic nonlinearity,
coherently driven and damped by single-photon loss.  In the frame rotating
at the drive frequency the Hamiltonian is

    H = delta * a'a + chi * a'a'aa + epsilon * (a + a')

and the density matrix relaxes under a zero-temperature Lindblad equation
with decay rate gamma.  The package computes the driven steady state and
its spectroscopic response along several independent routes (sparse
superoperator algebra, a closed-form hypergeometric expression, a
perturbative series) together with phase-space, metastability, and
semiclassical diagnostics, and exposes a deterministic sweep CLI.

Public names load on first use: ``import duffspec`` imports no submodule,
and ``duffspec.X`` (or ``from duffspec import X``) imports only the
submodule that defines X.  The closed-form, series and steady-state
routes and the Fano fit need numpy alone; scipy.sparse loads with the
first sparse generator or decay spectrum, and no route loads
``scipy.optimize``.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines each.
_PUBLIC = {
    "fock": (
        "ModelParams", "annihilation", "fock_state", "fock_projector", "build_hamiltonian",
        "expectation", "von_neumann_entropy", "binary_entropy", "validate_density_matrix",
    ),
    "lindblad": (
        "build_superoperator", "steady_state", "solve_steady_state_adaptive",
        "low_lying_spectrum", "metastable_extremes", "SpectrumSlice", "MetastablePair",
    ),
    "closedform": ("hyper_0f2", "dw_response", "dw_response_grid"),
    "semiclassical": (
        "classical_steady_states", "bifurcation_boundary", "ClassicalBranches",
        "BifurcationBoundary",
    ),
    "phasespace": (
        "wigner", "wigner_many", "wigner_integral", "wigner_purity", "local_maxima",
        "WignerGrid",
    ),
    "perturbation": (
        "s0_eigenvalue", "s0_eigenpair", "verify_s0_eigenpair", "bw_steady_state",
        "response_series", "fano_q", "fano_fit", "onset_scan", "onset_slope",
        "S0Eigenpair", "FanoFit",
    ),
    "circuit": ("CircuitParams", "load_circuit", "to_model", "v2_signal", "V2Quadratures"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Import a public name's submodule on first use and keep the name here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
