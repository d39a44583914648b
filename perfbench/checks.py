"""Checks on the program's outputs.

Every check returns a list of problems; an empty list means the output
passed.  The checks compare against ``refs`` (computed apart from the
program) or against properties the method must have.  None of them
compares against a stored copy of earlier output.
"""

import json

import numpy as np

from refs import ONSET_EXPONENTS

# A closed-form cell must match the 50-digit ratio to this relative error;
# the series meets it with three orders to spare on every grid here.
CLOSED_FORM_RTOL = 1e-9
# Cross-method agreement bound of the acceptance suite, absolute in <a>.
CROSS_METHOD_ATOL = 1e-6
# Lowest eigenvalue a density matrix may have (the program's TOL_PSD).
PSD_FLOOR = -1e-8
# The metastable extremes sit on the positivity boundary by construction:
# the program stops its bisection with the lowest eigenvalue in
# [-1e-8, 1e-7] by its own evaluation, so an independent evaluation may
# land below -1e-8 by rounding.
BOUNDARY_PSD_FLOOR = PSD_FLOOR - 1e-12
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-9
WIGNER_INTEGRAL_ATOL = 1e-6
ONSET_SLOPE_ATOL = 0.1
EIG_ZERO_ATOL = 1e-8
EIG_MATCH_RTOL = 1e-6


def closed_form_cells(values, references, rtol=CLOSED_FORM_RTOL):
    """Sampled cells of a closed-form grid against their 50-digit values."""
    problems = []
    for cell, exact in references.items():
        got = complex(values[cell])
        err = abs(got - exact) / max(abs(exact), 1e-300)
        if not err <= rtol:
            problems.append(f"cell {cell}: {got} vs exact {exact} (rel err {err:.2e})")
    return problems


def lorentzian_limit(values, lorentz, rtol):
    """A weak-drive column against the linear response -2 eps/(2 delta - i gamma)."""
    err = np.abs(np.asarray(values) / np.asarray(lorentz) - 1.0)
    worst = float(np.max(err))
    if not worst <= rtol:
        return [f"weak-drive column departs from the Lorentzian by {worst:.2e} > {rtol:.0e}"]
    return []


def response_gap(got, exact, atol=CROSS_METHOD_ATOL, label="<a>"):
    """A numeric <a> against the exact one, absolute."""
    gap = abs(complex(got) - complex(exact))
    if not gap <= atol:
        return [f"{label} = {complex(got)} is {gap:.2e} from the exact {complex(exact)}"]
    return []


def density_matrix(rho, label="rho", floor=PSD_FLOOR):
    """Hermitian, unit trace and positive semidefinite (by numpy's eigvalsh)."""
    rho = np.asarray(rho)
    problems = []
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm <= HERMITIAN_ATOL:
        problems.append(f"{label} not Hermitian: max |rho - rho'| = {herm:.2e}")
    trace = complex(np.trace(rho))
    if not abs(trace - 1.0) <= TRACE_ATOL:
        problems.append(f"{label} trace {trace} is not 1")
    lowest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if not lowest >= floor:
        problems.append(f"{label} has eigenvalue {lowest:.12e} below {floor:.12e}")
    return problems


def decay_spectrum(eigenvalues):
    """lambda_0 ~ 0, every other Re lambda < 0, complex ones in conjugate pairs."""
    w = np.asarray(eigenvalues, dtype=complex)
    if w.size == 0:
        return ["empty spectrum"]
    problems = []
    if not abs(w[0]) <= EIG_ZERO_ATOL:
        problems.append(f"stationary eigenvalue {w[0]} is not 0")
    rest = w[1:]
    if not np.all(rest.real < 0.0):
        problems.append(f"non-decaying eigenvalue among {rest}")
    scale = max(1.0, float(np.max(np.abs(w))))
    for lam in rest[np.abs(rest.imag) > EIG_ZERO_ATOL * scale]:
        if not np.any(np.abs(rest - lam.conjugate()) <= EIG_MATCH_RTOL * scale):
            problems.append(f"eigenvalue {lam} has no conjugate partner")
    return problems


def same_slow_eigenvalues(reference, other, label):
    """The two lists hold the same eigenvalues, matched as sets (order is free)."""
    ref = np.asarray(reference, dtype=complex)
    oth = np.asarray(other, dtype=complex)
    if ref.size != oth.size:
        return [f"{label}: {oth.size} slow eigenvalues, expected {ref.size}"]
    problems = []
    for lam in ref:
        if not np.any(np.abs(oth - lam) <= EIG_MATCH_RTOL * max(1.0, abs(lam))):
            problems.append(f"{label}: eigenvalue {lam} missing from {oth}")
    return problems


def metastable_pair(beta_minus, beta_plus, mixing_fraction):
    problems = []
    if not beta_minus < 0.0 < beta_plus:
        problems.append(f"betas out of order: beta- = {beta_minus}, beta+ = {beta_plus}")
    if not 0.0 <= mixing_fraction <= 1.0:
        problems.append(f"mixing fraction {mixing_fraction} outside [0, 1]")
    return problems


def wigner_integral(integral, trace=1.0, label="W"):
    err = abs(integral - trace)
    if not err <= WIGNER_INTEGRAL_ATOL:
        return [f"{label} integrates to {integral:.9f}, Tr rho = {trace}"]
    return []


def onset_slope(pairs, n):
    """Least-squares log-log slope of eps_onset(gamma) within 0.1 of 1/n."""
    gammas = np.log([g for g, _ in pairs])
    onsets = np.log([e for _, e in pairs])
    slope = float(np.polyfit(gammas, onsets, 1)[0])
    err = abs(slope - ONSET_EXPONENTS[n])
    if not err <= ONSET_SLOPE_ATOL:
        return slope, [f"n={n} onset slope {slope:.4f}, expected {ONSET_EXPONENTS[n]}"]
    return slope, []


def lorentzian_dip_fit(fit, amplitude):
    """A Lorentzian dip is the q = 0 member of the Fano family."""
    problems = []
    if not abs(fit.q) <= 1e-6:
        problems.append(f"dip fitted with q = {fit.q}, expected 0")
    if not abs(fit.amplitude - amplitude) <= 1e-6 * amplitude:
        problems.append(f"dip amplitude {fit.amplitude}, expected {amplitude}")
    return problems


def raised(outcome, expected_type):
    """``outcome`` is the exception a call raised, or None if it returned."""
    if outcome is None:
        return [f"call returned; expected {expected_type.__name__}"]
    if not isinstance(outcome, expected_type):
        return [f"raised {type(outcome).__name__}, expected {expected_type.__name__}"]
    return []


def identical_files(serial, parallel, label):
    if serial != parallel:
        return [f"{label} differs between the serial and the --workers 2 run"]
    return []


def identical_manifests(serial_text, parallel_text):
    """Manifests equal in every key and value but the two that name the run.

    The config echo holds ``out_dir`` and ``workers``, which differ between
    the runs by construction.  Floats are compared as parsed from their
    17-digit text, so a change in any printed digit shows.
    """
    docs = []
    for text in (serial_text, parallel_text):
        doc = json.loads(text)
        doc["config"].pop("out_dir", None)
        doc["config"].pop("workers", None)
        docs.append(json.dumps(doc, sort_keys=True, indent=2))
    return identical_files(docs[0], docs[1], "manifest.json")
