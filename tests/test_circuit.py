"""Tests for the circuit-to-model parameter map and the output voltage."""

import json
import math

import numpy as np
import pytest
from mpmath import mp, mpf, sqrt as mpsqrt

from duffspec.circuit import (
    CircuitParams,
    V2Quadratures,
    coupling_strength,
    load_circuit,
    to_model,
    v2_signal,
)

# 100 fF loaded resonator at omega0 = 1e11 rad/s with a 50-ohm line
REP = dict(
    L=1e-9,
    L4=4e-37,
    C=99e-15,
    Cc=1e-15,
    Z0=50.0,
    R=math.inf,
    Vs=4.6e-10,
    omega_p=1.0000514e11,
)


def oracle(rep, hbar=1.054571817e-34):
    """Same map evaluated independently in 50-digit arithmetic."""
    mp.dps = 50
    L, L4, C, Cc = mpf(rep["L"]), mpf(rep["L4"]), mpf(rep["C"]), mpf(rep["Cc"])
    Z0, Vs, wp, hb = mpf(rep["Z0"]), mpf(rep["Vs"]), mpf(rep["omega_p"]), mpf(hbar)
    cp = C + Cc
    w0 = 1 / mpsqrt(L * cp)
    kappa = w0 * Cc * Z0
    r_eq = 2 * Z0 / kappa**2
    r_prime = r_eq if math.isinf(rep["R"]) else 1 / (1 / r_eq + 1 / mpf(rep["R"]))
    return dict(
        omega0=float(w0),
        kappa=float(kappa),
        gamma=float(1 / (r_prime * cp)),
        chi=float((3 * hb / 8) * L / (cp * L4)),
        epsilon=float((L / cp) ** mpf("0.25") * Vs / (mpsqrt(8 * hb) * Z0)),
        delta=float(w0 - wp),
    )


def test_representative_set_matches_extended_precision():
    circuit = CircuitParams(**REP)
    params, omega0 = to_model(circuit)
    ref = oracle(REP)
    assert np.isclose(omega0, ref["omega0"], rtol=1e-13)
    assert np.isclose(coupling_strength(circuit), ref["kappa"], rtol=1e-13)
    assert np.isclose(params.gamma, ref["gamma"], rtol=1e-13)
    assert np.isclose(params.chi, ref["chi"], rtol=1e-13)
    assert np.isclose(params.epsilon, ref["epsilon"], rtol=1e-13)
    assert np.isclose(params.delta, ref["delta"], rtol=1e-10)
    # the set is tuned to the weak-coupling regime with eps/chi near 3.2
    assert np.isclose(ref["kappa"], 0.005, rtol=1e-3)
    assert 3.1 < params.epsilon / params.chi < 3.3
    assert params.delta < 0


def test_decoupled_line_leaves_internal_damping():
    rep = dict(REP, R=1e5, Cc=1e-21)
    params, _ = to_model(CircuitParams(**rep))
    assert np.isclose(params.gamma, 1.0 / (rep["R"] * rep["C"]), rtol=1e-6)


def test_no_source_no_drive():
    params, _ = to_model(CircuitParams(**dict(REP, Vs=0.0)))
    assert params.epsilon == 0.0


def test_monotonic_trends_in_coupling():
    gammas, chis = [], []
    for cc in np.linspace(0.5e-15, 5e-15, 7):
        params, _ = to_model(CircuitParams(**dict(REP, Cc=cc)))
        gammas.append(params.gamma)
        chis.append(params.chi)
    assert np.all(np.diff(gammas) > 0)
    assert np.all(np.diff(chis) < 0)


def test_v2_feedthrough_and_quadratures():
    circuit = CircuitParams(**REP)
    quiet = v2_signal(0.0, circuit)
    assert isinstance(quiet, V2Quadratures)
    assert quiet.cos_amplitude == 0.5 * circuit.Vs
    assert quiet.sin_amplitude == 0.0
    # a purely imaginary amplitude leaves the in-phase feedthrough untouched
    quad = v2_signal(0.3j, circuit)
    assert quad.cos_amplitude == 0.5 * circuit.Vs
    assert quad.sin_amplitude != 0.0
    # linearity in <a>
    both = v2_signal(0.2 - 0.3j, circuit)
    inphase = v2_signal(0.2, circuit)
    assert np.isclose(both.cos_amplitude, inphase.cos_amplitude, rtol=1e-14)
    assert np.isclose(both.sin_amplitude, -quad.sin_amplitude, rtol=1e-14)


def test_v2_qubit_part_tracks_coupling_capacitor():
    a = 0.7 - 0.2j
    base = v2_signal(a, CircuitParams(**REP))
    doubled = v2_signal(a, CircuitParams(**dict(REP, Cc=2 * REP["Cc"])))
    ratio = (doubled.cos_amplitude - 0.5 * REP["Vs"]) / (base.cos_amplitude - 0.5 * REP["Vs"])
    # weight ~ Cc up to the mild C' loading correction (100/101)^(5/4)
    assert np.isclose(ratio, 2.0 * (100.0 / 101.0) ** 1.25, rtol=1e-10)
    assert 1.9 < ratio < 2.0


def test_strong_coupling_warns():
    with pytest.warns(RuntimeWarning):
        to_model(CircuitParams(**dict(REP, Cc=30e-15)))


def test_json_round_trip(tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(dict(REP, R=1e4)))
    circuit = load_circuit(path)
    assert circuit == CircuitParams(**dict(REP, R=1e4))
    path.write_text(json.dumps(dict(REP, R=1e4, bogus=1.0)))
    with pytest.raises(ValueError):
        load_circuit(path)


@pytest.mark.parametrize("field", ["L", "L4", "C", "Cc", "Z0", "R", "Vs", "omega_p", "hbar"])
@pytest.mark.parametrize("flag", [True, False])
def test_boolean_fields_are_rejected(tmp_path, field, flag):
    # bool is an int subclass, so "L": true would read as 1 H
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({**REP, "R": 1e4, field: flag}))
    with pytest.raises(ValueError, match=f"^{field} must be .*, got {flag}$"):
        load_circuit(path)


def test_parameter_validation():
    with pytest.raises(ValueError):
        CircuitParams(**dict(REP, L=-1e-9))
    with pytest.raises(ValueError):
        CircuitParams(**dict(REP, R=-50.0))
    with pytest.raises(ValueError):
        CircuitParams(**dict(REP, Vs=-1.0))
    with pytest.raises(ValueError):
        CircuitParams(**dict(REP, Cc=0.0))
    # lossless internal resistance is a supported limit
    CircuitParams(**dict(REP, R=math.inf))
