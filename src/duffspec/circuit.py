"""Map a driven nonlinear LC readout circuit onto the oscillator model.

The circuit is a parallel RLC resonator whose inductive branch carries a
quartic correction (energy phi^2/2L - phi^4/24L4^3... expressed through
the quartic coefficient L4), coupled through Cc to a transmission line of
impedance Z0 that both drives it and drains it.  Eliminating the line
gives the rotating-frame rates; all quantities here are SI.
"""

import json
import math
import warnings
from dataclasses import dataclass

from .fock import ModelParams

HBAR = 1.054571817e-34  # J s

# Beyond this the line loading is no longer a weak perturbation and the
# lumped R_eq reduction loses accuracy.
_COUPLING_LIMIT = 0.1


def _is_number(value):
    # bool is an int subclass, but "L": true is no inductance
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CircuitParams:
    """Lumped-element parameters of the readout circuit (SI units).

    L        linear inductance [H]
    L4       quartic inductance coefficient [H]
    C        resonator capacitance [F]
    Cc       coupling capacitance to the line [F]
    Z0       transmission-line impedance [ohm]
    R        shunt resistance modelling internal loss [ohm]
    Vs       source drive amplitude [V]
    omega_p  drive angular frequency [rad/s]
    hbar     reduced Planck constant [J s]
    """

    L: float
    L4: float
    C: float
    Cc: float
    Z0: float
    R: float
    Vs: float
    omega_p: float
    hbar: float = HBAR

    def __post_init__(self):
        for name in ("L", "L4", "C", "Cc", "Z0", "omega_p", "hbar"):
            value = getattr(self, name)
            if not (_is_number(value) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        # R = inf is allowed and means a lossless resonator (line damping only)
        if not (_is_number(self.R) and self.R > 0):
            raise ValueError(f"R must be positive (inf allowed), got {self.R!r}")
        if not (_is_number(self.Vs) and math.isfinite(self.Vs) and self.Vs >= 0):
            raise ValueError(f"Vs must be a nonnegative finite number, got {self.Vs!r}")


def load_circuit(path):
    """Read CircuitParams from a JSON file keyed by the field names."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    known = set(CircuitParams.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown circuit keys: {sorted(unknown)}")
    return CircuitParams(**raw)


def _loaded_resonance(circuit):
    """(C', omega0): the line-loaded capacitance C + Cc and 1/sqrt(L C')."""
    c_total = circuit.C + circuit.Cc
    return c_total, 1.0 / math.sqrt(circuit.L * c_total)


def coupling_strength(circuit):
    """Dimensionless line coupling omega0 Cc Z0 controlling the mapping validity."""
    _, omega0 = _loaded_resonance(circuit)
    return omega0 * circuit.Cc * circuit.Z0


def to_model(circuit):
    """Rotating-frame rates (rad/s) of the circuit; returns (ModelParams, omega0).

    C' = C + Cc loads the resonator, omega0 = 1/sqrt(L C').  The line acts
    as an equivalent shunt R_eq = 2 Z0 / (omega0 Cc Z0)^2 in parallel with
    R, so gamma = 1/(R' C').  The quartic term gives
    chi = (3 hbar / 8) L / (C' L4) and the source drives with
    epsilon = (1/sqrt(8 hbar)) (L/C')^(1/4) Vs / Z0; delta = omega0 - omega_p.
    A warning is issued when omega0 Cc Z0 > 0.1, where the weak-coupling
    reduction degrades.
    """
    c_total, omega0 = _loaded_resonance(circuit)
    kappa = coupling_strength(circuit)
    if kappa > _COUPLING_LIMIT:
        warnings.warn(
            f"line coupling omega0*Cc*Z0 = {kappa:.3f} > {_COUPLING_LIMIT}; "
            "the lumped damping model is outside its validity range",
            RuntimeWarning,
            stacklevel=2,
        )
    r_eq = 2.0 * circuit.Z0 / kappa**2
    r_prime = 1.0 / (1.0 / r_eq + 1.0 / circuit.R)
    gamma = 1.0 / (r_prime * c_total)
    chi = (3.0 * circuit.hbar / 8.0) * circuit.L / (c_total * circuit.L4)
    epsilon = (
        (circuit.L / c_total) ** 0.25 * circuit.Vs / (math.sqrt(8.0 * circuit.hbar) * circuit.Z0)
    )
    delta = omega0 - circuit.omega_p
    return ModelParams(delta=delta, chi=chi, epsilon=epsilon, gamma=gamma), omega0


@dataclass(frozen=True)
class V2Quadratures:
    """Output-voltage quadrature amplitudes at the drive frequency [V].

    V2(t) = cos_amplitude * cos(omega_p t) + sin_amplitude * sin(omega_p t);
    the cosine quadrature carries the feedthrough Vs/2.
    """

    cos_amplitude: float
    sin_amplitude: float


def v2_signal(a_expectation, circuit):
    """Line output quadratures for a steady-state amplitude <a>.

    The oscillator contributes through the coupling capacitor with weight
    omega0 Cc Z0 times the zero-point voltage scale
    sqrt(hbar/2) (C'/L)^(1/4) / C', which converts the dimensionless mode
    amplitude to volts.
    """
    a_expectation = complex(a_expectation)
    c_total, omega0 = _loaded_resonance(circuit)
    zero_point = math.sqrt(circuit.hbar / 2.0) * (c_total / circuit.L) ** 0.25 / c_total
    weight = omega0 * circuit.Cc * circuit.Z0 * zero_point
    return V2Quadratures(
        cos_amplitude=0.5 * circuit.Vs + weight * a_expectation.real,
        sin_amplitude=weight * a_expectation.imag,
    )
