"""Simulator and protocol engine for N qubits collectively coupled to a
single resonator mode with a photon-number-dependent qubit frequency shift
(the Dicke model with a Stark term).

The Stark nonlinearity makes every rotating-frame coupling frequency depend
on both the photon number and the atomic excitation number, so tuning the
qubit frequency selects a single two-level transition. The package builds
the exact model, derives the selective effective interactions to second
order, scans resonances, and executes multi-step state-preparation
protocols (Dicke ladder, GHZ).
"""

from .model import (
    BasisKind,
    HilbertSpace,
    ModelParams,
    Operator,
    StateVector,
    build_hamiltonian,
    build_space,
    default_n_max,
    dicke_state,
    ladder_coupling,
    symmetrization_isometry,
)
from .effective import (
    ResonanceTarget,
    SecondOrderCoeffs,
    detuned_rabi_probability,
    pulse_duration,
    rabi_frequency,
    ratio_from_omega_q,
    rwa_validity_report,
    second_order_coeffs,
    solve_first_order_resonance,
    solve_resonance,
    solve_second_order_resonance,
)
from .dynamics import (
    Trajectory,
    evolve,
    fidelity,
    observables,
    propagate,
    to_rotating_frame,
)
from .protocol import (
    Protocol,
    PulseStep,
    StepRule,
    compile_dicke_ladder,
    compile_ghz4,
    protocol_from_json,
    run_protocol,
)
from .scan import Peak, ScanCurve, detect_peaks, peak_report, resonance_scan, scan_grid

__all__ = [
    "BasisKind",
    "HilbertSpace",
    "ModelParams",
    "Operator",
    "Peak",
    "Protocol",
    "PulseStep",
    "ResonanceTarget",
    "ScanCurve",
    "SecondOrderCoeffs",
    "StateVector",
    "StepRule",
    "Trajectory",
    "build_hamiltonian",
    "build_space",
    "compile_dicke_ladder",
    "compile_ghz4",
    "default_n_max",
    "detect_peaks",
    "detuned_rabi_probability",
    "dicke_state",
    "evolve",
    "fidelity",
    "ladder_coupling",
    "observables",
    "peak_report",
    "propagate",
    "protocol_from_json",
    "pulse_duration",
    "rabi_frequency",
    "ratio_from_omega_q",
    "resonance_scan",
    "run_protocol",
    "rwa_validity_report",
    "scan_grid",
    "second_order_coeffs",
    "solve_first_order_resonance",
    "solve_resonance",
    "solve_second_order_resonance",
    "symmetrization_isometry",
    "to_rotating_frame",
]

__version__ = "0.1.0"
