"""Pulse-level simulator for time-optimal holonomic gates on Lambda systems."""

from . import protocols, twoqubit
from .evolve import (
    DEFAULT_CONFIG,
    NO_ERROR,
    NO_NOISE,
    ErrorInjection,
    IntegratorConfig,
    NoiseModel,
    Trajectory,
    evolve_density,
    evolve_pure,
    gate_channel,
    gate_channels,
    propagator,
)
from .gates import (
    clifford_group,
    compile_clifford,
    gate_spec_from_unitary,
    ideal_control_rk,
    ideal_single_qubit,
)
from .pulses import (
    GateSpec,
    PulseSchedule,
    Segment,
    bright_dark_basis,
    nhqc_duration,
    synthesize,
    synthesize_nhqc,
    synthesize_tounhqc,
    tounhqc_duration,
)
from .quantum import (
    average_channel_fidelity,
    average_gate_fidelity,
    basis_state,
    bloch_coordinates,
    bloch_rows,
    density,
    unattenuated_fidelity,
)

__version__ = "0.1.0"
