"""atomqc: exact unitary-to-circuit compiler for neutral-atom hardware.

Compiles arbitrary n-qubit unitaries to {single-qubit, CNOT} circuits via
Givens elimination (QRD) or recursive cosine-sine decomposition (QSD),
retargets them to the native set {C(theta, phi), CZ, CCZ}, and verifies
every output against the input matrix with a dense simulator.
"""

from .circuit import (
    Circuit,
    Gate,
    GateCounts,
    c_matrix,
    collect_single_qubit_runs,
    gate_counts,
)
from .exceptions import AtomqcError, NotUnitary, SynthesisFailure, UnsupportedGate
from .formats import (
    emit_sequence,
    parse_qasm,
    parse_sequence,
    read_matrix,
    render_qasm,
    write_matrix,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    phase_distance,
    random_unitary,
)
from .qrd import gcb_code, qrd_compile
from .qsd import qsd_compile
from .quaternion import (
    Quaternion,
    TwoPulse,
    quaternion_from_unitary,
    quaternion_multiply,
    to_axis_angle,
    two_pulse_synthesis,
)
from .retarget import retarget_circuit
from .simulate import (
    CompileReport,
    circuit_unitary,
    cnot_lower_bound,
    gate_matrix,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "AtomqcError",
    "Circuit",
    "CompileReport",
    "DEFAULT_TOL",
    "Gate",
    "GateCounts",
    "NotUnitary",
    "Quaternion",
    "SynthesisFailure",
    "Tolerances",
    "TwoPulse",
    "UnsupportedGate",
    "c_matrix",
    "circuit_unitary",
    "cnot_lower_bound",
    "collect_single_qubit_runs",
    "emit_sequence",
    "gate_counts",
    "gate_matrix",
    "gcb_code",
    "parse_qasm",
    "parse_sequence",
    "phase_distance",
    "qrd_compile",
    "qsd_compile",
    "quaternion_from_unitary",
    "quaternion_multiply",
    "random_unitary",
    "read_matrix",
    "render_qasm",
    "retarget_circuit",
    "to_axis_angle",
    "two_pulse_synthesis",
    "verify",
    "write_matrix",
]
