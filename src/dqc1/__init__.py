"""One-clean-qubit circuit simulation and entanglement analysis.

The register has one partially polarized qubit (qubit 0) and n maximally
mixed ones; a controlled unitary writes tr(U)/2**n into the polarized qubit's
X/Y readout.  This package builds those output states, quantifies their
bipartite entanglement with the multiplicative negativity, reproduces the
block-family and random-ensemble values, bounds the negativity from
trace-power constraints, and evaluates circuit traces classically by
sum-over-paths.
"""

from .linalg import (Bipartition, load_unitary, partial_transpose, save_unitary,
                     singular_values)
from .state import (Dqc1State, TraceEstimate, build_state, estimate_trace,
                    pauli_expectations, runs_required, separable_ball_alpha,
                    separable_decomposition)
from .negativity import (NegativityResult, negativity_eigen,
                         negativity_singular, pure_state_negativity)
from .family import (U2Blocks, build_family, canonical_u2, circuit_family,
                     family_negativity)
from .ensemble import (RandomCircuitParams, SweepStats, negativity_sweep,
                       pseudo_random_unitary, random_su2, su2_rotation)
from .bounds import (BoundResult, SpectrumSolution, bound_s12, bound_s123,
                     bound_s123_asymptotic, trace_power)
from .pathsum import (CNOT, Gate, GateCircuit, H, T, TOFFOLI, compile_circuit,
                      dense_trace, exact_trace_enumeration, hadamard_bracket,
                      parse_circuit, prepare_circuit, sampled_trace,
                      trace_by_counting)

__version__ = "0.1.0"
