"""Linear network codes over Z_d, coherently simulated and compiled to
one-way (measurement-based) procedures on weighted graph states.

The layers, bottom to top:

    ring       exact Z_d linear algebra (diagonalization over Z_d, left
               inverses, block-diagonal solutions of M^T B M = 1)
    network    DAG coding networks: validation, classical execution,
               composite map extraction
    states     dense n-qudit state vectors with the X/Z/F/cX/cZ gate set
               and Fourier-basis measurement
    weyl       symbolic Weyl-operator transport through teleportation
               gadgets, checked against dense conjugation
    geometry   compilation into a weighted graph-state geometry
    mbqc       one-way execution: the plan, byproduct adjustment,
               correction routing, the single-run driver and the
               branch walker
    coherent   classically assisted coherent simulation of a network
               code: the one-way plan without its auxiliary qudits, run
               on amplitudes over the network inputs
    cli       the qlnc command-line tool and its file formats
"""

from .bundled import butterfly_multicast, butterfly_swap, identity_wire
from .coherent import embed_node, exhaustive_coherent, run_coherent
from .geometry import MbqcGeometry, ResourceCounts, compile_network, resource_counts
from .mbqc import (
    Schedule,
    adjust_outcome,
    branch_survey,
    build_schedule,
    exhaustive_mbqc,
    oracle_output_state,
    prepare_graph_state,
    run_mbqc,
)
from .network import (
    CodingNetwork,
    InvalidNetworkError,
    Link,
    NodeSpec,
    UnsupportedNetworkError,
    composite_map,
    run_classical,
    validate,
)
from .report import RunReport
from .ring import (
    RingMatrix,
    find_block_diagonal_B,
    is_injective,
    left_inverse,
    solve_modular,
)
from .states import ImpossibleOutcomeError, LabeledRegister, QuditState, fidelity
from .weyl import WeylLabel, conjugate_weyl_through, fdagger_gadget, weyl_matrix

__version__ = "0.1.0"

__all__ = [
    "RingMatrix",
    "is_injective",
    "left_inverse",
    "solve_modular",
    "find_block_diagonal_B",
    "CodingNetwork",
    "NodeSpec",
    "Link",
    "validate",
    "composite_map",
    "run_classical",
    "InvalidNetworkError",
    "UnsupportedNetworkError",
    "QuditState",
    "LabeledRegister",
    "fidelity",
    "ImpossibleOutcomeError",
    "WeylLabel",
    "weyl_matrix",
    "conjugate_weyl_through",
    "fdagger_gadget",
    "embed_node",
    "run_coherent",
    "exhaustive_coherent",
    "MbqcGeometry",
    "ResourceCounts",
    "compile_network",
    "resource_counts",
    "Schedule",
    "build_schedule",
    "prepare_graph_state",
    "adjust_outcome",
    "run_mbqc",
    "exhaustive_mbqc",
    "branch_survey",
    "oracle_output_state",
    "RunReport",
    "butterfly_swap",
    "butterfly_multicast",
    "identity_wire",
]
