"""Linear network codes over Z_d, coherently simulated and compiled to
one-way (measurement-based) procedures on weighted graph states.

The layers, bottom to top:

    ring       exact Z_d linear algebra (diagonalization over Z_d, left
               inverses, block-diagonal solutions of M^T B M = 1)
    network    DAG coding networks: validation, classical execution,
               composite map extraction
    states     dense n-qudit state vectors and the shared read-only phase
               table of the execution kernels
    geometry   compilation into a weighted graph-state geometry
    mbqc       one-way execution: the plan, correction routing, the
               input-basis register both paths run on, the single-run
               driver, the branch walker and the kernels they share
    coherent   classically assisted coherent simulation of a network
               code: the one-way plan without its auxiliary qudits
    cli        the qlnc command-line tool and its file formats

`import qlnc` loads only the modules a run needs.  `qlnc.weyl`, the
symbolic transport of Weyl operators through the teleportation gadget
with dense cross-checks, is imported on its own.
"""

from .bundled import butterfly_multicast, butterfly_swap, identity_wire
from .coherent import exhaustive_coherent, run_coherent
from .geometry import MbqcGeometry, ResourceCounts, compile_network, resource_counts
from .mbqc import (
    Schedule,
    branch_survey,
    build_schedule,
    exhaustive_mbqc,
    oracle_output_state,
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
from .states import ImpossibleOutcomeError, QuditState, fidelity

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
    "fidelity",
    "ImpossibleOutcomeError",
    "run_coherent",
    "exhaustive_coherent",
    "MbqcGeometry",
    "ResourceCounts",
    "compile_network",
    "resource_counts",
    "Schedule",
    "build_schedule",
    "run_mbqc",
    "exhaustive_mbqc",
    "branch_survey",
    "oracle_output_state",
    "RunReport",
    "butterfly_swap",
    "butterfly_multicast",
    "identity_wire",
]
