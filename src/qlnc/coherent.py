"""Coherent simulation of a linear coding network with classical assistance.

Each node's map V becomes the embedding |x>|0> -> |x>|Vx>, a product of
controlled shifts cX^(V[j,k]) onto fresh |0> outputs.  Input qudits are
then decoupled by Fourier measurements, whose phases are erased at the
targets (free mode, exponents r * kappa_u with kappa_u = A^T
lambda_u) or inside the network (constrained mode: Z^tau with tau = V^T r at
the producing node, against the network's direction, then a block-diagonal
correction for the sources routed as a classical network code).  This is
the one-way plan of mbqc.build_schedule without its auxiliary qudits, with
the labels of the one-way geometry, so reports of both paths line up.

The register is the one-way path's input-basis register (mbqc._resolve):
a simulated row holds the amplitudes c(x) over the d^k network inputs.
Here every live qudit holds its form f_q(x) with no outcome offset, so a
node step changes no amplitude and is not simulated, measuring q with
outcome r multiplies c by w^(-r f_q(x)) / sqrt(d), the final Z corrections
act on the input axes, and the last step scatters c into the d^l outputs
at the flat index of M x.
"""

from __future__ import annotations

from .geometry import compile_network
from .mbqc import _exhaustive, _plan_for, _run
from .network import CodingNetwork
from .states import QuditState

__all__ = [
    "run_coherent",
    "exhaustive_coherent",
]


def _geometry_of(net: CodingNetwork):
    """The geometry of `net` for the coherent entry points, compiled on first
    use and kept on the network, so its plans stay on it too (_plan_for)."""
    if "geometry" not in net._memo:
        net._memo["geometry"] = compile_network(net)
    return net._memo["geometry"]


def run_coherent(
    net: CodingNetwork,
    input_state: QuditState,
    mode="free",
    seed=None,
    forced=None,
):
    """Coherently execute the network code on an arbitrary input state.

    Returns (output QuditState on the target qudits in declaration order,
    RunReport).  Outcomes are sampled via `seed` or pinned via `forced`
    (dict by qudit label, or sequence in this mode's measurement order); a
    dict key this mode does not measure raises ValueError.  Raises
    MemoryError, before allocating, when a register would not fit in memory.
    """
    return _run(_plan_for(_geometry_of(net), mode), input_state, seed, forced, coherent=True)


def exhaustive_coherent(net, input_state, mode="free"):
    """Iterate (outcome dict, output QuditState) over every measurement branch.

    Raises MemoryError up front for a register beyond mbqc._AMP_LIMIT."""
    plan = _plan_for(_geometry_of(net), mode)
    yield from _exhaustive(plan, input_state, coherent=True)
