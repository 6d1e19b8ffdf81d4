"""Coherent simulation of a linear coding network with classical assistance.

Each node's map V becomes the embedding |x>|0> -> |x>|Vx>, realized as a
product of controlled shifts cX^(V[j,k]) from its input qudits onto freshly
prepared |0> outputs (embed_node); the simulator moves the amplitudes of
that permutation directly, which gives the same values.  Input qudits are
then decoupled by Fourier measurements, whose phases are erased either at
the targets (free classical communication, exponents r * kappa_u with
kappa_u = A^T lambda_u) or inside the network (constrained mode: Z^tau with
tau = V^T r at the producing node, walking the network against its
direction, then a block-diagonal correction for the source measurements
routed as a classical network code).

This is the one-way plan of mbqc.build_schedule run without its auxiliary
qudits: every node step is a cX embedding in place of the graph-state
gadget, so the auxiliary measurements, their messages and the shift
corrections they drive drop out, and the rest of the plan (measurement
order, phase corrections, message ledger) is shared with the one-way path.
Qudit labels match the one-way geometry of the same network (s*, m*, t*),
so ledgers and reports from both execution paths line up side by side.
"""

from __future__ import annotations

import numpy as np

from .geometry import compile_network
from .mbqc import _exhaustive, _run, build_schedule
from .network import CodingNetwork
from .ring import RingMatrix
from .states import QuditState

__all__ = [
    "embed_node",
    "node_phase_correction",
    "run_coherent",
    "exhaustive_coherent",
]


def embed_node(state: QuditState, matrix: RingMatrix, in_axes, out_axes) -> QuditState:
    """Coherently apply |x>|0> -> |x>|Vx> via controlled shifts.

    The out axes must hold freshly prepared |0> qudits; each nonzero V[j, k]
    contributes one cX^(V[j,k]) with control in_axes[k] and target out_axes[j].
    """
    if len(in_axes) != matrix.cols or len(out_axes) != matrix.rows:
        raise ValueError(
            f"matrix is {matrix.rows}x{matrix.cols} but got {len(out_axes)} outputs "
            f"and {len(in_axes)} inputs"
        )
    for j in range(matrix.rows):
        for k in range(matrix.cols):
            w = int(matrix.a[j, k])
            if w:
                state = state.apply_cx(in_axes[k], out_axes[j], w)
    return state


def node_phase_correction(outcomes, L: RingMatrix) -> np.ndarray:
    """Correction exponents tau = L^T r for outcomes r on the node's outputs."""
    r = np.asarray(outcomes, dtype=np.int64) % L.d
    if r.shape != (L.rows,):
        raise ValueError(f"expected {L.rows} outcomes, got {r.shape}")
    return (L.T.a @ r) % L.d


def _embed_array(arr, axis, gadget, d):
    """The coherent node step on a bare amplitude tensor: fresh |0> outputs
    appended after the live axes, then |x>|0> -> |x>|Vx>.  The map only
    moves amplitudes, so it gives the same values as the cX^(V[j,k])
    product of embed_node."""
    ins = [axis[lab] for lab in gadget.in_labels]
    k = len(ins)
    src = np.moveaxis(arr, ins, range(k))
    out = np.zeros(src.shape + (d,) * len(gadget.out_labels), dtype=np.complex128)
    V = gadget.matrix.a
    for x in np.ndindex(*src.shape[:k]):
        y = (V @ np.asarray(x, dtype=np.int64)) % d
        out[x + (Ellipsis,) + tuple(y.tolist())] = src[x]
    axis = dict(axis)
    for j, lab in enumerate(gadget.out_labels):
        axis[lab] = arr.ndim + j
    return np.moveaxis(out, range(k), ins), axis


def _embed(reg, gadget):
    """The coherent node step on a labelled register."""
    arr, reg.axis = _embed_array(reg.state._tensor(), reg.axis, gadget, reg.d)
    reg.state = QuditState(arr.ndim, reg.d, arr, normalize_check=False)


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
    (dict by qudit label, or sequence in this mode's measurement order).
    Raises MemoryError, before allocating, when the live register would not
    fit in physical memory.
    """
    plan = build_schedule(compile_network(net), mode)
    return _run(plan, input_state, seed, forced, embed=_embed)


def exhaustive_coherent(net, input_state, mode="free", amp_limit=2**22):
    """Iterate (outcome dict, output QuditState) over every measurement branch."""
    plan = build_schedule(compile_network(net), mode)
    yield from _exhaustive(plan, input_state, amp_limit, embed=_embed_array)
