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
from .mbqc import _exhaustive, _plan_for, _run
from .network import CodingNetwork
from .ring import RingMatrix
from .states import QuditState

__all__ = [
    "embed_node",
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


def _embed_array(gadget, before, after, d):
    """The coherent node step from the live layout `before` to `after` (see
    mbqc._program): |x>|0> -> |x>|Vx> with the fresh outputs at their axes
    in `after`, scattered into a zeroed array through one flat target index
    per live amplitude.  It only moves amplitudes, so it gives the values of
    embed_node's cX^(V[j,k]) product.  The index table is built on the
    step's first call, so after the run's memory check.  Returns the step
    and the table's size in bytes."""
    target = None

    def step(arr, out=None):
        nonlocal target
        if target is None:
            target = _embed_targets(gadget, before, after, d)
        if out is None:
            out = np.zeros((len(arr),) + (d,) * len(after), dtype=np.complex128)
        else:
            out.fill(0)
        out.reshape(len(arr), -1)[:, target] = arr.reshape(len(arr), -1)
        return out

    return step, 8 * d ** len(before)


def _embed_targets(gadget, before, after, d):
    """The flat index in the layout `after` of each amplitude of the layout
    `before`: the sum over the qudits of `before` of their digit times
    their stride in `after`, plus that of each fresh output y = V x, x the
    digits of the node's inputs.  d**len(before) int64 entries, built in
    place."""
    stride = {lab: d ** (len(after) - 1 - i) for i, lab in enumerate(after)}
    digits = {lab: np.arange(d, dtype=np.int64).reshape([d if j == i else 1
                                                         for j in range(len(before))])
              for i, lab in enumerate(before)}
    target = np.zeros((d,) * len(before), dtype=np.int64)
    for lab in before:
        target += digits[lab] * stride[lab]
    for out, row in zip(gadget.out_labels, gadget.matrix.a.tolist()):
        y = sum((w * digits[lab] for w, lab in zip(row, gadget.in_labels) if w),
                np.zeros((), dtype=np.int64))
        target += y % d * stride[out]
    return target.reshape(-1)


_embed = _embed_array  # the node-step resolver `_run` takes for the coherent path


def _geometry_of(net: CodingNetwork):
    """The geometry of `net` for the coherent entry points, compiled on
    first use and kept on the network, so its plans stay on it too (see
    mbqc._plan_for)."""
    if net._geometry is None:
        object.__setattr__(net, "_geometry", compile_network(net))
    return net._geometry


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
    return _run(_plan_for(_geometry_of(net), mode), input_state, seed, forced, embed=_embed)


def exhaustive_coherent(net, input_state, mode="free"):
    """Iterate (outcome dict, output QuditState) over every measurement branch.

    Raises MemoryError up front when the live register would exceed
    mbqc._AMP_LIMIT amplitudes."""
    plan = _plan_for(_geometry_of(net), mode)
    yield from _exhaustive(plan, input_state, embed=_embed)

