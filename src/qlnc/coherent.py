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

The register is kept in the input basis.  Every live qudit holds a linear
form f_q(x) of the k network inputs (its `depends` row), so the register is
sum_x c(x) |L x> for the forms L of the live qudits, and a simulated row
holds c over the d^k input values.  A node step changes no amplitude and is
not simulated; measuring q with outcome r multiplies c by w^(-r f_q(x)) /
sqrt(d) (_phase_rows).  Later steps read only live qudits and M is
injective, so x -> (live values) stays injective: no amplitudes merge, and
every outcome has probability |c|^2 / d.  The final Z corrections act on
the input axes, and the last step scatters c into the d^l outputs at the
flat index of M x (_scatter).
"""

from __future__ import annotations

import numpy as np

from .geometry import compile_network
from .mbqc import _exhaustive, _plan_for, _run, _sq_norms
from .network import CodingNetwork, UnsupportedNetworkError
from .ring import _matmul_mod
from .states import QuditState, _table

__all__ = [
    "run_coherent",
    "exhaustive_coherent",
]


def _embed(geometry, order, rows, finals):
    """The coherent steps for mbqc._program (perm, steps, live, table bytes,
    rows): per label of `order` a measurement with its form's phase kernel;
    the final corrections (output, row of `rows`), all Z, as one Z step per
    input axis on a new row, since Z^e on output t is Z^(a e) on each input
    axis t's form reads with coefficient a; then the scatter."""
    d, k = geometry.d, len(geometry.inputs)
    kernels, steps, table_bytes = {}, [], 8 * d**k
    for i, label in enumerate(order):
        form = tuple(int(a) % d for a in geometry.depends[label])
        if form not in kernels:
            kernels[form] = _phase_rows(form, d)
            table_bytes += 16 * d * d * max(1, sum(map(bool, form)))
        steps.append(("measure", label, i, kernels[form]))
    z = sum((np.outer(geometry.depends[t], rows[i]) for t, i in finals),
            np.zeros((k, rows.shape[1]), dtype=np.int64)) % d
    steps += [("corr", "Z", 1 + j, len(rows) + j) for j in range(k)]
    steps.append(("node", _scatter([geometry.depends[t] for t in geometry.outputs], d)))
    live = [k] * len(steps) + [len(geometry.outputs)]
    return list(range(k)), steps, live, table_bytes, np.vstack([rows, z])


def _terms(form, d):
    """a * x_j mod d over x_j in [0, d), exactly, shaped along input axis j
    of a register over len(form) inputs, per nonzero coefficient a_j."""
    x, k = np.arange(d, dtype=np.int64)[:, None], len(form)
    return [_matmul_mod(x, np.array([[a]]), d).reshape([d if i == j else 1 for i in range(k)])
            for j, a in enumerate(form) if a % d]


def _phase_rows(form, d):
    """The measurement kernel of a qudit holding `form`: child (row, r) of
    an input-basis row is the row times w^(-r f(x)) / sqrt(d), by one d x d
    phase factor per input axis f reads, built on the first call, so after
    the memory check.  Returns the children's squared norms."""
    factors = None

    def kernel(arr, d, children):
        nonlocal factors
        if factors is None:
            factors = [_table("phase", d)[:, -v % d][None] for v in _terms(form, d)]
            factors = factors or [np.ones((1, d) + (1,) * (arr.ndim - 1))]
            factors[0] = factors[0] / np.sqrt(d)
        out = children.reshape((len(arr), d) + arr.shape[1:])
        np.multiply(arr[:, None], factors[0], out=out)
        for factor in factors[1:]:
            out *= factor
        return _sq_norms(children)

    return kernel


def _scatter(rows, d):
    """The last coherent step: c(x) of each row to the flat index of M x in
    the output register, M the forms `rows`, into `out` when given.  Its d^k
    int64 indices are built on the first call, after the memory check, and
    refuse a map that is not injective."""
    target = None

    def step(arr, out=None):
        nonlocal target
        if target is None:
            target = np.zeros((), dtype=np.int64)
            for row in rows:  # M x as a flat index, one output digit at a time
                target = target * d + sum(_terms(row, d), target * 0) % d
            target = np.broadcast_to(target, arr.shape[1:]).reshape(-1)
            ordered = np.sort(target)
            if (ordered[1:] == ordered[:-1]).any():
                raise UnsupportedNetworkError(f"composite map is not injective over Z_{d}")
        out = np.empty((len(arr),) + (d,) * len(rows), dtype=np.complex128) if out is None else out
        out.fill(0)
        out.reshape(len(arr), -1)[:, target] = arr.reshape(len(arr), -1)
        return out

    return step


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
    return _run(_plan_for(_geometry_of(net), mode), input_state, seed, forced, embed=_embed)


def exhaustive_coherent(net, input_state, mode="free"):
    """Iterate (outcome dict, output QuditState) over every measurement branch.

    Raises MemoryError up front for a register beyond mbqc._AMP_LIMIT."""
    plan = _plan_for(_geometry_of(net), mode)
    yield from _exhaustive(plan, input_state, embed=_embed)
