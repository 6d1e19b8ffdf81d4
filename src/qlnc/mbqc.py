"""One-way execution of a compiled geometry.

The procedure is: entangle the input state into the graph state, measure
every non-output qudit in the Fourier basis under a mode-dependent schedule,
and remove the byproducts with classically controlled corrections.

build_schedule makes the one plan both execution paths run.  The coherent
path (coherent.py) is this plan without its auxiliary qudits: each node step
is a cX embedding instead of a graph-state gadget, and the auxiliary
measurements, their messages and the shift corrections they drive are
skipped.  The plan depends only on the geometry and the mode, so the entry
points plan once (_plan_for): the plan is kept on the geometry, and the
coherent entry points, which take a network, keep the geometry they compile
on it (coherent._geometry_of).  On a path's first run the plan is resolved
into one step program (_program), the one place that decides where a qudit
lives.  A pattern fixes its measurement order before any outcome is known,
so the live qudits are kept in that order, the outputs last in declaration
order: the input register is permuted into it once, a node step inserts its
fresh qudits at their places (each one-way out-port step with one amplitude
table of its cZ phases, each coherent node step with one flat target-index
table; the modes of a geometry share these node steps), every measurement
takes the leading live axis, and the last step leaves the outputs in order.
One single-run driver and one branch walker interpret that program for
run_mbqc, run_coherent, exhaustive_mbqc, branch_survey and
coherent.exhaustive_coherent.  Both step bare arrays, axis 0 indexing
branches, with one kernel set (the node steps, _fourier_rows, _weyl_rows,
the tables of states._table); a single run is a batch of one row that
keeps one outcome per measurement, at two registers of memory, and the
walker steps into reusable work buffers (_work).  Every step is Clifford
over Z_d, so every number a run reports (raw and adjusted outcomes,
correction exponents, message payloads) is a fixed linear function mod d
of its outcomes: the program holds these as one integer matrix of rows
over the simulated outcomes (_records), and the walker's corrections and
the single run's corrections, ledger and messages are all read from it.

Two communication regimes are supported.

free:        all measurements share one logical step; measurement results go
             straight to the target nodes, which apply every correction on
             the output qudits (shift corrections built from the cascade of
             adjusted auxiliary outcomes, phase corrections from the
             dependence vectors kappa_u = A^T lambda_u).

constrained: classical data stays on the network.  Auxiliary qudits are
             measured in topological node order and their adjusted outcomes
             travel forward along the links; incoming-message qudits are
             measured in reverse topological order so each producing node
             can undo the phases on its own inputs (Z^tau with tau = V^T r)
             before those are measured in turn; finally the network inputs
             are measured and the residual phase is removed through a
             block-diagonal solution of M^T B M = 1 routed as a classical
             network code (or flagged as out-of-network traffic when no
             such B exists).  Reports list outcomes, corrections and
             messages in this order.

Both modes are simulated in one frontier order.  A one-way node step is
split by out-port: an auxiliary is entangled only with the node's inputs and
its own message qudit, and a cZ commutes with Fourier measurements on other
qudits (the standard-form reordering of the measurement calculus), so each
port's pair is prepared right before it is used and followed at once by its
auxiliary's measurement and --local-aux shift correction.  The node's last
port is followed by the measurements of its inputs.  So one auxiliary pair
is live at a time, and a qudit stays live only while a later step acts on
it.  Fourier measurements on different qudits commute, and a
Z^tau applied right before a Fourier measurement only relabels its outcome
(signal shifting in the measurement calculus of Danos, Kashefi and
Panangaden): measuring Z^tau psi gives r exactly when measuring psi gives
r - tau, and leaves the same state.  So the simulation drops each such Z
step of the constrained mode and adds tau to the simulated outcome
afterwards, evaluating tau in report order (the map T of _outcome_map,
whose rows are the program's raw-outcome rows); a forced outcome r is drawn
as r - tau, with tau read off the forced outcomes.

Sign conventions follow states.py: a Fourier outcome r on a qudit holding
basis value v multiplies the branch by w^(-r v), auxiliary outcomes leave a
shift deficit of r on the paired message qudit (fixed by X^{+r}), and an
uncorrected deficit delta on an input of a later node raises that node's
auxiliary outcomes by V[j,:] . delta, so adjusted outcomes are obtained by
subtracting the negated matrix row.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import MbqcGeometry, _tally
from .network import UnsupportedNetworkError
from .report import CorrectionRecord, MessageRecord, OutcomeRecord, RunReport
from .ring import RingMatrix, _matmul_mod, find_block_diagonal_B, left_inverse
from .states import (
    IMPOSSIBLE_TOL,
    ImpossibleOutcomeError,
    LabeledRegister,
    QuditState,
    _table,
    fidelity,
)

__all__ = [
    "Measure",
    "Adjust",
    "Correct",
    "Send",
    "Stage",
    "Schedule",
    "build_schedule",
    "prepare_graph_state",
    "adjust_outcome",
    "run_mbqc",
    "exhaustive_mbqc",
    "branch_survey",
    "oracle_output_state",
]


# ----------------------------------------------------------------------
# schedule structure
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Measure:
    qudit: str
    basis: str = "fourier"


@dataclass(frozen=True, slots=True)
class Adjust:
    """adjusted(qudit) = raw(qudit) - sum coeff * adjusted(upstream) mod d."""

    qudit: str
    terms: tuple  # ((upstream_qudit, coeff), ...)


@dataclass(frozen=True, slots=True)
class Correct:
    """Apply op^exponent to qudit, exponent = sum coeff * outcome(source)."""

    op: str  # "X" or "Z"
    qudit: str
    terms: tuple  # ((source_qudit, coeff, "raw" | "adjusted"), ...)


@dataclass(frozen=True, slots=True)
class Send:
    sender: str
    receiver: str
    payload: tuple  # ("raw" | "adjusted" | "sigma-link" | "sigma-share", label)
    over_network: bool
    backward: bool = False


@dataclass
class Stage:
    name: str
    steps: list


@dataclass
class Schedule:
    mode: str
    stages: list

    def measurement_order(self):
        order = []
        for stage in self.stages:
            for step in stage.steps:
                if isinstance(step, Measure):
                    order.append(step.qudit)
        return order


# ----------------------------------------------------------------------
# plan construction
# ----------------------------------------------------------------------

@dataclass
class _Plan:
    geometry: MbqcGeometry
    mode: str
    schedule: Schedule
    # ("intro", gadget_idx, port) | ("measure", label, stage) | ("corr", Correct, stage)
    physical: list
    report_order: list  # ("measure", label, stage) | ("corr", Correct, stage)
    shifts: dict  # measured label -> the Z step right before its measurement
    final_corrections: list  # (Correct, stage)
    adjust_terms: dict
    matrix: RingMatrix
    block_B: RingMatrix | None
    requires_out_of_network: bool
    # path (the coherent node-step resolver, None for one-way) -> its _Program,
    # resolved on the path's first run
    programs: dict = field(default_factory=dict, repr=False, compare=False)


def _geometry_tables(geometry: MbqcGeometry):
    producer_node = {}
    consumer_node = {}
    source_node = {}
    for gadget in geometry.gadgets:
        for lab in gadget.out_labels:
            producer_node[lab] = gadget.node_id
        for lab in gadget.in_labels:
            if lab in geometry.inputs:
                source_node[lab] = gadget.node_id
            else:
                consumer_node[lab] = gadget.node_id
    return producer_node, consumer_node, source_node


def composite_of_geometry(geometry: MbqcGeometry) -> RingMatrix:
    rows = [geometry.depends[t] for t in geometry.outputs]
    return RingMatrix(np.asarray(rows, dtype=np.int64), geometry.d)


def adjust_outcome(ledger, qudit, raw, upstream, terms, d, stage="adjust"):
    """Adjusted outcome raw - sum coeff*upstream mod d, recorded with provenance.

    `upstream` maps qudit labels to their (already adjusted) outcomes and
    `terms` is a sequence of (label, coeff).
    """
    acc = int(raw)
    for label, coeff in terms:
        acc -= int(coeff) * int(upstream[label])
    adjusted = acc % d
    ledger.append(
        OutcomeRecord(qudit=qudit, raw=int(raw) % d, adjusted=adjusted, stage=stage,
                      provenance=tuple((lab, int(c) % d) for lab, c in terms))
    )
    return adjusted


def _aux_adjust_terms(geometry: MbqcGeometry, local_aux: bool):
    """Cascade coefficients: adjusted = raw - sum(-V[j,k]) * adjusted(producer aux)."""
    terms = {}
    link_labels = {f"m{i + 1}" for i in range(geometry.num_links)}
    for gadget in geometry.gadgets:
        for aux, row in zip(gadget.aux_labels, gadget.matrix.a.tolist()):
            terms[aux] = () if local_aux else tuple(
                (in_lab + "'", -v % geometry.d)
                for in_lab, v in zip(gadget.in_labels, row)
                if in_lab in link_labels and v
            )
    return terms


def build_schedule(geometry: MbqcGeometry, mode, local_aux=False):
    """The logical schedule plus the executable plan for one geometry/mode."""
    if mode not in ("free", "constrained"):
        raise ValueError(f"unknown mode {mode!r}")
    if local_aux and mode == "free":
        raise ValueError("local auxiliary corrections only exist in constrained mode")
    d = geometry.d
    producer_node, consumer_node, source_node = _geometry_tables(geometry)
    link_labels = [f"m{i + 1}" for i in range(geometry.num_links)]
    link_of_message = {lab: i for i, lab in enumerate(link_labels)}

    M = composite_of_geometry(geometry)
    A = left_inverse(M)
    if A is None:
        raise UnsupportedNetworkError(
            f"composite map is not injective over Z_{d}; "
            "neither the coherent nor the one-way protocol is defined"
        )

    adjust_terms = _aux_adjust_terms(geometry, local_aux)
    # geometry.qudits is in natural label order (label_sort_key)
    rank = {lab: i for i, (lab, _kind) in enumerate(geometry.qudits)}
    target_nodes = []
    for t in geometry.outputs:
        nid = producer_node[t]
        if nid not in target_nodes:
            target_nodes.append(nid)

    stages = []
    report_order = []
    shifts = {}
    node_corrections = {}  # gadget index -> its --local-aux X steps
    final_corrections = []
    requires_oon = False
    block_B = None

    if mode == "free":
        measured = geometry.measured_labels()
        stages.append(Stage("measure", [Measure(q) for q in measured]))
        adjusts = []
        for gadget in geometry.gadgets:
            for aux in gadget.aux_labels:
                adjusts.append(Adjust(aux, adjust_terms[aux]))
        stages.append(Stage("adjust", adjusts))
        # a measured qudit's owner: the node it feeds (an input or an incoming
        # message) or, for an auxiliary, the node that produced its twin
        owner = {**{q + "'": producer_node[q] for q in producer_node},
                 **consumer_node, **source_node}
        receivers = [f"target {nid}" for nid in target_nodes]
        sends = [
            Send(owner[q], receiver, ("raw", q), over_network=False)
            for q in measured
            for receiver in receivers
        ]
        stages.append(Stage("send", sends))

        corrections = []
        us = geometry.message_like_labels()
        # kappa_u = A^T lambda_u, one row per u
        lam = np.asarray([geometry.depends[u] for u in us], dtype=np.int64)
        kappa = dict(zip(us, _matmul_mod(lam.reshape(len(us), M.cols), A.a, d).tolist()))
        for h, t in enumerate(geometry.outputs):
            corrections.append(Correct("X", t, ((t + "'", 1, "adjusted"),)))
            zterms = tuple((u, kappa[u][h], "raw") for u in us if kappa[u][h])
            if zterms:
                corrections.append(Correct("Z", t, zterms))
        stages.append(Stage("correct", corrections))
        final_corrections = [(c, "correct") for c in corrections]
        measure_stage = dict.fromkeys(measured, "measure")

    else:
        # phase A: auxiliary measurements in topological node order
        for i, gadget in enumerate(geometry.gadgets):
            nid = gadget.node_id
            name = f"aux-measure {nid}"
            auxs = sorted(gadget.aux_labels, key=rank.get)
            stages.append(Stage(name, [Measure(q) for q in auxs]))
            stages.append(
                Stage(f"aux-adjust {nid}", [Adjust(a, adjust_terms[a]) for a in auxs])
            )
            for q in auxs:
                report_order.append(("measure", q, name))
            if local_aux:
                name_x = f"x-correct {nid}"
                steps = [
                    Correct("X", out, ((gadget.aux_labels[j], 1, "adjusted"),))
                    for j, out in enumerate(gadget.out_labels)
                ]
                node_corrections[i] = [("corr", corr, name_x) for corr in steps]
                report_order.extend(node_corrections[i])
                stages.append(Stage(name_x, steps))
            else:
                sends = []
                for j, out in enumerate(gadget.out_labels):
                    if out in link_of_message:
                        sends.append(
                            Send(nid, consumer_node[out], ("adjusted", gadget.aux_labels[j]),
                                 over_network=True)
                        )
                if sends:
                    stages.append(Stage(f"aux-send {nid}", sends))

        if not local_aux:
            steps = []
            for t in geometry.outputs:
                corr = Correct("X", t, ((t + "'", 1, "adjusted"),))
                steps.append(corr)
                final_corrections.append((corr, "x-correct"))
            stages.append(Stage("x-correct", steps))

        # phase B: incoming-message measurements in reverse topological order
        for gadget in reversed(geometry.gadgets):
            nid = gadget.node_id
            zsteps = []
            for in_lab, col in zip(gadget.in_labels, gadget.matrix.a.T.tolist()):
                terms = tuple(
                    (out, v, "raw")
                    for out, v in zip(gadget.out_labels, col)
                    if out in link_of_message and v
                )
                if terms:
                    corr = Correct("Z", in_lab, terms)
                    zsteps.append(corr)
                    shifts[in_lab] = corr
                    report_order.append(("corr", corr, f"z-correct {nid}"))
            if zsteps:
                stages.append(Stage(f"z-correct {nid}", zsteps))
            link_ins = sorted(
                (lab for lab in gadget.in_labels if lab in link_of_message),
                key=rank.get,
            )
            if link_ins:
                name = f"input-measure {nid}"
                stages.append(Stage(name, [Measure(q) for q in link_ins]))
                sends = []
                for q in link_ins:
                    report_order.append(("measure", q, name))
                    sends.append(
                        Send(nid, producer_node[q], ("raw", q), over_network=True,
                             backward=True)
                    )
                stages.append(Stage(f"send-back {nid}", sends))

        # phase C: network-input measurements and the source phase correction
        name = "source-measure"
        src = sorted(geometry.inputs, key=rank.get)
        stages.append(Stage(name, [Measure(q) for q in src]))
        for q in src:
            report_order.append(("measure", q, name))

        by_node = {}
        for h, t in enumerate(geometry.outputs):
            by_node.setdefault(producer_node[t], []).append(h)
        blocks = [by_node[nid] for nid in target_nodes]
        block_B = find_block_diagonal_B(M, blocks)
        if block_B is not None:
            C = _matmul_mod(block_B.a.T, M.a, d).tolist()
            sends = [
                Send(producer_node[lab], consumer_node[lab], ("sigma-link", lab),
                     over_network=True)
                for lab in link_labels
            ]
            stages.append(Stage("sigma-route", sends))
        else:
            requires_oon = True
            C = A.a.T.tolist()
            sends = []
            source_nodes = []
            for s in geometry.inputs:
                if source_node[s] not in source_nodes:
                    source_nodes.append(source_node[s])
            for snid in source_nodes:
                for tnid in target_nodes:
                    sends.append(
                        Send(snid, f"target {tnid}", ("sigma-share", snid),
                             over_network=False)
                    )
            stages.append(Stage("sigma-direct", sends))
        steps = []
        for h, t in enumerate(geometry.outputs):
            terms = tuple((s, c, "raw") for s, c in zip(geometry.inputs, C[h]) if c)
            if terms:
                corr = Correct("Z", t, terms)
                steps.append(corr)
                final_corrections.append((corr, "sigma-correct"))
        stages.append(Stage("sigma-correct", steps))
        measure_stage = {lab: st for kind, lab, st in report_order if kind == "measure"}

    # The simulation order is one frontier sweep for both modes: per
    # out-port of a node, in the rank order of its auxiliaries, the port's
    # step, its auxiliary's measurement and its --local-aux X step; then the
    # node's inputs, each measured once no later step touches it.  An
    # auxiliary is entangled only with the node's inputs and its own message
    # qudit, so one auxiliary pair is live at a time.  The Z steps in
    # `shifts` are not simulated: each relabels the outcome it precedes.
    physical = []
    for i, gadget in enumerate(geometry.gadgets):
        x_steps = node_corrections.get(i)
        for j in sorted(range(len(gadget.aux_labels)), key=lambda j: rank[gadget.aux_labels[j]]):
            aux = gadget.aux_labels[j]
            physical.append(("intro", i, j))
            physical.append(("measure", aux, measure_stage[aux]))
            if x_steps:
                physical.append(x_steps[j])
        for lab in sorted(gadget.in_labels, key=rank.get):
            physical.append(("measure", lab, measure_stage[lab]))
    if mode == "free":
        report_order = [op for op in physical if op[0] != "intro"]

    return _Plan(
        geometry=geometry,
        mode=mode,
        schedule=Schedule(mode, stages),
        physical=physical,
        report_order=report_order,
        shifts=shifts,
        final_corrections=final_corrections,
        adjust_terms=adjust_terms,
        matrix=M,
        block_B=block_B,
        requires_out_of_network=requires_oon,
    )


def _plan_for(geometry: MbqcGeometry, mode, local_aux=False):
    """The plan of `geometry` in `mode`, built by build_schedule on first
    use and kept on the geometry.  The measurement pattern depends only on
    the geometry and the mode, never on the input or the outcomes, so every
    run of the same (mode, local_aux) replays one plan and its resolved step
    programs.  A plan that cannot be built is not kept: the error repeats on
    every call."""
    key = ("plan", mode, bool(local_aux))
    plan = geometry._memo.get(key)
    if plan is None:
        plan = geometry._memo[key] = build_schedule(geometry, mode, local_aux=local_aux)
    return plan


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def prepare_graph_state(geometry: MbqcGeometry, input_state: QuditState) -> QuditState:
    """Entangle the input state into the full graph state (all qudits live).

    Non-input qudits start in |+> and every edge contributes one cZ^weight.
    The returned register is ordered like geometry.qudits.
    """
    _validate_input(geometry, input_state)
    reg = LabeledRegister(input_state, geometry.inputs)
    for gadget in geometry.gadgets:
        _introduce(reg, gadget)
    return reg.extract([lab for lab, _ in geometry.qudits])


def _introduce(reg, gadget):
    """The one-way node step: add the node's auxiliary and outgoing message
    qudits in |+> and entangle them with its inputs."""
    fresh = []
    for j, out in enumerate(gadget.out_labels):
        fresh.append(gadget.aux_labels[j])
        fresh.append(out)
    reg.add(fresh, fill="plus")
    V = gadget.matrix.a
    for j, aux in enumerate(gadget.aux_labels):
        for k_, in_lab in enumerate(gadget.in_labels):
            if V[j, k_]:
                reg.apply_cz(in_lab, aux, int(V[j, k_]))
        reg.apply_cz(aux, gadget.out_labels[j], reg.d - 1)


def _is_aux(label):
    return label.endswith("'")


def _reads_aux(correct: Correct):
    return any(_is_aux(lab) for lab, _c, _use in correct.terms)


def _steps(plan, coherent):
    """The simulated ops, report order, final corrections and forced-outcome
    order of a path.

    The coherent path is the one-way plan without its auxiliary qudits: a
    node step embeds the node's map with controlled shifts instead of
    teleporting through a gadget, so the auxiliary measurements and the
    shift corrections that read them drop out, and a node's port steps,
    then consecutive, fuse into one ("intro", gadget_idx) embedding.
    """
    ops, report_ops, finals = plan.physical, plan.report_order, plan.final_corrections
    order = plan.schedule.measurement_order()
    if coherent:
        def keep(op):
            return not (op[0] == "measure" and _is_aux(op[1])) and not (
                op[0] == "corr" and _reads_aux(op[1]))

        fused, embedded = [], set()
        for op in ops:
            if op[0] == "intro":
                if op[1] not in embedded:
                    embedded.add(op[1])
                    fused.append(op[:2])
            elif keep(op):
                fused.append(op)
        ops = fused
        report_ops = [op for op in report_ops if keep(op)]
        finals = [(c, stage) for c, stage in finals if not _reads_aux(c)]
        order = [q for q in order if not _is_aux(q)]
    return ops, report_ops, finals, order


def _check_memory(d, live, tables):
    """Refuse, before allocating, a run whose two registers (a measurement's
    input and transform) and the `tables` bytes of node-step tables its
    program keeps cannot fit in physical memory.  By VmHWM in a fresh
    process, above its VmRSS before the run, one-way butterfly_swap(13) (6
    qudits live, 74 MiB) peaks at 2.25 registers and coherent
    butterfly_swap(19) (5 live, 38 MiB) at 2.25.  Traced by tracemalloc, the
    d=2 sum node with 19 in-ports peaks at 36.8 MiB coherently and 96.1 MiB
    one-way, against 36.0 and 96.0 MiB counted."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # the platform does not report its physical memory
    need = 2 * 16 * d**live + tables  # complex128 amplitudes
    if need > have:
        raise MemoryError(
            f"the live register peaks at {live} qudits of dimension {d}: "
            f"{need} bytes of working memory, above the {have} bytes of physical memory"
        )


def _resolve_forced(order, forced):
    if forced is None:
        return None
    if isinstance(forced, dict):
        unknown = [label for label in forced if label not in order]
        if unknown:
            raise ValueError(f"forced outcome for {unknown[0]!r}, "
                             "which this path does not measure")
        return dict(forced)
    forced = list(forced)
    if len(forced) != len(order):
        raise ValueError(
            f"expected {len(order)} forced outcomes (one per measured qudit), got {len(forced)}"
        )
    return dict(zip(order, forced))


def _simulated_forced(plan, forced_map):
    """Forced outcomes as the simulation draws them.  A shifted qudit is
    measured without its Z^tau, so forcing r on it forces r - tau, where tau
    reads the forced outcomes of the qudits its Z step names."""
    if forced_map is None:
        return {}
    d = plan.geometry.d
    simulated = dict(forced_map)
    for label, shift in plan.shifts.items():
        if label not in forced_map:
            continue
        tau = 0
        for src, coeff, _use in shift.terms:
            if src not in forced_map:
                raise ValueError(
                    f"the forced outcome of {label} is shifted by the outcome of {src}, "
                    "which is not forced"
                )
            tau += coeff * int(forced_map[src])
        simulated[label] = (int(forced_map[label]) - tau) % d
    return simulated


def oracle_output_state(M: RingMatrix, input_state: QuditState) -> QuditState:
    """The target of every protocol: sum_x psi_x |M x> on the output qudits.

    The basis indices of the nonzero amplitudes become digit rows x, mapped
    to M x by RingMatrix's overflow-safe product mod d; np.add.at adds the
    amplitudes that land on one output in index order, as a loop over the
    inputs would."""
    d = input_state.d
    k = input_state.n
    ell = M.rows
    idx = np.flatnonzero(input_state.psi)
    digits = (idx[:, None] // d ** np.arange(k - 1, -1, -1, dtype=np.int64)) % d
    images = _matmul_mod(digits, M.a.T, d)
    out = np.zeros(d**ell, dtype=np.complex128)
    np.add.at(out, images @ d ** np.arange(ell - 1, -1, -1, dtype=np.int64),
              input_state.psi[idx])
    return QuditState(ell, d, out, normalize_check=False)


def _validate_input(geometry, input_state):
    if input_state.d != geometry.d or input_state.n != len(geometry.inputs):
        raise ValueError(
            f"input state must have {len(geometry.inputs)} qudits of dimension {geometry.d}"
        )


def _run(plan, input_state, seed, forced, embed=None):
    """The single-run driver behind run_mbqc and run_coherent.

    It interprets the plan's step program for the path (see _program) on a
    batch of one row, keeping at each measurement the forced outcome or one
    drawn with the arithmetic of Generator.choice, so a seed keeps its
    outcomes.  The kept child stays a view of the measurement's transform,
    renormalized in place, so a run holds two registers at most.  The
    ledger, the corrections and the messages are then filled from the
    program's rows at the simulated outcomes.  Without `embed` the run is
    the one-way path; with `embed`, the coherent node-step resolver
    (coherent._embed), it is the coherent path.
    """
    geometry = plan.geometry
    d = geometry.d
    coherent = embed is not None
    _validate_input(geometry, input_state)
    prog = _program(plan, embed)
    forced_map = _resolve_forced(prog.forced_order, forced)
    unset = [lab for lab in prog.order if lab not in (forced_map or {})]
    if seed is None and unset:
        raise ValueError(f"the outcome of {unset[0]} is neither forced nor sampled: "
                         "provide a seed for sampling or force it")
    rng = np.random.default_rng(seed) if seed is not None else None
    simulated_forced = _simulated_forced(plan, forced_map)
    _check_memory(d, max(prog.live), prog.table_bytes)

    def choose(label, p):
        if label not in simulated_forced:
            cdf = (p / p.sum()).cumsum()
            cdf /= cdf[-1]
            return int(cdf.searchsorted(rng.random(), side="right"))
        r = int(simulated_forced[label]) % d
        if p[r] < IMPOSSIBLE_TOL:
            raise ImpossibleOutcomeError(f"forced outcome {int(forced_map[label]) % d} on "
                                         f"{label} has probability below {IMPOSSIBLE_TOL}")
        return r

    arr = input_state._tensor().transpose(prog.perm)[None]
    simulated = np.zeros(len(prog.order), dtype=np.int64)
    for step in prog.steps:
        if step[0] == "node":
            arr = step[1](arr)
        elif step[0] == "measure":
            _, label, i = step
            children = np.empty((d,) + arr.shape[2:], dtype=np.complex128)
            p = _fourier_rows(arr, d, children)
            r = simulated[i] = choose(label, p)
            arr = children[r:r + 1]  # the kept child, renormalized in place
            del children  # the transform lives on only as the base of `arr`
            arr /= np.sqrt(p[r])
        else:
            _, op, q, i = step
            arr = _weyl_rows(arr, op, q, np.array([(prog.rows[i] @ simulated) % d]), d)
    values = ((prog.rows @ simulated) % d).tolist()
    for op, q, i in prog.finals:
        if values[i]:
            arr = _weyl_rows(arr, op, q, np.array([values[i]]), d)
    # a copy, so the state does not keep a whole transform alive as its base
    output_state = QuditState(len(geometry.outputs), d, arr[0].copy(), normalize_check=False)

    oracle = oracle_output_state(plan.matrix, input_state)
    report = RunReport(
        path="coherent" if coherent else "mbqc",
        d=d,
        mode=plan.mode,
        seed=seed,
        forced_outcomes=None
        if forced_map is None
        else [[lab, int(forced_map[lab])] for lab in prog.forced_order],
        outcomes=[OutcomeRecord(lab, values[i], values[j], stage, provenance)
                  for lab, i, j, stage, provenance in prog.ledger],
        corrections=[CorrectionRecord(op, lab, values[i], stage)
                     for op, lab, i, stage in prog.corrections],
        messages=[MessageRecord(sender, receiver, text if i is None else f"{text}{values[i]}",
                                over_network=over_network, backward=backward)
                  for sender, receiver, text, i, over_network, backward in prog.messages],
        resource_counts=_tally(geometry).to_dict(),
        requires_out_of_network=plan.requires_out_of_network,
        fidelity_vs_oracle=fidelity(output_state, oracle),
        depends={lab: row for lab, row in geometry.depends.items()
                 if not (coherent and _is_aux(lab))},
    )
    return output_state, report


def run_mbqc(
    geometry: MbqcGeometry,
    input_state: QuditState,
    mode="free",
    seed=None,
    forced=None,
    local_aux=False,
):
    """Execute the one-way procedure; returns (output QuditState, RunReport).

    Outcomes are sampled with `seed` unless `forced` pins them (a dict keyed
    by qudit label, or a sequence in schedule measurement order); a dict
    key the path does not measure raises ValueError.  The output
    state is delivered on the geometry's outputs, in declaration order.
    Raises MemoryError, before allocating, when the live register would not
    fit in physical memory.  The plan is built on the geometry's first run
    in this mode and kept on it (see _plan_for).
    """
    plan = _plan_for(geometry, mode, local_aux)
    output_state, report = _run(plan, input_state, seed, forced)
    report.extra["local_aux"] = local_aux
    return output_state, report


# ----------------------------------------------------------------------
# step programs
# ----------------------------------------------------------------------

@dataclass
class _Program:
    """A plan resolved for one path, interpreted by both the single-run
    driver and the branch walker.  The arrays they step hold branches on
    axis 0 and the live qudits on the other axes in one fixed layout: in
    the order of their measurements, then the outputs in declaration order.
    So a measurement always takes axis 1, a node step inserts its fresh
    qudits at their places, and the last step leaves the outputs in order.
    Every number a run reports is a row of `rows` times the simulated
    outcomes r' mod d.

    steps:  ("node", step), step(array, out=None) -> array the node step
            between the layouts before and after it: one out-port's |+>
            pair and cZ phases on the one-way path, a node's cX embedding on
            the coherent path, written into `out` when given; ("measure",
            label, position in `order`); ("corr", op, axis, row), an
            --local-aux X step with exponent rows[row] . r' mod d
    order:  the simulated measurement order
    forced_order: the path's schedule measurement order, which forced
            outcome sequences follow
    perm:   the axes of the input register in the layout of the first step
    live:   qudits live before each step, then after the last
    rows:   integer rows over r' (see _records); the first len(order) are
            the raw outcomes, r = T r' mod d (see _outcome_map)
    ledger, corrections, messages: the record templates of a report, in
            report order, naming the rows that fill them (see _records)
    finals: per final correction (op, its output's axis, row)
    table_bytes: the bytes of the tables the node steps keep, which the
            memory check counts with the registers
    """

    steps: list
    order: list
    forced_order: list
    perm: list
    live: list
    rows: np.ndarray
    ledger: list
    corrections: list
    messages: list
    finals: list
    table_bytes: int


def _program(plan, embed=None):
    """The step program of a path of `plan`, resolved on the path's first
    run and kept on the plan; `embed` as in _run.  This is the one place
    that decides where a qudit lives: a layout is the tuple of live labels
    in axis order after the branch axis, sorted by measurement rank."""
    prog = plan.programs.get(embed)
    if prog is not None:
        return prog
    geometry = plan.geometry
    d = geometry.d
    coherent = embed is not None
    ops, report_ops, finals, forced_order = _steps(plan, coherent)
    order, T = _outcome_map(plan, ops, report_ops)
    rows, ledger, corrections, messages, row_of = _records(
        plan, order, T, report_ops + [("corr", c, stage) for c, stage in finals], coherent)

    rank = {lab: i for i, lab in enumerate(order + list(geometry.outputs))}
    layout = tuple(sorted(geometry.inputs, key=rank.get))
    perm = [geometry.inputs.index(lab) for lab in layout]
    steps, live, table_bytes = [], [len(layout)], 0
    for op in ops:
        if op[0] == "intro":
            gadget = geometry.gadgets[op[1]]
            fresh = gadget.out_labels if coherent else (gadget.aux_labels[op[2]],
                                                        gadget.out_labels[op[2]])
            after = tuple(sorted(layout + fresh, key=rank.get))
            # the plans of a geometry that reach a node step with the same
            # layouts share the step and its tables
            key = ("node", embed, *op[1:], layout, after)
            if key not in geometry._memo:
                geometry._memo[key] = (embed(gadget, layout, after, d) if coherent
                                       else _intro_step(gadget, op[2], after, d))
            step, nbytes = geometry._memo[key]
            steps.append(("node", step))
            table_bytes += nbytes
            layout = after
        elif op[0] == "measure":
            layout = layout[1:]  # no live qudit is measured before op[1]: it leads
            steps.append(("measure", op[1], order.index(op[1])))
        else:
            steps.append(("corr", op[1].op, 1 + layout.index(op[1].qudit), row_of[op[1]]))
        live.append(len(layout))
    prog = plan.programs[embed] = _Program(
        steps=steps,
        order=order,
        forced_order=forced_order,
        perm=perm,
        live=live,
        rows=rows,
        ledger=ledger,
        corrections=corrections,
        messages=messages,
        finals=[(c.op, 1 + layout.index(c.qudit), row_of[c]) for c, _stage in finals],
        table_bytes=table_bytes,
    )
    return prog


def _records(plan, order, T, report, coherent):
    """The outcome rows of a path and the report templates that read them.

    Every step is Clifford over Z_d, so every number a run reports is a
    fixed linear function mod d of its simulated outcomes r' (signal
    shifting): rows[i] . r' mod d.  The rows are T, the raw outcomes; the
    adjusted outcome of each measured auxiliary, by the cascade adjusted =
    raw - sum coeff * adjusted(upstream); the exponent of each correction
    in `report`; and the value of each sigma-link message, the link's
    dependence row applied to the raw outcomes of the network inputs.

    Returns the rows; the templates, in report order, of the ledger (label,
    raw row, adjusted row, stage, provenance), of the corrections (op,
    qudit, row, stage) and of the messages of the schedule (sender,
    receiver, text, row or None, over_network, backward), the coherent path
    sending no auxiliary outcome; and the row of each Correct.
    """
    geometry = plan.geometry
    d = geometry.d
    rows = list(T)
    zero = np.zeros(len(order), dtype=np.int64)
    raw = {lab: i for i, lab in enumerate(order)}
    adjusted = dict(raw)  # an outcome with no cascade is reported as measured

    def add(terms):
        rows.append(sum((coeff * rows[i] for i, coeff in terms), zero) % d)
        return len(rows) - 1

    for gadget in geometry.gadgets:
        for aux in gadget.aux_labels:
            if aux in raw:  # the coherent path measures no auxiliary
                adjusted[aux] = add([(raw[aux], 1)] + [(adjusted[lab], -coeff)
                                                       for lab, coeff in plan.adjust_terms[aux]])
    ledger, corrections, row_of = [], [], {}
    for kind, item, stage in report:
        if kind == "measure":
            ledger.append((item, raw[item], adjusted[item], stage,
                           plan.adjust_terms.get(item, ())))
        else:
            row_of[item] = add([((raw if use == "raw" else adjusted)[lab], coeff)
                                for lab, coeff, use in item.terms])
            corrections.append((item.op, item.qudit, row_of[item], stage))
    messages = []
    for stage in plan.schedule.stages:
        for step in stage.steps:
            if not isinstance(step, Send):
                continue
            kind, label = step.payload
            if coherent and kind in ("raw", "adjusted") and _is_aux(label):
                continue
            if kind == "raw":
                text, i = f"outcome({label})=", raw[label]
            elif kind == "adjusted":
                text, i = f"adjusted({label})=", adjusted[label]
            elif kind == "sigma-link":
                text = f"sigma-share({label})="
                i = add([(raw[s], int(c)) for s, c in zip(geometry.inputs, geometry.depends[label])])
            else:
                text, i = f"sigma-contribution({label})", None
            messages.append((step.sender, step.receiver, text, i, step.over_network,
                             step.backward))
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), len(order))
    return rows, ledger, corrections, messages, row_of


# ----------------------------------------------------------------------
# branch enumeration
# ----------------------------------------------------------------------

def _outcome_map(plan, ops, report_ops):
    """The simulated measurement order of a path's `ops` and the
    unitriangular map T with r = T r' mod d from its simulated outcomes r'
    to the raw ones r.

    A shifted qudit's raw outcome is its simulated one plus its Z step's
    exponent, which reads raw outcomes reported before it.
    """
    order = [op[1] for op in ops if op[0] == "measure"]
    pos = {lab: i for i, lab in enumerate(order)}
    d = plan.geometry.d
    T = np.eye(len(order), dtype=np.int64)
    for kind, label, _stage in report_ops:
        shift = plan.shifts.get(label) if kind == "measure" else None
        if shift is not None:
            for src, coeff, _use in shift.terms:
                T[pos[label]] = (T[pos[label]] + coeff * T[pos[src]]) % d
    return order, T


def _branches(plan, input_state, embed=None):
    """Walk every measurement branch of a path depth first, in batches.

    A batch holds branches at one program position as the rows of one
    array: axis 0 indexes the branch, the other axes the live qudits in the
    program's layout (see _Program).  Node steps act on the whole batch; a
    measurement transforms axis 1, the measured qudit, of every row and
    writes (row, outcome) row-major into the children, so branches stay in
    lexicographic outcome order; a correction raises each row to its own
    exponent, the dot product of the step's row with that branch's outcome
    vector.  A batch is taken in row ranges of at most _CHUNK_AMPS // d**n
    rows, n the qudits live at the next measurement, the rest staying on
    the stack as a view, so a chunk stays within _CHUNK_AMPS amplitudes and
    each measurement level keeps at most one parent batch alive.  A child
    whose squared norm is below IMPOSSIBLE_TOL of its parent's is dropped.
    The walk interprets the same step program as `_run`, with `embed` as
    there.  It refuses up front a live register of more than _AMP_LIMIT
    amplitudes; a caller that drains the whole tree bounds its branch count
    first (see _survey).

    The steps write into reusable work buffers (see _work): one children
    array per measurement level, and two scratch arrays that a chunk's node
    steps and corrections take in turn.  Depth first, a level's children
    are all consumed before the level measures again, so no buffer is
    written while its contents are still needed.  The walk borrows the
    module's spare set of buffers and gives it back when it ends or is
    closed; a walk that finds none makes its own.

    Yields batches (R, a, nrm2): the simulated outcome vectors r' in
    physical measurement order as the rows of R, the output tensors with
    the final corrections applied, outputs in declaration order, as the rows
    of a, and their squared norms; `a` may be a view of a work buffer, valid
    until the walk moves on.  The raw outcomes are T r' mod d, the
    program's first rows (see _outcome_map).
    """
    _validate_input(plan.geometry, input_state)
    d = plan.geometry.d
    prog = _program(plan, embed)
    _check_peak(d, prog)
    # The program as segments: the node and correction steps up to a
    # measurement, each with the qudits live after it, that measurement
    # (None for the last segment) and the rows of a chunk, whose amplitudes
    # stay within _CHUNK_AMPS at the most qudits the segment keeps live,
    # those live just before its measurement.
    segments, steps = [], []
    for step, before, after in zip(prog.steps, prog.live, prog.live[1:]):
        if step[0] == "measure":
            segments.append((steps, step, max(1, _CHUNK_AMPS // d**before)))
            steps = []
        else:
            steps.append((step, after))
    segments.append((steps, None, max(1, _CHUNK_AMPS // d**prog.live[-1])))

    bufs = _SPARE.pop() if _SPARE else {}
    try:
        outcomes = np.zeros((1, len(prog.order)), dtype=np.int64)
        stack = [(0, input_state._tensor().transpose(prog.perm)[None], outcomes, np.ones(1))]
        while stack:
            s, arr, R, nrm2 = stack.pop()
            steps, measure, rows = segments[s]
            if len(arr) > rows:
                stack.append((s, arr[rows:], R[rows:], nrm2[rows:]))
                arr, R, nrm2 = arr[:rows], R[:rows], nrm2[:rows]
            free = "a"  # the scratch buffer that does not hold `arr`
            for step, live in steps:
                out = _work(bufs, free, (len(arr),) + (d,) * live)
                if step[0] == "node":
                    arr = step[1](arr, out)
                else:
                    arr = _weyl_rows(arr, step[1], step[2], (R @ prog.rows[step[3]]) % d, d, out)
                free = "b" if free == "a" else "a"
            if measure is None:
                for op, q, i in prog.finals:
                    arr = _weyl_rows(arr, op, q, (R @ prog.rows[i]) % d, d,
                                     _work(bufs, free, arr.shape))
                    free = "b" if free == "a" else "a"
                yield R, arr, nrm2
                continue
            i = measure[2]
            children = _work(bufs, s, (len(arr) * d,) + arr.shape[2:])
            child_nrm2 = _fourier_rows(arr, d, children)
            R = np.repeat(R, d, axis=0)
            R[:, i] = np.tile(np.arange(d), len(arr))
            keep = child_nrm2 >= np.repeat(nrm2, d) * IMPOSSIBLE_TOL
            if not keep.all():
                children, R, child_nrm2 = children[keep], R[keep], child_nrm2[keep]
            stack.append((s + 1, children, R, child_nrm2))
    finally:
        if not _SPARE:
            _SPARE.append(bufs)


def _check_peak(d, prog):
    """Refuse a walk whose live register would exceed _AMP_LIMIT amplitudes."""
    peak = max(prog.live)
    if d**peak > _AMP_LIMIT:
        raise MemoryError(
            f"live register would need {d}^{peak} amplitudes, above the enumeration limit"
        )


def _exhaustive(plan, input_state, embed=None):
    """(outcome dict, normalized output QuditState) for every branch.  A
    batch is normalized out of the walk's work buffers in one product and
    each state copied out of that one branch at a time, so every state keeps
    only its own amplitudes."""
    prog = _program(plan, embed)
    d = plan.geometry.d
    n_out = len(plan.geometry.outputs)
    for R, a, nrm2 in _branches(plan, input_state, embed):
        raws = ((R @ prog.rows[:len(prog.order)].T) % d).tolist()
        for raw, amps in zip(raws, a.reshape(len(a), -1) / np.sqrt(nrm2)[:, None]):
            yield dict(zip(prog.order, raw)), QuditState(n_out, d, amps.copy(),
                                                         normalize_check=False)


def exhaustive_mbqc(
    geometry: MbqcGeometry,
    input_state: QuditState,
    mode="free",
    local_aux=False,
):
    """Iterate (outcome dict, output QuditState) over every measurement branch.

    Branches share prefix work and are swept in batches: the walk introduces
    each node's qudits in protocol order and splits every branch of a batch
    into its d collapsed children at each measurement, so memory follows the
    live frontier within a fixed amplitude budget per batch.  Branches come
    in lexicographic order of the simulated outcomes; those whose
    probability underflows the impossible-outcome tolerance are skipped.
    Raises MemoryError up front when the live register would exceed
    _AMP_LIMIT amplitudes.  The walk is lazy, so it takes any tree: the
    caller decides how many branches to draw.
    """
    plan = _plan_for(geometry, mode, local_aux)
    yield from _exhaustive(plan, input_state)


def branch_survey(
    geometry: MbqcGeometry,
    input_state: QuditState,
    mode="free",
    local_aux=False,
    reference: QuditState | None = None,
):
    """Fidelity of every measurement branch against a reference state.

    Walks the same branch tree as exhaustive_mbqc without building a state
    object per branch: a batch takes one product with the conjugate
    reference, which keeps the per-branch cost small enough to sweep
    millions of branches.  Returns (branch_count, min_fidelity);
    `reference` defaults to the oracle image of the input state.  Raises
    MemoryError up front when the live register would exceed _AMP_LIMIT
    amplitudes or the tree _BRANCH_LIMIT branches.
    """
    _validate_input(geometry, input_state)
    return _survey(_plan_for(geometry, mode, local_aux), input_state, reference)


def _survey(plan, input_state, reference=None, embed=None):
    """(branch count, min fidelity) over the whole branch tree of a path,
    `embed` as in _run, behind branch_survey and the CLI's coherent
    --exhaustive.  Raises MemoryError up front, as _branches would, for a
    live register of more than _AMP_LIMIT amplitudes, and for a tree of
    more than _BRANCH_LIMIT branches."""
    d = plan.geometry.d
    prog = _program(plan, embed)
    _check_peak(d, prog)
    if d ** len(prog.order) > _BRANCH_LIMIT:
        raise MemoryError(
            f"the walk would take {d}^{len(prog.order)} branches, above the enumeration limit"
        )
    if reference is None:
        reference = oracle_output_state(plan.matrix, input_state)
    ref = reference.psi.conj()
    count, worst = 0, 1.0
    for _R, a, nrm2 in _branches(plan, input_state, embed):
        fids = np.abs(a.reshape(len(a), -1) @ ref) / np.sqrt(nrm2)
        count += len(a)
        worst = min(worst, float(fids.min()))
    return count, worst


# Amplitudes a chunk of branches may reach before a measurement; the branch
# walker transforms a batch in row ranges of _CHUNK_AMPS // d**live.
_CHUNK_AMPS = 2**15
# The walkers refuse, before stepping, a path whose live register would
# exceed this many amplitudes, and the callers that drain a whole tree
# (branch_survey, the CLI's coherent --exhaustive) a tree of more branches
# (d**measurements; criterion 1 of the acceptance tests walks 2**18).
_AMP_LIMIT = 2**22
_BRANCH_LIMIT = 2**20
# Work arrays of up to _BUF_MAX amplitudes come from a walk's reusable
# buffers.  Freed arrays from 2^13 amplitudes (128 KiB) up glibc hands back
# to the system (unmapped, or trimmed off the heap), so fresh ones fault in
# every page again: 450 minor faults per repeated walk of the d=32 wire
# without buffers, 0 with them.  The bound keeps a buffer set to 2 MiB per
# measurement level.
_BUF_MAX = 2**17
# The spare buffer set, at most one, that a walk borrows and gives back so
# that repeated walks reuse their pages: buffer key (a measurement level or
# a scratch name) -> flat complex128 array.
_SPARE = []


def _work(bufs, key, shape):
    """A complex128 work array of `shape`: a view of the buffer `key` of the
    set `bufs`, grown on demand, when it holds at most _BUF_MAX amplitudes,
    else a fresh array."""
    n = math.prod(shape)
    if n > _BUF_MAX:
        return np.empty(shape, dtype=np.complex128)
    buf = bufs.get(key)
    if buf is None or len(buf) < n:
        buf = bufs[key] = np.empty(n, dtype=np.complex128)
    return buf[:n].reshape(shape)


def _fourier_rows(arr, d, children):
    """Fourier-measure axis 1 of every row of a batch: F^dagger on that
    axis, written into `children` as (row, outcome) row-major with the axis
    dropped.  A short trailing block (d * after <= 64) takes one product
    with F^dagger kron I_after, a long one one product with F^dagger per
    row.  Returns the children's squared norms."""
    rows, after = len(arr), math.prod(arr.shape[2:])
    if d * after <= 64:
        np.matmul(arr.reshape(rows, d * after), _table("fourier", d, after),
                  out=children.reshape(rows, d * after))
    else:
        np.matmul(_table("fourier", d), arr.reshape(rows, d, after),
                  out=children.reshape(rows, d, after))
    flat = children.reshape(len(children), -1).view(np.float64)  # (re, im) pairs
    return np.einsum("ij,ij->i", flat, flat)


def _weyl_rows(arr, op, axis, exps, d, out=None):
    """X^e or Z^e on one axis of a batch, with exponent e = exps[b] in [0, d)
    on row b, written into `out` when given.  X^e moves the axis' slices up
    by e, cyclically: the rows sharing an exponent move together, in two
    slice copies."""
    if op == "X":
        view = arr.reshape(len(arr), -1, d, math.prod(arr.shape[axis + 1:]))
        out = np.empty_like(view) if out is None else out.reshape(view.shape)
        if len(exps) == 1:
            values = [int(exps[0])]
        else:  # bincount, not np.unique, which imports numpy.ma (about 1 MB)
            values = np.bincount(exps, minlength=d).nonzero()[0].tolist()
        for e in values:
            rows = slice(None) if len(values) == 1 else exps == e
            out[rows, :, e:] = view[rows, :, :d - e]
            out[rows, :, :e] = view[rows, :, d - e:]
        return out.reshape(arr.shape)
    shape = [1] * arr.ndim
    shape[0], shape[axis] = len(exps), d
    return np.multiply(arr, _table("phase", d)[exps].reshape(shape), out=out)


def _intro_step(gadget, j, after, d):
    """The one-way step of out-port j of a node into the live layout
    `after` (see _program): adjoin the port's auxiliary and message qudits
    in |+> at their axes in `after` and entangle them, in one multiply by
    its amplitude table.  Returns the step and the table's size in bytes.
    The table is built on the step's first call, so after the run's memory
    check.  Its |+> amplitude 1/d and the (1/sqrt(d))**2 of `_introduce`,
    the labelled-register step, differ in the last bit."""
    axis = {lab: 1 + i for i, lab in enumerate(after)}
    aux, msg = gadget.aux_labels[j], gadget.out_labels[j]
    edges = [(axis[lab], int(w)) for lab, w in zip(gadget.in_labels, gadget.matrix.a[j]) if w]
    edges.append((axis[msg], d - 1))
    table = None

    def step(arr, out=None):
        nonlocal table
        if table is None:
            table = _port_table(axis[aux], edges, 1 + len(after), d) / d
        return np.multiply(np.expand_dims(arr, (axis[aux], axis[msg])), table, out=out)

    return step, 16 * d ** (len(edges) + 1)


def _port_table(aux, edges, ndim, d):
    """w^(x_aux * sum_e w_e x_e) over the axes of an auxiliary and its cZ
    edges (axis, weight), w = exp(2 pi i / d), shaped to broadcast over a
    batch of `ndim` axes: d**(edges + 1) entries."""
    axes = sorted([aux] + [ax for ax, _w in edges])
    grid = dict(zip(axes, np.ix_(*[np.arange(d)] * len(axes))))
    exps = sum(w * grid[ax] for ax, w in edges) % d * grid[aux] % d
    shape = [1] * ndim
    for ax in axes:
        shape[ax] = d
    return _table("phase", d)[1][exps].reshape(shape)
