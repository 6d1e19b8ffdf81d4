"""One-way execution of a compiled geometry.

The procedure is: entangle the input state into the graph state, measure
every non-output qudit in the Fourier basis under a mode-dependent schedule,
and remove the byproducts with classically controlled corrections.

build_schedule makes the one plan both execution paths run; the coherent
path (coherent.py) skips its auxiliary qudits, their measurements, messages
and shift corrections.  The entry points plan once (_plan_for): the plan is
kept on the geometry, and the coherent entry points keep the geometry they
compile on the network (coherent._geometry_of).  On a path's first run the
plan is resolved into one step program (_program), which decides what a
simulated array holds: on the one-way path the live qudits in measurement
order, the outputs last, each measurement taking the leading axis, an
out-port step as the kernel of its auxiliary's measurement (_port_kernel);
on the coherent path the amplitudes over the d^k network inputs
(coherent._embed), then the outputs.  One single-run driver and one branch
walker interpret it for every entry point, on bare arrays with axis 0
indexing branches, each measurement with its path's kernel; a single run
is a batch of one row, and the walker steps into reusable work buffers
(_work).  Every step is Clifford over Z_d, so every number a run reports
is a fixed linear function mod d of its outcomes: the program holds these
as one integer matrix of rows over the simulated outcomes (_records).

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
port's pair is prepared, entangled and its auxiliary measured in one kernel
(an entangling command followed by a measurement composes into one
operator), followed by its --local-aux shift correction.  The node's last
port is followed by the measurements of its inputs.  So one auxiliary pair
is live at a time, and a qudit stays live only while a later step acts on
it.  Fourier measurements on different qudits commute, and a Z^tau
applied right before a Fourier measurement only relabels its outcome
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

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import MbqcGeometry, _tally
from .network import UnsupportedNetworkError
from .report import CorrectionRecord, MessageRecord, OutcomeRecord, RunReport
from .ring import RingMatrix, _matmul_mod, find_block_diagonal_B, left_inverse
from .states import IMPOSSIBLE_TOL, ImpossibleOutcomeError, QuditState, _table, fidelity

__all__ = [
    "Measure",
    "Adjust",
    "Correct",
    "Send",
    "Stage",
    "Schedule",
    "build_schedule",
    "run_mbqc",
    "exhaustive_mbqc",
    "branch_survey",
    "oracle_output_state",
]


# ----------------------------------------------------------------------
# schedule structure
# ----------------------------------------------------------------------

# The step records compare and hash by value, as frozen dataclasses would,
# but are not frozen: a frozen dataclass stores each field through
# object.__setattr__, which made the records about 2.5 times as costly to
# build, and a free plan builds over a hundred.  A planned record must not
# be changed: plans are kept on their geometry (_plan_for), so a changed
# field would alter every later run and the record's hash.

@dataclass(slots=True, unsafe_hash=True)
class Measure:
    qudit: str
    basis: str = "fourier"


@dataclass(slots=True, unsafe_hash=True)
class Adjust:
    """adjusted(qudit) = raw(qudit) - sum coeff * adjusted(upstream) mod d."""

    qudit: str
    terms: tuple  # ((upstream_qudit, coeff), ...)


@dataclass(slots=True, unsafe_hash=True)
class Correct:
    """Apply op^exponent to qudit, exponent = sum coeff * outcome(source)."""

    op: str  # "X" or "Z"
    qudit: str
    terms: tuple  # ((source_qudit, coeff, "raw" | "adjusted"), ...)


@dataclass(slots=True, unsafe_hash=True)
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
        return [step.qudit for stage in self.stages for step in stage.steps
                if isinstance(step, Measure)]


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
    # path (coherent._embed, None for one-way) -> its _Program, resolved on
    # the path's first run
    programs: dict = field(default_factory=dict, repr=False, compare=False)


def _tables(geometry: MbqcGeometry):
    """The mode-independent planning inputs of `geometry`, built on first use
    and kept in its memo, so that its free and constrained plans share them:
    the node tables, M, the qudit ranks, the link labels and the target
    nodes.  build_schedule adds the cascade terms per local_aux and the left
    inverse A when a plan first asks.  All are read-only."""
    tables = geometry._memo.get(("tables",))
    if tables is None:
        producer_node, consumer_node, source_node = {}, {}, {}
        inputs = set(geometry.inputs)
        for gadget in geometry.gadgets:
            for lab in gadget.out_labels:
                producer_node[lab] = gadget.node_id
            for lab in gadget.in_labels:
                (source_node if lab in inputs else consumer_node)[lab] = gadget.node_id
        tables = geometry._memo[("tables",)] = {
            "nodes": (producer_node, consumer_node, source_node),
            "M": composite_of_geometry(geometry),
            # geometry.qudits is in natural label order (label_sort_key)
            "rank": {lab: i for i, (lab, _kind) in enumerate(geometry.qudits)},
            "links": {f"m{i + 1}": i for i in range(geometry.num_links)},
            "targets": list(dict.fromkeys(producer_node[t] for t in geometry.outputs)),
        }
    return tables


def composite_of_geometry(geometry: MbqcGeometry) -> RingMatrix:
    rows = np.asarray([geometry.depends[t] for t in geometry.outputs], dtype=np.int64)
    return RingMatrix(rows.reshape(len(geometry.outputs), len(geometry.inputs)), geometry.d)


def _aux_adjust_terms(geometry: MbqcGeometry, local_aux: bool, link_labels):
    """Cascade coefficients: adjusted = raw - sum(-V[j,k]) * adjusted(producer aux)."""
    terms = {}
    for gadget in geometry.gadgets:
        for aux, row in zip(gadget.aux_labels, gadget.matrix.a.tolist()):
            terms[aux] = () if local_aux else tuple([
                (in_lab + "'", -v % geometry.d)
                for in_lab, v in zip(gadget.in_labels, row)
                if in_lab in link_labels and v
            ])
    return terms


def build_schedule(geometry: MbqcGeometry, mode, local_aux=False):
    """The logical schedule plus the executable plan for one geometry/mode.

    The step records in both are read-only by contract (they hash by value
    but are not frozen): the entry points keep the plan they run on the
    geometry, so a record changed by a caller would change every later run.
    Each call builds a new plan with new records; its matrix and adjust
    terms are the geometry's kept tables (_tables), read-only as well.
    """
    if mode not in ("free", "constrained"):
        raise ValueError(f"unknown mode {mode!r}")
    if local_aux and mode == "free":
        raise ValueError("local auxiliary corrections only exist in constrained mode")
    d = geometry.d
    tables = _tables(geometry)
    producer_node, consumer_node, source_node = tables["nodes"]
    M, rank, link_of_message, target_nodes = (
        tables[key] for key in ("M", "rank", "links", "targets"))

    # A constrained plan looks for the block-diagonal B first: Mᵀ B M = 1
    # already proves M injective, and the left inverse A is read only by
    # free mode and by the out-of-network fallback when no B exists; it is
    # computed at most once per geometry, whichever mode asks first
    block_B = A = None
    if mode == "constrained":
        by_node = {}
        for h, t in enumerate(geometry.outputs):
            by_node.setdefault(producer_node[t], []).append(h)
        block_B = find_block_diagonal_B(M, [by_node[nid] for nid in target_nodes])
    if block_B is None:
        if "A" not in tables:
            tables["A"] = left_inverse(M)
        A = tables["A"]
        if A is None:
            raise UnsupportedNetworkError(
                f"composite map is not injective over Z_{d}; "
                "neither the coherent nor the one-way protocol is defined"
            )

    key = ("adjust", bool(local_aux))
    if key not in tables:
        tables[key] = _aux_adjust_terms(geometry, local_aux, link_of_message)
    adjust_terms = tables[key]

    stages = []
    report_order = []
    shifts = {}
    node_corrections = {}  # gadget index -> its --local-aux X steps
    final_corrections = []
    requires_oon = False

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
            Send(sender, receiver, payload, over_network=False)
            for sender, payload in [(owner[q], ("raw", q)) for q in measured]
            for receiver in receivers
        ]
        stages.append(Stage("send", sends))

        corrections = []
        us = geometry.message_like_labels()
        # kappa_u = A^T lambda_u; row h of `kappa` holds entry h of every kappa_u
        lam = np.asarray([geometry.depends[u] for u in us], dtype=np.int64)
        kappa = _matmul_mod(lam.reshape(len(us), M.cols), A.a, d).T.tolist()
        for h, t in enumerate(geometry.outputs):
            corrections.append(Correct("X", t, ((t + "'", 1, "adjusted"),)))
            zterms = tuple([(u, c, "raw") for u, c in zip(us, kappa[h]) if c])
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
            name = f"z-correct {nid}"
            zsteps = []
            for in_lab, col in zip(gadget.in_labels, gadget.matrix.a.T.tolist()):
                terms = tuple([
                    (out, v, "raw")
                    for out, v in zip(gadget.out_labels, col)
                    if out in link_of_message and v
                ])
                if terms:
                    corr = Correct("Z", in_lab, terms)
                    zsteps.append(corr)
                    shifts[in_lab] = corr
                    report_order.append(("corr", corr, name))
            if zsteps:
                stages.append(Stage(name, zsteps))
            link_ins = sorted(
                [lab for lab in gadget.in_labels if lab in link_of_message],
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

        if block_B is not None:
            C = _matmul_mod(block_B.a.T, M.a, d).tolist()
            sends = [
                Send(producer_node[lab], consumer_node[lab], ("sigma-link", lab),
                     over_network=True)
                for lab in link_of_message
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
            terms = tuple([(s, c, "raw") for s, c in zip(geometry.inputs, C[h]) if c])
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

def _is_aux(label):
    return label.endswith("'")


def _reads_aux(correct: Correct):
    return any(_is_aux(lab) for lab, _c, _use in correct.terms)


def _steps(plan, coherent):
    """The simulated ops, report order, final corrections and forced-outcome
    order of a path.  The coherent path drops the auxiliary measurements,
    the corrections that read them and the node steps, which change no
    amplitude of its input-basis register (see coherent.py).  One-way, each
    port step and its auxiliary's measurement are one op ("measure", aux,
    stage, gadget index, out-port) at the port step's place: nothing acts
    on the auxiliary in between, and Fourier measurements of distinct
    qudits commute, so a plan shuffled within a stage runs as built.
    """
    ops, report_ops, finals = plan.physical, plan.report_order, plan.final_corrections
    order = plan.schedule.measurement_order()
    if not coherent:
        gadgets, stage = plan.geometry.gadgets, {op[1]: op[2] for op in ops if op[0] == "measure"}
        port = {op: gadgets[op[1]].aux_labels[op[2]] for op in ops if op[0] == "intro"}
        ops = [("measure", port[op], stage[port[op]], *op[1:]) if op in port else op
               for op in ops if not (op[0] == "measure" and _is_aux(op[1]))]
    else:
        def keep(op):
            return (op[0] == "measure" and not _is_aux(op[1])
                    or op[0] == "corr" and not _reads_aux(op[1]))

        ops = [op for op in ops if keep(op)]
        report_ops = [op for op in report_ops if keep(op)]
        finals = [(c, stage) for c, stage in finals if not _reads_aux(c)]
        order = [q for q in order if not _is_aux(q)]
    return ops, report_ops, finals, order


def _check_memory(d, live, tables):
    """Refuse, before allocating, a run whose two arrays of `live` axes
    (_Program.peak) and `tables` bytes cannot fit in physical memory.  By
    VmHWM, one-way butterfly_swap(13) peaks at 1.18 registers; by
    tracemalloc, the d=2 sum node with 19 in-ports at 88.8 MiB one-way
    (96.1 counted), an identity node on 16 inputs at 4.1 MiB coherently
    (4.5 counted)."""
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

    It interprets the path's step program (_program) on a batch of one row,
    keeping at each measurement the forced outcome or one drawn with the
    arithmetic of Generator.choice, so a seed keeps its outcomes.  The kept
    child stays a view of the measurement's transform, renormalized in
    place, so a run holds two of its largest arrays at most.  The ledger,
    the corrections and the messages are filled from the program's rows.
    Without `embed` the run is the one-way path; with `embed`, the coherent
    step resolver (coherent._embed), the coherent path.
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
    _check_memory(d, prog.peak, prog.table_bytes)

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
    for step, live in zip(prog.steps, prog.live[1:]):
        if step[0] == "node":
            arr = step[1](arr)
        elif step[0] == "measure":
            _, label, i, kernel = step
            children = np.empty((d,) + (d,) * live, dtype=np.complex128)
            p = kernel(arr, d, children)
            r = simulated[i] = choose(label, p)
            arr = children[r:r + 1]  # the kept child, renormalized in place
            del children  # the transform lives on only as the base of `arr`
            arr /= np.sqrt(p[r])
        else:
            _, op, q, i = step
            e = (prog.rows[i] @ simulated) % d
            if e:
                arr = _weyl_rows(arr, op, q, np.array([e]), d)
    values = ((prog.rows @ simulated) % d).tolist()
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
    """A plan resolved for one path, interpreted by the single-run driver
    and the branch walker.  Their arrays hold branches on axis 0 and the
    register on the others: one-way, the live qudits in measurement order,
    then the outputs in declaration order, so a measurement takes axis 1;
    coherently, one axis per network input until the last step scatters
    into the outputs (coherent.py).  Every reported number is a row of
    `rows` times the simulated outcomes r' mod d.

    steps:  ("node", step), step(array, out=None) -> array, into `out` when
            given: the coherent scatter; ("measure", label, position in
            `order`, kernel), where kernel(array, d, children) writes each
            row's d children (row, outcome) row-major and returns their
            squared norms (a one-way auxiliary's also makes its port step,
            _port_kernel); ("corr", op, axis, row), an --local-aux X step
            or a final correction, with exponent rows[row] . r' (the
            walker fuses runs of them)
    order:  the simulated measurement order
    forced_order: the schedule measurement order forced sequences follow
    perm:   the axes of the input register in the layout of the first step
    live:   register axes before each step, then after the last
    peak:   the most axes an array holds, a row's d children as one more
    rows:   integer rows over r' (see _records); the first len(order) are
            the raw outcomes, r = T r' mod d (see _outcome_map)
    ledger, corrections, messages: the record templates of a report, in
            report order, naming the rows that fill them (see _records)
    table_bytes: the bytes of the tables the steps keep or read"""

    steps: list
    order: list
    forced_order: list
    perm: list
    live: list
    peak: int
    rows: np.ndarray
    ledger: list
    corrections: list
    messages: list
    table_bytes: int


def _program(plan, embed=None):
    """The step program of a path of `plan`, resolved on the path's first
    run and kept on the plan; `embed` as in _run.  A one-way layout is the
    tuple of live labels in axis order, sorted by measurement rank; a port
    step is one kernel, with no node step (_port_kernel)."""
    prog = plan.programs.get(embed)
    if prog is not None:
        return prog
    geometry = plan.geometry
    d = geometry.d
    ops, report_ops, finals, forced_order = _steps(plan, embed is not None)
    order, T = _outcome_map(plan, ops, report_ops)
    rows, ledger, corrections, messages, row_of = _records(
        plan, order, T, report_ops + [("corr", c, stage) for c, stage in finals])

    # the tables of states._TABLES that the steps read: the phase table (cZ,
    # Z and the coherent measurement kernels), and one-way the Fourier
    # table of each kron width that _fourier_rows takes, F^dagger alone
    # for the port kernels
    shared = 16 * d * d
    if embed is not None:
        perm, steps, live, table_bytes, rows = embed(
            geometry, order, rows, [(c.qudit, row_of[c]) for c, _stage in finals])
    else:
        rank = {lab: i for i, lab in enumerate(order + list(geometry.outputs))}
        layout = tuple(sorted(geometry.inputs, key=rank.get))
        perm = [geometry.inputs.index(lab) for lab in layout]
        steps, live, table_bytes, widths = [], [len(layout)], 0, set()
        for op in ops + [("corr", c, stage) for c, stage in finals]:
            if op[0] == "measure" and len(op) > 3:  # a port step (see _steps)
                gadget = geometry.gadgets[op[3]]
                after = tuple(sorted(layout + (op[1], gadget.out_labels[op[4]]), key=rank.get))
                # the plans of a geometry that reach a port step with the
                # same layouts share its kernel and table
                key = ("port", *op[3:], layout, after)
                if key not in geometry._memo:
                    geometry._memo[key] = _port_kernel(gadget, op[4], after, d)
                kernel, nbytes = geometry._memo[key]
                steps.append(("measure", op[1], order.index(op[1]), kernel))
                table_bytes += nbytes
                widths.add(1)  # its table is built from F^dagger
                layout = after[1:]  # the auxiliary leads: it is measured next
            elif op[0] == "measure":
                layout = layout[1:]  # no live qudit is measured before op[1]: it leads
                steps.append(("measure", op[1], order.index(op[1]), _fourier_rows))
                after = d**len(layout)
                widths.add(after if d * after <= _KRON_AMPS else 1)
            else:
                steps.append(("corr", op[1].op, 1 + layout.index(op[1].qudit), row_of[op[1]]))
            live.append(len(layout))
        shared += sum(16 * (d * w)**2 for w in widths)
    prog = plan.programs[embed] = _Program(
        steps=steps,
        order=order,
        forced_order=forced_order,
        perm=perm,
        live=live,
        peak=max(live + [n + 1 for step, n in zip(steps, live[1:]) if step[0] == "measure"]),
        rows=rows,
        ledger=ledger,
        corrections=corrections,
        messages=messages,
        table_bytes=table_bytes + shared,
    )
    return prog


def _records(plan, order, T, report):
    """The outcome rows of a path and the report templates that read them.

    Every number a run reports is rows[i] . r' mod d for its simulated
    outcomes r' (signal shifting).  The rows are T, the raw outcomes; the
    adjusted outcome of each measured auxiliary, adjusted = raw - sum coeff
    * adjusted(upstream); the exponent of each correction in `report`; and
    each sigma-link message, the link's dependence row applied to the raw
    outcomes of the network inputs.  Returns the rows; the templates, in
    report order, of the ledger (label, raw row, adjusted row, stage,
    provenance), the corrections (op, qudit, row, stage) and the messages
    (sender, receiver, text, row or None, over_network, backward), but for
    outcomes the path does not measure; and the row of each Correct.
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
            if kind in ("raw", "adjusted") and label not in raw:
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
    to the raw ones r: a shifted qudit's raw outcome is its simulated one
    plus its Z step's exponent, which reads raw outcomes reported before it.
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
    array (see _Program), and the walk interprets the program of `_run`,
    `embed` as there.  The coherent scatter acts on the whole batch; a
    measurement's kernel, one-way an auxiliary's with its port step, writes
    the d children of every row (row, outcome) row-major, so branches stay
    in lexicographic outcome order, and a child whose squared norm is below
    IMPOSSIBLE_TOL of its parent's is dropped; a correction raises each row
    to its own exponent, the dot product of the step's row with that
    branch's outcome vector.  A batch is taken in row ranges of
    at most _CHUNK_AMPS // d**n rows, d**n the amplitudes of a row's
    children at the next measurement, the rest staying on the stack as a
    view.  Callers check the register first (_check_peak), and one that
    drains the tree its branch count too (_survey).

    A run of corrections that holds an X is one step (_fuse): as Weyl
    operators compose exactly mod d, it is out[x] = w^(g.x - c) in[x - s]
    per row, s and g its X and Z exponents summed per axis and c = sum_k f_k
    L_k over its Z steps k, f_k the exponent and L_k the X exponents applied
    later on k's axis (X^e turns w^(f x) into w^(f x - f e)).  Runs of Z
    alone (the coherent path's), runs over the table bound (_weyl_run) and
    single runs (_run), one row, go step by step (_weyl_rows).

    The steps write into reusable work buffers (_work): one children array
    per measurement level, two scratch arrays that a chunk's scatter and
    corrections take in turn, and a fused run's index and phase scratch.
    Depth first, a level's children are all consumed before the level
    measures again, so no buffer is written while still needed.  The walk
    borrows the module's spare buffer set and gives it back when it ends or
    is closed; a walk that finds none makes its own.

    Yields batches (R, a, nrm2): the simulated outcome vectors r' as the
    rows of R (raw outcomes T r' mod d, the program's first rows), the
    corrected output tensors, outputs in declaration order, as the rows of
    a, and their squared norms; `a` may be a view of a work buffer, valid
    until the walk moves on.
    """
    _validate_input(plan.geometry, input_state)
    d = plan.geometry.d
    prog = _program(plan, embed)
    # The program as segments: the node and correction steps up to a
    # measurement, each with the axes live after it, that measurement (None
    # last) with the axes of a child, and the rows of a chunk.
    segments, steps = [], []
    for step, after in _fuse(zip(prog.steps, prog.live[1:]), prog, plan.geometry):
        if step[0] == "measure":
            segments.append((steps, step, after, max(1, _CHUNK_AMPS // d**(after + 1))))
            steps = []
        else:
            steps.append((step, after))
    segments.append((steps, None, None, max(1, _CHUNK_AMPS // d**prog.live[-1])))

    bufs = _SPARE.pop() if _SPARE else {}
    try:
        outcomes = np.zeros((1, len(prog.order)), dtype=np.int64)
        stack = [(0, input_state._tensor().transpose(prog.perm)[None], outcomes, np.ones(1))]
        while stack:
            s, arr, R, nrm2 = stack.pop()
            steps, measure, child, rows = segments[s]
            if len(arr) > rows:
                stack.append((s, arr[rows:], R[rows:], nrm2[rows:]))
                arr, R, nrm2 = arr[:rows], R[:rows], nrm2[:rows]
            free = "a"  # the scratch buffer that does not hold `arr`
            for step, live in steps:
                out = _work(bufs, free, (len(arr),) + (d,) * live)
                if step[0] == "node":
                    arr = step[1](arr, out)
                elif step[0] == "weyl":
                    arr = step[1](arr, (R @ step[2]) % d, out, bufs)
                else:
                    arr = _weyl_rows(arr, step[1], step[2], (R @ prog.rows[step[3]]) % d, d, out)
                free = "b" if free == "a" else "a"
            if measure is None:
                yield R, arr, nrm2
                continue
            _, _label, i, kernel = measure
            children = _work(bufs, s, (len(arr) * d,) + (d,) * child)
            child_nrm2 = kernel(arr, d, children)
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
    if d**prog.peak > _AMP_LIMIT:
        raise MemoryError(
            f"live register would need {d}^{prog.peak} amplitudes, above the enumeration limit"
        )


def _exhaustive(plan, input_state, embed=None):
    """(outcome dict, normalized output QuditState) for every branch, each
    state one fresh array scaled out of the walk's work buffers."""
    prog = _program(plan, embed)
    d, n_out = plan.geometry.d, len(plan.geometry.outputs)
    _check_peak(d, prog)
    for R, a, nrm2 in _branches(plan, input_state, embed):
        raws = ((R @ prog.rows[:len(prog.order)].T) % d).tolist()
        scales = (1 / np.sqrt(nrm2)).astype(np.complex128)  # complex: no cast per branch
        for raw, amps, scale in zip(raws, a.reshape(len(a), -1), scales):
            yield dict(zip(prog.order, raw)), QuditState._of(n_out, d, np.multiply(amps, scale))


def exhaustive_mbqc(
    geometry: MbqcGeometry,
    input_state: QuditState,
    mode="free",
    local_aux=False,
):
    """Iterate (outcome dict, output QuditState) over every measurement branch.

    Branches share prefix work and are swept in batches, each split into
    its d collapsed children at each measurement, within a fixed amplitude
    budget per batch.  They come in lexicographic order of the simulated
    outcomes; those whose probability underflows the impossible-outcome
    tolerance are skipped.  Raises MemoryError up front when the live
    register would exceed _AMP_LIMIT amplitudes.  The walk is lazy: the
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

    Walks the tree of exhaustive_mbqc without a state object per branch: a
    batch takes one product with the conjugate reference.  Returns
    (branch_count, min_fidelity); `reference` (ValueError if not on the
    outputs' register) defaults to the oracle image of the input state.
    Raises MemoryError up front when the live register would exceed
    _AMP_LIMIT amplitudes or the tree _BRANCH_LIMIT branches.
    """
    _validate_input(geometry, input_state)
    outputs = len(geometry.outputs)
    if reference is not None and (reference.n, reference.d) != (outputs, geometry.d):
        raise ValueError(f"reference state must have {outputs} qudits of dimension {geometry.d}")
    return _survey(_plan_for(geometry, mode, local_aux), input_state, reference)


def _survey(plan, input_state, reference=None, embed=None):
    """(branch count, min fidelity) of a path's whole tree, `embed` as in
    _run, for branch_survey and --exhaustive; raises as branch_survey does."""
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
# (branch_survey, the CLI's --exhaustive) a tree of more branches
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
# A Fourier measurement whose trailing block, d * after amplitudes, is at
# most this takes one product with the table F^dagger kron I_after
# (_fourier_rows); a longer one one product with F^dagger per row.
_KRON_AMPS = 64
# The spare buffer set, at most one, that a walk borrows and gives back so
# that repeated walks reuse their pages: buffer key (a measurement level or
# a scratch name) -> flat complex128 array.
_SPARE = []


def _work(bufs, key, shape, dtype=np.complex128):
    """A work array: a view of the buffer `key` (grown on demand, one dtype
    a key) of the set `bufs` up to _BUF_MAX entries, else a fresh array."""
    n = math.prod(shape)
    if n > _BUF_MAX:
        return np.empty(shape, dtype=dtype)
    buf = bufs.get(key)
    if buf is None or len(buf) < n:
        buf = bufs[key] = np.empty(n, dtype=dtype)
    return buf[:n].reshape(shape)


def _fourier_rows(arr, d, children):
    """Fourier-measure axis 1 of every row of a batch: F^dagger on that
    axis, written into `children` as (row, outcome) row-major with the axis
    dropped.  A short trailing block (d * after <= _KRON_AMPS) takes one
    product with F^dagger kron I_after, a long one one product with
    F^dagger per row.  Returns the children's squared norms."""
    rows, after = len(arr), math.prod(arr.shape[2:])
    if d * after <= _KRON_AMPS:
        np.matmul(arr.reshape(rows, d * after), _table("fourier", d, after),
                  out=children.reshape(rows, d * after))
    else:
        np.matmul(_table("fourier", d), arr.reshape(rows, d, after),
                  out=children.reshape(rows, d, after))
    return _sq_norms(children)


def _sq_norms(children):
    """The squared norm of each row of `children`."""
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


def _fuse(steps, prog, geometry):
    """The walker's (step, axes after it) with each run of corrections that
    holds an X as one ("weyl", _weyl_run step kept on the geometry, rows)."""
    for corr, group in itertools.groupby(steps, lambda item: item[0][0] == "corr"):
        group = list(group)
        run, live = tuple(step[1:3] for step, _live in group), group[0][1]
        key = ("weyl", run, live)
        step = corr and (geometry._memo.get(key) or _weyl_run(run, live, geometry.d))
        if step:
            geometry._memo[key] = step
            group = [(("weyl", step, prog.rows[[item[0][3] for item in group]].T), live)]
        yield from group


def _weyl_run(run, live, d):
    """The fused step of a run of steps (op, axis) on `live` axes (see
    _branches), or None without an X or with a table over _BUF_MAX entries:
    step(arr, exps, out, bufs), exps[b, k] the exponent of step k on row b,
    gathers through source indices per shift code (d^#X-axes x d^live) and
    multiplies by phases per (Z code, c) (d^(#Z-axes + 1) x d^live)."""
    xs, zs = (sorted({a for op, a in run if op == kind}) for kind in "XZ")
    n, m = d**live, len(xs)
    if not xs or n * d**max(m, len(zs) + 1) > _BUF_MAX:
        return None
    # exps @ W: s and g per axis, then per step k L_k if it is a Z, else 0
    cols = [("X", a) for a in xs] + [("Z", a) for a in zs]
    W = np.array([[(op, a) == col for col in cols] + [op == "Z" and j > k and step == ("X", a)
                  for j, step in enumerate(run)] for k, (op, a) in enumerate(run)], dtype=np.int64)
    weights = d ** np.r_[np.arange(m)[::-1], np.arange(1, len(zs) + 1)[::-1]]
    grid = np.ix_(*[np.arange(d)] * (m + live))  # s, then y on each axis
    sources = sum((grid[m + a - 1] - dict(zip(xs, grid)).get(a, 0)) % d * d**(live - a)
                  for a in range(1, live + 1)).reshape(d**m, n)
    grid = np.ix_(*[np.arange(d)] * (len(zs) + 1 + live))  # g, c, then y on each axis
    e = (sum(g * grid[len(zs) + a] for g, a in zip(grid, zs)) - grid[len(zs)]) % d
    phases = zs and _table("phase", d)[1][np.broadcast_to(e, (d,) * len(grid))].reshape(-1, n)

    def step(arr, exps, out, bufs):
        rows, v = len(arr), exps @ W
        s = v[:, :len(cols)] % d
        index = _work(bufs, "index", (rows, n), np.int64)
        np.take(sources, s[:, :m] @ weights[:m], axis=0, out=index, mode="clip")
        index += np.arange(0, rows * n, n)[:, None]
        np.take(arr.reshape(-1), index, out=out.reshape(rows, n), mode="clip")
        if zs:
            codes = s[:, m:] @ weights[m:] + (v[:, len(cols):] * exps).sum(1) % d
            phase = _work(bufs, "phase", (rows, n))
            np.take(phases, codes, axis=0, out=phase, mode="clip")
            out *= phase.reshape(out.shape)
        return out

    return step


def _port_kernel(gadget, j, after, d):
    """The one-way step of out-port j of a node, fused into the measurement
    kernel of its auxiliary (see _program), into the live layout `after`,
    the auxiliary leading: the port's pair in |+>, its cZ phases w^(x_aux s)
    / d, s = sum_e w_e x_e over the port's edges, and F^dagger on the
    auxiliary compose into child (row, r) = row * H[r, s], H = F^dagger
    Phase / d, one broadcast multiply that teleports V[j].x - r into the
    message qudit.  Returns the kernel and its table's size in bytes; the
    table is built on the first call, so after the run's memory check."""
    axis = {lab: 1 + i for i, lab in enumerate(after)}
    msg = gadget.out_labels[j]
    edges = [(axis[lab], int(w)) for lab, w in zip(gadget.in_labels, gadget.matrix.a[j]) if w]
    edges.append((axis[msg], d - 1))
    table = None

    def kernel(arr, d, children):
        nonlocal table
        if table is None:
            H = _table("fourier", d) @ _table("phase", d) / d
            table = _port_table(1, edges, 1 + len(after), d, H)
        np.multiply(np.expand_dims(arr, (1, axis[msg])), table,
                    out=children.reshape((len(arr),) + (d,) * len(after)))
        return _sq_norms(children)

    return kernel, 16 * d ** (len(edges) + 1)


def _port_table(aux, edges, ndim, d, matrix=None):
    """matrix[x_aux, sum_e w_e x_e mod d] over the axes of an auxiliary and
    its cZ edges (axis, weight), shaped to broadcast over a batch of `ndim`
    axes: d**(edges + 1) entries.  The default matrix, the phase table,
    gives the cZ phases w^(x_aux * sum_e w_e x_e), w = exp(2 pi i / d)."""
    def x(axis):  # the values of one axis, shaped to broadcast
        return np.arange(d).reshape([d if a == axis else 1 for a in range(ndim)])

    s = sum(w * x(ax) for ax, w in edges) % d
    return (_table("phase", d) if matrix is None else matrix)[x(aux), s]
