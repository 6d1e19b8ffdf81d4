"""One-way execution of a compiled geometry.

The procedure is: entangle the input state into the graph state, measure
every non-output qudit in the Fourier basis under a mode-dependent schedule,
and remove the byproducts with classically controlled corrections.

build_schedule makes the one plan both execution paths run; the coherent
path (coherent.py) skips its auxiliary qudits, their measurements, messages
and shift corrections.  The entry points plan once (_plan_for): the plan is
kept on the geometry, and the coherent entry points keep the geometry they
compile on the network (coherent._geometry_of).  On a path's first run the
plan is resolved into one step program (_program).  Both paths hold one
register, the amplitudes c(x) over the d^k network inputs, then the outputs
(_resolve): every live qudit holds its `depends` form of the inputs plus an
offset over the outcomes, so the register is sum_x c(x) |live values>.  One
single-run driver and one branch walker interpret the program for every
entry point, on bare arrays with axis 0 indexing branches; a single run is
a batch of one row, and the walker steps into reusable work buffers
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
port's pair is prepared, entangled and its auxiliary measured in one step,
followed by its --local-aux shift correction.  That step is the
teleportation identity: with the auxiliary's outcome r it leaves the
message qudit holding V[j] . x_in - r and scales every amplitude by
1/sqrt(d), so on the input-basis register it is a classical offset and one
scale.  The node's last port is followed by the measurements of its inputs.
Fourier measurements on different qudits commute, and a Z^tau
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

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import MbqcGeometry, _tally
from .network import UnsupportedNetworkError
from .report import CorrectionRecord, MessageRecord, OutcomeRecord, RunReport
from .ring import RingMatrix, _matmul_mod, find_block_diagonal_B, left_inverse
from .states import IMPOSSIBLE_TOL, ImpossibleOutcomeError, QuditState, _phase_table, fidelity

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
    # coherent (a bool) -> the path's _Program, resolved on its first run
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
    VmHWM, a one-way run of an identity node on 5 inputs over Z_13 peaks at
    1.24 registers of 13^6 amplitudes; by tracemalloc, an identity node on
    16 inputs at d=2 at 4.0 MiB on either path (4.5 counted)."""
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


def _run(plan, input_state, seed, forced, coherent=False):
    """The single-run driver behind run_mbqc and run_coherent.

    It interprets the path's step program (_program) on a batch of one row,
    keeping at each measurement the forced outcome or one drawn with the
    arithmetic of Generator.choice, so a seed keeps its outcomes.  The kept
    child is renormalized into a fresh row and its measurement's children
    are freed, so a run holds a row and its d children at most, or the
    output register and one copy of it.  The ledger, the corrections and
    the messages are filled from the program's rows.
    """
    geometry = plan.geometry
    d = geometry.d
    _validate_input(geometry, input_state)
    prog = _program(plan, coherent)
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

    arr = input_state._tensor()[None]
    simulated = np.zeros(len(prog.order), dtype=np.int64)
    for step, live in zip(prog.steps, prog.live[1:]):
        if step[0] == "node":
            arr = step[1](arr)
        elif step[0] == "measure":
            _, label, i, kernel = step
            children = np.empty((d,) + (d,) * live, dtype=np.complex128)
            p = kernel(arr, d, children)
            r = simulated[i] = choose(label, p)
            arr = children[r:r + 1] / np.sqrt(p[r])
            del children  # freed before the next measurement allocates its own
        else:
            _, op, q, i = step
            e = (prog.rows[i] @ simulated) % d
            if e:
                arr = _weyl_rows(arr, op, q, np.array([e]), d)
    if prog.quad is not None:  # arr is the scatter's or an X step's own array
        _quad_phases(arr, simulated[None], prog.quad, d)
    values = ((prog.rows @ simulated) % d).tolist()
    output_state = QuditState(len(geometry.outputs), d, arr.reshape(-1), normalize_check=False)

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
    register on the others: one axis per network input, in declaration
    order, until the scatter puts each row on one axis per output (see
    _resolve).  Every reported number is a row of `rows` times the
    simulated outcomes r' mod d.

    steps:  ("measure", label, position in `order`, kernel), where
            kernel(array, d, children) writes each row's d children (row,
            outcome) row-major and returns their squared norms
            (_phase_rows); ("corr", op, axis, row), op^e on an axis with
            exponent e = rows[row] . r': Z on an input axis before the
            scatter, X on an output axis after it; ("node", step), the
            scatter, step(array, out=None) -> array, into `out` when given
    order:  the simulated measurement order
    forced_order: the schedule measurement order forced sequences follow
    live:   register axes before each step, then after the last
    peak:   the most axes an array holds, a row's d children as one more
    rows:   integer rows over r' (see _records); the first len(order) are
            the raw outcomes, r = T r' mod d (see _outcome_map)
    quad:   the integer form Q of the branch phase w^(r' . Q r'), applied
            after the last step, or None when it is zero mod d
    ledger, corrections, messages: the record templates of a report, in
            report order, naming the rows that fill them (see _records)
    table_bytes: the bytes of the tables the steps keep or read"""

    steps: list
    order: list
    forced_order: list
    live: list
    peak: int
    rows: np.ndarray
    quad: np.ndarray | None
    ledger: list
    corrections: list
    messages: list
    table_bytes: int


def _program(plan, coherent=False):
    """The step program of a path of `plan`, resolved on the path's first
    run and kept on the plan."""
    prog = plan.programs.get(coherent)
    if prog is not None:
        return prog
    ops, report_ops, finals, forced_order = _steps(plan, coherent)
    finals = [("corr", c, stage) for c, stage in finals]
    order, T = _outcome_map(plan, ops, report_ops)
    rows, ledger, corrections, messages, row_of = _records(plan, order, T, report_ops + finals)
    steps, live, rows, quad, table_bytes = _resolve(plan.geometry, ops + finals, rows, row_of)
    prog = plan.programs[coherent] = _Program(
        steps=steps,
        order=order,
        forced_order=forced_order,
        live=live,
        peak=max(live + [n + 1 for step, n in zip(steps, live[1:]) if step[0] == "measure"]),
        rows=rows,
        quad=quad,
        ledger=ledger,
        corrections=corrections,
        messages=messages,
        table_bytes=table_bytes,
    )
    return prog


def _resolve(geometry, ops, rows, row_of):
    """The input-basis steps of a path's ops (_steps, then the final
    corrections): (steps, live, rows, quad, table bytes) for _Program.

    Every live qudit q holds f_q(x) + o_q . r', f_q its `depends` form of
    the inputs x and o_q an offset row over the simulated outcomes r', zero
    for the inputs and on the coherent path.  No amplitudes merge: later
    steps read only live qudits, and M is injective.  So a row keeps c(x),
    and the ops act on it as follows:
    - a port step with its auxiliary's measurement scales it by 1/sqrt(d)
      (the zero form's kernel) and sets the message's offset to V[j] . (the
      in-ports' offsets) - e_aux, the teleportation identity;
    - measuring q with outcome r'_i multiplies c by w^(-r'_i f_q(x)) /
      sqrt(d) (_phase_rows) and the branch by w^(-r'_i (o_q . r'));
    - X^e on q adds e's row to o_q, with no step;
    - Z^e on q multiplies c by w^((e . r') f_q(x)), as Z steps on the input
      axes f_q reads, and the branch by w^((e . r') (o_q . r')).
    The branch phases add up to one integer quadratic form Q over r'.  The
    last steps scatter c to the outputs at the flat index of M x (_scatter)
    and shift each output whose offset is not zero, which only a plan with
    missing corrections leaves."""
    d, k, n = geometry.d, len(geometry.inputs), rows.shape[1]
    zero = np.zeros(n, dtype=np.int64)
    offset, quad, z = {}, np.zeros((n, n), dtype=np.int64), np.zeros((k, n), dtype=np.int64)
    kernels, steps, table_bytes, i = {}, [], 16 * d * d + 8 * d**k, 0  # phase table, scatter
    for op in ops:
        if op[0] == "corr":
            corr, e = op[1], rows[row_of[op[1]]]
            o = offset.get(corr.qudit, zero)
            if corr.op == "X":
                offset[corr.qudit] = (o + e) % d
            else:
                z = (z + np.outer(geometry.depends[corr.qudit], e)) % d
                quad = (quad + np.outer(e, o)) % d
            continue
        if len(op) > 3:  # a port step and its auxiliary's measurement (_steps)
            gadget, j = geometry.gadgets[op[3]], op[4]
            o = sum((w * offset.get(lab, zero) for lab, w in
                     zip(gadget.in_labels, gadget.matrix.a[j].tolist()) if w), zero) % d
            o[i] = (o[i] - 1) % d
            offset[gadget.out_labels[j]] = o
            form = (0,) * k
        else:
            form = tuple(int(a) % d for a in geometry.depends[op[1]])
            quad[i] = (quad[i] - offset.pop(op[1], zero)) % d
        if form not in kernels:
            kernels[form] = _phase_rows(form, d)
            table_bytes += 16 * d * (d * sum(map(bool, form)) or 1)
        steps.append(("measure", op[1], i, kernels[form]))
        i += 1
    zs = [(a, z[a]) for a in range(k) if z[a].any()]
    xs = [(h, offset[t]) for h, t in enumerate(geometry.outputs) if offset.get(t, zero).any()]
    steps += [("corr", "Z", 1 + a, len(rows) + c) for c, (a, _row) in enumerate(zs)]
    steps.append(("node", _scatter([geometry.depends[t] for t in geometry.outputs], d)))
    steps += [("corr", "X", 1 + h, len(rows) + len(zs) + c) for c, (h, _row) in enumerate(xs)]
    live = [k] * (len(steps) - len(xs)) + [len(geometry.outputs)] * (len(xs) + 1)
    rows = np.vstack([rows] + [row for _axis, row in zs + xs])
    return steps, live, rows, quad if quad.any() else None, table_bytes


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


def _branches(plan, input_state, coherent=False):
    """Walk every measurement branch of a path depth first, in batches.

    A batch holds branches at one program position as the rows of one
    array (see _Program), and the walk interprets the program of `_run`.
    The scatter acts on the whole batch; a measurement's kernel writes the
    d children of every row (row, outcome) row-major, so branches stay in
    lexicographic outcome order, and a child whose squared norm is below
    IMPOSSIBLE_TOL of its parent's is dropped; a correction raises each row
    to its own exponent, the dot product of the step's row with that
    branch's outcome vector, and each row takes its branch phase last.  A
    batch is taken in row ranges of at most _CHUNK_AMPS // d**n rows, d**n
    the amplitudes of a row's children at the next measurement, the rest
    staying on the stack as a view.  Callers check the register first
    (_check_peak), and one that drains the tree its branch count too
    (_survey).

    The steps write into reusable work buffers (_work): one children array
    per measurement level and two scratch arrays that a chunk's steps after
    its last measurement take in turn.  Depth first, a level's children are
    all consumed before the level measures again, so no buffer is written
    while still needed.  The walk borrows the module's spare buffer set and
    gives it back when it ends or is closed; a walk that finds none makes
    its own.

    Yields batches (R, a, nrm2): the simulated outcome vectors r' as the
    rows of R (raw outcomes T r' mod d, the program's first rows), the
    corrected output tensors, outputs in declaration order, as the rows of
    a, and their squared norms; `a` may be a view of a work buffer, valid
    until the walk moves on.
    """
    _validate_input(plan.geometry, input_state)
    d = plan.geometry.d
    prog = _program(plan, coherent)
    # The program as segments: the correction and scatter steps up to a
    # measurement, each with the axes live after it, that measurement (None
    # last) with the axes of a child, and the rows of a chunk.
    segments, steps = [], []
    for step, after in zip(prog.steps, prog.live[1:]):
        if step[0] == "measure":
            segments.append((steps, step, after, max(1, _CHUNK_AMPS // d**(after + 1))))
            steps = []
        else:
            steps.append((step, after))
    segments.append((steps, None, None, max(1, _CHUNK_AMPS // d**prog.live[-1])))

    bufs = _SPARE.pop() if _SPARE else {}
    try:
        outcomes = np.zeros((1, len(prog.order)), dtype=np.int64)
        stack = [(0, input_state._tensor()[None], outcomes, np.ones(1))]
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
                else:
                    arr = _weyl_rows(arr, step[1], step[2], (R @ prog.rows[step[3]]) % d, d, out)
                free = "b" if free == "a" else "a"
            if measure is None:
                if prog.quad is not None:  # arr is a scratch buffer: the scatter's or an X's
                    _quad_phases(arr, R, prog.quad, d)
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


def _exhaustive(plan, input_state, coherent=False):
    """(outcome dict, normalized output QuditState) for every branch, each
    state one fresh array scaled out of the walk's work buffers."""
    prog = _program(plan, coherent)
    d, n_out = plan.geometry.d, len(plan.geometry.outputs)
    _check_peak(d, prog)
    for R, a, nrm2 in _branches(plan, input_state, coherent):
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


def _survey(plan, input_state, reference=None, coherent=False):
    """(branch count, min fidelity) of a path's whole tree, for
    branch_survey and --exhaustive; raises as branch_survey does."""
    d = plan.geometry.d
    prog = _program(plan, coherent)
    _check_peak(d, prog)
    if d ** len(prog.order) > _BRANCH_LIMIT:
        raise MemoryError(
            f"the walk would take {d}^{len(prog.order)} branches, above the enumeration limit"
        )
    if reference is None:
        reference = oracle_output_state(plan.matrix, input_state)
    ref = reference.psi.conj()
    count, worst = 0, 1.0
    for _R, a, nrm2 in _branches(plan, input_state, coherent):
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
# The spare buffer set, at most one, that a walk borrows and gives back so
# that repeated walks reuse their pages: buffer key (a measurement level or
# a scratch name) -> flat complex128 array.
_SPARE = []


def _work(bufs, key, shape):
    """A work array: a view of the buffer `key` (grown on demand) of the set
    `bufs` up to _BUF_MAX entries, else a fresh array."""
    n = math.prod(shape)
    if n > _BUF_MAX:
        return np.empty(shape, dtype=np.complex128)
    buf = bufs.get(key)
    if buf is None or len(buf) < n:
        buf = bufs[key] = np.empty(n, dtype=np.complex128)
    return buf[:n].reshape(shape)


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
    the memory check.  The zero form, a one-way port step with its
    auxiliary's measurement, only scales.  Returns the children's squared
    norms."""
    factors = None

    def kernel(arr, d, children):
        nonlocal factors
        if factors is None:
            factors = [_phase_table(d)[:, -v % d][None] for v in _terms(form, d)]
            factors = factors or [np.ones((1, d) + (1,) * (arr.ndim - 1))]
            factors[0] = factors[0] / np.sqrt(d)
        out = children.reshape((len(arr), d) + arr.shape[1:])
        np.multiply(arr[:, None], factors[0], out=out)
        for factor in factors[1:]:
            out *= factor
        return _sq_norms(children)

    return kernel


def _scatter(rows, d):
    """The last step before the output shifts: c(x) of each row to the flat
    index of M x in the output register, M the forms `rows`, into `out`
    when given.  Its d^k int64 indices are built on the first call, after
    the memory check, and refuse a map that is not injective."""
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


def _quad_phases(arr, R, quad, d):
    """Multiply each row b of `arr`, in place, by its branch phase
    w^(R[b] . quad R[b]), reduced mod d after each product."""
    q = ((R @ quad) % d * R).sum(1) % d
    arr *= _phase_table(d)[1][q].reshape((-1,) + (1,) * (arr.ndim - 1))


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
    return np.multiply(arr, _phase_table(d)[exps].reshape(shape), out=out)
