"""One-way execution of a compiled geometry.

The procedure is: entangle the input state into the graph state, measure
every non-output qudit in the Fourier basis under a mode-dependent schedule,
and remove the byproducts with classically controlled corrections.

build_schedule makes the one plan both execution paths run.  The coherent
path (coherent.py) is this plan without its auxiliary qudits: each node step
is a cX embedding instead of a graph-state gadget, and the auxiliary
measurements, their messages and the shift corrections they drive are
skipped.  One single-run driver executes either path, and one branch walker
enumerates the branches of either path for exhaustive_mbqc, branch_survey
and coherent.exhaustive_coherent.

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

Both modes are simulated in one frontier order: each node step is followed
by the node's auxiliary measurements, its --local-aux shift corrections and
the measurements of its inputs, so a qudit stays live only while a later
step acts on it.  Fourier measurements on different qudits commute, and a
Z^tau applied right before a Fourier measurement only relabels its outcome
(signal shifting in the measurement calculus of Danos, Kashefi and
Panangaden): measuring Z^tau psi gives r exactly when measuring psi gives
r - tau, and leaves the same state.  So the simulation drops each such Z
step of the constrained mode and adds tau to the simulated outcome
afterwards, evaluating tau in report order; a forced outcome r is drawn as
r - tau, with tau read off the forced outcomes.

Sign conventions follow states.py: a Fourier outcome r on a qudit holding
basis value v multiplies the branch by w^(-r v), auxiliary outcomes leave a
shift deficit of r on the paired message qudit (fixed by X^{+r}), and an
uncorrected deficit delta on an input of a later node raises that node's
auxiliary outcomes by V[j,:] . delta, so adjusted outcomes are obtained by
subtracting the negated matrix row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .geometry import MbqcGeometry, _tally, label_sort_key
from .network import UnsupportedNetworkError
from .report import CorrectionRecord, MessageRecord, OutcomeRecord, RunReport
from .ring import RingMatrix, find_block_diagonal_B, left_inverse
from .states import (
    IMPOSSIBLE_TOL,
    ImpossibleOutcomeError,
    LabeledRegister,
    QuditState,
    fidelity,
    fourier_matrix,
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
    "target_z_correction",
    "run_mbqc",
    "exhaustive_mbqc",
    "oracle_output_state",
]


# ----------------------------------------------------------------------
# schedule structure
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Measure:
    qudit: str
    basis: str = "fourier"


@dataclass(frozen=True)
class Adjust:
    """adjusted(qudit) = raw(qudit) - sum coeff * adjusted(upstream) mod d."""

    qudit: str
    terms: tuple  # ((upstream_qudit, coeff), ...)


@dataclass(frozen=True)
class Correct:
    """Apply op^exponent to qudit, exponent = sum coeff * outcome(source)."""

    op: str  # "X" or "Z"
    qudit: str
    terms: tuple  # ((source_qudit, coeff, "raw" | "adjusted"), ...)


@dataclass(frozen=True)
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
    physical: list  # ("intro", gadget_idx) | ("measure", label, stage) | ("corr", Correct, stage)
    report_order: list  # ("measure", label, stage) | ("corr", Correct, stage)
    shifts: dict  # measured label -> the Z step right before its measurement
    final_corrections: list  # (Correct, stage)
    adjust_terms: dict
    matrix: RingMatrix
    block_B: RingMatrix | None
    requires_out_of_network: bool


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


def target_z_correction(outcome, kappa, d):
    """Phase-correction exponents sigma = outcome * kappa mod d."""
    kappa = np.asarray(kappa, dtype=np.int64)
    return (int(outcome) * kappa) % d


def _aux_adjust_terms(geometry: MbqcGeometry, local_aux: bool):
    """Cascade coefficients: adjusted = raw - sum(-V[j,k]) * adjusted(producer aux)."""
    terms = {}
    link_labels = {f"m{i + 1}" for i in range(geometry.num_links)}
    for gadget in geometry.gadgets:
        V = gadget.matrix.a
        for j, aux in enumerate(gadget.aux_labels):
            if local_aux:
                terms[aux] = ()
                continue
            row = []
            for k_, in_lab in enumerate(gadget.in_labels):
                if in_lab in link_labels and V[j, k_]:
                    row.append((in_lab + "'", int(-V[j, k_]) % geometry.d))
            terms[aux] = tuple(row)
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

    def owner(label):
        if label in source_node:
            return source_node[label]
        if label.endswith("'"):
            return producer_node[label.rstrip("'")]
        if label in consumer_node:
            return consumer_node[label]
        return producer_node[label]

    if mode == "free":
        measured = sorted(geometry.measured_labels(), key=label_sort_key)
        stages.append(Stage("measure", [Measure(q) for q in measured]))
        adjusts = []
        for gadget in geometry.gadgets:
            for aux in gadget.aux_labels:
                adjusts.append(Adjust(aux, adjust_terms[aux]))
        stages.append(Stage("adjust", adjusts))
        sends = [
            Send(owner(q), f"target {nid}", ("raw", q), over_network=False)
            for q in measured
            for nid in target_nodes
        ]
        stages.append(Stage("send", sends))

        corrections = []
        kappa = {}
        for u in sorted(geometry.message_like_labels(), key=label_sort_key):
            kappa[u] = (A.T.a @ geometry.depends[u]) % d
        for h, t in enumerate(geometry.outputs):
            corrections.append(Correct("X", t, ((t + "'", 1, "adjusted"),)))
            zterms = tuple((u, int(kappa[u][h]), "raw") for u in kappa if kappa[u][h])
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
            auxs = sorted(gadget.aux_labels, key=label_sort_key)
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
            V = gadget.matrix.a
            zsteps = []
            for p, in_lab in enumerate(gadget.in_labels):
                terms = tuple(
                    (out, int(V[q, p]), "raw")
                    for q, out in enumerate(gadget.out_labels)
                    if out in link_of_message and V[q, p]
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
                key=label_sort_key,
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
        src = sorted(geometry.inputs, key=label_sort_key)
        stages.append(Stage(name, [Measure(q) for q in src]))
        for q in src:
            report_order.append(("measure", q, name))

        by_node = {}
        for h, t in enumerate(geometry.outputs):
            by_node.setdefault(producer_node[t], []).append(h)
        blocks = [by_node[nid] for nid in target_nodes]
        block_B = find_block_diagonal_B(M, blocks)
        if block_B is not None:
            C = (block_B.T.a @ M.a) % d
            sends = [
                Send(producer_node[lab], consumer_node[lab], ("sigma-link", lab),
                     over_network=True)
                for lab in link_labels
            ]
            stages.append(Stage("sigma-route", sends))
        else:
            requires_oon = True
            C = A.T.a % d
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
            terms = tuple(
                (s, int(C[h, j]), "raw")
                for j, s in enumerate(geometry.inputs)
                if C[h, j]
            )
            if terms:
                corr = Correct("Z", t, terms)
                steps.append(corr)
                final_corrections.append((corr, "sigma-correct"))
        stages.append(Stage("sigma-correct", steps))
        measure_stage = {lab: st for kind, lab, st in report_order if kind == "measure"}

    # The simulation order is one frontier sweep for both modes: a node's
    # step, its auxiliary measurements, its --local-aux X steps, then its
    # inputs, each measured once no later step touches it.  The Z steps in
    # `shifts` are not simulated: each relabels the outcome it precedes.
    physical = []
    for i, gadget in enumerate(geometry.gadgets):
        physical.append(("intro", i))
        for lab in sorted(gadget.aux_labels, key=label_sort_key):
            physical.append(("measure", lab, measure_stage[lab]))
        physical.extend(node_corrections.get(i, ()))
        for lab in sorted(gadget.in_labels, key=label_sort_key):
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


class _Outcomes:
    """Raw and adjusted outcome store shared by driver and ledger."""

    def __init__(self, plan):
        self.plan = plan
        self.raw = {}
        self.adjusted = {}
        self.ledger = []

    def record(self, label, r, stage):
        d = self.plan.geometry.d
        self.raw[label] = r
        terms = self.plan.adjust_terms.get(label)
        if terms is None:
            self.adjusted[label] = r
            self.ledger.append(OutcomeRecord(label, r, r, stage))
        else:
            self.adjusted[label] = adjust_outcome(
                self.ledger, label, r, self.adjusted, terms, d, stage
            )

    def value(self, label, use):
        return self.raw[label] if use == "raw" else self.adjusted[label]

    def exponent(self, correct: Correct):
        d = self.plan.geometry.d
        return sum(c * self.value(lab, use) for lab, c, use in correct.terms) % d


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
    shift corrections that read them drop out.
    """
    ops, report_ops, finals = plan.physical, plan.report_order, plan.final_corrections
    order = plan.schedule.measurement_order()
    if coherent:
        def keep(op):
            return not (op[0] == "measure" and _is_aux(op[1])) and not (
                op[0] == "corr" and _reads_aux(op[1]))

        ops = [op for op in ops if keep(op)]
        report_ops = [op for op in report_ops if keep(op)]
        finals = [(c, stage) for c, stage in finals if not _reads_aux(c)]
        order = [q for q in order if not _is_aux(q)]
    return ops, report_ops, finals, order


def _peak_live(plan, ops, coherent):
    """Most qudits live at once over `ops`.  A node step adds one qudit per
    out-port on the coherent path and two (auxiliary and message) on the
    one-way path; a measurement removes one."""
    per_port = 1 if coherent else 2
    live = peak = len(plan.geometry.inputs)
    for op in ops:
        if op[0] == "intro":
            live += per_port * len(plan.geometry.gadgets[op[1]].out_labels)
            peak = max(peak, live)
        elif op[0] == "measure":
            live -= 1
    return peak


def _check_memory(d, live):
    """Refuse, before allocating, a run whose peak register cannot fit in
    physical memory.  A gate or measurement holds about three registers at
    once; a Fourier measurement holds its input, the transposed copy that
    np.tensordot makes of it, and the transformed result.  A one-way run of
    butterfly_swap(11), 7 qudits live at its peak in either mode, reaches 3.0
    times its 297 MiB register in resident memory."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # the platform does not report its physical memory
    need = 3 * 16 * d**live  # complex128 amplitudes
    if need > have:
        raise MemoryError(
            f"the live register peaks at {live} qudits of dimension {d}: "
            f"{need} bytes of working memory, above the {have} bytes of physical memory"
        )


def _resolve_forced(order, forced):
    if forced is None:
        return None
    if isinstance(forced, dict):
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
        return None
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


def _measure(reg, label, rng, forced_map, simulated_forced):
    if simulated_forced is None or label not in simulated_forced:
        return reg.measure(label, rng=rng)
    try:
        return reg.measure(label, force=simulated_forced[label])
    except ImpossibleOutcomeError:
        r = int(forced_map[label]) % reg.d
        raise ImpossibleOutcomeError(
            f"forced outcome {r} on {label} has probability below {IMPOSSIBLE_TOL}"
        ) from None


def _replay(plan, report_ops, simulated):
    """Outcomes and correction records in report order.  A shifted qudit's
    outcome is its simulated one plus the exponent tau of its Z step, which
    reads outcomes that come before it in report order."""
    d = plan.geometry.d
    outcomes = _Outcomes(plan)
    corrections = []
    for kind, item, stage in report_ops:
        if kind == "measure":
            r = simulated[item]
            shift = plan.shifts.get(item)
            if shift is not None:
                r = (r + outcomes.exponent(shift)) % d
            outcomes.record(item, r, stage)
        else:
            corrections.append(
                CorrectionRecord(item.op, item.qudit, int(outcomes.exponent(item)), stage)
            )
    return outcomes, corrections


def _apply_correction(reg_or_state, outcomes, correct, stage, corrections):
    exp = outcomes.exponent(correct)
    if exp:
        if correct.op == "X":
            reg_or_state.apply_x(correct.qudit, exp)
        else:
            reg_or_state.apply_z(correct.qudit, exp)
    corrections.append(CorrectionRecord(correct.op, correct.qudit, int(exp), stage))


def _materialize_messages(plan, outcomes, sigma_link_values, coherent):
    messages = []
    for stage in plan.schedule.stages:
        for step in stage.steps:
            if not isinstance(step, Send):
                continue
            kind, label = step.payload
            if coherent and kind in ("raw", "adjusted") and _is_aux(label):
                continue
            if kind == "raw":
                text = f"outcome({label})={outcomes.raw[label]}"
            elif kind == "adjusted":
                text = f"adjusted({label})={outcomes.adjusted[label]}"
            elif kind == "sigma-link":
                text = f"sigma-share({label})={sigma_link_values.get(label, 0)}"
            else:
                text = f"sigma-contribution({label})"
            messages.append(
                MessageRecord(step.sender, step.receiver, text,
                              over_network=step.over_network, backward=step.backward)
            )
    return messages


def _classical_link_values(plan, s_values):
    """Forward run of the underlying classical code on the outcome vector s."""
    geometry = plan.geometry
    values = {lab: int(s_values[lab]) for lab in geometry.inputs}
    for gadget in geometry.gadgets:
        x = np.asarray([values[lab] for lab in gadget.in_labels], dtype=np.int64)
        y = gadget.matrix.mul_vec(x)
        for j, out in enumerate(gadget.out_labels):
            values[out] = int(y[j])
    return values


def oracle_output_state(M: RingMatrix, input_state: QuditState) -> QuditState:
    """The target of every protocol: sum_x psi_x |M x> on the output qudits."""
    d = input_state.d
    k = input_state.n
    ell = M.rows
    out = np.zeros(d**ell, dtype=np.complex128)
    for idx, amp in enumerate(input_state.psi):
        if amp == 0:
            continue
        digits = np.asarray(
            [(idx // d ** (k - 1 - j)) % d for j in range(k)], dtype=np.int64
        )
        y = M.mul_vec(digits)
        out_idx = 0
        for v in y:
            out_idx = out_idx * d + int(v)
        out[out_idx] += amp
    return QuditState(ell, d, out, normalize_check=False)


def _validate_input(geometry, input_state):
    if input_state.d != geometry.d or input_state.n != len(geometry.inputs):
        raise ValueError(
            f"input state must have {len(geometry.inputs)} qudits of dimension {geometry.d}"
        )


def _run(plan, input_state, seed, forced, embed=None):
    """The single-run driver behind run_mbqc and run_coherent.

    Without `embed`, each node step prepares and entangles the node's
    graph-state gadget.  With it, `embed(register, gadget)` is the node step
    and the run is the coherent path: the plan without its auxiliary qudits.
    """
    geometry = plan.geometry
    coherent = embed is not None
    _validate_input(geometry, input_state)
    ops, report_ops, finals, order = _steps(plan, coherent)
    forced_map = _resolve_forced(order, forced)
    rng = np.random.default_rng(seed) if seed is not None else None
    if forced_map is None and rng is None:
        raise ValueError("provide a seed for sampling or a forced outcome assignment")
    simulated_forced = _simulated_forced(plan, forced_map)
    _check_memory(geometry.d, _peak_live(plan, ops, coherent))

    node_step = embed or _introduce
    reg = LabeledRegister(input_state, geometry.inputs)
    simulated = _Outcomes(plan)
    for op in ops:
        if op[0] == "intro":
            node_step(reg, geometry.gadgets[op[1]])
        elif op[0] == "measure":
            _, label, stage = op
            r = _measure(reg, label, rng, forced_map, simulated_forced)
            simulated.record(label, r, stage)
        else:
            # an X step of --local-aux; it reads auxiliary outcomes, which no
            # shift touches, so the simulated ones are the reported ones
            _, correct, stage = op
            _apply_correction(reg, simulated, correct, stage, [])
    outcomes, corrections = _replay(plan, report_ops, simulated.raw)
    for correct, stage in finals:
        _apply_correction(reg, outcomes, correct, stage, corrections)

    sigma_link_values = {}
    if plan.mode == "constrained" and plan.block_B is not None:
        sigma_link_values = _classical_link_values(plan, outcomes.raw)
    output_state = reg.extract(geometry.outputs)
    oracle = oracle_output_state(plan.matrix, input_state)
    report = RunReport(
        path="coherent" if coherent else "mbqc",
        d=geometry.d,
        mode=plan.mode,
        seed=seed,
        forced_outcomes=None
        if forced_map is None
        else [[lab, int(forced_map[lab])] for lab in order],
        outcomes=outcomes.ledger,
        corrections=corrections,
        messages=_materialize_messages(plan, outcomes, sigma_link_values, coherent),
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
    by qudit label, or a sequence in schedule measurement order).  The output
    state is delivered on the geometry's outputs, in declaration order.
    Raises MemoryError, before allocating, when the live register would not
    fit in physical memory.
    """
    plan = build_schedule(geometry, mode, local_aux=local_aux)
    output_state, report = _run(plan, input_state, seed, forced)
    report.extra["local_aux"] = local_aux
    return output_state, report


# ----------------------------------------------------------------------
# branch enumeration
# ----------------------------------------------------------------------

def _raw_coefficient_rows(plan, order):
    """Correction exponents as integer rows over the raw-outcome vector.

    The adjusted-outcome cascade is linear, so every correction exponent is a
    fixed integer combination of raw outcomes; expanding it once lets the
    branch walker evaluate corrections with a dot product.
    """
    d = plan.geometry.d
    pos = {lab: i for i, lab in enumerate(order)}
    n = len(order)
    adj_rows = {}
    for gadget in plan.geometry.gadgets:
        for aux in gadget.aux_labels:
            if aux not in pos:  # the coherent path measures no auxiliary
                continue
            row = np.zeros(n, dtype=np.int64)
            row[pos[aux]] = 1
            for lab, coeff in plan.adjust_terms[aux]:
                row = (row - coeff * adj_rows[lab]) % d
            adj_rows[aux] = row

    def row_of(correct):
        row = np.zeros(n, dtype=np.int64)
        for lab, coeff, use in correct.terms:
            if use == "raw":
                row[pos[lab]] = (row[pos[lab]] + coeff) % d
            else:
                row = (row + coeff * adj_rows[lab]) % d
        return row

    return row_of


def _outcome_map(plan, coherent):
    """The simulated measurement order of a path and the unitriangular map
    T with r = T r' mod d from its simulated outcomes r' to the raw ones r.

    A shifted qudit's raw outcome is its simulated one plus its Z step's
    exponent, which reads raw outcomes reported before it (see _replay).
    """
    ops, report_ops, _finals, _order = _steps(plan, coherent)
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


def _branches(plan, input_state, amp_limit, embed=None, normalize=False):
    """Walk every measurement branch of a path depth first, on bare arrays.

    Branches share prefix work: each node step runs once per prefix and each
    measurement splits the live tensor into its d children, so memory follows
    the live frontier, and corrections are dot products of precomputed rows
    with the outcome vector.  A child whose squared norm is below
    IMPOSSIBLE_TOL of its parent's is skipped; with `normalize` every child
    is rescaled to norm 1.  With `embed(array, axis, gadget, d)` as the node
    step, the walk is the coherent path, as in `_run`.

    Yields (simulated outcome vector r' in physical measurement order, output
    tensor in declaration order with the final corrections applied, its
    squared norm); the raw outcomes are T r' mod d (see _outcome_map).  The
    outcome vector is one buffer, overwritten by later branches.
    """
    geometry = plan.geometry
    coherent = embed is not None
    _validate_input(geometry, input_state)
    d = geometry.d
    ops, _report_ops, finals, _order = _steps(plan, coherent)
    peak = _peak_live(plan, ops, coherent)
    if d**peak > amp_limit:
        raise MemoryError(
            f"live register would need {d}^{peak} amplitudes, above the enumeration limit"
        )
    order, T = _outcome_map(plan, coherent)
    row_of = _raw_coefficient_rows(plan, order)

    def simulated_row(correct):
        return (row_of(correct) @ T) % d

    program = []
    for op in ops:
        if op[0] == "intro":
            program.append(("intro", geometry.gadgets[op[1]]))
        elif op[0] == "measure":
            program.append(("measure", op[1], order.index(op[1])))
        else:
            program.append(("corr", op[1].op, op[1].qudit, simulated_row(op[1])))
    outputs = geometry.outputs
    finals = [(c.op, outputs.index(c.qudit), simulated_row(c)) for c, _stage in finals]
    Finv = fourier_matrix_cached(d)
    plus_cache = {}
    rvec = np.zeros(len(order), dtype=np.int64)

    start_axis = {lab: i for i, lab in enumerate(geometry.inputs)}
    stack = [(0, None, 0, input_state._tensor(), start_axis, 1.0)]
    while stack:
        idx, p, r, arr, axis, nrm2 = stack.pop()
        if p is not None:
            rvec[p] = r
        while idx < len(program) and program[idx][0] != "measure":
            op = program[idx]
            if op[0] == "intro" and embed is None:
                arr, axis = _intro_array(arr, axis, op[1], d, plus_cache)
            elif op[0] == "intro":
                arr, axis = embed(arr, axis, op[1], d)
            else:
                exp = int(op[3] @ rvec) % d
                if exp:
                    arr = _weyl(arr, op[1], axis[op[2]], exp, d)
            idx += 1
        if idx == len(program):
            t = np.moveaxis(arr, [axis[lab] for lab in outputs], range(len(outputs)))
            for opname, h, row in finals:
                exp = int(row @ rvec) % d
                if exp:
                    t = _weyl(t, opname, h, exp, d)
            yield rvec, t, nrm2
            continue
        _, label, p = program[idx]
        q = axis[label]
        branches = np.tensordot(Finv, arr, axes=([1], [q]))
        child_axis = {
            lab: ax - 1 if ax > q else ax for lab, ax in axis.items() if lab != label
        }
        children = []
        for r in range(d):
            child = branches[r]
            child_nrm2 = float(np.vdot(child, child).real)
            if child_nrm2 < nrm2 * IMPOSSIBLE_TOL:
                continue
            if normalize:
                child, child_nrm2 = child / np.sqrt(child_nrm2), 1.0
            children.append((idx + 1, p, r, child, child_axis, child_nrm2))
        stack.extend(reversed(children))


def _exhaustive(plan, input_state, amp_limit, embed=None):
    """(outcome dict, normalized output QuditState) for every branch."""
    order, T = _outcome_map(plan, embed is not None)
    d = plan.geometry.d
    for r, t, _nrm2 in _branches(plan, input_state, amp_limit, embed, normalize=True):
        raw = (T @ r) % d
        yield dict(zip(order, raw.tolist())), QuditState(t.ndim, d, t, normalize_check=False)


def exhaustive_mbqc(
    geometry: MbqcGeometry,
    input_state: QuditState,
    mode="free",
    local_aux=False,
    amp_limit=2**22,
):
    """Iterate (outcome dict, output QuditState) over every measurement branch.

    Branches share prefix work: the walk introduces each node's qudits in
    protocol order and splits the live state into its d collapsed children at
    every measurement, so cost is near-linear in the number of branches and
    memory follows the live frontier, not the full qudit roster.  Branches
    whose probability underflows the impossible-outcome tolerance are skipped.
    Raises MemoryError up front when the live register would exceed
    `amp_limit` amplitudes.
    """
    plan = build_schedule(geometry, mode, local_aux=local_aux)
    yield from _exhaustive(plan, input_state, amp_limit)


def branch_survey(
    geometry: MbqcGeometry,
    input_state: QuditState,
    mode="free",
    local_aux=False,
    reference: QuditState | None = None,
    amp_limit=2**22,
):
    """Fidelity of every measurement branch against a reference state.

    Walks the same branch tree as exhaustive_mbqc without building a state
    object per branch, which keeps the per-branch overhead small enough to
    sweep millions of branches.  Returns (branch_count, min_fidelity);
    `reference` defaults to the oracle image of the input state.
    """
    _validate_input(geometry, input_state)
    plan = build_schedule(geometry, mode, local_aux=local_aux)
    if reference is None:
        reference = oracle_output_state(plan.matrix, input_state)
    ref = reference.psi.reshape((geometry.d,) * len(geometry.outputs))
    count, worst = 0, 1.0
    for _r, t, nrm2 in _branches(plan, input_state, amp_limit):
        fid = abs(np.vdot(ref, t)) / np.sqrt(nrm2)
        count += 1
        if fid < worst:
            worst = fid
    return count, worst


_Z_PHASE_CACHE = {}
_F_CACHE = {}


def _z_phases(d, exp):
    key = (d, exp % d)
    if key not in _Z_PHASE_CACHE:
        _Z_PHASE_CACHE[key] = np.exp(2j * np.pi * (exp % d) * np.arange(d) / d)
    return _Z_PHASE_CACHE[key]


def _weyl(arr, op, axis, exp, d):
    """X^exp or Z^exp on one axis of a bare amplitude tensor."""
    if op == "X":
        return np.roll(arr, exp, axis=axis)
    shape = [d if i == axis else 1 for i in range(arr.ndim)]
    return arr * _z_phases(d, exp).reshape(shape)


def fourier_matrix_cached(d):
    if d not in _F_CACHE:
        _F_CACHE[d] = fourier_matrix(d, inverse=True)
    return _F_CACHE[d]


def _intro_array(arr, axis, gadget, d, plus_cache):
    """The one-way node step on a bare array: adjoin the gadget's |+> qudits
    and entangle its edges.  It stays apart from `_introduce` because its
    |+> amplitude d**(-n/2) and the register's (1/sqrt(d))**n differ in the
    last bit, and each keeps the results of its callers unchanged."""
    grow = 2 * len(gadget.out_labels)
    if grow not in plus_cache:
        plus_cache[grow] = np.full((d,) * grow, d ** (-grow / 2), dtype=np.complex128)
    arr = np.multiply.outer(arr, plus_cache[grow])
    axis = dict(axis)
    base = arr.ndim - grow
    for j, out in enumerate(gadget.out_labels):
        axis[gadget.aux_labels[j]] = base + 2 * j
        axis[out] = base + 2 * j + 1
    V = gadget.matrix.a
    for j, aux in enumerate(gadget.aux_labels):
        for k_, in_lab in enumerate(gadget.in_labels):
            w = int(V[j, k_])
            if w:
                arr = arr * _cz_table(d, w, axis[in_lab], axis[aux], arr.ndim)
        arr = arr * _cz_table(d, d - 1, axis[aux], axis[gadget.out_labels[j]], arr.ndim)
    return arr, axis


def _cz_table(d, w, a, b, ndim):
    vals = np.arange(d)
    table = np.exp(2j * np.pi * (w % d) * np.outer(vals, vals) / d)
    shape = [d if i in (a, b) else 1 for i in range(ndim)]
    return table.reshape(shape)
