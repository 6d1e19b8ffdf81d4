"""One-way execution: schedules, byproduct adjustment, correction routing."""

import os
import time

import numpy as np
import pytest

from qlnc.bundled import butterfly_multicast, butterfly_swap, identity_wire
from qlnc.coherent import run_coherent
from qlnc.geometry import compile_network, label_sort_key
from qlnc.coherent import _embed, _embed_array, embed_node
from qlnc.mbqc import (
    Correct,
    Measure,
    _apply_correction,
    _classical_link_values,
    _exhaustive,
    _introduce,
    _materialize_messages,
    _Outcomes,
    _peak_live,
    _run,
    _steps,
    adjust_outcome,
    branch_survey,
    build_schedule,
    exhaustive_mbqc,
    oracle_output_state,
    run_mbqc,
    target_z_correction,
)
from qlnc.network import CodingNetwork, NodeSpec, UnsupportedNetworkError, composite_map
from qlnc.ring import RingMatrix, left_inverse
from qlnc.states import ImpossibleOutcomeError, LabeledRegister, QuditState, fidelity

from helpers import random_network
from test_coherent import bell_pair, no_block_network


# -- outcome adjustment and phase corrections -------------------------

def test_adjust_outcome_no_upstream():
    ledger = []
    assert adjust_outcome(ledger, "a'", 2, {}, (), 5) == 2
    assert ledger[0].adjusted == 2 and ledger[0].provenance == ()


def test_adjust_outcome_subtracts_row_d2():
    ledger = []
    upstream = {"u1'": 1, "u2'": 0}
    got = adjust_outcome(ledger, "c'", 1, upstream, (("u1'", 1), ("u2'", 1)), 2)
    assert got == 0


def test_adjust_outcome_subtracts_row_d5():
    ledger = []
    upstream = {"u1'": 1, "u2'": 1}
    got = adjust_outcome(ledger, "c'", 2, upstream, (("u1'", 3), ("u2'", 4)), 5)
    assert got == (2 - 7) % 5 == 0


def test_target_z_correction_zero():
    assert list(target_z_correction(0, [1, 1], 2)) == [0, 0]


def test_target_z_correction_swap_kappa():
    # swap permutation: A = M, lambda(m4) = (1,1), so kappa = (1,1) at d=2
    M = RingMatrix([[0, 1], [1, 0]], 2)
    A = left_inverse(M)
    lam = np.array([1, 1])
    kappa = (A.T.a @ lam) % 2
    assert list(target_z_correction(1, kappa, 2)) == [1, 1]


def test_target_z_correction_identity_wire():
    assert list(target_z_correction(3, [1], 5)) == [3]


# -- schedule structure ------------------------------------------------

def test_free_schedule_single_measure_stage_outputs_only():
    geo = compile_network(butterfly_swap(2))
    plan = build_schedule(geo, "free")
    measure_stages = [
        s for s in plan.schedule.stages if any(isinstance(st, Measure) for st in s.steps)
    ]
    assert len(measure_stages) == 1
    assert len(measure_stages[0].steps) == 18
    outputs = set(geo.outputs)
    for stage in plan.schedule.stages:
        for step in stage.steps:
            if isinstance(step, Correct):
                assert step.qudit in outputs


def test_all_measurements_fourier_basis():
    geo = compile_network(butterfly_multicast(3))
    for mode in ("free", "constrained"):
        plan = build_schedule(geo, mode)
        for stage in plan.schedule.stages:
            for step in stage.steps:
                if isinstance(step, Measure):
                    assert step.basis == "fourier"


def test_constrained_schedule_ordering():
    net = butterfly_swap(2)
    geo = compile_network(net)
    plan = build_schedule(geo, "constrained")
    names = [s.name for s in plan.schedule.stages]
    aux_order = [n.split()[-1] for n in names if n.startswith("aux-measure")]
    input_order = [n.split()[-1] for n in names if n.startswith("input-measure")]
    # auxiliary stages follow the topological node order, input stages oppose it
    topo = [g.node_id for g in geo.gadgets]
    assert aux_order == topo
    assert input_order == [n for n in reversed(topo) if n not in ("S1", "S2")]
    # source qudits measured last
    assert names.index("source-measure") > names.index(
        [n for n in names if n.startswith("input-measure")][-1]
    )


def test_free_mode_rejects_local_aux():
    geo = compile_network(identity_wire(2))
    with pytest.raises(ValueError):
        build_schedule(geo, "free", local_aux=True)


def test_forced_vector_follows_schedule_order():
    geo = compile_network(identity_wire(2))
    plan = build_schedule(geo, "free")
    order = plan.schedule.measurement_order()
    assert order == sorted(order, key=label_sort_key)
    out, report = run_mbqc(geo, QuditState.basis(2, [1]), forced=[0] * len(order))
    assert [lab for lab, _r in report.forced_outcomes] == order


# -- end-to-end runs ---------------------------------------------------

def test_identity_wire_haar_d3_200_sampled():
    geo = compile_network(identity_wire(3))
    rng = np.random.default_rng(12)
    psi = QuditState.haar_random(3, 1, rng)
    for seed in range(100):
        for mode in ("free", "constrained"):
            out, rep = run_mbqc(geo, psi, mode=mode, seed=seed)
            assert fidelity(out, psi) >= 1 - 1e-9
            assert rep.ledger_replay_consistent()


def test_multicast_basis_d3():
    geo = compile_network(butterfly_multicast(3))
    out, rep = run_mbqc(geo, QuditState.basis(3, [1, 2]), mode="free", seed=4)
    assert fidelity(out, QuditState.basis(3, [1, 2, 1, 2])) >= 1 - 1e-9
    assert rep.resource_counts["qudits"] == 2 + 2 * 4 + 2 * 7


def test_swap_forced_sample_of_branches():
    geo = compile_network(butterfly_swap(2))
    order = build_schedule(geo, "free").schedule.measurement_order()
    rng = np.random.default_rng(8)
    target = QuditState.basis(2, [0, 1])
    for _ in range(25):
        forced = {lab: int(rng.integers(0, 2)) for lab in order}
        out, _rep = run_mbqc(geo, QuditState.basis(2, [1, 0]), mode="free", forced=forced)
        assert fidelity(out, target) >= 1 - 1e-9


def test_diamond_exhaustive_all_modes_d3():
    # source duplicates, target sums: composite [[2]], injective at d=3;
    # 6 measured qudits give 3^6 branches, swept in full for every regime
    nodes = [NodeSpec("S", RingMatrix([[1], [1]], 3)), NodeSpec("T", RingMatrix([[1, 1]], 3))]
    net = CodingNetwork(3, nodes, [("S", 0, "T", 0), ("S", 1, "T", 1)], [("S", 0)], [("T", 0)])
    geo = compile_network(net)
    rng = np.random.default_rng(14)
    psi = QuditState.haar_random(3, 1, rng)
    oracle = oracle_output_state(composite_map(net), psi)
    for mode, local in (("free", False), ("constrained", False), ("constrained", True)):
        count, fid = branch_survey(geo, psi, mode=mode, local_aux=local, reference=oracle)
        assert count == 3**6
        assert fid >= 1 - 1e-9


def test_generator_and_scanner_agree():
    geo = compile_network(identity_wire(2))
    psi = QuditState.plus(2)
    oracle = oracle_output_state(composite_map(identity_wire(2)), psi)
    gen = list(exhaustive_mbqc(geo, psi, mode="free"))
    count, fid = branch_survey(geo, psi, mode="free", reference=oracle)
    assert len(gen) == count == 4
    assert min(fidelity(s, oracle) for _o, s in gen) == pytest.approx(fid, abs=1e-9)


def test_enumerator_branches_match_single_runs():
    # exhaustive_mbqc, branch_survey, and forced run_mbqc realize the same
    # branch map from outcome assignments to output states
    nodes = [NodeSpec("S", RingMatrix([[1], [1]], 3)), NodeSpec("T", RingMatrix([[1, 1]], 3))]
    net = CodingNetwork(3, nodes, [("S", 0, "T", 0), ("S", 1, "T", 1)], [("S", 0)], [("T", 0)])
    geo = compile_network(net)
    rng = np.random.default_rng(9)
    psi = QuditState.haar_random(3, 1, rng)
    for mode, local in (("free", False), ("constrained", False), ("constrained", True)):
        branches = {
            tuple(sorted(outs.items())): state
            for outs, state in exhaustive_mbqc(geo, psi, mode=mode, local_aux=local)
        }
        assert len(branches) == 3**6
        picks = rng.choice(len(branches), size=8, replace=False)
        keys = sorted(branches)
        for p in picks:
            forced = dict(keys[p])
            out, _rep = run_mbqc(geo, psi, mode=mode, forced=forced, local_aux=local)
            assert fidelity(out, branches[keys[p]]) >= 1 - 1e-9
        count, fid = branch_survey(
            geo, psi, mode=mode, local_aux=local,
            reference=oracle_output_state(composite_map(net), psi),
        )
        assert count == len(branches)
        assert fid >= 1 - 1e-9


@pytest.mark.parametrize("mode", ["free", "constrained"])
def test_three_way_agreement_random(mode):
    rng = np.random.default_rng(77)
    for i in range(5):
        d = int(rng.choice([2, 3]))
        net = random_network(rng, d, require_injective=True, max_nodes=4, max_links=5)
        geo = compile_network(net)
        psi = QuditState.haar_random(d, net.num_inputs, rng)
        oracle = oracle_output_state(composite_map(net), psi)
        mout, _ = run_mbqc(geo, psi, mode=mode, seed=i)
        cout, _ = run_coherent(net, psi, mode=mode, seed=i)
        assert fidelity(mout, oracle) >= 1 - 1e-9
        assert fidelity(cout, oracle) >= 1 - 1e-9
        assert fidelity(mout, cout) >= 1 - 1e-9


def test_local_aux_variant_agrees():
    rng = np.random.default_rng(55)
    for i in range(5):
        net = random_network(rng, 3, require_injective=True, max_nodes=4, max_links=5)
        geo = compile_network(net)
        psi = QuditState.haar_random(3, net.num_inputs, rng)
        oracle = oracle_output_state(composite_map(net), psi)
        out, rep = run_mbqc(geo, psi, mode="constrained", seed=i, local_aux=True)
        assert fidelity(out, oracle) >= 1 - 1e-9
        # local corrections leave nothing to adjust downstream
        for record in rep.outcomes:
            assert record.adjusted == record.raw


def test_measurement_order_shuffle_within_stage():
    # correctness must not depend on the within-stage measurement order
    net = butterfly_swap(2)
    geo = compile_network(net)
    plan_order = build_schedule(geo, "free").schedule.measurement_order()
    rng = np.random.default_rng(2)
    forced = {lab: int(rng.integers(0, 2)) for lab in plan_order}
    out_ref, _ = run_mbqc(geo, bell_pair(), mode="free", forced=forced)

    import qlnc.mbqc as mbqc_mod

    plan = mbqc_mod.build_schedule(geo, "free")
    shuffled = []
    block = []
    for op in plan.physical:
        if op[0] == "measure":
            block.append(op)
        else:
            rng.shuffle(block)
            shuffled.extend(block)
            block = []
            shuffled.append(op)
    rng.shuffle(block)
    shuffled.extend(block)
    plan.physical[:] = shuffled

    original_build = mbqc_mod.build_schedule
    try:
        mbqc_mod.build_schedule = lambda *a, **k: plan
        out_shuf, _ = run_mbqc(geo, bell_pair(), mode="free", forced=forced)
    finally:
        mbqc_mod.build_schedule = original_build
    assert fidelity(out_ref, out_shuf) >= 1 - 1e-9


def test_constrained_messages_permutation_network():
    geo = compile_network(butterfly_swap(2))
    _out, rep = run_mbqc(geo, bell_pair(), mode="constrained", seed=3)
    assert not rep.requires_out_of_network
    assert all(m.over_network for m in rep.messages)
    backward = [m for m in rep.messages if m.backward]
    assert len(backward) == 7  # one reverse use per link
    per_link = {}
    for m in backward:
        key = m.payload.split("=")[0]
        per_link[key] = per_link.get(key, 0) + 1
    assert all(v == 1 for v in per_link.values())


@pytest.mark.parametrize("d,cap", [(4, 8), (6, 6)])
def test_composite_modulus_end_to_end(d, cap):
    # zero divisors in Z_d must not disturb any execution path
    rng = np.random.default_rng(700 + d)
    for i in range(4):
        net = random_network(rng, d, max_nodes=4, max_links=5, size_cap=cap,
                             require_injective=True)
        geo = compile_network(net)
        psi = QuditState.haar_random(d, net.num_inputs, rng)
        oracle = oracle_output_state(composite_map(net), psi)
        for mode in ("free", "constrained"):
            mout, _ = run_mbqc(geo, psi, mode=mode, seed=i)
            cout, _ = run_coherent(net, psi, mode=mode, seed=i)
            assert fidelity(mout, oracle) >= 1 - 1e-9
            assert fidelity(cout, oracle) >= 1 - 1e-9


def test_no_block_fallback_every_branch():
    # when no block-diagonal B exists, the direct-communication fallback must
    # still close every single branch, in both auxiliary-handling variants
    net = no_block_network()
    geo = compile_network(net)
    psi = bell_pair()
    oracle = oracle_output_state(composite_map(net), psi)
    for local in (False, True):
        count, fid = branch_survey(
            geo, psi, mode="constrained", local_aux=local, reference=oracle
        )
        assert count == 2**10
        assert fid >= 1 - 1e-9


def test_exhaustive_respects_amplitude_limit():
    geo = compile_network(butterfly_swap(2))
    with pytest.raises(MemoryError):
        list(exhaustive_mbqc(geo, QuditState.basis(2, [0, 0]), amp_limit=2**4))


def test_single_runs_refuse_registers_beyond_physical_memory():
    # both modes simulate in frontier order: swap keeps 7 qudits live on the
    # one-way path (31^7 amplitudes, 1.3 TB of working memory) and 5 on the
    # coherent path (101^5, 0.5 TB)
    mbqc_plan = build_schedule(compile_network(butterfly_swap(31)), "constrained")
    coh_plan = build_schedule(compile_network(butterfly_swap(101)), "constrained")
    mbqc_peak = _peak_live(mbqc_plan, _steps(mbqc_plan, False)[0], False)
    coh_peak = _peak_live(coh_plan, _steps(coh_plan, True)[0], True)
    assert (mbqc_peak, coh_peak) == (7, 5)
    need = 3 * 16 * min(31**mbqc_peak, 101**coh_peak)
    if os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") >= need:
        pytest.skip("this machine could hold the register")
    t0 = time.perf_counter()
    with pytest.raises(MemoryError, match="physical memory"):
        run_mbqc(compile_network(butterfly_swap(31)), QuditState.basis(31, [0, 0]),
                 mode="constrained", seed=0)
    with pytest.raises(MemoryError, match="physical memory"):
        run_coherent(butterfly_swap(101), QuditState.basis(101, [0, 0]),
                     mode="constrained", seed=0)
    assert time.perf_counter() - t0 < 5


def test_constrained_swap_d7_runs_at_free_mode_size():
    net = butterfly_swap(7)
    psi = QuditState.basis(7, [3, 5])
    out, rep = run_mbqc(compile_network(net), psi, mode="constrained", seed=0)
    assert fidelity(out, oracle_output_state(composite_map(net), psi)) >= 1 - 1e-9
    assert rep.fidelity_vs_oracle >= 1 - 1e-9


def test_constrained_peak_live_equals_free():
    nets = [butterfly_swap(2), butterfly_multicast(3), identity_wire(2)]
    rng = np.random.default_rng(404)
    for i in range(20):
        nets.append(random_network(rng, 2 + i % 5, require_injective=True, max_nodes=5,
                                   max_links=6, size_cap=7))
    for net in nets:
        geo = compile_network(net)
        for coherent in (False, True):
            peaks = []
            for mode in ("free", "constrained"):
                plan = build_schedule(geo, mode)
                peaks.append(_peak_live(plan, _steps(plan, coherent)[0], coherent))
            assert peaks[0] == peaks[1]


def _cx_embed(reg, gadget):
    """The coherent node step as a product of cX gates on fresh |0> outputs."""
    reg.add(list(gadget.out_labels), fill="zero")
    reg.state = embed_node(reg.state, gadget.matrix,
                           [reg.axis[lab] for lab in gadget.in_labels],
                           [reg.axis[lab] for lab in gadget.out_labels])


def _reverse_topological_reference(geo, psi, forced, local_aux, coherent):
    """A constrained run in the logical schedule's order: each node step at
    its auxiliary-measurement stage, each Z step applied and its qudit then
    measured in reverse topological order, and the final corrections last."""
    plan = build_schedule(geo, "constrained", local_aux=local_aux)
    skip = (lambda q: q.endswith("'")) if coherent else (lambda q: False)
    gadgets = {g.node_id: g for g in geo.gadgets}
    reg = LabeledRegister(psi, geo.inputs)
    finals = [(c, stage) for c, stage in plan.final_corrections
              if not any(skip(lab) for lab, _c, _u in c.terms)]
    outcomes, corrections = _Outcomes(plan), []
    for stage in plan.schedule.stages:
        if stage.name.startswith("aux-measure "):
            (_cx_embed if coherent else _introduce)(reg, gadgets[stage.name.split()[1]])
        for step in stage.steps:
            if isinstance(step, Measure) and not skip(step.qudit):
                r = reg.measure(step.qudit, force=forced[step.qudit])
                outcomes.record(step.qudit, r, stage.name)
            elif (isinstance(step, Correct)
                  and step not in [c for c, _stage in plan.final_corrections]
                  and not any(skip(lab) for lab, _c, _u in step.terms)):
                _apply_correction(reg, outcomes, step, stage.name, corrections)
    for correct, stage in finals:
        _apply_correction(reg, outcomes, correct, stage, corrections)
    links = _classical_link_values(plan, outcomes.raw) if plan.block_B is not None else {}
    messages = _materialize_messages(plan, outcomes, links, coherent)
    return reg.extract(geo.outputs), outcomes.ledger, corrections, messages


def _diamond(d):
    """The source duplicates, the target sums: composite [[2]]."""
    nodes = [NodeSpec("S", RingMatrix([[1], [1]], d)), NodeSpec("T", RingMatrix([[1, 1]], d))]
    return CodingNetwork(d, nodes, [("S", 0, "T", 0), ("S", 1, "T", 1)], [("S", 0)], [("T", 0)])


def _shifted_networks(rng):
    """Random injective networks over d = 3..6 whose plans shift some outcome."""
    nets = []
    for d, cap in ((3, 6), (4, 5), (5, 5), (6, 5)):
        while True:
            net = random_network(rng, d, require_injective=True, max_nodes=4, max_links=4,
                                 size_cap=cap)
            if build_schedule(compile_network(net), "constrained").shifts:
                nets.append(net)
                break
    return nets


def test_forced_constrained_runs_match_reverse_topological_reference():
    rng = np.random.default_rng(505)
    nets = [butterfly_swap(2), butterfly_swap(3), identity_wire(3), no_block_network(),
            _diamond(5)] + _shifted_networks(rng)
    for net in nets:
        geo = compile_network(net)
        psi = QuditState.haar_random(net.d, net.num_inputs, rng)
        for coherent, local_aux in ((False, False), (False, True), (True, False)):
            plan = build_schedule(geo, "constrained", local_aux=local_aux)
            forced = {lab: int(rng.integers(0, net.d)) for lab in _steps(plan, coherent)[3]}
            if coherent:
                out, rep = run_coherent(net, psi, mode="constrained", forced=forced)
            else:
                out, rep = run_mbqc(geo, psi, mode="constrained", forced=forced,
                                    local_aux=local_aux)
            ref_out, ledger, corrections, messages = _reverse_topological_reference(
                geo, psi, forced, local_aux, coherent)
            assert rep.outcomes == ledger
            assert rep.corrections == corrections
            assert rep.messages == messages
            assert fidelity(out, ref_out) >= 1 - 1e-12


def test_exhaustive_outcomes_label_the_simulated_branch():
    # without final corrections a branch's output still carries its outcomes,
    # so a forced run on an exhaustive outcome dict must land on that branch
    rng = np.random.default_rng(606)
    # a chain S -> V -> T also shifts the outcomes of S's outgoing messages
    nodes = [NodeSpec("S", RingMatrix([[1], [1]], 2)), NodeSpec("V", RingMatrix.identity(2, 2)),
             NodeSpec("T", RingMatrix([[0, 1]], 2))]
    links = [("S", 0, "V", 0), ("S", 1, "V", 1), ("V", 0, "T", 0), ("V", 1, "T", 1)]
    chain = CodingNetwork(2, nodes, links, [("S", 0)], [("T", 0)])
    for net in (_diamond(3), chain):
        geo = compile_network(net)
        psi = QuditState.haar_random(net.d, net.num_inputs, rng)
        for embed, node_step, local_aux in ((None, None, False), (None, None, True),
                                            (_embed_array, _embed, False)):
            plan = build_schedule(geo, "constrained", local_aux=local_aux)
            plan.final_corrections = []
            assert plan.shifts
            branches = list(_exhaustive(plan, psi, 2**16, embed=embed))
            assert len(branches) == net.d ** len(branches[0][0])
            for p in rng.choice(len(branches), size=6, replace=False):
                outcomes, state = branches[p]
                out, _rep = _run(plan, psi, None, outcomes, embed=node_step)
                assert fidelity(out, state) >= 1 - 1e-9


def test_partial_forced_outcome_needs_its_shift_forced():
    # the Z step on s1 reads the outcomes of S1's outgoing messages
    geo = compile_network(butterfly_swap(2))
    plan = build_schedule(geo, "constrained")
    assert {lab for lab, _c, _u in plan.shifts["s1"].terms} == {"m1", "m3"}
    order = plan.schedule.measurement_order()
    forced = {lab: 0 for lab in order if lab != "m3"}
    with pytest.raises(ValueError, match="forced outcome of s1 .* outcome of m3"):
        run_mbqc(geo, QuditState.basis(2, [0, 0]), mode="constrained", forced=forced, seed=0)


def test_impossible_outcome_reports_the_forced_value():
    # every outcome of the zero vector is impossible; the coherent path
    # measures the shifted s1 first, and reports the value asked for
    net = butterfly_swap(3)
    plan = build_schedule(compile_network(net), "constrained")
    forced = {lab: 0 for lab in _steps(plan, True)[3]}
    forced["m1"], forced["s1"] = 1, 2  # the simulation draws s1 = 2 - 1 = 1
    zero = QuditState(2, 3, np.zeros(9), normalize_check=False)
    with pytest.raises(ImpossibleOutcomeError, match="forced outcome 2 on s1"):
        run_coherent(net, zero, mode="constrained", forced=forced)


def test_constrained_no_block_solution_flagged():
    net = no_block_network()
    geo = compile_network(net)
    psi = bell_pair()
    oracle = oracle_output_state(composite_map(net), psi)
    out, rep = run_mbqc(geo, psi, mode="constrained", seed=6)
    assert rep.requires_out_of_network
    assert any(not m.over_network for m in rep.messages)
    assert fidelity(out, oracle) >= 1 - 1e-9


def test_non_injective_rejected():
    net = CodingNetwork(
        2,
        [NodeSpec("A", RingMatrix([[1, 1]], 2))],
        [],
        [("A", 0), ("A", 1)],
        [("A", 0)],
    )
    geo = compile_network(net)
    with pytest.raises(UnsupportedNetworkError):
        run_mbqc(geo, QuditState.basis(2, [0, 0]), seed=0)


def test_outcome_independence_sampled_d5():
    net = identity_wire(5)
    geo = compile_network(net)
    rng = np.random.default_rng(10)
    psi = QuditState.haar_random(5, 1, rng)
    for seed in range(25):
        out, _ = run_mbqc(geo, psi, mode="free", seed=seed)
        assert fidelity(out, psi) >= 1 - 1e-9


def test_exhaustive_generator_multicast_subset():
    # d=3 multicast has 3^18 branches; spot-check the generator agrees with
    # the oracle on a few hundred of them
    geo = compile_network(butterfly_multicast(3))
    psi = QuditState.basis(3, [2, 1])
    oracle = QuditState.basis(3, [2, 1, 2, 1])
    seen = 0
    for _outcomes, out in exhaustive_mbqc(geo, psi, mode="free"):
        assert fidelity(out, oracle) >= 1 - 1e-9
        seen += 1
        if seen >= 400:
            break
    assert seen == 400


def test_deferred_full_preparation_equals_eager_driver():
    # the runtime interleaves commuting projections with preparation to keep
    # the live register small; preparing the whole graph state first and
    # measuring in logical schedule order must give the same branch states
    from qlnc.mbqc import _Outcomes, _apply_correction, build_schedule, prepare_graph_state
    from qlnc.states import LabeledRegister

    nodes = [NodeSpec("S", RingMatrix([[1], [1]], 3)), NodeSpec("T", RingMatrix([[1, 1]], 3))]
    net = CodingNetwork(3, nodes, [("S", 0, "T", 0), ("S", 1, "T", 1)], [("S", 0)], [("T", 0)])
    geo = compile_network(net)
    rng = np.random.default_rng(3)
    psi = QuditState.haar_random(3, 1, rng)
    plan = build_schedule(geo, "free")
    order = plan.schedule.measurement_order()
    for trial in range(10):
        forced = {lab: int(rng.integers(0, 3)) for lab in order}
        eager, _ = run_mbqc(geo, psi, mode="free", forced=forced)

        full = prepare_graph_state(geo, psi)
        reg = LabeledRegister(full, [lab for lab, _k in geo.qudits])
        outcomes = _Outcomes(plan)
        for lab in order:
            outcomes.record(lab, reg.measure(lab, force=forced[lab]), "measure")
        corrections = []
        for correct, stage in plan.final_corrections:
            _apply_correction(reg, outcomes, correct, stage, corrections)
        deferred = reg.extract(geo.outputs)
        assert fidelity(eager, deferred) >= 1 - 1e-9


def test_source_also_target_node_runs():
    # a node may both receive a network input and produce a network output
    nodes = [NodeSpec("A", RingMatrix([[1], [1]], 3)), NodeSpec("B", RingMatrix([[2]], 3))]
    net = CodingNetwork(3, nodes, [("A", 1, "B", 0)], [("A", 0)], [("A", 0), ("B", 0)])
    geo = compile_network(net)
    rng = np.random.default_rng(44)
    psi = QuditState.haar_random(3, 1, rng)
    oracle = oracle_output_state(composite_map(net), psi)
    for mode in ("free", "constrained"):
        out, _rep = run_mbqc(geo, psi, mode=mode, seed=5)
        assert fidelity(out, oracle) >= 1 - 1e-9


def test_report_messages_free_mode():
    geo = compile_network(butterfly_swap(2))
    _out, rep = run_mbqc(geo, bell_pair(), mode="free", seed=11)
    assert all(not m.over_network and not m.backward for m in rep.messages)
    # every measured qudit reports to both target nodes
    assert len(rep.messages) == 18 * 2
