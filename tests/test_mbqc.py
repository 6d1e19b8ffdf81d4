"""One-way execution: schedules, byproduct adjustment, correction routing."""

import os
import time

import numpy as np
import pytest

from qlnc.bundled import butterfly_multicast, butterfly_swap, identity_wire
from qlnc.coherent import run_coherent
from qlnc.geometry import compile_network, label_sort_key
from qlnc.mbqc import (
    Correct,
    Measure,
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
from qlnc.states import QuditState, fidelity

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
    # constrained swap keeps 12 qudits live on the one-way path (7^12
    # amplitudes, 206 GiB) and 11 on the coherent path (13^11, 26 TiB)
    need = 3 * 16 * 7**12
    if os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") >= need:
        pytest.skip("this machine could hold the register")
    t0 = time.perf_counter()
    with pytest.raises(MemoryError, match="physical memory"):
        run_mbqc(compile_network(butterfly_swap(7)), QuditState.basis(7, [0, 0]),
                 mode="constrained", seed=0)
    with pytest.raises(MemoryError, match="physical memory"):
        run_coherent(butterfly_swap(13), QuditState.basis(13, [0, 0]),
                     mode="constrained", seed=0)
    assert time.perf_counter() - t0 < 5


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
