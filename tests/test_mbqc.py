"""One-way execution: schedules, byproduct adjustment, correction routing."""

import os
import subprocess
import sys
import time
import tracemalloc
from itertools import islice, zip_longest

import numpy as np
import pytest

from qlnc.bundled import butterfly_multicast, butterfly_swap, identity_wire
from qlnc.coherent import exhaustive_coherent, run_coherent
from qlnc.geometry import NodeGadget, compile_network, label_sort_key
from qlnc.coherent import _geometry_of
from qlnc.mbqc import (
    Correct,
    Measure,
    Send,
    _check_memory,
    _exhaustive,
    _phase_rows,
    _plan_for,
    _program,
    _run,
    _steps,
    branch_survey,
    build_schedule,
    exhaustive_mbqc,
    oracle_output_state,
    run_mbqc,
)
from qlnc.network import CodingNetwork, NodeSpec, UnsupportedNetworkError, composite_map
from qlnc.report import CorrectionRecord, MessageRecord, OutcomeRecord, RunReport
from qlnc.ring import RingMatrix
from qlnc.states import ImpossibleOutcomeError, QuditState, fidelity

from helpers import (
    DenseRegister,
    cx_embed,
    dense_f,
    dense_x,
    dense_z,
    graph_state,
    port_step,
    random_network,
)
from test_coherent import bell_pair, no_block_network


# -- outcome adjustment and phase corrections -------------------------

def _replays(d, upstream, raw, terms, adjusted):
    """Whether a ledger of the `upstream` adjusted outcomes, then one
    outcome raw -> adjusted with provenance `terms`, replays consistently:
    adjusted = raw - sum coeff * adjusted(upstream) mod d."""
    ledger = [OutcomeRecord(lab, v, v, "adjust") for lab, v in upstream.items()]
    ledger.append(OutcomeRecord("c'", raw, adjusted, "adjust", terms))
    return RunReport("mbqc", d, outcomes=ledger).ledger_replay_consistent()


def test_adjust_outcome_no_upstream():
    assert _replays(5, {}, 2, (), 2)
    assert not _replays(5, {}, 2, (), 3)


def test_adjust_outcome_subtracts_row_d2():
    upstream = {"u1'": 1, "u2'": 0}
    assert _replays(2, upstream, 1, (("u1'", 1), ("u2'", 1)), 0)
    assert not _replays(2, upstream, 1, (("u1'", 1), ("u2'", 1)), 1)


def test_adjust_outcome_subtracts_row_d5():
    upstream = {"u1'": 1, "u2'": 1}  # 2 - (3 + 4) = 0 mod 5
    assert _replays(5, upstream, 2, (("u1'", 3), ("u2'", 4)), 0)
    assert not any(_replays(5, upstream, 2, (("u1'", 3), ("u2'", 4)), a) for a in range(1, 5))


def test_ledger_replay_catches_one_changed_adjusted_outcome():
    geo = compile_network(butterfly_swap(3))
    _out, rep = run_mbqc(geo, QuditState.basis(3, [1, 2]), mode="constrained", seed=4)
    assert rep.ledger_replay_consistent()
    cascaded = [rec for rec in rep.outcomes if rec.provenance]
    assert cascaded
    for rec in (rep.outcomes[0], cascaded[-1]):
        kept = rec.adjusted
        rec.adjusted = (kept + 1) % 3
        assert not rep.ledger_replay_consistent()
        rec.adjusted = kept
    assert rep.ledger_replay_consistent()


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

    # a geometry of its own, so the shuffled run plans instead of replaying
    # the plan the first run kept on `geo`
    geo = compile_network(net)
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


def _free_left_inverse(plan, k, l):
    """A read back from the free plan's output Z corrections: the Z on t_h
    carries kappa_u[h] r_u with kappa_u = A^T lambda_u, and lambda = e_j for
    the input s_j, so the coefficient of s_j there is A[j][h]."""
    A = np.zeros((k, l), dtype=np.int64)
    for stage in plan.schedule.stages:
        for step in stage.steps:
            if isinstance(step, Correct) and step.op == "Z" and step.qudit.startswith("t"):
                for label, coeff, _use in step.terms:
                    if label.startswith("s"):
                        A[int(label[1:]) - 1, int(step.qudit[1:]) - 1] = coeff
    return RingMatrix(A, plan.matrix.d)


def test_build_schedule_exact_on_300_random_composite_networks():
    # composite d and up to 10 nodes, where integer-lift solvers overflowed
    rng = np.random.default_rng(2)
    planned = 0
    for _ in range(300):
        d = int(rng.choice([4, 6, 12, 30]))
        net = random_network(rng, d, max_nodes=10, max_links=16, max_ports=3, size_cap=99)
        geo = compile_network(net)
        try:
            free = build_schedule(geo, "free")
        except UnsupportedNetworkError:
            continue
        planned += 1
        M = free.matrix
        assert (_free_left_inverse(free, M.cols, M.rows) @ M).is_identity()
        plan = build_schedule(geo, "constrained")
        B = plan.block_B
        if B is None:
            assert plan.requires_out_of_network
            continue
        assert not plan.requires_out_of_network
        assert (M.T @ B @ M).is_identity()
        producer = [node for node, _port in net.target_outputs]
        for i, j in zip(*np.nonzero(B.a)):
            assert producer[i] == producer[j]
    assert planned >= 50


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


def test_exhaustive_respects_amplitude_limit(monkeypatch):
    # a measurement of swap over Z_2 writes the 2 children of a register
    # over the 2 inputs, 2^3 amplitudes
    geo = compile_network(butterfly_swap(2))
    monkeypatch.setattr("qlnc.mbqc._AMP_LIMIT", 2**2)
    with pytest.raises(MemoryError):
        list(exhaustive_mbqc(geo, QuditState.basis(2, [0, 0])))


def test_every_walker_respects_amplitude_limit(monkeypatch):
    # on both paths a measurement of swap over Z_2 writes the 2 children of
    # a register over the 2 inputs, 2^3 amplitudes
    psi = QuditState.basis(2, [0, 0])
    monkeypatch.setattr("qlnc.mbqc._AMP_LIMIT", 2**2)
    with pytest.raises(MemoryError, match="enumeration limit"):
        list(exhaustive_coherent(butterfly_swap(2), psi))
    with pytest.raises(MemoryError, match="enumeration limit"):
        branch_survey(compile_network(butterfly_swap(2)), psi)


def test_branch_survey_refuses_a_reference_off_the_output_register():
    # butterfly_swap(2) delivers two qudits of dimension 2: one d=4 qudit
    # has as many amplitudes, and three qudits do not fit the product
    geo, psi = compile_network(butterfly_swap(2)), QuditState.basis(2, [0, 1])
    for reference in (QuditState.basis(4, [1]), QuditState.basis(2, [0, 1, 0])):
        with pytest.raises(ValueError, match="reference state must have 2 qudits of dimension 2"):
            branch_survey(geo, psi, reference=reference)


def _generated(net, psi, mode, local_aux, limit=None):
    """The first `limit` branches of both exhaustive generators, as ordered
    outcome dicts and amplitude vectors."""
    one_way = exhaustive_mbqc(compile_network(net), psi, mode=mode, local_aux=local_aux)
    coherent = [] if local_aux else exhaustive_coherent(net, psi, mode=mode)
    return [[(outs, state.psi) for outs, state in islice(gen, limit)]
            for gen in (one_way, coherent)]


def _survey(net, psi, mode, local_aux):
    return branch_survey(compile_network(net), psi, mode=mode, local_aux=local_aux)


def _assert_same_branches(got, want):
    for branches, expected in zip(got, want):
        assert [outs for outs, _ in branches] == [outs for outs, _ in expected]
        for (_, amps), (_, ref) in zip(branches, expected):
            assert np.abs(amps - ref).max() <= 1e-12


def _chunk_cases():
    modes = (("free", False), ("constrained", False), ("constrained", True))
    rng = np.random.default_rng(2024)
    swap_psi = QuditState.haar_random(2, 2, rng)
    swap = [(butterfly_swap(2), swap_psi, mode, local) for mode, local in modes]
    nets = []
    for i in range(20):
        d = 2 + i % 5
        net = random_network(rng, d, require_injective=True, max_nodes=3, max_links=3,
                             size_cap=5)
        nets.append((net, QuditState.haar_random(d, net.num_inputs, rng), *modes[i % 3]))
    return swap, nets


def test_chunked_walks_keep_branch_order(monkeypatch):
    # one row per chunk: every batch of two or more branches is split, and the
    # rows left on the stack must come back in order after their children.
    # The 2^18 one-way swap branches are compared on a prefix, which splits
    # every measurement level; the coherent swap has 2^6 branches at most.
    swap, nets = _chunk_cases()
    want = [(_generated(*case), _survey(*case)) for case in nets]
    swap_want = [_generated(*case, limit=1500) for case in swap]
    monkeypatch.setattr("qlnc.mbqc._CHUNK_AMPS", 1)
    for case, (branches, (count, worst)) in zip(nets, want):
        _assert_same_branches(_generated(*case), branches)
        got_count, got_worst = _survey(*case)
        assert got_count == count
        assert abs(got_worst - worst) <= 1e-12
    for case, branches in zip(swap, swap_want):
        _assert_same_branches(_generated(*case, limit=1500), branches)


def test_chunked_swap_survey_matches_unchunked(monkeypatch):
    # chunks of 251 rows of the 2 children of a register over the 2 inputs,
    # so chunk boundaries fall inside the children of one parent
    swap, _nets = _chunk_cases()
    want = [_survey(*case) for case in swap]
    monkeypatch.setattr("qlnc.mbqc._CHUNK_AMPS", 251 * 2**3)
    for case, (count, worst) in zip(swap, want):
        got_count, got_worst = _survey(*case)
        assert got_count == count == 2**18
        assert abs(got_worst - worst) <= 1e-12


def _copies(d, n):
    """One input copied onto n outputs at one node."""
    return CodingNetwork(d, [NodeSpec("S", RingMatrix([[1]] * n, d))], [], [("S", 0)],
                         [("S", j) for j in range(n)])


def _sum_node(d, p):
    """A sum node with p in-ports, fed by one input copied onto p links."""
    nodes = [NodeSpec("S", RingMatrix([[1]] * p, d)), NodeSpec("T", RingMatrix([[1] * p], d))]
    return CodingNetwork(d, nodes, [("S", j, "T", j) for j in range(p)], [("S", 0)], [("T", 0)])


def test_single_runs_refuse_registers_beyond_physical_memory():
    # on both paths a register holds the amplitudes over the inputs, or the
    # outputs: swap over Z_101 peaks at the 101^3 children of its 101^2
    # input values, and one input copied onto 6 outputs over Z_101 needs
    # 101^6 amplitudes, 34 TB of working memory
    copies = _copies(101, 6)
    plan = build_schedule(compile_network(copies), "constrained")
    swap_plan = build_schedule(compile_network(butterfly_swap(101)), "constrained")
    peaks = [_program(p, coherent).peak for p in (plan, swap_plan) for coherent in (False, True)]
    assert peaks == [6, 6, 3, 3]
    if os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") >= 2 * 16 * 101**6:
        pytest.skip("this machine could hold the register")
    t0 = time.perf_counter()
    with pytest.raises(MemoryError, match="physical memory"):
        run_mbqc(compile_network(copies), QuditState.basis(101, [0]), mode="constrained", seed=0)
    with pytest.raises(MemoryError, match="physical memory"):
        run_coherent(copies, QuditState.basis(101, [0]), mode="constrained", seed=0)
    assert time.perf_counter() - t0 < 5


def test_coherent_node_step_tables_wait_for_the_memory_check(monkeypatch):
    # a sum node with 13 in-ports, fed by one input copied onto 13 links, at
    # d=2: the dense coherent step moved 2^13 amplitude pairs by an index
    # table.  The input-basis program keeps no node step and no node table:
    # one phase kernel for the one form every measured qudit holds, the
    # output's Z correction on the input axis, and the scatter's index over
    # the 2 input values, all waiting for the check, which also counts the
    # shared 2 x 2 phase table the kernels read
    p = 13
    net = _sum_node(2, p)
    geo = compile_network(net)
    prog = _program(build_schedule(geo, "free"), coherent=True)
    assert [step[0] for step in prog.steps] == ["measure"] * (p + 1) + ["corr", "node"]
    assert len({step[3] for step in prog.steps if step[0] == "measure"}) == 1
    assert not [key for key in geo._memo if key[0] == "node"]
    assert (prog.peak, prog.table_bytes) == (2, 16 * 2 * 2 + 8 * 2 + 16 * 2**2)
    monkeypatch.setattr("qlnc.mbqc.os.sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 0}.get)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="physical memory"):
            run_coherent(net, QuditState.basis(2, [1]), forced=[0] * (p + 1))
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * 2**(p + 1)


def test_memory_check_counts_every_table_a_program_keeps(monkeypatch):
    # a sum node with 19 in-ports over Z_1024, fed by one input copied onto
    # 19 links: both paths hold a register over the 1024 input values and
    # its 1024 children, one phase table of 1024 x 1024 entries for the one
    # form its measured qudits hold, the scatter's 1024 indices and the
    # shared phase table.  The one-way path also keeps the 1024 factors of
    # the zero form's kernel, which its port steps take.  Sizes are computed
    # here, not allocated.
    p, d = 19, 1024
    net = _sum_node(d, p)
    geo = compile_network(net)
    coh = _program(build_schedule(_geometry_of(net), "free"), coherent=True)
    one = _program(build_schedule(geo, "free"))
    table, psi = 16 * d**2, QuditState.basis(d, [1])
    cases = ((coh, 2 * table + 8 * d, lambda: run_coherent(net, psi, seed=0)),
             (one, 2 * table + 8 * d + 16 * d, lambda: run_mbqc(geo, psi, seed=0)))
    for prog, tables, run in cases:
        assert (prog.peak, prog.table_bytes) == (2, tables)
        need = 2 * 16 * d**2 + tables
        monkeypatch.setattr("qlnc.mbqc.os.sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}.get)
        _check_memory(d, 2, tables)  # fits exactly
        monkeypatch.setattr("qlnc.mbqc.os.sysconf",
                            {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}.get)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="physical memory"):
                run()
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < need


def test_memory_check_counts_the_shared_tables_a_run_reads(monkeypatch):
    # a run fills the process-wide table cache (states._TABLES) with the
    # phase table its measurements and corrections read, and its program
    # counts it: on an empty cache it fits in its table_bytes, and after a
    # warm-up the run leaves no more allocated than table_bytes and 64 KiB
    # of records.  The first bound alone holds even with the cache
    # uncounted; the second then fails by 4.0 MB (d = 503, coherent) and
    # 106 KB (d = 101, one-way)
    wide, geo = identity_wire(503), compile_network(identity_wire(101))
    run_coherent(identity_wire(3), QuditState.basis(3, [1]), seed=0)
    run_mbqc(compile_network(identity_wire(3)), QuditState.basis(3, [1]), seed=0)
    cases = ((lambda: run_coherent(wide, QuditState.basis(503, [7]), seed=0),
              lambda: _program(_plan_for(_geometry_of(wide), "free"), coherent=True)),
             (lambda: run_mbqc(geo, QuditState.basis(101, [7]), seed=0),
              lambda: _program(_plan_for(geo, "free"))))
    for run, program in cases:
        tables = {}
        monkeypatch.setattr("qlnc.states._TABLES", tables)
        tracemalloc.start()
        try:
            _out, rep = run()
            left, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(table.nbytes for table in tables.values())
        assert rep.fidelity_vs_oracle >= 1 - 1e-9
        assert 0 < held <= program().table_bytes
        assert left <= program().table_bytes + 2**16, (left, program().table_bytes)


def test_single_run_peaks_within_what_the_memory_check_counts():
    # a measurement renormalizes its kept child into a fresh row and frees
    # its children, so a run's traced peak is the two registers and the
    # tables the check counts, not a renormalized copy on top of them.  On
    # both paths: 16 inputs through an identity node at d=2, where the d
    # children of the 2^16 input-basis amplitudes dominate; it is planned,
    # and its outcomes forced, before the trace, which then holds the run alone
    ident = CodingNetwork(2, [NodeSpec("A", RingMatrix.identity(16, 2))], [],
                          [("A", j) for j in range(16)], [("A", j) for j in range(16)])
    geo = compile_network(ident)
    wide_psi = QuditState.basis(2, [1, 0] * 8)
    cases = ((_program(_plan_for(_geometry_of(ident), "free"), coherent=True), 17,
              lambda: run_coherent(ident, wide_psi, forced=[0] * 16)),
             (_program(_plan_for(geo, "free")), 17,
              lambda: run_mbqc(geo, wide_psi, forced=[0] * 32)))
    for prog, peak_qudits, run in cases:
        assert peak_qudits == prog.peak
        counted = 2 * 16 * 2**prog.peak + prog.table_bytes
        tracemalloc.start()
        try:
            _out, rep = run()
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.fidelity_vs_oracle >= 1 - 1e-9
        assert peak <= 1.05 * counted, (peak, counted)


def test_interleaved_walks_yield_what_they_yield_alone(monkeypatch):
    # every work array of a walk comes from its buffers here, one branch per
    # chunk: two walks alive at once must never write into each other's
    # buffers, and a yielded state must never be a view into one
    monkeypatch.setattr("qlnc.mbqc._CHUNK_AMPS", 1)
    monkeypatch.setattr("qlnc.mbqc._SPARE", [])
    rng = np.random.default_rng(99)
    wire, swap = identity_wire(3), butterfly_swap(2)
    wire_geo, swap_geo = compile_network(wire), compile_network(swap)
    wire_psi = QuditState.haar_random(3, 1, rng)
    psi_a, psi_b = (QuditState.haar_random(2, 2, rng) for _ in range(2))
    pairs = [
        lambda: (exhaustive_mbqc(wire_geo, wire_psi), exhaustive_coherent(wire, wire_psi)),
        lambda: (exhaustive_mbqc(swap_geo, psi_a, mode="constrained"),
                 exhaustive_coherent(swap, psi_b)),
        lambda: (exhaustive_mbqc(swap_geo, psi_a, mode="constrained"),
                 exhaustive_mbqc(swap_geo, psi_b)),
    ]
    for walks in pairs:
        alone = [[(outs, state.psi.copy()) for outs, state in islice(walk, 600)]
                 for walk in walks()]
        kept = ([], [])
        for got in zip_longest(*(islice(walk, 600) for walk in walks())):
            for k, branch in enumerate(got):
                if branch is not None:
                    kept[k].append(branch)
        for k in (0, 1):
            # compared once both walks have moved on: every state kept its amplitudes
            assert [outs for outs, _ in kept[k]] == [outs for outs, _ in alone[k]]
            for (_, state), (_, amps) in zip(kept[k], alone[k]):
                assert np.array_equal(state.psi, amps)


_FAULT_SCRIPT = """
import resource
from qlnc import QuditState, compile_network, identity_wire
from qlnc.mbqc import branch_survey
geo = compile_network(identity_wire(32))
psi = QuditState.basis(32, [5])
for _ in range(3):
    branch_survey(geo, psi)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
count, worst = branch_survey(geo, psi)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert count == 1024 and worst >= 1 - 1e-9
print(after - before)
"""


def test_repeated_walks_reuse_their_pages():
    # the free one-way walk of a d=32 wire: 1024 branches in chunk arrays of
    # 32^3 amplitudes (512 KiB).  A walk reuses the work buffers the last one
    # left, so from the second walk on it faults in no fresh pages
    pytest.importorskip("resource")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 64


_PEAK_SCRIPT = """
from qlnc import CodingNetwork, NodeSpec, QuditState, RingMatrix, compile_network, run_mbqc


def status_kib(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))


ident = CodingNetwork(13, [NodeSpec("A", RingMatrix.identity(5, 13))], [],
                      [("A", j) for j in range(5)], [("A", j) for j in range(5)])
geo = compile_network(ident)
psi = QuditState.basis(13, [1, 2, 3, 4, 5])
base = status_kib("VmRSS")
_out, rep = run_mbqc(geo, psi, mode="free", seed=0)
assert rep.fidelity_vs_oracle >= 1 - 1e-9
print(status_kib("VmHWM") - base)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM and VmRSS")
def test_single_run_peaks_below_one_and_a_half_registers():
    # a one-way run of an identity node on 5 inputs over Z_13 peaks at the
    # 13 children of its 13^5 input-basis amplitudes: 13^6 amplitudes, a
    # 74 MiB register.  A kept child is renormalized into a fresh row of
    # 1/13 of that and the children are freed before the next measurement.
    # The child reads its own peak from /proc: its ru_maxrss would start at
    # the RSS of the process that forked it
    ident = CodingNetwork(13, [NodeSpec("A", RingMatrix.identity(5, 13))], [],
                          [("A", j) for j in range(5)], [("A", j) for j in range(5)])
    assert _program(build_schedule(compile_network(ident), "free")).peak == 6
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    peak_registers = int(done.stdout) * 1024 / (16 * 13**6)
    assert peak_registers < 1.5


# Raw outcomes in ledger order of seeded runs on a Haar input, as sampled
# before single runs moved onto the branch walker's kernels; a seed keeps
# its outcomes across changes to the kernels.
_PINNED_OUTCOMES = {
    ("swap3", "mbqc-free"): ["100022121220202021", "120201211021020101", "002012000110121122"],
    ("swap3", "mbqc-constrained"): ["100212220210202122", "122020201012022210",
                                    "000101111222100011"],
    ("swap3", "mbqc-local-aux"): ["100212220210202122", "122020201012022210",
                                  "000101111222100011"],
    ("swap3", "coherent-free"): ["100022121", "120201211", "002012000"],
    ("swap3", "coherent-constrained"): ["212112221", "111200222", "002011202"],
    ("multicast2", "mbqc-free"): ["10001111111010101100", "11010010101101000000",
                                  "00101100011001011100"],
    ("multicast2", "mbqc-constrained"): ["10011111011001001100", "11101010100000011010",
                                         "00010110111000111100"],
    ("multicast2", "mbqc-local-aux"): ["10011111011001001100", "11101010100000011010",
                                       "00010110111000111100"],
    ("multicast2", "coherent-free"): ["100011111", "110100101", "001011000"],
    ("multicast2", "coherent-constrained"): ["111111110", "010100110", "001010111"],
}


def test_seeded_runs_keep_their_outcomes():
    nets = {"swap3": butterfly_swap(3), "multicast2": butterfly_multicast(2)}
    for (name, config), pinned in _PINNED_OUTCOMES.items():
        net = nets[name]
        geo = compile_network(net)
        psi = QuditState.haar_random(net.d, net.num_inputs, np.random.default_rng(1307))
        path, mode = config.split("-", 1)
        got = []
        for seed in (0, 1, 2):
            if path == "coherent":
                _out, rep = run_coherent(net, psi, mode=mode, seed=seed)
            else:
                _out, rep = run_mbqc(geo, psi, mode="free" if mode == "free" else "constrained",
                                     seed=seed, local_aux=mode == "local-aux")
            assert rep.fidelity_vs_oracle >= 1 - 1e-9
            got.append("".join(str(rec.raw) for rec in rep.outcomes))
        assert got == pinned, (name, config)


def test_partial_forced_outcomes_without_seed_name_the_missing_qudit():
    net = butterfly_swap(2)
    geo = compile_network(net)
    psi = QuditState.basis(2, [1, 0])
    # the error names the first unforced qudit in simulation order: the
    # auxiliary qudit of node S1 on the one-way path, the other source s2 on
    # the coherent path, which measures s1 first
    for mode in ("free", "constrained"):
        with pytest.raises(ValueError, match="outcome of m1' is neither forced nor sampled"):
            run_mbqc(geo, psi, mode=mode, forced={"s1": 0})
        with pytest.raises(ValueError, match="outcome of s2 is neither forced nor sampled"):
            run_coherent(net, psi, mode=mode, forced={"s1": 0})


def test_forced_labels_the_path_does_not_measure_are_refused():
    net = identity_wire(2)
    psi = QuditState.basis(2, [1])
    # a typo beside valid labels, and a one-way label on the coherent path
    with pytest.raises(ValueError, match="forced outcome for 'S1'"):
        run_mbqc(compile_network(net), psi, forced={"s1": 1, "S1": 0, "t1'": 0}, seed=3)
    with pytest.raises(ValueError, match="forced outcome for \"t1'\""):
        run_coherent(net, psi, forced={"s1": 1, "t1'": 1})


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
                peaks.append(max(_program(plan, coherent).live))
            assert peaks[0] == peaks[1]


def test_port_rule_matches_the_dense_port_step_and_measurement():
    # a port step and its auxiliary's Fourier measurement with outcome r
    # leave the message qudit holding V[j] . x_in - r and scale every
    # amplitude by 1/sqrt(d): the dense register after port_step, F^dagger
    # on the auxiliary and r forced is the input-basis row times 1/sqrt(d)
    # at that message value and zero elsewhere, and the zero form's kernel,
    # which the resolver gives every auxiliary, writes exactly those rows
    rng = np.random.default_rng(2207)
    for d in (2, 3, 4, 6):
        for _ in range(4):
            n_in, n_out = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            weights = rng.integers(0, d, (n_out, n_in)) * (rng.random((n_out, n_in)) < 0.7)
            ins = tuple(f"in{k}" for k in range(n_in))
            gadget = NodeGadget("N", ins, tuple(f"N{j}'" for j in range(n_out)),
                                tuple(f"N{j}" for j in range(n_out)), RingMatrix(weights, d))
            j = int(rng.integers(n_out))
            amps = rng.normal(size=d**n_in) + 1j * rng.normal(size=d**n_in)
            amps /= np.linalg.norm(amps)
            children = np.empty((d,) + (d,) * n_in, dtype=np.complex128)
            nrm2 = _phase_rows((0,) * n_in, d)(amps.reshape((1,) + (d,) * n_in), d, children)
            x = np.indices((d,) * n_in)
            message = sum(int(w) * x[k] for k, w in enumerate(weights[j])) % d
            for r in range(d):
                reg = DenseRegister(QuditState(n_in, d, amps), ins)
                port_step(reg, gadget, j)
                reg.gate(dense_f(d, inverse=True), gadget.aux_labels[j])
                want = np.take(reg.t, r, axis=reg.labels.index(gadget.aux_labels[j]))
                got = np.zeros((d,) * (n_in + 1), dtype=np.complex128)
                np.put_along_axis(got, ((message - r) % d)[..., None], children[r][..., None], -1)
                assert np.abs(got - want).max() <= 1e-12
                assert np.abs(children[r] - amps.reshape((d,) * n_in) / np.sqrt(d)).max() <= 1e-15
                assert abs(nrm2[r] - np.vdot(want, want).real) <= 1e-12
    # no one-way program holds a node step but the scatter, and every
    # auxiliary's measurement only scales its row by 1/sqrt(d)
    nets = [butterfly_swap(2), butterfly_swap(3), butterfly_multicast(2), identity_wire(3)]
    nets += [random_network(rng, 2 + i % 5, require_injective=True, max_nodes=5, max_links=6,
                            size_cap=7) for i in range(20)]
    for net in nets:
        geo = compile_network(net)
        d, k = geo.d, len(geo.inputs)
        auxes = sorted(lab for gadget in geo.gadgets for lab in gadget.aux_labels)
        row = rng.normal(size=(1,) + (d,) * k) + 1j * rng.normal(size=(1,) + (d,) * k)
        for mode, local_aux in (("free", False), ("constrained", False), ("constrained", True)):
            prog = _program(build_schedule(geo, mode, local_aux=local_aux))
            assert [step[0] for step in prog.steps].count("node") == 1
            ports = [step for step in prog.steps if step[0] == "measure" and step[1] in auxes]
            assert sorted(step[1] for step in ports) == auxes
            for _, _label, _i, kernel in ports:
                children = np.empty((d,) + (d,) * k, dtype=np.complex128)
                kernel(row, d, children)
                assert np.abs(children - row / np.sqrt(d)).max() <= 1e-15


# -- the dict reference of the outcome algebra --------------------------

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
            adjusted = (r - sum(c * self.adjusted[lab] for lab, c in terms)) % d
            self.adjusted[label] = adjusted
            self.ledger.append(OutcomeRecord(label, r % d, adjusted, stage,
                                             tuple((lab, c % d) for lab, c in terms)))

    def exponent(self, correct: Correct):
        return sum(c * (self.raw if use == "raw" else self.adjusted)[lab]
                   for lab, c, use in correct.terms) % self.plan.geometry.d


def _materialize_messages(plan, outcomes, sigma_link_values, coherent):
    messages = []
    for stage in plan.schedule.stages:
        for step in stage.steps:
            if not isinstance(step, Send):
                continue
            kind, label = step.payload
            if coherent and kind in ("raw", "adjusted") and label.endswith("'"):
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


def _apply_correction(reg, outcomes, correct, stage, corrections):
    """A correction applied to the dense register, with its record."""
    exp = int(outcomes.exponent(correct))
    gate = dense_x if correct.op == "X" else dense_z
    reg.gate(gate(reg.d, exp), correct.qudit)
    corrections.append(CorrectionRecord(correct.op, correct.qudit, exp, stage))


def _node_step(reg, gadget, coherent):
    """A node's step: its cX embedding, or its one-way port steps."""
    if coherent:
        cx_embed(reg, gadget)
    else:
        for j in range(len(gadget.out_labels)):
            port_step(reg, gadget, j)


def _reverse_topological_reference(geo, psi, forced, local_aux, coherent, ops="XZ"):
    """A constrained run in the logical schedule's order: each node step at
    its auxiliary-measurement stage, each Z step applied and its qudit then
    measured in reverse topological order, and the final corrections whose
    op is in `ops` last."""
    plan = build_schedule(geo, "constrained", local_aux=local_aux)
    skip = (lambda q: q.endswith("'")) if coherent else (lambda q: False)
    gadgets = {g.node_id: g for g in geo.gadgets}
    reg = DenseRegister(psi, geo.inputs)
    finals = [(c, stage) for c, stage in plan.final_corrections
              if c.op in ops and not any(skip(lab) for lab, _c, _u in c.terms)]
    outcomes, corrections = _Outcomes(plan), []
    for stage in plan.schedule.stages:
        if stage.name.startswith("aux-measure "):
            _node_step(reg, gadgets[stage.name.split()[1]], coherent)
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
    return reg.state(geo.outputs), outcomes.ledger, corrections, messages


def _free_graph_reference(geo, psi, forced, ops="XZ"):
    """A free one-way run on the whole graph state: every qudit measured in
    the schedule's order, as forced, then the final corrections whose op is
    in `ops`."""
    plan = build_schedule(geo, "free")
    reg, outcomes = graph_state(geo, psi), _Outcomes(plan)
    for lab in plan.schedule.measurement_order():
        outcomes.record(lab, reg.measure(lab, force=forced[lab]), "measure")
    for correct, stage in plan.final_corrections:
        if correct.op in ops:
            _apply_correction(reg, outcomes, correct, stage, [])
    return reg.state(geo.outputs)


def _free_gate_reference(geo, psi, forced):
    """A free coherent run at the gate level: each node's cX embedding on
    the dense register with its inputs then measured, as forced, and the
    output Z corrections last."""
    plan = build_schedule(geo, "free")
    reg, outcomes = DenseRegister(psi, geo.inputs), _Outcomes(plan)
    for gadget in geo.gadgets:
        cx_embed(reg, gadget)
        for lab in sorted(gadget.in_labels, key=label_sort_key):
            outcomes.record(lab, reg.measure(lab, force=forced[lab]), "measure")
    for correct, stage in plan.final_corrections:
        if not any(lab.endswith("'") for lab, _c, _u in correct.terms):
            _apply_correction(reg, outcomes, correct, stage, [])
    return reg.state(geo.outputs)


@pytest.mark.parametrize("d,branches", [(4, 256), (6, 36), (12, 144), (30, 30)])
def test_coherent_branches_match_the_gate_level_reference(d, branches):
    # every branch of the input-basis walk against a dense gate-level replay
    # of its outcomes (free: node by node; constrained: the logical schedule
    # in reverse topological order), and forced runs against the branch
    # their outcome dict names.  Trees are kept small since each branch is
    # replayed alone: with links below d = 30, with two inputs at d = 4
    rng = np.random.default_rng(1700 + d)
    nets = []
    while len(nets) < 2:
        net = random_network(rng, d, require_injective=True, max_nodes=4, max_links=3,
                             size_cap={4: 6, 30: 3}.get(d, 5))
        k, m = net.num_inputs, len(net.links)
        if d**(k + m) <= branches and (m or d == 30) and (nets or d > 4 or k > 1):
            nets.append(net)
    for net in nets:
        geo = compile_network(net)
        psi = QuditState.haar_random(d, net.num_inputs, rng)
        for mode in ("free", "constrained"):
            tree = list(exhaustive_coherent(net, psi, mode=mode))
            assert len(tree) == d ** (net.num_inputs + len(net.links))
            for outcomes, state in tree:
                if mode == "free":
                    ref = _free_gate_reference(geo, psi, outcomes)
                else:
                    ref = _reverse_topological_reference(geo, psi, outcomes, False, True)[0]
                assert np.abs(state.psi - ref.psi).max() <= 1e-12
            for i in rng.choice(len(tree), size=3, replace=False):
                outcomes, state = tree[i]
                out, _rep = run_coherent(net, psi, mode=mode, forced=outcomes)
                assert np.abs(out.psi - state.psi).max() <= 1e-12


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


def _partial_run(geo, psi, forced, mode, local_aux, ops):
    """The output amplitudes of a forced one-way run of a plan that keeps
    only the final corrections whose op is in `ops`."""
    plan = build_schedule(geo, mode, local_aux=local_aux)
    plan.final_corrections = [(c, stage) for c, stage in plan.final_corrections if c.op in ops]
    return _run(plan, psi, None, forced)[0].psi


def test_forced_constrained_runs_match_reverse_topological_reference():
    # forced runs against a dense replay, element-wise, global phase
    # included: constrained runs of both paths against the logical schedule
    # in reverse topological order, free one-way runs against the whole
    # graph state where it holds at most 2^20 amplitudes.  The one-way runs
    # are replayed again without their final corrections, where the outputs
    # keep their outcome offsets and shift after the scatter, and with their
    # final Z corrections alone, which act on outputs that hold offsets
    rng = np.random.default_rng(505)
    nets = [butterfly_swap(2), butterfly_swap(3), identity_wire(3), no_block_network(),
            _diamond(5)] + _shifted_networks(rng)
    free_checked = 0
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
            assert np.abs(out.psi - ref_out.psi).max() <= 1e-12
            for ops in ("", "Z") if not coherent else ():
                want = _reverse_topological_reference(geo, psi, forced, local_aux, False, ops)[0]
                got = _partial_run(geo, psi, forced, "constrained", local_aux, ops)
                assert np.abs(got - want.psi).max() <= 1e-12
        if net.d ** len(geo.qudits) > 2**20:
            continue
        free_checked += 1
        plan = build_schedule(geo, "free")
        forced = {lab: int(rng.integers(0, net.d)) for lab in _steps(plan, False)[3]}
        out, _rep = run_mbqc(geo, psi, mode="free", forced=forced)
        assert np.abs(out.psi - _free_graph_reference(geo, psi, forced).psi).max() <= 1e-12
        for ops in ("", "Z"):
            want = _free_graph_reference(geo, psi, forced, ops)
            got = _partial_run(geo, psi, forced, "free", False, ops)
            assert np.abs(got - want.psi).max() <= 1e-12
    assert free_checked >= 5


def _records_from_raw(plan, raw, coherent):
    """A run's ledger, corrections and messages, rebuilt by the dict
    reference from its raw outcomes in report order."""
    _ops, report_ops, finals, _order = _steps(plan, coherent)
    outcomes, corrections = _Outcomes(plan), []
    for kind, item, stage in report_ops + [("corr", c, stage) for c, stage in finals]:
        if kind == "measure":
            outcomes.record(item, raw[item], stage)
        else:
            corrections.append(
                CorrectionRecord(item.op, item.qudit, int(outcomes.exponent(item)), stage))
    links = _classical_link_values(plan, outcomes.raw) if plan.block_B is not None else {}
    return outcomes.ledger, corrections, _materialize_messages(plan, outcomes, links, coherent)


def test_seeded_reports_match_dict_reference():
    # a run reads its records off the step program's integer rows; the dict
    # reference rebuilds them from the reported raw outcomes alone
    rng = np.random.default_rng(909)
    nets = [no_block_network(), butterfly_swap(3)]  # sigma-direct, sigma-route
    for i in range(18):
        nets.append(random_network(rng, 2 + i % 5, require_injective=True, max_nodes=4,
                                   max_links=4, size_cap=6))
    payloads = set()
    for net in nets:
        geo = compile_network(net)
        psi = QuditState.haar_random(net.d, net.num_inputs, rng)
        for mode, local_aux, coherent in (("free", False, False), ("constrained", False, False),
                                          ("constrained", True, False), ("free", False, True),
                                          ("constrained", False, True)):
            plan = build_schedule(geo, mode, local_aux=local_aux)
            for seed in range(2):
                if coherent:
                    _out, rep = run_coherent(net, psi, mode=mode, seed=seed)
                else:
                    _out, rep = run_mbqc(geo, psi, mode=mode, seed=seed, local_aux=local_aux)
                raw = {rec.qudit: rec.raw for rec in rep.outcomes}
                ledger, corrections, messages = _records_from_raw(plan, raw, coherent)
                assert rep.outcomes == ledger
                assert rep.corrections == corrections
                assert rep.messages == messages
                payloads.update(m.payload.split("(")[0] for m in rep.messages)
    assert payloads == {"outcome", "adjusted", "sigma-share", "sigma-contribution"}


def test_exhaustive_outcomes_label_the_simulated_branch(monkeypatch):
    # without final corrections a branch's output still carries its outcomes,
    # so a forced run on an exhaustive outcome dict must land on that branch
    rng = np.random.default_rng(606)
    # a chain S -> V -> T also shifts the outcomes of S's outgoing messages
    nodes = [NodeSpec("S", RingMatrix([[1], [1]], 2)), NodeSpec("V", RingMatrix.identity(2, 2)),
             NodeSpec("T", RingMatrix([[0, 1]], 2))]
    links = [("S", 0, "V", 0), ("S", 1, "V", 1), ("V", 0, "T", 0), ("V", 1, "T", 1)]
    chain = CodingNetwork(2, nodes, links, [("S", 0)], [("T", 0)])
    monkeypatch.setattr("qlnc.mbqc._AMP_LIMIT", 2**16)
    for net in (_diamond(3), chain):
        geo = compile_network(net)
        psi = QuditState.haar_random(net.d, net.num_inputs, rng)
        for coherent, local_aux in ((False, False), (False, True), (True, False)):
            plan = build_schedule(geo, "constrained", local_aux=local_aux)
            plan.final_corrections = []
            assert plan.shifts
            branches = list(_exhaustive(plan, psi, coherent))
            assert len(branches) == net.d ** len(branches[0][0])
            for p in rng.choice(len(branches), size=6, replace=False):
                outcomes, state = branches[p]
                out, _rep = _run(plan, psi, None, outcomes, coherent)
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

        reg = graph_state(geo, psi)
        outcomes = _Outcomes(plan)
        for lab in order:
            outcomes.record(lab, reg.measure(lab, force=forced[lab]), "measure")
        corrections = []
        for correct, stage in plan.final_corrections:
            _apply_correction(reg, outcomes, correct, stage, corrections)
        deferred = reg.state(geo.outputs)
        assert fidelity(eager, deferred) >= 1 - 1e-9


def test_entry_points_refuse_an_input_of_the_wrong_shape():
    net = butterfly_swap(3)
    geo = compile_network(net)
    entry_points = (
        lambda psi: run_mbqc(geo, psi, seed=0),
        lambda psi: run_coherent(net, psi, seed=0),
        lambda psi: branch_survey(geo, psi),
        lambda psi: next(exhaustive_mbqc(geo, psi)),
        lambda psi: next(exhaustive_coherent(net, psi)),
    )
    for psi in (QuditState.basis(2, [0, 0]), QuditState.basis(3, [0]),
                QuditState.basis(3, [0, 0, 0])):
        for enter in entry_points:
            with pytest.raises(ValueError, match="must have 2 qudits of dimension 3"):
                enter(psi)


def test_build_schedule_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        build_schedule(compile_network(identity_wire(2)), "bogus")


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
