"""Coherent simulation: embeddings, corrections, and end-to-end runs."""

import numpy as np
import pytest

from qlnc.bundled import butterfly_multicast, butterfly_swap, identity_wire
from qlnc.coherent import (
    embed_node,
    exhaustive_coherent,
    node_phase_correction,
    run_coherent,
)
from qlnc.geometry import compile_network
from qlnc.mbqc import oracle_output_state
from qlnc.network import CodingNetwork, NodeSpec, UnsupportedNetworkError, composite_map
from qlnc.ring import RingMatrix
from qlnc.states import LabeledRegister, QuditState, fidelity

from helpers import random_network


def bell_pair(d=2):
    psi = np.zeros(d * d, dtype=complex)
    for v in range(d):
        psi[v * d + v] = 1 / np.sqrt(d)
    return QuditState(2, d, psi)


# -- embed_node ------------------------------------------------------

def test_embed_sum_mod_3():
    V = RingMatrix([[1, 1]], 3)
    state = QuditState.basis(3, [1, 2, 0])
    out = embed_node(state, V, in_axes=[0, 1], out_axes=[2])
    assert fidelity(out, QuditState.basis(3, [1, 2, 0])) == pytest.approx(1.0)


def test_embed_identity_copies_basis():
    V = RingMatrix.identity(2, 5)
    state = QuditState.basis(5, [3, 4, 0, 0])
    out = embed_node(state, V, in_axes=[0, 1], out_axes=[2, 3])
    assert fidelity(out, QuditState.basis(5, [3, 4, 3, 4])) == pytest.approx(1.0)


def test_embed_parity_node_d2():
    V = RingMatrix([[-1, -1]], 2)
    state = QuditState.basis(2, [1, 1, 0])
    out = embed_node(state, V, in_axes=[0, 1], out_axes=[2])
    assert fidelity(out, QuditState.basis(2, [1, 1, 0])) == pytest.approx(1.0)


def test_embed_shape_mismatch():
    with pytest.raises(ValueError):
        embed_node(QuditState.basis(2, [0, 0]), RingMatrix([[1, 1]], 2), [0], [1])


def test_basis_values_track_dependence_rows():
    # forward pass on a basis input leaves every qudit in the basis state
    # predicted by its dependence row
    rng = np.random.default_rng(31)
    for _ in range(10):
        net = random_network(rng, 3, max_nodes=4, max_links=5)
        geo = compile_network(net)
        x = rng.integers(0, 3, size=net.num_inputs)
        reg = LabeledRegister(QuditState.basis(3, list(x)), geo.inputs)
        for gadget in geo.gadgets:
            reg.add(list(gadget.out_labels), fill="zero")
            reg.state = embed_node(
                reg.state,
                gadget.matrix,
                [reg.axis[l] for l in gadget.in_labels],
                [reg.axis[l] for l in gadget.out_labels],
            )
        idx = int(np.argmax(np.abs(reg.state.psi)))
        digits = np.base_repr(idx, 3).zfill(reg.state.n)
        for lab, ax in reg.axis.items():
            if lab.endswith("'"):
                continue
            expect = int(np.dot(geo.depends[lab], x) % 3)
            assert int(digits[ax]) == expect, lab


# -- node_phase_correction ------------------------------------------

def test_tau_duplicating_node_d2():
    L = RingMatrix([[1], [1]], 2)
    assert list(node_phase_correction([1, 1], L)) == [0]


def test_tau_zero_outcomes():
    L = RingMatrix([[1, 0], [-1, 1]], 3)
    assert list(node_phase_correction([0, 0], L)) == [0, 0]


def test_tau_transpose_convention():
    # tau = L^T r; evaluating the stated formula for the triangular map
    L = RingMatrix([[1, 0], [-1, 1]], 3)
    assert list(node_phase_correction([1, 0], L)) == [1, 0]
    assert list(node_phase_correction([0, 1], L)) == [2, 1]


# -- run_coherent ----------------------------------------------------

def test_swap_basis_input_zero_outcomes():
    net = butterfly_swap(2)
    forced = {lab: 0 for lab in ["s1", "s2"] + [f"m{i}" for i in range(1, 8)]}
    out, report = run_coherent(net, QuditState.basis(2, [1, 0]), mode="free", forced=forced)
    assert fidelity(out, QuditState.basis(2, [0, 1])) >= 1 - 1e-9
    assert report.fidelity_vs_oracle >= 1 - 1e-9


def test_identity_wire_arbitrary_state():
    rng = np.random.default_rng(33)
    net = identity_wire(3)
    psi = QuditState.haar_random(3, 1, rng)
    for mode in ("free", "constrained"):
        for seed in range(5):
            out, report = run_coherent(net, psi, mode=mode, seed=seed)
            assert fidelity(out, psi) >= 1 - 1e-9
            assert report.ledger_replay_consistent()


def test_swap_bell_all_branches():
    net = butterfly_swap(2)
    bell = bell_pair()
    for mode in ("free", "constrained"):
        branches = list(exhaustive_coherent(net, bell, mode=mode))
        assert len(branches) == 2**9
        for _outcomes, out in branches:
            assert fidelity(out, bell) >= 1 - 1e-9


def test_exhaustive_branches_match_forced_runs():
    # every exhaustive_coherent branch is the forced run_coherent on its outcomes
    nodes = [NodeSpec("S", RingMatrix([[1], [1]], 3)), NodeSpec("T", RingMatrix([[1, 1]], 3))]
    diamond = CodingNetwork(
        3, nodes, [("S", 0, "T", 0), ("S", 1, "T", 1)], [("S", 0)], [("T", 0)]
    )
    rng = np.random.default_rng(21)
    for net in (diamond, no_block_network()):
        psi = QuditState.haar_random(net.d, net.num_inputs, rng)
        measured = net.num_inputs + len(net.links)
        for mode in ("free", "constrained"):
            branches = {
                tuple(sorted(outs.items())): state
                for outs, state in exhaustive_coherent(net, psi, mode=mode)
            }
            assert len(branches) == net.d**measured
            for key, state in branches.items():
                out, _rep = run_coherent(net, psi, mode=mode, forced=dict(key))
                assert np.allclose(out.psi, state.psi, rtol=0, atol=1e-12)


def test_multicast_basis_states_d3():
    net = butterfly_multicast(3)
    for s1, s2 in ((0, 0), (1, 2), (2, 1)):
        out, _rep = run_coherent(
            net, QuditState.basis(3, [s1, s2]), mode="free", seed=5
        )
        assert fidelity(out, QuditState.basis(3, [s1, s2, s1, s2])) >= 1 - 1e-9


def test_outcome_independence_200_sampled_vectors_d3():
    net = butterfly_multicast(3)
    rng = np.random.default_rng(7)
    psi = QuditState.haar_random(3, 2, rng)
    M = composite_map(net)
    oracle = oracle_output_state(M, psi)
    for seed in range(200):
        out, _rep = run_coherent(net, psi, mode="free", seed=seed)
        assert fidelity(out, oracle) >= 1 - 1e-9


@pytest.mark.parametrize("d", [2, 3, 5])
def test_random_networks_match_oracle(d):
    rng = np.random.default_rng(60 + d)
    for i in range(6):
        net = random_network(rng, d, require_injective=True)
        psi = QuditState.haar_random(d, net.num_inputs, rng)
        oracle = oracle_output_state(composite_map(net), psi)
        for mode in ("free", "constrained"):
            out, report = run_coherent(net, psi, mode=mode, seed=i)
            assert report.fidelity_vs_oracle >= 1 - 1e-9
            assert fidelity(out, oracle) >= 1 - 1e-9


def test_non_injective_rejected():
    net = CodingNetwork(
        2,
        [NodeSpec("A", RingMatrix([[1, 1]], 2))],
        [],
        [("A", 0), ("A", 1)],
        [("A", 0)],
    )
    with pytest.raises(UnsupportedNetworkError):
        run_coherent(net, QuditState.basis(2, [0, 0]), mode="free", seed=0)


def test_free_mode_messages_stay_off_network():
    net = butterfly_swap(2)
    _out, report = run_coherent(net, bell_pair(), mode="free", seed=1)
    assert report.messages
    assert all(not m.over_network for m in report.messages)
    assert all(not m.backward for m in report.messages)


def test_constrained_permutation_messages_on_network():
    net = butterfly_swap(2)
    _out, report = run_coherent(net, bell_pair(), mode="constrained", seed=1)
    assert not report.requires_out_of_network
    assert all(m.over_network for m in report.messages)
    backward = [m for m in report.messages if m.backward]
    # one backward message per link
    assert len(backward) == 7
    assert len({(m.sender, m.receiver, m.payload) for m in backward}) == 7


def no_block_network():
    """Injective composite [[1,0],[1,1]] with separated targets, so no
    block-diagonal B exists over the singleton output blocks."""
    nodes = [
        NodeSpec("S1", RingMatrix([[1], [1]], 2)),
        NodeSpec("S2", RingMatrix([[1]], 2)),
        NodeSpec("T1", RingMatrix([[1]], 2)),
        NodeSpec("T2", RingMatrix([[1, 1]], 2)),
    ]
    links = [("S1", 0, "T1", 0), ("S1", 1, "T2", 0), ("S2", 0, "T2", 1)]
    return CodingNetwork(2, nodes, links, [("S1", 0), ("S2", 0)], [("T1", 0), ("T2", 0)])


def test_constrained_without_block_solution_flags_and_corrects():
    net = no_block_network()
    M = composite_map(net)
    assert M.tolist() == [[1, 0], [1, 1]]
    rng = np.random.default_rng(3)
    psi = QuditState.haar_random(2, 2, rng)
    oracle = oracle_output_state(M, psi)
    out, report = run_coherent(net, psi, mode="constrained", seed=9)
    assert report.requires_out_of_network
    assert any(not m.over_network for m in report.messages)
    assert fidelity(out, oracle) >= 1 - 1e-9


def test_report_depends_and_determinism():
    net = butterfly_swap(2)
    _out1, r1 = run_coherent(net, bell_pair(), mode="free", seed=42)
    _out2, r2 = run_coherent(net, bell_pair(), mode="free", seed=42)
    assert r1.to_dict() == r2.to_dict()
    assert r1.depends["m4"].tolist() == [1, 1]


def test_forced_vector_in_measurement_order():
    net = identity_wire(2)
    out, report = run_coherent(net, QuditState.basis(2, [1]), forced=[0])
    assert report.forced_outcomes == [["s1", 0]]
    assert fidelity(out, QuditState.basis(2, [1])) >= 1 - 1e-9
