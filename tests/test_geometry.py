"""Compilation into graph-state geometries and resource counting."""

import json

import numpy as np
import pytest

from qlnc.bundled import butterfly_multicast, butterfly_swap, identity_wire
from qlnc.files import dump_json
from qlnc.geometry import compile_network, resource_counts
from qlnc.mbqc import composite_of_geometry
from qlnc.network import composite_map
from qlnc.ring import RingMatrix
from qlnc.states import QuditState, fidelity

from helpers import (
    DenseRegister,
    dense_cz,
    dense_x,
    dense_z,
    graph_state,
    port_step,
    random_network,
)


def test_butterfly_roster_matches_figure():
    geo = compile_network(butterfly_swap(2))
    labels = [lab for lab, _ in geo.qudits]
    expected = (
        ["s1", "s2"]
        + [f"m{i}" for i in range(1, 8)]
        + [f"m{i}'" for i in range(1, 8)]
        + ["t1", "t1'", "t2", "t2'"]
    )
    assert sorted(labels) == sorted(expected)
    assert len(labels) == 20
    kinds = dict(geo.qudits)
    assert kinds["s1"] == "network-input"
    assert kinds["m4"] == "message"
    assert kinds["m4'"] == "auxiliary"
    assert kinds["t1"] == "network-output"


def test_identity_wire_geometry():
    geo = compile_network(identity_wire(2))
    assert len(geo.qudits) == 3
    assert sorted(geo.edges) == sorted([("s1", "t1'", 1), ("t1'", "t1", 1)])


def test_zero_coefficients_omit_edges():
    from qlnc.network import CodingNetwork, NodeSpec

    net = CodingNetwork(
        3,
        [NodeSpec("A", RingMatrix([[1, 0], [0, 1]], 3))],
        [],
        [("A", 0), ("A", 1)],
        [("A", 0), ("A", 1)],
    )
    geo = compile_network(net)
    pairs = {(a, b) for a, b, _w in geo.edges}
    assert ("s2", "t1'") not in pairs
    assert ("s1", "t2'") not in pairs
    assert ("s1", "t1'") in pairs and ("s2", "t2'") in pairs


def test_edge_weights_are_nonzero_mod_d():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.choice([2, 3, 5]))
        geo = compile_network(random_network(rng, d))
        for a, b, w in geo.edges:
            assert 0 < w < d
            assert a != b


def test_edge_count_law():
    rng = np.random.default_rng(22)
    for _ in range(30):
        d = int(rng.choice([2, 3, 5]))
        net = random_network(rng, d)
        geo = compile_network(net)
        nnz = sum(n.matrix.nnz() for n in net.nodes)
        m = len(net.links)
        ell = net.num_outputs
        assert len(geo.edges) == nnz + m + ell


def test_aux_message_pairing_weight():
    geo = compile_network(butterfly_swap(5))
    for i in range(1, 8):
        assert (f"m{i}'", f"m{i}", 4) in geo.edges  # -1 mod 5


def test_bipartite_within_node():
    # input-side endpoints of coefficient edges are message-like, the other
    # side auxiliary; auxiliary-auxiliary or message-message edges never occur
    geo = compile_network(butterfly_multicast(3))
    kinds = dict(geo.qudits)
    for a, b, _w in geo.edges:
        ka, kb = kinds[a], kinds[b]
        assert (ka != "auxiliary") == (kb == "auxiliary")


def test_depends_rows_equal_composite_rows():
    for net in (butterfly_swap(3), butterfly_multicast(5)):
        geo = compile_network(net)
        M = composite_map(net)
        assert composite_of_geometry(geo) == M
        for j, t in enumerate(geo.outputs):
            assert np.array_equal(geo.depends[t], M.a[j])


def test_compile_deterministic_serialization():
    a = dump_json(compile_network(butterfly_swap(2)).to_dict())
    b = dump_json(compile_network(butterfly_swap(2)).to_dict())
    assert a == b
    json.loads(a)  # round-trips as JSON


def test_resource_counts_butterfly():
    net = butterfly_swap(2)
    rc = resource_counts(net, compile_network(net))
    # k=2, l=2, m=7: qudit law 2 + 4 + 14; twelve nonzero coefficients
    assert rc.qudits == 20
    assert rc.cx_count_reference == 12
    assert rc.entangling_ops == 12 + 2 * (7 + 2)
    assert rc.classical_messages_extra == 18


def test_resource_counts_identity_wire():
    net = identity_wire(3)
    rc = resource_counts(net, compile_network(net))
    assert rc.qudits == 3
    assert rc.entangling_ops == 1 + 2
    assert rc.classical_messages_extra == 2


def test_resource_count_laws_random():
    rng = np.random.default_rng(23)
    for _ in range(30):
        d = int(rng.choice([2, 3, 5]))
        net = random_network(rng, d)
        geo = compile_network(net)
        rc = resource_counts(net, geo)
        k, ell, m = net.num_inputs, net.num_outputs, len(net.links)
        nnz = sum(n.matrix.nnz() for n in net.nodes)
        assert rc.qudits == k + 2 * ell + 2 * m == len(geo.qudits)
        assert rc.entangling_ops == nnz + 2 * (m + ell)
        assert rc.classical_messages_extra == 2 * (m + ell)


def _graph_state(geo, psi):
    """The dense graph state of `geo` on `psi`, ordered like geo.qudits."""
    return graph_state(geo, psi).state([lab for lab, _kind in geo.qudits])


def test_prepare_graph_state_identity_wire_amplitudes():
    geo = compile_network(identity_wire(2))
    state = _graph_state(geo, QuditState.basis(2, [0]))
    order = [lab for lab, _ in geo.qudits]
    amps = {}
    for idx in range(8):
        digits = tuple((idx >> (2 - i)) & 1 for i in range(3))
        key = dict(zip(order, digits))
        amps[key["s1"], key["t1'"], key["t1"]] = state.psi[idx]
    # hand computation: minus sign exactly where auxiliary and output are both 1
    assert amps[(0, 0, 0)] == pytest.approx(0.5)
    assert amps[(0, 1, 0)] == pytest.approx(0.5)
    assert amps[(0, 0, 1)] == pytest.approx(0.5)
    assert amps[(0, 1, 1)] == pytest.approx(-0.5)
    for (s, _aux, _out), v in amps.items():
        if s == 1:
            assert v == pytest.approx(0.0)


def test_prepare_graph_state_edgeless_is_product():
    # a sink-only node (no out-ports) compiles to an edgeless geometry, and
    # preparation then leaves the bare input product state
    from qlnc.network import CodingNetwork, NodeSpec

    net = CodingNetwork(
        2,
        [NodeSpec("A", RingMatrix(np.zeros((0, 2), dtype=int), 2))],
        [],
        [("A", 0), ("A", 1)],
        [],
    )
    geo = compile_network(net)
    assert geo.edges == []
    psi = QuditState.basis(2, [1, 0])
    state = _graph_state(geo, psi)
    assert fidelity(state, psi) == pytest.approx(1.0)


def test_prepare_graph_state_norm_butterfly():
    geo = compile_network(butterfly_swap(2))
    state = _graph_state(geo, QuditState.basis(2, [1, 0]))
    assert np.linalg.norm(state.psi) == pytest.approx(1.0, abs=1e-9)
    assert state.n == 20
    assert len(geo.edges) == 21


def test_hand_reduced_swap_geometry_fixture():
    # a known five-plus-three qudit reduction of the butterfly swap geometry
    # (not a compiler output; reductions are out of scope).  Every branch of
    # its six measurements leaves the swap up to local shift/phase byproducts.
    import itertools

    edges = [
        ("s1", "m4'"), ("s2", "m4'"), ("s1", "t1'"), ("s2", "t2'"),
        ("m4'", "m4"), ("m4", "t1'"), ("m4", "t2'"), ("t1'", "t1"), ("t2'", "t2"),
    ]
    measured = ["s1", "s2", "m4'", "m4", "t1'", "t2'"]

    def run_reduced(psi, forced):
        reg = DenseRegister(psi, ["s1", "s2"])
        reg.add(["m4", "m4'", "t1", "t1'", "t2", "t2'"], "plus")
        for a, b in edges:
            reg.gate(dense_cz(2), a, b)
        for lab in measured:
            reg.measure(lab, force=forced[lab])
        return reg.state(["t1", "t2"])

    def pauli_equivalent(out, target):
        for dx1, dx2, dz1, dz2 in itertools.product(range(2), repeat=4):
            byproduct = np.kron(dense_z(2, dz1) @ dense_x(2, dx1), dense_z(2, dz2) @ dense_x(2, dx2))
            if abs(np.vdot(target.psi, byproduct @ out.psi)) >= 1 - 1e-9:
                return True
        return False

    inputs = [
        (QuditState.basis(2, [1, 0]), QuditState.basis(2, [0, 1])),
        (QuditState.basis(2, [1, 1]), QuditState.basis(2, [1, 1])),
    ]
    for psi, target in inputs:
        for bits in itertools.product(range(2), repeat=6):
            out = run_reduced(psi, dict(zip(measured, bits)))
            assert pauli_equivalent(out, target)


def test_prepare_graph_state_entangling_call_count(monkeypatch):
    # each one-way port step entangles with one cZ per edge of its
    # auxiliary, so the node steps of all gadgets make len(geo.edges) cZ and
    # build the graph state of the edge list
    calls = {"n": 0}
    original = DenseRegister.gate

    def counting(self, matrix, *labels):
        calls["n"] += 1
        return original(self, matrix, *labels)

    geo = compile_network(butterfly_swap(2))
    psi = QuditState.basis(2, [1, 0])
    reg = DenseRegister(psi, geo.inputs)
    monkeypatch.setattr(DenseRegister, "gate", counting)
    for gadget in geo.gadgets:
        for j in range(len(gadget.aux_labels)):
            port_step(reg, gadget, j)
    monkeypatch.undo()
    assert calls["n"] == len(geo.edges) == 21
    order = [lab for lab, _kind in geo.qudits]
    assert np.allclose(reg.state(order).psi, _graph_state(geo, psi).psi)
