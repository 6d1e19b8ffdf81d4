"""Network model: validation, classical execution, composite map."""

import itertools

import numpy as np
import pytest

from qlnc.bundled import butterfly_multicast, butterfly_swap, identity_wire
from qlnc.coherent import run_coherent
from qlnc.geometry import compile_network
from qlnc.mbqc import build_schedule, composite_of_geometry
from qlnc.network import (
    CodingNetwork,
    InvalidNetworkError,
    NodeSpec,
    UnsupportedNetworkError,
    composite_map,
    port_dependence,
    run_classical,
    validate,
)
from qlnc.ring import RingMatrix
from qlnc.states import QuditState

from helpers import random_network


def test_butterfly_swap_is_valid():
    assert validate(butterfly_swap(2)) == []
    assert validate(butterfly_multicast(3)) == []
    assert validate(identity_wire(5)) == []


def test_two_cycle_rejected():
    nodes = [NodeSpec("A", RingMatrix([[1]], 2)), NodeSpec("B", RingMatrix([[1]], 2))]
    net = CodingNetwork(2, nodes, [("A", 0, "B", 0), ("B", 0, "A", 0)], [], [])
    assert any("cycle" in v for v in validate(net))


def test_matrix_shape_mismatch_reported():
    nodes = [NodeSpec("A", RingMatrix(np.zeros((4, 2), dtype=int), 2))]
    net = CodingNetwork(
        2, nodes, [], [("A", 0), ("A", 1), ("A", 2)], [("A", 0), ("A", 1), ("A", 2), ("A", 3)]
    )
    assert any("3 in-ports" in v for v in validate(net))


def test_double_fed_port_reported():
    nodes = [NodeSpec("A", RingMatrix([[1]], 2)), NodeSpec("B", RingMatrix([[1]], 2))]
    net = CodingNetwork(2, nodes, [("A", 0, "B", 0)], [("A", 0), ("B", 0)], [("B", 0)])
    assert any("fed more than once" in v for v in validate(net))


def test_composite_map_butterfly_swap_various_d():
    for d in (2, 3, 4, 5):
        assert composite_map(butterfly_swap(d)).tolist() == [[0, 1], [1, 0]]


def test_composite_map_multicast():
    assert composite_map(butterfly_multicast(3)).tolist() == [
        [1, 0],
        [0, 1],
        [1, 0],
        [0, 1],
    ]


def test_composite_map_identity_wire():
    assert composite_map(identity_wire(4)).tolist() == [[1]]


def test_composite_requires_valid_network():
    nodes = [NodeSpec("A", RingMatrix([[1]], 2)), NodeSpec("B", RingMatrix([[1]], 2))]
    net = CodingNetwork(2, nodes, [("A", 0, "B", 0), ("B", 0, "A", 0)], [], [])
    with pytest.raises(InvalidNetworkError):
        composite_map(net)


def test_run_classical_fig1_swap():
    net = butterfly_swap(2)
    assert list(run_classical(net, [1, 0])) == [0, 1]
    assert list(run_classical(net, [0, 1])) == [1, 0]


def test_run_classical_multicast_d3():
    assert list(run_classical(butterfly_multicast(3), [1, 2])) == [1, 2, 1, 2]


def test_run_classical_zero_is_zero():
    for net in (butterfly_swap(3), butterfly_multicast(5), identity_wire(2)):
        assert not run_classical(net, [0] * net.num_inputs).any()


def test_run_classical_wrong_length():
    with pytest.raises(ValueError):
        run_classical(identity_wire(2), [1, 0])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_classical_equals_composite_exhaustive(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(12):
        net = random_network(rng, d, max_nodes=6, max_links=8)
        M = composite_map(net)
        k = net.num_inputs
        if d**k > 625:
            continue
        for s in itertools.product(range(d), repeat=k):
            assert np.array_equal(run_classical(net, np.asarray(s)), M.mul_vec(np.asarray(s)))


def test_composite_invariant_under_node_reordering():
    rng = np.random.default_rng(99)
    for _ in range(10):
        net = random_network(rng, 3, max_nodes=5, max_links=6)
        M = composite_map(net)
        perm = list(net.nodes)
        rng.shuffle(perm)
        reordered = CodingNetwork(
            net.d, perm, net.links, net.source_inputs, net.target_outputs
        )
        assert composite_map(reordered) == M


def test_port_dependence_rows_match_composite():
    net = butterfly_multicast(3)
    _in_rows, out_rows = port_dependence(net)
    M = composite_map(net)
    for j, key in enumerate(net.target_outputs):
        assert np.array_equal(out_rows[key], M.a[j])


def test_source_can_also_be_target():
    # one node both receives a network input and produces a network output,
    # while relaying to a second node
    nodes = [
        NodeSpec("A", RingMatrix([[1], [1]], 3)),
        NodeSpec("B", RingMatrix([[2]], 3)),
    ]
    net = CodingNetwork(
        3, nodes, [("A", 1, "B", 0)], [("A", 0)], [("A", 0), ("B", 0)]
    )
    assert validate(net) == []
    assert composite_map(net).tolist() == [[1], [2]]


def test_network_takes_only_integers():
    nodes = [NodeSpec("A", RingMatrix([[1]], 2))]
    with pytest.raises(TypeError):
        CodingNetwork(2.9, nodes, [], [("A", 0)], [("A", 0)])
    for d, inputs, outputs in ((True, [("A", 0)], [("A", 0)]),
                               (2, [("A", True)], [("A", 0)]),
                               (2, [("A", 0)], [("A", False)])):
        with pytest.raises(TypeError, match="expected an integer"):
            CodingNetwork(d, nodes, [], inputs, outputs)
    two = [NodeSpec("A", RingMatrix([[1]], 2)), NodeSpec("B", RingMatrix([[1]], 2))]
    for link in (("A", True, "B", 0), ("A", 0, "B", False), ("A", 0.0, "B", 0)):
        with pytest.raises(TypeError):
            CodingNetwork(2, two, [link], [("A", 0)], [("B", 0)])


def test_network_takes_numpy_integers():
    two = [NodeSpec("A", RingMatrix([[1]], 3)), NodeSpec("B", RingMatrix([[1]], 3))]
    net = CodingNetwork(np.int64(3), two, [("A", np.int32(0), "B", np.uint8(0))],
                        [("A", np.int64(0))], [("B", np.int16(0))])
    assert net == CodingNetwork(3, two, [("A", 0, "B", 0)], [("A", 0)], [("B", 0)])
    assert all(type(v) is int for v in (net.d, net.links[0].from_port, net.links[0].to_port,
                                         net.source_inputs[0][1], net.target_outputs[0][1]))
    assert composite_map(net).tolist() == [[1]]


def test_network_without_outputs_has_a_zero_row_map_and_no_protocol():
    net = CodingNetwork(3, [NodeSpec("A", RingMatrix(np.zeros((0, 1), dtype=int), 3))], [],
                        [("A", 0)], [])
    assert validate(net) == []
    M = composite_map(net)
    assert (M.rows, M.cols) == (0, 1)
    assert run_classical(net, [2]).shape == (0,)
    geometry = compile_network(net)
    assert (composite_of_geometry(geometry).rows, composite_of_geometry(geometry).cols) == (0, 1)
    for mode in ("free", "constrained"):
        with pytest.raises(UnsupportedNetworkError):
            build_schedule(geometry, mode)
        with pytest.raises(UnsupportedNetworkError):
            run_coherent(net, QuditState.basis(3, [1]), mode=mode, seed=0)
