"""The planner against a Python-int reference, at small composite moduli and
far beyond int64 products.

`helpers.reference_rows` propagates each network in Python ints apart from
the library's wiring; every planning layer is checked against it: the
dependence rows of `compile_network`, `composite_map`, the free plan's left
inverse A (read back from its output Z corrections, with A M = 1 and every
kappa_u = A^T lambda_u) and the constrained plan's sigma correction
C = B^T M with M^T B M = 1.
"""

import numpy as np
import pytest

from qlnc.geometry import compile_network
from qlnc.mbqc import build_schedule
from qlnc.network import CodingNetwork, NodeSpec, composite_map, run_classical
from qlnc.ring import RingMatrix

from helpers import int_matmul, random_network, reference_rows

BIG = 2**40 + 15
MODULI = (4, 6, 12, 30, BIG)


def _networks(d, count=16):
    rng = np.random.default_rng([20140313, d])
    return [
        random_network(rng, d, require_injective=True, max_nodes=8, max_links=10, max_ports=3,
                       size_cap=30)
        for _ in range(count)
    ]


def _z_coefficients(corrections, labels, outputs):
    """C[h][j]: the coefficient of labels[j] in output h's Z correction."""
    C = [[0] * len(labels) for _ in outputs]
    for corr in corrections:
        if corr.op == "Z" and corr.qudit in outputs:
            h = outputs.index(corr.qudit)
            for label, coeff, _use in corr.terms:
                if label in labels:
                    C[h][labels.index(label)] = coeff
    return C


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _transpose(a):
    return [list(col) for col in zip(*a)]


@pytest.mark.parametrize("d", MODULI)
def test_depends_and_composite_map_match_reference(d):
    for net in _networks(d):
        link_rows, out_rows = reference_rows(net)
        geo = compile_network(net)
        k = net.num_inputs
        for j, lab in enumerate(geo.inputs):
            assert geo.depends[lab].tolist() == _identity(k)[j]
        for i, row in enumerate(link_rows):
            assert geo.depends[f"m{i + 1}"].tolist() == row
            assert geo.depends[f"m{i + 1}'"].tolist() == row
        for h, row in enumerate(out_rows):
            assert geo.depends[f"t{h + 1}"].tolist() == row
        assert composite_map(net).tolist() == out_rows


@pytest.mark.parametrize("d", MODULI)
def test_free_plan_left_inverse_and_kappa_match_reference(d):
    for net in _networks(d):
        link_rows, M = reference_rows(net)
        geo = compile_network(net)
        plan = build_schedule(geo, "free")
        finals = [c for c, _stage in plan.final_corrections]
        # kappa_u = A^T lambda_u, so the coefficients of s_j are A^T, column j
        A = _transpose(_z_coefficients(finals, geo.inputs, geo.outputs))
        assert int_matmul(A, M, d) == _identity(net.num_inputs)
        links = [f"m{i + 1}" for i in range(len(link_rows))]
        kappa_t = _z_coefficients(finals, links, geo.outputs)
        assert _transpose(kappa_t) == int_matmul(link_rows, A, d)


@pytest.mark.parametrize("d", MODULI)
def test_constrained_sigma_correction_is_BtM(d):
    for net in _networks(d):
        _link_rows, M = reference_rows(net)
        geo = compile_network(net)
        plan = build_schedule(geo, "constrained")
        sigma = [c for c, stage in plan.final_corrections if stage == "sigma-correct"]
        C = _z_coefficients(sigma, geo.inputs, geo.outputs)
        if plan.block_B is None:
            assert plan.requires_out_of_network
            free = build_schedule(geo, "free")
            finals = [c for c, _stage in free.final_corrections]
            assert C == _z_coefficients(finals, geo.inputs, geo.outputs)
            continue
        B = plan.block_B.tolist()
        assert int_matmul(int_matmul(_transpose(M), B, d), M, d) == _identity(net.num_inputs)
        assert C == int_matmul(_transpose(B), M, d)


@pytest.mark.parametrize("d", (BIG, 2**61 - 1))
def test_composite_map_of_a_chain_is_exact_beyond_int64_products(d):
    nodes = [NodeSpec("A", RingMatrix([[d - 1]], d)), NodeSpec("B", RingMatrix([[d - 2]], d))]
    net = CodingNetwork(d, nodes, [("A", 0, "B", 0)], [("A", 0)], [("B", 0)])
    assert composite_map(net).tolist() == [[2]]
    assert run_classical(net, [1]).tolist() == [2]


@pytest.mark.parametrize("d", (BIG, 2**61 - 1))
def test_sigma_correction_is_exact_beyond_int64_products(d):
    net = CodingNetwork(d, [NodeSpec("A", RingMatrix([[d - 1, 3], [5, d - 2]], d))], [],
                        [("A", 0), ("A", 1)], [("A", 0), ("A", 1)])
    M = [[d - 1, 3], [5, d - 2]]
    geo = compile_network(net)
    plan = build_schedule(geo, "constrained")
    assert plan.block_B is not None and not plan.requires_out_of_network
    B = plan.block_B.tolist()
    assert int_matmul(int_matmul(_transpose(M), B, d), M, d) == _identity(2)
    sigma = [c for c, stage in plan.final_corrections if stage == "sigma-correct"]
    C = _z_coefficients(sigma, geo.inputs, geo.outputs)
    assert C == int_matmul(_transpose(B), M, d)
    if d == BIG:
        assert C[0] == [845778175224, 1014933810269]
