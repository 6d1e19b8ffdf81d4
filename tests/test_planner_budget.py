"""Planner work budget, counted in calls rather than time: a constrained plan
computes a left inverse only when no block-diagonal B exists, every solve
runs one diagonalization, and that diagonalization carries the right-hand
side instead of the full row transform."""

import pytest

import qlnc.mbqc as mbqc
import qlnc.ring as ring
from qlnc.bundled import butterfly_multicast, butterfly_swap, identity_wire
from qlnc.geometry import compile_network
from qlnc.network import CodingNetwork, NodeSpec
from qlnc.ring import RingMatrix, is_injective


def _no_block_B(d):
    """Outputs s1 (node A) and s1 + s2 (node B): M = [[1, 0], [1, 1]] is
    injective, but no B with one singleton block per output node solves
    Mᵀ B M = 1 at d = 2."""
    return CodingNetwork(
        d,
        [NodeSpec("S", RingMatrix([[1, 0], [1, 0], [0, 1]], d)),
         NodeSpec("A", RingMatrix([[1]], d)),
         NodeSpec("B", RingMatrix([[1, 1]], d))],
        [("S", 0, "A", 0), ("S", 1, "B", 0), ("S", 2, "B", 1)],
        [("S", 0), ("S", 1)],
        [("A", 0), ("B", 0)],
    )


NETWORKS = [
    pytest.param(f(d), id=f"{f.__name__}-d{d}")
    for d in (2, 3, 4, 6, 12)
    for f in (butterfly_swap, butterfly_multicast, identity_wire)
]


@pytest.fixture
def calls(monkeypatch):
    """Counts of left_inverse, solve_modular and _diagonalize calls, and the
    width of the lines each diagonalization carries through its row
    operations (the full transform U is as wide as the matrix is tall)."""
    seen = {"left_inverse": 0, "solve_modular": 0, "carried": []}

    def wrap(module, name, note):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            note(*args, **kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def diagonalize(a, d, lines):
        seen["carried"].append(len(lines[0]) if lines else 0)

    def count(key):
        return lambda *args, **kwargs: seen.__setitem__(key, seen[key] + 1)

    wrap(ring, "_diagonalize", diagonalize)
    wrap(ring, "solve_modular", count("solve_modular"))
    # build_schedule calls left_inverse by the name it imported
    wrap(mbqc, "left_inverse", count("left_inverse"))
    return seen


@pytest.mark.parametrize("net", NETWORKS + [pytest.param(_no_block_B(2), id="no-block-B")])
def test_constrained_plan_inverts_only_without_block_B(net, calls):
    plan = mbqc.build_schedule(compile_network(net), "constrained")
    assert calls["left_inverse"] == (plan.block_B is None)
    assert plan.requires_out_of_network == (plan.block_B is None)
    assert calls["solve_modular"] == 1
    assert len(calls["carried"]) == calls["solve_modular"] + calls["left_inverse"]
    # the solve carries its one right-hand-side column, not U
    assert calls["carried"][0] == 1


def test_the_no_B_network_takes_the_fallback(calls):
    plan = mbqc.build_schedule(compile_network(_no_block_B(2)), "constrained")
    assert plan.block_B is None and calls["left_inverse"] == 1


@pytest.mark.parametrize("net", NETWORKS)
def test_free_plan_inverts_once_and_solves_nothing(net, calls):
    mbqc.build_schedule(compile_network(net), "free")
    assert calls["left_inverse"] == 1
    assert calls["solve_modular"] == 0
    assert len(calls["carried"]) == 1


def test_is_injective_carries_no_row_transform(calls):
    assert is_injective(RingMatrix([[1, 0], [1, 1], [0, 2]], 4))
    assert calls["carried"] == [0]
