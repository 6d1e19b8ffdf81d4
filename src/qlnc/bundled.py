"""Bundled example networks.

The two textbook butterfly instances plus the smallest possible network.
Builders return fresh CodingNetwork values; the same data ships as JSON
files under qlnc/data for command-line use.
"""

from __future__ import annotations

from importlib import resources

from .network import CodingNetwork, NodeSpec
from .ring import RingMatrix

__all__ = ["butterfly_swap", "butterfly_multicast", "identity_wire", "bundled_path"]


def butterfly_swap(d=2) -> CodingNetwork:
    """Two-pair butterfly: sources duplicate, inner and target nodes negate-sum.

    The composite map is the swap (t1, t2) = (s2, s1) for every d.
    """
    dup = RingMatrix([[1], [1]], d)
    par = RingMatrix([[-1, -1]], d)
    nodes = [
        NodeSpec("S1", dup),
        NodeSpec("S2", dup),
        NodeSpec("V1", par),
        NodeSpec("V2", dup),
        NodeSpec("T1", par),
        NodeSpec("T2", par),
    ]
    links = [
        ("S1", 0, "V1", 0),
        ("S2", 0, "V1", 1),
        ("S1", 1, "T1", 0),
        ("V1", 0, "V2", 0),
        ("S2", 1, "T2", 0),
        ("V2", 0, "T1", 1),
        ("V2", 1, "T2", 1),
    ]
    return CodingNetwork(d, nodes, links, [("S1", 0), ("S2", 0)], [("T1", 0), ("T2", 0)])


def butterfly_multicast(d=3) -> CodingNetwork:
    """Multicast butterfly: both targets reconstruct both inputs.

    Node maps: sources and V2 duplicate, V1 sums, and the targets invert
    their local view, so the composite is (s1, s2, s1, s2).  Port order at
    the targets puts the direct link first at T1 and the V2 link first at
    T2, matching the textbook matrices.
    """
    dup = RingMatrix([[1], [1]], d)
    nodes = [
        NodeSpec("S1", dup),
        NodeSpec("S2", dup),
        NodeSpec("V1", RingMatrix([[1, 1]], d)),
        NodeSpec("V2", dup),
        NodeSpec("T1", RingMatrix([[1, 0], [-1, 1]], d)),
        NodeSpec("T2", RingMatrix([[1, -1], [0, 1]], d)),
    ]
    links = [
        ("S1", 0, "V1", 0),
        ("S2", 0, "V1", 1),
        ("S1", 1, "T1", 0),  # m3: the direct copy of s1 is T1's first port
        ("V1", 0, "V2", 0),
        ("S2", 1, "T2", 1),  # m5: the direct copy of s2 is T2's second port
        ("V2", 0, "T1", 1),
        ("V2", 1, "T2", 0),  # m7: the V2 sum is T2's first port
    ]
    return CodingNetwork(
        d,
        nodes,
        links,
        [("S1", 0), ("S2", 0)],
        [("T1", 0), ("T1", 1), ("T2", 0), ("T2", 1)],
    )


def identity_wire(d=2) -> CodingNetwork:
    """One node, no links: the smallest network (k = l = 1, m = 0)."""
    return CodingNetwork(
        d, [NodeSpec("W", RingMatrix([[1]], d))], [], [("W", 0)], [("W", 0)]
    )


def bundled_path(name):
    """Filesystem path of a bundled network (or amplitude) JSON file."""
    return resources.files("qlnc").joinpath("data", f"{name}.json")
