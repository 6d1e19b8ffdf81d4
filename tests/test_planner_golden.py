"""Golden plans: sha256 digests of everything build_schedule decides.

Each digest covers, per network and per mode, the logical schedule, the
simulation order (`physical`), the report order, the block-diagonal B and
the out-of-network verdict, written in one canonical JSON form; a network
whose composite map is not injective contributes its error instead.  The
digests were computed before the planner was reworked for speed, so any
change to a plan, down to a term's order or a stage's name, shows here.
They were recomputed once when the simulation order became per-port node
steps; left without `physical`, every family kept its digest then.
The messages of `validate` on invalid networks are pinned the same way.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from qlnc.bundled import butterfly_multicast, butterfly_swap, identity_wire
from qlnc.geometry import compile_network
from qlnc.mbqc import build_schedule
from qlnc.network import CodingNetwork, NodeSpec, UnsupportedNetworkError, validate
from qlnc.ring import RingMatrix

from helpers import random_network

PLANS = (("free", False), ("constrained", False), ("constrained", True))


def _canon(value):
    """A JSON-ready form of a plan's parts: dataclasses by class and fields,
    RingMatrix by modulus and entries.  Any other value must already be a
    JSON scalar, so a numpy integer in a plan fails the test."""
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            _canon(getattr(value, f.name)) for f in dataclasses.fields(value)
        ]
    if isinstance(value, RingMatrix):
        return {"d": value.d, "a": value.a.tolist()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _plan_doc(net):
    geo = compile_network(net)
    doc = []
    for mode, local_aux in PLANS:
        try:
            plan = build_schedule(geo, mode, local_aux=local_aux)
        except UnsupportedNetworkError as exc:
            doc.append(["unsupported", str(exc)])
            continue
        doc.append(_canon([plan.schedule, plan.physical, plan.report_order, plan.block_B,
                           plan.requires_out_of_network]))
    return doc


def _digest(docs):
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _bundled():
    nets = []
    for d in (2, 3, 4, 5, 6, 12, 30):
        nets += [butterfly_swap(d), butterfly_multicast(d), identity_wire(d)]
    return nets


def _random(d, seed, count):
    rng = np.random.default_rng([seed, d])
    nets = []
    for i in range(count):
        if i % 2:
            nets.append(random_network(rng, d, max_nodes=8, max_links=10, max_ports=3,
                                       size_cap=40))
        else:
            nets.append(random_network(rng, d, require_injective=True, max_nodes=6,
                                       max_links=8, max_ports=2, size_cap=20))
    return nets


GOLDEN_PLANS = {
    "bundled": "a01f29d0b3aecb2703ef18d79bac7c5c6fc83d20d14f54c0d49195e3436687d8",
    "random-d4": "168017d15b2018b6c6ba6f06235cf8260de405bb1e35358e12e6af68c38067cc",
    "random-d6": "7e4ab10744e5170ccc969494d16d92bbb895fa2bdda06ddf313fe246661c9de8",
    "random-d8": "96d26c5e29c6b18f0b8206a3ada15053b4fcf5cbfcc671ceccf62e929845465b",
    "random-d9": "729146cace6e713f5ae5b0eb7544204b40fa78bd1a72cc3e022774aa0f19ddaa",
    "random-d12": "18ab8f96e2a7da32f1b415dc62e5b753867c3d3fbe7264b16e1a8ea49c00b199",
    "random-d30": "730a6a9939792db71f18fae5ed91ab4c14564f04c155b13668c7b75f962fd3b7",
    "random-d7": "87e560ae1cafef8b8ee6d1d5a4b1c0ef2797b6591fd2a7427867e655758267ba",
}


def _family(name):
    if name == "bundled":
        return _bundled()
    return _random(int(name.split("-d")[1]), 20140313, 40)


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_plans_match_golden_digests(name):
    docs = [_plan_doc(net) for net in _family(name)]
    assert _digest(docs) == GOLDEN_PLANS[name]


def _net(d, nodes, links, inputs, outputs):
    return CodingNetwork(d, [NodeSpec(n, RingMatrix(m, d)) for n, m in nodes], links, inputs,
                         outputs)


INVALID = {
    "duplicate ids": _net(2, [("A", [[1]]), ("A", [[1]])], [], [("A", 0)], [("A", 0)]),
    "unknown nodes and self-loop": _net(
        2, [("A", [[1]])], [("A", 0, "A", 0), ("A", 0, "Z", 0)], [("Y", 0)], [("X", 1)]),
    "cycle": _net(2, [("A", [[1]]), ("B", [[1]])], [("A", 0, "B", 0), ("B", 0, "A", 0)], [], []),
    "sparse ports and shape": _net(
        3, [("A", [[1, 2]]), ("B", [[1], [1]])], [("A", 2, "B", 0)], [("A", 0), ("A", 3)],
        [("B", 1), ("B", 1)]),
    "modulus and double feed": CodingNetwork(
        4, [NodeSpec("A", RingMatrix([[1]], 2)), NodeSpec("B", RingMatrix([[1]], 4))],
        [("A", 0, "B", 0)], [("A", 0), ("B", 0)], [("B", 0)]),
}

GOLDEN_VIOLATIONS = "215ec7cd55f068b7bde7e9bef24f2528f471278aa9ead8bbc5cacdaf1fe5476d"


def _mutants():
    """Invalid variants of seeded random networks: a link dropped, a port
    renumbered, a link reversed into a cycle, an output duplicated."""
    rng = np.random.default_rng(77)
    out = []
    for i in range(40):
        net = random_network(rng, 2 + i % 5, max_nodes=6, max_links=8, size_cap=30)
        links = list(net.links)
        kind = i % 4
        if kind == 0 and links:
            links.pop(int(rng.integers(len(links))))
        elif kind == 1 and links:
            j = int(rng.integers(len(links)))
            l = links[j]
            links[j] = (l.from_node, l.from_port + 1, l.to_node, l.to_port)
        elif kind == 2 and links:
            l = links[int(rng.integers(len(links)))]
            links.append((l.to_node, 99, l.from_node, 99))
        outputs = list(net.target_outputs)
        if kind == 3 or not links:
            outputs.append(outputs[0])
        out.append(CodingNetwork(net.d, net.nodes, links, net.source_inputs, outputs))
    return out


def test_validate_messages_match_golden():
    docs = {name: validate(net) for name, net in INVALID.items()}
    docs["mutants"] = [validate(net) for net in _mutants()]
    assert all(docs["mutants"]) and all(docs[name] for name in INVALID)
    assert _digest(docs) == GOLDEN_VIOLATIONS
