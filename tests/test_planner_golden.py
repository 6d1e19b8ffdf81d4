"""Golden plans: sha256 digests of everything build_schedule decides.

Each digest covers, per network and per mode, the logical schedule, the
simulation order (`physical`), the report order, the block-diagonal B and
the out-of-network verdict, written in one canonical JSON form; a network
whose composite map is not injective contributes its error instead.  The
digests were computed before the planner was reworked for speed, so any
change to a plan, down to a term's order or a stage's name, shows here.
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
    "bundled": "689064f1dd9b1721ffdef83b09d6942e4cd54a492efc10aa8f0d732308e17a70",
    "random-d4": "d52a0bbf2de02fccb14f386272f94ce8c8fb48cf0eac3f8e1b8f1c2241c79b60",
    "random-d6": "998765bbc733da813e188d2a59695ed7845e4993ee761560a5aab0253a330410",
    "random-d8": "3748b3d755e201cd3e353bc63db2f5c68dc430bc8be7d55ff04a376ef50ab240",
    "random-d9": "58da3cca57597205421dbde6231a9b5ed02de86c97890088706d6df21c1800f6",
    "random-d12": "c76e144a0cf1cf65eff5e6d26b5d08c8a5db792815dfd4c8ca61cc3cedbae384",
    "random-d30": "2a9af23dc11f9cb922078cee4521f0ab2d051ab1763074eae63ff6dd0c2a46be",
    "random-d7": "2c3b9e571723e0644d848a543fc64adf027c77a14a6e88f98eb4dddce4b57fca",
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
