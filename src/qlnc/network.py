"""DAG model of a linear coding network over Z_d.

A network is a list of nodes, each applying a linear map to the messages on
its in-ports and emitting the result on its out-ports.  Ports are numbered
densely from 0; every in-port is fed by exactly one link or one network
input, and every out-port feeds exactly one link or one network output.
Declaration order of `source_inputs` and `target_outputs` fixes the
coordinate order of the composite map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ring import RingMatrix, is_injective

__all__ = [
    "NodeSpec",
    "Link",
    "CodingNetwork",
    "InvalidNetworkError",
    "UnsupportedNetworkError",
    "validate",
    "composite_map",
    "run_classical",
]


class InvalidNetworkError(ValueError):
    """The network violates a structural invariant; carries the violations."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class UnsupportedNetworkError(ValueError):
    """The composite map is not injective, so no coherent protocol exists."""


@dataclass(frozen=True)
class NodeSpec:
    """A node and the linear map it applies (rows = out-ports, cols = in-ports)."""

    id: str
    matrix: RingMatrix


@dataclass(frozen=True)
class Link:
    from_node: str
    from_port: int
    to_node: str
    to_port: int


@dataclass(frozen=True)
class CodingNetwork:
    d: int
    nodes: tuple[NodeSpec, ...]
    links: tuple[Link, ...]
    source_inputs: tuple[tuple[str, int], ...]
    target_outputs: tuple[tuple[str, int], ...]

    def __init__(self, d, nodes, links, source_inputs, target_outputs):
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(
            self, "links", tuple(l if isinstance(l, Link) else Link(*l) for l in links)
        )
        object.__setattr__(
            self, "source_inputs", tuple((str(n), int(p)) for n, p in source_inputs)
        )
        object.__setattr__(
            self, "target_outputs", tuple((str(n), int(p)) for n, p in target_outputs)
        )

    def node(self, node_id) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    @property
    def num_inputs(self):
        return len(self.source_inputs)

    @property
    def num_outputs(self):
        return len(self.target_outputs)


@dataclass
class Wiring:
    """Resolved port bookkeeping for a valid network.

    in_feed maps (node, in_port) to ("source", source index) or
    ("link", link index); out_feed maps (node, out_port) to
    ("target", target index) or ("link", link index).
    """

    in_feed: dict = field(default_factory=dict)
    out_feed: dict = field(default_factory=dict)
    topo_order: list = field(default_factory=list)


def validate(net: CodingNetwork) -> list[str]:
    """All structural violations, as human-readable strings (empty if valid)."""
    violations = []
    ids = [n.id for n in net.nodes]
    if len(set(ids)) != len(ids):
        violations.append("duplicate node ids")
        return violations
    known = set(ids)

    for i, link in enumerate(net.links):
        for end in (link.from_node, link.to_node):
            if end not in known:
                violations.append(f"link {i} references unknown node {end!r}")
        if link.from_node == link.to_node:
            violations.append(f"link {i} is a self-loop on node {link.from_node!r}")
    for j, (node, _port) in enumerate(net.source_inputs):
        if node not in known:
            violations.append(f"input {j} references unknown node {node!r}")
    for j, (node, _port) in enumerate(net.target_outputs):
        if node not in known:
            violations.append(f"output {j} references unknown node {node!r}")
    if violations:
        return violations

    # every in-port fed exactly once, every out-port consumed exactly once
    in_feeders = {}
    out_consumers = {}
    for i, link in enumerate(net.links):
        out_consumers.setdefault((link.from_node, link.from_port), []).append(f"link {i}")
        in_feeders.setdefault((link.to_node, link.to_port), []).append(f"link {i}")
    for j, key in enumerate(net.source_inputs):
        in_feeders.setdefault(key, []).append(f"input {j}")
    for j, key in enumerate(net.target_outputs):
        out_consumers.setdefault(key, []).append(f"output {j}")

    for n in net.nodes:
        if n.matrix.d != net.d:
            violations.append(f"node {n.id!r} matrix modulus {n.matrix.d} != network d {net.d}")
        in_ports = sorted(p for (node, p) in in_feeders if node == n.id)
        out_ports = sorted(p for (node, p) in out_consumers if node == n.id)
        if in_ports != list(range(len(in_ports))):
            violations.append(f"node {n.id!r} in-ports {in_ports} are not dense from 0")
        if out_ports != list(range(len(out_ports))):
            violations.append(f"node {n.id!r} out-ports {out_ports} are not dense from 0")
        if n.matrix.cols != len(in_ports) or n.matrix.rows != len(out_ports):
            violations.append(
                f"node {n.id!r} matrix is {n.matrix.rows}x{n.matrix.cols} "
                f"but has {len(in_ports)} in-ports and {len(out_ports)} out-ports"
            )
    for key, feeders in in_feeders.items():
        if len(feeders) > 1:
            violations.append(f"in-port {key} fed more than once: {feeders}")
    for key, consumers in out_consumers.items():
        if len(consumers) > 1:
            violations.append(f"out-port {key} consumed more than once: {consumers}")

    if _topological_order(net) is None:
        violations.append("link graph contains a cycle")
    return violations


def _topological_order(net: CodingNetwork):
    """Kahn's algorithm with ties broken by node id; None if cyclic."""
    succ = {n.id: set() for n in net.nodes}
    indeg = {n.id: 0 for n in net.nodes}
    for link in net.links:
        if link.to_node not in succ[link.from_node]:
            succ[link.from_node].add(link.to_node)
            indeg[link.to_node] += 1
    ready = sorted(nid for nid, k in indeg.items() if k == 0)
    order = []
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        for nxt in sorted(succ[nid]):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    if len(order) != len(net.nodes):
        return None
    return order


def _check_valid(net):
    violations = validate(net)
    if violations:
        raise InvalidNetworkError(violations)


def wiring(net: CodingNetwork) -> Wiring:
    """Port resolution tables and a topological node order (network must be valid)."""
    _check_valid(net)
    w = Wiring()
    for i, link in enumerate(net.links):
        w.in_feed[(link.to_node, link.to_port)] = ("link", i)
        w.out_feed[(link.from_node, link.from_port)] = ("link", i)
    for j, key in enumerate(net.source_inputs):
        w.in_feed[key] = ("source", j)
    for j, key in enumerate(net.target_outputs):
        w.out_feed[key] = ("target", j)
    w.topo_order = _topological_order(net)
    return w


def port_dependence(net: CodingNetwork):
    """Dependence row for every port value as a linear function of the inputs.

    Returns (in_rows, out_rows): dicts keyed by (node, port) holding int64
    rows lambda with value = lambda . s for network input vector s.  Built by
    forward propagation in topological order, which is exactly the product
    of the per-layer block maps.
    """
    w = wiring(net)
    k = net.num_inputs
    in_rows = {}
    out_rows = {}
    link_rows = {}
    for nid in w.topo_order:
        node = net.node(nid)
        stack = np.zeros((node.matrix.cols, k), dtype=np.int64)
        for p in range(node.matrix.cols):
            kind, idx = w.in_feed[(nid, p)]
            if kind == "source":
                row = np.zeros(k, dtype=np.int64)
                row[idx] = 1
            else:
                row = link_rows[idx]
            in_rows[(nid, p)] = row
            stack[p] = row
        out = node.matrix.a @ stack % net.d
        for q in range(node.matrix.rows):
            out_rows[(nid, q)] = out[q]
            kind, idx = w.out_feed[(nid, q)]
            if kind == "link":
                link_rows[idx] = out[q]
    return in_rows, out_rows


def composite_map(net: CodingNetwork) -> RingMatrix:
    """The matrix M with run_classical(net, s) == M @ s."""
    _, out_rows = port_dependence(net)
    rows = [out_rows[key] for key in net.target_outputs]
    return RingMatrix(np.asarray(rows, dtype=np.int64), net.d)


def run_classical(net: CodingNetwork, s) -> np.ndarray:
    """Execute the code on input vector s by per-node forward propagation.

    Every node waits for all of its in-port values before applying its map.
    """
    w = wiring(net)
    s = np.asarray(s, dtype=np.int64) % net.d
    if s.shape != (net.num_inputs,):
        raise ValueError(f"expected {net.num_inputs} input symbols, got {s.shape}")
    link_vals = {}
    out_vals = {}
    for nid in w.topo_order:
        node = net.node(nid)
        incoming = np.zeros(node.matrix.cols, dtype=np.int64)
        for p in range(node.matrix.cols):
            kind, idx = w.in_feed[(nid, p)]
            incoming[p] = s[idx] if kind == "source" else link_vals[idx]
        result = node.matrix.mul_vec(incoming)
        for q in range(node.matrix.rows):
            kind, idx = w.out_feed[(nid, q)]
            if kind == "link":
                link_vals[idx] = result[q]
            else:
                out_vals[idx] = result[q]
    return np.asarray([out_vals[j] for j in range(net.num_outputs)], dtype=np.int64)


def require_injective(net: CodingNetwork) -> RingMatrix:
    """Composite map of the network, raising UnsupportedNetworkError if singular."""
    M = composite_map(net)
    if not is_injective(M):
        raise UnsupportedNetworkError(
            "the composite map of this network is not injective over "
            f"Z_{net.d}; coherent simulation is not defined"
        )
    return M
