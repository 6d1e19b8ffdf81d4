"""DAG model of a linear coding network over Z_d.

A network is a list of nodes, each applying a linear map to the messages on
its in-ports and emitting the result on its out-ports.  Ports are numbered
densely from 0; every in-port is fed by exactly one link or one network
input, and every out-port feeds exactly one link or one network output.
Declaration order of `source_inputs` and `target_outputs` fixes the
coordinate order of the composite map.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field

import numpy as np

from .ring import RingMatrix, _matmul_mod

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


def _integer(x):
    """x as an int: operator.index takes numpy integers and refuses floats
    and strings; a boolean is refused as well."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


@dataclass(frozen=True)
class CodingNetwork:
    d: int
    nodes: tuple[NodeSpec, ...]
    links: tuple[Link, ...]
    source_inputs: tuple[tuple[str, int], ...]
    target_outputs: tuple[tuple[str, int], ...]
    # what is derived from the network once and kept, which its frozen
    # fields and read-only node matrices keep valid: "inspect" -> _inspect's
    # (violations, Wiring) (_analysis), "rows" -> the read-only port rows
    # (_rows), "geometry" -> the geometry the coherent entry points compile
    # (coherent._geometry_of)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __init__(self, d, nodes, links, source_inputs, target_outputs):
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "d", _integer(d))
        object.__setattr__(self, "nodes", tuple(nodes))
        links = [l if isinstance(l, Link) else Link(*l) for l in links]
        object.__setattr__(self, "links", tuple(
            Link(str(l.from_node), _integer(l.from_port), str(l.to_node), _integer(l.to_port))
            for l in links
        ))
        object.__setattr__(
            self, "source_inputs", tuple((str(n), _integer(p)) for n, p in source_inputs)
        )
        object.__setattr__(
            self, "target_outputs", tuple((str(n), _integer(p)) for n, p in target_outputs)
        )

    def __getstate__(self):
        # a copy or an unpickled network analyses itself anew
        return {**self.__dict__, "_memo": {}}

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
    ("target", target index) or ("link", link index); node maps ids to
    NodeSpecs.
    """

    in_feed: dict
    out_feed: dict
    topo_order: list
    node: dict


def validate(net: CodingNetwork) -> list[str]:
    """All structural violations, as human-readable strings (empty if valid)."""
    return list(_analysis(net)[0])


def _analysis(net: CodingNetwork):
    """_inspect(net), run on first use and kept on the network."""
    if "inspect" not in net._memo:
        net._memo["inspect"] = _inspect(net)
    return net._memo["inspect"]


def _inspect(net: CodingNetwork):
    """(violations, Wiring), the wiring None unless valid."""
    violations = []
    ids = [n.id for n in net.nodes]
    if len(set(ids)) != len(ids):
        return ["duplicate node ids"], None
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
        return violations, None

    # every in-port fed exactly once, every out-port consumed exactly once:
    # a port's first end goes into the wiring, and all ends of a port that
    # has more than one into in_more or out_more
    in_feed, out_feed, in_more, out_more = {}, {}, {}, {}

    def attach(feed, more, key, end):
        if key in feed:
            more.setdefault(key, [feed[key]]).append(end)
        else:
            feed[key] = end

    for i, link in enumerate(net.links):
        attach(out_feed, out_more, (link.from_node, link.from_port), ("link", i))
        attach(in_feed, in_more, (link.to_node, link.to_port), ("link", i))
    for j, key in enumerate(net.source_inputs):
        attach(in_feed, in_more, key, ("source", j))
    for j, key in enumerate(net.target_outputs):
        attach(out_feed, out_more, key, ("target", j))
    ports_in = {nid: [] for nid in ids}
    ports_out = {nid: [] for nid in ids}
    for node, p in in_feed:
        ports_in[node].append(p)
    for node, p in out_feed:
        ports_out[node].append(p)

    for n in net.nodes:
        if n.matrix.d != net.d:
            violations.append(f"node {n.id!r} matrix modulus {n.matrix.d} != network d {net.d}")
        in_ports = sorted(ports_in[n.id])
        out_ports = sorted(ports_out[n.id])
        if in_ports != list(range(len(in_ports))):
            violations.append(f"node {n.id!r} in-ports {in_ports} are not dense from 0")
        if out_ports != list(range(len(out_ports))):
            violations.append(f"node {n.id!r} out-ports {out_ports} are not dense from 0")
        rows, cols = n.matrix.a.shape
        if cols != len(in_ports) or rows != len(out_ports):
            violations.append(
                f"node {n.id!r} matrix is {rows}x{cols} "
                f"but has {len(in_ports)} in-ports and {len(out_ports)} out-ports"
            )
    noun = {"link": "link", "source": "input", "target": "output"}
    for port, feed, more, what in (("in-port", in_feed, in_more, "fed"),
                                   ("out-port", out_feed, out_more, "consumed")):
        for key in feed:
            if key in more:
                names = [f"{noun[kind]} {i}" for kind, i in more[key]]
                violations.append(f"{port} {key} {what} more than once: {names}")

    order = _topological_order(net)
    if order is None:
        violations.append("link graph contains a cycle")
    if violations:
        return violations, None
    return violations, Wiring(in_feed, out_feed, order, {n.id: n for n in net.nodes})


def _topological_order(net: CodingNetwork):
    """Kahn's algorithm with ties broken by node id (the smallest ready id
    goes next, kept on a heap); None if cyclic."""
    succ = {n.id: set() for n in net.nodes}
    indeg = dict.fromkeys(succ, 0)
    for link in net.links:
        if link.to_node not in succ[link.from_node]:
            succ[link.from_node].add(link.to_node)
            indeg[link.to_node] += 1
    ready = [nid for nid, k in indeg.items() if k == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for nxt in succ[nid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(net.nodes):
        return None
    return order


def wiring(net: CodingNetwork) -> Wiring:
    """Port resolution tables and a topological node order (network must be
    valid); the Wiring is kept on the network and is read-only."""
    violations, w = _analysis(net)
    if violations:
        raise InvalidNetworkError(violations)
    return w


def port_dependence(net: CodingNetwork):
    """Dependence row for every port value as a linear function of the inputs.

    Returns (in_rows, out_rows): new dicts keyed by (node, port) holding
    read-only int64 rows lambda with value = lambda . s for network input
    vector s, views of the rows kept on the network (_rows).
    """
    w, rows = wiring(net), _rows(net)
    unit = np.eye(net.num_inputs, dtype=np.int64)
    unit.flags.writeable = False
    at = {"source": unit, "link": rows, "target": rows[len(net.links):]}
    return ({key: at[kind][i] for key, (kind, i) in w.in_feed.items()},
            {key: at[kind][i] for key, (kind, i) in w.out_feed.items()})


def _rows(net: CodingNetwork):
    """The dependence rows of every link's value and then of every output,
    one read-only array kept on the network.  Built by forward propagation
    in topological order, which is exactly the product of the per-layer
    block maps."""
    rows = net._memo.get("rows")
    if rows is None:
        w = wiring(net)
        k, m = net.num_inputs, len(net.links)
        unit = np.eye(k, dtype=np.int64)
        rows = np.zeros((m + net.num_outputs, k), dtype=np.int64)
        for nid in w.topo_order:
            node = w.node[nid]
            feeds = [w.in_feed[nid, p] for p in range(node.matrix.cols)]
            stack = np.asarray([(unit if kind == "source" else rows)[i] for kind, i in feeds],
                               dtype=np.int64).reshape(len(feeds), k)
            out = _matmul_mod(node.matrix.a, stack, net.d)
            for q in range(node.matrix.rows):
                kind, i = w.out_feed[nid, q]
                rows[i if kind == "link" else m + i] = out[q]
        rows.flags.writeable = False
        net._memo["rows"] = rows
    return rows


def composite_map(net: CodingNetwork) -> RingMatrix:
    """The matrix M with run_classical(net, s) == M @ s."""
    return RingMatrix(_rows(net)[len(net.links):], net.d)


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
        node = w.node[nid]
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

