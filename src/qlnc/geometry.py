"""Compilation of a coding network into a one-way (graph-state) geometry.

Each node with matrix V gets, per out-port, an auxiliary qudit and an
outgoing message qudit.  Incoming message qudits attach to the auxiliaries
through edges weighted by the nonzero coefficients of V (zero-weight edges
are omitted), and each auxiliary attaches to its message qudit with an edge
of weight -1.  Network inputs are the qudits feeding source in-ports; the
message qudits of target out-ports are the network outputs.  Qudit labels
follow the link and output declaration order: s1..sk for inputs, m1..mm for
link messages, t1..tl for outputs, with a trailing apostrophe for the
auxiliary paired with each message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import CodingNetwork, port_dependence, wiring

__all__ = ["MbqcGeometry", "NodeGadget", "ResourceCounts", "compile_network", "resource_counts"]


@dataclass(frozen=True)
class NodeGadget:
    """One node's slice of the geometry, in matrix row/column order."""

    node_id: str
    in_labels: tuple  # per in-port: the qudit arriving there
    aux_labels: tuple  # per out-port
    out_labels: tuple  # per out-port: the message qudit produced
    matrix: object  # RingMatrix


@dataclass
class ResourceCounts:
    qudits: int
    entangling_ops: int
    classical_messages_extra: int
    cx_count_reference: int

    def to_dict(self):
        return {
            "qudits": self.qudits,
            "entangling_ops": self.entangling_ops,
            "classical_messages_extra": self.classical_messages_extra,
            "cx_count_reference": self.cx_count_reference,
        }


@dataclass
class MbqcGeometry:
    d: int
    qudits: list  # (label, kind) with kind in {network-input, message, auxiliary, network-output}
    edges: list  # (label, label, weight) with weight in 1..d-1
    inputs: list
    outputs: list
    depends: dict  # label -> int array over network inputs
    origin: dict  # label -> human-readable back-reference into the network
    gadgets: list = field(default_factory=list)  # NodeGadget in topological order
    num_links: int = 0

    def measured_labels(self):
        """Every qudit that the one-way procedure measures (all but outputs)."""
        outs = set(self.outputs)
        return [lab for lab, _ in self.qudits if lab not in outs]

    def message_like_labels(self):
        """Input and internal message qudits (the kappa-corrected measurements)."""
        return [
            lab
            for lab, kind in self.qudits
            if kind in ("network-input", "message")
        ]

    def to_dict(self):
        return {
            "version": 1,
            "d": self.d,
            "qudits": [{"label": lab, "kind": kind} for lab, kind in self.qudits],
            "edges": [[a, b, int(w)] for a, b, w in self.edges],
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "depends": {lab: [int(x) for x in row] for lab, row in self.depends.items()},
            "origin": dict(self.origin),
        }


def label_sort_key(label):
    """Natural order: inputs, then link messages, then outputs; aux after its twin."""
    prime = label.endswith("'")
    stem = label.rstrip("'")
    rank = {"s": 0, "m": 1, "t": 2}[stem[0]]
    return (rank, int(stem[1:]), prime)


def compile_network(net: CodingNetwork) -> MbqcGeometry:
    """Build the one-way geometry realizing the same transformation as net."""
    w = wiring(net)
    in_rows, out_rows = port_dependence(net)
    k = net.num_inputs

    input_labels = [f"s{j + 1}" for j in range(k)]
    link_labels = [f"m{i + 1}" for i in range(len(net.links))]
    output_labels = [f"t{j + 1}" for j in range(net.num_outputs)]

    def in_label(node_id, port):
        kind, idx = w.in_feed[(node_id, port)]
        return input_labels[idx] if kind == "source" else link_labels[idx]

    def out_label(node_id, port):
        kind, idx = w.out_feed[(node_id, port)]
        return output_labels[idx] if kind == "target" else link_labels[idx]

    qudits = [(lab, "network-input") for lab in input_labels]
    qudits += [(lab, "message") for lab in link_labels]
    for lab in link_labels + output_labels:
        qudits.append((lab + "'", "auxiliary"))
    qudits += [(lab, "network-output") for lab in output_labels]
    qudits.sort(key=lambda item: label_sort_key(item[0]))

    depends = {}
    origin = {}
    for j, lab in enumerate(input_labels):
        row = np.zeros(k, dtype=np.int64)
        row[j] = 1
        depends[lab] = row
        node, port = net.source_inputs[j]
        origin[lab] = f"network input {j} at in-port {port} of node {node}"
    for i, lab in enumerate(link_labels):
        link = net.links[i]
        depends[lab] = out_rows[(link.from_node, link.from_port)]
        origin[lab] = f"link {i}: {link.from_node}:{link.from_port} -> {link.to_node}:{link.to_port}"
        origin[lab + "'"] = f"auxiliary for {origin[lab]}"
        depends[lab + "'"] = depends[lab]
    for j, lab in enumerate(output_labels):
        node, port = net.target_outputs[j]
        depends[lab] = out_rows[(node, port)]
        origin[lab] = f"network output {j} at out-port {port} of node {node}"
        origin[lab + "'"] = f"auxiliary for {origin[lab]}"
        depends[lab + "'"] = depends[lab]

    edges = []
    gadgets = []
    for nid in w.topo_order:
        node = net.node(nid)
        ins = tuple(in_label(nid, p) for p in range(node.matrix.cols))
        outs = tuple(out_label(nid, q) for q in range(node.matrix.rows))
        auxs = tuple(lab + "'" for lab in outs)
        for q in range(node.matrix.rows):
            for p in range(node.matrix.cols):
                weight = int(node.matrix.a[q, p])
                if weight:
                    assert ins[p] != auxs[q], "self-edge in compiled geometry"
                    edges.append((ins[p], auxs[q], weight))
            edges.append((auxs[q], outs[q], (net.d - 1) % net.d))
        gadgets.append(NodeGadget(nid, ins, auxs, outs, node.matrix))

    return MbqcGeometry(
        d=net.d,
        qudits=qudits,
        edges=edges,
        inputs=input_labels,
        outputs=output_labels,
        depends=depends,
        origin=origin,
        gadgets=gadgets,
        num_links=len(net.links),
    )


def resource_counts(net: CodingNetwork, geometry: MbqcGeometry) -> ResourceCounts:
    """Resource tally of the one-way procedure versus the coherent original.

    qudits = k + 2*l + 2*m for k inputs, l outputs, m internal links.  The
    one-way form needs 2(m+l) more entangling operations than the original
    protocol has controlled-shift gates, and 2(m+l) additional classical
    messages, one pair per auxiliary qudit.  The tally is read off `geometry`,
    compiled from `net`, so run reports, which hold only the geometry, carry
    the same numbers.
    """
    return _tally(geometry)


def _tally(geometry: MbqcGeometry) -> ResourceCounts:
    k = len(geometry.inputs)
    ell = len(geometry.outputs)
    m = geometry.num_links
    nnz = sum(g.matrix.nnz() for g in geometry.gadgets)
    counts = ResourceCounts(
        qudits=k + 2 * ell + 2 * m,
        entangling_ops=nnz + 2 * (m + ell),
        classical_messages_extra=2 * (m + ell),
        cx_count_reference=nnz,
    )
    assert counts.qudits == len(geometry.qudits)
    return counts
