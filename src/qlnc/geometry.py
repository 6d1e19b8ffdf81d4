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

from .network import CodingNetwork, _rows, wiring

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
    # (label, kind) in label_sort_key order, kind in {network-input, message,
    # auxiliary, network-output}
    qudits: list
    edges: list  # (label, label, weight) with weight in 1..d-1
    inputs: list
    outputs: list
    depends: dict  # label -> int array over network inputs
    origin: dict  # label -> human-readable back-reference into the network
    gadgets: list = field(default_factory=list)  # NodeGadget in topological order
    num_links: int = 0
    # what mbqc keeps: ("tables",) -> the mode-independent planning inputs
    # that every plan of the geometry shares (_tables), ("plan", mode,
    # local_aux) -> its plan, which keeps its resolved step programs
    # (_plan_for)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self):
        # the memo holds closures; a copy or an unpickled geometry plans afresh
        return {**self.__dict__, "_memo": {}}

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
    w, rows = wiring(net), _rows(net)
    k, m = net.num_inputs, len(net.links)

    input_labels = [f"s{j + 1}" for j in range(k)]
    link_labels = [f"m{i + 1}" for i in range(m)]
    output_labels = [f"t{j + 1}" for j in range(net.num_outputs)]

    # the qudit arriving at each in-port and leaving each out-port
    labels = {"source": input_labels, "link": link_labels, "target": output_labels}
    in_label = {key: labels[kind][idx] for key, (kind, idx) in w.in_feed.items()}
    out_label = {key: labels[kind][idx] for key, (kind, idx) in w.out_feed.items()}

    # in label_sort_key order: inputs, then each message and each output
    # followed by its auxiliary
    qudits = [(lab, "network-input") for lab in input_labels]
    for labels, kind in ((link_labels, "message"), (output_labels, "network-output")):
        for lab in labels:
            qudits += [(lab, kind), (lab + "'", "auxiliary")]

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
        depends[lab] = rows[i]
        origin[lab] = f"link {i}: {link.from_node}:{link.from_port} -> {link.to_node}:{link.to_port}"
        origin[lab + "'"] = f"auxiliary for {origin[lab]}"
        depends[lab + "'"] = depends[lab]
    for j, lab in enumerate(output_labels):
        node, port = net.target_outputs[j]
        depends[lab] = rows[m + j]
        origin[lab] = f"network output {j} at out-port {port} of node {node}"
        origin[lab + "'"] = f"auxiliary for {origin[lab]}"
        depends[lab + "'"] = depends[lab]

    edges = []
    gadgets = []
    minus_one = (net.d - 1) % net.d
    for nid in w.topo_order:
        node = w.node[nid]
        n_out, n_in = node.matrix.a.shape
        ins = tuple([in_label[nid, p] for p in range(n_in)])
        outs = tuple([out_label[nid, q] for q in range(n_out)])
        auxs = tuple([lab + "'" for lab in outs])
        assert not set(ins).intersection(auxs), "self-edge in compiled geometry"
        for aux, out, row in zip(auxs, outs, node.matrix.a.tolist()):
            edges += [(lab, aux, weight) for lab, weight in zip(ins, row) if weight]
            edges.append((aux, out, minus_one))
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
        num_links=m,
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
