"""On-disk formats: network files, amplitude files, reports.

Network file (UTF-8 JSON):
    {
      "version": 1,
      "d": 2,
      "nodes": [{"id": "S1", "matrix": [[1], [1]]}, ...],
      "links": [["S1", 0, "V1", 0], ...],
      "inputs": [["S1", 0], ...],
      "outputs": [["T1", 0], ...]
    }
Matrix entries may be arbitrary integers; they are reduced mod d on load.

Amplitude file (UTF-8 JSON):
    {"version": 1, "amplitudes": [[re, im], ...]}
listing d^k pairs in basis order (qudit 0 most significant).  The vector is
normalized on load, with a warning when the input norm is off by more than
1e-6.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .network import CodingNetwork, NodeSpec
from .ring import RingMatrix
from .states import QuditState

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "load_network",
    "save_network",
    "load_input_state",
    "dump_json",
]


def network_to_dict(net: CodingNetwork) -> dict:
    return {
        "version": 1,
        "d": net.d,
        "nodes": [{"id": n.id, "matrix": n.matrix.tolist()} for n in net.nodes],
        "links": [[l.from_node, l.from_port, l.to_node, l.to_port] for l in net.links],
        "inputs": [[n, p] for n, p in net.source_inputs],
        "outputs": [[n, p] for n, p in net.target_outputs],
    }


def network_from_dict(doc: dict) -> CodingNetwork:
    try:
        d = int(doc["d"])
        nodes = [NodeSpec(str(n["id"]), RingMatrix(n["matrix"], d)) for n in doc["nodes"]]
        links = [tuple(l) for l in doc["links"]]
        inputs = [tuple(p) for p in doc["inputs"]]
        outputs = [tuple(p) for p in doc["outputs"]]
        return CodingNetwork(d, nodes, links, inputs, outputs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed network document: {exc}") from exc


def load_network(path) -> CodingNetwork:
    with open(path, encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))


def save_network(net: CodingNetwork, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh, indent=2)
        fh.write("\n")


def load_input_state(path, d, n) -> QuditState:
    """Read an amplitude file and shape it into an n-qudit state."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    pairs = doc["amplitudes"]
    if len(pairs) != d**n:
        raise ValueError(
            f"amplitude file holds {len(pairs)} entries, expected {d}^{n} = {d**n}"
        )
    psi = np.asarray([complex(re, im) for re, im in pairs])
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("amplitude file is the zero vector")
    if abs(nrm - 1.0) > 1e-6:
        warnings.warn(f"input state norm {nrm:.8f} renormalized to 1")
    return QuditState(n, d, psi / nrm, normalize_check=False)


def dump_json(doc, out=None):
    """Deterministic JSON rendering; writes to `out` path or returns the text."""
    text = json.dumps(doc, indent=2) + "\n"
    if out is None:
        return text
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
