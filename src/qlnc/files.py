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
d, the ports and the matrix entries must be JSON integers: a float or a
boolean is refused, as is a modulus or matrix entry beyond int64.  Matrix
entries are reduced mod d on load.

Amplitude file (UTF-8 JSON):
    {"version": 1, "amplitudes": [[re, im], ...]}
listing d^k pairs in basis order (qudit 0 most significant).  The vector is
normalized on load, with a warning when the input norm is off by more than
1e-6.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np

from .network import CodingNetwork, NodeSpec
from .ring import RingMatrix
from .states import QuditState

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "load_network",
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


def _integer(x):
    """x itself if it is a JSON integer; a float or a boolean is refused."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {json.dumps(x, default=repr)}")
    return x


def network_from_dict(doc: dict) -> CodingNetwork:
    try:
        d = _integer(doc["d"])
        matrices = [[list(map(_integer, row)) for row in n["matrix"]] for n in doc["nodes"]]
        nodes = [NodeSpec(str(n["id"]), RingMatrix(m, d)) for n, m in zip(doc["nodes"], matrices)]
        links = [(a, _integer(p), b, _integer(q)) for a, p, b, q in doc["links"]]
        inputs = [(n, _integer(p)) for n, p in doc["inputs"]]
        outputs = [(n, _integer(p)) for n, p in doc["outputs"]]
        return CodingNetwork(d, nodes, links, inputs, outputs)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed network document: {exc}") from exc


def load_network(path) -> CodingNetwork:
    with open(path, encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))


def load_input_state(path, d, n) -> QuditState:
    """Read an amplitude file and shape it into an n-qudit state."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        pairs = doc["amplitudes"]
        if len(pairs) != d**n:
            raise ValueError(
                f"amplitude file holds {len(pairs)} entries, expected {d}^{n} = {d**n}"
            )
        psi = np.asarray([complex(re, im) for re, im in pairs])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed amplitude document: {exc}") from exc
    if not np.isfinite(psi).all():
        raise ValueError("amplitude file holds a non-finite entry")
    # scaled by the power of two that brings the largest part below 1, so
    # the norm cannot overflow and the scaling changes no digit
    parts = psi.view(np.float64)
    exp = int(np.frexp(np.abs(parts).max())[1])
    unit = np.ldexp(parts, -exp).view(np.complex128)
    rel = np.linalg.norm(unit)
    if rel == 0:
        raise ValueError("amplitude file is the zero vector")
    with np.errstate(over="ignore"):
        nrm = float(np.ldexp(rel, exp))  # inf beyond the float range
    if abs(nrm - 1.0) > 1e-6:
        warnings.warn(f"input state norm {nrm:.8g} renormalized to 1")
    return QuditState(n, d, unit / rel, normalize_check=False)


def dump_json(doc, out=None):
    """Deterministic JSON rendering; writes to `out` path or returns the text.

    The text is json.dumps(doc, indent=2) plus a newline, made by _render,
    which skips the generator-based encoder json.dumps falls back to when
    it indents."""
    text = _render(doc, "\n") + "\n"
    if out is None:
        return text
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


_escape = json.encoder.encode_basestring_ascii


def _float_text(x):
    """json's rendering of a float, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key):
    if isinstance(key, str):
        return _escape(key)
    if isinstance(key, (int, float)) or key is None:
        return _escape(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


# the rendering of each scalar type, looked up by exact type; subclasses
# take _render's isinstance checks, in json's order
_LEAF = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda _value: "null",
}


def _render(value, newline):
    """`value` as json.dumps(value, indent=2) renders it, `newline` being the
    line break and indent of the line that holds it."""
    leaf = _LEAF.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_LEAF[type(item)](item) if type(item) in _LEAF else _render(item, inner)
                 for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            (_escape(key) if type(key) is str else _key_text(key)) + ": "
            + (_LEAF[type(item)](item) if type(item) in _LEAF else _render(item, inner))
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
