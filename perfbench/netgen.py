"""Seeded network and input-state generators.

Networks are produced as plain documents in the JSON form `qlnc.files`
reads, so the benchmark hands the program only files it wrote itself.
Injectivity of every random network is decided by `reference.is_injective`
(rank mod p), never by the library.
"""

from __future__ import annotations

import numpy as np

from reference import composite, is_injective


def butterfly_swap(d):
    """Two-pair butterfly: the composite map swaps the two symbols."""
    dup, par = [[1], [1]], [[d - 1, d - 1]]
    return {
        "version": 1,
        "d": d,
        "nodes": [
            {"id": "S1", "matrix": dup},
            {"id": "S2", "matrix": dup},
            {"id": "V1", "matrix": par},
            {"id": "V2", "matrix": dup},
            {"id": "T1", "matrix": par},
            {"id": "T2", "matrix": par},
        ],
        "links": [
            ["S1", 0, "V1", 0],
            ["S2", 0, "V1", 1],
            ["S1", 1, "T1", 0],
            ["V1", 0, "V2", 0],
            ["S2", 1, "T2", 0],
            ["V2", 0, "T1", 1],
            ["V2", 1, "T2", 1],
        ],
        "inputs": [["S1", 0], ["S2", 0]],
        "outputs": [["T1", 0], ["T2", 0]],
    }


def butterfly_multicast(d):
    """Multicast butterfly: both targets receive both symbols."""
    dup = [[1], [1]]
    return {
        "version": 1,
        "d": d,
        "nodes": [
            {"id": "S1", "matrix": dup},
            {"id": "S2", "matrix": dup},
            {"id": "V1", "matrix": [[1, 1]]},
            {"id": "V2", "matrix": dup},
            {"id": "T1", "matrix": [[1, 0], [d - 1, 1]]},
            {"id": "T2", "matrix": [[1, d - 1], [0, 1]]},
        ],
        "links": [
            ["S1", 0, "V1", 0],
            ["S2", 0, "V1", 1],
            ["S1", 1, "T1", 0],
            ["V1", 0, "V2", 0],
            ["S2", 1, "T2", 1],
            ["V2", 0, "T1", 1],
            ["V2", 1, "T2", 0],
        ],
        "inputs": [["S1", 0], ["S2", 0]],
        "outputs": [["T1", 0], ["T1", 1], ["T2", 0], ["T2", 1]],
    }


def identity_wire(d):
    return {
        "version": 1,
        "d": d,
        "nodes": [{"id": "W", "matrix": [[1]]}],
        "links": [],
        "inputs": [["W", 0]],
        "outputs": [["W", 0]],
    }


def _random_matrix(rng, rows, cols, d):
    """Entries in [0, d) with no all-zero row or column."""
    a = rng.integers(0, d, size=(rows, cols))
    for r in range(rows):
        if not a[r].any():
            a[r, rng.integers(0, cols)] = rng.integers(1, d)
    for c in range(cols):
        if not a[:, c].any():
            a[rng.integers(0, rows), c] = rng.integers(1, d)
    return [[int(v) for v in row] for row in a]


def random_dag(rng, d, shape, max_tries=500):
    """A random injective network with the given node shape.

    `shape` lists, per node in topological order, (fresh, take, out): the
    node has `fresh` in-ports fed by new network inputs, `take` in-ports fed
    by links from wires still open (chosen at random), and `out` out-ports
    that open new wires.  The wires left open at the end are the network
    outputs.  Only the wiring choices and the matrix entries are random, so
    k, m and l are fixed by the shape (see `shape_counts`).
    """
    for _ in range(max_tries):
        doc = _draw_dag(rng, d, shape)
        if is_injective(composite(doc), d):
            return doc
    raise RuntimeError(f"no injective network of shape {shape} over Z_{d}")


def _draw_dag(rng, d, shape):
    open_wires = []  # (node, out-port) of produced wires not yet consumed
    nodes, links, inputs = [], [], []
    for i, (fresh, take, out) in enumerate(shape):
        nid = f"N{i}"
        if take > len(open_wires):
            raise ValueError(f"node {i} of shape {shape} takes more wires than are open")
        picks = sorted(rng.choice(len(open_wires), size=take, replace=False).tolist())
        fed = [open_wires[j] for j in picks]
        for j in reversed(picks):
            open_wires.pop(j)
        for port in range(fresh):
            inputs.append([nid, port])
        for port, (fn, fp) in enumerate(fed, start=fresh):
            links.append([fn, fp, nid, port])
        nodes.append({"id": nid, "matrix": _random_matrix(rng, out, fresh + take, d)})
        open_wires.extend((nid, q) for q in range(out))
    return {
        "version": 1,
        "d": d,
        "nodes": nodes,
        "links": links,
        "inputs": inputs,
        "outputs": [[n, p] for n, p in open_wires],
    }


def _invertible_2x2(rng, d):
    while True:
        a, b, c, e = (int(v) for v in rng.integers(0, d, size=4))
        det = (a * e - b * c) % d
        if np.gcd(det, d) == 1:
            return [[a, b], [c, e]]


def layered(rng, d, width, layers):
    """`layers` columns of width/2 invertible 2x2 nodes; wires shuffle between columns.

    Every node is invertible, so the composite map is a width x width
    invertible matrix over Z_d.
    """
    assert width % 2 == 0
    nodes, links, inputs = [], [], []
    prev = None  # per wire: (node, out-port) feeding it
    for layer in range(layers):
        perm = rng.permutation(width).tolist() if layer else list(range(width))
        cur = []
        for j in range(width // 2):
            nid = f"L{layer}N{j}"
            nodes.append({"id": nid, "matrix": _invertible_2x2(rng, d)})
            for port in range(2):
                wire = perm[2 * j + port]
                if prev is None:
                    inputs.append([nid, port])
                else:
                    fn, fp = prev[wire]
                    links.append([fn, fp, nid, port])
            cur.extend([(nid, 0), (nid, 1)])
        prev = cur
    return {
        "version": 1,
        "d": d,
        "nodes": nodes,
        "links": links,
        "inputs": inputs,
        "outputs": [[n, p] for n, p in prev],
    }


def haar_amplitudes(rng, d, k):
    v = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
    return v / np.linalg.norm(v)


def basis_amplitudes(rng, d, k):
    psi = np.zeros(d**k, dtype=np.complex128)
    psi[int(rng.integers(0, d**k))] = 1.0
    return psi


def shape_counts(shape):
    """(k, m, l) of every network `random_dag` draws for this shape."""
    k = sum(f for f, _t, _o in shape)
    m = sum(t for _f, t, _o in shape)
    return k, m, sum(o for _f, _t, o in shape) - m
