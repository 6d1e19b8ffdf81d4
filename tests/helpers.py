"""Shared test utilities: brute-force oracles, a Python-int reference
propagation, dense gate matrices with a labelled dense register built on
them, and a random network generator.

The brute-force, rank-mod-p and propagation routines deliberately avoid the
library's ring solvers and wiring, and the dense register its kernels and
their cached tables, so they can serve as independent cross-checks.
"""

from __future__ import annotations

import itertools

import numpy as np

from qlnc.network import CodingNetwork, NodeSpec, composite_map, validate
from qlnc.ring import RingMatrix, is_injective
from qlnc.states import QuditState


def brute_kernel(m: RingMatrix):
    """All vectors x with m @ x = 0, by exhaustive enumeration (d^cols <= 4096)."""
    assert m.d**m.cols <= 4096
    kernel = []
    for x in itertools.product(range(m.d), repeat=m.cols):
        if not m.mul_vec(np.asarray(x)).any():
            kernel.append(x)
    return kernel


def brute_injective(m: RingMatrix) -> bool:
    return len(brute_kernel(m)) == 1 if m.cols else True


def brute_left_inverse_1x1(m: RingMatrix):
    """Exhaustive search over the d candidate 1x1 left inverses."""
    assert m.rows == m.cols == 1
    for a in range(m.d):
        if (a * int(m.a[0, 0])) % m.d == 1:
            return RingMatrix([[a]], m.d)
    return None


def prime_factors(d):
    ps, p = [], 2
    while p * p <= d:
        if d % p == 0:
            ps.append(p)
            while d % p == 0:
                d //= p
        p += 1
    return ps + [d] if d > 1 else ps


def full_column_rank_mod_p(rows, p):
    """Whether the integer matrix `rows` has full column rank over GF(p),
    by Gaussian elimination in Python ints."""
    a = [[x % p for x in row] for row in rows]
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((r for r in range(c, len(a)) if a[r][c]), None)
        if piv is None:
            return False
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], -1, p)
        for r in range(c + 1, len(a)):
            if a[r][c]:
                f = a[r][c] * inv % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return True


def injective_by_rank(m: RingMatrix) -> bool:
    """m is injective over Z_d iff it has full column rank mod every prime p | d."""
    rows = m.a.tolist()
    return all(full_column_rank_mod_p(rows, p) for p in prime_factors(m.d))


def reference_rows(net: CodingNetwork):
    """(link rows, output rows): the value of every link and every network
    output as a row of Python ints over the k inputs, by forward propagation
    in rounds of ready nodes, apart from the library's wiring and integer
    width."""
    d, k = net.d, len(net.source_inputs)
    feed = {(l.to_node, l.to_port): ("link", i) for i, l in enumerate(net.links)}
    feed.update({key: ("input", j) for j, key in enumerate(net.source_inputs)})
    out_link = {(l.from_node, l.from_port): i for i, l in enumerate(net.links)}
    preds = {n.id: {l.from_node for l in net.links if l.to_node == n.id} for n in net.nodes}
    link_rows, port_rows, done = {}, {}, set()
    while len(done) < len(net.nodes):
        ready = [n for n in net.nodes if n.id not in done and preds[n.id] <= done]
        assert ready, "the network has a cycle"
        for n in ready:
            ins = []
            for p in range(n.matrix.cols):
                kind, idx = feed[(n.id, p)]
                ins.append([int(j == idx) for j in range(k)] if kind == "input" else link_rows[idx])
            for q, row in enumerate(n.matrix.a.tolist()):
                val = [sum(a * r[j] for a, r in zip(row, ins)) % d for j in range(k)]
                port_rows[(n.id, q)] = val
                if (n.id, q) in out_link:
                    link_rows[out_link[(n.id, q)]] = val
            done.add(n.id)
    return [link_rows[i] for i in range(len(net.links))], [port_rows[t] for t in net.target_outputs]


def int_matmul(a, b, d):
    """Product of two matrices given as lists of rows, in Python ints mod d."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % d for col in cols] for row in a]


def dense_f(d, inverse=False):
    x, r = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    sign = -1 if inverse else 1
    return np.exp(sign * 2j * np.pi * x * r / d) / np.sqrt(d)


def dense_x(d, power=1):
    m = np.zeros((d, d), dtype=np.complex128)
    for q in range(d):
        m[(q + power) % d, q] = 1
    return m


def dense_z(d, power=1):
    return np.diag(np.exp(2j * np.pi * power * np.arange(d) / d))


def dense_cx(d, power=1):
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for c in range(d):
        for t in range(d):
            m[c * d + (t + power * c) % d, c * d + t] = 1
    return m


def dense_cz(d, power=1):
    diag = [np.exp(2j * np.pi * power * a * b / d) for a in range(d) for b in range(d)]
    return np.diag(diag)


class DenseRegister:
    """Labelled qudits as one amplitude tensor, an axis per live label.  A
    gate contracts a dense_* matrix onto the named axes; a Fourier
    measurement is dense_f(d, inverse=True) on its axis, then the forced
    outcome's slice, renormalized, and the axis is gone."""

    def __init__(self, state, labels):
        self.d, self.labels = state.d, list(labels)
        assert len(self.labels) == state.n
        self.t = state.psi.reshape((state.d,) * state.n)

    def gate(self, matrix, *labels):
        k, axes = len(labels), [self.labels.index(lab) for lab in labels]
        m = matrix.reshape((self.d,) * (2 * k))
        self.t = np.moveaxis(np.tensordot(m, self.t, (list(range(k, 2 * k)), axes)),
                             range(k), axes)

    def add(self, labels, fill):
        """Fresh qudits in |0> (fill "zero") or |+> (fill "plus"), last."""
        fresh = dense_f(self.d)[:, 0] if fill == "plus" else np.eye(self.d)[0]
        for lab in labels:
            assert lab not in self.labels, lab
            self.t = np.multiply.outer(self.t, fresh)
            self.labels.append(lab)

    def measure(self, label, force):
        self.gate(dense_f(self.d, inverse=True), label)
        q, r = self.labels.index(label), force % self.d
        kept = np.take(self.t, r, axis=q)
        p = np.vdot(kept, kept).real
        assert p > 1e-12, (label, r, p)
        self.t = kept / np.sqrt(p)
        del self.labels[q]
        return r

    def state(self, labels):
        """The register over `labels`, exactly the live ones, in that order."""
        assert sorted(labels) == sorted(self.labels), (labels, self.labels)
        t = np.moveaxis(self.t, [self.labels.index(lab) for lab in labels], range(len(labels)))
        return QuditState(len(labels), self.d, t.reshape(-1), normalize_check=False)


def port_step(reg, gadget, j):
    """The one-way step of out-port j of a node: its auxiliary and message
    qudits in |+>, cZ^V[j,k] from in-port k to the auxiliary and cZ^-1 from
    the auxiliary to the message."""
    aux, msg = gadget.aux_labels[j], gadget.out_labels[j]
    reg.add([aux, msg], "plus")
    for lab, w in zip(gadget.in_labels, gadget.matrix.a[j].tolist()):
        if w:
            reg.gate(dense_cz(reg.d, w), lab, aux)
    reg.gate(dense_cz(reg.d, reg.d - 1), aux, msg)


def cx_embed(reg, gadget):
    """The coherent node step |x>|0> -> |x>|Vx>: fresh |0> outputs and
    cX^V[j,k] from in-port k onto out-port j."""
    reg.add(gadget.out_labels, "zero")
    for out, row in zip(gadget.out_labels, gadget.matrix.a.tolist()):
        for lab, w in zip(gadget.in_labels, row):
            if w:
                reg.gate(dense_cx(reg.d, w), lab, out)


def graph_state(geometry, psi):
    """The full graph state of `geometry` on the input state `psi`: every
    other qudit in |+>, then cZ^w for each edge (a, b, w)."""
    reg = DenseRegister(psi, geometry.inputs)
    reg.add([lab for lab, _kind in geometry.qudits if lab not in geometry.inputs], "plus")
    for a, b, w in geometry.edges:
        reg.gate(dense_cz(reg.d, w), a, b)
    return reg


def random_ring_matrix(rng, rows, cols, d):
    return RingMatrix(rng.integers(0, d, size=(rows, cols)), d)


def random_network(
    rng,
    d,
    max_nodes=5,
    max_links=6,
    max_ports=2,
    size_cap=None,
    require_injective=False,
    max_tries=200,
):
    """A random valid coding network, optionally with injective composite map.

    size_cap bounds k + m + l (inputs + links + outputs) to keep state-vector
    simulation within memory for larger d.
    """
    if size_cap is None:
        size_cap = {2: 12, 3: 10, 5: 7}.get(d, 8)
    for _ in range(max_tries):
        net = _draw_network(rng, d, max_nodes, max_links, max_ports, size_cap,
                            require_injective)
        if net is None:
            continue
        assert validate(net) == []
        if require_injective and not is_injective(composite_map(net)):
            continue
        return net
    raise RuntimeError("could not draw a suitable random network")


def _draw_network(rng, d, max_nodes, max_links, max_ports, size_cap, want_inj):
    n = int(rng.integers(1, max_nodes + 1))
    names = [f"N{i}" for i in range(n)]
    links = []
    for j in range(1, n):
        links.append((int(rng.integers(0, j)), j))
    extra = int(rng.integers(0, max_links + 1))
    for _ in range(extra):
        if n < 2 or len(links) >= max_links:
            break
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        links.append((i, j))
    links = links[:max_links]

    indeg = [0] * n
    outdeg = [0] * n
    link_specs = []
    for i, j in links:
        link_specs.append((names[i], outdeg[i], names[j], indeg[j]))
        outdeg[i] += 1
        indeg[j] += 1

    inputs = []
    for i in range(n):
        if indeg[i] == 0:
            want = int(rng.integers(1, max_ports + 1))
            for _ in range(want):
                inputs.append((names[i], indeg[i]))
                indeg[i] += 1
    outputs = []
    for i in range(n):
        if outdeg[i] == 0:
            want = int(rng.integers(1, max_ports + 1))
            for _ in range(want):
                outputs.append((names[i], outdeg[i]))
                outdeg[i] += 1
    if want_inj and len(outputs) < len(inputs):
        node, _ = outputs[-1] if outputs else (names[-1], 0)
        i = names.index(node)
        while len(outputs) < len(inputs):
            outputs.append((names[i], outdeg[i]))
            outdeg[i] += 1

    if len(inputs) + len(links) + len(outputs) > size_cap:
        return None

    nodes = []
    for i in range(n):
        mat = random_ring_matrix(rng, outdeg[i], indeg[i], d)
        if want_inj:
            # nudge towards full rank: ensure no all-zero row or column
            a = mat.a.copy()
            for r in range(a.shape[0]):
                if not a[r].any():
                    a[r, rng.integers(0, a.shape[1])] = 1 + rng.integers(0, d - 1)
            for c in range(a.shape[1]):
                if not a[:, c].any():
                    a[rng.integers(0, a.shape[0]), c] = 1 + rng.integers(0, d - 1)
            mat = RingMatrix(a, d)
        nodes.append(NodeSpec(names[i], mat))
    return CodingNetwork(d, nodes, link_specs, inputs, outputs)
