"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion including the measured numbers.  Tolerances are pinned here:
state agreement at 1 - 1e-9 fidelity, operator identities at 1e-10
entrywise, counting laws exact.
"""

import itertools
import time

import numpy as np

from qlnc.bundled import bundled_path, butterfly_multicast, butterfly_swap
from qlnc.coherent import run_coherent
from qlnc.geometry import compile_network, resource_counts
from qlnc.mbqc import branch_survey, oracle_output_state, run_mbqc
from qlnc.network import composite_map, run_classical
from qlnc.states import QuditState, fidelity
from qlnc.weyl import (
    WeylLabel,
    conjugate_weyl_through,
    fdagger_gadget,
    fdagger_gadget_branch_matrix,
    weyl_matrix,
)
import qlnc.cli as cli

from helpers import DenseRegister, dense_cx, dense_cz, dense_f, dense_x, random_network
from test_coherent import bell_pair, no_block_network

FID_TOL = 1 - 1e-9
ENTRY_TOL = 1e-10


def report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS ({detail})")


def test_criterion_1_butterfly_all_branches():
    """Every forced-outcome branch of the one-way swap delivers the swap."""
    t0 = time.time()
    geo = compile_network(butterfly_swap(2))
    inputs = {
        "|00>": QuditState.basis(2, [0, 0]),
        "|01>": QuditState.basis(2, [0, 1]),
        "|10>": QuditState.basis(2, [1, 0]),
        "|11>": QuditState.basis(2, [1, 1]),
        "bell": bell_pair(),
    }
    M = composite_map(butterfly_swap(2))
    total = 0
    worst = 1.0
    for name, psi in inputs.items():
        expected = oracle_output_state(M, psi)
        count, fid = branch_survey(geo, psi, mode="free", reference=expected)
        assert count == 2**18, name
        assert fid >= FID_TOL, (name, fid)
        total += count
        worst = min(worst, fid)
    # the constrained schedule sweeps the same branch space
    count, fid = branch_survey(geo, inputs["bell"], mode="constrained")
    assert count == 2**18 and fid >= FID_TOL
    # the sweep is the forced-outcome mode of run_mbqc itself: literal runs on
    # sampled vectors reproduce the same branch states
    from qlnc.mbqc import build_schedule

    order = build_schedule(geo, "free").schedule.measurement_order()
    rng = np.random.default_rng(1)
    expected = oracle_output_state(M, inputs["bell"])
    for _ in range(20):
        forced = {lab: int(rng.integers(0, 2)) for lab in order}
        out, _rep = run_mbqc(geo, inputs["bell"], mode="free", forced=forced)
        assert fidelity(out, expected) >= FID_TOL
    elapsed = time.time() - t0
    assert elapsed < 300
    report(1, f"6 x 2^18 branches, worst fidelity deficit {1 - worst:.2e}, {elapsed:.0f}s")


def test_criterion_2_multicast():
    """Classical, coherent, and one-way multicast all reproduce (s1,s2,s1,s2)."""
    net = butterfly_multicast(3)
    geo = compile_network(net)
    worst = 1.0
    for s1, s2 in itertools.product(range(3), repeat=2):
        assert list(run_classical(net, [s1, s2])) == [s1, s2, s1, s2]
        target = QuditState.basis(3, [s1, s2, s1, s2])
        psi = QuditState.basis(3, [s1, s2])
        cout, _ = run_coherent(net, psi, mode="free", seed=s1 * 3 + s2)
        mout, _ = run_mbqc(geo, psi, mode="free", seed=s1 * 3 + s2)
        fc, fm = fidelity(cout, target), fidelity(mout, target)
        assert fc >= FID_TOL and fm >= FID_TOL
        worst = min(worst, fc, fm)
    report(2, f"9 basis inputs, worst fidelity deficit {1 - worst:.2e}")


def test_criterion_3_resource_count_law():
    """qudits = k+2l+2m, entangling = nnz+2(m+l), extra messages = 2(m+l)."""
    rng = np.random.default_rng(2024)
    for i in range(100):
        d = int(rng.choice([2, 3, 5]))
        net = random_network(rng, d, max_nodes=6, max_links=8, size_cap=99)
        rc = resource_counts(net, compile_network(net))
        k, ell, m = net.num_inputs, net.num_outputs, len(net.links)
        nnz = sum(n.matrix.nnz() for n in net.nodes)
        assert rc.qudits == k + 2 * ell + 2 * m
        assert rc.entangling_ops == nnz + 2 * (m + ell)
        assert rc.classical_messages_extra == 2 * (m + ell)

    net = butterfly_swap(2)
    rc = resource_counts(net, compile_network(net))
    # the six node matrices carry twelve nonzero coefficients in total, so
    # the law puts the butterfly at 20 qudits / 30 ops / 18 messages
    assert sum(n.matrix.nnz() for n in net.nodes) == 12
    assert (rc.qudits, rc.entangling_ops, rc.classical_messages_extra) == (20, 30, 18)
    report(3, "100 random networks exact; butterfly 20 / 30 / 18 qudits-ops-messages")


def test_criterion_4_gadget_law():
    """Teleportation gadget = inverse Fourier; Weyl transport matches dense."""
    rng = np.random.default_rng(99)
    worst = 1.0
    for d in (2, 3, 4, 5):
        for _ in range(200):
            psi = QuditState.haar_random(d, 1, rng)
            expected = QuditState(1, d, dense_f(d, inverse=True) @ psi.psi)
            for r in range(d):
                reg = DenseRegister(psi, ["v"])
                reg.add(["w"], "plus")
                reg.gate(dense_cz(d, d - 1), "v", "w")
                reg.measure("v", force=r)
                reg.gate(dense_x(d, r), "w")
                f = fidelity(reg.state(["w"]), expected)
                assert f >= FID_TOL, (d, r, f)
                worst = min(worst, f)
    max_err = 0.0
    for d in (2, 3, 4, 5):
        F_dag = dense_f(d, inverse=True)
        for a in range(d):
            for b in range(d):
                for r in range(d):
                    label, site = conjugate_weyl_through(
                        fdagger_gadget("v", "w", r), WeylLabel(a, b), "v", d
                    )
                    assert site == ("w" if (a, b) != (0, 0) else None)
                    got = label.phase * weyl_matrix(d, label.a, label.b)
                    E = fdagger_gadget_branch_matrix(d, r)
                    want = E @ weyl_matrix(d, a, b) @ E.conj().T
                    err = float(np.max(np.abs(got - want)))
                    assert err < ENTRY_TOL, (d, a, b, r, err)
                    max_err = max(max_err, err)
    report(4, f"800 teleports (worst fidelity deficit {1 - worst:.2e}), Weyl err {max_err:.2e}")


def test_criterion_5_cz_cx_fourier_identity():
    """cZ = (1 x F) cX (1 x F^dag) as d^2 x d^2 matrices."""
    max_err = 0.0
    for d in (2, 3, 4, 5):
        lhs = dense_cz(d)
        rhs = (
            np.kron(np.eye(d), dense_f(d))
            @ dense_cx(d)
            @ np.kron(np.eye(d), dense_f(d, inverse=True))
        )
        err = float(np.max(np.abs(lhs - rhs)))
        assert err < ENTRY_TOL, (d, err)
        max_err = max(max_err, err)
    report(5, f"d in 2..5, max entry error {max_err:.2e}")


def test_criterion_6_three_way_oracle_equivalence():
    """Coherent, one-way (both modes), and the direct isometry agree pairwise."""
    t0 = time.time()
    rng = np.random.default_rng(4242)
    worst = 1.0
    plan = [(2, 20), (3, 20), (5, 10)]
    for d, n_nets in plan:
        for i in range(n_nets):
            net = random_network(
                rng, d, max_nodes=5, max_links=6, require_injective=True
            )
            geo = compile_network(net)
            psi = QuditState.haar_random(d, net.num_inputs, rng)
            oracle = oracle_output_state(composite_map(net), psi)
            states = [oracle]
            for mode in ("free", "constrained"):
                cout, crep = run_coherent(net, psi, mode=mode, seed=i)
                mout, mrep = run_mbqc(geo, psi, mode=mode, seed=i)
                assert crep.ledger_replay_consistent()
                assert mrep.ledger_replay_consistent()
                states.extend([cout, mout])
            for a, b in itertools.combinations(states, 2):
                f = fidelity(a, b)
                assert f >= FID_TOL, (d, i, f)
                worst = min(worst, f)
    elapsed = time.time() - t0
    assert elapsed < 600
    report(6, f"50 networks x 5 states, worst pairwise fidelity deficit {1 - worst:.2e}, {elapsed:.0f}s")


def test_criterion_7_communication_locality():
    """Constrained mode keeps classical data on the network exactly when a
    block-diagonal solution of M^T B M = 1 exists."""
    # permutation composite: butterfly swap
    net = butterfly_swap(2)
    geo = compile_network(net)
    _out, rep = run_mbqc(geo, bell_pair(), mode="constrained", seed=1)
    assert not rep.requires_out_of_network
    assert all(m.over_network for m in rep.messages)
    backward = {}
    for m in rep.messages:
        if m.backward:
            key = m.payload.split("=")[0]
            backward[key] = backward.get(key, 0) + 1
    assert len(backward) == 7 and all(v == 1 for v in backward.values())
    _cout, crep = run_coherent(net, bell_pair(), mode="constrained", seed=1)
    assert not crep.requires_out_of_network
    assert all(m.over_network for m in crep.messages)

    # injective but no block-diagonal B over the target partition
    net2 = no_block_network()
    geo2 = compile_network(net2)
    psi = bell_pair()
    oracle = oracle_output_state(composite_map(net2), psi)
    out2, rep2 = run_mbqc(geo2, psi, mode="constrained", seed=2)
    assert rep2.requires_out_of_network
    assert any(not m.over_network for m in rep2.messages)
    assert fidelity(out2, oracle) >= FID_TOL
    report(7, "permutation: all on-network, 7 backward (1 per link); no-B case flagged")


def test_criterion_8_determinism(tmp_path):
    """Identical inputs and seed give byte-identical reports."""
    pairs = []
    for command in ("run-mbqc", "run-coherent"):
        a, b = tmp_path / f"{command}-a.json", tmp_path / f"{command}-b.json"
        args = [
            command,
            "--network", str(bundled_path("butterfly_swap")),
            "--input-state", str(bundled_path("bell_d2")),
            "--mode", "constrained",
            "--seed", "31337",
        ]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        pairs.append(command)
    report(8, f"byte-identical reports for {', '.join(pairs)}")
