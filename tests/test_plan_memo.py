"""Plan once, sample many: the plan memo on geometries and networks, the
resolved step programs, and the kernels and report text they feed."""

import copy
import hashlib
import itertools
import pickle

import numpy as np
import pytest

import qlnc.mbqc as mbqc
import qlnc.network as network
from qlnc.bundled import butterfly_multicast, butterfly_swap, identity_wire
from qlnc.coherent import exhaustive_coherent, run_coherent
from qlnc.files import dump_json
from qlnc.geometry import compile_network
from qlnc.mbqc import (
    _run,
    _weyl_rows,
    branch_survey,
    build_schedule,
    exhaustive_mbqc,
    oracle_output_state,
    run_mbqc,
)
from qlnc.network import (
    CodingNetwork,
    InvalidNetworkError,
    NodeSpec,
    UnsupportedNetworkError,
    composite_map,
    port_dependence,
    run_classical,
    validate,
    wiring,
)
from qlnc.ring import RingMatrix, left_inverse
from qlnc.states import QuditState, fidelity

from helpers import random_network
from test_coherent import bell_pair

CONFIGS = ("mbqc-free", "mbqc-constrained", "mbqc-local-aux", "coherent-free",
           "coherent-constrained")


def _report(net, geo, psi, config, seed):
    path, mode = config.split("-", 1)
    if path == "coherent":
        return run_coherent(net, psi, mode=mode, seed=seed)[1]
    return run_mbqc(geo, psi, mode="free" if mode == "free" else "constrained", seed=seed,
                    local_aux=mode == "local-aux")[1]


def _text(report):
    doc = report.to_dict()
    doc["fidelity_vs_oracle"] = round(doc["fidelity_vs_oracle"], 12)
    return dump_json(doc)


# sha256 of the rendered reports, fidelity rounded to 12 digits, as the
# per-run planner rendered them before plans were kept on the geometry
_GOLDEN = {
    ("swap3", "mbqc-free", 0): "78ec21a19d9faff0f06f794e79f8ad0c9ad1d3051234068ab538a712b831ecd0",
    ("swap3", "mbqc-free", 1): "e7ccfe3c1febef16e975105041bc2ec7c9ca4c2774611e31dd40c6a718204a2d",
    ("swap3", "mbqc-constrained", 0): "fa014c7a1d36a4a72cec722ab0fe979c751390c3f8daf99b9ff2a6b6e9a62cd1",
    ("swap3", "mbqc-constrained", 1): "a8cd0b51ee6ef5087c6063fef2f772101f75688ef4f2b3e11e1b18846115753e",
    ("swap3", "mbqc-local-aux", 0): "4258fbb86338ec31986c7435c5dfcc2080a8bafbcc11d0c17d2ac4de8e5d1573",
    ("swap3", "mbqc-local-aux", 1): "2c87e19ffa0c248d3aaa85478ade9174efb6f4a95549a80d4aee2492bb40f367",
    ("swap3", "coherent-free", 0): "20c514328582e885fa42fb1ee905c3b1d19de5ee533c6b45e9934f7708a3fd6c",
    ("swap3", "coherent-free", 1): "eb35b9ed223598a7264f5e6e9cfdaf0ca446b6b6e5d06fbe8a5981e62969b51e",
    ("swap3", "coherent-constrained", 0): "c0d1bfd7a5f3c5e9cf5a67956a4e0678e362ce58f9bd7a1986d518d20fadbeae",
    ("swap3", "coherent-constrained", 1): "815310ee9d69bb403adc5e1579af735e4d23e3569b372320139cb8dc04fa704b",
    ("multicast2", "mbqc-free", 0): "0fed4c9a0c118c3d821555603ea1c591e4646fc165c9a3746a44c14992f958f8",
    ("multicast2", "mbqc-free", 1): "6e7475011a8f37e071770d9b8187a90a748b5ce9b4b43738467bc3ae16e798ac",
    ("multicast2", "mbqc-constrained", 0): "c0d217ede01f156746560d2d2d7e706f5f59d33fa96efd82704fd9c84a69f6e4",
    ("multicast2", "mbqc-constrained", 1): "cf7bf69f3c7c5f6204ad6a8133a147338fc774315e0a5ef173f0744834485815",
    ("multicast2", "mbqc-local-aux", 0): "3a191ffef55f0ae27814902a0c6176a037980df16b455ff998e4695929e17d8d",
    ("multicast2", "mbqc-local-aux", 1): "ac39f7e89dd726271c0efe83c07085d3dcaba70623a9f5102ffbb2f420b14c30",
    ("multicast2", "coherent-free", 0): "77db84bb6e083831fc918652f9987753211946bd350db856199d1ff2920b2012",
    ("multicast2", "coherent-free", 1): "76dc54fe3a71616e6dcb0beec2be1465891a2c9d14b05b7d4fe904dc8ec43512",
    ("multicast2", "coherent-constrained", 0): "314e6f7ce413ae99ef7bccd1366e71d3ad251aab4f8daef0aeb314402452d3f1",
    ("multicast2", "coherent-constrained", 1): "f2e390bb51cac44e93085897f13ad423a587cda4862a8fe3f6c2019185c0842b",
    ("wire2", "mbqc-free", 0): "ba9fd9b4c82361e7b614d3be09887afccee564e91812a24fd99a128a66185dc8",
    ("wire2", "mbqc-free", 1): "84643229101b8c88f5a3f32b6195cd62ca18cc23f788f15349e9065d02e54a6b",
    ("wire2", "mbqc-constrained", 0): "e5cbd1bfca7387631e24ec769d1208e24c9e1ed337d1806e480be0b581818723",
    ("wire2", "mbqc-constrained", 1): "7e5eae4114fb5e6c1ed7a9a121f4032b12acc0739f26127bcd800b347584d89b",
    ("wire2", "mbqc-local-aux", 0): "06bb868f28db2644d4e14bb739f959ddaa0afcea0379fd8b6962d3abd48b6391",
    ("wire2", "mbqc-local-aux", 1): "d270192cc6846b0ead0ffad0f28412a366432e0df4f121af351a48c191e475e4",
    ("wire2", "coherent-free", 0): "8d7fc33c3297a92f722b9074ea01da684da7760395688c2db1d917dadac67024",
    ("wire2", "coherent-free", 1): "7cf25006affc3868ec41fe3cab84d8bfcf29d026b6862fe71c15ae8efc6f25a0",
    ("wire2", "coherent-constrained", 0): "95b6082a2dadd4d9b6ca523831ee35e4ecc536421dcd3f8fda9ea124feec68c2",
    ("wire2", "coherent-constrained", 1): "cfa24be0c6765946c8c8fb237deffd9ee68d0d907ffb6bec7c0e8f947752e33e",
    # one digest per family: three seeded random injective networks over
    # Z_d, every config, seeds 0 and 1 (see _family_texts), as rendered
    # before the live qudits were kept in measurement order
    ("random-d4", "all", "0-1"): "9f39f5502f462289b6f6ed0efba9ea5131df6979481cf9aa1fb52119ae2d9637",
    ("random-d6", "all", "0-1"): "8f1f2ab4a94f69062d7cfc640397960b6d7071d6bf93634a7fb8cc7bb13562e7",
    ("random-d12", "all", "0-1"): "87a544f6c68d339e613af14c533963b3130700309fbe7240c93070030a699198",
}


def _golden_nets():
    return {"swap3": butterfly_swap(3), "multicast2": butterfly_multicast(2),
            "wire2": identity_wire(2)}


def _family_texts(d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        net = random_network(rng, d, require_injective=True, max_nodes=4, max_links=4,
                             size_cap=7)
        geo = compile_network(net)
        psi = QuditState.haar_random(d, net.num_inputs, rng)
        for config, seed in itertools.product(CONFIGS, (0, 1)):
            yield _text(_report(net, geo, psi, config, seed))


def test_seeded_reports_match_their_golden_hashes():
    got = {}
    for name, net in _golden_nets().items():
        geo = compile_network(net)
        psi = QuditState.haar_random(net.d, net.num_inputs, np.random.default_rng(2718))
        for config, seed in itertools.product(CONFIGS, (0, 1)):
            text = _text(_report(net, geo, psi, config, seed))
            got[(name, config, seed)] = hashlib.sha256(text.encode()).hexdigest()
    for d in (4, 6, 12):
        digest = hashlib.sha256()
        for text in _family_texts(d):
            digest.update(text.encode())
        got[(f"random-d{d}", "all", "0-1")] = digest.hexdigest()
    assert got == _GOLDEN


def test_memo_hits_render_the_reports_of_fresh_compiles():
    rng = np.random.default_rng(31)
    nets = list(_golden_nets().values()) + [
        random_network(rng, d, require_injective=True, max_nodes=4, max_links=4, size_cap=6)
        for d in (4, 5, 6)
    ]
    for net in nets:
        geo = compile_network(net)
        psi = QuditState.haar_random(net.d, net.num_inputs, rng)
        for config, seed in itertools.product(CONFIGS, (3, 4)):
            kept = [_text(_report(net, geo, psi, config, seed)) for _ in range(2)]
            fresh_net = CodingNetwork(net.d, net.nodes, net.links, net.source_inputs,
                                      net.target_outputs)
            fresh = _text(_report(fresh_net, compile_network(fresh_net), psi, config, seed))
            assert kept == [fresh, fresh], config


def test_runs_plan_once_per_mode_while_build_schedule_plans_anew(monkeypatch):
    calls = []

    def counting(geometry, mode, local_aux=False):
        calls.append((mode, local_aux))
        return build_schedule(geometry, mode, local_aux=local_aux)

    monkeypatch.setattr(mbqc, "build_schedule", counting)
    net = butterfly_swap(2)
    geo = compile_network(net)
    for seed in range(4):
        run_mbqc(geo, bell_pair(), mode="free", seed=seed)
        run_mbqc(geo, bell_pair(), mode="constrained", seed=seed)
        run_mbqc(geo, bell_pair(), mode="constrained", seed=seed, local_aux=True)
        run_coherent(net, bell_pair(), mode="free", seed=seed)
        run_coherent(net, bell_pair(), mode="constrained", seed=seed)
    branch_survey(geo, bell_pair(), mode="free")
    next(exhaustive_mbqc(geo, bell_pair(), mode="constrained", local_aux=True))
    next(exhaustive_coherent(net, bell_pair(), mode="constrained"))
    # once per mode on `geo`, and once per mode on the geometry the coherent
    # entry points compile and keep on `net`
    assert sorted(calls) == [("constrained", False)] * 2 + [("constrained", True)] + [
        ("free", False)
    ] * 2
    fresh = butterfly_swap(2)
    for seed in range(2):
        run_coherent(fresh, bell_pair(), mode="free", seed=seed)
    assert calls.count(("free", False)) == 3
    # the public planner keeps no memo
    assert build_schedule(geo, "free") is not build_schedule(geo, "free")


def test_unplannable_runs_raise_on_every_call():
    net = CodingNetwork(2, [NodeSpec("A", RingMatrix([[1, 1]], 2))], [],
                        [("A", 0), ("A", 1)], [("A", 0)])
    geo = compile_network(net)
    psi = QuditState.basis(2, [0, 1])
    for _ in range(2):
        with pytest.raises(UnsupportedNetworkError):
            run_mbqc(geo, psi, mode="free", seed=0)
        with pytest.raises(UnsupportedNetworkError):
            run_coherent(net, psi, mode="constrained", seed=0)
        with pytest.raises(UnsupportedNetworkError):
            branch_survey(geo, psi)
    swap = compile_network(butterfly_swap(2))
    run_mbqc(swap, bell_pair(), mode="free", seed=0)
    for _ in range(2):
        with pytest.raises(ValueError, match="only exist in constrained mode"):
            run_mbqc(swap, bell_pair(), mode="free", seed=0, local_aux=True)


def test_runs_leave_the_records_of_a_kept_plan_unchanged():
    # the step records hash by value but are not frozen, so a kept plan is
    # only safe while nothing that runs it writes to them
    net = butterfly_swap(3)
    geo = compile_network(net)
    psi = QuditState.haar_random(3, 2, np.random.default_rng(17))
    for mode, local_aux in (("free", False), ("constrained", False), ("constrained", True)):
        plan = mbqc._plan_for(geo, mode, local_aux)
        records = [step for stage in plan.schedule.stages for step in stage.steps]
        records += [op[1] for op in plan.report_order if op[0] == "corr"]
        before = [(copy.deepcopy(r), hash(r)) for r in records]
        runs = [_text(run_mbqc(geo, psi, mode=mode, seed=9, local_aux=local_aux)[1])
                for _ in range(2)]
        next(exhaustive_mbqc(geo, psi, mode=mode, local_aux=local_aux))
        assert runs[0] == runs[1]
        assert mbqc._plan_for(geo, mode, local_aux) is plan
        assert [(r, hash(r)) for r in records] == before


def test_memory_check_runs_on_every_run_of_a_kept_plan(monkeypatch):
    checked = []
    monkeypatch.setattr(mbqc, "_check_memory",
                        lambda d, live, tables: checked.append((d, live)))
    net = butterfly_swap(3)
    geo = compile_network(net)
    psi = QuditState.basis(3, [1, 2])
    for seed in range(3):
        run_mbqc(geo, psi, mode="constrained", seed=seed)
        run_coherent(net, psi, mode="constrained", seed=seed)
    assert checked == [(3, 3), (3, 3)] * 3


def test_networks_and_geometries_pickle_after_runs():
    net = butterfly_swap(3)
    geo = compile_network(net)
    psi = QuditState.haar_random(3, 2, np.random.default_rng(13))
    want = [_text(_report(net, geo, psi, config, 5)) for config in CONFIGS]
    net2, geo2 = pickle.loads(pickle.dumps((net, geo)))
    assert net2 == net and geo2.to_dict() == geo.to_dict()
    assert [_text(_report(net2, geo2, psi, config, 5)) for config in CONFIGS] == want
    assert copy.deepcopy(net) == net


def _analyses(monkeypatch):
    """Counts of network._inspect calls and of node maps propagated."""
    counts = {"inspect": 0, "propagate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(network, "_inspect", counted("inspect", network._inspect))
    monkeypatch.setattr(network, "_matmul_mod", counted("propagate", network._matmul_mod))
    return counts


def _analyse(net):
    """Everything that reads a network's analysis, as a comparable value."""
    in_rows, out_rows = port_dependence(net)
    return (validate(net), wiring(net).topo_order, compile_network(net).to_dict(),
            composite_map(net), {key: row.tolist() for key, row in in_rows.items()},
            {key: row.tolist() for key, row in out_rows.items()},
            run_classical(net, [1] * net.num_inputs).tolist())


def test_a_network_is_analysed_once(monkeypatch):
    counts = _analyses(monkeypatch)
    net = butterfly_multicast(3)
    first = _analyse(net)
    assert _analyse(net) == first
    run_coherent(net, QuditState.basis(3, [1, 2]), mode="constrained", seed=0)
    # one inspection, and one propagation through each node's map
    assert counts == {"inspect": 1, "propagate": len(net.nodes)}
    for twin in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert twin == net and twin._memo == {}
        assert _analyse(twin) == first
    assert counts == {"inspect": 3, "propagate": 3 * len(net.nodes)}


def test_kept_analysis_hands_out_fresh_or_read_only_containers():
    net = butterfly_swap(2)
    violations = validate(net)
    violations.append("changed by a caller")
    assert validate(net) == [] and validate(net) is not validate(net)
    sizes = [len(rows) for rows in port_dependence(net)]
    for rows in port_dependence(net):
        for row in rows.values():
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1
        rows.clear()
    assert [len(rows) for rows in port_dependence(net)] == sizes == [9, 9]
    geo = compile_network(net)
    with pytest.raises(ValueError, match="read-only"):
        geo.depends["t1"][0] += 1
    assert compile_network(net) is not geo and compile_network(net).to_dict() == geo.to_dict()


def test_an_invalid_network_raises_on_every_call():
    net = CodingNetwork(2, [NodeSpec("A", RingMatrix([[1]], 2))], [("A", 0, "A", 0)],
                        [("A", 0)], [("A", 0)])
    want = validate(net)
    assert want and validate(net) == want
    for _ in range(2):
        for call in (wiring, port_dependence, composite_map, compile_network,
                     lambda n: run_classical(n, [0])):
            with pytest.raises(InvalidNetworkError) as err:
                call(net)
            assert err.value.violations == want


def test_free_and_constrained_plans_share_one_left_inverse(monkeypatch):
    rng = np.random.default_rng(3)
    for _ in range(100):
        net = random_network(rng, 3, require_injective=True)
        if build_schedule(compile_network(net), "constrained").requires_out_of_network:
            break
    else:
        pytest.fail("no random network needs out-of-network messages")
    calls = []
    monkeypatch.setattr(mbqc, "left_inverse", lambda M: calls.append(M) or left_inverse(M))
    for modes in (("free", "constrained"), ("constrained", "free")):
        geo = compile_network(net)
        plans = [build_schedule(geo, mode) for mode in modes] + [build_schedule(geo, "free")]
        assert len(calls) == 1
        calls.clear()
        # each call still builds a new plan from new step records
        free = plans[modes.index("free")]
        assert plans[-1] is not free and plans[-1].schedule == free.schedule
        kept = {id(step) for stage in free.schedule.stages for step in stage.steps}
        assert not kept & {id(step) for stage in plans[-1].schedule.stages for step in stage.steps}


def test_shuffled_measurement_order_runs_through_the_driver():
    # within a frontier block the measurements commute, so a plan whose
    # blocks are shuffled must deliver the same output from its own program
    geo = compile_network(butterfly_swap(3))
    rng = np.random.default_rng(8)
    psi = QuditState.haar_random(3, 2, rng)
    for mode, local_aux in (("free", False), ("constrained", False), ("constrained", True)):
        plan = build_schedule(geo, mode, local_aux=local_aux)
        forced = {lab: int(rng.integers(0, 3)) for lab in plan.schedule.measurement_order()}
        want, _rep = run_mbqc(geo, psi, mode=mode, forced=forced, local_aux=local_aux)
        shuffled, block = [], []
        for op in plan.physical:
            if op[0] == "measure":
                block.append(op)
                continue
            rng.shuffle(block)
            shuffled += block + [op]
            block = []
        rng.shuffle(block)
        plan.physical[:] = shuffled + block
        got, _rep = _run(plan, psi, None, forced)
        assert fidelity(got, want) >= 1 - 1e-9


def test_node_without_in_ports_runs_on_both_paths():
    # a node with no in-ports still emits |0> (coherent) or a gadget (one-way)
    net = CodingNetwork(3, [NodeSpec("Z", RingMatrix(np.zeros((1, 0), dtype=np.int64), 3)),
                            NodeSpec("A", RingMatrix([[1]], 3))],
                        [], [("A", 0)], [("Z", 0), ("A", 0)])
    geo = compile_network(net)
    psi = QuditState.haar_random(3, 1, np.random.default_rng(12))
    for mode in ("free", "constrained"):
        assert run_coherent(net, psi, mode=mode, seed=0)[1].fidelity_vs_oracle >= 1 - 1e-12
        assert run_mbqc(geo, psi, mode=mode, seed=0)[1].fidelity_vs_oracle >= 1 - 1e-12
    assert branch_survey(geo, psi)[0] == 27
    assert sum(1 for _ in exhaustive_coherent(net, psi)) == 3


# -- kernels ------------------------------------------------------------

def _weyl_reference(arr, op, axis, exps, d):
    out = arr.copy()
    for b, e in enumerate(exps):
        if op == "X":
            out[b] = np.roll(arr[b], int(e), axis=axis - 1)
        else:
            shape = [1] * (arr.ndim - 1)
            shape[axis - 1] = d
            out[b] = arr[b] * np.exp(2j * np.pi * int(e) * np.arange(d) / d).reshape(shape)
    return out


def test_weyl_rows_match_a_per_row_reference():
    rng = np.random.default_rng(9)
    for d, live, rows in ((2, 3, 1), (3, 2, 7), (4, 3, 512), (6, 3, 40), (5, 1, 3)):
        arr = rng.normal(size=(rows,) + (d,) * live) + 1j * rng.normal(size=(rows,) + (d,) * live)
        for op, axis in itertools.product("XZ", range(1, live + 1)):
            for exps in (rng.integers(0, d, rows), np.full(rows, d - 1), np.zeros(rows, int)):
                got = _weyl_rows(arr, op, axis, exps, d)
                want = _weyl_reference(arr, op, axis, exps, d)
                if op == "X":
                    assert np.array_equal(got, want)
                else:
                    assert np.allclose(got, want, atol=1e-14)


def _oracle_reference(M, psi):
    """sum_x psi_x |M x>, one input basis vector at a time in Python ints."""
    d, k, ell = psi.d, psi.n, M.rows
    out = np.zeros(d**ell, dtype=np.complex128)
    rows = M.a.tolist()
    for x in itertools.product(range(d), repeat=k):
        idx = 0
        for v in x:
            idx = idx * d + v
        if psi.psi[idx] == 0:
            continue
        out_idx = 0
        for row in rows:
            out_idx = out_idx * d + sum(a * b for a, b in zip(row, x)) % d
        out[out_idx] += psi.psi[idx]
    return out


def test_oracle_output_state_matches_a_python_reference():
    rng = np.random.default_rng(10)
    for _ in range(60):
        d = int(rng.choice([2, 3, 4, 6, 10, 12]))
        k = int(rng.integers(0, 4 if d < 10 else 3))
        ell = int(rng.integers(1, 4 if d < 10 else 3))
        M = RingMatrix(rng.integers(-3 * d, 3 * d, size=(ell, k)), d)
        psi = rng.normal(size=d**k) + 1j * rng.normal(size=d**k)
        psi[rng.random(d**k) < 0.3] = 0
        state = QuditState(k, d, psi, normalize_check=False)
        got = oracle_output_state(M, state)
        assert got.n == ell and np.array_equal(got.psi, _oracle_reference(M, state))
    net = butterfly_multicast(3)
    psi = QuditState.haar_random(3, 2, rng)
    assert np.array_equal(oracle_output_state(composite_map(net), psi).psi,
                          _oracle_reference(composite_map(net), psi))
