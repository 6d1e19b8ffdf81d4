"""Command-line surface: subcommands, file formats, exit codes, determinism."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlnc.cli as cli
from qlnc.bundled import bundled_path, butterfly_swap
from qlnc.files import dump_json, load_input_state, load_network, network_to_dict
from qlnc.states import ImpossibleOutcomeError


BUTTERFLY = str(bundled_path("butterfly_swap"))
MULTICAST = str(bundled_path("butterfly_multicast"))
WIRE = str(bundled_path("identity_wire"))
BELL = str(bundled_path("bell_d2"))


def run_cli(*argv):
    return cli.main(list(argv))


def test_validate_bundled_networks(capsys):
    for path in (BUTTERFLY, MULTICAST, WIRE):
        assert run_cli("validate", "--network", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == []


def test_validate_cyclic_exits_1(tmp_path, capsys):
    doc = {
        "version": 1,
        "d": 2,
        "nodes": [{"id": "A", "matrix": [[1]]}, {"id": "B", "matrix": [[1]]}],
        "links": [["A", 0, "B", 0], ["B", 0, "A", 0]],
        "inputs": [],
        "outputs": [],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", "--network", str(path)) == 1
    assert "cycle" in capsys.readouterr().err


def test_run_classical_multicast(capsys):
    assert run_cli("run-classical", "--network", MULTICAST, "--input", "1,2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"] == [1, 2, 1, 2]


def test_counts_butterfly(capsys):
    assert run_cli("counts", "--network", BUTTERFLY) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["qudits"] == 20
    assert doc["entangling_ops"] == 30
    assert doc["classical_messages_extra"] == 18


def test_compile_mbqc_roundtrip(tmp_path):
    out = tmp_path / "geo.json"
    assert run_cli("compile-mbqc", "--network", BUTTERFLY, "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["qudits"]) == 20
    assert len(doc["edges"]) == 21
    assert doc["inputs"] == ["s1", "s2"]
    assert doc["outputs"] == ["t1", "t2"]


def test_compare_bell_free(capsys):
    assert (
        run_cli(
            "compare",
            "--network",
            BUTTERFLY,
            "--input-state",
            BELL,
            "--mode",
            "free",
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["classical_matches_composite"] is True
    for v in doc["fidelities"].values():
        assert v >= 1 - 1e-9


@pytest.mark.parametrize("network", [BUTTERFLY, MULTICAST, WIRE])
@pytest.mark.parametrize("mode", ["free", "constrained"])
def test_bundled_networks_pass_compare(network, mode, capsys):
    assert run_cli("compare", "--network", network, "--mode", mode, "--seed", "5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classical_matches_composite"] is True
    for v in doc["fidelities"].values():
        assert v >= 1 - 1e-9


def test_compare_layered_composite_modulus(tmp_path, capsys):
    # 4 wide, 2 deep, d = 6: the constrained plan's block system is where
    # integer-lift transforms overflowed int64
    doc = {
        "version": 1,
        "d": 6,
        "nodes": [
            {"id": "L0N0", "matrix": [[5, 4], [5, 3]]},
            {"id": "L0N1", "matrix": [[1, 3], [4, 1]]},
            {"id": "L1N0", "matrix": [[4, 5], [1, 3]]},
            {"id": "L1N1", "matrix": [[0, 1], [5, 4]]},
        ],
        "links": [
            ["L0N1", 0, "L1N0", 0],
            ["L0N0", 0, "L1N0", 1],
            ["L0N0", 1, "L1N1", 0],
            ["L0N1", 1, "L1N1", 1],
        ],
        "inputs": [["L0N0", 0], ["L0N0", 1], ["L0N1", 0], ["L0N1", 1]],
        "outputs": [["L1N0", 0], ["L1N0", 1], ["L1N1", 0], ["L1N1", 1]],
    }
    path = tmp_path / "layered_d6.json"
    path.write_text(json.dumps(doc))
    assert run_cli("compare", "--network", str(path), "--mode", "constrained") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classical_matches_composite"] is True
    for v in out["fidelities"].values():
        assert v == pytest.approx(1.0, abs=1e-12)


def test_run_mbqc_report_fields(capsys):
    assert (
        run_cli(
            "run-mbqc",
            "--network",
            WIRE,
            "--input",
            "1",
            "--mode",
            "constrained",
            "--seed",
            "3",
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["path"] == "mbqc"
    assert doc["fidelity_vs_oracle"] >= 1 - 1e-9
    assert doc["resource_counts"]["qudits"] == 3
    assert doc["wall_time_ms"] is None
    assert doc["seed"] == 3


def test_seeded_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "run-mbqc", "--network", BUTTERFLY, "--input-state", BELL,
        "--mode", "constrained", "--seed", "99",
    ]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exhaustive_wire(capsys):
    assert (
        run_cli("run-mbqc", "--network", WIRE, "--input", "1", "--exhaustive") == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["branches"] == 4
    assert doc["min_fidelity_vs_oracle"] >= 1 - 1e-9
    assert run_cli("run-coherent", "--network", WIRE, "--input", "1", "--exhaustive") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["branches"] == 2


def test_forced_outcomes_flag(capsys):
    assert (
        run_cli(
            "run-coherent", "--network", WIRE, "--input", "1", "--force-outcomes", "1"
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["forced_outcomes"] == [["s1", 1]]
    assert doc["fidelity_vs_oracle"] >= 1 - 1e-9


def test_non_injective_exits_2(tmp_path):
    doc = {
        "version": 1,
        "d": 2,
        "nodes": [{"id": "A", "matrix": [[1, 1]]}],
        "links": [],
        "inputs": [["A", 0], ["A", 1]],
        "outputs": [["A", 0]],
    }
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run-coherent", "--network", str(path), "--input", "0,0") == 2
    assert run_cli("run-coherent", "--network", str(path), "--input", "0,0", "--exhaustive") == 2
    assert run_cli("run-mbqc", "--network", str(path), "--input", "0,0") == 2


def test_malformed_link_exits_1(tmp_path, capsys):
    doc = {
        "version": 1,
        "d": 2,
        "nodes": [{"id": "W", "matrix": [[1]]}],
        "links": [["W", 0, "W"]],
        "inputs": [["W", 0]],
        "outputs": [["W", 0]],
    }
    path = tmp_path / "short_link.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", "--network", str(path)) == 1
    assert "error: cannot load network" in capsys.readouterr().err


@pytest.mark.parametrize("end", [{"id": "Q"}, ["Q"]], ids=["dict", "list"])
@pytest.mark.parametrize("field", [0, 2], ids=["from", "to"])
@pytest.mark.parametrize("command", ["validate", "run-mbqc"])
def test_unhashable_link_end_is_an_unknown_node(tmp_path, capsys, end, field, command):
    path = tmp_path / "network.json"
    path.write_text(json.dumps(_swap_edited("links", 0, end, field=field)))
    assert run_cli(command, "--network", str(path)) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"violation: link 0 references unknown node {str(end)!r}")


def _swap_edited(key, i, value, field=None):
    """The swap network document with entry i of `key`, or its `field`, replaced."""
    doc = network_to_dict(butterfly_swap(2))
    if field is None:
        doc[key][i] = value
    else:
        doc[key][i][field] = value
    return doc


# (case, network document or None for the bundled swap, amplitude document
# or None, whether --out names a missing directory, exit code)
_BAD_FILES_AND_FLAGS = [
    ("no amplitudes key", None, {"version": 1}, False, 64),
    ("bare amplitudes", None, {"version": 1, "amplitudes": [1, 0, 0, 0]}, False, 64),
    ("list document", None, [[1, 0], [0, 0], [0, 0], [0, 0]], False, 64),
    ("infinite amplitude", None, {"version": 1, "amplitudes": [[float("inf"), 0]] + [[0, 0]] * 3},
     False, 64),
    ("NaN amplitude", None, {"version": 1, "amplitudes": [[float("nan"), 0], [1, 0]] + [[0, 0]] * 2},
     False, 64),
    ("three amplitudes for four", None, {"version": 1, "amplitudes": [[1, 0]] + [[0, 0]] * 2},
     False, 64),
    ("all-zero amplitudes", None, {"version": 1, "amplitudes": [[0, 0]] * 4}, False, 64),
    ("string link port", _swap_edited("links", 0, "x", field=1), None, False, 1),
    ("float input port", _swap_edited("inputs", 0, 0.7, field=1), None, False, 1),
    ("string output port", _swap_edited("outputs", 0, "0", field=1), None, False, 1),
    ("out-of-range port", _swap_edited("links", 0, 5, field=3), None, False, 1),
    ("malformed link", _swap_edited("links", 0, ["S1", 0, "V1"]), None, False, 1),
    ("float modulus", {**network_to_dict(butterfly_swap(2)), "d": 2.5}, None, False, 1),
    ("boolean modulus", {**network_to_dict(butterfly_swap(2)), "d": True}, None, False, 1),
    ("modulus beyond int64", {**network_to_dict(butterfly_swap(2)), "d": 2**64}, None, False, 1),
    ("float matrix entry", _swap_edited("nodes", 0, [[1.5], [1]], "matrix"), None, False, 1),
    ("boolean matrix entry", _swap_edited("nodes", 0, [[True], [1]], "matrix"), None, False, 1),
    ("boolean input port", _swap_edited("inputs", 0, False, field=1), None, False, 1),
    ("boolean link port", _swap_edited("links", 0, False, field=3), None, False, 1),
    ("unwritable --out", None, None, True, 64),
]


@pytest.mark.parametrize("command, network, amplitudes, bad_out, code", [
    pytest.param(command, *rest, id=f"{command}: {case}")
    for case, *rest in _BAD_FILES_AND_FLAGS
    for command in ("validate", "run-mbqc", "compare")
    if command != "validate" or rest[1] is None  # validate takes no input state
])
def test_bad_files_and_flags_exit_with_documented_codes(tmp_path, capsys, command, network,
                                                        amplitudes, bad_out, code):
    argv = [command, "--network", BUTTERFLY]
    if network is not None:
        argv[2] = str(tmp_path / "network.json")
        (tmp_path / "network.json").write_text(json.dumps(network))
    if amplitudes is not None:
        argv += ["--input-state", str(tmp_path / "state.json")]
        (tmp_path / "state.json").write_text(json.dumps(amplitudes))
    if bad_out:
        argv += ["--out", str(tmp_path / "missing" / "report.json")]
    assert run_cli(*argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(("error: ", "violation: ")) and "Traceback" not in err
    if code == 1:
        assert err.startswith(("error: cannot load network: ", "violation: "))

def test_impossible_outcome_exits_3(monkeypatch):
    def boom(*_a, **_k):
        raise ImpossibleOutcomeError("forced outcome has probability 0")

    monkeypatch.setattr(cli, "run_mbqc", boom)
    assert run_cli("run-mbqc", "--network", WIRE, "--input", "0") == 3


def test_usage_error_exits_64(capsys):
    assert run_cli("run-mbqc", "--network", WIRE, "--badflag") == 64
    assert run_cli() == 64
    assert run_cli("run-classical", "--network", WIRE, "--input", "0,0") == 64
    capsys.readouterr()


def test_unparsable_vector_exits_64(capsys):
    assert run_cli("run-classical", "--network", WIRE, "--input", "1,x") == 64
    assert capsys.readouterr().err.startswith("error: cannot parse vector")


def test_library_value_error_exits_64(capsys):
    # 9 qudits are measured on the coherent swap; --local-aux needs constrained
    assert run_cli("run-coherent", "--network", BUTTERFLY, "--force-outcomes", "0,0,0") == 64
    assert capsys.readouterr().err.startswith("error: expected 9 forced outcomes")
    assert run_cli("run-mbqc", "--network", WIRE, "--local-aux", "--mode", "free") == 64
    err = capsys.readouterr().err
    assert err == "error: local auxiliary corrections only exist in constrained mode\n"


def test_text_format(capsys):
    assert run_cli("counts", "--network", WIRE, "--format", "text") == 0
    out = capsys.readouterr().out
    assert "qudits: 3" in out


def test_amplitude_file_normalization_warns(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"version": 1, "amplitudes": [[2.0, 0.0], [0.0, 0.0]]}))
    with pytest.warns(UserWarning):
        state = load_input_state(str(path), 2, 1)
    assert np.linalg.norm(state.psi) == pytest.approx(1.0)


def test_network_file_reduces_entries_mod_d(tmp_path):
    doc = {
        "version": 1,
        "d": 3,
        "nodes": [{"id": "A", "matrix": [[-1]]}],
        "links": [],
        "inputs": [["A", 0]],
        "outputs": [["A", 0]],
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    net = load_network(str(path))
    assert net.nodes[0].matrix.tolist() == [[2]]


def test_network_roundtrip():
    text1 = dump_json(network_to_dict(load_network(BUTTERFLY)))
    text2 = dump_json(network_to_dict(load_network(BUTTERFLY)))
    assert text1 == text2


def _swap(tmp_path, d):
    path = tmp_path / f"swap{d}.json"
    dump_json(network_to_dict(butterfly_swap(d)), str(path))
    return str(path)


def _copies(tmp_path, d, n):
    """A network file: one input copied onto n outputs at one node."""
    path = tmp_path / f"copies{d}x{n}.json"
    path.write_text(json.dumps({"version": 1, "d": d, "nodes": [{"id": "A", "matrix": [[1]] * n}],
                                "links": [], "inputs": [["A", 0]],
                                "outputs": [["A", j] for j in range(n)]}))
    return str(path)


def test_register_beyond_memory_exits_4(tmp_path, capsys):
    # one input copied onto 6 outputs over Z_101: the one-way output
    # register holds 101^6 amplitudes, 34 TB of working memory for one run
    path = _copies(tmp_path, 101, 6)
    if os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") >= 3 * 16 * 101**6:
        pytest.skip("this machine could hold the register")
    assert run_cli("run-mbqc", "--network", path) == 4
    assert capsys.readouterr().err.startswith("error: the live register peaks at 6 qudits")


def test_exhaustive_beyond_enumeration_limit_exits_4(tmp_path, capsys):
    # one input copied onto 6 outputs over Z_31: the one-way output
    # register holds 31^6 amplitudes, far above the enumeration limit
    assert run_cli("run-mbqc", "--network", _copies(tmp_path, 31, 6), "--exhaustive") == 4
    err = capsys.readouterr().err
    assert err == "error: live register would need 31^6 amplitudes, above the enumeration limit\n"


def test_exhaustive_beyond_branch_limit_exits_4(capsys):
    # the one-way multicast over Z_3 measures 20 qudits at a peak of 3^4
    # amplitudes, its 4 outputs: only its 3^20 branches are beyond reach
    t0 = time.perf_counter()
    assert run_cli("run-mbqc", "--network", MULTICAST, "--exhaustive") == 4
    err = capsys.readouterr().err
    assert err == "error: the walk would take 3^20 branches, above the enumeration limit\n"
    assert time.perf_counter() - t0 < 5


def test_coherent_exhaustive_beyond_branch_limit_exits_4(tmp_path, capsys):
    # coherently, swap over Z_5 measures 9 qudits at a peak of 5^3
    # amplitudes, the 5 children of its 5^2 input values: its 5^9 branches,
    # one output state each, are beyond reach
    t0 = time.perf_counter()
    assert run_cli("run-coherent", "--network", _swap(tmp_path, 5), "--exhaustive") == 4
    err = capsys.readouterr().err
    assert err == "error: the walk would take 5^9 branches, above the enumeration limit\n"
    assert time.perf_counter() - t0 < 5


def test_exhaustive_with_forced_outcomes_exits_64(capsys):
    for command in ("run-coherent", "run-mbqc"):
        argv = [command, "--network", BUTTERFLY, "--exhaustive", "--force-outcomes", "0,0,0"]
        assert run_cli(*argv) == 64
        assert "not allowed with argument" in capsys.readouterr().err


def test_compare_takes_no_branch_flags(capsys):
    assert run_cli("compare", "--network", WIRE, "--exhaustive") == 64
    assert "unrecognized arguments: --exhaustive" in capsys.readouterr().err
    assert run_cli("compare", "--network", WIRE, "--force-outcomes", "0") == 64
    assert "unrecognized arguments: --force-outcomes" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("run-mbqc", "--mode", "constrained"),
    ("run-mbqc", "--mode", "constrained", "--local-aux"),
    ("run-coherent", "--mode", "constrained"),
])
def test_constrained_runs_on_a_network_without_inputs(tmp_path, capsys, argv):
    # M has no columns, so mᵀ B m = 1 holds for the zero B and no message is
    # needed out of the network
    doc = {"d": 3, "nodes": [{"id": "A", "matrix": [[]]}], "links": [], "inputs": [],
           "outputs": [["A", 0]]}
    path = tmp_path / "no_inputs.json"
    path.write_text(json.dumps(doc))
    assert run_cli(*argv, "--network", str(path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fidelity_vs_oracle"] >= 1 - 1e-9
    assert report["requires_out_of_network"] is False


def _amplitude_file(tmp_path, name, d, k):
    # a fixed state with distinct moduli and phases on every basis vector
    size = d**k
    amps = [complex(j + 1, size - j) for j in range(size)]
    norm = sum(abs(a) ** 2 for a in amps) ** 0.5
    path = tmp_path / f"{name}_state.json"
    path.write_text(json.dumps({"version": 1,
                                "amplitudes": [[a.real / norm, a.imag / norm] for a in amps]}))
    return str(path)


# (bundled network, basis input, one-way free and coherent constrained
# forced-outcome counts)
_CLI_NETWORKS = {
    "butterfly_swap": ("1,0", 18, 9),
    "butterfly_multicast": ("1,2", 20, 9),
    "identity_wire": ("1", 2, 1),
}


def _cli_cases(tmp_path, name):
    """(case, argv) for every command on the bundled network `name`."""
    basis, n_mbqc, n_coherent = _CLI_NETWORKS[name]
    net = load_network(bundled_path(name))
    state = _amplitude_file(tmp_path, name, net.d, net.num_inputs)
    one_way = ",".join(["1"] + ["0"] * (n_mbqc - 1))
    coherent = ",".join(["0"] * n_coherent)
    cases = {
        "validate": ["validate"],
        "run-classical": ["run-classical", "--input", basis],
        "counts": ["counts"],
        "compile-mbqc": ["compile-mbqc"],
        "run-mbqc": ["run-mbqc", "--input", basis, "--seed", "7"],
        "run-mbqc-local-aux": ["run-mbqc", "--input", basis, "--mode", "constrained",
                               "--local-aux", "--seed", "7"],
        "run-mbqc-exhaustive": ["run-mbqc", "--input", basis, "--exhaustive"],
        "run-mbqc-exhaustive-constrained": ["run-mbqc", "--input", basis, "--exhaustive",
                                            "--mode", "constrained"],
        "run-coherent": ["run-coherent", "--input", basis, "--seed", "7"],
        "run-coherent-state": ["run-coherent", "--input-state", state, "--mode",
                               "constrained", "--seed", "3"],
        "compare": ["compare", "--input-state", state, "--seed", "2"],
        "compare-text": ["compare", "--input", basis, "--format", "text", "--mode",
                         "constrained"],
        "run-mbqc-forced": ["run-mbqc", "--input", basis, "--force-outcomes", one_way],
        "run-coherent-forced": ["run-coherent", "--input", basis, "--mode", "constrained",
                                "--force-outcomes", coherent],
    }
    path = str(bundled_path(name))
    return {case: [argv[0], "--network", path, *argv[1:]] for case, argv in cases.items()}


def _rounded(text):
    """The text with every float rounded to 12 digits, as the fidelities are
    the only floats a document holds and their last digits follow the BLAS."""
    return re.sub(r"-?\d+\.\d+(?:e[-+]?\d+)?", lambda m: repr(round(float(m[0]), 12)), text)


def _cli_digests(tmp_path, capsys):
    got = {}
    for name in _CLI_NETWORKS:
        for case, argv in _cli_cases(tmp_path, name).items():
            code = run_cli(*argv)
            out = capsys.readouterr().out
            got[(name, case)] = hashlib.sha256(f"{code}\n{_rounded(out)}".encode()).hexdigest()
    return got


# sha256 of each command's exit code and document, floats rounded to 12
# digits (see _rounded), as rendered when each path kept its own run and
# sweep branches in the CLI
_CLI_GOLDEN = {
    ('butterfly_swap', 'validate'): "a13242943d21eb3a9d25b1cb9484d79895bc47124f163f275cb0886219224a7b",
    ('butterfly_swap', 'run-classical'): "607fc08cee92a76092d0225ffcc041d91fc63480c00c63a4f5dbfb0ffcdd71ca",
    ('butterfly_swap', 'counts'): "7438fe99e23f46c3891c8f3b07e4e3fa36b90a0e077a1fb8d55e024fad75ec14",
    ('butterfly_swap', 'compile-mbqc'): "f0dd8568ae74acbf6af3a20dadb8047e91aeee8eb7221e037596ca4238290464",
    ('butterfly_swap', 'run-mbqc'): "b01b71d66a1be1f338ce857e45b4a063eb8cb45e6d341a91d6fd5b387e1c9465",
    ('butterfly_swap', 'run-mbqc-local-aux'): "8c8316b1a39e805c3988ccb8fae3a4c8951554147736499758aa4c96cc30eb7e",
    ('butterfly_swap', 'run-mbqc-exhaustive'): "86e2377371086822532b12df8cf095ac48812946fce910e5a33f8604627e9886",
    ('butterfly_swap', 'run-mbqc-exhaustive-constrained'): "51aea5bdcfc1c193c7691a57ec95f7fc80ec55f5e4ca2cd46552dc568ed2aa4c",
    ('butterfly_swap', 'run-coherent'): "6fe6d4ae7642bdbbe7b29da598755366cabc190bf0e168a2d07a73205a6c3ead",
    ('butterfly_swap', 'run-coherent-state'): "8092aaa97fa7c55dbc64ac0dfa3403aff35e7a64066d9aec166938198bf0f5c4",
    ('butterfly_swap', 'compare'): "e65809721b69a938c1dc2018863af26b74faa0093459975bc2d4f2210ec5a08e",
    ('butterfly_swap', 'compare-text'): "7259348d94342775518d6c5ca11f875d1a0a1ca4d194518f6c0bae501030c851",
    ('butterfly_swap', 'run-mbqc-forced'): "f396ca9995cc14157299b49818652b45fc348965cfce9ca62e4b1eef9f0de117",
    ('butterfly_swap', 'run-coherent-forced'): "de2618819634eb0bd499fb717f9c888cccbc092edf3efe340d73a08ff2a1e4d8",
    ('butterfly_multicast', 'validate'): "a13242943d21eb3a9d25b1cb9484d79895bc47124f163f275cb0886219224a7b",
    ('butterfly_multicast', 'run-classical'): "6027fbcf6df2787a09636d252a73dde7f18622849d2cf679f213f8fa8fa72af4",
    ('butterfly_multicast', 'counts'): "72091a35538e15f18a20710192855fb4889517407343ec367b2d2d9f69d38cde",
    ('butterfly_multicast', 'compile-mbqc'): "bc4a8079b7adbf8a5188cad68ed320b830641936017beeb70e0a2f37321ef3b3",
    ('butterfly_multicast', 'run-mbqc'): "18aaf65485b99b107f18ed93befa84a9918b169f53a257656e9dd68dcfd0a3c1",
    ('butterfly_multicast', 'run-mbqc-local-aux'): "0bce6eb296ff8153f842c092305e98994b14a6c10ec40521e2374bda530016d7",
    ('butterfly_multicast', 'run-mbqc-exhaustive'): "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    ('butterfly_multicast', 'run-mbqc-exhaustive-constrained'): "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    ('butterfly_multicast', 'run-coherent'): "c9cb696bc94f23b9c0b2de32bd1ddb8f904ef33a0279f50b483c8e1d71dc9237",
    ('butterfly_multicast', 'run-coherent-state'): "f8c158e52e02498d03aa28b7ae1b05d76e9c32d700dfa14141426a8dd75b429c",
    ('butterfly_multicast', 'compare'): "4912bf869f19e721bfe4fa61a9169af0ebc965ecb042c544ad5015b05ec1fdbf",
    ('butterfly_multicast', 'compare-text'): "b7a1e9ab5c28556c85de185a8b63e14ff34840c700777f384a3d4568c1abb7b7",
    ('butterfly_multicast', 'run-mbqc-forced'): "e33321509537829655b2c47d5f73ab90b2614fbd92e2969f547eaba520f9b1c1",
    ('butterfly_multicast', 'run-coherent-forced'): "885ae047f3b14cebfac04efb387eee87feff33083c49fee1c520e796e8cff2a4",
    ('identity_wire', 'validate'): "a13242943d21eb3a9d25b1cb9484d79895bc47124f163f275cb0886219224a7b",
    ('identity_wire', 'run-classical'): "21756f536546c84aab94168c0401d11e06539f96f01b6d071b71837b39601be7",
    ('identity_wire', 'counts'): "3e9b36f42aacb4e2b06a27cbbd54036a957fbf3461272549639d90499b9bdc5c",
    ('identity_wire', 'compile-mbqc'): "cd71f42935edd025d17218620c04998aa880b3a5b20cb69993dca0f50a795192",
    ('identity_wire', 'run-mbqc'): "c3a8f4cef625ef6f9672ec2c5d873a4f454b7060256ff52247d7d79cc928115e",
    ('identity_wire', 'run-mbqc-local-aux'): "f633eb417e6af1094c0667fefefe02cdcf594c70fd177bfb8a58844c980abf31",
    ('identity_wire', 'run-mbqc-exhaustive'): "b6f0dbc27bf0f419009d358abb999a0cff14916d03e280cb29caedf47e72e48b",
    ('identity_wire', 'run-mbqc-exhaustive-constrained'): "221629624318a7fbaf0ce8ab2d12595a2554b029ef9d6ae226681ae2d3178aa1",
    ('identity_wire', 'run-coherent'): "269b8d2ef75b193a8721fbb3f936c3ee4c288c63c67967dabc64d6155f4cb5fa",
    ('identity_wire', 'run-coherent-state'): "10c5ff30d689213d851afdb5063d41ba0a14bde62013537547cd881124cb6f3f",
    ('identity_wire', 'compare'): "0036fc1ccb76b6827e977fd53dd0ebd9b05e73a21bb2acddddbc7ef4f54148c9",
    ('identity_wire', 'compare-text'): "767397d1a26f0b678f786343b758457ef8c1d82fb31fa7ba799af2f68ef95a16",
    ('identity_wire', 'run-mbqc-forced'): "74db1b756c2e04e41816d6c0b55d13211738e4d2e01f62c947b05219747c35ba",
    ('identity_wire', 'run-coherent-forced'): "0229b875681484c4f967902eb2bd2c0dd2ec38fcc9abc0a814bfd28b6901c1fa",
}


def test_cli_documents_match_their_golden_hashes(tmp_path, capsys):
    assert _cli_digests(tmp_path, capsys) == _CLI_GOLDEN


def test_both_sweeps_report_the_same_keys(capsys):
    keys = []
    for command in ("run-coherent", "run-mbqc"):
        assert run_cli(command, "--network", WIRE, "--input", "1", "--exhaustive") == 0
        keys.append(list(json.loads(capsys.readouterr().out)))
    assert keys[0] == keys[1] == ["version", "path", "d", "mode", "branches",
                                  "min_fidelity_vs_oracle", "resource_counts", "wall_time_ms"]


@pytest.mark.parametrize("argv", [
    ("run-coherent",),
    ("run-coherent", "--exhaustive"),
    ("run-mbqc",),
    ("run-mbqc", "--exhaustive"),
    ("compare",),
])
def test_timings_fill_wall_time(capsys, argv):
    assert run_cli(*argv, "--network", WIRE, "--input", "1", "--timings") == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["wall_time_ms"], float) and doc["wall_time_ms"] >= 0


@pytest.mark.parametrize("command", ["run-mbqc", "run-coherent", "compare"])
def test_basis_input_beyond_memory_exits_4(tmp_path, capsys, command):
    # one input of dimension 2^62: its basis state alone would need 2^62
    # amplitudes
    doc = {"version": 1, "d": 2**62, "nodes": [{"id": "A", "matrix": [[1]]}], "links": [],
           "inputs": [["A", 0]], "outputs": [["A", 0]]}
    path = tmp_path / "huge_d.json"
    path.write_text(json.dumps(doc))
    assert run_cli(command, "--network", str(path), "--input", "3") == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the live register peaks at 1 qudits")
    assert run_cli("run-classical", "--network", str(path), "--input", "3") == 0
    assert json.loads(capsys.readouterr().out)["outputs"] == [3]


def test_amplitude_norm_beyond_the_float_range_renormalizes(tmp_path, capsys):
    # every entry is finite, but the squared norm is far beyond the float range
    path = tmp_path / "huge_norm.json"
    path.write_text(json.dumps({"version": 1, "amplitudes": [[1e308, 1e308], [1e308, 0],
                                                             [0, 0], [1, 0]]}))
    with pytest.warns(UserWarning, match="norm 1.7320508e[+]308 renormalized") as caught:
        state = load_input_state(str(path), 2, 2)
    assert [w.category for w in caught] == [UserWarning]
    assert np.linalg.norm(state.psi) == pytest.approx(1.0)
    assert np.allclose(state.psi, np.array([1 + 1j, 1, 0, 1e-308]) / 3**0.5)
    # the CLI prints the warning as its one line of stderr
    code = run_cli("compare", "--network", BUTTERFLY, "--input-state", str(path))
    out, err = capsys.readouterr()
    assert code == 0 and err == "warning: input state norm 1.7320508e+308 renormalized to 1\n"
    assert json.loads(out)["fidelities"]["mbqc_vs_oracle"] > 1 - 1e-9


@pytest.mark.parametrize("command", ["run-coherent", "run-mbqc", "compare"])
def test_basis_and_amplitude_inputs_exclude_each_other(capsys, command):
    argv = [command, "--network", BUTTERFLY, "--input", "1,0", "--input-state", BELL]
    assert run_cli(*argv) == 64
    out, err = capsys.readouterr()
    assert out == "" and "argument --input-state: not allowed with argument --input" in err


@pytest.mark.parametrize("command", ["run-mbqc", "run-coherent", "compare"])
def test_amplitude_file_off_by_a_little_warns_on_one_line(tmp_path, capsys, command):
    # under the tests' warnings-as-errors filter too: the CLI catches the
    # renormalization warning and prints it with its own prefix
    path = tmp_path / "off.json"
    path.write_text(json.dumps({"version": 1, "amplitudes": [[1.001, 0], [0, 0]]}))
    assert run_cli(command, "--network", WIRE, "--input-state", str(path)) == 0
    out, err = capsys.readouterr()
    assert err == "warning: input state norm 1.001 renormalized to 1\n"
    assert json.loads(out)["d"] == 2


def test_compare_refuses_before_the_classical_loop(tmp_path, capsys, monkeypatch):
    # one input copied onto 3 outputs over Z_2003 with 1 GiB of memory: the
    # output register of either run (2003^3 amplitudes) would not fit.  Both
    # runs are checked before the classical loop over all 2003 inputs
    path = _copies(tmp_path, 2003, 3)
    monkeypatch.setattr("qlnc.mbqc.os.sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**18}.get)
    t0 = time.perf_counter()
    assert run_cli("compare", "--network", path, "--input", "5") == 4
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the live register peaks at 3 qudits")


def test_coherent_run_reaches_swap_over_z101(tmp_path, capsys):
    # coherently a register holds the 101^2 amplitudes over the inputs (the
    # dense register held 101^5)
    path = _swap(tmp_path, 101)
    t0 = time.perf_counter()
    assert run_cli("run-coherent", "--network", path, "--input", "7,93") == 0
    assert time.perf_counter() - t0 < 5
    assert json.loads(capsys.readouterr().out)["fidelity_vs_oracle"] >= 1 - 1e-9


@pytest.mark.parametrize("d", [31, 101])
def test_one_way_run_reaches_swap_over_z31_and_z101(tmp_path, capsys, d):
    # the one-way register holds the amplitudes over the 2 inputs, at most
    # their d children: 101^3 amplitudes in all three one-way configs
    path = _swap(tmp_path, d)
    for flags in (["--mode", "free"], ["--mode", "constrained"],
                  ["--mode", "constrained", "--local-aux"]):
        t0 = time.perf_counter()
        assert run_cli("run-mbqc", "--network", path, "--input", f"7,{d - 8}", *flags) == 0
        assert time.perf_counter() - t0 < 5
        assert json.loads(capsys.readouterr().out)["fidelity_vs_oracle"] >= 1 - 1e-9


# the values a fuzzed edit puts into a network file: numbers of every JSON
# kind, names that do and do not match a node, and nested containers
_FUZZ_VALUES = [0, 1, -1, 2, 3, 7, 2**31, 2**64, 0.5, -2.0, float("nan"), True, False, None,
                "", "0", "x", "S1", "V1", "T2", [], [0], [[1]], ["V1", 0], {}, {"id": "Q"}]
_DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 64}


def _positions(doc, at=()):
    """The key/index path of every value below the top of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from _positions(value, at + (key,))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_CLI_NETWORKS)), data=st.data())
def test_edited_network_files_exit_with_documented_codes(tmp_path_factory, name, data):
    # 1-3 random edits of a bundled network file: a value replaced from
    # _FUZZ_VALUES, deleted, or duplicated (next to itself in a list, over a
    # sibling in an object); every command exits with a documented code
    with open(bundled_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        positions = list(_positions(doc))
        if not positions:
            break
        *at, key = data.draw(st.sampled_from(positions), label="position")
        parent = functools.reduce(operator.getitem, at, doc)
        how = data.draw(st.sampled_from(["replace", "delete", "duplicate"]), label="how")
        if how == "replace":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_VALUES), label="value"))
        elif how == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[data.draw(st.sampled_from(sorted(parent)), label="over")] = copy.deepcopy(
                parent[key])
    path = tmp_path_factory.mktemp("fuzz") / "network.json"
    path.write_text(json.dumps(doc))
    inputs = doc.get("inputs") if isinstance(doc, dict) else None
    basis = ",".join(["1"] * len(inputs)) if isinstance(inputs, list) and inputs else "1"
    for argv in (["validate"], ["run-classical", "--input", basis], ["counts"],
                 ["compile-mbqc"], ["run-mbqc"],
                 ["run-mbqc", "--mode", "constrained", "--local-aux"],
                 ["run-coherent", "--mode", "constrained"], ["compare"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv[0], "--network", str(path), *argv[1:])
        assert code in _DOCUMENTED_EXITS, (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
