"""Command-line surface: subcommands, file formats, exit codes, determinism."""

import json
import os
import time

import pytest

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
    assert state.norm() == pytest.approx(1.0)


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


def test_register_beyond_memory_exits_4(tmp_path, capsys):
    # swap over Z_101 keeps 6 qudits live on the one-way path: 101^6
    # amplitudes, 34 TB of working memory for one run
    path = _swap(tmp_path, 101)
    if os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") >= 3 * 16 * 101**6:
        pytest.skip("this machine could hold the register")
    assert run_cli("run-mbqc", "--network", path) == 4
    assert capsys.readouterr().err.startswith("error: the live register peaks at 6 qudits")


def test_exhaustive_beyond_enumeration_limit_exits_4(tmp_path, capsys):
    # swap over Z_31 keeps 6 qudits live on the one-way path: 31^6
    # amplitudes, far above the enumeration limit
    assert run_cli("run-mbqc", "--network", _swap(tmp_path, 31), "--exhaustive") == 4
    err = capsys.readouterr().err
    assert err == "error: live register would need 31^6 amplitudes, above the enumeration limit\n"


def test_exhaustive_beyond_branch_limit_exits_4(capsys):
    # the one-way multicast over Z_3 measures 20 qudits at a peak of 3^7
    # amplitudes: only its 3^20 branches are beyond reach
    t0 = time.perf_counter()
    assert run_cli("run-mbqc", "--network", MULTICAST, "--exhaustive") == 4
    err = capsys.readouterr().err
    assert err == "error: the walk would take 3^20 branches, above the enumeration limit\n"
    assert time.perf_counter() - t0 < 5


def test_coherent_exhaustive_beyond_branch_limit_exits_4(tmp_path, capsys):
    # coherently, swap over Z_5 measures 9 qudits at a peak of 5^5
    # amplitudes: its 5^9 branches, one output state each, are beyond reach
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
