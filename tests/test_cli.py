"""Command-line surface: subcommands, file formats, exit codes, determinism."""

import json

import pytest

import qlnc.cli as cli
from qlnc.bundled import bundled_path
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
