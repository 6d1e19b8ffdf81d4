"""dump_json renders exactly the text of json.dumps(doc, indent=2)."""

import glob
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlnc.bundled import bundled_path
from qlnc.coherent import run_coherent
from qlnc.files import dump_json, load_network
from qlnc.geometry import compile_network
from qlnc.mbqc import run_mbqc
from qlnc.states import QuditState


def _reference(doc):
    return json.dumps(doc, indent=2) + "\n"


def _bundled_networks():
    nets = []
    folder = os.path.dirname(str(bundled_path("butterfly_swap")))
    for path in sorted(glob.glob(os.path.join(folder, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            if "nodes" in json.load(fh):
                nets.append(load_network(path))
    return nets


def test_reports_of_every_bundled_network_render_as_json_dumps():
    nets = _bundled_networks()
    assert len(nets) == 3
    for net in nets:
        geo = compile_network(net)
        psi = QuditState.haar_random(net.d, net.num_inputs, np.random.default_rng(5))
        reports = [run_mbqc(geo, psi, mode="free", seed=0)[1],
                   run_mbqc(geo, psi, mode="constrained", seed=0)[1],
                   run_mbqc(geo, psi, mode="constrained", seed=0, local_aux=True)[1],
                   run_coherent(net, psi, mode="free", seed=0)[1],
                   run_coherent(net, psi, mode="constrained", seed=0)[1]]
        for report in reports:
            doc = report.to_dict()
            assert dump_json(doc) == _reference(doc)
        assert dump_json(geo.to_dict()) == _reference(geo.to_dict())


_scalars = (st.none() | st.booleans() | st.integers(min_value=-2**70, max_value=2**70)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text())
_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_documents = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(_keys, inner, max_size=5)),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(_documents)
def test_generated_documents_render_as_json_dumps(doc):
    assert dump_json(doc) == _reference(doc)


def test_escapes_and_unserializable_values():
    doc = {"q\"uote\\": ["tab\t", "nl\n", "\x00", "é", "☃", "\U0001f600"],
           1.5: float("nan"), 2: float("-inf"), None: float("inf"), True: -0.0}
    assert dump_json(doc) == _reference(doc)
    for bad in ({(1,): 2}, [object()], {1, 2}, np.int64(3)):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            dump_json(bad)


def test_dump_json_writes_the_text(tmp_path):
    doc = {"a": [1, {"b": []}], "c": {}}
    out = tmp_path / "doc.json"
    assert dump_json(doc, out) == out.read_text(encoding="utf-8") == _reference(doc)
