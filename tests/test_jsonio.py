import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferns import jsonio
from ferns.rand import random_pipeline_fern

from conftest import space

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

# (document, key, tampered value): each disagrees with the document's space
TAMPERED = [
    ("gf2_n3.json", "V", {"n": 4, "q": 2}),
    ("gf2_n3.json", "V", {"n": 3, "q": 3}),
    ("gf2_n3.json", "flag_basis", [[1, 0, 0], [0, 1, 0]]),
    ("gf2_n3.json", "flag_basis", [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    ("gf2_mod_plane.json", "flag_basis", [[1, 0, 1]]),
    ("gf2_mod_plane.json", "V", {"n": 1, "q": 2}),
]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)]),
       st.integers(0, 2 ** 32 - 1))
def test_fern_dump_load_dump_is_identical(config, seed):
    f, _ = random_pipeline_fern(space(*config), random.Random(seed))
    text = jsonio.dumps(jsonio.fern_to_json(f))
    g = jsonio.fern_from_json(json.loads(text))
    assert g.space == f.space
    assert g.tree == f.tree
    assert jsonio.dumps(jsonio.fern_to_json(g)) == text


@pytest.mark.parametrize("name,key,value", TAMPERED)
def test_fern_from_json_rejects_summary_mismatch(name, key, value):
    data = json.loads((INPUTS / name).read_text())
    data[key] = value
    with pytest.raises(ValueError, match=f"^{key} "):
        jsonio.fern_from_json(data)
