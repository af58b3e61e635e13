import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ferns import jsonio
from ferns.rand import random_pipeline_fern

from conftest import space


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
