"""report_json writes the bytes of ``json.dumps(x, sort_keys=True, indent=2)``.

The interpreter's own ``json`` is the reference, so the contract is checked
against each Python version the tests run on.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endogrowth.cli import run
from endogrowth.reports import build_report, report_json, unlimited_int_digits

from conftest import FIXTURE_DIR, load_fixture


def reference(tree) -> str:
    with unlimited_int_digits():
        return json.dumps(tree, sort_keys=True, indent=2) + "\n"


class Int(int):
    pass


class Float(float):
    pass


class Str(str):
    pass


# surrogates, control characters, quotes and backslashes (Po) and non-ASCII
TEXT = st.text(st.characters(categories=["Cs", "Cc", "Lu", "Ll", "Lo", "Nd", "Zs", "Po", "So"]), max_size=8)
BIG = 10**4300  # past CPython's default int-to-str digit limit
INTS = st.integers() | st.integers(BIG, BIG * 10**20) | st.integers(-BIG * 10**20, -BIG)
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e308])
SCALARS = (
    st.none()
    | st.booleans()
    | INTS
    | FLOATS
    | TEXT
    | st.builds(Int, st.integers())
    | st.builds(Float, FLOATS)
    | st.builds(Str, TEXT)
)
# keys of one kind each: json sorts the keys themselves, and str does not order against numbers
KEYS = [TEXT | st.builds(Str, TEXT), st.booleans() | st.integers() | FLOATS | st.builds(Int, st.integers()), st.none()]


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(st.sampled_from([True, 1, False, 0, 1.0]), max_size=5)
        | st.one_of([st.dictionaries(keys, children, max_size=5) for keys in KEYS])
    )


TREES = st.recursive(SCALARS, containers, max_leaves=30)


@given(TREES)
@settings(max_examples=400, deadline=None)
def test_report_json_writes_the_bytes_of_json_dumps(tree):
    assert report_json(tree) == reference(tree)


def test_unwritable_values_raise_type_error():
    for bad in ({"a": object()}, {(1, 2): 3}, [1, {1j}]):
        with pytest.raises(TypeError):
            report_json(bad)


ODD = [math.nan, -math.inf, math.inf, -0.0, 1e308, 'é "x', {}, [], [True, 1], [1, 2.5], {"": None}]


@pytest.mark.parametrize("command", ["empirical", "compare"])
def test_odd_scalars_pass_through_a_report(command, tmp_path):
    group_path, out = tmp_path / "g.json", tmp_path / "out.json"
    group_path.write_text(json.dumps({**load_fixture("klein.group"), "extra": ODD}))
    endo_path = FIXTURE_DIR / "klein.endo"
    argv = [command, "--group", str(group_path), "--endo", str(endo_path), "--kmax", "4", "--radius", "3"]
    assert run(argv + ["--out", str(out)]) == 0
    report = build_report(command, json.loads(group_path.read_text()), load_fixture("klein.endo"), kmax=4, radius=3)
    assert out.read_bytes() == reference(report).encode()
