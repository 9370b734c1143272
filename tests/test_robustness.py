"""Every input ends in a report or a documented exit code, never a traceback.

Descriptors are written to files and run through ``cli.run`` exactly as the
command line would.  Sizes stay small (rank, generator counts, kmax and
radius at most 4) so that no example builds a large group.
"""

import json
import pkgutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import endogrowth
from endogrowth.cli import MAX_JSON_DEPTH, run
from endogrowth.families import MACHINES, Machine

from conftest import FIXTURE_DIR, load_fixture, run_child

DOCUMENTED_EXITS = {0, 2, 3, 4}


def run_docs(command, group, endo, *extra):
    """Exit code of one command on descriptor documents; endo is not passed
    to the commands that take none."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "g.json").write_text(json.dumps(group))
        (tmp / "e.json").write_text(json.dumps(endo))
        argv = [command, "--group", str(tmp / "g.json")]
        if command in ("check", "closed", "empirical", "compare"):
            argv += ["--endo", str(tmp / "e.json")]
        return run(argv + [str(x) for x in extra] + ["--out", str(tmp / "out")])


def test_every_family_class_owns_its_routes():
    kinds = {cls.shortcut for cls in MACHINES.values()} - {None}
    owners = {kind: [tag for tag, cls in MACHINES.items() if cls.shortcut == kind] for kind in kinds}
    assert owners == {"matrix": ["free_abelian"], "sol": ["sol_lattice"]}
    assert all(MACHINES[tag].shortcut_images is not Machine.shortcut_images for [tag] in owners.values())
    assert [tag for tag, cls in MACHINES.items() if cls.closed_form is None] == ["baumslag_solitar"]
    assert all(MACHINES[tag].family == tag for tag in MACHINES)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(endogrowth.__path__)))
def test_each_module_imports_first(module):
    # a fresh interpreter, so an import cycle shows whichever module starts it
    done = run_child(f"import endogrowth.{module}")
    assert done.returncode == 0, done.stderr


HEIS = {"family": "heisenberg", "params": {"k": 1}}


@pytest.mark.parametrize(
    "command, group, endo",
    [
        ("ball", {"family": "free_abelian", "params": {}}, None),
        ("ball", {"family": "heisenberg", "params": {"k": "2"}}, None),
        ("ball", {"family": "free_abelian", "params": []}, None),
        ("compare", load_fixture("sol_ex2.group"), {"sol": {}}),
        ("compare", load_fixture("sol_ex2.group"), {**load_fixture("sol_ex2.endo"), "matrix": [[1, 0], [0, 1]]}),
        ("compare", HEIS, {"images": []}),
        ("ball", {"family": "heisenberg", "params": {"k": True}}, None),
        ("ball", {"family": "baumslag_solitar", "params": {"n": 2.5}}, None),
        ("ball", {"family": "abelian_with_torsion", "params": {"rank": 1, "torsion": "3"}}, None),
        (
            "compare",
            {"family": "nilpotent2", "params": {"n_gens": 2, "central": ["c", "d"], "designated": {"c": [1, 2]}}},
            {"images": {"t1": "t1", "t2": "t2", "c": "c", "d": "d^3"}},
        ),
        # a word must be a JSON string: null is no word "None", and 2 no word "2"
        ("check", {"family": "free_abelian", "params": {"rank": 1, "names": ["None"]}}, {"images": {"None": None}}),
        ("check", {"family": "free_abelian", "params": {"rank": 2, "names": ["1", "2"]}}, {"images": {"1": 2, "2": 1}}),
    ],
    ids=[
        "missing-param", "string-int", "params-list", "sol-shortcut-empty", "two-shortcuts", "images-list",
        "bool-int", "float-int", "string-torsion", "undesignated-central", "null-word", "int-word",
    ],
)
def test_malformed_descriptor_is_a_validation_error(command, group, endo):
    assert run_docs(command, group, endo, "--radius", 2) == 2


@pytest.mark.parametrize(
    "blocks",
    [[{"weight": 1}], [{"weight": 1, "matrix": 5}], {"weight": 1}, [{"weight": "1", "matrix": [[2]]}]],
    ids=["missing-matrix", "int-matrix", "not-a-list", "string-weight"],
)
def test_malformed_block_list_is_a_validation_error(blocks):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blocks.json"
        path.write_text(json.dumps(blocks))
        assert run(["closed", "--blocks", str(path), "--out", str(Path(tmp) / "out")]) == 2


SOL_FIB = {"family": "sol_lattice", "params": {"A": [[2, 1], [1, 1]]}}
Z1 = {"family": "free_abelian", "params": {"rank": 1}}
Z2 = {"family": "free_abelian", "params": {"rank": 2}}
BIG = 10**200
HUGE = 10**400


@pytest.mark.parametrize(
    "command, group, endo",
    [
        # sqrt|det M| of a 10^400 determinant
        ("closed", SOL_FIB, {"sol": {"M": [[BIG + 2, 1], [1, BIG + 1]]}}),
        # mu, nu themselves
        ("closed", SOL_FIB, {"sol": {"M": [[HUGE + 2, 1], [1, HUGE + 1]]}}),
        # x = 0, so only y sqrt(d) overflows, to an infinite nu
        ("closed", SOL_FIB, {"sol": {"M": [[10**308, 2 * 10**308], [2 * 10**308, -(10**308)]]}}),
        ("closed", SOL_FIB, {"sol": {"M": [[0, 0], [0, 0]], "tau_exp": HUGE}}),
        # the k-th root of L_1
        ("empirical", Z2, {"matrix": [[HUGE, 0], [0, 1]]}),
    ],
    ids=["sol-sqrt-det", "sol-eigenvalues", "sol-infinite-nu", "sol-type-three", "kth-root"],
)
def test_growth_beyond_float_range_is_a_certification_failure(command, group, endo, capsys):
    assert run_docs(command, group, endo, "--kmax", 3) == 4
    assert "beyond float range" in capsys.readouterr().err


def test_trend_past_float_range_ratio_is_reported(tmp_path):
    # L_3 / L_1 = 10^400 is beyond float range; its square root is not
    (tmp_path / "g.json").write_text(json.dumps(Z1))
    (tmp_path / "e.json").write_text(json.dumps({"matrix": [[BIG]]}))
    argv = ["empirical", "--group", str(tmp_path / "g.json"), "--endo", str(tmp_path / "e.json")]
    assert run(argv + ["--kmax", "3", "--out", str(tmp_path / "out")]) == 0
    empirical = json.loads((tmp_path / "out").read_text())["empirical"]
    assert empirical["trend"] == pytest.approx(1e200)
    assert empirical["per_gen"]["e1"]["trend"] == pytest.approx(1e200)


def test_ball_on_a_torsion_order_past_a_machine_word(tmp_path):
    # the series pads a cyclic factor's window with m // 2 zeros, which no
    # C-sized count holds once m reaches 2^64
    group = {"family": "abelian_with_torsion", "params": {"rank": 0, "torsion": [10**30]}}
    (tmp_path / "g.json").write_text(json.dumps(group))
    argv = ["ball", "--group", str(tmp_path / "g.json"), "--radius", "3", "--out", str(tmp_path / "out")]
    assert run(argv) == 0
    assert json.loads((tmp_path / "out").read_text())["counts"] == [1, 3, 5, 7]


def nested(depth):
    """A list nested ``depth`` levels deep, as JSON text."""
    return "[" * depth + "]" * depth


# Each document is ``depth`` containers deep; the extra key or item is read by no route.
DEEP_DOCS = {
    "--group": lambda depth: '{"family": "free_abelian", "params": {"rank": 1}, "extra": %s}' % nested(depth - 1),
    "--endo": lambda depth: '{"matrix": [[2]], "extra": %s}' % nested(depth - 1),
    "--blocks": lambda depth: '[{"weight": 1, "matrix": [[2]]}, %s]' % nested(depth - 1),
}


def run_deep(tmp_path, flag, depth):
    """Exit code of ``closed --blocks``, or of ``empirical`` on Z with the
    group or endomorphism document of ``flag``, ``depth`` levels deep."""
    docs = {} if flag == "--blocks" else {"--group": json.dumps(Z1), "--endo": '{"matrix": [[2]]}'}
    docs[flag] = DEEP_DOCS[flag](depth)
    argv = ["closed" if flag == "--blocks" else "empirical", "--kmax", "3", "--out", str(tmp_path / "out")]
    for name, text in docs.items():
        (tmp_path / name[2:]).write_text(text)
        argv += [name, str(tmp_path / name[2:])]
    return run(argv)


@pytest.mark.parametrize("flag", sorted(DEEP_DOCS))
def test_a_descriptor_at_the_nesting_bound_is_read(tmp_path, flag, capsys):
    code = run_deep(tmp_path, flag, MAX_JSON_DEPTH)
    err = capsys.readouterr().err
    assert "nested" not in err
    # a block list is flat, so its extra item fails the block schema
    assert code == (2 if flag == "--blocks" else 0), err


@pytest.mark.parametrize("depth", [MAX_JSON_DEPTH + 1, 2000, 100000])
@pytest.mark.parametrize("flag", sorted(DEEP_DOCS))
def test_a_descriptor_past_the_nesting_bound_is_refused(tmp_path, flag, depth, capsys):
    # past about 1000 levels json's own parser gives up first, at a depth that
    # depends on the Python version; either way the run exits 2 with one line
    assert run_deep(tmp_path, flag, depth) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"nested deeper than {MAX_JSON_DEPTH} levels" in err[0]


small = st.integers(-1, 4)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3, 3),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
int_matrix = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=3)
)
SOL_HOLONOMIES = ([[2, 1], [1, 1]], [[1, 1], [2, 3]], [[3, 1], [2, 1]])


@st.composite
def nil2_params(draw):
    n = draw(st.integers(2, 3))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2, unique=True))
    central = [f"c{i}{j}" for i, j in chosen]
    params = {"n_gens": n, "central": central, "designated": dict(zip(central, map(list, chosen)))}
    if n == 3 and draw(st.booleans()):
        params["gamma"] = {"3,2": draw(st.lists(st.integers(-2, 2), min_size=len(central), max_size=len(central)))}
    return params


# Parameter objects that mostly build a machine, so that many runs get past
# parsing into the routes.
VALID_PARAMS = {
    "free_abelian": st.fixed_dictionaries({"rank": st.integers(1, 4)}),
    "abelian_with_torsion": st.fixed_dictionaries(
        {"rank": st.integers(0, 2), "torsion": st.lists(st.sampled_from((2, 3, 4, 2**64, 10**30)), max_size=2)}
    ),
    "heisenberg": st.fixed_dictionaries({"k": st.integers(1, 3)}, optional={"include_center_gen": st.booleans()}),
    "nilpotent2": nil2_params(),
    "sol_lattice": st.fixed_dictionaries({"A": st.sampled_from(SOL_HOLONOMIES)}),
    "klein_bottle": st.just({}),
    "baumslag_solitar": st.fixed_dictionaries({"n": st.integers(2, 4)}),
}
PARAM_NAMES = ("rank", "torsion", "names", "k", "include_center_gen", "n_gens", "central",
               "designated", "gamma", "tau_names", "A", "n")


@st.composite
def mutated(draw, doc):
    """The document (half the time), or a copy with one entry dropped,
    replaced by junk or added."""
    doc = dict(doc)
    action = draw(st.integers(0, 5))
    if action == 1 and doc:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif action == 2 and doc:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(junk)
    elif action == 3:
        doc[draw(st.sampled_from(PARAM_NAMES))] = draw(st.one_of(junk, int_matrix))
    return doc


@st.composite
def groups(draw):
    family = draw(st.sampled_from(sorted(VALID_PARAMS)))
    params = draw(mutated(draw(VALID_PARAMS[family])))
    doc = {"family": family, "params": params}
    shape = draw(st.integers(0, 9))
    return draw(junk) if shape == 0 else draw(mutated(doc)) if shape == 1 else doc


def word_over(names):
    letters = st.tuples(st.sampled_from(names), st.integers(-2, 2).filter(bool))
    return st.lists(letters, max_size=3).map(
        lambda ls: " ".join(n if e == 1 else f"{n}^{e}" for n, e in ls)
    )


@st.composite
def endos(draw, group):
    """Inner automorphisms, trivial maps and random images over the group's
    generators (valid or not), shortcuts, and junk."""
    from endogrowth.reports import parse_group

    try:
        gens = list(parse_group(group)[1].gens.names)
    except ValueError:
        gens = ["e1", "a1", "x", "tau"]
    kind = draw(st.sampled_from(("inner", "trivial", "random", "sol", "matrix", "junk")))
    if kind == "inner":
        w = draw(word_over(gens))
        inverse = " ".join(
            f"{t.split('^')[0]}^{-int(t.split('^')[1]) if '^' in t else -1}" for t in reversed(w.split())
        )
        images = {g: f"{w} {g} {inverse}".strip() for g in gens}
    elif kind == "trivial":
        images = {g: "" for g in gens}
    elif kind == "random":
        images = {g: draw(word_over(gens)) for g in gens}
    elif kind == "sol":
        payload = draw(st.one_of(
            st.fixed_dictionaries({"M": st.just([[1, 0], [0, 1]])}, optional={"p": small, "q": small}),
            st.fixed_dictionaries({"M": st.just([[0, 0], [0, 0]]), "tau_exp": small}),
            st.fixed_dictionaries({}, optional={"M": st.one_of(int_matrix, junk), "p": junk, "tau_exp": junk}),
        ))
        return draw(mutated({"sol": payload}))
    elif kind == "matrix":
        n = len(gens)
        square = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
        return {"matrix": draw(st.one_of(square, int_matrix, junk))}
    else:
        return draw(junk)
    return draw(mutated({"images": draw(mutated(images))}))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(("check", "closed", "empirical", "compare", "ball", "wordlen", "distortion")),
    data=st.data(),
    kmax=small,
    radius=small,
)
def test_any_descriptor_ends_in_a_documented_exit(command, data, kmax, radius):
    group = data.draw(groups(), label="group")
    endo = data.draw(endos(group), label="endo")
    extra = ["--kmax", kmax, "--radius", radius]
    gens = ["a1", "x", "b", "tau", "e1"]
    if command == "wordlen":
        extra += ["--word", data.draw(word_over(gens), label="word")]
    if command == "distortion":
        extra += ["--subgroup", data.draw(st.sampled_from(gens), label="subgroup")]
    assert run_docs(command, group, endo, *extra) in DOCUMENTED_EXITS


# A finite group's ball stops growing long before a huge --radius; its
# ``radius + 1`` table rows once went to a list of that size.  ``ball`` and
# ``distortion`` refuse such a table; ``empirical`` and ``compare`` look up
# their lengths without one.  Each command runs in a child capped at 256 MiB
# of address space.
FINITE_CHILD = """
import json, os
from endogrowth.cli import run
os.chdir(sys.argv[2])
with open("g.json", "w") as fh:
    json.dump({"family": "abelian_with_torsion", "params": {"rank": 0, "torsion": [3]}}, fh)
with open("e.json", "w") as fh:
    json.dump({"images": {"t1": "t1^2"}}, fh)
sys.exit(run(sys.argv[3:] + ["--group", "g.json", "--out", "out"]))
"""


@pytest.mark.parametrize("radius", [10**8, 10**20])
@pytest.mark.parametrize("argv", [
    ["ball"],
    ["distortion", "--subgroup", "t1"],
    ["empirical", "--endo", "e.json"],
    ["compare", "--endo", "e.json"],
], ids=lambda argv: argv[0])
def test_huge_radius_on_a_finite_group_hits_the_cap(tmp_path, argv, radius):
    done = run_child(FINITE_CHILD, str(tmp_path), *argv, "--radius", str(radius), limit_mb=256)
    if argv[0] in ("ball", "distortion"):
        assert done.returncode == 3, done.stderr
        assert "rows exceeds cap" in done.stderr
        # a --cap above the radius admits a table too large for memory: once
        # a MemoryError (10^8 rows) or OverflowError (10^20 rows) traceback
        done = run_child(FINITE_CHILD, str(tmp_path), *argv, "--radius", str(radius), "--cap", str(10 * radius), limit_mb=256)
        assert done.returncode == 3, done.stderr
        assert "rows does not fit in memory" in done.stderr
        return
    # the length table needs no ball: the exact functional gives |t1^(2^k)| = 1
    assert done.returncode == 0, done.stderr
    rows = json.loads((tmp_path / "out").read_text())["empirical"]["rows"]
    assert [(row["k"], row["length"], row["exact"]) for row in rows] == [(k, 1, True) for k in range(1, 17)]


def test_radius_within_the_cap_pads_a_finite_ball(tmp_path):
    done = run_child(FINITE_CHILD, str(tmp_path), "ball", "--radius", "1000", limit_mb=256)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "out").read_text())["counts"] == [1, 3] + [3] * 999
    done = run_child(FINITE_CHILD, str(tmp_path), "ball", "--radius", "1000", "--cap", "1000", limit_mb=256)
    assert done.returncode == 3, done.stderr


# Z^1 at a radius far past the cap.  ``ball`` sums its series, linear in the
# radius, and stops where the BFS stopped after storing five million
# elements, with the same message.  ``distortion`` stores the powers e1^k,
# which count against --cap, and ends in a report or exit 3.
Z1_CHILD = """
import json, os
from endogrowth.cli import run
os.chdir(sys.argv[2])
with open("g.json", "w") as fh:
    json.dump({"family": "free_abelian", "params": {"rank": 1}}, fh)
sys.exit(run(sys.argv[3:] + ["--group", "g.json", "--radius", "100000000", "--out", "out"]))
"""


def test_huge_radius_ball_on_z1_stops_at_the_cap(tmp_path):
    done = run_child(Z1_CHILD, str(tmp_path), "ball", limit_mb=256)
    assert done.returncode == 3, done.stderr
    assert done.stderr == (
        "resource cap: ball exceeded cap 5000000 while exploring radius 2500000 (completed radius 2499999)\n"
    )


def test_huge_radius_distortion_on_z1_ends_in_a_documented_exit(tmp_path):
    done = run_child(Z1_CHILD, str(tmp_path), "distortion", "--subgroup", "e1", limit_mb=256)
    assert done.returncode in (0, 3), done.stderr
    assert "Traceback" not in done.stderr


# At radius 40 about a million powers of b in BS(1, 2) pass the length lower
# bound, and the lookup search starts a ball around each until memory runs
# out.  Freeing that search must write nothing to stderr but the exit-3 line.
BS_CHILD = """
import json, os
from endogrowth.cli import run
os.chdir(sys.argv[2])
with open("g.json", "w") as fh:
    json.dump({"family": "baumslag_solitar", "params": {"n": 2}}, fh)
sys.exit(run(sys.argv[3:] + ["--group", "g.json", "--out", "out"]))
"""


def test_out_of_memory_in_a_search_prints_one_line(tmp_path):
    done = run_child(BS_CHILD, str(tmp_path), "distortion", "--subgroup", "b", "--radius", "40", limit_mb=256)
    assert done.returncode == 3, done.stderr
    assert done.stderr == "resource cap: out of memory\n"


# Sol distortion looks the torus powers up.  About 32,000 powers of a1 have a
# bound within radius 40, and their search passes the cap, not a full ball.
SOL_CHILD = """
from endogrowth.cli import run
sys.exit(run(sys.argv[3:] + ["--group", sys.argv[2]]))
"""


def test_capped_sol_distortion_stops_in_the_search(tmp_path):
    argv = ["distortion", "--subgroup", "a1", "--radius", "40", "--cap", "200000", "--out", str(tmp_path / "out")]
    done = run_child(SOL_CHILD, str(FIXTURE_DIR / "sol_ex1.group"), *argv, limit_mb=256)
    assert done.returncode == 3, done.stderr
    assert done.stderr == "resource cap: search exceeded cap 200000 at radius 12 (completed radius 11)\n"


# A radius the search never reaches costs nothing: a search sizes its codec
# for the depth it has reached and widens it as it goes.  Sized for the
# radius, Sol's v0 field would sum an entry bound of A^h over every height
# up to it, in every key.  Klein and the torsion product answer by their
# exact length functional, with no search.
@pytest.mark.parametrize(
    "stem, word",
    [("sol_ex1", "a1"), ("bs", "b"), ("heis_ex1", "a1"), ("nil2_ex3", "t1"), ("klein", "x"), ("counter", "beta")],
)
def test_huge_radius_with_a_near_target_is_cheap(tmp_path, stem, word):
    argv = ["wordlen", "--word", word, "--radius", "1000000", "--out", str(tmp_path / "out")]
    done = run_child(SOL_CHILD, str(FIXTURE_DIR / f"{stem}.group"), *argv, limit_mb=256, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "wordlen: 1\n"


def test_huge_radius_ball_stops_at_the_cap(tmp_path):
    argv = ["ball", "--radius", "1000000", "--cap", "100000", "--out", str(tmp_path / "out")]
    done = run_child(SOL_CHILD, str(FIXTURE_DIR / "sol_ex1.group"), *argv, limit_mb=256, timeout=10)
    assert done.returncode == 3, done.stderr
    assert done.stderr == "resource cap: ball exceeded cap 100000 while exploring radius 12 (completed radius 11)\n"


# A far start costs what the heights the search reaches cost.  a^N and a^-N
# have length N, and their sides walk a geodesic with a few pruned b steps
# per sphere; tables filled for every height within reach of every start, or
# b-parts kept over a denominator of every height the search may reach, take
# more than 256 MiB here.
@pytest.mark.parametrize("word, length", [("a^20000", 20000), ("a^-10000", 10000)])
def test_far_baumslag_solitar_target_is_cheap(tmp_path, word, length):
    argv = ["wordlen", "--word", word, "--radius", str(length), "--out", str(tmp_path / "out")]
    done = run_child(SOL_CHILD, str(FIXTURE_DIR / "bs.group"), *argv, limit_mb=256, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"wordlen: {length}\n"
