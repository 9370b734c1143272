"""Byte-identical reports: the SHA-256 of every command's output on every
bundled fixture, at the sizes of ``scripts/run_examples.py``, of that
script's own output, of ``closed`` on the branches the fixtures miss, of
``check`` on endomorphisms that violate a relator, and of ``check``,
``compare`` and ``distortion`` on group parameters no fixture uses.

A performance change must leave every report byte for byte as it was.  The
digests in ``golden_digests.json`` pin that down.  Print the digests of the
current code, in the same form, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import sys
import tempfile

import pytest

from endogrowth.cli import run

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE_DIR = ROOT / "src" / "endogrowth" / "fixtures"
GOLDEN = HERE / "golden_digests.json"


def _load_examples():
    spec = importlib.util.spec_from_file_location("run_examples", ROOT / "scripts" / "run_examples.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXAMPLES = _load_examples()

# Per fixture: the generator whose cyclic subgroup ``distortion`` profiles, and
# two ``wordlen`` words, one within the radius and one beyond it.
EXTRAS = {
    "counter": ("beta", "alpha beta", "alpha^5 beta"),
    "bs": ("b", "b^144 a^-6", "a^10 b^-353 a^-1"),
    "heis_ex1": ("a3", "a1^-5 a2^5 a3^-15", "a1^-10 a2^-9 a3^25"),
    "nil2_ex3": ("s12", "t1^2 t2^-1 t3 s12 s13^-4", "t1^-6 t2 t3 s13^3"),
    "klein": ("x", "x^3 y^7", "x^118 y^43"),
    "sol_ex1": ("a1", "a1^36 a2^-59 tau^-4", "tau^9 a1"),
    "sol_ex2": ("a1", "a1^-35 a2^54 tau^-4", "a1^500"),
    "sol_ex3": ("a1", "a1^-30 a2^-79 tau^2", "a2^1000 tau^-3"),
}


SOL_FIB = {"family": "sol_lattice", "params": {"A": [[2, 1], [1, 1]]}}
Z3 = {"family": "free_abelian", "params": {"rank": 3}}
HEIS_K2 = {"family": "heisenberg", "params": {"k": 2}}
HEIS_TWO_GENS = {"family": "heisenberg", "params": {"k": 1, "include_center_gen": False}}
Z7 = {"family": "abelian_with_torsion", "params": {"rank": 0, "torsion": [7]}}
Z_Z40 = {"family": "abelian_with_torsion", "params": {"rank": 1, "torsion": [40]}}
BS3 = {"family": "baumslag_solitar", "params": {"n": 3}}

# Inputs no fixture reaches, run by the command that starts their name.
# ``closed``: Sol types II and III, a type I endomorphism with torus map 0,
# block lists, and the free abelian ``matrix`` shortcut, refusals included.
# ``check``: a shortcut and explicit images that violate a relator, among
# them Sol conjugates by tau^70, and the two-generator Heisenberg lattice.
# ``compare``: explicit images on Heisenberg with k = 2, on its
# two-generator variant, on Z^2 and on Sol at kmax 100.
# ``distortion``: a torsion generator whose powers pass half its order
# within the radius (Z/7) and one whose walk stops on the bound first
# (Z/40), a free one beside it, both Baumslag-Solitar generators with n = 3
# and the two-generator Heisenberg lattice, each as json and csv.  Each
# document is written to a file and passed as ``--<key>``; a plain value is
# passed as the flag's value.
DOCS = {
    # M A = A^-1 M with M = [[-1, 0], [1, 1]] (I + A)
    "closed sol type II": {
        "group": SOL_FIB,
        "endo": {"sol": {"M": [[-3, -1], [4, 3]], "p": 1, "q": -2, "tau_exp": -1}},
    },
    "closed sol type III": {
        "group": SOL_FIB,
        "endo": {"sol": {"M": [[0, 0], [0, 0]], "p": 2, "q": 1, "tau_exp": 3}},
    },
    "closed sol torus map zero": {
        "group": SOL_FIB,
        "endo": {"sol": {"M": [[0, 0], [0, 0]], "p": 1, "q": 2}},
    },
    "closed blocks golden": {
        "blocks": [{"weight": 1, "matrix": [[2, 1], [1, 1]]}, {"weight": 2, "matrix": [[1]]}],
    },
    "closed blocks center": {
        "blocks": [{"weight": 1, "matrix": [[0]]}, {"weight": 2, "matrix": [[4]]}],
    },
    "closed matrix shortcut": {
        "group": Z3,
        "endo": {"matrix": [[2, 0, -1], [1, 1, 0], [0, 3, 1]]},
    },
    # exit 2: not square of the generator count
    "closed matrix shortcut wrong size": {
        "group": Z3,
        "endo": {"matrix": [[1, 0], [0, 1]]},
    },
    # exit 2: a free abelian group takes no 'sol' shortcut
    "closed sol and matrix keys": {
        "group": {"family": "free_abelian", "params": {"rank": 2}},
        "endo": {"sol": {"M": [[1, 0], [0, 1]]}, "matrix": [[1, 0], [0, 1]]},
    },
    # M does not commute with A: tau a1 tau^-1 a1^-2 a2^-1 maps to (-1, 0, 0)
    "check sol shortcut violates relator": {
        "group": SOL_FIB,
        "endo": {"sol": {"M": [[1, 1], [0, 1]]}},
    },
    # [a1, a2] a3 maps to a3
    "check images violate relator": {
        "group": {"family": "heisenberg", "params": {"k": 1}},
        "endo": {"images": {"a1": "a1", "a2": "a2", "a3": "a3^2"}},
    },
    # the abelian block has determinant 1, so [a1, a2] a3^2 maps to itself
    "compare heisenberg k2 images": {
        "group": HEIS_K2,
        "endo": {"images": {"a1": "a1^2 a2", "a2": "a1 a2", "a3": "a3"}},
    },
    "check heisenberg two generators": {
        "group": HEIS_TWO_GENS,
        "endo": {"images": {"a1": "a1^2 a2", "a2": "a1 a2"}},
    },
    "compare heisenberg two generators": {
        "group": HEIS_TWO_GENS,
        "endo": {"images": {"a1": "a1^2 a2", "a2": "a1 a2"}},
    },
    "compare free abelian images": {
        "group": {"family": "free_abelian", "params": {"rank": 2}},
        "endo": {"images": {"e1": "e1^2 e2", "e2": "e1 e2^-1"}},
    },
    # the minimizer's starts reach shift 98, past the powers of A that a
    # search reads
    "compare sol images kmax 100": {
        "group": SOL_FIB,
        "endo": {"images": {"a1": "a1^2 a2", "a2": "a1 a2", "tau": "tau"}},
        "kmax": 100,
        "radius": 3,
    },
    # conjugating by tau^70 reads A^70 and A^-70, past the powers a search
    # reads; the relator witness is
    # (162111800192047008394412817210, -81055900096023504197206408605, 0)
    "check sol conjugates by tau^70": {
        "group": SOL_FIB,
        "endo": {"images": {"a1": "tau^70 a1 tau^-70", "a2": "tau^-70 a2 tau^70", "tau": "tau"}},
    },
    **{
        f"distortion {name} {sub} radius {radius} {fmt}": {
            "group": group, "subgroup": sub, "radius": radius, "format": fmt,
        }
        for name, group, sub, radius in (
            ("torsion 7", Z7, "t1", 10),
            ("rank 1 torsion 40", Z_Z40, "t1", 6),
            ("rank 1 torsion 40", Z_Z40, "a1", 6),
            ("bs 3", BS3, "a", 6),
            ("bs 3", BS3, "b", 6),
            ("heisenberg two generators", HEIS_TWO_GENS, "a1", 8),
        )
        for fmt in ("json", "csv")
    },
}


def cases():
    """(name, argv) of every command run the digests cover."""
    out = []
    for stem, kmax, radius in EXAMPLES.EXAMPLES:
        group = ["--group", str(FIXTURE_DIR / f"{stem}.group")]
        endo = ["--endo", str(FIXTURE_DIR / f"{stem}.endo")]
        sizes = ["--kmax", str(kmax), "--radius", str(radius)]
        sub, near, far = EXTRAS[stem]
        for cmd in ("check", "closed", "empirical", "compare"):
            out.append((f"{cmd} {stem}", [cmd, *group, *endo, *sizes]))
        for fmt in ("json", "csv"):
            out.append((f"ball {stem} {fmt}", ["ball", *group, "--radius", str(radius), "--format", fmt]))
            out.append((
                f"distortion {stem} {fmt}",
                ["distortion", *group, "--radius", str(radius), "--subgroup", sub, "--format", fmt],
            ))
        for word in (near, far):
            out.append((f"wordlen {stem} {word}", ["wordlen", *group, "--radius", str(radius), "--word", word]))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _captured(fn, *args):
    """(return value, stdout) of ``fn(*args)``, stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        value = fn(*args)
    return value, out.getvalue()


def digest_of(argv) -> str:
    """"<exit code> <SHA-256 of stdout>" of one command run."""
    code, text = _captured(run, argv)
    return f"{code} {_digest(text)}"


def doc_digest(name: str, tmp: pathlib.Path) -> str:
    """``digest_of`` a run on the documents of the ``DOCS`` entry ``name``, by
    the command its first word names; a document goes to a file, a plain
    value straight to its flag."""
    argv = [name.split()[0]]
    for key, doc in DOCS[name].items():
        if isinstance(doc, (dict, list)):
            path = tmp / f"{key}.json"
            path.write_text(json.dumps(doc))
            doc = path
        argv += [f"--{key}", str(doc)]
    return digest_of(argv)


def examples_digest() -> str:
    return _digest(_captured(EXAMPLES.main)[1])


def current_digests() -> dict:
    out = {name: digest_of(argv) for name, argv in cases()}
    out["scripts/run_examples.py"] = examples_digest()
    with tempfile.TemporaryDirectory() as tmp:
        out.update((name, doc_digest(name, pathlib.Path(tmp))) for name in DOCS)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted([name for name, _ in cases()] + ["scripts/run_examples.py", *DOCS])


@pytest.mark.parametrize("name, argv", cases(), ids=[name for name, _ in cases()])
def test_report_bytes_unchanged(golden, name, argv):
    assert digest_of(argv) == golden[name]


@pytest.mark.parametrize("name", list(DOCS))
def test_closed_branch_bytes_unchanged(golden, name, tmp_path):
    assert doc_digest(name, tmp_path) == golden[name]


def test_run_examples_output_unchanged(golden):
    assert examples_digest() == golden["scripts/run_examples.py"]


if __name__ == "__main__":
    json.dump(current_digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
