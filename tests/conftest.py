import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from endogrowth.ball import enumerate_ball
from endogrowth.exactlin import IntMatrix
from endogrowth.families import (
    BSMachine,
    FreeAbelianMachine,
    HeisenbergMachine,
    KleinMachine,
    Nil2Machine,
    SolMachine,
    TorsionProductMachine,
)

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"
FIXTURE_DIR = SRC_DIR / "endogrowth" / "fixtures"

# Run in a child interpreter, optionally with its address space capped, so
# that a runaway allocation ends the child with MemoryError and not the run.
_CHILD_PRELUDE = """
import resource, sys
limit = int(sys.argv[1])
if limit:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
"""


def run_child(code, *args, limit_mb=0, timeout=120, no_site=False):
    """CompletedProcess of ``python -c code *args`` importing this checkout's
    endogrowth, with RLIMIT_AS set to ``limit_mb`` MiB in the child when given.
    ``no_site`` adds -S: no site hook runs, so the child can import only the
    standard library and endogrowth, and its ``sys.modules`` holds only what
    they import."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    flags = ["-S"] if no_site else []
    argv = [sys.executable, *flags, "-c", _CHILD_PRELUDE + code, str(limit_mb << 20), *args]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that records the arguments of
    each call in the returned list."""
    calls = []
    inner = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def sol_machines(count, seed):
    """``count`` Sol machines of seeded holonomy: determinant 1, trace > 2,
    entries in [-6, 6]."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
        if a * d - b * c == 1 and a + d > 2:
            out.append(SolMachine(IntMatrix.from_rows([[a, b], [c, d]])))
    return out


def check_packed_steps(machine, codec, elements):
    """Each packed step of ``codec`` maps the keys of ``elements``, as one
    list, to the keys of their products by ``mul``, in order, and leaves the
    list as it was; ``decode`` reads every key back."""
    keys = [codec.encode(x) for x in elements]
    assert [codec.decode(k) for k in keys] == list(elements)
    for step, s in zip(codec.steps, machine.step_factors(), strict=True):
        assert step(keys) == [codec.encode(machine.mul(x, s)) for x in elements]
    assert keys == [codec.encode(x) for x in elements]


def inner_length(machine, gen_index, elem):
    """The length of ``elem`` in the cyclic group of generator ``gen_index``,
    or None off that group, read from the canonical word: |e| when it is the
    one letter (gen_index, e), the shorter way round on a torsion generator,
    and 0 when it is empty."""
    letters = machine.decompose(elem).letters
    if not letters:
        return 0
    (i, e), *rest = letters
    return abs(e) if i == gen_index and not rest else None


# an unbounded coordinate's corners; n does not divide it for n = 2..7
_FAR = 2**70 + 3


def box_corners(machine, codec):
    """The normal forms at the corners of ``codec.box``: each bounded
    coordinate at either end, each unbounded one at -_FAR, 0 or _FAR.  On
    Baumslag-Solitar, only the (num, e) already in lowest terms."""
    corners = [()]
    for span in codec.box:
        corners = [x + (v,) for x in corners for v in ((-_FAR, 0, _FAR) if span is None else span)]
    if isinstance(machine, BSMachine):
        corners = [x for x in corners if machine._canonical(x[0], x[1]) == x[:2]]
    return corners


def load_fixture(name):
    with open(FIXTURE_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def heis1():
    return HeisenbergMachine(1)


@pytest.fixture(scope="session")
def klein():
    return KleinMachine()


@pytest.fixture(scope="session")
def bs2():
    return BSMachine(2)


@pytest.fixture(scope="session")
def z2():
    return FreeAbelianMachine(2)


@pytest.fixture(scope="session")
def counter_machine():
    return TorsionProductMachine(1, (2,), ("alpha", "beta"))


@pytest.fixture(scope="session")
def sol_fib():
    return SolMachine(IntMatrix.from_rows([[2, 1], [1, 1]]))


@pytest.fixture(scope="session")
def nil2_ex3():
    # class-2 group with [t2, t3] = s12 s13^2
    return Nil2Machine(
        3,
        ("s12", "s13"),
        (("s12", (1, 2)), ("s13", (1, 3))),
        (((3, 2), (-1, -2)),),
    )


@pytest.fixture(scope="session")
def nil2_commuting():
    # same family with [t2, t3] = 1
    return Nil2Machine(
        3,
        ("s12", "s13"),
        (("s12", (1, 2)), ("s13", (1, 3))),
        (((3, 2), (0, 0)),),
    )


# The Heisenberg lattice with k = 1 as nilpotent2: the same group, steps and
# codec, but with no exact length, so ``ball._meet`` searches it where
# ``HeisenbergMachine(1)`` answers by its closed-form metric
HEIS_NIL2 = Nil2Machine(2, ("a3",), (), (((2, 1), (1,)),), ("a1", "a2"))


@pytest.fixture(scope="session")
def heis_ball20(heis1):
    return enumerate_ball(heis1, 20, cap=2_000_000)


ALL_MACHINES = [
    FreeAbelianMachine(3),
    TorsionProductMachine(1, (2,), ("alpha", "beta")),
    TorsionProductMachine(2, (2, 3)),
    HeisenbergMachine(1),
    HeisenbergMachine(2),
    HeisenbergMachine(1, include_center_gen=False),
    Nil2Machine(3, ("s12", "s13"), (("s12", (1, 2)), ("s13", (1, 3))), (((3, 2), (-1, -2)),)),
    SolMachine(IntMatrix.from_rows([[2, 1], [1, 1]])),
    SolMachine(IntMatrix.from_rows([[1, 1], [2, 3]])),
    KleinMachine(),
    BSMachine(2),
    BSMachine(3),
]


@pytest.fixture(params=ALL_MACHINES, ids=lambda m: f"{m.family}:{','.join(m.gens.names)}")
def any_machine(request):
    return request.param
