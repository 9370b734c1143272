import json
import os
import pathlib
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


def step_one(step, x):
    """x*s by a chunk step of ``Machine.steps()``, on the one-element chunk [x]."""
    (y,) = step(tuple(zip(x)))
    return y


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
