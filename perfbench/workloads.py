"""The three workloads, as lists of CLI ops generated from a seed.

An op is one ``endogrowth`` command line.  The command mix, the groups and
every size are fixed per workload; the seed picks the op order, the
``wordlen`` targets and the generated matrices from the recorded pool in
``data/pool.json``.  Every op the pool can produce has its expected result in
``data/expected.json`` (see ``record.py``), so any seed can be checked.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "endogrowth" / "fixtures"
DATA = HERE / "data"

COMMANDS = ("check", "closed", "empirical", "compare", "ball", "wordlen", "distortion")
WORKLOADS = ("fixture_sweep", "ball_deep", "exact_deep")

# Per-workload tail percentile over the ops of a pass: the highest multiple of
# 5 that leaves at least ten ops beyond it.  It is fixed rather than derived
# from a sample count, so a faster program cannot move the metric to another
# percentile.
TAIL_PERCENTILE = {"fixture_sweep": 80, "ball_deep": 70, "exact_deep": 60}

# (fixture stem, kmax, radius) as in scripts/run_examples.py, plus the
# generator whose cyclic subgroup `distortion` profiles.
FIXTURE_RUNS = (
    ("counter", 32, 2, "beta"),
    ("bs", 12, 9, "b"),
    ("heis_ex1", 25, 10, "a3"),
    ("nil2_ex3", 12, 6, "s12"),
    ("klein", 20, 10, "x"),
    ("sol_ex1", 40, 8, "a1"),
    ("sol_ex2", 16, 8, "a1"),
    ("sol_ex3", 20, 8, "a1"),
)

# ball_deep: (group, endo, BFS radius, empirical kmax, empirical radius,
# distortion generator).  The endo of the generated rank-3 group is a seeded
# matrix from the pool.
DEEP_RUNS = (
    ("nil2_ex3", "nil2_ex3", 7, 12, 6, "s12"),
    ("heis_ex1", "heis_ex1", 18, 16, 16, "a3"),
    ("bs", "bs", 14, 12, 13, "b"),
    ("klein", "klein", 160, 12, 160, "x"),
    ("z3", None, 25, 12, 22, "e1"),
)
WORDLEN_STRATA = 3  # targets per group on the last sphere, one per third of it

# exact_deep: matrix sizes per generated kind, and Sol/Klein compares at large kmax.
MATRIX_SIZES = {
    "dense": tuple(range(4, 17)),
    "block": (4, 8, 12, 16),
    "jordan": (4, 8, 12, 16),
}
COST_BALANCE = 0.02
SLOT_BAND = 0.1
EXACT_COMPARES = (("sol_ex1", 100, 3), ("sol_ex2", 300, 3), ("sol_ex3", 120, 3), ("klein", 400, 4))

# Inputs that end in a traceback (recursion, big-int overflow, unchecked
# descriptor params) when the benchmark was written.  Every input should end
# in a documented exit code; the probes count those that do not.
EDGE_PROBES = (
    ("wordlen", "sol_ex1", None, "--word", "tau^3000"),
    ("compare", "heis_ex1", "heis_ex1", "--kmax", "45"),
    ("compare", "nil2_ex3", "nil2_ex3", "--kmax", "80"),
    ("compare", "klein", "klein", "--kmax", "1000"),
    ("ball", "fa_empty_params", None, "--radius", "2"),
    ("ball", "heis_str_k", None, "--radius", "2"),
)
PROBE_GROUPS = {
    "fa_empty_params": {"family": "free_abelian", "params": {}},
    "heis_str_k": {"family": "heisenberg", "params": {"k": "2"}},
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``key`` names it in expected.json and is free of paths."""

    key: str
    cmd: str
    group: str
    endo: str | None
    args: tuple[str, ...]


def make_op(cmd, group, endo, *args) -> Op:
    args = tuple(str(a) for a in args)
    key = " ".join([cmd, group, endo or "-", *args])
    return Op(key, cmd, group, endo, args)


def load_pool() -> dict:
    return json.loads((DATA / "pool.json").read_text())


def free_abelian_group(rank: int) -> dict:
    return {"family": "free_abelian", "params": {"rank": rank}}


def load_machine(group):
    """The machine of a fixture stem or of a group descriptor."""
    from endogrowth.reports import parse_group

    doc = group if isinstance(group, dict) else json.loads((FIXTURES / f"{group}.group").read_text())
    return parse_group(doc)[1]


def generated_docs(pool: dict) -> dict:
    """Every generated descriptor by name: free abelian groups and matrix endos."""
    docs = dict(PROBE_GROUPS)
    for kind_n, mats in pool["matrices"].items():
        n = len(mats[0])
        docs[f"z{n}"] = free_abelian_group(n)
        for i, rows in enumerate(mats):
            docs[f"m-{kind_n}-{i}"] = {"matrix": rows}
    return docs


FIXTURE_STEMS = frozenset(stem for stem, *_ in FIXTURE_RUNS)


def descriptor_path(name: str, kind: str, workdir: Path) -> Path:
    """Bundled fixtures are passed as shipped; generated descriptors live in workdir."""
    if name in FIXTURE_STEMS:
        return FIXTURES / f"{name}.{kind}"
    return workdir / f"{name}.json"


def argv(op: Op, workdir: Path) -> list[str]:
    out = [op.cmd, "--group", str(descriptor_path(op.group, "group", workdir))]
    if op.endo is not None:
        out += ["--endo", str(descriptor_path(op.endo, "endo", workdir))]
    return out + list(op.args)


def write_generated(workdir: Path, pool: dict) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, doc in generated_docs(pool).items():
        (workdir / f"{name}.json").write_text(json.dumps(doc))


def fixture_sweep(rng: random.Random, pool: dict) -> list[Op]:
    ops = []
    for stem, kmax, radius, sub in FIXTURE_RUNS:
        common = ("--kmax", kmax, "--radius", radius)
        for cmd in ("check", "closed", "empirical", "compare"):
            ops.append(make_op(cmd, stem, stem, *common))
        ops.append(make_op("ball", stem, None, "--radius", radius))
        word = rng.choice(pool["fixture_words"][f"{stem}@{radius}"])
        ops.append(make_op("wordlen", stem, None, "--radius", radius, "--word", word))
        ops.append(make_op("distortion", stem, None, "--radius", radius, "--subgroup", sub))
    return ops


def ball_deep(rng: random.Random, pool: dict) -> list[Op]:
    ops = []
    for group, endo, radius, kmax, e_radius, sub in DEEP_RUNS:
        if endo is None:
            endo = f"m-z3-{rng.randrange(len(pool['matrices']['z3']))}"
        words = pool["deep_words"][f"{group}@{radius}"]
        ops.append(make_op("ball", group, None, "--radius", radius))
        ops.append(make_op("distortion", group, None, "--radius", radius, "--subgroup", sub))
        ops.append(make_op("empirical", group, endo, "--kmax", kmax, "--radius", e_radius))
        for stratum in words["strata"]:
            ops.append(make_op("wordlen", group, None, "--radius", radius, "--word", rng.choice(stratum)))
        ops.append(make_op("wordlen", group, None, "--radius", radius, "--word", rng.choice(words["beyond"])))
    return ops


def _balanced_matrices(rng: random.Random, pool: dict) -> list[tuple[int, str]]:
    """(size, matrix endo) per (kind, size), drawn among the candidates whose
    recorded cost is within SLOT_BAND of their slot's median, and redrawn
    until the cost of the whole draw is within COST_BALANCE of the median draw.

    Spectral-radius cost varies by up to 2x between matrices of one size, so
    an unbalanced draw would make the seed, not the program, move the time.
    The recorded cost is the op's function-call count (see record.py)."""
    cost = pool["matrix_cost"]
    slots = [(n, f"{kind}{n}") for kind, sizes in MATRIX_SIZES.items() for n in sizes]
    names, target = {}, 0
    for _, slot in slots:
        candidates = [f"m-{slot}-{i}" for i in range(len(pool["matrices"][slot]))]
        median = statistics.median(cost[m] for m in candidates)
        names[slot] = [m for m in candidates if abs(cost[m] / median - 1) <= SLOT_BAND] or [
            min(candidates, key=lambda m: abs(cost[m] - median))
        ]
        target += median
    while True:
        draw = [(n, rng.choice(names[s])) for n, s in slots]
        if abs(sum(cost[m] for _, m in draw) / target - 1) <= COST_BALANCE:
            return draw


def exact_deep(rng: random.Random, pool: dict) -> list[Op]:
    ops = [make_op("closed", f"z{n}", m) for n, m in _balanced_matrices(rng, pool)]
    for stem, kmax, radius in EXACT_COMPARES:
        ops.append(make_op("compare", stem, stem, "--kmax", kmax, "--radius", radius))
    return ops


BUILDERS = {"fixture_sweep": fixture_sweep, "ball_deep": ball_deep, "exact_deep": exact_deep}


def build_ops(workload: str, seed: int, pool: dict | None = None) -> list[Op]:
    """The op list of one pass: same seed, same list; the order is shuffled by the seed."""
    pool = pool if pool is not None else load_pool()
    rng = random.Random(f"{workload}/{seed}")
    ops = BUILDERS[workload](rng, pool)
    rng.shuffle(ops)
    return ops
