"""Regenerate data/pool.json and data/expected.json.

    python3 perfbench/record.py

The pool holds every input a seed can pick: wordlen targets sampled from
recorded Cayley balls and generated integer matrices.  expected.json holds
the exit code and mathematical result of every op the pool can produce, as
computed by the program in this checkout.  Run it only to extend the pool,
on a commit whose results are trusted; the benchmark compares every later
commit against these values.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import workloads as wl
from workloads import DATA, DEEP_RUNS, EXACT_COMPARES, FIXTURE_RUNS, MATRIX_SIZES, SRC, make_op

sys.path.insert(0, str(SRC))

from endogrowth import cli  # noqa: E402
from endogrowth.ball import enumerate_ball  # noqa: E402
from endogrowth.words import word_str  # noqa: E402

from harness import NUMPY_TOL, extract, numpy_radius, run_op  # noqa: E402

POOL_SEED = 1411_6360
POOL_SIZE = 6  # candidates per seeded choice
ENTRY_RANGE = 3  # dense entries uniform in [-3, 3]


def _word(machine, elem) -> str:
    return word_str(machine.decompose(elem), machine.gens)


def _sphere_thirds(machine, radius: int) -> tuple[list, list]:
    """Sphere R in thirds by BFS discovery order, and sphere R+1.

    Discovery order sets how much of the last sphere word_length explores
    before it stops, so targets drawn from a fixed third cost nearly the same
    for every seed."""
    ball = enumerate_ball(machine, radius + 1)
    sphere = [e for e, d in ball.dist.items() if d == radius]
    beyond = [e for e, d in ball.dist.items() if d == radius + 1]
    third = max(1, len(sphere) // wl.WORDLEN_STRATA)
    return [sphere[i * third:(i + 1) * third] or sphere for i in range(wl.WORDLEN_STRATA)], beyond


def _draw(rng: random.Random, machine, elems: list) -> list:
    return [_word(machine, e) for e in rng.choices(elems, k=POOL_SIZE)]


def fixture_words(rng: random.Random) -> dict:
    """Targets on the middle third of sphere R for each fixture radius R."""
    out = {}
    for stem, _, radius, _ in FIXTURE_RUNS:
        machine = wl.load_machine(stem)
        thirds, _ = _sphere_thirds(machine, radius)
        out[f"{stem}@{radius}"] = _draw(rng, machine, thirds[1])
    return out


def deep_words(rng: random.Random) -> dict:
    """Targets on each third of sphere R, and beyond it on sphere R+1."""
    out = {}
    for group, _, radius, *_ in DEEP_RUNS:
        machine = wl.load_machine(wl.free_abelian_group(3) if group == "z3" else group)
        thirds, beyond = _sphere_thirds(machine, radius)
        out[f"{group}@{radius}"] = {
            "strata": [_draw(rng, machine, t) for t in thirds],
            "beyond": _draw(rng, machine, beyond),
        }
    return out


def _block2(rng: random.Random) -> list:
    """A random nonsingular 2x2 block with two distinct eigenvalues."""
    while True:
        (a, b), (c, d) = [[rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(2)] for _ in range(2)]
        if a * d - b * c != 0 and (a - d) ** 2 + 4 * b * c != 0:
            return [[a, b], [c, d]]


def _permuted(rng: random.Random, rows: list) -> list:
    n = len(rows)
    p = list(range(n))
    rng.shuffle(p)
    return [[rows[p[i]][p[j]] for j in range(n)] for i in range(n)]


def _block_diag(blocks: list) -> list:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def matrix(kind: str, n: int, rng: random.Random) -> list:
    """dense: entries in [-3, 3].  block: one 2x2 block repeated (repeated,
    semisimple roots).  jordan: 4x4 blocks [[B, I], [0, B]] (Jordan chains of
    length two), padded with B.  Structured kinds are permuted so their
    entries do not sit on the diagonal."""
    if kind == "dense":
        return [[rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(n)] for _ in range(n)]
    b = _block2(rng)
    if kind == "block":
        return _permuted(rng, _block_diag([b] * (n // 2)))
    jordan = _block_diag([b, b])
    jordan[0][2] = jordan[1][3] = 1
    return _permuted(rng, _block_diag([jordan] * (n // 4) + [b] * (n % 4 // 2)))


def matrices(rng: random.Random) -> dict:
    out = {"z3": [matrix("dense", 3, rng) for _ in range(POOL_SIZE)]}
    for kind, sizes in MATRIX_SIZES.items():
        for n in sizes:
            out[f"{kind}{n}"] = [matrix(kind, n, rng) for _ in range(POOL_SIZE)]
    return out


def all_ops(pool: dict) -> list:
    """Every op any seed can produce."""
    ops = []
    for stem, kmax, radius, sub in FIXTURE_RUNS:
        common = ("--kmax", kmax, "--radius", radius)
        ops += [make_op(cmd, stem, stem, *common) for cmd in ("check", "closed", "empirical", "compare")]
        ops.append(make_op("ball", stem, None, "--radius", radius))
        ops.append(make_op("distortion", stem, None, "--radius", radius, "--subgroup", sub))
        for word in pool["fixture_words"][f"{stem}@{radius}"]:
            ops.append(make_op("wordlen", stem, None, "--radius", radius, "--word", word))
    for group, endo, radius, kmax, e_radius, sub in DEEP_RUNS:
        ops.append(make_op("ball", group, None, "--radius", radius))
        ops.append(make_op("distortion", group, None, "--radius", radius, "--subgroup", sub))
        endos = [endo] if endo else [f"m-z3-{i}" for i in range(len(pool["matrices"]["z3"]))]
        ops += [make_op("empirical", group, e, "--kmax", kmax, "--radius", e_radius) for e in endos]
        words = pool["deep_words"][f"{group}@{radius}"]
        for word in sum(words["strata"], []) + words["beyond"]:
            ops.append(make_op("wordlen", group, None, "--radius", radius, "--word", word))
    for kind, sizes in MATRIX_SIZES.items():
        for n in sizes:
            for i in range(len(pool["matrices"][f"{kind}{n}"])):
                ops.append(make_op("closed", f"z{n}", f"m-{kind}{n}-{i}"))
    for stem, kmax, radius in EXACT_COMPARES:
        ops.append(make_op("compare", stem, stem, "--kmax", kmax, "--radius", radius))
    return ops


def call_count(fn) -> int:
    """Python and builtin function calls made by fn(): a deterministic measure
    of work that tracks spectral_radius time, unlike a timing on a shared host."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _dumps(doc, depth: int) -> str:
    """JSON with one entry per line down to ``depth``: small, and diffs stay readable."""
    if depth == 0 or not isinstance(doc, dict):
        return json.dumps(doc, sort_keys=True)
    items = (f"{json.dumps(k)}: {_dumps(v, depth - 1)}" for k, v in sorted(doc.items()))
    return "{\n" + ",\n".join(items) + "\n}"


def main():
    rng = random.Random(POOL_SEED)
    pool = {"fixture_words": fixture_words(rng), "deep_words": deep_words(rng), "matrices": matrices(rng)}
    pool["matrix_cost"] = {}
    expected = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        wl.write_generated(workdir, pool)
        out = workdir / "out.json"
        for op in all_ops(pool):
            code, _ = run_op(cli.run, op, workdir, out)
            result = extract(op.cmd, json.loads(out.read_text())) if code == 0 else None
            expected[op.key] = {"exit": code, "result": result}
            if op.cmd == "closed" and op.endo.startswith("m-"):
                pool["matrix_cost"][op.endo] = call_count(lambda: run_op(cli.run, op, workdir, out))
                rows = json.loads(wl.descriptor_path(op.endo, "endo", workdir).read_text())["matrix"]
                ref = numpy_radius(rows)
                if abs(result["value"] - ref) > NUMPY_TOL:
                    raise SystemExit(f"{op.key}: closed {result['value']} but numpy {ref}")
    DATA.mkdir(exist_ok=True)
    (DATA / "pool.json").write_text(_dumps(pool, 2) + "\n")
    (DATA / "expected.json").write_text(_dumps(expected, 1) + "\n")
    print(f"recorded {len(expected)} ops")


if __name__ == "__main__":
    main()
