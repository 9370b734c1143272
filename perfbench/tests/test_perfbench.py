"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import collections
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from harness import check_op, run_op  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pool():
    return wl.load_pool()


@pytest.fixture(scope="module")
def expected():
    return json.loads((wl.DATA / "expected.json").read_text())


def _inputs(ops):
    """Words and matrix endos an op list feeds the program."""
    return sorted(op.args[-1] for op in ops if op.cmd == "wordlen") + sorted(
        op.endo for op in ops if op.endo and op.endo.startswith("m-")
    )


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_ops_and_descriptors(workload, pool):
    assert wl.build_ops(workload, 7, pool) == wl.build_ops(workload, 7, pool)
    assert wl.generated_docs(pool) == wl.generated_docs(wl.load_pool())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_other_seed_changes_inputs_not_mix(workload, pool):
    a, b = wl.build_ops(workload, 1, pool), wl.build_ops(workload, 2, pool)
    assert collections.Counter(op.cmd for op in a) == collections.Counter(op.cmd for op in b)
    assert len(a) == len(b)
    assert [op.key for op in a] != [op.key for op in b]
    if workload != "exact_deep":
        assert _inputs(a) != _inputs(b)


def test_exact_deep_seed_changes_matrices(pool):
    a, b = wl.build_ops("exact_deep", 1, pool), wl.build_ops("exact_deep", 2, pool)
    assert _inputs(a) != _inputs(b)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_op_of_many_seeds_is_recorded(workload, pool, expected):
    for seed in range(20):
        for op in wl.build_ops(workload, seed, pool):
            assert op.key in expected


def _planted(expected, key, **result):
    wrong = json.loads(json.dumps(expected))
    wrong[key]["result"].update(result)
    return wrong


def test_output_check_rejects_planted_values(tmp_path, pool, expected):
    cli = run.import_cli()
    wl.write_generated(tmp_path, pool)
    cases = [
        (wl.make_op("ball", "heis_ex1", None, "--radius", 10), {"counts": [1, 7]}),
        (wl.make_op("closed", "z4", "m-dense4-0"), None),
        (wl.make_op("compare", "klein", "klein", "--kmax", 20, "--radius", 10), {"verdict": "inconsistent"}),
    ]
    for op, planted in cases:
        loop = run.Loop(cli, [op], tmp_path, expected)
        loop.run(0)
        assert loop.failures == []
        if planted is None:  # shift the closed value by more than the tolerance
            planted = {"value": expected[op.key]["result"]["value"] + 1e-6}
        loop = run.Loop(cli, [op], tmp_path, _planted(expected, op.key, **planted))
        loop.run(0)
        assert len(loop.failures) == 1


def test_output_check_rejects_lost_exact_row(tmp_path, pool, expected):
    cli = run.import_cli()
    op = wl.make_op("empirical", "heis_ex1", "heis_ex1", "--kmax", 25, "--radius", 10)
    out = tmp_path / "out.json"
    code, _ = run_op(cli.run, op, tmp_path, out)
    rows = expected[op.key]["result"]["exact_rows"]
    assert rows
    problems, _ = check_op(op, code, out, _planted(expected, op.key, exact_rows=rows + [[99, 1]]))
    assert problems


def test_output_check_rejects_wrong_exit_code(tmp_path, pool, expected):
    cli = run.import_cli()
    op = wl.make_op("closed", "bs", "bs", "--kmax", 12, "--radius", 9)
    loop = run.Loop(cli, [op], tmp_path, expected)
    loop.run(0)
    assert loop.failures == []
    wrong = json.loads(json.dumps(expected))
    wrong[op.key]["exit"] = 0
    loop = run.Loop(cli, [op], tmp_path, wrong)
    loop.run(0)
    assert loop.failures


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "exact_deep", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=wl.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec


def test_runs_only_from_a_checkout_with_sources(tmp_path):
    """Without src/endogrowth next to it, the benchmark fails and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.rglob("*"):
        if path.is_file() and ".work" not in path.parts and "__pycache__" not in path.parts:
            dest = tmp_path / "perfbench" / path.relative_to(BENCH)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ball_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
