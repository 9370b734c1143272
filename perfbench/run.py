#!/usr/bin/env python3
"""endogrowth benchmark: one client, closed loop, every op checked.

    python3 perfbench/run.py --workload fixture_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
checkout this file sits in, and every op calls ``endogrowth.cli.run(argv)``
in-process with ``--out`` pointing at a scratch file under ``perfbench/.work``.
Ops run back to back in whole passes over the seeded op list until
``--seconds`` have elapsed; only the ``cli.run`` call of an op is timed, and
the time is scaled to reference host speed by a host probe run between ops
(see harness.PROBE_REF_S and README.md).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the time
between an untraced and a traced run of the same ops, then runs the families
microbenchmark and the edge_inputs probes (known crash reproducers, each in
its own interpreter and never timed), and prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from harness import NUMPY_TOL, check_op, host_factor, host_probe, numpy_radius, run_op
from workloads import COMMANDS, HERE, ROOT, SRC

WORKDIR = HERE / ".work"
SETUP_REPEATS = 5  # at least; plus one untimed start that writes the bytecode cache
PROBE_TIMEOUT_S = 15
DOCUMENTED_EXITS = (0, 2, 3, 4)

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import endogrowth.cli
from endogrowth.reports import parse_group
for path in sys.argv[2:]:
    with open(path) as fh:
        parse_group(json.load(fh))
"""
PROBE_CODE = "import sys; sys.path.insert(0, sys.argv[1]); from endogrowth.cli import run; sys.exit(run(sys.argv[2:]))"


def import_cli():
    """endogrowth.cli from this checkout's src/, never from an installed copy."""
    package = SRC / "endogrowth"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: endogrowth sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from endogrowth import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported endogrowth from {cli.__file__}, not {package}")
    return cli


def setup_timer(ops, workdir: Path):
    """A function returning the time, at reference host speed, of one fresh
    interpreter that imports endogrowth.cli and builds the machine of every
    group the workload uses."""
    groups = sorted({str(wl.descriptor_path(op.group, "group", workdir)) for op in ops})
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *groups]

    def timed() -> float:
        before = host_probe()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        seconds = time.perf_counter() - t0
        return seconds * host_factor(before, host_probe())

    return timed


def run_probes(workdir: Path) -> int:
    """Run each edge_inputs probe once in its own interpreter; count those that
    end in a traceback, a timeout or any undocumented exit code."""
    failed = 0
    for probe in wl.EDGE_PROBES:
        op = wl.make_op(*probe)
        argv = wl.argv(op, workdir) + ["--out", str(workdir / "probe.json")]
        try:
            proc = subprocess.run(
                [sys.executable, "-c", PROBE_CODE, str(SRC), *argv],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
            )
            ok = proc.returncode in DOCUMENTED_EXITS
            lines = proc.stderr.strip().splitlines()
            detail = f"exit {proc.returncode}" + (f": {lines[-1]}" if lines else "")
        except subprocess.TimeoutExpired:
            ok, detail = False, f"timeout after {PROBE_TIMEOUT_S} s"
        failed += not ok
        print(f"edge_inputs {'ok' if ok else 'FAILED'} {op.key}: {detail}")
    return failed


class Loop:
    """Whole passes over the op list until the time is up, checking every op."""

    def __init__(self, cli, ops, workdir: Path, expected: dict):
        self.cli, self.ops, self.workdir, self.expected = cli, ops, workdir, expected
        self.out = workdir / "out.json"
        self.attempted = 0
        self.raw: list[list[float]] = []  # wall seconds as measured, per pass
        self.factors: list[float] = []  # host_factor of every op run, in order
        self.failures: list[str] = []
        self.reports: dict[str, str] = {}  # op key -> sha256 of its report bytes
        self.closed_values: dict[str, float] = {}  # generated-matrix endo -> closed value

    def run(self, seconds: float, tracer=None, between=None) -> list[list[float]]:
        """Per-pass op latencies at reference host speed; ``between`` is
        called after every pass.  The host probe runs between ops, untimed."""
        passes = []
        start = time.perf_counter()
        probe = host_probe()
        while not passes or time.perf_counter() - start < seconds:
            latencies, raw = [], []
            for op in self.ops:
                if tracer is not None:
                    tracer.op = len(self.factors)
                raw.append(self._one(op))
                after = host_probe()
                self.factors.append(host_factor(probe, after))
                latencies.append(raw[-1] * self.factors[-1])
                probe = after
            passes.append(latencies)
            self.raw.append(raw)
            if between is not None:
                between()
                probe = host_probe()
        return passes

    def _one(self, op) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            # looked up on every call, so a traced cli.run is used when installed
            code, seconds = run_op(self.cli.run, op, self.workdir, self.out)
            problems, data = check_op(op, code, self.out, self.expected)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            seconds, problems, data = time.perf_counter() - t0, [f"raised {exc!r}"], b""
        if problems:
            self.failures.append(f"{op.key}: {'; '.join(problems)}")
        elif data:
            self.reports[op.key] = hashlib.sha256(data).hexdigest()
            if op.cmd == "closed" and op.endo.startswith("m-"):
                self.closed_values[op.endo] = json.loads(data)["closed"]["value"]
        return seconds

    def check_against_numpy(self) -> None:
        for endo, value in sorted(self.closed_values.items()):
            rows = json.loads(wl.descriptor_path(endo, "endo", self.workdir).read_text())["matrix"]
            ref = numpy_radius(rows)
            if not abs(value - ref) <= NUMPY_TOL:
                self.failures.append(f"closed {endo}: {value!r} is not within {NUMPY_TOL} of numpy {ref!r}")

    def report_digest(self) -> str:
        joined = "".join(f"{k}\n{v}\n" for k, v in sorted(self.reports.items()))
        return hashlib.sha256(joined.encode()).hexdigest()


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def op_costs(passes) -> list[float]:
    """Each op's median latency over the passes."""
    return [statistics.median(col) for col in zip(*passes)]


def ops_per_s(passes) -> float:
    costs = op_costs(passes)
    return len(costs) / sum(costs)


def end_to_end(workload: str, passes, setup_s: float, rss_mb: float) -> dict:
    costs = op_costs(passes)
    pct = wl.TAIL_PERCENTILE[workload]
    beyond = len(costs) - math.ceil(pct / 100 * len(costs))
    print(f"op costs are medians of {len(passes)} passes; latency_tail_ms is p{pct} of "
          f"{len(costs)} ops ({beyond} beyond it)")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(passes), "1/s"),
        "latency_p50_ms": (statistics.median(costs) * 1e3, "ms"),
        "latency_tail_ms": (percentile(costs, pct) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def command_times(ops, passes) -> dict:
    """cmd.<command>.pass_s: seconds per pass spent in each command (0 if absent)."""
    costs = op_costs(passes)
    return {
        f"cmd.{cmd}.pass_s": (sum((c for op, c in zip(ops, costs) if op.cmd == cmd), 0.0), "s")
        for cmd in COMMANDS
    }


def per_layer(ops, passes_plain, passes_traced, summary: dict) -> dict:
    from tracer import LAYERS

    n_pass = len(passes_traced)
    n_ops = n_pass * len(ops)

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    def notes(name):
        return summary.get(name, {}).get("notes", [])

    def per_pass(name, field="total"):
        return get(name, field) / n_pass

    def ratio(a, b):
        return a / b if b else 0.0

    balls = notes("ball.enumerate_ball")
    tables = notes("ball.L_k_table")
    spectral = notes("exactlin.spectral_radius")

    def spectral_s(lo, hi):
        return sum(d for n, d in spectral if lo <= n <= hi) / n_pass

    root = get("cli.run", "total")
    out = {
        "ball.enumerate_ball.s": (per_pass("ball.enumerate_ball"), "s"),
        "ball.edges_per_s": (ratio(sum(n[1] for n, _ in balls), sum(d for _, d in balls)), "1/s"),
        "ball.elements": (sum(n[0] for n, _ in balls) / n_pass, "count"),
        "ball.word_length.s": (per_pass("ball.word_length"), "s"),
        "ball.L_k_table.self_s": (per_pass("ball.L_k_table", "self"), "s"),
        "ball.exact_rows_frac": (ratio(sum(n[0] for n, _ in tables), sum(n[1] for n, _ in tables)), "frac"),
        "exactlin.spectral_radius.s.n4": (spectral_s(0, 4), "s"),
        "exactlin.spectral_radius.s.n8": (spectral_s(5, 8), "s"),
        "exactlin.spectral_radius.s.n16": (spectral_s(9, math.inf), "s"),
        "exactlin.char_poly.s": (per_pass("exactlin.char_poly"), "s"),
        "exactlin.spectral_radius.calls": (per_pass("exactlin.spectral_radius", "calls"), "count"),
        "solgr.minimize.s": (per_pass("solgr.minimize"), "s"),
        "solgr.minimize.calls": (per_pass("solgr.minimize", "calls"), "count"),
        "solgr.classify_endo.calls_per_op": (get("solgr.classify_endo", "calls") / n_ops, "count"),
        "words.apply_on_element.s": (per_pass("words.apply_on_element"), "s"),
        "words.apply_on_element.calls": (per_pass("words.apply_on_element", "calls"), "count"),
        "words.check_homomorphism.calls_per_op": (get("words.check_homomorphism", "calls") / n_ops, "count"),
        "words.check_homomorphism.s": (per_pass("words.check_homomorphism"), "s"),
        "reports.build_report.self_s": (per_pass("reports.build_report", "self"), "s"),
        "reports.report_json.s": (per_pass("reports.report_json"), "s"),
        "reports.report_bytes": (ratio(sum(n for n, _ in notes("reports.report_json")),
                                       get("reports.report_json", "calls")), "bytes"),
        "cli.self_ms_per_op": (get("cli.run", "self") / n_ops * 1e3, "ms"),
        "nilgr.gr_nilpotent_closed.self_s": (per_pass("nilgr.gr_nilpotent_closed", "self"), "s"),
        "trace.overhead_frac": (1 - ops_per_s(passes_traced) / ops_per_s(passes_plain), "frac"),
    }
    for layer in LAYERS:
        own = sum(agg["self"] for name, agg in summary.items() if name.split(".")[0] == layer)
        out[f"self_frac.{layer}"] = (ratio(own, root), "frac")
    return out


def write_spans(spans, path: Path) -> None:
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    pool = wl.load_pool()
    expected = json.loads((wl.DATA / "expected.json").read_text())
    ops = wl.build_ops(args.workload, args.seed, pool)
    wl.write_generated(WORKDIR, pool)
    loop = Loop(cli, ops, WORKDIR, expected)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops per pass")

    metrics = {}
    if args.trace == 0:
        # set-up samples are spread over the run, one after each pass, so one
        # slow spell of the host does not decide the median
        timed_setup = setup_timer(ops, WORKDIR)
        timed_setup()  # untimed: writes the bytecode cache
        setup_times = []
        passes = loop.run(args.seconds, between=lambda: setup_times.append(timed_setup()))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(timed_setup())
        metrics.update(end_to_end(args.workload, passes, statistics.median(setup_times), rss_mb))
    else:
        from microbench import family_metrics
        from tracer import Tracer, summarize

        plain = loop.run(args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = loop.run(args.seconds / 2, tracer)
        write_spans(tracer.spans, WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics.update(per_layer(ops, plain, traced, summarize(tracer.spans, loop.factors)))
        metrics.update(command_times(ops, plain))
        metrics.update(family_metrics())
        metrics["edge_inputs.failed"] = (run_probes(WORKDIR), "count")

    raw = op_costs(loop.raw)
    print(f"unscaled wall time (information only): {len(raw) / sum(raw):.4g} ops/s, "
          f"p50 {statistics.median(raw) * 1e3:.4g} ms")
    loop.check_against_numpy()
    print(f"report_sha256 {loop.report_digest()} over {len(loop.reports)} reports (information only)")
    for failure in loop.failures[:20]:
        print(f"MISMATCH {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
