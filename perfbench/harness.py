"""Run one CLI op in-process and check its output against the recorded values."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import time
from pathlib import Path

from workloads import Op, argv

REL_TOL = 1e-9  # closed values are certified to 1e-9 absolute; allow that relatively too
NUMPY_TOL = 1e-6  # distance allowed from the floating-point reference


def numpy_radius(rows: list) -> float:
    """max |eigenvalue| by LAPACK: a reference independent of exactlin."""
    import numpy  # imported late: only the end-of-run check needs it

    return float(max(abs(numpy.linalg.eigvals(numpy.array(rows, dtype=float)))))


# Seconds the host-speed probe takes on an uncontended host (the fastest
# probes seen on a 2-core shared VM with Python 3.11).  Op times are scaled by
# PROBE_REF_S / (probe time around the op), which turns them into seconds at
# that host speed.
PROBE_REF_S = 2.0e-4
PROBE_REPEATS = 3


def host_probe() -> float:
    """Seconds for a fixed loop of tuple arithmetic and dict stores, the kind
    of interpreter work the program does; best of PROBE_REPEATS with the
    cyclic collector paused, so a collection the program owes is not
    charged to the probe."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            d = {}
            x = (0, 0)
            for i in range(1000):
                x = (x[0] + i, x[1] - i)
                d[x] = i
                d.get((i, i))
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if gc_was_on:
            gc.enable()


def host_factor(probe_before: float, probe_after: float) -> float:
    """Multiplier from wall seconds to seconds at reference host speed."""
    return PROBE_REF_S / ((probe_before + probe_after) / 2)


def run_op(cli_run, op: Op, workdir: Path, out: Path) -> tuple[int, float]:
    """Exit code and wall seconds of ``cli.run``; only the call itself is timed."""
    args = argv(op, workdir) + ["--out", str(out)]
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        code = cli_run(args)
        t1 = time.perf_counter()
    return code, t1 - t0


def _exact_rows(report: dict) -> list:
    return [[row["k"], row["length"]] for row in report["empirical"]["rows"] if row["exact"]]


def extract(cmd: str, doc: dict) -> dict:
    """The mathematical result of an op, without provenance or formatting."""
    if cmd == "check":
        return {k: v for k, v in doc.items() if k != "command"}
    if cmd == "closed":
        return {"value": doc["closed"]["value"]}
    if cmd == "empirical":
        return {"exact_rows": _exact_rows(doc)}
    if cmd == "compare":
        closed = doc["closed"]["value"] if doc["closed"] else None
        return {"verdict": doc["verdict"], "closed": closed, "exact_rows": _exact_rows(doc)}
    if cmd == "ball":
        return {"counts": doc["counts"]}
    if cmd == "wordlen":
        return {"length": doc["length"], "known": doc["known"]}
    if cmd == "distortion":
        return {"delta": doc["delta"]}
    raise ValueError(f"unknown command {cmd!r}")


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def mismatches(expected: dict, got: dict) -> list[str]:
    """Differences between a recorded result and a new one.

    Rows recorded as exact must come back exact and equal; rows that become
    exact later are allowed, since certification may only get stronger.
    """
    bad = []
    for field, want in expected.items():
        have = got.get(field)
        if field in ("value", "closed"):
            ok = _close(want, have)
        elif field == "exact_rows":
            ok = all(row in have for row in want)
        else:
            ok = want == have
        if not ok:
            bad.append(f"{field}: expected {want!r}, got {have!r}")
    return bad


def check_op(op: Op, code: int, out: Path, expected: dict) -> tuple[list[str], bytes]:
    """Mismatches for one finished op, and the report bytes (empty on error exits)."""
    want = expected.get(op.key)
    if want is None:
        return [f"no recorded result for {op.key!r}"], b""
    if code != want["exit"]:
        return [f"exit code {code}, expected {want['exit']}"], b""
    if code != 0:
        return [], b""
    data = out.read_bytes()
    return mismatches(want["result"], extract(op.cmd, json.loads(data))), data
