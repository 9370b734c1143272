"""Families microbenchmark: Machine.mul, length_upper and BFS edges/s per family.

The inputs do not depend on the workload seed: each family's sample is drawn
with a fixed seed from its own Cayley ball, so the numbers compare across
runs and commits.  Times are scaled to reference host speed with the host
probe taken before and after each family, as op times are.
"""

from __future__ import annotations

import random
import statistics
import time

from harness import host_factor, host_probe
from workloads import free_abelian_group, load_machine

# One machine per family, and a BFS radius that gives it 8k-25k elements.
FAMILY_GROUPS = {
    "free_abelian": (free_abelian_group(3), 18),
    "abelian_with_torsion": ("counter", 2000),
    "heisenberg": ("heis_ex1", 14),
    "nilpotent2": ("nil2_ex3", 6),
    "sol_lattice": ("sol_ex1", 8),
    "klein_bottle": ("klein", 100),
    "baumslag_solitar": ("bs", 13),
}
SAMPLE_SEED = 0
MUL_PAIRS = 2000
MUL_ROUNDS = 10
LENGTH_SAMPLE = 300
BFS_REPEATS = 3


def _ns_per_call(fn, args: list, rounds: int) -> float:
    t0 = time.perf_counter_ns()
    for _ in range(rounds):
        for a in args:
            fn(*a)
    return (time.perf_counter_ns() - t0) / (rounds * len(args))


def family_metrics() -> dict:
    """families.mul_ns.<f>, families.length_upper_ns.<f> and ball.edges_per_s.<f>."""
    from endogrowth.ball import enumerate_ball

    out = {}
    for family, (group, radius) in FAMILY_GROUPS.items():
        machine = load_machine(group)
        before = host_probe()
        times = []
        for _ in range(BFS_REPEATS):
            t0 = time.perf_counter()
            ball = enumerate_ball(machine, radius)
            times.append(time.perf_counter() - t0)
        edges = ball.counts[radius - 1] * 2 * len(machine.gens)
        rng = random.Random(SAMPLE_SEED)
        elems = sorted(ball.dist)
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(MUL_PAIRS)]
        singles = [(rng.choice(elems),) for _ in range(LENGTH_SAMPLE)]
        mul_ns = _ns_per_call(machine.mul, pairs, MUL_ROUNDS)
        length_ns = _ns_per_call(machine.length_upper, singles, 1)
        factor = host_factor(before, host_probe())
        out[f"families.mul_ns.{family}"] = (mul_ns * factor, "ns")
        out[f"families.length_upper_ns.{family}"] = (length_ns * factor, "ns")
        out[f"ball.edges_per_s.{family}"] = (edges / (statistics.median(times) * factor), "1/s")
    return out
