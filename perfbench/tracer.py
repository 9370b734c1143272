"""Spans around the public functions of each endogrowth module, kept in memory.

Each wrapped function is replaced under every name the package's modules
look it up by (``spectral_radius`` is imported by name into ``reports`` and
``nilgr``, for example), so calls from inside the package are traced too.
Nothing under ``src/`` changes; ``installed()`` restores every name on exit.

``Machine.mul`` and ``inv`` are not wrapped: a span costs more than the call
it would time.  The families microbenchmark measures them instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "reports", "words", "families", "ball", "exactlin", "solgr", "nilgr")

FUNCTIONS = {
    "cli": ("run",),
    "reports": ("parse_group", "parse_endo", "build_report", "report_json",
                "closed_growth_rate", "empirical_estimate"),
    "words": ("parse_word", "evaluate", "image_elements", "apply_on_element",
              "check_homomorphism", "eventually_trivial"),
    "families": ("machine_from_params", "klein_restricted_matrix"),
    "ball": ("enumerate_ball", "word_length", "L_k_table", "gr_estimate",
             "distortion", "cyclic_distortion"),
    "exactlin": ("char_poly", "spectral_radius"),
    "solgr": ("classify_endo", "gr_sol_closed", "gr_sol_empirical"),
    "nilgr": ("gr_nilpotent_closed", "abelianization_matrix", "induced_center_matrix"),
}


def _ball_note(args, ball):
    """(elements stored, edges expanded): each element within radius - 1 expands every step."""
    machine, radius = args[0], args[1]
    expanded = ball.counts[radius - 1] if radius > 0 else 0
    return len(ball.dist), expanded * 2 * len(machine.gens)


# Facts a span records about its call, for the ratio metrics.
NOTES = {
    "ball.enumerate_ball": _ball_note,
    "ball.L_k_table": lambda args, table: (sum(table.exact), len(table.exact)),
    "exactlin.spectral_radius": lambda args, result: args[0].rows,
    "reports.report_json": lambda args, text: len(text.encode()),
}

NAME, PARENT, START, END, OP, NOTE = range(6)


class Tracer:
    """Spans as lists [name, parent index, start ns, end ns, op index, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every traced function and method for the duration of the block."""
        undo = []
        package = [m for n, m in list(sys.modules.items()) if n == "endogrowth" or n.startswith("endogrowth.")]
        try:
            for layer, names in FUNCTIONS.items():
                mod = importlib.import_module(f"endogrowth.{layer}")
                for fname in names:
                    orig = getattr(mod, fname)
                    traced = self.wrap(f"{layer}.{fname}", orig)
                    for m in package:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                undo.append((m, attr, orig))
                                setattr(m, attr, traced)
            for owner, attr, name in self._methods():
                orig = vars(owner)[attr]
                undo.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    @staticmethod
    def _methods():
        families = importlib.import_module("endogrowth.families")
        solgr = importlib.import_module("endogrowth.solgr")
        for cls in vars(families).values():
            if isinstance(cls, type) and issubclass(cls, families.Machine) and "length_upper" in vars(cls):
                yield cls, "length_upper", "families.length_upper"
        yield solgr.SolLengthMinimizer, "minimize", "solgr.minimize"


def summarize(spans: list[list], factors: list[float]) -> dict:
    """Per span name: calls, total seconds, self seconds and the list of notes.

    Self time is a span's duration minus the time its direct children cover.
    Durations are scaled to reference host speed by their op's factor.
    """
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out = {}
    for s, c in zip(spans, child):
        agg = out.setdefault(s[NAME], {"calls": 0, "total": 0.0, "self": 0.0, "notes": []})
        dur = (s[END] - s[START]) * factors[s[OP]]
        c *= factors[s[OP]]
        agg["calls"] += 1
        agg["total"] += dur / 1e9
        agg["self"] += (dur - c) / 1e9
        if s[NOTE] is not None:
            agg["notes"].append((s[NOTE], dur / 1e9))
    return out
