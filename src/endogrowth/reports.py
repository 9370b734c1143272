"""Descriptors and machine-readable run reports.

Group and endomorphism descriptors are JSON documents.  A group descriptor is
``{"family": tag, "params": {...}}`` with the parameter ``schema`` of the
family's machine class in :mod:`endogrowth.families`.  An endomorphism
descriptor is either explicit generator images ``{"images": {gen: word}}``,
or ``{key: payload}`` for the ``shortcut`` key its machine class accepts.
``parse_endo`` turns either into the generator images, as elements: the
evaluated words, or what the class's ``shortcut_images`` gives.

The growth routes live on the machine classes (``closed_form`` and
``length_table``); a report validates the images once and hands the
``ValidEndo`` to them.  This module knows no family by name.

Reports are deterministic: identical inputs and package version produce
byte-identical output.  The ``work`` section carries deterministic effort
counters instead of wall-clock timings for exactly that reason.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .ball import DEFAULT_CAP, ClosedForm, GrowthEstimate, GrowthSummary, gr_estimate
from .errors import ValidationError
from .families import MACHINES, Machine, machine_from_params
from .words import Endomorphism, ValidEndo, image_elements, validate_endo

__all__ = [
    "GroupDescriptor",
    "ClosedForm",
    "parse_group",
    "parse_endo",
    "closed_growth_rate",
    "empirical_estimate",
    "build_report",
    "report_json",
    "unlimited_int_digits",
    "CONSISTENCY_BAND",
]

CONSISTENCY_BAND = 0.15


@dataclass(frozen=True)
class GroupDescriptor:
    family: str
    params: dict
    raw: dict


def parse_group(doc: dict) -> tuple[GroupDescriptor, Machine]:
    if not isinstance(doc, dict) or "family" not in doc:
        raise ValidationError("group descriptor needs a 'family' field")
    family = doc["family"]
    params = doc.get("params", {})
    machine = machine_from_params(family, params)
    return GroupDescriptor(family, params, doc), machine


# shortcut key -> the family tag of the one machine class that accepts it
_SHORTCUT_OWNERS = {cls.shortcut: tag for tag, cls in MACHINES.items() if cls.shortcut}


def parse_endo(doc: dict, machine: Machine) -> tuple:
    """The generator images, as elements of ``machine``, of explicit
    ``images`` or of the machine's shortcut; not yet checked against the
    relators.  A document that names another family's shortcut is refused."""
    if not isinstance(doc, dict):
        raise ValidationError("endomorphism descriptor must be an object")
    if "images" in doc:
        images = doc["images"]
        if not isinstance(images, dict) or not all(isinstance(v, str) for v in images.values()):
            raise ValidationError("'images' must be an object of generator: word")
        return image_elements(machine, Endomorphism.from_strings(machine.gens, images))
    for kind, owner in _SHORTCUT_OWNERS.items():
        if kind in doc and kind != machine.shortcut:
            raise ValidationError(f"{kind!r} shortcut needs a {owner} group")
    if machine.shortcut not in doc:
        raise ValidationError(f"endomorphism descriptor needs one of {['images', *_SHORTCUT_OWNERS]}")
    return machine.shortcut_images(doc[machine.shortcut])


def algebraic_entropy(growth_rate: float) -> Optional[float]:
    """log of the growth rate; None for growth rate 0 (entropy -infinity)."""
    return math.log(growth_rate) if growth_rate > 0 else None


def closed_growth_rate(valid: ValidEndo, tol: float = 1e-9) -> Optional[ClosedForm]:
    """Closed-form growth rate by the machine's ``closed_form`` route; None
    for families without one."""
    route = valid.machine.closed_form
    return None if route is None else route(valid, tol)


def empirical_estimate(
    valid: ValidEndo,
    kmax: int = 16,
    radius: int = 10,
    cap: int = DEFAULT_CAP,
) -> GrowthEstimate:
    """Length table by the machine's ``length_table`` route: the
    shift-minimizer formulas for Sol, BFS + family length functional
    everywhere else."""
    return valid.machine.length_table(valid, kmax, radius, cap)


def _verdict(closed: Optional[ClosedForm], summary: GrowthSummary) -> str:
    if closed is None:
        return "inconclusive"
    if summary.running_inf[-1] < closed.value - 1e-6:
        # running infimum of honest upper bounds can never undercut the truth
        return "inconsistent"
    if closed.value == 0.0:
        return "consistent" if summary.estimate == 0.0 else "inconsistent"
    band = max(CONSISTENCY_BAND * closed.value, 1e-6)
    return "consistent" if abs(summary.estimate - closed.value) <= band else "inconsistent"


def _empirical_section(table: GrowthEstimate, summary: GrowthSummary) -> dict:
    rows = []
    for i, k in enumerate(table.ks):
        rows.append(
            {
                "k": k,
                "length": table.lengths[i],
                "exact": table.exact[i],
                "root": summary.roots[i],
                "running_inf": summary.running_inf[i],
                "per_gen": {n: table.per_gen[n][i] for n in table.gen_names},
            }
        )
    return {
        "method": table.method,
        "rows": rows,
        "estimate": summary.estimate,
        "entropy_estimate": algebraic_entropy(summary.estimate),
        "trend": summary.trend,
        "final_running_inf": summary.running_inf[-1],
        "certified_upper": summary.certified_upper,
        "direction": summary.direction,
        "per_gen": summary.per_gen,
    }


def build_report(
    command: str,
    group_doc: dict,
    endo_doc: dict,
    kmax: int = 16,
    radius: int = 10,
    cap: int = DEFAULT_CAP,
    tol: float = 1e-9,
) -> dict:
    """The report of ``command``: ``closed`` runs only the closed form,
    ``empirical`` only the length table, and ``compare`` both and gives a
    verdict."""
    _, machine = parse_group(group_doc)
    report = {
        "command": command,
        "version": __version__,
        "inputs": {
            "group": group_doc,
            "endo": endo_doc,
            "kmax": kmax,
            "radius": radius,
            "cap": cap,
            "tol": tol,
        },
        "closed": None,
        "empirical": None,
        "verdict": None,
        "work": {},
    }
    images = parse_endo(endo_doc, machine)
    want_closed, want_empirical = command != "empirical", command != "closed"
    # validate once, and only when some route will run
    if not (want_empirical or (want_closed and machine.closed_form is not None)):
        return report
    valid = validate_endo(machine, images)
    closed = None
    if want_closed:
        closed = closed_growth_rate(valid, tol)
        if closed is not None:
            report["closed"] = {
                "value": closed.value,
                "entropy": algebraic_entropy(closed.value),
                "method": closed.method,
                "certificate": closed.certificate,
            }
    if want_empirical:
        table = empirical_estimate(valid, kmax, radius, cap)
        summary = gr_estimate(table)
        report["empirical"] = _empirical_section(table, summary)
        report["work"]["table_entries"] = len(table.ks)
        if want_closed:
            report["verdict"] = _verdict(closed, summary)
    return report


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift CPython's limit on the digits of an int converted to str for the
    block, and restore it after.

    An exact length such as 10^4320 is a valid result, but the limit (4300
    digits by default, added in 3.10.7 and 3.11) refuses to print it.  Only
    output is printed under the lifted limit: ints parsed from descriptors
    keep it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # a release without the limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def report_json(report: dict) -> str:
    with unlimited_int_digits():
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
