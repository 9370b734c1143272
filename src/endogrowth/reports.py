"""Descriptors, closed-form dispatch, and machine-readable run reports.

Group and endomorphism descriptors are JSON documents.  A group descriptor is
``{"family": tag, "params": {...}}`` with the parameter schemas of
:mod:`endogrowth.families`.  An endomorphism descriptor is either explicit
generator images ``{"images": {gen: word}}``, a Sol shortcut
``{"sol": {"M": [[..],[..]], "p": int, "q": int, "tau_exp": int}}``, or an
abelian matrix shortcut ``{"matrix": [[..]]}`` (column i = image of
generator i).

Reports are deterministic: identical inputs and package version produce
byte-identical output.  The ``work`` section carries deterministic effort
counters instead of wall-clock timings for exactly that reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .ball import GrowthEstimate, GrowthSummary, L_k_table, gr_estimate
from .errors import ValidationError
from .exactlin import IntMatrix, char_poly, spectral_radius
from .families import Machine, klein_restricted_matrix, machine_from_params
from .nilgr import gr_nilpotent_closed
from .solgr import classify_endo, gr_sol_closed, gr_sol_empirical
from .words import Endomorphism, check_homomorphism, eventually_trivial, word_str

__all__ = [
    "GroupDescriptor",
    "EndoDescriptor",
    "ClosedForm",
    "load_group",
    "parse_group",
    "load_endo",
    "parse_endo",
    "closed_growth_rate",
    "empirical_estimate",
    "build_report",
    "report_json",
    "CONSISTENCY_BAND",
]

CONSISTENCY_BAND = 0.15


@dataclass(frozen=True)
class GroupDescriptor:
    family: str
    params: dict
    raw: dict


@dataclass(frozen=True)
class EndoDescriptor:
    images: dict
    raw: dict


def parse_group(doc: dict) -> tuple[GroupDescriptor, Machine]:
    if not isinstance(doc, dict) or "family" not in doc:
        raise ValidationError("group descriptor needs a 'family' field")
    family = doc["family"]
    params = doc.get("params", {})
    machine = machine_from_params(family, params)
    return GroupDescriptor(family, params, doc), machine


def load_group(path) -> tuple[GroupDescriptor, Machine]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    return parse_group(doc)


def _sol_shortcut_images(machine, shortcut: dict) -> dict:
    m = shortcut["M"]
    p, q = int(shortcut.get("p", 0)), int(shortcut.get("q", 0))
    tau_exp = int(shortcut.get("tau_exp", 1))

    def power(name, e):
        return f"{name}^{e}" if e not in (0, 1) else (name if e == 1 else "")

    def h_word(c1, c2):
        return " ".join(x for x in (power("a1", c1), power("a2", c2)) if x)

    return {
        "a1": h_word(m[0][0], m[1][0]),
        "a2": h_word(m[0][1], m[1][1]),
        "tau": " ".join(x for x in (h_word(p, q), power("tau", tau_exp)) if x),
    }


def _matrix_shortcut_images(machine, rows) -> dict:
    mat = IntMatrix.from_rows(rows)
    names = machine.gens.names
    if mat.rows != len(names) or mat.cols != len(names):
        raise ValidationError("matrix shortcut must be square of the generator count")
    images = {}
    for i, name in enumerate(names):
        parts = []
        for j, target in enumerate(names):
            e = mat.entries[j][i]
            if e == 1:
                parts.append(target)
            elif e != 0:
                parts.append(f"{target}^{e}")
        images[name] = " ".join(parts)
    return images


def parse_endo(doc: dict, machine: Machine) -> tuple[EndoDescriptor, Endomorphism]:
    if not isinstance(doc, dict):
        raise ValidationError("endomorphism descriptor must be an object")
    if "images" in doc:
        images = doc["images"]
    elif "sol" in doc:
        if machine.family != "sol_lattice":
            raise ValidationError("'sol' shortcut needs a sol_lattice group")
        images = _sol_shortcut_images(machine, doc["sol"])
    elif "matrix" in doc:
        if machine.family not in ("free_abelian",):
            raise ValidationError("'matrix' shortcut needs a free_abelian group")
        images = _matrix_shortcut_images(machine, doc["matrix"])
    else:
        raise ValidationError("endomorphism descriptor needs 'images', 'sol', or 'matrix'")
    endo = Endomorphism.from_strings(machine.gens, {k: str(v) for k, v in images.items()})
    return EndoDescriptor(images, doc), endo


def load_endo(path, machine: Machine) -> tuple[EndoDescriptor, Endomorphism]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    return parse_endo(doc, machine)


def algebraic_entropy(growth_rate: float) -> Optional[float]:
    """log of the growth rate; None for growth rate 0 (entropy -infinity)."""
    return math.log(growth_rate) if growth_rate > 0 else None


@dataclass(frozen=True)
class ClosedForm:
    value: float
    method: str
    certificate: dict


def _require_valid(machine, endo):
    verdict = check_homomorphism(machine, endo)
    if not verdict.valid:
        raise ValidationError(
            f"endomorphism violates relator {word_str(verdict.violated_relator, machine.gens)!r}"
        )


def closed_growth_rate(machine: Machine, endo: Endomorphism, tol: float = 1e-9) -> Optional[ClosedForm]:
    """Closed-form growth rate for families that have one; None otherwise.

    free_abelian: spectral radius of the endomorphism matrix.
    abelian_with_torsion: 0 when eventually trivial, else max(sp(free part), 1).
    heisenberg / nilpotent2: spectral radius of the abelianization block.
    sol_lattice: the classified-type branch formula.
    klein_bottle: spectral radius on the invariant index-2 free abelian subgroup.
    baumslag_solitar: no closed form here; estimate empirically.
    """
    fam = machine.family
    if fam == "baumslag_solitar":
        return None
    if fam in ("free_abelian", "heisenberg", "nilpotent2"):
        rep = gr_nilpotent_closed(machine, endo, tol)
        return ClosedForm(rep.value, "nilpotent_abelianization", rep.certificate())
    if fam == "abelian_with_torsion":
        _require_valid(machine, endo)
        from .nilgr import abelianization_matrix

        free = abelianization_matrix(machine, endo, validate=False)
        triv = eventually_trivial(machine, endo, bound=256)
        if triv.status == "unknown":
            raise ValidationError("could not decide eventual triviality for the torsion family")
        cert = {"eventually_trivial": triv.status, "power": triv.power}
        if free is not None:
            sp = spectral_radius(free, tol)
            cert.update(
                free_matrix=[list(r) for r in free.entries],
                char_poly_free=str(sp.char_poly),
                sp_free=sp.value,
            )
            free_sp = sp.value
        else:
            free_sp = 0.0
        value = 0.0 if triv.status == "yes" else max(free_sp, 1.0)
        return ClosedForm(value, "finite_normal_torsion_split", cert)
    if fam == "sol_lattice":
        sol = classify_endo(machine, endo)
        closed = gr_sol_closed(sol)
        return ClosedForm(closed.value, "sol_type_formula", closed.certificate())
    if fam == "klein_bottle":
        _require_valid(machine, endo)
        mat = klein_restricted_matrix(machine, endo)
        sp = spectral_radius(mat, tol)
        return ClosedForm(
            sp.value,
            "klein_index2_reduction",
            {
                "restricted_matrix": [list(r) for r in mat.entries],
                "char_poly": str(sp.char_poly),
            },
        )
    raise ValidationError(f"no closed form registered for family {fam!r}")


def empirical_estimate(
    machine: Machine,
    endo: Endomorphism,
    kmax: int = 16,
    radius: int = 10,
    cap: int = 5_000_000,
) -> GrowthEstimate:
    """Length table: the shift-minimizer formulas for Sol, BFS + family length
    functional everywhere else."""
    if machine.family == "sol_lattice":
        sol = classify_endo(machine, endo)
        return gr_sol_empirical(sol, kmax)
    return L_k_table(machine, endo, kmax, radius, cap)


def _verdict(closed: Optional[ClosedForm], summary: GrowthSummary) -> str:
    if closed is None:
        return "inconclusive"
    if summary.final_inf < closed.value - 1e-6:
        # running infimum of honest upper bounds can never undercut the truth
        return "inconsistent"
    if closed.value == 0.0:
        return "consistent" if summary.estimate == 0.0 else "inconsistent"
    band = max(CONSISTENCY_BAND * closed.value, 1e-6)
    return "consistent" if abs(summary.estimate - closed.value) <= band else "inconsistent"


def _empirical_section(table: GrowthEstimate, summary: GrowthSummary) -> dict:
    rows = []
    roots = table.roots()
    for i, k in enumerate(table.ks):
        rows.append(
            {
                "k": k,
                "length": table.lengths[i],
                "exact": table.exact[i],
                "root": roots[i],
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
        "final_running_inf": summary.final_inf,
        "certified_upper": summary.certified_upper,
        "direction": summary.direction,
        "per_gen": summary.per_gen,
    }


def build_report(
    command: str,
    group_doc: dict,
    endo_doc: Optional[dict],
    kmax: int = 16,
    radius: int = 10,
    cap: int = 5_000_000,
    tol: float = 1e-9,
    want_closed: bool = True,
    want_empirical: bool = True,
) -> dict:
    descriptor, machine = parse_group(group_doc)
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
    endo = None
    if endo_doc is not None:
        _, endo = parse_endo(endo_doc, machine)
    closed = None
    if want_closed and endo is not None:
        closed = closed_growth_rate(machine, endo, tol)
        if closed is not None:
            report["closed"] = {
                "value": closed.value,
                "entropy": algebraic_entropy(closed.value),
                "method": closed.method,
                "certificate": closed.certificate,
            }
    summary = None
    if want_empirical and endo is not None:
        table = empirical_estimate(machine, endo, kmax, radius, cap)
        summary = gr_estimate(table)
        report["empirical"] = _empirical_section(table, summary)
        report["work"]["table_entries"] = len(table.ks)
    if want_closed and want_empirical and summary is not None:
        report["verdict"] = _verdict(closed, summary)
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
