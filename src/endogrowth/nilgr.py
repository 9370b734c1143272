"""Closed-form growth rates for nilpotent and abelian families.

For a valid endomorphism of a torsion-free nilpotent family the growth rate
equals the spectral radius of the induced matrix on the free abelianization;
the induced block on the designated central generators gives the cross-check
max(sp(block_1), sp(block_2)^(1/2)), which the abelianization block always
attains.  ``gr_torsion_closed`` splits off the finite torsion of Z^r x
finite.  These are workers: the ``closed_form`` routes of the machine classes
in :mod:`endogrowth.families` call them.  Both blocks are read from the
validated generator images: the abelianization by
``words.abelianization_matrix`` (re-exported here), the central block by the
machine's ``center_block``, so no family class is named here.  User-supplied
block lists for deeper nilpotency classes are evaluated by the same
max-of-root-powers formula without verifying group provenance.
"""

from __future__ import annotations

from typing import Optional

from .ball import ClosedForm
from .errors import CertificationError, ValidationError
from .exactlin import IntMatrix, spectral_radius
from .words import ValidEndo, abelianization_matrix, eventually_trivial

__all__ = [
    "abelianization_matrix",
    "induced_center_matrix",
    "gr_nilpotent_closed",
    "gr_torsion_closed",
    "gr_from_blocks",
]


def induced_center_matrix(valid: ValidEndo) -> Optional[IntMatrix]:
    """Matrix of the induced map on the designated central generators, by the
    machine's ``center_block``; None for a family without one."""
    return valid.machine.center_block(valid.images)


_NIL_FAMILIES = ("free_abelian", "heisenberg", "nilpotent2")


def gr_nilpotent_closed(valid: ValidEndo, tol: float = 1e-9) -> ClosedForm:
    """Growth rate of a valid endomorphism of a torsion-free nilpotent family.

    The value is sp of the abelianization block.  Where a central block is
    available its square root is certified not to exceed the value (within
    tol), and the max-of-blocks cross-check is reported.  The certificate
    holds each block, its characteristic polynomial and its spectral radius.
    """
    machine = valid.machine
    if machine.family not in _NIL_FAMILIES:
        raise ValidationError(
            f"closed nilpotent form needs a torsion-free nilpotent family, not {machine.family!r}"
        )
    ab = abelianization_matrix(valid)
    sp_ab = spectral_radius(ab, tol)
    cert = {
        "ab_matrix": [list(r) for r in ab.entries],
        "char_poly_ab": str(sp_ab.char_poly),
        "sp_ab": sp_ab.value,
        "cross_check": sp_ab.value,
    }
    center = induced_center_matrix(valid)
    if center is not None:
        sp_center = spectral_radius(center, tol)
        root = sp_center.value ** 0.5
        if root > sp_ab.value + tol:
            raise CertificationError(
                "central block spectral radius exceeds the square of the abelianization block"
            )
        cert.update(
            cross_check=max(sp_ab.value, root),
            center_matrix=[list(r) for r in center.entries],
            char_poly_center=str(sp_center.char_poly),
            sp_center=sp_center.value,
        )
    return ClosedForm(sp_ab.value, "nilpotent_abelianization", cert)


def gr_torsion_closed(valid: ValidEndo, tol: float = 1e-9) -> ClosedForm:
    """Growth rate of a valid endomorphism of Z^rank x finite torsion: 0 when
    it is eventually trivial, else max(sp(free part), 1)."""
    free = abelianization_matrix(valid)
    power = eventually_trivial(valid)
    cert = {"eventually_trivial": "no" if power is None else "yes", "power": power}
    free_sp = 0.0
    if free is not None:
        sp = spectral_radius(free, tol)
        free_sp = sp.value
        cert.update(
            free_matrix=[list(r) for r in free.entries],
            char_poly_free=str(sp.char_poly),
            sp_free=sp.value,
        )
    value = max(free_sp, 1.0) if power is None else 0.0
    return ClosedForm(value, "finite_normal_torsion_split", cert)


def gr_from_blocks(blocks, tol: float = 1e-9) -> ClosedForm:
    """max over blocks of sp(block)^(1/weight) for user-supplied diagonal blocks.

    Weights must be strictly increasing starting at 1.  No attempt is made to
    verify the blocks arose from an actual group filtration.
    """
    items = [(int(w), m) for w, m in blocks]
    if not items:
        raise ValidationError("block list must be nonempty")
    if items[0][0] != 1 or any(b[0] >= a[0] for b, a in zip(items, items[1:])):
        raise ValidationError("weights must be strictly increasing from 1")
    per_block = []
    best = -1.0
    best_weight = items[0][0]
    for weight, matrix in items:
        res = spectral_radius(matrix, tol)
        per_block.append({"weight": weight, "sp": res.value, "char_poly": str(res.char_poly)})
        val = res.value ** (1.0 / weight)
        if val > best:
            best, best_weight = val, weight
    return ClosedForm(best, "max_block_root", {"argmax_weight": best_weight, "blocks": per_block})
