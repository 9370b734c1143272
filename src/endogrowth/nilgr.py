"""Closed-form growth rates for nilpotent families.

For a valid endomorphism of a torsion-free nilpotent family the growth rate
equals the spectral radius of the induced matrix on the free abelianization;
the induced block on the designated central generators gives the cross-check
max(sp(block_1), sp(block_2)^(1/2)), which the abelianization block always
attains.  User-supplied block lists for deeper nilpotency classes are
evaluated by the same max-of-root-powers formula without verifying group
provenance.
"""

from __future__ import annotations

from typing import Optional

from .ball import ClosedForm
from .errors import CertificationError, InconsistencyError, ValidationError
from .exactlin import IntMatrix, spectral_radius
from .families import HeisenbergMachine, Nil2Machine
from .words import ValidEndo

__all__ = [
    "abelianization_matrix",
    "induced_center_matrix",
    "gr_nilpotent_closed",
    "gr_from_blocks",
]


def abelianization_matrix(valid: ValidEndo) -> Optional[IntMatrix]:
    """Exponent-sum matrix on the free abelianization; column i is the image of
    generator i.  Returns None when the machine declares no free part."""
    idxs = valid.machine.free_ab_indices
    if not idxs:
        return None
    pos = {g: r for r, g in enumerate(idxs)}
    n = len(idxs)
    cols = []
    for i in idxs:
        vec = [0] * n
        for g, e in valid.endo.images[i].letters:
            if g in pos:
                vec[pos[g]] += e
        cols.append(vec)
    return IntMatrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])


def induced_center_matrix(valid: ValidEndo) -> IntMatrix:
    """Matrix of the induced map on the designated central generators.

    Computed from exact group arithmetic (central parts of commutators of the
    generator images), so relation-dependent central generators are folded in
    automatically.  For the Heisenberg lattice this is the 1x1 determinant
    block carried by the central generator.
    """
    machine, images = valid.machine, valid.images
    if isinstance(machine, HeisenbergMachine):
        if machine.include_center_gen:
            m, n, l = images[2]
            if (m, n) != (0, 0):
                raise InconsistencyError("central generator image must stay central")
            return IntMatrix.from_rows([[l]])
        # center is generated by [a2, a1] when k = 1
        comm = machine.commutator(images[1], images[0])
        return IntMatrix.from_rows([[comm[2]]])
    if isinstance(machine, Nil2Machine):
        if len(machine.designated) != len(machine.central):
            raise ValidationError("the central block needs every central generator designated")
        cols = []
        for _, (i, j) in machine.designated:
            c = machine.commutator(images[i - 1], images[j - 1])
            if any(v != 0 for v in c[: machine.n_gens]):
                raise InconsistencyError("image commutator left the center")
            cols.append(c[machine.n_gens :])
        m = len(machine.central)
        return IntMatrix.from_rows([[cols[j][i] for j in range(m)] for i in range(m)])
    raise ValidationError(f"no central block defined for family {machine.family!r}")


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
    if machine.family in ("heisenberg", "nilpotent2"):
        center = induced_center_matrix(valid)
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
