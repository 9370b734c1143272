"""Closed-form and empirical growth rates for endomorphisms of Sol lattices.

The holonomy matrix A (integer, det 1, trace t > 2) has irrational
eigenvalues alpha > 1 > beta = 1/alpha, and d = t^2 - 4.  The closed form's
branch is an integer sign test.  A nonzero torus map M commuting with A is
c0 I + c1 A, so its eigenvalues on A's expanding and contracting
eigendirections are mu, nu = x +- y sqrt(d), with x = tr(M) / 2 and
y = m12 / (2 l12).  Then |mu|^2 - |nu|^2 = 4 x y sqrt(d), so |mu| <= |nu|
exactly when tr(M) m12 l12 <= 0.  The termination certificate of the shift
minimizer is integer arithmetic too.

Both routes take the ``ValidEndo`` that a report builds once from the
generator images, however the descriptor gave them.  ``classify_endo`` reads
the type off those images and checks nothing again: the relators already
force each type's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isinf, isqrt, sqrt

from .ball import ClosedForm, GrowthEstimate
from .errors import CertificationError, ContractError, InconsistencyError, ValidationError
from .exactlin import IntMatrix, char_poly, det, inverse_unimodular_2x2, mat_vec
from .words import ValidEndo

__all__ = [
    "LengthMin",
    "SolLengthMinimizer",
    "SolEndo",
    "classify_endo",
    "gr_sol_closed",
    "gr_sol_empirical",
]


@dataclass(frozen=True)
class LengthMin:
    """Minimum of 2n + |column sum of A^-n y| over shifts n >= 0."""

    value: int
    shift: int


class SolLengthMinimizer:
    """Exact minimizer of n -> 2n + ||A^-n y||_1 over n >= 0.

    Termination is certified in integer arithmetic.  With u the left
    beta-eigenvector of A, |u . A^-n y| = alpha^n |u . y|, so
    ||A^-n y||_1 >= alpha^n |u . y| / ||u||_inf grows geometrically; once
    (trace-1)^n times that bound clears the incumbent no later shift can win
    ((trace-1) <= alpha).

    Taking u = (l21, beta - l11), 2 u . y = P - y1 sqrt(d) with
    P = 2 l21 y0 + (t - 2 l11) y1 and d = t^2 - 4.  When P y1 <= 0 the two
    terms do not cancel and |2 u . y| >= |P| + |y1| isqrt(d).  Otherwise the
    conjugate bound

        |2 u . y| = |P^2 - d y1^2| / (|P| + |y1| sqrt(d))
                 >= |P^2 - d y1^2| / (|P| + |y1| (isqrt(d) + 1))

    holds with a nonzero integer numerator, as d is never a square for t > 2.
    Both sides of the stopping test are then integers, whatever the size of y.
    Building one checks the holonomy: ValidationError unless it is 2x2 with
    determinant 1 and trace > 2.
    """

    def __init__(self, holonomy: IntMatrix):
        if (holonomy.rows, holonomy.cols) != (2, 2):
            raise ValidationError("holonomy matrix must be 2x2")
        if det(holonomy) != 1:
            raise ValidationError("holonomy matrix must have determinant 1")
        if holonomy.trace() <= 2:
            raise ValidationError("holonomy matrix must have trace > 2")
        self.holonomy = holonomy
        self.inverse = inverse_unimodular_2x2(holonomy)
        (l11, _), (l21, l22) = holonomy.entries
        t = l11 + l22
        self.d = t * t - 4
        self.isqrt_d = isqrt(self.d)
        self.c0, self.c1 = 2 * l21, t - 2 * l11
        # 2 ||u||_inf = max(|c0|, |c1 - sqrt(d)|) <= u_inf2
        self.u_inf2 = max(abs(self.c0), abs(self.c1) + self.isqrt_d + 1)
        self.alpha_floor = t - 1  # alpha = (t + sqrt(t^2-4))/2 >= t - 1 >= 2

    def functional_lower(self, y0: int, y1: int) -> tuple[int, int]:
        """(num, den), positive integers with num / den <= |2 u . y| for y != 0."""
        p = self.c0 * y0 + self.c1 * y1
        if p * y1 <= 0:
            return abs(p) + abs(y1) * self.isqrt_d, 1
        return abs(p * p - self.d * y1 * y1), abs(p) + abs(y1) * (self.isqrt_d + 1)

    def minimize(self, y) -> LengthMin:
        y0, y1 = int(y[0]), int(y[1])
        if y0 == 0 and y1 == 0:
            return LengthMin(0, 0)
        num, den = self.functional_lower(y0, y1)
        den *= self.u_inf2
        best = abs(y0) + abs(y1)
        best_shift = 0
        w0, w1 = y0, y1
        (i11, i12), (i21, i22) = self.inverse.entries
        growth = 1
        n = 0
        while True:
            n += 1
            if 2 * n >= best:
                break
            w0, w1 = i11 * w0 + i12 * w1, i21 * w0 + i22 * w1
            val = 2 * n + abs(w0) + abs(w1)
            if val < best:
                best, best_shift = val, n
            growth *= self.alpha_floor
            if growth * num >= best * den:
                break
        return LengthMin(best, best_shift)


@dataclass(frozen=True)
class SolEndo:
    """Classified endomorphism of the Sol lattice ``machine``.  The
    machine's ``minimizer`` has checked its holonomy A, holds A^-1, and is
    the one shift minimizer both Sol routes use.

    type I:   a_i -> a^(M e_i), tau -> a^p tau      (AM = MA)
    type II:  a_i -> a^(M e_i), tau -> a^p tau^-1   (MA = A^-1 M)
    type III: a_i -> 1,         tau -> a^p tau^m    (|m| != 1)
    """

    machine: "SolMachine"
    type_tag: str
    torus_map: IntMatrix
    p: tuple[int, int]
    tau_exp: int


def classify_endo(valid: ValidEndo) -> SolEndo:
    """Sort a valid endomorphism into type I / II / III by the tau-exponent
    m of phi(tau) = a^p tau^m.  The relators force the rest of the shape.

    The torus images have tau-exponents s = 0.  The tau-exponent sum is a
    homomorphism to Z, and it takes the image of the relator
    tau a_i tau^-1 a^(-A e_i) to s_i - (A^T s)_i.  So (A^T - I) s = 0, and
    det(A - I) = 2 - tr A != 0, hence s = 0.

    So phi(a^v) = a^(Mv), and conjugation by phi(tau) acts on the torus as
    A^m: the same relators give A^m M = M A.  That is AM = MA for m = 1 and
    MA = A^-1 M for m = -1.  For |m| != 1 it forces M = 0.  Otherwise some
    eigenvector v of A, of eigenvalue alpha^(+-1), has Mv != 0, and
    A^m Mv = M A v makes Mv an eigenvector of A^m of the same eigenvalue.
    The eigenvalues of A^m are alpha^(+-m), and as alpha > 1 that needs
    |m| = 1."""
    (v11, v21, _), (v12, v22, _), (p0, p1, m) = valid.images
    torus_map = IntMatrix.from_rows([[v11, v12], [v21, v22]])
    return SolEndo(valid.machine, {1: "I", -1: "II"}.get(m, "III"), torus_map, (p0, p1), m)


def _type_one(minimizer: SolLengthMinimizer, torus_map: IntMatrix) -> tuple[float, dict]:
    """Value and certificate fields of a type I endomorphism with 2x2 torus
    map M != 0, by the sign test of the module docstring.

    Cross-checks mu nu = det M as (tr(M)^2 - 4 det M) l12^2 = m12^2 d.
    A float beyond range raises OverflowError.
    """
    holonomy, d = minimizer.holonomy, minimizer.d
    if holonomy @ torus_map != torus_map @ holonomy:
        raise ContractError("torus map does not commute with the holonomy; labeling impossible")
    l12 = holonomy.entries[0][1]
    (m11, m12), (m21, m22) = torus_map.entries
    tr_m = m11 + m22
    det_m = m11 * m22 - m12 * m21
    if (tr_m * tr_m - 4 * det_m) * l12 * l12 != m12 * m12 * d:
        raise ContractError("eigenvalue labeling failed the trace/determinant cross-check")
    if det_m == 0:
        raise InconsistencyError(
            "a nonzero torus map commuting with the holonomy cannot be singular"
        )
    # l12 != 0 for every valid holonomy
    x, y = Fraction(tr_m, 2), Fraction(m12, 2 * l12)
    mu_le_nu = tr_m * m12 * l12 <= 0  # |mu| <= |nu|
    root_d = sqrt(d)
    mu, nu = float(x) + float(y) * root_d, float(x) - float(y) * root_d
    if isinf(mu) or isinf(nu):
        raise OverflowError("torus map eigenvalue beyond float range")
    value = abs(nu) if mu_le_nu else sqrt(abs(det_m))
    branch = "abs_nu" if mu_le_nu else "sqrt_abs_det"
    return value, {"branch": branch, "mu": mu, "nu": nu, "trace_m": tr_m, "det_m": det_m}


def gr_sol_closed(e: SolEndo) -> ClosedForm:
    """Closed-form growth rate with the branch decided exactly.

    Branches for types I/II with torus map M != 0: |nu| when |mu| <= |nu|
    (ties exact: trace 0 or zero discriminant), sqrt(|det M|) when |nu| < |mu|.
    M = 0 gives |tau_exp| (1 for types I/II, |m| for type III).  The value is
    an algebraic integer; floats here are exact-formula evaluations.

    Type II goes through the square, a type I endomorphism with torus map
    M^2.  As MA = A^-1 M, M swaps A's eigenlines, so M^2 = -det(M) I is
    scalar: every type II endomorphism takes the tie branch
    typeII_via_square:abs_nu, with value sqrt(|det M|).

    A value or eigenvalue beyond float range raises CertificationError.
    """
    cert = {
        "type": e.type_tag,
        "char_poly_holonomy": str(char_poly(e.machine.matrix)),
        "char_poly_torus": str(char_poly(e.torus_map)),
    }
    try:
        if e.type_tag == "III":
            value = float(abs(e.tau_exp))
            # the relators force M = 0 (see classify_endo)
            cert.update(branch="quotient_power", mu=None, nu=None, trace_m=None, det_m=0)
        elif e.torus_map.is_zero():
            value = 1.0
            cert.update(branch="torus_map_zero", mu=0.0, nu=0.0, trace_m=0, det_m=0)
        elif e.type_tag == "II":
            # M^2 != 0, as a kernel of M would be an A-invariant rational line
            square, fields = _type_one(e.machine.minimizer, e.torus_map @ e.torus_map)
            value = sqrt(square)
            cert.update(fields, branch="typeII_via_square:" + fields["branch"])
        else:
            value, fields = _type_one(e.machine.minimizer, e.torus_map)
            cert.update(fields)
    except OverflowError:
        raise CertificationError("Sol growth rate beyond float range") from None
    return ClosedForm(value, "sol_type_formula", cert)


def gr_sol_empirical(e: SolEndo, kmax: int = 16) -> GrowthEstimate:
    """Length table from the explicit conjugated-word family, k = 1..kmax.

    Torus generators: minimize 2n + ||A^-n M^k e_i||_1 over shifts n >= 0.
    tau: the smaller of the accumulated form (one minimized shift for the
    whole torus part) and the telescoped per-iterate sum, each plus one tau
    letter.  All entries are honest word lengths, flagged as upper bounds.
    """
    if kmax < 1:
        raise ValidationError("kmax must be >= 1")
    minimizer = e.machine.minimizer
    ks = tuple(range(1, kmax + 1))
    a1, a2, tau = [], [], []

    if e.type_tag == "III":
        base = minimizer.minimize(e.p).value
        n = abs(e.tau_exp)
        a1, a2 = [0] * kmax, [0] * kmax
        if n == 0:
            tau = [base if k == 1 else 0 for k in ks]
        else:
            tau = [(base + n) * n ** (k - 1) for k in ks]
    else:
        m = e.torus_map
        mk = m
        tau_part = e.p
        tau_sign = e.tau_exp
        telescoped = abs(e.p[0]) + abs(e.p[1])
        mj_p = e.p
        for k in ks:
            (c11, c12), (c21, c22) = mk.entries
            a1.append(minimizer.minimize((c11, c21)).value)
            a2.append(minimizer.minimize((c12, c22)).value)
            direct = minimizer.minimize(tau_part).value + 1
            if e.type_tag == "I":
                tau.append(min(direct, telescoped + 1))
                mj_p = mat_vec(m, mj_p)
                telescoped += minimizer.minimize(mj_p).value
            else:
                tau.append(direct)
            # advance phi^k -> phi^(k+1): phi(a^v tau^s) = a^(Mv) (a^p tau^tau_exp)^s,
            # and (a^p tau^-1)^-1 = a^(-Ap) tau
            mk = mk @ m
            step = e.p if tau_sign == 1 else tuple(-v for v in mat_vec(e.machine.matrix, e.p))
            tau_part = tuple(x + y for x, y in zip(mat_vec(m, tau_part), step))
            tau_sign *= e.tau_exp

    return GrowthEstimate(
        e.machine.gens.names,
        ks,
        dict(zip(e.machine.gens.names, (a1, a2, tau))),
        tuple(map(max, a1, a2, tau)),
        (False,) * kmax,
        "sol_shift_minimizer",
    )
