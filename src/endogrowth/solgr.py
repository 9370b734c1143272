"""Closed-form and empirical growth rates for endomorphisms of Sol lattices.

The holonomy matrix A (integer, det 1, trace t > 2) has irrational
eigenvalues alpha > 1 > beta = 1/alpha, and d = t^2 - 4.  The closed form's
branch is an integer sign test.  A nonzero torus map M commuting with A is
c0 I + c1 A, so its eigenvalues on A's expanding and contracting
eigendirections are mu, nu = x +- y sqrt(d), with x = tr(M) / 2 and
y = m12 / (2 l12).  Then |mu|^2 - |nu|^2 = 4 x y sqrt(d), so |mu| <= |nu|
exactly when tr(M) m12 l12 <= 0.  The stopping certificates of the shift
minimizer are integer arithmetic too.

Both routes take the ``ValidEndo`` that a report builds once from the
generator images, however the descriptor gave them.  ``classify_endo`` reads
the type off those images and checks nothing again: the relators already
force each type's shape.
"""

from __future__ import annotations

from fractions import Fraction
from math import isinf, isqrt, sqrt
from typing import NamedTuple

from .ball import ClosedForm, GrowthEstimate
from .errors import CertificationError, ValidationError
from .exactlin import IntMatrix, char_poly, det, inverse_unimodular_2x2
from .words import ValidEndo

__all__ = [
    "LengthMin",
    "SolLengthMinimizer",
    "SolEndo",
    "classify_endo",
    "gr_sol_closed",
    "gr_sol_empirical",
]


class LengthMin(NamedTuple):
    """Minimum of 2n + |column sum of A^-n y| over shifts n >= 0."""

    value: int
    shift: int


class SolLengthMinimizer:
    """Exact minimizer of f(n) = 2n + ||A^-n y||_1 over n >= 0.

    Write w_n = A^-n y.  Both stopping tests are certificates on the current
    vector w_n, checked in integer arithmetic.  Let u and u' be the left
    eigenvectors of A of eigenvalues beta and alpha:

        u = (l21, beta - l11),    u' = (l21, alpha - l11).

    Then u . w_m = alpha^(m-n) u . w_n and u' . w_m = alpha^(n-m) u' . w_n,
    and |z . w| <= ||z||_inf ||w||_1.  So

        f(m) >= 2m + |u . w_n| / ||u||_inf     for every m >= n,
        f(m) >= |u' . w_n| / ||u'||_inf        for every m <= n,

    as alpha > 1: the beta row grows up the shifts, the alpha row down them.
    The scan starts at any shift ``start``.  It steps up until the beta row
    on w_n leaves no room for a value below the best one, and then down
    until the alpha row on w_n exceeds the best value.  The downward scan
    takes a value equal to the best one, so a tie goes to the least shift.
    A test runs only at a shift whose value is not the best: going up, a
    test there would at most save one step; going down, it cannot pass,
    as f(n) >= 2n + |u' . w_n| / ||u'||_inf.  From the shift that minimized
    a nearby vector, as for the iterates of a table, both scans take a few
    steps, not n.

    With c0 = 2 l21, c1 = t - 2 l11 and P = c0 w0 + c1 w1, the two rows are
    2 u . w = P - w1 sqrt(d) and 2 u' . w = P + w1 sqrt(d), d = t^2 - 4.
    When the two terms of a row have the same sign (P w1 <= 0 for the beta
    row, P w1 >= 0 for the alpha row) the row is at least |P| + |w1| isqrt(d).
    Otherwise the conjugate bound

        |P -+ w1 sqrt(d)| = |P^2 - d w1^2| / (|P| + |w1| sqrt(d))
                         >= |P^2 - d w1^2| / (|P| + |w1| (isqrt(d) + 1))

    holds with a nonzero integer numerator, as d is never a square for t > 2.
    Both norms are at most u_inf2 / 2, since

        2 ||u||_inf, 2 ||u'||_inf = max(|c0|, |c1 -+ sqrt(d)|)
                                  <= max(|c0|, |c1| + isqrt(d) + 1) = u_inf2.

    Both sides of each stopping test are then integers, whatever the size
    of y.  Building one checks the holonomy: ValidationError unless it is
    2x2 with determinant 1 and trace > 2.
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
        self.u_inf2 = max(abs(self.c0), abs(self.c1) + self.isqrt_d + 1)
        self._powers = [(1, 0, 0, 1)]

    def functional_lower(self, y0: int, y1: int, expanding: bool = False) -> tuple[int, int]:
        """(num, den), positive integers with num / den <= |2 u . y| for y != 0,
        or <= |2 u' . y| when ``expanding``."""
        p = self.c0 * y0 + self.c1 * y1
        if (p * y1 >= 0) if expanding else (p * y1 <= 0):
            return abs(p) + abs(y1) * self.isqrt_d, 1
        return abs(p * p - self.d * y1 * y1), abs(p) + abs(y1) * (self.isqrt_d + 1)

    def power(self, n: int) -> tuple[int, int, int, int]:
        """A^n for n >= 0 as flat (a, b, c, d), from a table grown on demand:
        the one stored table of powers of A.  As det A = 1, A^-n is its
        adjugate (d, -b, -c, a).  Its entries are about alpha^n.  A start is
        a shift that minimized a vector y' near y, and alpha^n |2 u . y'| <=
        u_inf2 f(n) <= u_inf2 ||y'||_1 with |2 u . y'| >= 1 / (|P| + |y'1|
        sqrt(d)): A^start has at most about twice the bits of y."""
        powers = self._powers
        if len(powers) <= n:
            (l11, l12), (l21, l22) = self.holonomy.entries
            a, b, c, d = powers[-1]
            while len(powers) <= n:
                a, b, c, d = a * l11 + b * l21, a * l12 + b * l22, c * l11 + d * l21, c * l12 + d * l22
                powers.append((a, b, c, d))
        return powers[n]

    def minimize(self, y, start: int = 0) -> LengthMin:
        """The least value of f, at the least shift that takes it.  Any
        ``start`` >= 0 gives the same answer; one near that shift is fast."""
        y0, y1 = int(y[0]), int(y[1])
        if y0 == 0 and y1 == 0:
            return LengthMin(0, 0)
        if start:
            a, b, c, d = self.power(start)  # A^-start y by the adjugate
            y0, y1 = d * y0 - b * y1, a * y1 - c * y0
        best = top = 2 * start + abs(y0) + abs(y1)
        best_shift, lower, u_inf2 = start, self.functional_lower, self.u_inf2

        (i11, i12), (i21, i22) = self.inverse.entries
        w0, w1, n = y0, y1, start
        while 2 * n + 2 < best:
            w0, w1, n = i11 * w0 + i12 * w1, i21 * w0 + i22 * w1, n + 1
            val = 2 * n + abs(w0) + abs(w1)
            if val < best:
                best, best_shift = val, n
                continue
            # every shift above n takes at least 2(n + 1) + |u . w| / ||u||_inf
            num, den = lower(w0, w1)
            if num >= (best - 2 * n - 2) * den * u_inf2:
                break

        if start:
            (l11, l12), (l21, l22) = self.holonomy.entries
            w0, w1, n, val = y0, y1, start, top
            while n:
                if val > best:
                    # every shift up to n takes at least |u' . w| / ||u'||_inf
                    num, den = lower(w0, w1, True)
                    if num > best * den * u_inf2:
                        break
                w0, w1, n = l11 * w0 + l12 * w1, l21 * w0 + l22 * w1, n - 1
                val = 2 * n + abs(w0) + abs(w1)
                if val <= best:
                    best, best_shift = val, n
        return LengthMin(best, best_shift)


class SolEndo(NamedTuple):
    """Classified endomorphism of the Sol lattice ``machine``.  The
    machine's ``minimizer`` has checked its holonomy A, holds A^-1 and the
    table of powers of A, and is the one shift minimizer both Sol routes use.

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
        raise CertificationError("torus map does not commute with the holonomy; labeling impossible")
    l12 = holonomy.entries[0][1]
    (m11, m12), (m21, m22) = torus_map.entries
    tr_m = m11 + m22
    det_m = m11 * m22 - m12 * m21
    if (tr_m * tr_m - 4 * det_m) * l12 * l12 != m12 * m12 * d:
        raise CertificationError("eigenvalue labeling failed the trace/determinant cross-check")
    if det_m == 0:
        raise CertificationError(
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
    Each of the four minimized streams starts at the shift it took at
    k - 1, so a table costs O(kmax) minimizer steps, not O(kmax^2).
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
        # phi^k(a_i) = a^(M^k e_i) and phi^k(tau) = a^(tau part) tau^(+-1)
        minimize = minimizer.minimize
        (m11, m12), (m21, m22) = e.torus_map.entries
        (l11, l12), (l21, l22) = e.machine.matrix.entries
        p0, p1 = e.p
        c11, c12, c21, c22 = m11, m12, m21, m22  # M^k
        t0, t1 = p0, p1  # the tau part of phi^k(tau)
        j0, j1 = p0, p1  # M^j p, telescoped
        neg_ap = (-(l11 * p0 + l12 * p1), -(l21 * p0 + l22 * p1))  # (a^p tau^-1)^-1 = a^(-Ap) tau
        tau_sign = e.tau_exp
        telescoped = abs(p0) + abs(p1)
        s1 = s2 = s_tau = s_j = 0
        for k in ks:
            best = minimize((c11, c21), s1)
            a1.append(best.value)
            s1 = best.shift
            best = minimize((c12, c22), s2)
            a2.append(best.value)
            s2 = best.shift
            best = minimize((t0, t1), s_tau)
            s_tau = best.shift
            if e.type_tag == "I":
                tau.append(min(best.value + 1, telescoped + 1))
                j0, j1 = m11 * j0 + m12 * j1, m21 * j0 + m22 * j1
                best = minimize((j0, j1), s_j)
                telescoped += best.value
                s_j = best.shift
            else:
                tau.append(best.value + 1)
            # advance phi^k -> phi^(k+1): phi(a^v tau^s) = a^(Mv) (a^p tau^tau_exp)^s
            c11, c12, c21, c22 = (
                c11 * m11 + c12 * m21,
                c11 * m12 + c12 * m22,
                c21 * m11 + c22 * m21,
                c21 * m12 + c22 * m22,
            )
            step0, step1 = (p0, p1) if tau_sign == 1 else neg_ap
            t0, t1 = m11 * t0 + m12 * t1 + step0, m21 * t0 + m22 * t1 + step1
            tau_sign *= e.tau_exp

    return GrowthEstimate(
        e.machine.gens.names,
        ks,
        dict(zip(e.machine.gens.names, (a1, a2, tau))),
        tuple(map(max, a1, a2, tau)),
        (False,) * kmax,
        "sol_shift_minimizer",
    )
