"""Closed-form and empirical growth rates for endomorphisms of Sol lattices.

The holonomy matrix A (integer, det 1, trace > 2) has irrational eigenvalues
alpha > 1 > beta = 1/alpha.  Everything branch-critical is decided in exact
arithmetic over Q(sqrt(d)), d = trace(A)^2 - 4: the labeling of the torus
map's eigenvalues by eigendirection, tie detection, and the termination
certificate of the shift minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt
from typing import Optional

from .ball import GrowthEstimate
from .errors import (
    ClassificationError,
    ContractError,
    InconsistencyError,
    ValidationError,
)
from .exactlin import IntMatrix, char_poly, det, inverse_unimodular_2x2, mat_vec
from .words import ValidEndo

__all__ = [
    "Quad",
    "LengthMin",
    "SolLengthMinimizer",
    "EigenData",
    "SolEndo",
    "SolClosedForm",
    "classify_endo",
    "eigen_data",
    "gr_sol_closed",
    "gr_sol_empirical",
]


@dataclass(frozen=True)
class Quad:
    """Exact real number a + b*sqrt(d) with rational a, b and fixed d > 0 non-square."""

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def of(a, b, d) -> "Quad":
        return Quad(Fraction(a), Fraction(b), d)

    def _check(self, other: "Quad"):
        if self.d != other.d:
            raise ContractError("mixed quadratic fields")

    def __add__(self, other):
        self._check(other)
        return Quad(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other):
        self._check(other)
        return Quad(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __mul__(self, other):
        self._check(other)
        return Quad(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    def __truediv__(self, other):
        self._check(other)
        norm = other.a * other.a - other.b * other.b * other.d
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        conj_num = self * Quad(other.a, -other.b, self.d)
        return Quad(conj_num.a / norm, conj_num.b / norm, self.d)

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        t = a * a - b * b * self.d
        s = (t > 0) - (t < 0)
        return s if a > 0 else -s

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def abs(self) -> "Quad":
        return self if self.sign() >= 0 else -self

    def equals_rational(self, r) -> bool:
        return self.b == 0 and self.a == Fraction(r)

    def __float__(self):
        return float(self.a) + float(self.b) * sqrt(self.d)


def _validate_holonomy(a: IntMatrix):
    if (a.rows, a.cols) != (2, 2):
        raise ValidationError("holonomy matrix must be 2x2")
    if det(a) != 1:
        raise ValidationError("holonomy matrix must have determinant 1")
    if a.trace() <= 2:
        raise ValidationError("holonomy matrix must have trace > 2")


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
    """

    def __init__(self, holonomy: IntMatrix):
        _validate_holonomy(holonomy)
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
class EigenData:
    """Eigenvalues of the holonomy A and a commuting torus map M.

    mu is M's eigenvalue on A's expanding (alpha) eigendirection, nu the one
    on the contracting (beta) direction; the labeling is by direction, never
    by magnitude.
    """

    alpha: Quad
    beta: Quad
    mu: Quad
    nu: Quad
    trace_m: int
    det_m: int

    @property
    def alpha_float(self):
        return float(self.alpha)

    @property
    def mu_float(self):
        return float(self.mu)

    @property
    def nu_float(self):
        return float(self.nu)


def eigen_data(holonomy: IntMatrix, torus_map: IntMatrix) -> EigenData:
    """Direction-labeled eigenvalues, exact in Q(sqrt(d)).

    Requires the torus map to commute with the holonomy (they are then
    simultaneously diagonalizable); cross-checks mu+nu and mu*nu against the
    exact trace and determinant.
    """
    _validate_holonomy(holonomy)
    if (torus_map.rows, torus_map.cols) != (2, 2):
        raise ValidationError("torus map must be 2x2")
    if holonomy @ torus_map != torus_map @ holonomy:
        raise ContractError("torus map does not commute with the holonomy; labeling impossible")
    (l11, l12), (_, l22) = holonomy.entries
    (m11, m12), (m21, m22) = torus_map.entries
    t = l11 + l22
    d = t * t - 4
    half = Fraction(1, 2)
    alpha = Quad(Fraction(t, 2), half, d)
    beta = Quad(Fraction(t, 2), -half, d)
    # alpha-eigenvector (l12, alpha - l11); l12 != 0 for every valid holonomy
    ratio_a = (alpha - Quad.of(l11, 0, d)) / Quad.of(l12, 0, d)
    ratio_b = (beta - Quad.of(l11, 0, d)) / Quad.of(l12, 0, d)
    mu = Quad.of(m11, 0, d) + Quad.of(m12, 0, d) * ratio_a
    nu = Quad.of(m11, 0, d) + Quad.of(m12, 0, d) * ratio_b
    tr_m = m11 + m22
    dt_m = m11 * m22 - m12 * m21
    if not (mu + nu).equals_rational(tr_m) or not (mu * nu).equals_rational(dt_m):
        raise ContractError("eigenvalue labeling failed the trace/determinant cross-check")
    return EigenData(alpha, beta, mu, nu, tr_m, dt_m)


@dataclass(frozen=True)
class SolEndo:
    """Classified endomorphism of a Sol lattice.

    type I:   a_i -> a^(M e_i), tau -> a^p tau      (AM = MA)
    type II:  a_i -> a^(M e_i), tau -> a^p tau^-1   (MA = A^-1 M)
    type III: a_i -> 1,         tau -> a^p tau^m    (|m| != 1)
    """

    holonomy: IntMatrix
    type_tag: str
    torus_map: IntMatrix
    p: tuple[int, int]
    tau_exp: int


def classify_endo(valid: ValidEndo) -> SolEndo:
    """Sort a valid endomorphism into type I / II / III."""
    a = valid.machine.matrix
    e1, e2, etau = valid.images
    if e1[1] != 0 or e2[1] != 0:
        raise ClassificationError("images of the torus generators must stay in the torus")
    m = IntMatrix.from_rows([[e1[0][0], e2[0][0]], [e1[0][1], e2[0][1]]])
    p = etau[0]
    tau_exp = etau[1]
    if tau_exp == 1:
        if a @ m != m @ a:
            raise ClassificationError("tau-fixing images need a commuting torus map")
        return SolEndo(a, "I", m, p, 1)
    if tau_exp == -1:
        if m @ a != inverse_unimodular_2x2(a) @ m:
            raise ClassificationError("tau-inverting images need MA = A^-1 M")
        return SolEndo(a, "II", m, p, -1)
    if not m.is_zero():
        raise ClassificationError("tau-exponent != +-1 forces trivial torus images")
    return SolEndo(a, "III", m, p, tau_exp)


@dataclass(frozen=True)
class SolClosedForm:
    value: float
    branch: str
    type_tag: str
    mu: Optional[float]
    nu: Optional[float]
    trace_m: Optional[int]
    det_m: Optional[int]
    char_poly_holonomy: str
    char_poly_torus: str

    def certificate(self) -> dict:
        return {
            "branch": self.branch,
            "type": self.type_tag,
            "mu": self.mu,
            "nu": self.nu,
            "trace_m": self.trace_m,
            "det_m": self.det_m,
            "char_poly_holonomy": self.char_poly_holonomy,
            "char_poly_torus": self.char_poly_torus,
        }


def gr_sol_closed(e: SolEndo) -> SolClosedForm:
    """Closed-form growth rate with the branch decided exactly.

    Branches for types I/II with torus map M != 0: |nu| when |mu| <= |nu|
    (ties exact: trace 0 or zero discriminant), sqrt(|det M|) when |nu| < |mu|.
    M = 0 gives |tau_exp| (1 for types I/II, |m| for type III).  The value is
    an algebraic integer; floats here are exact-formula evaluations.
    """
    cp_a = str(char_poly(e.holonomy))
    cp_m = str(char_poly(e.torus_map))
    if e.type_tag == "III":
        return SolClosedForm(
            float(abs(e.tau_exp)), "quotient_power", "III", None, None, None,
            det(e.torus_map), cp_a, cp_m,
        )
    if e.torus_map.is_zero():
        return SolClosedForm(1.0, "torus_map_zero", e.type_tag, 0.0, 0.0, 0, 0, cp_a, cp_m)
    if e.type_tag == "II":
        squared = SolEndo(
            e.holonomy,
            "I",
            e.torus_map @ e.torus_map,
            tuple(mat_vec(e.torus_map - e.holonomy, e.p)),
            1,
        )
        inner = gr_sol_closed(squared)
        return SolClosedForm(
            sqrt(inner.value),
            "typeII_via_square:" + inner.branch,
            "II",
            inner.mu,
            inner.nu,
            inner.trace_m,
            inner.det_m,
            cp_a,
            cp_m,
        )
    ed = eigen_data(e.holonomy, e.torus_map)
    if ed.det_m == 0:
        raise InconsistencyError(
            "a nonzero torus map commuting with the holonomy cannot be singular"
        )
    if ed.mu.abs() <= ed.nu.abs():
        value = abs(ed.nu_float)
        branch = "abs_nu"
    else:
        value = sqrt(abs(ed.det_m))
        branch = "sqrt_abs_det"
    return SolClosedForm(
        value, branch, "I", ed.mu_float, ed.nu_float, ed.trace_m, ed.det_m, cp_a, cp_m
    )


def gr_sol_empirical(e: SolEndo, kmax: int = 16) -> GrowthEstimate:
    """Length table from the explicit conjugated-word family, k = 1..kmax.

    Torus generators: minimize 2n + ||A^-n M^k e_i||_1 over shifts n >= 0.
    tau: the smaller of the accumulated form (one minimized shift for the
    whole torus part) and the telescoped per-iterate sum, each plus one tau
    letter.  All entries are honest word lengths, flagged as upper bounds.
    """
    if kmax < 1:
        raise ValidationError("kmax must be >= 1")
    minimizer = SolLengthMinimizer(e.holonomy)
    names = ("a1", "a2", "tau")
    per_gen = {n: [] for n in names}
    ks = tuple(range(1, kmax + 1))
    m = e.torus_map

    if e.type_tag == "III":
        base = minimizer.minimize(e.p).value
        for k in ks:
            per_gen["a1"].append(0)
            per_gen["a2"].append(0)
            if e.tau_exp == 0:
                per_gen["tau"].append(base if k == 1 else 0)
            else:
                per_gen["tau"].append((base + abs(e.tau_exp)) * abs(e.tau_exp) ** (k - 1))
    else:
        mk = m
        tau_part = e.p
        tau_sign = e.tau_exp
        telescoped = abs(e.p[0]) + abs(e.p[1])
        mj_p = e.p
        for k in ks:
            for idx, name in enumerate(("a1", "a2")):
                col = (mk.entries[0][idx], mk.entries[1][idx])
                per_gen[name].append(minimizer.minimize(col).value)
            direct = minimizer.minimize(tau_part).value + 1
            if e.type_tag == "I":
                per_gen["tau"].append(min(direct, telescoped + 1))
                mj_p = mat_vec(m, mj_p)
                telescoped += minimizer.minimize(mj_p).value
            else:
                per_gen["tau"].append(direct)
            # advance phi^k -> phi^(k+1)
            mk = mk @ m
            if e.type_tag == "I":
                tau_part = tuple(x + y for x, y in zip(mat_vec(m, tau_part), e.p))
            else:
                step = e.p if tau_sign == 1 else tuple(-v for v in mat_vec(e.holonomy, e.p))
                tau_part = tuple(x + y for x, y in zip(mat_vec(m, tau_part), step))
                tau_sign = -tau_sign

    lengths = tuple(
        max(per_gen["a1"][i], per_gen["a2"][i], per_gen["tau"][i]) for i in range(kmax)
    )
    falses = {n: [False] * kmax for n in names}
    return GrowthEstimate(
        names,
        ks,
        {n: list(v) for n, v in per_gen.items()},
        falses,
        lengths,
        (False,) * kmax,
        "sol_shift_minimizer",
    )
