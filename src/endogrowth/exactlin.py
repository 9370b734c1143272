"""Exact integer matrices, characteristic polynomials, and certified spectral radii.

Everything here is arbitrary precision: matrix products and powers never
overflow, characteristic polynomials are computed exactly over the integers,
and spectral radii come with a rigorous absolute error bound derived from the
exact polynomial (no silent reliance on floating-point eigensolvers).

A spectral radius is certified from approximate roots z_1..z_n of the monic
radical p of the characteristic polynomial by two inclusion theorems, both
evaluated in exact dyadic integer arithmetic:

* upper bound: with the Weierstrass corrections
  W_i = p(z_i) / prod_{j != i} (z_i - z_j), every root of p lies in the union
  of the discs |x - z_i| <= n |W_i| (Gerschgorin applied to the Weierstrass
  matrix; Braess & Hadeler 1973), so the radius is at most
  max_i (|z_i| + n |W_i|);
* lower bound: some root lies within n |p(z) / p'(z)| of any z, so the radius
  is at least |z_m| - n |p(z_m) / p'(z_m)| for the approximation z_m of
  largest modulus.

Both bounds are linear in the residual, so a root finder's working precision
carries straight through to the certificate.  The reported error is measured
from the float value actually returned.

The multiprecision root finder starts from double-precision roots found by
the same Durand-Kerner iteration in plain ``complex``.  That float seed only
sets starting points, never the certificate: the bounds above are computed
from whatever approximations the root finder returns, and a seed that cannot
be formed falls back to the root finder's default start.

All values are immutable after construction and all operations are pure, so
concurrent use from any number of threads is safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import CertificationError, DimensionError

__all__ = [
    "IntMatrix",
    "IntPolynomial",
    "SpectralResult",
    "char_poly",
    "det",
    "spectral_radius",
    "exterior_square",
    "kronecker",
    "mat_pow",
    "mat_vec",
    "inverse_unimodular_2x2",
]


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, arbitrary precision entries."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise DimensionError("matrix must have at least one row and column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise DimensionError("ragged rows")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * cols for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * a for a in row) for row in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions do not match")
        cols = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def __pow__(self, n: int) -> "IntMatrix":
        return mat_pow(self, n)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def trace(self) -> int:
        if not self.is_square:
            raise DimensionError("trace of non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients in ascending degree order.

    The leading coefficient is nonzero unless this is the zero polynomial.
    """

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(coeffs) -> "IntPolynomial":
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(cs) if cs else (0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, m: IntMatrix) -> IntMatrix:
        """Horner evaluation at a square matrix, exact."""
        if not m.is_square:
            raise DimensionError("polynomial evaluation needs a square matrix")
        n = m.rows
        acc = IntMatrix.zeros(n, n)
        for c in reversed(self.coeffs):
            acc = acc @ m + IntMatrix.identity(n).scale(c)
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mon = "x" if k == 1 else f"x^{k}"
                term = mon if abs(c) == 1 else f"{abs(c)}*{mon}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, term))
        head_sign, head = parts[0]
        out = ("-" if head_sign == "-" else "") + head
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out


@dataclass(frozen=True)
class SpectralResult:
    """Certified spectral radius.

    ``value - abs_error <= true max root modulus <= value + abs_error``, and
    every entry of ``roots`` substituted into ``char_poly`` leaves a residual
    of modulus at most ``max_residual``.  ``dps`` is the precision rung, in
    decimal digits, at which the certificate met the tolerance (0 when no
    root finding was needed).
    """

    value: float
    abs_error: float
    char_poly: IntPolynomial
    roots: tuple[complex, ...]
    max_residual: float
    dps: int


def _require_square(m: IntMatrix):
    if not m.is_square:
        raise DimensionError(f"square matrix required, got {m.rows}x{m.cols}")


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M), monic.

    Faddeev-LeVerrier over the integers; the interior divisions are exact.
    """
    _require_square(m)
    n = m.rows
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    acc = IntMatrix.identity(n)
    for k in range(1, n + 1):
        acc = m @ acc
        tr = acc.trace()
        if tr % k != 0:
            raise CertificationError("Faddeev-LeVerrier division was not exact")
        c = -tr // k
        coeffs[n - k] = c
        acc = acc + IntMatrix.identity(n).scale(c)
    return IntPolynomial(tuple(coeffs))


def det(m: IntMatrix) -> int:
    """Exact determinant (from the characteristic polynomial's constant term)."""
    p = char_poly(m)
    n = m.rows
    return p.coeffs[0] if n % 2 == 0 else -p.coeffs[0]


def mat_pow(m: IntMatrix, n: int) -> IntMatrix:
    """Exact n-th power by repeated squaring, n >= 0."""
    _require_square(m)
    if n < 0:
        raise ValueError("negative matrix power; invert explicitly first")
    result = IntMatrix.identity(m.rows)
    base = m
    while n:
        if n & 1:
            result = result @ base
        base = base @ base
        n >>= 1
    return result


def mat_vec(m: IntMatrix, v) -> tuple[int, ...]:
    if m.cols != len(v):
        raise DimensionError("vector length does not match matrix width")
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m.entries)


def inverse_unimodular_2x2(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a 2x2 integer matrix with determinant +-1."""
    if (m.rows, m.cols) != (2, 2):
        raise DimensionError("2x2 matrix required")
    (a, b), (c, d) = m.entries
    dt = a * d - b * c
    if dt not in (1, -1):
        raise ValueError(f"determinant {dt} is not a unit")
    return IntMatrix.from_rows([[d * dt, -b * dt], [-c * dt, a * dt]])


def exterior_square(m: IntMatrix) -> IntMatrix:
    """Second exterior power on the basis of pairs (i, j), i < j, lexicographic.

    Entry at row (p, q), column (i, j) is the 2x2 minor
    m[p][i]*m[q][j] - m[p][j]*m[q][i]; eigenvalues of the result are the
    pairwise products of eigenvalues of ``m``.
    """
    _require_square(m)
    n = m.rows
    if n < 2:
        raise DimensionError("exterior square needs size >= 2")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    e = m.entries
    return IntMatrix(
        tuple(
            tuple(e[p][i] * e[q][j] - e[p][j] * e[q][i] for (i, j) in pairs)
            for (p, q) in pairs
        )
    )


def kronecker(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product; eigenvalues are pairwise products."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            out.append(
                tuple(
                    a.entries[i][j] * b.entries[k][l]
                    for j in range(a.cols)
                    for l in range(b.cols)
                )
            )
    return IntMatrix(tuple(out))


_PRECISION_LADDER = (60, 120, 240, 480, 960)


def _square_free_part(coeffs):
    """Monic radical of a monic integer polynomial (ascending coefficients).

    The radical p/gcd(p, p') of a monic integer polynomial is again monic with
    integer coefficients and has the same root set, all simple.
    """

    def normalize(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def polymod(a, b):
        a = a[:]
        while len(a) >= len(b) and a:
            f = a[-1] / b[-1]
            off = len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] -= f * c
            a = normalize(a[:-1] + [a[-1]])
            a = normalize(a)
        return a

    p = [Fraction(c) for c in coeffs]
    dp = normalize([Fraction(k * c) for k, c in enumerate(coeffs)][1:])
    a, b = p[:], dp
    while b:
        a, b = b, polymod(a, b)
    g = [c / a[-1] for c in a]  # monic gcd
    # exact division p // g
    q = [Fraction(0)] * (len(p) - len(g) + 1)
    rem = p[:]
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + len(g) - 1] / g[-1]
        for i, c in enumerate(g):
            rem[k + i] -= q[k] * c
    out = []
    for c in q:
        if c.denominator != 1:
            raise CertificationError("square-free part was not integral")
        out.append(int(c))
    return out


def _dyadic(x):
    """(m, e) with the mpf ``x`` equal to m * 2**e exactly; None for inf or nan."""
    sign, man, exp, _ = x._mpf_
    if not man:
        return (0, 0) if not exp else None
    return (-int(man) if sign else int(man), exp)


def _gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _abs2(z):
    return z[0] * z[0] + z[1] * z[1]


def _horner(cs, z):
    """Integer polynomial (ascending ``cs``) at the Gaussian integer ``z``."""
    re, im = 0, 0
    zr, zi = z
    for c in reversed(cs):
        re, im = re * zr - im * zi + c, re * zi + im * zr
    return re, im


def _sqrt_fixed(num, den, t, up):
    """Integer r with r / 2**t >= sqrt(num / den) if ``up``, else <= it."""
    q, rem = divmod(num << (2 * t), den)
    r = math.isqrt(q)
    if up and (rem or r * r != q):
        r += 1
    return r


def _inclusion_bounds(coeffs, zs, t):
    """Rigorous (lower, upper) for the max root modulus of a monic radical.

    ``coeffs`` are the exact integer coefficients (ascending, monic, simple
    roots), ``zs`` approximations of all its roots.  Each z_i is read exactly
    as Z_i / 2**s with Z_i a Gaussian integer, so p(z_i), p'(z_m) and the
    products of differences are exact integers; only the final square roots
    round, outward, to ``t`` fractional bits.  Returns Fractions, or None
    when two approximations coincide or p'(z_m) vanishes.

    Upper bound: p is the characteristic polynomial of diag(z) - W 1^T with
    W_i = p(z_i) / prod_{j != i} (z_i - z_j), so by Gerschgorin every root
    lies in some disc |x - z_i| <= n |W_i| (Braess & Hadeler 1973).
    Lower bound: p'/p = sum 1/(x - root), so some root lies within
    n |p(z)/p'(z)| of any z; take the approximation z_m of largest modulus.
    """
    parts = [(_dyadic(z.real), _dyadic(z.imag)) for z in zs]
    if any(d is None for pair in parts for d in pair):
        return None
    s = max(0, -min(e for pair in parts for _, e in pair))
    big = [tuple(m << (e + s) for m, e in pair) for pair in parts]
    n = len(coeffs) - 1
    # P(Z) = sum c_k Z^k 2^(s(n-k)) = 2^(sn) p(Z / 2^s), and P'(Z) = 2^(s(n-1)) p'(Z / 2^s)
    scaled = [c << (s * (n - k)) for k, c in enumerate(coeffs)]
    d2 = 1 << (2 * s)

    upper = 0
    for i, zi in enumerate(big):
        q = (1, 0)
        for j, zj in enumerate(big):
            if j != i:
                q = _gauss_mul(q, (zi[0] - zj[0], zi[1] - zj[1]))
        if not _abs2(q):
            return None
        # |z_i| = |Z_i| / 2^s and |W_i| = |P(Z_i)| / (2^s |Q_i|)
        bound = _sqrt_fixed(_abs2(zi), d2, t, True) + n * _sqrt_fixed(
            _abs2(_horner(scaled, zi)), d2 * _abs2(q), t, True
        )
        upper = max(upper, bound)

    zm = max(big, key=_abs2)
    dp_abs2 = _abs2(_horner([k * c for k, c in enumerate(scaled)][1:], zm))
    if not dp_abs2:
        return None
    # |p(z_m) / p'(z_m)| = |P(Z_m)| / (2^s |P'(Z_m)|)
    lower = _sqrt_fixed(_abs2(zm), d2, t, False) - n * _sqrt_fixed(
        _abs2(_horner(scaled, zm)), d2 * dp_abs2, t, True
    )
    return Fraction(max(lower, 0), 1 << t), Fraction(upper, 1 << t)


def _float_up(x: Fraction) -> float:
    """Smallest float >= x."""
    f = float(x)
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


_SEED_SWEEPS = 500


def _float_seed(coeffs):
    """Double-precision approximations of the roots of a monic radical.

    Durand-Kerner (Kerner 1966) in plain ``complex`` from points spread on a
    circle of Fujiwara's root-bound radius.  The result only moves the
    starting points of the certified root finder; None, meaning its default
    start, when a coefficient overflows ``complex``, a product of root
    differences vanishes, or a value becomes non-finite.
    """
    n = len(coeffs) - 1
    try:
        cs = [complex(c) for c in reversed(coeffs)]  # descending, cs[0] == 1
    except OverflowError:
        return None
    radius = 2 * max(abs(c) ** (1 / k) for k, c in enumerate(cs) if k)
    zs = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    try:
        for _ in range(_SEED_SWEEPS):
            moved = 0.0
            for i, z in enumerate(zs):
                corr = 0j  # the Weierstrass correction p(z) / prod_{j != i} (z - z_j)
                for c in cs:
                    corr = corr * z + c
                for j, w in enumerate(zs):
                    if j != i:
                        corr /= z - w
                zs[i] = z - corr
                moved = max(moved, abs(corr) / (1 + abs(z)))
            if not math.isfinite(moved):
                return None
            if moved < 1e-14:
                break
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(cmath.isfinite(z) for z in zs):
        return None
    return zs


def spectral_radius(m: IntMatrix, tol: float = 1e-9) -> SpectralResult:
    """Max eigenvalue modulus, certified to absolute tolerance ``tol``.

    Deterministic for fixed input and tolerance.  Raises CertificationError
    rather than returning a loose answer when the precision ladder is
    exhausted without meeting ``tol``.
    """
    _require_square(m)
    if not tol > 0:
        raise ValueError("tol must be positive")
    p = char_poly(m)
    coeffs = list(p.coeffs)
    zero_mult = 0
    while coeffs[0] == 0 and len(coeffs) > 1:
        coeffs.pop(0)
        zero_mult += 1
    if len(coeffs) > 1:
        # multiple roots stall the root finder and weaken the residual
        # bounds; the radical has the same root set, all simple
        coeffs = _square_free_part(coeffs)
    n = len(coeffs) - 1
    if n == 0:
        roots = (complex(0),) * max(zero_mult, 1)
        return SpectralResult(0.0, 0.0, p, roots, 0.0, 0)

    seed = _float_seed(coeffs)
    for dps in _PRECISION_LADDER:
        with mpmath.workdps(dps):
            try:
                zs = mpmath.polyroots(
                    [mpmath.mpf(c) for c in reversed(coeffs)],
                    maxsteps=400,
                    extraprec=80,
                    roots_init=seed and [mpmath.mpc(z) for z in seed],
                )
            except mpmath.libmp.NoConvergence:
                continue
            bounds = _inclusion_bounds(coeffs, zs, mpmath.mp.prec)
            if bounds is None:
                continue
            lower, upper = bounds
            value = float(max(abs(z) for z in zs))
            if not math.isfinite(value):
                raise CertificationError("spectral radius beyond float range")
            # the error is measured from the float actually reported
            abs_err = _float_up(max(upper - Fraction(value), Fraction(value) - lower))
            if abs_err <= tol:
                roots = tuple(complex(z) for z in zs)
                if zero_mult:
                    roots += (complex(0),)
                # residual bound documented for the rounded roots as returned
                rev = [mpmath.mpf(c) for c in reversed(p.coeffs)]
                max_res = max(abs(mpmath.polyval(rev, mpmath.mpc(z))) for z in roots)
                return SpectralResult(value, abs_err, p, roots, float(max_res), dps)
    raise CertificationError(
        f"spectral radius of {m.rows}x{m.cols} matrix not certified to {tol}"
    )
