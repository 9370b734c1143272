"""Exact integer matrices, characteristic polynomials, and certified spectral radii.

Everything here is arbitrary precision integer arithmetic: matrix products
and powers never overflow, characteristic polynomials are computed exactly
(modulo primes, recombined under Hadamard's bound on the coefficients), and
spectral radii come with a rigorous absolute error bound derived from the
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

Both bounds are linear in the residual, so the root finder's working
precision carries straight through to the certificate.  The reported error
is measured from the float value actually returned.

The roots are found by Durand-Kerner (Weierstrass) sweeps on Gaussian
integers scaled by 2^t, started from double-precision roots found by the
same iteration in plain ``complex``.  That float seed only sets starting
points, never the certificate: the bounds above are computed from whatever
approximations the sweeps end with, and a seed that cannot be formed falls
back to points on a root-bounding circle.

The working precision rises as the roots converge, as in multiprecision
root finders (Bini & Fiorentino, MPSolve, 2000): a sweep near convergence
about doubles the correct bits, so the first rung t = 104 is twice the bits
of the float seed, and each later rung doubles t.  The first rung's answer
stands only when its certified interval rounds to a single float, which is
then the correctly rounded radius.  A sweep only needs its corrections
to the nearest unit, so ``_round_div`` divides truncated operands; the
truncated quotients move the approximations and never enter the
certificate, which reads the exact p(z_i) and products of differences at
the approximations the sweeps end with.

No value is changed after construction and all operations are pure, so
concurrent use from any number of threads is safe.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import CertificationError, ValidationError

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


class _Value:
    """Equality, hash and repr by value, as a frozen dataclass gives them, over
    ``_key()``: (name, value) pairs, by default one per slot."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple((name, getattr(self, name)) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in self._key())
        return f"{type(self).__name__}({args})"


class IntMatrix(_Value):
    """Dense integer matrix, row-major, arbitrary precision entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        if not entries or not entries[0]:
            raise ValidationError("matrix must have at least one row and column")
        width = len(entries[0])
        for row in entries:
            if len(row) != width:
                raise ValidationError("ragged rows")
        self.entries = entries

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

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("shape mismatch in addition")
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
            raise ValidationError("inner dimensions do not match")
        cols = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def trace(self) -> int:
        if not self.is_square:
            raise ValidationError("trace of non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))


class IntPolynomial(NamedTuple):
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

    def eval_matrix(self, m: IntMatrix) -> IntMatrix:
        """Horner evaluation at a square matrix, exact."""
        if not m.is_square:
            raise ValidationError("polynomial evaluation needs a square matrix")
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


class SpectralResult(NamedTuple):
    """Certified spectral radius.

    ``value - abs_error <= true max root modulus <= value + abs_error``.
    ``value`` is the correctly rounded float of the modulus of the largest
    root approximation.  ``bits`` is the precision rung, in fractional bits
    of the root approximations, at which the certificate met the tolerance
    (0 when no root finding was needed).
    """

    value: float
    abs_error: float
    char_poly: IntPolynomial
    bits: int


def _require_square(m: IntMatrix):
    if not m.is_square:
        raise ValidationError(f"square matrix required, got {m.rows}x{m.cols}")


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M), monic.

    Computed modulo primes below 2**61 (``_char_poly_mod``) and combined by
    the Chinese remainder theorem until the product of the primes exceeds
    2 prod_i (1 + ceil(|row_i|_2)).  The coefficient of x^(n-k) is, up to
    sign, the sum of the k x k principal minors, and by Hadamard's
    inequality each of them is at most the product of its rows' 2-norms, so
    the coefficient is at most the k-th elementary symmetric function of the
    row norms, below prod_i (1 + |row_i|_2); its symmetric residue is then
    exact.  The bound never exceeds Gerschgorin's 2 (1 + R)^n, R the largest
    absolute row sum, and a dense matrix of small entries needs one prime.
    """
    _require_square(m)
    n = m.rows
    bound = 2
    for row in m.entries:
        s = sum(a * a for a in row)
        r = math.isqrt(s)
        bound *= 1 + r + (r * r < s)  # 1 + ceil(|row|_2)
    coeffs, modulus = [0] * (n + 1), 1
    for q in _primes():
        coeffs, modulus = _crt(coeffs, modulus, _char_poly_mod(m.entries, q), q), modulus * q
        if modulus > bound:
            break
    return IntPolynomial(tuple(_symmetric(coeffs, modulus)))


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
        raise ValidationError("vector length does not match matrix width")
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m.entries)


def inverse_unimodular_2x2(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a 2x2 integer matrix with determinant +-1."""
    if (m.rows, m.cols) != (2, 2):
        raise ValidationError("2x2 matrix required")
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
        raise ValidationError("exterior square needs size >= 2")
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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(q: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, which is exact
    for odd q < 2^64."""
    if any(q % b == 0 for b in _MR_BASES):
        return q in _MR_BASES
    d, s = q - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, q)
        if x == 1:
            continue
        for _ in range(s):
            if x == q - 1:
                break
            x = x * x % q
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _prime_below(n: int) -> int:
    q = n - 1 if n % 2 == 0 else n - 2
    while not _is_prime(q):
        q -= 2
    return q


def _primes():
    """The primes below 2**61 in descending order, starting at 2**61 - 1."""
    q = 1 << 61
    while True:
        q = _prime_below(q)
        yield q


def _char_poly_mod(rows, q: int) -> list[int]:
    """Ascending coefficients of det(xI - M) modulo the prime q.

    M is reduced to upper Hessenberg form over F_q by similarity
    transformations, pivoting on any nonzero entry below the subdiagonal,
    which over a field never fails; the characteristic polynomial of the
    Hessenberg matrix then follows from the recurrence on its leading
    principal minors (the Hessenberg method, Cohen 1993).  O(n^3)
    operations modulo q.
    """
    n = len(rows)
    h = [[a % q for a in row] for row in rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, q)
        pivot_row = h[j + 1]
        # E H E^-1 with E = I - u e_(j+1)^T: subtract u_i times row j+1 from
        # each row i, then add sum_i u_i times column i to column j+1
        us = [(i, h[i][j] * inv % q) for i in range(j + 2, n) if h[i][j]]
        for i, u in us:
            h[i][j:] = [(a - u * b) % q for a, b in zip(h[i][j:], pivot_row[j:])]
        if us:
            for row in h:
                row[j + 1] = (row[j + 1] + sum(u * row[i] for i, u in us)) % q
    # p_(m+1) = (x - h_mm) p_m - sum_(i=1..m) h_(m-i+1,m-i)...h_(m,m-1) h_(m-i,m) p_(m-i)
    polys = [[1]]
    for m in range(n):
        new = [0] + polys[m]
        for k, c in enumerate(polys[m]):
            new[k] -= h[m][m] * c
        t = 1
        for i in range(1, m + 1):
            t = t * h[m - i + 1][m - i] % q
            f = t * h[m - i][m] % q
            if f:
                for k, c in enumerate(polys[m - i]):
                    new[k] -= f * c
        polys.append([c % q for c in new])
    return polys[n]


def _gcd_mod(a, b, q: int) -> list[int]:
    """Monic gcd over F_q of the monic integer polynomial ``a`` and the
    integer polynomial ``b`` (ascending), by Euclid modulo the prime q."""
    a, b = [c % q for c in a], [c % q for c in b]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            f = a[-1] * inv % q
            off = len(a) - len(b)
            for i, c in enumerate(b):
                a[off + i] = (a[off + i] - f * c) % q
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _crt(cs, modulus: int, residues, q: int) -> list[int]:
    """The residues modulo ``modulus * q`` that are ``cs`` modulo ``modulus``
    and ``residues`` modulo the prime q (Chinese remainder theorem)."""
    k = pow(modulus, -1, q)
    return [c + modulus * ((x - c) * k % q) for c, x in zip(cs, residues)]


def _symmetric(cs, modulus: int) -> list[int]:
    """The representatives of ``cs`` in (-modulus / 2, modulus / 2]."""
    half = modulus // 2
    return [c - modulus if c > half else c for c in cs]


def _divmod_monic(a, g):
    """Quotient and remainder of the integer polynomial ``a`` by the monic
    integer polynomial ``g`` (ascending, len(a) >= len(g)), exactly in Z[x]."""
    r, quotient = list(a), []
    for k in reversed(range(len(a) - len(g) + 1)):
        c = r[k + len(g) - 1]
        quotient.append(c)
        for i, x in enumerate(g):
            r[k + i] -= c * x
    return quotient[::-1], r[: len(g) - 1]


def _square_free_part(coeffs):
    """Monic radical of a monic integer polynomial p (ascending coefficients).

    The radical p / g, g = gcd(p, p'), has the roots of p, all simple.  g is
    a monic integer polynomial (Gauss's lemma) and, for every prime q, g mod q
    divides gcd(p, p') over F_q, which thus has degree at least deg g, with
    equality, and then equal to g mod q, for all but finitely many q.  A
    modular gcd of degree 0 therefore proves p square-free, which settles
    most inputs with one prime.  Otherwise the modular gcds of least degree
    so far are combined by the Chinese remainder theorem until the modulus
    passes twice Mignotte's bound C(d, floor(d / 2)) |p|_2 on the
    coefficients of a divisor of p of degree below d = deg p (Mignotte
    1974), and their symmetric residues form a monic h.  h is accepted only
    if it divides p and p' exactly in Z[x]: then h divides g, and
    deg h >= deg g, so h = g.  Otherwise some prime was unlucky, and primes
    are drawn on until a lucky one lowers the least degree.
    """
    dp = [k * c for k, c in enumerate(coeffs)][1:]
    d = len(dp)
    bound = 2 * math.comb(d, d // 2) * (math.isqrt(sum(c * c for c in coeffs)) + 1)
    cs, modulus = None, 1
    for q in _primes():
        residues = _gcd_mod(coeffs, dp, q)
        if len(residues) == 1:
            return list(coeffs)
        if cs is None or len(residues) < len(cs):
            cs, modulus = [0] * len(residues), 1  # every earlier prime was unlucky
        elif len(residues) > len(cs):
            continue  # q is unlucky
        cs, modulus = _crt(cs, modulus, residues, q), modulus * q
        if modulus > bound:
            h = _symmetric(cs, modulus)
            radical, rem = _divmod_monic(coeffs, h)
            if not any(rem) and not any(_divmod_monic(dp, h)[1]):
                return radical


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


def _scaled(coeffs, t):
    """Coefficients of P(Z) = 2^(tn) p(Z / 2^t), so that P takes a root
    approximation z = Z / 2^t with Z a Gaussian integer to an integer."""
    n = len(coeffs) - 1
    return [c << (t * (n - k)) for k, c in enumerate(coeffs)]


def _weierstrass(scaled, zs):
    """(P(Z_i), Q_i) for each approximation, Q_i = prod_(j != i) (Z_i - Z_j).

    At scale t, the Weierstrass correction p(z_i) / prod_(j != i) (z_i - z_j)
    is P(Z_i) / (2^t Q_i), so in units of 2^-t it is P(Z_i) / Q_i.
    """
    out = []
    for i, zi in enumerate(zs):
        q = (1, 0)
        for j, zj in enumerate(zs):
            if j != i:
                q = _gauss_mul(q, (zi[0] - zj[0], zi[1] - zj[1]))
        out.append((_horner(scaled, zi), q))
    return out


def _inclusion_bounds(scaled, zs, t, weierstrass):
    """Rigorous (lower, upper) for the max root modulus of a monic radical p.

    ``zs`` approximate all roots of p as Gaussian integers Z_i at scale
    ``t`` (z_i = Z_i / 2^t), ``scaled`` are the coefficients of P (see
    ``_scaled``) and ``weierstrass`` the pairs of ``_weierstrass``, so p(z_i),
    p'(z_m) and the products of differences are exact integers; only the
    final square roots round, outward, to ``t`` fractional bits.  Returns
    Fractions, or None when two approximations coincide or p'(z_m) vanishes.

    Upper bound: p is the characteristic polynomial of diag(z) - W 1^T with
    W_i = p(z_i) / prod_{j != i} (z_i - z_j), so by Gerschgorin every root
    lies in some disc |x - z_i| <= n |W_i| (Braess & Hadeler 1973).
    Lower bound: p'/p = sum 1/(x - root), so some root lies within
    n |p(z)/p'(z)| of any z; take the approximation z_m of largest modulus.
    """
    n = len(scaled) - 1
    d2 = 1 << (2 * t)
    upper = 0
    for zi, (pz, q) in zip(zs, weierstrass):
        if not _abs2(q):
            return None
        # |z_i| = |Z_i| / 2^t and |W_i| = |P(Z_i)| / (2^t |Q_i|)
        bound = _sqrt_fixed(_abs2(zi), d2, t, True) + n * _sqrt_fixed(
            _abs2(pz), d2 * _abs2(q), t, True
        )
        upper = max(upper, bound)

    m = max(range(n), key=lambda i: _abs2(zs[i]))
    dp_abs2 = _abs2(_horner([k * c for k, c in enumerate(scaled)][1:], zs[m]))
    if not dp_abs2:
        return None
    # P'(Z) = 2^(t(n-1)) p'(Z / 2^t), so |p(z_m) / p'(z_m)| = |P(Z_m)| / (2^t |P'(Z_m)|)
    lower = _sqrt_fixed(_abs2(zs[m]), d2, t, False) - n * _sqrt_fixed(
        _abs2(weierstrass[m][0]), d2 * dp_abs2, t, True
    )
    return Fraction(max(lower, 0), 1 << t), Fraction(upper, 1 << t)


def _float_up(x: Fraction) -> float:
    """Smallest float >= x, or inf beyond float range."""
    try:
        f = float(x)
    except OverflowError:
        return math.inf
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


def _float_modulus(z, t: int) -> float:
    """The float nearest to |Z| / 2^t, correctly rounded.

    isqrt gives |Z| with at least 59 significant bits; a sticky bit below
    them marks an inexact square root, which keeps the one rounding of the
    integer division exact.
    """
    a = _abs2(z)
    e = max(0, 60 - a.bit_length() // 2)
    r = math.isqrt(a << (2 * e))
    inexact = r * r != a << (2 * e)
    try:
        return (2 * r + inexact) / (1 << (t + e + 1))
    except OverflowError:
        raise CertificationError("spectral radius beyond float range") from None


def _to_fixed(x: float, t: int) -> int:
    """floor(x * 2^t) for a finite float x."""
    num, den = x.as_integer_ratio()
    return (num << t) // den


_SEED_SWEEPS = 500


def _float_seed(coeffs):
    """Double-precision approximations of the roots of a monic radical.

    Durand-Kerner (Kerner 1966) in plain ``complex`` from points spread on a
    circle of Fujiwara's root-bound radius.  The result only moves the
    starting points of the certified root finder; None, meaning its integer
    start on the same circle, when a coefficient overflows ``complex``, a
    product of root differences vanishes, or a value becomes non-finite.
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


def _circle_start(coeffs, t):
    """Starting points on a circle enclosing every root, as Gaussian
    integers at scale t: radius 2 max_k |c_(n-k)|^(1/k) (Fujiwara) rounded
    up to a power of two, angles as in ``_float_seed``."""
    n = len(coeffs) - 1
    bits = max(-(-abs(c).bit_length() // (n - k)) for k, c in enumerate(coeffs[:-1]))
    radius = 1 << (bits + 1 + t)
    angles = [2 * math.pi * k / n + 0.4 for k in range(n)]
    return [
        (radius * _to_fixed(math.cos(a), 60) >> 60, radius * _to_fixed(math.sin(a), 60) >> 60)
        for a in angles
    ]


# Fractional bits of the root approximations at each rung, and the
# Durand-Kerner sweeps allowed per rung.  The first rung holds twice the
# ~52 bits of the float seed, which a sweep near convergence about reaches.
_RUNGS = (104, 208, 416, 832, 1664, 3328)
_RUNG_SWEEPS = 100

# Bits a truncated correction keeps below the quotient's units digit.
_GUARD_BITS = 32


def _round_div(a, b):
    """A Gaussian integer within one, in each coordinate, of the Gaussian
    integer nearest to a / b; None when b = 0.

    A correction is only rounded to one unit, yet at a high rung a and b
    have thousands of bits.  Both are shifted right by k bits, so that b
    keeps the quotient's bits plus ``_GUARD_BITS`` (and never fewer than
    ``_GUARD_BITS``, so b stays nonzero when |a| is much smaller than |b|).
    Each coordinate of a and b then loses less than 2^k, which moves the
    quotient by at most sqrt(2) (|a / b| + 1) / |b'|, b' the shifted b, and
    that is below 2^(4 - _GUARD_BITS): only a quotient that close to a
    rounding boundary rounds the other way.  Small operands are divided as
    they are.
    """
    db = max(b[0].bit_length(), b[1].bit_length())
    if not db:
        return None
    da = max(a[0].bit_length(), a[1].bit_length())
    k = db - max(da - db, 0) - _GUARD_BITS
    if k > 0:
        a, b = (a[0] >> k, a[1] >> k), (b[0] >> k, b[1] >> k)
    den = _abs2(b)
    # a / b = a conj(b) / |b|^2
    re, im = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
    return (2 * re + den) // (2 * den), (2 * im + den) // (2 * den)


def _durand_kerner(scaled, zs, sweeps):
    """Up to ``sweeps`` Durand-Kerner (Weierstrass) sweeps on the Gaussian
    integers ``zs`` at the scale of ``scaled``: each sweep moves every
    approximation at once by its Weierstrass correction P(Z_i) / Q_i rounded
    to a Gaussian integer (``_round_div``), until no correction exceeds one
    unit or two approximations coincide.  Returns the approximations and,
    when the sweeps stopped that way, their ``_weierstrass`` pairs; None in
    their place when every sweep moved."""
    for _ in range(sweeps):
        wei = _weierstrass(scaled, zs)
        moves = [_round_div(pz, q) for pz, q in wei]
        if None in moves or max(max(abs(dr), abs(di)) for dr, di in moves) <= 1:
            return zs, wei
        zs = [(zr - dr, zi - di) for (zr, zi), (dr, di) in zip(zs, moves)]
    return zs, None


def spectral_radius(m: IntMatrix, tol: float = 1e-9) -> SpectralResult:
    """Max eigenvalue modulus, certified to absolute tolerance ``tol``.

    The roots of the radical are refined by Durand-Kerner sweeps on Gaussian
    integers at scale 2^t, started from ``_float_seed`` (or from
    ``_circle_start`` when there is no seed or two of its points are
    equal), until the rounded Weierstrass corrections are at most one unit;
    the approximations and their exact P(Z_i) and Q_i then go to
    ``_inclusion_bounds``.  Each rung of ``_RUNGS`` doubles t and carries
    the approximations over.  The first rung's answer stands only when its
    certified interval rounds to a single float; else the ladder goes on.
    Deterministic for fixed input and tolerance.  Raises CertificationError
    rather than returning a loose answer: at the first rung that stands
    when its interval holds no float within ``tol`` of any point (no rung can
    do better, as the value reported is a float), else when the last rung
    ends without meeting ``tol``.
    """
    _require_square(m)
    if not tol > 0:
        raise ValueError("tol must be positive")
    p = char_poly(m)
    coeffs = list(p.coeffs)
    while coeffs[0] == 0 and len(coeffs) > 1:
        coeffs.pop(0)
    if len(coeffs) > 1:
        # multiple roots stall the root finder and weaken the residual
        # bounds; the radical has the same root set, all simple
        coeffs = _square_free_part(coeffs)
    n = len(coeffs) - 1
    if n == 0:
        return SpectralResult(0.0, 0.0, p, 0)

    seed = _float_seed(coeffs)
    t = _RUNGS[0]
    zs = None if seed is None else [(_to_fixed(z.real, t), _to_fixed(z.imag, t)) for z in seed]
    if zs is None or len(set(zs)) < n:
        # equal approximations have no Weierstrass correction and never part
        zs = _circle_start(coeffs, t)
    for rung in _RUNGS:
        zs = [(re << (rung - t), im << (rung - t)) for re, im in zs]
        t = rung
        scaled = _scaled(coeffs, t)
        zs, wei = _durand_kerner(scaled, zs, _RUNG_SWEEPS)
        bounds = _inclusion_bounds(scaled, zs, t, wei or _weierstrass(scaled, zs))
        if bounds is None:
            continue
        lower, upper = bounds
        if t == _RUNGS[0]:
            # stands only where the interval rounds to one finite float
            try:
                if float(lower) != float(upper):
                    continue
            except OverflowError:
                continue
        value = _float_modulus(max(zs, key=_abs2), t)
        # the error is measured from the float actually reported
        abs_err = _float_up(max(upper - Fraction(value), Fraction(value) - lower))
        if abs_err <= tol:
            return SpectralResult(value, abs_err, p, t)
        if _float_up(lower - Fraction(tol)) > upper + Fraction(tol):
            raise CertificationError(
                f"no float lies within {tol} of the spectral radius of the "
                f"{m.rows}x{m.cols} matrix"
            )
    raise CertificationError(
        f"spectral radius of {m.rows}x{m.cols} matrix not certified to {tol}"
    )

