import json
import math
import random
import sys
from fractions import Fraction
from unittest.mock import ANY

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import endogrowth.exactlin as exactlin
from endogrowth.errors import CertificationError, DimensionError
from endogrowth.exactlin import (
    IntMatrix,
    IntPolynomial,
    char_poly,
    det,
    exterior_square,
    inverse_unimodular_2x2,
    kronecker,
    mat_pow,
    spectral_radius,
    _RUNGS,
    _float_seed,
    _round_div,
    _square_free_part,
)

from conftest import count_calls, run_child
from endogrowth.cli import run

GOLDEN = (3 + math.sqrt(5)) / 2


def mat(rows):
    return IntMatrix.from_rows(rows)


def np_eigs(m):
    return np.linalg.eigvals(np.array(m.entries, dtype=float))


def same_multiset(xs, ys, tol=1e-6):
    xs = sorted(xs, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    ys = sorted(ys, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    return len(xs) == len(ys) and all(abs(x - y) <= tol for x, y in zip(xs, ys))


def faddeev_leverrier(m):
    """Reference characteristic polynomial by Faddeev-LeVerrier over the
    integers (every interior division is exact)."""
    n = m.rows
    coeffs = [0] * n + [1]
    acc = IntMatrix.identity(n)
    for k in range(1, n + 1):
        acc = m @ acc
        tr = acc.trace()
        assert tr % k == 0
        coeffs[n - k] = -tr // k
        acc = acc + IntMatrix.identity(n).scale(-tr // k)
    return tuple(coeffs)


def test_equal_matrices_compare_and_hash_equal():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    rebuilt = IntMatrix.from_rows([list(row) for row in m.entries])
    assert rebuilt is not m and rebuilt == m and hash(rebuilt) == hash(m)
    assert m == m.transpose() and m @ m == IntMatrix.from_rows([[5, 3], [3, 2]])
    assert m != IntMatrix.from_rows([[2, 1], [1, 2]]) and m != m.entries
    assert repr(m) == "IntMatrix(entries=((2, 1), (1, 1)))" and m == ANY


class TestCharPoly:
    def test_fibonacci_like(self):
        assert char_poly(mat([[2, 1], [1, 1]])).coeffs == (1, -3, 1)

    def test_identity(self):
        assert char_poly(IntMatrix.identity(2)).coeffs == (1, -2, 1)

    def test_third_example(self):
        # roots 1 +- sqrt(3)
        assert char_poly(mat([[0, 1], [2, 2]])).coeffs == (-2, -2, 1)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            char_poly(IntMatrix.zeros(2, 3))

    def test_cayley_hamilton_random(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = mat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            assert char_poly(m).eval_matrix(m).is_zero()

    def test_str_rendering(self):
        assert str(char_poly(mat([[2, 1], [1, 1]]))) == "x^2 - 3*x + 1"

    def test_needs_several_primes(self):
        # the coefficient bound 2 prod_i (1 + ceil(|row_i|_2)) is far beyond
        # one 61-bit prime
        m = mat([[10**30, -(10**29), 7], [3, -(10**31), 1], [10**28, 5, 10**30]])
        assert char_poly(m).coeffs == faddeev_leverrier(m)

    def test_singular_and_nilpotent(self):
        assert char_poly(mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])).coeffs == (0, 0, 0, 1)
        assert char_poly(mat([[0, 0], [0, 0]])).coeffs == (0, 0, 1)


def sylvester(n):
    """The n x n Sylvester Hadamard matrix, n a power of two."""
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


# (n, c): the largest scale c at which 2 prod_i (1 + ceil(|row_i|_2)) for
# c H_n stays below the first 61-bit prime.  Hadamard's inequality is an
# equality for c H_n, and at c + 1 its determinant c^n n^(n/2) reaches 2^60,
# 2^60 and 2^64, past the symmetric range of one prime.
HADAMARD_ONE_PRIME = ((4, 16383), (8, 63), (16, 3))


@pytest.mark.parametrize("n, c_max", HADAMARD_ONE_PRIME)
@pytest.mark.parametrize("above", [False, True], ids=["one-prime", "two-primes"])
def test_char_poly_where_hadamards_bound_is_tight(n, c_max, above, monkeypatch):
    c = c_max + above
    m = mat([[c * x for x in row] for row in sylvester(n)])
    calls = count_calls(monkeypatch, exactlin, "_char_poly_mod")
    assert char_poly(m).coeffs == faddeev_leverrier(m)
    assert len(calls) == 1 + above


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(st.integers(-5, 5), st.integers(-(10**400), 10**400)),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
def test_modular_char_poly_matches_faddeev_leverrier(rows):
    m = IntMatrix.from_rows(rows)
    assert char_poly(m).coeffs == faddeev_leverrier(m)


def test_cli_import_leaves_mpmath_out():
    done = run_child("import endogrowth.cli\nprint('mpmath' in sys.modules)")
    assert done.returncode == 0 and done.stdout.strip() == "False", done.stderr


class TestSpectralRadius:
    def test_golden_square(self):
        r = spectral_radius(mat([[2, 1], [1, 1]]), tol=1e-9)
        assert abs(r.value - GOLDEN) <= 1e-9
        assert r.abs_error <= 1e-9

    def test_zero_matrix(self):
        r = spectral_radius(IntMatrix.zeros(3, 3))
        # no root finding at all: the radical is the constant 1
        assert r.value == 0.0 and r.abs_error == 0.0 and r.bits == 0

    def test_root_five(self):
        r = spectral_radius(mat([[1, 2], [2, -1]]))
        assert abs(r.value - math.sqrt(5)) <= 1e-9

    def test_repeated_roots(self):
        r = spectral_radius(mat([[2, 0], [0, 2]]))
        assert abs(r.value - 2) <= 1e-12

    def test_tol_validated(self):
        with pytest.raises(ValueError):
            spectral_radius(IntMatrix.identity(2), tol=0.0)

    def test_power_compatibility(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 3)
            m = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            base = spectral_radius(m).value
            for k in (2, 3, 4):
                powered = spectral_radius(mat_pow(m, k)).value
                assert abs(powered - base**k) <= 1e-6 * max(1.0, base**k)

    def test_unimodular_similarity_invariance(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(2, 3)
            m = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            p = IntMatrix.identity(n)
            p_inv = IntMatrix.identity(n)
            for _ in range(6):
                i, j = rng.sample(range(n), 2)
                c = rng.choice([-1, 1])
                e = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
                e[i][j] = c
                e_inv = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
                e_inv[i][j] = -c
                p = p @ mat(e)
                p_inv = mat(e_inv) @ p_inv
            assert (p @ p_inv) == IntMatrix.identity(n)
            a = spectral_radius(m).value
            b = spectral_radius(p @ m @ p_inv).value
            assert abs(a - b) <= 1e-9 * max(1.0, a)


def reference_square_free_part(coeffs):
    """Monic radical p / gcd(p, p') of a monic integer polynomial (ascending),
    by rational Euclid."""

    def divide(a, b):
        """Quotient and remainder of a by b, the remainder without trailing
        zeros, by rational long division."""
        q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
        r = a[:]
        for k in reversed(range(len(q))):
            q[k] = r[k + len(b) - 1] / b[-1]
            for i, c in enumerate(b):
                r[k + i] -= q[k] * c
        while r and r[-1] == 0:
            r.pop()
        return q, r

    p = [Fraction(c) for c in coeffs]
    a, b = p, [Fraction(k * c) for k, c in enumerate(coeffs)][1:]
    while b:
        a, b = b, divide(a, b)[1]
    q, _ = divide(p, [c / a[-1] for c in a])
    assert all(c.denominator == 1 for c in q)
    return [int(c) for c in q]


def reference_radius(m):
    """Max root modulus from polyroots of the square-free part at 300 digits."""
    coeffs = list(char_poly(m).coeffs)
    while coeffs[0] == 0 and len(coeffs) > 1:
        coeffs.pop(0)
    if len(coeffs) == 1:
        return mpmath.mpf(0)
    radical = reference_square_free_part(coeffs)
    with mpmath.workdps(300):
        zs = mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(radical)], maxsteps=800, extraprec=300
        )
        return max(abs(z) for z in zs)


def assert_contains_reference(m):
    r = spectral_radius(m)
    ref = reference_radius(m)
    with mpmath.workdps(300):
        # the reference is good to far better than 1e-250
        gap = abs(ref - mpmath.mpf(r.value)) - mpmath.mpf(r.abs_error)
        assert gap <= mpmath.mpf(10) ** -250, (m.entries, r.value, r.abs_error, ref)


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def seeded_matrix(kind, n, rng):
    """dense: entries in [-3, 3]; block: one 2x2 block B repeated; jordan:
    4x4 blocks [[B, I], [0, B]], then B for the rest.  An odd n ends the
    structured kinds on the 1x1 block B_11.  Both structured kinds are
    permuted."""
    if kind == "dense":
        return mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    b = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
    chain = block_diag([b, b])
    chain[0][2] = chain[1][3] = 1
    chains = n // 4 if kind == "jordan" else 0
    rows = block_diag([chain] * chains + [b] * ((n - 4 * chains) // 2) + [[b[0][:1]]] * (n % 2))
    perm = list(range(n))
    rng.shuffle(perm)
    return mat([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


class TestCertificate:
    @pytest.mark.parametrize("kind", ["dense", "block", "jordan"])
    def test_reported_interval_contains_true_radius(self, kind):
        rng = random.Random(2024)
        for n in (4, 8, 12, 16):
            for _ in range(2):
                assert_contains_reference(seeded_matrix(kind, n, rng))

    @pytest.mark.parametrize("kind", ["dense", "block", "jordan"])
    def test_value_is_the_correctly_rounded_radius(self, kind):
        rng = random.Random(77)
        for n in range(2, 17):
            m = seeded_matrix(kind, n, rng)
            assert spectral_radius(m).value == float(reference_radius(m)), m.entries

    def test_dense_16_certifies_at_first_rung(self):
        m = seeded_matrix("dense", 16, random.Random(16))
        r = spectral_radius(m)
        assert r.bits == _RUNGS[0]
        assert r.abs_error <= 1e-9


class TestPrecisionLadder:
    def test_dense_16_work(self, monkeypatch):
        # the matrix of TestCertificate.test_dense_16_certifies_at_first_rung
        m = seeded_matrix("dense", 16, random.Random(16))
        scales = {}
        inner_scaled = exactlin._scaled

        def scaled(coeffs, t):
            out = inner_scaled(coeffs, t)
            scales[id(out)] = t
            return out

        monkeypatch.setattr(exactlin, "_scaled", scaled)
        evaluations = count_calls(monkeypatch, exactlin, "_weierstrass")
        hessenberg = count_calls(monkeypatch, exactlin, "_char_poly_mod")
        r = spectral_radius(m)
        widths = [scales[id(args[0])] for args in evaluations]
        assert r.bits == _RUNGS[0]
        # Hadamard's bound needs one prime here, the row-sum bound two
        assert len(hessenberg) == 1
        # the seed holds about half the first rung's bits: a sweep or two,
        # and the final check
        assert set(widths) == {_RUNGS[0]} and len(widths) <= 3

    def test_no_float_within_tol_fails_on_the_first_rung(self, monkeypatch):
        rungs = count_calls(monkeypatch, exactlin, "_inclusion_bounds")
        # the golden ratio squared is irrational, so no float is within 1e-300
        with pytest.raises(CertificationError, match="no float lies within"):
            spectral_radius(mat([[2, 1], [1, 1]]), tol=1e-300)
        assert len(rungs) == 1

    def test_radius_beyond_float_resolution_fails_on_the_first_rung(self, monkeypatch):
        # a radius of some 1e9, where consecutive floats are 2^-22 or more apart
        rng = random.Random(0)
        m = mat([[rng.randint(-(10**9), 10**9) for _ in range(16)] for _ in range(16)])
        rungs = count_calls(monkeypatch, exactlin, "_inclusion_bounds")
        with pytest.raises(CertificationError, match="no float lies within"):
            spectral_radius(m, tol=1e-9)
        assert len(rungs) == 1

    def test_a_float_in_reach_keeps_climbing(self, monkeypatch):
        # x^3 - 8: every root has modulus 2, a float, but the complex pair is
        # irrational, so the interval narrows to 1e-300 only rungs later
        rungs = count_calls(monkeypatch, exactlin, "_inclusion_bounds")
        r = spectral_radius(mat([[0, 0, 8], [1, 0, 0], [0, 1, 0]]), tol=1e-300)
        assert r.value == 2.0 and r.abs_error <= 1e-300
        assert r.bits > _RUNGS[0] and len(rungs) > 1

    @pytest.mark.parametrize("e", range(915, 935))
    def test_near_the_float_maximum(self, e, tmp_path):
        # radius sqrt(N) lies about 2^(e - 1025) below M + 2^970, the
        # boundary past which a float rounds to infinity: the first rung's
        # interval crosses it up to e = 922, and the next rung certifies M
        big = int(sys.float_info.max)
        rows = [[0, (big + 2**970) ** 2 - 2**e], [1, 0]]
        assert spectral_radius(mat(rows), tol=1e300).value == sys.float_info.max
        with pytest.raises(CertificationError, match="no float lies within"):
            spectral_radius(mat(rows), tol=1e-9)
        blocks = tmp_path / "blocks.json"
        blocks.write_text(json.dumps([{"weight": 1, "matrix": rows}]))
        out = str(tmp_path / "out.json")
        assert run(["closed", "--blocks", str(blocks), "--tol", "1e300", "--out", out]) == 0
        assert run(["closed", "--blocks", str(blocks), "--tol", "1e-9", "--out", out]) == 4

    @pytest.mark.parametrize("tol", [2.0, 1e6])
    @pytest.mark.parametrize("a", [1, 3])
    def test_a_radius_on_a_float_midpoint(self, a, tol):
        # roots a +- i sqrt(K^2 - a^2) of modulus K = 2^53 + 1, halfway
        # between two floats: the first rung's interval reaches past K and
        # spans both, so the next rung returns the even neighbour
        k = 2**53 + 1
        r = spectral_radius(mat([[0, -k * k], [1, 2 * a]]), tol=tol)
        assert r.value == 9007199254740992.0 and r.bits == _RUNGS[1]


def mignotte_companion(n, a):
    """Companion matrix of x^n - 2 (a x - 1)^2, whose two roots near 1/a
    are about 2 a^(-(n + 2) / 2) apart."""
    coeffs = [-2, 4 * a, -2 * a * a] + [0] * (n - 3) + [1]
    return mat([[int(i == j + 1) for j in range(n - 1)] + [-coeffs[i]] for i in range(n)])


class TestCloseRoots:
    # x^8 - 2 (10^4 x - 1)^2: two roots some 2e-20 apart, far under one
    # unit of the 52-bit float seed
    M = mignotte_companion(8, 10**4)

    def cluster_seed(self, monkeypatch, near):
        """Replace the float seed's two roots near 1e-4 by ``near``."""
        far = [z for z in _float_seed(list(char_poly(self.M).coeffs)) if abs(z) > 2e-4]
        monkeypatch.setattr(exactlin, "_float_seed", lambda coeffs: far + near)

    def test_close_roots_certify(self):
        r = spectral_radius(self.M)
        assert r.bits == _RUNGS[0]
        assert r.value == float(reference_radius(self.M))

    @pytest.mark.parametrize(
        "offset", [2**-52 * 1j, 2**-51, -(2**-50)], ids=["up one unit", "right two", "left four"]
    )
    def test_clustered_seeds_certify_at_the_first_rung(self, offset, monkeypatch):
        # two seed points one unit apart or a little more at 52 bits give
        # the same value as the seed of distinct points
        want = spectral_radius(self.M).value
        self.cluster_seed(monkeypatch, [1e-4, 1e-4 + offset])
        r = spectral_radius(self.M)
        assert r.value == want and r.bits == _RUNGS[0]

    def test_equal_seed_points_start_from_the_circle(self, monkeypatch):
        want = spectral_radius(self.M).value
        self.cluster_seed(monkeypatch, [1e-4, 1e-4])
        starts = count_calls(monkeypatch, exactlin, "_circle_start")
        r = spectral_radius(self.M)
        assert r.value == want and len(starts) == 1


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def exact_round_div(a, b):
    """The Gaussian integer nearest to a / b = a conj(b) / |b|^2, halves up."""
    num, den = gauss_mul(a, (b[0], -b[1])), b[0] * b[0] + b[1] * b[1]
    return tuple(math.floor(Fraction(x, den) + Fraction(1, 2)) for x in num)


def gaussian(max_bits):
    coord = st.integers(0, max_bits).flatmap(lambda k: st.integers(-(1 << k), 1 << k))
    return st.tuples(coord, coord)


@st.composite
def near_quotients(draw):
    """(a, b) with a = b q + r: a quotient of up to 300 bits and a remainder
    up to |b|, so the truncation keeps the quotient plus its guard bits."""
    b = draw(gaussian(4000).filter(lambda z: z != (0, 0)))
    q, r = draw(gaussian(300)), draw(gaussian(max(b[0].bit_length(), b[1].bit_length())))
    bq = gauss_mul(b, q)
    return (bq[0] + r[0], bq[1] + r[1]), b


class TestRoundDiv:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.tuples(gaussian(4000), gaussian(4000)), near_quotients()))
    def test_within_one_of_the_nearest(self, ab):
        a, b = ab
        if b == (0, 0):
            assert _round_div(a, b) is None
            return
        got, want = _round_div(a, b), exact_round_div(a, b)
        assert all(abs(x - y) <= 1 for x, y in zip(got, want)), (got, want)

    def test_zero_divisor(self):
        assert _round_div((5, -3), (0, 0)) is None

    def test_small_numerator_keeps_the_divisor(self):
        # a shift sized only by the quotient would leave b = 0 here
        assert _round_div((1, -1), (1 << 4000, 3)) == (0, 0)
        assert _round_div((1 << 3000, 0), (1 << 4000, -(1 << 3999))) == (0, 0)
        assert _round_div((0, 0), (3, 1 << 4000)) == (0, 0)

    def test_exact_quotient(self):
        b = ((1 << 3000) + 12345, -(1 << 2999) + 7)
        q = ((1 << 200) - 3, -(1 << 150))
        assert _round_div(gauss_mul(b, q), b) == q


class TestSquareFreePart:
    def test_square_free_input_is_returned(self):
        # (x - 1)(x - 2)(x^2 + 1)
        assert _square_free_part([2, -3, 3, -3, 1]) == [2, -3, 3, -3, 1]

    def test_repeated_factor_is_removed(self):
        # (x - 1)^2 (x + 2) has the radical (x - 1)(x + 2)
        assert _square_free_part([2, -3, 0, 1]) == [-2, 1, 1]

    @pytest.mark.parametrize("kind", ["block", "jordan"])
    def test_structured_char_polys_match_the_reference(self, kind):
        rng = random.Random(31)
        for n in range(2, 17):
            coeffs = list(char_poly(seeded_matrix(kind, n, rng)).coeffs)
            assert _square_free_part(coeffs) == reference_square_free_part(coeffs), coeffs

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 3).flatmap(
                    lambda k: st.lists(st.integers(-9, 9), min_size=k, max_size=k)
                ),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_products_of_powers_match_the_reference(self, factors):
        coeffs = [1]
        for low, power in factors:
            for _ in range(power):
                coeffs = poly_mul(coeffs, low + [1])
        assert _square_free_part(coeffs) == reference_square_free_part(coeffs)

    def test_an_unlucky_prime_is_passed_over(self, monkeypatch):
        # p = x^2 + 1 has p' = 2x, which vanishes modulo 2, where the gcd is
        # p itself; the next prime proves p square-free
        primes, drawn = exactlin._primes, []

        def two_first():
            drawn.append(2)
            yield 2
            for q in primes():
                drawn.append(q)
                yield q

        monkeypatch.setattr(exactlin, "_primes", two_first)
        assert _square_free_part([1, 0, 1]) == [1, 0, 1]
        assert drawn == [2, next(primes())]

    @pytest.mark.parametrize(
        "fake", [[-2, 1, 1], [-1, 0, 1]], ids=["divides p only", "divides p' only"]
    )
    def test_a_lift_that_does_not_divide_both_is_rejected(self, fake, monkeypatch):
        # p = (x - 1)^2 (x + 2) and p' = 3 (x - 1)(x + 1) have the gcd x - 1.
        # The first prime reports (x - 1)(x + 2) or (x - 1)(x + 1) in its
        # place, and one prime passes Mignotte's bound, so that lift is
        # checked, rejected, and the next prime lowers the degree
        inner, calls = exactlin._gcd_mod, []

        def gcd_mod(a, b, q):
            calls.append(q)
            return [c % q for c in fake] if len(calls) == 1 else inner(a, b, q)

        monkeypatch.setattr(exactlin, "_gcd_mod", gcd_mod)
        assert _square_free_part([2, -3, 0, 1]) == [-2, 1, 1]
        assert len(calls) == 2


class TestFloatSeed:
    def test_seed_approximates_the_roots(self):
        # (x - 1)(x - 2)(x^2 + 1)
        coeffs = [2, -3, 3, -3, 1]
        zs = sorted(_float_seed(coeffs), key=lambda z: (z.real, z.imag))
        for z, root in zip(zs, [-1j, 1j, 1, 2]):
            assert abs(z - root) <= 1e-12

    def test_coefficient_beyond_float_range_falls_back(self):
        # x^2 - 10^400: complex() cannot hold the coefficient, so the root
        # finder starts from its default points and still certifies
        m = mat([[0, 10**400], [1, 0]])
        assert _float_seed(list(char_poly(m).coeffs)) is None
        r = spectral_radius(m, tol=1e190)
        assert abs(10**200 - Fraction(r.value)) <= r.abs_error <= 1e190

    def test_radius_beyond_float_range_is_a_certification_error(self):
        with pytest.raises(CertificationError):
            spectral_radius(mat([[10**400, 0], [0, 1]]))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_certificate_contains_true_radius(rows):
    assert_contains_reference(IntMatrix.from_rows(rows))


class TestExteriorSquare:
    def test_diagonal(self):
        assert exterior_square(mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])) == mat(
            [[2, 0, 0], [0, 3, 0], [0, 0, 6]]
        )

    def test_identity(self):
        assert exterior_square(IntMatrix.identity(3)) == IntMatrix.identity(3)

    def test_too_small(self):
        with pytest.raises(DimensionError):
            exterior_square(mat([[5]]))

    def test_eigenvalue_products(self):
        rng = random.Random(5)
        for _ in range(120):
            m = mat([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
            eigs = np_eigs(m)
            products = [eigs[i] * eigs[j] for i in range(3) for j in range(i + 1, 3)]
            assert same_multiset(list(np_eigs(exterior_square(m))), products)


class TestKronecker:
    def test_identities(self):
        assert kronecker(IntMatrix.identity(2), IntMatrix.identity(3)) == IntMatrix.identity(6)
        assert kronecker(mat([[2]]), mat([[3]])) == mat([[6]])

    def test_eigenvalue_products(self):
        rng = random.Random(6)
        for _ in range(120):
            a = mat([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
            b = mat([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
            ea, eb = np_eigs(a), np_eigs(b)
            products = [x * y for x in ea for y in eb]
            assert same_multiset(list(np_eigs(kronecker(a, b))), products)


class TestMatHelpers:
    def test_square(self):
        sq = mat_pow(mat([[2, 1], [1, 1]]), 2)
        assert sq == mat([[5, 3], [3, 2]])

    def test_power_zero(self):
        assert mat_pow(mat([[3, -1], [0, 2]]), 0) == IntMatrix.identity(2)

    def test_second_power(self):
        assert mat_pow(mat([[1, 1], [2, 3]]), 2) == mat([[3, 4], [8, 11]])

    def test_det(self):
        assert det(mat([[2, 1], [1, 1]])) == 1
        assert det(mat([[1, 2], [2, -1]])) == -5

    def test_unimodular_inverse(self):
        a = mat([[2, 1], [1, 1]])
        assert a @ inverse_unimodular_2x2(a) == IntMatrix.identity(2)
        with pytest.raises(ValueError):
            inverse_unimodular_2x2(mat([[2, 0], [0, 2]]))


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_polynomial_normalization(coeffs):
    p = IntPolynomial.from_coeffs(coeffs)
    assert p.coeffs[-1] != 0 or p.is_zero()


@settings(max_examples=40)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_charpoly_degree_and_trace(rows):
    m = IntMatrix.from_rows(rows)
    p = char_poly(m)
    n = m.rows
    assert p.degree == n
    assert p.coeffs[n] == 1
    assert p.coeffs[n - 1] == -m.trace()
