import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from endogrowth.ball import enumerate_ball, gr_estimate
from endogrowth.errors import CertificationError, ValidationError
from endogrowth.exactlin import IntMatrix, det, inverse_unimodular_2x2, mat_pow, mat_vec
from endogrowth.families import SolMachine
from endogrowth.reports import parse_endo
from endogrowth.solgr import (
    LengthMin,
    SolEndo,
    SolLengthMinimizer,
    classify_endo,
    gr_sol_closed,
    gr_sol_empirical,
)
from endogrowth.words import Endomorphism, apply_on_element, check_homomorphism, image_elements, validate_endo

A_FIB = IntMatrix.from_rows([[2, 1], [1, 1]])
A_23 = IntMatrix.from_rows([[1, 1], [2, 3]])
M_ROOT5 = IntMatrix.from_rows([[1, 2], [2, -1]])
M_23 = IntMatrix.from_rows([[0, 1], [2, 2]])
ALPHA_FIB = (3 + math.sqrt(5)) / 2


def type_one_certificate(a, m):
    """Closed-form certificate of the type I endomorphism with holonomy a,
    torus map m and p = 0."""
    return gr_sol_closed(SolEndo(SolMachine(a), "I", m, (0, 0), 1)).certificate


def sol_endo_from_matrix(machine, m, p=(0, 0), tau_exp=1):
    doc = {"sol": {"M": [list(r) for r in m.entries], "p": p[0], "q": p[1], "tau_exp": tau_exp}}
    return classify_endo(validate_endo(machine, parse_endo(doc, machine)))


class TestClassification:
    def test_commuting_pair_is_type_one(self, sol_fib):
        e = sol_endo_from_matrix(sol_fib, M_ROOT5)
        assert e.type_tag == "I"
        assert e.torus_map == M_ROOT5

    def test_collapsing_is_type_three(self, sol_fib):
        endo = Endomorphism.from_strings(sol_fib.gens, {"a1": "", "a2": "", "tau": "tau^3"})
        e = classify_endo(validate_endo(sol_fib, image_elements(sol_fib, endo)))
        assert e.type_tag == "III" and e.tau_exp == 3

    def test_identity_torus_map(self, sol_fib):
        endo = Endomorphism.from_strings(sol_fib.gens, {"a1": "a1", "a2": "a2", "tau": "a1 tau"})
        e = classify_endo(validate_endo(sol_fib, image_elements(sol_fib, endo)))
        assert e.type_tag == "I" and e.torus_map == IntMatrix.identity(2)
        assert e.p == (1, 0)

    def test_non_commuting_rejected(self, sol_fib):
        endo = Endomorphism.from_strings(sol_fib.gens, {"a1": "a1^2", "a2": "a2", "tau": "tau"})
        with pytest.raises(ValidationError, match="violates relator"):
            classify_endo(validate_endo(sol_fib, image_elements(sol_fib, endo)))

    def test_type_two(self, sol_fib):
        m = IntMatrix.from_rows([[-1, 0], [1, 1]])
        inv = IntMatrix.from_rows([[1, -1], [-1, 2]])
        assert m @ A_FIB == inv @ m
        e = sol_endo_from_matrix(sol_fib, m, tau_exp=-1)
        assert e.type_tag == "II"

    def test_the_relators_force_each_shape(self, sol_fib):
        # classify_endo checks nothing: every assignment with small entries
        # that the relators accept has the shape its type assumes
        a, a_inv = sol_fib.matrix, sol_fib.minimizer.inverse
        small = range(-1, 2)
        tags = set()
        for e1, e2 in itertools.product(itertools.product(small, repeat=3), repeat=2):
            for tau in itertools.product(small, small, range(-2, 3)):
                images = (e1, e2, tau)
                if not check_homomorphism(sol_fib, images).valid:
                    continue
                assert e1[2] == e2[2] == 0, images
                m = IntMatrix.from_rows([[e1[0], e2[0]], [e1[1], e2[1]]])
                if tau[2] == 1:
                    assert a @ m == m @ a, images
                elif tau[2] == -1:
                    assert m @ a == a_inv @ m, images
                else:
                    assert m.is_zero(), images
                tags.add(classify_endo(validate_endo(sol_fib, images)).type_tag)
        assert tags == {"I", "II", "III"}


class TestEigenData:
    def test_root_five_pair(self):
        cert = type_one_certificate(A_FIB, M_ROOT5)
        assert abs(type_one_certificate(A_FIB, A_FIB)["mu"] - ALPHA_FIB) <= 1e-12
        assert abs(cert["mu"] - math.sqrt(5)) <= 1e-12
        assert abs(cert["nu"] + math.sqrt(5)) <= 1e-12

    def test_holonomy_is_its_own_torus_map(self):
        cert = type_one_certificate(A_FIB, A_FIB)
        assert abs(cert["mu"] - ALPHA_FIB) <= 1e-12
        assert abs(cert["nu"] - 1 / ALPHA_FIB) <= 1e-12

    def test_one_plus_sqrt_three(self):
        cert = type_one_certificate(A_23, M_23)
        assert abs(cert["mu"] - (1 + math.sqrt(3))) <= 1e-12
        assert abs(cert["nu"] - (1 - math.sqrt(3))) <= 1e-12

    def test_exact_cross_checks(self):
        # mu, nu = x +- y sqrt(d) with x = tr M / 2 and y = m12 / (2 l12)
        (l11, l12), (_, l22) = A_FIB.entries
        d = (l11 + l22) ** 2 - 4
        rng = random.Random(3)
        for _ in range(50):
            c0, c1 = rng.randint(-4, 4), rng.randint(-4, 4)
            m = IntMatrix.identity(2).scale(c0) + A_FIB.scale(c1)
            cert = type_one_certificate(A_FIB, m)
            x, y = Fraction(cert["trace_m"], 2), Fraction(m.entries[0][1], 2 * l12)
            assert 2 * x == m.trace()
            assert x * x - d * y * y == det(m) == cert["det_m"]
            assert cert["mu"] == float(x) + float(y) * math.sqrt(d)
            assert cert["nu"] == float(x) - float(y) * math.sqrt(d)

    def test_non_commuting_raises(self):
        with pytest.raises(CertificationError):
            type_one_certificate(A_FIB, IntMatrix.from_rows([[1, 1], [0, 1]]))

    def test_invalid_holonomy_raises(self):
        with pytest.raises(ValidationError):
            type_one_certificate(IntMatrix.identity(2), M_ROOT5)


class TestClosedForm:
    def test_root_five(self, sol_fib):
        e = sol_endo_from_matrix(sol_fib, M_ROOT5)
        closed = gr_sol_closed(e)
        assert abs(closed.value - math.sqrt(5)) <= 1e-9
        assert closed.certificate["branch"] == "abs_nu"

    def test_root_two(self):
        machine = SolMachine(A_23)
        e = sol_endo_from_matrix(machine, M_23)
        closed = gr_sol_closed(e)
        assert abs(closed.value - math.sqrt(2)) <= 1e-9
        assert closed.certificate["branch"] == "sqrt_abs_det"

    def test_torus_map_equals_holonomy(self, sol_fib):
        for p in [(0, 0), (3, -2)]:
            e = sol_endo_from_matrix(sol_fib, A_FIB, p=p)
            assert abs(gr_sol_closed(e).value - 1.0) <= 1e-12

    def test_collapsing_power(self, sol_fib):
        endo = Endomorphism.from_strings(sol_fib.gens, {"a1": "", "a2": "", "tau": "a1 tau^3"})
        e = classify_endo(validate_endo(sol_fib, image_elements(sol_fib, endo)))
        assert gr_sol_closed(e).value == 3.0

    def test_zero_torus_map_type_one(self, sol_fib):
        e = sol_endo_from_matrix(sol_fib, IntMatrix.zeros(2, 2), p=(1, 2))
        assert gr_sol_closed(e).value == 1.0

    def test_type_two_via_square(self, sol_fib):
        m = IntMatrix.from_rows([[-1, 0], [1, 1]])
        e = sol_endo_from_matrix(sol_fib, m, tau_exp=-1)
        closed = gr_sol_closed(e)
        # square has torus map M^2 = I, a tie, so GR = sqrt(1)
        assert abs(closed.value - 1.0) <= 1e-12
        assert closed.certificate["branch"].startswith("typeII_via_square")

    def test_type_two_is_root_of_det(self):
        # M A = A^-1 M swaps A's eigenlines, so M^2 = -det(M) I is scalar: the
        # square always takes the tie branch, and the rate is sqrt|det M|
        rng = random.Random(2030)
        checked = 0
        for a in random_holonomies(rng, 9):
            machine = SolMachine(a)
            inv = inverse_unimodular_2x2(a)
            maps = [
                m
                for m in (IntMatrix.from_rows([r[:2], r[2:]]) for r in itertools.product(range(-4, 5), repeat=4))
                if not m.is_zero() and m @ a == inv @ m
            ]
            for m in rng.sample(maps, min(len(maps), 6)):
                p = (rng.randint(-3, 3), rng.randint(-3, 3))
                e = sol_endo_from_matrix(machine, m, p=p, tau_exp=-1)
                assert e.type_tag == "II"
                closed = gr_sol_closed(e)
                assert closed.certificate["branch"] == "typeII_via_square:abs_nu"
                assert closed.value == math.sqrt(abs(det(m)))
                checked += 1
        assert checked >= 30


class TestLengthMinimizer:
    def test_unit_vector(self):
        assert SolLengthMinimizer(A_FIB).minimize((1, 0)) == LengthMin(1, 0)

    def test_shifted_power(self):
        best = SolLengthMinimizer(A_23).minimize((16, 44))
        assert (best.value, best.shift) == (8, 2)

    def test_no_shift_preferred(self):
        best = SolLengthMinimizer(A_FIB).minimize((5, 0))
        assert (best.value, best.shift) == (5, 0)

    def test_zero_vector(self):
        best = SolLengthMinimizer(A_FIB).minimize((0, 0))
        assert (best.value, best.shift) == (0, 0)

    def test_minimizer_matches_brute_force(self):
        rng = random.Random(9)
        minimizer = SolLengthMinimizer(A_FIB)
        inv = IntMatrix.from_rows([[1, -1], [-1, 2]])
        for _ in range(60):
            y = (rng.randint(-200, 200), rng.randint(-200, 200))
            if y == (0, 0):
                continue
            best = minimizer.minimize(y)
            w = y
            brute = abs(y[0]) + abs(y[1])
            for n in range(1, 60):
                w = mat_vec(inv, w)
                brute = min(brute, 2 * n + abs(w[0]) + abs(w[1]))
            assert best.value == brute

    def test_big_coordinates_stay_integral(self):
        # the certificate never leaves the integers, whatever the size of y
        minimizer = SolLengthMinimizer(A_23)
        column = mat_vec(mat_pow(A_23, 1500), (0, 1))
        assert column[1] > 2**2000
        best = minimizer.minimize(column)
        assert best.shift > 0 and best.value <= 2 * 1500 + 1

    def test_dominates_geodesics(self, sol_fib):
        ball = enumerate_ball(sol_fib, 10, cap=500_000)
        minimizer = SolLengthMinimizer(A_FIB)
        checked = 0
        for elem, dist in ball.dist.items():
            v1, v2, t = elem
            if t != 0:
                continue
            assert minimizer.minimize((v1, v2)).value >= dist
            checked += 1
        assert checked > 100


class TestEmpirical:
    def test_root_five_table(self, sol_fib):
        e = sol_endo_from_matrix(sol_fib, M_ROOT5)
        table = gr_sol_empirical(e, kmax=16)
        for k in range(1, 9):
            assert table.per_gen["a1"][2 * k - 1] == 5**k
            assert table.per_gen["a2"][2 * k - 1] == 5**k
            assert table.per_gen["tau"][2 * k - 1] == 1
        summary = gr_estimate(table)
        assert abs(summary.estimate - math.sqrt(5)) <= 1e-9

    def test_root_two_table(self):
        machine = SolMachine(A_23)
        e = sol_endo_from_matrix(machine, M_23)
        table = gr_sol_empirical(e, kmax=20)
        for k in range(1, 11):
            assert table.lengths[2 * k - 1] == 2**k + 2 * k
        summary = gr_estimate(table)
        assert abs(summary.estimate - math.sqrt(2)) <= 0.05 * math.sqrt(2)

    def test_holonomy_torus_map_linear_growth(self, sol_fib):
        e = sol_endo_from_matrix(sol_fib, A_FIB)
        table = gr_sol_empirical(e, kmax=40)
        assert table.lengths == tuple(2 * k + 1 for k in range(1, 41))
        summary = gr_estimate(table)
        assert summary.estimate <= 1.1

    def test_tau_entry_uses_telescoped_form(self, sol_fib):
        e = sol_endo_from_matrix(sol_fib, A_FIB, p=(1, 0))
        table = gr_sol_empirical(e, kmax=12)
        # tau accumulates (I + A + ... + A^(k-1)) p; telescoping the sum with
        # per-iterate shifts keeps the length quadratic, not exponential
        for k, val in zip(table.ks, table.per_gen["tau"]):
            assert val <= k * k + 1

    def test_type_two_table_is_the_iterates_lengths(self, sol_fib):
        # MA = A^-1 M, and tau -> a^p tau^-1: every row is the shift
        # minimizer's length of the iterate itself
        doc = {"sol": {"M": [[-3, 0], [3, 3]], "p": 1, "q": -2, "tau_exp": -1}}
        valid = validate_endo(sol_fib, parse_endo(doc, sol_fib))
        e = classify_endo(valid)
        assert e.type_tag == "II"
        table = gr_sol_empirical(e, kmax=10)
        row = valid.images
        for k in range(10):
            for name, x in zip(sol_fib.gens.names, row):
                assert table.per_gen[name][k] == sol_fib.length_upper(x), (name, k + 1)
            row = tuple(apply_on_element(sol_fib, valid.images, x) for x in row)

    @pytest.mark.parametrize(
        "a, m, p, tau_exp",
        [
            (A_FIB, M_ROOT5, (2, -1), 1),
            (A_FIB, A_FIB, (1, 0), 1),
            (A_23, M_23, (-1, 3), 1),
            (A_FIB, IntMatrix.from_rows([[-3, 0], [3, 3]]), (1, -2), -1),
            (A_FIB, IntMatrix.from_rows([[-1, 0], [1, 1]]), (2, 1), -1),
            (A_23, IntMatrix.from_rows([[-2, -3], [2, 2]]), (1, 2), -1),
        ],
        ids=["I-root5", "I-holonomy", "I-root2", "II-scaled", "II-unit", "II-root2"],
    )
    def test_warm_started_table_equals_the_cold_one(self, a, m, p, tau_exp):
        # each of the four streams starts at its shift for k - 1; the
        # reference minimizes every entry from shift 0
        e = sol_endo_from_matrix(SolMachine(a), m, p=p, tau_exp=tau_exp)
        assert e.type_tag == ("I" if tau_exp == 1 else "II")
        kmax = 300
        table = gr_sol_empirical(e, kmax)
        cold = cold_table(e, kmax)
        assert table.per_gen == cold
        assert table.lengths == tuple(map(max, *cold.values()))

    def test_type_three_table(self, sol_fib):
        endo = Endomorphism.from_strings(sol_fib.gens, {"a1": "", "a2": "", "tau": "tau^3"})
        e = classify_endo(validate_endo(sol_fib, image_elements(sol_fib, endo)))
        table = gr_sol_empirical(e, kmax=8)
        assert table.per_gen["a1"] == [0] * 8
        summary = gr_estimate(table)
        assert abs(summary.estimate - 3.0) <= 0.2


def cold_table(e, kmax):
    """The rows of gr_sol_empirical for a type I or II endomorphism, each
    shift minimized from 0, in IntMatrix arithmetic."""
    minimize = e.machine.minimizer.minimize
    m, a = e.torus_map, e.machine.matrix
    mk, tau_part, tau_sign, mj_p = m, e.p, e.tau_exp, e.p
    telescoped = abs(e.p[0]) + abs(e.p[1])
    a1, a2, tau = [], [], []
    for _ in range(kmax):
        (c11, c12), (c21, c22) = mk.entries
        a1.append(minimize((c11, c21)).value)
        a2.append(minimize((c12, c22)).value)
        direct = minimize(tau_part).value + 1
        if e.type_tag == "I":
            tau.append(min(direct, telescoped + 1))
            mj_p = mat_vec(m, mj_p)
            telescoped += minimize(mj_p).value
        else:
            tau.append(direct)
        mk = mk @ m
        step = e.p if tau_sign == 1 else tuple(-v for v in mat_vec(a, e.p))
        tau_part = tuple(x + y for x, y in zip(mat_vec(m, tau_part), step))
        tau_sign *= e.tau_exp
    return {"a1": a1, "a2": a2, "tau": tau}


def random_type_one(machine, rng):
    while True:
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        m = IntMatrix.identity(2).scale(x) + machine.matrix.scale(y)
        p = (rng.randint(-2, 2), rng.randint(-2, 2))
        return sol_endo_from_matrix(machine, m, p=p)


class TestInvariants:
    def test_bounded_by_torus_spectral_radius(self, sol_fib):
        from endogrowth.exactlin import spectral_radius

        rng = random.Random(15)
        for _ in range(30):
            e = random_type_one(sol_fib, rng)
            closed = gr_sol_closed(e).value
            bound = max(spectral_radius(e.torus_map).value, 1.0) if not e.torus_map.is_zero() else 1.0
            assert closed <= bound + 1e-9
            assert closed >= 1.0 - 1e-12  # tau survives every iterate

    def test_strictness_witness(self, sol_fib):
        from endogrowth.exactlin import spectral_radius

        e = sol_endo_from_matrix(sol_fib, A_FIB)
        closed = gr_sol_closed(e).value
        assert closed == 1.0 < spectral_radius(A_FIB).value

    def test_square_consistency(self, sol_fib):
        rng = random.Random(21)
        for _ in range(30):
            e = random_type_one(sol_fib, rng)
            m2 = e.torus_map @ e.torus_map
            p2 = tuple(
                a + b for a, b in zip(mat_vec(e.torus_map, e.p), e.p)
            )  # (M + I) p
            e2 = SolEndo(e.machine, "I", m2, p2, 1)
            v, v2 = gr_sol_closed(e).value, gr_sol_closed(e2).value
            assert abs(v2 - v**2) <= 1e-9 * max(1.0, v**2)

    def test_branch_matches_square_branch(self, sol_fib):
        e = sol_endo_from_matrix(sol_fib, M_ROOT5)
        e2 = SolEndo(sol_fib, "I", M_ROOT5 @ M_ROOT5, (0, 0), 1)
        assert abs(gr_sol_closed(e2).value - gr_sol_closed(e).value ** 2) <= 1e-9


def random_holonomies(rng, count):
    """Seeded integer matrices with determinant 1 and trace > 2."""
    out = []
    while len(out) < count:
        a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
        if a * d - b * c == 1 and a + d > 2:
            out.append(IntMatrix.from_rows([[a, b], [c, d]]))
    return out


def certificate_cases(rng, expanding=False):
    """(holonomy, y): random small vectors, and the columns of A^k, which lie
    ever closer to the expanding direction, where the beta row cancels; with
    ``expanding``, the columns of A^-k, where the alpha row cancels."""
    for a in random_holonomies(rng, 8):
        for _ in range(250):
            y = (rng.randint(-300, 300), rng.randint(-300, 300))
            if y != (0, 0):
                yield a, y
        base = inverse_unimodular_2x2(a) if expanding else a
        for k in range(0, 701, 25):
            power = mat_pow(base, k).entries
            for i in range(2):
                yield a, (power[0][i], power[1][i])


def brute_force_min(a, y):
    """(min, least argmin) over shifts 0 <= n < |y|_1 / 2 of 2n + |A^-n y|_1,
    with no certificate.

    A shift with 2n >= best cannot beat best, so the scan stops there; that
    leaves the minimum and its least shift over the whole range unchanged."""
    (a11, a12), (a21, a22) = a.entries
    w0, w1 = y
    best, shift = abs(w0) + abs(w1), 0
    n = 0
    while 2 * (n + 1) < best:
        n += 1
        w0, w1 = a22 * w0 - a12 * w1, -a21 * w0 + a11 * w1
        val = 2 * n + abs(w0) + abs(w1)
        if val < best:
            best, shift = val, n
    return best, shift


def row_reference(a, y, expanding):
    """|2 u . y| (beta row) or |2 u' . y| (alpha row), in mpmath."""
    (l11, _), (l21, l22) = a.entries
    t = l11 + l22
    sign = 1 if expanding else -1
    return abs(2 * l21 * y[0] + (t - 2 * l11) * y[1] + sign * y[1] * mpmath.sqrt(t * t - 4))


def check_row_bound(expanding):
    """functional_lower is positive, at most the row, and at least 0.74 of it."""
    checked = 0
    for a, (y0, y1) in certificate_cases(random.Random(2026), expanding):
        num, den = SolLengthMinimizer(a).functional_lower(y0, y1, expanding)
        assert num > 0 and den > 0
        # a row cancels to about |y|^-1, so the reference needs 2 log10|y| digits
        digits = 2 * len(str(max(abs(y0), abs(y1)))) + 60
        with mpmath.workdps(digits):
            exact = row_reference(a, (y0, y1), expanding)
            assert mpmath.mpf(num) / den <= exact, (a.entries, y0, y1)
            # sqrt(d) / (isqrt(d) + 1) >= sqrt(5) / 3 for every d >= 5
            assert mpmath.mpf(num) / den >= exact * 0.74, (a.entries, y0, y1)
        checked += 1
    assert checked > 2000


class TestShiftCertificate:
    def test_lower_bound_is_sound_and_tight(self):
        check_row_bound(expanding=False)

    def test_expanding_lower_bound_is_sound_and_tight(self):
        check_row_bound(expanding=True)

    def test_norm_bound_covers_the_eigenvector(self):
        # |u . w| <= |u|_inf |w|_1 turns the functional into a length bound
        for a in random_holonomies(random.Random(2028), 40):
            (l11, _), (l21, l22) = a.entries
            t = l11 + l22
            with mpmath.workdps(50):
                two_u_inf = max(abs(2 * l21), abs(t - 2 * l11 - mpmath.sqrt(t * t - 4)))
                assert SolLengthMinimizer(a).u_inf2 >= two_u_inf

    def test_norm_bound_covers_the_expanding_eigenvector(self):
        # 2 u' = (2 l21, 2 alpha - 2 l11) = (c0, c1 + sqrt(d)), and
        # |c1 + sqrt(d)| <= |c1| + isqrt(d) + 1 as for the beta row
        for a in random_holonomies(random.Random(2029), 40):
            (l11, l12), (l21, l22) = a.entries
            t = l11 + l22
            with mpmath.workdps(50):
                alpha = (t + mpmath.sqrt(t * t - 4)) / 2
                two_u_inf = max(abs(2 * l21), abs(2 * alpha - 2 * l11))
                assert SolLengthMinimizer(a).u_inf2 >= two_u_inf
                # u' is the left alpha-eigenvector: (u' A)_2 = alpha u'_2
                assert abs(l21 * l12 + (alpha - l11) * l22 - alpha * (alpha - l11)) < mpmath.mpf(10) ** -40

    def test_minimize_is_exact(self):
        checked = 0
        for a, y in certificate_cases(random.Random(2027)):
            if abs(y[0]) + abs(y[1]) >= 20000:
                continue
            best = SolLengthMinimizer(a).minimize(y)
            assert (best.value, best.shift) == brute_force_min(a, y), (a.entries, y)
            checked += 1
        assert checked > 2000

    def test_every_start_gives_the_minimum(self):
        # the downward scan's alpha-row certificate and the upward scan's
        # beta row on the current vector end both scans at any start
        rng = random.Random(2030)
        checked = 0
        for a, y in certificate_cases(random.Random(2027)):
            minimizer = SolLengthMinimizer(a)
            ref = brute_force_min(a, y)
            shift = ref[1]
            for start in {0, shift, max(shift - 3, 0), shift + 3, rng.randint(0, 2 * shift + 5)}:
                best = minimizer.minimize(y, start)
                assert (best.value, best.shift) == ref, (a.entries, y, start)
                checked += 1
        assert checked > 6000

    def test_a_tie_goes_to_the_least_shift_from_above(self):
        # f(2) = f(3) = 7 is the minimum for y = (13, 8) under A_FIB, and
        # (5, 3) ties at shifts 1 and 2: a scan that starts above the least
        # shift must still walk down onto it
        minimizer = SolLengthMinimizer(A_FIB)
        for y, ties in (((13, 8), (2, 3)), ((5, 3), (1, 2))):
            value, shift = brute_force_min(A_FIB, y)
            assert shift == ties[0]
            w = mat_vec(mat_pow(minimizer.inverse, ties[1]), y)
            assert 2 * ties[1] + abs(w[0]) + abs(w[1]) == value
            for start in range(ties[0], ties[1] + 4):
                assert minimizer.minimize(y, start) == LengthMin(value, shift), (y, start)
