import itertools
import random

import pytest

from endogrowth.errors import ValidationError
from endogrowth.exactlin import IntMatrix, exterior_square, mat_pow, spectral_radius
from endogrowth.families import HeisenbergMachine, Nil2Machine
from endogrowth.nilgr import (
    abelianization_matrix,
    gr_from_blocks,
    gr_nilpotent_closed,
    induced_center_matrix,
)
from endogrowth.words import (
    Endomorphism,
    Word,
    check_homomorphism,
    image_elements,
    reduce_word,
    validate_endo,
)

GOLDEN = (3 + 5**0.5) / 2


def heis_endo(machine, d, p=0, q=0):
    """Images a1 -> a1^d11 a2^d21 a3^p, a2 -> a1^d12 a2^d22 a3^q, a3 -> a3^det."""
    (d11, d12), (d21, d22) = d
    det = d11 * d22 - d12 * d21

    def word(c1, c2, c3):
        parts = []
        for name, e in (("a1", c1), ("a2", c2), ("a3", c3)):
            if e == 1:
                parts.append(name)
            elif e != 0:
                parts.append(f"{name}^{e}")
        return " ".join(parts)

    return Endomorphism.from_strings(
        machine.gens,
        {"a1": word(d11, d21, p), "a2": word(d12, d22, q), "a3": word(0, 0, det)},
    )


def nil2_endo(machine, cols, shifts=((0, 0), (0, 0), (0, 0))):
    """Images t_i -> tau^cols[i] sigma^shifts[i], sigma images derived from commutators."""
    names = machine.gens.names
    n = machine.n_gens

    def tau_word(col, shift):
        parts = []
        for j, e in enumerate(col):
            if e:
                parts.append(names[j] if e == 1 else f"{names[j]}^{e}")
        for s, e in enumerate(shift):
            if e:
                parts.append(names[n + s] if e == 1 else f"{names[n + s]}^{e}")
        return " ".join(parts)

    images = {}
    for i, (col, shift) in enumerate(zip(cols, shifts)):
        images[names[i]] = tau_word(col, shift)
    for name, (i, j) in machine.designated:
        vec = machine.commutator_vector(cols[i - 1], cols[j - 1])
        images[name] = tau_word((0,) * n, vec)
    return Endomorphism.from_strings(machine.gens, images)


def minor(d, i, j):
    """(i, j)-minor (1-based, unsigned) of a 3x3 matrix."""
    rows = [r for r in range(3) if r != i - 1]
    cols = [c for c in range(3) if c != j - 1]
    (a, b), (c, e) = [[d.entries[r][s] for s in cols] for r in rows]
    return a * e - b * c


def bracket_coefficients(machine):
    """(m, n) with [t2, t3] = s12^m s13^n."""
    return machine.commutator_vector((0, 1, 0), (0, 0, 1))


def random_valid_nil2_endos(machine, rng, count):
    """Valid endomorphisms of an Ex3-style machine, relator-checked."""
    m_coef, n_coef = bracket_coefficients(machine)
    found = []
    while len(found) < count:
        choice = rng.random()
        if choice < 0.3:
            u = rng.choice([-3, -2, -1, 1, 2, 3])
            cols = ((u, 0, 0), (0, u, 0), (0, 0, u))
        else:
            c1 = tuple(rng.randint(-2, 2) for _ in range(3))
            c2 = tuple(rng.randint(-2, 2) for _ in range(3))
            target_base = machine.commutator_vector
            solutions = []
            for x in range(-3, 4):
                for y in range(-3, 4):
                    for z in range(-3, 4):
                        c3 = (x, y, z)
                        lhs = target_base(c2, c3)
                        rhs = tuple(
                            m_coef * a + n_coef * b
                            for a, b in zip(target_base(c1, c2), target_base(c1, c3))
                        )
                        if lhs == rhs:
                            solutions.append(c3)
            if not solutions:
                continue
            cols = (c1, c2, rng.choice(solutions))
        shifts = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(3))
        endo = nil2_endo(machine, cols, shifts)
        if check_homomorphism(machine, image_elements(machine, endo)).valid:
            found.append(endo)
    return found


class TestAbelianization:
    def test_heisenberg_matrix(self, heis1):
        endo = heis_endo(heis1, ((2, 1), (1, 1)), p=3, q=-2)
        valid = validate_endo(heis1, image_elements(heis1, endo))
        assert abelianization_matrix(valid) == IntMatrix.from_rows([[2, 1], [1, 1]])

    def test_identity(self, heis1):
        endo = Endomorphism.identity(heis1.gens)
        assert abelianization_matrix(validate_endo(heis1, image_elements(heis1, endo))) == IntMatrix.identity(2)

    def test_nil2_columns(self, nil2_ex3):
        endo = nil2_endo(nil2_ex3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        valid = validate_endo(nil2_ex3, image_elements(nil2_ex3, endo))
        assert abelianization_matrix(valid) == IntMatrix.identity(3).scale(2)

    def test_invalid_refused(self, heis1):
        bad = Endomorphism.from_strings(heis1.gens, {"a1": "a1", "a2": "a2", "a3": "a3^2"})
        with pytest.raises(ValidationError):
            abelianization_matrix(validate_endo(heis1, image_elements(heis1, bad)))


class TestInducedCenter:
    def test_heisenberg_determinant_block(self, heis1):
        endo = heis_endo(heis1, ((2, 1), (1, 1)))
        assert induced_center_matrix(validate_endo(heis1, image_elements(heis1, endo))) == IntMatrix.from_rows([[1]])
        endo2 = heis_endo(heis1, ((2, 0), (0, 3)))
        assert induced_center_matrix(validate_endo(heis1, image_elements(heis1, endo2))) == IntMatrix.from_rows([[6]])

    def test_two_generator_machine_agrees(self):
        h3 = HeisenbergMachine(1)
        h2 = HeisenbergMachine(1, include_center_gen=False)
        d = ((2, 1), (1, 1))
        full = induced_center_matrix(validate_endo(h3, image_elements(h3, heis_endo(h3, d))))
        (d11, d12), (d21, d22) = d

        def word(c1, c2):
            parts = []
            for name, e in (("a1", c1), ("a2", c2)):
                if e:
                    parts.append(name if e == 1 else f"{name}^{e}")
            return " ".join(parts)

        endo2 = Endomorphism.from_strings(h2.gens, {"a1": word(d11, d21), "a2": word(d12, d22)})
        assert induced_center_matrix(validate_endo(h2, image_elements(h2, endo2))) == full

    @pytest.mark.parametrize("k", [1, 2])
    def test_the_relators_keep_the_image_of_a3_central(self, k):
        # center_block reads phi(a3)'s last entry and checks nothing: every
        # assignment with small entries that the relators accept maps a3
        # into the center
        machine = HeisenbergMachine(k)
        moved = 0
        for images in itertools.product(itertools.product(range(-1, 2), repeat=3), repeat=3):
            if check_homomorphism(machine, images).valid:
                assert images[2][:2] == (0, 0), images
                moved += images[2] != machine.identity
        assert moved > 0

    def test_class_two_commutators_are_central(self, nil2_ex3, nil2_commuting):
        # the nilpotent2 center_block takes the central part of commutators
        # and checks nothing: the tau part of a commutator is always 0
        rng = random.Random(23)
        for machine in (nil2_ex3, nil2_commuting):
            n = machine.n_gens
            for _ in range(300):
                a, b = (tuple(rng.randint(-6, 6) for _ in machine.identity) for _ in range(2))
                assert machine.commutator(a, b)[:n] == (0,) * n, (a, b)

    def test_identity(self, nil2_ex3):
        endo = Endomorphism.identity(nil2_ex3.gens)
        assert induced_center_matrix(validate_endo(nil2_ex3, image_elements(nil2_ex3, endo))) == IntMatrix.identity(2)

    def test_columns_follow_the_central_order(self):
        # c -> c^2 and d -> c^2 d^2 under t1 -> t1^2, t2 -> t2, t3 -> t2 t3,
        # whichever order the central generators are listed in
        images = {"t1": "t1^2", "t2": "t2", "t3": "t2 t3", "c": "c^2", "d": "c^2 d^2"}
        expected = {("c", "d"): [[2, 2], [0, 2]], ("d", "c"): [[2, 0], [2, 2]]}
        for central, rows in expected.items():
            machine = Nil2Machine(3, central, (("c", (1, 2)), ("d", (1, 3))), ())
            valid = validate_endo(machine, image_elements(machine, Endomorphism.from_strings(machine.gens, images)))
            assert induced_center_matrix(valid) == IntMatrix.from_rows(rows), central
            assert gr_nilpotent_closed(valid).certificate["sp_center"] == 2.0

    def test_full_sigma_equals_exterior_square(self):
        machine = Nil2Machine(
            3,
            ("s12", "s13", "s23"),
            (("s12", (1, 2)), ("s13", (1, 3)), ("s23", (2, 3))),
            (),
        )
        rng = random.Random(19)
        for _ in range(25):
            cols = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
            valid = validate_endo(machine, image_elements(machine, nil2_endo(machine, cols)))
            d1 = abelianization_matrix(valid)
            assert induced_center_matrix(valid) == exterior_square(d1)

    def test_minor_formula(self, nil2_ex3, nil2_commuting):
        # central block = [[M33 + m*M13, M32 + m*M12], [M23 + n*M13, M22 + n*M12]]
        # in terms of unsigned minors of the abelianization block
        rng = random.Random(29)
        for machine in (nil2_ex3, nil2_commuting):
            m_coef, n_coef = bracket_coefficients(machine)
            for endo in random_valid_nil2_endos(machine, rng, 12):
                valid = validate_endo(machine, image_elements(machine, endo))
                d1 = abelianization_matrix(valid)
                got = induced_center_matrix(valid)
                expect = IntMatrix.from_rows(
                    [
                        [minor(d1, 3, 3) + m_coef * minor(d1, 1, 3), minor(d1, 3, 2) + m_coef * minor(d1, 1, 2)],
                        [minor(d1, 2, 3) + n_coef * minor(d1, 1, 3), minor(d1, 2, 2) + n_coef * minor(d1, 1, 2)],
                    ]
                )
                assert got == expect, (d1.entries, got.entries, expect.entries)


class TestClosedForm:
    def test_heisenberg_golden(self, heis1):
        rep = gr_nilpotent_closed(validate_endo(heis1, image_elements(heis1, heis_endo(heis1, ((2, 1), (1, 1))))))
        assert abs(rep.value - GOLDEN) <= 1e-9
        assert IntMatrix.from_rows(rep.certificate["center_matrix"]) == IntMatrix.from_rows([[1]])
        assert abs(rep.certificate["cross_check"] - rep.value) <= 1e-9

    def test_trivial_endo_zero(self, z2):
        endo = Endomorphism.from_strings(z2.gens, {"e1": "", "e2": ""})
        rep = gr_nilpotent_closed(validate_endo(z2, image_elements(z2, endo)))
        assert rep.value == 0.0

    def test_unipotent_case(self, nil2_commuting):
        # lower-triangular unipotent images on the commuting-t2-t3 group
        endo = nil2_endo(nil2_commuting, ((1, 1, 0), (0, 1, 1), (0, 0, 1)))
        assert check_homomorphism(nil2_commuting, image_elements(nil2_commuting, endo)).valid
        rep = gr_nilpotent_closed(validate_endo(nil2_commuting, image_elements(nil2_commuting, endo)))
        assert abs(rep.value - 1.0) <= 1e-9
        center = IntMatrix.from_rows(rep.certificate["center_matrix"])
        assert abs(spectral_radius(center).value - 1.0) <= 1e-9

    def test_sol_machine_rejected(self, sol_fib):
        with pytest.raises(ValidationError):
            gr_nilpotent_closed(validate_endo(sol_fib, image_elements(sol_fib, Endomorphism.identity(sol_fib.gens))))

    def test_inner_automorphism_invariance(self, heis1, nil2_ex3):
        rng = random.Random(37)
        endo = heis_endo(heis1, ((2, 1), (1, 1)), p=1, q=0)
        base = gr_nilpotent_closed(validate_endo(heis1, image_elements(heis1, endo)))
        for _ in range(5):
            letters = tuple(
                (rng.randrange(3), rng.choice([-2, -1, 1, 2])) for _ in range(3)
            )
            w = reduce_word(Word(letters))
            conj = Endomorphism(
                heis1.gens,
                tuple(reduce_word(w * img * w.inverse()) for img in endo.images),
            )
            valid = validate_endo(heis1, image_elements(heis1, conj))
            rep = gr_nilpotent_closed(valid)
            assert abelianization_matrix(valid) == IntMatrix.from_rows(base.certificate["ab_matrix"])
            assert abs(rep.value - base.value) <= 1e-9


class TestCenterVsAbelianizationBound:
    def test_random_valid_endos(self, nil2_ex3):
        rng = random.Random(43)
        for endo in random_valid_nil2_endos(nil2_ex3, rng, 15):
            rep = gr_nilpotent_closed(validate_endo(nil2_ex3, image_elements(nil2_ex3, endo)))
            sp1 = rep.certificate["sp_ab"]
            sp2 = rep.certificate["sp_center"]
            assert sp2 <= sp1**2 + 1e-9


class TestBlocks:
    def test_golden_with_unit_center(self):
        rep = gr_from_blocks(
            [(1, IntMatrix.from_rows([[2, 1], [1, 1]])), (2, IntMatrix.from_rows([[1]]))]
        )
        assert abs(rep.value - GOLDEN) <= 1e-9
        assert rep.certificate["argmax_weight"] == 1

    def test_weight_two_root(self):
        rep = gr_from_blocks([(1, IntMatrix.from_rows([[2]])), (2, IntMatrix.from_rows([[3]]))])
        assert abs(rep.value - 2.0) <= 1e-9

    def test_center_dominates(self):
        rep = gr_from_blocks([(1, IntMatrix.from_rows([[0]])), (2, IntMatrix.from_rows([[4]]))])
        assert abs(rep.value - 2.0) <= 1e-9
        assert rep.certificate["argmax_weight"] == 2

    def test_spec_unipotent_blocks(self):
        # upper-triangular unipotent 3x3 with its 2x2 minors block
        d1 = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        d2 = IntMatrix.from_rows([[1, 1], [0, 1]])
        rep = gr_from_blocks([(1, d1), (2, d2)])
        assert abs(rep.value - 1.0) <= 1e-9

    def test_power_compatibility(self):
        rng = random.Random(47)
        for _ in range(10):
            d1 = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            d2 = IntMatrix.from_rows([[rng.randint(-3, 3)]])
            v1 = gr_from_blocks([(1, d1), (2, d2)]).value
            v2 = gr_from_blocks([(1, mat_pow(d1, 2)), (2, mat_pow(d2, 2))]).value
            assert abs(v2 - v1**2) <= 1e-6 * max(1.0, v1**2)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            gr_from_blocks([(2, IntMatrix.identity(2))])
        with pytest.raises(ValidationError):
            gr_from_blocks([(1, IntMatrix.identity(2)), (1, IntMatrix.identity(2))])
        with pytest.raises(ValidationError):
            gr_from_blocks([])
