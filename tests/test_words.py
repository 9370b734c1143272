import random
from unittest.mock import ANY

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endogrowth.ball import L_k_table
from endogrowth.errors import ResourceCapExceeded, ValidationError
from endogrowth.families import HeisenbergMachine, KleinMachine, TorsionProductMachine
from endogrowth.reports import closed_growth_rate
from endogrowth.words import (
    Endomorphism,
    GenSet,
    ValidEndo,
    Word,
    apply_on_element,
    check_homomorphism,
    endo_power_image,
    evaluate,
    eventually_trivial,
    image_elements,
    parse_word,
    reduce_word,
    validate_endo,
    word_str,
)

from conftest import ALL_MACHINES

AB = GenSet(("a", "b"))


class TestReduce:
    def test_cancellation(self):
        assert reduce_word(parse_word_raw("a a^-1")) == Word()

    def test_merge_across_cancellation(self):
        assert reduce_word(parse_word_raw("a b b^-1 a")) == Word(((0, 2),))

    def test_partial_cancel(self):
        assert reduce_word(parse_word_raw("a^2 a^-3")) == Word(((0, -1),))


def parse_word_raw(text):
    return Word(tuple((AB.index(n.partition("^")[0]), int(n.partition("^")[2] or 1)) for n in text.split()))


class TestParsing:
    def test_roundtrip(self):
        w = parse_word("a^2 b^-1 a", AB)
        assert word_str(w, AB) == "a^2 b^-1 a"

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValidationError):
            parse_word("a^0", AB)

    def test_unknown_generator(self):
        with pytest.raises(ValidationError):
            parse_word("c", AB)

    def test_equal_values_compare_and_hash_equal(self):
        w = parse_word("a^2 b^-1 a", AB)
        rebuilt = parse_word(word_str(w, AB), AB)
        assert rebuilt is not w and rebuilt == w and hash(rebuilt) == hash(w)
        assert w != parse_word("a^2 b a", AB) and w != w.letters
        gens = GenSet(tuple(list(AB.names)))
        assert gens is not AB and gens == AB and hash(gens) == hash(AB)
        assert AB != GenSet(("b", "a")) and AB != AB.names
        endo = Endomorphism.from_strings(AB, {"a": "a b", "b": "b"})
        assert endo == Endomorphism(GenSet(("a", "b")), (parse_word("a b", AB), Word(((1, 1),))))
        assert endo != Endomorphism.identity(AB)
        assert repr(AB) == "GenSet(names=('a', 'b'))"
        assert repr(w) == "Word(letters=((0, 2), (1, -1), (0, 1)))"
        # a foreign operand's __eq__ decides, as with a dataclass
        assert w == ANY and AB == ANY and endo == ANY

    def test_valid_endos_compare_without_their_cache(self):
        machine = KleinMachine()
        images = ((1, 0), (0, 1))
        valid = ValidEndo(machine, images)
        valid.derived(eventually_trivial)
        assert valid == ValidEndo(KleinMachine(), images)
        assert hash(valid) == hash(ValidEndo(KleinMachine(), images))
        assert valid != ValidEndo(machine, ((-1, 0), (0, 1)))
        assert repr(valid) == "ValidEndo(machine=KleinMachine(), images=((1, 0), (0, 1)))"

    def test_bad_names(self):
        with pytest.raises(ValidationError):
            GenSet(("a", "a"))
        with pytest.raises(ValidationError):
            GenSet(("a b",))


class TestEvaluate:
    def test_heisenberg_commutator(self, heis1):
        w = parse_word("a1^-1 a2^-1 a1 a2", heis1.gens)
        assert evaluate(heis1, w) == (0, 0, -1)

    def test_free_abelian(self, z2):
        assert evaluate(z2, parse_word("e1 e2 e1", z2.gens)) == (2, 1)

    def test_klein_flip(self, klein):
        assert evaluate(klein, parse_word("y x y^-1", klein.gens)) == (-1, 0)

    def test_big_exponents(self, heis1):
        w = parse_word("a1^100000000000 a1^-99999999999", heis1.gens)
        assert evaluate(heis1, w) == (1, 0, 0)


class TestEndoPowerImage:
    def test_klein_square_of_y(self, klein):
        # phi(y)=y^r x^l with r odd kills the x part of phi(y^2)
        phi = Endomorphism.from_strings(klein.gens, {"x": "x^2", "y": "y^3 x^5"})
        w = phi.image_of_word(parse_word("y^2", klein.gens))
        assert evaluate(klein, w) == (0, 6)
        phi_even = Endomorphism.from_strings(klein.gens, {"x": "", "y": "y^2 x^5"})
        w2 = phi_even.image_of_word(parse_word("y^2", klein.gens))
        assert evaluate(klein, w2) == (10, 4)

    def test_trivial_endo(self, z2):
        phi = Endomorphism.from_strings(z2.gens, {"e1": "", "e2": ""})
        assert endo_power_image(phi, "e1", 1) == Word()

    def test_linear_powers(self, z2):
        phi = Endomorphism.from_strings(z2.gens, {"e1": "e1^2 e2", "e2": "e1 e2"})
        for k in range(5):
            w = endo_power_image(phi, "e1", k)
            vec = evaluate(z2, w)
            expect = [(1, 0), (2, 1), (5, 3), (13, 8), (34, 21)][k]
            assert vec == expect

    def test_additivity_of_powers(self, heis1):
        phi = Endomorphism.from_strings(heis1.gens, {"a1": "a1 a2", "a2": "a2", "a3": "a3"})
        for j, k in [(1, 2), (2, 2), (0, 3)]:
            w1 = endo_power_image(phi, "a1", j + k)
            w2 = (phi**k).image_of_word(endo_power_image(phi, "a1", j))
            assert evaluate(heis1, w1) == evaluate(heis1, w2)


class TestCheckHomomorphism:
    def test_identity_valid_everywhere(self, any_machine):
        identity = image_elements(any_machine, Endomorphism.identity(any_machine.gens))
        assert check_homomorphism(any_machine, identity).valid

    def test_sol_commuting_pair(self, sol_fib):
        phi = Endomorphism.from_strings(
            sol_fib.gens, {"a1": "a1 a2^2", "a2": "a1^2 a2^-1", "tau": "tau"}
        )
        assert check_homomorphism(sol_fib, image_elements(sol_fib, phi)).valid

    def test_klein_even_r_nonzero_q_rejected(self, klein):
        phi = Endomorphism.from_strings(klein.gens, {"x": "x^2", "y": "y^2 x"})
        verdict = check_homomorphism(klein, image_elements(klein, phi))
        assert not verdict.valid
        assert verdict.violated_relator is not None
        assert verdict.witness != klein.identity


class TestEventuallyTrivial:
    def test_trivial_is_yes_one(self, z2):
        phi = Endomorphism.from_strings(z2.gens, {"e1": "", "e2": ""})
        assert eventually_trivial(validate_endo(z2, image_elements(z2, phi))) == 1

    def test_torsion_survivor_is_no(self, counter_machine):
        phi = Endomorphism.from_strings(counter_machine.gens, {"alpha": "", "beta": "beta"})
        valid = validate_endo(counter_machine, image_elements(counter_machine, phi))
        assert eventually_trivial(valid) is None

    def test_nilpotent_heisenberg_endo(self, heis1):
        phi = Endomorphism.from_strings(heis1.gens, {"a1": "a2", "a2": "", "a3": ""})
        assert eventually_trivial(validate_endo(heis1, image_elements(heis1, phi))) == 2

    def test_yes_implies_zero_lengths(self, heis1):
        phi = Endomorphism.from_strings(heis1.gens, {"a1": "a2", "a2": "", "a3": ""})
        valid = validate_endo(heis1, image_elements(heis1, phi))
        power = eventually_trivial(valid)
        table = L_k_table(valid, kmax=6, radius=3)
        for k, length in zip(table.ks, table.lengths):
            if k >= power:
                assert length == 0

    # each power equals its machine's bound, so a lower bound fails the test
    def test_torsion_chain_meets_the_bound(self):
        # t1 -> t1^2 on Z/1024 halves the image 10 times
        machine = TorsionProductMachine(0, (1024,))
        phi = Endomorphism.from_strings(machine.gens, {"t1": "t1^2"})
        valid = validate_endo(machine, image_elements(machine, phi))
        assert eventually_trivial(valid) == machine.triviality_power == 10

    def test_rank_term_of_the_bound_is_needed(self):
        # a1 -> t1 -> t1^2 -> t1^4 = 1: one step into the torsion, two in it
        machine = TorsionProductMachine(1, (4,))
        phi = Endomorphism.from_strings(machine.gens, {"a1": "t1", "t1": "t1^2"})
        valid = validate_endo(machine, image_elements(machine, phi))
        assert eventually_trivial(valid) == machine.triviality_power == 3


TORSION_GROUPS = [
    TorsionProductMachine(0, (8,)),
    TorsionProductMachine(0, (2, 4)),
    TorsionProductMachine(0, (256,)),
    TorsionProductMachine(1, (16,)),
    TorsionProductMachine(2, (2,)),
]


def _random_word(rng, n):
    """Up to 2 letters over n generators, empty 2 times in 5."""
    length = rng.choice([0, 0, 1, 1, 2])
    return Word(tuple((rng.randrange(n), rng.choice([-2, -1, 1, 2])) for _ in range(length)))


def _orbit_power(machine, images, cap=12):
    """The least n <= cap with phi^n trivial, None when the images of the
    powers of phi repeat first, "undecided" when neither happens."""
    state, seen = images, {images}
    for n in range(1, cap + 1):
        if all(x == machine.identity for x in state):
            return n
        state = tuple(apply_on_element(machine, images, x) for x in state)
        if state in seen:  # periodic from here on, never trivial
            return None
        seen.add(state)
    return "undecided"


@pytest.mark.parametrize(
    "machine", ALL_MACHINES + TORSION_GROUPS, ids=lambda m: f"{m.family}:{','.join(m.gens.names)}"
)
def test_eventually_trivial_matches_orbit_iteration(machine):
    # the orbit runs past every bound here, so an undecided orbit never dies
    assert machine.triviality_power <= 12
    rng = random.Random(repr(machine))
    n = len(machine.gens)
    decided = 0
    for _ in range(400):
        words = [_random_word(rng, n) for _ in range(n)]
        images = image_elements(machine, Endomorphism(machine.gens, tuple(words)))
        if not check_homomorphism(machine, images).valid:
            continue
        try:
            expected = _orbit_power(machine, images)
        except ResourceCapExceeded:
            expected = "undecided"
        valid = ValidEndo(machine, images)
        power = eventually_trivial(valid)
        if expected == "undecided":
            assert power is None, words
        else:
            decided += 1
            assert power == expected, words
        if machine.family == "abelian_with_torsion":
            cert = closed_growth_rate(valid).certificate
            assert (cert["eventually_trivial"], cert["power"]) == ("no" if power is None else "yes", power)
    assert decided >= 20


words_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-3, 3).filter(lambda e: e != 0)),
    max_size=10,
).map(lambda ls: Word(tuple(ls)))


@settings(max_examples=60)
@given(words_strategy)
def test_reduce_preserves_element(w):
    machine = HeisenbergMachine(1)
    assert evaluate(machine, w) == evaluate(machine, reduce_word(w))


def test_reduce_preserves_element_every_family(any_machine):
    import random

    rng = random.Random(7)
    n = len(any_machine.gens)
    for _ in range(30):
        letters = tuple(
            (rng.randrange(n), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(0, 8))
        )
        w = Word(letters)
        assert evaluate(any_machine, w) == evaluate(any_machine, reduce_word(w))


@settings(max_examples=60)
@given(words_strategy, words_strategy)
def test_reduce_respects_concatenation(u, v):
    machine = HeisenbergMachine(1)
    lhs = evaluate(machine, reduce_word(u) * reduce_word(v))
    rhs = evaluate(machine, u * v)
    assert lhs == rhs


@given(st.integers(-50, 50))
def test_elem_pow_matches_iteration(n):
    machine = KleinMachine()
    x = (1, 1)
    expected = machine.identity
    step = x if n >= 0 else machine.inv(x)
    for _ in range(abs(n)):
        expected = machine.mul(expected, step)
    assert machine.pow(x, n) == expected


def test_compose_matches_substitution(z2):
    phi = Endomorphism.from_strings(z2.gens, {"e1": "e1 e2", "e2": "e2"})
    psi = Endomorphism.from_strings(z2.gens, {"e1": "e1^2", "e2": "e1 e2^3"})
    comp = phi.compose(psi)
    for g in z2.gens.names:
        w = Word(((z2.gens.index(g), 1),))
        assert evaluate(z2, comp.image_of_word(w)) == evaluate(z2, phi.image_of_word(psi.image_of_word(w)))
