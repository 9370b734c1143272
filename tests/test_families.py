import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endogrowth.errors import ResourceCapExceeded, ValidationError
from endogrowth.exactlin import IntMatrix, mat_pow, spectral_radius
from endogrowth.ball import enumerate_ball, word_length
from endogrowth.families import (
    BSMachine,
    FreeAbelianMachine,
    HeisenbergMachine,
    KleinMachine,
    Machine,
    Nil2Machine,
    SolMachine,
    TorsionProductMachine,
    _central_reach,
    _nil_lower,
    klein_restricted_matrix,
    machine_from_params,
)
from endogrowth.words import (
    Endomorphism,
    Word,
    check_homomorphism,
    evaluate,
    image_elements,
    parse_word,
    validate_endo,
    word_str,
)

from conftest import ALL_MACHINES, FIXTURE_DIR, run_child, step_one


def random_element(machine, rng, steps=10):
    x = machine.identity
    for _ in range(steps):
        i = rng.randrange(len(machine.gens))
        x = machine.mul(x, machine.pow(machine.gen_elem(i), rng.choice([-2, -1, 1, 2])))
    return x


class TestMultiplicationExamples:
    def test_heis_commutator_power(self, heis1):
        k3 = HeisenbergMachine(3)
        w = parse_word("a1^-1 a2^-1 a1 a2", k3.gens)
        assert evaluate(k3, w) == (0, 0, -3)

    def test_heis_identity_neutral(self, heis1):
        g = (4, -2, 7)
        assert heis1.mul(g, heis1.identity) == g

    def test_heis_square(self, heis1):
        assert heis1.mul((1, 1, 0), (1, 1, 0)) == (2, 2, 1)

    def test_sol_conjugation(self, sol_fib):
        assert evaluate(sol_fib, parse_word("tau a1 tau^-1", sol_fib.gens)) == (2, 1, 0)

    def test_sol_tau_times_torus(self, sol_fib):
        assert sol_fib.mul(sol_fib.gen_elem(2), sol_fib.gen_elem(1)) == (1, 1, 1)

    def test_klein_relation(self, klein):
        assert evaluate(klein, parse_word("y x y^-1", klein.gens)) == (-1, 0)
        assert klein.mul((2, 0), (3, 0)) == (5, 0)
        assert klein.mul((0, 1), (0, 1)) == (0, 2)

    def test_bs_conjugation(self, bs2):
        assert evaluate(bs2, parse_word("a^-1 b a", bs2.gens)) == (2, 0, 0)
        assert bs2.mul((1, 0, 0), (1, 0, 0)) == (2, 0, 0)
        assert evaluate(bs2, parse_word("a b a^-1", bs2.gens)) == (1, 1, 0)

    def test_bs_consistency_of_halving(self, bs2):
        # b equals a^-1 (a b a^-1) a
        half = evaluate(bs2, parse_word("a b a^-1", bs2.gens))
        back = bs2.mul(bs2.mul(bs2.inv(bs2.gen_elem(0)), half), bs2.gen_elem(0))
        assert back == bs2.gen_elem(1)

    def test_nil2_bracket(self, nil2_ex3):
        w = parse_word("t2^-1 t3^-1 t2 t3", nil2_ex3.gens)
        assert evaluate(nil2_ex3, w) == (0, 0, 0, 1, 2)

    def test_nil2_identity_neutral(self, nil2_ex3):
        g = (1, -2, 3, 4, -5)
        assert nil2_ex3.mul(g, nil2_ex3.identity) == g


class TestGroupLaws:
    def test_associativity_and_inverses(self, any_machine):
        rng = random.Random(hash(any_machine.family) & 0xFFFF)
        for _ in range(40):
            a = random_element(any_machine, rng, 6)
            b = random_element(any_machine, rng, 6)
            c = random_element(any_machine, rng, 6)
            assert any_machine.mul(any_machine.mul(a, b), c) == any_machine.mul(
                a, any_machine.mul(b, c)
            )
            assert any_machine.mul(a, any_machine.inv(a)) == any_machine.identity
            assert any_machine.mul(any_machine.inv(a), a) == any_machine.identity

    def test_relators_vanish(self, any_machine):
        for rel in any_machine.relators():
            assert evaluate(any_machine, rel) == any_machine.identity

    def test_elements_are_flat_int_tuples(self, any_machine):
        width = len(any_machine.identity)
        for x in enumerate_ball(any_machine, 3).dist:
            assert type(x) is tuple and len(x) == width and all(type(c) is int for c in x), x


class TestNil2HeisenbergAgreement:
    def test_matching_normal_forms(self):
        heis = HeisenbergMachine(1)
        nil = Nil2Machine(2, ("c",), (), (((2, 1), (1,)),))
        rng = random.Random(17)
        for _ in range(150):
            a = (rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            b = (rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            ha = heis.mul(a, b)
            # the flat nilpotent2 form of a1^m a2^n c^l is (m, n, l) too
            assert ha == nil.mul(a, b)


class TestBSCanonicalization:
    def test_unique_storage(self, bs2):
        rng = random.Random(23)
        for _ in range(300):
            x = random_element(bs2, rng, 8)
            num, e, t = x
            if e > 0:
                assert num % bs2.n != 0
            assert e >= 0
            if num == 0:
                assert e == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            BSMachine(1)

    def test_power_past_the_size_budget_is_a_resource_cap(self, bs2):
        # a^-N b = b^(2^N) a^-N and the inverse of b a^N need 2^N itself;
        # N = 5e6 is past the 2^22-bit budget and still cheap to compute
        with pytest.raises(ResourceCapExceeded):
            bs2.mul((0, 0, -5 * 10**6), (1, 0, 0))
        with pytest.raises(ResourceCapExceeded):
            bs2.inv((1, 0, 5 * 10**6))
        assert bs2.mul((0, 0, -1000), (1, 0, 0)) == (2**1000, 0, -1000)


class TestBSSteps:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_steps_equal_mul_on_every_branch(self, n):
        # each closed-form b step branches on t against e; every case is hit,
        # t = e > 0 also with n | num + s, where the step must cancel n
        machine = BSMachine(n)
        steps = machine.steps()
        moves = [y for i in range(2) for y in (machine.gen_elem(i), machine.inv(machine.gen_elem(i)))]
        rng = random.Random(100 + n)
        branches = set()
        for _ in range(500):
            x = random_element(machine, rng, 8)
            num, e, t = x
            for s in (1, -1):
                if t == e > 0:
                    branches.add("t = e > 0, n | num + s" if (num + s) % n == 0 else "t = e > 0")
                else:
                    branches.add("t > e" if t > e else "t < e" if t < e else "t = e = 0")
            for step, y in zip(steps, moves):
                assert step_one(step, x) == machine.mul(x, y)
        assert branches >= {"t > e", "t < e", "t = e = 0", "t = e > 0, n | num + s"}

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_steps_keep_the_power_budget(self, n):
        # a b step from a^-N or from a-height N past the budget needs n^N,
        # like mul; from the pure power a^N it needs none
        machine = BSMachine(n)
        steps = machine.steps()
        for x in ((0, 0, -(10**9)), (1, 3, 10**9)):
            for step, y in ((steps[2], (1, 0, 0)), (steps[3], (-1, 0, 0))):
                with pytest.raises(ResourceCapExceeded):
                    step_one(step, x)
                with pytest.raises(ResourceCapExceeded):
                    machine.mul(x, y)
        x = (0, 0, 10**9)
        assert step_one(steps[2], x) == machine.mul(x, (1, 0, 0)) == (1, 10**9, 10**9)
        assert step_one(steps[3], x) == machine.mul(x, (-1, 0, 0)) == (-1, 10**9, 10**9)


class TestAbelianMachines:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_free_abelian_is_the_product_without_torsion(self, rank):
        free, product = FreeAbelianMachine(rank), TorsionProductMachine(rank, ())
        assert free.identity == product.identity
        free_steps, product_steps = free.steps(), product.steps()
        assert len(free_steps) == len(product_steps) == 2 * rank
        rng = random.Random(rank)
        inner = set()
        for _ in range(300):
            # about half the coordinates are 0, so single-coordinate elements occur
            a, b = (tuple(rng.choice((0, rng.randint(-9, 9), 2**70)) for _ in range(rank)) for _ in range(2))
            n = rng.randint(-6, 6)
            assert free.mul(a, b) == product.mul(a, b)
            assert free.inv(a) == product.inv(a)
            assert free.pow(a, n) == product.pow(a, n)
            assert [step_one(step, a) for step in free_steps] == [step_one(step, a) for step in product_steps]
            assert free.length_upper(a) == product.length_upper(a)
            assert free.decompose(a) == product.decompose(a)
            for i in range(rank):
                assert free.cyclic_inner_length(i, a) == product.cyclic_inner_length(i, a)
                inner.add(free.cyclic_inner_length(i, a) is None)
        assert inner == ({False} if rank == 1 else {True, False})  # None only with two nonzero coordinates

    def test_torsion_step_wraps_around(self):
        machine = TorsionProductMachine(0, (5,))
        assert step_one(machine.steps()[1], machine.identity) == (4,)  # t1^-1
        assert word_str(machine.decompose((4,)), machine.gens) == "t1^-1"


# Runs in a child capped at 256 MiB of address space.
BS_CHILD = """
from endogrowth.cli import run
sys.exit(run(["wordlen", "--group", sys.argv[2], "--word", sys.argv[3], "--radius", "3"]))
"""


def test_bs_huge_b_power_exits_3():
    # the normal form of a^-N b a^N is b^(2^N): once a MemoryError traceback
    done = run_child(BS_CHILD, str(FIXTURE_DIR / "bs.group"), "a^-10000000000 b a^10000000000", limit_mb=256)
    assert done.returncode == 3, done.stderr
    assert "budget" in done.stderr


class TestKleinReduction:
    def test_restricted_matrix_spectrum(self, klein):
        rng = random.Random(31)
        count = 0
        while count < 30:
            q = rng.randint(-6, 6)
            r = rng.randint(-6, 6)
            l = rng.randint(-4, 4)
            if r % 2 == 0 and q != 0:
                continue
            images = {"x": f"x^{q}" if q else "", "y": (f"y^{r} " if r else "") + (f"x^{l}" if l else "")}
            phi = Endomorphism.from_strings(klein.gens, {k: v.strip() for k, v in images.items()})
            if not check_homomorphism(klein, image_elements(klein, phi)).valid:
                continue
            mat = klein_restricted_matrix(validate_endo(klein, image_elements(klein, phi)))
            sp = spectral_radius(mat).value
            assert abs(sp - max(abs(q), abs(r))) <= 1e-9
            count += 1

    def test_the_relator_keeps_the_image_of_x_in_x(self, klein):
        # klein_restricted_matrix checks nothing: every assignment with small
        # entries that the relator accepts maps x to a power of x
        moved = 0
        for ex, ey in itertools.product(itertools.product(range(-2, 3), repeat=2), repeat=2):
            if check_homomorphism(klein, (ex, ey)).valid:
                assert ex[1] == 0, (ex, ey)
                assert klein.mul(ey, ey)[1] == 2 * ey[1]
                moved += ex != klein.identity
        assert moved > 0

    def test_index2_subgroup_invariant(self, klein):
        # images of x and y^2 land in <x, y^2> = {(a, b): b even}
        phi = Endomorphism.from_strings(klein.gens, {"x": "x^3", "y": "y^5 x"})
        ex = evaluate(klein, phi.images[0])
        ey2 = evaluate(klein, phi.image_of_word(parse_word("y^2", klein.gens)))
        assert ex[1] % 2 == 0 and ey2[1] % 2 == 0


class TestLengthFunctionals:
    def test_free_abelian_exact(self, z2):
        assert z2.length_upper((3, -2)) == 5

    def test_klein_exact_small(self, klein):
        assert klein.length_upper((2, 3)) == 5

    def test_heis_central_power(self, heis1):
        # a3^25 via the commutator of 5th powers
        assert heis1.length_upper((0, 0, 25)) == 20
        assert heis1.length_upper((0, 0, 1)) == 1

    def test_words_are_honest(self, any_machine):
        rng = random.Random(41)
        for _ in range(60):
            x = random_element(any_machine, rng, 8)
            w = any_machine.length_upper_word(x)
            assert evaluate(any_machine, w) == x
            assert w.length() <= any_machine.length_upper(x)
            assert evaluate(any_machine, any_machine.decompose(x)) == x


NIL2_WIDE = Nil2Machine(3, ("s12", "s13"), (("s12", (1, 2)),), (((3, 2), (-3, 5)), ((3, 1), (0, 4))))
LOWER_MACHINES = [
    HeisenbergMachine(1),
    HeisenbergMachine(3),
    HeisenbergMachine(1, include_center_gen=False),
    Nil2Machine(3, ("s12", "s13"), (("s12", (1, 2)), ("s13", (1, 3))), (((3, 2), (-1, -2)),)),
    NIL2_WIDE,
    BSMachine(2),
    BSMachine(3),
    BSMachine(4),
]


@pytest.mark.parametrize("machine", LOWER_MACHINES, ids=lambda m: f"{m.family}:{len(m.gens)}")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_length_lower_bounds_every_word(machine, data):
    """length_lower(x) <= |w| for every word w spelling x, up to length 60."""
    gens = len(machine.gens)
    letters = data.draw(st.lists(st.tuples(st.integers(0, gens - 1), st.sampled_from([-1, 1])), max_size=60))
    w = Word(tuple(letters))
    assert machine.length_lower(evaluate(machine, w)) <= w.length()


class TestLengthLower:
    def test_central_powers(self, heis1):
        # |a3^l| ~ 2 sqrt(l) in the Heisenberg group.  The letter-by-letter
        # bound grows like sqrt(2 l): L(L-1)/2 + L is 3 at L = 2, 6 at L = 3
        assert heis1.length_lower((0, 0, 1)) == 1
        assert _central_reach(1, 4) == 3
        assert heis1.length_lower((3, -4, 0)) == 7
        big = _central_reach(1, 10**40)
        assert big * (big - 1) // 2 + big >= 10**40 > (big - 1) * (big - 2) // 2 + big - 1
        # the area bound is 2 sqrt(4 l / k) once the area pays for all of l:
        # a3^4 takes 4 letters, not 3
        assert heis1.length_lower((0, 0, 4)) == 4 == word_length(heis1, (0, 0, 4), 4)
        assert heis1.length_lower((0, 0, 10**40)) == 4 * 10**20

    def test_area_bound_charges_the_centre(self, heis1):
        # P = 2u with u = 11 is the least closed path whose area covers l = 29
        # with no a3 letter: p = 2u - 9 = 13, where the letter bound gives 9
        elem = evaluate(heis1, parse_word("a1^-6 a2^3 a3^29", heis1.gens))
        assert _nil_lower(1, 9, 29) == 9
        assert heis1.length_lower(elem) == 13 <= word_length(heis1, elem, 19)

    @pytest.mark.parametrize("machine, radius", [
        (HeisenbergMachine(1), 10),
        (HeisenbergMachine(2), 10),
        (HeisenbergMachine(3), 9),
        (HeisenbergMachine(1, include_center_gen=False), 12),
    ], ids=lambda x: str(x) if isinstance(x, int) else f"k{x.k}:{len(x.gens)}")
    def test_heisenberg_bound_against_the_ball(self, machine, radius):
        # below every BFS distance, and above the letter bound on a share of them
        dist = enumerate_ball(machine, radius).dist
        assert all(machine.length_lower(x) <= d for x, d in dist.items())
        stronger = sum(machine.length_lower(x) > _nil_lower(machine.k, abs(x[0]) + abs(x[1]), abs(x[2])) for x in dist)
        assert stronger > len(dist) // 5

    def test_nil2_uses_the_largest_gamma_entry(self):
        # G = 5: 5 L(L-1)/2 + L is 970 at L = 20 and 1071 at L = 21
        assert NIL2_WIDE.length_lower((0, 0, 0, 0, 1000)) == 21
        assert NIL2_WIDE.length_lower((2, -1, 0, 0, 0)) == 3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bs_bound_against_the_ball(self, n):
        # below every BFS distance in B(10), and never below the bound that
        # ignored the size of the b-part
        machine = BSMachine(n)
        for (num, e, t), d in enumerate_ball(machine, 10).dist.items():
            lower = machine.length_lower((num, e, t))
            assert e + abs(e - t) + (num != 0) <= lower <= d

    def test_bs_b_powers(self, bs2):
        # |b^(2^k)| = 2k for k >= 1 (a^-(k-1) b^2 a^(k-1)), and the bound is exact
        assert [bs2.length_lower((2**k, 0, 0)) for k in range(8)] == [1, 2, 4, 6, 8, 10, 12, 14]
        assert bs2.length_lower((0, 0, -7)) == 7
        assert bs2.length_lower((-(2**1000), 0, 0)) == 2000
        # b^-40 = a^-3 b^-5 a^3: the minimum is at H = 3, and it is exact
        assert bs2.length_lower((-40, 0, 0)) == 11 == word_length(bs2, (-40, 0, 0), 11)


# Runs in a child capped at 256 MiB of address space and prints the seconds
# one length_lower call took.
BS_LOWER_CHILD = """
import time
from endogrowth.families import BSMachine
start = time.perf_counter()
print(BSMachine(2).length_lower((1, 10**10, 0)))
print(time.perf_counter() - start)
"""


def test_bs_lower_on_a_huge_denominator_is_cheap():
    # a^N b a^-N with N = 10^10: bit lengths show n^e > |num| without n^e
    done = run_child(BS_LOWER_CHILD, limit_mb=256)
    assert done.returncode == 0, done.stderr
    lower, seconds = done.stdout.split()
    assert int(lower) == 2 * 10**10 + 1 and float(seconds) < 0.5


class TestBigIntegerLengths:
    # coordinates of iterate images grow like gr^k, so 2^70 is an ordinary size
    BIG = 2**70
    ELEMENTS = {
        "free_abelian": (BIG, -2 * BIG, 5),
        "abelian_with_torsion": (BIG, 1),
        "heisenberg": (BIG, -BIG, BIG * BIG + 7),
        "nilpotent2": (BIG, 1, -BIG, 4 * BIG, 3),
        "sol_lattice": (BIG, -BIG, 3),
        "klein_bottle": (BIG, -BIG),
        "baumslag_solitar": (BIG + 1, 0, BIG),
    }

    @pytest.mark.parametrize("family", sorted(ELEMENTS))
    def test_length_upper_counts_big_words(self, family):
        machine = {
            "free_abelian": FreeAbelianMachine(3),
            "abelian_with_torsion": TorsionProductMachine(1, (2,)),
            "heisenberg": HeisenbergMachine(1),
            "nilpotent2": Nil2Machine(
                3, ("s12", "s13"), (("s12", (1, 2)), ("s13", (1, 3))), (((3, 2), (-1, -2)),)
            ),
            "sol_lattice": SolMachine(IntMatrix.from_rows([[2, 1], [1, 1]])),
            "klein_bottle": KleinMachine(),
            "baumslag_solitar": BSMachine(2),
        }[family]
        x = self.ELEMENTS[family]
        w = machine.length_upper_word(x)
        assert evaluate(machine, w) == x
        assert machine.length_upper(x) == w.length() >= self.BIG

    @pytest.mark.parametrize("column", [0, 1])
    def test_sol_length_upper_beyond_float_range(self, column):
        # the columns of A^k line up with the expanding direction, where the
        # shift certificate cancels; 2^1100 is past the float range
        a = IntMatrix.from_rows([[2, 1], [1, 1]])
        sol = SolMachine(a)
        p = mat_pow(a, 800).entries
        for x in ((2**1100, -(2**1100), 3), (p[0][column], p[1][column], -5)):
            assert max(abs(c) for c in x[:2]) >= 2**1100
            w = sol.length_upper_word(x)
            assert evaluate(sol, w) == x
            assert sol.length_upper(x) == w.length()


class TestPow:
    def test_matches_repeated_mul(self, any_machine):
        for x in enumerate_ball(any_machine, 3).dist:
            inverse = any_machine.inv(x)
            for n in range(-12, 13):
                expected = any_machine.identity
                for _ in range(abs(n)):
                    expected = any_machine.mul(expected, x if n > 0 else inverse)
                assert any_machine.pow(x, n) == expected, (x, n)

    @pytest.mark.parametrize(
        "machine",
        # Sol powers have a size budget; TestSolHolonomy checks that closed form
        [m for m in ALL_MACHINES if type(m).pow is not Machine.pow and m.family != "sol_lattice"],
        ids=lambda m: f"{m.family}:{','.join(m.gens.names)}",
    )
    def test_closed_form_matches_binary_powering(self, machine):
        n = 2**200 + 12345
        for x in list(enumerate_ball(machine, 2).dist)[:25]:
            for e in (n, -n, n + 1):
                assert machine.pow(x, e) == Machine.pow(machine, x, e), (x, e)


class TestSolHolonomy:
    def test_deep_powers_without_recursion(self):
        a = IntMatrix.from_rows([[2, 1], [1, 1]])
        sol = SolMachine(a)
        assert sol.holonomy_power(3000) == mat_pow(a, 3000)
        assert sol.holonomy_power(-3000) @ sol.holonomy_power(3000) == IntMatrix.identity(2)

    def test_cached_and_computed_powers_agree(self):
        a = IntMatrix.from_rows([[3, 2], [1, 1]])
        sol = SolMachine(a)
        inv = sol.holonomy_power(-1)
        for t in range(-70, 71):
            assert sol.holonomy_power(t) == (mat_pow(a, t) if t >= 0 else mat_pow(inv, -t)), t

    def test_closed_form_pow_matches_binary_powering(self):
        sol = SolMachine(IntMatrix.from_rows([[2, 1], [1, 1]]))
        for x in list(enumerate_ball(sol, 2).dist):
            for n in (0, 1, 2, 3, 1000 + 7, -(1000 + 7), 4096):
                assert sol.pow(x, n) == Machine.pow(sol, x, n), (x, n)

    def test_tau_exponent_bounds_the_length(self):
        sol = SolMachine(IntMatrix.from_rows([[2, 1], [1, 1]]))
        assert sol.length_lower((5, 0, -7)) == 7
        assert word_length(sol, (0, 0, 10**9), 3) is None

    def test_power_past_the_size_budget_is_a_resource_cap(self):
        sol = SolMachine(IntMatrix.from_rows([[2, 1], [1, 1]]))
        with pytest.raises(ResourceCapExceeded):
            sol.holonomy_power(10**12)
        with pytest.raises(ResourceCapExceeded):
            sol.pow((1, 0, 1), 10**12)
        assert sol.pow((0, 0, 1), 10**12) == (0, 0, 10**12)


# The commands below once kept every power A^0..A^t and needed 0.7-1.7 GB.
# Each runs in a child capped at 256 MiB of address space.
SOL_CHILD = """
import json
from endogrowth.cli import run
group, endo = sys.argv[2], sys.argv[3]
with open(endo, "w") as fh:
    json.dump({"sol": {"M": [[0, 0], [0, 0]], "p": 1, "q": 1, "tau_exp": int(sys.argv[4])}}, fh)
sys.exit(run(sys.argv[5:] + ["--group", group, "--out", endo + ".out"]))
"""


class TestSolMemory:
    def run(self, tmp_path, tau_exp, *argv):
        group = str(FIXTURE_DIR / "sol_ex1.group")
        return run_child(SOL_CHILD, group, str(tmp_path / "e.json"), str(tau_exp), *argv, limit_mb=256)

    def test_deep_conjugate_word(self, tmp_path):
        done = self.run(tmp_path, 1, "wordlen", "--word", "tau^60000 a1 tau^-60000", "--radius", "3")
        assert done.returncode == 0, done.stderr

    def test_large_tau_exponent_endo(self, tmp_path):
        done = self.run(tmp_path, 30000, "compare", "--endo", str(tmp_path / "e.json"))
        assert done.returncode == 0, done.stderr

    def test_tau_exponent_past_the_budget_exits_3(self, tmp_path):
        done = self.run(tmp_path, 10**12, "compare", "--endo", str(tmp_path / "e.json"))
        assert done.returncode == 3, done.stderr
        assert "budget" in done.stderr


# the descriptor params that rebuild a machine of each family
DESCRIPTOR_PARAMS = {
    "free_abelian": lambda m: {"rank": m.rank, "names": list(m.names)},
    "abelian_with_torsion": lambda m: {"rank": m.rank, "torsion": list(m.torsion), "names": list(m.names)},
    "heisenberg": lambda m: {"k": m.k, "include_center_gen": m.include_center_gen},
    "nilpotent2": lambda m: {
        "n_gens": m.n_gens,
        "central": list(m.central),
        "designated": {name: list(pair) for name, pair in m.designated},
        "gamma": {f"{i},{j}": list(vec) for (i, j), vec in m.gamma},
        "tau_names": list(m.tau_names),
    },
    "sol_lattice": lambda m: {"A": [list(row) for row in m.matrix.entries]},
    "klein_bottle": lambda m: {},
    "baumslag_solitar": lambda m: {"n": m.n},
}


class TestParams:
    def test_equal_params_give_equal_machines(self, any_machine):
        rebuilt = machine_from_params(any_machine.family, DESCRIPTOR_PARAMS[any_machine.family](any_machine))
        assert rebuilt is not any_machine
        assert rebuilt == any_machine and hash(rebuilt) == hash(any_machine)
        assert repr(rebuilt) == repr(any_machine)
        assert {rebuilt, any_machine} == {any_machine}
        # the machines of conftest are pairwise of other families or params
        assert [other == any_machine for other in ALL_MACHINES] == [other is any_machine for other in ALL_MACHINES]
        assert any_machine != any_machine.identity

    def test_other_params_give_other_machines(self):
        assert FreeAbelianMachine(2) != FreeAbelianMachine(2, ("x", "y"))
        assert TorsionProductMachine(1, (2,)) != TorsionProductMachine(1, (3,))
        central, designated = ("s12", "s13"), (("s12", (1, 2)), ("s13", (1, 3)))
        a, b = (Nil2Machine(3, central, designated, (((3, 2), vec),)) for vec in ((-1, -2), (1, -2)))
        assert a != b
        assert KleinMachine() == KleinMachine()  # the family has no parameters

    def test_machine_from_params_roundtrip(self):
        m = machine_from_params("heisenberg", {"k": 2})
        assert m == HeisenbergMachine(2)
        m2 = machine_from_params(
            "nilpotent2",
            {
                "n_gens": 3,
                "central": ["s12", "s13"],
                "designated": {"s12": [1, 2], "s13": [1, 3]},
                "gamma": {"3,2": [-1, -2]},
            },
        )
        assert evaluate(m2, parse_word("t2^-1 t3^-1 t2 t3", m2.gens)) == (0, 0, 0, 1, 2)

    def test_sol_validation(self):
        with pytest.raises(ValidationError):
            machine_from_params("sol_lattice", {"A": [[1, 0], [0, 1]]})
        with pytest.raises(ValidationError):
            machine_from_params("sol_lattice", {"A": [[2, 1], [1, 2]]})

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            machine_from_params("lamplighter", {})

    def test_designated_gamma_conflict(self):
        with pytest.raises(ValidationError):
            Nil2Machine(2, ("c",), (("c", (1, 2)),), (((2, 1), (5,)),))

    def test_two_generator_heisenberg_requires_k1(self):
        with pytest.raises(ValidationError):
            HeisenbergMachine(2, include_center_gen=False)


@settings(max_examples=50)
@given(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-60, 60)),
    st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-60, 60)),
)
def test_heis_inverse_law(a, b):
    machine = HeisenbergMachine(2)
    prod = machine.mul(a, b)
    assert machine.mul(machine.inv(b), machine.mul(machine.inv(a), prod)) == machine.identity
