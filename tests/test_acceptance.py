"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random

from endogrowth.ball import L_k_table, cyclic_distortion, enumerate_ball, gr_estimate
from endogrowth.exactlin import IntMatrix, char_poly, exterior_square, kronecker
from endogrowth.families import FreeAbelianMachine
from endogrowth.nilgr import gr_nilpotent_closed
from endogrowth.reports import closed_growth_rate, parse_endo, parse_group
from endogrowth.solgr import classify_endo, gr_sol_empirical
from endogrowth.words import (
    Endomorphism,
    apply_on_element,
    check_homomorphism,
    evaluate,
    eventually_trivial,
    image_elements,
    parse_word,
    validate_endo,
)

from conftest import inner_length, load_fixture
from test_nilgr import random_valid_nil2_endos

SQRT5 = math.sqrt(5)
SQRT2 = math.sqrt(2)
GOLDEN = (3 + SQRT5) / 2


def load_pair(stem):
    _, machine = parse_group(load_fixture(f"{stem}.group"))
    return machine, parse_endo(load_fixture(f"{stem}.endo"), machine)


def squared(machine, images):
    """The generator images of phi^2."""
    return tuple(apply_on_element(machine, images, x) for x in images)


def conjugated(machine, images, word_text):
    """The generator images of phi followed by conjugation by the word."""
    g = evaluate(machine, parse_word(word_text, machine.gens))
    return tuple(machine.mul(machine.mul(g, x), machine.inv(g)) for x in images)


def test_criterion_01_sol_ex2():
    machine, images = load_pair("sol_ex2")
    closed = closed_growth_rate(validate_endo(machine, images))
    assert abs(closed.value - SQRT5) <= 1e-9

    table = gr_sol_empirical(classify_endo(validate_endo(machine, images)), kmax=16)
    for k in range(1, 9):
        assert table.per_gen["a1"][2 * k - 1] == 5**k
        assert table.per_gen["a2"][2 * k - 1] == 5**k
    summary = gr_estimate(table)
    assert abs(summary.estimate - SQRT5) <= 1e-9
    print("ACCEPTANCE 01 PASS sol-ex2: closed=sqrt5, L_2k=5^k (k<=8), estimate within 1e-9")


def test_criterion_02_sol_ex3():
    machine, images = load_pair("sol_ex3")
    closed = closed_growth_rate(validate_endo(machine, images))
    assert abs(closed.value - SQRT2) <= 1e-9

    table = gr_sol_empirical(classify_endo(validate_endo(machine, images)), kmax=20)
    for k in range(1, 11):
        assert table.lengths[2 * k - 1] == 2**k + 2 * k
    summary = gr_estimate(table)
    assert abs(summary.estimate - SQRT2) <= 0.05 * SQRT2
    print("ACCEPTANCE 02 PASS sol-ex3: closed=sqrt2, L_2k=2^k+2k (k<=10), estimate within 5%")


def test_criterion_03_sol_ex1_counterexample():
    machine, images = load_pair("sol_ex1")
    closed = closed_growth_rate(validate_endo(machine, images))
    assert abs(closed.value - 1.0) <= 1e-12

    table = gr_sol_empirical(classify_endo(validate_endo(machine, images)), kmax=40)
    assert table.lengths == tuple(2 * k + 1 for k in range(1, 41))  # linear growth
    summary = gr_estimate(table)
    assert summary.estimate <= 1.1

    # the torus restriction expands at the full holonomy rate
    torus = FreeAbelianMachine(2, ("a1", "a2"))
    restricted = Endomorphism.from_strings(torus.gens, {"a1": "a1^2 a2", "a2": "a1 a2"})
    restricted_value = closed_growth_rate(validate_endo(torus, image_elements(torus, restricted))).value
    assert abs(restricted_value - GOLDEN) <= 1e-9
    assert closed.value < max(restricted_value, 1.0)  # strict drop under the extension
    print("ACCEPTANCE 03 PASS sol-ex1: closed=1, linear lengths, estimate<=1.1 at k=40, "
          f"restriction grows at {restricted_value:.6f}")


def test_criterion_04_heisenberg(heis1, heis_ball20):
    machine, images = load_pair("heis_ex1")
    closed = closed_growth_rate(validate_endo(machine, images))
    assert abs(closed.value - GOLDEN) <= 1e-9

    table = L_k_table(validate_endo(machine, images), kmax=25, radius=10)
    summary = gr_estimate(table)
    assert abs(summary.estimate - GOLDEN) <= 0.10 * GOLDEN

    checked = 0
    for elem, dist in heis_ball20.dist.items():
        if dist <= 10:
            assert machine.length_upper(elem) >= dist
            checked += 1
    assert checked == heis_ball20.counts[10]
    print(f"ACCEPTANCE 04 PASS heisenberg: closed={closed.value:.9f}, "
          f"estimate={summary.estimate:.4f} (within 10%), functional>=geodesic on {checked} elements")


def test_criterion_05_klein():
    machine, images = load_pair("klein")
    closed = closed_growth_rate(validate_endo(machine, images))
    assert closed.value == 5.0

    ball = enumerate_ball(machine, 10)
    for elem, dist in ball.dist.items():
        assert machine.length_upper(elem) == dist

    table = L_k_table(validate_endo(machine, images), kmax=20, radius=10)
    summary = gr_estimate(table)
    assert abs(summary.estimate - 5.0) <= 0.10 * 5.0

    rejected = Endomorphism.from_strings(machine.gens, {"x": "x^2", "y": "y^2"})
    assert not check_homomorphism(machine, image_elements(machine, rejected)).valid
    print(f"ACCEPTANCE 05 PASS klein: closed=5, normal-form lengths exact on B(10), "
          f"estimate={summary.estimate:.4f}, (q,r)=(2,2) rejected")


def test_criterion_06_baumslag_solitar(bs2):
    machine, images = load_pair("bs")
    ball = enumerate_ball(machine, 9)
    bfs_lengths = [ball.length((2**k, 0, 0)) for k in range(5)]
    assert bfs_lengths == [1, 2, 4, 6, 8]
    for k, length in enumerate(bfs_lengths):
        assert length <= 2 * k + 1

    table = L_k_table(validate_endo(machine, images), kmax=12, radius=9)
    summary = gr_estimate(table)
    assert summary.estimate <= 1.3
    assert summary.direction == "decreasing"
    inf = summary.running_inf
    assert all(a >= b - 1e-12 for a, b in zip(inf, inf[1:]))

    fiber = FreeAbelianMachine(1, ("b",))
    restricted = Endomorphism.from_strings(fiber.gens, {"b": "b^2"})
    assert closed_growth_rate(validate_endo(fiber, image_elements(fiber, restricted))).value == 2.0
    print(f"ACCEPTANCE 06 PASS baumslag-solitar: BFS L(b^(2^k))={bfs_lengths}, "
          f"estimate={summary.estimate:.4f}<=1.3 decreasing, fiber restriction=2")


def test_criterion_07_torsion_counter():
    machine, images = load_pair("counter")
    table = L_k_table(validate_endo(machine, images), kmax=32, radius=2)
    assert table.lengths == (1,) * 32
    assert all(table.exact)
    summary = gr_estimate(table)
    assert summary.estimate == 1.0
    assert closed_growth_rate(validate_endo(machine, images)).value == 1.0

    free_part = FreeAbelianMachine(1, ("alpha",))
    restricted = Endomorphism.from_strings(free_part.gens, {"alpha": ""})
    assert closed_growth_rate(validate_endo(free_part, image_elements(free_part, restricted))).value == 0.0
    assert eventually_trivial(validate_endo(free_part, image_elements(free_part, restricted))) == 1
    print("ACCEPTANCE 07 PASS torsion counter: L_k=1 exactly (k<=32), estimate=1, "
          "free restriction eventually trivial at power 1")


def test_criterion_08_property_suite():
    # squares of all bundled closed forms
    for stem in ("counter", "heis_ex1", "nil2_ex3", "klein", "sol_ex1", "sol_ex2", "sol_ex3"):
        machine, images = load_pair(stem)
        base = closed_growth_rate(validate_endo(machine, images)).value
        square = closed_growth_rate(validate_endo(machine, squared(machine, images))).value
        assert abs(square - base**2) <= 1e-9 * max(1.0, base**2), stem

    # inner-automorphism invariance of closed forms
    conjugators = {
        "counter": ("beta",),
        "heis_ex1": ("a1 a2^2 a3", "a2^-1 a1"),
        "nil2_ex3": ("t1 s12", "t2^2"),
        "klein": ("y", "x y^2"),
        "sol_ex1": ("a1^2 a2^-1", "a1 tau"),
        "sol_ex2": ("a1^2 a2^-1", "a1 tau"),
        "sol_ex3": ("a1^2 a2^-1", "a1 tau"),
    }
    for stem, words in conjugators.items():
        machine, images = load_pair(stem)
        base = closed_growth_rate(validate_endo(machine, images)).value
        for text in words:
            twisted = conjugated(machine, images, text)
            assert check_homomorphism(machine, twisted).valid, (stem, text)
            value = closed_growth_rate(validate_endo(machine, twisted)).value
            assert abs(value - base) <= 1e-9 * max(1.0, base), (stem, text)

    # eigenvalue-product properties, >= 100 random trials each
    import numpy as np

    rng = random.Random(101)

    def eigs(m):
        return np.linalg.eigvals(np.array(m.entries, dtype=float))

    def close_multisets(xs, ys):
        xs = sorted(xs, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        ys = sorted(ys, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        return all(abs(x - y) <= 1e-6 for x, y in zip(xs, ys))

    for _ in range(110):
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        ev = eigs(m)
        pairs = [ev[i] * ev[j] for i in range(3) for j in range(i + 1, 3)]
        assert close_multisets(eigs(exterior_square(m)), pairs)
    for _ in range(110):
        a = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        b = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        products = [x * y for x in eigs(a) for y in eigs(b)]
        assert close_multisets(eigs(kronecker(a, b)), products)

    # Cayley-Hamilton, exact, up to 5x5
    for _ in range(40):
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        assert char_poly(m).eval_matrix(m).is_zero()
    print("ACCEPTANCE 08 PASS properties: squares, inner automorphisms, "
          "220 eigen-product trials, Cayley-Hamilton to 5x5")


def test_criterion_09_nil2_random_valid(nil2_ex3, nil2_commuting):
    rng = random.Random(501)
    total = 0
    for machine in (nil2_ex3, nil2_commuting):
        for endo in random_valid_nil2_endos(machine, rng, 25):
            images = image_elements(machine, endo)
            assert check_homomorphism(machine, images).valid
            rep = gr_nilpotent_closed(validate_endo(machine, images))
            sp_ab = rep.certificate["sp_ab"]
            sp_center = rep.certificate["sp_center"]
            assert sp_center <= sp_ab**2 + 1e-9
            assert rep.value == sp_ab
            assert rep.certificate["cross_check"] <= sp_ab + 1e-9
            total += 1
    assert total == 50
    print(f"ACCEPTANCE 09 PASS nil2: {total} random valid endomorphisms satisfy "
          "sp(center) <= sp(ab)^2 and closed form = sp(ab)")


def test_criterion_10_distortion(z2, heis1, bs2, heis_ball20):
    flat = cyclic_distortion(z2, "e1", 12)
    assert flat.delta == tuple(range(13))

    # witness: [a1^5, a2^5] spells the 25th power of the central generator in 20 letters
    witness = parse_word("a1^-5 a2^-5 a1^5 a2^5", heis1.gens)
    assert witness.length() == 20
    assert evaluate(heis1, witness) == (0, 0, -25)
    central = [(inner_length(heis1, 2, e), d) for e, d in heis_ball20.dist.items()]
    delta20 = max(val for val, d in central if val is not None and d <= 20)
    assert delta20 >= 25

    fiber = cyclic_distortion(bs2, "b", 9)
    assert fiber.delta[9] > 2 * 9  # super-linear already by radius 9
    assert fiber.delta[9] == 24
    print(f"ACCEPTANCE 10 PASS distortion: Z^2 flat, heisenberg delta(20)={delta20}>=25 "
          f"(witness length 20), bs delta(9)={fiber.delta[9]}")
