import functools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endogrowth import ball as ball_module
from endogrowth.ball import (
    L_k_table,
    ball_counts,
    cyclic_distortion,
    distortion,
    enumerate_ball,
    gr_estimate,
    word_length,
    word_lengths,
)
from endogrowth.errors import ResourceCapExceeded, ValidationError
from endogrowth.families import (
    BSMachine,
    FreeAbelianMachine,
    HeisenbergMachine,
    KleinMachine,
    Nil2Machine,
    TorsionProductMachine,
)
from endogrowth.reports import parse_endo, parse_group
from endogrowth.words import Endomorphism, apply_on_element, evaluate, image_elements, parse_word, validate_endo

from conftest import (
    ALL_MACHINES,
    HEIS_NIL2,
    box_corners,
    check_packed_steps,
    count_calls,
    inner_length,
    load_fixture,
    sol_machines,
)

FIXTURE_STEMS = ("counter", "bs", "heis_ex1", "nil2_ex3", "klein", "sol_ex1", "sol_ex2", "sol_ex3")


def machine_named(name):
    """``HEIS_NIL2`` as "heis_nil2", a bundled fixture's machine by stem."""
    return HEIS_NIL2 if name == "heis_nil2" else parse_group(load_fixture(f"{name}.group"))[1]


def reference_ball(machine, radius, start=None, lower=None):
    """Distances by a plain BFS over ``mul``: each element of the previous
    sphere in order, times g0, g0^-1, g1, g1^-1, ... in order.  With
    ``lower``, an element x of sphere r is expanded only when
    lower(x) <= radius - r, as on a pruned ``_Frontier`` side."""
    start = machine.identity if start is None else start
    steps = machine.step_factors()
    dist = {start: 0}
    sphere = [start]
    for r in range(1, radius + 1):
        nxt = []
        for x in sphere:
            if lower is not None and lower(x) > radius - r + 1:
                continue
            for s in steps:
                y = machine.mul(x, s)
                if y not in dist:
                    dist[y] = r
                    nxt.append(y)
        sphere = nxt
    return dist


def sphere_by_sphere(dist):
    """Whether ``dist`` lists its elements sphere by sphere, as a BFS
    stores them: ``distortion`` reads the last one as the farthest."""
    values = list(dist.values())
    return values == sorted(values)


def expanded_sizes(dist, radius, lower=None):
    """The number of elements of each sphere r < radius that a BFS expands."""
    sizes = [0] * radius
    for x, d in dist.items():
        if d < radius and (lower is None or lower(x) <= radius - d):
            sizes[d] += 1
    return sizes


class TestEnumerateBall:
    def test_z2_diamond_counts(self, z2):
        ball = enumerate_ball(z2, 2)
        assert ball.counts == (1, 5, 13)

    def test_heis_radius_one(self, heis1):
        ball = enumerate_ball(heis1, 1)
        assert ball.counts == (1, 7)

    def test_bs_small_ball(self, bs2):
        ball = enumerate_ball(bs2, 3)
        # b^2 is reachable both as b b and as the conjugate a^-1 b a
        assert ball.length((2, 0, 0)) == 2
        conj = evaluate(bs2, parse_word("a^-1 b a", bs2.gens))
        assert conj == (2, 0, 0)
        assert ball.counts[3] == len([e for e, d in ball.dist.items() if d <= 3])

    def test_finite_group_stops_early(self, counter_machine):
        ball = enumerate_ball(counter_machine, 3)
        members = [e for e, d in ball.dist.items() if e[0] == 0]
        assert len(members) == 2  # identity and the torsion generator

    def test_cap_gives_the_last_full_radius(self, heis1):
        with pytest.raises(ResourceCapExceeded) as err:
            enumerate_ball(heis1, 10, cap=40)
        counts = enumerate_ball(heis1, 4).counts
        assert counts[-1] > 40
        assert err.value.completed_radius == max(r for r, c in enumerate(counts) if c <= 40)

    def test_determinism(self, heis1):
        a = enumerate_ball(heis1, 5)
        b = enumerate_ball(heis1, 5)
        assert a.dist == b.dist and a.counts == b.counts
        assert list(a.dist.keys()) == list(b.dist.keys())

    def test_csv_columns(self, z2):
        text = enumerate_ball(z2, 2).to_csv()
        assert text.splitlines()[0] == "n,count,delta,witness"


class TestCompiledSteps:
    def test_steps_equal_mul(self, any_machine):
        # on a ball, from a codec sized for one step past it, and on the
        # corners of that codec's box, where a product may leave the box
        codec = any_machine.codec((any_machine.identity,), 5)
        assert len(codec.steps) == 2 * len(any_machine.gens)
        check_packed_steps(any_machine, codec, list(reference_ball(any_machine, 4)))
        check_packed_steps(any_machine, codec, box_corners(any_machine, codec))

    @pytest.mark.parametrize("stem", FIXTURE_STEMS)
    def test_discovery_order_matches_reference(self, stem):
        # the same elements at the same distances, stored sphere by sphere;
        # the order within a sphere is the kernel's own
        _, machine = parse_group(load_fixture(f"{stem}.group"))
        dist = enumerate_ball(machine, 4).dist
        assert dist == reference_ball(machine, 4)
        assert sphere_by_sphere(dist)


class TestChunkedKernel:
    """``_Frontier.grow`` steps a sphere in chunks of ``_CHUNK`` elements."""

    def test_steps_on_a_chunk_equal_mul(self, any_machine):
        # every step maps a whole chunk of keys, in order, around a start
        # off the identity; the empty chunk gives nothing
        start = next(reversed(reference_ball(any_machine, 2)))
        codec = any_machine.codec((start,), 5)
        chunk = list(reference_ball(any_machine, 4, start))
        assert len(chunk) > 1
        check_packed_steps(any_machine, codec, chunk)
        assert all(step([]) == [] for step in codec.steps)

    @pytest.mark.parametrize("stem, radius", [("nil2_ex3", 5), ("sol_ex3", 6), ("bs", 9), ("heis_ex1", 9)])
    def test_discovery_order_across_chunks(self, stem, radius):
        _, machine = parse_group(load_fixture(f"{stem}.group"))
        reference = reference_ball(machine, radius)
        assert expanded_sizes(reference, radius)[-1] > 2 * ball_module._CHUNK
        dist = enumerate_ball(machine, radius).dist
        assert dist == reference
        assert sphere_by_sphere(dist)

    def test_pruned_side_across_chunks(self, nil2_ex3):
        # the side of a search around a target, pruned by length_lower
        start, radius, lower = (0, 0, 0, 3, 0), 7, nil2_ex3.length_lower  # s12^3
        codec = nil2_ex3.codec((start,), radius)
        side = ball_module._Frontier(codec, start, radius, lower)
        while side.grow(10**6):
            pass
        reference = reference_ball(nil2_ex3, radius, start, lower)
        assert max(expanded_sizes(reference, radius, lower)) > 2 * ball_module._CHUNK
        # a full ball of that radius, around any start, is 8 times larger
        assert 8 * len(reference) < len(enumerate_ball(nil2_ex3, radius).dist)
        seen = {codec.decode(x): d for x, d in side.seen.items()}
        assert seen == reference
        assert sphere_by_sphere(seen)


# t2 and t3 commute: no gamma entry for the pair (3, 2)
COMMUTING_NIL2 = Nil2Machine(3, ("s12", "s13"), (("s12", (1, 2)), ("s13", (1, 3))), ())

# at each radius the last sphere expanded holds more than 2 * _CHUNK
# elements, but on Z x Z/2, whose spheres never exceed 4
FULL_BALLS = list(zip(ALL_MACHINES, (13, 40, 30, 9, 8, 9, 5, 7, 6, 130, 9, 8), strict=True))
FULL_BALLS.append((COMMUTING_NIL2, 5))


def commute_both_ways(machine):
    """A wrong table for ``_skip_known``: it skips the step back and every
    commuting step, higher or lower."""
    factors = machine.step_factors()
    mul = machine.mul
    return [
        [i for i, s in enumerate(factors) if i != j ^ 1 and (i == j or mul(s, t) != mul(t, s))]
        for j, t in enumerate(factors)
    ]


class TestSkipKnownSteps:
    """A full ball skips the step back to each element's parent and every
    lower step that commutes with the one it arrived by."""

    @pytest.mark.parametrize(
        "machine, radius", FULL_BALLS, ids=[f"{m.family}:{','.join(m.gens.names)}" for m, _ in FULL_BALLS]
    )
    def test_full_ball_matches_reference(self, machine, radius, monkeypatch):
        reference = reference_ball(machine, radius)
        counts = tuple(sum(d <= r for d in reference.values()) for r in range(radius + 1))
        # the real chunk size, then one small enough that every group of a
        # sphere spans several chunks
        for chunk in (ball_module._CHUNK, 5):
            monkeypatch.setattr(ball_module, "_CHUNK", chunk)
            ball = enumerate_ball(machine, radius)
            assert ball.dist == reference
            assert ball.counts == counts

    def test_commuting_tau_pair_is_skipped(self):
        after = ball_module._skip_known(COMMUTING_NIL2)
        assert after[4] == [0, 1, 4, 6, 7, 8, 9]  # t3: no t2, no t2^-1, no t3^-1

    def test_heisenberg_table(self):
        _, heis_ex1 = parse_group(load_fixture("heis_ex1.group"))
        after = ball_module._skip_known(heis_ex1)
        assert after[4] == [4] and after[5] == [5]  # a3 is central and last
        assert after[0] == [0, 2, 3, 4, 5]  # a1 commutes with no lower step

    def test_only_full_balls_skip(self, monkeypatch):
        calls = count_calls(monkeypatch, ball_module, "_skip_known")
        reference = reference_ball(HEIS_NIL2, 9)
        assert word_lengths(HEIS_NIL2, [(3, 2, 5), (0, 0, 9)], 9) == [reference[3, 2, 5], reference[0, 0, 9]]
        assert calls == []
        enumerate_ball(HEIS_NIL2, 3)
        assert len(calls) == 1

    @pytest.mark.parametrize("stem, radius", [("heis_ex1", 6), ("nil2_ex3", 4), ("sol_ex1", 5)])
    def test_skipping_both_ways_loses_elements(self, stem, radius, monkeypatch):
        _, machine = parse_group(load_fixture(f"{stem}.group"))
        monkeypatch.setattr(ball_module, "_skip_known", commute_both_ways)
        assert enumerate_ball(machine, radius).dist != reference_ball(machine, radius)


def cap_cases(thresholds):
    """(cap, completed radius) around each threshold t and between two:
    the least caps at which the completed radius reaches 1, 2, ... and,
    last, the least cap that completes (None)."""
    caps = set()
    prev = 1
    for t in thresholds:
        caps |= {t - 1, t, t + 1, (prev + t) // 2}
        prev = t
    for cap in sorted(c for c in caps if c >= 1):
        yield cap, None if cap >= thresholds[-1] else sum(t <= cap for t in thresholds)


class TestCapAcrossChunks:
    """The cap is checked once per chunk, yet raises the message and the
    completed radius of an element-by-element check.  The thresholds were
    recorded with that check."""

    BALLS = {
        ("nil2_ex3", 5): (11, 73, 371, 1473, 4947),
        ("sol_ex3", 6): (7, 33, 119, 357, 977, 2547),
        ("heis_nil2", 9): (7, 29, 83, 189, 379, 697, 1199, 1953, 3039),
        ("bs", 9): (5, 17, 43, 93, 191, 375, 711, 1317, 2403),
    }
    SEARCHES = {
        ("nil2_ex3", ((7, 0, 0, 0, 0),), 9): (12, 22, 84, 146, 444, 569, 697),
        ("nil2_ex3", ((7, 0, 0, 0, 0), (0, 0, 0, 0, -7), (3, -2, 1, 0, 0)), 9): (14, 44, 106, 292, 590, 1270, 2042),
        ("heis_nil2", ((5, 5, 12),), 20): (8, 14, 36, 58, 112, 166, 272, 378, 568, 758),
        ("sol_ex1", ((8, 0, 0), (3, -2, 1)), 10): (9, 21, 47, 99, 169, 309, 376, 546),
    }

    @pytest.mark.parametrize("stem, radius", list(BALLS))
    def test_enumerate_ball(self, stem, radius):
        machine = machine_named(stem)
        for cap, done in cap_cases(self.BALLS[stem, radius]):
            if done is None:
                assert len(enumerate_ball(machine, radius, cap).dist) <= cap
                continue
            with pytest.raises(ResourceCapExceeded) as err:
                enumerate_ball(machine, radius, cap)
            assert (str(err.value), err.value.completed_radius) == (
                f"ball exceeded cap {cap} while exploring radius {done + 1}",
                done,
            )

    @pytest.mark.parametrize("stem, targets, radius", list(SEARCHES))
    def test_word_lengths(self, stem, targets, radius):
        machine = machine_named(stem)
        lengths = word_lengths(machine, targets, radius)
        for cap, done in cap_cases(self.SEARCHES[stem, targets, radius]):
            if done is None:
                assert word_lengths(machine, targets, radius, cap) == lengths
                continue
            with pytest.raises(ResourceCapExceeded) as err:
                word_lengths(machine, targets, radius, cap)
            assert (str(err.value), err.value.completed_radius) == (f"search exceeded cap {cap} at radius {done + 1}", done)


class TestBidirectionalSearch:
    MACHINES = [parse_group(load_fixture(f"{stem}.group"))[1] for stem in FIXTURE_STEMS]
    MACHINES.append(FreeAbelianMachine(3))

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.family)
    def test_matches_one_sided_bfs(self, machine):
        # R = 3 on the 5-generator nilpotent group keeps B(R + 1) near 1,500 elements
        radius = 3 if len(machine.gens) > 3 else 4
        ball = enumerate_ball(machine, radius + 1)
        assert machine.identity in ball and word_length(machine, machine.identity, radius) == 0
        for elem, d in ball.dist.items():
            assert word_length(machine, elem, radius) == (d if d <= radius else None)
            assert word_length(machine, elem, 0) == (0 if d == 0 else None)

    def test_lower_bound_below_geodesics(self, any_machine):
        for elem, d in enumerate_ball(any_machine, 7).dist.items():
            assert any_machine.length_lower(elem) <= d

    def test_cap_counts_both_sides(self, z2):
        # |(4, 4, 8)| = 8; the two sides meet only after several spheres each
        with pytest.raises(ResourceCapExceeded) as err:
            word_length(HEIS_NIL2, (4, 4, 8), radius=30, cap=60)
        assert 0 < err.value.completed_radius < 8
        assert word_length(HEIS_NIL2, (4, 4, 8), radius=30, cap=400) == 8
        # an exact length functional answers without storing anything
        assert word_length(z2, (9, 9), 30, cap=1) == 18


@pytest.mark.parametrize("machine", ALL_MACHINES, ids=lambda m: f"{m.family}:{','.join(m.gens.names)}")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_word_lengths_match_the_ball(machine, data):
    """Each target's length is its ball distance, or None beyond the radius:
    target lists with repeats, the identity and elements up to two spheres
    past the radius."""
    radius = 2 if len(machine.gens) > 3 else 3
    ball = enumerate_ball(machine, radius)
    pool = list(enumerate_ball(machine, radius + 2).dist)
    targets = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    targets = data.draw(st.permutations(targets + data.draw(st.lists(st.sampled_from(targets), max_size=4))))
    assert word_lengths(machine, targets, radius) == [ball.length(x) for x in targets]


def reference_table(valid, kmax, radius):
    """(lengths, exact) of L_k_table by looking every image up in the full ball."""
    machine, images = valid.machine, valid.images
    ball = enumerate_ball(machine, radius)
    lengths, exact, current = [], [], list(images)
    for _ in range(kmax):
        row = [(ball.length(x), True) if x in ball else (machine.length_upper(x), machine.length_exact) for x in current]
        top = max(v for v, _ in row)
        lengths.append(top)
        exact.append(any(e and v == top for v, e in row))
        current = [apply_on_element(machine, images, x) for x in current]
    return tuple(lengths), tuple(exact)


class TestTargetedLookups:
    """L_k_table looks up its kmax x |S| images without the full ball."""

    CASES = [("heis_ex1", 25, 10), ("nil2_ex3", 12, 6), ("bs", 12, 9), ("counter", 32, 2)]

    @pytest.mark.parametrize("stem, kmax, radius", CASES)
    def test_fixture_tables_fit_in_the_ball_size(self, stem, kmax, radius):
        _, machine = parse_group(load_fixture(f"{stem}.group"))
        valid = validate_endo(machine, parse_endo(load_fixture(f"{stem}.endo"), machine))
        cap = len(enumerate_ball(machine, radius).dist)
        table = L_k_table(valid, kmax, radius, cap=cap)
        assert (table.lengths, table.exact) == reference_table(valid, kmax, radius)

    def test_bs_table_fits_in_a_twentieth_of_the_ball(self):
        # every length is length_upper's, so nothing is stored; a search
        # pruned by length_lower needed 4.0%, and 29.9% without the b-part
        # in the bound
        _, machine = parse_group(load_fixture("bs.group"))
        valid = validate_endo(machine, parse_endo(load_fixture("bs.endo"), machine))
        cap = len(enumerate_ball(machine, 9).dist) * 5 // 100
        table = L_k_table(valid, 12, 9, cap=cap)
        assert (table.lengths, table.exact) == reference_table(valid, 12, 9)

    def test_unipotent_heisenberg_fits_in_the_ball_size(self, heis1):
        # phi^k(a1) = a1 a2^k: rows up to k = 15 lie within the radius
        phi = Endomorphism.from_strings(heis1.gens, {"a1": "a1 a2", "a2": "a2", "a3": "a3"})
        valid = validate_endo(heis1, image_elements(heis1, phi))
        table = L_k_table(valid, 25, 16, cap=len(enumerate_ball(heis1, 16).dist))
        assert (table.lengths, table.exact) == reference_table(valid, 25, 16)


class TestPrunedSearch:
    def test_pruned_side_runs_dry(self, monkeypatch):
        # (35, 21, 4) = a1 tau^4 a1 in sol_ex1 has length 6 and length_lower
        # 5.  At radius 5 each of its neighbours has length_lower >= 5, so its
        # side stores sphere 1, expands none of it and ends before the depths
        # sum to 5.  Sphere 2 is not its last, which is expanded without the
        # bound.
        sol = machine_named("sol_ex1")
        dry = []
        grow = ball_module._Frontier.grow

        def spy(side, *args):
            grown = grow(side, *args)
            if not grown:
                dry.append(side.depth)
            return grown

        monkeypatch.setattr(ball_module._Frontier, "grow", spy)
        assert sol.length_lower((35, 21, 4)) == 5
        assert word_lengths(sol, [(35, 21, 4), (1, 0, 0)], 5) == [None, 1]
        assert dry == [1]
        assert word_length(sol, (35, 21, 4), 6) == 6

    def test_pruned_sides_store_fewer_elements(self, bs2):
        # b^16 = a^-3 b^2 a^3 is 8 letters long, as its bound says, so a
        # radius-9 ball around it expands only elements close to a geodesic
        assert bs2.length_lower((16, 0, 0)) == 8
        codec = bs2.codec(((16, 0, 0),), 9)
        full = ball_module._Frontier(codec, (16, 0, 0), 9)
        pruned = ball_module._Frontier(codec, (16, 0, 0), 9, bs2.length_lower)
        for side in (full, pruned):
            while side.grow(10**6):
                pass
        assert full.depth == 9
        assert len(pruned.seen) < len(full.seen) // 10
        assert pruned.seen[codec.encode(bs2.identity)] == 8 == word_length(bs2, (16, 0, 0), 9)

    def test_one_steps_list_per_search(self, monkeypatch):
        # every side of a search shares the codec, and its steps, of the
        # identity side
        calls = []
        codec = type(HEIS_NIL2).codec

        def spy(machine, starts, depth):
            calls.append(depth)
            return codec(machine, starts, depth)

        monkeypatch.setattr(type(HEIS_NIL2), "codec", spy)
        targets = [(i, j, 0) for i in range(1, 11) for j in range(1, 11)]
        assert all(HEIS_NIL2.length_lower(x) <= 24 for x in targets)
        lengths = word_lengths(HEIS_NIL2, targets, 24)
        assert len(calls) == 1
        assert lengths == [i + j for i, j, _ in targets]


class TestWordLength:
    def test_bs_power_four(self, bs2):
        assert word_length(bs2, (4, 0, 0), radius=6) == 4

    def test_heis_generator_inverse(self, heis1):
        assert word_length(heis1, (0, 0, -1), radius=2) == 1

    def test_gamma2_central_square(self):
        h2 = HeisenbergMachine(2)
        # the commutator word gives a3^-2 in four letters, but a3 is itself
        # a generator here, so the geodesic takes two letters
        comm = evaluate(h2, parse_word("a1^-1 a2^-1 a1 a2", h2.gens))
        assert comm == (0, 0, -2)
        assert word_length(h2, (0, 0, -2), radius=5) == 2

    def test_beyond_radius_is_unknown(self, z2):
        assert word_length(z2, (9, 9), radius=3) is None


class TestLkTable:
    def test_counter_all_ones(self, counter_machine):
        phi = Endomorphism.from_strings(counter_machine.gens, {"alpha": "", "beta": "beta"})
        table = L_k_table(validate_endo(counter_machine, image_elements(counter_machine, phi)), kmax=8, radius=2)
        assert set(table.lengths) == {1}
        assert all(table.exact)

    def test_diagonal_doubling(self, z2):
        phi = Endomorphism.from_strings(z2.gens, {"e1": "e1^2", "e2": "e2"})
        table = L_k_table(validate_endo(z2, image_elements(z2, phi)), kmax=8, radius=10)
        assert table.lengths == tuple(2**k for k in range(1, 9))

    def test_bs_doubling_bounded(self, bs2):
        phi = Endomorphism.from_strings(bs2.gens, {"a": "a", "b": "b^2"})
        table = L_k_table(validate_endo(bs2, image_elements(bs2, phi)), kmax=8, radius=9)
        for k, length in zip(table.ks, table.lengths):
            assert length <= 2 * k + 1
        assert table.exact[0] and table.exact[3]

    def test_invalid_endo_refused(self, klein):
        phi = Endomorphism.from_strings(klein.gens, {"x": "x^2", "y": "y^2"})
        with pytest.raises(ValidationError):
            L_k_table(validate_endo(klein, image_elements(klein, phi)), kmax=3, radius=3)


class TestGrEstimate:
    def test_counter_estimate_is_one(self, counter_machine):
        phi = Endomorphism.from_strings(counter_machine.gens, {"alpha": "", "beta": "beta"})
        valid = validate_endo(counter_machine, image_elements(counter_machine, phi))
        s = gr_estimate(L_k_table(valid, kmax=8, radius=2))
        assert s.estimate == 1.0 and s.certified_upper

    def test_doubling_estimate_is_two(self, z2):
        phi = Endomorphism.from_strings(z2.gens, {"e1": "e1^2", "e2": "e2"})
        s = gr_estimate(L_k_table(validate_endo(z2, image_elements(z2, phi)), kmax=8, radius=10))
        assert abs(s.estimate - 2.0) <= 1e-12

    def test_bs_decreasing_toward_one(self, bs2):
        phi = Endomorphism.from_strings(bs2.gens, {"a": "a", "b": "b^2"})
        s = gr_estimate(L_k_table(validate_endo(bs2, image_elements(bs2, phi)), kmax=12, radius=9))
        assert s.direction == "decreasing"
        inf = s.running_inf
        assert all(a >= b - 1e-12 for a, b in zip(inf, inf[1:]))
        assert s.estimate < 1.31

    def test_zero_table_gives_zero(self, z2):
        phi = Endomorphism.from_strings(z2.gens, {"e1": "", "e2": ""})
        s = gr_estimate(L_k_table(validate_endo(z2, image_elements(z2, phi)), kmax=4, radius=2))
        assert s.estimate == 0.0


class TestFunctionalAgainstBall:
    def test_upper_bound_dominates_geodesics(self, any_machine):
        ball = enumerate_ball(any_machine, 8, cap=400_000)
        for elem, dist in ball.dist.items():
            assert any_machine.length_upper(elem) >= dist

    def test_subadditivity_spot_check(self, heis1):
        # geodesic lengths satisfy L(phi^(j+k)(s)) <= L_k(phi) * L(phi^j(s));
        # unipotent images keep everything inside a small ball
        from endogrowth.words import apply_on_element

        phi = Endomorphism.from_strings(heis1.gens, {"a1": "a1 a2", "a2": "a2", "a3": "a3"})
        ball = enumerate_ball(heis1, 14)
        img = [evaluate(heis1, w) for w in phi.images]
        table = L_k_table(validate_endo(heis1, image_elements(heis1, phi)), kmax=4, radius=14)
        for gen in range(3):
            for j, k in [(1, 1), (1, 2), (2, 2), (1, 3)]:
                xj = img[gen]
                for _ in range(j - 1):
                    xj = apply_on_element(heis1, img, xj)
                xjk = xj
                for _ in range(k):
                    xjk = apply_on_element(heis1, img, xjk)
                lj, ljk = ball.length(xj), ball.length(xjk)
                assert lj is not None and ljk is not None
                assert ljk <= table.lengths[k - 1] * max(1, lj)


class TestGrowthStructure:
    def test_heisenberg_polynomial_band(self, heis_ball20):
        # degree-4 volume growth: doubling the radius multiplies counts by < 2^6
        for n in range(4, 11):
            assert heis_ball20.counts[2 * n] / heis_ball20.counts[n] <= 2**6

    def test_estimate_independent_of_center_generator(self):
        # the same endomorphism through the 3-generator and 2-generator
        # machines must give matching growth estimates
        h3 = HeisenbergMachine(1)
        h2 = HeisenbergMachine(1, include_center_gen=False)
        endo3 = Endomorphism.from_strings(
            h3.gens, {"a1": "a1^2 a2", "a2": "a1 a2", "a3": "a3"}
        )
        endo2 = Endomorphism.from_strings(h2.gens, {"a1": "a1^2 a2", "a2": "a1 a2"})
        s3 = gr_estimate(L_k_table(validate_endo(h3, image_elements(h3, endo3)), kmax=22, radius=8))
        s2 = gr_estimate(L_k_table(validate_endo(h2, image_elements(h2, endo2)), kmax=22, radius=8))
        golden = (3 + 5**0.5) / 2
        assert abs(s3.estimate - s2.estimate) <= 0.05 * golden
        assert abs(s3.estimate - golden) <= 0.10 * golden
        assert abs(s2.estimate - golden) <= 0.10 * golden


class TestDistortion:
    def test_undistorted_axis(self, z2):
        table = cyclic_distortion(z2, "e1", 12)
        assert table.delta == tuple(range(13))

    def test_bs_fiber_distorted(self, bs2):
        table = cyclic_distortion(bs2, "b", 9)
        assert table.delta == (0, 1, 2, 3, 4, 6, 8, 12, 16, 24)
        assert all(a <= b for a, b in zip(table.delta, table.delta[1:]))

    def test_bs_small_radius_hand_checkable(self, bs2):
        table = cyclic_distortion(bs2, "b", 3)
        assert table.delta[3] == 3

    def test_witness_is_member(self, bs2):
        table = cyclic_distortion(bs2, "b", 6)
        w = parse_word(table.witnesses[6], bs2.gens)
        elem = evaluate(bs2, w)
        assert inner_length(bs2, 1, elem) == table.delta[6]

    def test_custom_membership_functions(self, z2):
        table = distortion(
            z2,
            lambda e: e[1] == 0,
            lambda e: abs(e[0]),
            radius=5,
        )
        assert table.delta == (0, 1, 2, 3, 4, 5)

    def test_csv_columns(self, bs2):
        text = cyclic_distortion(bs2, "b", 4).to_csv()
        lines = text.splitlines()
        assert lines[0] == "n,count,delta,witness"
        assert lines[-1].startswith("4,,4,")


def full_ball_distortion(machine, gen_name, radius, cap=ball_module.DEFAULT_CAP):
    """The cyclic distortion table read off the full ball, with inner
    lengths from the canonical words."""
    inner = functools.partial(inner_length, machine, machine.gens.index(gen_name))
    return distortion(machine, lambda elem: inner(elem) is not None, inner, radius, cap)


LOOKUP_MACHINES = ALL_MACHINES + [
    FreeAbelianMachine(1),
    TorsionProductMachine(0, (5,)),
    TorsionProductMachine(0, (4, 6)),
    TorsionProductMachine(1, (8,)),
]


@pytest.mark.parametrize("machine", LOOKUP_MACHINES, ids=lambda m: f"{m.family}:{','.join(m.gens.names)}")
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_lookup_distortion_matches_the_full_ball(machine, data):
    """Powers looked up by ``word_lengths`` give the full ball's ns, delta
    and witnesses, for every generator, also past a finite group's diameter."""
    gen = data.draw(st.sampled_from(machine.gens.names))
    radius = data.draw(st.integers(0, 4 if len(machine.gens) > 3 else 7))
    assert cyclic_distortion(machine, gen, radius) == full_ball_distortion(machine, gen, radius)


FIXTURE_MACHINES = {stem: parse_group(load_fixture(f"{stem}.group"))[1] for stem in FIXTURE_STEMS}

# The fixtures and Z^3 keep their family names as ids; the rest add their
# generators, as in ``test_lookup_distortion_matches_the_full_ball``.
WALKED_MACHINES = [
    *FIXTURE_MACHINES.values(),
    FreeAbelianMachine(3),
    *LOOKUP_MACHINES,
    *sol_machines(4, 23),
    BSMachine(5),
    HeisenbergMachine(3),
]
WALKED_IDS = [
    m.family if i <= len(FIXTURE_MACHINES) else f"{m.family}:{','.join(m.gens.names)}"
    for i, m in enumerate(WALKED_MACHINES)
]


class TestPowerLookups:
    @pytest.mark.parametrize("stem, radius, gen", [
        ("nil2_ex3", 6, "s12"), ("heis_ex1", 10, "a3"), ("bs", 9, "b"), ("klein", 10, "x"), ("counter", 2, "beta"),
    ])
    def test_fixture_runs_match_the_full_ball(self, stem, radius, gen):
        machine = FIXTURE_MACHINES[stem]
        assert cyclic_distortion(machine, gen, radius) == full_ball_distortion(machine, gen, radius)

    @pytest.mark.parametrize("machine", WALKED_MACHINES, ids=WALKED_IDS)
    def test_lower_bound_never_falls_along_generator_powers(self, machine):
        """The contract of ``Machine.length_lower`` on every machine the
        lookups walk: for k <= 5000, length_lower(g^k) is nondecreasing and
        grows, until g^k returns to the identity.  A generator of order m is
        checked up to k = m / 2, past which the powers are inverses of
        earlier ones, and its bound is the exact length."""
        for i in range(len(machine.gens)):
            g = machine.gen_elem(i)
            x, powers = g, []
            while x != machine.identity and len(powers) < 5000:
                powers.append(x)
                x = machine.mul(x, g)
            seq = list(map(machine.length_lower, powers))
            if x == machine.identity:
                assert machine.length_exact and seq == list(map(machine.length_upper, powers))
                seq = seq[: (len(seq) + 1) // 2]
            else:
                assert seq[-1] > seq[0]
            assert all(a <= b for a, b in zip(seq, seq[1:])), machine.gens.names[i]

    @pytest.mark.parametrize("machine, radius", [
        *((FIXTURE_MACHINES[stem], 9) for stem in ("sol_ex1", "sol_ex3")),
        *((machine, 8) for machine in sol_machines(4, 23)),
    ], ids=["sol_ex1", "sol_ex3", "seeded0", "seeded1", "seeded2", "seeded3"])
    def test_sol_lookups_match_the_full_ball(self, machine, radius):
        # the torus powers end where the bound of the form v x Av passes the radius
        for gen in machine.gens.names:
            assert cyclic_distortion(machine, gen, radius) == full_ball_distortion(machine, gen, radius), gen

    @pytest.mark.parametrize("n, radius", [(2, 12), (3, 10), (4, 9), (5, 9)])
    def test_bs_walks_match_the_full_ball(self, n, radius, monkeypatch):
        # the walk stops on length_lower and reads each power's length from
        # length_upper, which may fall along the powers; nothing is searched
        machine = BSMachine(n)
        searches = count_calls(monkeypatch, ball_module, "_meet")
        for gen in machine.gens.names:
            assert cyclic_distortion(machine, gen, radius) == full_ball_distortion(machine, gen, radius), gen
        assert searches == []

    def test_cap_counts_the_powers_and_the_search(self):
        # in sol_ex1, a1, ..., a1^8 have lower bounds <= 6; their search
        # stores more
        sol = FIXTURE_MACHINES["sol_ex1"]
        with pytest.raises(ResourceCapExceeded, match="powers of a1"):
            cyclic_distortion(sol, "a1", 6, cap=7)
        with pytest.raises(ResourceCapExceeded, match="search exceeded cap 20"):
            cyclic_distortion(sol, "a1", 6, cap=20)
        cap = len(enumerate_ball(sol, 6).dist)
        assert cyclic_distortion(sol, "a1", 6, cap) == full_ball_distortion(sol, "a1", 6, cap)

    @pytest.mark.parametrize("stem, gen, radius", [
        ("klein", "x", 10), ("bs", "b", 10), ("heis_ex1", "a3", 12), ("sol_ex1", "a1", 8),
    ])
    def test_walk_bounds_are_evaluated_once(self, stem, gen, radius, monkeypatch):
        # the walk evaluates each power's bound once.  On a length_exact
        # machine each power's length is its length_upper and no search
        # runs; elsewhere the powers go straight to one search, whose table
        # may evaluate a power's bound once more, not twice
        machine = FIXTURE_MACHINES[stem]
        expected = full_ball_distortion(machine, gen, radius)
        searches = count_calls(monkeypatch, ball_module, "_meet")
        calls = count_calls(monkeypatch, machine, "length_lower")
        assert cyclic_distortion(machine, gen, radius) == expected
        counts = Counter(x for x, in calls)
        if machine.length_exact:
            assert searches == [] and set(counts.values()) == {1}
        else:
            assert len(searches) == 1
            powers = searches[0][1]
            assert max(counts[x] for x in powers) == 2 == max(counts.values())

    def test_finite_order_pads_past_the_longest_power(self, counter_machine):
        table = cyclic_distortion(counter_machine, "beta", 6)
        assert table.delta == (0,) + (1,) * 6 and table.witnesses == ("",) + ("beta",) * 6
        with pytest.raises(ResourceCapExceeded, match="distortion table of 7 rows exceeds cap 6"):
            cyclic_distortion(counter_machine, "beta", 6, cap=6)

    def test_negative_radius_is_refused(self, z2):
        with pytest.raises(ValidationError):
            word_length(z2, (0, 0), -1)
        with pytest.raises(ValidationError):
            cyclic_distortion(z2, "e1", -1)
        with pytest.raises(ValidationError):
            ball_counts(z2, -1)


SERIES_MACHINES = [
    (FreeAbelianMachine(1), 40),
    (FreeAbelianMachine(2), 30),
    (FreeAbelianMachine(3), 12),
    (FreeAbelianMachine(4), 8),
    (KleinMachine(), 40),
    (TorsionProductMachine(0, (2,)), 5),
    (TorsionProductMachine(0, (7,)), 9),
    (TorsionProductMachine(0, (4, 6)), 9),
    (TorsionProductMachine(0, (2, 3, 8, 9)), 14),
    (TorsionProductMachine(1, (4,)), 12),
    (TorsionProductMachine(2, (3, 10)), 9),
]


class TestSeriesCounts:
    @pytest.mark.parametrize("machine, radius", SERIES_MACHINES, ids=lambda x: getattr(x, "family", str(x)))
    def test_series_matches_the_ball(self, machine, radius):
        # finite products run past their diameter, sum(m // 2): rows repeat
        assert machine.coordinate_orders() is not None
        assert ball_counts(machine, radius) == enumerate_ball(machine, radius).counts

    @pytest.mark.parametrize("machine, radius", SERIES_MACHINES, ids=lambda x: getattr(x, "family", str(x)))
    @pytest.mark.parametrize("cap", [0, 1, 4, 30, 300])
    def test_cap_raises_as_the_ball_does(self, machine, radius, cap):
        def outcome(count):
            try:
                return count()
            except ResourceCapExceeded as exc:
                return str(exc), exc.completed_radius

        assert outcome(lambda: ball_counts(machine, radius, cap)) == outcome(
            lambda: enumerate_ball(machine, radius, cap).counts
        )

    def test_other_families_run_the_bfs(self, any_machine):
        if any_machine.sphere_sizes() is None:
            assert ball_counts(any_machine, 3) == enumerate_ball(any_machine, 3).counts

    @pytest.mark.parametrize("central", [True, False], ids=["k1:3", "k1:2"])
    def test_heisenberg_spheres_match_the_ball(self, central, monkeypatch):
        # the z interval of each (x, y) gives every count up to radius 18
        # of both generating sets with k = 1, and no ball is grown
        machine = HeisenbergMachine(1, central)
        counts = enumerate_ball(machine, 18).counts
        searched = count_calls(monkeypatch, ball_module, "_full_ball")
        assert [ball_counts(machine, r) for r in range(19)] == [counts[: r + 1] for r in range(19)]
        assert searched == []

    @pytest.mark.parametrize("central", [True, False], ids=["k1:3", "k1:2"])
    @pytest.mark.parametrize("cap", [0, 1, 6, 7, 100, 1199, 1200])
    def test_heisenberg_cap_raises_as_the_ball_does(self, central, cap):
        def outcome(count):
            try:
                return count()
            except ResourceCapExceeded as exc:
                return str(exc), exc.completed_radius

        machine = HeisenbergMachine(1, central)
        assert outcome(lambda: ball_counts(machine, 9, cap)) == outcome(lambda: enumerate_ball(machine, 9, cap).counts)

    def test_heisenberg_k2_runs_the_bfs(self, monkeypatch):
        # for k >= 2 the z within a length may leave gaps: no sizes, a search
        machine = HeisenbergMachine(2)
        assert machine.sphere_sizes() is None
        searched = count_calls(monkeypatch, ball_module, "_full_ball")
        assert ball_counts(machine, 6) == enumerate_ball(machine, 6).counts
        assert len(searched) == 2

    def test_huge_radius_is_linear(self):
        # counts[r] = 2r + 1 passes the default cap at r = 2,500,000, as the
        # BFS found after storing five million elements
        with pytest.raises(ResourceCapExceeded) as err:
            ball_counts(FreeAbelianMachine(1), 10**8)
        assert str(err.value) == "ball exceeded cap 5000000 while exploring radius 2500000"
        assert err.value.completed_radius == 2499999
        big = TorsionProductMachine(0, (10**12,))
        assert ball_counts(big, 3) == (1, 3, 5, 7)

    @pytest.mark.parametrize("order", [2**64, 2**64 + 1, 10**30])
    def test_torsion_order_past_a_machine_word(self, order):
        # the window holds order // 2 zeros, past a C-sized count from 2^64 on
        assert ball_counts(TorsionProductMachine(0, (order,)), 3) == (1, 3, 5, 7)
        product = TorsionProductMachine(1, (order, 3))
        assert ball_counts(product, 3) == enumerate_ball(product, 3).counts


def machine_id(machine):
    return f"{machine.family}:{','.join(machine.gens.names)}"


def reference_length(machine, target, radius):
    """|target| by a plain BFS over ``mul`` around it, or None beyond ``radius``."""
    return reference_ball(machine, radius, target).get(machine.identity)


@functools.lru_cache(maxsize=None)
def far_start(machine):
    """g0^3 g1^4 ...: a start off every axis, with a t, an |x|_1 or an e of
    its own on the families whose bounds read them."""
    x = machine.identity
    for i in range(len(machine.gens)):
        x = machine.mul(x, machine.pow(machine.gen_elem(i), 3 + i))
    return x


@functools.lru_cache(maxsize=None)
def small_ball(machine):
    return list(reference_ball(machine, 3))


# The machines whose codec has a finite depth, whose searches widen it, and
# those with the default codec, which never runs out
SEARCH_MACHINES = [*ALL_MACHINES, COMMUTING_NIL2]
WIDENED = [m for m in SEARCH_MACHINES if m.codec((m.identity,), 1).depth < math.inf]
UNPACKED = [m for m in SEARCH_MACHINES if m not in WIDENED]

# six seeded Sol holonomies and BS(1, n), n = 2..5, at the least radius at
# which the last sphere expanded holds more than 2 * _CHUNK elements
PACKED_BALLS = [*zip(sol_machines(6, 31), (7, 6, 7, 6, 6, 6)), *zip(map(BSMachine, (2, 3, 4, 5)), (9, 8, 7, 7))]


class TestPackedKernel:
    """Searches on packed keys against plain searches over ``mul`` on
    normal forms."""

    @pytest.mark.parametrize("machine, radius", PACKED_BALLS, ids=[machine_id(m) for m, _ in PACKED_BALLS])
    def test_full_ball_matches_reference(self, machine, radius):
        reference = reference_ball(machine, radius)
        assert expanded_sizes(reference, radius)[-1] > 2 * ball_module._CHUNK
        ball = enumerate_ball(machine, radius)
        assert ball.dist == reference
        assert ball.counts == ball_counts(machine, radius) == tuple(
            sum(d <= r for d in reference.values()) for r in range(radius + 1)
        )

    @pytest.mark.parametrize("machine", WIDENED, ids=machine_id)
    def test_searches_widen_their_codec(self, machine, monkeypatch):
        # a first codec of depth 1: every search re-encodes all its sides
        # into codecs of depth 2, 4, ... as they grow
        widened = count_calls(monkeypatch, ball_module, "_widen")
        monkeypatch.setattr(ball_module, "_FIRST_DEPTH", 1)
        radius = 4 if len(machine.gens) > 3 else 5
        reference = reference_ball(machine, radius + 1)
        assert enumerate_ball(machine, radius).dist == {x: d for x, d in reference.items() if d <= radius}
        assert len(widened) >= 2
        rng = random.Random(radius)
        targets = rng.sample(sorted(reference), min(40, len(reference)))
        expected = [reference[x] if reference[x] <= radius else None for x in targets]
        assert word_lengths(machine, targets, radius) == expected

    @pytest.mark.parametrize("machine", UNPACKED, ids=machine_id)
    def test_default_codec_never_widens(self, machine, monkeypatch):
        # keys are normal forms, exact at every depth, so neither search
        # re-encodes; word_lengths answers these families by length_upper,
        # so the targets go to the bidirectional search directly
        widened = count_calls(monkeypatch, ball_module, "_widen")
        monkeypatch.setattr(ball_module, "_FIRST_DEPTH", 1)
        radius = 4 if len(machine.gens) > 3 else 5
        reference = reference_ball(machine, radius + 1)
        assert enumerate_ball(machine, radius).dist == {x: d for x, d in reference.items() if d <= radius}
        rng = random.Random(radius)
        targets = rng.sample(sorted(reference.keys() - {machine.identity}), min(40, len(reference) - 1))
        expected = {x: reference[x] if reference[x] <= radius else None for x in targets}
        assert ball_module._meet(machine, targets, radius, ball_module.DEFAULT_CAP, 0) == expected
        assert widened == []

    @pytest.mark.parametrize("machine", ALL_MACHINES, ids=machine_id)
    def test_targets_at_the_bound(self, machine):
        # each target's lower bound is the radius, so its side expands only
        # points of a geodesic, or nothing
        radius = 3 if len(machine.gens) > 3 else 5
        lower = machine.length_upper if machine.length_exact else machine.length_lower
        targets = [x for x in reference_ball(machine, radius + 2) if lower(x) == radius][:12]
        assert targets
        assert word_lengths(machine, targets, radius) == [reference_length(machine, x, radius) for x in targets]

    @pytest.mark.parametrize("machine", [FIXTURE_MACHINES["sol_ex1"], *sol_machines(2, 31)], ids=machine_id)
    def test_sol_torus_vectors_far_out(self, machine):
        # A^m e1 = tau^m a1 tau^-m: a small bound, coordinates of about
        # m log2(alpha) bits, and a v0 field as wide
        targets = []
        for m in (1, 2, 3, 10, 50, 200):
            x = machine.mul(machine.mul((0, 0, m), (1, 0, 0)), (0, 0, -m))
            assert machine.length_lower(x) <= 4
            targets += [x, machine.inv(x), machine.mul(x, (0, 0, 1))]
        lengths = word_lengths(machine, targets, 6)
        assert lengths == [reference_length(machine, x, 6) for x in targets]
        assert None not in lengths[:3] and lengths[-3:] == [None] * 3

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_bs_targets_at_the_radius(self, n):
        # b-parts 1 / n^e with e up to the radius, at heights around e
        machine, radius = BSMachine(n), 7
        targets = [
            (num, e, t)
            for e in (radius - 2, radius - 1, radius)
            for t in (0, e - 1, e, e + 1)
            for num in (1, -1, n + 1, 2 * n - 1)
            if num % n
        ]
        lengths = word_lengths(machine, targets, radius)
        assert lengths == [reference_length(machine, x, radius) for x in targets]
        assert lengths.count(None) < len(targets)

    @pytest.mark.parametrize("machine", [*ALL_MACHINES, COMMUTING_NIL2, *sol_machines(2, 31)], ids=machine_id)
    def test_the_box_holds_the_search(self, machine):
        # every element within the depth of a start stays in the box the
        # codec declares, each coordinate between its two ends
        depth = 3 if len(machine.gens) > 3 else 4
        starts = (machine.identity, far_start(machine))
        codec = machine.codec(starts, depth)
        for start in starts:
            for x in reference_ball(machine, depth, start):
                assert all(span is None or span[0] <= v <= span[1] for v, span in zip(x, codec.box)), x


def generator_powers(machine, gen, radius):
    """g, g^2, ... while ``length_lower`` stays within ``radius``: the targets
    of a ``distortion`` search on a machine of infinite order g."""
    g = machine.gen_elem(machine.gens.index(gen))
    powers = [g]
    while machine.length_lower(powers[-1]) <= radius:
        powers.append(machine.mul(powers[-1], g))
    return powers[:-1]


def traced_meet(monkeypatch, machine, targets, radius):
    """``_meet`` on ``targets`` with its work recorded: the lengths found,
    the sides in the order built (the identity's first), the elements whose
    ``length_lower`` was evaluated, in order, and per grow of a target side
    the sphere it expanded, decoded, whether that grow was the side's last
    (the depths then reach ``radius``), and the elements it evaluated."""
    sides, calls, grows = [], [], []
    init, grow, lower = ball_module._Frontier.__init__, ball_module._Frontier.grow, machine.length_lower

    def recorded_init(side, *args, **kwargs):
        init(side, *args, **kwargs)
        sides.append(side)

    def recorded_grow(side, *args):
        home, before = sides[0], len(calls)
        sphere = list(map(side.codec.decode, side.last))
        last = home.depth + side.depth + 1 >= radius
        grown = grow(side, *args)
        if side is not home:
            grows.append((sphere, last, calls[before:]))
        return grown

    def counted(x):
        calls.append(x)
        return lower(x)

    monkeypatch.setattr(ball_module._Frontier, "__init__", recorded_init)
    monkeypatch.setattr(ball_module._Frontier, "grow", recorded_grow)
    monkeypatch.setattr(machine, "length_lower", counted)
    found = ball_module._meet(machine, targets, radius, ball_module.DEFAULT_CAP, 0)
    return found, sides, calls, grows


# (fixture, generator, radius): the search of ``distortion`` on the powers,
# with more than one target side and no re-encoding
BOUND_SEARCHES = [("heis_nil2", "a3", 14), ("bs", "b", 10), ("nil2_ex3", "s12", 8)]


class TestBoundTable:
    """A search with several target sides evaluates ``length_lower`` once per
    element into one table, and none on a side's last sphere."""

    @pytest.mark.parametrize("stem, gen, radius", BOUND_SEARCHES)
    def test_one_bound_per_element(self, stem, gen, radius, monkeypatch):
        machine = machine_named(stem)
        targets = generator_powers(machine, gen, radius)
        expected = dict(zip(targets, word_lengths(machine, targets, radius)))
        found, sides, calls, grows = traced_meet(monkeypatch, machine, targets, radius)
        assert found == expected
        assert len(targets) > 1 and all(side.bounds is sides[1].bounds is not None for side in sides[1:])
        expanded = [x for sphere, last, _ in grows if not last for x in sphere]
        # several sides expand the same elements, whose bound is evaluated once
        assert len(set(expanded)) < len(expanded)
        assert sorted(calls) == sorted(set(expanded))

    @pytest.mark.parametrize("stem, gen, radius", BOUND_SEARCHES)
    def test_no_bound_on_the_last_sphere(self, stem, gen, radius, monkeypatch):
        machine = machine_named(stem)
        targets = generator_powers(machine, gen, radius)
        expected = dict(zip(targets, word_lengths(machine, targets, radius)))
        found, _, calls, grows = traced_meet(monkeypatch, machine, targets, radius)
        assert found == expected
        assert calls and any(sphere for sphere, last, _ in grows if last)
        assert all(made == [] for _, last, made in grows if last)

    @pytest.mark.parametrize("stem, gen, radius", BOUND_SEARCHES)
    def test_one_target_builds_no_table(self, stem, gen, radius, monkeypatch):
        # each element sits in one sphere of the one side
        machine = machine_named(stem)
        target = generator_powers(machine, gen, radius)[-1]
        expected = word_length(machine, target, radius)
        found, sides, calls, grows = traced_meet(monkeypatch, machine, [target], radius)
        assert found == {target: expected}
        assert len(sides) == 2 and sides[1].bounds is None
        assert calls == [x for sphere, last, _ in grows if not last for x in sphere]

    @pytest.mark.parametrize("machine", WIDENED, ids=machine_id)
    def test_table_follows_the_codec(self, machine, monkeypatch):
        # a first codec of depth 1: the search re-encodes every key at depths
        # 1, 2, 4, ..., and each bound the table holds, before and after every
        # grow, is that of its key decoded by the codec of the moment
        monkeypatch.setattr(ball_module, "_FIRST_DEPTH", 1)
        lower, grow, widen = machine.length_lower, ball_module._Frontier.grow, ball_module._widen
        held = []  # the table's size at each re-encoding

        def check(side):
            for x, bound in (side.bounds or {}).items():
                assert bound == lower(side.codec.decode(x))

        def checked_grow(side, *args):
            check(side)
            grown = grow(side, *args)
            check(side)
            return grown

        def counted_widen(machine, sides):
            held.extend(len(side.bounds) for side in sides if side.bounds is not None)
            widen(machine, sides)

        monkeypatch.setattr(ball_module._Frontier, "grow", checked_grow)
        monkeypatch.setattr(ball_module, "_widen", counted_widen)
        radius = 4 if len(machine.gens) > 3 else 5
        reference = reference_ball(machine, radius + 1)
        rng = random.Random(radius)
        # few targets, so that the identity's side stops growing while they
        # are far from their last spheres
        targets = rng.sample(sorted(reference.keys() - {machine.identity}), 6)
        expected = {x: reference[x] if reference[x] <= radius else None for x in targets}
        assert ball_module._meet(machine, targets, radius, ball_module.DEFAULT_CAP, 0) == expected
        assert max(held) > 0


@pytest.mark.parametrize("machine", ALL_MACHINES, ids=machine_id)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_keys_round_trip_at_the_box_corners(machine, data):
    """decode(encode(x)) == x at every corner of the box of a codec built
    from random starts and depth, and each packed step there is the key of
    the product by ``mul``."""
    starts = data.draw(st.lists(st.sampled_from([*small_ball(machine), far_start(machine)]), min_size=1, max_size=3))
    codec = machine.codec(starts, data.draw(st.integers(0, 40)))
    corners = box_corners(machine, codec)
    assert corners
    check_packed_steps(machine, codec, corners)
