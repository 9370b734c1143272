"""Cayley balls by breadth-first search, sphere counts by series, iterate-length
tables, growth estimation, and subgroup distortion profiles.

BFS hashes normal forms, never words, so lengths are exact geodesic distances
and deduplication is automatic.  One class, ``_Frontier``, grows every ball:
a ball around a start element, one sphere at a time.  It steps the last
sphere in chunks of up to ``_CHUNK`` elements through ``Machine.steps()``:
right multiplication by g0, g0^-1, g1, ..., made once per search and shared
by all its balls.  Each step maps the coordinate columns of a whole chunk
in closed form, without a call to ``mul``, so a Cayley-graph edge costs one
``seen`` probe and a share of a list comprehension, not a Python call.
Discovery order is fixed: element by element, step by step.

``enumerate_ball`` grows one ball around the identity, and the ``distortion``
of a general subgroup reads it.  ``word_lengths`` finds the lengths of given
targets: an exact functional or a lower bound answers some before any
search, and the rest share one ball around the identity while each grows its
own, until each meets the identity's or runs out of radius.  Balls of about
half the radius thus replace one of the full radius.  ``word_length`` is its
one-target case, and ``L_k_table`` makes one call for all its iterate images.
Completed balls are immutable and safe to share.

Two commands need no full ball where the family allows it.  ``ball_counts``
sums a series on machines whose word length is a sum of per-coordinate
lengths (``Machine.coordinate_orders``: free abelian, abelian with torsion,
Klein), and runs the BFS elsewhere.  ``cyclic_distortion`` looks the powers
g, g^2, ... of its generator up with one ``word_lengths`` call, as far as a
lower bound monotone in the exponent allows (``Machine.powers_lower_monotone``;
all families but Sol), and reads the full ball elsewhere.

A target's ball is pruned by ``Machine.length_lower``: an element y at
distance r from the target is stored but not expanded when
length_lower(y) + r exceeds the radius, since no path of length <= radius
from the identity to the target runs through it.  Geodesics to targets
within the radius pass that test at every point, so the lengths found stay
exact, and a pruned element can only take part in meetings along real
paths, so it never yields a false length (``_meet`` gives the proof).
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections import deque
from itertools import accumulate, chain, repeat
from typing import Callable, NamedTuple, Optional

from .errors import CertificationError, ResourceCapExceeded, ValidationError
from .words import ValidEndo, apply_on_element, word_str

__all__ = [
    "DEFAULT_CAP",
    "Ball",
    "ClosedForm",
    "GrowthEstimate",
    "GrowthSummary",
    "DistortionTable",
    "enumerate_ball",
    "ball_counts",
    "counts_csv",
    "word_length",
    "word_lengths",
    "L_k_table",
    "gr_estimate",
    "distortion",
    "cyclic_distortion",
]

DEFAULT_CAP = 5_000_000

# _Frontier.grow steps this many elements of a sphere at a time
_CHUNK = 256


class Ball(NamedTuple):
    """All elements of word length <= radius with their exact lengths.

    ``counts[r]`` is the cumulative number of elements of length <= r.
    """

    radius: int
    dist: dict
    counts: tuple[int, ...]

    def __contains__(self, elem):
        return elem in self.dist

    def length(self, elem) -> Optional[int]:
        return self.dist.get(elem)

    def to_csv(self) -> str:
        return counts_csv(self.counts)


def _csv(rows) -> str:
    """The CSV table of ``ball`` and ``distortion``, one row per radius."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["n", "count", "delta", "witness"])
    w.writerows(rows)
    return out.getvalue()


def counts_csv(counts) -> str:
    """``ball --format csv``: the cumulative count of each radius."""
    return _csv([n, c, "", ""] for n, c in enumerate(counts))


def _pad_rows(rows: list, radius: int, cap: int, what: str) -> list:
    """``rows``, one per radius 0..done with the last one final, repeated up
    to the ``radius + 1`` rows of a table.  The repeated rows count against
    ``cap``: ResourceCapExceeded, with ``completed_radius`` done, when
    ``radius`` reaches ``cap`` or the rows do not fit in memory."""
    done = len(rows) - 1
    if radius > done and radius >= cap:
        why = f"exceeds cap {cap}"
    else:
        try:
            rows += [rows[-1]] * (radius - done)
            return rows
        except (MemoryError, OverflowError):
            why = "does not fit in memory"
    raise ResourceCapExceeded(f"{what} table of {radius + 1} rows {why}", completed_radius=done)


class _Frontier:
    """A ball around ``start`` grown one sphere at a time, out to ``radius``:
    ``seen`` maps each element found to its distance from ``start``, and
    ``last`` is sphere ``depth``.

    Every element found goes into ``seen`` in discovery order: each element
    of sphere r - 1 in order, times each of ``steps`` in order.  ``grow``
    takes the sphere ``_CHUNK`` elements at a time: it transposes a chunk
    into coordinate columns once, has each step map the whole chunk, and
    interleaves the products element by element, so the order is the same.

    With a lower bound ``lower`` on word length, sphere r + 1 is built only
    from the x in sphere r with lower(x) + r <= radius.  A word for x
    followed by the r steps back to ``start`` is at least lower(x) + r long,
    so a skipped x extends no path from the identity to ``start`` of length
    <= radius.  The bound is read when x is expanded, never for the last
    sphere.  Skipped elements stay in ``seen`` and in their sphere.  A
    distance in ``seen`` is then the length of some path from ``start``,
    maybe not the shortest.  Yet each y with |y| + d(start, y) <= radius
    gets its exact distance: every point x of a shortest path from
    ``start`` to y has |x| + d(start, x) <= |y| + d(start, y), so each is
    expanded in turn.
    """

    __slots__ = ("steps", "radius", "lower", "seen", "last", "depth")

    def __init__(self, steps: list, start, radius: int, lower: Optional[Callable] = None):
        self.steps = steps
        self.radius = radius
        self.lower = lower
        self.seen = {start: 0}
        self.last = [start]
        self.depth = 0

    def grow(self, cap: int) -> bool:
        """Add the next sphere, storing at most ``cap`` elements in all;
        False, with nothing changed, at ``radius`` or when the next sphere
        is empty.  When ``seen`` holds more than ``cap`` after a chunk,
        ResourceCapExceeded with the last full radius.  As ``seen`` only
        grows, that is the radius at which a check after every new element
        would raise."""
        r = self.depth
        if r >= self.radius:
            return False
        sphere = self.last
        if self.lower is not None:
            slack, lower = self.radius - r, self.lower
            sphere = [x for x in sphere if lower(x) <= slack]
        r += 1
        seen, steps = self.seen, self.steps
        nxt = []
        for i in range(0, len(sphere), _CHUNK):
            cols = tuple(zip(*sphere[i : i + _CHUNK]))
            for y in chain.from_iterable(zip(*[step(cols) for step in steps])):
                if y not in seen:
                    seen[y] = r
                    nxt.append(y)
            if len(seen) > cap:
                raise ResourceCapExceeded(f"exceeded cap {cap} at radius {r}", completed_radius=r - 1)
        if not nxt:
            return False
        self.depth, self.last = r, nxt
        return True


def enumerate_ball(machine, radius: int, cap: int = DEFAULT_CAP) -> Ball:
    """Exact geodesic lengths for every element within ``radius``.

    Raises ResourceCapExceeded, with the last full radius as
    ``completed_radius``, when more than ``cap`` elements would be stored,
    or when a finite group runs out of elements and the ``radius + 1`` rows
    of ``counts`` would exceed ``cap`` or not fit in memory.
    """
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    ball = _Frontier(machine.steps(), machine.identity, radius)
    counts = [1]
    try:
        while ball.grow(cap):
            counts.append(len(ball.seen))
    except ResourceCapExceeded as exc:
        done = exc.completed_radius
        raise ResourceCapExceeded(
            f"ball exceeded cap {cap} while exploring radius {done + 1}", completed_radius=done
        ) from None
    # a finite group may run out of elements before the radius
    return Ball(radius, ball.seen, tuple(_pad_rows(counts, radius, cap, "ball")))


def ball_counts(machine, radius: int, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """The ``counts`` of ``enumerate_ball(machine, radius, cap)``, from the
    BFS or, storing no element, from a series.

    The series applies where ``machine.coordinate_orders()`` gives cyclic
    coordinates whose lengths add up to the word length.  The sphere sizes
    are then the coefficients of the product of the coordinates' sphere
    series (``_sphere_sizes``), at O(1) work per coordinate and radius.  The
    BFS would store element cap + 1 at the first radius r >= 1 whose count
    exceeds ``cap``; the series stops there with the BFS's
    ResourceCapExceeded message and completed radius, and a finite group
    pads its rows under the same rule.
    """
    orders = machine.coordinate_orders()
    if orders is None:
        return enumerate_ball(machine, radius, cap).counts
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    counts = []
    total = 0
    for r, size in enumerate(_sphere_sizes(orders)):
        total += size
        if r and total > cap:
            raise ResourceCapExceeded(f"ball exceeded cap {cap} while exploring radius {r}", completed_radius=r - 1)
        counts.append(total)
        if r == radius:
            break
    return tuple(_pad_rows(counts, radius, cap, "ball"))


def _sphere_sizes(orders):
    """Sphere sizes at radius 0, 1, ... of a product of cyclic coordinates
    of the given orders (0 for Z) under the sum of coordinate lengths,
    ending at the last nonempty sphere of a finite product."""
    sizes = iter((1,))
    for m in orders:
        sizes = _times_cyclic(sizes, m)
    return sizes


def _times_cyclic(sizes, m: int):
    """Sphere sizes y of G x Z/m (Z when m = 0) from those, x, of G.

    The spheres of Z/m under min(r, m - r) have sizes 1, 2, ..., 2 up to
    radius h = m // 2, with a last 1 in place of 2 when m is even; those of
    Z have sizes 1, 2, 2, ....  So y_r = x_r + 2 (x_(r-1) + ... + x_(r-h))
    - [m even] x_(r-h), a sliding window sum.  On Z the window never drops
    a term: multiplying the series by (1 + x) / (1 - x) is one step and one
    running sum per radius."""
    window = 0
    if m == 0:
        # endless: the caller takes as many sizes as it needs
        for x in chain(sizes, repeat(0)):
            yield x + 2 * window
            window += x
    h, even = m // 2, m % 2 == 0
    last = deque()  # x_(r-h) .. x_(r-1), once r >= h
    for x in chain(sizes, (0 for _ in range(h))):
        edge = last.popleft() if len(last) == h else 0
        yield x + 2 * window - (edge if even else 0)
        window += x - edge
        last.append(x)


def word_lengths(machine, targets, radius: int, cap: int = DEFAULT_CAP, held: int = 0) -> list[Optional[int]]:
    """Exact geodesic length of each target, or None where it lies beyond
    ``radius``.

    Answered before any search: the identity (0), a target whose
    ``length_lower`` exceeds ``radius`` (None), and every target of a
    ``length_exact`` machine (``length_upper`` within ``radius``, else None).
    The rest, deduplicated, go to one multi-target bidirectional search: one
    ball around the identity, shared, and one around each target, pruned by
    ``length_lower`` as ``_Frontier`` describes.  The identity grows next
    while its last sphere is no larger than the sum of the unresolved
    targets' last spheres; otherwise each unresolved target grows one
    sphere.  A target resolves at the first sphere that meets the
    other side, with length r + min(distance on the other side), and is None
    once its depth plus the identity's reaches ``radius``, or once its side
    has nothing left to expand.

    ``cap`` bounds the elements stored by the identity side and the
    unresolved targets together, plus the ``held`` ones the caller stores.
    Past it, ResourceCapExceeded carries as ``completed_radius`` the least
    sum of the identity's depth and an unresolved target's: every
    unresolved length is known to exceed it.
    """
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    found = {}
    pending = []
    exact = machine.length_exact
    for x in dict.fromkeys(targets):
        if x == machine.identity:
            found[x] = 0
        elif machine.length_lower(x) > radius:
            found[x] = None
        elif exact:
            length = machine.length_upper(x)
            found[x] = length if length <= radius else None
        else:
            pending.append(x)
    if pending:
        found.update(_meet(machine, pending, radius, cap, held))
    return [found[x] for x in targets]


def _meet(machine, targets, radius: int, cap: int, held: int) -> dict:
    """{target: length or None} by the search ``word_lengths`` describes;
    the targets are distinct and none is the identity.

    Each target side prunes with ``machine.length_lower``.  The identity's
    side, shared by all targets, does not.

    The lengths stay exact.  Take a target g with |g| = L <= radius and a
    geodesic from the identity to g.  Its point y at distance j from g has
    |y| + j = L <= radius, so, by induction on j, g's side expands it at
    depth j and stores the next point at depth j + 1.  Let D_h and D_g be
    the depths of the two sides before a step in which they have not met.
    The identity's ball holds the geodesic's points up to distance D_h from
    the identity and g's ball those up to distance D_g from g, so
    D_h + D_g < L, or some point would lie in both.  The step grows one side
    by a sphere.  A meeting in it is a real path from the identity through
    the common element to g, of length at most D_h + D_g + 1 <= L, so of
    length exactly L.  The element may have been pruned, or stored at more
    than its distance from g; a meeting is still a path, so pruning never
    gives a false length.

    Sides grow only while their depths sum to less than ``radius``, so a
    target beyond ``radius`` meets nothing and closes as None when the sum
    reaches it.  Its side may also run out of spheres first, because every
    element of its last sphere is pruned or leads only to stored elements.
    Then g is beyond ``radius`` too, because for L <= radius the geodesic
    point at distance D_g + 1 from g would be new, and g closes as None.
    The identity's side never runs out while a target is open: a complete
    ball holds the whole (finite) group, so it met every target first."""
    found = {}
    steps, lower = machine.steps(), machine.length_lower
    home = _Frontier(steps, machine.identity, radius)
    open_ = {x: _Frontier(steps, x, radius, lower) for x in targets}
    stored = held + len(home.seen) + len(open_)
    rims = len(open_)  # the sizes of the open targets' last spheres, summed

    def close(x, length):
        nonlocal stored, rims
        found[x] = length
        side = open_.pop(x)
        stored -= len(side.seen)
        rims -= len(side.last)

    def grow(side) -> bool:
        nonlocal stored, rims
        before, rim = len(side.seen), len(side.last)
        try:
            grown = side.grow(cap - (stored - before))
        except ResourceCapExceeded:
            done = min(home.depth + s.depth for s in open_.values())
            raise ResourceCapExceeded(
                f"search exceeded cap {cap} at radius {done + 1}", completed_radius=done
            ) from None
        stored += len(side.seen) - before
        if side is not home:
            rims += len(side.last) - rim
        return grown

    while True:
        for x, side in list(open_.items()):
            if home.depth + side.depth >= radius:
                close(x, None)
        if not open_:
            return found
        if len(home.last) <= rims:
            grow(home)
            # with several targets, a set lets each intersection scan the
            # smaller side; one target scans the sphere once, as a list
            sphere = home.last if len(open_) == 1 else set(home.last)
            for x, side in list(open_.items()):
                common = side.seen.keys() & sphere
                if common:
                    close(x, home.depth + min(side.seen[y] for y in common))
        else:
            for x, side in list(open_.items()):
                if not grow(side):
                    close(x, None)
                elif not home.seen.keys().isdisjoint(side.last):
                    close(x, side.depth + min(home.seen[y] for y in side.last if y in home.seen))


def word_length(machine, elem, radius: int, cap: int = DEFAULT_CAP) -> Optional[int]:
    """Exact geodesic length of ``elem``, or None if it lies beyond ``radius``:
    ``word_lengths`` with one target."""
    return word_lengths(machine, [elem], radius, cap)[0]


def _root(num: int, den: int, k: int) -> float:
    """(num / den)^(1/k) as a float, also for num / den beyond float range;
    CertificationError when the root is beyond it too."""
    try:
        return (num / den) ** (1.0 / k)
    except OverflowError:
        pass
    try:
        return math.exp((math.log(num) - math.log(den)) / k)
    except OverflowError:
        raise CertificationError("growth estimate beyond float range") from None


def _kth_root(length: int, k: int) -> float:
    return _root(length, 1, k) if length > 0 else 0.0


def _trend(seq) -> Optional[float]:
    """sqrt(L_k / L_(k-2)) of the last entries; None with fewer than three
    entries or L_(k-2) = 0."""
    return _root(seq[-1], seq[-3], 2) if len(seq) >= 3 and seq[-3] > 0 else None


class ClosedForm(NamedTuple):
    """A closed-form growth rate: its value, the method that gives it, and
    the certificate a report prints."""

    value: float
    method: str
    certificate: dict


class GrowthEstimate(NamedTuple):
    """Table k -> max generator-image length, with per-entry provenance.

    ``exact`` entries are BFS geodesics or values of an exact family length
    functional (certified); the rest are honest word-construction upper
    bounds from the family length functional.
    """

    gen_names: tuple[str, ...]
    ks: tuple[int, ...]
    per_gen: dict
    lengths: tuple[int, ...]
    exact: tuple[bool, ...]
    method: str


class GrowthSummary(NamedTuple):
    roots: tuple[float, ...]  # L_k^(1/k), one per row
    running_inf: tuple[float, ...]  # min of the roots up to each row
    trend: Optional[float]
    estimate: float
    certified_upper: bool
    per_gen: dict
    direction: str  # "decreasing" | "flat"


def gr_estimate(table: GrowthEstimate) -> GrowthSummary:
    """Summary of a length table: running infimum of k-th roots, a two-step
    ratio trend estimate, and the headline growth-rate estimate.

    With exact entries the running infimum is a certified upper bound for the
    growth rate at every k.  The trend sqrt(L_k / L_(k-2)) converges for
    geometric-times-polynomial length growth and corrects the slow k-th-root
    convergence of linear tables; the headline estimate is the smaller of the
    two.  Upper-bound entries make both heuristic, which reports must flag.
    """
    if not table.ks:
        raise ValidationError("empty growth table")
    roots = tuple(_kth_root(l, k) for k, l in zip(table.ks, table.lengths))
    runinf = tuple(accumulate(roots, min))
    final_inf = runinf[-1]
    if any(l == 0 for l in table.lengths):
        # some power sends every generator to the identity: growth rate 0
        return GrowthSummary(roots, runinf, None, 0.0, all(table.exact), {}, "decreasing")
    trend = _trend(table.lengths)
    estimate = final_inf if trend is None else min(final_inf, trend)
    per_gen = {}
    for name in table.gen_names:
        seq = table.per_gen[name]
        per_gen[name] = {"root": _kth_root(seq[-1], table.ks[-1]), "trend": _trend(seq)}
    mid = runinf[len(runinf) // 2]
    direction = "decreasing" if final_inf < mid - 1e-12 else "flat"
    return GrowthSummary(roots, runinf, trend, estimate, all(table.exact), per_gen, direction)


def L_k_table(
    valid: ValidEndo,
    kmax: int = 16,
    radius: int = 10,
    cap: int = DEFAULT_CAP,
) -> GrowthEstimate:
    """Iterate-length table L_k = max_i length(phi^k(s_i)) for k = 1..kmax.

    Lengths are exact geodesics (``word_lengths`` over all kmax rows of
    images at once) whenever the image lies within ``radius``, otherwise the
    family length functional's value, flagged per entry as exact when the
    machine declares ``length_exact``.  An L_k entry is exact when its
    maximal value is exact and dominates every upper-bound entry of the same
    row.
    """
    if kmax < 1:
        raise ValidationError("kmax must be >= 1")
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    machine, images = valid.machine, valid.images
    rows = [list(images)]
    for _ in range(kmax - 1):
        rows.append([apply_on_element(machine, images, x) for x in rows[-1]])
    found = iter(word_lengths(machine, [x for row in rows for x in row], radius, cap))
    names, exact = machine.gens.names, machine.length_exact
    per_gen = {n: [] for n in names}
    lengths = []
    exact_flags = []
    for current in rows:
        row = []
        for name, x in zip(names, current):
            val = next(found)
            if val is not None:
                is_exact = True
            else:
                val, is_exact = machine.length_upper(x), exact
            per_gen[name].append(val)
            row.append((val, is_exact))
        l_k = max(v for v, _ in row)
        # exact iff an exact entry attains the max: upper-bound entries
        # below it cannot raise the true maximum
        row_exact = any(e and v == l_k for v, e in row)
        lengths.append(l_k)
        exact_flags.append(row_exact)
    return GrowthEstimate(
        names,
        tuple(range(1, kmax + 1)),
        per_gen,
        tuple(lengths),
        tuple(exact_flags),
        "bfs+length_functional",
    )


class DistortionTable(NamedTuple):
    """n -> max inner length over subgroup elements of ambient length <= n."""

    ns: tuple[int, ...]
    delta: tuple[int, ...]
    witnesses: tuple[str, ...]  # canonical word of an attaining element

    def to_csv(self) -> str:
        return _csv([n, "", d, wit] for n, d, wit in zip(self.ns, self.delta, self.witnesses))


def distortion(
    machine,
    membership: Callable,
    inner_length: Callable,
    radius: int,
    cap: int = DEFAULT_CAP,
) -> DistortionTable:
    """Distortion profile of a subgroup given an exact inner length function.

    Witnesses are tie-broken by lexicographically least canonical word.
    Only the radii the ball reached get a bucket: past them, on a finite
    group, each row repeats the last.
    """
    ball = enumerate_ball(machine, radius, cap)
    # discovery order puts an element of the largest distance last
    per_radius = [[] for _ in range(next(reversed(ball.dist.values())) + 1)]
    for elem, d in ball.dist.items():
        if membership(elem):
            per_radius[d].append(elem)
    ns, deltas, witnesses = [], [], []
    best = 0
    best_witness = ""
    for n in range(radius + 1):
        for elem in per_radius[n] if n < len(per_radius) else ():
            val = inner_length(elem)
            key = word_str(machine.decompose(elem), machine.gens)
            if val > best:
                best, best_witness = val, key
            elif val == best and key < best_witness:
                best_witness = key
        ns.append(n)
        deltas.append(best)
        witnesses.append(best_witness)
    return DistortionTable(tuple(ns), tuple(deltas), tuple(witnesses))


def cyclic_distortion(machine, gen_name: str, radius: int, cap: int = DEFAULT_CAP) -> DistortionTable:
    """Distortion of the cyclic subgroup generated by one generator g: the
    table of ``distortion``, whose members are the powers of g.

    g^k and g^-k have the same length and inner length, so delta(n) is the
    largest inner length of a g^k, k >= 1, with |g^k| <= n, and its witness
    is the lesser canonical word of g^k and g^-k.  Where
    ``machine.powers_lower_monotone`` holds, one ``word_lengths`` call looks
    up g, g^2, ..., g^K: it stops before g^k is the identity or has
    lower(g^k) > radius, with lower the exact ``length_upper`` on
    ``length_exact`` machines and ``length_lower`` elsewhere.  No later
    power lies within the radius, as lower(g^k) never falls as k grows:

    - free abelian and Klein: g^k moves one coordinate to k, of length k;
      so does a free generator of a torsion product, and one of order m has
      length min(k, m - k), nondecreasing up to k = m / 2, past which
      g^k = g^-(m - k) repeats an earlier pair;
    - Heisenberg and nilpotent2: g^k has one coordinate k and the others 0.
      An a1, a2 or tau power has |m| + |n| = k (or |x|_1 = k), and both
      Heisenberg bounds are then k.  A central power has one central
      coordinate k, and every bound is a least length whose reach in that
      coordinate is at least k, nondecreasing in k;
    - Baumslag-Solitar: a^k = (0, 0, k) has the bound k, and b^k = (k, 0, 0)
      the least over H of 2H + ceil(k / n^H), each term nondecreasing in k;
    - Sol: length_lower(a1^k) = |t| = 0 for every k, so no K exists, and
      the table reads the full ball.

    Each of these bounds grows without limit with k, so K is finite.  ``cap``
    counts the powers stored plus the elements the search stores.  Rows past
    the longest power found repeat it, under the rule of ``_pad_rows``.
    """
    index = machine.gens.index(gen_name)
    inner = functools.partial(machine.cyclic_inner_length, index)
    if not machine.powers_lower_monotone:
        return distortion(machine, lambda elem: inner(elem) is not None, inner, radius, cap)
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    lower = machine.length_upper if machine.length_exact else machine.length_lower
    step = machine.steps()[2 * index]
    powers = []
    (x,) = step(tuple(zip(machine.identity)))  # a one-element chunk
    while x != machine.identity and lower(x) <= radius:
        if len(powers) >= cap:
            raise ResourceCapExceeded(
                f"distortion exceeded cap {cap} with the powers of {gen_name} within radius {radius}"
            )
        powers.append(x)
        (x,) = step(tuple(zip(x)))
    best_at = {}  # length -> (inner length, power) of the largest inner length
    for x, length in zip(powers, word_lengths(machine, powers, radius, cap, held=len(powers))):
        val = inner(x)
        if length is not None and val > best_at.get(length, (0,))[0]:
            best_at[length] = (val, x)
    rows = [(0, "")]
    for n in range(1, max(best_at, default=0) + 1):
        val, x = best_at.get(n, (0, None))
        if val > rows[-1][0]:
            rows.append((val, min(word_str(machine.decompose(y), machine.gens) for y in (x, machine.inv(x)))))
        else:
            rows.append(rows[-1])
    deltas, witnesses = zip(*_pad_rows(rows, radius, cap, "distortion"))
    return DistortionTable(tuple(range(radius + 1)), deltas, witnesses)
