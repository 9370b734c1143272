"""Cayley balls by breadth-first search, sphere counts by series, iterate-length
tables, growth estimation, and subgroup distortion profiles.

BFS hashes normal forms, never words, so lengths are exact geodesic distances
and deduplication is automatic.  Inside a search each element is a key from
``Machine.codec`` (``families.Codec``).  A search builds one codec from its
starts and shares it among all its balls; the codec's steps, right
multiplication by g0, g0^-1, g1, ..., map a list of keys to the list of
their products.  Every machine that commands search supplies a packed
codec: a key is one int, which packs the normal form's coordinates into
offset bit fields, and a step is mostly one integer add, so a Cayley-graph
edge costs one ``seen`` probe and a share of a list comprehension, and no
tuple is built.  A machine that declares ``coordinate_orders`` is searched
only by ``enumerate_ball`` callers and keeps the default codec, whose key
is the normal form and whose steps call ``mul``.  Normal forms appear only
at the boundary: targets are encoded, a pruned side decodes the elements it
expands, and ``enumerate_ball`` decodes its result.

One class, ``_Frontier``, grows every ball: a ball around a start element,
one sphere at a time, in chunks of up to ``_CHUNK`` keys.  Spheres are
stored one after another; within one, each step maps a whole chunk before
the next step runs.  A full ball also skips edges that can only lead to
stored elements: the step back to an element's parent, and each lower step
that commutes with the one the element arrived by (``_skip_known``).

A packed codec is exact only for elements within its depth of a start, and
its keys may grow with the depth.  So a search sizes its first codec for
at most ``_FIRST_DEPTH`` steps, and re-encodes all its balls into a codec of
twice the depth before one of them would outgrow it (``_widen``): a radius
the search never reaches costs nothing.  The default codec never runs out.

``enumerate_ball`` grows one ball around the identity, and the ``distortion``
of a general subgroup reads it.  ``word_lengths`` finds the lengths of given
targets: an exact functional or a lower bound answers some before any
search, and the rest share one ball around the identity while each grows its
own, until each meets the identity's or runs out of radius.  Balls of about
half the radius thus replace one of the full radius.  ``word_length`` is its
one-target case, and ``L_k_table`` makes one call for all its iterate images.
Completed balls are immutable and safe to share.

``ball_counts`` sums a series, with no ball, on machines whose word length
is a sum of per-coordinate lengths (those that declare
``Machine.coordinate_orders``), and runs the BFS elsewhere.
``cyclic_distortion`` never needs a full ball: it looks the powers g, g^2,
... of its generator up with one search, as far as a lower bound that
never falls along them allows.

A target's ball is pruned by ``Machine.length_lower``: an element y at
distance r from the target is stored but not expanded when
length_lower(y) + r exceeds the radius, since no path of length <= radius
from the identity to the target runs through it.  Geodesics to targets
within the radius pass that test at every point, so the lengths found stay
exact, and a pruned element can only take part in meetings along real
paths, so it never yields a false length (``_meet`` gives the proof).
The target sides of one search share a table of the bounds, so each
element's bound is evaluated once however many spheres it lies in, and a
side's last sphere, after which it closes, is expanded without the bound.
"""

from __future__ import annotations

import csv
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

# The depth of a search's first codec when its radius is larger: past the
# radii of the bundled examples (up to 18 where ``ball_counts`` runs the
# BFS), so those never re-encode, yet small enough that a field whose width
# grows with the depth, as one summing an entry bound over every height the
# depth reaches does, costs little in every key
_FIRST_DEPTH = 32


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
    ``seen`` maps the key of each element found to its distance from
    ``start``, and ``groups`` holds sphere ``depth`` in groups, each with its
    own list of steps to take next (``moves``).  Keys come from ``codec``,
    which its sides share, and the ball treats them as opaque.

    Without ``after`` the sphere is one group that takes every step.  With
    it, elements are grouped by arrival step, the step that first reached
    them: those that arrived by step j take only the steps ``after[j]``
    (``_skip_known`` gives the rule and why no element is lost), and
    ``start`` takes every step.  ``grow`` runs the groups in turn, a group
    ``_CHUNK`` keys at a time: each of the group's steps maps the whole
    chunk, one step after another, and each new product is filed under the
    step that made it.  So ``seen`` holds the spheres one after another,
    each in that order.

    With a lower bound ``lower`` on word length, sphere r + 1 is built only
    from the x in sphere r with lower(x) + r <= radius.  A word for x
    followed by the r steps back to ``start`` is at least lower(x) + r long,
    so a skipped x extends no path from the identity to ``start`` of length
    <= radius.  The bound reads the normal form, so x is decoded when it is
    expanded, never for the last sphere.  Skipped elements stay in ``seen``
    and in their sphere.  A distance in ``seen`` is then the length of some
    path from ``start``, maybe not the shortest.  Yet each y with
    |y| + d(start, y) <= radius gets its exact distance: every point x of a
    shortest path from ``start`` to y has |x| + d(start, x) <=
    |y| + d(start, y), so each is expanded in turn.

    Several balls can share ``bounds``, a table from key to lower(decoded
    key): ``grow`` evaluates the bound only for the keys the table lacks, in
    one batch per group, and reads the rest.  ``use`` empties the table,
    whose keys belong to the codec before.
    """

    __slots__ = ("radius", "lower", "bounds", "after", "codec", "moves", "seen", "groups", "depth")

    def __init__(
        self,
        codec,
        start,
        radius: int,
        lower: Optional[Callable] = None,
        after: Optional[list] = None,
        bounds: Optional[dict] = None,
    ):
        self.radius = radius
        self.lower = lower
        self.bounds = bounds
        self.after = after
        key = codec.encode(start)
        self.seen = {key: 0}
        self.groups = [[] for _ in (() if after is None else after)] + [[key]]
        self.depth = 0
        self.codec = None
        self.use(codec)

    def use(self, codec):
        """Take the steps of ``codec``, re-encoding the stored keys into it
        from the codec before, if any."""
        old, self.codec = self.codec, codec
        steps = codec.steps
        if self.after is None:  # one group: every step, every product
            self.moves = [[(step, 0) for step in steps]]
        else:  # a group per arrival step, then the start's
            self.moves = [[(steps[k], k) for k in ks] for ks in [*self.after, range(len(steps))]]
        if old is not None:
            if self.bounds:  # keyed in the old codec
                self.bounds.clear()
            new = dict(zip(self.seen, map(codec.encode, map(old.decode, self.seen))))
            self.seen = dict(zip(new.values(), self.seen.values()))
            self.groups = [[new[x] for x in group] for group in self.groups]

    @property
    def last(self) -> list:
        """Sphere ``depth`` as one list."""
        groups = self.groups
        return groups[0] if len(groups) == 1 else list(chain.from_iterable(groups))

    def grow(self, cap: int, prune: bool = True) -> bool:
        """Add the next sphere, storing at most ``cap`` elements in all;
        False, with nothing changed, at ``radius`` or when the next sphere
        is empty.  When ``seen`` holds more than ``cap`` after a chunk,
        ResourceCapExceeded with the last full radius.  As ``seen`` only
        grows, that is the radius at which a check after every new element
        would raise.  The codec must reach the next sphere (``_widen``).
        With ``prune`` false the whole sphere is expanded and no bound is
        read."""
        r = self.depth
        if r >= self.radius:
            return False
        if r >= self.codec.depth:
            raise ValueError(f"a codec of depth {self.codec.depth} cannot hold sphere {r + 1}")
        groups = self.groups
        if prune and self.lower is not None:
            slack, lower, decode, bounds = self.radius - r, self.lower, self.codec.decode, self.bounds
            if bounds is None:
                groups = [[x for x in group if lower(decode(x)) <= slack] for group in groups]
            else:
                for group in groups:
                    new = [x for x in group if x not in bounds]
                    bounds.update(zip(new, map(lower, map(decode, new))))
                groups = [[x for x in group if bounds[x] <= slack] for group in groups]
        r += 1
        seen = self.seen
        nxt = [[] for _ in groups]
        for moves, group in zip(self.moves, groups):
            for i in range(0, len(group), _CHUNK):
                chunk = group[i : i + _CHUNK]
                for step, into in moves:
                    out = nxt[into]
                    for y in step(chunk):
                        if y not in seen:
                            seen[y] = r
                            out.append(y)
                if len(seen) > cap:
                    raise ResourceCapExceeded(f"exceeded cap {cap} at radius {r}", completed_radius=r - 1)
        if not any(nxt):
            return False
        self.depth, self.groups = r, nxt
        return True


def _codec(machine, starts, radius: int):
    """The first codec of a search from ``starts``: sized for the radius,
    but never past ``_FIRST_DEPTH`` steps, so a radius the search does not
    reach costs nothing."""
    return machine.codec(starts, min(radius, _FIRST_DEPTH))


def _widen(machine, sides):
    """Before one of ``sides``, which share a codec, grows past its depth:
    move them all to a codec of twice that depth, at most their radius."""
    old = sides[0].codec
    new = machine.codec(old.starts, min(2 * old.depth, sides[0].radius))
    for side in sides:
        side.use(new)


def _skip_known(machine) -> list:
    """The steps an element takes next in a full ball, by the step that
    first reached it (its arrival step).  An element that arrived by step j
    skips step j ^ 1, the step back to its stored parent, and each step
    i < j whose right factor commutes with step j's under ``machine.mul``.
    The factors are ``machine.step_factors()``: g0, g0^-1, g1, g1^-1, ....

    No element is lost, so every distance stays exact.  Suppose y lies at
    distance r + 1 and every pair (x in sphere r, step t) with y = x t is
    skipped.  Take one.  x is not the start, which takes every step, so
    x = w a, with a its arrival step and w in sphere r - 1.  t = a ^ 1 would
    give y = w, at distance r - 1, so t < a and t commutes with a.  Then
    y = (w t) a, and w t lies in sphere r: one step from w, and one from y.
    The pair (w t, a) is skipped too, and the same argument gives a pair
    whose step exceeds a.  The steps would rise without end, which a finite
    list of steps does not allow."""
    factors = machine.step_factors()
    mul = machine.mul
    return [
        [i for i, s in enumerate(factors) if i != j ^ 1 and not (i < j and mul(s, t) == mul(t, s))]
        for j, t in enumerate(factors)
    ]


def _full_ball(machine, radius: int, cap: int) -> tuple[_Frontier, list]:
    """The BFS of ``enumerate_ball`` around the identity: the grown ball
    and its cumulative counts, padded to ``radius + 1`` rows."""
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    identity = machine.identity
    ball = _Frontier(_codec(machine, (identity,), radius), identity, radius, after=_skip_known(machine))
    counts = [1]
    try:
        while True:
            if ball.depth == ball.codec.depth < radius:
                _widen(machine, [ball])
            if not ball.grow(cap):
                break
            counts.append(len(ball.seen))
    except ResourceCapExceeded as exc:
        done = exc.completed_radius
        raise ResourceCapExceeded(
            f"ball exceeded cap {cap} while exploring radius {done + 1}", completed_radius=done
        ) from None
    # a finite group may run out of elements before the radius
    return ball, _pad_rows(counts, radius, cap, "ball")


def enumerate_ball(machine, radius: int, cap: int = DEFAULT_CAP) -> Ball:
    """Exact geodesic lengths for every element within ``radius``.

    Raises ResourceCapExceeded, with the last full radius as
    ``completed_radius``, when more than ``cap`` elements would be stored,
    or when a finite group runs out of elements and the ``radius + 1`` rows
    of ``counts`` would exceed ``cap`` or not fit in memory.
    """
    ball, counts = _full_ball(machine, radius, cap)
    seen = ball.seen
    return Ball(radius, dict(zip(map(ball.codec.decode, seen), seen.values())), tuple(counts))


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
    if orders is None:  # the BFS; its counts need no element decoded
        return tuple(_full_ball(machine, radius, cap)[1])
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
    A target's last sphere is stored unpruned (``_meet``) and counts so.
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
    side, shared by all targets, does not.  With several targets, their
    sides read the bound from one table (``_Frontier``), so an element in
    the spheres of many sides costs one evaluation, until ``_widen``
    re-encodes the keys and empties it.  One target gets no table: each of
    its elements lies in one sphere, read once.  No side evaluates the
    bound on its last sphere, the grow after which its depth and the
    identity's reach ``radius``: the side closes right after it, so the
    bound could only spare the edges of that grow, and the proof below
    never needs pruning.

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
    element of its outer sphere is pruned or leads only to stored elements.
    Then g is beyond ``radius`` too, because for L <= radius the geodesic
    point at distance D_g + 1 from g would be new, and g closes as None.
    The identity's side never runs out while a target is open: a complete
    ball holds the whole (finite) group, so it met every target first."""
    found = {}
    codec, lower = _codec(machine, (machine.identity, *targets), radius), machine.length_lower
    home = _Frontier(codec, machine.identity, radius)
    bounds = {} if len(targets) > 1 else None
    open_ = {x: _Frontier(codec, x, radius, lower, bounds=bounds) for x in targets}
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
        if side.depth == side.codec.depth < radius:
            _widen(machine, [home, *open_.values()])
        before, rim = len(side.seen), len(side.last)
        try:
            grown = side.grow(cap - (stored - before), home.depth + side.depth + 1 < radius)
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
    is the lesser canonical word of g^k and g^-k.  A walk along g, g^2,
    ..., g^K stops before g^k is the identity or has lower(g^k) > radius,
    with lower the exact ``length_upper`` on ``length_exact`` machines and
    ``length_lower`` elsewhere.  Under the contract of
    ``Machine.length_lower``, K is finite and no later power lies within
    the radius.  On a ``length_exact`` machine the walk's values are the
    lengths, as ``word_lengths`` would give them.  Elsewhere the powers,
    distinct and none the identity, go to one ``_meet`` search with no
    second pass of the bound.

    In <g> of order m, g^k has inner length min(k, m - k).  A walk that
    ends at the identity has m = K + 1.  One that stops on the bound keeps
    only k < m / 2 and takes m as infinite: by the contract lower is exact
    on a g of finite order, and |g^k| = |g^(m - k)|, so lower first exceeds
    the radius at some k <= m / 2.

    ``cap`` counts the powers stored plus the elements the search stores.
    Rows past the longest power found repeat it, under the rule of
    ``_pad_rows``.
    """
    index = machine.gens.index(gen_name)
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    exact = machine.length_exact
    lower = machine.length_upper if exact else machine.length_lower
    mul, g = machine.mul, machine.gen_elem(index)
    powers, bounds = [], []
    x = g
    while x != machine.identity and (bound := lower(x)) <= radius:
        if len(powers) >= cap:
            raise ResourceCapExceeded(
                f"distortion exceeded cap {cap} with the powers of {gen_name} within radius {radius}"
            )
        powers.append(x)
        bounds.append(bound)
        x = mul(x, g)
    order = len(powers) + 1 if x == machine.identity else math.inf
    best_at = {}  # length -> (inner length, power) of the largest inner length
    if exact or not powers:
        lengths = bounds
    else:
        found = _meet(machine, powers, radius, cap, len(powers))
        lengths = [found[x] for x in powers]
    for k, (x, length) in enumerate(zip(powers, lengths), 1):
        val = min(k, order - k)
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
