"""Exact normal-form machines for the bundled group families.

Each machine owns: a generator set, exact multiplication/inversion on normal
forms, its defining relator list, a canonical word decomposition of any
element, and a length functional that returns the length of an explicit word
representing the element (an upper bound on the true word length; exact where
the machine declares ``length_exact``, as every family but nilpotent2 and Sol
does).  Its ``sphere_sizes`` hook gives the sizes of the Cayley spheres
without a search where the family knows them.

A normal form is a flat tuple of ints.  In every family but Baumslag-Solitar
entry i is the exponent of generator i (the central ones last), so the base
class supplies ``gen_elem`` and ``decompose``, and a family overrides one
only where its normal form reads otherwise.

``HeisenbergMachine`` extends ``Nil2Machine``: it keeps its inverse, codec
and relators, and owns closed-form ``mul`` and ``pow``, its word length in
closed form, geodesic and commutator words, and, for k = 1, its sphere
sizes.  ``BSMachine`` finds its word length and a geodesic in one pass over
base-n digits.  ``FreeAbelianMachine`` is ``TorsionProductMachine`` with no torsion,
owning its names, ``matrix`` shortcut and nilpotent closed form.

Inside a Cayley-ball search an element is a key from the machine's
``codec``.  The families that commands search (nilpotent2 and Sol, and
Heisenberg with k >= 2 and Baumslag-Solitar for ``ball`` alone) pack the
normal forms within a given depth of the search's starts into one int
apiece, with right multiplication by each generator as a map on lists of
such ints, and each docstring proves the bounds the packing rests on.  No
command searches the families whose word length is a sum of coordinate
lengths (free abelian, abelian with torsion, Klein), nor Heisenberg with
k = 1: ``length_exact`` gives their lengths and ``sphere_sizes`` their
sphere sizes, by default a series over the cyclic coordinates that
``coordinate_orders`` declares.  The first three keep the
default codec, whose key is the normal form itself, stepped by ``mul``; for
an ``enumerate_ball`` caller it costs about what packing did.  Every other
method takes and returns normal forms; the search encodes and decodes at
its boundary.

Each machine class also declares its descriptor ``family`` tag, the
parameter ``schema`` of that descriptor, and the ``build`` classmethod that
turns checked parameters into a machine; ``machine_from_params`` looks the
class up in ``MACHINES`` by tag and checks the parameters once.  ``MACHINES``
is the one family table: each class also owns the endomorphism
``shortcut`` it accepts, with ``shortcut_images`` to expand its payload into
generator images, and its growth routes, ``closed_form`` and
``length_table``, whose workers live in :mod:`endogrowth.nilgr`,
:mod:`endogrowth.solgr` and :mod:`endogrowth.ball`.

A machine is not changed after construction, apart from the caches it
fills, and all element operations are pure, so sharing across threads is
safe.  Two machines compare and hash equal when they are of one family with
equal parameters.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections import deque
from itertools import chain, repeat
from operator import lshift
from typing import Callable, NamedTuple

from .ball import ClosedForm, L_k_table
from .errors import ResourceCapExceeded, ValidationError
from .exactlin import IntMatrix, _Value, mat_pow, mat_vec, spectral_radius
from .nilgr import gr_nilpotent_closed, gr_torsion_closed
from .solgr import SolLengthMinimizer, classify_endo, gr_sol_closed, gr_sol_empirical
from .words import GenSet, Word, commutator_word, reduce_word

__all__ = [
    "Machine",
    "FreeAbelianMachine",
    "TorsionProductMachine",
    "HeisenbergMachine",
    "Nil2Machine",
    "SolMachine",
    "KleinMachine",
    "BSMachine",
    "MACHINES",
    "PARAM_TYPES",
    "SOL_POWER_BITS",
    "check_params",
    "klein_restricted_matrix",
    "machine_from_params",
]


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(ok(x) for x in v)


_int_matrix = _list_of(_list_of(_int))

# Sol holonomy powers A^t with |t| up to _SOL_POWER_CACHE are read from the
# table of powers of A that the machine's shift minimizer keeps (a Cayley-ball
# search of radius r steps through |t| <= r); larger ones are computed when
# asked for and not stored, and refused with ResourceCapExceeded when their
# entries would exceed SOL_POWER_BITS bits (half a megabyte each).
# SolMachine.length_lower bounds entries exactly up to the same height.
_SOL_POWER_CACHE = 64
SOL_POWER_BITS = 1 << 22

# Descriptor parameter types, by the names the schemas use.
PARAM_TYPES = {
    "int": _int,
    "bool": lambda v: isinstance(v, bool),
    "list of str": _list_of(lambda x: isinstance(x, str)),
    "list of int": _list_of(_int),
    "int matrix": _int_matrix,
    "2x2 int matrix": lambda v: _int_matrix(v) and len(v) == 2 and all(len(r) == 2 for r in v),
    "{name: [int, int]}": lambda v: (
        isinstance(v, dict) and all(_list_of(_int)(p) and len(p) == 2 for p in v.values())
    ),
    '{"i,j": list of int}': lambda v: isinstance(v, dict) and all(
        re.fullmatch(r"\s*-?\d+\s*,\s*-?\d+\s*", k) and _list_of(_int)(x) for k, x in v.items()
    ),
}


def check_params(schema, params, what: str) -> dict:
    """Keyword arguments from a parameter object: no unknown names, every
    type right, defaults filled in.  ``schema`` holds ``(name, type)`` for
    required and ``(name, type, default)`` for optional parameters."""
    if not isinstance(params, dict):
        raise ValidationError(f"{what} must be an object")
    unknown = set(params) - {name for name, *_ in schema}
    if unknown:
        raise ValidationError(f"{what}: unknown {sorted(map(str, unknown))}")
    args = {}
    for name, kind, *default in schema:
        if name in params:
            if not PARAM_TYPES[kind](params[name]):
                raise ValidationError(f"{what}: {name!r} must be {kind}")
            args[name] = params[name]
        elif default:
            args[name] = default[0]
        else:
            raise ValidationError(f"{what}: {name!r} is required")
    return args


class Machine(_Value):
    """Shared helpers; concrete families fill in the arithmetic."""

    family: str
    schema: tuple = ()
    gens: GenSet
    identity: object
    free_ab_indices: tuple[int, ...]
    shortcut = None  # the endomorphism descriptor shortcut key it accepts, if any
    # ``length_upper`` is the true word length.  A family that sets it proves
    # it where it does; ``ball`` then answers every length without a search.
    length_exact = False

    @classmethod
    def build(cls, **params):
        """The machine for schema-checked parameters; lists become tuples."""
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in params.items()})

    def _key(self):
        """The constructor's arguments by name, which ==, hash and repr read:
        by default those the schema names, which ``build`` passes on."""
        return tuple((name, getattr(self, name)) for name, *_ in self.schema)

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def pow(self, x, n: int):
        """x**n for any integer n, exact.  This default is binary powering,
        about 2 log2|n| ``mul`` calls; families with a closed form override
        it, so iterate images with huge exponents cost a few big-int ops."""
        if n < 0:
            x = self.inv(x)
            n = -n
        mul = self.mul
        acc = self.identity
        while n:
            if n & 1:
                acc = mul(acc, x)
            x = mul(x, x)
            n >>= 1
        return acc

    def step_factors(self) -> list:
        """The right factors of a search's steps, in the order of every
        codec's ``steps``: g0, g0^-1, g1, g1^-1, ...."""
        factors = []
        for i in range(len(self.gens)):
            g = self.gen_elem(i)
            factors += [g, self.inv(g)]
        return factors

    def codec(self, starts, depth: int) -> Codec:
        """The ``Codec`` of a search from ``starts`` (normal forms) that
        reaches at most ``depth`` steps from one of them.  In this default
        the key is the normal form, each step maps a list of keys by
        ``mul``, and the codec is exact at every depth.  The families that
        commands search override it with keys packed into ints, and each
        docstring proves the bounds the fields rest on."""
        mul = self.mul
        steps = [lambda keys, f=f: [mul(x, f) for x in keys] for f in self.step_factors()]
        return Codec(tuple(starts), math.inf, (None,) * len(self.identity), _same, _same, steps)

    def shortcut_images(self, payload) -> tuple:
        """The generator images, as elements, that a ``shortcut`` payload
        describes; ValidationError when the payload is malformed."""
        raise NotImplementedError

    def gen_elem(self, i: int):
        """Generator i: the unit vector i of the normal form."""
        unit = [0] * len(self.identity)
        unit[i] = 1
        return tuple(unit)

    def relators(self) -> list[Word]:
        """The relators an assignment of generator images can fail: an
        endomorphism is valid iff each maps to the identity.  A family whose
        machine is abelian leaves out the commutator relators, which images
        in an abelian group always satisfy."""
        raise NotImplementedError

    def decompose(self, elem) -> Word:
        """Canonical (not necessarily geodesic) word for the element; this
        default reads entry i as the exponent of generator i."""
        return _letters(*enumerate(elem))

    def length_upper(self, elem) -> int:
        return self.length_upper_word(elem).length()

    def length_upper_word(self, elem) -> Word:
        """Explicit word whose length the functional reports."""
        return self.decompose(elem)

    def length_lower(self, elem) -> int:
        """A lower bound on the word length, cheap to compute: a search for
        the length stops before it starts when this exceeds its radius.

        ``ball.cyclic_distortion`` walks the powers g^k of a generator g of
        order m until this exceeds the radius.  The contract: along the
        walk it never falls while k <= m / 2, it grows without limit when m
        is infinite, and it is exact when m is finite.  Each family proves
        it where it defines its bound.  An exact length may fall along the
        powers (|b^11| = 8 > |b^12| = 7 in BS(1, 2)); the families whose
        exact length never falls there return it."""
        return 0

    def coordinate_orders(self):
        """The orders (0 for Z) of cyclic coordinates whose lengths, |x| on Z
        and min(r, m - r) on Z/m, add up to the word length; None when the
        word length is no such sum."""
        return None

    def sphere_sizes(self):
        """The sizes of the spheres of radius 0, 1, ... about the identity, as
        an iterator that ends after the last nonempty sphere of a finite
        group; None where only a search finds them.  ``ball.ball_counts``
        sums them.  This default is the series of the cyclic coordinates
        that ``coordinate_orders`` declares (``_sphere_sizes``)."""
        orders = self.coordinate_orders()
        return None if orders is None else _sphere_sizes(orders)

    def commutator(self, a, b):
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    @property
    def triviality_power(self) -> int:
        """A power B such that phi^B is trivial whenever some power of the
        endomorphism phi is; ``words.eventually_trivial`` tests no higher one.

        This default is the Hirsch length h = ``len(identity)`` of a
        torsion-free nilpotent family (Heisenberg, nilpotent2),
        whose normal form has one Z coordinate per Mal'cev basis element.
        phi extends to a linear map L of the h-dimensional rational Mal'cev
        Lie algebra with phi^n = exp L^n log, and log is injective on G.  If
        phi^N = 1 then L^N = 0, so L is nilpotent, L^h = 0 and phi^h = 1."""
        return len(self.identity)

    # Growth routes take the ValidEndo a report validates once.  They look
    # their workers up as module globals at call time, so a wrapper
    # installed on a module attribute (a tracer, say) sees every call.

    def closed_form(self, valid, tol):
        """Closed-form growth rate; this default is the spectral radius of the
        abelianization block of a torsion-free nilpotent family.  A family
        without a closed form sets ``closed_form = None``."""
        return gr_nilpotent_closed(valid, tol)

    def length_table(self, valid, kmax, radius, cap):
        """Iterate-length table: exact Cayley-ball lengths within ``radius``,
        the length functional past it."""
        return L_k_table(valid, kmax, radius, cap)

    def center_block(self, images):
        """Matrix of the induced map on the designated central generators,
        from the generator images; None where the family designates none."""
        return None


def _square_split(q: int) -> list[tuple[int, int]]:
    """Pairs (s, t) whose products s*t sum to q >= 0, with s = ceil(sqrt(q)):
    commutator blocks [u^s, v^t] spell a central power q in about 4 sqrt(q) letters."""
    if q == 0:
        return []
    s = math.isqrt(q)
    if s * s < q:
        s += 1
    t, r = divmod(q, s)
    return [(s, t), (1, r)] if r else [(s, t)]


def _letters(*pairs) -> Word:
    return Word(tuple((g, e) for g, e in pairs if e != 0))


def _gen_word(i: int, e: int = 1) -> Word:
    return Word(((i, e),))


def _same(x):
    return x


class Codec(NamedTuple):
    """The keys of the elements of one Cayley-ball search.

    Inside a search an element is its key, which the kernel hashes, compares
    and steps.  A family that commands search packs it into one Python int,
    so no tuple is built; the default codec keys an element by its normal
    form.  ``encode`` and ``decode`` convert between normal forms and keys.
    ``steps`` holds, in the order of ``Machine.step_factors`` (g0, g0^-1,
    g1, g1^-1, ...), right multiplication by each generator and its inverse
    as a map from a list of keys to the list of their products, in order.

    A codec is built from the search's ``starts`` for a ``depth``: keys and
    steps are exact on every element within ``depth`` steps of a start.
    ``box`` holds, per normal-form coordinate, a range (lo, hi) that such
    elements never leave, or None where the coordinate needs no bound.  A
    search that would go deeper builds a codec of a larger depth and
    re-encodes its elements; one of depth ``math.inf`` never runs out."""

    starts: tuple
    depth: int
    box: tuple
    encode: Callable
    decode: Callable
    steps: list


class _Fields:
    """Normal forms as offset bit fields of one int, placed low to high in
    ``order``.  A coordinate i with ``box[i]`` = (lo, hi) is stored as
    x_i - lo in (hi - lo).bit_length() bits.  The last coordinate in
    ``order`` is stored as it is, signed, in the bits above all others, so
    its box may be None: it needs no bound.  The key of x is then
    base + sum of x_i << shift_i, affine in x, and a coordinate within its
    box reads back as (key >> shift & mask) + lo, with mask -1 and lo 0 for
    the top one."""

    def __init__(self, box, order=None):
        self.box = tuple(box)
        self.spec = spec = [None] * len(box)
        order = range(len(box)) if order is None else order
        shift = 0
        for i in order:
            if i == order[-1]:
                spec[i] = (shift, -1, 0)
            else:
                lo, hi = box[i]
                width = (hi - lo).bit_length()
                spec[i] = (shift, (1 << width) - 1, lo)
                shift += width
        self.shifts = tuple(shift for shift, _, _ in spec)
        self.base = -sum(lo << shift for shift, _, lo in spec)
        self.decode = lambda key: tuple([(key >> shift & mask) + lo for shift, mask, lo in spec])

    def codec(self, starts, depth: int, steps: list) -> Codec:
        return Codec(tuple(starts), depth, self.box, self.encode, self.decode, steps)

    def encode(self, x) -> int:
        return sum(map(lshift, x, self.shifts), self.base)

    def step(self, moves, reads=()):
        """The step that adds d to coordinate i for each (i, d) in ``moves``
        and, for each (j, coefs) in ``reads``, x_j times c to coordinate i
        for each (i, c) in ``coefs``, with x_j read from its field."""
        spec = self.spec
        add = sum(d << spec[i][0] for i, d in moves)
        terms = []
        for j, coefs in reads:
            shift, mask, lo = spec[j]
            coef = sum(c << spec[i][0] for i, c in coefs)
            add += lo * coef
            terms.append((shift, mask, coef))
        if not terms:
            return lambda keys: [x + add for x in keys]

        def step(keys):
            (shift, mask, coef), *rest = terms
            out = [x + add + (x >> shift & mask) * coef for x in keys]
            for shift, mask, coef in rest:
                out = [y + (x >> shift & mask) * coef for x, y in zip(keys, out)]
            return out

        return step


class _Memo(dict):
    """A dict that fills a missing key k with fn(k) when it is first read:
    a table of a search's step moves, filled only where the search goes."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _spread(starts, i: int, reach: int) -> tuple[int, int]:
    """The range of coordinate i over the starts, widened by ``reach``."""
    values = [x[i] for x in starts]
    return min(values) - reach, max(values) + reach


def _central_reach(g: int, c: int) -> int:
    """Least L >= 0 with g L(L-1)/2 + L >= c: no word of fewer letters moves
    a central coordinate by c when the letter after a prefix of p letters
    moves it by at most max(g p, 1) <= g p + 1."""
    if g == 0:
        return c
    b = 2 - g
    # the positive root of g L^2 + b L - 2c, rounded down, is at most 2 short
    length = (math.isqrt(b * b + 8 * g * c) - b) // (2 * g)
    while g * length * (length - 1) // 2 + length < c:
        length += 1
    return length


def _nil_lower(g: int, ab: int, c: int) -> int:
    """max(ab, _central_reach(g, c)) for an abelian length ab and a central
    size c, without the square root when ab already reaches c."""
    if g * ab * (ab - 1) // 2 + ab >= c:
        return ab
    return _central_reach(g, c)


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


def _rect_area(n: int, hi: int) -> int:
    """A_n = max w h over integers w >= x, h >= y with w + h = n, for
    x, y >= 0 with n >= x + y and hi = max(x, y).  w (n - w) is largest at
    the point of [x, n - y] nearest n / 2: at n / 2 itself from n = 2 hi on,
    and below that at the end where hi is the bound."""
    return hi * (n - hi) if n <= 2 * hi else n * n // 4


def _rect_reach(t: int, lo: int, hi: int) -> int:
    """The least n >= lo + hi with _rect_area(n, hi) >= t, for the sorted
    0 <= lo <= hi."""
    if t <= lo * hi:
        return lo + hi
    if t <= hi * hi:
        return hi - (-t // hi)  # hi + ceil(t / hi), at most 2 hi
    return math.isqrt(4 * t - 1) + 1  # the least n with n^2 >= 4t, past 2 hi


def _heisenberg_plan(k: int, central: bool, x: int, y: int, z: int) -> tuple[int, int, int]:
    """(length, n, area) of a geodesic for (x, y, z) with x, y, z >= 0, as
    ``HeisenbergMachine.length_upper`` derives it: its a1, a2 letters trace
    a path of 2n - x - y letters that encloses ``area``, and z - k area a3
    letters follow.  ``central`` false is the two-generator set, k = 1."""
    lo, hi = (x, y) if x <= y else (y, x)
    s = x + y
    if not central:
        n = _rect_reach(z, lo, hi)
        return 2 * n - s, n, z
    t, r = divmod(z, k)
    if 2 * r > k:  # the nearest multiple of k is above z
        t, r = t + 1, k - r
    top = _rect_reach(t, lo, hi)
    best = (2 * top - s + r, top, t)
    for n in (*range(s, min(3, top)), top - 1):
        if n >= s:
            area = _rect_area(n, hi)
            length = 2 * n - s + z - k * area
            if length < best[0]:
                best = (length, n, area)
    return best


def _heisenberg_path(x: int, y: int, n: int, area: int) -> list:
    """Letters (0 for a1, 1 for a2) of a path of 2n - x - y letters from
    (0, 0) to (x, y), x, y >= 0, enclosing ``area``, in at most six
    syllables.  At n = x + y, 0 <= area <= xy: right x - c - 1, up d, right
    1, up y - d, right c, for area = c y + d.  Past it, with w x h the
    rectangle of ``_rect_area`` and d = w h - area: left w - x, up h - d,
    right 1, up d, right w - 1, down h - y when w > x, and up h - 1, right
    d, up 1, right w - d, down h - y when w = x (then h > y).  Every
    exponent keeps its sign when 0 <= d <= h, resp. d <= w: the plan gives
    area = A_n = w h, or A_n >= area > A_(n-1), which is at least (w - 1) h
    when w > x and w (h - 1) when h > y."""
    if n == x + y:
        if y == 0:
            return [(0, x)]
        c, d = divmod(area, y)
        if c == x:
            return [(1, y), (0, x)]
        return [(0, x - c - 1), (1, d), (0, 1), (1, y - d), (0, c)]
    w = min(max(n // 2, x), n - y)
    h = n - w
    d = w * h - area
    if w > x:
        return [(0, x - w), (1, h - d), (0, 1), (1, d), (0, w - 1), (1, y - h)]
    return [(1, h - 1), (0, d), (1, 1), (0, w - d), (1, y - h)]


def _heisenberg_spheres(central: bool):
    """The endless sphere sizes of the Heisenberg lattice with k = 1, on
    a1, a2, a3 when ``central`` and on a1, a2 otherwise, by the interval
    recurrence of ``HeisenbergMachine.sphere_sizes``.  One cell per
    0 <= lo <= hi stands for the (x, y) with {|x|, |y|} = {lo, hi}: it
    holds lo + hi, hi, their count mult, and the top z_L of their common z
    interval."""
    cells = []  # [lo + hi, hi, mult, top]
    r = 0
    while True:
        size = 0
        for cell in cells:
            s, hi, mult, top = cell
            reach = _rect_area((r + s) // 2, hi)
            new = max(reach, top + 1) if central else reach
            if new != top:
                size += 2 * mult * (new - top)
                cell[3] = new
        for lo in range(r // 2 + 1):
            hi = r - lo
            mult = (2 if lo else 1) * (2 if hi else 1) * (2 if lo != hi else 1)
            cells.append([r, hi, mult, lo * hi])
            size += mult * (lo * hi + 1)
        yield size
        r += 1


class TorsionProductMachine(Machine):
    """Z^rank x prod Z_{b_i}; an element is one flat int tuple
    (x_1, ..., x_rank, r_1, ..., r_s) for a^x t^r, the free exponents, then
    the residues r_i in [0, b_i).  ``orders`` holds 0 for each Z and b_i
    for each Z_{b_i} coordinate, and generator i is the unit of coordinate
    i.  ``FreeAbelianMachine`` extends it with no torsion."""

    family = "abelian_with_torsion"
    schema = (("rank", "int"), ("torsion", "list of int"), ("names", "list of str", ()))
    length_exact = True  # the sum of the coordinate lengths (``length_upper``)

    def __init__(self, rank: int, torsion: tuple[int, ...], names: tuple[str, ...] = ()):
        if rank < 0 or (rank == 0 and not torsion):
            raise ValidationError("need at least one generator")
        self.rank = rank
        self.torsion = tuple(int(b) for b in torsion)
        for b in self.torsion:
            if b < 2:
                raise ValidationError("torsion orders must be >= 2")
        names = names or tuple(f"a{i + 1}" for i in range(rank)) + tuple(
            f"t{i + 1}" for i in range(len(self.torsion))
        )
        if len(names) != rank + len(self.torsion):
            raise ValidationError("need one name per generator")
        self.names = tuple(names)
        self.gens = GenSet(self.names)
        self.orders = (0,) * rank + self.torsion
        self.identity = (0,) * len(self.orders)
        self.free_ab_indices = tuple(range(rank))
        self._torsion_at = tuple((i, m) for i, m in enumerate(self.orders) if m)

    @property
    def triviality_power(self) -> int:
        """rank + floor(log2 |T|), T the torsion subgroup.  If some power of
        phi is trivial, the free block phi induces on G/T = Z^rank is
        nilpotent, so its rank-th power is 0 and phi^rank maps G into T.
        phi maps T into T, so the subgroups phi^k(T) fall until one step
        leaves them equal, and from then on they stay equal; here they end
        at 1.  Each strict step goes to a proper subgroup, of at most half
        the order, so phi^k(T) = 1 for k = floor(log2 |T|).  With no
        torsion it is rank, the Hirsch length of Z^rank."""
        return self.rank + math.prod(self.torsion).bit_length() - 1

    def closed_form(self, valid, tol):
        return gr_torsion_closed(valid, tol)

    def _reduced(self, t: list) -> tuple:
        for i, m in self._torsion_at:
            t[i] %= m
        return tuple(t)

    def mul(self, a, b):
        return self._reduced([x + y for x, y in zip(a, b)])

    def inv(self, a):
        return self._reduced([-x for x in a])

    def pow(self, x, n):
        return self._reduced([n * c for c in x])

    def relators(self):
        return [_gen_word(i, m) for i, m in self._torsion_at]

    def decompose(self, elem):
        letters = list(enumerate(elem[: self.rank]))
        for i, m in self._torsion_at:
            r = elem[i]
            letters.append((i, r if r <= m - r else r - m))  # the shorter way round
        return _letters(*letters)

    def length_upper(self, elem):
        """The word length.  Along the powers of generator i only
        coordinate i moves: to k on Z, of length k, and to k mod m on Z/m,
        of length min(k, m - k), nondecreasing up to k = m / 2."""
        total = sum(map(abs, elem[: self.rank]))
        for i, m in self._torsion_at:
            total += min(elem[i], m - elem[i])
        return total

    def length_lower(self, elem):
        return self.length_upper(elem)

    def coordinate_orders(self):
        return self.orders


class FreeAbelianMachine(TorsionProductMachine):
    """Z^rank: the torsion product with no torsion.  It owns its rank check,
    the names e1, e2, ..., the ``matrix`` shortcut and the nilpotent closed
    form, so its reports keep their method and certificate."""

    family = "free_abelian"
    schema = (("rank", "int"), ("names", "list of str", ()))
    shortcut = "matrix"

    def __init__(self, rank: int, names: tuple[str, ...] = ()):
        if rank < 1:
            raise ValidationError("rank must be >= 1")
        super().__init__(rank, (), names or tuple(f"e{i + 1}" for i in range(rank)))

    def shortcut_images(self, rows):
        """The columns of a square int matrix: column i is the image of
        generator i."""
        if not PARAM_TYPES["int matrix"](rows):
            raise ValidationError("'matrix' shortcut must be an int matrix")
        mat = IntMatrix.from_rows(rows)
        if mat.rows != self.rank or mat.cols != self.rank:
            raise ValidationError("matrix shortcut must be square of the generator count")
        return mat.transpose().entries

    def closed_form(self, valid, tol):
        return gr_nilpotent_closed(valid, tol)


class Nil2Machine(Machine):
    """Torsion-free class-2 nilpotent group with designated central generators.

    Generators: tau_1..tau_n plus central sigma names.  An element is one
    flat int tuple (x_1, ..., x_n, z_1, ..., z_m) for tau^x sigma^z: its
    first ``n_gens`` entries are the tau exponents, in generator order like
    the central ones after them.  gamma[(i, j)] for i > j is the central exponent
    vector of [tau_i, tau_j]; each designated sigma is [tau_i, tau_j] for its
    designated pair, so its gamma entry is the matching +-unit vector.

    ``HeisenbergMachine`` extends it.  ``gens`` may omit central coordinates
    of the normal form: the cocycle spans all of ``identity``, and the codec
    steps only the central coordinates that are generators.
    """

    family = "nilpotent2"
    schema = (
        ("n_gens", "int"),
        ("central", "list of str"),
        ("designated", "{name: [int, int]}"),
        ("gamma", '{"i,j": list of int}', {}),
        ("tau_names", "list of str", ()),
    )

    @classmethod
    def build(cls, n_gens, central, designated, gamma, tau_names):
        return cls(
            n_gens,
            tuple(central),
            tuple(sorted((name, tuple(pair)) for name, pair in designated.items())),
            tuple(sorted((tuple(int(x) for x in key.split(",")), tuple(vec)) for key, vec in gamma.items())),
            tuple(tau_names),
        )

    def __init__(
        self,
        n_gens: int,
        central: tuple[str, ...],
        designated: tuple[tuple[str, tuple[int, int]], ...],  # name -> (i, j), 1-based
        gamma: tuple[tuple[tuple[int, int], tuple[int, ...]], ...],  # (i, j) i>j -> vector
        tau_names: tuple[str, ...] = (),
    ):
        n, m = n_gens, len(central)
        if n < 2 or m < 1:
            raise ValidationError("need >= 2 tau generators and >= 1 central generator")
        taus = tau_names or tuple(f"t{i + 1}" for i in range(n))
        if len(taus) != n:
            raise ValidationError("need one name per tau generator")
        self.n_gens, self.central, self.designated, self.gamma = n_gens, central, designated, gamma
        self.tau_names = taus
        self.gens = GenSet(taus + tuple(central))
        self.identity = (0,) * (n + m)
        self.free_ab_indices = tuple(range(n))

        table = {}
        for (i, j), vec in gamma:
            if not (1 <= j < i <= n):
                raise ValidationError(f"gamma index {(i, j)} must satisfy n >= i > j >= 1")
            if len(vec) != m:
                raise ValidationError("gamma vectors must match the central rank")
            table[(i, j)] = tuple(int(v) for v in vec)
        seen_pairs = set()
        central_index = {name: s for s, name in enumerate(central)}
        for name, (i, j) in designated:
            if name not in central_index:
                raise ValidationError(f"designated name {name!r} is not central")
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ValidationError(f"bad designated pair {(i, j)}")
            key = (min(i, j), max(i, j))
            if key in seen_pairs:
                raise ValidationError(f"designated pair {key} repeated")
            seen_pairs.add(key)
            s = central_index[name]
            unit = tuple(1 if u == s else 0 for u in range(m))
            # sigma = [tau_i, tau_j]  =>  [tau_max, tau_min] = sigma^(+-1)
            expected = tuple(-v for v in unit) if i < j else unit
            existing = table.get((max(i, j), min(i, j)))
            if existing is not None and existing != expected:
                raise ValidationError(
                    f"gamma for designated pair {key} must be the matching unit vector"
                )
            table[(max(i, j), min(i, j))] = expected
        full = tuple(
            ((i, j), table.get((i, j), (0,) * m))
            for i in range(2, n + 1)
            for j in range(1, i)
        )
        self._gamma_table = full
        self._gamma_max = max(abs(v) for _, vec in full for v in vec)

    def _cocycle(self, u, v):
        """The central part of tau^u tau^v, sum over i > j of u_i v_j gamma(i, j),
        as a flat element (zero tau entries).  It reads only the tau entries
        of u and v."""
        n = self.n_gens
        out = [0] * len(self.identity)
        for (i, j), vec in self._gamma_table:
            c = u[i - 1] * v[j - 1]
            if c:
                for s, g in enumerate(vec, n):
                    out[s] += c * g
        return out

    def mul(self, a, b):
        return tuple(p + q + r for p, q, r in zip(a, b, self._cocycle(a, b)))

    def inv(self, a):
        return tuple(q - p for p, q in zip(a, self._cocycle(a, a)))

    def pow(self, a, n):
        # the cocycle is bilinear, so the cross terms sum to n(n-1)/2 cocycle(x, x)
        c = n * (n - 1) // 2
        return tuple(n * p + c * q for p, q in zip(a, self._cocycle(a, a)))

    def codec(self, starts, depth):
        """Fields x_1..x_n, z_1, ..., then the last z on top.  A step moves
        |x|_1 by at most one, so within ``depth`` steps of a start each x_i
        lies within ``depth`` of the start's.  A step from an element p
        steps from its start moves z_s by at most G_s |x|_1 + 1 <=
        G_s (X + p) + 1 (a tau step by G_s |x|_1, a sigma step by one), G_s
        the largest |gamma(i, j)_s| and X the largest |x|_1 of a start;
        over p = 0 .. depth - 1 that sums to B_s = G_s (depth X +
        depth (depth - 1) / 2) + depth, so z_s lies within B_s of the
        start's, whether or not sigma_s is a generator with a step of its
        own.  tau_j^(+-1) reads each x_i, i > j, with gamma(i, j) != 0."""
        n, m = self.n_gens, len(self.central)
        x_max = max(sum(map(abs, x[:n])) for x in starts)
        box = [_spread(starts, i, depth) for i in range(n)]
        for s in range(m - 1):
            g = max(abs(vec[s]) for _, vec in self._gamma_table)
            box.append(_spread(starts, n + s, g * (depth * x_max + depth * (depth - 1) // 2) + depth))
        fields = _Fields(box + [None])
        steps = []
        for j in range(1, n + 1):
            # (x, z) tau_j^e = (x + e unit_j, z + e sum_{i > j} x_i gamma(i, j))
            gammas = [(i - 1, vec) for (i, jj), vec in self._gamma_table if jj == j and any(vec)]
            for e in (1, -1):
                reads = [(i, [(n + s, e * v) for s, v in enumerate(vec) if v]) for i, vec in gammas]
                steps.append(fields.step(((j - 1, e),), reads))
        steps += [fields.step(((n + s, e),)) for s in range(len(self.gens) - n) for e in (1, -1)]
        return fields.codec(starts, depth, steps)

    def central_word(self, vec) -> Word:
        n = self.n_gens
        return _letters(*((n + s, e) for s, e in enumerate(vec)))

    def relators(self):
        n = self.n_gens
        gamma = dict(self._gamma_table)
        rels = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                # [tau_i, tau_j] = sigma^(-gamma(j, i))
                rhs = self.central_word(tuple(-v for v in gamma[(j, i)]))
                rels.append(commutator_word(_gen_word(i - 1), _gen_word(j - 1)) * rhs.inverse())
        total = n + len(self.central)
        for i in range(n):
            for s in range(n, total):
                rels.append(commutator_word(_gen_word(i), _gen_word(s)))
        for s in range(n, total):
            for u in range(s + 1, total):
                rels.append(commutator_word(_gen_word(s), _gen_word(u)))
        return rels

    def length_upper_word(self, elem):
        """tau prefix, then each designated central power via commutator blocks.

        [tau_i^a, tau_j^b] = sigma_s^(a b) exactly for a designated pair, so a
        power sigma_s^c costs about 4*sqrt(|c|) letters; plain sigma letters
        win for small c and are the only option for undesignated generators.
        """
        n = self.n_gens
        x, z = elem[:n], elem[n:]
        designated_of = {self.central.index(name): pair for name, pair in self.designated}
        letters = [(i, e) for i, e in enumerate(x)]
        for s, c in enumerate(z):
            pair = designated_of.get(s)
            if pair is None or abs(c) <= 4:
                if c:
                    letters.append((n + s, c))
                continue
            i, j = pair[0] - 1, pair[1] - 1
            sign = 1 if c > 0 else -1
            blocks = [(sign * u, t) for u, t in _square_split(abs(c))]
            if abs(c) <= sum(2 * abs(a) + 2 * b for a, b in blocks):
                letters.append((n + s, c))
                continue
            for a, b in blocks:
                letters += [(i, -a), (j, -b), (i, a), (j, b)]
        return _letters(*letters)

    def length_lower(self, elem):
        """max(|x|_1, least L with G L(L-1)/2 + L >= |z|_inf), G the largest
        |gamma| entry.

        Each tau letter moves |x|_1 by one, so a word of length L has
        |x|_1 <= L.  A tau_j^(+-1) letter moves z by sum over i > j of
        x_i gamma(i, j), at most G |x|_1 <= G p in each coordinate after a
        prefix of p letters, and a central letter moves one coordinate by
        one: at most max(G p, 1) per letter.  Summed over p < L,
        |z|_inf <= G L(L-1)/2 + L.

        A generator's power g^k has one coordinate k and the others 0, so
        |x|_1 = k or |z|_inf = k, and the bound is nondecreasing and
        unbounded in each."""
        n = self.n_gens
        return _nil_lower(self._gamma_max, sum(map(abs, elem[:n])), max(map(abs, elem[n:])))

    def commutator_vector(self, u, v):
        """Central exponent vector of [a, b] from a, b or their tau entries u, v."""
        return tuple(p - q for p, q in zip(self._cocycle(u, v), self._cocycle(v, u)))[self.n_gens :]

    def center_block(self, images):
        """Column s is the central part of the commutator of the images of
        sigma_s's designated pair, so relation-dependent central generators
        are folded in; columns and rows both follow the ``central`` order.
        Every commutator of a class-2 group is central, so that part is all
        of it."""
        if len(self.designated) != len(self.central):
            raise ValidationError("the central block needs every central generator designated")
        n, pair_of = self.n_gens, dict(self.designated)
        pairs = map(pair_of.get, self.central)
        cols = [self.commutator(images[i - 1], images[j - 1])[n:] for i, j in pairs]
        return IntMatrix.from_rows([list(row) for row in zip(*cols)])


class HeisenbergMachine(Nil2Machine):
    """Integer Heisenberg lattice with parameter k: [a1, a2] = a3^-k.

    Normal form a1^m a2^n a3^l as the triple (m, n, l); multiplication is
    (m, n, l)(m', n', l') = (m + m', n + n', l + l' + k n m').  It is
    ``Nil2Machine(2, ("a3",), (), (((2, 1), (k,)),), ("a1", "a2"))``, whose
    inverse, packed codec, relators and, for k >= 2, pruning bound it
    keeps; it owns closed-form ``mul`` and ``pow``, the exact word length
    with a geodesic word (``length_upper``), so it declares
    ``length_exact``, commutator words for a3^l and a3's block.  For k = 1
    it owns its sphere sizes too, so no command searches it; for k >= 2
    ``ball`` searches it as nilpotent2.

    With include_center_gen=False the generating set is {a1, a2} (only
    allowed for k=1, where the center is generated by the commutator), and
    the variant owns its ``decompose`` and relators.
    """

    family = "heisenberg"
    schema = (("k", "int"), ("include_center_gen", "bool", True))
    length_exact = True  # ``length_upper`` gives the proof

    @classmethod
    def build(cls, k, include_center_gen):
        return cls(k, include_center_gen)

    def __init__(self, k: int = 1, include_center_gen: bool = True):
        if k < 1:
            raise ValidationError("k must be >= 1")
        if not include_center_gen and k != 1:
            raise ValidationError("dropping the central generator requires k = 1")
        super().__init__(2, ("a3",), (), (((2, 1), (k,)),), ("a1", "a2"))
        self.k = k
        self.include_center_gen = include_center_gen
        if not include_center_gen:
            self.gens = GenSet(self.tau_names)

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + self.k * a[1] * b[0])

    def pow(self, x, n):
        # the cross terms k * (j q) * m over j = 0..n-1 sum to k q m n(n-1)/2
        m, q, l = x
        return (n * m, n * q, n * l + self.k * q * m * (n * (n - 1) // 2))

    def relators(self):
        if self.include_center_gen:
            return super().relators()
        # two-generator presentation: the commutator is central
        c12 = commutator_word(_gen_word(0), _gen_word(1))
        return [commutator_word(_gen_word(0), c12), commutator_word(_gen_word(1), c12)]

    def _central_word(self, l):
        """Word spelling a3^l from commutators (+ leftover a3 letters).

        [a1^-s, a2^t] = a3^(k s t), so l = sign*(k*q + r0) takes commutator
        blocks covering q and r0 leftover letters.
        """
        sign = 1 if l > 0 else -1
        q, r0 = divmod(abs(l), self.k)
        letters = []
        for s, t in _square_split(q):
            letters += [(0, sign * s), (1, -t), (0, -sign * s), (1, t)]
        letters.append((2, sign * r0))
        return _letters(*letters)

    def decompose(self, elem):
        if self.include_center_gen:
            return super().decompose(elem)
        m, n, l = elem
        return _letters((0, m), (1, n)) * self._central_word(l)

    def length_upper(self, elem):
        """The word length, in integer arithmetic, for every k.

        Paths.  a1^(+-1) moves m by +-1 and l by +-k n, n the a2-exponent of
        the prefix, a2^(+-1) moves n and a3^(+-1) moves l by +-1.  So a word
        whose a1, a2 letters trace the lattice path P from (0, 0) and whose
        a3 letters sum to e spells (x, y, k A(P) + e), A(P) the sum of n dm
        over the a1 steps, and |(x, y, z)| is the least |P| + |z - k A(P)|
        over the paths P to (x, y); on {a1, a2} (k = 1) the least |P| with
        A(P) = z.

        Symmetry.  a1 -> a1^-1, a2 -> a2^-1 and a1 <-> a2, each with
        a3 -> a3^-1, are automorphisms that permute the generators and
        their inverses, so they keep lengths; they map (x, y, z) to
        (-x, y, -z), (x, -y, -z) and (y, x, kxy - z).  Take x, y >= 0, and
        then z >= 0, as kxy - z > 0 for z < 0.

        Areas.  For s = x + y and N >= s, the areas of the paths to (x, y)
        with at most 2N - s letters are the integers of [xy - A_N, A_N],
        A_N = max w h over w >= x, h >= y, w + h = N (``_rect_area``).
        Upper end: closing P by a2^-y a1^-x adds no area and gives a loop
        with 2w = (a1 letters of P) + x horizontal and 2h = (a2 letters)
        + y vertical steps, w + h <= N.  Around a loop sum dm = 0, so its
        area is the sum of (n - c) dm for c the middle of its heights, and
        |n - c| <= 2h / 4: the area is at most w h <= A_N, which the
        rectangle a1^-(w-x) a2^h a1^w a2^-(h-y) attains.  Lower end: the
        swap maps these areas to xy minus those of the paths to (y, x), and
        A_N is symmetric in x, y.  Between: the rectangle's letters in the
        order a2^-(h-y) a1^w a2^h a1^-(w-x) enclose xy - w h, and swapping
        two adjacent letters changes the area by 0 or +-1, so some order
        of them encloses each integer between.

        Length.  xy - A_N <= 0 <= z, so z lies at distance z - k A_N from
        k [xy - A_N, A_N] when z >= k A_N, and otherwise at the distance r
        from z to the nearest multiple k t of k (halves rounding down).  So
        |g| is the least G(N) = 2N - s + max(z - k A_N, r) over N >= s.
        Let N* be the least N with A_N >= t (``_rect_reach``).  From N* on,
        G(N) = 2N - s + r grows.  Below it A_N <= t - 1, so z - k A_N >=
        z - k t + k >= k - r >= r.  So while N + 1 < N*, G(N + 1) - G(N) =
        2 - k (A_(N+1) - A_N), which is <= 0 once N >= 3, as A_(N+1) >=
        A_N + max(w, h) >= A_N + 2 for the w, h of A_N.  The least G is
        thus at N*, N* - 1 or an N <= 2 (``_heisenberg_plan``).  On
        {a1, a2} it is 2N* - s with t = z.

        For k = 1, r = 0, so |a3^j| = min over N of 2N + max(j - A_N, 0),
        with x = y = 0, is a least of nondecreasing functions of j; a1^j and
        a2^j have length j.  So it is ``length_lower``, as the walk of
        ``cyclic_distortion`` allows.  For k >= 2 the r term breaks that: at
        k = 2, |a3^15| = 13 and |a3^16| = 12."""
        x, y, z, *_ = self._normalized(elem)
        return _heisenberg_plan(self.k, self.include_center_gen, x, y, z)[0]

    def length_lower(self, elem):
        """The word length for k = 1; nilpotent2's bound for k >= 2."""
        return self.length_upper(elem) if self.k == 1 else super().length_lower(elem)

    def _normalized(self, elem):
        """(x, y, z, flip a1, flip a2, swap): the image of ``elem`` with
        x, y, z >= 0 under the automorphisms of ``length_upper``."""
        x, y, z = elem
        flip1, flip2 = x < 0, y < 0
        x, y = abs(x), abs(y)
        if flip1 != flip2:
            z = -z
        swap = z < 0
        if swap:
            x, y, z = y, x, self.k * x * y - z
        return x, y, z, flip1, flip2, swap

    def length_upper_word(self, elem):
        """A geodesic: the path of ``_heisenberg_path`` and the a3 power of
        ``length_upper``'s least G, carried back by the automorphisms, in
        at most seven syllables."""
        x, y, z, flip1, flip2, swap = self._normalized(elem)
        _, n, area = _heisenberg_plan(self.k, self.include_center_gen, x, y, z)
        path = []
        for i, e in _heisenberg_path(x, y, n, area):
            i ^= swap
            path.append((i, -e if (flip2 if i else flip1) else e))
        sign = -1 if flip1 ^ flip2 ^ swap else 1
        return _letters(*path, (2, sign * (z - self.k * area)))

    def sphere_sizes(self):
        """For k = 1, the sizes from the z intervals of each (x, y); None,
        a search, for k >= 2, where the z within a length may leave gaps.

        With x, y >= 0 and L >= s, the areas of ``length_upper`` make the z
        of length <= L an interval [xy - z_L, z_L].  On {a1, a2} z_L = A_N,
        N = floor((L + s) / 2), as paths have s + 2i letters.  With a3, it
        is the union over q <= L - s of [xy - A - q, A + q], A that of
        L - q letters, which all hold [0, xy], so z_L is the largest A + q:
        z_L = max(A_N, z_(L-1) + 1) and z_s = xy.  The automorphisms map
        the z of (x, y) one to one onto those of (-x, y), (x, -y) and
        (y, x), at the same lengths."""
        if self.k != 1:
            return None
        return _heisenberg_spheres(self.include_center_gen)

    def center_block(self, images):
        """The 1x1 block of a3: read off its image, or from the commutator
        [a2, a1], which generates the center when a3 is no generator.

        The image of a3 is central: the relator [a1, a2] a3^k gives
        phi(a3)^k = [phi(a1), phi(a2)]^-1, a commutator, so its first two
        entries are 0.  They are k times those of phi(a3), and k >= 1."""
        if self.include_center_gen:
            return IntMatrix.from_rows([[images[2][2]]])
        return IntMatrix.from_rows([[self.commutator(images[1], images[0])[2]]])


_SOL_SHORTCUT = (("M", "2x2 int matrix"), ("p", "int", 0), ("q", "int", 0), ("tau_exp", "int", 1))


class SolMachine(Machine):
    """Lattice Z^2 x|_A Z of Sol: generators a1, a2, tau with tau a^v tau^-1 = a^(Av).

    A must be an integer 2x2 matrix with determinant 1 and trace > 2; the
    machine's ``minimizer``, the one shift minimizer of its length functional
    and of the Sol routes, checks it and holds A^-1 and the one table of
    powers of A.
    Elements are flat int tuples (v1, v2, t) for a1^v1 a2^v2 tau^t.
    """

    family = "sol_lattice"
    schema = (("A", "2x2 int matrix"),)
    shortcut = "sol"
    # If some power of phi is trivial, its 1x1 free block (the tau-exponent
    # of phi(tau)) is 0, so phi maps G into the abelian kernel N = Z^2 of
    # the tau-exponent sum.  With phi(a^v) = a^(Mv) and phi(tau) = a^w, the
    # relator tau a_i tau^-1 a^(-A e_i) maps to a^(M(I - A) e_i), so
    # M(A - I) = 0.  A - I is invertible (det(A - I) = 2 - tr A != 0), so
    # M = 0: phi(N) = 1 and phi^2 = 1.
    triviality_power = 2

    @classmethod
    def build(cls, A):
        return cls(IntMatrix.from_rows(A))

    def __init__(self, matrix: IntMatrix):
        self.matrix = matrix
        self.minimizer = SolLengthMinimizer(matrix)
        self.gens = GenSet(("a1", "a2", "tau"))
        self.identity = (0, 0, 0)
        self.free_ab_indices = (2,)
        (a, b), (c, d) = matrix.entries
        self._form = (c, d - a, -b)  # Q(v) = c v0^2 + (d - a) v0 v1 - b v1^2
        # s, the largest column sum of |A|: ||M A||_max <= s ||M||_max
        self._growth = max(abs(a) + abs(c), abs(b) + abs(d))
        self._bounds = [max(map(abs, (a, b, c, d)))]  # E(0..D)
        self._reach = {}  # |t| -> table of the largest |Q| within each height cost

    def _key(self):
        return (("matrix", self.matrix),)

    def shortcut_images(self, payload):
        """a1 -> a^(column 1 of M), a2 -> a^(column 2 of M) and
        tau -> a1^p a2^q tau^tau_exp, for ``{"M": [[..], [..]], "p": int,
        "q": int, "tau_exp": int}`` (p, q default to 0, tau_exp to 1)."""
        args = check_params(_SOL_SHORTCUT, payload, "'sol' shortcut")
        (m11, m12), (m21, m22) = args["M"]
        return (m11, m21, 0), (m12, m22, 0), (args["p"], args["q"], args["tau_exp"])

    def holonomy_power(self, t: int) -> tuple[int, int, int, int]:
        """A^t for any integer t, as flat (a, b, c, d): from the minimizer's
        table for small |t| (the steps of a ball of that radius), otherwise
        by binary powering, not stored, after checking that its entries, of
        about |t| log2(alpha) bits, stay within SOL_POWER_BITS
        (ResourceCapExceeded past it).  A^-t is the adjugate of A^t."""
        if abs(t) <= _SOL_POWER_CACHE:
            a, b, c, d = self.minimizer.power(abs(t))
        else:
            self._check_power_size(t)
            (a, b), (c, d) = mat_pow(self.matrix, abs(t)).entries
        return (a, b, c, d) if t >= 0 else (d, -b, -c, a)

    def _check_power_size(self, t: int):
        # log2(trace A) >= log2(alpha), alpha the expanding eigenvalue
        bits = abs(t) * math.log2(self.matrix.trace())
        if bits > SOL_POWER_BITS:
            raise ResourceCapExceeded(
                f"A^{t} has entries of about {bits:.3g} bits, past the budget of {SOL_POWER_BITS}"
            )

    def mul(self, a, b):
        v0, v1, ta = a
        w0, w1, tb = b
        if not (w0 or w1):
            return (v0, v1, ta + tb)
        p, q, r, s = self.holonomy_power(ta)
        return (v0 + p * w0 + q * w1, v1 + r * w0 + s * w1, ta + tb)

    def inv(self, a):
        v0, v1, t = a
        if not (v0 or v1):
            return (0, 0, -t)
        p, q, r, s = self.holonomy_power(-t)
        return (-p * v0 - q * v1, -r * v0 - s * v1, -t)

    def pow(self, x, n):
        """(v, t)^n = ((I + B + ... + B^(n-1)) v, nt) with B = A^t, the
        geometric sum by doubling: S_2k = S_k (I + B^k), S_(k+1) = I + B S_k."""
        if n < 0:
            x, n = self.inv(x), -n
        v0, v1, t = x
        if n == 0 or not (v0 or v1) or t == 0:
            return (n * v0, n * v1, n * t)
        self._check_power_size(n * t)
        p, q, r, s = self.holonomy_power(t)
        base, one = IntMatrix(((p, q), (r, s))), IntMatrix.identity(2)
        total, power = one, base  # S_k and B^k for the leading bits k of n
        for bit in bin(n)[3:]:
            total, power = total @ (one + power), power @ power
            if bit == "1":
                total, power = one + base @ total, power @ base
        return (*mat_vec(total, (v0, v1)), n * t)

    def codec(self, starts, depth):
        """Fields t, v0, then v1 on top.  A step moves t by at most one, so
        within ``depth`` steps of a start t lies within ``depth`` of the
        start's.  An a_i^(+-1) letter read at height h adds +-column i of
        A^h to v, and the letter after p steps from a start is read at a
        height |h| <= T + p, T the largest |t| of a start.  So v0 moves by at
        most the sum over p = 0 .. depth - 1 of ``_entry_bound(T + p)``.
        The a steps read +-column i of A^t from a table indexed by the t
        field, filled at each height when a step first reads it."""
        tmin, tmax = t_box = _spread(starts, 2, depth)
        self._check_power_size(max(-tmin, tmax))
        top = max(abs(x[2]) for x in starts)
        reach = sum(self._entry_bound(top + p) for p in range(depth))
        fields = _Fields((_spread(starts, 0, reach), None, t_box), (2, 0, 1))
        (s0, _, _), (s1, _, _), (_, mask, _) = fields.spec
        power = self.holonomy_power

        def offset(i, f):  # column i of A^t, t = f + tmin, as a key offset
            v0, v1 = power(f + tmin)[i::2]
            return (v0 << s0) + (v1 << s1)

        steps = []
        for i in range(2):
            column = _Memo(lambda f, i=i: offset(i, f))
            steps.append(lambda keys, column=column: [x + column[x & mask] for x in keys])
            steps.append(lambda keys, column=column: [x - column[x & mask] for x in keys])
        steps += [fields.step(((2, e),)) for e in (1, -1)]
        return fields.codec(starts, depth, steps)

    def _entry_bound(self, h: int) -> int:
        """A bound on the entries in size of A^m over |m| <= h: A^-m has the
        entries of A^m up to sign, so E(max(h - 1, 0)) of ``_entry_bounds``,
        read as E(K) s^(h - 1 - K) past K = _SOL_POWER_CACHE."""
        top = _SOL_POWER_CACHE
        if h - 1 <= top:
            return self._entry_bounds(max(h - 1, 0))[max(h - 1, 0)]
        return self._entry_bounds(top)[top] * self._growth ** (h - 1 - top)

    def relators(self):
        a = self.matrix.entries
        rels = [commutator_word(_gen_word(0), _gen_word(1))]
        for i in range(2):
            conj = _gen_word(2) * _gen_word(i) * _gen_word(2, -1)
            rhs = _letters((0, -a[0][i]), (1, -a[1][i]))
            rels.append(conj * rhs)
        return rels

    def length_upper_word(self, elem):
        v1, v2, t = elem
        best = self.minimizer.minimize((v1, v2))
        p, q, r, s = self.holonomy_power(-best.shift)
        return _letters(
            (2, best.shift), (0, p * v1 + q * v2), (1, r * v1 + s * v2), (2, -best.shift + t)
        )

    def length_upper(self, elem):
        v1, v2, t = elem
        return self.minimizer.minimize((v1, v2)).value + abs(t)

    def length_lower(self, elem):
        """A bound from the invariant form Q(v) = v x Av, u x w = u0 w1 - u1 w0:
        for A = [[a, b], [c, d]], Q(v) = c v0^2 + (d - a) v0 v1 - b v1^2, an
        integer.  The bound is |t| when v = 0 and H(|Q(v)|, |t|) - |t|
        otherwise, with H(q, T) = min over D >= T of 2D + ceil(sqrt(q / E(D)))
        (``_height_cost``) and E(D) the largest entry in size of A^m over
        0 <= m <= D + 1.

        Q is invariant: Au x Aw = det(A) (u x w) = u x w, so Q(Av) = Q(v).
        Take a word for (v, t).  An a_i^(+-1) letter read at height h (the
        tau-exponent of the prefix) adds u = +-A^h e_i to v.  With n such
        letters v = u_1 + ... + u_n, and Q(v) is the sum over j, k of
        u_j x A u_k = +-e_i x A^m e_i', m = h_k - h_j + 1: +-1 times an entry
        of A^m.  If the heights of the a letters span D, then |m| <= D + 1,
        and as A^-m = adj(A^m) has the entries of A^m up to sign,
        |Q(v)| <= n^2 E(D).  The tau letters walk from height 0 to t through
        an interval of span at least D: from 0 to one end, to the other and
        on to t, at least 2D - |t| letters, and at least |t|.  So the word has
        at least ceil(sqrt(|Q| / E(D))) + max(|t|, 2D - |t|) letters for some
        D.  As E never falls, D <= |t| gives no less than D = |t|, and the
        least over D is H(|Q|, |t|) - |t|.  Any upper bound on E(D) keeps it a
        bound: past K = _SOL_POWER_CACHE, H reads E(K) s^(D - K), with s the
        largest column sum of |A|, as |(M A)_ij| <= s max |M_kl|.  Q(v) = 0
        only for v = 0, as the discriminant tr(A)^2 - 4 of Q is no square for
        tr(A) > 2, so the bound exceeds |t| when v != 0.

        Along the powers of a generator the bound never falls and grows
        without limit, as ``Machine.length_lower`` asks: tau^k has bound
        k, and Q(k e1) = c k^2, Q(k e2) = -b k^2 with b, c != 0 (else ad = 1
        and tr(A) = 2).  H is nondecreasing in q, and H(q, 0) <= h needs some
        D <= h / 2 with q <= h^2 E(D).

        A search reads the bound on every element it expands, so the common
        case is one lookup in the table of |t| that ``_height_cost`` fills."""
        v0, v1, t = elem
        if not (v0 or v1):
            return abs(t)
        c, e, f = self._form
        q, t = abs(c * v0 * v0 + e * v0 * v1 + f * v1 * v1), abs(t)
        table = self._reach.get(t)
        if table is not None and q <= table[-1]:
            return t + 1 + bisect_left(table, q)
        return self._height_cost(q, t) - t

    def _height_cost(self, q: int, t: int) -> int:
        """H(q, t) = min over D >= t of 2D + ceil(sqrt(q / E(D))), for q >= 1,
        with E(D) exact up to K = _SOL_POWER_CACHE and E(K) s^(D - K) past it.

        Up to 2K + 2 only the terms D <= K count, and the table of t answers:
        its entry for h is the largest q with H(q, t) <= h, the max over
        t <= D < h / 2 of (h - 2D)^2 E(D).  It is built up to the first entry
        >= q and stored whole, so a reader never sees a part.  Past it H is
        the least of the terms D = t .. K and of the terms past K, of which
        only a few can give the least.  If q >= 64 E(D) with D >= K, so
        x = sqrt(q / E(D)) >= 8, then ceil(x) - ceil(x / sqrt(s)) >
        x (1 - 1/sqrt(3)) - 1 > 2, and D + 1 costs less than D.  Here s >= 3:
        a or d is at least 2 as tr(A) >= 3, and a column sum of 2 would leave
        c = 0 and det A = 2d, or b = 0 and det A = 2a.  Once q <= E(D) the
        term is 2D + 1 and only grows.  The scan starts from bit lengths at
        or below the least D with q < 64 E(D), so it forms no power much past
        q, and none at all when bit lengths show E(t) > q."""
        top = _SOL_POWER_CACHE
        if t <= top:
            table = self._reach.get(t, [])
            h, last = 2 * t + 1 + len(table), 2 * top + 2
            if h <= last and not (table and q <= table[-1]):
                table = list(table)
                while h <= last and not (table and q <= table[-1]):
                    bounds = self._entry_bounds((h - 1) // 2)
                    table.append(max([(h - 2 * d) ** 2 * bounds[d] for d in range(t, (h + 1) // 2)]))
                    h += 1
                self._reach[t] = table
            if q <= table[-1]:
                return 2 * t + 1 + bisect_left(table, q)

        def cost(d, bound):  # 2d + the least n with n^2 bound >= q
            return 2 * d + math.isqrt(-(-q // bound) - 1) + 1

        bounds = self._entry_bounds(top)
        s, e_top = self._growth, bounds[top]
        j = max(t, top + 1) - top  # the term D = K + j
        if e_top.bit_length() - 1 + j * (s.bit_length() - 1) >= q.bit_length():
            best = 2 * (top + j) + 1  # E(D) > q: the term is 2D + 1
        else:
            # start at or below the least j with q < 64 E(K + j): the terms
            # before it each cost more than the next
            j = max(j, (q.bit_length() - 7 - e_top.bit_length()) // s.bit_length())
            bound = e_top * s**j
            while 64 * bound <= q:
                j, bound = j + 1, bound * s
            best = cost(top + j, bound)
            while best > 2 * (top + j) + 1:
                j, bound = j + 1, bound * s
                best = min(best, cost(top + j, bound))
        # each term D <= K is at least 2t + sqrt(q / E(K))
        if t <= top and 2 * t + math.isqrt(q // e_top) < best:
            best = min(best, *(cost(d, bounds[d]) for d in range(t, top + 1)))
        return best

    def _entry_bounds(self, top: int) -> list:
        """E(0), ..., E(top) at least, E(D) the largest entry in size of A^m
        over 0 <= m <= D + 1 (E(0) is that of A, as |A^0| = 1)."""
        bounds = self._bounds
        if len(bounds) <= top:
            bounds = list(bounds)  # extended whole
            while len(bounds) <= top:
                bounds.append(max(bounds[-1], *map(abs, self.minimizer.power(len(bounds) + 1))))
            self._bounds = bounds
        return bounds

    def closed_form(self, valid, tol):
        """The classified-type branch formula."""
        return gr_sol_closed(valid.derived(classify_endo))

    def length_table(self, valid, kmax, radius, cap):
        """Lengths from the shift minimizer's formulas, at any k; no search."""
        return gr_sol_empirical(valid.derived(classify_endo), kmax)


class KleinMachine(Machine):
    """Klein bottle group <x, y | y x y^-1 = x^-1>, normal form x^a y^b."""

    family = "klein_bottle"
    length_exact = True  # |a| + |b| for x^a y^b (``coordinate_orders``)
    # If some power of phi is trivial, its 1x1 free block (the y-exponent
    # sum of phi(y)) is 0, so phi maps G into the kernel N = <x> of the
    # y-exponent sum.  With phi(x) = x^q and phi(y) = x^p, the relator
    # y x y^-1 x maps to x^(2q), so q = 0, as N = Z is torsion-free:
    # phi(N) = 1 and phi^2 = 1.
    triviality_power = 2

    def __init__(self):
        self.gens = GenSet(("x", "y"))
        self.identity = (0, 0)
        self.free_ab_indices = (1,)

    def mul(self, a, b):
        sign = -1 if a[1] % 2 else 1
        return (a[0] + sign * b[0], a[1] + b[1])

    def inv(self, a):
        sign = -1 if a[1] % 2 else 1
        return (sign * -a[0], -a[1])

    def pow(self, x, n):
        # (x^a y^b)^2 = y^(2b) for odd b: the x-parts cancel in pairs
        a, b = x
        if b & 1:
            return (a if n & 1 else 0, n * b)
        return (n * a, n * b)

    def relators(self):
        return [_letters((1, 1), (0, 1), (1, -1), (0, 1))]

    def length_upper(self, elem):
        # the word length (coordinate_orders); x^k and y^k have length k
        return abs(elem[0]) + abs(elem[1])

    def length_lower(self, elem):
        return self.length_upper(elem)

    def coordinate_orders(self):
        # x^a y^b <-> (a, b) is a bijection onto Z^2, and the length is |a| + |b|
        return (0, 0)

    def closed_form(self, valid, tol):
        """Spectral radius on the invariant index-2 free abelian subgroup."""
        mat = klein_restricted_matrix(valid)
        sp = spectral_radius(mat, tol)
        return ClosedForm(
            sp.value,
            "klein_index2_reduction",
            {"restricted_matrix": [list(r) for r in mat.entries], "char_poly": str(sp.char_poly)},
        )


class BSMachine(Machine):
    """Baumslag-Solitar group <a, b | a^-1 b a = b^n>, n >= 2.

    Elements are (num, e, t): the b-part is num / n^e in canonical form
    (e >= 0; n does not divide num when e > 0), t the a-exponent.
    """

    family = "baumslag_solitar"
    schema = (("n", "int"),)
    closed_form = None  # empirical only
    length_exact = True  # ``length_upper`` gives the proof
    # If some power of phi is trivial, its 1x1 free block (the a-exponent
    # sum of phi(a)) is 0, so phi maps G into the kernel N = Z[1/n] of the
    # a-exponent sum, the abelian normal closure of b.  With phi(b) = y and
    # phi(a) = z in N, the relator a^-1 b a b^-n maps to y^(1 - n), so
    # y = 1, as N is torsion-free and n >= 2: phi(N) = 1 and phi^2 = 1.
    triviality_power = 2

    def __init__(self, n: int):
        if n < 2:
            raise ValidationError("parameter n must be >= 2")
        self.n = n
        self.gens = GenSet(("a", "b"))
        self.identity = (0, 0, 0)
        self.free_ab_indices = (0,)
        # n^k has about k log2(n) bits, and at least k floor(log2(n)) + 1
        self._power_limit = SOL_POWER_BITS / math.log2(n)
        self._log2_floor = n.bit_length() - 1

    def _canonical(self, num, e):
        if num == 0:
            return (0, 0)
        while e > 0 and num % self.n == 0:
            num //= self.n
            e -= 1
        return (num, e)

    def _power(self, k: int) -> int:
        """n^k; past SOL_POWER_BITS bits, the budget of Sol holonomy powers,
        ResourceCapExceeded in place of a MemoryError."""
        if k > self._power_limit:
            raise ResourceCapExceeded(f"{self.n}^{k} would take more than {SOL_POWER_BITS} bits, past the budget")
        return self.n**k

    def mul(self, a, b):
        na, ea, ta = a
        nb, eb, tb = b
        if nb == 0:  # b is a power of a: no n^t_a, which is huge for huge t_a
            return (na, ea, ta + tb)
        # q_a + n^(-t_a) q_b over the common denominator n^E
        e_common = max(ea, eb + ta, 0)
        num = nb * self._power(e_common - eb - ta)
        if na:
            num += na * self._power(e_common - ea)
        num, e = self._canonical(num, e_common)
        return (num, e, ta + tb)

    def inv(self, a):
        num, e, t = a
        # -(n^t q, -t); n^t q = num / n^(e - t)
        num2, e2 = self._canonical(-num, e - t) if e >= t or num == 0 else (-num * self._power(t - e), 0)
        return (num2, e2, -t)

    def codec(self, starts, depth):
        """Keys (u - ulo) + ((t - tmin) << w) + (num << W): the normal form
        with u = e - t in place of e, so an a^(+-1) step, which moves t by
        +-1 and keeps the b-part, is one add.  A step moves t by at most
        one, so within ``depth`` steps of a start t lies in [tmin, tmax],
        the least and largest start exponents widened by ``depth``.  A b
        step at height t gives a denominator n^e' with e' <= max(e, t), and
        the step after p < depth steps from a start is taken at a height of
        at most tmax - 1.  So e lies in [0, top], top the largest of 0,
        tmax - 1 and every start's e, and u in [-tmax, top - tmin].

        A b^(+-1) step adds +-n^-t to num / n^e, as ``mul`` does.  Below the
        denominator's height, u > 0, it adds +-n^u to num and keeps e: n
        divides n^u but not num when e > 0.  That is one add of n^u << W,
        read from a table indexed by the u field and filled at each u when
        a step first reads it.  At or above it, u <= 0, the b-part takes
        the denominator n^t, as in ``mul``: num n^-u +- 1 over n^t for
        u < 0, and num +- 1 for u = 0, in lowest terms.  Every power goes
        through ``_power``, so a step that needs one past the budget raises
        ResourceCapExceeded, as ``mul`` does, and a pure power of a forms
        none."""
        tmin, tmax = t_box = _spread(starts, 2, depth)
        top = max(0, tmax - 1, *(e for _, e, _ in starts))
        ulo = -tmax
        wu = (top - tmin - ulo).bit_length()
        wq = wu + (tmax - tmin).bit_length()
        umask, tmask, zero = (1 << wu) - 1, (1 << wq - wu) - 1, -ulo  # zero: the u field of u = 0
        n, power, canonical = self.n, self._power, self._canonical
        above = _Memo(lambda f: power(abs(f + ulo)) << wq)  # n^|u| << W at the u field f

        def encode(x):
            num, e, t = x
            return e - t - ulo + (t - tmin << wu) + (num << wq)

        def decode(key):
            t = (key >> wu & tmask) + tmin
            return (key >> wq, (key & umask) + ulo + t, t)

        def rescale(x, s):  # b^s at u <= 0
            f, num = x & umask, x >> wq
            if f != zero:  # u < 0: (num n^-u + s) / n^t, in lowest terms as t >= 1
                return (x & tmask << wu) + zero + (num * above[f] if num else 0) + (s << wq)
            t = (x >> wu & tmask) + tmin
            if t and not (num + s) % n:  # u = 0 < t: (num + s) / n^t may cancel
                return encode((*canonical(num + s, t), t))
            return x + (s << wq)

        a_step = (1 << wu) - 1  # t + 1 and u - 1
        steps = [
            lambda keys: [x + a_step for x in keys],
            lambda keys: [x - a_step for x in keys],
            lambda keys: [x + above[f] if (f := x & umask) > zero else rescale(x, 1) for x in keys],
            lambda keys: [x - above[f] if (f := x & umask) > zero else rescale(x, -1) for x in keys],
        ]
        return Codec(tuple(starts), depth, (None, (0, top), t_box), encode, decode, steps)

    def gen_elem(self, i):
        return ((0, 0, 1), (1, 0, 0))[i]

    def relators(self):
        return [_letters((0, -1), (1, 1), (0, 1), (1, -self.n))]

    def decompose(self, elem):
        num, e, t = elem
        return _letters((0, e), (1, num), (0, t - e))

    def length_upper(self, elem):
        """The word length, in one pass over base-n digits; |t| when num = 0.

        Words.  A b^(+-1) read at a-height h (the a-exponent of the prefix)
        adds +-n^-h to the b-part.  So a word whose a letters walk over the
        heights [L, U'], with its b letters at height h summing to c_h,
        spells (num, e, t) iff the sum of c_h n^-h is num / n^e.  It has at
        least 2(U' - L) - |t| a letters, as the walk covers 0 and t, and at
        least the sum of |c_h| b letters.  The sweep 0, one end, the other,
        t, dropping b^(c_h) at each height, has exactly that many.

        Top.  U' >= U = max(0, t, e): the walk covers 0 and t, and for e > 0
        some b letter lies at height >= e, as n does not divide num.  If
        U' > U, n divides c_U': a zero lets the walk skip U', and kn moves
        to k at U' - 1, each shorter.  So a shortest word has U' = U.

        Digits.  Let D = U - L and i = U - h, and take num > 0 (b -> b^-1
        negates it).  The c_i are digits of N = num n^(U - e) = the sum of
        c_i n^i over i <= D, with D >= D0 = U - min(0, t), and the length is
        2D - |t| + the sum of |c_i|.  Below the top |c_i| < n, or c_i -+ n,
        c_(i+1) +- 1 saves n - 1 letters.  So, with Q = N // n^i and the
        carry c in {0, 1} that the digits below leave to spell (Q + c) n^i,
        each digit is R or R - n for R = (Q mod n) + c, which leaves carry 0
        or 1, and the top digit is Q + c.  ``_plan`` keeps the least b-cost of each carry and
        takes the least candidate over D: once 2D - |t| reaches it, no
        deeper D helps, and once Q = 0 the b-cost stays, at D or D0.  Each
        candidate is the length of a sweep word, and the least is over
        every shape a shortest word can take, so it is the word length.

        The pass takes O(digits of num) steps, never O(|t|), and forms no
        power of n.  Lengths fall along b's powers, |b^11| = 8 > |b^12| = 7
        for n = 2, so ``length_lower`` keeps its own bound."""
        return self._plan(elem)[0] if elem[0] else abs(elem[2])

    def _plan(self, elem, trail=None):
        """(length, D, Q, c) of ``length_upper``'s least candidate, whose top
        digit Q + c sits at D, for num != 0.  A list ``trail`` gets, per
        digit stepped, (its digit s of N, whether carry 0 and whether carry 1
        came from carry 1)."""
        num, e, t = elem
        n, span = self.n, abs(t)
        top = max(0, t, e)
        floor = top - min(0, t)
        depth, q = top - e, abs(num)
        # no carry below the lowest nonzero digit; q + 1 stands for none, as
        # taking each digit s keeps a candidate of b-cost <= q at every D
        cost0, cost1 = 0, q + 1
        best = None
        while True:
            if depth >= floor or not q:
                length = 2 * max(depth, floor) - span + q + min(cost0, cost1 + 1)
                if best is None or length < best[0]:
                    best = (length, depth, q, cost1 + 1 < cost0)
                if not q or 2 * depth + 2 - span >= best[0]:
                    return best
            q, s = divmod(q, n)
            from0, from1 = cost1 + 1 < cost0, cost1 - 1 < cost0
            if trail is not None:
                trail.append((s, from0, from1))
            cost0, cost1 = s + (cost1 + 1 if from0 else cost0), n - s + (cost1 - 1 if from1 else cost0)
            depth += 1

    def length_upper_word(self, elem):
        """The sweep word of ``length_upper``'s least candidate, from its
        digits: up from the lowest height when t >= 0, else down from U."""
        num, e, t = elem
        if not num:
            return _letters((0, t))
        trail = []
        _, depth, q, carry = self._plan(elem, trail)
        top, sign = max(0, t, e), 1 if num > 0 else -1
        low = top - max(depth, top - min(0, t))
        digits = [(top - depth, sign * (q + carry))]  # (height, digit), from the lowest up
        for i in range(depth - 1, top - e - 1, -1):
            s, from0, from1 = trail[i - top + e]
            prev = from1 if carry else from0
            digits.append((top - i, sign * (s + prev - self.n * carry)))
            carry = prev
        first, last = (low, top) if t >= 0 else (top, low)
        letters, height = [(0, first)], first
        for h, d in digits if t >= 0 else reversed(digits):
            if d:
                letters += [(0, h - height), (1, d)]
                height = h
        letters += [(0, last - height), (0, t - last)]
        return reduce_word(_letters(*letters))

    def length_lower(self, elem):
        """min over H >= 0 of walk(H) + max(1, ceil(|num| / n^(e+H))), with
        walk(H) = min(2H + e + |e - t|, 2e + H + |t + H|); |t| when num = 0.

        Read a word letter by letter.  A b^(+-1) read at a-height h (the
        a-exponent of the prefix) adds +-n^-h to the b-part num / n^e.  Let
        -H be the lowest height at which the word reads a b letter, or 0 if
        that is higher.  Each b letter then adds at most n^H in absolute
        value, so the word reads B >= |num| / n^(e+H) b letters, and B >= 1
        when num != 0.  When e > 0, n does not divide num, so some b letter
        is read at height >= e.  The a letters thus walk from 0 through -H
        and through e, in either order, to t: walk(H) letters at least.
        H = 0 gives e + |e - t| + 1, the bound that ignores the b-part.

        At most four H can give the minimum.  Let H* be the least H >= 0 with
        n^(e+H) >= |num|.  Past H* the b-term is 1 and walk does not fall.
        walk grows by at most 2 per unit of H, while with x = |num| / n^(e+H)
        the b-term falls by at least ceil(x) - ceil(x / n) >= x / 2 - 1, which
        is >= 2 once x >= 6.  For H <= H* - 4, x > n^3 >= 8, so H + 1 is never
        worse, and max(0, H* - 3) .. H* are the candidates.

        Bit lengths decide n^e >= |num| before any power is formed, so no
        power grows much past |num|: a^N b a^-N with N = 10^10 costs no more
        than b.

        a^k = (0, 0, k) has the bound k, and b^k = (k, 0, 0) the least over
        H of 2H + max(1, ceil(k / n^H)): each term is nondecreasing in k,
        and the bound grows without limit."""
        num, e, t = elem
        if not num:
            return abs(t)
        m = abs(num)
        if e * self._log2_floor >= m.bit_length():  # n^e >= 2^bits > |num|
            return e + abs(e - t) + 1
        n = self.n
        d = -(-m // n**e)  # ceil(ceil(m / n^e) / n^H) = ceil(m / n^(e+H))
        # H* and p = n^H*: step up from a float estimate just below it
        top = max(0, int(math.log(d, n)) - 2) if d.bit_length() > 64 else 0
        p = n**top
        while p < d:
            p *= n
            top += 1
        best = e + abs(e - t) + d
        for h in range(top, max(0, top - 3) - 1, -1):
            best = min(best, min(2 * h + e + abs(e - t), 2 * e + h + abs(t + h)) - (-d // p))
            p //= n
        return best


def klein_restricted_matrix(valid) -> IntMatrix:
    """Matrix of a valid endomorphism on the invariant index-2 subgroup <x, y^2> = Z^2.

    For images x -> x^q, y -> y^r x^l this is [[q, ((-1)^r + 1) l], [0, r]].
    phi(x) has y-exponent 0: the y-exponent sum is a homomorphism to Z that
    takes the image of the relator y x y^-1 x to twice that exponent, and
    the relator maps to the identity.
    """
    (q, _), ey = valid.images
    x_part, _ = valid.machine.mul(ey, ey)  # phi(y^2) = x^x_part y^(2r)
    return IntMatrix.from_rows([[q, x_part], [0, ey[1]]])


MACHINES = {
    cls.family: cls
    for cls in (
        FreeAbelianMachine, TorsionProductMachine, HeisenbergMachine, Nil2Machine, SolMachine, KleinMachine, BSMachine
    )
}


def machine_from_params(family: str, params: dict) -> Machine:
    """Build a machine from a descriptor's family tag and parameter object."""
    cls = MACHINES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ValidationError(f"unknown family {family!r}")
    return cls.build(**check_params(cls.schema, params, f"{family} params"))
