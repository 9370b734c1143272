"""Exact normal-form machines for the bundled group families.

Each machine owns: a generator set, exact multiplication/inversion on normal
forms, its defining relator list, a canonical word decomposition of any
element, and a length functional that returns the length of an explicit word
representing the element (an upper bound on the true word length; exact where
``length_exact``, that is where ``coordinate_orders`` is not None).

A normal form is a flat tuple of ints.  In every family but Baumslag-Solitar
entry i is the exponent of generator i (the central ones last), so the base
class supplies ``gen_elem``, ``decompose`` and ``cyclic_inner_length``, and a
family overrides one only where its normal form reads otherwise.

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

# Sol holonomy powers A^t with |t| up to _SOL_POWER_CACHE are cached per
# machine (a Cayley-ball search of radius r steps through |t| <= r); larger
# ones are computed when asked for, and refused with ResourceCapExceeded when
# their entries would exceed SOL_POWER_BITS bits (half a megabyte each).
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
    # the lower bound of each generator's powers g^k never falls as k grows
    # and is unbounded (or g^k returns to the identity); ball.cyclic_distortion
    # gives the proof per family
    powers_lower_monotone = True
    gens: GenSet
    identity: object
    free_ab_indices: tuple[int, ...]
    shortcut = None  # the endomorphism descriptor shortcut key it accepts, if any

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

    def steps(self) -> list:
        """Right multiplication by each generator and its inverse, in the
        order g0, g0^-1, g1, g1^-1, ...: the edges a Cayley-ball search
        follows.  Each step maps a chunk of elements at once.  It takes the
        chunk's coordinate columns, ``cols[k]`` holding coordinate k of each
        element (``tuple(zip(*chunk))``; empty columns for an empty chunk),
        and returns an iterable of the products x*s in chunk order.  Every
        family gives them in closed form, without a call to ``mul``; a new
        list per call, since a step may cache per search."""
        raise NotImplementedError

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
        the length stops before it starts when this exceeds its radius."""
        return 0

    def coordinate_orders(self):
        """The orders (0 for Z) of cyclic coordinates whose lengths, |x| on Z
        and min(r, m - r) on Z/m, add up to the word length; None when the
        word length is no such sum.  ``ball.ball_counts`` counts spheres
        from them."""
        return None

    @property
    def length_exact(self) -> bool:
        """``length_upper`` is the true word length: it is the sum of the
        cyclic coordinate lengths that ``coordinate_orders`` declares."""
        return self.coordinate_orders() is not None

    def commutator(self, a, b):
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    @property
    def triviality_power(self) -> int:
        """A power B such that phi^B is trivial whenever some power of the
        endomorphism phi is; ``words.eventually_trivial`` tests no higher one.

        This default is the Hirsch length h = ``len(identity)`` of a
        torsion-free nilpotent family (free abelian, Heisenberg, nilpotent2),
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

    def cyclic_inner_length(self, gen_index: int, elem):
        """|k| if elem == gen^k, else None.  Used for distortion profiles.

        This default reads a normal form of one exponent per generator.
        """
        x = elem[gen_index]
        return abs(x) if elem.count(0) + (x != 0) == len(elem) else None


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


def _bump(i: int, e: int, m: int = 0, terms=()):
    """The chunk step x -> x + e * unit_i on flat int tuples, modulo m at
    index i when m > 0, that also adds coef * x_j at index k for each
    (k, j, coef) in ``terms``.  Unchanged columns are reused."""

    def step(cols):
        out = list(cols)
        out[i] = [(x + e) % m for x in cols[i]] if m else [x + e for x in cols[i]]
        for k, j, coef in terms:
            out[k] = [z + coef * x for z, x in zip(out[k], cols[j])]
        return zip(*out)

    return step


class _Memo(dict):
    """A dict that fills a missing key k with fn(k) when it is first read."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


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


def _area_reach(k: int, s: int, c: int) -> int:
    """Least f(u) = 2u - s + max(0, c - floor(k u^2 / 4)) over integers
    u >= s >= 0, for k >= 1 and c >= 0.

    Let u0 be the least u >= s with k u^2 >= 4c, so f(u0) = 2u0 - s and f
    grows past u0.  Below u0, f(u) = ceil(2u - s + c - k u^2 / 4) is the
    ceiling of a concave function, least at u = s or u = u0 - 1."""
    if c == 0:
        return s
    need = -(-4 * c // k)  # k u^2 >= 4c iff u^2 >= ceil(4c / k)
    u0 = max(s, math.isqrt(need - 1) + 1)
    best = 2 * u0 - s
    if u0 > s:
        best = min(best, *(2 * u - s + c - k * u * u // 4 for u in (s, u0 - 1)))
    return best


class _AbelianMachine(Machine):
    """Z^rank x prod Z_m on flat int tuples: the rank free exponents, then
    the residues in [0, m).  ``orders`` holds 0 for each Z and m for each
    Z_m coordinate, and generator i is the unit of coordinate i."""

    rank: int
    orders: tuple[int, ...]

    def _set_orders(self, names, orders):
        self.names = tuple(names)
        self.gens = GenSet(self.names)
        self.orders = orders
        self.identity = (0,) * len(orders)
        self.free_ab_indices = tuple(range(self.rank))
        self._torsion_at = tuple((i, m) for i, m in enumerate(orders) if m)

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

    def steps(self):
        return [_bump(i, e, m) for i, m in enumerate(self.orders) for e in (1, -1)]

    def relators(self):
        return [_gen_word(i, m) for i, m in self._torsion_at]

    def decompose(self, elem):
        letters = list(enumerate(elem[: self.rank]))
        for i, m in self._torsion_at:
            r = elem[i]
            letters.append((i, r if r <= m - r else r - m))  # the shorter way round
        return _letters(*letters)

    def length_upper(self, elem):
        total = sum(map(abs, elem[: self.rank]))
        for i, m in self._torsion_at:
            total += min(elem[i], m - elem[i])
        return total

    def coordinate_orders(self):
        return self.orders

    def cyclic_inner_length(self, gen_index, elem):
        return self.length_upper(elem) if elem.count(0) + (elem[gen_index] != 0) == len(elem) else None


class FreeAbelianMachine(_AbelianMachine):
    """Z^rank with coordinatewise arithmetic; elements are int tuples."""

    family = "free_abelian"
    schema = (("rank", "int"), ("names", "list of str", ()))
    shortcut = "matrix"

    def __init__(self, rank: int, names: tuple[str, ...] = ()):
        if rank < 1:
            raise ValidationError("rank must be >= 1")
        self.rank = rank
        names = names or tuple(f"e{i + 1}" for i in range(rank))
        if len(names) != rank:
            raise ValidationError("need one name per generator")
        self._set_orders(names, (0,) * rank)

    def shortcut_images(self, rows):
        """The columns of a square int matrix: column i is the image of
        generator i."""
        if not PARAM_TYPES["int matrix"](rows):
            raise ValidationError("'matrix' shortcut must be an int matrix")
        mat = IntMatrix.from_rows(rows)
        if mat.rows != self.rank or mat.cols != self.rank:
            raise ValidationError("matrix shortcut must be square of the generator count")
        return mat.transpose().entries


class TorsionProductMachine(_AbelianMachine):
    """Z^rank x prod Z_{b_i}; an element is one flat int tuple
    (x_1, ..., x_rank, r_1, ..., r_s) for a^x t^r, the free exponents, then
    the residues r_i in [0, b_i)."""

    family = "abelian_with_torsion"
    schema = (("rank", "int"), ("torsion", "list of int"), ("names", "list of str", ()))

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
        self._set_orders(names, (0,) * rank + self.torsion)

    @property
    def triviality_power(self) -> int:
        """rank + floor(log2 |T|), T the torsion subgroup.  If some power of
        phi is trivial, the free block phi induces on G/T = Z^rank is
        nilpotent, so its rank-th power is 0 and phi^rank maps G into T.
        phi maps T into T, so the subgroups phi^k(T) fall until one step
        leaves them equal, and from then on they stay equal; here they end
        at 1.  Each strict step goes to a proper subgroup, of at most half
        the order, so phi^k(T) = 1 for k = floor(log2 |T|)."""
        return self.rank + math.prod(self.torsion).bit_length() - 1

    def closed_form(self, valid, tol):
        return gr_torsion_closed(valid, tol)


class HeisenbergMachine(Machine):
    """Integer Heisenberg lattice with parameter k: [a1, a2] = a3^-k.

    Normal form a1^m a2^n a3^l as the triple (m, n, l); multiplication is
    (m, n, l)(m', n', l') = (m + m', n + n', l + l' + k n m').

    With include_center_gen=False the generating set is {a1, a2} (only
    allowed for k=1, where the center is generated by the commutator).
    """

    family = "heisenberg"
    schema = (("k", "int"), ("include_center_gen", "bool", True))

    def __init__(self, k: int = 1, include_center_gen: bool = True):
        if k < 1:
            raise ValidationError("k must be >= 1")
        if not include_center_gen and k != 1:
            raise ValidationError("dropping the central generator requires k = 1")
        self.k = k
        self.include_center_gen = include_center_gen
        self.gens = GenSet(("a1", "a2", "a3") if include_center_gen else ("a1", "a2"))
        self.identity = (0, 0, 0)
        self.free_ab_indices = (0, 1)

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + self.k * a[1] * b[0])

    def inv(self, a):
        m, n, l = a
        return (-m, -n, -l + self.k * n * m)

    def pow(self, x, n):
        # the cross terms k * (j q) * m over j = 0..n-1 sum to k q m n(n-1)/2
        m, q, l = x
        return (n * m, n * q, n * l + self.k * q * m * (n * (n - 1) // 2))

    def steps(self):
        # columns (m, n, l); a1^(+-1) also moves l by +-k n
        a1 = [_bump(0, e, terms=((2, 1, e * self.k),)) for e in (1, -1)]
        return a1 + [_bump(i, e) for i in range(1, len(self.gens)) for e in (1, -1)]

    def relators(self):
        c12 = commutator_word(_gen_word(0), _gen_word(1))
        if self.include_center_gen:
            return [
                Word(c12.letters + ((2, self.k),)),
                commutator_word(_gen_word(0), _gen_word(2)),
                commutator_word(_gen_word(1), _gen_word(2)),
            ]
        # two-generator presentation: the commutator is central
        c12_word = Word(c12.letters)
        return [
            commutator_word(_gen_word(0), c12_word),
            commutator_word(_gen_word(1), c12_word),
        ]

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

    def length_lower(self, elem):
        """The larger of two bounds on the length L of a word for (m, n, l).

        Letter by letter: max(|m| + |n|, least L with k L(L-1)/2 + L >= |l|).
        Each a1 or a2 letter moves |m| + |n| by one, so |m| + |n| <= L.
        Right multiplication by a1^(+-1) moves l by k n_p, by a2^(+-1) not
        at all and by a3^(+-1) by one, where n_p is the a2-exponent of the
        prefix; after p letters |n_p| <= p, so the next letter moves l by at
        most max(k p, 1).  Summed over p < L, |l| <= k L(L-1)/2 + L.

        By area, charging a3 for what the a1, a2 letters cannot reach: let
        the word have p letters a1^(+-1) or a2^(+-1) and q letters a3^(+-1).
        The first walk a lattice path from (0, 0) to (m, n), and l is k times
        the sum of n_p dm over the a1 steps plus the a3 exponent sum, of size
        at most q.  Walking back by
        a2^-n, then a1^-m at height 0, adds nothing to that sum and closes
        the path, now of length P = p + |m| + |n| with M horizontal and V
        vertical steps.  On a closed path sum dm = 0, so the sum equals
        sum (n_p - h) dm for the middle height h of the path, and
        |n_p - h| <= V/4: it is at most M V / 4 <= P^2/16 in size.  Hence
        |l| <= k P^2/16 + q.  As p >= s = |m| + |n| and p = s mod 2,
        P = 2u with u >= s, and L = p + q >= 2u - s + max(0, |l| -
        floor(k u^2 / 4)); ``_area_reach`` gives the least such value."""
        m, n, l = elem
        s, c = abs(m) + abs(n), abs(l)
        return max(_nil_lower(self.k, s, c), _area_reach(self.k, s, c))

    def length_upper_word(self, elem):
        m, n, l = elem
        prefix = _letters((0, m), (1, n))
        central = self._central_word(l)
        if self.include_center_gen and abs(l) <= central.length():
            central = _letters((2, l))
        return prefix * central

    def center_block(self, images):
        """The 1x1 block of a3: read off its image, or from the commutator
        [a2, a1], which generates the center when a3 is no generator.

        The image of a3 is central: the relator [a1, a2] a3^k gives
        phi(a3)^k = [phi(a1), phi(a2)]^-1, a commutator, so its first two
        entries are 0.  They are k times those of phi(a3), and k >= 1."""
        if self.include_center_gen:
            return IntMatrix.from_rows([[images[2][2]]])
        return IntMatrix.from_rows([[self.commutator(images[1], images[0])[2]]])


class Nil2Machine(Machine):
    """Torsion-free class-2 nilpotent group with designated central generators.

    Generators: tau_1..tau_n plus central sigma names.  An element is one
    flat int tuple (x_1, ..., x_n, z_1, ..., z_m) for tau^x sigma^z: its
    first ``n_gens`` entries are the tau exponents, in generator order like
    the central ones after them.  gamma[(i, j)] for i > j is the central exponent
    vector of [tau_i, tau_j]; each designated sigma is [tau_i, tau_j] for its
    designated pair, so its gamma entry is the matching +-unit vector.
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
        out = [0] * len(self.gens)
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

    def steps(self):
        n = self.n_gens
        out = []
        for j in range(1, n + 1):
            # (x, z) tau_j^e = (x + e unit_j, z + e sum_{i > j} x_i gamma(i, j)),
            # with z_s at flat index n + s
            gammas = [(i - 1, vec) for (i, jj), vec in self._gamma_table if jj == j]
            for e in (1, -1):
                terms = tuple((n + s, i, e * v) for i, vec in gammas for s, v in enumerate(vec) if v)
                out.append(_bump(j - 1, e, terms=terms))
        # sigma_s^e moves z_s by e
        out += [_bump(n + s, e) for s in range(len(self.central)) for e in (1, -1)]
        return out

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
        |z|_inf <= G L(L-1)/2 + L."""
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


_SOL_SHORTCUT = (("M", "2x2 int matrix"), ("p", "int", 0), ("q", "int", 0), ("tau_exp", "int", 1))


class SolMachine(Machine):
    """Lattice Z^2 x|_A Z of Sol: generators a1, a2, tau with tau a^v tau^-1 = a^(Av).

    A must be an integer 2x2 matrix with determinant 1 and trace > 2; the
    machine's ``minimizer``, the one shift minimizer of its length functional
    and of the Sol routes, checks it and holds A^-1.
    Elements are flat int tuples (v1, v2, t) for a1^v1 a2^v2 tau^t.
    """

    family = "sol_lattice"
    schema = (("A", "2x2 int matrix"),)
    shortcut = "sol"
    powers_lower_monotone = False  # length_lower(a1^k) = 0 for every k
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
        self._pow_cache = {0: IntMatrix.identity(2)}

    def _key(self):
        return (("matrix", self.matrix),)

    def shortcut_images(self, payload):
        """a1 -> a^(column 1 of M), a2 -> a^(column 2 of M) and
        tau -> a1^p a2^q tau^tau_exp, for ``{"M": [[..], [..]], "p": int,
        "q": int, "tau_exp": int}`` (p, q default to 0, tau_exp to 1)."""
        args = check_params(_SOL_SHORTCUT, payload, "'sol' shortcut")
        (m11, m12), (m21, m22) = args["M"]
        return (m11, m21, 0), (m12, m22, 0), (args["p"], args["q"], args["tau_exp"])

    def holonomy_power(self, t: int) -> IntMatrix:
        """A^t for any integer t: cached for small |t| (the steps of a ball
        of that radius), otherwise by binary powering, after checking that
        its entries, of about |t| log2(alpha) bits, stay within
        SOL_POWER_BITS (ResourceCapExceeded past it)."""
        if abs(t) > _SOL_POWER_CACHE:
            self._check_power_size(t)
            return mat_pow(self.matrix, t) if t > 0 else mat_pow(self.minimizer.inverse, -t)
        cache = self._pow_cache
        if t not in cache:
            # the cached exponents form a range around 0: extend it up to t
            step, factor = (1, self.matrix) if t > 0 else (-1, self.minimizer.inverse)
            k = t
            while k not in cache:
                k -= step
            power = cache[k]
            while k != t:
                k += step
                power = power @ factor
                cache[k] = power
        return cache[t]

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
        d0, d1 = mat_vec(self.holonomy_power(ta), (w0, w1))
        return (v0 + d0, v1 + d1, ta + tb)

    def inv(self, a):
        v0, v1, t = a
        if not (v0 or v1):
            return (0, 0, -t)
        w0, w1 = mat_vec(self.holonomy_power(-t), (v0, v1))
        return (-w0, -w1, -t)

    def pow(self, x, n):
        """(v, t)^n = ((I + B + ... + B^(n-1)) v, nt) with B = A^t, the
        geometric sum by doubling: S_2k = S_k (I + B^k), S_(k+1) = I + B S_k."""
        if n < 0:
            x, n = self.inv(x), -n
        v0, v1, t = x
        if n == 0 or not (v0 or v1) or t == 0:
            return (n * v0, n * v1, n * t)
        self._check_power_size(n * t)
        base = self.holonomy_power(t)
        one = IntMatrix.identity(2)
        total, power = one, base  # S_k and B^k for the leading bits k of n
        for bit in bin(n)[3:]:
            total, power = total @ (one + power), power @ power
            if bit == "1":
                total, power = one + base @ total, power @ base
        return (*mat_vec(total, (v0, v1)), n * t)

    def steps(self):
        power = self.holonomy_power

        def a_step(i, e):
            # (v, t) a_i^e = (v + e * column i of A^t, t), the shift of each t
            # computed once per search
            def shift(t):
                p = power(t).entries
                return (e * p[0][i], e * p[1][i])

            shifts = _Memo(shift)

            def step(cols):
                v0s, v1s, ts = cols
                return [(v0 + d0, v1 + d1, t) for v0, v1, t, (d0, d1) in zip(v0s, v1s, ts, map(shifts.__getitem__, ts))]

            return step

        return [a_step(i, e) for i in range(2) for e in (1, -1)] + [_bump(2, 1), _bump(2, -1)]

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
        shifted = mat_vec(self.holonomy_power(-best.shift), (v1, v2))
        return _letters(
            (2, best.shift), (0, shifted[0]), (1, shifted[1]), (2, -best.shift + t)
        )

    def length_upper(self, elem):
        v1, v2, t = elem
        return self.minimizer.minimize((v1, v2)).value + abs(t)

    def length_lower(self, elem):
        """The tau-exponent moves by one per tau letter."""
        return abs(elem[2])

    def closed_form(self, valid, tol):
        """The classified-type branch formula."""
        return gr_sol_closed(valid.derived(classify_endo))

    def length_table(self, valid, kmax, radius, cap):
        """Lengths from the shift minimizer's formulas, at any k; no search."""
        return gr_sol_empirical(valid.derived(classify_endo), kmax)


class KleinMachine(Machine):
    """Klein bottle group <x, y | y x y^-1 = x^-1>, normal form x^a y^b."""

    family = "klein_bottle"
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

    def steps(self):
        # columns (a, b): x^(+-1) moves a by +-1, against the sign when b is odd
        return [
            lambda c: zip([a - 1 if b & 1 else a + 1 for a, b in zip(*c)], c[1]),
            lambda c: zip([a + 1 if b & 1 else a - 1 for a, b in zip(*c)], c[1]),
            _bump(1, 1),
            _bump(1, -1),
        ]

    def relators(self):
        return [_letters((1, 1), (0, 1), (1, -1), (0, 1))]

    def length_upper(self, elem):
        return abs(elem[0]) + abs(elem[1])

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

    def steps(self):
        canonical = self._canonical
        pw = _Memo(self._power)  # n^d for this search, in mul's budget

        def b_step(s):
            # (num / n^e, t) b^s adds s / n^t to the b-part:
            # t > e: (num n^(t-e) + s) / n^t, canonical as the top is s mod n;
            # t < e: (num + s n^(e-t)) / n^e, as for e > 0 n divides s n^(e-t)
            # but not num; t = e: n may divide num + s.  n^(t-e) is formed only
            # for num != 0, as in mul, which never forms n^t for a power of a.
            return lambda cols: [
                ((num * pw[t - e] + s if num else s), t, t)
                if t > e
                else (num + s * pw[e - t], e, t)
                if t < e
                else canonical(num + s, e) + (t,)
                for num, e, t in zip(*cols)
            ]

        return [_bump(2, 1), _bump(2, -1), b_step(1), b_step(-1)]

    def gen_elem(self, i):
        return ((0, 0, 1), (1, 0, 0))[i]

    def relators(self):
        return [_letters((0, -1), (1, 1), (0, 1), (1, -self.n))]

    def decompose(self, elem):
        num, e, t = elem
        return _letters((0, e), (1, num), (0, t - e))

    def _balanced_digits(self, value):
        """Base-n digits in [-(n//2), +(n - n//2)] ... smallest magnitudes."""
        digits = []
        v = value
        half = self.n // 2
        while v != 0:
            d = v % self.n
            if d > half or (d == half and self.n == 2 * half and v % (self.n * self.n) >= self.n * half):
                d -= self.n
            digits.append(d)
            v = (v - d) // self.n
        return digits

    def length_upper_word(self, elem):
        """Horner word in base n: a^(e-E) b^(d_E) a b^(d_(E-1)) a ... b^(d_0) a^(t-e)."""
        num, e, t = elem
        digits = self._balanced_digits(num)
        if not digits:
            return reduce_word(_letters((0, t)))
        depth = len(digits) - 1
        letters = [(0, e - depth)]
        for i in range(depth, -1, -1):
            if i < depth:
                letters.append((0, 1))
            letters.append((1, digits[i]))
        letters.append((0, t - e))
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
        than b."""
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

    def cyclic_inner_length(self, gen_index, elem):
        num, e, t = elem
        if gen_index == 0:
            return abs(t) if num == 0 else None
        return abs(num) if (t == 0 and e == 0) else None


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
