"""Exact normal-form machines for the bundled group families.

Each machine owns: a generator set, exact multiplication/inversion on normal
forms (plain hashable tuples), its defining relator list, a canonical word
decomposition of any element, and a length functional that returns the length
of an explicit word representing the element (an upper bound on the true word
length; exact for the free abelian, torsion product, and Klein families).

Machines are immutable after construction and all element operations are
pure, so sharing across threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DimensionError, FamilyError, ValidationError
from .exactlin import IntMatrix, inverse_unimodular_2x2, mat_vec
from .words import GenSet, Word, commutator_word

__all__ = [
    "Machine",
    "FreeAbelianMachine",
    "TorsionProductMachine",
    "HeisenbergMachine",
    "Nil2Machine",
    "SolMachine",
    "KleinMachine",
    "BSMachine",
    "mul_elements",
    "klein_restricted_matrix",
    "machine_from_params",
]


class Machine:
    """Shared helpers; concrete families fill in the arithmetic."""

    family: str
    gens: GenSet
    identity: object
    free_ab_indices: tuple[int, ...]

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def gen_elem(self, i: int):
        raise NotImplementedError

    def relators(self) -> list[Word]:
        raise NotImplementedError

    def decompose(self, elem) -> Word:
        """Canonical (not necessarily geodesic) word for the element."""
        raise NotImplementedError

    def length_upper(self, elem) -> int:
        return len(self.length_upper_word(elem))

    def length_upper_word(self, elem) -> Word:
        """Explicit word whose length the functional reports."""
        raise NotImplementedError

    def commutator(self, a, b):
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def cyclic_inner_length(self, gen_index: int, elem):
        """|k| if elem == gen^k, else None.  Used for distortion profiles."""
        raise NotImplementedError


def mul_elements(machine_a: Machine, a, machine_b: Machine, b):
    """Multiply elements that may come from different machine instances."""
    if machine_a != machine_b:
        raise FamilyError(f"elements of {machine_a} and {machine_b} cannot be combined")
    return machine_a.mul(a, b)


def _letters(*pairs) -> Word:
    return Word(tuple((g, e) for g, e in pairs if e != 0))


def _gen_word(i: int, e: int = 1) -> Word:
    return Word(((i, e),))


@dataclass(frozen=True)
class FreeAbelianMachine(Machine):
    """Z^rank with coordinatewise arithmetic; elements are int tuples."""

    rank: int
    names: tuple[str, ...] = ()
    family: str = field(default="free_abelian", init=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError("rank must be >= 1")
        names = self.names or tuple(f"e{i + 1}" for i in range(self.rank))
        if len(names) != self.rank:
            raise ValidationError("need one name per generator")
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "gens", GenSet(self.names))
        object.__setattr__(self, "identity", (0,) * self.rank)
        object.__setattr__(self, "free_ab_indices", tuple(range(self.rank)))

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def gen_elem(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def relators(self):
        return [
            commutator_word(_gen_word(i), _gen_word(j))
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
        ]

    def decompose(self, elem):
        return _letters(*((i, x) for i, x in enumerate(elem)))

    def length_upper_word(self, elem):
        return self.decompose(elem)

    def length_upper(self, elem):
        return sum(abs(x) for x in elem)

    def cyclic_inner_length(self, gen_index, elem):
        if all(x == 0 for i, x in enumerate(elem) if i != gen_index):
            return abs(elem[gen_index])
        return None


@dataclass(frozen=True)
class TorsionProductMachine(Machine):
    """Z^rank x prod Z_{b_i}; elements are (free tuple, residue tuple)."""

    rank: int
    torsion: tuple[int, ...]
    names: tuple[str, ...] = ()
    family: str = field(default="abelian_with_torsion", init=False)

    def __post_init__(self):
        if self.rank < 0 or (self.rank == 0 and not self.torsion):
            raise ValidationError("need at least one generator")
        object.__setattr__(self, "torsion", tuple(int(b) for b in self.torsion))
        for b in self.torsion:
            if b < 2:
                raise ValidationError("torsion orders must be >= 2")
        names = self.names or tuple(f"a{i + 1}" for i in range(self.rank)) + tuple(
            f"t{i + 1}" for i in range(len(self.torsion))
        )
        if len(names) != self.rank + len(self.torsion):
            raise ValidationError("need one name per generator")
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "gens", GenSet(self.names))
        object.__setattr__(self, "identity", ((0,) * self.rank, (0,) * len(self.torsion)))
        object.__setattr__(self, "free_ab_indices", tuple(range(self.rank)))

    def mul(self, a, b):
        return (
            tuple(x + y for x, y in zip(a[0], b[0])),
            tuple((x + y) % m for x, y, m in zip(a[1], b[1], self.torsion)),
        )

    def inv(self, a):
        return (tuple(-x for x in a[0]), tuple((-x) % m for x, m in zip(a[1], self.torsion)))

    def gen_elem(self, i):
        free = tuple(1 if j == i else 0 for j in range(self.rank))
        tors = tuple(1 if self.rank + j == i else 0 for j in range(len(self.torsion)))
        return (free, tors)

    def relators(self):
        n = self.rank + len(self.torsion)
        rels = [
            commutator_word(_gen_word(i), _gen_word(j))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        rels += [_gen_word(self.rank + j, b) for j, b in enumerate(self.torsion)]
        return rels

    def _short_residue(self, r, m):
        return r if r <= m - r else r - m

    def decompose(self, elem):
        free, tors = elem
        letters = [(i, x) for i, x in enumerate(free)]
        letters += [
            (self.rank + j, self._short_residue(r, m))
            for j, (r, m) in enumerate(zip(tors, self.torsion))
        ]
        return _letters(*letters)

    def length_upper_word(self, elem):
        return self.decompose(elem)

    def length_upper(self, elem):
        free, tors = elem
        return sum(abs(x) for x in free) + sum(
            min(r, m - r) for r, m in zip(tors, self.torsion)
        )

    def cyclic_inner_length(self, gen_index, elem):
        free, tors = elem
        if any(x != 0 for i, x in enumerate(free) if i != gen_index):
            return None
        if any(r != 0 for j, r in enumerate(tors) if self.rank + j != gen_index):
            return None
        if gen_index < self.rank:
            return abs(free[gen_index])
        j = gen_index - self.rank
        return min(tors[j], self.torsion[j] - tors[j])


@dataclass(frozen=True)
class HeisenbergMachine(Machine):
    """Integer Heisenberg lattice with parameter k: [a1, a2] = a3^-k.

    Normal form a1^m a2^n a3^l as the triple (m, n, l); multiplication is
    (m, n, l)(m', n', l') = (m + m', n + n', l + l' + k n m').

    With include_center_gen=False the generating set is {a1, a2} (only
    allowed for k=1, where the center is generated by the commutator).
    """

    k: int = 1
    include_center_gen: bool = True
    family: str = field(default="heisenberg", init=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if not self.include_center_gen and self.k != 1:
            raise ValidationError("dropping the central generator requires k = 1")
        names = ("a1", "a2", "a3") if self.include_center_gen else ("a1", "a2")
        object.__setattr__(self, "gens", GenSet(names))
        object.__setattr__(self, "identity", (0, 0, 0))
        object.__setattr__(self, "free_ab_indices", (0, 1))

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + self.k * a[1] * b[0])

    def inv(self, a):
        m, n, l = a
        return (-m, -n, -l + self.k * n * m)

    def gen_elem(self, i):
        return ((1, 0, 0), (0, 1, 0), (0, 0, 1))[i]

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

    def _central_pieces(self, l):
        """Word pieces spelling a3^l from commutators (+ leftover a3 letters).

        [a1^-s, a2^t] = a3^(k s t), so l = sign*(k*q + r0) splits into two
        commutator blocks covering q = s*t + r and r0 leftover letters.
        Each piece (s, t) stands for the word [a1^s, a2^t] = a3^(-k s t).
        """
        if l == 0:
            return [], 0
        sign = 1 if l > 0 else -1
        q, r0 = divmod(abs(l), self.k)
        pieces = []
        if q > 0:
            s = math.isqrt(q)
            if s * s < q:
                s += 1
            t, r = divmod(q, s)
            pieces.append((-sign * s, t))
            if r > 0:
                pieces.append((-sign, r))
        return pieces, sign * r0

    def _central_word(self, l):
        pieces, r0 = self._central_pieces(l)
        letters = []
        for s, t in pieces:
            letters += [(0, -s), (1, -t), (0, s), (1, t)]
        if r0 != 0:
            letters.append((2, r0))
        return _letters(*letters)

    def decompose(self, elem):
        m, n, l = elem
        if self.include_center_gen:
            return _letters((0, m), (1, n), (2, l))
        return _letters((0, m), (1, n)) * self._central_word(l)

    def length_upper_word(self, elem):
        m, n, l = elem
        prefix = _letters((0, m), (1, n))
        central = self._central_word(l)
        if self.include_center_gen and abs(l) <= len(central):
            central = _letters((2, l))
        return prefix * central

    def cyclic_inner_length(self, gen_index, elem):
        m, n, l = elem
        if gen_index == 2 and self.include_center_gen:
            return abs(l) if m == 0 and n == 0 else None
        target = self.gen_elem(gen_index)
        coords = (m, n, l)
        if all(c == 0 for c, t in zip(coords, target) if t == 0):
            i = target.index(1)
            return abs(coords[i])
        return None


@dataclass(frozen=True)
class Nil2Machine(Machine):
    """Torsion-free class-2 nilpotent group with designated central generators.

    Generators: tau_1..tau_n plus central sigma names.  Normal form
    (x, z) = tau^x sigma^z.  gamma[(i, j)] for i > j is the central exponent
    vector of [tau_i, tau_j]; each designated sigma is [tau_i, tau_j] for its
    designated pair, so its gamma entry is the matching +-unit vector.
    """

    n_gens: int
    central: tuple[str, ...]
    designated: tuple[tuple[str, tuple[int, int]], ...]  # name -> (i, j), 1-based
    gamma: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]  # (i, j) i>j -> vector
    tau_names: tuple[str, ...] = ()
    family: str = field(default="nilpotent2", init=False)

    def __post_init__(self):
        n, m = self.n_gens, len(self.central)
        if n < 2 or m < 1:
            raise ValidationError("need >= 2 tau generators and >= 1 central generator")
        taus = self.tau_names or tuple(f"t{i + 1}" for i in range(n))
        if len(taus) != n:
            raise ValidationError("need one name per tau generator")
        object.__setattr__(self, "tau_names", taus)
        object.__setattr__(self, "gens", GenSet(taus + tuple(self.central)))
        object.__setattr__(self, "identity", ((0,) * n, (0,) * m))
        object.__setattr__(self, "free_ab_indices", tuple(range(n)))

        table = {}
        for (i, j), vec in self.gamma:
            if not (1 <= j < i <= n):
                raise ValidationError(f"gamma index {(i, j)} must satisfy n >= i > j >= 1")
            if len(vec) != m:
                raise ValidationError("gamma vectors must match the central rank")
            table[(i, j)] = tuple(int(v) for v in vec)
        seen_pairs = set()
        central_index = {name: s for s, name in enumerate(self.central)}
        for name, (i, j) in self.designated:
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
        object.__setattr__(self, "_gamma_table", full)

    def _gamma(self, i, j):
        for key, vec in self._gamma_table:
            if key == (i, j):
                return vec
        raise FamilyError(f"no gamma entry for {(i, j)}")

    def mul(self, a, b):
        (xa, za), (xb, zb) = a, b
        m = len(self.central)
        corr = [0] * m
        for (i, j), vec in self._gamma_table:
            c = xa[i - 1] * xb[j - 1]
            if c:
                for u in range(m):
                    corr[u] += c * vec[u]
        return (
            tuple(p + q for p, q in zip(xa, xb)),
            tuple(p + q + r for p, q, r in zip(za, zb, corr)),
        )

    def inv(self, a):
        x, z = a
        m = len(self.central)
        corr = [0] * m
        for (i, j), vec in self._gamma_table:
            c = x[i - 1] * x[j - 1]
            if c:
                for u in range(m):
                    corr[u] += c * vec[u]
        return (tuple(-p for p in x), tuple(-p + q for p, q in zip(z, corr)))

    def gen_elem(self, i):
        n, m = self.n_gens, len(self.central)
        if i < n:
            return (tuple(1 if j == i else 0 for j in range(n)), (0,) * m)
        return ((0,) * n, tuple(1 if j == i - n else 0 for j in range(m)))

    def central_word(self, vec) -> Word:
        n = self.n_gens
        return _letters(*((n + s, e) for s, e in enumerate(vec)))

    def relators(self):
        n = self.n_gens
        rels = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                # [tau_i, tau_j] = sigma^(-gamma(j, i))
                rhs = self.central_word(tuple(-v for v in self._gamma(j, i)))
                rels.append(commutator_word(_gen_word(i - 1), _gen_word(j - 1)) * rhs.inverse())
        total = n + len(self.central)
        for i in range(n):
            for s in range(n, total):
                rels.append(commutator_word(_gen_word(i), _gen_word(s)))
        for s in range(n, total):
            for u in range(s + 1, total):
                rels.append(commutator_word(_gen_word(s), _gen_word(u)))
        return rels

    def decompose(self, elem):
        x, z = elem
        return _letters(*((i, e) for i, e in enumerate(x))) * self.central_word(z)

    def length_upper_word(self, elem):
        """tau prefix, then each designated central power via commutator blocks.

        [tau_i^a, tau_j^b] = sigma_s^(a b) exactly for a designated pair, so a
        power sigma_s^c costs about 4*sqrt(|c|) letters; plain sigma letters
        win for small c and are the only option for undesignated generators.
        """
        x, z = elem
        designated_of = {self.central.index(name): pair for name, pair in self.designated}
        letters = [(i, e) for i, e in enumerate(x)]
        n = self.n_gens
        for s, c in enumerate(z):
            pair = designated_of.get(s)
            if pair is None or abs(c) <= 4:
                if c:
                    letters.append((n + s, c))
                continue
            i, j = pair[0] - 1, pair[1] - 1
            sign = 1 if c > 0 else -1
            q = abs(c)
            u = math.isqrt(q)
            if u * u < q:
                u += 1
            t, r = divmod(q, u)
            blocks = [(sign * u, t)]
            if r:
                blocks.append((sign, r))
            direct_cost = q
            block_cost = sum(2 * abs(a) + 2 * b for a, b in blocks)
            if direct_cost <= block_cost:
                letters.append((n + s, c))
                continue
            for a, b in blocks:
                letters += [(i, -a), (j, -b), (i, a), (j, b)]
        return _letters(*letters)

    def commutator_vector(self, u, v):
        """Central exponent vector of [a, b] for elements a, b with x-parts u, v."""
        m = len(self.central)
        out = [0] * m
        for (i, j), vec in self._gamma_table:
            c = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
            if c:
                for s in range(m):
                    out[s] += c * vec[s]
        return tuple(out)

    def cyclic_inner_length(self, gen_index, elem):
        x, z = elem
        coords = x + z
        if all(c == 0 for i, c in enumerate(coords) if i != gen_index):
            return abs(coords[gen_index])
        return None


@dataclass(frozen=True)
class SolMachine(Machine):
    """Lattice Z^2 x|_A Z of Sol: generators a1, a2, tau with tau a^v tau^-1 = a^(Av).

    A must be an integer 2x2 matrix with determinant 1 and trace > 2.
    Elements are ((v1, v2), t) for a1^v1 a2^v2 tau^t.
    """

    matrix: IntMatrix
    family: str = field(default="sol_lattice", init=False)

    def __post_init__(self):
        a = self.matrix
        if (a.rows, a.cols) != (2, 2):
            raise DimensionError("holonomy matrix must be 2x2")
        (p, q), (r, s) = a.entries
        if p * s - q * r != 1:
            raise ValidationError("holonomy matrix must have determinant 1")
        if p + s <= 2:
            raise ValidationError("holonomy matrix must have trace > 2")
        object.__setattr__(self, "gens", GenSet(("a1", "a2", "tau")))
        object.__setattr__(self, "identity", ((0, 0), 0))
        object.__setattr__(self, "free_ab_indices", (2,))
        object.__setattr__(self, "_inv_matrix", inverse_unimodular_2x2(a))
        object.__setattr__(self, "_pow_cache", {0: IntMatrix.identity(2)})

    def holonomy_power(self, t: int) -> IntMatrix:
        cache = self._pow_cache
        if t not in cache:
            # the cached exponents form a range around 0: extend it up to t
            step, factor = (1, self.matrix) if t > 0 else (-1, self._inv_matrix)
            k = t
            while k not in cache:
                k -= step
            power = cache[k]
            while k != t:
                k += step
                power = power @ factor
                cache[k] = power
        return cache[t]

    def mul(self, a, b):
        (va, ta), (vb, tb) = a, b
        w = mat_vec(self.holonomy_power(ta), vb)
        return ((va[0] + w[0], va[1] + w[1]), ta + tb)

    def inv(self, a):
        v, t = a
        w = mat_vec(self.holonomy_power(-t), v)
        return ((-w[0], -w[1]), -t)

    def gen_elem(self, i):
        return (((1, 0), 0), ((0, 1), 0), ((0, 0), 1))[i]

    def relators(self):
        a = self.matrix.entries
        rels = [commutator_word(_gen_word(0), _gen_word(1))]
        for i in range(2):
            conj = _gen_word(2) * _gen_word(i) * _gen_word(2, -1)
            rhs = _letters((0, -a[0][i]), (1, -a[1][i]))
            rels.append(conj * rhs)
        return rels

    def decompose(self, elem):
        (v1, v2), t = elem
        return _letters((0, v1), (1, v2), (2, t))

    def _minimizer(self):
        from .solgr import SolLengthMinimizer  # deferred: solgr builds on exactlin only

        if not hasattr(self, "_len_min"):
            object.__setattr__(self, "_len_min", SolLengthMinimizer(self.matrix))
        return self._len_min

    def length_upper_word(self, elem):
        (v1, v2), t = elem
        best = self._minimizer().minimize((v1, v2))
        shifted = mat_vec(self.holonomy_power(-best.shift), (v1, v2))
        return _letters(
            (2, best.shift), (0, shifted[0]), (1, shifted[1]), (2, -best.shift + t)
        )

    def length_upper(self, elem):
        (v1, v2), t = elem
        best = self._minimizer().minimize((v1, v2))
        return best.value + abs(t)

    def cyclic_inner_length(self, gen_index, elem):
        (v1, v2), t = elem
        coords = (v1, v2, t)
        if all(c == 0 for i, c in enumerate(coords) if i != gen_index):
            return abs(coords[gen_index])
        return None


@dataclass(frozen=True)
class KleinMachine(Machine):
    """Klein bottle group <x, y | y x y^-1 = x^-1>, normal form x^a y^b."""

    family: str = field(default="klein_bottle", init=False)

    def __post_init__(self):
        object.__setattr__(self, "gens", GenSet(("x", "y")))
        object.__setattr__(self, "identity", (0, 0))
        object.__setattr__(self, "free_ab_indices", (1,))

    def mul(self, a, b):
        sign = -1 if a[1] % 2 else 1
        return (a[0] + sign * b[0], a[1] + b[1])

    def inv(self, a):
        sign = -1 if a[1] % 2 else 1
        return (sign * -a[0], -a[1])

    def gen_elem(self, i):
        return ((1, 0), (0, 1))[i]

    def relators(self):
        return [_letters((1, 1), (0, 1), (1, -1), (0, 1))]

    def decompose(self, elem):
        return _letters((0, elem[0]), (1, elem[1]))

    def length_upper_word(self, elem):
        return self.decompose(elem)

    def length_upper(self, elem):
        return abs(elem[0]) + abs(elem[1])

    def cyclic_inner_length(self, gen_index, elem):
        other = elem[1 - gen_index]
        return abs(elem[gen_index]) if other == 0 else None


@dataclass(frozen=True)
class BSMachine(Machine):
    """Baumslag-Solitar group <a, b | a^-1 b a = b^n>, n >= 2.

    Elements are (num, e, t): the b-part is num / n^e in canonical form
    (e >= 0; n does not divide num when e > 0), t the a-exponent.
    """

    n: int
    family: str = field(default="baumslag_solitar", init=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("parameter n must be >= 2")
        object.__setattr__(self, "gens", GenSet(("a", "b")))
        object.__setattr__(self, "identity", (0, 0, 0))
        object.__setattr__(self, "free_ab_indices", (0,))

    def _canonical(self, num, e):
        if num == 0:
            return (0, 0)
        while e > 0 and num % self.n == 0:
            num //= self.n
            e -= 1
        return (num, e)

    def mul(self, a, b):
        na, ea, ta = a
        nb, eb, tb = b
        # q_a + n^(-t_a) q_b over the common denominator n^E
        e_common = max(ea, eb + ta, 0)
        num = na * self.n ** (e_common - ea) + nb * self.n ** (e_common - eb - ta)
        num, e = self._canonical(num, e_common)
        return (num, e, ta + tb)

    def inv(self, a):
        num, e, t = a
        # -(n^t q, -t); n^t q = num / n^(e - t)
        num2, e2 = self._canonical(-num, e - t) if e - t >= 0 else (-num * self.n ** (t - e), 0)
        return (num2, e2, -t)

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
        from .words import reduce_word

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

    def length_upper(self, elem):
        return len(self.length_upper_word(elem))

    def cyclic_inner_length(self, gen_index, elem):
        num, e, t = elem
        if gen_index == 0:
            return abs(t) if num == 0 else None
        return abs(num) if (t == 0 and e == 0) else None


def klein_restricted_matrix(machine: KleinMachine, endo) -> IntMatrix:
    """Matrix of the endomorphism on the invariant index-2 subgroup <x, y^2> = Z^2.

    For images x -> x^q, y -> y^r x^l this is [[q, ((-1)^r + 1) l], [0, r]].
    """
    from .words import evaluate

    ex = evaluate(machine, endo.images[0])
    ey = evaluate(machine, endo.images[1])
    if ex[1] != 0:
        raise ValidationError("image of x must be a power of x")
    q = ex[0]
    l, r = ey
    y2_image = machine.mul(ey, ey)  # phi(y^2) = (y^r x^l)^2 in <x, y^2> coordinates
    assert y2_image[1] == 2 * r
    return IntMatrix.from_rows([[q, y2_image[0]], [0, r]])


def machine_from_params(family: str, params: dict) -> Machine:
    """Build a machine from a descriptor's family tag and parameter object."""
    if family == "free_abelian":
        return FreeAbelianMachine(params["rank"], tuple(params.get("names", ())))
    if family == "abelian_with_torsion":
        return TorsionProductMachine(
            params["rank"], tuple(params["torsion"]), tuple(params.get("names", ()))
        )
    if family == "heisenberg":
        return HeisenbergMachine(params["k"], params.get("include_center_gen", True))
    if family == "nilpotent2":
        designated = tuple(sorted((name, tuple(pair)) for name, pair in params["designated"].items()))
        gamma = tuple(
            sorted(
                (tuple(int(x) for x in key.split(",")), tuple(vec))
                for key, vec in params.get("gamma", {}).items()
            )
        )
        return Nil2Machine(
            params["n_gens"],
            tuple(params["central"]),
            designated,
            gamma,
            tuple(params.get("tau_names", ())),
        )
    if family == "sol_lattice":
        return SolMachine(IntMatrix.from_rows(params["A"]))
    if family == "klein_bottle":
        return KleinMachine()
    if family == "baumslag_solitar":
        return BSMachine(params["n"])
    raise ValidationError(f"unknown family {family!r}")
