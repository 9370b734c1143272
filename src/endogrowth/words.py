"""Words over generator alphabets, endomorphisms, and homomorphism checks.

A word is a sequence of (generator index, nonzero exponent) letters.  The
text form is whitespace-separated tokens ``name`` or ``name^INT`` with INT a
nonzero integer (negative allowed), e.g. ``a1^-2 a2 a1``.

Machines (see :mod:`endogrowth.families`) supply exact group arithmetic;
everything here is machine-agnostic.  An endomorphism reaches this module as
its generator images, as elements: ``image_elements`` evaluates image words,
and a descriptor shortcut gives elements directly.  ``validate_endo`` checks
them against the relators once, into a ``ValidEndo``, from which every route
derives what it needs (the free abelianization matrix, eventual triviality,
iterates).  No route checks the images again.  No value is changed after
construction and all operations are pure.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import ValidationError
from .exactlin import IntMatrix, _Value, char_poly

__all__ = [
    "GenSet",
    "Word",
    "Endomorphism",
    "parse_word",
    "word_str",
    "reduce_word",
    "evaluate",
    "endo_power_image",
    "check_homomorphism",
    "validate_endo",
    "eventually_trivial",
    "image_elements",
    "apply_on_element",
    "HomVerdict",
    "ValidEndo",
    "abelianization_matrix",
]


class GenSet(_Value):
    """Ordered generator names; unique, nonempty, no whitespace or '^'."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        if not names:
            raise ValidationError("generator set must be nonempty")
        seen = set()
        for name in names:
            if not name or any(c.isspace() for c in name) or "^" in name:
                raise ValidationError(f"bad generator name {name!r}")
            if name in seen:
                raise ValidationError(f"duplicate generator name {name!r}")
            seen.add(name)
        self.names = names

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown generator {name!r}") from None


class Word(_Value):
    """Letters (generator index, exponent != 0); not necessarily reduced."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[int, int], ...] = ()):
        self.letters = letters

    def length(self) -> int:
        """Letter count; unlike ``len`` it is not capped at sys.maxsize."""
        return sum(abs(e) for _, e in self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        return Word(base.letters * abs(n))


def reduce_word(w: Word) -> Word:
    """Free reduction: merge adjacent letters on the same generator, drop zeros."""
    out: list[tuple[int, int]] = []
    for g, e in w.letters:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            out.pop()
            if merged != 0:
                out.append((g, merged))
        else:
            out.append((g, e))
    return Word(tuple(out))


def commutator_word(u: Word, v: Word) -> Word:
    return reduce_word(u.inverse() * v.inverse() * u * v)


def parse_word(text: str, gens: GenSet) -> Word:
    """Parse the ``name`` / ``name^INT`` token grammar."""
    letters = []
    for token in text.split():
        name, sep, exp = token.partition("^")
        if sep:
            try:
                e = int(exp)
            except ValueError:
                raise ValidationError(f"bad exponent in token {token!r}") from None
            if e == 0:
                raise ValidationError(f"zero exponent in token {token!r}")
        else:
            e = 1
        letters.append((gens.index(name), e))
    return reduce_word(Word(tuple(letters)))


def word_str(w: Word, gens: GenSet) -> str:
    return " ".join(
        gens.names[g] if e == 1 else f"{gens.names[g]}^{e}" for g, e in w.letters
    )


class Endomorphism(_Value):
    """Map of each generator to a word over the same generators."""

    __slots__ = ("domain", "images")

    def __init__(self, domain: GenSet, images: tuple[Word, ...]):
        if len(images) != len(domain):
            raise ValidationError("one image word per generator required")
        n = len(domain)
        for w in images:
            for g, _ in w.letters:
                if not 0 <= g < n:
                    raise ValidationError(f"image uses generator index {g}")
        self.domain = domain
        self.images = images

    @staticmethod
    def identity(gens: GenSet) -> "Endomorphism":
        return Endomorphism(gens, tuple(Word(((i, 1),)) for i in range(len(gens))))

    @staticmethod
    def from_strings(gens: GenSet, images: dict[str, str]) -> "Endomorphism":
        missing = set(gens.names) - set(images)
        if missing:
            raise ValidationError(f"missing images for {sorted(missing)}")
        extra = set(images) - set(gens.names)
        if extra:
            raise ValidationError(f"images for unknown generators {sorted(extra)}")
        return Endomorphism(gens, tuple(parse_word(images[n], gens) for n in gens.names))

    def image_of_word(self, w: Word) -> Word:
        out = Word()
        for g, e in w.letters:
            out = out * (self.images[g] ** e)
        return reduce_word(out)

    def compose(self, inner: "Endomorphism") -> "Endomorphism":
        """self after inner: (self.compose(inner))(g) = self(inner(g))."""
        if self.domain != inner.domain:
            raise ValidationError("composition needs a common generator set")
        return Endomorphism(self.domain, tuple(self.image_of_word(w) for w in inner.images))

    def __pow__(self, k: int) -> "Endomorphism":
        if k < 0:
            raise ValueError("negative endomorphism power")
        acc = Endomorphism.identity(self.domain)
        for _ in range(k):
            acc = self.compose(acc)
        return acc


def _product(machine, elems, letters):
    """The product of elems[g]^e over the letters (g, e), exact."""
    mul, pow_ = machine.mul, machine.pow
    acc = machine.identity
    for g, e in letters:
        acc = mul(acc, pow_(elems[g], e))
    return acc


def evaluate(machine, w: Word):
    """Normal form of the product the word spells, exact."""
    n = len(machine.gens)
    elems = {}
    for g, _ in w.letters:
        if not 0 <= g < n:
            raise ValidationError(f"generator index {g} out of range")
        elems[g] = machine.gen_elem(g)
    return _product(machine, elems, w.letters)


def image_elements(machine, endo: Endomorphism) -> tuple:
    """Evaluate each generator image once; basis for fast iteration."""
    return tuple(evaluate(machine, w) for w in endo.images)


def apply_on_element(machine, images: tuple, x):
    """Image of an element under the endomorphism with the given generator images.

    Uses the machine's canonical decomposition, so exponents may be huge
    without any word blowup.
    """
    return _product(machine, images, machine.decompose(x).letters)


def endo_power_image(endo: Endomorphism, gen: str, k: int) -> Word:
    """phi^k(g) as a reduced word (substitution k times, reduced each round).

    Word lengths can grow geometrically in k for expanding endomorphisms;
    for large k prefer element-level iteration via ``apply_on_element``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    w = Word(((endo.domain.index(gen), 1),))
    for _ in range(k):
        w = endo.image_of_word(w)
    return reduce_word(w)


class HomVerdict(NamedTuple):
    valid: bool
    violated_relator: Optional[Word] = None
    witness: object = None


def check_homomorphism(machine, images: tuple) -> HomVerdict:
    """Valid iff every relator of the machine maps to the identity under the
    assignment of the generator images ``images``, elements of ``machine``."""
    for rel in machine.relators():
        acc = _product(machine, images, rel.letters)
        if acc != machine.identity:
            return HomVerdict(False, rel, acc)
    return HomVerdict(True)


class ValidEndo(_Value):
    """The generator images, as elements of ``machine``, of an endomorphism
    that maps every relator to the identity.  Build it with ``validate_endo``
    (or from images whose ``HomVerdict`` is valid); every growth route takes
    one and relies on the relators holding."""

    __slots__ = ("machine", "images", "_derived")

    def __init__(self, machine, images: tuple):
        self.machine = machine
        self.images = images
        self._derived = {}

    def _key(self):
        return (("machine", self.machine), ("images", self.images))

    def derived(self, fn):
        """``fn(self)``, computed once per ValidEndo, so the routes of one
        command share what they both derive (the Sol classification)."""
        if fn not in self._derived:
            self._derived[fn] = fn(self)
        return self._derived[fn]


def validate_endo(machine, images: tuple) -> ValidEndo:
    """The checked endomorphism with the generator images ``images``;
    ValidationError names a relator it violates."""
    verdict = check_homomorphism(machine, images)
    if not verdict.valid:
        raise ValidationError(
            f"endomorphism violates relator {word_str(verdict.violated_relator, machine.gens)!r}"
        )
    return ValidEndo(machine, images)


def abelianization_matrix(valid: ValidEndo) -> Optional[IntMatrix]:
    """Exponent-sum matrix on the free abelianization; column i is the image of
    generator i, summed over the machine's word for it.  Every relator has
    exponent sum 0 in each free-abelianization generator, so any word for the
    image gives the same column.  Returns None when the machine declares no
    free part."""
    idxs = valid.machine.free_ab_indices
    if not idxs:
        return None
    pos = {g: r for r, g in enumerate(idxs)}
    cols = []
    for i in idxs:
        vec = [0] * len(idxs)
        for g, e in valid.machine.decompose(valid.images[i]).letters:
            if g in pos:
                vec[pos[g]] += e
        cols.append(vec)
    return IntMatrix.from_rows([list(row) for row in zip(*cols)])


def eventually_trivial(valid: ValidEndo) -> Optional[int]:
    """The least n with phi^n trivial, or None when no power of phi is.

    Exact shortcut first: if the induced matrix on the free abelianization is
    not nilpotent, no power can be trivial.  Otherwise some power is trivial
    iff phi^B is, B the machine's ``triviality_power``.  The images of
    phi^(2^j) are built by squaring until 2^j >= B; when the last one is
    trivial, the greatest n with phi^n nontrivial is found bit by bit from
    the top.  That is at most 2 ceil(log2 B) compositions.
    """
    ab = abelianization_matrix(valid)
    if ab is not None and any(char_poly(ab).coeffs[:-1]):
        return None

    machine = valid.machine
    identity = machine.identity

    def compose(outer, inner):  # the images of outer after inner
        return tuple(apply_on_element(machine, outer, x) for x in inner)

    powers = [valid.images]  # powers[j]: the images of phi^(2^j)
    while 1 << (len(powers) - 1) < machine.triviality_power:
        powers.append(compose(powers[-1], powers[-1]))
    if any(x != identity for x in powers[-1]):
        return None
    n, state = 0, tuple(machine.gen_elem(i) for i in range(len(machine.gens)))
    for j in reversed(range(len(powers) - 1)):
        images = compose(powers[j], state)
        if any(x != identity for x in images):
            n, state = n + (1 << j), images
    return n + 1
