"""Rational first homology of the surface with the symplectic intersection form.

Vectors live in Q^{2g} over the ordered basis X1, Y1, ..., Xg, Yg; basis index
k in 0..2g-1 is X_{k//2+1} for even k and Y_{k//2+1} for odd k. The exterior
powers as the production path uses them are here too: the alternating
arithmetic and degree 2, `Wedge2`. The wedge of two homology vectors, degree
3, the tensor embeddings, the actions on homology vectors and the
basis-index check are in `reference`. All arithmetic is exact: classes of
words, intersection numbers and the lattice decision are ints, and
`fractions.Fraction` holds only values that need not be integers.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations

from .words import Word, _Record, _set, check_genus


def basis_label(k: int) -> str:
    return ("X" if k % 2 == 0 else "Y") + str(k // 2 + 1)


def mate(k: int) -> int:
    """The symplectic partner of basis index k: X_j <-> Y_j."""
    return k ^ 1


def basis_pairing(i: int, j: int) -> int:
    """Intersection of basis vectors: X_j . Y_j = 1, Y_j . X_j = -1, else 0."""
    if j != mate(i):
        return 0
    return 1 if i % 2 == 0 else -1


def format_terms(terms) -> str:
    """Signed-sum text of (label, coeff) pairs, e.g. 'X1 - 1/2*Y2'; '0' if
    there are none. Coefficients must be nonzero."""
    parts = []
    for label, c in terms:
        if c == 1:
            parts.append(label)
        elif c == -1:
            parts.append(f"-{label}")
        else:
            parts.append(f"{c}*{label}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


class HVec(_Record):
    __slots__ = ("genus", "coords")

    def __init__(self, genus: int, coords: Iterable[int | Fraction]):
        coords = tuple(coords)
        if len(coords) != 2 * genus:
            raise ValueError("coordinate count must be 2*genus")
        _set(self, "genus", genus)
        _set(self, "coords", coords)

    @classmethod
    def zero(cls, genus: int) -> "HVec":
        return cls(genus, (0,) * (2 * genus))

    @classmethod
    def basis(cls, genus: int, k: int) -> "HVec":
        coords = [0] * (2 * genus)
        coords[k] = 1
        return cls(genus, coords)

    def __add__(self, other: "HVec") -> "HVec":
        check_genus(self.genus, other)
        return HVec(self.genus, (a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "HVec") -> "HVec":
        return self + (-other)

    def __neg__(self) -> "HVec":
        return HVec(self.genus, (-a for a in self.coords))

    def scale(self, c) -> "HVec":
        return HVec(self.genus, (c * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def to_json(self) -> dict[str, str]:
        return {
            basis_label(k): str(c)
            for k, c in enumerate(self.coords)
            if c != 0
        }

    def __str__(self) -> str:
        return format_terms((basis_label(k), c)
                            for k, c in enumerate(self.coords) if c != 0)


def _normalize(items) -> dict[tuple[int, ...], Fraction]:
    """Sum (index tuple, coeff) items over sorted index tuples, each term
    signed by its sorting permutation; tuples with a repeated index vanish."""
    out: dict[tuple[int, ...], Fraction] = {}
    for key, c in items:
        ordered = tuple(sorted(key))
        if len(set(ordered)) < len(ordered):
            continue
        if sum(p > q for p, q in combinations(key, 2)) % 2:
            c = -c
        # not out.get(ordered, 0) + c: int + Fraction takes a slow path
        out[ordered] = out[ordered] + c if ordered in out else c
    return {k: c for k, c in out.items() if c}


class _Alternating(_Record):
    """An element of an exterior power of homology: sorted index tuples
    (strictly increasing basis indices) mapped to nonzero rationals."""
    __slots__ = ("genus", "terms")

    def __init__(self, genus: int, terms: dict[tuple[int, ...], Fraction]):
        _set(self, "genus", genus)
        _set(self, "terms", terms)

    @classmethod
    def make(cls, genus: int, items):
        """Build from (index tuple, coeff) items. Every stored coefficient is
        a `Fraction`; one that already is one is kept as it is, since
        `Fraction(c)` would rebuild it through a `numbers.Rational` check."""
        return cls(genus, _normalize(
            (k, c if type(c) is Fraction else Fraction(c)) for k, c in items))

    @classmethod
    def zero(cls, genus: int):
        return cls(genus, {})

    def __add__(self, other):
        check_genus(self.genus, other)
        return self.make(self.genus, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return self.make(self.genus, [(k, c * v) for k, v in self.terms.items()])

    def is_zero(self) -> bool:
        return not self.terms


class Wedge2(_Alternating):
    def to_json(self) -> list[dict[str, str]]:
        items = [
            {"basis": f"{basis_label(i)}^{basis_label(j)}", "coeff": str(c)}
            for (i, j), c in self.terms.items()
        ]
        return sorted(items, key=lambda t: t["basis"])

    def __str__(self) -> str:
        return format_terms((f"{basis_label(i)}^{basis_label(j)}", c)
                            for (i, j), c in sorted(self.terms.items()))


def abelianize(w: Word) -> HVec:
    """|w| with int coordinates: the exponent sum of each generator."""
    counts = [0] * (2 * w.genus)
    for l in w.letters:
        counts[abs(l) - 1] += 1 if l > 0 else -1
    return HVec(w.genus, counts)


def _pairing(u, v):
    """u . v for coordinate sequences u, v over X1, Y1, ..., Xg, Yg."""
    return sum(u[k] * v[k + 1] - u[k + 1] * v[k] for k in range(0, len(u), 2))


def intersection(u: HVec, v: HVec) -> int | Fraction:
    check_genus(u.genus, v)
    return _pairing(u.coords, v.coords)


def is_integral(v: HVec) -> bool:
    return all(c.denominator == 1 for c in v.coords)


class LatticeWitness(_Record):
    __slots__ = ("member", "m", "n")

    def __init__(self, member: bool, m: int | None = None, n: int | None = None):
        for name, value in zip(self.__slots__, (member, m, n)):
            _set(self, name, value)

    def to_json(self):
        return {"member": self.member, "m": self.m, "n": self.n}


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g, a gcd of a and b of either sign."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def lattice_member(v: HVec, u1: HVec, u2: HVec) -> LatticeWitness:
    """Decide v in Z*u1 + Z*u2, with an integer witness (m, n) when it holds.

    The lattice lies in Z^2g, so it holds no v with a non-integral coordinate.
    Else one elimination step on ints: at the first coordinate i0 where u1 and
    u2 are not both zero, s*a + t*b = d = +-gcd(a, b) of their entries gives
    the unimodular change c1 = s*u1 + t*u2, c2 = (a/d)*u2 - (b/d)*u1 with
    c1[i0] = d and c2[i0] = 0, so v has at most one candidate m1*c1 + n1*c2; a
    remainder of the floor quotients m1, n1 fails the check against v.
    """
    check_genus(v.genus, u1, u2)
    if not (is_integral(u1) and is_integral(u2)):
        raise ValueError("lattice generators must have integer coordinates")
    if not is_integral(v):
        return LatticeWitness(False)
    a, b, z = ([int(c) for c in u.coords] for u in (u1, u2, v))
    i0 = next((i for i in range(len(a)) if a[i] or b[i]), 0)
    # d = 0 only when u1 = u2 = 0; then c1 = c2 = 0 and only v = 0 passes
    d, s, t = _ext_gcd(a[i0], b[i0])
    d = d or 1
    p, q = a[i0] // d, b[i0] // d
    c1 = [s * x + t * y for x, y in zip(a, b)]
    c2 = [p * y - q * x for x, y in zip(a, b)]
    m1 = z[i0] // d
    k = next((i for i, x in enumerate(c2) if x), None)
    n1 = 0 if k is None else (z[k] - m1 * c1[k]) // c2[k]
    if any(m1 * x + n1 * y != w for x, y, w in zip(c1, c2, z)):
        return LatticeWitness(False)
    return LatticeWitness(True, s * m1 - q * n1, t * m1 + p * n1)
