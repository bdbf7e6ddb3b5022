"""Rational first homology of the surface with the symplectic intersection form.

Vectors live in Q^{2g} over the ordered basis X1, Y1, ..., Xg, Yg; basis index
k in 0..2g-1 is X_{k//2+1} for even k and Y_{k//2+1} for odd k. All arithmetic
is exact (fractions.Fraction), never floating point.
"""

from __future__ import annotations

from fractions import Fraction

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

    def __init__(self, genus: int, coords: tuple[Fraction, ...]):
        if len(coords) != 2 * genus:
            raise ValueError("coordinate count must be 2*genus")
        _set(self, "genus", genus)
        _set(self, "coords", coords)

    @classmethod
    def zero(cls, genus: int) -> "HVec":
        return cls(genus, (Fraction(0),) * (2 * genus))

    @classmethod
    def basis(cls, genus: int, k: int) -> "HVec":
        coords = [Fraction(0)] * (2 * genus)
        coords[k] = Fraction(1)
        return cls(genus, tuple(coords))

    @classmethod
    def from_coords(cls, genus: int, coords) -> "HVec":
        return cls(genus, tuple(Fraction(c) for c in coords))

    def __add__(self, other: "HVec") -> "HVec":
        check_genus(self, other)
        return HVec(self.genus, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "HVec") -> "HVec":
        return self + (-other)

    def __neg__(self) -> "HVec":
        return HVec(self.genus, tuple(-a for a in self.coords))

    def scale(self, c) -> "HVec":
        c = Fraction(c)
        return HVec(self.genus, tuple(c * a for a in self.coords))

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


def _letter_counts(w: Word) -> list[int]:
    """|w| as ints: the exponent sum of each generator, by basis index."""
    counts = [0] * (2 * w.genus)
    for l in w.letters:
        counts[abs(l) - 1] += 1 if l > 0 else -1
    return counts


def abelianize(w: Word) -> HVec:
    return HVec(w.genus, tuple(Fraction(c) for c in _letter_counts(w)))


def _pairing(u, v):
    """u . v for coordinate sequences u, v over X1, Y1, ..., Xg, Yg."""
    return sum(u[k] * v[k + 1] - u[k + 1] * v[k] for k in range(0, len(u), 2))


def intersection(u: HVec, v: HVec) -> Fraction:
    check_genus(u, v)
    return Fraction(_pairing(u.coords, v.coords))


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

    One elimination step: at the first coordinate i0 where u1 and u2 are not
    both zero, s*a + t*b = d = +-gcd(a, b) of their entries gives the unimodular
    change c1 = s*u1 + t*u2, c2 = (a/d)*u2 - (b/d)*u1 with c1[i0] = d and
    c2[i0] = 0, so v has at most one candidate m1*c1 + n1*c2.
    """
    check_genus(v, u1)
    check_genus(v, u2)
    if not (is_integral(u1) and is_integral(u2)):
        raise ValueError("lattice generators must have integer coordinates")
    a = [int(c) for c in u1.coords]
    b = [int(c) for c in u2.coords]
    i0 = next((i for i in range(len(a)) if a[i] or b[i]), 0)
    # d = 0 only when u1 = u2 = 0; then c1 = c2 = 0 and only v = 0 passes
    d, s, t = _ext_gcd(a[i0], b[i0])
    d = d or 1
    p, q = a[i0] // d, b[i0] // d
    c1 = [s * x + t * y for x, y in zip(a, b)]
    c2 = [p * y - q * x for x, y in zip(a, b)]
    m1 = v.coords[i0] / d
    k = next((i for i, x in enumerate(c2) if x), None)
    n1 = Fraction(0) if k is None else (v.coords[k] - m1 * c1[k]) / c2[k]
    if (m1.denominator != 1 or n1.denominator != 1
            or any(m1 * x + n1 * y != z for x, y, z in zip(c1, c2, v.coords))):
        return LatticeWitness(False)
    return LatticeWitness(True, int(s * m1 - q * n1), int(t * m1 + p * n1))
